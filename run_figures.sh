#!/bin/sh
# Regenerates every figure of the paper's evaluation (see EXPERIMENTS.md).
#
# Runs all figure binaries even if some fail, reports the failures at the
# end, and exits non-zero if any binary errored (I/O, untunable sweep, or
# a failed SHAPE-CHECK).

failed=""
for b in fig06_fit fig07_underdamped fig09_input_shape fig10_ladder \
         fig11_balanced fig12_asymmetry fig13_branching fig14_depth \
         fig15_node_position fig16_large_tree fig_a1_scaling \
         fig_a3_moment_approx fig_a4_model_shootout fig_a5_repeater \
         fig_a6_fidelity; do
  echo "==== $b ===="
  if ! cargo run -p rlc-bench --bin "$b" --release; then
    failed="$failed $b"
  fi
done

if [ -n "$failed" ]; then
  echo "FAILED:$failed" >&2
  exit 1
fi
echo "all figures regenerated; CSVs in target/figures/"
