#!/usr/bin/env bash
# Builds the shipped `serve` daemon and the benchmark, then runs the
# benchmark against it. Arguments pass through (see src/main.rs).
# Run from the repository root.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p rlc-serve --bin serve
cargo build --release --offline --quiet --manifest-path examples/benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/rlc-benchmark" --serve "$CARGO_TARGET_DIR/release/serve" "$@"
