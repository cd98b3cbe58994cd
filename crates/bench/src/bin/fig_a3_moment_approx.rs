//! Experiment A3 (ablation) — the paper's second-moment approximation.
//!
//! The model replaces the exact second moment with the tree-sum form of
//! eq. (28): `m̂₂ = T_RC² − T_LC`. This binary quantifies the approximation
//! against the exact recursive second moment: exact for a single section,
//! and increasingly approximate as trees get deeper/more asymmetric — the
//! structural source of the accuracy trends in Figs. 11–15.
//!
//! Run with: `cargo run -p rlc-bench --bin fig_a3_moment_approx --release`

use rlc_bench::{section, BenchError, FigureCsv, ShapeChecks};
use rlc_moments::{transfer_moments, tree_sums};
use rlc_tree::{topology, RlcTree};

/// Relative error of eq. 28's m̂₂ versus the exact m₂ at `node`.
fn m2_error(tree: &RlcTree, node: rlc_tree::NodeId) -> f64 {
    let sums = tree_sums(tree);
    let exact = transfer_moments(tree, 2).at(node)[2];
    let approx = sums.rc(node).as_seconds().powi(2) - sums.lc(node).as_seconds_squared();
    ((approx - exact) / exact).abs()
}

fn main() -> Result<(), BenchError> {
    let base = section(25.0, 4.0, 0.4);
    let mut csv = FigureCsv::create("fig_a3_moment_approx", "case,param,m2_rel_error")?;
    println!("case                 param   m̂₂ relative error");

    // Single section: exact.
    let (single, s_sink) = topology::single_line(1, base);
    let e_single = m2_error(&single, s_sink);
    csv.row(&[0.0, 1.0, e_single]);
    println!("single section       -       {:.2e}", e_single);

    // Lines of growing depth.
    let mut line_errs = Vec::new();
    for n in [2usize, 4, 8, 16] {
        let (line, sink) = topology::single_line(n, base);
        let e = m2_error(&line, sink);
        line_errs.push(e);
        csv.row(&[1.0, n as f64, e]);
        println!("line                 n={n:<4}  {:.4}", e);
    }

    // Fig. 5 with growing asymmetry, at both extreme sinks.
    let mut asym_errs = Vec::new();
    for asym in [1.0, 2.0, 4.0, 8.0] {
        let (tree, nodes) = topology::fig5_asymmetric(asym, base);
        let e = m2_error(&tree, nodes.n7).max(m2_error(&tree, nodes.n4));
        asym_errs.push(e);
        csv.row(&[2.0, asym, e]);
        println!("fig5 asym            a={asym:<4}  {:.4}", e);
    }
    println!("\nwrote {}", csv.finish()?.display());

    let mut checks = ShapeChecks::new();
    checks.check("eq. 28 is exact for a single section", e_single < 1e-9);
    checks.check(
        "eq. 28 error grows over the first depth doublings (n=2 → 8)",
        line_errs[0] < line_errs[1] && line_errs[1] < line_errs[2],
    );
    checks.check(
        "eq. 28 error grows from balanced to highly asymmetric fig5",
        asym_errs[3] > asym_errs[0],
    );
    checks.check(
        "the approximation stays within a factor-of-2 band everywhere tested",
        line_errs.iter().chain(&asym_errs).all(|&e| e < 1.0),
    );

    checks.finish()
}
