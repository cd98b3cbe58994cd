//! Experiment A1 — the Appendix complexity claim: evaluating the
//! second-order model at **all** nodes of an RLC tree is linear in the
//! number of branches (≈ 5n multiplications; two tree passes).
//!
//! Measures wall-clock time of the full `TreeAnalysis` pass on balanced
//! trees and single lines from 2⁶ to 2¹⁷ sections and reports ns/section,
//! which must stay flat for a linear algorithm.
//!
//! Run with: `cargo run -p rlc-bench --bin fig_a1_scaling --release`

use eed::TreeAnalysis;
use rlc_bench::{section, BenchError, FigureCsv, ShapeChecks};
use rlc_obs::TimeSource;
use rlc_tree::topology;

fn time_analysis(tree: &rlc_tree::RlcTree, reps: usize) -> f64 {
    // Warm up, then time.
    let _ = TreeAnalysis::new(tree);
    let start = TimeSource::Wall.now();
    for _ in 0..reps {
        let analysis = TreeAnalysis::new(tree);
        std::hint::black_box(analysis.len());
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn main() -> Result<(), BenchError> {
    let sec = section(20.0, 2.0, 0.3);
    let mut csv = FigureCsv::create("fig_a1_scaling", "sections,topology,seconds,ns_per_section")?;
    println!("sections   topology   total time     ns/section");
    let mut line_ns = Vec::new();
    let mut tree_ns = Vec::new();
    for exp in [6u32, 9, 12, 15, 17] {
        let n = 1usize << exp;
        let reps = (1 << 22) / n + 1;

        let (line, _) = topology::single_line(n, sec);
        let t = time_analysis(&line, reps);
        let ns = t * 1e9 / n as f64;
        line_ns.push(ns);
        csv.row(&[n as f64, 0.0, t, ns]);
        println!("{n:<10} line       {t:<14.6e} {ns:.1}");

        // Balanced binary tree with ~n sections.
        let levels = exp as usize + 1;
        let tree = topology::balanced_tree(levels, 2, sec);
        let t = time_analysis(&tree, reps);
        let ns = t * 1e9 / tree.len() as f64;
        tree_ns.push(ns);
        csv.row(&[tree.len() as f64, 1.0, t, ns]);
        println!("{:<10} tree       {t:<14.6e} {ns:.1}", tree.len());
    }
    println!("\nwrote {}", csv.finish()?.display());

    // Linearity: ns/section may wobble with cache effects but must not
    // blow up — an O(n²) algorithm would grow it by ~2000x over this range.
    let flat = |series: &[f64]| {
        let lo = series.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = series.iter().cloned().fold(0.0f64, f64::max);
        hi / lo
    };
    let mut checks = ShapeChecks::new();
    checks.check(
        "line analysis cost per section stays within 8x across 2000x sizes",
        flat(&line_ns) < 8.0,
    );
    checks.check(
        "tree analysis cost per section stays within 8x across 2000x sizes",
        flat(&tree_ns) < 8.0,
    );
    // A 131k-section tree analyzes in well under a second on any laptop.
    let (big, _) = topology::single_line(1 << 17, sec);
    let t = time_analysis(&big, 3);
    checks.check("131k sections analyze in < 0.5 s", t < 0.5);

    checks.finish()
}
