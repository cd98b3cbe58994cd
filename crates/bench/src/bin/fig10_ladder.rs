//! Figure 10: the equivalent ladder circuit of a balanced RLC tree.
//!
//! The paper's pole-zero cancellation argument (Section V-B): in a
//! balanced tree, symmetric nodes can be shunted, so the whole tree is
//! electrically identical to a ladder with one section per level — the
//! finite zeros cancel against poles and the transfer-function order grows
//! only linearly with depth. This binary verifies the equivalence three
//! independent ways: exact moments, transient waveforms, and the model's
//! tree sums.
//!
//! Run with: `cargo run -p rlc-bench --bin fig10_ladder --release`

#![allow(clippy::expect_used, reason = "a figure aborts on a broken invariant")]

use eed::TreeAnalysis;
use rlc_bench::{section, BenchError, FigureCsv, ShapeChecks};
use rlc_moments::transfer_moments;
use rlc_sim::{simulate, SimOptions, Source};
use rlc_tree::topology;
use rlc_units::Time;

fn main() -> Result<(), BenchError> {
    let tree = topology::balanced_tree(4, 2, section(20.0, 3.0, 0.3));
    let ladder = topology::equivalent_ladder(&tree).expect("balanced tree");
    let tree_sink = tree.leaves().next().expect("sink");
    let ladder_sink = ladder.leaves().next().expect("sink");
    println!(
        "tree: {} sections / ladder: {} sections (one per level)",
        tree.len(),
        ladder.len()
    );

    // (1) Exact moments agree to high order.
    let order = 6;
    let m_tree = transfer_moments(&tree, order);
    let m_ladder = transfer_moments(&ladder, order);
    let mut max_moment_err = 0.0f64;
    println!("\nk   tree moment        ladder moment");
    for k in 1..=order {
        let a = m_tree.at(tree_sink)[k];
        let b = m_ladder.at(ladder_sink)[k];
        max_moment_err = max_moment_err.max(((a - b) / b).abs());
        println!("{k}   {a:<18.6e} {b:.6e}");
    }

    // (2) Transient waveforms agree to solver accuracy.
    let timing = TreeAnalysis::new(&tree);
    let delay = timing.delay_50(tree_sink);
    let options = SimOptions::new(
        Time::from_seconds(delay.as_seconds() / 300.0),
        Time::from_seconds(delay.as_seconds() * 25.0),
    );
    let w_tree = &simulate(&tree, &Source::step(1.0), &options, &[tree_sink])[0];
    let w_ladder = &simulate(&ladder, &Source::step(1.0), &options, &[ladder_sink])[0];
    let wave_diff = w_tree.max_abs_difference(w_ladder);
    println!("\nmax |tree − ladder| waveform difference: {wave_diff:.3e}");

    let mut csv = FigureCsv::create("fig10_ladder", "t_ps,tree,ladder")?;
    for (k, &t) in w_tree.times().iter().enumerate() {
        if k % 10 == 0 {
            csv.row(&[t.as_picoseconds(), w_tree.values()[k], w_ladder.values()[k]]);
        }
    }

    // (3) The second-order model parameters are identical.
    let ladder_timing = TreeAnalysis::new(&ladder);
    let (mt, ml) = (timing.model(tree_sink), ladder_timing.model(ladder_sink));
    println!(
        "model at sink: tree (ζ={:.6}, ω_n={}) / ladder (ζ={:.6}, ω_n={})",
        mt.zeta(),
        mt.omega_n(),
        ml.zeta(),
        ml.omega_n()
    );
    println!("\nwrote {}", csv.finish()?.display());

    let mut checks = ShapeChecks::new();
    checks.check(
        "exact moments of tree and ladder agree to 1e-9 through order 6",
        max_moment_err < 1e-9,
    );
    checks.check(
        "transient waveforms agree to solver accuracy (< 1e-9)",
        wave_diff < 1e-9,
    );
    checks.check(
        "second-order models are identical",
        (mt.zeta() - ml.zeta()).abs() < 1e-12
            && (mt.omega_n().as_radians_per_second() - ml.omega_n().as_radians_per_second()).abs()
                < 1e-3 * ml.omega_n().as_radians_per_second(),
    );
    checks.check(
        "the ladder is exponentially smaller (15 sections → 4)",
        tree.len() == 15 && ladder.len() == 4,
    );

    checks.finish()
}
