//! Figure 16: a large RLC tree — the exact response carries
//! higher-frequency "second-order oscillations" superimposed on (and
//! oscillating *around*) the two-pole envelope (paper Section V-F).
//!
//! Paper claims: the model cannot reproduce the fine ripple (it has only
//! two poles), but still captures the macro features — propagation delay,
//! rise time, and the primary overshoot.
//!
//! Run with: `cargo run -p rlc-bench --bin fig16_large_tree --release`

#![allow(clippy::expect_used, reason = "a figure aborts on a broken invariant")]

use eed::TreeAnalysis;
use rlc_bench::{retune_zeta, section, sim_step_waveform, BenchError, FigureCsv, ShapeChecks};
use rlc_tree::topology;

fn main() -> Result<(), BenchError> {
    // A seven-level binary tree (127 sections), strongly inductive.
    let tree = topology::balanced_tree(7, 2, section(12.0, 6.0, 0.35));
    let sink = tree.leaves().next().expect("has sinks");
    let tree = retune_zeta(&tree, sink, 0.45)?;
    let timing = TreeAnalysis::new(&tree);
    let model = timing.model(sink);
    println!(
        "large tree: {} sections, {} sinks; sink ζ = {:.3}",
        tree.len(),
        tree.leaves().count(),
        model.zeta()
    );

    let wave = sim_step_waveform(&tree, sink, 800.0, 30.0);
    let mut csv = FigureCsv::create("fig16_large_tree", "t_ps,simulated,model_eq31")?;
    // Residual ripple: simulated minus model, after the 50% crossing where
    // the envelope fits; count sign changes to show it oscillates *around*
    // the model.
    let t50 = wave.delay_50(1.0).expect("crosses 50%");
    let mut residuals = Vec::new();
    for (k, &t) in wave.times().iter().enumerate() {
        let m = model.unit_step(t);
        if k % 5 == 0 {
            csv.row(&[t.as_picoseconds(), wave.values()[k], m]);
        }
        if t > t50 {
            residuals.push(wave.values()[k] - m);
        }
    }
    let sign_changes = residuals
        .windows(2)
        .filter(|w| w[0].signum() != w[1].signum() && w[0] != 0.0)
        .count();
    let ripple_amp = residuals.iter().map(|r| r.abs()).fold(0.0f64, f64::max);
    let mean_resid = residuals.iter().sum::<f64>() / residuals.len() as f64;

    // Macro features.
    let sim_t50 = t50;
    let model_t50 = model.delay_50_exact();
    let delay_err = ((model_t50 - sim_t50).as_seconds() / sim_t50.as_seconds()).abs();
    let sim_os = wave.overshoot_fraction(1.0);
    let model_os = model.max_overshoot().expect("underdamped");

    println!(
        "ripple amplitude around the model envelope: {:.3}",
        ripple_amp
    );
    println!("residual sign changes after t50: {sign_changes}");
    println!("mean residual: {mean_resid:.4}");
    println!(
        "50% delay: model {model_t50} vs sim {sim_t50} ({:.2}%)",
        delay_err * 100.0
    );
    println!(
        "first overshoot: model {:.3} vs sim {:.3}",
        model_os, sim_os
    );
    println!("\nwrote {}", csv.finish()?.display());

    let mut checks = ShapeChecks::new();
    checks.check(
        "visible second-order oscillations exist (ripple > 2% of supply)",
        ripple_amp > 0.02,
    );
    checks.check(
        "the exact response oscillates around the model (many sign changes)",
        sign_changes >= 6,
    );
    checks.check(
        "the ripple is zero-mean to first order",
        mean_resid.abs() < ripple_amp / 3.0,
    );
    checks.check(
        "macro feature: 50% delay tracked within 10%",
        delay_err < 0.10,
    );
    checks.check(
        "macro feature: primary overshoot tracked within 15 points",
        (model_os - sim_os).abs() < 0.15,
    );

    checks.finish()
}
