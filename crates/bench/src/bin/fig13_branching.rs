//! Figure 13: effect of branching factor for balanced trees driving the
//! same 16 sinks — binary branching (5 levels, a) versus branching factor
//! 16 (2 levels, b).
//!
//! Paper claims: a balanced tree is equivalent to a ladder with one section
//! per level (pole-zero cancellation), so the *fewer-level* flat tree is
//! approximated more accurately by the two-pole model.
//!
//! Run with: `cargo run -p rlc-bench --bin fig13_branching --release`

#![allow(clippy::expect_used, reason = "a figure aborts on a broken invariant")]

use eed::TreeAnalysis;
use rlc_bench::{
    delay_error, retune_zeta, section, sim_step_waveform, waveform_error, BenchError, FigureCsv,
    ShapeChecks,
};
use rlc_tree::topology;

fn main() -> Result<(), BenchError> {
    // The paper gives each tree its own per-section values; the available
    // text lost them, so both trees here use the same section values and a
    // common retuned ζ at the sinks, isolating the branching-factor effect.
    let base = section(25.0, 5.0, 0.5);
    let binary = topology::balanced_tree(5, 2, base);
    let flat = topology::balanced_tree(2, 16, base);

    let mut csv = FigureCsv::create("fig13_branching", "branching,t_ps,simulated,model_eq31")?;
    println!("tree          sections  levels  sink ζ   delay err   waveform err");
    let mut results = Vec::new();
    for (name, factor, tree) in [("binary", 2.0, binary), ("flat-16", 16.0, flat)] {
        let sink = tree.leaves().next().expect("has sinks");
        let tree = retune_zeta(&tree, sink, 0.6)?;
        let timing = TreeAnalysis::new(&tree);
        let model = timing.model(sink);
        let wave = sim_step_waveform(&tree, sink, 400.0, 40.0);
        for (k, &t) in wave.times().iter().enumerate() {
            if k % 10 == 0 {
                csv.row(&[
                    factor,
                    t.as_picoseconds(),
                    wave.values()[k],
                    model.unit_step(t),
                ]);
            }
        }
        let de = delay_error(model, &wave)?;
        let we = waveform_error(model, &wave);
        println!(
            "{name:<13} {:<9} {:<7} {:<8.3} {:<11.2}% {:.2}%",
            tree.len(),
            tree.max_depth(),
            model.zeta(),
            de * 100.0,
            we * 100.0
        );
        results.push((de, we));
    }
    println!("\nwrote {}", csv.finish()?.display());

    let mut checks = ShapeChecks::new();
    checks.check(
        "both trees drive 16 sinks",
        topology::balanced_tree(5, 2, base).leaves().count() == 16
            && topology::balanced_tree(2, 16, base).leaves().count() == 16,
    );
    checks.check(
        "the branching-16 tree is modeled more accurately (waveform)",
        results[1].1 < results[0].1,
    );
    checks.check(
        "the branching-16 tree is modeled more accurately (delay)",
        results[1].0 < results[0].0,
    );

    checks.finish()
}
