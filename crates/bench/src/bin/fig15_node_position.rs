//! Figure 15: effect of the observed node's position. Responses at every
//! level of a five-level balanced binary tree, compared along the path
//! from the source to a sink.
//!
//! Paper claims: the error is largest near the source (extra finite zeros
//! in the exact transfer function) and smallest at the sinks — "typically
//! the location of greatest interest".
//!
//! Run with: `cargo run -p rlc-bench --bin fig15_node_position --release`

#![allow(clippy::expect_used, reason = "a figure aborts on a broken invariant")]

use eed::TreeAnalysis;
use rlc_bench::{retune_zeta, section, waveform_error, BenchError, FigureCsv, ShapeChecks};
use rlc_sim::{simulate, SimOptions, Source};
use rlc_tree::topology;
use rlc_units::Time;

fn main() -> Result<(), BenchError> {
    let tree = topology::balanced_tree(5, 2, section(25.0, 5.0, 0.5));
    let sink = tree.leaves().next().expect("has sinks");
    let tree = retune_zeta(&tree, sink, 0.6)?;
    let timing = TreeAnalysis::new(&tree);
    let path = tree.path_from_root(sink);

    // Simulate all path nodes at once on a common grid.
    let sink_delay = timing.delay_50(sink);
    let options = SimOptions::new(
        Time::from_seconds(sink_delay.as_seconds() / 400.0),
        Time::from_seconds(sink_delay.as_seconds() * 40.0),
    );
    let waves = simulate(&tree, &Source::step(1.0), &options, &path);

    let mut csv = FigureCsv::create("fig15_node_position", "level,zeta,waveform_error")?;
    println!("level  node  ζ        waveform err");
    let mut errors = Vec::new();
    for (level, (&node, wave)) in path.iter().zip(&waves).enumerate() {
        let model = timing.model(node);
        let err = waveform_error(model, wave);
        csv.row(&[(level + 1) as f64, model.zeta(), err]);
        println!(
            "{:<6} {node:<5} {:<8.3} {:.2}%",
            level + 1,
            model.zeta(),
            err * 100.0
        );
        errors.push(err);
    }
    println!("\nwrote {}", csv.finish()?.display());

    let mut checks = ShapeChecks::new();
    checks.check(
        "error is largest at the node nearest the source",
        errors[0] == errors.iter().cloned().fold(0.0, f64::max),
    );
    checks.check(
        "the sink is modeled far better than the source (>4x)",
        errors[0] > 4.0 * errors.last().expect("non-empty"),
    );
    checks.check(
        "error decreases steadily moving away from the source",
        errors.windows(2).take(3).all(|w| w[1] < w[0]),
    );

    checks.finish()
}
