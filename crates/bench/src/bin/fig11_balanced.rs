//! Figure 11: the closed-form step response (paper eq. 31) against the
//! transient simulator at node 7 of the balanced Fig. 5 tree, for several
//! values of ζ; the Elmore (Wyatt) single-pole response shown alongside.
//!
//! Paper claims: high accuracy for balanced trees (delay error < ~4%), and
//! the Wyatt response is qualitatively wrong for underdamped nodes.
//!
//! Run with: `cargo run -p rlc-bench --bin fig11_balanced --release`

#![allow(clippy::expect_used, reason = "a figure aborts on a broken invariant")]

use eed::TreeAnalysis;
use rlc_awe::ReducedOrderModel;
use rlc_bench::{
    delay_error, retune_zeta, section, sim_step_waveform, BenchError, FigureCsv, ShapeChecks,
};
use rlc_tree::topology;

fn main() -> Result<(), BenchError> {
    let (base_tree, nodes) = topology::fig5(section(25.0, 5.0, 0.5));
    let zetas = [0.4, 0.7, 1.0, 2.0];

    let mut csv = FigureCsv::create("fig11_balanced", "zeta,t_ps,simulated,model_eq31,wyatt")?;
    println!("zeta   model 50% delay   sim 50% delay   err     wyatt err");
    let mut errors = Vec::new();
    let mut wyatt_errors = Vec::new();
    for &zeta in &zetas {
        let tree = retune_zeta(&base_tree, nodes.n7, zeta)?;
        let timing = TreeAnalysis::new(&tree);
        let model = timing.model(nodes.n7);
        let wyatt = ReducedOrderModel::wyatt(model.elmore_time_constant());
        let wave = sim_step_waveform(&tree, nodes.n7, 400.0, 40.0);
        for (k, &t) in wave.times().iter().enumerate() {
            if k % 10 == 0 {
                csv.row(&[
                    zeta,
                    t.as_picoseconds(),
                    wave.values()[k],
                    model.unit_step(t),
                    wyatt.step_response(t),
                ]);
            }
        }
        let err = delay_error(model, &wave)?;
        let sim_t50 = wave.delay_50(1.0).expect("crosses 50%");
        let wyatt_err = ((wyatt.delay_50().expect("monotone") - sim_t50).as_seconds()
            / sim_t50.as_seconds())
        .abs();
        errors.push(err);
        wyatt_errors.push(wyatt_err);
        println!(
            "{zeta:<6} {:<17} {:<15} {:<7.2}% {:.2}%",
            model.delay_50_exact().to_string(),
            sim_t50.to_string(),
            err * 100.0,
            wyatt_err * 100.0
        );
    }
    println!("\nwrote {}", csv.finish()?.display());

    let mut checks = ShapeChecks::new();
    checks.check(
        "balanced-tree delay errors stay in the single digits (paper: <~4%)",
        errors.iter().all(|&e| e < 0.07),
    );
    checks.check(
        "Wyatt is far worse than the model for the underdamped cases",
        wyatt_errors[0] > 4.0 * errors[0] && wyatt_errors[1] > 2.0 * errors[1],
    );
    checks.check(
        "Wyatt converges toward the model as damping grows",
        wyatt_errors[3] < wyatt_errors[0],
    );

    checks.finish()
}
