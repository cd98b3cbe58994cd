//! Figures 8–9: the example tree of Fig. 8 driven by exponential inputs of
//! increasing rise time; the closed-form response (paper eqs. 44–48)
//! against the transient simulator.
//!
//! The paper's claim (Section V-A): the closed form becomes *more* accurate
//! as the input rise time grows, so the ideal step is the worst case.
//!
//! Run with: `cargo run -p rlc-bench --bin fig09_input_shape --release`

#![allow(clippy::expect_used, reason = "a figure aborts on a broken invariant")]

use eed::TreeAnalysis;
use rlc_bench::{BenchError, FigureCsv, ShapeChecks};
use rlc_sim::{simulate, SimOptions, Source};
use rlc_tree::topology;
use rlc_units::Time;

fn main() -> Result<(), BenchError> {
    let (tree, _o1, o2) = topology::fig8();
    let timing = TreeAnalysis::new(&tree);
    let model = timing.model(o2);
    let base = model.delay_50();
    println!(
        "Fig. 8 tree: {} sections; observing output O2 (ζ = {:.3})",
        tree.len(),
        model.zeta()
    );

    // Input exponential time constants as multiples of the node delay; the
    // 90% rise time of the input is 2.3·τ (paper).
    let factors = [0.02, 0.2, 1.0, 3.0, 10.0];
    let horizon = Time::from_seconds(base.as_seconds() * 80.0);
    let dt = Time::from_seconds(base.as_seconds() / 300.0);
    let options = SimOptions::new(dt, horizon);

    let mut csv = FigureCsv::create(
        "fig09_input_shape",
        "tau_over_delay,input_rise_ps,max_waveform_error,delay_error",
    )?;
    println!("\nτ_in/delay  input 90% rise   max |model−sim|   50% delay err");
    let mut max_errors = Vec::new();
    for &f in &factors {
        let tau = Time::from_seconds(base.as_seconds() * f);
        let source = Source::exponential(1.0, tau);
        let wave = &simulate(&tree, &source, &options, &[o2])[0];
        let max_err = wave
            .times()
            .iter()
            .map(|&t| (model.exp_input_response(tau, t) - wave.sample_at(t)).abs())
            .fold(0.0f64, f64::max);
        // 50% delay of the closed form vs simulation (both from t = 0).
        let target = 0.5;
        let model_t50 = {
            let mut t = Time::ZERO;
            let step = Time::from_seconds(dt.as_seconds());
            while model.exp_input_response(tau, t) < target {
                t += step;
            }
            t
        };
        let sim_t50 = wave.delay_50(1.0).expect("crosses 50%");
        let d_err = ((model_t50 - sim_t50).as_seconds() / sim_t50.as_seconds()).abs();
        max_errors.push(max_err);
        csv.row(&[f, 2.3 * tau.as_picoseconds(), max_err, d_err]);
        println!(
            "{f:<11} {:<16} {max_err:<17.4} {:.2}%",
            format!("{:.1} ps", 2.3 * tau.as_picoseconds()),
            d_err * 100.0
        );
    }
    println!("\nwrote {}", csv.finish()?.display());

    let mut checks = ShapeChecks::new();
    checks.check(
        "waveform error decreases monotonically as the input slows",
        max_errors.windows(2).all(|w| w[1] <= w[0] + 1e-12),
    );
    checks.check(
        "the fastest (near-step) input is the worst case",
        max_errors[0] == max_errors.iter().cloned().fold(0.0, f64::max),
    );
    checks.check(
        "slow inputs are tracked to within 2% of the supply",
        *max_errors.last().expect("non-empty") < 0.02,
    );
    checks.check(
        "slowing the input by 500x cuts the error by more than 10x",
        max_errors[0] / max_errors.last().expect("non-empty") > 10.0,
    );

    checks.finish()
}
