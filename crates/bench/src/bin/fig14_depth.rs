//! Figure 14: effect of tree depth. One physical wire (fixed total R, L,
//! C) discretized into more and more sections — "for a single line, the
//! depth represents the number of sections" (paper Section V-D).
//!
//! Paper claims: the approximation error increases with the number of
//! levels, because the order of the exact transfer function grows while
//! the model stays second order.
//!
//! Run with: `cargo run -p rlc-bench --bin fig14_depth --release`

#![allow(clippy::expect_used, reason = "a figure aborts on a broken invariant")]

use eed::TreeAnalysis;
use rlc_bench::{
    delay_error, section, sim_step_waveform, waveform_error, BenchError, FigureCsv, ShapeChecks,
};
use rlc_tree::topology;

fn main() -> Result<(), BenchError> {
    // Total line: 50 Ω, 10 nH, 2 pF — a long wide global wire.
    let depths = [1usize, 2, 4, 8, 16, 32];

    let mut csv = FigureCsv::create("fig14_depth", "sections,zeta,delay_error,waveform_error")?;
    println!("sections  sink ζ   delay err   waveform err");
    let mut delay_errs = Vec::new();
    let mut wave_errs = Vec::new();
    for &n in &depths {
        let sec = section(50.0 / n as f64, 10.0 / n as f64, 2.0 / n as f64);
        let (tree, sink) = topology::single_line(n, sec);
        let timing = TreeAnalysis::new(&tree);
        let model = timing.model(sink);
        let wave = sim_step_waveform(&tree, sink, 600.0, 40.0);
        let de = delay_error(model, &wave)?;
        let we = waveform_error(model, &wave);
        csv.row(&[n as f64, model.zeta(), de, we]);
        println!(
            "{n:<9} {:<8.3} {:<11.2}% {:.2}%",
            model.zeta(),
            de * 100.0,
            we * 100.0
        );
        delay_errs.push(de);
        wave_errs.push(we);
    }
    println!("\nwrote {}", csv.finish()?.display());

    let mut checks = ShapeChecks::new();
    checks.check(
        "a single section is reproduced exactly (the model IS the circuit)",
        delay_errs[0] < 1e-3 && wave_errs[0] < 1e-3,
    );
    checks.check(
        "delay error grows monotonically with depth",
        delay_errs.windows(2).all(|w| w[1] >= w[0] - 1e-9),
    );
    checks.check(
        "waveform error grows monotonically with depth",
        wave_errs.windows(2).all(|w| w[1] >= w[0] - 1e-9),
    );
    checks.check(
        "delay error saturates (distributed-line limit), staying below ~20%",
        *delay_errs.last().expect("non-empty") < 0.20,
    );

    checks.finish()
}
