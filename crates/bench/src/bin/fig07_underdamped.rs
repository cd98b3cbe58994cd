//! Figure 7: anatomy of an underdamped response — overshoot/undershoot
//! instants `t_1, t_2, …`, their magnitudes (paper eqs. 39–40), the ±x
//! settling band, and the settling time (eqs. 41–42).
//!
//! Run with: `cargo run -p rlc-bench --bin fig07_underdamped --release`

#![allow(clippy::expect_used, reason = "a figure aborts on a broken invariant")]

use eed::SecondOrderModel;
use rlc_bench::{BenchError, FigureCsv, ShapeChecks};
use rlc_units::{AngularFrequency, Time};

fn main() -> Result<(), BenchError> {
    // A representative strongly underdamped node (ζ = 0.25, ω_n = 1 rad/s
    // so times read in scaled units).
    let zeta = 0.25;
    let model = SecondOrderModel::new(zeta, AngularFrequency::from_radians_per_second(1.0));
    let band = 0.1;

    // Response trace.
    let mut csv = FigureCsv::create("fig07_underdamped", "t_scaled,response")?;
    let t_end = model.settling_time(0.02).as_seconds() * 1.2;
    let n = 1200;
    for k in 0..=n {
        let t = t_end * k as f64 / n as f64;
        csv.row(&[t, model.unit_step(Time::from_seconds(t))]);
    }

    println!("underdamped response, ζ = {zeta} (times in units of 1/ω_n)\n");
    println!("extremum  time t_n   value 1+σ_n   |σ_n|");
    let mut magnitudes = Vec::new();
    for n in 1..=8u32 {
        let t_n = model.overshoot_time(n).expect("underdamped");
        let sigma = model.overshoot(n).expect("underdamped");
        magnitudes.push(sigma.abs());
        println!(
            "{n:>7}   {:<10.4} {:<13.4} {:.4}",
            t_n.as_seconds(),
            1.0 + sigma,
            sigma.abs()
        );
    }
    let ts = model.settling_time(band);
    println!("\nsettling time (±{band}): {:.4}", ts.as_seconds());
    println!("wrote {}", csv.finish()?.display());

    // Shape claims of Fig. 7 / eqs. 39–42.
    let mut checks = ShapeChecks::new();
    checks.check(
        "extrema alternate overshoot/undershoot",
        (1..=8).all(|n| {
            let s = model.overshoot(n).expect("underdamped");
            (n % 2 == 1) == (s > 0.0)
        }),
    );
    checks.check(
        "extremum magnitudes decay geometrically",
        magnitudes.windows(2).all(|w| w[1] < w[0]) && {
            let ratio0 = magnitudes[1] / magnitudes[0];
            let ratio5 = magnitudes[6] / magnitudes[5];
            (ratio0 - ratio5).abs() < 1e-9
        },
    );
    checks.check("extrema are equally spaced at π/ω_d", {
        let wd = (1.0 - zeta * zeta).sqrt();
        (1..=8).all(|n| {
            let t_n = model.overshoot_time(n).expect("underdamped").as_seconds();
            (t_n - n as f64 * core::f64::consts::PI / wd).abs() < 1e-9
        })
    });
    // After t_s the response never leaves the ±x band again.
    let ts_s = ts.as_seconds();
    let stays_in_band = (0..4000).all(|k| {
        let t = ts_s + (t_end * 4.0 - ts_s) * k as f64 / 4000.0;
        (model.unit_step(Time::from_seconds(t)) - 1.0).abs() <= band + 1e-9
    });
    checks.check(
        "response stays within ±x after the settling time",
        stays_in_band,
    );
    // And just before t_s there was an excursion beyond the band.
    let prev_extremum = model
        .overshoot_time(
            (ts_s * (1.0 - zeta * zeta).sqrt() / core::f64::consts::PI).round() as u32 - 1,
        )
        .expect("underdamped");
    let excursion = (model.unit_step(prev_extremum) - 1.0).abs();
    checks.check(
        "the extremum before the settling instant still exceeds the band",
        excursion > band,
    );

    checks.finish()
}
