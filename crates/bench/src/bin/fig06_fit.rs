//! Figure 6: time-scaled 50% delay and rise time versus ζ, with the fitted
//! closed forms (paper eqs. 33–34).
//!
//! Prints, for a ζ grid, the exact scaled delay/rise (numerical inversion
//! of eq. 31), the published eq. 33 delay fit, the pinned eq. 34-form rise
//! fit, and freshly refitted curves — the data of Fig. 6.
//!
//! Run with: `cargo run -p rlc-bench --bin fig06_fit --release`

use eed::fitted;
use eed::step::time_to_reach_scaled;
use rlc_bench::{BenchError, FigureCsv, ShapeChecks};

fn main() -> Result<(), BenchError> {
    let grid = fitted::standard_zeta_grid();
    let refit_d = fitted::refit_delay(&grid);
    let refit_r = fitted::refit_rise(&grid);

    let mut csv = FigureCsv::create(
        "fig06_fit",
        "zeta,delay_exact,delay_eq33,delay_refit,rise_exact,rise_eq34form,rise_refit",
    )?;
    println!("zeta   t'pd exact  eq.33   refit   |  t'r exact  pinned  refit");
    let mut max_delay_err = 0.0f64;
    let mut max_rise_err = 0.0f64;
    for &z in &grid {
        let d_exact = time_to_reach_scaled(z, 0.5);
        let d_fit = fitted::delay_50_scaled(z);
        let d_refit = refit_d.eval(z);
        let r_exact = fitted::exact_rise_scaled(z);
        let r_fit = fitted::rise_time_scaled(z);
        let r_refit = refit_r.eval(z);
        max_delay_err = max_delay_err.max(((d_fit - d_exact) / d_exact).abs());
        max_rise_err = max_rise_err.max(((r_fit - r_exact) / r_exact).abs());
        csv.row(&[z, d_exact, d_fit, d_refit, r_exact, r_fit, r_refit]);
        if (z * 20.0).round() % 4.0 == 0.0 {
            println!(
                "{z:<6.2} {d_exact:<11.4} {d_fit:<7.4} {d_refit:<7.4} |  {r_exact:<10.4} {r_fit:<7.4} {r_refit:<7.4}"
            );
        }
    }
    println!("\nwrote {}", csv.finish()?.display());
    println!(
        "max relative fit error: delay {:.2}%, rise {:.2}%",
        max_delay_err * 100.0,
        max_rise_err * 100.0
    );

    // Shape claims of Fig. 6 / eqs. 33–34.
    let mut checks = ShapeChecks::new();
    checks.check(
        "eq. 33 delay fit stays within a few percent of the exact curve",
        max_delay_err < 0.04,
    );
    checks.check(
        "rise-time fit stays within 5% of the exact curve",
        max_rise_err < 0.05,
    );
    // Large-ζ limits reduce to the Elmore (Wyatt) values (paper eqs. 37–38).
    let z = 50.0;
    let elmore_d = 2.0 * z * core::f64::consts::LN_2;
    let elmore_r = 2.0 * z * 9.0f64.ln();
    checks.check(
        "delay fit approaches 2ζ·ln2 for large ζ",
        ((fitted::delay_50_scaled(z) - elmore_d) / elmore_d).abs() < 0.01,
    );
    checks.check(
        "rise fit approaches 2ζ·ln9 for large ζ",
        ((fitted::rise_time_scaled(z) - elmore_r) / elmore_r).abs() < 0.01,
    );
    // Small-ζ limit: the scaled delay approaches arccos(1/2) = π/3.
    let d_small = time_to_reach_scaled(0.05, 0.5);
    checks.check(
        "exact scaled delay approaches π/3 as ζ → 0",
        (d_small - core::f64::consts::FRAC_PI_3).abs() < 0.1,
    );

    checks.finish()
}
