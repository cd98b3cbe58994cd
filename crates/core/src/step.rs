//! Exact evaluation and inversion of the second-order unit step response
//! (paper eq. 31) in all damping regimes.
//!
//! Because time always appears as the product `ω_n·t`, the paper scales time
//! by `ω_n` (eq. 32): the scaled response depends on ζ alone, so the 50%
//! delay and rise time become one-variable functions of ζ — the fact behind
//! Fig. 6 and the fitted formulas (eqs. 33–34). The `*_scaled` functions
//! here operate in that dimensionless domain; the methods on
//! [`SecondOrderModel`] wrap them for physical times.

use rlc_numeric::roots;
use rlc_units::Time;

use crate::model::{Damping, SecondOrderModel};

/// Evaluates the scaled unit step response `y'(t')` for damping ζ at scaled
/// time `t' = ω_n·t` (paper eqs. 31–32). The final value is 1.
///
/// Negative times return 0 (the response is causal).
///
/// # Panics
///
/// Panics if `zeta` is not positive or `t_scaled` is NaN.
///
/// # Examples
///
/// ```
/// use eed::step::unit_step_scaled;
///
/// // Critically damped response: y = 1 − e^{−t}(1 + t).
/// let y = unit_step_scaled(1.0, 2.0);
/// assert!((y - (1.0 - (-2.0f64).exp() * 3.0)).abs() < 1e-12);
///
/// // An underdamped response overshoots above the final value.
/// let peak = unit_step_scaled(0.3, std::f64::consts::PI / (1.0f64 - 0.09).sqrt());
/// assert!(peak > 1.0);
/// ```
pub fn unit_step_scaled(zeta: f64, t_scaled: f64) -> f64 {
    assert!(zeta > 0.0, "damping factor must be positive, got {zeta}");
    assert!(!t_scaled.is_nan(), "time must not be NaN");
    if t_scaled <= 0.0 {
        return 0.0;
    }
    let t = t_scaled;
    if near_critical(zeta) {
        1.0 - (-t).exp() * (1.0 + t)
    } else if zeta < 1.0 {
        let wd = (1.0 - zeta * zeta).sqrt();
        1.0 - (-zeta * t).exp() * ((wd * t).cos() + zeta / wd * (wd * t).sin())
    } else {
        // Overdamped. Scaled poles satisfy p1·p2 = 1; compute the slow pole
        // without cancellation: p1 = −1/(ζ + √(ζ²−1)).
        let d = (zeta * zeta - 1.0).sqrt();
        let p1 = -1.0 / (zeta + d); // slow (small magnitude)
        let p2 = -(zeta + d); // fast (large magnitude)
        1.0 + (p2 * (p1 * t).exp() - p1 * (p2 * t).exp()) / (p1 - p2)
    }
}

/// Derivative of the scaled unit step response with respect to scaled time.
///
/// Always non-negative up to the first extremum; strictly positive on
/// `(0, π/√(1−ζ²))` for underdamped ζ and on all of `(0, ∞)` otherwise.
///
/// # Panics
///
/// Panics if `zeta` is not positive or `t_scaled` is NaN.
pub fn unit_step_derivative_scaled(zeta: f64, t_scaled: f64) -> f64 {
    assert!(zeta > 0.0, "damping factor must be positive, got {zeta}");
    assert!(!t_scaled.is_nan(), "time must not be NaN");
    if t_scaled <= 0.0 {
        return 0.0;
    }
    let t = t_scaled;
    if near_critical(zeta) {
        t * (-t).exp()
    } else if zeta < 1.0 {
        let wd = (1.0 - zeta * zeta).sqrt();
        (-zeta * t).exp() * (wd * t).sin() / wd
    } else {
        let d = (zeta * zeta - 1.0).sqrt();
        let p1 = -1.0 / (zeta + d);
        let p2 = -(zeta + d);
        // p1·p2 = 1, so y' = (e^{p1 t} − e^{p2 t})/(p1 − p2).
        ((p1 * t).exp() - (p2 * t).exp()) / (p1 - p2)
    }
}

/// First time (scaled) at which the step response reaches `level`.
///
/// This is the *exact* inversion the fitted formulas approximate: the 50%
/// delay is `time_to_reach_scaled(ζ, 0.5)` and the 10%/90% crossings give
/// the rise time.
///
/// # Panics
///
/// Panics if `zeta` is not positive or `level` is outside `(0, 1)`.
/// (Levels ≥ 1 are reached only by underdamped responses; query overshoot
/// metrics instead.)
pub fn time_to_reach_scaled(zeta: f64, level: f64) -> f64 {
    assert!(zeta > 0.0, "damping factor must be positive, got {zeta}");
    assert!(
        level > 0.0 && level < 1.0,
        "level must lie strictly between 0 and 1, got {level}"
    );
    // The response rises monotonically until its first extremum (first peak
    // for ζ<1, +∞ otherwise), and attains `level` < 1 before it.
    let upper = if zeta < 1.0 && !near_critical(zeta) {
        core::f64::consts::PI / (1.0 - zeta * zeta).sqrt()
    } else {
        // Monotone: expand to bracket. The dominant time constant is
        // ~2ζ (scaled Elmore constant), so start there.
        let f = |t: f64| unit_step_scaled(zeta, t) - level;
        let (lo, hi) = roots::expand_bracket_right(f, 0.0, 2.0 * zeta, 128)
            .expect("step response reaches every level below 1");
        return roots::brent(f, lo, hi, 1e-13 * (1.0 + hi), 200)
            .expect("bracketed crossing must converge");
    };
    let f = |t: f64| unit_step_scaled(zeta, t) - level;
    roots::brent(f, 0.0, upper, 1e-14 * (1.0 + upper), 200)
        .expect("bracketed crossing must converge")
}

fn near_critical(zeta: f64) -> bool {
    (zeta - 1.0).abs() <= 1e-6
}

impl SecondOrderModel {
    /// The normalized step response at physical time `t` (final value 1).
    ///
    /// For a supply voltage `V_dd`, multiply by `V_dd` (paper eq. 31).
    ///
    /// # Examples
    ///
    /// ```
    /// use eed::SecondOrderModel;
    /// use rlc_units::{AngularFrequency, Time};
    ///
    /// let m = SecondOrderModel::new(0.5, AngularFrequency::from_radians_per_second(1.0e9));
    /// assert_eq!(m.unit_step(Time::ZERO), 0.0);
    /// assert!(m.unit_step(Time::from_nanoseconds(50.0)) > 0.99);
    /// ```
    pub fn unit_step(&self, t: Time) -> f64 {
        match self.damping() {
            Damping::FirstOrder => {
                let x = t.as_seconds() / self.elmore_time_constant().as_seconds();
                if x <= 0.0 {
                    0.0
                } else {
                    1.0 - (-x).exp()
                }
            }
            _ => unit_step_scaled(self.zeta(), self.scale_time(t)),
        }
    }

    /// First time the step response reaches `level·V_final`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `(0, 1)`.
    pub fn time_to_reach(&self, level: f64) -> Time {
        match self.damping() {
            Damping::FirstOrder => {
                assert!(
                    level > 0.0 && level < 1.0,
                    "level must lie strictly between 0 and 1, got {level}"
                );
                self.elmore_time_constant() * (-(1.0 - level).ln())
            }
            _ => self.unscale_time(time_to_reach_scaled(self.zeta(), level)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_units::AngularFrequency;

    #[test]
    fn starts_at_zero_with_zero_slope() {
        for &zeta in &[0.2, 0.5, 1.0, 1.5, 3.0, 10.0] {
            assert_eq!(unit_step_scaled(zeta, 0.0), 0.0);
            assert_eq!(unit_step_scaled(zeta, -1.0), 0.0);
            assert_eq!(unit_step_derivative_scaled(zeta, 0.0), 0.0);
            // Early response is tiny (zero initial slope).
            assert!(unit_step_scaled(zeta, 1e-4) < 1e-6);
        }
    }

    #[test]
    fn settles_to_one() {
        for &zeta in &[0.2f64, 0.5, 0.999999, 1.0, 1.000001, 1.5, 3.0, 10.0] {
            let t_far = 2000.0 * zeta.max(1.0);
            let y = unit_step_scaled(zeta, t_far);
            assert!((y - 1.0).abs() < 1e-6, "ζ={zeta}: y(∞)={y}");
        }
    }

    #[test]
    fn underdamped_overshoots_overdamped_does_not() {
        let zeta = 0.4;
        let wd = (1.0f64 - zeta * zeta).sqrt();
        let peak_t = core::f64::consts::PI / wd;
        let peak = unit_step_scaled(zeta, peak_t);
        let expected_peak = 1.0 + (-zeta * core::f64::consts::PI / wd).exp();
        assert!((peak - expected_peak).abs() < 1e-12);
        assert!(peak > 1.0);

        // Overdamped response never exceeds 1.
        for k in 1..200 {
            let t = k as f64 * 0.25;
            assert!(unit_step_scaled(2.0, t) <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn regimes_agree_near_critical() {
        // Continuity across ζ = 1: responses for ζ = 1 ± 1e-5 match the
        // critical formula to high accuracy.
        for &t in &[0.5, 1.0, 2.0, 5.0] {
            let c = unit_step_scaled(1.0, t);
            let under = unit_step_scaled(1.0 - 1e-5, t);
            let over = unit_step_scaled(1.0 + 1e-5, t);
            assert!((c - under).abs() < 1e-4, "t={t}");
            assert!((c - over).abs() < 1e-4, "t={t}");
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let h = 1e-6;
        for &zeta in &[0.3, 0.95, 1.0, 1.05, 2.5, 8.0] {
            for &t in &[0.3, 1.0, 3.0, 7.0] {
                let fd =
                    (unit_step_scaled(zeta, t + h) - unit_step_scaled(zeta, t - h)) / (2.0 * h);
                let an = unit_step_derivative_scaled(zeta, t);
                assert!(
                    (fd - an).abs() < 1e-6 * (1.0 + an.abs()),
                    "ζ={zeta} t={t}: fd={fd} analytic={an}"
                );
            }
        }
    }

    #[test]
    fn extreme_zeta_is_stable() {
        // Very large ζ must not produce NaN/overflow thanks to the
        // cancellation-free pole computation.
        let y = unit_step_scaled(1e8, 2e8 * core::f64::consts::LN_2);
        assert!((y - 0.5).abs() < 1e-6, "y = {y}");
    }

    #[test]
    fn inversion_agrees_with_forward_evaluation() {
        for &zeta in &[0.2, 0.5, 0.9, 1.0, 1.2, 2.0, 5.0, 20.0] {
            for &level in &[0.1, 0.5, 0.9] {
                let t = time_to_reach_scaled(zeta, level);
                let y = unit_step_scaled(zeta, t);
                assert!(
                    (y - level).abs() < 1e-9,
                    "ζ={zeta} level={level}: y({t})={y}"
                );
            }
        }
    }

    #[test]
    fn first_crossing_is_the_first() {
        // For a strongly underdamped response, make sure we did not land on
        // a later crossing: the crossing must precede the first peak.
        let zeta = 0.15;
        let t50 = time_to_reach_scaled(zeta, 0.5);
        let first_peak = core::f64::consts::PI / (1.0f64 - zeta * zeta).sqrt();
        assert!(t50 < first_peak);
    }

    #[test]
    fn crossings_are_ordered() {
        for &zeta in &[0.3, 1.0, 2.0] {
            let t10 = time_to_reach_scaled(zeta, 0.1);
            let t50 = time_to_reach_scaled(zeta, 0.5);
            let t90 = time_to_reach_scaled(zeta, 0.9);
            assert!(t10 < t50 && t50 < t90, "ζ={zeta}");
        }
    }

    #[test]
    fn critical_damping_known_values() {
        // y(t) = 1 − e^{−t}(1+t); y(1.678346990) ≈ 0.5.
        let t50 = time_to_reach_scaled(1.0, 0.5);
        assert!((t50 - 1.678_346_990_016).abs() < 1e-8, "t50 = {t50}");
    }

    #[test]
    fn large_zeta_approaches_elmore_limit() {
        // ζ → ∞: scaled 50% delay → 2ζ·ln 2 (the Elmore/Wyatt limit noted
        // below paper eq. 38).
        let zeta = 500.0;
        let t50 = time_to_reach_scaled(zeta, 0.5);
        let elmore = 2.0 * zeta * core::f64::consts::LN_2;
        assert!(
            (t50 - elmore).abs() / elmore < 1e-3,
            "t50={t50}, Elmore limit={elmore}"
        );
    }

    #[test]
    fn model_methods_wrap_scaled_functions() {
        let m = SecondOrderModel::new(0.7, AngularFrequency::from_radians_per_second(2.0e9));
        let t = Time::from_nanoseconds(1.0);
        assert!((m.unit_step(t) - unit_step_scaled(0.7, 2.0)).abs() < 1e-12);
        let t50 = m.time_to_reach(0.5);
        assert!((m.unit_step(t50) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn first_order_model_is_exponential() {
        use rlc_tree::RlcSection;
        use rlc_units::{Capacitance, Resistance};
        let m = SecondOrderModel::from_section(&RlcSection::rc(
            Resistance::from_ohms(1000.0),
            Capacitance::from_picofarads(1.0),
        ));
        // τ = 1 ns; y(1 ns) = 1 − e^{−1}.
        let y = m.unit_step(Time::from_nanoseconds(1.0));
        assert!((y - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        let t50 = m.time_to_reach(0.5);
        assert!((t50.as_nanoseconds() - core::f64::consts::LN_2).abs() < 1e-9);
        assert_eq!(m.unit_step(Time::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "level must lie strictly between")]
    fn inversion_rejects_level_one() {
        let _ = time_to_reach_scaled(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "damping factor must be positive")]
    fn rejects_non_positive_zeta() {
        let _ = unit_step_scaled(0.0, 1.0);
    }
}
