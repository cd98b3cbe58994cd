//! Signal metrics: 50% delay, rise time, overshoots, settling time
//! (paper eqs. 33–42), plus the Elmore/Wyatt baselines they generalize.

use rlc_units::Time;

use crate::fitted;
use crate::model::{Damping, SecondOrderModel};

impl SecondOrderModel {
    /// The 50% propagation delay via the continuous fitted formula
    /// (paper eqs. 33 and 35).
    ///
    /// This is the drop-in replacement for the Elmore delay of RC trees:
    /// closed-form, continuous in ζ, within a few percent of the exact
    /// second-order value, and equal to the Wyatt delay `ln 2·T_RC` in the
    /// high-damping limit. Use [`delay_50_exact`](Self::delay_50_exact)
    /// when the fit's percent-level error matters.
    ///
    /// # Examples
    ///
    /// ```
    /// use eed::SecondOrderModel;
    /// use rlc_units::AngularFrequency;
    ///
    /// let m = SecondOrderModel::new(1.0, AngularFrequency::from_radians_per_second(1.0e9));
    /// let fitted = m.delay_50();
    /// let exact = m.delay_50_exact();
    /// assert!((fitted.as_seconds() - exact.as_seconds()).abs() / exact.as_seconds() < 0.04);
    /// ```
    pub fn delay_50(&self) -> Time {
        match self.damping() {
            Damping::FirstOrder => self.wyatt_delay_50(),
            _ => self.unscale_time(fitted::delay_50_scaled(self.zeta())),
        }
    }

    /// The exact 50% delay of the second-order model, by numerically
    /// inverting the closed-form step response.
    pub fn delay_50_exact(&self) -> Time {
        self.time_to_reach(0.5)
    }

    /// The 10–90% rise time via the continuous fitted formula
    /// (paper eqs. 34 and 36).
    pub fn rise_time(&self) -> Time {
        match self.damping() {
            Damping::FirstOrder => self.wyatt_rise_time(),
            _ => self.unscale_time(fitted::rise_time_scaled(self.zeta())),
        }
    }

    /// The exact 10–90% rise time of the second-order model.
    pub fn rise_time_exact(&self) -> Time {
        self.time_to_reach(0.9) - self.time_to_reach(0.1)
    }

    /// The Wyatt (single-dominant-pole) 50% delay `ln 2 · T_RC` — what the
    /// classic Elmore-based flow would report for this node (paper eq. 6).
    ///
    /// The paper's delay reduces to this value as ζ grows (eq. 37); for
    /// underdamped nodes the Wyatt delay badly overestimates.
    pub fn wyatt_delay_50(&self) -> Time {
        self.elmore_time_constant() * core::f64::consts::LN_2
    }

    /// The Wyatt 10–90% rise time `ln 9 · T_RC` (paper eq. 38 limit).
    pub fn wyatt_rise_time(&self) -> Time {
        self.elmore_time_constant() * 9f64.ln()
    }

    /// The signed `n`-th extremum of the step response relative to the
    /// final value (paper eq. 39): positive overshoots for odd `n`,
    /// negative undershoots for even `n`, with magnitude
    /// `exp(−nπζ/√(1−ζ²))`.
    ///
    /// Returns `None` unless the response is underdamped (monotone
    /// responses have no extrema).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use eed::SecondOrderModel;
    /// use rlc_units::AngularFrequency;
    ///
    /// let m = SecondOrderModel::new(0.3, AngularFrequency::from_radians_per_second(1.0e9));
    /// let first = m.overshoot(1).expect("underdamped");
    /// assert!(first > 0.0 && first < 1.0);
    /// let second = m.overshoot(2).expect("underdamped");
    /// assert!(second < 0.0 && second.abs() < first);
    /// ```
    pub fn overshoot(&self, n: u32) -> Option<f64> {
        assert!(n >= 1, "extrema are numbered from 1");
        if !self.is_underdamped() {
            return None;
        }
        let zeta = self.zeta();
        let ratio = zeta / (1.0 - zeta * zeta).sqrt();
        let magnitude = (-(n as f64) * core::f64::consts::PI * ratio).exp();
        Some(if n % 2 == 1 { magnitude } else { -magnitude })
    }

    /// The time of the `n`-th extremum, `t_n = nπ/(ω_n√(1−ζ²))`
    /// (paper eq. 40). `None` unless underdamped.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn overshoot_time(&self, n: u32) -> Option<Time> {
        assert!(n >= 1, "extrema are numbered from 1");
        let omega_d = self.omega_d()?;
        Some(omega_d.period_time() * (n as f64 * core::f64::consts::PI))
    }

    /// The maximum overshoot as a fraction of the final value —
    /// `overshoot(1)`, the first and largest extremum.
    pub fn max_overshoot(&self) -> Option<f64> {
        self.overshoot(1)
    }

    /// The settling time: when the response remains within `±x` of the
    /// final value (paper eqs. 41–42; the paper uses `x = 0.1`).
    ///
    /// For an underdamped response this is the instant of the first
    /// extremum whose magnitude is below `x`; for monotone responses it is
    /// the `1−x` crossing.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `(0, 1)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use eed::SecondOrderModel;
    /// use rlc_units::AngularFrequency;
    ///
    /// let m = SecondOrderModel::new(0.4, AngularFrequency::from_radians_per_second(1.0e9));
    /// let ts = m.settling_time(0.1);
    /// // After the settling time, the response stays within the band.
    /// let wiggle = m.overshoot(3).map(f64::abs).filter(|_| {
    ///     m.overshoot_time(3).expect("underdamped") > ts
    /// });
    /// assert!(wiggle.is_none() || wiggle.expect("checked") <= 0.1 + 1e-12);
    /// ```
    pub fn settling_time(&self, x: f64) -> Time {
        assert!(
            x > 0.0 && x < 1.0,
            "settling band must lie strictly between 0 and 1, got {x}"
        );
        if self.is_underdamped() {
            let zeta = self.zeta();
            let sqrt_term = (1.0 - zeta * zeta).sqrt();
            // Smallest n with exp(−nπζ/√(1−ζ²)) ≤ x (paper eq. 41).
            let n_exact = -x.ln() * sqrt_term / (core::f64::consts::PI * zeta);
            let n = n_exact.ceil().max(1.0);
            self.overshoot_time(n as u32)
                .expect("underdamped models have extremum times")
        } else {
            self.time_to_reach(1.0 - x)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::unit_step_scaled;
    use rlc_units::AngularFrequency;

    fn model(zeta: f64) -> SecondOrderModel {
        SecondOrderModel::new(zeta, AngularFrequency::from_radians_per_second(1.0))
    }

    fn first_order() -> SecondOrderModel {
        use rlc_tree::RlcSection;
        use rlc_units::{Capacitance, Resistance};
        SecondOrderModel::from_section(&RlcSection::rc(
            Resistance::from_ohms(1.0),
            Capacitance::from_farads(1.0),
        ))
    }

    #[test]
    fn fitted_delay_close_to_exact_across_regimes() {
        for &zeta in &[0.25, 0.5, 0.8, 1.0, 1.3, 2.0, 3.0] {
            let m = model(zeta);
            let fit = m.delay_50().as_seconds();
            let exact = m.delay_50_exact().as_seconds();
            assert!(
                (fit - exact).abs() / exact < 0.04,
                "ζ={zeta}: fitted {fit} vs exact {exact}"
            );
        }
    }

    #[test]
    fn fitted_rise_close_to_exact_across_regimes() {
        for &zeta in &[0.25, 0.5, 0.8, 1.0, 1.3, 2.0, 3.0] {
            let m = model(zeta);
            let fit = m.rise_time().as_seconds();
            let exact = m.rise_time_exact().as_seconds();
            assert!(
                (fit - exact).abs() / exact < 0.05,
                "ζ={zeta}: fitted {fit} vs exact {exact}"
            );
        }
    }

    #[test]
    fn wyatt_is_the_large_zeta_limit() {
        let m = model(30.0);
        let ratio = m.delay_50_exact().as_seconds() / m.wyatt_delay_50().as_seconds();
        assert!((ratio - 1.0).abs() < 0.01, "ratio {ratio}");
        let ratio_r = m.rise_time_exact().as_seconds() / m.wyatt_rise_time().as_seconds();
        assert!((ratio_r - 1.0).abs() < 0.01, "ratio {ratio_r}");
    }

    #[test]
    fn wyatt_underestimates_underdamped_delay() {
        // Paper motivation: for ζ<1 the RC flow mispredicts badly. The
        // second-order response has zero initial slope (inductive inertia),
        // so the single-pole Wyatt delay is far too optimistic: as ζ → 0
        // the true scaled delay approaches arccos(1/2) ≈ 1.047 while the
        // Wyatt delay 2ζ·ln2 vanishes.
        let m = model(0.3);
        assert!(m.wyatt_delay_50() * 1.5 < m.delay_50_exact());
    }

    #[test]
    fn overshoot_magnitudes_match_closed_form_and_response() {
        let zeta = 0.35;
        let m = model(zeta);
        let wd = (1.0 - zeta * zeta).sqrt();
        for n in 1..=4 {
            let os = m.overshoot(n).unwrap();
            let t_n = m.overshoot_time(n).unwrap();
            // eq. 40: t_n = nπ/ωd (ω_n = 1 here).
            assert!((t_n.as_seconds() - n as f64 * core::f64::consts::PI / wd).abs() < 1e-12);
            // The response at t_n deviates from 1 by exactly the overshoot.
            let y = unit_step_scaled(zeta, t_n.as_seconds());
            assert!(
                (y - (1.0 + os)).abs() < 1e-9,
                "n={n}: y={y}, 1+os={}",
                1.0 + os
            );
        }
    }

    #[test]
    fn overshoots_alternate_and_decay() {
        let m = model(0.2);
        let o1 = m.overshoot(1).unwrap();
        let o2 = m.overshoot(2).unwrap();
        let o3 = m.overshoot(3).unwrap();
        assert!(o1 > 0.0 && o2 < 0.0 && o3 > 0.0);
        assert!(o1 > o2.abs() && o2.abs() > o3);
        assert_eq!(m.max_overshoot(), m.overshoot(1));
    }

    #[test]
    fn overshoot_none_for_monotone_regimes() {
        assert_eq!(model(1.0).overshoot(1), None);
        assert_eq!(model(2.0).overshoot(1), None);
        assert_eq!(first_order().overshoot(1), None);
        assert_eq!(model(2.0).overshoot_time(1), None);
        assert_eq!(first_order().max_overshoot(), None);
    }

    #[test]
    #[should_panic(expected = "numbered from 1")]
    fn overshoot_zero_rejected() {
        let _ = model(0.5).overshoot(0);
    }

    #[test]
    fn settling_time_definition_holds() {
        // At the settling instant the extremum magnitude is ≤ x, and the
        // previous extremum exceeded x.
        let x = 0.1;
        for &zeta in &[0.15, 0.3, 0.5, 0.7] {
            let m = model(zeta);
            let ts = m.settling_time(x);
            // Find which n the settling instant corresponds to.
            let wd = (1.0 - zeta * zeta).sqrt();
            let n = (ts.as_seconds() * wd / core::f64::consts::PI).round() as u32;
            let mag_n = m.overshoot(n).unwrap().abs();
            assert!(mag_n <= x + 1e-12, "ζ={zeta}: |o_n|={mag_n}");
            if n > 1 {
                let mag_prev = m.overshoot(n - 1).unwrap().abs();
                assert!(mag_prev > x, "ζ={zeta}: previous extremum already settled");
            }
        }
    }

    #[test]
    fn settling_time_monotone_regime_is_band_crossing() {
        let m = model(2.0);
        let ts = m.settling_time(0.1);
        assert!((m.unit_step(ts) - 0.9).abs() < 1e-9);
        let fo = first_order();
        let ts = fo.settling_time(0.05);
        assert!((fo.unit_step(ts) - 0.95).abs() < 1e-9);
    }

    #[test]
    fn settling_time_shrinks_with_wider_band() {
        let m = model(0.25);
        assert!(m.settling_time(0.2) <= m.settling_time(0.05));
    }

    #[test]
    #[should_panic(expected = "settling band")]
    fn settling_rejects_bad_band() {
        let _ = model(0.5).settling_time(1.5);
    }

    #[test]
    fn delay_less_than_rise_time() {
        for &zeta in &[0.3, 1.0, 2.5] {
            let m = model(zeta);
            assert!(m.delay_50() < m.rise_time());
            assert!(m.delay_50_exact() < m.rise_time_exact());
        }
        let fo = first_order();
        assert!(fo.delay_50() < fo.rise_time());
    }

    #[test]
    fn physical_scaling_divides_by_omega_n() {
        // eq. 35–36: unscaled metrics are scaled metrics / ω_n.
        let a = SecondOrderModel::new(0.6, AngularFrequency::from_radians_per_second(1.0));
        let b = SecondOrderModel::new(0.6, AngularFrequency::from_radians_per_second(1.0e9));
        let ratio = a.delay_50().as_seconds() / b.delay_50().as_seconds();
        assert!((ratio - 1.0e9).abs() / 1.0e9 < 1e-12);
    }
}
