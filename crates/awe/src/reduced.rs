//! Pole/residue reduced-order models and their construction from moments.

use rlc_numeric::{linalg::Matrix, poly, Complex64, Polynomial};
use rlc_tree::{NodeId, RlcTree};
use rlc_units::Time;

use crate::AweError;

/// A reduced-order voltage transfer function in pole/residue form:
/// `H(s) = Σ_k r_k / (s − p_k)`.
///
/// Constructed by Padé moment matching ([`from_pade`](Self::from_pade)),
/// as the Wyatt single-pole model ([`wyatt`](Self::wyatt)), or as the
/// Kahng–Muddu two-pole model ([`two_pole`](Self::two_pole)). The step
/// response and standard timing metrics are evaluated directly from the
/// poles and residues.
///
/// # Examples
///
/// ```
/// use rlc_awe::ReducedOrderModel;
/// use rlc_units::Time;
///
/// // A single-pole RC model with τ = 1 ns.
/// let m = ReducedOrderModel::wyatt(Time::from_nanoseconds(1.0));
/// assert!(m.is_stable());
/// assert!((m.dc_gain() - 1.0).abs() < 1e-12);
/// let d = m.delay_50().expect("monotone rise");
/// assert!((d.as_nanoseconds() - core::f64::consts::LN_2).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReducedOrderModel {
    poles: Vec<Complex64>,
    residues: Vec<Complex64>,
}

impl ReducedOrderModel {
    /// Builds a `q`-pole model by Padé moment matching (AWE).
    ///
    /// `moments` are the transfer-function moments `[m_0, m_1, …]` with
    /// `m_0 = 1` (as produced by [`rlc_moments::transfer_moments`]); at
    /// least `2q` moments beyond `m_0` are required.
    ///
    /// # Errors
    ///
    /// * [`AweError::ZeroOrder`] / [`AweError::InsufficientMoments`] for
    ///   bad arguments;
    /// * [`AweError::Numerical`] if the Hankel system is singular or the
    ///   pole polynomial cannot be solved — the well-known fragility of
    ///   high-order AWE.
    pub fn from_pade(moments: &[f64], order: usize) -> Result<Self, AweError> {
        if order == 0 {
            return Err(AweError::ZeroOrder);
        }
        let available = moments.len().saturating_sub(1);
        if available < 2 * order {
            return Err(AweError::InsufficientMoments { order, available });
        }
        let q = order;
        // Moments of physical circuits carry units of seconds^k and span
        // many decades; normalize time by |m_1| so the Hankel system is
        // well conditioned, and un-scale the poles/residues afterwards.
        let scale = if moments[1] != 0.0 {
            moments[1].abs()
        } else {
            1.0
        };
        let moments: Vec<f64> = moments
            .iter()
            .enumerate()
            .map(|(k, &m)| m / scale.powi(k as i32))
            .collect();
        // Denominator Q(s) = 1 + b_1 s + … + b_q s^q from the Hankel system
        //   Σ_{i=1..q} b_i · m_{k−i} = −m_k,   k = q … 2q−1.
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(q);
        let mut rhs = Vec::with_capacity(q);
        for k in q..2 * q {
            rows.push((1..=q).map(|i| moments[k - i]).collect());
            rhs.push(-moments[k]);
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let b = Matrix::from_rows(&row_refs)
            .map_err(AweError::from)?
            .solve(&rhs)
            .map_err(AweError::from)?;
        // Numerator P(s) = a_0 + … + a_{q−1} s^{q−1}: a_j = Σ_{i=0..j} b_i·m_{j−i}.
        let mut b_full = vec![1.0];
        b_full.extend_from_slice(&b);
        let a: Vec<f64> = (0..q)
            .map(|j| (0..=j).map(|i| b_full[i] * moments[j - i]).sum())
            .collect();

        let q_poly = Polynomial::new(b_full);
        let p_poly = Polynomial::new(a);
        let poles = q_poly.roots(1e-10, 2000).map_err(AweError::from)?;
        // Residues of H = P/Q at simple poles: r_k = P(p_k)/Q'(p_k).
        let dq = q_poly.derivative();
        let mut residues = Vec::with_capacity(poles.len());
        for &p in &poles {
            let denom = dq.eval_complex(p);
            if denom.norm() < 1e-300 {
                return Err(AweError::Numerical(rlc_numeric::NumericError::Degenerate {
                    context: "repeated Padé pole (defective model)",
                }));
            }
            residues.push(p_poly.eval_complex(p) / denom / scale);
        }
        let poles: Vec<Complex64> = poles.into_iter().map(|p| p / scale).collect();
        Ok(Self { poles, residues })
    }

    /// The Wyatt single-pole model `1/(1 + s·τ)` with τ the Elmore time
    /// constant (paper eq. 6).
    ///
    /// # Panics
    ///
    /// Panics if `elmore_tau` is not positive and finite.
    pub fn wyatt(elmore_tau: Time) -> Self {
        assert!(
            elmore_tau.is_finite() && elmore_tau.as_seconds() > 0.0,
            "Elmore time constant must be positive and finite, got {elmore_tau}"
        );
        let p = Complex64::from_real(-1.0 / elmore_tau.as_seconds());
        Self {
            poles: vec![p],
            residues: vec![-p],
        }
    }

    /// The Kahng–Muddu analytical two-pole model \[30\], built from the first
    /// two *exact* moments: `H(s) = 1/(1 + b_1 s + b_2 s²)` with
    /// `b_1 = −m_1`, `b_2 = m_1² − m_2`.
    ///
    /// # Errors
    ///
    /// Returns [`AweError::Numerical`] if `b_2 ≤ 0` (the two-pole form
    /// degenerates; physically this happens only for non-tree or
    /// pathological moment data) or the poles are defective.
    pub fn two_pole(m1: f64, m2: f64) -> Result<Self, AweError> {
        let b1 = -m1;
        let b2 = m1 * m1 - m2;
        // NaN-rejecting comparisons (a NaN moment must land in the error
        // branch), written to satisfy clippy's partial-ord lint.
        if b1.partial_cmp(&0.0) != Some(core::cmp::Ordering::Greater)
            || b2.partial_cmp(&0.0) != Some(core::cmp::Ordering::Greater)
        {
            return Err(AweError::Numerical(rlc_numeric::NumericError::Degenerate {
                context: "two-pole model requires b1 > 0 and b2 > 0",
            }));
        }
        let [p1, p2] = poly::quadratic_roots(1.0, b1, b2);
        if (p1 - p2).norm() < 1e-12 * p1.norm() {
            // Repeated pole: split infinitesimally (same device as the
            // critical-damping handling in the closed-form model).
            let eps = 1e-6;
            let pa = p1 * (1.0 - eps);
            let pb = p1 * (1.0 + eps);
            return Ok(Self::from_two_poles(pa, pb));
        }
        Ok(Self::from_two_poles(p1, p2))
    }

    /// Builds the DC-gain-1, zero-free model with the two given poles.
    fn from_two_poles(p1: Complex64, p2: Complex64) -> Self {
        // H = p1·p2/((s−p1)(s−p2)); residues: r1 = p1·p2/(p1−p2), r2 = −r1.
        let r1 = p1 * p2 / (p1 - p2);
        Self {
            poles: vec![p1, p2],
            residues: vec![r1, -r1],
        }
    }

    /// The model poles.
    pub fn poles(&self) -> &[Complex64] {
        &self.poles
    }

    /// The residues matching [`poles`](Self::poles).
    pub fn residues(&self) -> &[Complex64] {
        &self.residues
    }

    /// Model order (number of poles).
    pub fn order(&self) -> usize {
        self.poles.len()
    }

    /// `true` if every pole lies strictly in the left half-plane.
    ///
    /// The paper's second-order model is stable by construction; AWE models
    /// must be checked.
    pub fn is_stable(&self) -> bool {
        self.poles.iter().all(|p| p.re < 0.0)
    }

    /// The DC gain `H(0) = Σ −r_k/p_k` (1 for an exact interconnect model).
    pub fn dc_gain(&self) -> f64 {
        self.poles
            .iter()
            .zip(&self.residues)
            .map(|(&p, &r)| -(r / p))
            .sum::<Complex64>()
            .re
    }

    /// The unit step response `y(t) = H(0) + Σ_k (r_k/p_k)·e^{p_k t}`.
    pub fn step_response(&self, t: Time) -> f64 {
        let ts = t.as_seconds();
        if ts <= 0.0 {
            return 0.0;
        }
        let mut y = Complex64::from_real(self.dc_gain());
        for (&p, &r) in self.poles.iter().zip(&self.residues) {
            y += (r / p) * (p * ts).exp();
        }
        y.re
    }

    /// First time the step response reaches `level` (of the DC gain), by
    /// scanning at a resolution set by the fastest pole and refining with
    /// Brent's method. `None` if the model is unstable or never crosses
    /// within ~40 dominant time constants.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `(0, 1)`.
    pub fn time_to_reach(&self, level: f64) -> Option<Time> {
        assert!(
            level > 0.0 && level < 1.0,
            "level must lie strictly between 0 and 1, got {level}"
        );
        if !self.is_stable() {
            return None;
        }
        let target = level * self.dc_gain();
        let fastest = self.poles.iter().map(|p| p.norm()).fold(0.0f64, f64::max);
        let slowest = self
            .poles
            .iter()
            .map(|p| p.re.abs())
            .fold(f64::INFINITY, f64::min);
        if fastest == 0.0 || slowest == 0.0 {
            return None;
        }
        let dt = 0.02 / fastest;
        let t_max = 40.0 / slowest;
        let mut t_prev = 0.0f64;
        let mut y_prev = 0.0f64;
        let mut t = dt;
        while t <= t_max {
            let y = self.step_response(Time::from_seconds(t));
            if y_prev < target && y >= target {
                let root = rlc_numeric::roots::brent(
                    |x| self.step_response(Time::from_seconds(x)) - target,
                    t_prev,
                    t,
                    1e-13 * t,
                    200,
                )
                .ok()?;
                return Some(Time::from_seconds(root));
            }
            y_prev = y;
            t_prev = t;
            t += dt;
        }
        None
    }

    /// The 50% propagation delay, if the response crosses it.
    pub fn delay_50(&self) -> Option<Time> {
        self.time_to_reach(0.5)
    }

    /// The 10–90% rise time, if the response crosses both levels.
    pub fn rise_time_10_90(&self) -> Option<Time> {
        Some(self.time_to_reach(0.9)? - self.time_to_reach(0.1)?)
    }
}

/// Builds a `q`-pole AWE model at node `i` of `tree` from exact tree
/// moments.
///
/// # Errors
///
/// Propagates [`ReducedOrderModel::from_pade`] failures.
///
/// # Panics
///
/// Panics if `i` does not belong to `tree`.
pub fn awe_at_node(tree: &RlcTree, i: NodeId, order: usize) -> Result<ReducedOrderModel, AweError> {
    let moments = rlc_moments::transfer_moments(tree, 2 * order);
    ReducedOrderModel::from_pade(moments.at(i), order)
}

/// Builds the Kahng–Muddu two-pole model at node `i` from the exact first
/// and second tree moments.
///
/// # Errors
///
/// Propagates [`ReducedOrderModel::two_pole`] failures.
///
/// # Panics
///
/// Panics if `i` does not belong to `tree`.
pub fn two_pole_at_node(tree: &RlcTree, i: NodeId) -> Result<ReducedOrderModel, AweError> {
    let moments = rlc_moments::transfer_moments(tree, 2);
    let m = moments.at(i);
    ReducedOrderModel::two_pole(m[1], m[2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_tree::{topology, RlcSection};
    use rlc_units::{Capacitance, Inductance, Resistance};

    fn s(r: f64, l: f64, c: f64) -> RlcSection {
        RlcSection::new(
            Resistance::from_ohms(r),
            Inductance::from_henries(l),
            Capacitance::from_farads(c),
        )
    }

    #[test]
    fn wyatt_model_is_the_rc_exponential() {
        let m = ReducedOrderModel::wyatt(Time::from_seconds(2.0));
        assert_eq!(m.order(), 1);
        assert!(m.is_stable());
        assert!((m.dc_gain() - 1.0).abs() < 1e-12);
        for &t in &[0.5, 1.0, 4.0] {
            let y = m.step_response(Time::from_seconds(t));
            assert!((y - (1.0 - (-t / 2.0f64).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn pade_q1_recovers_single_pole_exactly() {
        // Moments of 1/(1+sτ): m_k = (−τ)^k.
        let tau = 3.0;
        let moments = [1.0, -tau, tau * tau];
        let m = ReducedOrderModel::from_pade(&moments, 1).unwrap();
        assert_eq!(m.order(), 1);
        assert!((m.poles()[0].re + 1.0 / tau).abs() < 1e-9);
        assert!((m.dc_gain() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[allow(
        clippy::needless_range_loop,
        reason = "convolution over moment indices"
    )]
    fn pade_q2_recovers_two_pole_system_exactly() {
        // H = 1/((1+s)(1+s/4)): poles −1, −4.
        // Moments: H = Σ m_k s^k; m1 = −(1 + 1/4) = −1.25,
        // m2 = 1 + 1/4·1 + 1/16 … easier: m_k of product = convolution of
        // geometric series: m_k = Σ_{i+j=k} (−1)^i (−1/4)^j.
        let mut moments = vec![0.0; 5];
        for k in 0..5 {
            let mut acc = 0.0;
            for i in 0..=k {
                acc += (-1.0f64).powi(i as i32) * (-0.25f64).powi((k - i) as i32);
            }
            moments[k] = acc;
        }
        let m = ReducedOrderModel::from_pade(&moments, 2).unwrap();
        let mut res: Vec<f64> = m.poles().iter().map(|p| p.re).collect();
        res.sort_by(f64::total_cmp);
        assert!((res[0] + 4.0).abs() < 1e-6, "{res:?}");
        assert!((res[1] + 1.0).abs() < 1e-6, "{res:?}");
        assert!((m.dc_gain() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pade_on_rc_line_matches_simulation() {
        let (line, sink) = topology::single_line(8, s(50.0, 0.0, 0.5e-12));
        let awe = awe_at_node(&line, sink, 3).unwrap();
        assert!(awe.is_stable());
        assert!((awe.dc_gain() - 1.0).abs() < 1e-6);
        // Compare the 50% delay against the transient simulator.
        let options =
            rlc_sim::SimOptions::new(Time::from_picoseconds(1.0), Time::from_nanoseconds(10.0));
        let wave = &rlc_sim::simulate(&line, &rlc_sim::Source::step(1.0), &options, &[sink])[0];
        let sim_delay = wave.delay_50(1.0).unwrap();
        let awe_delay = awe.delay_50().unwrap();
        let err = (awe_delay.as_seconds() - sim_delay.as_seconds()).abs() / sim_delay.as_seconds();
        assert!(err < 0.01, "AWE q=3 delay error {err}");
    }

    #[test]
    fn pade_on_rlc_tree_beats_two_pole_which_beats_wyatt() {
        // The expected accuracy ordering on a moderately inductive line.
        let (line, sink) = topology::single_line(6, s(20.0, 1.5e-9, 0.3e-12));
        let options =
            rlc_sim::SimOptions::new(Time::from_picoseconds(0.5), Time::from_nanoseconds(20.0));
        let wave = &rlc_sim::simulate(&line, &rlc_sim::Source::step(1.0), &options, &[sink])[0];
        let sim_delay = wave.delay_50(1.0).unwrap().as_seconds();

        let err =
            |d: Option<Time>| (d.expect("crosses").as_seconds() - sim_delay).abs() / sim_delay;
        let awe4 = err(awe_at_node(&line, sink, 4).unwrap().delay_50());
        let two = err(two_pole_at_node(&line, sink).unwrap().delay_50());
        let sums = rlc_moments::tree_sums(&line);
        let wyatt = err(ReducedOrderModel::wyatt(sums.rc(sink)).delay_50());
        // Both moment-matched models are percent-accurate; the single-pole
        // Wyatt model is an order of magnitude worse on inductive lines.
        assert!(awe4 < 0.02, "AWE err {awe4}");
        assert!(two < 0.02, "two-pole err {two}");
        assert!(
            wyatt > 5.0 * awe4.max(two),
            "Wyatt {wyatt} vs AWE {awe4} / two-pole {two}"
        );
    }

    #[test]
    fn two_pole_matches_eed_when_given_approximate_moments() {
        // Feeding the *paper's* approximate m2 = T_RC² − T_LC into the
        // two-pole construction reproduces the paper's (ζ, ω_n) poles.
        let (line, sink) = topology::single_line(3, s(10.0, 1e-9, 0.2e-12));
        let sums = rlc_moments::tree_sums(&line);
        let t_rc = sums.rc(sink).as_seconds();
        let t_lc = sums.lc(sink).as_seconds_squared();
        let m1 = -t_rc;
        let m2_approx = t_rc * t_rc - t_lc;
        let two = ReducedOrderModel::two_pole(m1, m2_approx).unwrap();

        let eed_model = eed::SecondOrderModel::from_sums(sums.rc(sink), sums.lc(sink));
        let eed_poles = eed_model.poles().unwrap();
        let mut got: Vec<(f64, f64)> = two.poles().iter().map(|p| (p.re, p.im)).collect();
        got.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut expect = eed_poles.to_vec();
        expect.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (g, e) in got.iter().zip(&expect) {
            assert!(
                (g.0 - e.0).abs() < 1e-3 * e.0.abs() && (g.1 - e.1).abs() < 1e-3 * e.0.abs(),
                "{got:?} vs {expect:?}"
            );
        }
    }

    #[test]
    fn two_pole_underdamped_step_response_rings() {
        // b1 small relative to b2 → complex poles → overshoot.
        let m = ReducedOrderModel::two_pole(-0.4, -(1.0 - 0.4f64 * 0.4)).unwrap();
        assert!(m.poles()[0].im != 0.0);
        // Peak of the step response exceeds 1.
        let peak = (1..300)
            .map(|k| m.step_response(Time::from_seconds(k as f64 * 0.05)))
            .fold(0.0f64, f64::max);
        assert!(peak > 1.05, "peak {peak}");
    }

    #[test]
    fn two_pole_repeated_pole_is_handled() {
        // m1 = −2τ, m2 = 3τ² gives b1 = 2τ, b2 = τ² → double pole at −1/τ.
        let tau = 1.0;
        let m = ReducedOrderModel::two_pole(-2.0 * tau, 3.0 * tau * tau).unwrap();
        assert!(m.is_stable());
        let y = m.step_response(Time::from_seconds(5.0));
        // Critical response 1 − e^{−t}(1+t) at t = 5.
        assert!((y - (1.0 - (-5.0f64).exp() * 6.0)).abs() < 1e-3, "{y}");
    }

    #[test]
    fn two_pole_rejects_degenerate_moments() {
        assert!(ReducedOrderModel::two_pole(1.0, 0.0).is_err()); // b1 < 0
        assert!(ReducedOrderModel::two_pole(-1.0, 2.0).is_err()); // b2 < 0
    }

    #[test]
    fn pade_argument_validation() {
        assert!(matches!(
            ReducedOrderModel::from_pade(&[1.0, -1.0], 0),
            Err(AweError::ZeroOrder)
        ));
        assert!(matches!(
            ReducedOrderModel::from_pade(&[1.0, -1.0], 2),
            Err(AweError::InsufficientMoments { .. })
        ));
    }

    #[test]
    fn unstable_model_reports_no_delay() {
        // Hand-built unstable model.
        let m = ReducedOrderModel {
            poles: vec![Complex64::from_real(1.0)],
            residues: vec![Complex64::from_real(-1.0)],
        };
        assert!(!m.is_stable());
        assert_eq!(m.delay_50(), None);
    }

    #[test]
    fn rise_time_consistent_with_levels() {
        let m = ReducedOrderModel::wyatt(Time::from_seconds(1.0));
        let rise = m.rise_time_10_90().unwrap();
        assert!((rise.as_seconds() - 9.0f64.ln()).abs() < 1e-6);
        let t10 = m.time_to_reach(0.1).unwrap();
        let t90 = m.time_to_reach(0.9).unwrap();
        assert!((rise.as_seconds() - (t90 - t10).as_seconds()).abs() < 1e-12);
    }

    #[test]
    fn step_response_is_causal_and_settles() {
        let (line, sink) = topology::single_line(4, s(30.0, 2e-9, 0.4e-12));
        let m = awe_at_node(&line, sink, 3).unwrap();
        assert_eq!(m.step_response(Time::ZERO), 0.0);
        assert_eq!(m.step_response(Time::from_seconds(-1.0)), 0.0);
        let late = m.step_response(Time::from_nanoseconds(1000.0));
        assert!((late - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "level must lie strictly between")]
    fn time_to_reach_validates_level() {
        let m = ReducedOrderModel::wyatt(Time::from_seconds(1.0));
        let _ = m.time_to_reach(1.5);
    }
}
