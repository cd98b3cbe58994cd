//! The reference oracle: exact transient simulation with automatic
//! horizon and step refinement.
//!
//! This plays the role of the paper's AS/X reference simulator (Section V):
//! every conformance number in this crate is a relative error *against the
//! oracle*, never against another closed form. Timescales are seeded from
//! the node's second-order model — which is always within a small factor of
//! the true response time — and then validated on the waveform itself: the
//! horizon doubles until the response has actually settled, and the result
//! is accepted only once halving the step no longer moves the measured
//! delay.

use core::fmt;

use eed::SecondOrderModel;
use rlc_sim::{simulate, MetricError, SimOptions, Source, Waveform};
use rlc_tree::{NodeId, RlcTree};
use rlc_units::Time;

/// Why the oracle could not produce a reference measurement.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OracleError {
    /// The node has zero `T_RC` *and* zero `T_LC`: no dynamics, no delay.
    NoDynamics,
    /// The waveform had not settled to its final value even after the
    /// horizon was doubled to its limit.
    DidNotSettle {
        /// The final horizon tried, in seconds.
        horizon_s: f64,
    },
    /// A metric could not be extracted from the settled waveform.
    Metric(MetricError),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::NoDynamics => write!(f, "node has no dynamics (zero T_RC and T_LC)"),
            OracleError::DidNotSettle { horizon_s } => {
                write!(f, "response did not settle within {horizon_s:.3e} s")
            }
            OracleError::Metric(e) => write!(f, "metric extraction failed: {e}"),
        }
    }
}

impl std::error::Error for OracleError {}

impl From<MetricError> for OracleError {
    fn from(e: MetricError) -> Self {
        OracleError::Metric(e)
    }
}

/// Reference timing numbers measured from the exact step response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleMeasurement {
    /// 50% propagation delay.
    pub delay_50: Time,
    /// 10–90% rise time.
    pub rise_time: Time,
    /// Maximum overshoot as a fraction of the final value (0 if monotone).
    pub overshoot: f64,
    /// ±10% settling time (the paper's `x = 0.1`).
    pub settling: Time,
    /// The settled final value (should be the 1 V step amplitude).
    pub v_final: f64,
    /// Simulation steps of the accepted (finest) run.
    pub steps: usize,
}

/// The exact-simulation oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oracle {
    /// Hard cap on steps per simulation run; the step size is coarsened to
    /// respect it, so the cap bounds runtime rather than failing.
    pub max_steps: usize,
    /// Relative agreement required between a run and its half-step
    /// refinement before a delay is accepted.
    pub convergence: f64,
}

impl Default for Oracle {
    fn default() -> Self {
        Self {
            max_steps: 200_000,
            convergence: 2e-3,
        }
    }
}

/// Step amplitude used for every oracle simulation.
const STEP_V: f64 = 1.0;
/// The settled band around the final value required before measuring.
const SETTLE_TOL: f64 = 5e-3;
/// Horizon doublings before giving up on settling.
const MAX_HORIZON_DOUBLINGS: usize = 8;
/// Step halvings allowed during convergence refinement.
const MAX_REFINEMENTS: usize = 3;

impl Oracle {
    /// An oracle with a reduced step budget, for fast in-tree smoke tests.
    pub fn with_max_steps(max_steps: usize) -> Self {
        assert!(max_steps >= 1_000, "oracle needs a sane step budget");
        Self {
            max_steps,
            ..Self::default()
        }
    }

    /// Measures the reference response of `tree` at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of `tree`.
    pub fn measure(&self, tree: &RlcTree, node: NodeId) -> Result<OracleMeasurement, OracleError> {
        let sums = rlc_moments::tree_sums(tree);
        let (t_rc, t_lc) = (sums.rc(node), sums.lc(node));
        if t_rc.as_seconds() == 0.0 && t_lc.as_seconds_squared() == 0.0 {
            return Err(OracleError::NoDynamics);
        }
        let model = SecondOrderModel::from_sums(t_rc, t_lc);

        // Model-seeded timescales. The fitted delay is within a few percent
        // of the true second-order delay in every regime, and the settling
        // estimate bounds the ringing tail; both only seed the search.
        let est_delay = model.delay_50().as_seconds();
        let est_settle = model.settling_time(0.02).as_seconds();
        let mut dt = est_delay / 100.0;
        if model.zeta().is_finite() {
            // Resolve the oscillation: ≥ ~50 samples per radian period.
            dt = dt.min(model.omega_n().period_time().as_seconds() / 50.0);
        }
        let mut t_stop = 3.0 * est_settle + 4.0 * est_delay;

        for _ in 0..=MAX_HORIZON_DOUBLINGS {
            let wave = self.run(tree, node, dt, t_stop);
            if (wave.last_value() - STEP_V).abs() <= SETTLE_TOL * STEP_V
                && wave.try_settling_time(STEP_V, 0.1).is_ok()
            {
                return self.refine(tree, node, dt, t_stop, wave);
            }
            t_stop *= 2.0;
        }
        Err(OracleError::DidNotSettle { horizon_s: t_stop })
    }

    /// One simulation run with the step coarsened to the budget.
    fn run(&self, tree: &RlcTree, node: NodeId, dt: f64, t_stop: f64) -> Waveform {
        let dt = dt.max(t_stop / self.max_steps as f64);
        let options = SimOptions::new(Time::from_seconds(dt), Time::from_seconds(t_stop));
        let mut waves = simulate(tree, &Source::step(STEP_V), &options, &[node]);
        waves.swap_remove(0)
    }

    /// Accepts the measurement once halving the step stops moving the 50%
    /// delay by more than `convergence` (relative).
    fn refine(
        &self,
        tree: &RlcTree,
        node: NodeId,
        mut dt: f64,
        t_stop: f64,
        mut wave: Waveform,
    ) -> Result<OracleMeasurement, OracleError> {
        let mut delay = wave.try_delay_50(STEP_V)?.as_seconds();
        for _ in 0..MAX_REFINEMENTS {
            // Once the budget forces the same effective step, stop.
            if dt / 2.0 <= t_stop / self.max_steps as f64 {
                break;
            }
            let finer = self.run(tree, node, dt / 2.0, t_stop);
            let finer_delay = finer.try_delay_50(STEP_V)?.as_seconds();
            let moved = (finer_delay - delay).abs() / finer_delay.max(f64::MIN_POSITIVE);
            dt /= 2.0;
            wave = finer;
            delay = finer_delay;
            if moved <= self.convergence {
                break;
            }
        }
        Ok(OracleMeasurement {
            delay_50: wave.try_delay_50(STEP_V)?,
            rise_time: wave.try_rise_time_10_90(STEP_V)?,
            overshoot: wave.try_overshoot_fraction(STEP_V)?,
            settling: wave.try_settling_time(STEP_V, 0.1)?,
            v_final: wave.last_value(),
            steps: wave.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_tree::{topology, RlcSection, RlcTree};
    use rlc_units::{Capacitance, Inductance, Resistance};

    fn s(r: f64, l_nh: f64, c_pf: f64) -> RlcSection {
        RlcSection::new(
            Resistance::from_ohms(r),
            Inductance::from_nanohenries(l_nh),
            Capacitance::from_picofarads(c_pf),
        )
    }

    #[test]
    fn rc_line_matches_closed_form_elmore() {
        // One RC section: exact 50% delay is τ·ln2.
        let (tree, sink) = topology::single_line(1, s(100.0, 0.0, 1.0));
        let m = Oracle::with_max_steps(50_000).measure(&tree, sink).unwrap();
        let tau = 100.0 * 1e-12;
        let exact = tau * core::f64::consts::LN_2;
        let err = (m.delay_50.as_seconds() - exact).abs() / exact;
        assert!(err < 5e-3, "relative error {err}");
        assert_eq!(m.overshoot, 0.0, "RC responses are monotone");
        assert!((m.v_final - 1.0).abs() < 5e-3);
    }

    #[test]
    fn underdamped_single_section_matches_eq_39_overshoot() {
        // R=10, L=5n, C=0.5p → ζ = (R/2)√(C/L) = 0.05; strongly ringing.
        let (tree, sink) = topology::single_line(1, s(10.0, 5.0, 0.5));
        let model = SecondOrderModel::at_node(&tree, sink);
        assert!(model.is_underdamped());
        let m = Oracle::with_max_steps(100_000)
            .measure(&tree, sink)
            .unwrap();
        let expect = model.max_overshoot().unwrap();
        assert!(
            (m.overshoot - expect).abs() < 0.02,
            "overshoot {} vs eq. 39 {expect}",
            m.overshoot
        );
        assert!(m.settling > m.delay_50);
    }

    #[test]
    fn no_dynamics_is_typed() {
        let mut tree = RlcTree::new();
        let node = tree.add_root_section(RlcSection::zero());
        assert_eq!(
            Oracle::default().measure(&tree, node),
            Err(OracleError::NoDynamics)
        );
    }

    #[test]
    fn measurement_is_deterministic() {
        let (tree, sink) = topology::single_line(4, s(25.0, 2.0, 0.4));
        let oracle = Oracle::with_max_steps(40_000);
        assert_eq!(
            oracle.measure(&tree, sink).unwrap(),
            oracle.measure(&tree, sink).unwrap()
        );
    }
}
