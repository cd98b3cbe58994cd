//! The O(n)-per-step tree-structured transient solver.
//!
//! Trapezoidal (or backward-Euler) companion models turn each time step
//! into a purely resistive network with the same tree topology: every
//! section becomes a conductance `G_b` between parent and child nodes with
//! a parallel current source, and every node capacitor becomes a
//! conductance to ground with a current source. A resistive *tree* is
//! solved exactly in O(n):
//!
//! 1. **Upward (leaf→root) pass** — fold every subtree into its Norton
//!    equivalent `i = A + B·v_parent` as seen from its parent node.
//! 2. **Downward (root→leaf) pass** — with the source voltage known,
//!    propagate node voltages and recover branch currents.
//!
//! Trapezoidal integration is A-stable and second-order accurate, the
//! standard choice for SPICE-class transient analysis; backward Euler is
//! provided for damping numerical ringing and for cross-checks.

use rlc_tree::{NodeId, RlcTree};
use rlc_units::Time;

use crate::{Source, Waveform};

/// Numerical integration scheme for the transient solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integration {
    /// Trapezoidal rule: A-stable, second-order accurate (SPICE default).
    #[default]
    Trapezoidal,
    /// Backward Euler: L-stable, first-order; damps numerical oscillation.
    BackwardEuler,
}

/// Options controlling a transient simulation.
///
/// # Examples
///
/// ```
/// use rlc_sim::{Integration, SimOptions};
/// use rlc_units::Time;
///
/// let options = SimOptions::new(Time::from_picoseconds(1.0), Time::from_nanoseconds(5.0))
///     .with_integration(Integration::BackwardEuler);
/// assert_eq!(options.steps(), 5000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    dt: Time,
    t_stop: Time,
    integration: Integration,
}

impl SimOptions {
    /// Creates options with the given time step and stop time, trapezoidal
    /// integration.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite, or `t_stop < dt`.
    pub fn new(dt: Time, t_stop: Time) -> Self {
        assert!(
            dt.is_finite() && dt.as_seconds() > 0.0,
            "time step must be positive and finite, got {dt}"
        );
        assert!(
            t_stop.is_finite() && t_stop >= dt,
            "stop time must be at least one step, got {t_stop}"
        );
        Self {
            dt,
            t_stop,
            integration: Integration::Trapezoidal,
        }
    }

    /// Selects the integration scheme.
    pub fn with_integration(mut self, integration: Integration) -> Self {
        self.integration = integration;
        self
    }

    /// The time step.
    pub fn dt(&self) -> Time {
        self.dt
    }

    /// The stop time.
    pub fn t_stop(&self) -> Time {
        self.t_stop
    }

    /// The integration scheme.
    pub fn integration(&self) -> Integration {
        self.integration
    }

    /// Number of steps the simulation will take.
    pub fn steps(&self) -> usize {
        (self.t_stop.as_seconds() / self.dt.as_seconds()).ceil() as usize
    }
}

/// Effective series resistance substituted for exactly-zero-impedance
/// sections, which would otherwise produce an infinite companion
/// conductance. Far below any physical wire resistance.
pub(crate) const ZERO_IMPEDANCE_OHMS: f64 = 1e-9;

/// Conductance used to pin capacitor-bearing nodes to their initial
/// voltage during consistent initialization.
pub(crate) const PIN_CONDUCTANCE: f64 = 1e12;

/// Circuit state at `t = 0⁺`, consistent with the input having just jumped
/// to `u0` while every capacitor still holds 0 V and every inductor still
/// carries 0 A.
///
/// Without this, an ideal step input shifts the whole trapezoidal solution
/// by `h/2` (the first step would average the pre- and post-jump input),
/// which is exactly the kind of systematic bias that would corrupt
/// delay-error measurements against the closed-form model.
#[derive(Debug, Clone)]
pub(crate) struct InitialState {
    pub v: Vec<f64>,
    pub i_br: Vec<f64>,
    pub v_l: Vec<f64>,
    pub i_c: Vec<f64>,
}

pub(crate) fn consistent_initial_state(tree: &RlcTree, u0: f64) -> InitialState {
    let n = tree.len();
    // Resistive network at 0⁺: L>0 branches are opens carrying 0 A; L=0
    // branches are resistors; C>0 nodes are pinned to 0 V.
    let mut g = vec![0.0f64; n];
    let mut pin = vec![0.0f64; n];
    for id in tree.node_ids() {
        let s = tree.section(id);
        let idx = id.index();
        if s.inductance().as_henries() == 0.0 {
            let r = s.resistance().as_ohms().max(ZERO_IMPEDANCE_OHMS);
            g[idx] = 1.0 / r;
        }
        if s.capacitance().as_farads() > 0.0 {
            pin[idx] = PIN_CONDUCTANCE;
        }
    }
    let mut fold_a = vec![0.0f64; n];
    let mut fold_b = vec![0.0f64; n];
    let mut fold_k = vec![0.0f64; n];
    let mut fold_d = vec![0.0f64; n];
    for id in tree.postorder() {
        let idx = id.index();
        let mut d = g[idx] + pin[idx];
        let mut k = 0.0;
        for &child in tree.children(id) {
            d += fold_b[child.index()];
            k -= fold_a[child.index()];
        }
        if d == 0.0 {
            // Fully floating subtree: define its voltage as 0.
            d = 1.0;
            k = 0.0;
        }
        fold_d[idx] = d;
        fold_k[idx] = k;
        fold_a[idx] = -g[idx] * k / d;
        fold_b[idx] = g[idx] * (d - g[idx]) / d;
    }
    let mut v = vec![0.0f64; n];
    let mut i_br = vec![0.0f64; n];
    let mut v_l = vec![0.0f64; n];
    for id in tree.preorder() {
        let idx = id.index();
        let v_parent = match tree.parent(id) {
            Some(p) => v[p.index()],
            None => u0,
        };
        let v_new = (g[idx] * v_parent + fold_k[idx]) / fold_d[idx];
        v[idx] = v_new;
        let s = tree.section(id);
        if s.inductance().as_henries() == 0.0 {
            i_br[idx] = g[idx] * (v_parent - v_new);
        } else {
            // Inductor current cannot jump; the step lands across L.
            i_br[idx] = 0.0;
            v_l[idx] = v_parent - v_new;
        }
    }
    let mut i_c = vec![0.0f64; n];
    for id in tree.node_ids() {
        let idx = id.index();
        if tree.section(id).capacitance().as_farads() > 0.0 {
            let mut into_node = i_br[idx];
            for &child in tree.children(id) {
                into_node -= i_br[child.index()];
            }
            i_c[idx] = into_node;
        }
    }
    InitialState { v, i_br, v_l, i_c }
}

/// The input value "just after" `t = 0`, used for consistent
/// initialization: equals the post-jump value for step sources and 0 for
/// sources that rise continuously.
pub(crate) fn input_at_zero_plus(source: &Source) -> f64 {
    source.value_at(Time::from_seconds(f64::MIN_POSITIVE))
}

/// Simulates `tree` driven by `source`, recording waveforms at `observe`.
///
/// Runs in O(sections) per time step and O(steps·observed) memory. Node
/// voltages start from rest (0 V).
///
/// # Panics
///
/// Panics if any observed node is out of range, or the tree is empty.
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn simulate(
    tree: &RlcTree,
    source: &Source,
    options: &SimOptions,
    observe: &[NodeId],
) -> Vec<Waveform> {
    assert!(!tree.is_empty(), "cannot simulate an empty tree");
    for &id in observe {
        assert!(
            id.index() < tree.len(),
            "observed node {id} is not in the tree"
        );
    }
    let n = tree.len();
    let h = options.dt.as_seconds();
    let trapezoidal = options.integration == Integration::Trapezoidal;

    // Precomputed per-section companion constants.
    let mut g_branch = vec![0.0f64; n]; // branch conductance
    let mut l_factor = vec![0.0f64; n]; // 2L/h (trap) or L/h (BE)
    let mut r_series = vec![0.0f64; n];
    let mut g_cap = vec![0.0f64; n]; // 2C/h (trap) or C/h (BE)
    for id in tree.node_ids() {
        let s = tree.section(id);
        let mut r = s.resistance().as_ohms();
        let l = s.inductance().as_henries();
        let c = s.capacitance().as_farads();
        if r == 0.0 && l == 0.0 {
            r = ZERO_IMPEDANCE_OHMS;
        }
        let lf = if trapezoidal { 2.0 * l / h } else { l / h };
        let i = id.index();
        g_branch[i] = 1.0 / (r + lf);
        l_factor[i] = lf;
        r_series[i] = r;
        g_cap[i] = if trapezoidal { 2.0 * c / h } else { c / h };
    }

    let postorder = tree.postorder();
    let preorder = tree.preorder();

    // Dynamic state, initialized consistently with the input at t = 0⁺.
    let init = consistent_initial_state(tree, input_at_zero_plus(source));
    let mut v = init.v; // node voltages
    let mut i_br = init.i_br; // branch currents
                              // Inductor-voltage and capacitor-current histories are trapezoidal
                              // companion state; backward Euler's companions use only (v, i).
    let mut v_l = if trapezoidal { init.v_l } else { vec![0.0; n] };
    let mut i_c = if trapezoidal { init.i_c } else { vec![0.0; n] };

    // Scratch buffers for the two passes.
    let mut i_src = vec![0.0f64; n];
    let mut cap_src = vec![0.0f64; n];
    let mut fold_a = vec![0.0f64; n];
    let mut fold_b = vec![0.0f64; n];
    let mut fold_k = vec![0.0f64; n];
    let mut fold_d = vec![0.0f64; n];

    let steps = options.steps();
    let mut recorded: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); observe.len()];
    let mut times: Vec<Time> = Vec::with_capacity(steps + 1);
    times.push(Time::ZERO);
    for (slot, &id) in observe.iter().enumerate() {
        recorded[slot].push(v[id.index()]);
    }

    for step in 1..=steps {
        let t_next = Time::from_seconds(step as f64 * h);
        let u = source.value_at(t_next);

        // Companion sources from the previous state.
        for idx in 0..n {
            i_src[idx] = g_branch[idx] * (l_factor[idx] * i_br[idx] + v_l[idx]);
            cap_src[idx] = g_cap[idx] * v[idx] + i_c[idx];
        }

        // Upward pass: Norton-fold subtrees.
        for &id in &postorder {
            let idx = id.index();
            let mut d = g_branch[idx] + g_cap[idx];
            let mut k = i_src[idx] + cap_src[idx];
            for &child in tree.children(id) {
                d += fold_b[child.index()];
                k -= fold_a[child.index()];
            }
            fold_d[idx] = d;
            fold_k[idx] = k;
            fold_a[idx] = i_src[idx] - g_branch[idx] * k / d;
            fold_b[idx] = g_branch[idx] * (d - g_branch[idx]) / d;
        }

        // Downward pass: propagate voltages, update state.
        for &id in &preorder {
            let idx = id.index();
            let v_parent = match tree.parent(id) {
                Some(p) => v[p.index()],
                None => u,
            };
            let v_new = (g_branch[idx] * v_parent + fold_k[idx]) / fold_d[idx];
            let i_new = g_branch[idx] * (v_parent - v_new) + i_src[idx];
            if trapezoidal {
                v_l[idx] = (v_parent - v_new) - r_series[idx] * i_new;
                i_c[idx] = g_cap[idx] * v_new - cap_src[idx];
            }
            v[idx] = v_new;
            i_br[idx] = i_new;
        }

        times.push(t_next);
        for (slot, &id) in observe.iter().enumerate() {
            recorded[slot].push(v[id.index()]);
        }
    }

    recorded
        .into_iter()
        .map(|values| Waveform::new(times.clone(), values))
        .collect()
}

/// Simulates `tree` and returns a waveform for **every** node, in arena
/// order. Convenience wrapper over [`simulate`]; memory is
/// O(steps·sections).
///
/// # Panics
///
/// Panics if the tree is empty.
pub fn simulate_all(tree: &RlcTree, source: &Source, options: &SimOptions) -> Vec<Waveform> {
    let all: Vec<NodeId> = tree.node_ids().collect();
    simulate(tree, source, options, &all)
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

    /// Exact step response of a single RLC section (second-order system).
    fn exact_single_section(r: f64, l: f64, c: f64, t: f64) -> f64 {
        use eed::SecondOrderModel;
        let m = SecondOrderModel::from_section(&s(r, l, c));
        m.unit_step(Time::from_seconds(t))
    }

    #[test]
    fn single_rc_section_matches_exponential() {
        // τ = 1 s; dt = 1 ms → trapezoidal error ≪ 1e-5.
        let (tree, node) = topology::single_line(1, s(1.0, 0.0, 1.0));
        let options = SimOptions::new(Time::from_seconds(1e-3), Time::from_seconds(5.0));
        let w = &simulate(&tree, &Source::step(1.0), &options, &[node])[0];
        for &t in &[0.5f64, 1.0, 2.0, 4.0] {
            let exact = 1.0 - (-t).exp();
            let got = w.sample_at(Time::from_seconds(t));
            assert!((got - exact).abs() < 1e-6, "t={t}: {got} vs {exact}");
        }
    }

    #[test]
    fn single_rlc_section_matches_closed_form_all_regimes() {
        for (r, l, c) in [(0.6, 1.0, 1.0), (2.0, 1.0, 1.0), (5.0, 1.0, 1.0)] {
            let (tree, node) = topology::single_line(1, s(r, l, c));
            let options = SimOptions::new(Time::from_seconds(2e-3), Time::from_seconds(30.0));
            let w = &simulate(&tree, &Source::step(1.0), &options, &[node])[0];
            for &t in &[0.5, 1.5, 3.0, 8.0, 20.0] {
                let exact = exact_single_section(r, l, c, t);
                let got = w.sample_at(Time::from_seconds(t));
                assert!((got - exact).abs() < 5e-5, "R={r}: t={t}: {got} vs {exact}");
            }
        }
    }

    #[test]
    fn all_nodes_settle_to_supply() {
        let (tree, _) = topology::fig5(s(30.0, 2e-9, 0.4e-12));
        let options = SimOptions::new(Time::from_picoseconds(1.0), Time::from_nanoseconds(20.0));
        let waves = simulate_all(&tree, &Source::step(1.8), &options);
        assert_eq!(waves.len(), tree.len());
        for (i, w) in waves.iter().enumerate() {
            assert!(
                (w.last_value() - 1.8).abs() < 1e-4,
                "node {i} settled to {}",
                w.last_value()
            );
        }
    }

    #[test]
    fn dc_path_resistance_is_irrelevant_at_steady_state() {
        // Even a strongly asymmetric tree settles every node to Vdd: no DC
        // current flows into capacitors.
        let tree = topology::asymmetric_tree(4, 4.0, s(50.0, 1e-9, 0.3e-12));
        let options = SimOptions::new(Time::from_picoseconds(2.0), Time::from_nanoseconds(60.0));
        let waves = simulate_all(&tree, &Source::step(1.0), &options);
        for w in &waves {
            assert!((w.last_value() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn backward_euler_and_trapezoidal_agree_when_converged() {
        let (tree, sink) = topology::single_line(3, s(20.0, 1e-9, 0.3e-12));
        let fine = Time::from_femtoseconds(50.0);
        let opts_tr = SimOptions::new(fine, Time::from_nanoseconds(3.0));
        let opts_be = SimOptions::new(fine, Time::from_nanoseconds(3.0))
            .with_integration(Integration::BackwardEuler);
        let w_tr = &simulate(&tree, &Source::step(1.0), &opts_tr, &[sink])[0];
        let w_be = &simulate(&tree, &Source::step(1.0), &opts_be, &[sink])[0];
        assert!(w_tr.max_abs_difference(w_be) < 5e-3);
    }

    #[test]
    fn underdamped_tree_rings_in_simulation() {
        // Low resistance + high inductance → visible overshoot.
        let (tree, sink) = topology::single_line(2, s(5.0, 10e-9, 0.5e-12));
        let options = SimOptions::new(Time::from_picoseconds(0.5), Time::from_nanoseconds(10.0));
        let w = &simulate(&tree, &Source::step(1.0), &options, &[sink])[0];
        assert!(
            w.overshoot_fraction(1.0) > 0.2,
            "expected strong ringing, got {}",
            w.overshoot_fraction(1.0)
        );
        // And it settles eventually.
        assert!(w.settling_time(1.0, 0.1).is_some());
    }

    #[test]
    fn overdamped_tree_is_monotone() {
        let (tree, sink) = topology::single_line(3, s(200.0, 0.1e-9, 0.5e-12));
        let options = SimOptions::new(Time::from_picoseconds(1.0), Time::from_nanoseconds(20.0));
        let w = &simulate(&tree, &Source::step(1.0), &options, &[sink])[0];
        assert!(w.overshoot_fraction(1.0) < 1e-6);
        for pair in w.values().windows(2) {
            assert!(pair[1] >= pair[0] - 1e-9, "response must be monotone");
        }
    }

    #[test]
    fn balanced_tree_sinks_are_identical() {
        let tree = topology::balanced_tree(3, 2, s(25.0, 3e-9, 0.4e-12));
        let sinks: Vec<NodeId> = tree.leaves().collect();
        let options = SimOptions::new(Time::from_picoseconds(1.0), Time::from_nanoseconds(5.0));
        let waves = simulate(&tree, &Source::step(1.0), &options, &sinks);
        for w in &waves[1..] {
            assert!(waves[0].max_abs_difference(w) < 1e-12);
        }
    }

    #[test]
    fn balanced_tree_equals_equivalent_ladder() {
        // Paper Fig. 10: a balanced tree is equivalent to a ladder with the
        // parallel sections merged (R/2, L/2, 2C per level for binary).
        let base = s(20.0, 2e-9, 0.3e-12);
        let tree = topology::balanced_tree(3, 2, base);
        let sink = tree.leaves().next().unwrap();

        let mut ladder = rlc_tree::RlcTree::new();
        let l1 = ladder.add_root_section(base);
        let l2 = ladder.add_section(l1, s(10.0, 1e-9, 0.6e-12));
        let l3 = ladder.add_section(l2, s(5.0, 0.5e-9, 1.2e-12));

        let options = SimOptions::new(Time::from_picoseconds(0.5), Time::from_nanoseconds(5.0));
        let w_tree = &simulate(&tree, &Source::step(1.0), &options, &[sink])[0];
        let w_ladder = &simulate(&ladder, &Source::step(1.0), &options, &[l3])[0];
        assert!(
            w_tree.max_abs_difference(w_ladder) < 1e-9,
            "diff = {}",
            w_tree.max_abs_difference(w_ladder)
        );
    }

    #[test]
    fn zero_impedance_sections_act_as_shorts() {
        // A zero section splicing two real sections ≈ the two sections
        // joined directly.
        let real = s(10.0, 1e-9, 0.2e-12);
        let mut spliced = rlc_tree::RlcTree::new();
        let a = spliced.add_root_section(real);
        let z = spliced.add_section(a, RlcSection::zero());
        let b = spliced.add_section(z, real);

        let (plain, sink) = topology::single_line(2, real);
        let options = SimOptions::new(Time::from_picoseconds(1.0), Time::from_nanoseconds(5.0));
        let w1 = &simulate(&spliced, &Source::step(1.0), &options, &[b])[0];
        let w2 = &simulate(&plain, &Source::step(1.0), &options, &[sink])[0];
        assert!(w1.max_abs_difference(w2) < 1e-5);
    }

    #[test]
    fn ramp_and_exponential_sources_track() {
        let (tree, sink) = topology::single_line(2, s(10.0, 0.5e-9, 0.2e-12));
        let options = SimOptions::new(Time::from_picoseconds(1.0), Time::from_nanoseconds(20.0));
        let slow_ramp = Source::ramp(1.0, Time::from_nanoseconds(10.0));
        let w = &simulate(&tree, &slow_ramp, &options, &[sink])[0];
        // At t = 5 ns the input is at 0.5; a fast tree tracks it closely.
        let mid = w.sample_at(Time::from_nanoseconds(5.0));
        assert!((mid - 0.5).abs() < 0.02, "mid = {mid}");
        assert!((w.last_value() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn waveforms_share_time_axis_with_t0() {
        let (tree, sink) = topology::single_line(1, s(1.0, 0.0, 1.0));
        let options = SimOptions::new(Time::from_seconds(0.5), Time::from_seconds(2.0));
        let w = &simulate(&tree, &Source::step(1.0), &options, &[sink])[0];
        assert_eq!(w.len(), 5); // t = 0, 0.5, 1.0, 1.5, 2.0
        assert_eq!(w.times()[0], Time::ZERO);
        // The t = 0⁺ consistent initialization leaves capacitor nodes within
        // a pin-conductance residue of 0 V.
        assert!(w.values()[0].abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty tree")]
    fn rejects_empty_tree() {
        let tree = rlc_tree::RlcTree::new();
        let options = SimOptions::new(Time::from_seconds(1.0), Time::from_seconds(2.0));
        let _ = simulate(&tree, &Source::step(1.0), &options, &[]);
    }

    #[test]
    #[should_panic(expected = "time step must be positive")]
    fn rejects_bad_dt() {
        let _ = SimOptions::new(Time::ZERO, Time::from_seconds(1.0));
    }
}
