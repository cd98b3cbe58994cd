//! Exact transient simulation of capacitively coupled net groups.
//!
//! A [`CoupledGroup`] is several RLC trees tied together by coupling
//! capacitors. Stacking each net's descriptor system (see [`crate::mna`])
//! into one block-diagonal system and stamping every coupling capacitor
//! `Cc` between global node voltages `p`, `q` into the capacitance matrix —
//!
//! ```text
//! E[p][p] += Cc    E[p][q] −= Cc
//! E[q][q] += Cc    E[q][p] −= Cc
//! ```
//!
//! — gives the exact linear dynamics of the whole group, with one
//! independent ideal source per net. [`simulate_coupled`] integrates it
//! with the same factor-once trapezoidal scheme as [`crate::mna`]; it is
//! the oracle the closed-form crosstalk estimates in `rlc-couple` are
//! differenced against.
//!
//! Because the group is linear and simulated from rest, switching
//! scenarios reduce to source choices: a falling aggressor next to a
//! rising victim is `Source::step(-1)` beside `Source::step(1)` (the
//! coupling caps block DC, so only edges matter), and a quiet victim is
//! `Source::step(0)`.

use rlc_numeric::linalg::Matrix;
use rlc_tree::coupled::CoupledGroup;
use rlc_tree::NodeId;
use rlc_units::Time;

use crate::tree_sim::{input_at_zero_plus, PIN_CONDUCTANCE, ZERO_IMPEDANCE_OHMS};
use crate::{SimOptions, Source, Waveform};

/// Simulates a coupled group with dense trapezoidal MNA, one source per
/// net, recording the `(net, node)` pairs in `observe`.
///
/// Complexity: one O(N³) factorization plus O(N²) per step for
/// `N = 2·Σ sections` — intended for verification-sized groups, like
/// [`crate::mna::simulate_mna`] for single nets.
///
/// # Panics
///
/// Panics if `sources.len()` differs from the group's net count, an
/// observed pair is out of range, or the trapezoidal iteration matrix is
/// singular (not possible for physical groups).
pub fn simulate_coupled(
    group: &CoupledGroup,
    sources: &[Source],
    options: &SimOptions,
    observe: &[(usize, NodeId)],
) -> Vec<Waveform> {
    let nets = group.nets();
    assert_eq!(
        sources.len(),
        nets.len(),
        "need exactly one source per net ({} nets, {} sources)",
        nets.len(),
        sources.len()
    );
    for &(net, node) in observe {
        assert!(net < nets.len(), "observed net {net} is not in the group");
        assert!(
            node.index() < nets[net].tree().len(),
            "observed node {node} is not in net {net}"
        );
    }

    // Block layout: net k's state is [v_0…v_{n_k−1}, i_0…i_{n_k−1}] at
    // offset `state_off[k]`; its voltages also get compact rows
    // `v_off[k]…` in the voltage-only initial solve.
    let mut state_off = Vec::with_capacity(nets.len());
    let mut v_off = Vec::with_capacity(nets.len());
    let mut dim = 0usize;
    let mut nv = 0usize;
    for net in nets {
        state_off.push(dim);
        v_off.push(nv);
        dim += 2 * net.tree().len();
        nv += net.tree().len();
    }
    let vrow = |net: usize, node: NodeId| state_off[net] + node.index();

    // Stacked descriptor system: per-net blocks, then coupling stamps.
    let mut e = Matrix::zeros(dim, dim);
    let mut a = Matrix::zeros(dim, dim);
    // b_cols[k] lists the rows driven by net k's source.
    let mut b_cols: Vec<Vec<usize>> = vec![Vec::new(); nets.len()];
    for (k, net) in nets.iter().enumerate() {
        let tree = net.tree();
        let n = tree.len();
        let off = state_off[k];
        for id in tree.node_ids() {
            let i = id.index();
            let s = tree.section(id);
            e[(off + i, off + i)] = s.capacitance().as_farads();
            a[(off + i, off + n + i)] = 1.0;
            for &c in tree.children(id) {
                a[(off + i, off + n + c.index())] = -1.0;
            }
            e[(off + n + i, off + n + i)] = s.inductance().as_henries();
            a[(off + n + i, off + i)] = -1.0;
            a[(off + n + i, off + n + i)] = -s.resistance().as_ohms();
            match tree.parent(id) {
                Some(p) => a[(off + n + i, off + p.index())] = 1.0,
                None => b_cols[k].push(off + n + i),
            }
        }
    }
    for c in group.couplings() {
        let p = vrow(c.a.net, c.a.node);
        let q = vrow(c.b.net, c.b.node);
        let cc = c.capacitance.as_farads();
        e[(p, p)] += cc;
        e[(q, q)] += cc;
        e[(p, q)] -= cc;
        e[(q, p)] -= cc;
    }

    let h = options.dt().as_seconds();
    let mut m1 = Matrix::zeros(dim, dim);
    let mut m2 = Matrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            let e_term = 2.0 * e[(i, j)] / h;
            m1[(i, j)] = e_term - a[(i, j)];
            m2[(i, j)] = e_term + a[(i, j)];
        }
    }
    let lu = m1
        .lu()
        .expect("trapezoidal iteration matrix of a physical coupled group is nonsingular");

    let u0: Vec<f64> = sources.iter().map(input_at_zero_plus).collect();
    let mut x = initial_state(group, &u0, &v_off, dim, &state_off);

    let steps = options.steps();
    let mut times = Vec::with_capacity(steps + 1);
    let mut recorded: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); observe.len()];
    times.push(Time::ZERO);
    for (slot, &(net, node)) in observe.iter().enumerate() {
        recorded[slot].push(x[vrow(net, node)]);
    }
    let mut u_prev = u0;
    for step in 1..=steps {
        let t_next = Time::from_seconds(step as f64 * h);
        let mut rhs = m2.mul_vec(&x);
        for (k, source) in sources.iter().enumerate() {
            let u_next = source.value_at(t_next);
            for &row in &b_cols[k] {
                rhs[row] += u_prev[k] + u_next;
            }
            u_prev[k] = u_next;
        }
        x = lu.solve(&rhs).expect("factored system solves");
        times.push(t_next);
        for (slot, &(net, node)) in observe.iter().enumerate() {
            recorded[slot].push(x[vrow(net, node)]);
        }
    }
    recorded
        .into_iter()
        .map(|values| Waveform::new(times.clone(), values))
        .collect()
}

/// A consistent state at `t = 0⁺`: grounded and coupling capacitors hold
/// their from-rest voltages (pinned via a large conductance), inductive
/// branches are open, zero-inductance branches are resistive. Mirrors the
/// single-net `consistent_initial_state`, solved densely over the group's
/// node voltages. Falls back to the from-rest zero state if the pinned
/// resistive system is singular (only possible for degenerate groups whose
/// initial state is zero anyway).
fn initial_state(
    group: &CoupledGroup,
    u0: &[f64],
    v_off: &[usize],
    dim: usize,
    state_off: &[usize],
) -> Vec<f64> {
    let nets = group.nets();
    let nv: usize = nets.iter().map(|n| n.tree().len()).sum();
    let mut g = Matrix::zeros(nv, nv);
    let mut z = vec![0.0; nv];
    let mut stamped = vec![false; nv];
    for (k, net) in nets.iter().enumerate() {
        let tree = net.tree();
        for id in tree.node_ids() {
            let row = v_off[k] + id.index();
            let s = tree.section(id);
            if s.capacitance().as_farads() > 0.0 {
                g[(row, row)] += PIN_CONDUCTANCE;
                stamped[row] = true;
            }
            if s.inductance().as_henries() == 0.0 {
                let r = s.resistance().as_ohms().max(ZERO_IMPEDANCE_OHMS);
                let gbr = 1.0 / r;
                g[(row, row)] += gbr;
                stamped[row] = true;
                match tree.parent(id) {
                    Some(p) => {
                        let prow = v_off[k] + p.index();
                        g[(prow, prow)] += gbr;
                        g[(row, prow)] -= gbr;
                        g[(prow, row)] -= gbr;
                        stamped[prow] = true;
                    }
                    None => z[row] += gbr * u0[k],
                }
            }
        }
    }
    for c in group.couplings() {
        let p = v_off[c.a.net] + c.a.node.index();
        let q = v_off[c.b.net] + c.b.node.index();
        g[(p, p)] += PIN_CONDUCTANCE;
        g[(q, q)] += PIN_CONDUCTANCE;
        g[(p, q)] -= PIN_CONDUCTANCE;
        g[(q, p)] -= PIN_CONDUCTANCE;
        stamped[p] = true;
        stamped[q] = true;
    }
    for (row, &s) in stamped.iter().enumerate() {
        if !s {
            g[(row, row)] = 1.0;
        }
    }

    let v = match g.lu().and_then(|lu| lu.solve(&z)) {
        Ok(v) => v,
        Err(_) => vec![0.0; nv],
    };

    let mut x = vec![0.0; dim];
    for (k, net) in nets.iter().enumerate() {
        let tree = net.tree();
        let n = tree.len();
        for id in tree.node_ids() {
            let i = id.index();
            x[state_off[k] + i] = v[v_off[k] + i];
            // Inductive branches start open; zero-L branches carry the
            // resistive current implied by the solved voltages.
            if tree.section(id).inductance().as_henries() == 0.0 {
                let r = tree
                    .section(id)
                    .resistance()
                    .as_ohms()
                    .max(ZERO_IMPEDANCE_OHMS);
                let v_parent = match tree.parent(id) {
                    Some(p) => v[v_off[k] + p.index()],
                    None => u0[k],
                };
                x[state_off[k] + n + i] = (v_parent - v[v_off[k] + i]) / r;
            }
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mna::simulate_mna;
    use crate::simulate;
    use rlc_units::Capacitance;

    fn parse(deck: &str) -> CoupledGroup {
        CoupledGroup::parse(deck).expect("test deck parses")
    }

    fn options() -> SimOptions {
        SimOptions::new(Time::from_picoseconds(1.0), Time::from_nanoseconds(6.0))
    }

    const PAIR: &str = "\
.net v
R1 in n1 25
L1 n1 n2 2n
C1 n2 0 0.5p
R2 n2 n3 25
L2 n3 n4 2n
C2 n4 0 0.5p
.net a
R1 in m1 25
L1 m1 m2 2n
C1 m2 0 0.5p
R2 m2 m3 25
L2 m3 m4 2n
C2 m4 0 0.5p
K1 v.n4 a.m4 0.2p
.end
";

    #[test]
    fn uncoupled_group_matches_single_net_solvers() {
        let deck = "\
.net only
R1 in n1 25
L1 n1 n2 2n
C1 n2 0 0.5p
R2 n2 n3 40
L2 n3 n4 1n
C2 n4 0 0.3p
";
        let group = parse(deck);
        let tree = group.nets()[0].tree();
        let sink = tree.leaves().next().expect("leaf");
        let opts = options();
        let src = Source::step(1.0);
        let coupled = &simulate_coupled(&group, std::slice::from_ref(&src), &opts, &[(0, sink)])[0];
        let mna = &simulate_mna(tree, &src, &opts, &[sink])[0];
        let fast = &simulate(tree, &src, &opts, &[sink])[0];
        assert!(coupled.max_abs_difference(mna) < 1e-10);
        assert!(coupled.max_abs_difference(fast) < 1e-8);
    }

    #[test]
    fn same_direction_switching_on_a_symmetric_pair_is_transparent() {
        // Both nets switch identically, so the coupling cap never sees a
        // voltage difference: waveforms must equal the uncoupled net's.
        let group = parse(PAIR);
        let tree = group.nets()[0].tree();
        let sink = tree.leaves().next().expect("leaf");
        let opts = options();
        let both = [Source::step(1.0), Source::step(1.0)];
        let w = &simulate_coupled(&group, &both, &opts, &[(0, sink)])[0];
        let lone = &simulate(tree, &Source::step(1.0), &opts, &[sink])[0];
        assert!(
            w.max_abs_difference(lone) < 1e-8,
            "diff {}",
            w.max_abs_difference(lone)
        );
    }

    #[test]
    fn opposite_switching_on_a_symmetric_pair_doubles_the_coupling() {
        // With mirror-image drive the far node swings −v, so the coupling
        // cap behaves exactly like a grounded 2·Cc (the Miller worst case).
        let group = parse(PAIR);
        let tree = group.nets()[0].tree();
        let attach = group.couplings()[0].a.node;
        let sink = tree.leaves().next().expect("leaf");
        let opts = options();
        let w = &simulate_coupled(
            &group,
            &[Source::step(1.0), Source::step(-1.0)],
            &opts,
            &[(0, sink)],
        )[0];

        let mut miller = tree.clone();
        let cc = group.couplings()[0].capacitance;
        let sec = miller.section_mut(attach);
        *sec = rlc_tree::RlcSection::new(
            sec.resistance(),
            sec.inductance(),
            sec.capacitance() + Capacitance::from_farads(2.0 * cc.as_farads()),
        );
        let reference = &simulate(&miller, &Source::step(1.0), &opts, &[sink])[0];
        assert!(
            w.max_abs_difference(reference) < 1e-8,
            "diff {}",
            w.max_abs_difference(reference)
        );
    }

    #[test]
    fn quiet_victim_sees_a_noise_bump_that_decays() {
        let group = parse(PAIR);
        let sink = group.nets()[0].tree().leaves().next().expect("leaf");
        let opts = options();
        let w = &simulate_coupled(
            &group,
            &[Source::step(0.0), Source::step(1.0)],
            &opts,
            &[(0, sink)],
        )[0];
        let (_, peak) = w.peak();
        assert!(peak > 0.01, "expected visible crosstalk, peak {peak}");
        assert!(peak < 1.0, "noise cannot exceed the aggressor swing");
        assert!(
            w.last_value().abs() < 1e-3,
            "coupled noise must decay to zero, got {}",
            w.last_value()
        );
    }

    #[test]
    fn linearity_superposes_switching_scenarios() {
        // step(+1)/step(−1) minus step(+1)/step(+1) equals twice the pure
        // crosstalk response 0/step(−1)… exercised as: opposite = same +
        // 2 × (quiet victim with falling aggressor).
        let group = parse(PAIR);
        let sink = group.nets()[0].tree().leaves().next().expect("leaf");
        let opts = options();
        let opposite = &simulate_coupled(
            &group,
            &[Source::step(1.0), Source::step(-1.0)],
            &opts,
            &[(0, sink)],
        )[0];
        let same = &simulate_coupled(
            &group,
            &[Source::step(1.0), Source::step(1.0)],
            &opts,
            &[(0, sink)],
        )[0];
        let quiet_fall = &simulate_coupled(
            &group,
            &[Source::step(0.0), Source::step(-1.0)],
            &opts,
            &[(0, sink)],
        )[0];
        for i in 0..opposite.len() {
            let recomposed = same.values()[i] + 2.0 * quiet_fall.values()[i];
            assert!(
                (opposite.values()[i] - recomposed).abs() < 1e-9,
                "superposition violated at sample {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one source per net")]
    fn source_count_mismatch_panics() {
        let group = parse(PAIR);
        let _ = simulate_coupled(&group, &[Source::step(1.0)], &options(), &[]);
    }
}
