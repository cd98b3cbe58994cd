//! Dense modified-nodal-analysis and state-space cross-check simulators.
//!
//! These are deliberately textbook formulations used to validate the O(n)
//! tree solver (and, transitively, the closed-form models): the same
//! circuit simulated three independent ways must agree.
//!
//! The descriptor system for a tree of `n` sections is
//!
//! ```text
//! E·x' = A·x + B·u,    x = [v_0 … v_{n−1}, i_0 … i_{n−1}]
//!
//! node i:    C_i·v̇_i = i_i − Σ_{children c} i_c
//! branch i:  L_i·i̇_i = v_parent(i) − v_i − R_i·i_i     (v_parent = u at roots)
//! ```
//!
//! [`simulate_mna`] integrates it with the trapezoidal rule, factoring the
//! constant iteration matrix once (O(n³) once, O(n²) per step) — fine for
//! the cross-check-sized circuits it exists for. [`simulate_rk4`] runs
//! classic RK4 on the explicit form `x' = E⁻¹(Ax + Bu)`, which exists when
//! every section has positive `L` and `C`.

use rlc_numeric::linalg::Matrix;
use rlc_tree::{NodeId, RlcTree};
use rlc_units::Time;

use crate::{SimOptions, Source, Waveform};

/// Builds `(E, A, B)` for the descriptor system described in the module
/// docs.
fn descriptor_system(tree: &RlcTree) -> (Matrix, Matrix, Vec<f64>) {
    let n = tree.len();
    let dim = 2 * n;
    let mut e = Matrix::zeros(dim, dim);
    let mut a = Matrix::zeros(dim, dim);
    let mut b = vec![0.0; dim];
    for id in tree.node_ids() {
        let i = id.index();
        let s = tree.section(id);
        // Node equation.
        e[(i, i)] = s.capacitance().as_farads();
        a[(i, n + i)] = 1.0;
        for &c in tree.children(id) {
            a[(i, n + c.index())] = -1.0;
        }
        // Branch equation.
        e[(n + i, n + i)] = s.inductance().as_henries();
        a[(n + i, i)] = -1.0;
        a[(n + i, n + i)] = -s.resistance().as_ohms();
        match tree.parent(id) {
            Some(p) => a[(n + i, p.index())] = 1.0,
            None => b[n + i] = 1.0,
        }
    }
    (e, a, b)
}

/// Simulates `tree` with dense trapezoidal MNA, recording `observe` nodes.
///
/// Complexity: one O(n³) factorization plus O(n²) per step — intended for
/// the small circuits used to cross-validate [`crate::simulate`].
///
/// # Panics
///
/// Panics if the tree is empty, an observed node is out of range, or the
/// trapezoidal iteration matrix is singular (not possible for physical
/// trees with the zero-impedance substitution applied by the caller).
pub fn simulate_mna(
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
    let dim = 2 * n;
    let h = options.dt().as_seconds();
    let (e, a, b) = descriptor_system(tree);

    // M1 = 2E/h − A (factored once);   M2 = 2E/h + A.
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
        .expect("trapezoidal iteration matrix of a physical RLC tree is nonsingular");

    let steps = options.steps();
    // Initialize consistently with the input at t = 0⁺ (see tree_sim).
    let init = crate::tree_sim::consistent_initial_state(
        tree,
        crate::tree_sim::input_at_zero_plus(source),
    );
    let mut x = vec![0.0f64; dim];
    x[..n].copy_from_slice(&init.v);
    x[n..].copy_from_slice(&init.i_br);
    let mut times = Vec::with_capacity(steps + 1);
    let mut recorded: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); observe.len()];
    times.push(Time::ZERO);
    for (slot, &id) in observe.iter().enumerate() {
        recorded[slot].push(x[id.index()]);
    }
    let mut u_prev = crate::tree_sim::input_at_zero_plus(source);
    for step in 1..=steps {
        let t_next = Time::from_seconds(step as f64 * h);
        let u_next = source.value_at(t_next);
        let mut rhs = m2.mul_vec(&x);
        for (r, &bi) in rhs.iter_mut().zip(&b) {
            *r += bi * (u_prev + u_next);
        }
        x = lu.solve(&rhs).expect("factored system solves");
        u_prev = u_next;
        times.push(t_next);
        for (slot, &id) in observe.iter().enumerate() {
            recorded[slot].push(x[id.index()]);
        }
    }
    recorded
        .into_iter()
        .map(|values| Waveform::new(times.clone(), values))
        .collect()
}

/// Simulates `tree` with classic RK4 on the explicit state-space form.
///
/// A discretization-independent cross-check. RK4 is only conditionally
/// stable, so `options.dt()` must resolve the fastest LC mode; the tests
/// pick steps well inside the stability region.
///
/// # Panics
///
/// Panics if the tree is empty, any section has zero inductance or zero
/// capacitance (the explicit form needs `E` invertible), or an observed
/// node is out of range.
pub fn simulate_rk4(
    tree: &RlcTree,
    source: &Source,
    options: &SimOptions,
    observe: &[NodeId],
) -> Vec<Waveform> {
    assert!(!tree.is_empty(), "cannot simulate an empty tree");
    for id in tree.node_ids() {
        let s = tree.section(id);
        assert!(
            s.inductance().as_henries() > 0.0 && s.capacitance().as_farads() > 0.0,
            "RK4 state-space form requires positive L and C on every section \
             (section {id} violates this); use simulate_mna instead"
        );
    }
    for &id in observe {
        assert!(
            id.index() < tree.len(),
            "observed node {id} is not in the tree"
        );
    }
    let n = tree.len();
    let dim = 2 * n;
    let (e, a, b) = descriptor_system(tree);
    // E is diagonal and positive: invert by scaling rows.
    let mut a_ex = Matrix::zeros(dim, dim);
    let mut b_ex = vec![0.0; dim];
    for i in 0..dim {
        let scale = 1.0 / e[(i, i)];
        for j in 0..dim {
            a_ex[(i, j)] = a[(i, j)] * scale;
        }
        b_ex[i] = b[i] * scale;
    }

    let h = options.dt().as_seconds();
    let steps = options.steps();
    let mut x = vec![0.0f64; dim];
    let mut times = Vec::with_capacity(steps + 1);
    let mut recorded: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); observe.len()];
    times.push(Time::ZERO);
    for (slot, &id) in observe.iter().enumerate() {
        recorded[slot].push(x[id.index()]);
    }

    let deriv = |x: &[f64], u: f64, out: &mut Vec<f64>| {
        *out = a_ex.mul_vec(x);
        for (o, &bi) in out.iter_mut().zip(&b_ex) {
            *o += bi * u;
        }
    };

    let mut k1 = Vec::new();
    let mut k2 = Vec::new();
    let mut k3 = Vec::new();
    let mut k4 = Vec::new();
    let mut tmp = vec![0.0; dim];
    for step in 1..=steps {
        let t0 = (step - 1) as f64 * h;
        let u0 = source.value_at(Time::from_seconds(t0));
        let um = source.value_at(Time::from_seconds(t0 + 0.5 * h));
        let u1 = source.value_at(Time::from_seconds(t0 + h));
        deriv(&x, u0, &mut k1);
        for i in 0..dim {
            tmp[i] = x[i] + 0.5 * h * k1[i];
        }
        deriv(&tmp, um, &mut k2);
        for i in 0..dim {
            tmp[i] = x[i] + 0.5 * h * k2[i];
        }
        deriv(&tmp, um, &mut k3);
        for i in 0..dim {
            tmp[i] = x[i] + h * k3[i];
        }
        deriv(&tmp, u1, &mut k4);
        for i in 0..dim {
            x[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        times.push(Time::from_seconds(t0 + h));
        for (slot, &id) in observe.iter().enumerate() {
            recorded[slot].push(x[id.index()]);
        }
    }
    recorded
        .into_iter()
        .map(|values| Waveform::new(times.clone(), values))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
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
    fn mna_matches_tree_solver_exactly() {
        // Same discretization → agreement to solver tolerance.
        let (tree, nodes) = topology::fig5(s(25.0, 4e-9, 0.4e-12));
        let options = SimOptions::new(Time::from_picoseconds(2.0), Time::from_nanoseconds(8.0));
        let src = Source::step(1.0);
        let w_tree = simulate(&tree, &src, &options, &[nodes.n7, nodes.n1]);
        let w_mna = simulate_mna(&tree, &src, &options, &[nodes.n7, nodes.n1]);
        for (a, b) in w_tree.iter().zip(&w_mna) {
            assert!(
                a.max_abs_difference(b) < 1e-8,
                "tree vs MNA diff {}",
                a.max_abs_difference(b)
            );
        }
    }

    #[test]
    fn mna_matches_tree_solver_on_rc_tree() {
        // Zero inductance exercises the algebraic branch rows (L = 0 makes
        // the MNA system a DAE).
        let (tree, sink) = topology::single_line(4, s(100.0, 0.0, 1e-12));
        let options = SimOptions::new(Time::from_picoseconds(5.0), Time::from_nanoseconds(10.0));
        let src = Source::step(1.0);
        let w_tree = &simulate(&tree, &src, &options, &[sink])[0];
        let w_mna = &simulate_mna(&tree, &src, &options, &[sink])[0];
        assert!(w_tree.max_abs_difference(w_mna) < 1e-6);
    }

    #[test]
    fn rk4_confirms_both_implicit_solvers() {
        let (tree, sink) = topology::single_line(3, s(30.0, 2e-9, 0.3e-12));
        // RK4 needs a small step for stability; the implicit solvers do not.
        let opt_rk4 = SimOptions::new(Time::from_femtoseconds(20.0), Time::from_nanoseconds(2.0));
        let opt_imp = SimOptions::new(Time::from_picoseconds(0.2), Time::from_nanoseconds(2.0));
        let src = Source::step(1.0);
        let w_rk4 = &simulate_rk4(&tree, &src, &opt_rk4, &[sink])[0];
        let w_tree = &simulate(&tree, &src, &opt_imp, &[sink])[0];
        assert!(
            w_rk4.max_abs_difference(w_tree) < 1e-3,
            "RK4 vs tree solver diff {}",
            w_rk4.max_abs_difference(w_tree)
        );
    }

    #[test]
    fn mna_handles_exponential_source() {
        let (tree, sink) = topology::single_line(2, s(20.0, 1e-9, 0.2e-12));
        let options = SimOptions::new(Time::from_picoseconds(1.0), Time::from_nanoseconds(10.0));
        let src = Source::exponential(1.0, Time::from_nanoseconds(1.0));
        let w_tree = &simulate(&tree, &src, &options, &[sink])[0];
        let w_mna = &simulate_mna(&tree, &src, &options, &[sink])[0];
        assert!(w_tree.max_abs_difference(w_mna) < 1e-8);
        assert!((w_mna.last_value() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn mna_branching_tree_agreement() {
        let tree = topology::asymmetric_tree(3, 2.5, s(40.0, 3e-9, 0.25e-12));
        let sinks: Vec<NodeId> = tree.leaves().collect();
        let options = SimOptions::new(Time::from_picoseconds(2.0), Time::from_nanoseconds(10.0));
        let src = Source::step(2.5);
        let w_tree = simulate(&tree, &src, &options, &sinks);
        let w_mna = simulate_mna(&tree, &src, &options, &sinks);
        for (a, b) in w_tree.iter().zip(&w_mna) {
            assert!(a.max_abs_difference(b) < 1e-8);
        }
    }

    #[test]
    #[should_panic(expected = "positive L and C")]
    fn rk4_rejects_rc_sections() {
        let (tree, sink) = topology::single_line(1, s(1.0, 0.0, 1.0));
        let options = SimOptions::new(Time::from_seconds(0.01), Time::from_seconds(1.0));
        let _ = simulate_rk4(&tree, &Source::step(1.0), &options, &[sink]);
    }

    #[test]
    #[should_panic(expected = "empty tree")]
    fn mna_rejects_empty_tree() {
        let options = SimOptions::new(Time::from_seconds(0.01), Time::from_seconds(1.0));
        let _ = simulate_mna(&rlc_tree::RlcTree::new(), &Source::step(1.0), &options, &[]);
    }
}
