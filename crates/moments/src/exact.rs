//! Exact transfer-function moments of arbitrary order for RLC trees.
//!
//! The voltage transfer function at node `i` expands as
//! `H_i(s) = Σ_k m_k(i)·s^k` with `m_0 = 1` (paper eq. 11). In the Laplace
//! domain the tree satisfies
//!
//! ```text
//! V_i(s) = V_in(s) − Σ_{b ∈ path(i)} (R_b + s·L_b) · I_b(s)
//! I_b(s) = Σ_{j ∈ subtree(b)} C_j · s · V_j(s)
//! ```
//!
//! Matching powers of `s` gives the recursion (cf. Ratzlaff's RICE):
//!
//! ```text
//! m_k(i) = − Σ_{b ∈ path(i)} [ R_b·J_b^{k} + L_b·J_b^{k−1} ]
//! J_b^{k} = Σ_{j ∈ subtree(b)} C_j · m_{k−1}(j)
//! ```
//!
//! Each order costs two tree passes (one postorder accumulation of `J`, one
//! preorder prefix walk), so `q` moments at **all** nodes cost O(q·n).
//!
//! The first moment reproduces the Elmore sum, `m_1(i) = −T_RC(i)`, and the
//! second moment makes precise what the paper's eq. (28) approximation drops:
//! `m_2(i) = Σ_b R_b·Σ_j C_j·T_RC(j)  − T_LC(i)` versus the approximation
//! `m̂_2(i) = T_RC(i)² − T_LC(i)`.

use rlc_tree::{NodeId, RlcTree};

/// Exact transfer-function moments at every node of a tree.
///
/// Moment `k` carries units of seconds^k; values are stored as raw `f64`
/// in those units (typed wrappers stop at order 2 — see
/// [`rlc_units::TimeSquared`]).
///
/// # Examples
///
/// ```
/// use rlc_tree::{RlcSection, topology};
/// use rlc_units::{Resistance, Inductance, Capacitance};
/// use rlc_moments::transfer_moments;
///
/// // Single RLC section: H(s) = 1/(1 + sRC + s²LC)
/// // → m1 = −RC, m2 = (RC)² − LC.
/// let (tree, node) = topology::single_line(1, RlcSection::new(
///     Resistance::from_ohms(2.0),
///     Inductance::from_henries(3.0),
///     Capacitance::from_farads(5.0),
/// ));
/// let m = transfer_moments(&tree, 2);
/// let at = m.at(node);
/// assert_eq!(at[0], 1.0);
/// assert_eq!(at[1], -10.0);          // −RC
/// assert_eq!(at[2], 100.0 - 15.0);   // (RC)² − LC
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransferMoments {
    /// `data[node][k]` = m_k at that node; `data[node][0] == 1`.
    data: Vec<Vec<f64>>,
    order: usize,
}

impl TransferMoments {
    /// The moments `[m_0, m_1, …, m_q]` at node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` does not belong to the tree these moments were computed
    /// for.
    pub fn at(&self, i: NodeId) -> &[f64] {
        &self.data[i.index()]
    }

    /// The highest moment order `q` computed.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if computed for an empty tree.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Computes exact moments `m_0 … m_q` at all nodes of `tree` in O(q·n).
///
/// See the module docs for the recursion. `order` is the highest moment
/// index `q`; `order = 0` returns just the trivial `m_0 = 1`.
pub fn transfer_moments(tree: &RlcTree, order: usize) -> TransferMoments {
    let n = tree.len();
    let postorder = tree.postorder();
    let preorder = tree.preorder();

    let mut data: Vec<Vec<f64>> = vec![Vec::with_capacity(order + 1); n];
    for row in &mut data {
        row.push(1.0); // m_0
    }

    // J_prev[b] = J_b^{k−1} = Σ_{j∈sub(b)} C_j·m_{k−2}(j); zero when k = 1.
    let mut j_prev = vec![0.0f64; n];
    let mut m_prev: Vec<f64> = vec![1.0; n]; // m_{k−1} at all nodes

    for _k in 1..=order {
        // Postorder: J_b^{k} = Σ_{j∈subtree(b)} C_j·m_{k−1}(j).
        let mut j_cur = vec![0.0f64; n];
        for &id in &postorder {
            let mut acc = tree.section(id).capacitance().as_farads() * m_prev[id.index()];
            for &child in tree.children(id) {
                acc += j_cur[child.index()];
            }
            j_cur[id.index()] = acc;
        }
        // Preorder: m_k(i) = m_k(parent) − R_i·J_i^{k} − L_i·J_i^{k−1}.
        let mut m_cur = vec![0.0f64; n];
        for &id in &preorder {
            let parent_m = match tree.parent(id) {
                Some(p) => m_cur[p.index()],
                None => 0.0,
            };
            let section = tree.section(id);
            m_cur[id.index()] = parent_m
                - section.resistance().as_ohms() * j_cur[id.index()]
                - section.inductance().as_henries() * j_prev[id.index()];
        }
        for (row, &m) in data.iter_mut().zip(&m_cur) {
            row.push(m);
        }
        j_prev = j_cur;
        m_prev = m_cur;
    }

    TransferMoments { data, order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree_sums;
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
    fn order_zero_is_trivial() {
        let (tree, node) = topology::single_line(3, s(1.0, 1.0, 1.0));
        let m = transfer_moments(&tree, 0);
        assert_eq!(m.order(), 0);
        assert_eq!(m.at(node), &[1.0]);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn single_rc_section_geometric_moments() {
        // H = 1/(1+sτ) → m_k = (−τ)^k.
        let (tree, node) = topology::single_line(1, s(2.0, 0.0, 3.0));
        let tau = 6.0;
        let m = transfer_moments(&tree, 5);
        for k in 0..=5 {
            let expect = (-tau_pow(tau, k)).abs() * if k % 2 == 0 { 1.0 } else { -1.0 };
            assert!(
                (m.at(node)[k] - expect).abs() < 1e-9 * expect.abs().max(1.0),
                "k={k}: {} vs {expect}",
                m.at(node)[k]
            );
        }
        fn tau_pow(tau: f64, k: usize) -> f64 {
            tau.powi(k as i32)
        }
    }

    #[test]
    fn single_rlc_section_matches_series_expansion() {
        // H = 1/(1 + as + bs²), a = RC, b = LC.
        // 1/(1+x) = 1 − x + x² − x³ …, x = as + bs²:
        // m1 = −a, m2 = a² − b, m3 = −a³ + 2ab, m4 = a⁴ − 3a²b + b².
        let (r, l, c) = (2.0, 3.0, 5.0);
        let (a, b) = (r * c, l * c);
        let (tree, node) = topology::single_line(1, s(r, l, c));
        let m = transfer_moments(&tree, 4);
        let at = m.at(node);
        assert!((at[1] + a).abs() < 1e-12);
        assert!((at[2] - (a * a - b)).abs() < 1e-9);
        assert!((at[3] - (-a * a * a + 2.0 * a * b)).abs() < 1e-6);
        assert!((at[4] - (a.powi(4) - 3.0 * a * a * b + b * b)).abs() < 1e-3);
    }

    #[test]
    fn first_moment_is_negative_elmore_sum() {
        let (tree, _) = topology::fig5_with(|k| s(k as f64, 0.5 * k as f64, 0.25 * k as f64));
        let sums = tree_sums(&tree);
        let m = transfer_moments(&tree, 1);
        for id in tree.node_ids() {
            assert!(
                (m.at(id)[1] + sums.rc(id).as_seconds()).abs() < 1e-9,
                "m1 != -T_RC at {id}"
            );
        }
    }

    #[test]
    fn second_moment_for_balanced_tree_vs_ladder() {
        // A balanced binary tree is equivalent to a ladder (paper Fig. 10).
        // Check m2 at a sink of the tree equals m2 at the end of the
        // equivalent 2-section ladder with halved R/L and doubled C.
        let base = s(8.0, 4.0, 2.0);
        let mut tree = rlc_tree::RlcTree::new();
        let root = tree.add_root_section(base);
        let sink_a = tree.add_section(root, base);
        let _sink_b = tree.add_section(root, base);
        let m_tree = transfer_moments(&tree, 3);

        // Equivalent ladder: level-2 parallel pair → R/2, L/2, 2C.
        let mut ladder = rlc_tree::RlcTree::new();
        let l1 = ladder.add_root_section(base);
        let l2 = ladder.add_section(l1, s(4.0, 2.0, 4.0));
        let m_ladder = transfer_moments(&ladder, 3);

        for k in 0..=3 {
            assert!(
                (m_tree.at(sink_a)[k] - m_ladder.at(l2)[k]).abs()
                    < 1e-9 * m_ladder.at(l2)[k].abs().max(1.0),
                "k={k}"
            );
        }
    }

    #[test]
    fn paper_eq28_approximation_is_exact_for_single_section() {
        // m̂2 = T_RC² − T_LC equals exact m2 when there is one section.
        let (tree, node) = topology::single_line(1, s(7.0, 11.0, 13.0));
        let sums = tree_sums(&tree);
        let m = transfer_moments(&tree, 2);
        let approx = sums.rc(node).as_seconds().powi(2) - sums.lc(node).as_seconds_squared();
        assert!((m.at(node)[2] - approx).abs() < 1e-9);
    }

    #[test]
    fn paper_eq28_approximation_differs_for_chains() {
        // For a 2-section line the approximation overestimates |m2|'s RC
        // part: T_RC² ≥ Σ R·Σ C·T_RC term. Just check they differ.
        let (tree, sink) = topology::single_line(2, s(1.0, 1.0, 1.0));
        let sums = tree_sums(&tree);
        let m = transfer_moments(&tree, 2);
        let approx = sums.rc(sink).as_seconds().powi(2) - sums.lc(sink).as_seconds_squared();
        assert!((m.at(sink)[2] - approx).abs() > 1e-6);
    }

    #[test]
    #[allow(
        clippy::needless_range_loop,
        reason = "k is the moment order, not just an index"
    )]
    fn moments_alternate_sign_for_rc_trees() {
        // For RC trees all poles are real negative → moments alternate in
        // sign (m_k ~ (−1)^k positive magnitude).
        let tree = topology::balanced_tree(4, 2, s(3.0, 0.0, 2.0));
        let m = transfer_moments(&tree, 4);
        for id in tree.node_ids() {
            let at = m.at(id);
            for k in 0..=4 {
                let expect_sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                assert!(
                    at[k] * expect_sign > 0.0,
                    "node {id} moment {k} has wrong sign: {}",
                    at[k]
                );
            }
        }
    }

    #[test]
    fn source_adjacent_nodes_have_smaller_moment_magnitudes() {
        let (tree, sink) = topology::single_line(4, s(1.0, 1.0, 1.0));
        let m = transfer_moments(&tree, 1);
        let root = tree.roots()[0];
        assert!(m.at(root)[1].abs() < m.at(sink)[1].abs());
    }

    #[test]
    fn empty_tree_is_empty() {
        let m = transfer_moments(&rlc_tree::RlcTree::new(), 3);
        assert!(m.is_empty());
    }

    #[test]
    fn moments_scale_with_time_units() {
        // Scaling all R by α and C by 1/α leaves m1 invariant; scaling C by β
        // scales m1 by β.
        let base = s(2.0, 1.0, 3.0);
        let (t1, n1) = topology::single_line(3, base);
        let (t2, n2) = topology::single_line(
            3,
            RlcSection::new(
                Resistance::from_ohms(2.0),
                Inductance::from_henries(1.0),
                Capacitance::from_farads(6.0),
            ),
        );
        let m1 = transfer_moments(&t1, 1);
        let m2 = transfer_moments(&t2, 1);
        assert!((m2.at(n2)[1] - 2.0 * m1.at(n1)[1]).abs() < 1e-9);
    }
}
