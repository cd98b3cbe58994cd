//! The paper's two O(n) tree summations.

use rlc_tree::{NodeId, RlcTree};
use rlc_units::{Capacitance, Time, TimeSquared};

/// The per-node tree sums `T_RC` and `T_LC` for every node of a tree.
///
/// `T_RC(i) = Σ_k C_k·R_ki` is the Elmore (Rubinstein–Penfield–Horowitz)
/// time constant at node `i`; `T_LC(i) = Σ_k C_k·L_ki` is the inductive
/// analogue introduced by the paper. Together they define the second-order
/// model `ω_n(i) = 1/√T_LC(i)`, `ζ(i) = T_RC(i)/(2·√T_LC(i))`
/// (paper eqs. 29–30).
///
/// Computed by [`tree_sums`] in O(n); indexed by [`NodeId`].
///
/// # Examples
///
/// ```
/// use rlc_tree::{RlcSection, RlcTree};
/// use rlc_units::{Resistance, Inductance, Capacitance};
/// use rlc_moments::tree_sums;
///
/// let mut tree = RlcTree::new();
/// let n = tree.add_root_section(RlcSection::new(
///     Resistance::from_ohms(100.0),
///     Inductance::from_nanohenries(10.0),
///     Capacitance::from_picofarads(1.0),
/// ));
/// let sums = tree_sums(&tree);
/// assert!((sums.rc(n).as_picoseconds() - 100.0).abs() < 1e-9);
/// assert!((sums.lc(n).as_seconds_squared() - 1.0e-20).abs() < 1e-32);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ElmoreSums {
    pub(crate) rc: Vec<Time>,
    pub(crate) lc: Vec<TimeSquared>,
    pub(crate) downstream_cap: Vec<Capacitance>,
}

impl ElmoreSums {
    /// The Elmore sum `T_RC(i) = Σ_k C_k·R_ki` at node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` does not belong to the tree these sums were computed
    /// for.
    pub fn rc(&self, i: NodeId) -> Time {
        self.rc[i.index()]
    }

    /// The inductive sum `T_LC(i) = Σ_k C_k·L_ki` at node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn lc(&self, i: NodeId) -> TimeSquared {
        self.lc[i.index()]
    }

    /// The total capacitance in the subtree rooted at section `i` — the
    /// `C_i^T` of the Appendix's `Cal_Cap_Loads` pass.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn downstream_capacitance(&self, i: NodeId) -> Capacitance {
        self.downstream_cap[i.index()]
    }

    /// The Elmore sum at raw index `i` — for forest consumers addressing
    /// packed global indices (see
    /// [`forest_sums`](crate::forest_sums)).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn rc_at(&self, i: usize) -> Time {
        self.rc[i]
    }

    /// The inductive sum at raw index `i` (see [`rc_at`](Self::rc_at)).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn lc_at(&self, i: usize) -> TimeSquared {
        self.lc[i]
    }

    /// All `T_RC` values, indexed by node/global index — the raw moment
    /// vector the differential suites compare with `assert_eq!`.
    pub fn rc_values(&self) -> &[Time] {
        &self.rc
    }

    /// All `T_LC` values (see [`rc_values`](Self::rc_values)).
    pub fn lc_values(&self) -> &[TimeSquared] {
        &self.lc
    }

    /// All subtree capacitances (see [`rc_values`](Self::rc_values)).
    pub fn downstream_cap_values(&self) -> &[Capacitance] {
        &self.downstream_cap
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.rc.len()
    }

    /// Returns `true` if computed for an empty tree.
    pub fn is_empty(&self) -> bool {
        self.rc.is_empty()
    }
}

/// Computes [`ElmoreSums`] for every node of `tree` in O(n).
///
/// This is the Appendix algorithm (Figs. 17–18) generalized to arbitrary
/// branching factors:
///
/// 1. **`Cal_Cap_Loads`** — a postorder pass accumulating, for each section
///    `w`, the total capacitance `C_w^T` of its subtree.
/// 2. **`Cal_Summations`** — a preorder pass computing
///    `S(i) = S(parent) + R_i·C_i^T` and `S_L(i) = S_L(parent) + L_i·C_i^T`,
///    which equal the common-path sums `Σ_k C_k·R_ki` and `Σ_k C_k·L_ki`
///    (paper eqs. 52–53).
///
/// The number of multiplications is `2n`, matching the paper's complexity
/// claim that evaluating the model at all nodes is linear in the number of
/// branches.
///
/// The passes are scheduled as plain index sweeps — descending for
/// `Cal_Cap_Loads`, ascending for `Cal_Summations` — which is valid
/// because arena order is topological (`parent(id) < id`, see
/// [`RlcTree::node_ids`]) and avoids materializing traversal vectors. The
/// per-node arithmetic (and therefore every float result, bit-for-bit) is
/// unchanged from the original traversal-driven walker, which survives as
/// [`reference::tree_sums_arena`](crate::reference::tree_sums_arena) for
/// differential testing. For repeated analysis of many nets, the packed
/// [`flat_sums_into`](crate::flat_sums_into) /
/// [`forest_sums_into`](crate::forest_sums_into) kernels are faster still.
pub fn tree_sums(tree: &RlcTree) -> ElmoreSums {
    let n = tree.len();
    let mut downstream_cap = vec![Capacitance::ZERO; n];

    // Pass 1 (Cal_Cap_Loads): descending sweep accumulating subtree
    // capacitance — children (larger indices) are final before parents.
    for id in tree.node_ids().rev() {
        let mut total = tree.section(id).capacitance();
        for &child in tree.children(id) {
            total += downstream_cap[child.index()];
        }
        downstream_cap[id.index()] = total;
    }

    // Pass 2 (Cal_Summations): ascending prefix sweep along root paths —
    // parents (smaller indices) are final before children.
    let mut rc = vec![Time::ZERO; n];
    let mut lc = vec![TimeSquared::ZERO; n];
    for id in tree.node_ids() {
        let (parent_rc, parent_lc) = match tree.parent(id) {
            Some(p) => (rc[p.index()], lc[p.index()]),
            None => (Time::ZERO, TimeSquared::ZERO),
        };
        let section = tree.section(id);
        let load = downstream_cap[id.index()];
        rc[id.index()] = parent_rc + section.resistance() * load;
        lc[id.index()] = parent_lc + section.inductance() * load;
    }

    ElmoreSums {
        rc,
        lc,
        downstream_cap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_tree::{topology, RlcSection};
    use rlc_units::{Inductance, Resistance};

    fn s(r: f64, l: f64, c: f64) -> RlcSection {
        RlcSection::new(
            Resistance::from_ohms(r),
            Inductance::from_henries(l),
            Capacitance::from_farads(c),
        )
    }

    /// Brute-force reference: `Σ_k C_k·R_ki` via pairwise common paths.
    fn naive_rc(tree: &RlcTree, i: NodeId) -> f64 {
        tree.node_ids()
            .map(|k| {
                tree.section(k).capacitance().as_farads()
                    * tree.common_path_resistance(i, k).as_ohms()
            })
            .sum()
    }

    fn naive_lc(tree: &RlcTree, i: NodeId) -> f64 {
        tree.node_ids()
            .map(|k| {
                tree.section(k).capacitance().as_farads()
                    * tree.common_path_inductance(i, k).as_henries()
            })
            .sum()
    }

    #[test]
    fn single_section_sums() {
        let (tree, sink) = topology::single_line(1, s(2.0, 3.0, 5.0));
        let sums = tree_sums(&tree);
        assert_eq!(sums.rc(sink).as_seconds(), 10.0);
        assert_eq!(sums.lc(sink).as_seconds_squared(), 15.0);
        assert_eq!(sums.downstream_capacitance(sink).as_farads(), 5.0);
        assert_eq!(sums.len(), 1);
        assert!(!sums.is_empty());
    }

    #[test]
    fn two_section_line_hand_computed() {
        // T_RC(2) = R1(C1+C2) + R2·C2, T_RC(1) = R1(C1+C2)
        let (tree, sink) = topology::single_line(2, s(2.0, 1.0, 3.0));
        let sums = tree_sums(&tree);
        let first = tree.roots()[0];
        assert_eq!(sums.rc(first).as_seconds(), 12.0);
        assert_eq!(sums.rc(sink).as_seconds(), 12.0 + 6.0);
        assert_eq!(sums.lc(first).as_seconds_squared(), 6.0);
        assert_eq!(sums.lc(sink).as_seconds_squared(), 6.0 + 3.0);
    }

    #[test]
    fn matches_paper_fig3_style_example() {
        // Paper's worked definition below eq. (7): the time constant at a
        // node sums each capacitor weighted by shared resistance. Use Fig. 5
        // with distinct section values and check node 7 against brute force.
        let (tree, nodes) = topology::fig5_with(|k| s(k as f64, 2.0 * k as f64, 0.5 * k as f64));
        let sums = tree_sums(&tree);
        for id in [nodes.n1, nodes.n2, nodes.n3, nodes.n4, nodes.n7] {
            assert!(
                (sums.rc(id).as_seconds() - naive_rc(&tree, id)).abs() < 1e-9,
                "T_RC mismatch at {id}"
            );
            assert!(
                (sums.lc(id).as_seconds_squared() - naive_lc(&tree, id)).abs() < 1e-9,
                "T_LC mismatch at {id}"
            );
        }
    }

    #[test]
    fn matches_brute_force_on_random_trees() {
        use rlc_units::{Capacitance as C, Inductance as L, Resistance as R};
        for seed in 0..5 {
            let tree = topology::random_tree(
                seed,
                40,
                (R::from_ohms(1.0), R::from_ohms(50.0)),
                (L::ZERO, L::from_nanohenries(5.0)),
                (C::from_femtofarads(10.0), C::from_picofarads(0.5)),
            );
            let sums = tree_sums(&tree);
            for id in tree.node_ids() {
                let fast = sums.rc(id).as_seconds();
                let slow = naive_rc(&tree, id);
                assert!(
                    (fast - slow).abs() <= 1e-15 + 1e-9 * slow.abs(),
                    "seed {seed} node {id}: {fast} vs {slow}"
                );
                let fast_l = sums.lc(id).as_seconds_squared();
                let slow_l = naive_lc(&tree, id);
                assert!(
                    (fast_l - slow_l).abs() <= 1e-30 + 1e-9 * slow_l.abs(),
                    "seed {seed} node {id} (LC): {fast_l} vs {slow_l}"
                );
            }
        }
    }

    #[test]
    fn sums_increase_along_root_paths() {
        // Both sums are prefix sums of non-negative terms, so they are
        // monotone along any root→leaf path.
        let tree = topology::balanced_tree(4, 2, s(10.0, 1e-9, 1e-13));
        let sums = tree_sums(&tree);
        for leaf in tree.leaves() {
            let path = tree.path_from_root(leaf);
            for pair in path.windows(2) {
                assert!(sums.rc(pair[1]) >= sums.rc(pair[0]));
                assert!(sums.lc(pair[1]) >= sums.lc(pair[0]));
            }
        }
    }

    #[test]
    fn balanced_tree_sinks_identical() {
        let tree = topology::balanced_tree(4, 3, s(7.0, 2e-9, 3e-13));
        let sums = tree_sums(&tree);
        let leaf_rcs: Vec<f64> = tree.leaves().map(|l| sums.rc(l).as_seconds()).collect();
        for w in leaf_rcs.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-18);
        }
    }

    #[test]
    fn rc_only_tree_has_zero_lc() {
        let tree = topology::balanced_tree(3, 2, s(10.0, 0.0, 1e-12));
        let sums = tree_sums(&tree);
        for id in tree.node_ids() {
            assert_eq!(sums.lc(id), TimeSquared::ZERO);
            assert!(sums.rc(id) > Time::ZERO);
        }
    }

    #[test]
    fn downstream_capacitance_matches_subtree_totals() {
        let (tree, nodes) = topology::fig5_with(|k| s(1.0, 1.0, k as f64));
        let sums = tree_sums(&tree);
        // Subtree of n3 = sections {3, 6, 7} → C = 3+6+7 = 16.
        assert_eq!(sums.downstream_capacitance(nodes.n3).as_farads(), 16.0);
        // Root subtree = everything = 28.
        assert_eq!(sums.downstream_capacitance(nodes.n1).as_farads(), 28.0);
        // Leaves carry only their own C.
        assert_eq!(sums.downstream_capacitance(nodes.n7).as_farads(), 7.0);
    }

    #[test]
    fn empty_tree_yields_empty_sums() {
        let tree = rlc_tree::RlcTree::new();
        let sums = tree_sums(&tree);
        assert!(sums.is_empty());
        assert_eq!(sums.len(), 0);
    }

    #[test]
    fn multiple_roots_are_independent() {
        // Two root sections: each root's sums see only its own subtree load.
        let mut tree = rlc_tree::RlcTree::new();
        let a = tree.add_root_section(s(2.0, 0.0, 3.0));
        let b = tree.add_root_section(s(5.0, 0.0, 7.0));
        let sums = tree_sums(&tree);
        assert_eq!(sums.rc(a).as_seconds(), 6.0);
        assert_eq!(sums.rc(b).as_seconds(), 35.0);
    }
}
