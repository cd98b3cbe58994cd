//! Incremental re-analysis: probe section edits without O(n) recomputes.

use eed::SecondOrderModel;
use rlc_moments::{ElmoreSums, FlatIncrementalSums};
use rlc_tree::{FlatTree, NodeId, RlcSection, RlcTree};
use rlc_units::{Capacitance, Time, TimeSquared};

/// A position in the edit journal, for explicit rollback.
///
/// Obtained from [`IncrementalAnalysis::checkpoint`]; passed back to
/// [`IncrementalAnalysis::rollback_to`]. Checkpoints nest like a stack:
/// rolling back to an older checkpoint discards newer ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditCheckpoint(usize);

/// An [`RlcTree`] plus incrementally-maintained tree sums, for synthesis
/// loops that evaluate many small perturbations of one net.
///
/// A from-scratch [`TreeAnalysis`](eed::TreeAnalysis) costs O(n) per
/// candidate; `IncrementalAnalysis` updates the factored sums in
/// O(depth) per [`set_section`](Self::set_section) edit and answers
/// `T_RC`/`T_LC`/delay queries in O(depth) — exploiting that editing
/// `R_k`/`L_k` perturbs the sums only through section `k`'s own
/// contribution term, and editing `C_k` only through the terms of `k`'s
/// root-path ancestors (paper eqs. 52–53). All values are bit-identical
/// to a from-scratch recomputation, so switching an optimizer onto this
/// type changes its speed, not its answers.
///
/// The [`scoped_edit`](Self::scoped_edit) / [`checkpoint`](Self::checkpoint)
/// API makes candidate probing natural: edit, measure, roll back.
///
/// # Examples
///
/// ```
/// use rlc_engine::IncrementalAnalysis;
/// use rlc_tree::{topology, RlcSection};
/// use rlc_units::{Capacitance, Inductance, Resistance};
///
/// let s = RlcSection::new(
///     Resistance::from_ohms(20.0),
///     Inductance::from_nanohenries(4.0),
///     Capacitance::from_picofarads(0.4),
/// );
/// let (line, sink) = topology::single_line(16, s);
/// let mut probe = IncrementalAnalysis::new(line);
///
/// let base = probe.delay_50(sink);
/// let wider = probe.scoped_edit(|p| {
///     p.set_section(sink, s.scaled(0.5)); // halve the sink section's RLC
///     p.delay_50(sink)
/// });
/// assert!(wider < base);
/// assert_eq!(probe.delay_50(sink), base); // rolled back
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalAnalysis {
    tree: RlcTree,
    /// Flat SoA mirror of `tree` (same indices); value edits are applied to
    /// both, and all O(depth) sum maintenance runs against this layout.
    flat: FlatTree,
    sums: FlatIncrementalSums,
    /// `(node, previous section)` for every uncommitted edit, oldest first.
    journal: Vec<(NodeId, RlcSection)>,
}

impl IncrementalAnalysis {
    /// Takes ownership of `tree` and builds the factored sums in O(n).
    pub fn new(tree: RlcTree) -> Self {
        let flat = FlatTree::from_tree(&tree);
        let sums = FlatIncrementalSums::new(&flat);
        Self {
            tree,
            flat,
            sums,
            journal: Vec::new(),
        }
    }

    /// Convenience constructor that clones a borrowed tree.
    pub fn from_tree(tree: &RlcTree) -> Self {
        Self::new(tree.clone())
    }

    /// The tree in its current (edited) state.
    pub fn tree(&self) -> &RlcTree {
        &self.tree
    }

    /// Consumes the analysis, returning the tree in its current state.
    pub fn into_tree(self) -> RlcTree {
        self.tree
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Returns `true` for an empty tree.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Replaces the section at `node`, updating the sums in O(depth);
    /// returns the previous section.
    ///
    /// The edit is journaled until [`commit`](Self::commit), so it can be
    /// undone by [`rollback_to`](Self::rollback_to) or an enclosing
    /// [`scoped_edit`](Self::scoped_edit).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the tree.
    pub fn set_section(&mut self, node: NodeId, section: RlcSection) -> RlcSection {
        let old = core::mem::replace(self.tree.section_mut(node), section);
        self.journal.push((node, old));
        self.flat.set_section(node.index(), &section);
        self.sums.apply_edit(&self.flat, node.index());
        old
    }

    /// Marks the current journal position; see
    /// [`rollback_to`](Self::rollback_to).
    pub fn checkpoint(&self) -> EditCheckpoint {
        EditCheckpoint(self.journal.len())
    }

    /// Undoes every edit made after `mark`, newest first.
    ///
    /// Rollback re-derives the affected sums exactly, so the state after a
    /// rollback is bit-identical to the state at the checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `mark` is ahead of the journal (it came from a state with
    /// more edits than now exist, e.g. after an earlier rollback past it).
    pub fn rollback_to(&mut self, mark: EditCheckpoint) {
        assert!(
            mark.0 <= self.journal.len(),
            "checkpoint {} is ahead of the journal ({} entries)",
            mark.0,
            self.journal.len()
        );
        while self.journal.len() > mark.0 {
            let (node, old) = self.journal.pop().expect("length checked");
            *self.tree.section_mut(node) = old;
            self.flat.set_section(node.index(), &old);
            self.sums.apply_edit(&self.flat, node.index());
        }
    }

    /// Keeps all journaled edits and empties the journal (they can no
    /// longer be rolled back). Call when a probed candidate is accepted,
    /// or periodically in long edit streams to bound journal growth.
    pub fn commit(&mut self) {
        self.journal.clear();
    }

    /// Number of uncommitted (rollback-able) edits.
    pub fn pending_edits(&self) -> usize {
        self.journal.len()
    }

    /// Runs `f` with mutable access and rolls back every edit it made,
    /// returning `f`'s result — the candidate-probe primitive.
    ///
    /// Scopes nest. If `f` panics, the edits are *not* rolled back (the
    /// state stays consistent, just edited); callers that catch unwinds
    /// should roll back to their own checkpoint.
    pub fn scoped_edit<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let mark = self.checkpoint();
        let result = f(self);
        self.rollback_to(mark);
        result
    }

    /// The Elmore sum `T_RC(node)`, in O(depth).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn rc(&self, node: NodeId) -> Time {
        self.sums.rc(&self.flat, node.index())
    }

    /// The inductive sum `T_LC(node)`, in O(depth).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn lc(&self, node: NodeId) -> TimeSquared {
        self.sums.lc(&self.flat, node.index())
    }

    /// The subtree capacitance below `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn downstream_capacitance(&self, node: NodeId) -> Capacitance {
        self.sums.downstream_capacitance(node.index())
    }

    /// The second-order model at `node`, or `None` for a node with no
    /// dynamics (zero `T_RC` and `T_LC`), in O(depth).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn try_model(&self, node: NodeId) -> Option<SecondOrderModel> {
        let (rc, lc) = self.sums.rc_lc(&self.flat, node.index());
        if rc.as_seconds() == 0.0 && lc.as_seconds_squared() == 0.0 {
            None
        } else {
            Some(SecondOrderModel::from_sums(rc, lc))
        }
    }

    /// The second-order model at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or has no dynamics.
    #[expect(
        clippy::panic,
        reason = "documented # Panics contract; try_model is the fallible twin for callers that cannot rule out zero-dynamics nodes"
    )]
    pub fn model(&self, node: NodeId) -> SecondOrderModel {
        self.try_model(node)
            .unwrap_or_else(|| panic!("node {node} has no dynamics (zero T_RC and T_LC)"))
    }

    /// Fitted 50% delay at `node` (paper eq. 35), in O(depth).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or has no dynamics.
    pub fn delay_50(&self, node: NodeId) -> Time {
        self.model(node).delay_50()
    }

    /// Fitted 10–90% rise time at `node` (paper eq. 36), in O(depth).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or has no dynamics.
    pub fn rise_time(&self, node: NodeId) -> Time {
        self.model(node).rise_time()
    }

    /// Expands the incremental state into a full [`ElmoreSums`] table in
    /// O(n) — bit-identical to `tree_sums(self.tree())`.
    pub fn full_sums(&self) -> ElmoreSums {
        self.sums.to_elmore_sums(&self.flat)
    }

    /// Verifies the incremental state against a from-scratch
    /// [`tree_sums`](rlc_moments::tree_sums) pass; `true` when (exactly)
    /// equal. Intended for `debug_assert!` cross-checks in optimizers that
    /// switch onto the incremental path.
    pub fn cross_check(&self) -> bool {
        self.full_sums() == rlc_moments::tree_sums(&self.tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_tree::topology;
    use rlc_units::{Inductance, Resistance};

    fn s(r: f64, l: f64, c: f64) -> RlcSection {
        RlcSection::new(
            Resistance::from_ohms(r),
            Inductance::from_henries(l),
            Capacitance::from_farads(c),
        )
    }

    #[test]
    fn queries_match_full_analysis() {
        let (tree, nodes) = topology::fig5_with(|k| s(k as f64, 2.0 * k as f64, 0.5 * k as f64));
        let probe = IncrementalAnalysis::from_tree(&tree);
        let full = eed::TreeAnalysis::new(&tree);
        for id in tree.node_ids() {
            assert_eq!(probe.rc(id), full.sums().rc(id));
            assert_eq!(probe.lc(id), full.sums().lc(id));
            assert_eq!(probe.delay_50(id), full.delay_50(id));
            assert_eq!(probe.rise_time(id), full.rise_time(id));
        }
        assert_eq!(probe.model(nodes.n7), *full.model(nodes.n7));
        assert_eq!(probe.len(), 7);
        assert!(!probe.is_empty());
    }

    #[test]
    fn edits_track_a_rebuilt_tree_exactly() {
        let (tree, sink) = topology::single_line(12, s(10.0, 1e-9, 0.2e-12));
        let mut probe = IncrementalAnalysis::new(tree);
        let first_old = probe.set_section(sink, s(15.0, 1e-9, 0.3e-12));
        assert_eq!(first_old.resistance().as_ohms(), 10.0);
        for step in 2..=5u32 {
            let factor = 1.0 + f64::from(step) * 0.5;
            probe.set_section(sink, s(10.0 * factor, 1e-9, 0.2e-12 * factor));
            assert!(probe.cross_check(), "drift after edit {step}");
        }
    }

    #[test]
    fn scoped_edit_rolls_back_bit_identically() {
        let (tree, sink) = topology::single_line(8, s(15.0, 2e-9, 0.3e-12));
        let mut probe = IncrementalAnalysis::new(tree);
        let pristine_tree = probe.tree().clone();
        let base = probe.delay_50(sink);

        let probed = probe.scoped_edit(|p| {
            p.set_section(sink, s(150.0, 2e-9, 3e-12));
            let inner = p.scoped_edit(|q| {
                q.set_section(q.tree().roots()[0], s(1.0, 0.0, 0.1e-12));
                q.delay_50(sink)
            });
            assert_eq!(p.pending_edits(), 1, "inner scope rolled back");
            (inner, p.delay_50(sink))
        });
        assert!(probed.0 > base && probed.1 > base);
        assert_eq!(probe.delay_50(sink), base);
        assert_eq!(*probe.tree(), pristine_tree);
        assert_eq!(probe.pending_edits(), 0);
        assert!(probe.cross_check());
    }

    #[test]
    fn checkpoint_rollback_and_commit() {
        let (tree, sink) = topology::single_line(4, s(10.0, 0.0, 1e-12));
        let mut probe = IncrementalAnalysis::new(tree);
        let base = probe.rc(sink);
        let mark = probe.checkpoint();
        probe.set_section(sink, s(40.0, 0.0, 1e-12));
        probe.set_section(sink, s(80.0, 0.0, 1e-12));
        assert_eq!(probe.pending_edits(), 2);
        probe.rollback_to(mark);
        assert_eq!(probe.rc(sink), base);

        probe.set_section(sink, s(40.0, 0.0, 1e-12));
        probe.commit();
        assert_eq!(probe.pending_edits(), 0);
        assert!(probe.rc(sink) > base);
        assert!(probe.cross_check());
    }

    #[test]
    #[should_panic(expected = "ahead of the journal")]
    fn stale_checkpoint_is_rejected() {
        let (tree, sink) = topology::single_line(2, s(1.0, 0.0, 1e-12));
        let mut probe = IncrementalAnalysis::new(tree);
        probe.set_section(sink, s(2.0, 0.0, 1e-12));
        let late = probe.checkpoint();
        probe.rollback_to(EditCheckpoint(0));
        probe.rollback_to(late);
    }

    #[test]
    fn degenerate_nodes_have_no_model() {
        let mut tree = RlcTree::new();
        tree.add_root_section(RlcSection::zero());
        let probe = IncrementalAnalysis::new(tree);
        let z = probe.tree().roots()[0];
        assert!(probe.try_model(z).is_none());
    }

    #[test]
    fn full_sums_round_trip() {
        let tree = topology::balanced_tree(5, 2, s(7.0, 2e-9, 3e-13));
        let mut probe = IncrementalAnalysis::new(tree);
        let leaf = probe.tree().leaves().next().unwrap();
        probe.set_section(leaf, s(70.0, 2e-9, 3e-12));
        assert_eq!(probe.full_sums(), rlc_moments::tree_sums(probe.tree()));
    }
}
