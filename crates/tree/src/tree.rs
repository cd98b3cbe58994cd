//! The arena-allocated RLC tree.

use core::fmt;

use rlc_units::{Capacitance, Inductance, Resistance};

use crate::section::RlcSection;

/// Identifier of a section/node within one [`RlcTree`].
///
/// Each section terminates in exactly one node, so sections and nodes share
/// an identifier (paper convention: "node i" is the downstream end of
/// "section i"). Ids are small dense indices, valid only for the tree that
/// produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index of this node (dense, `0..tree.len()`).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw index (the inverse of
    /// [`index`](Self::index)).
    ///
    /// The caller is responsible for pairing the id with the tree the
    /// index came from — tree methods panic on out-of-range ids.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit the id's 32-bit representation.
    #[inline]
    #[expect(
        clippy::panic,
        reason = "documented # Panics contract: the u32 arena capacity limit is a deliberate representation bound"
    )]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).unwrap_or_else(|_| panic!("node index {index} overflows u32")))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Node {
    section: RlcSection,
    /// `None` means the section is attached directly to the input source.
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// An RLC tree: a voltage source driving a tree of [`RlcSection`]s.
///
/// The tree is stored in an arena (`Vec`) with parent/child links; nodes are
/// addressed by [`NodeId`]. Construction is append-only, so every id handed
/// out stays valid and the arena order is a valid topological (parents before
/// children) order — a property the O(n) moment algorithms rely on.
///
/// # Examples
///
/// ```
/// use rlc_tree::{RlcSection, RlcTree};
/// use rlc_units::{Resistance, Inductance, Capacitance};
///
/// let s = RlcSection::new(
///     Resistance::from_ohms(10.0),
///     Inductance::from_nanohenries(1.0),
///     Capacitance::from_picofarads(0.1),
/// );
/// let mut tree = RlcTree::new();
/// let trunk = tree.add_root_section(s);
/// let left = tree.add_section(trunk, s);
/// let right = tree.add_section(trunk, s);
///
/// assert_eq!(tree.children(trunk), &[left, right]);
/// assert_eq!(tree.depth(left), 2);
/// assert!((tree.total_capacitance().as_picofarads() - 0.3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RlcTree {
    nodes: Vec<Node>,
    roots: Vec<NodeId>,
}

impl RlcTree {
    /// Creates an empty tree (a bare source with no sections yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty tree with room for `capacity` sections.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(capacity),
            roots: Vec::new(),
        }
    }

    /// Adds a section attached directly to the input source and returns the
    /// id of its downstream node.
    ///
    /// Most nets have a single root section, but multiple roots are allowed
    /// (the source then drives several sections in parallel).
    pub fn add_root_section(&mut self, section: RlcSection) -> NodeId {
        let id = self.push(section, None);
        self.roots.push(id);
        id
    }

    /// Adds a section downstream of `parent` and returns the id of its node.
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not belong to this tree.
    pub fn add_section(&mut self, parent: NodeId, section: RlcSection) -> NodeId {
        assert!(
            parent.index() < self.nodes.len(),
            "parent {parent} is not a node of this tree"
        );
        let id = self.push(section, Some(parent));
        self.nodes[parent.index()].children.push(id);
        id
    }

    #[expect(
        clippy::panic,
        reason = "u32 arena capacity limit: a four-billion-node tree is out of scope by design, and growth APIs document the panic"
    )]
    fn push(&mut self, section: RlcSection, parent: Option<NodeId>) -> NodeId {
        let Ok(index) = u32::try_from(self.nodes.len()) else {
            panic!("tree exceeds u32::MAX nodes");
        };
        let id = NodeId(index);
        self.nodes.push(Node {
            section,
            parent,
            children: Vec::new(),
        });
        id
    }

    /// Number of sections (equivalently, nodes) in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the tree has no sections.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The sections attached directly to the input source.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// The section terminating at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn section(&self, id: NodeId) -> &RlcSection {
        &self.nodes[id.index()].section
    }

    /// Mutable access to the section terminating at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn section_mut(&mut self, id: NodeId) -> &mut RlcSection {
        &mut self.nodes[id.index()].section
    }

    /// The parent node, or `None` for a root section (attached at the source).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// The child nodes of `id`, in ascending id order.
    ///
    /// This is a guaranteed invariant, not an accident of allocation:
    /// construction is append-only, every [`add_section`](Self::add_section)
    /// hands out an id larger than all existing ids, and grafted subtrees
    /// are renumbered in preorder — so each child list (like
    /// [`roots`](Self::roots) and [`leaves`](Self::leaves)) is always
    /// sorted. The flat SoA kernels and every sink-enumeration call site
    /// rely on this ordering for bit-identical float accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Returns `true` if `id` has no children (it is a sink).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.nodes[id.index()].children.is_empty()
    }

    /// Iterates over all node ids in ascending (arena) order.
    ///
    /// Arena order is a valid topological order — `parent(id) < id` for
    /// every non-root node — so the forward iteration visits parents before
    /// children and the reverse iteration (`.rev()`) visits children before
    /// parents. Both directions are used by the O(n) moment kernels.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over the sink (leaf) nodes in ascending id order.
    ///
    /// Like [`children`](Self::children), the ordering is a guaranteed
    /// sorted invariant: sink enumeration everywhere (engine reports, opt
    /// probes, flat-kernel leaf tables) agrees on this sequence.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&id| self.is_leaf(id))
    }

    /// Returns node ids in preorder (every parent before its children,
    /// subtrees in insertion order).
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.len());
        let mut stack: Vec<NodeId> = self.roots.iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            order.push(id);
            for &child in self.children(id).iter().rev() {
                stack.push(child);
            }
        }
        order
    }

    /// Returns node ids in postorder (every child before its parent).
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = self.preorder();
        order.reverse();
        // Reversed preorder is a valid postorder for our purposes (children
        // before parents), though not the classic left-to-right postorder.
        order
    }

    /// The path from the source to `id`, inclusive: `[root, …, id]`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn path_from_root(&self, id: NodeId) -> Vec<NodeId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Number of sections between the source and `id`, inclusive of `id`'s
    /// own section (roots have depth 1).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn depth(&self, id: NodeId) -> usize {
        let mut depth = 1;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            depth += 1;
            cur = p;
        }
        depth
    }

    /// The maximum depth over all nodes (0 for an empty tree).
    pub fn max_depth(&self) -> usize {
        // Dynamic programming over arena order (parents precede children).
        let mut depth = vec![0usize; self.len()];
        let mut max = 0;
        for id in self.node_ids() {
            let d = match self.parent(id) {
                Some(p) => depth[p.index()] + 1,
                None => 1,
            };
            depth[id.index()] = d;
            max = max.max(d);
        }
        max
    }

    /// Sum of all node capacitances (the total load seen by the source).
    pub fn total_capacitance(&self) -> Capacitance {
        self.nodes.iter().map(|n| n.section.capacitance()).sum()
    }

    /// Sum of series resistance along the path from the source to `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn path_resistance(&self, id: NodeId) -> Resistance {
        self.path_from_root(id)
            .iter()
            .map(|&n| self.section(n).resistance())
            .sum()
    }

    /// Sum of series inductance along the path from the source to `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn path_inductance(&self, id: NodeId) -> Inductance {
        self.path_from_root(id)
            .iter()
            .map(|&n| self.section(n).inductance())
            .sum()
    }

    /// Common-path resistance `R_ki`: the resistance shared by the paths
    /// from the source to `k` and from the source to `i`.
    ///
    /// This is the kernel of the Elmore sum (paper eq. 7). It is exposed for
    /// verification; the O(n) algorithms in `rlc-moments` never call it.
    ///
    /// # Panics
    ///
    /// Panics if either id does not belong to this tree.
    pub fn common_path_resistance(&self, i: NodeId, k: NodeId) -> Resistance {
        self.common_path(i, k)
            .map(|n| self.section(n).resistance())
            .sum()
    }

    /// Common-path inductance `L_ki` (the inductive twin of
    /// [`common_path_resistance`](Self::common_path_resistance)).
    ///
    /// # Panics
    ///
    /// Panics if either id does not belong to this tree.
    pub fn common_path_inductance(&self, i: NodeId, k: NodeId) -> Inductance {
        self.common_path(i, k)
            .map(|n| self.section(n).inductance())
            .sum()
    }

    /// Iterates over the sections common to the source→`i` and source→`k`
    /// paths.
    fn common_path(&self, i: NodeId, k: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let pi = self.path_from_root(i);
        let pk = self.path_from_root(k);
        let common: Vec<NodeId> = pi
            .into_iter()
            .zip(pk)
            .take_while(|(a, b)| a == b)
            .map(|(a, _)| a)
            .collect();
        common.into_iter()
    }

    /// Returns `true` if the tree is *balanced*: all leaves at equal depth
    /// and, at every level, all sections identical (paper Section V-B).
    pub fn is_balanced(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        let mut by_level: Vec<Option<RlcSection>> = Vec::new();
        let mut leaf_depth: Option<usize> = None;
        for id in self.node_ids() {
            let d = self.depth(id);
            if by_level.len() < d {
                by_level.resize(d, None);
            }
            match &by_level[d - 1] {
                None => by_level[d - 1] = Some(*self.section(id)),
                Some(s) if s == self.section(id) => {}
                Some(_) => return false,
            }
            if self.is_leaf(id) {
                match leaf_depth {
                    None => leaf_depth = Some(d),
                    Some(ld) if ld == d => {}
                    Some(_) => return false,
                }
            }
        }
        true
    }

    /// Extracts the subtree whose root section is `node` as a new tree.
    ///
    /// The returned tree's single root is the copy of `node`'s section;
    /// ids are renumbered in preorder. Useful for divide-and-conquer
    /// algorithms such as buffer insertion, which evaluate subtrees as
    /// standalone loads.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this tree.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlc_tree::{RlcSection, RlcTree};
    /// use rlc_units::{Resistance, Capacitance};
    /// let s = RlcSection::rc(Resistance::from_ohms(1.0), Capacitance::from_farads(1.0));
    /// let mut t = RlcTree::new();
    /// let root = t.add_root_section(s);
    /// let mid = t.add_section(root, s);
    /// t.add_section(mid, s);
    /// let sub = t.subtree(mid);
    /// assert_eq!(sub.len(), 2);
    /// assert_eq!(sub.max_depth(), 2);
    /// ```
    pub fn subtree(&self, node: NodeId) -> RlcTree {
        let mut out = RlcTree::new();
        // (old id, new parent in `out`)
        let mut stack: Vec<(NodeId, Option<NodeId>)> = vec![(node, None)];
        while let Some((old, new_parent)) = stack.pop() {
            let new_id = match new_parent {
                Some(p) => out.add_section(p, *self.section(old)),
                None => out.add_root_section(*self.section(old)),
            };
            for &child in self.children(old).iter().rev() {
                stack.push((child, Some(new_id)));
            }
        }
        out
    }

    /// Grafts a copy of `other` below `parent` (or at the source when
    /// `parent` is `None`); returns the new ids of `other`'s roots.
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not belong to this tree.
    #[expect(clippy::unreachable, reason = "parents precede children in preorder")]
    pub fn graft(&mut self, parent: Option<NodeId>, other: &RlcTree) -> Vec<NodeId> {
        let mut new_roots = Vec::with_capacity(other.roots().len());
        let mut map: Vec<Option<NodeId>> = vec![None; other.len()];
        for old in other.preorder() {
            let new_id = match other.parent(old) {
                Some(p) => {
                    let Some(mapped) = map[p.index()] else {
                        unreachable!("parents precede children in preorder");
                    };
                    self.add_section(mapped, *other.section(old))
                }
                None => {
                    let id = match parent {
                        Some(p) => self.add_section(p, *other.section(old)),
                        None => self.add_root_section(*other.section(old)),
                    };
                    new_roots.push(id);
                    id
                }
            };
            map[old.index()] = Some(new_id);
        }
        new_roots
    }

    /// Applies `f` to every section, producing a structurally identical tree
    /// with transformed element values.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlc_tree::{RlcSection, RlcTree};
    /// use rlc_units::{Resistance, Inductance, Capacitance};
    /// let mut t = RlcTree::new();
    /// let s = RlcSection::rc(Resistance::from_ohms(1.0), Capacitance::from_farads(1.0));
    /// t.add_root_section(s);
    /// let doubled = t.map_sections(|_, s| s.scaled(2.0));
    /// assert_eq!(doubled.section(doubled.roots()[0]).resistance().as_ohms(), 2.0);
    /// ```
    pub fn map_sections<F>(&self, mut f: F) -> RlcTree
    where
        F: FnMut(NodeId, &RlcSection) -> RlcSection,
    {
        let mut out = RlcTree::with_capacity(self.len());
        for id in self.node_ids() {
            let new_section = f(id, self.section(id));
            match self.parent(id) {
                Some(p) => {
                    out.add_section(p, new_section);
                }
                None => {
                    out.add_root_section(new_section);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_units::{Capacitance, Inductance, Resistance};

    fn s(r: f64, l: f64, c: f64) -> RlcSection {
        RlcSection::new(
            Resistance::from_ohms(r),
            Inductance::from_henries(l),
            Capacitance::from_farads(c),
        )
    }

    /// The paper's Fig. 5 shape: 1 trunk, 2 second-level, 4 third-level.
    fn fig5_shape() -> (RlcTree, Vec<NodeId>) {
        let mut t = RlcTree::new();
        let n1 = t.add_root_section(s(1.0, 1.0, 1.0));
        let n2 = t.add_section(n1, s(2.0, 2.0, 2.0));
        let n3 = t.add_section(n1, s(3.0, 3.0, 3.0));
        let n4 = t.add_section(n2, s(4.0, 4.0, 4.0));
        let n5 = t.add_section(n2, s(5.0, 5.0, 5.0));
        let n6 = t.add_section(n3, s(6.0, 6.0, 6.0));
        let n7 = t.add_section(n3, s(7.0, 7.0, 7.0));
        (t, vec![n1, n2, n3, n4, n5, n6, n7])
    }

    #[test]
    fn construction_and_shape() {
        let (t, n) = fig5_shape();
        assert_eq!(t.len(), 7);
        assert!(!t.is_empty());
        assert_eq!(t.roots(), &[n[0]]);
        assert_eq!(t.parent(n[0]), None);
        assert_eq!(t.parent(n[3]), Some(n[1]));
        assert_eq!(t.children(n[0]), &[n[1], n[2]]);
        assert!(t.is_leaf(n[6]));
        assert!(!t.is_leaf(n[1]));
    }

    #[test]
    fn leaves_are_the_sinks() {
        let (t, n) = fig5_shape();
        let leaves: Vec<NodeId> = t.leaves().collect();
        assert_eq!(leaves, vec![n[3], n[4], n[5], n[6]]);
    }

    #[test]
    fn preorder_parents_first() {
        let (t, _) = fig5_shape();
        let order = t.preorder();
        assert_eq!(order.len(), t.len());
        let mut seen = vec![false; t.len()];
        for id in order {
            if let Some(p) = t.parent(id) {
                assert!(seen[p.index()], "parent of {id} not visited first");
            }
            seen[id.index()] = true;
        }
    }

    #[test]
    fn postorder_children_first() {
        let (t, _) = fig5_shape();
        let order = t.postorder();
        let mut seen = vec![false; t.len()];
        for id in order {
            for &c in t.children(id) {
                assert!(seen[c.index()], "child of {id} not visited first");
            }
            seen[id.index()] = true;
        }
    }

    #[test]
    fn paths_and_depths() {
        let (t, n) = fig5_shape();
        assert_eq!(t.path_from_root(n[6]), vec![n[0], n[2], n[6]]);
        assert_eq!(t.depth(n[0]), 1);
        assert_eq!(t.depth(n[6]), 3);
        assert_eq!(t.max_depth(), 3);
    }

    #[test]
    fn path_impedances() {
        let (t, n) = fig5_shape();
        // path to n7: sections 1 and 3 and 7 → R = 1+3+7 = 11
        assert_eq!(t.path_resistance(n[6]).as_ohms(), 11.0);
        assert_eq!(t.path_inductance(n[6]).as_henries(), 11.0);
    }

    #[test]
    fn common_path_matches_paper_example() {
        // Paper below eq. (7): for the Fig. 3 tree, e.g. R_75 is the shared
        // resistance of paths to node 7 and node 5 — here sections {1}.
        let (t, n) = fig5_shape();
        assert_eq!(t.common_path_resistance(n[6], n[4]).as_ohms(), 1.0);
        // Nodes 6 and 7 share sections {1, 3}.
        assert_eq!(t.common_path_resistance(n[6], n[5]).as_ohms(), 4.0);
        // Common path with itself is the whole path.
        assert_eq!(
            t.common_path_resistance(n[6], n[6]),
            t.path_resistance(n[6])
        );
        // Symmetry.
        assert_eq!(
            t.common_path_inductance(n[3], n[6]),
            t.common_path_inductance(n[6], n[3])
        );
    }

    #[test]
    fn total_capacitance_sums_all_nodes() {
        let (t, _) = fig5_shape();
        assert_eq!(t.total_capacitance().as_farads(), 28.0);
    }

    #[test]
    fn balanced_detection() {
        let (asym, _) = fig5_shape();
        assert!(!asym.is_balanced());

        let mut t = RlcTree::new();
        let root = t.add_root_section(s(1.0, 1.0, 1.0));
        let l = t.add_section(root, s(2.0, 2.0, 2.0));
        let r = t.add_section(root, s(2.0, 2.0, 2.0));
        for p in [l, r] {
            t.add_section(p, s(3.0, 3.0, 3.0));
            t.add_section(p, s(3.0, 3.0, 3.0));
        }
        assert!(t.is_balanced());

        // Unequal leaf depth breaks balance.
        let mut t2 = t.clone();
        let leaf = t2.leaves().next().unwrap();
        t2.add_section(leaf, s(3.0, 3.0, 3.0));
        assert!(!t2.is_balanced());

        assert!(RlcTree::new().is_balanced());
    }

    #[test]
    fn map_sections_preserves_structure() {
        let (t, n) = fig5_shape();
        let out = t.map_sections(|_, sec| sec.scaled(2.0));
        assert_eq!(out.len(), t.len());
        for id in t.node_ids() {
            assert_eq!(out.parent(id), t.parent(id));
            assert_eq!(
                out.section(id).resistance().as_ohms(),
                t.section(id).resistance().as_ohms() * 2.0
            );
        }
        assert_eq!(out.children(n[0]).len(), 2);
    }

    #[test]
    fn subtree_extraction_preserves_structure_and_values() {
        let (t, n) = fig5_shape();
        let sub = t.subtree(n[2]); // node 3's subtree: sections 3, 6, 7
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.roots().len(), 1);
        let root = sub.roots()[0];
        assert_eq!(sub.section(root).resistance().as_ohms(), 3.0);
        let mut child_rs: Vec<f64> = sub
            .children(root)
            .iter()
            .map(|&c| sub.section(c).resistance().as_ohms())
            .collect();
        child_rs.sort_by(f64::total_cmp);
        assert_eq!(child_rs, vec![6.0, 7.0]);
        // A leaf subtree is a single node.
        let leaf_sub = t.subtree(n[6]);
        assert_eq!(leaf_sub.len(), 1);
    }

    #[test]
    fn graft_reattaches_subtree_equivalently() {
        let (t, n) = fig5_shape();
        let sub = t.subtree(n[2]);
        // Remove-and-regraft: build the tree without node 3's subtree, then
        // graft it back; totals must match the original.
        let mut rebuilt = RlcTree::new();
        let r1 = rebuilt.add_root_section(*t.section(n[0]));
        let r2 = rebuilt.add_section(r1, *t.section(n[1]));
        rebuilt.add_section(r2, *t.section(n[3]));
        rebuilt.add_section(r2, *t.section(n[4]));
        let grafted = rebuilt.graft(Some(r1), &sub);
        assert_eq!(grafted.len(), 1);
        assert_eq!(rebuilt.len(), t.len());
        assert_eq!(
            rebuilt.total_capacitance().as_farads(),
            t.total_capacitance().as_farads()
        );
        // Path impedance to the regrafted node 7 matches.
        let new_n3 = grafted[0];
        let new_n7 = rebuilt.children(new_n3)[1];
        assert_eq!(
            rebuilt.path_resistance(new_n7).as_ohms(),
            t.path_resistance(n[6]).as_ohms()
        );
    }

    #[test]
    fn graft_at_source_adds_roots() {
        let (t, _) = fig5_shape();
        let mut host = RlcTree::new();
        host.add_root_section(s(1.0, 0.0, 1.0));
        let roots = host.graft(None, &t);
        assert_eq!(roots.len(), 1);
        assert_eq!(host.roots().len(), 2);
        assert_eq!(host.len(), 8);
    }

    #[test]
    fn multiple_roots_supported() {
        let mut t = RlcTree::new();
        let a = t.add_root_section(s(1.0, 0.0, 1.0));
        let b = t.add_root_section(s(2.0, 0.0, 2.0));
        assert_eq!(t.roots(), &[a, b]);
        assert_eq!(t.preorder(), vec![a, b]);
        assert_eq!(t.max_depth(), 1);
    }

    #[test]
    #[should_panic(expected = "not a node of this tree")]
    fn add_section_rejects_foreign_parent() {
        let mut t = RlcTree::new();
        let _ = t.add_section(NodeId(5), RlcSection::zero());
    }

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId(3).index(), 3);
    }

    #[test]
    fn empty_tree_edge_cases() {
        let t = RlcTree::new();
        assert!(t.is_empty());
        assert_eq!(t.max_depth(), 0);
        assert_eq!(t.preorder(), Vec::<NodeId>::new());
        assert_eq!(t.total_capacitance(), Capacitance::ZERO);
        assert_eq!(t.leaves().count(), 0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut t = RlcTree::with_capacity(16);
        assert!(t.is_empty());
        t.add_root_section(RlcSection::zero());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn tree_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RlcTree>();
        assert_send_sync::<NodeId>();
    }

    /// The sorted-ordering invariant the flat kernels and all sink
    /// enumeration depend on: `roots`, every child list, `leaves`, and
    /// `node_ids` are strictly ascending, and arena order stays topological
    /// — even after grafting, which renumbers the grafted copy in preorder.
    #[test]
    fn ordering_is_a_sorted_invariant_not_an_accident() {
        fn assert_sorted_invariants(t: &RlcTree) {
            let ascending = |ids: &[NodeId]| ids.windows(2).all(|w| w[0] < w[1]);
            assert!(ascending(t.roots()));
            let leaves: Vec<NodeId> = t.leaves().collect();
            assert!(ascending(&leaves));
            let ids: Vec<NodeId> = t.node_ids().collect();
            assert!(ascending(&ids));
            let mut rev: Vec<NodeId> = t.node_ids().rev().collect();
            rev.reverse();
            assert_eq!(rev, ids);
            for id in t.node_ids() {
                assert!(ascending(t.children(id)));
                for &child in t.children(id) {
                    assert!(id < child, "arena order must be topological");
                }
            }
        }

        let (mut t, n) = fig5_shape();
        assert_sorted_invariants(&t);
        // Graft a copy of the whole tree under a mid-level node and under
        // the source; new ids append, so every invariant must survive.
        let copy = t.clone();
        t.graft(Some(n[1]), &copy);
        t.graft(None, &copy);
        assert_sorted_invariants(&t);
        assert_sorted_invariants(&t.subtree(n[0]));
    }
}
