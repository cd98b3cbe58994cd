//! Whole-tree analysis: the headline O(n) API.

use rlc_moments::ElmoreSums;
use rlc_tree::{NodeId, RlcTree};
use rlc_units::Time;

use crate::model::{Damping, SecondOrderModel};

/// Timing summary for one node, as produced by
/// [`TreeAnalysis::sink_timings`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeTiming {
    /// The node.
    pub node: NodeId,
    /// The second-order model at the node.
    pub model: SecondOrderModel,
    /// Fitted 50% propagation delay (paper eq. 35).
    pub delay_50: Time,
    /// Fitted 10–90% rise time (paper eq. 36).
    pub rise_time: Time,
}

/// One-pass timing analysis of an entire RLC tree.
///
/// Computes the paper's two tree sums once (O(n)) and exposes the
/// second-order model and all derived metrics at every node. This is the
/// RLC analogue of running an Elmore delay pass over an RC tree — same
/// complexity, same always-stable guarantee, but valid for inductive
/// interconnect.
///
/// # Examples
///
/// ```
/// use rlc_tree::{RlcSection, topology};
/// use rlc_units::{Resistance, Inductance, Capacitance};
/// use eed::TreeAnalysis;
///
/// let section = RlcSection::new(
///     Resistance::from_ohms(20.0),
///     Inductance::from_nanohenries(4.0),
///     Capacitance::from_picofarads(0.4),
/// );
/// let tree = topology::balanced_tree(4, 2, section);
/// let analysis = TreeAnalysis::new(&tree);
///
/// // The critical sink is the slowest leaf; in a balanced tree all leaves tie.
/// let (sink, delay) = analysis.critical_sink().expect("tree has sinks");
/// assert!(tree.is_leaf(sink));
/// assert!(delay > rlc_units::Time::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct TreeAnalysis {
    sums: ElmoreSums,
    models: Vec<Option<SecondOrderModel>>,
    leaves: Vec<NodeId>,
}

impl TreeAnalysis {
    /// Analyzes every node of `tree` in O(n).
    ///
    /// Nodes with no dynamics at all (zero `T_RC` *and* zero `T_LC`, which
    /// requires zero-impedance paths or a capacitance-free subtree) get no
    /// model; query them with [`try_model`](Self::try_model).
    pub fn new(tree: &RlcTree) -> Self {
        let sums = rlc_moments::tree_sums(tree);
        let models: Vec<Option<SecondOrderModel>> = tree
            .node_ids()
            .map(|id| {
                let rc = sums.rc(id);
                let lc = sums.lc(id);
                if rc.as_seconds() == 0.0 && lc.as_seconds_squared() == 0.0 {
                    None
                } else {
                    Some(SecondOrderModel::from_sums(rc, lc))
                }
            })
            .collect();
        Self {
            sums,
            models,
            leaves: tree.leaves().collect(),
        }
    }

    /// The second-order model at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or has no dynamics (see
    /// [`try_model`](Self::try_model)).
    #[expect(
        clippy::panic,
        reason = "documented # Panics contract; try_model is the fallible twin for callers that cannot rule out zero-dynamics nodes"
    )]
    pub fn model(&self, node: NodeId) -> &SecondOrderModel {
        self.models[node.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("node {node} has no dynamics (zero T_RC and T_LC)"))
    }

    /// The model at `node`, or `None` for nodes with no dynamics.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn try_model(&self, node: NodeId) -> Option<&SecondOrderModel> {
        self.models[node.index()].as_ref()
    }

    /// The underlying tree sums (`T_RC`, `T_LC`, subtree capacitances).
    pub fn sums(&self) -> &ElmoreSums {
        &self.sums
    }

    /// Fitted 50% delay at `node` (paper eq. 35).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or has no dynamics.
    pub fn delay_50(&self, node: NodeId) -> Time {
        self.model(node).delay_50()
    }

    /// Exact (inverted) 50% delay at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or has no dynamics.
    pub fn delay_50_exact(&self, node: NodeId) -> Time {
        self.model(node).delay_50_exact()
    }

    /// Fitted 10–90% rise time at `node` (paper eq. 36).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or has no dynamics.
    pub fn rise_time(&self, node: NodeId) -> Time {
        self.model(node).rise_time()
    }

    /// Damping classification at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or has no dynamics.
    pub fn damping(&self, node: NodeId) -> Damping {
        self.model(node).damping()
    }

    /// Timing summaries for all sinks (leaves), in arena order.
    pub fn sink_timings(&self) -> Vec<NodeTiming> {
        self.leaves
            .iter()
            .filter_map(|&node| {
                let model = *self.try_model(node)?;
                Some(NodeTiming {
                    node,
                    model,
                    delay_50: model.delay_50(),
                    rise_time: model.rise_time(),
                })
            })
            .collect()
    }

    /// The sink with the largest fitted 50% delay, and that delay.
    ///
    /// Returns `None` for empty trees or trees whose sinks all lack
    /// dynamics.
    pub fn critical_sink(&self) -> Option<(NodeId, Time)> {
        self.sink_timings()
            .into_iter()
            .max_by(|a, b| a.delay_50.partial_cmp(&b.delay_50).expect("finite delays"))
            .map(|t| (t.node, t.delay_50))
    }

    /// Renders a per-sink timing report as an aligned text table — the
    /// output an RC Elmore timer would print, extended with the RLC
    /// columns (damping, overshoot, settling).
    ///
    /// # Examples
    ///
    /// ```
    /// use rlc_tree::{RlcSection, topology};
    /// use rlc_units::{Resistance, Inductance, Capacitance};
    /// use eed::TreeAnalysis;
    ///
    /// let s = RlcSection::new(
    ///     Resistance::from_ohms(25.0),
    ///     Inductance::from_nanohenries(5.0),
    ///     Capacitance::from_picofarads(0.5),
    /// );
    /// let (tree, _) = topology::fig5(s);
    /// let report = TreeAnalysis::new(&tree).report();
    /// assert!(report.contains("sink"));
    /// assert!(report.lines().count() >= 5); // header + 4 sinks
    /// ```
    pub fn report(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:>8} {:<18} {:>14} {:>14} {:>10} {:>14}",
            "sink", "ζ", "damping", "50% delay", "rise 10-90%", "overshoot", "settle ±10%"
        );
        for t in self.sink_timings() {
            let (overshoot, settle) = match t.model.max_overshoot() {
                Some(os) => (
                    format!("{:.1}%", os * 100.0),
                    t.model.settling_time(0.1).to_string(),
                ),
                None => ("-".to_owned(), "-".to_owned()),
            };
            let zeta = if t.model.zeta().is_finite() {
                format!("{:.3}", t.model.zeta())
            } else {
                "∞ (RC)".to_owned()
            };
            let _ = writeln!(
                out,
                "{:<6} {:>8} {:<18} {:>14} {:>14} {:>10} {:>14}",
                t.node.to_string(),
                zeta,
                t.model.damping().to_string(),
                t.delay_50.to_string(),
                t.rise_time.to_string(),
                overshoot,
                settle,
            );
        }
        out
    }

    /// Number of nodes analyzed.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Returns `true` if the analyzed tree was empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_tree::{topology, RlcSection, RlcTree};
    use rlc_units::{Capacitance, Inductance, Resistance};

    fn s(r: f64, l: f64, c: f64) -> RlcSection {
        RlcSection::new(
            Resistance::from_ohms(r),
            Inductance::from_henries(l),
            Capacitance::from_farads(c),
        )
    }

    #[test]
    fn models_match_per_node_construction() {
        let (tree, nodes) = topology::fig5(s(25.0, 5e-9, 0.5e-12));
        let analysis = TreeAnalysis::new(&tree);
        for id in [nodes.n1, nodes.n4, nodes.n7] {
            let direct = SecondOrderModel::at_node(&tree, id);
            assert_eq!(*analysis.model(id), direct);
        }
        assert_eq!(analysis.len(), 7);
        assert!(!analysis.is_empty());
    }

    #[test]
    fn deeper_nodes_have_longer_delays() {
        let (tree, sink) = topology::single_line(6, s(10.0, 1e-9, 0.2e-12));
        let analysis = TreeAnalysis::new(&tree);
        let path = tree.path_from_root(sink);
        for pair in path.windows(2) {
            assert!(
                analysis.delay_50(pair[1]) > analysis.delay_50(pair[0]),
                "delay must increase along the line"
            );
        }
    }

    #[test]
    fn critical_sink_is_heaviest_path() {
        // Asymmetric tree: the scaled (left) branch is slower.
        let (tree, nodes) = topology::fig5_asymmetric(3.0, s(10.0, 1e-9, 0.2e-12));
        let analysis = TreeAnalysis::new(&tree);
        let (critical, delay) = analysis.critical_sink().unwrap();
        assert!(
            critical == nodes.n4 || critical == nodes.n5,
            "a sink under the high-impedance left branch should be critical, got {critical}"
        );
        assert!(delay >= analysis.delay_50(nodes.n7));
    }

    #[test]
    fn sink_timings_cover_all_leaves() {
        let tree = topology::balanced_tree(4, 2, s(10.0, 1e-9, 0.2e-12));
        let analysis = TreeAnalysis::new(&tree);
        let timings = analysis.sink_timings();
        assert_eq!(timings.len(), 8);
        // Balanced: all sink delays identical.
        for pair in timings.windows(2) {
            assert!((pair[0].delay_50.as_seconds() - pair[1].delay_50.as_seconds()).abs() < 1e-20);
        }
        for t in &timings {
            assert!(t.rise_time > t.delay_50);
        }
    }

    #[test]
    fn rc_tree_gets_first_order_models() {
        let tree = topology::balanced_tree(3, 2, s(10.0, 0.0, 0.2e-12));
        let analysis = TreeAnalysis::new(&tree);
        for id in tree.node_ids() {
            assert_eq!(analysis.damping(id), Damping::FirstOrder);
        }
        // Fitted delay equals the Wyatt delay in the RC case.
        let leaf = tree.leaves().next().unwrap();
        assert_eq!(
            analysis.delay_50(leaf),
            analysis.model(leaf).wyatt_delay_50()
        );
    }

    #[test]
    fn degenerate_nodes_yield_none() {
        // A zero section with an empty subtree has no dynamics.
        let mut tree = RlcTree::new();
        let root = tree.add_root_section(s(10.0, 0.0, 1e-12));
        let dead = tree.add_section(root, RlcSection::zero());
        let analysis = TreeAnalysis::new(&tree);
        assert!(analysis.try_model(root).is_some());
        // `dead` inherits the root's T_RC? No: T_RC(dead) = T_RC(root) + 0·0
        // = T_RC(root) > 0, so it *does* have a model. Build a tree that is
        // all-zero instead.
        assert!(analysis.try_model(dead).is_some());

        let mut zero_tree = RlcTree::new();
        let z = zero_tree.add_root_section(RlcSection::zero());
        let za = TreeAnalysis::new(&zero_tree);
        assert!(za.try_model(z).is_none());
        assert_eq!(za.critical_sink(), None);
    }

    #[test]
    #[should_panic(expected = "no dynamics")]
    fn model_panics_on_degenerate_node() {
        let mut zero_tree = RlcTree::new();
        let z = zero_tree.add_root_section(RlcSection::zero());
        let za = TreeAnalysis::new(&zero_tree);
        let _ = za.model(z);
    }

    #[test]
    fn report_covers_all_sinks_and_regimes() {
        // Mixed tree: an underdamped branch and an RC branch.
        let mut tree = RlcTree::new();
        let root = tree.add_root_section(s(10.0, 2e-9, 0.3e-12));
        let ringing = tree.add_section(root, s(5.0, 8e-9, 0.4e-12));
        let rc_tree = tree.add_section(root, s(200.0, 0.0, 0.4e-12));
        let analysis = TreeAnalysis::new(&tree);
        let report = analysis.report();
        // Header plus one row per sink.
        assert_eq!(report.lines().count(), 3);
        assert!(report.contains(&ringing.to_string()));
        assert!(report.contains(&rc_tree.to_string()));
        assert!(report.contains("underdamped"));
        // The underdamped sink shows an overshoot percentage, with settling.
        assert!(report.contains('%'));
        // Every row is non-empty and delay columns carry units.
        assert!(report.matches(" ps").count() >= 2 || report.matches(" ns").count() >= 2);
    }

    #[test]
    fn empty_tree_analysis() {
        let analysis = TreeAnalysis::new(&RlcTree::new());
        assert!(analysis.is_empty());
        assert_eq!(analysis.critical_sink(), None);
        assert!(analysis.sink_timings().is_empty());
    }

    #[test]
    fn inductance_lowers_damping_at_sinks() {
        let rc_tree = topology::balanced_tree(3, 2, s(25.0, 0.0, 0.5e-12));
        let rlc_tree = topology::balanced_tree(3, 2, s(25.0, 10e-9, 0.5e-12));
        let leaf_rc = TreeAnalysis::new(&rc_tree);
        let leaf = rc_tree.leaves().next().unwrap();
        assert_eq!(leaf_rc.damping(leaf), Damping::FirstOrder);
        let a = TreeAnalysis::new(&rlc_tree);
        assert!(a.model(leaf).zeta() < 2.0, "inductance should reduce ζ");
    }
}
