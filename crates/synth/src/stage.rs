//! Stage decomposition of a buffered net.
//!
//! A buffer is a non-linear element, so a buffered net is not one RLC
//! tree: it is a cascade of *stages*, each a linear RLC tree driven by
//! either the source driver or a buffer's output resistance, loaded at
//! its frontier by the input capacitances of downstream buffers. The
//! model evaluator, the joint wire-sizing pass, and the `rlc-verify`
//! oracle re-simulation all operate on the *same* decomposition, which is
//! what lets the verify tier prove the optimizer's improvement on the
//! exact transfer function rather than on the model that chose it.
//!
//! Each stage tree gets a synthetic root section `(R_driver, 0, 0)` — a
//! zero-inductance, zero-capacitance series resistance — so the driving
//! resistance enters the stage sums exactly the way the DP adds
//! `r · C_stage` to `T_RC`, and the oracle sees the same circuit.

use rlc_tree::{NodeId, RlcSection, RlcTree};
use rlc_units::{Capacitance, Inductance, Resistance};

use crate::dp::delay_50;
use crate::BufferSpec;

/// One linear stage of a buffered net.
#[derive(Debug, Clone)]
pub struct Stage {
    /// The buffer site driving this stage (`None` for the source stage).
    /// A buffer at site `v` sits at the top of `v`'s section, so `v` and
    /// its unbuffered descendants are this stage's members.
    pub driver_site: Option<NodeId>,
    /// The stage circuit: synthetic driver root plus member sections,
    /// with downstream buffer input caps folded into the cut nodes.
    pub tree: RlcTree,
    /// The synthetic driver node in `tree` (the driver's output).
    pub root: NodeId,
    /// Buffer sites whose input loads this stage, in discovery order.
    pub frontier: Vec<NodeId>,
    /// Original node → stage node, dense over the original tree.
    to_stage: Vec<Option<NodeId>>,
    /// The *unsized* element values per stage node (width factor 1), with
    /// the frontier input-cap load kept separate so sizing can scale wire
    /// capacitance without scaling buffer loads.
    base: Vec<RlcSection>,
    extra_cap: Vec<Capacitance>,
}

impl Stage {
    /// The stage node carrying original node `orig`, if it is a member.
    pub fn stage_node(&self, orig: NodeId) -> Option<NodeId> {
        self.to_stage[orig.index()]
    }

    /// The cut-point node inside this stage where the buffer of frontier
    /// site `w` attaches: `parent(w)` mapped into the stage, or the
    /// synthetic driver node when `w` is an original root.
    #[expect(clippy::unreachable, reason = "a cut parent is in the cut's stage")]
    pub fn cut_node(&self, original: &RlcTree, w: NodeId) -> NodeId {
        match original.parent(w) {
            Some(p) => self
                .stage_node(p)
                .unwrap_or_else(|| unreachable!("cut parent {p} is a member of the cut's stage")),
            None => self.root,
        }
    }

    /// Rewrites every member section to wire-width factor `w`
    /// (`R/w`, `L`, `C·w` + unscaled buffer load), leaving the synthetic
    /// driver untouched. Width 1 restores the as-parsed values exactly.
    pub fn set_width(&mut self, w: f64) {
        for idx in 0..self.tree.len() {
            let node = NodeId::from_index(idx);
            if node == self.root {
                continue;
            }
            let base = self.base[idx];
            let section = RlcSection::new(
                Resistance::from_ohms(base.resistance().as_ohms() / w),
                base.inductance(),
                Capacitance::from_farads(base.capacitance().as_farads() * w),
            )
            .with_added_capacitance(self.extra_cap[idx]);
            *self.tree.section_mut(node) = section;
        }
    }
}

/// Splits `tree` at the top of every site in `sites` into linear stages.
///
/// The source stage comes first, then one stage per site in ascending
/// node-index order (so the decomposition is deterministic and every
/// stage's upstream stage precedes it — arena parents have smaller
/// indices than their children).
///
/// # Panics
///
/// Panics if the tree is empty or a site is out of range.
#[expect(clippy::unreachable, reason = "each unreachable! states its invariant")]
pub fn decompose(
    tree: &RlcTree,
    driver_r_ohms: f64,
    buffer: &BufferSpec,
    sites: &[NodeId],
) -> Vec<Stage> {
    assert!(!tree.is_empty(), "cannot decompose an empty tree");
    let n = tree.len();
    let mut is_site = vec![false; n];
    for &site in sites {
        assert!(site.index() < n, "site {site} is not in the tree");
        is_site[site.index()] = true;
    }
    let mut ordered_sites: Vec<NodeId> = sites.to_vec();
    ordered_sites.sort_unstable_by_key(|s| s.index());

    // Stage id per original node: 0 = source, 1 + rank(site) for members
    // of a buffered stage.
    let mut stage_rank = vec![usize::MAX; n];
    let rank_of_site = |v: NodeId| -> usize {
        1 + ordered_sites
            .binary_search_by_key(&v.index(), |s| s.index())
            .unwrap_or_else(|_| unreachable!("{v} is a site"))
    };
    let preorder = tree.preorder();
    for &v in &preorder {
        stage_rank[v.index()] = if is_site[v.index()] {
            rank_of_site(v)
        } else {
            match tree.parent(v) {
                Some(p) => stage_rank[p.index()],
                None => 0,
            }
        };
    }

    let mut stages: Vec<Stage> = Vec::with_capacity(1 + ordered_sites.len());
    for k in 0..=ordered_sites.len() {
        let (driver_site, r) = if k == 0 {
            (None, driver_r_ohms)
        } else {
            (Some(ordered_sites[k - 1]), buffer.resistance)
        };
        let mut stage_tree = RlcTree::new();
        let root = stage_tree.add_root_section(RlcSection::new(
            Resistance::from_ohms(r),
            Inductance::ZERO,
            Capacitance::ZERO,
        ));
        stages.push(Stage {
            driver_site,
            tree: stage_tree,
            root,
            frontier: Vec::new(),
            to_stage: vec![None; n],
            base: vec![RlcSection::new(
                Resistance::from_ohms(r),
                Inductance::ZERO,
                Capacitance::ZERO,
            )],
            extra_cap: vec![Capacitance::ZERO],
        });
    }

    // Populate members in original preorder, so stage-tree node order is
    // deterministic; fold each frontier buffer's input cap into its cut
    // node as it is discovered.
    let c_in = Capacitance::from_farads(buffer.input_capacitance);
    for &v in &preorder {
        let k = stage_rank[v.index()];
        if is_site[v.index()] {
            // Register the cut on the upstream stage before adding `v` to
            // its own stage.
            let up = match tree.parent(v) {
                Some(p) => stage_rank[p.index()],
                None => 0,
            };
            let cut = stages[up].cut_node(tree, v);
            let loaded = stages[up].tree.section(cut).with_added_capacitance(c_in);
            *stages[up].tree.section_mut(cut) = loaded;
            stages[up].extra_cap[cut.index()] += c_in;
            stages[up].frontier.push(v);
        }
        let stage = &mut stages[k];
        let parent = if is_site[v.index()] {
            stage.root
        } else {
            match tree.parent(v) {
                Some(p) => stage
                    .stage_node(p)
                    .unwrap_or_else(|| unreachable!("parent precedes child in preorder")),
                None => stage.root,
            }
        };
        let section = *tree.section(v);
        let node = stage.tree.add_section(parent, section);
        stage.to_stage[v.index()] = Some(node);
        stage.base.push(section);
        stage.extra_cap.push(Capacitance::ZERO);
    }
    stages
}

/// Arrival times of a buffered net, from per-stage delay queries.
#[derive(Debug, Clone)]
pub struct NetEval {
    /// EED arrival (seconds from the source transition) per queried
    /// original node; `None` for nodes that were not queried.
    pub arrival: Vec<Option<f64>>,
    /// Arrival per original sink, in `leaves()` order.
    pub sinks: Vec<(NodeId, f64)>,
    /// The worst sink and its arrival.
    pub critical: (NodeId, f64),
}

/// Propagates arrivals through `stages`, querying `stage_delay(stage
/// index, stage node)` for the in-stage 50% delay at each needed node.
///
/// Needed nodes are every cut point (to seed downstream stages), every
/// sink of the original tree, and `extra` (e.g. nodes carrying `.require`
/// constraints). The closure abstraction is what lets the model evaluator
/// (closed-form stage sums) and the verify tier (exact oracle transient
/// per stage) share this propagation — and therefore be comparable
/// number-for-number.
///
/// # Panics
///
/// Panics if `stages` was not produced by [`decompose`] for `tree`.
#[expect(clippy::unreachable, reason = "each unreachable! states its invariant")]
pub fn evaluate(
    tree: &RlcTree,
    stages: &[Stage],
    buffer: &BufferSpec,
    extra: &[NodeId],
    mut stage_delay: impl FnMut(usize, NodeId) -> f64,
) -> NetEval {
    let n = tree.len();
    let mut stage_of = vec![usize::MAX; n];
    for (k, stage) in stages.iter().enumerate() {
        for (slot, mapped) in stage_of.iter_mut().zip(&stage.to_stage) {
            if mapped.is_some() {
                *slot = k;
            }
        }
    }
    let mut want = vec![false; n];
    for leaf in tree.leaves() {
        want[leaf.index()] = true;
    }
    for &node in extra {
        assert!(node.index() < n, "query node {node} is not in the tree");
        want[node.index()] = true;
    }

    let mut stage_arrival = vec![0.0f64; stages.len()];
    let mut arrival: Vec<Option<f64>> = vec![None; n];
    for (k, stage) in stages.iter().enumerate() {
        // Seed downstream stages from this stage's cut points.
        for &w in &stage.frontier {
            let cut = stage.cut_node(tree, w);
            let at_cut = stage_arrival[k] + stage_delay(k, cut);
            let down = stages
                .iter()
                .position(|s| s.driver_site == Some(w))
                .unwrap_or_else(|| unreachable!("every frontier site has a stage"));
            stage_arrival[down] = at_cut + buffer.intrinsic_delay;
        }
        for idx in 0..n {
            if stage_of[idx] == k && want[idx] {
                let sn = stage.to_stage[idx]
                    .unwrap_or_else(|| unreachable!("stage_of and to_stage agree"));
                arrival[idx] = Some(stage_arrival[k] + stage_delay(k, sn));
            }
        }
    }

    let sinks: Vec<(NodeId, f64)> = tree
        .leaves()
        .map(|leaf| {
            let t = arrival[leaf.index()].unwrap_or_else(|| unreachable!("all sinks are queried"));
            (leaf, t)
        })
        .collect();
    let critical =
        sinks
            .iter()
            .copied()
            .fold((NodeId::from_index(0), f64::NEG_INFINITY), |acc, s| {
                if s.1 > acc.1 {
                    s
                } else {
                    acc
                }
            });
    NetEval {
        arrival,
        sinks,
        critical,
    }
}

/// Model evaluation of a buffered net: closed-form EED stage delays from
/// each stage's tree sums.
pub fn evaluate_model(
    tree: &RlcTree,
    stages: &[Stage],
    buffer: &BufferSpec,
    extra: &[NodeId],
) -> NetEval {
    let sums: Vec<rlc_moments::ElmoreSums> = stages
        .iter()
        .map(|stage| rlc_moments::tree_sums(&stage.tree))
        .collect();
    evaluate(tree, stages, buffer, extra, |k, node| {
        delay_50(
            sums[k].rc(node).as_seconds(),
            sums[k].lc(node).as_seconds_squared(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::score_placement;
    use rlc_tree::topology;
    use rlc_units::{Capacitance as C, Inductance as L, Resistance as R};

    fn section(r: f64, l_nh: f64, c_pf: f64) -> RlcSection {
        RlcSection::new(
            R::from_ohms(r),
            L::from_nanohenries(l_nh),
            C::from_picofarads(c_pf),
        )
    }

    fn buf() -> BufferSpec {
        BufferSpec {
            resistance: 120.0,
            input_capacitance: 5e-15,
            intrinsic_delay: 1.5e-11,
        }
    }

    #[test]
    fn unbuffered_decomposition_is_one_stage() {
        let (tree, _) = topology::single_line(4, section(100.0, 1.0, 0.5));
        let stages = decompose(&tree, 80.0, &buf(), &[]);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].driver_site, None);
        // Synthetic driver + 4 members.
        assert_eq!(stages[0].tree.len(), 5);
        assert!(stages[0].frontier.is_empty());
    }

    #[test]
    fn stage_membership_partitions_the_tree() {
        let tree = topology::balanced_tree(3, 2, section(200.0, 1.0, 0.4));
        let sites: Vec<NodeId> = tree.children(tree.roots()[0]).to_vec();
        let stages = decompose(&tree, 100.0, &buf(), &sites);
        assert_eq!(stages.len(), 3);
        // Every original node appears in exactly one stage.
        for idx in 0..tree.len() {
            let owners = stages.iter().filter(|s| s.to_stage[idx].is_some()).count();
            assert_eq!(owners, 1, "node {idx} owned by {owners} stages");
        }
        // Member counts: source stage has the root only; each child stage
        // has its half of the tree.
        assert_eq!(stages[0].tree.len(), 2);
        assert_eq!(stages[0].frontier, sites);
        assert_eq!(stages[1].tree.len(), 4);
        assert_eq!(stages[2].tree.len(), 4);
    }

    #[test]
    fn model_evaluation_matches_dp_score_within_tolerance() {
        // The DP's forced-replay cost and the stage evaluator compute the
        // same mathematical quantity through different float association;
        // they must agree to ~ulp-scale relative error on every placement.
        let (tree, _) = topology::fig5(section(300.0, 2.0, 0.6));
        let driver_r = 90.0;
        let b = buf();
        let nodes: Vec<NodeId> = tree.node_ids().collect();
        for mask in 0u32..(1 << nodes.len()) {
            let sites: Vec<NodeId> = nodes
                .iter()
                .enumerate()
                .filter(|(k, _)| mask & (1 << k) != 0)
                .map(|(_, &n)| n)
                .collect();
            let dp_cost = score_placement(&tree, driver_r, &b, &sites);
            let stages = decompose(&tree, driver_r, &b, &sites);
            let eval = evaluate_model(&tree, &stages, &b, &[]);
            let rel = ((eval.critical.1 - dp_cost) / dp_cost).abs();
            assert!(
                rel < 1e-9,
                "sites {sites:?}: DP {dp_cost} vs stages {}: rel {rel}",
                eval.critical.1
            );
        }
    }

    #[test]
    fn set_width_is_reversible_and_scales_wires_only() {
        let (tree, _) = topology::single_line(3, section(100.0, 1.0, 0.5));
        let sink_site = tree.leaves().next().unwrap();
        let mut stages = decompose(&tree, 80.0, &buf(), &[sink_site]);
        let original = stages[0].tree.clone();
        stages[0].set_width(2.0);
        let widened = &stages[0].tree;
        // Driver untouched.
        assert_eq!(
            widened.section(stages[0].root),
            original.section(stages[0].root)
        );
        // A member: R halves; C doubles *except* the c_in load.
        let member = stages[0].to_stage[0].unwrap();
        assert_eq!(
            widened.section(member).resistance().as_ohms(),
            original.section(member).resistance().as_ohms() / 2.0
        );
        stages[0].set_width(1.0);
        assert_eq!(stages[0].tree, original, "width 1 restores exactly");
    }

    #[test]
    fn arrivals_accumulate_through_buffers() {
        // Two-section line, buffer at the second section: sink arrival =
        // stage0 delay at cut + intrinsic + stage1 delay at sink.
        let (tree, sink) = topology::single_line(2, section(500.0, 1.0, 1.0));
        let b = buf();
        let stages = decompose(&tree, 100.0, &b, &[sink]);
        let eval = evaluate_model(&tree, &stages, &b, &[]);
        let sums0 = rlc_moments::tree_sums(&stages[0].tree);
        let cut = stages[0].cut_node(&tree, sink);
        let first = delay_50(
            sums0.rc(cut).as_seconds(),
            sums0.lc(cut).as_seconds_squared(),
        );
        let sums1 = rlc_moments::tree_sums(&stages[1].tree);
        let sn = stages[1].stage_node(sink).unwrap();
        let second = delay_50(sums1.rc(sn).as_seconds(), sums1.lc(sn).as_seconds_squared());
        let expected = first + b.intrinsic_delay + second;
        assert!((eval.critical.1 - expected).abs() < 1e-18);
        assert_eq!(eval.critical.0, sink);
    }
}
