//! The joint wire-sizing pass over the buffered stages.
//!
//! After buffer placement fixes the stage decomposition, the buffered
//! segments (every stage driven by an inserted buffer) get one shared
//! width factor `w`: wire resistance scales as `R/w`, wire capacitance as
//! `C·w`, inductance is width-insensitive to first order, and buffer
//! input loads do not scale. The factor is found with the same
//! golden-section kernel as `rlc-opt`'s width search
//! ([`rlc_numeric::minimize::golden_min`]). A probe rewrites every
//! section of every buffered stage, so each probe re-sums those stages
//! from scratch with [`rlc_moments::flat_sums_into`] on resident
//! [`FlatTree`] copies — one O(n) sweep per stage, cheaper than one
//! O(depth) incremental edit per rewritten section.

use rlc_moments::{flat_sums, flat_sums_into, ElmoreSums};
use rlc_numeric::minimize::golden_min;
use rlc_tree::{FlatTree, NodeId, RlcTree};

use crate::dp::delay_50;
use crate::stage::{evaluate, Stage};
use crate::BufferSpec;

/// Outcome of the width search: the probed optimum and the unit-width
/// reference it must beat to be adopted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WidthOutcome {
    pub width: f64,
    pub delay: f64,
    pub unit_delay: f64,
}

/// Searches `[lo, hi]` for the width factor minimizing the net's critical
/// model delay, mutating the buffered stages in place. On return the
/// stages are left at `outcome.width`; call [`Stage::set_width`] with 1.0
/// (and re-probe) to reject the result.
pub(crate) fn size_width(
    tree: &RlcTree,
    stages: &mut [Stage],
    buffer: &BufferSpec,
    extra: &[NodeId],
    lo: f64,
    hi: f64,
) -> WidthOutcome {
    let buffered: Vec<usize> = stages
        .iter()
        .enumerate()
        .filter(|(_, s)| s.driver_site.is_some())
        .map(|(k, _)| k)
        .collect();
    let mut flats: Vec<FlatTree> = stages
        .iter()
        .map(|s| FlatTree::from_tree(&s.tree))
        .collect();
    let mut sums: Vec<ElmoreSums> = flats.iter().map(flat_sums).collect();

    let mut probe = |w: f64| -> f64 {
        for &k in &buffered {
            stages[k].set_width(w);
            for node in stages[k].tree.node_ids() {
                flats[k].set_section(node.index(), stages[k].tree.section(node));
            }
            flat_sums_into(&flats[k], &mut sums[k]);
        }
        evaluate(tree, stages, buffer, extra, |k, node| {
            delay_50(
                sums[k].rc(node).as_seconds(),
                sums[k].lc(node).as_seconds_squared(),
            )
        })
        .critical
        .1
    };

    let unit_delay = probe(1.0);
    if buffered.is_empty() {
        return WidthOutcome {
            width: 1.0,
            delay: unit_delay,
            unit_delay,
        };
    }
    let (width, delay) = golden_min(lo, hi, &mut probe);
    // golden_min's final midpoint evaluation already left the stages at
    // `width`, so the trees are consistent with the returned delay.
    WidthOutcome {
        width,
        delay,
        unit_delay,
    }
}

/// Restores every buffered stage to unit width.
pub(crate) fn reset_width(stages: &mut [Stage]) {
    for stage in stages.iter_mut().filter(|s| s.driver_site.is_some()) {
        stage.set_width(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{decompose, evaluate_model};
    use rlc_tree::{topology, RlcSection};
    use rlc_units::{Capacitance, Inductance, Resistance};

    fn section(r: f64, l_nh: f64, c_pf: f64) -> RlcSection {
        RlcSection::new(
            Resistance::from_ohms(r),
            Inductance::from_nanohenries(l_nh),
            Capacitance::from_picofarads(c_pf),
        )
    }

    #[test]
    fn probed_delay_matches_model_evaluation() {
        let (tree, sink) = topology::single_line(6, section(400.0, 1.0, 0.8));
        let b = BufferSpec {
            resistance: 100.0,
            input_capacitance: 4e-15,
            intrinsic_delay: 1e-11,
        };
        let mid = tree.path_from_root(sink)[2];
        let mut stages = decompose(&tree, 120.0, &b, &[mid]);
        let out = size_width(&tree, &mut stages, &b, &[], 0.5, 4.0);
        // Stages are left at `out.width`; the model evaluator's own sums
        // of the same trees must reproduce the probed delay exactly (the
        // flat kernel is bit-identical to tree_sums).
        let full = evaluate_model(&tree, &stages, &b, &[]);
        assert_eq!(full.critical.1, out.delay);
    }

    #[test]
    fn widening_helps_loaded_resistive_wires() {
        // Widening trades `r_drv · C·w` against `(ΣR/w) · C_fixed`: it
        // wins exactly when fixed loads (here a downstream buffer's heavy
        // input capacitance) sit behind resistive wire. Two buffer sites
        // make the middle stage carry the second buffer's 50 fF input
        // through ~4.8 kΩ of wire, so the optimum is clearly wide.
        let (tree, sink) = topology::single_line(9, section(800.0, 0.2, 0.01));
        let b = BufferSpec {
            resistance: 30.0,
            input_capacitance: 5e-14,
            intrinsic_delay: 5e-12,
        };
        let path = tree.path_from_root(sink);
        let mut stages = decompose(&tree, 50.0, &b, &[path[1], path[7]]);
        let out = size_width(&tree, &mut stages, &b, &[], 0.5, 4.0);
        assert!(out.width > 1.0, "width {}", out.width);
        assert!(out.delay < out.unit_delay);
    }

    #[test]
    fn narrowing_helps_unloaded_final_stage() {
        // The dual: a lone buffered final stage has no fixed downstream
        // load, its internal R·C is width-invariant, and the buffer's
        // `r_drv · C·w` term only grows with width — the search must
        // discover that narrow wire is optimal here, not assume wide.
        let (tree, sink) = topology::single_line(4, section(800.0, 0.2, 0.05));
        let b = BufferSpec {
            resistance: 60.0,
            input_capacitance: 2e-15,
            intrinsic_delay: 5e-12,
        };
        let mut stages = decompose(&tree, 50.0, &b, &[tree.path_from_root(sink)[1]]);
        let out = size_width(&tree, &mut stages, &b, &[], 0.5, 4.0);
        assert!(out.width < 1.0, "width {}", out.width);
        assert!(out.delay < out.unit_delay);
    }

    #[test]
    fn reset_width_restores_unit_evaluation() {
        let (tree, sink) = topology::single_line(4, section(500.0, 1.0, 0.5));
        let b = BufferSpec {
            resistance: 90.0,
            input_capacitance: 3e-15,
            intrinsic_delay: 8e-12,
        };
        let site = tree.path_from_root(sink)[1];
        let reference = {
            let stages = decompose(&tree, 70.0, &b, &[site]);
            evaluate_model(&tree, &stages, &b, &[]).critical.1
        };
        let mut stages = decompose(&tree, 70.0, &b, &[site]);
        let out = size_width(&tree, &mut stages, &b, &[], 0.5, 4.0);
        assert_ne!(out.width, 1.0);
        reset_width(&mut stages);
        let restored = evaluate_model(&tree, &stages, &b, &[]).critical.1;
        assert_eq!(restored, reference, "unit width restores the exact bytes");
    }
}
