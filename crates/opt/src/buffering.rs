//! Van Ginneken buffer insertion in RLC trees.
//!
//! Van Ginneken's dynamic program (reference \[27\] of the paper: *Buffer
//! placement in distributed RC-tree networks for minimal Elmore delay*,
//! ISCAS 1990) is the canonical consumer of Elmore-style delay models: a
//! bottom-up sweep keeps, at every candidate location, the set of
//! non-dominated `(load capacitance, delay)` options over all buffer
//! placements in the subtree, and the source picks the best.
//!
//! **Placement convention**: "a buffer on node `b`" sits at the *top* of
//! section `b` — between `b`'s parent node and the section — so the
//! upstream stage sees only the buffer's input capacitance at the parent
//! node, and the buffer drives section `b` plus everything below it.
//!
//! The DP runs on classic **Elmore (RC) time constants** — the additive
//! decomposition the optimality argument needs — while [`evaluate`]
//! re-times any placement with the paper's full RLC model, stage by
//! stage. Comparing the two is exactly the workflow the paper proposes:
//! optimize with a fast fidelity-preserving model, verify with a better
//! one. [`optimal_buffer_size`] sweeps the common buffer size of a fixed
//! placement, re-timing every candidate size with [`evaluate`].

use eed::TreeAnalysis;
use rlc_tree::{NodeId, RlcSection, RlcTree};
use rlc_units::{Capacitance, Resistance, Time};

use crate::search::golden_min;

use crate::repeater::Repeater;

/// A buffer-insertion result: where to place buffers and the predicted
/// source-to-worst-sink **Elmore time constant** (multiply by ln 2 for an
/// RC 50% delay estimate; use [`evaluate`] for the RLC 50% delay).
#[derive(Debug, Clone, PartialEq)]
pub struct BufferingSolution {
    /// Nodes carrying a buffer at the top of their section.
    pub buffers: Vec<NodeId>,
    /// Elmore time constant from the driver to the slowest sink.
    pub elmore_delay: Time,
}

/// One DP option: driving this (partially buffered) subtree presents
/// capacitance `cap` and incurs worst-path Elmore constant `delay`.
#[derive(Debug, Clone)]
struct Candidate {
    cap: Capacitance,
    delay: Time,
    buffers: Vec<NodeId>,
}

/// Runs van Ginneken's algorithm on `tree`.
///
/// Buffers (size-`buffer_size` instances of `lib`) may be inserted at the
/// top of any section; the tree is driven by a source with output
/// resistance `driver_resistance`. Minimizes the worst source→sink Elmore
/// constant. Runtime is O(n·k²) for option-list length k (pruned to
/// non-dominated candidates), comfortably fast for nets of thousands of
/// sections.
///
/// # Panics
///
/// Panics if the tree is empty, `driver_resistance` is not positive, or
/// `buffer_size` is not positive.
pub fn van_ginneken(
    tree: &RlcTree,
    driver_resistance: Resistance,
    lib: &Repeater,
    buffer_size: f64,
) -> BufferingSolution {
    assert!(!tree.is_empty(), "cannot buffer an empty tree");
    assert!(
        driver_resistance.as_ohms() > 0.0,
        "driver resistance must be positive"
    );
    assert!(buffer_size > 0.0, "buffer size must be positive");

    let r_buf = lib.resistance / buffer_size;
    let c_in = lib.input_capacitance * buffer_size;
    let c_out = lib.output_capacitance * buffer_size;

    // options[node] = non-dominated candidates for the subtree rooted at
    // section `node`, as seen from the node's parent.
    let mut options: Vec<Vec<Candidate>> = vec![Vec::new(); tree.len()];

    for id in tree.postorder() {
        // Merge children candidates at this node, starting from the node's
        // own shunt capacitance.
        let mut merged = vec![Candidate {
            cap: tree.section(id).capacitance(),
            delay: Time::ZERO,
            buffers: Vec::new(),
        }];
        for &child in tree.children(id) {
            let mut next = Vec::new();
            for m in &merged {
                for c in &options[child.index()] {
                    next.push(Candidate {
                        cap: m.cap + c.cap,
                        delay: m.delay.max(c.delay),
                        buffers: concat(&m.buffers, &c.buffers),
                    });
                }
            }
            merged = prune(next);
        }

        // Traverse section `id`: Elmore adds R_id·(everything downstream).
        let r = tree.section(id).resistance();
        let mut at_top: Vec<Candidate> = merged
            .into_iter()
            .map(|m| Candidate {
                delay: m.delay + r * m.cap,
                ..m
            })
            .collect();
        // Optionally place a buffer at the top of the section: the buffer
        // absorbs the whole downstream load and presents c_in upstream.
        let buffered: Vec<Candidate> = at_top
            .iter()
            .map(|m| Candidate {
                cap: c_in,
                delay: m.delay + r_buf * (c_out + m.cap),
                buffers: {
                    let mut b = m.buffers.clone();
                    b.push(id);
                    b
                },
            })
            .collect();
        at_top.extend(buffered);
        options[id.index()] = prune(at_top);
    }

    // Source: merge root candidates; the driver charges the total load.
    let mut merged = vec![Candidate {
        cap: Capacitance::ZERO,
        delay: Time::ZERO,
        buffers: Vec::new(),
    }];
    for &root in tree.roots() {
        let mut next = Vec::new();
        for m in &merged {
            for r in &options[root.index()] {
                next.push(Candidate {
                    cap: m.cap + r.cap,
                    delay: m.delay.max(r.delay),
                    buffers: concat(&m.buffers, &r.buffers),
                });
            }
        }
        merged = prune(next);
    }
    let best = merged
        .into_iter()
        .map(|opt| Candidate {
            delay: opt.delay + driver_resistance * opt.cap,
            ..opt
        })
        .min_by(|a, b| a.delay.partial_cmp(&b.delay).expect("finite delays"))
        .expect("non-empty tree yields at least one candidate");

    let mut buffers = best.buffers;
    buffers.sort_unstable();
    buffers.dedup();
    BufferingSolution {
        buffers,
        elmore_delay: best.delay,
    }
}

fn concat(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out
}

/// Keeps the non-dominated candidates: after sorting by capacitance,
/// delays must strictly decrease.
fn prune(mut opts: Vec<Candidate>) -> Vec<Candidate> {
    opts.sort_by(|a, b| {
        a.cap
            .partial_cmp(&b.cap)
            .expect("finite caps")
            .then(a.delay.partial_cmp(&b.delay).expect("finite delays"))
    });
    let mut kept: Vec<Candidate> = Vec::with_capacity(opts.len());
    for o in opts {
        if kept.last().is_none_or(|prev| o.delay < prev.delay) {
            kept.push(o);
        }
    }
    kept
}

/// Independent Elmore-constant computation for a given placement (used for
/// verification and by callers that want to score hand-made placements).
///
/// Assumes the source drives a single root (the common net shape); with
/// multiple roots the driver term uses the total load, handled too.
///
/// # Panics
///
/// Panics if the tree is empty or any buffer id is out of range.
pub fn elmore_delay_of(
    tree: &RlcTree,
    buffers: &[NodeId],
    driver_resistance: Resistance,
    lib: &Repeater,
    buffer_size: f64,
) -> Time {
    assert!(!tree.is_empty(), "cannot evaluate an empty tree");
    let is_buf = buffer_flags(tree, buffers);
    let r_buf = lib.resistance / buffer_size;
    let c_in = lib.input_capacitance * buffer_size;
    let c_out = lib.output_capacitance * buffer_size;

    // Downstream capacitance within each stage (buffered subtrees replaced
    // by c_in at their parent).
    let mut stage_cap = vec![Capacitance::ZERO; tree.len()];
    for id in tree.postorder() {
        let mut c = tree.section(id).capacitance();
        for &ch in tree.children(id) {
            c += if is_buf[ch.index()] {
                c_in
            } else {
                stage_cap[ch.index()]
            };
        }
        stage_cap[id.index()] = c;
    }
    // The source's total load.
    let source_load: Capacitance = tree
        .roots()
        .iter()
        .map(|&r| {
            if is_buf[r.index()] {
                c_in
            } else {
                stage_cap[r.index()]
            }
        })
        .sum();

    let mut arrival = vec![Time::ZERO; tree.len()];
    let mut worst = Time::ZERO;
    for id in tree.preorder() {
        let at_section_top = match tree.parent(id) {
            None => driver_resistance * source_load,
            Some(p) => arrival[p.index()],
        };
        let entry = if is_buf[id.index()] {
            at_section_top + r_buf * (c_out + stage_cap[id.index()])
        } else {
            at_section_top
        };
        arrival[id.index()] = entry + tree.section(id).resistance() * stage_cap[id.index()];
        if tree.is_leaf(id) {
            worst = worst.max(arrival[id.index()]);
        }
    }
    worst
}

/// Re-times a buffer placement with the paper's RLC model: the buffered
/// net decomposes into stages (source → first buffers, each buffer → the
/// next), each timed with [`TreeAnalysis`]; returns the worst source→sink
/// 50% delay.
///
/// # Panics
///
/// Panics if the tree is empty, any buffer id is out of range, or
/// `buffer_size` is not positive.
pub fn evaluate(
    tree: &RlcTree,
    buffers: &[NodeId],
    driver_resistance: Resistance,
    lib: &Repeater,
    buffer_size: f64,
) -> Time {
    assert!(!tree.is_empty(), "cannot evaluate an empty tree");
    assert!(buffer_size > 0.0, "buffer size must be positive");
    let is_buf = buffer_flags(tree, buffers);
    let r_buf = lib.resistance / buffer_size;
    let c_in = lib.input_capacitance * buffer_size;
    let c_out = lib.output_capacitance * buffer_size;

    // A stage: one driver (the source or a buffer) and the unbuffered
    // region it drives, with c_in loads where deeper buffers attach.
    struct Stage {
        /// Original-tree sections whose top connects to the stage driver.
        roots: Vec<NodeId>,
        /// When the stage driver *is* the buffer of its (single) root, the
        /// root must be expanded even though it is flagged as buffered.
        driver_is_roots_buffer: bool,
        driver_r: Resistance,
        driver_c: Capacitance,
        /// Arrival time at the stage driver's input.
        arrival: Time,
    }

    let mut worst = Time::ZERO;
    let mut queue = vec![Stage {
        roots: tree.roots().to_vec(),
        driver_is_roots_buffer: false,
        driver_r: driver_resistance,
        driver_c: Capacitance::ZERO,
        arrival: Time::ZERO,
    }];

    while let Some(job) = queue.pop() {
        // Build the stage tree: a driver section, then the unbuffered
        // expansion; buffered attachment points become c_in loads and
        // spawn follow-up stages.
        let mut stage = RlcTree::new();
        let expand_root = |r: &NodeId| job.driver_is_roots_buffer || !is_buf[r.index()];
        let buffered_at_driver: Vec<NodeId> = job
            .roots
            .iter()
            .copied()
            .filter(|r| !expand_root(r))
            .collect();
        let driver_section = RlcSection::rc(
            job.driver_r,
            job.driver_c + c_in * buffered_at_driver.len() as f64,
        );
        let driver_node = stage.add_root_section(driver_section);

        // (original node, stage parent) — expand unbuffered regions.
        let mut mapping: Vec<(NodeId, NodeId)> = Vec::new(); // (stage, original)
        let mut stack: Vec<(NodeId, NodeId)> = job
            .roots
            .iter()
            .filter(|r| expand_root(r))
            .map(|&r| (r, driver_node))
            .collect();
        while let Some((orig, parent)) = stack.pop() {
            let buffered_children = tree
                .children(orig)
                .iter()
                .filter(|c| is_buf[c.index()])
                .count();
            let section = tree
                .section(orig)
                .with_added_capacitance(c_in * buffered_children as f64);
            let new_id = stage.add_section(parent, section);
            mapping.push((new_id, orig));
            for &child in tree.children(orig) {
                if !is_buf[child.index()] {
                    stack.push((child, new_id));
                }
            }
        }

        let timing = TreeAnalysis::new(&stage);
        // Arrival helper for a stage node (the driver node included).
        let arrive = |stage_id: NodeId| job.arrival + timing.delay_50(stage_id);

        // Buffers hanging directly off the stage driver.
        for b in buffered_at_driver {
            queue.push(Stage {
                roots: vec![b],
                driver_is_roots_buffer: true,
                driver_r: r_buf,
                driver_c: c_out,
                arrival: arrive(driver_node),
            });
        }
        for &(stage_id, orig) in &mapping {
            if tree.is_leaf(orig) {
                worst = worst.max(arrive(stage_id));
            }
            for &child in tree.children(orig) {
                if is_buf[child.index()] {
                    queue.push(Stage {
                        roots: vec![child],
                        driver_is_roots_buffer: true,
                        driver_r: r_buf,
                        driver_c: c_out,
                        arrival: arrive(stage_id),
                    });
                }
            }
        }
    }
    worst
}

/// A buffer-size optimization result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizedBuffering {
    /// Optimal buffer size (multiple of the library's unit buffer).
    pub size: f64,
    /// Worst source→sink RLC 50% delay at the optimum.
    pub delay: Time,
}

/// Finds the buffer size in `[min_size, max_size]` minimizing the worst
/// RLC 50% delay of a fixed placement, by golden-section search over
/// [`evaluate`].
///
/// Larger buffers drive harder (R/size) but load their upstream stage
/// more (C·size), so the placement's delay has an interior optimum in the
/// common size — the RLC analogue of the classic repeater-sizing
/// trade-off, evaluated on the paper's closed form.
///
/// # Panics
///
/// Panics if the tree is empty, any buffer id is out of range, or the
/// bounds are not positive with `min_size < max_size`.
pub fn optimal_buffer_size(
    tree: &RlcTree,
    buffers: &[NodeId],
    driver_resistance: Resistance,
    lib: &Repeater,
    min_size: f64,
    max_size: f64,
) -> SizedBuffering {
    assert!(
        min_size > 0.0 && max_size > min_size,
        "size bounds must satisfy 0 < min < max, got [{min_size}, {max_size}]"
    );
    let f = |s: f64| evaluate(tree, buffers, driver_resistance, lib, s).as_seconds();
    let (size, delay) = golden_min(min_size, max_size, f);
    SizedBuffering {
        size,
        delay: Time::from_seconds(delay),
    }
}

fn buffer_flags(tree: &RlcTree, buffers: &[NodeId]) -> Vec<bool> {
    let mut flags = vec![false; tree.len()];
    for &b in buffers {
        assert!(b.index() < tree.len(), "buffer node {b} is not in the tree");
        flags[b.index()] = true;
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_tree::{topology, RlcSection};
    use rlc_units::Inductance;

    fn rc_section(r: f64, c_pf: f64) -> RlcSection {
        RlcSection::new(
            Resistance::from_ohms(r),
            Inductance::ZERO,
            Capacitance::from_picofarads(c_pf),
        )
    }

    fn lib() -> Repeater {
        Repeater::typical_cmos_250nm()
    }

    #[test]
    fn short_wire_needs_no_buffer() {
        let (line, _) = topology::single_line(2, rc_section(10.0, 0.05));
        let sol = van_ginneken(&line, Resistance::from_ohms(100.0), &lib(), 10.0);
        assert!(sol.buffers.is_empty(), "got {:?}", sol.buffers);
    }

    #[test]
    fn long_resistive_line_gets_buffered() {
        let (line, _) = topology::single_line(20, rc_section(200.0, 0.4));
        let driver = Resistance::from_ohms(300.0);
        let sol = van_ginneken(&line, driver, &lib(), 20.0);
        assert!(
            !sol.buffers.is_empty(),
            "a 4 kΩ / 8 pF line must want buffers"
        );
        let unbuffered = elmore_delay_of(&line, &[], driver, &lib(), 20.0);
        assert!(sol.elmore_delay < unbuffered);
    }

    #[test]
    fn dp_matches_exhaustive_search_on_small_line() {
        let (line, _) = topology::single_line(5, rc_section(400.0, 0.3));
        let driver = Resistance::from_ohms(500.0);
        let size = 15.0;
        let sol = van_ginneken(&line, driver, &lib(), size);

        let nodes: Vec<NodeId> = line.node_ids().collect();
        let mut best = Time::from_seconds(f64::INFINITY);
        for mask in 0u32..(1 << nodes.len()) {
            let set: Vec<NodeId> = nodes
                .iter()
                .enumerate()
                .filter(|(k, _)| mask & (1 << k) != 0)
                .map(|(_, &n)| n)
                .collect();
            let d = elmore_delay_of(&line, &set, driver, &lib(), size);
            best = best.min(d);
        }
        assert!(
            (sol.elmore_delay.as_seconds() - best.as_seconds()).abs() <= 1e-9 * best.as_seconds(),
            "DP {} vs exhaustive {}",
            sol.elmore_delay,
            best
        );
    }

    #[test]
    fn dp_matches_exhaustive_search_on_small_tree() {
        let (tree, _) = topology::fig5(rc_section(500.0, 0.3));
        let driver = Resistance::from_ohms(400.0);
        let size = 12.0;
        let sol = van_ginneken(&tree, driver, &lib(), size);
        let nodes: Vec<NodeId> = tree.node_ids().collect();
        let mut best = Time::from_seconds(f64::INFINITY);
        for mask in 0u32..(1 << nodes.len()) {
            let set: Vec<NodeId> = nodes
                .iter()
                .enumerate()
                .filter(|(k, _)| mask & (1 << k) != 0)
                .map(|(_, &n)| n)
                .collect();
            best = best.min(elmore_delay_of(&tree, &set, driver, &lib(), size));
        }
        assert!(
            (sol.elmore_delay.as_seconds() - best.as_seconds()).abs() <= 1e-9 * best.as_seconds(),
            "DP {} vs exhaustive {}",
            sol.elmore_delay,
            best
        );
    }

    #[test]
    fn dp_delay_matches_independent_recomputation() {
        let tree = topology::balanced_tree(3, 2, rc_section(300.0, 0.25));
        let driver = Resistance::from_ohms(400.0);
        let sol = van_ginneken(&tree, driver, &lib(), 12.0);
        let recomputed = elmore_delay_of(&tree, &sol.buffers, driver, &lib(), 12.0);
        assert!(
            (sol.elmore_delay.as_seconds() - recomputed.as_seconds()).abs()
                <= 1e-9 * recomputed.as_seconds(),
            "DP {} vs recomputed {}",
            sol.elmore_delay,
            recomputed
        );
    }

    #[test]
    fn rlc_evaluation_confirms_improvement() {
        let sec = RlcSection::new(
            Resistance::from_ohms(250.0),
            Inductance::from_nanohenries(0.5),
            Capacitance::from_picofarads(0.35),
        );
        let (line, _) = topology::single_line(12, sec);
        let driver = Resistance::from_ohms(300.0);
        let sol = van_ginneken(&line, driver, &lib(), 15.0);
        assert!(!sol.buffers.is_empty());
        let buffered = evaluate(&line, &sol.buffers, driver, &lib(), 15.0);
        let unbuffered = evaluate(&line, &[], driver, &lib(), 15.0);
        assert!(
            buffered < unbuffered,
            "buffered {buffered} vs unbuffered {unbuffered}"
        );
    }

    #[test]
    fn evaluate_unbuffered_matches_direct_analysis() {
        let (line, _) = topology::single_line(4, rc_section(100.0, 0.2));
        let driver = Resistance::from_ohms(200.0);
        let d = evaluate(&line, &[], driver, &lib(), 10.0);
        // Manual: driver section + the line, one stage.
        let mut manual = RlcTree::new();
        let drv = manual.add_root_section(RlcSection::rc(driver, Capacitance::ZERO));
        manual.graft(Some(drv), &line);
        let timing = TreeAnalysis::new(&manual);
        let sink = manual.leaves().next().expect("sink");
        let expect = timing.delay_50(sink);
        assert!(
            (d.as_seconds() - expect.as_seconds()).abs() < 1e-12 * expect.as_seconds(),
            "{d} vs {expect}"
        );
    }

    #[test]
    fn evaluate_matches_elmore_in_rc_wyatt_limit() {
        // For an RC net, the stagewise EED evaluation is the Wyatt delay
        // per stage; with no buffers it must be ln2 × the Elmore constant.
        let (line, _) = topology::single_line(6, rc_section(150.0, 0.25));
        let driver = Resistance::from_ohms(250.0);
        let eed = evaluate(&line, &[], driver, &lib(), 10.0);
        let elmore = elmore_delay_of(&line, &[], driver, &lib(), 10.0);
        let ratio = eed.as_seconds() / elmore.as_seconds();
        assert!(
            (ratio - core::f64::consts::LN_2).abs() < 1e-9,
            "ratio {ratio}"
        );
    }

    #[test]
    fn buffer_isolates_branch_load() {
        // Classic van Ginneken motivation: a buffer shields the critical
        // path from a big side load. Critical sink: fast branch; side
        // branch: huge capacitance.
        let mut tree = RlcTree::new();
        let trunk = tree.add_root_section(rc_section(100.0, 0.1));
        let _critical = tree.add_section(trunk, rc_section(100.0, 0.1));
        let side = tree.add_section(trunk, rc_section(50.0, 40.0)); // 40 pF monster
        let driver = Resistance::from_ohms(500.0);
        let sol = van_ginneken(&tree, driver, &lib(), 20.0);
        assert!(
            sol.buffers.contains(&side),
            "the side load should be buffered, got {:?}",
            sol.buffers
        );
    }

    #[test]
    fn optimal_buffer_size_beats_the_extremes() {
        let (line, _) = topology::single_line(16, rc_section(250.0, 0.4));
        let driver = Resistance::from_ohms(300.0);
        let sol = van_ginneken(&line, driver, &lib(), 20.0);
        assert!(!sol.buffers.is_empty());
        let best = optimal_buffer_size(&line, &sol.buffers, driver, &lib(), 1.0, 200.0);
        assert!(
            best.size > 1.5 && best.size < 190.0,
            "interior optimum, got {}",
            best.size
        );
        let tiny = evaluate(&line, &sol.buffers, driver, &lib(), 1.0);
        let huge = evaluate(&line, &sol.buffers, driver, &lib(), 200.0);
        assert!(best.delay < tiny && best.delay < huge);
    }

    #[test]
    #[should_panic(expected = "size bounds")]
    fn optimal_buffer_size_rejects_inverted_bounds() {
        let (line, sink) = topology::single_line(3, rc_section(100.0, 0.2));
        let _ = optimal_buffer_size(
            &line,
            &[sink],
            Resistance::from_ohms(100.0),
            &lib(),
            8.0,
            2.0,
        );
    }

    #[test]
    #[should_panic(expected = "cannot buffer an empty tree")]
    fn rejects_empty_tree() {
        let _ = van_ginneken(&RlcTree::new(), Resistance::from_ohms(100.0), &lib(), 1.0);
    }

    #[test]
    #[should_panic(expected = "buffer node")]
    fn evaluate_rejects_foreign_buffer() {
        let (big, _) = topology::single_line(9, rc_section(10.0, 0.1));
        let foreign = big.node_ids().last().expect("nodes");
        let (line, _) = topology::single_line(2, rc_section(10.0, 0.1));
        let _ = evaluate(&line, &[foreign], Resistance::from_ohms(10.0), &lib(), 1.0);
    }
}
