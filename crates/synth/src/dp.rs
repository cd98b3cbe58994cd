//! The bottom-up buffer-placement dynamic program on the EED objective.
//!
//! # The recurrence
//!
//! Classic van Ginneken buffering propagates `(load, required-time)` pairs
//! up an *RC* tree, where the Elmore delay of an edge is a closed additive
//! increment. The EED 50% delay is **not** additive — it is a nonlinear
//! function `t_pd(T_RC, T_LC)` of two path sums over the whole stage — so
//! the classic state is insufficient. Instead, each partial solution
//! ("candidate") at a cut point carries, *per downstream attachment* (a
//! sink, or the input of an already-placed buffer), the pair of partial
//! sums accumulated from the cut down to that attachment plus the arrival
//! time already banked below it:
//!
//! ```text
//! t_rc(s) = Σ_k c_k · R(cut → common(s, k))      over stage caps k below the cut
//! t_lc(s) = Σ_k c_k · L(cut → common(s, k))
//! ```
//!
//! Moving the cut up through a section `(R_e, L_e, c_e)` first adds `c_e`
//! to the stage load `C` and then extends **every** attachment uniformly:
//! `t_rc += R_e·C`, `t_lc += L_e·C` — exactly the per-section contribution
//! terms of the paper's eqs. 52–53, so when a stage is completed by a
//! driver of resistance `r` the attachment holds precisely the stage tree
//! sums at that sink and `t_pd(t_rc + r·C, t_lc) + arrival` is its EED
//! arrival time.
//!
//! # The pruning invariant
//!
//! Candidate `X` dominates `Y` iff `C_X ≤ C_Y` and every attachment of
//! `X` is covered by one of `Y` componentwise:
//! `∀ s ∈ X  ∃ t ∈ Y:  t_rc(s) ≤ t_rc(t) ∧ t_lc(s) ≤ t_lc(t) ∧
//! arrival(s) ≤ arrival(t)`. This is *exact*, not heuristic: every future
//! completion applies the same uniform increments to both candidates,
//! scaled by their loads (`C_X ≤ C_Y` keeps X's increments no larger),
//! and the fitted delay `t_pd` is monotone increasing in both sums
//! (`d/dζ[1.047·e^{−ζ/0.85} + 1.39ζ] ≥ 1.39 − 1.232 > 0`), so
//! `cost(X, F) ≤ cost(Y, F)` for every completion `F`. In the RC limit
//! (`T_LC = 0`, one sink) the rule degenerates to the classic van
//! Ginneken `(load, delay)` dominance. Dominance alone, though, only
//! bounds costs with `≤`: dropping a dominated candidate is *cost*-safe
//! but can change which of several equal-cost optima survives, so the
//! pruner additionally requires the dominator to be either strictly
//! better (certified per `domination`) or tie-break preferred. The
//! ≤ 12-site exhaustive test in this crate checks the consequence —
//! cost *and* chosen sites — bit-for-bit.

use eed::SecondOrderModel;
use rlc_tree::{NodeId, RlcTree};
use rlc_units::{Time, TimeSquared};

use crate::BufferSpec;

/// One downstream attachment of a candidate: a sink or a placed buffer's
/// input, with the partial stage sums from the current cut down to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Attach {
    /// Partial `T_RC` of the open stage, seconds.
    pub t_rc: f64,
    /// Partial `T_LC` of the open stage, seconds².
    pub t_lc: f64,
    /// EED arrival already accumulated below this attachment, seconds.
    pub arrival: f64,
}

/// A non-dominated partial solution at a cut point.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Candidate {
    /// Capacitive load the open stage presents upstream, farads.
    pub cap: f64,
    /// Buffer sites chosen below the cut (unsorted; sorted on extraction).
    pub buffers: Vec<NodeId>,
    /// Open-stage attachments, in deterministic construction order.
    pub attaches: Vec<Attach>,
}

/// The EED 50% delay for raw stage sums, total over the closed domain.
///
/// `t_rc = t_lc = 0` (an empty stage) is zero delay, and `t_rc = 0` with
/// inductance present is the undamped limit `(π/3)·√T_LC` — which the
/// fitted formula's `1.047` constant already encodes, so the extension is
/// continuous.
pub(crate) fn delay_50(t_rc: f64, t_lc: f64) -> f64 {
    if t_rc <= 0.0 {
        return if t_lc <= 0.0 {
            0.0
        } else {
            1.047 * t_lc.sqrt()
        };
    }
    SecondOrderModel::from_sums(
        Time::from_seconds(t_rc),
        TimeSquared::from_seconds_squared(t_lc),
    )
    .delay_50()
    .as_seconds()
}

/// The cost of closing a candidate's open stage with a driver of
/// resistance `r_ohms`: the worst attachment arrival.
pub(crate) fn completion_cost(cand: &Candidate, r_ohms: f64) -> f64 {
    let mut worst = f64::NEG_INFINITY;
    for a in &cand.attaches {
        let t = delay_50(a.t_rc + r_ohms * cand.cap, a.t_lc) + a.arrival;
        if t > worst {
            worst = t;
        }
    }
    worst
}

/// Strict preference between equal-cost solutions: fewer buffers, then
/// the lexicographically smaller sorted site list.
pub(crate) fn tie_prefer(a: &[NodeId], b: &[NodeId]) -> bool {
    if a.len() != b.len() {
        return a.len() < b.len();
    }
    let mut sa: Vec<usize> = a.iter().map(|n| n.index()).collect();
    let mut sb: Vec<usize> = b.iter().map(|n| n.index()).collect();
    sa.sort_unstable();
    sb.sort_unstable();
    sa < sb
}

/// Relative separation a component must show before the pruner treats a
/// dominance as *strict*. The fitted delay's `t_rc` sensitivity is
/// bounded below (`∂t_pd/∂T_RC = t'_pd(ζ)/2 ≥ 0.079`), so a relative gap
/// this far above one ulp (~1e-16) guarantees a genuine delay gap in
/// floating point; gaps inside the margin are resolved by tie-break
/// instead of being trusted as strict.
const STRICT_MARGIN: f64 = 1e-9;

/// How `x` relates to `y` under the module-level pruning invariant:
/// `None` if `x` does not dominate `y`; `Some(strict)` if it does, where
/// `strict` certifies `cost(x, F) < cost(y, F)` for **every** completion
/// `F` — either `x`'s load is smaller by [`STRICT_MARGIN`] (every future
/// increment and the final `r·C` term shrink, `r > 0`), or every
/// attachment of `x` is covered with a margin-smaller `t_rc` or
/// `arrival`, both of which translate to a delay gap with slope bounded
/// away from zero. `t_lc` participates in dominance but deliberately
/// **not** in strictness: in the overdamped regime the delay's `t_lc`
/// sensitivity decays like `e^{−ζ/0.85}` and underflows to exactly zero,
/// so a `t_lc` gap certifies nothing.
fn domination(x: &Candidate, y: &Candidate) -> Option<bool> {
    if x.cap > y.cap {
        return None;
    }
    let strictly_under = |a: f64, b: f64| a < b * (1.0 - STRICT_MARGIN);
    let mut every_attach_strict = true;
    for s in &x.attaches {
        let mut covered = false;
        let mut strict_cover = false;
        for t in &y.attaches {
            if s.t_rc <= t.t_rc && s.t_lc <= t.t_lc && s.arrival <= t.arrival {
                covered = true;
                if strictly_under(s.t_rc, t.t_rc) || strictly_under(s.arrival, t.arrival) {
                    strict_cover = true;
                    break;
                }
            }
        }
        if !covered {
            return None;
        }
        every_attach_strict &= strict_cover;
    }
    Some(strictly_under(x.cap, y.cap) || every_attach_strict)
}

/// Removes dominated candidates in place, deterministically.
///
/// A candidate is dropped only when the dominator certifies a *strictly*
/// better cost for every completion, or is itself tie-break preferred —
/// never when a non-preferred dominator might merely tie it at the final
/// completion (the max over attachments can coincide even when some
/// covered component is strictly smaller). This is what lets the DP's
/// chosen placement match the exhaustively tie-broken optimum
/// bit-for-bit, not just its cost.
fn prune(cands: &mut Vec<Candidate>) {
    let n = cands.len();
    let mut keep = vec![true; n];
    for i in 0..n {
        if !keep[i] {
            continue;
        }
        for j in 0..n {
            if i == j || !keep[j] {
                continue;
            }
            if let Some(strict) = domination(&cands[i], &cands[j]) {
                if strict || tie_prefer(&cands[i].buffers, &cands[j].buffers) {
                    keep[j] = false;
                }
            }
        }
    }
    let mut it = keep.iter();
    cands.retain(|_| *it.next().unwrap_or(&true));
}

/// Which nodes the DP may buffer, and whether it must.
#[derive(Debug, Clone, Copy)]
enum SiteMode<'a> {
    /// Every node is a free candidate site (the real DP).
    All,
    /// Buffer exactly the listed nodes (the forced-choice replay used by
    /// [`score_placement`] — same arithmetic, no choices, no pruning).
    Forced(&'a [bool]),
}

struct Dp<'a> {
    tree: &'a RlcTree,
    buffer: &'a BufferSpec,
    mode: SiteMode<'a>,
}

impl Dp<'_> {
    /// Candidates at the top of `node`'s section, children already merged
    /// and the section's own R/L/C absorbed.
    #[expect(clippy::unreachable, reason = "DP requires a non-empty tree")]
    fn run(&self) -> Vec<Candidate> {
        let n = self.tree.len();
        let mut slots: Vec<Vec<Candidate>> = vec![Vec::new(); n];
        for id in self.tree.postorder() {
            let kids = self.tree.children(id);
            let mut cands = if kids.is_empty() {
                vec![Candidate {
                    cap: 0.0,
                    buffers: Vec::new(),
                    attaches: vec![Attach {
                        t_rc: 0.0,
                        t_lc: 0.0,
                        arrival: 0.0,
                    }],
                }]
            } else {
                let mut merged = std::mem::take(&mut slots[kids[0].index()]);
                for &kid in &kids[1..] {
                    let right = std::mem::take(&mut slots[kid.index()]);
                    merged = self.merge(merged, right);
                }
                merged
            };
            self.extend(&mut cands, id);
            self.offer_buffer(&mut cands, id);
            slots[id.index()] = cands;
        }
        let mut roots = self.tree.roots().iter();
        let first = roots
            .next()
            .unwrap_or_else(|| unreachable!("DP requires a non-empty tree"));
        let mut merged = std::mem::take(&mut slots[first.index()]);
        for root in roots {
            let right = std::mem::take(&mut slots[root.index()]);
            merged = self.merge(merged, right);
        }
        merged
    }

    /// Cross-product merge of two sibling candidate sets.
    fn merge(&self, left: Vec<Candidate>, right: Vec<Candidate>) -> Vec<Candidate> {
        let mut out = Vec::with_capacity(left.len() * right.len());
        for x in &left {
            for y in &right {
                let mut buffers = x.buffers.clone();
                buffers.extend_from_slice(&y.buffers);
                let mut attaches = x.attaches.clone();
                attaches.extend_from_slice(&y.attaches);
                out.push(Candidate {
                    cap: x.cap + y.cap,
                    buffers,
                    attaches,
                });
            }
        }
        if matches!(self.mode, SiteMode::All) {
            prune(&mut out);
        }
        out
    }

    /// Absorbs section `id` into every candidate: load the section's own
    /// capacitance, then extend every attachment uniformly.
    fn extend(&self, cands: &mut [Candidate], id: NodeId) {
        let section = self.tree.section(id);
        let (r, l, c) = (
            section.resistance().as_ohms(),
            section.inductance().as_henries(),
            section.capacitance().as_farads(),
        );
        for cand in cands.iter_mut() {
            cand.cap += c;
            for a in &mut cand.attaches {
                a.t_rc += r * cand.cap;
                a.t_lc += l * cand.cap;
            }
        }
    }

    /// Adds (or forces) the "buffer at the top of section `id`" choice.
    fn offer_buffer(&self, cands: &mut Vec<Candidate>, id: NodeId) {
        let forced = match self.mode {
            SiteMode::All => None,
            SiteMode::Forced(flags) => Some(flags[id.index()]),
        };
        if forced == Some(false) {
            return;
        }
        let buffered: Vec<Candidate> = cands
            .iter()
            .map(|cand| {
                let cost = completion_cost(cand, self.buffer.resistance);
                let mut buffers = cand.buffers.clone();
                buffers.push(id);
                Candidate {
                    cap: self.buffer.input_capacitance,
                    buffers,
                    attaches: vec![Attach {
                        t_rc: 0.0,
                        t_lc: 0.0,
                        arrival: self.buffer.intrinsic_delay + cost,
                    }],
                }
            })
            .collect();
        if forced == Some(true) {
            *cands = buffered;
        } else {
            cands.extend(buffered);
            prune(cands);
        }
    }
}

/// The DP's chosen placement: the buffer sites (sorted by node index) and
/// the model EED 50% delay of the critical attachment.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Chosen buffer sites; a buffer at site `v` sits at the *top* of
    /// `v`'s section (between `parent(v)` and `v`).
    pub buffers: Vec<NodeId>,
    /// Worst source→sink model delay of the buffered net, seconds.
    pub cost: f64,
}

/// Runs the buffer-placement DP over every section of `tree`, driven by
/// `driver_r_ohms`, and returns the minimum-cost placement.
///
/// # Panics
///
/// Panics if the tree is empty.
#[expect(clippy::unreachable, reason = "non-empty tree yields candidates")]
pub fn plan_buffers(tree: &RlcTree, driver_r_ohms: f64, buffer: &BufferSpec) -> Placement {
    assert!(!tree.is_empty(), "cannot buffer an empty tree");
    let dp = Dp {
        tree,
        buffer,
        mode: SiteMode::All,
    };
    let cands = dp.run();
    let mut best: Option<(f64, &Candidate)> = None;
    for cand in &cands {
        let cost = completion_cost(cand, driver_r_ohms);
        let better = match best {
            None => true,
            Some((best_cost, best_cand)) => {
                cost < best_cost
                    || (cost == best_cost && tie_prefer(&cand.buffers, &best_cand.buffers))
            }
        };
        if better {
            best = Some((cost, cand));
        }
    }
    let (cost, cand) = best.unwrap_or_else(|| unreachable!("non-empty tree yields candidates"));
    let mut buffers = cand.buffers.clone();
    buffers.sort_unstable_by_key(|n| n.index());
    sparsify(tree, driver_r_ohms, buffer, &mut buffers, cost);
    Placement { buffers, cost }
}

/// Drops every buffer whose removal leaves the placement cost unchanged.
///
/// The DP minimizes a *max* over sink arrivals, so inside a stage shadowed
/// by the critical path the locally-dominant candidate can carry buffers
/// that improve nothing globally — an equal-cost sparser optimum exists,
/// and those extra buffers are pure area/power waste. Removal is attempted
/// highest site first, to fixpoint: keeping low indices matches the
/// fewest-buffers-then-lexicographic tie-break, which is how the
/// exhaustive reference in the test suite picks among equal-cost optima.
fn sparsify(
    tree: &RlcTree,
    driver_r_ohms: f64,
    buffer: &BufferSpec,
    buffers: &mut Vec<NodeId>,
    cost: f64,
) {
    let mut changed = true;
    while changed {
        changed = false;
        let mut k = buffers.len();
        while k > 0 {
            k -= 1;
            let mut trial = buffers.clone();
            trial.remove(k);
            let trial_cost = score_placement(tree, driver_r_ohms, buffer, &trial);
            debug_assert!(trial_cost >= cost, "removal cannot beat the DP optimum");
            if trial_cost <= cost {
                *buffers = trial;
                changed = true;
            }
        }
    }
}

/// Replays the DP arithmetic for one *fixed* set of buffer sites — the
/// identical sequence of floating-point operations the DP performs for
/// that candidate, with no pruning and no choices — and returns its cost.
///
/// This is the exhaustive-enumeration reference: minimizing
/// `score_placement` over all 2^n site subsets must reproduce
/// [`plan_buffers`] *bit-for-bit*, which the test suite asserts for every
/// tree with ≤ 12 sites.
///
/// # Panics
///
/// Panics if the tree is empty or a site is out of range.
#[expect(clippy::unreachable, reason = "non-empty tree yields a candidate")]
pub fn score_placement(
    tree: &RlcTree,
    driver_r_ohms: f64,
    buffer: &BufferSpec,
    sites: &[NodeId],
) -> f64 {
    assert!(!tree.is_empty(), "cannot score an empty tree");
    let mut flags = vec![false; tree.len()];
    for &site in sites {
        assert!(site.index() < tree.len(), "site {site} is not in the tree");
        flags[site.index()] = true;
    }
    let dp = Dp {
        tree,
        buffer,
        mode: SiteMode::Forced(&flags),
    };
    let cands = dp.run();
    debug_assert_eq!(cands.len(), 1, "forced replay is choice-free");
    cands
        .first()
        .map(|cand| completion_cost(cand, driver_r_ohms))
        .unwrap_or_else(|| unreachable!("non-empty tree yields a candidate"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_tree::{topology, RlcSection};
    use rlc_units::{Capacitance, Inductance, Resistance};

    fn spec(r: f64, cin: f64, tin: f64) -> BufferSpec {
        BufferSpec {
            resistance: r,
            input_capacitance: cin,
            intrinsic_delay: tin,
        }
    }

    fn section(r: f64, l_nh: f64, c_pf: f64) -> RlcSection {
        RlcSection::new(
            Resistance::from_ohms(r),
            Inductance::from_nanohenries(l_nh),
            Capacitance::from_picofarads(c_pf),
        )
    }

    /// Exhaustive minimum over all site subsets, with the DP's tie-break.
    fn exhaustive(tree: &RlcTree, driver_r: f64, buffer: &BufferSpec) -> (Vec<NodeId>, f64) {
        let nodes: Vec<NodeId> = tree.node_ids().collect();
        assert!(nodes.len() <= 12, "exhaustive reference is 2^n");
        let mut best: Option<(Vec<NodeId>, f64)> = None;
        for mask in 0u32..(1 << nodes.len()) {
            let sites: Vec<NodeId> = nodes
                .iter()
                .enumerate()
                .filter(|(k, _)| mask & (1 << k) != 0)
                .map(|(_, &n)| n)
                .collect();
            let cost = score_placement(tree, driver_r, buffer, &sites);
            let better = match &best {
                None => true,
                Some((b_sites, b_cost)) => {
                    cost < *b_cost || (cost == *b_cost && tie_prefer(&sites, b_sites))
                }
            };
            if better {
                best = Some((sites, cost));
            }
        }
        let (mut sites, cost) = best.expect("the empty subset is always scored");
        sites.sort_unstable_by_key(|n| n.index());
        (sites, cost)
    }

    fn assert_dp_is_exhaustive_optimum(tree: &RlcTree, driver_r: f64, buffer: &BufferSpec) {
        let plan = plan_buffers(tree, driver_r, buffer);
        let (sites, cost) = exhaustive(tree, driver_r, buffer);
        assert_eq!(
            plan.cost, cost,
            "DP cost must equal the exhaustive optimum bit-for-bit"
        );
        assert_eq!(
            plan.buffers, sites,
            "DP placement must match the exhaustive optimum"
        );
    }

    #[test]
    fn dp_matches_exhaustive_on_a_resistive_line() {
        // A long resistive line is the canonical buffering win.
        let (tree, _) = topology::single_line(8, section(400.0, 0.5, 0.9));
        assert_dp_is_exhaustive_optimum(&tree, 150.0, &spec(120.0, 4e-15, 2e-11));
    }

    #[test]
    fn dp_matches_exhaustive_on_balanced_trees() {
        // 2 levels × branching 3 = 12 sites, the test ceiling.
        let tree = topology::balanced_tree(2, 3, section(350.0, 1.0, 0.8));
        assert_dp_is_exhaustive_optimum(&tree, 100.0, &spec(90.0, 3e-15, 1.5e-11));
    }

    #[test]
    fn dp_matches_exhaustive_on_asymmetric_trees() {
        let (tree, _) = topology::fig5_asymmetric(4.0, section(300.0, 2.0, 0.6));
        assert_dp_is_exhaustive_optimum(&tree, 80.0, &spec(200.0, 5e-15, 3e-11));
    }

    #[test]
    fn dp_matches_exhaustive_on_random_trees() {
        for seed in 0..12u64 {
            let tree = topology::random_tree(
                seed,
                11,
                (Resistance::from_ohms(20.0), Resistance::from_ohms(900.0)),
                (Inductance::ZERO, Inductance::from_nanohenries(4.0)),
                (
                    Capacitance::from_femtofarads(40.0),
                    Capacitance::from_picofarads(1.2),
                ),
            );
            assert_dp_is_exhaustive_optimum(&tree, 120.0, &spec(150.0, 6e-15, 2.5e-11));
        }
    }

    #[test]
    fn buffering_a_long_line_beats_no_buffering() {
        let (tree, _) = topology::single_line(8, section(600.0, 0.5, 1.0));
        let buffer = spec(100.0, 3e-15, 1e-11);
        let plan = plan_buffers(&tree, 200.0, &buffer);
        let unbuffered = score_placement(&tree, 200.0, &buffer, &[]);
        assert!(!plan.buffers.is_empty(), "a 4.8 kΩ line wants buffers");
        assert!(plan.cost < unbuffered, "{} !< {unbuffered}", plan.cost);
    }

    #[test]
    fn tiny_net_with_expensive_buffer_stays_unbuffered() {
        let (tree, _) = topology::single_line(2, section(10.0, 0.1, 0.05));
        let plan = plan_buffers(&tree, 30.0, &spec(500.0, 5e-14, 5e-9));
        assert!(plan.buffers.is_empty(), "got {:?}", plan.buffers);
        let unbuffered = score_placement(&tree, 30.0, &spec(500.0, 5e-14, 5e-9), &[]);
        assert_eq!(plan.cost, unbuffered);
    }

    #[test]
    fn unbuffered_score_matches_tree_analysis_within_tolerance() {
        // Different float association than `TreeAnalysis`, same quantity:
        // the unbuffered stage sums at the critical sink, with the driver
        // folded in as a zero-L, zero-C root section.
        let (tree, _) = topology::fig5(section(25.0, 4.0, 0.4));
        let driver_r = 75.0;
        let cost = score_placement(&tree, driver_r, &spec(100.0, 1e-15, 1e-12), &[]);

        let mut with_driver = RlcTree::new();
        let root = with_driver.add_root_section(RlcSection::new(
            Resistance::from_ohms(driver_r),
            Inductance::ZERO,
            Capacitance::ZERO,
        ));
        with_driver.graft(Some(root), &tree);
        let timing = eed::TreeAnalysis::new(&with_driver);
        let worst = with_driver
            .leaves()
            .map(|s| timing.delay_50(s).as_seconds())
            .fold(f64::NEG_INFINITY, f64::max);
        let rel = ((cost - worst) / worst).abs();
        assert!(rel < 1e-9, "DP {cost} vs TreeAnalysis {worst}: rel {rel}");
    }

    #[test]
    fn delay_50_edge_cases_are_total_and_continuous() {
        assert_eq!(delay_50(0.0, 0.0), 0.0);
        // Undamped limit: (π/3)·√T_LC, the fit's ζ→0 constant.
        let lc = 1e-20;
        assert!((delay_50(0.0, lc) - 1.047 * lc.sqrt()).abs() < 1e-15);
        // RC limit: ln 2 · T_RC.
        let rc = 1e-9;
        assert!((delay_50(rc, 0.0) - rc * std::f64::consts::LN_2).abs() < 1e-15);
        // Continuity at tiny t_rc.
        let near = delay_50(1e-30, lc);
        assert!((near - delay_50(0.0, lc)).abs() / near < 1e-3);
    }
    #[test]
    fn eed_and_elmore_objectives_diverge() {
        // The Elmore-driven DP is the L -> 0 limit of this one: zeroing
        // every inductance collapses `delay_50` to the overdamped RC fit,
        // which is exactly what a classic van Ginneken recurrence would
        // optimize. On a heavily inductive trunk the objectives disagree:
        // per stage the inductive delay grows like sqrt(T_LC), so splitting
        // a stage buys far less than the RC view promises, and the Elmore
        // plan over-buffers. Scoring both placements on the *real* tree
        // shows the Elmore choice pays a genuine EED penalty (~8% here) —
        // the reason this DP carries T_LC at all.
        let (inductive, _) = topology::single_line(8, section(100.0, 20.0, 0.6));
        let (rc_limit, _) = topology::single_line(8, section(100.0, 0.0, 0.6));
        let buffer = spec(120.0, 5e-15, 2.5e-11);
        let eed = plan_buffers(&inductive, 100.0, &buffer);
        let elmore = plan_buffers(&rc_limit, 100.0, &buffer);
        assert_eq!(
            eed.buffers.len(),
            3,
            "EED buffers sparsely: {:?}",
            eed.buffers
        );
        assert_eq!(
            elmore.buffers.len(),
            7,
            "Elmore buffers every node: {:?}",
            elmore.buffers
        );
        let elmore_on_real = score_placement(&inductive, 100.0, &buffer, &elmore.buffers);
        assert!(
            eed.cost < 0.93 * elmore_on_real,
            "EED placement must clearly beat the Elmore placement on the inductive net: {:.3e} vs {:.3e}",
            eed.cost,
            elmore_on_real
        );
    }
}
