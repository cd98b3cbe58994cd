//! Coupled-net crosstalk analysis over the Equivalent Elmore Delay model.
//!
//! The EED paper (Ismail–Friedman–Neves, TCAD 2000) analyzes isolated RLC
//! trees, but its target workloads — timing-driven synthesis in deep
//! submicron — are dominated by *coupled* nets. This crate closes that gap
//! with the standard closed-form decoupling approximations (cf.
//! arXiv:1304.0835 for RC-coupled delay models and arXiv:1004.4458 for
//! RC/RLC crosstalk noise):
//!
//! * **Miller-factor delay change.** Each coupling capacitor `Cc` between a
//!   victim node and an aggressor node is replaced by a grounded capacitor
//!   `k·Cc` at the victim node, where the Miller factor `k` encodes the
//!   aggressor's switching alignment: `k = 1` for a quiet aggressor
//!   (nominal), `k = 2` when the aggressor switches opposite to the victim
//!   (worst case), and `k = 0` when it switches in the same direction (best
//!   case). The folded tree is then analyzed with the unmodified O(n) EED
//!   machinery, so the victim's 50% delay comes out once per scenario and
//!   the *delay-change window* is `[best − nominal, worst − nominal]`.
//! * **Noise peak (quiet victim).** A Devgan-style upper bound: an
//!   aggressor edge injects `i ≈ Cc·slew` into the victim, which a sink
//!   sees through the shared path resistance. The slew is the *maximum*
//!   step-response slope of the aggressor's own EED model at its coupling
//!   node (the peak of the second-order impulse response, closed-form in
//!   `ζ` and `ω_n`), which stays honest for underdamped RLC edges where
//!   the RC-style `0.8/t_rise` average is low by ~2×. Summed over every
//!   coupling of the victim:
//!
//!   ```text
//!   V_peak(sink)/Vdd ≈ Σ_couplings Cc · R_common(sink, attach) · slew_max(agg)
//!   ```
//!
//! Every net of a [`CoupledGroup`] is analyzed as a victim (its neighbours
//! as aggressors), and the result renders as a deterministic, single-line
//! `rlc-couple/1` JSON object — the coupled analogue of `rlc-engine/1`'s
//! per-net entries. The estimates are differenced against the exact coupled
//! simulator (`rlc_sim::simulate_coupled`) in `rlc-verify`.
//!
//! # Examples
//!
//! ```
//! use rlc_tree::coupled::CoupledGroup;
//! use rlc_couple::analyze_group;
//!
//! let deck = "\
//! .net victim
//! R1 in n1 25
//! L1 n1 n2 2n
//! C1 n2 0 0.5p
//! .net agg
//! R1 in m1 40
//! L1 m1 m2 1n
//! C1 m2 0 0.3p
//! K1 victim.n2 agg.m2 0.1p
//! ";
//! let group = CoupledGroup::parse(deck)?;
//! let timing = analyze_group(&group, "pair");
//! let victim = &timing.victims[0];
//! let sink = &victim.sinks[0];
//! // Opposite-phase switching slows the victim; in-phase speeds it up.
//! assert!(sink.worst_delay > sink.delay_50);
//! assert!(sink.best_delay < sink.delay_50);
//! assert!(sink.noise_peak > 0.0);
//! assert!(timing.to_json().starts_with("{\"schema\": \"rlc-couple/1\""));
//! # Ok::<(), rlc_tree::TreeError>(())
//! ```

use eed::{Damping, SecondOrderModel};
use rlc_moments::{forest_sums_into, ElmoreSums};
use rlc_tree::coupled::CoupledGroup;
use rlc_tree::{FlatForest, NodeId, RlcSection, RlcTree};
use rlc_units::{Capacitance, Time};

/// Miller factor for a quiet aggressor: the coupling capacitor appears at
/// its face value.
pub const MILLER_NOMINAL: f64 = 1.0;
/// Miller factor for an aggressor switching opposite to the victim: the
/// effective coupling doubles (worst-case delay).
pub const MILLER_WORST: f64 = 2.0;
/// Miller factor for an aggressor switching with the victim: the coupling
/// vanishes (best-case delay).
pub const MILLER_BEST: f64 = 0.0;

/// Maximum slope of the unit step response of a second-order model — the
/// peak of its impulse response, in 1/s per unit swing. Closed form in
/// `(ζ, ω_n)` for every damping regime:
///
/// ```text
/// ζ < 1:  ω_n · exp(−ζ·θ/√(1−ζ²)),  θ = atan2(√(1−ζ²), ζ)
/// ζ = 1:  ω_n / e
/// ζ > 1:  ω_n/(2√(ζ²−1)) · ((a/b)^{a/(b−a)} − (a/b)^{b/(b−a)}),
///         a = ζ−√(ζ²−1), b = ζ+√(ζ²−1)
/// ```
///
/// This is the aggressor-edge slew used by the noise bound; unlike the
/// RC-style `0.8/t_rise`, it stays honest for underdamped RLC edges, whose
/// peak slope is up to `ω_n` — roughly twice the average 10–90% slew.
fn max_step_slew(model: &eed::SecondOrderModel) -> f64 {
    let zeta = model.zeta();
    let omega_n = model.omega_n().as_radians_per_second();
    if !(zeta.is_finite() && omega_n.is_finite() && omega_n > 0.0 && zeta > 0.0) {
        return f64::NAN;
    }
    if zeta < 1.0 {
        let root = (1.0 - zeta * zeta).sqrt();
        omega_n * (-zeta * root.atan2(zeta) / root).exp()
    } else if zeta == 1.0 {
        omega_n * (-1.0f64).exp()
    } else {
        let root = (zeta * zeta - 1.0).sqrt();
        let a = zeta - root;
        let b = zeta + root;
        let ratio = a / b;
        omega_n / (2.0 * root) * (ratio.powf(a / (b - a)) - ratio.powf(b / (b - a)))
    }
}

/// Crosstalk timing for one victim sink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoupledSinkTiming {
    /// The sink node (a leaf of the victim tree).
    pub node: NodeId,
    /// Nominal 50% delay (quiet aggressors, Miller factor 1).
    pub delay_50: Time,
    /// Worst-case 50% delay (all aggressors opposite, Miller factor 2).
    pub worst_delay: Time,
    /// Best-case 50% delay (all aggressors aligned, Miller factor 0).
    pub best_delay: Time,
    /// Nominal 10–90% rise time.
    pub rise_time: Time,
    /// Nominal damping factor ζ at the sink.
    pub zeta: f64,
    /// Nominal damping classification.
    pub damping: Damping,
    /// Devgan-style noise-peak bound at this sink for a quiet victim, as a
    /// fraction of the supply (0 when the victim has no couplings or every
    /// aggressor edge is unbounded).
    pub noise_peak: f64,
}

impl CoupledSinkTiming {
    /// Worst-case delay change `worst − nominal` (≥ 0: a slowdown).
    pub fn delay_change_worst(&self) -> Time {
        self.worst_delay - self.delay_50
    }

    /// Best-case delay change `best − nominal` (≤ 0: a speedup).
    pub fn delay_change_best(&self) -> Time {
        self.best_delay - self.delay_50
    }
}

/// Crosstalk analysis of one net in its role as victim.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimTiming {
    /// The net's name from its `.net` card.
    pub name: String,
    /// Section count of the victim tree.
    pub sections: usize,
    /// Names of the nets coupled to this one, in group order.
    pub aggressors: Vec<String>,
    /// Per-sink crosstalk timing, in arena order.
    pub sinks: Vec<CoupledSinkTiming>,
}

/// Crosstalk analysis of a whole coupled group: every net as victim.
///
/// Produced by [`analyze_group`]; renders as the single-line
/// `rlc-couple/1` JSON object via [`GroupTiming::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupTiming {
    /// The group's job name (assigned by the caller, like a net name in
    /// `rlc-engine/1`; result caches re-render hits under it).
    pub name: String,
    /// Number of coupling capacitors in the group.
    pub couplings: usize,
    /// Per-net victim analyses, in declaration order.
    pub victims: Vec<VictimTiming>,
}

impl GroupTiming {
    /// The victim sink with the largest worst-case delay, if any.
    pub fn critical(&self) -> Option<(&VictimTiming, &CoupledSinkTiming)> {
        self.victims
            .iter()
            .flat_map(|v| v.sinks.iter().map(move |s| (v, s)))
            .max_by(|a, b| {
                a.1.worst_delay
                    .partial_cmp(&b.1.worst_delay)
                    .unwrap_or(core::cmp::Ordering::Equal)
            })
    }

    /// Renders the deterministic single-line `rlc-couple/1` JSON object.
    ///
    /// Shape (one line; split here for readability):
    ///
    /// ```text
    /// {"schema": "rlc-couple/1", "name": …, "status": "ok",
    ///  "nets": N, "couplings": K,
    ///  "critical_victim": …|null, "critical_worst_delay_ps": …,
    ///  "victims": [
    ///    {"name": …, "sections": S, "aggressors": […],
    ///     "sinks": [{"node": i, "delay_50_ps": …, "worst_delay_ps": …,
    ///                "best_delay_ps": …, "delay_change_worst_ps": …,
    ///                "delay_change_best_ps": …, "rise_time_ps": …,
    ///                "zeta": …|null, "damping": …, "noise_peak": …}, …]}, …]}
    /// ```
    pub fn to_json(&self) -> String {
        use core::fmt::Write as _;
        use rlc_obs::json::{number, quote};

        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\": \"rlc-couple/1\", \"name\": {}, \"status\": \"ok\", \
             \"nets\": {}, \"couplings\": {}, ",
            quote(&self.name),
            self.victims.len(),
            self.couplings
        );
        match self.critical() {
            Some((victim, sink)) => {
                let _ = write!(
                    out,
                    "\"critical_victim\": {}, \"critical_worst_delay_ps\": {}, ",
                    quote(&victim.name),
                    number(sink.worst_delay.as_picoseconds())
                );
            }
            None => out.push_str("\"critical_victim\": null, "),
        }
        out.push_str("\"victims\": [");
        for (i, victim) in self.victims.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"name\": {}, \"sections\": {}, \"aggressors\": [",
                quote(&victim.name),
                victim.sections
            );
            for (j, aggressor) in victim.aggressors.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}{}", quote(aggressor));
            }
            out.push_str("], \"sinks\": [");
            for (j, sink) in victim.sinks.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let zeta = if sink.zeta.is_finite() {
                    number(sink.zeta)
                } else {
                    "null".to_owned()
                };
                let _ = write!(
                    out,
                    "{sep}{{\"node\": {}, \"delay_50_ps\": {}, \"worst_delay_ps\": {}, \
                     \"best_delay_ps\": {}, \"delay_change_worst_ps\": {}, \
                     \"delay_change_best_ps\": {}, \"rise_time_ps\": {}, \"zeta\": {}, \
                     \"damping\": {}, \"noise_peak\": {}}}",
                    sink.node.index(),
                    number(sink.delay_50.as_picoseconds()),
                    number(sink.worst_delay.as_picoseconds()),
                    number(sink.best_delay.as_picoseconds()),
                    number(sink.delay_change_worst().as_picoseconds()),
                    number(sink.delay_change_best().as_picoseconds()),
                    number(sink.rise_time.as_picoseconds()),
                    zeta,
                    quote(&sink.damping.to_string()),
                    number(sink.noise_peak),
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Folds every coupling of net `victim` onto its attach nodes as grounded
/// capacitors scaled by the Miller `factor`, returning the decoupled tree.
///
/// This is the specification of the folding; [`analyze_group`] performs the
/// same capacitance bumps in-place on a packed [`FlatForest`] instead of
/// cloning trees, with identical arithmetic (same additions, same
/// [`couplings_of`](CoupledGroup::couplings_of) order).
pub fn miller_folded_tree(group: &CoupledGroup, victim: usize, factor: f64) -> RlcTree {
    let mut tree = group.nets()[victim].tree().clone();
    if factor != 0.0 {
        for (this_end, _, cc) in group.couplings_of(victim) {
            let section = tree.section_mut(this_end.node);
            *section = RlcSection::new(
                section.resistance(),
                section.inductance(),
                section.capacitance() + Capacitance::from_farads(factor * cc.as_farads()),
            );
        }
    }
    tree
}

/// Reusable buffers for [`analyze_group_with`]: the packed forest holding
/// every Miller-folded tree variant of a group, plus the moment sums over
/// it. Contents are rebuilt from scratch on every call, so one scratch can
/// serve any sequence of groups (an engine worker keeps one per thread).
#[derive(Debug, Clone, Default)]
pub struct CoupleScratch {
    forest: FlatForest,
    sums: ElmoreSums,
}

/// Pushes net `victim`'s tree into `forest` and Miller-folds its couplings
/// in place, returning the variant's net index within the forest.
///
/// Same arithmetic and coupling order as [`miller_folded_tree`], applied to
/// the packed capacitance array instead of a cloned arena.
fn push_folded(forest: &mut FlatForest, group: &CoupledGroup, victim: usize, factor: f64) -> usize {
    let net = forest.push_tree(group.nets()[victim].tree());
    if factor != 0.0 {
        let base = forest.net_range(net).start;
        for (this_end, _, cc) in group.couplings_of(victim) {
            forest.bump_cap(
                base + this_end.node.index(),
                Capacitance::from_farads(factor * cc.as_farads()),
            );
        }
    }
    net
}

/// The second-order model at packed index `i`, or `None` for nodes with no
/// dynamics — the packed equivalent of `TreeAnalysis::try_model`.
fn model_at(sums: &ElmoreSums, i: usize) -> Option<SecondOrderModel> {
    let rc = sums.rc_at(i);
    let lc = sums.lc_at(i);
    if rc.as_seconds() == 0.0 && lc.as_seconds_squared() == 0.0 {
        None
    } else {
        Some(SecondOrderModel::from_sums(rc, lc))
    }
}

/// Analyzes every net of `group` as a victim of its neighbours.
///
/// Allocates a fresh [`CoupleScratch`] per call; batch callers should hold
/// one scratch and use [`analyze_group_with`] instead.
pub fn analyze_group(group: &CoupledGroup, name: &str) -> GroupTiming {
    analyze_group_with(group, name, &mut CoupleScratch::default())
}

/// [`analyze_group`] over caller-provided scratch buffers.
///
/// Packs all `3n` Miller-folded tree variants (nominal, worst, best per
/// net) into one [`FlatForest`] and computes every `T_RC`/`T_LC` sum with a
/// single two-pass sweep over the packed arena, then reads the per-scenario
/// second-order models back out of the shared sum buffers. Bit-identical to
/// analyzing each [`miller_folded_tree`] clone separately, without the
/// per-scenario tree clones and moment allocations.
pub fn analyze_group_with(
    group: &CoupledGroup,
    name: &str,
    scratch: &mut CoupleScratch,
) -> GroupTiming {
    let nets = group.nets();
    let n = nets.len();

    // Forest layout: nets 0..n are the nominal (quiet-neighbour) foldings —
    // they double as the aggressor-edge models for the noise bounds — and
    // victim v's worst/best variants sit at net indices n + 2v and
    // n + 2v + 1.
    let forest = &mut scratch.forest;
    forest.clear();
    for v in 0..n {
        push_folded(forest, group, v, MILLER_NOMINAL);
    }
    for v in 0..n {
        push_folded(forest, group, v, MILLER_WORST);
        push_folded(forest, group, v, MILLER_BEST);
    }
    forest_sums_into(forest, &mut scratch.sums);
    let (forest, sums) = (&scratch.forest, &scratch.sums);

    let mut victims = Vec::with_capacity(n);
    for (v, net) in nets.iter().enumerate() {
        let nominal_base = forest.net_range(v).start;
        let worst_base = forest.net_range(n + 2 * v).start;
        let best_base = forest.net_range(n + 2 * v + 1).start;

        let mut aggressors: Vec<String> = Vec::new();
        for (_, far, _) in group.couplings_of(v) {
            let far_name = nets[far.net].name();
            if !aggressors.iter().any(|n| n == far_name) {
                aggressors.push(far_name.to_owned());
            }
        }

        let tree = net.tree();
        let mut sinks = Vec::new();
        for sink in tree.leaves() {
            let Some(model) = model_at(sums, nominal_base + sink.index()) else {
                continue;
            };
            let delay_50 = model.delay_50();
            let worst_delay =
                model_at(sums, worst_base + sink.index()).map_or(delay_50, |m| m.delay_50());
            let best_delay =
                model_at(sums, best_base + sink.index()).map_or(delay_50, |m| m.delay_50());

            // Devgan-style bound, extended for RLC: every coupling injects
            // `i ≈ Cc·dv_agg/dt` through the shared path impedance. The
            // resistive term is the classic RC bound; the inductive term
            // `L_common·di/dt ≈ L_common·Cc·d²v_agg/dt²` (peak second
            // derivative of a second-order step response ≈ ω_n²) restores
            // the voltage the RC formula drops across the shared
            // inductance — without it the bound fails on RLC victims even
            // at critical damping. Aggressor edges without a finite
            // positive peak slew (no dynamics at the coupling node) are
            // skipped.
            let mut noise = 0.0;
            for (this_end, far, cc) in group.couplings_of(v) {
                let far_base = forest.net_range(far.net).start;
                let Some(agg) = model_at(sums, far_base + far.node.index()) else {
                    continue;
                };
                let slew = max_step_slew(&agg);
                if !slew.is_finite() || slew <= 0.0 {
                    continue;
                }
                let omega_n = agg.omega_n().as_radians_per_second();
                let r_common = tree.common_path_resistance(sink, this_end.node);
                let l_common = tree.common_path_inductance(sink, this_end.node);
                noise += cc.as_farads()
                    * (r_common.as_ohms() * slew + l_common.as_henries() * omega_n * omega_n);
            }

            sinks.push(CoupledSinkTiming {
                node: sink,
                delay_50,
                worst_delay,
                best_delay,
                rise_time: model.rise_time(),
                zeta: model.zeta(),
                damping: model.damping(),
                noise_peak: noise,
            });
        }
        victims.push(VictimTiming {
            name: net.name().to_owned(),
            sections: tree.len(),
            aggressors,
            sinks,
        });
    }
    GroupTiming {
        name: name.to_owned(),
        couplings: group.couplings().len(),
        victims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eed::TreeAnalysis;
    use rlc_sim::{simulate, simulate_coupled, SimOptions, Source};
    use rlc_units::Time;

    const PAIR: &str = "\
.net v
R1 in n1 25
L1 n1 n2 2n
C1 n2 0 0.5p
R2 n2 n3 25
L2 n3 n4 2n
C2 n4 0 0.5p
.net a
R1 in m1 25
L1 m1 m2 2n
C1 m2 0 0.5p
R2 m2 m3 25
L2 m3 m4 2n
C2 m4 0 0.5p
K1 v.n4 a.m4 0.2p
.end
";

    fn group() -> CoupledGroup {
        CoupledGroup::parse(PAIR).expect("test deck parses")
    }

    #[test]
    fn delay_window_orders_best_nominal_worst() {
        let timing = analyze_group(&group(), "pair");
        assert_eq!(timing.victims.len(), 2);
        assert_eq!(timing.couplings, 1);
        for victim in &timing.victims {
            assert_eq!(victim.aggressors.len(), 1);
            for sink in &victim.sinks {
                assert!(sink.best_delay < sink.delay_50, "{victim:?}");
                assert!(sink.delay_50 < sink.worst_delay, "{victim:?}");
                assert!(sink.delay_change_worst() > Time::ZERO);
                assert!(sink.delay_change_best() < Time::ZERO);
                assert!(sink.noise_peak > 0.0);
            }
        }
    }

    #[test]
    fn symmetric_pair_is_symmetric() {
        let timing = analyze_group(&group(), "pair");
        let a = &timing.victims[0].sinks[0];
        let b = &timing.victims[1].sinks[0];
        assert_eq!(a.delay_50, b.delay_50);
        assert_eq!(a.worst_delay, b.worst_delay);
        assert_eq!(a.noise_peak, b.noise_peak);
    }

    #[test]
    fn worst_case_delay_matches_exact_simulation_within_the_envelope() {
        // The acceptance gate in miniature: Miller-2 EED vs the exact
        // coupled simulator with an opposite-switching aggressor.
        let group = group();
        let timing = analyze_group(&group, "pair");
        let sink = &timing.victims[0].sinks[0];
        let opts = SimOptions::new(Time::from_picoseconds(0.5), Time::from_nanoseconds(8.0));
        let wave = &simulate_coupled(
            &group,
            &[Source::step(1.0), Source::step(-1.0)],
            &opts,
            &[(0, sink.node)],
        )[0];
        let exact = wave.delay_50(1.0).expect("victim settles").as_picoseconds();
        let predicted = sink.worst_delay.as_picoseconds();
        let error = (predicted - exact).abs() / exact;
        assert!(
            error < 0.25,
            "worst-case delay error {error:.3} (predicted {predicted:.1} ps, exact {exact:.1} ps)"
        );
    }

    #[test]
    fn noise_bound_dominates_the_simulated_peak() {
        // Devgan-style bounds overestimate; the simulated quiet-victim peak
        // must not exceed the estimate by more than measurement slack.
        let group = group();
        let timing = analyze_group(&group, "pair");
        let sink = &timing.victims[0].sinks[0];
        let opts = SimOptions::new(Time::from_picoseconds(0.5), Time::from_nanoseconds(8.0));
        let wave = &simulate_coupled(
            &group,
            &[Source::step(0.0), Source::step(1.0)],
            &opts,
            &[(0, sink.node)],
        )[0];
        let (_, simulated) = wave.peak();
        assert!(simulated > 0.0);
        assert!(
            sink.noise_peak > 0.5 * simulated,
            "estimate {} vs simulated {simulated}",
            sink.noise_peak
        );
    }

    #[test]
    fn miller_folding_matches_manual_construction() {
        let group = group();
        let folded = miller_folded_tree(&group, 0, MILLER_WORST);
        let attach = group.couplings()[0].a.node;
        let base = group.nets()[0].tree();
        let expected = base.section(attach).capacitance().as_farads()
            + 2.0 * group.couplings()[0].capacitance.as_farads();
        assert!((folded.section(attach).capacitance().as_farads() - expected).abs() < 1e-24);
        // Every other node untouched; factor 0 is the identity.
        assert_eq!(miller_folded_tree(&group, 0, MILLER_BEST), *base);
    }

    #[test]
    fn nominal_folding_equals_grounded_coupling_caps() {
        // Miller factor 1 must reproduce a plain single-net analysis of the
        // tree with the coupling cap grounded.
        let group = group();
        let folded = miller_folded_tree(&group, 0, MILLER_NOMINAL);
        let analysis = TreeAnalysis::new(&folded);
        let timing = analyze_group(&group, "pair");
        let sink = &timing.victims[0].sinks[0];
        assert_eq!(analysis.delay_50(sink.node), sink.delay_50);
        // And the folded tree sim agrees with what the model approximates.
        let opts = SimOptions::new(Time::from_picoseconds(0.5), Time::from_nanoseconds(8.0));
        let wave = &simulate(&folded, &Source::step(1.0), &opts, &[sink.node])[0];
        let exact = wave.delay_50(1.0).expect("settles").as_picoseconds();
        let err = (sink.delay_50.as_picoseconds() - exact).abs() / exact;
        assert!(err < 0.25, "nominal EED error {err:.3}");
    }

    #[test]
    fn packed_forest_matches_per_clone_analyses_bitwise() {
        // The packed-arena kernel must reproduce the per-clone TreeAnalysis
        // construction exactly — not approximately — for every scenario.
        let group = group();
        let timing = analyze_group(&group, "pair");
        for (v, victim) in timing.victims.iter().enumerate() {
            let nominal = TreeAnalysis::new(&miller_folded_tree(&group, v, MILLER_NOMINAL));
            let worst = TreeAnalysis::new(&miller_folded_tree(&group, v, MILLER_WORST));
            let best = TreeAnalysis::new(&miller_folded_tree(&group, v, MILLER_BEST));
            assert!(!victim.sinks.is_empty());
            for sink in &victim.sinks {
                assert_eq!(sink.delay_50, nominal.delay_50(sink.node));
                assert_eq!(sink.worst_delay, worst.delay_50(sink.node));
                assert_eq!(sink.best_delay, best.delay_50(sink.node));
                assert_eq!(sink.rise_time, nominal.rise_time(sink.node));
                assert_eq!(sink.zeta, nominal.model(sink.node).zeta());
            }
        }
        // Scratch reuse across different groups changes nothing.
        let mut scratch = CoupleScratch::default();
        let solo = CoupledGroup::parse(".net s\nR1 in n1 25\nC1 n1 0 0.5p\n").expect("parses");
        let _ = analyze_group_with(&solo, "warmup", &mut scratch);
        assert_eq!(analyze_group_with(&group, "pair", &mut scratch), timing);
    }

    #[test]
    fn json_is_deterministic_and_tagged() {
        let timing = analyze_group(&group(), "pair");
        let json = timing.to_json();
        assert_eq!(json, analyze_group(&group(), "pair").to_json());
        assert!(json.starts_with("{\"schema\": \"rlc-couple/1\", \"name\": \"pair\""));
        assert!(json.contains("\"status\": \"ok\""));
        assert!(json.contains("\"critical_victim\": "));
        assert!(json.contains("\"delay_change_worst_ps\": "));
        assert!(json.contains("\"noise_peak\": "));
        assert!(!json.contains('\n'));
        // Victims render in declaration order with their aggressor lists.
        let v_pos = json.find("\"name\": \"v\"").expect("victim v");
        let a_pos = json.find("\"name\": \"a\"").expect("victim a");
        assert!(v_pos < a_pos);
    }

    #[test]
    fn uncoupled_group_has_zero_window_and_noise() {
        let deck = ".net solo\nR1 in n1 25\nL1 n1 n2 2n\nC1 n2 0 0.5p\n";
        let group = CoupledGroup::parse(deck).expect("parses");
        let timing = analyze_group(&group, "solo");
        let sink = &timing.victims[0].sinks[0];
        assert_eq!(sink.worst_delay, sink.delay_50);
        assert_eq!(sink.best_delay, sink.delay_50);
        assert_eq!(sink.noise_peak, 0.0);
        assert!(timing.victims[0].aggressors.is_empty());
    }
}
