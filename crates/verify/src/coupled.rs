//! Coupled-group conformance: the closed-form Miller/Devgan crosstalk
//! estimates of `rlc-couple` against the exact coupled simulator.
//!
//! The single-net harness ([`crate::conformance`]) validates the EED delay
//! on isolated trees; this module extends the same differential
//! methodology to *coupled* groups. A seeded corpus of aggressor/victim
//! topologies is generated across the paper's damping regimes, the
//! critical victim sink of each group is analyzed with
//! [`rlc_couple::analyze_group`], and the predictions are differenced
//! against `rlc_sim::simulate_coupled` — the dense trapezoidal MNA of the
//! *full* coupled group, with no decoupling approximation — under the
//! switching scenarios the Miller factors encode:
//!
//! * **nominal**: the victim steps, every aggressor is quiet;
//! * **worst**: every aggressor steps opposite to the victim (Miller 2);
//! * **best**: every aggressor steps with the victim (Miller 0);
//! * **noise**: the victim is quiet, every aggressor steps — the peak of
//!   the victim bounce is compared against the Devgan-style bound.
//!
//! Delay scenarios are gated at the paper's Section V envelope of 25%; the
//! worst-case delay *change* is gated at 25% of the nominal delay (the
//! change itself is a difference of two nearby delays, so a plain relative
//! error on it would be ill-conditioned). The noise scenario gates the
//! *bound property*: the simulated peak may not exceed the estimate by
//! more than measurement slack.

use rlc_couple::{analyze_group, CoupledSinkTiming};
use rlc_sim::{simulate_coupled, SimOptions, Source, Waveform};
use rlc_tree::coupled::CoupledGroup;
use rlc_tree::NodeId;
use rlc_units::Time;

use crate::corpus::{build_net, Regime, SplitMix64};
use crate::oracle::OracleError;

/// Parameters of a coupled-corpus generation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoupledSpec {
    /// Master seed; every group derives its own seed from this one.
    pub seed: u64,
    /// Number of coupled groups to generate.
    pub groups: usize,
    /// Upper bound on sections per net (lower bound is 3).
    pub max_sections: usize,
}

impl CoupledSpec {
    /// A spec with the given seed and the defaults used by the
    /// `conformance` binary: 102 groups of 2–3 nets, up to 8 sections each.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            groups: 102,
            max_sections: 8,
        }
    }
}

/// One generated coupled group, with enough metadata to replay it.
#[derive(Debug, Clone)]
pub struct CorpusGroup {
    /// Human-readable name (`grp017-underdamped-3net`).
    pub name: String,
    /// The per-group seed: `build_group(seed, regime, max_sections)`
    /// rebuilds this exact group.
    pub seed: u64,
    /// The regime every net of the group was steered into.
    pub regime: Regime,
    /// The parsed group.
    pub group: CoupledGroup,
}

/// A generated coupled corpus.
#[derive(Debug, Clone)]
pub struct CoupledCorpus {
    /// The generated groups, in index order.
    pub groups: Vec<CorpusGroup>,
}

impl CoupledCorpus {
    /// Generates `spec.groups` groups, cycling regimes so the corpus is
    /// evenly stratified.
    pub fn generate(spec: &CoupledSpec) -> Self {
        let mut master = SplitMix64::new(spec.seed);
        let groups = (0..spec.groups)
            .map(|i| {
                let regime = Regime::ALL[i % Regime::ALL.len()];
                let mut g = build_group(master.next_u64(), regime, spec.max_sections);
                let nets = g.group.nets().len();
                g.name = format!("grp{i:03}-{}-{}net", regime.name(), nets);
                g
            })
            .collect();
        Self { groups }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Returns `true` if the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// Builds a single coupled group from its per-group seed. Deterministic:
/// the same `(seed, regime, max_sections)` triple always yields the same
/// group — this is the replay path recorded in conformance reports.
///
/// The group has 2–3 nets (each an independently generated regime-steered
/// tree, cf. [`build_net`]), chained bus-style by coupling capacitors
/// between randomly chosen section nodes of adjacent nets, plus
/// occasionally one extra random coupling. Each coupling capacitor is
/// 5–30% of the smaller attached ground capacitance, so the corpus stays
/// in the regime where Miller decoupling is meaningful (a coupling cap
/// dwarfing its victim's ground cap would make any decoupled model
/// meaningless *and* is not how adjacent wires are extracted).
pub fn build_group(seed: u64, regime: Regime, max_sections: usize) -> CorpusGroup {
    use std::fmt::Write as _;

    let mut rng = SplitMix64::new(seed);
    let net_count = 2 + (rng.next_u64() % 2) as usize;
    let nets: Vec<_> = (0..net_count)
        .map(|_| build_net(rng.next_u64(), regime, max_sections))
        .collect();

    // Render the group as a coupled deck and re-parse it, so generated
    // groups exercise the exact same front door as user decks.
    let mut deck = String::new();
    for (i, net) in nets.iter().enumerate() {
        let _ = writeln!(deck, ".net g{i}");
        let body = net.tree.canonical_deck();
        let body = body
            .strip_prefix(".input in\n")
            .unwrap_or(&body)
            .strip_suffix(".end\n")
            .unwrap_or(&body);
        deck.push_str(body);
    }
    let coupling_count = (net_count - 1) + (rng.next_u64() % 2) as usize;
    for k in 0..coupling_count {
        // Chain adjacent nets first (a bus), then one extra random pair.
        let (a, b) = if k < net_count - 1 {
            (k, k + 1)
        } else {
            let a = (rng.next_u64() % net_count as u64) as usize;
            let b = (a + 1 + (rng.next_u64() % (net_count as u64 - 1)) as usize) % net_count;
            (a, b)
        };
        let ids_a: Vec<NodeId> = nets[a].tree.node_ids().collect();
        let ids_b: Vec<NodeId> = nets[b].tree.node_ids().collect();
        let na = ids_a[(rng.next_u64() % ids_a.len() as u64) as usize];
        let nb = ids_b[(rng.next_u64() % ids_b.len() as u64) as usize];
        let ca = nets[a].tree.section(na).capacitance().as_farads();
        let cb = nets[b].tree.section(nb).capacitance().as_farads();
        let cc = (0.05 + 0.25 * rng.next_f64()) * ca.min(cb);
        let _ = writeln!(
            deck,
            "K{} g{a}.n{} g{b}.n{} {cc:e}",
            k + 1,
            na.index(),
            nb.index()
        );
    }
    deck.push_str(".end\n");
    let group = CoupledGroup::parse(&deck).expect("generated coupled decks parse");

    CorpusGroup {
        name: format!("seed{seed:016x}-{}-{}net", regime.name(), net_count),
        seed,
        regime,
        group,
    }
}

/// Reference crosstalk numbers measured from exact coupled simulations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoupledMeasurement {
    /// Exact 50% delay with quiet aggressors.
    pub nominal: Time,
    /// Exact 50% delay with every aggressor switching opposite.
    pub worst: Time,
    /// Exact 50% delay with every aggressor switching in phase.
    pub best: Time,
    /// Peak victim bounce with a quiet victim and stepping aggressors, as
    /// a fraction of the supply.
    pub noise_peak: f64,
    /// Simulation steps of the accepted (finest) run.
    pub steps: usize,
}

/// The exact coupled-simulation oracle.
///
/// The search strategy mirrors [`crate::Oracle`]: timescales are seeded
/// from the second-order model of the *Miller-2 folded* victim tree (the
/// slowest scenario), the horizon doubles until the worst-case response
/// has settled, and the step is halved until the worst-case delay stops
/// moving. The accepted discretization is then reused for the other three
/// scenarios of the same group — they share the group's dynamics, and the
/// worst case bounds their timescales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoupledOracle {
    /// Hard cap on steps per simulation run (the coupled MNA is O(N²) per
    /// step, so this bounds runtime).
    pub max_steps: usize,
    /// Relative agreement required between a run and its half-step
    /// refinement before the worst-case delay is accepted.
    pub convergence: f64,
}

impl Default for CoupledOracle {
    fn default() -> Self {
        Self {
            max_steps: 40_000,
            convergence: 5e-3,
        }
    }
}

/// Step amplitude used for every coupled oracle simulation.
const STEP_V: f64 = 1.0;
/// The settled band around the final value required before measuring.
const SETTLE_TOL: f64 = 5e-3;
/// Horizon doublings before giving up on settling.
const MAX_HORIZON_DOUBLINGS: usize = 8;
/// Step halvings allowed during convergence refinement.
const MAX_REFINEMENTS: usize = 2;

impl CoupledOracle {
    /// An oracle with a reduced step budget, for fast in-tree smoke tests.
    pub fn with_max_steps(max_steps: usize) -> Self {
        assert!(max_steps >= 1_000, "oracle needs a sane step budget");
        Self {
            max_steps,
            ..Self::default()
        }
    }

    /// Measures the reference crosstalk response of `group` at `sink` of
    /// net `victim` under all four switching scenarios.
    ///
    /// # Panics
    ///
    /// Panics if `victim` or `sink` is out of range for the group.
    pub fn measure(
        &self,
        group: &CoupledGroup,
        victim: usize,
        sink: NodeId,
    ) -> Result<CoupledMeasurement, OracleError> {
        // Timescale seeds from the Miller-2 folded victim (the slowest
        // victim scenario) and, for the horizon, the slowest sink model of
        // *any* net — aggressor ringing rides on the victim waveform, so
        // the horizon must cover it too.
        let folded = rlc_couple::miller_folded_tree(group, victim, rlc_couple::MILLER_WORST);
        let sums = rlc_moments::tree_sums(&folded);
        let (t_rc, t_lc) = (sums.rc(sink), sums.lc(sink));
        if t_rc.as_seconds() == 0.0 && t_lc.as_seconds_squared() == 0.0 {
            return Err(OracleError::NoDynamics);
        }
        let model = eed::SecondOrderModel::from_sums(t_rc, t_lc);
        let est_delay = model.delay_50().as_seconds();
        let mut est_settle = model.settling_time(0.02).as_seconds();
        for (i, net) in group.nets().iter().enumerate() {
            let tree = rlc_couple::miller_folded_tree(group, i, rlc_couple::MILLER_NOMINAL);
            let sums = rlc_moments::tree_sums(&tree);
            for leaf in net.tree().leaves() {
                let m = eed::SecondOrderModel::from_sums(sums.rc(leaf), sums.lc(leaf));
                let settle = m.settling_time(0.02).as_seconds();
                if settle.is_finite() {
                    est_settle = est_settle.max(settle);
                }
            }
        }
        let mut dt = est_delay / 100.0;
        if model.zeta().is_finite() {
            dt = dt.min(model.omega_n().period_time().as_seconds() / 50.0);
        }
        let mut t_stop = 3.0 * est_settle + 4.0 * est_delay;

        let nets = group.nets().len();
        let sources = |victim_v: f64, aggressor_v: f64| -> Vec<Source> {
            (0..nets)
                .map(|i| {
                    if i == victim {
                        Source::step(victim_v)
                    } else {
                        Source::step(aggressor_v)
                    }
                })
                .collect()
        };

        // Horizon search on the worst case (largest effective capacitance,
        // hence the slowest settle of the four scenarios).
        let worst_sources = sources(STEP_V, -STEP_V);
        let mut wave = self.run(group, &worst_sources, victim, sink, dt, t_stop);
        let mut settled = false;
        for _ in 0..=MAX_HORIZON_DOUBLINGS {
            if (wave.last_value() - STEP_V).abs() <= SETTLE_TOL * STEP_V
                && wave.try_settling_time(STEP_V, 0.1).is_ok()
            {
                settled = true;
                break;
            }
            t_stop *= 2.0;
            wave = self.run(group, &worst_sources, victim, sink, dt, t_stop);
        }
        if !settled {
            return Err(OracleError::DidNotSettle { horizon_s: t_stop });
        }

        // Step refinement on the worst-case delay (the gated headline).
        let mut worst = wave.try_delay_50(STEP_V)?.as_seconds();
        for _ in 0..MAX_REFINEMENTS {
            if dt / 2.0 <= t_stop / self.max_steps as f64 {
                break;
            }
            let finer = self.run(group, &worst_sources, victim, sink, dt / 2.0, t_stop);
            let finer_delay = finer.try_delay_50(STEP_V)?.as_seconds();
            let moved = (finer_delay - worst).abs() / finer_delay.max(f64::MIN_POSITIVE);
            dt /= 2.0;
            wave = finer;
            worst = finer_delay;
            if moved <= self.convergence {
                break;
            }
        }

        let nominal_wave = self.run(group, &sources(STEP_V, 0.0), victim, sink, dt, t_stop);
        let best_wave = self.run(group, &sources(STEP_V, STEP_V), victim, sink, dt, t_stop);
        let noise_wave = self.run(group, &sources(0.0, STEP_V), victim, sink, dt, t_stop);
        Ok(CoupledMeasurement {
            nominal: nominal_wave.try_delay_50(STEP_V)?,
            worst: wave.try_delay_50(STEP_V)?,
            best: best_wave.try_delay_50(STEP_V)?,
            noise_peak: noise_wave.peak().1.max(0.0),
            steps: wave.len(),
        })
    }

    /// One coupled simulation run with the step coarsened to the budget.
    fn run(
        &self,
        group: &CoupledGroup,
        sources: &[Source],
        victim: usize,
        sink: NodeId,
        dt: f64,
        t_stop: f64,
    ) -> Waveform {
        let dt = dt.max(t_stop / self.max_steps as f64);
        let options = SimOptions::new(Time::from_seconds(dt), Time::from_seconds(t_stop));
        let mut waves = simulate_coupled(group, sources, &options, &[(victim, sink)]);
        waves.swap_remove(0)
    }
}

/// The crosstalk quantities under test, each with its own error metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoupledScenario {
    /// Quiet-aggressor 50% delay, relative to the exact nominal delay.
    NominalDelay,
    /// Miller-2 worst-case delay, relative to the exact opposite-phase
    /// delay — the acceptance headline.
    WorstDelay,
    /// Miller-0 best-case delay, relative to the exact in-phase delay.
    BestDelay,
    /// Worst-case delay *change* (`worst − nominal`), normalized by the
    /// exact nominal delay (the change itself is a difference of nearby
    /// delays, so plain relative error on it is ill-conditioned).
    DelayChangeWorst,
    /// Bound shortfall `max(0, sim/bound − 1)`: how far the simulated
    /// quiet-victim peak exceeds the Devgan-style estimate. Zero whenever
    /// the bound holds, as it should.
    NoiseBound,
}

impl CoupledScenario {
    /// Every scenario, in report order.
    pub const ALL: [CoupledScenario; 5] = [
        CoupledScenario::NominalDelay,
        CoupledScenario::WorstDelay,
        CoupledScenario::BestDelay,
        CoupledScenario::DelayChangeWorst,
        CoupledScenario::NoiseBound,
    ];

    /// Stable identifier used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CoupledScenario::NominalDelay => "nominal-delay",
            CoupledScenario::WorstDelay => "worst-delay",
            CoupledScenario::BestDelay => "best-delay",
            CoupledScenario::DelayChangeWorst => "delay-change-worst",
            CoupledScenario::NoiseBound => "noise-bound",
        }
    }

    /// The enforced ceiling on the worst-case error metric.
    ///
    /// Delay scenarios inherit the paper's Section V envelope of 25%
    /// (cf. [`crate::ModelKind::tolerance`]); the noise scenario allows
    /// 10% of bound shortfall as discretization slack — a Devgan-style
    /// bound that the exact simulation materially exceeds is a bug, not
    /// an approximation error.
    pub fn tolerance(self) -> f64 {
        match self {
            CoupledScenario::NominalDelay
            | CoupledScenario::WorstDelay
            | CoupledScenario::BestDelay
            | CoupledScenario::DelayChangeWorst => 0.25,
            CoupledScenario::NoiseBound => 0.10,
        }
    }
}

/// Per-group outcome: the exact reference and the closed-form prediction
/// at the group's critical victim sink.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledOutcome {
    /// The group's name.
    pub group: String,
    /// The group's replayable seed.
    pub seed: u64,
    /// Name of the net analyzed as victim (the critical victim).
    pub victim: String,
    /// The observed sink within the victim.
    pub sink: NodeId,
    /// Nominal ζ at the sink (from the closed-form analysis).
    pub zeta: f64,
    /// The exact reference measurements.
    pub reference: CoupledMeasurement,
    /// The closed-form predictions.
    pub predicted: CoupledSinkTiming,
}

impl CoupledOutcome {
    /// The error metric of one scenario (see [`CoupledScenario`]).
    pub fn error(&self, scenario: CoupledScenario) -> f64 {
        let (reference, predicted) = self.values(scenario);
        match scenario {
            CoupledScenario::NominalDelay
            | CoupledScenario::WorstDelay
            | CoupledScenario::BestDelay => (predicted - reference).abs() / reference,
            CoupledScenario::DelayChangeWorst => {
                (predicted - reference).abs() / self.reference.nominal.as_picoseconds()
            }
            CoupledScenario::NoiseBound => {
                if predicted > 0.0 {
                    (reference / predicted - 1.0).max(0.0)
                } else if reference > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                }
            }
        }
    }

    /// The `(reference, predicted)` pair of one scenario, in its natural
    /// unit (picoseconds for delays, supply fraction for noise).
    pub fn values(&self, scenario: CoupledScenario) -> (f64, f64) {
        match scenario {
            CoupledScenario::NominalDelay => (
                self.reference.nominal.as_picoseconds(),
                self.predicted.delay_50.as_picoseconds(),
            ),
            CoupledScenario::WorstDelay => (
                self.reference.worst.as_picoseconds(),
                self.predicted.worst_delay.as_picoseconds(),
            ),
            CoupledScenario::BestDelay => (
                self.reference.best.as_picoseconds(),
                self.predicted.best_delay.as_picoseconds(),
            ),
            CoupledScenario::DelayChangeWorst => (
                (self.reference.worst - self.reference.nominal).as_picoseconds(),
                self.predicted.delay_change_worst().as_picoseconds(),
            ),
            CoupledScenario::NoiseBound => (self.reference.noise_peak, self.predicted.noise_peak),
        }
    }
}

/// Error statistics for one scenario over the coupled corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledStats {
    /// The scenario.
    pub scenario: CoupledScenario,
    /// Groups with a measurement.
    pub count: usize,
    /// Mean error metric.
    pub mean_abs: f64,
    /// 95th-percentile error metric.
    pub p95_abs: f64,
    /// Worst error metric.
    pub max_abs: f64,
    /// Name of the worst-case group.
    pub worst_group: String,
    /// Replayable per-group seed of the worst case.
    pub worst_seed: u64,
    /// Victim net of the worst case.
    pub worst_victim: String,
    /// Exact reference of the worst case (ps for delays, supply fraction
    /// for noise).
    pub worst_ref: f64,
    /// Prediction of the worst case (same unit as `worst_ref`).
    pub worst_pred: f64,
    /// `false` when `max_abs` exceeds the scenario tolerance.
    pub pass: bool,
}

/// The outcome of a coupled conformance run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledReport {
    /// The spec the corpus was generated from.
    pub spec: CoupledSpec,
    /// Per-group outcomes for groups the oracle measured.
    pub outcomes: Vec<CoupledOutcome>,
    /// Groups the oracle could not measure, with the reason.
    pub skipped: Vec<(String, OracleError)>,
    /// Per-scenario statistics, in [`CoupledScenario::ALL`] order.
    pub stats: Vec<CoupledStats>,
    /// Hard contract violations (a generated group that fails the coupled
    /// lint screen, or a bound with no estimate).
    pub violations: Vec<String>,
}

impl CoupledReport {
    /// `true` when every scenario is within tolerance and no hard contract
    /// was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.stats.iter().all(|s| s.pass)
    }

    /// Statistics for one scenario.
    pub fn stats_for(&self, scenario: CoupledScenario) -> &CoupledStats {
        self.stats
            .iter()
            .find(|s| s.scenario == scenario)
            .expect("stats cover every scenario")
    }

    /// Renders the `"coupled"` object of the `rlc-verify/1` schema into
    /// `out`. Deterministic, like the enclosing report.
    pub(crate) fn render_json(&self, out: &mut String) {
        use core::fmt::Write as _;
        use rlc_obs::json::{number, quote};

        let _ = write!(
            out,
            "{{\"seed\": {}, \"groups\": {}, \"max_sections\": {}, \"measured\": {}, \"skipped\": [",
            self.spec.seed,
            self.spec.groups,
            self.spec.max_sections,
            self.outcomes.len()
        );
        for (i, (name, why)) in self.skipped.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"group\": {}, \"reason\": {}}}",
                quote(name),
                quote(&why.to_string())
            );
        }
        out.push_str("], \"scenarios\": [");
        for (i, s) in self.stats.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"scenario\": {}, \"count\": {}, \"mean_abs\": {}, \
                 \"p95_abs\": {}, \"max_abs\": {}, ",
                quote(s.scenario.name()),
                s.count,
                number(s.mean_abs),
                number(s.p95_abs),
                number(s.max_abs)
            );
            let _ = write!(
                out,
                "\"worst\": {{\"group\": {}, \"seed\": {}, \"victim\": {}, \"ref\": {}, \
                 \"pred\": {}}}, \"tolerance\": {}, \"pass\": {}}}",
                quote(&s.worst_group),
                quote(&format!("{:#018x}", s.worst_seed)),
                quote(&s.worst_victim),
                number(s.worst_ref),
                number(s.worst_pred),
                number(s.scenario.tolerance()),
                s.pass
            );
        }
        out.push_str("\n  ], \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}", quote(v));
        }
        let _ = write!(out, "], \"pass\": {}}}", self.passed());
    }
}

/// The coupled conformance runner.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CoupledConformance {
    oracle: CoupledOracle,
}

impl CoupledConformance {
    /// A runner with an explicit oracle configuration.
    pub fn with_oracle(oracle: CoupledOracle) -> Self {
        Self { oracle }
    }

    /// Generates the corpus from `spec` and evaluates every group.
    pub fn run(&self, spec: &CoupledSpec) -> CoupledReport {
        self.run_corpus(spec, &CoupledCorpus::generate(spec))
    }

    /// Evaluates every group of an already-generated corpus.
    ///
    /// Each group's canonical deck is first screened through the coupled
    /// lint front door (a generated group the pipeline would reject is a
    /// generator bug), then its critical victim sink — the one
    /// `rlc_couple` flags as the worst-case — is measured by the oracle
    /// and differenced against the closed-form predictions.
    pub fn run_corpus(&self, spec: &CoupledSpec, corpus: &CoupledCorpus) -> CoupledReport {
        let mut outcomes = Vec::with_capacity(corpus.len());
        let mut skipped = Vec::new();
        let mut violations = Vec::new();

        for g in &corpus.groups {
            let lint = rlc_lint::lint_coupled_group(&g.group);
            if !lint.is_clean() {
                violations.push(format!(
                    "{}: generated group lints with errors: {:?}",
                    g.name,
                    lint.codes()
                ));
                continue;
            }
            let timing = analyze_group(&g.group, &g.name);
            let Some((victim_timing, sink_timing)) = timing.critical() else {
                violations.push(format!("{}: group has no victim sinks", g.name));
                continue;
            };
            let victim = g
                .group
                .net_index(&victim_timing.name)
                .expect("critical victim is a group net");
            if sink_timing.noise_peak <= 0.0 {
                violations.push(format!(
                    "{}: critical victim {} has no noise bound despite couplings",
                    g.name, victim_timing.name
                ));
                continue;
            }
            match self.oracle.measure(&g.group, victim, sink_timing.node) {
                Ok(reference) => {
                    outcomes.push(CoupledOutcome {
                        group: g.name.clone(),
                        seed: g.seed,
                        victim: victim_timing.name.clone(),
                        sink: sink_timing.node,
                        zeta: sink_timing.zeta,
                        reference,
                        predicted: *sink_timing,
                    });
                }
                Err(why) => {
                    skipped.push((g.name.clone(), why));
                }
            }
        }

        let stats = CoupledScenario::ALL
            .iter()
            .map(|&scenario| collect_stats(scenario, &outcomes))
            .collect();
        CoupledReport {
            spec: *spec,
            outcomes,
            skipped,
            stats,
            violations,
        }
    }
}

fn collect_stats(scenario: CoupledScenario, outcomes: &[CoupledOutcome]) -> CoupledStats {
    let errors: Vec<(f64, &CoupledOutcome)> = outcomes
        .iter()
        .map(|outcome| (outcome.error(scenario), outcome))
        .collect();
    let count = errors.len();
    let mean_abs = if count == 0 {
        0.0
    } else {
        errors.iter().map(|(e, _)| e).sum::<f64>() / count as f64
    };
    let mut sorted: Vec<f64> = errors.iter().map(|(e, _)| *e).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
    let p95_abs = if count == 0 {
        0.0
    } else {
        sorted[((count - 1) as f64 * 0.95).round() as usize]
    };
    let worst = errors
        .iter()
        .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite errors"));
    let (max_abs, worst_group, worst_seed, worst_victim, worst_ref, worst_pred) = match worst {
        Some((err, outcome)) => {
            let (reference, predicted) = outcome.values(scenario);
            (
                *err,
                outcome.group.clone(),
                outcome.seed,
                outcome.victim.clone(),
                reference,
                predicted,
            )
        }
        None => (0.0, String::new(), 0, String::new(), 0.0, 0.0),
    };
    CoupledStats {
        scenario,
        count,
        mean_abs,
        p95_abs,
        max_abs,
        worst_group,
        worst_seed,
        worst_victim,
        worst_ref,
        worst_pred,
        pass: max_abs <= scenario.tolerance(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_group_is_reproducible() {
        let a = build_group(99, Regime::Underdamped, 6);
        let b = build_group(99, Regime::Underdamped, 6);
        assert_eq!(a.group.canonical_deck(), b.group.canonical_deck());
        assert_eq!(a.seed, b.seed);
        let c = build_group(100, Regime::Underdamped, 6);
        assert_ne!(a.group.canonical_deck(), c.group.canonical_deck());
    }

    #[test]
    fn corpus_is_stratified_and_coupled() {
        let spec = CoupledSpec {
            seed: 7,
            groups: 9,
            max_sections: 5,
        };
        let corpus = CoupledCorpus::generate(&spec);
        assert_eq!(corpus.len(), 9);
        let per_regime =
            Regime::ALL.map(|r| corpus.groups.iter().filter(|g| g.regime == r).count());
        assert_eq!(per_regime, [3, 3, 3]);
        for g in &corpus.groups {
            assert!(g.group.nets().len() >= 2, "{}", g.name);
            assert!(!g.group.couplings().is_empty(), "{}", g.name);
            // Every generated group survives the coupled lint front door.
            assert!(rlc_lint::lint_coupled_group(&g.group).is_clean());
        }
        // The whole corpus is a pure function of the spec.
        let again = CoupledCorpus::generate(&spec);
        for (a, b) in corpus.groups.iter().zip(&again.groups) {
            assert_eq!(a.group.canonical_deck(), b.group.canonical_deck());
            assert_eq!(a.name, b.name);
        }
    }

    #[test]
    fn coupling_caps_stay_below_the_attached_ground_caps() {
        for seed in 0..12u64 {
            let g = build_group(seed, Regime::Overdamped, 6);
            for c in g.group.couplings() {
                let ca = g.group.nets()[c.a.net]
                    .tree()
                    .section(c.a.node)
                    .capacitance();
                let cb = g.group.nets()[c.b.net]
                    .tree()
                    .section(c.b.node)
                    .capacitance();
                // Parallel couplings are summed, so allow up to 2 × 30%.
                let bound = 0.6 * ca.as_farads().min(cb.as_farads());
                assert!(
                    c.capacitance.as_farads() <= bound * (1.0 + 1e-9),
                    "seed {seed}: Cc {} vs bound {bound}",
                    c.capacitance.as_farads()
                );
            }
        }
    }

    #[test]
    fn oracle_measurement_is_deterministic_and_ordered() {
        let g = build_group(3, Regime::Overdamped, 5);
        let timing = analyze_group(&g.group, "t");
        let (victim_timing, sink_timing) = timing.critical().expect("has sinks");
        let victim = g.group.net_index(&victim_timing.name).unwrap();
        let oracle = CoupledOracle::with_max_steps(8_000);
        let m = oracle.measure(&g.group, victim, sink_timing.node).unwrap();
        assert_eq!(
            m,
            oracle.measure(&g.group, victim, sink_timing.node).unwrap()
        );
        // Opposite-phase switching slows the victim, in-phase speeds it up.
        assert!(m.worst > m.nominal, "{m:?}");
        assert!(m.best < m.nominal, "{m:?}");
        assert!(m.noise_peak > 0.0);
    }

    #[test]
    fn tiny_coupled_conformance_passes() {
        let spec = CoupledSpec {
            seed: 11,
            groups: 6,
            max_sections: 5,
        };
        let report =
            CoupledConformance::with_oracle(CoupledOracle::with_max_steps(8_000)).run(&spec);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.passed(), "{:?}", report.stats);
        assert_eq!(report.stats.len(), CoupledScenario::ALL.len());
        assert!(!report.outcomes.is_empty());
        assert_eq!(
            report.stats_for(CoupledScenario::WorstDelay).count,
            report.outcomes.len()
        );
        // Noise bound holds on every measured group.
        for outcome in &report.outcomes {
            assert!(
                outcome.error(CoupledScenario::NoiseBound) <= 0.10,
                "{}: sim {} vs bound {}",
                outcome.group,
                outcome.reference.noise_peak,
                outcome.predicted.noise_peak
            );
        }
    }

    #[test]
    fn coupled_json_fragment_is_deterministic() {
        let spec = CoupledSpec {
            seed: 11,
            groups: 3,
            max_sections: 5,
        };
        let runner = CoupledConformance::with_oracle(CoupledOracle::with_max_steps(8_000));
        let mut a = String::new();
        runner.run(&spec).render_json(&mut a);
        let mut b = String::new();
        runner.run(&spec).render_json(&mut b);
        assert_eq!(a, b);
        let doc = rlc_obs::json::parse(&a).expect("valid JSON");
        assert_eq!(
            doc.get("scenarios")
                .and_then(|v| v.as_array())
                .map(<[_]>::len),
            Some(CoupledScenario::ALL.len())
        );
    }
}
