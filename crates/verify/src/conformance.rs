//! Differential conformance: every delay model in the workspace against
//! the exact-simulation oracle, over a seeded corpus.
//!
//! The output mirrors the paper's Section V methodology at corpus scale:
//! instead of a handful of figures, a per-model error distribution
//! (histogram, mean/p95/max) plus the worst-case net with its replayable
//! seed. The rendered `rlc-verify/1` JSON contains no timestamps or host
//! details, so two runs with the same spec are byte-identical.

use core::fmt;

use eed::TreeAnalysis;
use rlc_engine::IncrementalAnalysis;
use rlc_units::Time;

use crate::corpus::{CorpusNet, CorpusSpec, TreeCorpus};
use crate::oracle::{Oracle, OracleError, OracleMeasurement};

/// The delay models under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The paper's fitted 50% delay (eq. 35) via [`TreeAnalysis`].
    EedFitted,
    /// The exact 50% delay of the paper's second-order model (numerically
    /// inverted step response).
    EedExact,
    /// The classic Elmore/Wyatt single-pole delay `ln 2·T_RC` — the
    /// baseline the paper improves on.
    Wyatt,
    /// The Kahng–Muddu analytical two-pole model.
    TwoPole,
    /// 4-pole AWE/Padé moment matching (skipped when unstable).
    AwePade4,
    /// `rlc-engine`'s incremental path; must agree with
    /// [`ModelKind::EedFitted`] *exactly*, not just within tolerance.
    EngineIncremental,
}

impl ModelKind {
    /// Every model, in report order.
    pub const ALL: [ModelKind; 6] = [
        ModelKind::EedFitted,
        ModelKind::EedExact,
        ModelKind::Wyatt,
        ModelKind::TwoPole,
        ModelKind::AwePade4,
        ModelKind::EngineIncremental,
    ];

    /// Stable identifier used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::EedFitted => "eed-fitted",
            ModelKind::EedExact => "eed-exact",
            ModelKind::Wyatt => "wyatt-elmore",
            ModelKind::TwoPole => "two-pole",
            ModelKind::AwePade4 => "awe-pade4",
            ModelKind::EngineIncremental => "engine-incremental",
        }
    }

    /// The enforced ceiling on the worst-case |relative error| against the
    /// oracle, or `None` for models that are reported but not gated.
    ///
    /// The eed tiers are calibrated from the 201-net baseline run
    /// (`BENCH_verify.json`: seed 42, eed-fitted mean 6.0%, worst 20.2%)
    /// and set at the paper's own Section V envelope of 25%: the paper
    /// stays within a few percent on balanced trees and degrades gracefully
    /// on asymmetric ones, and the random corpus here is deliberately
    /// harsher than its examples. Wyatt is the known-bad baseline (the
    /// motivation for the paper) and the reduced-order comparators can
    /// legitimately fail (instability), so none of those are gated.
    pub fn tolerance(self) -> Option<f64> {
        match self {
            ModelKind::EedFitted | ModelKind::EedExact | ModelKind::EngineIncremental => Some(0.25),
            ModelKind::Wyatt | ModelKind::TwoPole | ModelKind::AwePade4 => None,
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Upper edges of the |relative error| histogram buckets; the last bucket
/// is open-ended.
pub const HISTOGRAM_EDGES: [f64; 5] = [0.01, 0.02, 0.05, 0.10, 0.25];

/// Error statistics for one model over the corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorStats {
    /// The model.
    pub model: ModelKind,
    /// Nets this model produced a prediction for.
    pub count: usize,
    /// Nets where the model produced no prediction (e.g. unstable AWE).
    pub unavailable: usize,
    /// Mean |relative error|.
    pub mean_abs: f64,
    /// 95th-percentile |relative error|.
    pub p95_abs: f64,
    /// Worst |relative error|.
    pub max_abs: f64,
    /// Name of the worst-case net.
    pub worst_net: String,
    /// Replayable per-net seed of the worst case.
    pub worst_seed: u64,
    /// Oracle delay of the worst case.
    pub worst_ref: Time,
    /// Model delay of the worst case.
    pub worst_pred: Time,
    /// Histogram of |relative error|: one count per
    /// `HISTOGRAM_EDGES` bucket plus a final open-ended bucket.
    pub histogram: [usize; HISTOGRAM_EDGES.len() + 1],
    /// `false` if the model has a tolerance and `max_abs` exceeds it.
    pub pass: bool,
}

/// Per-net outcome: the oracle reference plus every model's prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct NetOutcome {
    /// The net's name.
    pub net: String,
    /// The net's replayable seed.
    pub seed: u64,
    /// ζ at the observed sink.
    pub zeta: f64,
    /// The oracle reference.
    pub reference: OracleMeasurement,
    /// Per-model delays, in [`ModelKind::ALL`] order; `None` when the
    /// model could not produce one.
    pub predictions: [Option<Time>; ModelKind::ALL.len()],
}

/// The outcome of a conformance run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// The spec the corpus was generated from.
    pub spec: CorpusSpec,
    /// Per-net outcomes for nets the oracle measured.
    pub outcomes: Vec<NetOutcome>,
    /// Nets the oracle could not measure, with the reason.
    pub skipped: Vec<(String, OracleError)>,
    /// Per-model statistics, in [`ModelKind::ALL`] order.
    pub stats: Vec<ErrorStats>,
    /// Hard contract violations (e.g. incremental ≠ fitted).
    pub violations: Vec<String>,
    /// Coupled-group conformance, when the run included one (see
    /// [`crate::CoupledConformance`]); renders as the `"coupled"` key of
    /// the report and participates in [`ConformanceReport::passed`].
    pub coupled: Option<crate::CoupledReport>,
}

impl ConformanceReport {
    /// `true` when every gated model is within tolerance, no hard
    /// contract was violated, and any attached coupled run passed too.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
            && self.stats.iter().all(|s| s.pass)
            && self.coupled.as_ref().is_none_or(|c| c.passed())
    }

    /// Statistics for one model.
    pub fn stats_for(&self, model: ModelKind) -> &ErrorStats {
        self.stats
            .iter()
            .find(|s| s.model == model)
            .expect("stats cover every model")
    }

    /// Renders the stable `rlc-verify/1` JSON schema. Deterministic: the
    /// bytes depend only on the corpus spec and the code under test.
    pub fn to_json(&self) -> String {
        use core::fmt::Write as _;
        use rlc_obs::json::{number, quote};

        let mut out = String::from("{\n  \"schema\": \"rlc-verify/1\",\n");
        let _ = writeln!(out, "  \"trace_id\": {},", quote(&self.spec.trace_id()));
        let _ = write!(
            out,
            "  \"seed\": {}, \"nets\": {}, \"max_sections\": {},\n  \"measured\": {}, \"skipped\": [",
            self.spec.seed,
            self.spec.nets,
            self.spec.max_sections,
            self.outcomes.len(),
        );
        for (i, (name, why)) in self.skipped.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"net\": {}, \"reason\": {}}}",
                quote(name),
                quote(&why.to_string())
            );
        }
        out.push_str("],\n  \"models\": [");
        for (i, s) in self.stats.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"model\": {}, \"count\": {}, \"unavailable\": {}, ",
                quote(s.model.name()),
                s.count,
                s.unavailable
            );
            let _ = write!(
                out,
                "\"mean_abs_rel_err\": {}, \"p95_abs_rel_err\": {}, \"max_abs_rel_err\": {}, ",
                number(s.mean_abs),
                number(s.p95_abs),
                number(s.max_abs)
            );
            let _ = write!(
                out,
                "\"worst\": {{\"net\": {}, \"seed\": {}, \"ref_ps\": {}, \"pred_ps\": {}}}, ",
                quote(&s.worst_net),
                quote(&format!("{:#018x}", s.worst_seed)),
                number(s.worst_ref.as_picoseconds()),
                number(s.worst_pred.as_picoseconds())
            );
            out.push_str("\"histogram\": [");
            for (j, count) in s.histogram.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let le = HISTOGRAM_EDGES
                    .get(j)
                    .map_or_else(|| "null".to_owned(), |e| number(*e));
                let _ = write!(out, "{sep}{{\"le\": {le}, \"count\": {count}}}");
            }
            let tolerance = s
                .model
                .tolerance()
                .map_or_else(|| "null".to_owned(), number);
            let _ = write!(out, "], \"tolerance\": {tolerance}, \"pass\": {}}}", s.pass);
        }
        out.push_str("\n  ],\n  \"coupled\": ");
        match &self.coupled {
            Some(coupled) => coupled.render_json(&mut out),
            None => out.push_str("null"),
        }
        out.push_str(",\n  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}", quote(v));
        }
        let _ = write!(out, "],\n  \"pass\": {}\n}}\n", self.passed());
        out
    }
}

/// The conformance runner.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Conformance {
    oracle: Oracle,
}

impl Conformance {
    /// A runner with an explicit oracle configuration.
    pub fn with_oracle(oracle: Oracle) -> Self {
        Self { oracle }
    }

    /// Generates the corpus from `spec` and evaluates every model on it.
    pub fn run(&self, spec: &CorpusSpec) -> ConformanceReport {
        self.run_corpus(spec, &TreeCorpus::generate(spec))
    }

    /// Evaluates every model on an already-generated corpus.
    pub fn run_corpus(&self, spec: &CorpusSpec, corpus: &TreeCorpus) -> ConformanceReport {
        let mut outcomes = Vec::with_capacity(corpus.len());
        let mut skipped = Vec::new();
        let mut violations = Vec::new();

        for net in &corpus.nets {
            let reference = match self.oracle.measure(&net.tree, net.sink) {
                Ok(m) => m,
                Err(why) => {
                    skipped.push((net.name.clone(), why));
                    continue;
                }
            };
            let predictions = predict_all(net, &mut violations);
            outcomes.push(NetOutcome {
                net: net.name.clone(),
                seed: net.seed,
                zeta: net.zeta,
                reference,
                predictions,
            });
        }

        let stats = ModelKind::ALL
            .iter()
            .enumerate()
            .map(|(k, &model)| collect_stats(model, k, &outcomes))
            .collect();
        ConformanceReport {
            spec: *spec,
            outcomes,
            skipped,
            stats,
            violations,
            coupled: None,
        }
    }
}

/// Every model's 50% delay prediction at the net's sink.
fn predict_all(net: &CorpusNet, violations: &mut Vec<String>) -> [Option<Time>; 6] {
    let analysis = TreeAnalysis::new(&net.tree);
    let model = analysis.try_model(net.sink);
    let fitted = model.map(|m| m.delay_50());
    let exact = model.map(|m| m.delay_50_exact());
    let wyatt = model.map(|m| m.wyatt_delay_50());
    let two_pole = rlc_awe::two_pole_at_node(&net.tree, net.sink)
        .ok()
        .filter(|m| m.is_stable())
        .and_then(|m| m.delay_50());
    let awe = rlc_awe::awe_at_node(&net.tree, net.sink, 4)
        .ok()
        .filter(|m| m.is_stable())
        .and_then(|m| m.delay_50());
    let incremental = IncrementalAnalysis::from_tree(&net.tree);
    let incr = model.map(|_| incremental.delay_50(net.sink));

    // Hard contract: the incremental path must reproduce the one-pass
    // fitted delay bit-for-bit (see `IncrementalAnalysis::cross_check`).
    if let (Some(a), Some(b)) = (fitted, incr) {
        if a != b {
            violations.push(format!(
                "{}: engine-incremental delay {} != eed-fitted delay {} (seed {:#018x})",
                net.name, b, a, net.seed
            ));
        }
    }

    [fitted, exact, wyatt, two_pole, awe, incr]
}

fn collect_stats(model: ModelKind, k: usize, outcomes: &[NetOutcome]) -> ErrorStats {
    let mut errors: Vec<(f64, &NetOutcome, Time)> = Vec::with_capacity(outcomes.len());
    let mut unavailable = 0usize;
    for outcome in outcomes {
        match outcome.predictions[k] {
            Some(pred) => {
                let reference = outcome.reference.delay_50.as_seconds();
                let rel = (pred.as_seconds() - reference).abs() / reference;
                errors.push((rel, outcome, pred));
            }
            None => unavailable += 1,
        }
    }
    let count = errors.len();
    let mut histogram = [0usize; HISTOGRAM_EDGES.len() + 1];
    for (rel, _, _) in &errors {
        let bucket = HISTOGRAM_EDGES
            .iter()
            .position(|edge| rel <= edge)
            .unwrap_or(HISTOGRAM_EDGES.len());
        histogram[bucket] += 1;
    }
    let mean_abs = if count == 0 {
        0.0
    } else {
        errors.iter().map(|(rel, _, _)| rel).sum::<f64>() / count as f64
    };
    let mut sorted: Vec<f64> = errors.iter().map(|(rel, _, _)| *rel).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
    let p95_abs = if count == 0 {
        0.0
    } else {
        sorted[((count - 1) as f64 * 0.95).round() as usize]
    };
    let worst = errors
        .iter()
        .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite errors"));
    let (max_abs, worst_net, worst_seed, worst_ref, worst_pred) = match worst {
        Some((rel, outcome, pred)) => (
            *rel,
            outcome.net.clone(),
            outcome.seed,
            outcome.reference.delay_50,
            *pred,
        ),
        None => (0.0, String::new(), 0, Time::ZERO, Time::ZERO),
    };
    let pass = model.tolerance().is_none_or(|tol| max_abs <= tol);
    ErrorStats {
        model,
        count,
        unavailable,
        mean_abs,
        p95_abs,
        max_abs,
        worst_net,
        worst_seed,
        worst_ref,
        worst_pred,
        histogram,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> ConformanceReport {
        let spec = CorpusSpec {
            seed: 7,
            nets: 6,
            max_sections: 8,
        };
        Conformance::with_oracle(Oracle::with_max_steps(20_000)).run(&spec)
    }

    #[test]
    fn report_covers_every_model_and_passes() {
        let report = tiny_report();
        assert_eq!(report.stats.len(), ModelKind::ALL.len());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.passed());
        // The eed models actually predicted every measured net.
        assert_eq!(
            report.stats_for(ModelKind::EedFitted).count,
            report.outcomes.len()
        );
        assert!(!report.outcomes.is_empty());
    }

    #[test]
    fn json_is_valid_and_deterministic() {
        let report = tiny_report();
        let json = report.to_json();
        let doc = rlc_obs::json::parse(&json).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("rlc-verify/1")
        );
        // The trace id depends only on the spec: same corpus, same tag.
        assert_eq!(
            doc.get("trace_id").and_then(|v| v.as_str()),
            Some(report.spec.trace_id().as_str())
        );
        assert_ne!(
            report.spec.trace_id(),
            CorpusSpec::with_seed(report.spec.seed + 1).trace_id(),
            "different corpora get different trace ids"
        );
        assert_eq!(
            doc.get("models").and_then(|v| v.as_array()).map(<[_]>::len),
            Some(ModelKind::ALL.len())
        );
        // Byte-identical on re-run: no timestamps, no host state.
        assert_eq!(json, tiny_report().to_json());
    }

    #[test]
    fn histogram_counts_sum_to_count() {
        let report = tiny_report();
        for s in &report.stats {
            assert_eq!(s.histogram.iter().sum::<usize>(), s.count, "{}", s.model);
            assert_eq!(s.count + s.unavailable, report.outcomes.len());
        }
    }

    #[test]
    fn wyatt_is_reported_but_never_gated() {
        assert_eq!(ModelKind::Wyatt.tolerance(), None);
        let report = tiny_report();
        assert!(report.stats_for(ModelKind::Wyatt).pass);
    }
}
