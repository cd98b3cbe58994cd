//! The coupled-group batch job kind: fan a corpus of [`CoupledGroup`]s
//! over the same worker pool as single-net jobs.
//!
//! A coupled group is the unit of crosstalk analysis — its nets cannot be
//! analyzed independently, so the engine schedules whole groups. Everything
//! else mirrors the single-net batch contract: jobs keep submission order,
//! per-group failures (malformed coupled deck, panicking analysis) are
//! isolated into that group's slot as a typed [`EngineError`], and the
//! resulting [`CoupleReport`] is **byte-identical** for any worker count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use rlc_couple::{analyze_group_with, CoupleScratch, GroupTiming};
use rlc_tree::coupled::CoupledGroup;

use crate::batch::BatchTelemetry;
use crate::{Engine, EngineError};

/// One coupled group awaiting analysis: an already-parsed group, or a
/// coupled deck to be parsed by the worker that picks the job up.
#[derive(Debug, Clone)]
pub(crate) enum CoupleSource {
    Group(CoupledGroup),
    Deck(String),
}

/// An ordered corpus of coupled groups to analyze.
///
/// The coupled analogue of [`Batch`](crate::Batch): slot `k` of the
/// resulting [`CoupleReport`] always describes the `k`-th pushed group,
/// whatever the worker count or scheduling.
///
/// # Examples
///
/// ```
/// use rlc_engine::{CoupleBatch, Engine};
///
/// let mut batch = CoupleBatch::new();
/// batch.push_deck(
///     "bus",
///     ".net v\nR1 in n1 25\nC1 n1 0 0.5p\n.net a\nR1 in m1 25\nC1 m1 0 0.5p\nK1 v.n1 a.m1 0.1p\n",
/// );
/// let report = Engine::with_workers(2).run_couple(&batch);
/// assert!(report.groups[0].is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoupleBatch {
    pub(crate) jobs: Vec<(String, CoupleSource)>,
}

impl CoupleBatch {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued groups.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Returns `true` if no groups are queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Queues an already-parsed coupled group under `name`.
    pub fn push_group(&mut self, name: impl Into<String>, group: CoupledGroup) {
        self.jobs.push((name.into(), CoupleSource::Group(group)));
    }

    /// Queues a coupled deck (see [`rlc_tree::coupled`]) under `name`;
    /// parsing happens on the worker, and parse failures are isolated into
    /// that group's report slot.
    pub fn push_deck(&mut self, name: impl Into<String>, deck: impl Into<String>) {
        self.jobs
            .push((name.into(), CoupleSource::Deck(deck.into())));
    }

    /// The queued group names, in submission order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.jobs.iter().map(|(name, _)| name.as_str())
    }

    /// Statically analyzes every queued coupled deck with [`rlc_lint`],
    /// without running any timing analysis: one report per job, in
    /// submission order. Already-parsed groups lint their canonical deck,
    /// so every job is lintable (unlike [`Batch::precheck`](crate::Batch::precheck),
    /// there is no panic-injection source kind here).
    pub fn precheck(&self) -> Vec<rlc_lint::LintReport> {
        self.jobs
            .iter()
            .map(|(_, source)| match source {
                CoupleSource::Group(group) => rlc_lint::lint_coupled_deck(&group.canonical_deck()),
                CoupleSource::Deck(deck) => rlc_lint::lint_coupled_deck(deck),
            })
            .collect()
    }
}

/// The outcome of one coupled batch run: one slot per submitted group, in
/// submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupleReport {
    /// Per-group results; index `k` is the `k`-th group pushed.
    pub groups: Vec<Result<GroupTiming, EngineError>>,
}

impl CoupleReport {
    /// The successfully analyzed groups, in submission order.
    pub fn successes(&self) -> impl Iterator<Item = &GroupTiming> {
        self.groups.iter().filter_map(|r| r.as_ref().ok())
    }

    /// The failed groups, in submission order.
    pub fn failures(&self) -> impl Iterator<Item = &EngineError> {
        self.groups.iter().filter_map(|r| r.as_ref().err())
    }

    /// Renders the stable `rlc-engine-couple/1` JSON schema: the batch
    /// wrapper around per-group `rlc-couple/1` lines. The output depends
    /// only on the submitted corpus — never on the worker count.
    pub fn to_json(&self) -> String {
        use core::fmt::Write as _;

        let mut out = String::from("{\n  \"schema\": \"rlc-engine-couple/1\",\n  \"groups\": [");
        for (i, group) in self.groups.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}", group_json(group));
        }
        out.push_str(if self.groups.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        out
    }
}

/// Renders one per-group result as a single-line `rlc-couple/1` JSON
/// object.
///
/// Successful analyses render via [`GroupTiming::to_json`]; failures render
/// with the same schema tag and `"status": "error"`, mirroring
/// [`net_json`](crate::net_json). Any front end that re-serves engine
/// results (notably `rlc-serve`) emits payloads byte-identical to a direct
/// [`CoupleReport::to_json`] entry.
pub fn group_json(group: &Result<GroupTiming, EngineError>) -> String {
    use rlc_obs::json::quote;

    match group {
        Ok(t) => t.to_json(),
        Err(e) => format!(
            "{{\"schema\": \"rlc-couple/1\", \"name\": {}, \"status\": \"error\", \"error\": {}}}",
            quote(e.net()),
            quote(&e.to_string())
        ),
    }
}

impl Engine {
    /// Analyzes every coupled group of `batch`, returning one result per
    /// group in submission order. Per-group failures land in that group's
    /// slot; the rest of the batch is unaffected.
    pub fn run_couple(&self, batch: &CoupleBatch) -> CoupleReport {
        self.run_couple_with_telemetry(batch, None)
    }

    /// [`run_couple`](Self::run_couple), additionally recording per-group
    /// execution time and queue depth into `telemetry` when a sink is
    /// supplied.
    #[expect(
        clippy::disallowed_methods,
        reason = "worker timers measure real wall time by design; durations quantize through TimeSource::measured_ns before any report renders"
    )]
    pub fn run_couple_with_telemetry(
        &self,
        batch: &CoupleBatch,
        telemetry: Option<&BatchTelemetry>,
    ) -> CoupleReport {
        let jobs = &batch.jobs;
        let n = jobs.len();
        if n == 0 {
            return CoupleReport { groups: Vec::new() };
        }
        let workers = self.effective_workers(n);

        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<GroupTiming, EngineError>)>();
        let mut slots: Vec<Option<Result<GroupTiming, EngineError>>> = vec![None; n];

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                scope.spawn(move || {
                    // Per-worker scratch: every group rebuilds the packed
                    // forest and sums from scratch, so reuse is purely an
                    // allocation-count optimization.
                    let mut scratch = CoupleScratch::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if let Some(sink) = telemetry {
                            sink.record_depth((n - i - 1) as u64);
                        }
                        let t0 = Instant::now();
                        let (name, source) = &jobs[i];
                        let result = analyze_one_couple(name, source, &mut scratch);
                        if let Some(sink) = telemetry {
                            let raw = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            sink.record_exec(raw);
                        }
                        if tx.send((i, result)).is_err() {
                            break; // collector gone; nothing left to do
                        }
                    }
                });
            }
            drop(tx);
            while let Ok((i, result)) = rx.recv() {
                slots[i] = Some(result);
            }
        });

        CoupleReport {
            groups: slots
                .into_iter()
                .map(|slot| slot.expect("every job sends exactly one result"))
                .collect(),
        }
    }
}

/// Resolves and analyzes a single coupled group; all failure modes become
/// [`EngineError`]s. Like [`analyze_one`](crate::batch::analyze_one), the
/// entire job runs inside `catch_unwind`, so a panic is confined to this
/// group's slot.
pub(crate) fn analyze_one_couple(
    name: &str,
    source: &CoupleSource,
    scratch: &mut CoupleScratch,
) -> Result<GroupTiming, EngineError> {
    // `AssertUnwindSafe` is sound for the scratch: `analyze_group_with`
    // rebuilds the forest and overwrites the sums before reading either, so
    // a previous panic cannot leave state a later job could observe.
    catch_unwind(AssertUnwindSafe(|| {
        couple_unprotected(name, source, scratch)
    }))
    .unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Err(EngineError::Panicked {
            net: name.to_owned(),
            message,
        })
    })
}

fn couple_unprotected(
    name: &str,
    source: &CoupleSource,
    scratch: &mut CoupleScratch,
) -> Result<GroupTiming, EngineError> {
    let parsed;
    let group: &CoupledGroup = match source {
        CoupleSource::Group(group) => group,
        CoupleSource::Deck(deck) => {
            parsed = CoupledGroup::parse(deck).map_err(|source| EngineError::Netlist {
                net: name.to_owned(),
                source,
            })?;
            &parsed
        }
    };
    Ok(analyze_group_with(group, name, scratch))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUS: &str = "\
.net v
R1 in n1 25
L1 n1 n2 2n
C1 n2 0 0.5p
.net a
R1 in m1 40
L1 m1 m2 1n
C1 m2 0 0.3p
K1 v.n2 a.m2 0.1p
";

    fn corpus() -> CoupleBatch {
        let mut batch = CoupleBatch::new();
        batch.push_deck("bus", BUS);
        batch.push_group("parsed", CoupledGroup::parse(BUS).expect("parses"));
        batch.push_deck("solo", ".net only\nR1 in n1 25\nC1 n1 0 0.5p\n");
        batch
    }

    #[test]
    fn batch_accessors() {
        let batch = corpus();
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(
            batch.names().collect::<Vec<_>>(),
            vec!["bus", "parsed", "solo"]
        );
        assert!(CoupleBatch::new().is_empty());
    }

    #[test]
    fn results_arrive_in_submission_order() {
        let report = Engine::with_workers(3).run_couple(&corpus());
        let names: Vec<&str> = report
            .groups
            .iter()
            .map(|r| r.as_ref().map(|t| t.name.as_str()).unwrap_or("?"))
            .collect();
        assert_eq!(names, vec!["bus", "parsed", "solo"]);
        assert_eq!(report.successes().count(), 3);
    }

    #[test]
    fn deck_and_parsed_group_agree() {
        let report = Engine::with_workers(1).run_couple(&corpus());
        let from_deck = report.groups[0].as_ref().expect("analyzes fine");
        let parsed = report.groups[1].as_ref().expect("analyzes fine");
        // Same group, different job names: victims must match exactly.
        assert_eq!(from_deck.victims, parsed.victims);
        assert_eq!(from_deck.couplings, parsed.couplings);
    }

    #[test]
    fn failures_are_isolated_per_group() {
        let mut batch = corpus();
        batch.push_deck("broken", ".net v\nR1 in n1 oops\n");
        batch.push_deck("empty", "* nothing here\n");
        let report = Engine::with_workers(2).run_couple(&batch);
        assert_eq!(report.successes().count(), 3);
        let errors: Vec<&EngineError> = report.failures().collect();
        assert_eq!(errors.len(), 2);
        assert!(matches!(errors[0], EngineError::Netlist { .. }));
        assert!(matches!(errors[1], EngineError::Netlist { .. }));
        assert_eq!(errors[0].net(), "broken");
    }

    #[test]
    fn json_is_identical_across_worker_counts() {
        let mut batch = corpus();
        batch.push_deck("broken", ".net v\nK1 v.n1 w.n1 0.1p\n");
        let solo = Engine::with_workers(1).run_couple(&batch).to_json();
        for workers in [2, 4, 8] {
            let pooled = Engine::with_workers(workers).run_couple(&batch).to_json();
            assert_eq!(solo, pooled, "workers={workers}");
        }
        assert!(solo.contains("\"schema\": \"rlc-engine-couple/1\""));
        assert!(solo.contains("\"schema\": \"rlc-couple/1\""));
        assert!(solo.contains("\"status\": \"error\""));
    }

    #[test]
    fn group_json_covers_both_arms() {
        let report = Engine::with_workers(1).run_couple(&corpus());
        let ok = group_json(&report.groups[0]);
        assert!(ok.starts_with("{\"schema\": \"rlc-couple/1\", \"name\": \"bus\""));
        let err = group_json(&Err(EngineError::EmptyNet { net: "e".into() }));
        assert_eq!(
            err,
            "{\"schema\": \"rlc-couple/1\", \"name\": \"e\", \"status\": \"error\", \
             \"error\": \"net \\\"e\\\": tree has no sections\"}"
        );
    }

    #[test]
    fn telemetry_counts_every_group() {
        let sink = BatchTelemetry::new(rlc_obs::TimeSource::Logical { quantum_ns: 8 });
        let report = Engine::with_workers(2).run_couple_with_telemetry(&corpus(), Some(&sink));
        assert_eq!(report.groups.len(), 3);
        assert_eq!(sink.exec().count(), 3);
        assert_eq!(sink.depth().count(), 3);
    }

    #[test]
    fn empty_batch_yields_empty_report() {
        let report = Engine::new().run_couple(&CoupleBatch::new());
        assert!(report.groups.is_empty());
        assert!(report.to_json().contains("\"groups\": []"));
    }
}
