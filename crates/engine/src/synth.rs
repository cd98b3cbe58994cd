//! The synthesis batch job kind: fan a corpus of synthesis decks through
//! `rlc-synth`'s buffer-insertion and wire-sizing pass on the shared
//! worker pool.
//!
//! A synthesis job is heavier than a timing job — the van Ginneken DP
//! enumerates every wire section as a candidate site and the sizing pass
//! probes the buffered stages dozens of times — but the batch contract is
//! identical to [`Batch`](crate::Batch) and [`CoupleBatch`](crate::CoupleBatch):
//! jobs keep submission order, per-net failures (non-synthesis deck,
//! unreadable file, panicking optimization) are isolated into that net's
//! slot as a typed [`EngineError`], and the resulting [`SynthReport`] is
//! **byte-identical** for any worker count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use rlc_synth::{synthesize, SynthConfig, SynthTiming};
use rlc_tree::synth::SynthDeck;

use crate::batch::BatchTelemetry;
use crate::{Engine, EngineError};

/// One synthesis job awaiting optimization: an in-memory deck, or a file
/// path read by the worker that picks the job up.
#[derive(Debug, Clone)]
pub(crate) enum SynthSource {
    Deck(String),
    File(PathBuf),
}

/// An ordered corpus of synthesis decks to optimize.
///
/// The synthesis analogue of [`Batch`](crate::Batch): slot `k` of the
/// resulting [`SynthReport`] always describes the `k`-th pushed net,
/// whatever the worker count or scheduling. One [`SynthConfig`] applies
/// to the whole corpus.
///
/// # Examples
///
/// ```
/// use rlc_engine::{Engine, SynthBatch};
///
/// let mut batch = SynthBatch::new();
/// batch.push_deck(
///     "long-line",
///     "R1 in n1 900\nC1 n1 0 0.9p\nR2 n1 n2 900\nC2 n2 0 0.9p\n\
///      R3 n2 n3 900\nC3 n3 0 0.9p\n.lib bufx r=120 cin=5f tin=15p\n.driver 100\n",
/// );
/// let report = Engine::with_workers(2).run_synth(&batch);
/// assert!(report.nets[0].is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SynthBatch {
    pub(crate) jobs: Vec<(String, SynthSource)>,
    pub(crate) config: SynthConfig,
}

impl SynthBatch {
    /// An empty corpus under the default [`SynthConfig`].
    pub fn new() -> Self {
        Self {
            jobs: Vec::new(),
            config: SynthConfig::default(),
        }
    }

    /// Replaces the corpus-wide synthesis configuration.
    pub fn with_config(mut self, config: SynthConfig) -> Self {
        self.config = config;
        self
    }

    /// The corpus-wide synthesis configuration.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Number of queued nets.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Returns `true` if no nets are queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Queues a synthesis deck (see [`rlc_tree::synth`]) under `name`;
    /// parsing happens on the worker, and parse failures are isolated into
    /// that net's report slot.
    pub fn push_deck(&mut self, name: impl Into<String>, deck: impl Into<String>) {
        self.jobs
            .push((name.into(), SynthSource::Deck(deck.into())));
    }

    /// Queues a `.sp` synthesis-deck file path; reading and parsing happen
    /// on the worker.
    pub fn push_file(&mut self, path: impl Into<PathBuf>) {
        let path = path.into();
        self.jobs
            .push((path.display().to_string(), SynthSource::File(path)));
    }

    /// Queues every `*.sp` file directly inside `dir` that carries
    /// synthesis cards (see [`rlc_tree::synth::is_synth_deck`]), sorted by
    /// file name so the corpus (and therefore the report) is deterministic.
    /// Plain timing decks in the same directory are skipped, not failed.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if `dir` cannot be listed. Files that vanish
    /// or turn unreadable between listing and pickup surface as
    /// [`EngineError::Io`] in their report slot.
    pub fn from_dir(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "sp"))
            .filter(|p| {
                std::fs::read_to_string(p).is_ok_and(|deck| rlc_tree::synth::is_synth_deck(&deck))
            })
            .collect();
        paths.sort();
        let mut batch = Self::new();
        for p in paths {
            batch.push_file(p);
        }
        Ok(batch)
    }

    /// The queued net names, in submission order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.jobs.iter().map(|(name, _)| name.as_str())
    }

    /// Statically analyzes every queued synthesis deck with
    /// [`rlc_lint::lint_synth_deck`], without running any optimization:
    /// one report per job, in submission order. `None` marks a file job
    /// whose contents could not be read.
    pub fn precheck(&self) -> Vec<Option<rlc_lint::LintReport>> {
        self.jobs
            .iter()
            .map(|(_, source)| match source {
                SynthSource::Deck(deck) => Some(rlc_lint::lint_synth_deck(deck)),
                SynthSource::File(path) => std::fs::read_to_string(path)
                    .ok()
                    .map(|deck| rlc_lint::lint_synth_deck(&deck)),
            })
            .collect()
    }
}

/// The outcome of one synthesis batch run: one slot per submitted net, in
/// submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthReport {
    /// Per-net results; index `k` is the `k`-th net pushed.
    pub nets: Vec<Result<SynthTiming, EngineError>>,
}

impl SynthReport {
    /// The successfully optimized nets, in submission order.
    pub fn successes(&self) -> impl Iterator<Item = &SynthTiming> {
        self.nets.iter().filter_map(|r| r.as_ref().ok())
    }

    /// The failed nets, in submission order.
    pub fn failures(&self) -> impl Iterator<Item = &EngineError> {
        self.nets.iter().filter_map(|r| r.as_ref().err())
    }

    /// Renders the stable `rlc-engine-synth/1` JSON schema: the batch
    /// wrapper around per-net `rlc-synth/1` lines. The output depends only
    /// on the submitted corpus and config — never on the worker count.
    pub fn to_json(&self) -> String {
        use core::fmt::Write as _;

        let mut out = String::from("{\n  \"schema\": \"rlc-engine-synth/1\",\n  \"nets\": [");
        for (i, net) in self.nets.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}", synth_json(net));
        }
        out.push_str(if self.nets.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        out
    }
}

/// Renders one per-net synthesis result as a single-line `rlc-synth/1`
/// JSON object.
///
/// Successful optimizations render via [`SynthTiming::to_json`]; failures
/// render with the same schema tag and `"status": "error"`, mirroring
/// [`net_json`](crate::net_json). Any front end that re-serves engine
/// results (notably `rlc-serve`) emits payloads byte-identical to a direct
/// [`SynthReport::to_json`] entry.
pub fn synth_json(net: &Result<SynthTiming, EngineError>) -> String {
    use rlc_obs::json::quote;

    match net {
        Ok(t) => t.to_json(),
        Err(e) => format!(
            "{{\"schema\": \"rlc-synth/1\", \"name\": {}, \"status\": \"error\", \"error\": {}}}",
            quote(e.net()),
            quote(&e.to_string())
        ),
    }
}

impl Engine {
    /// Optimizes every net of `batch`, returning one result per net in
    /// submission order. Per-net failures land in that net's slot; the
    /// rest of the batch is unaffected.
    pub fn run_synth(&self, batch: &SynthBatch) -> SynthReport {
        self.run_synth_with_telemetry(batch, None)
    }

    /// [`run_synth`](Self::run_synth), additionally recording per-net
    /// execution time and queue depth into `telemetry` when a sink is
    /// supplied.
    #[expect(
        clippy::disallowed_methods,
        reason = "worker timers measure real wall time by design; durations quantize through TimeSource::measured_ns before any report renders"
    )]
    pub fn run_synth_with_telemetry(
        &self,
        batch: &SynthBatch,
        telemetry: Option<&BatchTelemetry>,
    ) -> SynthReport {
        let jobs = &batch.jobs;
        let n = jobs.len();
        if n == 0 {
            return SynthReport { nets: Vec::new() };
        }
        let workers = self.effective_workers(n);
        let config = batch.config;

        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<SynthTiming, EngineError>)>();
        let mut slots: Vec<Option<Result<SynthTiming, EngineError>>> = vec![None; n];

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if let Some(sink) = telemetry {
                        sink.record_depth((n - i - 1) as u64);
                    }
                    let t0 = Instant::now();
                    let (name, source) = &jobs[i];
                    let result = optimize_one(name, source, &config);
                    if let Some(sink) = telemetry {
                        let raw = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        sink.record_exec(raw);
                    }
                    if tx.send((i, result)).is_err() {
                        break; // collector gone; nothing left to do
                    }
                });
            }
            drop(tx);
            while let Ok((i, result)) = rx.recv() {
                slots[i] = Some(result);
            }
        });

        SynthReport {
            nets: slots
                .into_iter()
                .map(|slot| slot.expect("every job sends exactly one result"))
                .collect(),
        }
    }
}

/// Resolves and optimizes a single net; all failure modes become
/// [`EngineError`]s. Like [`analyze_one`](crate::batch::analyze_one), the
/// entire job — file I/O, deck parsing, and the DP — runs inside
/// `catch_unwind`, so a panic is confined to this net's slot.
pub(crate) fn optimize_one(
    name: &str,
    source: &SynthSource,
    config: &SynthConfig,
) -> Result<SynthTiming, EngineError> {
    catch_unwind(AssertUnwindSafe(|| {
        optimize_unprotected(name, source, config)
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

fn optimize_unprotected(
    name: &str,
    source: &SynthSource,
    config: &SynthConfig,
) -> Result<SynthTiming, EngineError> {
    let owned;
    let deck: &str = match source {
        SynthSource::Deck(deck) => deck,
        SynthSource::File(path) => {
            owned = std::fs::read_to_string(path).map_err(|e| EngineError::Io {
                net: name.to_owned(),
                message: e.to_string(),
            })?;
            &owned
        }
    };
    let parsed = SynthDeck::parse(deck).map_err(|source| EngineError::Netlist {
        net: name.to_owned(),
        source,
    })?;
    let synthesis = synthesize(&parsed, config);
    Ok(SynthTiming::new(name, &parsed, &synthesis))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LONG: &str = "\
.input in
R1 in n1 900
C1 n1 0 0.9p
R2 n1 n2 900
C2 n2 0 0.9p
R3 n2 n3 900
C3 n3 0 0.9p
.lib bufx r=120 cin=5f tin=15p
.driver 100
.require n3 2n
.end
";

    const SHORT: &str = "\
R1 in n1 25
C1 n1 0 0.05p
.lib bufx r=500 cin=50f tin=80p
.driver 30
";

    fn corpus() -> SynthBatch {
        let mut batch = SynthBatch::new();
        batch.push_deck("long", LONG);
        batch.push_deck("short", SHORT);
        batch
    }

    #[test]
    fn batch_accessors_and_config() {
        let batch = corpus();
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.names().collect::<Vec<_>>(), vec!["long", "short"]);
        assert!(SynthBatch::new().is_empty());
        let tuned = SynthBatch::new().with_config(SynthConfig {
            sizing: false,
            ..SynthConfig::default()
        });
        assert!(!tuned.config().sizing);
    }

    #[test]
    fn results_arrive_in_submission_order() {
        let report = Engine::with_workers(3).run_synth(&corpus());
        let names: Vec<&str> = report
            .nets
            .iter()
            .map(|r| r.as_ref().map(|t| t.name.as_str()).unwrap_or("?"))
            .collect();
        assert_eq!(names, vec!["long", "short"]);
        assert_eq!(report.successes().count(), 2);
    }

    #[test]
    fn profitable_and_unprofitable_nets_coexist() {
        let report = Engine::with_workers(2).run_synth(&corpus());
        let long = report.nets[0].as_ref().expect("optimizes fine");
        assert!(!long.buffers.is_empty(), "the 2.7 kΩ line wants buffers");
        assert!(long.improvement > 0.10);
        let short = report.nets[1].as_ref().expect("optimizes fine");
        assert!(short.buffers.is_empty(), "a 25 Ω stub gains nothing");
        assert_eq!(short.improvement, 0.0);
    }

    #[test]
    fn failures_are_isolated_per_net() {
        let mut batch = corpus();
        batch.push_deck("plain", "R1 in n1 25\nC1 n1 0 0.5p\n");
        batch.push_deck("broken", ".lib b r=100 cin=4f tin=1p\nR1 in n1 oops\n");
        batch.push_file("/nonexistent/deck.sp");
        let report = Engine::with_workers(2).run_synth(&batch);
        assert_eq!(report.successes().count(), 2);
        let errors: Vec<&EngineError> = report.failures().collect();
        assert_eq!(errors.len(), 3);
        assert!(matches!(errors[0], EngineError::Netlist { .. }));
        assert!(matches!(errors[1], EngineError::Netlist { .. }));
        assert!(matches!(errors[2], EngineError::Io { .. }));
        assert_eq!(errors[0].net(), "plain");
    }

    #[test]
    fn json_is_identical_across_worker_counts() {
        let mut batch = corpus();
        batch.push_deck("broken", ".lib b r=100 cin=4f tin=1p\nR1 in n1 oops\n");
        let solo = Engine::with_workers(1).run_synth(&batch).to_json();
        for workers in [2, 4, 8] {
            let pooled = Engine::with_workers(workers).run_synth(&batch).to_json();
            assert_eq!(solo, pooled, "workers={workers}");
        }
        assert!(solo.contains("\"schema\": \"rlc-engine-synth/1\""));
        assert!(solo.contains("\"schema\": \"rlc-synth/1\""));
        assert!(solo.contains("\"status\": \"error\""));
    }

    #[test]
    fn synth_json_covers_both_arms() {
        let report = Engine::with_workers(1).run_synth(&corpus());
        let ok = synth_json(&report.nets[0]);
        assert!(ok.starts_with("{\"schema\": \"rlc-synth/1\", \"name\": \"long\""));
        let err = synth_json(&Err(EngineError::EmptyNet { net: "e".into() }));
        assert_eq!(
            err,
            "{\"schema\": \"rlc-synth/1\", \"name\": \"e\", \"status\": \"error\", \
             \"error\": \"net \\\"e\\\": tree has no sections\"}"
        );
    }

    #[test]
    fn precheck_reports_every_job() {
        let mut batch = corpus();
        batch.push_deck("bad", ".lib b r=0 cin=4f tin=1p\nR1 in n1 25\nC1 n1 0 1p\n");
        batch.push_file("/nonexistent/deck.sp");
        let reports = batch.precheck();
        assert_eq!(reports.len(), 4);
        assert!(reports[0].as_ref().expect("in-memory deck").is_clean());
        assert!(!reports[2].as_ref().expect("in-memory deck").is_clean());
        assert!(reports[3].is_none(), "unreadable file has no lint report");
    }

    #[test]
    fn telemetry_counts_every_net() {
        let sink = BatchTelemetry::new(rlc_obs::TimeSource::Logical { quantum_ns: 8 });
        let report = Engine::with_workers(2).run_synth_with_telemetry(&corpus(), Some(&sink));
        assert_eq!(report.nets.len(), 2);
        assert_eq!(sink.exec().count(), 2);
        assert_eq!(sink.depth().count(), 2);
    }

    #[test]
    fn empty_batch_yields_empty_report() {
        let report = Engine::new().run_synth(&SynthBatch::new());
        assert!(report.nets.is_empty());
        assert!(report.to_json().contains("\"nets\": []"));
    }
}
