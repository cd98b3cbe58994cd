//! The concurrent batch engine: fan a corpus of nets over a worker pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use eed::{Damping, SecondOrderModel};
use rlc_moments::ElmoreSums;
use rlc_obs::{Histogram, HistogramSnapshot, TimeSource};
use rlc_tree::netlist::Netlist;
use rlc_tree::{FlatTree, NodeId, RlcTree};
use rlc_units::Time;

use crate::EngineError;

/// Always-on per-run telemetry for the one-shot batch engine: per-net
/// execution time and the remaining-queue depth each worker observed at
/// pickup. The caller owns the sink and reads it after
/// [`Engine::run_with_telemetry`] returns, so one sink can also
/// accumulate across several runs (histogram merges are associative).
#[derive(Debug, Default)]
pub struct BatchTelemetry {
    time: TimeSource,
    exec: Histogram,
    depth: Histogram,
}

impl BatchTelemetry {
    /// An empty sink whose reported durations come from `time`.
    pub fn new(time: TimeSource) -> Self {
        Self {
            time,
            exec: Histogram::new(),
            depth: Histogram::new(),
        }
    }

    /// Per-net execution time, nanoseconds (quantized by the sink's
    /// [`TimeSource`]).
    pub fn exec(&self) -> HistogramSnapshot {
        self.exec.snapshot()
    }

    /// Jobs still unclaimed at each pickup (unitless). Depends only on
    /// the corpus size and pickup order, not on wall time.
    pub fn depth(&self) -> HistogramSnapshot {
        self.depth.snapshot()
    }

    /// Records one pickup-depth observation (shared with the coupled-group
    /// runner in `crate::couple`).
    pub(crate) fn record_depth(&self, depth: u64) {
        self.depth.record(depth);
    }

    /// Records one raw-nanosecond execution time, quantized by the sink's
    /// [`TimeSource`].
    pub(crate) fn record_exec(&self, raw_ns: u64) {
        self.exec.record(self.time.measured_ns(raw_ns));
    }
}

/// Per-worker reusable analysis buffers: the flat SoA snapshot of the net
/// under analysis plus its moment table.
///
/// Every analysis fully rewrites both buffers (`rebuild_from` +
/// `flat_sums_into`), so one scratch per worker makes the whole batch run
/// allocation-free after the first few nets size the buffers — the packed
/// multi-tree arena amortized across the batch. The full-rewrite property
/// is also what makes passing the scratch across `catch_unwind` sound: a
/// panicked net can leave at most stale values that the next net
/// overwrites before reading.
#[derive(Debug, Default)]
pub(crate) struct NetScratch {
    flat: FlatTree,
    sums: ElmoreSums,
}

/// Which closed-form timing model a worker evaluates for a net.
///
/// The cheap estimators exist to be hammered inside synthesis loops, and
/// different loops want different fidelity/cost points: the paper's
/// equivalent-Elmore second-order model, or the classic first-order RC
/// Elmore bound it generalizes. The model id is part of every cache key in
/// `rlc-serve`, so results for different models never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimingModel {
    /// The paper's equivalent-Elmore second-order model (eqs. 29/30 →
    /// ζ, ωₙ, fitted eqs. 35/36). The default.
    #[default]
    Eed,
    /// The first-order RC Elmore bound: `delay = ln 2 · T_RC`,
    /// `rise = ln 9 · T_RC`, every sink reported as first-order.
    Elmore,
}

impl TimingModel {
    /// The stable wire-format id (`"eed"` / `"elmore"`).
    pub fn id(self) -> &'static str {
        match self {
            TimingModel::Eed => "eed",
            TimingModel::Elmore => "elmore",
        }
    }

    /// Parses a wire-format id; `None` for unknown model names.
    pub fn from_id(id: &str) -> Option<Self> {
        match id {
            "eed" => Some(TimingModel::Eed),
            "elmore" => Some(TimingModel::Elmore),
            _ => None,
        }
    }
}

/// One net awaiting analysis: an in-memory tree, a netlist deck, or a
/// netlist file to be read by the worker that picks the job up.
#[derive(Debug, Clone)]
pub(crate) enum NetSource {
    Tree(RlcTree),
    Deck(String),
    File(PathBuf),
    /// Fault-injection hook: the worker panics with the given message when
    /// it picks this job up. See [`Batch::push_panicking`].
    Panic(String),
}

/// An ordered corpus of nets to analyze.
///
/// Jobs keep their submission order: slot `k` of the resulting
/// [`BatchReport`] always describes the `k`-th pushed net, whatever the
/// worker count or scheduling.
///
/// # Examples
///
/// ```
/// use rlc_engine::{Batch, Engine};
/// use rlc_tree::{topology, RlcSection};
/// use rlc_units::{Capacitance, Inductance, Resistance};
///
/// let s = RlcSection::new(
///     Resistance::from_ohms(20.0),
///     Inductance::from_nanohenries(2.0),
///     Capacitance::from_picofarads(0.3),
/// );
/// let mut batch = Batch::new();
/// batch.push_tree("clock", topology::balanced_tree(4, 2, s));
/// batch.push_deck("line", "R1 in n1 25\nC1 n1 0 0.5p\n");
/// let report = Engine::new().run(&batch);
/// assert_eq!(report.nets.len(), 2);
/// assert!(report.nets.iter().all(|r| r.is_ok()));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Batch {
    jobs: Vec<(String, NetSource)>,
}

impl Batch {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued nets.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Returns `true` if no nets are queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Queues an in-memory tree under `name`.
    pub fn push_tree(&mut self, name: impl Into<String>, tree: RlcTree) {
        self.jobs.push((name.into(), NetSource::Tree(tree)));
    }

    /// Queues a netlist deck (see [`rlc_tree::netlist`]) under `name`;
    /// parsing happens on the worker, and parse failures are isolated into
    /// that net's report slot.
    pub fn push_deck(&mut self, name: impl Into<String>, deck: impl Into<String>) {
        self.jobs.push((name.into(), NetSource::Deck(deck.into())));
    }

    /// Queues a job that panics on the worker with `message`.
    ///
    /// This is the fault-injection hook used by differential-verification
    /// harnesses (see the `rlc-verify` crate) to prove the engine's
    /// isolation contract: the panic must land in this net's report slot as
    /// [`EngineError::Panicked`] while every sibling net is analyzed
    /// normally, byte-identically at any worker count.
    pub fn push_panicking(&mut self, name: impl Into<String>, message: impl Into<String>) {
        self.jobs
            .push((name.into(), NetSource::Panic(message.into())));
    }

    /// Queues a `.sp` netlist file path; reading and parsing happen on the
    /// worker.
    pub fn push_file(&mut self, path: impl Into<PathBuf>) {
        let path = path.into();
        self.jobs
            .push((path.display().to_string(), NetSource::File(path)));
    }

    /// Queues every `*.sp` file directly inside `dir`, sorted by file name
    /// so the corpus (and therefore the report) is deterministic.
    /// Synthesis decks (files carrying `.lib`/`.use`/`.driver`/`.require`
    /// cards, see [`rlc_tree::synth::is_synth_deck`]) belong to
    /// [`SynthBatch::from_dir`](crate::SynthBatch::from_dir) and are
    /// skipped, not failed — the two batch kinds partition a mixed deck
    /// directory between them.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if `dir` cannot be listed. Unreadable
    /// *individual* files are not an error here — the worker surfaces them
    /// as [`EngineError::Io`] in their report slot.
    pub fn from_dir(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "sp"))
            .filter(|p| {
                !std::fs::read_to_string(p).is_ok_and(|deck| rlc_tree::synth::is_synth_deck(&deck))
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

    /// Statically analyzes every queued net with [`rlc_lint`], without
    /// running any timing analysis: one report per job, in submission
    /// order. `None` marks the one source kind with nothing to lint (the
    /// [`push_panicking`](Self::push_panicking) fault-injection hook).
    ///
    /// A net whose report carries error-severity findings is guaranteed
    /// to land as a typed per-net failure if run (`rlc-lint`'s
    /// parser-agreement invariant), so batch drivers can shed or triage
    /// those slots before spending worker time; warning- and
    /// info-severity findings never predict failure.
    pub fn precheck(&self) -> Vec<Option<rlc_lint::LintReport>> {
        self.jobs
            .iter()
            .map(|(_, source)| match source {
                NetSource::Tree(tree) => Some(rlc_lint::lint_tree(tree)),
                NetSource::Deck(deck) => Some(rlc_lint::lint_deck(deck)),
                NetSource::File(path) => {
                    Some(rlc_lint::lint_path(path, &rlc_lint::LintConfig::default()))
                }
                NetSource::Panic(_) => None,
            })
            .collect()
    }
}

/// Timing summary of one sink of an analyzed net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinkSummary {
    /// The sink node (index within the net's tree).
    pub node: NodeId,
    /// Fitted 50% propagation delay (paper eq. 35).
    pub delay_50: Time,
    /// Fitted 10–90% rise time (paper eq. 36).
    pub rise_time: Time,
    /// Damping factor ζ at the sink (infinite for RC sinks).
    pub zeta: f64,
    /// Damping classification.
    pub damping: Damping,
}

/// The timing result for one successfully analyzed net.
#[derive(Debug, Clone, PartialEq)]
pub struct NetTiming {
    /// The net's name (as submitted or its file path).
    pub name: String,
    /// Number of tree sections.
    pub sections: usize,
    /// Per-sink summaries, in ascending node order (the tree's sorted
    /// sink-enumeration invariant). Sinks without dynamics (zero `T_RC`
    /// and `T_LC`) are omitted, as in `TreeAnalysis::sink_timings`.
    pub sinks: Vec<SinkSummary>,
}

impl NetTiming {
    /// The slowest sink, by fitted 50% delay.
    pub fn critical(&self) -> Option<&SinkSummary> {
        self.sinks
            .iter()
            .max_by(|a, b| a.delay_50.partial_cmp(&b.delay_50).expect("finite delays"))
    }
}

/// The outcome of one batch run: one slot per submitted net, in
/// submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Per-net results; index `k` is the `k`-th net pushed into the batch.
    pub nets: Vec<Result<NetTiming, EngineError>>,
}

impl BatchReport {
    /// The successfully analyzed nets, in submission order.
    pub fn successes(&self) -> impl Iterator<Item = &NetTiming> {
        self.nets.iter().filter_map(|r| r.as_ref().ok())
    }

    /// The failed nets, in submission order.
    pub fn failures(&self) -> impl Iterator<Item = &EngineError> {
        self.nets.iter().filter_map(|r| r.as_ref().err())
    }

    /// Renders the stable `rlc-engine/1` JSON schema. The output depends
    /// only on the submitted corpus — never on the worker count — so
    /// reports from different engine configurations are byte-comparable.
    pub fn to_json(&self) -> String {
        use core::fmt::Write as _;

        let mut out = String::from("{\n  \"schema\": \"rlc-engine/1\",\n  \"nets\": [");
        for (i, net) in self.nets.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}", net_json(net));
        }
        out.push_str(if self.nets.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        out
    }
}

/// Renders one per-net result as the single-line JSON object used inside
/// the `rlc-engine/1` report's `nets` array.
///
/// The rendering depends only on the result value, so any front end that
/// re-serves engine results (notably `rlc-serve`) can emit payloads that
/// are byte-identical to a direct [`BatchReport::to_json`] entry.
pub fn net_json(net: &Result<NetTiming, EngineError>) -> String {
    use core::fmt::Write as _;
    use rlc_obs::json::{number, quote};

    let mut out = String::new();
    match net {
        Ok(t) => {
            let _ = write!(
                out,
                "{{\"name\": {}, \"status\": \"ok\", \"sections\": {}, ",
                quote(&t.name),
                t.sections
            );
            match t.critical() {
                Some(c) => {
                    let _ = write!(
                        out,
                        "\"critical_sink\": {}, \"critical_delay_ps\": {}, ",
                        c.node.index(),
                        number(c.delay_50.as_picoseconds())
                    );
                }
                None => out.push_str("\"critical_sink\": null, "),
            }
            out.push_str("\"sinks\": [");
            for (j, sink) in t.sinks.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let zeta = if sink.zeta.is_finite() {
                    number(sink.zeta)
                } else {
                    "null".to_owned()
                };
                let _ = write!(
                    out,
                    "{sep}{{\"node\": {}, \"delay_50_ps\": {}, \"rise_time_ps\": {}, \"zeta\": {}, \"damping\": {}}}",
                    sink.node.index(),
                    number(sink.delay_50.as_picoseconds()),
                    number(sink.rise_time.as_picoseconds()),
                    zeta,
                    quote(&sink.damping.to_string()),
                );
            }
            out.push_str("]}");
        }
        Err(e) => {
            let _ = write!(
                out,
                "{{\"name\": {}, \"status\": \"error\", \"error\": {}}}",
                quote(e.net()),
                quote(&e.to_string())
            );
        }
    }
    out
}

/// The worker-pool engine.
///
/// Plain `std::thread` workers over an atomic job cursor: no external
/// runtime, no work stealing — nets are independent and coarse-grained, so
/// a shared cursor is both simple and near-optimal. Results return through
/// a channel and are placed by submission index, which makes reports
/// deterministic (and byte-identical) for any worker count.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    workers: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine sized to the machine (`std::thread::available_parallelism`).
    pub fn new() -> Self {
        Self { workers: 0 }
    }

    /// An engine with an explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers > 0, "engine needs at least one worker");
        Self { workers }
    }

    /// The worker count a run of `jobs` jobs would use.
    pub fn effective_workers(&self, jobs: usize) -> usize {
        let auto = || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        let configured = if self.workers == 0 {
            auto()
        } else {
            self.workers
        };
        configured.min(jobs).max(1)
    }

    /// Analyzes every net of `batch`, returning one result per net in
    /// submission order. Per-net failures (unreadable file, malformed
    /// netlist, empty net, panicking analysis) land in that net's slot;
    /// the rest of the batch is unaffected.
    pub fn run(&self, batch: &Batch) -> BatchReport {
        self.run_with_telemetry(batch, None)
    }

    /// [`run`](Self::run), additionally recording per-net execution time
    /// and queue depth into `telemetry` when a sink is supplied.
    #[expect(
        clippy::disallowed_methods,
        reason = "worker timers measure real wall time by design; durations quantize through TimeSource::measured_ns before any report renders"
    )]
    pub fn run_with_telemetry(
        &self,
        batch: &Batch,
        telemetry: Option<&BatchTelemetry>,
    ) -> BatchReport {
        let jobs = &batch.jobs;
        let n = jobs.len();
        if n == 0 {
            return BatchReport { nets: Vec::new() };
        }
        let workers = self.effective_workers(n);

        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<NetTiming, EngineError>)>();
        let mut slots: Vec<Option<Result<NetTiming, EngineError>>> = vec![None; n];

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut scratch = NetScratch::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if let Some(sink) = telemetry {
                            sink.depth.record((n - i - 1) as u64);
                        }
                        let t0 = Instant::now();
                        let (name, source) = &jobs[i];
                        let result = analyze_one(name, source, TimingModel::Eed, &mut scratch);
                        let net_ns = t0.elapsed().as_nanos();
                        if let Some(sink) = telemetry {
                            let raw = u64::try_from(net_ns).unwrap_or(u64::MAX);
                            sink.exec.record(sink.time.measured_ns(raw));
                        }
                        if tx.send((i, result)).is_err() {
                            break; // collector gone; nothing left to do
                        }
                    }
                });
            }
            drop(tx);
            // Collect on the caller thread while workers run.
            while let Ok((i, result)) = rx.recv() {
                slots[i] = Some(result);
            }
        });

        BatchReport {
            nets: slots
                .into_iter()
                .map(|slot| slot.expect("every job sends exactly one result"))
                .collect(),
        }
    }
}

/// Resolves and analyzes a single net; all failure modes become
/// [`EngineError`]s.
///
/// The *entire* job — file I/O, deck parsing, and analysis — runs inside
/// `catch_unwind`, so even a panic on an unexpected path (or one injected
/// via [`Batch::push_panicking`]) is confined to this net's slot and can
/// never take the worker down. Typed failures returned by the inner stage
/// take precedence; only genuine unwinds become
/// [`EngineError::Panicked`].
pub(crate) fn analyze_one(
    name: &str,
    source: &NetSource,
    model: TimingModel,
    scratch: &mut NetScratch,
) -> Result<NetTiming, EngineError> {
    catch_unwind(AssertUnwindSafe(|| {
        analyze_unprotected(name, source, model, scratch)
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

#[expect(
    clippy::panic,
    reason = "deliberate fault-injection arm: the isolation tests assert a worker panic becomes a typed per-net error without poisoning the batch"
)]
fn analyze_unprotected(
    name: &str,
    source: &NetSource,
    model: TimingModel,
    scratch: &mut NetScratch,
) -> Result<NetTiming, EngineError> {
    let parsed;
    let tree: &RlcTree = match source {
        NetSource::Tree(tree) => tree,
        NetSource::Deck(deck) => {
            parsed = parse_deck(name, deck)?;
            &parsed
        }
        NetSource::File(path) => {
            let deck = std::fs::read_to_string(path).map_err(|e| EngineError::Io {
                net: name.to_owned(),
                message: e.to_string(),
            })?;
            parsed = parse_deck(name, &deck)?;
            &parsed
        }
        NetSource::Panic(message) => panic!("{}", message),
    };
    if tree.is_empty() {
        return Err(EngineError::EmptyNet {
            net: name.to_owned(),
        });
    }
    let sinks = match model {
        TimingModel::Eed => eed_sinks(tree, scratch),
        TimingModel::Elmore => elmore_sinks(tree, scratch),
    };
    Ok(NetTiming {
        name: name.to_owned(),
        sections: tree.len(),
        sinks,
    })
}

/// Equivalent-Elmore sink summaries via the flat kernel: one packed SoA
/// rebuild, one pair of linear sweeps, then per-sink second-order models.
///
/// Flat indices equal arena indices, and the sums are bit-identical to the
/// arena walker, so this produces byte-for-byte the same report entries as
/// the old `TreeAnalysis::sink_timings` path (the differential and golden
/// suites pin this). Sinks with no dynamics (zero `T_RC` and `T_LC`) are
/// omitted, exactly as `try_model` used to.
fn eed_sinks(tree: &RlcTree, scratch: &mut NetScratch) -> Vec<SinkSummary> {
    scratch.flat.rebuild_from(tree);
    rlc_moments::flat_sums_into(&scratch.flat, &mut scratch.sums);
    let sums = &scratch.sums;
    scratch
        .flat
        .leaf_ids()
        .filter_map(|node| {
            let rc = sums.rc(node);
            let lc = sums.lc(node);
            if rc.as_seconds() == 0.0 && lc.as_seconds_squared() == 0.0 {
                return None;
            }
            let model = SecondOrderModel::from_sums(rc, lc);
            Some(SinkSummary {
                node,
                delay_50: model.delay_50(),
                rise_time: model.rise_time(),
                zeta: model.zeta(),
                damping: model.damping(),
            })
        })
        .collect()
}

/// First-order RC Elmore summaries: the single-pole step response through
/// `T_RC` gives `delay_50 = ln 2 · T_RC` and `rise = ln 9 · T_RC`. Sinks
/// with zero `T_RC` are omitted, mirroring [`eed_sinks`].
fn elmore_sinks(tree: &RlcTree, scratch: &mut NetScratch) -> Vec<SinkSummary> {
    scratch.flat.rebuild_from(tree);
    rlc_moments::flat_sums_into(&scratch.flat, &mut scratch.sums);
    let sums = &scratch.sums;
    scratch
        .flat
        .leaf_ids()
        .filter_map(|node| {
            let t_rc = sums.rc(node);
            if t_rc.as_seconds() == 0.0 {
                return None;
            }
            Some(SinkSummary {
                node,
                delay_50: t_rc * core::f64::consts::LN_2,
                rise_time: t_rc * 9f64.ln(),
                zeta: f64::INFINITY,
                damping: Damping::FirstOrder,
            })
        })
        .collect()
}

fn parse_deck(name: &str, deck: &str) -> Result<RlcTree, EngineError> {
    Netlist::parse(deck)
        .map(Netlist::into_tree)
        .map_err(|source| EngineError::Netlist {
            net: name.to_owned(),
            source,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eed::TreeAnalysis;
    use rlc_tree::{topology, RlcSection};
    use rlc_units::{Capacitance, Inductance, Resistance};

    fn s(r: f64, l_nh: f64, c_pf: f64) -> RlcSection {
        RlcSection::new(
            Resistance::from_ohms(r),
            Inductance::from_nanohenries(l_nh),
            Capacitance::from_picofarads(c_pf),
        )
    }

    fn small_corpus() -> Batch {
        let mut batch = Batch::new();
        batch.push_tree("balanced", topology::balanced_tree(4, 2, s(20.0, 2.0, 0.3)));
        batch.push_deck(
            "two-section",
            "* line\n.input in\nR1 in n1 25\nC1 n1 0 0.5p\nR2 n1 n2 25\nC2 n2 0 0.5p\n",
        );
        let (line, _) = topology::single_line(6, s(10.0, 1.0, 0.2));
        batch.push_tree("line", line);
        batch
    }

    #[test]
    fn batch_accessors() {
        let batch = small_corpus();
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(
            batch.names().collect::<Vec<_>>(),
            vec!["balanced", "two-section", "line"]
        );
        assert!(Batch::new().is_empty());
    }

    #[test]
    fn results_arrive_in_submission_order() {
        let report = Engine::with_workers(3).run(&small_corpus());
        let names: Vec<&str> = report
            .nets
            .iter()
            .map(|r| r.as_ref().map(|t| t.name.as_str()).unwrap_or("?"))
            .collect();
        assert_eq!(names, vec!["balanced", "two-section", "line"]);
        assert_eq!(report.successes().count(), 3);
        assert_eq!(report.failures().count(), 0);
    }

    #[test]
    fn results_match_direct_analysis() {
        let tree = topology::balanced_tree(4, 2, s(20.0, 2.0, 0.3));
        let mut batch = Batch::new();
        batch.push_tree("net", tree.clone());
        let report = Engine::with_workers(1).run(&batch);
        let timing = report.nets[0].as_ref().expect("analyzes fine");
        let direct = TreeAnalysis::new(&tree);
        let (node, delay) = direct.critical_sink().expect("has sinks");
        let critical = timing.critical().expect("has sinks");
        assert_eq!(critical.node, node);
        assert_eq!(critical.delay_50, delay);
        assert_eq!(timing.sinks.len(), direct.sink_timings().len());
    }

    #[test]
    fn failures_are_isolated_per_net() {
        let mut batch = small_corpus();
        batch.push_deck("broken", "R1 in n1 not-a-number\n");
        batch.push_file("/nonexistent/net.sp");
        batch.push_tree("empty", RlcTree::new());
        let report = Engine::with_workers(2).run(&batch);
        assert_eq!(report.successes().count(), 3);
        let errors: Vec<&EngineError> = report.failures().collect();
        assert_eq!(errors.len(), 3);
        assert!(matches!(errors[0], EngineError::Netlist { .. }));
        assert!(matches!(errors[1], EngineError::Io { .. }));
        assert!(matches!(errors[2], EngineError::EmptyNet { .. }));
    }

    #[test]
    fn injected_panic_is_isolated_and_typed() {
        let mut batch = small_corpus();
        batch.push_panicking("boom", "injected fault");
        let report = Engine::with_workers(2).run(&batch);
        assert_eq!(report.successes().count(), 3);
        let err = report.nets[3].as_ref().unwrap_err();
        assert!(
            matches!(err, EngineError::Panicked { message, .. } if message == "injected fault"),
            "{err}"
        );
        assert_eq!(err.net(), "boom");
    }

    #[test]
    fn precheck_predicts_per_net_outcomes() {
        let mut batch = small_corpus();
        batch.push_deck("broken", "R1 in n1 not-a-number\n");
        batch.push_file("/nonexistent/net.sp");
        batch.push_panicking("boom", "injected fault");
        let reports = batch.precheck();
        assert_eq!(reports.len(), batch.len());

        // The healthy corpus lints error-free; the broken deck and the
        // missing file carry the specific codes.
        for report in reports[..3].iter().flatten() {
            assert!(report.is_clean(), "{report:?}");
        }
        let broken = reports[3].as_ref().expect("deck is lintable");
        assert!(broken.codes().contains(&"L101"), "{broken:?}");
        let missing = reports[4].as_ref().expect("path is lintable");
        assert_eq!(missing.codes(), vec!["L301"]);
        assert!(reports[5].is_none(), "panic hook has no deck to lint");

        // Error-severity findings predict exactly the nets the engine
        // fails (the panic slot is unpredicted by construction).
        let report = Engine::with_workers(2).run(&batch);
        for (lint, net) in reports.iter().zip(&report.nets).take(5) {
            let lint = lint.as_ref().expect("first five are lintable");
            assert_eq!(lint.is_clean(), net.is_ok(), "{lint:?} vs {net:?}");
        }
    }

    #[test]
    fn json_is_identical_across_worker_counts() {
        let mut batch = small_corpus();
        batch.push_deck("broken", "C1 n1 0 0.5p\n");
        let solo = Engine::with_workers(1).run(&batch).to_json();
        let pooled = Engine::with_workers(8).run(&batch).to_json();
        assert_eq!(solo, pooled);
        assert!(solo.contains("\"schema\": \"rlc-engine/1\""));
        assert!(solo.contains("\"status\": \"error\""));
    }

    #[test]
    fn run_with_telemetry_counts_every_net() {
        let batch = small_corpus();
        let sink = BatchTelemetry::new(TimeSource::Logical { quantum_ns: 8 });
        let report = Engine::with_workers(2).run_with_telemetry(&batch, Some(&sink));
        assert_eq!(report.nets.len(), 3);
        assert_eq!(sink.exec().count(), 3);
        assert_eq!(sink.depth().count(), 3);
        // Logical time: every net's execution lands in the quantum bucket.
        let bucket = rlc_obs::telemetry::bucket_index(8);
        assert_eq!(sink.exec().buckets[bucket], 3);
    }

    #[test]
    fn empty_batch_yields_empty_report() {
        let report = Engine::new().run(&Batch::new());
        assert!(report.nets.is_empty());
        assert!(report.to_json().contains("\"nets\": []"));
    }

    #[test]
    fn effective_workers_clamps_sanely() {
        assert_eq!(Engine::with_workers(8).effective_workers(3), 3);
        assert_eq!(Engine::with_workers(2).effective_workers(100), 2);
        assert!(Engine::new().effective_workers(100) >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Engine::with_workers(0);
    }
}
