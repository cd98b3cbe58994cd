//! The traced replay: the workload's requests sent, on one thread, through
//! each layer's public function, with a span around every call. An
//! untraced `ServeCore` replay of the same requests is the yardstick for
//! how much of the request time the spans cover, and its replies must
//! equal the traced replay's byte for byte.
//!
//! Self time is a span's duration minus its children's durations.
//! `engine.queue` and `engine.exec` come from the engine's own per-job
//! timings, laid end to end from the submit call. The engine's inner
//! steps (`engine.flatten`/`sums`/`model`, `couple.analyze`,
//! `synth.optimize`) run on worker threads where nothing outside can time
//! them, so they are re-run directly on the same input right after the
//! request, on resident scratch buffers as the workers keep them, recorded
//! as children of the `engine.exec` span they decompose, and kept out of
//! the request's own duration.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use eed::SecondOrderModel;
use rlc_couple::{analyze_group_with, CoupleScratch, GroupTiming};
use rlc_engine::{
    group_json, net_json, synth_json, CoupleSpec, EngineError, EngineService, JobSpec, JobTiming,
    NetTiming, ServiceConfig, SynthSpec,
};
use rlc_lint::{lint_coupled_deck, lint_deck, lint_synth_deck, LintReport};
use rlc_moments::{flat_sums_into, ElmoreSums};
use rlc_serve::protocol::read_request;
use rlc_serve::{
    CacheConfig, LintMode, ReadOutcome, Request, ResultCache, ServeConfig, ServeCore,
    TelemetryConfig,
};
use rlc_synth::{synthesize, SynthConfig, SynthTiming};
use rlc_tree::coupled::CoupledGroup;
use rlc_tree::netlist::Netlist;
use rlc_tree::synth::SynthDeck;
use rlc_tree::{FlatTree, RlcTree, TreeError};

use crate::gen::Req;
use crate::oracle::{annotation, denies, gate, lint_denied_line, lint_line, result_line};

/// The layers, in report order.
const LAYERS: [&str; 13] = [
    "read",
    "lint",
    "parse",
    "canonical",
    "cache",
    "engine.queue",
    "engine.exec",
    "engine.flatten",
    "engine.sums",
    "engine.model",
    "couple.analyze",
    "synth.optimize",
    "render",
];

/// The server's sizing, as the benchmark starts `serve`.
const WORKERS: usize = 2;
const QUEUE: usize = 64;
const CACHE: CacheConfig = CacheConfig {
    capacity: 128,
    ttl: None,
};

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: usize,
}

/// Spans kept in memory; written out once the replay is over.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    request: usize,
}

impl Tracer {
    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: self.request,
        });
        self.spans.len() - 1
    }

    fn time<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (start, end) = (self.at(start), self.at(end));
        self.push(name, start, end, Some(parent));
        out
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.at(Instant::now());
    }

    /// Queue and exec spans from the engine's timings; returns the exec span.
    fn engine(&mut self, submitted: Instant, timing: JobTiming, root: usize) -> usize {
        let start = self.at(submitted);
        let picked = start + timing.queue_ns;
        self.push("engine.queue", start, picked, Some(root));
        self.push("engine.exec", picked, picked + timing.exec_ns, Some(root))
    }
}

struct Caches {
    nets: ResultCache<NetTiming>,
    groups: ResultCache<GroupTiming>,
    synths: ResultCache<SynthTiming>,
}

/// Buffers an engine worker keeps across jobs.
#[derive(Default)]
struct Scratch {
    flat: FlatTree,
    sums: ElmoreSums,
    couple: CoupleScratch,
}

/// One cached verb's path through the layers, as `ServeCore` runs it.
trait Job {
    type Parsed;
    type Timing: Clone;
    /// The verdict's member name in a result line.
    const FIELD: &'static str;
    /// The model id in the cache key.
    const MODEL: &'static str;
    const LINT: fn(&str) -> LintReport;
    fn parse(deck: &str) -> Result<Self::Parsed, TreeError>;
    fn canonical(parsed: &Self::Parsed) -> String;
    fn cache(caches: &mut Caches) -> &mut ResultCache<Self::Timing>;
    fn submit(
        service: &EngineService,
        name: &str,
        deck: &str,
        parsed: Self::Parsed,
    ) -> Result<(Result<Self::Timing, EngineError>, JobTiming), EngineError>;
    fn rename(timing: &mut Self::Timing, name: &str);
    fn verdict(result: &Result<Self::Timing, EngineError>) -> String;
    /// Times the engine's inner steps on `parsed` under the `exec` span.
    fn beside(
        tracer: &mut Tracer,
        scratch: &mut Scratch,
        exec: usize,
        name: &str,
        parsed: Self::Parsed,
    );
}

struct Analyze;
struct Couple;
struct Optimize;

impl Job for Analyze {
    type Parsed = RlcTree;
    type Timing = NetTiming;
    const FIELD: &'static str = "net";
    const MODEL: &'static str = "eed";
    const LINT: fn(&str) -> LintReport = lint_deck;

    fn parse(deck: &str) -> Result<RlcTree, TreeError> {
        Netlist::parse(deck).map(Netlist::into_tree)
    }

    fn canonical(tree: &RlcTree) -> String {
        tree.canonical_deck()
    }

    fn cache(caches: &mut Caches) -> &mut ResultCache<NetTiming> {
        &mut caches.nets
    }

    fn submit(
        service: &EngineService,
        name: &str,
        _deck: &str,
        tree: RlcTree,
    ) -> Result<(Result<NetTiming, EngineError>, JobTiming), EngineError> {
        service
            .submit_spec(JobSpec::tree(name, tree))
            .map(|ticket| ticket.wait_timed())
    }

    fn rename(timing: &mut NetTiming, name: &str) {
        timing.name = name.to_owned();
    }

    fn verdict(result: &Result<NetTiming, EngineError>) -> String {
        net_json(result)
    }

    fn beside(tracer: &mut Tracer, scratch: &mut Scratch, exec: usize, _name: &str, tree: RlcTree) {
        let Scratch { flat, sums, .. } = scratch;
        tracer.time("engine.flatten", exec, || flat.rebuild_from(&tree));
        tracer.time("engine.sums", exec, || flat_sums_into(flat, sums));
        tracer.time("engine.model", exec, || {
            for node in flat.leaf_ids() {
                let (rc, lc) = (sums.rc(node), sums.lc(node));
                if rc.as_seconds() != 0.0 || lc.as_seconds_squared() != 0.0 {
                    let model = SecondOrderModel::from_sums(rc, lc);
                    black_box((
                        model.delay_50(),
                        model.rise_time(),
                        model.zeta(),
                        model.damping(),
                    ));
                }
            }
        });
    }
}

impl Job for Couple {
    type Parsed = CoupledGroup;
    type Timing = GroupTiming;
    const FIELD: &'static str = "group";
    const MODEL: &'static str = "couple";
    const LINT: fn(&str) -> LintReport = lint_coupled_deck;

    fn parse(deck: &str) -> Result<CoupledGroup, TreeError> {
        CoupledGroup::parse(deck)
    }

    fn canonical(group: &CoupledGroup) -> String {
        group.canonical_deck()
    }

    fn cache(caches: &mut Caches) -> &mut ResultCache<GroupTiming> {
        &mut caches.groups
    }

    fn submit(
        service: &EngineService,
        name: &str,
        _deck: &str,
        group: CoupledGroup,
    ) -> Result<(Result<GroupTiming, EngineError>, JobTiming), EngineError> {
        service
            .submit_couple_spec(CoupleSpec::group(name, group))
            .map(|ticket| ticket.wait_timed())
    }

    fn rename(timing: &mut GroupTiming, name: &str) {
        timing.name = name.to_owned();
    }

    fn verdict(result: &Result<GroupTiming, EngineError>) -> String {
        group_json(result)
    }

    fn beside(
        tracer: &mut Tracer,
        scratch: &mut Scratch,
        exec: usize,
        name: &str,
        group: CoupledGroup,
    ) {
        tracer.time("couple.analyze", exec, || {
            black_box(analyze_group_with(&group, name, &mut scratch.couple));
        });
    }
}

impl Job for Optimize {
    type Parsed = SynthDeck;
    type Timing = SynthTiming;
    const FIELD: &'static str = "synth";
    const MODEL: &'static str = "synth";
    const LINT: fn(&str) -> LintReport = lint_synth_deck;

    fn parse(deck: &str) -> Result<SynthDeck, TreeError> {
        SynthDeck::parse(deck)
    }

    fn canonical(deck: &SynthDeck) -> String {
        deck.canonical_deck()
    }

    fn cache(caches: &mut Caches) -> &mut ResultCache<SynthTiming> {
        &mut caches.synths
    }

    /// Like `serve`, hands the engine the deck text, not the parse.
    fn submit(
        service: &EngineService,
        name: &str,
        deck: &str,
        _parsed: SynthDeck,
    ) -> Result<(Result<SynthTiming, EngineError>, JobTiming), EngineError> {
        service
            .submit_synth_spec(SynthSpec::deck(name, deck))
            .map(|ticket| ticket.wait_timed())
    }

    fn rename(timing: &mut SynthTiming, name: &str) {
        timing.name = name.to_owned();
    }

    fn verdict(result: &Result<SynthTiming, EngineError>) -> String {
        synth_json(result)
    }

    fn beside(
        tracer: &mut Tracer,
        _scratch: &mut Scratch,
        exec: usize,
        _name: &str,
        deck: SynthDeck,
    ) {
        tracer.time("synth.optimize", exec, || {
            black_box(synthesize(&deck, &SynthConfig::default()));
        });
    }
}

/// The bench-owned serving stack the traced replay drives.
struct Pipeline {
    service: EngineService,
    caches: Caches,
    scratch: Scratch,
}

impl Pipeline {
    fn new() -> Self {
        Pipeline {
            service: EngineService::start(ServiceConfig {
                workers: WORKERS,
                capacity: QUEUE,
                ..ServiceConfig::default()
            }),
            caches: Caches {
                nets: ResultCache::new(CACHE),
                groups: ResultCache::new(CACHE),
                synths: ResultCache::new(CACHE),
            },
            scratch: Scratch::default(),
        }
    }

    fn request(&mut self, tracer: &mut Tracer, wire: &[u8]) -> Result<String, String> {
        let start = tracer.at(Instant::now());
        let root = tracer.push("request", start, start, None);
        let request = match tracer.time("read", root, || read_request(&mut &wire[..])) {
            Ok(ReadOutcome::Request(request)) => request,
            other => return Err(format!("generated request does not frame: {other:?}")),
        };
        match request {
            Request::Analyze(r) => self.job::<Analyze>(tracer, root, &r.name, r.lint, &r.deck),
            Request::Couple(r) => self.job::<Couple>(tracer, root, &r.name, r.lint, &r.deck),
            Request::Optimize(r) => self.job::<Optimize>(tracer, root, &r.name, r.lint, &r.deck),
            Request::Lint(r) => {
                let report = tracer.time("lint", root, || lint_deck(&r.deck));
                let line = tracer.time("render", root, || lint_line(&r.name, &report));
                tracer.close(root);
                Ok(line)
            }
            other => Err(format!("the generators never send {other:?}")),
        }
    }

    fn job<J: Job>(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
        name: &str,
        lint: LintMode,
        deck: &str,
    ) -> Result<String, String> {
        let report = tracer.time("lint", root, || gate(lint, J::LINT, deck));
        if let Some(report) = denies(lint, report.as_ref()) {
            let line = tracer.time("render", root, || lint_denied_line(name, report));
            tracer.close(root);
            return Ok(line);
        }
        let annotation = annotation(report);
        let annotation = annotation.as_deref();
        let parsed = match tracer.time("parse", root, || J::parse(deck)) {
            Ok(parsed) => parsed,
            Err(source) => {
                let error = Err(EngineError::Netlist {
                    net: name.to_owned(),
                    source,
                });
                let line = tracer.time("render", root, || {
                    result_line(J::FIELD, "miss", &J::verdict(&error), annotation)
                });
                tracer.close(root);
                return Ok(line);
            }
        };
        let key = tracer.time("canonical", root, || {
            ResultCache::key(J::MODEL, &J::canonical(&parsed))
        });
        let cached = tracer.time("cache", root, || {
            J::cache(&mut self.caches).get(&key, Instant::now())
        });
        if let Some(mut timing) = cached {
            J::rename(&mut timing, name);
            let line = tracer.time("render", root, || {
                result_line(J::FIELD, "hit", &J::verdict(&Ok(timing)), annotation)
            });
            tracer.close(root);
            return Ok(line);
        }
        let submitted = Instant::now();
        let (result, timing) = J::submit(&self.service, name, deck, parsed)
            .map_err(|e| format!("replay admission failed: {e}"))?;
        let exec = tracer.engine(submitted, timing, root);
        if let Ok(timing) = &result {
            tracer.time("cache", root, || {
                J::cache(&mut self.caches).insert(key, timing.clone(), Instant::now());
            });
        }
        let line = tracer.time("render", root, || {
            result_line(J::FIELD, "miss", &J::verdict(&result), annotation)
        });
        tracer.close(root);
        // Re-parsed outside every span: only the inner steps are timed.
        if let Ok(parsed) = J::parse(deck) {
            J::beside(tracer, &mut self.scratch, exec, name, parsed);
        }
        Ok(line)
    }
}

pub struct Layer {
    pub name: &'static str,
    pub self_ns: u64,
    pub calls: u64,
}

pub struct Replay {
    spans: Vec<Span>,
    pub layers: Vec<Layer>,
    /// Each traced request's duration.
    pub request_ns: Vec<u64>,
    /// The untraced `ServeCore` replay's total time.
    pub untraced_ns: u64,
    /// Requests whose traced and `ServeCore` replies differ.
    pub mismatches: Vec<String>,
}

/// Replays `warmup` untimed, then `requests`, through the traced pipeline
/// and through a `ServeCore` side by side. Each request goes to both in
/// turn, alternating which goes first, so warm caches and clock drift
/// favour neither.
pub fn run(warmup: &[Req], requests: &[Req]) -> Result<Replay, String> {
    let mut pipeline = Pipeline::new();
    let core = ServeCore::new(ServeConfig {
        workers: WORKERS,
        queue_capacity: QUEUE,
        cache: CACHE,
        telemetry: TelemetryConfig::default(),
    });
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        request: 0,
    };
    for req in warmup {
        pipeline.request(&mut tracer, &req.wire)?;
        serve_core(&core, &req.wire)?;
    }
    tracer.spans.clear();
    tracer.origin = Instant::now();
    let mut untraced_ns = 0;
    let mut mismatches = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        tracer.request = i;
        let mut untraced = || -> Result<String, String> {
            let start = Instant::now();
            let reply = serve_core(&core, &req.wire)?;
            untraced_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            Ok(reply)
        };
        let (traced, reply) = if i % 2 == 0 {
            (pipeline.request(&mut tracer, &req.wire)?, untraced()?)
        } else {
            let reply = untraced()?;
            (pipeline.request(&mut tracer, &req.wire)?, reply)
        };
        if traced != reply {
            mismatches.push(format!(
                "{}: replay {} vs ServeCore {}",
                req.name,
                crate::tcp::clip(&traced),
                crate::tcp::clip(&reply)
            ));
        }
    }
    core.drain();

    let spans = tracer.spans;
    let mut children_ns = vec![0u64; spans.len()];
    for span in &spans {
        if let Some(parent) = span.parent {
            children_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut layers: Vec<Layer> = LAYERS
        .iter()
        .map(|&name| Layer {
            name,
            self_ns: 0,
            calls: 0,
        })
        .collect();
    let mut request_ns = Vec::with_capacity(requests.len());
    for (span, children) in spans.iter().zip(&children_ns) {
        let duration = span.end_ns - span.start_ns;
        match layers.iter_mut().find(|l| l.name == span.name) {
            Some(layer) => {
                layer.self_ns += duration.saturating_sub(*children);
                layer.calls += 1;
            }
            None => request_ns.push(duration),
        }
    }
    Ok(Replay {
        spans,
        layers,
        request_ns,
        untraced_ns,
        mismatches,
    })
}

/// One request through `ServeCore`, as `serve` dispatches it.
fn serve_core(core: &ServeCore, wire: &[u8]) -> Result<String, String> {
    match read_request(&mut &wire[..]) {
        Ok(ReadOutcome::Request(Request::Analyze(r))) => Ok(core.analyze(r)),
        Ok(ReadOutcome::Request(Request::Couple(r))) => Ok(core.couple(r)),
        Ok(ReadOutcome::Request(Request::Optimize(r))) => Ok(core.optimize(r)),
        Ok(ReadOutcome::Request(Request::Lint(r))) => Ok(core.lint(&r)),
        other => Err(format!("the generators never send {other:?}")),
    }
}

impl Replay {
    /// The spans as JSON, one span per line.
    pub fn spans_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}
