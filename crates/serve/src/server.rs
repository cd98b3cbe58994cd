//! The serving layer: request handling over an [`EngineService`], a TCP
//! accept loop, and a stdio transport.
//!
//! [`ServeCore`] is transport-agnostic — it turns a parsed
//! [`Request`](crate::protocol::Request) into a single-line JSON response
//! and owns the engine pool plus the result cache. [`Server`] wraps it in
//! a `TcpListener` with one thread per connection; [`serve_stdio`] runs
//! the same core over any `BufRead`/`Write` pair (used by `serve --stdio`
//! and the integration tests).
//!
//! # Response invariants
//!
//! * The `"net"` object inside a `result` response is exactly
//!   [`rlc_engine::net_json`] of the engine's verdict — byte-identical to
//!   what a direct [`Engine`](rlc_engine::Engine) run reports for the
//!   same deck, for any worker count.
//! * Admission failures never masquerade as analysis results: they are
//!   `error` responses with `kind` `overloaded`, `shutting_down` or
//!   `lint_denied`.
//! * The lint report is computed from the deck text *before* the cache
//!   lookup, so a `result` response carries the identical `"lint"`
//!   member (present only when there are findings) whether it was a hit
//!   or a miss, and `lint=deny` gates hits and misses alike.
//! * The final `stats` line never mentions the worker count, so shutdown
//!   reports from differently sized pools are byte-comparable.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rlc_couple::GroupTiming;
use rlc_engine::{
    group_json, net_json, synth_json, CoupleSpec, EngineError, EngineService,
    EngineTelemetrySnapshot, JobSpec, NetTiming, ServiceConfig, ServiceStats, SynthSpec,
};
use rlc_lint::LintReport;
use rlc_obs::json;
use rlc_synth::SynthTiming;
use rlc_tree::coupled::CoupledGroup;
use rlc_tree::netlist::Netlist;
use rlc_tree::synth::SynthDeck;

use crate::cache::{CacheConfig, CacheStats, ResultCache};
use crate::protocol::{
    read_request, AnalyzeRequest, CoupleRequest, LintMode, LintRequest, OptimizeRequest,
    ProtocolError, ReadOutcome, Request,
};
use crate::telemetry::{ServeTelemetry, TelemetryConfig};

/// Sizing of a serving stack: engine pool, admission bound, cache policy,
/// telemetry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeConfig {
    /// Engine worker threads; `0` sizes to the machine.
    pub workers: usize,
    /// Bound on outstanding engine jobs; `0` takes the engine default.
    pub queue_capacity: usize,
    /// Result-cache policy.
    pub cache: CacheConfig,
    /// Telemetry policy (always-on by default; see [`TelemetryConfig`]).
    /// The configured [`TimeSource`](rlc_obs::TimeSource) is shared with
    /// the engine service so all histograms quantize identically.
    pub telemetry: TelemetryConfig,
}

impl ServeConfig {
    fn service_config(&self) -> ServiceConfig {
        let default = ServiceConfig::default();
        ServiceConfig {
            workers: self.workers,
            capacity: if self.queue_capacity == 0 {
                default.capacity
            } else {
                self.queue_capacity
            },
            time: self.telemetry.time,
        }
    }
}

/// Transport-independent request handling: engine pool + result cache +
/// request counters + telemetry.
pub struct ServeCore {
    service: EngineService,
    cache: Mutex<ResultCache<NetTiming>>,
    /// Coupled-group results live in their own cache instance: the value
    /// types differ and a `"couple"` model id already separates the key
    /// spaces, but splitting the instances also keeps group results from
    /// competing with single-net results for LRU residency.
    couple_cache: Mutex<ResultCache<GroupTiming>>,
    /// Synthesis results likewise get their own instance: an optimize run
    /// is orders of magnitude more expensive to recompute than a timing
    /// query, so its entries must not be evicted by cheap analyze traffic.
    synth_cache: Mutex<ResultCache<SynthTiming>>,
    requests: AtomicU64,
    bad_requests: AtomicU64,
    lint_denied: AtomicU64,
    telemetry: ServeTelemetry,
}

impl ServeCore {
    /// Starts the engine pool and an empty cache.
    pub fn new(config: ServeConfig) -> Self {
        Self {
            service: EngineService::start(config.service_config()),
            cache: Mutex::new(ResultCache::new(config.cache)),
            couple_cache: Mutex::new(ResultCache::new(config.cache)),
            synth_cache: Mutex::new(ResultCache::new(config.cache)),
            requests: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            lint_denied: AtomicU64::new(0),
            telemetry: ServeTelemetry::new(config.telemetry),
        }
    }

    /// Live engine counters (admissions, completions, rejections).
    pub fn engine_stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// Live engine latency/depth histograms.
    pub fn engine_telemetry(&self) -> EngineTelemetrySnapshot {
        self.service.telemetry()
    }

    /// Live cache counters, summed over the single-net and coupled-group
    /// caches (one cache subsystem as far as reports are concerned).
    pub fn cache_stats(&self) -> CacheStats {
        let net = self.cache.lock().expect("cache lock").stats();
        let couple = self.couple_cache.lock().expect("couple cache lock").stats();
        let synth = self.synth_cache.lock().expect("synth cache lock").stats();
        CacheStats {
            hits: net.hits + couple.hits + synth.hits,
            misses: net.misses + couple.misses + synth.misses,
            evictions: net.evictions + couple.evictions + synth.evictions,
            expired: net.expired + couple.expired + synth.expired,
            entries: net.entries + couple.entries + synth.entries,
        }
    }

    /// Handles one analyze request, returning the response line.
    ///
    /// The deck is linted first (see [`LintMode`]): `deny` rejects a deck
    /// with errors or warnings before any cache or engine work, `warn`
    /// (the default) attaches a `"lint"` summary to the response when
    /// there are findings. The deck is then parsed here (the canonical
    /// form is the cache address), so workers only ever see already-built
    /// trees; a parse failure renders the same [`EngineError::Netlist`]
    /// the engine itself would report for the deck.
    pub fn analyze(&self, request: AnalyzeRequest) -> String {
        self.analyze_with_read(request, None)
    }

    /// [`analyze`](Self::analyze) with the transport's raw read-stage
    /// measurement attached to the request's trace.
    pub(crate) fn analyze_with_read(
        &self,
        request: AnalyzeRequest,
        read_ns: Option<u64>,
    ) -> String {
        let mut trace = self.telemetry.begin("analyze", read_ns);
        self.requests.fetch_add(1, Ordering::Relaxed);
        // Lint before the cache lookup: the report depends only on the
        // deck text, so hits and misses carry identical annotations and
        // the deny gate cannot be dodged by a warm cache.
        let report = trace.time("lint", || match request.lint {
            LintMode::Off => None,
            LintMode::Warn | LintMode::Deny => Some(rlc_lint::lint_deck(&request.deck)),
        });
        match (request.lint, &report) {
            (LintMode::Deny, Some(report)) if !report.passes(true) => {
                self.lint_denied.fetch_add(1, Ordering::Relaxed);
                let line = trace.time("render", || lint_denied_response(&request.name, report));
                self.telemetry.finish(trace, "lint_denied");
                return line;
            }
            _ => {}
        }
        let annotation = report
            .filter(|r| !r.is_spotless())
            .map(|r| r.annotation_json());
        let annotation = annotation.as_deref();
        // Parse + canonicalize: the canonical deck is the cache address.
        let parsed = trace.time("parse", || {
            Netlist::parse(&request.deck).map(|netlist| {
                let tree = netlist.into_tree();
                let key = ResultCache::key(request.model.id(), &tree.canonical_deck());
                (tree, key)
            })
        });
        let (tree, key) = match parsed {
            Ok(parsed) => parsed,
            Err(source) => {
                let error = EngineError::Netlist {
                    net: request.name,
                    source,
                };
                let line = trace.time("render", || {
                    result_response("miss", &net_json(&Err(error)), annotation)
                });
                self.telemetry.finish(trace, "error");
                return line;
            }
        };
        let cached = trace.time("cache", || {
            self.cache
                .lock()
                .expect("cache lock")
                .get(&key, self.telemetry.now())
        });
        if let Some(mut timing) = cached {
            // Content-addressed: the cached circuit answers under the
            // requester's label.
            timing.name = request.name;
            let line = trace.time("render", || {
                result_response("hit", &net_json(&Ok(timing)), annotation)
            });
            self.telemetry.finish(trace, "cache_hit");
            return line;
        }
        let mut spec = JobSpec::tree(&request.name, tree).model(request.model);
        if let Some(ms) = request.deadline_ms {
            spec = spec.deadline(self.telemetry.now() + Duration::from_millis(ms));
        }
        if let Some(ms) = request.sleep_ms {
            spec = spec.hold(Duration::from_millis(ms));
        }
        match self.service.submit_spec(spec) {
            Err(rejection) => {
                let outcome = match &rejection {
                    EngineError::Overloaded { .. } => "overloaded",
                    _ => "shutting_down",
                };
                let line = trace.time("render", || admission_response(&rejection));
                self.telemetry.finish(trace, outcome);
                line
            }
            Ok(ticket) => {
                let (result, timing) = ticket.wait_timed();
                trace.add_stage("admission", timing.queue_ns);
                trace.add_stage("engine", timing.exec_ns);
                if let Ok(timing) = &result {
                    self.cache.lock().expect("cache lock").insert(
                        key,
                        timing.clone(),
                        self.telemetry.now(),
                    );
                }
                let outcome = match &result {
                    Ok(_) => "ok",
                    Err(EngineError::DeadlineExceeded { .. }) => "deadline",
                    Err(EngineError::ShuttingDown { .. }) => "shutting_down",
                    Err(_) => "error",
                };
                let line = trace.time("render", || {
                    result_response("miss", &net_json(&result), annotation)
                });
                self.telemetry.finish(trace, outcome);
                line
            }
        }
    }

    /// Handles one coupled-group request, returning the response line.
    ///
    /// The pipeline mirrors [`analyze`](Self::analyze) stage for stage,
    /// swapping in the coupled substrate: the deck is linted with
    /// [`rlc_lint::lint_coupled_deck`], parsed as a
    /// [`CoupledGroup`], content-addressed by its *canonical coupled deck*
    /// under the `"couple"` model id, and analyzed on the shared engine
    /// pool via [`CoupleSpec`]. The `"group"` member of the response is
    /// exactly [`rlc_engine::group_json`] of the engine's verdict — the
    /// single-line `rlc-couple/1` report, byte-identical for any worker
    /// count.
    pub fn couple(&self, request: CoupleRequest) -> String {
        self.couple_with_read(request, None)
    }

    pub(crate) fn couple_with_read(&self, request: CoupleRequest, read_ns: Option<u64>) -> String {
        let mut trace = self.telemetry.begin("couple", read_ns);
        self.requests.fetch_add(1, Ordering::Relaxed);
        let report = trace.time("lint", || match request.lint {
            LintMode::Off => None,
            LintMode::Warn | LintMode::Deny => Some(rlc_lint::lint_coupled_deck(&request.deck)),
        });
        match (request.lint, &report) {
            (LintMode::Deny, Some(report)) if !report.passes(true) => {
                self.lint_denied.fetch_add(1, Ordering::Relaxed);
                let line = trace.time("render", || lint_denied_response(&request.name, report));
                self.telemetry.finish(trace, "lint_denied");
                return line;
            }
            _ => {}
        }
        let annotation = report
            .filter(|r| !r.is_spotless())
            .map(|r| r.annotation_json());
        let annotation = annotation.as_deref();
        let parsed = trace.time("parse", || {
            CoupledGroup::parse(&request.deck).map(|group| {
                let key = ResultCache::key("couple", &group.canonical_deck());
                (group, key)
            })
        });
        let (group, key) = match parsed {
            Ok(parsed) => parsed,
            Err(source) => {
                let error = EngineError::Netlist {
                    net: request.name,
                    source,
                };
                let line = trace.time("render", || {
                    couple_response("miss", &group_json(&Err(error)), annotation)
                });
                self.telemetry.finish(trace, "error");
                return line;
            }
        };
        let cached = trace.time("cache", || {
            self.couple_cache
                .lock()
                .expect("couple cache lock")
                .get(&key, self.telemetry.now())
        });
        if let Some(mut timing) = cached {
            // Content-addressed: the cached group answers under the
            // requester's label.
            timing.name = request.name;
            let line = trace.time("render", || {
                couple_response("hit", &group_json(&Ok(timing)), annotation)
            });
            self.telemetry.finish(trace, "cache_hit");
            return line;
        }
        let mut spec = CoupleSpec::group(&request.name, group);
        if let Some(ms) = request.deadline_ms {
            spec = spec.deadline(self.telemetry.now() + Duration::from_millis(ms));
        }
        if let Some(ms) = request.sleep_ms {
            spec = spec.hold(Duration::from_millis(ms));
        }
        match self.service.submit_couple_spec(spec) {
            Err(rejection) => {
                let outcome = match &rejection {
                    EngineError::Overloaded { .. } => "overloaded",
                    _ => "shutting_down",
                };
                let line = trace.time("render", || admission_response(&rejection));
                self.telemetry.finish(trace, outcome);
                line
            }
            Ok(ticket) => {
                let (result, timing) = ticket.wait_timed();
                trace.add_stage("admission", timing.queue_ns);
                trace.add_stage("engine", timing.exec_ns);
                if let Ok(timing) = &result {
                    self.couple_cache.lock().expect("couple cache lock").insert(
                        key,
                        timing.clone(),
                        self.telemetry.now(),
                    );
                }
                let outcome = match &result {
                    Ok(_) => "couple",
                    Err(EngineError::DeadlineExceeded { .. }) => "deadline",
                    Err(EngineError::ShuttingDown { .. }) => "shutting_down",
                    Err(_) => "error",
                };
                let line = trace.time("render", || {
                    couple_response("miss", &group_json(&result), annotation)
                });
                self.telemetry.finish(trace, outcome);
                line
            }
        }
    }

    /// Handles one synthesis request, returning the response line.
    ///
    /// The pipeline mirrors [`analyze`](Self::analyze) stage for stage,
    /// swapping in the synthesis substrate: the deck is linted with
    /// [`rlc_lint::lint_synth_deck`], parsed as a [`SynthDeck`],
    /// content-addressed by its *canonical synthesis deck* (which embeds
    /// the selected buffer card, driver resistance, and constraints) under
    /// the `"synth"` model id, and optimized on the shared engine pool via
    /// [`SynthSpec`]. The `"synth"` member of the response is exactly
    /// [`rlc_engine::synth_json`] of the engine's verdict — the
    /// single-line `rlc-synth/1` report, byte-identical for any worker
    /// count.
    pub fn optimize(&self, request: OptimizeRequest) -> String {
        self.optimize_with_read(request, None)
    }

    pub(crate) fn optimize_with_read(
        &self,
        request: OptimizeRequest,
        read_ns: Option<u64>,
    ) -> String {
        let mut trace = self.telemetry.begin("optimize", read_ns);
        self.requests.fetch_add(1, Ordering::Relaxed);
        let report = trace.time("lint", || match request.lint {
            LintMode::Off => None,
            LintMode::Warn | LintMode::Deny => Some(rlc_lint::lint_synth_deck(&request.deck)),
        });
        match (request.lint, &report) {
            (LintMode::Deny, Some(report)) if !report.passes(true) => {
                self.lint_denied.fetch_add(1, Ordering::Relaxed);
                let line = trace.time("render", || lint_denied_response(&request.name, report));
                self.telemetry.finish(trace, "lint_denied");
                return line;
            }
            _ => {}
        }
        let annotation = report
            .filter(|r| !r.is_spotless())
            .map(|r| r.annotation_json());
        let annotation = annotation.as_deref();
        let parsed = trace.time("parse", || {
            SynthDeck::parse(&request.deck)
                .map(|deck| ResultCache::key("synth", &deck.canonical_deck()))
        });
        let key = match parsed {
            Ok(key) => key,
            Err(source) => {
                let error = EngineError::Netlist {
                    net: request.name,
                    source,
                };
                let line = trace.time("render", || {
                    synth_response("miss", &synth_json(&Err(error)), annotation)
                });
                self.telemetry.finish(trace, "error");
                return line;
            }
        };
        let cached = trace.time("cache", || {
            self.synth_cache
                .lock()
                .expect("synth cache lock")
                .get(&key, self.telemetry.now())
        });
        if let Some(mut timing) = cached {
            // Content-addressed: the cached net answers under the
            // requester's label.
            timing.name = request.name;
            let line = trace.time("render", || {
                synth_response("hit", &synth_json(&Ok(timing)), annotation)
            });
            self.telemetry.finish(trace, "cache_hit");
            return line;
        }
        let mut spec = SynthSpec::deck(&request.name, &request.deck);
        if let Some(ms) = request.deadline_ms {
            spec = spec.deadline(self.telemetry.now() + Duration::from_millis(ms));
        }
        if let Some(ms) = request.sleep_ms {
            spec = spec.hold(Duration::from_millis(ms));
        }
        match self.service.submit_synth_spec(spec) {
            Err(rejection) => {
                let outcome = match &rejection {
                    EngineError::Overloaded { .. } => "overloaded",
                    _ => "shutting_down",
                };
                let line = trace.time("render", || admission_response(&rejection));
                self.telemetry.finish(trace, outcome);
                line
            }
            Ok(ticket) => {
                let (result, timing) = ticket.wait_timed();
                trace.add_stage("admission", timing.queue_ns);
                trace.add_stage("engine", timing.exec_ns);
                if let Ok(timing) = &result {
                    self.synth_cache.lock().expect("synth cache lock").insert(
                        key,
                        timing.clone(),
                        self.telemetry.now(),
                    );
                }
                let outcome = match &result {
                    Ok(_) => "synth",
                    Err(EngineError::DeadlineExceeded { .. }) => "deadline",
                    Err(EngineError::ShuttingDown { .. }) => "shutting_down",
                    Err(_) => "error",
                };
                let line = trace.time("render", || {
                    synth_response("miss", &synth_json(&result), annotation)
                });
                self.telemetry.finish(trace, outcome);
                line
            }
        }
    }

    /// Handles a `lint` request: the full `rlc-lint` report for one deck.
    /// Never touches the cache or the engine pool.
    pub fn lint(&self, request: &LintRequest) -> String {
        self.lint_with_read(request, None)
    }

    pub(crate) fn lint_with_read(&self, request: &LintRequest, read_ns: Option<u64>) -> String {
        let mut trace = self.telemetry.begin("lint", read_ns);
        self.requests.fetch_add(1, Ordering::Relaxed);
        let report = trace.time("lint", || rlc_lint::lint_deck(&request.deck));
        let line = trace.time("render", || {
            format!(
                "{{\"proto\": \"rlc-serve/1\", \"type\": \"lint\", \"report\": {}}}",
                report.to_json_object(&request.name)
            )
        });
        self.telemetry.finish(trace, "ok");
        line
    }

    /// Handles a probe, returning the live-counters response line.
    pub fn probe(&self) -> String {
        self.probe_with_read(None)
    }

    pub(crate) fn probe_with_read(&self, read_ns: Option<u64>) -> String {
        let mut trace = self.telemetry.begin("probe", read_ns);
        self.requests.fetch_add(1, Ordering::Relaxed);
        let line = trace.time("render", || {
            format!(
                "{{\"proto\": \"rlc-serve/1\", \"type\": \"probe\", {}}}",
                self.stats_body()
            )
        });
        self.telemetry.finish(trace, "ok");
        line
    }

    /// Handles a `metrics` request: the cumulative `rlc-trace/1`
    /// telemetry report. The snapshot is taken *before* this request's
    /// own counters are recorded, so the report describes exactly the
    /// requests finished before it — which is what keeps the output
    /// byte-deterministic for a given request sequence.
    pub fn metrics(&self) -> String {
        self.metrics_with_read(None)
    }

    pub(crate) fn metrics_with_read(&self, read_ns: Option<u64>) -> String {
        let mut trace = self.telemetry.begin("metrics", read_ns);
        let report = self.metrics_report();
        self.requests.fetch_add(1, Ordering::Relaxed);
        let line = trace.time("render", || {
            format!("{{\"proto\": \"rlc-serve/1\", \"type\": \"metrics\", \"report\": {report}}}")
        });
        self.telemetry.finish(trace, "ok");
        line
    }

    /// The bare `rlc-trace/1` cumulative report (the `"report"` member of
    /// a `metrics` response): outcome counters, per-stage latency
    /// histograms, engine and cache statistics. Also what the
    /// `--metrics-interval` heartbeat prints.
    pub fn metrics_report(&self) -> String {
        self.telemetry.report(
            self.requests.load(Ordering::Relaxed),
            self.bad_requests.load(Ordering::Relaxed),
            self.lint_denied.load(Ordering::Relaxed),
            &self.service.stats(),
            &self.service.telemetry(),
            &self.cache_stats(),
        )
    }

    /// Handles a `trace` request: per-request stage breakdowns from the
    /// flight recorder (raw nanoseconds — excluded from the determinism
    /// guarantees). `last = 0` means all retained recent requests.
    pub fn trace(&self, last: usize) -> String {
        self.trace_with_read(last, None)
    }

    pub(crate) fn trace_with_read(&self, last: usize, read_ns: Option<u64>) -> String {
        let mut trace = self.telemetry.begin("trace", read_ns);
        let body = self.telemetry.trace_body(last);
        self.requests.fetch_add(1, Ordering::Relaxed);
        let line = trace.time("render", || {
            format!("{{\"proto\": \"rlc-serve/1\", \"type\": \"trace\", \"report\": {body}}}")
        });
        self.telemetry.finish(trace, "ok");
        line
    }

    /// Records and answers a framing violation.
    pub fn bad_request(&self, error: &ProtocolError) -> String {
        self.bad_request_with_read(error, None)
    }

    pub(crate) fn bad_request_with_read(
        &self,
        error: &ProtocolError,
        read_ns: Option<u64>,
    ) -> String {
        let mut trace = self.telemetry.begin("bad_request", read_ns);
        self.bad_requests.fetch_add(1, Ordering::Relaxed);
        let line = trace.time("render", || {
            format!(
                "{{\"proto\": \"rlc-serve/1\", \"type\": \"error\", \"kind\": \"bad_request\", \"message\": {}}}",
                json::quote(&error.message)
            )
        });
        self.telemetry.finish(trace, "bad_request");
        line
    }

    /// Stops admission and blocks until every accepted job has delivered
    /// its result. Idempotent.
    pub fn drain(&self) {
        self.service.drain();
    }

    /// The final `rlc-serve/1` stats report. Call after
    /// [`drain`](Self::drain) (enforced nowhere — a pre-drain call just
    /// reports a moving count).
    pub fn final_stats(&self) -> String {
        format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"stats\", {}}}",
            self.stats_body()
        )
    }

    fn stats_body(&self) -> String {
        let engine = self.service.stats();
        let cache = self.cache_stats();
        format!(
            "\"requests\": {}, \"bad_requests\": {}, \"lint_denied\": {}, \
             \"engine\": {{\"submitted\": {}, \"completed\": {}, \"failed\": {}, \
             \"rejected_overload\": {}, \"rejected_shutdown\": {}}}, \
             \"cache\": {{\"entries\": {}, \"hits\": {}, \"misses\": {}, \
             \"evictions\": {}, \"expired\": {}}}",
            self.requests.load(Ordering::Relaxed),
            self.bad_requests.load(Ordering::Relaxed),
            self.lint_denied.load(Ordering::Relaxed),
            engine.submitted,
            engine.completed,
            engine.failed,
            engine.rejected_overload,
            engine.rejected_shutdown,
            cache.entries,
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.expired,
        )
    }
}

/// A `couple` result line: like [`result_response`] but the verdict is the
/// group's `rlc-couple/1` object under `"group"`.
fn couple_response(cache: &str, group: &str, lint: Option<&str>) -> String {
    match lint {
        Some(annotation) => format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"{cache}\", \"group\": {group}, \"lint\": {annotation}}}"
        ),
        None => format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"{cache}\", \"group\": {group}}}"
        ),
    }
}

/// An `optimize` result line: like [`result_response`] but the verdict is
/// the net's `rlc-synth/1` object under `"synth"`.
fn synth_response(cache: &str, synth: &str, lint: Option<&str>) -> String {
    match lint {
        Some(annotation) => format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"{cache}\", \"synth\": {synth}, \"lint\": {annotation}}}"
        ),
        None => format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"{cache}\", \"synth\": {synth}}}"
        ),
    }
}

fn result_response(cache: &str, net: &str, lint: Option<&str>) -> String {
    match lint {
        Some(annotation) => format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"{cache}\", \"net\": {net}, \"lint\": {annotation}}}"
        ),
        None => format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"{cache}\", \"net\": {net}}}"
        ),
    }
}

/// The `lint=deny` rejection: typed like `overloaded`, citing the
/// report's most severe finding and carrying the full annotation.
fn lint_denied_response(net: &str, report: &LintReport) -> String {
    let primary = report.primary();
    let code = primary.map_or("L000", |d| d.rule.code());
    let message = primary.map_or_else(
        || "lint gate failed".to_owned(),
        |d| format!("{} {}: {}", d.rule.code(), d.rule.severity(), d.message),
    );
    format!(
        "{{\"proto\": \"rlc-serve/1\", \"type\": \"error\", \"kind\": \"lint_denied\", \"net\": {}, \"code\": {}, \"message\": {}, \"lint\": {}}}",
        json::quote(net),
        json::quote(code),
        json::quote(&message),
        report.annotation_json(),
    )
}

fn admission_response(error: &EngineError) -> String {
    let kind = match error {
        EngineError::Overloaded { .. } => "overloaded",
        EngineError::ShuttingDown { .. } => "shutting_down",
        // `submit_spec` only ever rejects with the two variants above.
        _ => "rejected",
    };
    format!(
        "{{\"proto\": \"rlc-serve/1\", \"type\": \"error\", \"kind\": \"{kind}\", \"net\": {}, \"message\": {}}}",
        json::quote(error.net()),
        json::quote(&error.to_string())
    )
}

/// Runs the request loop over arbitrary streams: read a request, write
/// one response line, flush. Returns `true` if the peer asked for
/// shutdown (as opposed to hanging up or breaking framing).
///
/// On [`Request::Shutdown`] the core is drained and the final stats line
/// is the response. A [`ReadOutcome::Malformed`] request gets a
/// `bad_request` response and ends the loop — the stream can no longer be
/// trusted to align with request boundaries.
fn serve_streams<R: BufRead, W: Write>(
    core: &ServeCore,
    input: &mut R,
    output: &mut W,
) -> io::Result<bool> {
    loop {
        // The read stage spans from "ready for a request" to "request
        // framed", so it includes any wait for the peer to speak.
        let read_start = core.telemetry.now();
        let outcome = read_request(input)?;
        let read_ns = Some(u64::try_from(read_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        let (line, done) = match outcome {
            ReadOutcome::Eof => return Ok(false),
            ReadOutcome::Malformed(error) => {
                (core.bad_request_with_read(&error, read_ns), Some(false))
            }
            ReadOutcome::Request(Request::Probe) => (core.probe_with_read(read_ns), None),
            ReadOutcome::Request(Request::Metrics) => (core.metrics_with_read(read_ns), None),
            ReadOutcome::Request(Request::Trace { last }) => {
                (core.trace_with_read(last, read_ns), None)
            }
            ReadOutcome::Request(Request::Analyze(request)) => {
                (core.analyze_with_read(request, read_ns), None)
            }
            ReadOutcome::Request(Request::Couple(request)) => {
                (core.couple_with_read(request, read_ns), None)
            }
            ReadOutcome::Request(Request::Optimize(request)) => {
                (core.optimize_with_read(request, read_ns), None)
            }
            ReadOutcome::Request(Request::Lint(request)) => {
                (core.lint_with_read(&request, read_ns), None)
            }
            ReadOutcome::Request(Request::Shutdown) => {
                core.drain();
                (core.final_stats(), Some(true))
            }
        };
        output.write_all(line.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        if let Some(shutdown) = done {
            return Ok(shutdown);
        }
    }
}

/// Serves the `rlc-serve/1` protocol over a single `BufRead`/`Write`
/// pair (stdin/stdout in `serve --stdio`). Drains the engine and flushes
/// the final stats report when the input ends — unless the peer already
/// received it by asking for `shutdown`.
pub fn serve_stdio<R: BufRead, W: Write>(
    config: ServeConfig,
    input: &mut R,
    output: &mut W,
) -> io::Result<()> {
    let core = ServeCore::new(config);
    let shutdown_reported = serve_streams(&core, input, output)?;
    if !shutdown_reported {
        core.drain();
        output.write_all(core.final_stats().as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
    }
    Ok(())
}

/// A TCP front end over a shared [`ServeCore`]: one thread per
/// connection, graceful stop on the `shutdown` verb.
pub struct Server {
    core: Arc<ServeCore>,
    listener: TcpListener,
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    /// Read-half clones of the open connections, keyed by connection id,
    /// so shutdown can deliver EOF to peers parked in `read_request`. Each
    /// connection removes its own entry when its session ends.
    peers: Arc<Mutex<BTreeMap<u64, TcpStream>>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the engine pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            core: Arc::new(ServeCore::new(config)),
            listener,
            addr,
            stopping: Arc::new(AtomicBool::new(false)),
            peers: Arc::new(Mutex::new(BTreeMap::new())),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle on the shared core, e.g. for the `--metrics-interval`
    /// heartbeat thread to read [`ServeCore::metrics_report`] while the
    /// accept loop runs.
    pub fn core(&self) -> Arc<ServeCore> {
        Arc::clone(&self.core)
    }

    /// Accepts connections until a peer sends `shutdown`, then stops
    /// every remaining connection, drains the engine, and returns the
    /// final stats report (the same line the shutting-down peer
    /// received).
    ///
    /// Connections idle at shutdown are not waited on indefinitely:
    /// their read halves are shut down, so a peer parked between
    /// requests sees EOF while any response still being written goes
    /// out intact.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures; per-connection I/O errors
    /// only end their own connection.
    pub fn run(self) -> io::Result<String> {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        for id in 0u64.. {
            let (stream, _) = self.listener.accept()?;
            if self.stopping.load(Ordering::SeqCst) {
                // The wake-up connection from the shutdown handler (or a
                // late client); stop accepting.
                break;
            }
            // Reap the threads of sessions that have ended, so a
            // long-running daemon holds only its open connections.
            let (ended, open) = connections.into_iter().partition(JoinHandle::is_finished);
            connections = open;
            for connection in ended {
                let _ = connection.join();
            }
            if let Ok(clone) = stream.try_clone() {
                self.peers
                    .lock()
                    .expect("peer registry lock")
                    .insert(id, clone);
            }
            let core = Arc::clone(&self.core);
            let stopping = Arc::clone(&self.stopping);
            let peers = Arc::clone(&self.peers);
            let addr = self.addr;
            connections.push(std::thread::spawn(move || {
                handle_connection(&core, stream, &stopping, addr);
                peers.lock().expect("peer registry lock").remove(&id);
            }));
        }
        for peer in self.peers.lock().expect("peer registry lock").values() {
            let _ = peer.shutdown(std::net::Shutdown::Read);
        }
        for connection in connections {
            let _ = connection.join();
        }
        self.core.drain();
        Ok(self.core.final_stats())
    }
}

fn handle_connection(
    core: &ServeCore,
    stream: TcpStream,
    stopping: &AtomicBool,
    server_addr: SocketAddr,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let shutdown = serve_streams(core, &mut reader, &mut writer).unwrap_or(false);
    // The server's peer registry holds a clone of this socket until the
    // thread removes it, so shut it down now: the peer sees EOF as soon
    // as its session ends.
    let _ = writer.shutdown(std::net::Shutdown::Both);
    if shutdown && !stopping.swap(true, Ordering::SeqCst) {
        // First shutdown request: unblock the accept loop with a
        // throwaway connection so `run` can join and report.
        let _ = TcpStream::connect(server_addr);
    }
}
