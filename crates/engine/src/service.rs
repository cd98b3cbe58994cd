//! The long-running engine service: a bounded submission queue in front of
//! a persistent worker pool, with graceful drain.
//!
//! [`Engine::run`](crate::Engine::run) is a one-shot fan-out: it owns its
//! workers for the duration of one batch and returns when the whole corpus
//! is done. A serving front end (see the `rlc-serve` crate) instead needs
//! jobs to arrive one at a time, forever, from many producers — which
//! raises two problems `run` never has:
//!
//! * **Overload.** Producers can outrun the pool. An unbounded queue turns
//!   that into unbounded memory and unbounded latency; [`EngineService`]
//!   instead bounds *outstanding* work (queued + in-flight) and rejects
//!   at admission with a typed [`EngineError::Overloaded`].
//! * **Shutdown.** A service must stop without dropping accepted work.
//!   [`EngineService::drain`] stops admission (late submissions get
//!   [`EngineError::ShuttingDown`]) and waits until every accepted job has
//!   delivered its result; [`EngineService::shutdown`] additionally joins
//!   the workers and returns the final [`ServiceStats`].
//!
//! Results are delivered through a per-job [`JobTicket`], so concurrent
//! submitters never contend on a shared report.
//!
//! # Examples
//!
//! ```
//! use rlc_engine::{EngineService, ServiceConfig};
//!
//! let service = EngineService::start(ServiceConfig {
//!     workers: 2,
//!     capacity: 8,
//!     ..ServiceConfig::default()
//! });
//! let ticket = service
//!     .submit("line", "R1 in n1 25\nC1 n1 0 0.5p\n")
//!     .expect("queue has room");
//! let timing = ticket.wait().expect("analyzes fine");
//! assert_eq!(timing.sections, 1);
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

use std::collections::VecDeque;
use std::time::{Duration, Instant};

// Under `--cfg loom` the admission-slot protocol routes its primitives
// through the `loom` crate so `tests/loom_service.rs` can model-check the
// submit/drain/shutdown handoff (see that test and `vendor/loom`).
#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(loom)]
use loom::sync::mpsc;
#[cfg(loom)]
use loom::sync::{Arc, Condvar, Mutex};
#[cfg(loom)]
use loom::thread;
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::mpsc;
#[cfg(not(loom))]
use std::sync::{Arc, Condvar, Mutex};
#[cfg(not(loom))]
use std::thread;

use rlc_couple::{CoupleScratch, GroupTiming};
use rlc_obs::{Histogram, HistogramSnapshot, TimeSource};
use rlc_tree::coupled::CoupledGroup;
use rlc_tree::RlcTree;

use rlc_synth::{SynthConfig, SynthTiming};

use crate::batch::{analyze_one, NetScratch, NetSource, NetTiming, TimingModel};
use crate::couple::{analyze_one_couple, CoupleSource};
use crate::synth::{optimize_one, SynthSource};
use crate::EngineError;

/// Sizing of an [`EngineService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads; `0` sizes to `std::thread::available_parallelism`.
    pub workers: usize,
    /// Bound on *outstanding* jobs — queued plus in-flight. Admission
    /// counts a job from `submit` until its result is delivered, so the
    /// bound is independent of how fast workers pick jobs up (and overload
    /// behaviour is deterministic for any worker count).
    pub capacity: usize,
    /// Reported-duration source for the service's always-on telemetry.
    /// [`TimeSource::Wall`] in production; [`TimeSource::Logical`] makes
    /// the latency histograms byte-deterministic for a given job sequence
    /// at any worker count (DESIGN.md §13).
    pub time: TimeSource,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            capacity: 64,
            time: TimeSource::Wall,
        }
    }
}

/// Raw per-job wall timings, delivered alongside every result. These are
/// *unquantized* nanoseconds for flight-recorder use; the service's own
/// histograms (see [`EngineService::telemetry`]) apply the configured
/// [`TimeSource`] instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobTiming {
    /// Admission to worker pickup, raw wall nanoseconds.
    pub queue_ns: u64,
    /// Worker pickup to result delivery (including any injected hold),
    /// raw wall nanoseconds.
    pub exec_ns: u64,
    /// Outstanding jobs (queued + in-flight) at admission, this job
    /// included. Counted at admission rather than pickup, so the value
    /// does not depend on how quickly workers drain the queue.
    pub depth: u64,
}

/// Always-on service telemetry: latency and depth histograms recorded by
/// the admission path and the workers.
#[derive(Debug)]
struct ServiceTelemetry {
    time: TimeSource,
    queue_wait: Histogram,
    exec: Histogram,
    depth: Histogram,
}

/// A point-in-time copy of the service histograms (already quantized by
/// the configured [`TimeSource`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineTelemetrySnapshot {
    /// Admission-to-pickup wait per job, nanoseconds.
    pub queue_wait: HistogramSnapshot,
    /// Pickup-to-delivery execution time per job, nanoseconds.
    pub exec: HistogramSnapshot,
    /// Outstanding jobs observed at each admission (unitless).
    pub depth: HistogramSnapshot,
}

/// What one submitted job analyzes, and under which policy knobs.
#[derive(Debug, Clone)]
pub struct JobSpec {
    name: String,
    source: NetSource,
    model: TimingModel,
    deadline: Option<Instant>,
    hold: Option<Duration>,
}

impl JobSpec {
    /// A job that parses and analyzes a netlist deck.
    pub fn deck(name: impl Into<String>, deck: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            source: NetSource::Deck(deck.into()),
            model: TimingModel::Eed,
            deadline: None,
            hold: None,
        }
    }

    /// A job over an already-built tree (no parsing on the worker).
    pub fn tree(name: impl Into<String>, tree: RlcTree) -> Self {
        Self {
            name: name.into(),
            source: NetSource::Tree(tree),
            model: TimingModel::Eed,
            deadline: None,
            hold: None,
        }
    }

    /// Selects the timing model (default [`TimingModel::Eed`]).
    pub fn model(mut self, model: TimingModel) -> Self {
        self.model = model;
        self
    }

    /// Sets an absolute deadline. A worker that picks the job up after
    /// this instant skips the analysis and reports
    /// [`EngineError::DeadlineExceeded`] — queue time counts against the
    /// request, so a backlog sheds stale work instead of burning CPU on
    /// answers nobody is waiting for.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Fault-injection hook: the worker sleeps for `hold` before analyzing.
    ///
    /// Like [`Batch::push_panicking`](crate::Batch::push_panicking), this
    /// exists so scheduling contracts can be proven deterministically:
    /// held jobs pin workers and fill the queue on demand, which is how
    /// the overload and drain tests (and the `rlc-serve` smoke) force the
    /// admission paths without racing the real analysis speed.
    pub fn hold(mut self, hold: Duration) -> Self {
        self.hold = Some(hold);
        self
    }
}

/// What one submitted coupled-group job analyzes: the crosstalk analogue
/// of [`JobSpec`]. Coupled jobs share the same worker pool, admission
/// bound, and telemetry as single-net jobs — a group is simply a larger
/// unit of work.
#[derive(Debug, Clone)]
pub struct CoupleSpec {
    name: String,
    source: CoupleSource,
    deadline: Option<Instant>,
    hold: Option<Duration>,
}

impl CoupleSpec {
    /// A job that parses and analyzes a coupled deck
    /// (see [`rlc_tree::coupled`]).
    pub fn deck(name: impl Into<String>, deck: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            source: CoupleSource::Deck(deck.into()),
            deadline: None,
            hold: None,
        }
    }

    /// A job over an already-parsed group (no parsing on the worker).
    pub fn group(name: impl Into<String>, group: CoupledGroup) -> Self {
        Self {
            name: name.into(),
            source: CoupleSource::Group(group),
            deadline: None,
            hold: None,
        }
    }

    /// Sets an absolute deadline; see [`JobSpec::deadline`].
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Fault-injection hold; see [`JobSpec::hold`].
    pub fn hold(mut self, hold: Duration) -> Self {
        self.hold = Some(hold);
        self
    }
}

/// What one submitted synthesis job optimizes: the buffer-insertion
/// analogue of [`JobSpec`]. Synthesis jobs share the same worker pool,
/// admission bound, and telemetry as the other kinds — they are simply a
/// heavier unit of work.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    name: String,
    source: SynthSource,
    config: SynthConfig,
    deadline: Option<Instant>,
    hold: Option<Duration>,
}

impl SynthSpec {
    /// A job that parses and optimizes a synthesis deck
    /// (see [`rlc_tree::synth`]).
    pub fn deck(name: impl Into<String>, deck: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            source: SynthSource::Deck(deck.into()),
            config: SynthConfig::default(),
            deadline: None,
            hold: None,
        }
    }

    /// Replaces the synthesis configuration (default [`SynthConfig::default`]).
    pub fn config(mut self, config: SynthConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets an absolute deadline; see [`JobSpec::deadline`].
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Fault-injection hold; see [`JobSpec::hold`].
    pub fn hold(mut self, hold: Duration) -> Self {
        self.hold = Some(hold);
        self
    }
}

/// Monotonic counters describing a service's lifetime so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted at admission.
    pub submitted: u64,
    /// Jobs whose result was delivered (ok or per-net error).
    pub completed: u64,
    /// Completed jobs that delivered an error result.
    pub failed: u64,
    /// Submissions rejected because the queue was at capacity.
    pub rejected_overload: u64,
    /// Submissions rejected because the service was draining.
    pub rejected_shutdown: u64,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// Jobs picked up by a worker whose result is not yet delivered.
    in_flight: usize,
    accepting: bool,
}

struct Job {
    name: String,
    deadline: Option<Instant>,
    hold: Option<Duration>,
    admitted: Instant,
    /// Outstanding jobs at admission, this one included.
    depth: u64,
    payload: Payload,
}

/// The job-kind-specific half of a [`Job`]: what to analyze and where the
/// typed result goes. Each kind delivers through its own channel type, so
/// tickets stay strongly typed while the queue, workers, and admission
/// policy are shared.
enum Payload {
    Net {
        source: NetSource,
        model: TimingModel,
        tx: mpsc::Sender<(Result<NetTiming, EngineError>, JobTiming)>,
    },
    Couple {
        source: CoupleSource,
        tx: mpsc::Sender<(Result<GroupTiming, EngineError>, JobTiming)>,
    },
    Synth {
        source: SynthSource,
        config: SynthConfig,
        tx: mpsc::Sender<(Result<SynthTiming, EngineError>, JobTiming)>,
    },
}

struct Shared {
    telemetry: ServiceTelemetry,
    state: Mutex<QueueState>,
    /// Signals workers that a job arrived or admission closed.
    job_ready: Condvar,
    /// Signals drainers that the service went idle.
    idle: Condvar,
    capacity: usize,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_shutdown: AtomicU64,
}

/// A persistent worker pool with bounded admission and graceful drain.
///
/// Admission bounds outstanding (queued + in-flight) work and rejects
/// with [`EngineError::Overloaded`]; [`drain`](Self::drain) and
/// [`shutdown`](Self::shutdown) stop admission without dropping accepted
/// jobs.
pub struct EngineService {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for EngineService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineService")
            .field("workers", &self.workers.len())
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

impl EngineService {
    /// Starts the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` is zero (a service that can accept
    /// nothing is a misconfiguration, not a policy).
    pub fn start(config: ServiceConfig) -> Self {
        assert!(
            config.capacity > 0,
            "service needs capacity for at least one job"
        );
        let workers = if config.workers == 0 {
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            telemetry: ServiceTelemetry {
                time: config.time,
                queue_wait: Histogram::new(),
                exec: Histogram::new(),
                depth: Histogram::new(),
            },
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                in_flight: 0,
                accepting: true,
            }),
            job_ready: Condvar::new(),
            idle: Condvar::new(),
            capacity: config.capacity,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
        });
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { shared, workers }
    }

    /// The worker thread count.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The configured bound on outstanding jobs.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Jobs currently outstanding (queued + in-flight).
    pub fn outstanding(&self) -> usize {
        let state = self.shared.state.lock().expect("service lock");
        state.jobs.len() + state.in_flight
    }

    /// Submits a netlist deck under the default model; shorthand for
    /// [`submit_spec`](Self::submit_spec) with [`JobSpec::deck`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the queue is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun.
    pub fn submit(
        &self,
        name: impl Into<String>,
        deck: impl Into<String>,
    ) -> Result<JobTicket, EngineError> {
        self.submit_spec(JobSpec::deck(name, deck))
    }

    /// Submits a job, applying the admission policy.
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the queue is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun.
    pub fn submit_spec(&self, spec: JobSpec) -> Result<JobTicket, EngineError> {
        let (tx, rx) = mpsc::channel();
        let name = spec.name.clone();
        self.admit(Job {
            name: spec.name,
            deadline: spec.deadline,
            hold: spec.hold,
            admitted: self.shared.telemetry.time.now(),
            depth: 0,
            payload: Payload::Net {
                source: spec.source,
                model: spec.model,
                tx,
            },
        })?;
        Ok(JobTicket { name, rx })
    }

    /// Submits a coupled deck; shorthand for
    /// [`submit_couple_spec`](Self::submit_couple_spec) with
    /// [`CoupleSpec::deck`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the queue is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun.
    pub fn submit_couple(
        &self,
        name: impl Into<String>,
        deck: impl Into<String>,
    ) -> Result<CoupleTicket, EngineError> {
        self.submit_couple_spec(CoupleSpec::deck(name, deck))
    }

    /// Submits a coupled-group job, applying the same admission policy as
    /// [`submit_spec`](Self::submit_spec) — both kinds share the one
    /// bounded queue.
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the queue is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun.
    pub fn submit_couple_spec(&self, spec: CoupleSpec) -> Result<CoupleTicket, EngineError> {
        let (tx, rx) = mpsc::channel();
        let name = spec.name.clone();
        self.admit(Job {
            name: spec.name,
            deadline: spec.deadline,
            hold: spec.hold,
            admitted: self.shared.telemetry.time.now(),
            depth: 0,
            payload: Payload::Couple {
                source: spec.source,
                tx,
            },
        })?;
        Ok(CoupleTicket { name, rx })
    }

    /// Submits a synthesis deck under the default [`SynthConfig`];
    /// shorthand for [`submit_synth_spec`](Self::submit_synth_spec) with
    /// [`SynthSpec::deck`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the queue is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun.
    pub fn submit_synth(
        &self,
        name: impl Into<String>,
        deck: impl Into<String>,
    ) -> Result<SynthTicket, EngineError> {
        self.submit_synth_spec(SynthSpec::deck(name, deck))
    }

    /// Submits a synthesis job, applying the same admission policy as
    /// [`submit_spec`](Self::submit_spec) — all kinds share the one
    /// bounded queue.
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`] when the queue is at capacity,
    /// [`EngineError::ShuttingDown`] once a drain has begun.
    pub fn submit_synth_spec(&self, spec: SynthSpec) -> Result<SynthTicket, EngineError> {
        let (tx, rx) = mpsc::channel();
        let name = spec.name.clone();
        self.admit(Job {
            name: spec.name,
            deadline: spec.deadline,
            hold: spec.hold,
            admitted: self.shared.telemetry.time.now(),
            depth: 0,
            payload: Payload::Synth {
                source: spec.source,
                config: spec.config,
                tx,
            },
        })?;
        Ok(SynthTicket { name, rx })
    }

    /// The admission policy, shared by every job kind: reject when
    /// draining or at capacity, otherwise queue and wake one worker.
    fn admit(&self, mut job: Job) -> Result<(), EngineError> {
        {
            let mut state = self.shared.state.lock().expect("service lock");
            if !state.accepting {
                self.shared
                    .rejected_shutdown
                    .fetch_add(1, Ordering::Relaxed);
                return Err(EngineError::ShuttingDown { net: job.name });
            }
            if state.jobs.len() + state.in_flight >= self.shared.capacity {
                self.shared
                    .rejected_overload
                    .fetch_add(1, Ordering::Relaxed);
                return Err(EngineError::Overloaded {
                    net: job.name,
                    capacity: self.shared.capacity,
                });
            }
            let depth = (state.jobs.len() + state.in_flight + 1) as u64;
            self.shared.telemetry.depth.record(depth);
            job.depth = depth;
            job.admitted = self.shared.telemetry.time.now();
            state.jobs.push_back(job);
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// Stops admission without waiting: subsequent submissions are
    /// rejected with [`EngineError::ShuttingDown`], but accepted jobs keep
    /// running. Idempotent.
    pub fn close(&self) {
        let mut state = self.shared.state.lock().expect("service lock");
        state.accepting = false;
        // Wake every idle worker so pools with nothing queued notice the
        // closure (they re-check `accepting` and exit their wait).
        self.shared.job_ready.notify_all();
    }

    /// Graceful drain: [`close`](Self::close)s admission, then blocks
    /// until every accepted job has delivered its result.
    pub fn drain(&self) {
        self.close();
        let mut state = self.shared.state.lock().expect("service lock");
        while !state.jobs.is_empty() || state.in_flight > 0 {
            state = self.shared.idle.wait(state).expect("service lock");
        }
    }

    /// Drains and joins the workers, returning the final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.stats()
    }

    /// A point-in-time copy of the service histograms, quantized by the
    /// configured [`TimeSource`].
    pub fn telemetry(&self) -> EngineTelemetrySnapshot {
        EngineTelemetrySnapshot {
            queue_wait: self.shared.telemetry.queue_wait.snapshot(),
            exec: self.shared.telemetry.exec.snapshot(),
            depth: self.shared.telemetry.depth.snapshot(),
        }
    }

    /// A point-in-time copy of the service counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            rejected_overload: self.shared.rejected_overload.load(Ordering::Relaxed),
            rejected_shutdown: self.shared.rejected_shutdown.load(Ordering::Relaxed),
        }
    }
}

impl Drop for EngineService {
    fn drop(&mut self) {
        // A dropped service still honours accepted work: drain, then join.
        self.drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Receipt for one accepted job; redeem it with [`wait`](Self::wait).
#[derive(Debug)]
pub struct JobTicket {
    name: String,
    rx: mpsc::Receiver<(Result<NetTiming, EngineError>, JobTiming)>,
}

impl JobTicket {
    /// The submitted net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks until the worker delivers this job's result.
    pub fn wait(self) -> Result<NetTiming, EngineError> {
        self.wait_timed().0
    }

    /// Blocks like [`wait`](Self::wait), additionally returning the job's
    /// raw wall timings (zeroed if the service died before delivering).
    pub fn wait_timed(self) -> (Result<NetTiming, EngineError>, JobTiming) {
        self.rx.recv().unwrap_or((
            Err(EngineError::ShuttingDown { net: self.name }),
            JobTiming::default(),
        ))
    }
}

/// Receipt for one accepted coupled-group job; the crosstalk analogue of
/// [`JobTicket`].
#[derive(Debug)]
pub struct CoupleTicket {
    name: String,
    rx: mpsc::Receiver<(Result<GroupTiming, EngineError>, JobTiming)>,
}

impl CoupleTicket {
    /// The submitted group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks until the worker delivers this group's result.
    pub fn wait(self) -> Result<GroupTiming, EngineError> {
        self.wait_timed().0
    }

    /// Blocks like [`wait`](Self::wait), additionally returning the job's
    /// raw wall timings (zeroed if the service died before delivering).
    pub fn wait_timed(self) -> (Result<GroupTiming, EngineError>, JobTiming) {
        self.rx.recv().unwrap_or((
            Err(EngineError::ShuttingDown { net: self.name }),
            JobTiming::default(),
        ))
    }
}

/// Receipt for one accepted synthesis job; the buffer-insertion analogue
/// of [`JobTicket`].
#[derive(Debug)]
pub struct SynthTicket {
    name: String,
    rx: mpsc::Receiver<(Result<SynthTiming, EngineError>, JobTiming)>,
}

impl SynthTicket {
    /// The submitted net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks until the worker delivers this job's result.
    pub fn wait(self) -> Result<SynthTiming, EngineError> {
        self.wait_timed().0
    }

    /// Blocks like [`wait`](Self::wait), additionally returning the job's
    /// raw wall timings (zeroed if the service died before delivering).
    pub fn wait_timed(self) -> (Result<SynthTiming, EngineError>, JobTiming) {
        self.rx.recv().unwrap_or((
            Err(EngineError::ShuttingDown { net: self.name }),
            JobTiming::default(),
        ))
    }
}

fn saturating_ns(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

fn worker_loop(shared: &Shared) {
    // Per-worker scratch: the packed flat snapshot and moment buffers are
    // rebuilt from scratch for every job, so reusing them across jobs is
    // purely an allocation-count optimization.
    let mut scratch = NetScratch::default();
    let mut couple_scratch = CoupleScratch::default();
    loop {
        let job = {
            let mut state = shared.state.lock().expect("service lock");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    state.in_flight += 1;
                    break job;
                }
                if !state.accepting {
                    return;
                }
                state = shared.job_ready.wait(state).expect("service lock");
            }
        };

        let picked = shared.telemetry.time.now();
        let queue_ns = saturating_ns(picked.duration_since(job.admitted));
        if let Some(hold) = job.hold {
            thread::sleep(hold);
        }
        let expired =
            matches!(job.deadline, Some(deadline) if shared.telemetry.time.now() > deadline);
        // Each job kind computes its own typed result; everything around it
        // (timing, counters, atomic delivery) is kind-agnostic.
        let outcome = match job.payload {
            Payload::Net { source, model, tx } => {
                let result = if expired {
                    Err(EngineError::DeadlineExceeded {
                        net: job.name.clone(),
                    })
                } else {
                    analyze_one(&job.name, &source, model, &mut scratch)
                };
                Outcome::Net(result, tx)
            }
            Payload::Couple { source, tx } => {
                let result = if expired {
                    Err(EngineError::DeadlineExceeded {
                        net: job.name.clone(),
                    })
                } else {
                    analyze_one_couple(&job.name, &source, &mut couple_scratch)
                };
                Outcome::Couple(result, tx)
            }
            Payload::Synth { source, config, tx } => {
                let result = if expired {
                    Err(EngineError::DeadlineExceeded {
                        net: job.name.clone(),
                    })
                } else {
                    optimize_one(&job.name, &source, &config)
                };
                Outcome::Synth(result, tx)
            }
        };
        let exec_ns = saturating_ns(picked.elapsed());
        let time = shared.telemetry.time;
        shared
            .telemetry
            .queue_wait
            .record(time.measured_ns(queue_ns));
        shared.telemetry.exec.record(time.measured_ns(exec_ns));
        let timing = JobTiming {
            queue_ns,
            exec_ns,
            depth: job.depth,
        };
        shared.completed.fetch_add(1, Ordering::Relaxed);
        if outcome.is_err() {
            shared.failed.fetch_add(1, Ordering::Relaxed);
        }
        let mut state = shared.state.lock().expect("service lock");
        state.in_flight -= 1;
        // Deliver while still holding the state lock (channel sends never
        // block): the admission slot frees *atomically* with delivery, so
        // a submitter unblocked by this result can never be rejected on a
        // stale in-flight count. The submitter may also have given up on
        // the ticket; a closed channel still counts as delivery.
        outcome.deliver(timing);
        if state.jobs.is_empty() && state.in_flight == 0 {
            shared.idle.notify_all();
        }
    }
}

/// A computed result paired with its typed delivery channel, so the
/// kind-agnostic tail of the worker loop can count failures and deliver
/// without caring which job kind ran.
enum Outcome {
    Net(
        Result<NetTiming, EngineError>,
        mpsc::Sender<(Result<NetTiming, EngineError>, JobTiming)>,
    ),
    Couple(
        Result<GroupTiming, EngineError>,
        mpsc::Sender<(Result<GroupTiming, EngineError>, JobTiming)>,
    ),
    Synth(
        Result<SynthTiming, EngineError>,
        mpsc::Sender<(Result<SynthTiming, EngineError>, JobTiming)>,
    ),
}

impl Outcome {
    fn is_err(&self) -> bool {
        match self {
            Outcome::Net(result, _) => result.is_err(),
            Outcome::Couple(result, _) => result.is_err(),
            Outcome::Synth(result, _) => result.is_err(),
        }
    }

    fn deliver(self, timing: JobTiming) {
        match self {
            Outcome::Net(result, tx) => {
                let _ = tx.send((result, timing));
            }
            Outcome::Couple(result, tx) => {
                let _ = tx.send((result, timing));
            }
            Outcome::Synth(result, tx) => {
                let _ = tx.send((result, timing));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECK: &str = "R1 in n1 25\nC1 n1 0 0.5p\n";

    #[test]
    fn submit_and_wait_round_trip() {
        let service = EngineService::start(ServiceConfig {
            workers: 2,
            capacity: 4,
            ..ServiceConfig::default()
        });
        let ticket = service.submit("line", DECK).expect("capacity free");
        assert_eq!(ticket.name(), "line");
        let timing = ticket.wait().expect("analyzes fine");
        assert_eq!(timing.name, "line");
        assert_eq!(timing.sections, 1);
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn per_job_failures_are_typed_results() {
        let service = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 4,
            ..ServiceConfig::default()
        });
        let bad = service.submit("bad", "R1 in n1 oops\n").expect("admitted");
        let good = service.submit("good", DECK).expect("admitted");
        assert!(matches!(
            bad.wait().unwrap_err(),
            EngineError::Netlist { .. }
        ));
        assert!(good.wait().is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn elmore_model_reports_first_order_sinks() {
        let service = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 2,
            ..ServiceConfig::default()
        });
        let ticket = service
            .submit_spec(JobSpec::deck("line", DECK).model(TimingModel::Elmore))
            .expect("admitted");
        let timing = ticket.wait().expect("analyzes fine");
        assert_eq!(timing.sinks.len(), 1);
        let sink = &timing.sinks[0];
        assert!(sink.zeta.is_infinite());
        // T_RC = 25 Ω · 0.5 pF = 12.5 ps → delay = ln 2 · 12.5 ps.
        let expected_ps = 12.5 * core::f64::consts::LN_2;
        assert!((sink.delay_50.as_picoseconds() - expected_ps).abs() < 1e-9);
        drop(service);
    }

    #[test]
    fn expired_deadline_is_reported_at_pickup() {
        let service = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 2,
            ..ServiceConfig::default()
        });
        let ticket = service
            .submit_spec(
                JobSpec::deck("stale", DECK)
                    .deadline(TimeSource::Wall.now() - Duration::from_millis(1)),
            )
            .expect("admitted");
        assert!(matches!(
            ticket.wait().unwrap_err(),
            EngineError::DeadlineExceeded { .. }
        ));
        drop(service);
    }

    #[test]
    fn model_ids_round_trip() {
        for model in [TimingModel::Eed, TimingModel::Elmore] {
            assert_eq!(TimingModel::from_id(model.id()), Some(model));
        }
        assert_eq!(TimingModel::from_id("spice"), None);
        assert_eq!(TimingModel::default(), TimingModel::Eed);
    }

    #[test]
    fn telemetry_counts_jobs_and_quantizes_logically() {
        let service = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 4,
            time: TimeSource::Logical { quantum_ns: 16 },
        });
        for _ in 0..3 {
            let (result, timing) = service
                .submit("line", DECK)
                .expect("capacity free")
                .wait_timed();
            assert!(result.is_ok());
            assert_eq!(timing.depth, 1, "serial submissions never queue");
        }
        let telemetry = service.telemetry();
        assert_eq!(telemetry.queue_wait.count(), 3);
        assert_eq!(telemetry.exec.count(), 3);
        // Logical time maps every measurement into the quantum's bucket.
        let quantum_bucket = rlc_obs::telemetry::bucket_index(16);
        assert_eq!(telemetry.exec.buckets[quantum_bucket], 3);
        assert_eq!(telemetry.queue_wait.buckets[quantum_bucket], 3);
        // Depth is unitless and unaffected by the time source.
        assert_eq!(telemetry.depth.count(), 3);
        assert_eq!(
            telemetry.depth.buckets[rlc_obs::telemetry::bucket_index(1)],
            3
        );
        drop(service);
    }

    #[test]
    fn couple_jobs_share_the_pool_with_net_jobs() {
        let service = EngineService::start(ServiceConfig {
            workers: 2,
            capacity: 8,
            ..ServiceConfig::default()
        });
        let net = service.submit("line", DECK).expect("admitted");
        let couple = service
            .submit_couple(
                "bus",
                ".net v\nR1 in n1 25\nC1 n1 0 0.5p\n.net a\nR1 in m1 25\nC1 m1 0 0.5p\nK1 v.n1 a.m1 0.1p\n",
            )
            .expect("admitted");
        assert_eq!(couple.name(), "bus");
        assert!(net.wait().is_ok());
        let timing = couple.wait().expect("analyzes fine");
        assert_eq!(timing.name, "bus");
        assert_eq!(timing.victims.len(), 2);
        assert_eq!(timing.couplings, 1);
        let stats = service.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn couple_failures_and_deadlines_are_typed() {
        let service = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 4,
            ..ServiceConfig::default()
        });
        let bad = service
            .submit_couple("bad", ".net v\nR1 in n1 oops\n")
            .expect("admitted");
        assert!(matches!(
            bad.wait().unwrap_err(),
            EngineError::Netlist { .. }
        ));
        let stale = service
            .submit_couple_spec(
                CoupleSpec::deck("stale", ".net v\nR1 in n1 25\nC1 n1 0 0.5p\n")
                    .deadline(TimeSource::Wall.now() - Duration::from_millis(1)),
            )
            .expect("admitted");
        assert!(matches!(
            stale.wait().unwrap_err(),
            EngineError::DeadlineExceeded { .. }
        ));
        let stats = service.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 2);
    }

    #[test]
    fn synth_jobs_share_the_pool_with_net_jobs() {
        let service = EngineService::start(ServiceConfig {
            workers: 2,
            capacity: 8,
            ..ServiceConfig::default()
        });
        let net = service.submit("line", DECK).expect("admitted");
        let synth = service
            .submit_synth(
                "clock",
                "R1 in n1 900\nC1 n1 0 0.9p\nR2 n1 n2 900\nC2 n2 0 0.9p\n\
                 R3 n2 n3 900\nC3 n3 0 0.9p\n.lib bufx r=120 cin=5f tin=15p\n.driver 100\n",
            )
            .expect("admitted");
        assert_eq!(synth.name(), "clock");
        assert!(net.wait().is_ok());
        let timing = synth.wait().expect("optimizes fine");
        assert_eq!(timing.name, "clock");
        assert!(!timing.buffers.is_empty());
        let stats = service.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn synth_failures_and_deadlines_are_typed() {
        let service = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 4,
            ..ServiceConfig::default()
        });
        let bad = service
            .submit_synth("bad", "R1 in n1 25\nC1 n1 0 0.5p\n")
            .expect("admitted");
        assert!(matches!(
            bad.wait().unwrap_err(),
            EngineError::Netlist { .. }
        ));
        let stale = service
            .submit_synth_spec(
                SynthSpec::deck(
                    "stale",
                    "R1 in n1 25\nC1 n1 0 0.5p\n.lib b r=100 cin=4f tin=1p\n",
                )
                .config(SynthConfig::default())
                .deadline(TimeSource::Wall.now() - Duration::from_millis(1)),
            )
            .expect("admitted");
        assert!(matches!(
            stale.wait().unwrap_err(),
            EngineError::DeadlineExceeded { .. }
        ));
        let stats = service.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 0,
            ..ServiceConfig::default()
        });
    }
}
