//! Always-on, lock-light telemetry primitives for the serving stack.
//!
//! A handful of primitives cheap enough to leave enabled under load,
//! designed so that the reports they render are **byte-deterministic**
//! for a given request sequence.
//!
//! * [`Counter`] — a relaxed atomic `u64`. One `fetch_add` per event.
//! * [`Histogram`] — a fixed-bucket, log₂-scale histogram over atomic
//!   bucket counters. Recording is one `fetch_add`; snapshots merge
//!   bucket-wise, so merging is associative and commutative and a merged
//!   report is independent of which worker observed which sample.
//! * [`TraceContext`] / [`TraceRecord`] — a request-scoped stage timer
//!   carrying a stable request id; finished contexts become records.
//! * [`FlightRecorder`] — a bounded ring buffer of recent trace records
//!   plus the K slowest since startup, for the `trace` wire verb.
//! * [`TimeSource`] — wall-clock or logical time. Logical time maps every
//!   measured interval to a fixed quantum, which is what lets integration
//!   tests assert *byte-identical* telemetry reports across worker
//!   counts (see DESIGN.md §13 for the exact determinism contract).
//!
//! Raw nanoseconds appear only in [`TraceRecord`]s (the flight recorder);
//! everything that reaches a deterministic report is quantized to
//! histogram buckets first.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json;

/// Number of histogram buckets. Bucket `i < BUCKETS - 1` counts samples
/// `s` with `bound(i-1) < s <= bound(i)` where `bound(i) = 2^i`; the last
/// bucket is open-ended. 40 buckets cover 1 ns .. ~4.6 minutes, plenty
/// for per-stage service latencies (and for small integer distributions
/// like queue depths, which share the scale).
pub const BUCKETS: usize = 40;

/// Upper bound (inclusive) of bucket `i`, in the recorded unit;
/// `None` for the open-ended overflow bucket.
pub fn bucket_bound(i: usize) -> Option<u64> {
    (i + 1 < BUCKETS).then(|| 1u64 << i)
}

/// The bucket index a sample lands in. Monotone in the sample: a larger
/// sample never maps to a smaller bucket.
pub fn bucket_index(sample: u64) -> usize {
    if sample <= 1 {
        0
    } else {
        // Smallest i with sample <= 2^i, capped into the overflow bucket.
        let i = (u64::BITS - (sample - 1).leading_zeros()) as usize;
        i.min(BUCKETS - 1)
    }
}

/// A monotonic event counter: one relaxed `fetch_add` per event.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log₂ histogram over atomic counters. Unit-agnostic:
/// the serving stack records nanoseconds and queue depths through the
/// same type.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Records one sample (one relaxed `fetch_add`).
    pub fn record(&self, sample: u64) {
        self.buckets[bucket_index(sample)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets }
    }
}

/// An owned copy of a [`Histogram`]'s bucket counts. Merging is
/// bucket-wise addition — associative, commutative, with the empty
/// snapshot as identity — so per-worker histograms can be combined in any
/// order without changing the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// One count per bucket; see [`bucket_bound`] for the bucket edges.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Bucket-wise sum of `self` and `other`.
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        let mut out = *self;
        for (a, b) in out.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        out
    }

    /// The upper bucket bound covering the `ceil(q · count)`-th sample
    /// (`0 < q <= 1`), i.e. a deterministic quantile estimate quantized to
    /// bucket edges. Returns 0 for an empty histogram; samples in the
    /// open-ended overflow bucket report `u64::MAX`.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound(i).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Renders the histogram as a deterministic JSON object: total count,
    /// bucket-quantized p50/p99, and the non-empty buckets as
    /// `[upper_bound, count]` pairs (`null` bound for the overflow
    /// bucket). Integers only — no floats, no raw timings.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"count\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": [",
            self.count(),
            self.quantile(0.50),
            self.quantile(0.99),
        );
        let mut first = true;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let sep = if first { "" } else { ", " };
            first = false;
            match bucket_bound(i) {
                Some(bound) => {
                    let _ = write!(out, "{sep}[{bound}, {n}]");
                }
                None => {
                    let _ = write!(out, "{sep}[null, {n}]");
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Parses the [`to_json`](Self::to_json) rendering back into a
    /// snapshot. `None` if the document does not round-trip (malformed,
    /// unknown bucket bound, or non-integer count).
    pub fn from_json(doc: &json::Value) -> Option<Self> {
        let mut snapshot = Self::default();
        for pair in doc.get("buckets")?.as_array()? {
            let pair = pair.as_array()?;
            let (bound, count) = (pair.first()?, pair.get(1)?.as_u64()?);
            let index = match bound {
                json::Value::Null => BUCKETS - 1,
                bound => {
                    let bound = bound.as_u64()?;
                    let index = bucket_index(bound);
                    (bucket_bound(index) == Some(bound)).then_some(index)?
                }
            };
            snapshot.buckets[index] += count;
        }
        (doc.get("count")?.as_u64()? == snapshot.count()).then_some(snapshot)
    }
}

/// Where measured intervals come from.
///
/// `Wall` reports real elapsed nanoseconds. `Logical` reports a fixed
/// quantum per measured interval regardless of wall time — the serving
/// stack's determinism tests use it so that latency histograms (and
/// therefore the whole `rlc-trace/1` report) are byte-identical across
/// runs and worker counts. Raw wall durations are still captured either
/// way; the source only governs what *reported* durations look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeSource {
    /// Real elapsed time.
    #[default]
    Wall,
    /// Every measured interval reports exactly `quantum_ns`.
    Logical {
        /// The fixed duration every measurement reports, in nanoseconds.
        quantum_ns: u64,
    },
}

impl TimeSource {
    /// Maps a raw wall-clock measurement to the duration this source
    /// reports for it.
    pub fn measured_ns(self, raw_ns: u64) -> u64 {
        match self {
            TimeSource::Wall => raw_ns,
            TimeSource::Logical { quantum_ns } => quantum_ns,
        }
    }

    /// Reads the clock. This is the workspace's clock-read choke point:
    /// library paths obtain `Instant`s here (and only here), so every
    /// wall-clock dependency is greppable and auditable — clippy's
    /// `disallowed_methods` (rule A102) flags any other clock read. Both
    /// variants read the real clock; `Logical` applies its quantum at
    /// measurement time via [`measured_ns`](Self::measured_ns), not at
    /// read time.
    #[expect(
        clippy::disallowed_methods,
        reason = "TimeSource::now is the clock abstraction home; every other library clock read routes through it"
    )]
    pub fn now(self) -> Instant {
        Instant::now()
    }
}

/// One stage of a finished request: name and raw wall nanoseconds.
pub type StageSample = (&'static str, u64);

/// A request-scoped stage timer with a stable request id.
///
/// Stages are recorded in call order with raw wall-clock durations; the
/// sink that [`finish`](TraceContext::finish)es the context decides how
/// to quantize them (histograms get [`TimeSource::measured_ns`], the
/// flight recorder keeps the raw values).
#[derive(Debug)]
pub struct TraceContext {
    request_id: u64,
    verb: &'static str,
    started: Instant,
    stages: Vec<StageSample>,
}

impl TraceContext {
    /// Opens a trace for request `request_id` handling `verb`.
    #[expect(
        clippy::disallowed_methods,
        reason = "trace contexts capture raw wall time by design; sinks quantize via TimeSource::measured_ns before anything renders"
    )]
    pub fn new(request_id: u64, verb: &'static str) -> Self {
        Self {
            request_id,
            verb,
            started: Instant::now(),
            stages: Vec::with_capacity(8),
        }
    }

    /// The stable request id this context carries.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The verb being handled.
    pub fn verb(&self) -> &'static str {
        self.verb
    }

    /// Runs `f`, recording its raw wall duration under `stage`.
    #[expect(
        clippy::disallowed_methods,
        reason = "trace contexts capture raw wall time by design; sinks quantize via TimeSource::measured_ns before anything renders"
    )]
    pub fn time<R>(&mut self, stage: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.add_stage(stage, elapsed_ns(start));
        result
    }

    /// Records an externally measured stage duration (raw nanoseconds).
    pub fn add_stage(&mut self, stage: &'static str, raw_ns: u64) {
        self.stages.push((stage, raw_ns));
    }

    /// The stages recorded so far.
    pub fn stages(&self) -> &[StageSample] {
        &self.stages
    }

    /// Closes the context into a record with the given typed outcome.
    pub fn finish(self, outcome: &'static str) -> TraceRecord {
        TraceRecord {
            request_id: self.request_id,
            verb: self.verb,
            outcome,
            total_ns: elapsed_ns(self.started),
            stages: self.stages,
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A finished request: id, verb, typed outcome, and per-stage raw
/// nanosecond timings. Lives in the flight recorder only — raw timings
/// are deliberately excluded from the deterministic report surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Stable id assigned at admission, in arrival order.
    pub request_id: u64,
    /// The wire verb (`analyze`, `lint`, …).
    pub verb: &'static str,
    /// Typed outcome class (`ok`, `cache_hit`, `overloaded`, …).
    pub outcome: &'static str,
    /// Raw wall time from context open to finish, nanoseconds.
    pub total_ns: u64,
    /// Per-stage raw wall nanoseconds, in execution order.
    pub stages: Vec<StageSample>,
}

impl TraceRecord {
    /// Renders the record as a single-line JSON object (raw nanoseconds).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"id\": {}, \"verb\": {}, \"outcome\": {}, \"total_ns\": {}, \"stages\": [",
            self.request_id,
            json::quote(self.verb),
            json::quote(self.outcome),
            self.total_ns,
        );
        for (i, (stage, ns)) in self.stages.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}[{}, {ns}]", json::quote(stage));
        }
        out.push_str("]}");
        out
    }
}

/// A bounded flight recorder: the last `recent_capacity` finished
/// requests (ring buffer) plus the `slowest_capacity` slowest since
/// startup. Two short mutex-guarded structures touched once per request,
/// after the response is already rendered — off the latency path.
#[derive(Debug)]
pub struct FlightRecorder {
    recent_capacity: usize,
    slowest_capacity: usize,
    recent: Mutex<VecDeque<TraceRecord>>,
    /// Sorted slowest-first; ties broken by lower request id first.
    slowest: Mutex<Vec<TraceRecord>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `recent_capacity` requests and the
    /// `slowest_capacity` slowest.
    pub fn new(recent_capacity: usize, slowest_capacity: usize) -> Self {
        Self {
            recent_capacity,
            slowest_capacity,
            recent: Mutex::new(VecDeque::with_capacity(recent_capacity)),
            slowest: Mutex::new(Vec::with_capacity(slowest_capacity + 1)),
        }
    }

    /// Files a finished request.
    pub fn record(&self, record: TraceRecord) {
        if self.slowest_capacity > 0 {
            let mut slowest = lock(&self.slowest);
            let full = slowest.len() >= self.slowest_capacity;
            if !full
                || slowest
                    .last()
                    .is_some_and(|last| record.total_ns > last.total_ns)
            {
                let at = slowest.partition_point(|r| {
                    r.total_ns > record.total_ns
                        || (r.total_ns == record.total_ns && r.request_id < record.request_id)
                });
                slowest.insert(at, record.clone());
                slowest.truncate(self.slowest_capacity);
            }
        }
        if self.recent_capacity > 0 {
            let mut recent = lock(&self.recent);
            if recent.len() >= self.recent_capacity {
                recent.pop_front();
            }
            recent.push_back(record);
        }
    }

    /// The most recent `n` records, oldest first (`n = 0` means all
    /// retained).
    pub fn recent(&self, n: usize) -> Vec<TraceRecord> {
        let recent = lock(&self.recent);
        let take = if n == 0 {
            recent.len()
        } else {
            n.min(recent.len())
        };
        recent.iter().skip(recent.len() - take).cloned().collect()
    }

    /// The slowest requests since startup, slowest first.
    pub fn slowest(&self) -> Vec<TraceRecord> {
        lock(&self.slowest).clone()
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A poisoned telemetry mutex only means a panic mid-record; the
    // structures hold plain data and stay usable.
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 20), 20);
        assert_eq!(bucket_index((1 << 20) + 1), 21);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every bounded bucket's edge maps into its own bucket.
        for i in 0..BUCKETS - 1 {
            let bound = bucket_bound(i).unwrap();
            assert_eq!(bucket_index(bound), i, "bound {bound}");
        }
        assert_eq!(bucket_bound(BUCKETS - 1), None);
    }

    #[test]
    fn histogram_records_and_counts() {
        let h = Histogram::new();
        for s in [0, 1, 2, 1000, u64::MAX] {
            h.record(s);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[bucket_index(1000)], 1);
        assert_eq!(snap.buckets[BUCKETS - 1], 1);
    }

    #[test]
    fn quantiles_are_bucket_bounds() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 7, bound 128
        }
        h.record(1 << 30);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), 128);
        assert_eq!(snap.quantile(0.99), 128);
        assert_eq!(snap.quantile(1.0), 1 << 30);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let a = Histogram::new();
        a.record(3);
        a.record(1000);
        let b = Histogram::new();
        b.record(3);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let merged = sa.merge(&sb);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged, sb.merge(&sa));
        assert_eq!(merged.buckets[bucket_index(3)], 2);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let h = Histogram::new();
        for s in [0, 7, 7, 4096, u64::MAX] {
            h.record(s);
        }
        let snap = h.snapshot();
        let doc = json::parse(&snap.to_json()).expect("valid JSON");
        assert_eq!(HistogramSnapshot::from_json(&doc), Some(snap));
        assert_eq!(doc.get("count").and_then(json::Value::as_u64), Some(5));
    }

    #[test]
    fn time_source_quantizes() {
        assert_eq!(TimeSource::Wall.measured_ns(123), 123);
        assert_eq!(TimeSource::Logical { quantum_ns: 64 }.measured_ns(123), 64);
    }

    #[test]
    fn trace_context_records_stages_in_order() {
        let mut ctx = TraceContext::new(7, "analyze");
        assert_eq!(ctx.request_id(), 7);
        assert_eq!(ctx.verb(), "analyze");
        let out = ctx.time("parse", || 41 + 1);
        assert_eq!(out, 42);
        ctx.add_stage("engine", 500);
        let record = ctx.finish("ok");
        assert_eq!(record.outcome, "ok");
        assert_eq!(record.stages.len(), 2);
        assert_eq!(record.stages[0].0, "parse");
        assert_eq!(record.stages[1], ("engine", 500));
        let doc = json::parse(&record.to_json()).expect("valid JSON");
        assert_eq!(doc.get("id").and_then(json::Value::as_u64), Some(7));
    }

    #[test]
    fn flight_recorder_keeps_ring_and_slowest() {
        let recorder = FlightRecorder::new(3, 2);
        for (id, total) in [(1, 50), (2, 900), (3, 10), (4, 700), (5, 20)] {
            recorder.record(TraceRecord {
                request_id: id,
                verb: "analyze",
                outcome: "ok",
                total_ns: total,
                stages: Vec::new(),
            });
        }
        let recent = recorder.recent(0);
        assert_eq!(
            recent.iter().map(|r| r.request_id).collect::<Vec<_>>(),
            vec![3, 4, 5],
            "ring keeps the last 3, oldest first"
        );
        assert_eq!(recorder.recent(1)[0].request_id, 5);
        let slowest = recorder.slowest();
        assert_eq!(
            slowest.iter().map(|r| r.request_id).collect::<Vec<_>>(),
            vec![2, 4],
            "slowest since startup survive ring eviction"
        );
    }

    #[test]
    fn flight_recorder_ties_keep_earlier_requests() {
        let recorder = FlightRecorder::new(4, 2);
        for id in [1, 2, 3] {
            recorder.record(TraceRecord {
                request_id: id,
                verb: "probe",
                outcome: "ok",
                total_ns: 100,
                stages: Vec::new(),
            });
        }
        let ids: Vec<u64> = recorder.slowest().iter().map(|r| r.request_id).collect();
        assert_eq!(ids, vec![1, 2], "ties resolve to earlier arrivals");
    }

    #[test]
    fn counter_adds() {
        let c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
    }
}
