//! Global registry backing the instrumented (`obs`-enabled) build.
//!
//! One process-wide `Mutex<Inner>` holds all counters, value aggregates,
//! and span aggregates. Span hierarchy is tracked per thread: each thread
//! keeps a stack of active span names, and a span records its elapsed time
//! under the `/`-joined path of the stack at entry. Self-time is derived at
//! snapshot time by subtracting each path's direct children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{LazyLock, Mutex};
use std::time::Instant;

use crate::{Snapshot, SpanStat, ValueStat};

/// BTree-backed so iteration at snapshot time is already name-sorted —
/// nothing order-dependent can leak into the rendered `rlc-obs/1` report.
#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    values: BTreeMap<&'static str, ValueAgg>,
    spans: BTreeMap<String, SpanAgg>,
}

#[derive(Clone, Copy)]
struct ValueAgg {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

#[derive(Clone, Copy, Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
}

static REGISTRY: LazyLock<Mutex<Inner>> = LazyLock::new(|| Mutex::new(Inner::default()));

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn with_registry<R>(f: impl FnOnce(&mut Inner) -> R) -> R {
    // A poisoned mutex only means another thread panicked mid-update of a
    // metric; the aggregates are still usable, so keep recording.
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

pub(crate) fn counter_add(name: &'static str, delta: u64) {
    with_registry(|inner| {
        *inner.counters.entry(name).or_insert(0) += delta;
    });
}

pub(crate) fn value_record(name: &'static str, value: f64) {
    with_registry(|inner| {
        let agg = inner.values.entry(name).or_insert(ValueAgg {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        });
        agg.count += 1;
        agg.sum += value;
        agg.min = agg.min.min(value);
        agg.max = agg.max.max(value);
    });
}

/// Guard for an active span; records the elapsed wall time under its
/// hierarchical path when dropped.
#[must_use = "a span records its duration when the guard is dropped"]
#[derive(Debug)]
pub struct Span {
    path: String,
    /// Stack depth at entry; drop truncates back to this, which keeps the
    /// bookkeeping correct even if inner guards are leaked or dropped out
    /// of order.
    depth: usize,
    start: Instant,
}

#[expect(
    clippy::disallowed_methods,
    reason = "span guards profile real wall time by design; spans render only in the obs-gated snapshot, never in canonical reports"
)]
pub(crate) fn span_enter(name: &'static str) -> Span {
    let (path, depth) = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let depth = stack.len();
        let mut path =
            String::with_capacity(stack.iter().map(|s| s.len() + 1).sum::<usize>() + name.len());
        for segment in stack.iter() {
            path.push_str(segment);
            path.push('/');
        }
        path.push_str(name);
        stack.push(name);
        (path, depth)
    });
    Span {
        path,
        depth,
        start: Instant::now(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SPAN_STACK.with(|stack| stack.borrow_mut().truncate(self.depth));
        with_registry(|inner| {
            let agg = inner
                .spans
                .entry(std::mem::take(&mut self.path))
                .or_default();
            agg.count += 1;
            agg.total_ns = agg.total_ns.saturating_add(elapsed_ns);
        });
    }
}

pub(crate) fn snapshot() -> Snapshot {
    with_registry(|inner| {
        // BTreeMap iteration is name-sorted, which is exactly the
        // Snapshot ordering contract.
        let counters: Vec<(String, u64)> = inner
            .counters
            .iter()
            .map(|(&name, &v)| (name.to_owned(), v))
            .collect();

        let values: Vec<(String, ValueStat)> = inner
            .values
            .iter()
            .map(|(&name, agg)| {
                (
                    name.to_owned(),
                    ValueStat {
                        count: agg.count,
                        sum: agg.sum,
                        min: agg.min,
                        max: agg.max,
                    },
                )
            })
            .collect();

        let mut spans: Vec<(String, SpanStat)> = inner
            .spans
            .iter()
            .map(|(path, agg)| {
                (
                    path.clone(),
                    SpanStat {
                        count: agg.count,
                        total_ns: agg.total_ns,
                        self_ns: agg.total_ns,
                    },
                )
            })
            .collect();

        // Self-time: subtract each path's direct children from its total.
        let child_totals: Vec<(usize, u64)> = spans
            .iter()
            .filter_map(|(path, stat)| {
                let parent = path.rsplit_once('/')?.0;
                spans
                    .iter()
                    .position(|(p, _)| p == parent)
                    .map(|idx| (idx, stat.total_ns))
            })
            .collect();
        for (idx, child_ns) in child_totals {
            let stat = &mut spans[idx].1;
            stat.self_ns = stat.self_ns.saturating_sub(child_ns);
        }

        Snapshot {
            counters,
            values,
            spans,
        }
    })
}

pub(crate) fn reset() {
    with_registry(|inner| {
        inner.counters.clear();
        inner.values.clear();
        inner.spans.clear();
    });
}
