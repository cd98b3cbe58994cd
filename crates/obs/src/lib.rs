//! Feature-gated instrumentation for the RLC timing pipeline.
//!
//! Every hot path in the workspace — the transient simulators, the tree-sum
//! traversals, model construction, and the AWE reduction — reports into a
//! single global registry through three primitives:
//!
//! * **spans** ([`span!`]) — hierarchical wall-clock timers. Nested spans
//!   build `/`-separated paths (`sim.simulate/stepping`), and the reporter
//!   attributes self-time vs. child-time per path.
//! * **counters** ([`counter!`]) — monotonic `u64` work counts (steps
//!   taken, nodes visited, LU factorizations, …).
//! * **values** ([`value!`]) — scalar observations aggregated as
//!   count/sum/min/max/mean (fit residuals, matrix dimensions, …).
//!
//! # The `obs` feature
//!
//! All of this is compiled in only when the `obs` cargo feature is enabled.
//! With the feature **off** (the default) every entry point is an
//! `#[inline(always)]` empty function, the registry type is a unit, and the
//! macros evaluate only their arguments — release builds optimize the calls
//! away entirely, so un-instrumented binaries behave byte-identically to
//! builds that never heard of this crate. The criterion bench
//! `instrumentation_overhead` in `rlc-bench` demonstrates both claims.
//!
//! # Reading reports
//!
//! [`snapshot`] captures the registry; [`Snapshot::to_json`] renders the
//! stable machine-readable schema (`rlc-obs/1`, documented in `DESIGN.md`)
//! and [`Snapshot::to_text`] a human-readable table. The figure binaries in
//! `rlc-bench` dump one JSON report per figure next to each CSV.
//!
//! # Always-on serving telemetry
//!
//! Unlike the feature-gated registry above, the [`telemetry`] module is
//! compiled unconditionally: atomic [`Counter`]s, log-scale
//! [`Histogram`]s with deterministic merge, request-scoped
//! [`TraceContext`]s, and a bounded [`FlightRecorder`]. The serving stack
//! (`rlc-serve`, `rlc-engine`) uses these to back the `metrics` and
//! `trace` wire verbs (`rlc-trace/1`, DESIGN.md §13).
//!
//! # Examples
//!
//! ```
//! let _guard = rlc_obs::span!("example.work");
//! rlc_obs::counter!("example.items", 3);
//! rlc_obs::value!("example.residual", 0.5);
//! drop(_guard);
//!
//! let snap = rlc_obs::snapshot();
//! if rlc_obs::enabled() {
//!     assert_eq!(snap.counter("example.items"), Some(3));
//! } else {
//!     assert!(snap.is_empty());
//! }
//! ```

#![allow(clippy::unwrap_used, reason = "pre-existing calls; see ROADMAP.md")]

pub mod json;
pub mod telemetry;

#[cfg(feature = "obs")]
mod registry;

pub use telemetry::{
    Counter, FlightRecorder, Histogram, HistogramSnapshot, TimeSource, TraceContext, TraceRecord,
};

/// Aggregate of one [`value!`] stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueStat {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl ValueStat {
    /// Arithmetic mean of the recorded observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Aggregate of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of times the span was entered.
    pub count: u64,
    /// Total wall time inside the span, nanoseconds.
    pub total_ns: u64,
    /// Wall time not attributed to any direct child span, nanoseconds.
    pub self_ns: u64,
}

/// A point-in-time copy of the registry, sorted by name for stable output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub values: Vec<(String, ValueStat)>,
    pub spans: Vec<(String, SpanStat)>,
}

impl Snapshot {
    /// `true` when nothing has been recorded (always true with `obs` off).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.values.is_empty() && self.spans.is_empty()
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a value aggregate by name.
    pub fn value(&self, name: &str) -> Option<&ValueStat> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Looks up a span aggregate by full `/`-separated path.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|(n, _)| n == path).map(|(_, v)| v)
    }

    /// Renders the stable `rlc-obs/1` JSON schema:
    ///
    /// ```json
    /// {
    ///   "schema": "rlc-obs/1",
    ///   "counters": {"sim.steps": 2000},
    ///   "values": {"sim.mna.dim": {"count":1,"sum":14.0,"min":14.0,"max":14.0,"mean":14.0}},
    ///   "spans": {"sim.simulate": {"count":1,"total_ns":812345,"self_ns":1201}}
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::from("{\n  \"schema\": \"rlc-obs/1\",\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {v}", json::quote(name));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"values\": {");
        for (i, (name, v)) in self.values.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {}}}",
                json::quote(name),
                v.count,
                json::number(v.sum),
                json::number(v.min),
                json::number(v.max),
                json::number(v.mean()),
            );
        }
        out.push_str(if self.values.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"spans\": {");
        for (i, (path, s)) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {}: {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                json::quote(path),
                s.count,
                s.total_ns,
                s.self_ns,
            );
        }
        out.push_str(if self.spans.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push('}');
        out
    }

    /// Renders an aligned human-readable table.
    pub fn to_text(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(obs registry empty)\n");
            return out;
        }
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "{:<44} {:>8} {:>14} {:>14}",
                "span", "count", "total", "self"
            );
            for (path, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "{:<44} {:>8} {:>14} {:>14}",
                    path,
                    s.count,
                    format_ns(s.total_ns),
                    format_ns(s.self_ns),
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<44} {:>12}", "counter", "value");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{:<44} {:>12}", name, v);
            }
        }
        if !self.values.is_empty() {
            let _ = writeln!(
                out,
                "{:<44} {:>8} {:>12} {:>12} {:>12}",
                "value", "count", "mean", "min", "max"
            );
            for (name, v) in &self.values {
                let _ = writeln!(
                    out,
                    "{:<44} {:>8} {:>12.4e} {:>12.4e} {:>12.4e}",
                    name,
                    v.count,
                    v.mean(),
                    v.min,
                    v.max,
                );
            }
        }
        out
    }
}

fn format_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// `true` when the crate was compiled with the `obs` feature.
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}

// ------------------------------------------------------------------
// Instrumented implementation.
// ------------------------------------------------------------------

#[cfg(feature = "obs")]
pub use registry::Span;

#[cfg(feature = "obs")]
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    registry::counter_add(name, delta);
}

#[cfg(feature = "obs")]
#[inline]
pub fn value_record(name: &'static str, value: f64) {
    registry::value_record(name, value);
}

#[cfg(feature = "obs")]
#[inline]
pub fn span_enter(name: &'static str) -> Span {
    registry::span_enter(name)
}

#[cfg(feature = "obs")]
pub fn snapshot() -> Snapshot {
    registry::snapshot()
}

#[cfg(feature = "obs")]
pub fn reset() {
    registry::reset();
}

// ------------------------------------------------------------------
// No-op fast path: compiled when the feature is off. Everything inlines
// to nothing; `Span` is a zero-sized type.
// ------------------------------------------------------------------

/// Guard for an active span; recording happens on drop. With `obs` off this
/// is a zero-sized no-op.
#[cfg(not(feature = "obs"))]
#[must_use = "a span records its duration when the guard is dropped"]
#[derive(Debug)]
pub struct Span;

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn counter_add(_name: &'static str, _delta: u64) {}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn value_record(_name: &'static str, _value: f64) {}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn span_enter(_name: &'static str) -> Span {
    Span
}

#[cfg(not(feature = "obs"))]
pub fn snapshot() -> Snapshot {
    Snapshot::default()
}

#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn reset() {}

/// Starts a hierarchical wall-clock span; returns a guard that records the
/// elapsed time under the current span path when dropped.
///
/// ```
/// let _total = rlc_obs::span!("pipeline");
/// {
///     let _phase = rlc_obs::span!("pipeline-setup");
/// } // recorded as "pipeline/pipeline-setup"
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_enter($name)
    };
}

/// Adds to a monotonic counter: `counter!("sim.steps")` increments by 1,
/// `counter!("sim.steps", n)` by `n`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter_add($name, 1)
    };
    ($name:expr, $delta:expr) => {
        $crate::counter_add($name, $delta as u64)
    };
}

/// Records one scalar observation into a value aggregate.
#[macro_export]
macro_rules! value {
    ($name:expr, $value:expr) => {
        $crate::value_record($name, $value as f64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_matches_feature() {
        assert_eq!(enabled(), cfg!(feature = "obs"));
    }

    #[test]
    fn empty_snapshot_renders() {
        let snap = Snapshot::default();
        assert!(snap.is_empty());
        assert_eq!(snap.counter("x"), None);
        let parsed = json::parse(&snap.to_json()).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(json::Value::as_str),
            Some("rlc-obs/1")
        );
        assert!(snap.to_text().contains("empty"));
    }

    #[test]
    fn snapshot_json_round_trips() {
        let snap = Snapshot {
            counters: vec![("a.b".into(), 7)],
            values: vec![(
                "v".into(),
                ValueStat {
                    count: 2,
                    sum: 3.0,
                    min: 1.0,
                    max: 2.0,
                },
            )],
            spans: vec![(
                "p/q".into(),
                SpanStat {
                    count: 1,
                    total_ns: 500,
                    self_ns: 400,
                },
            )],
        };
        let parsed = json::parse(&snap.to_json()).expect("valid JSON");
        let counters = parsed.get("counters").expect("counters object");
        assert_eq!(counters.get("a.b").and_then(json::Value::as_f64), Some(7.0));
        let v = parsed
            .get("values")
            .and_then(|o| o.get("v"))
            .expect("value");
        assert_eq!(v.get("mean").and_then(json::Value::as_f64), Some(1.5));
        let s = parsed
            .get("spans")
            .and_then(|o| o.get("p/q"))
            .expect("span");
        assert_eq!(s.get("self_ns").and_then(json::Value::as_f64), Some(400.0));
    }

    #[test]
    fn value_stat_mean() {
        let v = ValueStat {
            count: 4,
            sum: 10.0,
            min: 1.0,
            max: 4.0,
        };
        assert_eq!(v.mean(), 2.5);
        let empty = ValueStat {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(12), "12 ns");
        assert_eq!(format_ns(12_500), "12.500 µs");
        assert_eq!(format_ns(12_500_000), "12.500 ms");
        assert_eq!(format_ns(2_500_000_000), "2.500 s");
    }
}
