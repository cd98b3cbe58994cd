//! Always-on telemetry and the JSON helpers every report renderer shares.
//!
//! * [`telemetry`] — atomic [`Counter`]s, log-scale [`Histogram`]s with
//!   deterministic merge, request-scoped [`TraceContext`]s, a bounded
//!   [`FlightRecorder`] and the [`TimeSource`] every clock read goes
//!   through. The serving stack (`rlc-serve`, `rlc-engine`) uses these to
//!   back the `metrics` and `trace` wire verbs (`rlc-trace/1`, DESIGN.md
//!   §13).
//! * [`json`] — a small JSON value parser plus the `quote`/`number`
//!   renderers that keep every versioned report byte-stable.
//!
//! # Examples
//!
//! ```
//! use rlc_obs::{json, Counter};
//!
//! let requests = Counter::new();
//! requests.add(3);
//! assert_eq!(requests.get(), 3);
//! assert_eq!(json::quote("a\"b"), "\"a\\\"b\"");
//! ```

pub mod json;
pub mod telemetry;

pub use telemetry::{
    Counter, FlightRecorder, Histogram, HistogramSnapshot, TimeSource, TraceContext, TraceRecord,
};
