//! `rlc-serve`: a networked timing service over the RLC analysis engine.
//!
//! The engine crates answer timing queries in-process; this crate puts
//! them behind a wire. It is deliberately std-only — `std::net` sockets,
//! `std::thread` per connection, the hand-rolled JSON in `rlc-obs` — so
//! the service builds in the same offline environment as the rest of the
//! workspace.
//!
//! Three mechanisms make it a *service* rather than a socket glued to a
//! function call:
//!
//! * **Content-addressed caching** ([`cache`]): results are keyed by the
//!   FNV-1a hash of the *canonical* deck (see
//!   [`RlcTree::canonical_deck`](rlc_tree::RlcTree::canonical_deck)) plus
//!   the model id, so two clients submitting the same circuit with
//!   different node names, whitespace, or value spellings share one
//!   engine run. LRU + TTL eviction, with hit/miss/eviction counters.
//! * **Admission control**: the bounded
//!   [`EngineService`](rlc_engine::EngineService) queue rejects overload
//!   at the front door with a typed `overloaded` response instead of
//!   queueing unboundedly; per-request deadlines shed stale work.
//! * **Graceful drain**: the `shutdown` verb stops admission, lets every
//!   accepted net finish, and flushes a final `rlc-serve/1` stats report.
//!
//! On top of those, every `analyze` runs the [`rlc_lint`] static analyzer
//! as a **pre-admission gate** ([`LintMode`], `lint=` field): `warn` (the
//! default) attaches a `"lint"` summary to the response when the deck has
//! findings, `deny` rejects error- or warning-carrying decks with a typed
//! `lint_denied` error before any cache or engine work, and the `lint`
//! verb returns the full report on its own.
//!
//! Malformed decks and worker panics are *results* (the engine's typed
//! per-net errors), scoped to the connection that sent them; only framing
//! violations terminate a connection.
//!
//! Every request is also traced by the always-on [`telemetry`] subsystem:
//! per-stage latency histograms, typed outcome counters, and a bounded
//! flight recorder, exposed over the wire as the `metrics` (deterministic
//! `rlc-trace/1` snapshot) and `trace` (recent/slowest request
//! breakdowns) verbs.
//!
//! See [`protocol`] for the wire grammar and DESIGN.md §11/§13 for the
//! protocol's contract (cache-key derivation, overload semantics,
//! response schemas, telemetry determinism rules).
//!
//! # Example
//!
//! Serve one request over in-memory streams (the stdio transport):
//!
//! ```
//! use rlc_serve::{serve_stdio, ServeConfig};
//!
//! let input = "analyze name=clk\nR1 in n1 25\nC1 n1 0 0.5p\n.\nshutdown\n";
//! let mut output = Vec::new();
//! serve_stdio(ServeConfig::default(), &mut input.as_bytes(), &mut output).unwrap();
//! let reply = String::from_utf8(output).unwrap();
//! let mut lines = reply.lines();
//! let result = lines.next().unwrap();
//! assert!(result.contains("\"type\": \"result\""));
//! assert!(result.contains("\"name\": \"clk\""));
//! assert!(lines.next().unwrap().contains("\"type\": \"stats\""));
//! ```

#![allow(clippy::expect_used, reason = "pre-existing calls; see ROADMAP.md")]

pub mod cache;
pub mod protocol;
mod server;
pub mod telemetry;

pub use cache::{fnv1a_64, CacheConfig, CacheStats, ResultCache};
pub use protocol::{
    AnalyzeRequest, CoupleRequest, LintMode, LintRequest, OptimizeRequest, ProtocolError,
    ReadOutcome, Request,
};
pub use server::{serve_stdio, ServeConfig, ServeCore, Server};
pub use telemetry::{ServeTelemetry, TelemetryConfig};
