//! Differential verification of the equivalent-Elmore-delay pipeline.
//!
//! The paper validates its closed-form model against an exact circuit
//! simulator on a handful of hand-picked trees (Section V). This crate
//! scales that methodology into a harness:
//!
//! * [`TreeCorpus`] — a seeded, replayable generator of random RLC trees,
//!   stratified by size, shape, and damping regime. The damping regime is
//!   steered exactly: scaling every section resistance by a common factor
//!   scales the sink's ζ (paper eq. 29) by the same factor while leaving
//!   `T_LC` — and therefore ω_n (eq. 30) — untouched.
//! * [`Oracle`] — measures the reference 50% delay, rise time, overshoot,
//!   and settling time from the *exact* `rlc-sim` step response, with
//!   automatic horizon/step refinement so the measurement, not the
//!   discretization, dominates the error budget.
//! * [`Conformance`] — runs every closed-form and reduced-order delay
//!   model in the workspace against the oracle over a corpus and renders a
//!   machine-readable `rlc-verify/1` JSON report: per-model error
//!   statistics, an error histogram, and the worst-case net with its
//!   replayable seed.
//! * [`CoupledConformance`] — the coupled-net analogue of [`Conformance`]:
//!   a seeded corpus of aggressor/victim groups ([`CoupledCorpus`]) whose
//!   closed-form `rlc-couple` Miller/Devgan estimates are differenced
//!   against the exact coupled simulator (`rlc_sim::simulate_coupled`)
//!   under nominal/worst/best switching scenarios plus a quiet-victim
//!   noise scenario, gated at the paper's 25% envelope.
//! * [`FaultPlan`] — injects malformed decks (NaN/∞/negative values,
//!   truncated and empty decks), missing files, empty trees, and worker
//!   panics into the batch [`rlc_engine::Engine`], asserting that every
//!   fault lands in a typed [`rlc_engine::EngineError`] slot without
//!   contaminating sibling nets and without breaking byte-identical
//!   reports across worker counts. Every lintable fault class also maps
//!   to a stable `rlc-lint` code ([`Fault::lint_code`]).
//! * [`screen_corpus`] — runs the `rlc-lint` static analyzer over a
//!   generated corpus as a differential check on the generator: every
//!   net must lint error-free, and nets steered below ζ = 0.5 must
//!   carry the `L201` underdamped-sink warning.
//!
//! The `conformance` binary drives all of this from the command line:
//!
//! ```text
//! cargo run --release -p rlc-verify --bin conformance -- --seed 42
//! ```

#![allow(clippy::expect_used, reason = "pre-existing calls; see ROADMAP.md")]

mod conformance;
mod corpus;
mod coupled;
mod fault;
mod oracle;
mod screen;
mod synth;

pub use conformance::{Conformance, ConformanceReport, ErrorStats, ModelKind, NetOutcome};
pub use corpus::{build_net, CorpusNet, CorpusSpec, Regime, Shape, TreeCorpus};
pub use coupled::{
    build_group, CorpusGroup, CoupledConformance, CoupledCorpus, CoupledMeasurement, CoupledOracle,
    CoupledOutcome, CoupledReport, CoupledScenario, CoupledSpec, CoupledStats,
};
pub use fault::{Fault, FaultCheck, FaultPlan, FaultReport};
pub use oracle::{Oracle, OracleError, OracleMeasurement};
pub use screen::{screen_corpus, ScreenReport, ScreenedNet};
pub use synth::{
    build_synth_net, SynthConformance, SynthNet, SynthOutcome, SynthSpec, SynthVerifyReport,
};
