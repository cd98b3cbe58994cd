//! Equivalent Elmore delay for RLC trees.
//!
//! This crate implements the primary contribution of Y. I. Ismail,
//! E. G. Friedman, and J. L. Neves, *Equivalent Elmore Delay for RLC Trees*
//! (DAC 1999; IEEE TCAD vol. 19 no. 1, Jan. 2000): closed-form, always
//! stable, O(n)-computable expressions for the 50% delay, rise time,
//! overshoots, and settling time of signals in an RLC tree, generalizing the
//! Elmore (Wyatt) delay from RC to RLC interconnect.
//!
//! # The model
//!
//! At every node `i` of an RLC tree the transfer function is approximated by
//! the second-order form (paper eq. 13)
//!
//! ```text
//! H_i(s) ≈ 1 / ( s²/ω_n² + 2ζ·s/ω_n + 1 )
//! ```
//!
//! with the parameters obtained from the two O(n) tree sums of
//! [`rlc_moments`] (paper eqs. 29–30):
//!
//! ```text
//! ω_n(i) = 1/√(Σ_k L_ki·C_k)        ζ(i) = Σ_k R_ki·C_k / (2·√(Σ_k L_ki·C_k))
//! ```
//!
//! From `(ζ, ω_n)` every signal characteristic follows in closed form,
//! continuously across underdamped, critically damped, and overdamped
//! responses — which is what makes the model usable inside synthesis loops
//! (buffer insertion, wire sizing) the same way the Elmore delay is used
//! for RC trees.
//!
//! # Quick start
//!
//! ```
//! use rlc_tree::{RlcSection, topology};
//! use rlc_units::{Resistance, Inductance, Capacitance};
//! use eed::TreeAnalysis;
//!
//! // A 3-level clock-like tree of identical RLC sections.
//! let section = RlcSection::new(
//!     Resistance::from_ohms(25.0),
//!     Inductance::from_nanohenries(5.0),
//!     Capacitance::from_picofarads(0.5),
//! );
//! let (tree, nodes) = topology::fig5(section);
//!
//! let analysis = TreeAnalysis::new(&tree);
//! let model = analysis.model(nodes.n7);
//!
//! // Damping factor and natural frequency at the observed sink:
//! assert!(model.zeta() > 0.0);
//! // 50% propagation delay and 10–90% rise time, in one closed form each:
//! let delay = analysis.delay_50(nodes.n7);
//! let rise = analysis.rise_time(nodes.n7);
//! assert!(rise > delay);
//! ```
//!
//! # Module map
//!
//! * [`SecondOrderModel`] (`mod model`) — `(ζ, ω_n)` plus damping
//!   classification; built from tree sums, sections, or raw values.
//! * `mod step` — exact evaluation and inversion of the unit step response
//!   (paper eq. 31) in all damping regimes, including the time-scaled form
//!   (eq. 32) that collapses the response to a one-parameter family.
//! * [`metrics`] — 50% delay, rise time (exact and fitted, eqs. 33–38),
//!   overshoots (eqs. 39–40), settling time (eqs. 41–42), and the
//!   Elmore/Wyatt special cases.
//! * [`fitted`] — the continuous curve-fit formulas and the machinery to
//!   regenerate them from scratch (used to reproduce the paper's Fig. 6).
//! * [`response`] — time-domain waveforms for step, exponential (eqs.
//!   43–48), ramp, and arbitrary inputs.
//! * `mod frequency` — `H(jω)`, resonance peaking, −3 dB bandwidth (the
//!   spectral twins of ringing and rise time).
//! * [`TreeAnalysis`] (`mod analysis`) — the headline API: analyze every
//!   node of a tree in O(n).

#![allow(clippy::expect_used, reason = "pre-existing calls; see ROADMAP.md")]

mod analysis;
pub mod fitted;
mod frequency;
pub mod metrics;
mod model;
pub mod response;
pub mod step;

pub use analysis::{NodeTiming, TreeAnalysis};
pub use model::{Damping, SecondOrderModel};
