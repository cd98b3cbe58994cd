//! Transient circuit simulation of RLC trees.
//!
//! The paper validates its closed-form model against IBM's proprietary AS/X
//! circuit simulator. This crate plays that role in the reproduction (see
//! `DESIGN.md`, substitution table): it solves the *exact* linear dynamics
//! of an [`rlc_tree::RlcTree`] in the time domain, with three independent
//! methods that cross-validate each other:
//!
//! * [`simulate`] — an **O(n)-per-step tree solver**: trapezoidal (or
//!   backward-Euler) companion models reduce each step to a resistive tree,
//!   which is solved exactly with one leaf→root Norton-folding pass and one
//!   root→leaf voltage pass. This is the production path; it handles trees
//!   with hundreds of thousands of sections.
//! * [`mna::simulate_mna`] — dense modified-nodal-analysis with a
//!   factor-once LU, the textbook formulation, used as a cross-check.
//! * [`mna::simulate_rk4`] — classic RK4 on the state-space form, a
//!   discretization-independent cross-check (requires all L, C > 0).
//!
//! [`Waveform`] measures simulated signals the way the paper's figures do:
//! 50% delay, 10–90% rise time, overshoot, and settling time.
//!
//! # Examples
//!
//! ```
//! use rlc_tree::{RlcSection, topology};
//! use rlc_units::{Resistance, Inductance, Capacitance, Time};
//! use rlc_sim::{simulate, SimOptions, Source};
//!
//! let section = RlcSection::new(
//!     Resistance::from_ohms(25.0),
//!     Inductance::from_nanohenries(2.0),
//!     Capacitance::from_picofarads(0.5),
//! );
//! let (tree, sink) = topology::single_line(4, section);
//!
//! let options = SimOptions::new(Time::from_picoseconds(2.0), Time::from_nanoseconds(4.0));
//! let result = simulate(&tree, &Source::step(1.0), &options, &[sink]);
//! let wave = &result[0];
//!
//! // The sink settles to the full supply.
//! assert!((wave.last_value() - 1.0).abs() < 1e-3);
//! let delay = wave.delay_50(1.0).expect("signal crosses 50%");
//! assert!(delay > Time::ZERO);
//! ```

#![allow(clippy::expect_used, reason = "pre-existing calls; see ROADMAP.md")]

pub mod coupled;
pub mod mna;
mod source;
mod tree_sim;
mod waveform;

pub use coupled::simulate_coupled;
pub use source::Source;
pub use tree_sim::{simulate, simulate_all, Integration, SimOptions};
pub use waveform::{MetricError, Waveform};
