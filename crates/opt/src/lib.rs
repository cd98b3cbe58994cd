//! Interconnect optimization on top of the equivalent Elmore delay model.
//!
//! The paper's stated purpose for a closed-form, continuous RLC delay model
//! is to power the *synthesis* loops that the classic Elmore delay powers
//! for RC nets — buffer/repeater insertion, wire sizing, and clock network
//! design (Section I and references \\[17\]–[28\]). This crate provides those
//! loops, implemented directly on [`eed`]'s model:
//!
//! * [`repeater`] — uniform repeater insertion on long wires: stage-delay
//!   evaluation, joint (count, size) optimization, and the classic
//!   RC-only Bakoğlu closed form as a baseline. Reproduces the qualitative
//!   finding of the authors' follow-on work (TVLSI 2000): inductance
//!   reduces the optimal number of repeaters.
//! * [`buffering`] — van Ginneken's optimal buffer-placement dynamic
//!   program for trees (the paper's reference \[27\]), with RLC re-timing of
//!   the chosen placement.
//! * [`sizing`] — continuous wire sizing by golden-section search on the
//!   closed-form delay.
//! * [`skew`] — clock-skew reports over the sinks of a distribution tree.
//! * [`fom`] — the authors' companion figures of merit [DAC 1998] for
//!   deciding *when* inductance matters at all.
//!
//! # Examples
//!
//! Decide whether a 5 mm clock spine needs RLC analysis, then size
//! repeaters for it:
//!
//! ```
//! use rlc_tree::wire::WireModel;
//! use rlc_units::Time;
//! use rlc_opt::{fom, repeater};
//!
//! let wire = WireModel::CLOCK_SPINE;
//! let rise = Time::from_picoseconds(40.0);
//! let window = fom::inductance_window(&wire, rise).expect("low-R wire has a window");
//! assert!(fom::is_inductance_significant(&wire, 5000.0, rise));
//!
//! let lib = repeater::Repeater::typical_cmos_250nm();
//! let plan = repeater::optimize(&wire, 5000.0, &lib);
//! assert!(plan.count >= 1);
//! println!("{} repeaters of size {:.1}, delay {}", plan.count, plan.size, plan.delay);
//! # let _ = window;
//! ```

#![allow(clippy::expect_used, reason = "pre-existing calls; see ROADMAP.md")]

pub mod buffering;
pub mod fom;
pub mod repeater;
pub mod search;
pub mod sizing;
pub mod skew;
