//! Moment computation for RLC trees.
//!
//! This crate implements the algorithmic core of *Equivalent Elmore Delay
//! for RLC Trees* (Ismail–Friedman–Neves, TCAD 2000):
//!
//! * [`ElmoreSums`] / [`tree_sums`] — the two tree summations that
//!   parameterize the paper's second-order model at every node `i`
//!   (paper eqs. 52–53 and the Appendix pseudocode, Figs. 17–18):
//!
//!   ```text
//!   T_RC(i) = Σ_k C_k·R_ki   — the classic Elmore sum
//!   T_LC(i) = Σ_k C_k·L_ki   — its inductive twin
//!   ```
//!
//!   computed for **all** nodes in O(branches) with two passes: a
//!   children-before-parents accumulation of downstream capacitance
//!   (`Cal_Cap_Loads`) followed by a parents-before-children prefix walk
//!   (`Cal_Summations`).
//!
//! * [`flat_sums`] / [`forest_sums`] (and their `_into` buffer-reusing
//!   variants) — the same two passes as branch-light linear index sweeps
//!   over a packed [`FlatTree`](rlc_tree::FlatTree) /
//!   [`FlatForest`](rlc_tree::FlatForest) structure-of-arrays layout: the
//!   production hot path for batch workloads, bit-identical to
//!   [`tree_sums`] (the legacy walker survives in
//!   [`reference`](mod@reference) for differential testing).
//!
//! * [`FlatIncrementalSums`] — the same two sums in a factored
//!   per-section form over the flat layout, which a single section edit
//!   updates in O(depth) instead of O(n), bit-identical to a from-scratch
//!   [`tree_sums`] pass. This is the substrate of `rlc-engine`'s
//!   `IncrementalAnalysis`. A search that rewrites every section per
//!   probe (the synthesis width searches) re-sums from scratch instead.
//!
//! * [`TransferMoments`] / [`transfer_moments`] — *exact* moments of the
//!   voltage transfer function at every node, to arbitrary order, via the
//!   recursive RICE-style algorithm (two tree passes per order). These feed
//!   the AWE comparator and quantify the error of the paper's second-moment
//!   approximation (eq. 28).
//!
//! # Examples
//!
//! ```
//! use rlc_tree::{RlcSection, topology};
//! use rlc_units::{Resistance, Inductance, Capacitance};
//! use rlc_moments::tree_sums;
//!
//! let s = RlcSection::new(
//!     Resistance::from_ohms(25.0),
//!     Inductance::from_nanohenries(5.0),
//!     Capacitance::from_picofarads(0.5),
//! );
//! let (line, sink) = topology::single_line(2, s);
//! let sums = tree_sums(&line);
//!
//! // Two-section line: T_RC(sink) = R1·(C1+C2) + R2·C2 = 25·1p + 25·0.5p
//! let t_rc = sums.rc(sink);
//! assert!((t_rc.as_picoseconds() - 37.5).abs() < 1e-9);
//! ```

mod elmore;
mod exact;
mod flat;
pub mod reference;

pub use elmore::{tree_sums, ElmoreSums};
pub use exact::{transfer_moments, TransferMoments};
pub use flat::{flat_sums, flat_sums_into, forest_sums, forest_sums_into, FlatIncrementalSums};
