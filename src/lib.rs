//! # Equivalent Elmore Delay for RLC Trees
//!
//! A full reproduction of Y. I. Ismail, E. G. Friedman, and J. L. Neves,
//! *Equivalent Elmore Delay for RLC Trees* (DAC 1999; IEEE TCAD vol. 19
//! no. 1, Jan. 2000): closed-form, always stable, O(n)-computable 50%
//! delay, rise time, overshoot and settling-time expressions for signals in
//! RLC interconnect trees — the generalization of the ubiquitous Elmore
//! delay from RC to inductive wiring.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`units`] | `rlc-units` | typed electrical quantities |
//! | [`numeric`] | `rlc-numeric` | complex/poly/root/LU kernels |
//! | [`tree`] | `rlc-tree` | RLC tree structure, topologies, wire models, netlists |
//! | [`moments`] | `rlc-moments` | O(n) tree sums and exact moments |
//! | [`eed`] | `eed` | **the paper's model**: ζ/ω_n, delays, overshoots |
//! | [`sim`] | `rlc-sim` | transient simulators (the AS/X substitute) |
//! | [`awe`] | `rlc-awe` | AWE/Padé, Wyatt, Kahng–Muddu comparators |
//! | [`opt`] | `rlc-opt` | repeater insertion, wire sizing, skew, inductance FOM |
//! | [`engine`] | `rlc-engine` | concurrent batch timing, incremental re-analysis |
//! | [`couple`] | `rlc-couple` | coupled-net crosstalk: Miller delay windows, noise bounds |
//! | [`synth`] | `rlc-synth` | EED-driven buffer insertion and joint wire sizing |
//! | [`serve`] | `rlc-serve` | networked timing service: protocol, cache, admission |
//! | [`lint`] | `rlc-lint` | deck static analysis: stable rule codes, lint gate |
//!
//! # Quick start
//!
//! ```
//! use equivalent_elmore::prelude::*;
//!
//! // A 2 mm clock spine splitting into two 1 mm branches.
//! let wire = WireModel::IBM_COPPER_GLOBAL;
//! let mut net = RlcTree::new();
//! let split = wire.route(&mut net, None, 2000.0, 4);
//! let a = wire.route(&mut net, Some(split), 1000.0, 2);
//! let b = wire.route(&mut net, Some(split), 1000.0, 2);
//!
//! let timing = TreeAnalysis::new(&net);
//! let (critical, delay) = timing.critical_sink().expect("net has sinks");
//! assert!(critical == a || critical == b);
//! println!("critical sink delay: {delay}");
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment-by-experiment reproduction of the
//! paper's figures.

pub use eed;
pub use rlc_awe as awe;
pub use rlc_couple as couple;
pub use rlc_engine as engine;
pub use rlc_lint as lint;
pub use rlc_moments as moments;
pub use rlc_numeric as numeric;
pub use rlc_opt as opt;
pub use rlc_serve as serve;
pub use rlc_sim as sim;
pub use rlc_synth as synth;
pub use rlc_tree as tree;
pub use rlc_units as units;

/// The most common imports, for `use equivalent_elmore::prelude::*`.
pub mod prelude {
    pub use eed::{Damping, SecondOrderModel, TreeAnalysis};
    pub use rlc_couple::{analyze_group, GroupTiming};
    pub use rlc_engine::{Batch, Engine, IncrementalAnalysis};
    pub use rlc_moments::tree_sums;
    pub use rlc_sim::{simulate, SimOptions, Source, Waveform};
    pub use rlc_synth::{synthesize, BufferSpec, SynthConfig, Synthesis};
    pub use rlc_tree::coupled::CoupledGroup;
    pub use rlc_tree::wire::WireModel;
    pub use rlc_tree::{topology, NodeId, RlcSection, RlcTree, TreeBuilder};
    pub use rlc_units::{
        AngularFrequency, Capacitance, Inductance, Resistance, Time, TimeSquared, Voltage,
    };
}
