//! Fault injection against the batch engine.
//!
//! Each [`Fault`] is one way a real corpus goes wrong — non-finite or
//! negative element values, truncated or empty decks, missing files, empty
//! trees, and outright worker panics. [`FaultPlan`] interleaves all of them
//! with healthy nets and asserts the engine's three isolation contracts:
//!
//! 1. every fault lands in its own slot as the *expected*
//!    [`EngineError`] variant (typed, never a panic escaping the pool);
//! 2. every healthy sibling's timing is exactly what it would have been
//!    with no faults in the corpus at all (zero cross-net contamination);
//! 3. the `rlc-engine/1` report stays byte-identical across worker counts.

use core::fmt;

use rlc_engine::{Batch, Engine, EngineError};
use rlc_tree::RlcTree;

use crate::corpus::{build_net, Regime};

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// A deck with a literal `NaN` element value.
    NanValue,
    /// A deck whose value overflows `f64` (`1e999`).
    InfValue,
    /// A deck with a negative resistance.
    NegativeResistance,
    /// A deck with a negative capacitance.
    NegativeCapacitance,
    /// A deck cut off mid-card (missing the value field).
    TruncatedDeck,
    /// A deck with no series cards at all (rejected at parse: a netlist
    /// with no R/L elements does not describe a tree).
    EmptyDeck,
    /// A netlist file that does not exist.
    MissingFile,
    /// An in-memory tree with zero sections.
    EmptyTree,
    /// A job that panics on the worker thread.
    WorkerPanic,
}

impl Fault {
    /// Every fault, in injection order.
    pub const ALL: [Fault; 9] = [
        Fault::NanValue,
        Fault::InfValue,
        Fault::NegativeResistance,
        Fault::NegativeCapacitance,
        Fault::TruncatedDeck,
        Fault::EmptyDeck,
        Fault::MissingFile,
        Fault::EmptyTree,
        Fault::WorkerPanic,
    ];

    /// Stable identifier used in net names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Fault::NanValue => "nan-value",
            Fault::InfValue => "inf-value",
            Fault::NegativeResistance => "negative-resistance",
            Fault::NegativeCapacitance => "negative-capacitance",
            Fault::TruncatedDeck => "truncated-deck",
            Fault::EmptyDeck => "empty-deck",
            Fault::MissingFile => "missing-file",
            Fault::EmptyTree => "empty-tree",
            Fault::WorkerPanic => "worker-panic",
        }
    }

    /// Queues this fault into `batch` under `name`.
    pub fn inject(self, batch: &mut Batch, name: &str) {
        match self {
            Fault::NanValue => batch.push_deck(name, "R1 in n1 NaN\nC1 n1 0 0.5p\n"),
            Fault::InfValue => batch.push_deck(name, "R1 in n1 1e999\nC1 n1 0 0.5p\n"),
            Fault::NegativeResistance => batch.push_deck(name, "R1 in n1 -25\nC1 n1 0 0.5p\n"),
            Fault::NegativeCapacitance => batch.push_deck(name, "R1 in n1 25\nC1 n1 0 -0.5p\n"),
            Fault::TruncatedDeck => batch.push_deck(name, "R1 in n1 25\nC1 n1 0 0.5p\nR2 n1\n"),
            Fault::EmptyDeck => batch.push_deck(name, "* comment only\n"),
            Fault::MissingFile => {
                batch.push_file(format!("/nonexistent/rlc-verify/{name}.sp"));
            }
            Fault::EmptyTree => batch.push_tree(name, RlcTree::new()),
            Fault::WorkerPanic => batch.push_panicking(name, "injected worker panic"),
        }
    }

    /// The stable `rlc-lint` code that statically predicts this fault,
    /// or `None` for the one fault with nothing to lint (the worker
    /// panic, which is injected behaviour, not deck content).
    ///
    /// This is the contract `rlc-engine`'s
    /// [`Batch::precheck`](rlc_engine::Batch::precheck) relies on: every
    /// deck-, file-, or tree-shaped fault is flagged *before* a worker
    /// touches it.
    pub fn lint_code(self) -> Option<&'static str> {
        match self {
            // Non-finite and negative element values.
            Fault::NanValue
            | Fault::InfValue
            | Fault::NegativeResistance
            | Fault::NegativeCapacitance => Some("L102"),
            // A card cut off mid-line.
            Fault::TruncatedDeck => Some("L101"),
            // No series elements — deck- and tree-shaped spellings of
            // the same emptiness.
            Fault::EmptyDeck | Fault::EmptyTree => Some("L001"),
            // Unreadable input.
            Fault::MissingFile => Some("L301"),
            Fault::WorkerPanic => None,
        }
    }

    /// Whether `err` is the typed error this fault must produce.
    pub fn matches(self, err: &EngineError) -> bool {
        match self {
            Fault::NanValue
            | Fault::InfValue
            | Fault::NegativeResistance
            | Fault::NegativeCapacitance
            | Fault::TruncatedDeck
            | Fault::EmptyDeck => matches!(err, EngineError::Netlist { .. }),
            Fault::EmptyTree => matches!(err, EngineError::EmptyNet { .. }),
            Fault::MissingFile => matches!(err, EngineError::Io { .. }),
            Fault::WorkerPanic => {
                matches!(err, EngineError::Panicked { message, .. } if message == "injected worker panic")
            }
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The verdict for one injected fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCheck {
    /// The injected fault.
    pub fault: Fault,
    /// The report slot it occupied.
    pub slot: usize,
    /// The error the engine actually produced, rendered.
    pub observed: String,
    /// `true` when the slot held the expected typed error.
    pub typed_correctly: bool,
}

/// The outcome of a [`FaultPlan`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// One verdict per injected fault.
    pub checks: Vec<FaultCheck>,
    /// Contract violations in prose (empty on success).
    pub violations: Vec<String>,
    /// Worker counts whose reports were compared.
    pub worker_counts: Vec<usize>,
}

impl FaultReport {
    /// `true` when every contract held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.checks.iter().all(|c| c.typed_correctly)
    }
}

/// A corpus of healthy nets interleaved with every [`Fault`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    healthy: usize,
    seed: u64,
}

impl FaultPlan {
    /// The standard plan: 6 healthy seeded nets with all nine faults
    /// interleaved between them, run at 1/2/4/8 workers.
    pub fn standard(seed: u64) -> Self {
        Self { healthy: 6, seed }
    }

    /// Builds the faulted batch plus the positions of faults and healthy
    /// nets. Faults are interleaved so every worker is likely to touch one.
    fn build(&self) -> (Batch, Vec<(usize, Fault)>, Vec<usize>) {
        let mut batch = Batch::new();
        let mut fault_slots = Vec::new();
        let mut healthy_slots = Vec::new();
        let mut faults = Fault::ALL.iter().copied().peekable();
        let mut healthy_left = self.healthy;
        // Alternate healthy / fault until one side runs dry, then drain the
        // other.
        for slot in 0..self.healthy + Fault::ALL.len() {
            let take_fault = faults.peek().is_some() && (healthy_left == 0 || slot % 2 == 1);
            if take_fault {
                let fault = faults.next().expect("peeked");
                fault.inject(&mut batch, &format!("fault-{}", fault.name()));
                fault_slots.push((slot, fault));
            } else {
                let i = healthy_slots.len();
                let regime = Regime::ALL[i % Regime::ALL.len()];
                let net = build_net(self.seed.wrapping_add(i as u64), regime, 10);
                batch.push_tree(format!("healthy-{i}"), net.tree);
                healthy_slots.push(slot);
                healthy_left -= 1;
            }
        }
        (batch, fault_slots, healthy_slots)
    }

    /// Runs the plan and checks all three isolation contracts.
    pub fn execute(&self) -> FaultReport {
        let worker_counts = vec![1, 2, 4, 8];
        let (batch, fault_slots, healthy_slots) = self.build();
        let mut violations = Vec::new();

        // Baseline: the same healthy nets with no faults anywhere near them.
        let mut healthy_only = Batch::new();
        for i in 0..healthy_slots.len() {
            let regime = Regime::ALL[i % Regime::ALL.len()];
            let net = build_net(self.seed.wrapping_add(i as u64), regime, 10);
            healthy_only.push_tree(format!("healthy-{i}"), net.tree);
        }
        let baseline = Engine::with_workers(1).run(&healthy_only);

        let reference = Engine::with_workers(worker_counts[0]).run(&batch);
        let reference_json = reference.to_json();

        // Contract 1: every fault is a typed error in its own slot.
        let checks: Vec<FaultCheck> = fault_slots
            .iter()
            .map(|&(slot, fault)| match &reference.nets[slot] {
                Err(err) => FaultCheck {
                    fault,
                    slot,
                    observed: err.to_string(),
                    typed_correctly: fault.matches(err),
                },
                Ok(t) => FaultCheck {
                    fault,
                    slot,
                    observed: format!("unexpected success ({} sinks)", t.sinks.len()),
                    typed_correctly: false,
                },
            })
            .collect();
        for check in checks.iter().filter(|c| !c.typed_correctly) {
            violations.push(format!(
                "fault {} in slot {}: expected typed error, observed: {}",
                check.fault, check.slot, check.observed
            ));
        }

        // Contract 2: healthy slots exactly match the fault-free baseline.
        for (i, &slot) in healthy_slots.iter().enumerate() {
            match (&reference.nets[slot], &baseline.nets[i]) {
                (Ok(with_faults), Ok(alone)) if with_faults == alone => {}
                (with_faults, _) => violations.push(format!(
                    "healthy net {i} (slot {slot}) contaminated by sibling faults: {with_faults:?}"
                )),
            }
        }

        // Contract 3: byte-identical reports at every worker count.
        for &workers in &worker_counts[1..] {
            let report = Engine::with_workers(workers).run(&batch);
            if report.to_json() != reference_json {
                violations.push(format!(
                    "report at {workers} workers differs from the 1-worker reference"
                ));
            }
        }

        FaultReport {
            checks,
            violations,
            worker_counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_maps_to_one_engine_error() {
        let report = FaultPlan::standard(42).execute();
        assert_eq!(report.checks.len(), Fault::ALL.len());
        for check in &report.checks {
            assert!(check.typed_correctly, "{}: {}", check.fault, check.observed);
        }
        assert!(report.passed(), "{:?}", report.violations);
    }

    #[test]
    fn plan_is_deterministic() {
        let a = FaultPlan::standard(7).execute();
        let b = FaultPlan::standard(7).execute();
        assert_eq!(a, b);
    }
}
