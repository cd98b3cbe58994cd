//! Synthesis conformance: the EED-driven buffer insertion of `rlc-synth`
//! re-simulated through the exact oracle.
//!
//! The synthesizer adopts a configuration because the *model* says it is
//! faster; this module checks the claim on the exact transfer function.
//! A seeded corpus of buffering-eligible nets (long resistive trunks —
//! the regime where repeater insertion pays) is synthesized, and both
//! the unbuffered baseline and the adopted configuration are replayed
//! through [`Oracle::measure`] stage by stage, using the *same*
//! [`rlc_synth::stage::evaluate`] propagation the optimizer's model
//! evaluator uses — so the two numbers differ only in how each stage's
//! 50% delay is obtained (exact transient vs closed-form EED).
//!
//! Two properties are gated (ISSUE 9 acceptance):
//!
//! * **soundness** — every net's oracle-measured critical-sink delay
//!   after synthesis is no worse than before (`improvement ≥ 0`; exactly
//!   0 when the synthesizer adopted nothing, since the configurations
//!   are then identical);
//! * **efficacy** — the mean oracle improvement over the nets where
//!   buffers *were* adopted exceeds 10%.

use rlc_synth::stage::{decompose, evaluate, NetEval};
use rlc_synth::{synthesize_tree, BufferSpec, SynthConfig, Synthesis};
use rlc_tree::{RlcSection, RlcTree};
use rlc_units::{Capacitance, Inductance, Resistance};

use crate::corpus::SplitMix64;
use crate::oracle::{Oracle, OracleError};

/// Parameters of a synthesis-corpus generation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthSpec {
    /// Master seed; every net derives its own seed from this one.
    pub seed: u64,
    /// Number of nets to generate.
    pub nets: usize,
    /// Upper bound on trunk sections per net (lower bound is 2).
    pub max_sections: usize,
}

impl SynthSpec {
    /// A spec with the given seed and the defaults used by the
    /// `conformance` binary: 24 nets of up to 12 trunk sections.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            nets: 24,
            max_sections: 12,
        }
    }
}

/// One generated synthesis net, with enough metadata to replay it.
#[derive(Debug, Clone)]
pub struct SynthNet {
    /// Human-readable name (`syn007-line-9`).
    pub name: String,
    /// The per-net seed: [`build_synth_net`] rebuilds this exact net.
    pub seed: u64,
    /// The net to synthesize.
    pub tree: RlcTree,
    /// Source driver resistance, ohms.
    pub driver_r_ohms: f64,
    /// The buffer the library offers.
    pub buffer: BufferSpec,
}

/// Builds a single buffering-eligible net from its per-net seed.
/// Deterministic: the same `(seed, max_sections)` pair always yields the
/// same net — this is the replay path recorded in the report.
///
/// The generator steers into the regime where repeater insertion pays:
/// resistive trunks (hundreds of ohms per section) with substantial wire
/// capacitance, driven and repeated by much stronger buffers. Every
/// fourth net forks into a two-branch "Y" so the DP sees genuine trees,
/// and trunk length spans short (2 sections, where the synthesizer
/// should adopt nothing) to long.
pub fn build_synth_net(seed: u64, max_sections: usize) -> SynthNet {
    assert!(max_sections >= 2, "nets need at least 2 sections");
    let mut rng = SplitMix64::new(seed);
    let sections = 2 + (rng.next_u64() as usize) % (max_sections - 1);
    let branched = rng.next_u64().is_multiple_of(4) && sections >= 4;

    let section = |rng: &mut SplitMix64| {
        RlcSection::new(
            Resistance::from_ohms(400.0 + 600.0 * rng.next_f64()),
            Inductance::from_nanohenries(0.3 * rng.next_f64()),
            Capacitance::from_picofarads(0.3 + 0.6 * rng.next_f64()),
        )
    };

    let mut tree = RlcTree::with_capacity(sections);
    let mut node = tree.add_root_section(section(&mut rng));
    let trunk = if branched { sections / 2 } else { sections };
    for _ in 1..trunk {
        node = tree.add_section(node, section(&mut rng));
    }
    if branched {
        let fork = node;
        let mut arm = fork;
        for _ in trunk..sections {
            arm = tree.add_section(arm, section(&mut rng));
        }
        let mut arm = tree.add_section(fork, section(&mut rng));
        for _ in trunk + 1..sections {
            arm = tree.add_section(arm, section(&mut rng));
        }
    }

    let driver_r_ohms = 80.0 + 120.0 * rng.next_f64();
    let buffer = BufferSpec {
        resistance: 100.0 + 60.0 * rng.next_f64(),
        input_capacitance: (3.0 + 5.0 * rng.next_f64()) * 1e-15,
        intrinsic_delay: (10.0 + 15.0 * rng.next_f64()) * 1e-12,
    };
    let shape = if branched { "tree" } else { "line" };
    SynthNet {
        name: format!("syn-{shape}-{}", tree.len()),
        seed,
        tree,
        driver_r_ohms,
        buffer,
    }
}

/// One net's before/after oracle verdict.
#[derive(Debug, Clone)]
pub struct SynthOutcome {
    /// The net's name.
    pub name: String,
    /// Replay seed.
    pub seed: u64,
    /// Sections in the net.
    pub sections: usize,
    /// Buffers the synthesizer adopted.
    pub buffers: usize,
    /// Adopted width factor.
    pub width: f64,
    /// Model-claimed fractional improvement at the critical sink.
    pub model_gain: f64,
    /// Oracle-measured unbuffered critical-sink 50% delay, seconds.
    pub oracle_baseline_s: f64,
    /// Oracle-measured optimized critical-sink 50% delay, seconds.
    pub oracle_optimized_s: f64,
    /// Oracle-measured fractional improvement
    /// `(baseline − optimized) / baseline`.
    pub oracle_gain: f64,
}

/// Aggregate verdict of a synthesis-conformance run.
#[derive(Debug, Clone)]
pub struct SynthVerifyReport {
    /// Per-net outcomes, in corpus order.
    pub outcomes: Vec<SynthOutcome>,
    /// Nets the oracle could not measure, with the reason.
    pub skipped: Vec<(String, OracleError)>,
    /// Human-readable gate violations; empty means the run passed.
    pub violations: Vec<String>,
    /// Mean oracle improvement over the nets where buffers were adopted.
    pub mean_buffered_gain: f64,
    /// How many nets adopted at least one buffer.
    pub buffered_nets: usize,
}

impl SynthVerifyReport {
    /// Whether every gate held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the run as a single `rlc-verify-synth/1` JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;

        let mut out = String::from("{\n  \"schema\": \"rlc-verify-synth/1\",\n");
        let _ = writeln!(out, "  \"nets\": {},", self.outcomes.len());
        let _ = writeln!(out, "  \"buffered_nets\": {},", self.buffered_nets);
        let _ = writeln!(
            out,
            "  \"mean_buffered_gain\": {:.6},",
            self.mean_buffered_gain
        );
        let _ = writeln!(out, "  \"skipped\": {},", self.skipped.len());
        let _ = writeln!(out, "  \"passed\": {},", self.passed());
        out.push_str("  \"outcomes\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            let sep = if i + 1 == self.outcomes.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"seed\": {}, \"sections\": {}, \
                 \"buffers\": {}, \"width\": {:.4}, \"model_gain\": {:.6}, \
                 \"oracle_gain\": {:.6}}}{sep}",
                o.name, o.seed, o.sections, o.buffers, o.width, o.model_gain, o.oracle_gain
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The synthesis-conformance runner.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthConformance {
    /// The exact-simulation oracle used for every stage measurement.
    pub oracle: Oracle,
    /// The synthesizer configuration under test.
    pub config: SynthConfig,
}

/// Replays `stages` through the oracle: the same arrival propagation as
/// the model evaluator, but each stage's 50% delay is measured on the
/// exact step response of the stage circuit.
fn oracle_eval(
    oracle: &Oracle,
    tree: &RlcTree,
    stages: &[rlc_synth::Stage],
    buffer: &BufferSpec,
) -> Result<NetEval, OracleError> {
    let mut first_error: Option<OracleError> = None;
    let eval = evaluate(tree, stages, buffer, &[], |k, node| {
        match oracle.measure(&stages[k].tree, node) {
            Ok(m) => m.delay_50.as_seconds(),
            Err(e) => {
                first_error.get_or_insert(e);
                f64::NAN
            }
        }
    });
    match first_error {
        Some(e) => Err(e),
        None => Ok(eval),
    }
}

impl SynthConformance {
    /// Runs the conformance gates over a generated corpus.
    #[expect(clippy::unreachable, reason = "sinks are queried in both evals")]
    pub fn run(&self, spec: &SynthSpec) -> SynthVerifyReport {
        let mut master = SplitMix64::new(spec.seed);
        let nets: Vec<SynthNet> = (0..spec.nets)
            .map(|i| {
                let mut net = build_synth_net(master.next_u64(), spec.max_sections);
                net.name = format!("syn{i:03}-{}", net.name.trim_start_matches("syn-"));
                net
            })
            .collect();

        let mut outcomes = Vec::with_capacity(nets.len());
        let mut skipped = Vec::new();
        let mut violations = Vec::new();
        for net in &nets {
            let synthesis: Synthesis =
                synthesize_tree(&net.tree, net.driver_r_ohms, &net.buffer, &[], &self.config);
            let baseline_stages = decompose(&net.tree, net.driver_r_ohms, &net.buffer, &[]);

            let base = match oracle_eval(&self.oracle, &net.tree, &baseline_stages, &net.buffer) {
                Ok(eval) => eval,
                Err(e) => {
                    skipped.push((net.name.clone(), e));
                    continue;
                }
            };
            let opt = match oracle_eval(&self.oracle, &net.tree, &synthesis.stages, &net.buffer) {
                Ok(eval) => eval,
                Err(e) => {
                    skipped.push((net.name.clone(), e));
                    continue;
                }
            };

            // The comparison is at the *optimized* configuration's
            // critical sink — the sink whose delay the report's headline
            // number describes.
            let sink = opt.critical.0;
            let baseline_s = base.arrival[sink.index()]
                .unwrap_or_else(|| unreachable!("sinks are queried in both evals"));
            let optimized_s = opt.critical.1;
            let gain = (baseline_s - optimized_s) / baseline_s;
            let model_gain = (synthesis.baseline - synthesis.optimized) / synthesis.baseline;

            if gain < 0.0 {
                violations.push(format!(
                    "{}: oracle says synthesis made the critical sink slower \
                     ({baseline_s:.4e} s -> {optimized_s:.4e} s, {:.2}%); replay seed {:#018x}",
                    net.name,
                    100.0 * gain,
                    net.seed
                ));
            }
            outcomes.push(SynthOutcome {
                name: net.name.clone(),
                seed: net.seed,
                sections: net.tree.len(),
                buffers: synthesis.buffers.len(),
                width: synthesis.width,
                model_gain,
                oracle_baseline_s: baseline_s,
                oracle_optimized_s: optimized_s,
                oracle_gain: gain,
            });
        }

        let buffered_nets = outcomes.iter().filter(|o| o.buffers > 0).count();
        let mean_buffered_gain = if buffered_nets == 0 {
            0.0
        } else {
            outcomes
                .iter()
                .filter(|o| o.buffers > 0)
                .map(|o| o.oracle_gain)
                .sum::<f64>()
                / buffered_nets as f64
        };
        if buffered_nets == 0 {
            violations.push("corpus produced no buffered nets — the gate is vacuous".to_owned());
        } else if mean_buffered_gain <= 0.10 {
            violations.push(format!(
                "mean oracle improvement on the {buffered_nets} buffered nets is {:.2}%, \
                 required > 10%",
                100.0 * mean_buffered_gain
            ));
        }

        SynthVerifyReport {
            outcomes,
            skipped,
            violations,
            mean_buffered_gain,
            buffered_nets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> SynthConformance {
        SynthConformance {
            oracle: Oracle::with_max_steps(20_000),
            ..SynthConformance::default()
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = build_synth_net(99, 10);
        let b = build_synth_net(99, 10);
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.driver_r_ohms, b.driver_r_ohms);
        assert_eq!(a.buffer, b.buffer);
    }

    #[test]
    fn small_corpus_passes_both_gates() {
        let report = fast().run(&SynthSpec {
            seed: 42,
            nets: 8,
            max_sections: 9,
        });
        assert!(
            report.passed(),
            "violations: {:?} (skipped {:?})",
            report.violations,
            report.skipped
        );
        assert!(report.buffered_nets >= 1);
        assert!(report.mean_buffered_gain > 0.10);
        // Unbuffered nets replay the identical configuration, so the
        // oracle numbers match exactly.
        for o in report.outcomes.iter().filter(|o| o.buffers == 0) {
            assert_eq!(o.oracle_gain, 0.0, "{}: {o:?}", o.name);
        }
    }

    #[test]
    fn report_renders_json() {
        let report = fast().run(&SynthSpec {
            seed: 7,
            nets: 3,
            max_sections: 6,
        });
        let json = report.to_json();
        assert!(
            json.contains("\"schema\": \"rlc-verify-synth/1\""),
            "{json}"
        );
        assert!(json.contains("\"outcomes\""), "{json}");
    }
}
