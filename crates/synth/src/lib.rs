//! EED-driven interconnect synthesis: buffer insertion and wire sizing.
//!
//! The paper's stated purpose for the equivalent Elmore delay is to power
//! *synthesis* — a delay metric cheap enough to sit inside an optimization
//! loop yet aware of inductance. This crate is that loop: a van
//! Ginneken-style bottom-up dynamic program places buffers on an RLC tree
//! to minimize the worst sink's EED 50% delay ([`dp`]), a joint width
//! search then sizes the buffered wire segments ([`stage`] +
//! `rlc_numeric::minimize`), and the result renders as a byte-stable
//! `rlc-synth/1` report ([`report`]).
//!
//! Both optimizations gate their result on a *minimum model gain*
//! ([`SynthConfig::min_gain`]): a change is adopted only when the model
//! predicts an improvement comfortably above its own error, so the
//! `rlc-verify` oracle re-simulation (the exact transfer function, not
//! the model) confirms a real improvement — and an unprofitable net is
//! returned untouched, making its oracle delta exactly zero.
//!
//! # Examples
//!
//! ```
//! use rlc_tree::synth::SynthDeck;
//! use rlc_synth::{synthesize, SynthConfig};
//!
//! let deck = SynthDeck::parse(
//!     "* a 3.6 kΩ line worth buffering\n\
//!      R1 in n1 1.2k\nC1 n1 0 0.9p\n\
//!      R2 n1 n2 1.2k\nC2 n2 0 0.9p\n\
//!      R3 n2 n3 1.2k\nC3 n3 0 0.9p\n\
//!      .lib bufx r=120 cin=5f tin=15p\n\
//!      .driver 100\n",
//! )?;
//! let result = synthesize(&deck, &SynthConfig::default());
//! assert!(!result.buffers.is_empty(), "long resistive lines get buffers");
//! assert!(result.optimized < result.baseline);
//! # Ok::<(), rlc_tree::TreeError>(())
//! ```

pub mod dp;
pub mod report;
pub mod stage;

mod sizing;

pub use dp::{plan_buffers, score_placement, Placement};
pub use report::{SinkReport, SlackReport, SynthTiming};
pub use stage::{decompose, evaluate_model, NetEval, Stage};

use rlc_tree::synth::{BufferCard, SynthDeck};
use rlc_tree::{NodeId, RlcTree};

/// A buffer characterized for the DP, in raw SI floats (`Ω`, `F`, `s`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferSpec {
    /// Driver (output) resistance, ohms. Must be positive.
    pub resistance: f64,
    /// Input capacitance presented upstream, farads.
    pub input_capacitance: f64,
    /// Intrinsic input-to-output delay, seconds.
    pub intrinsic_delay: f64,
}

impl From<&BufferCard> for BufferSpec {
    fn from(card: &BufferCard) -> Self {
        BufferSpec {
            resistance: card.resistance.as_ohms(),
            input_capacitance: card.input_capacitance.as_farads(),
            intrinsic_delay: card.intrinsic_delay.as_seconds(),
        }
    }
}

/// Tuning knobs for [`synthesize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthConfig {
    /// Minimum fractional model improvement a transformation must deliver
    /// to be adopted. The default (5%) comfortably exceeds the EED
    /// model's typical sink-delay error, which is what makes the adopted
    /// improvement survive oracle re-simulation.
    pub min_gain: f64,
    /// Whether to run the joint wire-sizing pass on the buffered
    /// segments.
    pub sizing: bool,
    /// Width-factor search bracket for the sizing pass.
    pub width_bounds: (f64, f64),
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            min_gain: 0.05,
            sizing: true,
            width_bounds: (0.5, 4.0),
        }
    }
}

/// A sink's model delay before and after optimization, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinkGain {
    /// The sink.
    pub node: NodeId,
    /// Unbuffered model 50% delay.
    pub baseline: f64,
    /// Optimized model 50% delay.
    pub optimized: f64,
}

/// A `.require` constraint checked against the optimized arrivals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slack {
    /// The constrained node.
    pub node: NodeId,
    /// Required arrival, seconds.
    pub required: f64,
    /// Optimized model arrival, seconds.
    pub arrival: f64,
    /// `required − arrival`, seconds; negative means violated.
    pub slack: f64,
}

/// The synthesized configuration of one net and its model timing.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// Adopted buffer sites, ascending by node index (empty when
    /// buffering did not clear the gain threshold).
    pub buffers: Vec<NodeId>,
    /// Adopted width factor on the buffered segments (1.0 without
    /// buffers or when sizing did not clear the threshold).
    pub width: f64,
    /// Candidate sites the DP enumerated.
    pub sites: usize,
    /// Unbuffered critical model delay, seconds.
    pub baseline: f64,
    /// Critical model delay of the adopted configuration, seconds.
    pub optimized: f64,
    /// The optimized configuration's critical sink.
    pub critical_sink: NodeId,
    /// Every sink's before/after model delay, in canonical node order.
    pub sinks: Vec<SinkGain>,
    /// Every `.require` constraint's slack, in canonical node order.
    pub slacks: Vec<Slack>,
    /// The adopted configuration's stage decomposition (sized), ready
    /// for the verify tier's exact-oracle re-simulation.
    pub stages: Vec<Stage>,
}

/// Synthesizes `tree`: places buffers with the EED DP, sizes the buffered
/// segments, and reports model timing for the adopted configuration.
///
/// `requires` pairs node ids with required arrival times in seconds.
///
/// # Panics
///
/// Panics if the tree is empty, `driver_r_ohms` or the buffer resistance
/// is not positive, or the config's width bounds are not an increasing
/// positive bracket.
#[expect(clippy::unreachable, reason = "require nodes are queried")]
pub fn synthesize_tree(
    tree: &RlcTree,
    driver_r_ohms: f64,
    buffer: &BufferSpec,
    requires: &[(NodeId, f64)],
    config: &SynthConfig,
) -> Synthesis {
    assert!(!tree.is_empty(), "cannot synthesize an empty tree");
    assert!(
        driver_r_ohms > 0.0 && buffer.resistance > 0.0,
        "driver and buffer resistances must be positive"
    );
    assert!(
        config.min_gain >= 0.0,
        "min_gain must be non-negative, got {}",
        config.min_gain
    );
    let (w_lo, w_hi) = config.width_bounds;
    assert!(
        w_lo > 0.0 && w_hi > w_lo,
        "width bounds must satisfy 0 < lo < hi, got ({w_lo}, {w_hi})"
    );

    // Placement: the DP's cost and the unbuffered replay use identical
    // arithmetic, so the adoption margin is exact.
    let plan = plan_buffers(tree, driver_r_ohms, buffer);
    let unbuffered = score_placement(tree, driver_r_ohms, buffer, &[]);
    let adopt_buffers =
        !plan.buffers.is_empty() && unbuffered - plan.cost > config.min_gain * unbuffered;
    let sites: Vec<NodeId> = if adopt_buffers {
        plan.buffers
    } else {
        Vec::new()
    };

    let require_nodes: Vec<NodeId> = requires.iter().map(|&(n, _)| n).collect();
    let mut stages = decompose(tree, driver_r_ohms, buffer, &sites);

    // Sizing: only buffered segments are sized, and only kept when the
    // model gain again clears the threshold.
    let mut width = 1.0;
    if adopt_buffers && config.sizing {
        let outcome = sizing::size_width(tree, &mut stages, buffer, &require_nodes, w_lo, w_hi);
        if outcome.unit_delay - outcome.delay > config.min_gain * outcome.unit_delay {
            width = outcome.width;
        } else {
            sizing::reset_width(&mut stages);
        }
    }

    let optimized_eval = evaluate_model(tree, &stages, buffer, &require_nodes);
    let baseline_stages = decompose(tree, driver_r_ohms, buffer, &[]);
    let baseline_eval = evaluate_model(tree, &baseline_stages, buffer, &require_nodes);

    let sinks: Vec<SinkGain> = baseline_eval
        .sinks
        .iter()
        .zip(&optimized_eval.sinks)
        .map(|(&(node, base), &(node2, opt))| {
            debug_assert_eq!(node, node2);
            SinkGain {
                node,
                baseline: base,
                optimized: opt,
            }
        })
        .collect();
    let slacks: Vec<Slack> = requires
        .iter()
        .map(|&(node, required)| {
            let arrival = optimized_eval.arrival[node.index()]
                .unwrap_or_else(|| unreachable!("require nodes are queried"));
            Slack {
                node,
                required,
                arrival,
                slack: required - arrival,
            }
        })
        .collect();

    Synthesis {
        buffers: sites,
        width,
        sites: tree.len(),
        baseline: baseline_eval.critical.1,
        optimized: optimized_eval.critical.1,
        critical_sink: optimized_eval.critical.0,
        sinks,
        slacks,
        stages,
    }
}

/// Synthesizes a parsed [`SynthDeck`]: the deck's tree, selected buffer,
/// driver resistance, and `.require` constraints.
///
/// # Panics
///
/// As [`synthesize_tree`]; a deck that parsed successfully satisfies the
/// positivity requirements by construction.
pub fn synthesize(deck: &SynthDeck, config: &SynthConfig) -> Synthesis {
    let buffer = BufferSpec::from(deck.buffer());
    let requires: Vec<(NodeId, f64)> = deck
        .required_times()
        .iter()
        .map(|&(node, t)| (node, t.as_seconds()))
        .collect();
    synthesize_tree(
        deck.tree(),
        deck.driver_resistance().as_ohms(),
        &buffer,
        &requires,
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_tree::{topology, RlcSection};
    use rlc_units::{Capacitance, Inductance, Resistance};

    fn section(r: f64, l_nh: f64, c_pf: f64) -> RlcSection {
        RlcSection::new(
            Resistance::from_ohms(r),
            Inductance::from_nanohenries(l_nh),
            Capacitance::from_picofarads(c_pf),
        )
    }

    fn buf() -> BufferSpec {
        BufferSpec {
            resistance: 120.0,
            input_capacitance: 5e-15,
            intrinsic_delay: 1.5e-11,
        }
    }

    #[test]
    fn profitable_net_is_buffered_and_improved() {
        let (tree, _) = topology::single_line(8, section(700.0, 0.8, 0.9));
        let result = synthesize_tree(&tree, 150.0, &buf(), &[], &SynthConfig::default());
        assert!(!result.buffers.is_empty());
        assert!(result.optimized < result.baseline);
        let gain = (result.baseline - result.optimized) / result.baseline;
        assert!(gain > 0.05, "gain {gain}");
        assert_eq!(result.sites, 8);
    }

    #[test]
    fn unprofitable_net_is_returned_untouched() {
        let (tree, _) = topology::single_line(2, section(15.0, 0.2, 0.05));
        let expensive = BufferSpec {
            resistance: 2000.0,
            input_capacitance: 5e-14,
            intrinsic_delay: 5e-10,
        };
        let result = synthesize_tree(&tree, 40.0, &expensive, &[], &SynthConfig::default());
        assert!(result.buffers.is_empty());
        assert_eq!(result.width, 1.0);
        // Bitwise: the optimized configuration *is* the baseline.
        assert_eq!(result.optimized, result.baseline);
    }

    #[test]
    fn optimized_never_exceeds_baseline() {
        for seed in 0..30u64 {
            let tree = topology::random_tree(
                seed,
                14,
                (Resistance::from_ohms(30.0), Resistance::from_ohms(1200.0)),
                (Inductance::ZERO, Inductance::from_nanohenries(6.0)),
                (
                    Capacitance::from_femtofarads(30.0),
                    Capacitance::from_picofarads(1.5),
                ),
            );
            let result = synthesize_tree(&tree, 100.0, &buf(), &[], &SynthConfig::default());
            assert!(
                result.optimized <= result.baseline,
                "seed {seed}: {} > {}",
                result.optimized,
                result.baseline
            );
        }
    }

    #[test]
    fn slacks_report_required_minus_arrival() {
        let (tree, sink) = topology::single_line(3, section(400.0, 1.0, 0.5));
        let requires = [(sink, 1e-6), (tree.path_from_root(sink)[0], 1e-15)];
        let result = synthesize_tree(&tree, 100.0, &buf(), &requires, &SynthConfig::default());
        assert_eq!(result.slacks.len(), 2);
        assert!(result.slacks[0].slack > 0.0, "1 µs is easily met");
        assert!(result.slacks[1].slack < 0.0, "1 fs is impossible");
        for s in &result.slacks {
            assert_eq!(s.slack, s.required - s.arrival);
        }
    }

    #[test]
    fn deck_synthesis_uses_selected_buffer_and_driver() {
        let deck = rlc_tree::synth::SynthDeck::parse(
            "R1 in n1 1k\nC1 n1 0 1p\nR2 n1 n2 1k\nC2 n2 0 1p\n\
             .lib weak r=900 cin=9f tin=90p\n.lib strong r=80 cin=4f tin=9p\n\
             .use strong\n.driver 120\n",
        )
        .unwrap();
        let result = synthesize(&deck, &SynthConfig::default());
        assert_eq!(result.sites, 2);
        // The strong buffer makes this 2 kΩ line profitable.
        assert!(result.optimized <= result.baseline);
    }

    #[test]
    fn sizing_can_be_disabled() {
        let (tree, _) = topology::single_line(8, section(700.0, 0.8, 0.9));
        let config = SynthConfig {
            sizing: false,
            ..SynthConfig::default()
        };
        let result = synthesize_tree(&tree, 150.0, &buf(), &[], &config);
        assert_eq!(result.width, 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rlc_units::{Capacitance, Inductance, Resistance};

    proptest! {
        /// The satellite invariant: inserting the returned buffers never
        /// increases the EED 50% delay of the critical sink relative to
        /// the unbuffered net (model evaluation, identical evaluator on
        /// both sides).
        #[test]
        fn returned_buffers_never_hurt(
            seed in 0u64..5000,
            sections in 2usize..16,
            r_hi in 100.0f64..2000.0,
            buf_r in 50.0f64..500.0,
        ) {
            let tree = rlc_tree::topology::random_tree(
                seed,
                sections,
                (Resistance::from_ohms(10.0), Resistance::from_ohms(r_hi)),
                (Inductance::ZERO, Inductance::from_nanohenries(5.0)),
                (Capacitance::from_femtofarads(20.0), Capacitance::from_picofarads(1.0)),
            );
            let buffer = BufferSpec {
                resistance: buf_r,
                input_capacitance: 4e-15,
                intrinsic_delay: 1e-11,
            };
            let result = synthesize_tree(&tree, 100.0, &buffer, &[], &SynthConfig::default());
            prop_assert!(
                result.optimized <= result.baseline,
                "optimized {} exceeds baseline {}",
                result.optimized,
                result.baseline
            );
            // And per sink, the optimized arrival never regresses past the
            // adoption threshold's protection on the *critical* path; the
            // critical sink itself must never be worse.
            let crit = result.sinks.iter().find(|s| s.node == result.critical_sink);
            prop_assert!(crit.is_some());
        }
    }
}
