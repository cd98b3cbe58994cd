//! Seeded, replayable corpus of random RLC trees stratified by damping
//! regime.
//!
//! Regime steering uses the structure of the paper's eq. 29: at any node,
//! `ζ(i) = T_RC(i) / (2·√T_LC(i))`, where `T_RC` is linear in the section
//! resistances and `T_LC` does not involve them at all. Multiplying every
//! section resistance by a common factor α therefore multiplies ζ at
//! *every* node by α. A tree is first built with jittered placeholder
//! values, then all resistances are rescaled so the observed sink hits a
//! target ζ drawn from the requested regime's band.

use rlc_tree::{topology, NodeId, RlcSection, RlcTree};
use rlc_units::{Capacitance, Inductance, Resistance};

/// Target damping regime for a generated net (paper Section IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// ζ steered into `[1.3, 4.0]`: monotone two-real-pole responses.
    Overdamped,
    /// ζ steered into `[0.95, 1.05]`: the repeated-pole boundary.
    Critical,
    /// ζ steered into `[0.15, 0.85]`: ringing complex-pole responses.
    Underdamped,
}

impl Regime {
    /// All regimes, in stratification order.
    pub const ALL: [Regime; 3] = [Regime::Overdamped, Regime::Critical, Regime::Underdamped];

    /// The inclusive ζ band targets are drawn from.
    pub fn zeta_band(self) -> (f64, f64) {
        match self {
            Regime::Overdamped => (1.3, 4.0),
            Regime::Critical => (0.95, 1.05),
            Regime::Underdamped => (0.15, 0.85),
        }
    }

    /// Short lowercase name used in net names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Regime::Overdamped => "overdamped",
            Regime::Critical => "critical",
            Regime::Underdamped => "underdamped",
        }
    }
}

/// Topological family of a generated net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// A single chain of sections (paper Section V-D).
    Line,
    /// A balanced binary tree (paper Sections V-B/V-C).
    Balanced,
    /// Random attachment (uniformly random parent per section).
    Random,
}

impl Shape {
    /// All shapes, in stratification order.
    pub const ALL: [Shape; 3] = [Shape::Line, Shape::Balanced, Shape::Random];

    /// Short lowercase name used in net names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Line => "line",
            Shape::Balanced => "balanced",
            Shape::Random => "random",
        }
    }
}

/// Parameters of a corpus generation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSpec {
    /// Master seed; every net derives its own seed from this one, so any
    /// single net can be rebuilt from `(seed, index)` or its recorded
    /// per-net seed.
    pub seed: u64,
    /// Number of nets to generate.
    pub nets: usize,
    /// Upper bound on sections per net (lower bound is 3).
    pub max_sections: usize,
}

impl CorpusSpec {
    /// A spec with the given seed and the defaults used by the
    /// `conformance` binary: 201 nets of up to 24 sections.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            nets: 201,
            max_sections: 24,
        }
    }

    /// The stable trace id tagging every run of this spec: the FNV-1a
    /// hash (the workspace's content-addressing hash, cf.
    /// `rlc_serve::fnv1a_64`) of the spec parameters. Two reports carry
    /// the same trace id iff they came from the same corpus, so
    /// conformance runs can be correlated across serve telemetry,
    /// CI logs, and archived `rlc-verify/1` reports without ever
    /// depending on wall clocks or hosts.
    pub fn trace_id(&self) -> String {
        let text = format!(
            "rlc-verify/1:{}:{}:{}",
            self.seed, self.nets, self.max_sections
        );
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in text.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:#018x}")
    }
}

/// One generated net, with enough metadata to replay it exactly.
#[derive(Debug, Clone)]
pub struct CorpusNet {
    /// Human-readable name (`net017-underdamped-line`).
    pub name: String,
    /// The per-net seed: `build_net(seed, regime, max_sections)` rebuilds
    /// this exact tree.
    pub seed: u64,
    /// The regime the net was steered into.
    pub regime: Regime,
    /// The topological family.
    pub shape: Shape,
    /// The tree itself.
    pub tree: RlcTree,
    /// The observation sink: the leaf with the largest `T_LC` (the most
    /// inductance-dominated path, where the RLC effects are strongest).
    pub sink: NodeId,
    /// ζ at the sink after resistance rescaling (inside the regime band).
    pub zeta: f64,
}

/// A generated corpus.
#[derive(Debug, Clone)]
pub struct TreeCorpus {
    /// The generated nets, in index order.
    pub nets: Vec<CorpusNet>,
}

impl TreeCorpus {
    /// Generates `spec.nets` nets, cycling regimes (and, within the
    /// per-net seed, shapes) so the corpus is evenly stratified.
    pub fn generate(spec: &CorpusSpec) -> Self {
        assert!(spec.max_sections >= 3, "nets need at least 3 sections");
        let mut master = SplitMix64::new(spec.seed);
        let nets = (0..spec.nets)
            .map(|i| {
                let regime = Regime::ALL[i % Regime::ALL.len()];
                let mut net = build_net(master.next_u64(), regime, spec.max_sections);
                net.name = format!("net{i:03}-{}-{}", regime.name(), net.shape.name());
                net
            })
            .collect();
        Self { nets }
    }

    /// Number of nets.
    pub fn len(&self) -> usize {
        self.nets.len()
    }

    /// Returns `true` if the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }
}

/// Builds a single net from its per-net seed. Deterministic: the same
/// `(seed, regime, max_sections)` triple always yields the same tree —
/// this is the replay path recorded in conformance reports.
pub fn build_net(seed: u64, regime: Regime, max_sections: usize) -> CorpusNet {
    assert!(max_sections >= 3, "nets need at least 3 sections");
    let mut rng = SplitMix64::new(seed);
    let shape = Shape::ALL[(rng.next_u64() % Shape::ALL.len() as u64) as usize];
    let sections = 3 + (rng.next_u64() as usize) % (max_sections - 2);

    // Placeholder element values: representative deep-submicrometer ranges
    // (the absolute R scale is overwritten by the regime steering below).
    let r = |rng: &mut SplitMix64| Resistance::from_ohms(10.0 + 40.0 * rng.next_f64());
    let l = |rng: &mut SplitMix64| Inductance::from_nanohenries(0.5 + 4.5 * rng.next_f64());
    let c = |rng: &mut SplitMix64| Capacitance::from_picofarads(0.05 + 0.45 * rng.next_f64());

    let tree = match shape {
        Shape::Line => {
            let mut tree = RlcTree::with_capacity(sections);
            let mut node =
                tree.add_root_section(RlcSection::new(r(&mut rng), l(&mut rng), c(&mut rng)));
            for _ in 1..sections {
                node =
                    tree.add_section(node, RlcSection::new(r(&mut rng), l(&mut rng), c(&mut rng)));
            }
            tree
        }
        Shape::Balanced => {
            // Deepest balanced binary tree that fits in the section budget:
            // the largest `levels` with 2^levels − 1 ≤ sections.
            let levels = (usize::BITS - (sections + 1).leading_zeros()) as usize - 1;
            let levels = levels.max(2);
            topology::balanced_tree_with(levels, 2, |_| {
                RlcSection::new(r(&mut rng), l(&mut rng), c(&mut rng))
            })
        }
        Shape::Random => topology::random_tree(
            rng.next_u64(),
            sections,
            (Resistance::from_ohms(10.0), Resistance::from_ohms(50.0)),
            (
                Inductance::from_nanohenries(0.5),
                Inductance::from_nanohenries(5.0),
            ),
            (
                Capacitance::from_picofarads(0.05),
                Capacitance::from_picofarads(0.5),
            ),
        ),
    };

    // Observation sink: the leaf with the largest T_LC.
    let sums = rlc_moments::tree_sums(&tree);
    let sink = tree
        .leaves()
        .max_by(|&a, &b| {
            sums.lc(a)
                .as_seconds_squared()
                .partial_cmp(&sums.lc(b).as_seconds_squared())
                .expect("finite sums")
        })
        .expect("a non-empty tree has leaves");

    // Regime steering (paper eq. 29): ζ(sink) is linear in a global R
    // scale, so one multiplicative correction lands it on the target.
    let t_rc = sums.rc(sink).as_seconds();
    let t_lc = sums.lc(sink).as_seconds_squared();
    let zeta_now = t_rc / (2.0 * t_lc.sqrt());
    let (lo, hi) = regime.zeta_band();
    let target = lo + (hi - lo) * rng.next_f64();
    let alpha = target / zeta_now;
    let tree = tree.map_sections(|_, s| {
        RlcSection::new(
            Resistance::from_ohms(s.resistance().as_ohms() * alpha),
            s.inductance(),
            s.capacitance(),
        )
    });

    // Recompute from the scaled tree so the recorded ζ is the real one.
    let sums = rlc_moments::tree_sums(&tree);
    let zeta = sums.rc(sink).as_seconds() / (2.0 * sums.lc(sink).as_seconds_squared().sqrt());

    CorpusNet {
        name: format!("seed{seed:016x}-{}-{}", regime.name(), shape.name()),
        seed,
        regime,
        shape,
        tree,
        sink,
        zeta,
    }
}

/// Minimal SplitMix64 PRNG (Steele, Lea & Flood 2014) — the same generator
/// `rlc_tree::topology::random_tree` uses, kept self-contained so corpus
/// generation has no hidden coupling to tree internals. Shared with the
/// coupled-group generator in [`crate::coupled`].
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_net_is_reproducible() {
        let a = build_net(1234, Regime::Underdamped, 16);
        let b = build_net(1234, Regime::Underdamped, 16);
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.sink, b.sink);
        assert_eq!(a.zeta, b.zeta);
        let c = build_net(1235, Regime::Underdamped, 16);
        assert_ne!(a.tree, c.tree);
    }

    #[test]
    fn zeta_lands_in_the_regime_band() {
        for regime in Regime::ALL {
            let (lo, hi) = regime.zeta_band();
            for seed in 0..40u64 {
                let net = build_net(seed, regime, 20);
                assert!(
                    net.zeta >= lo * (1.0 - 1e-9) && net.zeta <= hi * (1.0 + 1e-9),
                    "{regime:?} seed {seed}: ζ = {} outside [{lo}, {hi}]",
                    net.zeta
                );
            }
        }
    }

    #[test]
    fn corpus_is_stratified_and_replayable() {
        let spec = CorpusSpec {
            seed: 42,
            nets: 18,
            max_sections: 12,
        };
        let corpus = TreeCorpus::generate(&spec);
        assert_eq!(corpus.len(), 18);
        let per_regime =
            Regime::ALL.map(|r| corpus.nets.iter().filter(|net| net.regime == r).count());
        assert_eq!(per_regime, [6, 6, 6]);

        // Any net is replayable from its recorded per-net seed.
        for net in &corpus.nets {
            let replay = build_net(net.seed, net.regime, spec.max_sections);
            assert_eq!(replay.tree, net.tree, "{} does not replay", net.name);
            assert_eq!(replay.sink, net.sink);
        }

        // The whole corpus is a pure function of the spec.
        let again = TreeCorpus::generate(&spec);
        for (a, b) in corpus.nets.iter().zip(&again.nets) {
            assert_eq!(a.tree, b.tree);
            assert_eq!(a.name, b.name);
        }
    }

    #[test]
    fn sections_stay_within_bounds() {
        for seed in 0..30u64 {
            let net = build_net(seed, Regime::Overdamped, 10);
            assert!(
                (3..=10).contains(&net.tree.len()),
                "seed {seed}: {} sections",
                net.tree.len()
            );
        }
    }
}
