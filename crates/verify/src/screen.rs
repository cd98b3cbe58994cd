//! Corpus screening through the `rlc-lint` static analyzer.
//!
//! [`TreeCorpus`](crate::TreeCorpus) promises analyzable nets;
//! [`rlc_lint`] is an *independent* implementation of what "analyzable"
//! means, so screening every generated tree is a differential check on
//! the generator itself. Screening also cross-checks the regime steering
//! against the lint catalog: a net whose recorded sink ζ sits below the
//! analyzer's default threshold (0.5, paper Section V) must fire `L201`.
//!
//! The `conformance` binary runs this before the oracle pass and fails
//! the run on any violation.

use rlc_lint::{lint_tree, LintReport};

use crate::corpus::TreeCorpus;

/// One screened net: its lint report next to the generator's metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenedNet {
    /// The corpus net name (`net017-underdamped-line`).
    pub name: String,
    /// ζ at the generator's observation sink.
    pub zeta: f64,
    /// The net's lint report.
    pub report: LintReport,
}

/// The outcome of screening one corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenReport {
    /// One entry per corpus net, in corpus order.
    pub nets: Vec<ScreenedNet>,
    /// Contract violations in prose (empty on success).
    pub violations: Vec<String>,
}

impl ScreenReport {
    /// `true` when every net lints error-free and every sub-threshold
    /// net carries its `L201` warning.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Nets with at least one warning-severity finding (in a healthy
    /// corpus these are exactly the strongly underdamped nets).
    pub fn warned(&self) -> usize {
        self.nets.iter().filter(|n| n.report.warnings() > 0).count()
    }

    /// Nets with no findings at all.
    pub fn spotless(&self) -> usize {
        self.nets.iter().filter(|n| n.report.is_spotless()).count()
    }
}

/// Lints every net of `corpus` and checks two contracts:
///
/// 1. generated nets lint **error-free** — the generator never emits a
///    tree the pipeline would reject;
/// 2. a net whose recorded sink ζ is below 0.5 fires `L201` (the lint
///    threshold and the corpus regime bands agree on what "strongly
///    underdamped" means).
pub fn screen_corpus(corpus: &TreeCorpus) -> ScreenReport {
    let mut nets = Vec::with_capacity(corpus.len());
    let mut violations = Vec::new();
    for net in &corpus.nets {
        let report = lint_tree(&net.tree);
        if !report.is_clean() {
            violations.push(format!(
                "{}: generated net lints with errors: {:?}",
                net.name,
                report.codes()
            ));
        }
        // The recorded ζ is one sink's; the minimum over all sinks can
        // only be lower, so a sub-threshold recording must warn.
        if net.zeta < 0.5 && !report.codes().contains(&"L201") {
            violations.push(format!(
                "{}: recorded sink ζ = {:.3} < 0.5 but L201 did not fire",
                net.name, net.zeta
            ));
        }
        nets.push(ScreenedNet {
            name: net.name.clone(),
            zeta: net.zeta,
            report,
        });
    }
    ScreenReport { nets, violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusSpec;

    #[test]
    fn generated_corpora_pass_the_screen() {
        let corpus = TreeCorpus::generate(&CorpusSpec {
            seed: 42,
            nets: 30,
            max_sections: 16,
        });
        let screen = screen_corpus(&corpus);
        assert!(screen.passed(), "{:?}", screen.violations);
        assert_eq!(screen.nets.len(), 30);
        // A third of the corpus is steered into ζ ∈ [0.15, 0.85]; the
        // sub-0.5 slice of that band must surface as L201 warnings.
        assert!(screen.warned() > 0, "no underdamped net warned");
        for net in &screen.nets {
            assert!(net.report.is_clean(), "{}: {:?}", net.name, net.report);
        }
    }

    #[test]
    fn screening_is_deterministic() {
        let spec = CorpusSpec {
            seed: 7,
            nets: 12,
            max_sections: 12,
        };
        let a = screen_corpus(&TreeCorpus::generate(&spec));
        let b = screen_corpus(&TreeCorpus::generate(&spec));
        assert_eq!(a, b);
    }
}
