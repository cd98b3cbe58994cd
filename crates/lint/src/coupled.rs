//! Static analysis for *coupled* decks (see [`rlc_tree::coupled`]).
//!
//! The coupled linter extends the single-net pipeline in two directions:
//!
//! 1. **Group scan** — a line pass that mirrors `CoupledGroup::parse`'s
//!    grammar: `.net` block declarations, group-level `K` coupling cards,
//!    and the rule that ordinary cards may not appear before the first
//!    block. Problems are collected instead of stopping at the first one.
//! 2. **Per-net reuse** — each net's chunk (its owned lines, blank-padded
//!    so diagnostics keep original deck line numbers) runs through the
//!    full single-net linter; node-anchored findings come back prefixed
//!    `net.node`, and unanchored per-net findings are anchored to the net
//!    name.
//!
//! Coupling references are then resolved against the declared nets
//! (`L401` unknown net, `L402` self-coupling, `L404` dangling node), and
//! per-net aggressor fan-in is tallied against
//! [`LintConfig::max_aggressors`] (`L405`, warning).
//!
//! The single-net agreement invariant extends verbatim: **a coupled deck
//! lints error-free iff [`CoupledGroup::parse`] accepts it** — enforced by
//! the coupled cases in `tests/parser_agreement.rs`.

use std::collections::BTreeMap;

use rlc_tree::coupled::CoupledGroup;
use rlc_tree::netlist::Netlist;
use rlc_units::Capacitance;

use crate::analyze::{is_nan_spelling, lint_deck_with, LintConfig};
use crate::report::{Diagnostic, LintReport};
use crate::rules::Rule;

/// Lints a coupled deck with the default [`LintConfig`].
pub fn lint_coupled_deck(deck: &str) -> LintReport {
    lint_coupled_deck_with(deck, &LintConfig::default())
}

/// One `.net` declaration; `name` is `None` for malformed declarations
/// (kept so subsequent cards still have an owner and do not cascade into
/// bogus "before any .net" findings).
struct NetDecl {
    name: Option<String>,
}

/// One `K` card whose syntax and value survived the card checks.
struct ScannedCoupling {
    line: usize,
    card: String,
    ref_a: String,
    ref_b: String,
}

/// Lints a coupled deck with an explicit configuration.
pub fn lint_coupled_deck_with(deck: &str, config: &LintConfig) -> LintReport {
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let lines: Vec<&str> = deck.lines().collect();
    // Which declared net (by index) owns each deck line; None = group-level.
    let mut owner: Vec<Option<usize>> = vec![None; lines.len()];
    let mut decls: Vec<NetDecl> = Vec::new();
    let mut couplings: Vec<ScannedCoupling> = Vec::new();
    let mut current: Option<usize> = None;

    for (idx, raw) in lines.iter().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('*') || line.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let card = fields[0];
        let lower = card.to_ascii_lowercase();
        if lower == ".end" {
            break;
        }
        if lower == ".net" {
            let name = scan_net_card(&mut diagnostics, &decls, &fields, lineno);
            decls.push(NetDecl { name });
            current = Some(decls.len() - 1);
            continue;
        }
        if card.chars().next().map(|c| c.to_ascii_uppercase()) == Some('K')
            && !lower.starts_with('.')
        {
            if let Some(scanned) = scan_coupling_card(&mut diagnostics, card, &fields, lineno) {
                couplings.push(scanned);
            }
            continue;
        }
        match current {
            Some(net) => owner[idx] = Some(net),
            None => diagnostics.push(Diagnostic::line(
                Rule::MalformedCard,
                lineno,
                format!("card {card:?} appears before any .net block"),
            )),
        }
    }

    if decls.is_empty() {
        diagnostics.push(Diagnostic::deck(
            Rule::EmptyDeck,
            "coupled deck has no .net blocks".to_owned(),
        ));
    }

    // Each net's chunk goes through the full single-net linter; the parsed
    // netlists double as the node-resolution context for `K` references.
    // For duplicate names only the first declaration resolves, mirroring
    // nothing in the parser (which rejects duplicates outright) but keeping
    // the lint pass total.
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    let mut netlists: Vec<Option<Netlist>> = Vec::with_capacity(decls.len());
    for (net_idx, decl) in decls.iter().enumerate() {
        let mut chunk = String::with_capacity(deck.len());
        for (idx, raw) in lines.iter().enumerate() {
            if owner[idx] == Some(net_idx) {
                chunk.push_str(raw);
            }
            chunk.push('\n');
        }
        let label = match &decl.name {
            Some(name) => {
                index.entry(name.as_str()).or_insert(net_idx);
                name.clone()
            }
            None => format!("net#{}", net_idx + 1),
        };
        for d in lint_deck_with(&chunk, config).diagnostics() {
            let mut d = d.clone();
            match &d.node {
                Some(node) => d.node = Some(format!("{label}.{node}")),
                None if d.line.is_none() => d.node = Some(label.clone()),
                None => {}
            }
            diagnostics.push(d);
        }
        netlists.push(Netlist::parse(&chunk).ok());
    }

    // Coupling-reference resolution (L401/L402/L404) and aggressor tally.
    let mut partners: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for c in &couplings {
        let a = resolve_end(&mut diagnostics, &index, &netlists, c, &c.ref_a);
        let b = resolve_end(&mut diagnostics, &index, &netlists, c, &c.ref_b);
        let (Some(a), Some(b)) = (a, b) else {
            continue;
        };
        if a == b {
            diagnostics.push(Diagnostic::line(
                Rule::SelfCoupling,
                c.line,
                format!(
                    "coupling {} joins net {:?} to itself",
                    c.card,
                    decls[a].name.as_deref().unwrap_or("?")
                ),
            ));
            continue;
        }
        for (this, far) in [(a, b), (b, a)] {
            let list = partners.entry(this).or_default();
            if !list.contains(&far) {
                list.push(far);
            }
        }
    }
    for (net_idx, decl) in decls.iter().enumerate() {
        let Some(name) = &decl.name else { continue };
        let aggressors = partners.get(&net_idx).map_or(0, Vec::len);
        if aggressors > config.max_aggressors {
            diagnostics.push(Diagnostic::node(
                Rule::TooManyAggressors,
                name.clone(),
                format!(
                    "net {name:?} is coupled to {aggressors} distinct aggressors \
                     (limit {}); the decoupled Miller window compounds pessimism \
                     per aggressor",
                    config.max_aggressors
                ),
            ));
        }
    }

    LintReport::new(diagnostics)
}

/// Validates one `.net` card, mirroring `CoupledGroup::parse`; returns the
/// declared name when usable.
fn scan_net_card(
    diagnostics: &mut Vec<Diagnostic>,
    decls: &[NetDecl],
    fields: &[&str],
    lineno: usize,
) -> Option<String> {
    let Some(name) = fields.get(1) else {
        diagnostics.push(Diagnostic::line(
            Rule::MalformedCard,
            lineno,
            ".net requires a net name".to_owned(),
        ));
        return None;
    };
    if fields.len() > 2 {
        diagnostics.push(Diagnostic::line(
            Rule::MalformedCard,
            lineno,
            format!(".net takes one name, got {} fields", fields.len() - 1),
        ));
        return None;
    }
    if name.contains('.') {
        diagnostics.push(Diagnostic::line(
            Rule::MalformedCard,
            lineno,
            format!("net name {name:?} may not contain '.'"),
        ));
        return None;
    }
    if decls.iter().any(|d| d.name.as_deref() == Some(name)) {
        diagnostics.push(Diagnostic::line(
            Rule::DuplicateNet,
            lineno,
            format!("a .net block named {name:?} was already declared"),
        ));
        // Keep the name: its cards still belong to *a* block, and the
        // parser error is already recorded.
    }
    Some((*name).to_owned())
}

/// Validates one `K` card's shape and value, mirroring
/// `CoupledGroup::parse`; returns the card for reference resolution when
/// its syntax and value are usable.
fn scan_coupling_card(
    diagnostics: &mut Vec<Diagnostic>,
    card: &str,
    fields: &[&str],
    lineno: usize,
) -> Option<ScannedCoupling> {
    if fields.len() != 4 {
        diagnostics.push(Diagnostic::line(
            Rule::MalformedCard,
            lineno,
            format!(
                "expected `K<label> <net>.<node> <net>.<node> <value>`, got {} fields",
                fields.len()
            ),
        ));
        return None;
    }
    let mut refs_ok = true;
    for reference in [fields[1], fields[2]] {
        if !reference.contains('.') {
            diagnostics.push(Diagnostic::line(
                Rule::MalformedCard,
                lineno,
                format!("coupling reference {reference:?} must be `<net>.<node>`"),
            ));
            refs_ok = false;
        }
    }
    let value = fields[3];
    let value_ok = match value.parse::<Capacitance>() {
        Ok(c) if c.as_farads().is_finite() && c.as_farads() > 0.0 => true,
        Ok(_) => {
            diagnostics.push(Diagnostic::line(
                Rule::NonPositiveCouplingCap,
                lineno,
                format!("coupling capacitor {card} value {value:?} must be finite and positive"),
            ));
            false
        }
        Err(err)
            if err.kind() == rlc_units::QuantityErrorKind::NonFinite || is_nan_spelling(value) =>
        {
            diagnostics.push(Diagnostic::line(
                Rule::NonPositiveCouplingCap,
                lineno,
                format!("coupling capacitor {card} value {value:?} is not finite"),
            ));
            false
        }
        Err(err) => {
            diagnostics.push(Diagnostic::line(
                Rule::MalformedCard,
                lineno,
                format!("bad value {value:?}: {err}"),
            ));
            false
        }
    };
    (refs_ok && value_ok).then(|| ScannedCoupling {
        line: lineno,
        card: card.to_owned(),
        ref_a: fields[1].to_owned(),
        ref_b: fields[2].to_owned(),
    })
}

/// Resolves one `<net>.<node>` reference, pushing `L401`/`L404` findings.
/// Returns the net index when the far side is at least net-resolvable, so
/// self-coupling and fan-in checks can proceed; node resolution is skipped
/// (without complaint) for nets whose own chunk failed to parse — the
/// chunk's findings already fail the deck.
fn resolve_end(
    diagnostics: &mut Vec<Diagnostic>,
    index: &BTreeMap<&str, usize>,
    netlists: &[Option<Netlist>],
    c: &ScannedCoupling,
    reference: &str,
) -> Option<usize> {
    let (net_name, node_name) = reference.split_once('.').unwrap_or((reference, ""));
    let Some(&net) = index.get(net_name) else {
        diagnostics.push(Diagnostic::line(
            Rule::UnknownCouplingNet,
            c.line,
            format!("coupling {} references unknown net {net_name:?}", c.card),
        ));
        return None;
    };
    if let Some(netlist) = &netlists[net] {
        if netlist.node(node_name).is_none() {
            diagnostics.push(Diagnostic::line(
                Rule::DanglingCouplingNode,
                c.line,
                format!(
                    "coupling {} references node {node_name:?} which is not a \
                     section node of net {net_name:?}",
                    c.card
                ),
            ));
        }
    }
    Some(net)
}

/// Lints an in-memory group via its canonical deck, so batch pre-checks
/// over already-parsed groups share one code path with deck linting. A
/// parsed group is by construction in the parser's image, so the report is
/// always error-free; warnings (fan-in, model regime) still apply.
pub fn lint_coupled_group(group: &CoupledGroup) -> LintReport {
    lint_coupled_deck(&group.canonical_deck())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    const CLEAN: &str = "\
.net victim
R1 in n1 25
L1 n1 n2 2n
C1 n2 0 0.5p
.net agg
R1 in m1 40
C1 m1 0 0.3p
K1 victim.n2 agg.m1 0.1p
.end
";

    #[test]
    fn clean_coupled_deck_is_clean() {
        let report = lint_coupled_deck(CLEAN);
        assert!(report.is_clean(), "{report:?}");
        assert!(CoupledGroup::parse(CLEAN).is_ok());
    }

    #[test]
    fn unknown_net_fires_l401() {
        let deck = ".net a\nR1 in n1 10\nC1 n1 0 1p\nK1 a.n1 ghost.n1 0.1p\n";
        let report = lint_coupled_deck(deck);
        assert!(report.codes().contains(&"L401"), "{report:?}");
        assert!(!report.is_clean());
        assert!(CoupledGroup::parse(deck).is_err());
    }

    #[test]
    fn self_coupling_fires_l402() {
        let deck = "\
.net a
R1 in n1 10
C1 n1 0 1p
R2 n1 n2 10
C2 n2 0 1p
K1 a.n1 a.n2 0.1p
";
        let report = lint_coupled_deck(deck);
        assert!(report.codes().contains(&"L402"), "{report:?}");
        assert!(CoupledGroup::parse(deck).is_err());
    }

    #[test]
    fn non_positive_coupling_caps_fire_l403() {
        for value in ["0", "-0.1p", "1e999", "NaN"] {
            let deck = format!(
                ".net a\nR1 in n1 10\nC1 n1 0 1p\n.net b\nR1 in m1 20\nC1 m1 0 1p\nK1 a.n1 b.m1 {value}\n"
            );
            let report = lint_coupled_deck(&deck);
            assert!(
                report.codes().contains(&"L403"),
                "value {value:?}: {report:?}"
            );
            assert!(CoupledGroup::parse(&deck).is_err());
        }
    }

    #[test]
    fn dangling_node_and_input_refs_fire_l404() {
        for node in ["n9", "in"] {
            let deck = format!(
                ".net a\nR1 in n1 10\nC1 n1 0 1p\n.net b\nR1 in m1 20\nC1 m1 0 1p\nK1 a.{node} b.m1 0.1p\n"
            );
            let report = lint_coupled_deck(&deck);
            assert!(report.codes().contains(&"L404"), "{node}: {report:?}");
            assert!(CoupledGroup::parse(&deck).is_err());
        }
    }

    #[test]
    fn wide_fan_in_warns_l405_without_blocking() {
        let mut deck = String::from(".net victim\nR1 in n1 10\nC1 n1 0 1p\n");
        for i in 0..3 {
            deck.push_str(&format!(".net agg{i}\nR1 in m1 10\nC1 m1 0 1p\n"));
            deck.push_str(&format!("K{i} victim.n1 agg{i}.m1 0.05p\n"));
        }
        let tight = LintConfig {
            max_aggressors: 2,
            ..LintConfig::default()
        };
        let report = lint_coupled_deck_with(&deck, &tight);
        assert!(report.codes().contains(&"L405"), "{report:?}");
        assert!(report.is_clean(), "L405 is a warning: {report:?}");
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == Rule::TooManyAggressors)
            .expect("has the finding");
        assert_eq!(diag.rule.severity(), Severity::Warning);
        assert_eq!(diag.node.as_deref(), Some("victim"));
        assert!(CoupledGroup::parse(&deck).is_ok());
        // The default limit (8) leaves the same deck spotless of L405.
        assert!(!lint_coupled_deck(&deck).codes().contains(&"L405"));
    }

    #[test]
    fn duplicate_net_fires_l406() {
        let deck = ".net a\nR1 in n1 10\nC1 n1 0 1p\n.net a\nR1 in n1 10\nC1 n1 0 1p\n";
        let report = lint_coupled_deck(deck);
        assert!(report.codes().contains(&"L406"), "{report:?}");
        assert!(CoupledGroup::parse(deck).is_err());
    }

    #[test]
    fn card_before_net_and_malformed_blocks_are_errors() {
        let report = lint_coupled_deck("R1 in n1 10\n.net a\nR1 in n1 10\nC1 n1 0 1p\n");
        assert!(report.codes().contains(&"L101"), "{report:?}");
        for deck in [
            ".net\nR1 in n1 10\n",
            ".net a b\nR1 in n1 10\n",
            ".net a.b\nR1 in n1 10\n",
        ] {
            let report = lint_coupled_deck(deck);
            assert!(!report.is_clean(), "{deck:?}: {report:?}");
            assert!(CoupledGroup::parse(deck).is_err());
        }
    }

    #[test]
    fn per_net_findings_carry_net_prefixed_anchors_and_deck_lines() {
        // Line 5 is the bad card; the ζ warning anchors to agg's sink.
        let deck = "\
.net a
R1 in n1 10
C1 n1 0 1p
.net b
R1 in m1 bogus
C1 m1 0 1p
";
        let report = lint_coupled_deck(deck);
        let bad = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == Rule::MalformedCard)
            .expect("chunk error surfaces");
        assert_eq!(bad.line, Some(5));
        assert!(CoupledGroup::parse(deck).is_err());

        let underdamped = "\
.net a
R1 in n1 25
C1 n1 0 0.5p
L2 n1 n2 5n
C2 n2 0 1p
";
        let report = lint_coupled_deck(underdamped);
        assert!(report.is_clean());
        let finding = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == Rule::UnderdampedSink)
            .expect("model tier runs per net");
        assert_eq!(finding.node.as_deref(), Some("a.n2"));
    }

    #[test]
    fn empty_coupled_deck_fires_l001() {
        let report = lint_coupled_deck("* nothing\n");
        assert_eq!(report.codes(), vec!["L001"]);
        assert!(CoupledGroup::parse("* nothing\n").is_err());
    }

    #[test]
    fn parsed_group_lints_error_free() {
        let group = CoupledGroup::parse(CLEAN).expect("parses");
        let report = lint_coupled_group(&group);
        assert!(report.is_clean(), "{report:?}");
    }
}
