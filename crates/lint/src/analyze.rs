//! The parse-to-diagnostics pipeline.
//!
//! Linting runs in two stages:
//!
//! 1. **Scan** — a line-by-line pass over the deck text that mirrors
//!    `Netlist::parse`'s grammar but *collects* problems instead of
//!    stopping at the first one. Card-level findings carry the 1-based
//!    line number of the offending card. If the cards are individually
//!    well-formed, the same pass then checks the element graph (input
//!    node, cycles, reachability, capacitor placement) exactly the way
//!    `Netlist::assemble` would.
//! 2. **Model** — only when the scan found no errors (so the deck is in
//!    the parser's image), the deck is parsed and the eq. 29/30 tree sums
//!    are computed once in O(n) via [`rlc_moments::tree_sums`]. Per-sink
//!    damping factors `ζ = T_RC/(2√T_LC)` drive the model-regime rules;
//!    findings at this stage carry the original node names.
//!
//! The invariant linking the two stages: **a deck lints error-free if and
//! only if `Netlist::parse` accepts it** (warnings and infos never block
//! parsing). `tests/parser_agreement.rs` enforces this property.

use std::collections::BTreeMap;

use rlc_tree::netlist::Netlist;
use rlc_tree::{RlcTree, TreeError};
use rlc_units::{Capacitance, Inductance, QuantityErrorKind, Resistance};

use crate::report::{Diagnostic, LintReport};
use crate::rules::Rule;

/// Tunable thresholds for the physical and model-regime tiers.
///
/// The defaults encode the paper's applicability envelope: Section V bounds
/// the two-pole model's delay error at 25% across moderately damped
/// regimes, and the fit visibly decays once ζ drops below ~0.5 (strong
/// ringing); deep-RC nets with ζ ≥ 10 everywhere are first-order for all
/// practical purposes. The magnitude ranges are generous envelopes of
/// on-chip interconnect values (the paper's examples use Ω, nH, pF scales).
#[derive(Debug, Clone, PartialEq)]
pub struct LintConfig {
    /// Warn (`L201`) when a sink's ζ falls below this. Default `0.5`.
    pub zeta_warn_below: f64,
    /// Info (`L202`) when every sink's ζ is at or above this. Default `10.0`.
    pub zeta_info_above: f64,
    /// Plausible resistance magnitudes in Ω. Default `1e-3 ..= 1e5`.
    pub resistance_ohms: (f64, f64),
    /// Plausible inductance magnitudes in H. Default `1e-15 ..= 1e-6`.
    pub inductance_henries: (f64, f64),
    /// Plausible capacitance magnitudes in F. Default `1e-18 ..= 1e-9`.
    pub capacitance_farads: (f64, f64),
    /// Warn (`L405`) when a net of a coupled deck has more distinct
    /// aggressors than this. The decoupled Miller analysis compounds its
    /// per-aggressor pessimism, so wide fan-in windows deserve scrutiny.
    /// Default `8`.
    pub max_aggressors: usize,
}

impl Default for LintConfig {
    fn default() -> Self {
        Self {
            zeta_warn_below: 0.5,
            zeta_info_above: 10.0,
            resistance_ohms: (1e-3, 1e5),
            inductance_henries: (1e-15, 1e-6),
            capacitance_farads: (1e-18, 1e-9),
            max_aggressors: 8,
        }
    }
}

/// Lints a deck with the default [`LintConfig`].
pub fn lint_deck(deck: &str) -> LintReport {
    lint_deck_with(deck, &LintConfig::default())
}

/// Lints a deck with an explicit configuration.
pub fn lint_deck_with(deck: &str, config: &LintConfig) -> LintReport {
    let mut scan = Scan::run(deck, config);
    if scan
        .diagnostics
        .iter()
        .all(|d| d.rule.severity() != crate::Severity::Error)
    {
        match Netlist::parse(deck) {
            Ok(netlist) => {
                model_stage(&mut scan.diagnostics, &netlist, config);
            }
            Err(err) => {
                // The scanner's grammar should match the parser exactly;
                // if the parser still objects, surface its complaint as a
                // diagnostic rather than diverging from it.
                scan.diagnostics.push(parser_fallback(&err));
            }
        }
    }
    LintReport::new(scan.diagnostics)
}

/// Lints an in-memory tree (no deck text, so no line anchors) with the
/// default config: physical and model-regime tiers only, node findings
/// named by canonical index (`n0`, `n1`, …) as in
/// [`RlcTree::canonical_deck`].
pub fn lint_tree(tree: &RlcTree) -> LintReport {
    lint_tree_with(tree, &LintConfig::default())
}

/// Lints an in-memory tree with an explicit configuration.
pub fn lint_tree_with(tree: &RlcTree, config: &LintConfig) -> LintReport {
    let mut diagnostics = Vec::new();
    if tree.is_empty() {
        diagnostics.push(Diagnostic::deck(
            Rule::EmptyDeck,
            "tree has no sections".to_owned(),
        ));
        return LintReport::new(diagnostics);
    }
    let names: Vec<String> = tree
        .node_ids()
        .map(|id| format!("n{}", id.index()))
        .collect();
    tree_rules(&mut diagnostics, tree, &names, config);
    LintReport::new(diagnostics)
}

/// True when the deck uses the coupled-group grammar: any non-comment
/// line opening with a `.net` card. Mirrors what `CoupledGroup::parse`
/// would treat as a block declaration, so file-level routing agrees with
/// the parser the report predicts.
pub(crate) fn deck_is_coupled(deck: &str) -> bool {
    deck.lines().any(|line| {
        let line = line.trim();
        !line.starts_with('*')
            && line
                .split_whitespace()
                .next()
                .is_some_and(|card| card.eq_ignore_ascii_case(".net"))
    })
}

/// Reads and lints a deck file. An unreadable file yields a report with a
/// single [`Rule::UnreadableDeck`] error instead of an `io::Error`, so
/// batch callers can fold I/O problems into the same report stream.
/// Decks using the coupled-group grammar (`.net` blocks, see
/// [`crate::lint_coupled_deck`]) are routed to the coupled analyzer, and
/// decks carrying synthesis directives (`.lib`/`.use`/`.driver`/
/// `.require`, see [`crate::lint_synth_deck`]) to the synthesis analyzer,
/// so directory sweeps may mix single-net, coupled, and synthesis decks
/// freely.
pub fn lint_path(path: &std::path::Path, config: &LintConfig) -> LintReport {
    match std::fs::read_to_string(path) {
        Ok(deck) if deck_is_coupled(&deck) => crate::coupled::lint_coupled_deck_with(&deck, config),
        Ok(deck) if rlc_tree::synth::is_synth_deck(&deck) => {
            crate::synth::lint_synth_deck_with(&deck, config)
        }
        Ok(deck) => lint_deck_with(&deck, config),
        Err(err) => LintReport::new(vec![Diagnostic::deck(
            Rule::UnreadableDeck,
            format!("cannot read deck: {err}"),
        )]),
    }
}

/// Maps a residual parser error (stage-2 defence) onto the closest rule.
fn parser_fallback(err: &TreeError) -> Diagnostic {
    match err {
        TreeError::ParseNetlist { line, message } => {
            Diagnostic::line(Rule::MalformedCard, *line, message.clone())
        }
        other => Diagnostic::deck(Rule::Unreachable, other.to_string()),
    }
}

/// One series card that survived the value checks.
struct ScannedElement {
    label: String,
    a: String,
    b: String,
    line: usize,
}

/// One shunt-capacitor card that survived the value checks.
struct ScannedShunt {
    label: String,
    node: String,
    line: usize,
}

struct Scan {
    diagnostics: Vec<Diagnostic>,
}

impl Scan {
    fn run(deck: &str, config: &LintConfig) -> Scan {
        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        let mut series: Vec<ScannedElement> = Vec::new();
        let mut shunts: Vec<ScannedShunt> = Vec::new();
        let mut input: Option<(String, usize)> = None;
        // label -> first defining line, insertion order irrelevant (lookup only).
        let mut labels: BTreeMap<String, usize> = BTreeMap::new();
        let mut card_errors = false;

        for (lineno, raw) in deck.lines().enumerate() {
            let line = raw.trim();
            let lineno = lineno + 1;
            if line.is_empty() || line.starts_with('*') || line.starts_with(';') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let card = fields[0];
            let lower = card.to_ascii_lowercase();
            if lower == ".end" {
                break;
            }
            if lower == ".input" {
                match fields.get(1) {
                    Some(node) => {
                        if let Some((prev, prev_line)) = &input {
                            diagnostics.push(Diagnostic::line(
                                Rule::DuplicateInput,
                                lineno,
                                format!(
                                    ".input {node} overrides .input {prev} from line {prev_line}"
                                ),
                            ));
                        }
                        input = Some(((*node).to_owned(), lineno));
                    }
                    None => {
                        card_errors = true;
                        diagnostics.push(Diagnostic::line(
                            Rule::MalformedCard,
                            lineno,
                            ".input requires a node name".to_owned(),
                        ));
                    }
                }
                continue;
            }
            if lower.starts_with('.') {
                // Unknown directives are ignored, like `Netlist::parse`.
                continue;
            }
            let kind = card.chars().next().map(|c| c.to_ascii_uppercase());
            if !matches!(kind, Some('R') | Some('L') | Some('C')) {
                card_errors = true;
                diagnostics.push(Diagnostic::line(
                    Rule::MalformedCard,
                    lineno,
                    format!("unsupported card {card:?}"),
                ));
                continue;
            }
            if fields.len() != 4 {
                card_errors = true;
                diagnostics.push(Diagnostic::line(
                    Rule::MalformedCard,
                    lineno,
                    format!(
                        "expected `<name> <node> <node> <value>`, got {} fields",
                        fields.len()
                    ),
                ));
                continue;
            }
            if let Some(&first_line) = labels.get(card) {
                diagnostics.push(Diagnostic::line(
                    Rule::DuplicateLabel,
                    lineno,
                    format!("card label {card} already used on line {first_line}"),
                ));
            } else {
                labels.insert(card.to_owned(), lineno);
            }
            let (n1, n2, value) = (fields[1], fields[2], fields[3]);
            let value_ok = match kind {
                Some('R') => check_value::<Resistance>(
                    &mut diagnostics,
                    card,
                    value,
                    lineno,
                    "Ω",
                    config.resistance_ohms,
                    |r| r.as_ohms(),
                ),
                Some('L') => check_value::<Inductance>(
                    &mut diagnostics,
                    card,
                    value,
                    lineno,
                    "H",
                    config.inductance_henries,
                    |l| l.as_henries(),
                ),
                _ => check_value::<Capacitance>(
                    &mut diagnostics,
                    card,
                    value,
                    lineno,
                    "F",
                    config.capacitance_farads,
                    |c| c.as_farads(),
                ),
            };
            if !value_ok {
                card_errors = true;
                continue;
            }
            if matches!(kind, Some('R') | Some('L')) {
                if is_ground(n1) || is_ground(n2) {
                    card_errors = true;
                    diagnostics.push(Diagnostic::line(
                        Rule::GroundedSeries,
                        lineno,
                        format!("series element {card} may not connect to ground in a tree"),
                    ));
                    continue;
                }
                series.push(ScannedElement {
                    label: card.to_owned(),
                    a: n1.to_owned(),
                    b: n2.to_owned(),
                    line: lineno,
                });
            } else {
                let node = match (is_ground(n1), is_ground(n2)) {
                    (false, true) => n1,
                    (true, false) => n2,
                    _ => {
                        card_errors = true;
                        diagnostics.push(Diagnostic::line(
                            Rule::FloatingCapacitor,
                            lineno,
                            format!("capacitor {card} must connect a node to ground"),
                        ));
                        continue;
                    }
                };
                shunts.push(ScannedShunt {
                    label: card.to_owned(),
                    node: node.to_owned(),
                    line: lineno,
                });
            }
        }

        // Graph checks only make sense over a fully scanned card set: a
        // malformed card already fails the deck, and reporting the holes it
        // leaves in the graph would be cascade noise.
        if !card_errors {
            graph_stage(&mut diagnostics, &series, &shunts, input);
        }
        Scan { diagnostics }
    }
}

/// Parses and range-checks one element value, pushing diagnostics as
/// needed. Returns `false` when the card must be dropped from the graph
/// (syntax error, non-finite, or negative).
fn check_value<T: std::str::FromStr<Err = rlc_units::ParseQuantityError>>(
    diagnostics: &mut Vec<Diagnostic>,
    card: &str,
    raw: &str,
    line: usize,
    unit: &str,
    plausible: (f64, f64),
    base: impl Fn(T) -> f64,
) -> bool {
    let value = match raw.parse::<T>() {
        Ok(v) => base(v),
        Err(err) if err.kind() == QuantityErrorKind::NonFinite => {
            diagnostics.push(Diagnostic::line(
                Rule::BadValue,
                line,
                format!("element {card} value {raw:?} is not finite"),
            ));
            return false;
        }
        Err(_) if is_nan_spelling(raw) => {
            // "NaN" never parses as a number (the numeric head is empty),
            // but the author clearly meant a value, not a typo: file it as
            // a value error so fault classes map one-to-one onto codes.
            diagnostics.push(Diagnostic::line(
                Rule::BadValue,
                line,
                format!("element {card} value {raw:?} is not finite"),
            ));
            return false;
        }
        Err(err) => {
            diagnostics.push(Diagnostic::line(
                Rule::MalformedCard,
                line,
                format!("bad value {raw:?}: {err}"),
            ));
            return false;
        }
    };
    if !value.is_finite() || value < 0.0 {
        diagnostics.push(Diagnostic::line(
            Rule::BadValue,
            line,
            format!("element {card} value {raw:?} must be finite and non-negative"),
        ));
        return false;
    }
    let (lo, hi) = plausible;
    if value > 0.0 && !(lo..=hi).contains(&value) {
        diagnostics.push(Diagnostic::line(
            Rule::ImplausibleValue,
            line,
            format!(
                "element {card} value {value:e} {unit} is outside the plausible on-chip range [{lo:e}, {hi:e}] {unit}"
            ),
        ));
    }
    true
}

/// The spellings of a non-finite float literal that `f64`'s grammar would
/// accept but the quantity grammar rejects at the syntax stage.
pub(crate) fn is_nan_spelling(raw: &str) -> bool {
    let head = raw.trim().trim_start_matches(['-', '+']);
    let head = head.get(..3).unwrap_or(head);
    head.eq_ignore_ascii_case("nan") || head.eq_ignore_ascii_case("inf")
}

/// Structural checks over the scanned element graph, mirroring
/// `Netlist::assemble`: input resolution, DFS reachability, cycle
/// detection, capacitor placement.
fn graph_stage(
    diagnostics: &mut Vec<Diagnostic>,
    series: &[ScannedElement],
    shunts: &[ScannedShunt],
    input: Option<(String, usize)>,
) {
    if series.is_empty() {
        diagnostics.push(Diagnostic::deck(
            Rule::EmptyDeck,
            "netlist has no series elements".to_owned(),
        ));
        return;
    }
    let mut adj: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, el) in series.iter().enumerate() {
        adj.entry(&el.a).or_default().push(idx);
        adj.entry(&el.b).or_default().push(idx);
    }
    let input_name = match &input {
        Some((name, line)) => {
            if !adj.contains_key(name.as_str()) {
                diagnostics.push(Diagnostic::line(
                    Rule::NoInput,
                    *line,
                    format!("input node {name:?} does not appear in any series element"),
                ));
                return;
            }
            name.clone()
        }
        None if adj.contains_key("in") => "in".to_owned(),
        None => {
            diagnostics.push(Diagnostic::deck(
                Rule::NoInput,
                "no .input directive and no node named \"in\"".to_owned(),
            ));
            return;
        }
    };

    // DFS in the exact order `Netlist::assemble` uses, so the first cycle
    // reported here is the one the parser would report.
    let mut used = vec![false; series.len()];
    let mut visited: BTreeMap<&str, ()> = BTreeMap::new();
    visited.insert(input_name.as_str(), ());
    let mut stack: Vec<&str> = vec![input_name.as_str()];
    while let Some(node) = stack.pop() {
        for &edge in adj.get(node).into_iter().flatten() {
            if used[edge] {
                continue;
            }
            used[edge] = true;
            let el = &series[edge];
            let far: &str = if el.a == node { &el.b } else { &el.a };
            if visited.contains_key(far) {
                diagnostics.push(Diagnostic::line(
                    Rule::Cycle,
                    el.line,
                    format!("element {} closes a cycle through node {far:?}", el.label),
                ));
                continue;
            }
            visited.insert(far, ());
            stack.push(far);
        }
    }
    for (idx, el) in series.iter().enumerate() {
        if !used[idx] {
            diagnostics.push(Diagnostic::line(
                Rule::Unreachable,
                el.line,
                format!(
                    "element {} between {:?} and {:?} is not reachable from the input",
                    el.label, el.a, el.b
                ),
            ));
        }
    }
    for shunt in shunts {
        if shunt.node == input_name || !visited.contains_key(shunt.node.as_str()) {
            diagnostics.push(Diagnostic::line(
                Rule::OrphanCapacitor,
                shunt.line,
                format!(
                    "capacitor {} at node {:?} which is the input or not in the tree",
                    shunt.label, shunt.node
                ),
            ));
        }
    }
}

/// Physical and model-regime rules over the parsed tree, with findings
/// anchored to the original node names.
fn model_stage(diagnostics: &mut Vec<Diagnostic>, netlist: &Netlist, config: &LintConfig) {
    let tree = netlist.tree();
    let mut names: Vec<String> = tree
        .node_ids()
        .map(|id| format!("n{}", id.index()))
        .collect();
    for (name, id) in netlist.nodes() {
        names[id.index()] = name.to_owned();
    }
    tree_rules(diagnostics, tree, &names, config);
}

/// The shared tier-2/tier-3 rules: run for parsed decks and bare trees.
///
/// `names[i]` is the display name of the node with arena index `i`.
fn tree_rules(
    diagnostics: &mut Vec<Diagnostic>,
    tree: &RlcTree,
    names: &[String],
    config: &LintConfig,
) {
    if tree.total_capacitance().as_farads() == 0.0 {
        diagnostics.push(Diagnostic::deck(
            Rule::ZeroLoadNet,
            "net has zero total capacitance; every T_RC and T_LC sum is zero".to_owned(),
        ));
        // Every per-sink quantity is zero too: the individual sink
        // diagnostics would just repeat this one n times.
        return;
    }
    for id in tree.node_ids() {
        if tree.is_leaf(id) && tree.section(id).capacitance().as_farads() == 0.0 {
            diagnostics.push(Diagnostic::node(
                Rule::LoadFreeLeaf,
                names[id.index()].clone(),
                format!(
                    "leaf node {:?} carries no capacitive load and contributes nothing to any Elmore sum",
                    names[id.index()]
                ),
            ));
        }
    }
    let sums = rlc_moments::tree_sums(tree);
    let mut min_zeta = f64::INFINITY;
    let mut all_rc = true;
    let mut sinks = 0usize;
    for leaf in tree.leaves() {
        sinks += 1;
        let t_rc = sums.rc(leaf).as_seconds();
        let t_lc = sums.lc(leaf).as_seconds_squared();
        if t_rc == 0.0 {
            diagnostics.push(Diagnostic::node(
                Rule::DegenerateSink,
                names[leaf.index()].clone(),
                format!(
                    "sink node {:?} has T_RC = 0; the second-order model (eq. 29) is degenerate there",
                    names[leaf.index()]
                ),
            ));
            continue;
        }
        if t_lc == 0.0 {
            continue;
        }
        all_rc = false;
        // Paper eq. 29: ζ = T_RC / (2·√T_LC).
        let zeta = t_rc / (2.0 * t_lc.sqrt());
        min_zeta = min_zeta.min(zeta);
        if zeta < config.zeta_warn_below {
            diagnostics.push(Diagnostic::node(
                Rule::UnderdampedSink,
                names[leaf.index()].clone(),
                format!(
                    "sink node {:?} has ζ = {zeta:.3} < {:.2}; the two-pole model's fidelity decays for strongly underdamped responses (paper Section V)",
                    names[leaf.index()],
                    config.zeta_warn_below
                ),
            ));
        }
    }
    if sinks > 0 && all_rc {
        diagnostics.push(Diagnostic::deck(
            Rule::DeepRcNet,
            "net is purely RC (T_LC = 0 at every sink); the first-order Elmore/Wyatt model suffices"
                .to_owned(),
        ));
    } else if min_zeta.is_finite() && min_zeta >= config.zeta_info_above {
        diagnostics.push(Diagnostic::deck(
            Rule::DeepRcNet,
            format!(
                "net is deeply overdamped (min sink ζ = {min_zeta:.3} ≥ {:.1}); the first-order Elmore/Wyatt model suffices",
                config.zeta_info_above
            ),
        ));
    }
}

fn is_ground(node: &str) -> bool {
    node == "0" || node.eq_ignore_ascii_case("gnd")
}
