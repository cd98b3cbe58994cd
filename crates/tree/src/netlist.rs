//! SPICE-like netlist parsing and writing for RLC trees.
//!
//! The format is the familiar card deck:
//!
//! ```text
//! * an RLC tree
//! .input in
//! R1 in  n1  25
//! L1 n1  n1x 5n
//! C1 n1x 0   0.5p
//! R2 n1x n2  25
//! C2 n2  0   0.5p
//! .end
//! ```
//!
//! * `R`/`L` cards are series elements between two nodes; `C` cards connect a
//!   node to ground (`0` or `gnd`).
//! * `.input <node>` names the source node (defaults to `in` if such a node
//!   exists).
//! * Values accept engineering suffixes (`25`, `5n`, `0.5p`) via
//!   [`rlc_units`] parsing.
//!
//! On parse, each series element becomes one tree section (an element chain
//! through capacitor-less intermediate nodes is electrically identical to a
//! combined section, so no merging is needed); shunt capacitance is summed
//! per node. The element graph must be a tree rooted at the input node.

use std::collections::BTreeMap;

use rlc_units::{Capacitance, Inductance, Resistance};

use crate::{NodeId, RlcSection, RlcTree, TreeError};

/// A parsed netlist: the tree plus the original node names.
///
/// # Examples
///
/// ```
/// use rlc_tree::netlist::Netlist;
///
/// let deck = "\
/// * two-section line
/// .input in
/// R1 in n1 25
/// C1 n1 0 0.5p
/// R2 n1 n2 25
/// C2 n2 0 0.5p
/// ";
/// let parsed = Netlist::parse(deck)?;
/// assert_eq!(parsed.tree().len(), 2);
/// let n2 = parsed.node("n2").expect("named node");
/// assert_eq!(parsed.tree().depth(n2), 2);
/// # Ok::<(), rlc_tree::TreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    tree: RlcTree,
    names: BTreeMap<String, NodeId>,
    header: Option<String>,
}

impl Netlist {
    /// Parses a netlist deck.
    ///
    /// # Errors
    ///
    /// * [`TreeError::ParseNetlist`] for malformed cards or values;
    /// * [`TreeError::NotATree`] if the element graph has cycles, is
    ///   disconnected, or lacks an identifiable input node.
    pub fn parse(deck: &str) -> Result<Self, TreeError> {
        let mut series: Vec<SeriesElement> = Vec::new();
        let mut shunt: BTreeMap<String, Capacitance> = BTreeMap::new();
        let mut input: Option<String> = None;
        let mut header: Option<String> = None;
        let mut seen_card = false;

        for (lineno, raw) in deck.lines().enumerate() {
            let line = raw.trim();
            let lineno = lineno + 1;
            if line.is_empty() || line.starts_with('*') || line.starts_with(';') {
                // The first `*` comment before any card or directive is the
                // deck's header; it survives [`Netlist::canonical_deck`].
                if header.is_none() && !seen_card && line.starts_with('*') {
                    header = Some(line.to_owned());
                }
                continue;
            }
            seen_card = true;
            let fields: Vec<&str> = line.split_whitespace().collect();
            let card = fields[0];
            let lower = card.to_ascii_lowercase();
            if lower == ".end" {
                break;
            }
            if lower == ".input" {
                let node = fields.get(1).ok_or_else(|| TreeError::ParseNetlist {
                    line: lineno,
                    message: ".input requires a node name".into(),
                })?;
                input = Some((*node).to_owned());
                continue;
            }
            if lower.starts_with('.') {
                // Unknown directives are ignored, like most SPICE readers.
                continue;
            }
            let kind = card.chars().next().map(|c| c.to_ascii_uppercase());
            match kind {
                Some('R') | Some('L') => {
                    let [n1, n2, value] = expect_fields(&fields, lineno)?;
                    if is_ground(n1) || is_ground(n2) {
                        return Err(TreeError::ParseNetlist {
                            line: lineno,
                            message: format!(
                                "series element {card} may not connect to ground in a tree"
                            ),
                        });
                    }
                    let element = if kind == Some('R') {
                        let r: Resistance = parse_value(value, lineno)?;
                        check_element_value(card, r.as_ohms(), value, lineno)?;
                        SeriesKind::Resistor(r)
                    } else {
                        let l: Inductance = parse_value(value, lineno)?;
                        check_element_value(card, l.as_henries(), value, lineno)?;
                        SeriesKind::Inductor(l)
                    };
                    series.push(SeriesElement {
                        a: n1.to_owned(),
                        b: n2.to_owned(),
                        kind: element,
                    });
                }
                Some('C') => {
                    let [n1, n2, value] = expect_fields(&fields, lineno)?;
                    let node = match (is_ground(n1), is_ground(n2)) {
                        (false, true) => n1,
                        (true, false) => n2,
                        _ => {
                            return Err(TreeError::ParseNetlist {
                                line: lineno,
                                message: format!("capacitor {card} must connect a node to ground"),
                            })
                        }
                    };
                    let c: Capacitance = parse_value(value, lineno)?;
                    check_element_value(card, c.as_farads(), value, lineno)?;
                    *shunt.entry(node.to_owned()).or_insert(Capacitance::ZERO) += c;
                }
                _ => {
                    return Err(TreeError::ParseNetlist {
                        line: lineno,
                        message: format!("unsupported card {card:?}"),
                    })
                }
            }
        }

        Self::assemble(series, shunt, input, header)
    }

    fn assemble(
        series: Vec<SeriesElement>,
        mut shunt: BTreeMap<String, Capacitance>,
        input: Option<String>,
        header: Option<String>,
    ) -> Result<Self, TreeError> {
        if series.is_empty() {
            return Err(TreeError::NotATree {
                message: "netlist has no series elements".into(),
            });
        }
        // Adjacency over node names.
        let mut adj: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (idx, el) in series.iter().enumerate() {
            adj.entry(&el.a).or_default().push(idx);
            adj.entry(&el.b).or_default().push(idx);
        }
        let input = match input {
            Some(n) => n,
            None if adj.contains_key("in") => "in".to_owned(),
            None => {
                return Err(TreeError::NotATree {
                    message: "no .input directive and no node named \"in\"".into(),
                })
            }
        };
        if !adj.contains_key(input.as_str()) {
            return Err(TreeError::NotATree {
                message: format!("input node {input:?} does not appear in any series element"),
            });
        }

        // DFS from the input, creating one tree section per series element.
        let mut tree = RlcTree::with_capacity(series.len());
        let mut names: BTreeMap<String, NodeId> = BTreeMap::new();
        let mut used = vec![false; series.len()];
        // (reached node name, tree node it maps to — None for the source)
        let mut stack: Vec<(String, Option<NodeId>)> = vec![(input.clone(), None)];
        let mut visited_nodes: BTreeMap<String, ()> = BTreeMap::new();
        visited_nodes.insert(input.clone(), ());

        while let Some((node_name, tree_node)) = stack.pop() {
            for &edge in adj.get(node_name.as_str()).into_iter().flatten() {
                if used[edge] {
                    continue;
                }
                used[edge] = true;
                let el = &series[edge];
                let far = if el.a == node_name { &el.b } else { &el.a };
                if visited_nodes.contains_key(far) {
                    return Err(TreeError::NotATree {
                        message: format!("cycle detected through node {far:?}"),
                    });
                }
                visited_nodes.insert(far.clone(), ());
                let cap = shunt.remove(far).unwrap_or(Capacitance::ZERO);
                let section = match el.kind {
                    SeriesKind::Resistor(r) => RlcSection::new(r, Inductance::ZERO, cap),
                    SeriesKind::Inductor(l) => RlcSection::new(Resistance::ZERO, l, cap),
                };
                let id = match tree_node {
                    Some(parent) => tree.add_section(parent, section),
                    None => tree.add_root_section(section),
                };
                names.insert(far.clone(), id);
                stack.push((far.clone(), Some(id)));
            }
        }

        if let Some(unused) = used.iter().position(|&u| !u) {
            let el = &series[unused];
            return Err(TreeError::NotATree {
                message: format!(
                    "element between {:?} and {:?} is not reachable from the input",
                    el.a, el.b
                ),
            });
        }
        // Any capacitor on the input node or an unknown node is an error.
        if let Some(name) = shunt.keys().next() {
            return Err(TreeError::NotATree {
                message: format!(
                    "capacitor at node {name:?} which is the input or not in the tree"
                ),
            });
        }
        Ok(Self {
            tree,
            names,
            header,
        })
    }

    /// The reconstructed tree.
    pub fn tree(&self) -> &RlcTree {
        &self.tree
    }

    /// The deck-level header: the first `*` comment line preceding any card
    /// or directive, verbatim (leading `*` included), or `None` when the
    /// deck has none.
    pub fn header(&self) -> Option<&str> {
        self.header.as_deref()
    }

    /// The canonical form of this netlist *with the deck header preserved*.
    ///
    /// [`RlcTree::canonical_deck`] deliberately drops every comment — two
    /// decks differing only in prose must share one cache identity — so a
    /// header would be lost by a parse → canonicalize round trip through
    /// the bare tree. This method restores it: the output is the tree's
    /// canonical deck with the original header as its first line. The
    /// mapping between the two forms is therefore exact:
    ///
    /// ```text
    /// netlist.canonical_deck() == "{header}\n" + netlist.tree().canonical_deck()
    /// ```
    ///
    /// (identical when the deck had no header). Re-parsing the result
    /// preserves both the tree and the header, so this form is a fixpoint
    /// too — exercised in `tests/canonical_roundtrip.rs`.
    pub fn canonical_deck(&self) -> String {
        emit_deck(&self.tree, self.header.as_deref())
    }

    /// Consumes the netlist, returning the tree.
    pub fn into_tree(self) -> RlcTree {
        self.tree
    }

    /// Looks up a node by its netlist name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// All `(name, node)` pairs, unordered.
    pub fn nodes(&self) -> impl Iterator<Item = (&str, NodeId)> + '_ {
        self.names.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

/// Writes `tree` as a netlist deck parseable by [`Netlist::parse`].
///
/// Section nodes are named `n{index}`; the source is named `in`. Sections
/// with both R and L get an internal `…x` node between the two elements.
///
/// # Examples
///
/// ```
/// use rlc_tree::{netlist, RlcSection, RlcTree};
/// use rlc_units::{Resistance, Inductance, Capacitance};
///
/// let mut tree = RlcTree::new();
/// tree.add_root_section(RlcSection::new(
///     Resistance::from_ohms(25.0),
///     Inductance::from_nanohenries(5.0),
///     Capacitance::from_picofarads(0.5),
/// ));
/// let deck = netlist::write(&tree);
/// let round_trip = netlist::Netlist::parse(&deck)?;
/// // R and L become two chained sections; totals are preserved.
/// assert_eq!(round_trip.tree().total_capacitance(), tree.total_capacitance());
/// # Ok::<(), rlc_tree::TreeError>(())
/// ```
pub fn write(tree: &RlcTree) -> String {
    emit_deck(tree, Some("* RLC tree netlist (generated)"))
}

impl RlcTree {
    /// The canonical netlist form of this tree: a deck with every degree of
    /// textual freedom removed, suitable as a content-addressable identity
    /// for caching and deduplication (see the `rlc-serve` crate).
    ///
    /// Two decks that parse to the same tree — whatever their node names,
    /// whitespace, comments, card labels, or engineering-suffix spelling of
    /// the same value — canonicalize to the same bytes:
    ///
    /// * sections are emitted in arena order (the parse order, which is
    ///   stable for a given tree) and nodes renamed `n{index}`;
    /// * element values are printed in base SI units in `{:e}` form, so
    ///   `0.5p`, `5e-1p`, and `5e-13` all become the same token;
    /// * whitespace is a single space, comments are dropped, and the deck
    ///   is framed by exactly `.input in` and `.end`.
    ///
    /// Dropping comments includes the deck-level `*` header — a bare tree
    /// carries no text, and cache identity must not depend on prose. A
    /// caller that wants the header to survive canonicalization should go
    /// through [`Netlist::canonical_deck`], which prepends the parsed
    /// header back onto exactly this output.
    ///
    /// For trees in the parser's image (each section purely R or purely L),
    /// canonicalization is lossless: `parse(t.canonical_deck())` rebuilds
    /// `t` exactly, node ids included, and a second round trip is a
    /// fixpoint — properties exercised in `tests/canonical_roundtrip.rs`.
    /// Sections carrying both R and L (only constructible via the API) are
    /// split into an R card and an L card like [`write()`], which preserves
    /// the electrical behaviour but doubles those sections on re-parse.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlc_tree::netlist::Netlist;
    ///
    /// let sloppy = "* a line\n.input src\nRdrv   src  mid   25\n\nCload mid 0 5e-1p\n";
    /// let tidy = ".input in\nR1 in a 25\nC1 a 0 0.5p\n";
    /// let canon = |deck: &str| Netlist::parse(deck).unwrap().into_tree().canonical_deck();
    /// assert_eq!(canon(sloppy), canon(tidy));
    /// ```
    pub fn canonical_deck(&self) -> String {
        emit_deck(self, None)
    }
}

fn emit_deck(tree: &RlcTree, header: Option<&str>) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    if let Some(comment) = header {
        out.push_str(comment);
        out.push('\n');
    }
    out.push_str(".input in\n");
    for id in tree.node_ids() {
        let section = tree.section(id);
        let parent_name = match tree.parent(id) {
            Some(p) => format!("n{}", p.index()),
            None => "in".to_owned(),
        };
        let node_name = format!("n{}", id.index());
        let r = section.resistance();
        let l = section.inductance();
        let c = section.capacitance();
        match (r.as_ohms() > 0.0, l.as_henries() > 0.0) {
            (true, true) => {
                let mid = format!("{node_name}x");
                let _ = writeln!(
                    out,
                    "R{} {} {} {:e}",
                    id.index(),
                    parent_name,
                    mid,
                    r.as_ohms()
                );
                let _ = writeln!(
                    out,
                    "L{} {} {} {:e}",
                    id.index(),
                    mid,
                    node_name,
                    l.as_henries()
                );
            }
            (true, false) => {
                let _ = writeln!(
                    out,
                    "R{} {} {} {:e}",
                    id.index(),
                    parent_name,
                    node_name,
                    r.as_ohms()
                );
            }
            (false, true) => {
                let _ = writeln!(
                    out,
                    "L{} {} {} {:e}",
                    id.index(),
                    parent_name,
                    node_name,
                    l.as_henries()
                );
            }
            (false, false) => {
                // Zero-impedance section: emit a zero-ohm resistor to keep
                // the topology representable.
                let _ = writeln!(out, "R{} {} {} 0", id.index(), parent_name, node_name);
            }
        }
        if c.as_farads() > 0.0 {
            let _ = writeln!(out, "C{} {} 0 {:e}", id.index(), node_name, c.as_farads());
        }
    }
    out.push_str(".end\n");
    out
}

struct SeriesElement {
    a: String,
    b: String,
    kind: SeriesKind,
}

enum SeriesKind {
    Resistor(Resistance),
    Inductor(Inductance),
}

fn is_ground(node: &str) -> bool {
    node == "0" || node.eq_ignore_ascii_case("gnd")
}

fn expect_fields<'a>(fields: &[&'a str], line: usize) -> Result<[&'a str; 3], TreeError> {
    if fields.len() != 4 {
        return Err(TreeError::ParseNetlist {
            line,
            message: format!(
                "expected `<name> <node> <node> <value>`, got {} fields",
                fields.len()
            ),
        });
    }
    Ok([fields[1], fields[2], fields[3]])
}

pub(crate) fn parse_value<T: std::str::FromStr>(value: &str, line: usize) -> Result<T, TreeError>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| TreeError::ParseNetlist {
        line,
        message: format!("bad value {value:?}: {e}"),
    })
}

/// Rejects element values that would violate [`RlcSection::new`]'s
/// finite/non-negative contract, so a malformed deck (negative resistance,
/// a value that overflows to ∞, …) surfaces as a typed parse error instead
/// of a panic deep inside tree assembly.
fn check_element_value(
    card: &str,
    base_value: f64,
    raw: &str,
    line: usize,
) -> Result<(), TreeError> {
    if !base_value.is_finite() || base_value < 0.0 {
        return Err(TreeError::ParseNetlist {
            line,
            message: format!("element {card} value {raw:?} must be finite and non-negative"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn parses_two_section_line() {
        let deck = "\
* comment line
.input in
R1 in n1 25
C1 n1 0 0.5p
R2 n1 n2 25
C2 n2 0 0.5p
.end
";
        let parsed = Netlist::parse(deck).unwrap();
        assert_eq!(parsed.tree().len(), 2);
        let n1 = parsed.node("n1").unwrap();
        let n2 = parsed.node("n2").unwrap();
        assert_eq!(parsed.tree().parent(n2), Some(n1));
        assert_eq!(parsed.tree().section(n1).resistance().as_ohms(), 25.0);
        assert!((parsed.tree().section(n2).capacitance().as_picofarads() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn defaults_to_node_named_in() {
        let deck = "R1 in n1 10\nC1 n1 0 1p\n";
        let parsed = Netlist::parse(deck).unwrap();
        assert_eq!(parsed.tree().len(), 1);
    }

    #[test]
    fn missing_input_is_an_error() {
        let deck = "R1 a b 10\nC1 b 0 1p\n";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(matches!(err, TreeError::NotATree { .. }));
    }

    #[test]
    fn explicit_input_directive() {
        let deck = ".input a\nR1 a b 10\nC1 b 0 1p\n";
        let parsed = Netlist::parse(deck).unwrap();
        assert_eq!(parsed.tree().len(), 1);
        assert!(parsed.node("b").is_some());
    }

    #[test]
    fn inductors_make_l_sections() {
        let deck = "\
.input in
R1 in m 25
L1 m n1 5n
C1 n1 0 0.5p
";
        let parsed = Netlist::parse(deck).unwrap();
        assert_eq!(parsed.tree().len(), 2);
        let n1 = parsed.node("n1").unwrap();
        let sec = parsed.tree().section(n1);
        assert!((sec.inductance().as_nanohenries() - 5.0).abs() < 1e-9);
        assert_eq!(sec.resistance().as_ohms(), 0.0);
        // The path R totals 25 Ω.
        assert_eq!(parsed.tree().path_resistance(n1).as_ohms(), 25.0);
    }

    #[test]
    fn branching_tree_parses() {
        let deck = "\
.input in
R1 in t 10
C1 t 0 1p
R2 t a 20
C2 a 0 1p
R3 t b 30
C3 b 0 1p
";
        let parsed = Netlist::parse(deck).unwrap();
        let t = parsed.node("t").unwrap();
        assert_eq!(parsed.tree().children(t).len(), 2);
        assert_eq!(parsed.tree().leaves().count(), 2);
    }

    #[test]
    fn cycle_is_rejected() {
        let deck = "\
.input in
R1 in a 10
R2 a b 10
R3 b in 10
";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(matches!(err, TreeError::NotATree { .. }), "{err}");
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn disconnected_element_is_rejected() {
        let deck = "\
.input in
R1 in a 10
R2 x y 10
";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(err.to_string().contains("not reachable"), "{err}");
    }

    #[test]
    fn capacitor_on_unknown_node_is_rejected() {
        let deck = "\
.input in
R1 in a 10
C9 zz 0 1p
";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(err.to_string().contains("zz"), "{err}");
    }

    #[test]
    fn grounded_series_element_is_rejected() {
        let deck = ".input in\nR1 in 0 10\n";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(matches!(err, TreeError::ParseNetlist { .. }), "{err}");
    }

    #[test]
    fn floating_capacitor_is_rejected() {
        let deck = ".input in\nR1 in a 10\nC1 in a 1p\n";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(err.to_string().contains("ground"), "{err}");
    }

    #[test]
    fn malformed_cards_are_rejected_with_line_numbers() {
        let deck = "R1 in n1\n";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");

        let deck = ".input in\nR1 in n1 bogus\n";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");

        let deck = "Q1 in n1 10\n";
        let err = Netlist::parse(deck).unwrap_err();
        assert!(err.to_string().contains("unsupported card"), "{err}");
    }

    #[test]
    fn negative_and_non_finite_values_are_typed_errors() {
        // Each of these used to panic inside RlcSection::new; they must be
        // ordinary parse errors so batch workers can isolate them per net.
        for deck in [
            ".input in\nR1 in n1 -25\nC1 n1 0 0.5p\n",
            ".input in\nR1 in n1 25\nC1 n1 0 -0.5p\n",
            ".input in\nR1 in n1 25\nL1 n1 n2 -1n\nC1 n2 0 0.5p\n",
            ".input in\nR1 in n1 1e999\nC1 n1 0 0.5p\n",
            ".input in\nR1 in n1 25\nC1 n1 0 1e999\n",
            ".input in\nR1 in n1 NaN\nC1 n1 0 0.5p\n",
        ] {
            let err = Netlist::parse(deck).unwrap_err();
            assert!(
                matches!(err, TreeError::ParseNetlist { .. }),
                "deck {deck:?} gave {err}"
            );
        }
        let err = Netlist::parse(".input in\nR1 in n1 -25\n").unwrap_err();
        assert!(err.to_string().contains("finite and non-negative"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn empty_deck_is_rejected() {
        let err = Netlist::parse("* nothing here\n").unwrap_err();
        assert!(matches!(err, TreeError::NotATree { .. }));
    }

    #[test]
    fn shunt_capacitors_accumulate() {
        let deck = "\
.input in
R1 in a 10
C1 a 0 1p
C2 a 0 2p
C3 0 a 3p
";
        let parsed = Netlist::parse(deck).unwrap();
        let a = parsed.node("a").unwrap();
        assert!((parsed.tree().section(a).capacitance().as_picofarads() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn write_then_parse_preserves_electrical_totals() {
        use rlc_units::{Capacitance, Inductance, Resistance};
        let tree = topology::balanced_tree(
            3,
            2,
            RlcSection::new(
                Resistance::from_ohms(25.0),
                Inductance::from_nanohenries(5.0),
                Capacitance::from_picofarads(0.5),
            ),
        );
        let deck = write(&tree);
        let parsed = Netlist::parse(&deck).unwrap();
        let rt = parsed.tree();
        // Each R+L section becomes an R section plus an L section.
        assert_eq!(rt.len(), 2 * tree.len());
        assert!(
            (rt.total_capacitance().as_farads() - tree.total_capacitance().as_farads()).abs()
                < 1e-24
        );
        // Leaves correspond one-to-one and keep their path impedances.
        assert_eq!(rt.leaves().count(), tree.leaves().count());
        let orig_leaf = tree.leaves().next().unwrap();
        let rt_leaf = parsed.node(&format!("n{}", orig_leaf.index())).unwrap();
        assert!(
            (rt.path_resistance(rt_leaf).as_ohms() - tree.path_resistance(orig_leaf).as_ohms())
                .abs()
                < 1e-9
        );
        assert!(
            (rt.path_inductance(rt_leaf).as_henries()
                - tree.path_inductance(orig_leaf).as_henries())
            .abs()
                < 1e-18
        );
    }

    #[test]
    fn write_handles_zero_sections() {
        let mut tree = RlcTree::new();
        tree.add_root_section(RlcSection::zero());
        let deck = write(&tree);
        assert!(deck.contains("R0 in n0 0"));
        let parsed = Netlist::parse(&deck).unwrap();
        assert_eq!(parsed.tree().len(), 1);
    }

    #[test]
    fn header_comment_survives_canonicalization() {
        let deck = "* clk spine, M7, extracted 2024-11-02\n.input in\nR1 in n1 25\nC1 n1 0 0.5p\n";
        let parsed = Netlist::parse(deck).unwrap();
        assert_eq!(
            parsed.header(),
            Some("* clk spine, M7, extracted 2024-11-02")
        );

        let canonical = parsed.canonical_deck();
        assert!(
            canonical.starts_with("* clk spine, M7, extracted 2024-11-02\n.input in\n"),
            "{canonical}"
        );
        // The documented mapping: header line + the tree's canonical form.
        assert_eq!(
            canonical,
            format!(
                "* clk spine, M7, extracted 2024-11-02\n{}",
                parsed.tree().canonical_deck()
            )
        );
        // Re-parsing preserves both tree and header, and is a fixpoint.
        let again = Netlist::parse(&canonical).unwrap();
        assert_eq!(again.header(), parsed.header());
        assert_eq!(again.tree(), parsed.tree());
        assert_eq!(again.canonical_deck(), canonical);
    }

    #[test]
    fn header_capture_takes_only_the_leading_comment() {
        // No comment at all.
        let parsed = Netlist::parse("R1 in n1 25\nC1 n1 0 0.5p\n").unwrap();
        assert_eq!(parsed.header(), None);
        assert_eq!(parsed.canonical_deck(), parsed.tree().canonical_deck());

        // Comments after the first card are not headers; `;` never is.
        let deck = "; lint: off\n.input in\nR1 in n1 25\n* trailing note\nC1 n1 0 0.5p\n";
        let parsed = Netlist::parse(deck).unwrap();
        assert_eq!(parsed.header(), None);

        // Blank lines before the header are fine; only the first `*` line
        // is kept.
        let deck = "\n* first\n* second\n.input in\nR1 in n1 25\nC1 n1 0 0.5p\n";
        let parsed = Netlist::parse(deck).unwrap();
        assert_eq!(parsed.header(), Some("* first"));
    }

    #[test]
    fn nodes_iterator_lists_all() {
        let deck = ".input in\nR1 in a 1\nR2 a b 1\nC1 b 0 1p\n";
        let parsed = Netlist::parse(deck).unwrap();
        let mut names: Vec<&str> = parsed.nodes().map(|(n, _)| n).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "b"]);
    }
}
