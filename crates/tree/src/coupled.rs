//! Multi-net coupled groups: several RLC trees tied together by coupling
//! capacitors, parsed from one deck.
//!
//! A *coupled deck* extends the single-net card format (see [`netlist`](crate::netlist)) with
//! two constructs:
//!
//! * `.net <name>` opens a named net block; every ordinary card (`R`, `L`,
//!   `C`, `.input`) that follows belongs to that net until the next `.net`
//!   or `.end`;
//! * `K<label> <netA>.<nodeA> <netB>.<nodeB> <value>` places a coupling
//!   capacitor of `<value>` farads between a node of one net and a node of
//!   another. `K` cards are group-level and may appear anywhere in the deck.
//!
//! ```text
//! * a victim flanked by one aggressor
//! .net victim
//! R1 in n1 25
//! C1 n1 0 0.5p
//! .net agg
//! R1 in n1 40
//! C1 n1 0 0.3p
//! K1 victim.n1 agg.n1 0.1p
//! .end
//! ```
//!
//! Each net block is parsed with [`Netlist::parse`] and must individually be
//! a source-rooted RLC tree; coupling references are resolved against the
//! per-net node names after all blocks are read. Coupling capacitors must be
//! finite and strictly positive, must join two *different* nets, and may not
//! attach to a net's input (source) node — the ideal source pins that
//! voltage, so a coupling cap there is inert on the aggressor side and
//! unmodelable on the victim side.
//!
//! Like [`RlcTree::canonical_deck`], a [`CoupledGroup`] has a canonical form
//! ([`CoupledGroup::canonical_deck`]) with every degree of textual freedom
//! removed, used as the content-addressable identity for coupled results.

use std::collections::BTreeMap;

use rlc_units::Capacitance;

use crate::netlist::Netlist;
use crate::{NodeId, RlcTree, TreeError};

/// One net of a coupled group: its name and its parsed netlist.
#[derive(Debug, Clone)]
pub struct CoupledNet {
    name: String,
    netlist: Netlist,
}

impl CoupledNet {
    /// The net's name as declared by its `.net` card.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parsed netlist (tree plus original node names).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The net's RLC tree.
    pub fn tree(&self) -> &RlcTree {
        self.netlist.tree()
    }
}

/// One end of a coupling capacitor: a net (by index into
/// [`CoupledGroup::nets`]) and a node within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CouplingEnd {
    /// Index of the net in [`CoupledGroup::nets`].
    pub net: usize,
    /// The attached node within that net.
    pub node: NodeId,
}

/// A coupling capacitor between nodes of two different nets.
///
/// Ends are normalized so `a` orders before `b` by `(net, node)`; parallel
/// couplings between the same node pair are summed at parse time, so each
/// pair appears at most once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coupling {
    /// The lower-ordered end.
    pub a: CouplingEnd,
    /// The higher-ordered end.
    pub b: CouplingEnd,
    /// The coupling capacitance (finite and strictly positive).
    pub capacitance: Capacitance,
}

/// A group of nets coupled by capacitors, parsed from one deck.
///
/// # Examples
///
/// ```
/// use rlc_tree::coupled::CoupledGroup;
///
/// let deck = "\
/// .net victim
/// R1 in n1 25
/// C1 n1 0 0.5p
/// .net agg
/// R1 in n1 40
/// C1 n1 0 0.3p
/// K1 victim.n1 agg.n1 0.1p
/// .end
/// ";
/// let group = CoupledGroup::parse(deck)?;
/// assert_eq!(group.nets().len(), 2);
/// assert_eq!(group.couplings().len(), 1);
/// assert_eq!(group.nets()[0].name(), "victim");
/// // The canonical form is a fixpoint.
/// let canonical = group.canonical_deck();
/// assert_eq!(CoupledGroup::parse(&canonical)?.canonical_deck(), canonical);
/// # Ok::<(), rlc_tree::TreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoupledGroup {
    nets: Vec<CoupledNet>,
    couplings: Vec<Coupling>,
    header: Option<String>,
}

/// An unresolved `K` card: textual refs plus the line they came from.
struct RawCoupling {
    line: usize,
    card: String,
    ref_a: String,
    ref_b: String,
    capacitance: Capacitance,
}

impl CoupledGroup {
    /// Parses a coupled deck.
    ///
    /// # Errors
    ///
    /// * [`TreeError::ParseNetlist`] for malformed cards, cards outside any
    ///   `.net` block, bad coupling values or references (unknown net,
    ///   self-coupling, unknown node, coupling to the input node);
    /// * [`TreeError::DuplicateLabel`] when two `.net` blocks share a name;
    /// * [`TreeError::NotATree`] when the deck has no `.net` block or a net
    ///   block is not a source-rooted tree.
    pub fn parse(deck: &str) -> Result<Self, TreeError> {
        let lines: Vec<&str> = deck.lines().collect();
        // Which net (by index) owns each deck line; None = group-level.
        let mut owner: Vec<Option<usize>> = vec![None; lines.len()];
        let mut names: Vec<String> = Vec::new();
        let mut raw_couplings: Vec<RawCoupling> = Vec::new();
        let mut header: Option<String> = None;
        let mut seen_card = false;
        let mut current: Option<usize> = None;

        for (idx, raw) in lines.iter().enumerate() {
            let line = raw.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('*') || line.starts_with(';') {
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
            if lower == ".net" {
                let name = fields.get(1).ok_or_else(|| TreeError::ParseNetlist {
                    line: lineno,
                    message: ".net requires a net name".into(),
                })?;
                if fields.len() > 2 {
                    return Err(TreeError::ParseNetlist {
                        line: lineno,
                        message: format!(".net takes one name, got {} fields", fields.len() - 1),
                    });
                }
                if name.contains('.') {
                    return Err(TreeError::ParseNetlist {
                        line: lineno,
                        message: format!("net name {name:?} may not contain '.'"),
                    });
                }
                if names.iter().any(|n| n == name) {
                    return Err(TreeError::DuplicateLabel {
                        label: (*name).to_owned(),
                    });
                }
                names.push((*name).to_owned());
                current = Some(names.len() - 1);
                continue;
            }
            if card.chars().next().map(|c| c.to_ascii_uppercase()) == Some('K')
                && !lower.starts_with('.')
            {
                raw_couplings.push(Self::parse_coupling_card(card, &fields, lineno)?);
                continue;
            }
            match current {
                Some(net) => owner[idx] = Some(net),
                None => {
                    return Err(TreeError::ParseNetlist {
                        line: lineno,
                        message: format!("card {card:?} appears before any .net block"),
                    })
                }
            }
        }

        if names.is_empty() {
            return Err(TreeError::NotATree {
                message: "coupled deck has no .net blocks".into(),
            });
        }

        // Re-parse each net's chunk with blank-line padding so diagnostics
        // keep their original deck line numbers.
        let mut nets = Vec::with_capacity(names.len());
        for (net_idx, name) in names.iter().enumerate() {
            let mut chunk = String::with_capacity(deck.len());
            for (idx, raw) in lines.iter().enumerate() {
                if owner[idx] == Some(net_idx) {
                    chunk.push_str(raw);
                }
                chunk.push('\n');
            }
            let netlist = Netlist::parse(&chunk)?;
            nets.push(CoupledNet {
                name: name.clone(),
                netlist,
            });
        }

        let couplings = Self::resolve_couplings(&nets, raw_couplings)?;
        Ok(Self {
            nets,
            couplings,
            header,
        })
    }

    fn parse_coupling_card(
        card: &str,
        fields: &[&str],
        lineno: usize,
    ) -> Result<RawCoupling, TreeError> {
        if fields.len() != 4 {
            return Err(TreeError::ParseNetlist {
                line: lineno,
                message: format!(
                    "expected `K<label> <net>.<node> <net>.<node> <value>`, got {} fields",
                    fields.len()
                ),
            });
        }
        for reference in [fields[1], fields[2]] {
            if !reference.contains('.') {
                return Err(TreeError::ParseNetlist {
                    line: lineno,
                    message: format!("coupling reference {reference:?} must be `<net>.<node>`"),
                });
            }
        }
        let value = fields[3];
        let c: Capacitance =
            value
                .parse()
                .map_err(|e: rlc_units::ParseQuantityError| TreeError::ParseNetlist {
                    line: lineno,
                    message: format!("bad value {value:?}: {e}"),
                })?;
        if !c.as_farads().is_finite() || c.as_farads() <= 0.0 {
            return Err(TreeError::ParseNetlist {
                line: lineno,
                message: format!(
                    "coupling capacitor {card} value {value:?} must be finite and positive"
                ),
            });
        }
        Ok(RawCoupling {
            line: lineno,
            card: card.to_owned(),
            ref_a: fields[1].to_owned(),
            ref_b: fields[2].to_owned(),
            capacitance: c,
        })
    }

    fn resolve_couplings(
        nets: &[CoupledNet],
        raw: Vec<RawCoupling>,
    ) -> Result<Vec<Coupling>, TreeError> {
        let index: BTreeMap<&str, usize> = nets
            .iter()
            .enumerate()
            .map(|(i, net)| (net.name(), i))
            .collect();
        let resolve =
            |reference: &str, card: &str, line: usize| -> Result<CouplingEnd, TreeError> {
                let (net_name, node_name) = reference.split_once('.').unwrap_or((reference, ""));
                let net = *index.get(net_name).ok_or_else(|| TreeError::ParseNetlist {
                    line,
                    message: format!("coupling {card} references unknown net {net_name:?}"),
                })?;
                let node =
                    nets[net]
                        .netlist()
                        .node(node_name)
                        .ok_or_else(|| TreeError::ParseNetlist {
                            line,
                            message: format!(
                                "coupling {card} references node {node_name:?} which is not a \
                         section node of net {net_name:?}"
                            ),
                        })?;
                Ok(CouplingEnd { net, node })
            };

        // Sum parallel couplings between the same node pair, like shunt
        // capacitors in a single-net deck.
        let mut merged: Vec<Coupling> = Vec::with_capacity(raw.len());
        for rc in raw {
            let a = resolve(&rc.ref_a, &rc.card, rc.line)?;
            let b = resolve(&rc.ref_b, &rc.card, rc.line)?;
            if a.net == b.net {
                return Err(TreeError::ParseNetlist {
                    line: rc.line,
                    message: format!(
                        "coupling {} joins net {:?} to itself",
                        rc.card,
                        nets[a.net].name()
                    ),
                });
            }
            let (a, b) = if a <= b { (a, b) } else { (b, a) };
            match merged.iter_mut().find(|c| c.a == a && c.b == b) {
                Some(existing) => existing.capacitance += rc.capacitance,
                None => merged.push(Coupling {
                    a,
                    b,
                    capacitance: rc.capacitance,
                }),
            }
        }
        merged.sort_by_key(|c| (c.a, c.b));
        Ok(merged)
    }

    /// The group's nets in declaration order.
    pub fn nets(&self) -> &[CoupledNet] {
        &self.nets
    }

    /// The coupling capacitors, normalized (ends ordered, parallel caps
    /// summed) and sorted by `(a, b)`.
    pub fn couplings(&self) -> &[Coupling] {
        &self.couplings
    }

    /// The deck-level header comment, if any (first `*` line before any
    /// card), verbatim.
    pub fn header(&self) -> Option<&str> {
        self.header.as_deref()
    }

    /// Looks up a net index by name.
    pub fn net_index(&self, name: &str) -> Option<usize> {
        self.nets.iter().position(|n| n.name() == name)
    }

    /// The couplings that touch net `net`, as `(this end, far end,
    /// capacitance)` triples.
    pub fn couplings_of(
        &self,
        net: usize,
    ) -> impl Iterator<Item = (CouplingEnd, CouplingEnd, Capacitance)> + '_ {
        self.couplings.iter().filter_map(move |c| {
            if c.a.net == net {
                Some((c.a, c.b, c.capacitance))
            } else if c.b.net == net {
                Some((c.b, c.a, c.capacitance))
            } else {
                None
            }
        })
    }

    /// The canonical form of this group: the content-addressable identity
    /// used by result caches, mirroring [`RlcTree::canonical_deck`].
    ///
    /// * nets are emitted in declaration order under their declared names,
    ///   each as its tree's canonical card body (nodes renamed `n{index}`,
    ///   values in `{:e}` base SI units, root parent named `in`);
    /// * coupling capacitors follow, renumbered `K1…`, with canonical
    ///   `<net>.n{index}` references, normalized end order, parallel caps
    ///   summed, and sorted;
    /// * comments are dropped and the deck ends with `.end`.
    ///
    /// For groups in the parser's image the form is lossless and a
    /// fixpoint: `parse(g.canonical_deck())` rebuilds the same group and
    /// canonicalizes to the same bytes.
    pub fn canonical_deck(&self) -> String {
        use std::fmt::Write as _;

        let mut out = String::new();
        for net in &self.nets {
            let _ = writeln!(out, ".net {}", net.name());
            let body = net.tree().canonical_deck();
            let body = body
                .strip_prefix(".input in\n")
                .unwrap_or(&body)
                .strip_suffix(".end\n")
                .unwrap_or(&body);
            out.push_str(body);
        }
        for (idx, c) in self.couplings.iter().enumerate() {
            let _ = writeln!(
                out,
                "K{} {}.n{} {}.n{} {:e}",
                idx + 1,
                self.nets[c.a.net].name(),
                c.a.node.index(),
                self.nets[c.b.net].name(),
                c.b.node.index(),
                c.capacitance.as_farads()
            );
        }
        out.push_str(".end\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_NET_DECK: &str = "\
* bus pair
.net victim
R1 in n1 25
C1 n1 0 0.5p
R2 n1 n2 25
C2 n2 0 0.5p
.net agg
R1 in a1 40
C1 a1 0 0.3p
K1 victim.n2 agg.a1 0.1p
.end
";

    #[test]
    fn parses_two_net_group() {
        let group = CoupledGroup::parse(TWO_NET_DECK).unwrap();
        assert_eq!(group.nets().len(), 2);
        assert_eq!(group.nets()[0].name(), "victim");
        assert_eq!(group.nets()[1].name(), "agg");
        assert_eq!(group.nets()[0].tree().len(), 2);
        assert_eq!(group.nets()[1].tree().len(), 1);
        assert_eq!(group.couplings().len(), 1);
        let c = group.couplings()[0];
        assert_eq!(c.a.net, 0);
        assert_eq!(c.b.net, 1);
        assert!((c.capacitance.as_picofarads() - 0.1).abs() < 1e-12);
        assert_eq!(group.header(), Some("* bus pair"));
        assert_eq!(group.net_index("agg"), Some(1));
        assert_eq!(group.net_index("nope"), None);
    }

    #[test]
    fn single_net_group_without_couplings_is_fine() {
        let deck = ".net solo\nR1 in n1 10\nC1 n1 0 1p\n";
        let group = CoupledGroup::parse(deck).unwrap();
        assert_eq!(group.nets().len(), 1);
        assert!(group.couplings().is_empty());
    }

    #[test]
    fn k_cards_may_appear_anywhere() {
        let deck = "\
K1 a.n1 b.n1 0.1p
.net a
R1 in n1 10
C1 n1 0 1p
.net b
R1 in n1 20
C1 n1 0 1p
";
        let group = CoupledGroup::parse(deck).unwrap();
        assert_eq!(group.couplings().len(), 1);
    }

    #[test]
    fn parallel_couplings_sum_and_ends_normalize() {
        let deck = "\
.net a
R1 in n1 10
C1 n1 0 1p
.net b
R1 in m1 20
C1 m1 0 1p
K1 b.m1 a.n1 0.1p
K2 a.n1 b.m1 0.2p
";
        let group = CoupledGroup::parse(deck).unwrap();
        assert_eq!(group.couplings().len(), 1);
        let c = group.couplings()[0];
        assert_eq!((c.a.net, c.b.net), (0, 1));
        assert!((c.capacitance.as_picofarads() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn card_before_net_block_is_rejected() {
        let err =
            CoupledGroup::parse("R1 in n1 10\n.net a\nR1 in n1 10\nC1 n1 0 1p\n").unwrap_err();
        assert!(err.to_string().contains("before any .net"), "{err}");
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn duplicate_net_name_is_rejected() {
        let deck = ".net a\nR1 in n1 10\nC1 n1 0 1p\n.net a\nR1 in n1 10\n";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(matches!(err, TreeError::DuplicateLabel { .. }), "{err}");
    }

    #[test]
    fn unknown_net_reference_is_rejected() {
        let deck = ".net a\nR1 in n1 10\nC1 n1 0 1p\nK1 a.n1 ghost.n1 0.1p\n";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("unknown net \"ghost\""), "{err}");
        assert!(err.to_string().contains("line 4"), "{err}");
    }

    #[test]
    fn self_coupling_is_rejected() {
        let deck = "\
.net a
R1 in n1 10
C1 n1 0 1p
R2 n1 n2 10
C2 n2 0 1p
K1 a.n1 a.n2 0.1p
";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("itself"), "{err}");
    }

    #[test]
    fn dangling_node_reference_is_rejected() {
        let deck = "\
.net a
R1 in n1 10
C1 n1 0 1p
.net b
R1 in m1 20
C1 m1 0 1p
K1 a.n9 b.m1 0.1p
";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("not a section node"), "{err}");
    }

    #[test]
    fn coupling_to_the_input_node_is_dangling() {
        // `in` is the source, not a section node; the names map excludes it.
        let deck = "\
.net a
R1 in n1 10
C1 n1 0 1p
.net b
R1 in m1 20
C1 m1 0 1p
K1 a.in b.m1 0.1p
";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("not a section node"), "{err}");
    }

    #[test]
    fn non_positive_or_non_finite_coupling_values_are_rejected() {
        for value in ["0", "-0.1p", "1e999", "NaN"] {
            let deck = format!(
                ".net a\nR1 in n1 10\nC1 n1 0 1p\n.net b\nR1 in m1 20\nC1 m1 0 1p\nK1 a.n1 b.m1 {value}\n"
            );
            let err = CoupledGroup::parse(&deck).unwrap_err();
            assert!(
                matches!(err, TreeError::ParseNetlist { .. }),
                "value {value:?} gave {err}"
            );
        }
        let deck =
            ".net a\nR1 in n1 10\nC1 n1 0 1p\n.net b\nR1 in m1 20\nC1 m1 0 1p\nK1 a.n1 b.m1 0\n";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("finite and positive"), "{err}");
    }

    #[test]
    fn malformed_k_cards_are_rejected_with_line_numbers() {
        let deck = ".net a\nR1 in n1 10\nC1 n1 0 1p\nK1 a.n1 0.1p\n";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
        assert!(err.to_string().contains("got 3 fields"), "{err}");

        let deck = ".net a\nR1 in n1 10\nC1 n1 0 1p\nK1 a.n1 bn1 0.1p\n";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("must be `<net>.<node>`"), "{err}");
    }

    #[test]
    fn net_chunk_errors_keep_deck_line_numbers() {
        let deck = "\
.net a
R1 in n1 10
C1 n1 0 1p
.net b
R1 in m1 bogus
C1 m1 0 1p
";
        let err = CoupledGroup::parse(deck).unwrap_err();
        assert!(err.to_string().contains("line 5"), "{err}");
    }

    #[test]
    fn empty_deck_and_missing_net_name_are_rejected() {
        let err = CoupledGroup::parse("* nothing\n").unwrap_err();
        assert!(matches!(err, TreeError::NotATree { .. }), "{err}");

        let err = CoupledGroup::parse(".net\nR1 in n1 10\n").unwrap_err();
        assert!(err.to_string().contains("requires a net name"), "{err}");

        let err = CoupledGroup::parse(".net a b\nR1 in n1 10\n").unwrap_err();
        assert!(err.to_string().contains("one name"), "{err}");

        let err = CoupledGroup::parse(".net a.b\nR1 in n1 10\n").unwrap_err();
        assert!(err.to_string().contains("may not contain"), "{err}");
    }

    #[test]
    fn end_card_terminates_the_group() {
        let deck = ".net a\nR1 in n1 10\nC1 n1 0 1p\n.end\ngarbage here\n";
        let group = CoupledGroup::parse(deck).unwrap();
        assert_eq!(group.nets().len(), 1);
    }

    #[test]
    fn canonical_deck_is_a_fixpoint_and_spelling_invariant() {
        let group = CoupledGroup::parse(TWO_NET_DECK).unwrap();
        let canonical = group.canonical_deck();
        let reparsed = CoupledGroup::parse(&canonical).unwrap();
        assert_eq!(reparsed.canonical_deck(), canonical);
        assert_eq!(reparsed.nets().len(), group.nets().len());
        assert_eq!(reparsed.couplings(), group.couplings());

        // A respelling of the same group shares the identity.
        let respelled = "\
; prose differs, labels differ, values respelled
.net victim
Rd in  x  2.5e1
Cd x 0 500f
Re x y 25
Ce y 0 0.5p
.net agg
Rf in z 40
Cf z 0 3e-1p
Kx agg.z victim.y 100f
.end
";
        let other = CoupledGroup::parse(respelled).unwrap();
        assert_eq!(other.canonical_deck(), canonical);
    }

    #[test]
    fn canonical_deck_shape() {
        let group = CoupledGroup::parse(TWO_NET_DECK).unwrap();
        let canonical = group.canonical_deck();
        assert!(canonical.starts_with(".net victim\n"), "{canonical}");
        assert!(canonical.contains("\n.net agg\n"), "{canonical}");
        assert!(
            canonical.contains("K1 victim.n1 agg.n0 1e-13\n"),
            "{canonical}"
        );
        assert!(canonical.ends_with(".end\n"), "{canonical}");
        assert!(!canonical.contains(".input"), "{canonical}");
        assert!(!canonical.contains('*'), "{canonical}");
    }
}
