//! Synthesis decks: a netlist plus buffer-library and constraint cards.
//!
//! A *synthesis deck* is an ordinary netlist (see [`crate::netlist`])
//! extended with deck-level cards describing what the synthesizer may do
//! to the net and what it must achieve:
//!
//! ```text
//! * clock net, M6
//! .input in
//! R1 in n1 120
//! C1 n1 0 0.4p
//! .lib bufx r=1.2k cin=4f tin=18p
//! .use bufx
//! .driver 150
//! .require n1 900p
//! .end
//! ```
//!
//! * `.lib <name> r=<R> cin=<C> tin=<T>` defines a buffer: driver
//!   (output) resistance, input capacitance, and intrinsic delay. A deck
//!   may carry several `.lib` cards; key/value fields accept any order.
//! * `.use <name>` selects which buffer the synthesizer inserts. Without
//!   it, the first `.lib` card is selected.
//! * `.driver <R>` is the source driver's output resistance. Without it,
//!   the net is assumed driven by the selected buffer's resistance.
//! * `.require <node> <T>` is an optional required 50% arrival time at a
//!   named tree node, reported as slack by the synthesizer.
//!
//! Values use the same engineering-suffix grammar as element cards
//! (`1.2k`, `4f`, `18p`). The plain [`Netlist`] parser ignores every
//! synthesis card (they are unknown directives to it), so a synthesis
//! deck is always also a valid analysis deck for the same tree.
//!
//! Malformed cards are **typed errors**, never panics: card-level
//! problems surface as [`TreeError::ParseNetlist`] with the 1-based line
//! number, deck-level problems (no `.lib` card at all) as
//! [`TreeError::SynthDeck`]. The `rlc-lint` crate mirrors this grammar
//! in its L5xx synthesis tier with the same accept/reject boundary.

use std::collections::BTreeMap;

use rlc_units::{Capacitance, Resistance, Time};

use crate::netlist::{parse_value, Netlist};
use crate::{NodeId, RlcTree, TreeError};

/// One `.lib` card: a buffer characterized for synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferCard {
    /// The library name of the buffer (the `.lib` card's first field).
    pub name: String,
    /// Driver (output) resistance; must be positive and finite.
    pub resistance: Resistance,
    /// Input capacitance presented to the upstream stage.
    pub input_capacitance: Capacitance,
    /// Intrinsic (input-to-output) delay added per inserted buffer.
    pub intrinsic_delay: Time,
}

/// A parsed synthesis deck: the netlist plus its buffer library and
/// constraints.
#[derive(Debug, Clone)]
pub struct SynthDeck {
    netlist: Netlist,
    buffers: Vec<BufferCard>,
    selected: usize,
    driver: Resistance,
    explicit_driver: bool,
    requires: Vec<(NodeId, Time)>,
    /// Original names of `.require` nodes, aligned with `requires`.
    require_names: Vec<String>,
}

/// The set of directives that make a deck a synthesis deck.
const SYNTH_DIRECTIVES: [&str; 4] = [".lib", ".use", ".driver", ".require"];

/// Whether `deck` contains any synthesis directive (`.lib`, `.use`,
/// `.driver`, `.require`). Used by `lint_path`-style routers to decide
/// which grammar a deck belongs to; a deck can be a synthesis deck and
/// still fail [`SynthDeck::parse`].
pub fn is_synth_deck(deck: &str) -> bool {
    deck.lines().any(|raw| {
        let line = raw.trim();
        SYNTH_DIRECTIVES.iter().any(|d| {
            let lower = line
                .split_whitespace()
                .next()
                .map(str::to_ascii_lowercase)
                .unwrap_or_default();
            lower == *d
        })
    })
}

impl SynthDeck {
    /// Parses a synthesis deck.
    ///
    /// # Errors
    ///
    /// * [`TreeError::ParseNetlist`] for malformed element or synthesis
    ///   cards (bad values, missing fields, duplicate definitions,
    ///   unknown buffer references, constraints on nonexistent nodes);
    /// * [`TreeError::SynthDeck`] when the deck has no `.lib` card;
    /// * any error of [`Netlist::parse`] for the element portion.
    pub fn parse(deck: &str) -> Result<Self, TreeError> {
        let mut buffers: Vec<BufferCard> = Vec::new();
        let mut use_card: Option<(usize, String)> = None;
        let mut driver: Option<Resistance> = None;
        let mut raw_requires: Vec<(usize, String, Time)> = Vec::new();

        for (lineno, raw) in deck.lines().enumerate() {
            let line = raw.trim();
            let lineno = lineno + 1;
            if line.is_empty() || line.starts_with('*') || line.starts_with(';') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let lower = fields[0].to_ascii_lowercase();
            if lower == ".end" {
                break;
            }
            match lower.as_str() {
                ".lib" => {
                    let card = parse_lib_card(&fields, lineno)?;
                    if buffers.iter().any(|b| b.name == card.name) {
                        return Err(TreeError::ParseNetlist {
                            line: lineno,
                            message: format!("duplicate .lib buffer {:?}", card.name),
                        });
                    }
                    buffers.push(card);
                }
                ".use" => {
                    let name = expect_one_field(&fields, ".use", "a buffer name", lineno)?;
                    if use_card.is_some() {
                        return Err(TreeError::ParseNetlist {
                            line: lineno,
                            message: "duplicate .use card".into(),
                        });
                    }
                    use_card = Some((lineno, name.to_owned()));
                }
                ".driver" => {
                    let value = expect_one_field(&fields, ".driver", "a resistance", lineno)?;
                    if driver.is_some() {
                        return Err(TreeError::ParseNetlist {
                            line: lineno,
                            message: "duplicate .driver card".into(),
                        });
                    }
                    let r: Resistance = parse_value(value, lineno)?;
                    check_positive(".driver resistance", r.as_ohms(), value, lineno)?;
                    driver = Some(r);
                }
                ".require" => {
                    if fields.len() != 3 {
                        return Err(TreeError::ParseNetlist {
                            line: lineno,
                            message: format!(
                                ".require expects `<node> <time>`, got {} fields",
                                fields.len() - 1
                            ),
                        });
                    }
                    let node = fields[1];
                    let t: Time = parse_value(fields[2], lineno)?;
                    check_non_negative(".require time", t.as_seconds(), fields[2], lineno)?;
                    if raw_requires.iter().any(|(_, n, _)| n == node) {
                        return Err(TreeError::ParseNetlist {
                            line: lineno,
                            message: format!("duplicate .require constraint on node {node:?}"),
                        });
                    }
                    raw_requires.push((lineno, node.to_owned(), t));
                }
                _ => {}
            }
        }

        if buffers.is_empty() {
            return Err(TreeError::SynthDeck {
                message: "synthesis deck has no .lib buffer card".into(),
            });
        }
        let selected = match &use_card {
            Some((lineno, name)) => {
                buffers
                    .iter()
                    .position(|b| &b.name == name)
                    .ok_or_else(|| TreeError::ParseNetlist {
                        line: *lineno,
                        message: format!(".use references unknown buffer {name:?}"),
                    })?
            }
            None => 0,
        };

        let netlist = Netlist::parse(deck)?;
        let mut requires: Vec<(NodeId, Time, String)> = Vec::with_capacity(raw_requires.len());
        for (lineno, name, t) in raw_requires {
            let node = netlist.node(&name).ok_or_else(|| TreeError::ParseNetlist {
                line: lineno,
                message: format!(".require constraint on nonexistent node {name:?}"),
            })?;
            requires.push((node, t, name));
        }
        requires.sort_by_key(|(node, _, _)| node.index());
        let explicit_driver = driver.is_some();
        let driver = driver.unwrap_or(buffers[selected].resistance);
        let require_names = requires.iter().map(|(_, _, n)| n.clone()).collect();
        let requires = requires.into_iter().map(|(node, t, _)| (node, t)).collect();

        Ok(Self {
            netlist,
            buffers,
            selected,
            driver,
            explicit_driver,
            requires,
            require_names,
        })
    }

    /// The parsed element tree.
    pub fn tree(&self) -> &RlcTree {
        self.netlist.tree()
    }

    /// The underlying netlist (node names, header).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Every `.lib` card, in deck order.
    pub fn buffers(&self) -> &[BufferCard] {
        &self.buffers
    }

    /// The buffer the synthesizer will insert (the `.use` selection, or
    /// the first `.lib` card).
    pub fn buffer(&self) -> &BufferCard {
        &self.buffers[self.selected]
    }

    /// The source driver's output resistance (`.driver`, defaulting to the
    /// selected buffer's resistance).
    pub fn driver_resistance(&self) -> Resistance {
        self.driver
    }

    /// Required 50% arrival times from `.require` cards, sorted by node
    /// index.
    pub fn required_times(&self) -> &[(NodeId, Time)] {
        &self.requires
    }

    /// The canonical form of this synthesis deck: the netlist tree's
    /// canonical deck (comments dropped, nodes renamed `n{index}`, `{:e}`
    /// values) with the *resolved* synthesis cards spliced in before
    /// `.end` —
    /// only the selected buffer is emitted (unselected `.lib` cards
    /// cannot influence the synthesis result, so they must not influence
    /// the cache identity), `.use` and `.driver` are always explicit, and
    /// `.require` cards are sorted by canonical node index.
    ///
    /// Like the other canonical forms this is a fixpoint:
    /// `SynthDeck::parse(deck.canonical_deck())` reproduces the same
    /// canonical bytes, so it serves as the content address for the serve
    /// tier's `optimize` cache. Unlike [`Netlist::canonical_deck`] the
    /// deck header is *not* preserved: two synthesis decks differing only
    /// in prose must share one cache identity, matching the analyze and
    /// couple key derivations.
    #[expect(clippy::unreachable, reason = "canonical decks always end with .end")]
    pub fn canonical_deck(&self) -> String {
        use std::fmt::Write as _;

        let base = self.netlist.tree().canonical_deck();
        let body = base
            .strip_suffix(".end\n")
            .unwrap_or_else(|| unreachable!("canonical decks always end with .end"));
        let mut out = body.to_owned();
        let buffer = self.buffer();
        let _ = writeln!(
            out,
            ".lib {} r={:e} cin={:e} tin={:e}",
            buffer.name,
            buffer.resistance.as_ohms(),
            buffer.input_capacitance.as_farads(),
            buffer.intrinsic_delay.as_seconds()
        );
        let _ = writeln!(out, ".use {}", buffer.name);
        let _ = writeln!(out, ".driver {:e}", self.driver.as_ohms());
        for (node, t) in &self.requires {
            let _ = writeln!(out, ".require n{} {:e}", node.index(), t.as_seconds());
        }
        out.push_str(".end\n");
        out
    }

    /// The original deck names of the `.require` nodes, aligned with
    /// [`required_times`](Self::required_times).
    pub fn require_names(&self) -> &[String] {
        &self.require_names
    }

    /// Whether the deck carried an explicit `.driver` card (as opposed to
    /// defaulting to the selected buffer's resistance).
    pub fn has_explicit_driver(&self) -> bool {
        self.explicit_driver
    }
}

fn parse_lib_card(fields: &[&str], line: usize) -> Result<BufferCard, TreeError> {
    if fields.len() != 5 {
        return Err(TreeError::ParseNetlist {
            line,
            message: format!(
                ".lib expects `<name> r=<res> cin=<cap> tin=<time>`, got {} fields",
                fields.len() - 1
            ),
        });
    }
    let name = fields[1];
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    for field in &fields[2..] {
        let Some((key, value)) = field.split_once('=') else {
            return Err(TreeError::ParseNetlist {
                line,
                message: format!(".lib field {field:?} is not `key=value`"),
            });
        };
        if kv.insert(key, value).is_some() {
            return Err(TreeError::ParseNetlist {
                line,
                message: format!(".lib repeats key {key:?}"),
            });
        }
    }
    let take = |key: &str| -> Result<&str, TreeError> {
        kv.get(key).copied().ok_or_else(|| TreeError::ParseNetlist {
            line,
            message: format!(".lib is missing key {key:?}"),
        })
    };
    for key in kv.keys() {
        if !matches!(*key, "r" | "cin" | "tin") {
            return Err(TreeError::ParseNetlist {
                line,
                message: format!(".lib has unknown key {key:?}"),
            });
        }
    }
    let r: Resistance = parse_value(take("r")?, line)?;
    check_positive(".lib resistance", r.as_ohms(), take("r")?, line)?;
    let cin: Capacitance = parse_value(take("cin")?, line)?;
    check_non_negative(
        ".lib input capacitance",
        cin.as_farads(),
        take("cin")?,
        line,
    )?;
    let tin: Time = parse_value(take("tin")?, line)?;
    check_non_negative(".lib intrinsic delay", tin.as_seconds(), take("tin")?, line)?;
    Ok(BufferCard {
        name: name.to_owned(),
        resistance: r,
        input_capacitance: cin,
        intrinsic_delay: tin,
    })
}

fn expect_one_field<'a>(
    fields: &[&'a str],
    card: &str,
    what: &str,
    line: usize,
) -> Result<&'a str, TreeError> {
    if fields.len() != 2 {
        return Err(TreeError::ParseNetlist {
            line,
            message: format!("{card} expects {what}, got {} fields", fields.len() - 1),
        });
    }
    Ok(fields[1])
}

fn check_positive(what: &str, base_value: f64, raw: &str, line: usize) -> Result<(), TreeError> {
    if !base_value.is_finite() || base_value <= 0.0 {
        return Err(TreeError::ParseNetlist {
            line,
            message: format!("{what} {raw:?} must be finite and positive"),
        });
    }
    Ok(())
}

fn check_non_negative(
    what: &str,
    base_value: f64,
    raw: &str,
    line: usize,
) -> Result<(), TreeError> {
    if !base_value.is_finite() || base_value < 0.0 {
        return Err(TreeError::ParseNetlist {
            line,
            message: format!("{what} {raw:?} must be finite and non-negative"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECK: &str = "\
* clock net
.input in
R1 in n1 120
C1 n1 0 0.4p
R2 n1 n2 120
C2 n2 0 0.4p
.lib bufx r=1.2k cin=4f tin=18p
.lib bufy r=600 cin=9f tin=25p
.use bufx
.driver 150
.require n2 900p
.end
";

    #[test]
    fn parses_a_full_synthesis_deck() {
        let deck = SynthDeck::parse(DECK).unwrap();
        assert_eq!(deck.tree().len(), 2);
        assert_eq!(deck.buffers().len(), 2);
        assert_eq!(deck.buffer().name, "bufx");
        assert_eq!(deck.buffer().resistance.as_ohms(), 1200.0);
        assert!((deck.buffer().input_capacitance.as_farads() - 4e-15).abs() < 1e-24);
        assert!((deck.buffer().intrinsic_delay.as_seconds() - 18e-12).abs() < 1e-21);
        assert_eq!(deck.driver_resistance().as_ohms(), 150.0);
        assert!(deck.has_explicit_driver());
        let requires = deck.required_times();
        assert_eq!(requires.len(), 1);
        assert_eq!(requires[0].0, deck.netlist().node("n2").unwrap());
        assert!((requires[0].1.as_seconds() - 900e-12).abs() < 1e-18);
        assert_eq!(deck.require_names(), ["n2"]);
    }

    #[test]
    fn lib_keys_accept_any_order_and_use_defaults_to_first() {
        let deck = "\
R1 in n1 25
C1 n1 0 0.5p
.lib a tin=10p cin=2f r=3k
";
        let parsed = SynthDeck::parse(deck).unwrap();
        assert_eq!(parsed.buffer().name, "a");
        // No .driver: the net is assumed driven by the selected buffer.
        assert_eq!(parsed.driver_resistance().as_ohms(), 3000.0);
        assert!(!parsed.has_explicit_driver());
    }

    #[test]
    fn detection_is_case_insensitive_and_token_exact() {
        assert!(is_synth_deck(".LIB b r=1 cin=1f tin=1p\n"));
        assert!(is_synth_deck("R1 in n1 25\n  .driver 100\n"));
        assert!(!is_synth_deck("R1 in n1 25\nC1 n1 0 1p\n"));
        // `.library` is a different (unknown) directive, not a synth card.
        assert!(!is_synth_deck(".library foo\n"));
        // Comments never count.
        assert!(!is_synth_deck("* .lib in prose\n"));
    }

    #[test]
    fn netlist_parser_ignores_synth_cards() {
        // The same deck is a valid plain analysis deck.
        let plain = Netlist::parse(DECK).unwrap();
        assert_eq!(plain.tree().len(), 2);
    }

    #[test]
    fn malformed_cards_are_typed_errors_with_lines() {
        let cases: &[(&str, &str)] = &[
            (".lib a r=1k cin=4f\nR1 in n1 25\nC1 n1 0 1p\n", "3 fields"),
            (
                ".lib a r=1k cin=4f cin=5f\nR1 in n1 25\nC1 n1 0 1p\n",
                "repeats key",
            ),
            (
                ".lib a r=1k cin=4f tin=1p extra=2\nR1 in n1 25\nC1 n1 0 1p\n",
                "5 fields",
            ),
            (
                ".lib a r=1k cin=4f zap=1p\nR1 in n1 25\nC1 n1 0 1p\n",
                "unknown key",
            ),
            (
                ".lib a r=0 cin=4f tin=1p\nR1 in n1 25\nC1 n1 0 1p\n",
                "positive",
            ),
            (
                ".lib a r=-3 cin=4f tin=1p\nR1 in n1 25\nC1 n1 0 1p\n",
                "positive",
            ),
            (
                ".lib a r=1k cin=oops tin=1p\nR1 in n1 25\nC1 n1 0 1p\n",
                "bad value",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.lib a r=2k cin=4f tin=1p\nR1 in n1 25\nC1 n1 0 1p\n",
                "duplicate .lib",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.use b\nR1 in n1 25\nC1 n1 0 1p\n",
                "unknown buffer",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.use a\n.use a\nR1 in n1 25\nC1 n1 0 1p\n",
                "duplicate .use",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.driver 0\nR1 in n1 25\nC1 n1 0 1p\n",
                "positive",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.driver 10\n.driver 20\nR1 in n1 25\nC1 n1 0 1p\n",
                "duplicate .driver",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.require zz 1p\nR1 in n1 25\nC1 n1 0 1p\n",
                "nonexistent node",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.require n1 -1p\nR1 in n1 25\nC1 n1 0 1p\n",
                "non-negative",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.require n1 1p\n.require n1 2p\nR1 in n1 25\nC1 n1 0 1p\n",
                "duplicate .require",
            ),
            (
                ".lib a r=1k cin=4f tin=1p\n.require n1\nR1 in n1 25\nC1 n1 0 1p\n",
                "1 fields",
            ),
        ];
        for (deck, needle) in cases {
            let err = SynthDeck::parse(deck).unwrap_err();
            assert!(
                matches!(err, TreeError::ParseNetlist { .. }),
                "deck {deck:?} gave {err:?}"
            );
            assert!(
                err.to_string().contains(needle),
                "deck {deck:?}: {err} does not mention {needle:?}"
            );
        }
    }

    #[test]
    fn deck_without_lib_card_is_a_deck_level_error() {
        let err = SynthDeck::parse(".driver 100\nR1 in n1 25\nC1 n1 0 1p\n").unwrap_err();
        assert!(matches!(err, TreeError::SynthDeck { .. }), "{err:?}");
        assert!(err.to_string().contains(".lib"));
    }

    #[test]
    fn netlist_errors_pass_through() {
        let err = SynthDeck::parse(".lib a r=1k cin=4f tin=1p\nR1 in n1 oops\n").unwrap_err();
        assert!(matches!(err, TreeError::ParseNetlist { .. }));
    }

    #[test]
    fn canonical_deck_is_a_fixpoint_and_drops_unselected_buffers() {
        let deck = SynthDeck::parse(DECK).unwrap();
        let canonical = deck.canonical_deck();
        // The header comment is dropped: canonical identity is prose-free.
        assert!(canonical.starts_with(".input in\n"), "{canonical}");
        assert!(canonical.contains(".lib bufx "), "{canonical}");
        assert!(!canonical.contains("bufy"), "{canonical}");
        assert!(canonical.contains(".use bufx\n"), "{canonical}");
        assert!(canonical.contains(".driver 1.5e2\n"), "{canonical}");
        assert!(canonical.ends_with(".end\n"), "{canonical}");

        let again = SynthDeck::parse(&canonical).unwrap();
        assert_eq!(
            again.canonical_deck(),
            canonical,
            "canonical form is a fixpoint"
        );
        assert_eq!(again.tree(), deck.tree());
        assert_eq!(again.buffer(), deck.buffer());
        assert_eq!(again.driver_resistance(), deck.driver_resistance());
        assert_eq!(again.required_times(), deck.required_times());
    }

    #[test]
    fn canonical_deck_shares_identity_across_spellings() {
        // Same circuit, same library physics: different node names, value
        // spellings, and an extra unselected buffer must not change the
        // canonical bytes.
        let a = SynthDeck::parse(
            "R1 in x 120\nC1 x 0 0.4p\n.lib b r=1.2k cin=4f tin=18p\n.driver 150\n",
        )
        .unwrap();
        let b = SynthDeck::parse(
            ".input in\nRw in y 1.2e2\nCw y 0 4e-13\n.lib b r=1200 cin=0.004p tin=0.018n\n.lib spare r=9k cin=1f tin=5p\n.use b\n.driver 1.5e2\n",
        )
        .unwrap();
        assert_eq!(a.canonical_deck(), b.canonical_deck());
    }

    #[test]
    fn requires_are_sorted_by_node_index() {
        let deck = "\
R1 in a 25
C1 a 0 1p
R2 a b 25
C2 b 0 1p
.lib buf r=1k cin=4f tin=10p
.require b 2n
.require a 1n
";
        let parsed = SynthDeck::parse(deck).unwrap();
        let nodes: Vec<u32> = parsed
            .required_times()
            .iter()
            .map(|(n, _)| n.index() as u32)
            .collect();
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        assert_eq!(nodes, sorted);
    }
}
