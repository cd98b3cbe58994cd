//! Property/fuzz tests for the deck parsers: arbitrary input must never
//! panic in any of the three grammars (netlist, coupled, synthesis), and
//! valid generated trees must round-trip.

use proptest::prelude::*;
use rlc_tree::coupled::CoupledGroup;
use rlc_tree::synth::SynthDeck;
use rlc_tree::{netlist, topology, RlcSection};
use rlc_units::{Capacitance, Inductance, Resistance};

/// Runs every deck parser on `deck`; each returns Ok or a typed error.
fn parse_all(deck: &str) {
    let _ = netlist::Netlist::parse(deck);
    let _ = CoupledGroup::parse(deck);
    let _ = SynthDeck::parse(deck);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup: the parsers return Ok or Err, never panic.
    #[test]
    fn parser_never_panics_on_arbitrary_text(deck in ".{0,400}") {
        parse_all(&deck);
    }

    /// Structured-looking garbage: plausible card shapes with random
    /// fields exercise the error paths more deeply.
    #[test]
    fn parser_never_panics_on_cardlike_text(
        cards in proptest::collection::vec(
            (
                proptest::sample::select(vec![
                    "R1", "L1", "C1", "K1", "X1", ".input", ".net", ".lib", ".use",
                    ".driver", ".require", ".end", "*", "",
                ]),
                "[a-z0-9 .=]{0,20}",
            ),
            0..20,
        )
    ) {
        let deck: String = cards
            .iter()
            .map(|(kind, rest)| format!("{kind} {rest}\n"))
            .collect();
        parse_all(&deck);
    }

    /// Write → parse round-trips every random tree losslessly in its
    /// electrical totals.
    #[test]
    fn roundtrip_random_trees(seed in any::<u64>(), n in 1usize..30) {
        let tree = topology::random_tree(
            seed,
            n,
            (Resistance::from_ohms(0.0), Resistance::from_ohms(100.0)),
            (Inductance::ZERO, Inductance::from_nanohenries(5.0)),
            (Capacitance::ZERO, Capacitance::from_picofarads(1.0)),
        );
        let deck = netlist::write(&tree);
        let parsed = netlist::Netlist::parse(&deck).expect("own output must parse");
        let rt = parsed.tree();
        prop_assert!(
            (rt.total_capacitance().as_farads() - tree.total_capacitance().as_farads()).abs()
                < 1e-24
        );
        // Per-leaf path impedances survive.
        for leaf in tree.leaves().collect::<Vec<_>>() {
            let name = format!("n{}", leaf.index());
            let mapped = parsed.node(&name).expect("leaf named in output");
            prop_assert!(
                (rt.path_resistance(mapped).as_ohms() - tree.path_resistance(leaf).as_ohms())
                    .abs()
                    < 1e-9
            );
            prop_assert!(
                (rt.path_inductance(mapped).as_henries()
                    - tree.path_inductance(leaf).as_henries())
                .abs()
                    < 1e-18
            );
        }
    }
}

#[test]
fn pathological_but_valid_decks() {
    // Very long chain.
    let mut deck = String::from(".input in\n");
    let mut prev = "in".to_owned();
    for k in 0..500 {
        deck.push_str(&format!("R{k} {prev} m{k} 1\nC{k} m{k} 0 1f\n"));
        prev = format!("m{k}");
    }
    let parsed = netlist::Netlist::parse(&deck).expect("chain parses");
    assert_eq!(parsed.tree().len(), 500);
    assert_eq!(parsed.tree().max_depth(), 500);

    // Wide star.
    let mut deck = String::from(".input in\n");
    for k in 0..300 {
        deck.push_str(&format!("R{k} in s{k} 2\nC{k} s{k} 0 1f\n"));
    }
    let parsed = netlist::Netlist::parse(&deck).expect("star parses");
    assert_eq!(parsed.tree().len(), 300);
    assert_eq!(parsed.tree().leaves().count(), 300);
}

#[test]
fn duplicate_named_elements_still_parse() {
    // Element names need not be unique for reconstruction (only topology
    // matters); two cards both named R1 must not confuse the parser.
    let deck = ".input in\nR1 in a 5\nR1 a b 7\nC1 b 0 1p\n";
    let parsed = netlist::Netlist::parse(deck).expect("parses");
    assert_eq!(parsed.tree().len(), 2);
    let b = parsed.node("b").expect("named");
    assert_eq!(parsed.tree().path_resistance(b).as_ohms(), 12.0);
}

#[test]
fn whitespace_and_case_robustness() {
    let deck = "  .INPUT in is not a directive we claim to support in caps\n";
    // Unknown dot-directives are ignored, so this deck has no elements.
    assert!(netlist::Netlist::parse(deck).is_err());

    let deck = "\t.input\tin\nR1\tin\ta\t10\nC1\ta\t0\t1p\n";
    let parsed = netlist::Netlist::parse(deck).expect("tabs are whitespace");
    assert_eq!(parsed.tree().len(), 1);

    let zero = RlcSection::zero();
    let _ = zero; // silence unused in this scope
}
