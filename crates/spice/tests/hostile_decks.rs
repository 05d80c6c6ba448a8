//! Hostile input for the SPICE deck parser: the deck from the module
//! documentation of `parser.rs`, plus a `.tran` directive, is damaged
//! at every byte (XOR 0x01, which keeps the deck ASCII) and cut at
//! every length.
//!
//! `parse_netlist` must never panic. Every error must name a line that
//! exists in the damaged deck, and every deck it accepts must compile
//! without a panic. A failure names the damage and its offset.

use std::panic::{catch_unwind, AssertUnwindSafe};

use samurai_spice::{parse_netlist, CompiledCircuit};

const DECK: &str = "\
* comment lines start with '*'
Vdd   vdd 0  DC 1.1
Vin   in  0  PWL(0 0  1n 0  1.1n 1.1)
Vclk  ck  0  PULSE(0 1.1 2n 0.1n 0.1n 3n 8n)
R1    in  a  10k
C1    a   0  5f
Iinj  0   a  DC 1u
M1    d g s  NMOS  W=240n L=90n
M2    d g vdd PMOS W=480n L=90n
.tran 0.1n 20n
";

/// Every damaged variant of the deck, labelled: each byte XOR 0x01,
/// then every proper prefix.
fn variants(deck: &str) -> impl Iterator<Item = (String, String)> + '_ {
    let bytes = deck.as_bytes();
    let flips = (0..bytes.len()).map(move |at| {
        let mut damaged = bytes.to_vec();
        damaged[at] ^= 0x01;
        (format!("byte {at} flipped"), damaged)
    });
    let cuts =
        (0..bytes.len()).map(move |len| (format!("cut to {len} bytes"), bytes[..len].to_vec()));
    flips.chain(cuts).map(|(damage, bytes)| {
        let text = String::from_utf8(bytes).expect("XOR 0x01 and cuts keep an ASCII deck ASCII");
        (damage, text)
    })
}

#[test]
fn the_undamaged_deck_parses_and_compiles() {
    let net = parse_netlist(DECK).expect("the documented deck parses");
    assert_eq!(net.circuit.element_count(), 8);
    assert!(net.tran.is_some());
    let compiled = CompiledCircuit::compile(&net.circuit);
    assert!(compiled.nnz() > 0);
}

#[test]
fn an_oversized_tran_grid_is_rejected_with_its_line() {
    let with_tran = |tran: &str| DECK.replace(".tran 0.1n 20n", tran);
    // 1e6 points is the most a grid may hold; 1e6 + 1 is one too many.
    let largest = parse_netlist(&with_tran(".tran 1n 999.999u")).expect("1e6 points");
    assert_eq!(largest.tran, Some((1e-9, 999.999e-6)));
    let lines = DECK.lines().count();
    for tran in [".tran 1n 1m", ".tran 1e-21 1e-9", ".tran 1e-300 1"] {
        let e = parse_netlist(&with_tran(tran)).expect_err(tran);
        assert_eq!(e.line, lines, "{tran}: {e}");
        assert!(e.message.contains("points"), "{tran}: {e}");
    }
}

#[test]
fn damaged_decks_are_rejected_with_their_line_or_compile() {
    let (mut rejected, mut accepted) = (0, 0);
    for (damage, deck) in variants(DECK) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            parse_netlist(&deck).map(|net| CompiledCircuit::compile(&net.circuit).nnz())
        }))
        .unwrap_or_else(|_| panic!("{damage}: parsing or compiling panicked on {deck:?}"));
        match outcome {
            Ok(_) => accepted += 1,
            Err(e) => {
                rejected += 1;
                let lines = deck.lines().count();
                assert!(
                    (1..=lines).contains(&e.line),
                    "{damage}: error names line {} of a {lines}-line deck: {e}",
                    e.line
                );
            }
        }
    }
    // Both paths are exercised: damage to a node name or a comment
    // leaves a valid deck, damage to a keyword or value does not.
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}
