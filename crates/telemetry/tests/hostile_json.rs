//! Hostile input for the JSON parser that reads every HTTP request
//! body, store document and checkpoint file: a sealed envelope built
//! here, the committed fig7 summary and one line of the committed x7
//! journal are each damaged at every byte (XOR 0x01, which keeps the
//! text ASCII so the damage reaches the grammar instead of stopping at
//! UTF-8) and cut at every length.
//!
//! `parse` must never panic, and every document it accepts must
//! re-serialise to text that parses back to the same tree. A failure
//! names the input, the damage and its offset.

use std::panic::{catch_unwind, AssertUnwindSafe};

use samurai_telemetry::json::{self, JsonValue};

const BENCH_FIG7: &str = include_str!("../../../metrics/BENCH_fig7.json");
const JOURNAL_X7: &str = include_str!("../../../metrics/JOURNAL_x7_corners.jsonl");

/// A sealed document holding every kind of value the writer emits:
/// escapes, non-ASCII text, negative and tiny floats, exact integers
/// up to `u64::MAX`, nesting, booleans and null.
fn sealed() -> String {
    let payload = JsonValue::obj(vec![
        (
            "text",
            JsonValue::Str("tab\t \"quoted\" back\\slash \u{1} é".into()),
        ),
        (
            "floats",
            JsonValue::Arr(vec![
                JsonValue::F64(-1.25),
                JsonValue::F64(2.5e-7),
                JsonValue::F64(3.0),
                JsonValue::F64(6.02e23),
            ]),
        ),
        (
            "ints",
            JsonValue::Arr(vec![JsonValue::U64(0), JsonValue::U64(u64::MAX)]),
        ),
        (
            "nested",
            JsonValue::obj(vec![
                (
                    "flags",
                    JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::Bool(false)]),
                ),
                ("none", JsonValue::Null),
                ("empty", JsonValue::Arr(Vec::new())),
            ]),
        ),
    ]);
    json::seal("hostile-v1", payload).to_json()
}

/// Every damaged variant of `text`, labelled: each byte XOR 0x01, then
/// every proper prefix. Damage that leaves the text invalid UTF-8 (a
/// flipped or cut multi-byte character) cannot reach `parse`, which
/// takes a `&str`, and is skipped.
fn variants(text: &str) -> impl Iterator<Item = (String, String)> + '_ {
    let bytes = text.as_bytes();
    let flips = (0..bytes.len()).map(move |at| {
        let mut damaged = bytes.to_vec();
        damaged[at] ^= 0x01;
        (format!("byte {at} flipped"), damaged)
    });
    let cuts =
        (0..bytes.len()).map(move |len| (format!("cut to {len} bytes"), bytes[..len].to_vec()));
    flips
        .chain(cuts)
        .filter_map(|(damage, bytes)| Some((damage, String::from_utf8(bytes).ok()?)))
}

/// Parses every variant of `text` and checks the round trip.
fn hostile(name: &str, text: &str) {
    let original = json::parse(text).unwrap_or_else(|e| panic!("{name}: undamaged input: {e}"));
    assert_eq!(
        json::parse(&original.to_json()),
        Ok(original),
        "{name}: undamaged round trip"
    );
    let mut accepted = 0;
    for (damage, damaged) in variants(text) {
        let parsed = catch_unwind(AssertUnwindSafe(|| json::parse(&damaged)))
            .unwrap_or_else(|_| panic!("{name}, {damage}: parse panicked"));
        if let Ok(value) = parsed {
            accepted += 1;
            let again = value.to_json();
            assert_eq!(
                json::parse(&again),
                Ok(value),
                "{name}, {damage}: {damaged:?} re-serialised to {again:?}"
            );
        }
    }
    // Damage inside a string or a number leaves many documents valid,
    // so the round trip is exercised, not only the error paths.
    assert!(accepted > 0, "{name}: no damaged variant parsed");
}

#[test]
fn a_damaged_sealed_document_parses_consistently_or_not_at_all() {
    hostile("sealed document", &sealed());
}

#[test]
fn a_damaged_bench_summary_parses_consistently_or_not_at_all() {
    hostile("metrics/BENCH_fig7.json", BENCH_FIG7);
}

#[test]
fn a_damaged_journal_line_parses_consistently_or_not_at_all() {
    let line = JOURNAL_X7
        .lines()
        .next()
        .expect("the x7 journal has a line");
    hostile("metrics/JOURNAL_x7_corners.jsonl line 1", line);
}
