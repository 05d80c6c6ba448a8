//! A hand-rolled JSON value, writer and minimal parser.
//!
//! The workspace builds hermetically against vendored dependency
//! stubs; the vendored `serde` is an API placeholder that serialises
//! nothing. Telemetry output (journal lines, `BENCH_*.json`
//! summaries) and the CI schema validator therefore use this small
//! self-contained implementation instead.
//!
//! Determinism notes: object members are emitted in insertion order
//! (callers insert in a fixed order), integers are carried exactly as
//! `u64`, and floats are written with Rust's shortest-roundtrip
//! formatting — the same input value always serialises to the same
//! bytes. Non-finite floats serialise as `null` (JSON has no NaN),
//! which the schema validator rejects as a missing finite number.

use std::fmt::{self, Write as _};

/// FNV-1a 64-bit over `bytes` — the content hash of every canonical
/// JSON payload the stack persists (checkpoint snapshots, serve
/// tickets and store documents). Stable, dependency-free and fast;
/// this is an integrity check against torn writes and bit rot, not a
/// cryptographic seal.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Wraps `payload` in the sealed envelope every persisted document
/// uses: `{"schema":schema,"hash":H,"payload":payload}`, where `H` is
/// [`fnv1a64`] over the payload's compact serialisation.
#[must_use]
pub fn seal(schema: &str, payload: JsonValue) -> JsonValue {
    let hash = fnv1a64(payload.to_json().as_bytes());
    JsonValue::obj(vec![
        ("schema", JsonValue::Str(schema.to_owned())),
        ("hash", JsonValue::U64(hash)),
        ("payload", payload),
    ])
}

/// Checks a [`seal`]ed envelope and returns its payload. Payloads
/// whose numbers are all integers re-serialise to the bytes they were
/// hashed from, so the hash is recomputable from the parsed tree.
///
/// # Errors
///
/// A one-word reason: `schema` when the schema tag differs from
/// `schema` or the `schema`, `hash` or `payload` member is missing,
/// `hash` when the payload does not hash to `hash`.
pub fn open<'a>(doc: &'a JsonValue, schema: &str) -> Result<&'a JsonValue, &'static str> {
    if doc.get("schema").and_then(JsonValue::as_str) != Some(schema) {
        return Err("schema");
    }
    let hash = doc
        .get("hash")
        .and_then(JsonValue::as_u64)
        .ok_or("schema")?;
    let payload = doc.get("payload").ok_or("schema")?;
    if fnv1a64(payload.to_json().as_bytes()) != hash {
        return Err("hash");
    }
    Ok(payload)
}

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact unsigned integer (counters, counts).
    U64(u64),
    /// A double-precision number (times, rates).
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered members.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, preserving order.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, JsonValue)>) -> Self {
        Self::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Looks up a member of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::U64(n) => Some(*n as f64),
            Self::F64(x) if x.is_finite() => Some(*x),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is an unsigned integer.
    /// Unlike [`JsonValue::as_f64`] this never widens through floating
    /// point, so checkpoint bit-patterns round-trip exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serialises the tree to compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out)
            .expect("writing into a String cannot fail"); // lint: allow(HYG002): fmt::Write on String is infallible
        out
    }

    fn write(&self, out: &mut String) -> fmt::Result {
        match self {
            Self::Null => out.write_str("null"),
            Self::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Self::U64(n) => write!(out, "{n}"),
            Self::F64(x) if x.is_finite() => {
                // Guarantee a number token that parses back as f64
                // (write!("{x}") would print "1" for 1.0).
                // lint: allow(HYG004): exact integrality test picks the "%.1f" rendering
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(out, "{x:.1}")
                } else {
                    write!(out, "{x}")
                }
            }
            Self::F64(_) => out.write_str("null"),
            Self::Str(s) => write_escaped(out, s),
            Self::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            Self::Obj(members) => {
                out.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_escaped(out, k)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// deepest document the workspace writes nests 9 levels (a fig7
/// checkpoint: envelope, payload, job slots, a job's PSD rows); the
/// limit stands well above that and keeps a hostile document (say
/// 1 MiB of `[` sent to the job service) from overflowing the parsing
/// thread's stack.
pub const MAX_DEPTH: usize = 64;

/// Parses a JSON document under the RFC 8259 grammar, with three
/// limits: at most [`MAX_DEPTH`] levels of nesting, every number must
/// be a finite double (`1e400` is an error), and a `\u` escape must
/// name a Unicode scalar value on its own (surrogate pairs such as
/// `\ud83d\ude00` are rejected; the workspace's writer never emits
/// them). No trailing garbage is accepted.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error,
/// with its byte offset.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| format!("truncated \\u at byte {}", self.pos))?;
                            // `from_str_radix` alone would take a sign
                            // (`\u+041`); JSON wants four hex digits.
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err(format!("invalid \\u at byte {}", self.pos));
                            }
                            let code = hex.iter().fold(0, |code, &digit| {
                                code * 16 + char::from(digit).to_digit(16).unwrap_or(0)
                            });
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid \\u at byte {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(format!("control character in string at byte {}", self.pos)),
                None => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let invalid = || format!("invalid number at byte {start}");
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // int = "0" / digit1-9 *DIGIT: no leading zeros.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(invalid()),
        }
        let mut integral = !negative;
        // frac = "." 1*DIGIT
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(invalid());
            }
            integral = false;
        }
        // exp = ("e" / "E") ["-" / "+"] 1*DIGIT
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'-' | b'+')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(invalid());
            }
            integral = false;
        }
        // The token is ASCII by construction.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| invalid())?;
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::U64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(JsonValue::F64(x)),
            _ => Err(format!("number out of range at byte {start}")),
        }
    }

    /// Consumes a run of ASCII digits; `false` if there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn sealed_documents_open_and_name_their_defect() {
        let payload = JsonValue::obj(vec![("n", JsonValue::U64(7))]);
        let doc = seal("demo-v1", payload.clone());
        assert_eq!(
            doc.to_json(),
            format!(
                "{{\"schema\":\"demo-v1\",\"hash\":{},\"payload\":{{\"n\":7}}}}",
                fnv1a64(b"{\"n\":7}")
            )
        );
        let reopened = parse(&doc.to_json()).unwrap();
        assert_eq!(open(&reopened, "demo-v1"), Ok(&payload));
        assert_eq!(open(&reopened, "demo-v2"), Err("schema"));
        let tampered = parse(&doc.to_json().replace(":7}", ":8}")).unwrap();
        assert_eq!(open(&tampered, "demo-v1"), Err("hash"));
        let bare = JsonValue::obj(vec![("schema", JsonValue::Str("demo-v1".into()))]);
        assert_eq!(open(&bare, "demo-v1"), Err("schema"));
    }

    #[test]
    fn roundtrips_a_summary_like_document() {
        let doc = JsonValue::obj(vec![
            ("name", JsonValue::Str("fig7".into())),
            ("jobs", JsonValue::U64(2700)),
            ("wall_seconds", JsonValue::F64(1.25)),
            (
                "latency",
                JsonValue::obj(vec![("p50_s", JsonValue::F64(4.5e-4))]),
            ),
            ("flags", JsonValue::Arr(vec![JsonValue::Bool(true)])),
        ]);
        let text = doc.to_json();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("jobs").and_then(JsonValue::as_f64), Some(2700.0));
        assert_eq!(back.get("name").and_then(JsonValue::as_str), Some("fig7"));
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(JsonValue::F64(2.0).to_json(), "2.0");
        assert_eq!(JsonValue::U64(2).to_json(), "2");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::F64(f64::NAN).to_json(), "null");
        assert_eq!(JsonValue::F64(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn strings_are_escaped_and_unescaped() {
        let doc = JsonValue::Str("a\"b\\c\nd\u{1}".into());
        let text = doc.to_json();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1 2", "nul", "\"x"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        // A megabyte of openers, on a thread with the default stack:
        // without the limit the recursion overflows it and aborts the
        // process.
        let hostile = std::thread::spawn(|| {
            const MIB: usize = 1 << 20;
            [parse(&"[".repeat(MIB)), parse(&"{\"a\":".repeat(MIB / 5))]
        })
        .join()
        .expect("the parser thread survives");
        for result in hostile {
            assert!(result.unwrap_err().contains("nesting deeper than"));
        }
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn parses_negative_and_exponent_numbers() {
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::F64(-1500.0));
        assert_eq!(parse("42").unwrap(), JsonValue::U64(42));
        assert_eq!(parse("0").unwrap(), JsonValue::U64(0));
        assert_eq!(parse("-0").unwrap(), JsonValue::F64(-0.0));
        assert_eq!(parse("2E+2").unwrap(), JsonValue::F64(200.0));
        assert_eq!(parse("0.5e-1").unwrap(), JsonValue::F64(0.05));
        assert_eq!(parse("1e-400").unwrap(), JsonValue::F64(0.0));
        // Past u64::MAX an integer is carried as a double.
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            JsonValue::F64(18_446_744_073_709_551_616.0)
        );
    }

    #[test]
    fn numbers_outside_the_json_grammar_are_rejected() {
        for bad in [
            "01", "-01", "00", "1.", "-1.", ".5", "-", "+1", "1e", "1e+", "1.e3", "0x10", "1e400",
            "-1e400", "[1e999]", "Infinity", "NaN",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), JsonValue::Str("A".into()));
        assert_eq!(
            parse("\"\\u00e9\"").unwrap(),
            JsonValue::Str("\u{e9}".into())
        );
        for bad in [
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u04G1\"",
            "\"\\u041\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        for bad in ["\"a\nb\"", "\"\t\"", "{\"k\u{1}\":1}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Escaped, the same characters are fine.
        assert_eq!(parse("\"a\\nb\"").unwrap(), JsonValue::Str("a\nb".into()));
    }
}
