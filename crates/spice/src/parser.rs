//! A SPICE-dialect netlist parser.
//!
//! Supports the subset of classic SPICE-deck syntax the simulator can
//! represent, so circuits can be described in text instead of builder
//! calls:
//!
//! ```text
//! * comment lines start with '*'
//! Vdd   vdd 0  DC 1.1
//! Vin   in  0  PWL(0 0  1n 0  1.1n 1.1)
//! Vclk  ck  0  PULSE(0 1.1 2n 0.1n 0.1n 3n 8n)
//! R1    in  a  10k
//! C1    a   0  5f
//! Iinj  0   a  DC 1u
//! M1    d g s  NMOS  W=240n L=90n
//! M2    d g vdd PMOS W=480n L=90n
//! ```
//!
//! * Element kind comes from the first letter of the name (R/C/V/I/M),
//!   case-insensitive.
//! * Values accept engineering suffixes `f p n u m k meg g t` (and
//!   `MEG` for 1e6, since `m` is milli).
//! * MOSFETs take a model name (`NMOS`/`PMOS`, mapped to the 90 nm
//!   defaults) plus optional `W=`/`L=` overrides.
//! * `.tran tstep tstop` needs `0 < tstep < tstop` and an output grid
//!   of at most 10⁶ points.
//! * `.end` and blank lines are ignored; anything else is an error
//!   with a line number.

use crate::{Circuit, ElementId, MosfetParams, Source, SpiceError};
use samurai_waveform::Pwl;
use std::collections::BTreeMap;

/// Most points a `.tran` output grid may hold: a consumer samples the
/// run at every `tstep` from 0 to `tstop`, `round(tstop / tstep) + 1`
/// points in all.
const MAX_TRAN_POINTS: f64 = 1e6;

/// A parsed netlist: the circuit plus name → element-id lookup.
#[derive(Debug, Clone)]
pub struct ParsedNetlist {
    /// The constructed circuit.
    pub circuit: Circuit,
    /// Element ids by (upper-cased) element name.
    pub elements: BTreeMap<String, ElementId>,
    /// A `.tran tstep tstop` directive, if present (suggested output
    /// step and stop time, both in seconds).
    pub tran: Option<(f64, f64)>,
}

impl ParsedNetlist {
    /// Looks up an element by its netlist name (case-insensitive).
    pub fn element(&self, name: &str) -> Option<ElementId> {
        self.elements.get(&name.to_ascii_uppercase()).copied()
    }
}

/// Error with netlist position information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseNetlistError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "netlist line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseNetlistError {}

impl From<ParseNetlistError> for SpiceError {
    fn from(e: ParseNetlistError) -> Self {
        SpiceError::InvalidElement {
            reason: Box::leak(e.to_string().into_boxed_str()),
        }
    }
}

/// Parses a numeric value with an optional engineering suffix.
///
/// # Errors
///
/// Returns a description of the malformed token, or of a value that is
/// not finite (`nan`, `infinity`, or a magnitude past `f64::MAX` such
/// as `1e400`).
pub fn parse_value(token: &str) -> Result<f64, String> {
    let t = token.trim();
    if t.is_empty() {
        return Err("empty value".into());
    }
    let lower = t.to_ascii_lowercase();
    // Check multi-letter suffix first (meg), then single letters.
    let (digits, scale) = if let Some(stripped) = lower.strip_suffix("meg") {
        (stripped, 1e6)
    } else {
        let last = lower.chars().last().expect("non-empty token"); // lint: allow(HYG002): token verified non-empty above
        let scale = match last {
            'f' => Some(1e-15),
            'p' => Some(1e-12),
            'n' => Some(1e-9),
            'u' => Some(1e-6),
            'm' => Some(1e-3),
            'k' => Some(1e3),
            'g' => Some(1e9),
            't' => Some(1e12),
            _ => None,
        };
        match scale {
            Some(s) => (&lower[..lower.len() - 1], s),
            None => (lower.as_str(), 1.0),
        }
    };
    let value = digits
        .parse::<f64>()
        .map(|v| v * scale)
        .map_err(|_| format!("malformed value `{token}`"))?;
    if value.is_finite() {
        Ok(value)
    } else {
        Err(format!("non-finite value `{token}`"))
    }
}

/// Splits a source specification into either DC or a waveform.
fn parse_source(tokens: &[&str], line: usize) -> Result<Source, ParseNetlistError> {
    let err = |message: String| ParseNetlistError { line, message };
    if tokens.is_empty() {
        return Err(err("missing source value".into()));
    }
    let joined = tokens.join(" ");
    let upper = joined.to_ascii_uppercase();
    if let Some(rest) = upper.strip_prefix("DC") {
        let value = parse_value(rest.trim()).map_err(|m| err(format!("bad DC value: {m}")))?;
        return Ok(Source::Dc(value));
    }
    if upper.starts_with("PWL") {
        let inner =
            extract_parens(&joined).ok_or_else(|| err("PWL needs a parenthesised list".into()))?;
        let nums = split_numbers(&inner).map_err(&err)?;
        if nums.len() < 2 || nums.len() % 2 != 0 {
            return Err(err("PWL needs an even number of values (t v pairs)".into()));
        }
        let points: Vec<(f64, f64)> = nums.chunks(2).map(|c| (c[0], c[1])).collect();
        let pwl = Pwl::new(points).map_err(|e| err(format!("bad PWL: {e}")))?;
        return Ok(Source::Pwl(pwl));
    }
    if upper.starts_with("PULSE") {
        let inner = extract_parens(&joined)
            .ok_or_else(|| err("PULSE needs a parenthesised list".into()))?;
        let nums = split_numbers(&inner).map_err(&err)?;
        if nums.len() != 7 {
            return Err(err(
                "PULSE needs 7 values: v1 v2 delay rise fall width period".into(),
            ));
        }
        let (v1, v2, delay, rise, fall, width, period) = (
            nums[0], nums[1], nums[2], nums[3], nums[4], nums[5], nums[6],
        );
        if period <= 0.0 || width <= 0.0 || rise <= 0.0 || fall <= 0.0 {
            return Err(err("PULSE durations must be positive".into()));
        }
        // Expand a finite but long pulse train (the simulator clamps
        // past the last breakpoint, so 64 periods is plenty for the
        // horizons this toolkit uses).
        let mut points = vec![(0.0f64.min(delay - 1e-18), v1)];
        for k in 0..64 {
            let start = delay + k as f64 * period;
            points.push((start, v1));
            points.push((start + rise, v2));
            points.push((start + rise + width, v2));
            points.push((start + rise + width + fall, v1));
        }
        // Deduplicate/monotonise defensively.
        points.dedup_by(|a, b| a.0 <= b.0);
        let pwl = Pwl::new(points).map_err(|e| err(format!("bad PULSE: {e}")))?;
        return Ok(Source::Pwl(pwl));
    }
    // Bare value = DC.
    if tokens.len() == 1 {
        let value = parse_value(tokens[0]).map_err(|m| err(format!("bad value: {m}")))?;
        return Ok(Source::Dc(value));
    }
    Err(err(format!("unrecognised source spec `{joined}`")))
}

fn extract_parens(s: &str) -> Option<String> {
    let open = s.find('(')?;
    let close = s.rfind(')')?;
    if close <= open {
        return None;
    }
    Some(s[open + 1..close].to_string())
}

fn split_numbers(s: &str) -> Result<Vec<f64>, String> {
    s.split(|c: char| c.is_whitespace() || c == ',')
        .filter(|t| !t.is_empty())
        .map(parse_value)
        .collect()
}

/// Parses a netlist into a [`Circuit`].
///
/// # Errors
///
/// Returns the first syntax error with its line number.
pub fn parse_netlist(text: &str) -> Result<ParsedNetlist, ParseNetlistError> {
    let mut circuit = Circuit::new();
    let mut elements = BTreeMap::new();
    let mut tran = None;

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let err = |message: String| ParseNetlistError {
            line: line_no,
            message,
        };
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        if line.starts_with('.') {
            // `.tran tstep tstop` is captured; other directives
            // (`.end`, `.option`, …) are accepted and ignored.
            let tokens: Vec<&str> = line.split_whitespace().collect();
            if tokens[0].eq_ignore_ascii_case(".tran") {
                if tokens.len() != 3 {
                    return Err(err(".tran needs: .tran tstep tstop".into()));
                }
                let tstep = parse_value(tokens[1]).map_err(err)?;
                let tstop = parse_value(tokens[2]).map_err(err)?;
                if !(tstep > 0.0 && tstop > tstep) {
                    return Err(err("need 0 < tstep < tstop".into()));
                }
                if (tstop / tstep).round() + 1.0 > MAX_TRAN_POINTS {
                    return Err(err(format!(
                        ".tran grid exceeds {MAX_TRAN_POINTS:e} points (tstop / tstep = {:e})",
                        tstop / tstep
                    )));
                }
                tran = Some((tstep, tstop));
            }
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let name = tokens[0].to_ascii_uppercase();
        let kind = name.chars().next().expect("non-empty token"); // lint: allow(HYG002): blank lines are skipped by the loop guard

        let id = match kind {
            'R' => {
                if tokens.len() != 4 {
                    return Err(err("resistor needs: Rname n1 n2 value".into()));
                }
                let a = circuit.node(tokens[1]);
                let b = circuit.node(tokens[2]);
                let v = parse_value(tokens[3]).map_err(err)?;
                if v <= 0.0 {
                    return Err(err(format!("resistance must be positive, got {v}")));
                }
                circuit.resistor(a, b, v)
            }
            'C' => {
                if tokens.len() != 4 {
                    return Err(err("capacitor needs: Cname n1 n2 value".into()));
                }
                let a = circuit.node(tokens[1]);
                let b = circuit.node(tokens[2]);
                let v = parse_value(tokens[3]).map_err(err)?;
                if v <= 0.0 {
                    return Err(err(format!("capacitance must be positive, got {v}")));
                }
                circuit.capacitor(a, b, v)
            }
            'V' => {
                if tokens.len() < 4 {
                    return Err(err("voltage source needs: Vname n+ n- spec".into()));
                }
                let plus = circuit.node(tokens[1]);
                let minus = circuit.node(tokens[2]);
                let source = parse_source(&tokens[3..], line_no)?;
                circuit.vsource(plus, minus, source)
            }
            'I' => {
                if tokens.len() < 4 {
                    return Err(err("current source needs: Iname from to spec".into()));
                }
                let from = circuit.node(tokens[1]);
                let to = circuit.node(tokens[2]);
                let source = parse_source(&tokens[3..], line_no)?;
                circuit.isource(from, to, source)
            }
            'M' => {
                if tokens.len() < 5 {
                    return Err(err("mosfet needs: Mname d g s MODEL [W=..] [L=..]".into()));
                }
                let d = circuit.node(tokens[1]);
                let g = circuit.node(tokens[2]);
                let s = circuit.node(tokens[3]);
                let model = tokens[4].to_ascii_uppercase();
                let mut params = match model.as_str() {
                    "NMOS" => MosfetParams::nmos_90nm(1.0),
                    "PMOS" => MosfetParams::pmos_90nm(1.0),
                    other => {
                        return Err(err(format!(
                            "unknown MOSFET model `{other}` (NMOS/PMOS supported)"
                        )))
                    }
                };
                for kv in &tokens[5..] {
                    let (key, value) = kv
                        .split_once('=')
                        .ok_or_else(|| err(format!("expected KEY=value, got `{kv}`")))?;
                    let v = parse_value(value).map_err(err)?;
                    match key.to_ascii_uppercase().as_str() {
                        "W" => params.width = v,
                        "L" => params.length = v,
                        "VTH" => params.vth = v,
                        other => return Err(err(format!("unknown MOSFET parameter `{other}`"))),
                    }
                }
                if params.width <= 0.0 || params.length <= 0.0 {
                    return Err(err("W and L must be positive".into()));
                }
                circuit.mosfet(d, g, s, params)
            }
            other => {
                return Err(err(format!(
                    "unknown element kind `{other}` (R/C/V/I/M supported)"
                )))
            }
        };
        if elements.insert(name.clone(), id).is_some() {
            return Err(err(format!("duplicate element name `{name}`")));
        }
    }

    Ok(ParsedNetlist {
        circuit,
        elements,
        tran,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dc_operating_point, run_transient, DcConfig, TransientConfig};

    #[test]
    fn value_suffixes() {
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * want.abs();
        assert!(close(parse_value("10k").unwrap(), 10e3));
        assert!(close(parse_value("5f").unwrap(), 5e-15));
        assert!(close(parse_value("2.5n").unwrap(), 2.5e-9));
        assert!(close(parse_value("3MEG").unwrap(), 3e6));
        assert!(close(parse_value("1m").unwrap(), 1e-3));
        assert!(close(parse_value("-4u").unwrap(), -4e-6));
        assert!(close(parse_value("100").unwrap(), 100.0));
        assert!(parse_value("abc").is_err());
        assert!(parse_value("").is_err());
        for bad in ["nan", "nanf", "inf", "-infinity", "1e400", "1e306meg"] {
            assert!(parse_value(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn non_finite_values_are_rejected_with_their_line() {
        for (deck, line) in [
            ("R1 a b nanf\n", 1),
            ("V1 a 0 DC 1\nR1 a b 1e400\n", 2),
            ("Vdd a 0 DC infinity\n", 1),
            ("R1 d 0 1k\nM1 d g 0 NMOS W=nanu\n", 2),
            ("C1 a 0 infn\n", 1),
        ] {
            let e = parse_netlist(deck).unwrap_err();
            assert_eq!(e.line, line, "{deck:?}");
            assert!(e.message.contains("non-finite"), "{deck:?}: {e}");
        }
    }

    #[test]
    fn parses_and_solves_a_divider() {
        let net = parse_netlist(
            "* a divider\n\
             Vs  a 0 DC 3\n\
             R1  a b 1k\n\
             R2  b 0 2k\n\
             .end\n",
        )
        .unwrap();
        assert_eq!(net.circuit.element_count(), 3);
        assert!(net.element("r1").is_some());
        assert!(net.element("zzz").is_none());
        let x = dc_operating_point(&net.circuit, 0.0, &DcConfig::default()).unwrap();
        let b = net.circuit.find_node("b").unwrap().unknown_index().unwrap();
        assert!((x[b] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn parses_pwl_and_pulse_sources() {
        let net = parse_netlist(
            "Vin in 0 PWL(0 0 1n 0 1.1n 1.1)\n\
             Vck ck 0 PULSE(0 1.1 2n 0.1n 0.1n 3n 8n)\n\
             R1 in 0 1k\n\
             R2 ck 0 1k\n",
        )
        .unwrap();
        let res = run_transient(&net.circuit, 0.0, 12e-9, &TransientConfig::default()).unwrap();
        let vin = res.voltage(&net.circuit, "in").unwrap();
        assert!((vin.eval(5e-9) - 1.1).abs() < 1e-9);
        let vck = res.voltage(&net.circuit, "ck").unwrap();
        assert!((vck.eval(3e-9) - 1.1).abs() < 1e-9, "pulse high");
        assert!(vck.eval(6e-9).abs() < 1e-9, "pulse low again");
        assert!((vck.eval(11e-9) - 1.1).abs() < 1e-9, "second period");
    }

    #[test]
    fn parses_an_inverter_with_mosfet_params() {
        let net = parse_netlist(
            "Vdd vdd 0 DC 1.1\n\
             Vin a 0 DC 0\n\
             M1 y a 0 NMOS W=240n L=90n\n\
             M2 y a vdd PMOS W=480n L=90n\n\
             C1 y 0 1f\n",
        )
        .unwrap();
        let m1 = net.element("M1").unwrap();
        let params = net.circuit.mosfet_params(m1).unwrap();
        assert!((params.width - 240e-9).abs() < 1e-15);
        let x = dc_operating_point(&net.circuit, 0.0, &DcConfig::default()).unwrap();
        let y = net.circuit.find_node("y").unwrap().unknown_index().unwrap();
        assert!(
            x[y] > 1.0,
            "inverter output high for low input, got {}",
            x[y]
        );
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let e = parse_netlist("R1 a b 1k\nXQ a b c\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("unknown element kind"));

        let e = parse_netlist("R1 a b\n").unwrap_err();
        assert_eq!(e.line, 1);

        let e = parse_netlist("R1 a b 1k\nR1 b c 2k\n").unwrap_err();
        assert!(e.message.contains("duplicate"));

        let e = parse_netlist("V1 a 0 PWL(0 0 1n)\n").unwrap_err();
        assert!(e.message.contains("even number"));

        let e = parse_netlist("M1 d g s BJT\n").unwrap_err();
        assert!(e.message.contains("unknown MOSFET model"));

        let e = parse_netlist("R1 a b -5\n").unwrap_err();
        assert!(e.message.contains("positive"));
    }

    #[test]
    fn comments_blanks_and_directives_are_ignored() {
        let net = parse_netlist(
            "* top comment\n\
             \n\
             .option whatever\n\
             R1 a 0 1k\n\
             .end\n",
        )
        .unwrap();
        assert_eq!(net.circuit.element_count(), 1);
    }
}
