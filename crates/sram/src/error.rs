//! Error type for SRAM analysis.

use core::fmt;

use samurai_core::faults::InjectedFault;
use samurai_core::telemetry::JsonValue;
use samurai_core::{CoreError, JobPanic, Snapshot};
use samurai_spice::SpiceError;
use samurai_waveform::WaveformError;

/// Errors from the SRAM methodology and its extensions.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SramError {
    /// The circuit simulator failed.
    Spice(SpiceError),
    /// RTN trace generation failed.
    Rtn(CoreError),
    /// Waveform construction failed (usually a timing misconfiguration).
    Waveform(WaveformError),
    /// A configuration value is out of its valid domain.
    InvalidConfig {
        /// Explanation of the problem.
        reason: &'static str,
    },
}

impl fmt::Display for SramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Spice(e) => write!(f, "circuit simulation failed: {e}"),
            Self::Rtn(e) => write!(f, "rtn generation failed: {e}"),
            Self::Waveform(e) => write!(f, "waveform construction failed: {e}"),
            Self::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for SramError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Spice(e) => Some(e),
            Self::Rtn(e) => Some(e),
            Self::Waveform(e) => Some(e),
            Self::InvalidConfig { .. } => None,
        }
    }
}

impl From<SpiceError> for SramError {
    fn from(e: SpiceError) -> Self {
        Self::Spice(e)
    }
}

impl From<CoreError> for SramError {
    fn from(e: CoreError) -> Self {
        Self::Rtn(e)
    }
}

impl From<WaveformError> for SramError {
    fn from(e: WaveformError) -> Self {
        Self::Waveform(e)
    }
}

impl From<InjectedFault> for SramError {
    fn from(e: InjectedFault) -> Self {
        Self::Rtn(CoreError::Injected(e))
    }
}

impl From<JobPanic> for SramError {
    fn from(p: JobPanic) -> Self {
        Self::Rtn(CoreError::from(p))
    }
}

/// Serialises a [`SpiceError`] for a checkpoint snapshot. A free
/// function (not a [`Snapshot`] impl) because both the trait
/// and the type are foreign here; [`SramError`]'s own codec is the
/// only caller. Floats travel as IEEE-754 bit patterns so the
/// round-trip is `Debug`-exact.
fn encode_spice_error(e: &SpiceError) -> JsonValue {
    match e {
        SpiceError::SingularMatrix { col } => JsonValue::obj(vec![
            ("v", JsonValue::Str("singular_matrix".to_owned())),
            ("col", JsonValue::U64(*col as u64)),
        ]),
        SpiceError::NonConvergence {
            time,
            iterations,
            max_delta,
            max_residual,
        } => JsonValue::obj(vec![
            ("v", JsonValue::Str("non_convergence".to_owned())),
            ("time", JsonValue::U64(time.to_bits())),
            ("iterations", JsonValue::U64(*iterations as u64)),
            ("max_delta", JsonValue::U64(max_delta.to_bits())),
            ("max_residual", JsonValue::U64(max_residual.to_bits())),
        ]),
        SpiceError::StepUnderflow {
            time,
            dt,
            rescue_rungs,
        } => JsonValue::obj(vec![
            ("v", JsonValue::Str("step_underflow".to_owned())),
            ("time", JsonValue::U64(time.to_bits())),
            ("dt", JsonValue::U64(dt.to_bits())),
            ("rescue_rungs", JsonValue::U64(*rescue_rungs as u64)),
        ]),
        SpiceError::NumericalBreakdown { time, iteration } => JsonValue::obj(vec![
            ("v", JsonValue::Str("numerical_breakdown".to_owned())),
            ("time", JsonValue::U64(time.to_bits())),
            ("iteration", JsonValue::U64(*iteration as u64)),
        ]),
        SpiceError::UnknownNode { name } => JsonValue::obj(vec![
            ("v", JsonValue::Str("unknown_node".to_owned())),
            ("name", JsonValue::Str(name.clone())),
        ]),
        SpiceError::InvalidElement { reason } => JsonValue::obj(vec![
            ("v", JsonValue::Str("invalid_element".to_owned())),
            ("reason", JsonValue::Str((*reason).to_owned())),
        ]),
        SpiceError::InvalidParameter { name, value } => JsonValue::obj(vec![
            ("v", JsonValue::Str("invalid_parameter".to_owned())),
            ("name", JsonValue::Str((*name).to_owned())),
            ("value", JsonValue::U64(value.to_bits())),
        ]),
        SpiceError::Waveform(e) => JsonValue::obj(vec![
            ("v", JsonValue::Str("waveform".to_owned())),
            ("e", e.to_snapshot()),
        ]),
        // `SpiceError` is non-exhaustive; an unknown future variant
        // decodes to `None` and the checkpoint loader cold-starts.
        other => JsonValue::obj(vec![
            ("v", JsonValue::Str("unknown".to_owned())),
            ("debug", JsonValue::Str(format!("{other:?}"))),
        ]),
    }
}

/// Rebuilds a [`SpiceError`] written by [`encode_spice_error`].
/// `&'static str` diagnostics are restored by leaking the decoded
/// string — bounded by the (tiny) quarantine list of a resumed run.
fn decode_spice_error(v: &JsonValue) -> Option<SpiceError> {
    let f64_field = |key: &str| Some(f64::from_bits(v.get(key)?.as_u64()?));
    let usize_field = |key: &str| usize::try_from(v.get(key)?.as_u64().unwrap_or(u64::MAX)).ok();
    let leaked = |key: &str| -> Option<&'static str> {
        Some(Box::leak(v.get(key)?.as_str()?.to_owned().into_boxed_str()))
    };
    Some(match v.get("v")?.as_str()? {
        "singular_matrix" => SpiceError::SingularMatrix {
            col: usize_field("col")?,
        },
        "non_convergence" => SpiceError::NonConvergence {
            time: f64_field("time")?,
            iterations: usize_field("iterations")?,
            max_delta: f64_field("max_delta")?,
            max_residual: f64_field("max_residual")?,
        },
        "step_underflow" => SpiceError::StepUnderflow {
            time: f64_field("time")?,
            dt: f64_field("dt")?,
            rescue_rungs: usize_field("rescue_rungs")?,
        },
        "numerical_breakdown" => SpiceError::NumericalBreakdown {
            time: f64_field("time")?,
            iteration: usize_field("iteration")?,
        },
        "unknown_node" => SpiceError::UnknownNode {
            name: v.get("name")?.as_str()?.to_owned(),
        },
        "invalid_element" => SpiceError::InvalidElement {
            reason: leaked("reason")?,
        },
        "invalid_parameter" => SpiceError::InvalidParameter {
            name: leaked("name")?,
            value: f64_field("value")?,
        },
        "waveform" => SpiceError::Waveform(WaveformError::from_snapshot(v.get("e")?)?),
        _ => return None,
    })
}

impl Snapshot for SramError {
    fn to_snapshot(&self) -> JsonValue {
        match self {
            Self::Spice(e) => JsonValue::obj(vec![
                ("v", JsonValue::Str("spice".to_owned())),
                ("e", encode_spice_error(e)),
            ]),
            Self::Rtn(e) => JsonValue::obj(vec![
                ("v", JsonValue::Str("rtn".to_owned())),
                ("e", e.to_snapshot()),
            ]),
            Self::Waveform(e) => JsonValue::obj(vec![
                ("v", JsonValue::Str("waveform".to_owned())),
                ("e", e.to_snapshot()),
            ]),
            Self::InvalidConfig { reason } => JsonValue::obj(vec![
                ("v", JsonValue::Str("invalid_config".to_owned())),
                ("reason", JsonValue::Str((*reason).to_owned())),
            ]),
        }
    }

    fn from_snapshot(v: &JsonValue) -> Option<Self> {
        Some(match v.get("v")?.as_str()? {
            "spice" => Self::Spice(decode_spice_error(v.get("e")?)?),
            "rtn" => Self::Rtn(CoreError::from_snapshot(v.get("e")?)?),
            "waveform" => Self::Waveform(WaveformError::from_snapshot(v.get("e")?)?),
            "invalid_config" => Self::InvalidConfig {
                reason: Box::leak(v.get("reason")?.as_str()?.to_owned().into_boxed_str()),
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn conversions_and_sources() {
        let e: SramError = SpiceError::SingularMatrix { col: 1 }.into();
        assert!(e.to_string().contains("singular"));
        assert!(e.source().is_some());
        let e: SramError = CoreError::EmptyHorizon { t0: 0.0, tf: 0.0 }.into();
        assert!(matches!(e, SramError::Rtn(_)));
        let e = SramError::InvalidConfig { reason: "bad" };
        assert!(e.source().is_none());
    }

    #[test]
    fn checkpoint_codec_round_trips_debug_exactly() {
        let errors = [
            SramError::Spice(SpiceError::SingularMatrix { col: 4 }),
            SramError::Spice(SpiceError::NonConvergence {
                time: 1.5e-9,
                iterations: 40,
                max_delta: 0.25,
                max_residual: 1e-3,
            }),
            SramError::Spice(SpiceError::StepUnderflow {
                time: 2e-9,
                dt: 1e-18,
                rescue_rungs: 3,
            }),
            SramError::Spice(SpiceError::NumericalBreakdown {
                time: f64::NAN,
                iteration: 7,
            }),
            SramError::Spice(SpiceError::UnknownNode {
                name: "blx".to_owned(),
            }),
            SramError::Spice(SpiceError::InvalidElement { reason: "loop" }),
            SramError::Spice(SpiceError::InvalidParameter {
                name: "w",
                value: -1.0,
            }),
            SramError::Spice(SpiceError::Waveform(WaveformError::Empty)),
            SramError::Rtn(CoreError::Panicked {
                message: "poisoned sample".to_owned(),
            }),
            SramError::Rtn(CoreError::Injected(InjectedFault {
                kind: samurai_core::FaultKind::TimestepFloor,
                site: samurai_core::FaultSite::Job,
            })),
            SramError::Waveform(WaveformError::NonFinite { index: 2 }),
            SramError::InvalidConfig { reason: "bad" },
        ];
        for e in errors {
            let decoded = SramError::from_snapshot(&e.to_snapshot()).expect("decodes");
            // Debug-exact round-trip is what checkpoint/resume journal
            // byte-identity rests on (NaN prints as NaN either way).
            assert_eq!(format!("{decoded:?}"), format!("{e:?}"));
        }
    }

    #[test]
    fn a_job_panic_lands_in_the_rtn_arm() {
        let e = SramError::from(JobPanic {
            message: "boom".to_owned(),
        });
        assert!(matches!(
            e,
            SramError::Rtn(CoreError::Panicked { ref message }) if message == "boom"
        ));
    }
}
