//! Error type for SRAM analysis.

use core::fmt;

use samurai_core::faults::InjectedFault;
use samurai_core::{CoreError, JobPanic};
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
