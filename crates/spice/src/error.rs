//! Error type for the circuit simulator.

use core::fmt;

use samurai_waveform::WaveformError;

/// Errors from netlist construction or simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpiceError {
    /// The system matrix is singular (typically a floating subcircuit
    /// with gmin disabled, or a voltage-source loop).
    SingularMatrix {
        /// Index of the MNA unknown whose pivot collapsed. The error
        /// is built on the Newton hot path, so it carries the plain
        /// index (no allocation); resolve it to a node name with
        /// [`CompiledCircuit::unknown_name`] at a reporting boundary.
        ///
        /// [`CompiledCircuit::unknown_name`]: crate::CompiledCircuit::unknown_name
        col: usize,
    },
    /// Newton–Raphson failed to converge.
    NonConvergence {
        /// Simulation time at which convergence failed (NaN for DC).
        time: f64,
        /// Iterations attempted.
        iterations: usize,
        /// Largest node-voltage update of the final iteration.
        max_delta: f64,
        /// Largest KCL residual at the final iterate (amperes).
        max_residual: f64,
    },
    /// The adaptive transient step shrank below the floor.
    StepUnderflow {
        /// Simulation time at which the step collapsed.
        time: f64,
        /// The rejected step size.
        dt: f64,
        /// Rescue-ladder rungs attempted on the failing step before
        /// giving up.
        rescue_rungs: usize,
    },
    /// A non-finite value (NaN/∞) appeared in the Newton update: the
    /// iteration is numerically destroyed and cannot recover by
    /// iterating further.
    NumericalBreakdown {
        /// Simulation time at which the breakdown occurred (NaN for
        /// DC).
        time: f64,
        /// The iteration that produced the non-finite update.
        iteration: usize,
    },
    /// A node name was looked up that does not exist in the circuit.
    UnknownNode {
        /// The offending name.
        name: String,
    },
    /// An element id was used with the wrong circuit or element kind.
    InvalidElement {
        /// Explanation of the misuse.
        reason: &'static str,
    },
    /// An element parameter is out of its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Supplied value.
        value: f64,
    },
    /// Simulation output failed waveform construction (e.g. a
    /// degenerate time grid).
    Waveform(WaveformError),
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SingularMatrix { col } => {
                write!(f, "singular system matrix (pivot lost at unknown #{col})")
            }
            Self::NonConvergence {
                time,
                iterations,
                max_delta,
                max_residual,
            } => {
                write!(
                    f,
                    "newton iteration failed to converge at t = {time} after {iterations} iterations (final max |dV| = {max_delta:.3e} V, max |residual| = {max_residual:.3e} A)"
                )
            }
            Self::StepUnderflow {
                time,
                dt,
                rescue_rungs,
            } => {
                write!(
                    f,
                    "transient step underflow at t = {time} (dt = {dt:.3e}, {rescue_rungs} rescue rungs attempted)"
                )
            }
            Self::NumericalBreakdown { time, iteration } => {
                write!(
                    f,
                    "numerical breakdown (non-finite newton update) at t = {time}, iteration {iteration}"
                )
            }
            Self::UnknownNode { name } => write!(f, "unknown node `{name}`"),
            Self::InvalidElement { reason } => write!(f, "invalid element use: {reason}"),
            Self::InvalidParameter { name, value } => {
                write!(f, "parameter `{name}` is out of range: {value}")
            }
            Self::Waveform(e) => write!(f, "simulation output is not a valid waveform: {e}"),
        }
    }
}

impl From<WaveformError> for SpiceError {
    fn from(e: WaveformError) -> Self {
        Self::Waveform(e)
    }
}

impl std::error::Error for SpiceError {}

#[cfg(test)]
mod tests {
    use super::SpiceError;

    #[test]
    fn display_is_informative() {
        let msg = SpiceError::SingularMatrix { col: 3 }.to_string();
        assert!(msg.contains("singular"), "{msg}");
        assert!(msg.contains("#3"), "{msg}");
        let e = SpiceError::NonConvergence {
            time: 1e-9,
            iterations: 100,
            max_delta: 2.5e-3,
            max_residual: 4.0e-7,
        };
        let msg = e.to_string();
        assert!(msg.contains("100"), "{msg}");
        assert!(msg.contains("2.500e-3"), "{msg}");
        assert!(msg.contains("4.000e-7"), "{msg}");
        assert!(SpiceError::UnknownNode { name: "q".into() }
            .to_string()
            .contains("`q`"));
    }

    #[test]
    fn underflow_and_breakdown_carry_their_diagnostics() {
        let e = SpiceError::StepUnderflow {
            time: 3e-9,
            dt: 1e-19,
            rescue_rungs: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains("1.000e-19"), "{msg}");
        assert!(msg.contains("5 rescue rungs"), "{msg}");
        let b = SpiceError::NumericalBreakdown {
            time: 2e-9,
            iteration: 7,
        };
        let msg = b.to_string();
        assert!(msg.contains("non-finite"), "{msg}");
        assert!(msg.contains('7'), "{msg}");
    }
}
