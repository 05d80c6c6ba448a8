//! A transient circuit simulator built on modified nodal analysis —
//! the SPICE substrate of the SAMURAI methodology.
//!
//! The paper's SRAM flow (Fig 8, left) runs two SPICE transient
//! simulations: one RTN-free pass to extract each transistor's bias
//! waveforms, and one pass with the generated `I_RTN` current sources
//! attached. The authors used SpiceOPUS with BSIM-4 models; this crate
//! is the from-scratch Rust equivalent documented in DESIGN.md §3:
//!
//! * [`Circuit`] — a netlist builder over named nodes with resistors,
//!   capacitors, DC/PWL voltage and current sources and MOSFETs;
//! * [`MosfetParams`] — a smooth EKV-style all-region MOSFET I–V
//!   (exponential subthreshold, square-law strong inversion, smooth
//!   saturation, channel-length modulation) with analytic derivatives
//!   and a simple constant-capacitance charge model;
//! * [`CompiledCircuit`] / [`NewtonWorkspace`] — the compile-once
//!   engine: node names resolved to dense indices, elements lowered to
//!   index-resolved device stamps, Jacobian fill pattern precomputed,
//!   and every solver buffer owned by a persistent workspace so the
//!   Newton/timestep loop allocates nothing;
//! * [`SparsityPattern`] / [`CscMatrix`] / [`SparseLu`] — the sparse
//!   linear-solve path for generated arrays: a Gilbert–Peierls LU over
//!   a compile-time symbolic analysis, selected automatically above
//!   [`SPARSE_AUTO_THRESHOLD`] unknowns (or forced via
//!   [`SolverChoice`]);
//! * [`dc_operating_point`] — Newton–Raphson with per-step damping and
//!   gmin stepping;
//! * [`run_transient`] — backward-Euler or trapezoidal integration with
//!   adaptive step control and PWL-source breakpoints, returning every
//!   node voltage as a [`samurai_waveform::Pwl`] ready to feed the RTN
//!   generator.
//!
//! DC and transient analysis both run through the single compiled
//! assembly/solve path: the free functions compile on the fly, while
//! the methods on [`CompiledCircuit`] reuse one workspace across runs
//! (see `CompiledCircuit::run_transient` and friends).
//!
//! # Example: an RC low-pass step response
//!
//! ```
//! use samurai_spice::{Circuit, Source, TransientConfig, run_transient};
//! use samurai_waveform::Pwl;
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.vsource(vin, Circuit::GROUND, Source::Pwl(Pwl::step(0.0, 1.0, 1e-9, 1e-12)?));
//! ckt.resistor(vin, vout, 1e3);
//! ckt.capacitor(vout, Circuit::GROUND, 1e-12); // tau = 1 ns
//! let result = run_transient(&ckt, 0.0, 10e-9, &TransientConfig::default())?;
//! let out = result.voltage(&ckt, "out")?;
//! assert!(out.eval(10e-9) > 0.99);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod compiled;
mod dcop;
mod error;
mod linalg;
mod mosfet;
mod netlist;
pub mod parser;
mod patch;
mod sparse;
mod transient;

pub use compiled::{
    CompiledCircuit, NewtonConfig, NewtonWorkspace, SolverChoice, SolverKind, SPARSE_AUTO_THRESHOLD,
};
pub use dcop::{dc_operating_point, DcConfig};
pub use error::SpiceError;
pub use linalg::DenseMatrix;
pub use mosfet::{MosType, MosfetParams};
pub use netlist::{Circuit, ElementId, NodeId, Source};
pub use parser::{parse_netlist, ParsedNetlist};
pub use patch::{MosfetAdjust, ParamPatch};
pub use samurai_telemetry::SolverStats;
pub use sparse::{CscMatrix, LuFactors, SparseLu, SparsityPattern};
pub use transient::{
    run_transient, Integrator, SourceWriter, TransientConfig, TransientResult, BREAKPOINT_SNAP,
};
