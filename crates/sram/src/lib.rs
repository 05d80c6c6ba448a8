//! SRAM analysis under Random Telegraph Noise — the application layer
//! of the SAMURAI reproduction.
//!
//! This crate assembles the substrates (`samurai-spice`,
//! `samurai-trap`, `samurai-core`) into the paper's methodology and its
//! extensions:
//!
//! * [`SramCell`] — a 6T cell netlist (Fig 1) with per-transistor RTN
//!   current-source hooks;
//! * [`WriteTiming`] / [`build_write_waveforms`] — test patterns of
//!   writes (WL strobes, NRZ bit lines), including the paper's
//!   `[1,1,0,1,0,1,0,0,1]` demonstration pattern;
//! * [`analyze_writes`] — write-error / write-slowdown classification
//!   of a simulated `Q` waveform (the distinction of Fig 5);
//! * [`run_methodology`] — the full two-pass SPICE → SAMURAI → SPICE
//!   flow of Fig 8, with the paper's ×30 RTN scaling knob. The
//!   read-disturb, ring-oscillator and column flows run the same
//!   crate-private two-pass step on their own circuits: pass 1, RTN
//!   per transistor from its pass-1 bias, pass 2 with the RTN
//!   injected;
//! * extensions from the paper's future-work list: bi-directionally
//!   [`coupled`] RTN+circuit simulation (item 1), Monte-Carlo
//!   [`array`](mod@array)-level bit-error analysis with `V_T` variation (items 2
//!   and 3), generated SRAM [`column`](mod@column) arrays with shared bit lines
//!   and periphery, [`read`]-disturb analysis (footnote 2) and a
//!   ring-oscillator RTN study ([`ringosc`], item 4);
//! * [`margin`] — the parameterised design-margin model behind the
//!   Fig 2 reproduction.
//!
//! Per-job variability, supply/temperature corners, NBTI aging and
//! trap-count dispersion all flow through one deterministic sampling
//! surface: a [`samurai_core::scenario::ScenarioConfig`] attached to
//! the ensemble configurations ([`ColumnEnsembleConfig::scenario`],
//! [`array::ArrayConfig::scenario`]),
//! expanded per job from the master seed, lowered onto the
//! transistors by one crate-private function shared by the array and
//! the column, and applied to each job's netlist before it is compiled
//! as a [`ParamPatch`](samurai_spice::ParamPatch).
//!
//! # Example: is this cell compromised by RTN?
//!
//! ```no_run
//! use samurai_sram::{MethodologyConfig, run_methodology};
//! use samurai_waveform::BitPattern;
//!
//! let config = MethodologyConfig {
//!     rtn_scale: 30.0, // the paper's accelerated-RTN factor
//!     seed: 7,
//!     ..MethodologyConfig::default()
//! };
//! let report = run_methodology(&BitPattern::paper_fig8(), &config)?;
//! println!("write outcomes: {:?}", report.outcomes);
//! # Ok::<(), samurai_sram::SramError>(())
//! ```

pub mod accelerated;
pub mod array;
mod cell;
pub mod column;
pub mod coupled;
mod detect;
mod error;
mod harness;
pub mod margin;
mod pattern;
pub mod read;
pub mod ringosc;
mod scenario;
pub mod snm;

pub use cell::{cell_geometries, SramCell, SramCellParams, Transistor};
pub use column::{
    run_column_ensemble, run_column_ensemble_observed, ColumnConfig, ColumnEnsembleConfig,
    ColumnMemberResult, ColumnStats, ColumnTiming, SramColumn,
};
pub use detect::{analyze_writes, CycleOutcome, WriteAnalysis};
pub use error::SramError;
pub use harness::{run_methodology, MethodologyConfig, MethodologyReport, TransistorRtn};
pub use pattern::{build_write_waveforms, WriteTiming, WriteWaveforms};
