// `!(tf > t0)`-style horizon guards are deliberate: unlike `tf <= t0`,
// the negated comparison also rejects NaN bounds.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

//! The SAMURAI core: non-stationary RTN trace generation by Markov
//! uniformisation.
//!
//! This crate implements the paper's primary contribution — **Algorithm
//! 1**, which simulates each oxide trap's two-state time-inhomogeneous
//! Markov chain *exactly* by uniformisation (thinning): candidate events
//! are drawn from a stationary chain running at the constant rate
//! `λ* = λc + λe` (constant by Eq 1), then each candidate is kept with
//! probability `λ_next(t)/λ*`, which provably restores the original
//! chain's non-stationary statistics.
//!
//! On top of the single-trap simulator ([`simulate_trap`], and
//! [`simulate_trap_probed`] with an explicit event budget and a
//! telemetry probe) sit:
//!
//! * [`RtnGenerator`] — multi-trap devices, the `N_filled(t)`
//!   staircase and the Eq (3) RTN current;
//! * validation utilities ([`ensemble_occupancy_observed`]) comparing
//!   ensemble statistics against the exact master equation;
//! * the deterministic parallel Monte-Carlo engine
//!   ([`ensemble`]) that shards trap/seed/cell sweeps
//!   over a worker pool with bit-identical results at any
//!   [`Parallelism`];
//! * **baselines**: an exact stationary Gillespie SSA, a naive
//!   frozen-rate SSA, a fixed-time-step Bernoulli discretisation
//!   ([`gillespie`]), and a Ye-et-al.-style white-noise two-stage
//!   generator ([`ye`]) — the method the paper compares against.
//!
//! # Example
//!
//! ```
//! use samurai_core::{RtnGenerator, BiasWaveforms};
//! use samurai_trap::{DeviceParams, TrapParams};
//! use samurai_units::{Energy, Length};
//! use samurai_waveform::Pwl;
//!
//! let device = DeviceParams::nominal_90nm();
//! let traps = vec![TrapParams::new(
//!     Length::from_nanometres(1.6),
//!     Energy::from_ev(0.35),
//! )];
//! let generator = RtnGenerator::new(device, traps).with_seed(42);
//!
//! // Constant 0.9 V gate bias, 10 µA drain current, 1 ms horizon.
//! let bias = BiasWaveforms::new(Pwl::constant(0.9), Pwl::constant(10e-6));
//! let rtn = generator.generate(&bias, 0.0, 1e-3)?;
//! assert!(rtn.i_rtn.max_value() >= 0.0);
//! # Ok::<(), samurai_core::CoreError>(())
//! ```

mod bias;
pub mod checkpoint;
pub mod ensemble;
mod error;
pub mod faults;
mod generator;
pub mod gillespie;
mod rng;
mod rtn_current;
pub mod scenario;
mod uniformisation;
pub mod ye;

pub use bias::BiasWaveforms;
pub use checkpoint::{
    fnv1a64, run_ensemble_checkpointed, write_checkpoint_atomic, CheckpointConfig, RunBudget,
    RunControls, Snapshot, CHECKPOINT_SCHEMA, KILL_EXIT,
};
pub use ensemble::{
    run_ensemble_resilient_observed, Completion, EnsembleAccumulator, EnsembleOutcome,
    ExecutionPolicy, FailurePolicy, FailureReport, JobFailure, JobPanic, Parallelism, RescuedJob,
};
pub use error::CoreError;
pub use faults::{FaultArm, FaultKind, FaultPlan, FaultSite, InjectedFault};
pub use generator::{DeviceRtn, RtnGenerator};
pub use rng::{exp_rand, trap_rng, SeedStream};
pub use rtn_current::{blocked_fraction, rtn_current, single_trap_amplitude};
pub use samurai_telemetry as telemetry;
pub use scenario::{DeviceGeometry, DeviceVariation, ScenarioConfig, ScenarioSample};
pub use uniformisation::{
    ensemble_occupancy_observed, simulate_trap, simulate_trap_probed, ClosedLoopTrap,
    UniformisationConfig,
};
