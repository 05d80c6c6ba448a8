//! Oxide-trap physics for RTN simulation.
//!
//! Random Telegraph Noise originates from individual traps in the gate
//! oxide of a MOS transistor that randomly capture and emit channel
//! electrons (paper §II). This crate models:
//!
//! * the **device context** a trap lives in ([`DeviceParams`]) — oxide
//!   thickness, geometry, threshold voltage, temperature;
//! * a **single trap** ([`TrapParams`]) — its depth `y_tr` into the
//!   oxide, its energy level `E_tr`, the Kirton–Uren `τ₀`/`γ`
//!   tunnelling parameters and degeneracy `g`;
//! * the **propensity model** ([`PropensityModel`]) implementing the
//!   paper's Eq (1) and Eq (2): the capture/emission rates `λc(t)`,
//!   `λe(t)` as a function of the instantaneous gate bias;
//! * **statistical trap profiling** ([`TrapProfiler`], [`Technology`])
//!   standing in for the Dunga profiling model of reference \[6\]: trap
//!   counts are Poisson in device area, depths uniform in the oxide and
//!   energies uniform in a band around the Fermi level;
//! * the exact **master equation** for the two-state occupancy
//!   probability ([`master`]) used to validate the stochastic
//!   simulation in `samurai-core`.
//!
//! # Example
//!
//! ```
//! use samurai_trap::{DeviceParams, TrapParams, PropensityModel};
//! use samurai_units::{Energy, Length};
//!
//! let device = DeviceParams::nominal_90nm();
//! let trap = TrapParams::new(Length::from_nanometres(1.0), Energy::from_ev(0.3));
//! let model = PropensityModel::new(device, trap);
//!
//! // Eq (1): the rate sum is bias independent.
//! let (lc0, le0) = model.propensities(0.2);
//! let (lc1, le1) = model.propensities(1.0);
//! assert!(((lc0 + le0) - (lc1 + le1)).abs() < 1e-6 * (lc0 + le0));
//!
//! // Raising the gate bias pulls the trap below the Fermi level:
//! // capture dominates, the trap tends to fill.
//! assert!(model.stationary_occupancy(1.0) > model.stationary_occupancy(0.2));
//! ```

pub mod degradation;
mod device;
pub mod master;
mod physics;
mod profile;
mod trap_params;

pub use degradation::{aging_vth_shift, nbti_shift, single_charge_vth_shift};
pub use device::DeviceParams;
pub use physics::PropensityModel;
pub use profile::{poisson, standard_normal, Technology, TrapProfiler};
pub use trap_params::{TrapParams, TrapState};
