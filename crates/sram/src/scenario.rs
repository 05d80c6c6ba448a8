//! Lowering one job's [`ScenarioSample`] onto the transistors of the
//! cells it varies — the single place the array sweep and the column
//! ensemble turn a sampled corner into device parameters, trap
//! profiles and a corner technology.

use samurai_core::scenario::{ScenarioConfig, ScenarioSample, NOMINAL_TEMPERATURE};
use samurai_core::SeedStream;
use samurai_spice::MosfetAdjust;
use samurai_trap::{aging_vth_shift, Technology, TrapParams};
use samurai_units::Temperature;

use crate::cell::cell_mosfet_params;
use crate::harness::{profile_traps, trap_device_from_params};
use crate::SramCellParams;

/// The distribution of an ensemble whose `scenario` is `None`: a flat
/// 20 mV threshold mismatch and nothing else. Such an ensemble journals
/// no scenario stamp.
pub(crate) fn scenario_or_default(scenario: Option<ScenarioConfig>) -> ScenarioConfig {
    scenario.unwrap_or_else(|| ScenarioConfig::fixed_vth_sigma(0.02))
}

/// One job's scenario, lowered onto its transistors. Device `i` is
/// transistor `i % 6` of cell (or row) `i / 6`, in the sample's device
/// order.
pub(crate) struct LoweredScenario {
    /// Supply of the job's corner, volts.
    pub vdd: f64,
    /// The corner technology: the sampled temperature and the trap
    /// density scaled by the base and the sampled dispersion.
    pub technology: Technology,
    /// Thermal-voltage scale of the corner (`φ_t ∝ T / T_room`).
    pub phi_t_scale: f64,
    /// Per device: base shift plus mismatch plus NBTI aging, volts.
    pub vth_shift: Vec<f64>,
    /// Per device: the beta and geometry spread (no threshold delta).
    pub adjust: Vec<MosfetAdjust>,
    /// Per device: the trap profile, sampled at the varied width.
    pub traps: Vec<Vec<TrapParams>>,
}

/// Lowers `sample` onto `cell`'s transistors. Device `i`'s trap profile
/// is drawn from `trap_seeds(i)`: each caller passes its own seed
/// layout (DESIGN §19), which is also the stream its RTN site draws
/// from. The pull-up PMOS pair ages from the same traps that later
/// drive its RTN — the common-root-cause correlation of paper §I-B.
pub(crate) fn lower(
    sample: &ScenarioSample,
    cell: &SramCellParams,
    technology: &Technology,
    density_scale: f64,
    trap_seeds: impl Fn(usize) -> SeedStream,
) -> LoweredScenario {
    let vdd = cell.vdd * sample.vdd_scale;
    let mut technology = technology.clone();
    technology.device.temperature = Temperature::from_kelvin(sample.temperature);
    // Two roundings, in this order: the column's pinned results depend
    // on it.
    technology.trap_density *= density_scale;
    technology.trap_density *= sample.density_scale;

    let n = sample.devices.len();
    let mut vth_shift = Vec::with_capacity(n);
    let mut adjust = Vec::with_capacity(n);
    let mut traps = Vec::with_capacity(n);
    for (i, d) in sample.devices.iter().enumerate() {
        let t = i % 6;
        let mut shift = cell.vth_shift[t] + d.vth_delta;
        let mut params = cell_mosfet_params(cell, t).with_vth_shift(shift);
        // lint: allow(HYG004): exact-unit sentinel keeps nominal devices bit-identical
        if d.geom_scale != 1.0 {
            params.width *= d.geom_scale;
        }
        let device = trap_device_from_params(&params, &technology);
        let profile = profile_traps(&technology, device, 1.0, &trap_seeds(i));
        if matches!(t, 2 | 3) {
            shift += aging_vth_shift(&device, &profile, vdd, sample.stress_time);
        }
        vth_shift.push(shift);
        adjust.push(MosfetAdjust {
            vth_delta: 0.0,
            beta_scale: d.beta_scale,
            geom_scale: d.geom_scale,
        });
        traps.push(profile);
    }
    LoweredScenario {
        vdd,
        technology,
        phi_t_scale: sample.temperature / NOMINAL_TEMPERATURE,
        vth_shift,
        adjust,
        traps,
    }
}
