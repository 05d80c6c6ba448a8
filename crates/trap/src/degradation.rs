//! NBTI-style threshold degradation from the same trap population that
//! produces RTN — the common-root-cause correlation of paper §I-B.
//!
//! Recent measurements (the paper's ref \[1\]) show RTN and NBTI are
//! positively correlated, most likely because both come from charge
//! trapped in the gate oxide: RTN is the *fluctuation* of the trapped
//! charge, NBTI the slow net *build-up* of its mean under stress. In a
//! trap-level picture both quantities are functionals of the same
//! population:
//!
//! * each filled trap shifts `V_T` by the charge-sheet value
//!   `δV = q/(C_ox·W·L)`;
//! * the **NBTI shift** after stress time `t` is
//!   `ΔV_T(t) = δV·Σ_i p_i(t)` with `p_i(t)` the (master-equation)
//!   occupancy under the stress bias;
//! * the **RTN amplitude** is the fluctuation of the same sum,
//!   `σ_RTN = δV·√(Σ_i p_i(1−p_i))` at the readout bias.
//!
//! Because both grow with the trap count and couple to the same depths
//! and energies, devices with large NBTI shifts tend to have large RTN.
//! Exploiting that correlation (margins add in quadrature rather than
//! linearly) is the first design lever the paper lists.

use samurai_units::constants::ELEMENTARY_CHARGE;

use crate::{master, DeviceParams, PropensityModel, TrapParams};

/// Per-trap threshold shift (charge-sheet approximation),
/// `δV = q/(C_ox·W·L)`, in volts.
pub fn single_charge_vth_shift(device: &DeviceParams) -> f64 {
    ELEMENTARY_CHARGE / (device.c_ox() * device.area())
}

/// The mean NBTI threshold shift of a device after `stress_time`
/// seconds at the constant `v_stress` gate bias, starting from empty
/// traps: `ΔV_T = δV·Σ_i p_i(t)`.
pub fn nbti_shift(
    device: &DeviceParams,
    traps: &[TrapParams],
    v_stress: f64,
    stress_time: f64,
) -> f64 {
    let dv = single_charge_vth_shift(device);
    traps
        .iter()
        .map(|&trap| {
            let model = PropensityModel::new(*device, trap);
            master::constant_bias_occupancy(&model, v_stress, 0.0, stress_time)
        })
        .sum::<f64>()
        * dv
}

/// The scenario-driven aging shift: the NBTI threshold delta of one
/// device after a scenario's stress time at the scenario's
/// (corner-scaled) stress bias, computed from the **same** trap
/// population that generates the device's RTN — the common-root-cause
/// co-simulation of paper §I-B, driven from one `ScenarioSample`
/// instead of module-local knobs.
///
/// A non-positive stress time (the nominal scenario) is an exact
/// no-op: it returns `0.0` without evaluating the master equation, so
/// unaged jobs stay bit-identical to the pre-scenario path.
pub fn aging_vth_shift(
    device: &DeviceParams,
    traps: &[TrapParams],
    v_stress: f64,
    stress_time: f64,
) -> f64 {
    if stress_time <= 0.0 || traps.is_empty() {
        return 0.0;
    }
    nbti_shift(device, traps, v_stress, stress_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrapState;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use samurai_units::{Energy, Length};

    fn device() -> DeviceParams {
        DeviceParams::nominal_90nm()
    }

    fn test_traps() -> Vec<TrapParams> {
        vec![
            TrapParams::new(Length::from_nanometres(1.5), Energy::from_ev(0.3)),
            TrapParams::new(Length::from_nanometres(1.7), Energy::from_ev(0.4)),
            TrapParams::new(Length::from_nanometres(1.9), Energy::from_ev(0.5)),
        ]
    }

    /// Stochastic cross-check of [`nbti_shift`]: the ensemble-averaged
    /// filled count from one-trap jump simulations at constant rates.
    fn stochastic_mean_filled<R: Rng + ?Sized>(
        device: &DeviceParams,
        traps: &[TrapParams],
        v_stress: f64,
        stress_time: f64,
        runs: usize,
        rng: &mut R,
    ) -> f64 {
        let mut total = 0.0;
        for _ in 0..runs {
            for &trap in traps {
                let model = PropensityModel::new(*device, trap);
                // Cheap one-trap jump simulation with constant rates.
                let (lc, le) = model.propensities(v_stress);
                let mut state = TrapState::Empty;
                let mut t = 0.0;
                loop {
                    let rate = match state {
                        TrapState::Filled => le,
                        TrapState::Empty => lc,
                    };
                    if rate <= 0.0 {
                        break;
                    }
                    let u: f64 = rng.gen();
                    t += -(1.0 - u).ln() / rate;
                    if t > stress_time {
                        break;
                    }
                    state = state.toggled();
                }
                total += state.occupancy();
            }
        }
        total / runs as f64
    }

    #[test]
    fn single_charge_shift_is_sub_millivolt_at_90nm() {
        let dv = single_charge_vth_shift(&device());
        assert!(dv > 1e-4 && dv < 2e-3, "delta-V per trap = {dv}");
    }

    #[test]
    fn nbti_shift_grows_with_stress_time_and_saturates() {
        let d = device();
        let traps = test_traps();
        let v = 1.1;
        let short = nbti_shift(&d, &traps, v, 1e-9);
        let medium = nbti_shift(&d, &traps, v, 1e-3);
        let long = nbti_shift(&d, &traps, v, 1e3);
        let longer = nbti_shift(&d, &traps, v, 1e6);
        assert!(short < medium && medium <= long);
        // Saturation: all traps filled to their stationary occupancy.
        assert!((longer - long).abs() < 0.05 * long.max(1e-12));
        let dv = single_charge_vth_shift(&d);
        assert!(long <= traps.len() as f64 * dv * (1.0 + 1e-9));
    }

    #[test]
    fn nbti_shift_matches_the_stochastic_ensemble() {
        let d = device();
        let traps = test_traps();
        let v = 0.85;
        let t_stress = 5e-3;
        let analytic = nbti_shift(&d, &traps, v, t_stress);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mean_filled = stochastic_mean_filled(&d, &traps, v, t_stress, 4000, &mut rng);
        let stochastic = mean_filled * single_charge_vth_shift(&d);
        assert!(
            (analytic - stochastic).abs() < 0.05 * analytic.max(1e-9),
            "analytic {analytic} vs stochastic {stochastic}"
        );
    }

    #[test]
    fn aging_shift_is_an_exact_noop_at_zero_stress() {
        let d = device();
        let traps = test_traps();
        assert_eq!(aging_vth_shift(&d, &traps, 1.1, 0.0), 0.0);
        assert_eq!(aging_vth_shift(&d, &[], 1.1, 1e6), 0.0);
        let aged = aging_vth_shift(&d, &traps, 1.1, 1e3);
        assert_eq!(aged, nbti_shift(&d, &traps, 1.1, 1e3));
        assert!(aged > 0.0);
    }
}
