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
//! and energies, devices with large NBTI shifts tend to have large RTN
//! — the correlation [`rtn_nbti_correlation`] quantifies over a sampled
//! device population. Exploiting it (margins add in quadrature rather
//! than linearly) is the first design lever the paper lists.

use rand::Rng;

use samurai_units::constants::ELEMENTARY_CHARGE;

use crate::{master, DeviceParams, PropensityModel, Technology, TrapParams, TrapState};

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

/// The stationary RTN threshold-fluctuation amplitude at the readout
/// bias: `σ = δV·√(Σ_i p_i(1−p_i))`.
pub fn rtn_sigma(device: &DeviceParams, traps: &[TrapParams], v_read: f64) -> f64 {
    let dv = single_charge_vth_shift(device);
    let var: f64 = traps
        .iter()
        .map(|&trap| {
            let p = PropensityModel::new(*device, trap).stationary_occupancy(v_read);
            p * (1.0 - p)
        })
        .sum();
    dv * var.sqrt()
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

/// Result of the population correlation study.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationStudy {
    /// Per-device `(ΔV_NBTI, σ_RTN)` pairs, volts.
    pub samples: Vec<(f64, f64)>,
    /// Pearson correlation coefficient between the two columns.
    pub pearson: f64,
}

/// Samples `devices` trap populations from `tech` and computes the
/// Pearson correlation between each device's NBTI shift (after
/// `stress_time` at `v_stress`) and its RTN amplitude (at `v_read`).
///
/// # Panics
///
/// Panics if `devices < 3`.
pub fn rtn_nbti_correlation<R: Rng + ?Sized>(
    tech: &Technology,
    devices: usize,
    v_stress: f64,
    v_read: f64,
    stress_time: f64,
    rng: &mut R,
) -> CorrelationStudy {
    assert!(
        devices >= 3,
        "need at least three devices for a correlation"
    );
    let profiler = crate::TrapProfiler::new(tech.clone());
    let samples: Vec<(f64, f64)> = (0..devices)
        .map(|_| {
            let traps = profiler.sample(rng);
            (
                nbti_shift(&tech.device, &traps, v_stress, stress_time),
                rtn_sigma(&tech.device, &traps, v_read),
            )
        })
        .collect();

    let n = samples.len() as f64;
    let mx = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let my = samples.iter().map(|s| s.1).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for &(x, y) in &samples {
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
        sxy += (x - mx) * (y - my);
    }
    let pearson = if sxx > 0.0 && syy > 0.0 {
        sxy / (sxx * syy).sqrt()
    } else {
        0.0
    };
    CorrelationStudy { samples, pearson }
}

/// The recovery transient: after `stress_time` of stress, the bias
/// drops to `v_recovery` and the shift relaxes. Returns `ΔV_T` sampled
/// at `n` uniform points over `recovery_time`, computed trap-by-trap
/// through the exact master equation.
pub fn recovery_transient(
    device: &DeviceParams,
    traps: &[TrapParams],
    v_stress: f64,
    stress_time: f64,
    v_recovery: f64,
    recovery_time: f64,
    n: usize,
) -> Vec<(f64, f64)> {
    assert!(n >= 2, "need at least two samples");
    let dv = single_charge_vth_shift(device);
    let models: Vec<(PropensityModel, f64)> = traps
        .iter()
        .map(|&trap| {
            let model = PropensityModel::new(*device, trap);
            let p_after_stress =
                master::constant_bias_occupancy(&model, v_stress, 0.0, stress_time);
            (model, p_after_stress)
        })
        .collect();
    (0..n)
        .map(|k| {
            let t = recovery_time * k as f64 / (n - 1) as f64;
            let shift: f64 = models
                .iter()
                .map(|(model, p0)| master::constant_bias_occupancy(model, v_recovery, *p0, t))
                .sum::<f64>()
                * dv;
            (t, shift)
        })
        .collect()
}

/// Stochastic cross-check of [`nbti_shift`]: the ensemble-averaged
/// filled count from actual uniformisation runs, for test use.
#[doc(hidden)]
pub fn stochastic_mean_filled<R: Rng + ?Sized>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
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

    #[test]
    fn rtn_sigma_peaks_for_half_filled_traps() {
        let d = device();
        let trap = TrapParams::new(Length::from_nanometres(1.7), Energy::from_ev(0.4));
        let model = PropensityModel::new(d, trap);
        // Compare the balanced bias against saturated biases.
        let v_bal = model.balanced_bias();
        let at_balance = rtn_sigma(&d, &[trap], v_bal);
        let saturated = rtn_sigma(&d, &[trap], v_bal + 1.0);
        assert!(at_balance > 5.0 * saturated.max(1e-15));
        assert!((at_balance - 0.5 * single_charge_vth_shift(&d)).abs() < 1e-6);
    }

    #[test]
    fn rtn_and_nbti_are_positively_correlated_across_devices() {
        let tech = Technology::node_45nm();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let study = rtn_nbti_correlation(&tech, 200, tech.vdd.volts(), 0.6, 1.0, &mut rng);
        assert_eq!(study.samples.len(), 200);
        assert!(
            study.pearson > 0.3,
            "common-root-cause correlation expected, got r = {}",
            study.pearson
        );
    }

    #[test]
    fn recovery_relaxes_towards_the_recovery_bias_occupancy() {
        let d = device();
        let traps = test_traps();
        let curve = recovery_transient(&d, &traps, 1.1, 10.0, 0.0, 1e3, 20);
        assert_eq!(curve.len(), 20);
        // Monotone non-increasing relaxation when recovering at a
        // lower (emptying) bias.
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12, "{w:?}");
        }
        assert!(curve[0].1 > curve[curve.len() - 1].1);
    }
}
