//! Eq (3): from trap occupancy to RTN current.
//!
//! Given the device's filled-trap count `N_filled(t)` and the bias
//! waveforms, the paper's Eq (3) (van der Ziel's number-fluctuation
//! model \[19\]) gives
//!
//! ```text
//! I_RTN(t) = I_d(t) / (W·L·N(t)) · N_filled(t)
//! ```
//!
//! Each trapped carrier removes roughly one carrier's share of the
//! channel current. `W·L·N(t)` is the total carrier count, computed by
//! [`DeviceParams::carrier_count`] from the instantaneous gate bias.

use crate::BiasWaveforms;
use samurai_trap::DeviceParams;
use samurai_waveform::Pwc;

/// RTN amplitude of a *single filled trap* at one bias point:
/// `ΔI = I_d / (W·L·N)`.
///
/// The carrier count is floored at one: Eq (3) is a number-fluctuation
/// model, and with less than one carrier in the channel a single
/// trapped electron can at most block the entire current (it cannot
/// amplify it). Without the floor, subthreshold leakage divided by a
/// vanishing `N` produces unphysical glitches.
pub fn single_trap_amplitude(device: &DeviceParams, v_gs: f64, i_d: f64) -> f64 {
    i_d / device.carrier_count(v_gs).max(1.0)
}

/// The share of the channel current that `filled` trapped carriers
/// block at gate bias `v_gs`: `N_filled / (W·L·N)`, with the carrier
/// count floored at one (see [`single_trap_amplitude`]) and the share
/// capped at the whole current. Eq (3) is `I_RTN = I_d ·` this share.
pub fn blocked_fraction(device: &DeviceParams, v_gs: f64, filled: f64) -> f64 {
    (filled / device.carrier_count(v_gs).max(1.0)).min(1.0)
}

/// Synthesises the Eq (3) RTN current from the filled-trap staircase.
///
/// The result is piecewise constant on the union of the trap-transition
/// times, the bias breakpoints and `oversample` additional uniform
/// sample points across the horizon (the bias varies *continuously*
/// between breakpoints, so the staircase is an approximation refined by
/// oversampling; 0 disables it).
pub fn rtn_current(
    device: &DeviceParams,
    n_filled: &Pwc,
    bias: &BiasWaveforms,
    t0: f64,
    tf: f64,
    oversample: usize,
) -> Pwc {
    let mut extra = bias.breakpoints();
    extra.retain(|&t| t >= t0 && t <= tf);
    if oversample > 0 {
        let dt = (tf - t0) / (oversample + 1) as f64;
        extra.extend((1..=oversample).map(|i| t0 + i as f64 * dt));
    }
    n_filled.mul_fn(&extra, |t| {
        let filled = n_filled.eval(t);
        // No filled trap, no current: `mul_fn` multiplies this 0.0 by
        // `filled`, so the bias and carrier count need no evaluation.
        if !(filled > 0.0) {
            return 0.0;
        }
        let v = bias.v_gs.eval(t);
        let id = bias.i_d.eval(t);
        id * blocked_fraction(device, v, filled) / filled
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use samurai_waveform::Pwl;

    fn device() -> DeviceParams {
        DeviceParams::nominal_90nm()
    }

    #[test]
    fn amplitude_scales_inversely_with_carrier_count() {
        let d = device();
        let id = 10e-6;
        let weak = single_trap_amplitude(&d, d.v_th.volts() + 0.1, id);
        let strong = single_trap_amplitude(&d, d.v_th.volts() + 0.8, id);
        // More carriers at higher bias -> smaller per-trap glitch.
        assert!(weak > strong);
        assert!(strong > 0.0);
    }

    #[test]
    fn amplitude_is_a_sensible_fraction_of_the_drain_current() {
        // For a 90 nm device in strong inversion the carrier count is
        // ~1e3-1e4, so one trap steals 0.01-0.1 % of I_d.
        let d = device();
        let id = 10e-6;
        let di = single_trap_amplitude(&d, 1.0, id);
        let rel = di / id;
        assert!(rel > 1e-5 && rel < 1e-2, "relative amplitude {rel}");
    }

    #[test]
    fn current_is_occupancy_times_amplitude_under_constant_bias() {
        let d = device();
        let bias = BiasWaveforms::constant(0.9, 5e-6);
        let occ = Pwc::new(vec![(0.0, 0.0), (1e-3, 1.0), (2e-3, 0.0), (3e-3, 2.0)]).unwrap();
        let i = rtn_current(&d, &occ, &bias, 0.0, 4e-3, 0);
        let di = single_trap_amplitude(&d, 0.9, 5e-6);
        assert!((i.eval(0.5e-3) - 0.0).abs() < 1e-18);
        assert!((i.eval(1.5e-3) - di).abs() < 1e-12 * di);
        assert!((i.eval(3.5e-3) - 2.0 * di).abs() < 1e-12 * di);
    }

    #[test]
    fn current_follows_a_drain_current_ramp() {
        let d = device();
        let i_d = Pwl::new(vec![(0.0, 0.0), (1e-3, 10e-6)]).unwrap();
        let bias = BiasWaveforms::new(Pwl::constant(0.9), i_d);
        let occ = Pwc::constant(1.0); // one trap always filled
        let i = rtn_current(&d, &occ, &bias, 0.0, 1e-3, 64);
        // The RTN current should grow along the ramp.
        assert!(i.eval(0.9e-3) > i.eval(0.1e-3));
        // And match Eq (3) at the sample points.
        let t = 0.5e-3;
        let expected = bias.i_d.eval(t) / d.carrier_count(0.9);
        assert!(
            (i.eval(t) - expected).abs() < 0.05 * expected,
            "i = {}, expected = {expected}",
            i.eval(t)
        );
    }

    #[test]
    fn oversampling_refines_the_staircase() {
        let d = device();
        let i_d = Pwl::new(vec![(0.0, 0.0), (1e-3, 10e-6)]).unwrap();
        let bias = BiasWaveforms::new(Pwl::constant(0.9), i_d);
        let occ = Pwc::constant(1.0);
        let coarse = rtn_current(&d, &occ, &bias, 0.0, 1e-3, 0);
        let fine = rtn_current(&d, &occ, &bias, 0.0, 1e-3, 256);
        assert!(fine.steps().len() > coarse.steps().len());
    }
}
