//! A Ye-et-al.-style two-stage RTN generator (the paper's comparator).
//!
//! Reference \[10\] (Ye, Wang, Cao, ICCAD 2010) generates RTN-like
//! waveforms by pushing an *ideal white-noise source* through a
//! two-stage equivalent circuit: a first-order low-pass filter followed
//! by a threshold comparator. The output is a two-level waveform whose
//! corner frequency and duty cycle can be calibrated to one trap at one
//! bias point.
//!
//! The paper's critique — which experiment X2 reproduces — is that the
//! construction is inherently *stationary*: the filter corner and the
//! threshold are fixed at calibration time, so the generator cannot
//! track bias-dependent trap statistics, and the dense white-noise
//! source makes it expensive (one sample per `Δt` rather than one per
//! event).

use rand::Rng;

use crate::CoreError;
use samurai_trap::{standard_normal, PropensityModel};
use samurai_waveform::Pwc;

/// Configuration of the two-stage generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YeConfig {
    /// Time step of the white-noise source, as a fraction of the
    /// calibrated trap's `1/λΣ` (smaller = more faithful, slower).
    pub dt_fraction: f64,
}

impl Default for YeConfig {
    fn default() -> Self {
        Self { dt_fraction: 0.1 }
    }
}

/// Generates a stationary RTN-like waveform calibrated to `model` at
/// the single bias point `v_cal`.
///
/// Stage 1 shapes white noise into an Ornstein–Uhlenbeck (AR(1))
/// process whose correlation rate equals the trap's `λΣ`; stage 2
/// compares it against the Gaussian quantile of the trap's stationary
/// occupancy, so the fraction of time spent "filled" matches
/// `p∞(v_cal)`. The output is right-continuous two-level, like a real
/// trap's occupancy — but its statistics are frozen at `v_cal`.
///
/// # Errors
///
/// Returns [`CoreError::EmptyHorizon`] if `tf <= t0`.
pub fn generate<R: Rng + ?Sized>(
    model: &PropensityModel,
    v_cal: f64,
    t0: f64,
    tf: f64,
    rng: &mut R,
    config: &YeConfig,
) -> Result<Pwc, CoreError> {
    if !(tf > t0) {
        return Err(CoreError::EmptyHorizon { t0, tf });
    }
    let lambda = model.rate_sum();
    let dt = config.dt_fraction / lambda;
    // Clamp away from {0, 1}: a trap pinned in one state at the
    // calibration bias still gets a (far-away) finite threshold.
    let p = model.stationary_occupancy(v_cal).clamp(1e-12, 1.0 - 1e-12);
    // Threshold such that P[x > theta] = p for standard normal x.
    let theta = inverse_normal_cdf(1.0 - p);

    // AR(1): x[n+1] = a x[n] + sqrt(1-a^2) xi, correlation time 1/lambda.
    let a = (-lambda * dt).exp();
    let noise_gain = (1.0 - a * a).sqrt();

    let mut x = standard_normal(rng); // lint: allow(DET006): AR(1) process noise, not a device parameter
    let mut level = if x > theta { 1.0 } else { 0.0 };
    let mut steps = vec![(t0, level)];
    let n = ((tf - t0) / dt).ceil() as usize;
    for i in 1..=n {
        x = a * x + noise_gain * standard_normal(rng); // lint: allow(DET006): AR(1) process noise, not a device parameter
        let new_level = if x > theta { 1.0 } else { 0.0 };
        if new_level != level {
            level = new_level;
            let t = t0 + i as f64 * dt;
            if t <= tf {
                steps.push((t, level));
            }
        }
    }
    Ok(Pwc::new(steps)?)
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// relative error < 1.15e-9 over the open unit interval).
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "quantile argument must be in (0,1), got {p}"
    );
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedStream;
    use samurai_trap::{DeviceParams, TrapParams};
    use samurai_units::{Energy, Length};

    fn slow_model() -> PropensityModel {
        PropensityModel::new(
            DeviceParams::nominal_90nm(),
            TrapParams::new(Length::from_nanometres(1.8), Energy::from_ev(0.4)),
        )
    }

    #[test]
    fn inverse_normal_cdf_matches_known_quantiles() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.841344746) - 1.0).abs() < 1e-4);
        assert!((inverse_normal_cdf(1e-6) + 4.7534).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "(0,1)")]
    fn inverse_normal_cdf_rejects_endpoints() {
        let _ = inverse_normal_cdf(0.0);
    }

    #[test]
    fn occupancy_fraction_matches_calibration_point() {
        let m = slow_model();
        let v = m.balanced_bias() + 0.05;
        let p = m.stationary_occupancy(v);
        let tf = 2000.0 / m.rate_sum();
        let occ = generate(
            &m,
            v,
            0.0,
            tf,
            &mut SeedStream::new(3).rng(0),
            &YeConfig::default(),
        )
        .unwrap();
        let frac = occ.fraction_at(0.0, tf, 1.0, 0.0);
        assert!(
            (frac - p).abs() < 0.08,
            "Ye generator duty {frac} vs calibrated p {p}"
        );
    }

    #[test]
    fn output_is_two_level_and_toggling() {
        let m = slow_model();
        let occ = generate(
            &m,
            m.balanced_bias(),
            0.0,
            500.0 / m.rate_sum(),
            &mut SeedStream::new(4).rng(0),
            &YeConfig::default(),
        )
        .unwrap();
        assert!(occ.transition_count() > 10);
        for &(_, v) in occ.steps() {
            assert!(v == 0.0 || v == 1.0);
        }
    }

    #[test]
    fn cannot_track_bias_changes_by_construction() {
        // Calibrated at a bias where the trap is half-filled; the real
        // trap would be ~fully filled at v+0.4. The Ye waveform's duty
        // stays at the calibration value: this *is* the drawback the
        // paper cites, demonstrated.
        let m = slow_model();
        let v_cal = m.balanced_bias();
        let real_p_at_high_bias = m.stationary_occupancy(v_cal + 0.4);
        let tf = 2000.0 / m.rate_sum();
        let occ = generate(
            &m,
            v_cal,
            0.0,
            tf,
            &mut SeedStream::new(5).rng(0),
            &YeConfig::default(),
        )
        .unwrap();
        let frac = occ.fraction_at(0.0, tf, 1.0, 0.0);
        assert!(real_p_at_high_bias > 0.95);
        assert!(
            (frac - 0.5).abs() < 0.1,
            "Ye duty should stay near calibration: {frac}"
        );
    }

    #[test]
    fn empty_horizon_is_rejected() {
        let m = slow_model();
        assert!(generate(
            &m,
            0.5,
            1.0,
            1.0,
            &mut SeedStream::new(0).rng(0),
            &YeConfig::default()
        )
        .is_err());
    }
}
