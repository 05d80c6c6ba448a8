//! Autocorrelation and autocovariance estimation.
//!
//! The paper's Fig 7(a–c) plots `R(τ) = E[I_RTN(t)·I_RTN(t+τ)]` — the
//! *uncentred* autocorrelation — estimated numerically from generated
//! traces. Both the uncentred and the centred (autocovariance) flavours
//! are provided, with the usual biased (`1/N`) normalisation that keeps
//! the estimated sequence positive semi-definite, plus an unbiased
//! (`1/(N−k)`) variant and an FFT-accelerated path for long traces.

use crate::fft::circular_autocorrelation;
use samurai_waveform::Trace;

/// Uncentred autocorrelation estimate `R[k] ≈ E[x(t)·x(t+kΔt)]` for
/// lags `0..=max_lag`, biased normalisation (`1/N`).
///
/// # Panics
///
/// Panics if the signal is empty or `max_lag >= len`.
pub fn raw_autocorrelation(signal: &[f64], max_lag: usize) -> Vec<f64> {
    assert!(!signal.is_empty(), "signal must be non-empty");
    assert!(
        max_lag < signal.len(),
        "max_lag must be below the signal length"
    );
    let n = signal.len();
    (0..=max_lag)
        .map(|k| {
            signal[..n - k]
                .iter()
                .zip(&signal[k..])
                .map(|(a, b)| a * b)
                .sum::<f64>()
                / n as f64
        })
        .collect()
}

/// Centred autocovariance estimate `C[k] ≈ E[(x−μ)(x(t+kΔt)−μ)]`,
/// biased normalisation.
///
/// # Panics
///
/// Panics if the signal is empty or `max_lag >= len`.
pub fn autocovariance(signal: &[f64], max_lag: usize) -> Vec<f64> {
    assert!(!signal.is_empty(), "signal must be non-empty");
    let mean = signal.iter().sum::<f64>() / signal.len() as f64;
    let centred: Vec<f64> = signal.iter().map(|x| x - mean).collect();
    raw_autocorrelation(&centred, max_lag)
}

/// Unbiased (`1/(N−k)`) uncentred autocorrelation.
///
/// Larger variance at deep lags, but no bias — useful when comparing
/// decay constants against analytical forms.
///
/// # Panics
///
/// Panics if the signal is empty or `max_lag >= len`.
pub fn raw_autocorrelation_unbiased(signal: &[f64], max_lag: usize) -> Vec<f64> {
    assert!(!signal.is_empty(), "signal must be non-empty");
    assert!(
        max_lag < signal.len(),
        "max_lag must be below the signal length"
    );
    let n = signal.len();
    (0..=max_lag)
        .map(|k| {
            signal[..n - k]
                .iter()
                .zip(&signal[k..])
                .map(|(a, b)| a * b)
                .sum::<f64>()
                / (n - k) as f64
        })
        .collect()
}

/// FFT-accelerated uncentred autocorrelation (biased), O(N log N).
///
/// Zero-pads to avoid circular wrap-around, so it matches
/// [`raw_autocorrelation`] to rounding error. The transform is
/// [`circular_autocorrelation`], which computes only the requested lags
/// of the inverse.
///
/// # Panics
///
/// Panics if the signal is empty or `max_lag >= len`.
pub fn raw_autocorrelation_fft(signal: &[f64], max_lag: usize) -> Vec<f64> {
    assert!(!signal.is_empty(), "signal must be non-empty");
    assert!(
        max_lag < signal.len(),
        "max_lag must be below the signal length"
    );
    let n = signal.len();
    let padded = (2 * n).next_power_of_two();
    circular_autocorrelation(signal, padded, max_lag + 1)
        .into_iter()
        .map(|r| r / n as f64)
        .collect()
}

/// Autocorrelation of a [`Trace`], returned as `(lags_seconds, R)`.
///
/// # Panics
///
/// Panics if `max_lag >= trace.len()`.
pub fn trace_autocorrelation(trace: &Trace, max_lag: usize) -> (Vec<f64>, Vec<f64>) {
    let r = if trace.len() > 4096 {
        raw_autocorrelation_fft(trace.values(), max_lag)
    } else {
        raw_autocorrelation(trace.values(), max_lag)
    };
    let lags = (0..=max_lag).map(|k| k as f64 * trace.dt()).collect();
    (lags, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn lag_zero_is_the_mean_square() {
        let x = [1.0, -2.0, 3.0, -4.0];
        let r = raw_autocorrelation(&x, 0);
        assert!((r[0] - 30.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn autocovariance_of_constant_signal_is_zero() {
        let x = [5.0; 32];
        let c = autocovariance(&x, 4);
        for v in c {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn alternating_signal_has_alternating_correlation() {
        let x: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let r = raw_autocorrelation(&x, 3);
        assert!(r[0] > 0.9);
        assert!(r[1] < -0.9);
        assert!(r[2] > 0.9);
    }

    #[test]
    fn white_noise_decorrelates_immediately() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let x: Vec<f64> = (0..50_000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let c = autocovariance(&x, 5);
        let var = c[0];
        assert!((var - 1.0 / 3.0).abs() < 0.01, "variance {var}");
        for (lag, &cv) in c.iter().enumerate().skip(1) {
            assert!(cv.abs() < 0.01, "lag {lag}: {cv}");
        }
    }

    #[test]
    fn fft_path_matches_direct_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x: Vec<f64> = (0..777).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let direct = raw_autocorrelation(&x, 50);
        let fast = raw_autocorrelation_fft(&x, 50);
        for (a, b) in direct.iter().zip(&fast) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    /// The pruned path against the full textbook forward and inverse
    /// transforms, bit for bit — at lengths that are and are not powers
    /// of two, and at lag counts beyond a quarter of the padded length,
    /// where no inverse stage can be pruned.
    #[test]
    fn fft_path_is_the_full_inverse_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for n in [1usize, 2, 1000, 4096, 5000] {
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let full = crate::fft::textbook_autocorrelation(&x, (2 * n).next_power_of_two());
            for max_lag in [0, 1, 80, n - 1].into_iter().filter(|&k| k < n) {
                let fast = raw_autocorrelation_fft(&x, max_lag);
                assert_eq!(fast.len(), max_lag + 1);
                for (k, r) in fast.iter().enumerate() {
                    let want = full[k] / n as f64;
                    assert_eq!(r.to_bits(), want.to_bits(), "{n} samples, lag {k}");
                }
            }
        }
    }

    #[test]
    fn unbiased_equals_biased_scaled() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let n = x.len() as f64;
        let biased = raw_autocorrelation(&x, 3);
        let unbiased = raw_autocorrelation_unbiased(&x, 3);
        for k in 0..=3 {
            let expected = biased[k] * n / (n - k as f64);
            assert!((unbiased[k] - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn trace_autocorrelation_returns_physical_lags() {
        let t = Trace::from_fn(0.0, 1e-3, 100, |x| (x * 500.0).sin());
        let (lags, r) = trace_autocorrelation(&t, 10);
        assert_eq!(lags.len(), 11);
        assert_eq!(r.len(), 11);
        assert!((lags[10] - 1e-2).abs() < 1e-15);
    }

    #[test]
    fn ar1_correlation_decays_geometrically() {
        let a = 0.9;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut x = 0.0;
        let signal: Vec<f64> = (0..200_000)
            .map(|_| {
                let xi: f64 = rng.gen_range(-1.0..1.0);
                x = a * x + xi;
                x
            })
            .collect();
        let c = autocovariance(&signal, 10);
        for lag in 1..=10 {
            let expected = c[0] * a.powi(lag as i32);
            assert!(
                (c[lag] - expected).abs() < 0.05 * c[0],
                "lag {lag}: {} vs {expected}",
                c[lag]
            );
        }
    }

    /// The biased autocorrelation of a two-level 0/Δ trace from its
    /// filled runs `[start, end)` in sample order: `Σ x_n·x_{n+k}` is Δ²
    /// times the number of pairs `(n, n+k)` both filled, an integer
    /// counted exactly by walking each run against the runs shifted back
    /// by `k`; only the final `·Δ²/n` rounds.
    fn exact_two_level(
        filled: &[(usize, usize)],
        n: usize,
        delta: f64,
        max_lag: usize,
    ) -> Vec<f64> {
        (0..=max_lag)
            .map(|k| {
                let mut pairs = 0usize;
                // The first run that ends after `s + k`: the first that
                // can hold the partner of a sample of the run `[s, e)`.
                let mut first = 0;
                for &(s, e) in filled {
                    while first < filled.len() && filled[first].1 <= s + k {
                        first += 1;
                    }
                    for &(s2, e2) in &filled[first..] {
                        if s2 >= e + k {
                            break;
                        }
                        pairs += e.min(e2 - k) - s.max(s2.saturating_sub(k));
                    }
                }
                pairs as f64 * (delta * delta) / n as f64
            })
            .collect()
    }

    /// A Fig 7 panel's shape: one trap's occupancy staircase, dwells of
    /// a few tens of samples on average, sampled and scaled to Δ.
    fn fig7_like(n: usize, mean_dwell: f64, delta: f64, seed: u64) -> Trace {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dt = 1e-6;
        let (mut t, mut level, mut steps) = (0.0, 0.0, Vec::new());
        while t < n as f64 * dt {
            steps.push((t, level));
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() * mean_dwell * dt;
            level = if level == 0.0 { delta } else { 0.0 };
        }
        let occupancy = samurai_waveform::Pwc::new(steps).unwrap();
        occupancy.sample(0.0, dt, n)
    }

    /// The filled runs of a sampled 0/Δ trace.
    fn filled_runs(x: &[f64]) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut start = None;
        for (i, &v) in x.iter().chain([0.0].iter()).enumerate() {
            match (start, v != 0.0) {
                (None, true) => start = Some(i),
                (Some(s), false) => {
                    runs.push((s, i));
                    start = None;
                }
                _ => {}
            }
        }
        runs
    }

    /// Both estimators against the exact pair count, on Fig 7 shaped
    /// staircases: each agrees with it to its own rounding. The worst
    /// relative errors over these cases are recorded in DESIGN §16.
    #[test]
    fn both_paths_match_the_exact_pair_count_of_a_staircase() {
        let cases = [
            (5000, 7.0, 1),
            (1 << 14, 30.0, 2),
            (100_000, 40.0, 3),
            (1 << 20, 30.0, 4),
        ];
        for (n, dwell, seed) in cases {
            let delta = 3.7e-7;
            let trace = fig7_like(n, dwell, delta, seed);
            let x = trace.values();
            let exact = exact_two_level(&filled_runs(x), n, delta, 80);
            let worst = |r: &[f64]| {
                let rel = r.iter().zip(&exact).map(|(r, e)| ((r - e) / e).abs());
                rel.fold(0.0, f64::max)
            };
            let (direct, fast) = (
                worst(&raw_autocorrelation(x, 80)),
                worst(&raw_autocorrelation_fft(x, 80)),
            );
            // The rounding bound of a direct sum of n positive terms; the
            // FFT path's error, O(ε·log n) of R(0), stays inside it too.
            let bound = n as f64 * f64::EPSILON;
            assert!(
                direct < bound && fast < bound,
                "{n} samples: {direct:e}, {fast:e}"
            );
        }
    }

    #[test]
    fn exact_pair_count_of_a_small_staircase() {
        // Filled at 1, 2 and 4 of 6 samples: lag 0 has 3 pairs, lag 1
        // one (1, 2), lag 2 one (2, 4), lag 3 one (1, 4).
        let r = exact_two_level(&[(1, 3), (4, 5)], 6, 2.0, 4);
        assert_eq!(r, vec![12.0 / 6.0, 4.0 / 6.0, 4.0 / 6.0, 4.0 / 6.0, 0.0]);
        let x = [0.0, 2.0, 2.0, 0.0, 2.0, 0.0];
        assert_eq!(filled_runs(&x), vec![(1, 3), (4, 5)]);
        assert_eq!(raw_autocorrelation(&x, 4), r);
    }

    #[test]
    #[should_panic(expected = "max_lag")]
    fn overlong_lag_rejected() {
        let _ = raw_autocorrelation(&[1.0, 2.0], 2);
    }
}
