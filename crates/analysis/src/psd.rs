//! Power spectral density estimation.
//!
//! One-sided PSDs in `unit²/Hz` against frequency in Hz, matching the
//! paper's Fig 3 and Fig 7(d–f) axes (`A²/Hz` for current noise). Two
//! estimators are provided: the raw periodogram and Welch's averaged,
//! Hann-windowed method (the workhorse for RTN traces, which need heavy
//! averaging), plus the Wiener–Khinchin route from an autocorrelation
//! sequence.

use crate::autocorr::raw_autocorrelation;
use crate::fft::{fft_real, summed_power};
use samurai_waveform::Trace;

/// A one-sided spectrum: frequencies in Hz and density values in
/// `unit²/Hz`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    /// Frequency grid (Hz), excluding DC.
    pub freqs: Vec<f64>,
    /// One-sided spectral density at each frequency.
    pub values: Vec<f64>,
}

impl Spectrum {
    /// The density at the grid frequency closest to `f`.
    ///
    /// # Panics
    ///
    /// Panics if the spectrum is empty.
    pub fn value_at(&self, f: f64) -> f64 {
        assert!(!self.freqs.is_empty(), "empty spectrum");
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, &fi) in self.freqs.iter().enumerate() {
            let d = (fi - f).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        self.values[best]
    }

    /// Total power by trapezoidal integration over the frequency grid.
    pub fn integrated_power(&self) -> f64 {
        self.freqs
            .windows(2)
            .zip(self.values.windows(2))
            .map(|(f, s)| 0.5 * (s[0] + s[1]) * (f[1] - f[0]))
            .sum()
    }
}

/// Raw periodogram of a uniformly sampled trace (mean removed,
/// rectangular window), truncated to the largest power-of-two prefix.
///
/// One-sided scaling: `S[k] = 2·|X[k]|²·Δt/N` for `0 < k < N/2`.
///
/// # Panics
///
/// Panics if the trace has fewer than 4 samples.
pub fn periodogram(trace: &Trace) -> Spectrum {
    assert!(trace.len() >= 4, "periodogram needs at least 4 samples");
    let n = trace.pow2_len();
    let detrended = trace.detrended();
    let spec = fft_real(&detrended.values()[..n]);
    spectrum_from_fft(&spec, n, trace.dt(), 1.0)
}

/// Welch PSD estimate: Hann-windowed segments of `segment_len`
/// (a power of two) with 50 % overlap, periodograms averaged.
///
/// # Panics
///
/// Panics if `segment_len` is not a power of two, is below 8, or
/// exceeds the trace length.
pub fn welch(trace: &Trace, segment_len: usize) -> Spectrum {
    assert!(
        segment_len.is_power_of_two() && segment_len >= 8,
        "segment_len must be a power of two >= 8"
    );
    assert!(
        segment_len <= trace.len(),
        "segment_len {segment_len} exceeds trace length {}",
        trace.len()
    );
    let mean = trace.mean();
    let x = trace.values();
    let hop = segment_len / 2;
    let window: Vec<f64> = (0..segment_len)
        .map(|i| {
            let w = core::f64::consts::TAU * i as f64 / segment_len as f64;
            0.5 * (1.0 - w.cos())
        })
        .collect();
    let window_power: f64 = window.iter().map(|w| w * w).sum::<f64>() / segment_len as f64;

    let segments = (x.len() - segment_len) / hop + 1;
    // Segments are centred as they are read (the `v − mean` of
    // `Trace::detrended`), so the trace is never copied.
    let acc = summed_power(
        (0..segments).map(|s| &x[s * hop..][..segment_len]),
        mean,
        &window,
    );
    let norm = 1.0 / (segments as f64 * window_power);
    let avg: Vec<crate::fft::Complex> = acc
        .iter()
        .map(|&p| crate::fft::Complex::from_real((p * norm).sqrt()))
        .collect();
    // spectrum_from_fft squares magnitudes, so pass the square roots.
    spectrum_from_fft(&avg, segment_len, trace.dt(), 1.0)
}

/// Wiener–Khinchin: one-sided PSD from the biased autocorrelation of
/// the (detrended) signal, `S(f) = 2·Δt·[R₀ + 2·Σ R_k·cos(2πf·kΔt)]`
/// evaluated on the requested frequency grid.
///
/// Slower than the FFT estimators but evaluates on *arbitrary*
/// frequency grids (e.g. logarithmic, as the paper's figures use).
///
/// # Panics
///
/// Panics if `max_lag >= trace.len()`.
pub fn psd_from_autocorrelation(trace: &Trace, max_lag: usize, freqs: &[f64]) -> Spectrum {
    let detrended = trace.detrended();
    let r = raw_autocorrelation(detrended.values(), max_lag);
    let dt = trace.dt();
    // Bartlett taper keeps the estimate non-negative-ish at deep lags.
    let values = freqs
        .iter()
        .map(|&f| {
            let mut s = r[0];
            for (k, &rk) in r.iter().enumerate().skip(1) {
                let taper = 1.0 - k as f64 / (max_lag + 1) as f64;
                s += 2.0 * taper * rk * (core::f64::consts::TAU * f * k as f64 * dt).cos();
            }
            (2.0 * dt * s).max(0.0)
        })
        .collect();
    Spectrum {
        freqs: freqs.to_vec(),
        values,
    }
}

/// Builds a logarithmic frequency grid of `n` points covering
/// `[f_min, f_max]`.
///
/// # Panics
///
/// Panics unless `0 < f_min < f_max` and `n >= 2`.
pub fn log_frequency_grid(f_min: f64, f_max: f64, n: usize) -> Vec<f64> {
    assert!(f_min > 0.0 && f_max > f_min, "need 0 < f_min < f_max");
    assert!(n >= 2, "need at least two grid points");
    let l0 = f_min.ln();
    let l1 = f_max.ln();
    (0..n)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

fn spectrum_from_fft(spec: &[crate::fft::Complex], n: usize, dt: f64, extra_norm: f64) -> Spectrum {
    let df = 1.0 / (n as f64 * dt);
    let half = n / 2;
    let mut freqs = Vec::with_capacity(half - 1);
    let mut values = Vec::with_capacity(half - 1);
    for (k, s) in spec.iter().enumerate().take(half).skip(1) {
        freqs.push(k as f64 * df);
        values.push(2.0 * s.norm_sqr() * dt / n as f64 * extra_norm);
    }
    Spectrum { freqs, values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn sine_trace(f0: f64, fs: f64, n: usize, amp: f64) -> Trace {
        Trace::from_fn(0.0, 1.0 / fs, n, |t| {
            amp * (core::f64::consts::TAU * f0 * t).sin()
        })
    }

    #[test]
    fn periodogram_peaks_at_the_tone() {
        let fs = 1024.0;
        let f0 = 64.0;
        let t = sine_trace(f0, fs, 4096, 2.0);
        let s = periodogram(&t);
        let peak_idx = s
            .values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            (s.freqs[peak_idx] - f0).abs() < 1.0,
            "peak at {}",
            s.freqs[peak_idx]
        );
    }

    #[test]
    fn periodogram_total_power_matches_signal_variance() {
        // Parseval: integral of one-sided PSD = variance.
        let fs = 1000.0;
        let t = sine_trace(50.0, fs, 8192, 3.0);
        let s = periodogram(&t);
        let var = t.variance();
        let power = s.integrated_power();
        assert!(
            (power - var).abs() < 0.05 * var,
            "power {power} vs variance {var}"
        );
    }

    #[test]
    fn welch_white_noise_is_flat_at_the_right_level() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let fs = 1e4;
        let n = 1 << 16;
        let sigma2 = 0.25f64;
        let t = Trace::from_fn(0.0, 1.0 / fs, n, |_| {
            rng.gen_range(-1.0f64..1.0) * (3.0 * sigma2).sqrt()
        });
        let s = welch(&t, 1024);
        // White noise of variance sigma2 sampled at fs has one-sided
        // density 2*sigma2/fs.
        let expected = 2.0 * sigma2 / fs;
        let mean_level = s.values.iter().sum::<f64>() / s.values.len() as f64;
        assert!(
            (mean_level - expected).abs() < 0.1 * expected,
            "level {mean_level} vs {expected}"
        );
        // Flatness: no octave deviates far from the mean.
        let q1 = s.values[s.values.len() / 4];
        let q3 = s.values[3 * s.values.len() / 4];
        assert!(q1 / q3 < 3.0 && q3 / q1 < 3.0);
    }

    #[test]
    fn welch_matches_periodogram_power_for_stationary_noise() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let t = Trace::from_fn(0.0, 1e-3, 1 << 14, |_| rng.gen_range(-1.0f64..1.0));
        let var = t.variance();
        let w = welch(&t, 512);
        let power = w.integrated_power();
        assert!(
            (power - var).abs() < 0.1 * var,
            "Welch power {power} vs variance {var}"
        );
    }

    #[test]
    fn wiener_khinchin_agrees_with_welch_on_an_ar1_process() {
        let a: f64 = 0.95;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut x = 0.0;
        let fs = 1e3;
        let t = Trace::from_fn(0.0, 1.0 / fs, 1 << 15, |_| {
            let xi: f64 = rng.gen_range(-1.0..1.0);
            x = a * x + xi;
            x
        });
        let freqs = log_frequency_grid(1.0, 400.0, 20);
        let wk = psd_from_autocorrelation(&t, 400, &freqs);
        let w = welch(&t, 2048);
        for (&f, &v) in wk.freqs.iter().zip(&wk.values).skip(2) {
            let ref_v = w.value_at(f);
            let ratio = v / ref_v;
            assert!(
                ratio > 0.5 && ratio < 2.0,
                "f = {f}: WK {v} vs Welch {ref_v}"
            );
        }
    }

    /// Welch as it was before the segments were batched and centred as
    /// they are read: one windowed segment of a detrended copy of the
    /// trace at a time, and each spectrum's `|X[k]|²` added in turn.
    fn per_segment_welch(trace: &Trace, segment_len: usize) -> Spectrum {
        let detrended = trace.detrended();
        let x = detrended.values();
        let window: Vec<f64> = (0..segment_len)
            .map(|i| {
                let w = core::f64::consts::TAU * i as f64 / segment_len as f64;
                0.5 * (1.0 - w.cos())
            })
            .collect();
        let window_power: f64 = window.iter().map(|w| w * w).sum::<f64>() / segment_len as f64;
        let mut acc = vec![0.0f64; segment_len];
        let mut segments = 0usize;
        let mut start = 0usize;
        while start + segment_len <= x.len() {
            let seg: Vec<f64> = x[start..start + segment_len]
                .iter()
                .zip(&window)
                .map(|(v, w)| v * w)
                .collect();
            for (slot, z) in acc.iter_mut().zip(&fft_real(&seg)) {
                *slot += z.norm_sqr();
            }
            segments += 1;
            start += segment_len / 2;
        }
        let norm = 1.0 / (segments as f64 * window_power);
        let avg: Vec<crate::fft::Complex> = acc
            .iter()
            .map(|&p| crate::fft::Complex::from_real((p * norm).sqrt()))
            .collect();
        spectrum_from_fft(&avg, segment_len, trace.dt(), 1.0)
    }

    /// Batched, centred Welch against the per-segment loop on the
    /// detrended copy, bit for bit: segment lengths from 8 to 4096 and
    /// one that takes two passes, 1 to 17 segments (so the last batch of
    /// eight is partial), on noise, on a 0/Δ staircase, on a trace of
    /// `+0.0` and `−0.0` only, and on a constant trace, which centres to
    /// `+0.0` everywhere.
    #[test]
    fn batched_welch_is_bit_identical_to_the_per_segment_loop() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for bits in 3..=13u32 {
            let len = 1usize << bits;
            for segments in 1..=17usize {
                if bits > 9 && ![1, 7, 8, 9, 17].contains(&segments) {
                    continue;
                }
                // A tail shorter than a hop, which no segment reaches.
                let n = len + (segments - 1) * len / 2 + len / 4;
                let noise = Trace::from_fn(0.0, 1e-3, n, |_| rng.gen_range(-1.0f64..1.0));
                let mut level = 0.0;
                let staircase = Trace::from_fn(0.0, 1e-3, n, |_| {
                    if rng.gen_range(0..16) == 0 {
                        level = if level == 0.0 { 3.7e-7 } else { 0.0 };
                    }
                    level
                });
                let zeros = Trace::from_fn(0.0, 1e-3, n, |_| {
                    if rng.gen_range(0..2) == 0 {
                        0.0
                    } else {
                        -0.0
                    }
                });
                let constant = Trace::from_fn(0.0, 1e-3, n, |_| 1.5);
                for trace in [&noise, &staircase, &zeros, &constant] {
                    let want = per_segment_welch(trace, len);
                    let got = welch(trace, len);
                    let same = |a: &[f64], b: &[f64]| {
                        a.len() == b.len()
                            && a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
                    };
                    assert!(
                        same(&want.freqs, &got.freqs) && same(&want.values, &got.values),
                        "segment {len}, {segments} segments"
                    );
                }
            }
        }
    }

    #[test]
    fn log_grid_is_geometric() {
        let g = log_frequency_grid(1.0, 1000.0, 4);
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g[3] - 1000.0).abs() < 1e-9);
        assert!((g[1] - 10.0).abs() < 1e-9);
        assert!((g[2] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn spectrum_value_at_picks_nearest() {
        let s = Spectrum {
            freqs: vec![1.0, 10.0, 100.0],
            values: vec![5.0, 6.0, 7.0],
        };
        assert_eq!(s.value_at(2.0), 5.0);
        assert_eq!(s.value_at(9.0), 6.0);
        assert_eq!(s.value_at(1e6), 7.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn welch_rejects_bad_segment_length() {
        let t = Trace::from_fn(0.0, 1.0, 100, |x| x);
        let _ = welch(&t, 100);
    }
}
