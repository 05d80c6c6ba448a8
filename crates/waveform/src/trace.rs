//! Uniformly sampled traces.

use serde::{Deserialize, Serialize};

use crate::WaveformError;

/// A uniformly sampled signal: start time, sample spacing and values.
///
/// `Trace` is the lingua franca between the waveform world and the
/// spectral estimators: autocorrelation and PSD computation operate on
/// uniform samples.
///
/// # Examples
///
/// ```
/// use samurai_waveform::Trace;
///
/// let t = Trace::from_fn(0.0, 0.25, 5, |x| 2.0 * x);
/// assert_eq!(t.len(), 5);
/// assert_eq!(t.time_at(2), 0.5);
/// assert!((t.mean() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    t0: f64,
    dt: f64,
    values: Vec<f64>,
}

impl Trace {
    /// Creates a trace from raw samples.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidDuration`] if `dt` is not a
    /// positive finite number, and [`WaveformError::Empty`] for an empty
    /// sample vector.
    pub fn new(t0: f64, dt: f64, values: Vec<f64>) -> Result<Self, WaveformError> {
        if !(dt > 0.0) || !dt.is_finite() {
            return Err(WaveformError::InvalidDuration {
                name: "dt",
                value: dt,
            });
        }
        if values.is_empty() {
            return Err(WaveformError::Empty);
        }
        Ok(Self { t0, dt, values })
    }

    /// Creates a trace by evaluating `f` at each sample time.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `n == 0`.
    pub fn from_fn<F: FnMut(f64) -> f64>(t0: f64, dt: f64, n: usize, mut f: F) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive, got {dt}");
        assert!(n > 0, "trace must have at least one sample");
        let values = (0..n).map(|i| f(t0 + i as f64 * dt)).collect();
        Self { t0, dt, values }
    }

    /// A trace of samples the caller has already checked: `dt` positive
    /// and finite, `values` not empty.
    pub(crate) fn from_samples(t0: f64, dt: f64, values: Vec<f64>) -> Self {
        debug_assert!(dt > 0.0 && dt.is_finite() && !values.is_empty());
        Self { t0, dt, values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the trace holds no samples (never, by
    /// construction, but provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Start time of the first sample.
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Sample spacing.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Total spanned duration `(len - 1) · dt`.
    pub fn duration(&self) -> f64 {
        (self.values.len().saturating_sub(1)) as f64 * self.dt
    }

    /// The sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the sample values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Consumes the trace and returns the raw sample vector.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Time of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i` is out of bounds.
    pub fn time_at(&self, i: usize) -> f64 {
        debug_assert!(i < self.values.len());
        self.t0 + i as f64 * self.dt
    }

    /// Index of the sample closest to time `t`, clamped to the valid
    /// range.
    pub fn index_at(&self, t: f64) -> usize {
        let raw = ((t - self.t0) / self.dt).round();
        if raw <= 0.0 {
            0
        } else {
            (raw as usize).min(self.values.len() - 1)
        }
    }

    /// Value of the sample closest to time `t`.
    pub fn value_at(&self, t: f64) -> f64 {
        self.values[self.index_at(t)]
    }

    /// Iterator over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (self.t0 + i as f64 * self.dt, v))
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Population variance of the samples.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.values.len() as f64
    }

    /// Root-mean-square of the samples.
    pub fn rms(&self) -> f64 {
        (self.values.iter().map(|v| v * v).sum::<f64>() / self.values.len() as f64).sqrt()
    }

    /// Minimum sample value.
    pub fn min_value(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample value.
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Returns a copy with the mean removed (used before spectral
    /// estimation so the DC term does not swamp the spectrum).
    #[must_use]
    pub fn detrended(&self) -> Self {
        let m = self.mean();
        Self {
            t0: self.t0,
            dt: self.dt,
            values: self.values.iter().map(|v| v - m).collect(),
        }
    }

    /// Applies `f` to every sample.
    #[must_use]
    pub fn map<F: FnMut(f64) -> f64>(&self, f: F) -> Self {
        Self {
            t0: self.t0,
            dt: self.dt,
            values: self.values.iter().copied().map(f).collect(),
        }
    }

    /// Pointwise sum with a trace on the same grid.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ (same `t0`, `dt` and length required).
    #[must_use]
    pub fn add(&self, other: &Trace) -> Self {
        assert!(
            self.same_grid(other),
            "traces must share the sampling grid to be added"
        );
        Self {
            t0: self.t0,
            dt: self.dt,
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Pointwise difference with a trace on the same grid.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ.
    #[must_use]
    pub fn sub(&self, other: &Trace) -> Self {
        assert!(
            self.same_grid(other),
            "traces must share the sampling grid to be subtracted"
        );
        Self {
            t0: self.t0,
            dt: self.dt,
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Returns `true` if `other` shares this trace's sampling grid.
    pub fn same_grid(&self, other: &Trace) -> bool {
        self.values.len() == other.values.len()
            && (self.t0 - other.t0).abs() <= 1e-12 * (1.0 + self.t0.abs())
            && (self.dt - other.dt).abs() <= 1e-12 * self.dt
    }

    /// Extracts the sub-trace covering `[t_from, t_to]` (sample-aligned,
    /// inclusive bounds clamped to the trace).
    ///
    /// # Panics
    ///
    /// Panics if `t_to < t_from`.
    #[must_use]
    pub fn slice(&self, t_from: f64, t_to: f64) -> Self {
        assert!(t_to >= t_from, "slice bounds out of order");
        let i0 = self.index_at(t_from);
        let i1 = self.index_at(t_to);
        Self {
            t0: self.time_at(i0),
            dt: self.dt,
            values: self.values[i0..=i1].to_vec(),
        }
    }

    /// Largest `k` such that the first `2^k` samples fit; used by FFT
    /// consumers to truncate to a power of two.
    pub fn pow2_len(&self) -> usize {
        let mut n = 1usize;
        while n * 2 <= self.values.len() {
            n *= 2;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_validates() {
        assert!(Trace::new(0.0, 0.0, vec![1.0]).is_err());
        assert!(Trace::new(0.0, -1.0, vec![1.0]).is_err());
        assert!(Trace::new(0.0, 1.0, vec![]).is_err());
        assert!(Trace::new(0.0, 1.0, vec![1.0]).is_ok());
    }

    #[test]
    fn indexing_round_trips() {
        let t = Trace::from_fn(10.0, 0.5, 8, |x| x);
        assert_eq!(t.time_at(3), 11.5);
        assert_eq!(t.index_at(11.5), 3);
        assert_eq!(t.index_at(11.6), 3);
        assert_eq!(t.index_at(11.8), 4);
        assert_eq!(t.index_at(-100.0), 0);
        assert_eq!(t.index_at(1e9), 7);
        assert_eq!(t.value_at(11.5), 11.5);
    }

    #[test]
    fn statistics() {
        let t = Trace::new(0.0, 1.0, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((t.mean() - 2.5).abs() < 1e-12);
        assert!((t.variance() - 1.25).abs() < 1e-12);
        assert!((t.rms() - (7.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(t.min_value(), 1.0);
        assert_eq!(t.max_value(), 4.0);
        assert_eq!(t.duration(), 3.0);
    }

    #[test]
    fn detrend_zeroes_the_mean() {
        let t = Trace::from_fn(0.0, 1.0, 100, |x| 3.0 + (x * 0.1).sin());
        assert!(t.detrended().mean().abs() < 1e-12);
    }

    #[test]
    fn add_sub_on_same_grid() {
        let a = Trace::from_fn(0.0, 1.0, 4, |x| x);
        let b = Trace::from_fn(0.0, 1.0, 4, |_| 1.0);
        assert_eq!(a.add(&b).values(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sub(&b).values(), &[-1.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "sampling grid")]
    fn add_on_mismatched_grid_panics() {
        let a = Trace::from_fn(0.0, 1.0, 4, |x| x);
        let b = Trace::from_fn(0.0, 2.0, 4, |x| x);
        let _ = a.add(&b);
    }

    #[test]
    fn slicing() {
        let t = Trace::from_fn(0.0, 1.0, 10, |x| x);
        let s = t.slice(2.2, 5.4);
        assert_eq!(s.t0(), 2.0);
        assert_eq!(s.len(), 4);
        assert_eq!(s.values(), &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn pow2_truncation_length() {
        assert_eq!(Trace::from_fn(0.0, 1.0, 1000, |x| x).pow2_len(), 512);
        assert_eq!(Trace::from_fn(0.0, 1.0, 1024, |x| x).pow2_len(), 1024);
        assert_eq!(Trace::from_fn(0.0, 1.0, 1, |x| x).pow2_len(), 1);
    }

    proptest! {
        #[test]
        fn variance_is_nonnegative_and_shift_invariant(
            vals in proptest::collection::vec(-100.0f64..100.0, 2..64),
            shift in -50.0f64..50.0,
        ) {
            let a = Trace::new(0.0, 1.0, vals.clone()).unwrap();
            let b = a.map(|v| v + shift);
            prop_assert!(a.variance() >= 0.0);
            prop_assert!((a.variance() - b.variance()).abs() < 1e-6 * (1.0 + a.variance()));
        }

        #[test]
        fn index_at_inverts_time_at(
            n in 2usize..100,
            i_frac in 0.0f64..1.0,
        ) {
            let t = Trace::from_fn(-3.0, 0.125, n, |x| x);
            let i = ((n - 1) as f64 * i_frac) as usize;
            prop_assert_eq!(t.index_at(t.time_at(i)), i);
        }
    }
}
