//! Piecewise-linear waveforms.

use serde::{Deserialize, Serialize};

use crate::{Trace, WaveformError};

/// A piecewise-linear waveform defined by `(time, value)` breakpoints.
///
/// Between breakpoints the value is interpolated linearly; before the
/// first and after the last breakpoint the waveform is held constant
/// (SPICE PWL-source semantics). Breakpoint times must be strictly
/// increasing and all coordinates finite.
///
/// # Examples
///
/// ```
/// use samurai_waveform::Pwl;
///
/// let ramp = Pwl::new(vec![(0.0, 0.0), (1.0, 2.0)])?;
/// assert_eq!(ramp.eval(-1.0), 0.0);  // held before the first point
/// assert_eq!(ramp.eval(0.5), 1.0);   // interpolated
/// assert_eq!(ramp.eval(9.0), 2.0);   // held after the last point
/// # Ok::<(), samurai_waveform::WaveformError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pwl {
    points: Vec<(f64, f64)>,
}

impl Pwl {
    /// Creates a waveform from `(time, value)` breakpoints.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::Empty`] for an empty list,
    /// [`WaveformError::NonMonotonicTime`] if times are not strictly
    /// increasing, and [`WaveformError::NonFinite`] for NaN/infinite
    /// coordinates.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, WaveformError> {
        if points.is_empty() {
            return Err(WaveformError::Empty);
        }
        for (i, &(t, v)) in points.iter().enumerate() {
            if !t.is_finite() || !v.is_finite() {
                return Err(WaveformError::NonFinite { index: i });
            }
            if i > 0 && t <= points[i - 1].0 {
                return Err(WaveformError::NonMonotonicTime {
                    index: i,
                    previous: points[i - 1].0,
                    current: t,
                });
            }
        }
        Ok(Self { points })
    }

    /// A constant waveform.
    pub fn constant(value: f64) -> Self {
        Self {
            points: vec![(0.0, value)],
        }
    }

    /// A step from `before` to `after` with a linear transition of
    /// duration `rise` starting at `at`.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidDuration`] if `rise <= 0`.
    pub fn step(before: f64, after: f64, at: f64, rise: f64) -> Result<Self, WaveformError> {
        if !(rise > 0.0) || !rise.is_finite() {
            return Err(WaveformError::InvalidDuration {
                name: "rise",
                value: rise,
            });
        }
        Self::new(vec![(at, before), (at + rise, after)])
    }

    /// A single pulse: `low` until `t_on`, rising over `rise` to `high`,
    /// holding until `t_off`, falling over `fall` back to `low`.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidDuration`] if `rise`/`fall` are
    /// not positive or if `t_off <= t_on + rise`.
    pub fn pulse(
        low: f64,
        high: f64,
        t_on: f64,
        t_off: f64,
        rise: f64,
        fall: f64,
    ) -> Result<Self, WaveformError> {
        if !(rise > 0.0) || !rise.is_finite() {
            return Err(WaveformError::InvalidDuration {
                name: "rise",
                value: rise,
            });
        }
        if !(fall > 0.0) || !fall.is_finite() {
            return Err(WaveformError::InvalidDuration {
                name: "fall",
                value: fall,
            });
        }
        if t_off <= t_on + rise {
            return Err(WaveformError::InvalidDuration {
                name: "t_off - t_on",
                value: t_off - t_on,
            });
        }
        Self::new(vec![
            (t_on, low),
            (t_on + rise, high),
            (t_off, high),
            (t_off + fall, low),
        ])
    }

    /// A periodic clock starting low at `t0`, with the given `period`,
    /// `duty` cycle in `(0, 1)`, edge time `edge`, for `cycles` periods.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidDuration`] for non-positive
    /// `period`/`edge`, a duty outside `(0, 1)`, or edges that do not fit
    /// within the high/low phases.
    pub fn clock(
        low: f64,
        high: f64,
        t0: f64,
        period: f64,
        duty: f64,
        edge: f64,
        cycles: usize,
    ) -> Result<Self, WaveformError> {
        if !(period > 0.0) || !period.is_finite() {
            return Err(WaveformError::InvalidDuration {
                name: "period",
                value: period,
            });
        }
        if !(edge > 0.0) || !edge.is_finite() {
            return Err(WaveformError::InvalidDuration {
                name: "edge",
                value: edge,
            });
        }
        if !(duty > 0.0 && duty < 1.0) {
            return Err(WaveformError::InvalidDuration {
                name: "duty",
                value: duty,
            });
        }
        let t_high = duty * period;
        let t_low = period - t_high;
        if edge >= t_high || edge >= t_low {
            return Err(WaveformError::InvalidDuration {
                name: "edge",
                value: edge,
            });
        }
        let mut points = vec![(t0, low)];
        for c in 0..cycles {
            let start = t0 + c as f64 * period;
            points.push((start + edge, high));
            points.push((start + t_high, high));
            points.push((start + t_high + edge, low));
            points.push((start + period, low));
        }
        // Deduplicate the boundary points between cycles (end of cycle c
        // coincides with start of cycle c+1 only in value, not time, so
        // times are already strictly increasing).
        Self::new(points)
    }

    /// Builds a PWL approximation of an arbitrary function by sampling
    /// it at `n` uniform points over `[t0, t1]`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `t1 <= t0`, or `f` returns a non-finite
    /// value.
    pub fn from_fn<F: FnMut(f64) -> f64>(t0: f64, t1: f64, n: usize, mut f: F) -> Self {
        assert!(n >= 2, "need at least two sample points");
        assert!(t1 > t0, "need a non-empty span");
        let points: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let t = t0 + (t1 - t0) * i as f64 / (n - 1) as f64;
                (t, f(t))
            })
            .collect();
        // lint: allow(HYG002): a uniform grid is strictly increasing
        Self::new(points).expect("uniform sampling yields strictly increasing times")
    }

    /// Evaluates the waveform at time `t`.
    pub fn eval(&self, t: f64) -> f64 {
        let pts = &self.points;
        if t <= pts[0].0 {
            return pts[0].1;
        }
        let last = pts[pts.len() - 1];
        if t >= last.0 {
            return last.1;
        }
        // Index of the first breakpoint with time > t.
        let hi = pts.partition_point(|&(bt, _)| bt <= t);
        self.interpolate(hi, t)
    }

    /// [`eval`](Self::eval), searching for `t`'s segment from `hint` (a
    /// segment index a previous call left) instead of from scratch, and
    /// leaving the segment found there. A query in the hinted segment
    /// or the next one costs two or three comparisons; a query further
    /// ahead binary-searches the rest, and one behind the hint (or a
    /// stale or out-of-range hint) searches the whole waveform. The
    /// hint only chooses where the search starts: the
    /// segment and the interpolation are `eval`'s, so the result is
    /// `eval(t)` bit for bit.
    pub fn eval_hinted(&self, t: f64, hint: &mut usize) -> f64 {
        let pts = &self.points;
        if t <= pts[0].0 {
            return pts[0].1;
        }
        let last = pts[pts.len() - 1];
        if t >= last.0 {
            return last.1;
        }
        // Here `pts[0].0 < t < last.0`, so the first breakpoint with
        // time > t lies in `1..pts.len()`.
        let h = *hint;
        let hi = if h >= 1 && h < pts.len() && pts[h - 1].0 <= t {
            // Each `pts[k].0 <= t < last.0` below puts `k + 1` in range.
            if t < pts[h].0 {
                h
            } else if t < pts[h + 1].0 {
                h + 1
            } else {
                h + 2 + pts[h + 2..].partition_point(|&(bt, _)| bt <= t)
            }
        } else {
            pts.partition_point(|&(bt, _)| bt <= t)
        };
        *hint = hi;
        self.interpolate(hi, t)
    }

    /// The value at `t` on the segment ending at breakpoint `hi`.
    #[inline]
    fn interpolate(&self, hi: usize, t: f64) -> f64 {
        let (t0, v0) = self.points[hi - 1];
        let (t1, v1) = self.points[hi];
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// The slope at time `t` (zero outside the breakpoint span and on
    /// the right side of each breakpoint).
    pub fn slope(&self, t: f64) -> f64 {
        let pts = &self.points;
        if t < pts[0].0 || t >= pts[pts.len() - 1].0 {
            return 0.0;
        }
        let hi = pts.partition_point(|&(bt, _)| bt <= t);
        let (t0, v0) = pts[hi - 1];
        let (t1, v1) = pts[hi];
        (v1 - v0) / (t1 - t0)
    }

    /// The breakpoints as a slice of `(time, value)` pairs.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The breakpoint times (useful as mandatory transient time steps).
    pub fn breakpoint_times(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(t, _)| t)
    }

    /// Time of the first breakpoint.
    pub fn t_start(&self) -> f64 {
        self.points[0].0
    }

    /// Time of the last breakpoint.
    pub fn t_end(&self) -> f64 {
        self.points[self.points.len() - 1].0
    }

    /// Minimum value over all breakpoints (the PWL extremum is always at
    /// a breakpoint).
    pub fn min_value(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum value over all breakpoints.
    pub fn max_value(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Applies `f` to every breakpoint value.
    #[must_use]
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Self {
        Self {
            points: self.points.iter().map(|&(t, v)| (t, f(v))).collect(),
        }
    }

    /// Scales every value by `k`.
    #[must_use]
    pub fn scaled(&self, k: f64) -> Self {
        self.map(|v| v * k)
    }

    /// Shifts the waveform in time by `dt`.
    #[must_use]
    pub fn shifted(&self, dt: f64) -> Self {
        Self {
            points: self.points.iter().map(|&(t, v)| (t + dt, v)).collect(),
        }
    }

    /// Pointwise sum with `other`, on the merged breakpoint grid.
    ///
    /// Because the sum of two piecewise-linear functions is piecewise
    /// linear on the union of their breakpoints, the result is exact.
    #[must_use]
    pub fn add(&self, other: &Pwl) -> Self {
        let mut times: Vec<f64> = self
            .breakpoint_times()
            .chain(other.breakpoint_times())
            .collect();
        times.sort_by(f64::total_cmp);
        times.dedup();
        let points = times
            .into_iter()
            .map(|t| (t, self.eval(t) + other.eval(t)))
            .collect();
        Self { points }
    }

    /// Samples the waveform into a uniform [`Trace`] of `n` points
    /// starting at `t0` with spacing `dt`.
    pub fn sample(&self, t0: f64, dt: f64, n: usize) -> Trace {
        Trace::from_fn(t0, dt, n, |t| self.eval(t))
    }

    /// Exact integral of the waveform over `[a, b]` (trapezoidal on the
    /// breakpoint grid, hence exact for PWL).
    pub fn integral(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        // Collect the breakpoints strictly inside (a, b).
        let mut acc = 0.0;
        let mut t_prev = a;
        let mut v_prev = self.eval(a);
        for &(t, v) in &self.points {
            if t <= a {
                continue;
            }
            if t >= b {
                break;
            }
            acc += 0.5 * (v_prev + v) * (t - t_prev);
            t_prev = t;
            v_prev = v;
        }
        let v_b = self.eval(b);
        acc += 0.5 * (v_prev + v_b) * (b - t_prev);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ramp() -> Pwl {
        Pwl::new(vec![(0.0, 0.0), (1.0, 1.0), (3.0, -1.0)]).unwrap()
    }

    #[test]
    fn eval_interpolates_and_clamps() {
        let w = ramp();
        assert_eq!(w.eval(-5.0), 0.0);
        assert_eq!(w.eval(0.5), 0.5);
        assert_eq!(w.eval(1.0), 1.0);
        assert_eq!(w.eval(2.0), 0.0);
        assert_eq!(w.eval(10.0), -1.0);
    }

    #[test]
    fn slope_is_piecewise() {
        let w = ramp();
        assert_eq!(w.slope(0.5), 1.0);
        assert_eq!(w.slope(2.0), -1.0);
        assert_eq!(w.slope(-1.0), 0.0);
        assert_eq!(w.slope(3.0), 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(Pwl::new(vec![]), Err(WaveformError::Empty));
        assert!(matches!(
            Pwl::new(vec![(0.0, 1.0), (0.0, 2.0)]),
            Err(WaveformError::NonMonotonicTime { index: 1, .. })
        ));
        assert!(matches!(
            Pwl::new(vec![(0.0, f64::NAN)]),
            Err(WaveformError::NonFinite { index: 0 })
        ));
    }

    #[test]
    fn pulse_shape() {
        let p = Pwl::pulse(0.0, 1.0, 1.0, 3.0, 0.1, 0.2).unwrap();
        assert_eq!(p.eval(0.0), 0.0);
        assert!((p.eval(1.05) - 0.5).abs() < 1e-12);
        assert_eq!(p.eval(2.0), 1.0);
        assert_eq!(p.eval(3.2), 0.0);
        assert!(Pwl::pulse(0.0, 1.0, 1.0, 1.05, 0.1, 0.1).is_err());
    }

    #[test]
    fn clock_has_expected_levels() {
        let c = Pwl::clock(0.0, 1.0, 0.0, 10.0, 0.5, 0.5, 3).unwrap();
        assert_eq!(c.eval(2.5), 1.0); // high phase of cycle 0
        assert_eq!(c.eval(7.5), 0.0); // low phase of cycle 0
        assert_eq!(c.eval(12.5), 1.0); // high phase of cycle 1
        assert_eq!(c.t_end(), 30.0);
        assert!(Pwl::clock(0.0, 1.0, 0.0, 10.0, 0.5, 6.0, 3).is_err());
    }

    #[test]
    fn from_fn_samples_uniformly_and_interpolates() {
        let w = Pwl::from_fn(0.0, 1.0, 101, |t| t * t);
        // Exact at the sample points...
        assert!((w.eval(0.5) - 0.25).abs() < 1e-12);
        // ...close in between (parabola vs 100-segment chords).
        assert!((w.eval(0.505) - 0.505f64.powi(2)).abs() < 1e-4);
        assert_eq!(w.t_start(), 0.0);
        assert_eq!(w.t_end(), 1.0);
        assert_eq!(w.points().len(), 101);
    }

    #[test]
    #[should_panic(expected = "two sample points")]
    fn from_fn_rejects_single_point() {
        let _ = Pwl::from_fn(0.0, 1.0, 1, |t| t);
    }

    #[test]
    fn add_is_exact_on_merged_grid() {
        let a = Pwl::new(vec![(0.0, 0.0), (2.0, 2.0)]).unwrap();
        let b = Pwl::new(vec![(1.0, 1.0), (3.0, -1.0)]).unwrap();
        let s = a.add(&b);
        for &t in &[0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0] {
            assert!(
                (s.eval(t) - (a.eval(t) + b.eval(t))).abs() < 1e-12,
                "mismatch at t = {t}"
            );
        }
    }

    #[test]
    fn integral_of_triangle() {
        let w = Pwl::new(vec![(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]).unwrap();
        assert!((w.integral(0.0, 2.0) - 1.0).abs() < 1e-12);
        assert!((w.integral(0.5, 1.5) - 0.75).abs() < 1e-12);
        assert_eq!(w.integral(2.0, 1.0), 0.0);
    }

    #[test]
    fn scaled_shifted_minmax() {
        let w = ramp().scaled(2.0).shifted(1.0);
        assert_eq!(w.eval(2.0), 2.0);
        assert_eq!(w.min_value(), -2.0);
        assert_eq!(w.max_value(), 2.0);
        assert_eq!(w.t_start(), 1.0);
        assert_eq!(w.t_end(), 4.0);
    }

    proptest! {
        #[test]
        fn eval_is_within_breakpoint_hull(
            vals in proptest::collection::vec(-10.0f64..10.0, 2..8),
            t in -5.0f64..15.0,
        ) {
            let points: Vec<(f64, f64)> =
                vals.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect();
            let w = Pwl::new(points).unwrap();
            let v = w.eval(t);
            prop_assert!(v >= w.min_value() - 1e-12 && v <= w.max_value() + 1e-12);
        }

        #[test]
        fn integral_is_additive(
            vals in proptest::collection::vec(-10.0f64..10.0, 2..8),
            split in 0.1f64..0.9,
        ) {
            let points: Vec<(f64, f64)> =
                vals.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect();
            let w = Pwl::new(points).unwrap();
            let a = 0.0;
            let b = (vals.len() - 1) as f64;
            let m = a + split * (b - a);
            let whole = w.integral(a, b);
            let parts = w.integral(a, m) + w.integral(m, b);
            prop_assert!((whole - parts).abs() < 1e-9 * (1.0 + whole.abs()));
        }
    }
}
