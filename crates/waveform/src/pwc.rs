//! Piecewise-constant (staircase) waveforms.

use serde::{Deserialize, Serialize};

use crate::{Trace, WaveformError};

/// A right-continuous piecewise-constant waveform.
///
/// `Pwc` stores `(time, value)` steps: the waveform takes `value[i]` on
/// `[time[i], time[i+1])` and holds `value[0]` before the first step and
/// the last value forever after. Trap occupancy functions (the
/// `[times, states]` arrays of the paper's Algorithm 1) and RTN current
/// traces are `Pwc` by construction.
///
/// # Examples
///
/// ```
/// use samurai_waveform::Pwc;
///
/// // A trap that fills at t = 1 and empties at t = 2.5.
/// let occ = Pwc::new(vec![(0.0, 0.0), (1.0, 1.0), (2.5, 0.0)])?;
/// assert_eq!(occ.eval(0.5), 0.0);
/// assert_eq!(occ.eval(1.0), 1.0);   // right-continuous
/// assert_eq!(occ.eval(3.0), 0.0);
/// assert_eq!(occ.transition_count(), 2);
/// # Ok::<(), samurai_waveform::WaveformError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pwc {
    steps: Vec<(f64, f64)>,
}

impl Pwc {
    /// Creates a staircase from `(time, value)` steps.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::Empty`] for an empty list,
    /// [`WaveformError::NonMonotonicTime`] if times are not strictly
    /// increasing, and [`WaveformError::NonFinite`] for NaN/infinite
    /// coordinates.
    pub fn new(steps: Vec<(f64, f64)>) -> Result<Self, WaveformError> {
        if steps.is_empty() {
            return Err(WaveformError::Empty);
        }
        for (i, &(t, v)) in steps.iter().enumerate() {
            if !t.is_finite() || !v.is_finite() {
                return Err(WaveformError::NonFinite { index: i });
            }
            if i > 0 && t <= steps[i - 1].0 {
                return Err(WaveformError::NonMonotonicTime {
                    index: i,
                    previous: steps[i - 1].0,
                    current: t,
                });
            }
        }
        Ok(Self { steps })
    }

    /// A constant waveform.
    pub fn constant(value: f64) -> Self {
        Self {
            steps: vec![(0.0, value)],
        }
    }

    /// Evaluates the waveform at `t` (right-continuous).
    pub fn eval(&self, t: f64) -> f64 {
        let steps = &self.steps;
        if t < steps[0].0 {
            return steps[0].1;
        }
        let hi = steps.partition_point(|&(st, _)| st <= t);
        steps[hi - 1].1
    }

    /// The steps as a slice of `(time, value)` pairs.
    pub fn steps(&self) -> &[(f64, f64)] {
        &self.steps
    }

    /// Number of genuine value changes.
    pub fn transition_count(&self) -> usize {
        self.steps.windows(2).filter(|w| w[0].1 != w[1].1).count()
    }

    /// Dwell durations between consecutive genuine transitions, paired
    /// with the value held during the dwell. The open-ended final dwell
    /// is not reported.
    pub fn dwells(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut hold_start = self.steps[0].0;
        let mut hold_value = self.steps[0].1;
        for &(t, v) in &self.steps[1..] {
            if v != hold_value {
                out.push((t - hold_start, hold_value));
                hold_start = t;
                hold_value = v;
            }
        }
        out
    }

    /// Time of the first step.
    pub fn t_start(&self) -> f64 {
        self.steps[0].0
    }

    /// Time of the last step.
    pub fn t_end(&self) -> f64 {
        self.steps[self.steps.len() - 1].0
    }

    /// Minimum value over all steps.
    pub fn min_value(&self) -> f64 {
        self.steps
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum value over all steps.
    pub fn max_value(&self) -> f64 {
        self.steps
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Applies `f` to every step value.
    #[must_use]
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Self {
        Self {
            steps: self.steps.iter().map(|&(t, v)| (t, f(v))).collect(),
        }
    }

    /// Scales every value by `k`.
    #[must_use]
    pub fn scaled(&self, k: f64) -> Self {
        self.map(|v| v * k)
    }

    /// Pointwise sum with `other` on the merged step grid. The sum of
    /// two staircases is a staircase on the union of the step times, so
    /// the result is exact. This is how per-trap occupancy staircases
    /// combine into a device-level `N_filled(t)`.
    #[must_use]
    pub fn add(&self, other: &Pwc) -> Self {
        let mut times: Vec<f64> = self
            .steps
            .iter()
            .map(|&(t, _)| t)
            .chain(other.steps.iter().map(|&(t, _)| t))
            .collect();
        times.sort_by(f64::total_cmp);
        times.dedup();
        let steps = times
            .into_iter()
            .map(|t| (t, self.eval(t) + other.eval(t)))
            .collect();
        Self { steps }
    }

    /// Sums an iterator of staircases (returns `None` for an empty
    /// iterator).
    pub fn sum<'a, I: IntoIterator<Item = &'a Pwc>>(iter: I) -> Option<Pwc> {
        let mut it = iter.into_iter();
        let first = it.next()?.clone();
        Some(it.fold(first, |acc, w| acc.add(w)))
    }

    /// Multiplies the staircase pointwise by an arbitrary function of
    /// time, evaluated at step edges *and* at the extra times supplied
    /// (the result is only an approximation unless `f` is constant on
    /// each resulting interval; callers pass bias breakpoints via
    /// `extra_times` to make it exact for PWC × PWC).
    #[must_use]
    pub fn mul_fn<F: Fn(f64) -> f64>(&self, extra_times: &[f64], f: F) -> Pwc {
        let mut times: Vec<f64> = self
            .steps
            .iter()
            .map(|&(t, _)| t)
            .chain(extra_times.iter().copied())
            .collect();
        times.sort_by(f64::total_cmp);
        times.dedup();
        let steps = times
            .into_iter()
            .map(|t| (t, self.eval(t) * f(t)))
            .collect();
        Pwc { steps }
    }

    /// Time integral over `[a, b]` (exact for a staircase).
    pub fn integral(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut t_prev = a;
        for &(t, _) in &self.steps {
            if t <= a {
                continue;
            }
            if t >= b {
                break;
            }
            acc += self.eval(t_prev) * (t - t_prev);
            t_prev = t;
        }
        acc + self.eval(t_prev) * (b - t_prev)
    }

    /// Time-average over `[a, b]`.
    pub fn mean(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return self.eval(a);
        }
        self.integral(a, b) / (b - a)
    }

    /// Fraction of `[a, b]` during which the value equals `target`
    /// (within `tol`). Used to measure trap occupancy fractions.
    pub fn fraction_at(&self, a: f64, b: f64, target: f64, tol: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        let indicator = self.map(|v| if (v - target).abs() <= tol { 1.0 } else { 0.0 });
        indicator.integral(a, b) / (b - a)
    }

    /// Samples the staircase into a uniform [`Trace`]: [`Pwc::eval`] at
    /// every sample time `t0 + i·dt`, bit for bit, in O(n + steps). The
    /// values are filled run by run: a walk over the steps finds the
    /// first sample at or after each step, and the step's value is
    /// copied over the samples up to the next step's first sample.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `n == 0`, as [`Trace::from_fn`] does.
    pub fn sample(&self, t0: f64, dt: f64, n: usize) -> Trace {
        let mut values = Vec::with_capacity(n);
        for (len, v) in Runs::new(&self.steps, t0, dt, n) {
            values.resize(values.len() + len, v);
        }
        Trace::from_samples(t0, dt, values)
    }

    /// The mean of the sampled staircase, `self.sample(t0, dt, n).mean()`
    /// bit for bit, without storing the samples. It sums the runs in
    /// sample order from −0.0, the start of `f64`'s `Sum`, so every
    /// addition is one the trace's mean makes, except that a run of
    /// ±0.0 is added once: adding the same zero again never changes the
    /// sum. Costs O(steps) plus one addition per nonzero sample.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `n == 0`, as [`Pwc::sample`] does.
    pub fn sample_mean(&self, t0: f64, dt: f64, n: usize) -> f64 {
        let mut sum = -0.0;
        for (len, v) in Runs::new(&self.steps, t0, dt, n) {
            if len == 0 {
                continue;
            }
            // lint: allow(HYG004): an exact zero (either sign) is idempotent under addition
            if v == 0.0 {
                sum += v;
            } else {
                for _ in 0..len {
                    sum += v;
                }
            }
        }
        sum / n as f64
    }

    /// Converts the staircase into a piecewise-linear waveform whose
    /// steps become near-vertical edges of duration `edge`. This is how
    /// generated RTN currents are handed to a SPICE PWL current source.
    ///
    /// # Panics
    ///
    /// Panics unless `edge` is positive and smaller than the smallest
    /// gap between steps.
    pub fn to_pwl(&self, edge: f64) -> crate::Pwl {
        assert!(edge > 0.0 && edge.is_finite(), "edge must be positive");
        let min_gap = self
            .steps
            .windows(2)
            .map(|w| w[1].0 - w[0].0)
            .fold(f64::INFINITY, f64::min);
        assert!(
            edge < min_gap,
            "edge {edge} does not fit in the smallest step gap {min_gap}"
        );
        let mut points = Vec::with_capacity(2 * self.steps.len());
        points.push(self.steps[0]);
        let mut prev_value = self.steps[0].1;
        for &(t, v) in &self.steps[1..] {
            points.push((t - edge, prev_value));
            points.push((t, v));
            prev_value = v;
        }
        // lint: allow(HYG002): edge < min_gap keeps times strictly increasing
        crate::Pwl::new(points).expect("edge < min_gap keeps times strictly increasing")
    }
}

/// The runs of a staircase sampled at `t0 + i·dt`, `i < n`: one
/// `(length, value)` per step, in sample order. Step `j` covers the
/// samples from the first one at or after its own time up to the first
/// one at or after step `j + 1`'s time; step 0 also covers every sample
/// before it, since a [`Pwc`] holds its first value there. A run is
/// empty when two steps fall between the same two samples. The walk
/// stops once the samples are used up, so steps after the last sample
/// yield nothing.
struct Runs<'a> {
    steps: &'a [(f64, f64)],
    t0: f64,
    dt: f64,
    n: usize,
    /// The step whose run comes next.
    next: usize,
    /// The first sample of that run.
    start: usize,
}

impl<'a> Runs<'a> {
    fn new(steps: &'a [(f64, f64)], t0: f64, dt: f64, n: usize) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive, got {dt}");
        assert!(n > 0, "trace must have at least one sample");
        Self {
            steps,
            t0,
            dt,
            n,
            next: 0,
            start: 0,
        }
    }

    /// Sample `i`'s time, by the expression [`Trace::from_fn`] evaluates.
    fn time(&self, i: usize) -> f64 {
        self.t0 + i as f64 * self.dt
    }

    /// The first sample at or after `t` (`n` if none is). The quotient
    /// guesses it; the sample times themselves settle it, so rounding
    /// in the guess can never move a sample to the wrong step. The
    /// times never decrease with `i`, so the two loops stop at the
    /// exact boundary.
    fn first_at_or_after(&self, t: f64) -> usize {
        // The saturating cast sends a negative quotient to 0.
        let mut i = (((t - self.t0) / self.dt).ceil() as usize).min(self.n);
        while i > 0 && self.time(i - 1) >= t {
            i -= 1;
        }
        while i < self.n && self.time(i) < t {
            i += 1;
        }
        i
    }
}

impl Iterator for Runs<'_> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        if self.next == self.steps.len() || self.start == self.n {
            return None;
        }
        let end = match self.steps.get(self.next + 1) {
            Some(&(t, _)) => self.first_at_or_after(t),
            None => self.n,
        };
        let run = (end - self.start, self.steps[self.next].1);
        self.start = end;
        self.next += 1;
        Some(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn telegraph() -> Pwc {
        Pwc::new(vec![(0.0, 0.0), (1.0, 1.0), (3.0, 0.0), (4.0, 1.0)]).unwrap()
    }

    #[test]
    fn eval_is_right_continuous() {
        let w = telegraph();
        assert_eq!(w.eval(-1.0), 0.0);
        assert_eq!(w.eval(0.999), 0.0);
        assert_eq!(w.eval(1.0), 1.0);
        assert_eq!(w.eval(2.999), 1.0);
        assert_eq!(w.eval(3.0), 0.0);
        assert_eq!(w.eval(100.0), 1.0);
    }

    #[test]
    fn transitions_and_dwells() {
        let w = telegraph();
        assert_eq!(w.transition_count(), 3);
        assert_eq!(w.dwells(), vec![(1.0, 0.0), (2.0, 1.0), (1.0, 0.0)]);
    }

    #[test]
    fn duplicate_values_are_not_transitions() {
        let w = Pwc::new(vec![(0.0, 1.0), (1.0, 1.0), (2.0, 0.0)]).unwrap();
        assert_eq!(w.transition_count(), 1);
    }

    #[test]
    fn integral_and_mean() {
        let w = telegraph();
        // value 1 on [1,3) and [4, b)
        assert!((w.integral(0.0, 5.0) - 3.0).abs() < 1e-12);
        assert!((w.mean(0.0, 5.0) - 0.6).abs() < 1e-12);
        assert!((w.fraction_at(0.0, 5.0, 1.0, 0.0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn add_merges_grids_exactly() {
        let a = Pwc::new(vec![(0.0, 1.0), (2.0, 3.0)]).unwrap();
        let b = Pwc::new(vec![(1.0, 10.0), (3.0, 0.0)]).unwrap();
        let s = a.add(&b);
        for &t in &[-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0] {
            assert!(
                (s.eval(t) - (a.eval(t) + b.eval(t))).abs() < 1e-12,
                "mismatch at t = {t}"
            );
        }
    }

    #[test]
    fn sum_of_staircases() {
        let a = Pwc::constant(1.0);
        let b = Pwc::constant(2.0);
        let c = Pwc::constant(3.0);
        let s = Pwc::sum([&a, &b, &c]).unwrap();
        assert_eq!(s.eval(0.0), 6.0);
        assert!(Pwc::sum(std::iter::empty::<&Pwc>()).is_none());
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(Pwc::new(vec![]), Err(WaveformError::Empty));
        assert!(matches!(
            Pwc::new(vec![(1.0, 0.0), (1.0, 1.0)]),
            Err(WaveformError::NonMonotonicTime { .. })
        ));
        assert!(matches!(
            Pwc::new(vec![(f64::INFINITY, 0.0)]),
            Err(WaveformError::NonFinite { .. })
        ));
    }

    #[test]
    fn to_pwl_tracks_the_staircase_between_edges() {
        let w = telegraph();
        let p = w.to_pwl(1e-3);
        for &t in &[0.5, 1.5, 2.5, 3.5, 4.5] {
            assert!((p.eval(t) - w.eval(t)).abs() < 1e-12, "mismatch at t = {t}");
        }
        // Mid-edge the PWL is between the two levels.
        let mid = p.eval(1.0 - 0.5e-3);
        assert!((0.0..=1.0).contains(&mid));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn to_pwl_rejects_oversized_edges() {
        let _ = telegraph().to_pwl(2.0);
    }

    proptest! {
        #[test]
        fn integral_matches_dense_sampling(
            vals in proptest::collection::vec(0.0f64..5.0, 1..10),
        ) {
            let steps: Vec<(f64, f64)> =
                vals.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect();
            let w = Pwc::new(steps).unwrap();
            let b = vals.len() as f64;
            let exact = w.integral(0.0, b);
            let n = 20_000usize;
            let dt = b / n as f64;
            // Midpoint Riemann sum converges to the staircase integral.
            let approx: f64 = (0..n).map(|i| w.eval((i as f64 + 0.5) * dt) * dt).sum();
            prop_assert!((exact - approx).abs() < 1e-2 * (1.0 + exact.abs()));
        }

        #[test]
        fn transition_count_matches_dwell_count(
            vals in proptest::collection::vec(0.0f64..2.0, 2..20),
        ) {
            let steps: Vec<(f64, f64)> = vals
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as f64, v.round()))
                .collect();
            let w = Pwc::new(steps).unwrap();
            prop_assert_eq!(w.transition_count(), w.dwells().len());
        }
    }

    /// A drawn staircase and sample grid for the sampling proptests.
    /// Step `j` sits `gaps[j]` quarter units after step `j - 1` (the
    /// first after t = 1) and holds +0.0, −0.0 or `vals[j]` as
    /// `kinds[j]` says, times `scales[scale]`. `grid` picks the spacing:
    /// a quarter (every step on a sample time), 1.5 (several steps
    /// between two samples, some on sample times) or the arbitrary
    /// `dt`. The first sample lies up to 1.5 units before the first
    /// step or up to 2 after it; `cut` picks one sample, half the span
    /// (steps after the last sample) or the whole span.
    #[allow(clippy::too_many_arguments)]
    fn sampling_case(
        gaps: &[u32],
        kinds: &[u8],
        vals: &[f64],
        scale: usize,
        grid: u8,
        dt: f64,
        lead: u32,
        cut: u8,
    ) -> (Pwc, f64, f64, usize) {
        let scales = [1.0, -1.0, 0.0, -0.0, -2.5e-7];
        let mut t = 1.0;
        let steps: Vec<(f64, f64)> = gaps
            .iter()
            .zip(kinds.iter().zip(vals))
            .map(|(&g, (&kind, &v))| {
                t += f64::from(g) * 0.25;
                let v = match kind {
                    0 => 0.0,
                    1 => -0.0,
                    _ => v,
                };
                (t, v)
            })
            .collect();
        let w = Pwc::new(steps).unwrap().scaled(scales[scale]);
        let dt = match grid {
            0 => 0.25,
            1 => 1.5,
            _ => dt,
        };
        let t0 = 3.0 - 0.5 * f64::from(lead);
        let span = ((t + 2.0 - t0) / dt) as usize + 1;
        let n = match cut {
            0 => 1,
            1 => (span / 2).max(1),
            _ => span,
        };
        (w, t0, dt, n)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sample_is_eval_on_the_grid_bit_for_bit(
            gaps in proptest::collection::vec(1u32..9, 1..16),
            kinds in proptest::collection::vec(0u8..4, 16),
            vals in proptest::collection::vec(-3.0f64..3.0, 16),
            scale in 0usize..5,
            grid in 0u8..3,
            dt in 0.01f64..2.0,
            lead in 0u32..8,
            cut in 0u8..3,
        ) {
            let (w, t0, dt, n) = sampling_case(&gaps, &kinds, &vals, scale, grid, dt, lead, cut);
            let trace = w.sample(t0, dt, n);
            prop_assert_eq!(trace.len(), n);
            for (i, &got) in trace.values().iter().enumerate() {
                let want = w.eval(t0 + i as f64 * dt);
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }

        #[test]
        fn sample_mean_is_the_sampled_mean_bit_for_bit(
            gaps in proptest::collection::vec(1u32..9, 1..16),
            kinds in proptest::collection::vec(0u8..4, 16),
            vals in proptest::collection::vec(-3.0f64..3.0, 16),
            scale in 0usize..5,
            grid in 0u8..3,
            dt in 0.01f64..2.0,
            lead in 0u32..8,
            cut in 0u8..3,
        ) {
            let (w, t0, dt, n) = sampling_case(&gaps, &kinds, &vals, scale, grid, dt, lead, cut);
            let got = w.sample_mean(t0, dt, n);
            let want = w.sample(t0, dt, n).mean();
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
        }

        #[test]
        fn steps_on_and_beside_sample_times_fall_on_the_right_side(
            picks in proptest::collection::vec(0usize..96, 1..12),
            nudges in proptest::collection::vec(0u8..3, 12),
            t0 in -3.0f64..3.0,
            dt in 0.001f64..2.0,
            n in 1usize..96,
        ) {
            // Steps at sample times as `Trace::from_fn` computes them, or
            // one ulp either side, with an arbitrary grid: the quotient
            // guess is off by one at some of them.
            let mut times: Vec<f64> = picks
                .iter()
                .zip(&nudges)
                .map(|(&k, &nudge)| {
                    let t = t0 + k as f64 * dt;
                    match nudge {
                        0 => t.next_down(),
                        1 => t,
                        _ => t.next_up(),
                    }
                })
                .collect();
            times.sort_by(f64::total_cmp);
            times.dedup();
            let steps = times.iter().enumerate().map(|(j, &t)| (t, j as f64 + 1.0)).collect();
            let w = Pwc::new(steps).unwrap();
            let trace = w.sample(t0, dt, n);
            for (i, &got) in trace.values().iter().enumerate() {
                let want = w.eval(t0 + i as f64 * dt);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "sample {}", i);
            }
            let mean = w.sample_mean(t0, dt, n);
            prop_assert_eq!(mean.to_bits(), trace.mean().to_bits());
        }

        #[test]
        fn zero_steps_between_samples_leave_the_sign_of_zero(
            marks in proptest::collection::vec(0usize..64, 1..8),
            dt in 0.01f64..2.0,
            n in 2usize..64,
        ) {
            // −0.0 everywhere except +0.0 on [t_m + dt/4, t_m + dt/2)
            // after some samples m < n − 1: stretches no sample lands on,
            // so every sample, and the mean, is −0.0.
            let mut marks: Vec<usize> = marks.iter().map(|m| m % (n - 1)).collect();
            marks.sort_unstable();
            marks.dedup();
            let mut steps = vec![(0.0, -0.0)];
            for &m in &marks {
                let t = m as f64 * dt;
                steps.push((t + 0.25 * dt, 0.0));
                steps.push((t + 0.5 * dt, -0.0));
            }
            let w = Pwc::new(steps).unwrap();
            let mean = w.sample_mean(0.0, dt, n);
            prop_assert_eq!(mean.to_bits(), (-0.0f64).to_bits());
            prop_assert_eq!(mean.to_bits(), w.sample(0.0, dt, n).mean().to_bits());
        }
    }
}
