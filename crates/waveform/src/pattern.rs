//! Digital bit patterns and their conversion to analogue waveforms.

use serde::{Deserialize, Serialize};

use crate::{Pwl, WaveformError};

/// A sequence of logical bits to be applied to a circuit, one per cycle.
///
/// The paper's SRAM demonstration writes the pattern
/// `[1,1,0,1,0,1,0,0,1]` (Fig 8); [`BitPattern::paper_fig8`] builds it.
///
/// # Examples
///
/// ```
/// use samurai_waveform::BitPattern;
///
/// let p = BitPattern::new(vec![true, false, true]);
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.bit(1), false);
/// assert_eq!(BitPattern::paper_fig8().to_string(), "110101001");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitPattern {
    bits: Vec<bool>,
}

impl BitPattern {
    /// Creates a pattern from booleans.
    pub fn new(bits: Vec<bool>) -> Self {
        Self { bits }
    }

    /// Parses a pattern from a string of `'0'`/`'1'` characters.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::Empty`] if no valid bit characters are
    /// found; other characters are rejected via `NonFinite` (reused as a
    /// generic "bad element" marker carrying the index).
    pub fn parse(s: &str) -> Result<Self, WaveformError> {
        let mut bits = Vec::with_capacity(s.len());
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => bits.push(false),
                '1' => bits.push(true),
                _ => return Err(WaveformError::NonFinite { index: i }),
            }
        }
        if bits.is_empty() {
            return Err(WaveformError::Empty);
        }
        Ok(Self { bits })
    }

    /// The bit pattern `[1,1,0,1,0,1,0,0,1]` used throughout the paper's
    /// Fig 8 methodology demonstration.
    pub fn paper_fig8() -> Self {
        Self::new(vec![
            true, true, false, true, false, true, false, false, true,
        ])
    }

    /// Number of bits (cycles).
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` if the pattern holds no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bit at cycle `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn bit(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// The bits as a slice.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Iterator over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.bits.iter().copied()
    }
}

impl core::fmt::Display for BitPattern {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for &b in &self.bits {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

/// Timing parameters for converting bit patterns into waveforms.
///
/// All times are in seconds, levels in volts. `period` is the cycle
/// time; `edge` is the 10–90 %-style linear transition time used for
/// every level change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DigitalTiming {
    /// Cycle period in seconds.
    pub period: f64,
    /// Linear edge (rise/fall) time in seconds.
    pub edge: f64,
    /// Logic-low voltage.
    pub low: f64,
    /// Logic-high voltage.
    pub high: f64,
}

impl DigitalTiming {
    /// Creates a timing descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidDuration`] if `period` or `edge`
    /// is not positive, or if `edge >= period / 2` (edges must fit).
    pub fn new(period: f64, edge: f64, low: f64, high: f64) -> Result<Self, WaveformError> {
        if !(period > 0.0) || !period.is_finite() {
            return Err(WaveformError::InvalidDuration {
                name: "period",
                value: period,
            });
        }
        if !(edge > 0.0) || !edge.is_finite() || edge >= period / 2.0 {
            return Err(WaveformError::InvalidDuration {
                name: "edge",
                value: edge,
            });
        }
        Ok(Self {
            period,
            edge,
            low,
            high,
        })
    }

    /// Converts a bit level to its voltage.
    pub fn level(&self, bit: bool) -> f64 {
        if bit {
            self.high
        } else {
            self.low
        }
    }

    /// Builds a non-return-to-zero waveform holding each bit's level for
    /// one period, transitioning over `edge` at each cycle boundary
    /// where the value changes. The waveform starts at `t0`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty.
    pub fn nrz(&self, pattern: &BitPattern, t0: f64) -> Pwl {
        assert!(
            !pattern.is_empty(),
            "cannot build a waveform from an empty pattern"
        );
        let mut points = Vec::with_capacity(2 * pattern.len() + 2);
        let first = self.level(pattern.bit(0));
        points.push((t0, first));
        let mut prev = first;
        for (i, bit) in pattern.iter().enumerate().skip(1) {
            let v = self.level(bit);
            let boundary = t0 + i as f64 * self.period;
            if v != prev {
                points.push((boundary, prev));
                points.push((boundary + self.edge, v));
                prev = v;
            }
        }
        let t_end = t0 + pattern.len() as f64 * self.period;
        points.push((t_end, prev));
        // lint: allow(HYG002): constructor-validated timing is monotonic
        Pwl::new(points).expect("timing invariants guarantee monotonic breakpoints")
    }

    /// Builds a per-cycle strobe (e.g. a word-line enable): one pulse per
    /// cycle, asserted from `on_frac` to `off_frac` of the period
    /// (fractions in `(0, 1)`, `on_frac < off_frac`), for `cycles`
    /// cycles starting at `t0`.
    ///
    /// # Panics
    ///
    /// Panics if the fractions are out of order or leave no room for the
    /// edges, or if `cycles == 0`.
    pub fn strobe(&self, t0: f64, cycles: usize, on_frac: f64, off_frac: f64) -> Pwl {
        assert!(cycles > 0, "strobe needs at least one cycle");
        assert!(
            0.0 < on_frac && on_frac < off_frac && off_frac < 1.0,
            "strobe fractions must satisfy 0 < on < off < 1"
        );
        let t_on_rel = on_frac * self.period;
        let t_off_rel = off_frac * self.period;
        assert!(
            t_off_rel - t_on_rel > self.edge && (1.0 - off_frac) * self.period > self.edge,
            "strobe edges do not fit in the assertion window"
        );
        let mut points = vec![(t0, self.low)];
        for c in 0..cycles {
            let start = t0 + c as f64 * self.period;
            points.push((start + t_on_rel, self.low));
            points.push((start + t_on_rel + self.edge, self.high));
            points.push((start + t_off_rel, self.high));
            points.push((start + t_off_rel + self.edge, self.low));
        }
        points.push((t0 + cycles as f64 * self.period, self.low));
        // lint: allow(HYG002): constructor-validated timing is monotonic
        Pwl::new(points).expect("timing invariants guarantee monotonic breakpoints")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn timing() -> DigitalTiming {
        DigitalTiming::new(10e-9, 0.2e-9, 0.0, 1.0).unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        let p = BitPattern::parse("110101001").unwrap();
        assert_eq!(p, BitPattern::paper_fig8());
        assert_eq!(p.to_string(), "110101001");
        assert!(BitPattern::parse("").is_err());
        assert!(BitPattern::parse("10x1").is_err());
    }

    #[test]
    fn timing_validation() {
        assert!(DigitalTiming::new(0.0, 0.1, 0.0, 1.0).is_err());
        assert!(DigitalTiming::new(1.0, 0.6, 0.0, 1.0).is_err());
        assert!(DigitalTiming::new(1.0, 0.1, 0.0, 1.0).is_ok());
    }

    #[test]
    fn nrz_holds_levels_mid_cycle() {
        let t = timing();
        let w = t.nrz(&BitPattern::parse("101").unwrap(), 0.0);
        assert!((w.eval(5e-9) - 1.0).abs() < 1e-12); // cycle 0, bit 1
        assert!((w.eval(15e-9) - 0.0).abs() < 1e-12); // cycle 1, bit 0
        assert!((w.eval(25e-9) - 1.0).abs() < 1e-12); // cycle 2, bit 1
                                                      // Transition in progress just after the cycle-1 boundary.
        let mid_edge = w.eval(10.1e-9);
        assert!(mid_edge > 0.0 && mid_edge < 1.0);
    }

    #[test]
    fn nrz_without_transitions_is_flat() {
        let t = timing();
        let w = t.nrz(&BitPattern::parse("111").unwrap(), 0.0);
        assert_eq!(w.min_value(), 1.0);
        assert_eq!(w.max_value(), 1.0);
    }

    #[test]
    fn strobe_pulses_each_cycle() {
        let t = timing();
        let w = t.strobe(0.0, 3, 0.2, 0.8);
        for c in 0..3 {
            let mid = (c as f64 + 0.5) * 10e-9;
            assert!(
                (w.eval(mid) - 1.0).abs() < 1e-12,
                "cycle {c} should be asserted"
            );
            let gap = (c as f64 + 0.95) * 10e-9;
            assert!(
                (w.eval(gap) - 0.0).abs() < 1e-12,
                "cycle {c} gap should be low"
            );
        }
        assert_eq!(w.eval(31e-9), 0.0);
    }

    #[test]
    #[should_panic(expected = "0 < on < off < 1")]
    fn strobe_rejects_bad_fractions() {
        let _ = timing().strobe(0.0, 1, 0.8, 0.2);
    }

    proptest! {
        #[test]
        fn nrz_stays_within_levels(
            bits in proptest::collection::vec(any::<bool>(), 1..16),
            frac in 0.0f64..1.0,
        ) {
            let t = timing();
            let p = BitPattern::new(bits.clone());
            let w = t.nrz(&p, 0.0);
            let probe = frac * bits.len() as f64 * t.period;
            let v = w.eval(probe);
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&v));
        }

        #[test]
        fn nrz_mid_cycle_matches_bits(
            bits in proptest::collection::vec(any::<bool>(), 1..16),
        ) {
            let t = timing();
            let p = BitPattern::new(bits.clone());
            let w = t.nrz(&p, 0.0);
            for (i, &b) in bits.iter().enumerate() {
                let mid = (i as f64 + 0.5) * t.period;
                prop_assert!((w.eval(mid) - t.level(b)).abs() < 1e-9);
            }
        }
    }
}
