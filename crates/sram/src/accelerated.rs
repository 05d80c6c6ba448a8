//! Accelerated RTN testing (the paper's pointer to Toh et al. \[14\]).
//!
//! Instead of scaling `I_RTN` artificially, accelerated testing
//! stresses the *timing*: the word-line pulse is shortened until the
//! write barely succeeds, which is exactly where the paper's "critical
//! moments" live. The RTN-induced **timing margin loss** is the
//! difference between the minimum word-line window of the clean cell
//! and that of the cell with RTN injected — a margin statement that
//! needs no artificial current scaling.
//!
//! The paper remarks that SAMURAI "should be run on the SPICE response
//! predicted for the SRAM cell under the biasses suggested by
//! accelerated testing techniques"; [`timing_margin_observed`] does
//! precisely that, re-running the full two-pass methodology at each
//! probed word-line width.
//!
//! The probes are the parallel grain: each round's probes run on
//! [`Parallelism::Auto`], and each probe's two-pass run generates its
//! RTN on the worker that runs it.

use samurai_core::ensemble::{
    run_ensemble_resilient_observed, ExecutionPolicy, FailurePolicy, IndexedResults, Parallelism,
};
use samurai_telemetry::{JobProbe, Recorder};
use samurai_waveform::BitPattern;

use crate::{run_methodology, MethodologyConfig, SramError};

/// Interior probes evaluated per multisection round. Fixed (not a
/// function of the worker count) so the search visits the same windows
/// — and lands on the same margins — at every [`Parallelism`].
const PROBES_PER_ROUND: usize = 4;

/// Result of the timing-margin bisection.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingMargin {
    /// Minimum word-line duty (fraction of the cycle between WL rise
    /// and fall) at which the *clean* cell still writes every bit.
    pub min_window_clean: f64,
    /// The same minimum with RTN injected.
    pub min_window_rtn: f64,
    /// Resolution of the bisection (fraction of the cycle).
    pub resolution: f64,
}

impl TimingMargin {
    /// RTN's cost in word-line window, as a fraction of the cycle
    /// (positive = RTN needs a longer window).
    pub fn rtn_penalty(&self) -> f64 {
        self.min_window_rtn - self.min_window_clean
    }
}

/// Whether every write of `pattern` succeeds with the word line
/// asserted for `window` (fraction of the cycle), in the clean or the
/// RTN-injected pass. `rungs > 0` retries a *failing* probe up the
/// rescue ladder (each rung re-simulates under
/// `TransientConfig::rescue_rung`) before propagating the error; the
/// probe's verdict is unchanged whenever rung 0 succeeds.
fn writes_ok(
    pattern: &BitPattern,
    base: &MethodologyConfig,
    window: f64,
    with_rtn: bool,
    rungs: usize,
    probe: &mut JobProbe,
) -> Result<bool, SramError> {
    let mut rung = 0;
    loop {
        let mut config = base.clone();
        if rung > 0 {
            config.spice = base.spice.rescue_rung(rung);
            config.faults = config.faults.for_job(0, rung);
        }
        config.timing.wl_off_frac = (config.timing.wl_on_frac + window).min(0.97);
        match run_methodology(pattern, &config) {
            Ok(report) => {
                probe.record_solver(report.solver);
                return Ok(if with_rtn {
                    report.outcomes.error_count() == 0
                } else {
                    report.outcomes_clean.error_count() == 0
                });
            }
            Err(e) if rung >= rungs => return Err(e),
            Err(_) => rung += 1,
        }
    }
}

/// Multisects the minimum word-line window (fraction of the cycle) for
/// error-free writes, for both the clean and the RTN-injected cell.
///
/// Each round places `PROBES_PER_ROUND` equispaced windows inside the
/// current bracket and evaluates them concurrently on
/// [`Parallelism::Auto`] — every probe is a full two-pass SPICE run, so
/// this is where the wall-clock goes. The probe grid depends only on
/// the bracket (never on the worker count), which keeps the returned
/// margins bit-identical at any [`Parallelism`]. `iterations` is the
/// requested *binary-search-equivalent* depth: the number of
/// multisection rounds is chosen so the final bracket is at least as
/// tight as `iterations` classic bisection steps.
///
/// The search takes an explicit [`FailurePolicy`] and reports each
/// probe's two-pass SPICE solver effort and timing into a telemetry
/// [`Recorder`].
///
/// `Retry { rungs }` makes each probe climb the rescue ladder before
/// its failure aborts the search; probes whose nominal run succeeds
/// are untouched, so the margins match `FailFast` whenever `FailFast`
/// would have succeeded. A bisection cannot tolerate a missing probe
/// verdict, so `Quarantine` degrades to `Retry` with the same rung
/// count here.
///
/// The bracket-endpoint sanity probes run outside the ensemble and are
/// not journalled; every multisection probe is. The recorder only
/// observes: the margins do not depend on whether it records.
///
/// # Errors
///
/// Returns [`SramError::InvalidConfig`] if even the widest window
/// fails, and propagates simulation failures once the rescue ladder is
/// exhausted.
pub fn timing_margin_observed(
    pattern: &BitPattern,
    base: &MethodologyConfig,
    iterations: usize,
    policy: FailurePolicy,
    recorder: &mut Recorder,
) -> Result<TimingMargin, SramError> {
    let rungs = policy.rungs();
    let window_max = 0.97 - base.timing.wl_on_frac;
    // The narrowest representable strobe: the rise and fall edges must
    // fit inside the assertion window.
    let window_min = 2.5 * base.timing.edge / base.timing.period;

    // Each round shrinks the bracket by (PROBES_PER_ROUND + 1)x; match
    // or beat the 2^iterations shrink of a classic bisection.
    let shrink = (PROBES_PER_ROUND + 1) as f64;
    let rounds = ((iterations as f64) * 2f64.ln() / shrink.ln()).ceil() as u32;

    let search = |with_rtn: bool, recorder: &mut Recorder| -> Result<f64, SramError> {
        let ok_at = |window: f64, probe: &mut JobProbe| {
            writes_ok(pattern, base, window, with_rtn, rungs, probe)
        };
        if !ok_at(window_max, &mut JobProbe::disabled())? {
            return Err(SramError::InvalidConfig {
                reason: "cell fails even with the widest word-line window",
            });
        }
        let (mut bad, mut good) = (window_min, window_max);
        // Ensure the lower bracket actually fails; if the cell writes
        // with a sliver of a window, report that sliver.
        if ok_at(bad, &mut JobProbe::disabled())? {
            return Ok(bad);
        }
        for _ in 0..rounds {
            let step = (good - bad) / shrink;
            let ok: Vec<bool> = run_ensemble_resilient_observed(
                PROBES_PER_ROUND,
                Parallelism::Auto,
                &ExecutionPolicy::default(),
                recorder,
                IndexedResults::new,
                |i, _rung, probe: &mut JobProbe| ok_at(bad + (i + 1) as f64 * step, probe),
            )?
            .acc
            .into_vec();
            // The lowest passing probe bounds the minimum from above;
            // the probe just below it (or the old lower bracket) from
            // below — the same bracket a serial scan would keep.
            match ok.iter().position(|&w| w) {
                Some(first) => {
                    good = bad + (first + 1) as f64 * step;
                    bad += first as f64 * step;
                }
                None => bad += PROBES_PER_ROUND as f64 * step,
            }
        }
        Ok(good)
    };
    let min_window_clean = search(false, recorder)?;
    let min_window_rtn = search(true, recorder)?;
    recorder.note("margin.multisection_rounds", u64::from(rounds));
    Ok(TimingMargin {
        min_window_clean,
        min_window_rtn,
        resolution: (window_max - window_min) / shrink.powi(rounds as i32),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn margin_of(
        pattern: &BitPattern,
        base: &MethodologyConfig,
    ) -> Result<TimingMargin, SramError> {
        timing_margin_observed(
            pattern,
            base,
            6,
            FailurePolicy::FailFast,
            &mut Recorder::noop(),
        )
    }

    #[test]
    fn clean_cell_has_a_positive_minimum_window() {
        let base = MethodologyConfig {
            traps: Some(Default::default()),
            ..MethodologyConfig::default()
        };
        let pattern = BitPattern::parse("10").expect("valid pattern");
        let margin = margin_of(&pattern, &base).unwrap();
        // Without traps both bisections see the same cell.
        assert!(
            (margin.rtn_penalty()).abs() <= margin.resolution + 1e-9,
            "no-trap penalty should vanish: {margin:?}"
        );
        assert!(margin.min_window_clean > 0.01 && margin.min_window_clean < 0.5);
    }

    #[test]
    fn heavy_rtn_costs_word_line_window() {
        // The first acceleration factor at which the cell still writes
        // with the widest window but needs more window than the clean
        // cell is the interesting operating point; scan for it.
        let pattern = BitPattern::parse("10").expect("valid pattern");
        let mut found = None;
        for scale in [300.0, 800.0, 1500.0, 2200.0] {
            let base = MethodologyConfig {
                seed: 12,
                density_scale: 2.0,
                rtn_scale: scale,
                ..MethodologyConfig::default()
            };
            match margin_of(&pattern, &base) {
                Ok(margin) if margin.rtn_penalty() > 0.0 => {
                    found = Some((scale, margin));
                    break;
                }
                Ok(_) => continue, // RTN too weak at this scale
                Err(SramError::InvalidConfig { .. }) => break, // too strong
                Err(e) => panic!("unexpected failure: {e}"),
            }
        }
        let (scale, margin) = found.expect("some scale must cost window without killing the cell");
        assert!(
            margin.rtn_penalty() > 0.0 && margin.min_window_rtn < 0.97,
            "scale x{scale}: {margin:?}"
        );
    }
}
