//! Array-level Monte-Carlo bit-error analysis (paper future work,
//! items 2 and 3).
//!
//! An SRAM array is thousands of cells, each with its own random trap
//! population *and* its own random threshold-voltage offsets. The
//! paper's single-cell study (with its ×30 acceleration) is the
//! building block; this module iterates it over sampled cells and
//! aggregates write-error statistics — the "bit-error impact of RTN on
//! entire SRAM arrays" the authors name as the next step.
//!
//! The cells are the parallel grain: [`ArrayConfig::parallelism`] sizes
//! the ensemble pool, and each cell's two-pass run generates its RTN on
//! the worker that runs it.

use rand::Rng;
use samurai_core::checkpoint::{
    run_ensemble_checkpointed, CheckpointConfig, RunBudget, RunControls, Snapshot,
};
use samurai_core::ensemble::{
    Completion, ExecutionPolicy, FailurePolicy, FailureReport, IndexedResults, Parallelism,
};
use samurai_core::faults::FaultPlan;
use samurai_core::scenario::ScenarioConfig;
use samurai_core::telemetry::JsonValue;
use samurai_core::SeedStream;
use samurai_telemetry::{JobProbe, Recorder};
use samurai_trap::TrapParams;
use samurai_waveform::BitPattern;

use crate::scenario::{lower, scenario_or_default};
use crate::{cell_geometries, run_methodology, MethodologyConfig, SramCellParams, SramError};

/// Configuration of the Monte-Carlo sweep.
#[derive(Debug, Clone)]
pub struct ArrayConfig {
    /// Base per-cell methodology settings (the per-cell seed, supply,
    /// `vth_shift`, technology, trap profiles, `adjust`,
    /// `phi_t_scale`, `spice` rescue rung and `faults` fields are
    /// overwritten per sample).
    pub base: MethodologyConfig,
    /// Number of cells to simulate.
    pub cells: usize,
    /// Unified per-cell scenario distribution (mismatch with Pelgrom
    /// scaling, beta/geometry spread, supply/temperature corners,
    /// NBTI stress and trap-density dispersion), journalled per cell.
    /// `None` samples `ScenarioConfig::fixed_vth_sigma(0.02)` and
    /// journals no scenario stamp.
    pub scenario: Option<ScenarioConfig>,
    /// Master seed for the sweep.
    pub seed: u64,
    /// What to do when a cell's simulation fails (see
    /// [`samurai_core::ensemble::FailurePolicy`]). The default,
    /// `FailFast`, aborts the sweep on the lowest-indexed failure.
    pub failure: FailurePolicy,
    /// Worker pool over cells; results are bit-identical at every
    /// setting.
    pub parallelism: Parallelism,
    /// Deterministic fault plan for the sweep: `fail_job` targets whole
    /// cells, `in_job`-scoped solve/step triggers reach into one cell's
    /// SPICE passes. Overrides `base.faults`. Empty in production.
    pub faults: FaultPlan,
    /// Crash-safe snapshotting of the sweep (see
    /// [`samurai_core::checkpoint`]). Off by default.
    pub checkpoint: CheckpointConfig,
    /// Deterministic work ceilings; an exhausted budget truncates the
    /// sweep cleanly ([`ArrayStats::completion`]). Unlimited by
    /// default.
    pub budget: RunBudget,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        Self {
            base: MethodologyConfig::default(),
            cells: 16,
            scenario: None,
            seed: 0,
            failure: FailurePolicy::FailFast,
            parallelism: Parallelism::Auto,
            faults: FaultPlan::none(),
            checkpoint: CheckpointConfig::default(),
            budget: RunBudget::default(),
        }
    }
}

/// Per-cell result of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Cell index.
    pub cell: usize,
    /// Write errors in the RTN pass.
    pub errors: usize,
    /// Slow writes in the RTN pass.
    pub slow: usize,
    /// Write errors already present without RTN (variation alone).
    pub baseline_errors: usize,
    /// Total capture/emission events.
    pub rtn_events: usize,
}

impl Snapshot for CellResult {
    fn to_snapshot(&self) -> JsonValue {
        JsonValue::Arr(
            [
                self.cell,
                self.errors,
                self.slow,
                self.baseline_errors,
                self.rtn_events,
            ]
            .iter()
            .map(|&n| JsonValue::U64(n as u64))
            .collect(),
        )
    }

    fn from_snapshot(v: &JsonValue) -> Option<Self> {
        let JsonValue::Arr(items) = v else {
            return None;
        };
        if items.len() != 5 {
            return None;
        }
        let mut n = items
            .iter()
            .map(|item| usize::try_from(item.as_u64()?).ok());
        Some(Self {
            cell: n.next()??,
            errors: n.next()??,
            slow: n.next()??,
            baseline_errors: n.next()??,
            rtn_events: n.next()??,
        })
    }
}

/// Aggregated statistics of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayStats {
    /// Per-cell outcomes. Under `Quarantine` this holds only the cells
    /// that completed; quarantined cells are in [`ArrayStats::report`].
    pub cells: Vec<CellResult>,
    /// Number of write attempts per cell (pattern length).
    pub writes_per_cell: usize,
    /// Rescue/quarantine accounting for the sweep; clean runs carry an
    /// empty report.
    pub report: FailureReport,
    /// Whether the sweep covered every cell or was budget-truncated at
    /// a deterministic boundary.
    pub completion: Completion,
}

impl ArrayStats {
    /// Total RTN-pass write errors across the array.
    pub fn total_errors(&self) -> usize {
        self.cells.iter().map(|c| c.errors).sum()
    }

    /// Total variation-only (RTN-free) write errors.
    pub fn total_baseline_errors(&self) -> usize {
        self.cells.iter().map(|c| c.baseline_errors).sum()
    }

    /// Cells that actually contributed statistics (requested cells
    /// minus quarantined ones).
    pub fn effective_cells(&self) -> usize {
        self.cells.len()
    }

    /// Write-bit-error rate under RTN: errors / *effective* writes, so
    /// quarantined cells do not dilute the estimate.
    pub fn error_rate(&self) -> f64 {
        let writes = self.effective_cells() * self.writes_per_cell;
        if writes == 0 {
            return 0.0;
        }
        self.total_errors() as f64 / writes as f64
    }

    /// Number of cells with at least one RTN-pass error.
    pub fn failing_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.errors > 0).count()
    }
}

/// Runs the Monte-Carlo array sweep.
///
/// Cells are sharded over the ensemble engine according to
/// `config.parallelism`; each cell's seeds derive from the master seed
/// by cell index, so the statistics are bit-identical at every worker
/// count.
///
/// Failed cells are handled per `config.failure`: `FailFast`
/// propagates the failure with the lowest cell index; `Retry` re-runs
/// a failing cell up the rescue ladder (each rung re-simulates under
/// `TransientConfig::rescue_rung(rung)`); `Quarantine` additionally
/// drops irrecoverable cells — their identities and errors are in
/// [`ArrayStats::report`] — as long as no more than `max_failures`
/// drop out.
///
/// # Errors
///
/// Propagates the per-cell simulation failure with the lowest cell
/// index once the failure policy is exhausted.
pub fn run_array(pattern: &BitPattern, config: &ArrayConfig) -> Result<ArrayStats, SramError> {
    run_array_observed(pattern, config, &mut Recorder::noop())
}

/// [`run_array`] reporting per-cell solver effort, timings, rescues and
/// quarantines into a telemetry [`Recorder`].
///
/// Each finished cell contributes its two-pass SPICE solver counters
/// (from [`MethodologyReport::solver`](crate::MethodologyReport)) to the
/// journal and totals; the array statistics themselves are
/// bit-identical to [`run_array`] for every worker count, recording or
/// not.
///
/// # Errors
///
/// As [`run_array`].
pub fn run_array_observed(
    pattern: &BitPattern,
    config: &ArrayConfig,
    recorder: &mut Recorder,
) -> Result<ArrayStats, SramError> {
    let seeds = SeedStream::new(config.seed);
    let scenario = scenario_or_default(config.scenario);
    let policy = ExecutionPolicy {
        failure: config.failure,
        faults: config.faults.clone(),
        seed: config.seed,
    };
    let controls = RunControls {
        checkpoint: config.checkpoint.clone(),
        budget: config.budget,
    };
    let outcome = run_ensemble_checkpointed(
        config.cells,
        config.parallelism,
        &policy,
        &controls,
        recorder,
        IndexedResults::new,
        |cell_idx, rung, probe: &mut JobProbe| -> Result<CellResult, SramError> {
            let cell_seeds = seeds.substream(cell_idx as u64);
            let sample =
                scenario.sample(&mut cell_seeds.rng(0), &cell_geometries(&config.base.cell));
            // The traps are pre-sampled from the exact substreams the
            // methodology's sites draw from (DESIGN §19).
            let methodology_seed: u64 = cell_seeds.rng(1).gen();
            let site_seeds = SeedStream::new(methodology_seed);
            let lowered = lower(
                &sample,
                &config.base.cell,
                &config.base.technology,
                config.base.density_scale,
                |t| site_seeds.substream(t as u64),
            );
            let mut traps: [Vec<TrapParams>; 6] = Default::default();
            for (slot, profile) in traps.iter_mut().zip(lowered.traps) {
                *slot = profile;
            }
            let mut timing = config.base.timing;
            timing.vdd *= sample.vdd_scale;
            let spice = if rung == 0 {
                config.base.spice.clone()
            } else {
                config.base.spice.rescue_rung(rung)
            };
            let cell_config = MethodologyConfig {
                cell: SramCellParams {
                    vdd: lowered.vdd,
                    vth_shift: std::array::from_fn(|t| lowered.vth_shift[t]),
                    ..config.base.cell
                },
                timing,
                technology: lowered.technology,
                seed: methodology_seed,
                traps: Some(traps),
                spice,
                faults: config.faults.for_job(cell_idx, rung),
                adjust: std::array::from_fn(|t| lowered.adjust[t]),
                phi_t_scale: lowered.phi_t_scale,
                ..config.base.clone()
            };
            let report = run_methodology(pattern, &cell_config)?;
            probe.record_solver(report.solver);
            if config.scenario.is_some() {
                probe.record_scenario(sample.stamp());
            }
            Ok(CellResult {
                cell: cell_idx,
                errors: report.outcomes.error_count(),
                slow: report.outcomes.slow_count(),
                baseline_errors: report.outcomes_clean.error_count(),
                rtn_events: report.total_events(),
            })
        },
    )?;
    Ok(ArrayStats {
        cells: outcome.acc.into_vec(),
        writes_per_cell: pattern.len(),
        report: outcome.report,
        completion: outcome.completion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_array_sweep_runs_and_aggregates() {
        let config = ArrayConfig {
            cells: 4,
            scenario: Some(ScenarioConfig::fixed_vth_sigma(0.01)),
            seed: 2,
            base: MethodologyConfig {
                rtn_scale: 1.0,
                ..MethodologyConfig::default()
            },
            ..ArrayConfig::default()
        };
        let pattern = BitPattern::parse("10").unwrap();
        let stats = run_array(&pattern, &config).unwrap();
        assert_eq!(stats.cells.len(), 4);
        assert_eq!(stats.writes_per_cell, 2);
        // Mild variation + unscaled RTN: healthy cells.
        assert_eq!(stats.total_errors(), 0, "{:?}", stats.cells);
        assert_eq!(stats.error_rate(), 0.0);
        assert_eq!(stats.failing_cells(), 0);
    }

    #[test]
    fn sweeps_are_reproducible() {
        let config = ArrayConfig {
            cells: 2,
            seed: 7,
            ..ArrayConfig::default()
        };
        let pattern = BitPattern::parse("1").unwrap();
        let a = run_array(&pattern, &config).unwrap();
        let b = run_array(&pattern, &config).unwrap();
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn heavy_scaling_and_variation_break_some_cells() {
        let config = ArrayConfig {
            cells: 6,
            scenario: Some(ScenarioConfig::fixed_vth_sigma(0.05)),
            seed: 11,
            base: MethodologyConfig {
                rtn_scale: 2000.0,
                density_scale: 2.0,
                ..MethodologyConfig::default()
            },
            ..ArrayConfig::default()
        };
        let pattern = BitPattern::parse("1010").unwrap();
        let stats = run_array(&pattern, &config).unwrap();
        assert!(
            stats.total_errors() > 0 || stats.cells.iter().any(|c| c.slow > 0),
            "extreme stress should disturb at least one write: {:?}",
            stats.cells
        );
    }
}
