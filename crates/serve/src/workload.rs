//! From request to physics: maps a [`JobSpec`] onto the deterministic
//! ensemble engines.
//!
//! Each [`Workload`] variant becomes one job closure (trap panels,
//! cell SNM members) or one ensemble config (columns), always seeded
//! through [`SeedStream`] substreams by job index — so the service
//! produces, for a given spec, exactly the bytes a direct
//! [`run_ensemble_resilient_observed`] call produces, at any worker
//! count. [`run_chunk`] is the worker's execution step: one
//! budget-bounded, checkpointed slice of the run; [`run_direct`] is
//! the uninterrupted reference path the test suite (and the CI
//! byte-identity gate) compares against.

use samurai_core::checkpoint::{
    run_ensemble_checkpointed, CheckpointConfig, RunBudget, RunControls,
};
use samurai_core::ensemble::{Completion, ExecutionPolicy, IndexedResults};
use samurai_core::telemetry::{JobProbe, Journal, JournalEvent, JsonValue, Recorder};
use samurai_core::{
    run_ensemble_resilient_observed, simulate_trap_probed, single_trap_amplitude, CoreError,
    FaultPlan, Parallelism, ScenarioConfig, SeedStream, UniformisationConfig,
};
use samurai_sram::snm::{compute_snm, SnmMode};
use samurai_sram::{
    cell_geometries, run_column_ensemble_observed, ColumnConfig, ColumnEnsembleConfig,
    SramCellParams, SramError,
};
use samurai_trap::{DeviceParams, PropensityModel, TrapParams};
use samurai_units::{Energy, Length};
use samurai_waveform::Pwl;

use crate::spec::{JobSpec, Workload};

/// Gate bias of the trap workload's nominal corner, volts.
const TRAP_V_GS: f64 = 0.8;
/// Drain current used for the trap amplitude conversion, amperes.
const TRAP_I_D: f64 = 10e-6;

/// What one execution slice produced.
#[derive(Debug)]
pub struct ChunkOutcome {
    /// Did the whole ensemble finish in this slice?
    pub complete: bool,
    /// Ensemble jobs completed so far (whole run, not this slice).
    pub jobs_done: usize,
    /// The full journal as of this slice (JSONL). On `complete` this
    /// is byte-identical to an uninterrupted run's journal.
    pub journal: String,
    /// Bytes of `journal` that are safe to stream mid-run: the leading
    /// per-job records. Rescue/quarantine lines are appended *after*
    /// the last job record by the post-merge absorb, so a truncated
    /// slice's journal is only prefix-stable up to here.
    pub stable_len: usize,
    /// Canonical per-job results (floats as `u64` bit patterns),
    /// present only when `complete`.
    pub results: Option<JsonValue>,
    /// Jobs the rescue ladder saved, so far.
    pub rescued: usize,
    /// Jobs the quarantine policy dropped, so far.
    pub quarantined: usize,
}

/// The byte count of the journal's leading run of per-job records —
/// the mid-run streamable prefix (see [`ChunkOutcome::stable_len`]).
#[must_use]
pub fn stable_prefix_len(journal: &Journal) -> usize {
    let stable_events = journal
        .events()
        .iter()
        .take_while(|e| matches!(e, JournalEvent::Job { .. }))
        .count();
    journal.to_jsonl().len() - journal.tail_jsonl(stable_events).len()
}

/// The execution policy of a spec: its failure policy, its master
/// seed, and (when the spec carries a crash drill) the process-kill
/// trigger.
#[must_use]
pub fn execution_policy(spec: &JobSpec) -> ExecutionPolicy {
    let faults = match spec.drill {
        // The submission-driven crash drill: the worker dies with
        // KILL_EXIT before this job, exactly as PR 9's bench drill
        // does, and the restarted server resumes from the segments.
        Some(job) => FaultPlan::none().kill_at_job(job), // lint: allow(DET005): the drill trigger is the service's crash-recovery gate, mirrored from the bench bins
        None => FaultPlan::none(),
    };
    ExecutionPolicy {
        failure: spec.policy,
        faults,
        seed: spec.seed,
    }
}

/// The trap-panel job closure: one constant-bias RTN trace per panel,
/// reporting its mean current step. Panels shorten geometrically on
/// rescue rungs, like the fig7 bin. The mean is the sampled trace's
/// mean bit for bit, summed over the staircase's runs by
/// [`Pwc::sample_mean`](samurai_waveform::Pwc::sample_mean) without
/// storing the samples.
fn trap_job(
    samples: usize,
    seed: u64,
    scenario: Option<ScenarioConfig>,
) -> impl Fn(usize, usize, &mut JobProbe) -> Result<f64, CoreError> + Sync {
    move |idx, rung, probe| {
        let device = DeviceParams::nominal_90nm();
        let trap = TrapParams::new(Length::from_nanometres(1.6), Energy::from_ev(0.40));
        let model = PropensityModel::new(device, trap);
        let member = SeedStream::new(seed).substream(idx as u64);
        let v_gs = match scenario {
            Some(sc) => {
                let sample = sc.sample(&mut member.rng(1), &[]);
                TRAP_V_GS * sample.vdd_scale
            }
            None => TRAP_V_GS,
        };
        let n = (samples >> rung.min(8)).max(256);
        let dt = 0.05 / model.rate_sum();
        let tf = dt * n as f64;
        let mut rng = member.rng(0);
        let occupancy = simulate_trap_probed(
            &model,
            &Pwl::constant(v_gs),
            0.0,
            tf,
            &mut rng,
            &UniformisationConfig::default(),
            probe,
        )?;
        let delta_i = single_trap_amplitude(&device, v_gs, TRAP_I_D);
        Ok(occupancy.scaled(delta_i).sample_mean(0.0, dt, n))
    }
}

/// The cell job closure: one Monte-Carlo 6T instance per member,
/// scenario-varied thresholds and supply, reporting read SNM. Sweep
/// resolution retreats on rescue rungs.
fn cell_job(
    seed: u64,
    scenario: Option<ScenarioConfig>,
) -> impl Fn(usize, usize, &mut JobProbe) -> Result<f64, SramError> + Sync {
    move |idx, rung, _probe| {
        let mut params = SramCellParams::default();
        let geometries = cell_geometries(&params);
        let member = SeedStream::new(seed).substream(idx as u64);
        let sc = scenario.unwrap_or_else(ScenarioConfig::nominal);
        let sample = sc.sample(&mut member.rng(1), &geometries);
        for (t, shift) in params.vth_shift.iter_mut().enumerate() {
            *shift = sample.device(t).vth_delta;
        }
        params.vdd = (params.vdd * sample.vdd_scale).max(0.6);
        let points = (48 >> rung.min(2)).max(12);
        compute_snm(&params, SnmMode::Read, points).map(|r| r.snm())
    }
}

/// The column-ensemble config of a column spec (shared by the chunked
/// worker and the direct reference path; caller fills in parallelism,
/// checkpointing, budget and faults).
#[must_use]
pub fn column_config(spec: &JobSpec, rows: usize, members: usize) -> ColumnEnsembleConfig {
    ColumnEnsembleConfig {
        column: ColumnConfig {
            rows,
            ..ColumnConfig::default()
        },
        members,
        scenario: spec.scenario,
        seed: spec.seed,
        failure: spec.policy,
        ..ColumnEnsembleConfig::default()
    }
}

fn f64_bits_array(values: &[f64]) -> JsonValue {
    JsonValue::Arr(values.iter().map(|v| JsonValue::U64(v.to_bits())).collect())
}

/// Runs one checkpointed slice of a spec's ensemble: at most
/// `budget`'s job ceiling, snapshotting to `checkpoint`. Returns the
/// slice outcome; a simulation failure (fail-fast error or quarantine
/// overflow) is rendered to text — the worker records it as the job's
/// terminal state rather than crashing.
///
/// # Errors
///
/// The rendered simulation error.
pub fn run_chunk(
    spec: &JobSpec,
    parallelism: Parallelism,
    checkpoint: CheckpointConfig,
    budget: RunBudget,
) -> Result<ChunkOutcome, String> {
    let policy = execution_policy(spec);
    let controls = RunControls { checkpoint, budget };
    let mut rec = Recorder::recording();
    match spec.workload {
        Workload::Trap { panels, samples } => {
            let outcome = run_ensemble_checkpointed(
                panels,
                parallelism,
                &policy,
                &controls,
                &mut rec,
                IndexedResults::new,
                trap_job(samples, spec.seed, spec.scenario),
            )
            .map_err(|e| format!("{e:?}"))?;
            Ok(slice_outcome(panels, &rec, outcome))
        }
        Workload::Cell { members } => {
            let outcome = run_ensemble_checkpointed(
                members,
                parallelism,
                &policy,
                &controls,
                &mut rec,
                IndexedResults::new,
                cell_job(spec.seed, spec.scenario),
            )
            .map_err(|e| format!("{e:?}"))?;
            Ok(slice_outcome(members, &rec, outcome))
        }
        Workload::Column { rows, members } => {
            let mut config = column_config(spec, rows, members);
            config.parallelism = parallelism;
            config.faults = policy.faults.clone();
            config.checkpoint = controls.checkpoint.clone();
            config.budget = controls.budget;
            let stats =
                run_column_ensemble_observed(&config, &mut rec).map_err(|e| format!("{e:?}"))?;
            let complete = stats.completion == Completion::Complete;
            let jobs_done = match stats.completion {
                Completion::Complete => members,
                Completion::Truncated { completed, .. } => completed,
            };
            let journal = rec.journal();
            Ok(ChunkOutcome {
                complete,
                jobs_done,
                journal: journal.to_jsonl(),
                stable_len: stable_prefix_len(journal),
                results: complete.then(|| {
                    JsonValue::Arr(
                        stats
                            .members
                            .iter()
                            .map(samurai_core::checkpoint::Snapshot::to_snapshot)
                            .collect(),
                    )
                }),
                rescued: stats.report.rescued.len(),
                quarantined: stats.report.quarantined.len(),
            })
        }
    }
}

fn slice_outcome(
    jobs: usize,
    rec: &Recorder,
    outcome: samurai_core::ensemble::EnsembleOutcome<IndexedResults<f64>>,
) -> ChunkOutcome {
    let complete = outcome.completion == Completion::Complete;
    let jobs_done = match outcome.completion {
        Completion::Complete => jobs,
        Completion::Truncated { completed, .. } => completed,
    };
    let journal = rec.journal();
    let rescued = outcome.report.rescued.len();
    let quarantined = outcome.report.quarantined.len();
    ChunkOutcome {
        complete,
        jobs_done,
        journal: journal.to_jsonl(),
        stable_len: stable_prefix_len(journal),
        results: complete.then(|| f64_bits_array(&outcome.acc.into_vec())),
        rescued,
        quarantined,
    }
}

/// The uninterrupted reference run of a spec: the plain resilient
/// observed engine (or, for columns, the passive column ensemble),
/// recording into `recorder`. The service's streamed journal must be
/// byte-identical to this run's journal — the crate's headline
/// invariant, pinned by the integration tests and the CI smoke gate.
///
/// # Errors
///
/// The rendered simulation error.
pub fn run_direct(
    spec: &JobSpec,
    parallelism: Parallelism,
    recorder: &mut Recorder,
) -> Result<(), String> {
    let policy = execution_policy(spec);
    match spec.workload {
        Workload::Trap { panels, samples } => run_ensemble_resilient_observed(
            panels,
            parallelism,
            &policy,
            recorder,
            IndexedResults::new,
            trap_job(samples, spec.seed, spec.scenario),
        )
        .map(|_| ())
        .map_err(|e| format!("{e:?}")),
        Workload::Cell { members } => run_ensemble_resilient_observed(
            members,
            parallelism,
            &policy,
            recorder,
            IndexedResults::new,
            cell_job(spec.seed, spec.scenario),
        )
        .map(|_| ())
        .map_err(|e| format!("{e:?}")),
        Workload::Column { rows, members } => {
            let mut config = column_config(spec, rows, members);
            config.parallelism = parallelism;
            run_column_ensemble_observed(&config, recorder)
                .map(|_| ())
                .map_err(|e| format!("{e:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samurai_core::FailurePolicy;

    fn trap_spec(panels: usize) -> JobSpec {
        JobSpec {
            workload: Workload::Trap {
                panels,
                samples: 512,
            },
            seed: 42,
            policy: FailurePolicy::FailFast,
            scenario: None,
            drill: None,
        }
    }

    #[test]
    fn a_single_chunk_matches_the_direct_run_byte_for_byte() {
        let spec = trap_spec(3);
        let mut direct = Recorder::recording();
        run_direct(&spec, Parallelism::Fixed(1), &mut direct).unwrap();

        let chunk = run_chunk(
            &spec,
            Parallelism::Fixed(2),
            CheckpointConfig::default(),
            RunBudget::unlimited(),
        )
        .unwrap();
        assert!(chunk.complete);
        assert_eq!(chunk.jobs_done, 3);
        assert_eq!(chunk.journal, direct.journal().to_jsonl());
        assert_eq!(chunk.stable_len, chunk.journal.len());
        assert!(chunk.results.is_some());
    }

    #[test]
    fn chunked_resume_reassembles_the_same_journal() {
        let spec = trap_spec(6);
        let mut direct = Recorder::recording();
        run_direct(&spec, Parallelism::Fixed(1), &mut direct).unwrap();
        let reference = direct.journal().to_jsonl();

        let ckpt = std::env::temp_dir().join(format!(
            "samurai-serve-workload-chunks-{}.ckpt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&ckpt);
        let mut done = 0usize;
        let mut streamed = String::new();
        let last;
        loop {
            let resume = ckpt.exists();
            let mut cfg = CheckpointConfig::to_file(&ckpt).every(2);
            if resume {
                cfg = cfg.resuming();
            }
            let chunk = run_chunk(
                &spec,
                Parallelism::Fixed(2),
                cfg,
                RunBudget::unlimited().jobs(done + 2),
            )
            .unwrap();
            assert!(chunk.jobs_done > done || chunk.complete, "no progress");
            done = chunk.jobs_done;
            // Mid-run tails must concatenate into the final journal.
            assert!(chunk.journal.len() >= streamed.len());
            assert!(chunk.journal.starts_with(&streamed));
            streamed = chunk.journal[..chunk.stable_len].to_owned();
            if chunk.complete {
                last = chunk;
                break;
            }
        }
        assert_eq!(last.journal, reference);
        let _ = std::fs::remove_file(&ckpt);
    }
}
