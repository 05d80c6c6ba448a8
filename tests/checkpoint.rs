//! Crash-safety integration suite, end to end through the SRAM column
//! ensemble: kill a run mid-flight and resume it bit-identically,
//! degrade a corrupted snapshot to a cold start, truncate on a job
//! budget and resume into the full run, and contain a panicking job in
//! the quarantine report.
//!
//! The kill drill needs a process that actually dies, so this suite
//! re-executes its own test binary: [`kill_child`] is a no-op in a
//! normal run and becomes the victim when the parent sets the
//! `SAMURAI_CKPT_TEST_*` role variables.

use std::path::{Path, PathBuf};
use std::process::Command;

use samurai::core::checkpoint::{CheckpointConfig, RunBudget, RunControls, KILL_EXIT};
use samurai::core::ensemble::{
    Completion, ExecutionPolicy, FailurePolicy, IndexedResults, Parallelism,
};
use samurai::core::faults::{FaultKind, FaultPlan};
use samurai::core::telemetry::Recorder;
use samurai::core::{run_ensemble_checkpointed, CoreError};
use samurai::spice::SolverChoice;
use samurai::sram::{
    run_column_ensemble_observed, ColumnConfig, ColumnEnsembleConfig, ColumnStats,
};

/// Ensemble size of the drill: small enough to run eighteen times in a
/// test, large enough for several shard-aligned snapshot segments.
const MEMBERS: usize = 6;
/// The job the crash drill dies before; with [`CADENCE`] = 2 the
/// snapshot on disk then holds two completed segments.
const KILL_AT: usize = 4;
/// Snapshot cadence in jobs.
const CADENCE: usize = 2;
/// Results must be identical at every worker count.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

const ENV_PATH: &str = "SAMURAI_CKPT_TEST_PATH";
const ENV_WORKERS: &str = "SAMURAI_CKPT_TEST_WORKERS";
const ENV_SOLVER: &str = "SAMURAI_CKPT_TEST_SOLVER";

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("samurai-ckpt-{}-{tag}.ckpt", std::process::id()))
}

fn solver_named(name: &str) -> SolverChoice {
    match name {
        "sparse" => SolverChoice::Sparse,
        _ => SolverChoice::Dense,
    }
}

/// A one-row column keeps each member cheap while still exercising
/// both transient passes. Member 1 carries a
/// deterministic fatal fault so every snapshot and journal in the
/// suite holds quarantine state.
fn drill_config(workers: usize, solver: SolverChoice) -> ColumnEnsembleConfig {
    ColumnEnsembleConfig {
        column: ColumnConfig {
            rows: 1,
            solver,
            ..ColumnConfig::default()
        },
        members: MEMBERS,
        rtn_scale: 30.0,
        seed: 11,
        parallelism: Parallelism::Fixed(workers),
        failure: FailurePolicy::Quarantine {
            rungs: 1,
            max_failures: 2,
        },
        faults: FaultPlan::none().fail_job(1, FaultKind::NonConvergence),
        ..ColumnEnsembleConfig::default()
    }
}

/// The uninterrupted reference run: stats plus journal bytes.
fn baseline(solver: SolverChoice) -> (ColumnStats, String) {
    let mut recorder = Recorder::recording();
    let stats = run_column_ensemble_observed(&drill_config(2, solver), &mut recorder)
        .expect("baseline ensemble runs");
    (stats, recorder.journal().to_jsonl())
}

fn spawn_kill_child(path: &Path, workers: usize, solver: &str) {
    let exe = std::env::current_exe().expect("test binary path");
    // The child's output is captured, not inherited: a victim killed
    // mid-line would otherwise splice its half-printed `test kill_child
    // ...` header into the parent's own test report.
    let output = Command::new(exe)
        .args(["--exact", "kill_child", "--test-threads=1", "--nocapture"])
        .env(ENV_PATH, path)
        .env(ENV_WORKERS, workers.to_string())
        .env(ENV_SOLVER, solver)
        .output()
        .expect("kill-drill child spawns");
    assert_eq!(
        output.status.code(),
        Some(KILL_EXIT),
        "the drill dies with the kill exit code, not a crash or a clean exit\n\
         child stdout:\n{}\nchild stderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

/// Child half of the crash drill. Without the role variables (a normal
/// suite run) it passes instantly; with them it runs the checkpointed
/// ensemble under `kill_at_job` and must die before finishing.
#[test]
fn kill_child() {
    let Ok(path) = std::env::var(ENV_PATH) else {
        return;
    };
    let workers: usize = std::env::var(ENV_WORKERS)
        .expect("parent sets the worker count")
        .parse()
        .expect("worker count parses");
    let solver = solver_named(&std::env::var(ENV_SOLVER).expect("parent sets the solver"));
    let mut config = drill_config(workers, solver);
    config.faults = config.faults.kill_at_job(KILL_AT);
    config.checkpoint = CheckpointConfig::to_file(path).every(CADENCE);
    let _ = run_column_ensemble_observed(&config, &mut Recorder::recording());
    panic!("the kill drill should have exited the process before the run finished");
}

/// The tentpole guarantee: kill a run mid-ensemble, resume from its
/// snapshot, and the final statistics and journal bytes are identical
/// to an uninterrupted run — at 1/2/8 workers, on both solver
/// backends, with a quarantined member in flight.
#[test]
fn kill_and_resume_reproduces_an_uninterrupted_run() {
    for solver_tag in ["dense", "sparse"] {
        let solver = solver_named(solver_tag);
        let (base_stats, base_journal) = baseline(solver);
        assert!(
            !base_stats.report.quarantined.is_empty(),
            "the drill must carry quarantine state through the snapshot"
        );
        for workers in WORKER_COUNTS {
            let path = scratch(&format!("kill-{solver_tag}-{workers}"));
            let _ = std::fs::remove_file(&path);
            spawn_kill_child(&path, workers, solver_tag);
            assert!(path.exists(), "the killed run left a snapshot behind");

            let mut config = drill_config(workers, solver);
            config.checkpoint = CheckpointConfig::to_file(&path).every(CADENCE).resuming();
            let mut recorder = Recorder::recording();
            let stats = run_column_ensemble_observed(&config, &mut recorder)
                .expect("the resumed ensemble runs");
            assert_eq!(
                stats, base_stats,
                "resumed stats differ from the uninterrupted run \
                 ({solver_tag}, {workers} workers)"
            );
            assert_eq!(
                recorder.journal().to_jsonl(),
                base_journal,
                "resumed journal bytes differ from the uninterrupted run \
                 ({solver_tag}, {workers} workers)"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// A corrupted snapshot never aborts the run: it degrades to a cold
/// start whose only trace is one leading `checkpoint.cold_start.`
/// journal note, with everything after it byte-identical to the
/// uninterrupted journal.
#[test]
fn a_corrupted_snapshot_degrades_to_a_cold_start() {
    let solver = SolverChoice::Dense;
    let (base_stats, base_journal) = baseline(solver);
    let path = scratch("corrupt");
    std::fs::write(&path, "{ this is not a checkpoint").expect("scratch file writes");

    let mut config = drill_config(2, solver);
    config.checkpoint = CheckpointConfig::to_file(&path).every(CADENCE).resuming();
    let mut recorder = Recorder::recording();
    let stats = run_column_ensemble_observed(&config, &mut recorder).expect("the cold start runs");
    assert_eq!(stats, base_stats, "a cold start reproduces the baseline");

    let jsonl = recorder.journal().to_jsonl();
    let (first, rest) = jsonl
        .split_once('\n')
        .expect("the cold-start journal has a note and then the run");
    assert!(
        first.contains("checkpoint.cold_start."),
        "the first journal line must explain the cold start: {first}"
    );
    assert_eq!(
        rest, base_journal,
        "after the note the journal is byte-identical to the baseline"
    );
    let _ = std::fs::remove_file(&path);
}

/// An exhausted job budget truncates at a shard boundary with an exact
/// prefix of the uninterrupted statistics; a resumed run with the
/// budget lifted completes into the bit-identical full result.
#[test]
fn a_budget_truncation_resumes_into_the_full_run() {
    let solver = SolverChoice::Dense;
    let (base_stats, base_journal) = baseline(solver);
    let path = scratch("budget");
    let _ = std::fs::remove_file(&path);

    let mut config = drill_config(2, solver);
    config.checkpoint = CheckpointConfig::to_file(&path).every(CADENCE);
    config.budget = RunBudget::unlimited().jobs(3);
    let mut recorder = Recorder::recording();
    let partial =
        run_column_ensemble_observed(&config, &mut recorder).expect("the truncated ensemble runs");
    assert_eq!(
        partial.completion,
        Completion::Truncated {
            completed: 3,
            remaining: 3,
        },
        "the budget stops cleanly at a job boundary"
    );
    // Member 1 is quarantined, so the completed prefix 0..3 yields
    // exactly the members 0 and 2 — bit-identical to the baseline's.
    let prefix: Vec<_> = base_stats
        .members
        .iter()
        .filter(|m| m.member < 3)
        .cloned()
        .collect();
    assert_eq!(
        partial.members, prefix,
        "the truncated prefix matches the uninterrupted run's prefix"
    );
    assert_eq!(
        partial.report.quarantined.len(),
        1,
        "the quarantined member sits inside the completed prefix"
    );

    let mut resumed_config = drill_config(2, solver);
    resumed_config.checkpoint = CheckpointConfig::to_file(&path).every(CADENCE).resuming();
    let mut resumed_recorder = Recorder::recording();
    let full = run_column_ensemble_observed(&resumed_config, &mut resumed_recorder)
        .expect("the resumed ensemble runs");
    assert_eq!(full.completion, Completion::Complete);
    assert_eq!(
        full, base_stats,
        "the resumed run completes the budgeted one"
    );
    assert_eq!(
        resumed_recorder.journal().to_jsonl(),
        base_journal,
        "the resumed journal is byte-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_file(&path);
}

/// A job that panics outright lands in the quarantine report, as the
/// `Debug` text of a [`CoreError::Panicked`] failure, instead of
/// aborting the ensemble; every other job still contributes.
#[test]
fn a_panicking_job_is_quarantined_not_fatal() {
    let policy = ExecutionPolicy {
        failure: FailurePolicy::Quarantine {
            rungs: 1,
            max_failures: 1,
        },
        faults: FaultPlan::none(),
        seed: 21,
    };
    let controls = RunControls::default();
    let mut recorder = Recorder::recording();
    let outcome = run_ensemble_checkpointed(
        12,
        Parallelism::Fixed(4),
        &policy,
        &controls,
        &mut recorder,
        IndexedResults::new,
        |job, _rung, _probe| -> Result<u64, CoreError> {
            assert!(job != 5, "deliberate panic in job 5");
            Ok(job as u64 % 3)
        },
    )
    .expect("the panic is contained, not propagated");

    assert_eq!(outcome.completion, Completion::Complete);
    assert_eq!(
        outcome.acc.into_vec().len(),
        11,
        "the other eleven jobs all landed"
    );
    let quarantined = &outcome.report.quarantined;
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].job, 5);
    assert!(
        quarantined[0]
            .error
            .starts_with("Panicked { message: \"deliberate panic"),
        "the panic payload survives into the failure report: {}",
        quarantined[0].error
    );
}
