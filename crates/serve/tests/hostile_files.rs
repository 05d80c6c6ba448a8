//! Hostile files at the persistence boundary: a checkpoint snapshot, a
//! request document and a result document are each damaged at every
//! byte (XOR 0x01, which keeps the file ASCII so the damage reaches the
//! parse, schema and hash checks instead of stopping at UTF-8) and cut
//! at every length, and every variant goes through the same decoder a
//! running service uses.
//!
//! * A damaged checkpoint must resume into either the uninterrupted
//!   run, byte for byte, or the cold run with exactly one leading
//!   `checkpoint.cold_start.<reason>` journal note.
//! * A damaged result must load as nothing or as the identical
//!   document; a damaged request must be skipped by recovery or
//!   recover the identical spec.
//!
//! Everything is seeded, and a failure names the damage and its offset.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use samurai_core::checkpoint::{CheckpointConfig, RunBudget, RunControls};
use samurai_core::ensemble::{EnsembleOutcome, ExecutionPolicy, MeanTrace};
use samurai_core::telemetry::{JobProbe, Recorder};
use samurai_core::{
    run_ensemble_checkpointed, CoreError, FailurePolicy, FaultKind, FaultPlan, Parallelism,
    SeedStream,
};
use samurai_serve::worker::execute;
use samurai_serve::{JobSpec, ResultStore, ServiceState, SubmitOutcome, Workload};

/// Ensemble size of the checkpointed run.
const JOBS: usize = 8;
/// Snapshot cadence in jobs.
const CADENCE: usize = 2;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("samurai-hostile-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Every damaged variant of `bytes`, labelled: each byte XOR 0x01,
/// then every proper prefix.
fn variants(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let flips = (0..bytes.len()).map(|at| {
        let mut damaged = bytes.to_vec();
        damaged[at] ^= 0x01;
        (format!("byte {at} flipped"), damaged)
    });
    let cuts = (0..bytes.len()).map(|len| (format!("cut to {len} bytes"), bytes[..len].to_vec()));
    flips.chain(cuts)
}

/// Runs `check` and turns any panic into a failure naming `damage`.
fn survives(damage: &str, check: impl FnOnce()) {
    if catch_unwind(AssertUnwindSafe(check)).is_err() {
        panic!("{damage}: the check panicked");
    }
}

fn policy() -> ExecutionPolicy {
    ExecutionPolicy {
        failure: FailurePolicy::Quarantine {
            rungs: 1,
            max_failures: 2,
        },
        faults: FaultPlan::none().fail_job(5, FaultKind::NonConvergence),
        seed: 23,
    }
}

/// A seeded job; job 3 needs its rescue rung and job 5 is quarantined,
/// so the snapshot carries every list the decoder reads.
fn job(j: usize, rung: usize, _probe: &mut JobProbe) -> Result<Vec<f64>, CoreError> {
    if j == 3 && rung == 0 {
        return Err(CoreError::NonFinitePropensity { time: 0.5 });
    }
    let bits = SeedStream::new(23).substream(j as u64).seed();
    Ok(vec![(bits >> 11) as f64 * f64::EPSILON])
}

fn run(controls: &RunControls) -> (EnsembleOutcome<MeanTrace>, String) {
    let mut recorder = Recorder::recording();
    let out = run_ensemble_checkpointed(
        JOBS,
        Parallelism::Fixed(1),
        &policy(),
        controls,
        &mut recorder,
        || MeanTrace::zeros(1),
        job,
    )
    .expect("within the quarantine budget");
    (out, recorder.journal().to_jsonl())
}

#[test]
fn damaged_checkpoints_resume_exactly_or_start_cold() {
    let dir = scratch("checkpoint");
    let snapshot = dir.join("run.snapshot");
    let checkpoint = CheckpointConfig::to_file(&snapshot).every(CADENCE);
    run(&RunControls {
        checkpoint: checkpoint.clone(),
        budget: RunBudget::unlimited().jobs(JOBS / 2),
    });
    let valid = fs::read(&snapshot).expect("the partial run left a snapshot");
    let resuming = RunControls {
        checkpoint: checkpoint.resuming(),
        budget: RunBudget::unlimited(),
    };
    let (whole, journal) = run(&RunControls::default());
    assert_eq!(
        run(&resuming),
        (whole.clone(), journal.clone()),
        "the undamaged snapshot resumes journal-silently"
    );

    for (damage, bytes) in variants(&valid) {
        survives(&damage, || {
            fs::write(&snapshot, &bytes).expect("scratch write");
            let (out, resumed) = run(&resuming);
            assert_eq!(out, whole, "{damage}: outcome");
            if resumed != journal {
                let (note, rest) = resumed.split_once('\n').unwrap_or((&resumed, ""));
                assert!(
                    note.contains("checkpoint.cold_start.") && rest == journal,
                    "{damage}: neither the resumed nor the cold journal, starts {note}"
                );
            }
        });
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A store holding one executed ticket: its request and result files.
fn executed_store(dir: &Path, spec: &JobSpec) -> ResultStore {
    let state = ServiceState::open(ResultStore::open(dir).expect("store"), 4).expect("state");
    assert!(matches!(
        state.submit(spec.clone()),
        Ok(SubmitOutcome::Accepted(_))
    ));
    let (ticket, spec) = state.next_job().expect("the queued ticket");
    execute(&state, ticket, &spec, Parallelism::Fixed(1), CADENCE).expect("the ticket runs");
    state.finish(ticket, None);
    state.store().clone()
}

#[test]
fn damaged_store_documents_load_whole_or_not_at_all() {
    let dir = scratch("store");
    let spec = JobSpec {
        workload: Workload::Trap {
            panels: 2,
            samples: 256,
        },
        seed: 5,
        policy: FailurePolicy::Retry { rungs: 1 },
        scenario: None,
        drill: None,
    };
    let ticket = spec.ticket();
    let store = executed_store(&dir, &spec);
    let result_path = store.result_path(ticket);
    let request_path = store.request_path(ticket);
    let result = fs::read(&result_path).expect("the sealed result");
    let request = fs::read(&request_path).expect("the sealed request");
    let sealed = store
        .load_result(ticket)
        .expect("the undamaged result loads");

    for (damage, bytes) in variants(&result) {
        survives(&damage, || {
            fs::write(&result_path, &bytes).expect("scratch write");
            if let Some(doc) = store.load_result(ticket) {
                assert_eq!(doc, sealed, "result {damage}: loaded a different document");
            }
        });
    }

    fs::remove_file(&result_path).expect("result removed");
    assert_eq!(
        store.pending_requests().expect("scan"),
        [(ticket, spec.clone())]
    );
    for (damage, bytes) in variants(&request) {
        survives(&damage, || {
            fs::write(&request_path, &bytes).expect("scratch write");
            let pending = store.pending_requests().expect("scan");
            assert!(
                pending.is_empty() || pending == [(ticket, spec.clone())],
                "request {damage}: recovered {pending:?}"
            );
        });
    }
    let _ = fs::remove_dir_all(&dir);
}
