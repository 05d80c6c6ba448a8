//! Crash-safe checkpointed ensembles: deterministic checkpoint/resume,
//! run budgets with graceful degradation, and the process-kill drill.
//!
//! Long Monte-Carlo campaigns (the §V array sweeps run for hours) die
//! for boring reasons — preemption, OOM killers, power loss — and a
//! deterministic engine makes *exact* recovery possible: because the
//! shard structure and merge tree of an ensemble depend only on the
//! job count, a run can be sliced at any shard boundary, its running
//! state serialised, and continued later with **bit-identical**
//! results. The segment loop itself is the one private driver under
//! both ensemble runners (see [`crate::ensemble`]); this module holds
//! the controls it polls, the snapshot format it writes, and the
//! checkpointed runner:
//!
//! * [`CheckpointConfig`] — where and how often to snapshot. Snapshots
//!   are written atomically (temp-file sibling + rename), so a crash
//!   mid-write leaves the previous snapshot intact; a torn, corrupted
//!   or version-mismatched snapshot is detected on load (FNV-1a
//!   content hash + schema/fingerprint checks) and degrades to a cold
//!   start with a journaled note — never an error.
//! * [`RunBudget`] — a deterministic job-count ceiling. An exhausted
//!   budget stops the run cleanly at a shard boundary and tags the
//!   partial outcome
//!   [`Completion::Truncated`](crate::Completion::Truncated); the
//!   completed prefix is bit-identical to the same prefix of an
//!   unbudgeted run.
//! * [`run_ensemble_checkpointed`] — the runner for accumulators that
//!   implement [`Snapshot`]: it resumes from and writes snapshots, on
//!   top of the budgets and the crash drill every run honours. A
//!   [`FaultPlan::kill_at_job`](crate::FaultPlan::kill_at_job)
//!   trigger terminates the process (exit code [`KILL_EXIT`]) right
//!   before the segment containing that job, which is how the test
//!   suite proves kill-then-resume reproduces an uninterrupted run
//!   byte-for-byte (accumulator, outcome *and* journal).
//!
//! # Why checkpoints cut at shard boundaries
//!
//! Floating-point addition is not associative, so the engine's merge
//! tree `((s₀ ⊕ s₁) ⊕ s₂) ⊕ …` must be reproduced exactly. A snapshot
//! therefore stores the running merged accumulator *after an integer
//! number of shards* and the resumed run continues the same left
//! fold — partial shards would change the tree shape and break bit
//! identity. The configured cadence ([`CheckpointConfig::every_jobs`])
//! is rounded up to whole shards accordingly.
//!
//! # Snapshot format
//!
//! One JSON document sealed by [`json::seal`] under
//! [`CHECKPOINT_SCHEMA`]: `{"schema":"samurai-checkpoint-v2","hash":H,
//! "payload":{…}}` where `H` is the FNV-1a-64 hash of the payload's
//! serialised text. Every number in the payload is an exact `u64`
//! (floats travel as IEEE-754 bit patterns), so parse → re-serialise
//! is canonical and [`json::open`] can recompute `H` from the parsed
//! tree. The payload fingerprint (`jobs`, `seed`, and the failure
//! policy in its [`FailurePolicy::to_json`] form) must match the
//! resuming run; the fault plan is deliberately *excluded* so a
//! crash-drill run's snapshot is resumable by a plain run. Each
//! quarantined job carries its error as the `Debug` text the journal
//! prints, so a resumed run re-journals it byte for byte, and a
//! snapshot never holds more quarantined jobs than the policy's
//! `max_failures` (the budget is checked before each write). The
//! loader's payload decoder is also the offline validator
//! ([`validate_checkpoint`]), so a file the validator passes is one a
//! resuming run accepts.

use std::fs;
use std::path::{Path, PathBuf};

use samurai_telemetry::json::{self, JsonValue};
use samurai_telemetry::{JobProbe, JobRecord, Recorder};

use crate::ensemble::{
    drive, shard_size, EnsembleAccumulator, EnsembleOutcome, ExecutionPolicy, FailurePolicy,
    JobFailure, JobPanic, Parallelism, Progress, RescuedJob,
};
use crate::faults::InjectedFault;

/// The exit code of a [`FaultPlan::kill_at_job`](crate::FaultPlan::kill_at_job)
/// crash drill: distinctive enough that harnesses can tell a planned
/// kill from a genuine abort.
pub const KILL_EXIT: i32 = 86;

/// The schema tag of the snapshot format this module reads and writes.
pub const CHECKPOINT_SCHEMA: &str = "samurai-checkpoint-v2";

/// Where and how often a checkpointed run snapshots its progress.
///
/// The derived default disables checkpointing entirely (`path: None`);
/// carrying one in a config is free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Snapshot file. `None` disables checkpointing (budgets and the
    /// crash drill still work — they need no file).
    pub path: Option<PathBuf>,
    /// Snapshot cadence in jobs, rounded *up* to a whole number of
    /// shards (see the module docs). `0` snapshots every shard.
    pub every_jobs: usize,
    /// Attempt to resume from `path` before running. A missing or
    /// invalid snapshot degrades to a cold start with a journaled
    /// `checkpoint.cold_start.<reason>` note.
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpointing to `path` at the default cadence (64 jobs).
    #[must_use]
    pub fn to_file(path: impl Into<PathBuf>) -> Self {
        Self {
            path: Some(path.into()),
            every_jobs: 64,
            resume: false,
        }
    }

    /// Sets the snapshot cadence in jobs.
    #[must_use]
    pub fn every(mut self, jobs: usize) -> Self {
        self.every_jobs = jobs;
        self
    }

    /// Requests resume-from-snapshot before running.
    #[must_use]
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }
}

/// A deterministic ceiling on how much work a run may do.
///
/// The ceiling is checked only at shard-segment boundaries, so an
/// exhausted budget truncates at a deterministic job boundary and the
/// completed prefix stays bit-identical to an unbudgeted run's prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Run at most this many jobs, rounded *down* to a whole number of
    /// shards (the budget is a ceiling, never exceeded).
    pub max_jobs: Option<usize>,
}

impl RunBudget {
    /// No ceilings at all — the default.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True when no ceiling is set.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        *self == Self::default()
    }

    /// Caps the job count.
    #[must_use]
    pub fn jobs(mut self, max: usize) -> Self {
        self.max_jobs = Some(max);
        self
    }
}

/// The crash-safety bundle threaded into
/// [`run_ensemble_checkpointed`]: checkpointing and the job budget.
#[derive(Debug, Default)]
pub struct RunControls {
    /// Snapshot placement and cadence.
    pub checkpoint: CheckpointConfig,
    /// Deterministic work ceiling.
    pub budget: RunBudget,
}

impl RunControls {
    /// True when nothing here requires slicing the run into segments:
    /// without a kill drill the driver then runs one segment.
    pub(crate) fn is_passive(&self) -> bool {
        self.checkpoint.path.is_none() && !self.checkpoint.resume && self.budget.is_unlimited()
    }
}

/// Lossless JSON serialisation for a checkpointed accumulator.
///
/// Implementations must round-trip **bit patterns**: floats are
/// carried as `u64` IEEE-754 bits, never as decimal text, so a
/// restored accumulator continues the merge fold bit-identically.
pub trait Snapshot: Sized {
    /// The state as a canonical JSON tree (all numbers `u64`).
    fn to_snapshot(&self) -> JsonValue;

    /// Rebuilds the state; `None` on any structural mismatch (the
    /// loader treats that as corruption and cold-starts).
    fn from_snapshot(v: &JsonValue) -> Option<Self>;
}

/// FNV-1a 64-bit — the snapshot content hash. It lives in
/// `samurai-telemetry` next to the JSON writer; this re-export keeps
/// the `checkpoint::fnv1a64` and crate-root paths.
pub use samurai_telemetry::fnv1a64;

/// Writes a snapshot (or any small artifact) atomically: the contents
/// go to a `<path>.tmp` sibling first and are renamed into place, so a
/// crash mid-write can never leave a half-written file at `path`. All
/// checkpoint writes must go through here (lint rule `RSM001`).
///
/// # Errors
///
/// Any I/O error from the write or the rename.
pub fn write_checkpoint_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

// --- Snapshot impls for the built-in accumulators -------------------

/// The identity codec: [`validate_checkpoint`] decodes accumulators of
/// unknown type as the raw trees they were written as.
impl Snapshot for JsonValue {
    fn to_snapshot(&self) -> JsonValue {
        self.clone()
    }

    fn from_snapshot(v: &JsonValue) -> Option<Self> {
        Some(v.clone())
    }
}

impl Snapshot for u64 {
    fn to_snapshot(&self) -> JsonValue {
        JsonValue::U64(*self)
    }

    fn from_snapshot(v: &JsonValue) -> Option<Self> {
        v.as_u64()
    }
}

impl Snapshot for f64 {
    // Bit pattern, not value: the canonical-number rule of the
    // checkpoint format (see the module docs), and NaN-safe.
    fn to_snapshot(&self) -> JsonValue {
        JsonValue::U64(self.to_bits())
    }

    fn from_snapshot(v: &JsonValue) -> Option<Self> {
        v.as_u64().map(f64::from_bits)
    }
}

impl Snapshot for crate::ensemble::MeanTrace {
    fn to_snapshot(&self) -> JsonValue {
        JsonValue::obj(vec![
            (
                "sums_bits",
                JsonValue::Arr(
                    self.sums()
                        .iter()
                        .map(|s| JsonValue::U64(s.to_bits()))
                        .collect(),
                ),
            ),
            ("count", JsonValue::U64(self.count() as u64)),
        ])
    }

    fn from_snapshot(v: &JsonValue) -> Option<Self> {
        let JsonValue::Arr(bits) = v.get("sums_bits")? else {
            return None;
        };
        let sums = bits
            .iter()
            .map(|b| b.as_u64().map(f64::from_bits))
            .collect::<Option<Vec<f64>>>()?;
        let count = usize::try_from(v.get("count")?.as_u64()?).ok()?;
        Some(Self::from_parts(sums, count))
    }
}

impl Snapshot for crate::scenario::ScenarioConfig {
    // The canonical wire form of a scenario distribution: every knob
    // as a `u64` IEEE-754 bit pattern in fixed field order. Shared by
    // checkpoint payloads and the `samurai-serve` request documents,
    // whose FNV-1a ticket must be a pure function of the knob bits.
    fn to_snapshot(&self) -> JsonValue {
        let range = |r: (f64, f64)| {
            JsonValue::Arr(vec![
                JsonValue::U64(r.0.to_bits()),
                JsonValue::U64(r.1.to_bits()),
            ])
        };
        JsonValue::obj(vec![
            ("sigma_vth", JsonValue::U64(self.sigma_vth.to_bits())),
            ("a_vt", JsonValue::U64(self.a_vt.to_bits())),
            ("sigma_beta", JsonValue::U64(self.sigma_beta.to_bits())),
            (
                "sigma_geometry",
                JsonValue::U64(self.sigma_geometry.to_bits()),
            ),
            ("vdd_range", range(self.vdd_range)),
            ("temperature_range", range(self.temperature_range)),
            ("stress_time", JsonValue::U64(self.stress_time.to_bits())),
            (
                "sigma_density",
                JsonValue::U64(self.sigma_density.to_bits()),
            ),
        ])
    }

    fn from_snapshot(v: &JsonValue) -> Option<Self> {
        fn bits(v: &JsonValue, key: &str) -> Option<f64> {
            v.get(key)?.as_u64().map(f64::from_bits)
        }
        fn range(v: &JsonValue, key: &str) -> Option<(f64, f64)> {
            let JsonValue::Arr(pair) = v.get(key)? else {
                return None;
            };
            let [lo, hi] = pair.as_slice() else {
                return None;
            };
            Some((f64::from_bits(lo.as_u64()?), f64::from_bits(hi.as_u64()?)))
        }
        Some(Self {
            sigma_vth: bits(v, "sigma_vth")?,
            a_vt: bits(v, "a_vt")?,
            sigma_beta: bits(v, "sigma_beta")?,
            sigma_geometry: bits(v, "sigma_geometry")?,
            vdd_range: range(v, "vdd_range")?,
            temperature_range: range(v, "temperature_range")?,
            stress_time: bits(v, "stress_time")?,
            sigma_density: bits(v, "sigma_density")?,
        })
    }
}

impl<T: Snapshot + Send> Snapshot for crate::ensemble::IndexedResults<T> {
    fn to_snapshot(&self) -> JsonValue {
        JsonValue::obj(vec![(
            "slots",
            JsonValue::Arr(
                self.slots()
                    .iter()
                    .map(|(job, item)| {
                        JsonValue::Arr(vec![JsonValue::U64(*job as u64), item.to_snapshot()])
                    })
                    .collect(),
            ),
        )])
    }

    fn from_snapshot(v: &JsonValue) -> Option<Self> {
        let JsonValue::Arr(slots) = v.get("slots")? else {
            return None;
        };
        let slots = slots
            .iter()
            .map(|pair| {
                let JsonValue::Arr(kv) = pair else {
                    return None;
                };
                if kv.len() != 2 {
                    return None;
                }
                let job = usize::try_from(kv[0].as_u64()?).ok()?;
                Some((job, T::from_snapshot(&kv[1])?))
            })
            .collect::<Option<Vec<(usize, T)>>>()?;
        Some(Self::from_slots(slots))
    }
}

// --- Snapshot encode / decode ---------------------------------------

fn snapshot_payload<A: Snapshot>(
    jobs: usize,
    policy: &ExecutionPolicy,
    progress: &Progress<A>,
) -> JsonValue {
    JsonValue::obj(vec![
        ("jobs", JsonValue::U64(jobs as u64)),
        ("seed", JsonValue::U64(policy.seed)),
        ("failure", policy.failure.to_json()),
        ("shards_done", JsonValue::U64(progress.shards_done as u64)),
        // Written after a segment, so the accumulator is always set;
        // the loader ignores `acc` when `shards_done` is 0.
        (
            "acc",
            progress
                .acc
                .as_ref()
                .map_or(JsonValue::Null, Snapshot::to_snapshot),
        ),
        (
            "rescued",
            JsonValue::Arr(
                progress
                    .rescued
                    .iter()
                    .map(|r| {
                        JsonValue::Arr(vec![
                            JsonValue::U64(r.job as u64),
                            JsonValue::U64(r.rung as u64),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "quarantined",
            JsonValue::Arr(
                progress
                    .quarantined
                    .iter()
                    .map(|q| {
                        JsonValue::obj(vec![
                            ("job", JsonValue::U64(q.job as u64)),
                            ("seed", JsonValue::U64(q.seed)),
                            ("rungs_attempted", JsonValue::U64(q.rungs_attempted as u64)),
                            ("error", JsonValue::Str(q.error.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "records",
            JsonValue::Arr(
                progress
                    .records
                    .iter()
                    .map(JobRecord::to_checkpoint_json)
                    .collect(),
            ),
        ),
    ])
}

/// The run a snapshot belongs to, as its payload records it: job
/// count, master seed and failure policy. `None` unless all three
/// decode (the policy must re-encode to the written tree).
fn fingerprint(payload: &JsonValue) -> Option<(usize, u64, FailurePolicy)> {
    let jobs = usize::try_from(payload.get("jobs")?.as_u64()?).ok()?;
    let seed = payload.get("seed")?.as_u64()?;
    let failure = payload.get("failure")?;
    let policy = FailurePolicy::from_json(failure, usize::MAX).ok()?;
    (policy.to_json() == *failure).then_some((jobs, seed, policy))
}

/// Decodes the progress half of a `jobs`-job snapshot payload written
/// under `failure`: the shard cursor, accumulator, rescue and
/// quarantine lists (at most the policy's `max_failures` quarantined
/// jobs) and job records. The `Err` is always `decode`.
fn decode_progress<A: Snapshot>(
    payload: &JsonValue,
    jobs: usize,
    failure: FailurePolicy,
) -> Result<Progress<A>, &'static str> {
    let array = |key: &str| match payload.get(key) {
        Some(JsonValue::Arr(items)) => Ok(items),
        _ => Err("decode"),
    };
    let shards_done = payload
        .get("shards_done")
        .and_then(JsonValue::as_u64)
        .and_then(|n| usize::try_from(n).ok())
        .filter(|&n| n <= jobs.div_ceil(shard_size(jobs)))
        .ok_or("decode")?;
    let acc = payload.get("acc").ok_or("decode")?;
    let acc = if shards_done == 0 {
        // Never written in practice; `None` keeps the cold-start merge
        // tree (the fold seeds from the first shard, not an empty acc).
        None
    } else {
        Some(A::from_snapshot(acc).ok_or("decode")?)
    };
    let rescued = array("rescued")?
        .iter()
        .map(|pair| match pair {
            JsonValue::Arr(kv) if kv.len() == 2 => Some(RescuedJob {
                job: usize::try_from(kv[0].as_u64()?).ok()?,
                rung: usize::try_from(kv[1].as_u64()?).ok()?,
            }),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("decode")?;
    let quarantined = array("quarantined")?
        .iter()
        .map(|q| {
            Some(JobFailure {
                job: usize::try_from(q.get("job")?.as_u64()?).ok()?,
                seed: q.get("seed")?.as_u64()?,
                rungs_attempted: usize::try_from(q.get("rungs_attempted")?.as_u64()?).ok()?,
                error: q.get("error")?.as_str()?.to_owned(),
            })
        })
        .collect::<Option<Vec<_>>>()
        .filter(|q| q.len() <= failure.max_quarantined())
        .ok_or("decode")?;
    let records = array("records")?
        .iter()
        .map(JobRecord::from_checkpoint_json)
        .collect::<Option<Vec<_>>>()
        .ok_or("decode")?;
    Ok(Progress {
        shards_done,
        acc,
        rescued,
        quarantined,
        records,
    })
}

/// Validates and decodes a snapshot. The `Err` is the one-word cold
/// start reason journaled as `checkpoint.cold_start.<reason>`.
fn load_checkpoint<A: Snapshot>(
    path: &Path,
    jobs: usize,
    policy: &ExecutionPolicy,
) -> Result<Progress<A>, &'static str> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err("missing"),
        Err(_) => return Err("unreadable"),
    };
    let doc = json::parse(&text).map_err(|_| "parse")?;
    let payload = json::open(&doc, CHECKPOINT_SCHEMA)?;
    if fingerprint(payload) != Some((jobs, policy.seed, policy.failure)) {
        return Err("fingerprint");
    }
    decode_progress(payload, jobs, policy.failure)
}

/// Checks a snapshot document offline with the loader's own decoder,
/// against the fingerprint the snapshot records instead of a resuming
/// run's; the accumulator decodes as a raw tree. The `Err` is the
/// cold-start reason a resuming run of that fingerprint would journal.
///
/// # Errors
///
/// `schema`, `hash`, `fingerprint` or `decode`, as
/// `checkpoint.cold_start.<reason>` names them.
pub fn validate_checkpoint(doc: &JsonValue) -> Result<(), &'static str> {
    let payload = json::open(doc, CHECKPOINT_SCHEMA)?;
    let (jobs, _, failure) = fingerprint(payload).ok_or("fingerprint")?;
    decode_progress::<JsonValue>(payload, jobs, failure).map(drop)
}

// --- The checkpointed runner ----------------------------------------

/// [`crate::run_ensemble_resilient_observed`] with crash safety: the
/// run is sliced into shard-aligned segments, snapshotting its merged
/// state after each one, honouring the [`RunBudget`] between them,
/// and (under a
/// [`FaultPlan::kill_at_job`](crate::FaultPlan::kill_at_job) drill)
/// killing the process before the segment containing the marked job.
/// Both runners are shells over the same private driver; this one
/// adds the snapshot load before it and the snapshot writes inside it.
///
/// Determinism guarantees, all pinned by the test suite:
///
/// * With passive [`RunControls`] this executes exactly the resilient
///   observed runner — same accumulator bits, same journal bytes.
/// * A run killed at any job and resumed from its snapshot produces an
///   accumulator, outcome and journal identical to an uninterrupted
///   run, at any worker count, with no extra journal events.
/// * An invalid snapshot (torn write, corruption, schema or
///   fingerprint mismatch) degrades to a cold start: the only trace is
///   a leading `checkpoint.cold_start.<reason>` journal note. A failed
///   snapshot *write* likewise only notes `checkpoint.write_failed`.
/// * An exhausted budget returns [`crate::Completion::Truncated`] with
///   the completed prefix bit-identical to an unbudgeted run's prefix;
///   the report then covers that prefix alone.
///
/// # Errors
///
/// As [`crate::run_ensemble_resilient_observed`]; crash-safety
/// machinery never raises errors of its own.
pub fn run_ensemble_checkpointed<A, F, E>(
    jobs: usize,
    parallelism: Parallelism,
    policy: &ExecutionPolicy,
    controls: &RunControls,
    recorder: &mut Recorder,
    make_acc: impl Fn() -> A + Sync,
    job: F,
) -> Result<EnsembleOutcome<A>, E>
where
    A: EnsembleAccumulator + Snapshot,
    F: Fn(usize, usize, &mut JobProbe) -> Result<A::Item, E> + Sync,
    E: Send + std::fmt::Debug + From<InjectedFault> + From<JobPanic>,
{
    let mut progress = Progress::cold();
    if controls.checkpoint.resume {
        if let Some(path) = &controls.checkpoint.path {
            match load_checkpoint(path, jobs, policy) {
                Ok(state) => progress = state,
                Err(reason) => recorder.note(&format!("checkpoint.cold_start.{reason}"), 1),
            }
        }
    }
    drive(
        jobs,
        parallelism,
        policy,
        controls,
        recorder,
        progress,
        make_acc,
        job,
        |path, progress| {
            let doc = json::seal(CHECKPOINT_SCHEMA, snapshot_payload(jobs, policy, progress));
            write_checkpoint_atomic(path, &doc.to_json())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{run_ensemble_resilient_observed, Completion, MeanTrace};
    use crate::faults::{FaultKind, FaultSite};
    use crate::rng::SeedStream;
    use rand::Rng;
    use samurai_telemetry::Recorder;

    /// A scratch path under the system temp dir, removed on drop.
    struct ScratchFile(PathBuf);

    impl ScratchFile {
        fn new(name: &str) -> Self {
            let path = std::env::temp_dir()
                .join(format!("samurai-checkpoint-{}-{name}", std::process::id()));
            let _ = fs::remove_file(&path);
            Self(path)
        }
    }

    impl Drop for ScratchFile {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum TestError {
        Job(usize),
        Fault(InjectedFault),
        Panicked(String),
    }

    impl From<InjectedFault> for TestError {
        fn from(f: InjectedFault) -> Self {
            Self::Fault(f)
        }
    }

    impl From<JobPanic> for TestError {
        fn from(p: JobPanic) -> Self {
            Self::Panicked(p.message)
        }
    }

    const JOBS: usize = 400;

    fn policy() -> ExecutionPolicy {
        ExecutionPolicy {
            failure: FailurePolicy::Quarantine {
                rungs: 1,
                max_failures: 50,
            },
            faults: crate::FaultPlan::none(),
            seed: 17,
        }
    }

    /// A job with a nontrivial mean trace, occasional rescues and
    /// occasional quarantines — exercises every report list.
    fn job(j: usize, rung: usize, _probe: &mut JobProbe) -> Result<Vec<f64>, TestError> {
        if j % 97 == 13 {
            return Err(TestError::Job(j));
        }
        if j % 41 == 7 && rung == 0 {
            return Err(TestError::Job(j));
        }
        let mut rng = SeedStream::new(17).rng(j as u64);
        Ok(vec![rng.gen::<f64>(), rng.gen::<f64>() * (rung + 1) as f64])
    }

    fn uninterrupted(workers: usize) -> (EnsembleOutcome<MeanTrace>, String) {
        let mut rec = Recorder::recording();
        let out = run_ensemble_resilient_observed(
            JOBS,
            Parallelism::Fixed(workers),
            &policy(),
            &mut rec,
            || MeanTrace::zeros(2),
            job,
        )
        .expect("within quarantine budget");
        (out, rec.journal().to_jsonl())
    }

    #[test]
    fn passive_controls_match_the_resilient_runner_bit_for_bit() {
        for workers in [1, 4] {
            let (base, base_journal) = uninterrupted(workers);
            let mut rec = Recorder::recording();
            let out = run_ensemble_checkpointed(
                JOBS,
                Parallelism::Fixed(workers),
                &policy(),
                &RunControls::default(),
                &mut rec,
                || MeanTrace::zeros(2),
                job,
            )
            .expect("within quarantine budget");
            assert_eq!(out, base);
            assert_eq!(rec.journal().to_jsonl(), base_journal);
        }
    }

    #[test]
    fn checkpointing_and_resuming_reproduce_an_uninterrupted_run() {
        let (base, base_journal) = uninterrupted(2);
        let file = ScratchFile::new("resume");

        // Phase 1: run with a job budget so the run truncates partway,
        // leaving a snapshot — an in-process stand-in for a crash.
        let mut rec = Recorder::recording();
        let partial: EnsembleOutcome<MeanTrace> = run_ensemble_checkpointed(
            JOBS,
            Parallelism::Fixed(2),
            &policy(),
            &RunControls {
                checkpoint: CheckpointConfig::to_file(&file.0).every(30),
                budget: RunBudget::unlimited().jobs(150),
            },
            &mut rec,
            || MeanTrace::zeros(2),
            job,
        )
        .expect("within quarantine budget");
        assert_eq!(
            partial.completion,
            Completion::Truncated {
                completed: 150,
                remaining: JOBS - 150
            }
        );

        // Phase 2: resume to completion at a different worker count.
        let mut rec = Recorder::recording();
        let resumed = run_ensemble_checkpointed(
            JOBS,
            Parallelism::Fixed(8),
            &policy(),
            &RunControls {
                checkpoint: CheckpointConfig::to_file(&file.0).every(30).resuming(),
                budget: RunBudget::unlimited(),
            },
            &mut rec,
            || MeanTrace::zeros(2),
            job,
        )
        .expect("within quarantine budget");
        assert_eq!(resumed, base);
        assert_eq!(
            rec.journal().to_jsonl(),
            base_journal,
            "resume is journal-silent"
        );
    }

    #[test]
    fn a_corrupted_checkpoint_degrades_to_a_cold_start_with_a_note() {
        let (base, base_journal) = uninterrupted(1);
        for (name, contents) in [
            ("garbage", "not json at all"),
            (
                "truncated",
                "{\"schema\":\"samurai-checkpoint-v2\",\"hash\":1,\"pa",
            ),
            (
                "wrong-schema",
                "{\"schema\":\"samurai-checkpoint-v99\",\"hash\":1,\"payload\":{}}",
            ),
            (
                "bad-hash",
                "{\"schema\":\"samurai-checkpoint-v2\",\"hash\":1,\"payload\":{}}",
            ),
            // A well-sealed file of the previous format.
            (
                "schema-v1",
                json::seal("samurai-checkpoint-v1", JsonValue::obj(vec![]))
                    .to_json()
                    .as_str(),
            ),
        ] {
            let file = ScratchFile::new(name);
            fs::write(&file.0, contents).expect("scratch write");
            let mut rec = Recorder::recording();
            let out = run_ensemble_checkpointed(
                JOBS,
                Parallelism::Fixed(2),
                &policy(),
                &RunControls {
                    checkpoint: CheckpointConfig::to_file(&file.0).every(64).resuming(),
                    budget: RunBudget::unlimited(),
                },
                &mut rec,
                || MeanTrace::zeros(2),
                job,
            )
            .expect("cold start, not an error");
            assert_eq!(out, base, "{name}");
            let journal = rec.journal().to_jsonl();
            let first = journal.lines().next().expect("nonempty journal");
            assert!(first.contains("checkpoint.cold_start."), "{name}: {first}");
            if name.starts_with("schema") {
                assert!(first.contains("checkpoint.cold_start.schema"), "{first}");
            }
            // Everything after the note is the uninterrupted journal.
            let (_, rest) = journal.split_once('\n').expect("more than one line");
            assert_eq!(rest, base_journal, "{name}");
        }
    }

    #[test]
    fn a_fingerprint_mismatch_cold_starts_instead_of_mixing_runs() {
        let file = ScratchFile::new("fingerprint");
        // Write a valid snapshot under a different master seed.
        let mut other = policy();
        other.seed = 999;
        let mut rec = Recorder::recording();
        let _: EnsembleOutcome<MeanTrace> = run_ensemble_checkpointed(
            JOBS,
            Parallelism::Fixed(1),
            &other,
            &RunControls {
                checkpoint: CheckpointConfig::to_file(&file.0).every(64),
                budget: RunBudget::unlimited(),
            },
            &mut rec,
            || MeanTrace::zeros(2),
            job,
        )
        .expect("within quarantine budget");

        let (base, _) = uninterrupted(1);
        let mut rec = Recorder::recording();
        let out = run_ensemble_checkpointed(
            JOBS,
            Parallelism::Fixed(1),
            &policy(),
            &RunControls {
                checkpoint: CheckpointConfig::to_file(&file.0).every(64).resuming(),
                budget: RunBudget::unlimited(),
            },
            &mut rec,
            || MeanTrace::zeros(2),
            job,
        )
        .expect("cold start, not an error");
        assert_eq!(out, base);
        assert!(rec
            .journal()
            .to_jsonl()
            .contains("checkpoint.cold_start.fingerprint"));
    }

    #[test]
    fn a_truncated_report_counts_only_the_completed_prefix() {
        let policy = ExecutionPolicy {
            failure: FailurePolicy::Quarantine {
                rungs: 0,
                max_failures: 5,
            },
            faults: crate::FaultPlan::none().fail_job(7, FaultKind::NonConvergence),
            seed: 3,
        };
        let out: EnsembleOutcome<MeanTrace> = run_ensemble_checkpointed(
            300,
            Parallelism::Fixed(2),
            &policy,
            &RunControls {
                budget: RunBudget::unlimited().jobs(150),
                ..RunControls::default()
            },
            &mut Recorder::noop(),
            || MeanTrace::zeros(1),
            |j, _rung, _probe| Ok::<_, TestError>(vec![j as f64]),
        )
        .expect("within quarantine budget");
        assert_eq!(
            out.completion,
            Completion::Truncated {
                completed: 150,
                remaining: 150
            }
        );
        assert_eq!(out.acc.count(), 149);
        assert_eq!(out.report.jobs, 150);
        assert_eq!(out.report.effective_jobs(), 149);
    }

    #[test]
    fn snapshot_documents_validate_and_round_trip() {
        let acc = MeanTrace::from_parts(vec![1.5, -0.0, f64::NAN], 3);
        let progress = Progress {
            shards_done: 2,
            acc: Some(acc),
            rescued: vec![RescuedJob { job: 1, rung: 2 }],
            quarantined: vec![JobFailure {
                job: 3,
                seed: 42,
                rungs_attempted: 2,
                error: format!("{:?}", TestError::Job(3)),
            }],
            records: Vec::new(),
        };
        let payload = snapshot_payload(7, &policy(), &progress);
        let text = json::seal(CHECKPOINT_SCHEMA, payload).to_json();
        let doc = json::parse(&text).expect("valid json");
        assert_eq!(validate_checkpoint(&doc), Ok(()));
        let payload = json::open(&doc, CHECKPOINT_SCHEMA).expect("hash is recomputable");
        let back = MeanTrace::from_snapshot(payload.get("acc").expect("acc")).expect("decodes");
        assert_eq!(back.count(), 3);
        assert_eq!(back.sums()[0].to_bits(), 1.5f64.to_bits());
        assert_eq!(back.sums()[1].to_bits(), (-0.0f64).to_bits());
        assert!(back.sums()[2].is_nan(), "NaN bit pattern survives");
        // A quarantined job under a policy that quarantines none is
        // more than the writer could have saved.
        let fail_fast = snapshot_payload(7, &ExecutionPolicy::default(), &progress);
        let doc = json::parse(&json::seal(CHECKPOINT_SCHEMA, fail_fast).to_json()).expect("json");
        assert_eq!(validate_checkpoint(&doc), Err("decode"));
    }

    #[test]
    fn atomic_writes_never_leave_a_torn_file_behind() {
        let file = ScratchFile::new("atomic");
        write_checkpoint_atomic(&file.0, "first").expect("write");
        write_checkpoint_atomic(&file.0, "second").expect("overwrite");
        assert_eq!(fs::read_to_string(&file.0).expect("read"), "second");
        let mut tmp = file.0.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists(), "temp sibling is renamed away");
    }

    #[test]
    fn the_quarantine_budget_trips_before_the_snapshot_that_would_break_it() {
        let file = ScratchFile::new("over-budget");
        // Cadence 2 over 10 one-job shards: the two faults land in
        // segments [2, 4) and [6, 8).
        let policy = ExecutionPolicy {
            failure: FailurePolicy::Quarantine {
                rungs: 0,
                max_failures: 1,
            },
            faults: crate::FaultPlan::none()
                .fail_job(3, FaultKind::NonConvergence)
                .fail_job(6, FaultKind::SingularMatrix),
            seed: 5,
        };
        let over = TestError::Fault(InjectedFault {
            kind: FaultKind::SingularMatrix,
            site: FaultSite::Job,
        });
        for resume in [false, true] {
            let mut checkpoint = CheckpointConfig::to_file(&file.0).every(2);
            checkpoint.resume = resume;
            let mut rec = Recorder::recording();
            let err = run_ensemble_checkpointed(
                10,
                Parallelism::Fixed(2),
                &policy,
                &RunControls {
                    checkpoint,
                    budget: RunBudget::unlimited(),
                },
                &mut rec,
                || MeanTrace::zeros(1),
                |j, _rung, _probe| Ok::<_, TestError>(vec![j as f64]),
            )
            .expect_err("job 6 is past the budget");
            assert_eq!(err, over, "resume = {resume}");
            assert!(!rec.journal().to_jsonl().contains("cold_start"));
            let text = fs::read_to_string(&file.0).expect("a snapshot is on disk");
            let doc = json::parse(&text).expect("valid json");
            let payload = json::open(&doc, CHECKPOINT_SCHEMA).expect("sealed");
            let Some(JsonValue::Arr(quarantined)) = payload.get("quarantined") else {
                panic!("no quarantined list");
            };
            assert_eq!(quarantined.len(), 1, "only job 3 fits the budget");
            assert_eq!(
                payload.get("shards_done").and_then(JsonValue::as_u64),
                Some(6)
            );
        }
    }
}
