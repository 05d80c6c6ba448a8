//! Deterministic parallel Monte-Carlo ensembles.
//!
//! The paper's headline workloads — Fig 7 stationary validation, the
//! §V write-error and write-slowdown studies, and accelerated-testing
//! sweeps à la Toh et al. — are embarrassingly parallel over traps,
//! cells and seeds. This module is the throughput substrate for all of
//! them: a scoped worker pool that shards jobs over threads while
//! keeping results **bit-identical for every worker count**.
//!
//! # The determinism contract
//!
//! Three rules make parallel results reproducible:
//!
//! 1. **Per-job seeding.** Every job derives its RNG from a
//!    [`SeedStream`] by its *stable job index*
//!    (`seeds.rng(job as u64)` or a `substream(job)`), never from a
//!    shared or thread-local generator. Which thread runs a job can
//!    therefore not change what the job computes.
//! 2. **Thread-count-independent sharding.** Jobs are grouped into
//!    fixed shards of consecutive indices whose size depends only on
//!    the job count ([`shard_size`]). Workers *race for shards*
//!    (dynamic self-scheduling over an atomic queue — the same
//!    load-balancing effect as work stealing), but the shard
//!    boundaries themselves never move.
//! 3. **Ordered reduction.** Each shard folds its jobs, in index
//!    order, into a fresh [`EnsembleAccumulator`]; finished shards are
//!    merged strictly in shard order after all workers join. Floating
//!    point addition is not associative, so the merge *tree shape*
//!    must be fixed — and it is: `((s₀ ⊕ s₁) ⊕ s₂) ⊕ …` regardless of
//!    completion order or worker count.
//!
//! Together these give the guarantee the determinism test suite pins:
//! an ensemble returns bit-identical results at `Parallelism` 1, 2
//! and 8 (and any other worker count).
//!
//! # One runner path
//!
//! Two public runners share one private driver, split by what the
//! accumulator and error types can do:
//!
//! * [`run_ensemble_resilient_observed`] runs any accumulator and any
//!   error type that can absorb an [`InjectedFault`] and a [`JobPanic`].
//! * [`crate::checkpoint::run_ensemble_checkpointed`] additionally
//!   snapshots, resumes and budgets the run; its accumulator
//!   implements [`crate::checkpoint::Snapshot`].
//!
//! The driver holds the segment loop and journal absorption, and its
//! segment merge holds the quarantine-budget check, so a resilient run
//! and a checkpointed run with passive controls execute the same code.
//! Every job closure receives `(job, rung, probe)`: the job index, the
//! rescue rung (0 for the nominal attempt) and a [`JobProbe`] for
//! telemetry counters. A job that ignores the last two is an ordinary
//! Monte-Carlo sample.
//!
//! # Failure policies
//!
//! An [`ExecutionPolicy`] carries a [`FailurePolicy`]. `FailFast` (the
//! default) aborts on the error of the lowest-indexed failing shard
//! among those that ran; workers stop claiming new shards once an
//! error is recorded, so *which* error surfaces can vary with
//! scheduling when several shards fail, while the success/failure
//! verdict and every successful result remain deterministic. `Retry`
//! re-runs a failed job through a deterministic rescue ladder (the job
//! closure receives the rung index and is expected to use a
//! progressively more conservative solver config). `Quarantine`
//! additionally drops jobs that fail on every rung and returns the
//! partial accumulator plus a structured [`FailureReport`], which
//! holds each dropped job's error as its `Debug` text. Under
//! `Quarantine` no early abort happens, as every shard runs, so the
//! quarantined-job set is itself bit-identical at any worker count.
//! Every attempt runs under `catch_unwind`: a panicking job becomes
//! `E::from(JobPanic)` and takes the same path as an ordinary error.
//! Deterministic fault injection ([`crate::FaultPlan`], carried by
//! [`ExecutionPolicy`]) makes all of these paths testable on demand.
//!
//! # Example
//!
//! ```
//! use samurai_core::ensemble::{
//!     run_ensemble_resilient_observed, ExecutionPolicy, MeanTrace, Parallelism,
//! };
//! use samurai_core::telemetry::Recorder;
//! use samurai_core::{CoreError, SeedStream};
//! use rand::Rng;
//!
//! // Estimate E[U] for U ~ Uniform[0, 1) over 1000 seeded draws.
//! let seeds = SeedStream::new(7);
//! let run = |p: Parallelism| {
//!     run_ensemble_resilient_observed(
//!         1000,
//!         p,
//!         &ExecutionPolicy::default(),
//!         &mut Recorder::noop(),
//!         || MeanTrace::zeros(1),
//!         |job, _rung, _probe| Ok::<_, CoreError>(vec![seeds.rng(job as u64).gen::<f64>()]),
//!     )
//!     .unwrap()
//!     .acc
//!     .mean()[0]
//! };
//! let sequential = run(Parallelism::Fixed(1));
//! let parallel = run(Parallelism::Fixed(8));
//! assert_eq!(sequential.to_bits(), parallel.to_bits()); // bit-identical
//! assert!((sequential - 0.5).abs() < 0.02);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use samurai_telemetry::{
    JobProbe, JobRecord, Journal, JournalEvent, JsonValue, Recorder, Stopwatch,
};

use crate::checkpoint::{RunControls, KILL_EXIT};
use crate::faults::{FaultPlan, InjectedFault};
use crate::rng::SeedStream;

/// How many workers an ensemble runs on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One worker per available CPU core (as reported by
    /// [`std::thread::available_parallelism`]).
    #[default]
    Auto,
    /// Exactly this many workers. `Fixed(1)` is the legacy sequential
    /// path: jobs run on the calling thread and no threads are
    /// spawned. `Fixed(0)` is treated as `Fixed(1)`.
    Fixed(usize),
}

impl Parallelism {
    /// The worker count this policy resolves to on this machine.
    pub fn workers(self) -> usize {
        match self {
            Self::Auto => thread::available_parallelism().map_or(1, |n| n.get()),
            Self::Fixed(n) => n.max(1),
        }
    }
}

/// A mergeable reduction state for ensemble results.
///
/// Implementations must make `merge` act as if `other`'s jobs had been
/// absorbed directly after `self`'s — the engine merges shard
/// accumulators strictly in shard order, so an associative-over-
/// concatenation `merge` yields results independent of the worker
/// count.
pub trait EnsembleAccumulator: Send {
    /// What one job produces.
    type Item;

    /// Folds one job's result in. Jobs arrive in increasing index
    /// order within a shard.
    fn absorb(&mut self, job: usize, item: Self::Item);

    /// Appends another accumulator holding the results of the jobs
    /// immediately after this one's.
    fn merge(&mut self, other: Self);
}

/// The shard width used for `jobs` jobs: fixed by the job count alone
/// (never by the worker count), so the reduction tree — and therefore
/// the bit-exact result — is the same on every machine configuration.
///
/// Small ensembles shard per job for load balancing; large ensembles
/// cap the shard count at 1024 to bound queue traffic and merge state.
pub fn shard_size(jobs: usize) -> usize {
    const MAX_SHARDS: usize = 1024;
    jobs.div_ceil(MAX_SHARDS).max(1)
}

/// How the engine responds when a job fails.
///
/// All three policies keep the determinism contract: results — and for
/// [`FailurePolicy::Quarantine`], *which jobs are dropped* — are
/// bit-identical at every worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Abort the ensemble on the first failure (legacy behaviour and
    /// the default): the error of the lowest-indexed failing shard
    /// among those that ran is returned.
    #[default]
    FailFast,
    /// Re-run a failed job up to `rungs` more times, passing the rung
    /// index (1, 2, …) to the job closure so it can climb a rescue
    /// ladder of progressively conservative solver configs. A job that
    /// fails on every rung aborts the ensemble like `FailFast`.
    Retry {
        /// Rescue rungs after the nominal attempt (rung 0).
        rungs: usize,
    },
    /// Retry like [`FailurePolicy::Retry`], then *quarantine* jobs
    /// that fail on every rung: drop them from the accumulator, record
    /// them in the [`FailureReport`], and keep going. All shards of a
    /// segment run to completion (no early abort), so the quarantined
    /// set is worker-count independent. The ordered merge of each
    /// segment checks the budget: the first failure past
    /// `max_failures` in job order fails the ensemble with its error.
    Quarantine {
        /// Rescue rungs after the nominal attempt (rung 0).
        rungs: usize,
        /// Largest acceptable number of quarantined jobs.
        max_failures: usize,
    },
}

impl FailurePolicy {
    /// Rescue rungs granted after the nominal attempt.
    #[must_use]
    pub fn rungs(&self) -> usize {
        match self {
            Self::FailFast => 0,
            Self::Retry { rungs } | Self::Quarantine { rungs, .. } => *rungs,
        }
    }

    /// The most jobs a run may quarantine: `max_failures` under
    /// `Quarantine`, none otherwise.
    pub(crate) fn max_quarantined(&self) -> usize {
        match self {
            Self::Quarantine { max_failures, .. } => *max_failures,
            Self::FailFast | Self::Retry { .. } => 0,
        }
    }

    /// The canonical JSON form: `kind` (`fail-fast`, `retry` or
    /// `quarantine`) first, then the counts in sorted key order, all
    /// exact `u64`. Request payloads hash these bytes into their
    /// ticket and checkpoint payloads carry them as their fingerprint,
    /// so the spelling is frozen.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let count = |n: usize| JsonValue::U64(n as u64);
        match *self {
            Self::FailFast => JsonValue::obj(vec![("kind", JsonValue::Str("fail-fast".into()))]),
            Self::Retry { rungs } => JsonValue::obj(vec![
                ("kind", JsonValue::Str("retry".into())),
                ("rungs", count(rungs)),
            ]),
            Self::Quarantine {
                rungs,
                max_failures,
            } => JsonValue::obj(vec![
                ("kind", JsonValue::Str("quarantine".into())),
                ("max_failures", count(max_failures)),
                ("rungs", count(rungs)),
            ]),
        }
    }

    /// Decodes [`FailurePolicy::to_json`]'s form. A missing `rungs`
    /// defaults to 2 and a missing `max_failures` to 1; a present
    /// count must be an integer in `0..=max_count`.
    ///
    /// # Errors
    ///
    /// A message naming the offending `policy.<member>`.
    pub fn from_json(v: &JsonValue, max_count: usize) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("policy.kind must be a string")?;
        let count = |key: &str, default: usize| match v.get(key) {
            None => Ok(default),
            Some(n) => n
                .as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .filter(|&n| n <= max_count)
                .ok_or_else(|| format!("policy.{key} must be in 0..={max_count}")),
        };
        match kind {
            "fail-fast" => Ok(Self::FailFast),
            "retry" => Ok(Self::Retry {
                rungs: count("rungs", 2)?,
            }),
            "quarantine" => Ok(Self::Quarantine {
                rungs: count("rungs", 2)?,
                max_failures: count("max_failures", 1)?,
            }),
            other => Err(format!(
                "unknown policy kind `{other}` (fail-fast/retry/quarantine)"
            )),
        }
    }
}

/// Everything an ensemble run needs beyond the jobs
/// themselves: the failure policy, the (normally empty) fault plan,
/// and the ensemble master seed recorded in failure reports so a
/// quarantined job can be reproduced in isolation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionPolicy {
    /// Response to job failures.
    pub failure: FailurePolicy,
    /// Injected-failure schedule (empty outside tests and drills).
    pub faults: FaultPlan,
    /// The master seed the ensemble's jobs derive their RNG from;
    /// echoed into [`JobFailure::seed`] as
    /// `SeedStream::new(seed).substream(job).seed()`.
    pub seed: u64,
}

/// A job that failed at least once and then succeeded on a rescue
/// rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RescuedJob {
    /// The job index.
    pub job: usize,
    /// The rung (≥ 1) on which it finally succeeded.
    pub rung: usize,
}

/// One irrecoverably failed job, with everything needed to reproduce
/// it in isolation: re-run job `job` with the RNG stream derived from
/// `seed` under the rung-`rungs_attempted - 1` solver config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The job index.
    pub job: usize,
    /// The job's derived seed
    /// (`SeedStream::new(master).substream(job).seed()`).
    pub seed: u64,
    /// Attempts made (1 = nominal only, 1 + rungs when a ladder ran).
    pub rungs_attempted: usize,
    /// The error of the *last* attempt, as its `Debug` text (what the
    /// journal's `quarantined` event and a checkpoint carry).
    pub error: String,
}

/// The failure accounting of an ensemble run, alongside the partial
/// accumulator in [`EnsembleOutcome`]. Both lists are sorted by job
/// index and bit-identical at every worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureReport {
    /// Jobs the run covered: every requested job, or the completed
    /// prefix of a budget-truncated run ([`Completion::Truncated`]).
    pub jobs: usize,
    /// Jobs that needed the rescue ladder but succeeded.
    pub rescued: Vec<RescuedJob>,
    /// Jobs dropped from the accumulator (always empty outside
    /// [`FailurePolicy::Quarantine`]).
    pub quarantined: Vec<JobFailure>,
}

impl FailureReport {
    /// The effective sample count: jobs whose results are actually in
    /// the accumulator. Downstream statistics must divide by this,
    /// not by [`FailureReport::jobs`].
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        self.jobs - self.quarantined.len()
    }

    /// True when every job succeeded on its nominal attempt.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.rescued.is_empty() && self.quarantined.is_empty()
    }

    /// The report as a standalone telemetry [`Journal`]: one
    /// `rescued` event per ladder survivor and one `quarantined`
    /// event per dropped job, in job order. Bench bins print these
    /// lines to stdout and merge them into their `--metrics`
    /// artifacts, so rescue/quarantine outcomes are machine-readable
    /// instead of free text.
    #[must_use]
    pub fn journal(&self) -> Journal {
        let mut journal = Journal::new();
        for r in &self.rescued {
            journal.push(JournalEvent::Rescued {
                job: r.job,
                rung: r.rung,
            });
        }
        for q in &self.quarantined {
            journal.push(JournalEvent::Quarantined {
                job: q.job,
                seed: q.seed,
                rungs_attempted: q.rungs_attempted,
                error: q.error.clone(),
            });
        }
        journal
    }
}

/// Whether an ensemble ran every job it was asked to, or stopped
/// early at a job boundary because a [`crate::checkpoint::RunBudget`]
/// was exhausted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Completion {
    /// Every requested job ran (the only value a run without a
    /// [`crate::checkpoint::RunBudget`] produces).
    #[default]
    Complete,
    /// The run stopped cleanly after `completed` jobs with `remaining`
    /// still unprocessed. The accumulator and report cover exactly the
    /// completed prefix, bit-identical to the same prefix of an
    /// uninterrupted run.
    Truncated {
        /// Jobs whose results are reflected in the outcome.
        completed: usize,
        /// Jobs never attempted (`completed + remaining == jobs`).
        remaining: usize,
    },
}

/// A captured per-job panic, converted into the consumer's error type
/// via `From<JobPanic>` so one poisoned sample flows through the same
/// retry/quarantine machinery as an ordinary solver failure instead of
/// tearing down the whole ensemble.
///
/// The message is the panic payload when it was a string (the common
/// `panic!`/`assert!` case — deterministic for deterministic jobs) and
/// a fixed placeholder otherwise, so [`FailureReport`]s containing
/// panics remain worker-count independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload, when it was a `&str` or `String`.
    pub message: String,
}

impl JobPanic {
    fn from_payload(payload: &(dyn std::any::Any + Send)) -> Self {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Self { message }
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

/// An ensemble's result: the accumulator over the surviving jobs plus
/// the failure accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleOutcome<A> {
    /// The merged accumulator (over all jobs under `FailFast`/`Retry`,
    /// over the survivors under `Quarantine`).
    pub acc: A,
    /// Rescue and quarantine accounting.
    pub report: FailureReport,
    /// Whether the run covered every job or was budget-truncated.
    pub completion: Completion,
}

/// How one job ended, as seen by the shard fold.
enum JobRun<T, E> {
    /// The job produced an item (possibly after rescue rungs).
    Done { item: T, rescued: Option<usize> },
    /// The job failed on every permitted attempt.
    Failed { rungs_attempted: usize, error: E },
}

/// One reduced shard: its accumulator plus failure bookkeeping and
/// (when a recorder is live) per-job telemetry records. Its failed
/// jobs keep their typed errors, as `(job, rungs_attempted, error)`,
/// until the ordered merge either quarantines them or returns the
/// first one past the budget.
struct ShardOutcome<A, E> {
    shard: usize,
    acc: A,
    rescued: Vec<RescuedJob>,
    failed: Vec<(usize, usize, E)>,
    records: Vec<JobRecord>,
}

/// What one worker brings home: its finished shards, plus the first
/// abort it hit (if any).
type WorkerOutcome<A, E> = (Vec<ShardOutcome<A, E>>, Option<(usize, E)>);

/// A run's state at a shard boundary: the running merged accumulator
/// over the first `shards_done` shards, plus their failure bookkeeping
/// and job records in job order. A fresh run starts from
/// [`Progress::cold`]; a resumed checkpointed run starts from its
/// snapshot, which stores exactly this.
pub(crate) struct Progress<A> {
    /// Shards already folded into `acc`.
    pub(crate) shards_done: usize,
    /// The running merged accumulator (`None` before the first shard).
    pub(crate) acc: Option<A>,
    /// Rescued jobs so far, in job order.
    pub(crate) rescued: Vec<RescuedJob>,
    /// Quarantined jobs so far, in job order.
    pub(crate) quarantined: Vec<JobFailure>,
    /// Per-job telemetry records so far, in job order.
    pub(crate) records: Vec<JobRecord>,
}

impl<A> Progress<A> {
    /// The state before any shard has run.
    pub(crate) fn cold() -> Self {
        Self {
            shards_done: 0,
            acc: None,
            rescued: Vec::new(),
            quarantined: Vec::new(),
            records: Vec::new(),
        }
    }
}

/// Folds shards `[progress.shards_done, shard_hi)` of a `jobs`-job
/// ensemble into `progress`: the parallel engine under every run.
///
/// The shard width is always computed from the **total** job count, so
/// a run sliced into segments reproduces the exact shard structure —
/// and therefore the exact merge tree — of an unsliced run. This
/// segment's shards merge into the running accumulator strictly in
/// shard order (`((acc ⊕ s_lo) ⊕ s_lo+1) ⊕ …`), which is precisely the
/// shape an unsliced left fold has by the time it passes `shard_hi`.
///
/// Without quarantine a failed job aborts the segment: workers stop
/// claiming shards and the error of the lowest-indexed failing shard
/// among those that ran is returned. Under quarantine failures are
/// folded into the shard's failure list and every shard runs. The
/// ordered merge then quarantines them in job order, rendering each
/// error as its `Debug` text, which makes the quarantined set itself
/// deterministic; the first failure past `max_failures` is returned
/// as the segment's error instead, so `progress` (and any snapshot of
/// it) never holds more than `max_failures` quarantined jobs.
///
/// With `observing` true each job additionally runs under a live
/// [`JobProbe`] and a [`Stopwatch`], and its [`JobRecord`] joins
/// `progress.records` in job order (telemetry is strictly job-local
/// state, so observation cannot perturb results).
#[allow(clippy::too_many_arguments)] // an internal engine seam; the public runners bundle these
fn run_segment<A, F, E>(
    jobs: usize,
    shard_hi: usize,
    parallelism: Parallelism,
    policy: &ExecutionPolicy,
    observing: bool,
    make_acc: &(impl Fn() -> A + Sync),
    job: &F,
    progress: &mut Progress<A>,
) -> Result<(), E>
where
    A: EnsembleAccumulator,
    F: Fn(usize, usize, &mut JobProbe) -> Result<A::Item, E> + Sync,
    E: Send + std::fmt::Debug + From<InjectedFault> + From<JobPanic>,
{
    let shard_lo = progress.shards_done;
    debug_assert!(shard_lo < shard_hi, "a segment holds at least one shard");
    let width = shard_size(jobs);
    let quarantine = matches!(policy.failure, FailurePolicy::Quarantine { .. });
    let run_job = resilient_job_runner(policy, job);
    let workers = parallelism.workers().min(shard_hi - shard_lo);

    // One shard's fold: jobs [shard*width, ...) in index order.
    // lint: hot-loop
    // Runs once per Monte-Carlo job on every worker thread; the
    // accumulator is the only storage on the success path, and the
    // bookkeeping vectors start empty (no allocation until a job
    // actually needs rescue or quarantine — the cold path).
    let fold_shard = |shard: usize| -> Result<ShardOutcome<A, E>, E> {
        let lo = shard * width;
        let hi = (lo + width).min(jobs);
        let mut out = ShardOutcome {
            shard,
            acc: make_acc(),
            rescued: Vec::new(), // lint: allow(HOT001): Vec::new is allocation-free until first push
            failed: Vec::new(), // lint: allow(HOT001): Vec::new is allocation-free until first push
            records: Vec::new(), // lint: allow(HOT001): Vec::new is allocation-free until first push
        };
        for j in lo..hi {
            // With a live recorder: a probe for the job closure to fill
            // and a wall-clock around the job. Both are job-local (no
            // shared state), so which thread runs the job still cannot
            // change what it computes; with `observing` false the probe
            // is dead and the stopwatch is never started.
            let mut probe = JobProbe::new(observing);
            let watch = observing.then(Stopwatch::start);
            match run_job(j, &mut probe) {
                JobRun::Done { item, rescued } => {
                    out.acc.absorb(j, item);
                    if let Some(rung) = rescued {
                        out.rescued.push(RescuedJob { job: j, rung }); // lint: allow(HOT003): cold path, only on rescue
                    }
                    if let Some(watch) = watch {
                        // lint: allow(HOT003): telemetry path, runs only under a live recorder
                        out.records.push(JobRecord {
                            job: j,
                            seconds: watch.elapsed_seconds(),
                            rescued,
                            solver: probe.solver(),
                            trap: probe.trap(),
                            scenario: probe.scenario(),
                        });
                    }
                }
                JobRun::Failed {
                    rungs_attempted,
                    error,
                } => {
                    if !quarantine {
                        return Err(error);
                    }
                    out.failed.push((j, rungs_attempted, error)); // lint: allow(HOT003): cold path, only on quarantine
                }
            }
        }
        Ok(out)
    };
    // lint: end-hot-loop

    let mut completed: Vec<ShardOutcome<A, E>> = Vec::with_capacity(shard_hi - shard_lo);
    if workers <= 1 {
        // Sequential path: same shard structure and merge order as the
        // threaded path, so the two agree bit-for-bit.
        for shard in shard_lo..shard_hi {
            completed.push(fold_shard(shard)?);
        }
    } else {
        // Threaded path: workers race for shard indices on an atomic
        // queue; each returns its shard outcomes for the ordered
        // merge below.
        let next = AtomicUsize::new(shard_lo);
        let failed = AtomicBool::new(false);
        let outcome: Vec<WorkerOutcome<A, E>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done: Vec<ShardOutcome<A, E>> = Vec::new();
                        let mut error: Option<(usize, E)> = None;
                        while !failed.load(Ordering::Relaxed) {
                            let shard = next.fetch_add(1, Ordering::Relaxed);
                            if shard >= shard_hi {
                                break;
                            }
                            match fold_shard(shard) {
                                Ok(out) => done.push(out),
                                Err(e) => {
                                    error = Some((shard, e));
                                    failed.store(true, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                        (done, error)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ensemble worker panicked")) // lint: allow(HYG002): worker panics are deliberately propagated
                .collect()
        });

        let mut first_error: Option<(usize, E)> = None;
        for (done, error) in outcome {
            completed.extend(done);
            if let Some((shard, e)) = error {
                match &first_error {
                    Some((s, _)) if *s <= shard => {}
                    _ => first_error = Some((shard, e)),
                }
            }
        }
        if let Some((_, e)) = first_error {
            return Err(e);
        }
        debug_assert_eq!(
            completed.len(),
            shard_hi - shard_lo,
            "every shard reduced exactly once"
        );
        completed.sort_by_key(|out| out.shard);
    }

    // The ordered left fold. Starting from the running total of
    // earlier segments or, without one, from the first shard's
    // accumulator — both give the identical `((s₀ ⊕ s₁) ⊕ s₂) ⊕ …`
    // tree an unsliced run builds, because each shard merges into the
    // running total one at a time in shard order.
    let max_quarantined = policy.failure.max_quarantined();
    for out in completed {
        for (job, rungs_attempted, error) in out.failed {
            if progress.quarantined.len() >= max_quarantined {
                return Err(error);
            }
            progress.quarantined.push(JobFailure {
                job,
                seed: SeedStream::new(policy.seed).substream(job as u64).seed(),
                rungs_attempted,
                error: format!("{error:?}"),
            });
        }
        progress.acc = Some(match progress.acc.take() {
            Some(mut total) => {
                total.merge(out.acc);
                total
            }
            None => out.acc,
        });
        progress.rescued.extend(out.rescued);
        progress.records.extend(out.records);
    }
    progress.shards_done = shard_hi;
    Ok(())
}

/// The per-job decision procedure: job-site fault injection, the
/// rescue-rung retry ladder, and panic containment.
///
/// Each attempt runs under [`catch_unwind`], so a panicking job — a
/// poisoned netlist hitting an `assert!`, an out-of-bounds index deep
/// in a model — is converted into `E::from(JobPanic)` and flows down
/// the same retry/quarantine path as an ordinary error instead of
/// aborting the whole ensemble. Panic messages from deterministic
/// jobs are themselves deterministic, so the resulting
/// [`FailureReport`] stays bit-identical at every worker count. (The
/// process-global panic hook still prints to stderr; containment is
/// about control flow, not log silence.)
fn resilient_job_runner<'a, T, E, F>(
    policy: &'a ExecutionPolicy,
    job: &'a F,
) -> impl Fn(usize, &mut JobProbe) -> JobRun<T, E> + Sync + 'a
where
    F: Fn(usize, usize, &mut JobProbe) -> Result<T, E> + Sync,
    E: From<InjectedFault> + From<JobPanic>,
{
    let rungs = policy.failure.rungs();
    move |j: usize, probe: &mut JobProbe| -> JobRun<T, E> {
        if let Some(fault) = policy.faults.job_fault(j) {
            // Job-site faults model irrecoverable samples: they fire
            // on every rung, so no attempt is even made.
            return JobRun::Failed {
                rungs_attempted: rungs + 1,
                error: E::from(fault),
            };
        }
        let mut rung = 0;
        loop {
            let attempt = catch_unwind(AssertUnwindSafe(|| job(j, rung, &mut *probe)))
                .unwrap_or_else(|payload| Err(E::from(JobPanic::from_payload(payload.as_ref()))));
            match attempt {
                Ok(item) => {
                    return JobRun::Done {
                        item,
                        rescued: (rung > 0).then_some(rung),
                    }
                }
                Err(error) if rung >= rungs => {
                    return JobRun::Failed {
                        rungs_attempted: rung + 1,
                        error,
                    }
                }
                Err(_) => rung += 1,
            }
        }
    }
}

/// The one driver under both public runners: the segment loop and
/// journal absorption.
///
/// The run proceeds from `progress` in shard-aligned segments. Before
/// each segment it checks the [`RunControls`] job budget and the kill
/// drill; after each one it hands the new progress to `save` when a
/// checkpoint path is set. A segment that breaks the quarantine budget
/// returns its error before that save (see [`run_segment`]).
/// With passive controls and no kill drill the whole run is one
/// segment.
///
/// After the loop the recorder absorbs all job records, the rescue
/// summaries and the quarantine summaries, in that order.
/// Absorbing once, here, is what makes the journal byte-identical at
/// every worker count and across checkpoint/resume boundaries.
#[allow(clippy::too_many_arguments)] // private; the public runners bundle these
pub(crate) fn drive<A, F, E>(
    jobs: usize,
    parallelism: Parallelism,
    policy: &ExecutionPolicy,
    controls: &RunControls,
    recorder: &mut Recorder,
    mut progress: Progress<A>,
    make_acc: impl Fn() -> A + Sync,
    job: F,
    mut save: impl FnMut(&Path, &Progress<A>) -> std::io::Result<()>,
) -> Result<EnsembleOutcome<A>, E>
where
    A: EnsembleAccumulator,
    F: Fn(usize, usize, &mut JobProbe) -> Result<A::Item, E> + Sync,
    E: Send + std::fmt::Debug + From<InjectedFault> + From<JobPanic>,
{
    let width = shard_size(jobs);
    let shards = jobs.div_ceil(width);

    // The job budget rounds *down* to whole shards: a ceiling, never
    // exceeded. Segments are cadence-sized; a passive run is a single
    // segment.
    let allowed_shards = match controls.budget.max_jobs {
        Some(max_jobs) => shards.min(max_jobs / width),
        None => shards,
    };
    let segment_shards = if controls.is_passive() && policy.faults.kill_job().is_none() {
        shards.max(1)
    } else {
        controls.checkpoint.every_jobs.div_ceil(width).max(1)
    };

    let mut truncated = false;
    while progress.shards_done < shards {
        if progress.shards_done >= allowed_shards {
            truncated = true;
            break;
        }
        let shard_hi = progress
            .shards_done
            .saturating_add(segment_shards)
            .min(allowed_shards);

        if let Some(kill) = policy.faults.kill_job() {
            let segment_jobs = (progress.shards_done * width)..(shard_hi * width).min(jobs);
            if segment_jobs.contains(&kill) {
                // The crash drill: die exactly where a real crash
                // would, with everything before this segment already
                // snapshotted.
                process::exit(KILL_EXIT);
            }
        }

        run_segment(
            jobs,
            shard_hi,
            parallelism,
            policy,
            recorder.live(),
            &make_acc,
            &job,
            &mut progress,
        )?;

        if let Some(path) = &controls.checkpoint.path {
            if save(path, &progress).is_err() {
                // Degrade, don't abort: the run is still correct, it
                // just lost crash protection for this stretch.
                recorder.note("checkpoint.write_failed", 1);
            }
        }
    }

    let completed = (progress.shards_done * width).min(jobs);
    let report = FailureReport {
        jobs: completed,
        rescued: progress.rescued,
        quarantined: progress.quarantined,
    };
    if recorder.live() {
        for rec in &progress.records {
            recorder.absorb_job(rec);
        }
        for r in &report.rescued {
            recorder.record_rescue(r.job, r.rung);
        }
        for q in &report.quarantined {
            recorder.record_quarantine(q.job, q.seed, q.rungs_attempted, &q.error);
        }
    }

    let completion = if truncated {
        Completion::Truncated {
            completed,
            remaining: jobs - completed,
        }
    } else {
        Completion::Complete
    };
    Ok(EnsembleOutcome {
        acc: progress.acc.unwrap_or_else(make_acc),
        report,
        completion,
    })
}

/// Runs `jobs` independent jobs under an explicit [`ExecutionPolicy`]
/// and reduces their results, with telemetry.
///
/// `job(i, rung, probe)` computes job `i` on rescue rung `rung` (0 =
/// the nominal config; policies with a ladder re-invoke the job at
/// rungs 1..=`rungs` after a failure, each expected to use a more
/// conservative solver config). It derives any randomness from `i`
/// (see the module docs) and fills `probe` with solver/sampler
/// counters across all its attempts. `make_acc` creates one fresh
/// accumulator per shard. Jobs named by a [`FaultPlan::fail_job`]
/// trigger fail irrecoverably with an [`InjectedFault`] converted via
/// `E: From<InjectedFault>`; a panicking job fails with
/// `E: From<JobPanic>`.
///
/// After the ordered merge the `recorder` absorbs per-job records plus
/// `rescued`/`quarantined` journal summary events, everything in job
/// order. Quarantined jobs produce no job record (their work was
/// discarded); they appear as `quarantined` events with the error
/// rendered via `Debug`. With a noop recorder probes are dead and no
/// stopwatch starts.
///
/// The determinism contract extends to failure handling and telemetry:
/// the accumulator, the rescued list, the quarantined list (jobs,
/// order, seeds, errors) and the journal are bit-identical at every
/// [`Parallelism`] value.
///
/// # Errors
///
/// Under `FailFast`/`Retry`, the error of a job that failed on every
/// permitted attempt (lowest-indexed failing shard among those that
/// ran; always the overall-lowest when sequential). Under
/// `Quarantine`, the error of the first failure past the
/// `max_failures` budget in job order.
pub fn run_ensemble_resilient_observed<A, F, E>(
    jobs: usize,
    parallelism: Parallelism,
    policy: &ExecutionPolicy,
    recorder: &mut Recorder,
    make_acc: impl Fn() -> A + Sync,
    job: F,
) -> Result<EnsembleOutcome<A>, E>
where
    A: EnsembleAccumulator,
    F: Fn(usize, usize, &mut JobProbe) -> Result<A::Item, E> + Sync,
    E: Send + std::fmt::Debug + From<InjectedFault> + From<JobPanic>,
{
    drive(
        jobs,
        parallelism,
        policy,
        &RunControls::default(),
        recorder,
        Progress::cold(),
        make_acc,
        job,
        // Passive controls carry no checkpoint path: never called.
        |_, _| Ok(()),
    )
}

/// Accumulates a per-grid-point running sum — the parallel form of an
/// ensemble-averaged occupancy (or any sampled trace statistic).
#[derive(Debug, Clone, PartialEq)]
pub struct MeanTrace {
    sums: Vec<f64>,
    count: usize,
}

impl MeanTrace {
    /// An empty accumulator over `n` grid points.
    pub fn zeros(n: usize) -> Self {
        Self {
            sums: vec![0.0; n],
            count: 0,
        }
    }

    /// Number of absorbed traces.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The raw per-point sums (checkpoint serialization reads these).
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Rebuilds an accumulator from checkpointed state. The bit
    /// patterns of `sums` are preserved exactly, so a restored
    /// accumulator continues the fold bit-identically.
    pub fn from_parts(sums: Vec<f64>, count: usize) -> Self {
        Self { sums, count }
    }

    /// The per-point mean (empty accumulator ⇒ zeros).
    pub fn mean(&self) -> Vec<f64> {
        if self.count == 0 {
            return self.sums.clone();
        }
        let inv = 1.0 / self.count as f64;
        self.sums.iter().map(|s| s * inv).collect()
    }
}

impl EnsembleAccumulator for MeanTrace {
    type Item = Vec<f64>;

    fn absorb(&mut self, _job: usize, item: Vec<f64>) {
        assert_eq!(item.len(), self.sums.len(), "grid size mismatch");
        for (slot, v) in self.sums.iter_mut().zip(item) {
            *slot += v;
        }
        self.count += 1;
    }

    fn merge(&mut self, other: Self) {
        assert_eq!(other.sums.len(), self.sums.len(), "grid size mismatch");
        for (slot, v) in self.sums.iter_mut().zip(other.sums) {
            *slot += v;
        }
        self.count += other.count;
    }
}

/// Collects each job's result into its job-indexed slot — for
/// ensembles whose reduction is "keep everything, in order" (per-cell
/// sweep records, per-trap staircases, per-config figure rows).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedResults<T> {
    slots: Vec<(usize, T)>,
}

impl<T> Default for IndexedResults<T> {
    fn default() -> Self {
        Self { slots: Vec::new() }
    }
}

impl<T> IndexedResults<T> {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `(job, result)` slots in absorption order (checkpoint
    /// serialization reads these).
    pub fn slots(&self) -> &[(usize, T)] {
        &self.slots
    }

    /// Rebuilds a collection from checkpointed `(job, result)` slots.
    pub fn from_slots(slots: Vec<(usize, T)>) -> Self {
        Self { slots }
    }

    /// The results in job order.
    pub fn into_vec(self) -> Vec<T> {
        debug_assert!(
            self.slots.windows(2).all(|w| w[0].0 < w[1].0),
            "job indices are strictly increasing after the ordered merge"
        );
        self.slots.into_iter().map(|(_, v)| v).collect()
    }
}

impl<T: Send> EnsembleAccumulator for IndexedResults<T> {
    type Item = T;

    fn absorb(&mut self, job: usize, item: T) {
        // lint: allow(HOT103): job-ordered output accumulation; amortised growth is the contract
        self.slots.push((job, item));
    }

    fn merge(&mut self, other: Self) {
        self.slots.extend(other.slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan, FaultSite, InjectedFault};
    use crate::SeedStream;
    use rand::Rng;

    /// A minimal error type for policy tests.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum TestError {
        Job(usize),
        Injected(InjectedFault),
        Panicked(String),
    }

    impl From<InjectedFault> for TestError {
        fn from(f: InjectedFault) -> Self {
            TestError::Injected(f)
        }
    }

    impl From<JobPanic> for TestError {
        fn from(p: JobPanic) -> Self {
            TestError::Panicked(p.message)
        }
    }

    /// The runner with a noop recorder, for jobs that ignore the probe.
    fn run<A: EnsembleAccumulator>(
        jobs: usize,
        parallelism: Parallelism,
        policy: &ExecutionPolicy,
        make_acc: impl Fn() -> A + Sync,
        job: impl Fn(usize, usize) -> Result<A::Item, TestError> + Sync,
    ) -> Result<EnsembleOutcome<A>, TestError> {
        run_ensemble_resilient_observed(
            jobs,
            parallelism,
            policy,
            &mut Recorder::noop(),
            make_acc,
            |j, rung, _probe: &mut JobProbe| job(j, rung),
        )
    }

    fn mean_of(jobs: usize, p: Parallelism, seed: u64) -> Vec<f64> {
        let seeds = SeedStream::new(seed);
        run(
            jobs,
            p,
            &ExecutionPolicy::default(),
            || MeanTrace::zeros(4),
            |job, _rung| {
                let mut rng = seeds.rng(job as u64);
                Ok((0..4).map(|_| rng.gen::<f64>()).collect())
            },
        )
        .unwrap()
        .acc
        .mean()
    }

    #[test]
    fn bit_identical_across_worker_counts() {
        let reference = mean_of(997, Parallelism::Fixed(1), 3);
        for workers in [2, 3, 8, 32] {
            let par = mean_of(997, Parallelism::Fixed(workers), 3);
            for (a, b) in reference.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers = {workers}");
            }
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_results() {
        assert_ne!(
            mean_of(100, Parallelism::Auto, 1),
            mean_of(100, Parallelism::Auto, 2)
        );
    }

    #[test]
    fn zero_jobs_yield_the_empty_accumulator() {
        let out = run(
            0,
            Parallelism::Auto,
            &ExecutionPolicy::default(),
            IndexedResults::<usize>::new,
            |_, _| Ok(0),
        )
        .unwrap();
        assert_eq!(out.acc.into_vec().len(), 0);
        assert_eq!(out.report.effective_jobs(), 0);
        assert_eq!(out.completion, Completion::Complete);
    }

    #[test]
    fn indexed_results_preserve_job_order() {
        // 5 000 jobs shard five to a shard over eight workers.
        for (jobs, p) in [
            (257, Parallelism::Fixed(1)),
            (257, Parallelism::Fixed(4)),
            (5000, Parallelism::Fixed(8)),
        ] {
            let out = run(
                jobs,
                p,
                &ExecutionPolicy::default(),
                IndexedResults::new,
                |job, _| Ok(job * job),
            )
            .unwrap();
            let v = out.acc.into_vec();
            assert_eq!(v.len(), jobs);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i * i));
        }
    }

    #[test]
    fn errors_propagate_and_name_the_lowest_failing_shard_when_sequential() {
        let err = run(
            100,
            Parallelism::Fixed(1),
            &ExecutionPolicy::default(),
            IndexedResults::<usize>::new,
            |job, _| {
                if job >= 40 {
                    Err(TestError::Job(job))
                } else {
                    Ok(0)
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, TestError::Job(40));
    }

    #[test]
    fn errors_propagate_in_parallel_too() {
        let err = run(
            100,
            Parallelism::Fixed(4),
            &ExecutionPolicy::default(),
            IndexedResults::<usize>::new,
            |job, _| {
                if job == 63 {
                    Err(TestError::Job(job))
                } else {
                    Ok(0)
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, TestError::Job(63));
    }

    #[test]
    fn shard_size_depends_only_on_job_count() {
        assert_eq!(shard_size(1), 1);
        assert_eq!(shard_size(1024), 1);
        assert_eq!(shard_size(1025), 2);
        assert_eq!(shard_size(10_000), 10);
        // Monotone-ish sanity: shard count never exceeds the cap.
        for jobs in [1usize, 7, 1000, 4096, 1_000_000] {
            assert!(jobs.div_ceil(shard_size(jobs)) <= 1024);
        }
    }

    #[test]
    fn failfast_matches_a_sequential_fold_bit_for_bit() {
        // 500 jobs shard one per job, so the ordered merge is the plain
        // left fold `((x₀ + x₁) + x₂) + …` over the job results.
        let seeds = SeedStream::new(11);
        let item = |j: usize| -> Vec<f64> {
            let mut rng = seeds.rng(j as u64);
            (0..3).map(|_| rng.gen::<f64>()).collect()
        };
        let mut folded = MeanTrace::zeros(3);
        for j in 0..500 {
            folded.absorb(j, item(j));
        }
        let outcome = run(
            500,
            Parallelism::Fixed(4),
            &ExecutionPolicy::default(),
            || MeanTrace::zeros(3),
            |j, _rung| Ok(item(j)),
        )
        .unwrap();
        assert!(outcome.report.is_clean());
        assert_eq!(outcome.report.effective_jobs(), 500);
        for (a, b) in folded.mean().iter().zip(outcome.acc.mean()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn retry_climbs_the_ladder_and_records_the_rescue() {
        let policy = ExecutionPolicy {
            failure: FailurePolicy::Retry { rungs: 2 },
            ..ExecutionPolicy::default()
        };
        let outcome = run(
            50,
            Parallelism::Fixed(3),
            &policy,
            IndexedResults::<usize>::new,
            |j, rung| {
                // Job 17 needs rung 2; job 30 needs rung 1.
                let needed = match j {
                    17 => 2,
                    30 => 1,
                    _ => 0,
                };
                if rung >= needed {
                    Ok(rung)
                } else {
                    Err(TestError::Job(j))
                }
            },
        )
        .unwrap();
        assert_eq!(outcome.acc.into_vec().len(), 50);
        assert_eq!(
            outcome.report.rescued,
            vec![
                RescuedJob { job: 17, rung: 2 },
                RescuedJob { job: 30, rung: 1 }
            ]
        );
        assert!(outcome.report.quarantined.is_empty());
    }

    #[test]
    fn retry_exhaustion_aborts_like_failfast() {
        let policy = ExecutionPolicy {
            failure: FailurePolicy::Retry { rungs: 1 },
            ..ExecutionPolicy::default()
        };
        let err = run(
            20,
            Parallelism::Fixed(1),
            &policy,
            IndexedResults::<usize>::new,
            |j, _rung| {
                if j == 5 {
                    Err(TestError::Job(j))
                } else {
                    Ok(0)
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, TestError::Job(5));
    }

    #[test]
    fn quarantine_drops_failures_and_reports_them_deterministically() {
        let run = |workers: usize| {
            let policy = ExecutionPolicy {
                failure: FailurePolicy::Quarantine {
                    rungs: 0,
                    max_failures: 10,
                },
                faults: FaultPlan::none(),
                seed: 99,
            };
            run(
                1100, // > 1024 so shards hold several jobs
                Parallelism::Fixed(workers),
                &policy,
                || MeanTrace::zeros(2),
                |j, _rung| {
                    if j % 167 == 3 {
                        Err(TestError::Job(j))
                    } else {
                        let mut rng = SeedStream::new(99).rng(j as u64);
                        Ok(vec![rng.gen(), rng.gen()])
                    }
                },
            )
            .unwrap()
        };
        let reference = run(1);
        let failing: Vec<usize> = reference.report.quarantined.iter().map(|q| q.job).collect();
        assert_eq!(failing, vec![3, 170, 337, 504, 671, 838, 1005]);
        assert_eq!(reference.report.effective_jobs(), 1100 - 7);
        assert_eq!(reference.acc.count(), 1100 - 7);
        // Reproduction seeds follow the documented derivation.
        for q in &reference.report.quarantined {
            assert_eq!(q.seed, SeedStream::new(99).substream(q.job as u64).seed());
            assert_eq!(q.rungs_attempted, 1);
        }
        for workers in [2, 8] {
            let par = run(workers);
            assert_eq!(par.report, reference.report, "workers = {workers}");
            for (a, b) in reference.acc.mean().iter().zip(par.acc.mean()) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers = {workers}");
            }
        }
    }

    #[test]
    fn quarantine_budget_overflow_fails_with_the_first_excess_job() {
        let policy = ExecutionPolicy {
            failure: FailurePolicy::Quarantine {
                rungs: 0,
                max_failures: 2,
            },
            ..ExecutionPolicy::default()
        };
        for workers in [1, 4] {
            let err = run(
                100,
                Parallelism::Fixed(workers),
                &policy,
                IndexedResults::<usize>::new,
                |j, _rung| {
                    if j % 10 == 0 {
                        Err(TestError::Job(j))
                    } else {
                        Ok(0)
                    }
                },
            )
            .unwrap_err();
            // Failures land at 0, 10, 20, ...; the budget admits two,
            // so job 20 is the first past it.
            assert_eq!(err, TestError::Job(20), "workers = {workers}");
        }
    }

    #[test]
    fn injected_job_faults_are_irrecoverable_and_quarantined() {
        let policy = ExecutionPolicy {
            failure: FailurePolicy::Quarantine {
                rungs: 3,
                max_failures: 1,
            },
            faults: FaultPlan::none().fail_job(7, FaultKind::NonConvergence),
            seed: 0,
        };
        let outcome = run(
            20,
            Parallelism::Fixed(2),
            &policy,
            IndexedResults::<usize>::new,
            |_j, _rung| Ok(0),
        )
        .unwrap();
        assert_eq!(outcome.acc.into_vec().len(), 19);
        let q = &outcome.report.quarantined[0];
        assert_eq!(q.job, 7);
        // The ladder is not climbed for job-site faults, but the
        // report still accounts for every rung being unavailable.
        assert_eq!(q.rungs_attempted, 4);
        let fault = TestError::Injected(InjectedFault {
            kind: FaultKind::NonConvergence,
            site: FaultSite::Job,
        });
        assert_eq!(q.error, format!("{fault:?}"));
    }

    #[test]
    fn a_panicking_job_is_quarantined_not_fatal() {
        let policy = ExecutionPolicy {
            failure: FailurePolicy::Quarantine {
                rungs: 0,
                max_failures: 2,
            },
            faults: FaultPlan::none(),
            seed: 5,
        };
        for workers in [1, 4] {
            let outcome = run(
                30,
                Parallelism::Fixed(workers),
                &policy,
                IndexedResults::<usize>::new,
                |j, _rung| {
                    assert!(j != 13, "poisoned sample");
                    Ok(0)
                },
            )
            .unwrap();
            assert_eq!(outcome.acc.into_vec().len(), 29, "workers = {workers}");
            assert_eq!(outcome.report.quarantined.len(), 1);
            let q = &outcome.report.quarantined[0];
            assert_eq!(q.job, 13);
            let panic = TestError::Panicked("poisoned sample".into());
            assert_eq!(q.error, format!("{panic:?}"));
        }
    }

    #[test]
    fn a_panicking_job_aborts_cleanly_under_failfast() {
        let policy = ExecutionPolicy::default();
        let err = run(
            10,
            Parallelism::Fixed(1),
            &policy,
            IndexedResults::<usize>::new,
            |j, _rung| {
                if j == 4 {
                    panic!("boom at {j}");
                }
                Ok(0)
            },
        )
        .unwrap_err();
        assert_eq!(err, TestError::Panicked("boom at 4".into()));
    }

    #[test]
    fn mean_trace_merge_matches_direct_absorption() {
        let mut a = MeanTrace::zeros(2);
        a.absorb(0, vec![1.0, 2.0]);
        let mut b = MeanTrace::zeros(2);
        b.absorb(1, vec![3.0, 4.0]);
        a.merge(b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), vec![2.0, 3.0]);
    }
}
