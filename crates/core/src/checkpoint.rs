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
//! * [`run_ensemble_checkpointed`] — the runner for accumulators and
//!   errors that implement [`Snapshot`]: it
//!   resumes from and writes snapshots, on top of the budgets and the
//!   crash drill every run honours. A
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
//! [`CHECKPOINT_SCHEMA`]: `{"schema":"samurai-checkpoint-v1","hash":H,
//! "payload":{…}}` where `H` is the FNV-1a-64 hash of the payload's
//! serialised text. Every number in the payload is an exact `u64`
//! (floats travel as IEEE-754 bit patterns), so parse → re-serialise
//! is canonical and [`json::open`] can recompute `H` from the parsed
//! tree. The payload fingerprint (`jobs`, `seed`, failure policy) must
//! match the resuming run; the fault plan is deliberately *excluded*
//! so a crash-drill run's snapshot is resumable by a plain run. The
//! loader's payload decoder is also the offline validator
//! ([`validate_checkpoint`]), so a file the validator passes is one a
//! resuming run accepts.

use std::fs;
use std::path::{Path, PathBuf};

use samurai_telemetry::json::{self, JsonValue};
use samurai_telemetry::{JobProbe, JobRecord, MetricsSink, Recorder};
use samurai_waveform::WaveformError;

use crate::ensemble::{
    drive, shard_size, EnsembleAccumulator, EnsembleOutcome, ExecutionPolicy, FailurePolicy,
    JobFailure, JobPanic, Parallelism, Progress, RescuedJob,
};
use crate::error::CoreError;
use crate::faults::{FaultKind, FaultSite, InjectedFault};

/// The exit code of a [`FaultPlan::kill_at_job`](crate::FaultPlan::kill_at_job)
/// crash drill: distinctive enough that harnesses can tell a planned
/// kill from a genuine abort.
pub const KILL_EXIT: i32 = 86;

/// The schema tag of the snapshot format this module reads and writes.
pub const CHECKPOINT_SCHEMA: &str = "samurai-checkpoint-v1";

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

/// Lossless JSON serialisation for checkpointed state: accumulators
/// and quarantined-job errors.
///
/// Implementations must round-trip **bit patterns**: floats are
/// carried as `u64` IEEE-754 bits, never as decimal text, so a
/// restored accumulator continues the merge fold bit-identically. A
/// snapshot carries the full [`FailureReport`](crate::FailureReport),
/// including each quarantined job's error, and the resumed run
/// re-renders those errors into the journal via `Debug`, so errors
/// must round-trip `Debug`-exactly too.
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

/// The identity codec: [`validate_checkpoint`] decodes accumulators and
/// errors of unknown type as the raw trees they were written as.
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

impl Snapshot for crate::ensemble::CountHistogram {
    fn to_snapshot(&self) -> JsonValue {
        JsonValue::obj(vec![(
            "bins",
            JsonValue::Arr(self.bins().iter().map(|&n| JsonValue::U64(n)).collect()),
        )])
    }

    fn from_snapshot(v: &JsonValue) -> Option<Self> {
        let JsonValue::Arr(bins) = v.get("bins")? else {
            return None;
        };
        let bins = bins
            .iter()
            .map(JsonValue::as_u64)
            .collect::<Option<Vec<u64>>>()?;
        Some(Self::from_bins(bins))
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

// --- Error codecs ---------------------------------------------------

fn fault_kind_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::SingularMatrix => "singular_matrix",
        FaultKind::NonConvergence => "non_convergence",
        FaultKind::NanResidual => "nan_residual",
        FaultKind::TimestepFloor => "timestep_floor",
    }
}

fn fault_kind_from_name(name: &str) -> Option<FaultKind> {
    Some(match name {
        "singular_matrix" => FaultKind::SingularMatrix,
        "non_convergence" => FaultKind::NonConvergence,
        "nan_residual" => FaultKind::NanResidual,
        "timestep_floor" => FaultKind::TimestepFloor,
        _ => return None,
    })
}

fn fault_site_name(site: FaultSite) -> &'static str {
    match site {
        FaultSite::Solve => "solve",
        FaultSite::Step => "step",
        FaultSite::Job => "job",
    }
}

fn fault_site_from_name(name: &str) -> Option<FaultSite> {
    Some(match name {
        "solve" => FaultSite::Solve,
        "step" => FaultSite::Step,
        "job" => FaultSite::Job,
        _ => return None,
    })
}

impl Snapshot for InjectedFault {
    fn to_snapshot(&self) -> JsonValue {
        JsonValue::obj(vec![
            (
                "kind",
                JsonValue::Str(fault_kind_name(self.kind).to_owned()),
            ),
            (
                "site",
                JsonValue::Str(fault_site_name(self.site).to_owned()),
            ),
        ])
    }

    fn from_snapshot(v: &JsonValue) -> Option<Self> {
        Some(Self {
            kind: fault_kind_from_name(v.get("kind")?.as_str()?)?,
            site: fault_site_from_name(v.get("site")?.as_str()?)?,
        })
    }
}

impl Snapshot for WaveformError {
    fn to_snapshot(&self) -> JsonValue {
        match self {
            Self::NonMonotonicTime {
                index,
                previous,
                current,
            } => JsonValue::obj(vec![
                ("v", JsonValue::Str("non_monotonic_time".to_owned())),
                ("index", JsonValue::U64(*index as u64)),
                ("previous", JsonValue::U64(previous.to_bits())),
                ("current", JsonValue::U64(current.to_bits())),
            ]),
            Self::Empty => JsonValue::obj(vec![("v", JsonValue::Str("empty".to_owned()))]),
            Self::NonFinite { index } => JsonValue::obj(vec![
                ("v", JsonValue::Str("non_finite".to_owned())),
                ("index", JsonValue::U64(*index as u64)),
            ]),
            Self::InvalidDuration { name, value } => JsonValue::obj(vec![
                ("v", JsonValue::Str("invalid_duration".to_owned())),
                ("name", JsonValue::Str((*name).to_owned())),
                ("value", JsonValue::U64(value.to_bits())),
            ]),
            // `WaveformError` is non-exhaustive; a future variant this
            // codec does not know decodes to `None`, which the loader
            // treats as corruption (cold start), never silent data loss.
            other => JsonValue::obj(vec![
                ("v", JsonValue::Str("unknown".to_owned())),
                ("debug", JsonValue::Str(format!("{other:?}"))),
            ]),
        }
    }

    fn from_snapshot(v: &JsonValue) -> Option<Self> {
        let f64_field = |key: &str| Some(f64::from_bits(v.get(key)?.as_u64()?));
        let usize_field =
            |key: &str| usize::try_from(v.get(key)?.as_u64().unwrap_or(u64::MAX)).ok();
        Some(match v.get("v")?.as_str()? {
            "non_monotonic_time" => Self::NonMonotonicTime {
                index: usize_field("index")?,
                previous: f64_field("previous")?,
                current: f64_field("current")?,
            },
            "empty" => Self::Empty,
            "non_finite" => Self::NonFinite {
                index: usize_field("index")?,
            },
            "invalid_duration" => Self::InvalidDuration {
                // The variant carries a `&'static str` diagnostic name;
                // a resumed run restores it by leaking the decoded
                // string — bounded by the (tiny) quarantine list.
                name: Box::leak(v.get("name")?.as_str()?.to_owned().into_boxed_str()),
                value: f64_field("value")?,
            },
            _ => return None,
        })
    }
}

impl Snapshot for CoreError {
    fn to_snapshot(&self) -> JsonValue {
        match self {
            Self::EmptyHorizon { t0, tf } => JsonValue::obj(vec![
                ("v", JsonValue::Str("empty_horizon".to_owned())),
                ("t0", JsonValue::U64(t0.to_bits())),
                ("tf", JsonValue::U64(tf.to_bits())),
            ]),
            Self::EventBudgetExceeded { budget, rate } => JsonValue::obj(vec![
                ("v", JsonValue::Str("event_budget_exceeded".to_owned())),
                ("budget", JsonValue::U64(*budget as u64)),
                ("rate", JsonValue::U64(rate.to_bits())),
            ]),
            Self::NonFinitePropensity { time } => JsonValue::obj(vec![
                ("v", JsonValue::Str("non_finite_propensity".to_owned())),
                ("time", JsonValue::U64(time.to_bits())),
            ]),
            Self::Waveform(e) => JsonValue::obj(vec![
                ("v", JsonValue::Str("waveform".to_owned())),
                ("e", e.to_snapshot()),
            ]),
            Self::Injected(fault) => JsonValue::obj(vec![
                ("v", JsonValue::Str("injected".to_owned())),
                ("e", fault.to_snapshot()),
            ]),
            Self::Panicked { message } => JsonValue::obj(vec![
                ("v", JsonValue::Str("panicked".to_owned())),
                ("message", JsonValue::Str(message.clone())),
            ]),
        }
    }

    fn from_snapshot(v: &JsonValue) -> Option<Self> {
        let f64_field = |key: &str| Some(f64::from_bits(v.get(key)?.as_u64()?));
        Some(match v.get("v")?.as_str()? {
            "empty_horizon" => Self::EmptyHorizon {
                t0: f64_field("t0")?,
                tf: f64_field("tf")?,
            },
            "event_budget_exceeded" => Self::EventBudgetExceeded {
                budget: usize::try_from(v.get("budget")?.as_u64()?).ok()?,
                rate: f64_field("rate")?,
            },
            "non_finite_propensity" => Self::NonFinitePropensity {
                time: f64_field("time")?,
            },
            "waveform" => Self::Waveform(WaveformError::from_snapshot(v.get("e")?)?),
            "injected" => Self::Injected(InjectedFault::from_snapshot(v.get("e")?)?),
            "panicked" => Self::Panicked {
                message: v.get("message")?.as_str()?.to_owned(),
            },
            _ => return None,
        })
    }
}

// --- Snapshot encode / decode ---------------------------------------

fn failure_policy_json(policy: FailurePolicy) -> JsonValue {
    match policy {
        FailurePolicy::FailFast => {
            JsonValue::obj(vec![("kind", JsonValue::Str("fail_fast".to_owned()))])
        }
        FailurePolicy::Retry { rungs } => JsonValue::obj(vec![
            ("kind", JsonValue::Str("retry".to_owned())),
            ("rungs", JsonValue::U64(rungs as u64)),
        ]),
        FailurePolicy::Quarantine {
            rungs,
            max_failures,
        } => JsonValue::obj(vec![
            ("kind", JsonValue::Str("quarantine".to_owned())),
            ("rungs", JsonValue::U64(rungs as u64)),
            ("max_failures", JsonValue::U64(max_failures as u64)),
        ]),
    }
}

fn snapshot_payload<A: Snapshot, E: Snapshot>(
    jobs: usize,
    policy: &ExecutionPolicy,
    progress: &Progress<A, E>,
) -> JsonValue {
    JsonValue::obj(vec![
        ("jobs", JsonValue::U64(jobs as u64)),
        ("seed", JsonValue::U64(policy.seed)),
        ("failure", failure_policy_json(policy.failure)),
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
                            ("error", q.error.to_snapshot()),
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
    let count = |key: &str| usize::try_from(failure.get(key)?.as_u64()?).ok();
    let policy = match failure.get("kind")?.as_str()? {
        "fail_fast" => FailurePolicy::FailFast,
        "retry" => FailurePolicy::Retry {
            rungs: count("rungs")?,
        },
        "quarantine" => FailurePolicy::Quarantine {
            rungs: count("rungs")?,
            max_failures: count("max_failures")?,
        },
        _ => return None,
    };
    (failure_policy_json(policy) == *failure).then_some((jobs, seed, policy))
}

/// Decodes the progress half of a `jobs`-job snapshot payload: the
/// shard cursor, accumulator, rescue and quarantine lists and job
/// records. The `Err` is always `decode`.
fn decode_progress<A: Snapshot, E: Snapshot>(
    payload: &JsonValue,
    jobs: usize,
) -> Result<Progress<A, E>, &'static str> {
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
                error: E::from_snapshot(q.get("error")?)?,
            })
        })
        .collect::<Option<Vec<_>>>()
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
fn load_checkpoint<A: Snapshot, E: Snapshot>(
    path: &Path,
    jobs: usize,
    policy: &ExecutionPolicy,
) -> Result<Progress<A, E>, &'static str> {
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
    decode_progress::<A, E>(payload, jobs)
}

/// Checks a snapshot document offline with the loader's own decoder,
/// against the fingerprint the snapshot records instead of a resuming
/// run's; accumulator and errors decode as raw trees. The `Err` is the
/// cold-start reason a resuming run of that fingerprint would journal.
///
/// # Errors
///
/// `schema`, `hash`, `fingerprint` or `decode`, as
/// `checkpoint.cold_start.<reason>` names them.
pub fn validate_checkpoint(doc: &JsonValue) -> Result<(), &'static str> {
    let payload = json::open(doc, CHECKPOINT_SCHEMA)?;
    let (jobs, _, _) = fingerprint(payload).ok_or("fingerprint")?;
    decode_progress::<JsonValue, JsonValue>(payload, jobs).map(drop)
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
pub fn run_ensemble_checkpointed<A, F, E, S>(
    jobs: usize,
    parallelism: Parallelism,
    policy: &ExecutionPolicy,
    controls: &RunControls,
    recorder: &mut Recorder<S>,
    make_acc: impl Fn() -> A + Sync,
    job: F,
) -> Result<EnsembleOutcome<A, E>, E>
where
    A: EnsembleAccumulator + Snapshot,
    F: Fn(usize, usize, &mut JobProbe) -> Result<A::Item, E> + Sync,
    E: Send + std::fmt::Debug + From<InjectedFault> + From<JobPanic> + Snapshot,
    S: MetricsSink,
{
    let mut progress = Progress::cold();
    if controls.checkpoint.resume {
        if let Some(path) = &controls.checkpoint.path {
            match load_checkpoint::<A, E>(path, jobs, policy) {
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

    impl Snapshot for TestError {
        fn to_snapshot(&self) -> JsonValue {
            match self {
                Self::Job(j) => JsonValue::obj(vec![
                    ("v", JsonValue::Str("job".to_owned())),
                    ("job", JsonValue::U64(*j as u64)),
                ]),
                Self::Fault(f) => JsonValue::obj(vec![
                    ("v", JsonValue::Str("fault".to_owned())),
                    ("e", f.to_snapshot()),
                ]),
                Self::Panicked(m) => JsonValue::obj(vec![
                    ("v", JsonValue::Str("panicked".to_owned())),
                    ("message", JsonValue::Str(m.clone())),
                ]),
            }
        }

        fn from_snapshot(v: &JsonValue) -> Option<Self> {
            Some(match v.get("v")?.as_str()? {
                "job" => Self::Job(usize::try_from(v.get("job")?.as_u64()?).ok()?),
                "fault" => Self::Fault(InjectedFault::from_snapshot(v.get("e")?)?),
                "panicked" => Self::Panicked(v.get("message")?.as_str()?.to_owned()),
                _ => return None,
            })
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

    fn uninterrupted(workers: usize) -> (EnsembleOutcome<MeanTrace, TestError>, String) {
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
        let partial: EnsembleOutcome<MeanTrace, TestError> = run_ensemble_checkpointed(
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
                "{\"schema\":\"samurai-checkpoint-v1\",\"hash\":1,\"pa",
            ),
            (
                "wrong-schema",
                "{\"schema\":\"samurai-checkpoint-v99\",\"hash\":1,\"payload\":{}}",
            ),
            (
                "bad-hash",
                "{\"schema\":\"samurai-checkpoint-v1\",\"hash\":1,\"payload\":{}}",
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
        let _: EnsembleOutcome<MeanTrace, TestError> = run_ensemble_checkpointed(
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
        let out: EnsembleOutcome<MeanTrace, TestError> = run_ensemble_checkpointed(
            300,
            Parallelism::Fixed(2),
            &policy,
            &RunControls {
                budget: RunBudget::unlimited().jobs(150),
                ..RunControls::default()
            },
            &mut Recorder::noop(),
            || MeanTrace::zeros(1),
            |j, _rung, _probe| Ok(vec![j as f64]),
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
                error: TestError::Job(3),
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
    fn core_error_codec_round_trips_every_variant() {
        let errors = [
            CoreError::EmptyHorizon { t0: 1.0, tf: -0.0 },
            CoreError::EventBudgetExceeded {
                budget: 1000,
                rate: 1e10,
            },
            CoreError::NonFinitePropensity { time: 0.25 },
            CoreError::Waveform(WaveformError::NonMonotonicTime {
                index: 3,
                previous: 2.0,
                current: 1.0,
            }),
            CoreError::Waveform(WaveformError::Empty),
            CoreError::Waveform(WaveformError::NonFinite { index: 9 }),
            CoreError::Waveform(WaveformError::InvalidDuration {
                name: "t_rise",
                value: -1.0,
            }),
            CoreError::Injected(InjectedFault {
                kind: FaultKind::NanResidual,
                site: FaultSite::Job,
            }),
            CoreError::Panicked {
                message: "poisoned sample".to_owned(),
            },
        ];
        for e in errors {
            let decoded = CoreError::from_snapshot(&e.to_snapshot()).expect("decodes");
            assert_eq!(format!("{decoded:?}"), format!("{e:?}"), "debug-exact");
        }
    }
}
