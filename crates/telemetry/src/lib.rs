//! Deterministic observability for the SAMURAI stack.
//!
//! The paper's practicality claim (§V: SAMURAI-driven Monte-Carlo over
//! large SRAM arrays) is a *throughput* claim, and every future
//! performance PR needs a measured baseline to argue against. This
//! crate is that baseline's substrate: plain counter bundles, a
//! monotonic stopwatch and a job-ordered event journal — all
//! dependency-free and, crucially, **deterministic by construction**.
//!
//! # The determinism contract
//!
//! Observability must never perturb what it observes:
//!
//! 1. **Nothing in the hot loops.** Liveness is a runtime flag on the
//!    [`Recorder`], checked only at job boundaries: a
//!    [`Recorder::noop`] run skips the probes, the stopwatches and the
//!    record pass. Hot loops never touch the recorder: they bump plain
//!    [`stats`] counters that it absorbs once per job, so they stay on
//!    the allocation-free contract.
//! 2. **Counts, not clocks, in the journal.** The [`Journal`] records
//!    only deterministic quantities (iteration counts, rescue rungs,
//!    accept/reject tallies). Wall-clock durations live exclusively
//!    in the recorder's latency samples and bench summaries, which
//!    are never byte-compared. The journal is therefore
//!    byte-identical at every worker count.
//! 3. **Wall-clock containment.** [`std::time::Instant`] is touched
//!    only inside this crate ([`Stopwatch`]), behind an explicit
//!    `samurai-lint` allowance. Simulation crates consume the
//!    [`Stopwatch`] API and can never feed time back into numeric
//!    state.
//!
//! # Layout
//!
//! - [`hist`]: the nearest-rank [`percentile`].
//! - [`span`]: [`Stopwatch`] monotonic timing.
//! - [`stats`]: plain-counter bundles ([`SolverStats`], [`TrapStats`])
//!   incremented as bare `u64` fields in hot loops.
//! - [`journal`]: the job-ordered [`Journal`] of [`JournalEvent`]s
//!   with JSON-Lines serialisation.
//! - [`json`]: a hand-rolled JSON value type, writer and minimal
//!   parser (the vendored `serde` is an API stub and serialises
//!   nothing), [`fnv1a64`], the content hash of the canonical
//!   payloads it writes, and the one codec of the sealed
//!   `{schema, hash, payload}` envelope every persisted document
//!   uses ([`json::seal`], [`json::open`]).
//! - [`recorder`]: [`Recorder`], the single handle the ensemble
//!   engine and bench bins thread through a run.

pub mod hist;
pub mod journal;
pub mod json;
pub mod recorder;
pub mod span;
pub mod stats;

pub use hist::percentile;
pub use journal::{Journal, JournalEvent};
pub use json::{fnv1a64, JsonValue};
pub use recorder::{JobProbe, JobRecord, MemoryRecorder, Recorder};
pub use span::Stopwatch;
pub use stats::{ScenarioStamp, SolverStats, TrapStats};
