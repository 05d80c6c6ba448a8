//! Shared service state: the bounded job queue, the per-ticket job
//! registry, and the service metrics.
//!
//! One [`ServiceState`] is shared (via `Arc`) between the HTTP
//! connection threads and the worker pool. Connection threads call
//! [`ServiceState::submit`] and the read-side accessors; workers block
//! in [`ServiceState::next_job`] on a condvar until a ticket is queued
//! or the service starts draining.
//!
//! All mutexes absorb poisoning with
//! `unwrap_or_else(PoisonError::into_inner)`: a panicking worker must
//! not wedge the whole server (the state it guards is always
//! internally consistent — every update is a single small transaction).

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use samurai_telemetry::JsonValue;

use crate::spec::{ticket_hex, JobSpec};
use crate::store::ResultStore;

/// Lifecycle of one accepted ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Completed; the sealed result is in the store.
    Done,
    /// The simulation failed terminally; see the entry's error text.
    Failed,
}

impl JobPhase {
    /// Wire name used in status documents.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Failed => "failed",
        }
    }
}

/// What [`ServiceState::submit`] decided about a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The store already holds this ticket's result; nothing ran.
    Cached(u64),
    /// The same ticket is already queued or running; no duplicate was
    /// enqueued.
    InFlight(u64),
    /// Accepted and enqueued.
    Accepted(u64),
    /// The queue is full — retry after the hinted number of seconds.
    Busy {
        /// `Retry-After` hint, in seconds.
        retry_after: u64,
    },
    /// The service is draining and takes no new work.
    Draining,
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    phase: JobPhase,
    /// Journal prefix published so far (JSONL bytes). Grows
    /// monotonically; the streaming endpoint tails it.
    journal: String,
    jobs_done: usize,
    jobs_total: usize,
    error: Option<String>,
}

#[derive(Debug, Default)]
struct Inner {
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobEntry>,
    metrics: BTreeMap<&'static str, u64>,
    draining: bool,
    active: usize,
}

impl Inner {
    fn bump(&mut self, key: &'static str, delta: u64) {
        *self.metrics.entry(key).or_insert(0) += delta;
    }
}

/// The shared heart of the service. See the module docs.
#[derive(Debug)]
pub struct ServiceState {
    store: ResultStore,
    capacity: usize,
    inner: Mutex<Inner>,
    /// Signalled when work is queued or draining starts.
    work: Condvar,
    /// Signalled when a worker finishes a job (drain waits on this).
    idle: Condvar,
}

impl ServiceState {
    /// Creates the state over `store` with a queue bounded at
    /// `capacity` submissions, and re-enqueues any requests a previous
    /// (killed) server left without results — those resume from their
    /// checkpoint segments.
    ///
    /// # Errors
    ///
    /// Propagates store-scan failures.
    pub fn open(store: ResultStore, capacity: usize) -> io::Result<Self> {
        let mut inner = Inner::default();
        for (ticket, spec) in store.pending_requests()? {
            inner.bump("serve.jobs_recovered", 1);
            let jobs_total = spec.jobs();
            inner.jobs.insert(
                ticket,
                JobEntry {
                    spec,
                    phase: JobPhase::Queued,
                    journal: String::new(),
                    jobs_done: 0,
                    jobs_total,
                    error: None,
                },
            );
            inner.queue.push_back(ticket);
        }
        Ok(Self {
            store,
            capacity: capacity.max(1),
            inner: Mutex::new(inner),
            work: Condvar::new(),
            idle: Condvar::new(),
        })
    }

    /// The result store this service fronts.
    #[must_use]
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Decides what to do with a submission: cache hit, in-flight
    /// dedup, accept, backpressure or drain rejection. On accept the
    /// sealed request document is persisted (crash recovery) before
    /// the ticket becomes visible to workers.
    ///
    /// # Errors
    ///
    /// Propagates request-persistence failures.
    pub fn submit(&self, spec: JobSpec) -> io::Result<SubmitOutcome> {
        let ticket = spec.ticket();
        let document = spec.document();
        let mut inner = self.lock();
        if self.store.load_result(ticket).is_some() {
            inner.bump("serve.cache_hit", 1);
            return Ok(SubmitOutcome::Cached(ticket));
        }
        inner.bump("serve.cache_miss", 1);
        if let Some(entry) = inner.jobs.get(&ticket) {
            if matches!(entry.phase, JobPhase::Queued | JobPhase::Running) {
                inner.bump("serve.inflight_hit", 1);
                return Ok(SubmitOutcome::InFlight(ticket));
            }
        }
        if inner.draining {
            return Ok(SubmitOutcome::Draining);
        }
        if inner.queue.len() >= self.capacity {
            inner.bump("serve.rejected_busy", 1);
            return Ok(SubmitOutcome::Busy { retry_after: 1 });
        }
        self.store.put_request(ticket, &document)?;
        let jobs_total = spec.jobs();
        inner.jobs.insert(
            ticket,
            JobEntry {
                spec,
                phase: JobPhase::Queued,
                journal: String::new(),
                jobs_done: 0,
                jobs_total,
                error: None,
            },
        );
        inner.queue.push_back(ticket);
        inner.bump("serve.jobs_accepted", 1);
        drop(inner);
        self.work.notify_one();
        Ok(SubmitOutcome::Accepted(ticket))
    }

    /// Blocks until a ticket is available (returning it and its spec)
    /// or the service is draining with an empty queue (returning
    /// `None`, which tells the worker thread to exit).
    #[must_use]
    pub fn next_job(&self) -> Option<(u64, JobSpec)> {
        let mut inner = self.lock();
        loop {
            if let Some(ticket) = inner.queue.pop_front() {
                let spec = inner.jobs.get_mut(&ticket).map(|entry| {
                    entry.phase = JobPhase::Running;
                    entry.spec.clone()
                })?;
                inner.active += 1;
                return Some((ticket, spec));
            }
            if inner.draining {
                return None;
            }
            inner = self
                .work
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Publishes worker progress: the full journal prefix produced so
    /// far and the number of ensemble jobs completed. The prefix only
    /// ever grows, so concurrent journal tails stay consistent.
    pub fn publish_progress(&self, ticket: u64, journal_prefix: String, jobs_done: usize) {
        let mut inner = self.lock();
        if let Some(entry) = inner.jobs.get_mut(&ticket) {
            if journal_prefix.len() >= entry.journal.len() {
                entry.journal = journal_prefix;
            }
            entry.jobs_done = jobs_done;
        }
    }

    /// Marks a ticket finished. `error` of `None` means the sealed
    /// result is already in the store.
    pub fn finish(&self, ticket: u64, error: Option<String>) {
        let mut inner = self.lock();
        if let Some(entry) = inner.jobs.get_mut(&ticket) {
            entry.jobs_done = entry.jobs_total;
            match error {
                None => {
                    entry.phase = JobPhase::Done;
                    inner.bump("serve.jobs_completed", 1);
                }
                Some(msg) => {
                    entry.phase = JobPhase::Failed;
                    entry.error = Some(msg);
                    inner.bump("serve.jobs_failed", 1);
                }
            }
        }
        inner.active = inner.active.saturating_sub(1);
        drop(inner);
        self.idle.notify_all();
    }

    /// One status document for `GET /jobs/<ticket>`: phase, progress
    /// counts and error text. A ticket known only to the store (from
    /// an earlier server life) reports as `done`.
    #[must_use]
    pub fn status_json(&self, ticket: u64) -> Option<JsonValue> {
        let inner = self.lock();
        let entry = inner.jobs.get(&ticket);
        let (phase, jobs_done, jobs_total, error) = match entry {
            Some(e) => (e.phase, e.jobs_done, e.jobs_total, e.error.clone()),
            None => {
                drop(inner);
                let doc = self.store.load_result(ticket)?;
                let jobs = doc
                    .get("payload")
                    .and_then(|p| p.get("jobs"))
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0) as usize;
                (JobPhase::Done, jobs, jobs, None)
            }
        };
        Some(JsonValue::obj(vec![
            ("ticket", JsonValue::Str(ticket_hex(ticket))),
            ("phase", JsonValue::Str(phase.as_str().into())),
            ("jobs_done", JsonValue::U64(jobs_done as u64)),
            ("jobs_total", JsonValue::U64(jobs_total as u64)),
            ("error", error.map_or(JsonValue::Null, JsonValue::Str)),
        ]))
    }

    /// Tails a ticket's journal: the JSONL bytes beyond `from`, plus
    /// whether the job has reached a terminal phase (so a streaming
    /// reader knows when to stop polling). For tickets only present in
    /// the store, the full stored journal is returned.
    #[must_use]
    pub fn journal_tail(&self, ticket: u64, from: usize) -> Option<(String, bool)> {
        let inner = self.lock();
        if let Some(entry) = inner.jobs.get(&ticket) {
            let done = matches!(entry.phase, JobPhase::Done | JobPhase::Failed);
            let tail = entry.journal.get(from..).unwrap_or("").to_owned();
            return Some((tail, done));
        }
        drop(inner);
        let doc = self.store.load_result(ticket)?;
        let journal = doc
            .get("payload")
            .and_then(|p| p.get("journal"))
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        Some((journal.get(from..).unwrap_or("").to_owned(), true))
    }

    /// Snapshot of the service counters as one flat JSON object
    /// (`GET /metrics`): cache hits/misses, accept/reject counts,
    /// completions, recoveries — plus the current queue depth.
    #[must_use]
    pub fn metrics_json(&self) -> JsonValue {
        let inner = self.lock();
        let mut members: Vec<(String, JsonValue)> = inner
            .metrics
            .iter()
            .map(|(k, v)| ((*k).to_owned(), JsonValue::U64(*v)))
            .collect();
        members.push((
            "serve.queue_depth.now".to_owned(),
            JsonValue::U64(inner.queue.len() as u64),
        ));
        JsonValue::Obj(members)
    }

    /// Adds to a named service counter (used by the HTTP layer for
    /// request accounting).
    pub fn bump(&self, key: &'static str, delta: u64) {
        self.lock().bump(key, delta);
    }

    /// Whether the service has begun draining.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// Starts a graceful drain: no new submissions are accepted, and
    /// the call blocks until the queue is empty and every worker is
    /// idle. Workers observing the drained, empty queue exit.
    pub fn drain(&self) {
        let mut inner = self.lock();
        inner.draining = true;
        drop(inner);
        self.work.notify_all();
        let mut inner = self.lock();
        while inner.active > 0 || !inner.queue.is_empty() {
            inner = self
                .idle
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;
    use samurai_core::FailurePolicy;

    fn state(dir: &str, capacity: usize) -> ServiceState {
        let dir = std::env::temp_dir().join(dir);
        let _ = std::fs::remove_dir_all(&dir);
        ServiceState::open(ResultStore::open(dir).unwrap(), capacity).unwrap()
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            workload: Workload::Trap {
                panels: 2,
                samples: 256,
            },
            seed,
            policy: FailurePolicy::FailFast,
            scenario: None,
            drill: None,
        }
    }

    #[test]
    fn queue_accepts_dedups_and_backpressures() {
        let st = state("samurai-serve-state-queue", 2);
        let a = st.submit(spec(1)).unwrap();
        let SubmitOutcome::Accepted(ticket) = a else {
            panic!("expected accept, got {a:?}");
        };
        assert_eq!(st.submit(spec(1)).unwrap(), SubmitOutcome::InFlight(ticket));
        assert!(matches!(
            st.submit(spec(2)).unwrap(),
            SubmitOutcome::Accepted(_)
        ));
        assert_eq!(
            st.submit(spec(3)).unwrap(),
            SubmitOutcome::Busy { retry_after: 1 }
        );

        let (t0, s0) = st.next_job().unwrap();
        assert_eq!(t0, ticket);
        assert_eq!(s0.seed, 1);
        st.publish_progress(t0, "{\"a\":1}\n".to_owned(), 1);
        let (tail, done) = st.journal_tail(t0, 0).unwrap();
        assert_eq!(tail, "{\"a\":1}\n");
        assert!(!done);
        let (tail, _) = st.journal_tail(t0, tail.len()).unwrap();
        assert!(tail.is_empty());

        st.finish(t0, Some("boom".to_owned()));
        let status = st.status_json(t0).unwrap().to_json();
        assert!(status.contains("\"phase\":\"failed\""));
        assert!(status.contains("boom"));

        let metrics = st.metrics_json().to_json();
        assert!(metrics.contains("\"serve.jobs_accepted\":2"));
        assert!(metrics.contains("\"serve.rejected_busy\":1"));
    }

    #[test]
    fn metrics_document_counts_each_submission_outcome() {
        let st = state("samurai-serve-state-metrics", 2);
        let SubmitOutcome::Accepted(done) = st.submit(spec(1)).unwrap() else {
            panic!("expected accept");
        };
        assert_eq!(st.submit(spec(1)).unwrap(), SubmitOutcome::InFlight(done));
        let SubmitOutcome::Accepted(failed) = st.submit(spec(2)).unwrap() else {
            panic!("expected accept");
        };
        assert_eq!(
            st.submit(spec(3)).unwrap(),
            SubmitOutcome::Busy { retry_after: 1 }
        );

        let (ticket, job) = st.next_job().unwrap();
        assert_eq!(ticket, done);
        let payload = JsonValue::obj(vec![
            ("ticket", JsonValue::Str(ticket_hex(ticket))),
            ("request", job.canonical_payload()),
            ("jobs", JsonValue::U64(job.jobs() as u64)),
            ("completion", JsonValue::Str("complete".into())),
            ("results", JsonValue::Arr(vec![])),
            ("journal", JsonValue::Str(String::new())),
        ]);
        st.store().put_result(ticket, payload).unwrap();
        st.finish(ticket, None);
        assert_eq!(st.submit(spec(1)).unwrap(), SubmitOutcome::Cached(done));
        assert_eq!(st.next_job().unwrap().0, failed);
        st.finish(failed, Some("boom".to_owned()));

        assert_eq!(
            st.metrics_json().to_json(),
            "{\"serve.cache_hit\":1,\"serve.cache_miss\":4,\"serve.inflight_hit\":1,\
             \"serve.jobs_accepted\":2,\"serve.jobs_completed\":1,\"serve.jobs_failed\":1,\
             \"serve.rejected_busy\":1,\"serve.queue_depth.now\":0}"
        );
    }

    #[test]
    fn drain_rejects_new_work_and_unblocks_workers() {
        let st = std::sync::Arc::new(state("samurai-serve-state-drain", 4));
        let st2 = std::sync::Arc::clone(&st);
        let waiter = std::thread::spawn(move || st2.next_job());
        st.drain();
        assert!(waiter.join().unwrap().is_none());
        assert_eq!(st.submit(spec(9)).unwrap(), SubmitOutcome::Draining);
    }
}
