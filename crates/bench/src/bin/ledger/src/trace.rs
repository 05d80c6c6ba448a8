//! Spans recorded from the benchmark's own code around the calls into
//! each layer, and their Chrome trace-event rendering.
//!
//! A span is opened with [`span`] and closed when its guard drops.
//! Spans on one thread nest; a span's self time is its duration minus
//! the time its same-thread children cover. Records stay in memory and
//! are written once, after the run ([`Tracer::chrome_json`]), so the
//! file never competes with the measured work. With no tracer every
//! call is a no-op, which is how untraced runs pay nothing.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use samurai_telemetry::JsonValue;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer name, e.g. `analysis.autocorr`.
    pub name: &'static str,
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one (same thread, or the span that
    /// handed the work to this thread).
    pub parent: Option<u64>,
    /// Small per-thread index (the Chrome `tid`).
    pub tid: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Nanoseconds covered by same-thread children.
    pub child_ns: u64,
}

impl SpanRecord {
    /// Duration minus same-thread children, seconds.
    #[must_use]
    pub fn self_seconds(&self) -> f64 {
        self.dur_ns.saturating_sub(self.child_ns) as f64 * 1e-9
    }
}

/// The in-memory span collector of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Open spans of this thread: (id, covered-by-children ns).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// This thread's Chrome `tid` (0 until first use).
    static TID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn thread_index() -> u64 {
    TID.with(|tid| {
        if tid.get() == 0 {
            tid.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        tid.get()
    })
}

impl Tracer {
    /// A collector whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        }
    }

    /// A copy of every closed span, in closing order.
    ///
    /// # Panics
    ///
    /// If a thread panicked while holding the record lock.
    #[must_use]
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().expect("span lock poisoned").clone()
    }

    /// Total self time of the spans named `name`, seconds.
    #[must_use]
    pub fn self_seconds(&self, name: &str) -> f64 {
        self.records()
            .iter()
            .filter(|r| r.name == name)
            .map(SpanRecord::self_seconds)
            .sum()
    }

    /// Total duration of the spans named `name`, seconds.
    #[must_use]
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.records()
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.dur_ns as f64 * 1e-9)
            .sum()
    }

    /// The run as a Chrome trace-event document (`ph: "X"` complete
    /// events, microsecond timestamps), which Perfetto and
    /// `chrome://tracing` open directly.
    #[must_use]
    pub fn chrome_json(&self, workload: &str) -> JsonValue {
        let mut records = self.records();
        records.sort_by_key(|r| (r.start_ns, r.id));
        let mut events = vec![JsonValue::obj(vec![
            ("name", JsonValue::Str("process_name".into())),
            ("ph", JsonValue::Str("M".into())),
            ("pid", JsonValue::U64(1)),
            (
                "args",
                JsonValue::obj(vec![("name", JsonValue::Str(format!("ledger {workload}")))]),
            ),
        ])];
        for r in records {
            events.push(JsonValue::obj(vec![
                ("name", JsonValue::Str(r.name.into())),
                ("cat", JsonValue::Str(layer_of(r.name).into())),
                ("ph", JsonValue::Str("X".into())),
                ("ts", JsonValue::F64(r.start_ns as f64 / 1e3)),
                ("dur", JsonValue::F64(r.dur_ns as f64 / 1e3)),
                ("pid", JsonValue::U64(1)),
                ("tid", JsonValue::U64(r.tid)),
                (
                    "args",
                    JsonValue::obj(vec![
                        ("id", JsonValue::U64(r.id)),
                        ("parent", r.parent.map_or(JsonValue::Null, JsonValue::U64)),
                        ("self_us", JsonValue::F64(r.self_seconds() * 1e6)),
                    ]),
                ),
            ]));
        }
        JsonValue::obj(vec![
            ("traceEvents", JsonValue::Arr(events)),
            ("displayTimeUnit", JsonValue::Str("ms".into())),
        ])
    }
}

/// The layer (crate) part of a span name: `analysis.autocorr` →
/// `analysis`.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// An open span; closes when dropped.
#[derive(Debug)]
pub struct Span<'a> {
    tracer: Option<&'a Tracer>,
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Instant,
}

/// Opens a span named `name` on this thread (a no-op without a tracer).
#[must_use]
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Span<'a> {
    open(tracer, name, None)
}

/// Opens a span on this thread caused by `cause`, a span of another
/// thread (an ensemble worker's job, caused by the ensemble call).
#[must_use]
pub fn span_caused_by<'a>(tracer: Option<&'a Tracer>, name: &'static str, cause: u64) -> Span<'a> {
    open(tracer, name, Some(cause))
}

fn open<'a>(tracer: Option<&'a Tracer>, name: &'static str, cause: Option<u64>) -> Span<'a> {
    let (id, parent) = match tracer {
        Some(t) => {
            let id = t.next_id.fetch_add(1, Ordering::Relaxed);
            let parent = OPEN.with(|open| {
                let mut open = open.borrow_mut();
                let parent = open.last().map(|(p, _)| *p).or(cause);
                open.push((id, 0));
                parent
            });
            (id, parent)
        }
        None => (0, None),
    };
    Span {
        tracer,
        name,
        id,
        parent,
        start: Instant::now(),
    }
}

impl Span<'_> {
    /// This span's id (0 without a tracer).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else {
            return;
        };
        let end = Instant::now();
        let dur_ns = u64::try_from(end.duration_since(self.start).as_nanos()).unwrap_or(u64::MAX);
        let start_ns =
            u64::try_from(self.start.duration_since(tracer.epoch).as_nanos()).unwrap_or(u64::MAX);
        let child_ns = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let child_ns = match open.pop() {
                Some((id, child_ns)) if id == self.id => child_ns,
                // Guards drop in reverse order of creation, so the top
                // of the stack is always this span.
                _ => 0,
            };
            if let Some(parent) = open.last_mut() {
                parent.1 += dur_ns;
            }
            child_ns
        });
        let record = SpanRecord {
            name: self.name,
            id: self.id,
            parent: self.parent,
            tid: thread_index(),
            start_ns,
            dur_ns,
            child_ns,
        };
        // A poisoned lock means another span writer panicked; dropping
        // this record is better than panicking inside `drop`.
        if let Ok(mut records) = tracer.records.lock() {
            records.push(record);
        }
    }
}
