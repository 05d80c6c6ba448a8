//! `serve_mixed`: an in-process samurai-serve `Server` (one worker,
//! one ensemble thread, fresh store) fed by an open loop of evenly
//! spaced arrivals.
//!
//! The mix is 60 % `trap:16:65536`, 25 % `cell:8` and 15 %
//! `column:16:2`; one arrival in five resubmits an earlier spec, which
//! the store answers without simulating. HTTP, ticketing, the store,
//! the queue and the journal stream carry the load.
//!
//! The load generator is two threads with one connection each. The
//! submitter posts every arrival when it is due and fetches cache hits
//! itself; the collector polls each accepted ticket's status every
//! [`STATUS_POLL`], then fetches its journal and sealed result. The one
//! worker serves tickets first in, first out, so the collector's
//! in-order walk never waits behind a finished ticket. A ticket's
//! latency runs from when it was due to when `GET /store` returned, so a
//! late generator still charges the wait to the tickets it delayed.
//!
//! The collector polls status rather than holding the journal stream
//! open: the stream checks for progress every 20 ms, and one connection
//! streaming tickets in turn couples each ticket's wait to the previous
//! ticket's poll phase, which made the median jump between runs. The
//! stream's cost is measured by the traced run's probe tickets, which
//! open it right after `POST`, as an independent client would.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rand::Rng;
use samurai_core::telemetry::{json, JsonValue, MemoryRecorder};
use samurai_core::{FailurePolicy, Parallelism, SeedStream};
use samurai_serve::worker::execute;
use samurai_serve::{
    run_direct, validate_store_document, JobSpec, ResultStore, Server, ServerConfig, ServiceState,
    SubmitOutcome, Workload, DEFAULT_CHUNK,
};

use crate::harness::{digest_of, median, overhead, pct, timed_setup, Ctx, Outcome, WORKERS};
use crate::trace::{span, span_caused_by, Tracer};

/// Arrivals per second, evenly spaced. Queueing moves the median: at
/// half of the seed build's capacity it moved by a quarter between
/// seeds, and even at 10 Poisson arrivals/s the bursts behind `column`
/// tickets moved it by a tenth. At 8/s evenly spaced only the arrival
/// after a `column` ticket (the longest) waits, and briefly, so the
/// median is an unqueued ticket and the seed sets only the order of the
/// mix.
pub const RATE: f64 = 8.0;

/// Ensemble threads of the service's one worker. The second core runs
/// the HTTP handlers and the load generator; with both cores computing,
/// every request waited for a time slice and the median moved by a
/// third between runs.
const SERVICE_THREADS: usize = 1;

/// Queue capacity of the server (a full queue answers 429).
const CAPACITY: usize = 64;

/// Tickets whose journals form the digest.
const DIGEST_TICKETS: usize = 32;

/// Every this-many fresh tickets, the journal is compared with a direct
/// engine run.
const DIRECT_EVERY: usize = 10;

/// Probe tickets per kind in a traced run.
const PROBES: usize = 2;

/// Cadence of the collector's status polls.
const STATUS_POLL: Duration = Duration::from_millis(5);

/// Cadence of the set-up passes' status polls. The warm-up tickets
/// compute for a few milliseconds, so a coarse poll quantises `setup_s`:
/// waiting on the journal stream's 20 ms poll, it read 83 or 103 ms from
/// run to run.
const SETUP_POLL: Duration = Duration::from_millis(1);

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Seconds after the start of the measured window.
    pub due: f64,
    /// What to submit.
    pub spec: JobSpec,
    /// `false` when this resubmits an earlier spec.
    pub fresh: bool,
}

/// The three request shapes, by kind name.
fn workload(kind: usize, smoke: bool) -> Workload {
    match (kind, smoke) {
        (0, false) => Workload::Trap {
            panels: 16,
            samples: 65536,
        },
        (1, false) => Workload::Cell { members: 8 },
        (_, false) => Workload::Column {
            rows: 16,
            members: 2,
        },
        (0, true) => Workload::Trap {
            panels: 4,
            samples: 4096,
        },
        (1, true) => Workload::Cell { members: 2 },
        (_, true) => Workload::Column {
            rows: 4,
            members: 1,
        },
    }
}

fn spec(kind: usize, seed: u64, smoke: bool) -> JobSpec {
    JobSpec {
        workload: workload(kind, smoke),
        seed,
        policy: FailurePolicy::FailFast,
        scenario: None,
        drill: None,
    }
}

/// Kinds of every 20 fresh specs: 12 trap, 5 cell, 3 column.
const KIND_DECK: [usize; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2];

/// One resubmission in every five arrivals.
const RESUBMIT_DECK: [bool; 5] = [true, false, false, false, false];

/// Deals the next card of `deck` from `hand`, refilling the hand with a
/// seeded shuffle of the deck when it runs out: exact proportions over
/// every full deck, random order within it.
fn deal<T: Copy, R: Rng>(deck: &[T], hand: &mut Vec<T>, rng: &mut R) -> T {
    if hand.is_empty() {
        hand.extend_from_slice(deck);
        for i in (1..hand.len()).rev() {
            hand.swap(i, rng.gen_range(0..i + 1));
        }
    }
    hand.pop().expect("a refilled hand is not empty")
}

/// The open-loop arrival schedule and spec list of one run: arrivals
/// every `1 / RATE` seconds over `seconds`, the 60/25/15 mix and one
/// resubmission of an earlier spec in five arrivals. Mix and
/// resubmissions are dealt from shuffled decks rather than drawn
/// independently, so every seed offers the same proportions and seeds
/// differ only in order and trap/member seeds. A function of its
/// arguments alone; never empty.
#[must_use]
pub fn schedule(seed: u64, seconds: f64, smoke: bool) -> Vec<Arrival> {
    let mut rng = SeedStream::new(seed).rng(0);
    let (mut kinds, mut resubmits) = (Vec::new(), Vec::new());
    let mut out: Vec<Arrival> = Vec::new();
    let mut fresh: Vec<JobSpec> = Vec::new();
    while out.is_empty() || (out.len() as f64 / RATE) < seconds {
        let resubmit = deal(&RESUBMIT_DECK, &mut resubmits, &mut rng) && !fresh.is_empty();
        let spec = if resubmit {
            fresh[rng.gen_range(0..fresh.len())].clone()
        } else {
            let s = spec(deal(&KIND_DECK, &mut kinds, &mut rng), rng.gen(), smoke);
            fresh.push(s.clone());
            s
        };
        out.push(Arrival {
            due: out.len() as f64 / RATE,
            spec,
            fresh: !resubmit,
        });
    }
    out
}

/// One HTTP/1.1 exchange over a fresh connection; returns the status
/// code and the (de-chunked) body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    // A wedged server must fail the run, not hang it.
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    // One segment, sent at once: no Nagle wait between request pieces.
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut chunked = false;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            chunked |= name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked");
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            let mut size = String::new();
            reader.read_line(&mut size)?;
            let size =
                usize::from_str_radix(size.trim(), 16).map_err(|_| bad("malformed chunk size"))?;
            if size == 0 {
                break;
            }
            let mut chunk = vec![0u8; size + 2];
            reader.read_exact(&mut chunk)?;
            body.extend_from_slice(&chunk[..size]);
        }
    } else {
        reader.read_to_end(&mut body)?;
    }
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    Ok((status, body))
}

/// A running in-process server; drained and joined on drop.
struct Service {
    addr: SocketAddr,
    handle: Option<thread::JoinHandle<()>>,
}

impl Service {
    /// Binds an ephemeral port over a fresh store at `dir`.
    fn start(dir: &Path) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(dir);
        let store = ResultStore::open(dir)?;
        let config = ServerConfig {
            workers: 1,
            parallelism: Parallelism::Fixed(SERVICE_THREADS),
            chunk: DEFAULT_CHUNK,
            capacity: CAPACITY,
        };
        let server = Server::bind("127.0.0.1:0", store, config).map_err(std::io::Error::other)?;
        let addr = server.local_addr().map_err(std::io::Error::other)?;
        let handle = thread::spawn(move || {
            let _ = server.run();
        });
        Ok(Self {
            addr,
            handle: Some(handle),
        })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Drain finishes queued work and stops the accept loop; the
        // join waits for the workers.
        let _ = http(self.addr, "POST", "/admin/drain", "");
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// How one ticket went, as the load generator saw it.
#[derive(Debug, Clone, Default)]
struct TicketLog {
    /// Answered 200 cached.
    cached: bool,
    /// Refused or broken; the message.
    error: Option<String>,
    /// Ticket hex from the POST answer.
    ticket: String,
    /// Seconds from due to sent.
    late: f64,
    /// POST round trip, seconds.
    post: f64,
    /// `GET /store` round trip, seconds.
    store_get: f64,
    /// Seconds from due to `GET /store` returning.
    latency: f64,
    /// The journal from `GET /jobs/<ticket>/journal` (accepted tickets).
    journal: String,
    /// The sealed store document.
    document: String,
}

fn store_get(addr: SocketAddr, log: &mut TicketLog, tracer: Option<&Tracer>) {
    let _s = span(tracer, "serve.http.store_get");
    let start = Instant::now();
    match http(addr, "GET", &format!("/store/{}", log.ticket), "") {
        Ok((200, body)) => log.document = body,
        Ok((status, body)) => log.error = Some(format!("GET /store got {status}: {body}")),
        Err(e) => log.error = Some(format!("GET /store failed: {e}")),
    }
    log.store_get = start.elapsed().as_secs_f64();
}

/// Polls `GET /jobs/<ticket>` every `poll` until the ticket is done,
/// then fetches its journal (at once, since the job is over) and its
/// sealed result.
fn collect(addr: SocketAddr, log: &mut TicketLog, tracer: Option<&Tracer>, poll: Duration) {
    let done = {
        let _s = span(tracer, "serve.wait");
        loop {
            match http(addr, "GET", &format!("/jobs/{}", log.ticket), "") {
                Ok((200, status)) => {
                    let phase = json::parse(&status)
                        .ok()
                        .and_then(|d| d.get("phase")?.as_str().map(str::to_owned));
                    match phase.as_deref() {
                        Some("done") => break Ok(()),
                        Some("queued" | "running") => thread::sleep(poll),
                        _ => break Err(format!("status answered {status}")),
                    }
                }
                Ok((code, body)) => break Err(format!("status got {code}: {body}")),
                Err(e) => break Err(format!("status failed: {e}")),
            }
        }
    };
    if let Err(e) = done {
        log.error = Some(e);
        return;
    }
    match http(addr, "GET", &format!("/jobs/{}/journal", log.ticket), "") {
        Ok((200, journal)) => log.journal = journal,
        Ok((code, body)) => log.error = Some(format!("journal got {code}: {body}")),
        Err(e) => log.error = Some(format!("journal failed: {e}")),
    }
    if log.error.is_none() {
        store_get(addr, log, tracer);
    }
}

/// Posts one spec; returns the log with `ticket`, `post` and (for a
/// refused request) `error` filled in, and whether it was a cache hit.
fn post(addr: SocketAddr, spec: &JobSpec, log: &mut TicketLog, tracer: Option<&Tracer>) -> bool {
    let body = spec.canonical_payload().to_json();
    let start = Instant::now();
    let answer = {
        let _s = span(tracer, "serve.http.post");
        http(addr, "POST", "/jobs", &body)
    };
    log.post = start.elapsed().as_secs_f64();
    match answer {
        Ok((status @ (200 | 202), reply)) => {
            log.ticket = json::parse(&reply)
                .ok()
                .and_then(|d| d.get("ticket")?.as_str().map(str::to_owned))
                .unwrap_or_default();
            log.cached = status == 200;
        }
        Ok((status, reply)) => log.error = Some(format!("POST /jobs got {status}: {reply}")),
        Err(e) => log.error = Some(format!("POST /jobs failed: {e}")),
    }
    log.cached
}

/// Drives the schedule against `addr`; returns one log per arrival.
fn drive(addr: SocketAddr, arrivals: &[Arrival], tracer: Option<&Tracer>) -> Vec<TicketLog> {
    let (to_collector, inbox) = mpsc::channel::<(usize, TicketLog, Instant, u64)>();
    let start = Instant::now();
    thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut done = Vec::new();
            for (i, mut log, due, cause) in inbox {
                let traced = tracer.filter(|_| cause != 0);
                let _t = span_caused_by(traced, "serve.ticket.collect", cause);
                collect(addr, &mut log, traced, STATUS_POLL);
                log.latency = due.elapsed().as_secs_f64();
                done.push((i, log));
            }
            done
        });

        let mut logs = Vec::new();
        for (i, arrival) in arrivals.iter().enumerate() {
            let due = start + Duration::from_secs_f64(arrival.due);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            // Even arrivals are traced, odd ones not: the overhead is
            // measured within one load.
            let traced = tracer.filter(|_| i % 2 == 0);
            let ticket_span = span(traced, "serve.ticket.submit");
            let cause = if traced.is_some() {
                ticket_span.id()
            } else {
                0
            };
            let mut log = TicketLog {
                late: due.elapsed().as_secs_f64(),
                ..TicketLog::default()
            };
            if post(addr, &arrival.spec, &mut log, traced) {
                store_get(addr, &mut log, traced);
            } else if log.error.is_none() {
                drop(ticket_span);
                // The collector outlives every send.
                let _ = to_collector.send((i, log, due, cause));
                continue;
            }
            log.latency = due.elapsed().as_secs_f64();
            logs.push((i, log));
        }
        drop(to_collector);
        logs.extend(collector.join().expect("collector thread panicked"));
        logs.sort_by_key(|(i, _)| *i);
        logs.into_iter().map(|(_, log)| log).collect()
    })
}

/// One probe ticket on an idle server, as an independent client runs
/// it: `POST`, the journal stream opened at once and read to its end,
/// then `GET /store`.
fn probe_ticket(addr: SocketAddr, spec: &JobSpec, tracer: &Tracer) -> TicketLog {
    let tracer = Some(tracer);
    let _t = span(tracer, "serve.probe");
    let start = Instant::now();
    let mut log = TicketLog::default();
    if post(addr, spec, &mut log, tracer) || log.error.is_some() {
        log.error
            .get_or_insert_with(|| "probe spec was already cached".into());
        return log;
    }
    let streamed = {
        let _s = span(tracer, "serve.http.journal_stream");
        http(addr, "GET", &format!("/jobs/{}/journal", log.ticket), "")
    };
    match streamed {
        Ok((200, journal)) => {
            log.journal = journal;
            store_get(addr, &mut log, tracer);
        }
        Ok((code, body)) => log.error = Some(format!("journal stream got {code}: {body}")),
        Err(e) => log.error = Some(format!("journal stream failed: {e}")),
    }
    log.latency = start.elapsed().as_secs_f64();
    log
}

/// Checks one ticket's sealed document, and its journal against the
/// one the journal endpoint served.
fn check_ticket(spec: &JobSpec, log: &TicketLog) -> Vec<String> {
    if let Some(e) = &log.error {
        return vec![e.clone()];
    }
    let Ok(doc) = json::parse(&log.document) else {
        return vec![format!(
            "ticket {}: store document does not parse",
            log.ticket
        )];
    };
    let mut failures: Vec<String> = validate_store_document(&doc)
        .into_iter()
        .map(|e| format!("ticket {}: {e}", log.ticket))
        .collect();
    let payload = doc.get("payload");
    let ticket = payload
        .and_then(|p| p.get("ticket"))
        .and_then(JsonValue::as_str);
    if ticket != Some(samurai_serve::ticket_hex(spec.ticket()).as_str()) {
        failures.push(format!("ticket {}: store answered {ticket:?}", log.ticket));
    }
    let journal = payload
        .and_then(|p| p.get("journal"))
        .and_then(JsonValue::as_str);
    if !log.cached && journal != Some(log.journal.as_str()) {
        failures.push(format!(
            "ticket {}: served journal differs from the sealed one",
            log.ticket
        ));
    }
    failures
}

fn sealed_journal(log: &TicketLog) -> String {
    json::parse(&log.document)
        .ok()
        .and_then(|d| {
            d.get("payload")?
                .get("journal")?
                .as_str()
                .map(str::to_owned)
        })
        .unwrap_or_default()
}

/// Runs the workload for `ctx.seconds`.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let arrivals = schedule(ctx.seed, ctx.seconds, ctx.smoke);
    // Set-up: a server over a fresh store, warmed by one small ticket
    // of each kind through the endpoints the load generator uses.
    let mut pass = 0usize;
    let (setup_s, service) = timed_setup(|| {
        pass += 1;
        let service = Service::start(&ctx.scratch.join(format!("store-{pass}")))?;
        for kind in 0..3 {
            let mut log = TicketLog::default();
            if post(service.addr, &spec(kind, pass as u64, true), &mut log, None) {
                log.error = Some("warm-up ticket was already cached".into());
            } else if log.error.is_none() {
                collect(service.addr, &mut log, None, SETUP_POLL);
            }
            if let Some(e) = log.error {
                return Err(std::io::Error::other(e));
            }
        }
        Ok::<Service, std::io::Error>(service)
    });
    out.set("setup_s", setup_s);
    let service = match service {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("server set-up failed: {e}"));
            return out;
        }
    };

    let tracer = ctx.tracer();
    let start = Instant::now();
    let logs = drive(service.addr, &arrivals, tracer);
    let span_s = start.elapsed().as_secs_f64();

    let mut digest_journals = Vec::new();
    let mut fresh_seen = 0usize;
    for (i, (arrival, log)) in arrivals.iter().zip(&logs).enumerate() {
        let mut failures = check_ticket(&arrival.spec, log);
        let journal = if log.cached {
            sealed_journal(log)
        } else {
            log.journal.clone()
        };
        if arrival.fresh {
            if fresh_seen.is_multiple_of(DIRECT_EVERY) && log.error.is_none() {
                let mut direct = MemoryRecorder::recording();
                match run_direct(&arrival.spec, Parallelism::Fixed(WORKERS), &mut direct) {
                    Ok(()) if direct.journal().to_jsonl() == journal => {}
                    Ok(()) => failures.push(format!(
                        "ticket {}: journal differs from the direct engine run",
                        log.ticket
                    )),
                    Err(e) => failures.push(format!("direct run failed: {e}")),
                }
            }
            fresh_seen += 1;
        }
        if i < DIGEST_TICKETS {
            digest_journals.push(journal);
        }
        out.check(failures);
    }
    let parts: Vec<&[u8]> = digest_journals.iter().map(|j| j.as_bytes()).collect();
    out.digest = digest_of(&parts);
    if arrivals.len() >= DIGEST_TICKETS {
        out.check_pinned(ctx, "serve_mixed");
    }

    let latencies: Vec<f64> = logs.iter().map(|l| l.latency).collect();
    out.set("wall_s", median(&latencies));

    if let Some(t) = tracer {
        out.set("serve.ticket_p95_s", pct(&latencies, 0.95));
        let posts = |cached: bool| -> Vec<f64> {
            logs.iter()
                .filter(|l| l.error.is_none() && l.cached == cached)
                .map(|l| l.post * 1e3)
                .collect()
        };
        out.set("serve.http.post_ms_p50", median(&posts(false)));
        out.set("serve.http.cache_hit_ms_p50", median(&posts(true)));
        out.set(
            "serve.http.rejected",
            logs.iter().filter(|l| l.error.is_some()).count() as f64,
        );
        let late: Vec<f64> = logs.iter().map(|l| l.late * 1e3).collect();
        out.set("loadgen.late_ms_p95", pct(&late, 0.95));
        out.set("loadgen.offered_per_s", arrivals.len() as f64 / span_s);
        let traced: Vec<f64> = logs.iter().step_by(2).map(|l| l.latency).collect();
        let untraced: Vec<f64> = logs.iter().skip(1).step_by(2).map(|l| l.latency).collect();
        out.set("trace.overhead_frac", overhead(&traced, &untraced));
        let start = Instant::now();
        for a in &arrivals {
            std::hint::black_box(a.spec.ticket());
        }
        out.set(
            "serve.spec.ticket_us",
            start.elapsed().as_secs_f64() / arrivals.len() as f64 * 1e6,
        );
        probe_layers(ctx, service.addr, t, &mut out);
    }
    drop(service);
    for pass in 1..=crate::harness::SETUP_REPS {
        let _ = std::fs::remove_dir_all(ctx.scratch.join(format!("store-{pass}")));
    }
    out
}

/// The traced run's layer split: [`PROBES`] fresh tickets per kind,
/// one at a time on the idle server, each then replayed through
/// `ServiceState::submit`, `worker::execute` and `workload::run_direct`
/// on a scratch store. What the client saw beyond POST, execute and
/// the store fetch is the unaccounted remainder (queue hand-off, the
/// journal-stream poll, result sealing).
fn probe_layers(ctx: &Ctx, addr: SocketAddr, t: &Tracer, out: &mut Outcome) {
    let dir: PathBuf = ctx.scratch.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let state = match ResultStore::open(&dir).and_then(|s| ServiceState::open(s, CAPACITY)) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("probe store: {e}"));
            return;
        }
    };
    let mut rng = SeedStream::new(ctx.seed).rng(1);
    let mut execute_s: [Vec<f64>; 3] = Default::default();
    // (unaccounted seconds, ticket latency) per probe.
    let mut rests: Vec<(f64, f64)> = Vec::new();
    let (mut overhead, mut submit) = (vec![], vec![]);
    let (mut put, mut load, mut bytes, mut encode, mut journal_bytes) =
        (vec![], vec![], vec![], vec![], vec![]);
    for (kind, executed_s) in execute_s.iter_mut().enumerate() {
        for _ in 0..PROBES {
            let spec = spec(kind, rng.gen(), ctx.smoke);
            let log = probe_ticket(addr, &spec, t);
            let failures = check_ticket(&spec, &log);
            let served = failures.is_empty();
            out.check(failures);
            if !served {
                continue;
            }
            let submit_start = Instant::now();
            let submitted = {
                let _s = span(Some(t), "serve.state.submit");
                state.submit(spec.clone())
            };
            submit.push(submit_start.elapsed().as_secs_f64() * 1e3);
            let Ok(SubmitOutcome::Accepted(ticket)) = submitted else {
                out.fail(format!("probe submit answered {submitted:?}"));
                continue;
            };
            let Some((ticket, job)) = state.next_job().filter(|(t, _)| *t == ticket) else {
                out.fail("probe ticket was not queued".into());
                continue;
            };
            let exec_start = Instant::now();
            let executed = {
                let _s = span(Some(t), "serve.worker.execute");
                execute(
                    &state,
                    ticket,
                    &job,
                    Parallelism::Fixed(SERVICE_THREADS),
                    DEFAULT_CHUNK,
                )
            };
            let exec = exec_start.elapsed().as_secs_f64();
            state.finish(ticket, executed.clone().err());
            if let Err(e) = executed {
                out.fail(format!("probe execute failed: {e}"));
                continue;
            }
            executed_s.push(exec);
            let mut direct = MemoryRecorder::recording();
            let direct_start = Instant::now();
            let ran = {
                let _s = span(Some(t), "serve.workload.run_direct");
                run_direct(&spec, Parallelism::Fixed(SERVICE_THREADS), &mut direct)
            };
            if ran.is_ok() {
                overhead.push(exec / direct_start.elapsed().as_secs_f64() - 1.0);
            }
            let encode_start = Instant::now();
            let journal = direct.journal().to_jsonl();
            encode.push(encode_start.elapsed().as_secs_f64() * 1e3);
            journal_bytes.push(journal.len() as f64);

            let store = state.store();
            let load_start = Instant::now();
            let doc = store.load_result(ticket);
            load.push(load_start.elapsed().as_secs_f64() * 1e3);
            bytes
                .push(std::fs::metadata(store.result_path(ticket)).map_or(0.0, |m| m.len() as f64));
            if let Some(payload) = doc.and_then(|d| d.get("payload").cloned()) {
                let put_start = Instant::now();
                if store.put_result(ticket, payload).is_ok() {
                    put.push(put_start.elapsed().as_secs_f64() * 1e3);
                }
            }
            rests.push((log.latency - log.post - exec - log.store_get, log.latency));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    for (kind, name) in [
        "serve.worker.execute_s.trap",
        "serve.worker.execute_s.cell",
        "serve.worker.execute_s.column",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, median(&execute_s[kind]));
    }
    out.set("serve.worker.chunk_overhead_frac", median(&overhead));
    out.set("serve.state.submit_ms", median(&submit));
    out.set("serve.store.put_ms", median(&put));
    out.set("serve.store.load_ms", median(&load));
    out.set("serve.store.bytes", median(&bytes));
    let unaccounted: Vec<f64> = rests.iter().map(|r| r.0).collect();
    out.set("serve.unaccounted_s_p50", median(&unaccounted));
    out.set("telemetry.journal.encode_ms", median(&encode));
    out.set("telemetry.journal.bytes", median(&journal_bytes));
    let total: f64 = rests.iter().map(|r| r.1).sum();
    out.set(
        "trace.unaccounted_frac",
        unaccounted.iter().sum::<f64>() / total.max(f64::MIN_POSITIVE),
    );
}
