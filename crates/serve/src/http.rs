//! The HTTP/1.1 front end: a dependency-free server over
//! `std::net::TcpListener`, one thread per connection, plus the worker
//! pool.
//!
//! Routes:
//!
//! | method & path               | behaviour                                   |
//! |-----------------------------|---------------------------------------------|
//! | `POST /jobs`                | submit a spec; 200 cached / 202 accepted / 429 busy / 503 draining |
//! | `GET /jobs/<ticket>`        | status document (phase, progress, error)    |
//! | `GET /jobs/<ticket>/journal`| **chunked** JSONL stream, fed incrementally from the worker's published journal prefix |
//! | `GET /store/<ticket>`       | the sealed result document                  |
//! | `GET /metrics`              | service counters (cache hits, queue depth)  |
//! | `POST /admin/drain`         | graceful drain: finish queued work, then stop |
//!
//! Backpressure is explicit: a full queue answers `429` with a
//! `Retry-After` hint rather than queueing unboundedly, and a draining
//! server answers `503`. The journal stream polls the shared state at
//! a fixed cadence and terminates with a zero-length chunk once the
//! job reaches a terminal phase — so `curl` sees a well-formed body
//! that is byte-identical to the direct engine run's journal.
//!
//! Reads are bounded too: a request head (request line and headers)
//! longer than `MAX_HEAD` bytes, or a body longer than `MAX_BODY`, is
//! answered `400` without reading the rest.

use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use samurai_core::Parallelism;
use samurai_telemetry::{json, JsonValue};

use crate::error::ServeError;
use crate::spec::{parse_ticket, ticket_hex, JobSpec};
use crate::state::{ServiceState, SubmitOutcome};
use crate::store::ResultStore;
use crate::worker::{worker_loop, DEFAULT_CHUNK};

/// Largest request head (request line plus headers) the server will
/// read, bytes.
const MAX_HEAD: u64 = 16 << 10;

/// Largest request body the server will read, bytes.
const MAX_BODY: usize = 1 << 20;

/// Poll cadence of the journal stream, milliseconds.
const JOURNAL_POLL_MS: u64 = 20;

/// Upper bound on journal-stream polls before the connection is
/// closed (a stuck job must not pin connection threads forever).
const JOURNAL_POLL_CAP: usize = 60_000;

/// Per-connection socket read timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Tunables of a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Ensemble parallelism inside each worker.
    pub parallelism: Parallelism,
    /// Checkpoint/publish cadence in ensemble jobs.
    pub chunk: usize,
    /// Queue capacity (submissions beyond it get `429`).
    pub capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            parallelism: Parallelism::Auto,
            chunk: DEFAULT_CHUNK,
            capacity: 64,
        }
    }
}

/// A bound (but not yet serving) job service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
    config: ServerConfig,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) over `store`,
    /// recovering any interrupted jobs the store records.
    ///
    /// # Errors
    ///
    /// Bind or store-scan failures.
    pub fn bind(addr: &str, store: ResultStore, config: ServerConfig) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServiceState::open(store, config.capacity)?);
        Ok(Self {
            listener,
            state,
            config,
        })
    }

    /// The bound socket address (reports the ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// A handle on the shared state (tests use it to observe metrics).
    #[must_use]
    pub fn state(&self) -> Arc<ServiceState> {
        Arc::clone(&self.state)
    }

    /// Serves until a `POST /admin/drain` completes: spawns the worker
    /// pool, accepts connections, and joins the workers on the way
    /// out. Recovered jobs start executing immediately.
    ///
    /// # Errors
    ///
    /// Accept-loop failures (per-connection errors only close that
    /// connection).
    pub fn run(self) -> Result<(), ServeError> {
        let mut workers = Vec::with_capacity(self.config.workers.max(1));
        for _ in 0..self.config.workers.max(1) {
            let state = Arc::clone(&self.state);
            let parallelism = self.config.parallelism;
            let chunk = self.config.chunk;
            workers.push(thread::spawn(move || {
                worker_loop(&state, parallelism, chunk);
            }));
        }

        let self_addr = self.local_addr()?;
        for stream in self.listener.incoming() {
            // Drain completed while we were blocked in accept (the
            // drain handler self-connects to deliver this wakeup).
            if self.state.is_draining() {
                break;
            }
            let Ok(stream) = stream else {
                continue;
            };
            let state = Arc::clone(&self.state);
            thread::spawn(move || {
                let _ = handle_connection(stream, &state, self_addr);
            });
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// One parsed request.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

fn read_request(stream: &TcpStream) -> Result<Request, ServeError> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    // The request line and every header share one budget, so a client
    // that never sends a newline, or never ends its headers, costs at
    // most `MAX_HEAD` bytes.
    let mut head = (&mut reader).take(MAX_HEAD);
    let line = read_head_line(&mut head)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServeError::Http("empty request line".into()))?
        .to_owned();
    let path = parts
        .next()
        .ok_or_else(|| ServeError::Http("request line has no path".into()))?
        .to_owned();

    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut head)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ServeError::Http("bad content-length".into()))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(ServeError::Http(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY}-byte cap"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

/// Reads one line of the request head, failing if the head budget runs
/// out before the line ends. At end of stream it returns the partial
/// (possibly empty) line, as `read_line` does.
fn read_head_line<R: BufRead>(head: &mut Take<R>) -> Result<String, ServeError> {
    let mut line = String::new();
    head.read_line(&mut line)?;
    if !line.ends_with('\n') && head.limit() == 0 {
        return Err(ServeError::Http(format!(
            "request head exceeds the {MAX_HEAD}-byte cap"
        )));
    }
    Ok(line)
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    extra_headers: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn error_body(message: &str) -> String {
    JsonValue::obj(vec![("error", JsonValue::Str(message.to_owned()))]).to_json()
}

fn handle_connection(
    mut stream: TcpStream,
    state: &Arc<ServiceState>,
    self_addr: SocketAddr,
) -> std::io::Result<()> {
    let request = match read_request(&stream) {
        Ok(r) => r,
        Err(e) => {
            return respond(
                &mut stream,
                "400 Bad Request",
                &[],
                &error_body(&e.to_string()),
            );
        }
    };
    state.bump("serve.http_requests", 1);
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("POST", "/jobs") => handle_submit(&mut stream, state, &request.body),
        ("POST", "/admin/drain") => {
            state.drain();
            // Answer first: once the accept loop wakes, `run` may return
            // and the process exit before this thread writes anything.
            let answered = respond(
                &mut stream,
                "200 OK",
                &[],
                &JsonValue::obj(vec![("status", JsonValue::Str("drained".into()))]).to_json(),
            );
            // The accept loop is blocked; a self-connection delivers
            // the "draining" state to it.
            let _ = TcpStream::connect(self_addr);
            answered
        }
        ("GET", "/metrics") => respond(&mut stream, "200 OK", &[], &state.metrics_json().to_json()),
        ("GET", _) => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                if let Some(ticket_str) = rest.strip_suffix("/journal") {
                    return match parse_ticket(ticket_str) {
                        Some(ticket) => stream_journal(&mut stream, state, ticket),
                        None => respond(
                            &mut stream,
                            "404 Not Found",
                            &[],
                            &error_body("malformed ticket"),
                        ),
                    };
                }
                return match parse_ticket(rest).and_then(|t| state.status_json(t)) {
                    Some(status) => respond(&mut stream, "200 OK", &[], &status.to_json()),
                    None => respond(
                        &mut stream,
                        "404 Not Found",
                        &[],
                        &error_body("unknown ticket"),
                    ),
                };
            }
            if let Some(rest) = path.strip_prefix("/store/") {
                return match parse_ticket(rest).and_then(|t| state.store().load_result(t)) {
                    Some(doc) => respond(&mut stream, "200 OK", &[], &doc.to_json()),
                    None => respond(
                        &mut stream,
                        "404 Not Found",
                        &[],
                        &error_body("no result for that ticket"),
                    ),
                };
            }
            respond(
                &mut stream,
                "404 Not Found",
                &[],
                &error_body("no such route"),
            )
        }
        _ => respond(
            &mut stream,
            "405 Method Not Allowed",
            &[],
            &error_body("unsupported method"),
        ),
    }
}

fn handle_submit(
    stream: &mut TcpStream,
    state: &Arc<ServiceState>,
    body: &[u8],
) -> std::io::Result<()> {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            return respond(
                stream,
                "400 Bad Request",
                &[],
                &error_body("body is not UTF-8"),
            );
        }
    };
    let doc = match json::parse(text) {
        Ok(d) => d,
        Err(e) => return respond(stream, "400 Bad Request", &[], &error_body(&e)),
    };
    let spec = match JobSpec::from_json(&doc) {
        Ok(s) => s,
        Err(e) => return respond(stream, "400 Bad Request", &[], &error_body(&e.to_string())),
    };
    let outcome = match state.submit(spec) {
        Ok(o) => o,
        Err(e) => {
            return respond(
                stream,
                "500 Internal Server Error",
                &[],
                &error_body(&format!("could not persist the request: {e}")),
            );
        }
    };
    let ticket_doc = |ticket: u64, status: &str| {
        JsonValue::obj(vec![
            ("ticket", JsonValue::Str(ticket_hex(ticket))),
            ("status", JsonValue::Str(status.to_owned())),
        ])
        .to_json()
    };
    match outcome {
        SubmitOutcome::Cached(t) => respond(stream, "200 OK", &[], &ticket_doc(t, "cached")),
        SubmitOutcome::Accepted(t) => {
            respond(stream, "202 Accepted", &[], &ticket_doc(t, "accepted"))
        }
        SubmitOutcome::InFlight(t) => {
            respond(stream, "202 Accepted", &[], &ticket_doc(t, "in-flight"))
        }
        SubmitOutcome::Busy { retry_after } => respond(
            stream,
            "429 Too Many Requests",
            &[("Retry-After", retry_after.to_string())],
            &error_body("queue full; retry after the hinted delay"),
        ),
        SubmitOutcome::Draining => respond(
            stream,
            "503 Service Unavailable",
            &[],
            &error_body("service is draining"),
        ),
    }
}

/// Streams a ticket's journal as a chunked JSONL body, polling the
/// worker's published prefix until the job reaches a terminal phase.
fn stream_journal(
    stream: &mut TcpStream,
    state: &Arc<ServiceState>,
    ticket: u64,
) -> std::io::Result<()> {
    if state.journal_tail(ticket, 0).is_none() {
        return respond(stream, "404 Not Found", &[], &error_body("unknown ticket"));
    }
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
          Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    )?;
    let mut sent = 0usize;
    let mut polls = 0usize;
    while let Some((tail, done)) = state.journal_tail(ticket, sent) {
        if !tail.is_empty() {
            write!(stream, "{:x}\r\n", tail.len())?;
            stream.write_all(tail.as_bytes())?;
            stream.write_all(b"\r\n")?;
            stream.flush()?;
            sent += tail.len();
        }
        if done && tail.is_empty() {
            break;
        }
        if !done {
            polls += 1;
            if polls > JOURNAL_POLL_CAP {
                break;
            }
            thread::sleep(Duration::from_millis(JOURNAL_POLL_MS));
        }
    }
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}
