//! End-to-end HTTP contract of the service: a real `Server` on an
//! ephemeral port, driven through raw `TcpStream` requests.
//!
//! The acceptance gates of the service live here:
//!
//! * the streamed journal of a completed ticket is byte-identical to
//!   running the same spec directly through
//!   `run_ensemble_resilient_observed` at 1, 2 and 8 workers;
//! * a second identical submission is answered from the store without
//!   executing any jobs (the cache-hit counter moves, the
//!   jobs-accepted counter does not);
//! * a hostile body or request head is answered `400` and the server
//!   keeps serving;
//! * a client stalled mid-request does not hold up the next one.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use samurai_core::telemetry::Recorder;
use samurai_core::Parallelism;
use samurai_serve::{run_direct, JobSpec, ResultStore, Server, ServerConfig, Workload};
use samurai_telemetry::{json, JsonValue};

fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let payload = body.unwrap_or("");
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    )
    .unwrap();
    writer.flush().unwrap();

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let mut chunked = false;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if header.to_ascii_lowercase().contains("transfer-encoding")
            && header.to_ascii_lowercase().contains("chunked")
        {
            chunked = true;
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line).unwrap();
            let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
            if size == 0 {
                break;
            }
            let mut chunk = vec![0u8; size + 2];
            reader.read_exact(&mut chunk).unwrap();
            chunk.truncate(size);
            body.extend_from_slice(&chunk);
        }
    } else {
        reader.read_to_end(&mut body).unwrap();
    }
    (status, String::from_utf8(body).unwrap())
}

fn spec() -> JobSpec {
    JobSpec {
        workload: Workload::Trap {
            panels: 6,
            samples: 1024,
        },
        seed: 42,
        policy: samurai_core::FailurePolicy::FailFast,
        scenario: None,
        drill: None,
    }
}

fn poll_done(addr: &str, ticket: &str) {
    for _ in 0..500 {
        let (status, body) = request(addr, "GET", &format!("/jobs/{ticket}"), None);
        assert_eq!(status, 200, "status route must know the ticket");
        let doc = json::parse(&body).unwrap();
        match doc.get("phase").and_then(JsonValue::as_str) {
            Some("done") => return,
            Some("failed") => panic!("job failed: {body}"),
            _ => thread::sleep(Duration::from_millis(20)),
        }
    }
    panic!("job did not complete in time");
}

#[test]
fn journal_stream_matches_direct_runs_and_cache_hits_run_nothing() {
    let dir = std::env::temp_dir().join(format!("samurai-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(
        "127.0.0.1:0",
        ResultStore::open(&dir).unwrap(),
        ServerConfig {
            workers: 2,
            parallelism: Parallelism::Fixed(2),
            chunk: 2, // several checkpointed slices over 6 jobs
            capacity: 8,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || server.run().unwrap());

    // Submit and run to completion.
    let body = spec().canonical_payload().to_json();
    let (status, text) = request(&addr, "POST", "/jobs", Some(&body));
    assert_eq!(status, 202, "fresh spec must be accepted: {text}");
    let doc = json::parse(&text).unwrap();
    let ticket = doc
        .get("ticket")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_owned();
    assert_eq!(
        doc.get("status").and_then(JsonValue::as_str),
        Some("accepted")
    );
    poll_done(&addr, &ticket);

    // The streamed journal is byte-identical to direct engine runs at
    // 1, 2 and 8 workers.
    let (status, streamed) = request(&addr, "GET", &format!("/jobs/{ticket}/journal"), None);
    assert_eq!(status, 200);
    assert!(!streamed.is_empty());
    for workers in [1, 2, 8] {
        let mut recorder = Recorder::recording();
        run_direct(&spec(), Parallelism::Fixed(workers), &mut recorder).unwrap();
        assert_eq!(
            streamed,
            recorder.journal().to_jsonl(),
            "journal must be byte-identical to a direct run at {workers} workers"
        );
    }

    // The stored result document is fetchable and carries the journal.
    let (status, stored) = request(&addr, "GET", &format!("/store/{ticket}"), None);
    assert_eq!(status, 200);
    let stored = json::parse(&stored).unwrap();
    assert_eq!(
        stored
            .get("payload")
            .and_then(|p| p.get("journal"))
            .and_then(JsonValue::as_str),
        Some(streamed.as_str())
    );

    // Resubmitting is a pure cache hit: 200 (not 202), the cache-hit
    // counter moves and no new job is accepted or executed.
    let (status, text) = request(&addr, "POST", "/jobs", Some(&body));
    assert_eq!(status, 200, "identical spec must be served from cache");
    let doc = json::parse(&text).unwrap();
    assert_eq!(
        doc.get("status").and_then(JsonValue::as_str),
        Some("cached")
    );
    assert_eq!(
        doc.get("ticket").and_then(JsonValue::as_str),
        Some(ticket.as_str())
    );
    let (status, metrics) = request(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let metrics = json::parse(&metrics).unwrap();
    assert_eq!(
        metrics.get("serve.cache_hit").and_then(JsonValue::as_u64),
        Some(1),
        "one cache hit: {metrics:?}"
    );
    assert_eq!(
        metrics
            .get("serve.jobs_accepted")
            .and_then(JsonValue::as_u64),
        Some(1),
        "the resubmission must not enqueue a second job"
    );
    assert_eq!(
        metrics
            .get("serve.jobs_completed")
            .and_then(JsonValue::as_u64),
        Some(1),
        "the resubmission must not execute anything"
    );

    // Unknown tickets 404; malformed specs 400.
    let (status, _) = request(&addr, "GET", "/jobs/0000000000000000", None);
    assert_eq!(status, 404);
    let (status, _) = request(&addr, "POST", "/jobs", Some("{\"seed\":1}"));
    assert_eq!(status, 400);

    // Drain shuts the server down cleanly.
    let (status, _) = request(&addr, "POST", "/admin/drain", None);
    assert_eq!(status, 200);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A body nested past the JSON parser's depth limit is a `400`, not a
/// stack overflow that takes the whole server down: the next request
/// on a new connection is still answered.
#[test]
fn a_deeply_nested_body_is_rejected_and_the_server_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("samurai-serve-deep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(
        "127.0.0.1:0",
        ResultStore::open(&dir).unwrap(),
        ServerConfig {
            workers: 1,
            parallelism: Parallelism::Fixed(1),
            chunk: 2,
            capacity: 2,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || server.run().unwrap());

    const MIB: usize = 1 << 20;
    for body in ["[".repeat(MIB), "{\"a\":".repeat(MIB / 5)] {
        let (status, text) = request(&addr, "POST", "/jobs", Some(&body));
        assert_eq!(status, 400, "{text}");
        assert!(text.contains("nesting deeper than"), "{text}");
        let (status, _) = request(&addr, "GET", "/metrics", None);
        assert_eq!(status, 200, "the server must survive the hostile body");
    }

    let (status, _) = request(&addr, "POST", "/admin/drain", None);
    assert_eq!(status, 200);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// How long the client waits for an answer to a hostile head. Shorter
/// than the server's 10 s read timeout, so a server that keeps reading
/// an endless head fails the test here instead of answering late.
const CLIENT_DEADLINE: Duration = Duration::from_secs(5);

/// Sends `head` on one fresh connection and returns the status code of
/// the answer, or `None` if none arrives before `deadline`. The server
/// may answer and close while the head is still being written, so a
/// failed write (a reset) ends the sending, not the test.
fn status_for_head(addr: &str, head: &[u8], deadline: Duration) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(deadline)).unwrap();
    stream.set_write_timeout(Some(deadline)).unwrap();
    for piece in head.chunks(4096) {
        if stream.write_all(piece).is_err() {
            break;
        }
    }
    let mut answer = Vec::new();
    let mut buf = [0u8; 1024];
    while !answer.contains(&b'\n') {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => answer.extend_from_slice(&buf[..n]),
        }
    }
    let answer = String::from_utf8_lossy(&answer);
    answer.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn an_oversized_request_head_is_rejected_and_the_server_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("samurai-serve-head-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(
        "127.0.0.1:0",
        ResultStore::open(&dir).unwrap(),
        ServerConfig {
            workers: 1,
            parallelism: Parallelism::Fixed(1),
            chunk: 2,
            capacity: 2,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || server.run().unwrap());

    // A 64 KiB request line that never ends.
    let endless_line = format!("GET /{}", "a".repeat(64 << 10));
    // 10 000 short headers on a request that would otherwise be valid.
    let mut many_headers = String::from("GET /metrics HTTP/1.1\r\n");
    for i in 0..10_000 {
        many_headers.push_str(&format!("X-Filler-{i:05}: x\r\n"));
    }
    many_headers.push_str("\r\n");

    for (case, head) in [
        ("endless line", endless_line),
        ("10 000 headers", many_headers),
    ] {
        assert_eq!(
            status_for_head(&addr, head.as_bytes(), CLIENT_DEADLINE),
            Some(400),
            "{case}"
        );
        let (status, _) = request(&addr, "GET", "/metrics", None);
        assert_eq!(status, 200, "the server must survive the {case}");
    }

    let (status, _) = request(&addr, "POST", "/admin/drain", None);
    assert_eq!(status, 200);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// How long a second client waits for `/metrics` while another client
/// stalls mid-request line: well inside the server's 10 s read
/// timeout, so a server that reads one connection at a time fails.
const STALL_DEADLINE: Duration = Duration::from_secs(2);

/// A client that sends half a request line and then stalls must not
/// hold up the accept loop: while it stays connected, a second
/// client's `GET /metrics` is answered.
#[test]
fn a_stalled_client_does_not_hold_up_the_next_one() {
    let dir = std::env::temp_dir().join(format!("samurai-serve-stall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(
        "127.0.0.1:0",
        ResultStore::open(&dir).unwrap(),
        ServerConfig {
            workers: 1,
            parallelism: Parallelism::Fixed(1),
            chunk: 2,
            capacity: 2,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || server.run().unwrap());

    let mut stalled = TcpStream::connect(&addr).unwrap();
    stalled.write_all(b"GET /metr").unwrap();
    let head = b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n";
    assert_eq!(status_for_head(&addr, head, STALL_DEADLINE), Some(200));
    drop(stalled);

    let (status, _) = request(&addr, "POST", "/admin/drain", None);
    assert_eq!(status, 200);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
