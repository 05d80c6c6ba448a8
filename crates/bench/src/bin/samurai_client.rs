//! `samurai-client`: the command-line companion of the `serve` daemon
//! (DESIGN.md §15) — a dependency-free HTTP/1.1 client over
//! `std::net::TcpStream`.
//!
//! ```text
//! samurai-client submit  --addr H:P --spec trap:8:4096 [--seed N] [--failure-policy SPEC] [--kill-at-job N]
//! samurai-client status  --addr H:P --ticket HEX
//! samurai-client journal --addr H:P --ticket HEX     # streams JSONL to stdout
//! samurai-client result  --addr H:P --ticket HEX
//! samurai-client metrics --addr H:P
//! samurai-client drain   --addr H:P
//! ```
//!
//! `submit` prints `ticket=<hex> status=<cached|accepted|in-flight>`
//! on success, so shell scripts (`ci.sh`'s service gate) can capture
//! the ticket with a `sed` one-liner. `journal` de-chunks the
//! streaming response and relays the raw JSONL bytes, which makes
//! `samurai-client journal > run.jsonl` directly comparable with a
//! local `JOURNAL_*.jsonl` artifact.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;

use samurai_bench::{handle_help, BenchArgs, Flag};
use samurai_core::telemetry::{json, JsonValue};
use samurai_serve::{parse_ticket, JobSpec, Workload};

fn fail(message: &str) -> ExitCode {
    eprintln!("samurai-client: {message}");
    ExitCode::FAILURE
}

/// One HTTP exchange: sends the request, returns (status-code, body).
/// Chunked bodies are de-chunked; otherwise the body is read to EOF
/// (the server always closes the connection).
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<(u16, String), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let payload = body.unwrap_or("");
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    )
    .map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| e.to_string())?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {status_line:?}"))?;
    let mut chunked = false;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).map_err(|e| e.to_string())?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            reader
                .read_line(&mut size_line)
                .map_err(|e| e.to_string())?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| format!("malformed chunk size: {size_line:?}"))?;
            if size == 0 {
                break;
            }
            let mut chunk = vec![0u8; size + 2];
            reader.read_exact(&mut chunk).map_err(|e| e.to_string())?;
            chunk.truncate(size);
            body.extend_from_slice(&chunk);
        }
    } else {
        reader.read_to_end(&mut body).map_err(|e| e.to_string())?;
    }
    String::from_utf8(body)
        .map(|text| (status, text))
        .map_err(|_| "response body is not UTF-8".to_owned())
}

/// Parses `--spec trap:PANELS[:SAMPLES] | cell:MEMBERS | column:ROWS:MEMBERS`.
fn workload_from_spec(spec: &str) -> Result<Workload, String> {
    let mut parts = spec.split(':');
    let kind = parts.next().unwrap_or("");
    let mut num = |what: &str| -> Result<usize, String> {
        parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("--spec {kind}: missing or bad {what}"))
    };
    match kind {
        "trap" => {
            let panels = num("panels")?;
            let samples = num("samples").unwrap_or(4096);
            Ok(Workload::Trap { panels, samples })
        }
        "cell" => Ok(Workload::Cell {
            members: num("members")?,
        }),
        "column" => Ok(Workload::Column {
            rows: num("rows")?,
            members: num("members")?,
        }),
        other => Err(format!("unknown --spec kind `{other}` (trap/cell/column)")),
    }
}

fn submit(addr: &str, args: &BenchArgs) -> ExitCode {
    let Some(spec_text) = args.value_of("--spec") else {
        return fail("submit needs --spec trap:P[:S] | cell:M | column:R:M");
    };
    let workload = match workload_from_spec(spec_text) {
        Ok(w) => w,
        Err(e) => return fail(&e),
    };
    let seed = args
        .value_of("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let spec = JobSpec {
        workload,
        seed,
        policy: args.failure_policy(),
        scenario: None,
        drill: None,
    };
    let mut payload = spec.canonical_payload();
    // --kill-at-job is one of the shared crash-safety flags, so the
    // shared parser owns it; fetch it from the parsed controls rather
    // than the bin-specific leftovers.
    let drill = args.run_controls().kill_at_job;
    if let (Some(job), JsonValue::Obj(members)) = (drill, &mut payload) {
        members.push((
            "drill".to_owned(),
            JsonValue::obj(vec![("kill_at_job", JsonValue::U64(job as u64))]),
        ));
    }
    match http(addr, "POST", "/jobs", Some(&payload.to_json())) {
        Ok((status, body)) if (200..300).contains(&status) => {
            let doc = json::parse(&body).unwrap_or(JsonValue::Null);
            let ticket = doc.get("ticket").and_then(JsonValue::as_str).unwrap_or("?");
            let state = doc.get("status").and_then(JsonValue::as_str).unwrap_or("?");
            println!("ticket={ticket} status={state}");
            ExitCode::SUCCESS
        }
        Ok((status, body)) => fail(&format!("submit got HTTP {status}: {body}")),
        Err(e) => fail(&e),
    }
}

fn get(addr: &str, path: &str) -> ExitCode {
    match http(addr, "GET", path, None) {
        Ok((status, body)) if (200..300).contains(&status) => {
            print!("{body}");
            if !body.ends_with('\n') {
                println!();
            }
            ExitCode::SUCCESS
        }
        Ok((status, body)) => fail(&format!("GET {path} got HTTP {status}: {body}")),
        Err(e) => fail(&e),
    }
}

fn ticket_path(args: &BenchArgs, template: &str) -> Result<String, String> {
    let ticket = args
        .value_of("--ticket")
        .ok_or("missing --ticket HEX".to_owned())?;
    if parse_ticket(ticket).is_none() {
        return Err(format!("malformed ticket `{ticket}` (16 hex digits)"));
    }
    Ok(template.replace("{}", ticket))
}

fn main() -> ExitCode {
    let Some(args) = handle_help(
        "samurai-client",
        "command-line client of the serve daemon",
        &[Flag::FailurePolicy, Flag::KillAtJob],
        &[
            (
                "submit|status|journal|result|metrics|drain",
                "the action (first argument)",
            ),
            ("--addr HOST:PORT", "server address (required)"),
            (
                "--spec trap:P[:S]|cell:M|column:R:M",
                "workload, for submit",
            ),
            ("--seed N", "ensemble master seed (default 1)"),
            ("--ticket HEX", "job ticket, for status/journal/result"),
        ],
    ) else {
        return ExitCode::SUCCESS;
    };
    let Some(command) = args.rest().first().map(String::as_str) else {
        return fail("missing command (submit/status/journal/result/metrics/drain); see --help");
    };
    let Some(addr) = args.value_of("--addr") else {
        return fail("missing --addr HOST:PORT");
    };
    match command {
        "submit" => submit(addr, &args),
        "status" => match ticket_path(&args, "/jobs/{}") {
            Ok(path) => get(addr, &path),
            Err(e) => fail(&e),
        },
        "journal" => match ticket_path(&args, "/jobs/{}/journal") {
            Ok(path) => get(addr, &path),
            Err(e) => fail(&e),
        },
        "result" => match ticket_path(&args, "/store/{}") {
            Ok(path) => get(addr, &path),
            Err(e) => fail(&e),
        },
        "metrics" => get(addr, "/metrics"),
        "drain" => match http(addr, "POST", "/admin/drain", None) {
            Ok((status, body)) if (200..300).contains(&status) => {
                print!("{body}");
                println!();
                ExitCode::SUCCESS
            }
            Ok((status, body)) => fail(&format!("drain got HTTP {status}: {body}")),
            Err(e) => fail(&e),
        },
        other => fail(&format!("unknown command `{other}`; see --help")),
    }
}
