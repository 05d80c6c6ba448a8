//! The `samurai-serve` daemon: deterministic simulation-as-a-service
//! over a content-addressed result store (DESIGN.md §15).
//!
//! Run with
//! `cargo run --release -p samurai-bench --bin serve -- --store DIR`;
//! the first stdout line reports the bound address (`--addr` defaults
//! to `127.0.0.1:0`, an ephemeral port, which is what `ci.sh`
//! scrapes). Stop it with `POST /admin/drain` — queued jobs finish
//! first — or kill it outright and restart on the same store: the
//! interrupted jobs resume from their checkpoint segments and their
//! journals come out byte-identical.

use std::path::PathBuf;
use std::process::ExitCode;

use samurai_bench::{handle_help, Flag};
use samurai_serve::{ResultStore, Server, ServerConfig, DEFAULT_CHUNK};

fn main() -> ExitCode {
    let Some(args) = handle_help(
        "serve",
        "deterministic simulation-as-a-service over a content-addressed store",
        &[Flag::Threads],
        &[
            (
                "--store DIR",
                "result-store directory (default target/store)",
            ),
            ("--addr HOST:PORT", "bind address (default 127.0.0.1:0)"),
            ("--workers N", "job-queue worker threads (default 2)"),
            (
                "--chunk N",
                "checkpoint/publish cadence in jobs (default 64)",
            ),
            ("--capacity N", "queue capacity before 429 (default 64)"),
        ],
    ) else {
        return ExitCode::SUCCESS;
    };
    let store_dir = args
        .value_of("--store")
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("SAMURAI_STORE").map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("target/store"));
    let addr = args.value_of("--addr").unwrap_or("127.0.0.1:0").to_owned();
    let parse = |flag: &str, default: usize| {
        args.value_of(flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let config = ServerConfig {
        workers: parse("--workers", 2).max(1),
        parallelism: args.parallelism(),
        chunk: parse("--chunk", DEFAULT_CHUNK).max(1),
        capacity: parse("--capacity", 64).max(1),
    };

    let store = match ResultStore::open(&store_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot open store {}: {e}", store_dir.display());
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(&addr, store, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        // This line is the startup contract: ci.sh scrapes the port.
        Ok(bound) => println!("listening on {bound}"),
        Err(e) => {
            eprintln!("serve: cannot resolve the bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "store {} | {} workers, chunk {}, capacity {}",
        store_dir.display(),
        config.workers,
        config.chunk,
        config.capacity
    );
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}
