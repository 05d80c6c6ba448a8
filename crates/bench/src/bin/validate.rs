//! CI gate for the JSON artifacts the workspace writes: parse each file
//! and run the schema validator for its kind, listing every violation.
//!
//! | kind         | documents                                            |
//! |--------------|------------------------------------------------------|
//! | `checkpoint` | `samurai-checkpoint-v2` crash-safety snapshots       |
//! | `graph`      | `samurai-lint --graph` call-graph dumps              |
//! | `metrics`    | `BENCH_*.json` telemetry summaries                   |
//! | `store`      | `samurai-request-v1` / `samurai-store-v1` documents  |
//!
//! Run with
//! `cargo run -p samurai-bench --bin validate -- <kind> <path>...`;
//! prints `<path>: ok` per valid file and exits non-zero if any file
//! fails, or if the kind is unknown.

use samurai_bench::{validate_bench_summary, validate_call_graph};
use samurai_core::checkpoint::validate_checkpoint;
use samurai_core::telemetry::json::{self, JsonValue};
use samurai_serve::validate_store_document;
use std::process::ExitCode;

const USAGE: &str = "usage: validate <checkpoint|graph|metrics|store> <path>...";

fn validate_file(path: &str, validator: fn(&JsonValue) -> Vec<String>) -> Result<(), Vec<String>> {
    let text =
        std::fs::read_to_string(path).map_err(|e| vec![format!("cannot read {path}: {e}")])?;
    let doc = json::parse(&text).map_err(|e| vec![format!("invalid JSON in {path}: {e}")])?;
    let errors = validator(&doc);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("validate — CI gate: schema-check workspace JSON artifacts\n\n{USAGE}");
        return ExitCode::SUCCESS;
    }
    let validator: fn(&JsonValue) -> Vec<String> = match args.first().map(String::as_str) {
        Some("checkpoint") => |doc| {
            validate_checkpoint(doc)
                .err()
                .into_iter()
                .map(str::to_owned)
                .collect()
        },
        Some("graph") => validate_call_graph,
        Some("metrics") => validate_bench_summary,
        Some("store") => validate_store_document,
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let paths = &args[1..];
    if paths.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in paths {
        match validate_file(path, validator) {
            Ok(()) => println!("{path}: ok"),
            Err(errors) => {
                failed = true;
                for error in errors {
                    eprintln!("{path}: {error}");
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
