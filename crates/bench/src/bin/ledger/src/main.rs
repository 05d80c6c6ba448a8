//! `ledger`: the SAMURAI performance ledger.
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! ledger run [--seed N] [--seconds S] [--trace] [--smoke] [--out DIR]
//! ledger compare BASE_DIR NEW_DIR
//! ```
//!
//! The first form runs one workload in this process and prints every
//! metric as `workload metric value unit`, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics of `BENCHMARK.json` with `--trace 0`, its
//! per-layer metrics with `--trace 1` (which also writes
//! `TRACE_<workload>.json` into `--out`, default `target/ledger`). `run`
//! runs every workload as its own child process and writes
//! `LEDGER_<workload>.json` there; it exits non-zero on any correctness
//! failure. `compare` applies the bounds of `BENCHMARK.json` to two
//! directory trees of ledgers. See README.md.

mod column;
mod compare;
mod harness;
mod tickets;
mod trace;
mod trap_validation;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use samurai_telemetry::{json, JsonValue};

use harness::{Catalogue, Ctx, Outcome, PINNED_SEED};
use trace::Tracer;

/// Where runs write ledgers, traces and scratch files.
const OUT_DIR: &str = "target/ledger";

/// Measured seconds of each smoke workload.
const SMOKE_SECONDS: f64 = 0.5;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledger --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]\n       \
         ledger run [--seed N] [--seconds S] [--trace] [--smoke] [--out DIR]\n       \
         ledger compare BASE_DIR NEW_DIR"
    );
    ExitCode::from(2)
}

/// The value after `flag`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(base), Some(new)) => match compare::compare(Path::new(base), Path::new(new)) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("ledger compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => usage(),
        },
        Some(_) => run_one(&args),
        None => usage(),
    }
}

/// Runs one workload in this process (the driver-facing form).
fn run_one(args: &[String]) -> ExitCode {
    let catalogue = Catalogue::load();
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flag(args, "--workload"),
        flag(args, "--seed").and_then(|s| s.parse::<u64>().ok()),
        flag(args, "--seconds").and_then(|s| s.parse::<f64>().ok()),
        flag(args, "--trace").and_then(|s| match s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    if !catalogue.workloads.iter().any(|w| w == workload) || seconds.is_nan() || seconds <= 0.0 {
        eprintln!("ledger: unknown workload `{workload}` or non-positive --seconds");
        return usage();
    }
    let out_dir = PathBuf::from(flag(args, "--out").unwrap_or(OUT_DIR));
    let ctx = Ctx {
        seed,
        seconds,
        smoke: args.iter().any(|a| a == "--smoke"),
        tracer: trace.then(Tracer::new),
        scratch: Path::new(OUT_DIR).join(format!("scratch-{workload}-{}", std::process::id())),
    };
    let (outcome, result) = measure(&catalogue, workload, &ctx);
    if let Some(t) = ctx.tracer() {
        let path = out_dir.join(format!("TRACE_{workload}.json"));
        let written = std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&path, t.chrome_json(workload).to_json() + "\n"));
        if let Err(e) = written {
            eprintln!("ledger: cannot write {}: {e}", path.display());
        }
    }
    for failure in &outcome.failures {
        eprintln!("ledger: {workload}: {failure}");
    }
    for decl in catalogue.reported(trace) {
        let value = result
            .get("metrics")
            .and_then(|m| m.get(&decl.name))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
            .unwrap_or(f64::NAN);
        println!("{workload} {} {value} {}", decl.name, decl.unit);
    }
    println!("digest {workload} {:016x}", outcome.digest);
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// Runs `workload` and renders the result object. Metrics a workload
/// does not exercise report 0 (per-layer only; a missing end-to-end
/// metric is a failure).
fn measure(catalogue: &Catalogue, workload: &str, ctx: &Ctx) -> (Outcome, JsonValue) {
    let _ = std::fs::create_dir_all(&ctx.scratch);
    let mut outcome = match workload {
        "trap_validation" => trap_validation::run(ctx),
        "column64_write" => column::run_column64(ctx),
        "corner_sweep" => column::run_corners(ctx),
        _ => tickets::run(ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    outcome.set("peak_rss_mb", harness::peak_rss_mb());
    let trace = ctx.tracer.is_some();
    let mut metrics = Vec::new();
    for decl in catalogue.reported(trace) {
        let value = match outcome.metrics.get(decl.name.as_str()) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                outcome.fail(format!("metric {} is not finite ({v})", decl.name));
                0.0
            }
            None if trace => 0.0,
            None => {
                outcome.fail(format!("metric {} was not measured", decl.name));
                0.0
            }
        };
        metrics.push((
            decl.name.clone(),
            JsonValue::obj(vec![
                ("value", JsonValue::F64(value)),
                ("unit", JsonValue::Str(decl.unit.clone())),
            ]),
        ));
    }
    let result = JsonValue::obj(vec![
        ("correct", JsonValue::Bool(outcome.failed == 0)),
        ("attempted", JsonValue::U64(outcome.attempted.max(1))),
        ("failed", JsonValue::U64(outcome.failed)),
        ("metrics", JsonValue::Obj(metrics)),
    ]);
    (outcome, result)
}

/// `ledger run`: every workload as its own child process.
fn run_all(args: &[String]) -> ExitCode {
    let catalogue = Catalogue::load();
    let smoke = args.iter().any(|a| a == "--smoke");
    let traced = args.iter().any(|a| a == "--trace");
    let seed = flag(args, "--seed")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(PINNED_SEED);
    let seconds = flag(args, "--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(if smoke {
            SMOKE_SECONDS
        } else {
            catalogue.run_seconds as f64
        });
    let out_dir = PathBuf::from(flag(args, "--out").unwrap_or(OUT_DIR));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("ledger run: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("ledger run: cannot locate the ledger executable");
        return ExitCode::from(2);
    };
    let mut all_correct = true;
    for workload in &catalogue.workloads {
        let mut ledger = vec![
            ("workload", JsonValue::Str(workload.clone())),
            ("seed", JsonValue::U64(seed)),
            ("seconds", JsonValue::F64(seconds)),
            ("smoke", JsonValue::Bool(smoke)),
        ];
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            let mut child = Command::new(&exe);
            child.args(["--workload", workload, "--seed", &seed.to_string()]);
            child.args(["--seconds", &seconds.to_string()]);
            child.args(["--trace", if trace { "1" } else { "0" }]);
            child.arg("--out").arg(&out_dir);
            if smoke {
                child.arg("--smoke");
            }
            let result = child.output().map_err(|e| e.to_string()).and_then(|o| {
                let stdout = String::from_utf8_lossy(&o.stdout).into_owned();
                eprint!("{}", String::from_utf8_lossy(&o.stderr));
                for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                    println!("{line}");
                }
                let last = stdout.lines().last().unwrap_or("").to_owned();
                json::parse(&last).map(|doc| (doc, stdout))
            });
            let (doc, stdout) = match result {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ledger run: {workload}: no result ({e})");
                    all_correct = false;
                    continue;
                }
            };
            all_correct &= matches!(doc.get("correct"), Some(JsonValue::Bool(true)));
            if !trace {
                for key in ["correct", "attempted", "failed"] {
                    if let Some(v) = doc.get(key) {
                        ledger.push((key, v.clone()));
                    }
                }
                let digest = stdout
                    .lines()
                    .find_map(|l| l.strip_prefix(&format!("digest {workload} ")))
                    .unwrap_or("");
                ledger.push(("digest", JsonValue::Str(digest.to_owned())));
            }
            let key = if trace { "per_layer" } else { "metrics" };
            ledger.push((key, doc.get("metrics").cloned().unwrap_or(JsonValue::Null)));
        }
        let path = out_dir.join(format!("LEDGER_{workload}.json"));
        if let Err(e) = std::fs::write(&path, JsonValue::obj(ledger).to_json() + "\n") {
            eprintln!("ledger run: cannot write {}: {e}", path.display());
            all_correct = false;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger run: correctness failures (see above)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::time::Instant;

    fn smoke_ctx(name: &str, trace: bool) -> Ctx {
        Ctx {
            seed: 7,
            seconds: SMOKE_SECONDS,
            smoke: true,
            tracer: trace.then(Tracer::new),
            scratch: Path::new(OUT_DIR).join(format!("test-{name}-{trace}")),
        }
    }

    #[test]
    fn metric_names_are_plain() {
        let catalogue = Catalogue::load();
        let names: Vec<&str> = catalogue
            .end_to_end
            .iter()
            .chain(&catalogue.per_layer)
            .map(|d| d.name.as_str())
            .chain(catalogue.workloads.iter().map(String::as_str))
            .collect();
        for name in &names {
            assert!(
                !name.is_empty()
                    && name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "bad name {name:?}"
            );
        }
        let unique: BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "names repeat");
        assert!(catalogue
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(harness::pct(&v, 0.5), 5.0);
        assert_eq!(harness::pct(&v, 0.25), 3.0);
        assert_eq!(harness::pct(&v, 0.95), 10.0);
        assert_eq!(
            harness::median(&v),
            samurai_telemetry::percentile(&harness::sorted(&v), 0.5)
        );
        assert_eq!(compare::spread(&[1.0, 1.0, 1.0, 1.0]), 0.0);
        assert_eq!(
            compare::verdict(&[1.0, 1.01, 0.99], &[1.5, 1.51, 1.49], 0.1, true),
            compare::Verdict::Worse
        );
        assert_eq!(
            compare::verdict(&[1.0, 2.0, 3.0, 4.0], &[1.0, 2.5, 3.0, 4.0], 0.1, true),
            compare::Verdict::Unresolved
        );
    }

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let a = tickets::schedule(3, 20.0, false);
        assert_eq!(a, tickets::schedule(3, 20.0, false));
        assert_ne!(a, tickets::schedule(4, 20.0, false));
        // A longer window extends the schedule without changing its
        // prefix, so the digest over the first tickets is stable.
        let longer = tickets::schedule(3, 30.0, false);
        assert_eq!(&longer[..a.len()], &a[..]);
        // Mix and resubmissions are dealt from decks: exact shares up to
        // the one unfinished deck.
        let resubmits = a.iter().filter(|x| !x.fresh).count();
        assert!(
            resubmits.abs_diff(a.len() / 5) <= 2,
            "{resubmits} of {}",
            a.len()
        );
        let fresh = a.len() - resubmits;
        let traps = a
            .iter()
            .filter(|x| x.fresh && matches!(x.spec.workload, samurai_serve::Workload::Trap { .. }))
            .count();
        assert!(
            traps.abs_diff(fresh * 3 / 5) <= 12,
            "{traps} traps of {fresh}"
        );
    }

    #[test]
    fn smoke_emits_the_declared_metrics_and_tracing_keeps_digests() {
        let catalogue = Catalogue::load();
        let start = Instant::now();
        for workload in &catalogue.workloads {
            let mut digests = Vec::new();
            for trace in [false, true] {
                let ctx = smoke_ctx(workload, trace);
                let (outcome, result) = measure(&catalogue, workload, &ctx);
                assert!(
                    outcome.failures.is_empty(),
                    "{workload}: {:?}",
                    outcome.failures
                );
                let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
                    panic!("{workload}: no metrics");
                };
                let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                let want: Vec<&str> = catalogue
                    .reported(trace)
                    .iter()
                    .map(|d| d.name.as_str())
                    .collect();
                assert_eq!(got, want, "{workload} trace={trace}");
                digests.push(outcome.digest);
            }
            assert_eq!(
                digests[0], digests[1],
                "{workload}: tracing changed the journal"
            );
        }
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed < 10.0, "smoke pass took {elapsed:.1} s");
    }
}
