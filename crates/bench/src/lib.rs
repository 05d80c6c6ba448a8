//! Shared plumbing for the figure-regeneration binaries and the
//! Criterion benchmarks.
//!
//! Each binary `figN_*` / `xN_*` regenerates one evaluation artifact of
//! the paper (see DESIGN.md §4): it prints a human-readable summary and
//! writes the underlying series as CSV into [`figures_dir`]
//! (`target/figures/` by default).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use samurai_core::checkpoint::{CheckpointConfig, RunBudget};
use samurai_core::telemetry::{JobRecord, JsonValue, Recorder, SolverStats, TrapStats};
use samurai_core::{FailurePolicy, FaultPlan, Parallelism};

/// One of the command-line flags the bench binaries share, named after
/// its spelling (`CheckpointEvery` is `--checkpoint-every`). Each
/// binary names the ones it honours when it calls [`handle_help`];
/// `--help` lists only those, and any other shared flag is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    Threads,
    FailurePolicy,
    Checkpoint,
    CheckpointEvery,
    Resume,
    MaxJobs,
    KillAtJob,
    Metrics,
    Smoke,
}

impl Flag {
    /// Every shared flag, in `--help` order.
    pub const ALL: [Flag; 9] = [
        Flag::Threads,
        Flag::FailurePolicy,
        Flag::Checkpoint,
        Flag::CheckpointEvery,
        Flag::Resume,
        Flag::MaxJobs,
        Flag::KillAtJob,
        Flag::Metrics,
        Flag::Smoke,
    ];

    /// The flag as spelled on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.help().0.split(' ').next().unwrap_or_default()
    }

    /// The flag's `--help` line: its usage and what it does.
    fn help(self) -> (&'static str, &'static str) {
        match self {
            Flag::Threads => ("--threads N", "worker threads (0/absent = all cores)"),
            Flag::FailurePolicy => (
                "--failure-policy SPEC",
                "fail-fast | retry[:RUNGS] | quarantine[:MAX[:RUNGS]]",
            ),
            Flag::Checkpoint => ("--checkpoint PATH", "snapshot ensemble progress into PATH"),
            Flag::CheckpointEvery => (
                "--checkpoint-every N",
                "snapshot cadence in jobs (default 64)",
            ),
            Flag::Resume => ("--resume", "restore a matching snapshot before running"),
            Flag::MaxJobs => ("--max-jobs N", "stop cleanly after at most N jobs"),
            Flag::KillAtJob => (
                "--kill-at-job N",
                "crash drill: the run exits 86 just before job N",
            ),
            Flag::Metrics => (
                "--metrics DIR",
                "write BENCH_*.json / JOURNAL_*.jsonl into DIR",
            ),
            Flag::Smoke => (
                "--smoke",
                "shrink the workload to a seconds-scale sanity pass",
            ),
        }
    }
}

/// Every command-line flag the bench binaries share, parsed in one
/// pass: each binary calls [`BenchArgs::from_env`] once and asks the
/// struct for everything, including bin-specific flags via
/// [`BenchArgs::value_of`].
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// The shared flags given, in order, each with its value (`None`
    /// for a switch or a missing value).
    shared: Vec<(Flag, Option<String>)>,
    help: bool,
    rest: Vec<String>,
}

impl BenchArgs {
    /// Parses the process's command line (skipping the binary name).
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// The parser behind [`BenchArgs::from_env`], split out for
    /// testing. Both `--flag VALUE` and `--flag=VALUE` spellings are
    /// accepted; unrecognised arguments are kept (in order) for
    /// bin-specific lookup via [`BenchArgs::value_of`].
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let head = arg.split_once('=').map_or(arg.as_str(), |(head, _)| head);
            if matches!(head, "--help" | "-h") {
                out.help = true;
                continue;
            }
            let Some(flag) = Flag::ALL.into_iter().find(|f| f.name() == head) else {
                out.rest.push(arg);
                continue;
            };
            let value = match arg.split_once('=') {
                Some((_, v)) => Some(v.to_owned()),
                None if flag.help().0.contains(' ') => args.next(),
                None => None,
            };
            out.shared.push((flag, value));
        }
        out
    }

    /// The value of the last `flag` given, parsed as `T`; `None` when
    /// the flag is absent, has no value or does not parse.
    fn value<T: std::str::FromStr>(&self, flag: Flag) -> Option<T> {
        let (_, value) = self.shared.iter().rev().find(|(f, _)| *f == flag)?;
        value.as_deref()?.parse().ok()
    }

    /// Whether `flag` was given at all.
    fn given(&self, flag: Flag) -> bool {
        self.shared.iter().any(|(f, _)| *f == flag)
    }

    /// The first shared flag on the command line that is not among
    /// `honoured`, if any.
    #[must_use]
    pub fn refused(&self, honoured: &[Flag]) -> Option<Flag> {
        let mut given = self.shared.iter().map(|(f, _)| *f);
        given.find(|f| !honoured.contains(f))
    }

    /// The `--threads N` knob: `N = 0` (or an absent flag) means all
    /// available cores, `N = 1` the legacy sequential path. Results are
    /// bit-identical at every setting — the ensemble engine guarantees
    /// it — so this knob trades wall-clock only.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        match self.value(Flag::Threads) {
            None | Some(0) => Parallelism::Auto,
            Some(n) => Parallelism::Fixed(n),
        }
    }

    /// The `--failure-policy SPEC` knob, `fail-fast` when absent.
    ///
    /// `SPEC` is one of:
    ///
    /// * `fail-fast` — abort on the first failed job (the default);
    /// * `retry` or `retry:RUNGS` — climb the rescue ladder per failing
    ///   job (`RUNGS` defaults to 2);
    /// * `quarantine`, `quarantine:MAX` or `quarantine:MAX:RUNGS` —
    ///   retry, then drop up to `MAX` irrecoverable jobs (default 1)
    ///   from the statistics.
    ///
    /// Results under every policy are bit-identical at every worker
    /// count; unparsable specs fall back to `fail-fast` rather than
    /// aborting a long run over a typo'd diagnostic knob.
    #[must_use]
    pub fn failure_policy(&self) -> FailurePolicy {
        let spec: Option<String> = self.value(Flag::FailurePolicy);
        parse_failure_policy(spec.as_deref().unwrap_or("fail-fast"))
    }

    /// The crash-safety knobs shared by the ensemble binaries:
    ///
    /// * `--checkpoint PATH` — snapshot ensemble progress into `PATH`
    ///   (atomically, after every completed segment); `PATH`'s
    ///   directory is created here, and one that cannot be created
    ///   ends the process with status 2, naming the path;
    /// * `--checkpoint-every N` — snapshot cadence in jobs (default 64);
    /// * `--resume` — restore a matching snapshot at `PATH` before
    ///   running; an invalid or foreign snapshot degrades to a cold
    ///   start with a journaled note;
    /// * `--max-jobs N` — stop cleanly after at most `N` jobs and
    ///   report a `Truncated` completion;
    /// * `--kill-at-job N` — the crash drill used by `ci.sh`.
    #[must_use]
    pub fn run_controls(&self) -> RunControlArgs {
        let mut checkpoint = match self.value::<PathBuf>(Flag::Checkpoint) {
            Some(p) => {
                if let Err(message) = create_checkpoint_dir(&p) {
                    eprintln!("{message}");
                    std::process::exit(2);
                }
                CheckpointConfig::to_file(p)
            }
            None => CheckpointConfig::default(),
        };
        if let Some(n) = self.value(Flag::CheckpointEvery) {
            checkpoint = checkpoint.every(n);
        }
        if self.given(Flag::Resume) {
            checkpoint = checkpoint.resuming();
        }
        let mut budget = RunBudget::unlimited();
        if let Some(n) = self.value(Flag::MaxJobs) {
            budget = budget.jobs(n);
        }
        RunControlArgs {
            checkpoint,
            budget,
            kill_at_job: self.value(Flag::KillAtJob),
        }
    }

    /// The `--metrics DIR` knob. `None` means telemetry artifacts are
    /// not written.
    #[must_use]
    pub fn metrics_dir(&self) -> Option<PathBuf> {
        self.value(Flag::Metrics)
    }

    /// `true` when `--smoke` was given: binaries shrink their workloads
    /// to a seconds-scale sanity pass (used by `ci.sh` to validate the
    /// telemetry pipeline end to end).
    #[must_use]
    pub fn smoke(&self) -> bool {
        self.given(Flag::Smoke)
    }

    /// `true` when `--help` or `-h` was given.
    #[must_use]
    pub fn wants_help(&self) -> bool {
        self.help
    }

    /// Looks up a bin-specific `--flag VALUE` / `--flag=VALUE` among
    /// the arguments the shared parser did not recognise.
    #[must_use]
    pub fn value_of(&self, flag: &str) -> Option<&str> {
        let mut rest = self.rest.iter();
        let mut found = None;
        while let Some(arg) = rest.next() {
            if arg == flag {
                found = rest.next().map(String::as_str);
            } else if let Some(v) = arg.strip_prefix(flag).and_then(|t| t.strip_prefix('=')) {
                found = Some(v);
            }
        }
        found
    }

    /// The arguments the shared parser did not recognise, in order.
    #[must_use]
    pub fn rest(&self) -> &[String] {
        &self.rest
    }
}

/// Parses a bench binary's command line, once, with
/// [`BenchArgs::from_env`], and screens it against the shared flags the
/// binary `honours`. On `--help`/`-h` it prints [`usage`] and returns
/// `None`, in which case the binary should exit immediately. A shared
/// flag the binary does not honour ends the process with status 2 and
/// a message naming the flag, so a flag is never silently ignored.
#[must_use]
pub fn handle_help(
    bin: &str,
    about: &str,
    honoured: &[Flag],
    extra: &[(&str, &str)],
) -> Option<BenchArgs> {
    let args = BenchArgs::from_env();
    if args.wants_help() {
        print!("{}", usage(bin, about, honoured, extra));
        return None;
    }
    if let Some(flag) = args.refused(honoured) {
        eprintln!(
            "{bin}: {} is not supported by this binary (see --help)",
            flag.name()
        );
        std::process::exit(2);
    }
    Some(args)
}

/// The `--help` text of `bin`: its `extra` bin-specific flag lines,
/// then the shared flags it `honours`, then `--help` itself.
#[must_use]
pub fn usage(bin: &str, about: &str, honoured: &[Flag], extra: &[(&str, &str)]) -> String {
    let mut text = format!("{bin} — {about}\n\nusage: {bin} [flags]\n\n");
    let shared = Flag::ALL.into_iter().filter(|f| honoured.contains(f));
    let shared = shared.map(|f| -> (&str, &str) { f.help() });
    for (flag, what) in extra.iter().copied().chain(shared) {
        text += &format!("  {flag:<28} {what}\n");
    }
    text += &format!("  {:<28} this text\n", "--help, -h");
    text += "\nSAMURAI_FIGURES_DIR overrides where the figure CSVs go.\n";
    text
}

/// Creates the directory a `--checkpoint PATH` snapshot is written
/// into: a snapshot writer does not create directories, so a run into
/// a fresh one would otherwise snapshot nothing. The error names
/// `path`.
fn create_checkpoint_dir(path: &Path) -> Result<(), String> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => fs::create_dir_all(dir).map_err(|e| {
            format!(
                "--checkpoint {}: cannot create its directory {}: {e}",
                path.display(),
                dir.display()
            )
        }),
        _ => Ok(()),
    }
}

/// The parser behind [`BenchArgs::failure_policy`], split out for
/// testing.
pub fn parse_failure_policy(spec: &str) -> FailurePolicy {
    let mut parts = spec.split(':');
    let head = parts.next().unwrap_or("");
    let first: Option<usize> = parts.next().and_then(|v| v.parse().ok());
    let second: Option<usize> = parts.next().and_then(|v| v.parse().ok());
    match head {
        "retry" => FailurePolicy::Retry {
            rungs: first.unwrap_or(2),
        },
        "quarantine" => FailurePolicy::Quarantine {
            rungs: second.unwrap_or(2),
            max_failures: first.unwrap_or(1),
        },
        _ => FailurePolicy::FailFast,
    }
}

/// Crash-safety knobs parsed from a binary's command line by
/// [`BenchArgs::run_controls`].
#[derive(Debug, Clone, Default)]
pub struct RunControlArgs {
    /// Snapshot configuration assembled from `--checkpoint PATH`,
    /// `--checkpoint-every N` and `--resume`.
    pub checkpoint: CheckpointConfig,
    /// Deterministic work ceiling from `--max-jobs N`.
    pub budget: RunBudget,
    /// Crash drill: `--kill-at-job N` makes the run exit with
    /// [`samurai_core::KILL_EXIT`] just before job `N` starts, after
    /// the latest checkpoint is on disk; [`RunControlArgs::faults`] is
    /// its fault plan.
    pub kill_at_job: Option<usize>,
}

impl RunControlArgs {
    /// The crash drill's fault plan: exit hard just before job
    /// `--kill-at-job N`, leaving the latest snapshot on disk for a
    /// `--resume` run to pick up. Empty without the flag.
    #[must_use]
    pub fn faults(&self) -> FaultPlan {
        match self.kill_at_job {
            Some(n) => FaultPlan::none().kill_at_job(n),
            None => FaultPlan::none(),
        }
    }

    /// `PATH every N jobs[, resuming]` when `--checkpoint PATH` is set.
    #[must_use]
    pub fn checkpoint_summary(&self) -> Option<String> {
        let c = &self.checkpoint;
        let resuming = if c.resume { ", resuming" } else { "" };
        let path = c.path.as_ref()?.display();
        Some(format!("{path} every {} jobs{resuming}", c.every_jobs))
    }
}

/// Times `f` and returns `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Directory figure CSVs are written to (created on demand).
/// Override with the `SAMURAI_FIGURES_DIR` environment variable.
pub fn figures_dir() -> PathBuf {
    let dir = std::env::var_os("SAMURAI_FIGURES_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/figures"));
    fs::create_dir_all(&dir).expect("cannot create the figures directory");
    dir
}

/// Writes a CSV file with the given header and rows. Returns the path.
///
/// # Panics
///
/// Panics on I/O errors (these binaries are run interactively; a
/// failure to write output should abort loudly).
pub fn write_csv(name: &str, header: &str, rows: &[Vec<f64>]) -> PathBuf {
    let path = figures_dir().join(name);
    let mut file = fs::File::create(&path).expect("cannot create CSV file");
    writeln!(file, "{header}").expect("cannot write CSV header");
    for row in rows {
        let line = row
            .iter()
            .map(|v| format!("{v:.6e}"))
            .collect::<Vec<_>>()
            .join(",");
        writeln!(file, "{line}").expect("cannot write CSV row");
    }
    path
}

/// Writes a CSV with string-tagged rows (`tag,...numbers`).
///
/// # Panics
///
/// Panics on I/O errors.
pub fn write_tagged_csv(name: &str, header: &str, rows: &[(String, Vec<f64>)]) -> PathBuf {
    let path = figures_dir().join(name);
    let mut file = fs::File::create(&path).expect("cannot create CSV file");
    writeln!(file, "{header}").expect("cannot write CSV header");
    for (tag, row) in rows {
        let nums = row
            .iter()
            .map(|v| format!("{v:.6e}"))
            .collect::<Vec<_>>()
            .join(",");
        writeln!(file, "{tag},{nums}").expect("cannot write CSV row");
    }
    path
}

/// Prints a section banner to stdout.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// One binary's telemetry session: a [`Recorder`] to thread
/// through the `*_observed` entry points, plus the wall clock and the
/// output directory given by `--metrics`.
///
/// The recorder is always live (these are tool binaries;
/// [`Recorder::noop`] is for library defaults), but
/// [`BenchSession::finish`] only writes artifacts when a metrics
/// directory was requested.
#[derive(Debug)]
pub struct BenchSession {
    name: String,
    dir: Option<PathBuf>,
    recorder: Recorder,
    watch: Instant,
}

impl BenchSession {
    /// Starts a session for the binary `name` (the artifact stem:
    /// `BENCH_<name>.json` / `JOURNAL_<name>.jsonl`), writing into
    /// `args`' metrics directory, if any.
    #[must_use]
    pub fn from_args(name: &str, args: &BenchArgs) -> Self {
        Self {
            name: name.to_owned(),
            dir: args.metrics_dir(),
            recorder: Recorder::recording(),
            watch: Instant::now(),
        }
    }

    /// Whether artifacts will be written at [`BenchSession::finish`].
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The recorder, to pass into `*_observed` entry points.
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// The recorder, for reads.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Records one run the binary timed itself, outside any ensemble,
    /// as telemetry job `job`: its wall-clock and its solver effort
    /// (`SolverStats::default()` for a flow with its own integrator).
    pub fn absorb_run(&mut self, job: usize, seconds: f64, solver: SolverStats) {
        self.recorder.absorb_job(&JobRecord {
            job,
            seconds,
            rescued: None,
            solver,
            trap: TrapStats::default(),
            scenario: None,
        });
    }

    /// Writes `BENCH_<name>.json` (throughput, latency percentiles,
    /// solver/sampler totals) and `JOURNAL_<name>.jsonl` (the ordered
    /// event journal) into the metrics directory, and returns the
    /// summary path. No-op (returns `None`) when metrics are disabled.
    ///
    /// `jobs` is the number of ensemble jobs the run completed — the
    /// denominator of the throughput figure.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors, like the CSV writers: losing the artifact
    /// of a long run silently would be worse.
    pub fn finish(self, jobs: usize) -> Option<PathBuf> {
        self.finish_with_extras(jobs, Vec::new())
    }

    /// [`BenchSession::finish`] with extra top-level members appended
    /// to the summary object — a binary's headline figures (speedups,
    /// sweep parameters) ride along in `BENCH_<name>.json`.
    ///
    /// [`validate_bench_summary`] checks required keys only, so extras
    /// never break the schema gate; insertion order is preserved, so
    /// the extras land after the standard keys.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors, like [`BenchSession::finish`].
    pub fn finish_with_extras(
        self,
        jobs: usize,
        extras: Vec<(&str, JsonValue)>,
    ) -> Option<PathBuf> {
        let dir = self.dir?;
        fs::create_dir_all(&dir).expect("cannot create the metrics directory");
        let wall = self.watch.elapsed().as_secs_f64();
        let mut summary = self.recorder.summary(&self.name, jobs, wall);
        if let JsonValue::Obj(pairs) = &mut summary {
            pairs.extend(extras.into_iter().map(|(k, v)| (k.to_owned(), v)));
        }
        let bench_path = dir.join(format!("BENCH_{}.json", self.name));
        fs::write(&bench_path, summary.to_json() + "\n").expect("cannot write the bench summary");
        let journal_path = dir.join(format!("JOURNAL_{}.jsonl", self.name));
        fs::write(&journal_path, self.recorder.journal().to_jsonl())
            .expect("cannot write the event journal");
        println!("metrics: {}", bench_path.display());
        println!("journal: {}", journal_path.display());
        Some(bench_path)
    }
}

/// Validates a `BENCH_<name>.json` document: every required key
/// present, every number finite. Returns the error list (empty =
/// valid). Used by `ci.sh` via `validate metrics`.
pub fn validate_bench_summary(doc: &JsonValue) -> Vec<String> {
    fn check_num(errors: &mut Vec<String>, v: Option<&JsonValue>, path: &str) {
        if v.and_then(JsonValue::as_f64).is_none() {
            errors.push(format!("missing or non-finite number: {path}"));
        }
    }
    let mut errors = Vec::new();
    if doc.get("name").and_then(JsonValue::as_str).is_none() {
        errors.push("missing string: name".to_owned());
    }
    check_num(&mut errors, doc.get("jobs"), "jobs");
    check_num(&mut errors, doc.get("wall_seconds"), "wall_seconds");
    check_num(
        &mut errors,
        doc.get("throughput_jobs_per_s"),
        "throughput_jobs_per_s",
    );
    match doc.get("latency") {
        Some(latency) => {
            for key in ["mean_s", "p50_s", "p95_s", "p99_s"] {
                check_num(&mut errors, latency.get(key), &format!("latency.{key}"));
            }
        }
        None => errors.push("missing object: latency".to_owned()),
    }
    match doc.get("solver") {
        Some(solver) => {
            for key in [
                "solve_attempts",
                "newton_iterations",
                "steps_accepted",
                "timestep_rejections",
                "rescue_gmin_rungs",
                "rescue_config_rungs",
                "faults_injected",
            ] {
                check_num(&mut errors, solver.get(key), &format!("solver.{key}"));
            }
        }
        None => errors.push("missing object: solver".to_owned()),
    }
    match doc.get("trap") {
        Some(trap) => {
            for key in ["candidates", "accepted"] {
                check_num(&mut errors, trap.get(key), &format!("trap.{key}"));
            }
        }
        None => errors.push("missing object: trap".to_owned()),
    }
    check_num(&mut errors, doc.get("journal_events"), "journal_events");
    errors
}

/// Validates a `samurai-lint --graph` dump: schema tag, node records
/// with dense sequential ids and boolean reachability flags, edges and
/// roots whose targets stay in range. Returns the error list (empty =
/// valid). Used by `ci.sh` via `validate graph`.
#[allow(clippy::too_many_lines)]
pub fn validate_call_graph(doc: &JsonValue) -> Vec<String> {
    fn as_index(v: Option<&JsonValue>) -> Option<u64> {
        match v {
            Some(JsonValue::U64(n)) => Some(*n),
            _ => None,
        }
    }
    fn check_bool(errors: &mut Vec<String>, v: Option<&JsonValue>, path: &str) {
        if !matches!(v, Some(JsonValue::Bool(_))) {
            errors.push(format!("missing bool: {path}"));
        }
    }
    let mut errors = Vec::new();
    if doc.get("schema").and_then(JsonValue::as_str) != Some("samurai-lint-graph-v1") {
        errors.push("schema is not samurai-lint-graph-v1".to_owned());
    }

    let Some(JsonValue::Arr(nodes)) = doc.get("nodes") else {
        errors.push("missing array: nodes".to_owned());
        return errors;
    };
    if nodes.is_empty() {
        errors.push("graph has no nodes — the workspace walk found nothing".to_owned());
    }
    let n = nodes.len() as u64;
    for (i, node) in nodes.iter().enumerate() {
        let at = |field: &str| format!("nodes[{i}].{field}");
        if as_index(node.get("id")) != Some(i as u64) {
            errors.push(format!("{} is not the dense index {i}", at("id")));
        }
        for key in ["name", "path"] {
            if node.get(key).and_then(JsonValue::as_str).is_none() {
                errors.push(format!("missing string: {}", at(key)));
            }
        }
        if as_index(node.get("line")).is_none() {
            errors.push(format!("missing integer: {}", at("line")));
        }
        if !matches!(node.get("crate"), Some(JsonValue::Str(_) | JsonValue::Null)) {
            errors.push(format!("missing string-or-null: {}", at("crate")));
        }
        for key in ["hot_fn", "hot_reachable", "ensemble_reachable"] {
            check_bool(&mut errors, node.get(key), &at(key));
        }
    }

    match doc.get("edges") {
        Some(JsonValue::Arr(edges)) => {
            for (i, edge) in edges.iter().enumerate() {
                for key in ["from", "to"] {
                    match as_index(edge.get(key)) {
                        Some(id) if id < n => {}
                        _ => errors.push(format!("edges[{i}].{key} is not a node id below {n}")),
                    }
                }
                if as_index(edge.get("line")).is_none() {
                    errors.push(format!("missing integer: edges[{i}].line"));
                }
            }
        }
        _ => errors.push("missing array: edges".to_owned()),
    }

    match doc.get("hot_roots") {
        Some(JsonValue::Arr(roots)) => {
            for (i, root) in roots.iter().enumerate() {
                match root.get("kind").and_then(JsonValue::as_str) {
                    Some("hot-loop") => {
                        if root.get("path").and_then(JsonValue::as_str).is_none() {
                            errors.push(format!("missing string: hot_roots[{i}].path"));
                        }
                        if as_index(root.get("line")).is_none() {
                            errors.push(format!("missing integer: hot_roots[{i}].line"));
                        }
                    }
                    Some("hot-fn") => {}
                    _ => errors.push(format!("hot_roots[{i}].kind is not hot-loop/hot-fn")),
                }
                match as_index(root.get("target")) {
                    Some(id) if id < n => {}
                    _ => errors.push(format!("hot_roots[{i}].target is not a node id below {n}")),
                }
            }
        }
        _ => errors.push("missing array: hot_roots".to_owned()),
    }

    match doc.get("ensemble_roots") {
        Some(JsonValue::Arr(roots)) => {
            for (i, root) in roots.iter().enumerate() {
                match root {
                    JsonValue::U64(id) if *id < n => {}
                    _ => errors.push(format!("ensemble_roots[{i}] is not a node id below {n}")),
                }
            }
        }
        _ => errors.push("missing array: ensemble_roots".to_owned()),
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_policy_specs_parse() {
        assert_eq!(parse_failure_policy("fail-fast"), FailurePolicy::FailFast);
        assert_eq!(
            parse_failure_policy("retry"),
            FailurePolicy::Retry { rungs: 2 }
        );
        assert_eq!(
            parse_failure_policy("retry:5"),
            FailurePolicy::Retry { rungs: 5 }
        );
        assert_eq!(
            parse_failure_policy("quarantine"),
            FailurePolicy::Quarantine {
                rungs: 2,
                max_failures: 1
            }
        );
        assert_eq!(
            parse_failure_policy("quarantine:8:3"),
            FailurePolicy::Quarantine {
                rungs: 3,
                max_failures: 8
            }
        );
        // Typos degrade to the safe default instead of panicking.
        assert_eq!(parse_failure_policy("retyr"), FailurePolicy::FailFast);
    }

    #[test]
    fn bench_args_parse_both_flag_spellings_in_one_pass() {
        let args = BenchArgs::parse_from(
            [
                "--threads=3",
                "--failure-policy",
                "retry:4",
                "--checkpoint",
                "/tmp/a.ckpt",
                "--checkpoint-every=8",
                "--resume",
                "--max-jobs",
                "12",
                "--kill-at-job=5",
                "--smoke",
                "--spec",
                "trap:6",
                "--port=9",
            ]
            .map(String::from),
        );
        assert_eq!(args.parallelism(), Parallelism::Fixed(3));
        assert_eq!(args.failure_policy(), FailurePolicy::Retry { rungs: 4 });
        assert!(args.smoke());
        assert!(!args.wants_help());
        let controls = args.run_controls();
        assert!(!controls.budget.is_unlimited());
        assert_eq!(controls.kill_at_job, Some(5));
        // A bin that honours fewer shared flags refuses the first other
        // one, by name.
        assert_eq!(args.refused(&Flag::ALL), None);
        let honoured = [Flag::Threads, Flag::Resume];
        assert_eq!(
            args.refused(&honoured).map(Flag::name),
            Some("--failure-policy")
        );
        // Bin-specific flags pass through, in both spellings.
        assert_eq!(args.value_of("--spec"), Some("trap:6"));
        assert_eq!(args.value_of("--port"), Some("9"));
        assert_eq!(args.value_of("--absent"), None);
        assert!(BenchArgs::parse_from(["-h".to_owned()]).wants_help());
    }

    #[test]
    fn help_lists_only_the_honoured_shared_flags() {
        let honoured = [Flag::Threads, Flag::Metrics];
        let text = usage("x9", "about", &honoured, &[("--port N", "bin-specific")]);
        for flag in Flag::ALL {
            let listed = text.contains(&format!("  {} ", flag.name()));
            assert_eq!(listed, honoured.contains(&flag), "{}: {text}", flag.name());
        }
        assert!(text.contains("--port N") && text.contains("--help, -h"));
    }

    #[test]
    fn csv_files_are_written() {
        std::env::set_var(
            "SAMURAI_FIGURES_DIR",
            std::env::temp_dir().join("samurai-figs"),
        );
        let path = write_csv("unit_test.csv", "a,b", &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.starts_with("a,b\n"));
        assert_eq!(content.lines().count(), 3);
        let path = write_tagged_csv(
            "unit_test_tagged.csv",
            "tag,x",
            &[("old".into(), vec![1.0])],
        );
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("old,1.000000e0"));
        std::env::remove_var("SAMURAI_FIGURES_DIR");
    }

    #[test]
    fn bench_summaries_validate_and_reject_gaps() {
        let recorder = Recorder::recording();
        let good = recorder.summary("unit", 0, 0.5);
        assert!(validate_bench_summary(&good).is_empty());

        let bad = JsonValue::obj(vec![("name", JsonValue::Str("unit".into()))]);
        let errors = validate_bench_summary(&bad);
        assert!(errors.iter().any(|e| e.contains("jobs")));
        assert!(errors.iter().any(|e| e.contains("latency")));
        assert!(errors.iter().any(|e| e.contains("solver")));
    }

    #[test]
    fn call_graph_dumps_validate_and_reject_gaps() {
        let good = samurai_core::telemetry::json::parse(
            r#"{"schema": "samurai-lint-graph-v1",
                "nodes": [
                  {"id": 0, "name": "a", "path": "crates/core/src/l.rs",
                   "line": 1, "crate": "core", "hot_fn": true,
                   "hot_reachable": true, "ensemble_reachable": false},
                  {"id": 1, "name": "b", "path": "crates/core/src/l.rs",
                   "line": 2, "crate": null, "hot_fn": false,
                   "hot_reachable": true, "ensemble_reachable": false}],
                "edges": [{"from": 0, "to": 1, "line": 1}],
                "hot_roots": [{"kind": "hot-fn", "target": 0}],
                "ensemble_roots": []}"#,
        )
        .unwrap();
        assert!(validate_call_graph(&good).is_empty());

        let bad = samurai_core::telemetry::json::parse(
            r#"{"schema": "wrong",
                "nodes": [{"id": 7, "name": "a"}],
                "edges": [{"from": 0, "to": 9, "line": 1}],
                "hot_roots": [{"kind": "mystery", "target": 0}]}"#,
        )
        .unwrap();
        let errors = validate_call_graph(&bad);
        assert!(errors.iter().any(|e| e.contains("schema")));
        assert!(errors.iter().any(|e| e.contains("dense index")));
        assert!(errors.iter().any(|e| e.contains("edges[0].to")));
        assert!(errors.iter().any(|e| e.contains("hot_roots[0].kind")));
        assert!(errors.iter().any(|e| e.contains("ensemble_roots")));
    }

    #[test]
    fn default_run_controls_are_passive() {
        // No crash-safety flags: the parsed controls must leave the
        // single-segment path intact.
        let controls = BenchArgs::default().run_controls();
        assert_eq!(controls.checkpoint, CheckpointConfig::default());
        assert!(controls.budget.is_unlimited());
        assert_eq!(controls.kill_at_job, None);
    }

    #[test]
    fn checkpoint_snapshots_validate_and_reject_gaps() {
        use samurai_core::checkpoint::{validate_checkpoint, RunControls};
        use samurai_core::ensemble::{ExecutionPolicy, MeanTrace};
        use samurai_core::telemetry::{json, Recorder};
        use samurai_core::{run_ensemble_checkpointed, CoreError, CHECKPOINT_SCHEMA};

        let path = std::env::temp_dir().join(format!("samurai-bench-{}.snap", std::process::id()));
        let controls = RunControls {
            checkpoint: CheckpointConfig::to_file(&path).every(2),
            budget: RunBudget::unlimited().jobs(4),
        };
        run_ensemble_checkpointed(
            8,
            Parallelism::Fixed(1),
            &ExecutionPolicy::default(),
            &controls,
            &mut Recorder::recording(),
            || MeanTrace::zeros(1),
            |job, _rung, _probe| Ok::<_, CoreError>(vec![job as f64]),
        )
        .expect("a clean run");
        let text = fs::read_to_string(&path).expect("a snapshot was written");
        let _ = fs::remove_file(&path);
        let doc = json::parse(&text).unwrap();
        assert_eq!(validate_checkpoint(&doc), Ok(()));

        // Resealed without its job records: the envelope is sound, the
        // payload is not.
        let Ok(JsonValue::Obj(mut members)) = json::open(&doc, CHECKPOINT_SCHEMA).cloned() else {
            panic!("a sealed object payload");
        };
        members.retain(|(key, _)| key != "records");
        let gap = json::seal(CHECKPOINT_SCHEMA, JsonValue::Obj(members));
        assert_eq!(validate_checkpoint(&gap), Err("decode"));

        // A torn write: the document cut short of its closing braces.
        assert!(json::parse(&text[..text.len() - 2]).is_err());
        // A flipped payload digit: the content hash calls it out.
        let at = text.find("\"shards_done\":").unwrap() + "\"shards_done\":".len();
        let mut flipped = text.into_bytes();
        flipped[at] ^= 0x01;
        let flipped = json::parse(std::str::from_utf8(&flipped).unwrap()).unwrap();
        assert_eq!(validate_checkpoint(&flipped), Err("hash"));
    }

    #[test]
    fn checkpoint_directories_are_created_or_named_in_the_error() {
        let root = std::env::temp_dir().join(format!("samurai-bench-dir-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        // A fresh nested directory is created before the run.
        let path = root.join("a/b/x7.ckpt");
        assert_eq!(create_checkpoint_dir(&path), Ok(()));
        assert!(root.join("a/b").is_dir());
        // A bare file name needs no directory.
        assert_eq!(create_checkpoint_dir(Path::new("x7.ckpt")), Ok(()));
        // A regular file where a directory must go: the error names
        // the path.
        fs::write(root.join("file"), b"").unwrap();
        let blocked = root.join("file/x7.ckpt");
        let message = create_checkpoint_dir(&blocked).unwrap_err();
        assert!(
            message.contains(&blocked.display().to_string()),
            "{message}"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn disabled_session_writes_nothing() {
        // No --metrics flag.
        let session = BenchSession::from_args("unit", &BenchArgs::default());
        assert!(!session.enabled());
        assert!(session.finish(3).is_none());
    }
}
