//! What every workload shares: the metric catalogue declared in
//! `BENCHMARK.json`, the per-run context, the repetition loop, the
//! statistics and the correctness bookkeeping.

use std::collections::BTreeMap;
use std::time::Instant;

use samurai_core::telemetry::MemoryRecorder;
use samurai_telemetry::{json, percentile, JsonValue};

use crate::trace::{span, Tracer};

/// The benchmark declaration at the root of the repository: workload
/// names, metric names, units and regression bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// Journal digests pinned for [`PINNED_SEED`] (full-size runs only).
pub const PINNED_JSON: &str = include_str!("../../../../../../metrics/ledger/digests.json");

/// The seed whose digests are pinned, and the default of `ledger run`.
pub const PINNED_SEED: u64 = 1;

/// Workers of every simulation ensemble (the sandbox has two cores).
pub const WORKERS: usize = 2;

/// Set-up passes of a run whose set-up builds what the measured loop
/// uses; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Relative regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Catalogue {
    /// Workload names in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported with tracing off).
    pub end_to_end: Vec<MetricDecl>,
    /// Per-layer metrics (reported with tracing on).
    pub per_layer: Vec<MetricDecl>,
    /// Measured seconds of one run.
    pub run_seconds: u64,
}

impl Catalogue {
    /// Parses the embedded declaration.
    ///
    /// # Panics
    ///
    /// On a malformed `BENCHMARK.json` — the file is compiled in, so
    /// this is a build defect, caught by the unit tests.
    #[must_use]
    pub fn load() -> Self {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let decls = |key: &str| -> Vec<MetricDecl> {
            let Some(JsonValue::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json: `{key}` must be an array");
            };
            items
                .iter()
                .map(|m| MetricDecl {
                    name: str_member(m, "name"),
                    unit: str_member(m, "unit"),
                    better: str_member(m, "better"),
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
                .collect()
        };
        let Some(JsonValue::Arr(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json: `workloads` must be an array");
        };
        Self {
            workloads: workloads.iter().map(|w| str_member(w, "name")).collect(),
            end_to_end: decls("end_to_end"),
            per_layer: decls("per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_u64)
                .expect("BENCHMARK.json: run_seconds"),
        }
    }

    /// The declarations reported in one mode.
    #[must_use]
    pub fn reported(&self, trace: bool) -> &[MetricDecl] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn str_member(v: &JsonValue, key: &str) -> String {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing string `{key}`"))
        .to_owned()
}

/// The pinned digest of `workload`, if one is recorded.
#[must_use]
pub fn pinned_digest(workload: &str) -> Option<u64> {
    let doc = json::parse(PINNED_JSON).ok()?;
    let hex = doc.get("digests")?.get(workload)?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// Everything a workload run receives.
#[derive(Debug)]
pub struct Ctx {
    /// Drives every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Shrinks every input to a seconds-scale pass.
    pub smoke: bool,
    /// Present in a traced run.
    pub tracer: Option<Tracer>,
    /// Scratch space inside the checkout (stores, checkpoints).
    pub scratch: std::path::PathBuf,
}

impl Ctx {
    /// The tracer, when this is a traced run.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (repetitions or tickets) checked.
    pub attempted: u64,
    /// Operations that failed a check or were refused.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// FNV-1a digest of the deterministic journal and results.
    pub digest: u64,
    /// Metric values by name; units come from the catalogue.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records the outcome of one checked operation.
    pub fn check(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }

    /// Adds a failure that belongs to no single operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }

    /// Compares the run's digest with the pinned one (full-size runs of
    /// the pinned seed only).
    pub fn check_pinned(&mut self, ctx: &Ctx, workload: &str) {
        if ctx.smoke || ctx.seed != PINNED_SEED {
            return;
        }
        if let Some(pinned) = pinned_digest(workload) {
            if pinned != self.digest {
                self.fail(format!(
                    "digest {:016x} differs from the pinned {pinned:016x}",
                    self.digest
                ));
            }
        }
    }
}

/// Runs `setup` [`SETUP_REPS`] times and returns the median duration
/// with the last pass's product (for set-up whose product the measured
/// loop needs; simulation workloads time theirs in [`run_reps`]).
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let product = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(product);
    }
    (median(&times), last.expect("at least one set-up pass"))
}

/// What one repetition of a simulation workload hands back.
pub struct Rep {
    /// The repetition's recorder: journal, job times, effort totals.
    pub recorder: MemoryRecorder,
    /// The results, as bytes digested together with the journal.
    pub results: Vec<u8>,
    /// Exact effort counters every repetition must reproduce.
    pub effort: Vec<u64>,
    /// Failed workload-specific checks.
    pub failures: Vec<String>,
}

/// Runs `rep` for `ctx.seconds` and records what every simulation
/// workload reports: `setup_s` and `wall_s` over untraced repetitions,
/// the digest and effort checks, and in a traced run the ensemble and
/// journal layer metrics and the tracing overhead.
///
/// One `setup` pass, timed on its own, runs before every repetition, so
/// the first repetition starts warm and `setup_s` (the passes' median)
/// is measured over the same stretch of host time as `wall_s`: seven
/// passes back to back took two seconds, and the host's slow and fast
/// spells moved their median by a quarter between sets of runs. A
/// repetition's wall time covers the simulation and the journal
/// encoding. A pass and repetition start only if the median pair so far
/// still fits, and at least one runs. Traced runs alternate traced and
/// untraced repetitions, so the overhead is measured under the same
/// conditions.
///
/// Returns the number of traced repetitions and the effort counters.
pub fn run_reps<E: std::fmt::Debug>(
    ctx: &Ctx,
    workload: &str,
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<(), String>,
    mut rep: impl FnMut(Option<&Tracer>) -> Result<Rep, E>,
) -> (usize, Vec<u64>) {
    let tracer = ctx.tracer();
    let start = Instant::now();
    let (mut times, mut setups) = (Vec::new(), Vec::new());
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut first_digest, mut first_effort) = (None, None);
    let (mut job_seconds, mut efficiency, mut encode) = (Vec::new(), Vec::new(), Vec::new());
    let mut journal_bytes = 0.0;
    loop {
        let mut failures = Vec::new();
        let setup_start = Instant::now();
        if let Err(e) = setup() {
            failures.push(format!("set-up pass {} failed: {e}", times.len()));
        }
        setups.push(setup_start.elapsed().as_secs_f64());
        let traced = tracer.filter(|_| times.len() % 2 == 0);
        let rep_start = Instant::now();
        match rep(traced) {
            Ok(r) => {
                let encode_start = Instant::now();
                let journal = {
                    let _s = span(traced, "telemetry.journal.encode");
                    r.recorder.journal().to_jsonl()
                };
                encode.push(encode_start.elapsed().as_secs_f64());
                let wall = rep_start.elapsed().as_secs_f64();
                if traced.is_some() {
                    traced_walls.push(wall);
                } else {
                    walls.push(wall);
                }
                failures.extend(r.failures);
                let digest = digest_of(&[journal.as_bytes(), &r.results]);
                same_as_first(&mut first_digest, digest, "journal digest", &mut failures);
                same_as_first(
                    &mut first_effort,
                    r.effort,
                    "effort counters",
                    &mut failures,
                );
                let jobs = r.recorder.job_seconds();
                job_seconds.extend_from_slice(jobs);
                efficiency.push(jobs.iter().sum::<f64>() / (wall * WORKERS as f64));
                journal_bytes = journal.len() as f64;
            }
            Err(e) => failures.push(format!("repetition {} failed: {e:?}", times.len())),
        }
        out.check(failures);
        times.push(setup_start.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + median(&times) > ctx.seconds {
            break;
        }
    }
    out.digest = first_digest.unwrap_or(0);
    out.check_pinned(ctx, workload);
    // A traced run of a single repetition has no untraced one.
    let walls = if walls.is_empty() {
        &traced_walls
    } else {
        &walls
    };
    out.set("setup_s", median(&setups));
    out.set("wall_s", median(walls));
    if tracer.is_some() {
        out.set("core.ensemble.efficiency", median(&efficiency));
        out.set("core.ensemble.job_p50_s", pct(&job_seconds, 0.5));
        out.set("core.ensemble.job_max_s", pct(&job_seconds, 1.0));
        out.set("telemetry.journal.encode_ms", median(&encode) * 1e3);
        out.set("telemetry.journal.bytes", journal_bytes);
        out.set("trace.overhead_frac", overhead(&traced_walls, walls));
    }
    (traced_walls.len(), first_effort.unwrap_or_default())
}

/// Traced over untraced median, minus one.
#[must_use]
pub fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    median(traced) / median(untraced) - 1.0
}

/// Sorts a copy ascending.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median (`telemetry::percentile` at 0.5).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Nearest-rank percentile of an unsorted sample.
#[must_use]
pub fn pct(values: &[f64], q: f64) -> f64 {
    percentile(&sorted(values), q)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a-64 over several byte strings, each followed by a separator.
#[must_use]
pub fn digest_of(parts: &[&[u8]]) -> u64 {
    let mut joined = Vec::new();
    for part in parts {
        joined.extend_from_slice(part);
        joined.push(0);
    }
    samurai_core::fnv1a64(&joined)
}

/// Floats as their IEEE-754 bit patterns, for digests.
#[must_use]
pub fn bits(values: &[f64]) -> Vec<u8> {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect()
}

/// Checks that every repetition reproduced the first one's value.
fn same_as_first<T: PartialEq + std::fmt::Debug>(
    first: &mut Option<T>,
    value: T,
    what: &str,
    failures: &mut Vec<String>,
) {
    match first {
        None => *first = Some(value),
        Some(f) if *f != value => {
            failures.push(format!(
                "{what} {value:?} differs from the first repetition's {f:?}"
            ));
        }
        Some(_) => {}
    }
}
