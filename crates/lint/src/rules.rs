//! The invariant catalog and the token-level rule engine.
//!
//! Every rule protects one of the project's three load-bearing
//! contracts (see DESIGN.md §"Invariants & lint catalog"):
//!
//! * **Determinism** (`DET…`) — bit-identical results for any worker
//!   count and across runs: no wall clocks, no ambient randomness, no
//!   environment reads in library code, no unordered-collection use in
//!   numeric crates.
//! * **Hot-loop purity** (`HOT…`) — the compiled Newton/timestep and
//!   uniformisation loops stay allocation-free: no constructors,
//!   clones, pushes or collects inside declared `// lint: hot-loop`
//!   regions.
//! * **Numeric hygiene & unsafe audit** (`HYG…`, `UNS…`) — library
//!   code propagates errors instead of panicking, compares floats
//!   deliberately, orders with `total_cmp`, and justifies every
//!   `unsafe` with a `SAFETY:` comment.
//!
//! The engine is lexical by design (no type information): rules are
//! written so that their token patterns have near-zero false-negative
//! rates on this codebase, and the `// lint: allow(RULE): reason`
//! escape hatch turns the residual false positives into reviewed,
//! self-documenting exceptions.

use crate::context::FileContext;
use crate::tokenizer::{Tok, TokKind};

/// How a first-party file is classified, which decides the applicable
/// rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `src/` of a library crate. `numeric` marks the crates whose
    /// results feed numeric outputs (`core`, `spice`, `sram`, `trap`),
    /// where unordered iteration is banned outright.
    Library {
        /// Crate participates in numeric result paths.
        numeric: bool,
    },
    /// Binaries and developer tooling (`bench`, `lint`, `src/bin/`):
    /// wall clocks, env access and stdout are their job, so only the
    /// hot-loop and unsafe-audit rules apply.
    Tool,
}

/// One diagnostic produced by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `DET002`.
    pub rule: &'static str,
    /// Path as reported (workspace-relative in workspace mode).
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// A catalog entry: one enforced invariant.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable identifier (`DET001`, …) used in findings and allows.
    pub id: &'static str,
    /// One-line summary.
    pub title: &'static str,
    /// The contract family the rule protects.
    pub contract: &'static str,
    /// Long-form explanation for `--explain`.
    pub explain: &'static str,
}

/// Every rule the analyzer enforces, in catalog order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "DET001",
        title: "no wall-clock time in library code",
        contract: "determinism",
        explain: "SystemTime and Instant make results depend on when the simulation ran. \
                  Library crates must be pure functions of their inputs and seeds; timing \
                  belongs in the bench/ tooling. Fix: thread explicit parameters, or move \
                  the measurement out of the library.",
    },
    Rule {
        id: "DET002",
        title: "no ambient randomness in library code",
        contract: "determinism",
        explain: "thread_rng, OsRng and from_entropy draw from process-global or OS entropy, \
                  which breaks bit-identical reproduction and the worker-count-independence \
                  contract of the ensemble engine. Fix: derive every stream from a SeedStream \
                  job index (seeds.rng(job)).",
    },
    Rule {
        id: "DET003",
        title: "no environment access in library code",
        contract: "determinism",
        explain: "std::env reads make library results depend on ambient process state. \
                  Configuration must arrive through typed config structs; only binaries \
                  (bench/, src/bin/) may parse the environment and pass values down.",
    },
    Rule {
        id: "DET004",
        title: "no HashMap/HashSet in numeric crates",
        contract: "determinism",
        explain: "std HashMap/HashSet iteration order is randomized per process. In the \
                  numeric crates (core, spice, sram, trap) any iteration feeding a float \
                  accumulation would destroy bit-identical results, so unordered \
                  collections are banned outright there. Fix: use BTreeMap/BTreeSet, or \
                  justify a lookup-only map with `// lint: allow(DET004): reason`.",
    },
    Rule {
        id: "DET005",
        title: "no fault-plan construction in production code",
        contract: "determinism",
        explain: "FaultPlan builder calls (fail_nth_solve, fail_nth_step, fail_job, \
                  kill_at_job) schedule deliberate solver failures or a hard process kill. \
                  They belong in #[cfg(test)] modules, the fault-injection suite and the \
                  faults module itself; a plan built in production library code would \
                  silently corrupt ensemble results. Fix: move the construction into a \
                  test, or thread a plan in from the caller's configuration (carrying and \
                  arming plans is always allowed).",
    },
    Rule {
        id: "DET006",
        title: "no direct device-parameter sampling outside the scenario layer",
        contract: "determinism",
        explain: "standard_normal/poisson draws scattered through library code are how \
                  per-job parameter sampling drifts away from the ScenarioConfig surface: \
                  a consumer that rolls its own mismatch or trap-count draws changes the \
                  per-job stream layout and silently breaks bit-identical replay across \
                  worker counts. Device statistics must be expanded in core::scenario (or \
                  the defining trap profile module) and flow to consumers as concrete \
                  ScenarioSample/TrapParams values. Fix: accept a sampled input, or \
                  justify a non-parameter draw (e.g. process noise) with \
                  `// lint: allow(DET006): reason`.",
    },
    Rule {
        id: "HOT001",
        title: "no heap construction in hot loops",
        contract: "no-alloc",
        explain: "Inside `// lint: hot-loop` regions (compiled Newton/timestep loop, \
                  uniformisation candidate loop, ensemble shard fold), constructors that \
                  allocate — Vec::new, vec![], Box::new, String::new/from, format!, \
                  with_capacity, to_string, to_owned — are banned. Buffers live in the \
                  persistent workspace and are reused across iterations.",
    },
    Rule {
        id: "HOT002",
        title: "no clone/to_vec in hot loops",
        contract: "no-alloc",
        explain: ".clone() and .to_vec() inside a hot region copy a buffer per iteration. \
                  Reuse workspace buffers (copy_from, clear + extend into retained \
                  capacity) or promote results with mem::swap, as the Newton workspace \
                  does for trial acceptance.",
    },
    Rule {
        id: "HOT003",
        title: "no container growth in hot loops",
        contract: "no-alloc",
        explain: ".push() inside a hot region may reallocate. Either pre-size the buffer \
                  outside the region, or — for genuinely unbounded output accumulation \
                  like the RTN staircase — add `// lint: allow(HOT003): reason` to record \
                  that amortised growth is the algorithm's contract.",
    },
    Rule {
        id: "HOT004",
        title: "no collect in hot loops",
        contract: "no-alloc",
        explain: ".collect() materialises a fresh container per iteration. Fold into a \
                  pre-allocated workspace buffer instead.",
    },
    Rule {
        id: "HOT101",
        title: "no allocation in hot-reachable functions",
        contract: "no-alloc",
        explain: "The call-graph pass extends the hot-loop contract transitively: any \
                  function reachable from a `// lint: hot-loop` region or a \
                  `// lint: hot-fn` annotation runs per iteration, so allocating \
                  constructors (Vec::new, Box::new, String::from, format!, vec![], \
                  to_string, to_owned, with_capacity) inside it are as bad as in the \
                  loop body itself. The diagnostic renders the full call chain from \
                  the hot root. Fix at the allocation site (workspace buffers, \
                  preformatted data), or record a boundary-only path with \
                  `// lint: allow(HOT101): reason`.",
    },
    Rule {
        id: "HOT102",
        title: "no clone/copy in hot-reachable functions",
        contract: "no-alloc",
        explain: ".clone()/.cloned()/.to_vec() in a function on a hot call chain copies \
                  a buffer per iteration even though the loop body itself looks clean. \
                  Restructure to borrow, reuse workspace storage, or justify a cold \
                  error-path copy with `// lint: allow(HOT102): reason`.",
    },
    Rule {
        id: "HOT103",
        title: "no container growth in hot-reachable functions",
        contract: "no-alloc",
        explain: ".push()/.collect() in a hot-reachable function may reallocate per \
                  iteration. Pre-size buffers at the hot boundary, or record \
                  amortised-growth contracts with `// lint: allow(HOT103): reason`.",
    },
    Rule {
        id: "DRW001",
        title: "no guarded RNG draws in sampling modules",
        contract: "determinism",
        explain: "In scenario.rs/profile.rs every job must consume the same number of \
                  draws in the same order, or per-job streams shift and results stop \
                  being bit-identical across worker counts and config toggles. A draw \
                  under `if`/`match` or after a conditional early `return` executes \
                  for some jobs and not others. Fix: draw unconditionally and discard \
                  (burn the slot), or annotate a deliberate stream-layout branch with \
                  `// lint: fixed-draw: reason` on the draw's statement.",
    },
    Rule {
        id: "DRW002",
        title: "public sampling fns consume a threaded RNG",
        contract: "determinism",
        explain: "A public sampling fn that draws without taking an RNG parameter, or \
                  that constructs its own (seed_from_u64/from_seed/from_rng), hides a \
                  stream from the job-indexed seeding discipline: its draws cannot be \
                  replayed or sharded deterministically. Thread the job-indexed RNG \
                  through the signature; construction belongs to SeedStream alone \
                  (`// lint: allow(DRW002): reason` for the defining site).",
    },
    Rule {
        id: "CG001",
        title: "no tool-crate calls on the ensemble path",
        contract: "layering",
        explain: "Functions in numeric crates reachable from an ensemble runner \
                  (`run_ensemble_resilient_observed`, `run_ensemble_checkpointed`; any \
                  `run_ensemble*` fn is a root) are the reproducibility kernel; \
                  calling into tool-class crates \
                  (samurai_bench::, samurai_lint::) from there would couple numeric \
                  results to tooling that is free to read clocks and environments. \
                  The call-graph pass reports the chain from the ensemble root. Fix: \
                  invert the dependency (have the tool observe via telemetry), or \
                  move the helper into a library crate.",
    },
    Rule {
        id: "HYG001",
        title: "no unwrap in library code",
        contract: "hygiene",
        explain: "unwrap()/unwrap_err() turn recoverable conditions into panics that kill \
                  whole ensemble runs. Library code must propagate Result via the crate \
                  error types (CoreError, SpiceError, SramError, WaveformError). Test \
                  modules are exempt. For locally-provable invariants, prefer restructuring; \
                  otherwise record the proof with `// lint: allow(HYG001): reason`.",
    },
    Rule {
        id: "HYG002",
        title: "no expect in library code",
        contract: "hygiene",
        explain: "expect() is unwrap() with a message; the failure mode is still a panic. \
                  Propagate Result instead, or justify a construction-guaranteed invariant \
                  with `// lint: allow(HYG002): reason`.",
    },
    Rule {
        id: "HYG003",
        title: "no panicking macros in library code",
        contract: "hygiene",
        explain: "panic!/unreachable!/todo!/unimplemented! abort the caller's whole \
                  computation. Return an error variant instead. assert!/debug_assert! are \
                  permitted: they document invariants and (debug_assert) vanish in release.",
    },
    Rule {
        id: "HYG004",
        title: "no float literal equality",
        contract: "hygiene",
        explain: "== / != against a float literal is almost always a rounding bug; compare \
                  against a tolerance. Exact-sentinel comparisons (e.g. a companion-model \
                  conductance that is exactly 0.0 in DC mode) are legitimate — record them \
                  with `// lint: allow(HYG004): reason`. The lexical rule only fires when \
                  one operand is a float literal.",
    },
    Rule {
        id: "HYG005",
        title: "use total_cmp, not partial_cmp",
        contract: "hygiene",
        explain: "partial_cmp on floats returns None for NaN, which every call site then \
                  unwraps — a latent panic. f64::total_cmp is total, NaN-safe, and agrees \
                  with partial_cmp on all ordered values: sort_by(f64::total_cmp) or \
                  a.total_cmp(&b).",
    },
    Rule {
        id: "UNS001",
        title: "unsafe requires a SAFETY comment",
        contract: "hygiene",
        explain: "Every `unsafe` keyword (block, fn, impl) must be preceded (within three \
                  lines) by a `// SAFETY:` comment stating why the invariants hold. This \
                  applies everywhere, including tests and tools.",
    },
    Rule {
        id: "RSM001",
        title: "checkpoint files are written only through the atomic helper",
        contract: "crash-safety",
        explain: "A snapshot written with a bare File::create or fs::write can be torn by \
                  a crash mid-write, and a torn `.ckpt` file silently costs a resume its \
                  whole saved prefix. The one sanctioned writer is \
                  samurai_core::checkpoint::write_checkpoint_atomic, which stages the \
                  document in a temp sibling and renames it into place (rename is atomic \
                  on POSIX filesystems). The lexical rule fires on File::create/fs::write \
                  with a `.ckpt` string literal nearby; route the write through the \
                  helper, or justify a deliberately-torn test artifact with \
                  `// lint: allow(RSM001): reason`.",
    },
    Rule {
        id: "SVC001",
        title: "only the serve worker module may run the ensemble engines",
        contract: "layering",
        explain: "Inside crates/serve, calls to the ensemble engines \
                  (`run_ensemble_resilient_observed`, `run_ensemble_checkpointed`, \
                  `run_column_ensemble*`) are reserved for the worker module \
                  (worker.rs and its workload.rs execution closures). HTTP handler \
                  threads are spawned per connection and unbounded, so an engine call \
                  there bypasses the job queue's capacity, backpressure, checkpoint and \
                  cache discipline — a burst of submissions would fork ensembles without \
                  limit. Handlers must stay I/O-only: parse, enqueue via \
                  ServiceState::submit, and read published state. Route simulation \
                  through a queued ticket instead, or justify a deliberate exception \
                  with `// lint: allow(SVC001): reason`.",
    },
    Rule {
        id: "OBS001",
        title: "no telemetry sink calls in hot loops",
        contract: "observability",
        explain: "Telemetry calls (`.counter(..)`, `.observe(..)`) inside a \
                  `// lint: hot-loop` region put map lookups and branches on the \
                  innermost numeric path whenever telemetry is recording. Bump a \
                  plain u64 field on the persistent workspace stats (SolverStats, \
                  TrapStats) instead and let the recorder absorb the bundle at the job \
                  boundary, as the Newton and uniformisation loops do. Justify a \
                  deliberate exception with `// lint: allow(OBS001): reason`.",
    },
];

/// Looks up a catalog entry by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Constructors whose `Type::method` form allocates (HOT001).
const HOT_ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];

/// Method names that allocate regardless of receiver (HOT001).
const HOT_ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "with_capacity"];

/// Macros that allocate (HOT001).
const HOT_ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Identifiers that reach ambient entropy (DET002).
const AMBIENT_RNG: &[&str] = &["thread_rng", "ThreadRng", "OsRng", "from_entropy"];

/// Panicking macros (HYG003).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// FaultPlan builder methods that schedule injected failures (DET005).
const FAULT_PLAN_BUILDERS: &[&str] =
    &["fail_nth_solve", "fail_nth_step", "fail_job", "kill_at_job"];

/// How many tokens past a raw write call the RSM001 scan looks for a
/// `.ckpt` literal — generous enough to cover a path expression
/// argument, small enough not to leak into the next statement.
const RSM_SCAN_WINDOW: usize = 16;

/// Statistical sampling primitives reserved for the scenario layer
/// (DET006).
const SCENARIO_SAMPLERS: &[&str] = &["standard_normal", "poisson"];

/// Runs every applicable rule over one file's tokens.
pub fn check_tokens(path: &str, class: FileClass, toks: &[Tok], ctx: &FileContext) -> Vec<Finding> {
    let mut out = Vec::new();
    let is_library = matches!(class, FileClass::Library { .. });
    let is_numeric = matches!(class, FileClass::Library { numeric: true });
    // The faults module defines the builders; its own (non-test) code
    // is the one legitimate construction site.
    let is_faults_module = std::path::Path::new(path)
        .file_name()
        .is_some_and(|f| f == "faults.rs");
    // The scenario layer expands per-job parameters and the trap
    // profile module defines the primitives; those are the sanctioned
    // draw sites.
    let is_sampling_module = std::path::Path::new(path)
        .file_name()
        .is_some_and(|f| f == "scenario.rs" || f == "profile.rs");
    // SVC001 is scoped to the serve crate (and its fixture corpus):
    // the worker module and its workload execution closures are the
    // sanctioned engine-call sites; everything else there is I/O-only.
    let in_serve_crate = std::path::Path::new(path)
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .any(|c| c == "serve" || c == "svc001");
    let is_serve_worker = std::path::Path::new(path)
        .file_name()
        .is_some_and(|f| f == "worker.rs" || f == "workload.rs");

    let mut emit = |rule: &'static str, tok: &Tok, message: String| {
        // UNS001 applies even in test code; everything else is exempt
        // there. Allows silence any rule.
        if ctx.in_test(tok.line) && rule != "UNS001" {
            return;
        }
        if ctx.allowed(tok.line, rule) {
            return;
        }
        out.push(Finding {
            rule,
            path: path.to_string(),
            line: tok.line,
            message,
        });
    };

    let text_at = |k: isize| -> &str {
        if k < 0 {
            return "";
        }
        toks.get(k as usize).map_or("", |t| t.text.as_str())
    };

    for (k, t) in toks.iter().enumerate() {
        let ki = k as isize;
        let prev = text_at(ki - 1);
        let prev2 = text_at(ki - 2);
        let next = text_at(ki + 1);
        let hot = ctx.in_hot(t.line);

        match t.kind {
            TokKind::Ident => {
                let name = t.text.as_str();

                // --- determinism -------------------------------------
                if is_library && matches!(name, "SystemTime" | "Instant") {
                    emit(
                        "DET001",
                        t,
                        format!("`{name}` reads the wall clock; library results must not depend on when they run"),
                    );
                }
                if is_library && AMBIENT_RNG.contains(&name) {
                    emit(
                        "DET002",
                        t,
                        format!("`{name}` draws ambient entropy; derive streams from a SeedStream job index"),
                    );
                }
                if is_library && name == "env" && prev == "::" && prev2 == "std" {
                    emit(
                        "DET003",
                        t,
                        "`std::env` read in library code; configuration must arrive through typed parameters".into(),
                    );
                }
                if is_numeric && matches!(name, "HashMap" | "HashSet") {
                    emit(
                        "DET004",
                        t,
                        format!("`{name}` has randomized iteration order; use BTreeMap/BTreeSet in numeric crates"),
                    );
                }
                if is_library
                    && !is_faults_module
                    && prev == "."
                    && FAULT_PLAN_BUILDERS.contains(&name)
                {
                    emit(
                        "DET005",
                        t,
                        format!("`.{name}()` builds a fault plan in production code; construct plans only in tests"),
                    );
                }
                if is_library
                    && !is_sampling_module
                    && next == "("
                    && prev != "fn"
                    && SCENARIO_SAMPLERS.contains(&name)
                {
                    emit(
                        "DET006",
                        t,
                        format!("`{name}(..)` draws device statistics outside the scenario layer; expand parameters through core::scenario"),
                    );
                }

                // --- service isolation -------------------------------
                if in_serve_crate
                    && !is_serve_worker
                    && next == "("
                    && prev != "fn"
                    && (name.starts_with("run_ensemble") || name.starts_with("run_column_ensemble"))
                {
                    emit(
                        "SVC001",
                        t,
                        format!("`{name}(..)` runs the ensemble engine outside the serve worker module; handlers must enqueue via ServiceState::submit"),
                    );
                }

                // --- hot-loop purity ---------------------------------
                if hot {
                    if prev == "::"
                        && HOT_ALLOC_PATHS
                            .iter()
                            .any(|(ty, m)| *ty == prev2 && *m == name)
                    {
                        emit(
                            "HOT001",
                            t,
                            format!("`{prev2}::{name}` allocates inside a hot-loop region"),
                        );
                    } else if prev == "." && HOT_ALLOC_METHODS.contains(&name) {
                        emit(
                            "HOT001",
                            t,
                            format!("`.{name}()` allocates inside a hot-loop region"),
                        );
                    }
                    if next == "!" && HOT_ALLOC_MACROS.contains(&name) {
                        emit(
                            "HOT001",
                            t,
                            format!("`{name}!` allocates inside a hot-loop region"),
                        );
                    }
                    if prev == "." && matches!(name, "clone" | "to_vec") {
                        emit(
                            "HOT002",
                            t,
                            format!("`.{name}()` copies a buffer inside a hot-loop region"),
                        );
                    }
                    if prev == "." && name == "push" {
                        emit(
                            "HOT003",
                            t,
                            "`.push()` may reallocate inside a hot-loop region".into(),
                        );
                    }
                    if prev == "." && name == "collect" {
                        emit(
                            "HOT004",
                            t,
                            "`.collect()` materialises a container inside a hot-loop region".into(),
                        );
                    }
                    // --- observability -------------------------------
                    if matches!(name, "counter" | "observe")
                        && (prev == "." || (prev == "::" && prev2 == "MetricsSink"))
                    {
                        emit(
                            "OBS001",
                            t,
                            format!("`{name}` sink call inside a hot-loop region; bump a job stats field and let the sink consume it at the job boundary"),
                        );
                    }
                }

                // --- numeric hygiene ---------------------------------
                if is_library && prev == "." && matches!(name, "unwrap" | "unwrap_err") {
                    emit(
                        "HYG001",
                        t,
                        format!(
                            "`.{name}()` panics on the error path; propagate the crate error type"
                        ),
                    );
                }
                if is_library && prev == "." && name == "expect" {
                    emit(
                        "HYG002",
                        t,
                        "`.expect()` panics on the error path; propagate the crate error type"
                            .into(),
                    );
                }
                if is_library && next == "!" && PANIC_MACROS.contains(&name) {
                    emit(
                        "HYG003",
                        t,
                        format!("`{name}!` aborts the caller; return an error variant instead"),
                    );
                }
                if is_library && name == "partial_cmp" {
                    emit(
                        "HYG005",
                        t,
                        "`partial_cmp` is partial over NaN; use `f64::total_cmp`".into(),
                    );
                }

                // --- crash safety ------------------------------------
                // A raw write aimed at a checkpoint file (`.ckpt`
                // literal in the argument window) bypasses the atomic
                // temp-and-rename helper. Applies to tools too: a torn
                // snapshot is torn no matter who wrote it.
                if (name == "create" && prev == "::" && prev2 == "File")
                    || (name == "write" && prev == "::" && prev2 == "fs")
                {
                    let near_ckpt = toks[k + 1..]
                        .iter()
                        .take(RSM_SCAN_WINDOW)
                        .any(|a| a.kind == TokKind::Str && a.text.contains(".ckpt"));
                    if near_ckpt {
                        emit(
                            "RSM001",
                            t,
                            format!(
                                "`{prev2}::{name}` writes a checkpoint file directly; \
                                 use checkpoint::write_checkpoint_atomic"
                            ),
                        );
                    }
                }

                // --- unsafe audit ------------------------------------
                if name == "unsafe" && !ctx.has_safety_near(t.line) {
                    emit(
                        "UNS001",
                        t,
                        "`unsafe` without a preceding `// SAFETY:` comment".into(),
                    );
                }
            }
            TokKind::Punct if is_library && (t.text == "==" || t.text == "!=") => {
                let float_operand = toks
                    .get(k.wrapping_sub(1))
                    .is_some_and(|p| p.kind == TokKind::Float)
                    || toks.get(k + 1).is_some_and(|p| p.kind == TokKind::Float);
                if float_operand {
                    emit(
                        "HYG004",
                        t,
                        format!("float literal compared with `{}`; use a tolerance or justify exact-sentinel semantics", t.text),
                    );
                }
            }
            _ => {}
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;
    use crate::tokenizer::tokenize;

    fn findings(src: &str, class: FileClass) -> Vec<Finding> {
        let (toks, comments) = tokenize(src);
        let ctx = FileContext::build(&toks, &comments);
        check_tokens("mem.rs", class, &toks, &ctx)
    }

    const LIB: FileClass = FileClass::Library { numeric: true };

    #[test]
    fn rule_ids_are_unique_and_well_formed() {
        let mut ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate rule id");
        for r in RULES {
            // `FAMnnn` with a 2–3 letter family prefix (CG001, HYG001).
            let (fam, num) = r.id.split_at(r.id.len() - 3);
            assert!(
                (2..=3).contains(&fam.len()) && fam.chars().all(|c| c.is_ascii_uppercase()),
                "{} must be FAMnnn",
                r.id
            );
            assert!(
                num.chars().all(|c| c.is_ascii_digit()),
                "{} must end in 3 digits",
                r.id
            );
            assert!(!r.explain.is_empty() && !r.title.is_empty());
        }
    }

    #[test]
    fn unwrap_fires_only_outside_tests() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }\n";
        let f = findings(src, LIB);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "HYG001");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(id); z.unwrap_or_default(); }\n";
        assert!(findings(src, LIB).is_empty());
    }

    #[test]
    fn tool_class_skips_library_rules() {
        let src = "fn main() { let t = Instant::now(); std::env::var(\"X\"); x.unwrap(); }\n";
        assert!(findings(src, FileClass::Tool).is_empty());
    }

    #[test]
    fn hot_rules_require_a_region() {
        let src = "fn f() { v.push(1); }\n";
        assert!(findings(src, LIB).is_empty());
        let src = "// lint: hot-loop\nfn f() { v.push(1); }\n// lint: end-hot-loop\n";
        let f = findings(src, LIB);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "HOT003");
    }

    #[test]
    fn float_equality_needs_a_literal_operand() {
        assert_eq!(
            findings("fn f() { if x == 0.0 {} }\n", LIB)[0].rule,
            "HYG004"
        );
        // Two variables: lexically invisible, documented limitation.
        assert!(findings("fn f() { if x == y {} }\n", LIB).is_empty());
        // Integer comparison is fine.
        assert!(findings("fn f() { if x == 0 {} }\n", LIB).is_empty());
    }

    #[test]
    fn safety_comment_satisfies_unsafe_audit() {
        assert_eq!(
            findings("fn f() { unsafe { g() } }\n", LIB)[0].rule,
            "UNS001"
        );
        assert!(findings(
            "// SAFETY: g is infallible here\nfn f() { unsafe { g() } }\n",
            LIB
        )
        .is_empty());
    }

    #[test]
    fn fault_plan_builders_fire_outside_tests_and_the_faults_module() {
        let src =
            "fn f(p: FaultPlan) -> FaultPlan { p.fail_nth_solve(3, FaultKind::NanResidual) }\n";
        let f = findings(src, LIB);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "DET005");

        // Test modules may build plans freely.
        let src = "#[cfg(test)]\nmod tests { fn g() { let p = FaultPlan::none().fail_nth_step(1, FaultKind::TimestepFloor); } }\n";
        assert!(findings(src, LIB).is_empty());

        // The faults module is the defining (and one legitimate
        // production) construction site.
        let src = "fn f(p: FaultPlan) -> FaultPlan { p.fail_job(2, FaultKind::NonConvergence) }\n";
        let (toks, comments) = tokenize(src);
        let ctx = FileContext::build(&toks, &comments);
        assert!(check_tokens("crates/core/src/faults.rs", LIB, &toks, &ctx).is_empty());

        // Carrying or arming a plan is not construction.
        let src = "fn f(p: &FaultPlan) { let a = p.arm(FaultSite::Solve); }\n";
        assert!(findings(src, LIB).is_empty());
    }

    #[test]
    fn raw_checkpoint_writes_fire_in_every_class() {
        let src = "fn f() { fs::write(dir.join(\"run.ckpt\"), doc); }\n";
        for class in [LIB, FileClass::Tool] {
            let (toks, comments) = tokenize(src);
            let ctx = FileContext::build(&toks, &comments);
            let f = check_tokens("mem.rs", class, &toks, &ctx);
            assert_eq!(f.len(), 1, "{class:?}");
            assert_eq!(f[0].rule, "RSM001");
        }
        let src = "fn f() { let h = File::create(\"col.ckpt\")?; }\n";
        assert_eq!(findings(src, LIB)[0].rule, "RSM001");

        // Writes with no checkpoint literal in range are untouched,
        // as is the atomic helper's own temp-file staging.
        assert!(findings("fn f() { fs::write(path, doc); }\n", LIB).is_empty());
        assert!(findings(
            "fn f() { fs::write(&tmp, contents)?; fs::rename(&tmp, path) }\n",
            LIB
        )
        .is_empty());

        // The kill drill is a DET005 builder like the others.
        let src = "fn f(p: FaultPlan) -> FaultPlan { p.kill_at_job(7) }\n";
        assert_eq!(findings(src, LIB)[0].rule, "DET005");
    }

    #[test]
    fn parameter_sampling_fires_outside_the_scenario_layer() {
        let src = "fn f(rng: &mut R, sigma: f64) -> f64 { sigma * standard_normal(rng) }\n";
        let f = findings(src, LIB);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "DET006");

        // Test modules may draw freely.
        let src = "#[cfg(test)]\nmod tests { fn g(rng: &mut R) { let n = poisson(rng, 1.5); } }\n";
        assert!(findings(src, LIB).is_empty());

        // The scenario layer is the sanctioned expansion site, and the
        // trap profile module defines the primitives.
        let src = "fn f(rng: &mut R) -> f64 { standard_normal(rng) }\n";
        let (toks, comments) = tokenize(src);
        let ctx = FileContext::build(&toks, &comments);
        assert!(check_tokens("crates/core/src/scenario.rs", LIB, &toks, &ctx).is_empty());
        assert!(check_tokens("crates/trap/src/profile.rs", LIB, &toks, &ctx).is_empty());

        // Definitions and bare re-exports are not draws.
        let src = "fn standard_normal(rng: &mut R) -> f64 { rng.gen() }\n\
                   pub use profile::{poisson, standard_normal};\n";
        assert!(findings(src, LIB).is_empty());
    }

    #[test]
    fn telemetry_calls_in_hot_regions_must_be_guarded() {
        let src = "// lint: hot-loop\nfn f() { s.counter(\"n\", 1); s.observe(\"v\", x); }\n// lint: end-hot-loop\n";
        let f = findings(src, LIB);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == "OBS001"));

        // Bumping a plain stats field is the sanctioned form.
        let src =
            "// lint: hot-loop\nfn f() { stats.newton_iterations += 1; }\n// lint: end-hot-loop\n";
        assert!(findings(src, LIB).is_empty());

        // The fully-qualified trait form is still a direct call.
        let src = "// lint: hot-loop\nfn f() { MetricsSink::counter(&mut s, \"n\", 1); }\n// lint: end-hot-loop\n";
        assert_eq!(findings(src, LIB)[0].rule, "OBS001");

        // Outside hot regions direct sink calls are fine.
        assert!(findings("fn f() { s.counter(\"n\", 1); }\n", LIB).is_empty());
    }

    #[test]
    fn string_contents_never_fire() {
        let src = "fn f() { let s = \"thread_rng unwrap() HashMap\"; }\n";
        assert!(findings(src, LIB).is_empty());
    }

    #[test]
    fn allows_silence_exactly_the_named_rule() {
        let src = "fn f() { x.unwrap(); } // lint: allow(HYG001): proven above\n";
        assert!(findings(src, LIB).is_empty());
        let src = "fn f() { x.unwrap(); } // lint: allow(HYG002): wrong rule\n";
        assert_eq!(findings(src, LIB).len(), 1);
    }
}
