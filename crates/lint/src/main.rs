//! The `samurai-lint` command-line interface.
//!
//! ```text
//! samurai-lint                      # report findings, exit 0
//! samurai-lint --deny               # CI mode: exit 2 on any finding
//! samurai-lint --json               # machine-readable findings
//! samurai-lint --explain HYG005     # the catalog page for one rule
//! samurai-lint --self-check         # prove the fixture corpus still
//!                                   # trips every rule (CI guard
//!                                   # against the analyzer going blind)
//! samurai-lint --graph FILE         # dump the workspace call graph
//!                                   # as JSON (samurai-lint-graph-v1)
//! samurai-lint path/to/file.rs …    # lint explicit paths under the
//!                                   # strictest (numeric-library) class
//! samurai-lint --root DIR           # workspace root override
//! ```
#![allow(clippy::print_stdout, clippy::print_stderr)] // a CLI's output IS stdout

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use samurai_lint::callgraph::CallGraph;
use samurai_lint::report::{render_explain, render_json, render_report};
use samurai_lint::rules::{rule_by_id, RULES};
use samurai_lint::{analyze_source_full, analyze_workspace_full, engine, FileClass, Finding};

struct Options {
    deny: bool,
    json: bool,
    self_check: bool,
    explain: Option<String>,
    graph: Option<PathBuf>,
    root: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        deny: false,
        json: false,
        self_check: false,
        explain: None,
        graph: None,
        root: None,
        paths: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => opts.deny = true,
            "--json" => opts.json = true,
            "--self-check" => opts.self_check = true,
            "--explain" => {
                opts.explain = Some(args.next().ok_or("--explain requires a rule id")?);
            }
            "--graph" => {
                opts.graph = Some(PathBuf::from(
                    args.next().ok_or("--graph requires an output file")?,
                ));
            }
            "--root" => {
                opts.root = Some(PathBuf::from(
                    args.next().ok_or("--root requires a directory")?,
                ));
            }
            "--help" | "-h" => {
                return Err("usage: samurai-lint [--deny] [--json] [--explain RULE] \
                            [--self-check] [--graph FILE] \
                            [--root DIR] [paths...]"
                    .into())
            }
            p if !p.starts_with('-') => opts.paths.push(PathBuf::from(p)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn workspace_root(opts: &Options) -> Result<PathBuf, String> {
    if let Some(root) = &opts.root {
        return Ok(root.clone());
    }
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    engine::find_workspace_root(&cwd)
        .ok_or_else(|| "no workspace root found (run inside the repo or pass --root)".into())
}

/// Recursively collects `.rs` fixture files under `dir`, sorted.
fn fixture_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(dir, &mut files).map_err(|e| format!("{}: {e}", dir.display()))?;
    files.sort();
    Ok(files)
}

/// `true` when `file` is the fixture for `rule`: its stem, or any
/// directory between the corpus subdir and the file, equals the
/// lowercased rule id. (Scope-sensitive rules like the DRW family
/// live at `violations/drw001/scenario.rs` because the analyzer keys
/// on the file name.)
fn covers_rule(file: &Path, rule: &str) -> bool {
    let id = rule.to_ascii_lowercase();
    file.iter()
        .filter_map(|c| c.to_str())
        .any(|c| c == id || c.strip_suffix(".rs") == Some(&id))
}

/// Runs the analyzer over the seeded fixture corpus and verifies that
/// every rule has dedicated fixture coverage, fires on its
/// `violations/` fixture, and is suppressible (`allowed/` silent,
/// `clean/` silent). This is the CI guard against the analyzer
/// silently going blind.
fn self_check(root: &Path) -> Result<(), String> {
    let fixtures = root.join("crates/lint/fixtures");
    let class = FileClass::Library { numeric: true };
    let scan = |sub: &str| -> Result<Vec<(PathBuf, Vec<Finding>)>, String> {
        let mut out = Vec::new();
        for f in fixture_files(&fixtures.join(sub))? {
            let src = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            out.push((
                f.clone(),
                analyze_source_full(&f.display().to_string(), &src, class),
            ));
        }
        Ok(out)
    };

    let violations = scan("violations")?;
    let allowed = scan("allowed")?;
    let mut failures = Vec::new();

    // Coverage: every rule needs a dedicated violations/ and allowed/
    // fixture — a rule with no fixture can go blind without CI
    // noticing.
    for rule in RULES {
        for (sub, set) in [("violations", &violations), ("allowed", &allowed)] {
            if !set.iter().any(|(f, _)| covers_rule(f, rule.id)) {
                failures.push(format!(
                    "rule {} has no {sub}/ fixture (expected a file or directory named {})",
                    rule.id,
                    rule.id.to_ascii_lowercase()
                ));
            }
        }
    }

    let fired: BTreeSet<&str> = violations
        .iter()
        .flat_map(|(_, fs)| fs.iter().map(|f| f.rule))
        .collect();
    for rule in RULES {
        if !fired.contains(rule.id) {
            failures.push(format!(
                "rule {} no longer fires on its violation fixture",
                rule.id
            ));
        }
    }
    for (sub, set) in [("allowed", &allowed), ("clean", &scan("clean")?)] {
        for (_, fs) in set {
            for f in fs {
                failures.push(format!(
                    "{} fixture should be silent but {} fired at {}:{}",
                    sub, f.rule, f.path, f.line
                ));
            }
        }
    }
    if failures.is_empty() {
        println!(
            "samurai-lint self-check: all {} rules have fixture coverage, fire and are suppressible",
            RULES.len()
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;

    if let Some(id) = &opts.explain {
        let rule = rule_by_id(id).ok_or_else(|| {
            let known: Vec<&str> = RULES.iter().map(|r| r.id).collect();
            format!("unknown rule `{id}`; known rules: {}", known.join(", "))
        })?;
        print!("{}", render_explain(rule));
        return Ok(ExitCode::SUCCESS);
    }

    if opts.self_check {
        let root = workspace_root(&opts)?;
        self_check(&root)?;
        return Ok(ExitCode::SUCCESS);
    }

    let findings = if opts.paths.is_empty() {
        let root = workspace_root(&opts)?;
        let analysis = analyze_workspace_full(&root).map_err(|e| e.to_string())?;
        if let Some(out) = &opts.graph {
            let graph = CallGraph::build(&analysis.records, Some(&analysis.deps));
            std::fs::write(out, graph.graph_json())
                .map_err(|e| format!("{}: {e}", out.display()))?;
            eprintln!(
                "samurai-lint: call graph ({} nodes, {} edges) written to {}",
                graph.nodes.len(),
                graph.edges.len(),
                out.display()
            );
        }
        analysis.findings
    } else {
        // Explicit paths are linted under the strictest class, with
        // both passes over each single file.
        let mut all = Vec::new();
        for p in &opts.paths {
            let src = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            all.extend(analyze_source_full(
                &p.display().to_string(),
                &src,
                FileClass::Library { numeric: true },
            ));
        }
        all
    };

    if opts.json {
        print!("{}", render_json(&findings));
    } else {
        print!("{}", render_report(&findings));
    }

    if opts.deny && !findings.is_empty() {
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("samurai-lint: {msg}");
            ExitCode::FAILURE
        }
    }
}
