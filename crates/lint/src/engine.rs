//! Workspace discovery, file classification and the two-pass driver.
//!
//! The analyzer walks the *first-party* crates only (`crates/*/src`),
//! never `vendor/` (offline API stubs we do not own) and never
//! `target/`. Classification is by crate directory name:
//!
//! | crates        | class                 | rule families            |
//! |---------------|-----------------------|--------------------------|
//! | core, spice, sram, trap | numeric library | DET (incl. DET004), HOT, HYG, UNS, HOTPATH, DRAW, CG |
//! | units, waveform, analysis, samurai, (new crates) | library | DET, HOT, HYG, UNS, HOTPATH, DRAW |
//! | bench, lint, any `src/bin/` file | tool   | HOT, UNS, HOTPATH        |
//!
//! Analysis is two-pass. Pass 1 is per-file: tokenize, run the
//! token-level rules, and parse the item index ([`crate::parser`]).
//! Pass 2 is whole-workspace: build the call graph over all item
//! indexes, pruned by the first-party crate dependency graph read from
//! the `Cargo.toml`s, and run the HOTPATH/DRAW/CALLGRAPH families
//! ([`crate::callgraph`]).
//!
//! Integration tests (`tests/`), benches and examples are not scanned:
//! panicking and ad-hoc comparison are legitimate there, and the
//! in-file `#[cfg(test)]` regions are already exempted by the context.
//! Unknown new crates default to the (non-numeric) library class, so a
//! freshly added crate is linted strictly from its first commit.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::{CallGraph, DepMap};
use crate::context::FileContext;
use crate::parser::{parse_file, FileRecord};
use crate::rules::{check_tokens, FileClass, Finding};
use crate::tokenizer::tokenize;

/// Crates on the numeric result path: unordered collections banned.
const NUMERIC_CRATES: &[&str] = &["core", "spice", "sram", "trap"];

/// Developer tooling: only hot-loop and unsafe rules apply.
const TOOL_CRATES: &[&str] = &["bench", "lint"];

/// The result of a full two-pass workspace analysis.
pub struct WorkspaceAnalysis {
    /// All findings (token-level and semantic), sorted.
    pub findings: Vec<Finding>,
    /// Per-file pass-1 output, in analysis order — build a
    /// [`CallGraph`] over it for `--graph`.
    pub records: Vec<FileRecord>,
    /// The first-party crate dependency closure used for pruning.
    pub deps: DepMap,
}

/// Analyzes one source string under an explicit classification —
/// token rules only (the historical single-pass surface, still used
/// by unit tests).
pub fn analyze_source(path: &str, src: &str, class: FileClass) -> Vec<Finding> {
    let (toks, comments) = tokenize(src);
    let ctx = FileContext::build(&toks, &comments);
    check_tokens(path, class, &toks, &ctx)
}

/// Analyzes one source string with both passes: token rules plus the
/// semantic families over a single-file call graph (no dependency
/// pruning). This is what fixtures and explicit-path mode run.
pub fn analyze_source_full(path: &str, src: &str, class: FileClass) -> Vec<Finding> {
    let rec = pass1(path, src, class);
    let mut findings = rec.token_findings.clone();
    let records = [rec];
    findings.extend(CallGraph::build(&records, None).semantic_findings());
    sort_findings(&mut findings);
    findings
}

/// Pass 1 for one file: token findings plus the parsed item index.
fn pass1(path: &str, src: &str, class: FileClass) -> FileRecord {
    let (toks, comments) = tokenize(src);
    let ctx = FileContext::build(&toks, &comments);
    let mut rec = parse_file(path, class, &toks, &ctx);
    rec.token_findings = check_tokens(path, class, &toks, &ctx);
    rec
}

/// The classification of crate `name`.
pub fn classify_crate(name: &str) -> FileClass {
    if TOOL_CRATES.contains(&name) {
        FileClass::Tool
    } else {
        FileClass::Library {
            numeric: NUMERIC_CRATES.contains(&name),
        }
    }
}

/// Walks `root/crates/*/src` and runs both passes; returns findings
/// only. Kept as the stable entry point for callers that do not need
/// the graph (`analyze_workspace_full` for the rest).
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(analyze_workspace_full(root)?.findings)
}

/// The full two-pass workspace analysis.
pub fn analyze_workspace_full(root: &Path) -> io::Result<WorkspaceAnalysis> {
    let mut records = Vec::new();

    for (file, src_dir, crate_class) in workspace_files(root)? {
        // Binary targets are tooling even inside library crates.
        let class = if file
            .strip_prefix(&src_dir)
            .ok()
            .is_some_and(|rel| rel.starts_with("bin"))
        {
            FileClass::Tool
        } else {
            crate_class
        };
        let src = fs::read_to_string(&file)?;
        let label = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .display()
            .to_string();
        records.push(pass1(&label, &src, class));
    }

    let deps = crate_deps(root)?;
    let mut findings: Vec<Finding> = records
        .iter()
        .flat_map(|r| r.token_findings.iter().cloned())
        .collect();
    findings.extend(CallGraph::build(&records, Some(&deps)).semantic_findings());
    sort_findings(&mut findings);
    Ok(WorkspaceAnalysis {
        findings,
        records,
        deps,
    })
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
}

/// Enumerates the workspace's first-party `.rs` files in
/// deterministic (sorted) order — the analyzer holds itself to the
/// determinism contract it enforces. Yields
/// `(file, crate_src_dir, crate_class)`.
fn workspace_files(root: &Path) -> io::Result<Vec<(PathBuf, PathBuf, FileClass)>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut out = Vec::new();
    for dir in crate_dirs {
        let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let crate_class = classify_crate(&name);
        let src_dir = dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for file in files {
            out.push((file, src_dir.clone(), crate_class));
        }
    }
    Ok(out)
}

/// Reads the first-party dependency graph out of the crate manifests
/// and closes it transitively. Keys and values are crate directory
/// names (`core`, not `samurai-core`); every crate sees itself.
pub fn crate_deps(root: &Path) -> io::Result<DepMap> {
    let crates_dir = root.join("crates");
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for entry in fs::read_dir(&crates_dir)? {
        let dir = entry?.path();
        let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let mut deps = BTreeSet::new();
        deps.insert(name.clone());
        for line in manifest.lines() {
            // `samurai-core = { workspace = true }` (or a path dep) —
            // the left-hand side names the first-party crate.
            let trimmed = line.trim_start();
            if let Some(rest) = trimmed.strip_prefix("samurai-") {
                if let Some(dep) = rest.split(['=', ' ', '.']).next() {
                    if rest[dep.len()..].trim_start().starts_with('=') && !dep.is_empty() {
                        deps.insert(dep.to_string());
                    }
                }
            }
        }
        direct.insert(name, deps);
    }

    // Transitive closure (the graph is tiny; fixpoint iteration).
    let mut closed = direct.clone();
    loop {
        let mut changed = false;
        for name in direct.keys() {
            let current: Vec<String> = closed[name].iter().cloned().collect();
            let mut add = BTreeSet::new();
            for dep in &current {
                if let Some(next) = closed.get(dep) {
                    for d in next {
                        if !closed[name].contains(d) {
                            add.insert(d.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                closed.get_mut(name).map(|s| s.extend(add)).unwrap_or(());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Ok(closed)
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Ascends from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_table() {
        assert_eq!(classify_crate("core"), FileClass::Library { numeric: true });
        assert_eq!(
            classify_crate("spice"),
            FileClass::Library { numeric: true }
        );
        assert_eq!(
            classify_crate("units"),
            FileClass::Library { numeric: false }
        );
        assert_eq!(classify_crate("bench"), FileClass::Tool);
        assert_eq!(classify_crate("lint"), FileClass::Tool);
        // Unknown crates are linted as libraries from day one.
        assert_eq!(
            classify_crate("brand-new"),
            FileClass::Library { numeric: false }
        );
    }

    #[test]
    fn analyze_source_is_deterministic() {
        let src = "fn f() { a.unwrap(); b.expect(\"x\"); }\n";
        let class = FileClass::Library { numeric: false };
        let a = analyze_source("f.rs", src, class);
        let b = analyze_source("f.rs", src, class);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn full_analysis_adds_semantic_findings() {
        let src = "// lint: hot-fn\npub fn kernel() { helper(); }\n\
                   fn helper() { let v = Vec::new(); drop(v); }\n";
        let class = FileClass::Library { numeric: true };
        let token_only = analyze_source("k.rs", src, class);
        assert!(token_only.is_empty(), "no token-level violation here");
        let full = analyze_source_full("k.rs", src, class);
        assert_eq!(full.len(), 1);
        assert_eq!(full[0].rule, "HOT101");
    }
}
