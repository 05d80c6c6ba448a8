//! Call-graph integration suite: pins the resolved edge set, the two
//! reachability frontiers and the exact witness-chain text over a
//! small synthetic multi-crate workspace.
//!
//! These are the contracts the semantic rule families stand on — an
//! edge that silently stops resolving, or a chain whose rendering
//! drifts, would make HOT101/CG001 diagnostics wrong without any unit
//! test noticing.

use std::collections::{BTreeMap, BTreeSet};

use samurai_lint::callgraph::{analyze_records, CallGraph, DepMap, Root};
use samurai_lint::context::FileContext;
use samurai_lint::parser::{parse_file, FileRecord};
use samurai_lint::tokenizer::tokenize;
use samurai_lint::FileClass;

const NUM: FileClass = FileClass::Library { numeric: true };

fn rec(path: &str, src: &str) -> FileRecord {
    let (toks, comments) = tokenize(src);
    let ctx = FileContext::build(&toks, &comments);
    parse_file(path, NUM, &toks, &ctx)
}

/// A three-crate workspace: `core` depends on `spice`, `trap` is
/// independent. `core::drive` runs a hot loop over `spice`'s stamping
/// kernel; `trap` has an identically named free fn that must NOT be
/// reached because `core` does not depend on `trap`.
fn workspace() -> Vec<FileRecord> {
    vec![
        rec(
            "crates/core/src/run.rs",
            "pub fn drive(m: &mut M) {\n\
             \x20   // lint: hot-loop\n\
             \x20   stamp(m);\n\
             \x20   // lint: end-hot-loop\n\
             }\n\
             pub fn run_ensemble_checkpointed(jobs: usize) { for j in 0..jobs { worker(j); } }\n\
             fn worker(j: usize) { samurai_bench::probe::record(j); }\n",
        ),
        rec(
            "crates/spice/src/stamp.rs",
            "pub fn stamp(m: &mut M) { scratch(m); }\n\
             fn scratch(m: &mut M) { let v = m.values.to_vec(); drop(v); }\n",
        ),
        rec(
            "crates/trap/src/lib.rs",
            "pub fn stamp(m: &mut M) { let v = vec![0.0; 8]; drop(v); }\n",
        ),
    ]
}

fn deps() -> DepMap {
    let mut d: DepMap = BTreeMap::new();
    d.insert(
        "core".into(),
        ["core", "spice"].iter().map(|s| s.to_string()).collect(),
    );
    d.insert("spice".into(), BTreeSet::from(["spice".to_string()]));
    d.insert("trap".into(), BTreeSet::from(["trap".to_string()]));
    d
}

fn name(g: &CallGraph<'_>, n: usize) -> String {
    // Round-trip through node_by_name to keep the helper honest.
    for cand in [
        "drive",
        "run_ensemble_checkpointed",
        "worker",
        "stamp",
        "scratch",
    ] {
        if g.node_by_name(cand) == Some(n) {
            return cand.to_string();
        }
    }
    format!("#{n}")
}

#[test]
fn edge_set_is_exactly_the_dep_visible_calls() {
    let records = workspace();
    let deps = deps();
    let g = CallGraph::build(&records, Some(&deps));

    let mut edges: Vec<(String, String, usize)> = g
        .edges
        .iter()
        .map(|e| (name(&g, e.from), name(&g, e.to), e.line))
        .collect();
    edges.sort();
    assert_eq!(
        edges,
        vec![
            ("drive".to_string(), "stamp".to_string(), 3),
            (
                "run_ensemble_checkpointed".to_string(),
                "worker".to_string(),
                6
            ),
            ("stamp".to_string(), "scratch".to_string(), 1),
        ],
        "resolved edge set drifted"
    );

    // Dep pruning: `drive`'s bare `stamp(` call has two workspace
    // candidates; only the one in a crate `core` depends on resolves.
    // trap's `stamp` (file index 2) must take no incoming edges.
    let trap_nodes: BTreeSet<usize> = (0..g.nodes.len())
        .filter(|&n| g.nodes[n].file == 2)
        .collect();
    assert!(!trap_nodes.is_empty(), "trap's stamp is indexed as a node");
    assert!(
        g.edges.iter().all(|e| !trap_nodes.contains(&e.to)),
        "an edge crossed into a crate outside the caller's dep closure"
    );
}

#[test]
fn reachability_sets_are_pinned() {
    let records = workspace();
    let deps = deps();
    let g = CallGraph::build(&records, Some(&deps));

    // Hot frontier: the hot-loop region's callee and everything below
    // it — not the ensemble-only fns, not the unrelated trap fn.
    let hot: BTreeSet<String> = (0..g.nodes.len())
        .filter(|&n| g.hot_reachable(n))
        .map(|n| name(&g, n))
        .collect();
    assert_eq!(
        hot,
        ["scratch", "stamp"].iter().map(|s| s.to_string()).collect(),
        "hot-reachable set drifted"
    );

    // Ensemble frontier: entry point plus its worker.
    let ens: BTreeSet<String> = (0..g.nodes.len())
        .filter(|&n| g.ensemble_reachable(n))
        .map(|n| name(&g, n))
        .collect();
    assert_eq!(
        ens,
        ["run_ensemble_checkpointed", "worker"]
            .iter()
            .map(|s| s.to_string())
            .collect::<BTreeSet<String>>(),
        "ensemble-reachable set drifted"
    );

    // Root inventory: one hot-loop root targeting `stamp`.
    assert_eq!(g.roots.len(), 1);
    match &g.roots[0] {
        Root::HotLoop { path, line, target } => {
            assert_eq!(path.as_str(), "crates/core/src/run.rs");
            // The root pins the call *site* inside the region, not the
            // region-opening comment.
            assert_eq!(*line, 3);
            assert_eq!(name(&g, *target), "stamp");
        }
        other => panic!("expected a hot-loop root, got {other:?}"),
    }
    assert_eq!(g.ensemble_roots.len(), 1);
    assert_eq!(name(&g, g.ensemble_roots[0]), "run_ensemble_checkpointed");
}

#[test]
fn hot101_diagnostic_pins_the_full_chain_text() {
    let records = workspace();
    let deps = deps();
    let findings = analyze_records(&records, Some(&deps));

    let hot: Vec<_> = findings.iter().filter(|f| f.rule == "HOT102").collect();
    assert_eq!(hot.len(), 1, "{findings:?}");
    assert_eq!(hot[0].path, "crates/spice/src/stamp.rs");
    assert_eq!(hot[0].line, 2);
    assert_eq!(
        hot[0].message,
        "`.to_vec()` copies a buffer in `scratch` on a hot path: \
         hot-loop at crates/core/src/run.rs:3 -> `stamp` -> `scratch`",
        "chain text drifted: {}",
        hot[0].message
    );
}

#[test]
fn cg001_diagnostic_pins_the_ensemble_chain_text() {
    let records = workspace();
    let deps = deps();
    let findings = analyze_records(&records, Some(&deps));

    let cg: Vec<_> = findings.iter().filter(|f| f.rule == "CG001").collect();
    assert_eq!(cg.len(), 1, "{findings:?}");
    assert_eq!(cg[0].path, "crates/core/src/run.rs");
    assert_eq!(cg[0].line, 7);
    assert!(
        cg[0]
            .message
            .contains("ensemble path `run_ensemble_checkpointed` -> `worker`"),
        "{}",
        cg[0].message
    );
    assert!(cg[0].message.starts_with("`samurai_bench::probe::record`"));
}

#[test]
fn hot_fn_annotation_roots_its_own_subgraph() {
    let records = vec![rec(
        "crates/sram/src/kernel.rs",
        "// lint: hot-fn\n\
         pub fn eval(x: f64) -> f64 { helper(x) }\n\
         fn helper(x: f64) -> f64 { let s = x.to_string(); s.len() as f64 }\n",
    )];
    let findings = analyze_records(&records, None);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "HOT101");
    assert!(
        findings[0].message.ends_with("hot-fn `eval` -> `helper`"),
        "{}",
        findings[0].message
    );
}

#[test]
fn graph_json_round_trips_the_pinned_shape() {
    let records = workspace();
    let deps = deps();
    let g = CallGraph::build(&records, Some(&deps));
    let json = g.graph_json();

    assert!(json.contains("\"schema\": \"samurai-lint-graph-v1\""));
    assert!(json.contains("\"name\": \"run_ensemble_checkpointed\""));
    assert!(json.contains("\"kind\": \"hot-loop\""));
    // Reachability flags are materialised per node.
    assert!(json.contains("\"hot_reachable\": true"));
    assert!(json.contains("\"ensemble_reachable\": true"));
}
