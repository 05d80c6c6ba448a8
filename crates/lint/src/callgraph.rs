//! Pass 2 of the workspace analyzer: the call graph and the semantic
//! rule families.
//!
//! The graph's nodes are the [`crate::parser::Item`]s of every
//! analyzed file; edges come from the approximate call resolution
//! described in [`crate::parser`], pruned by the first-party crate
//! dependency graph (a `core` function cannot call into `bench`, so
//! no edge is drawn there even when method names collide). Three rule
//! families run over the graph:
//!
//! * **HOTPATH** (`HOT101`–`HOT103`) — breadth-first reachability from
//!   the hot roots (calls made inside `// lint: hot-loop` regions, and
//!   items annotated `// lint: hot-fn`). Every reachable function must
//!   be free of allocation, cloning and container growth; a violation
//!   reports the full call chain from the root so the reader can see
//!   *why* the function is hot.
//! * **DRAW** (`DRW001`–`DRW002`) — the fixed-draw-order contract of
//!   the sampling modules (`scenario.rs`, `profile.rs`): no RNG draw
//!   under an `if`/`match`/early-`return` guard unless annotated
//!   `// lint: fixed-draw: reason`, and every public sampling fn
//!   consumes a threaded job-indexed RNG instead of constructing one.
//! * **CALLGRAPH** (`CG001`) — layering: functions in numeric crates
//!   reachable from `run_ensemble*` must not call into tool-class
//!   crates (recognised by `samurai_bench::` / `samurai_lint::` call
//!   paths).
//!
//! Reachability is computed once, breadth-first from all roots
//! simultaneously with parent pointers, so every diagnostic renders a
//! shortest witness chain and the whole pass stays linear in edges.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parser::{Call, FileRecord, Recv};
use crate::report::escape;
use crate::rules::{FileClass, Finding};

/// Crate-visibility map: crate directory name → the crate directory
/// names it may call (itself plus its transitive first-party
/// dependencies). `None` passed to [`CallGraph::build`] disables
/// pruning — the single-file fixture mode.
pub type DepMap = BTreeMap<String, BTreeSet<String>>;

/// Leading path segments that mark a call into tool-class code
/// (CG001).
const TOOL_PATH_ROOTS: &[&str] = &["samurai_bench", "samurai_lint"];

/// Method names never resolved across the workspace. These are the
/// ubiquitous std surface (and the HOTPATH effect methods, which are
/// reported where they occur): resolving `.len(` or `.clone(` to
/// every workspace impl with that name would draw edges between
/// unrelated types and drown the reachability pass in false paths.
const METHOD_STOPLIST: &[&str] = &[
    // effect methods — already reported at the call site
    "clone",
    "cloned",
    "to_vec",
    "to_owned",
    "to_string",
    "push",
    "collect",
    "extend",
    "insert",
    "with_capacity", // std operator traits — every numeric type implements these names
    "add",
    "sub",
    "mul",
    "div",
    "rem",
    "neg",
    "index",
    "index_mut",
    "deref",
    // std containers / options / results
    "len",
    "is_empty",
    "get",
    "get_mut",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "fold",
    "sum",
    "product",
    "zip",
    "enumerate",
    "rev",
    "take",
    "skip",
    "take_while",
    "skip_while",
    "step_by",
    "chain",
    "find",
    "position",
    "any",
    "all",
    "count",
    "last",
    "first",
    "peekable",
    "peek",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "ok",
    "err",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "unwrap",
    "expect",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_bytes",
    "as_deref",
    "clear",
    "contains",
    "contains_key",
    "copy_from_slice",
    "fill",
    "swap",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "split",
    "remove",
    "entry",
    "drain",
    "retain",
    "resize",
    "truncate",
    "windows",
    "chunks",
    "join", // float / ord surface
    "min",
    "max",
    "abs",
    "sqrt",
    "exp",
    "ln",
    "powi",
    "powf",
    "floor",
    "ceil",
    "round",
    "signum",
    "mul_add",
    "hypot",
    "atan2",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "total_cmp",
    "partial_cmp",
    "cmp",
    "eq",
    "ne",
    "hash",
    "to_bits",
    "from_bits",
    "is_finite",
    "is_nan",
    "saturating_sub",
    "saturating_add",
    "wrapping_sub",
    "wrapping_add",
    "checked_sub",
    "checked_add", // strings / io / rng primitives
    "fmt",
    "write",
    "write_str",
    "push_str",
    "parse",
    "trim",
    "starts_with",
    "ends_with",
    "chars",
    "bytes",
    "split_whitespace",
    "gen",
    "gen_range",
    "gen_bool",
    "sample_iter",
];

/// One graph node: an item addressed by file and item index.
#[derive(Debug, Clone, Copy)]
pub struct NodeRef {
    /// Index into the record slice the graph was built over.
    pub file: usize,
    /// Index into that record's `items`.
    pub item: usize,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Caller node id.
    pub from: usize,
    /// Callee node id.
    pub to: usize,
    /// 1-based source line of the call site.
    pub line: usize,
}

/// One hot-path root.
#[derive(Debug, Clone)]
pub enum Root {
    /// A call made lexically inside a `// lint: hot-loop` region.
    HotLoop {
        /// File containing the region.
        path: String,
        /// Call-site line.
        line: usize,
        /// The resolved callee node.
        target: usize,
    },
    /// An item annotated `// lint: hot-fn`.
    HotFn {
        /// The annotated node.
        node: usize,
    },
}

impl Root {
    fn target(&self) -> usize {
        match self {
            Root::HotLoop { target, .. } => *target,
            Root::HotFn { node } => *node,
        }
    }
}

/// The workspace call graph with hot-path and ensemble reachability.
pub struct CallGraph<'a> {
    records: &'a [FileRecord],
    /// All items, in file order.
    pub nodes: Vec<NodeRef>,
    /// All resolved edges, deduplicated, in caller order.
    pub edges: Vec<Edge>,
    adj: Vec<Vec<(usize, usize)>>,
    /// Hot-path roots in discovery order.
    pub roots: Vec<Root>,
    /// Nodes named `run_ensemble*` in numeric crates (CG001 roots).
    pub ensemble_roots: Vec<usize>,
    /// Per node: `(root index, BFS parent)` once hot-reachable.
    hot_prev: Vec<Option<(usize, Option<usize>)>>,
    /// Per node: `(root node, BFS parent)` once ensemble-reachable.
    ens_prev: Vec<Option<(usize, Option<usize>)>>,
}

struct Indexes<'a> {
    by_method: BTreeMap<&'a str, Vec<usize>>,
    by_type_method: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    by_bare: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph and computes both reachability passes.
    pub fn build(records: &'a [FileRecord], deps: Option<&DepMap>) -> Self {
        let mut nodes = Vec::new();
        for (fi, rec) in records.iter().enumerate() {
            for ii in 0..rec.items.len() {
                nodes.push(NodeRef { file: fi, item: ii });
            }
        }

        let mut idx = Indexes {
            by_method: BTreeMap::new(),
            by_type_method: BTreeMap::new(),
            by_bare: BTreeMap::new(),
        };
        for (n, nref) in nodes.iter().enumerate() {
            let item = &records[nref.file].items[nref.item];
            match &item.impl_type {
                Some(ty) => {
                    idx.by_method.entry(&item.name).or_default().push(n);
                    idx.by_type_method
                        .entry((ty.as_str(), item.name.as_str()))
                        .or_default()
                        .push(n);
                }
                None => idx.by_bare.entry(&item.name).or_default().push(n),
            }
        }

        let mut edges = Vec::new();
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nodes.len()];
        for (n, nref) in nodes.iter().enumerate() {
            let rec = &records[nref.file];
            let item = &rec.items[nref.item];
            for call in &item.calls {
                for t in resolve(records, &nodes, &idx, deps, rec.crate_name(), call) {
                    let e = Edge {
                        from: n,
                        to: t,
                        line: call.line,
                    };
                    if !adj[n].contains(&(t, call.line)) {
                        adj[n].push((t, call.line));
                        edges.push(e);
                    }
                }
            }
        }

        let mut roots = Vec::new();
        for rec in records {
            for call in &rec.hot_calls {
                for t in resolve(records, &nodes, &idx, deps, rec.crate_name(), call) {
                    roots.push(Root::HotLoop {
                        path: rec.path.clone(),
                        line: call.line,
                        target: t,
                    });
                }
            }
        }
        for (n, nref) in nodes.iter().enumerate() {
            if records[nref.file].items[nref.item].hot_fn {
                roots.push(Root::HotFn { node: n });
            }
        }

        let hot_prev = bfs(
            &adj,
            nodes.len(),
            roots.iter().enumerate().map(|(ri, r)| (ri, r.target())),
        );

        let ensemble_roots: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, nref)| {
                records[nref.file].items[nref.item]
                    .name
                    .starts_with("run_ensemble")
                    && records[nref.file].class == FileClass::Library { numeric: true }
            })
            .map(|(n, _)| n)
            .collect();
        let ens_prev = bfs(&adj, nodes.len(), ensemble_roots.iter().map(|&n| (n, n)));

        CallGraph {
            records,
            nodes,
            edges,
            adj,
            roots,
            ensemble_roots,
            hot_prev,
            ens_prev,
        }
    }

    /// The display name of node `n`.
    pub fn display(&self, n: usize) -> String {
        let nref = self.nodes[n];
        self.records[nref.file].items[nref.item].display_name()
    }

    /// Looks a node up by display name (first match, file order).
    pub fn node_by_name(&self, display: &str) -> Option<usize> {
        (0..self.nodes.len()).find(|&n| self.display(n) == display)
    }

    /// `true` if node `n` is reachable from a hot root.
    pub fn hot_reachable(&self, n: usize) -> bool {
        self.hot_prev[n].is_some()
    }

    /// `true` if node `n` is reachable from a `run_ensemble*` root.
    pub fn ensemble_reachable(&self, n: usize) -> bool {
        self.ens_prev[n].is_some()
    }

    /// The witness chain from a hot root to node `n`, e.g.
    /// `hot-loop at crates/core/src/uniformisation.rs:117 ->
    /// `Thinning::thin` -> `PropensityModel::propensities``.
    pub fn hot_chain(&self, n: usize) -> String {
        let (root_idx, names) = chain_to_root(&self.hot_prev, n, |m| self.display(m));
        let spine = names.join(" -> ");
        match &self.roots[root_idx] {
            Root::HotLoop { path, line, .. } => {
                format!("hot-loop at {path}:{line} -> {spine}")
            }
            Root::HotFn { .. } => format!("hot-fn {spine}"),
        }
    }

    /// The witness chain from a `run_ensemble*` root to node `n`.
    pub fn ensemble_chain(&self, n: usize) -> String {
        let (_, names) = chain_to_root(&self.ens_prev, n, |m| self.display(m));
        format!("ensemble path {}", names.join(" -> "))
    }

    /// Runs the HOTPATH, DRAW and CALLGRAPH rule families.
    pub fn semantic_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();

        for (n, nref) in self.nodes.iter().enumerate() {
            let rec = &self.records[nref.file];
            let item = &rec.items[nref.item];

            // --- HOTPATH -----------------------------------------
            if self.hot_prev[n].is_some() {
                for e in &item.effects {
                    if rec.allowed(e.line, e.rule) {
                        continue;
                    }
                    out.push(Finding {
                        rule: e.rule,
                        path: rec.path.clone(),
                        line: e.line,
                        message: format!(
                            "{} in `{}` on a hot path: {}",
                            e.what,
                            item.display_name(),
                            self.hot_chain(n)
                        ),
                    });
                }
            }

            // --- DRAW --------------------------------------------
            if rec.is_sampling_module() && matches!(rec.class, FileClass::Library { .. }) {
                for d in &item.draws {
                    if !d.guarded
                        || rec.fixed_draw_lines.contains(&d.line)
                        || rec.allowed(d.line, "DRW001")
                    {
                        continue;
                    }
                    out.push(Finding {
                        rule: "DRW001",
                        path: rec.path.clone(),
                        line: d.line,
                        message: format!(
                            "`{}(..)` drawn under a conditional guard in `{}`; a skipped draw \
                             changes the per-job stream layout — annotate \
                             `// lint: fixed-draw: reason` if the guard is the stream contract",
                            d.name,
                            item.display_name()
                        ),
                    });
                }
                if item.is_pub
                    && !item.draws.is_empty()
                    && !item.has_rng_param
                    && !rec.allowed(item.line, "DRW002")
                {
                    out.push(Finding {
                        rule: "DRW002",
                        path: rec.path.clone(),
                        line: item.line,
                        message: format!(
                            "public sampling fn `{}` draws without an RNG parameter; consume \
                             the job-indexed RNG instead of hiding the stream",
                            item.display_name()
                        ),
                    });
                }
                for &l in &item.rng_ctor_lines {
                    if rec.allowed(l, "DRW002") {
                        continue;
                    }
                    out.push(Finding {
                        rule: "DRW002",
                        path: rec.path.clone(),
                        line: l,
                        message: format!(
                            "`{}` constructs its own RNG; sampling code must consume the \
                             job-indexed RNG it is handed",
                            item.display_name()
                        ),
                    });
                }
            }

            // --- CALLGRAPH ---------------------------------------
            if self.ens_prev[n].is_some() && rec.class == (FileClass::Library { numeric: true }) {
                for call in &item.calls {
                    let Recv::Path(segs) = &call.recv else {
                        continue;
                    };
                    let Some(first) = segs.first() else {
                        continue;
                    };
                    if !TOOL_PATH_ROOTS.contains(&first.as_str()) || rec.allowed(call.line, "CG001")
                    {
                        continue;
                    }
                    out.push(Finding {
                        rule: "CG001",
                        path: rec.path.clone(),
                        line: call.line,
                        message: format!(
                            "`{}::{}` is tool-crate code called on the ensemble path: {}; \
                             numeric crates must stay independent of tooling",
                            segs.join("::"),
                            call.name,
                            self.ensemble_chain(n)
                        ),
                    });
                }
            }
        }

        out.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
                b.path.as_str(),
                b.line,
                b.rule,
                b.message.as_str(),
            ))
        });
        out
    }

    /// Dumps the graph as JSON (`samurai-lint-graph-v1`) for the
    /// bench/telemetry tooling.
    pub fn graph_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"samurai-lint-graph-v1\",\n  \"nodes\": [");
        for (n, nref) in self.nodes.iter().enumerate() {
            let rec = &self.records[nref.file];
            let item = &rec.items[nref.item];
            let krate = rec
                .crate_name()
                .map_or("null".to_string(), |c| format!("\"{}\"", escape(c)));
            out.push_str(&format!(
                "{}\n    {{\"id\": {n}, \"name\": \"{}\", \"path\": \"{}\", \"line\": {}, \
                 \"crate\": {krate}, \"hot_fn\": {}, \"hot_reachable\": {}, \
                 \"ensemble_reachable\": {}}}",
                if n == 0 { "" } else { "," },
                escape(&item.display_name()),
                escape(&rec.path),
                item.line,
                item.hot_fn,
                self.hot_prev[n].is_some(),
                self.ens_prev[n].is_some(),
            ));
        }
        out.push_str(if self.nodes.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"edges\": [");
        for (i, e) in self.edges.iter().enumerate() {
            out.push_str(&format!(
                "{}\n    {{\"from\": {}, \"to\": {}, \"line\": {}}}",
                if i == 0 { "" } else { "," },
                e.from,
                e.to,
                e.line
            ));
        }
        out.push_str(if self.edges.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"hot_roots\": [");
        for (i, r) in self.roots.iter().enumerate() {
            let body = match r {
                Root::HotLoop { path, line, target } => format!(
                    "{{\"kind\": \"hot-loop\", \"path\": \"{}\", \"line\": {line}, \
                     \"target\": {target}}}",
                    escape(path)
                ),
                Root::HotFn { node } => {
                    format!("{{\"kind\": \"hot-fn\", \"target\": {node}}}")
                }
            };
            out.push_str(&format!("{}\n    {body}", if i == 0 { "" } else { "," }));
        }
        out.push_str(if self.roots.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        let roots: Vec<String> = self.ensemble_roots.iter().map(usize::to_string).collect();
        out.push_str(&format!(
            "  \"ensemble_roots\": [{}]\n}}\n",
            roots.join(", ")
        ));
        out
    }

    /// The adjacency list of node `n` as `(callee, line)` pairs.
    pub fn callees(&self, n: usize) -> &[(usize, usize)] {
        &self.adj[n]
    }
}

/// Builds the full analysis for a record set and returns the semantic
/// findings (the one-call form used by single-file fixture analysis).
pub fn analyze_records(records: &[FileRecord], deps: Option<&DepMap>) -> Vec<Finding> {
    CallGraph::build(records, deps).semantic_findings()
}

/// Multi-root BFS with parent pointers: `seeds` yields
/// `(tag, start_node)` pairs; the result holds `(tag, parent)` for
/// every reached node, first visit wins.
fn bfs(
    adj: &[Vec<(usize, usize)>],
    n_nodes: usize,
    seeds: impl Iterator<Item = (usize, usize)>,
) -> Vec<Option<(usize, Option<usize>)>> {
    let mut prev: Vec<Option<(usize, Option<usize>)>> = vec![None; n_nodes];
    let mut queue = VecDeque::new();
    for (tag, start) in seeds {
        if prev[start].is_none() {
            prev[start] = Some((tag, None));
            queue.push_back(start);
        }
    }
    while let Some(n) = queue.pop_front() {
        let Some((tag, _)) = prev[n] else { continue };
        for &(m, _) in &adj[n] {
            if prev[m].is_none() {
                prev[m] = Some((tag, Some(n)));
                queue.push_back(m);
            }
        }
    }
    prev
}

/// Walks parent pointers from `n` to its root, returning the root's
/// tag and the backquoted node names root-first.
fn chain_to_root(
    prev: &[Option<(usize, Option<usize>)>],
    n: usize,
    display: impl Fn(usize) -> String,
) -> (usize, Vec<String>) {
    let mut names = Vec::new();
    let mut cur = n;
    loop {
        let Some((tag, parent)) = prev[cur] else {
            // Unreachable nodes never ask for a chain; keep the
            // renderer total anyway.
            names.reverse();
            return (0, names);
        };
        names.push(format!("`{}`", display(cur)));
        match parent {
            Some(p) => cur = p,
            None => {
                names.reverse();
                return (tag, names);
            }
        }
    }
}

/// Resolves one call site to candidate nodes, honoring the crate
/// dependency filter.
fn resolve(
    records: &[FileRecord],
    nodes: &[NodeRef],
    idx: &Indexes<'_>,
    deps: Option<&DepMap>,
    caller_crate: Option<&str>,
    call: &Call,
) -> Vec<usize> {
    let candidates: &[usize] = match &call.recv {
        Recv::Method => {
            if METHOD_STOPLIST.contains(&call.name.as_str()) {
                return Vec::new();
            }
            idx.by_method
                .get(call.name.as_str())
                .map_or(&[][..], Vec::as_slice)
        }
        Recv::Bare => idx
            .by_bare
            .get(call.name.as_str())
            .map_or(&[][..], Vec::as_slice),
        Recv::Path(segs) => {
            let last = segs.last().map(String::as_str).unwrap_or("");
            if last.starts_with(char::is_uppercase) {
                idx.by_type_method
                    .get(&(last, call.name.as_str()))
                    .map_or(&[][..], Vec::as_slice)
            } else {
                // `module::free_fn(..)` — resolve by bare name.
                idx.by_bare
                    .get(call.name.as_str())
                    .map_or(&[][..], Vec::as_slice)
            }
        }
    };
    candidates
        .iter()
        .copied()
        .filter(|&t| {
            let target_crate = records[nodes[t].file].crate_name();
            visible(deps, caller_crate, target_crate)
        })
        .collect()
}

/// Crate-dependency visibility: without a map (or for paths outside
/// `crates/`) everything is visible; with one, a caller sees itself
/// and its transitive first-party dependencies.
fn visible(deps: Option<&DepMap>, caller: Option<&str>, target: Option<&str>) -> bool {
    match (deps, caller, target) {
        (Some(d), Some(c), Some(t)) => c == t || d.get(c).is_some_and(|s| s.contains(t)),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;
    use crate::parser::parse_file;
    use crate::tokenizer::tokenize;

    fn rec(path: &str, class: FileClass, src: &str) -> FileRecord {
        let (toks, comments) = tokenize(src);
        let ctx = FileContext::build(&toks, &comments);
        parse_file(path, class, &toks, &ctx)
    }

    const NUM: FileClass = FileClass::Library { numeric: true };

    #[test]
    fn edges_resolve_bare_path_and_method_calls() {
        let records = [rec(
            "crates/core/src/lib.rs",
            NUM,
            "pub fn a() { b(); W::make(); }\n\
             fn b() {}\n\
             struct W;\n\
             impl W {\n    fn make() { helper(); }\n}\n\
             fn helper() {}\n",
        )];
        let g = CallGraph::build(&records, None);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let make = g.node_by_name("W::make").unwrap();
        let helper = g.node_by_name("helper").unwrap();
        assert!(g.callees(a).iter().any(|&(t, _)| t == b));
        assert!(g.callees(a).iter().any(|&(t, _)| t == make));
        assert!(g.callees(make).iter().any(|&(t, _)| t == helper));
    }

    #[test]
    fn dependency_filter_prunes_cross_crate_name_collisions() {
        let caller = rec(
            "crates/core/src/lib.rs",
            NUM,
            "// lint: hot-fn\npub fn kernel(s: &S) { s.evaluate(); }\n",
        );
        let in_dep = rec(
            "crates/trap/src/lib.rs",
            NUM,
            "impl S {\n    pub fn evaluate(&self) { let v = Vec::new(); drop(v); }\n}\n",
        );
        let out_of_dep = rec(
            "crates/bench/src/lib.rs",
            FileClass::Tool,
            "impl T {\n    pub fn evaluate(&self) { let v = Vec::new(); drop(v); }\n}\n",
        );
        let records = [caller, in_dep, out_of_dep];
        let mut deps = DepMap::new();
        deps.insert(
            "core".into(),
            ["core", "trap"].iter().map(|s| s.to_string()).collect(),
        );
        let g = CallGraph::build(&records, Some(&deps));
        let dep_node = g.node_by_name("S::evaluate").unwrap();
        let tool_node = g.node_by_name("T::evaluate").unwrap();
        assert!(g.hot_reachable(dep_node));
        assert!(
            !g.hot_reachable(tool_node),
            "bench is not a dependency of core; no edge may exist"
        );
    }

    #[test]
    fn hot_chain_text_is_pinned() {
        let records = [rec(
            "crates/core/src/run.rs",
            NUM,
            "fn outer() {\n\
             // lint: hot-loop\n\
             stage(1.0);\n\
             // lint: end-hot-loop\n\
             }\n\
             fn stage(x: f64) { deep(x); }\n\
             fn deep(x: f64) { let v = x.to_string(); drop(v); }\n",
        )];
        let g = CallGraph::build(&records, None);
        let findings = g.semantic_findings();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "HOT101");
        assert_eq!(findings[0].line, 7);
        assert_eq!(
            findings[0].message,
            "`.to_string()` allocates in `deep` on a hot path: \
             hot-loop at crates/core/src/run.rs:3 -> `stage` -> `deep`"
        );
    }

    #[test]
    fn hot_fn_roots_report_their_own_effects() {
        let records = [rec(
            "crates/core/src/k.rs",
            NUM,
            "// lint: hot-fn\npub fn kernel(xs: &[f64]) -> Vec<f64> { xs.to_vec() }\n",
        )];
        let f = CallGraph::build(&records, None).semantic_findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "HOT102");
        assert!(f[0].message.contains("hot-fn `kernel`"), "{}", f[0].message);
    }

    #[test]
    fn allows_silence_hotpath_findings() {
        let records = [rec(
            "crates/core/src/k.rs",
            NUM,
            "// lint: hot-fn\npub fn kernel(xs: &[f64]) -> Vec<f64> {\n\
             xs.to_vec() // lint: allow(HOT102): one-time setup copy\n}\n",
        )];
        assert!(CallGraph::build(&records, None)
            .semantic_findings()
            .is_empty());
    }

    #[test]
    fn guarded_draws_fire_drw001_unless_fixed_draw() {
        let bad = [rec(
            "crates/core/src/scenario.rs",
            NUM,
            "pub fn sample(rng: &mut R, on: bool) -> f64 {\n\
             if on { standard_normal(rng) } else { 0.0 }\n}\n",
        )];
        let f = CallGraph::build(&bad, None).semantic_findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "DRW001");

        let ok = [rec(
            "crates/core/src/scenario.rs",
            NUM,
            "pub fn sample(rng: &mut R, on: bool) -> f64 {\n\
             // lint: fixed-draw: disabled axis still has a slot upstream\n\
             if on { standard_normal(rng) } else { 0.0 }\n}\n",
        )];
        assert!(CallGraph::build(&ok, None).semantic_findings().is_empty());
    }

    #[test]
    fn drw001_only_applies_to_sampling_modules() {
        let records = [rec(
            "crates/core/src/other.rs",
            NUM,
            "pub fn f(rng: &mut R, on: bool) -> f64 { if on { rng.gen() } else { 0.0 } }\n",
        )];
        assert!(CallGraph::build(&records, None)
            .semantic_findings()
            .is_empty());
    }

    #[test]
    fn drw002_requires_threaded_rng_in_public_sampling_fns() {
        let records = [rec(
            "crates/core/src/scenario.rs",
            NUM,
            "pub fn sample(seed: u64) -> f64 {\n\
             let mut r = ChaCha8Rng::seed_from_u64(seed);\nr.gen()\n}\n",
        )];
        let f = CallGraph::build(&records, None).semantic_findings();
        let rules: Vec<&str> = f.iter().map(|f| f.rule).collect();
        // Missing RNG param (line 1) and in-body construction (line 2).
        assert_eq!(rules, ["DRW002", "DRW002"]);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn cg001_flags_tool_calls_on_the_ensemble_path() {
        let records = [rec(
            "crates/core/src/ensemble.rs",
            NUM,
            "pub fn run_ensemble_checkpointed() { worker(); }\n\
             fn worker() { samurai_bench::emit_summary(); }\n",
        )];
        let f = CallGraph::build(&records, None).semantic_findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "CG001");
        assert_eq!(f[0].line, 2);
        assert!(
            f[0].message
                .contains("ensemble path `run_ensemble_checkpointed` -> `worker`"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn graph_json_is_schema_stable() {
        let records = [rec(
            "crates/core/src/lib.rs",
            NUM,
            "// lint: hot-fn\npub fn a() { b(); }\nfn b() {}\n",
        )];
        let g = CallGraph::build(&records, None);
        let json = g.graph_json();
        assert!(json.contains("\"schema\": \"samurai-lint-graph-v1\""));
        assert!(json.contains("\"name\": \"a\""));
        assert!(json.contains("\"crate\": \"core\""));
        assert!(json.contains("\"hot_reachable\": true"));
        assert!(json.contains("\"kind\": \"hot-fn\""));
        assert!(json.contains("\"from\": 0"));
    }
}
