//! Pass 1 of the workspace analyzer: the per-file item index.
//!
//! The tokenizer gives a flat token stream; this module recovers just
//! enough structure for cross-file analysis without a real parser:
//! `fn` items (free functions and `impl` methods) with their
//! brace-matched body extents, the calls each body makes, and the
//! body facts the semantic rule families key on — allocation /
//! clone / collect effects (HOT101–HOT103), RNG draw sites with their
//! conditional-guard status (DRW001), signature evidence of a threaded
//! RNG (DRW002), and in-body RNG construction (DRW002).
//!
//! Name resolution is deliberately approximate (no type information):
//! a `.method(..)` call names every workspace method with that name, a
//! `Type::method(..)` call names the methods of `impl Type` blocks,
//! and a bare `name(..)` call names the free functions. Pass 2
//! ([`crate::callgraph`]) prunes candidate sets with the crate
//! dependency graph, which keeps the over-approximation small enough
//! to act on.

use crate::context::FileContext;
use crate::rules::{FileClass, Finding};
use crate::tokenizer::{Tok, TokKind};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `recv.name(..)` — a method call on an unknown receiver type.
    Method,
    /// `a::b::name(..)` — a path-qualified call; the field holds the
    /// leading segments (`a`, `b`), with `Self` already resolved to
    /// the enclosing impl type.
    Path(Vec<String>),
    /// `name(..)` — an unqualified call.
    Bare,
}

/// One call site inside a function body or hot-loop region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// The callee's final path segment / method name.
    pub name: String,
    /// 1-based source line of the call.
    pub line: usize,
    /// How the callee is named.
    pub recv: Recv,
}

/// One rule-relevant body fact for the hot-path reachability pass.
#[derive(Debug, Clone)]
pub struct Effect {
    /// The HOTPATH rule the effect violates when hot-reachable.
    pub rule: &'static str,
    /// 1-based source line.
    pub line: usize,
    /// The offending construct, e.g. `` `Vec::new` ``.
    pub what: String,
}

/// One RNG draw site (DRW001).
#[derive(Debug, Clone)]
pub struct Draw {
    /// The draw primitive's name.
    pub name: String,
    /// 1-based source line.
    pub line: usize,
    /// `true` when the draw sits under an `if`/`match` guard or after
    /// a conditional early `return` in the same function.
    pub guarded: bool,
}

/// One indexed `fn` item.
#[derive(Debug, Clone)]
pub struct Item {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` type, if the item is a method.
    pub impl_type: Option<String>,
    /// `true` for `pub` (any visibility-qualified `pub(..)` counts).
    pub is_pub: bool,
    /// `true` when the signature threads an RNG (an `rng` parameter
    /// or an `Rng`/`ChaCha8Rng`/`SeedStream` bound).
    pub has_rng_param: bool,
    /// `true` when a `// lint: hot-fn` annotation marks the item as a
    /// hot-path root.
    pub hot_fn: bool,
    /// 1-based line of the `fn` name.
    pub line: usize,
    /// 1-based line of the body's closing brace.
    pub end_line: usize,
    /// Calls the body makes (nested items excluded).
    pub calls: Vec<Call>,
    /// Allocation/clone/collect facts for HOT101–HOT103.
    pub effects: Vec<Effect>,
    /// RNG draw sites for DRW001.
    pub draws: Vec<Draw>,
    /// Lines where the body constructs an RNG (DRW002).
    pub rng_ctor_lines: Vec<usize>,
}

impl Item {
    /// The item's display name: `Type::name` for methods, `name` for
    /// free functions.
    pub fn display_name(&self) -> String {
        match &self.impl_type {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything pass 2 needs to know about one analyzed file: a pure
/// function of the file's content and classification.
#[derive(Debug, Clone)]
pub struct FileRecord {
    /// Workspace-relative path as reported in findings.
    pub path: String,
    /// Classification the file was analyzed under.
    pub class: FileClass,
    /// The indexed `fn` items (test items excluded).
    pub items: Vec<Item>,
    /// Calls made lexically inside `// lint: hot-loop` regions — the
    /// roots of the hot-path reachability pass.
    pub hot_calls: Vec<Call>,
    /// Covered lines per allowed rule (`// lint: allow(..)`).
    pub allows: Vec<(String, usize)>,
    /// Lines covered by `// lint: fixed-draw` annotations.
    pub fixed_draw_lines: Vec<usize>,
    /// Findings of the token-level (pass 0) rules.
    pub token_findings: Vec<Finding>,
}

impl FileRecord {
    /// `true` if an allow for `rule` covers `line`.
    pub fn allowed(&self, line: usize, rule: &str) -> bool {
        self.allows.iter().any(|(r, l)| r == rule && *l == line)
    }

    /// The crate directory name, recovered from a
    /// `crates/<name>/src/...` path; `None` for fixtures and ad-hoc
    /// paths, which pass 2 then resolves without dependency pruning.
    pub fn crate_name(&self) -> Option<&str> {
        let mut parts = self.path.split(['/', '\\']);
        while let Some(p) = parts.next() {
            if p == "crates" {
                return parts.next();
            }
        }
        None
    }

    /// The file name (final path component).
    pub fn file_name(&self) -> &str {
        self.path
            .rsplit(['/', '\\'])
            .next()
            .unwrap_or(self.path.as_str())
    }

    /// `true` for the sanctioned sampling modules, where the DRAW
    /// rules apply.
    pub fn is_sampling_module(&self) -> bool {
        matches!(self.file_name(), "scenario.rs" | "profile.rs")
    }
}

/// Method names that allocate regardless of receiver (HOT101).
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "with_capacity"];

/// `Type::method` constructor paths that allocate (HOT101).
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];

/// Macros that allocate (HOT101).
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Methods that copy a buffer (HOT102).
const CLONE_METHODS: &[&str] = &["clone", "cloned", "to_vec"];

/// Methods that grow or materialise a container (HOT103).
const GROW_METHODS: &[&str] = &["push", "collect"];

/// RNG draw primitives (DRW001). `gen`/`gen_range`/`gen_bool` cover
/// the `rand::Rng` surface the workspace uses; `standard_normal`,
/// `poisson` and `sample_uniform` are the project's own primitives.
const DRAW_CALLS: &[&str] = &[
    "standard_normal",
    "poisson",
    "sample_uniform",
    "gen",
    "gen_range",
    "gen_bool",
];

/// RNG constructors (DRW002): a sampling fn must consume a threaded,
/// job-indexed RNG, never seed its own.
const RNG_CTORS: &[&str] = &["seed_from_u64", "from_seed", "from_rng"];

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "match", "while", "for", "loop", "return", "fn", "in", "as", "move",
];

/// Parses one file's token stream into its [`FileRecord`] (minus the
/// token-level findings, which the engine attaches).
pub fn parse_file(path: &str, class: FileClass, toks: &[Tok], ctx: &FileContext) -> FileRecord {
    let impls = scan_impl_regions(toks);
    let mut items = scan_items(toks, ctx, &impls);

    // Nested fn items (rare, but closures-with-helpers exist) must not
    // double-report: exclude each child's token span from its parent.
    let spans: Vec<(usize, usize)> = items.iter().map(|(s, e, _)| (*s, *e)).collect();
    for (k, (start, end, item)) in items.iter_mut().enumerate() {
        let children: Vec<(usize, usize)> = spans
            .iter()
            .enumerate()
            .filter(|&(j, &(s, e))| j != k && s > *start && e < *end)
            .map(|(_, &se)| se)
            .collect();
        analyze_body(toks, *start, *end, &children, ctx, item);
    }

    // Calls inside declared hot-loop regions are reachability roots.
    let mut hot_calls = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if ctx.in_hot(t.line) && !ctx.in_test(t.line) {
            if let Some(call) = call_at(toks, k, &impls) {
                hot_calls.push(call);
            }
        }
    }

    let allows = ctx
        .allow_map()
        .iter()
        .flat_map(|(rule, lines)| lines.iter().map(move |&l| (rule.clone(), l)))
        .collect();

    FileRecord {
        path: path.to_string(),
        class,
        items: items.into_iter().map(|(_, _, item)| item).collect(),
        hot_calls,
        allows,
        fixed_draw_lines: ctx.fixed_draw_lines().iter().copied().collect(),
        token_findings: Vec::new(),
    }
}

/// One `impl` block: its type name and body token range.
struct ImplRegion {
    ty: String,
    start: usize,
    end: usize,
}

/// Finds every `impl` block and its brace-matched extent.
fn scan_impl_regions(toks: &[Tok]) -> Vec<ImplRegion> {
    let mut regions = Vec::new();
    let mut k = 0usize;
    while k < toks.len() {
        if !(toks[k].kind == TokKind::Ident && toks[k].text == "impl") {
            k += 1;
            continue;
        }
        let mut j = k + 1;
        // Skip the generic parameter introducer `impl<..>`.
        j = skip_angle_block(toks, j);
        // `impl Type {..}` or `impl Trait for Type {..}`: the type is
        // the first ident after `for` if present, else the first ident
        // after `impl`.
        let mut ty: Option<String> = None;
        let mut saw_for = false;
        while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
            let t = &toks[j];
            if t.kind == TokKind::Ident {
                if t.text == "for" {
                    saw_for = true;
                    ty = None;
                } else if ty.is_none() || saw_for && ty.is_none() {
                    ty = Some(t.text.clone());
                }
            }
            j += 1;
        }
        if j < toks.len() && toks[j].text == "{" {
            let close = match_brace(toks, j);
            if let Some(ty) = ty {
                regions.push(ImplRegion {
                    ty,
                    start: j,
                    end: close,
                });
            }
            // Continue scanning *inside* the impl for nested impls? No
            // nested impls in Rust; skip straight past the header.
            k = j + 1;
        } else {
            k = j + 1;
        }
    }
    regions
}

/// Finds every `fn` item with a body, returning `(body_start_idx,
/// body_end_idx, item)` triples. Items inside test regions are
/// dropped.
fn scan_items(toks: &[Tok], ctx: &FileContext, impls: &[ImplRegion]) -> Vec<(usize, usize, Item)> {
    let mut items = Vec::new();
    let mut k = 0usize;
    while k < toks.len() {
        if !(toks[k].kind == TokKind::Ident && toks[k].text == "fn") {
            k += 1;
            continue;
        }
        let Some(name_tok) = toks.get(k + 1).filter(|t| t.kind == TokKind::Ident) else {
            k += 1;
            continue;
        };
        if ctx.in_test(name_tok.line) {
            k += 2;
            continue;
        }
        // Signature: optional generics, then the parameter list.
        let j = skip_angle_block(toks, k + 2);
        if toks.get(j).map(|t| t.text.as_str()) != Some("(") {
            k += 2;
            continue;
        }
        let params_end = match_paren(toks, j);
        let sig: Vec<&str> = toks[j..=params_end.min(toks.len().saturating_sub(1))]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        let has_rng_param = sig
            .iter()
            .any(|s| matches!(*s, "rng" | "Rng" | "ChaCha8Rng" | "SeedStream"));
        // Body: first `{` before a `;` ends the signature.
        let mut b = params_end + 1;
        while b < toks.len() && toks[b].text != "{" && toks[b].text != ";" {
            b += 1;
        }
        if b >= toks.len() || toks[b].text == ";" {
            // Trait method declaration without a body.
            k = b.min(toks.len());
            continue;
        }
        let body_end = match_brace(toks, b);
        let header_line = header_start_line(toks, k);
        let is_pub = is_pub_item(toks, k);
        let hot_fn = (header_line..=name_tok.line).any(|l| ctx.hot_fn_covers(l));
        let impl_type = impls
            .iter()
            .rfind(|r| r.start < k && k < r.end)
            .map(|r| r.ty.clone());
        items.push((
            b,
            body_end,
            Item {
                name: name_tok.text.clone(),
                impl_type,
                is_pub,
                has_rng_param,
                hot_fn,
                line: name_tok.line,
                end_line: toks.get(body_end).map_or(name_tok.line, |t| t.line),
                calls: Vec::new(),
                effects: Vec::new(),
                draws: Vec::new(),
                rng_ctor_lines: Vec::new(),
            },
        ));
        k += 2;
    }
    items
}

/// Walks one body span, extracting calls, effects, draws and RNG
/// constructions; `children` are nested item spans to skip.
fn analyze_body(
    toks: &[Tok],
    start: usize,
    end: usize,
    children: &[(usize, usize)],
    ctx: &FileContext,
    item: &mut Item,
) {
    let impls = scan_impl_regions(toks);
    // Conditional-region tracking for DRW001: `if`/`match`/`else`
    // bodies are guarded; a `return` inside one taints everything
    // after it in the same body (the early-return guard shape).
    let mut pending_cond: Option<usize> = None; // paren depth at `if`/`match`
    let mut paren_depth = 0usize;
    let mut brace_depth = 0usize;
    let mut cond_stack: Vec<usize> = Vec::new(); // brace depths of conditional regions
    let mut guard_return_seen = false;

    let mut k = start;
    while k <= end && k < toks.len() {
        if let Some(&(cs, ce)) = children.iter().find(|&&(s, _)| s == k) {
            k = ce + 1;
            let _ = cs;
            continue;
        }
        let t = &toks[k];
        let text = t.text.as_str();
        match t.kind {
            TokKind::Punct => match text {
                "(" => paren_depth += 1,
                ")" => paren_depth = paren_depth.saturating_sub(1),
                "{" => {
                    brace_depth += 1;
                    if let Some(d) = pending_cond.take() {
                        if d == paren_depth {
                            cond_stack.push(brace_depth);
                        }
                    }
                }
                "}" => {
                    if cond_stack.last() == Some(&brace_depth) {
                        cond_stack.pop();
                    }
                    brace_depth = brace_depth.saturating_sub(1);
                }
                _ => {}
            },
            TokKind::Ident => {
                let prev = tok_text(toks, k, -1);
                let prev2 = tok_text(toks, k, -2);
                let next = tok_text(toks, k, 1);
                if matches!(text, "if" | "match") || (text == "else" && next == "{") {
                    pending_cond = Some(paren_depth);
                } else if text == "return" && !cond_stack.is_empty() {
                    guard_return_seen = true;
                }

                if let Some(call) = call_at(toks, k, &impls) {
                    item.calls.push(call);
                }

                // HOTPATH effects — skipped inside lexical hot-loop
                // regions, which the token rules (HOT001–004) already
                // police.
                if !ctx.in_hot(t.line) {
                    if prev == "::" && ALLOC_PATHS.iter().any(|(ty, m)| *ty == prev2 && *m == text)
                    {
                        item.effects.push(Effect {
                            rule: "HOT101",
                            line: t.line,
                            what: format!("`{prev2}::{text}` allocates"),
                        });
                    } else if prev == "." && ALLOC_METHODS.contains(&text) {
                        item.effects.push(Effect {
                            rule: "HOT101",
                            line: t.line,
                            what: format!("`.{text}()` allocates"),
                        });
                    }
                    if next == "!" && ALLOC_MACROS.contains(&text) {
                        item.effects.push(Effect {
                            rule: "HOT101",
                            line: t.line,
                            what: format!("`{text}!` allocates"),
                        });
                    }
                    if prev == "." && CLONE_METHODS.contains(&text) {
                        item.effects.push(Effect {
                            rule: "HOT102",
                            line: t.line,
                            what: format!("`.{text}()` copies a buffer"),
                        });
                    }
                    if prev == "." && GROW_METHODS.contains(&text) {
                        item.effects.push(Effect {
                            rule: "HOT103",
                            line: t.line,
                            what: format!("`.{text}()` grows or materialises a container"),
                        });
                    }
                }

                // DRW001 draw sites.
                if DRAW_CALLS.contains(&text) && (next == "(" || prev == ".") && prev != "fn" {
                    item.draws.push(Draw {
                        name: text.to_string(),
                        line: t.line,
                        guarded: !cond_stack.is_empty() || guard_return_seen,
                    });
                }

                // DRW002 RNG construction.
                if RNG_CTORS.contains(&text) && next == "(" && prev != "fn" {
                    item.rng_ctor_lines.push(t.line);
                }
            }
            _ => {}
        }
        k += 1;
    }
}

/// If token `k` is the callee name of a call, classifies it.
fn call_at(toks: &[Tok], k: usize, impls: &[ImplRegion]) -> Option<Call> {
    let t = toks.get(k)?;
    if t.kind != TokKind::Ident || CALL_KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    if tok_text(toks, k, 1) != "(" || tok_text(toks, k, -1) == "fn" {
        return None;
    }
    let prev = tok_text(toks, k, -1);
    let recv = if prev == "." {
        Recv::Method
    } else if prev == "::" {
        // Walk the leading path backwards: `a::b::name(`.
        let mut segs: Vec<String> = Vec::new();
        let mut j = k as isize - 1;
        while j >= 1 && toks[j as usize].text == "::" {
            let seg = &toks[(j - 1) as usize];
            if seg.kind != TokKind::Ident {
                break;
            }
            let mut name = seg.text.clone();
            if name == "Self" {
                if let Some(r) = impls.iter().rfind(|r| r.start < k && k < r.end) {
                    name = r.ty.clone();
                }
            }
            segs.insert(0, name);
            j -= 2;
        }
        if segs.is_empty() {
            Recv::Bare
        } else {
            Recv::Path(segs)
        }
    } else {
        Recv::Bare
    };
    Some(Call {
        name: t.text.clone(),
        line: t.line,
        recv,
    })
}

/// The text of the token at `k + delta`, or `""`.
fn tok_text(toks: &[Tok], k: usize, delta: isize) -> &str {
    let idx = k as isize + delta;
    if idx < 0 {
        return "";
    }
    toks.get(idx as usize).map_or("", |t| t.text.as_str())
}

/// Skips a `<..>` generic block starting at `j`, handling the `>>`
/// token the tokenizer emits for nested closers; returns the index
/// after the block (or `j` unchanged if none starts there).
fn skip_angle_block(toks: &[Tok], j: usize) -> usize {
    if toks.get(j).map(|t| t.text.as_str()) != Some("<") {
        return j;
    }
    let mut depth = 0isize;
    let mut k = j;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            "(" | "{" | ";" => break,
            _ => {}
        }
        k += 1;
        if depth <= 0 {
            break;
        }
    }
    k
}

/// The index of the brace matching the `{` at `open`.
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut k = open;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
        k += 1;
    }
    toks.len().saturating_sub(1)
}

/// The index of the paren matching the `(` at `open`.
fn match_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut k = open;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
        k += 1;
    }
    toks.len().saturating_sub(1)
}

/// The line where an item's header starts: the earliest contiguous
/// run of attributes and modifiers before the `fn` keyword at `k`.
fn header_start_line(toks: &[Tok], k: usize) -> usize {
    let mut j = k as isize - 1;
    let mut line = toks[k].line;
    while j >= 0 {
        let t = &toks[j as usize];
        match t.text.as_str() {
            "pub" | "const" | "unsafe" | "async" | "extern" | "crate" | "in" => {
                line = t.line;
                j -= 1;
            }
            ")" | "]" => {
                // `pub(crate)` / attribute `#[..]`: skip the group.
                let open = if t.text == ")" { "(" } else { "[" };
                let close = t.text.as_str();
                let mut depth = 0isize;
                while j >= 0 {
                    let s = toks[j as usize].text.as_str();
                    if s == close {
                        depth += 1;
                    } else if s == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j -= 1;
                }
                line = if j >= 0 { toks[j as usize].line } else { line };
                j -= 1;
            }
            "#" => {
                line = t.line;
                j -= 1;
            }
            _ => break,
        }
    }
    line
}

/// `true` when the tokens immediately before the `fn` at `k` carry a
/// `pub` modifier (any `pub(..)` restriction counts).
fn is_pub_item(toks: &[Tok], k: usize) -> bool {
    let mut j = k as isize - 1;
    let mut steps = 0;
    while j >= 0 && steps < 8 {
        match toks[j as usize].text.as_str() {
            "pub" => return true,
            "const" | "unsafe" | "async" | "extern" | ")" | "(" | "crate" | "in" => {
                j -= 1;
                steps += 1;
            }
            _ => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn record(src: &str) -> FileRecord {
        let (toks, comments) = tokenize(src);
        let ctx = FileContext::build(&toks, &comments);
        parse_file("mem.rs", FileClass::Library { numeric: true }, &toks, &ctx)
    }

    #[test]
    fn free_fns_and_methods_are_indexed() {
        let rec = record(
            "pub fn alpha() { beta(); }\n\
             fn beta() {}\n\
             struct S;\n\
             impl S {\n    pub(crate) fn gamma(&self) -> f64 { self.delta() }\n    fn delta(&self) -> f64 { 0.0 }\n}\n",
        );
        let names: Vec<String> = rec.items.iter().map(Item::display_name).collect();
        assert_eq!(names, ["alpha", "beta", "S::gamma", "S::delta"]);
        assert!(rec.items[0].is_pub && !rec.items[1].is_pub);
        assert!(rec.items[2].is_pub, "pub(crate) counts as pub");
        assert_eq!(
            rec.items[0].calls,
            vec![Call {
                name: "beta".into(),
                line: 1,
                recv: Recv::Bare
            }]
        );
        assert_eq!(rec.items[2].calls[0].recv, Recv::Method);
    }

    #[test]
    fn impl_for_attributes_methods_to_the_type() {
        let rec = record("impl Display for Matrix {\n    fn fmt(&self) -> R { x() }\n}\n");
        assert_eq!(rec.items[0].display_name(), "Matrix::fmt");
    }

    #[test]
    fn self_paths_resolve_to_the_impl_type() {
        let rec = record("impl W {\n    fn a() { Self::b(); }\n    fn b() {}\n}\n");
        assert_eq!(
            rec.items[0].calls[0].recv,
            Recv::Path(vec!["W".to_string()])
        );
    }

    #[test]
    fn effects_cover_alloc_clone_and_growth() {
        let rec = record(
            "fn f(xs: &[f64]) -> Vec<f64> {\n\
             let mut v = Vec::new();\n\
             let w = xs.to_vec();\n\
             v.push(w.len() as f64);\n\
             let s = format!(\"n\");\n\
             drop(s);\n\
             v\n}\n",
        );
        let rules: Vec<&str> = rec.items[0].effects.iter().map(|e| e.rule).collect();
        assert_eq!(rules, ["HOT101", "HOT102", "HOT103", "HOT101"]);
    }

    #[test]
    fn effects_inside_hot_regions_belong_to_the_token_rules() {
        let rec = record(
            "fn f() {\n// lint: hot-loop\nlet v = Vec::new();\n// lint: end-hot-loop\ndrop(v);\n}\n",
        );
        assert!(rec.items[0].effects.is_empty());
    }

    #[test]
    fn hot_region_calls_become_roots() {
        let rec = record("fn f() {\n// lint: hot-loop\nstage(1);\n// lint: end-hot-loop\n}\n");
        assert_eq!(rec.hot_calls.len(), 1);
        assert_eq!(rec.hot_calls[0].name, "stage");
    }

    #[test]
    fn guarded_draws_are_flagged() {
        let rec = record(
            "fn s(rng: &mut R, on: bool) -> f64 {\n\
             let a = standard_normal(rng);\n\
             let b = if on { standard_normal(rng) } else { 0.0 };\n\
             a + b\n}\n",
        );
        let d = &rec.items[0].draws;
        assert_eq!(d.len(), 2);
        assert!(!d[0].guarded);
        assert!(d[1].guarded);
    }

    #[test]
    fn draws_after_a_conditional_return_are_guarded() {
        let rec = record(
            "fn s(rng: &mut R, lo: f64, hi: f64) -> f64 {\n\
             if lo >= hi {\n    return lo;\n}\n\
             lo + standard_normal(rng)\n}\n",
        );
        assert!(rec.items[0].draws[0].guarded);
    }

    #[test]
    fn rng_signature_and_construction_are_detected() {
        let rec = record(
            "pub fn good<R: Rng>(rng: &mut R) -> f64 { rng.gen() }\n\
             pub fn bad(seed: u64) -> f64 { let mut r = ChaCha8Rng::seed_from_u64(seed); r.gen() }\n",
        );
        assert!(rec.items[0].has_rng_param);
        assert!(!rec.items[1].has_rng_param);
        assert_eq!(rec.items[1].rng_ctor_lines, vec![2]);
    }

    #[test]
    fn test_items_are_excluded() {
        let rec = record("fn lib() {}\n#[cfg(test)]\nmod t {\n    fn helper() {}\n}\n");
        assert_eq!(rec.items.len(), 1);
    }

    #[test]
    fn hot_fn_annotation_marks_the_item() {
        let rec = record("// lint: hot-fn\n#[inline]\npub fn kernel() {}\nfn other() {}\n");
        assert!(rec.items[0].hot_fn);
        assert!(!rec.items[1].hot_fn);
    }
}
