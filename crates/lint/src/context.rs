//! Per-file lint context: directives, test regions, hot-loop regions.
//!
//! Five comment-borne mechanisms parameterise the rule engine:
//!
//! * **Allow escapes** — `// lint: allow(RULE1, RULE2): reason`
//!   suppresses the named rules: a trailing directive covers the
//!   statement it ends (every line from the statement's first token to
//!   the comment's line, so rustfmt-wrapped statements stay covered), a
//!   standalone comment line covers the next code line. The reason
//!   after the colon is free text but strongly encouraged; the catalog
//!   treats an allow as a reviewed, justified exception.
//! * **Hot-loop regions** — `// lint: hot-loop` opens a region in
//!   which the allocation-freedom rules (`HOT…`) apply;
//!   `// lint: end-hot-loop` closes it. An unclosed region extends to
//!   the end of the file (which makes the mistake self-revealing: the
//!   rest of the file starts tripping HOT rules).
//! * **Hot functions** — `// lint: hot-fn` above (or trailing on) a
//!   `fn` item marks it as a hot-path root for the workspace
//!   reachability pass (HOT101–HOT103): the function and everything it
//!   transitively calls must stay allocation-free.
//! * **Fixed draws** — `// lint: fixed-draw: reason` records that a
//!   conditionally-guarded RNG draw in the scenario layer has been
//!   reviewed against the fixed-draw-order contract (DRW001).
//! * **SAFETY comments** — any comment containing `SAFETY` (or a
//!   `# Safety` doc section) within three lines above an `unsafe`
//!   token satisfies the unsafe-audit rule.
//!
//! Test regions are detected from the token stream: `#[cfg(test)]` and
//! `#[test]` attributes mark the following item (brace-matched) as
//! test code, where the hygiene and determinism rules do not apply.

use std::collections::{BTreeMap, BTreeSet};

use crate::tokenizer::{Comment, Tok, TokKind};

/// Everything the rule engine needs to know about one file beyond its
/// tokens.
#[derive(Debug, Default)]
pub struct FileContext {
    /// Inclusive line ranges of `#[cfg(test)]` / `#[test]` items.
    test_ranges: Vec<(usize, usize)>,
    /// Inclusive line ranges between hot-loop directives.
    hot_ranges: Vec<(usize, usize)>,
    /// Lines directly covered by an allow directive, per rule id.
    allows: BTreeMap<String, BTreeSet<usize>>,
    /// Lines bearing a SAFETY (or `# Safety`) comment.
    safety_lines: BTreeSet<usize>,
    /// Lines covered by a `// lint: hot-fn` annotation.
    hot_fn_lines: BTreeSet<usize>,
    /// Lines covered by a `// lint: fixed-draw: reason` annotation.
    fixed_draw_lines: BTreeSet<usize>,
}

impl FileContext {
    /// Builds the context from a file's tokens and comments.
    pub fn build(toks: &[Tok], comments: &[Comment]) -> Self {
        let mut ctx = Self::default();
        let code_lines: BTreeSet<usize> = toks.iter().map(|t| t.line).collect();
        let stmt_starts = statement_starts(toks);
        ctx.scan_comments(comments, &code_lines, &stmt_starts);
        ctx.scan_test_regions(toks);
        ctx
    }

    /// `true` if `line` is inside test-gated code.
    pub fn in_test(&self, line: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// `true` if `line` is inside a declared hot-loop region.
    pub fn in_hot(&self, line: usize) -> bool {
        self.hot_ranges.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// `true` if an allow directive for `rule` covers `line`: a
    /// trailing directive covers the statement it ends, a standalone
    /// comment line covers the next code line.
    pub fn allowed(&self, line: usize, rule: &str) -> bool {
        self.allows
            .get(rule)
            .is_some_and(|lines| lines.contains(&line))
    }

    /// The full allow map (rule id → covered lines).
    pub fn allow_map(&self) -> &BTreeMap<String, BTreeSet<usize>> {
        &self.allows
    }

    /// `true` if a `// lint: hot-fn` annotation covers `line`.
    pub fn hot_fn_covers(&self, line: usize) -> bool {
        self.hot_fn_lines.contains(&line)
    }

    /// `true` if a `// lint: fixed-draw` annotation covers `line`.
    pub fn fixed_draw_covers(&self, line: usize) -> bool {
        self.fixed_draw_lines.contains(&line)
    }

    /// The lines covered by `// lint: fixed-draw` annotations.
    pub fn fixed_draw_lines(&self) -> &BTreeSet<usize> {
        &self.fixed_draw_lines
    }

    /// The declared hot-loop regions, as inclusive line ranges.
    pub fn hot_ranges(&self) -> &[(usize, usize)] {
        &self.hot_ranges
    }

    /// `true` if a SAFETY comment sits on `line` or up to three lines
    /// above it.
    pub fn has_safety_near(&self, line: usize) -> bool {
        (line.saturating_sub(3)..=line).any(|l| self.safety_lines.contains(&l))
    }

    fn scan_comments(
        &mut self,
        comments: &[Comment],
        code_lines: &BTreeSet<usize>,
        stmt_starts: &BTreeMap<usize, usize>,
    ) {
        // A trailing directive covers the statement it ends: every
        // line from the statement's first token to the comment's line.
        // This honours same-line allows regardless of where on the
        // statement the violating token sits — including the rustfmt
        // shape where a wrapped statement leaves the trailing comment
        // on a later line than the violation. A standalone comment
        // line covers the next code line (skipping blank lines).
        let covered_lines = |line: usize| -> Vec<usize> {
            if code_lines.contains(&line) {
                let start = stmt_starts.get(&line).copied().unwrap_or(line);
                (start..=line).collect()
            } else {
                match code_lines.range(line + 1..).next() {
                    Some(&next) => vec![next],
                    None => vec![line + 1],
                }
            }
        };
        let mut open_hot: Option<usize> = None;
        for c in comments {
            let text = c.text.trim();
            if text.contains("SAFETY") || text.contains("# Safety") {
                self.safety_lines.insert(c.line);
            }
            let Some(rest) = text.strip_prefix("lint:") else {
                continue;
            };
            let directive = rest.trim();
            if directive == "hot-loop" {
                if open_hot.is_none() {
                    open_hot = Some(c.line);
                }
            } else if directive == "end-hot-loop" {
                if let Some(start) = open_hot.take() {
                    self.hot_ranges.push((start, c.line));
                }
            } else if directive == "hot-fn" || directive.starts_with("hot-fn:") {
                self.hot_fn_lines.extend(covered_lines(c.line));
            } else if directive.starts_with("fixed-draw") {
                self.fixed_draw_lines.extend(covered_lines(c.line));
            } else if let Some(args) = directive.strip_prefix("allow") {
                let args = args.trim_start();
                if let Some(inner) = args.strip_prefix('(').and_then(|a| a.split(')').next()) {
                    let covered = covered_lines(c.line);
                    for rule in inner.split(',') {
                        let rule = rule.trim();
                        if !rule.is_empty() {
                            self.allows
                                .entry(rule.to_string())
                                .or_default()
                                .extend(covered.iter().copied());
                        }
                    }
                }
            }
        }
        if let Some(start) = open_hot {
            // Unclosed region: runs to end of file.
            self.hot_ranges.push((start, usize::MAX));
        }
    }

    /// Finds `#[cfg(test)]` / `#[test]` attributes and brace-matches
    /// the item that follows each.
    fn scan_test_regions(&mut self, toks: &[Tok]) {
        let mut k = 0usize;
        while k < toks.len() {
            if !(toks[k].kind == TokKind::Punct && toks[k].text == "#") {
                k += 1;
                continue;
            }
            let Some(open) = toks.get(k + 1).filter(|t| t.text == "[") else {
                k += 1;
                continue;
            };
            let _ = open;
            // Collect the attribute tokens up to the matching `]`.
            let mut depth = 0usize;
            let mut end = k + 1;
            while end < toks.len() {
                match toks[end].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                end += 1;
            }
            if end >= toks.len() {
                break;
            }
            let attr: Vec<&str> = toks[k + 2..end].iter().map(|t| t.text.as_str()).collect();
            if is_test_attribute(&attr) {
                let region_start = toks[k].line;
                let region_end = item_end_line(toks, end + 1);
                self.test_ranges.push((region_start, region_end));
            }
            k = end + 1;
        }
    }
}

/// For each line bearing code, the starting line of the last statement
/// open (or ending) on that line. Statements are delimited lexically by
/// `;`, `{` and `}` — an approximation that errs toward covering more
/// of a wrapped statement, which is the safe direction for an allow.
fn statement_starts(toks: &[Tok]) -> BTreeMap<usize, usize> {
    let mut starts = BTreeMap::new();
    let mut cur: Option<usize> = None;
    for t in toks {
        let start = *cur.get_or_insert(t.line);
        starts.insert(t.line, start);
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            cur = None;
        }
    }
    starts
}

/// `true` for `#[test]`, `#[cfg(test)]` and `#[cfg(all(test, …))]` —
/// but not `#[cfg(not(test))]`.
fn is_test_attribute(attr: &[&str]) -> bool {
    if attr == ["test"] {
        return true;
    }
    if attr.first() != Some(&"cfg") {
        return false;
    }
    // Look for `test` not immediately preceded by `not (`.
    for (i, t) in attr.iter().enumerate() {
        if *t == "test" {
            let negated = i >= 2 && attr[i - 2] == "not" && attr[i - 1] == "(";
            if !negated {
                return true;
            }
        }
    }
    false
}

/// The last line of the item starting at token `k` (after an
/// attribute): either the statement's `;` or the brace-matched body.
fn item_end_line(toks: &[Tok], k: usize) -> usize {
    let mut j = k;
    while j < toks.len() {
        match toks[j].text.as_str() {
            ";" => return toks[j].line,
            "{" => {
                let mut depth = 0usize;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return toks[j].line;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                break;
            }
            _ => j += 1,
        }
    }
    toks.last().map_or(k, |t| t.line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn ctx_of(src: &str) -> FileContext {
        let (toks, comments) = tokenize(src);
        FileContext::build(&toks, &comments)
    }

    #[test]
    fn allow_covers_same_and_next_line() {
        let src = "// lint: allow(HYG001): reason\nlet a = x.unwrap();\nlet b = y.unwrap(); // lint: allow(HYG001)\nlet c = z.unwrap();\n";
        let ctx = ctx_of(src);
        assert!(ctx.allowed(2, "HYG001"));
        assert!(ctx.allowed(3, "HYG001"));
        assert!(!ctx.allowed(4, "HYG001"));
        assert!(!ctx.allowed(2, "HYG002"));
    }

    #[test]
    fn trailing_allow_covers_the_whole_statement() {
        // Regression: a trailing same-line allow must cover the
        // violation even when rustfmt wraps the statement so that the
        // comment lands on a later line than the violating token.
        let src =
            "let y = x.unwrap(\n); // lint: allow(HYG001): proven non-empty\nlet z = q.unwrap();\n";
        let ctx = ctx_of(src);
        assert!(ctx.allowed(1, "HYG001"), "first statement line uncovered");
        assert!(ctx.allowed(2, "HYG001"));
        assert!(!ctx.allowed(3, "HYG001"), "next statement leaked");
    }

    #[test]
    fn standalone_allow_skips_blank_lines_to_the_next_code_line() {
        let ctx = ctx_of("// lint: allow(HYG001): below\n\nlet a = x.unwrap();\n");
        assert!(ctx.allowed(3, "HYG001"));
    }

    #[test]
    fn hot_fn_annotation_covers_the_item_line() {
        let src = "// lint: hot-fn\nfn fast() {}\nfn slow() {}\n// lint: hot-fn: trailing form\n";
        let ctx = ctx_of(src);
        assert!(ctx.hot_fn_covers(2));
        assert!(!ctx.hot_fn_covers(3));
    }

    #[test]
    fn fixed_draw_annotation_covers_its_statement() {
        let src =
            "let d = draw(rng); // lint: fixed-draw: config-level guard\nlet e = draw(rng);\n";
        let ctx = ctx_of(src);
        assert!(ctx.fixed_draw_covers(1));
        assert!(!ctx.fixed_draw_covers(2));
    }

    #[test]
    fn allow_parses_multiple_rules() {
        let ctx = ctx_of("// lint: allow(DET001, DET002)\nx();\n");
        assert!(ctx.allowed(2, "DET001"));
        assert!(ctx.allowed(2, "DET002"));
    }

    #[test]
    fn hot_regions_are_delimited() {
        let src = "a();\n// lint: hot-loop\nb();\nc();\n// lint: end-hot-loop\nd();\n";
        let ctx = ctx_of(src);
        assert!(!ctx.in_hot(1));
        assert!(ctx.in_hot(3));
        assert!(ctx.in_hot(4));
        assert!(!ctx.in_hot(6));
    }

    #[test]
    fn unclosed_hot_region_extends_to_eof() {
        let ctx = ctx_of("// lint: hot-loop\nx();\ny();\n");
        assert!(ctx.in_hot(3));
        assert!(ctx.in_hot(1000));
    }

    #[test]
    fn cfg_test_module_is_a_test_region() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn tail() {}\n";
        let ctx = ctx_of(src);
        assert!(!ctx.in_test(1));
        assert!(ctx.in_test(2));
        assert!(ctx.in_test(4));
        assert!(!ctx.in_test(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let ctx = ctx_of("#[cfg(not(test))]\nfn prod() {\n    body();\n}\n");
        assert!(!ctx.in_test(3));
    }

    #[test]
    fn cfg_test_statement_without_braces() {
        let ctx = ctx_of("#[cfg(test)]\nuse helper::thing;\nfn lib() {}\n");
        assert!(ctx.in_test(2));
        assert!(!ctx.in_test(3));
    }

    #[test]
    fn safety_comment_is_found_nearby() {
        let src = "// SAFETY: index checked above\nlet v = unsafe { get(i) };\n\n\n\nlet w = unsafe { get(j) };\n";
        let ctx = ctx_of(src);
        assert!(ctx.has_safety_near(2));
        assert!(!ctx.has_safety_near(6));
    }
}
