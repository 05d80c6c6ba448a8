//! Rendering findings: human-readable text and machine-readable JSON.
//!
//! The JSON writer is hand-rolled (the workspace vendors only stub
//! external crates, and the analyzer must stay dependency-free); it
//! emits a flat array of `{rule, path, line, message}` objects with
//! full string escaping, suitable for CI annotation tooling.

use crate::rules::{Finding, Rule};

/// One finding as `path:line: RULE title — message`.
pub fn render_text(f: &Finding) -> String {
    format!("{}:{}: {} {}", f.path, f.line, f.rule, f.message)
}

/// All findings plus a summary line, for terminal output.
pub fn render_report(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&render_text(f));
        out.push('\n');
    }
    if findings.is_empty() {
        out.push_str("samurai-lint: no violations\n");
    } else {
        out.push_str(&format!(
            "samurai-lint: {} violation{}\n",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        ));
    }
    out
}

/// The findings as a JSON array.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            escape(f.rule),
            escape(&f.path),
            f.line,
            escape(&f.message)
        ));
    }
    out.push_str(if findings.is_empty() { "]\n" } else { "\n]\n" });
    out
}

/// The `--explain` page for one rule.
pub fn render_explain(rule: &Rule) -> String {
    format!(
        "{} — {}\ncontract: {}\n\n{}\n",
        rule.id, rule.title, rule.contract, rule.explain
    )
}

/// Minimal JSON string escaping (shared with the graph writer).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    fn sample() -> Finding {
        Finding {
            rule: "HYG001",
            path: "crates/core/src/x.rs".into(),
            line: 42,
            message: "`.unwrap()` panics \"hard\"".into(),
        }
    }

    #[test]
    fn text_format_is_path_line_rule() {
        assert_eq!(
            render_text(&sample()),
            "crates/core/src/x.rs:42: HYG001 `.unwrap()` panics \"hard\""
        );
    }

    #[test]
    fn json_escapes_quotes_and_is_an_array() {
        let j = render_json(&[sample()]);
        assert!(j.starts_with('[') && j.trim_end().ends_with(']'));
        assert!(j.contains("\\\"hard\\\""));
        assert!(j.contains("\"line\": 42"));
        assert_eq!(render_json(&[]).trim(), "[]");
    }

    #[test]
    fn report_summarises_counts() {
        assert!(render_report(&[]).contains("no violations"));
        assert!(render_report(&[sample()]).contains("1 violation\n"));
        assert!(render_report(&[sample(), sample()]).contains("2 violations\n"));
    }
}
