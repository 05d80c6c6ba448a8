//! `ledger compare BASE NEW`: applies each end-to-end metric's bound
//! to every (metric, workload) pair of two sets of runs.
//!
//! A set is a directory tree of `LEDGER_*.json` files, one per run of
//! a workload. Per pair the verdict is:
//!
//! * `unresolved` — either side's quartile spread (as a share of its
//!   median) exceeds the bound, unless every NEW run reads better or
//!   every NEW run reads worse than every BASE run;
//! * `worse` / `better` — the NEW median moved by more than the bound;
//! * `unchanged` — otherwise.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use samurai_telemetry::{json, JsonValue};

use crate::harness::{pct, Catalogue};

/// One pair's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Regressed by more than the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Self::Better => "better",
            Self::Worse => "worse",
            Self::Unchanged => "unchanged",
            Self::Unresolved => "unresolved",
        }
    }
}

/// Relative quartile spread `(q3 − q1) / median`, nearest-rank.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let median = pct(values, 0.5);
    (pct(values, 0.75) - pct(values, 0.25)) / median.abs().max(f64::MIN_POSITIVE)
}

/// The verdict for one pair; `lower_is_better` orients the metric.
#[must_use]
pub fn verdict(base: &[f64], new: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    // Positive `regression` means NEW is worse.
    let base_median = pct(base, 0.5);
    let regression =
        sign * (pct(new, 0.5) - base_median) / base_median.abs().max(f64::MIN_POSITIVE);
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    if spread(base) > bound || spread(new) > bound {
        return if worst(new) < best(base) {
            Verdict::Better
        } else if best(new) > worst(base) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if regression > bound {
        Verdict::Worse
    } else if regression < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Every `LEDGER_*.json` under `dir`, recursively, sorted.
fn ledger_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            ledger_files(&path, out)?;
        } else if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("LEDGER_") && n.ends_with(".json"))
        {
            out.push(path);
        }
    }
    Ok(())
}

/// `workload → metric → values` over every ledger under `dir`.
fn load_set(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut files = Vec::new();
    ledger_files(dir, &mut files)?;
    files.sort();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let workload = doc
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{}: no workload", file.display()))?;
        let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{}: no metrics object", file.display()));
        };
        let slot = out.entry(workload.to_owned()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// Prints one verdict line per (workload, metric); returns whether any
/// pair got worse.
///
/// # Errors
///
/// Unreadable or malformed ledger files.
pub fn compare(base: &Path, new: &Path) -> Result<bool, String> {
    let catalogue = Catalogue::load();
    let base = load_set(base)?;
    let new = load_set(new)?;
    let mut any_worse = false;
    println!("workload metric base_median new_median change spread_base spread_new bound verdict");
    for workload in &catalogue.workloads {
        for decl in &catalogue.end_to_end {
            let (Some(b), Some(n)) = (
                base.get(workload).and_then(|m| m.get(&decl.name)),
                new.get(workload).and_then(|m| m.get(&decl.name)),
            ) else {
                println!("{workload} {} - - - - - - missing", decl.name);
                continue;
            };
            let bound = decl.bound.unwrap_or(0.0);
            let v = verdict(b, n, bound, decl.better == "lower");
            any_worse |= v == Verdict::Worse;
            let (bm, nm) = (pct(b, 0.5), pct(n, 0.5));
            println!(
                "{workload} {} {bm:.6} {nm:.6} {:+.4} {:.4} {:.4} {bound} {}",
                decl.name,
                (nm - bm) / bm.abs().max(f64::MIN_POSITIVE),
                spread(b),
                spread(n),
                v.as_str()
            );
        }
    }
    Ok(any_worse)
}
