//! The job-ordered event journal.
//!
//! A [`Journal`] is a flat list of [`JournalEvent`]s serialised as
//! JSON Lines: one self-contained JSON object per line, in the order
//! the events were pushed. Producers (the ensemble engine, failure
//! reports, bench bins) push events **after the ordered shard merge**,
//! strictly in job order — so a journal is byte-identical at every
//! worker count.
//!
//! Determinism rule: events carry counts, indices and seeds only —
//! never wall-clock time. Durations belong to the recorder's latency
//! samples (see the crate-level contract).

use crate::json::JsonValue;
use crate::stats::{ScenarioStamp, SolverStats, TrapStats};

/// One journal entry.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A completed ensemble job with its solver/sampler statistics.
    Job {
        /// The stable job index.
        job: usize,
        /// The rescue rung it finally succeeded on (`None` = nominal).
        rescued_rung: Option<usize>,
        /// Solver counters the job accumulated.
        solver: SolverStats,
        /// Uniformisation accept/reject counters the job accumulated.
        trap: TrapStats,
        /// The job's scenario ticket (hash + aging time). `None` for
        /// jobs outside a scenario sweep, whose serialised lines stay
        /// byte-identical to the pre-scenario schema.
        scenario: Option<ScenarioStamp>,
    },
    /// A job that needed the rescue ladder and survived.
    Rescued {
        /// The stable job index.
        job: usize,
        /// The rung (≥ 1) it succeeded on.
        rung: usize,
    },
    /// A job dropped by the quarantine policy.
    Quarantined {
        /// The stable job index.
        job: usize,
        /// The job's derived reproduction seed.
        seed: u64,
        /// Attempts made before giving up.
        rungs_attempted: usize,
        /// The final attempt's error, rendered as text.
        error: String,
    },
    /// A labelled count from outside the per-job flow (e.g. the
    /// multisection rounds of a timing-margin search).
    Note {
        /// What was counted.
        label: String,
        /// The count.
        value: u64,
    },
}

impl JournalEvent {
    /// The event as a JSON object (one JSON-Lines line, unterminated).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        match self {
            Self::Job {
                job,
                rescued_rung,
                solver,
                trap,
                scenario,
            } => {
                let mut fields = vec![
                    ("event", JsonValue::Str("job".into())),
                    ("job", JsonValue::U64(*job as u64)),
                    (
                        "rescued_rung",
                        rescued_rung.map_or(JsonValue::Null, |r| JsonValue::U64(r as u64)),
                    ),
                    ("solve_attempts", JsonValue::U64(solver.solve_attempts)),
                    (
                        "newton_iterations",
                        JsonValue::U64(solver.newton_iterations),
                    ),
                    ("steps_accepted", JsonValue::U64(solver.steps_accepted)),
                    (
                        "timestep_rejections",
                        JsonValue::U64(solver.timestep_rejections),
                    ),
                    (
                        "rescue_gmin_rungs",
                        JsonValue::U64(solver.rescue_gmin_rungs),
                    ),
                    (
                        "rescue_config_rungs",
                        JsonValue::U64(solver.rescue_config_rungs),
                    ),
                    ("faults_injected", JsonValue::U64(solver.faults_injected)),
                    ("trap_candidates", JsonValue::U64(trap.candidates)),
                    ("trap_accepted", JsonValue::U64(trap.accepted)),
                ];
                if let Some(stamp) = scenario {
                    fields.push(("scenario_hash", JsonValue::U64(stamp.hash)));
                    fields.push(("aging_seconds", JsonValue::F64(stamp.aging_seconds)));
                }
                JsonValue::obj(fields)
            }
            Self::Rescued { job, rung } => JsonValue::obj(vec![
                ("event", JsonValue::Str("rescued".into())),
                ("job", JsonValue::U64(*job as u64)),
                ("rung", JsonValue::U64(*rung as u64)),
            ]),
            Self::Quarantined {
                job,
                seed,
                rungs_attempted,
                error,
            } => JsonValue::obj(vec![
                ("event", JsonValue::Str("quarantined".into())),
                ("job", JsonValue::U64(*job as u64)),
                ("seed", JsonValue::U64(*seed)),
                ("rungs_attempted", JsonValue::U64(*rungs_attempted as u64)),
                ("error", JsonValue::Str(error.clone())),
            ]),
            Self::Note { label, value } => JsonValue::obj(vec![
                ("event", JsonValue::Str("note".into())),
                ("label", JsonValue::Str(label.clone())),
                ("value", JsonValue::U64(*value)),
            ]),
        }
    }
}

/// An ordered list of [`JournalEvent`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    events: Vec<JournalEvent>,
}

impl Journal {
    /// An empty journal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn push(&mut self, event: JournalEvent) {
        self.events.push(event);
    }

    /// Appends every event of `other`, in order.
    pub fn extend(&mut self, other: Journal) {
        self.events.extend(other.events);
    }

    /// The events, in push order.
    #[must_use]
    pub fn events(&self) -> &[JournalEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The whole journal as JSON Lines (one `\n`-terminated object per
    /// event; empty journal ⇒ empty string).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_json().to_json());
            out.push('\n');
        }
        out
    }

    /// The JSON-Lines serialisation of events `from..`, for
    /// incremental tailing: a consumer that remembers how many events
    /// it has already streamed calls `tail_jsonl(seen)` and appends
    /// the returned bytes. Because the journal is an append-only
    /// prefix structure (events are absorbed in job order after the
    /// ordered merge), concatenating successive tails reproduces
    /// [`Journal::to_jsonl`] byte for byte. `from` past the end
    /// yields the empty string.
    #[must_use]
    pub fn tail_jsonl(&self, from: usize) -> String {
        let mut out = String::new();
        for event in self.events.iter().skip(from) {
            out.push_str(&event.to_json().to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn jsonl_is_one_parseable_object_per_line() {
        let mut j = Journal::new();
        j.push(JournalEvent::Job {
            job: 3,
            rescued_rung: Some(1),
            solver: SolverStats {
                solve_attempts: 2,
                newton_iterations: 11,
                ..SolverStats::default()
            },
            trap: TrapStats {
                candidates: 40,
                accepted: 12,
            },
            scenario: None,
        });
        j.push(JournalEvent::Quarantined {
            job: 9,
            seed: 0xDEAD,
            rungs_attempted: 3,
            error: "NonConvergence".into(),
        });
        j.push(JournalEvent::Note {
            label: "margin.multisection_rounds".into(),
            value: 2,
        });
        let text = j.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let doc = json::parse(line).unwrap();
            assert!(doc.get("event").is_some(), "line {line}");
        }
        assert!(text.ends_with('\n'));
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("newton_iterations").and_then(JsonValue::as_f64),
            Some(11.0)
        );
        assert_eq!(
            first.get("rescued_rung").and_then(JsonValue::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn scenario_stamp_appends_after_the_legacy_keys() {
        let legacy = JournalEvent::Job {
            job: 0,
            rescued_rung: None,
            solver: SolverStats::default(),
            trap: TrapStats::default(),
            scenario: None,
        };
        let legacy_line = legacy.to_json().to_json();
        assert!(!legacy_line.contains("scenario_hash"));
        assert!(!legacy_line.contains("aging_seconds"));

        let stamped = JournalEvent::Job {
            job: 0,
            rescued_rung: None,
            solver: SolverStats::default(),
            trap: TrapStats::default(),
            scenario: Some(ScenarioStamp {
                hash: 0xABCD,
                aging_seconds: 1e8,
            }),
        };
        let line = stamped.to_json().to_json();
        // The legacy prefix is untouched; the stamp keys follow it.
        assert!(line.starts_with(legacy_line.trim_end_matches('}')));
        let doc = json::parse(&line).unwrap();
        assert_eq!(
            doc.get("scenario_hash").and_then(JsonValue::as_f64),
            Some(0xABCD as f64)
        );
        assert_eq!(
            doc.get("aging_seconds").and_then(JsonValue::as_f64),
            Some(1e8)
        );
    }

    #[test]
    fn extend_preserves_order() {
        let mut a = Journal::new();
        a.push(JournalEvent::Rescued { job: 1, rung: 1 });
        let mut b = Journal::new();
        b.push(JournalEvent::Rescued { job: 2, rung: 2 });
        a.extend(b);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(matches!(
            a.events()[1],
            JournalEvent::Rescued { job: 2, .. }
        ));
    }
}
