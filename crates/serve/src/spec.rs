//! Request documents, canonicalization and ticket hashing.
//!
//! A submission is described by a [`JobSpec`]: what to simulate (the
//! [`Workload`] plan), the master `seed`, the engine
//! [`FailurePolicy`] and an optional [`ScenarioConfig`] distribution.
//! Its **ticket** is the FNV-1a-64 hash of the canonical JSON
//! serialisation of those fields, in fixed key order, with every
//! float carried as a `u64` IEEE-754 bit pattern — the same
//! canonical-number discipline as the checkpoint format, so parsing a
//! request document and re-serialising it is the identity and the
//! ticket is recomputable from the parsed tree.
//!
//! Two consequences the service is built on:
//!
//! * identical submissions hash to identical tickets, so the result
//!   store turns them into cache hits;
//! * any single-field change (seed, scenario knob, policy rung,
//!   workload shape) changes the ticket, so a ticket fully identifies
//!   — and reproduces — its run.
//!
//! The crash-drill member (`drill`) is deliberately **excluded** from
//! the canonical payload, mirroring the checkpoint fingerprint's
//! exclusion of the fault plan: a run killed by the drill must resume
//! (and cache) as the plain run it prefixes.

use samurai_core::checkpoint::Snapshot;
use samurai_core::{FailurePolicy, ScenarioConfig};
use samurai_telemetry::{fnv1a64, json, JsonValue};

use crate::error::ServeError;

/// Schema tag of a sealed request document.
pub const REQUEST_SCHEMA: &str = "samurai-request-v1";

/// Hard ceiling on ensemble jobs per submission, so one request
/// cannot monopolise the worker pool for hours.
pub const MAX_JOBS: usize = 4096;

/// Hard ceiling on per-job trace samples.
pub const MAX_SAMPLES: usize = 1 << 22;

/// The simulation plan of one submission: which ensemble to run and
/// its shape. Each variant maps onto one deterministic job closure in
/// [`crate::workload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-trap stationary validation panels (the fig7-smoke
    /// workload): `panels` ensemble jobs, each generating a
    /// `samples`-point RTN trace and reporting its mean current.
    Trap {
        /// Number of ensemble jobs (bias panels).
        panels: usize,
        /// Trace samples per panel.
        samples: usize,
    },
    /// 6T cell read static-noise-margin sweep: `members` independently
    /// varied cells, each solved through the SPICE butterfly sweep.
    Cell {
        /// Number of Monte-Carlo cell instances.
        members: usize,
    },
    /// Column-level write ensemble through the full two-pass
    /// methodology (`samurai_sram::run_column_ensemble_observed`).
    Column {
        /// Rows in the generated column netlist.
        rows: usize,
        /// Number of Monte-Carlo column instances.
        members: usize,
    },
}

impl Workload {
    /// The number of ensemble jobs this plan shards into.
    #[must_use]
    pub fn jobs(&self) -> usize {
        match self {
            Self::Trap { panels, .. } => *panels,
            Self::Cell { members } | Self::Column { members, .. } => *members,
        }
    }

    /// Canonical JSON (fixed key order, counts as exact `u64`).
    #[must_use]
    pub fn to_canonical_json(&self) -> JsonValue {
        match self {
            Self::Trap { panels, samples } => JsonValue::obj(vec![
                ("kind", JsonValue::Str("trap".into())),
                ("panels", JsonValue::U64(*panels as u64)),
                ("samples", JsonValue::U64(*samples as u64)),
            ]),
            Self::Cell { members } => JsonValue::obj(vec![
                ("kind", JsonValue::Str("cell".into())),
                ("members", JsonValue::U64(*members as u64)),
            ]),
            Self::Column { rows, members } => JsonValue::obj(vec![
                ("kind", JsonValue::Str("column".into())),
                ("rows", JsonValue::U64(*rows as u64)),
                ("members", JsonValue::U64(*members as u64)),
            ]),
        }
    }

    fn from_json(v: &JsonValue) -> Result<Self, ServeError> {
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ServeError::Spec("workload.kind must be a string".into()))?;
        let count = |key: &str| -> Result<usize, ServeError> {
            let n = v
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| ServeError::Spec(format!("workload.{key} must be an integer")))?;
            let n = usize::try_from(n)
                .map_err(|_| ServeError::Spec(format!("workload.{key} out of range")))?;
            if n == 0 || n > MAX_JOBS {
                return Err(ServeError::Spec(format!(
                    "workload.{key} must be in 1..={MAX_JOBS}"
                )));
            }
            Ok(n)
        };
        match kind {
            "trap" => {
                let samples = v
                    .get("samples")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| ServeError::Spec("workload.samples must be an integer".into()))
                    .and_then(|n| {
                        usize::try_from(n)
                            .ok()
                            .filter(|n| (256..=MAX_SAMPLES).contains(n))
                            .ok_or_else(|| {
                                ServeError::Spec(format!(
                                    "workload.samples must be in 256..={MAX_SAMPLES}"
                                ))
                            })
                    })?;
                Ok(Self::Trap {
                    panels: count("panels")?,
                    samples,
                })
            }
            "cell" => Ok(Self::Cell {
                members: count("members")?,
            }),
            "column" => {
                let rows = count("rows")?;
                if rows > 64 {
                    return Err(ServeError::Spec("workload.rows must be in 1..=64".into()));
                }
                Ok(Self::Column {
                    rows,
                    members: count("members")?,
                })
            }
            other => Err(ServeError::Spec(format!(
                "unknown workload kind `{other}` (trap/cell/column)"
            ))),
        }
    }
}

/// Largest `rungs` or `max_failures` a request may ask for.
const MAX_POLICY_COUNT: usize = 64;

/// One submission: the full, deterministic description of an ensemble
/// run. See the module docs for the hashing contract.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The simulation plan.
    pub workload: Workload,
    /// Master seed of the ensemble's [`samurai_core::SeedStream`].
    pub seed: u64,
    /// Engine failure policy.
    pub policy: FailurePolicy,
    /// Optional per-job scenario distribution (`None` = nominal).
    pub scenario: Option<ScenarioConfig>,
    /// Crash drill: kill the server process with
    /// [`samurai_core::KILL_EXIT`] just before this ensemble job
    /// starts. Excluded from the ticket, like the checkpoint
    /// fingerprint excludes the fault plan.
    pub drill: Option<usize>,
}

impl JobSpec {
    /// Parses a submission body (the canonical payload shape, with an
    /// optional `drill` member).
    ///
    /// # Errors
    ///
    /// [`ServeError::Spec`] naming the offending field.
    pub fn from_json(v: &JsonValue) -> Result<Self, ServeError> {
        let workload = Workload::from_json(
            v.get("workload")
                .ok_or_else(|| ServeError::Spec("missing member: workload".into()))?,
        )?;
        let seed = v
            .get("seed")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ServeError::Spec("seed must be an integer".into()))?;
        let policy = match v.get("policy") {
            None | Some(JsonValue::Null) => FailurePolicy::FailFast,
            Some(p) => FailurePolicy::from_json(p, MAX_POLICY_COUNT).map_err(ServeError::Spec)?,
        };
        let scenario = match v.get("scenario") {
            None | Some(JsonValue::Null) => None,
            Some(s) => Some(
                ScenarioConfig::from_snapshot(s)
                    .ok_or_else(|| ServeError::Spec("malformed scenario object".into()))?,
            ),
        };
        let drill = match v.get("drill") {
            None | Some(JsonValue::Null) => None,
            Some(d) => Some(
                d.get("kill_at_job")
                    .and_then(JsonValue::as_u64)
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| {
                        ServeError::Spec("drill.kill_at_job must be an integer".into())
                    })?,
            ),
        };
        Ok(Self {
            workload,
            seed,
            policy,
            scenario,
            drill,
        })
    }

    /// Decodes a persisted request payload: valid only when it parses
    /// as a spec whose [`JobSpec::canonical_payload`] reproduces it
    /// exactly, so it hashes to that spec's ticket.
    ///
    /// # Errors
    ///
    /// The parse error, or a note that the payload is not canonical.
    pub fn from_canonical_payload(payload: &JsonValue) -> Result<Self, String> {
        let spec = Self::from_json(payload).map_err(|e| e.to_string())?;
        if spec.canonical_payload() != *payload {
            return Err("request payload is not canonical".to_owned());
        }
        Ok(spec)
    }

    /// The canonical payload: fixed key order, floats as bit
    /// patterns, the drill excluded. This is the byte stream the
    /// ticket hashes.
    #[must_use]
    pub fn canonical_payload(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("workload", self.workload.to_canonical_json()),
            ("seed", JsonValue::U64(self.seed)),
            ("policy", self.policy.to_json()),
            (
                "scenario",
                self.scenario
                    .as_ref()
                    .map_or(JsonValue::Null, Snapshot::to_snapshot),
            ),
        ])
    }

    /// The content address: FNV-1a-64 over the canonical payload's
    /// compact JSON serialisation.
    #[must_use]
    pub fn ticket(&self) -> u64 {
        fnv1a64(self.canonical_payload().to_json().as_bytes())
    }

    /// The sealed request document (`samurai-request-v1` envelope)
    /// persisted on submission so a killed server can recover its
    /// queue.
    #[must_use]
    pub fn document(&self) -> JsonValue {
        json::seal(REQUEST_SCHEMA, self.canonical_payload())
    }

    /// Total ensemble jobs this spec runs.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.workload.jobs()
    }
}

/// Renders a ticket as the 16-digit lowercase hex string used in URLs
/// and store file names.
#[must_use]
pub fn ticket_hex(ticket: u64) -> String {
    format!("{ticket:016x}")
}

/// Parses a 16-digit hex ticket back to its hash.
#[must_use]
pub fn parse_ticket(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            workload: Workload::Trap {
                panels: 4,
                samples: 4096,
            },
            seed: 1000,
            policy: FailurePolicy::Retry { rungs: 2 },
            scenario: Some(ScenarioConfig {
                sigma_vth: 0.02,
                ..ScenarioConfig::nominal()
            }),
            drill: None,
        }
    }

    #[test]
    fn canonical_round_trip_preserves_ticket() {
        let s = spec();
        let text = s.canonical_payload().to_json();
        let parsed = samurai_telemetry::json::parse(&text).unwrap();
        let back = JobSpec::from_json(&parsed).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.ticket(), s.ticket());
        assert_eq!(back.canonical_payload().to_json(), text);
    }

    #[test]
    fn drill_is_excluded_from_the_ticket() {
        let plain = spec();
        let drilled = JobSpec {
            drill: Some(3),
            ..spec()
        };
        assert_eq!(plain.ticket(), drilled.ticket());
    }

    #[test]
    fn field_changes_change_the_ticket() {
        let base = spec().ticket();
        let mut seeded = spec();
        seeded.seed = 1001;
        assert_ne!(seeded.ticket(), base);
        let mut poled = spec();
        poled.policy = FailurePolicy::Retry { rungs: 3 };
        assert_ne!(poled.ticket(), base);
        let mut knobbed = spec();
        knobbed.scenario = Some(ScenarioConfig {
            sigma_vth: 0.03,
            ..ScenarioConfig::nominal()
        });
        assert_ne!(knobbed.ticket(), base);
        let mut planned = spec();
        planned.workload = Workload::Trap {
            panels: 5,
            samples: 4096,
        };
        assert_ne!(planned.ticket(), base);
    }

    #[test]
    fn tickets_render_and_parse() {
        let t = spec().ticket();
        assert_eq!(parse_ticket(&ticket_hex(t)), Some(t));
        assert_eq!(parse_ticket("nope"), None);
        assert_eq!(parse_ticket(""), None);
    }

    #[test]
    fn bad_specs_are_named() {
        let bad = samurai_telemetry::json::parse(
            r#"{"workload":{"kind":"trap","panels":0,"samples":4096},"seed":1}"#,
        )
        .unwrap();
        let err = JobSpec::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("panels"));
    }
}
