//! The content-addressed result store.
//!
//! One directory holds three kinds of files, all keyed by the
//! 16-digit hex ticket:
//!
//! | file                | schema               | lifetime            |
//! |---------------------|----------------------|---------------------|
//! | `<ticket>.req.json` | `samurai-request-v1` | written on accept   |
//! | `<ticket>.ckpt`     | `samurai-checkpoint-v1` | while running    |
//! | `<ticket>.json`     | `samurai-store-v1`   | written on success  |
//!
//! Every document travels in the checkpoint envelope discipline —
//! `{"schema", "hash", "payload"}` with the FNV-1a-64 hash over the
//! payload's compact canonical serialisation — and every write goes
//! through [`write_checkpoint_atomic`], so a crash can never leave a
//! torn document behind. A request file without a matching result
//! file is an in-flight job: on restart the server re-enqueues
//! exactly those, and the `.ckpt` segment file makes the resumed run
//! byte-identical to an uninterrupted one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use samurai_core::checkpoint::write_checkpoint_atomic;
use samurai_telemetry::{fnv1a64, json, JsonValue};

use crate::spec::{parse_ticket, ticket_hex, REQUEST_SCHEMA};

/// Schema tag of a sealed result document.
pub const RESULT_SCHEMA: &str = "samurai-store-v1";

/// A directory of content-addressed simulation results.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) a store directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the sealed result document for `ticket`.
    #[must_use]
    pub fn result_path(&self, ticket: u64) -> PathBuf {
        self.dir.join(format!("{}.json", ticket_hex(ticket)))
    }

    /// Path of the sealed request document for `ticket`.
    #[must_use]
    pub fn request_path(&self, ticket: u64) -> PathBuf {
        self.dir.join(format!("{}.req.json", ticket_hex(ticket)))
    }

    /// Path of the in-flight checkpoint segments for `ticket`.
    #[must_use]
    pub fn checkpoint_path(&self, ticket: u64) -> PathBuf {
        self.dir.join(format!("{}.ckpt", ticket_hex(ticket)))
    }

    /// Loads and verifies the result document for `ticket`: `None`
    /// when absent, torn, mis-schemed or hash-mismatched — a corrupt
    /// cache entry reads as a miss and is re-simulated, never served.
    #[must_use]
    pub fn load_result(&self, ticket: u64) -> Option<JsonValue> {
        let text = fs::read_to_string(self.result_path(ticket)).ok()?;
        let doc = json::parse(&text).ok()?;
        if !validate_store_document(&doc).is_empty() {
            return None;
        }
        Some(doc)
    }

    /// Seals `payload` in a `samurai-store-v1` envelope and writes it
    /// atomically as the result for `ticket`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn put_result(&self, ticket: u64, payload: JsonValue) -> io::Result<()> {
        let doc = seal(payload, RESULT_SCHEMA);
        write_checkpoint_atomic(&self.result_path(ticket), &(doc.to_json() + "\n"))
    }

    /// Writes a sealed request document atomically (the document is
    /// already an envelope, from [`crate::spec::JobSpec::document`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn put_request(&self, ticket: u64, document: &JsonValue) -> io::Result<()> {
        write_checkpoint_atomic(&self.request_path(ticket), &(document.to_json() + "\n"))
    }

    /// Removes the checkpoint segments of a finished job
    /// (best-effort: a missing file is fine).
    pub fn clear_checkpoint(&self, ticket: u64) {
        let _ = fs::remove_file(self.checkpoint_path(ticket));
    }

    /// Tickets with a request document but no (valid) result — the
    /// jobs a killed server left in flight, sorted by ticket so
    /// recovery order is deterministic.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk failures.
    pub fn pending_requests(&self) -> io::Result<Vec<(u64, JsonValue)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(stem) = name.strip_suffix(".req.json") else {
                continue;
            };
            let Some(ticket) = parse_ticket(stem) else {
                continue;
            };
            if self.load_result(ticket).is_some() {
                continue;
            }
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            let Ok(doc) = json::parse(&text) else {
                continue;
            };
            if !validate_store_document(&doc).is_empty() {
                continue;
            }
            if let Some(payload) = doc.get("payload") {
                out.push((ticket, payload.clone()));
            }
        }
        out.sort_by_key(|(t, _)| *t);
        Ok(out)
    }
}

/// Wraps `payload` in the store envelope: schema tag plus the FNV-1a
/// content hash over the canonical serialisation.
#[must_use]
pub fn seal(payload: JsonValue, schema: &str) -> JsonValue {
    let hash = fnv1a64(payload.to_json().as_bytes());
    JsonValue::obj(vec![
        ("schema", JsonValue::Str(schema.into())),
        ("hash", JsonValue::U64(hash)),
        ("payload", payload),
    ])
}

/// Validates one store document (request or result envelope): schema
/// tag, content hash recomputed over the canonical payload
/// serialisation, and the payload members the service depends on.
/// Returns the error list (empty = valid). Used by the
/// `validate store` CI gate and by [`ResultStore::load_result`].
#[must_use]
pub fn validate_store_document(doc: &JsonValue) -> Vec<String> {
    let mut errors = Vec::new();
    let schema = doc.get("schema").and_then(JsonValue::as_str);
    let kind = match schema {
        Some(REQUEST_SCHEMA) => "request",
        Some(RESULT_SCHEMA) => "result",
        _ => {
            errors.push(format!(
                "schema is neither {REQUEST_SCHEMA} nor {RESULT_SCHEMA}"
            ));
            return errors;
        }
    };
    let hash = doc.get("hash").and_then(JsonValue::as_u64);
    if hash.is_none() {
        errors.push("missing integer: hash".to_owned());
    }
    let Some(payload) = doc.get("payload") else {
        errors.push("missing object: payload".to_owned());
        return errors;
    };
    if let Some(expected) = hash {
        let actual = fnv1a64(payload.to_json().as_bytes());
        if actual != expected {
            errors.push(format!(
                "content hash mismatch: document says {expected}, payload hashes to {actual}"
            ));
        }
    }
    match kind {
        "request" => {
            if payload
                .get("workload")
                .and_then(|w| w.get("kind"))
                .and_then(JsonValue::as_str)
                .is_none()
            {
                errors.push("missing string: workload.kind".to_owned());
            }
            if payload.get("seed").and_then(JsonValue::as_u64).is_none() {
                errors.push("missing integer: seed".to_owned());
            }
            if payload
                .get("policy")
                .and_then(|p| p.get("kind"))
                .and_then(JsonValue::as_str)
                .is_none()
            {
                errors.push("missing string: policy.kind".to_owned());
            }
            if payload.get("scenario").is_none() {
                errors.push("missing member: scenario".to_owned());
            }
        }
        _ => {
            if payload.get("ticket").and_then(JsonValue::as_str).is_none() {
                errors.push("missing string: ticket".to_owned());
            }
            if payload.get("request").is_none() {
                errors.push("missing object: request".to_owned());
            }
            if payload.get("jobs").and_then(JsonValue::as_u64).is_none() {
                errors.push("missing integer: jobs".to_owned());
            }
            match payload.get("completion").and_then(JsonValue::as_str) {
                Some("complete" | "truncated") => {}
                _ => errors.push("completion is not complete/truncated".to_owned()),
            }
            if payload.get("results").is_none() {
                errors.push("missing member: results".to_owned());
            }
            if payload.get("journal").and_then(JsonValue::as_str).is_none() {
                errors.push("missing string: journal".to_owned());
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobSpec, Workload};
    use samurai_core::FailurePolicy;

    fn spec() -> JobSpec {
        JobSpec {
            workload: Workload::Trap {
                panels: 2,
                samples: 4096,
            },
            seed: 7,
            policy: FailurePolicy::FailFast,
            scenario: None,
            drill: None,
        }
    }

    fn result_payload(s: &JobSpec) -> JsonValue {
        JsonValue::obj(vec![
            ("ticket", JsonValue::Str(ticket_hex(s.ticket()))),
            ("request", s.canonical_payload()),
            ("jobs", JsonValue::U64(s.jobs() as u64)),
            ("completion", JsonValue::Str("complete".into())),
            ("results", JsonValue::Arr(vec![])),
            ("journal", JsonValue::Str(String::new())),
        ])
    }

    #[test]
    fn request_and_result_documents_validate() {
        let s = spec();
        assert!(validate_store_document(&s.document()).is_empty());
        let sealed = seal(result_payload(&s), RESULT_SCHEMA);
        assert!(validate_store_document(&sealed).is_empty());
    }

    #[test]
    fn corruption_is_named() {
        let s = spec();
        let mut doc = s.document();
        if let JsonValue::Obj(members) = &mut doc {
            for (k, v) in members.iter_mut() {
                if k == "hash" {
                    *v = JsonValue::U64(1);
                }
            }
        }
        let errors = validate_store_document(&doc);
        assert!(errors.iter().any(|e| e.contains("hash mismatch")));

        let wrong = JsonValue::obj(vec![("schema", JsonValue::Str("nope".into()))]);
        assert!(!validate_store_document(&wrong).is_empty());
    }

    #[test]
    fn store_round_trips_and_recovers_pending() {
        let dir = std::env::temp_dir().join("samurai-serve-store-test");
        let _ = fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let s = spec();
        let t = s.ticket();

        store.put_request(t, &s.document()).unwrap();
        assert!(store.load_result(t).is_none());
        let pending = store.pending_requests().unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, t);
        let recovered = JobSpec::from_json(&pending[0].1).unwrap();
        assert_eq!(recovered, s);

        store.put_result(t, result_payload(&s)).unwrap();
        assert!(store.load_result(t).is_some());
        assert!(store.pending_requests().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
