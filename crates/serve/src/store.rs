//! The content-addressed result store.
//!
//! One directory holds three kinds of files, all keyed by the
//! 16-digit hex ticket:
//!
//! | file                | schema                  | lifetime           |
//! |---------------------|-------------------------|--------------------|
//! | `<ticket>.req.json` | `samurai-request-v1`    | written on accept  |
//! | `<ticket>.ckpt`     | `samurai-checkpoint-v2` | while running      |
//! | `<ticket>.json`     | `samurai-store-v1`      | written on success |
//!
//! Every document is sealed and opened by the one envelope codec,
//! [`json::seal`] and [`json::open`] — `{"schema", "hash", "payload"}`
//! with the FNV-1a-64 hash over the payload's compact canonical
//! serialisation — and every write goes through
//! [`write_checkpoint_atomic`], so a crash can never leave a torn
//! document behind. A document also has to sit at its own ticket: a
//! request or result counts only when its request payload hashes to
//! the ticket in its file name. A request file without a matching
//! result file is an in-flight job: on restart the server re-enqueues
//! exactly those, and the `.ckpt` segment file makes the resumed run
//! byte-identical to an uninterrupted one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use samurai_core::checkpoint::write_checkpoint_atomic;
use samurai_telemetry::{json, JsonValue};

use crate::spec::{parse_ticket, ticket_hex, JobSpec, REQUEST_SCHEMA};

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
    /// when absent, torn, mis-schemed, hash-mismatched or the answer
    /// to another ticket — a bad cache entry reads as a miss and is
    /// re-simulated, never served.
    #[must_use]
    pub fn load_result(&self, ticket: u64) -> Option<JsonValue> {
        let text = fs::read_to_string(self.result_path(ticket)).ok()?;
        let doc = json::parse(&text).ok()?;
        let spec = open_result(&doc).ok()?;
        (spec.ticket() == ticket).then_some(doc)
    }

    /// Seals `payload` in a `samurai-store-v1` envelope and writes it
    /// atomically as the result for `ticket`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn put_result(&self, ticket: u64, payload: JsonValue) -> io::Result<()> {
        let doc = json::seal(RESULT_SCHEMA, payload);
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

    /// Tickets with a valid request document but no valid result —
    /// the jobs a killed server left in flight — with their specs,
    /// sorted by ticket so recovery order is deterministic.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk failures.
    pub fn pending_requests(&self) -> io::Result<Vec<(u64, JobSpec)>> {
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
            match open_request(&doc) {
                Ok(spec) if spec.ticket() == ticket => out.push((ticket, spec)),
                _ => {}
            }
        }
        out.sort_by_key(|(t, _)| *t);
        Ok(out)
    }
}

/// Opens a sealed request document and decodes its spec.
fn open_request(doc: &JsonValue) -> Result<JobSpec, String> {
    JobSpec::from_canonical_payload(json::open(doc, REQUEST_SCHEMA)?)
}

/// Opens a sealed result document and decodes the spec it answers;
/// the payload's `ticket` must be that spec's ticket.
fn open_result(doc: &JsonValue) -> Result<JobSpec, String> {
    let payload = json::open(doc, RESULT_SCHEMA)?;
    let spec =
        JobSpec::from_canonical_payload(payload.get("request").ok_or("missing object: request")?)?;
    if payload.get("ticket").and_then(JsonValue::as_str) != Some(&ticket_hex(spec.ticket())) {
        return Err("ticket is not the request's ticket".to_owned());
    }
    if payload.get("jobs").and_then(JsonValue::as_u64) != Some(spec.jobs() as u64) {
        return Err("jobs is not the request's job count".to_owned());
    }
    if !matches!(
        payload.get("completion").and_then(JsonValue::as_str),
        Some("complete" | "truncated")
    ) {
        return Err("completion is not complete/truncated".to_owned());
    }
    if payload.get("results").is_none() {
        return Err("missing member: results".to_owned());
    }
    if payload.get("journal").and_then(JsonValue::as_str).is_none() {
        return Err("missing string: journal".to_owned());
    }
    Ok(spec)
}

/// Validates one store document, request or result, with the decoders
/// the store itself loads them with. Returns the error list (empty =
/// valid): `schema` or `hash` for a bad envelope, else what the
/// payload lacks. Used by the `validate store` CI gate.
#[must_use]
pub fn validate_store_document(doc: &JsonValue) -> Vec<String> {
    let checked = match open_request(doc) {
        Err(reason) if reason == "schema" => open_result(doc).map(drop),
        other => other.map(drop),
    };
    checked.err().into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;
    use crate::state::{ServiceState, SubmitOutcome};
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
        let sealed = json::seal(RESULT_SCHEMA, result_payload(&s));
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
        assert_eq!(validate_store_document(&doc), ["hash"]);

        let wrong = JsonValue::obj(vec![("schema", JsonValue::Str("nope".into()))]);
        assert_eq!(validate_store_document(&wrong), ["schema"]);

        let mut misplaced = result_payload(&s);
        if let JsonValue::Obj(members) = &mut misplaced {
            members[0].1 = JsonValue::Str(ticket_hex(s.ticket() ^ 1));
        }
        let errors = validate_store_document(&json::seal(RESULT_SCHEMA, misplaced));
        assert!(errors.iter().any(|e| e.contains("ticket")), "{errors:?}");
    }

    fn scratch_store(name: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(name);
        let _ = fs::remove_dir_all(&dir);
        ResultStore::open(dir).unwrap()
    }

    #[test]
    fn a_result_at_another_tickets_path_is_not_a_cache_hit() {
        let store = scratch_store("samurai-serve-store-misplaced-result");
        let (a, b) = (spec(), JobSpec { seed: 8, ..spec() });
        store.put_result(a.ticket(), result_payload(&a)).unwrap();
        fs::copy(store.result_path(a.ticket()), store.result_path(b.ticket())).unwrap();
        let state = ServiceState::open(store.clone(), 4).unwrap();
        assert_eq!(
            state.submit(a.clone()).unwrap(),
            SubmitOutcome::Cached(a.ticket())
        );
        assert_eq!(
            state.submit(b.clone()).unwrap(),
            SubmitOutcome::Accepted(b.ticket())
        );
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_request_at_another_tickets_path_is_not_recovered() {
        let store = scratch_store("samurai-serve-store-misplaced-request");
        let (a, b) = (spec(), JobSpec { seed: 8, ..spec() });
        fs::write(
            store.request_path(b.ticket()),
            a.document().to_json() + "\n",
        )
        .unwrap();
        let state = ServiceState::open(store.clone(), 4).unwrap();
        assert!(state.status_json(b.ticket()).is_none());
        assert!(state.status_json(a.ticket()).is_none());
        let _ = fs::remove_dir_all(store.dir());
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
        assert_eq!(pending[0], (t, s.clone()));

        store.put_result(t, result_payload(&s)).unwrap();
        assert!(store.load_result(t).is_some());
        assert!(store.pending_requests().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
