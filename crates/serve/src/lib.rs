//! `samurai-serve`: deterministic simulation-as-a-service.
//!
//! This crate turns the workspace's checkpointed ensemble engines into
//! a small, dependency-free job service (std-only, `std::net` HTTP/1.1):
//!
//! * **canonical requests** — [`spec::JobSpec`] describes an ensemble
//!   (trap panel, SRAM cell set, or column array) as a canonical JSON
//!   document; its FNV-1a-64 hash is the job's *ticket* and the
//!   content address of its result;
//! * **content-addressed store** — [`store::ResultStore`] keeps sealed
//!   request and result envelopes plus in-flight checkpoint segments,
//!   all written atomically, so a second identical submission is a
//!   cache hit that runs nothing;
//! * **bounded queue + worker pool** — [`state::ServiceState`] and
//!   [`worker`] give FIFO scheduling, explicit `429` backpressure, and
//!   graceful drain;
//! * **journal-fed streaming** — workers execute in checkpointed
//!   chunks and publish the journal prefix after each one;
//!   `GET /jobs/<ticket>/journal` streams it as chunked JSONL, and the
//!   completed stream is byte-identical to running the same spec
//!   directly through `run_ensemble_resilient_observed` at any worker
//!   count;
//! * **kill-resume** — a server killed mid-job re-enqueues the ticket
//!   on restart and resumes from the segment file, preserving that
//!   same byte-identity.
//!
//! The HTTP front end lives in [`http`]; the `serve`, `samurai-client`
//! and `validate` binaries in `samurai-bench` wrap it for the command
//! line and CI.

pub mod error;
pub mod http;
pub mod spec;
pub mod state;
pub mod store;
pub mod worker;
pub mod workload;

pub use error::ServeError;
pub use http::{Server, ServerConfig};
pub use spec::{parse_ticket, ticket_hex, JobSpec, Workload, REQUEST_SCHEMA};
pub use state::{JobPhase, ServiceState, SubmitOutcome};
pub use store::{validate_store_document, ResultStore, RESULT_SCHEMA};
pub use worker::DEFAULT_CHUNK;
pub use workload::{run_chunk, run_direct};
