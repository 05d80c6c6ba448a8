//! Allowed counterpart: SVC001 — the worker module is the sanctioned
//! engine-call site (matched by file name), and elsewhere a justified
//! escape silences the rule.

use samurai_core::checkpoint::{run_ensemble_checkpointed, RunControls};
use samurai_core::ensemble::IndexedResults;

pub fn execute_ticket(jobs: usize, controls: &RunControls, rec: &mut Recorder) -> usize {
    let report = run_ensemble_checkpointed(jobs, 1, &Default::default(), controls, rec, IndexedResults::new, job);
    report.len()
}
