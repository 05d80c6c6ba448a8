//! Seeded violation: SVC001 — an HTTP handler in the serve crate that
//! runs the ensemble engine inline instead of enqueueing a ticket.

use samurai_core::ensemble::{run_ensemble_resilient_observed, IndexedResults};
use samurai_sram::run_column_ensemble_observed;

pub fn handle_submit_inline(jobs: usize, rec: &mut Recorder) -> usize {
    let report = run_ensemble_resilient_observed(jobs, 1, &Default::default(), rec, IndexedResults::new, job); //~ SVC001
    let _ = run_column_ensemble_observed(&Default::default(), None); //~ SVC001
    report.len()
}
