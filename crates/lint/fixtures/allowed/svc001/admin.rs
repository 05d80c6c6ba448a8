//! Allowed counterpart: SVC001 suppressed with a justified escape in a
//! non-worker serve module.

use samurai_core::ensemble::{run_ensemble_resilient_observed, IndexedResults};

pub fn warmup_probe(jobs: usize, rec: &mut Recorder) -> usize {
    let report = run_ensemble_resilient_observed(jobs, 1, &Default::default(), rec, IndexedResults::new, job); // lint: allow(SVC001): one-job warmup probe at boot, before the listener opens
    report.len()
}
