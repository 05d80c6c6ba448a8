//! Seeded violation: CG001 — tool-crate call on the ensemble path.
//!
//! The call into `samurai_bench` is one hop below the ensemble entry
//! point; only the reachability pass connects the two.

pub fn run_ensemble_checkpointed(jobs: usize) -> usize {
    let mut done = 0;
    for job in 0..jobs {
        done += worker(job);
    }
    done
}

fn worker(job: usize) -> usize {
    samurai_bench::metrics::record("job", job); //~ CG001
    job
}
