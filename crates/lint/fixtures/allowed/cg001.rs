//! Allowed counterpart: CG001 suppressed with a justified escape.

pub fn run_ensemble_checkpointed(jobs: usize) -> usize {
    let mut done = 0;
    for job in 0..jobs {
        done += worker(job);
    }
    done
}

fn worker(job: usize) -> usize {
    samurai_bench::metrics::record("job", job); // lint: allow(CG001): demo-only probe stripped in release
    job
}
