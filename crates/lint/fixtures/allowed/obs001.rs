//! Allowed counterpart: a hot loop bumps a plain stats field for the
//! sink to consume at the job boundary, and a reviewed direct call
//! carries an inline allow.

pub fn accumulate<S: MetricsSink>(sink: &mut S, stats: &mut SolverStats, xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    // lint: hot-loop
    for &x in xs {
        acc += x;
        stats.newton_iterations += 1;
        sink.counter("cold", 1); // lint: allow(OBS001): sink is statically NoopSink here
    }
    // lint: end-hot-loop
    sink.counter("iters", stats.newton_iterations);
    acc
}
