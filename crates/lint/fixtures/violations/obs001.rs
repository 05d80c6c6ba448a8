//! Seeded violation: OBS001 — telemetry sink calls in a
//! hot-loop region.

pub fn accumulate<S: MetricsSink>(sink: &mut S, xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    // lint: hot-loop
    for &x in xs {
        acc += x;
        sink.counter("iters", 1); //~ OBS001
        sink.observe("value", x); //~ OBS001
        MetricsSink::counter(sink, "qualified", 1); //~ OBS001
    }
    // lint: end-hot-loop
    acc
}
