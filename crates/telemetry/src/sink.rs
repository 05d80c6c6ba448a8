//! Metric sinks: where counters and observations go.
//!
//! The [`MetricsSink`] trait is the compile-time switch of the whole
//! subsystem. Generic code instruments itself against `S: MetricsSink`
//! and guards every telemetry call on [`MetricsSink::live`]; with the
//! default [`NoopSink`] (`ENABLED = false`) the guard is a constant
//! `false` and the optimiser deletes the branch — hot loops keep the
//! PR2 allocation-free contract and bit-identical outputs for free.
//!
//! Declared `// lint: hot-loop` regions never call a sink at all:
//! `samurai-lint` rule OBS001 rejects `.counter(..)` / `.observe(..)`
//! there. Hot loops bump plain `u64` fields on the workspace stats
//! ([`crate::SolverStats`], [`crate::TrapStats`]) and the sink
//! consumes those bundles at job boundaries.

use std::collections::BTreeMap;

use crate::hist::FixedHistogram;

/// A destination for counters and scalar observations.
pub trait MetricsSink {
    /// Whether this sink records anything. `false` makes every guarded
    /// telemetry site dead code.
    const ENABLED: bool;

    /// Adds `delta` to the counter named `key`.
    fn counter(&mut self, key: &'static str, delta: u64);

    /// Records one scalar observation under `key`.
    fn observe(&mut self, key: &'static str, value: f64);

    /// Runtime form of [`MetricsSink::ENABLED`], for guard branches.
    fn live(&self) -> bool {
        Self::ENABLED
    }
}

/// The default sink: records nothing, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl MetricsSink for NoopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn counter(&mut self, _key: &'static str, _delta: u64) {}

    #[inline(always)]
    fn observe(&mut self, _key: &'static str, _value: f64) {}
}

/// An in-memory recording sink: counters, raw observation samples,
/// and optional registered histograms.
///
/// Storage is `BTreeMap`-ordered so iteration (and thus any
/// serialisation) is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemorySink {
    counters: BTreeMap<&'static str, u64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    histograms: BTreeMap<&'static str, FixedHistogram>,
}

impl MemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fixed-bucket histogram: subsequent observations
    /// under `key` are additionally bucketed into it.
    #[must_use]
    pub fn with_histogram(mut self, key: &'static str, bounds: Vec<f64>) -> Self {
        self.histograms.insert(key, FixedHistogram::new(bounds));
        self
    }

    /// The current value of a counter (0 if never touched).
    #[must_use]
    pub fn counter_value(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// All counters, in key order.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// The raw observations recorded under `key`, in arrival order.
    #[must_use]
    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// The registered histogram under `key`, if any.
    #[must_use]
    pub fn histogram(&self, key: &str) -> Option<&FixedHistogram> {
        self.histograms.get(key)
    }
}

impl MetricsSink for MemorySink {
    const ENABLED: bool = true;

    fn counter(&mut self, key: &'static str, delta: u64) {
        *self.counters.entry(key).or_insert(0) += delta;
    }

    fn observe(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
        if let Some(hist) = self.histograms.get_mut(key) {
            hist.record(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_disabled_and_silent() {
        let mut sink = NoopSink;
        assert!(!sink.live());
        sink.counter("x", 1);
        sink.observe("y", 2.0);
    }

    #[test]
    fn memory_sink_accumulates() {
        let mut sink = MemorySink::new().with_histogram("lat", vec![1.0, 2.0]);
        sink.counter("n", 2);
        sink.counter("n", 3);
        sink.observe("lat", 0.5);
        sink.observe("lat", 1.5);
        sink.observe("other", 9.0);
        assert_eq!(sink.counter_value("n"), 5);
        assert_eq!(sink.samples("lat"), &[0.5, 1.5]);
        assert_eq!(sink.histogram("lat").unwrap().counts(), &[1, 1, 0]);
        assert!(sink.histogram("other").is_none());
        assert_eq!(sink.counter_value("missing"), 0);
    }
}
