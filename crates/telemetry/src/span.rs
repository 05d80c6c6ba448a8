//! Monotonic wall-clock timing, quarantined to this crate.
//!
//! The project-wide determinism rule (lint DET001) bans wall-clock
//! reads in simulation crates: time must never influence numeric
//! state. Telemetry legitimately needs durations, so the clock lives
//! here — behind an explicit lint allowance — and the rest of the
//! workspace consumes only this API. Durations flow into the
//! recorder's latency samples and bench summaries; the event journal
//! carries none (see the crate-level determinism contract).

// lint: allow(DET001): wall-clock is deliberately confined to the telemetry crate
use std::time::Instant;

/// A started monotonic timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    // lint: allow(DET001): wall-clock is deliberately confined to the telemetry crate
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Self {
            // lint: allow(DET001): wall-clock is deliberately confined to the telemetry crate
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotonically_accumulates() {
        let w = Stopwatch::start();
        let a = w.elapsed_seconds();
        let b = w.elapsed_seconds();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
