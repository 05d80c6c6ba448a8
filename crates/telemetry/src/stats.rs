//! Plain-counter statistic bundles incremented in hot loops.
//!
//! These are deliberately bare `u64` fields, not recorder calls: a field
//! increment is branch-free, allocation-free and deterministic, so the
//! solver and sampler hot loops can maintain them unconditionally
//! (they already did, as the PR4 `rescue_rungs_fired()` counters).
//! The recorder absorbs the bundles at *job boundaries* only.

/// Counters a compiled-circuit solver accumulates across a run.
///
/// Lives on the persistent `NewtonWorkspace`, so by default the
/// counts span the workspace's whole lifetime (e.g. both SPICE passes
/// of the Fig 8 methodology).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Newton solves started (DC operating point attempts, homotopy
    /// rungs and transient trial steps all count once each).
    pub solve_attempts: u64,
    /// Newton iterations across all solves.
    pub newton_iterations: u64,
    /// Transient steps accepted by the local-truncation control.
    pub steps_accepted: u64,
    /// Transient trial steps rejected (halved and retried).
    pub timestep_rejections: u64,
    /// Gmin rungs fired by the transient rescue ladder.
    pub rescue_gmin_rungs: u64,
    /// Config rungs (iterations ×2ᵏ / clamp ÷2ᵏ) fired by the ladder.
    pub rescue_config_rungs: u64,
    /// Fault-plan arms that actually triggered (solve- or step-site).
    pub faults_injected: u64,
}

impl SolverStats {
    /// Adds another bundle's counts into this one.
    pub fn add(&mut self, other: Self) {
        self.solve_attempts += other.solve_attempts;
        self.newton_iterations += other.newton_iterations;
        self.steps_accepted += other.steps_accepted;
        self.timestep_rejections += other.timestep_rejections;
        self.rescue_gmin_rungs += other.rescue_gmin_rungs;
        self.rescue_config_rungs += other.rescue_config_rungs;
        self.faults_injected += other.faults_injected;
    }

    /// `true` when every counter is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// The rescue-ladder firings as the PR4 `(gmin, config)` pair.
    #[must_use]
    pub fn rescue_rungs(&self) -> (u64, u64) {
        (self.rescue_gmin_rungs, self.rescue_config_rungs)
    }
}

/// The per-job scenario ticket: the sampled-scenario hash plus the
/// aging stress time, journalled with every job so a quarantined or
/// rescued cell is attributable to its exact process/voltage/
/// temperature/aging corner.
///
/// Copied (not computed) at the job boundary: the scenario layer
/// stamps it once when the sample is drawn, so carrying it costs two
/// plain stores in the hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScenarioStamp {
    /// SplitMix64 fold over every value the scenario sampler drew.
    pub hash: u64,
    /// NBTI stress time of the scenario, seconds.
    pub aging_seconds: f64,
}

/// Counters the uniformisation sampler accumulates per trap
/// simulation: the Markov-uniformisation candidate loop's
/// accept/reject tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrapStats {
    /// Candidate transition epochs drawn from the dominating Poisson
    /// process.
    pub candidates: u64,
    /// Candidates accepted as real capture/emission transitions.
    pub accepted: u64,
}

impl TrapStats {
    /// Adds another bundle's counts into this one.
    pub fn add(&mut self, other: Self) {
        self.candidates += other.candidates;
        self.accepted += other.accepted;
    }

    /// `true` when every counter is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_stats_add_sums_field_wise() {
        let mut a = SolverStats {
            solve_attempts: 2,
            newton_iterations: 10,
            ..SolverStats::default()
        };
        a.add(SolverStats {
            solve_attempts: 1,
            newton_iterations: 4,
            timestep_rejections: 3,
            ..SolverStats::default()
        });
        assert_eq!(a.solve_attempts, 3);
        assert_eq!(a.newton_iterations, 14);
        assert_eq!(a.timestep_rejections, 3);
        assert!(!a.is_empty());
        assert!(SolverStats::default().is_empty());
    }

    #[test]
    fn trap_stats_accumulate() {
        let mut t = TrapStats::default();
        t.add(TrapStats {
            candidates: 7,
            accepted: 3,
        });
        assert_eq!((t.candidates, t.accepted), (7, 3));
    }
}
