//! The [`Recorder`]: one handle threading metrics + journal through a
//! run, and the [`JobProbe`]/[`JobRecord`] plumbing the ensemble
//! engine uses to carry per-job statistics across threads.
//!
//! Flow: worker threads fill a [`JobProbe`] per job (plain counter
//! copies, no locks, no clocks in shared state); the engine bundles
//! each finished job into a [`JobRecord`] inside its shard outcome;
//! after the deterministic shard merge the single-threaded
//! [`Recorder`] absorbs the records **in job order** — journal lines,
//! solver and trap totals and the latency sample all come from that
//! ordered pass, which is why they are worker-count independent.

use crate::hist::percentile;
use crate::journal::{Journal, JournalEvent};
use crate::json::JsonValue;
use crate::stats::{ScenarioStamp, SolverStats, TrapStats};

/// Per-job statistics collection point handed to job closures.
///
/// A dead probe (from a [`Recorder::noop`] run) ignores everything, so
/// instrumented closures cost two predictable branches when telemetry
/// is off.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobProbe {
    live: bool,
    solver: SolverStats,
    trap: TrapStats,
    scenario: Option<ScenarioStamp>,
}

impl JobProbe {
    /// A probe that records iff `live`.
    #[must_use]
    pub fn new(live: bool) -> Self {
        Self {
            live,
            ..Self::default()
        }
    }

    /// A probe that ignores everything.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Adds a solver-counter bundle (typically a workspace delta).
    pub fn record_solver(&mut self, stats: SolverStats) {
        if self.live {
            self.solver.add(stats);
        }
    }

    /// Adds a uniformisation accept/reject bundle.
    pub fn record_trap(&mut self, stats: TrapStats) {
        if self.live {
            self.trap.add(stats);
        }
    }

    /// The solver counters recorded so far.
    #[must_use]
    pub fn solver(&self) -> SolverStats {
        self.solver
    }

    /// The trap counters recorded so far.
    #[must_use]
    pub fn trap(&self) -> TrapStats {
        self.trap
    }

    /// Stamps the job's scenario ticket (hash + aging time). Jobs
    /// outside a scenario sweep never call this, so their journal
    /// lines keep the legacy schema.
    pub fn record_scenario(&mut self, stamp: ScenarioStamp) {
        if self.live {
            self.scenario = Some(stamp);
        }
    }

    /// The scenario ticket recorded for this job, if any.
    #[must_use]
    pub fn scenario(&self) -> Option<ScenarioStamp> {
        self.scenario
    }
}

/// One finished job's statistics, as carried home by a worker.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The stable job index.
    pub job: usize,
    /// Wall-clock seconds the job took (metrics only — never
    /// journalled).
    pub seconds: f64,
    /// The rescue rung it succeeded on (`None` = nominal attempt).
    pub rescued: Option<usize>,
    /// Solver counters from the job's probe.
    pub solver: SolverStats,
    /// Trap counters from the job's probe.
    pub trap: TrapStats,
    /// Scenario ticket from the job's probe (`None` outside scenario
    /// sweeps, keeping legacy journal lines byte-identical).
    pub scenario: Option<ScenarioStamp>,
}

impl JobRecord {
    /// Serialises the record for a checkpoint snapshot. Every number
    /// is carried as an exact `u64` — floats travel as their IEEE-754
    /// bit patterns — so a resumed run reproduces the record
    /// bit-for-bit and the journal it feeds stays byte-identical.
    #[must_use]
    pub fn to_checkpoint_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("job", JsonValue::U64(self.job as u64)),
            ("seconds_bits", JsonValue::U64(self.seconds.to_bits())),
            (
                "rescued",
                match self.rescued {
                    Some(rung) => JsonValue::U64(rung as u64),
                    None => JsonValue::Null,
                },
            ),
            (
                "solver",
                JsonValue::Arr(
                    [
                        self.solver.solve_attempts,
                        self.solver.newton_iterations,
                        self.solver.steps_accepted,
                        self.solver.timestep_rejections,
                        self.solver.rescue_gmin_rungs,
                        self.solver.rescue_config_rungs,
                        self.solver.faults_injected,
                    ]
                    .iter()
                    .map(|&n| JsonValue::U64(n))
                    .collect(),
                ),
            ),
            (
                "trap",
                JsonValue::Arr(vec![
                    JsonValue::U64(self.trap.candidates),
                    JsonValue::U64(self.trap.accepted),
                ]),
            ),
            (
                "scenario",
                match self.scenario {
                    Some(stamp) => JsonValue::obj(vec![
                        ("hash", JsonValue::U64(stamp.hash)),
                        (
                            "aging_seconds_bits",
                            JsonValue::U64(stamp.aging_seconds.to_bits()),
                        ),
                    ]),
                    None => JsonValue::Null,
                },
            ),
        ])
    }

    /// Rebuilds a record written by [`JobRecord::to_checkpoint_json`].
    /// Returns `None` on any structural mismatch — checkpoint loaders
    /// treat that as corruption and degrade to a cold start.
    #[must_use]
    pub fn from_checkpoint_json(v: &JsonValue) -> Option<Self> {
        let solver = match v.get("solver")? {
            JsonValue::Arr(items) if items.len() == 7 => {
                let mut n = items.iter().map(JsonValue::as_u64);
                SolverStats {
                    solve_attempts: n.next()??,
                    newton_iterations: n.next()??,
                    steps_accepted: n.next()??,
                    timestep_rejections: n.next()??,
                    rescue_gmin_rungs: n.next()??,
                    rescue_config_rungs: n.next()??,
                    faults_injected: n.next()??,
                }
            }
            _ => return None,
        };
        let trap = match v.get("trap")? {
            JsonValue::Arr(items) if items.len() == 2 => TrapStats {
                candidates: items[0].as_u64()?,
                accepted: items[1].as_u64()?,
            },
            _ => return None,
        };
        let scenario = match v.get("scenario")? {
            JsonValue::Null => None,
            stamp => Some(ScenarioStamp {
                hash: stamp.get("hash")?.as_u64()?,
                aging_seconds: f64::from_bits(stamp.get("aging_seconds_bits")?.as_u64()?),
            }),
        };
        let rescued = match v.get("rescued")? {
            JsonValue::Null => None,
            rung => Some(usize::try_from(rung.as_u64()?).ok()?),
        };
        Some(Self {
            job: usize::try_from(v.get("job")?.as_u64()?).ok()?,
            seconds: f64::from_bits(v.get("seconds_bits")?.as_u64()?),
            rescued,
            solver,
            trap,
            scenario,
        })
    }
}

/// The single-threaded collection handle for one observed run.
///
/// Liveness is a runtime flag fixed at construction: a
/// [`Recorder::noop`] ignores every call, and the ensemble engine
/// skips probe and record work entirely when [`Recorder::live`] is
/// `false`. The default recorder is the noop one.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    live: bool,
    journal: Journal,
    job_seconds: Vec<f64>,
    solver_totals: SolverStats,
    trap_totals: TrapStats,
}

/// Another name for [`Recorder`], kept for callers written when the
/// recording recorder was a type of its own.
pub type MemoryRecorder = Recorder;

impl Recorder {
    /// The do-nothing recorder.
    #[must_use]
    pub fn noop() -> Self {
        Self::default()
    }

    /// A recorder that journals and totals every absorbed job.
    #[must_use]
    pub fn recording() -> Self {
        Self {
            live: true,
            ..Self::default()
        }
    }

    /// Whether anything is recorded at all.
    #[must_use]
    pub fn live(&self) -> bool {
        self.live
    }

    /// Absorbs one finished job: a journal line (counts only), the
    /// solver and trap totals, and the latency sample. Call in job
    /// order.
    pub fn absorb_job(&mut self, rec: &JobRecord) {
        if !self.live {
            return;
        }
        self.journal.push(JournalEvent::Job {
            job: rec.job,
            rescued_rung: rec.rescued,
            solver: rec.solver,
            trap: rec.trap,
            scenario: rec.scenario,
        });
        self.solver_totals.add(rec.solver);
        self.trap_totals.add(rec.trap);
        self.job_seconds.push(rec.seconds);
    }

    /// Journals a rescue outcome (summary line, after the job lines).
    pub fn record_rescue(&mut self, job: usize, rung: usize) {
        if self.live {
            self.journal.push(JournalEvent::Rescued { job, rung });
        }
    }

    /// Journals a quarantine decision.
    pub fn record_quarantine(
        &mut self,
        job: usize,
        seed: u64,
        rungs_attempted: usize,
        error: &str,
    ) {
        if self.live {
            self.journal.push(JournalEvent::Quarantined {
                job,
                seed,
                rungs_attempted,
                error: error.to_owned(),
            });
        }
    }

    /// Journals a labelled count from outside the per-job flow.
    pub fn note(&mut self, label: &str, value: u64) {
        if self.live {
            self.journal.push(JournalEvent::Note {
                label: label.to_owned(),
                value,
            });
        }
    }

    /// The journal accumulated so far.
    #[must_use]
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Per-job wall-clock samples, in job order.
    #[must_use]
    pub fn job_seconds(&self) -> &[f64] {
        &self.job_seconds
    }

    /// Solver counters summed over all absorbed jobs.
    #[must_use]
    pub fn solver_totals(&self) -> SolverStats {
        self.solver_totals
    }

    /// Trap counters summed over all absorbed jobs.
    #[must_use]
    pub fn trap_totals(&self) -> TrapStats {
        self.trap_totals
    }

    /// The `BENCH_<name>.json` summary document: identity, wall-clock
    /// throughput, per-job latency percentiles, solver/sampler totals
    /// and journal size.
    #[must_use]
    pub fn summary(&self, name: &str, jobs: usize, wall_seconds: f64) -> JsonValue {
        let mut sorted = self.job_seconds.clone();
        sorted.sort_by(f64::total_cmp);
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<f64>() / sorted.len() as f64
        };
        let throughput = if wall_seconds > 0.0 {
            jobs as f64 / wall_seconds
        } else {
            0.0
        };
        let s = self.solver_totals;
        let t = self.trap_totals;
        JsonValue::obj(vec![
            ("name", JsonValue::Str(name.to_owned())),
            ("jobs", JsonValue::U64(jobs as u64)),
            ("wall_seconds", JsonValue::F64(wall_seconds)),
            ("throughput_jobs_per_s", JsonValue::F64(throughput)),
            (
                "latency",
                JsonValue::obj(vec![
                    ("mean_s", JsonValue::F64(mean)),
                    ("p50_s", JsonValue::F64(percentile(&sorted, 0.50))),
                    ("p95_s", JsonValue::F64(percentile(&sorted, 0.95))),
                    ("p99_s", JsonValue::F64(percentile(&sorted, 0.99))),
                ]),
            ),
            (
                "solver",
                JsonValue::obj(vec![
                    ("solve_attempts", JsonValue::U64(s.solve_attempts)),
                    ("newton_iterations", JsonValue::U64(s.newton_iterations)),
                    ("steps_accepted", JsonValue::U64(s.steps_accepted)),
                    ("timestep_rejections", JsonValue::U64(s.timestep_rejections)),
                    ("rescue_gmin_rungs", JsonValue::U64(s.rescue_gmin_rungs)),
                    ("rescue_config_rungs", JsonValue::U64(s.rescue_config_rungs)),
                    ("faults_injected", JsonValue::U64(s.faults_injected)),
                ]),
            ),
            (
                "trap",
                JsonValue::obj(vec![
                    ("candidates", JsonValue::U64(t.candidates)),
                    ("accepted", JsonValue::U64(t.accepted)),
                ]),
            ),
            ("journal_events", JsonValue::U64(self.journal.len() as u64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(job: usize) -> JobRecord {
        JobRecord {
            job,
            seconds: 0.25 * (job + 1) as f64,
            rescued: (job == 1).then_some(2),
            solver: SolverStats {
                solve_attempts: 1,
                newton_iterations: 5,
                ..SolverStats::default()
            },
            trap: TrapStats {
                candidates: 10,
                accepted: 4,
            },
            scenario: None,
        }
    }

    #[test]
    fn noop_recorder_stays_empty() {
        let mut r = Recorder::noop();
        assert!(!r.live());
        r.absorb_job(&record(0));
        r.record_rescue(0, 1);
        r.record_quarantine(1, 7, 2, "boom");
        r.note("x", 1);
        assert!(r.journal().is_empty());
        assert!(r.job_seconds().is_empty());
        assert!(r.solver_totals().is_empty());
    }

    #[test]
    fn memory_recorder_accumulates_in_order() {
        let mut r = Recorder::recording();
        assert!(r.live());
        for j in 0..3 {
            r.absorb_job(&record(j));
        }
        r.record_rescue(1, 2);
        r.record_quarantine(5, 99, 3, "NonConvergence");
        r.note("margin.multisection_rounds", 1);
        assert_eq!(r.journal().len(), 6);
        assert_eq!(r.solver_totals().newton_iterations, 15);
        assert_eq!(r.trap_totals().candidates, 30);
        assert_eq!(r.job_seconds(), &[0.25, 0.5, 0.75]);

        let summary = r.summary("unit", 3, 1.5);
        assert_eq!(summary.get("jobs").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(
            summary
                .get("throughput_jobs_per_s")
                .and_then(JsonValue::as_f64),
            Some(2.0)
        );
        let latency = summary.get("latency").unwrap();
        assert_eq!(latency.get("p50_s").and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(
            summary.get("journal_events").and_then(JsonValue::as_f64),
            Some(6.0)
        );
    }

    #[test]
    fn probe_records_only_when_live() {
        let mut dead = JobProbe::disabled();
        dead.record_solver(SolverStats {
            solve_attempts: 1,
            ..SolverStats::default()
        });
        assert!(dead.solver().is_empty());

        let mut live = JobProbe::new(true);
        live.record_solver(SolverStats {
            solve_attempts: 1,
            ..SolverStats::default()
        });
        live.record_trap(TrapStats {
            candidates: 2,
            accepted: 1,
        });
        assert_eq!(live.solver().solve_attempts, 1);
        assert_eq!(live.trap().accepted, 1);
    }
}
