//! Deterministic fault injection.
//!
//! Large Monte-Carlo ensembles only exercise the solver's rescue
//! machinery (dcop gmin/source stepping, timestep halving, the
//! transient rescue ladder, ensemble retry/quarantine) when something
//! actually fails — and genuine failures are rare, circuit-dependent
//! and impossible to place in a unit test. This module provides a
//! *seeded, explicit* alternative: a [`FaultPlan`] describes, ahead of
//! time, which solve/step/job should fail and how, and is threaded
//! through configuration structs (never globals) down to the point of
//! failure. Every injected failure is therefore reproducible from the
//! `(seed, plan)` pair alone, and bit-identical at any worker count.
//!
//! # Architecture
//!
//! * [`FaultPlan`] — the declarative schedule. Built once (in tests or
//!   diagnostics tooling; lint rule `DET005` bans construction in
//!   production code), cloned freely, carried by value in configs.
//!   [`FaultPlan::none()`] is the free default everywhere.
//! * [`FaultArm`] — the *pre-resolved* per-site trigger state handed
//!   to a hot loop. Arming happens once, outside the loop; the
//!   per-iteration cost is [`FaultArm::check`], a counter increment
//!   plus one integer compare — no lookup, no allocation.
//! * [`InjectedFault`] — the error carrier for faults raised at the
//!   ensemble (job) level, convertible into the consumer's error type
//!   via `From`.
//!
//! # Sites and counting
//!
//! Counters are 1-based and local to the armed context: "the 2nd
//! solve" means the second `newton()` invocation after the workspace
//! was armed. Job-site triggers are keyed on the job *index* (not a
//! counter), which is what makes them worker-count independent.

use core::fmt;

/// Which failure mode to force at the trigger point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The LU factorisation finds a zero pivot (`SingularMatrix`).
    SingularMatrix,
    /// Newton iteration refuses to converge (`NonConvergence`).
    NonConvergence,
    /// A NaN appears in the residual vector (`NumericalBreakdown`).
    NanResidual,
    /// Timestep control bottoms out at the floor (`StepUnderflow`).
    TimestepFloor,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultKind::SingularMatrix => "singular matrix",
            FaultKind::NonConvergence => "non-convergence",
            FaultKind::NanResidual => "NaN residual",
            FaultKind::TimestepFloor => "timestep floor",
        };
        f.write_str(name)
    }
}

/// Where in the stack a trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// One Newton solve (a dcop homotopy rung, a transient trial, …).
    Solve,
    /// One attempted transient step.
    Step,
    /// One ensemble job (fails irrecoverably, on every rescue rung).
    Job,
}

/// One planned failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Trigger {
    site: FaultSite,
    kind: FaultKind,
    /// Solve/Step: the 1-based event count. Job: the job index.
    at: u64,
    /// Restricts a Solve/Step trigger to a single ensemble job.
    job: Option<usize>,
}

/// A deterministic schedule of injected failures.
///
/// The default plan is empty and injects nothing; carrying one in a
/// config is free. Constructors are builder-style and consume `self`
/// so plans read as one expression:
///
/// ```
/// use samurai_core::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::none()
///     .fail_nth_solve(1, FaultKind::NonConvergence)
///     .fail_nth_solve(2, FaultKind::SingularMatrix);
/// assert!(!plan.is_empty());
/// ```
///
/// Production code never builds plans (lint rule `DET005`); it only
/// *carries* them (`FaultPlan` fields defaulting to `none()`) and
/// *arms* them at the failure sites.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    triggers: Vec<Trigger>,
    /// Job index before which a checkpointed run kills its own
    /// process (crash drill for the resume path). `None` = never.
    kill_at: Option<usize>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, costs nothing.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan holds no triggers at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty() && self.kill_at.is_none()
    }

    /// Fails the `n`-th Newton solve (1-based) with `kind`.
    #[must_use]
    pub fn fail_nth_solve(mut self, n: u64, kind: FaultKind) -> Self {
        self.triggers.push(Trigger {
            site: FaultSite::Solve,
            kind,
            at: n,
            job: None,
        });
        self
    }

    /// Fails the `n`-th attempted transient step (1-based) with `kind`.
    #[must_use]
    pub fn fail_nth_step(mut self, n: u64, kind: FaultKind) -> Self {
        self.triggers.push(Trigger {
            site: FaultSite::Step,
            kind,
            at: n,
            job: None,
        });
        self
    }

    /// Fails ensemble job `job` irrecoverably (on every rescue rung)
    /// with an [`InjectedFault`] of the given `kind`.
    #[must_use]
    pub fn fail_job(mut self, job: usize, kind: FaultKind) -> Self {
        self.triggers.push(Trigger {
            site: FaultSite::Job,
            kind,
            at: job as u64,
            job: Some(job),
        });
        self
    }

    /// Schedules a *process kill*: a checkpointed ensemble runner
    /// aborts the whole process (exit code [`crate::KILL_EXIT`])
    /// immediately before executing job `job`. This is the crash
    /// drill for checkpoint/resume — unlike every other trigger it
    /// never surfaces as an error, because the process does not
    /// survive to observe one. Ignored by non-checkpointed runners.
    #[must_use]
    pub fn kill_at_job(mut self, job: usize) -> Self {
        self.kill_at = Some(job);
        self
    }

    /// The job index scheduled for a process kill, if any.
    #[must_use]
    pub fn kill_job(&self) -> Option<usize> {
        self.kill_at
    }

    /// Restricts the most recently added Solve/Step trigger to fire
    /// only inside ensemble job `job` (see [`FaultPlan::for_job`]).
    #[must_use]
    pub fn in_job(mut self, job: usize) -> Self {
        if let Some(last) = self.triggers.last_mut() {
            if last.site != FaultSite::Job {
                last.job = Some(job);
            }
        }
        self
    }

    /// Pre-resolves the triggers for `site` into a [`FaultArm`],
    /// ignoring job-scoped triggers (inside an ensemble, arm the job's
    /// [`FaultPlan::for_job`] sub-plan instead).
    #[must_use]
    pub fn arm(&self, site: FaultSite) -> FaultArm {
        let mut queue: Vec<(u64, FaultKind)> = self
            .triggers
            .iter()
            .filter(|t| t.site == site && t.job.is_none())
            .map(|t| (t.at, t.kind))
            .collect();
        // `pop()` consumes from the back, so order ascending and then
        // reverse: the next trigger is always last, and among
        // same-count duplicates the first-declared kind wins.
        queue.sort_by_key(|&(at, _)| at);
        queue.reverse();
        let mut arm = FaultArm {
            count: 0,
            next_at: u64::MAX,
            next_kind: FaultKind::NonConvergence,
            queue,
        };
        arm.advance();
        arm
    }

    /// The sub-plan ensemble job `job` should carry into a nested
    /// runner on rescue rung `rung`: unscoped triggers plus triggers
    /// scoped to this job, with the scoping erased (the nested runner
    /// arms them as its own unscoped triggers). Job-site triggers are
    /// excluded — the ensemble engine raises those itself. Injection is
    /// confined to the nominal attempt: rescue rungs (`rung > 0`) get
    /// the empty plan, so a rescue ladder observes the transient
    /// failure exactly once.
    #[must_use]
    pub fn for_job(&self, job: usize, rung: usize) -> FaultPlan {
        if rung > 0 {
            return FaultPlan::none();
        }
        FaultPlan {
            triggers: self
                .triggers
                .iter()
                .filter(|t| t.site != FaultSite::Job && (t.job.is_none() || t.job == Some(job)))
                .map(|t| Trigger { job: None, ..*t })
                .collect(),
            // A nested runner must never re-kill the process.
            kill_at: None,
        }
    }

    /// The fault, if any, scheduled for ensemble job `job`. Job-site
    /// faults fire on every rescue rung: they model irrecoverable
    /// samples and are what `Quarantine` exists to absorb.
    #[must_use]
    pub fn job_fault(&self, job: usize) -> Option<InjectedFault> {
        self.triggers
            .iter()
            .find(|t| t.site == FaultSite::Job && t.at == job as u64)
            .map(|t| InjectedFault {
                kind: t.kind,
                site: FaultSite::Job,
            })
    }
}

/// Pre-resolved trigger state for one fault site, safe to consult
/// from an allocation-free hot loop.
///
/// `check()` is a counter increment and one comparison on the happy
/// path; the queue is only touched (popped, never grown) when a
/// trigger actually fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultArm {
    count: u64,
    /// Count at which the next trigger fires; `u64::MAX` = disarmed.
    next_at: u64,
    next_kind: FaultKind,
    /// Remaining triggers, sorted descending by count.
    queue: Vec<(u64, FaultKind)>,
}

impl FaultArm {
    /// An arm that never fires — the default for unfaulted runs.
    #[must_use]
    pub fn disarmed() -> Self {
        FaultArm {
            count: 0,
            next_at: u64::MAX,
            next_kind: FaultKind::NonConvergence,
            queue: Vec::new(),
        }
    }

    /// Counts one event; returns the fault to raise, if this is the
    /// trigger point.
    #[inline]
    pub fn check(&mut self) -> Option<FaultKind> {
        self.count += 1;
        if self.count == self.next_at {
            let kind = self.next_kind;
            self.advance();
            Some(kind)
        } else {
            None
        }
    }

    /// Events counted so far (1-based after the first `check`).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Loads the next not-yet-passed trigger from the queue.
    fn advance(&mut self) {
        self.next_at = u64::MAX;
        while let Some((at, kind)) = self.queue.pop() {
            if at > self.count {
                self.next_at = at;
                self.next_kind = kind;
                break;
            }
        }
    }
}

impl Default for FaultArm {
    fn default() -> Self {
        Self::disarmed()
    }
}

/// The error raised when a planned fault fires at the ensemble level.
///
/// Solver-level injections (Solve/Step sites) surface as the *real*
/// error the forced failure mode produces (`SingularMatrix` from a
/// genuinely zeroed LU, `NumericalBreakdown` from a genuinely
/// poisoned residual, …) so the production error paths are the ones
/// under test. Job-site injections have no solver underneath, so they
/// carry this marker instead, converted into the consumer's error
/// type via `From<InjectedFault>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The failure mode that was forced.
    pub kind: FaultKind,
    /// The site the trigger fired at.
    pub site: FaultSite,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let site = match self.site {
            FaultSite::Solve => "solve",
            FaultSite::Step => "step",
            FaultSite::Job => "job",
        };
        write!(f, "injected fault: {} (at {site} site)", self.kind)
    }
}

impl std::error::Error for InjectedFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_arms_to_a_disarmed_arm() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let mut arm = plan.arm(FaultSite::Solve);
        for _ in 0..1000 {
            assert_eq!(arm.check(), None);
        }
        assert_eq!(arm.count(), 1000);
        assert_eq!(plan.job_fault(0), None);
    }

    #[test]
    fn nth_solve_trigger_fires_exactly_once_at_n() {
        let plan = FaultPlan::none().fail_nth_solve(3, FaultKind::SingularMatrix);
        let mut arm = plan.arm(FaultSite::Solve);
        assert_eq!(arm.check(), None);
        assert_eq!(arm.check(), None);
        assert_eq!(arm.check(), Some(FaultKind::SingularMatrix));
        assert_eq!(arm.check(), None);
        // Step site is unaffected.
        let mut step = plan.arm(FaultSite::Step);
        for _ in 0..5 {
            assert_eq!(step.check(), None);
        }
    }

    #[test]
    fn multiple_triggers_fire_in_count_order_regardless_of_declaration() {
        let plan = FaultPlan::none()
            .fail_nth_solve(4, FaultKind::NanResidual)
            .fail_nth_solve(2, FaultKind::NonConvergence);
        let mut arm = plan.arm(FaultSite::Solve);
        let fired: Vec<_> = (0..5).map(|_| arm.check()).collect();
        assert_eq!(
            fired,
            vec![
                None,
                Some(FaultKind::NonConvergence),
                None,
                Some(FaultKind::NanResidual),
                None,
            ]
        );
    }

    #[test]
    fn duplicate_counts_fire_the_first_declared_kind() {
        let plan = FaultPlan::none()
            .fail_nth_solve(2, FaultKind::SingularMatrix)
            .fail_nth_solve(2, FaultKind::NanResidual);
        let mut arm = plan.arm(FaultSite::Solve);
        assert_eq!(arm.check(), None);
        assert_eq!(arm.check(), Some(FaultKind::SingularMatrix));
        // The shadowed duplicate is skipped, not deferred.
        assert_eq!(arm.check(), None);
        assert_eq!(arm.check(), None);
    }

    #[test]
    fn job_scoping_restricts_solve_triggers() {
        let plan = FaultPlan::none()
            .fail_nth_solve(1, FaultKind::NonConvergence)
            .in_job(3);
        // Unscoped arming ignores job-scoped triggers entirely.
        let mut global = plan.arm(FaultSite::Solve);
        assert_eq!(global.check(), None);
        // The scoped job sees it; other jobs do not.
        let mut hit = plan.for_job(3, 0).arm(FaultSite::Solve);
        assert_eq!(hit.check(), Some(FaultKind::NonConvergence));
        let mut miss = plan.for_job(2, 0).arm(FaultSite::Solve);
        assert_eq!(miss.check(), None);
        // Rescue rungs run clean: the fault is observed exactly once.
        let mut rung1 = plan.for_job(3, 1).arm(FaultSite::Solve);
        assert_eq!(rung1.check(), None);
    }

    #[test]
    fn for_job_extracts_a_nested_sub_plan() {
        let plan = FaultPlan::none()
            .fail_nth_solve(1, FaultKind::SingularMatrix)
            .in_job(2)
            .fail_nth_step(4, FaultKind::TimestepFloor)
            .fail_job(5, FaultKind::NonConvergence);
        // Job 2 inherits its scoped solve trigger (unscoped-ified) and
        // the global step trigger; the job-site trigger never leaks.
        let sub = plan.for_job(2, 0);
        assert_eq!(
            sub.arm(FaultSite::Solve).check(),
            Some(FaultKind::SingularMatrix)
        );
        let mut steps = sub.arm(FaultSite::Step);
        for _ in 0..3 {
            assert_eq!(steps.check(), None);
        }
        assert_eq!(steps.check(), Some(FaultKind::TimestepFloor));
        assert_eq!(sub.job_fault(5), None);
        // Other jobs only see the global step trigger.
        assert_eq!(plan.for_job(0, 0).arm(FaultSite::Solve).check(), None);
        // Rescue rungs get the empty plan.
        assert!(plan.for_job(2, 1).is_empty());
    }

    #[test]
    fn job_fault_is_keyed_on_the_job_index() {
        let plan = FaultPlan::none().fail_job(7, FaultKind::TimestepFloor);
        assert_eq!(plan.job_fault(6), None);
        let fault = plan.job_fault(7).expect("job 7 is scheduled to fail");
        assert_eq!(fault.kind, FaultKind::TimestepFloor);
        assert_eq!(fault.site, FaultSite::Job);
        assert_eq!(plan.job_fault(8), None);
    }

    #[test]
    fn display_is_informative() {
        let fault = InjectedFault {
            kind: FaultKind::NanResidual,
            site: FaultSite::Job,
        };
        let text = fault.to_string();
        assert!(text.contains("NaN residual"), "{text}");
        assert!(text.contains("job"), "{text}");
    }
}
