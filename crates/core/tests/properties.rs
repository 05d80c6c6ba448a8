//! Property-based tests of the uniformisation kernel over random trap
//! parameters and bias waveforms, and of the failure-policy contracts
//! of the resilient ensemble engine.

use proptest::prelude::*;

use samurai_core::checkpoint::{run_ensemble_checkpointed, RunBudget, RunControls};
use samurai_core::ensemble::{
    run_ensemble_resilient_observed, Completion, ExecutionPolicy, FailurePolicy, IndexedResults,
    Parallelism,
};
use samurai_core::faults::{FaultKind, FaultPlan};
use samurai_core::telemetry::{JobProbe, Recorder};
use samurai_core::{
    simulate_trap, simulate_trap_probed, CoreError, SeedStream, UniformisationConfig,
};
use samurai_trap::{DeviceParams, PropensityModel, TrapParams, TrapState};
use samurai_units::{Energy, Length};
use samurai_waveform::Pwl;

fn model(depth_nm: f64, energy_ev: f64, initial: TrapState) -> PropensityModel {
    PropensityModel::new(
        DeviceParams::nominal_90nm(),
        TrapParams::new(
            Length::from_nanometres(depth_nm),
            Energy::from_ev(energy_ev),
        )
        .with_initial_state(initial),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Structural invariants of every generated trajectory: strictly
    /// increasing event times inside the horizon, binary alternating
    /// states, and the configured initial state at t0.
    #[test]
    fn trajectories_are_wellformed(
        depth in 1.4f64..2.0,
        energy in 0.1f64..0.7,
        v_lo in 0.0f64..0.6,
        dv in 0.1f64..0.6,
        start_filled in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let initial = if start_filled { TrapState::Filled } else { TrapState::Empty };
        let m = model(depth, energy, initial);
        let lambda = m.rate_sum();
        let period = 50.0 / lambda;
        let bias = Pwl::clock(v_lo, v_lo + dv, 0.0, period, 0.5, period / 50.0, 3).unwrap();
        let tf = 3.0 * period;
        let mut rng = SeedStream::new(seed).rng(0);
        let occ = simulate_trap(&m, &bias, 0.0, tf, &mut rng).unwrap();

        let steps = occ.steps();
        prop_assert_eq!(steps[0], (0.0, initial.occupancy()));
        for w in steps.windows(2) {
            prop_assert!(w[1].0 > w[0].0, "times strictly increase");
            prop_assert!(w[1].0 <= tf, "no events past the horizon");
            prop_assert!(w[0].1 == 0.0 || w[0].1 == 1.0);
            prop_assert_ne!(w[0].1, w[1].1, "states alternate");
        }
    }

    /// The first-event time from a fixed state under constant bias is
    /// exponential with the leave rate: its mean over many runs
    /// matches 1/λ_leave.
    #[test]
    fn first_event_time_is_exponential(
        depth in 1.6f64..2.0,
        seed in 0u64..50,
    ) {
        let m = model(depth, 0.4, TrapState::Empty);
        // Bias where capture clearly dominates but is not saturated.
        let (mut lo, mut hi) = (-2.0, 3.0);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if m.stationary_occupancy(mid) < 0.7 { lo = mid; } else { hi = mid; }
        }
        let v = 0.5 * (lo + hi);
        let (lc, _) = m.propensities(v);
        let horizon = 50.0 / lc;
        let runs: usize = 600;
        let seeds = SeedStream::new(seed);
        let mut total = 0.0;
        let mut counted = 0usize;
        for r in 0..runs {
            let occ = simulate_trap(&m, &Pwl::constant(v), 0.0, horizon, &mut seeds.rng(r as u64))
                .unwrap();
            if let Some(&(t, _)) = occ.steps().get(1) {
                total += t;
                counted += 1;
            }
        }
        prop_assert!(counted > runs / 2);
        let mean = total / counted as f64;
        // Truncation at the horizon biases the mean slightly low;
        // allow 15 %.
        prop_assert!(
            (mean * lc - 1.0).abs() < 0.15,
            "mean first-capture time {mean} vs 1/lc {}", 1.0 / lc
        );
    }

    /// Raising the bias never lowers the long-run occupancy fraction
    /// (monotone coupling of the stationary law).
    #[test]
    fn occupancy_fraction_is_monotone_in_bias(
        depth in 1.7f64..1.95,
        seed in 0u64..20,
    ) {
        let m = model(depth, 0.4, TrapState::Empty);
        let v_mid = m.balanced_bias();
        let tf = 2000.0 / m.rate_sum();
        let frac = |v: f64, s: u64| {
            let occ = simulate_trap(
                &m,
                &Pwl::constant(v),
                0.0,
                tf,
                &mut SeedStream::new(s).rng(0),
            )
            .unwrap();
            occ.fraction_at(0.0, tf, 1.0, 0.0)
        };
        let low = frac(v_mid - 0.25, seed);
        let high = frac(v_mid + 0.25, seed);
        // Strongly separated stationary laws: sampling noise cannot
        // invert them at this trace length.
        prop_assert!(high > low, "high-bias fraction {high} vs low-bias {low}");
    }

    /// `EmptyHorizon` fires for every reversed or empty horizon — and
    /// echoes the offending bounds — while any positive span succeeds.
    #[test]
    fn empty_horizon_fires_exactly_when_documented(
        t0 in -1.0f64..1.0,
        span in 0.0f64..1e-3,
        seed in 0u64..100,
    ) {
        let m = model(1.7, 0.4, TrapState::Empty);
        let bias = Pwl::constant(0.8);

        // tf <= t0 (including tf == t0) must refuse with the bounds.
        let tf_bad = t0 - span;
        let err = simulate_trap(&m, &bias, t0, tf_bad, &mut SeedStream::new(seed).rng(0))
            .expect_err("empty horizon must not simulate");
        prop_assert_eq!(err, CoreError::EmptyHorizon { t0, tf: tf_bad });

        // Any strictly positive span simulates.
        let ok = simulate_trap(&m, &bias, t0, t0 + span + 1e-9, &mut SeedStream::new(seed).rng(0));
        prop_assert!(ok.is_ok(), "positive span must simulate: {:?}", ok);
    }

    /// `EventBudgetExceeded` fires exactly when the candidate count
    /// would pass the configured budget — and reports that budget and
    /// the trap's `λ*` — while a generous budget lets the same horizon
    /// through.
    #[test]
    fn event_budget_fires_exactly_when_documented(
        depth in 1.5f64..1.9,
        seed in 0u64..100,
        budget in 1usize..16,
    ) {
        let m = model(depth, 0.4, TrapState::Empty);
        let lambda = m.rate_sum();
        // ~500 expected candidates: a budget under 16 is essentially
        // certain to trip, one of 100_000 essentially certain not to.
        let tf = 500.0 / lambda;
        let bias = Pwl::constant(0.8);

        let tight = UniformisationConfig { max_candidate_events: budget };
        let mut rng = SeedStream::new(seed).rng(0);
        let err = simulate_trap_probed(&m, &bias, 0.0, tf, &mut rng, &tight, &mut JobProbe::disabled())
            .expect_err("budget far below the candidate count must trip");
        match err {
            CoreError::EventBudgetExceeded { budget: b, rate } => {
                prop_assert_eq!(b, budget, "the error must echo the configured budget");
                // The kernel may sum the propensities in a different
                // association than rate_sum(): allow the last ulps.
                prop_assert!(
                    (rate - lambda).abs() <= 1e-12 * lambda,
                    "reported rate {rate} vs lambda* {lambda}"
                );
            }
            other => return Err(TestCaseError::fail(format!("wrong error: {other}"))),
        }

        let roomy = UniformisationConfig { max_candidate_events: 100_000 };
        let mut rng = SeedStream::new(seed).rng(0);
        let occ = simulate_trap_probed(&m, &bias, 0.0, tf, &mut rng, &roomy, &mut JobProbe::disabled());
        prop_assert!(occ.is_ok(), "roomy budget must succeed: {:?}", occ);
    }

    /// `Quarantine` is bit-identical at every worker count: the
    /// surviving items, the quarantined set (with seeds and attempt
    /// counts) and their order are all functions of `(seed, plan)`
    /// alone, never of the shard race.
    #[test]
    fn quarantine_is_bit_identical_at_any_worker_count(
        jobs in 4usize..40,
        bad_a in 0usize..40,
        bad_b in 0usize..40,
        seed in 0u64..1000,
    ) {
        let bad_a = bad_a % jobs;
        let bad_b = bad_b % jobs;
        let faults = FaultPlan::none()
            .fail_job(bad_a, FaultKind::NonConvergence)
            .fail_job(bad_b, FaultKind::SingularMatrix);
        let run = |workers: usize| {
            let policy = ExecutionPolicy {
                failure: FailurePolicy::Quarantine { rungs: 1, max_failures: 2 },
                faults: faults.clone(),
                seed,
            };
            run_ensemble_resilient_observed::<IndexedResults<u64>, _, CoreError>(
                jobs,
                Parallelism::Fixed(workers),
                &policy,
                &mut Recorder::noop(),
                IndexedResults::new,
                |job, rung, _probe| Ok((job as u64) * 1000 + rung as u64),
            )
            .expect("quarantine absorbs the planned failures")
        };

        let reference = run(1);
        let ref_items = reference.acc.into_vec();
        let ref_bad: Vec<(usize, u64, usize)> = reference
            .report
            .quarantined
            .iter()
            .map(|f| (f.job, f.seed, f.rungs_attempted))
            .collect();
        let mut expect_bad = vec![bad_a, bad_b];
        expect_bad.sort_unstable();
        expect_bad.dedup();
        prop_assert_eq!(
            ref_bad.iter().map(|q| q.0).collect::<Vec<_>>(),
            expect_bad.clone()
        );
        prop_assert_eq!(ref_items.len(), jobs - expect_bad.len());
        prop_assert_eq!(reference.report.effective_jobs(), ref_items.len());

        for workers in [2usize, 8] {
            let out = run(workers);
            prop_assert_eq!(out.acc.into_vec(), ref_items.clone(), "{} workers", workers);
            let bad: Vec<(usize, u64, usize)> = out
                .report
                .quarantined
                .iter()
                .map(|f| (f.job, f.seed, f.rungs_attempted))
                .collect();
            prop_assert_eq!(bad, ref_bad.clone(), "{} workers", workers);
        }
    }

    /// `Retry` touches only the jobs that actually failed: every job
    /// that succeeds on its nominal attempt contributes exactly the
    /// item it would have contributed under `FailFast`, and the rescue
    /// report names the failing job alone.
    #[test]
    fn retry_never_changes_jobs_that_succeed_on_the_nominal_attempt(
        jobs in 2usize..32,
        bad in 0usize..32,
        rungs in 1usize..4,
        seed in 0u64..1000,
    ) {
        let bad = bad % jobs;
        let run = |failure: FailurePolicy, fail_bad: bool| {
            run_ensemble_resilient_observed::<IndexedResults<(usize, usize)>, _, CoreError>(
                jobs,
                Parallelism::Fixed(4),
                &ExecutionPolicy { failure, faults: FaultPlan::none(), seed },
                &mut Recorder::noop(),
                IndexedResults::new,
                move |job, rung, _probe| {
                    if fail_bad && job == bad && rung == 0 {
                        Err(CoreError::EmptyHorizon { t0: 0.0, tf: 0.0 })
                    } else {
                        Ok((job, rung))
                    }
                },
            )
        };

        let clean = run(FailurePolicy::FailFast, false)
            .expect("nothing fails")
            .acc
            .into_vec();
        let outcome = run(FailurePolicy::Retry { rungs }, true).expect("retry rescues");
        let items = outcome.acc.into_vec();
        prop_assert_eq!(items.len(), jobs);
        for (got, want) in items.iter().zip(&clean) {
            if got.0 == bad {
                prop_assert_eq!(got.1, 1, "the failing job succeeds on rung 1");
            } else {
                prop_assert_eq!(got, want, "rung-0 successes are untouched");
            }
        }
        prop_assert_eq!(outcome.report.rescued.len(), 1);
        prop_assert_eq!(outcome.report.rescued[0].job, bad);
        prop_assert_eq!(outcome.report.rescued[0].rung, 1);
        prop_assert!(outcome.report.quarantined.is_empty());
    }

    /// An exhausted job budget truncates at a deterministic boundary:
    /// `completed + remaining == jobs`, and the truncated accumulator
    /// and quarantine report are bit-identical to the uninterrupted
    /// run's prefix, at any worker count.
    #[test]
    fn a_truncated_budget_is_an_exact_prefix(
        jobs in 4usize..96,
        max in 0usize..120,
        bad in 0usize..96,
        workers_ix in 0usize..3,
        seed in 0u64..1000,
    ) {
        let bad = bad % jobs;
        let workers = [1usize, 2, 8][workers_ix];
        let policy = ExecutionPolicy {
            failure: FailurePolicy::Quarantine { rungs: 1, max_failures: 1 },
            faults: FaultPlan::none().fail_job(bad, FaultKind::NonConvergence),
            seed,
        };
        let run = |budget: RunBudget| {
            run_ensemble_checkpointed::<IndexedResults<u64>, _, CoreError>(
                jobs,
                Parallelism::Fixed(workers),
                &policy,
                &RunControls { budget, ..RunControls::default() },
                &mut Recorder::noop(),
                IndexedResults::new,
                |job, rung, _probe| Ok((job as u64) * 1000 + rung as u64),
            )
            .expect("quarantine absorbs the planned failure")
        };

        let full = run(RunBudget::unlimited());
        prop_assert_eq!(full.completion, Completion::Complete);

        let truncated = run(RunBudget::unlimited().jobs(max));
        // Sub-1024-job ensembles have shard width 1, so the
        // rounded-down job budget is exact.
        let completed = max.min(jobs);
        if completed == jobs {
            prop_assert_eq!(truncated.completion, Completion::Complete);
        } else {
            prop_assert_eq!(
                truncated.completion,
                Completion::Truncated { completed, remaining: jobs - completed }
            );
        }

        let want_items: Vec<(usize, u64)> = full
            .acc
            .slots()
            .iter()
            .filter(|(job, _)| *job < completed)
            .copied()
            .collect();
        prop_assert_eq!(truncated.acc.slots().to_vec(), want_items);

        let want_bad: Vec<(usize, u64, usize)> = full
            .report
            .quarantined
            .iter()
            .filter(|f| f.job < completed)
            .map(|f| (f.job, f.seed, f.rungs_attempted))
            .collect();
        let got_bad: Vec<(usize, u64, usize)> = truncated
            .report
            .quarantined
            .iter()
            .map(|f| (f.job, f.seed, f.rungs_attempted))
            .collect();
        prop_assert_eq!(got_bad, want_bad);
        // The report covers exactly the jobs whose results are in the
        // accumulator.
        prop_assert_eq!(truncated.report.effective_jobs(), truncated.acc.slots().len());
    }
}
