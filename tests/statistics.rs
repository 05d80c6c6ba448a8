//! Statistical regression of the parallel ensemble engine at scale:
//! 10 000 independent traps, sharded over the worker pool.
//!
//! Two kinds of claims are tested.
//!
//! 1. **Exactness**: with the same master seed, the parallel and the
//!    sequential ensemble are the same `f64`s (the engine's
//!    determinism contract).
//! 2. **Unbiasedness**: with *different* seeds, a parallel and a
//!    sequential ensemble still agree — on the stationary occupancy
//!    (two-sample chi-square) and on the Machlup autocorrelation
//!    (per-lag normal bounds), and dwell times stay exponential
//!    (Kolmogorov–Smirnov). Sharding must not be a statistics knob.

use samurai::analysis::{analytical, stats};
use samurai::core::ensemble::{
    run_ensemble_resilient_observed, ExecutionPolicy, IndexedResults, MeanTrace, Parallelism,
};
use samurai::core::telemetry::Recorder;
use samurai::core::{simulate_trap, CoreError, SeedStream};
use samurai::trap::{DeviceParams, PropensityModel, TrapParams};
use samurai::units::{Energy, Length};
use samurai::waveform::Pwl;

const TRAPS: usize = 10_000;
const LAGS: usize = 32;

fn model() -> PropensityModel {
    PropensityModel::new(
        DeviceParams::nominal_90nm(),
        TrapParams::new(Length::from_nanometres(1.7), Energy::from_ev(0.4)),
    )
}

/// Per-trap job: simulate one stationary trace, wait out the burn-in,
/// and return `[x(t_r)·x(t_r + kΔ) for k in 0..LAGS, x(t_r)]` — the
/// raw material for the ensemble autocorrelation and the occupancy.
fn machlup_ensemble(seed: u64, parallelism: Parallelism) -> MeanTrace {
    let m = model();
    let v = 0.82;
    let lambda = m.rate_sum();
    let dlag = 0.2 / lambda;
    let t_ref = 30.0 / lambda; // ~e^-30 from the Empty start: stationary
    let tf = t_ref + (LAGS + 1) as f64 * dlag;
    let seeds = SeedStream::new(seed);
    run_ensemble_resilient_observed(
        TRAPS,
        parallelism,
        &ExecutionPolicy::default(),
        &mut Recorder::noop(),
        || MeanTrace::zeros(LAGS + 1),
        |job, _rung, _probe| -> Result<Vec<f64>, CoreError> {
            let occ = simulate_trap(&m, &Pwl::constant(v), 0.0, tf, &mut seeds.rng(job as u64))?;
            let x = occ.sample(t_ref, dlag, LAGS + 1);
            let x = x.values();
            let mut row: Vec<f64> = (0..LAGS).map(|k| x[0] * x[k]).collect();
            row.push(x[0]);
            Ok(row)
        },
    )
    .expect("horizon scaled to the trap rate")
    .acc
}

#[test]
fn same_seed_parallel_equals_sequential_exactly() {
    let seq = machlup_ensemble(7, Parallelism::Fixed(1));
    let par = machlup_ensemble(7, Parallelism::Fixed(8));
    assert_eq!(seq.count(), TRAPS);
    assert_eq!(
        seq.mean(),
        par.mean(),
        "same seed must give the same bits at any worker count"
    );
}

#[test]
fn parallel_and_sequential_occupancy_agree_by_chi_square() {
    let m = model();
    let p = m.stationary_occupancy(0.82);
    let seq = machlup_ensemble(101, Parallelism::Fixed(1));
    let par = machlup_ensemble(202, Parallelism::Auto);

    // Filled-at-t_ref counts: the last slot of each row is x(t_ref).
    let counts = |acc: &MeanTrace| (acc.mean()[LAGS] * TRAPS as f64).round();
    let (c_seq, c_par) = (counts(&seq), counts(&par));
    let n = TRAPS as f64;

    // Each count individually vs the analytic stationary law
    // (1-dof chi-square, 0.1 % critical value 10.83)...
    for (tag, c) in [("sequential", c_seq), ("parallel", c_par)] {
        let chi2 =
            (c - n * p).powi(2) / (n * p) + (n - c - n * (1.0 - p)).powi(2) / (n * (1.0 - p));
        assert!(
            chi2 < 10.83,
            "{tag} occupancy count {c} inconsistent with p = {p}: chi2 = {chi2}"
        );
    }
    // ...and against each other (two-sample two-proportion chi-square).
    let pooled = (c_seq + c_par) / (2.0 * n);
    let chi2 = (c_seq - c_par).powi(2) / (2.0 * n * pooled * (1.0 - pooled));
    assert!(
        chi2 < 10.83,
        "parallel ({c_par}) vs sequential ({c_seq}) occupancy differ: chi2 = {chi2}"
    );
}

#[test]
fn parallel_and_sequential_autocorrelation_follow_machlup() {
    let m = model();
    let lambda = m.rate_sum();
    let p = m.stationary_occupancy(0.82);
    let dlag = 0.2 / lambda;
    let seq = machlup_ensemble(101, Parallelism::Fixed(1)).mean();
    let par = machlup_ensemble(202, Parallelism::Auto).mean();

    let n = TRAPS as f64;
    for k in 0..LAGS {
        let tau = k as f64 * dlag;
        // Unit-amplitude Machlup: R(tau) = p^2 + p(1-p) e^{-lambda tau}.
        let r = analytical::machlup_autocorrelation(1.0, p, lambda, tau);
        // Each product is Bernoulli(R): 5-sigma band plus an absolute
        // floor against vanishing variance.
        let sigma = (r * (1.0 - r) / n).sqrt().max(1e-4);
        for (tag, est) in [("sequential", seq[k]), ("parallel", par[k])] {
            assert!(
                (est - r).abs() < 5.0 * sigma,
                "{tag} R({tau:.3e}) = {est} vs Machlup {r} (sigma {sigma:.2e})"
            );
        }
        assert!(
            (seq[k] - par[k]).abs() < 7.0 * sigma,
            "lag {k}: sequential {} vs parallel {}",
            seq[k],
            par[k]
        );
    }
}

#[test]
fn dwell_times_from_a_parallel_ensemble_stay_exponential() {
    let m = model();
    let v = 0.82;
    let lambda = m.rate_sum();
    let (lc, le) = m.propensities(v);
    let tf = 100.0 / lambda;
    let traps = 400;
    let seeds = SeedStream::new(33);

    let collect = |parallelism: Parallelism| -> Vec<Vec<(f64, f64)>> {
        run_ensemble_resilient_observed(
            traps,
            parallelism,
            &ExecutionPolicy::default(),
            &mut Recorder::noop(),
            IndexedResults::new,
            |job, _rung, _probe| -> Result<Vec<(f64, f64)>, CoreError> {
                let occ =
                    simulate_trap(&m, &Pwl::constant(v), 0.0, tf, &mut seeds.rng(job as u64))?;
                Ok(occ.dwells())
            },
        )
        .expect("horizon scaled to the trap rate")
        .acc
        .into_vec()
    };

    let par = collect(Parallelism::Fixed(8));
    assert_eq!(
        par,
        collect(Parallelism::Fixed(1)),
        "dwells must not depend on sharding"
    );

    let filled: Vec<f64> = par
        .iter()
        .flatten()
        .filter(|d| d.1 == 1.0)
        .map(|d| d.0)
        .collect();
    let empty: Vec<f64> = par
        .iter()
        .flatten()
        .filter(|d| d.1 == 0.0)
        .map(|d| d.0)
        .collect();
    assert!(
        filled.len() > 2000 && empty.len() > 2000,
        "{} / {}",
        filled.len(),
        empty.len()
    );
    let ks_f = stats::ks_statistic_exponential(&filled, le);
    let ks_e = stats::ks_statistic_exponential(&empty, lc);
    assert!(
        ks_f < stats::ks_critical_5pct(filled.len()) * 1.5,
        "filled dwells not exponential: D = {ks_f}"
    );
    assert!(
        ks_e < stats::ks_critical_5pct(empty.len()) * 1.5,
        "empty dwells not exponential: D = {ks_e}"
    );
}
