//! Determinism guarantees of the parallel ensemble engine: every
//! result in this suite must be **bit-identical** at every
//! [`Parallelism`] setting — worker count and scheduling order are
//! wall-clock knobs, never statistics knobs (see
//! `samurai::core::ensemble` for the three rules that make it so).

use samurai::core::ensemble::{
    run_ensemble_resilient_observed, ExecutionPolicy, MeanTrace, Parallelism,
};
use samurai::core::scenario::ScenarioConfig;
use samurai::core::telemetry::Recorder;
use samurai::core::{
    ensemble_occupancy_observed, simulate_trap, BiasWaveforms, CoreError, RtnGenerator, SeedStream,
};
use samurai::sram::array::{run_array, ArrayConfig};
use samurai::sram::MethodologyConfig;
use samurai::trap::{DeviceParams, PropensityModel, TrapParams};
use samurai::units::{Energy, Length};
use samurai::waveform::{BitPattern, Pwl};

fn model(depth_nm: f64, energy_ev: f64) -> PropensityModel {
    PropensityModel::new(
        DeviceParams::nominal_90nm(),
        TrapParams::new(
            Length::from_nanometres(depth_nm),
            Energy::from_ev(energy_ev),
        ),
    )
}

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// The ensemble mean-occupancy trace is the same `f64`s at 1, 2 and 8
/// workers.
#[test]
fn ensemble_occupancy_is_bit_identical_across_worker_counts() {
    let m = model(1.7, 0.4);
    let lambda = m.rate_sum();
    let bias = Pwl::constant(0.82);
    let dt = 0.5 / lambda;
    let (n, runs) = (64, 300);

    let reference = ensemble_occupancy_observed(
        &m,
        &bias,
        0.0,
        dt,
        n,
        runs,
        &SeedStream::new(11),
        Parallelism::Fixed(1),
        &mut Recorder::noop(),
    )
    .expect("bounded horizon");
    for workers in WORKER_COUNTS {
        let trace = ensemble_occupancy_observed(
            &m,
            &bias,
            0.0,
            dt,
            n,
            runs,
            &SeedStream::new(11),
            Parallelism::Fixed(workers),
            &mut Recorder::noop(),
        )
        .expect("bounded horizon");
        assert_eq!(
            reference.values(),
            trace.values(),
            "mean occupancy must not depend on the worker count ({workers})"
        );
    }
}

/// Whole-device RTN generation (staircases, `N_filled`, Eq (3)
/// current) is bit-identical at every worker count.
#[test]
fn device_rtn_is_bit_identical_across_worker_counts() {
    let device = DeviceParams::nominal_90nm();
    let traps: Vec<TrapParams> = [1.55, 1.65, 1.75, 1.85]
        .iter()
        .map(|&d| TrapParams::new(Length::from_nanometres(d), Energy::from_ev(0.4)))
        .collect();
    let lambda_max = traps
        .iter()
        .map(|&t| PropensityModel::new(device, t).rate_sum())
        .fold(0.0, f64::max);
    let tf = 200.0 / lambda_max;
    let bias = BiasWaveforms::new(Pwl::constant(0.85), Pwl::constant(10e-6));

    let generate = |workers: usize| {
        RtnGenerator::new(device, traps.clone())
            .with_seed(77)
            .with_parallelism(Parallelism::Fixed(workers))
            .generate(&bias, 0.0, tf)
            .expect("bounded horizon")
    };
    let reference = generate(1);
    assert!(
        reference.event_count() > 0,
        "the device must actually toggle"
    );
    for workers in WORKER_COUNTS {
        let rtn = generate(workers);
        assert_eq!(
            reference.occupancies, rtn.occupancies,
            "workers = {workers}"
        );
        assert_eq!(reference.n_filled, rtn.n_filled, "workers = {workers}");
        assert_eq!(reference.i_rtn, rtn.i_rtn, "workers = {workers}");
    }
}

/// The SRAM Monte-Carlo array sweep (per-cell Vth variation, trap
/// profiles, two SPICE passes each) is bit-identical at every worker
/// count.
#[test]
fn array_sweep_is_bit_identical_across_worker_counts() {
    let sweep = |workers: usize| {
        let config = ArrayConfig {
            cells: 3,
            scenario: Some(ScenarioConfig::fixed_vth_sigma(0.03)),
            seed: 5,
            parallelism: Parallelism::Fixed(workers),
            base: MethodologyConfig {
                rtn_scale: 500.0,
                ..MethodologyConfig::default()
            },
            ..ArrayConfig::default()
        };
        run_array(&BitPattern::parse("10").unwrap(), &config).expect("sweep runs")
    };
    let reference = sweep(1);
    for workers in WORKER_COUNTS {
        assert_eq!(reference.cells, sweep(workers).cells, "workers = {workers}");
    }
}

/// Distinct master seeds give distinct traces — the per-job streams
/// really are keyed by the seed, not collapsed by the sharding.
#[test]
fn distinct_seeds_give_distinct_traces() {
    let m = model(1.7, 0.4);
    let lambda = m.rate_sum();
    let run = |seed: u64| {
        ensemble_occupancy_observed(
            &m,
            &Pwl::constant(0.82),
            0.0,
            0.5 / lambda,
            64,
            200,
            &SeedStream::new(seed),
            Parallelism::Fixed(4),
            &mut Recorder::noop(),
        )
        .expect("bounded horizon")
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(a.values(), b.values(), "different seeds must decorrelate");
}

/// Within one ensemble, different job indices draw from different
/// streams: two single-trap jobs must not produce the same staircase.
#[test]
fn job_streams_are_decorrelated_within_an_ensemble() {
    let m = model(1.7, 0.4);
    let lambda = m.rate_sum();
    let tf = 100.0 / lambda;
    let seeds = SeedStream::new(3);
    let steps = |job: u64| {
        simulate_trap(&m, &Pwl::constant(0.82), 0.0, tf, &mut seeds.rng(job))
            .expect("bounded horizon")
            .steps()
            .to_vec()
    };
    assert_ne!(steps(0), steps(1));
}

/// One golden single-trap staircase, pinned to exact `f64`s: any
/// change to the RNG vendoring, the seeding scheme or Algorithm 1
/// itself shows up here before it silently shifts every statistic.
#[test]
fn golden_occupancy_staircase_is_pinned() {
    let m = model(1.7, 0.4);
    let lambda = m.rate_sum();
    let tf = 20.0 / lambda;
    let occ = simulate_trap(
        &m,
        &Pwl::constant(0.8),
        0.0,
        tf,
        &mut SeedStream::new(2024).rng(0),
    )
    .expect("bounded horizon");
    assert_eq!(lambda, 413.99377187851667, "trap physics shifted");
    let golden: [(f64, f64); 11] = [
        (0.0, 0.0),
        (0.0033877713822874573, 1.0),
        (0.008790865446391613, 0.0),
        (0.015099244586814196, 1.0),
        (0.022674633242982783, 0.0),
        (0.023961762675105535, 1.0),
        (0.03515140378516626, 0.0),
        (0.03855796247124641, 1.0),
        (0.04217803723969473, 0.0),
        (0.04291785280061673, 1.0),
        (0.04305123190072946, 0.0),
    ];
    assert_eq!(occ.steps(), golden, "golden staircase drifted");
}

/// The raw engine reduces shards in a fixed order: a floating-point
/// mean over jobs (the association-sensitive case) is bit-identical
/// at every worker count.
#[test]
fn mean_trace_reduction_is_order_stable() {
    let run = |workers: usize| -> Vec<f64> {
        let seeds = SeedStream::new(9);
        let outcome = run_ensemble_resilient_observed(
            500,
            Parallelism::Fixed(workers),
            &ExecutionPolicy::default(),
            &mut Recorder::noop(),
            || MeanTrace::zeros(16),
            |job, _rung, _probe| {
                use rand::Rng;
                let mut rng = seeds.rng(job as u64);
                Ok::<_, CoreError>(
                    (0..16)
                        .map(|_| rng.gen::<f64>().ln_1p())
                        .collect::<Vec<f64>>(),
                )
            },
        )
        .expect("the jobs are total");
        outcome.acc.mean()
    };
    let reference = run(1);
    for workers in WORKER_COUNTS {
        assert_eq!(reference, run(workers), "workers = {workers}");
    }
}
