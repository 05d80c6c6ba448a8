//! X2: baseline comparison — uniformisation vs the frozen-rate SSA,
//! the fixed-Δt Bernoulli discretisation and the Ye-style two-stage
//! white-noise generator.
//!
//! Two axes, matching the paper's critique of prior art (§I-C):
//!
//! * **accuracy under switching bias** — the post-step occupancy error
//!   of each kernel against the master equation;
//! * **cost** — candidate/sample counts per generated trace (the
//!   white-noise method pays one sample per Δt; uniformisation pays
//!   one per candidate event).
//!
//! Run with `cargo run --release -p samurai-bench --bin x2_baselines`.

use samurai_bench::{banner, write_tagged_csv, BenchSession, Flag};
use samurai_core::ensemble::{
    run_ensemble_resilient_observed, ExecutionPolicy, MeanTrace, Parallelism,
};
use samurai_core::telemetry::Recorder;
use samurai_core::{gillespie, simulate_trap, ye, CoreError, SeedStream};
use samurai_trap::{master, DeviceParams, PropensityModel, TrapParams, TrapState};
use samurai_units::{Energy, Length};
use samurai_waveform::Pwl;
use std::time::Instant;

/// Mean of `f(job)` over `jobs` seeded draws: a deterministic parallel
/// ensemble, bit-identical at every worker count (each job derives its
/// randomness from its index alone). The failure policy only matters
/// under fault injection — these kernels are total — but threading it
/// keeps every ensemble in the binary on the one policy knob. Rescue
/// and quarantine outcomes are routed through the journal serializer:
/// printed as JSON-Lines and carried into the recorder's artifact.
fn mc_mean<F: Fn(u64) -> f64 + Sync>(
    jobs: u64,
    parallelism: Parallelism,
    policy: &ExecutionPolicy,
    recorder: &mut Recorder,
    f: F,
) -> f64 {
    let outcome = run_ensemble_resilient_observed::<MeanTrace, _, CoreError>(
        jobs as usize,
        parallelism,
        policy,
        recorder,
        || MeanTrace::zeros(1),
        |job, _rung, _probe| Ok(vec![f(job as u64)]),
    )
    .expect("bounded-horizon kernels are total");
    if !outcome.report.is_clean() {
        print!("{}", outcome.report.journal().to_jsonl());
    }
    outcome.acc.mean()[0]
}

fn main() {
    let Some(args) = samurai_bench::handle_help(
        "x2_baselines",
        "X2: uniformisation vs frozen-rate SSA, Bernoulli and two-stage baselines",
        &[Flag::Threads, Flag::FailurePolicy, Flag::Metrics],
        &[],
    ) else {
        return;
    };
    let device = DeviceParams::nominal_90nm();
    let trap = TrapParams::new(Length::from_nanometres(1.8), Energy::from_ev(0.4));
    let model = PropensityModel::new(device, trap);
    let lambda = model.rate_sum();
    let v_mid = model.balanced_bias();

    // A bias step that flips the trap's preference: the pre-step state
    // is strongly empty, the post-step preference strongly filled.
    let t_step = 5.0 / lambda;
    let probe = t_step + 0.5 / lambda;
    let tf = t_step + 3.0 / lambda;
    let bias = Pwl::step(v_mid - 0.4, v_mid + 0.4, t_step, 0.001 / lambda)
        .expect("static step parameters");
    let exact =
        master::integrate_occupancy(&model, &bias, TrapState::Empty, 0.0, probe / 400.0, 401, 8)
            .value_at(probe);

    let runs = 30_000u64;
    let parallelism = args.parallelism();
    let mut session = BenchSession::from_args("x2", &args);
    let policy = ExecutionPolicy {
        failure: args.failure_policy(),
        ..ExecutionPolicy::default()
    };
    banner("X2: occupancy shortly after a bias step (exact = master equation)");
    println!("exact p(probe) = {exact:.4}");
    println!(
        "{runs} runs per kernel on {} workers (--threads N)",
        parallelism.workers()
    );
    println!(
        "failure policy: {:?} (--failure-policy fail-fast|retry[:R]|quarantine[:M[:R]])",
        policy.failure
    );

    let mut rows = Vec::new();
    let mut results: Vec<(&str, f64, f64)> = Vec::new(); // name, estimate, seconds

    // Uniformisation.
    let start = Instant::now();
    let estimate = mc_mean(runs, parallelism, &policy, session.recorder_mut(), |r| {
        simulate_trap(&model, &bias, 0.0, tf, &mut SeedStream::new(1).rng(r))
            .expect("bounded horizon")
            .eval(probe)
    });
    results.push(("uniformisation", estimate, start.elapsed().as_secs_f64()));

    // Frozen-rate SSA.
    let start = Instant::now();
    let estimate = mc_mean(runs, parallelism, &policy, session.recorder_mut(), |r| {
        gillespie::frozen_rate_ssa(&model, &bias, 0.0, tf, &mut SeedStream::new(2).rng(r))
            .expect("bounded horizon")
            .eval(probe)
    });
    results.push(("frozen_ssa", estimate, start.elapsed().as_secs_f64()));

    // Bernoulli time-stepping at two resolutions.
    for (name, frac) in [("bernoulli_coarse", 0.5), ("bernoulli_fine", 0.02)] {
        let dt = frac / lambda;
        let start = Instant::now();
        let estimate = mc_mean(
            runs / 4,
            parallelism,
            &policy,
            session.recorder_mut(),
            |r| {
                gillespie::bernoulli_timestep(
                    &model,
                    &bias,
                    0.0,
                    tf,
                    dt,
                    &mut SeedStream::new(3).rng(r),
                )
                .expect("bounded horizon")
                .eval(probe)
            },
        );
        results.push((name, estimate, start.elapsed().as_secs_f64()));
    }

    // Ye-style generator (calibrated at the pre-step bias, as its
    // construction requires a single calibration point).
    let start = Instant::now();
    let estimate = mc_mean(
        runs / 4,
        parallelism,
        &policy,
        session.recorder_mut(),
        |r| {
            ye::generate(
                &model,
                bias.eval(0.0),
                0.0,
                tf,
                &mut SeedStream::new(4).rng(r),
                &ye::YeConfig::default(),
            )
            .expect("bounded horizon")
            .eval(probe)
        },
    );
    results.push(("ye_two_stage", estimate, start.elapsed().as_secs_f64()));

    for (name, estimate, seconds) in &results {
        let err = (estimate - exact).abs();
        println!("{name:18}: p = {estimate:.4}, |error| = {err:.4}, wall = {seconds:.2}s");
        rows.push((name.to_string(), vec![*estimate, err, *seconds]));
    }

    let path = write_tagged_csv(
        "x2_baselines.csv",
        "method,estimate,abs_error,seconds",
        &rows,
    );

    banner("X2 verdict");
    let unif_err = (results[0].1 - exact).abs();
    let frozen_err = (results[1].1 - exact).abs();
    let ye_err = (results.last().expect("non-empty").1 - exact).abs();
    println!(
        "verdict: {}",
        if unif_err < 0.02 && frozen_err > 2.0 * unif_err && ye_err > 5.0 * unif_err {
            "MATCH — only uniformisation tracks non-stationary statistics"
        } else {
            "PARTIAL — inspect the numbers above"
        }
    );
    println!("csv: {}", path.display());
    let jobs = session.recorder().job_seconds().len();
    session.finish(jobs);
}
