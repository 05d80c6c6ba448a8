//! X1: non-stationary correctness — ensemble-averaged SAMURAI
//! occupancy against the exact master equation under step and
//! sinusoidal bias.
//!
//! This check is strictly stronger than the paper's stationary
//! validation (Fig 7): uniformisation is supposed to be *exact* for
//! arbitrarily time-varying bias, so the ensemble mean of many
//! independent runs must converge on the master-equation solution at
//! every time point.
//!
//! Run with `cargo run --release -p samurai-bench --bin x1_nonstationary`.

use samurai_analysis::stats;
use samurai_bench::{banner, write_tagged_csv, BenchSession, Flag};
use samurai_core::{ensemble_occupancy_observed, SeedStream};
use samurai_trap::{master, DeviceParams, PropensityModel, TrapParams, TrapState};
use samurai_units::{Energy, Length};
use samurai_waveform::Pwl;

fn main() {
    let Some(args) = samurai_bench::handle_help(
        "x1_nonstationary",
        "X1: ensemble-averaged occupancy vs the exact master equation",
        &[Flag::Threads, Flag::Metrics],
        &[],
    ) else {
        return;
    };
    let device = DeviceParams::nominal_90nm();
    let trap = TrapParams::new(Length::from_nanometres(1.8), Energy::from_ev(0.4));
    let model = PropensityModel::new(device, trap);
    let lambda = model.rate_sum();
    let v_mid = model.balanced_bias();
    println!("trap: lambda* = {lambda:.3e}/s, balanced bias = {v_mid:.3} V");

    let runs = 20_000;
    let n = 120;
    let horizon = 30.0 / lambda;
    let dt = horizon / n as f64;
    let parallelism = args.parallelism();
    let mut session = BenchSession::from_args("x1", &args);
    println!(
        "{runs} runs per scenario on {} workers (--threads N)",
        parallelism.workers()
    );

    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut worst_overall: f64 = 0.0;

    let scenarios: Vec<(&str, Pwl)> = vec![
        (
            "step_up",
            Pwl::step(v_mid - 0.2, v_mid + 0.2, horizon / 3.0, 0.01 / lambda)
                .expect("static step parameters"),
        ),
        (
            "step_down",
            Pwl::step(v_mid + 0.2, v_mid - 0.2, horizon / 3.0, 0.01 / lambda)
                .expect("static step parameters"),
        ),
        (
            "sine",
            // A PWL approximation of one slow sine period.
            Pwl::from_fn(0.0, horizon, 201, |t| {
                v_mid + 0.15 * (std::f64::consts::TAU * t / horizon).sin()
            }),
        ),
    ];

    banner("X1: ensemble mean vs master equation");
    for (name, bias) in &scenarios {
        let seeds = SeedStream::new(777);
        let ensemble = ensemble_occupancy_observed(
            &model,
            bias,
            0.0,
            dt,
            n,
            runs,
            &seeds,
            parallelism,
            session.recorder_mut(),
        )
        .expect("horizon scaled to the trap rate");
        let exact = master::integrate_occupancy(&model, bias, TrapState::Empty, 0.0, dt, n, 8);

        let mut worst: f64 = 0.0;
        for ((t, est), (_, ex)) in ensemble.iter().zip(exact.iter()) {
            worst = worst.max((est - ex).abs());
            rows.push((name.to_string(), vec![t * lambda, est, ex]));
        }
        // Monte-Carlo 3-sigma bound for a Bernoulli mean.
        let bound = 3.0 * 0.5 / (runs as f64).sqrt();
        println!(
            "{name:10}: max |ensemble - exact| = {worst:.4} (3-sigma MC bound {bound:.4}) {}",
            if worst < 1.5 * bound { "OK" } else { "FAIL" }
        );
        worst_overall = worst_overall.max(worst);

        // Also report the summary statistics of the deviation.
        let devs: Vec<f64> = ensemble
            .iter()
            .zip(exact.iter())
            .map(|((_, a), (_, b))| a - b)
            .collect();
        let s = stats::summarize(&devs);
        println!(
            "           deviation mean {:.5}, std {:.5}",
            s.mean,
            s.variance.sqrt()
        );
    }

    let path = write_tagged_csv(
        "x1_nonstationary.csv",
        "scenario,t_norm,ensemble_p,exact_p",
        &rows,
    );
    banner("X1 verdict");
    println!(
        "verdict: {}",
        if worst_overall < 0.02 {
            "MATCH — uniformisation is exact for non-stationary bias"
        } else {
            "MISMATCH"
        }
    );
    println!("csv: {}", path.display());
    let jobs = session.recorder().job_seconds().len();
    session.finish(jobs);
}
