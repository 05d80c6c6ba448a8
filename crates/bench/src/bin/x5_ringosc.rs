//! X5: ring-oscillator RTN (paper future work, item 4) — period and
//! cycle-to-cycle jitter of a 5-stage ring with and without injected
//! RTN, pooled over several trap-profile seeds.
//!
//! The scale-0 run measures the harness's own numerical noise floor
//! (the injected PWL breakpoints perturb the integrator's step
//! pattern); genuine RTN-induced jitter must rise above it.
//!
//! Run with `cargo run --release -p samurai-bench --bin x5_ringosc`.

use samurai_bench::{banner, write_csv, BenchSession, Flag};
use samurai_core::telemetry::Stopwatch;
use samurai_sram::ringosc::{run_ring, RingConfig};

fn pooled_jitter(periods: &[f64]) -> f64 {
    let n = periods.len().max(1) as f64;
    let mean = periods.iter().sum::<f64>() / n;
    (periods.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n).sqrt()
}

fn main() {
    let Some(args) = samurai_bench::handle_help(
        "x5_ringosc",
        "X5: ring-oscillator period and cycle-to-cycle jitter under RTN",
        &[Flag::Metrics],
        &[],
    ) else {
        return;
    };
    banner("X5: 5-stage ring oscillator under RTN (pooled over 3 seeds)");
    let mut session = BenchSession::from_args("x5", &args);
    let mut jobs = 0usize;
    let mut rows = Vec::new();
    let mut jitter_by_scale = Vec::new();
    for scale in [0.0, 30.0, 300.0] {
        let mut all_periods = Vec::new();
        let mut clean_mean = 0.0;
        for seed in [5, 6, 7] {
            let config = RingConfig {
                rtn_scale: scale,
                density_scale: 1.5,
                seed,
                ..RingConfig::default()
            };
            let watch = Stopwatch::start();
            let report = run_ring(&config).expect("ring simulates");
            // Each (scale, seed) run is one job, journalled with the
            // solver effort of its two SPICE passes.
            session.absorb_run(jobs, watch.elapsed_seconds(), report.solver);
            jobs += 1;
            clean_mean = report.mean_period_clean();
            all_periods.extend(report.periods_rtn.iter().copied());
        }
        let mean_rtn = all_periods.iter().sum::<f64>() / all_periods.len() as f64;
        let jitter = pooled_jitter(&all_periods);
        println!(
            "scale x{scale:>5}: clean period {:.3} ns, RTN period {:.3} ns (shift {:+.2} %), pooled jitter {:.2} ps over {} cycles",
            clean_mean * 1e9,
            mean_rtn * 1e9,
            100.0 * (mean_rtn - clean_mean) / clean_mean,
            jitter * 1e12,
            all_periods.len(),
        );
        jitter_by_scale.push((scale, jitter));
        rows.push(vec![scale, clean_mean, mean_rtn, jitter]);
    }

    let path = write_csv(
        "x5_ringosc.csv",
        "rtn_scale,clean_period_s,rtn_period_s,pooled_jitter_s",
        &rows,
    );
    banner("X5 verdict");
    let noise_floor = jitter_by_scale[0].1;
    let max_rtn_jitter = jitter_by_scale[1..]
        .iter()
        .map(|&(_, j)| j)
        .fold(0.0f64, f64::max);
    println!(
        "numerical noise floor {:.2} ps, max RTN jitter {:.2} ps",
        noise_floor * 1e12,
        max_rtn_jitter * 1e12
    );
    println!(
        "verdict: {}",
        if max_rtn_jitter > 1.5 * noise_floor {
            "MATCH — RTN-induced period jitter rises clearly above the harness noise floor"
        } else {
            "PARTIAL — RTN effect below the measurement floor at these scales"
        }
    );
    println!("csv: {}", path.display());
    session.finish(jobs);
}
