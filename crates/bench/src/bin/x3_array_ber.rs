//! X3: array-level Monte-Carlo bit-error analysis (paper future work,
//! item 3) — write-error statistics over sampled cells with V_T
//! variation, as a function of the RTN acceleration factor.
//!
//! Run with `cargo run --release -p samurai-bench --bin x3_array_ber`.

use samurai_bench::{banner, timed, write_csv, BenchSession, Flag};
use samurai_core::scenario::ScenarioConfig;
use samurai_core::Parallelism;
use samurai_sram::array::{run_array, run_array_observed, ArrayConfig};
use samurai_sram::MethodologyConfig;
use samurai_waveform::BitPattern;

fn main() {
    let Some(args) = samurai_bench::handle_help(
        "x3_array_ber",
        "X3: array-level Monte-Carlo bit-error analysis",
        &[Flag::Threads, Flag::FailurePolicy, Flag::Metrics],
        &[],
    ) else {
        return;
    };
    let pattern = BitPattern::parse("1010").expect("static pattern");
    let cells = 24;
    let scenario = Some(ScenarioConfig::fixed_vth_sigma(0.04));
    let parallelism = args.parallelism();
    let failure = args.failure_policy();
    let mut session = BenchSession::from_args("x3", &args);

    banner("X3: write-BER vs RTN acceleration (24 cells, sigma_VT = 40 mV)");
    println!("workers: {} (--threads N to change)", parallelism.workers());
    println!(
        "failure policy: {failure:?} (--failure-policy fail-fast|retry[:R]|quarantine[:M[:R]])"
    );
    // The sweep at one RTN scale, on `cells` cells and `parallelism`.
    let config = |scale: f64, cells: usize, parallelism: Parallelism| ArrayConfig {
        cells,
        scenario,
        seed: 17,
        failure,
        parallelism,
        base: MethodologyConfig {
            rtn_scale: scale,
            density_scale: 1.5,
            ..MethodologyConfig::default()
        },
        ..ArrayConfig::default()
    };
    let mut rows = Vec::new();
    let mut prev_rate = 0.0;
    let mut monotone = true;
    for scale in [1.0, 100.0, 1000.0, 3000.0] {
        let config = config(scale, cells, parallelism);
        let stats = run_array_observed(&pattern, &config, session.recorder_mut())
            .expect("array sweep runs");
        let rate = stats.error_rate();
        let slow: usize = stats.cells.iter().map(|c| c.slow).sum();
        println!(
            "scale x{scale:>6}: BER {rate:.3} ({} errors / {} writes), {} slow, {} failing cells, {} baseline errors",
            stats.total_errors(),
            stats.effective_cells() * pattern.len(),
            slow,
            stats.failing_cells(),
            stats.total_baseline_errors(),
        );
        if !stats.report.is_clean() {
            println!(
                "         rescue report: {} rescued, {} quarantined of {} cells",
                stats.report.rescued.len(),
                stats.report.quarantined.len(),
                stats.report.jobs,
            );
            print!("{}", stats.report.journal().to_jsonl());
        }
        if rate < prev_rate {
            monotone = false;
        }
        prev_rate = rate;
        rows.push(vec![
            scale,
            rate,
            stats.total_errors() as f64,
            slow as f64,
            stats.failing_cells() as f64,
            stats.total_baseline_errors() as f64,
        ]);
    }

    let path = write_csv(
        "x3_array_ber.csv",
        "rtn_scale,error_rate,errors,slow,failing_cells,baseline_errors",
        &rows,
    );
    banner("X3 verdict");
    let final_rate = rows.last().expect("non-empty")[1];
    println!(
        "verdict: {}",
        if monotone && final_rate > 0.0 && rows[0][1] == 0.0 {
            "MATCH — BER is zero unaccelerated and grows monotonically with RTN"
        } else {
            "PARTIAL — inspect the sweep"
        }
    );
    println!("csv: {}", path.display());

    // Speedup check: the same sweep, sequential vs the worker pool.
    // The ensemble engine guarantees bit-identical statistics, so the
    // only thing allowed to differ is the wall-clock.
    banner("Parallel ensemble speedup (same seeds, same answers)");
    let speedup_config = |parallelism| config(1000.0, 8, parallelism);
    let (seq, t_seq) = timed(|| {
        run_array(&pattern, &speedup_config(Parallelism::Fixed(1))).expect("sequential sweep")
    });
    let (par, t_par) =
        timed(|| run_array(&pattern, &speedup_config(parallelism)).expect("parallel sweep"));
    assert_eq!(seq.cells, par.cells, "parallel sweep must be bit-identical");
    println!(
        "8 cells sequential: {t_seq:.2} s | {} workers: {t_par:.2} s | speedup {:.2}x | results identical: yes",
        parallelism.workers(),
        t_seq / t_par
    );
    let jobs = session.recorder().job_seconds().len();
    session.finish(jobs);
}
