//! X6: accelerated RTN testing — the word-line timing margin with and
//! without RTN, versus acceleration factor (the paper's pointer to
//! Toh et al. \[14\] as the alternative to artificial current scaling).
//!
//! Run with `cargo run --release -p samurai-bench --bin x6_accelerated`.

use samurai_bench::{banner, write_csv, BenchSession, Flag};
use samurai_core::FailurePolicy;
use samurai_sram::accelerated::timing_margin_observed;
use samurai_sram::MethodologyConfig;
use samurai_waveform::BitPattern;

fn main() {
    let Some(args) = samurai_bench::handle_help(
        "x6_accelerated",
        "X6: word-line timing margin vs acceleration factor",
        &[Flag::Metrics],
        &[],
    ) else {
        return;
    };
    let pattern = BitPattern::parse("10").expect("static pattern");
    banner("X6: minimum word-line window (fraction of cycle) vs RTN scale");
    let mut session = BenchSession::from_args("x6", &args);

    let mut rows = Vec::new();
    let mut penalties = Vec::new();
    for scale in [1.0, 300.0, 800.0, 1500.0] {
        let base = MethodologyConfig {
            seed: 12,
            density_scale: 2.0,
            rtn_scale: scale,
            ..MethodologyConfig::default()
        };
        match timing_margin_observed(
            &pattern,
            &base,
            7,
            FailurePolicy::FailFast,
            session.recorder_mut(),
        ) {
            Ok(margin) => {
                println!(
                    "scale x{scale:>6}: clean min window {:.3}, RTN min window {:.3}, penalty {:+.3} (+- {:.3})",
                    margin.min_window_clean,
                    margin.min_window_rtn,
                    margin.rtn_penalty(),
                    margin.resolution,
                );
                penalties.push((scale, margin.rtn_penalty(), margin.resolution));
                rows.push(vec![
                    scale,
                    margin.min_window_clean,
                    margin.min_window_rtn,
                    margin.rtn_penalty(),
                ]);
            }
            Err(e) => {
                println!("scale x{scale:>6}: {e} (margin exhausted)");
                rows.push(vec![scale, f64::NAN, f64::NAN, f64::NAN]);
            }
        }
    }

    let path = write_csv(
        "x6_accelerated.csv",
        "rtn_scale,min_window_clean,min_window_rtn,penalty",
        &rows,
    );
    banner("X6 verdict");
    let unit = penalties.iter().find(|p| p.0 == 1.0);
    let grows = penalties
        .windows(2)
        .all(|w| w[1].1 >= w[0].1 - w[0].2.max(w[1].2));
    let any_positive = penalties.iter().any(|p| p.1 > p.2);
    println!(
        "verdict: {}",
        match (unit, grows, any_positive) {
            (Some(u), true, true) if u.1.abs() <= 2.0 * u.2 =>
                "MATCH — RTN consumes write-timing margin, growing with acceleration",
            _ => "PARTIAL — inspect the sweep",
        }
    );
    println!("csv: {}", path.display());
    let jobs = session.recorder().job_seconds().len();
    session.finish(jobs);
}
