//! X4: bi-directionally coupled RTN+circuit simulation (paper future
//! work, item 1) against the paper's two-pass methodology.
//!
//! The two-pass flow pre-computes biases, so RTN-induced voltage
//! changes never feed back into the trap propensities. The coupled
//! simulator closes the loop. At unit RTN scale both must agree on the
//! write outcomes (feedback is a second-order effect); the comparison
//! quantifies how close the cheaper two-pass flow stays.
//!
//! Run with `cargo run --release -p samurai-bench --bin x4_coupled`.

use samurai_bench::{banner, write_tagged_csv, BenchSession, Flag};
use samurai_core::telemetry::Stopwatch;
use samurai_sram::coupled::run_coupled;
use samurai_sram::{run_methodology, MethodologyConfig, Transistor};
use samurai_waveform::BitPattern;

fn main() {
    let Some(args) = samurai_bench::handle_help(
        "x4_coupled",
        "X4: bi-directionally coupled RTN+circuit simulation",
        &[Flag::Metrics],
        &[],
    ) else {
        return;
    };
    let pattern = BitPattern::paper_fig8();
    let base = MethodologyConfig {
        seed: 21,
        density_scale: 1.5,
        rtn_scale: 1.0,
        ..MethodologyConfig::default()
    };

    let mut session = BenchSession::from_args("x4", &args);
    banner("X4: two-pass methodology vs bi-directionally coupled simulation");
    let watch = Stopwatch::start();
    let two_pass = run_methodology(&pattern, &base).expect("two-pass runs");
    session.absorb_run(0, watch.elapsed_seconds(), two_pass.solver);
    let watch = Stopwatch::start();
    let coupled = run_coupled(&pattern, &base).expect("coupled run completes");
    session.absorb_run(1, watch.elapsed_seconds(), coupled.solver);

    let two_pass_candidates = two_pass.rtn.iter().map(|r| r.candidates).sum::<u64>();
    for (flow, candidates, solver) in [
        ("two-pass", two_pass_candidates, two_pass.solver),
        ("coupled ", coupled.candidates, coupled.solver),
    ] {
        let (steps, newton) = (solver.steps_accepted, solver.newton_iterations);
        println!("{flow} effort: {candidates} trap candidates, {steps} accepted steps, {newton} Newton iterations");
    }
    println!("two-pass outcomes: {:?}", two_pass.outcomes.outcomes);
    println!("coupled  outcomes: {:?}", coupled.outcomes.outcomes);
    let outcomes_agree = two_pass.outcomes.outcomes == coupled.outcomes.outcomes;

    // Compare the Q waveforms on a uniform grid.
    let tf = base.timing.duration(pattern.len());
    let samples = 800;
    let mut rows = Vec::new();
    let mut max_dq: f64 = 0.0;
    for i in 0..samples {
        let t = tf * i as f64 / samples as f64;
        let a = two_pass.q_rtn.eval(t);
        let b = coupled.q.eval(t);
        max_dq = max_dq.max((a - b).abs());
        rows.push(("q".to_string(), vec![t * 1e9, a, b]));
    }

    // Compare trap activity levels (mean filled count per transistor).
    println!("mean filled traps (two-pass vs coupled):");
    let mut activity_close = true;
    for t in Transistor::ALL {
        let a = two_pass.rtn[t.index()].n_filled.mean(0.0, tf);
        let b = coupled.n_filled[t.index()].mean(0.0, tf);
        println!("  {}: {a:.2} vs {b:.2}", t.label());
        if (a - b).abs() > 0.35 * (a + b).max(1.0) {
            activity_close = false;
        }
        rows.push((format!("nfilled_{}", t.label()), vec![a, b, 0.0]));
    }
    println!("max |Q_two_pass - Q_coupled| = {max_dq:.3} V");

    let path = write_tagged_csv("x4_coupled.csv", "series,x,two_pass,coupled", &rows);
    banner("X4 verdict");
    println!(
        "verdict: {}",
        if outcomes_agree && activity_close {
            "MATCH — at unit scale the feedback is second order; the two-pass flow is sound"
        } else {
            "DIVERGENT — feedback matters for this configuration"
        }
    );
    println!("csv: {}", path.display());
    session.finish(2);
}
