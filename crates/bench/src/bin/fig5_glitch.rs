//! Fig 5: the effect of `I_RTN` glitch *timing* on a write.
//!
//! Three BSIM-4-style scenarios, reproduced on the Rust substrate: a
//! `1` is written to a cell holding `0`, with a rectangular `I_RTN`
//! glitch on the pass transistor M1 that is (top) absent, (middle)
//! contained inside the word-line window — slowing the write, and
//! (bottom) overlapping the word-line de-assertion — killing it.
//!
//! Run with `cargo run --release -p samurai-bench --bin fig5_glitch`.

use samurai_bench::{banner, write_tagged_csv, BenchSession, Flag};
use samurai_core::ensemble::{run_ensemble_resilient_observed, ExecutionPolicy, IndexedResults};
use samurai_core::CoreError;
use samurai_spice::{run_transient, Source, TransientConfig};
use samurai_sram::{
    analyze_writes, build_write_waveforms, CycleOutcome, SramCell, SramCellParams, Transistor,
    WriteTiming,
};
use samurai_waveform::{BitPattern, Pwl};

struct Scenario {
    name: &'static str,
    /// Glitch interval inside the write-1 cycle, as period fractions,
    /// or `None` for the clean case.
    window: Option<(f64, f64)>,
    expected: CycleOutcome,
}

fn main() {
    let Some(args) = samurai_bench::handle_help(
        "fig5_glitch",
        "regenerates Fig. 5: effect of I_RTN glitch timing on a write",
        &[Flag::Threads, Flag::Metrics],
        &[],
    ) else {
        return;
    };
    let timing = WriteTiming::default();
    // Cycle 0 writes a 0 (establishing the state), cycle 1 writes the 1
    // that the glitch attacks.
    let pattern = BitPattern::parse("01").expect("static pattern");
    let attack_cycle = 1usize;

    // Glitch amplitude: strong enough to starve the pass transistor.
    let glitch_amps = 260e-6;

    let scenarios = [
        Scenario {
            name: "no_glitch",
            window: None,
            expected: CycleOutcome::Clean,
        },
        Scenario {
            name: "mid_wl_glitch",
            // Starts after WL asserts, ends before WL de-asserts.
            window: Some((0.35, 0.685)),
            expected: CycleOutcome::Slow,
        },
        Scenario {
            name: "deassert_glitch",
            // Starts just before WL falls and continues past it.
            window: Some((0.6, 0.95)),
            expected: CycleOutcome::Error,
        },
    ];

    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut all_match = true;
    let parallelism = args.parallelism();
    let mut session = BenchSession::from_args("fig5", &args);

    banner("Fig 5: glitch-timing taxonomy");
    println!(
        "{} scenarios on {} workers (--threads N)",
        scenarios.len(),
        parallelism.workers()
    );

    // Each scenario is an independent write transient; run them as a
    // deterministic ensemble (bit-identical at any worker count).
    type ScenarioRun = (CycleOutcome, Option<f64>, Vec<(String, Vec<f64>)>);
    let runs: Vec<ScenarioRun> =
        run_ensemble_resilient_observed::<IndexedResults<ScenarioRun>, _, CoreError>(
            scenarios.len(),
            parallelism,
            &ExecutionPolicy::default(),
            session.recorder_mut(),
            IndexedResults::new,
            |idx, _rung, _probe| {
                let scenario = &scenarios[idx];
                let mut cell = SramCell::new(SramCellParams::default());
                let waves = build_write_waveforms(&pattern, &timing).expect("valid timing");
                cell.set_wl(Source::Pwl(waves.wl));
                cell.set_bl(Source::Pwl(waves.bl));
                cell.set_blb(Source::Pwl(waves.blb));

                if let Some((on_frac, off_frac)) = scenario.window {
                    let t_on = (attack_cycle as f64 + on_frac) * timing.period;
                    let t_off = (attack_cycle as f64 + off_frac) * timing.period;
                    let glitch = Pwl::pulse(0.0, glitch_amps, t_on, t_off, 10e-12, 10e-12)
                        .expect("glitch window is inside the cycle");
                    cell.set_rtn_source(Transistor::M1, Source::Pwl(glitch));
                }

                let tf = timing.duration(pattern.len());
                let result = run_transient(&cell.circuit, 0.0, tf, &TransientConfig::default())
                    .expect("write transient converges");
                let q = result.voltage(&cell.circuit, "q").expect("node q exists");
                let qb = result.voltage(&cell.circuit, "qb").expect("node qb exists");
                let analysis = analyze_writes(&q, &pattern, &timing);

                // Record the waveforms on a uniform grid for plotting.
                let samples = 600;
                let mut scenario_rows = Vec::with_capacity(samples);
                for i in 0..samples {
                    let t = tf * i as f64 / samples as f64;
                    scenario_rows.push((
                        scenario.name.to_string(),
                        vec![t * 1e9, q.eval(t), qb.eval(t)],
                    ));
                }
                Ok((
                    analysis.outcomes[attack_cycle],
                    analysis.settle_time[attack_cycle],
                    scenario_rows,
                ))
            },
        )
        .expect("scenario transients are total")
        .acc
        .into_vec();

    for (scenario, (outcome, settle, scenario_rows)) in scenarios.iter().zip(runs) {
        rows.extend(scenario_rows);
        let matched = outcome == scenario.expected;
        all_match &= matched;
        println!(
            "{:16} -> {:?} (expected {:?}) {}  settle = {:?}",
            scenario.name,
            outcome,
            scenario.expected,
            if matched { "OK" } else { "MISMATCH" },
            settle.map(|s| format!("{:.2} ns", s * 1e9)),
        );
    }

    let path = write_tagged_csv("fig5_waveforms.csv", "scenario,time_ns,q_v,qb_v", &rows);
    banner("Fig 5 verdict");
    println!(
        "verdict: {}",
        if all_match {
            "MATCH — glitch timing decides between clean, slow and failed writes"
        } else {
            "MISMATCH — tune glitch amplitude/windows"
        }
    );
    println!("csv: {}", path.display());
    session.finish(scenarios.len());
}
