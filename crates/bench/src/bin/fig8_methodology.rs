//! Fig 8: the full SAMURAI+SPICE methodology on the paper's bit
//! pattern `[1,1,0,1,0,1,0,0,1]`.
//!
//! Reproduces all five panels: (a) the clean write of the pattern,
//! (b, c) the anti-correlated trap occupancy of M5 (gate = Q) and M6
//! (gate = Q̄), (d) the generated `I_RTN` of pass transistor M2, and
//! (e) the RTN-injected re-simulation, scaled until a write error
//! appears (the paper needed ×30 at 90 nm; the matching scale on this
//! substrate is reported, and the *shape* — rare errors appearing only
//! under scaling — is the reproduced claim).
//!
//! Run with `cargo run --release -p samurai-bench --bin fig8_methodology`.

use samurai_bench::{banner, write_tagged_csv, BenchSession, Flag};
use samurai_core::telemetry::Stopwatch;
use samurai_sram::{run_methodology, MethodologyConfig, Transistor};
use samurai_waveform::BitPattern;

fn main() {
    let Some(args) = samurai_bench::handle_help(
        "fig8_methodology",
        "regenerates Fig. 8: the full SAMURAI+SPICE methodology on the paper's bit pattern",
        &[Flag::Metrics],
        &[],
    ) else {
        return;
    };
    let pattern = BitPattern::paper_fig8();
    println!("bit pattern: {pattern}");
    let mut session = BenchSession::from_args("fig8", &args);
    let mut jobs = 0usize;

    // Panels a-d at unit scale.
    let base_config = MethodologyConfig {
        seed: 12,
        density_scale: 2.0,
        rtn_scale: 1.0,
        ..MethodologyConfig::default()
    };
    let watch = Stopwatch::start();
    let report = run_methodology(&pattern, &base_config).expect("methodology runs");
    session.absorb_run(jobs, watch.elapsed_seconds(), report.solver);
    jobs += 1;

    banner("Fig 8a: clean write pass");
    println!(
        "outcomes: {:?} (all clean: {})",
        report.outcomes_clean.outcomes,
        report.outcomes_clean.all_clean()
    );

    banner("Fig 8b/8c: trap occupancy of M5 (gate=Q) and M6 (gate=Q-bar)");
    let m5 = &report.rtn[Transistor::M5.index()];
    let m6 = &report.rtn[Transistor::M6.index()];
    let tf = base_config.timing.duration(pattern.len());
    // Mean filled count while Q is written 1 vs written 0.
    let mut m5_q1 = 0.0;
    let mut m5_q0 = 0.0;
    let mut m6_q1 = 0.0;
    let mut m6_q0 = 0.0;
    let mut n1 = 0.0;
    let mut n0 = 0.0;
    for (cycle, bit) in pattern.iter().enumerate() {
        let a = (cycle as f64 + 0.75) * base_config.timing.period;
        let b = (cycle as f64 + 1.0) * base_config.timing.period;
        if bit {
            m5_q1 += m5.n_filled.mean(a, b);
            m6_q1 += m6.n_filled.mean(a, b);
            n1 += 1.0;
        } else {
            m5_q0 += m5.n_filled.mean(a, b);
            m6_q0 += m6.n_filled.mean(a, b);
            n0 += 1.0;
        }
    }
    let (m5_q1, m5_q0, m6_q1, m6_q0) = (m5_q1 / n1, m5_q0 / n0, m6_q1 / n1, m6_q0 / n0);
    println!(
        "M5 ({} traps): mean filled while Q=1: {m5_q1:.2}, while Q=0: {m5_q0:.2}",
        m5.traps.len()
    );
    println!(
        "M6 ({} traps): mean filled while Q=1: {m6_q1:.2}, while Q=0: {m6_q0:.2}",
        m6.traps.len()
    );
    let anticorrelated = m5_q1 >= m5_q0 && m6_q0 >= m6_q1;
    println!(
        "anti-correlation (paper: M5 active when Q high, M6 when Q low): {}",
        if anticorrelated { "OK" } else { "WEAK" }
    );

    banner("Fig 8d: I_RTN of pass transistor M2");
    let m2 = &report.rtn[Transistor::M2.index()];
    println!(
        "M2: {} traps, {} events, peak |I_RTN| = {:.3} uA",
        m2.traps.len(),
        m2.occupancies
            .iter()
            .map(|o| o.transition_count())
            .sum::<usize>(),
        m2.i_rtn.max_value().abs().max(m2.i_rtn.min_value().abs()) * 1e6
    );

    // Panel e: scale until a write error appears. The paper works at
    // the *margin* of the minimum supply voltage, so the sweep is also
    // run at reduced V_dd: the required acceleration factor collapses
    // as the supply (and hence the restoring drive) shrinks.
    banner("Fig 8e: scaling I_RTN until a write error appears");
    let mut breaking = None;
    for vdd in [1.1, 0.9, 0.8] {
        let mut first_break = None;
        for scale in [1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0] {
            let mut cell = base_config.cell;
            cell.vdd = vdd;
            let mut timing = base_config.timing;
            timing.vdd = vdd;
            let config = MethodologyConfig {
                rtn_scale: scale,
                cell,
                timing,
                ..base_config.clone()
            };
            let watch = Stopwatch::start();
            let r = run_methodology(&pattern, &config).expect("methodology runs");
            session.absorb_run(jobs, watch.elapsed_seconds(), r.solver);
            jobs += 1;
            let errors = r.outcomes.error_count();
            let slow = r.outcomes.slow_count();
            if !r.outcomes_clean.all_clean() {
                println!("  vdd={vdd}: clean pass itself fails — below minimum supply");
                break;
            }
            println!("  vdd={vdd} scale x{scale:>6}: {errors} errors, {slow} slow writes");
            if (errors > 0 || slow > 0) && first_break.is_none() {
                first_break = Some(scale);
            }
            if errors > 0 {
                if breaking.is_none() {
                    breaking = Some((scale, r));
                }
                break;
            }
        }
        match first_break {
            Some(s) => println!("  vdd={vdd}: first disturbance at scale x{s}"),
            None => println!("  vdd={vdd}: robust across the whole sweep"),
        }
    }

    // CSV output of the panels.
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let samples = 900;
    let error_report = breaking.as_ref().map(|(_, r)| r).unwrap_or(&report);
    for i in 0..samples {
        let t = tf * i as f64 / samples as f64;
        rows.push((
            "panel_a".into(),
            vec![t * 1e9, report.q_clean.eval(t), report.qb_clean.eval(t)],
        ));
        rows.push(("panel_b_m5".into(), vec![t * 1e9, m5.n_filled.eval(t), 0.0]));
        rows.push(("panel_c_m6".into(), vec![t * 1e9, m6.n_filled.eval(t), 0.0]));
        rows.push((
            "panel_d_m2".into(),
            vec![t * 1e9, m2.i_rtn.eval(t) * 1e6, 0.0],
        ));
        rows.push((
            "panel_e".into(),
            vec![
                t * 1e9,
                error_report.q_rtn.eval(t),
                error_report.qb_rtn.eval(t),
            ],
        ));
    }
    let path = write_tagged_csv("fig8_panels.csv", "panel,time_ns,v1,v2", &rows);

    banner("Fig 8 verdict");
    match &breaking {
        Some((scale, r)) => {
            println!(
                "write error appears at I_RTN scale x{scale} (paper: x30 on their 90 nm substrate)"
            );
            println!("failing cycles: {:?}", r.outcomes.outcomes);
            println!(
                "verdict: {}",
                if report.outcomes_clean.all_clean() && anticorrelated {
                    "MATCH — clean baseline, bias-tracking traps, scaling-induced write error"
                } else {
                    "PARTIAL"
                }
            );
        }
        None => println!("verdict: MISMATCH — no scale produced an error"),
    }
    println!("csv: {}", path.display());
    session.finish(jobs);
}
