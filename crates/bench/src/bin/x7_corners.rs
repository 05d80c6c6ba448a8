//! X7-corners: the unified scenario layer swept over a supply-corner ×
//! aging grid.
//!
//! Each grid point runs a small column RTN ensemble whose per-member
//! scenario — Pelgrom-scaled threshold mismatch, beta/geometry spread,
//! a pinned supply corner, a temperature corner range, NBTI stress
//! time and trap-density dispersion — is expanded deterministically
//! from the master seed through `ScenarioConfig`. Every completed job
//! lands in the telemetry journal with its scenario hash and aging
//! time, so any corner is reproducible from its journal line alone.
//!
//! Run with `cargo run --release -p samurai-bench --bin x7_corners`.
//! `--smoke` shrinks the grid and the ensembles; `--metrics DIR`
//! writes `BENCH_x7_corners.json` + journal.

use std::collections::BTreeSet;

use samurai_bench::{banner, timed, write_csv, BenchSession, Flag};
use samurai_core::scenario::{ScenarioConfig, NOMINAL_TEMPERATURE};
use samurai_core::telemetry::{JournalEvent, JsonValue};
use samurai_sram::margin::EOL_STRESS_SECONDS;
use samurai_sram::{run_column_ensemble_observed, ColumnConfig, ColumnEnsembleConfig};

/// The scenario distribution shared by every grid point: Pelgrom
/// mismatch plus mild beta/geometry spread and trap-count dispersion,
/// with the supply corner pinned per point and the temperature drawn
/// from an 80 K operating window.
fn scenario_at(vdd_scale: f64, stress_time: f64) -> ScenarioConfig {
    ScenarioConfig {
        a_vt: 1.8e-9,
        sigma_beta: 0.02,
        sigma_geometry: 0.01,
        vdd_range: (vdd_scale, vdd_scale),
        temperature_range: (NOMINAL_TEMPERATURE, NOMINAL_TEMPERATURE + 80.0),
        stress_time,
        sigma_density: 0.1,
        ..ScenarioConfig::nominal()
    }
}

fn main() {
    let Some(args) = samurai_bench::handle_help(
        "x7_corners",
        "X7-corners: the scenario layer swept over a supply-corner x aging grid",
        &Flag::ALL,
        &[],
    ) else {
        return;
    };
    let smoke = args.smoke();
    let parallelism = args.parallelism();
    let failure = args.failure_policy();
    let controls = args.run_controls();
    let mut session = BenchSession::from_args("x7_corners", &args);
    if let Some(summary) = controls.checkpoint_summary() {
        println!("checkpoint: {summary} (one snapshot per grid point, at PATH.<corner>)");
    }

    let vdd_corners: &[f64] = if smoke { &[0.9, 1.1] } else { &[0.9, 1.0, 1.1] };
    let stress_times: &[f64] = if smoke {
        &[0.0, EOL_STRESS_SECONDS]
    } else {
        &[0.0, 1e7, EOL_STRESS_SECONDS]
    };
    let members = if smoke { 2 } else { 4 };
    let rows = 2;

    banner("X7-corners: variability + RTN + aging through one scenario surface");
    println!(
        "grid: {} supply corners x {} stress times, {members} members each, \
         workers: {} (--threads N), failure policy: {failure:?}",
        vdd_corners.len(),
        stress_times.len(),
        parallelism.workers()
    );

    let mut csv_rows = Vec::new();
    let mut failures_json = Vec::new();
    let mut rtn_json = Vec::new();
    let mut total_jobs = 0usize;
    let mut total_wall = 0.0;
    for (i, &vdd) in vdd_corners.iter().enumerate() {
        for (j, &stress) in stress_times.iter().enumerate() {
            // Each grid point is its own ensemble, so each gets its
            // own snapshot file (suffix = corner index); the budget
            // and the kill drill apply per point.
            let mut checkpoint = controls.checkpoint.clone();
            if let Some(path) = &mut checkpoint.path {
                let mut name = path.clone().into_os_string();
                name.push(format!(".{i}_{j}"));
                *path = name.into();
            }
            let config = ColumnEnsembleConfig {
                column: ColumnConfig {
                    rows,
                    ..ColumnConfig::default()
                },
                members,
                rtn_scale: 30.0,
                density_scale: 1.0,
                scenario: Some(scenario_at(vdd, stress)),
                seed: 100 + (i * stress_times.len() + j) as u64,
                parallelism,
                failure,
                faults: controls.faults(),
                checkpoint,
                budget: controls.budget,
                ..ColumnEnsembleConfig::default()
            };
            let (stats, wall) = timed(|| {
                run_column_ensemble_observed(&config, session.recorder_mut())
                    .expect("corner ensemble runs")
            });
            total_jobs += stats.effective_members();
            total_wall += wall;
            println!(
                "vdd x{vdd:.2}, stress {stress:.1e} s: {} members in {wall:.2} s, \
                 {} write failures, {} disturbs, {} RTN events",
                stats.effective_members(),
                stats.write_failures(),
                stats.total_disturbs(),
                stats.total_rtn_events(),
            );
            csv_rows.push(vec![
                vdd,
                stress,
                stats.effective_members() as f64,
                stats.write_failures() as f64,
                stats.total_disturbs() as f64,
                stats.total_rtn_events() as f64,
            ]);
            failures_json.push(JsonValue::U64(stats.write_failures() as u64));
            rtn_json.push(JsonValue::U64(stats.total_rtn_events() as u64));
        }
    }
    let path = write_csv(
        "x7_corner_grid.csv",
        "vdd_scale,stress_s,members,write_failures,disturbs,rtn_events",
        &csv_rows,
    );
    println!("csv: {}", path.display());

    banner("X7-corners journal audit");
    let mut stamped = 0usize;
    let mut aged = 0usize;
    let mut hashes = BTreeSet::new();
    for event in session.recorder().journal().events() {
        if let JournalEvent::Job { scenario, .. } = event {
            let stamp = scenario.expect("every scenario-sweep job carries a stamp");
            stamped += 1;
            hashes.insert(stamp.hash);
            if stamp.aging_seconds > 0.0 {
                aged += 1;
            }
        }
    }
    println!(
        "{stamped} journalled jobs, {} distinct scenario hashes, {aged} aged jobs",
        hashes.len()
    );

    banner("X7-corners verdict");
    let attributable = stamped == total_jobs && hashes.len() == stamped && aged > 0;
    println!(
        "verdict: {}",
        if attributable {
            "MATCH — every job is attributable to a distinct journalled scenario"
        } else {
            "PARTIAL — scenario stamps missing, colliding, or no aged corner ran"
        }
    );
    println!("total: {total_jobs} jobs in {total_wall:.2} s of ensemble time");

    let extras = vec![(
        "corners",
        JsonValue::obj(vec![
            (
                "vdd_scales",
                JsonValue::Arr(vdd_corners.iter().map(|&v| JsonValue::F64(v)).collect()),
            ),
            (
                "stress_times_s",
                JsonValue::Arr(stress_times.iter().map(|&s| JsonValue::F64(s)).collect()),
            ),
            ("write_failures", JsonValue::Arr(failures_json)),
            ("rtn_events", JsonValue::Arr(rtn_json)),
            (
                "distinct_scenario_hashes",
                JsonValue::U64(hashes.len() as u64),
            ),
            ("aged_jobs", JsonValue::U64(aged as u64)),
        ]),
    )];
    if let Some(path) = session.finish_with_extras(total_jobs, extras) {
        println!("metrics: {}", path.display());
    }
}
