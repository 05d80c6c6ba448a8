//! X6-column: dense↔sparse solver scaling on generated SRAM column
//! arrays, plus a column-ensemble throughput run.
//!
//! Part A times a fixed-step write transient on generated columns of
//! 4, 16 and 64 rows through both linear-solver backends and reports
//! the per-accepted-step cost; the 64-row speedup is the headline
//! `speedup_64` figure in `BENCH_x6_column.json`. Part B runs the
//! column RTN ensemble (8 rows, auto-selected sparse backend) through
//! the telemetry recorder so the standard bench summary keys are
//! populated.
//!
//! Run with `cargo run --release -p samurai-bench --bin x6_column`.
//! `--smoke` shortens the timed horizon and the ensemble;
//! `--metrics DIR` writes `BENCH_x6_column.json` + journal.

use samurai_bench::{banner, timed, write_csv, BenchSession, Flag};
use samurai_core::ensemble::Completion;
use samurai_core::telemetry::JsonValue;
use samurai_spice::{DcConfig, NewtonWorkspace, SolverChoice, SolverKind, TransientConfig};
use samurai_sram::{
    run_column_ensemble_observed, ColumnConfig, ColumnEnsembleConfig, ColumnTiming, SramColumn,
};

/// Row counts of the scaling sweep; the last entry carries the
/// headline speedup figure.
const SIZES: [usize; 3] = [4, 16, 64];

/// Fixed step size of the timed transient. Small enough that every
/// step is accepted inside the quiet precharge phase, so both backends
/// walk an identical step sequence and the wall-clock difference is
/// pure linear-algebra cost.
const STEP: f64 = 5e-12;

/// One timed fixed-step transient; returns (seconds per accepted
/// step, unknowns, structural nonzeros).
fn per_step_seconds(rows: usize, choice: SolverChoice, steps: usize) -> (f64, usize, usize) {
    let config = ColumnConfig {
        rows,
        solver: choice,
        ..ColumnConfig::default()
    };
    let mut column = SramColumn::build(&config).expect("column builds");
    column
        .drive_write(&ColumnTiming::default(), true)
        .expect("waveforms build");
    let transient = TransientConfig {
        dt_init: Some(STEP),
        dt_max: Some(STEP),
        dc: DcConfig {
            initial_guess: Some(column.initial_guess(true)),
            ..DcConfig::default()
        },
        ..TransientConfig::default()
    };
    let compiled = column.compile();
    let mut ws = NewtonWorkspace::new(&compiled);
    let tf = steps as f64 * STEP;
    let (_, secs) = timed(|| {
        compiled
            .run_transient(&mut ws, 0.0, tf, &transient)
            .expect("column transient solves")
    });
    let accepted = ws.stats().steps_accepted.max(1);
    (
        secs / accepted as f64,
        compiled.unknown_count(),
        compiled.nnz(),
    )
}

fn main() {
    let Some(args) = samurai_bench::handle_help(
        "x6_column",
        "X6-column: dense-vs-sparse solver scaling on generated SRAM columns",
        &Flag::ALL,
        &[],
    ) else {
        return;
    };
    let smoke = args.smoke();
    let parallelism = args.parallelism();
    let failure = args.failure_policy();
    let mut session = BenchSession::from_args("x6_column", &args);
    let steps = if smoke { 12 } else { 60 };

    banner("X6-column part A: dense vs sparse per-step cost on generated columns");
    println!("fixed step {STEP:.0e} s, {steps} steps inside the precharge phase");
    let mut rows = Vec::new();
    let mut sizes_json = Vec::new();
    let mut dense_json = Vec::new();
    let mut sparse_json = Vec::new();
    let mut speedup_json = Vec::new();
    let mut speedup_64 = 0.0;
    let mut unknowns_64 = 0usize;
    let mut nnz_64 = 0usize;
    for rows_n in SIZES {
        let (dense, unknowns, _) = per_step_seconds(rows_n, SolverChoice::Dense, steps);
        let (sparse, _, nnz) = per_step_seconds(rows_n, SolverChoice::Sparse, steps);
        let speedup = dense / sparse;
        println!(
            "rows {rows_n:>3} ({unknowns:>3} unknowns, {nnz:>4} nonzeros): \
             dense {:.3} us/step, sparse {:.3} us/step, speedup {speedup:.1}x",
            dense * 1e6,
            sparse * 1e6,
        );
        rows.push(vec![rows_n as f64, dense, sparse, speedup]);
        sizes_json.push(JsonValue::U64(rows_n as u64));
        dense_json.push(JsonValue::F64(dense));
        sparse_json.push(JsonValue::F64(sparse));
        speedup_json.push(JsonValue::F64(speedup));
        if rows_n == 64 {
            speedup_64 = speedup;
            unknowns_64 = unknowns;
            nnz_64 = nnz;
        }
    }
    let path = write_csv(
        "x6_column_scaling.csv",
        "rows,dense_per_step_s,sparse_per_step_s,speedup",
        &rows,
    );
    println!("csv: {}", path.display());

    banner("X6-column part B: column RTN ensemble (8 rows, auto backend)");
    let members = if smoke { 2 } else { 6 };
    let controls = args.run_controls();
    if let Some(summary) = controls.checkpoint_summary() {
        println!("checkpoint: {summary}");
    }
    let config = ColumnEnsembleConfig {
        column: ColumnConfig {
            rows: 8,
            ..ColumnConfig::default()
        },
        members,
        rtn_scale: 30.0,
        density_scale: 1.0,
        seed: 42,
        parallelism,
        failure,
        faults: controls.faults(),
        checkpoint: controls.checkpoint,
        budget: controls.budget,
        ..ColumnEnsembleConfig::default()
    };
    let auto = SramColumn::build(&config.column)
        .expect("column builds")
        .compile();
    assert_eq!(
        auto.solver_kind(),
        SolverKind::Sparse,
        "an 8-row column must auto-select the sparse backend"
    );
    println!(
        "workers: {} (--threads N), members: {members}, failure policy: {failure:?}",
        parallelism.workers()
    );
    let (stats, wall) = timed(|| {
        run_column_ensemble_observed(&config, session.recorder_mut()).expect("ensemble runs")
    });
    println!(
        "{} members in {wall:.2} s: {} write failures, {} disturbs, {} RTN events",
        stats.effective_members(),
        stats.write_failures(),
        stats.total_disturbs(),
        stats.total_rtn_events(),
    );
    if let Completion::Truncated {
        completed,
        remaining,
    } = stats.completion
    {
        println!(
            "budget exhausted: {completed} of {members} members done, {remaining} remaining \
             (rerun with --resume to continue)"
        );
    }

    banner("X6-column verdict");
    println!(
        "verdict: {}",
        if speedup_64 >= 10.0 {
            "MATCH — the sparse backend is >=10x faster at 64 rows"
        } else {
            "PARTIAL — sparse speedup below 10x at 64 rows"
        }
    );
    let extras = vec![(
        "column",
        JsonValue::obj(vec![
            ("sizes", JsonValue::Arr(sizes_json)),
            ("dense_per_step_s", JsonValue::Arr(dense_json)),
            ("sparse_per_step_s", JsonValue::Arr(sparse_json)),
            ("speedup", JsonValue::Arr(speedup_json)),
            ("speedup_64", JsonValue::F64(speedup_64)),
            ("unknowns_64", JsonValue::U64(unknowns_64 as u64)),
            ("nnz_64", JsonValue::U64(nnz_64 as u64)),
        ]),
    )];
    if let Some(path) = session.finish_with_extras(stats.effective_members(), extras) {
        println!("metrics: {}", path.display());
    }
}
