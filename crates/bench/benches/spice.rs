//! Criterion benches for the SPICE substrate: the 6T write transient
//! under both integrators (the trapezoidal-vs-backward-Euler ablation
//! of DESIGN.md §7), one Newton iteration on each LU backend, and the
//! full two-pass methodology.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use samurai_spice::{
    run_transient, Circuit, CompiledCircuit, DcConfig, Integrator, NewtonWorkspace, Source,
    TransientConfig,
};
use samurai_sram::{
    build_write_waveforms, run_methodology, ColumnConfig, ColumnTiming, MethodologyConfig,
    SramCell, SramCellParams, SramColumn, WriteTiming,
};
use samurai_waveform::BitPattern;

fn write_cell(integrator: Integrator) {
    let timing = WriteTiming::default();
    let pattern = BitPattern::parse("10").expect("static pattern");
    let mut cell = SramCell::new(SramCellParams::default());
    let waves = build_write_waveforms(&pattern, &timing).expect("valid timing");
    cell.set_wl(Source::Pwl(waves.wl));
    cell.set_bl(Source::Pwl(waves.bl));
    cell.set_blb(Source::Pwl(waves.blb));
    let config = TransientConfig {
        integrator,
        ..TransientConfig::default()
    };
    let result = run_transient(&cell.circuit, 0.0, timing.duration(2), &config)
        .expect("write transient converges");
    black_box(result);
}

fn bench_write_transient(c: &mut Criterion) {
    let mut group = c.benchmark_group("sram_write_transient");
    group.bench_function("trapezoidal", |b| {
        b.iter(|| write_cell(Integrator::Trapezoidal))
    });
    group.bench_function("backward_euler", |b| {
        b.iter(|| write_cell(Integrator::BackwardEuler))
    });
    group.finish();
}

/// Compiled path vs the compile-per-call wrapper on the 6T write
/// transient. `per_call_compile` is what the seed engine did on every
/// run (string-keyed lowering + fresh buffers each call);
/// `compiled_reused_workspace` compiles once and reuses one
/// [`NewtonWorkspace`] across runs — the allocation-free hot loop the
/// refactor promises. Both produce bit-identical results (pinned by
/// tests/spice_golden.rs); this group pins the *cost* relationship.
fn bench_compiled_vs_seed(c: &mut Criterion) {
    let timing = WriteTiming::default();
    let pattern = BitPattern::parse("10").expect("static pattern");
    let mut cell = SramCell::new(SramCellParams::default());
    let waves = build_write_waveforms(&pattern, &timing).expect("valid timing");
    cell.set_wl(Source::Pwl(waves.wl));
    cell.set_bl(Source::Pwl(waves.bl));
    cell.set_blb(Source::Pwl(waves.blb));
    let tf = timing.duration(2);
    let config = TransientConfig::default();

    let mut group = c.benchmark_group("compiled_vs_seed_write_transient");
    group.bench_function("per_call_compile", |b| {
        b.iter(|| {
            black_box(
                run_transient(&cell.circuit, 0.0, tf, &config).expect("write transient converges"),
            )
        })
    });
    let compiled = CompiledCircuit::compile(&cell.circuit);
    let mut ws = NewtonWorkspace::new(&compiled);
    group.bench_function("compiled_reused_workspace", |b| {
        b.iter(|| {
            black_box(
                compiled
                    .run_transient(&mut ws, 0.0, tf, &config)
                    .expect("write transient converges"),
            )
        })
    });
    group.finish();
}

/// One Newton iteration on each LU backend: assembly, factor and
/// solve, and the convergence-check assembly. A backward-Euler step
/// of a circuit resting at its DC operating point converges in exactly
/// one iteration (asserted below), so each timed call — a fixed-step
/// (`dt_init = dt_max`) backward-Euler run of `RESTING_STEPS` steps —
/// is its operating point plus that many iterations. The 64-row column
/// (275 unknowns) takes the sparse LU, the 6T cell the dense one. At
/// rest every EKV memo lookup hits and every sparse factorization
/// replays its recorded program, so these are the iteration's floor.
///
/// `column64_sparse_write` is the miss path: a fixed-step run of the
/// 64-row column from its pre-write operating point through precharge
/// and the whole word-line pulse, where terminal voltages move (memo
/// misses) and pivots change (program switches and searches). Each
/// case's step and Newton iteration counts are printed once, to read
/// a per-iteration cost off the per-run time.
fn bench_newton_iteration(c: &mut Criterion) {
    const H: f64 = 1e-12;
    const RESTING_STEPS: f64 = 200.0;
    const WRITE_STEP: f64 = 10e-12;
    let column = SramColumn::build(&ColumnConfig {
        rows: 64,
        ..ColumnConfig::default()
    })
    .expect("the column builds");
    let column_dc = DcConfig {
        initial_guess: Some(column.initial_guess(true)),
        ..DcConfig::default()
    };
    let timing = ColumnTiming::default();
    let mut writing = column.clone();
    writing
        .drive_write(&timing, true)
        .expect("the write waveforms build");
    let cell = SramCell::new(SramCellParams::default());
    let cases: [(&str, &Circuit, DcConfig, f64, f64); 3] = [
        (
            "column64_sparse",
            &column.circuit,
            column_dc.clone(),
            H,
            RESTING_STEPS * H,
        ),
        (
            "cell_dense",
            &cell.circuit,
            DcConfig::default(),
            H,
            RESTING_STEPS * H,
        ),
        (
            "column64_sparse_write",
            &writing.circuit,
            column_dc,
            WRITE_STEP,
            timing.precharge + 3.0 * timing.edge + timing.write,
        ),
    ];
    let mut group = c.benchmark_group("spice/newton_iteration");
    for (name, circuit, dc, h, tf) in cases {
        let config = TransientConfig {
            integrator: Integrator::BackwardEuler,
            dt_init: Some(h),
            dt_max: Some(h),
            dc,
            ..TransientConfig::default()
        };
        let compiled = CompiledCircuit::compile(circuit);
        let mut ws = NewtonWorkspace::new(&compiled);
        let op = compiled.dc_operating_point(&mut ws, 0.0, &config.dc);
        let op = op
            .map(|()| ws.stats().newton_iterations)
            .expect("a DC point");
        let run = |ws: &mut NewtonWorkspace| {
            let run = compiled.run_transient(ws, 0.0, tf, &config);
            run.expect("the run converges")
        };
        run(&mut ws);
        let stats = ws.stats();
        let resting = stats.newton_iterations - 2 * op == stats.steps_accepted;
        assert!(
            h != H || resting,
            "{name}: a resting step must be one iteration"
        );
        println!(
            "spice/newton_iteration/{name}: {} steps, {} Newton iterations per run",
            stats.steps_accepted,
            stats.newton_iterations - op
        );
        group.bench_function(name, |b| b.iter(|| black_box(run(&mut ws))));
    }
    group.finish();
}

fn bench_methodology(c: &mut Criterion) {
    let pattern = BitPattern::parse("1010").expect("static pattern");
    let config = MethodologyConfig {
        seed: 3,
        ..MethodologyConfig::default()
    };
    c.bench_function("two_pass_methodology_4bits", |b| {
        b.iter(|| black_box(run_methodology(&pattern, &config).expect("methodology runs")))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_write_transient, bench_compiled_vs_seed, bench_newton_iteration,
        bench_methodology
}
criterion_main!(benches);
