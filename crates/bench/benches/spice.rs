//! Criterion benches for the SPICE substrate: the 6T write transient
//! under both integrators (the trapezoidal-vs-backward-Euler ablation
//! of DESIGN.md §7), one Newton iteration on each LU backend, and the
//! full two-pass methodology.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use samurai_spice::{
    run_transient, Circuit, CompiledCircuit, DcConfig, Integrator, NewtonWorkspace, Source,
    TransientConfig, TransientStepper,
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
/// one iteration (asserted below), so each timed call is one. The
/// 64-row column (275 unknowns) takes the sparse LU, the 6T cell the
/// dense one. At rest every EKV memo lookup hits and every sparse
/// factorization replays its recorded program, so these are the
/// iteration's floor.
///
/// `column64_sparse_write` is the miss path: each timed call clones a
/// 64-row column stepper at its pre-write operating point and steps it
/// with a fixed backward-Euler step through precharge and the whole
/// word-line pulse, where terminal voltages move (memo misses) and
/// pivots change (program switches and searches). The sweep's Newton
/// iteration count is printed once, to read a per-iteration cost off
/// the per-sweep time.
fn bench_newton_iteration(c: &mut Criterion) {
    const H: f64 = 1e-12;
    let column = SramColumn::build(&ColumnConfig {
        rows: 64,
        ..ColumnConfig::default()
    })
    .expect("the column builds");
    let column_dc = DcConfig {
        initial_guess: Some(column.initial_guess(true)),
        ..DcConfig::default()
    };
    let cell = SramCell::new(SramCellParams::default());
    let cases: [(&str, &Circuit, DcConfig); 2] = [
        ("column64_sparse", &column.circuit, column_dc.clone()),
        ("cell_dense", &cell.circuit, DcConfig::default()),
    ];
    let mut group = c.benchmark_group("spice/newton_iteration");
    for (name, circuit, dc) in cases {
        let mut stepper =
            TransientStepper::new(circuit, 0.0, &dc).expect("the operating point converges");
        let before = stepper.stats().newton_iterations;
        stepper.step(H).expect("a resting step converges");
        assert_eq!(
            stepper.stats().newton_iterations - before,
            1,
            "{name}: a resting step must be one Newton iteration"
        );
        group.bench_function(name, |b| {
            b.iter(|| stepper.step(H).expect("a resting step converges"))
        });
    }

    const WRITE_STEP: f64 = 10e-12;
    let timing = ColumnTiming::default();
    let mut writing = column.clone();
    writing
        .drive_write(&timing, true)
        .expect("the write waveforms build");
    let start = TransientStepper::new(&writing.circuit, 0.0, &column_dc)
        .expect("the pre-write operating point converges");
    let wl_off = timing.precharge + 2.0 * timing.edge + timing.write;
    let steps = ((wl_off + timing.edge) / WRITE_STEP).ceil() as usize;
    let sweep = || {
        let mut stepper = start.clone();
        for _ in 0..steps {
            stepper.step(WRITE_STEP).expect("a write step converges");
        }
        stepper.stats().newton_iterations - start.stats().newton_iterations
    };
    println!(
        "spice/newton_iteration/column64_sparse_write: {steps} steps, {} Newton iterations per sweep",
        sweep()
    );
    group.bench_function("column64_sparse_write", |b| b.iter(sweep));
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
