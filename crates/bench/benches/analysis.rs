//! Criterion benches for the analysis substrate: FFT sizes in cache and
//! out of it (2^20 takes two blocked passes), Welch PSD estimation,
//! `trace_autocorrelation` as Fig 7 calls it, direct-vs-FFT
//! autocorrelation, and the Fig 7 shape — a few lags of a long trace,
//! where the pruned inverse pays off — up to Fig 7's largest panel.
//!
//! A two-pass autocorrelation keeps its spectrum buffer in a pool
//! across calls, and the untimed warm-up call fills it: the timed
//! iterations run on a buffer already faulted in, so the per-call
//! figures leave out the first-touch faults a fresh process pays once
//! per buffer (about 0.13 s at 2^24 points).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use samurai_analysis::{autocorr, fft, psd};
use samurai_waveform::Trace;

fn noisy_trace(n: usize) -> Trace {
    // Deterministic pseudo-noise (no RNG dependency in the hot loop).
    Trace::from_fn(0.0, 1e-6, n, |t| {
        (t * 1.1e6).sin() + 0.3 * (t * 7.7e6).cos() + 0.1 * (t * 311.0e6).sin()
    })
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &log_n in &[10u32, 12, 14, 20] {
        let n = 1usize << log_n;
        let signal: Vec<f64> = noisy_trace(n).into_values();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(fft::fft_real(&signal)))
        });
    }
    group.finish();
}

fn bench_welch(c: &mut Criterion) {
    let trace = noisy_trace(1 << 15);
    c.bench_function("welch_32k_seg1024", |b| {
        b.iter(|| black_box(psd::welch(&trace, 1024)))
    });
}

fn bench_trace_autocorrelation(c: &mut Criterion) {
    // The call Fig 7 makes per panel: 81 lags of a trace past the
    // direct-sum threshold, through the pruned FFT.
    let trace = noisy_trace(1 << 20);
    c.bench_function("trace_autocorrelation_1M_lag80", |b| {
        b.iter(|| black_box(autocorr::trace_autocorrelation(&trace, 80)))
    });
}

fn bench_autocorr(c: &mut Criterion) {
    let trace = noisy_trace(1 << 13);
    let mut group = c.benchmark_group("autocorrelation_8k_lag256");
    group.bench_function("direct", |b| {
        b.iter(|| black_box(autocorr::raw_autocorrelation(trace.values(), 256)))
    });
    group.bench_function("fft", |b| {
        b.iter(|| black_box(autocorr::raw_autocorrelation_fft(trace.values(), 256)))
    });
    group.finish();
}

fn bench_fig7_autocorr(c: &mut Criterion) {
    // 81 lags, as Fig 7 compares; its longest panels reach 2^23 samples.
    let trace = noisy_trace(1 << 20);
    c.bench_function("autocorrelation_1M_lag80_fft", |b| {
        b.iter(|| black_box(autocorr::raw_autocorrelation_fft(trace.values(), 80)))
    });
}

fn bench_fig7_largest_panel(c: &mut Criterion) {
    // Fig 7's largest panel: 4 705 367 samples, 81 lags, padded to a
    // 2^24-point transform.
    let trace = noisy_trace(4_705_367);
    c.bench_function("trace_autocorrelation_4705367_lag80", |b| {
        b.iter(|| black_box(autocorr::trace_autocorrelation(&trace, 80)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fft, bench_welch, bench_trace_autocorrelation, bench_autocorr,
        bench_fig7_autocorr, bench_fig7_largest_panel
}
criterion_main!(benches);
