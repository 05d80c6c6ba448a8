//! Criterion benches for the RTN trace generators: the uniformisation
//! kernel (Algorithm 1) against the Gillespie SSA, the fixed-Δt
//! Bernoulli discretisation and the Ye-style white-noise generator,
//! plus scaling in trap count — the ablation called out in DESIGN.md §7.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use samurai_core::{gillespie, simulate_trap, ye, SeedStream};
use samurai_trap::{DeviceParams, PropensityModel, TrapParams};
use samurai_units::{Energy, Length};
use samurai_waveform::Pwl;

fn model(depth_nm: f64) -> PropensityModel {
    PropensityModel::new(
        DeviceParams::nominal_90nm(),
        TrapParams::new(Length::from_nanometres(depth_nm), Energy::from_ev(0.4)),
    )
}

/// One kernel generating ~1000 events under a switching bias.
fn bench_kernels(c: &mut Criterion) {
    let m = model(1.8);
    let lambda = m.rate_sum();
    let v = m.balanced_bias();
    let bias = Pwl::clock(v - 0.2, v + 0.2, 0.0, 200.0 / lambda, 0.5, 1.0 / lambda, 5)
        .expect("static clock");
    let tf = 1000.0 / lambda;

    let mut group = c.benchmark_group("kernels");
    group.bench_function("uniformisation", |b| {
        b.iter(|| {
            let mut rng = SeedStream::new(1).rng(0);
            black_box(simulate_trap(&m, &bias, 0.0, tf, &mut rng).expect("runs"))
        })
    });
    group.bench_function("frozen_rate_ssa", |b| {
        b.iter(|| {
            let mut rng = SeedStream::new(1).rng(0);
            black_box(gillespie::frozen_rate_ssa(&m, &bias, 0.0, tf, &mut rng).expect("runs"))
        })
    });
    group.bench_function("bernoulli_dt_0.05", |b| {
        b.iter(|| {
            let mut rng = SeedStream::new(1).rng(0);
            black_box(
                gillespie::bernoulli_timestep(&m, &bias, 0.0, tf, 0.05 / lambda, &mut rng)
                    .expect("runs"),
            )
        })
    });
    group.bench_function("ye_two_stage", |b| {
        b.iter(|| {
            let mut rng = SeedStream::new(1).rng(0);
            black_box(
                ye::generate(&m, v, 0.0, tf, &mut rng, &ye::YeConfig::default()).expect("runs"),
            )
        })
    });
    group.finish();
}

/// Uniformisation scaling with trap count (fixed horizon).
fn bench_trap_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("uniformisation_trap_count");
    for &count in &[1usize, 5, 10, 50] {
        let models: Vec<PropensityModel> = (0..count)
            .map(|i| model(1.5 + 0.4 * (i as f64 / count.max(2) as f64)))
            .collect();
        let slowest = models
            .iter()
            .map(|m| m.rate_sum())
            .fold(f64::INFINITY, f64::min);
        let v = models[0].balanced_bias();
        let bias = Pwl::constant(v);
        let tf = 200.0 / slowest;
        group.bench_with_input(BenchmarkId::from_parameter(count), &count, |b, _| {
            b.iter(|| {
                let seeds = SeedStream::new(2);
                let occupancies: Vec<_> = models
                    .iter()
                    .enumerate()
                    .map(|(i, m)| {
                        simulate_trap(m, &bias, 0.0, tf, &mut seeds.rng(i as u64)).expect("runs")
                    })
                    .collect();
                black_box(occupancies)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels, bench_trap_count
}
criterion_main!(benches);
