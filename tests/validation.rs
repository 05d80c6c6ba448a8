//! Statistical validation tests spanning the trap/core/analysis crates
//! — compressed versions of the paper's Fig 7 stationary validation and
//! the stronger non-stationary X1 check.

use samurai::analysis::{analytical, autocorr, psd, stats};
use samurai::core::telemetry::Recorder;
use samurai::core::{
    ensemble_occupancy_observed, simulate_trap, single_trap_amplitude, Parallelism, SeedStream,
};
use samurai::trap::{master, DeviceParams, PropensityModel, TrapParams, TrapState};
use samurai::units::{Energy, Length};
use samurai::waveform::Pwl;

fn model(depth_nm: f64, energy_ev: f64) -> PropensityModel {
    PropensityModel::new(
        DeviceParams::nominal_90nm(),
        TrapParams::new(
            Length::from_nanometres(depth_nm),
            Energy::from_ev(energy_ev),
        ),
    )
}

#[test]
fn fig7_style_autocorrelation_matches_machlup() {
    let m = model(1.7, 0.4);
    let lambda = m.rate_sum();
    let v = 0.82;
    let p = m.stationary_occupancy(v);
    assert!(
        p > 0.1 && p < 0.9,
        "pick a bias with real two-level activity, p = {p}"
    );

    let delta_i = single_trap_amplitude(m.device(), v, 10e-6);
    let dt = 0.05 / lambda;
    let n = 1 << 17;
    let mut rng = SeedStream::new(41).rng(0);
    let occ = simulate_trap(&m, &Pwl::constant(v), 0.0, dt * n as f64, &mut rng)
        .expect("bounded horizon");
    let current = occ.scaled(delta_i).sample(0.0, dt, n);

    let (lags, measured) = autocorr::trace_autocorrelation(&current, 60);
    let analytic: Vec<f64> = lags
        .iter()
        .map(|&tau| analytical::machlup_autocorrelation(delta_i, p, lambda, tau))
        .collect();
    let err = stats::rms_relative_error(&measured, &analytic, analytic[0] * 0.02);
    assert!(
        err < 0.15,
        "R(tau) deviates from Machlup: rms rel err {err}"
    );
}

#[test]
fn fig7_style_psd_matches_the_lorentzian() {
    let m = model(1.7, 0.4);
    let lambda = m.rate_sum();
    let v = 0.82;
    let p = m.stationary_occupancy(v);
    let delta_i = single_trap_amplitude(m.device(), v, 10e-6);
    let dt = 0.05 / lambda;
    let n = 1 << 17;
    let mut rng = SeedStream::new(43).rng(0);
    let occ = simulate_trap(&m, &Pwl::constant(v), 0.0, dt * n as f64, &mut rng)
        .expect("bounded horizon");
    let current = occ.scaled(delta_i).sample(0.0, dt, n);

    let spectrum = psd::welch(&current, 2048);
    let corner = lambda / std::f64::consts::TAU;
    let mut log_acc = 0.0;
    let mut count = 0;
    for (f, s) in spectrum.freqs.iter().zip(&spectrum.values) {
        if *f < 5.0 * corner && *s > 0.0 {
            let analytic = analytical::lorentzian_psd(delta_i, p, lambda, *f);
            log_acc += (s / analytic).ln().powi(2);
            count += 1;
        }
    }
    let log_rms = (log_acc / count as f64).sqrt();
    assert!(
        log_rms < 0.3,
        "S(f) deviates from the Lorentzian: log-rms {log_rms}"
    );
}

#[test]
fn dwell_times_are_exponential() {
    let m = model(1.8, 0.4);
    let v = 0.8;
    let p = m.stationary_occupancy(v);
    assert!(p > 0.2 && p < 0.8, "p = {p}");
    let (lc, le) = m.propensities(v);
    let mut rng = SeedStream::new(5).rng(0);
    let occ = simulate_trap(&m, &Pwl::constant(v), 0.0, 4000.0 / m.rate_sum(), &mut rng)
        .expect("bounded horizon");
    let dwells = occ.dwells();
    let filled: Vec<f64> = dwells.iter().filter(|d| d.1 == 1.0).map(|d| d.0).collect();
    let empty: Vec<f64> = dwells.iter().filter(|d| d.1 == 0.0).map(|d| d.0).collect();
    assert!(filled.len() > 200 && empty.len() > 200);
    let ks_f = stats::ks_statistic_exponential(&filled, le);
    let ks_e = stats::ks_statistic_exponential(&empty, lc);
    assert!(
        ks_f < stats::ks_critical_5pct(filled.len()) * 1.5,
        "filled dwells: D = {ks_f}"
    );
    assert!(
        ks_e < stats::ks_critical_5pct(empty.len()) * 1.5,
        "empty dwells: D = {ks_e}"
    );
}

#[test]
fn nonstationary_ensemble_tracks_the_master_equation() {
    let m = model(1.8, 0.4);
    let lambda = m.rate_sum();
    // Bias step through the crossover region.
    let t_step = 8.0 / lambda;
    let bias = Pwl::step(0.75, 0.95, t_step, 0.01 / lambda).expect("static step");
    let n = 40;
    let dt = 2.0 * t_step / n as f64;
    let runs = 4000;
    let ensemble = ensemble_occupancy_observed(
        &m,
        &bias,
        0.0,
        dt,
        n,
        runs,
        &SeedStream::new(9),
        Parallelism::Auto,
        &mut Recorder::noop(),
    )
    .expect("bounded horizon");
    let exact = master::integrate_occupancy(&m, &bias, TrapState::Empty, 0.0, dt, n, 8);
    for ((_, est), (_, ex)) in ensemble.iter().zip(exact.iter()) {
        assert!((est - ex).abs() < 0.04, "ensemble {est} vs exact {ex}");
    }
}

#[test]
fn multi_trap_psd_is_the_sum_of_lorentzians() {
    // Three independent traps: the device PSD must match the analytic
    // superposition, not any single Lorentzian.
    let depths = [1.55, 1.7, 1.85];
    let v = 0.82;
    let models: Vec<PropensityModel> = depths.iter().map(|&d| model(d, 0.4)).collect();
    let delta_i = single_trap_amplitude(models[0].device(), v, 10e-6);
    let slowest = models
        .iter()
        .map(|m| m.rate_sum())
        .fold(f64::INFINITY, f64::min);
    let dt = 0.02 / models.iter().map(|m| m.rate_sum()).fold(0.0, f64::max);
    let n = 1 << 18;
    let tf = dt * n as f64;
    assert!(
        tf * slowest > 100.0,
        "record long enough for the slowest trap"
    );

    let mut current = samurai::waveform::Trace::from_fn(0.0, dt, n, |_| 0.0);
    for (i, m) in models.iter().enumerate() {
        let mut rng = SeedStream::new(60 + i as u64).rng(0);
        let occ = simulate_trap(m, &Pwl::constant(v), 0.0, tf, &mut rng).expect("bounded horizon");
        current = current.add(&occ.scaled(delta_i).sample(0.0, dt, n));
    }
    let spectrum = psd::welch(&current, 2048);
    let mut log_acc = 0.0;
    let mut count = 0;
    for (f, s) in spectrum.freqs.iter().zip(&spectrum.values) {
        let analytic: f64 = models
            .iter()
            .map(|m| {
                analytical::lorentzian_psd(delta_i, m.stationary_occupancy(v), m.rate_sum(), *f)
            })
            .sum();
        if *s > 0.0 && *f < 3.0 * models[2].rate_sum() {
            log_acc += (s / analytic).ln().powi(2);
            count += 1;
        }
    }
    let log_rms = (log_acc / count as f64).sqrt();
    assert!(log_rms < 0.4, "superposition mismatch: log-rms {log_rms}");
}
