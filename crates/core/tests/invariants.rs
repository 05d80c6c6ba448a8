//! Debug-build invariant stress test: drive the RTN generator with a
//! hostile bias waveform and let the library's `debug_assert!` guards
//! (probability bounds, non-negative propensities, uniformisation
//! bound) police every intermediate value. In release builds this
//! still checks the output-level contracts.

use samurai_core::{BiasWaveforms, RtnGenerator, SeedStream};
use samurai_trap::{DeviceParams, PropensityModel, TrapParams};
use samurai_units::{Energy, Length};
use samurai_waveform::Pwl;

/// A bias waveform designed to stress the generator: rail-to-rail
/// slews, deep negative gate drive, overdrive spikes and a long
/// plateau, all within one horizon.
fn hostile_vgs(tf: f64) -> Pwl {
    let pts = vec![
        (0.0, 0.0),
        (0.05 * tf, 1.2),  // fast rise to overdrive
        (0.10 * tf, -0.5), // below the source rail
        (0.15 * tf, 1.0),
        (0.20 * tf, 0.0),
        (0.50 * tf, 0.0), // long off plateau
        (0.55 * tf, 1.1),
        (0.60 * tf, 0.05),
        (0.95 * tf, 0.9),
        (tf, 0.0),
    ];
    Pwl::new(pts).expect("hostile waveform times are strictly increasing")
}

fn traps() -> Vec<TrapParams> {
    vec![
        TrapParams::new(Length::from_nanometres(1.2), Energy::from_ev(0.30)),
        TrapParams::new(Length::from_nanometres(1.6), Energy::from_ev(0.42)),
        TrapParams::new(Length::from_nanometres(2.0), Energy::from_ev(0.55)),
    ]
}

#[test]
fn generator_survives_hostile_bias_with_invariants_enforced() {
    let gen = RtnGenerator::new(DeviceParams::nominal_90nm(), traps());
    let slowest = gen
        .models()
        .iter()
        .map(PropensityModel::rate_sum)
        .fold(f64::INFINITY, f64::min);
    let tf = 50.0 / slowest;
    let v = hostile_vgs(tf);
    let i = Pwl::new(vec![(0.0, 10e-6), (tf, 10e-6)]).unwrap();

    for seed in 0..8u64 {
        let rtn = gen
            .clone()
            .with_seed(seed)
            .generate(&BiasWaveforms::new(v.clone(), i.clone()), 0.0, tf)
            .expect("hostile but in-domain bias must simulate cleanly");
        // Occupancies are indicator staircases: exactly 0 or 1.
        for occ in &rtn.occupancies {
            for k in 0..200 {
                let t = tf * (k as f64 + 0.5) / 200.0;
                let o = occ.eval(t);
                assert!(o == 0.0 || o == 1.0, "occupancy {o} at t = {t}");
            }
        }
        // The filled count stays within [0, n_traps].
        assert!(rtn.n_filled.min_value() >= 0.0);
        assert!(rtn.n_filled.max_value() <= 3.0);
        // The current is physical: non-negative and finite.
        assert!(rtn.i_rtn.min_value() >= 0.0);
        assert!(rtn.i_rtn.max_value().is_finite());
    }
}

#[test]
fn propensities_stay_nonnegative_across_extreme_gate_drive() {
    let device = DeviceParams::nominal_90nm();
    for trap in traps() {
        let model = PropensityModel::new(device, trap);
        // Sweep far outside the physical operating range; the stable
        // sigmoid evaluation must never produce a negative or NaN rate.
        for k in -60..=60 {
            let v_gs = k as f64 * 0.1;
            let (lc, le) = model.propensities(v_gs);
            assert!(lc >= 0.0 && lc.is_finite(), "lambda_c = {lc} at {v_gs}");
            assert!(le >= 0.0 && le.is_finite(), "lambda_e = {le} at {v_gs}");
            let p = model.stationary_occupancy(v_gs);
            assert!((0.0..=1.0).contains(&p), "p_inf = {p} at {v_gs}");
        }
    }
}

#[test]
fn ensemble_occupancy_is_a_probability_under_hostile_bias() {
    let device = DeviceParams::nominal_90nm();
    let trap = TrapParams::new(Length::from_nanometres(1.4), Energy::from_ev(0.35));
    let model = PropensityModel::new(device, trap);
    let tf = 200.0 / model.rate_sum();
    let v = hostile_vgs(tf);
    let n = 64;
    let dt = tf / n as f64;
    let seeds = SeedStream::new(11);
    let trace = samurai_core::ensemble_occupancy_observed(
        &model,
        &v,
        0.0,
        dt,
        n,
        50,
        &seeds,
        samurai_core::Parallelism::Auto,
        &mut samurai_core::telemetry::Recorder::noop(),
    )
    .expect("hostile bias must not break the ensemble");
    for &p in trace.values() {
        assert!(
            (0.0..=1.0).contains(&p),
            "mean occupancy {p} outside [0, 1]"
        );
    }
}
