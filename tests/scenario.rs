//! Scenario-layer suite: the unified per-job sampling surface must
//! keep the determinism contract (bit-identical ensembles at every
//! worker count, on both solver backends, including the quarantined
//! set), and the sampled mismatch must follow the configured sigma
//! with Pelgrom area scaling.

use samurai::core::ensemble::{FailurePolicy, Parallelism};
use samurai::core::faults::{FaultKind, FaultPlan};
use samurai::core::scenario::{DeviceGeometry, ScenarioConfig, NOMINAL_TEMPERATURE};
use samurai::core::SeedStream;
use samurai::spice::SolverChoice;
use samurai::sram::{ColumnConfig, ColumnEnsembleConfig};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// A full-surface scenario: Pelgrom mismatch, beta/geometry spread,
/// supply and temperature corners, aging and trap-count dispersion.
fn full_scenario() -> ScenarioConfig {
    ScenarioConfig {
        a_vt: 1.8e-9,
        sigma_beta: 0.02,
        sigma_geometry: 0.01,
        vdd_range: (0.95, 1.05),
        temperature_range: (NOMINAL_TEMPERATURE, NOMINAL_TEMPERATURE + 60.0),
        stress_time: 1e7,
        sigma_density: 0.1,
        ..ScenarioConfig::nominal()
    }
}

/// A 4-member scenario column ensemble with one deterministically
/// injected fatal fault absorbed by the quarantine policy — every
/// scenario axis active at once, on the chosen solver backend.
fn scenario_ensemble(choice: SolverChoice, workers: usize) -> ColumnEnsembleConfig {
    ColumnEnsembleConfig {
        column: ColumnConfig {
            rows: 2,
            solver: choice,
            ..ColumnConfig::default()
        },
        members: 4,
        rtn_scale: 30.0,
        density_scale: 1.0,
        scenario: Some(full_scenario()),
        seed: 11,
        parallelism: Parallelism::Fixed(workers),
        failure: FailurePolicy::Quarantine {
            rungs: 1,
            max_failures: 1,
        },
        faults: FaultPlan::none().fail_job(1, FaultKind::NonConvergence),
        ..ColumnEnsembleConfig::default()
    }
}

/// A corner-sweep ensemble with variation + aging + RTN is
/// bit-identical at 1, 2 and 8 workers — including the quarantined
/// set — on both linear-solver backends.
#[test]
fn scenario_ensembles_are_bit_identical_at_any_worker_count() {
    for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
        let reference = samurai::sram::run_column_ensemble(&scenario_ensemble(choice, 1))
            .expect("scenario ensemble runs");
        assert_eq!(
            reference.report.quarantined.len(),
            1,
            "the injected fault must quarantine exactly one member"
        );
        assert_eq!(reference.effective_members(), 3);
        assert!(
            reference.total_rtn_events() > 0,
            "the scenario sweep must still exercise RTN"
        );
        for workers in WORKER_COUNTS {
            let stats = samurai::sram::run_column_ensemble(&scenario_ensemble(choice, workers))
                .expect("scenario ensemble runs");
            assert_eq!(stats, reference, "{choice:?} at {workers} workers");
        }
    }
}

/// The sampled threshold mismatch follows the configured sigma with
/// Pelgrom area scaling: the chi-square statistic of the normalised
/// draws sits inside a generous (deterministic-seed) confidence band.
#[test]
fn sampled_mismatch_matches_the_pelgrom_scaled_sigma() {
    let config = ScenarioConfig {
        sigma_vth: 0.005,
        a_vt: 1.8e-9,
        ..ScenarioConfig::nominal()
    };
    let geometry = DeviceGeometry {
        width: 180e-9,
        length: 90e-9,
    };
    let sigma = config.vth_sigma_for(geometry);
    let pelgrom = 1.8e-9 / geometry.area().sqrt();
    assert!(
        (sigma - (0.005 + pelgrom)).abs() < 1e-15,
        "sigma composition"
    );

    let n = 2000usize;
    let stream = SeedStream::new(23);
    let mut rng = stream.rng(0);
    let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
    for _ in 0..n {
        let z = config.sample(&mut rng, &[geometry]).device(0).vth_delta / sigma;
        sum += z;
        sum_sq += z * z;
    }
    let mean = sum / n as f64;
    // Chi-square with n degrees of freedom, normalised: E = 1,
    // sd = sqrt(2/n) ≈ 0.032. A 5-sigma band on a fixed seed.
    let chi_sq = sum_sq / n as f64;
    assert!(mean.abs() < 0.1, "sample mean drifted: {mean}");
    assert!(
        (chi_sq - 1.0).abs() < 5.0 * (2.0 / n as f64).sqrt(),
        "chi-square statistic outside the configured-sigma band: {chi_sq}"
    );

    // A 4x larger area halves the Pelgrom term: the same draws rescale.
    let large = DeviceGeometry {
        width: 4.0 * geometry.width,
        length: geometry.length,
    };
    assert!(
        (config.vth_sigma_for(large) - (0.005 + pelgrom / 2.0)).abs() < 1e-15,
        "Pelgrom sigma must scale as 1/sqrt(area)"
    );
}
