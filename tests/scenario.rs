//! Scenario-layer suite: the unified per-job sampling surface must
//! keep the determinism contract (bit-identical ensembles at every
//! worker count, on both solver backends, including the quarantined
//! set), the parameter-patching shortcut must agree with a freshly
//! compiled shifted netlist, and the sampled mismatch must follow the
//! configured sigma with Pelgrom area scaling.

use samurai::core::ensemble::{FailurePolicy, Parallelism};
use samurai::core::faults::{FaultKind, FaultPlan};
use samurai::core::scenario::{DeviceGeometry, ScenarioConfig, NOMINAL_TEMPERATURE};
use samurai::core::SeedStream;
use samurai::spice::{
    CompiledCircuit, DcConfig, MosfetAdjust, NewtonWorkspace, ParamPatch, SolverChoice,
};
use samurai::sram::{ColumnConfig, ColumnEnsembleConfig, SramCell, SramCellParams};

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

/// Solves the DC operating point of `cell`'s circuit with a fresh
/// workspace and returns the solution vector.
fn dcop(compiled: &CompiledCircuit, cell: &SramCell, vdd: f64) -> Vec<f64> {
    let mut guess = vec![0.0; cell.circuit.node_count()];
    guess[cell.vdd_node.unknown_index().expect("vdd is not ground")] = vdd;
    guess[cell.q.unknown_index().expect("q is not ground")] = vdd;
    let dc = DcConfig {
        initial_guess: Some(guess),
        ..DcConfig::default()
    };
    let mut ws = NewtonWorkspace::new(compiled);
    compiled
        .dc_operating_point(&mut ws, 0.0, &dc)
        .expect("dcop solves");
    ws.solution().to_vec()
}

/// The test patch: per-device threshold/beta/geometry adjustments plus
/// global supply and thermal-voltage scales.
fn test_patch(cell: &SramCell) -> ParamPatch {
    let adjusts = [
        MosfetAdjust::vth_shift(0.02),
        MosfetAdjust::nominal(),
        MosfetAdjust {
            vth_delta: -0.015,
            beta_scale: 1.05,
            geom_scale: 1.0,
        },
        MosfetAdjust::nominal(),
        MosfetAdjust {
            vth_delta: 0.0,
            beta_scale: 1.0,
            geom_scale: 0.95,
        },
        MosfetAdjust::vth_shift(-0.01),
    ];
    ParamPatch {
        devices: samurai::sram::Transistor::ALL
            .iter()
            .map(|&t| (cell.transistor(t), adjusts[t.index()]))
            .collect(),
        vdd_scale: 0.97,
        phi_t_scale: 1.1,
    }
}

/// Patching a persistent compiled workspace produces the same
/// operating point, to 1e-12, as compiling a freshly shifted netlist —
/// the guarantee that lets per-job variation skip recompilation.
#[test]
fn patched_workspace_matches_a_freshly_compiled_shifted_netlist() {
    let params = SramCellParams::default();
    let cell = SramCell::new(params);
    let patch = test_patch(&cell);

    // Path A: compile once, patch the compiled stamps in place.
    let mut compiled = CompiledCircuit::compile(&cell.circuit);
    let nominal = dcop(&compiled, &cell, params.vdd);
    compiled.apply_patch(&patch).expect("patch applies");
    let patched = dcop(&compiled, &cell, params.vdd * patch.vdd_scale);

    // Path B: bake the same deltas into the netlist and recompile.
    let mut shifted_cell = SramCell::new(params);
    patch
        .apply_to_circuit(&mut shifted_cell.circuit)
        .expect("patch applies to the netlist");
    let recompiled = CompiledCircuit::compile(&shifted_cell.circuit);
    let fresh = dcop(&recompiled, &shifted_cell, params.vdd * patch.vdd_scale);

    assert_eq!(patched.len(), fresh.len());
    for (i, (p, f)) in patched.iter().zip(&fresh).enumerate() {
        assert!(
            (p - f).abs() <= 1e-12 * (1.0 + p.abs()),
            "unknown {i} diverged: patched {p} vs recompiled {f}"
        );
    }
    assert!(
        patched
            .iter()
            .zip(&nominal)
            .any(|(p, n)| (p - n).abs() > 1e-6),
        "the patch must actually move the operating point"
    );
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
