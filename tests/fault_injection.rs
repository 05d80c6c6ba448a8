//! Integration tests of the deterministic fault-injection machinery.
//!
//! Every rescue ladder in the stack — dcop gmin/source stepping, the
//! transient step-level ladder, the ensemble retry/quarantine policies
//! — is forced through the public API to demonstrably reach each rung,
//! and the rescued results are checked against the unassisted path.

use samurai::core::ensemble::{FailurePolicy, Parallelism};
use samurai::core::faults::{FaultKind, FaultPlan, FaultSite};
use samurai::core::scenario::ScenarioConfig;
use samurai::spice::{
    run_transient, Circuit, CompiledCircuit, DcConfig, NewtonWorkspace, Source, SpiceError,
    TransientConfig, TransientResult,
};
use samurai::sram::array::{run_array, ArrayConfig};
use samurai::sram::read::run_read_disturb;
use samurai::sram::{run_methodology, MethodologyConfig};
use samurai::waveform::{BitPattern, Pwl};

/// A linear divider: one plain Newton solve suffices unassisted.
fn divider() -> Circuit {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.vsource(a, Circuit::GROUND, Source::Dc(2.0));
    ckt.resistor(a, b, 1e3);
    ckt.resistor(b, Circuit::GROUND, 1e3);
    ckt
}

/// The RC step circuit the transient suite uses.
fn rc_step() -> Circuit {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let vout = ckt.node("out");
    ckt.vsource(
        vin,
        Circuit::GROUND,
        Source::Pwl(Pwl::step(0.0, 1.0, 1e-9, 1e-12).expect("static step")),
    );
    ckt.resistor(vin, vout, 1e3);
    ckt.capacitor(vout, Circuit::GROUND, 1e-12);
    ckt
}

fn armed_ws(compiled: &CompiledCircuit, plan: &FaultPlan) -> NewtonWorkspace {
    let mut ws = NewtonWorkspace::new(compiled);
    ws.arm_faults(plan.arm(FaultSite::Solve), plan.arm(FaultSite::Step));
    ws
}

#[test]
fn dcop_gmin_ladder_is_reached_and_agrees_with_plain_newton() {
    let ckt = divider();
    let compiled = CompiledCircuit::compile(&ckt);
    let dc = DcConfig::default();

    let mut ws = NewtonWorkspace::new(&compiled);
    compiled
        .dc_operating_point(&mut ws, 0.0, &dc)
        .expect("unassisted solve");
    assert_eq!(
        ws.stats().solve_attempts,
        1,
        "plain Newton should do it alone"
    );
    let reference = ws.solution().to_vec();

    // Failing the plain attempt forces the gmin ladder: every homotopy
    // rung runs, then the final gmin-free solve.
    let plan = FaultPlan::none().fail_nth_solve(1, FaultKind::NonConvergence);
    let mut ws = armed_ws(&compiled, &plan);
    compiled
        .dc_operating_point(&mut ws, 0.0, &dc)
        .expect("gmin ladder rescues");
    assert_eq!(
        ws.stats().solve_attempts,
        1 + dc.gmin_steps.len() as u64 + 1
    );
    for (got, want) in ws.solution().iter().zip(&reference) {
        assert!(
            (got - want).abs() < 1e-9,
            "laddered solution diverged: {got} vs {want}"
        );
    }
}

#[test]
fn dcop_source_stepping_is_reached_when_gmin_also_fails() {
    let ckt = divider();
    let compiled = CompiledCircuit::compile(&ckt);
    let dc = DcConfig::default();

    let mut ws = NewtonWorkspace::new(&compiled);
    compiled
        .dc_operating_point(&mut ws, 0.0, &dc)
        .expect("unassisted solve");
    let reference = ws.solution().to_vec();

    // Plain attempt and the first gmin rung both fail: the ladder is
    // abandoned and every source-stepping fraction runs.
    let plan = FaultPlan::none()
        .fail_nth_solve(1, FaultKind::NonConvergence)
        .fail_nth_solve(2, FaultKind::NonConvergence);
    let mut ws = armed_ws(&compiled, &plan);
    compiled
        .dc_operating_point(&mut ws, 0.0, &dc)
        .expect("source stepping rescues");
    assert_eq!(ws.stats().solve_attempts, 2 + dc.source_steps.len() as u64);
    for (got, want) in ws.solution().iter().zip(&reference) {
        assert!(
            (got - want).abs() < 1e-9,
            "source-stepped solution diverged: {got} vs {want}"
        );
    }
}

#[test]
fn injected_singular_matrix_drives_the_real_lu_error_path() {
    // The injection zeroes an actual LU row, so the rescue is of a
    // genuine SingularMatrix error, not a synthetic marker.
    let ckt = divider();
    let compiled = CompiledCircuit::compile(&ckt);
    let dc = DcConfig::default();
    let plan = FaultPlan::none().fail_nth_solve(1, FaultKind::SingularMatrix);
    let mut ws = armed_ws(&compiled, &plan);
    compiled
        .dc_operating_point(&mut ws, 0.0, &dc)
        .expect("gmin ladder rescues a singular first attempt");
    assert_eq!(
        ws.stats().solve_attempts,
        1 + dc.gmin_steps.len() as u64 + 1
    );
}

#[test]
fn injected_nan_residual_aborts_the_solve_on_its_first_iteration() {
    // A poisoned residual must surface as NumericalBreakdown from the
    // iteration it appears in — not stall to the iteration cap and
    // come back as NonConvergence. Poisoning the operating point's
    // plain solve, its first gmin rung and its first source step makes
    // the last one the run's error.
    let ckt = divider();
    let compiled = CompiledCircuit::compile(&ckt);
    let plan = FaultPlan::none()
        .fail_nth_solve(1, FaultKind::NanResidual)
        .fail_nth_solve(2, FaultKind::NanResidual)
        .fail_nth_solve(3, FaultKind::NanResidual);
    let mut ws = armed_ws(&compiled, &plan);
    let err = compiled
        .run_transient(&mut ws, 0.0, 1e-9, &TransientConfig::default())
        .expect_err("poisoned residual");
    assert!(
        matches!(err, SpiceError::NumericalBreakdown { iteration: 0, .. }),
        "expected an immediate NumericalBreakdown, got {err:?}"
    );
    assert_eq!(ws.stats().solve_attempts, 3);
    assert_eq!(ws.stats().newton_iterations, 3, "one iteration per solve");
}

#[test]
fn step_site_faults_surface_as_the_errors_they_model() {
    let ckt = divider();
    let compiled = CompiledCircuit::compile(&ckt);
    let config = TransientConfig::default();
    let mut ws = NewtonWorkspace::new(&compiled);
    let reference = compiled
        .run_transient(&mut ws, 0.0, 1e-9, &config)
        .expect("healthy run");

    // A singular matrix is fatal, wherever the step fault lands.
    for n in [1, 4] {
        let plan = FaultPlan::none().fail_nth_step(n, FaultKind::SingularMatrix);
        let mut ws = armed_ws(&compiled, &plan);
        let err = compiled
            .run_transient(&mut ws, 0.0, 1e-9, &config)
            .expect_err("step-site singular matrix is fatal");
        assert!(matches!(err, SpiceError::SingularMatrix { col: 0 }));
        assert_eq!(ws.stats().faults_injected, 1);
    }

    // A NaN residual and a non-convergence each reject their trial,
    // which is retried at half the step; a forced floor goes straight
    // to the rescue ladder, whose gmin ramp rescues it. The plan is
    // then exhausted and the run ends where the healthy one does.
    let plan = FaultPlan::none()
        .fail_nth_step(1, FaultKind::NanResidual)
        .fail_nth_step(2, FaultKind::NonConvergence)
        .fail_nth_step(3, FaultKind::TimestepFloor);
    let mut ws = armed_ws(&compiled, &plan);
    let faulted = compiled
        .run_transient(&mut ws, 0.0, 1e-9, &config)
        .expect("every step-site fault but a singular matrix is rescued");
    let stats = ws.stats();
    assert_eq!(stats.faults_injected, 3);
    assert_eq!(stats.timestep_rejections, 3);
    assert_eq!(stats.rescue_rungs(), (3, 0));
    let end = |r: &TransientResult| r.voltage(&ckt, "b").expect("node b").eval(1e-9);
    assert!((end(&faulted) - end(&reference)).abs() < 1e-12);
}

#[test]
fn transient_gmin_ramp_rescues_a_forced_timestep_floor() {
    let ckt = rc_step();
    let compiled = CompiledCircuit::compile(&ckt);
    let config = TransientConfig::default();
    let reference = run_transient(&ckt, 0.0, 4e-9, &config).expect("healthy run");

    // Step 3 is told its halving has bottomed out; the gmin ramp
    // (3 rungs) plus the final gmin-free solve converge it.
    let plan = FaultPlan::none().fail_nth_step(3, FaultKind::TimestepFloor);
    let mut ws = armed_ws(&compiled, &plan);
    let rescued = compiled
        .run_transient(&mut ws, 0.0, 4e-9, &config)
        .expect("gmin ramp rescues the step");
    assert_eq!(ws.stats().rescue_rungs(), (3, 0));

    // The rescued trajectory still tracks the healthy one.
    let want = reference.voltage(&ckt, "out").expect("node").eval(4e-9);
    let got = rescued.voltage(&ckt, "out").expect("node").eval(4e-9);
    assert!((got - want).abs() < 0.01, "rescued {got} vs healthy {want}");
}

#[test]
fn transient_config_ladder_is_reached_when_the_ramp_is_disabled() {
    // The dcop takes solve 1 and step 1 solve 2. The forced-floor
    // step 2 then fails the ramp's first rung (solve 3), abandoning
    // the ramp, and the first patient-Newton rung (solve 4) converges.
    let ckt = rc_step();
    let compiled = CompiledCircuit::compile(&ckt);
    let plan = FaultPlan::none()
        .fail_nth_step(2, FaultKind::TimestepFloor)
        .fail_nth_solve(3, FaultKind::NonConvergence);
    let mut ws = armed_ws(&compiled, &plan);
    compiled
        .run_transient(&mut ws, 0.0, 4e-9, &TransientConfig::default())
        .expect("config ladder rescues the step");
    assert_eq!(ws.stats().rescue_rungs(), (1, 1));
}

#[test]
fn exhausted_rescue_reports_every_rung_attempted() {
    // The dcop takes solve 1. The forced-floor step then fails every
    // rescue solve: gmin rung 1 (solve 2, abandoning the ramp) and
    // both config rungs (solves 3 and 4).
    let ckt = rc_step();
    let compiled = CompiledCircuit::compile(&ckt);
    let config = TransientConfig::default();
    let plan = FaultPlan::none()
        .fail_nth_step(1, FaultKind::TimestepFloor)
        .fail_nth_solve(2, FaultKind::NonConvergence)
        .fail_nth_solve(3, FaultKind::NonConvergence)
        .fail_nth_solve(4, FaultKind::NonConvergence);
    let mut ws = armed_ws(&compiled, &plan);
    let err = compiled
        .run_transient(&mut ws, 0.0, 4e-9, &config)
        .expect_err("every rung sabotaged");
    match err {
        SpiceError::StepUnderflow {
            dt, rescue_rungs, ..
        } => {
            assert_eq!(rescue_rungs, 3, "1 gmin rung + 2 config rungs");
            assert!(dt > 0.0);
        }
        other => panic!("expected StepUnderflow, got {other:?}"),
    }
    assert_eq!(ws.stats().rescue_rungs(), (1, 2));
}

#[test]
fn rescue_ladder_never_changes_a_healthy_run() {
    // Runs that never bottom out never enter the ladder; the golden
    // fingerprints pin their bits.
    let ckt = rc_step();
    let compiled = CompiledCircuit::compile(&ckt);
    let mut ws = NewtonWorkspace::new(&compiled);
    compiled
        .run_transient(&mut ws, 0.0, 6e-9, &TransientConfig::default())
        .expect("runs");
    assert_eq!(ws.stats().rescue_rungs(), (0, 0));
}

#[test]
fn quarantined_array_sweeps_are_bit_identical_at_any_worker_count() {
    let pattern = BitPattern::parse("1").expect("static pattern");
    let run = |workers: usize| {
        let config = ArrayConfig {
            cells: 4,
            scenario: Some(ScenarioConfig::fixed_vth_sigma(0.01)),
            seed: 9,
            failure: FailurePolicy::Quarantine {
                rungs: 1,
                max_failures: 1,
            },
            faults: FaultPlan::none().fail_job(2, FaultKind::NonConvergence),
            parallelism: Parallelism::Fixed(workers),
            ..ArrayConfig::default()
        };
        run_array(&pattern, &config).expect("quarantine absorbs the loss")
    };

    let reference = run(1);
    assert_eq!(reference.effective_cells(), 3);
    assert_eq!(reference.report.quarantined.len(), 1);
    assert_eq!(reference.report.quarantined[0].job, 2);
    assert!(
        reference.cells.iter().all(|c| c.cell != 2),
        "the quarantined cell contributes no statistics"
    );

    for workers in [2, 8] {
        let stats = run(workers);
        assert_eq!(stats.cells, reference.cells, "{workers} workers");
        let quarantined: Vec<usize> = stats.report.quarantined.iter().map(|f| f.job).collect();
        assert_eq!(quarantined, vec![2], "{workers} workers");
    }
}

#[test]
fn retry_rescues_a_scoped_fault_and_leaves_other_cells_untouched() {
    let pattern = BitPattern::parse("1").expect("static pattern");
    let sweep = |failure: FailurePolicy, faults: FaultPlan| {
        let config = ArrayConfig {
            cells: 3,
            scenario: Some(ScenarioConfig::fixed_vth_sigma(0.01)),
            seed: 9,
            failure,
            faults,
            base: MethodologyConfig::default(),
            ..ArrayConfig::default()
        };
        run_array(&pattern, &config)
    };

    let clean = sweep(FailurePolicy::FailFast, FaultPlan::none()).expect("healthy sweep");

    // A SingularMatrix forced into cell 1's SPICE passes is fatal on
    // the nominal attempt (the transient engine does not retry it);
    // rung 1 re-runs that cell under the rescue config with the plan
    // spent, so the sweep completes.
    let faults = FaultPlan::none()
        .fail_nth_step(5, FaultKind::SingularMatrix)
        .in_job(1);
    let err = sweep(FailurePolicy::FailFast, faults.clone()).expect_err("fatal under fail-fast");
    let text = format!("{err}");
    assert!(text.contains("singular"), "unexpected error: {text}");

    let rescued = sweep(FailurePolicy::Retry { rungs: 2 }, faults).expect("retry rescues");
    assert_eq!(rescued.report.rescued.len(), 1);
    assert_eq!(rescued.report.rescued[0].job, 1);
    assert_eq!(rescued.report.rescued[0].rung, 1);
    assert!(rescued.report.quarantined.is_empty());
    // Cells that never failed are bit-identical to the clean sweep.
    for (got, want) in rescued.cells.iter().zip(&clean.cells) {
        if got.cell != 1 {
            assert_eq!(got, want);
        }
    }
}

// ---------------------------------------------------------------------
// The same fault machinery through the sparse backend: the injections
// drive the real sparse factorization error paths, and every rescue
// and quarantine behaviour is identical to the dense backend's.
// ---------------------------------------------------------------------

use samurai::spice::SolverChoice;
use samurai::sram::{run_column_ensemble, ColumnConfig, ColumnEnsembleConfig};

#[test]
fn sparse_backend_rescues_injected_faults_like_the_dense_one() {
    let ckt = divider();
    let dc = DcConfig::default();
    let mut solutions = Vec::new();
    for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
        let compiled = CompiledCircuit::compile_with_solver(&ckt, choice);

        // A singular first attempt is rescued by the gmin ladder with
        // the exact same attempt count on both backends.
        let plan = FaultPlan::none().fail_nth_solve(1, FaultKind::SingularMatrix);
        let mut ws = armed_ws(&compiled, &plan);
        compiled
            .dc_operating_point(&mut ws, 0.0, &dc)
            .expect("gmin ladder rescues a singular first attempt");
        assert_eq!(
            ws.stats().solve_attempts,
            1 + dc.gmin_steps.len() as u64 + 1,
            "{choice:?}"
        );
        solutions.push(ws.solution().to_vec());
    }
    for (d, s) in solutions[0].iter().zip(&solutions[1]) {
        assert!((d - s).abs() < 1e-9, "rescued solutions diverged");
    }
}

#[test]
fn sparse_factorization_failure_names_the_offending_unknown() {
    // Sabotage every homotopy attempt: the ladder exhausts and the
    // real factorization error surfaces. The injection zeroes row 0,
    // so both backends must blame unknown `a` — the node-name carry
    // through CompiledCircuit works for either factorization.
    let ckt = divider();
    let dc = DcConfig::default();
    for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
        let compiled = CompiledCircuit::compile_with_solver(&ckt, choice);
        let mut plan = FaultPlan::none();
        for n in 1..=(2 + dc.gmin_steps.len() + dc.source_steps.len()) as u64 {
            plan = plan.fail_nth_solve(n, FaultKind::SingularMatrix);
        }
        let mut ws = armed_ws(&compiled, &plan);
        let err = compiled
            .dc_operating_point(&mut ws, 0.0, &dc)
            .expect_err("every attempt sabotaged");
        // Partial pivoting defers the rank deficiency of the zeroed
        // row to the branch-current column — and both factorizations
        // agree on the unknown they blame.
        match &err {
            SpiceError::SingularMatrix { col } => assert_eq!(
                compiled.unknown_name(*col),
                Some("i(v0)"),
                "{choice:?} must index the unknown where the pivot was lost"
            ),
            other => panic!("{choice:?}: expected SingularMatrix, got {other:?}"),
        }
    }
}

#[test]
fn sparse_nan_residual_is_rescued_with_dense_identical_effort() {
    // A poisoned first attempt surfaces as NumericalBreakdown inside
    // the homotopy, which retries down the gmin ladder — on both
    // backends, with the same attempt count and the same answer.
    let ckt = divider();
    let dc = DcConfig::default();
    let mut attempts = Vec::new();
    for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
        let compiled = CompiledCircuit::compile_with_solver(&ckt, choice);
        let plan = FaultPlan::none().fail_nth_solve(1, FaultKind::NanResidual);
        let mut ws = armed_ws(&compiled, &plan);
        compiled
            .dc_operating_point(&mut ws, 0.0, &dc)
            .expect("ladder rescues the poisoned attempt");
        attempts.push(ws.stats().solve_attempts);
    }
    assert_eq!(attempts[0], attempts[1], "rescue effort differs");
}

#[test]
fn sparse_transient_step_faults_surface_as_typed_errors() {
    let ckt = rc_step();
    let compiled = CompiledCircuit::compile_with_solver(&ckt, SolverChoice::Sparse);
    let plan = FaultPlan::none().fail_nth_step(2, FaultKind::SingularMatrix);
    let mut ws = armed_ws(&compiled, &plan);
    let err = compiled
        .run_transient(&mut ws, 0.0, 4e-9, &TransientConfig::default())
        .expect_err("step-site singular matrix is fatal");
    assert!(matches!(err, SpiceError::SingularMatrix { .. }));

    // The rescue ladder still catches a forced floor on the sparse
    // backend, with the same rung accounting as the dense one.
    let plan = FaultPlan::none().fail_nth_step(3, FaultKind::TimestepFloor);
    let mut ws = armed_ws(&compiled, &plan);
    compiled
        .run_transient(&mut ws, 0.0, 4e-9, &TransientConfig::default())
        .expect("gmin ramp rescues the step");
    assert_eq!(ws.stats().rescue_rungs(), (3, 0));
}

#[test]
fn sparse_column_quarantine_is_bit_identical_at_any_worker_count() {
    // The full stack — generated column, forced-sparse compile, fault
    // plan, quarantine policy — must shard deterministically.
    let run = |workers: usize| {
        let config = ColumnEnsembleConfig {
            column: ColumnConfig {
                rows: 2,
                solver: SolverChoice::Sparse,
                ..ColumnConfig::default()
            },
            members: 4,
            scenario: Some(ScenarioConfig::fixed_vth_sigma(0.01)),
            density_scale: 0.0,
            seed: 13,
            parallelism: Parallelism::Fixed(workers),
            failure: FailurePolicy::Quarantine {
                rungs: 1,
                max_failures: 1,
            },
            faults: FaultPlan::none().fail_job(1, FaultKind::NonConvergence),
            ..ColumnEnsembleConfig::default()
        };
        run_column_ensemble(&config).expect("quarantine absorbs the loss")
    };

    let reference = run(1);
    assert_eq!(reference.effective_members(), 3);
    assert_eq!(reference.report.quarantined.len(), 1);
    assert_eq!(reference.report.quarantined[0].job, 1);
    for workers in [2, 8] {
        let stats = run(workers);
        assert_eq!(stats.members, reference.members, "{workers} workers");
    }
}

/// The read-disturb flow runs the same two passes as the write flow
/// under the same `MethodologyConfig`: a fault plan that breaks the
/// write flow's pass 1 breaks the read flow's too, and the thermal
/// corner reaches its solver.
#[test]
fn read_disturb_honours_the_methodology_config() {
    let faulted = MethodologyConfig {
        faults: FaultPlan::none().fail_nth_step(2, FaultKind::SingularMatrix),
        ..MethodologyConfig::default()
    };
    let pattern = BitPattern::parse("10").expect("static pattern");
    assert!(run_methodology(&pattern, &faulted).is_err());
    assert!(run_read_disturb(false, 2, &faulted).is_err());

    let quiet = MethodologyConfig {
        traps: Some(Default::default()),
        ..MethodologyConfig::default()
    };
    let hot = MethodologyConfig {
        phi_t_scale: 1.2,
        ..quiet.clone()
    };
    let nominal = run_read_disturb(false, 2, &quiet).expect("nominal corner runs");
    let heated = run_read_disturb(false, 2, &hot).expect("hot corner runs");
    assert_ne!(nominal.q.points(), heated.q.points());
}
