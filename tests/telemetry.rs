//! Telemetry subsystem integration: observation must never change
//! results. A recording run is bit-identical to the noop-recorder run
//! at every worker count, the event journal is byte-identical across
//! worker counts (it is built after the ordered shard merge), and the
//! journal's per-job Newton counts land in golden buckets under
//! seeded fault injection.

use samurai::core::ensemble::{FailurePolicy, Parallelism};
use samurai::core::faults::{FaultKind, FaultPlan};
use samurai::core::scenario::ScenarioConfig;
use samurai::core::telemetry::{JournalEvent, Recorder};
use samurai::core::{ensemble_occupancy_observed, SeedStream};
use samurai::sram::array::{run_array, run_array_observed, ArrayConfig};
use samurai::trap::{DeviceParams, PropensityModel, TrapParams};
use samurai::units::{Energy, Length};
use samurai::waveform::{BitPattern, Pwl};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn trap_model() -> PropensityModel {
    PropensityModel::new(
        DeviceParams::nominal_90nm(),
        TrapParams::new(Length::from_nanometres(1.8), Energy::from_ev(0.4)),
    )
}

/// A 4-cell array sweep with one deterministically injected fatal
/// fault, absorbed by the quarantine policy — the richest journal a
/// small sweep can produce (job, rescued and quarantined events).
fn faulted_config(workers: usize) -> ArrayConfig {
    ArrayConfig {
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
    }
}

/// The observed uniformisation ensemble returns the same `f64`s as the
/// unobserved one, at every worker count, while the recorder fills up.
#[test]
fn observed_ensemble_occupancy_is_bit_identical_to_unobserved() {
    let model = trap_model();
    let bias = Pwl::constant(0.6);
    let lambda = model.rate_sum();
    let dt = 0.5 / lambda;
    let (n, runs) = (40, 64);
    let seeds = SeedStream::new(7);
    let reference = ensemble_occupancy_observed(
        &model,
        &bias,
        0.0,
        dt,
        n,
        runs,
        &seeds,
        Parallelism::Auto,
        &mut Recorder::noop(),
    )
    .expect("runs");

    for workers in WORKER_COUNTS {
        let mut recorder = Recorder::recording();
        let observed = ensemble_occupancy_observed(
            &model,
            &bias,
            0.0,
            dt,
            n,
            runs,
            &seeds,
            Parallelism::Fixed(workers),
            &mut recorder,
        )
        .expect("runs");
        assert_eq!(observed, reference, "{workers} workers");
        assert_eq!(recorder.job_seconds().len(), runs, "{workers} workers");
        assert!(
            recorder.trap_totals().candidates > 0,
            "uniformisation candidates must be visible to the recorder"
        );
        assert_eq!(recorder.journal().len(), runs, "one event per job");
    }
}

/// The observed array sweep (recording recorder, fault injected)
/// produces the same cell statistics as the plain noop-recorder path.
#[test]
fn observed_array_sweep_is_bit_identical_to_noop() {
    let pattern = BitPattern::parse("1").expect("static pattern");
    let reference = run_array(&pattern, &faulted_config(1)).expect("noop sweep");
    assert_eq!(reference.report.quarantined.len(), 1);

    for workers in WORKER_COUNTS {
        let mut recorder = Recorder::recording();
        let observed = run_array_observed(&pattern, &faulted_config(workers), &mut recorder)
            .expect("observed sweep");
        assert_eq!(observed.cells, reference.cells, "{workers} workers");
        assert_eq!(recorder.job_seconds().len(), 3);
        let quarantined = recorder
            .journal()
            .events()
            .iter()
            .filter(|event| matches!(event, JournalEvent::Quarantined { .. }))
            .count();
        assert_eq!(quarantined, 1);
        assert!(
            recorder.solver_totals().newton_iterations > 0,
            "the SPICE passes must report Newton effort"
        );
    }
}

/// The journal serialises to the same bytes at 1, 2 and 8 workers:
/// events are pushed after the ordered merge, carry no wall-clock, and
/// quarantine decisions land at deterministic positions.
#[test]
fn journal_is_byte_identical_across_worker_counts() {
    let pattern = BitPattern::parse("1").expect("static pattern");
    let mut journals = Vec::new();
    for workers in WORKER_COUNTS {
        let mut recorder = Recorder::recording();
        run_array_observed(&pattern, &faulted_config(workers), &mut recorder)
            .expect("observed sweep");
        journals.push(recorder.journal().to_jsonl());
    }
    assert!(!journals[0].is_empty(), "fault-injected sweep must journal");
    assert!(
        journals[0].contains("\"event\":\"quarantined\""),
        "quarantine decision must be journalled: {}",
        journals[0]
    );
    for (journal, workers) in journals.iter().zip(WORKER_COUNTS) {
        assert_eq!(
            journal.as_bytes(),
            journals[0].as_bytes(),
            "{workers} workers"
        );
    }
}

/// Per-job solver effort reproduces golden bucket counts under seeded
/// fault injection: the journal carries deterministic per-job
/// counters, so the bucketing is exact.
#[test]
fn histogram_buckets_match_golden_values_under_fault_injection() {
    let pattern = BitPattern::parse("1").expect("static pattern");
    let mut recorder = Recorder::recording();
    run_array_observed(&pattern, &faulted_config(2), &mut recorder).expect("observed sweep");

    let per_job: Vec<u64> = recorder
        .journal()
        .events()
        .iter()
        .filter_map(|event| match event {
            JournalEvent::Job { solver, .. } => Some(solver.newton_iterations),
            _ => None,
        })
        .collect();
    // Golden bucket counts over the bounds 100, 1000 and 10 000 for
    // seed 9 / 4 cells / job-2 quarantined are [0, 3, 0, 0]: all three
    // surviving cells' two-pass flows take 100..1000 Newton
    // iterations. A drift here means the solver or the counter
    // plumbing changed behaviour.
    assert_eq!(per_job.len(), 3, "three surviving cells");
    assert!(
        per_job.iter().all(|n| (100..1000).contains(n)),
        "golden bucket counts: {per_job:?}"
    );
}
