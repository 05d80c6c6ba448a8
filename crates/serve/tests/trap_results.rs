//! Bit-identity suite for what a `trap` ticket returns. The service's
//! journals carry counts, not values, so these fingerprints are the
//! only check on the per-panel means a trap ticket seals into its
//! result document. They were captured while `trap_job` still built
//! each panel's sampled trace and took its mean, so any change to how
//! the staircase is sampled or reduced that moves a single bit fails
//! here.

use samurai_core::checkpoint::{CheckpointConfig, RunBudget};
use samurai_core::telemetry::{fnv1a64, JsonValue};
use samurai_core::{FailurePolicy, Parallelism, ScenarioConfig};
use samurai_serve::{run_chunk, JobSpec, Workload};

/// The sealed `results` array of a completed trap spec, as the bit
/// patterns the store document holds.
fn result_bits(spec: &JobSpec) -> Vec<u64> {
    let chunk = run_chunk(
        spec,
        Parallelism::Fixed(2),
        CheckpointConfig::default(),
        RunBudget::unlimited(),
    )
    .expect("trap spec runs");
    assert!(chunk.complete);
    let Some(JsonValue::Arr(items)) = chunk.results else {
        panic!("a complete trap run seals a results array");
    };
    items
        .iter()
        .map(|v| match v {
            JsonValue::U64(bits) => *bits,
            other => panic!("results hold bit patterns, got {other:?}"),
        })
        .collect()
}

/// FNV-1a over the little-endian bytes of each result's bits.
fn fingerprint(bits: &[u64]) -> u64 {
    fnv1a64(
        &bits
            .iter()
            .flat_map(|b| b.to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

fn trap_spec(
    panels: usize,
    samples: usize,
    seed: u64,
    scenario: Option<ScenarioConfig>,
) -> JobSpec {
    JobSpec {
        workload: Workload::Trap { panels, samples },
        seed,
        policy: FailurePolicy::FailFast,
        scenario,
        drill: None,
    }
}

/// The `serve_mixed` trap ticket's shape: 16 panels of 65 536 samples.
#[test]
fn the_benchmark_trap_spec_matches_the_pinned_results() {
    let bits = result_bits(&trap_spec(16, 65_536, 1, None));
    assert_eq!(bits.len(), 16);
    assert_eq!(fingerprint(&bits), 0x468a_9f3e_b509_ca8a, "{bits:#018x?}");
}

/// A supply-corner scenario moves each panel's gate bias, so the
/// panels' rates and amplitudes differ from the nominal ones.
#[test]
fn a_scenario_trap_spec_matches_the_pinned_results() {
    let scenario = ScenarioConfig {
        vdd_range: (0.85, 1.1),
        ..ScenarioConfig::nominal()
    };
    let bits = result_bits(&trap_spec(6, 1024, 42, Some(scenario)));
    assert_eq!(bits.len(), 6);
    // Panel 1 never fills its trap: its mean is +0.0.
    assert_eq!(bits[1], 0);
    assert_eq!(fingerprint(&bits), 0xc2ee_7632_cb94_2262, "{bits:#018x?}");
}
