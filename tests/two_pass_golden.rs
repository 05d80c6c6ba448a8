//! Bit-identity suite for the two-pass SPICE → SAMURAI → SPICE flows
//! (cell write, ring oscillator, cell array and column ensemble). The
//! first four reference fingerprints below were captured at commit
//! 5ad3c67, while each flow still ran its own copy of the
//! bias-extraction, trap and RTN-injection loop, so a single-bit drift
//! in any flow's seed layout, equilibration or injection fails these
//! tests. The two full-scenario array fingerprints pin the scenario
//! lowering the array shares with the column ensemble. The coupled
//! fingerprint was captured while the coupled flow still kept its own
//! copies of the trap sampling and the gate-drive formula.

use samurai::core::fnv1a64;
use samurai::core::scenario::{ScenarioConfig, NOMINAL_TEMPERATURE};
use samurai::core::telemetry::Recorder;
use samurai::sram::array::{run_array_observed, ArrayConfig};
use samurai::sram::coupled::run_coupled;
use samurai::sram::ringosc::{run_ring, RingConfig};
use samurai::sram::{
    run_column_ensemble_observed, run_methodology, ColumnConfig, ColumnEnsembleConfig,
    MethodologyConfig,
};
use samurai::waveform::BitPattern;

/// FNV-1a over the little-endian bytes of each word: a stable
/// fingerprint of a word sequence, sensitive to any single-bit change.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a64(
        &words
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .collect::<Vec<u8>>(),
    )
}

/// Fingerprint of every `(time, value)` point, both as bits.
fn hash_points(points: &[(f64, f64)]) -> u64 {
    fnv1a(points.iter().flat_map(|&(t, v)| [t.to_bits(), v.to_bits()]))
}

fn hash_f64s(x: &[f64]) -> u64 {
    fnv1a(x.iter().map(|v| v.to_bits()))
}

fn hash_text(text: &str) -> u64 {
    fnv1a(text.bytes().map(u64::from))
}

fn assert_pinned(got: &[u64], want: &[u64]) {
    assert_eq!(got, want, "{got:#018x?}");
}

/// The Fig 8 write pattern at the paper's ×30 RTN acceleration:
/// `Q`/`Q̄` of pass 2, every transistor's `I_RTN` and the solver effort.
#[test]
fn cell_methodology_matches_the_pinned_fingerprint() {
    let config = MethodologyConfig {
        rtn_scale: 30.0,
        seed: 1,
        ..MethodologyConfig::default()
    };
    let report = run_methodology(&BitPattern::paper_fig8(), &config).expect("methodology runs");
    let s = report.solver;
    let got = [
        hash_points(report.q_rtn.points()),
        hash_points(report.qb_rtn.points()),
        fnv1a(report.rtn.iter().map(|t| hash_points(t.i_rtn.steps()))),
        fnv1a([
            s.solve_attempts,
            s.newton_iterations,
            s.steps_accepted,
            s.timestep_rejections,
            s.rescue_gmin_rungs,
            s.rescue_config_rungs,
            s.faults_injected,
        ]),
    ];
    assert!(report.total_events() > 0, "the traps must switch");
    let want = [
        0x6a2cc4861100a25c,
        0xde6e5114f7f24cfa,
        0x205e8c6b011fb6d5,
        0xa77557d03beee882,
    ];
    assert_pinned(&got, &want);
}

/// The five-stage ring at the accelerated scale of its unit test.
#[test]
fn ring_matches_the_pinned_fingerprint() {
    let config = RingConfig {
        rtn_scale: 100.0,
        density_scale: 2.0,
        seed: 5,
        ..RingConfig::default()
    };
    let report = run_ring(&config).expect("ring simulates");
    let got = [
        hash_f64s(&report.periods_clean),
        hash_f64s(&report.periods_rtn),
    ];
    assert_ne!(report.periods_clean, report.periods_rtn, "no edge moved");
    assert_pinned(&got, &[0x1288296884f2063f, 0x90281ad11f71cd35]);
}

/// Per-cell counts and the journal bytes of an array sweep over the
/// pattern `1010`.
fn array_fingerprint(config: &ArrayConfig) -> [u64; 2] {
    let pattern = BitPattern::parse("1010").expect("static pattern");
    let mut recorder = Recorder::recording();
    let stats = run_array_observed(&pattern, config, &mut recorder).expect("array sweep runs");
    assert!(stats.cells.iter().all(|c| c.rtn_events > 0), "idle cell");
    let cells = stats.cells.iter().flat_map(|c| {
        [c.cell, c.errors, c.slow, c.baseline_errors, c.rtn_events].map(|n| n as u64)
    });
    [fnv1a(cells), hash_text(&recorder.journal().to_jsonl())]
}

/// A two-cell array sweep with the default scenario.
#[test]
fn array_matches_the_pinned_fingerprint() {
    let config = ArrayConfig {
        cells: 2,
        seed: 7,
        base: MethodologyConfig {
            rtn_scale: 30.0,
            density_scale: 2.0,
            ..MethodologyConfig::default()
        },
        ..ArrayConfig::default()
    };
    let got = array_fingerprint(&config);
    assert_pinned(&got, &[0x9ff546cebd4b40cc, 0x54af01a90da90e87]);
}

/// A 4-row, 2-member column ensemble under a full scenario: the
/// selected row's final `Q` and the journal bytes.
#[test]
fn column_ensemble_matches_the_pinned_fingerprint() {
    let config = ColumnEnsembleConfig {
        column: ColumnConfig {
            rows: 4,
            ..ColumnConfig::default()
        },
        members: 2,
        rtn_scale: 30.0,
        scenario: Some(ScenarioConfig {
            a_vt: 1.8e-9,
            sigma_beta: 0.02,
            sigma_geometry: 0.01,
            vdd_range: (0.95, 1.05),
            temperature_range: (NOMINAL_TEMPERATURE, NOMINAL_TEMPERATURE + 60.0),
            stress_time: 1e7,
            sigma_density: 0.1,
            ..ScenarioConfig::nominal()
        }),
        seed: 13,
        ..ColumnEnsembleConfig::default()
    };
    let mut recorder = Recorder::recording();
    let stats = run_column_ensemble_observed(&config, &mut recorder).expect("ensemble runs");
    let q: Vec<f64> = stats.members.iter().map(|m| m.q_selected).collect();
    let got = [hash_f64s(&q), hash_text(&recorder.journal().to_jsonl())];
    assert!(stats.total_rtn_events() > 0, "the traps must switch");
    assert_pinned(&got, &[0x223b84efbee5a4b9, 0x3171e2d0a94536e1]);
}

/// A two-cell sweep under a full per-cell scenario: mismatch (flat and
/// Pelgrom), beta spread, supply and temperature corners, NBTI aging
/// and trap-density dispersion, plus `sigma_geometry`.
fn full_array_scenario(sigma_geometry: f64) -> ArrayConfig {
    ArrayConfig {
        cells: 2,
        scenario: Some(ScenarioConfig {
            sigma_vth: 0.01,
            a_vt: 1.8e-9,
            sigma_beta: 0.02,
            sigma_geometry,
            vdd_range: (0.95, 1.05),
            temperature_range: (NOMINAL_TEMPERATURE, NOMINAL_TEMPERATURE + 60.0),
            stress_time: 1e7,
            sigma_density: 0.1,
        }),
        seed: 7,
        base: MethodologyConfig {
            rtn_scale: 30.0,
            density_scale: 1.0,
            ..MethodologyConfig::default()
        },
        ..ArrayConfig::default()
    }
}

/// The array under every scenario axis but geometry spread. Pinned
/// while the array still lowered its scenario through its own copy of
/// the column's code; the shared lowering reproduces it.
#[test]
fn array_under_a_full_scenario_matches_the_pinned_fingerprint() {
    let got = array_fingerprint(&full_array_scenario(0.0));
    assert_pinned(&got, &[0xaced388c0e09e943, 0xb414868645785de4]);
}

/// The array with geometry spread on top: each site's Eq (3) reads the
/// varied width of the patched netlist, the width its traps were
/// sampled at.
#[test]
fn array_under_geometry_spread_matches_the_pinned_fingerprint() {
    let got = array_fingerprint(&full_array_scenario(0.05));
    assert_pinned(&got, &[0xa51d5dcfc8a9b8bd, 0x2ec459cbb9db89b7]);
}

/// The bi-directionally coupled flow on the Fig 8 pattern at ×30: the
/// `Q` and `Q̄` points and every transistor's filled-trap steps.
/// Pinned when the flow moved onto the adaptive engine with
/// Algorithm 1 as its trap kernel.
#[test]
fn coupled_matches_the_pinned_fingerprint() {
    let config = MethodologyConfig {
        seed: 21,
        density_scale: 1.5,
        rtn_scale: 30.0,
        ..MethodologyConfig::default()
    };
    let report = run_coupled(&BitPattern::paper_fig8(), &config).expect("coupled run completes");
    let got = [
        hash_points(report.q.points()),
        hash_points(report.qb.points()),
        fnv1a(report.n_filled.iter().map(|n| hash_points(n.steps()))),
    ];
    assert!(
        report.n_filled.iter().any(|n| n.max_value() > 0.0),
        "the traps must fill"
    );
    assert_pinned(
        &got,
        &[0x603b0d99a9abb9fb, 0x45bffaa965c1da73, 0xe52e63ccffd4450d],
    );
}
