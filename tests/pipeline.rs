//! End-to-end integration tests of the full SAMURAI pipeline:
//! trap profiling → uniformisation → Eq (3) currents → SPICE →
//! write-outcome classification.

use samurai::sram::array::{run_array, ArrayConfig};
use samurai::sram::coupled::run_coupled;
use samurai::sram::read::run_read_disturb;
use samurai::sram::{run_methodology, MethodologyConfig, Transistor};
use samurai::waveform::BitPattern;

#[test]
fn paper_pattern_full_pipeline_is_clean_at_unit_scale() {
    let config = MethodologyConfig {
        seed: 12,
        density_scale: 2.0,
        rtn_scale: 1.0,
        ..MethodologyConfig::default()
    };
    let report = run_methodology(&BitPattern::paper_fig8(), &config).expect("pipeline runs");
    assert!(
        report.outcomes_clean.all_clean(),
        "clean pass must write the pattern"
    );
    assert!(
        report.outcomes.all_clean(),
        "unit-scale RTN must not break a healthy cell"
    );
    assert!(report.total_events() > 0, "trap activity must be present");
}

#[test]
fn accelerated_rtn_reproduces_the_fig8_write_error() {
    let config = MethodologyConfig {
        seed: 12,
        density_scale: 2.0,
        rtn_scale: 3000.0,
        ..MethodologyConfig::default()
    };
    let report = run_methodology(&BitPattern::paper_fig8(), &config).expect("pipeline runs");
    assert!(report.outcomes_clean.all_clean());
    assert!(
        report.rtn_induced_error(),
        "accelerated RTN must produce a write error: {:?}",
        report.outcomes.outcomes
    );
}

#[test]
fn m5_m6_trap_activity_is_anticorrelated_as_in_fig8() {
    let config = MethodologyConfig {
        seed: 12,
        density_scale: 2.0,
        ..MethodologyConfig::default()
    };
    let pattern = BitPattern::parse("11110000").expect("valid pattern");
    let report = run_methodology(&pattern, &config).expect("pipeline runs");
    let timing = config.timing;
    let m5 = &report.rtn[Transistor::M5.index()].n_filled;
    let m6 = &report.rtn[Transistor::M6.index()].n_filled;
    // Compare the halves where Q is held 1 vs held 0.
    let q1 = (0.5 * timing.period, 3.9 * timing.period);
    let q0 = (4.5 * timing.period, 7.9 * timing.period);
    assert!(
        m5.mean(q1.0, q1.1) >= m5.mean(q0.0, q0.1),
        "M5 (gate=Q) should be more filled while Q=1"
    );
    assert!(
        m6.mean(q0.0, q0.1) >= m6.mean(q1.0, q1.1),
        "M6 (gate=Q-bar) should be more filled while Q=0"
    );
}

#[test]
fn coupled_and_two_pass_agree_on_outcomes_at_unit_scale() {
    let base = MethodologyConfig {
        seed: 21,
        density_scale: 1.5,
        ..MethodologyConfig::default()
    };
    let pattern = BitPattern::parse("1011").expect("valid pattern");
    let two_pass = run_methodology(&pattern, &base).expect("two-pass runs");
    let coupled = run_coupled(&pattern, &base).expect("coupled runs");
    assert_eq!(two_pass.outcomes.outcomes, coupled.outcomes.outcomes);
}

#[test]
fn read_disturb_holds_both_values_at_unit_scale() {
    for bit in [false, true] {
        let config = MethodologyConfig {
            seed: 4,
            ..MethodologyConfig::default()
        };
        let report = run_read_disturb(bit, 2, &config).expect("read-disturb runs");
        assert!(!report.disturbed, "bit {bit} lost during reads");
    }
}

#[test]
fn array_sweep_is_deterministic_and_healthy_unaccelerated() {
    let config = ArrayConfig {
        cells: 3,
        seed: 5,
        ..ArrayConfig::default()
    };
    let pattern = BitPattern::parse("10").expect("valid pattern");
    let a = run_array(&pattern, &config).expect("array runs");
    let b = run_array(&pattern, &config).expect("array runs");
    assert_eq!(a.cells, b.cells);
    assert_eq!(a.total_errors(), 0);
}
