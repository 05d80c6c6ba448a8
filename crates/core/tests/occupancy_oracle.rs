//! An independent oracle for Algorithm 1 under random non-stationary
//! bias: the ensemble occupancy of `simulate_trap_probed` against the
//! exact master equation of the two-state chain
//! (`trap::master::integrate_occupancy`), which never touches the
//! thinning code.
//!
//! Each case is one trap, with a depth spanning four decades of `1/λΣ`,
//! under a seeded random piecewise-linear gate bias swinging through the
//! trap's balanced bias. At each of a case's sample times the count of
//! filled runs is binomial with the master equation's `p(t)`, so an
//! exact two-sided binomial test judges it, at a family-wise level
//! split over every sample time of every case (Bonferroni). Everything
//! is seeded, so a failure reproduces.
//!
//! The property has power: on a fast ramp it rejects the frozen-rate
//! SSA, which draws each dwell at the rate of the bias where the dwell
//! starts.

#[path = "support/binomial.rs"]
mod binomial;

use binomial::{binomial_p_value, ln_factorials};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use samurai_core::gillespie::frozen_rate_ssa;
use samurai_core::telemetry::JobProbe;
use samurai_core::{simulate_trap_probed, CoreError, SeedStream, UniformisationConfig};
use samurai_trap::master::integrate_occupancy;
use samurai_trap::{DeviceParams, PropensityModel, TrapParams, TrapState};
use samurai_units::{Energy, Length};
use samurai_waveform::{Pwc, Pwl};

/// Runs per case.
const RUNS: usize = 4000;
/// Sample times per case, evenly spaced after `t = 0`.
const SAMPLES: usize = 12;
/// Master-equation substeps per sample interval: each relaxes exactly
/// towards `p∞` at the substep's midpoint bias.
const SUBSTEPS: usize = 400;
/// Family-wise false-rejection level across every test of a property.
const FAMILY_ALPHA: f64 = 1e-4;

/// A trap generator: `(model, bias, t0, tf, rng)` → occupancy.
type Generator = fn(&PropensityModel, &Pwl, f64, f64, &mut ChaCha8Rng) -> Result<Pwc, CoreError>;

fn algorithm_1(
    model: &PropensityModel,
    bias: &Pwl,
    t0: f64,
    tf: f64,
    rng: &mut ChaCha8Rng,
) -> Result<Pwc, CoreError> {
    let config = UniformisationConfig::default();
    simulate_trap_probed(model, bias, t0, tf, rng, &config, &mut JobProbe::disabled())
}

/// One trap under one bias over `[0, horizon]`.
struct Case {
    label: String,
    model: PropensityModel,
    bias: Pwl,
    horizon: f64,
}

fn model(depth_nm: f64, energy_ev: f64, initial: TrapState) -> PropensityModel {
    let trap = TrapParams::new(
        Length::from_nanometres(depth_nm),
        Energy::from_ev(energy_ev),
    );
    PropensityModel::new(
        DeviceParams::nominal_90nm(),
        trap.with_initial_state(initial),
    )
}

/// Traps 1.0–2.0 nm deep (`1/λΣ` from about 2 µs to 50 ms), two random
/// biases each: 7–12 breakpoints at random times over six relaxation
/// times, levels within ±0.3 V of the trap's balanced bias.
fn random_cases() -> Vec<Case> {
    let draws = SeedStream::new(0x0cc0_5eed);
    let mut cases = Vec::new();
    for (i, depth) in [1.0, 1.25, 1.5, 1.75, 2.0].into_iter().enumerate() {
        for b in 0..2u64 {
            let index = 2 * i as u64 + b;
            let mut rng = draws.rng(index);
            let energy = rng.gen_range(0.2..0.6);
            let initial = match rng.gen_bool(0.5) {
                true => TrapState::Filled,
                false => TrapState::Empty,
            };
            let model = model(depth, energy, initial);
            let horizon = 6.0 / model.rate_sum();
            let centre = model.balanced_bias();
            let mut times: Vec<f64> = (0..rng.gen_range(5..11usize))
                .map(|_| rng.gen_range(0.0..1.0) * horizon)
                .collect();
            times.sort_by(f64::total_cmp);
            times.dedup();
            let points = [0.0]
                .into_iter()
                .chain(times)
                .chain([horizon])
                .map(|t| (t, centre + rng.gen_range(-0.3..0.3)))
                .collect();
            cases.push(Case {
                label: format!("{depth} nm, {energy:.3} eV, {initial:?}, bias {b}"),
                model,
                bias: Pwl::new(points).expect("strictly increasing times"),
                horizon,
            });
        }
    }
    cases
}

/// A trap that starts empty at a bias where it barely captures, then a
/// ramp to one where it fills within a relaxation time, over a
/// twentieth of one.
fn fast_ramp() -> Case {
    let model = model(1.5, 0.4, TrapState::Empty);
    let tau = 1.0 / model.rate_sum();
    let centre = model.balanced_bias();
    let bias = Pwl::step(centre - 0.3, centre + 0.3, tau, 0.05 * tau).expect("a valid step");
    Case {
        label: "fast ramp".into(),
        model,
        bias,
        horizon: 4.0 * tau,
    }
}

/// Runs `generate` over every case and tests each sample time's filled
/// count against the master equation; returns the rejections.
fn rejections(cases: &[Case], generate: Generator, seed: u64) -> Vec<String> {
    let alpha = FAMILY_ALPHA / (cases.len() * SAMPLES) as f64;
    let ln_fact = ln_factorials(RUNS);
    let mut out = Vec::new();
    for (c, case) in cases.iter().enumerate() {
        let dt = case.horizon / SAMPLES as f64;
        let initial = case.model.trap().initial_state;
        let exact = integrate_occupancy(
            &case.model,
            &case.bias,
            initial,
            0.0,
            dt,
            SAMPLES + 1,
            SUBSTEPS,
        );
        let seeds = SeedStream::new(seed ^ ((c as u64) << 32));
        let mut filled = [0usize; SAMPLES];
        for run in 0..RUNS {
            let mut rng = seeds.rng(run as u64);
            let occupancy = generate(&case.model, &case.bias, 0.0, case.horizon, &mut rng)
                .expect("horizon within the event budget");
            for (i, count) in filled.iter_mut().enumerate() {
                if occupancy.eval((i + 1) as f64 * dt) == 1.0 {
                    *count += 1;
                }
            }
        }
        for (i, &k) in filled.iter().enumerate() {
            let p = exact.values()[i + 1];
            let p_value = binomial_p_value(k, RUNS, p, &ln_fact);
            if p_value < alpha {
                out.push(format!(
                    "{}: t = {}·horizon/{SAMPLES}: {k} of {RUNS} filled, master equation {p:.4}, \
                     p-value {p_value:.2e} < {alpha:.1e}",
                    case.label,
                    i + 1
                ));
            }
        }
    }
    out
}

#[test]
fn algorithm_1_follows_the_master_equation_under_random_bias() {
    let mut cases = random_cases();
    cases.push(fast_ramp());
    let rejected = rejections(&cases, algorithm_1, 11);
    assert!(rejected.is_empty(), "{}", rejected.join("\n"));
}

#[test]
fn the_oracle_rejects_frozen_rates_on_a_fast_ramp() {
    let cases = [fast_ramp()];
    assert!(rejections(&cases, algorithm_1, 12).is_empty());
    let rejected = rejections(&cases, frozen_rate_ssa, 12);
    assert!(
        rejected.len() >= SAMPLES / 2,
        "frozen rates passed at {} of {SAMPLES} sample times",
        SAMPLES - rejected.len()
    );
}

#[test]
fn the_binomial_test_has_its_stated_size() {
    let ln_fact = ln_factorials(20);
    // Fair coin, 20 flips: P(X ≤ 5) = 21 700 / 2^20.
    let want = 2.0 * 21_700.0 / 1_048_576.0;
    assert!((binomial_p_value(5, 20, 0.5, &ln_fact) - want).abs() < 1e-12);
    assert_eq!(binomial_p_value(10, 20, 0.5, &ln_fact), 1.0);
    // A certain outcome is never rejected; an impossible one always is.
    assert_eq!(binomial_p_value(20, 20, 1.0, &ln_fact), 1.0);
    assert_eq!(binomial_p_value(0, 20, 0.0, &ln_fact), 1.0);
    assert!(binomial_p_value(3, 20, 0.0, &ln_fact) < 1e-300);
}
