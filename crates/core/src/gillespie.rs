//! Gillespie-style baselines for the uniformisation algorithm.
//!
//! Three reference generators, in decreasing order of fidelity:
//!
//! * [`stationary_ssa`] — the classic Gillespie stochastic simulation
//!   algorithm \[9\] under a *constant* bias. Exact in that setting; it
//!   is the ground truth the uniformisation kernel is benchmarked
//!   against for throughput, and a cross-check for stationary
//!   statistics.
//! * [`frozen_rate_ssa`] — the naive extension to time-varying bias
//!   that freezes the propensity at the moment each waiting time is
//!   drawn. It is *biased* whenever the bias moves within a dwell —
//!   exactly the failure mode uniformisation exists to avoid
//!   (experiment X2 quantifies it).
//! * [`bernoulli_timestep`] — a fixed-`Δt` discretisation that flips a
//!   Bernoulli coin of probability `λ·Δt` each step. Converges only as
//!   `Δt → 0`; the ablation bench shows its cost/accuracy tradeoff.

use rand::Rng;

use crate::{exp_rand, CoreError};
use samurai_trap::{PropensityModel, TrapState};
use samurai_waveform::{Pwc, Pwl};

fn leave_rate(model: &PropensityModel, state: TrapState, v_gs: f64) -> f64 {
    let (lc, le) = model.propensities(v_gs);
    match state {
        TrapState::Filled => le,
        TrapState::Empty => lc,
    }
}

/// Exact Gillespie SSA for a trap under a *constant* gate bias.
///
/// # Errors
///
/// Returns [`CoreError::EmptyHorizon`] if `tf <= t0`, and
/// [`CoreError::NonFinitePropensity`] if the propensities are not
/// finite at `v_gs`.
pub fn stationary_ssa<R: Rng + ?Sized>(
    model: &PropensityModel,
    v_gs: f64,
    t0: f64,
    tf: f64,
    rng: &mut R,
) -> Result<Pwc, CoreError> {
    if !(tf > t0) {
        return Err(CoreError::EmptyHorizon { t0, tf });
    }
    let (lc, le) = model.propensities(v_gs);
    if !lc.is_finite() || !le.is_finite() {
        return Err(CoreError::NonFinitePropensity { time: t0 });
    }
    let mut state = model.trap().initial_state;
    let mut t = t0;
    let mut steps = vec![(t0, state.occupancy())];
    loop {
        let rate = match state {
            TrapState::Filled => le,
            TrapState::Empty => lc,
        };
        if rate <= 0.0 {
            break; // absorbed: the other state is unreachable
        }
        t += exp_rand(rng, 1.0 / rate);
        if t > tf {
            break;
        }
        state = state.toggled();
        steps.push((t, state.occupancy()));
    }
    Ok(Pwc::new(steps)?)
}

/// Naive non-stationary SSA: the propensity is evaluated at the moment
/// each waiting time is drawn and *frozen* for the whole dwell.
///
/// Provided as the "obvious but wrong" baseline: under fast bias swings
/// it systematically mis-times transitions (experiment X2).
///
/// # Errors
///
/// As [`stationary_ssa`].
pub fn frozen_rate_ssa<R: Rng + ?Sized>(
    model: &PropensityModel,
    v_gs: &Pwl,
    t0: f64,
    tf: f64,
    rng: &mut R,
) -> Result<Pwc, CoreError> {
    if !(tf > t0) {
        return Err(CoreError::EmptyHorizon { t0, tf });
    }
    let mut state = model.trap().initial_state;
    let mut t = t0;
    let mut steps = vec![(t0, state.occupancy())];
    loop {
        let rate = leave_rate(model, state, v_gs.eval(t));
        if !rate.is_finite() {
            return Err(CoreError::NonFinitePropensity { time: t });
        }
        if rate <= 0.0 {
            break;
        }
        t += exp_rand(rng, 1.0 / rate);
        if t > tf {
            break;
        }
        state = state.toggled();
        steps.push((t, state.occupancy()));
    }
    Ok(Pwc::new(steps)?)
}

/// Fixed-time-step Bernoulli discretisation: at each step of length
/// `dt` the trap leaves its state with probability `λ_next(t)·dt`.
///
/// # Errors
///
/// Returns [`CoreError::EmptyHorizon`] if `tf <= t0`.
///
/// # Panics
///
/// Panics if `dt` is not positive, or if `λΣ·dt > 1` (the
/// discretisation would not be a probability).
pub fn bernoulli_timestep<R: Rng + ?Sized>(
    model: &PropensityModel,
    v_gs: &Pwl,
    t0: f64,
    tf: f64,
    dt: f64,
    rng: &mut R,
) -> Result<Pwc, CoreError> {
    if !(tf > t0) {
        return Err(CoreError::EmptyHorizon { t0, tf });
    }
    assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
    assert!(
        model.rate_sum() * dt <= 1.0,
        "lambda*dt = {} > 1: the Bernoulli step is not a probability",
        model.rate_sum() * dt
    );
    let mut state = model.trap().initial_state;
    let mut steps = vec![(t0, state.occupancy())];
    let n = ((tf - t0) / dt).ceil() as usize;
    for i in 0..n {
        let t = t0 + i as f64 * dt;
        let rate = leave_rate(model, state, v_gs.eval(t));
        let flip: f64 = rng.gen();
        if flip < rate * dt {
            state = state.toggled();
            let t_event = t + dt;
            if t_event <= tf {
                steps.push((t_event, state.occupancy()));
            }
        }
    }
    Ok(Pwc::new(steps)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_trap, SeedStream};
    use samurai_trap::{DeviceParams, TrapParams};
    use samurai_units::{Energy, Length};

    fn slow_model() -> PropensityModel {
        PropensityModel::new(
            DeviceParams::nominal_90nm(),
            TrapParams::new(Length::from_nanometres(1.8), Energy::from_ev(0.4)),
        )
    }

    #[test]
    fn ssa_and_uniformisation_agree_under_constant_bias() {
        let m = slow_model();
        let v = m.balanced_bias();
        let tf = 3000.0 / m.rate_sum();
        let p = m.stationary_occupancy(v);

        let ssa = stationary_ssa(&m, v, 0.0, tf, &mut SeedStream::new(1).rng(0)).unwrap();
        let unif = simulate_trap(
            &m,
            &Pwl::constant(v),
            0.0,
            tf,
            &mut SeedStream::new(2).rng(0),
        )
        .unwrap();

        let f_ssa = ssa.fraction_at(0.0, tf, 1.0, 0.0);
        let f_unif = unif.fraction_at(0.0, tf, 1.0, 0.0);
        assert!((f_ssa - p).abs() < 0.05, "SSA fraction {f_ssa} vs p {p}");
        assert!(
            (f_ssa - f_unif).abs() < 0.07,
            "SSA {f_ssa} vs uniformisation {f_unif}"
        );
    }

    #[test]
    fn frozen_rate_ssa_reduces_to_ssa_for_constant_bias() {
        let m = slow_model();
        let v = m.balanced_bias();
        let tf = 500.0 / m.rate_sum();
        let a = stationary_ssa(&m, v, 0.0, tf, &mut SeedStream::new(7).rng(0)).unwrap();
        let b = frozen_rate_ssa(
            &m,
            &Pwl::constant(v),
            0.0,
            tf,
            &mut SeedStream::new(7).rng(0),
        )
        .unwrap();
        // Identical RNG stream + identical rates = identical trajectory.
        assert_eq!(a, b);
    }

    #[test]
    fn frozen_rate_ssa_is_biased_through_a_step() {
        // A trap sitting in a state the new bias wants to flip will, in
        // the frozen-rate scheme, keep waiting on its pre-step (slow)
        // clock: the flip after the step is systematically late. Measure
        // the mean occupancy shortly after a step that turns capture on.
        let m = slow_model();
        let lam = m.rate_sum();
        let v_emptying = m.balanced_bias() - 0.4; // trap strongly empty
        let v_filling = m.balanced_bias() + 0.4; // trap strongly filled
        let t_step = 5.0 / lam;
        let probe = t_step + 0.5 / lam;
        let bias = Pwl::step(v_emptying, v_filling, t_step, 0.001 / lam).unwrap();
        let tf = t_step + 3.0 / lam;

        let runs = 4000;
        let mut sum_frozen = 0.0;
        let mut sum_unif = 0.0;
        for r in 0..runs {
            let f = frozen_rate_ssa(&m, &bias, 0.0, tf, &mut SeedStream::new(100).rng(r)).unwrap();
            let u = simulate_trap(&m, &bias, 0.0, tf, &mut SeedStream::new(200).rng(r)).unwrap();
            sum_frozen += f.eval(probe);
            sum_unif += u.eval(probe);
        }
        let mean_frozen = sum_frozen / runs as f64;
        let mean_unif = sum_unif / runs as f64;
        let exact = samurai_trap::master::integrate_occupancy(
            &m,
            &bias,
            m.trap().initial_state,
            0.0,
            probe / 400.0,
            401,
            4,
        )
        .value_at(probe);

        assert!(
            (mean_unif - exact).abs() < 0.04,
            "uniformisation {mean_unif} vs exact {exact}"
        );
        assert!(
            (mean_frozen - exact).abs() > 2.0 * (mean_unif - exact).abs() + 0.02,
            "frozen-rate SSA should be visibly biased: frozen {mean_frozen}, exact {exact}, unif {mean_unif}"
        );
    }

    #[test]
    fn bernoulli_converges_with_small_steps() {
        let m = slow_model();
        let v = m.balanced_bias();
        let p = m.stationary_occupancy(v);
        let tf = 2000.0 / m.rate_sum();
        let dt = 0.02 / m.rate_sum();
        let occ = bernoulli_timestep(
            &m,
            &Pwl::constant(v),
            0.0,
            tf,
            dt,
            &mut SeedStream::new(8).rng(0),
        )
        .unwrap();
        let frac = occ.fraction_at(0.0, tf, 1.0, 0.0);
        assert!((frac - p).abs() < 0.06, "fraction {frac} vs p {p}");
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn bernoulli_rejects_coarse_steps() {
        let m = slow_model();
        let _ = bernoulli_timestep(
            &m,
            &Pwl::constant(0.5),
            0.0,
            1.0,
            10.0 / m.rate_sum(),
            &mut SeedStream::new(1).rng(0),
        );
    }

    #[test]
    fn empty_horizons_are_rejected_everywhere() {
        let m = slow_model();
        let mut rng = SeedStream::new(0).rng(0);
        assert!(stationary_ssa(&m, 0.5, 1.0, 0.5, &mut rng).is_err());
        assert!(frozen_rate_ssa(&m, &Pwl::constant(0.5), 1.0, 0.5, &mut rng).is_err());
        assert!(bernoulli_timestep(&m, &Pwl::constant(0.5), 1.0, 0.5, 1e-3, &mut rng).is_err());
    }
}
