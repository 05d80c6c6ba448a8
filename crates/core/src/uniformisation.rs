//! Algorithm 1 — non-stationary RTN generation by Markov
//! uniformisation.
//!
//! A trap's two-state Markov chain is time-inhomogeneous because its
//! capture/emission propensities follow the gate bias. Uniformisation
//! simulates it *exactly*: candidate events are generated from a
//! stationary chain at the constant rate `λ* = λc + λe` (constant by
//! Eq 1 — the paper evaluates it once at `t₀`, line 3), and each
//! candidate at time `t` is *kept* with probability `λ_next(t)/λ*`,
//! where `λ_next` is the propensity of leaving the current state. The
//! thinned process is distributed exactly as the original chain
//! (Heidelberger & Nicol \[11\], van Dijk \[12\], Shanthikumar \[13\]).
//!
//! Lines 10–14 evaluate `λ(t)` at every candidate, which made the
//! propensity model the kernel's cost. Two exact reuses remove most of
//! it (DESIGN §20): [`PropensityModel`] computes its bias-independent
//! terms once at construction, and the candidate loop keeps a one-entry
//! memo of `(λc, λe)` keyed on the bits of the bias, so a constant bias
//! costs one propensity evaluation per trajectory. The RNG draw order
//! and every output bit are those of the textbook loop.
//!
//! [`simulate_trap`] runs Algorithm 1 for one trap with the default
//! event budget and [`simulate_trap_probed`] with an explicit budget and
//! a telemetry probe. [`ClosedLoopTrap`] runs it with the bias read as
//! time advances, for a circuit in the loop; both judge every candidate
//! through one step function (lines 10–22).
//! [`ensemble_occupancy_observed`] averages many runs of one trap for
//! validation. The per-device `foreach` over traps, with Eq (3) on top,
//! is [`RtnGenerator`](crate::RtnGenerator).

use rand::Rng;

use crate::ensemble::{run_ensemble_resilient_observed, ExecutionPolicy, MeanTrace, Parallelism};
use crate::{exp_rand, CoreError, SeedStream};
use samurai_telemetry::{JobProbe, Recorder, TrapStats};
use samurai_trap::{PropensityModel, TrapState};
use samurai_waveform::{Pwc, Pwl, Trace};

/// Tuning knobs for the uniformisation simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformisationConfig {
    /// Hard cap on candidate events per trap, guarding against
    /// accidentally simulating seconds of an interface trap running at
    /// `λ* ≈ 1e10 s⁻¹`.
    pub max_candidate_events: usize,
}

impl Default for UniformisationConfig {
    fn default() -> Self {
        Self {
            max_candidate_events: 100_000_000,
        }
    }
}

/// Simulates one trap over `[t0, tf]` under the time-varying gate bias
/// `v_gs`, returning its occupancy staircase (values `0.0`/`1.0`).
///
/// This is a line-by-line implementation of the paper's Algorithm 1
/// with the default event budget; [`simulate_trap_probed`] takes an
/// explicit budget and a telemetry probe.
///
/// # Errors
///
/// Returns [`CoreError::EmptyHorizon`] if `tf <= t0` and
/// [`CoreError::EventBudgetExceeded`] if the trap is too fast for the
/// horizon (see [`UniformisationConfig`]).
pub fn simulate_trap<R: Rng + ?Sized>(
    model: &PropensityModel,
    v_gs: &Pwl,
    t0: f64,
    tf: f64,
    rng: &mut R,
) -> Result<Pwc, CoreError> {
    simulate_trap_probed(
        model,
        v_gs,
        t0,
        tf,
        rng,
        &UniformisationConfig::default(),
        &mut JobProbe::disabled(),
    )
}

/// [`simulate_trap`] with an explicit configuration, additionally
/// reporting candidate/accepted event counts into a telemetry
/// [`JobProbe`].
///
/// The probe is consulted strictly *outside* the candidate loop: the
/// accepted count is recovered from the staircase length and the
/// candidate count is already maintained for the event-budget guard, so
/// the hot loop is byte-for-byte the unobserved one.
///
/// # Errors
///
/// As [`simulate_trap`].
pub fn simulate_trap_probed<R: Rng + ?Sized>(
    model: &PropensityModel,
    v_gs: &Pwl,
    t0: f64,
    tf: f64,
    rng: &mut R,
    config: &UniformisationConfig,
    probe: &mut JobProbe,
) -> Result<Pwc, CoreError> {
    if !(tf > t0) {
        return Err(CoreError::EmptyHorizon { t0, tf });
    }
    let mut trap = ClosedLoopTrap::start(model, v_gs.eval(t0), t0)?;
    let mean_wait = 1.0 / trap.lambda_star;
    let mut curr_time = t0;
    let mut candidates = 0usize;

    // Line 6: generate candidates until the horizon is passed.
    // lint: hot-loop
    // One iteration per uniformised candidate event — the inner loop of
    // Algorithm 1. The only permitted growth is the accepted-event
    // staircase itself.
    loop {
        // Lines 7–9: next candidate from the uniformised (stationary,
        // rate λ*) chain.
        curr_time += exp_rand(rng, mean_wait);
        if curr_time > tf {
            break;
        }
        candidates += 1;
        if candidates > config.max_candidate_events {
            return Err(CoreError::EventBudgetExceeded {
                budget: config.max_candidate_events,
                rate: trap.lambda_star,
            });
        }

        // Lines 10–22.
        let keep: f64 = rng.gen();
        if trap.thin(curr_time, v_gs.eval(curr_time), keep)? {
            // lint: allow(HOT003): the staircase IS the output; amortised O(1)
            trap.steps.push((curr_time, trap.state.occupancy()));
        }
    }
    // lint: end-hot-loop

    // The staircase starts with the initial state, so accepted events
    // are everything after it.
    probe.record_trap(TrapStats {
        candidates: candidates as u64,
        accepted: (trap.steps.len() - 1) as u64,
    });
    trap.into_occupancy()
}

/// Algorithm 1 for one trap whose gate bias is read as time advances,
/// in a closed loop with the circuit that sets it. Eq (1) makes `λ*`
/// bias-free, so [`new`](Self::new) draws the candidate stream up front
/// in Algorithm 1's draw order — from the same RNG, the stream of
/// [`simulate_trap_probed`], which streams its candidates through the
/// same chain — and [`thin_until`](Self::thin_until) judges it through
/// the same step function.
#[derive(Debug, Clone)]
pub struct ClosedLoopTrap {
    model: PropensityModel,
    lambda_star: f64,
    /// A one-entry `(λc, λe)` memo keyed on the bias bits (exact:
    /// DESIGN §20).
    memo_bits: u64,
    memo: (f64, f64),
    state: TrapState,
    /// The occupancy staircase so far.
    steps: Vec<(f64, f64)>,
    /// Each drawn candidate's time and keep uniform; `next` is the
    /// first not yet judged.
    candidates: Vec<(f64, f64)>,
    next: usize,
}

impl ClosedLoopTrap {
    /// Lines 3–5 at the gate bias `v0` of time `t0`, with no candidate
    /// drawn. By Eq (1) `λ* = λc(t0) + λe(t0)` is the constant rate
    /// sum, valid for all t (`thin` debug-asserts it).
    fn start(model: &PropensityModel, v0: f64, t0: f64) -> Result<Self, CoreError> {
        let (lc0, le0) = model.propensities(v0);
        let lambda_star = lc0 + le0;
        if !lambda_star.is_finite() || lambda_star <= 0.0 {
            return Err(CoreError::NonFinitePropensity { time: t0 });
        }
        let state = model.trap().initial_state;
        Ok(Self {
            model: *model,
            lambda_star,
            memo_bits: v0.to_bits(),
            memo: (lc0, le0),
            state,
            steps: vec![(t0, state.occupancy())],
            candidates: Vec::new(),
            next: 0,
        })
    }

    /// Lines 10–22, the step function of both samplers: keeps the
    /// candidate at `time` (toggling the state) when `keep < λ_next/λ*`
    /// at gate bias `v`; returns whether it did.
    #[inline]
    fn thin(&mut self, time: f64, v: f64, keep: f64) -> Result<bool, CoreError> {
        // Lines 10–14: the propensity of leaving the current state.
        if v.to_bits() != self.memo_bits {
            self.memo_bits = v.to_bits();
            self.memo = self.model.propensities(v);
        }
        let (lc, le) = self.memo;
        let lambda_next = match self.state {
            TrapState::Filled => le,
            TrapState::Empty => lc,
        };
        if !lambda_next.is_finite() {
            return Err(CoreError::NonFinitePropensity { time });
        }
        debug_assert!(
            lambda_next <= self.lambda_star * (1.0 + 1e-9),
            "uniformisation bound violated: lambda_next = {lambda_next} > lambda* = {}",
            self.lambda_star
        );

        // Lines 15–22: keep the candidate with probability λ_next/λ*.
        let accept_p = lambda_next / self.lambda_star;
        debug_assert!(
            (0.0..=1.0 + 1e-9).contains(&accept_p),
            "acceptance probability left [0, 1]: {accept_p} at t = {time}"
        );
        let kept = keep < accept_p;
        if kept {
            self.state = self.state.toggled();
        }
        Ok(kept)
    }

    /// Line 3 at the gate bias `v0` of time `t0`, and the candidate
    /// stream over `(t0, tf]` from `rng`.
    ///
    /// # Errors
    ///
    /// As [`simulate_trap_probed`].
    pub fn new<R: Rng + ?Sized>(
        model: &PropensityModel,
        v0: f64,
        t0: f64,
        tf: f64,
        rng: &mut R,
        config: &UniformisationConfig,
    ) -> Result<Self, CoreError> {
        if !(tf > t0) {
            return Err(CoreError::EmptyHorizon { t0, tf });
        }
        let mut trap = Self::start(model, v0, t0)?;
        let mean_wait = 1.0 / trap.lambda_star;
        let mut time = t0 + exp_rand(rng, mean_wait);
        while time <= tf {
            if trap.candidates.len() == config.max_candidate_events {
                return Err(CoreError::EventBudgetExceeded {
                    budget: config.max_candidate_events,
                    rate: trap.lambda_star,
                });
            }
            trap.candidates.push((time, rng.gen::<f64>()));
            time += exp_rand(rng, mean_wait);
        }
        Ok(trap)
    }

    /// Every candidate time, in order.
    pub fn candidate_times(&self) -> impl Iterator<Item = f64> + '_ {
        self.candidates.iter().map(|&(t, _)| t)
    }

    /// Judges every remaining candidate at or before `t` at the gate
    /// bias `v`.
    ///
    /// # Errors
    ///
    /// As [`simulate_trap_probed`].
    pub fn thin_until(&mut self, t: f64, v: f64) -> Result<(), CoreError> {
        while let Some(&(time, keep)) = self.candidates.get(self.next).filter(|c| c.0 <= t) {
            self.next += 1;
            if self.thin(time, v, keep)? {
                self.steps.push((time, self.state.occupancy()));
            }
        }
        Ok(())
    }

    /// The chain's current state.
    pub fn state(&self) -> TrapState {
        self.state
    }

    /// The occupancy staircase (values `0.0`/`1.0`) so far.
    ///
    /// # Errors
    ///
    /// As [`simulate_trap_probed`].
    pub fn into_occupancy(self) -> Result<Pwc, CoreError> {
        Ok(Pwc::new(self.steps)?)
    }
}

/// Ensemble-averaged occupancy of one trap over `runs` independent
/// simulations, sampled on a uniform grid — the stochastic estimate
/// whose exact counterpart is `samurai_trap::master::integrate_occupancy`.
///
/// Run `r` draws its trajectory from `seeds.rng(r)`, so the trace is
/// bit-identical at every worker count, recording into `recorder` or
/// not.
///
/// # Errors
///
/// Propagates simulation errors from [`simulate_trap`].
#[allow(clippy::too_many_arguments)]
pub fn ensemble_occupancy_observed(
    model: &PropensityModel,
    v_gs: &Pwl,
    t0: f64,
    dt: f64,
    n: usize,
    runs: usize,
    seeds: &SeedStream,
    parallelism: Parallelism,
    recorder: &mut Recorder,
) -> Result<Trace, CoreError> {
    assert!(runs > 0, "need at least one run");
    let tf = t0 + dt * n as f64;
    let outcome = run_ensemble_resilient_observed(
        runs,
        parallelism,
        &ExecutionPolicy::default(),
        recorder,
        || MeanTrace::zeros(n),
        |run, _rung, probe: &mut JobProbe| {
            let mut rng = seeds.rng(run as u64);
            let occ = simulate_trap_probed(
                model,
                v_gs,
                t0,
                tf,
                &mut rng,
                &UniformisationConfig::default(),
                probe,
            )?;
            Ok::<_, CoreError>((0..n).map(|i| occ.eval(t0 + i as f64 * dt)).collect())
        },
    )?;
    Ok(Trace::new(t0, dt, outcome.acc.mean())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use samurai_trap::master;
    use samurai_trap::{DeviceParams, TrapParams};
    use samurai_units::{Energy, Length};

    use proptest::prelude::*;

    /// A slow trap (λΣ ≈ 152 /s) whose dwells we can afford to observe
    /// many times over.
    fn slow_model(energy_ev: f64) -> PropensityModel {
        PropensityModel::new(
            DeviceParams::nominal_90nm(),
            TrapParams::new(Length::from_nanometres(1.8), Energy::from_ev(energy_ev)),
        )
    }

    /// Algorithm 1 without the bias memo: `propensities` at every
    /// candidate, in the kernel's RNG draw order. Returns the staircase
    /// steps and the candidate count.
    fn simulate_unmemoised<R: Rng + ?Sized>(
        model: &PropensityModel,
        v_gs: &Pwl,
        t0: f64,
        tf: f64,
        rng: &mut R,
    ) -> (Vec<(f64, f64)>, u64) {
        let (lc0, le0) = model.propensities(v_gs.eval(t0));
        let lambda_star = lc0 + le0;
        let mean_wait = 1.0 / lambda_star;
        let mut time = t0;
        let mut state = model.trap().initial_state;
        let mut steps = vec![(t0, state.occupancy())];
        let mut candidates = 0;
        loop {
            time += exp_rand(rng, mean_wait);
            if time > tf {
                break;
            }
            candidates += 1;
            let (lc, le) = model.propensities(v_gs.eval(time));
            let lambda_next = match state {
                TrapState::Filled => le,
                TrapState::Empty => lc,
            };
            let keep: f64 = rng.gen();
            if keep < lambda_next / lambda_star {
                state = state.toggled();
                steps.push((time, state.occupancy()));
            }
        }
        (steps, candidates)
    }

    /// A piecewise-linear bias around `m`'s balanced point over
    /// `lifetimes` relaxation times, one segment per move, each flat
    /// (memo hits) or a ramp by its move (misses); returns it with its
    /// horizon.
    fn random_bias(
        m: &PropensityModel,
        moves: &[f64],
        flats: &[bool],
        lifetimes: f64,
    ) -> (Pwl, f64) {
        let tf = lifetimes / m.rate_sum();
        let dt = tf / moves.len() as f64;
        let mut v = m.balanced_bias();
        let mut knots = vec![(0.0, v)];
        for (i, (&dv, &flat)) in moves.iter().zip(flats).enumerate() {
            if !flat {
                v += dv;
            }
            knots.push(((i + 1) as f64 * dt, v));
        }
        (Pwl::new(knots).unwrap(), tf)
    }

    fn bits(s: &[(f64, f64)]) -> Vec<(u64, u64)> {
        s.iter().map(|&(t, x)| (t.to_bits(), x.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn memoised_kernel_matches_the_unmemoised_loop_bit_for_bit(
            energy in 0.2f64..0.6,
            moves in collection::vec(-0.3f64..0.3, 1..9),
            flats in collection::vec(any::<bool>(), 9),
            lifetimes in 20.0f64..300.0,
            seed in any::<u64>(),
        ) {
            let m = slow_model(energy);
            let (bias, tf) = random_bias(&m, &moves, &flats, lifetimes);

            let mut probe = JobProbe::new(true);
            let memoised = simulate_trap_probed(
                &m,
                &bias,
                0.0,
                tf,
                &mut SeedStream::new(seed).rng(0),
                &UniformisationConfig::default(),
                &mut probe,
            )
            .unwrap();
            let (steps, candidates) =
                simulate_unmemoised(&m, &bias, 0.0, tf, &mut SeedStream::new(seed).rng(0));

            prop_assert!(
                bits(memoised.steps()) == bits(&steps),
                "staircases differ: {} memoised steps, {} unmemoised",
                memoised.steps().len(),
                steps.len()
            );
            prop_assert_eq!(probe.trap().candidates, candidates);
            prop_assert_eq!(probe.trap().accepted, (steps.len() - 1) as u64);
        }

        #[test]
        fn closed_loop_sampler_matches_the_open_loop_kernel_bit_for_bit(
            energy in 0.2f64..0.6,
            moves in collection::vec(-0.3f64..0.3, 1..9),
            flats in collection::vec(any::<bool>(), 9),
            lifetimes in 20.0f64..300.0,
            filled in any::<bool>(),
            seed in any::<u64>(),
        ) {
            // The closed loop reads the bias at each candidate from the
            // same known waveform the open-loop kernel evaluates.
            let state = if filled { TrapState::Filled } else { TrapState::Empty };
            let m = PropensityModel::new(
                DeviceParams::nominal_90nm(),
                slow_model(energy).trap().with_initial_state(state),
            );
            let (bias, tf) = random_bias(&m, &moves, &flats, lifetimes);
            let config = UniformisationConfig::default();

            let mut probe = JobProbe::new(true);
            let open = simulate_trap_probed(
                &m,
                &bias,
                0.0,
                tf,
                &mut SeedStream::new(seed).rng(0),
                &config,
                &mut probe,
            )
            .unwrap();
            let mut closed = ClosedLoopTrap::new(
                &m,
                bias.eval(0.0),
                0.0,
                tf,
                &mut SeedStream::new(seed).rng(0),
                &config,
            )
            .unwrap();
            let times: Vec<f64> = closed.candidate_times().collect();
            for &t in &times {
                closed.thin_until(t, bias.eval(t)).unwrap();
            }
            let closed = closed.into_occupancy().unwrap();

            prop_assert!(
                bits(open.steps()) == bits(closed.steps()),
                "staircases differ: {} open-loop steps, {} closed-loop",
                open.steps().len(),
                closed.steps().len()
            );
            prop_assert_eq!(probe.trap().candidates, times.len() as u64);
        }
    }

    #[test]
    fn constant_bias_occupancy_fraction_matches_stationary_probability() {
        let m = slow_model(0.4);
        let v = m.balanced_bias();
        let p = m.stationary_occupancy(v);
        assert!((p - 0.5).abs() < 1e-3);

        let tf = 3000.0 / m.rate_sum();
        let mut rng = SeedStream::new(11).rng(0);
        let occ = simulate_trap(&m, &Pwl::constant(v), 0.0, tf, &mut rng).unwrap();
        let frac = occ.fraction_at(0.0, tf, 1.0, 0.0);
        assert!(
            (frac - p).abs() < 0.05,
            "occupancy fraction {frac} vs p {p}"
        );
    }

    #[test]
    fn constant_bias_dwell_times_are_exponential_with_correct_means() {
        let m = slow_model(0.4);
        let v = m.balanced_bias();
        let (lc, le) = m.propensities(v);
        let tf = 4000.0 / m.rate_sum();
        let mut rng = SeedStream::new(23).rng(0);
        let occ = simulate_trap(&m, &Pwl::constant(v), 0.0, tf, &mut rng).unwrap();

        let dwells = occ.dwells();
        assert!(
            dwells.len() > 300,
            "need plenty of dwells, got {}",
            dwells.len()
        );
        let filled: Vec<f64> = dwells.iter().filter(|d| d.1 == 1.0).map(|d| d.0).collect();
        let empty: Vec<f64> = dwells.iter().filter(|d| d.1 == 0.0).map(|d| d.0).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

        // Mean filled dwell = 1/λe, mean empty dwell = 1/λc.
        let mf = mean(&filled);
        let me = mean(&empty);
        assert!(
            (mf * le - 1.0).abs() < 0.15,
            "filled dwell mean {mf}, 1/le {}",
            1.0 / le
        );
        assert!(
            (me * lc - 1.0).abs() < 0.15,
            "empty dwell mean {me}, 1/lc {}",
            1.0 / lc
        );
    }

    #[test]
    fn occupancy_values_are_binary_and_alternate() {
        let m = slow_model(0.3);
        let v = m.balanced_bias();
        let mut rng = SeedStream::new(3).rng(0);
        let occ =
            simulate_trap(&m, &Pwl::constant(v), 0.0, 500.0 / m.rate_sum(), &mut rng).unwrap();
        let steps = occ.steps();
        for w in steps.windows(2) {
            assert!(w[0].1 == 0.0 || w[0].1 == 1.0);
            assert_ne!(w[0].1, w[1].1, "kept events must toggle the state");
        }
    }

    #[test]
    fn ensemble_mean_tracks_the_master_equation_through_a_bias_step() {
        let m = slow_model(0.4);
        let lam = m.rate_sum();
        let v_lo = m.balanced_bias() - 0.15;
        let v_hi = m.balanced_bias() + 0.15;
        let t_step = 10.0 / lam;
        let bias = Pwl::step(v_lo, v_hi, t_step, 0.05 / lam).unwrap();

        let n = 60;
        let dt = 2.0 * t_step / n as f64;
        let runs = 3000;
        let seeds = SeedStream::new(77);
        let ensemble = ensemble_occupancy_observed(
            &m,
            &bias,
            0.0,
            dt,
            n,
            runs,
            &seeds,
            Parallelism::Auto,
            &mut Recorder::noop(),
        )
        .unwrap();
        let exact = master::integrate_occupancy(&m, &bias, m.trap().initial_state, 0.0, dt, n, 8);

        // Monte-Carlo error of a Bernoulli mean over 3000 runs ≈ 0.009;
        // allow 4 sigma.
        for ((_, est), (_, ex)) in ensemble.iter().zip(exact.iter()) {
            assert!(
                (est - ex).abs() < 0.04,
                "ensemble {est} vs master equation {ex}"
            );
        }
    }

    #[test]
    fn trap_activity_follows_the_gate_like_m5_in_fig8() {
        // Gate high -> trap mostly filled; gate low -> mostly empty.
        let m = slow_model(0.4);
        let lam = m.rate_sum();
        let v_mid = m.balanced_bias();
        let period = 400.0 / lam;
        let bias = Pwl::clock(
            v_mid - 0.3,
            v_mid + 0.3,
            0.0,
            period,
            0.5,
            period / 100.0,
            2,
        )
        .unwrap();
        let mut rng = SeedStream::new(5).rng(0);
        let occ = simulate_trap(&m, &bias, 0.0, 2.0 * period, &mut rng).unwrap();

        let high_frac = occ.fraction_at(0.0, period / 2.0, 1.0, 0.0);
        let low_frac = occ.fraction_at(period / 2.0, period, 1.0, 0.0);
        assert!(
            high_frac > 0.7 && low_frac < 0.3,
            "high-phase occupancy {high_frac}, low-phase {low_frac}"
        );
    }

    #[test]
    fn reproducible_with_the_same_stream() {
        let m = slow_model(0.35);
        let v = Pwl::constant(m.balanced_bias());
        let a = simulate_trap(
            &m,
            &v,
            0.0,
            100.0 / m.rate_sum(),
            &mut SeedStream::new(9).rng(0),
        )
        .unwrap();
        let b = simulate_trap(
            &m,
            &v,
            0.0,
            100.0 / m.rate_sum(),
            &mut SeedStream::new(9).rng(0),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_horizon_is_rejected() {
        let m = slow_model(0.3);
        let mut rng = SeedStream::new(1).rng(0);
        let err = simulate_trap(&m, &Pwl::constant(0.5), 1.0, 1.0, &mut rng).unwrap_err();
        assert!(matches!(err, CoreError::EmptyHorizon { .. }));
    }

    #[test]
    fn event_budget_is_enforced() {
        let m = slow_model(0.3);
        let cfg = UniformisationConfig {
            max_candidate_events: 10,
        };
        let mut rng = SeedStream::new(1).rng(0);
        let err = simulate_trap_probed(
            &m,
            &Pwl::constant(0.5),
            0.0,
            1e6 / m.rate_sum(),
            &mut rng,
            &cfg,
            &mut JobProbe::disabled(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CoreError::EventBudgetExceeded { budget: 10, .. }
        ));
    }
}
