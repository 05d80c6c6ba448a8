//! Bi-directionally coupled RTN + circuit simulation (paper future
//! work, item 1).
//!
//! The two-pass methodology pre-computes the bias waveforms, so RTN
//! cannot feed back into the propensities it is generated from. Here
//! the loop is closed: the circuit advances one backward-Euler step at
//! a time, and between steps each trap's Markov chain is propagated
//! under the *live* gate bias, the filled-trap counts converted to
//! Eq (3) currents and written back into the netlist. Within one step
//! the rates are constant, so the trap propagation uses exact
//! exponential jump sampling (no thinning needed at this granularity).

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use samurai_core::{exp_rand, SeedStream};
use samurai_trap::{DeviceParams, PropensityModel, TrapState};
use samurai_waveform::{BitPattern, Pwc, Pwl};

use samurai_spice::{DcConfig, ElementId, Source, TransientStepper};
use samurai_telemetry::SolverStats;

use crate::harness::{profile_traps, trap_device, MethodologyConfig};
use crate::{
    analyze_writes, build_write_waveforms, SramCell, SramError, Transistor, WriteAnalysis,
};

/// Configuration of the coupled simulation.
#[derive(Debug, Clone)]
pub struct CoupledConfig {
    /// The shared methodology settings (cell, timing, technology, trap
    /// profiles, scaling, seed).
    pub base: MethodologyConfig,
    /// Outer co-simulation step (circuit step = trap update interval).
    pub dt: f64,
}

impl Default for CoupledConfig {
    fn default() -> Self {
        Self {
            base: MethodologyConfig::default(),
            dt: 5e-12,
        }
    }
}

/// Result of a coupled run.
#[derive(Debug, Clone)]
pub struct CoupledReport {
    /// The stored-bit waveform.
    pub q: Pwl,
    /// The complement waveform.
    pub qb: Pwl,
    /// Filled-trap staircases per transistor (sampled at the outer
    /// step), indexed by [`Transistor::index`].
    pub n_filled: Vec<Pwc>,
    /// Write classification of `q`.
    pub outcomes: WriteAnalysis,
    /// Solver effort of the fixed-step loop (its stepper's Newton
    /// solves, iterations and accepted steps).
    pub solver: SolverStats,
}

struct TrapRuntime {
    model: PropensityModel,
    state: TrapState,
}

/// One transistor of the coupled loop: its MOSFET, its trap-physics
/// device and its traps' live states.
struct Site {
    element: ElementId,
    device: DeviceParams,
    traps: Vec<TrapRuntime>,
    rng: ChaCha8Rng,
}

/// Propagates one trap over `[0, dt]` with rates frozen at the live
/// bias (exact for constant rates).
fn propagate<R: Rng + ?Sized>(trap: &mut TrapRuntime, v_gs: f64, dt: f64, rng: &mut R) {
    let (lc, le) = trap.model.propensities(v_gs);
    let mut remaining = dt;
    loop {
        let rate = match trap.state {
            TrapState::Filled => le,
            TrapState::Empty => lc,
        };
        if rate <= 0.0 {
            return;
        }
        let wait = exp_rand(rng, 1.0 / rate);
        if wait > remaining {
            return;
        }
        remaining -= wait;
        trap.state = trap.state.toggled();
    }
}

/// Runs the bi-directionally coupled simulation for one bit pattern.
///
/// # Errors
///
/// Propagates circuit-stepping failures.
pub fn run_coupled(
    pattern: &BitPattern,
    config: &CoupledConfig,
) -> Result<CoupledReport, SramError> {
    let base = &config.base;
    let mut cell = SramCell::new(base.cell);
    let waves = build_write_waveforms(pattern, &base.timing)?;
    cell.set_wl(Source::Pwl(waves.wl));
    cell.set_bl(Source::Pwl(waves.bl));
    cell.set_blb(Source::Pwl(waves.blb));

    // Per-transistor trap populations (same sampling scheme as the
    // two-pass harness so results are comparable).
    let seeds = SeedStream::new(base.seed);
    let mut sites = Vec::with_capacity(6);
    for t in Transistor::ALL {
        let element = cell.transistor(t);
        let device = trap_device(&cell.circuit, element, &base.technology);
        let site_seeds = seeds.substream(t.index() as u64);
        let traps = match &base.traps {
            Some(explicit) => explicit[t.index()].clone(),
            None => profile_traps(&base.technology, device, base.density_scale, &site_seeds),
        };
        sites.push(Site {
            element,
            device,
            traps: traps
                .into_iter()
                .map(|p| TrapRuntime {
                    state: p.initial_state,
                    model: PropensityModel::new(device, p),
                })
                .collect(),
            rng: site_seeds.substream(7).rng(0),
        });
    }

    let tf = base.timing.duration(pattern.len());
    let mut stepper = TransientStepper::new(&cell.circuit, 0.0, &DcConfig::default())?;

    // Draw initial trap states from the stationary distribution at the
    // DC operating point (mirrors the two-pass harness).
    for site in &mut sites {
        let v0 = stepper.mosfet_gate_drive(site.element)?;
        for trap in &mut site.traps {
            if site.rng.gen::<f64>() < trap.model.stationary_occupancy(v0) {
                trap.state = TrapState::Filled;
            }
        }
    }

    let n_steps = (tf / config.dt).ceil() as usize;
    let mut q_points = Vec::with_capacity(n_steps + 1);
    let mut qb_points = Vec::with_capacity(n_steps + 1);
    let mut filled_steps: Vec<Vec<(f64, f64)>> =
        (0..6).map(|_| Vec::with_capacity(n_steps + 1)).collect();
    q_points.push((0.0, stepper.voltage(cell.q)));
    qb_points.push((0.0, stepper.voltage(cell.qb)));

    for step in 0..n_steps {
        let t = step as f64 * config.dt;
        // 1. Read the live biases and update every trap + its RTN
        //    injection before the circuit moves on.
        for (tr, site) in Transistor::ALL.into_iter().zip(&mut sites) {
            // Effective gate drive: relative to whichever terminal is
            // acting as the source right now (pass transistors conduct
            // both ways).
            let v_gs = stepper.mosfet_gate_drive(site.element)?;
            let i_d = stepper.mosfet_current(site.element)?;

            let mut filled = 0.0;
            for trap in &mut site.traps {
                propagate(trap, v_gs, config.dt, &mut site.rng);
                filled += trap.state.occupancy();
            }
            filled_steps[tr.index()].push((t, filled));

            let n_tot = site.device.carrier_count(v_gs).max(1.0);
            let fraction = (filled / n_tot).min(1.0);
            let i_rtn = i_d * fraction * base.rtn_scale;
            // Write into the stepper's compiled circuit: the stepper
            // owns its own lowered copy of the netlist.
            stepper.set_source(cell.rtn_source(tr), Source::Dc(i_rtn))?;
        }

        // 2. Advance the circuit.
        stepper.step(config.dt)?;
        q_points.push((stepper.time(), stepper.voltage(cell.q)));
        qb_points.push((stepper.time(), stepper.voltage(cell.qb)));
    }

    let q = Pwl::new(q_points)?;
    let qb = Pwl::new(qb_points)?;
    let mut n_filled = Vec::with_capacity(filled_steps.len());
    for steps in filled_steps {
        n_filled.push(if steps.is_empty() {
            Pwc::constant(0.0)
        } else {
            Pwc::new(steps)?
        });
    }
    let outcomes = analyze_writes(&q, pattern, &base.timing);
    Ok(CoupledReport {
        q,
        qb,
        n_filled,
        outcomes,
        solver: stepper.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupled_clean_cell_writes_the_pattern() {
        let config = CoupledConfig {
            base: MethodologyConfig {
                traps: Some(Default::default()),
                ..MethodologyConfig::default()
            },
            dt: 10e-12,
        };
        let report = run_coupled(&BitPattern::parse("101").unwrap(), &config).unwrap();
        assert!(
            report.outcomes.all_clean(),
            "coupled trap-free run must write cleanly: {:?}",
            report.outcomes.outcomes
        );
        for nf in &report.n_filled {
            assert_eq!(nf.max_value(), 0.0);
        }
    }

    #[test]
    fn coupled_run_with_traps_still_tracks_the_pattern_at_unit_scale() {
        let config = CoupledConfig {
            base: MethodologyConfig {
                seed: 5,
                ..MethodologyConfig::default()
            },
            dt: 10e-12,
        };
        let report = run_coupled(&BitPattern::parse("10").unwrap(), &config).unwrap();
        assert_eq!(report.outcomes.error_count(), 0);
        // Trap state trajectories were recorded for all 6 transistors.
        assert_eq!(report.n_filled.len(), 6);
        // The stepper's Newton work is reported, one accepted step per
        // outer step.
        assert!(report.solver.newton_iterations > 0);
        assert!(report.solver.steps_accepted > 0);
    }

    #[test]
    fn trap_propagation_reaches_stationarity() {
        use samurai_trap::TrapParams;
        use samurai_units::{Energy, Length};
        let device = DeviceParams::nominal_90nm();
        let model = PropensityModel::new(
            device,
            TrapParams::new(Length::from_nanometres(1.0), Energy::from_ev(0.3)),
        );
        // Find a balanced bias, propagate many steps, compare duty.
        let (mut lo, mut hi) = (-2.0, 3.0);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if model.stationary_occupancy(mid) < 0.5 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let v = 0.5 * (lo + hi);
        let mut rt = TrapRuntime {
            model,
            state: TrapState::Empty,
        };
        let dt = 0.3 / model.rate_sum();
        let mut rng = SeedStream::new(3).rng(0);
        let mut filled = 0usize;
        let n = 40_000;
        for _ in 0..n {
            propagate(&mut rt, v, dt, &mut rng);
            if rt.state == TrapState::Filled {
                filled += 1;
            }
        }
        let duty = filled as f64 / n as f64;
        assert!((duty - 0.5).abs() < 0.05, "duty {duty}");
    }
}
