//! Bi-directionally coupled RTN + circuit simulation (paper future
//! work, item 1).
//!
//! The two-pass methodology pre-computes the bias waveforms, so RTN
//! cannot feed back into the propensities it is generated from. Here
//! the loop is closed on the adaptive transient engine, with Algorithm
//! 1 as the trap kernel. Eq (1) makes each trap's `λ*` bias-free, so
//! its candidates are drawn before the circuit runs ([`ClosedLoopTrap`])
//! and join the engine's breakpoints. After every accepted step the
//! hook judges the candidates reached at each transistor's live gate
//! drive and rewrites its Eq (3) current source, which therefore lags
//! the circuit by one accepted step.
//!
//! The sites (`harness::cell_sites`), start states (drawn at the RTN-free
//! operating point) and candidate streams (the two-pass generator's
//! seeds and `λ*`) are the two-pass flow's own, so the two flows
//! differ in feedback alone.

use samurai_core::faults::FaultSite;
use samurai_core::{blocked_fraction, ClosedLoopTrap, UniformisationConfig};
use samurai_spice::{
    CompiledCircuit, ElementId, MosfetParams, NewtonWorkspace, NodeId, Source, BREAKPOINT_SNAP,
};
use samurai_telemetry::SolverStats;
use samurai_trap::{DeviceParams, PropensityModel};
use samurai_waveform::{BitPattern, Pwc, Pwl};

use crate::harness::{cell_sites, MethodologyConfig};
use crate::{analyze_writes, build_write_waveforms, SramCell, SramError, WriteAnalysis};

/// Result of a coupled run.
#[derive(Debug, Clone)]
pub struct CoupledReport {
    /// The stored-bit waveform.
    pub q: Pwl,
    /// The complement waveform.
    pub qb: Pwl,
    /// Per-trap occupancy staircases (0/1) per transistor, indexed by
    /// [`Transistor::index`](crate::Transistor::index).
    pub occupancies: Vec<Vec<Pwc>>,
    /// Filled-trap staircases per transistor: the sums of
    /// [`occupancies`](Self::occupancies).
    pub n_filled: Vec<Pwc>,
    /// Write classification of `q`.
    pub outcomes: WriteAnalysis,
    /// Algorithm 1's candidate events across all traps.
    pub candidates: u64,
    /// Solver effort, the start states' operating point included.
    pub solver: SolverStats,
}

/// One transistor of the coupled loop and its traps.
struct Site {
    /// Drain, gate and source unknowns (`None` = ground).
    nodes: [Option<usize>; 3],
    params: MosfetParams,
    device: DeviceParams,
    traps: Vec<ClosedLoopTrap>,
    source: ElementId,
}

impl Site {
    /// The effective gate drive and the drain current in solution `x`.
    fn bias(&self, x: &[f64]) -> (f64, f64) {
        let [vd, vg, vs] = self.nodes.map(|n| n.map_or(0.0, |i| x[i]));
        (
            self.params.gate_drive(vd, vg, vs),
            self.params.eval(vd, vg, vs).0,
        )
    }

    /// The Eq (3) current of the traps' present states at gate drive
    /// `v_gs` and drain current `i_d`, times `scale`.
    fn i_rtn(&self, v_gs: f64, i_d: f64, scale: f64) -> f64 {
        let filled: f64 = self.traps.iter().map(|t| t.state().occupancy()).sum();
        i_d * blocked_fraction(&self.device, v_gs, filled) * scale
    }
}

/// Runs the bi-directionally coupled simulation for one bit pattern,
/// with the step control of `config.spice`.
///
/// # Errors
///
/// Propagates circuit-simulation and trap-generation failures.
pub fn run_coupled(
    pattern: &BitPattern,
    config: &MethodologyConfig,
) -> Result<CoupledReport, SramError> {
    let mut cell = SramCell::new(config.cell);
    let waves = build_write_waveforms(pattern, &config.timing)?;
    cell.set_wl(Source::Pwl(waves.wl));
    cell.set_bl(Source::Pwl(waves.bl));
    cell.set_blb(Source::Pwl(waves.blb));
    let tf = config.timing.duration(pattern.len());

    let (netlist, rtn_sites) = cell_sites(&cell, config)?;
    let mut compiled = CompiledCircuit::compile(&netlist);
    let mut ws = NewtonWorkspace::new(&compiled);
    ws.arm_faults(
        config.faults.arm(FaultSite::Solve),
        config.faults.arm(FaultSite::Step),
    );
    // The RTN-free operating point at t = 0, where the two-pass flow's
    // pass 1 starts: the bias of the start states and of `λ*`.
    compiled.dc_operating_point(&mut ws, 0.0, &config.spice.dc)?;

    let uniformisation = UniformisationConfig::default();
    let mut sites = Vec::with_capacity(rtn_sites.len());
    let mut breakpoints = Vec::new();
    for mut rtn_site in rtn_sites {
        let (d, g, s) = netlist.mosfet_nodes(rtn_site.mosfet)?;
        let mut site = Site {
            nodes: [d, g, s].map(NodeId::unknown_index),
            params: *netlist.mosfet_params(rtn_site.mosfet)?,
            device: rtn_site.device,
            traps: Vec::with_capacity(rtn_site.traps.len()),
            source: rtn_site.source,
        };
        let (v0, i_d0) = site.bias(ws.solution());
        rtn_site.equilibrate(v0);
        let seeds = rtn_site.seeds.substream(7);
        for (i, &trap) in rtn_site.traps.iter().enumerate() {
            let model = PropensityModel::new(site.device, trap);
            let mut rng = seeds.rng(i as u64);
            let trap = ClosedLoopTrap::new(&model, v0, 0.0, tf, &mut rng, &uniformisation)?;
            breakpoints.extend(trap.candidate_times());
            site.traps.push(trap);
        }
        // The start states' current, from the transient's operating point on.
        let i_rtn = site.i_rtn(v0, i_d0, config.rtn_scale);
        compiled.set_source(site.source, Source::Dc(i_rtn))?;
        sites.push(site);
    }

    let candidates = breakpoints.len() as u64;
    let snap = BREAKPOINT_SNAP * tf;
    let result = compiled.run_transient_hooked(
        &mut ws,
        0.0,
        tf,
        &config.spice,
        &breakpoints,
        |t, x, sources| {
            for site in &mut sites {
                let (v_gs, i_d) = site.bias(x);
                for trap in &mut site.traps {
                    trap.thin_until(t + snap, v_gs)?;
                }
                sources.set_dc(site.source, site.i_rtn(v_gs, i_d, config.rtn_scale))?;
            }
            Ok::<_, SramError>(())
        },
    )?;

    let q = result.voltage(&netlist, "q")?;
    let qb = result.voltage(&netlist, "qb")?;
    let mut occupancies = Vec::with_capacity(sites.len());
    let mut n_filled = Vec::with_capacity(sites.len());
    for site in sites {
        let traps = site
            .traps
            .into_iter()
            .map(ClosedLoopTrap::into_occupancy)
            .collect::<Result<Vec<_>, _>>()?;
        n_filled.push(Pwc::sum(&traps).unwrap_or_else(|| Pwc::constant(0.0)));
        occupancies.push(traps);
    }
    let outcomes = analyze_writes(&q, pattern, &config.timing);
    Ok(CoupledReport {
        q,
        qb,
        occupancies,
        n_filled,
        outcomes,
        candidates,
        solver: ws.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_methodology, Transistor};

    #[test]
    fn coupled_clean_cell_writes_the_pattern() {
        let config = MethodologyConfig {
            traps: Some(Default::default()),
            ..MethodologyConfig::default()
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
        assert_eq!(report.candidates, 0);
    }

    #[test]
    fn coupled_run_with_traps_still_tracks_the_pattern_at_unit_scale() {
        let config = MethodologyConfig {
            seed: 5,
            ..MethodologyConfig::default()
        };
        let report = run_coupled(&BitPattern::parse("10").unwrap(), &config).unwrap();
        assert_eq!(report.outcomes.error_count(), 0);
        // Trap state trajectories were recorded for all 6 transistors.
        assert_eq!(report.n_filled.len(), 6);
        // The run's Newton work is reported.
        assert!(report.solver.newton_iterations > 0);
        assert!(report.solver.steps_accepted > 0);
    }

    #[test]
    fn trap_propagation_reaches_stationarity() {
        use samurai_core::SeedStream;
        use samurai_trap::TrapParams;
        use samurai_units::{Energy, Length};
        // The loop's kernel held at a balanced bias for many lifetimes
        // fills its trap half the time.
        let model = PropensityModel::new(
            DeviceParams::nominal_90nm(),
            TrapParams::new(Length::from_nanometres(1.0), Energy::from_ev(0.3)),
        );
        let v = model.balanced_bias();
        let tf = 20_000.0 / model.rate_sum();
        let mut rng = SeedStream::new(3).rng(0);
        let config = UniformisationConfig::default();
        let mut trap = ClosedLoopTrap::new(&model, v, 0.0, tf, &mut rng, &config).unwrap();
        trap.thin_until(tf, v).unwrap();
        let duty = trap
            .into_occupancy()
            .unwrap()
            .fraction_at(0.0, tf, 1.0, 0.0);
        assert!((duty - 0.5).abs() < 0.05, "duty {duty}");
    }

    #[test]
    fn both_flows_draw_the_same_start_states_and_candidate_streams() {
        let config = MethodologyConfig {
            seed: 21,
            density_scale: 1.5,
            ..MethodologyConfig::default()
        };
        let pattern = BitPattern::parse("10").unwrap();
        let two_pass = run_methodology(&pattern, &config).unwrap();
        let coupled = run_coupled(&pattern, &config).unwrap();
        let mut candidates = 0;
        for t in Transistor::ALL {
            let rtn = &two_pass.rtn[t.index()];
            candidates += rtn.candidates;
            let starts = |occupancies: &[Pwc]| -> Vec<f64> {
                occupancies.iter().map(|o| o.eval(0.0)).collect()
            };
            assert_eq!(
                starts(&rtn.occupancies),
                starts(&coupled.occupancies[t.index()]),
                "{}",
                t.label()
            );
        }
        assert!(candidates > 0);
        assert_eq!(candidates, coupled.candidates);
    }
}
