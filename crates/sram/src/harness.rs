//! The paper's simulation-driven methodology (Fig 8, left):
//! SPICE pass 1 → SAMURAI per transistor → SPICE pass 2 → verdict.
//!
//! The two-pass step generates each site's RTN on the calling thread
//! (one trap takes microseconds); the ensembles that run whole two-pass
//! jobs (array, margin search, column) own the worker pool.

use rand::Rng;

use samurai_core::faults::{FaultPlan, FaultSite};
use samurai_core::{BiasWaveforms, DeviceRtn, RtnGenerator, SeedStream};
use samurai_trap::{
    DeviceParams, PropensityModel, Technology, TrapParams, TrapProfiler, TrapState,
};
use samurai_waveform::{BitPattern, Pwc, Pwl};

use samurai_spice::{
    Circuit, CompiledCircuit, ElementId, MosfetAdjust, MosfetParams, NewtonWorkspace, ParamPatch,
    Source, TransientConfig, TransientResult,
};
use samurai_telemetry::SolverStats;

use crate::{
    analyze_writes, build_write_waveforms, SramCell, SramCellParams, SramError, Transistor,
    WriteAnalysis, WriteTiming,
};

/// Configuration of the two-pass methodology.
#[derive(Debug, Clone)]
pub struct MethodologyConfig {
    /// Cell sizing and supply.
    pub cell: SramCellParams,
    /// Write-cycle timing.
    pub timing: WriteTiming,
    /// Technology whose trap statistics profile each transistor.
    pub technology: Technology,
    /// Multiplier on the sampled trap density (1.0 = the technology's
    /// nominal value).
    pub density_scale: f64,
    /// The paper's accelerated-RTN scale factor (×30 in Fig 8e; 1.0 for
    /// unscaled RTN).
    pub rtn_scale: f64,
    /// Master random seed (trap profiles and trap dynamics).
    pub seed: u64,
    /// Explicit per-transistor trap profiles; when `None` the profiles
    /// are sampled from the technology.
    pub traps: Option<[Vec<TrapParams>; 6]>,
    /// SPICE solver configuration for both transient passes (step
    /// control, Newton controls and the step-level rescue ladder).
    pub spice: TransientConfig,
    /// Deterministic fault plan armed on the shared SPICE workspace
    /// (solve- and step-site triggers). Empty in production.
    pub faults: FaultPlan,
    /// Per-transistor scenario adjustments (beta/geometry spread),
    /// indexed by [`Transistor::index`] and applied as a [`ParamPatch`]
    /// to the cell netlist before it is compiled. Identity by default.
    pub adjust: [MosfetAdjust; 6],
    /// Thermal-corner scale on every device's thermal voltage
    /// (`φ_t ∝ T / T_room`), applied with the same patch. `1.0` is the
    /// nominal corner.
    pub phi_t_scale: f64,
}

impl Default for MethodologyConfig {
    fn default() -> Self {
        Self {
            cell: SramCellParams::default(),
            timing: WriteTiming::default(),
            technology: Technology::node_90nm(),
            density_scale: 1.0,
            rtn_scale: 1.0,
            seed: 0,
            traps: None,
            spice: TransientConfig::default(),
            faults: FaultPlan::none(),
            adjust: [MosfetAdjust::nominal(); 6],
            phi_t_scale: 1.0,
        }
    }
}

/// The RTN data generated for one transistor.
#[derive(Debug, Clone)]
pub struct TransistorRtn {
    /// Which transistor.
    pub transistor: Transistor,
    /// The bias extracted from pass 1 (gate overdrive magnitude and
    /// signed drain current).
    pub bias: BiasWaveforms,
    /// Trap parameters used.
    pub traps: Vec<TrapParams>,
    /// Per-trap occupancy staircases.
    pub occupancies: Vec<Pwc>,
    /// Filled-trap count `N_filled(t)` (paper Fig 8 b, c).
    pub n_filled: Pwc,
    /// The unscaled Eq (3) RTN current (paper Fig 8 d).
    pub i_rtn: Pwc,
    /// Algorithm 1's candidate events across the traps.
    pub candidates: u64,
}

/// Everything the methodology produced.
#[derive(Debug, Clone)]
pub struct MethodologyReport {
    /// `Q` from the RTN-free pass (paper Fig 8 a).
    pub q_clean: Pwl,
    /// `Q̄` from the RTN-free pass.
    pub qb_clean: Pwl,
    /// `Q` from the RTN-injected pass (paper Fig 8 e).
    pub q_rtn: Pwl,
    /// `Q̄` from the RTN-injected pass.
    pub qb_rtn: Pwl,
    /// Per-transistor RTN data, indexed by [`Transistor::index`].
    pub rtn: Vec<TransistorRtn>,
    /// Write analysis of the RTN-free pass (must be all clean for a
    /// meaningful experiment).
    pub outcomes_clean: WriteAnalysis,
    /// Write analysis of the RTN-injected pass — the verdict.
    pub outcomes: WriteAnalysis,
    /// Solver effort across both SPICE passes, read off the shared
    /// Newton workspace (attempts, iterations, step accept/reject and
    /// rescue-rung counts).
    pub solver: SolverStats,
}

impl MethodologyReport {
    /// Total capture/emission events across all transistors.
    pub fn total_events(&self) -> usize {
        self.rtn
            .iter()
            .flat_map(|t| t.occupancies.iter())
            .map(Pwc::transition_count)
            .sum()
    }

    /// `true` if RTN caused at least one write error that the clean
    /// pass did not have.
    pub fn rtn_induced_error(&self) -> bool {
        self.outcomes.error_count() > self.outcomes_clean.error_count()
    }
}

/// Builds the trap-physics device description of MOSFET `id` of
/// `circuit`, combining its electrical sizing with the technology's
/// oxide/trap parameters.
pub(crate) fn trap_device(circuit: &Circuit, id: ElementId, tech: &Technology) -> DeviceParams {
    let params = circuit.mosfet_params(id).expect("transistor ids are valid"); // lint: allow(HYG002): callers pass ids of MOSFETs built into the same circuit
    trap_device_from_params(params, tech)
}

/// Builds the trap-physics device description from explicit MOSFET
/// parameters: electrical sizing and threshold from the netlist
/// device, oxide/doping/temperature from the technology. Shared by
/// the cell harness, the ring, the column generator and the scenario
/// layer's trap pre-sampling.
pub(crate) fn trap_device_from_params(params: &MosfetParams, tech: &Technology) -> DeviceParams {
    DeviceParams {
        width: samurai_units::Length::from_metres(params.width),
        length: samurai_units::Length::from_metres(params.length),
        t_ox: tech.device.t_ox,
        v_th: samurai_units::Voltage::from_volts(params.vth),
        v_fb: tech.device.v_fb,
        doping: tech.device.doping,
        temperature: tech.device.temperature,
    }
}

/// Samples the trap profile of `device` from `tech`'s statistics, with
/// the trap density scaled by `density_scale`, drawing from
/// `seeds.rng(0)`.
pub(crate) fn profile_traps(
    tech: &Technology,
    device: DeviceParams,
    density_scale: f64,
    seeds: &SeedStream,
) -> Vec<TrapParams> {
    let mut tech = tech.clone();
    tech.device = device;
    tech.trap_density *= density_scale;
    TrapProfiler::new(tech).sample(&mut seeds.rng(0))
}

/// Thins staircase steps closer than `min_gap` to their predecessor so
/// the PWL conversion always has room for its edges.
fn sanitize_steps(pwc: &Pwc, min_gap: f64) -> Pwc {
    let mut steps: Vec<(f64, f64)> = Vec::with_capacity(pwc.steps().len());
    for &(t, v) in pwc.steps() {
        match steps.last_mut() {
            Some(last) if t - last.0 < min_gap => last.1 = v,
            _ => steps.push((t, v)),
        }
    }
    Pwc::new(steps).expect("thinned steps remain strictly increasing") // lint: allow(HYG002): thinning preserves strict monotonicity
}

/// Converts an RTN staircase to a PWL source waveform.
pub(crate) fn pwc_to_source(pwc: &Pwc, scale: f64) -> Source {
    let clean = sanitize_steps(&pwc.scaled(scale), 1e-15);
    if clean.steps().len() < 2 {
        return Source::Dc(clean.steps()[0].1);
    }
    Source::Pwl(clean.to_pwl(0.9e-16))
}

/// One transistor that receives RTN in the two-pass step.
pub(crate) struct RtnSite {
    /// The MOSFET whose pass-1 bias drives the traps.
    pub mosfet: ElementId,
    /// The current source that carries the device's `I_RTN` in pass 2.
    pub source: ElementId,
    /// Trap-physics description of the device.
    pub device: DeviceParams,
    /// The device's trap profile.
    pub traps: Vec<TrapParams>,
    /// The site's seeds: `rng(1)` equilibrates the trap states,
    /// `substream(7)` seeds the RTN generator.
    pub seeds: SeedStream,
}

impl RtnSite {
    /// Draws each trap's start state from its stationary distribution
    /// at the gate drive `v0`, from `seeds.rng(1)`.
    pub(crate) fn equilibrate(&mut self, v0: f64) {
        let mut rng = self.seeds.rng(1);
        for trap in &mut self.traps {
            let model = PropensityModel::new(self.device, *trap);
            if rng.gen::<f64>() < model.stationary_occupancy(v0) {
                trap.initial_state = TrapState::Filled;
            }
        }
    }
}

/// Uniform refinement of the Eq (3) current between trap events in the
/// cell and ring flows (the column ensemble sets its own).
pub(crate) const CELL_CURRENT_OVERSAMPLE: usize = 64;

/// The settings every site of one two-pass run shares.
pub(crate) struct TwoPassSpec<'a> {
    /// End of the simulated horizon `[0, tf]`, seconds.
    pub tf: f64,
    /// Solver configuration of both passes.
    pub spice: &'a TransientConfig,
    /// Fault plan armed on the shared workspace before pass 1.
    pub faults: &'a FaultPlan,
    /// Draw each trap's initial state from its stationary distribution
    /// at the pass-1 bias at `t = 0` (otherwise the profile's states).
    pub equilibrate: bool,
    /// Uniform refinement of the Eq (3) current between trap events.
    pub current_oversample: usize,
    /// Scale of the injected `I_RTN`.
    pub rtn_scale: f64,
}

/// The paper's two-pass step (Fig 8, left) on an already compiled and
/// patched circuit: pass 1, then SAMURAI per site on the bias extracted
/// from pass 1, then pass 2 with every site's `I_RTN` injected. Both
/// passes run on one workspace, so the fault arms and the solver
/// counters carry from pass 1 into pass 2. Each site's bias, trap
/// profile (with its initial states) and RTN go to `on_site`, in site
/// order, and are not kept. Returns pass 1, pass 2 and the solver
/// effort across both.
pub(crate) fn run_two_pass(
    compiled: &mut CompiledCircuit,
    circuit: &Circuit,
    spec: &TwoPassSpec<'_>,
    sites: impl IntoIterator<Item = RtnSite>,
    mut on_site: impl FnMut(BiasWaveforms, Vec<TrapParams>, DeviceRtn),
) -> Result<(TransientResult, TransientResult, SolverStats), SramError> {
    let mut ws = NewtonWorkspace::new(compiled);
    ws.arm_faults(
        spec.faults.arm(FaultSite::Solve),
        spec.faults.arm(FaultSite::Step),
    );
    let pass1 = compiled.run_transient(&mut ws, 0.0, spec.tf, spec.spice)?;

    for mut site in sites {
        // Bias extraction: effective gate drive (relative to the
        // terminal currently acting as the source — pass transistors
        // conduct both ways) for the trap physics, signed drain
        // current for Eq (3).
        let bias = BiasWaveforms::new(
            pass1.mosfet_gate_drive(circuit, site.mosfet)?,
            pass1.mosfet_current(circuit, site.mosfet)?,
        );
        if spec.equilibrate {
            site.equilibrate(bias.v_gs.eval(0.0));
        }
        let rtn = RtnGenerator::new(site.device, site.traps.clone())
            .with_seed(site.seeds.substream(7).seed())
            .with_current_oversample(spec.current_oversample)
            .generate(&bias, 0.0, spec.tf)?;
        compiled.set_source(site.source, pwc_to_source(&rtn.i_rtn, spec.rtn_scale))?;
        on_site(bias, site.traps, rtn);
    }

    let pass2 = compiled.run_transient(&mut ws, 0.0, spec.tf, spec.spice)?;
    Ok((pass1, pass2, ws.stats()))
}

/// `circuit` with `patch` applied: the netlist a two-pass job compiles
/// and its RTN sites read. `circuit` itself stays the netlist pass-1
/// bias extraction reconstructs drain currents with (DESIGN §12).
pub(crate) fn patched(circuit: &Circuit, patch: &ParamPatch) -> Result<Circuit, SramError> {
    let mut patched = circuit.clone();
    patch.apply_to_circuit(&mut patched)?;
    Ok(patched)
}

/// The netlist a cell job compiles under `config` — the cell's, with
/// the config's spread and thermal corner applied as one
/// [`ParamPatch`] — and its six RTN sites, transistor `t`'s drawing
/// from `substream(t)` of the master seed.
pub(crate) fn cell_sites(
    cell: &SramCell,
    config: &MethodologyConfig,
) -> Result<(Circuit, Vec<RtnSite>), SramError> {
    let patch = ParamPatch {
        devices: Transistor::ALL
            .iter()
            .map(|&t| (cell.transistor(t), config.adjust[t.index()]))
            .collect(),
        phi_t_scale: config.phi_t_scale,
    };
    let netlist = patched(&cell.circuit, &patch)?;
    let seeds = SeedStream::new(config.seed);
    let sites = Transistor::ALL
        .into_iter()
        .map(|t| {
            let device = trap_device(&netlist, cell.transistor(t), &config.technology);
            let seeds = seeds.substream(t.index() as u64);
            let traps = match &config.traps {
                Some(explicit) => explicit[t.index()].clone(),
                None => profile_traps(&config.technology, device, config.density_scale, &seeds),
            };
            RtnSite {
                mosfet: cell.transistor(t),
                source: cell.rtn_source(t),
                device,
                traps,
                seeds,
            }
        })
        .collect();
    Ok((netlist, sites))
}

/// The two-pass step for one 6T cell under `config` over `[0, tf]`, on
/// [`cell_sites`]; pass-1 bias extraction reads the cell netlist as
/// built. Shared by the write and read-disturb flows.
pub(crate) fn run_cell_two_pass(
    cell: &SramCell,
    tf: f64,
    config: &MethodologyConfig,
    on_site: impl FnMut(BiasWaveforms, Vec<TrapParams>, DeviceRtn),
) -> Result<(TransientResult, TransientResult, SolverStats), SramError> {
    let (netlist, sites) = cell_sites(cell, config)?;
    let mut compiled = CompiledCircuit::compile(&netlist);
    let spec = TwoPassSpec {
        tf,
        spice: &config.spice,
        faults: &config.faults,
        equilibrate: true,
        current_oversample: CELL_CURRENT_OVERSAMPLE,
        rtn_scale: config.rtn_scale,
    };
    run_two_pass(&mut compiled, &cell.circuit, &spec, sites, on_site)
}

/// Runs the full Fig 8 methodology for one cell and one bit pattern.
///
/// # Errors
///
/// Propagates simulation failures from either SPICE pass or from the
/// RTN generator.
pub fn run_methodology(
    pattern: &BitPattern,
    config: &MethodologyConfig,
) -> Result<MethodologyReport, SramError> {
    let mut cell = SramCell::new(config.cell);
    let waves = build_write_waveforms(pattern, &config.timing)?;
    cell.set_wl(Source::Pwl(waves.wl.clone()));
    cell.set_bl(Source::Pwl(waves.bl.clone()));
    cell.set_blb(Source::Pwl(waves.blb.clone()));

    let tf = config.timing.duration(pattern.len());
    let mut rtn = Vec::with_capacity(6);
    let (pass1, pass2, solver) = run_cell_two_pass(&cell, tf, config, |bias, traps, device| {
        rtn.push(TransistorRtn {
            transistor: Transistor::ALL[rtn.len()],
            bias,
            traps,
            occupancies: device.occupancies,
            n_filled: device.n_filled,
            i_rtn: device.i_rtn,
            candidates: device.candidates,
        });
    })?;
    let q_clean = pass1.voltage(&cell.circuit, "q")?;
    let qb_clean = pass1.voltage(&cell.circuit, "qb")?;
    let q_rtn = pass2.voltage(&cell.circuit, "q")?;
    let qb_rtn = pass2.voltage(&cell.circuit, "qb")?;
    let outcomes_clean = analyze_writes(&q_clean, pattern, &config.timing);
    let outcomes = analyze_writes(&q_rtn, pattern, &config.timing);

    Ok(MethodologyReport {
        q_clean,
        qb_clean,
        q_rtn,
        qb_rtn,
        rtn,
        outcomes_clean,
        outcomes,
        solver,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CycleOutcome;

    #[test]
    fn clean_pass_writes_the_paper_pattern() {
        let config = MethodologyConfig {
            // No traps at all: both passes must be identical and clean.
            traps: Some(Default::default()),
            ..MethodologyConfig::default()
        };
        let report = run_methodology(&BitPattern::paper_fig8(), &config).unwrap();
        assert!(
            report.outcomes_clean.all_clean(),
            "RTN-free pass must write cleanly: {:?} (final Q {:?})",
            report.outcomes_clean.outcomes,
            report.outcomes_clean.final_q
        );
        assert!(report.outcomes.all_clean());
        assert_eq!(report.total_events(), 0);
        assert!(!report.rtn_induced_error());
    }

    #[test]
    fn trap_activity_follows_the_stored_bit() {
        // With sampled traps, M5 (gate = Q) should be more active when
        // Q is high; M6 (gate = Q-bar) the opposite — Fig 8 b/c.
        let config = MethodologyConfig {
            seed: 3,
            density_scale: 2.0,
            ..MethodologyConfig::default()
        };
        let pattern = BitPattern::parse("111100001").unwrap();
        let report = run_methodology(&pattern, &config).unwrap();

        let timing = config.timing;
        let q_high_window = (0.2 * timing.period, 3.8 * timing.period);
        let q_low_window = (4.2 * timing.period, 7.8 * timing.period);

        let m5 = &report.rtn[Transistor::M5.index()].n_filled;
        let m6 = &report.rtn[Transistor::M6.index()].n_filled;
        let m5_high = m5.mean(q_high_window.0, q_high_window.1);
        let m5_low = m5.mean(q_low_window.0, q_low_window.1);
        let m6_high = m6.mean(q_high_window.0, q_high_window.1);
        let m6_low = m6.mean(q_low_window.0, q_low_window.1);

        // M5 sees gate high while Q is high; M6 while Q is low.
        assert!(
            m5_high >= m5_low,
            "M5 filled-trap mean should be higher while Q=1: {m5_high} vs {m5_low}"
        );
        assert!(
            m6_low >= m6_high,
            "M6 filled-trap mean should be higher while Q=0: {m6_low} vs {m6_high}"
        );
    }

    #[test]
    fn unscaled_rtn_rarely_upsets_the_cell() {
        let config = MethodologyConfig {
            seed: 1,
            rtn_scale: 1.0,
            ..MethodologyConfig::default()
        };
        let report = run_methodology(&BitPattern::parse("1010").unwrap(), &config).unwrap();
        assert!(report.outcomes_clean.all_clean());
        assert_eq!(
            report.outcomes.error_count(),
            0,
            "unscaled 90nm RTN should not flip writes: {:?}",
            report.outcomes.outcomes
        );
    }

    #[test]
    fn heavily_scaled_rtn_eventually_causes_errors() {
        // The paper needed x30 at 90 nm; our substrate differs in
        // absolute drive strengths, so scan upwards until the cell
        // breaks and check the factor is in a plausible band.
        let mut breaking_scale = None;
        for scale in [10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0] {
            let config = MethodologyConfig {
                seed: 12,
                rtn_scale: scale,
                density_scale: 2.0,
                ..MethodologyConfig::default()
            };
            let report = run_methodology(&BitPattern::paper_fig8(), &config).unwrap();
            assert!(
                report.outcomes_clean.all_clean(),
                "clean pass broke at x{scale}"
            );
            if !report.outcomes.all_clean() {
                breaking_scale = Some(scale);
                break;
            }
        }
        let scale = breaking_scale.expect("some scale must disturb the write");
        assert!(
            (10.0..=3000.0).contains(&scale),
            "breaking scale {scale} out of band"
        );
    }

    #[test]
    fn reports_are_reproducible_per_seed() {
        let config = MethodologyConfig {
            seed: 9,
            ..MethodologyConfig::default()
        };
        let a = run_methodology(&BitPattern::parse("101").unwrap(), &config).unwrap();
        let b = run_methodology(&BitPattern::parse("101").unwrap(), &config).unwrap();
        assert_eq!(a.total_events(), b.total_events());
        assert_eq!(a.outcomes.outcomes, b.outcomes.outcomes);
        for (x, y) in a.rtn.iter().zip(&b.rtn) {
            assert_eq!(x.n_filled, y.n_filled);
        }
    }

    #[test]
    fn explicit_trap_profiles_are_respected() {
        use samurai_units::{Energy, Length};
        let mut traps: [Vec<TrapParams>; 6] = Default::default();
        traps[Transistor::M1.index()] = vec![TrapParams::new(
            Length::from_nanometres(0.1),
            Energy::from_ev(0.2),
        )];
        let config = MethodologyConfig {
            traps: Some(traps),
            ..MethodologyConfig::default()
        };
        let report = run_methodology(&BitPattern::parse("1010").unwrap(), &config).unwrap();
        assert_eq!(report.rtn[Transistor::M1.index()].traps.len(), 1);
        for t in [Transistor::M2, Transistor::M3, Transistor::M4] {
            assert!(report.rtn[t.index()].traps.is_empty());
        }
        // A 0.1 nm trap runs at lambda* ~ 3.7e9/s: it must actually
        // toggle during 8 ns.
        assert!(report.rtn[Transistor::M1.index()].occupancies[0].transition_count() > 0);
    }

    #[test]
    fn cycle_outcome_types_are_exposed() {
        // Compile-time surface check used by downstream crates.
        let o = CycleOutcome::Clean;
        assert_ne!(o, CycleOutcome::Error);
    }
}
