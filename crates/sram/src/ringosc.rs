//! Ring-oscillator RTN analysis (paper future work, item 4).
//!
//! RTN is known to modulate ring-oscillator periods \[3\]; the paper
//! proposes extending SAMURAI beyond SRAM, and this module does so: an
//! N-stage CMOS ring is simulated, per-transistor RTN is generated with
//! the usual two-pass flow, and the cycle-by-cycle period sequence is
//! compared with and without RTN.

use samurai_core::{FaultPlan, SeedStream};
use samurai_telemetry::SolverStats;
use samurai_waveform::Pwl;

use samurai_spice::{Circuit, CompiledCircuit, ElementId, MosfetParams, Source, TransientConfig};

use crate::harness::{
    profile_traps, run_two_pass, trap_device_from_params, RtnSite, TwoPassSpec,
    CELL_CURRENT_OVERSAMPLE,
};
use crate::SramError;

/// Configuration of the ring experiment.
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Odd number of inverter stages.
    pub stages: usize,
    /// Supply voltage.
    pub vdd: f64,
    /// Per-stage load capacitance in farads (sets the period).
    pub load_cap: f64,
    /// Simulation horizon in seconds.
    pub horizon: f64,
    /// Technology for trap profiling.
    pub technology: samurai_trap::Technology,
    /// RTN scale factor.
    pub rtn_scale: f64,
    /// Multiplier on trap density.
    pub density_scale: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for RingConfig {
    fn default() -> Self {
        Self {
            stages: 5,
            vdd: 1.1,
            load_cap: 2e-15,
            horizon: 30e-9,
            technology: samurai_trap::Technology::node_90nm(),
            rtn_scale: 1.0,
            density_scale: 1.0,
            seed: 0,
        }
    }
}

/// Result of the ring experiment.
#[derive(Debug, Clone)]
pub struct RingReport {
    /// Observed rising-edge periods without RTN, seconds.
    pub periods_clean: Vec<f64>,
    /// Observed rising-edge periods with RTN injected.
    pub periods_rtn: Vec<f64>,
    /// The observed stage-0 waveform with RTN.
    pub v0: Pwl,
    /// Solver effort across both SPICE passes, read off the shared
    /// Newton workspace (as [`crate::MethodologyReport::solver`]).
    pub solver: SolverStats,
}

impl RingReport {
    fn mean(periods: &[f64]) -> f64 {
        periods.iter().sum::<f64>() / periods.len().max(1) as f64
    }

    /// Mean period of the clean ring.
    pub fn mean_period_clean(&self) -> f64 {
        Self::mean(&self.periods_clean)
    }

    /// Mean period with RTN.
    pub fn mean_period_rtn(&self) -> f64 {
        Self::mean(&self.periods_rtn)
    }

    /// RMS cycle-to-cycle jitter of the RTN run, seconds.
    pub fn rtn_jitter(&self) -> f64 {
        let m = self.mean_period_rtn();
        let n = self.periods_rtn.len().max(1) as f64;
        (self
            .periods_rtn
            .iter()
            .map(|p| (p - m) * (p - m))
            .sum::<f64>()
            / n)
            .sqrt()
    }
}

struct Ring {
    circuit: Circuit,
    transistors: Vec<ElementId>,
    rtn_sources: Vec<ElementId>,
}

/// Builds the ring with a kick-start current pulse on stage 0.
fn build_ring(config: &RingConfig) -> Ring {
    assert!(
        config.stages >= 3 && config.stages % 2 == 1,
        "stages must be odd and >= 3"
    );
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource(vdd, Circuit::GROUND, Source::Dc(config.vdd));

    let nodes: Vec<_> = (0..config.stages)
        .map(|i| ckt.node(&format!("n{i}")))
        .collect();
    let mut transistors = Vec::with_capacity(2 * config.stages);
    let mut rtn_sources = Vec::with_capacity(2 * config.stages);
    for i in 0..config.stages {
        let input = nodes[i];
        let output = nodes[(i + 1) % config.stages];
        let mn = ckt.mosfet(output, input, Circuit::GROUND, MosfetParams::nmos_90nm(2.0));
        let mp = ckt.mosfet(output, input, vdd, MosfetParams::pmos_90nm(4.0));
        rtn_sources.push(ckt.isource(Circuit::GROUND, output, Source::Dc(0.0)));
        rtn_sources.push(ckt.isource(vdd, output, Source::Dc(0.0)));
        transistors.push(mn);
        transistors.push(mp);
        ckt.capacitor(output, Circuit::GROUND, config.load_cap);
    }

    // Kick-start: a brief current pulse knocks stage 0 off the
    // metastable all-at-Vm equilibrium.
    let kick = Pwl::pulse(0.0, 50e-6, 0.05e-9, 0.3e-9, 0.02e-9, 0.02e-9)
        .expect("kick pulse parameters are static"); // lint: allow(HYG002): static pulse parameters are known-valid
    ckt.isource(Circuit::GROUND, nodes[0], Source::Pwl(kick));

    Ring {
        circuit: ckt,
        transistors,
        rtn_sources,
    }
}

/// Extracts rising-edge crossing times of `v` through `level`,
/// scanning with resolution `dt`, skipping the first `settle` seconds.
fn rising_crossings(v: &Pwl, level: f64, t0: f64, tf: f64, dt: f64, settle: f64) -> Vec<f64> {
    let mut crossings = Vec::new();
    let mut prev = v.eval(t0 + settle);
    let mut t = t0 + settle + dt;
    while t <= tf {
        let cur = v.eval(t);
        if prev < level && cur >= level {
            // Linear refinement inside the step.
            let frac = (level - prev) / (cur - prev);
            crossings.push(t - dt + frac * dt);
        }
        prev = cur;
        t += dt;
    }
    crossings
}

fn periods_from_crossings(crossings: &[f64]) -> Vec<f64> {
    crossings.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Runs the ring-oscillator RTN experiment.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_ring(config: &RingConfig) -> Result<RingReport, SramError> {
    let ring = build_ring(config);
    let spice_config = TransientConfig {
        dt_max: Some(config.horizon / 600.0),
        ..TransientConfig::default()
    };

    // RTN per transistor, from the stream of its position in the ring.
    let seeds = SeedStream::new(config.seed);
    let mut sites = Vec::with_capacity(ring.transistors.len());
    for (idx, (&mosfet, &source)) in ring.transistors.iter().zip(&ring.rtn_sources).enumerate() {
        let device =
            trap_device_from_params(ring.circuit.mosfet_params(mosfet)?, &config.technology);
        let seeds = seeds.substream(idx as u64);
        let traps = profile_traps(&config.technology, device, config.density_scale, &seeds);
        sites.push(RtnSite {
            mosfet,
            source,
            device,
            traps,
            seeds,
        });
    }
    let spec = TwoPassSpec {
        tf: config.horizon,
        spice: &spice_config,
        faults: &FaultPlan::none(),
        equilibrate: false,
        current_oversample: CELL_CURRENT_OVERSAMPLE,
        rtn_scale: config.rtn_scale,
    };
    let mut compiled = CompiledCircuit::compile(&ring.circuit);
    let (pass1, pass2, solver) =
        run_two_pass(&mut compiled, &ring.circuit, &spec, sites, |_, _, _| {})?;

    let level = config.vdd / 2.0;
    let scan_dt = config.horizon / 20_000.0;
    let settle = config.horizon * 0.2;
    let periods = |v: &Pwl| {
        let crossings = rising_crossings(v, level, 0.0, config.horizon, scan_dt, settle);
        periods_from_crossings(&crossings)
    };
    let periods_clean = periods(&pass1.voltage(&ring.circuit, "n0")?);
    let v0 = pass2.voltage(&ring.circuit, "n0")?;
    let periods_rtn = periods(&v0);

    Ok(RingReport {
        periods_clean,
        periods_rtn,
        v0,
        solver,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_ring_oscillates_with_a_stable_period() {
        let config = RingConfig {
            rtn_scale: 0.0,
            ..RingConfig::default()
        };
        let report = run_ring(&config).unwrap();
        assert!(
            report.periods_clean.len() >= 3,
            "expected several cycles, got {:?}",
            report.periods_clean
        );
        let mean = report.mean_period_clean();
        assert!(mean > 0.0);
        for p in &report.periods_clean {
            assert!(
                (p - mean).abs() < 0.1 * mean,
                "clean ring period wobbles: {p} vs mean {mean}"
            );
        }
    }

    #[test]
    fn a_ring_run_reports_its_solver_effort() {
        let config = RingConfig {
            horizon: 5e-9,
            seed: 3,
            ..RingConfig::default()
        };
        let solver = run_ring(&config).unwrap().solver;
        assert!(solver.newton_iterations > 0, "{solver:?}");
        assert!(solver.steps_accepted > 0, "{solver:?}");
    }

    #[test]
    fn rtn_perturbs_the_period_sequence() {
        let config = RingConfig {
            rtn_scale: 100.0,
            density_scale: 2.0,
            seed: 5,
            ..RingConfig::default()
        };
        let report = run_ring(&config).unwrap();
        assert!(report.periods_rtn.len() >= 3);
        // With heavy RTN the period sequence differs from the clean one.
        let diff = (report.mean_period_rtn() - report.mean_period_clean()).abs();
        let jitter = report.rtn_jitter();
        assert!(
            diff > 0.0 || jitter > 0.0,
            "RTN should leave a measurable mark: diff {diff}, jitter {jitter}"
        );
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_stage_counts_are_rejected() {
        let config = RingConfig {
            stages: 4,
            ..RingConfig::default()
        };
        let _ = build_ring(&config);
    }
}
