//! High-level per-device RTN trace generation.

use serde::{Deserialize, Serialize};

use crate::ensemble::{
    run_ensemble_resilient_observed, ExecutionPolicy, IndexedResults, Parallelism,
};
use crate::{
    gillespie, rtn_current, simulate_trap_probed, AmplitudeModel, BiasWaveforms, CoreError,
    SeedStream, UniformisationConfig,
};
use samurai_telemetry::{JobProbe, MetricsSink, Recorder};
use samurai_trap::{DeviceParams, PropensityModel, TrapParams};
use samurai_waveform::{Pwc, Trace};

/// Which stochastic kernel generates the per-trap occupancy functions.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TraceMethod {
    /// The paper's Algorithm 1 — exact for arbitrary bias waveforms.
    #[default]
    Uniformisation,
    /// Frozen-rate Gillespie SSA — exact only for constant bias
    /// (baseline, experiment X2).
    FrozenRateSsa,
    /// Ye-et-al.-style white-noise two-stage generator, calibrated at
    /// the bias of the horizon's start (baseline, experiment X2).
    YeTwoStage,
}

/// The full RTN output for one device over one simulation horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRtn {
    /// Per-trap occupancy staircases (0/1), in trap order.
    pub occupancies: Vec<Pwc>,
    /// The filled-trap count `N_filled(t)` (sum of the occupancies).
    pub n_filled: Pwc,
    /// The Eq (3) RTN current `I_RTN(t)`, in amperes.
    pub i_rtn: Pwc,
}

impl DeviceRtn {
    /// Total number of capture/emission events across all traps.
    pub fn event_count(&self) -> usize {
        self.occupancies.iter().map(Pwc::transition_count).sum()
    }

    /// The RTN current scaled by `k` — the paper scales by 30 in Fig 8e
    /// to make the (rare) write error visible at 90 nm.
    #[must_use]
    pub fn scaled_current(&self, k: f64) -> Pwc {
        self.i_rtn.scaled(k)
    }

    /// Samples the RTN current on a uniform grid for spectral analysis.
    pub fn sample_current(&self, t0: f64, dt: f64, n: usize) -> Trace {
        self.i_rtn.sample(t0, dt, n)
    }
}

/// Generates RTN traces for a device with a fixed trap population.
///
/// This is the crate's main entry point: construct it from device
/// parameters and a trap profile (hand-written or sampled by
/// `samurai_trap::TrapProfiler`), then call
/// [`generate`](Self::generate) with the bias waveforms of interest.
///
/// # Examples
///
/// ```
/// use samurai_core::{RtnGenerator, BiasWaveforms};
/// use samurai_trap::{DeviceParams, TrapParams};
/// use samurai_units::{Energy, Length};
///
/// let traps = vec![
///     TrapParams::new(Length::from_nanometres(1.5), Energy::from_ev(0.3)),
///     TrapParams::new(Length::from_nanometres(1.7), Energy::from_ev(0.45)),
/// ];
/// let gen = RtnGenerator::new(DeviceParams::nominal_90nm(), traps).with_seed(1);
/// let rtn = gen.generate(&BiasWaveforms::constant(0.9, 8e-6), 0.0, 1e-2)?;
/// assert_eq!(rtn.occupancies.len(), 2);
/// # Ok::<(), samurai_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RtnGenerator {
    device: DeviceParams,
    models: Vec<PropensityModel>,
    seeds: SeedStream,
    method: TraceMethod,
    config: UniformisationConfig,
    current_oversample: usize,
    amplitude: AmplitudeModel,
    parallelism: Parallelism,
}

impl RtnGenerator {
    /// Creates a generator for `device` hosting `traps`.
    pub fn new(device: DeviceParams, traps: Vec<TrapParams>) -> Self {
        let models = traps
            .into_iter()
            .map(|t| PropensityModel::new(device, t))
            .collect();
        Self {
            device,
            models,
            seeds: SeedStream::new(0),
            method: TraceMethod::Uniformisation,
            config: UniformisationConfig::default(),
            current_oversample: 256,
            amplitude: AmplitudeModel::Uniform,
            parallelism: Parallelism::Fixed(1),
        }
    }

    /// Sets the master seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seeds = SeedStream::new(seed);
        self
    }

    /// Selects the stochastic kernel (builder style).
    #[must_use]
    pub fn with_method(mut self, method: TraceMethod) -> Self {
        self.method = method;
        self
    }

    /// Overrides the uniformisation configuration (builder style).
    #[must_use]
    pub fn with_config(mut self, config: UniformisationConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets how many uniform extra sample points refine the Eq (3)
    /// current between trap events (builder style, default 256).
    #[must_use]
    pub fn with_current_oversample(mut self, n: usize) -> Self {
        self.current_oversample = n;
        self
    }

    /// Selects how per-trap amplitudes combine (builder style; default
    /// the paper's uniform Eq (3) weighting).
    #[must_use]
    pub fn with_amplitude_model(mut self, amplitude: AmplitudeModel) -> Self {
        self.amplitude = amplitude;
        self
    }

    /// Shards the per-trap simulations over a worker pool (builder
    /// style; default sequential). Trap `i` always draws from stream
    /// `i` of the master seed, so the generated traces are
    /// bit-identical for every worker count.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The device parameters.
    pub fn device(&self) -> &DeviceParams {
        &self.device
    }

    /// Number of traps.
    pub fn trap_count(&self) -> usize {
        self.models.len()
    }

    /// The per-trap propensity models.
    pub fn models(&self) -> &[PropensityModel] {
        &self.models
    }

    /// Generates the device's RTN over `[t0, tf]` under `bias`.
    ///
    /// # Errors
    ///
    /// Propagates per-trap simulation errors ([`CoreError`]).
    pub fn generate(&self, bias: &BiasWaveforms, t0: f64, tf: f64) -> Result<DeviceRtn, CoreError> {
        self.generate_observed(bias, t0, tf, &mut Recorder::noop())
    }

    /// [`generate`](Self::generate) reporting per-trap event counts and
    /// timings into a telemetry [`Recorder`]; the traces are
    /// bit-identical to the unobserved path.
    ///
    /// # Errors
    ///
    /// As [`generate`](Self::generate).
    pub fn generate_observed<S: MetricsSink>(
        &self,
        bias: &BiasWaveforms,
        t0: f64,
        tf: f64,
        recorder: &mut Recorder<S>,
    ) -> Result<DeviceRtn, CoreError> {
        if !(tf > t0) {
            return Err(CoreError::EmptyHorizon { t0, tf });
        }
        let occupancies: Vec<Pwc> = run_ensemble_resilient_observed(
            self.models.len(),
            self.parallelism,
            &ExecutionPolicy::default(),
            recorder,
            IndexedResults::new,
            |i, _rung, probe: &mut JobProbe| {
                let m = &self.models[i];
                let mut rng = self.seeds.rng(i as u64);
                match self.method {
                    TraceMethod::Uniformisation => {
                        simulate_trap_probed(m, &bias.v_gs, t0, tf, &mut rng, &self.config, probe)
                    }
                    TraceMethod::FrozenRateSsa => {
                        gillespie::frozen_rate_ssa(m, &bias.v_gs, t0, tf, &mut rng)
                    }
                    TraceMethod::YeTwoStage => crate::ye::generate(
                        m,
                        bias.v_gs.eval(t0),
                        t0,
                        tf,
                        &mut rng,
                        &crate::ye::YeConfig::default(),
                    ),
                }
            },
        )?
        .acc
        .into_vec();

        let trap_params: Vec<_> = self.models.iter().map(|m| *m.trap()).collect();
        let n_filled = self.amplitude.effective_filled(&trap_params, &occupancies);
        let i_rtn = rtn_current(
            &self.device,
            &n_filled,
            bias,
            t0,
            tf,
            self.current_oversample,
        );
        Ok(DeviceRtn {
            occupancies,
            n_filled,
            i_rtn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samurai_units::{Energy, Length};
    use samurai_waveform::Pwl;

    fn slow_traps() -> Vec<TrapParams> {
        vec![
            TrapParams::new(Length::from_nanometres(1.7), Energy::from_ev(0.35)),
            TrapParams::new(Length::from_nanometres(1.8), Energy::from_ev(0.45)),
            TrapParams::new(Length::from_nanometres(1.9), Energy::from_ev(0.40)),
        ]
    }

    fn horizon(gen: &RtnGenerator) -> f64 {
        let slowest = gen
            .models()
            .iter()
            .map(|m| m.rate_sum())
            .fold(f64::INFINITY, f64::min);
        500.0 / slowest
    }

    #[test]
    fn generates_one_occupancy_per_trap_and_a_consistent_sum() {
        let gen = RtnGenerator::new(DeviceParams::nominal_90nm(), slow_traps()).with_seed(2);
        let tf = horizon(&gen);
        let rtn = gen
            .generate(&BiasWaveforms::constant(0.9, 10e-6), 0.0, tf)
            .unwrap();
        assert_eq!(rtn.occupancies.len(), 3);
        // N_filled equals the sum of occupancies at random probes.
        for k in 0..50 {
            let t = tf * (k as f64 + 0.5) / 50.0;
            let sum: f64 = rtn.occupancies.iter().map(|o| o.eval(t)).sum();
            assert!((rtn.n_filled.eval(t) - sum).abs() < 1e-12);
        }
        assert!(rtn.n_filled.max_value() <= 3.0);
        assert!(rtn.event_count() > 0);
    }

    #[test]
    fn current_is_nonnegative_and_bounded_by_full_occupancy() {
        let gen = RtnGenerator::new(DeviceParams::nominal_90nm(), slow_traps()).with_seed(3);
        let tf = horizon(&gen);
        let bias = BiasWaveforms::constant(0.9, 10e-6);
        let rtn = gen.generate(&bias, 0.0, tf).unwrap();
        let di = crate::single_trap_amplitude(gen.device(), 0.9, 10e-6);
        assert!(rtn.i_rtn.min_value() >= 0.0);
        assert!(rtn.i_rtn.max_value() <= 3.0 * di * (1.0 + 1e-9));
    }

    #[test]
    fn scaling_matches_the_paper_factor() {
        let gen = RtnGenerator::new(DeviceParams::nominal_90nm(), slow_traps()).with_seed(4);
        let tf = horizon(&gen);
        let rtn = gen
            .generate(&BiasWaveforms::constant(0.9, 10e-6), 0.0, tf)
            .unwrap();
        let scaled = rtn.scaled_current(30.0);
        assert!((scaled.max_value() - 30.0 * rtn.i_rtn.max_value()).abs() < 1e-18);
    }

    #[test]
    fn deterministic_per_seed_and_divergent_across_seeds() {
        let bias = BiasWaveforms::constant(0.9, 10e-6);
        let mk = |seed| {
            let gen = RtnGenerator::new(DeviceParams::nominal_90nm(), slow_traps()).with_seed(seed);
            let tf = horizon(&gen);
            gen.generate(&bias, 0.0, tf).unwrap()
        };
        assert_eq!(mk(7).n_filled, mk(7).n_filled);
        assert_ne!(mk(7).n_filled, mk(8).n_filled);
    }

    #[test]
    fn zero_trap_device_is_silent() {
        let gen = RtnGenerator::new(DeviceParams::nominal_90nm(), vec![]).with_seed(1);
        let rtn = gen
            .generate(&BiasWaveforms::constant(0.9, 10e-6), 0.0, 1e-3)
            .unwrap();
        assert!(rtn.occupancies.is_empty());
        assert_eq!(rtn.i_rtn.max_value(), 0.0);
        assert_eq!(rtn.event_count(), 0);
    }

    #[test]
    fn depth_weighted_amplitudes_shrink_the_current() {
        let traps = slow_traps(); // depths 1.7, 1.8, 1.9 nm
        let bias = BiasWaveforms::constant(0.9, 10e-6);
        let uniform = RtnGenerator::new(DeviceParams::nominal_90nm(), traps.clone()).with_seed(6);
        let tf = horizon(&uniform);
        let base = uniform.generate(&bias, 0.0, tf).unwrap();
        let weighted = RtnGenerator::new(DeviceParams::nominal_90nm(), traps)
            .with_seed(6)
            .with_amplitude_model(AmplitudeModel::DepthWeighted { attenuation: 1e-9 })
            .generate(&bias, 0.0, tf)
            .unwrap();
        // Same trajectories (same seed), weaker weighted current.
        assert_eq!(base.occupancies, weighted.occupancies);
        assert!(weighted.n_filled.max_value() < base.n_filled.max_value());
        assert!(weighted.i_rtn.max_value() <= base.i_rtn.max_value());
    }

    #[test]
    fn method_selection_changes_the_kernel() {
        let base = RtnGenerator::new(DeviceParams::nominal_90nm(), slow_traps()).with_seed(5);
        // Bisect for a bias where the first trap is half-filled, so all
        // kernels produce genuinely busy (and hence distinct) traces.
        let m0 = base.models()[0];
        let (mut lo, mut hi) = (-2.0, 3.0);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if m0.stationary_occupancy(mid) < 0.5 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let bias = BiasWaveforms::new(Pwl::constant(0.5 * (lo + hi)), Pwl::constant(10e-6));
        let tf = horizon(&base);
        let unif = base.clone().generate(&bias, 0.0, tf).unwrap();
        let ssa = base
            .clone()
            .with_method(TraceMethod::FrozenRateSsa)
            .generate(&bias, 0.0, tf)
            .unwrap();
        let ye = base
            .with_method(TraceMethod::YeTwoStage)
            .generate(&bias, 0.0, tf)
            .unwrap();
        // Different kernels, same seed: different trajectories.
        assert_ne!(unif.n_filled, ssa.n_filled);
        assert_ne!(unif.n_filled, ye.n_filled);
    }
}
