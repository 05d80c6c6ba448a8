//! High-level per-device RTN trace generation: Algorithm 1 for every
//! trap of a device, then Eq (3) on their summed occupancy.

use crate::ensemble::{
    run_ensemble_resilient_observed, ExecutionPolicy, IndexedResults, Parallelism,
};
use crate::{
    rtn_current, simulate_trap_probed, BiasWaveforms, CoreError, SeedStream, UniformisationConfig,
};
use samurai_telemetry::{JobProbe, Recorder};
use samurai_trap::{DeviceParams, PropensityModel, TrapParams};
use samurai_waveform::Pwc;

/// The full RTN output for one device over one simulation horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRtn {
    /// Per-trap occupancy staircases (0/1), in trap order.
    pub occupancies: Vec<Pwc>,
    /// The filled-trap count `N_filled(t)`: the sum of the occupancies,
    /// every trap weighted the same as in Eq (3).
    pub n_filled: Pwc,
    /// The Eq (3) RTN current `I_RTN(t)`, in amperes.
    pub i_rtn: Pwc,
    /// Algorithm 1's candidate events across all traps.
    pub candidates: u64,
}

impl DeviceRtn {
    /// Total number of capture/emission events across all traps.
    pub fn event_count(&self) -> usize {
        self.occupancies.iter().map(Pwc::transition_count).sum()
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
    current_oversample: usize,
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
            current_oversample: 256,
            parallelism: Parallelism::Fixed(1),
        }
    }

    /// Sets the master seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seeds = SeedStream::new(seed);
        self
    }

    /// Sets how many uniform extra sample points refine the Eq (3)
    /// current between trap events (builder style, default 256).
    #[must_use]
    pub fn with_current_oversample(mut self, n: usize) -> Self {
        self.current_oversample = n;
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
    pub fn generate_observed(
        &self,
        bias: &BiasWaveforms,
        t0: f64,
        tf: f64,
        recorder: &mut Recorder,
    ) -> Result<DeviceRtn, CoreError> {
        if !(tf > t0) {
            return Err(CoreError::EmptyHorizon { t0, tf });
        }
        let config = UniformisationConfig::default();
        let (occupancies, candidates): (Vec<Pwc>, Vec<u64>) = run_ensemble_resilient_observed(
            self.models.len(),
            self.parallelism,
            &ExecutionPolicy::default(),
            recorder,
            IndexedResults::new,
            |i, _rung, probe: &mut JobProbe| {
                let mut rng = self.seeds.rng(i as u64);
                let mut counted = JobProbe::new(true);
                let occupancy = simulate_trap_probed(
                    &self.models[i],
                    &bias.v_gs,
                    t0,
                    tf,
                    &mut rng,
                    &config,
                    &mut counted,
                )?;
                probe.record_trap(counted.trap());
                Ok::<_, CoreError>((occupancy, counted.trap().candidates))
            },
        )?
        .acc
        .into_vec()
        .into_iter()
        .unzip();

        let n_filled = Pwc::sum(&occupancies).unwrap_or_else(|| Pwc::constant(0.0));
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
            candidates: candidates.iter().sum(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samurai_trap::TrapState;
    use samurai_units::{Energy, Length};

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
    fn uniform_weighting_recovers_the_plain_count() {
        // Eq (3) weights every filled trap the same, so N_filled is the
        // number of filled traps, exactly, at every instant.
        let traps: Vec<TrapParams> = slow_traps()
            .into_iter()
            .zip([TrapState::Filled, TrapState::Filled, TrapState::Empty])
            .map(|(t, s)| t.with_initial_state(s))
            .collect();
        let gen = RtnGenerator::new(DeviceParams::nominal_90nm(), traps).with_seed(6);
        let tf = horizon(&gen);
        let rtn = gen
            .generate(&BiasWaveforms::constant(0.9, 10e-6), 0.0, tf)
            .unwrap();
        assert_eq!(rtn.n_filled.eval(0.0), 2.0);
        for k in 0..200 {
            let t = tf * k as f64 / 200.0;
            let filled = rtn.occupancies.iter().filter(|o| o.eval(t) == 1.0).count();
            assert_eq!(rtn.n_filled.eval(t), filled as f64, "t = {t}");
        }
    }
}
