//! Statistical trap profiling — the stand-in for the Dunga model \[6\].
//!
//! The paper samples device *trap profiles* (how many traps, where, at
//! what energy) from the statistical model of reference \[6\]. That model
//! is itself statistical; what the paper's conclusions rest on is:
//!
//! * the trap **count** in a device is Poisson with mean proportional
//!   to gate area (oxide traps are a bulk defect population);
//! * trap **depths** are uniform through the oxide thickness — this is
//!   what produces the log-uniform spread of corner frequencies behind
//!   1/f noise;
//! * trap **energies** are spread over a band around the Fermi level.
//!
//! [`TrapProfiler`] implements exactly that, parameterised per
//! [`Technology`]. The presets shrink the device area with the node so
//! that the expected active-trap count falls from "many" (older nodes,
//! where the 1/f limit is a good fit — paper Fig 3 left) to the 5–10 of
//! deeply scaled nodes (where it fails — Fig 3 right).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{DeviceParams, TrapParams};
use samurai_units::{Energy, Length, Temperature, Voltage};

/// A CMOS technology node: device geometry plus the trap population
/// statistics used by [`TrapProfiler`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Technology {
    /// Human-readable node name, e.g. `"90nm"`.
    pub name: String,
    /// Nominal supply voltage.
    pub vdd: Voltage,
    /// Parameters of the minimum-size NFET used in trap studies.
    pub device: DeviceParams,
    /// Areal trap density in traps per m² of gate area (integrated over
    /// the modelled depth and energy ranges).
    pub trap_density: f64,
    /// Sampled trap-depth range `[min, max]` into the oxide.
    pub depth_range: (Length, Length),
    /// Sampled flat-band energy-offset range `[min, max]`.
    pub energy_range: (Energy, Energy),
}

impl Technology {
    /// Expected number of traps per device, `density · W · L`.
    pub fn mean_trap_count(&self) -> f64 {
        self.trap_density * self.device.area()
    }

    fn node(
        name: &str,
        vdd: f64,
        w_nm: f64,
        l_nm: f64,
        tox_nm: f64,
        vth: f64,
        trap_density: f64,
    ) -> Self {
        let device = DeviceParams {
            width: Length::from_nanometres(w_nm),
            length: Length::from_nanometres(l_nm),
            t_ox: Length::from_nanometres(tox_nm),
            v_th: Voltage::from_volts(vth),
            v_fb: Voltage::from_volts(-0.8),
            doping: 3.0e23,
            temperature: Temperature::ROOM,
        };
        Self {
            name: name.to_owned(),
            vdd: Voltage::from_volts(vdd),
            device,
            trap_density,
            depth_range: (
                Length::from_nanometres(0.2),
                Length::from_nanometres(0.9 * tox_nm),
            ),
            energy_range: (Energy::from_ev(-0.1), Energy::from_ev(0.6)),
        }
    }

    /// 180 nm node: large devices, ~100 active traps — the "older
    /// technology" of Fig 3 where the analytical 1/f fit works.
    pub fn node_180nm() -> Self {
        Self::node("180nm", 1.8, 1000.0, 180.0, 4.0, 0.45, 5.6e14)
    }

    /// 130 nm node.
    pub fn node_130nm() -> Self {
        Self::node("130nm", 1.5, 600.0, 130.0, 3.0, 0.42, 5.8e14)
    }

    /// 90 nm node: the technology of the paper's Fig 8 demonstration.
    pub fn node_90nm() -> Self {
        Self::node("90nm", 1.1, 240.0, 90.0, 2.0, 0.35, 9.3e14)
    }

    /// 65 nm node.
    pub fn node_65nm() -> Self {
        Self::node("65nm", 1.0, 160.0, 65.0, 1.8, 0.33, 9.6e14)
    }

    /// 45 nm node: the "newer technology" of Fig 3 — only ~5–10 active
    /// traps, so the 1/f fit fails.
    pub fn node_45nm() -> Self {
        Self::node("45nm", 0.9, 90.0, 45.0, 1.4, 0.32, 1.73e15)
    }

    /// 32 nm node.
    pub fn node_32nm() -> Self {
        Self::node("32nm", 0.85, 64.0, 32.0, 1.2, 0.3, 2.2e15)
    }

    /// 22 nm node: the regime the paper predicts needs no artificial
    /// RTN scaling to see write errors.
    pub fn node_22nm() -> Self {
        Self::node("22nm", 0.8, 44.0, 22.0, 1.0, 0.28, 3.1e15)
    }

    /// All presets, oldest first — the x-axis of the Fig 2 margin plot.
    pub fn all_nodes() -> Vec<Self> {
        vec![
            Self::node_180nm(),
            Self::node_130nm(),
            Self::node_90nm(),
            Self::node_65nm(),
            Self::node_45nm(),
            Self::node_32nm(),
            Self::node_22nm(),
        ]
    }
}

/// Samples random trap profiles for devices of a [`Technology`].
///
/// # Examples
///
/// ```
/// use samurai_trap::{Technology, TrapProfiler};
/// use rand::SeedableRng;
///
/// let tech = Technology::node_45nm();
/// let profiler = TrapProfiler::new(tech);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let traps = profiler.sample(&mut rng);
/// // Deeply scaled node: a handful of traps, not hundreds.
/// assert!(traps.len() < 40);
/// ```
#[derive(Debug, Clone)]
pub struct TrapProfiler {
    tech: Technology,
}

impl TrapProfiler {
    /// Creates a profiler for a technology.
    pub fn new(tech: Technology) -> Self {
        Self { tech }
    }

    /// The underlying technology.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// Samples one device's trap profile: a Poisson-distributed number
    /// of traps with uniform depths and energies.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<TrapParams> {
        let n = poisson(rng, self.tech.mean_trap_count());
        (0..n).map(|_| self.sample_trap(rng)).collect()
    }

    /// Samples one trap's parameters (uniform depth and energy).
    pub fn sample_trap<R: Rng + ?Sized>(&self, rng: &mut R) -> TrapParams {
        let (d0, d1) = self.tech.depth_range;
        let (e0, e1) = self.tech.energy_range;
        let depth = Length::from_metres(rng.gen_range(d0.metres()..d1.metres()));
        let energy = Energy::from_joules(rng.gen_range(e0.joules()..e1.joules()));
        TrapParams::new(depth, energy)
    }
}

/// Draws a Poisson-distributed count with the given mean.
///
/// Uses Knuth's product-of-uniforms method for small means and a
/// normal approximation (rounded, clamped at zero) for large means,
/// where the Knuth loop would need ~mean iterations.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> usize {
    assert!(mean >= 0.0 && mean.is_finite(), "Poisson mean must be >= 0");
    // lint: allow(HYG004): exact zero mean is the empty-distribution sentinel
    if mean == 0.0 {
        return 0;
    }
    if mean > 200.0 {
        // Normal approximation N(mean, mean).
        // lint: fixed-draw: mean-dependent consumption is the sampler's documented contract
        let z = standard_normal(rng);
        let x = mean + mean.sqrt() * z;
        return x.round().max(0.0) as usize;
    }
    let limit = (-mean).exp();
    let mut count = 0usize;
    // lint: fixed-draw: Knuth's method consumes a data-dependent number of uniforms by design
    let mut prod: f64 = rng.gen();
    while prod > limit {
        count += 1;
        // lint: fixed-draw: Knuth's method consumes a data-dependent number of uniforms by design
        prod *= rng.gen::<f64>();
    }
    count
}

/// Draws a standard normal deviate via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn node_presets_scale_as_expected() {
        let old = Technology::node_180nm();
        let new = Technology::node_45nm();
        assert!(
            old.mean_trap_count() > 50.0,
            "old node should have many traps: {}",
            old.mean_trap_count()
        );
        assert!(
            new.mean_trap_count() > 2.0 && new.mean_trap_count() < 15.0,
            "new node should have ~5-10 traps: {}",
            new.mean_trap_count()
        );
        assert!(old.vdd > new.vdd);
        assert_eq!(Technology::all_nodes().len(), 7);
    }

    #[test]
    fn sampled_traps_respect_ranges() {
        let tech = Technology::node_90nm();
        let profiler = TrapProfiler::new(tech.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..50 {
            let trap = profiler.sample_trap(&mut rng);
            assert!(trap.depth >= tech.depth_range.0 && trap.depth <= tech.depth_range.1);
            assert!(trap.energy >= tech.energy_range.0 && trap.energy <= tech.energy_range.1);
        }
    }

    #[test]
    fn profiles_are_reproducible_with_the_same_seed() {
        let profiler = TrapProfiler::new(Technology::node_45nm());
        let a = profiler.sample(&mut ChaCha8Rng::seed_from_u64(9));
        let b = profiler.sample(&mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn poisson_mean_and_variance() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mean = 6.5;
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| poisson(&mut rng, mean) as f64).collect();
        let m = draws.iter().sum::<f64>() / n as f64;
        let v = draws.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        assert!((m - mean).abs() < 0.15, "sample mean {m}");
        assert!((v - mean).abs() < 0.5, "sample variance {v}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_tail_safely() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mean = 1000.0;
        let n = 2_000;
        let draws: Vec<f64> = (0..n).map(|_| poisson(&mut rng, mean) as f64).collect();
        let m = draws.iter().sum::<f64>() / n as f64;
        assert!((m - mean).abs() < 5.0, "sample mean {m}");
    }

    #[test]
    fn poisson_zero_mean_is_always_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let m = draws.iter().sum::<f64>() / n as f64;
        let v = draws.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((v - 1.0).abs() < 0.03, "variance {v}");
    }
}
