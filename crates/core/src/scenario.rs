//! The unified per-job scenario layer: one deterministic sampling
//! surface that turns a job-indexed RNG stream into a complete
//! simulation scenario — per-device mismatch, geometry spread,
//! supply/temperature corner, aging stress time and trap-count
//! dispersion.
//!
//! Before this module, per-job variation was scattered: the column
//! builder took raw Vt offsets, `trap::degradation` aged devices on
//! its own clock, and each bench bin wired its own knobs. A
//! [`ScenarioConfig`] now describes the *distribution* once, and
//! [`ScenarioConfig::sample`] expands it — via the existing
//! [`SeedStream`](crate::SeedStream)-derived ChaCha streams — into a
//! per-job [`ScenarioSample`] whose [`hash`](ScenarioSample::hash)
//! is journalled with every job, so any quarantined or rescued cell
//! is attributable to its exact corner.
//!
//! # Sampling order (the determinism contract)
//!
//! For a given RNG stream the draw order is fixed and documented; a
//! zero-width knob **draws nothing**, so enabling one axis never
//! perturbs the streams of the others:
//!
//! 1. per device, in index order: threshold mismatch (one standard
//!    normal, iff the effective sigma is positive), then beta
//!    mismatch, then geometry spread;
//! 2. supply corner (one uniform, iff the range has width);
//! 3. temperature corner (one uniform, iff the range has width);
//! 4. trap-count dispersion (one standard normal, iff
//!    `sigma_density > 0`).
//!
//! [`ScenarioConfig::fixed_vth_sigma`] reproduces the historical
//! flat-sigma draw sequence bit-for-bit. The SRAM array and column
//! ensembles have no separate mismatch knob: their `scenario: None`
//! samples `fixed_vth_sigma(0.02)` and journals no scenario stamp.

use rand_chacha::ChaCha8Rng;

use samurai_telemetry::ScenarioStamp;
use samurai_trap::standard_normal;

use crate::rng::splitmix64;

/// Reference temperature of a nominal scenario, kelvin — the same
/// standard simulation temperature every trap-physics device defaults
/// to, so a nominal corner override is bit-identical to no override.
pub const NOMINAL_TEMPERATURE: f64 = samurai_units::constants::ROOM_TEMPERATURE_K;

/// One device's drawn geometry, metres — the Pelgrom area input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceGeometry {
    /// Channel width.
    pub width: f64,
    /// Channel length.
    pub length: f64,
}

impl DeviceGeometry {
    /// Gate area `W·L`, square metres.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.width * self.length
    }
}

/// The distribution a per-job scenario is drawn from.
///
/// All sigmas default to zero and all ranges to a point, so
/// [`ScenarioConfig::nominal`] describes the unvaried, unaged cell
/// and every consumer's legacy golden is reproduced exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Area-independent threshold-mismatch sigma, volts.
    pub sigma_vth: f64,
    /// Pelgrom mismatch coefficient `A_VT`, volt·metres: contributes
    /// `A_VT / sqrt(W·L)` to the per-device threshold sigma.
    pub a_vt: f64,
    /// Relative sigma of the per-device current-factor (beta) spread.
    pub sigma_beta: f64,
    /// Relative sigma of the per-device geometry (W, L) spread.
    pub sigma_geometry: f64,
    /// Supply corner range as scale factors on the nominal VDD,
    /// sampled uniformly. A point range `(s, s)` draws nothing.
    pub vdd_range: (f64, f64),
    /// Temperature corner range, kelvin, sampled uniformly. A point
    /// range draws nothing.
    pub temperature_range: (f64, f64),
    /// NBTI stress time the scenario's devices have aged for, seconds.
    pub stress_time: f64,
    /// Log-normal sigma of the trap-density dispersion: the sampled
    /// multiplier is `exp(sigma_density · z)`.
    pub sigma_density: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self::nominal()
    }
}

impl ScenarioConfig {
    /// The nominal scenario: no mismatch, no corner, no aging, no
    /// dispersion. Sampling it draws nothing from the stream and
    /// reproduces every pre-scenario golden bit-for-bit.
    #[must_use]
    pub fn nominal() -> Self {
        Self {
            sigma_vth: 0.0,
            a_vt: 0.0,
            sigma_beta: 0.0,
            sigma_geometry: 0.0,
            vdd_range: (1.0, 1.0),
            temperature_range: (NOMINAL_TEMPERATURE, NOMINAL_TEMPERATURE),
            stress_time: 0.0,
            sigma_density: 0.0,
        }
    }

    /// The fixed-sigma mismatch scenario: one area-independent
    /// threshold sigma, nothing else — one standard normal per device,
    /// in device order, the historical flat-sigma draw sequence.
    #[must_use]
    pub fn fixed_vth_sigma(sigma: f64) -> Self {
        Self {
            sigma_vth: sigma,
            ..Self::nominal()
        }
    }

    /// The effective threshold-mismatch sigma of one device: the flat
    /// `sigma_vth` plus the Pelgrom term `A_VT / sqrt(W·L)`.
    #[must_use]
    pub fn vth_sigma_for(&self, geometry: DeviceGeometry) -> f64 {
        let mut sigma = self.sigma_vth;
        if self.a_vt > 0.0 {
            sigma += self.a_vt / geometry.area().sqrt();
        }
        sigma
    }

    /// Expands the configuration into one job's concrete scenario,
    /// drawing from `rng` in the documented order (one device entry
    /// per element of `geometries`).
    #[must_use]
    pub fn sample(&self, rng: &mut ChaCha8Rng, geometries: &[DeviceGeometry]) -> ScenarioSample {
        let mut hasher = ScenarioHasher::new();
        let mut devices = Vec::with_capacity(geometries.len());
        for &geometry in geometries {
            let sigma = self.vth_sigma_for(geometry);
            let vth_delta = if sigma > 0.0 {
                // lint: fixed-draw: guard is ensemble-constant config; every job branches alike
                sigma * standard_normal(rng)
            } else {
                0.0
            };
            let beta_scale = if self.sigma_beta > 0.0 {
                // lint: fixed-draw: guard is ensemble-constant config; every job branches alike
                scale_floor(1.0 + self.sigma_beta * standard_normal(rng))
            } else {
                1.0
            };
            let geom_scale = if self.sigma_geometry > 0.0 {
                // lint: fixed-draw: guard is ensemble-constant config; every job branches alike
                scale_floor(1.0 + self.sigma_geometry * standard_normal(rng))
            } else {
                1.0
            };
            hasher.mix(vth_delta);
            hasher.mix(beta_scale);
            hasher.mix(geom_scale);
            devices.push(DeviceVariation {
                vth_delta,
                beta_scale,
                geom_scale,
            });
        }
        let vdd_scale = sample_uniform(rng, self.vdd_range);
        let temperature = sample_uniform(rng, self.temperature_range);
        let density_scale = if self.sigma_density > 0.0 {
            // lint: fixed-draw: guard is ensemble-constant config; every job branches alike
            (self.sigma_density * standard_normal(rng)).exp()
        } else {
            1.0
        };
        hasher.mix(vdd_scale);
        hasher.mix(temperature);
        hasher.mix(density_scale);
        hasher.mix(self.stress_time);
        ScenarioSample {
            devices,
            vdd_scale,
            temperature,
            density_scale,
            stress_time: self.stress_time,
            hash: hasher.finish(),
        }
    }
}

/// Draws uniformly from a corner range; a point range draws nothing.
fn sample_uniform(rng: &mut ChaCha8Rng, range: (f64, f64)) -> f64 {
    let (lo, hi) = range;
    if lo == hi {
        return lo;
    }
    use rand::Rng;
    // lint: fixed-draw: point-range guard is ensemble-constant config; every job branches alike
    lo + rng.gen::<f64>() * (hi - lo)
}

/// Clamps a multiplicative spread away from zero so a many-sigma draw
/// can never produce a non-physical negative width or current factor.
fn scale_floor(scale: f64) -> f64 {
    scale.max(0.05)
}

/// One device's drawn variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceVariation {
    /// Threshold-voltage delta, volts (added to the nominal Vt).
    pub vth_delta: f64,
    /// Multiplier on the device transconductance factor.
    pub beta_scale: f64,
    /// Multiplier on the device geometry (W, L and the capacitances
    /// that scale with them).
    pub geom_scale: f64,
}

impl DeviceVariation {
    /// The unvaried device.
    #[must_use]
    pub fn nominal() -> Self {
        Self {
            vth_delta: 0.0,
            beta_scale: 1.0,
            geom_scale: 1.0,
        }
    }
}

/// One job's fully expanded scenario: what the job index plus the
/// master seed deterministically turned into.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSample {
    /// Per-device variation, in the sampling (device-index) order.
    pub devices: Vec<DeviceVariation>,
    /// Supply scale factor of this job's corner.
    pub vdd_scale: f64,
    /// Temperature of this job's corner, kelvin.
    pub temperature: f64,
    /// Multiplier on the technology's trap density.
    pub density_scale: f64,
    /// NBTI stress time, seconds.
    pub stress_time: f64,
    /// SplitMix64 fold over every sampled value — the scenario's
    /// reproducibility ticket, journalled per job.
    pub hash: u64,
}

impl ScenarioSample {
    /// The variation of device `index` (nominal when out of range, so
    /// periphery devices outside the sampled set read as unvaried).
    #[must_use]
    pub fn device(&self, index: usize) -> DeviceVariation {
        self.devices
            .get(index)
            .copied()
            .unwrap_or_else(DeviceVariation::nominal)
    }

    /// The journal stamp `(hash, aging time)` of this scenario.
    #[must_use]
    pub fn stamp(&self) -> ScenarioStamp {
        ScenarioStamp {
            hash: self.hash,
            aging_seconds: self.stress_time,
        }
    }
}

/// SplitMix64 fold over sampled `f64` bit patterns.
struct ScenarioHasher {
    acc: u64,
}

impl ScenarioHasher {
    fn new() -> Self {
        // Arbitrary non-zero start so an empty scenario hashes
        // differently from seed zero.
        Self {
            acc: 0x5343_454e_4152_494f, // "SCENARIO" truncated to 8 bytes
        }
    }

    fn mix(&mut self, value: f64) {
        self.acc = splitmix64(self.acc ^ splitmix64(value.to_bits()));
    }

    fn finish(&self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedStream;

    const GEOMS: [DeviceGeometry; 2] = [
        DeviceGeometry {
            width: 180e-9,
            length: 90e-9,
        },
        DeviceGeometry {
            width: 300e-9,
            length: 90e-9,
        },
    ];

    #[test]
    fn nominal_scenario_draws_nothing() {
        use rand::Rng;
        let stream = SeedStream::new(3);
        let mut rng = stream.rng(0);
        let sample = ScenarioConfig::nominal().sample(&mut rng, &GEOMS);
        // The stream was never touched: the next draw equals a fresh
        // stream's first draw.
        assert_eq!(rng.gen::<u64>(), stream.rng(0).gen::<u64>());
        assert_eq!(sample.devices.len(), 2);
        for d in &sample.devices {
            assert_eq!(d.vth_delta, 0.0);
            assert_eq!(d.beta_scale, 1.0);
            assert_eq!(d.geom_scale, 1.0);
        }
        assert_eq!(sample.vdd_scale, 1.0);
        assert_eq!(sample.temperature, NOMINAL_TEMPERATURE);
        assert_eq!(sample.density_scale, 1.0);
        assert_eq!(sample.stress_time, 0.0);
    }

    #[test]
    fn fixed_sigma_reproduces_the_legacy_draw_sequence() {
        let stream = SeedStream::new(17);
        let sample = ScenarioConfig::fixed_vth_sigma(0.02).sample(&mut stream.rng(0), &GEOMS);
        let mut legacy = stream.rng(0);
        for d in &sample.devices {
            assert_eq!(d.vth_delta, 0.02 * standard_normal(&mut legacy));
            assert_eq!(d.beta_scale, 1.0);
            assert_eq!(d.geom_scale, 1.0);
        }
    }

    #[test]
    fn pelgrom_scaling_shrinks_sigma_with_area() {
        let config = ScenarioConfig {
            a_vt: 1.8e-9,
            ..ScenarioConfig::nominal()
        };
        let small = config.vth_sigma_for(GEOMS[0]);
        let large = config.vth_sigma_for(GEOMS[1]);
        assert!(small > large);
        let expected = 1.8e-9 / GEOMS[0].area().sqrt();
        assert!((small - expected).abs() < 1e-15 * expected.abs());
    }

    #[test]
    fn samples_are_reproducible_and_hash_discriminates() {
        let config = ScenarioConfig {
            sigma_vth: 0.02,
            sigma_beta: 0.03,
            sigma_geometry: 0.01,
            vdd_range: (0.9, 1.1),
            temperature_range: (250.0, 400.0),
            stress_time: 1e7,
            sigma_density: 0.2,
            ..ScenarioConfig::nominal()
        };
        let stream = SeedStream::new(5);
        let a = config.sample(&mut stream.rng(0), &GEOMS);
        let b = config.sample(&mut stream.rng(0), &GEOMS);
        assert_eq!(a, b);
        let c = config.sample(&mut stream.rng(1), &GEOMS);
        assert_ne!(a.hash, c.hash);
        assert!(a.vdd_scale >= 0.9 && a.vdd_scale <= 1.1);
        assert!(a.temperature >= 250.0 && a.temperature <= 400.0);
        assert!(a.density_scale > 0.0);
        assert_eq!(a.stamp().hash, a.hash);
        assert_eq!(a.stamp().aging_seconds, 1e7);
    }

    #[test]
    fn out_of_range_device_reads_nominal() {
        let sample = ScenarioConfig::nominal().sample(&mut SeedStream::new(0).rng(0), &GEOMS);
        assert_eq!(sample.device(99), DeviceVariation::nominal());
    }
}
