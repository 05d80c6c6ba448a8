//! Device-level parameters a trap's statistics depend on.

use serde::{Deserialize, Serialize};

use samurai_units::constants::{ELEMENTARY_CHARGE, SILICON_NI, SIO2_PERMITTIVITY};
use samurai_units::{Length, Temperature, Voltage};

/// Electrical and geometric parameters of the MOS transistor hosting
/// the traps.
///
/// The fields cover exactly what the paper's equations need: Eq (2)
/// requires the band-bending (surface-potential) response to the gate
/// bias, and Eq (3) requires geometry (`W·L`) and the areal carrier
/// density `N(t)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceParams {
    /// Channel width.
    pub width: Length,
    /// Channel length.
    pub length: Length,
    /// Gate-oxide thickness.
    pub t_ox: Length,
    /// Threshold voltage.
    pub v_th: Voltage,
    /// Flat-band voltage (surface potential is ~0 at this gate bias).
    pub v_fb: Voltage,
    /// Substrate doping (acceptors, per cubic metre) — sets the Fermi
    /// potential and hence the surface-potential saturation level.
    pub doping: f64,
    /// Lattice temperature.
    pub temperature: Temperature,
}

impl DeviceParams {
    /// A nominal 90 nm-node transistor (the technology of the paper's
    /// Fig 8 demonstration).
    pub fn nominal_90nm() -> Self {
        Self {
            width: Length::from_nanometres(240.0),
            length: Length::from_nanometres(90.0),
            t_ox: Length::from_nanometres(2.0),
            v_th: Voltage::from_volts(0.35),
            v_fb: Voltage::from_volts(-0.8),
            doping: 3.0e23,
            temperature: Temperature::ROOM,
        }
    }

    /// Channel area `W·L` in square metres.
    pub fn area(&self) -> f64 {
        self.width.metres() * self.length.metres()
    }

    /// Oxide capacitance per unit area, `ε_ox / t_ox`, in F/m².
    pub fn c_ox(&self) -> f64 {
        SIO2_PERMITTIVITY / self.t_ox.metres()
    }

    /// Fermi potential `φ_F = (kT/q)·ln(N_A/n_i)` in volts.
    pub fn fermi_potential(&self) -> f64 {
        let phi_t = self.temperature.thermal_voltage().volts();
        phi_t * (self.doping / SILICON_NI).ln()
    }

    /// Saturation level of the surface potential in strong inversion,
    /// `ψ_max ≈ 2φ_F + 6φ_t`.
    pub fn psi_max(&self) -> f64 {
        let phi_t = self.temperature.thermal_voltage().volts();
        2.0 * self.fermi_potential() + 6.0 * phi_t
    }

    /// Smooth surface potential `ψ_s(V_gs)` in volts.
    ///
    /// This is the documented surrogate for the Dunga band-bending
    /// model: a softplus turn-on past flat band (unit slope in
    /// depletion, zero below flat band) saturating smoothly at
    /// [`psi_max`](Self::psi_max) in strong inversion via `tanh`. It is
    /// monotonically increasing and infinitely smooth, which keeps the
    /// propensity functions (and the Newton iterations in the circuit
    /// simulator) well behaved.
    pub fn surface_potential(&self, v_gs: f64) -> f64 {
        saturating_turn_on(
            v_gs - self.v_fb.volts(),
            self.surface_potential_scale(),
            self.psi_max(),
        )
    }

    /// Smoothing width `3·φ_t` of the surface potential's turn-on.
    pub(crate) fn surface_potential_scale(&self) -> f64 {
        3.0 * self.temperature.thermal_voltage().volts()
    }

    /// Areal inversion-carrier density `N(V_gs)` in m⁻², Eq (3)'s `N`.
    ///
    /// Above threshold `N ≈ C_ox·(V_gs − V_th)/q`; the softplus keeps it
    /// positive and smooth through the subthreshold region so Eq (3)
    /// never divides by zero.
    pub fn carrier_density(&self, v_gs: f64) -> f64 {
        let phi_t = self.temperature.thermal_voltage().volts();
        let v_ov = softplus(v_gs - self.v_th.volts(), 2.0 * phi_t);
        self.c_ox() * v_ov / ELEMENTARY_CHARGE
    }

    /// Total number of inversion carriers in the channel,
    /// `W·L·N(V_gs)` — the denominator scale of Eq (3).
    pub fn carrier_count(&self, v_gs: f64) -> f64 {
        self.area() * self.carrier_density(v_gs)
    }
}

/// The surface-potential surrogate as a function of the gate bias past
/// flat band, `x = V_gs − V_fb`: a softplus turn-on of width `scale`
/// saturating at `psi_max`.
pub(crate) fn saturating_turn_on(x: f64, scale: f64, psi_max: f64) -> f64 {
    let u = softplus(x, scale);
    psi_max * (u / psi_max).tanh()
}

/// Numerically stable softplus `s·ln(1 + e^{x/s})`.
pub(crate) fn softplus(x: f64, s: f64) -> f64 {
    debug_assert!(s > 0.0);
    let z = x / s;
    if z > 30.0 {
        x
    } else if z < -30.0 {
        s * z.exp()
    } else {
        s * z.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nominal_90nm_is_sane() {
        let d = DeviceParams::nominal_90nm();
        assert!(d.area() > 0.0);
        // 2 nm oxide: C_ox ≈ 1.7e-2 F/m².
        assert!((d.c_ox() - 1.7e-2).abs() < 2e-3, "c_ox = {}", d.c_ox());
        // Fermi potential for 3e23 doping ≈ 0.45 V.
        assert!((d.fermi_potential() - 0.45).abs() < 0.05);
    }

    #[test]
    fn surface_potential_saturates() {
        let d = DeviceParams::nominal_90nm();
        let deep = d.surface_potential(3.0);
        assert!(deep < d.psi_max());
        assert!(deep > 0.8 * d.psi_max());
        // Near flat band the surface potential is nearly zero.
        assert!(d.surface_potential(d.v_fb.volts() - 0.5) < 0.01);
    }

    #[test]
    fn carrier_density_tracks_overdrive() {
        let d = DeviceParams::nominal_90nm();
        let strong = d.carrier_density(d.v_th.volts() + 0.6);
        let expected = d.c_ox() * 0.6 / ELEMENTARY_CHARGE;
        assert!((strong - expected).abs() < 0.1 * expected);
        // Subthreshold density is tiny but positive.
        let weak = d.carrier_density(d.v_th.volts() - 0.5);
        assert!(weak > 0.0 && weak < 1e-3 * strong);
    }

    #[test]
    fn softplus_limits() {
        assert!((softplus(10.0, 0.1) - 10.0).abs() < 1e-12);
        assert!(softplus(-10.0, 0.1) > 0.0);
        assert!(softplus(-10.0, 0.1) < 1e-40);
        assert!((softplus(0.0, 1.0) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn surface_potential_is_monotonic(v in -2.0f64..3.0) {
            let d = DeviceParams::nominal_90nm();
            let dv = 1e-4;
            prop_assert!(d.surface_potential(v + dv) >= d.surface_potential(v));
        }

        #[test]
        fn carrier_density_is_positive_and_monotonic(v in -1.0f64..2.0) {
            let d = DeviceParams::nominal_90nm();
            prop_assert!(d.carrier_density(v) > 0.0);
            prop_assert!(d.carrier_density(v + 1e-3) >= d.carrier_density(v));
        }
    }
}
