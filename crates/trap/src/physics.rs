//! The capture/emission propensity model — Eqs (1) and (2) of the paper.

use serde::{Deserialize, Serialize};

use crate::device::saturating_turn_on;
use crate::{DeviceParams, TrapParams};
use samurai_units::constants::ELEMENTARY_CHARGE;

/// Computes the time-varying capture and emission propensities of a
/// single trap from the instantaneous gate bias.
///
/// The model implements the paper's two constraints:
///
/// * **Eq (1)** — the rate *sum* is bias independent:
///   `λc(t) + λe(t) = 1/(τ₀·e^{γ·y_tr})` (pure tunnelling kinetics);
/// * **Eq (2)** — the rate *ratio* follows detailed balance:
///   `β(t) = λe/λc = g·e^{(E_T−E_F)/kT}`, where the trap-to-Fermi-level
///   separation depends on the gate bias through band bending.
///
/// The `(E_T − E_F)(V_gs)` dependence uses the surrogate documented in
/// DESIGN.md §3: `E_T − E_F = E_a − q·[ψ_s(V_gs) + V_ox(V_gs)·y_tr/t_ox]`.
/// Raising the gate bias raises the surface potential and the oxide
/// drop, pulling the trap level below the Fermi level, so capture wins
/// and the trap fills — the behaviour the paper reports for transistor
/// M5 whose gate is `Q` (Fig 8b).
///
/// Algorithm 1 evaluates the propensities at every uniformised
/// candidate, so [`new`](Self::new) computes every bias-independent
/// term once: the flat-band voltage, the surface potential's softplus
/// scale and saturation level, `y_tr/t_ox`, the trap level at `V_th`,
/// `ln g`, `kT` and the rate sum. A bias evaluation is then one
/// surface potential, one division by `kT` and two sigmoids, with the
/// same operations in the same order as the textbook formulas, so
/// every result is bit-identical to them (DESIGN §20).
///
/// # Examples
///
/// ```
/// use samurai_trap::{DeviceParams, TrapParams, PropensityModel};
/// use samurai_units::{Energy, Length};
///
/// let m = PropensityModel::new(
///     DeviceParams::nominal_90nm(),
///     TrapParams::new(Length::from_nanometres(1.2), Energy::from_ev(0.4)),
/// );
/// let (lc, le) = m.propensities(1.0);
/// assert!(lc > 0.0 && le > 0.0);
/// assert!((lc + le - m.rate_sum()).abs() < 1e-6 * m.rate_sum());
/// ```
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PropensityModel {
    device: DeviceParams,
    trap: TrapParams,
    /// Flat-band voltage `V_fb`, in volts.
    v_fb: f64,
    /// Smoothing width `3·φ_t` of the surface potential's turn-on.
    turn_on_scale: f64,
    /// Surface-potential saturation level `ψ_max`.
    psi_max: f64,
    /// Depth fraction `y_tr/t_ox` of the oxide drop the trap sees.
    depth_frac: f64,
    /// The trap level at the threshold bias, `level(V_th)`.
    level_th: f64,
    /// `ln g` of Eq (2).
    ln_g: f64,
    /// Thermal energy `kT`, in joules.
    kt: f64,
    /// The Eq (1) rate sum `λΣ`, in 1/s.
    rate_sum: f64,
}

/// Two models are equal when their device and trap are: every other
/// field is a function of those two.
impl PartialEq for PropensityModel {
    fn eq(&self, other: &Self) -> bool {
        self.device == other.device && self.trap == other.trap
    }
}

impl PropensityModel {
    /// Creates the model for a trap in a device.
    pub fn new(device: DeviceParams, trap: TrapParams) -> Self {
        let mut model = Self {
            device,
            trap,
            v_fb: device.v_fb.volts(),
            turn_on_scale: device.surface_potential_scale(),
            psi_max: device.psi_max(),
            depth_frac: trap.depth.metres() / device.t_ox.metres(),
            level_th: 0.0,
            ln_g: trap.degeneracy.ln(),
            kt: device.temperature.thermal_energy().joules(),
            rate_sum: trap.rate_sum(),
        };
        model.level_th = model.level(device.v_th.volts());
        model
    }

    /// The device parameters.
    pub fn device(&self) -> &DeviceParams {
        &self.device
    }

    /// The trap parameters.
    pub fn trap(&self) -> &TrapParams {
        &self.trap
    }

    /// The bias-independent rate sum `λΣ = λc + λe` (Eq 1), in 1/s.
    pub fn rate_sum(&self) -> f64 {
        self.rate_sum
    }

    /// The trap level's bias response `ψ_s(v) + V_ox(v)·y_tr/t_ox`, in
    /// volts, with one surface-potential evaluation shared by both
    /// terms (`V_ox = (v − V_fb) − ψ_s`).
    fn level(&self, v: f64) -> f64 {
        let sp = saturating_turn_on(v - self.v_fb, self.turn_on_scale, self.psi_max);
        sp + ((v - self.v_fb) - sp) * self.depth_frac
    }

    /// Trap-level-to-Fermi-level separation `E_T − E_F` at gate bias
    /// `v_gs`, in joules.
    ///
    /// The trap energy `E_tr` is referenced to the Fermi level at the
    /// device's *threshold* bias, so a trap with `E_tr = 0` crosses the
    /// Fermi level exactly at `V_gs = V_th` and traps with `E_tr` in a
    /// few-hundred-meV band toggle within the operating bias swing —
    /// matching the experimental observation that RTN is active at
    /// nominal biases.
    pub fn et_minus_ef(&self, v_gs: f64) -> f64 {
        let shift = self.level(v_gs) - self.level_th;
        self.trap.energy.joules() - ELEMENTARY_CHARGE * shift
    }

    /// The log rate ratio `ln β = ln g + (E_T−E_F)/kT` at `v_gs`.
    ///
    /// Working in log space avoids overflow: β itself spans hundreds of
    /// decades across an SRAM bias swing.
    pub fn ln_beta(&self, v_gs: f64) -> f64 {
        self.ln_g + self.et_minus_ef(v_gs) / self.kt
    }

    /// The rate ratio `β = λe/λc` (Eq 2). May overflow to `inf` for
    /// strongly empty-favouring biases; prefer [`ln_beta`](Self::ln_beta)
    /// or the propensities themselves for numerical work.
    pub fn beta(&self, v_gs: f64) -> f64 {
        self.ln_beta(v_gs).exp()
    }

    /// Capture and emission propensities `(λc, λe)` at `v_gs`, in 1/s.
    ///
    /// Computed as `λc = λΣ·σ(−ln β)`, `λe = λΣ·σ(ln β)` with the
    /// logistic `σ`, which is exactly Eqs (1)+(2) but immune to
    /// overflow. Each rate uses its own stable sigmoid evaluation so a
    /// rate ~1e-15 of `λΣ` still carries full relative precision (no
    /// `1 − p` cancellation).
    // lint: hot-fn
    pub fn propensities(&self, v_gs: f64) -> (f64, f64) {
        let lb = self.ln_beta(v_gs);
        let sum = self.rate_sum;
        let (lc, le) = (sum * sigmoid(-lb), sum * sigmoid(lb));
        debug_assert!(
            lc >= 0.0 && le >= 0.0,
            "propensities must be non-negative: lambda_c = {lc}, lambda_e = {le} at v_gs = {v_gs}"
        );
        (lc, le)
    }

    /// The capture propensity `λc(v_gs)` alone.
    pub fn lambda_c(&self, v_gs: f64) -> f64 {
        self.propensities(v_gs).0
    }

    /// The emission propensity `λe(v_gs)` alone.
    pub fn lambda_e(&self, v_gs: f64) -> f64 {
        self.propensities(v_gs).1
    }

    /// Stationary occupancy probability `p∞ = λc/(λc+λe) = 1/(1+β)`
    /// under a constant bias `v_gs`.
    pub fn stationary_occupancy(&self, v_gs: f64) -> f64 {
        sigmoid(-self.ln_beta(v_gs))
    }

    /// The gate bias in `[-2, 3]` V where the stationary occupancy is
    /// 1/2 (capture and emission balance), found by bisection to the
    /// last bit. A trap there spends equal time filled and empty, so
    /// both dwell populations are well represented.
    pub fn balanced_bias(&self) -> f64 {
        let (mut lo, mut hi) = (-2.0, 3.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.stationary_occupancy(mid) < 0.5 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Numerically stable logistic function `1/(1+e^{−x})`.
pub(crate) fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samurai_units::{Energy, Length};

    use proptest::prelude::*;
    use samurai_units::Temperature;

    /// The textbook Eq (2) chain without hoisting, the oracle for the
    /// hoisted model: every call recomputes the bias-independent terms
    /// and evaluates the surface potential four times (directly and
    /// inside the oxide drop, at `v_gs` and at `V_th`).
    fn textbook_et_minus_ef(m: &PropensityModel, v_gs: f64) -> f64 {
        let (device, trap) = (m.device(), m.trap());
        let surface_potential = |v: f64| {
            let phi_t = device.temperature.thermal_voltage().volts();
            let scale = 3.0 * phi_t;
            let u = crate::device::softplus(v - device.v_fb.volts(), scale);
            let psi_max = device.psi_max();
            psi_max * (u / psi_max).tanh()
        };
        let oxide_drop = |v: f64| (v - device.v_fb.volts()) - surface_potential(v);
        let depth_frac = trap.depth.metres() / device.t_ox.metres();
        let level = |v: f64| surface_potential(v) + oxide_drop(v) * depth_frac;
        let shift = level(v_gs) - level(device.v_th.volts());
        trap.energy.joules() - ELEMENTARY_CHARGE * shift
    }

    fn textbook_ln_beta(m: &PropensityModel, v_gs: f64) -> f64 {
        let kt = m.device().temperature.thermal_energy().joules();
        m.trap().degeneracy.ln() + textbook_et_minus_ef(m, v_gs) / kt
    }

    fn textbook_propensities(m: &PropensityModel, v_gs: f64) -> (f64, f64) {
        let lb = textbook_ln_beta(m, v_gs);
        let sum = m.trap().rate_sum();
        (sum * sigmoid(-lb), sum * sigmoid(lb))
    }

    fn model(depth_nm: f64, energy_ev: f64) -> PropensityModel {
        PropensityModel::new(
            DeviceParams::nominal_90nm(),
            TrapParams::new(
                Length::from_nanometres(depth_nm),
                Energy::from_ev(energy_ev),
            ),
        )
    }

    #[test]
    fn balanced_bias_half_fills_the_trap() {
        let m = model(1.8, 0.4);
        let v = m.balanced_bias();
        assert!((-2.0..=3.0).contains(&v));
        assert!((m.stationary_occupancy(v) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn eq1_rate_sum_is_bias_independent() {
        let m = model(1.0, 0.3);
        for v in [-0.5, 0.0, 0.4, 0.8, 1.2, 2.0] {
            let (lc, le) = m.propensities(v);
            assert!(
                ((lc + le) - m.rate_sum()).abs() < 1e-9 * m.rate_sum(),
                "rate sum drifted at v = {v}"
            );
        }
    }

    #[test]
    fn eq2_ratio_matches_detailed_balance() {
        let m = model(0.8, 0.25);
        let v = 0.6;
        let (lc, le) = m.propensities(v);
        let beta = le / lc;
        assert!((beta.ln() - m.ln_beta(v)).abs() < 1e-9);
    }

    #[test]
    fn occupancy_rises_with_bias() {
        let m = model(1.0, 0.4);
        let lo = m.stationary_occupancy(0.0);
        let hi = m.stationary_occupancy(1.1);
        assert!(
            hi > lo,
            "occupancy should rise with gate bias: {lo} -> {hi}"
        );
        assert!(lo >= 0.0 && hi <= 1.0);
    }

    #[test]
    fn energy_shifts_the_crossover() {
        // A higher E_a (trap further above the Fermi level at flat
        // band) needs more bias to fill: occupancy at fixed bias drops.
        let v = 0.7;
        let low_e = model(1.0, 0.1).stationary_occupancy(v);
        let high_e = model(1.0, 0.7).stationary_occupancy(v);
        assert!(low_e > high_e);
    }

    #[test]
    fn deeper_traps_couple_more_strongly_to_the_gate() {
        // The depth fraction multiplies the oxide drop, so the
        // trap-level shift over a bias sweep is larger for deep traps.
        let shift = |depth: f64| {
            let m = model(depth, 0.45);
            m.et_minus_ef(0.0) - m.et_minus_ef(1.1)
        };
        assert!(shift(1.8) > shift(0.2));
    }

    #[test]
    fn no_overflow_at_extreme_bias() {
        let m = model(2.0, 0.8);
        for v in [-100.0, -10.0, 10.0, 100.0] {
            let (lc, le) = m.propensities(v);
            assert!(lc.is_finite() && le.is_finite());
            assert!(lc >= 0.0 && le >= 0.0);
            let p = m.stationary_occupancy(v);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
        assert_eq!(sigmoid(1000.0), 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
    }

    proptest! {
        #[test]
        fn propensities_are_valid_rates(
            v in -2.0f64..2.5,
            depth in 0.05f64..2.0,
            energy in -0.3f64..0.9,
        ) {
            let m = model(depth, energy);
            let (lc, le) = m.propensities(v);
            prop_assert!(lc >= 0.0 && le >= 0.0);
            prop_assert!(lc <= m.rate_sum() * (1.0 + 1e-12));
            prop_assert!(le <= m.rate_sum() * (1.0 + 1e-12));
            prop_assert!(((lc + le) - m.rate_sum()).abs() < 1e-9 * m.rate_sum());
        }

        #[test]
        fn hoisted_model_matches_the_textbook_chain_bit_for_bit(
            v in -2.0f64..3.0,
            depth in 0.05f64..2.0,
            energy in -0.3f64..0.9,
            degeneracy in 0.25f64..4.0,
            kelvin in 200.0f64..450.0,
        ) {
            let device = DeviceParams {
                temperature: Temperature::from_kelvin(kelvin),
                ..DeviceParams::nominal_90nm()
            };
            let trap = TrapParams::new(Length::from_nanometres(depth), Energy::from_ev(energy))
                .with_degeneracy(degeneracy);
            let m = PropensityModel::new(device, trap);
            let bits = |(a, b): (f64, f64)| (a.to_bits(), b.to_bits());
            prop_assert_eq!(m.rate_sum().to_bits(), trap.rate_sum().to_bits());
            prop_assert_eq!(
                m.et_minus_ef(v).to_bits(),
                textbook_et_minus_ef(&m, v).to_bits()
            );
            prop_assert_eq!(m.ln_beta(v).to_bits(), textbook_ln_beta(&m, v).to_bits());
            prop_assert_eq!(bits(m.propensities(v)), bits(textbook_propensities(&m, v)));
            prop_assert_eq!(
                m.stationary_occupancy(v).to_bits(),
                sigmoid(-textbook_ln_beta(&m, v)).to_bits()
            );
        }

        #[test]
        fn occupancy_is_monotone_in_bias(
            v in -1.0f64..2.0,
            depth in 0.05f64..2.0,
        ) {
            let m = model(depth, 0.4);
            prop_assert!(
                m.stationary_occupancy(v + 1e-3) >= m.stationary_occupancy(v) - 1e-12
            );
        }
    }
}
