//! Per-job parameter patching: applying a scenario's device variation
//! and thermal corner to a circuit description before it is compiled.
//!
//! The scenario layer (`samurai-core::scenario`) expands a job index
//! into per-device Vt/beta/geometry deltas plus a supply and
//! temperature corner. A [`ParamPatch`] carries the device deltas and
//! the thermal corner; [`ParamPatch::apply_to_circuit`] writes them
//! into a [`Circuit`], which the job then compiles. Every job compiles
//! its own circuit anyway, and compiling is cheap next to the transient
//! it precedes, so there is one place a patch applies. (The supply
//! corner is not part of the patch: the SRAM layer scales its supply
//! before it builds the netlist and the drive waveforms, so both move
//! together.)
//!
//! # Patch semantics (the bit-identity contract)
//!
//! * `vth_delta` is **added** to the device threshold — the same
//!   single addition as `MosfetParams::with_vth_shift`, so a patched
//!   nominal circuit is bit-identical to a circuit built with the
//!   shift inline.
//! * `beta_scale` multiplies `mu_cox`; `geom_scale` multiplies the
//!   width and the width-proportional capacitances (length is left
//!   alone so the scale acts on drive strength, not on the channel).
//! * `phi_t_scale` multiplies every MOSFET's thermal voltage — the
//!   first-order electrical effect of a temperature corner
//!   (`φ_t ∝ T`).
//! * A unit scale (`1.0`) or zero delta is an exact no-op: the
//!   multiplication/addition is skipped, so a nominal patch leaves
//!   every bit of the circuit unchanged.

use crate::netlist::{Circuit, Element, ElementId};
use crate::{MosfetParams, SpiceError};

/// One device's parameter adjustment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetAdjust {
    /// Added to the threshold voltage (mismatch + aging), volts.
    pub vth_delta: f64,
    /// Multiplier on the transconductance factor `μ·C_ox`.
    pub beta_scale: f64,
    /// Multiplier on the channel width and the width-proportional
    /// capacitances.
    pub geom_scale: f64,
}

impl Default for MosfetAdjust {
    fn default() -> Self {
        Self::nominal()
    }
}

impl MosfetAdjust {
    /// The identity adjustment.
    #[must_use]
    pub fn nominal() -> Self {
        Self {
            vth_delta: 0.0,
            beta_scale: 1.0,
            geom_scale: 1.0,
        }
    }

    /// A pure threshold shift (the legacy `with_vth_shift` axis).
    #[must_use]
    pub fn vth_shift(dv: f64) -> Self {
        Self {
            vth_delta: dv,
            ..Self::nominal()
        }
    }

    /// Applies the adjustment to one parameter set, preserving the
    /// bit-identity contract (see module docs).
    fn apply(&self, params: &mut MosfetParams) {
        params.vth += self.vth_delta;
        // lint: allow(HYG004): exact-unit sentinel keeps nominal devices bit-identical
        if self.beta_scale != 1.0 {
            params.mu_cox *= self.beta_scale;
        }
        // lint: allow(HYG004): exact-unit sentinel keeps nominal devices bit-identical
        if self.geom_scale != 1.0 {
            params.width *= self.geom_scale;
            params.cgs *= self.geom_scale;
            params.cgd *= self.geom_scale;
            params.cdb *= self.geom_scale;
        }
    }
}

/// A per-job parameter overlay: device adjustments plus the thermal
/// corner.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamPatch {
    /// Per-device adjustments, addressed by the [`ElementId`]s of the
    /// circuit.
    pub devices: Vec<(ElementId, MosfetAdjust)>,
    /// Multiplier on every MOSFET thermal voltage.
    pub phi_t_scale: f64,
}

impl Default for ParamPatch {
    fn default() -> Self {
        Self::nominal()
    }
}

impl ParamPatch {
    /// The empty patch: no devices, unit scales.
    #[must_use]
    pub fn nominal() -> Self {
        Self {
            devices: Vec::new(),
            phi_t_scale: 1.0,
        }
    }

    /// Applies the patch to a circuit description (before compilation).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] — without mutating
    /// anything — if any patched id is not a MOSFET.
    pub fn apply_to_circuit(&self, ckt: &mut Circuit) -> Result<(), SpiceError> {
        for (id, _) in &self.devices {
            if !matches!(ckt.elements.get(id.0), Some(Element::Mosfet { .. })) {
                return Err(SpiceError::InvalidElement {
                    reason: "ParamPatch device ids must name MOSFETs",
                });
            }
        }
        for (id, adjust) in &self.devices {
            if let Some(Element::Mosfet { params, .. }) = ckt.elements.get_mut(id.0) {
                adjust.apply(params);
            }
        }
        // lint: allow(HYG004): exact-unit sentinel keeps nominal devices bit-identical
        if self.phi_t_scale != 1.0 {
            for element in &mut ckt.elements {
                if let Element::Mosfet { params, .. } = element {
                    params.phi_t *= self.phi_t_scale;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Source;

    /// An inverter-ish test circuit: one supply, one NMOS, one PMOS.
    fn build() -> (Circuit, ElementId, ElementId, ElementId) {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        let v = ckt.vsource(vdd, Circuit::GROUND, Source::Dc(1.1));
        let mn = ckt.mosfet(out, inp, Circuit::GROUND, MosfetParams::nmos_90nm(2.0));
        let mp = ckt.mosfet(out, inp, vdd, MosfetParams::pmos_90nm(1.0));
        ckt.capacitor(out, Circuit::GROUND, 1e-15);
        (ckt, v, mn, mp)
    }

    #[test]
    fn nominal_patch_is_a_bitwise_noop() {
        let (mut ckt, _, mn, mp) = build();
        let (reference, ..) = build();
        let patch = ParamPatch {
            devices: vec![(mn, MosfetAdjust::nominal()), (mp, MosfetAdjust::nominal())],
            ..ParamPatch::nominal()
        };
        patch.apply_to_circuit(&mut ckt).unwrap();
        assert_eq!(ckt.elements, reference.elements);
    }

    #[test]
    fn apply_to_circuit_scales_each_field_once() {
        let (mut ckt, _, mn, mp) = build();
        let before_n = *ckt.mosfet_params(mn).unwrap();
        let before_p = *ckt.mosfet_params(mp).unwrap();
        let patch = ParamPatch {
            devices: vec![(
                mn,
                MosfetAdjust {
                    vth_delta: 0.03,
                    beta_scale: 0.9,
                    geom_scale: 1.05,
                },
            )],
            phi_t_scale: 350.0 / 300.0,
        };
        patch.apply_to_circuit(&mut ckt).unwrap();
        let patched = *ckt.mosfet_params(mn).unwrap();
        assert_eq!(patched.vth, before_n.vth + 0.03);
        assert_eq!(patched.mu_cox, before_n.mu_cox * 0.9);
        assert_eq!(patched.width, before_n.width * 1.05);
        assert_eq!(patched.cgs, before_n.cgs * 1.05);
        assert_eq!(patched.length, before_n.length);
        assert_eq!(patched.phi_t, before_n.phi_t * (350.0 / 300.0));
        // The thermal corner reaches every MOSFET, listed or not.
        let other = *ckt.mosfet_params(mp).unwrap();
        assert_eq!(other.phi_t, before_p.phi_t * (350.0 / 300.0));
        assert_eq!(other.vth, before_p.vth);
    }

    #[test]
    fn circuit_patch_matches_inline_shift() {
        let (mut ckt, _, mn, _) = build();
        let patch = ParamPatch {
            devices: vec![(mn, MosfetAdjust::vth_shift(0.017))],
            ..ParamPatch::nominal()
        };
        patch.apply_to_circuit(&mut ckt).unwrap();
        let shifted = MosfetParams::nmos_90nm(2.0).with_vth_shift(0.017);
        assert_eq!(ckt.mosfet_params(mn).unwrap().vth, shifted.vth);
    }

    #[test]
    fn non_mosfet_id_is_rejected_without_mutation() {
        let (mut ckt, v, mn, _) = build();
        let (reference, ..) = build();
        let patch = ParamPatch {
            devices: vec![
                (mn, MosfetAdjust::vth_shift(0.5)),
                (v, MosfetAdjust::vth_shift(0.5)),
            ],
            phi_t_scale: 1.2,
        };
        assert!(patch.apply_to_circuit(&mut ckt).is_err());
        assert_eq!(ckt.elements, reference.elements);
    }
}
