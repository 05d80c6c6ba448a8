//! Per-job parameter patching: applying a scenario's device and
//! supply variation to an already-compiled circuit.
//!
//! The scenario layer (`samurai-core::scenario`) expands a job index
//! into per-device Vt/beta/geometry deltas plus a global supply and
//! temperature corner. Re-building and re-compiling a netlist per job
//! would repeat the symbolic analysis (fill pattern, sparse ordering)
//! for a circuit whose *structure* never changes — so a [`ParamPatch`]
//! instead overlays the variation onto the existing lowered stamps:
//!
//! * [`ParamPatch::apply_to_circuit`] patches a [`Circuit`]
//!   description before compilation (the path the column builder's
//!   `build_with_shifts` wrapper uses);
//! * [`CompiledCircuit::apply_patch`] patches the compiled stamps in
//!   place — the persistent workspace, fill pattern and solver
//!   symbolic analysis are untouched.
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
//! * `vdd_scale` multiplies every **DC** voltage-source value (PWL
//!   drive waveforms are the caller's responsibility — the SRAM layer
//!   scales its supply before building drive waveforms, so both move
//!   together). Current sources are never scaled: RTN injections are
//!   absolute currents.
//! * `phi_t_scale` multiplies every MOSFET's thermal voltage — the
//!   first-order electrical effect of a temperature corner
//!   (`φ_t ∝ T`).
//! * A unit scale (`1.0`) or zero delta is an exact no-op: the
//!   multiplication/addition is skipped, so a nominal patch leaves
//!   every bit of the circuit unchanged.

use crate::compiled::{CompiledCircuit, DeviceStamp};
use crate::netlist::{Circuit, Element, ElementId, Source};
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

/// A per-job parameter overlay: device adjustments plus the global
/// supply/temperature corner.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamPatch {
    /// Per-device adjustments, addressed by the [`ElementId`]s of the
    /// source circuit.
    pub devices: Vec<(ElementId, MosfetAdjust)>,
    /// Multiplier on every DC voltage-source value.
    pub vdd_scale: f64,
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
            vdd_scale: 1.0,
            phi_t_scale: 1.0,
        }
    }

    /// Whether applying this patch is a guaranteed no-op.
    #[must_use]
    pub fn is_nominal(&self) -> bool {
        self.devices.iter().all(|(_, a)| *a == MosfetAdjust::nominal())
            && self.vdd_scale == 1.0 // lint: allow(HYG004): exact-unit sentinel defines the no-op patch
            && self.phi_t_scale == 1.0 // lint: allow(HYG004): exact-unit sentinel defines the no-op patch
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
        // lint: allow(HYG004): exact-unit sentinel keeps nominal supplies bit-identical
        if self.vdd_scale != 1.0 {
            for element in &mut ckt.elements {
                if let Element::Vsource {
                    source: Source::Dc(v),
                    ..
                } = element
                {
                    *v *= self.vdd_scale;
                }
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

impl CompiledCircuit {
    /// The (possibly patched) MOSFET parameters of stamp `id`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] if `id` is not a MOSFET.
    pub fn mosfet_params(&self, id: ElementId) -> Result<&MosfetParams, SpiceError> {
        self.mosfet(id).map(|m| &m.params)
    }

    /// Applies a parameter patch to the compiled stamps in place. The
    /// fill pattern, sparse ordering and workspace are untouched:
    /// patching never recompiles.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] — without mutating
    /// anything — if any patched id is not a MOSFET.
    pub fn apply_patch(&mut self, patch: &ParamPatch) -> Result<(), SpiceError> {
        for (id, _) in &patch.devices {
            if !matches!(self.stamps.get(id.0), Some(DeviceStamp::Mosfet(_))) {
                return Err(SpiceError::InvalidElement {
                    reason: "ParamPatch device ids must name MOSFETs",
                });
            }
        }
        for (id, adjust) in &patch.devices {
            if let Some(DeviceStamp::Mosfet(m)) = self.stamps.get_mut(id.0) {
                adjust.apply(&mut m.params);
            }
        }
        // lint: allow(HYG004): exact-unit sentinel keeps nominal supplies bit-identical
        if patch.vdd_scale != 1.0 {
            for stamp in &self.stamps {
                if let DeviceStamp::Vsource(vs) = stamp {
                    if let Source::Dc(v) = &mut self.sources[vs.src] {
                        *v *= patch.vdd_scale;
                    }
                }
            }
        }
        // lint: allow(HYG004): exact-unit sentinel keeps nominal devices bit-identical
        if patch.phi_t_scale != 1.0 {
            for stamp in &mut self.stamps {
                if let DeviceStamp::Mosfet(m) = stamp {
                    m.params.phi_t *= patch.phi_t_scale;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (ckt, _, mn, _) = build();
        let mut compiled = CompiledCircuit::compile(&ckt);
        let reference = CompiledCircuit::compile(&ckt);
        let patch = ParamPatch {
            devices: vec![(mn, MosfetAdjust::nominal())],
            ..ParamPatch::nominal()
        };
        assert!(patch.is_nominal());
        compiled.apply_patch(&patch).unwrap();
        assert_eq!(
            compiled.mosfet_params(mn).unwrap(),
            reference.mosfet_params(mn).unwrap()
        );
    }

    #[test]
    fn apply_then_revert_restores_exactly() {
        let (ckt, _, mn, mp) = build();
        let mut compiled = CompiledCircuit::compile(&ckt);
        let before_n = *compiled.mosfet_params(mn).unwrap();
        let patch = ParamPatch {
            devices: vec![
                (
                    mn,
                    MosfetAdjust {
                        vth_delta: 0.03,
                        beta_scale: 0.9,
                        geom_scale: 1.05,
                    },
                ),
                (mp, MosfetAdjust::vth_shift(-0.02)),
            ],
            vdd_scale: 0.9,
            phi_t_scale: 350.0 / 300.0,
        };
        compiled.apply_patch(&patch).unwrap();
        let patched = *compiled.mosfet_params(mn).unwrap();
        assert_eq!(patched.vth, before_n.vth + 0.03);
        assert_eq!(patched.mu_cox, before_n.mu_cox * 0.9);
        assert_eq!(patched.width, before_n.width * 1.05);
        assert_eq!(patched.phi_t, before_n.phi_t * (350.0 / 300.0));
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
        let (ckt, v, mn, _) = build();
        let mut compiled = CompiledCircuit::compile(&ckt);
        let before = *compiled.mosfet_params(mn).unwrap();
        let patch = ParamPatch {
            devices: vec![
                (mn, MosfetAdjust::vth_shift(0.5)),
                (v, MosfetAdjust::vth_shift(0.5)),
            ],
            ..ParamPatch::nominal()
        };
        assert!(compiled.apply_patch(&patch).is_err());
        assert_eq!(*compiled.mosfet_params(mn).unwrap(), before);

        let (mut ckt2, v2, _, _) = build();
        let bad = ParamPatch {
            devices: vec![(v2, MosfetAdjust::vth_shift(0.5))],
            ..ParamPatch::nominal()
        };
        assert!(bad.apply_to_circuit(&mut ckt2).is_err());
    }

    #[test]
    fn vdd_scale_touches_dc_sources_only() {
        let (mut ckt, v, _, _) = build();
        let rtn = {
            let a = ckt.node("out");
            ckt.isource(a, Circuit::GROUND, Source::Dc(1e-6))
        };
        let patch = ParamPatch {
            vdd_scale: 0.8,
            ..ParamPatch::nominal()
        };
        let mut compiled = CompiledCircuit::compile(&ckt);
        compiled.apply_patch(&patch).unwrap();
        // The supply scaled; the current source did not.
        let mut ckt_scaled = ckt.clone();
        patch.apply_to_circuit(&mut ckt_scaled).unwrap();
        let scaled = CompiledCircuit::compile(&ckt_scaled);
        let t = 0.0;
        let read = |c: &CompiledCircuit, id: ElementId| match &c.stamps[id.0] {
            DeviceStamp::Vsource(s) => c.sources[s.src].eval(t),
            DeviceStamp::Isource(s) => c.sources[s.src].eval(t),
            _ => unreachable!(),
        };
        assert_eq!(read(&compiled, v), 1.1 * 0.8);
        assert_eq!(read(&scaled, v), 1.1 * 0.8);
        assert_eq!(read(&compiled, rtn), 1e-6);
    }
}
