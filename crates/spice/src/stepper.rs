//! A single-stepping transient interface for co-simulation.
//!
//! [`run_transient`](crate::run_transient) integrates a fixed netlist
//! over a whole horizon. Bi-directionally coupled RTN simulation (the
//! paper's future-work item 1) instead interleaves circuit steps with
//! trap-state updates: after every step the RTN current sources are
//! rewritten from the *live* node voltages before the next step is
//! taken. [`TransientStepper`] exposes exactly that loop: construct it
//! (compiles the circuit and solves the DC operating point), then
//! alternate [`step`](TransientStepper::step) with
//! [`set_source`](TransientStepper::set_source) calls. All solver
//! storage lives in the stepper's persistent workspace, so the
//! step/rewrite loop is allocation-free.

use samurai_core::faults::FaultArm;

use crate::compiled::{CompiledCircuit, IntegMode, NewtonConfig, NewtonWorkspace};
use crate::dcop::DcConfig;
use crate::netlist::{NodeId, Source};
use crate::transient::injected_step_error;
use crate::{Circuit, SpiceError};

/// Owns the compiled circuit and the evolving transient state
/// (solution vector and capacitor history) between externally driven
/// steps.
#[derive(Debug, Clone)]
pub struct TransientStepper {
    compiled: CompiledCircuit,
    ws: NewtonWorkspace,
    t: f64,
    newton: NewtonConfig,
}

impl TransientStepper {
    /// Compiles `ckt` and initialises the state from the DC operating
    /// point at `t0`.
    ///
    /// # Errors
    ///
    /// Propagates DC convergence failures.
    pub fn new(ckt: &Circuit, t0: f64, dc: &DcConfig) -> Result<Self, SpiceError> {
        let compiled = CompiledCircuit::compile(ckt);
        let mut ws = NewtonWorkspace::new(&compiled);
        compiled.init_transient(&mut ws, t0, dc)?;
        Ok(Self {
            compiled,
            ws,
            t: t0,
            newton: NewtonConfig::default(),
        })
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Arms fault injection on this stepper's workspace: `solve`
    /// triggers inside the Newton loop, `step` triggers at each
    /// [`step`](Self::step) call. Used by the fault-injection suite;
    /// disarmed arms are free.
    pub fn arm_faults(&mut self, solve: FaultArm, step: FaultArm) {
        self.ws.arm_faults(solve, step);
    }

    /// Rewrites the waveform of voltage/current source `id`, effective
    /// from the next [`step`](Self::step).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] if `id` does not name a
    /// voltage or current source.
    pub fn set_source(&mut self, id: crate::ElementId, source: Source) -> Result<(), SpiceError> {
        self.compiled.set_source(id, source)
    }

    /// Advances the circuit by `h` using backward Euler (L-stable — the
    /// right choice when the caller changes sources discontinuously
    /// between steps).
    ///
    /// # Errors
    ///
    /// Propagates Newton failures; the state is left at the last
    /// accepted step so the caller may retry with a smaller `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not positive.
    // lint: hot-loop
    // Callers drive `step` once per coupled-simulation timestep; it
    // must not allocate (the compiled circuit and workspace own all
    // the storage).
    pub fn step(&mut self, h: f64) -> Result<(), SpiceError> {
        assert!(h > 0.0 && h.is_finite(), "step must be positive");
        let mode = IntegMode::BackwardEuler { h };
        let t_new = self.t + h;
        if let Some(kind) = self.ws.step_arm.check() {
            self.ws.stats.faults_injected += 1;
            return Err(injected_step_error(kind, self.t, h));
        }
        self.compiled
            .solve_trial(&mut self.ws, t_new, mode, &self.newton)?;
        self.compiled.refresh_states(&mut self.ws, true);
        self.ws.accept_trial();
        self.ws.stats.steps_accepted += 1;
        self.t = t_new;
        Ok(())
    }
    // lint: end-hot-loop

    /// The solver telemetry accumulated on this stepper's workspace
    /// (see [`NewtonWorkspace::stats`]).
    pub fn stats(&self) -> samurai_telemetry::SolverStats {
        self.ws.stats()
    }

    /// The voltage of `node` in the current state.
    pub fn voltage(&self, node: NodeId) -> f64 {
        match node.unknown_index() {
            Some(i) => self.ws.solution()[i],
            None => 0.0,
        }
    }

    /// The drain current of MOSFET `id` in the current state.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] if `id` is not a MOSFET.
    pub fn mosfet_current(&self, id: crate::ElementId) -> Result<f64, SpiceError> {
        let m = self.compiled.mosfet(id)?;
        let x = self.ws.solution();
        let v = |n: Option<usize>| n.map_or(0.0, |i| x[i]);
        let (i, ..) = m.params.eval(v(m.d), v(m.g), v(m.s));
        Ok(i)
    }

    /// The effective gate drive
    /// ([`MosfetParams::gate_drive`](crate::MosfetParams::gate_drive)) of
    /// MOSFET `id` in the current state.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] if `id` is not a MOSFET.
    pub fn mosfet_gate_drive(&self, id: crate::ElementId) -> Result<f64, SpiceError> {
        let m = self.compiled.mosfet(id)?;
        let x = self.ws.solution();
        let v = |n: Option<usize>| n.map_or(0.0, |i| x[i]);
        Ok(m.params.gate_drive(v(m.d), v(m.g), v(m.s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Source, TransientConfig};
    use samurai_waveform::Pwl;

    #[test]
    fn stepping_matches_run_transient_for_an_rc() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.vsource(
            vin,
            Circuit::GROUND,
            Source::Pwl(Pwl::step(0.0, 1.0, 1e-9, 1e-12).unwrap()),
        );
        ckt.resistor(vin, vout, 1e3);
        ckt.capacitor(vout, Circuit::GROUND, 1e-12);

        let mut stepper = TransientStepper::new(&ckt, 0.0, &DcConfig::default()).unwrap();
        let h = 5e-12;
        while stepper.time() < 8e-9 {
            stepper.step(h).unwrap();
        }
        let out_node = ckt.find_node("out").unwrap();
        let batch = crate::run_transient(&ckt, 0.0, 8e-9, &TransientConfig::default()).unwrap();
        let reference = batch.voltage(&ckt, "out").unwrap().eval(stepper.time());
        assert!(
            (stepper.voltage(out_node) - reference).abs() < 0.02,
            "stepper {} vs batch {reference}",
            stepper.voltage(out_node)
        );
    }

    #[test]
    fn sources_can_be_rewritten_between_steps() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let inj = ckt.isource(Circuit::GROUND, a, Source::Dc(0.0));
        ckt.resistor(a, Circuit::GROUND, 1e3);
        let mut stepper = TransientStepper::new(&ckt, 0.0, &DcConfig::default()).unwrap();
        assert!(stepper.voltage(a).abs() < 1e-9);
        stepper.set_source(inj, Source::Dc(1e-3)).unwrap();
        stepper.step(1e-12).unwrap();
        assert!((stepper.voltage(a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn set_source_mid_run_matches_a_freshly_compiled_circuit() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        ckt.vsource(vdd, Circuit::GROUND, Source::Dc(1.1));
        ckt.resistor(vdd, d, 1e4);
        ckt.capacitor(d, Circuit::GROUND, 1e-13);
        ckt.mosfet(d, d, Circuit::GROUND, crate::MosfetParams::nmos_90nm(2.0));
        let inj = ckt.isource(Circuit::GROUND, d, Source::Dc(0.0));
        let dc = DcConfig::default();
        let h = 2e-12;

        let mut live = TransientStepper::new(&ckt, 0.0, &dc).unwrap();
        for _ in 0..10 {
            live.step(h).unwrap();
        }
        let ramp = Pwl::new(vec![(0.0, 0.0), (40e-12, 20e-6)]).unwrap();
        live.set_source(inj, Source::Pwl(ramp.clone())).unwrap();

        // The reference compiles the rewritten circuit from scratch
        // and starts from the live stepper's state.
        let mut rewritten = ckt.clone();
        rewritten.set_source(inj, Source::Pwl(ramp)).unwrap();
        let mut fresh = TransientStepper::new(&rewritten, 0.0, &dc).unwrap();
        fresh.t = live.t;
        fresh.ws.x.copy_from_slice(&live.ws.x);
        fresh.ws.cap_states.copy_from_slice(&live.ws.cap_states);
        let bits = |s: &TransientStepper| s.ws.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for _ in 0..10 {
            live.step(h).unwrap();
            fresh.step(h).unwrap();
            assert_eq!(bits(&live), bits(&fresh), "at t = {}", live.time());
        }
    }

    #[test]
    fn set_source_rejects_non_sources() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let r = ckt.resistor(a, Circuit::GROUND, 1e3);
        ckt.vsource(a, Circuit::GROUND, Source::Dc(1.0));
        let mut stepper = TransientStepper::new(&ckt, 0.0, &DcConfig::default()).unwrap();
        assert!(matches!(
            stepper.set_source(r, Source::Dc(0.0)),
            Err(SpiceError::InvalidElement { .. })
        ));
    }

    #[test]
    fn mosfet_current_readback() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.vsource(vdd, Circuit::GROUND, Source::Dc(1.1));
        let g = ckt.node("g");
        ckt.vsource(g, Circuit::GROUND, Source::Dc(1.1));
        let d = ckt.node("d");
        ckt.resistor(vdd, d, 1e4);
        let m = ckt.mosfet(d, g, Circuit::GROUND, crate::MosfetParams::nmos_90nm(2.0));
        let stepper = TransientStepper::new(&ckt, 0.0, &DcConfig::default()).unwrap();
        let i = stepper.mosfet_current(m).unwrap();
        assert!(i > 1e-6, "transistor should conduct: {i}");
    }
}
