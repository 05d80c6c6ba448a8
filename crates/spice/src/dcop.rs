//! DC operating-point analysis with gmin and source stepping.

use crate::compiled::{CompiledCircuit, IntegMode, NewtonConfig, NewtonWorkspace};
use crate::{Circuit, SpiceError};

/// Controls for [`dc_operating_point`].
#[derive(Debug, Clone, PartialEq)]
pub struct DcConfig {
    /// Initial node-voltage guess (one entry per non-ground node, in
    /// node-creation order); zeros when `None`.
    pub initial_guess: Option<Vec<f64>>,
    /// The gmin-stepping homotopy sequence (extra conductances tried in
    /// order, each warm-starting the next; the final solve uses 0).
    pub gmin_steps: Vec<f64>,
    /// Source-stepping fallback levels (fractions of the full source
    /// values), used only if gmin stepping fails.
    pub source_steps: Vec<f64>,
}

impl Default for DcConfig {
    fn default() -> Self {
        Self {
            initial_guess: None,
            gmin_steps: vec![1e-2, 1e-4, 1e-6, 1e-8, 1e-10],
            source_steps: vec![0.1, 0.25, 0.5, 0.75, 0.9, 1.0],
        }
    }
}

impl CompiledCircuit {
    /// Solves the DC operating point at time `t` (sources evaluated at
    /// `t`; capacitors open) into the workspace: on success
    /// `ws.solution()` holds the full unknown vector (node voltages
    /// then voltage-source branch currents).
    ///
    /// The workspace is fully re-seeded (DC source values from the
    /// circuit, capacitor histories zeroed, solution re-initialised from
    /// the guess), so a reused workspace
    /// gives bit-identical results to a fresh one.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NonConvergence`] if both gmin stepping and
    /// source stepping fail, or [`SpiceError::SingularMatrix`] for a
    /// structurally singular circuit.
    pub fn dc_operating_point(
        &self,
        ws: &mut NewtonWorkspace,
        t: f64,
        config: &DcConfig,
    ) -> Result<(), SpiceError> {
        let newton = NewtonConfig::default();
        self.seed_dc_sources(ws);
        ws.reset_states();
        let seed_guess = |ws: &mut NewtonWorkspace| {
            ws.x.iter_mut().for_each(|v| *v = 0.0);
            if let Some(guess) = &config.initial_guess {
                for (i, v) in guess.iter().enumerate().take(self.node_count()) {
                    ws.x[i] = *v;
                }
            }
        };

        // Plain Newton first — cheap when it works.
        seed_guess(ws);
        if self.solve(ws, t, IntegMode::Dc, 1.0, 0.0, &newton).is_ok() {
            return Ok(());
        }

        // gmin stepping, restarted from the pristine guess.
        seed_guess(ws);
        let mut gmin_ok = true;
        for &g in &config.gmin_steps {
            if self.solve(ws, t, IntegMode::Dc, 1.0, g, &newton).is_err() {
                gmin_ok = false;
                break;
            }
        }
        if gmin_ok && self.solve(ws, t, IntegMode::Dc, 1.0, 0.0, &newton).is_ok() {
            return Ok(());
        }

        // Source stepping, from zero.
        ws.x.iter_mut().for_each(|v| *v = 0.0);
        for &scale in &config.source_steps {
            self.solve(ws, t, IntegMode::Dc, scale, 0.0, &newton)?;
        }
        Ok(())
    }
}

/// Solves the DC operating point at time `t` (sources evaluated at
/// `t`; capacitors open).
///
/// Returns the full unknown vector (node voltages then voltage-source
/// branch currents). Compiles the circuit on the fly; callers with a
/// [`CompiledCircuit`] at hand should use
/// [`CompiledCircuit::dc_operating_point`] to reuse their workspace.
///
/// # Errors
///
/// Returns [`SpiceError::NonConvergence`] if both gmin stepping and
/// source stepping fail, or [`SpiceError::SingularMatrix`] for a
/// structurally singular circuit.
pub fn dc_operating_point(
    ckt: &Circuit,
    t: f64,
    config: &DcConfig,
) -> Result<Vec<f64>, SpiceError> {
    let compiled = CompiledCircuit::compile(ckt);
    let mut ws = NewtonWorkspace::new(&compiled);
    compiled.dc_operating_point(&mut ws, t, config)?;
    Ok(ws.solution().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MosfetParams, Source};

    fn inverter(ckt: &mut Circuit, input: &str, output: &str, vdd: crate::NodeId) {
        let vin = ckt.node(input);
        let vout = ckt.node(output);
        ckt.mosfet(vout, vin, Circuit::GROUND, MosfetParams::nmos_90nm(1.0));
        ckt.mosfet(vout, vin, vdd, MosfetParams::pmos_90nm(2.0));
    }

    #[test]
    fn inverter_dc_transfer_endpoints() {
        for (v_in, expect_high) in [(0.0, true), (1.1, false)] {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            ckt.vsource(vdd, Circuit::GROUND, Source::Dc(1.1));
            let a = ckt.node("a");
            ckt.vsource(a, Circuit::GROUND, Source::Dc(v_in));
            inverter(&mut ckt, "a", "y", vdd);
            let x = dc_operating_point(&ckt, 0.0, &DcConfig::default()).unwrap();
            let y = ckt.find_node("y").unwrap().unknown_index().unwrap();
            if expect_high {
                assert!(x[y] > 1.05, "output should be high, got {}", x[y]);
            } else {
                assert!(x[y] < 0.05, "output should be low, got {}", x[y]);
            }
        }
    }

    #[test]
    fn inverter_switching_threshold_is_interior() {
        // Sweep the input and find where the output crosses Vdd/2: it
        // must be somewhere strictly inside the rails. One compiled
        // circuit and workspace serve the whole sweep: only the input
        // source is rewritten between points.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.vsource(vdd, Circuit::GROUND, Source::Dc(1.1));
        let a = ckt.node("a");
        let vin_src = ckt.vsource(a, Circuit::GROUND, Source::Dc(0.0));
        inverter(&mut ckt, "a", "y", vdd);
        let y = ckt.find_node("y").unwrap().unknown_index().unwrap();

        let mut compiled = CompiledCircuit::compile(&ckt);
        let mut ws = NewtonWorkspace::new(&compiled);
        let mut crossing = None;
        let mut prev_high = true;
        for k in 0..=22 {
            let v_in = k as f64 * 0.05;
            compiled.set_source(vin_src, Source::Dc(v_in)).unwrap();
            compiled
                .dc_operating_point(&mut ws, 0.0, &DcConfig::default())
                .unwrap();
            let high = ws.solution()[y] > 0.55;
            if prev_high && !high {
                crossing = Some(v_in);
            }
            prev_high = high;
        }
        let vm = crossing.expect("the inverter must switch somewhere");
        assert!(vm > 0.2 && vm < 0.9, "switching threshold {vm}");
    }

    #[test]
    fn cross_coupled_inverters_are_bistable() {
        // The core of the SRAM cell: two states reachable from
        // different initial guesses.
        let solve_from = |q0: f64, qb0: f64| {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            ckt.vsource(vdd, Circuit::GROUND, Source::Dc(1.1));
            inverter(&mut ckt, "q", "qb", vdd);
            inverter(&mut ckt, "qb", "q", vdd);
            let mut guess = vec![0.0; ckt.node_count()];
            guess[ckt.find_node("q").unwrap().unknown_index().unwrap()] = q0;
            guess[ckt.find_node("qb").unwrap().unknown_index().unwrap()] = qb0;
            let config = DcConfig {
                initial_guess: Some(guess),
                ..DcConfig::default()
            };
            let x = dc_operating_point(&ckt, 0.0, &config).unwrap();
            (
                x[ckt.find_node("q").unwrap().unknown_index().unwrap()],
                x[ckt.find_node("qb").unwrap().unknown_index().unwrap()],
            )
        };
        let (q_hi, qb_lo) = solve_from(1.1, 0.0);
        assert!(q_hi > 1.0 && qb_lo < 0.1, "state 1: q={q_hi}, qb={qb_lo}");
        let (q_lo, qb_hi) = solve_from(0.0, 1.1);
        assert!(q_lo < 0.1 && qb_hi > 1.0, "state 0: q={q_lo}, qb={qb_hi}");
    }

    #[test]
    fn time_dependent_sources_are_evaluated_at_t() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let ramp = samurai_waveform::Pwl::new(vec![(0.0, 0.0), (1.0, 2.0)]).unwrap();
        ckt.vsource(a, Circuit::GROUND, Source::Pwl(ramp));
        ckt.resistor(a, Circuit::GROUND, 1e3);
        let x = dc_operating_point(&ckt, 0.5, &DcConfig::default()).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
    }
}
