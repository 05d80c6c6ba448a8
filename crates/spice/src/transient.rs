//! Adaptive transient analysis.

use samurai_core::faults::FaultKind;
use samurai_waveform::Pwl;

use crate::compiled::{CompiledCircuit, IntegMode, NewtonConfig, NewtonWorkspace};
use crate::dcop::DcConfig;
use crate::netlist::{Circuit, ElementId, Source};
use crate::{MosfetParams, SpiceError};

/// Step-size floor: a step halved below it climbs the rescue ladder,
/// and then fails with [`SpiceError::StepUnderflow`].
const DT_MIN: f64 = 1e-18;
/// Stage 1 of the step-level rescue ladder: the extra-gmin homotopy
/// values, tried in order.
const GMIN_RAMP: [f64; 3] = [1e-3, 1e-6, 1e-9];
/// Stage 2 of the step-level rescue ladder: the Newton-config retry
/// rungs after the gmin ramp.
const CONFIG_RUNGS: usize = 2;

/// Time integration method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Backward Euler: first order, L-stable, slightly lossy.
    BackwardEuler,
    /// Trapezoidal: second order; each PWL breakpoint is restarted
    /// with one backward-Euler step to suppress ringing.
    #[default]
    Trapezoidal,
}

/// Controls for [`run_transient`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransientConfig {
    /// Integration method.
    pub integrator: Integrator,
    /// Initial step size; `None` picks `(tf − t0)/1000`.
    pub dt_init: Option<f64>,
    /// Maximum step size; `None` picks `(tf − t0)/50`.
    pub dt_max: Option<f64>,
    /// Largest accepted per-step node-voltage change; bigger steps are
    /// rejected and retried with half the step.
    pub dv_max: f64,
    /// DC operating-point controls for the initial solution.
    pub dc: DcConfig,
    /// Newton controls for every trial step.
    pub newton: NewtonConfig,
}

impl Default for TransientConfig {
    fn default() -> Self {
        Self {
            integrator: Integrator::Trapezoidal,
            dt_init: None,
            dt_max: None,
            dv_max: 0.12,
            dc: DcConfig::default(),
            newton: NewtonConfig::default(),
        }
    }
}

impl TransientConfig {
    /// The progressively conservative config for ensemble rescue rung
    /// `rung` (the job-level ladder used by
    /// `samurai_core::ensemble::FailurePolicy::Retry`): rung 0 is
    /// `self` unchanged; each higher rung halves the acceptance
    /// threshold `dv_max` and the Newton damping clamp (forcing
    /// smaller, safer steps), quarters any explicit `dt_init`/`dt_max`,
    /// doubles the Newton iteration budget, and prepends a larger gmin
    /// rung to the dcop homotopy.
    #[must_use]
    pub fn rescue_rung(&self, rung: usize) -> TransientConfig {
        if rung == 0 {
            return self.clone();
        }
        let shrink = 2f64.powi(rung.min(32) as i32);
        let mut out = self.clone();
        out.dv_max = self.dv_max / shrink;
        out.dt_init = self.dt_init.map(|d| d / (shrink * shrink));
        out.dt_max = self.dt_max.map(|d| d / (shrink * shrink));
        out.newton.max_iterations = self.newton.max_iterations.saturating_mul(1 << rung.min(16));
        out.newton.v_step_clamp = self.newton.v_step_clamp / shrink;
        let head = self.dc.gmin_steps.first().copied().unwrap_or(1e-2);
        let mut steps = vec![head * 10f64.powi(rung.min(32) as i32)];
        steps.extend(self.dc.gmin_steps.iter().copied());
        out.dc.gmin_steps = steps;
        out
    }
}

/// The sampled solution of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `solutions[k]` is the full unknown vector at `times[k]`.
    solutions: Vec<Vec<f64>>,
}

impl TransientResult {
    /// Accepted time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of accepted time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if no points were stored (cannot happen for a successful
    /// run, which always stores the initial point).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The voltage waveform of a named node as a [`Pwl`].
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] for an unknown name.
    pub fn voltage(&self, ckt: &Circuit, node: &str) -> Result<Pwl, SpiceError> {
        let id = ckt.find_node(node)?;
        let points = match id.unknown_index() {
            None => self.times.iter().map(|&t| (t, 0.0)).collect(),
            Some(i) => self
                .times
                .iter()
                .zip(&self.solutions)
                .map(|(&t, x)| (t, x[i]))
                .collect(),
        };
        Ok(Pwl::new(points)?)
    }

    /// The drain current waveform of MOSFET `id`, reconstructed from
    /// the node voltages through the device equations.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] if `id` is not a MOSFET.
    pub fn mosfet_current(&self, ckt: &Circuit, id: ElementId) -> Result<Pwl, SpiceError> {
        self.mosfet_waveform(ckt, id, |p, vd, vg, vs| p.eval(vd, vg, vs).0)
    }

    /// The *effective* gate drive of MOSFET `id` over time
    /// ([`MosfetParams::gate_drive`] at every solution point).
    ///
    /// This is the bias that controls the channel carrier density and
    /// the oxide-trap statistics — pass transistors conduct in both
    /// directions, so the declared-source `V_gs` would be wrong half
    /// the time.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] if `id` is not a MOSFET.
    pub fn mosfet_gate_drive(&self, ckt: &Circuit, id: ElementId) -> Result<Pwl, SpiceError> {
        self.mosfet_waveform(ckt, id, MosfetParams::gate_drive)
    }

    /// `f(params, vd, vg, vs)` of MOSFET `id` at every solution point.
    fn mosfet_waveform(
        &self,
        ckt: &Circuit,
        id: ElementId,
        f: impl Fn(&MosfetParams, f64, f64, f64) -> f64,
    ) -> Result<Pwl, SpiceError> {
        let (d, g, s) = ckt.mosfet_nodes(id)?;
        let params = ckt.mosfet_params(id)?;
        let v = |x: &Vec<f64>, n: crate::NodeId| n.unknown_index().map_or(0.0, |i| x[i]);
        let points = self
            .times
            .iter()
            .zip(&self.solutions)
            .map(|(&t, x)| (t, f(params, v(x, d), v(x, g), v(x, s))))
            .collect();
        Ok(Pwl::new(points)?)
    }
}

impl CompiledCircuit {
    /// Seeds the workspace for integration from `t0`: DC operating
    /// point, then capacitor voltages from the DC solution with zero
    /// current.
    pub(crate) fn init_transient(
        &self,
        ws: &mut NewtonWorkspace,
        t0: f64,
        dc: &DcConfig,
    ) -> Result<(), SpiceError> {
        self.dc_operating_point(ws, t0, dc)?;
        ws.mode = IntegMode::BackwardEuler { h: 1.0 };
        self.refresh_states(ws, false);
        for s in ws.cap_states.iter_mut() {
            s.i_prev = 0.0;
        }
        Ok(())
    }

    /// Runs a transient analysis over `[t0, tf]`, reusing `ws` for all
    /// solver storage.
    ///
    /// The initial condition is the DC operating point at `t0`. Steps
    /// are chosen adaptively: halved on Newton failure or on
    /// node-voltage jumps beyond `dv_max`, grown gently after
    /// successes, and always landing exactly on every PWL-source
    /// breakpoint. The hot loop is allocation-free except for the one
    /// exact-sized snapshot stored per accepted step.
    ///
    /// # Errors
    ///
    /// Propagates DC/Newton failures; returns
    /// [`SpiceError::StepUnderflow`] if the step collapses below the
    /// 1e-18 s floor.
    ///
    /// # Panics
    ///
    /// Panics unless `tf > t0`.
    pub fn run_transient(
        &self,
        ws: &mut NewtonWorkspace,
        t0: f64,
        tf: f64,
        config: &TransientConfig,
    ) -> Result<TransientResult, SpiceError> {
        self.run_transient_hooked(ws, t0, tf, config, &[], |_, _, _| Ok(()))
    }

    /// [`run_transient`](Self::run_transient) with a per-step hook, for
    /// a closed loop between the circuit and a model that reads it:
    /// the steps also land on `extra_breakpoints`, and after each
    /// accepted step `hook` gets its time and solution and may rewrite
    /// DC source values through its [`SourceWriter`]. A rewrite takes
    /// effect from the next step, which restarts with backward Euler,
    /// as after a PWL breakpoint.
    ///
    /// # Errors
    ///
    /// As [`run_transient`](Self::run_transient), and the first error
    /// the hook returns.
    ///
    /// # Panics
    ///
    /// Panics unless `tf > t0`.
    pub fn run_transient_hooked<E: From<SpiceError>>(
        &self,
        ws: &mut NewtonWorkspace,
        t0: f64,
        tf: f64,
        config: &TransientConfig,
        extra_breakpoints: &[f64],
        mut hook: impl FnMut(f64, &[f64], &mut SourceWriter<'_>) -> Result<(), E>,
    ) -> Result<TransientResult, E> {
        assert!(tf > t0, "transient horizon must be non-empty");
        let span = tf - t0;
        let snap = BREAKPOINT_SNAP * span;
        let dt_max = config.dt_max.unwrap_or(span / 50.0);
        let mut dt = config.dt_init.unwrap_or(span / 1000.0).min(dt_max);

        // Breakpoints inside the horizon.
        let mut breakpoints: Vec<f64> = self
            .breakpoints()
            .into_iter()
            .chain(extra_breakpoints.iter().copied())
            .filter(|&t| t > t0 && t < tf)
            .collect();
        if !extra_breakpoints.is_empty() {
            breakpoints.sort_unstable_by(f64::total_cmp);
            breakpoints.dedup();
        }
        breakpoints.push(tf);
        let mut next_bp = 0usize;

        // Initial condition.
        self.init_transient(ws, t0, &config.dc)?;

        // Pre-reserve for the common no-rejection trajectory: the step
        // ramps from dt to dt_max, then cruises at dt_max between
        // breakpoints.
        let estimate = (span / dt_max).ceil() as usize + breakpoints.len() + 16;
        let mut result = TransientResult {
            times: Vec::with_capacity(estimate),
            solutions: Vec::with_capacity(estimate),
        };
        result.times.push(t0);
        result.solutions.push(ws.solution().to_vec());

        let mut t = t0;
        // Force a BE step right after t0 and after every breakpoint or
        // source rewrite when using the trapezoidal rule.
        let mut be_restart = true;

        while t < tf - snap {
            // Do not step over the next breakpoint.
            while breakpoints[next_bp] <= t + snap {
                next_bp += 1;
            }
            let target = breakpoints[next_bp];
            let mut h = dt.min(target - t).min(dt_max);
            let hits_breakpoint = t + h >= target - snap;
            if hits_breakpoint {
                h = target - t;
            }

            let mode = match (config.integrator, be_restart) {
                (Integrator::BackwardEuler, _) | (Integrator::Trapezoidal, true) => {
                    IntegMode::BackwardEuler { h }
                }
                (Integrator::Trapezoidal, false) => IntegMode::Trapezoidal { h },
            };

            let t_new = t + h;
            // Step-site fault injection: one pre-armed check per step
            // attempt. An injected singular matrix aborts the run as a
            // real one does; `TimestepFloor` routes this step straight to
            // the bottomed-out rescue path below; the other kinds reject
            // the trial, as the solver errors they model do.
            let step_fault = ws.step_arm.check();
            if step_fault.is_some() {
                ws.stats.faults_injected += 1;
            }
            let floor_forced = step_fault == Some(FaultKind::TimestepFloor);
            let mut accepted = match step_fault {
                Some(FaultKind::SingularMatrix) => {
                    return Err(SpiceError::SingularMatrix { col: 0 }.into())
                }
                Some(_) => false,
                None => match self.solve_trial(ws, t_new, mode, &config.newton) {
                    Ok(()) => {
                        let max_dv = ws.x_try[..self.n_nodes]
                            .iter()
                            .zip(&ws.x[..self.n_nodes])
                            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                        max_dv <= config.dv_max || h <= DT_MIN * 4.0
                    }
                    Err(e @ SpiceError::SingularMatrix { .. }) => return Err(e.into()),
                    Err(_) => false,
                },
            };

            if !accepted {
                ws.stats.timestep_rejections += 1;
                // Reject: halve the step. When halving bottoms out at the
                // floor (or an injected fault says it has), climb the
                // rescue ladder on this failing step before giving up —
                // exactly where the pre-ladder engine returned
                // `StepUnderflow`, so unaffected runs are untouched.
                let bottomed = if floor_forced {
                    true
                } else {
                    dt = h / 2.0;
                    dt < DT_MIN
                };
                if bottomed {
                    self.rescue_step(ws, t, t_new, mode, dt.min(h), config)?;
                    accepted = true;
                    // The rescue converged under homotopy; re-enter the
                    // adaptive ramp cautiously.
                    dt = config.dt_init.unwrap_or(span / 1000.0).min(dt_max);
                }
            }

            if accepted {
                ws.stats.steps_accepted += 1;
                self.refresh_states(ws, true);
                ws.accept_trial();
                t = t_new;
                result.times.push(t);
                result.solutions.push(ws.solution().to_vec());
                let mut sources = SourceWriter {
                    compiled: self,
                    values: &mut ws.source_values,
                    changed: false,
                };
                hook(t, &ws.x, &mut sources)?;
                let rewritten = sources.changed;
                be_restart =
                    (hits_breakpoint || rewritten) && config.integrator == Integrator::Trapezoidal;
                dt = (dt * 1.4).min(dt_max);
            }
        }
        Ok(result)
    }

    /// The step-level rescue ladder, mirroring the dcop gmin/source
    /// homotopy: called only after timestep halving has bottomed out at
    /// the step floor on the step to `t_new`, so runs that never bottom
    /// out never enter it. Stage 1 ramps an extra gmin down
    /// [`GMIN_RAMP`] (warm-starting each rung from the previous one)
    /// and finishes with a gmin-free solve; stage 2 retries the step
    /// under [`CONFIG_RUNGS`] progressively patient Newton configs
    /// (doubled iteration budget, halved damping clamp per rung). On
    /// success the trial buffer holds a converged solution; on failure
    /// returns [`SpiceError::StepUnderflow`] with the number of rungs
    /// attempted.
    fn rescue_step(
        &self,
        ws: &mut NewtonWorkspace,
        t: f64,
        t_new: f64,
        mode: IntegMode,
        dt_floor: f64,
        config: &TransientConfig,
    ) -> Result<(), SpiceError> {
        let mut rungs = 0usize;

        // Stage 1: gmin ramp on the failing step. The first rung cold-
        // starts from the last accepted solution; later rungs (and the
        // final gmin-free solve) warm-start from the previous rung.
        let mut ramp_ok = true;
        let mut warm = false;
        for gmin in GMIN_RAMP {
            rungs += 1;
            ws.stats.rescue_gmin_rungs += 1;
            if self
                .solve_trial_with(ws, t_new, mode, gmin, warm, &config.newton)
                .is_ok()
            {
                warm = true;
            } else {
                ramp_ok = false;
                break;
            }
        }
        if ramp_ok
            && self
                .solve_trial_with(ws, t_new, mode, 0.0, true, &config.newton)
                .is_ok()
        {
            return Ok(());
        }

        // Stage 2: retry under progressively patient Newton configs.
        for k in 1..=CONFIG_RUNGS {
            rungs += 1;
            ws.stats.rescue_config_rungs += 1;
            let cfg = NewtonConfig {
                max_iterations: config.newton.max_iterations.saturating_mul(1 << k.min(16)),
                v_step_clamp: config.newton.v_step_clamp / 2f64.powi(k.min(32) as i32),
            };
            if self
                .solve_trial_with(ws, t_new, mode, 0.0, false, &cfg)
                .is_ok()
            {
                return Ok(());
            }
        }

        Err(SpiceError::StepUnderflow {
            time: t,
            dt: dt_floor,
            rescue_rungs: rungs,
        })
    }
}

/// A breakpoint within this fraction of the horizon above the current
/// time counts as reached: the step control never aims at it.
pub const BREAKPOINT_SNAP: f64 = 1e-15;

/// The DC source values a hook of
/// [`CompiledCircuit::run_transient_hooked`] may rewrite, for the rest
/// of the run: they live in its workspace, not the compiled circuit.
#[derive(Debug)]
pub struct SourceWriter<'a> {
    compiled: &'a CompiledCircuit,
    values: &'a mut [f64],
    changed: bool,
}

impl SourceWriter<'_> {
    /// Sets DC source `id` to `value` from the next step on.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] if `id` does not name a
    /// DC voltage or current source.
    pub fn set_dc(&mut self, id: ElementId, value: f64) -> Result<(), SpiceError> {
        let k = self.compiled.source_index(id)?;
        if !matches!(self.compiled.sources[k], Source::Dc(_)) {
            return Err(SpiceError::InvalidElement {
                reason: "set_dc requires a DC source id",
            });
        }
        if self.values[k].to_bits() != value.to_bits() {
            self.values[k] = value;
            self.changed = true;
        }
        Ok(())
    }
}

/// Runs a transient analysis over `[t0, tf]`.
///
/// Compiles the circuit on the fly; callers running the same circuit
/// repeatedly should compile once and use
/// [`CompiledCircuit::run_transient`] with a persistent
/// [`NewtonWorkspace`].
///
/// # Errors
///
/// Propagates DC/Newton failures; returns [`SpiceError::StepUnderflow`]
/// if the step collapses below the 1e-18 s floor.
pub fn run_transient(
    ckt: &Circuit,
    t0: f64,
    tf: f64,
    config: &TransientConfig,
) -> Result<TransientResult, SpiceError> {
    let compiled = CompiledCircuit::compile(ckt);
    let mut ws = NewtonWorkspace::new(&compiled);
    compiled.run_transient(&mut ws, t0, tf, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Source;

    #[test]
    fn rc_step_response_matches_the_analytic_exponential() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        let r = 1e3;
        let c = 1e-12;
        ckt.vsource(
            vin,
            Circuit::GROUND,
            Source::Pwl(Pwl::step(0.0, 1.0, 1e-9, 1e-12).unwrap()),
        );
        ckt.resistor(vin, vout, r);
        ckt.capacitor(vout, Circuit::GROUND, c);
        let res = run_transient(&ckt, 0.0, 8e-9, &TransientConfig::default()).unwrap();
        let out = res.voltage(&ckt, "out").unwrap();
        let tau = r * c;
        for &t_probe in &[1.5e-9, 2e-9, 3e-9, 5e-9] {
            let expect = 1.0 - (-(t_probe - 1e-9) / tau).exp();
            let got = out.eval(t_probe);
            assert!(
                (got - expect).abs() < 0.02,
                "t = {t_probe}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn backward_euler_also_converges_but_less_accurately() {
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
        let config = TransientConfig {
            integrator: Integrator::BackwardEuler,
            ..TransientConfig::default()
        };
        let res = run_transient(&ckt, 0.0, 8e-9, &config).unwrap();
        let out = res.voltage(&ckt, "out").unwrap();
        assert!(out.eval(7.9e-9) > 0.98);
    }

    #[test]
    fn capacitor_holds_charge_without_a_path() {
        // An isolated-by-off-transistor capacitor should hold its DC
        // value (only gmin leakage, negligible over nanoseconds).
        let mut ckt = Circuit::new();
        let store = ckt.node("store");
        let gate = ckt.node("gate");
        let drive = ckt.node("drive");
        ckt.vsource(drive, Circuit::GROUND, Source::Dc(1.0));
        ckt.vsource(gate, Circuit::GROUND, Source::Dc(0.0)); // pass FET off
        ckt.mosfet(store, gate, drive, MosfetParams::nmos_90nm(1.0));
        ckt.capacitor(store, Circuit::GROUND, 1e-15);
        let res = run_transient(&ckt, 0.0, 10e-9, &TransientConfig::default()).unwrap();
        let v = res.voltage(&ckt, "store").unwrap();
        assert!(
            (v.eval(10e-9) - v.eval(0.0)).abs() < 0.01,
            "storage node drifted from {} to {}",
            v.eval(0.0),
            v.eval(10e-9)
        );
    }

    #[test]
    fn inverter_transient_switches_rail_to_rail() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.vsource(vdd, Circuit::GROUND, Source::Dc(1.1));
        let a = ckt.node("a");
        ckt.vsource(
            a,
            Circuit::GROUND,
            Source::Pwl(Pwl::pulse(0.0, 1.1, 2e-9, 6e-9, 0.2e-9, 0.2e-9).unwrap()),
        );
        let y = ckt.node("y");
        ckt.mosfet(y, a, Circuit::GROUND, MosfetParams::nmos_90nm(1.0));
        ckt.mosfet(y, a, vdd, MosfetParams::pmos_90nm(2.0));
        ckt.capacitor(y, Circuit::GROUND, 2e-15);
        let res = run_transient(&ckt, 0.0, 10e-9, &TransientConfig::default()).unwrap();
        let out = res.voltage(&ckt, "y").unwrap();
        assert!(out.eval(1.5e-9) > 1.0, "idle-low input -> high output");
        assert!(out.eval(5e-9) < 0.1, "pulsed-high input -> low output");
        assert!(out.eval(9.5e-9) > 1.0, "recovers after the pulse");
    }

    #[test]
    fn breakpoints_are_hit_exactly() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(
            a,
            Circuit::GROUND,
            Source::Pwl(Pwl::step(0.0, 1.0, 3.3333e-9, 1e-12).unwrap()),
        );
        ckt.resistor(a, Circuit::GROUND, 1e3);
        let res = run_transient(&ckt, 0.0, 10e-9, &TransientConfig::default()).unwrap();
        assert!(
            res.times().iter().any(|&t| (t - 3.3333e-9).abs() < 1e-18),
            "breakpoint missed"
        );
        assert!((res.times().last().unwrap() - 10e-9).abs() < 1e-18);
    }

    #[test]
    fn mosfet_current_waveform_is_reconstructed() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.vsource(vdd, Circuit::GROUND, Source::Dc(1.1));
        let g = ckt.node("g");
        ckt.vsource(
            g,
            Circuit::GROUND,
            Source::Pwl(Pwl::step(0.0, 1.1, 2e-9, 0.1e-9).unwrap()),
        );
        let d = ckt.node("d");
        ckt.resistor(vdd, d, 5e3);
        let m = ckt.mosfet(d, g, Circuit::GROUND, MosfetParams::nmos_90nm(2.0));
        let res = run_transient(&ckt, 0.0, 6e-9, &TransientConfig::default()).unwrap();
        let id = res.mosfet_current(&ckt, m).unwrap();
        assert!(id.eval(1e-9).abs() < 1e-9, "off before the step");
        assert!(id.eval(5e-9) > 1e-5, "conducting after the step");
    }

    /// A current source into a resistor in parallel with a
    /// diode-connected MOSFET and a capacitor, with the source's id.
    fn injected_node() -> (Circuit, ElementId) {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        ckt.vsource(vdd, Circuit::GROUND, Source::Dc(1.1));
        ckt.resistor(vdd, d, 1e4);
        ckt.capacitor(d, Circuit::GROUND, 1e-13);
        ckt.mosfet(d, d, Circuit::GROUND, MosfetParams::nmos_90nm(2.0));
        let inj = ckt.isource(Circuit::GROUND, d, Source::Dc(0.0));
        (ckt, inj)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_hook_that_rewrites_nothing_leaves_the_run_bit_identical() {
        let (ckt, _) = injected_node();
        let config = TransientConfig::default();
        let reference = run_transient(&ckt, 0.0, 2e-9, &config).unwrap();
        let compiled = CompiledCircuit::compile(&ckt);
        let mut ws = NewtonWorkspace::new(&compiled);
        let mut calls = Vec::new();
        let hooked = compiled
            .run_transient_hooked(&mut ws, 0.0, 2e-9, &config, &[], |t, _, _| {
                calls.push(t);
                Ok::<_, SpiceError>(())
            })
            .unwrap();
        assert_eq!(reference, hooked);
        assert_eq!(calls, reference.times()[1..]);
    }

    #[test]
    fn hook_breakpoints_are_landed_on() {
        let (ckt, _) = injected_node();
        let compiled = CompiledCircuit::compile(&ckt);
        let mut ws = NewtonWorkspace::new(&compiled);
        let extra = [0.7e-9, 0.3e-9, 1.3e-9, 5e-9];
        let res = compiled
            .run_transient_hooked(
                &mut ws,
                0.0,
                2e-9,
                &TransientConfig::default(),
                &extra,
                |_, _, _| Ok::<_, SpiceError>(()),
            )
            .unwrap();
        for t in &extra[..3] {
            assert!(
                res.times().iter().any(|&s| (s - t).abs() < 1e-18),
                "breakpoint {t} missed"
            );
        }
        assert!((res.times().last().unwrap() - 2e-9).abs() < 1e-18);
    }

    #[test]
    fn hook_rewrites_take_effect_on_the_next_step() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let inj = ckt.isource(Circuit::GROUND, a, Source::Dc(0.0));
        let r = ckt.resistor(a, Circuit::GROUND, 1e3);
        let compiled = CompiledCircuit::compile(&ckt);
        let mut ws = NewtonWorkspace::new(&compiled);
        let res = compiled
            .run_transient_hooked(
                &mut ws,
                0.0,
                1e-9,
                &TransientConfig::default(),
                &[],
                |_, _, sources| sources.set_dc(inj, 1e-3),
            )
            .unwrap();
        let v = res.voltage(&ckt, "a").unwrap();
        assert!(
            v.points()[1].1.abs() < 1e-9,
            "the first step runs unrewritten"
        );
        assert!((v.points()[2].1 - 1.0).abs() < 1e-6);

        // Only sources can be rewritten, and the run reports the misuse.
        let err = compiled
            .run_transient_hooked(
                &mut ws,
                0.0,
                1e-9,
                &TransientConfig::default(),
                &[],
                |_, _, sources| sources.set_dc(r, 0.0),
            )
            .unwrap_err();
        assert!(matches!(err, SpiceError::InvalidElement { .. }));
    }

    #[test]
    fn a_hook_rewrite_matches_a_fresh_compile_resumed_from_that_state() {
        let (ckt, inj) = injected_node();
        let h = 2e-12;
        let config = TransientConfig {
            integrator: Integrator::BackwardEuler,
            dt_init: Some(h),
            dt_max: Some(h),
            ..TransientConfig::default()
        };
        // The live run rewrites the injection after its tenth step.
        let live = CompiledCircuit::compile(&ckt);
        let mut ws = NewtonWorkspace::new(&live);
        let mut steps = 0;
        let res = live
            .run_transient_hooked(&mut ws, 0.0, 30.0 * h, &config, &[], |_, _, sources| {
                steps += 1;
                match steps {
                    10 => sources.set_dc(inj, 20e-6),
                    _ => Ok(()),
                }
            })
            .unwrap();

        // The reference compiles the rewritten circuit from scratch,
        // takes the live run's state after its tenth step (under
        // backward Euler the solution is the whole state) and steps on
        // as the run does.
        let mut rewritten = ckt.clone();
        rewritten.set_source(inj, Source::Dc(20e-6)).unwrap();
        let fresh = CompiledCircuit::compile(&rewritten);
        let mut ws = NewtonWorkspace::new(&fresh);
        let mut t = res.times()[10];
        ws.x.copy_from_slice(&res.solutions[10]);
        ws.mode = IntegMode::BackwardEuler { h };
        fresh.refresh_states(&mut ws, false);
        for k in 11..21 {
            t += h;
            fresh
                .solve_trial(&mut ws, t, IntegMode::BackwardEuler { h }, &config.newton)
                .unwrap();
            fresh.refresh_states(&mut ws, true);
            ws.accept_trial();
            assert_eq!(t.to_bits(), res.times()[k].to_bits());
            assert_eq!(bits(ws.solution()), bits(&res.solutions[k]), "at t = {t}");
        }
    }

    #[test]
    fn compiled_rerun_on_a_reused_workspace_is_bit_identical() {
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
        let config = TransientConfig::default();
        let reference = run_transient(&ckt, 0.0, 4e-9, &config).unwrap();

        let compiled = CompiledCircuit::compile(&ckt);
        let mut ws = NewtonWorkspace::new(&compiled);
        let first = compiled.run_transient(&mut ws, 0.0, 4e-9, &config).unwrap();
        // Second run on the now-dirty workspace must match exactly.
        let second = compiled.run_transient(&mut ws, 0.0, 4e-9, &config).unwrap();
        assert_eq!(reference, first);
        assert_eq!(reference, second);
    }
}
