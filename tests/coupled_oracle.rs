//! A closed-loop oracle for the coupled flow: with the RTN scale at 0
//! there is no feedback, so each transistor's trap follows the master
//! equation of its two-state chain under the RTN-free cell's bias
//! (`trap::master::integrate_occupancy`), which never touches the
//! thinning code or the transient engine's hook.
//!
//! Every transistor of a 6T cell holding a 0 carries one fast trap, and
//! the cell is written a 0 with word-line edges of a nanosecond, which
//! the engine crosses in steps of up to 200 ps. The pass transistor on
//! the `Q` side sees its gate drive sweep its trap from empty to full
//! and back along the edges; the other traps sit near stationarity. At
//! each sample time the count of runs whose trap is
//! filled is binomial with the master equation's `p(t)`, where `p(0)`
//! is the stationary occupancy at the operating point the start states
//! are drawn at. An exact two-sided binomial test judges every count,
//! at a family-wise level split over every sample time of every
//! transistor (Bonferroni). Everything is seeded, so a failure
//! reproduces.
//!
//! The property has power: it rejects the coupled loop's former trap
//! kernel, which jumped each trap with its rates frozen at the bias of
//! a step's start over the whole step.

#[path = "../crates/core/tests/support/binomial.rs"]
mod binomial;

use binomial::{binomial_p_value, ln_factorials};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use samurai::core::{exp_rand, SeedStream};
use samurai::spice::{
    run_transient, CompiledCircuit, DcConfig, MosfetParams, NewtonWorkspace, NodeId, Source,
    SpiceError, TransientConfig,
};
use samurai::sram::coupled::run_coupled;
use samurai::sram::{build_write_waveforms, MethodologyConfig, SramCell, Transistor, WriteTiming};
use samurai::trap::master::integrate_occupancy;
use samurai::trap::{DeviceParams, PropensityModel, Technology, TrapParams, TrapState};
use samurai::units::{Energy, Length, Voltage};
use samurai::waveform::{BitPattern, Pwc, Pwl};

/// Seeded runs per flow.
const RUNS: usize = 600;
/// Sample times, evenly spaced after `t = 0`.
const SAMPLES: usize = 24;
/// Master-equation substeps per sample interval.
const SUBSTEPS: usize = 400;
/// Family-wise false-rejection level across every test of a property.
const FAMILY_ALPHA: f64 = 1e-4;

/// One write of a 0 with word-line edges of an eighth of the period.
fn pattern_and_timing() -> (BitPattern, WriteTiming) {
    let timing = WriteTiming {
        period: 8e-9,
        edge: 1e-9,
        ..WriteTiming::default()
    };
    (BitPattern::parse("0").expect("valid pattern"), timing)
}

/// The cell's node voltages holding a 0: `vdd`, `q`, `qb`, `bl`,
/// `blb`, `wl`.
const HOLDING_ZERO: [f64; 6] = [1.1, 0.0, 1.1, 0.0, 0.0, 0.0];

/// The flow's settings for run `seed`: one trap per transistor, 0.1 nm
/// deep (`1/λΣ` about 0.27 ns), at the device's threshold level; no
/// RTN fed back; the operating point found from the held 0; steps of
/// up to 200 ps and 0.3 V.
fn config(seed: u64) -> MethodologyConfig {
    let trap = TrapParams::new(Length::from_nanometres(0.1), Energy::from_ev(0.0));
    MethodologyConfig {
        timing: pattern_and_timing().1,
        traps: Some(std::array::from_fn(|_| vec![trap])),
        rtn_scale: 0.0,
        seed,
        spice: TransientConfig {
            dv_max: 0.3,
            dt_max: Some(200e-12),
            dc: DcConfig {
                initial_guess: Some(HOLDING_ZERO.to_vec()),
                ..DcConfig::default()
            },
            ..TransientConfig::default()
        },
        ..MethodologyConfig::default()
    }
}

/// The cell driven by the write pattern, and its horizon.
fn driven_cell(config: &MethodologyConfig) -> (SramCell, f64) {
    let (pattern, timing) = pattern_and_timing();
    let mut cell = SramCell::new(config.cell);
    let waves = build_write_waveforms(&pattern, &timing).expect("valid timing");
    cell.set_wl(Source::Pwl(waves.wl));
    cell.set_bl(Source::Pwl(waves.bl));
    cell.set_blb(Source::Pwl(waves.blb));
    (cell, timing.duration(pattern.len()))
}

/// Transistor `t`'s trap model: the netlist device's sizing and
/// threshold with the 90 nm technology's oxide, doping and temperature.
fn trap_model(cell: &SramCell, t: Transistor, config: &MethodologyConfig) -> PropensityModel {
    let params = cell
        .circuit
        .mosfet_params(cell.transistor(t))
        .expect("a MOSFET");
    let tech = Technology::node_90nm().device;
    let device = DeviceParams {
        width: Length::from_metres(params.width),
        length: Length::from_metres(params.length),
        v_th: Voltage::from_volts(params.vth),
        ..tech
    };
    let traps = config.traps.as_ref().expect("explicit traps");
    PropensityModel::new(device, traps[t.index()][0])
}

/// A flow under test: each transistor's trap occupancy in run `seed`.
type Flow = fn(u64) -> Vec<Pwc>;

/// The coupled flow: Algorithm 1 on the adaptive engine.
fn algorithm_1(seed: u64) -> Vec<Pwc> {
    let report = run_coupled(&pattern_and_timing().0, &config(seed)).expect("coupled run");
    report
        .occupancies
        .into_iter()
        .map(|mut o| o.remove(0))
        .collect()
}

/// The former kernel on the same engine: start states drawn at the
/// operating point, then after every accepted step each trap jumps
/// with exponential waits at the rates of the step's starting bias,
/// and lands in its new state at the step's end.
fn frozen_rates(seed: u64) -> Vec<Pwc> {
    let config = config(seed);
    let (cell, tf) = driven_cell(&config);
    let compiled = CompiledCircuit::compile(&cell.circuit);
    let mut ws = NewtonWorkspace::new(&compiled);
    compiled
        .dc_operating_point(&mut ws, 0.0, &config.spice.dc)
        .expect("operating point");
    let seeds = SeedStream::new(seed);
    let mut traps: Vec<FrozenTrap> = Transistor::ALL
        .into_iter()
        .map(|t| {
            let id = cell.transistor(t);
            let (d, g, s) = cell.circuit.mosfet_nodes(id).expect("a MOSFET");
            let params = *cell.circuit.mosfet_params(id).expect("a MOSFET");
            let model = trap_model(&cell, t, &config);
            let mut rng = seeds.rng(t.index() as u64);
            let v0 = gate_drive(&params, [d, g, s], ws.solution());
            let state = match rng.gen::<f64>() < model.stationary_occupancy(v0) {
                true => TrapState::Filled,
                false => TrapState::Empty,
            };
            FrozenTrap {
                model,
                params,
                nodes: [d, g, s],
                rng,
                state,
                v: v0,
                steps: vec![(0.0, state.occupancy())],
            }
        })
        .collect();
    let mut t_prev = 0.0;
    compiled
        .run_transient_hooked(&mut ws, 0.0, tf, &config.spice, &[], |t, x, _| {
            for trap in &mut traps {
                trap.propagate(t, t - t_prev);
                trap.v = gate_drive(&trap.params, trap.nodes, x);
            }
            t_prev = t;
            Ok::<_, SpiceError>(())
        })
        .expect("frozen-rate run");
    traps
        .into_iter()
        .map(|trap| Pwc::new(trap.steps).expect("increasing step ends"))
        .collect()
}

/// The effective gate drive of a transistor in solution `x`.
fn gate_drive(params: &MosfetParams, [d, g, s]: [NodeId; 3], x: &[f64]) -> f64 {
    let v = |n: NodeId| n.unknown_index().map_or(0.0, |i| x[i]);
    params.gate_drive(v(d), v(g), v(s))
}

/// One trap of the frozen-rate variant.
struct FrozenTrap {
    model: PropensityModel,
    /// The transistor's parameters and drain, gate and source.
    params: MosfetParams,
    nodes: [NodeId; 3],
    rng: ChaCha8Rng,
    state: TrapState,
    /// The gate drive at the start of the step.
    v: f64,
    steps: Vec<(f64, f64)>,
}

impl FrozenTrap {
    /// Jumps over the step of length `h` ending at `t` with the rates
    /// frozen at the step's starting bias.
    fn propagate(&mut self, t: f64, h: f64) {
        let (lc, le) = self.model.propensities(self.v);
        let before = self.state;
        let mut remaining = h;
        loop {
            let rate = match self.state {
                TrapState::Filled => le,
                TrapState::Empty => lc,
            };
            let wait = exp_rand(&mut self.rng, 1.0 / rate);
            if wait > remaining {
                break;
            }
            remaining -= wait;
            self.state = self.state.toggled();
        }
        if self.state != before {
            self.steps.push((t, self.state.occupancy()));
        }
    }
}

/// Runs `flow` over `RUNS` seeds from `seed` and tests each
/// transistor's filled count at every sample time against the master
/// equation under the RTN-free cell's bias; returns the rejections.
fn rejections(flow: Flow, seed: u64) -> Vec<String> {
    let base = config(0);
    let (cell, tf) = driven_cell(&base);
    // The RTN-free bias, resolved far below the flows' own steps.
    let fine = TransientConfig {
        dt_max: Some(tf / 1000.0),
        dc: base.spice.dc.clone(),
        ..TransientConfig::default()
    };
    let clean = run_transient(&cell.circuit, 0.0, tf, &fine).expect("clean run");
    let dt = tf / SAMPLES as f64;
    let exact: Vec<Vec<f64>> = Transistor::ALL
        .into_iter()
        .map(|t| {
            let model = trap_model(&cell, t, &base);
            let bias: Pwl = clean
                .mosfet_gate_drive(&cell.circuit, cell.transistor(t))
                .expect("a MOSFET");
            let p0 = model.stationary_occupancy(bias.eval(0.0));
            let from =
                |state| integrate_occupancy(&model, &bias, state, 0.0, dt, SAMPLES + 1, SUBSTEPS);
            let (filled, empty) = (from(TrapState::Filled), from(TrapState::Empty));
            filled
                .values()
                .iter()
                .zip(empty.values())
                .map(|(f, e)| p0 * f + (1.0 - p0) * e)
                .collect()
        })
        .collect();

    let mut counts = [[0usize; SAMPLES]; 6];
    for run in 0..RUNS as u64 {
        let occupancies = flow(seed + run);
        for (count, occupancy) in counts.iter_mut().zip(&occupancies) {
            for (i, c) in count.iter_mut().enumerate() {
                if occupancy.eval((i + 1) as f64 * dt) == 1.0 {
                    *c += 1;
                }
            }
        }
    }

    let alpha = FAMILY_ALPHA / (6 * SAMPLES) as f64;
    let ln_fact = ln_factorials(RUNS);
    let mut out = Vec::new();
    for t in Transistor::ALL {
        for (i, &k) in counts[t.index()].iter().enumerate() {
            let p = exact[t.index()][i + 1];
            let p_value = binomial_p_value(k, RUNS, p, &ln_fact);
            if p_value < alpha {
                out.push(format!(
                    "{}: t = {}·tf/{SAMPLES}: {k} of {RUNS} filled, master equation {p:.4}, \
                     p-value {p_value:.2e} < {alpha:.1e}",
                    t.label(),
                    i + 1
                ));
            }
        }
    }
    out
}

#[test]
fn coupled_traps_follow_the_master_equation_without_feedback() {
    let rejected = rejections(algorithm_1, 1_000);
    assert!(rejected.is_empty(), "{}", rejected.join("\n"));
}

#[test]
fn the_closed_loop_oracle_rejects_rates_frozen_over_steps() {
    let rejected = rejections(frozen_rates, 1_000);
    assert!(
        rejected.len() >= 3,
        "frozen rates were rejected at only {} sample times:\n{}",
        rejected.len(),
        rejected.join("\n")
    );
}
