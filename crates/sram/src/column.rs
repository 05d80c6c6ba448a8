//! Generated SRAM column arrays (paper future work, items 2 and 3,
//! at circuit rather than Monte-Carlo granularity).
//!
//! A column is the natural unit above the single 6T cell: `N` cells
//! share one bit-line pair, loaded by the periphery that a real array
//! hangs off the column — precharge/equalise devices, a column mux, a
//! latch-type sense amplifier and a write driver. This module
//! generates that netlist from a [`ColumnConfig`]; the periphery is
//! fixed, only the row count varies.
//!
//! Every row is built by the same 6T builder as
//! [`SramCell`](crate::SramCell) — transistor order, node capacitors
//! and the six per-transistor RTN current-source hooks — so the
//! two-pass SAMURAI methodology applies unchanged: pass 1 simulates
//! the clean write, per-transistor biases are extracted from it, RTN
//! currents are generated trap-by-trap, and pass 2 re-simulates with
//! the RTN injected ([`run_column_ensemble`]).
//!
//! Columns are where the sparse MNA path earns its keep: a 64-row
//! column is 275 unknowns, far past
//! [`SPARSE_AUTO_THRESHOLD`](samurai_spice::SPARSE_AUTO_THRESHOLD), so
//! [`SramColumn::compile`] picks the sparse LU automatically (or
//! honours an explicit [`SolverChoice`] override for equivalence
//! testing).

use samurai_core::checkpoint::{
    run_ensemble_checkpointed, CheckpointConfig, RunBudget, RunControls, Snapshot,
};
use samurai_core::ensemble::{
    Completion, ExecutionPolicy, FailurePolicy, FailureReport, IndexedResults, Parallelism,
};
use samurai_core::faults::FaultPlan;
use samurai_core::scenario::{DeviceGeometry, ScenarioConfig};
use samurai_core::telemetry::JsonValue;
use samurai_core::SeedStream;
use samurai_spice::{
    Circuit, CompiledCircuit, DcConfig, ElementId, MosfetAdjust, MosfetParams, NodeId, ParamPatch,
    SolverChoice, Source, TransientConfig,
};
use samurai_telemetry::{JobProbe, Recorder};
use samurai_trap::Technology;
use samurai_waveform::Pwl;

use crate::cell::{add_6t, cell_mosfet_params, CellNodes};
use crate::harness::{patched, run_two_pass, trap_device, RtnSite, TwoPassSpec};
use crate::scenario::{lower, scenario_or_default};
use crate::{SramCellParams, SramError};

/// Capacitance of each shared bit line to ground, farads.
const BITLINE_CAP: f64 = 4e-15;
/// Width of the precharge/equalise PMOS devices (µm-normalised, like
/// the cell widths).
const PRECHARGE_W: f64 = 2.0;
/// Width of the column-mux pass NMOS devices.
const MUX_W: f64 = 2.0;
/// Width of the sense-amplifier cross-coupled PMOS devices.
const SENSE_PMOS_W: f64 = 1.5;
/// Width of the sense-amplifier cross-coupled NMOS devices.
const SENSE_NMOS_W: f64 = 2.0;
/// Width of the sense-amplifier foot (enable) NMOS.
const SENSE_FOOT_W: f64 = 4.0;
/// Width of the write-driver pass NMOS devices.
const WRITE_W: f64 = 4.0;
/// Data-line capacitance behind the column mux, as a fraction of the
/// bit-line capacitance.
const DATALINE_CAP_RATIO: f64 = 0.25;

/// Configuration of a generated SRAM column.
#[derive(Debug, Clone)]
pub struct ColumnConfig {
    /// Number of 6T cells sharing the bit-line pair.
    pub rows: usize,
    /// Sizing, supply and threshold shifts of every cell.
    pub cell: SramCellParams,
    /// Linear-solver backend for [`SramColumn::compile`].
    pub solver: SolverChoice,
}

impl Default for ColumnConfig {
    fn default() -> Self {
        Self {
            rows: 8,
            cell: SramCellParams::default(),
            solver: SolverChoice::Auto,
        }
    }
}

/// Handles of one generated row: its `Q̄` node, its word-line source
/// and the per-transistor element ids.
#[derive(Debug, Clone)]
struct ColumnRow {
    qb: NodeId,
    wl_source: ElementId,
    transistors: [ElementId; 6],
    rtn_sources: [ElementId; 6],
}

/// A generated SRAM column: `rows` 6T cells on a shared bit-line pair
/// with precharge, column-mux, sense-amp and write-driver periphery.
#[derive(Debug, Clone)]
pub struct SramColumn {
    /// The generated netlist.
    pub circuit: Circuit,
    /// The configuration the column was generated from.
    pub config: ColumnConfig,
    /// Supply node.
    pub vdd_node: NodeId,
    /// Shared bit line.
    pub bl: NodeId,
    /// Shared complementary bit line.
    pub blb: NodeId,
    rows: Vec<ColumnRow>,
    dl: NodeId,
    dlb: NodeId,
    precharge_source: ElementId,
    sae_source: ElementId,
    we_source: ElementId,
    d_source: ElementId,
    db_source: ElementId,
}

impl SramColumn {
    /// Generates the column with every row at the configuration's base
    /// threshold shifts.
    ///
    /// The nominal netlist is generated once and `config.cell.vth_shift`
    /// is applied to every row as one circuit-level [`ParamPatch`],
    /// which is bit-identical to baking the shifts into the builder (a
    /// threshold shift is one `+=` on the device either way).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::InvalidConfig`] for a zero-row column.
    pub fn build(config: &ColumnConfig) -> Result<Self, SramError> {
        let mut column = Self::build_nominal(config)?;
        let mut patch = ParamPatch::nominal();
        for r in 0..config.rows {
            for (t, &dv) in config.cell.vth_shift.iter().enumerate() {
                patch
                    .devices
                    .push((column.transistor(r, t), MosfetAdjust::vth_shift(dv)));
            }
        }
        patch.apply_to_circuit(&mut column.circuit)?;
        Ok(column)
    }

    /// Generates the column netlist with every device at its nominal
    /// threshold; per-device variation is layered on afterwards as a
    /// [`ParamPatch`].
    fn build_nominal(config: &ColumnConfig) -> Result<Self, SramError> {
        if config.rows == 0 {
            return Err(SramError::InvalidConfig {
                reason: "column needs at least one row",
            });
        }

        let p = config.cell;
        let nmos = |w: f64| MosfetParams::nmos_90nm(w);
        let pmos = |w: f64| MosfetParams::pmos_90nm(w);

        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let bl = ckt.node("bl");
        let blb = ckt.node("blb");
        ckt.vsource(vdd, Circuit::GROUND, Source::Dc(p.vdd));
        ckt.capacitor(bl, Circuit::GROUND, BITLINE_CAP);
        ckt.capacitor(blb, Circuit::GROUND, BITLINE_CAP);

        // Rows: the 6T cell, with bl/blb shared.
        let nominal = std::array::from_fn(|t| cell_mosfet_params(&p, t));
        let mut rows = Vec::with_capacity(config.rows);
        for r in 0..config.rows {
            let wl = ckt.node(&format!("wl{r}"));
            let q = ckt.node(&format!("q{r}"));
            let qb = ckt.node(&format!("qb{r}"));
            let wl_source = ckt.vsource(wl, Circuit::GROUND, Source::Dc(0.0));
            let nodes = CellNodes {
                vdd,
                q,
                qb,
                bl,
                blb,
                wl,
            };
            let (transistors, rtn_sources) = add_6t(&mut ckt, &nodes, nominal, p.node_cap);
            rows.push(ColumnRow {
                qb,
                wl_source,
                transistors,
                rtn_sources,
            });
        }

        // Precharge/equalise: active-low gate, three PMOS devices.
        let pc = ckt.node("pc");
        let precharge_source = ckt.vsource(pc, Circuit::GROUND, Source::Dc(0.0));
        ckt.mosfet(bl, pc, vdd, pmos(PRECHARGE_W));
        ckt.mosfet(blb, pc, vdd, pmos(PRECHARGE_W));
        ckt.mosfet(bl, pc, blb, pmos(PRECHARGE_W));

        // Column mux: NMOS pass pair onto a capacitive data-line pair.
        let csel = ckt.node("csel");
        let dl = ckt.node("dl");
        let dlb = ckt.node("dlb");
        ckt.vsource(csel, Circuit::GROUND, Source::Dc(p.vdd));
        ckt.mosfet(dl, csel, bl, nmos(MUX_W));
        ckt.mosfet(dlb, csel, blb, nmos(MUX_W));
        ckt.capacitor(dl, Circuit::GROUND, DATALINE_CAP_RATIO * BITLINE_CAP);
        ckt.capacitor(dlb, Circuit::GROUND, DATALINE_CAP_RATIO * BITLINE_CAP);

        // Latch-type sense amplifier on the data lines, footed by an
        // enable NMOS.
        let sae = ckt.node("sae");
        let satail = ckt.node("satail");
        let sae_source = ckt.vsource(sae, Circuit::GROUND, Source::Dc(0.0));
        ckt.mosfet(dl, dlb, vdd, pmos(SENSE_PMOS_W));
        ckt.mosfet(dlb, dl, vdd, pmos(SENSE_PMOS_W));
        ckt.mosfet(dl, dlb, satail, nmos(SENSE_NMOS_W));
        ckt.mosfet(dlb, dl, satail, nmos(SENSE_NMOS_W));
        ckt.mosfet(satail, sae, Circuit::GROUND, nmos(SENSE_FOOT_W));

        // Write driver: data sources passed onto the bit lines through
        // enable NMOS devices (the low side does the writing).
        let we = ckt.node("we");
        let d = ckt.node("d");
        let db = ckt.node("db");
        let we_source = ckt.vsource(we, Circuit::GROUND, Source::Dc(0.0));
        let d_source = ckt.vsource(d, Circuit::GROUND, Source::Dc(0.0));
        let db_source = ckt.vsource(db, Circuit::GROUND, Source::Dc(0.0));
        ckt.mosfet(bl, we, d, nmos(WRITE_W));
        ckt.mosfet(blb, we, db, nmos(WRITE_W));

        Ok(Self {
            circuit: ckt,
            config: config.clone(),
            vdd_node: vdd,
            bl,
            blb,
            rows,
            dl,
            dlb,
            precharge_source,
            sae_source,
            we_source,
            d_source,
            db_source,
        })
    }

    /// Compiles the column under the configured [`SolverChoice`].
    pub fn compile(&self) -> CompiledCircuit {
        CompiledCircuit::compile_with_solver(&self.circuit, self.config.solver)
    }

    /// Number of generated rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// The element id of transistor `t` (cell order `M1..M6`) of row
    /// `r` — the target for bias extraction.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `t` is out of range.
    pub fn transistor(&self, r: usize, t: usize) -> ElementId {
        self.rows[r].transistors[t]
    }

    /// The RTN current-source hook paired with transistor `t` of row
    /// `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `t` is out of range.
    pub fn rtn_source(&self, r: usize, t: usize) -> ElementId {
        self.rows[r].rtn_sources[t]
    }

    /// Programs a full precharge-then-write cycle of `bit` into row 0:
    /// the precharge gate releases at the end of the precharge phase,
    /// the write driver and row 0's word line strobe during the write
    /// phase, every other word line stays low and the sense amplifier
    /// is held disabled.
    ///
    /// # Errors
    ///
    /// Returns a waveform error for degenerate timings.
    pub fn drive_write(&mut self, timing: &ColumnTiming, bit: bool) -> Result<(), SramError> {
        let vdd = self.config.cell.vdd;
        let e = timing.edge;
        let t_pc = timing.precharge;
        let wl_on = t_pc + 2.0 * e;
        let wl_off = wl_on + timing.write;
        let (d_level, db_level) = if bit { (vdd, 0.0) } else { (0.0, vdd) };

        let pc = Pwl::step(0.0, vdd, t_pc, e)?;
        let we = Pwl::pulse(0.0, vdd, t_pc + e, wl_off + e, e, e)?;
        self.drive(self.precharge_source, Source::Pwl(pc));
        self.drive(self.sae_source, Source::Dc(0.0));
        self.drive(self.we_source, Source::Pwl(we));
        self.drive(self.d_source, Source::Dc(d_level));
        self.drive(self.db_source, Source::Dc(db_level));
        for r in 0..self.rows.len() {
            let wl = if r == 0 {
                Source::Pwl(Pwl::pulse(0.0, vdd, wl_on, wl_off, e, e)?)
            } else {
                Source::Dc(0.0)
            };
            self.drive(self.rows[r].wl_source, wl);
        }
        Ok(())
    }

    /// Sets the waveform of one of the builder's sources.
    fn drive(&mut self, id: ElementId, source: Source) {
        self.circuit
            .set_source(id, source)
            .expect("drive source id minted by the builder"); // lint: allow(HYG002): source id minted by the builder
    }

    /// A DC initial guess for the pre-write state: supply, precharged
    /// bit/data lines and every `Q̄` high (all cells storing 0), the
    /// written data level on the driver inputs.
    pub fn initial_guess(&self, bit: bool) -> Vec<f64> {
        let vdd = self.config.cell.vdd;
        let mut guess = vec![0.0; self.circuit.node_count()];
        let mut set = |node: NodeId, v: f64| {
            if let Some(i) = node.unknown_index() {
                guess[i] = v;
            }
        };
        set(self.vdd_node, vdd);
        set(self.bl, vdd);
        set(self.blb, vdd);
        for row in &self.rows {
            set(row.qb, vdd);
        }
        set(self.dl, vdd);
        set(self.dlb, vdd);
        // The `d`/`db` nodes are the last two created; their sources
        // pin them, the guess just matches.
        let d_level = if bit { vdd } else { 0.0 };
        let n = self.circuit.node_count();
        guess[n - 2] = d_level;
        guess[n - 1] = vdd - d_level;
        guess
    }
}

/// Timing of the generated precharge-then-write cycle.
#[derive(Debug, Clone, Copy)]
pub struct ColumnTiming {
    /// Duration of the precharge phase, seconds.
    pub precharge: f64,
    /// Duration of the word-line strobe, seconds.
    pub write: f64,
    /// Post-strobe settling time, seconds.
    pub settle: f64,
    /// Rise/fall time of every generated edge, seconds.
    pub edge: f64,
}

impl Default for ColumnTiming {
    fn default() -> Self {
        Self {
            precharge: 0.3e-9,
            write: 1.2e-9,
            settle: 0.5e-9,
            edge: 0.05e-9,
        }
    }
}

impl ColumnTiming {
    /// Total simulated horizon of one write cycle.
    pub fn duration(&self) -> f64 {
        self.precharge + self.write + self.settle
    }
}

/// Configuration of a column-level Monte-Carlo ensemble: `members`
/// independently varied columns, each written once through the full
/// two-pass (clean → RTN-injected) methodology.
#[derive(Debug, Clone)]
pub struct ColumnEnsembleConfig {
    /// Column size and cell sizing (its `solver` choice carries through
    /// to every member's compile).
    pub column: ColumnConfig,
    /// Write-cycle timing.
    pub timing: ColumnTiming,
    /// The bit written into row 0 (cells start storing 0,
    /// so `true` exercises a real flip).
    pub bit: bool,
    /// Number of column instances to simulate.
    pub members: usize,
    /// Unified per-member scenario distribution: mismatch (with
    /// Pelgrom area scaling), beta/geometry spread, supply and
    /// temperature corners, NBTI stress time and trap-density
    /// dispersion, expanded deterministically from the master seed and
    /// journalled per member. `None` samples
    /// `ScenarioConfig::fixed_vth_sigma(0.02)` and journals no scenario
    /// stamp.
    pub scenario: Option<ScenarioConfig>,
    /// Technology whose trap statistics profile each cell transistor.
    pub technology: Technology,
    /// Multiplier on the sampled trap density (0 disables RTN).
    pub density_scale: f64,
    /// The paper's accelerated-RTN scale factor.
    pub rtn_scale: f64,
    /// Uniform refinement of the Eq (3) current between trap events.
    pub current_oversample: usize,
    /// Master random seed (threshold shifts and trap physics).
    pub seed: u64,
    /// Worker pool over members; results are bit-identical at every
    /// setting.
    pub parallelism: Parallelism,
    /// SPICE solver configuration for both transient passes.
    pub spice: TransientConfig,
    /// What to do when a member's simulation fails.
    pub failure: FailurePolicy,
    /// Deterministic fault plan for the sweep. Empty in production.
    pub faults: FaultPlan,
    /// Crash-safe snapshotting of the ensemble (see
    /// [`samurai_core::checkpoint`]). Off by default.
    pub checkpoint: CheckpointConfig,
    /// Deterministic work ceilings; an exhausted budget truncates the
    /// ensemble cleanly ([`ColumnStats::completion`]). Unlimited by
    /// default.
    pub budget: RunBudget,
}

impl Default for ColumnEnsembleConfig {
    fn default() -> Self {
        Self {
            column: ColumnConfig::default(),
            timing: ColumnTiming::default(),
            bit: true,
            members: 4,
            scenario: None,
            technology: Technology::node_90nm(),
            density_scale: 1.0,
            rtn_scale: 1.0,
            current_oversample: 16,
            seed: 0,
            parallelism: Parallelism::Auto,
            spice: TransientConfig::default(),
            failure: FailurePolicy::FailFast,
            faults: FaultPlan::none(),
            checkpoint: CheckpointConfig::default(),
            budget: RunBudget::default(),
        }
    }
}

/// Outcome of one ensemble member.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMemberResult {
    /// Member index.
    pub member: usize,
    /// Did the clean (RTN-free) pass write row 0 correctly?
    pub write_ok_clean: bool,
    /// Did the RTN-injected pass write row 0 correctly?
    pub write_ok: bool,
    /// Half-selected rows flipped in the clean pass (variation alone).
    pub disturbed_clean: usize,
    /// Half-selected rows flipped in the RTN pass.
    pub disturbed: usize,
    /// Total capture/emission events across all row transistors.
    pub rtn_events: usize,
    /// Final `Q` voltage of row 0 (the written row) in the RTN pass.
    pub q_selected: f64,
}

impl Snapshot for ColumnMemberResult {
    fn to_snapshot(&self) -> JsonValue {
        JsonValue::Arr(vec![
            JsonValue::U64(self.member as u64),
            JsonValue::Bool(self.write_ok_clean),
            JsonValue::Bool(self.write_ok),
            JsonValue::U64(self.disturbed_clean as u64),
            JsonValue::U64(self.disturbed as u64),
            JsonValue::U64(self.rtn_events as u64),
            // IEEE-754 bit pattern: the resumed run is bit-identical.
            JsonValue::U64(self.q_selected.to_bits()),
        ])
    }

    fn from_snapshot(v: &JsonValue) -> Option<Self> {
        let JsonValue::Arr(items) = v else {
            return None;
        };
        if items.len() != 7 {
            return None;
        }
        let usize_at = |i: usize| usize::try_from(items[i].as_u64()?).ok();
        let bool_at = |i: usize| match items[i] {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        };
        Some(Self {
            member: usize_at(0)?,
            write_ok_clean: bool_at(1)?,
            write_ok: bool_at(2)?,
            disturbed_clean: usize_at(3)?,
            disturbed: usize_at(4)?,
            rtn_events: usize_at(5)?,
            q_selected: f64::from_bits(items[6].as_u64()?),
        })
    }
}

/// Aggregated ensemble statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Per-member outcomes, in member order. Under `Quarantine` this
    /// holds only the members that completed.
    pub members: Vec<ColumnMemberResult>,
    /// Rows per column.
    pub rows: usize,
    /// Rescue/quarantine accounting; clean runs carry an empty report.
    pub report: FailureReport,
    /// Whether the ensemble ran to completion or a job budget
    /// truncated it at a job boundary.
    pub completion: Completion,
}

impl ColumnStats {
    /// Members whose RTN pass failed the write.
    pub fn write_failures(&self) -> usize {
        self.members.iter().filter(|m| !m.write_ok).count()
    }

    /// Total disturbed half-selected rows across the ensemble (RTN
    /// pass).
    pub fn total_disturbs(&self) -> usize {
        self.members.iter().map(|m| m.disturbed).sum()
    }

    /// Total RTN events across the ensemble.
    pub fn total_rtn_events(&self) -> usize {
        self.members.iter().map(|m| m.rtn_events).sum()
    }

    /// Members that contributed statistics.
    pub fn effective_members(&self) -> usize {
        self.members.len()
    }
}

/// Geometry of every row transistor, in scenario device order
/// (`r * 6 + t`) — the Pelgrom-area input of the scenario sampler.
fn column_geometries(config: &ColumnConfig) -> Vec<DeviceGeometry> {
    let sextet = crate::cell::cell_geometries(&config.cell);
    (0..config.rows)
        .flat_map(|_| sextet.iter().copied())
        .collect()
}

/// Runs the column Monte-Carlo ensemble.
///
/// Members are sharded over the ensemble engine; each member's seeds
/// derive from the master seed by member index, so the statistics are
/// bit-identical at every worker count. Each member runs the full
/// two-pass methodology on its own column instance: a clean write, a
/// per-transistor bias extraction over every row, trap-by-trap RTN
/// generation, and an RTN-injected re-simulation on the same compiled
/// circuit and workspace.
///
/// # Errors
///
/// Propagates the per-member simulation failure with the lowest index
/// once the failure policy is exhausted.
pub fn run_column_ensemble(config: &ColumnEnsembleConfig) -> Result<ColumnStats, SramError> {
    run_column_ensemble_observed(config, &mut Recorder::noop())
}

/// [`run_column_ensemble`] reporting per-member solver effort into a
/// telemetry [`Recorder`]. The statistics are bit-identical to
/// [`run_column_ensemble`] for every worker count, recording or not.
///
/// # Errors
///
/// As [`run_column_ensemble`].
pub fn run_column_ensemble_observed(
    config: &ColumnEnsembleConfig,
    recorder: &mut Recorder,
) -> Result<ColumnStats, SramError> {
    let seeds = SeedStream::new(config.seed);
    let scenario = scenario_or_default(config.scenario);
    let geometries = column_geometries(&config.column);
    let policy = ExecutionPolicy {
        failure: config.failure,
        faults: config.faults.clone(),
        seed: config.seed,
    };
    let controls = RunControls {
        checkpoint: config.checkpoint.clone(),
        budget: config.budget,
    };
    let outcome = run_ensemble_checkpointed(
        config.members,
        config.parallelism,
        &policy,
        &controls,
        recorder,
        IndexedResults::new,
        |member, rung, probe: &mut JobProbe| -> Result<ColumnMemberResult, SramError> {
            let member_seeds = seeds.substream(member as u64);
            let sample = scenario.sample(&mut member_seeds.rng(0), &geometries);
            // Row r's transistor t draws its traps from substream
            // 1 + 6r + t, the stream its RTN site draws from.
            let lowered = lower(
                &sample,
                &config.column.cell,
                &config.technology,
                config.density_scale,
                |i| member_seeds.substream(1 + i as u64),
            );

            // The corner supply goes into the config before the drive
            // waveforms are built, so the PWL drives track it.
            let mut column_config = config.column.clone();
            column_config.cell.vdd = lowered.vdd;
            // The member's devices (V_T, beta, geometry) go into its
            // netlist, which pass-1 bias extraction reads; the compiled
            // copy adds the thermal corner.
            let mut column = SramColumn::build_nominal(&column_config)?;
            let patch = ParamPatch {
                devices: (0..lowered.adjust.len())
                    .map(|i| {
                        let adjust = MosfetAdjust {
                            vth_delta: lowered.vth_shift[i],
                            ..lowered.adjust[i]
                        };
                        (column.transistor(i / 6, i % 6), adjust)
                    })
                    .collect(),
                phi_t_scale: 1.0,
            };
            patch.apply_to_circuit(&mut column.circuit)?;
            column.drive_write(&config.timing, config.bit)?;
            let thermal = ParamPatch {
                devices: Vec::new(),
                phi_t_scale: lowered.phi_t_scale,
            };
            let netlist = patched(&column.circuit, &thermal)?;
            let mut compiled = CompiledCircuit::compile_with_solver(&netlist, config.column.solver);

            let tf = config.timing.duration();
            let spice = if rung == 0 {
                config.spice.clone()
            } else {
                config.spice.rescue_rung(rung)
            };
            let spice = TransientConfig {
                dc: DcConfig {
                    initial_guess: Some(column.initial_guess(config.bit)),
                    ..spice.dc
                },
                ..spice
            };
            let sites = lowered.traps.into_iter().enumerate().map(|(i, traps)| {
                let mosfet = column.transistor(i / 6, i % 6);
                RtnSite {
                    mosfet,
                    source: column.rtn_source(i / 6, i % 6),
                    device: trap_device(&netlist, mosfet, &lowered.technology),
                    traps,
                    seeds: member_seeds.substream(1 + i as u64),
                }
            });
            let spec = TwoPassSpec {
                tf,
                spice: &spice,
                faults: &config.faults.for_job(member, rung),
                equilibrate: true,
                current_oversample: config.current_oversample,
                rtn_scale: config.rtn_scale,
            };
            let mut rtn_events = 0;
            let (pass1, pass2, solver) =
                run_two_pass(&mut compiled, &column.circuit, &spec, sites, |_, _, rtn| {
                    rtn_events += rtn.event_count();
                })?;

            let vdd = column_config.cell.vdd;
            let half = 0.5 * vdd;
            let q_final =
                |pass: &samurai_spice::TransientResult, r: usize| -> Result<f64, SramError> {
                    let q = pass.voltage(&column.circuit, &format!("q{r}"))?;
                    Ok(q.eval(tf))
                };
            let target_high = config.bit;
            let written = |q: f64| (q > half) == target_high;
            let mut disturbed_clean = 0;
            let mut disturbed = 0;
            for r in 1..column.rows() {
                // All cells start storing 0: a high Q is a disturb.
                if q_final(&pass1, r)? > half {
                    disturbed_clean += 1;
                }
                if q_final(&pass2, r)? > half {
                    disturbed += 1;
                }
            }
            let q_sel_clean = q_final(&pass1, 0)?;
            let q_sel = q_final(&pass2, 0)?;
            probe.record_solver(solver);
            // Stamp the job's scenario only when one was configured:
            // the legacy journal schema stays byte-identical.
            if config.scenario.is_some() {
                probe.record_scenario(sample.stamp());
            }
            Ok(ColumnMemberResult {
                member,
                write_ok_clean: written(q_sel_clean),
                write_ok: written(q_sel),
                disturbed_clean,
                disturbed,
                rtn_events,
                q_selected: q_sel,
            })
        },
    )?;
    Ok(ColumnStats {
        members: outcome.acc.into_vec(),
        rows: config.column.rows,
        report: outcome.report,
        completion: outcome.completion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use samurai_spice::{NewtonWorkspace, SolverKind};

    /// The closed-form structure of a generated column: `(nodes,
    /// voltage sources, elements, unknowns)`.
    ///
    /// Nodes: `vdd`/`bl`/`blb`, `wl`/`q`/`qb` per row, and nine in the
    /// periphery (`pc`; `csel`, `dl`, `dlb`; `sae`, `satail`; `we`,
    /// `d`, `db`). Voltage sources: the supply, one word line per row,
    /// and seven periphery drives (precharge, column select, sense
    /// enable, and the write driver's enable and data pair). Elements:
    /// the supply and two bit-line capacitors, 15 per row (word-line
    /// source, six transistors, two node capacitors, six RTN hooks),
    /// and 20 in the periphery (4 precharge, 5 mux, 6 sense, 5 write).
    /// Unknowns: node voltages plus voltage-source branch currents.
    pub(super) fn closed_form(rows: usize) -> (usize, usize, usize, usize) {
        (12 + 3 * rows, 7 + rows, 23 + 15 * rows, 19 + 4 * rows)
    }

    /// The `(nodes, voltage sources, elements, unknowns)` of a built
    /// column.
    pub(super) fn structure(column: &SramColumn) -> (usize, usize, usize, usize) {
        let c = &column.circuit;
        let nodes = c.node_count();
        let unknowns = c.unknown_count();
        (nodes, unknowns - nodes, c.element_count(), unknowns)
    }

    #[test]
    fn generated_structure_matches_the_closed_form() {
        for rows in [1, 2, 3, 4, 16] {
            let config = ColumnConfig {
                rows,
                ..ColumnConfig::default()
            };
            let column = SramColumn::build(&config).unwrap();
            assert_eq!(
                structure(&column),
                closed_form(rows),
                "structure drifted at {rows} rows"
            );
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let zero = ColumnConfig {
            rows: 0,
            ..ColumnConfig::default()
        };
        assert!(matches!(
            SramColumn::build(&zero),
            Err(SramError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn dcop_agrees_between_dense_and_sparse_backends() {
        let config = ColumnConfig {
            rows: 4,
            ..ColumnConfig::default()
        };
        let column = SramColumn::build(&config).unwrap();
        let dc = DcConfig {
            initial_guess: Some(column.initial_guess(true)),
            ..DcConfig::default()
        };
        let mut solutions = Vec::new();
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let compiled = CompiledCircuit::compile_with_solver(&column.circuit, choice);
            let mut ws = NewtonWorkspace::new(&compiled);
            compiled.dc_operating_point(&mut ws, 0.0, &dc).unwrap();
            solutions.push(ws.solution().to_vec());
        }
        for (a, b) in solutions[0].iter().zip(&solutions[1]) {
            assert!(
                (a - b).abs() <= 1e-9,
                "dense/sparse dcop disagree: {a} vs {b}"
            );
        }
    }

    #[test]
    fn large_columns_compile_to_the_sparse_backend() {
        let config = ColumnConfig {
            rows: 16,
            ..ColumnConfig::default()
        };
        let column = SramColumn::build(&config).unwrap();
        assert!(column.circuit.unknown_count() >= samurai_spice::SPARSE_AUTO_THRESHOLD);
        let compiled = column.compile();
        assert_eq!(compiled.solver_kind(), SolverKind::Sparse);
        assert!(compiled.nnz() > 0);
    }

    #[test]
    fn clean_write_flips_the_selected_row_only() {
        let config = ColumnEnsembleConfig {
            column: ColumnConfig {
                rows: 2,
                ..ColumnConfig::default()
            },
            members: 1,
            scenario: Some(ScenarioConfig::nominal()),
            density_scale: 0.0, // RTN off: both passes identical.
            seed: 5,
            ..ColumnEnsembleConfig::default()
        };
        let stats = run_column_ensemble(&config).unwrap();
        assert_eq!(stats.effective_members(), 1);
        let m = &stats.members[0];
        assert!(m.write_ok_clean, "clean write failed: Q = {}", m.q_selected);
        assert!(m.write_ok);
        assert_eq!(m.disturbed, 0, "half-selected row flipped");
        assert_eq!(m.rtn_events, 0);
    }

    #[test]
    fn shifted_build_is_bitwise_identical_to_inline_shifts() {
        // The ParamPatch-backed build must reproduce the devices the
        // retired inline builder produced: nominal params plus one
        // unconditional `vth +=` per transistor, in every row.
        let dv = [0.011, -0.007, 0.003, 0.0, -0.021, 0.014];
        let config = ColumnConfig {
            rows: 3,
            cell: SramCellParams {
                vth_shift: dv,
                ..SramCellParams::default()
            },
            ..ColumnConfig::default()
        };
        let column = SramColumn::build(&config).unwrap();
        for r in 0..config.rows {
            for (t, &shift) in dv.iter().enumerate() {
                let got = column
                    .circuit
                    .mosfet_params(column.transistor(r, t))
                    .unwrap();
                let want = cell_mosfet_params(&config.cell, t).with_vth_shift(shift);
                assert_eq!(got.vth.to_bits(), want.vth.to_bits(), "row {r} t {t}");
                assert_eq!(got.width.to_bits(), want.width.to_bits(), "row {r} t {t}");
            }
        }
    }

    #[test]
    fn scenario_routing_is_bit_identical_to_the_legacy_knobs() {
        // `None` samples `fixed_vth_sigma(0.02)` and only leaves the
        // scenario stamp out of the journal.
        let base = ColumnEnsembleConfig {
            column: ColumnConfig {
                rows: 2,
                ..ColumnConfig::default()
            },
            members: 2,
            density_scale: 0.5,
            seed: 9,
            ..ColumnEnsembleConfig::default()
        };
        let mut unset = Recorder::recording();
        let default = run_column_ensemble_observed(&base, &mut unset).unwrap();
        let mut set = Recorder::recording();
        let explicit = run_column_ensemble_observed(
            &ColumnEnsembleConfig {
                scenario: Some(ScenarioConfig::fixed_vth_sigma(0.02)),
                ..base
            },
            &mut set,
        )
        .unwrap();
        assert_eq!(default.members, explicit.members);
        let unset = unset.journal().to_jsonl();
        let set = set.journal().to_jsonl();
        assert!(!unset.contains("scenario_hash"), "{unset}");
        assert_eq!(set.matches("scenario_hash").count(), 2, "{set}");
        assert_ne!(unset, set);
    }

    #[test]
    fn ensemble_is_worker_count_independent() {
        let base = ColumnEnsembleConfig {
            column: ColumnConfig {
                rows: 2,
                ..ColumnConfig::default()
            },
            members: 3,
            density_scale: 0.5,
            seed: 9,
            ..ColumnEnsembleConfig::default()
        };
        let runs: Vec<ColumnStats> = [1, 2, 8]
            .into_iter()
            .map(|w| {
                let config = ColumnEnsembleConfig {
                    parallelism: Parallelism::Fixed(w),
                    ..base.clone()
                };
                run_column_ensemble(&config).unwrap()
            })
            .collect();
        assert_eq!(runs[0].members, runs[1].members, "1 vs 2 workers drifted");
        assert_eq!(runs[0].members, runs[2].members, "1 vs 8 workers drifted");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use samurai_spice::{NewtonWorkspace, SolverKind};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every generated column matches the closed-form structure
        /// counts, compiles without panicking under both backends, and
        /// has a solvable DC operating point (a structurally sound,
        /// connected netlist).
        #[test]
        fn generated_columns_are_well_formed(rows in 1usize..5) {
            let config = ColumnConfig {
                rows,
                ..ColumnConfig::default()
            };
            let column = SramColumn::build(&config).unwrap();
            prop_assert_eq!(tests::structure(&column), tests::closed_form(rows));

            let dc = DcConfig {
                initial_guess: Some(column.initial_guess(true)),
                ..DcConfig::default()
            };
            for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
                let compiled = CompiledCircuit::compile_with_solver(&column.circuit, choice);
                let expected = match choice {
                    SolverChoice::Dense => SolverKind::Dense,
                    _ => SolverKind::Sparse,
                };
                prop_assert_eq!(compiled.solver_kind(), expected);
                let mut ws = NewtonWorkspace::new(&compiled);
                compiled.dc_operating_point(&mut ws, 0.0, &dc).unwrap();
            }
        }
    }
}
