//! The SPICE → SAMURAI → SPICE write methodology over SRAM columns:
//! `column64_write` (one 64-row sparse column ensemble) and
//! `corner_sweep` (a supply × stress grid of 2-row dense column
//! ensembles, checkpointed), plus the traced replay that splits one
//! member's time into layers.
//!
//! The ensembles run through `run_column_ensemble_observed`, whose
//! member closure lives in the library, so the traced run cannot put
//! spans inside it. Instead it replays members outside the ensemble
//! with the same public calls — build, compile, transient, bias
//! extraction, trap profiling, RTN generation, source injection,
//! transient — each under its own span. Replays use the nominal
//! column (no scenario draws) and never enter the journal.

use std::collections::BTreeSet;
use std::time::Instant;

use rand::Rng;
use samurai_core::checkpoint::Snapshot;
use samurai_core::scenario::{DeviceGeometry, ScenarioConfig, NOMINAL_TEMPERATURE};
use samurai_core::telemetry::{JournalEvent, JsonValue, MemoryRecorder};
use samurai_core::{
    write_checkpoint_atomic, BiasWaveforms, CheckpointConfig, Completion, Parallelism,
    RtnGenerator, SeedStream,
};
use samurai_spice::{
    DcConfig, MosfetParams, NewtonWorkspace, SolverChoice, Source, TransientConfig,
};
use samurai_sram::margin::EOL_STRESS_SECONDS;
use samurai_sram::{
    run_column_ensemble_observed, ColumnConfig, ColumnEnsembleConfig, ColumnStats, ColumnTiming,
    SramColumn, SramError,
};
use samurai_trap::{DeviceParams, PropensityModel, TrapProfiler, TrapState};
use samurai_units::{Length, Voltage};
use samurai_waveform::Pwc;

use crate::harness::{median, run_reps, Ctx, Outcome, Rep, WORKERS};
use crate::trace::{span, Tracer};

/// The accelerated-RTN scale of both column workloads.
const RTN_SCALE: f64 = 30.0;

/// Members replayed per traced run.
const REPLAYS: usize = 2;

/// Fixed step of the x6 per-step timing, seconds: every step inside
/// the quiet precharge phase is accepted, so both LU backends walk the
/// same step sequence.
const FIXED_STEP: f64 = 5e-12;

/// One repetition: each ensemble of the plan into one recorder.
fn run_rep(
    plan: &[ColumnEnsembleConfig],
    tracer: Option<&Tracer>,
) -> Result<(MemoryRecorder, Vec<ColumnStats>), SramError> {
    let mut recorder = MemoryRecorder::recording();
    let mut stats = Vec::with_capacity(plan.len());
    for config in plan {
        let _s = span(tracer, "sram.column_ensemble");
        stats.push(run_column_ensemble_observed(config, &mut recorder)?);
    }
    Ok((recorder, stats))
}

fn ensemble(rows: usize, members: usize, seed: u64) -> ColumnEnsembleConfig {
    ColumnEnsembleConfig {
        column: ColumnConfig {
            rows,
            ..ColumnConfig::default()
        },
        members,
        rtn_scale: RTN_SCALE,
        density_scale: 1.0,
        seed,
        parallelism: Parallelism::Fixed(WORKERS),
        ..ColumnEnsembleConfig::default()
    }
}

/// `column64_write`: one 64-row column ensemble (275 unknowns, sparse
/// LU), 24 members.
pub fn run_column64(ctx: &Ctx) -> Outcome {
    let (rows, members) = if ctx.smoke { (4, 2) } else { (64, 24) };
    let plan = ensemble(rows, members, ctx.seed);
    // Set-up: a one-member pass (build, compile, both transients and
    // RTN generation warm).
    let warm = || {
        let mut warm = plan.clone();
        warm.members = 1;
        run_rep(&[warm], None)
            .map(drop)
            .map_err(|e| format!("{e:?}"))
    };
    let mut out = run_plan(
        ctx,
        "column64_write",
        std::slice::from_ref(&plan),
        warm,
        |_, _| Vec::new(),
    );
    if let Some(t) = ctx.tracer() {
        let steps = if ctx.smoke { 12 } else { 60 };
        out.set(
            "spice.fixed_step_us.sparse",
            fixed_step_seconds(rows, SolverChoice::Sparse, steps) * 1e6,
        );
        out.set(
            "spice.fixed_step_us.dense",
            fixed_step_seconds(rows, SolverChoice::Dense, steps) * 1e6,
        );
        replay_layers(&plan, t, &mut out);
    }
    out
}

/// The scenario distribution of every corner: Pelgrom mismatch, mild
/// beta/geometry spread, trap-count dispersion, a pinned supply corner
/// and an 80 K temperature window.
fn scenario_at(vdd_scale: f64, stress_time: f64) -> ScenarioConfig {
    ScenarioConfig {
        a_vt: 1.8e-9,
        sigma_beta: 0.02,
        sigma_geometry: 0.01,
        vdd_range: (vdd_scale, vdd_scale),
        temperature_range: (NOMINAL_TEMPERATURE, NOMINAL_TEMPERATURE + 80.0),
        stress_time,
        sigma_density: 0.1,
        ..ScenarioConfig::nominal()
    }
}

/// `corner_sweep`: a 3×3 supply × stress grid, 32 members of 2-row
/// columns (27 unknowns, dense LU) per point, checkpointed every 8
/// jobs.
pub fn run_corners(ctx: &Ctx) -> Outcome {
    let (vdds, stresses, members, every): (&[f64], &[f64], usize, usize) = if ctx.smoke {
        (&[0.9, 1.1], &[0.0, EOL_STRESS_SECONDS], 4, 2)
    } else {
        (&[0.9, 1.0, 1.1], &[0.0, 1e7, EOL_STRESS_SECONDS], 32, 8)
    };
    let seeds = SeedStream::new(ctx.seed);
    let dir = ctx.scratch.join("checkpoints");
    let mut plan = Vec::new();
    for (i, &vdd) in vdds.iter().enumerate() {
        for (j, &stress) in stresses.iter().enumerate() {
            let k = i * stresses.len() + j;
            let mut config = ensemble(2, members, seeds.substream(k as u64).seed());
            config.scenario = Some(scenario_at(vdd, stress));
            config.checkpoint =
                CheckpointConfig::to_file(dir.join(format!("corner.{i}_{j}.ckpt"))).every(every);
            plan.push(config);
        }
    }
    // Set-up: the scenario grid, a clean checkpoint directory and a
    // half-size pass over the first corner.
    let warm = || {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("checkpoint directory: {e}"))?;
        let mut warm = plan[0].clone();
        warm.members = members.div_ceil(2);
        run_rep(&[warm], None)
            .map(drop)
            .map_err(|e| format!("{e:?}"))
    };
    let mut out = run_plan(ctx, "corner_sweep", &plan, warm, audit_scenarios);
    if let Some(t) = ctx.tracer() {
        // Checkpoints: one snapshot per `every` jobs per point (the
        // shard width is one job at these sizes); the cost of one write
        // is re-measured on the final snapshot of each point.
        let mut bytes = 0.0;
        let mut write_s = Vec::new();
        for path in plan.iter().filter_map(|p| p.checkpoint.path.as_ref()) {
            let Ok(contents) = std::fs::read_to_string(path) else {
                out.fail(format!("no checkpoint at {}", path.display()));
                continue;
            };
            bytes += contents.len() as f64;
            let start = Instant::now();
            let written = {
                let _s = span(Some(t), "core.checkpoint.write");
                write_checkpoint_atomic(&dir.join("rewrite.ckpt"), &contents)
            };
            write_s.push(start.elapsed().as_secs_f64());
            if let Err(e) = written {
                out.fail(format!("checkpoint rewrite failed: {e}"));
            }
        }
        let writes = plan.len() * members.div_ceil(every);
        out.set("core.checkpoint.write_ms", median(&write_s) * 1e3);
        out.set("core.checkpoint.bytes", bytes);
        out.set("core.checkpoint.writes", writes as f64);
        out.set(
            "core.scenario.sample_us",
            scenario_sample_seconds(&plan[0]) * 1e6,
        );
        replay_layers(&plan[plan.len() / 2], t, &mut out);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Every job carries a distinct scenario stamp and at least one aged
/// corner ran (the x7 audit).
fn audit_scenarios(recorder: &MemoryRecorder, stats: &[ColumnStats]) -> Vec<String> {
    let mut stamped = 0usize;
    let mut aged = 0usize;
    let mut hashes = BTreeSet::new();
    for event in recorder.journal().events() {
        if let JournalEvent::Job {
            scenario: Some(stamp),
            ..
        } = event
        {
            stamped += 1;
            hashes.insert(stamp.hash);
            if stamp.aging_seconds > 0.0 {
                aged += 1;
            }
        }
    }
    let jobs: usize = stats.iter().map(ColumnStats::effective_members).sum();
    if stamped == jobs && hashes.len() == stamped && aged > 0 {
        Vec::new()
    } else {
        vec![format!(
            "scenario audit: {stamped} stamped of {jobs} jobs, {} distinct hashes, {aged} aged",
            hashes.len()
        )]
    }
}

/// The measured loop shared by both column workloads.
fn run_plan(
    ctx: &Ctx,
    workload: &str,
    plan: &[ColumnEnsembleConfig],
    setup: impl FnMut() -> Result<(), String>,
    audit: impl Fn(&MemoryRecorder, &[ColumnStats]) -> Vec<String>,
) -> Outcome {
    let mut out = Outcome::default();
    let (_, effort) = run_reps(ctx, workload, &mut out, setup, |tracer| {
        let (recorder, stats) = run_rep(plan, tracer)?;
        let mut failures = audit(&recorder, &stats);
        for (s, config) in stats.iter().zip(plan) {
            if s.completion != Completion::Complete
                || !s.report.is_clean()
                || s.effective_members() != config.members
            {
                failures.push(format!(
                    "ensemble incomplete: {} of {} members, {} rescued, {} quarantined",
                    s.effective_members(),
                    config.members,
                    s.report.rescued.len(),
                    s.report.quarantined.len()
                ));
            }
        }
        let members: Vec<JsonValue> = stats
            .iter()
            .flat_map(|s| s.members.iter().map(Snapshot::to_snapshot))
            .collect();
        let solver = recorder.solver_totals();
        Ok::<_, SramError>(Rep {
            recorder,
            results: JsonValue::Arr(members).to_json().into_bytes(),
            effort: vec![
                solver.newton_iterations,
                solver.steps_accepted,
                solver.timestep_rejections,
            ],
            failures,
        })
    });
    if ctx.tracer().is_some() {
        for (name, value) in [
            "spice.newton_iterations",
            "spice.steps_accepted",
            "spice.step_rejections",
        ]
        .into_iter()
        .zip(effort)
        {
            out.set(name, value as f64);
        }
    }
    out
}

/// Replays [`REPLAYS`] members of `config` under spans and records the
/// per-layer split (seconds per replayed member).
fn replay_layers(config: &ColumnEnsembleConfig, t: &Tracer, out: &mut Outcome) {
    let mut newton = 0u64;
    let mut events = 0usize;
    let mut candidates = 0u64;
    let mut mosfets = 0usize;
    for member in 0..REPLAYS {
        match replay_member(config, member, t) {
            Ok(r) => {
                newton += r.newton_iterations;
                events += r.events;
                candidates += r.candidates;
                mosfets = r.mosfets;
            }
            Err(e) => out.fail(format!("replay of member {member} failed: {e:?}")),
        }
    }
    let per = 1.0 / REPLAYS as f64;
    let transient = t.self_seconds("spice.transient");
    let newton_s = transient / newton.max(1) as f64;
    let ekv_s = ekv_eval_seconds();
    out.set(
        "sram.column.build_s",
        t.self_seconds("sram.column.build") * per,
    );
    out.set("spice.compile_s", t.self_seconds("spice.compile") * per);
    out.set("spice.transient.self_s", transient * per);
    out.set("spice.newton_us", newton_s * 1e6);
    out.set(
        "spice.bias_extract_s",
        t.self_seconds("spice.bias_extract") * per,
    );
    out.set(
        "core.generator.self_s",
        t.self_seconds("core.generator") * per,
    );
    out.set("core.generator.candidates", candidates as f64 * per);
    out.set("core.generator.events", events as f64 * per);
    out.set("spice.ekv_eval_ns", ekv_s * 1e9);
    // Every MOSFET is evaluated once per Newton iteration.
    out.set("spice.ekv_share_est", ekv_s * mosfets as f64 / newton_s);
    let member = t.total_seconds("replay.member");
    out.set(
        "trace.unaccounted_frac",
        t.self_seconds("replay.member") / member.max(f64::MIN_POSITIVE),
    );
}

/// What one replayed member counted.
struct Replay {
    newton_iterations: u64,
    events: usize,
    candidates: u64,
    mosfets: usize,
}

/// One member of the two-pass methodology, replayed layer by layer on
/// the nominal column.
fn replay_member(
    config: &ColumnEnsembleConfig,
    member: usize,
    t: &Tracer,
) -> Result<Replay, SramError> {
    let tracer = Some(t);
    let _root = span(tracer, "replay.member");
    let seeds = SeedStream::new(config.seed).substream(member as u64);
    let column = {
        let _s = span(tracer, "sram.column.build");
        let mut column = SramColumn::build(&config.column)?;
        column.drive_write(&config.timing, config.bit)?;
        column
    };
    let mut compiled = {
        let _s = span(tracer, "spice.compile");
        column.compile()
    };
    let spice = TransientConfig {
        dc: DcConfig {
            initial_guess: Some(column.initial_guess(config.bit)),
            ..config.spice.dc.clone()
        },
        ..config.spice.clone()
    };
    let tf = config.timing.duration();
    let mut ws = NewtonWorkspace::new(&compiled);
    let pass1 = {
        let _s = span(tracer, "spice.transient");
        compiled.run_transient(&mut ws, 0.0, tf, &spice)?
    };

    let mut recorder = MemoryRecorder::recording();
    let mut events = 0;
    for r in 0..column.rows() {
        for tr in 0..6 {
            let element = column.transistor(r, tr);
            let bias = {
                let _s = span(tracer, "spice.bias_extract");
                BiasWaveforms::new(
                    pass1.mosfet_gate_drive(&column.circuit, element)?,
                    pass1.mosfet_current(&column.circuit, element)?,
                )
            };
            let rtn = {
                let _s = span(tracer, "core.generator");
                let params = column.circuit.mosfet_params(element)?;
                let device = trap_device(params, config);
                let profile_seeds = seeds.substream(1 + (r * 6 + tr) as u64);
                let mut tech = config.technology.clone();
                tech.device = device;
                tech.trap_density *= config.density_scale;
                let mut traps = TrapProfiler::new(tech).sample(&mut profile_seeds.rng(0));
                let mut eq_rng = profile_seeds.rng(1);
                let v0 = bias.v_gs.eval(0.0);
                for trap in &mut traps {
                    let model = PropensityModel::new(device, *trap);
                    if eq_rng.gen::<f64>() < model.stationary_occupancy(v0) {
                        trap.initial_state = TrapState::Filled;
                    }
                }
                RtnGenerator::new(device, traps)
                    .with_seed(profile_seeds.substream(7).seed())
                    .with_current_oversample(config.current_oversample)
                    .with_parallelism(Parallelism::Fixed(1))
                    .generate_observed(&bias, 0.0, tf, &mut recorder)?
            };
            events += rtn.event_count();
            let _s = span(tracer, "spice.set_source");
            compiled.set_source(
                column.rtn_source(r, tr),
                rtn_source(&rtn.i_rtn, config.rtn_scale)?,
            )?;
        }
    }
    {
        let _s = span(tracer, "spice.transient");
        compiled.run_transient(&mut ws, 0.0, tf, &spice)?;
    }
    Ok(Replay {
        newton_iterations: ws.stats().newton_iterations,
        events,
        candidates: recorder.trap_totals().candidates,
        mosfets: 6 * column.rows(),
    })
}

/// The trap-physics view of a column transistor.
fn trap_device(params: &MosfetParams, config: &ColumnEnsembleConfig) -> DeviceParams {
    let tech = &config.technology.device;
    DeviceParams {
        width: Length::from_metres(params.width),
        length: Length::from_metres(params.length),
        t_ox: tech.t_ox,
        v_th: Voltage::from_volts(params.vth),
        v_fb: tech.v_fb,
        doping: tech.doping,
        temperature: tech.temperature,
    }
}

/// An RTN staircase as a PWL current source: steps closer than 1 fs
/// merge so the edges fit.
fn rtn_source(pwc: &Pwc, scale: f64) -> Result<Source, SramError> {
    let mut steps: Vec<(f64, f64)> = Vec::with_capacity(pwc.steps().len());
    for &(t, v) in pwc.scaled(scale).steps() {
        match steps.last_mut() {
            Some(last) if t - last.0 < 1e-15 => last.1 = v,
            _ => steps.push((t, v)),
        }
    }
    if steps.len() < 2 {
        return Ok(Source::Dc(steps.first().map_or(0.0, |s| s.1)));
    }
    Ok(Source::Pwl(Pwc::new(steps)?.to_pwl(0.9e-16)))
}

/// Seconds per accepted step of a fixed-step write transient on a
/// `rows`-row column through one LU backend (the x6 method).
fn fixed_step_seconds(rows: usize, choice: SolverChoice, steps: usize) -> f64 {
    let config = ColumnConfig {
        rows,
        solver: choice,
        ..ColumnConfig::default()
    };
    let Ok(mut column) = SramColumn::build(&config) else {
        return f64::NAN;
    };
    if column.drive_write(&ColumnTiming::default(), true).is_err() {
        return f64::NAN;
    }
    let transient = TransientConfig {
        dt_init: Some(FIXED_STEP),
        dt_max: Some(FIXED_STEP),
        dc: DcConfig {
            initial_guess: Some(column.initial_guess(true)),
            ..DcConfig::default()
        },
        ..TransientConfig::default()
    };
    let compiled = column.compile();
    let mut ws = NewtonWorkspace::new(&compiled);
    let start = Instant::now();
    if compiled
        .run_transient(&mut ws, 0.0, steps as f64 * FIXED_STEP, &transient)
        .is_err()
    {
        return f64::NAN;
    }
    start.elapsed().as_secs_f64() / ws.stats().steps_accepted.max(1) as f64
}

/// Seconds per EKV drain-current evaluation (value and three partial
/// derivatives), over a sweep of biases.
fn ekv_eval_seconds() -> f64 {
    const EVALS: usize = 200_000;
    let devices = [MosfetParams::nmos_90nm(1.0), MosfetParams::pmos_90nm(1.0)];
    let start = Instant::now();
    let mut acc = 0.0;
    for k in 0..EVALS {
        let x = (k % 1000) as f64 * 1e-3;
        let (i, g1, g2, g3) = std::hint::black_box(&devices[k % 2]).eval(x, 1.0 - x, 0.1 * x);
        acc += i + g1 + g2 + g3;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() / EVALS as f64
}

/// Seconds per scenario draw for one member of `config`'s column.
fn scenario_sample_seconds(config: &ColumnEnsembleConfig) -> f64 {
    const DRAWS: usize = 2000;
    let Some(scenario) = config.scenario else {
        return 0.0;
    };
    let geometries: Vec<DeviceGeometry> = (0..config.column.rows)
        .flat_map(|_| samurai_sram::cell_geometries(&config.column.cell))
        .collect();
    let seeds = SeedStream::new(config.seed);
    let start = Instant::now();
    let mut acc = 0u64;
    for k in 0..DRAWS {
        acc ^= scenario
            .sample(&mut seeds.substream(k as u64).rng(0), &geometries)
            .hash;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() / DRAWS as f64
}
