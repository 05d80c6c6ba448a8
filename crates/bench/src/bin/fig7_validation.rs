//! Fig 7 (a–f): stationary validation of SAMURAI against the Machlup
//! analytical expressions.
//!
//! Three sweeps — gate bias `V_gs`, trap energy `E_tr` and trap depth
//! `y_tr` — each holding the other two parameters fixed. For every
//! configuration a long constant-bias RTN trace is generated with
//! Algorithm 1 and both the autocorrelation `R(τ)` (panels a–c) and the
//! power spectral density `S(f)` (panels d–f) are estimated and
//! compared against the analytical Lorentzian forms, plus the thermal
//! noise floor `(8/3)kTgm`.
//!
//! Run with `cargo run --release -p samurai-bench --bin fig7_validation`.

use samurai_analysis::{analytical, autocorr, psd, stats};
use samurai_bench::{banner, write_tagged_csv, BenchSession, Flag};
use samurai_core::checkpoint::{run_ensemble_checkpointed, RunControls, Snapshot};
use samurai_core::ensemble::{Completion, ExecutionPolicy, IndexedResults};
use samurai_core::telemetry::{JobProbe, JsonValue};
use samurai_core::{
    simulate_trap_probed, single_trap_amplitude, CoreError, SeedStream, UniformisationConfig,
};
use samurai_trap::{DeviceParams, PropensityModel, TrapParams};
use samurai_units::{Energy, Length, Temperature};
use samurai_waveform::Pwl;

/// One validation configuration.
struct Config {
    sweep: &'static str,
    label: String,
    v_gs: f64,
    e_tr_ev: f64,
    y_tr_nm: f64,
}

/// One panel's full output, carried through the ensemble engine (and,
/// under `--checkpoint`, through the snapshot file).
struct PanelResult {
    autocorr_rows: Vec<(String, Vec<f64>)>,
    psd_rows: Vec<(String, Vec<f64>)>,
    summary: (String, f64, f64, f64),
    report: String,
}

/// Tagged CSV rows as a snapshot member; floats travel as IEEE-754 bit
/// patterns so a resumed run regenerates byte-identical CSVs.
fn rows_to_snapshot(rows: &[(String, Vec<f64>)]) -> JsonValue {
    JsonValue::Arr(
        rows.iter()
            .map(|(tag, nums)| {
                JsonValue::Arr(vec![
                    JsonValue::Str(tag.clone()),
                    JsonValue::Arr(nums.iter().map(|v| JsonValue::U64(v.to_bits())).collect()),
                ])
            })
            .collect(),
    )
}

fn rows_from_snapshot(v: &JsonValue) -> Option<Vec<(String, Vec<f64>)>> {
    let JsonValue::Arr(rows) = v else {
        return None;
    };
    rows.iter()
        .map(|row| {
            let JsonValue::Arr(pair) = row else {
                return None;
            };
            let [JsonValue::Str(tag), JsonValue::Arr(nums)] = pair.as_slice() else {
                return None;
            };
            let nums = nums
                .iter()
                .map(|n| Some(f64::from_bits(n.as_u64()?)))
                .collect::<Option<Vec<f64>>>()?;
            Some((tag.clone(), nums))
        })
        .collect()
}

impl Snapshot for PanelResult {
    fn to_snapshot(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("autocorr", rows_to_snapshot(&self.autocorr_rows)),
            ("psd", rows_to_snapshot(&self.psd_rows)),
            (
                "summary",
                JsonValue::Arr(vec![
                    JsonValue::Str(self.summary.0.clone()),
                    JsonValue::U64(self.summary.1.to_bits()),
                    JsonValue::U64(self.summary.2.to_bits()),
                    JsonValue::U64(self.summary.3.to_bits()),
                ]),
            ),
            ("report", JsonValue::Str(self.report.clone())),
        ])
    }

    fn from_snapshot(v: &JsonValue) -> Option<Self> {
        let JsonValue::Arr(summary) = v.get("summary")? else {
            return None;
        };
        let [JsonValue::Str(label), a, b, c] = summary.as_slice() else {
            return None;
        };
        Some(Self {
            autocorr_rows: rows_from_snapshot(v.get("autocorr")?)?,
            psd_rows: rows_from_snapshot(v.get("psd")?)?,
            summary: (
                label.clone(),
                f64::from_bits(a.as_u64()?),
                f64::from_bits(b.as_u64()?),
                f64::from_bits(c.as_u64()?),
            ),
            report: v.get("report")?.as_str()?.to_owned(),
        })
    }
}

fn main() {
    let Some(args) = samurai_bench::handle_help(
        "fig7_validation",
        "regenerates Fig. 7: stationary validation against the Machlup expressions",
        &Flag::ALL,
        &[],
    ) else {
        return;
    };
    let device = DeviceParams::nominal_90nm();
    let i_d = 10e-6;

    // The trap whose occupancy is ~50 % at V_gs = 0.6 V makes the most
    // telling validation target; the sweeps bracket it.
    let mut configs = Vec::new();
    for v in [0.70, 0.80, 0.90] {
        configs.push(Config {
            sweep: "vgs",
            label: format!("vgs={v}"),
            v_gs: v,
            e_tr_ev: 0.40,
            y_tr_nm: 1.6,
        });
    }
    for e in [0.30, 0.40, 0.50] {
        configs.push(Config {
            sweep: "etr",
            label: format!("etr={e}"),
            v_gs: 0.80,
            e_tr_ev: e,
            y_tr_nm: 1.6,
        });
    }
    for y in [1.4, 1.6, 1.8] {
        configs.push(Config {
            sweep: "ytr",
            label: format!("ytr={y}"),
            v_gs: 0.80,
            e_tr_ev: 0.40,
            y_tr_nm: y,
        });
    }

    // Each configuration seeds its own RNG stream by index, so this
    // sweep shards over the ensemble engine with bit-identical output
    // at every worker count.
    let parallelism = args.parallelism();
    let smoke = args.smoke();
    let control_args = args.run_controls();
    let mut session = BenchSession::from_args("fig7", &args);
    let policy = ExecutionPolicy {
        failure: args.failure_policy(),
        faults: control_args.faults(),
        seed: 1000,
    };
    println!("workers: {} (--threads N to change)", parallelism.workers());
    println!(
        "failure policy: {:?} (--failure-policy fail-fast|retry[:R]|quarantine[:M[:R]])",
        policy.failure
    );
    if let Some(summary) = control_args.checkpoint_summary() {
        println!("checkpoint: {summary} (--checkpoint PATH / --checkpoint-every N / --resume)");
    }
    if let Some(max) = control_args.budget.max_jobs {
        println!("budget: at most {max} jobs (--max-jobs N)");
    }
    if smoke {
        println!("smoke mode: traces shortened to the validation minimum");
    }
    let controls = RunControls {
        checkpoint: control_args.checkpoint,
        budget: control_args.budget,
    };
    let outcome = run_ensemble_checkpointed(
        configs.len(),
        parallelism,
        &policy,
        &controls,
        session.recorder_mut(),
        IndexedResults::new,
        |idx, rung, probe: &mut JobProbe| -> Result<PanelResult, CoreError> {
            let config = &configs[idx];
            let trap = TrapParams::new(
                Length::from_nanometres(config.y_tr_nm),
                Energy::from_ev(config.e_tr_ev),
            );
            let model = PropensityModel::new(device, trap);
            let lambda = model.rate_sum();
            let p = model.stationary_occupancy(config.v_gs);
            let delta_i = single_trap_amplitude(&device, config.v_gs, i_d);

            // Long stationary trace sampled at 20x the corner rate. The
            // expected transition rate is 2·λΣ·p(1−p), so the sample count
            // adapts to keep ~5000 transitions even at extreme duty cycles.
            let dt = 0.05 / lambda;
            // On rescue rungs the trace shortens geometrically — the
            // conservative retreat when the nominal horizon blows the
            // trap-event budget.
            let n_full = (((5.0e4 / (p * (1.0 - p))) as usize).clamp(1 << 17, 1 << 23)
                >> rung.min(8))
            .max(1 << 14);
            // Smoke mode trades statistical tightness for a seconds-scale
            // end-to-end pass; the estimators and artifacts are unchanged.
            let n = if smoke { 1 << 14 } else { n_full };
            let tf = dt * n as f64;
            let mut rng = SeedStream::new(1000 + idx as u64).rng(0);
            let occupancy = simulate_trap_probed(
                &model,
                &Pwl::constant(config.v_gs),
                0.0,
                tf,
                &mut rng,
                &UniformisationConfig::default(),
                probe,
            )?;
            let current = occupancy.scaled(delta_i).sample(0.0, dt, n);

            // Time domain: uncentred autocorrelation vs Machlup.
            let max_lag = 80usize;
            let (lags, measured_r) = autocorr::trace_autocorrelation(&current, max_lag);
            let analytic_r: Vec<f64> = lags
                .iter()
                .map(|&tau| analytical::machlup_autocorrelation(delta_i, p, lambda, tau))
                .collect();
            // Floor at 2 % of R(0): below that the estimator variance of a
            // strongly skewed telegraph signal dominates and a *relative*
            // error is not meaningful.
            let r_err = stats::rms_relative_error(
                &measured_r,
                &analytic_r,
                analytic_r[0] * 0.02,
            );
            let mut autocorr_rows = Vec::with_capacity(lags.len());
            for (k, &tau) in lags.iter().enumerate() {
                autocorr_rows.push((
                    config.label.clone(),
                    vec![tau, measured_r[k], analytic_r[k]],
                ));
            }

            // Frequency domain: Welch PSD vs the Lorentzian.
            let spectrum = psd::welch(&current, 4096);
            let corner = lambda / std::f64::consts::TAU;
            let gm = 2.0 * i_d / 0.3; // crude gm = 2 I_d / V_ov for the floor
            let thermal = analytical::thermal_noise_psd(Temperature::ROOM, gm);
            let mut log_err_acc = 0.0;
            let mut log_err_n = 0usize;
            let mut psd_rows = Vec::with_capacity(spectrum.freqs.len());
            for (f, s) in spectrum.freqs.iter().zip(&spectrum.values) {
                let analytic = analytical::lorentzian_psd(delta_i, p, lambda, *f);
                if *f < 10.0 * corner && *s > 0.0 && analytic > 0.0 {
                    log_err_acc += (s / analytic).ln().powi(2);
                    log_err_n += 1;
                }
                psd_rows.push((
                    config.label.clone(),
                    vec![*f, *s, analytic, thermal],
                ));
            }
            let psd_log_rms = (log_err_acc / log_err_n.max(1) as f64).sqrt();

            Ok(PanelResult {
                autocorr_rows,
                psd_rows,
                summary: (config.label.clone(), r_err, psd_log_rms, p),
                report: format!(
                    "{:8} {:12}  lambda={:.3e}/s  p={:.3}  R(tau) rms rel err={:.3}  S(f) log-rms={:.3}",
                    config.sweep, config.label, lambda, p, r_err, psd_log_rms
                ),
            })
        },
    )
    .expect("horizon scaled to the trap rate");
    if !outcome.report.is_clean() {
        println!(
            "rescue report: {} rescued, {} quarantined of {} panels",
            outcome.report.rescued.len(),
            outcome.report.quarantined.len(),
            outcome.report.jobs,
        );
        print!("{}", outcome.report.journal().to_jsonl());
    }
    let completed_jobs = match outcome.completion {
        Completion::Complete => configs.len(),
        Completion::Truncated {
            completed,
            remaining,
        } => {
            println!(
                "budget exhausted: {completed} of {} panels done, {remaining} remaining \
                 (rerun with --resume to continue)",
                configs.len(),
            );
            completed
        }
    };
    let panels: Vec<PanelResult> = outcome.acc.into_vec();

    let mut autocorr_rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut psd_rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut summary: Vec<(String, f64, f64, f64)> = Vec::new();
    for panel in panels {
        autocorr_rows.extend(panel.autocorr_rows);
        psd_rows.extend(panel.psd_rows);
        summary.push(panel.summary);
        println!("{}", panel.report);
    }

    let ac_path = write_tagged_csv(
        "fig7_autocorrelation.csv",
        "config,tau_s,measured_R,analytic_R",
        &autocorr_rows,
    );
    let psd_path = write_tagged_csv(
        "fig7_psd.csv",
        "config,freq_hz,measured_S,analytic_S,thermal_floor",
        &psd_rows,
    );

    banner("Fig 7 summary (paper: SAMURAI closely matches analytical)");
    let worst_r = summary.iter().map(|s| s.1).fold(0.0f64, f64::max);
    let worst_s = summary.iter().map(|s| s.2).fold(0.0f64, f64::max);
    println!("worst R(tau) rms relative error over 9 configs: {worst_r:.3}");
    println!("worst S(f) log-rms deviation over 9 configs:    {worst_s:.3}");
    // The bounds are set for full-length traces: a smoke trace's
    // estimator spread alone exceeds them, so a smoke run is not judged.
    println!(
        "verdict: {}",
        if smoke {
            "NOT JUDGED — smoke traces hold 2^14 samples, too few for the full run's \
             bounds (R 0.2, S 0.5)"
        } else if worst_r < 0.2 && worst_s < 0.5 {
            "MATCH — generated traces follow the analytical forms"
        } else {
            "MISMATCH — investigate"
        }
    );
    println!("csv: {} and {}", ac_path.display(), psd_path.display());
    session.finish(completed_jobs);
}
