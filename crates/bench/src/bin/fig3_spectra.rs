//! Fig 3: power spectral densities of 25 randomly sampled devices in
//! an old (180 nm) and a new (45 nm) technology, against the
//! analytical 1/f law.
//!
//! The paper's point: with ~100 active traps per device (old node) the
//! per-device spectra hug the analytical 1/f line, while with only
//! ~5–10 traps (new node) the spectra are individual bumpy Lorentzian
//! mixtures that the 1/f fit "completely fails to capture".
//!
//! Simulation detail (documented in EXPERIMENTS.md): only traps whose
//! corner rate lies within ±1 decade of the observation band are
//! simulated — slower traps are frozen for the whole record and faster
//! ones contribute only a flat, negligible tail, so the in-band
//! spectrum is unchanged while the event count stays bounded.
//!
//! Run with `cargo run --release -p samurai-bench --bin fig3_spectra`.

use samurai_analysis::{analytical, fit, psd};
use samurai_bench::{banner, write_tagged_csv, BenchSession, Flag};
use samurai_core::telemetry::{JobProbe, JobRecord, Stopwatch};
use samurai_core::{simulate_trap_probed, single_trap_amplitude, SeedStream, UniformisationConfig};
use samurai_trap::{PropensityModel, Technology, TrapProfiler};
use samurai_waveform::{Pwc, Pwl, Trace};

/// Observation window: 2^15 samples at 10 µs (0.33 s record,
/// band ≈ 3 Hz – 50 kHz).
const DT: f64 = 1e-5;
const N: usize = 1 << 15;

fn device_spectrum(
    tech: &Technology,
    device_idx: u64,
    seeds: &SeedStream,
    probe: &mut JobProbe,
) -> (psd::Spectrum, usize, usize) {
    let stream = seeds.substream(device_idx);
    let profiler = TrapProfiler::new(tech.clone());
    let traps = profiler.sample(&mut stream.rng(0));
    let total_traps = traps.len();

    let tf = DT * N as f64;
    let band_lo = 0.1 / tf; // a tenth of the record's fundamental
    let band_hi = 10.0 / DT; // ten times the sampling rate

    let v_bias = 0.8 * tech.vdd.volts();
    let i_d = 10e-6;
    let delta_i = single_trap_amplitude(&tech.device, v_bias, i_d);

    let mut current = Trace::from_fn(0.0, DT, N, |_| 0.0);
    let mut simulated = 0usize;
    for (k, trap) in traps.iter().enumerate() {
        let model = PropensityModel::new(tech.device, *trap);
        let lambda = model.rate_sum();
        if lambda < band_lo || lambda > band_hi {
            continue;
        }
        simulated += 1;
        let mut rng = stream.rng(1000 + k as u64);
        let occ: Pwc = simulate_trap_probed(
            &model,
            &Pwl::constant(v_bias),
            0.0,
            tf,
            &mut rng,
            &UniformisationConfig::default(),
            probe,
        )
        .expect("trap rate is bounded by the band filter");
        let sampled = occ.sample(0.0, DT, N);
        current = current.add(&sampled.map(|x| x * delta_i));
    }

    (psd::welch(&current, 2048), simulated, total_traps)
}

fn analytic_one_over_f(tech: &Technology, f: f64) -> f64 {
    // Population parameters: rates log-uniform between the deepest and
    // shallowest sampled trap. With trap energies uniform over a band
    // of width ΔE, the population average of p(1−p) is exactly kT/ΔE
    // (the logistic satisfies ∫σ(1−σ) dE = kT).
    let v_bias = 0.8 * tech.vdd.volts();
    let delta_i = single_trap_amplitude(&tech.device, v_bias, 10e-6);
    let rate = |depth: samurai_units::Length| {
        1.0 / (samurai_units::constants::DEFAULT_TAU0_S
            * (samurai_units::constants::DEFAULT_TUNNELLING_COEFFICIENT * depth.metres()).exp())
    };
    let rate_max = rate(tech.depth_range.0);
    let rate_min = rate(tech.depth_range.1);
    let band_ev = tech.energy_range.1.ev() - tech.energy_range.0.ev();
    let kt_ev = tech.device.temperature.thermal_energy().ev();
    analytical::one_over_f_psd(
        delta_i,
        kt_ev / band_ev,
        tech.mean_trap_count(),
        rate_min,
        rate_max,
        f,
    )
}

fn main() {
    let Some(args) = samurai_bench::handle_help(
        "fig3_spectra",
        "regenerates Fig. 3: RTN power spectral densities of sampled devices",
        &[Flag::Metrics],
        &[],
    ) else {
        return;
    };
    let seeds = SeedStream::new(33);
    let mut session = BenchSession::from_args("fig3", &args);
    let mut jobs = 0usize;
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut summaries = Vec::new();

    for (tech, tag) in [
        (Technology::node_180nm(), "old_180nm"),
        (Technology::node_45nm(), "new_45nm"),
    ] {
        banner(&format!(
            "{tag}: mean trap count {:.1}",
            tech.mean_trap_count()
        ));
        let mut slopes = Vec::new();
        let mut deviations = Vec::new();
        for dev in 0..25u64 {
            let mut probe = JobProbe::new(true);
            let watch = Stopwatch::start();
            let (spectrum, simulated, total) = device_spectrum(&tech, dev, &seeds, &mut probe);
            session.recorder_mut().absorb_job(&JobRecord {
                job: jobs,
                seconds: watch.elapsed_seconds(),
                rescued: None,
                solver: probe.solver(),
                trap: probe.trap(),
                scenario: None,
            });
            jobs += 1;
            // Keep a decimated copy of the spectrum for the CSV.
            for (f, s) in spectrum.freqs.iter().zip(&spectrum.values).step_by(8) {
                rows.push((
                    format!("{tag},dev{dev}"),
                    vec![*f, *s, analytic_one_over_f(&tech, *f)],
                ));
            }
            // Fit the log-log slope over the central band; devices
            // with no in-band traps are silent and are skipped.
            let lo = spectrum.freqs.len() / 16;
            let hi = spectrum.freqs.len() / 2;
            if simulated == 0 || spectrum.values[lo..hi].iter().all(|&s| s <= 0.0) {
                println!("  device {dev}: silent (0/{total} traps in band)");
                continue;
            }
            let fit = fit::fit_power_law(&spectrum.freqs[lo..hi], &spectrum.values[lo..hi]);
            slopes.push(fit.slope);
            // Log deviation from the analytic 1/f line.
            let mut acc = 0.0;
            let mut count = 0usize;
            for (f, s) in spectrum.freqs[lo..hi].iter().zip(&spectrum.values[lo..hi]) {
                if *s > 0.0 {
                    acc += (s / analytic_one_over_f(&tech, *f)).log10().powi(2);
                    count += 1;
                }
            }
            deviations.push((acc / count.max(1) as f64).sqrt());
            if dev < 5 {
                println!(
                    "  device {dev}: {simulated}/{total} traps in band, slope {:.2}, log10 dev {:.2}",
                    fit.slope,
                    deviations.last().unwrap()
                );
            }
        }
        let mean_slope = slopes.iter().sum::<f64>() / slopes.len() as f64;
        let slope_spread = {
            let m = mean_slope;
            (slopes.iter().map(|s| (s - m) * (s - m)).sum::<f64>() / slopes.len() as f64).sqrt()
        };
        let mean_dev = deviations.iter().sum::<f64>() / deviations.len() as f64;
        println!(
            "  SUMMARY {tag}: slope {mean_slope:.2} +/- {slope_spread:.2}, mean log10 deviation from 1/f line {mean_dev:.2}"
        );
        summaries.push((tag, mean_slope, slope_spread, mean_dev));
    }

    let path = write_tagged_csv(
        "fig3_spectra.csv",
        "tech,device,freq_hz,psd_a2hz,analytic_1overf",
        &rows,
    );

    banner("Fig 3 verdict (paper: 1/f fits old tech, fails new tech)");
    let (_, old_slope, old_spread, old_dev) = summaries[0];
    let (_, new_slope, new_spread, new_dev) = summaries[1];
    println!("old tech: slope {old_slope:.2} (spread {old_spread:.2}), deviation {old_dev:.2}");
    println!("new tech: slope {new_slope:.2} (spread {new_spread:.2}), deviation {new_dev:.2}");
    let shape_holds = (old_slope + 1.0).abs() < 0.3 && new_spread > old_spread && new_dev > old_dev;
    println!(
        "verdict: {}",
        if shape_holds {
            "MATCH — old node hugs 1/f, new node is dominated by individual traps"
        } else {
            "MISMATCH — investigate"
        }
    );
    println!("csv: {}", path.display());
    session.finish(jobs);
}
