//! Array-level Monte Carlo (the paper's future-work item 3): sweep a
//! small SRAM array with per-cell V_T variation and trap populations
//! and count RTN-induced write failures.
//!
//! Run with `cargo run --release -p samurai --example array_bit_errors`.

#![allow(clippy::print_stdout, clippy::print_stderr)] // terminal output is the deliverable
use samurai::core::scenario::ScenarioConfig;
use samurai::sram::array::{run_array, ArrayConfig};
use samurai::sram::MethodologyConfig;
use samurai::waveform::BitPattern;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pattern = BitPattern::parse("1010")?;
    let vth_sigma = 0.04;
    let config = ArrayConfig {
        cells: 12,
        scenario: Some(ScenarioConfig::fixed_vth_sigma(vth_sigma)),
        seed: 99,
        base: MethodologyConfig {
            rtn_scale: 3000.0, // accelerated testing, as in the paper
            density_scale: 1.5,
            ..MethodologyConfig::default()
        },
        ..ArrayConfig::default()
    };

    println!(
        "simulating {} cells x {} writes (sigma_VT = {} mV, RTN x{})\n",
        config.cells,
        pattern.len(),
        vth_sigma * 1e3,
        config.base.rtn_scale,
    );
    let stats = run_array(&pattern, &config)?;

    println!("cell | errors | slow | baseline errors | RTN events");
    for cell in &stats.cells {
        println!(
            "{:4} | {:6} | {:4} | {:15} | {:10}",
            cell.cell, cell.errors, cell.slow, cell.baseline_errors, cell.rtn_events
        );
    }
    println!(
        "\nwrite-BER {:.3} ({} / {} writes), {} of {} cells failing",
        stats.error_rate(),
        stats.total_errors(),
        stats.cells.len() * stats.writes_per_cell,
        stats.failing_cells(),
        stats.cells.len(),
    );
    Ok(())
}
