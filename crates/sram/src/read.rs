//! Read-disturb analysis (paper footnote 2).
//!
//! During a read both bit lines sit precharged at `V_dd` while the word
//! line opens the pass transistors. The storage node holding `0` is
//! briefly pulled up through the pass device; if the pull-down cannot
//! win the ratioed fight — and RTN can sap exactly that pull-down
//! current at exactly that moment — the cell flips. The paper notes
//! SAMURAI predicts these failures too; this module implements the
//! scenario.

use samurai_waveform::{Pwc, Pwl};

use samurai_spice::Source;

use crate::harness::{run_cell_two_pass, MethodologyConfig};
use crate::{SramCell, SramError, WriteTiming};

/// Result of a read-disturb experiment.
#[derive(Debug, Clone)]
pub struct ReadDisturbReport {
    /// `Q` over the whole experiment (store phase then reads).
    pub q: Pwl,
    /// `Q̄` over the whole experiment.
    pub qb: Pwl,
    /// Was the stored value lost by the end?
    pub disturbed: bool,
    /// `Q` at the end of the run, volts.
    pub final_q: f64,
    /// Per-transistor RTN currents injected (unscaled), indexed by
    /// [`Transistor::index`](crate::Transistor::index).
    pub i_rtn: Vec<Pwc>,
}

/// Runs a store-then-read experiment: the cell is initialised holding
/// `bit`, then `reads` consecutive read cycles hammer it with both bit
/// lines at `V_dd`. The two SPICE passes and the RTN generated between
/// them run as in [`run_methodology`](crate::run_methodology), under
/// every field of `config`.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_read_disturb(
    bit: bool,
    reads: usize,
    config: &MethodologyConfig,
) -> Result<ReadDisturbReport, SramError> {
    if reads == 0 {
        return Err(SramError::InvalidConfig {
            reason: "need at least one read cycle",
        });
    }
    let timing = config.timing;
    let vdd = config.cell.vdd;
    let cycles = reads + 1; // cycle 0 writes the initial value
    let tf = timing.duration(cycles);

    let mut cell = SramCell::new(config.cell);
    cell.set_wl(Source::Pwl(read_wl(&timing, cycles)));
    let (bl, blb) = read_bitlines(&timing, bit, cycles, vdd);
    cell.set_bl(Source::Pwl(bl));
    cell.set_blb(Source::Pwl(blb));

    let mut i_rtn = Vec::with_capacity(6);
    let (_, pass2, _) = run_cell_two_pass(&cell, tf, config, |_, _, rtn| i_rtn.push(rtn.i_rtn))?;
    let q = pass2.voltage(&cell.circuit, "q")?;
    let qb = pass2.voltage(&cell.circuit, "qb")?;
    let final_q = q.eval(tf * (1.0 - 1e-6));
    let held = if bit {
        final_q > 0.7 * vdd
    } else {
        final_q < 0.3 * vdd
    };

    Ok(ReadDisturbReport {
        q,
        qb,
        disturbed: !held,
        final_q,
        i_rtn,
    })
}

/// WL strobed every cycle (write in cycle 0, reads after).
fn read_wl(timing: &WriteTiming, cycles: usize) -> Pwl {
    let digital = samurai_waveform::DigitalTiming::new(timing.period, timing.edge, 0.0, timing.vdd)
        .expect("write timing was validated by the caller"); // lint: allow(HYG002): timing validated by the public entry point
    digital.strobe(0.0, cycles, timing.wl_on_frac, timing.wl_off_frac)
}

/// BL/BLB: drive the stored value in cycle 0, both precharged high
/// afterwards.
fn read_bitlines(timing: &WriteTiming, bit: bool, cycles: usize, vdd: f64) -> (Pwl, Pwl) {
    let t1 = timing.period;
    let e = timing.edge;
    let level = |b: bool| if b { vdd } else { 0.0 };
    let mk = |v0: f64| {
        let mut pts = vec![(0.0, v0)];
        if (v0 - vdd).abs() > 1e-12 {
            pts.push((t1, v0));
            pts.push((t1 + e, vdd));
        } else {
            pts.push((t1 + e, vdd));
        }
        pts.push((cycles as f64 * timing.period, vdd));
        Pwl::new(pts).expect("times are strictly increasing") // lint: allow(HYG002): breakpoints are built strictly increasing here
    };
    (mk(level(bit)), mk(level(!bit)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_cell_survives_reads_of_both_values() {
        for bit in [false, true] {
            let config = MethodologyConfig {
                traps: Some(Default::default()), // no RTN at all
                ..MethodologyConfig::default()
            };
            let report = run_read_disturb(bit, 3, &config).unwrap();
            assert!(
                !report.disturbed,
                "clean cell lost bit {bit}: final Q = {}",
                report.final_q
            );
        }
    }

    #[test]
    fn unscaled_rtn_does_not_flip_reads() {
        let config = MethodologyConfig {
            seed: 4,
            rtn_scale: 1.0,
            ..MethodologyConfig::default()
        };
        let report = run_read_disturb(false, 3, &config).unwrap();
        assert!(!report.disturbed, "final Q = {}", report.final_q);
        assert_eq!(report.i_rtn.len(), 6);
    }

    #[test]
    fn zero_reads_is_rejected() {
        let config = MethodologyConfig::default();
        assert!(matches!(
            run_read_disturb(true, 0, &config),
            Err(SramError::InvalidConfig { .. })
        ));
    }
}
