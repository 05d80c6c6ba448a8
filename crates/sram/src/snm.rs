//! Static noise margin (SNM) of the 6T cell — butterfly curves and the
//! largest-square criterion.
//!
//! The Fig 2 margin story quantifies RTN as an equivalent `V_T` shift;
//! this module closes the loop by computing the *actual* SNM of the
//! cell from its voltage transfer curves:
//!
//! * **hold SNM** — word line low, the cross-coupled pair on its own;
//! * **read SNM** — word line high with both bit lines precharged to
//!   `V_dd`, the classic worst case (the pass transistor fights the
//!   pull-down at the `0` node);
//! * RTN enters as a threshold shift on a chosen transistor
//!   ([`SramCellParams::vth_shift`]), so the SNM degradation of a
//!   trapped charge can be read off directly.
//!
//! SNM is computed as the side of the largest square that fits inside
//! each butterfly lobe (the standard 45°-rotation construction), taking
//! the smaller lobe.

use samurai_spice::{Circuit, CompiledCircuit, DcConfig, MosfetParams, NewtonWorkspace, Source};

use crate::{SramCellParams, SramError, Transistor};

/// Which SNM scenario to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnmMode {
    /// Word line low: storage loop only.
    Hold,
    /// Word line high, both bit lines at `V_dd` (read condition).
    Read,
}

/// A voltage transfer curve: `out[i]` is the inverter output at
/// `input[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferCurve {
    /// Swept input voltages.
    pub input: Vec<f64>,
    /// Corresponding outputs.
    pub output: Vec<f64>,
}

impl TransferCurve {
    /// Linear interpolation of the output at `x` (clamped).
    // lint: hot-fn
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.input.len();
        if x <= self.input[0] {
            return self.output[0];
        }
        if x >= self.input[n - 1] {
            return self.output[n - 1];
        }
        let hi = self.input.partition_point(|&v| v <= x);
        let (x0, x1) = (self.input[hi - 1], self.input[hi]);
        let (y0, y1) = (self.output[hi - 1], self.output[hi]);
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }
}

/// The butterfly plot and its noise margins.
#[derive(Debug, Clone, PartialEq)]
pub struct SnmResult {
    /// VTC of the `Q → Q̄` inverter (input on `Q`).
    pub vtc_forward: TransferCurve,
    /// VTC of the `Q̄ → Q` inverter (input on `Q̄`).
    pub vtc_reverse: TransferCurve,
    /// Largest-square side of the upper-left lobe, volts.
    pub lobe_high: f64,
    /// Largest-square side of the lower-right lobe, volts.
    pub lobe_low: f64,
}

impl SnmResult {
    /// The cell's SNM: the smaller lobe.
    pub fn snm(&self) -> f64 {
        self.lobe_high.min(self.lobe_low)
    }

    /// Lobe asymmetry (0 for a perfectly balanced cell).
    pub fn asymmetry(&self) -> f64 {
        (self.lobe_high - self.lobe_low).abs()
    }
}

/// Builds one half-cell (an inverter, optionally loaded by its pass
/// transistor in read mode) and sweeps its VTC.
///
/// The half-cell corresponding to the forward curve drives `Q̄` from
/// `Q` through M4 (PMOS pull-up) and M5 (NMOS pull-down); the reverse
/// one drives `Q` through M3/M6. Threshold shifts from
/// `params.vth_shift` apply to the matching transistors.
fn sweep_vtc(
    params: &SramCellParams,
    mode: SnmMode,
    forward: bool,
    points: usize,
) -> Result<TransferCurve, SramError> {
    let vdd_v = params.vdd;
    let shift = params.vth_shift;
    // Transistor roles per direction (see `cell.rs` for the naming).
    let (pu_shift, pd_shift, pass_shift) = if forward {
        (
            shift[Transistor::M4.index()],
            shift[Transistor::M5.index()],
            shift[Transistor::M2.index()],
        )
    } else {
        (
            shift[Transistor::M3.index()],
            shift[Transistor::M6.index()],
            shift[Transistor::M1.index()],
        )
    };

    // Build the half-cell once; the sweep rewrites only the input
    // source on the compiled circuit and warm-starts each point from
    // the previous solution in one shared workspace.
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource(vdd, Circuit::GROUND, Source::Dc(vdd_v));
    let a = ckt.node("in");
    let vin_src = ckt.vsource(a, Circuit::GROUND, Source::Dc(0.0));
    let y = ckt.node("out");
    ckt.mosfet(
        y,
        a,
        Circuit::GROUND,
        MosfetParams::nmos_90nm(params.pulldown_w).with_vth_shift(pd_shift),
    );
    ckt.mosfet(
        y,
        a,
        vdd,
        MosfetParams::pmos_90nm(params.pullup_w).with_vth_shift(pu_shift),
    );
    if mode == SnmMode::Read {
        // Pass transistor to a V_dd-precharged bit line, gate high.
        let bl = ckt.node("bl");
        ckt.vsource(bl, Circuit::GROUND, Source::Dc(vdd_v));
        let wl = ckt.node("wl");
        ckt.vsource(wl, Circuit::GROUND, Source::Dc(vdd_v));
        ckt.mosfet(
            bl,
            wl,
            y,
            MosfetParams::nmos_90nm(params.pass_w).with_vth_shift(pass_shift),
        );
    }
    let out_idx = ckt
        .find_node("out")?
        .unknown_index()
        .expect("out is not ground"); // lint: allow(HYG002): `out` was created above and is never ground

    let mut compiled = CompiledCircuit::compile(&ckt);
    let mut ws = NewtonWorkspace::new(&compiled);
    let mut input = Vec::with_capacity(points);
    let mut output = Vec::with_capacity(points);
    let mut guess: Option<Vec<f64>> = None;
    for i in 0..points {
        let vin = vdd_v * i as f64 / (points - 1) as f64;
        compiled.set_source(vin_src, Source::Dc(vin))?;
        let config = DcConfig {
            initial_guess: guess.clone(),
            ..DcConfig::default()
        };
        compiled.dc_operating_point(&mut ws, 0.0, &config)?;
        let x = ws.solution();
        let vy = x[out_idx];
        // Warm-start the next sweep point for monotone convergence.
        guess = Some(x[..ckt.node_count()].to_vec());
        input.push(vin);
        output.push(vy);
    }
    Ok(TransferCurve { input, output })
}

/// Computes the butterfly curves and SNM of a cell.
///
/// # Errors
///
/// Propagates DC convergence failures.
///
/// # Panics
///
/// Panics if `points < 8`.
pub fn compute_snm(
    params: &SramCellParams,
    mode: SnmMode,
    points: usize,
) -> Result<SnmResult, SramError> {
    assert!(points >= 8, "need a reasonable sweep resolution");
    let vtc_forward = sweep_vtc(params, mode, true, points)?;
    let vtc_reverse = sweep_vtc(params, mode, false, points)?;

    // The butterfly consists of A(x) = forward VTC and B(x) = inverse
    // of the reverse VTC (both monotone decreasing, crossing three
    // times). The inverse exists because a static CMOS VTC is strictly
    // decreasing; numerically we build it by swapping the columns of
    // the reverse curve and re-sorting by the new abscissa.
    let a_curve = vtc_forward.clone();
    let mut inv: Vec<(f64, f64)> = vtc_reverse
        .input
        .iter()
        .zip(&vtc_reverse.output)
        .map(|(&x, &y)| (y, x))
        .collect();
    inv.sort_by(|p, q| p.0.total_cmp(&q.0));
    inv.dedup_by(|p, q| (p.0 - q.0).abs() < 1e-12);
    let b_curve = TransferCurve {
        input: inv.iter().map(|p| p.0).collect(),
        output: inv.iter().map(|p| p.1).collect(),
    };

    // Largest axis-aligned square between an upper curve U and a lower
    // curve L (both decreasing): the square [x, x+s] x [y, y+s] fits
    // iff  U(x+s) - L(x) >= s  (U's minimum over the span is at x+s,
    // L's maximum at x). For each anchor x bisect the largest s.
    let largest_square = |upper: &TransferCurve, lower: &TransferCurve| -> f64 {
        let vdd = params.vdd;
        let grid = 4 * points;
        let mut best = 0.0f64;
        for i in 0..=grid {
            let x = vdd * i as f64 / grid as f64;
            let fits = |s: f64| upper.eval(x + s) - lower.eval(x) >= s;
            if !fits(1e-6) {
                continue;
            }
            let (mut lo, mut hi) = (0.0, vdd);
            for _ in 0..40 {
                let mid = 0.5 * (lo + hi);
                if fits(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            best = best.max(lo);
        }
        best
    };

    // Upper-left lobe: A above B. Lower-right lobe: B above A.
    let lobe_high = largest_square(&a_curve, &b_curve);
    let lobe_low = largest_square(&b_curve, &a_curve);
    Ok(SnmResult {
        vtc_forward,
        vtc_reverse,
        lobe_high,
        lobe_low,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vtc_is_monotone_and_rail_to_rail_in_hold() {
        let params = SramCellParams::default();
        let vtc = sweep_vtc(&params, SnmMode::Hold, true, 32).unwrap();
        assert!(vtc.output[0] > 0.95 * params.vdd, "output high at input 0");
        assert!(
            vtc.output[vtc.output.len() - 1] < 0.05 * params.vdd,
            "output low at input vdd"
        );
        for w in vtc.output.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "VTC must fall monotonically");
        }
        // Interpolation sanity.
        assert!(vtc.eval(-1.0) == vtc.output[0]);
        assert!(vtc.eval(10.0) == *vtc.output.last().unwrap());
    }

    #[test]
    fn hold_snm_is_healthy_and_balanced() {
        let params = SramCellParams::default();
        let result = compute_snm(&params, SnmMode::Hold, 48).unwrap();
        let snm = result.snm();
        // A balanced 1.1 V cell typically holds 0.25-0.5 V of SNM.
        assert!(snm > 0.2 && snm < 0.6, "hold SNM {snm}");
        assert!(
            result.asymmetry() < 0.02,
            "symmetric cell must have equal lobes: {} vs {}",
            result.lobe_high,
            result.lobe_low
        );
    }

    #[test]
    fn read_snm_is_smaller_than_hold_snm() {
        let params = SramCellParams::default();
        let hold = compute_snm(&params, SnmMode::Hold, 48).unwrap().snm();
        let read = compute_snm(&params, SnmMode::Read, 48).unwrap().snm();
        assert!(
            read < hold,
            "the pass transistor degrades the read margin: read {read} vs hold {hold}"
        );
        assert!(
            read > 0.02,
            "a read-stable sizing keeps a positive margin: {read}"
        );
    }

    #[test]
    fn vth_mismatch_degrades_and_unbalances_the_snm() {
        let mut params = SramCellParams::default();
        let balanced = compute_snm(&params, SnmMode::Hold, 48).unwrap();
        params.vth_shift[Transistor::M5.index()] = 0.1;
        let skewed = compute_snm(&params, SnmMode::Hold, 48).unwrap();
        assert!(
            skewed.snm() < balanced.snm(),
            "{} vs {}",
            skewed.snm(),
            balanced.snm()
        );
        assert!(skewed.asymmetry() > balanced.asymmetry());
    }
}
