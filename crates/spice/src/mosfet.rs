//! A smooth all-region MOSFET model with analytic derivatives.
//!
//! The EKV-style interpolation function `F(x) = ln²(1 + e^{x/2})`
//! reproduces the exponential subthreshold region (`F → e^x`) and the
//! square law (`F → x²/4`) with an infinitely smooth transition — the
//! property that matters most for Newton convergence. Drain current
//! (NMOS, source-referenced, `V_ds ≥ 0`):
//!
//! ```text
//! I_D = I₀ · [F(u_f) − F(u_r)] · (1 + λ·V_ds)
//! u_f = (V_gs − V_th)/(n·φ_t),  u_r = (V_gs − V_th − n·V_ds)/(n·φ_t)
//! I₀  = 2·n·(μC_ox)·(W/L)·φ_t²
//! ```
//!
//! Negative `V_ds` uses the device's source/drain symmetry; PMOS is the
//! NMOS equations with all terminal voltages negated. The charge model
//! is three constant capacitors (gate–source, gate–drain,
//! drain–bulk/source–bulk) scaled with geometry — sufficient for
//! write-timing dynamics, documented as a substitution in DESIGN.md §3.

use serde::{Deserialize, Serialize};

/// NMOS or PMOS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MosType {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// Parameters of one MOSFET instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosfetParams {
    /// Device polarity.
    pub mos_type: MosType,
    /// Channel width in metres.
    pub width: f64,
    /// Channel length in metres.
    pub length: f64,
    /// Threshold voltage magnitude in volts (positive for both types).
    pub vth: f64,
    /// Subthreshold slope factor `n` (typically 1.2–1.5).
    pub n: f64,
    /// Process transconductance `μ·C_ox` in A/V².
    pub mu_cox: f64,
    /// Channel-length modulation `λ` in 1/V.
    pub lambda: f64,
    /// Thermal voltage `φ_t` in volts.
    pub phi_t: f64,
    /// Gate–source capacitance in farads.
    pub cgs: f64,
    /// Gate–drain capacitance in farads.
    pub cgd: f64,
    /// Drain–bulk (and source–bulk) junction capacitance in farads.
    pub cdb: f64,
}

impl MosfetParams {
    /// A 90 nm-node NMOS with width `w_mult` times the minimum 120 nm.
    pub fn nmos_90nm(w_mult: f64) -> Self {
        let width = 120e-9 * w_mult;
        let length = 90e-9;
        Self {
            mos_type: MosType::Nmos,
            width,
            length,
            vth: 0.35,
            n: 1.3,
            mu_cox: 300e-6,
            lambda: 0.15,
            phi_t: 0.02585,
            cgs: 0.4e-15 * w_mult,
            cgd: 0.3e-15 * w_mult,
            cdb: 0.3e-15 * w_mult,
        }
    }

    /// A 90 nm-node PMOS with width `w_mult` times the minimum 120 nm.
    pub fn pmos_90nm(w_mult: f64) -> Self {
        Self {
            mos_type: MosType::Pmos,
            vth: 0.35,
            mu_cox: 120e-6,
            ..Self::nmos_90nm(w_mult)
        }
    }

    /// Returns a copy with a shifted threshold voltage (for Monte-Carlo
    /// `V_T` variation — the paper's "other sources of variability").
    #[must_use]
    pub fn with_vth_shift(mut self, dv: f64) -> Self {
        self.vth += dv;
        self
    }

    /// The *effective* gate drive at terminal voltages `vd`, `vg`, `vs`:
    /// the gate voltage relative to whichever terminal acts as the
    /// source (the lower of drain/source for NMOS, the higher for PMOS),
    /// positive when on for both polarities.
    pub fn gate_drive(&self, vd: f64, vg: f64, vs: f64) -> f64 {
        match self.mos_type {
            MosType::Nmos => vg - vd.min(vs),
            MosType::Pmos => vd.max(vs) - vg,
        }
    }

    /// `I₀ = 2·n·μC_ox·(W/L)·φ_t²`, the specific current scale.
    pub fn i0(&self) -> f64 {
        2.0 * self.n * self.mu_cox * (self.width / self.length) * self.phi_t * self.phi_t
    }

    /// Drain current and its partial derivatives with respect to the
    /// terminal voltages: `(i_d, di/dvd, di/dvg, di/dvs)`.
    ///
    /// Current direction: positive current flows from drain to source
    /// *inside* the device (standard NMOS convention; a conducting PMOS
    /// therefore reports negative `i_d`).
    pub fn eval(&self, vd: f64, vg: f64, vs: f64) -> (f64, f64, f64, f64) {
        self.eval_with(vd, vg, vs, &mut |_, u| big_f(u))
    }

    /// [`eval`](Self::eval) with each `F` call answered from `memo`
    /// when its argument's bits equal that call site's previous
    /// argument. `F` is a pure function of its argument, so the result
    /// is `eval`'s, bit for bit.
    // lint: hot-fn
    pub(crate) fn eval_memo(
        &self,
        vd: f64,
        vg: f64,
        vs: f64,
        memo: &mut EkvMemo,
    ) -> (f64, f64, f64, f64) {
        self.eval_with(vd, vg, vs, &mut |site, u| memo.big_f(site, u))
    }

    /// `eval` over an `F` provider called as `f(site, u)`, with site 0
    /// for `u_f` and 1 for `u_r`.
    #[inline(always)]
    fn eval_with(
        &self,
        vd: f64,
        vg: f64,
        vs: f64,
        f: &mut impl FnMut(usize, f64) -> (f64, f64),
    ) -> (f64, f64, f64, f64) {
        match self.mos_type {
            MosType::Nmos => self.eval_nmos(vd, vg, vs, f),
            MosType::Pmos => {
                // PMOS = NMOS with negated terminal voltages; the
                // partials keep their sign (chain rule through two
                // negations).
                let (i, dd, dg, ds) = self.eval_nmos(-vd, -vg, -vs, f);
                (-i, dd, dg, ds)
            }
        }
    }

    #[inline(always)]
    fn eval_nmos(
        &self,
        vd: f64,
        vg: f64,
        vs: f64,
        f: &mut impl FnMut(usize, f64) -> (f64, f64),
    ) -> (f64, f64, f64, f64) {
        if vd >= vs {
            self.eval_nmos_forward(vd, vg, vs, f)
        } else {
            // Source/drain symmetry: swap the roles, negate current.
            let (i, dd, dg, ds) = self.eval_nmos_forward(vs, vg, vd, f);
            // Here dd is d(i)/d(new drain) = d(i)/d(vs) etc.
            (-i, -ds, -dg, -dd)
        }
    }

    #[inline(always)]
    fn eval_nmos_forward(
        &self,
        vd: f64,
        vg: f64,
        vs: f64,
        f: &mut impl FnMut(usize, f64) -> (f64, f64),
    ) -> (f64, f64, f64, f64) {
        let vgs = vg - vs;
        let vds = vd - vs;
        let nphi = self.n * self.phi_t;
        let u_f = (vgs - self.vth) / nphi;
        let u_r = (vgs - self.vth - self.n * vds) / nphi;
        let (ff, dff) = f(0, u_f);
        let (fr, dfr) = f(1, u_r);
        let clm = 1.0 + self.lambda * vds;
        let i0 = self.i0();

        let i_core = i0 * (ff - fr);
        let id = i_core * clm;

        let di_dvgs = i0 * (dff - dfr) / nphi * clm;
        let di_dvds = i0 * dfr / self.phi_t * clm + i_core * self.lambda;

        // Terminal derivatives.
        let dd = di_dvds;
        let dg = di_dvgs;
        let ds = -(di_dvgs + di_dvds);
        (id, dd, dg, ds)
    }
}

/// One device's last `F` argument and value at each of its two call
/// sites (`u_f` and `u_r`), kept across Newton iterations and solves.
///
/// A resting device sees bit-identical terminal voltages from one
/// assembly to the next, so about half of all `F` calls repeat their
/// site's previous argument. `F` depends on nothing but its argument —
/// no parameter patch or source rewrite can change it — so the memo
/// never needs invalidating; it starts from the real pair at `u = 0`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EkvMemo {
    /// Bits of each site's last argument.
    u: [u64; 2],
    /// `(F(u), F'(u))` for those arguments.
    f: [(f64, f64); 2],
}

impl Default for EkvMemo {
    fn default() -> Self {
        Self {
            u: [0.0f64.to_bits(); 2],
            f: [big_f(0.0); 2],
        }
    }
}

impl EkvMemo {
    /// The memo's state as bits: both sites' arguments, then their
    /// `(F, F')` pairs.
    pub(crate) fn bits(&self) -> [u64; 6] {
        let [(f0, d0), (f1, d1)] = self.f;
        let [u0, u1] = self.u;
        [
            u0,
            u1,
            f0.to_bits(),
            d0.to_bits(),
            f1.to_bits(),
            d1.to_bits(),
        ]
    }

    /// `F(u)` at call site `site`, recomputed only when `u`'s bits
    /// differ from that site's last argument.
    // lint: hot-fn
    #[inline(always)]
    fn big_f(&mut self, site: usize, u: f64) -> (f64, f64) {
        let bits = u.to_bits();
        if self.u[site] != bits {
            self.u[site] = bits;
            self.f[site] = big_f(u);
        }
        self.f[site]
    }
}

/// `F(x) = ln²(1 + e^{x/2})` and its derivative, numerically stable on
/// the whole real line.
fn big_f(x: f64) -> (f64, f64) {
    // l = ln(1 + e^{x/2}), s = sigmoid(x/2) = d l/d(x/2).
    let half = 0.5 * x;
    let (l, s) = if half > 30.0 {
        (half, 1.0)
    } else if half < -30.0 {
        let e = half.exp();
        (e, e)
    } else {
        (half.exp().ln_1p(), 1.0 / (1.0 + (-half).exp()))
    };
    (l * l, l * s) // dF/dx = 2·l·s·(1/2) = l·s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nmos() -> MosfetParams {
        MosfetParams::nmos_90nm(2.0)
    }

    fn pmos() -> MosfetParams {
        MosfetParams::pmos_90nm(2.0)
    }

    #[test]
    fn interpolation_function_limits() {
        // Strong inversion: F(x) -> x^2/4.
        let (f, _) = big_f(40.0);
        assert!((f / (40.0 * 40.0 / 4.0) - 1.0).abs() < 1e-6);
        // Subthreshold: F(x) -> e^x.
        let (f, _) = big_f(-20.0);
        assert!((f / (-20.0f64).exp() - 1.0).abs() < 1e-3);
        // Derivative by finite differences.
        for x in [-5.0, -1.0, 0.0, 1.0, 5.0, 20.0] {
            let h = 1e-6;
            let (f1, df) = big_f(x);
            let (f2, _) = big_f(x + h);
            assert!(
                ((f2 - f1) / h - df).abs() < 1e-4 * (1.0 + df.abs()),
                "x = {x}"
            );
        }
    }

    #[test]
    fn cutoff_linear_saturation_regions() {
        let m = nmos();
        let (off, ..) = m.eval(1.0, 0.0, 0.0);
        let (lin, ..) = m.eval(0.05, 1.0, 0.0);
        let (sat, ..) = m.eval(1.0, 1.0, 0.0);
        assert!(off < 1e-9, "cutoff current {off}");
        assert!(lin > 1e-6, "linear current {lin}");
        assert!(sat > lin, "saturation {sat} > linear {lin}");
        // Saturation current roughly flat in vd.
        let (sat2, ..) = m.eval(1.1, 1.0, 0.0);
        assert!((sat2 - sat) / sat < 0.05);
    }

    #[test]
    fn square_law_scaling_in_strong_inversion() {
        let m = nmos();
        let id = |vgs: f64| m.eval(1.5, vgs, 0.0).0;
        // (Vgs - Vth) doubling should ~quadruple the saturation current.
        let i1 = id(m.vth + 0.3);
        let i2 = id(m.vth + 0.6);
        let ratio = i2 / i1;
        assert!(ratio > 3.0 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn subthreshold_slope_is_exponential() {
        let m = nmos();
        let id = |vgs: f64| m.eval(1.0, vgs, 0.0).0;
        let i1 = id(m.vth - 0.3);
        let i2 = id(m.vth - 0.3 + m.n * m.phi_t);
        // One n·φt of gate drive = one e-fold of current.
        assert!((i2 / i1 / core::f64::consts::E - 1.0).abs() < 0.05);
    }

    #[test]
    fn reverse_operation_is_antisymmetric() {
        let m = nmos();
        let (fwd, ..) = m.eval(0.6, 1.0, 0.0);
        // Swap drain and source: the same channel carries the current
        // the other way.
        let (rev, ..) = m.eval(0.0, 1.0, 0.6);
        assert!(
            (fwd + rev).abs() < 1e-12 * fwd.abs().max(1e-12),
            "{fwd} vs {rev}"
        );
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let p = pmos();
        // PMOS on: gate low relative to source (source at 1.1 V).
        let (i_on, ..) = p.eval(0.0, 0.0, 1.1);
        assert!(i_on < -1e-6, "conducting PMOS current {i_on}");
        let (i_off, ..) = p.eval(0.0, 1.1, 1.1);
        assert!(i_off.abs() < 1e-9, "off PMOS current {i_off}");
    }

    /// The next terminal-voltage triple of a memo test sequence,
    /// decoded from `w`: a fresh triple spanning ±5 V (so `|u/2| > 30`
    /// is reached on both sides), the previous one repeated, one
    /// terminal moved by one ulp, drain and source swapped, or one
    /// terminal set to `+0.0` or `-0.0`.
    fn next_bias(prev: [f64; 3], w: u64) -> [f64; 3] {
        let volt = |bits: u64| ((bits % 20_001) as f64 - 10_000.0) * 5e-4;
        let t = ((w >> 8) % 3) as usize;
        let mut v = prev;
        match w % 6 {
            0 | 1 => v = [volt(w >> 10), volt(w >> 25), volt(w >> 40)],
            2 => {}
            3 => v[t] = f64::from_bits(v[t].to_bits() ^ 1),
            4 => v.swap(0, 2),
            _ => v[t] = if (w >> 12) & 1 == 0 { 0.0 } else { -0.0 },
        }
        v
    }

    #[test]
    fn memo_answers_signed_zeros_and_both_tails_exactly() {
        let mut memo = EkvMemo::default();
        let args = [
            0.0, -0.0, -0.0, 0.0, 61.0, 61.0, -61.0, 60.0, -60.0, 1e-300, -1e-300, 0.0,
        ];
        for (site, &u) in args.iter().enumerate() {
            let site = site % 2;
            let (f, df) = memo.big_f(site, u);
            let (f_ref, df_ref) = big_f(u);
            assert_eq!(
                (f.to_bits(), df.to_bits()),
                (f_ref.to_bits(), df_ref.to_bits()),
                "u = {u:e}"
            );
        }
    }

    proptest! {
        /// Evaluation through one memo equals `eval` bit for bit over
        /// random bias sequences with repeated and near-repeated
        /// voltages, both orientations (`vd < vs`), both tails of `F`
        /// and signed zeros. One memo serves both polarities, which is
        /// harsher than the engine's one memo per device.
        #[test]
        fn memoised_eval_matches_eval_bit_for_bit(
            words in proptest::collection::vec(any::<u64>(), 1..200),
        ) {
            let devices = [nmos(), pmos()];
            let mut memo = EkvMemo::default();
            let mut v = [0.0; 3];
            for &w in &words {
                v = next_bias(v, w);
                let m = &devices[((w >> 7) & 1) as usize];
                let got = m.eval_memo(v[0], v[1], v[2], &mut memo);
                let want = m.eval(v[0], v[1], v[2]);
                let bits = |r: (f64, f64, f64, f64)| {
                    [r.0.to_bits(), r.1.to_bits(), r.2.to_bits(), r.3.to_bits()]
                };
                prop_assert_eq!(bits(got), bits(want), "bias {:?}", v);
            }
        }

        #[test]
        fn derivatives_match_finite_differences(
            vd in -1.2f64..1.2,
            vg in -1.2f64..1.2,
            vs in -1.2f64..1.2,
            is_pmos in any::<bool>(),
        ) {
            let m = if is_pmos { pmos() } else { nmos() };
            let h = 1e-7;
            let (i, dd, dg, ds) = m.eval(vd, vg, vs);
            let scale = 1e-6 + i.abs();
            let fd_d = (m.eval(vd + h, vg, vs).0 - i) / h;
            let fd_g = (m.eval(vd, vg + h, vs).0 - i) / h;
            let fd_s = (m.eval(vd, vg, vs + h).0 - i) / h;
            prop_assert!((fd_d - dd).abs() < 2e-2 * (scale / m.phi_t), "dd {dd} vs {fd_d}");
            prop_assert!((fd_g - dg).abs() < 2e-2 * (scale / m.phi_t), "dg {dg} vs {fd_g}");
            prop_assert!((fd_s - ds).abs() < 4e-2 * (scale / m.phi_t), "ds {ds} vs {fd_s}");
        }

        #[test]
        fn kcl_sum_of_partials_is_zero(
            vd in -1.2f64..1.2,
            vg in -1.2f64..1.2,
            vs in -1.2f64..1.2,
        ) {
            // Shifting all terminals together must not change the
            // current: the partials sum to zero.
            let m = nmos();
            let (_, dd, dg, ds) = m.eval(vd, vg, vs);
            let total: f64 = dd + dg + ds;
            prop_assert!(total.abs() < 1e-6 * (dd.abs() + dg.abs() + ds.abs() + 1e-12));
        }
    }
}
