//! Property-based tests of the circuit simulator against closed-form
//! circuit theory.

use proptest::prelude::*;

use samurai_spice::{
    dc_operating_point, run_transient, Circuit, DcConfig, Integrator, Source, TransientConfig,
};
use samurai_waveform::Pwl;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A series chain of resistors behaves as its analytic sum: the
    /// current matches V / ΣR and intermediate nodes divide linearly.
    #[test]
    fn series_resistor_chain_matches_theory(
        values in proptest::collection::vec(10.0f64..1e5, 2..7),
        v_in in 0.5f64..5.0,
    ) {
        let mut ckt = Circuit::new();
        // Exact comparison against theory: disable the gmin safety net
        // (every node has a galvanic path here, so the matrix stays
        // regular).
        ckt.gmin = 0.0;
        let top = ckt.node("n0");
        let v = ckt.vsource(top, Circuit::GROUND, Source::Dc(v_in));
        let mut prev = top;
        for (i, &r) in values.iter().enumerate() {
            let next = if i + 1 == values.len() {
                Circuit::GROUND
            } else {
                ckt.node(&format!("n{}", i + 1))
            };
            ckt.resistor(prev, next, r);
            prev = next;
        }
        let x = dc_operating_point(&ckt, 0.0, &DcConfig::default()).unwrap();
        let r_total: f64 = values.iter().sum();
        // Branch current of the source = -V/R_total (current flows out
        // of the + terminal through the external chain).
        let i_branch = x[ckt.unknown_count() - 1];
        prop_assert!(
            (i_branch + v_in / r_total).abs() < 1e-6 * (v_in / r_total),
            "branch current {i_branch} vs {}", -v_in / r_total
        );
        let _ = v;
        // Each internal node sits at the resistive-divider voltage.
        let mut remaining = r_total;
        for (i, &r) in values.iter().enumerate().take(values.len() - 1) {
            remaining -= r;
            let node = ckt.find_node(&format!("n{}", i + 1)).unwrap();
            let expected = v_in * remaining / r_total;
            let got = x[node.unknown_index().unwrap()];
            prop_assert!((got - expected).abs() < 1e-6 * (1.0 + expected));
        }
    }

    /// Parallel resistors equal their harmonic combination.
    #[test]
    fn parallel_resistors_combine_harmonically(
        values in proptest::collection::vec(10.0f64..1e5, 2..6),
        i_in in 1e-6f64..1e-3,
    ) {
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.isource(Circuit::GROUND, n, Source::Dc(i_in));
        for &r in &values {
            ckt.resistor(n, Circuit::GROUND, r);
        }
        let x = dc_operating_point(&ckt, 0.0, &DcConfig::default()).unwrap();
        let g_total: f64 = values.iter().map(|r| 1.0 / r).sum();
        let expected = i_in / g_total;
        prop_assert!((x[0] - expected).abs() < 1e-6 * expected);
    }

    /// An RC charging transient hits the analytic exponential at a
    /// random probe time, for random R, C within two decades.
    #[test]
    fn rc_charging_matches_exponential(
        r_exp in 2.0f64..4.0,
        c_exp in -14.0f64..-12.0,
        probe_frac in 0.2f64..0.9,
    ) {
        let r = 10f64.powf(r_exp);
        let c = 10f64.powf(c_exp);
        let tau = r * c;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let t_step = 0.2 * tau;
        ckt.vsource(
            a,
            Circuit::GROUND,
            Source::Pwl(Pwl::step(0.0, 1.0, t_step, tau * 1e-4).unwrap()),
        );
        ckt.resistor(a, b, r);
        ckt.capacitor(b, Circuit::GROUND, c);
        let horizon = t_step + 6.0 * tau;
        let res = run_transient(&ckt, 0.0, horizon, &TransientConfig::default()).unwrap();
        let out = res.voltage(&ckt, "b").unwrap();
        let t_probe = t_step + probe_frac * 5.0 * tau;
        let expected = 1.0 - (-(t_probe - t_step) / tau).exp();
        let got = out.eval(t_probe);
        prop_assert!(
            (got - expected).abs() < 0.02,
            "R={r:.0} C={c:.2e}: v={got} expected={expected}"
        );
    }

    /// Scaling every source scales every node voltage (linearity) in a
    /// resistive network.
    #[test]
    fn linear_network_scales_with_its_sources(
        scale in 0.1f64..10.0,
    ) {
        let build = |k: f64| {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            let c = ckt.node("c");
            ckt.vsource(a, Circuit::GROUND, Source::Dc(1.5 * k));
            ckt.isource(Circuit::GROUND, c, Source::Dc(1e-4 * k));
            ckt.resistor(a, b, 2e3);
            ckt.resistor(b, c, 3e3);
            ckt.resistor(c, Circuit::GROUND, 4e3);
            ckt.resistor(b, Circuit::GROUND, 5e3);
            let x = dc_operating_point(&ckt, 0.0, &DcConfig::default()).unwrap();
            (x[ckt.find_node("b").unwrap().unknown_index().unwrap()],
             x[ckt.find_node("c").unwrap().unknown_index().unwrap()])
        };
        let (b1, c1) = build(1.0);
        let (bk, ck) = build(scale);
        prop_assert!((bk - scale * b1).abs() < 1e-6 * (1.0 + bk.abs()));
        prop_assert!((ck - scale * c1).abs() < 1e-6 * (1.0 + ck.abs()));
    }
}

#[test]
fn kcl_holds_at_every_internal_node_of_a_bridge() {
    // Wheatstone bridge: verify KCL residuals from raw currents.
    let mut ckt = Circuit::new();
    let top = ckt.node("top");
    let l = ckt.node("l");
    let r = ckt.node("r");
    ckt.vsource(top, Circuit::GROUND, Source::Dc(2.0));
    ckt.resistor(top, l, 1e3);
    ckt.resistor(top, r, 2e3);
    ckt.resistor(l, Circuit::GROUND, 3e3);
    ckt.resistor(r, Circuit::GROUND, 4e3);
    ckt.resistor(l, r, 5e3);
    let x = dc_operating_point(&ckt, 0.0, &DcConfig::default()).unwrap();
    let v = |name: &str| x[ckt.find_node(name).unwrap().unknown_index().unwrap()];
    let (vt, vl, vr) = (v("top"), v("l"), v("r"));
    // KCL at l.
    let kcl_l = (vt - vl) / 1e3 - vl / 3e3 + (vr - vl) / 5e3;
    assert!(kcl_l.abs() < 1e-9, "KCL at l: {kcl_l}");
    // KCL at r.
    let kcl_r = (vt - vr) / 2e3 - vr / 4e3 + (vl - vr) / 5e3;
    assert!(kcl_r.abs() < 1e-9, "KCL at r: {kcl_r}");
    assert!((vt - 2.0).abs() < 1e-9);
}

/// The exact response of an RC low-pass (time constant `tau`, starting
/// at rest) to an input that ramps linearly from 0 at `t_a` to 1 at
/// `t_b` and then holds.
fn rc_ramp_response(tau: f64, t_a: f64, t_b: f64, t: f64) -> f64 {
    let slope = 1.0 / (t_b - t_a);
    let on_ramp = |s: f64| slope * (s - tau * (1.0 - (-s / tau).exp()));
    if t <= t_a {
        0.0
    } else if t <= t_b {
        on_ramp(t - t_a)
    } else {
        1.0 + (on_ramp(t_b - t_a) - 1.0) * (-(t - t_b) / tau).exp()
    }
}

/// The largest error against [`rc_ramp_response`] over the sample
/// times, for a run of an RC low-pass (1 kΩ, time constant `tau`) at
/// the fixed step `h`: `dt_init = dt_max = h` and a `dv_max` no step
/// can exceed, so no step is rejected and every step lands on the grid
/// (the input corners and the sample times are multiples of `h`).
fn fixed_step_error(
    integrator: Integrator,
    tau: f64,
    ramp: (f64, f64),
    h: f64,
    samples: &[f64],
) -> f64 {
    let horizon = samples[samples.len() - 1];
    let mut ckt = Circuit::new();
    let input = ckt.node("in");
    let output = ckt.node("out");
    let pwl = Pwl::new(vec![
        (0.0, 0.0),
        (ramp.0, 0.0),
        (ramp.1, 1.0),
        (horizon, 1.0),
    ])
    .unwrap();
    ckt.vsource(input, Circuit::GROUND, Source::Pwl(pwl));
    ckt.resistor(input, output, 1e3);
    ckt.capacitor(output, Circuit::GROUND, tau / 1e3);
    let config = TransientConfig {
        integrator,
        dt_init: Some(h),
        dt_max: Some(h),
        dv_max: 1e9,
        ..TransientConfig::default()
    };
    let res = run_transient(&ckt, 0.0, horizon, &config).unwrap();
    let out = res.voltage(&ckt, "out").unwrap();
    samples
        .iter()
        .map(|&t| (out.eval(t) - rc_ramp_response(tau, ramp.0, ramp.1, t)).abs())
        .fold(0.0, f64::max)
}

/// Halving the step divides the error by about 2 for backward Euler
/// (first order) and by about 4 for the trapezoidal rule (second
/// order, including its one backward-Euler step after each input
/// corner), on an RC low-pass driven by a fast step and by a slow ramp.
#[test]
fn integrators_converge_at_their_order_on_an_rc_low_pass() {
    // Power-of-two steps keep every step time exact in binary. With a
    // decimal step, 70 steps of rounding leave the stepper a 1e-23 s
    // sliver before the horizon that fails with `StepUnderflow`.
    let h = 2f64.powi(-33);
    let tau = 8.0 * h;
    // Input corners and sample times on the coarsest grid, so every
    // refinement steps on them too.
    let inputs = [("step", (8.0 * h, 9.0 * h)), ("ramp", (8.0 * h, 40.0 * h))];
    let samples: Vec<f64> = (1..=20).map(|k| f64::from(4 * k) * h).collect();
    for (integrator, order) in [(Integrator::BackwardEuler, 1), (Integrator::Trapezoidal, 2)] {
        let expected = f64::from(1 << order);
        for (name, ramp) in inputs {
            let errors: Vec<f64> = [h, h / 2.0, h / 4.0]
                .iter()
                .map(|&step| fixed_step_error(integrator, tau, ramp, step, &samples))
                .collect();
            for pair in errors.windows(2) {
                let ratio = pair[0] / pair[1];
                assert!(
                    (ratio / expected - 1.0).abs() < 0.1,
                    "{integrator:?} on the {name}: errors {errors:?}, ratio {ratio} (expected {expected})"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sparse-kernel properties: the CSC LU against the dense reference.
// ---------------------------------------------------------------------

use samurai_spice::{CscMatrix, DenseMatrix, SparseLu, SparsityPattern};

/// splitmix64: a tiny deterministic generator so the property tests
/// can derive arbitrary sparse systems from a single proptest seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[-1, 1)` from the splitmix stream.
fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Builds a random strictly diagonally dominant system: the sparsity
/// pattern (diagonal always present), the per-entry values, and a
/// right-hand side.
#[allow(clippy::type_complexity)]
fn random_dominant_system(
    n: usize,
    fill_per_row: usize,
    seed: u64,
) -> (Vec<(usize, usize)>, Vec<((usize, usize), f64)>, Vec<f64>) {
    let mut state = seed;
    let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
    for r in 0..n {
        for _ in 0..fill_per_row {
            let c = (splitmix(&mut state) % n as u64) as usize;
            entries.push((r, c));
        }
    }
    entries.sort_unstable();
    entries.dedup();
    let mut values = Vec::with_capacity(entries.len());
    let mut row_sum = vec![0.0f64; n];
    for &(r, c) in &entries {
        if r != c {
            let v = unit(&mut state);
            row_sum[r] += v.abs();
            values.push(((r, c), v));
        }
    }
    for (r, sum) in row_sum.iter().enumerate() {
        // Strict dominance keeps the system well-conditioned for the
        // 1e-9 dense/sparse comparison.
        let diag = sum + 1.0 + 0.5 * (unit(&mut state) + 1.0);
        values.push(((r, r), diag));
    }
    let b: Vec<f64> = (0..n).map(|_| unit(&mut state)).collect();
    (entries, values, b)
}

/// Loads the same values into both backends and solves the same
/// right-hand side; returns `(dense_x, sparse_x)`.
fn solve_both(
    n: usize,
    entries: &[(usize, usize)],
    values: &[((usize, usize), f64)],
    b: &[f64],
    csc: &mut CscMatrix,
    lu: &mut SparseLu,
) -> (Vec<f64>, Vec<f64>) {
    let mut dense = DenseMatrix::zeros(n, n);
    csc.clear();
    for &((r, c), v) in values {
        dense.set(r, c, dense.get(r, c) + v);
        csc.add(r, c, v);
    }
    let _ = entries;
    let mut xd = b.to_vec();
    dense
        .solve_in_place(&mut xd)
        .expect("dominant system solves");
    lu.factor(csc).expect("dominant system factors");
    let mut xs = b.to_vec();
    lu.solve(&mut xs);
    (xd, xs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random strictly diagonally dominant CSC systems the sparse
    /// LU agrees with the dense reference to 1e-9, including when the
    /// factor objects are reused across systems that share a pattern
    /// (the compiled-circuit lifetime).
    #[test]
    fn sparse_lu_matches_the_dense_reference(
        n in 2usize..12,
        fill_per_row in 1usize..4,
        seed in any::<u64>(),
    ) {
        let (entries, values, b) = random_dominant_system(n, fill_per_row, seed);
        let pattern = SparsityPattern::new(n, &entries);
        let mut csc = CscMatrix::zeros(&pattern);
        let mut lu = SparseLu::new(n);
        let (xd, xs) = solve_both(n, &entries, &values, &b, &mut csc, &mut lu);
        for (i, (d, s)) in xd.iter().zip(&xs).enumerate() {
            prop_assert!(
                (d - s).abs() <= 1e-9 * (1.0 + d.abs()),
                "x[{i}]: dense {d} vs sparse {s}"
            );
        }

        // Refactorization on the same pattern with fresh values — the
        // hot-loop path — must stay in agreement.
        let (_, values2, b2) = random_dominant_system(n, fill_per_row, seed ^ 0x5eed);
        let values2: Vec<_> = values2
            .into_iter()
            .filter(|(rc, _)| entries.binary_search(rc).is_ok())
            .collect();
        let (xd2, xs2) = solve_both(n, &entries, &values2, &b2, &mut csc, &mut lu);
        for (i, (d, s)) in xd2.iter().zip(&xs2).enumerate() {
            prop_assert!(
                (d - s).abs() <= 1e-9 * (1.0 + d.abs()),
                "refactor x[{i}]: dense {d} vs sparse {s}"
            );
        }
    }

    /// `matvec` of the assembled CSC matrix reproduces `b` when fed
    /// the solved `x` (a residual check independent of the dense
    /// path).
    #[test]
    fn sparse_solutions_satisfy_the_original_system(
        n in 2usize..10,
        seed in any::<u64>(),
    ) {
        let (entries, values, b) = random_dominant_system(n, 2, seed);
        let pattern = SparsityPattern::new(n, &entries);
        let mut csc = CscMatrix::zeros(&pattern);
        for &((r, c), v) in &values {
            csc.add(r, c, v);
        }
        let mut lu = SparseLu::new(n);
        lu.factor(&csc).expect("dominant system factors");
        let mut x = b.clone();
        lu.solve(&mut x);
        let ax = csc.matvec(&x);
        for (i, (lhs, rhs)) in ax.iter().zip(&b).enumerate() {
            prop_assert!(
                (lhs - rhs).abs() <= 1e-9 * (1.0 + rhs.abs()),
                "residual at {i}: {lhs} vs {rhs}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Pivot replay: a reused SparseLu is bit-identical to a fresh one.
// ---------------------------------------------------------------------

use samurai_spice::LuFactors;

/// An MNA-shaped pattern: `m` nodes on a ladder with a few random
/// cross couplings, plus `nb` voltage-source branches tied to distinct
/// nodes, whose rows have structurally zero diagonals.
fn mna_pattern(m: usize, nb: usize, state: &mut u64) -> Vec<(usize, usize)> {
    let mut entries = Vec::new();
    for i in 0..m {
        entries.push((i, i));
        if i + 1 < m {
            entries.push((i, i + 1));
            entries.push((i + 1, i));
        }
    }
    for _ in 0..m / 3 {
        let a = (splitmix(state) % m as u64) as usize;
        let b = (splitmix(state) % m as u64) as usize;
        if a != b {
            entries.push((a, b));
            entries.push((b, a));
        }
    }
    for k in 0..nb {
        let node = k * (m / nb);
        entries.push((node, m + k));
        entries.push((m + k, node));
    }
    entries.sort_unstable();
    entries.dedup();
    entries
}

/// Values for `entries`, aligned with them: the node block is a
/// strictly diagonally dominant M-matrix (negative couplings), branch
/// incidences are ±1, so every matrix of the family is regular.
fn mna_values(entries: &[(usize, usize)], m: usize, state: &mut u64) -> Vec<f64> {
    let mut values = vec![0.0; entries.len()];
    let mut row_sum = vec![0.0f64; m];
    for (v, &(r, c)) in values.iter_mut().zip(entries) {
        if r < m && c < m && r != c {
            *v = -(0.1 + unit(state).abs());
            row_sum[r] += v.abs();
        } else if r != c {
            *v = if r < c { 1.0 } else { -1.0 };
        }
    }
    for (v, &(r, c)) in values.iter_mut().zip(entries) {
        if r == c {
            *v = row_sum[r] + 0.5 + 0.5 * (unit(state) + 1.0);
        }
    }
    values
}

/// Every bit a factorization leaves behind: L, U and the row
/// permutation.
fn factor_bits(f: LuFactors<'_>) -> Vec<u64> {
    let idx = [f.l_colptr, f.l_rowidx, f.u_colptr, f.u_rowidx, f.pinv];
    let vals = [f.l_values, f.u_values];
    idx.iter()
        .flat_map(|v| v.iter().map(|&i| i as u64))
        .chain(vals.iter().flat_map(|v| v.iter().map(|x| x.to_bits())))
        .collect()
}

/// The pivot row of each factor position (the inverse of `pinv`).
fn pivot_rows(lu: &SparseLu) -> Vec<usize> {
    let pinv = lu.factors().pinv;
    let mut rows = vec![0; pinv.len()];
    for (row, &kk) in pinv.iter().enumerate() {
        rows[kk] = row;
    }
    rows
}

/// Loads `values` into the reused matrix, factors it with the reused
/// workspace and with a fresh one, and requires the same outcome: on
/// success identical factors and solutions, bit for bit, and the pivot
/// rows are returned; on failure the same failing column, returned as
/// the error.
fn factor_reused_and_fresh(
    csc: &mut CscMatrix,
    entries: &[(usize, usize)],
    values: &[f64],
    b: &[f64],
    reused: &mut SparseLu,
) -> Result<Result<Vec<usize>, usize>, TestCaseError> {
    csc.clear();
    for (&(r, c), &v) in entries.iter().zip(values) {
        csc.add(r, c, v);
    }
    let mut fresh = SparseLu::new(csc.n());
    let outcome = reused.factor(csc);
    prop_assert_eq!(outcome, fresh.factor(csc));
    if let Err(col) = outcome {
        return Ok(Err(col));
    }
    prop_assert_eq!(factor_bits(reused.factors()), factor_bits(fresh.factors()));
    let (mut x_reused, mut x_fresh) = (b.to_vec(), b.to_vec());
    reused.solve(&mut x_reused);
    fresh.solve(&mut x_fresh);
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&x_reused), bits(&x_fresh));
    Ok(Ok(pivot_rows(reused)))
}

/// [`factor_reused_and_fresh`] for a matrix that must factor.
fn factor_regular(
    csc: &mut CscMatrix,
    entries: &[(usize, usize)],
    values: &[f64],
    b: &[f64],
    reused: &mut SparseLu,
) -> Result<Vec<usize>, TestCaseError> {
    match factor_reused_and_fresh(csc, entries, values, b, reused)? {
        Ok(rows) => Ok(rows),
        Err(col) => Err(TestCaseError::fail(format!(
            "a regular system failed at column {col}"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One `SparseLu` reused over a sequence of matrices on one MNA
    /// pattern — the Newton loop's use — matches a fresh workspace bit
    /// for bit. The values move the pivot away from the recorded one
    /// at the first, a middle and the last flippable factor position
    /// (the last position's pivot is forced: one row remains, so the
    /// latest flip sits before it), then alternate between the two
    /// pivot sequences A, B, A, B — what the two recorded programs
    /// serve without searching. A singular matrix then arrives in the
    /// middle of a replay and must fail at the same column as a fresh
    /// factorization, and the regular matrix after it must again match.
    #[test]
    fn pivot_replay_matches_a_fresh_factorization(
        m in 6usize..24,
        nb in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let n = m + nb;
        let entries = mna_pattern(m, nb, &mut state);
        let pattern = SparsityPattern::new(n, &entries);
        let mut csc = CscMatrix::zeros(&pattern);
        let mut reused = SparseLu::new(n);
        let b: Vec<f64> = (0..n).map(|_| unit(&mut state)).collect();

        let mut flipped_at = Vec::new();
        for target in ["first", "middle", "last"] {
            let base = mna_values(&entries, m, &mut state);
            let base_rows = factor_regular(&mut csc, &entries, &base, &b, &mut reused)?;
            let pinv = reused.factors().pinv.to_vec();
            // Flippable positions: column kk holds a row the base
            // factorization pivots later, which a dominant value at
            // (row, kk) claims at kk instead.
            let candidates: Vec<(usize, usize)> = (0..n)
                .filter_map(|kk| {
                    entries
                        .iter()
                        .find(|&&(r, c)| c == kk && pinv[r] > kk)
                        .map(|&(r, _)| (kk, r))
                })
                .collect();
            prop_assert!(candidates.len() >= 3, "the ladder leaves flippable positions");
            let (kk, row) = match target {
                "first" => candidates[0],
                "last" => candidates[candidates.len() - 1],
                _ => candidates[candidates.len() / 2],
            };
            let mut flip = base.clone();
            let at = entries.binary_search(&(row, kk)).expect("structural entry");
            flip[at] = 1e6;
            let flip_rows = factor_regular(&mut csc, &entries, &flip, &b, &mut reused)?;
            let first_diff = base_rows.iter().zip(&flip_rows).position(|(a, b)| a != b);
            prop_assert_eq!(first_diff, Some(kk), "{} flip", target);
            flipped_at.push(kk);

            // A, B, A, B, both programs recorded now. Each round
            // scales its sequence's matrix by a new power of two:
            // every value changes, no pivot comparison does.
            for round in 0..4 {
                let scale = f64::powi(2.0, round + 1);
                let source = if round % 2 == 0 { &base } else { &flip };
                let values: Vec<f64> = source.iter().map(|v| v * scale).collect();
                let rows = factor_regular(&mut csc, &entries, &values, &b, &mut reused)?;
                let want = if round % 2 == 0 { &base_rows } else { &flip_rows };
                prop_assert_eq!(&rows, want, "{} round {}", target, round);
            }
        }
        prop_assert_eq!(flipped_at[0], 0);
        prop_assert!(flipped_at[0] < flipped_at[1] && flipped_at[1] < flipped_at[2]);

        // A singular matrix mid-replay: an empty column leaves no
        // acceptable pivot at its position.
        let good = mna_values(&entries, m, &mut state);
        factor_regular(&mut csc, &entries, &good, &b, &mut reused)?;
        let dead = m / 2;
        let singular: Vec<f64> = entries
            .iter()
            .zip(&good)
            .map(|(&(_, c), &v)| if c == dead { 0.0 } else { v })
            .collect();
        let failed = factor_reused_and_fresh(&mut csc, &entries, &singular, &b, &mut reused)?;
        prop_assert_eq!(failed, Err(dead));
        factor_regular(&mut csc, &entries, &good, &b, &mut reused)?;
    }
}

// ---------------------------------------------------------------------
// The Newton loop's shortcuts: a residual-only convergence check and
// hinted source lookups, each bit for bit against the work it skips.
// ---------------------------------------------------------------------

use samurai_spice::{CompiledCircuit, ElementId, MosfetParams, NewtonWorkspace, SolverChoice};

/// A draw from `[0, n)` off the splitmix stream.
fn below(state: &mut u64, n: usize) -> usize {
    (splitmix(state) % n as u64) as usize
}

/// A candidate solution of `n` unknowns: mostly `[-1.5, 1.5)`, with
/// signed zeros and values far enough out to reach the EKV tails.
fn random_x(n: usize, state: &mut u64) -> Vec<f64> {
    (0..n)
        .map(|_| match below(state, 16) {
            0 | 1 => 0.0,
            2 | 3 => -0.0,
            4 => 6.0 * unit(state),
            _ => 1.5 * unit(state),
        })
        .collect()
}

/// A PWL waveform of `len` points over about `[0, 1 ns]`, with random
/// gaps and values.
fn random_pwl(len: usize, state: &mut u64) -> Pwl {
    let mut t = 0.1e-9 * unit(state);
    let points = (0..len)
        .map(|_| {
            t += 1e-12 + 0.2e-9 * (unit(state) + 1.0);
            (t, unit(state))
        })
        .collect();
    Pwl::new(points).unwrap()
}

/// A random circuit on 3–6 nodes with every stamp kind: resistors,
/// capacitors, DC and PWL voltage and current sources, NMOS and PMOS
/// transistors (terminals drawn with ground among them). No solve is
/// run on it, so it need not be regular.
fn every_stamp_circuit(state: &mut u64) -> Circuit {
    let mut ckt = Circuit::new();
    if below(state, 4) == 0 {
        ckt.gmin = 0.0;
    }
    let nodes: Vec<_> = (0..3 + below(state, 4))
        .map(|i| ckt.node(&format!("n{i}")))
        .collect();
    let any = |state: &mut u64| match below(state, nodes.len() + 1) {
        0 => Circuit::GROUND,
        k => nodes[k - 1],
    };
    for _ in 0..1 + below(state, 3) {
        let (a, b) = (nodes[below(state, nodes.len())], any(state));
        ckt.resistor(a, b, 1e2 + 1e5 * (unit(state) + 1.0));
        ckt.capacitor(any(state), a, 1e-16 + 1e-13 * (unit(state) + 1.0));
    }
    for (k, &a) in nodes.iter().take(2).enumerate() {
        let b = any(state);
        let wave = random_pwl(1 + below(state, 6), state);
        let (v, i) = if k == 0 {
            (Source::Dc(unit(state)), Source::Pwl(wave.scaled(1e-6)))
        } else {
            (Source::Pwl(wave), Source::Dc(1e-6 * unit(state)))
        };
        ckt.vsource(a, b, v);
        let (c, d) = (any(state), any(state));
        ckt.isource(c, d, i);
    }
    for k in 0..2 + below(state, 3) {
        let w = 0.5 + unit(state) + 1.0;
        let params = if k % 2 == 0 {
            MosfetParams::nmos_90nm(w)
        } else {
            MosfetParams::pmos_90nm(w)
        };
        let (d, g, s) = (any(state), any(state), any(state));
        ckt.mosfet(d, g, s, params.with_vth_shift(0.05 * unit(state)));
    }
    ckt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The convergence check assembles the residual only; the Newton
    /// iteration's full assembly at the same point must agree with it
    /// bit for bit on every node residual and on every MOSFET's EKV
    /// memo afterwards — for every stamp kind, on both backends, in
    /// DC, backward-Euler and trapezoidal modes. One workspace runs
    /// the Newton loop's order (check at `x`, then the next
    /// iteration's full assembly at the same `x`), the other assembles
    /// fully every time.
    #[test]
    fn residual_only_check_matches_the_full_assembly(seed in any::<u64>()) {
        let mut state = seed;
        let ckt = every_stamp_circuit(&mut state);
        let n = ckt.unknown_count();
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let compiled = CompiledCircuit::compile_with_solver(&ckt, choice);
            let h = 1e-13 + 1e-10 * (unit(&mut state) + 1.0);
            let modes = [
                None,
                Some((Integrator::BackwardEuler, h)),
                Some((Integrator::Trapezoidal, h)),
            ];
            for step in modes {
                let mut full = NewtonWorkspace::new(&compiled);
                let mut newton = NewtonWorkspace::new(&compiled);
                let t = 0.6e-9 * (unit(&mut state) + 1.0);
                let history = random_x(n, &mut state);
                let mut x = random_x(n, &mut state);
                for round in 0..8 {
                    let check = round % 2 == 0;
                    if check {
                        x = random_x(n, &mut state);
                    }
                    let want = compiled.probe_assembly(&mut full, t, step, &history, &x, true);
                    let got = compiled.probe_assembly(&mut newton, t, step, &history, &x, !check);
                    prop_assert_eq!(
                        got, want,
                        "{:?} {:?} round {} at x = {:?}", choice, step, round, x
                    );
                }
            }
        }
    }

    /// `Pwl::eval_hinted` is `Pwl::eval` bit for bit whatever its hint:
    /// queries that move forward, step back by one step, land exactly
    /// on breakpoints or jump outside the span; hints that are stale,
    /// out of range, or left by another waveform (what a `set_source`
    /// leaves a workspace).
    #[test]
    fn hinted_evaluation_matches_eval(seed in any::<u64>(), len in 1usize..12) {
        let mut state = seed;
        let waves = [random_pwl(len, &mut state), random_pwl(1 + below(&mut state, 12), &mut state)];
        let mut wave = &waves[0];
        let mut hint = 0usize;
        let (mut t, mut last_step) = (wave.t_start(), 0.0);
        for k in 0..96 {
            if k == 48 {
                wave = &waves[1];
            }
            let span = wave.t_end() - wave.t_start();
            match below(&mut state, 8) {
                0..=2 => {
                    last_step = 0.3 * span / len as f64 * (unit(&mut state) + 1.0);
                    t += last_step;
                }
                3 => t -= last_step,
                4 => {
                    let points = wave.points();
                    t = points[below(&mut state, points.len())].0;
                }
                5 => {
                    t = if below(&mut state, 2) == 0 {
                        wave.t_start() - span * (unit(&mut state) + 1.0)
                    } else {
                        wave.t_end() + span * (unit(&mut state) + 1.0)
                    };
                }
                6 => {
                    hint = match below(&mut state, 4) {
                        0 => 0,
                        1 => wave.points().len(),
                        2 => usize::MAX,
                        _ => below(&mut state, 16),
                    };
                }
                _ => t = wave.t_start() + span * 0.5 * (unit(&mut state) + 1.0),
            }
            let before = hint;
            prop_assert_eq!(
                wave.eval_hinted(t, &mut hint).to_bits(),
                wave.eval(t).to_bits(),
                "query {} at t = {:e} from hint {}", k, t, before
            );
        }
    }

    /// A Newton solve evaluates each source from the workspace's hint;
    /// across forward steps, steps back, queries outside every span
    /// and a `set_source` in the middle of the run, each value is the
    /// source's `eval` bit for bit.
    #[test]
    fn hinted_source_lookups_match_eval_across_set_source(seed in any::<u64>()) {
        let mut state = seed;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.resistor(a, b, 1e3);
        let mut sources: Vec<(ElementId, Source)> = Vec::new();
        for k in 0..4 {
            let source = match k {
                1 => Source::Dc(unit(&mut state)),
                _ => Source::Pwl(random_pwl(1 + below(&mut state, 24), &mut state)),
            };
            let id = if k % 2 == 0 {
                ckt.vsource(a, Circuit::GROUND, source.clone())
            } else {
                ckt.isource(b, Circuit::GROUND, source.clone())
            };
            sources.push((id, source));
        }
        let mut compiled = CompiledCircuit::compile(&ckt);
        let mut ws = NewtonWorkspace::new(&compiled);
        let (mut t, mut last_step) = (0.0, 0.0);
        for k in 0..64 {
            if k == 32 {
                let (id, _) = sources[2];
                let source = Source::Pwl(random_pwl(1 + below(&mut state, 24), &mut state));
                compiled.set_source(id, source.clone()).unwrap();
                sources[2].1 = source;
            }
            match below(&mut state, 6) {
                0..=2 => {
                    last_step = 0.05e-9 * (unit(&mut state) + 1.0);
                    t += last_step;
                }
                3 => t -= last_step,
                4 => t = -1e-9 + 4e-9 * (unit(&mut state) + 1.0),
                _ => {}
            }
            let got: Vec<u64> =
                compiled.probe_sources(&mut ws, t).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = sources.iter().map(|(_, s)| s.eval(t).to_bits()).collect();
            prop_assert_eq!(got, want, "query {} at t = {:e}", k, t);
        }
    }
}
