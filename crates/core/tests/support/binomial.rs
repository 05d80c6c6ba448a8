//! The exact binomial test of the occupancy oracles: at a sample time,
//! the count of runs whose trap is filled is binomial with the master
//! equation's `p(t)`. Shared by the open-loop oracle of Algorithm 1
//! (`crates/core/tests/occupancy_oracle.rs`) and the closed-loop one
//! of the coupled flow (`tests/coupled_oracle.rs`).

/// `ln n!` for `n = 0..=max`.
pub fn ln_factorials(max: usize) -> Vec<f64> {
    let mut out = vec![0.0; max + 1];
    for n in 1..=max {
        out[n] = out[n - 1] + (n as f64).ln();
    }
    out
}

/// The exact two-sided binomial p-value of `k` successes in `n` trials
/// at probability `p`: twice the smaller tail, at most 1.
pub fn binomial_p_value(k: usize, n: usize, p: f64, ln_fact: &[f64]) -> f64 {
    let ln_pmf = |j: usize| {
        let head = if j == 0 { 0.0 } else { j as f64 * p.ln() };
        let tail = if j == n {
            0.0
        } else {
            (n - j) as f64 * (1.0 - p).ln()
        };
        ln_fact[n] - ln_fact[j] - ln_fact[n - j] + head + tail
    };
    let ln: Vec<f64> = (0..=n).map(ln_pmf).collect();
    let top = ln.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mass = |js: &[f64]| js.iter().map(|l| (l - top).exp()).sum::<f64>();
    let total = mass(&ln);
    let lower = mass(&ln[..=k]) / total;
    let upper = mass(&ln[k..]) / total;
    (2.0 * lower.min(upper)).min(1.0)
}
