//! The design-margin model behind the Fig 2 reproduction.
//!
//! Fig 2 of the paper is measurement data (courtesy Renesas) showing,
//! per technology node, the minimum supply voltage needed once static
//! noise, parameter variation, NBTI and RTN are stacked — with the RTN
//! increment poised to cross the V_dd-scaling line at deeply scaled
//! nodes. The data is proprietary, so per DESIGN.md §3 this module
//! reproduces the *shape* from a parameterised first-principles model:
//!
//! * static noise margin — a fixed fraction of the nominal `V_dd`;
//! * local variation — Pelgrom scaling, `ΔV_var = k_σ·A_VT/√(W·L)`;
//! * NBTI — an end-of-life `V_T` shift growing mildly with scaling
//!   (thinner oxides, higher fields);
//! * RTN — `ΔV_RTN = k_tail·(q/(C_ox·W·L))·√(N_traps)`: a single
//!   trapped charge shifts `V_T` by `q/(C_ox·A)` (charge-sheet
//!   approximation), multi-trap devices add in quadrature, and the
//!   `k_tail` factor accounts for the array-tail statistics.
//!
//! Because `q/(C_ox·A)` grows roughly quadratically as area shrinks
//! while variation grows only as `1/√A`, the RTN share of the margin
//! rises with scaling — exactly the paper's point.

use samurai_trap::Technology;
use samurai_units::constants::ELEMENTARY_CHARGE;

/// Ten-year end-of-life stress horizon the default NBTI margin
/// coefficient is calibrated to, seconds.
pub const EOL_STRESS_SECONDS: f64 = 3.2e8;

/// One stacked bar of the Fig 2 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginRow {
    /// Technology name (e.g. `"90nm"`).
    pub node: String,
    /// Nominal supply of the node — the V_dd-scaling line.
    pub vdd_scaling: f64,
    /// Base supply needed against static noise, volts.
    pub static_noise: f64,
    /// Increment for local/global parameter variation, volts.
    pub variation: f64,
    /// Increment for NBTI, volts.
    pub nbti: f64,
    /// Increment for RTN, volts.
    pub rtn: f64,
}

impl MarginRow {
    /// The stacked total: minimum workable supply voltage.
    pub fn total(&self) -> f64 {
        self.static_noise + self.variation + self.nbti + self.rtn
    }

    /// Total when the RTN–NBTI correlation is exploited: the two
    /// same-root-cause contributions add in quadrature instead of
    /// linearly (the paper's §I-B observation, `ρ → 1` recovers the
    /// linear sum, `ρ = 0` full independence).
    pub fn total_with_correlation(&self, rho: f64) -> f64 {
        let combined =
            (self.nbti * self.nbti + self.rtn * self.rtn + 2.0 * rho * self.nbti * self.rtn).sqrt();
        self.static_noise + self.variation + combined
    }

    /// RTN's share of the total margin.
    pub fn rtn_share(&self) -> f64 {
        self.rtn / self.total()
    }
}

/// Model coefficients (documented synthetic stand-ins for the Renesas
/// measurements).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginModel {
    /// Static-noise fraction of nominal V_dd.
    pub snm_fraction: f64,
    /// Pelgrom coefficient `A_VT` in V·m.
    pub a_vt: f64,
    /// Sigma multiplier for the variation tail.
    pub k_sigma: f64,
    /// NBTI end-of-life shift at the 180 nm node, volts.
    pub nbti_180: f64,
    /// NBTI growth factor per node step.
    pub nbti_growth: f64,
    /// Tail multiplier on the RMS multi-trap RTN shift.
    pub k_tail: f64,
}

impl Default for MarginModel {
    fn default() -> Self {
        Self {
            snm_fraction: 0.55,
            a_vt: 1.8e-9, // 1.8 mV·µm
            k_sigma: 4.5,
            nbti_180: 0.02,
            nbti_growth: 1.25,
            k_tail: 6.0,
        }
    }
}

impl MarginModel {
    /// Evaluates the model for one technology (`step` = how many node
    /// generations past 180 nm, for the NBTI growth).
    pub fn row(&self, tech: &Technology, step: usize) -> MarginRow {
        let area = tech.device.area();
        let vdd = tech.vdd.volts();
        let static_noise = self.snm_fraction * vdd;
        let variation = self.k_sigma * self.a_vt / area.sqrt();
        let nbti = self.nbti_180 * self.nbti_growth.powi(step as i32);
        let dvt_single = ELEMENTARY_CHARGE / (tech.device.c_ox() * area);
        let rtn = self.k_tail * dvt_single * tech.mean_trap_count().sqrt();
        MarginRow {
            node: tech.name.clone(),
            vdd_scaling: vdd,
            static_noise,
            variation,
            nbti,
            rtn,
        }
    }

    /// Evaluates the model across all preset nodes (oldest first).
    pub fn rows(&self) -> Vec<MarginRow> {
        Technology::all_nodes()
            .iter()
            .enumerate()
            .map(|(i, tech)| self.row(tech, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtn_contribution_grows_under_scaling() {
        let rows = MarginModel::default().rows();
        assert_eq!(rows.len(), 7);
        for pair in rows.windows(2) {
            assert!(
                pair[1].rtn > pair[0].rtn,
                "RTN increment must grow: {} ({}) -> {} ({})",
                pair[0].rtn,
                pair[0].node,
                pair[1].rtn,
                pair[1].node
            );
            assert!(
                pair[1].rtn_share() > pair[0].rtn_share(),
                "RTN share must grow with scaling"
            );
        }
    }

    #[test]
    fn margins_cross_the_scaling_line_only_at_deep_nodes() {
        let rows = MarginModel::default().rows();
        let first = &rows[0];
        let last = &rows[rows.len() - 1];
        assert!(
            first.total() < first.vdd_scaling,
            "180 nm must have healthy margin: total {} vs vdd {}",
            first.total(),
            first.vdd_scaling
        );
        assert!(
            last.total() > last.vdd_scaling,
            "22 nm margin must be exhausted: total {} vs vdd {}",
            last.total(),
            last.vdd_scaling
        );
        // Without the RTN increment, even the last node survives — the
        // paper's 'incremental contribution of RTN' point.
        assert!(
            last.total() - last.rtn < last.vdd_scaling,
            "RTN must be the increment that breaks the margin"
        );
    }

    #[test]
    fn correlation_recovers_design_room() {
        let rows = MarginModel::default().rows();
        let last = &rows[rows.len() - 1];
        // Exploiting the correlation shrinks the stack (quadrature sum
        // is below the linear sum)...
        assert!(last.total_with_correlation(0.0) < last.total());
        // ...and full correlation recovers the linear sum.
        assert!((last.total_with_correlation(1.0) - last.total()).abs() < 1e-12);
        // Monotone in rho.
        assert!(last.total_with_correlation(0.3) < last.total_with_correlation(0.8));
    }

    #[test]
    fn variation_follows_pelgrom() {
        let model = MarginModel::default();
        let rows = model.rows();
        // Variation grows as area shrinks.
        for pair in rows.windows(2) {
            assert!(pair[1].variation > pair[0].variation);
        }
        // Spot check the Pelgrom formula at 90 nm.
        let tech = Technology::node_90nm();
        let expected = model.k_sigma * model.a_vt / tech.device.area().sqrt();
        let row = model.row(&tech, 2);
        assert!((row.variation - expected).abs() < 1e-12);
    }
}
