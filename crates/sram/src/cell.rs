//! The 6T SRAM cell netlist (paper Fig 1).
//!
//! Transistor naming follows the paper: `M1`/`M2` are the pass
//! transistors on the `BL`/`BLB` sides, `M3`–`M6` form the
//! cross-coupled inverter pair. `M5` is the pull-down whose *gate is
//! `Q`* and `M6` the pull-down whose gate is `Q̄` — the pair whose
//! anti-correlated trap activity the paper plots in Fig 8(b, c).
//!
//! Every transistor gets a companion current source between its drain
//! and source (initially zero) through which the SAMURAI-generated
//! `I_RTN` is injected for the second pass of the methodology — the
//! `I_RTN` glitch model of Fig 4 (right).

use samurai_core::scenario::DeviceGeometry;
use samurai_spice::{Circuit, ElementId, MosfetParams, NodeId, Source};

/// The six transistors of the cell, in paper naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transistor {
    /// Pass transistor between `BL` and `Q` (gate `WL`).
    M1,
    /// Pass transistor between `BLB` and `Q̄` (gate `WL`).
    M2,
    /// Pull-up PMOS driving `Q` (gate `Q̄`).
    M3,
    /// Pull-up PMOS driving `Q̄` (gate `Q`).
    M4,
    /// Pull-down NMOS on the `Q̄` side — gate is `Q` (Fig 8b).
    M5,
    /// Pull-down NMOS on the `Q` side — gate is `Q̄` (Fig 8c).
    M6,
}

impl Transistor {
    /// All six transistors, in naming order.
    pub const ALL: [Transistor; 6] = [
        Transistor::M1,
        Transistor::M2,
        Transistor::M3,
        Transistor::M4,
        Transistor::M5,
        Transistor::M6,
    ];

    /// Stable index 0–5.
    pub fn index(self) -> usize {
        match self {
            Self::M1 => 0,
            Self::M2 => 1,
            Self::M3 => 2,
            Self::M4 => 3,
            Self::M5 => 4,
            Self::M6 => 5,
        }
    }

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            Self::M1 => "M1",
            Self::M2 => "M2",
            Self::M3 => "M3",
            Self::M4 => "M4",
            Self::M5 => "M5",
            Self::M6 => "M6",
        }
    }
}

/// Electrical parameters of the cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramCellParams {
    /// Supply voltage.
    pub vdd: f64,
    /// Width multiplier of the pass transistors (`M1`, `M2`).
    pub pass_w: f64,
    /// Width multiplier of the pull-down NMOS (`M5`, `M6`).
    pub pulldown_w: f64,
    /// Width multiplier of the pull-up PMOS (`M3`, `M4`).
    pub pullup_w: f64,
    /// Extra storage-node capacitance on `Q` and `Q̄`, in farads.
    pub node_cap: f64,
    /// Per-transistor threshold-voltage shifts (Monte-Carlo variation),
    /// indexed by [`Transistor::index`].
    pub vth_shift: [f64; 6],
}

impl Default for SramCellParams {
    fn default() -> Self {
        Self {
            vdd: 1.1,
            // Classic read-stable sizing: pull-down > pass > pull-up.
            pass_w: 1.5,
            pulldown_w: 2.5,
            pullup_w: 1.0,
            node_cap: 0.4e-15,
            vth_shift: [0.0; 6],
        }
    }
}

/// The nominal (shift-free) parameters of cell transistor `t`, in
/// [`Transistor::index`] order — the single source of truth for cell
/// device sizing, shared by the cell and column generators and the
/// scenario layer's geometry inputs.
pub(crate) fn cell_mosfet_params(params: &SramCellParams, t: usize) -> MosfetParams {
    match t {
        0 | 1 => MosfetParams::nmos_90nm(params.pass_w),
        2 | 3 => MosfetParams::pmos_90nm(params.pullup_w),
        _ => MosfetParams::nmos_90nm(params.pulldown_w),
    }
}

/// Geometry of the six cell transistors, in [`Transistor::index`]
/// order — the Pelgrom-area input of the scenario sampler for
/// cell-level workloads. The column generator tiles this sextet once
/// per row, so cell- and column-level scenario draws agree on device
/// areas.
#[must_use]
pub fn cell_geometries(params: &SramCellParams) -> Vec<DeviceGeometry> {
    (0..6)
        .map(|t| {
            let p = cell_mosfet_params(params, t);
            DeviceGeometry {
                width: p.width,
                length: p.length,
            }
        })
        .collect()
}

/// The nodes one 6T cell is wired between.
pub(crate) struct CellNodes {
    pub(crate) vdd: NodeId,
    pub(crate) q: NodeId,
    pub(crate) qb: NodeId,
    pub(crate) bl: NodeId,
    pub(crate) blb: NodeId,
    pub(crate) wl: NodeId,
}

/// Adds one 6T cell to `ckt`: transistors `M1`–`M6` with `params` (in
/// [`Transistor::index`] order), a `node_cap` capacitor on each storage
/// node, and one silent RTN injection source per transistor, in that
/// element order. Returns the transistor and RTN-source ids, both in
/// [`Transistor::index`] order.
///
/// This is the one place the cell topology is written down: the single
/// cell and every row of a generated column are built through it.
pub(crate) fn add_6t(
    ckt: &mut Circuit,
    n: &CellNodes,
    params: [MosfetParams; 6],
    node_cap: f64,
) -> ([ElementId; 6], [ElementId; 6]) {
    let [p1, p2, p3, p4, p5, p6] = params;
    // Pass transistors: drain on the bit line, source on the cell
    // node (the device is symmetric; current direction varies).
    let m1 = ckt.mosfet(n.bl, n.wl, n.q, p1);
    let m2 = ckt.mosfet(n.blb, n.wl, n.qb, p2);
    // Cross-coupled pair. M3/M6 drive Q (gates on Q̄), M4/M5 drive
    // Q̄ (gates on Q).
    let m3 = ckt.mosfet(n.q, n.qb, n.vdd, p3);
    let m4 = ckt.mosfet(n.qb, n.q, n.vdd, p4);
    let m5 = ckt.mosfet(n.qb, n.q, Circuit::GROUND, p5);
    let m6 = ckt.mosfet(n.q, n.qb, Circuit::GROUND, p6);

    ckt.capacitor(n.q, Circuit::GROUND, node_cap);
    ckt.capacitor(n.qb, Circuit::GROUND, node_cap);

    // One RTN injection source per transistor, initially silent.
    // Injecting from source-terminal to drain-terminal *opposes* the
    // nominal channel current when fed the (signed) Eq (3) trace — the
    // glitch model of Fig 4.
    let terminal_pairs = [
        (n.q, n.bl),             // M1: source=q (cell side), drain=bl
        (n.qb, n.blb),           // M2
        (n.vdd, n.q),            // M3: PMOS source=vdd, drain=q
        (n.vdd, n.qb),           // M4
        (Circuit::GROUND, n.qb), // M5: NMOS source=gnd, drain=qb
        (Circuit::GROUND, n.q),  // M6
    ];
    let rtn_sources = terminal_pairs.map(|(s, d)| ckt.isource(s, d, Source::Dc(0.0)));
    ([m1, m2, m3, m4, m5, m6], rtn_sources)
}

/// A built 6T cell: the circuit plus handles to every node and element
/// the methodology needs.
#[derive(Debug, Clone)]
pub struct SramCell {
    /// The netlist (mutated between methodology passes through
    /// [`SramCell::set_rtn_source`] and the waveform setters).
    pub circuit: Circuit,
    /// Cell parameters used at construction.
    pub params: SramCellParams,
    /// Storage node `Q`.
    pub q: NodeId,
    /// Storage node `Q̄`.
    pub qb: NodeId,
    /// Bit line.
    pub bl: NodeId,
    /// Complement bit line.
    pub blb: NodeId,
    /// Word line.
    pub wl: NodeId,
    /// Supply node.
    pub vdd_node: NodeId,
    transistors: [ElementId; 6],
    rtn_sources: [ElementId; 6],
    wl_source: ElementId,
    bl_source: ElementId,
    blb_source: ElementId,
}

impl SramCell {
    /// Builds the cell with driven `WL`/`BL`/`BLB` (all initially 0 V)
    /// and zeroed RTN sources.
    pub fn new(params: SramCellParams) -> Self {
        let mut ckt = Circuit::new();
        let vdd_node = ckt.node("vdd");
        let q = ckt.node("q");
        let qb = ckt.node("qb");
        let bl = ckt.node("bl");
        let blb = ckt.node("blb");
        let wl = ckt.node("wl");

        ckt.vsource(vdd_node, Circuit::GROUND, Source::Dc(params.vdd));
        let wl_source = ckt.vsource(wl, Circuit::GROUND, Source::Dc(0.0));
        let bl_source = ckt.vsource(bl, Circuit::GROUND, Source::Dc(0.0));
        let blb_source = ckt.vsource(blb, Circuit::GROUND, Source::Dc(0.0));

        let shifted = std::array::from_fn(|t| {
            cell_mosfet_params(&params, t).with_vth_shift(params.vth_shift[t])
        });
        let (transistors, rtn_sources) = add_6t(
            &mut ckt,
            &CellNodes {
                vdd: vdd_node,
                q,
                qb,
                bl,
                blb,
                wl,
            },
            shifted,
            params.node_cap,
        );

        Self {
            circuit: ckt,
            params,
            q,
            qb,
            bl,
            blb,
            wl,
            vdd_node,
            transistors,
            rtn_sources,
            wl_source,
            bl_source,
            blb_source,
        }
    }

    /// The element id of a transistor.
    pub fn transistor(&self, t: Transistor) -> ElementId {
        self.transistors[t.index()]
    }

    /// The element id of a transistor's RTN injection source.
    pub fn rtn_source(&self, t: Transistor) -> ElementId {
        self.rtn_sources[t.index()]
    }

    /// Drives the word line with a waveform.
    pub fn set_wl(&mut self, source: Source) {
        self.circuit
            .set_source(self.wl_source, source)
            .expect("wl source id is valid by construction"); // lint: allow(HYG002): source id minted by the constructor
    }

    /// Drives the bit line with a waveform.
    pub fn set_bl(&mut self, source: Source) {
        self.circuit
            .set_source(self.bl_source, source)
            .expect("bl source id is valid by construction"); // lint: allow(HYG002): source id minted by the constructor
    }

    /// Drives the complement bit line with a waveform.
    pub fn set_blb(&mut self, source: Source) {
        self.circuit
            .set_source(self.blb_source, source)
            .expect("blb source id is valid by construction"); // lint: allow(HYG002): source id minted by the constructor
    }

    /// Sets a transistor's RTN injection waveform.
    pub fn set_rtn_source(&mut self, t: Transistor, source: Source) {
        self.circuit
            .set_source(self.rtn_sources[t.index()], source)
            .expect("rtn source id is valid by construction"); // lint: allow(HYG002): source id minted by the constructor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samurai_spice::{CompiledCircuit, DcConfig, NewtonWorkspace};

    #[test]
    fn cell_has_expected_structure() {
        let cell = SramCell::new(SramCellParams::default());
        // 6 nodes, 4 vsources, 6 mosfets + 2 caps + 6 isources.
        assert_eq!(cell.circuit.node_count(), 6);
        assert_eq!(cell.circuit.element_count(), 18);
        for t in Transistor::ALL {
            assert!(cell.circuit.mosfet_params(cell.transistor(t)).is_ok());
        }
        assert_eq!(Transistor::M5.label(), "M5");
    }

    #[test]
    fn m5_gate_is_q_and_m6_gate_is_qb() {
        let cell = SramCell::new(SramCellParams::default());
        let (_, g5, _) = cell
            .circuit
            .mosfet_nodes(cell.transistor(Transistor::M5))
            .unwrap();
        let (_, g6, _) = cell
            .circuit
            .mosfet_nodes(cell.transistor(Transistor::M6))
            .unwrap();
        assert_eq!(g5, cell.q, "paper: M5's gate voltage is Q");
        assert_eq!(g6, cell.qb, "paper: M6's gate voltage is Q-bar");
    }

    #[test]
    fn cell_holds_both_states_with_wl_low() {
        // DC with WL low and a nudge on the initial guess: bistable.
        // One compiled circuit and workspace solve both states.
        let cell = SramCell::new(SramCellParams::default());
        let compiled = CompiledCircuit::compile(&cell.circuit);
        let mut ws = NewtonWorkspace::new(&compiled);
        for (q0, expect_q_high) in [(1.1, true), (0.0, false)] {
            let mut guess = vec![0.0; cell.circuit.node_count()];
            guess[cell.vdd_node.unknown_index().unwrap()] = 1.1;
            guess[cell.q.unknown_index().unwrap()] = q0;
            guess[cell.qb.unknown_index().unwrap()] = 1.1 - q0;
            let config = DcConfig {
                initial_guess: Some(guess),
                ..DcConfig::default()
            };
            compiled.dc_operating_point(&mut ws, 0.0, &config).unwrap();
            let vq = ws.solution()[cell.q.unknown_index().unwrap()];
            if expect_q_high {
                assert!(vq > 1.0, "Q should hold high, got {vq}");
            } else {
                assert!(vq < 0.1, "Q should hold low, got {vq}");
            }
        }
    }

    #[test]
    fn vth_shifts_are_applied() {
        let mut params = SramCellParams::default();
        params.vth_shift[Transistor::M5.index()] = 0.05;
        let cell = SramCell::new(params);
        let m5 = cell
            .circuit
            .mosfet_params(cell.transistor(Transistor::M5))
            .unwrap();
        let m6 = cell
            .circuit
            .mosfet_params(cell.transistor(Transistor::M6))
            .unwrap();
        assert!((m5.vth - m6.vth - 0.05).abs() < 1e-12);
    }
}
