//! The compile-once circuit engine: index-resolved device stamps, a
//! persistent Newton workspace, and the single assembly/solve path
//! shared by DC and transient analysis.
//!
//! A [`Circuit`] is a *description*: elements refer to nodes through
//! [`NodeId`]s and every analysis used to re-match on the element enum
//! and re-allocate Jacobian/solution buffers per Newton iteration.
//! [`CompiledCircuit::compile`] lowers that description once:
//!
//! * every node reference becomes a dense `Option<usize>` unknown
//!   index (`None` = ground),
//! * every element becomes a concrete device stamp (a MOSFET's charge
//!   model becomes three capacitor stamps inside it), and every
//!   capacitor history gets its index in the workspace,
//! * the Jacobian fill pattern (the set of matrix entries any stamp
//!   can ever write) is precomputed, so re-assembly clears only the
//!   touched entries,
//! * every Jacobian entry a stamp writes is resolved to its *slot* —
//!   its position in the chosen backend's value array — so assembly
//!   adds into the array directly, with no coordinate lookup.
//!
//! All per-solve storage lives in a [`NewtonWorkspace`] that is reused
//! across Newton iterations, timesteps and whole transient runs; after
//! construction the Newton/timestep loop performs no heap allocation
//! (the only allocation on the accepted-step path is the one
//! exact-sized solution snapshot a transient result must own).
//!
//! The nonlinear system is written in residual form: for every
//! non-ground node, `r = Σ currents leaving the node = 0`; for every
//! voltage source, `r = v(+) − v(−) − V(t) = 0`. Newton solves
//! `J·δ = −r` with a per-iteration voltage-step clamp that tames the
//! MOSFET exponentials. The LU factorisation is computed in a scratch
//! copy of the Jacobian (`solve_in_place` destroys its matrix), which
//! is what keeps fill-pattern clearing of the assembled Jacobian
//! valid.
//!
//! Two linear-solver backends sit behind one dispatch point
//! ([`SolverSystem`]): the dense LU of [`DenseMatrix`] and the sparse
//! Gilbert–Peierls LU of [`crate::SparseLu`]. The backend is fixed at
//! compile time ([`SolverChoice`], automatic by unknown count), so the
//! whole analysis stack — DC operating points, transient, the
//! rescue ladder — gains the sparse path without
//! changing a line.

use samurai_core::faults::{FaultArm, FaultKind};
use samurai_telemetry::SolverStats;

use crate::linalg::DenseMatrix;
use crate::mosfet::EkvMemo;
use crate::netlist::{Circuit, Element, ElementId, Source};
use crate::sparse::{CscMatrix, SparseLu, SparsityPattern};
use crate::{Integrator, MosfetParams, SpiceError};

/// Per-capacitor integration state (voltage across and current through
/// the capacitor at the last accepted time point).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct CapState {
    pub v_prev: f64,
    pub i_prev: f64,
}

/// How capacitors enter the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum IntegMode {
    /// DC: capacitors are open circuits.
    Dc,
    /// Backward Euler with step `h`.
    BackwardEuler { h: f64 },
    /// Trapezoidal with step `h`.
    Trapezoidal { h: f64 },
}

impl IntegMode {
    /// Companion model `(g_eq, i_eq)` such that the capacitor current
    /// is `i = g_eq·v + i_eq` for the present voltage `v` across it.
    fn companion(self, c: f64, state: CapState) -> (f64, f64) {
        match self {
            IntegMode::Dc => (0.0, 0.0),
            IntegMode::BackwardEuler { h } => {
                let g = c / h;
                (g, -g * state.v_prev)
            }
            IntegMode::Trapezoidal { h } => {
                let g = 2.0 * c / h;
                (g, -g * state.v_prev - state.i_prev)
            }
        }
    }
}

/// Newton convergence threshold on the largest voltage update (volts).
const V_TOL: f64 = 1e-9;
/// Newton convergence threshold on the largest KCL residual (amperes).
const I_TOL: f64 = 1e-9;

/// Numerical controls for the Newton iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonConfig {
    /// Iteration budget before `NonConvergence` is reported.
    pub max_iterations: usize,
    /// Per-iteration clamp on voltage updates (damping).
    pub v_step_clamp: f64,
}

impl Default for NewtonConfig {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            v_step_clamp: 0.5,
        }
    }
}

/// Requested linear-solver backend for [`CompiledCircuit::compile_with_solver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// Pick by system size: dense below [`SPARSE_AUTO_THRESHOLD`]
    /// unknowns, sparse at or above it.
    #[default]
    Auto,
    /// Force the dense LU regardless of size.
    Dense,
    /// Force the sparse LU regardless of size.
    Sparse,
}

/// The linear-solver backend a circuit was actually compiled for (the
/// resolution of a [`SolverChoice`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Dense LU with partial pivoting ([`DenseMatrix`]).
    Dense,
    /// Sparse Gilbert–Peierls LU over the compile-time sparsity
    /// pattern ([`SparseLu`]).
    Sparse,
}

/// Unknown count at which [`SolverChoice::Auto`] switches to the
/// sparse backend. Every hand-built cell circuit in this repository
/// sits well below this (a 6T cell has 10 unknowns), so their
/// bit-exact dense goldens are untouched; generated column arrays sit
/// well above it.
pub const SPARSE_AUTO_THRESHOLD: usize = 48;

/// The assembled system matrix plus its factorisation scratch, as one
/// matched pair per backend.
///
/// Holding the pair in a single enum (rather than separate
/// matrix/factor fields) makes a dense-matrix-with-sparse-factors
/// state unrepresentable — the dispatch below has no impossible arm.
// One workspace holds exactly one SolverSystem — never collections of
// them — so the size skew between the two arms costs nothing, while
// boxing the large arm would put an indirection in the Newton loop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum SolverSystem {
    /// Dense Jacobian + dense LU scratch.
    Dense {
        /// The assembled Jacobian.
        jac: DenseMatrix,
        /// LU scratch (`solve_in_place` destroys the matrix it
        /// factors, so the factorisation runs in this copy and `jac`
        /// survives for the next fill-pattern clear).
        lu: DenseMatrix,
    },
    /// CSC Jacobian + sparse LU factors.
    Sparse {
        /// The assembled Jacobian over the compiled sparsity pattern.
        jac: CscMatrix,
        /// Reusable Gilbert–Peierls factor workspace (factors into its
        /// own L/U storage; `jac` is read-only during factorisation).
        lu: SparseLu,
    },
}

impl SolverSystem {
    /// Allocates the backend `compiled` was compiled for.
    fn for_circuit(compiled: &CompiledCircuit) -> Self {
        let n = compiled.n_unknowns;
        match compiled.solver {
            SolverKind::Dense => Self::Dense {
                jac: DenseMatrix::zeros(n, n),
                lu: DenseMatrix::zeros(n, n),
            },
            SolverKind::Sparse => Self::Sparse {
                jac: CscMatrix::zeros(&compiled.pattern),
                lu: SparseLu::with_column_order(&compiled.order),
            },
        }
    }

    // lint: hot-loop
    //
    // `values_mut`, `clear_fill` and `factor_solve` are the
    // per-iteration matrix operations of the Newton loop; both arms
    // are allocation-free on reuse.

    /// The assembled matrix's value array, addressed by the stamp
    /// slots the circuit was compiled with.
    #[inline]
    fn values_mut(&mut self) -> &mut [f64] {
        match self {
            Self::Dense { jac, .. } => jac.values_mut(),
            Self::Sparse { jac, .. } => jac.values_mut(),
        }
    }

    /// Clears the assembled matrix for re-stamping: dense zeroes
    /// exactly the fill entries (everything else is zero forever),
    /// sparse memsets its value array (its storage *is* the fill
    /// pattern).
    fn clear_fill(&mut self, fill: &[(usize, usize)]) {
        match self {
            Self::Dense { jac, .. } => {
                for &(r, c) in fill {
                    jac.set(r, c, 0.0);
                }
            }
            Self::Sparse { jac, .. } => jac.clear(),
        }
    }

    /// Factors the assembled matrix and solves for `delta` in place,
    /// reporting the failing unknown index on singularity.
    fn factor_solve(&mut self, delta: &mut [f64]) -> Result<(), usize> {
        match self {
            Self::Dense { jac, lu } => {
                lu.copy_from(jac);
                lu.solve_in_place_indexed(delta)
            }
            Self::Sparse { jac, lu } => {
                lu.factor(jac)?;
                lu.solve(delta);
                Ok(())
            }
        }
    }
    // lint: end-hot-loop

    /// Reads an assembled entry (cold path: in-crate tests only).
    #[cfg(test)]
    pub(crate) fn get(&self, r: usize, c: usize) -> f64 {
        match self {
            Self::Dense { jac, .. } => jac.get(r, c),
            Self::Sparse { jac, .. } => jac.get(r, c),
        }
    }

    /// Zeroes row `r` of the `n`-unknown assembled matrix — the
    /// deterministic `SingularMatrix` fault, expressed on the matrix
    /// both backends actually factor.
    fn zero_row(&mut self, r: usize, n: usize) {
        match self {
            Self::Dense { jac, .. } => {
                for c in 0..n {
                    jac.set(r, c, 0.0);
                }
            }
            Self::Sparse { jac, .. } => jac.zero_row(r),
        }
    }
}

/// Persistent solver state: every buffer the Newton iteration and the
/// transient loop need, allocated once per compiled circuit and reused
/// across solves.
///
/// A workspace is tied to the dimensions of the [`CompiledCircuit`]
/// it was created for; reusing it across solves (or across whole
/// transient runs) is bit-identical to using a fresh one, because
/// every analysis fully re-seeds the state it reads. The one state a
/// workspace carries from solve to solve on purpose is exact memo
/// state: each MOSFET's last EKV `F(u)` arguments and values, which
/// answer a repeated argument with the value `F` would compute, so
/// they can change the cost of a solve but never a bit of it.
#[derive(Debug, Clone)]
pub struct NewtonWorkspace {
    /// The assembled Jacobian with its factorisation scratch, dense or
    /// sparse per the compiled circuit's [`SolverKind`]. Entries
    /// outside the fill pattern are zero forever; entries inside it
    /// are cleared before each assembly.
    pub(crate) sys: SolverSystem,
    /// KCL/branch residual.
    pub(crate) res: Vec<f64>,
    /// Newton update `δ` (the negated residual before the LU solve).
    pub(crate) delta: Vec<f64>,
    /// Current accepted solution.
    pub(crate) x: Vec<f64>,
    /// Trial solution for in-flight steps; promoted with a swap.
    pub(crate) x_try: Vec<f64>,
    /// Per-capacitor companion-model history.
    pub(crate) cap_states: Vec<CapState>,
    /// Per-capacitor companion `(g_eq, i_eq)` under the solve's
    /// integration mode and histories, indexed like `cap_states` and
    /// refreshed once per Newton solve.
    pub(crate) companions: Vec<(f64, f64)>,
    /// Per-MOSFET memo of the EKV interpolation function, kept across
    /// iterations and solves (exact: see [`EkvMemo`]).
    pub(crate) ekv_memo: Vec<EkvMemo>,
    /// Every source of the compiled circuit evaluated at `t` (the
    /// stamps apply `source_scale`): a DC value is seeded when an
    /// analysis starts and stays until a transient hook rewrites it; a
    /// PWL waveform is evaluated once per Newton solve.
    pub(crate) source_values: Vec<f64>,
    /// Per source, the PWL segment its last evaluation landed in: where
    /// the next evaluation's search starts
    /// ([`samurai_waveform::Pwl::eval_hinted`]). A hint never changes
    /// a value, only what finding it costs.
    pub(crate) source_hints: Vec<usize>,
    /// Stamp context: evaluation time.
    pub(crate) t: f64,
    /// Stamp context: capacitor integration mode.
    pub(crate) mode: IntegMode,
    /// Stamp context: homotopy scale on independent sources.
    pub(crate) source_scale: f64,
    /// Stamp context: homotopy conductance added to the circuit gmin.
    pub(crate) gmin_extra: f64,
    /// Pre-resolved fault triggers counting Newton solves.
    pub(crate) solve_arm: FaultArm,
    /// Pre-resolved fault triggers counting transient step attempts
    /// (consulted by the transient loop, not here).
    pub(crate) step_arm: FaultArm,
    /// Solver telemetry counters (see [`SolverStats`]): bare `u64`
    /// fields the hot loops bump unconditionally — deterministic,
    /// branch-free, and consumed only at job boundaries.
    pub(crate) stats: SolverStats,
}

impl NewtonWorkspace {
    /// Allocates every buffer for `compiled`'s dimensions.
    pub fn new(compiled: &CompiledCircuit) -> Self {
        let n = compiled.n_unknowns;
        let mut ws = Self {
            sys: SolverSystem::for_circuit(compiled),
            res: vec![0.0; n],
            delta: Vec::with_capacity(n),
            x: vec![0.0; n],
            x_try: Vec::with_capacity(n),
            cap_states: vec![CapState::default(); compiled.cap_state_count],
            companions: vec![(0.0, 0.0); compiled.cap_state_count],
            ekv_memo: vec![EkvMemo::default(); compiled.mosfet_count],
            source_values: vec![0.0; compiled.sources.len()],
            source_hints: vec![0; compiled.sources.len()],
            t: 0.0,
            mode: IntegMode::Dc,
            source_scale: 1.0,
            gmin_extra: 0.0,
            solve_arm: FaultArm::disarmed(),
            step_arm: FaultArm::disarmed(),
            stats: SolverStats::default(),
        };
        compiled.seed_dc_sources(&mut ws);
        ws
    }

    /// The most recent accepted solution (node voltages, then
    /// voltage-source branch currents).
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// Arms deterministic fault injection on this workspace: `solve`
    /// triggers count Newton solves, `step` triggers count transient
    /// step attempts. Arms persist across analyses on the same
    /// workspace (counters are not reset by a new run), so the N-th
    /// solve is the N-th since arming.
    pub fn arm_faults(&mut self, solve: FaultArm, step: FaultArm) {
        self.solve_arm = solve;
        self.step_arm = step;
    }

    /// The solver telemetry accumulated on this workspace since
    /// construction: Newton solves and iterations, accepted/rejected
    /// transient steps, rescue-ladder rungs and triggered fault arms.
    /// Rescue-ladder coverage tests and failure diagnostics read it.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Promotes the trial solution without copying.
    pub(crate) fn accept_trial(&mut self) {
        std::mem::swap(&mut self.x, &mut self.x_try);
    }

    /// Zeroes the capacitor histories (fresh-analysis semantics).
    pub(crate) fn reset_states(&mut self) {
        self.cap_states
            .iter_mut()
            .for_each(|s| *s = CapState::default());
    }
}

/// The value of unknown `n` in `x` (`None` = ground = 0 V).
#[inline]
fn v_at(x: &[f64], n: Option<usize>) -> f64 {
    match n {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Adds `value` to the residual entry of unknown `n` (no-op for
/// ground).
#[inline]
fn add_res(res: &mut [f64], n: Option<usize>, value: f64) {
    if let Some(i) = n {
        res[i] += value;
    }
}

/// A Jacobian entry's position in the backend's value array. Slots are
/// 32-bit to keep the stamps compact: a MOSFET carries 18 of them.
type Slot = u32;

/// The slot of a Jacobian entry that touches ground: nothing is
/// stamped there.
const NO_SLOT: Slot = Slot::MAX;

/// The `JAC` argument of an assembly that writes the Jacobian as well
/// as the residual (a Newton iteration's).
const WITH_JACOBIAN: bool = true;
/// The `JAC` argument of an assembly that writes the residual only
/// (the convergence check's, which reads nothing else).
const RESIDUAL_ONLY: bool = false;

/// Adds `value` to the Jacobian entry at `slot` when the assembly
/// writes the Jacobian (`JAC`); no-op for [`NO_SLOT`].
// lint: hot-fn
#[inline]
fn add_jac<const JAC: bool>(jac: &mut [f64], slot: Slot, value: f64) {
    if JAC && slot != NO_SLOT {
        jac[slot as usize] += value;
    }
}

/// A two-terminal conductance + current stamp: current `i = g·(va−vb) +
/// i0` flows from `a` to `b`. `slots` are those of `(a, a)`, `(a, b)`,
/// `(b, a)` and `(b, b)`, written when `JAC`.
// lint: hot-fn
#[allow(clippy::too_many_arguments)]
fn stamp_branch<const JAC: bool>(
    jac: &mut [f64],
    res: &mut [f64],
    x: &[f64],
    a: Option<usize>,
    b: Option<usize>,
    slots: &[Slot; 4],
    g: f64,
    i0: f64,
) {
    let v = v_at(x, a) - v_at(x, b);
    let i = g * v + i0;
    add_res(res, a, i);
    add_res(res, b, -i);
    add_jac::<JAC>(jac, slots[0], g);
    add_jac::<JAC>(jac, slots[1], -g);
    add_jac::<JAC>(jac, slots[2], -g);
    add_jac::<JAC>(jac, slots[3], g);
}

/// Records the fill positions a two-terminal branch stamp can write.
fn fill_branch(fill: &mut Vec<(usize, usize)>, a: Option<usize>, b: Option<usize>) {
    for (r, c) in [(a, a), (a, b), (b, a), (b, b)] {
        if let (Some(r), Some(c)) = (r, c) {
            fill.push((r, c));
        }
    }
}

/// Resolves Jacobian coordinates to slots in the value array of the
/// backend a circuit is being compiled for: the CSC position for
/// sparse, `r·n + c` for dense. Used once, by
/// [`CompiledCircuit::compile_with_solver`].
struct SlotMap<'a> {
    fill: &'a [(usize, usize)],
    pattern: &'a SparsityPattern,
    solver: SolverKind,
    /// The element being resolved, for the out-of-pattern report.
    element: usize,
    kind: &'static str,
}

impl SlotMap<'_> {
    /// The slot of `(row, col)`; [`NO_SLOT`] if either is ground.
    ///
    /// # Panics
    ///
    /// Panics, naming the element and the entry, if `(row, col)` is
    /// outside the fill pattern: the stamp and its `register_fill`
    /// disagree, and the entry would otherwise be lost or misplaced.
    fn slot(&self, row: Option<usize>, col: Option<usize>) -> Slot {
        let (Some(r), Some(c)) = (row, col) else {
            return NO_SLOT;
        };
        let slot = match self.solver {
            SolverKind::Dense => self
                .fill
                .binary_search(&(r, c))
                .ok()
                .map(|_| r * self.pattern.n() + c),
            SolverKind::Sparse => self.pattern.position(r, c),
        };
        assert!(
            slot.is_some(),
            "element {} ({}) stamps Jacobian entry ({r}, {c}) outside the fill pattern",
            self.element,
            self.kind
        );
        let slot = slot.and_then(|k| Slot::try_from(k).ok()).unwrap_or(NO_SLOT);
        assert!(slot != NO_SLOT, "Jacobian value array exceeds 32-bit slots");
        slot
    }

    /// The slots of a two-terminal branch stamp (see [`stamp_branch`]).
    fn branch(&self, a: Option<usize>, b: Option<usize>) -> [Slot; 4] {
        [
            self.slot(a, a),
            self.slot(a, b),
            self.slot(b, a),
            self.slot(b, b),
        ]
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ResistorStamp {
    pub a: Option<usize>,
    pub b: Option<usize>,
    pub g: f64,
    /// Jacobian slots of the branch (see [`stamp_branch`]).
    pub slots: [Slot; 4],
}

/// A capacitor's companion branch: a discrete capacitor, or one of the
/// Cgs, Cgd and Cdb of a MOSFET's charge model.
#[derive(Debug, Clone)]
pub(crate) struct CapacitorStamp {
    pub a: Option<usize>,
    pub b: Option<usize>,
    pub c: f64,
    /// Index into the workspace capacitor-history table, numbered by
    /// [`CompiledCircuit::compile_with_solver`] in element order.
    pub state: usize,
    /// Jacobian slots of the companion branch.
    pub slots: [Slot; 4],
}

impl CapacitorStamp {
    /// Stamps the companion `(g_eq, i_eq)` that
    /// [`CompiledCircuit::prepare_solve`] left for this capacitor;
    /// nothing under DC, where the capacitor is open.
    fn stamp<const JAC: bool>(&self, x: &[f64], ws: &mut NewtonWorkspace) {
        let (g, i0) = ws.companions[self.state];
        // lint: allow(HYG004): exact-zero sentinel skips unstamped entries
        if g != 0.0 || i0 != 0.0 {
            let jac = ws.sys.values_mut();
            stamp_branch::<JAC>(jac, &mut ws.res, x, self.a, self.b, &self.slots, g, i0);
        }
    }

    /// Refreshes this capacitor's history `(v_prev, i_prev)` in
    /// `states` from the accepted solution `x` under `mode`.
    fn update_state(&self, x: &[f64], mode: IntegMode, states: &mut [CapState]) {
        let v = v_at(x, self.a) - v_at(x, self.b);
        let state = &mut states[self.state];
        let (g, i0) = mode.companion(self.c, *state);
        *state = CapState {
            v_prev: v,
            i_prev: g * v + i0,
        };
    }
}

#[derive(Debug, Clone)]
pub(crate) struct VsourceStamp {
    pub plus: Option<usize>,
    pub minus: Option<usize>,
    /// The branch-current unknown / branch-equation row.
    pub row: usize,
    /// Index of the waveform in [`CompiledCircuit::sources`].
    pub src: usize,
    /// Jacobian slots of `(plus, row)`, `(minus, row)`, `(row, plus)`
    /// and `(row, minus)`.
    pub slots: [Slot; 4],
}

#[derive(Debug, Clone)]
pub(crate) struct IsourceStamp {
    pub from: Option<usize>,
    pub to: Option<usize>,
    /// Index of the waveform in [`CompiledCircuit::sources`].
    pub src: usize,
}

#[derive(Debug, Clone)]
pub(crate) struct MosfetStamp {
    pub d: Option<usize>,
    pub g: Option<usize>,
    pub s: Option<usize>,
    pub params: MosfetParams,
    /// Index of this device's EKV memo in the workspace.
    pub memo: usize,
    /// Jacobian slots of the channel current's derivatives: `(d, d)`,
    /// `(d, g)`, `(d, s)`, `(s, d)`, `(s, g)`, `(s, s)`.
    pub slots: [Slot; 6],
    /// The charge model: Cgs, Cgd and Cdb, stamped after the channel in
    /// that order.
    pub caps: [CapacitorStamp; 3],
}

/// One lowered element: how it contributes to the compiled system.
/// Static dispatch over the concrete stamps: the assembly loop is a
/// jump table, not a vtable walk. A MOSFET, with its three capacitor
/// stamps, is several times the size of any other stamp, so it is
/// boxed rather than padding every element to its size.
#[derive(Debug, Clone)]
pub(crate) enum DeviceStamp {
    Resistor(ResistorStamp),
    Capacitor(CapacitorStamp),
    Vsource(VsourceStamp),
    Isource(IsourceStamp),
    Mosfet(Box<MosfetStamp>),
}

/// What one lowering pass has numbered so far: the source waveforms
/// moved out of the elements, the workspace EKV memos and the
/// capacitor histories.
#[derive(Default)]
struct Lowering {
    sources: Vec<Source>,
    mosfets: usize,
    cap_states: usize,
}

impl Lowering {
    /// Moves a copy of `source` into the table; returns its index.
    fn source(&mut self, source: &Source) -> usize {
        self.sources.push(source.clone());
        self.sources.len() - 1
    }

    /// A capacitor stamp owning the next history, with unresolved
    /// slots.
    fn capacitor(&mut self, a: Option<usize>, b: Option<usize>, c: f64) -> CapacitorStamp {
        self.cap_states += 1;
        CapacitorStamp {
            a,
            b,
            c,
            state: self.cap_states - 1,
            slots: [NO_SLOT; 4],
        }
    }
}

impl DeviceStamp {
    /// Lowers one netlist element into its index-resolved stamp, with
    /// unresolved Jacobian slots ([`DeviceStamp::resolve_slots`] fills
    /// them once the fill pattern is known). A source's waveform moves
    /// to the lowering's table, and a MOSFET's memo and every
    /// capacitor history take the next index, so histories are
    /// numbered in element order (Cgs, Cgd, Cdb within a MOSFET).
    fn lower(element: &Element, n_nodes: usize, lowering: &mut Lowering) -> Self {
        match element {
            Element::Resistor { a, b, conductance } => Self::Resistor(ResistorStamp {
                a: a.unknown_index(),
                b: b.unknown_index(),
                g: *conductance,
                slots: [NO_SLOT; 4],
            }),
            Element::Capacitor { a, b, capacitance } => Self::Capacitor(lowering.capacitor(
                a.unknown_index(),
                b.unknown_index(),
                *capacitance,
            )),
            Element::Vsource {
                plus,
                minus,
                source,
                branch,
            } => Self::Vsource(VsourceStamp {
                plus: plus.unknown_index(),
                minus: minus.unknown_index(),
                row: n_nodes + branch,
                src: lowering.source(source),
                slots: [NO_SLOT; 4],
            }),
            Element::Isource { from, to, source } => Self::Isource(IsourceStamp {
                from: from.unknown_index(),
                to: to.unknown_index(),
                src: lowering.source(source),
            }),
            Element::Mosfet { d, g, s, params } => {
                let (d, g, s) = (d.unknown_index(), g.unknown_index(), s.unknown_index());
                lowering.mosfets += 1;
                Self::Mosfet(Box::new(MosfetStamp {
                    d,
                    g,
                    s,
                    params: *params,
                    memo: lowering.mosfets - 1,
                    slots: [NO_SLOT; 6],
                    caps: [
                        lowering.capacitor(g, s, params.cgs),
                        lowering.capacitor(g, d, params.cgd),
                        lowering.capacitor(d, None, params.cdb),
                    ],
                }))
            }
        }
    }

    /// Short name of the device kind, for diagnostics.
    fn kind(&self) -> &'static str {
        match self {
            Self::Resistor(_) => "resistor",
            Self::Capacitor(_) => "capacitor",
            Self::Vsource(_) => "voltage source",
            Self::Isource(_) => "current source",
            Self::Mosfet(_) => "mosfet",
        }
    }

    /// The capacitors this device stamps: a capacitor itself, a
    /// MOSFET's Cgs, Cgd and Cdb, none otherwise.
    fn capacitors(&self) -> &[CapacitorStamp] {
        match self {
            Self::Capacitor(c) => std::slice::from_ref(c),
            Self::Mosfet(m) => &m.caps,
            _ => &[],
        }
    }

    /// Accumulates this device's residual contributions at the
    /// candidate solution `x`, and its Jacobian contributions when
    /// `JAC`, under the workspace's stamp context (`t`, integration
    /// mode, homotopy scales, capacitor companions, source values). One
    /// body serves both: the residual arithmetic, its order and every
    /// memo update are the same whether or not the Jacobian is
    /// written.
    fn stamp<const JAC: bool>(&self, x: &[f64], ws: &mut NewtonWorkspace) {
        match self {
            Self::Resistor(r) => {
                let jac = ws.sys.values_mut();
                stamp_branch::<JAC>(jac, &mut ws.res, x, r.a, r.b, &r.slots, r.g, 0.0);
            }
            Self::Capacitor(c) => c.stamp::<JAC>(x, ws),
            Self::Vsource(v) => {
                let jac = ws.sys.values_mut();
                let i_branch = x[v.row];
                // Branch current leaves the + node through the source.
                add_res(&mut ws.res, v.plus, i_branch);
                add_res(&mut ws.res, v.minus, -i_branch);
                add_jac::<JAC>(jac, v.slots[0], 1.0);
                add_jac::<JAC>(jac, v.slots[1], -1.0);
                // Branch equation.
                ws.res[v.row] =
                    v_at(x, v.plus) - v_at(x, v.minus) - ws.source_scale * ws.source_values[v.src];
                add_jac::<JAC>(jac, v.slots[2], 1.0);
                add_jac::<JAC>(jac, v.slots[3], -1.0);
            }
            Self::Isource(i) => {
                let value = ws.source_scale * ws.source_values[i.src];
                add_res(&mut ws.res, i.from, value);
                add_res(&mut ws.res, i.to, -value);
            }
            Self::Mosfet(m) => {
                let (id, dd, dg, ds) = m.params.eval_memo(
                    v_at(x, m.d),
                    v_at(x, m.g),
                    v_at(x, m.s),
                    &mut ws.ekv_memo[m.memo],
                );
                let jac = ws.sys.values_mut();
                add_res(&mut ws.res, m.d, id);
                add_res(&mut ws.res, m.s, -id);
                add_jac::<JAC>(jac, m.slots[0], dd);
                add_jac::<JAC>(jac, m.slots[1], dg);
                add_jac::<JAC>(jac, m.slots[2], ds);
                add_jac::<JAC>(jac, m.slots[3], -dd);
                add_jac::<JAC>(jac, m.slots[4], -dg);
                add_jac::<JAC>(jac, m.slots[5], -ds);
                for cap in &m.caps {
                    cap.stamp::<JAC>(x, ws);
                }
            }
        }
    }

    /// Records every Jacobian entry this device can ever write (over
    /// all integration modes), so assembly can clear exactly the
    /// touched entries.
    fn register_fill(&self, fill: &mut Vec<(usize, usize)>) {
        match self {
            Self::Resistor(r) => fill_branch(fill, r.a, r.b),
            Self::Capacitor(c) => fill_branch(fill, c.a, c.b),
            Self::Vsource(v) => {
                for i in [v.plus, v.minus].into_iter().flatten() {
                    fill.push((i, v.row));
                    fill.push((v.row, i));
                }
            }
            // Current sources contribute to the residual only.
            Self::Isource(_) => {}
            Self::Mosfet(m) => {
                for row in [m.d, m.s] {
                    for col in [m.d, m.g, m.s] {
                        if let (Some(r), Some(c)) = (row, col) {
                            fill.push((r, c));
                        }
                    }
                }
                for c in &m.caps {
                    fill_branch(fill, c.a, c.b);
                }
            }
        }
    }

    /// Resolves every Jacobian entry this stamp writes to its slot,
    /// in the order [`DeviceStamp::stamp`] writes them.
    fn resolve_slots(&mut self, map: &SlotMap<'_>) {
        match self {
            Self::Resistor(r) => r.slots = map.branch(r.a, r.b),
            Self::Capacitor(c) => c.slots = map.branch(c.a, c.b),
            Self::Vsource(v) => {
                let row = Some(v.row);
                v.slots = [
                    map.slot(v.plus, row),
                    map.slot(v.minus, row),
                    map.slot(row, v.plus),
                    map.slot(row, v.minus),
                ];
            }
            Self::Isource(_) => {}
            Self::Mosfet(m) => {
                let (d, g, s) = (m.d, m.g, m.s);
                m.slots = [
                    map.slot(d, d),
                    map.slot(d, g),
                    map.slot(d, s),
                    map.slot(s, d),
                    map.slot(s, g),
                    map.slot(s, s),
                ];
                for c in &mut m.caps {
                    c.slots = map.branch(c.a, c.b);
                }
            }
        }
    }

    /// Index of the waveform in [`CompiledCircuit::sources`], for
    /// source-bearing devices.
    fn source_index(&self) -> Option<usize> {
        match self {
            Self::Vsource(v) => Some(v.src),
            Self::Isource(i) => Some(i.src),
            _ => None,
        }
    }
}

/// A [`Circuit`] lowered for repeated solving: node names resolved to
/// dense indices, elements lowered to device stamps, Jacobian fill
/// pattern precomputed and every stamped entry resolved to its slot
/// in the chosen backend's value array.
///
/// Stamps keep the element order (and therefore the floating-point
/// accumulation order) of the source circuit, so compiled results are
/// bit-identical to the per-run engine this replaced. [`ElementId`]s
/// of the source circuit address the same device here (stamp `k`
/// lowers element `k`), which is what [`CompiledCircuit::set_source`]
/// relies on.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    pub(crate) n_nodes: usize,
    pub(crate) n_unknowns: usize,
    pub(crate) cap_state_count: usize,
    /// Number of MOSFET stamps (each owns one workspace EKV memo).
    pub(crate) mosfet_count: usize,
    pub(crate) gmin: f64,
    pub(crate) stamps: Vec<DeviceStamp>,
    /// Source waveforms, in element order; source stamps hold indices
    /// into this table, and each Newton solve evaluates it once into
    /// [`NewtonWorkspace::source_values`].
    pub(crate) sources: Vec<Source>,
    /// Jacobian slot of each node's diagonal, where the gmin leak is
    /// stamped.
    pub(crate) gmin_slots: Vec<Slot>,
    /// Sorted, deduplicated Jacobian entries any stamp (or the gmin
    /// leak) can write.
    pub(crate) fill: Vec<(usize, usize)>,
    /// CSC image of `fill` — the sparse backend's symbolic analysis,
    /// computed once here and shared by every workspace.
    pub(crate) pattern: SparsityPattern,
    /// Fill-reducing column elimination order for the sparse backend
    /// (empty on the dense backend, where it is meaningless). Part of
    /// the compile-time symbolic analysis: computed once, shared by
    /// every workspace.
    pub(crate) order: Vec<usize>,
    /// The linear-solver backend this circuit was compiled for.
    pub(crate) solver: SolverKind,
    /// Names of the MNA unknowns (node names, then `i(v<branch>)`),
    /// for singular-pivot diagnostics.
    pub(crate) unknown_names: Vec<String>,
}

impl CompiledCircuit {
    /// Lowers `ckt` into its compiled form, selecting the linear
    /// solver automatically by unknown count
    /// ([`SolverChoice::Auto`]).
    pub fn compile(ckt: &Circuit) -> Self {
        Self::compile_with_solver(ckt, SolverChoice::Auto)
    }

    /// [`compile`](Self::compile) with an explicit linear-solver
    /// choice (forcing the sparse backend at small sizes is what the
    /// dense↔sparse equivalence suite does).
    ///
    /// # Panics
    ///
    /// Panics, naming the element and the `(row, col)` entry, if a
    /// stamp writes a Jacobian entry its fill registration omits (a
    /// bug in that device's stamp).
    pub fn compile_with_solver(ckt: &Circuit, choice: SolverChoice) -> Self {
        let n_nodes = ckt.node_count();
        let n_unknowns = ckt.unknown_count();
        let mut lowering = Lowering::default();
        let mut stamps: Vec<DeviceStamp> = ckt
            .elements
            .iter()
            .map(|e| DeviceStamp::lower(e, n_nodes, &mut lowering))
            .collect();
        let mut fill: Vec<(usize, usize)> = (0..n_nodes).map(|i| (i, i)).collect();
        for stamp in &stamps {
            stamp.register_fill(&mut fill);
        }
        fill.sort_unstable();
        fill.dedup();
        let pattern = SparsityPattern::new(n_unknowns, &fill);
        let solver = match choice {
            SolverChoice::Dense => SolverKind::Dense,
            SolverChoice::Sparse => SolverKind::Sparse,
            SolverChoice::Auto => {
                if n_unknowns >= SPARSE_AUTO_THRESHOLD {
                    SolverKind::Sparse
                } else {
                    SolverKind::Dense
                }
            }
        };
        let order = match solver {
            SolverKind::Sparse => pattern.min_degree_ordering(),
            SolverKind::Dense => Vec::new(),
        };
        let mut map = SlotMap {
            fill: &fill,
            pattern: &pattern,
            solver,
            element: 0,
            kind: "gmin leak",
        };
        let gmin_slots = (0..n_nodes).map(|i| map.slot(Some(i), Some(i))).collect();
        for (k, stamp) in stamps.iter_mut().enumerate() {
            map.element = k;
            map.kind = stamp.kind();
            stamp.resolve_slots(&map);
        }
        Self {
            n_nodes,
            n_unknowns,
            cap_state_count: lowering.cap_states,
            mosfet_count: lowering.mosfets,
            gmin: ckt.gmin,
            stamps,
            sources: lowering.sources,
            gmin_slots,
            fill,
            pattern,
            order,
            solver,
            unknown_names: ckt.unknown_names(),
        }
    }

    /// Number of non-ground nodes.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// System size: node voltages plus voltage-source branch currents.
    pub fn unknown_count(&self) -> usize {
        self.n_unknowns
    }

    /// The linear-solver backend selected at compile time.
    pub fn solver_kind(&self) -> SolverKind {
        self.solver
    }

    /// Number of structural nonzeros in the Jacobian fill pattern.
    pub fn nnz(&self) -> usize {
        self.fill.len()
    }

    /// Name of MNA unknown `i` (a node name, or `i(v<branch>)` for a
    /// voltage-source branch current).
    pub fn unknown_name(&self, i: usize) -> Option<&str> {
        self.unknown_names.get(i).map(String::as_str)
    }

    /// The [`SpiceError::SingularMatrix`] for a pivot failure at
    /// unknown `col`. Built on the Newton hot path, so it is
    /// allocation-free: the error carries the index, and reporting
    /// boundaries resolve it with [`Self::unknown_name`].
    pub(crate) fn singular_at(&self, col: usize) -> SpiceError {
        SpiceError::SingularMatrix { col }
    }

    /// Rewrites the waveform of voltage/current source `id` (the
    /// [`ElementId`] from the source [`Circuit`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] if `id` does not name a
    /// voltage or current source.
    pub fn set_source(&mut self, id: ElementId, new_source: Source) -> Result<(), SpiceError> {
        let k = self.source_index(id)?;
        self.sources[k] = new_source;
        Ok(())
    }

    /// Index of voltage/current source `id` in the source table.
    pub(crate) fn source_index(&self, id: ElementId) -> Result<usize, SpiceError> {
        self.stamps
            .get(id.0)
            .and_then(DeviceStamp::source_index)
            .ok_or(SpiceError::InvalidElement {
                reason: "set_source requires a voltage or current source id",
            })
    }

    /// Seeds every DC source value into the workspace, as an analysis
    /// starts.
    pub(crate) fn seed_dc_sources(&self, ws: &mut NewtonWorkspace) {
        for (value, source) in ws.source_values.iter_mut().zip(&self.sources) {
            if let Source::Dc(v) = source {
                *value = *v;
            }
        }
    }

    /// All PWL-source breakpoint times, sorted and deduplicated
    /// (reflects any [`set_source`](Self::set_source) rewrites).
    ///
    /// The sort is unstable: under `total_cmp` only bit-identical
    /// times compare equal, so their order among themselves cannot
    /// show in the result.
    pub fn breakpoints(&self) -> Vec<f64> {
        let pwls = || {
            self.sources.iter().filter_map(|source| match source {
                Source::Pwl(w) => Some(w),
                Source::Dc(_) => None,
            })
        };
        let mut times = Vec::with_capacity(pwls().map(|w| w.points().len()).sum());
        for w in pwls() {
            times.extend(w.breakpoint_times());
        }
        times.sort_unstable_by(f64::total_cmp);
        times.dedup();
        times
    }

    // lint: hot-loop
    //
    // `assemble` and `newton` run once per Newton iteration per
    // timestep — the innermost engine loop. They must stay
    // allocation-free: everything they touch is preallocated in the
    // `NewtonWorkspace`.

    /// Evaluates what is fixed for a whole Newton solve, once per
    /// solve: every PWL source at the workspace time `ws.t` into
    /// `ws.source_values` (searched from its hint in `ws.source_hints`;
    /// DC values stay as seeded), and every capacitor companion — the
    /// discrete capacitors and each MOSFET's Cgs, Cgd and Cdb, whose
    /// capacitances were lowered from the compiled (possibly patched)
    /// parameters — under the workspace's integration mode and
    /// histories into `ws.companions`.
    pub(crate) fn prepare_solve(&self, ws: &mut NewtonWorkspace) {
        let values = ws.source_values.iter_mut().zip(&mut ws.source_hints);
        for ((value, hint), source) in values.zip(&self.sources) {
            if let Source::Pwl(w) = source {
                *value = w.eval_hinted(ws.t, hint);
            }
        }
        for cap in self.stamps.iter().flat_map(DeviceStamp::capacitors) {
            ws.companions[cap.state] = ws.mode.companion(cap.c, ws.cap_states[cap.state]);
        }
    }

    /// Assembles the residual at solution `x`, and the Jacobian with it
    /// when `JAC` ([`WITH_JACOBIAN`]), under the workspace's stamp
    /// context (mode, homotopy scales, and the source values and
    /// capacitor companions [`prepare_solve`](Self::prepare_solve) left
    /// for the solve). A [`RESIDUAL_ONLY`] assembly leaves the Jacobian
    /// as it was and computes the residual (and the EKV memo updates)
    /// bit for bit as the full one does.
    pub(crate) fn assemble<const JAC: bool>(&self, x: &[f64], ws: &mut NewtonWorkspace) {
        if JAC {
            ws.sys.clear_fill(&self.fill);
        }
        ws.res.iter_mut().for_each(|r| *r = 0.0);

        // gmin to ground from every node.
        let g_leak = self.gmin + ws.gmin_extra;
        if g_leak > 0.0 {
            let jac = ws.sys.values_mut();
            for ((r, &v), &slot) in ws.res.iter_mut().zip(x).zip(&self.gmin_slots) {
                *r += g_leak * v;
                add_jac::<JAC>(jac, slot, g_leak);
            }
        }

        for stamp in &self.stamps {
            stamp.stamp::<JAC>(x, ws);
        }
    }

    /// Damped Newton iteration on `x` under the current workspace
    /// context. `x` enters as the initial guess and leaves as the
    /// solution.
    fn newton(
        &self,
        x: &mut [f64],
        ws: &mut NewtonWorkspace,
        config: &NewtonConfig,
    ) -> Result<(), SpiceError> {
        let n_nodes = self.n_nodes;
        debug_assert_eq!(x.len(), self.n_unknowns);
        ws.stats.solve_attempts += 1;
        // Fault injection resolves to one pre-armed branch per solve
        // (a counter bump and an integer compare); the per-iteration
        // cost below is untouched. Injected failures are driven
        // through the *real* error paths: a genuinely zeroed LU row, a
        // genuinely poisoned residual, a genuinely exhausted loop.
        let injected = ws.solve_arm.check();
        if injected.is_some() {
            ws.stats.faults_injected += 1;
        }
        let force_nonconvergence = matches!(
            injected,
            Some(FaultKind::NonConvergence | FaultKind::TimestepFloor)
        );
        self.prepare_solve(ws);

        let mut last_max_dv = f64::NAN;
        for iter in 0..config.max_iterations {
            ws.stats.newton_iterations += 1;
            self.assemble::<WITH_JACOBIAN>(x, ws);
            if iter == 0 && injected == Some(FaultKind::NanResidual) {
                if let Some(r) = ws.res.first_mut() {
                    *r = f64::NAN;
                }
            }

            // Solve J delta = -res; the factorisation runs in the
            // backend's scratch, so the assembled matrix survives.
            ws.delta.clear();
            ws.delta.extend(ws.res.iter().map(|r| -r));
            if iter == 0 && injected == Some(FaultKind::SingularMatrix) {
                ws.sys.zero_row(0, self.n_unknowns);
            }
            ws.sys
                .factor_solve(&mut ws.delta)
                .map_err(|col| self.singular_at(col))?;

            // A non-finite update poisons every later iterate, and —
            // because `f64::max` ignores NaN — would otherwise slip
            // through the max-fold convergence checks below as an
            // apparent 0.0. Bail out immediately instead.
            if ws.delta.iter().any(|d| !d.is_finite()) {
                return Err(SpiceError::NumericalBreakdown {
                    time: ws.t,
                    iteration: iter,
                });
            }

            // Damping: clamp node-voltage updates.
            let max_dv = ws.delta[..n_nodes]
                .iter()
                .fold(0.0f64, |m, d| m.max(d.abs()));
            last_max_dv = max_dv;
            let scale = if max_dv > config.v_step_clamp {
                config.v_step_clamp / max_dv
            } else {
                1.0
            };
            for (xi, di) in x.iter_mut().zip(&ws.delta) {
                *xi += scale * di;
            }

            // lint: allow(HYG004): exact 1.0 means "no scaling requested"
            if scale == 1.0 && max_dv < V_TOL && !force_nonconvergence {
                // Check the residual at the updated point. Nothing
                // reads this Jacobian: a failed check is followed by
                // the next iteration's full assembly at this same `x`.
                self.assemble::<RESIDUAL_ONLY>(x, ws);
                let max_res = ws.res[..n_nodes].iter().fold(0.0f64, |m, r| m.max(r.abs()));
                if max_res < I_TOL {
                    return Ok(());
                }
            }
        }
        // Cold failure path: one extra assembly buys the diagnostic
        // residual for the report.
        self.assemble::<RESIDUAL_ONLY>(x, ws);
        let max_res = ws.res[..n_nodes].iter().fold(0.0f64, |m, r| m.max(r.abs()));
        Err(SpiceError::NonConvergence {
            time: ws.t,
            iterations: config.max_iterations,
            max_delta: last_max_dv,
            max_residual: max_res,
        })
    }
    // lint: end-hot-loop

    /// Newton-solves in place on the workspace's accepted solution
    /// `x`, under the given stamp context.
    pub(crate) fn solve(
        &self,
        ws: &mut NewtonWorkspace,
        t: f64,
        mode: IntegMode,
        source_scale: f64,
        gmin_extra: f64,
        config: &NewtonConfig,
    ) -> Result<(), SpiceError> {
        ws.t = t;
        ws.mode = mode;
        ws.source_scale = source_scale;
        ws.gmin_extra = gmin_extra;
        let mut x = std::mem::take(&mut ws.x);
        let outcome = self.newton(&mut x, ws, config);
        ws.x = x;
        outcome
    }

    /// Newton-solves into the trial buffer, starting from the accepted
    /// solution; `ws.x` is untouched, so a failed step can be retried.
    pub(crate) fn solve_trial(
        &self,
        ws: &mut NewtonWorkspace,
        t: f64,
        mode: IntegMode,
        config: &NewtonConfig,
    ) -> Result<(), SpiceError> {
        self.solve_trial_with(ws, t, mode, 0.0, false, config)
    }

    /// [`solve_trial`](Self::solve_trial) with rescue-ladder controls:
    /// `gmin_extra` adds homotopy conductance, and `warm` keeps the
    /// current trial buffer as the initial guess (for gmin-ramp
    /// continuation) instead of re-seeding from the accepted solution.
    pub(crate) fn solve_trial_with(
        &self,
        ws: &mut NewtonWorkspace,
        t: f64,
        mode: IntegMode,
        gmin_extra: f64,
        warm: bool,
        config: &NewtonConfig,
    ) -> Result<(), SpiceError> {
        ws.t = t;
        ws.mode = mode;
        ws.source_scale = 1.0;
        ws.gmin_extra = gmin_extra;
        let mut x_try = std::mem::take(&mut ws.x_try);
        if !warm {
            x_try.clear();
            x_try.extend_from_slice(&ws.x);
        }
        let outcome = self.newton(&mut x_try, ws, config);
        ws.x_try = x_try;
        outcome
    }

    /// Bit-identity probe of the convergence check, for the property
    /// tests: sets the stamp context (time `t`; DC when `step` is
    /// `None`, otherwise a step of `h` under the integrator), refreshes
    /// the capacitor histories from the solution `history`, prepares
    /// the solve and assembles at `x`, with the Jacobian when
    /// `jacobian` and residual-only otherwise. Returns the bits of the
    /// node residuals `res[..node_count]`, then of every MOSFET's EKV
    /// memo.
    #[doc(hidden)]
    pub fn probe_assembly(
        &self,
        ws: &mut NewtonWorkspace,
        t: f64,
        step: Option<(Integrator, f64)>,
        history: &[f64],
        x: &[f64],
        jacobian: bool,
    ) -> Vec<u64> {
        ws.t = t;
        ws.mode = match step {
            None => IntegMode::Dc,
            Some((Integrator::BackwardEuler, h)) => IntegMode::BackwardEuler { h },
            Some((Integrator::Trapezoidal, h)) => IntegMode::Trapezoidal { h },
        };
        ws.source_scale = 1.0;
        ws.gmin_extra = 0.0;
        self.seed_dc_sources(ws);
        ws.x.clear();
        ws.x.extend_from_slice(history);
        self.refresh_states(ws, false);
        self.prepare_solve(ws);
        if jacobian {
            self.assemble::<WITH_JACOBIAN>(x, ws);
        } else {
            self.assemble::<RESIDUAL_ONLY>(x, ws);
        }
        let res = ws.res[..self.n_nodes].iter().map(|r| r.to_bits());
        res.chain(ws.ekv_memo.iter().flat_map(EkvMemo::bits))
            .collect()
    }

    /// Probe of the hinted source lookups, for the property tests:
    /// every source's value at `t` as a Newton solve evaluates it, from
    /// (and moving) the workspace's hints.
    #[doc(hidden)]
    pub fn probe_sources(&self, ws: &mut NewtonWorkspace, t: f64) -> Vec<f64> {
        ws.t = t;
        self.seed_dc_sources(ws);
        self.prepare_solve(ws);
        ws.source_values.clone()
    }

    /// After an accepted step, refreshes every capacitor's `(v_prev,
    /// i_prev)` from the converged solution (the trial buffer when
    /// `from_trial`, the accepted one otherwise) under the workspace's
    /// current integration mode.
    pub(crate) fn refresh_states(&self, ws: &mut NewtonWorkspace, from_trial: bool) {
        let x = if from_trial { &ws.x_try } else { &ws.x };
        for cap in self.stamps.iter().flat_map(DeviceStamp::capacitors) {
            cap.update_state(x, ws.mode, &mut ws.cap_states);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn solve_dc(ckt: &Circuit) -> Vec<f64> {
        let compiled = CompiledCircuit::compile(ckt);
        let mut ws = NewtonWorkspace::new(&compiled);
        compiled
            .solve(
                &mut ws,
                0.0,
                IntegMode::Dc,
                1.0,
                0.0,
                &NewtonConfig::default(),
            )
            .unwrap();
        ws.solution().to_vec()
    }

    #[test]
    fn resistor_divider_solves_exactly() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GROUND, Source::Dc(3.0));
        ckt.resistor(a, b, 1e3);
        ckt.resistor(b, Circuit::GROUND, 2e3);
        let x = solve_dc(&ckt);
        assert!((x[0] - 3.0).abs() < 1e-6, "source node {x:?}");
        assert!((x[1] - 2.0).abs() < 1e-6, "divider node {x:?}");
        // Branch current: 3V across 3k = 1 mA flowing out of +.
        assert!((x[2] + 1e-3).abs() < 1e-8, "branch current {x:?}");
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        // 1 mA driven out of ground into node a.
        ckt.isource(Circuit::GROUND, a, Source::Dc(1e-3));
        ckt.resistor(a, Circuit::GROUND, 2e3);
        let x = solve_dc(&ckt);
        assert!((x[0] - 2.0).abs() < 1e-6, "node voltage {x:?}");
    }

    #[test]
    fn floating_node_is_held_by_gmin() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("float");
        ckt.vsource(a, Circuit::GROUND, Source::Dc(1.0));
        ckt.resistor(a, b, 1e3);
        // b only connects through the resistor: gmin keeps the matrix
        // regular and pulls b to a (no current path).
        let x = solve_dc(&ckt);
        assert!((x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nonlinear_diode_connected_mosfet_converges() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        // Diode-connected NMOS pulled up through a resistor.
        let vdd = ckt.node("vdd");
        ckt.vsource(vdd, Circuit::GROUND, Source::Dc(1.1));
        ckt.resistor(vdd, d, 10e3);
        ckt.mosfet(d, d, Circuit::GROUND, crate::MosfetParams::nmos_90nm(2.0));
        let x = solve_dc(&ckt);
        let vd = x[0];
        // The gate-drain node settles somewhere above Vth, below Vdd.
        assert!(vd > 0.3 && vd < 1.0, "diode node {vd}");
    }

    /// The by-coordinate assembly the compiled slots replaced: every
    /// stamp adds into `(row, col)` of a dense matrix, in the same
    /// order, reading its source straight from the waveform.
    fn assemble_by_coordinates(
        c: &CompiledCircuit,
        x: &[f64],
        ws: &NewtonWorkspace,
    ) -> (DenseMatrix, Vec<f64>) {
        let n = c.n_unknowns;
        let mut jac = DenseMatrix::zeros(n, n);
        let mut res = vec![0.0; n];
        fn add(jac: &mut DenseMatrix, r: Option<usize>, col: Option<usize>, v: f64) {
            if let (Some(r), Some(col)) = (r, col) {
                jac.add(r, col, v);
            }
        }
        let branch = |jac: &mut DenseMatrix,
                      res: &mut [f64],
                      a: Option<usize>,
                      b: Option<usize>,
                      g: f64,
                      i0: f64| {
            let i = g * (v_at(x, a) - v_at(x, b)) + i0;
            add_res(res, a, i);
            add_res(res, b, -i);
            add(jac, a, a, g);
            add(jac, a, b, -g);
            add(jac, b, a, -g);
            add(jac, b, b, g);
        };
        let g_leak = c.gmin + ws.gmin_extra;
        if g_leak > 0.0 {
            for (i, &v) in x.iter().enumerate().take(c.n_nodes) {
                res[i] += g_leak * v;
                jac.add(i, i, g_leak);
            }
        }
        for stamp in &c.stamps {
            match stamp {
                DeviceStamp::Resistor(r) => branch(&mut jac, &mut res, r.a, r.b, r.g, 0.0),
                DeviceStamp::Capacitor(cap) => {
                    let (g, i0) = ws.mode.companion(cap.c, ws.cap_states[cap.state]);
                    if g != 0.0 || i0 != 0.0 {
                        branch(&mut jac, &mut res, cap.a, cap.b, g, i0);
                    }
                }
                DeviceStamp::Vsource(v) => {
                    let i_branch = x[v.row];
                    add_res(&mut res, v.plus, i_branch);
                    add_res(&mut res, v.minus, -i_branch);
                    add(&mut jac, v.plus, Some(v.row), 1.0);
                    add(&mut jac, v.minus, Some(v.row), -1.0);
                    res[v.row] = v_at(x, v.plus)
                        - v_at(x, v.minus)
                        - ws.source_scale * c.sources[v.src].eval(ws.t);
                    add(&mut jac, Some(v.row), v.plus, 1.0);
                    add(&mut jac, Some(v.row), v.minus, -1.0);
                }
                DeviceStamp::Isource(src) => {
                    let i = ws.source_scale * c.sources[src.src].eval(ws.t);
                    add_res(&mut res, src.from, i);
                    add_res(&mut res, src.to, -i);
                }
                DeviceStamp::Mosfet(m) => {
                    let (id, dd, dg, ds) = m.params.eval(v_at(x, m.d), v_at(x, m.g), v_at(x, m.s));
                    add_res(&mut res, m.d, id);
                    add_res(&mut res, m.s, -id);
                    for (col, v) in [(m.d, dd), (m.g, dg), (m.s, ds)] {
                        add(&mut jac, m.d, col, v);
                    }
                    for (col, v) in [(m.d, dd), (m.g, dg), (m.s, ds)] {
                        add(&mut jac, m.s, col, -v);
                    }
                    let caps = [
                        (m.g, m.s, m.params.cgs),
                        (m.g, m.d, m.params.cgd),
                        (m.d, None, m.params.cdb),
                    ];
                    for ((a, b, cap), stamp) in caps.into_iter().zip(&m.caps) {
                        let (g, i0) = ws.mode.companion(cap, ws.cap_states[stamp.state]);
                        if g != 0.0 || i0 != 0.0 {
                            branch(&mut jac, &mut res, a, b, g, i0);
                        }
                    }
                }
            }
        }
        (jac, res)
    }

    /// A circuit touching every stamp shape: a PWL supply, a PWL
    /// current source, a capacitor, a diode-connected transistor (its
    /// gate and drain slots alias) and one with a grounded source.
    fn every_stamp_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        let ramp = samurai_waveform::Pwl::new(vec![(0.0, 0.2), (1e-9, 1.1)]).unwrap();
        ckt.vsource(a, Circuit::GROUND, Source::Pwl(ramp.clone()));
        ckt.resistor(a, b, 1e3);
        ckt.capacitor(b, Circuit::GROUND, 1e-12);
        ckt.mosfet(b, a, Circuit::GROUND, crate::MosfetParams::nmos_90nm(1.0));
        ckt.isource(Circuit::GROUND, c, Source::Pwl(ramp.scaled(1e-6)));
        ckt.mosfet(c, c, b, crate::MosfetParams::pmos_90nm(1.5));
        ckt.resistor(c, Circuit::GROUND, 5e3);
        ckt
    }

    #[test]
    fn fill_pattern_is_sorted_deduplicated_and_covers_assembly() {
        let ckt = every_stamp_circuit();
        let modes = [
            IntegMode::Dc,
            IntegMode::BackwardEuler { h: 1e-12 },
            IntegMode::Trapezoidal { h: 1e-12 },
        ];
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let compiled = CompiledCircuit::compile_with_solver(&ckt, choice);
            assert!(
                compiled.fill.windows(2).all(|w| w[0] < w[1]),
                "fill must be strictly sorted (deduplicated)"
            );
            let n = compiled.unknown_count();
            let mut ws = NewtonWorkspace::new(&compiled);
            for s in ws.cap_states.iter_mut() {
                *s = CapState {
                    v_prev: 0.3,
                    i_prev: 1e-6,
                };
            }
            ws.t = 0.4e-9;
            ws.source_scale = 0.7;
            ws.gmin_extra = 1e-9;
            let x: Vec<f64> = (0..n).map(|i| 0.7 - 0.05 * i as f64).collect();
            for mode in modes {
                ws.mode = mode;
                compiled.prepare_solve(&mut ws);
                compiled.assemble::<WITH_JACOBIAN>(&x, &mut ws);
                let (jac, res) = assemble_by_coordinates(&compiled, &x, &ws);
                let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&ws.res), bits(&res), "{choice:?} {mode:?} residual");
                for r in 0..n {
                    for c in 0..n {
                        assert_eq!(
                            ws.sys.get(r, c).to_bits(),
                            jac.get(r, c).to_bits(),
                            "{choice:?} {mode:?} entry ({r}, {c})"
                        );
                        if jac.get(r, c) != 0.0 {
                            assert!(
                                compiled.fill.binary_search(&(r, c)).is_ok(),
                                "({r}, {c}) written outside the fill pattern"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every capacitor history after `refresh_states` from a random
    /// solution, under backward Euler and trapezoidal, computed by
    /// coordinates: the source circuit's elements in order, numbering
    /// each capacitor and then each MOSFET's Cgs, Cgd and Cdb, with
    /// each companion written out.
    #[test]
    fn refresh_matches_a_by_coordinates_history_update() {
        let ckt = every_stamp_circuit();
        let compiled = CompiledCircuit::compile(&ckt);
        let mut ws = NewtonWorkspace::new(&compiled);
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut unit = || {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let v = |x: &[f64], n: NodeId| n.unknown_index().map_or(0.0, |i| x[i]);
        for mode in [
            IntegMode::BackwardEuler { h: 3e-12 },
            IntegMode::Trapezoidal { h: 3e-12 },
        ] {
            for s in ws.cap_states.iter_mut() {
                *s = CapState {
                    v_prev: unit(),
                    i_prev: 1e-5 * unit(),
                };
            }
            let before = ws.cap_states.clone();
            ws.x = (0..compiled.unknown_count())
                .map(|_| 2.0 * unit())
                .collect();
            ws.mode = mode;
            compiled.refresh_states(&mut ws, false);

            let mut branches = Vec::new();
            for element in &ckt.elements {
                match *element {
                    Element::Capacitor { a, b, capacitance } => branches.push((a, b, capacitance)),
                    Element::Mosfet { d, g, s, params } => branches.extend([
                        (g, s, params.cgs),
                        (g, d, params.cgd),
                        (d, Circuit::GROUND, params.cdb),
                    ]),
                    _ => {}
                }
            }
            assert_eq!(branches.len(), ws.cap_states.len(), "{mode:?}");
            for (k, (a, b, c)) in branches.into_iter().enumerate() {
                let volts = v(&ws.x, a) - v(&ws.x, b);
                let old = before[k];
                let (g, i0) = match mode {
                    IntegMode::BackwardEuler { h } => (c / h, -(c / h) * old.v_prev),
                    IntegMode::Trapezoidal { h } => {
                        let g = 2.0 * c / h;
                        (g, -g * old.v_prev - old.i_prev)
                    }
                    IntegMode::Dc => unreachable!("only integrating modes refresh"),
                };
                let want = (volts.to_bits(), (g * volts + i0).to_bits());
                let got = ws.cap_states[k];
                assert_eq!(
                    (got.v_prev.to_bits(), got.i_prev.to_bits()),
                    want,
                    "{mode:?} history {k}"
                );
            }
        }
    }

    /// Resolves `(1, 2)` against a fill pattern that lacks it.
    fn resolve_outside_the_pattern(solver: SolverKind) {
        let fill = [(0, 0), (1, 1), (2, 2)];
        let pattern = SparsityPattern::new(3, &fill);
        let map = SlotMap {
            fill: &fill,
            pattern: &pattern,
            solver,
            element: 3,
            kind: "mosfet",
        };
        assert_eq!(map.slot(Some(1), None), NO_SLOT, "ground has no slot");
        map.slot(Some(1), Some(2));
    }

    #[test]
    #[should_panic(
        expected = "element 3 (mosfet) stamps Jacobian entry (1, 2) outside the fill pattern"
    )]
    fn dense_slot_resolution_rejects_entries_outside_the_fill_pattern() {
        resolve_outside_the_pattern(SolverKind::Dense);
    }

    #[test]
    #[should_panic(
        expected = "element 3 (mosfet) stamps Jacobian entry (1, 2) outside the fill pattern"
    )]
    fn sparse_slot_resolution_rejects_entries_outside_the_fill_pattern() {
        resolve_outside_the_pattern(SolverKind::Sparse);
    }

    /// Bit patterns of every node waveform, the time grid and the final
    /// solution of a transient run.
    fn run_bits(compiled: &CompiledCircuit, ws: &mut NewtonWorkspace, ckt: &Circuit) -> Vec<u64> {
        let result = compiled
            .run_transient(ws, 0.0, 2e-9, &crate::TransientConfig::default())
            .unwrap();
        let mut bits: Vec<u64> = result.times().iter().map(|t| t.to_bits()).collect();
        for node in ["a", "b", "c"] {
            let wave = result.voltage(ckt, node).unwrap();
            bits.extend(wave.points().iter().map(|&(_, v)| v.to_bits()));
        }
        bits.extend(ws.solution().iter().map(|v| v.to_bits()));
        bits
    }

    #[test]
    fn set_source_between_runs_matches_a_fresh_compile() {
        let ckt = every_stamp_circuit();
        let supply = ElementId(0);
        let rewritten = Source::Pwl(
            samurai_waveform::Pwl::new(vec![(0.0, 1.1), (0.5e-9, 1.1), (1.5e-9, 0.1)]).unwrap(),
        );
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let mut compiled = CompiledCircuit::compile_with_solver(&ckt, choice);
            let mut ws = NewtonWorkspace::new(&compiled);
            run_bits(&compiled, &mut ws, &ckt);
            compiled.set_source(supply, rewritten.clone()).unwrap();
            let again = run_bits(&compiled, &mut ws, &ckt);

            let mut fresh_ckt = ckt.clone();
            fresh_ckt.set_source(supply, rewritten.clone()).unwrap();
            let fresh = CompiledCircuit::compile_with_solver(&fresh_ckt, choice);
            let mut fresh_ws = NewtonWorkspace::new(&fresh);
            assert_eq!(
                again,
                run_bits(&fresh, &mut fresh_ws, &fresh_ckt),
                "{choice:?}"
            );
        }
    }

    #[test]
    fn a_workspace_drives_a_fresh_compile_like_a_new_one() {
        use crate::{MosfetAdjust, ParamPatch};
        let ckt = every_stamp_circuit();
        // Elements 3 and 5 are the two MOSFETs: geometry moves their
        // Cgs/Cgd/Cdb, so a companion table built from stale
        // capacitances would show.
        let adjust = MosfetAdjust {
            vth_delta: 0.04,
            beta_scale: 1.0,
            geom_scale: 1.3,
        };
        let patch = ParamPatch {
            devices: vec![(ElementId(3), adjust), (ElementId(5), adjust)],
            ..ParamPatch::nominal()
        };
        let mut patched_ckt = ckt.clone();
        patch.apply_to_circuit(&mut patched_ckt).unwrap();
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let fresh_run = |c: &Circuit| {
                let compiled = CompiledCircuit::compile_with_solver(c, choice);
                run_bits(&compiled, &mut NewtonWorkspace::new(&compiled), c)
            };
            let nominal = fresh_run(&ckt);
            let shifted = fresh_run(&patched_ckt);
            assert_ne!(nominal, shifted, "{choice:?}: the patch must matter");

            // One workspace across three compiles: nominal, patched,
            // nominal again. Each run matches a brand-new workspace.
            let compiled = CompiledCircuit::compile_with_solver(&ckt, choice);
            let mut ws = NewtonWorkspace::new(&compiled);
            assert_eq!(run_bits(&compiled, &mut ws, &ckt), nominal, "{choice:?}");
            let compiled = CompiledCircuit::compile_with_solver(&patched_ckt, choice);
            assert_eq!(
                run_bits(&compiled, &mut ws, &patched_ckt),
                shifted,
                "{choice:?} patched"
            );
            let compiled = CompiledCircuit::compile_with_solver(&ckt, choice);
            assert_eq!(
                run_bits(&compiled, &mut ws, &ckt),
                nominal,
                "{choice:?} nominal again"
            );
        }
    }

    #[test]
    fn breakpoints_come_from_pwl_sources() {
        use samurai_waveform::Pwl;
        let mut c = Circuit::new();
        let a = c.node("a");
        let w = Pwl::new(vec![(1e-9, 0.0), (2e-9, 1.0)]).unwrap();
        let v = c.vsource(a, Circuit::GROUND, Source::Pwl(w));
        c.isource(a, Circuit::GROUND, Source::Dc(1e-6));
        let late = Pwl::new(vec![(-0.0, 0.0), (2e-9, 1.0), (3e-9, 0.0)]).unwrap();
        c.isource(a, Circuit::GROUND, Source::Pwl(late));
        let mut compiled = CompiledCircuit::compile(&c);
        // Shared times appear once.
        assert_eq!(
            compiled
                .breakpoints()
                .iter()
                .map(|t| t.to_bits())
                .collect::<Vec<_>>(),
            [-0.0, 1e-9, 2e-9, 3e-9].map(f64::to_bits)
        );
        let rewritten = Pwl::new(vec![(0.0, 0.0), (5e-9, 1.0)]).unwrap();
        compiled.set_source(v, Source::Pwl(rewritten)).unwrap();
        // `dedup` merges +0 into the −0 that `total_cmp` sorts first.
        assert_eq!(
            compiled
                .breakpoints()
                .iter()
                .map(|t| t.to_bits())
                .collect::<Vec<_>>(),
            [-0.0, 2e-9, 3e-9, 5e-9].map(f64::to_bits)
        );
    }

    #[test]
    fn set_source_rejects_non_source_elements() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let r = ckt.resistor(a, Circuit::GROUND, 1e3);
        let v = ckt.vsource(a, Circuit::GROUND, Source::Dc(1.0));
        let mut compiled = CompiledCircuit::compile(&ckt);
        assert!(matches!(
            compiled.set_source(r, Source::Dc(2.0)),
            Err(SpiceError::InvalidElement { .. })
        ));
        compiled.set_source(v, Source::Dc(2.0)).unwrap();
        let mut ws = NewtonWorkspace::new(&compiled);
        compiled
            .solve(
                &mut ws,
                0.0,
                IntegMode::Dc,
                1.0,
                0.0,
                &NewtonConfig::default(),
            )
            .unwrap();
        assert!((ws.solution()[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_a_fresh_workspace() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let vdd = ckt.node("vdd");
        ckt.vsource(vdd, Circuit::GROUND, Source::Dc(1.1));
        ckt.resistor(vdd, d, 10e3);
        ckt.mosfet(d, d, Circuit::GROUND, crate::MosfetParams::nmos_90nm(2.0));
        let compiled = CompiledCircuit::compile(&ckt);
        let newton = NewtonConfig::default();

        let mut fresh = NewtonWorkspace::new(&compiled);
        compiled
            .solve(&mut fresh, 0.0, IntegMode::Dc, 1.0, 0.0, &newton)
            .unwrap();
        let reference: Vec<u64> = fresh.solution().iter().map(|v| v.to_bits()).collect();

        // Dirty the same workspace, re-seed, solve again.
        let mut reused = fresh;
        reused.x.iter_mut().for_each(|v| *v = 0.0);
        compiled
            .solve(&mut reused, 0.0, IntegMode::Dc, 1.0, 0.0, &newton)
            .unwrap();
        let again: Vec<u64> = reused.solution().iter().map(|v| v.to_bits()).collect();
        assert_eq!(reference, again);
    }

    #[test]
    fn singular_circuit_reports_singular_matrix() {
        // Two nodes joined only by a resistor, gmin disabled: the
        // conductance matrix is rank deficient.
        let mut ckt = Circuit::new();
        ckt.gmin = 0.0;
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.resistor(a, b, 1e3);
        let compiled = CompiledCircuit::compile(&ckt);
        let mut ws = NewtonWorkspace::new(&compiled);
        let err = compiled
            .solve(
                &mut ws,
                0.0,
                IntegMode::Dc,
                1.0,
                0.0,
                &NewtonConfig::default(),
            )
            .unwrap_err();
        assert!(
            matches!(&err, SpiceError::SingularMatrix { col } if compiled.unknown_name(*col) == Some("b")),
            "the rank collapse surfaces at node b: {err:?}"
        );
    }

    #[test]
    fn forced_sparse_backend_matches_dense_on_a_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GROUND, Source::Dc(3.0));
        ckt.resistor(a, b, 1e3);
        ckt.resistor(b, Circuit::GROUND, 2e3);
        let dense = CompiledCircuit::compile(&ckt);
        assert_eq!(dense.solver_kind(), SolverKind::Dense, "auto picks dense");
        let sparse = CompiledCircuit::compile_with_solver(&ckt, SolverChoice::Sparse);
        assert_eq!(sparse.solver_kind(), SolverKind::Sparse);
        assert_eq!(sparse.nnz(), dense.nnz(), "one fill pattern, two images");
        let mut ws = NewtonWorkspace::new(&sparse);
        sparse
            .solve(
                &mut ws,
                0.0,
                IntegMode::Dc,
                1.0,
                0.0,
                &NewtonConfig::default(),
            )
            .unwrap();
        let x = ws.solution();
        let reference = solve_dc(&ckt);
        for (s, d) in x.iter().zip(&reference) {
            assert!((s - d).abs() < 1e-9, "sparse {s} vs dense {d}");
        }
    }

    #[test]
    fn sparse_singular_circuit_names_the_offending_unknown() {
        let mut ckt = Circuit::new();
        ckt.gmin = 0.0;
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.resistor(a, b, 1e3);
        let compiled = CompiledCircuit::compile_with_solver(&ckt, SolverChoice::Sparse);
        let mut ws = NewtonWorkspace::new(&compiled);
        let err = compiled
            .solve(
                &mut ws,
                0.0,
                IntegMode::Dc,
                1.0,
                0.0,
                &NewtonConfig::default(),
            )
            .unwrap_err();
        assert!(
            matches!(&err, SpiceError::SingularMatrix { col } if compiled.unknown_name(*col) == Some("b")),
            "sparse backend must agree with dense on the failing unknown: {err:?}"
        );
    }

    #[test]
    fn auto_threshold_switches_to_sparse_on_large_circuits() {
        let mut ckt = Circuit::new();
        let mut prev = Circuit::GROUND;
        for i in 0..SPARSE_AUTO_THRESHOLD {
            let n = ckt.node(&format!("n{i}"));
            ckt.resistor(prev, n, 1e3);
            prev = n;
        }
        ckt.isource(Circuit::GROUND, prev, Source::Dc(1e-6));
        let compiled = CompiledCircuit::compile(&ckt);
        assert_eq!(compiled.solver_kind(), SolverKind::Sparse);
        let mut ws = NewtonWorkspace::new(&compiled);
        compiled
            .solve(
                &mut ws,
                0.0,
                IntegMode::Dc,
                1.0,
                0.0,
                &NewtonConfig::default(),
            )
            .unwrap();
        // 1 µA through a 48-resistor ladder: the far node sits at
        // 48 kΩ · 1 µA plus the gmin leak's tiny correction.
        let far = ws.solution()[SPARSE_AUTO_THRESHOLD - 1];
        assert!((far - 48e-3).abs() < 1e-4, "far node {far}");
    }
}
