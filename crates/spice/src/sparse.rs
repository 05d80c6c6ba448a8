//! Sparse linear algebra: CSC storage and a left-looking LU.
//!
//! The dense solver in [`crate::DenseMatrix`] is O(n³) per Newton
//! iteration — fine for a 6T cell (10 unknowns), hopeless for a
//! generated SRAM column (hundreds of unknowns, a handful of nonzeros
//! per row). This module adds the sparse path:
//!
//! * [`SparsityPattern`] — the *symbolic analysis*, computed once at
//!   circuit-compile time from the same fill list the dense path
//!   clears. It lives on the [`CompiledCircuit`](crate::CompiledCircuit)
//!   next to the dense fill pattern and is immutable thereafter.
//! * [`CscMatrix`] — compressed-sparse-column values over a fixed,
//!   shared pattern. The compiled circuit stamps straight into the
//!   value array at positions resolved once at compile time;
//!   [`CscMatrix::add`] (a binary search within one column) is the
//!   by-coordinate form for tests and one-off assembly. Clearing is
//!   one `memset` of the value array.
//! * [`SparseLu`] — a Gilbert–Peierls left-looking LU with partial
//!   pivoting (the CSparse `cs_lu` algorithm): each column solves
//!   `x = L \ A(:,k)` by a depth-first reach over the graph of the
//!   partially built `L`, then picks the largest-magnitude
//!   not-yet-pivotal row as pivot. Pivoting is mandatory here —
//!   voltage-source branch rows have structurally zero diagonals.
//!   The reach of a column depends only on the pattern and the
//!   earlier pivots, so every index of a factorization is fixed by its
//!   pivot sequence: refactoring the same pattern runs one of the last
//!   two recorded factorizations as a flat numeric kernel for as long
//!   as the pivots agree with it (see [`SparseLu::factor`]).
//!
//! All factor storage is owned by the [`SparseLu`] workspace and
//! reused across factorizations. Because the Newton loop factors the
//! *same* pattern every time, the L/U arrays stop growing after the
//! first factorization and the transient hot loop stays
//! allocation-free, matching the compile-once contract of the dense
//! engine.

use std::sync::Arc;

/// Sentinel for "no pivot assigned yet" in the row permutation.
const NONE: usize = usize::MAX;

/// Smallest pivot magnitude accepted before the matrix is declared
/// singular — the same threshold the dense LU uses.
const PIVOT_FLOOR: f64 = 1e-300;

/// The fixed nonzero structure of a compiled system matrix, in
/// compressed-sparse-column form.
///
/// Built once per [`CompiledCircuit`](crate::CompiledCircuit) from the
/// sorted, deduplicated Jacobian fill list (the symbolic analysis of
/// the compile-once contract); every [`CscMatrix`] assembled for that
/// circuit shares this structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    n: usize,
    /// `col_ptr[c]..col_ptr[c + 1]` indexes column `c`'s rows.
    col_ptr: Vec<usize>,
    /// Row indices, ascending within each column.
    row_idx: Vec<usize>,
}

impl SparsityPattern {
    /// Builds the pattern of an `n × n` matrix from a list of `(row,
    /// col)` entries. Entries may be unsorted and may repeat; they are
    /// sorted and deduplicated internally.
    ///
    /// # Panics
    ///
    /// Panics if an entry is out of range.
    pub fn new(n: usize, entries: &[(usize, usize)]) -> Self {
        let mut fill: Vec<(usize, usize)> = entries.to_vec();
        fill.sort_unstable();
        fill.dedup();
        assert!(
            fill.iter().all(|&(r, c)| r < n && c < n),
            "pattern entry out of range"
        );
        let mut col_ptr = vec![0usize; n + 1];
        for &(_, c) in &fill {
            col_ptr[c + 1] += 1;
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut cursor = col_ptr.clone();
        let mut row_idx = vec![0usize; fill.len()];
        // `fill` is sorted by (row, col), so appending per column keeps
        // each column's rows ascending.
        for &(r, c) in &fill {
            row_idx[cursor[c]] = r;
            cursor[c] += 1;
        }
        Self {
            n,
            col_ptr,
            row_idx,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Position of entry `(r, c)` in the value array of every
    /// [`CscMatrix`] over this pattern, or `None` outside it.
    pub(crate) fn position(&self, r: usize, c: usize) -> Option<usize> {
        let (&lo, &hi) = (self.col_ptr.get(c)?, self.col_ptr.get(c + 1)?);
        self.row_idx[lo..hi].binary_search(&r).ok().map(|k| lo + k)
    }

    /// A fill-reducing column elimination order: greedy minimum degree
    /// on the symmetrized pattern, ties broken to the smallest index
    /// so the order (and therefore every downstream factorization) is
    /// fully deterministic.
    ///
    /// MNA matrices put their highest-degree unknowns wherever the
    /// netlist builder happened to create them — a generated SRAM
    /// column creates the shared vdd/bl/blb rails *first*, the worst
    /// possible elimination position. Factoring in minimum-degree
    /// order instead keeps the Gilbert–Peierls fill near the
    /// structural nonzero count. This runs once per circuit compile
    /// (symbolic analysis), never in the Newton loop.
    pub fn min_degree_ordering(&self) -> Vec<usize> {
        let n = self.n;
        let mut adj: Vec<std::collections::BTreeSet<usize>> =
            vec![std::collections::BTreeSet::new(); n];
        for c in 0..n {
            for p in self.col_ptr[c]..self.col_ptr[c + 1] {
                let r = self.row_idx[p];
                if r != c {
                    adj[r].insert(c);
                    adj[c].insert(r);
                }
            }
        }
        let mut eliminated = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            let mut best = NONE;
            let mut best_deg = usize::MAX;
            for (v, nbrs) in adj.iter().enumerate() {
                if !eliminated[v] && nbrs.len() < best_deg {
                    best_deg = nbrs.len();
                    best = v;
                }
            }
            order.push(best);
            eliminated[best] = true;
            // Eliminate: the neighbours of the chosen node become a
            // clique in the quotient graph.
            let nbrs: Vec<usize> = adj[best].iter().copied().collect();
            for &u in &nbrs {
                adj[u].remove(&best);
            }
            adj[best].clear();
            for (i, &u) in nbrs.iter().enumerate() {
                for &w in &nbrs[i + 1..] {
                    adj[u].insert(w);
                    adj[w].insert(u);
                }
            }
        }
        order
    }
}

/// A compressed-sparse-column matrix over a fixed [`SparsityPattern`].
///
/// The pattern is shared (clones of a matrix share it) and never
/// changes; only the value array is written during assembly. Sharing
/// is also what lets a [`SparseLu`] recognise the exact pattern it
/// recorded in O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    pattern: Arc<SparsityPattern>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// A zero matrix over `pattern`.
    pub fn zeros(pattern: &SparsityPattern) -> Self {
        Self {
            pattern: Arc::new(pattern.clone()),
            values: vec![0.0; pattern.nnz()],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.pattern.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Adds `v` to entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is outside the pattern: a dropped entry would
    /// silently solve a different system.
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        let slot = self.pattern.position(r, c);
        assert!(slot.is_some(), "({r}, {c}) is outside the sparsity pattern");
        if let Some(k) = slot {
            self.values[k] += v;
        }
    }

    // lint: hot-loop
    //
    // `values_mut` and `clear` run inside the Newton assembly loop.

    /// The value array, addressed by [`SparsityPattern::position`] —
    /// the stamp slots a compiled circuit resolves once.
    #[inline]
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Resets every value to zero, keeping the structure.
    #[inline]
    pub fn clear(&mut self) {
        self.values.iter_mut().for_each(|v| *v = 0.0);
    }
    // lint: end-hot-loop

    /// Row indices and values of column `c`.
    #[inline]
    fn column(&self, c: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.pattern.col_ptr[c], self.pattern.col_ptr[c + 1]);
        (&self.pattern.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Reads entry `(r, c)` (zero outside the pattern).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.pattern.position(r, c).map_or(0.0, |k| self.values[k])
    }

    /// Zeroes every stored entry of row `r` (an O(nnz) scan — cold
    /// path, used only by deterministic fault injection to make a
    /// factorization genuinely singular).
    pub fn zero_row(&mut self, r: usize) {
        for (ri, v) in self.pattern.row_idx.iter().zip(self.values.iter_mut()) {
            if *ri == r {
                *v = 0.0;
            }
        }
    }

    /// Matrix–vector product `A·x`, for tests and diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let pattern = &*self.pattern;
        assert_eq!(x.len(), pattern.n);
        let mut y = vec![0.0; pattern.n];
        for (c, &xc) in x.iter().enumerate() {
            for p in pattern.col_ptr[c]..pattern.col_ptr[c + 1] {
                y[pattern.row_idx[p]] += self.values[p] * xc;
            }
        }
        y
    }
}

/// One recorded factorization of a pattern: every index a
/// factorization produces, all of which are fixed once its pivot
/// sequence is. [`SparseLu`] keeps the last two and replays them with
/// a numeric kernel that writes the values in place.
#[derive(Debug, Clone)]
struct LuProgram {
    /// Pivot row of each factor position.
    piv: Vec<usize>,
    /// `pinv[row]` is the factor position `row` pivots ([`NONE`] while
    /// the row is still available during recording).
    pinv: Vec<usize>,
    /// `L` column `kk` is `l_colptr[kk]..l_colptr[kk + 1]`, with the
    /// unit diagonal (the pivot row) first.
    l_colptr: Vec<usize>,
    /// `L`'s rows in original numbering: the rows an elimination
    /// updates.
    l_orig: Vec<usize>,
    /// `L`'s rows in pivotal numbering: what [`SparseLu::solve`] sweeps.
    l_rowidx: Vec<usize>,
    /// `U` column `kk` is `u_colptr[kk]..u_colptr[kk + 1]`, with the
    /// pivot last.
    u_colptr: Vec<usize>,
    /// `U`'s rows in pivotal numbering. Off the diagonal these are the
    /// earlier positions whose `L` columns update column `kk`, in
    /// topological order.
    u_rowidx: Vec<usize>,
    /// Each position's pivot candidates — the rows of its reach not yet
    /// pivotal — in reach order: `cand[cand_ptr[kk]..cand_ptr[kk + 1]]`.
    cand_ptr: Vec<usize>,
    cand: Vec<usize>,
}

impl LuProgram {
    fn new(n: usize) -> Self {
        Self {
            piv: vec![NONE; n],
            pinv: vec![NONE; n],
            l_colptr: vec![0; n + 1],
            l_orig: Vec::new(),
            l_rowidx: Vec::new(),
            u_colptr: vec![0; n + 1],
            u_rowidx: Vec::new(),
            cand_ptr: vec![0; n + 1],
            cand: Vec::new(),
        }
    }

    /// Empties the program for a recording from position 0.
    fn reset(&mut self) {
        self.pinv.iter_mut().for_each(|p| *p = NONE);
        self.l_orig.clear();
        self.u_rowidx.clear();
        self.cand.clear();
    }

    /// Makes this program `src`'s first `kk` positions plus the reach
    /// of position `kk` (its `U` column and candidates), which depend
    /// only on the pivots before it.
    fn copy_prefix(&mut self, src: &Self, kk: usize) {
        fn copy_into(dst: &mut Vec<usize>, src: &[usize]) {
            dst.clear();
            dst.extend_from_slice(src);
        }
        self.piv[..kk].copy_from_slice(&src.piv[..kk]);
        self.pinv.iter_mut().for_each(|p| *p = NONE);
        for (pos, &row) in src.piv[..kk].iter().enumerate() {
            self.pinv[row] = pos;
        }
        self.l_colptr[..=kk].copy_from_slice(&src.l_colptr[..=kk]);
        self.u_colptr[..=kk + 1].copy_from_slice(&src.u_colptr[..=kk + 1]);
        self.cand_ptr[..=kk + 1].copy_from_slice(&src.cand_ptr[..=kk + 1]);
        copy_into(&mut self.l_orig, &src.l_orig[..src.l_colptr[kk]]);
        copy_into(&mut self.u_rowidx, &src.u_rowidx[..src.u_colptr[kk + 1]]);
        copy_into(&mut self.cand, &src.cand[..src.cand_ptr[kk + 1]]);
    }

    // lint: hot-loop
    //
    // Every factorization path eliminates its columns here.

    /// Eliminates factor position `kk` with this program's recorded
    /// `U` entries and candidates: scatters the position's column of
    /// `A` (`rows`, `values`) into the all-zero `x`, applies the `L`
    /// columns of the `U` entries in topological order — a row's value
    /// is final when its turn comes, so it is also its `U` value, and
    /// no later update reads it — and chooses the pivot among the
    /// candidates, storing it as `U`'s diagonal. Returns the pivot row
    /// with the candidates still live in `x`, or, with `x` all zero
    /// again, `None` if no candidate is an acceptable pivot.
    #[inline(always)]
    fn eliminate(
        &self,
        kk: usize,
        (rows, values): (&[usize], &[f64]),
        x: &mut [f64],
        l_values: &[f64],
        u_values: &mut [f64],
    ) -> Option<usize> {
        for (&i, &v) in rows.iter().zip(values) {
            x[i] = v;
        }
        let (u_lo, u_diag) = (self.u_colptr[kk], self.u_colptr[kk + 1] - 1);
        for (&jcol, u) in self.u_rowidx[u_lo..u_diag]
            .iter()
            .zip(&mut u_values[u_lo..u_diag])
        {
            let j = self.piv[jcol];
            let xj = x[j];
            x[j] = 0.0;
            *u = xj;
            // L's unit diagonal is stored first in each column, so
            // the division by it is a no-op; apply the strictly
            // sub-diagonal entries.
            let (l_lo, l_hi) = (self.l_colptr[jcol] + 1, self.l_colptr[jcol + 1]);
            for (&i, &l) in self.l_orig[l_lo..l_hi].iter().zip(&l_values[l_lo..l_hi]) {
                x[i] -= l * xj;
            }
        }
        let cands = &self.cand[self.cand_ptr[kk]..self.cand_ptr[kk + 1]];
        let ipiv = choose_pivot(x, cands);
        match ipiv {
            Some(i) => u_values[u_diag] = x[i],
            None => cands.iter().for_each(|&i| x[i] = 0.0),
        }
        ipiv
    }

    /// Records pivot `ipiv` for eliminated position `kk` and appends
    /// its `L` column — the pivot's unit diagonal, then the other
    /// candidates divided by the pivot, in reach order — leaving `x`
    /// all zero. `l_orig` and `l_values` must end where `L` column
    /// `kk` starts.
    fn push_l_column(&mut self, kk: usize, ipiv: usize, x: &mut [f64], l_values: &mut Vec<f64>) {
        let pivot = x[ipiv];
        self.piv[kk] = ipiv;
        self.pinv[ipiv] = kk;
        // lint: allow(HOT003): one unit-diagonal entry per column; capacity persists across factorizations
        self.l_orig.push(ipiv);
        l_values.push(1.0); // lint: allow(HOT003): one unit-diagonal entry per column
        for &i in &self.cand[self.cand_ptr[kk]..self.cand_ptr[kk + 1]] {
            if i != ipiv {
                // lint: allow(HOT003): bounded by the column's L fill; capacity persists across factorizations
                self.l_orig.push(i);
                l_values.push(x[i] / pivot); // lint: allow(HOT003): same bound as the index push above
            }
            x[i] = 0.0;
        }
        self.l_colptr[kk + 1] = self.l_orig.len();
    }
    // lint: end-hot-loop
}

/// Depth-first search scratch: the DFS and topological-output stack
/// and visit marks.
#[derive(Debug, Clone)]
struct Dfs {
    /// Shared stack: DFS recursion grows from the front, the
    /// topological output grows from the back (they never collide —
    /// their combined size is bounded by the number of reached nodes).
    xi: Vec<usize>,
    /// Per-frame resume positions of the paused DFS.
    pstack: Vec<usize>,
    /// Visit marks, keyed by a per-column generation counter.
    flag: Vec<usize>,
}

/// A reusable Gilbert–Peierls LU workspace: numeric L/U factors, the
/// dense accumulator and DFS stacks, and the recorded factorizations
/// it replays.
///
/// One `SparseLu` serves one system size for its whole life; calling
/// [`factor`](Self::factor) repeatedly on matrices with the same
/// pattern performs no heap allocation once both recorded programs
/// have reached their size.
///
/// Each factorization that searches also *records* a program: per
/// factor position, the pivot row, the `U` entries to apply, the `L`
/// rows and the pivot candidates. The next factorization of the
/// *same* [`CscMatrix`] pattern runs the recorded program as a flat
/// numeric kernel instead of searching, for as long as the pivots the
/// rule picks agree with a program (see [`factor`](Self::factor)).
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Values of `L` and `U`, laid out by the active program.
    l_values: Vec<f64>,
    u_values: Vec<f64>,
    /// Dense accumulator for the current column; all zero between
    /// columns.
    x: Vec<f64>,
    dfs: Dfs,
    /// Column elimination order: `q[kk]` is the original column
    /// factored at position `kk`. Identity unless the workspace was
    /// built with [`with_column_order`](Self::with_column_order).
    q: Vec<usize>,
    /// The last two recorded factorizations of `recorded`.
    programs: [LuProgram; 2],
    /// Which of `programs` are complete recordings.
    complete: [bool; 2],
    /// The program whose layout the values hold, and which the next
    /// factorization replays first.
    active: usize,
    /// Leading factor positions on which both programs have the same
    /// pivots (meaningful while both are complete).
    shared: usize,
    /// The pattern the programs belong to; `None` before the first
    /// factorization and after a failed one.
    recorded: Option<Arc<SparsityPattern>>,
    /// Factorizations that searched (in-crate tests only).
    #[cfg(test)]
    searches: usize,
}

/// A read-only view of the factors [`SparseLu::factor`] computed:
/// `P·A·Q = L·U` in compressed-sparse-column form, in factor-position
/// numbering. Meaningful only after a successful factorization.
#[derive(Debug, Clone, Copy)]
pub struct LuFactors<'a> {
    /// Column pointers of the unit-lower factor `L`.
    pub l_colptr: &'a [usize],
    /// Row indices of `L` (the unit diagonal first in each column).
    pub l_rowidx: &'a [usize],
    /// Values of `L`.
    pub l_values: &'a [f64],
    /// Column pointers of the upper factor `U`.
    pub u_colptr: &'a [usize],
    /// Row indices of `U` (the pivot last in each column).
    pub u_rowidx: &'a [usize],
    /// Values of `U`.
    pub u_values: &'a [f64],
    /// Row permutation: `pinv[row]` is the factor position `row`
    /// pivots.
    pub pinv: &'a [usize],
}

impl SparseLu {
    /// Allocates a workspace for `n × n` systems.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "system dimension must be positive");
        Self {
            n,
            l_values: Vec::new(),
            u_values: Vec::new(),
            x: vec![0.0; n],
            dfs: Dfs {
                xi: vec![0; n],
                pstack: vec![0; n],
                flag: vec![0; n],
            },
            q: (0..n).collect(),
            programs: [LuProgram::new(n), LuProgram::new(n)],
            complete: [false; 2],
            active: 0,
            shared: 0,
            recorded: None,
            #[cfg(test)]
            searches: 0,
        }
    }

    /// Allocates a workspace that eliminates columns in the given
    /// order — typically [`SparsityPattern::min_degree_ordering`].
    /// With the identity order this is exactly [`new`](Self::new).
    ///
    /// # Panics
    ///
    /// Panics if `order` is empty or not a permutation of `0..n`.
    pub fn with_column_order(order: &[usize]) -> Self {
        let n = order.len();
        let mut lu = Self::new(n);
        let mut seen = vec![false; n];
        for &c in order {
            assert!(
                c < n && !seen[c],
                "column order must be a permutation of 0..n"
            );
            seen[c] = true;
        }
        lu.q.copy_from_slice(order);
        lu
    }

    /// System dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The factors the last [`factor`](Self::factor) computed (partial
    /// after a failed one).
    pub fn factors(&self) -> LuFactors<'_> {
        let prog = &self.programs[self.active];
        LuFactors {
            l_colptr: &prog.l_colptr,
            l_rowidx: &prog.l_rowidx,
            l_values: &self.l_values,
            u_colptr: &prog.u_colptr,
            u_rowidx: &prog.u_rowidx,
            u_values: &self.u_values,
            pinv: &prog.pinv,
        }
    }

    // lint: hot-loop
    //
    // `factor` (its replay, branch and search) and `solve` run once per
    // Newton iteration per timestep on the sparse path — the innermost
    // engine loop for generated column arrays. Once both programs have
    // reached their size every push lands in reserved capacity, so the
    // loop is allocation-free.

    /// Factors `a` in place of the previous factors.
    ///
    /// Left-looking Gilbert–Peierls with partial pivoting: per column,
    /// the reach of `A(:,k)` over `L` gives the nonzero pattern of
    /// `x = L \ A(:,k)` in topological order; the sparse triangular
    /// update fills in the values; the largest-magnitude row not yet
    /// chosen as a pivot becomes this column's pivot (ties break to
    /// the smallest row index, keeping the factorization fully
    /// deterministic). Columns are eliminated in the workspace's
    /// column order (`P·A·Q = L·U`); [`solve`](Self::solve) undoes
    /// both permutations.
    ///
    /// **Replayed programs.** The reach of position `kk`, and with it
    /// every index the factorization writes there, is a function of
    /// the pattern and the pivots of positions `0..kk` alone. When `a`
    /// shares the pattern of the last successful factorization (the
    /// same [`CscMatrix`] or a clone of it), the active recorded
    /// program runs as a flat kernel: scatter `A(:,k)`, apply the
    /// recorded `U` rows, choose the pivot by the full rule above
    /// among the recorded candidates, and write `L` and `U` in place.
    /// At the first position whose pivot differs from the program's,
    /// the kernel switches to the other recorded program if it has
    /// the same pivots up to there and this pivot at that position.
    /// Otherwise the position is finished in general form into a new
    /// program that replaces the other one, and the rest of the
    /// factorization searches and records. Searching only adds the
    /// symbolic step: every path eliminates a column with the same
    /// numeric code, so every arithmetic operation is the one a fresh
    /// workspace performs, in the same order — replay changes the
    /// cost, never a bit.
    ///
    /// # Errors
    ///
    /// Returns the failing column index (= the MNA unknown index) if
    /// no acceptable pivot exists — the sparse analogue of the dense
    /// solver's singular-matrix report. A failure drops both programs.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not `n × n`.
    pub fn factor(&mut self, a: &CscMatrix) -> Result<(), usize> {
        assert_eq!(a.n(), self.n, "dimension mismatch");
        self.x.iter_mut().for_each(|v| *v = 0.0);
        let same = matches!(&self.recorded, Some(p) if Arc::ptr_eq(p, &a.pattern));
        let outcome = if same {
            match self.replay(a) {
                Ok(None) => Ok(()),
                Ok(Some((kk, ipiv))) => {
                    self.branch(kk, ipiv);
                    self.shared = kk;
                    self.search(a, kk + 1)
                }
                Err(k) => Err(k),
            }
        } else {
            self.complete = [false; 2];
            self.programs[self.active].reset();
            self.l_values.clear();
            self.u_values.clear();
            self.search(a, 0)
        };
        match outcome {
            Ok(()) => {
                self.complete[self.active] = true;
                if !same {
                    self.recorded = Some(Arc::clone(&a.pattern));
                }
            }
            Err(_) => {
                // A later factor call must search: the record may be
                // incomplete.
                self.complete = [false; 2];
                self.recorded = None;
            }
        }
        outcome
    }

    /// Starts a new program in the other slot for a factorization that
    /// left the active program at position `kk` with pivot `ipiv`: the
    /// positions before `kk` and the reach of `kk` are the active
    /// program's, and `kk` is finished in general form from its
    /// candidates, still live in `x`. The other slot's old program is
    /// dropped.
    fn branch(&mut self, kk: usize, ipiv: usize) {
        let from = self.active;
        let [p0, p1] = &mut self.programs;
        let (src, dst) = if from == 0 { (&*p0, p1) } else { (&*p1, p0) };
        dst.copy_prefix(src, kk);
        self.active = 1 - from;
        self.complete[self.active] = false;
        self.l_values.truncate(dst.l_colptr[kk]);
        dst.push_l_column(kk, ipiv, &mut self.x, &mut self.l_values);
    }

    /// Runs the active program (and, at a pivot change, the other one)
    /// over `a`, writing `L` and `U` in place. Returns `None` when a
    /// program ran to the end, or the position and pivot at which the
    /// pivots left both programs: that position's `U` column is
    /// written and its candidates are still live in `x`.
    fn replay(&mut self, a: &CscMatrix) -> Result<Option<(usize, usize)>, usize> {
        let n = self.n;
        let switchable = self.complete[1 - self.active];
        let Self {
            programs,
            active,
            shared,
            x,
            l_values,
            u_values,
            q,
            ..
        } = self;
        let mut prog = &programs[*active];
        l_values.resize(prog.l_colptr[n], 0.0);
        u_values.resize(prog.u_colptr[n], 0.0);
        for (kk, &k) in q.iter().enumerate() {
            let ipiv = prog
                .eliminate(kk, a.column(k), x, l_values, u_values)
                .ok_or(k)?;
            if ipiv != prog.piv[kk] {
                let other = &programs[1 - *active];
                if switchable && *shared == kk && other.piv[kk] == ipiv {
                    // The other program shares every column's layout
                    // so far, this one's included.
                    *active = 1 - *active;
                    prog = other;
                    l_values.resize(prog.l_colptr[n], 0.0);
                    u_values.resize(prog.u_colptr[n], 0.0);
                } else {
                    return Ok(Some((kk, ipiv)));
                }
            }
            let pivot = x[ipiv];
            let (l_lo, l_hi) = (prog.l_colptr[kk], prog.l_colptr[kk + 1]);
            l_values[l_lo] = 1.0;
            let below = prog.l_orig[l_lo + 1..l_hi].iter();
            for (l, &i) in l_values[l_lo + 1..l_hi].iter_mut().zip(below) {
                *l = x[i] / pivot;
            }
            for &i in &prog.cand[prog.cand_ptr[kk]..prog.cand_ptr[kk + 1]] {
                x[i] = 0.0;
            }
        }
        Ok(None)
    }

    /// Factors positions `start..n` of `a` into the active program,
    /// recording as it goes: per position, a depth-first search gives
    /// the reach, whose pivotal rows become the `U` entries to apply
    /// and whose other rows the pivot candidates; then the position is
    /// eliminated and finished like a replayed one. Positions before
    /// `start` are already factored and recorded.
    fn search(&mut self, a: &CscMatrix, start: usize) -> Result<(), usize> {
        let n = self.n;
        let pattern = &*a.pattern;
        #[cfg(test)]
        {
            self.searches += 1;
        }
        let Self {
            programs,
            active,
            x,
            dfs,
            l_values,
            u_values,
            q,
            ..
        } = self;
        let prog = &mut programs[*active];
        dfs.flag.iter_mut().for_each(|f| *f = 0);
        for (kk, &k) in q.iter().enumerate().skip(start) {
            // Symbolic: reach of A(:,k) over L, in topological order.
            let mark = kk + 1;
            let mut top = n;
            for p in pattern.col_ptr[k]..pattern.col_ptr[k + 1] {
                let i = pattern.row_idx[p];
                if dfs.flag[i] != mark {
                    top = dfs.reach(prog, i, mark, top);
                }
            }
            // Rows already pivotal are U(:,k)'s entries, the rest are
            // the pivot candidates; the pivot itself closes U(:,k).
            prog.u_colptr[kk] = prog.u_rowidx.len();
            prog.cand_ptr[kk] = prog.cand.len();
            for &i in &dfs.xi[top..] {
                let pos = prog.pinv[i];
                if pos == NONE {
                    prog.cand.push(i); // lint: allow(HOT003): bounded by the column's L fill; capacity persists across factorizations
                } else {
                    prog.u_rowidx.push(pos); // lint: allow(HOT003): bounded by the column's U fill; capacity persists across factorizations
                }
            }
            prog.u_rowidx.push(kk); // lint: allow(HOT003): one pivot entry per column; capacity persists across factorizations
            prog.u_colptr[kk + 1] = prog.u_rowidx.len();
            prog.cand_ptr[kk + 1] = prog.cand.len();
            u_values.resize(prog.u_rowidx.len(), 0.0);

            let ipiv = prog
                .eliminate(kk, a.column(k), x, l_values, u_values)
                .ok_or(k)?;
            prog.push_l_column(kk, ipiv, x, l_values);
        }
        // L's row indices in pivotal numbering, so the solve is a
        // straight unit-lower / upper sweep.
        let LuProgram {
            l_rowidx,
            l_orig,
            pinv,
            ..
        } = prog;
        l_rowidx.clear();
        l_rowidx.extend(l_orig.iter().map(|&i| pinv[i]));
        Ok(())
    }

    /// Solves `A·x = b` using the factors of the last successful
    /// [`factor`](Self::factor), overwriting `b` with `x`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve(&mut self, b: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        let prog = &self.programs[self.active];
        let x = &mut self.x;
        // Apply the row permutation: x[pinv[i]] = b[i].
        for (i, &bi) in b.iter().enumerate() {
            x[prog.pinv[i]] = bi;
        }
        // Unit-lower sweep (diagonal first in each column).
        for j in 0..n {
            let xj = x[j];
            for p in prog.l_colptr[j] + 1..prog.l_colptr[j + 1] {
                x[prog.l_rowidx[p]] -= self.l_values[p] * xj;
            }
        }
        // Upper sweep (diagonal last in each column).
        for j in (0..n).rev() {
            let lo = prog.u_colptr[j];
            let hi = prog.u_colptr[j + 1];
            x[j] /= self.u_values[hi - 1];
            let xj = x[j];
            for p in lo..hi - 1 {
                x[prog.u_rowidx[p]] -= self.u_values[p] * xj;
            }
        }
        // Undo the column permutation: x[q[kk]] = y[kk].
        for (kk, &col) in self.q.iter().enumerate() {
            b[col] = x[kk];
        }
        // Leave the accumulator clean for the next factorization.
        x.iter_mut().for_each(|v| *v = 0.0);
    }
}

impl Dfs {
    /// Depth-first search from row `start` over the graph of the
    /// partially built `L` of `prog`, appending finished nodes to the
    /// topological output stack growing down from `top`. Returns the
    /// new `top`.
    fn reach(&mut self, prog: &LuProgram, start: usize, mark: usize, mut top: usize) -> usize {
        let mut head: usize = 0;
        self.xi[0] = start;
        loop {
            let j = self.xi[head];
            let jcol = prog.pinv[j];
            if self.flag[j] != mark {
                self.flag[j] = mark;
                self.pstack[head] = if jcol == NONE { 0 } else { prog.l_colptr[jcol] };
            }
            let p_end = if jcol == NONE {
                0
            } else {
                prog.l_colptr[jcol + 1]
            };
            let mut done = true;
            let mut p = self.pstack[head];
            while p < p_end {
                let child = prog.l_orig[p];
                if self.flag[child] != mark {
                    // Pause this frame, descend into the child.
                    self.pstack[head] = p;
                    head += 1;
                    self.xi[head] = child;
                    done = false;
                    break;
                }
                p += 1;
            }
            if done {
                top -= 1;
                self.xi[top] = j;
                if head == 0 {
                    break;
                }
                head -= 1;
            }
        }
        top
    }
}

/// The partial-pivoting rule: the candidate of largest `|x|`, ties to
/// the smallest row index; `None` if no candidate reaches
/// [`PIVOT_FLOOR`] (a NaN is never chosen).
// lint: hot-fn
#[inline]
fn choose_pivot(x: &[f64], cands: &[usize]) -> Option<usize> {
    let mut ipiv = NONE;
    let mut best = -1.0f64;
    for &i in cands {
        let t = x[i].abs();
        // lint: allow(HYG004): exact tie-break keeps the pivot order deterministic
        if t > best || (t == best && i < ipiv) {
            best = t;
            ipiv = i;
        }
    }
    (ipiv != NONE && best >= PIVOT_FLOOR).then_some(ipiv)
}
// lint: end-hot-loop

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::DenseMatrix;

    fn dense_pattern(n: usize) -> SparsityPattern {
        let mut entries = Vec::new();
        for r in 0..n {
            for c in 0..n {
                entries.push((r, c));
            }
        }
        SparsityPattern::new(n, &entries)
    }

    #[test]
    fn pattern_is_csc_with_ascending_rows() {
        let p = SparsityPattern::new(3, &[(2, 0), (0, 0), (1, 2), (0, 0), (0, 1)]);
        assert_eq!(p.n(), 3);
        assert_eq!(p.nnz(), 4, "duplicates must collapse");
        assert_eq!(p.col_ptr, vec![0, 2, 3, 4]);
        assert_eq!(p.row_idx, vec![0, 2, 0, 1]);
    }

    #[test]
    fn add_get_clear_round_trip() {
        let p = SparsityPattern::new(2, &[(0, 0), (1, 0), (1, 1)]);
        let mut m = CscMatrix::zeros(&p);
        m.add(0, 0, 1.5);
        m.add(1, 0, 2.0);
        m.add(1, 0, 0.5);
        assert_eq!(m.get(0, 0), 1.5);
        assert_eq!(m.get(1, 0), 2.5);
        assert_eq!(m.get(0, 1), 0.0, "outside the pattern reads zero");
        m.clear();
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn min_degree_orders_hub_nodes_last_and_avoids_fill() {
        // Arrow matrix: node 0 couples to every other node (the shape
        // a shared bit line stamps into the MNA system). Natural order
        // eliminates the hub first and fills the trailing block dense;
        // minimum degree pushes the hub to the end and, with pivots on
        // the dominant diagonal, creates no fill at all.
        let n = 8;
        let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for i in 1..n {
            entries.push((0, i));
            entries.push((i, 0));
        }
        let pattern = SparsityPattern::new(n, &entries);
        let order = pattern.min_degree_ordering();
        // Leaves go first (ties by index); the hub only becomes
        // eligible once its degree has shrunk to match a leaf's.
        assert_eq!(order[..n - 2], (1..n - 1).collect::<Vec<_>>()[..]);
        assert!(
            order.iter().position(|&v| v == 0).expect("hub is ordered") >= n - 2,
            "the hub must be eliminated after the leaves"
        );

        let mut a = CscMatrix::zeros(&pattern);
        for i in 0..n {
            a.add(i, i, (i + 4) as f64);
        }
        for i in 1..n {
            a.add(0, i, 1.0);
            a.add(i, 0, 0.5);
        }
        let mut lu = SparseLu::with_column_order(&order);
        lu.factor(&a).expect("ordered factorization succeeds");
        // Zero fill: L's unit diagonals and U's pivots are the only
        // entries beyond the structural nonzeros.
        assert_eq!(lu.l_values.len() + lu.u_values.len(), pattern.nnz() + n);

        // The permuted solve still answers in original coordinates.
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
        let mut x = b.clone();
        lu.solve(&mut x);
        let ax = a.matvec(&x);
        for (got, want) in ax.iter().zip(&b) {
            assert!((got - want).abs() < 1e-10, "residual too large");
        }
    }

    #[test]
    #[should_panic(expected = "column order must be a permutation")]
    fn rejects_a_non_permutation_column_order() {
        let _ = SparseLu::with_column_order(&[0, 0, 2]);
    }

    #[test]
    fn solves_a_known_system() {
        // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
        let p = dense_pattern(2);
        let mut a = CscMatrix::zeros(&p);
        a.add(0, 0, 2.0);
        a.add(0, 1, 1.0);
        a.add(1, 0, 1.0);
        a.add(1, 1, 3.0);
        let mut lu = SparseLu::new(2);
        lu.factor(&a).unwrap();
        let mut b = vec![5.0, 10.0];
        lu.solve(&mut b);
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_structurally_zero_diagonals() {
        // The MNA shape that makes pivoting mandatory: a voltage-source
        // branch row [0 1; 1 0].
        let p = SparsityPattern::new(2, &[(0, 1), (1, 0)]);
        let mut a = CscMatrix::zeros(&p);
        a.add(0, 1, 1.0);
        a.add(1, 0, 1.0);
        let mut lu = SparseLu::new(2);
        lu.factor(&a).unwrap();
        let mut b = vec![2.0, 3.0];
        lu.solve(&mut b);
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_reports_the_failing_column() {
        // Rank-1 2x2: the second pivot collapses.
        let p = dense_pattern(2);
        let mut a = CscMatrix::zeros(&p);
        a.add(0, 0, 1.0);
        a.add(0, 1, 2.0);
        a.add(1, 0, 2.0);
        a.add(1, 1, 4.0);
        let mut lu = SparseLu::new(2);
        assert_eq!(lu.factor(&a), Err(1));

        // An empty column fails immediately at that column.
        let p = SparsityPattern::new(2, &[(0, 0)]);
        let a = CscMatrix::zeros(&p);
        let mut lu = SparseLu::new(2);
        let err = lu.factor(&a);
        assert!(err.is_err());
    }

    #[test]
    fn refactorization_reuses_the_workspace_and_matches_dense() {
        // Factor twice with different values on one pattern; both
        // solves must match the dense reference exactly-ish.
        let n = 5;
        let entries = [
            (0, 0),
            (0, 2),
            (1, 1),
            (1, 3),
            (2, 0),
            (2, 2),
            (2, 4),
            (3, 1),
            (3, 3),
            (4, 2),
            (4, 4),
        ];
        let p = SparsityPattern::new(n, &entries);
        let mut lu = SparseLu::new(n);
        for scale in [1.0f64, 3.5] {
            let mut a = CscMatrix::zeros(&p);
            let mut d = DenseMatrix::zeros(n, n);
            for (k, &(r, c)) in entries.iter().enumerate() {
                let v = scale * (k as f64 + 1.0) * if r == c { 3.0 } else { 0.5 };
                a.add(r, c, v);
                d.add(r, c, v);
            }
            lu.factor(&a).unwrap();
            let rhs: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
            let mut xs = rhs.clone();
            lu.solve(&mut xs);
            let mut xd = rhs.clone();
            d.solve_in_place(&mut xd).unwrap();
            for (s, dd) in xs.iter().zip(&xd) {
                assert!((s - dd).abs() < 1e-10, "sparse {s} vs dense {dd}");
            }
            // Residual check through the sparse matvec.
            let back = {
                let mut a2 = CscMatrix::zeros(&p);
                for (k, &(r, c)) in entries.iter().enumerate() {
                    let v = scale * (k as f64 + 1.0) * if r == c { 3.0 } else { 0.5 };
                    a2.add(r, c, v);
                }
                a2.matvec(&xs)
            };
            for (orig, b) in rhs.iter().zip(&back) {
                assert!((orig - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn zero_row_makes_the_factorization_singular() {
        let p = dense_pattern(3);
        let mut a = CscMatrix::zeros(&p);
        for i in 0..3 {
            a.add(i, i, 2.0);
        }
        a.add(0, 1, 1.0);
        a.add(2, 1, 1.0);
        let mut lu = SparseLu::new(3);
        lu.factor(&a).unwrap();
        a.zero_row(0);
        assert!(lu.factor(&a).is_err());
    }

    /// Every bit a factorization leaves behind: L, U and the row
    /// permutation.
    fn factor_bits(lu: &SparseLu) -> Vec<u64> {
        let f = lu.factors();
        let idx = [f.l_colptr, f.l_rowidx, f.u_colptr, f.u_rowidx, f.pinv];
        let vals = [f.l_values, f.u_values];
        idx.iter()
            .flat_map(|v| v.iter().map(|&i| i as u64))
            .chain(vals.iter().flat_map(|v| v.iter().map(|x| x.to_bits())))
            .collect()
    }

    /// Asserts `lu` holds exactly the factors a fresh workspace
    /// computes for `a`.
    fn assert_matches_fresh(lu: &SparseLu, a: &CscMatrix) {
        let mut fresh = SparseLu::new(a.n());
        fresh.factor(a).expect("fresh factorization");
        assert_eq!(factor_bits(lu), factor_bits(&fresh));
    }

    fn filled(pattern: &SparsityPattern, values: &[((usize, usize), f64)]) -> CscMatrix {
        let mut a = CscMatrix::zeros(pattern);
        for &((r, c), v) in values {
            a.add(r, c, v);
        }
        a
    }

    #[test]
    fn replay_is_keyed_to_the_recorded_pattern() {
        let entries = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)];
        let values: Vec<_> = entries
            .iter()
            .map(|&(r, c)| ((r, c), if r == c { 4.0 } else { -1.0 - r as f64 }))
            .collect();
        let p = SparsityPattern::new(3, &entries);
        let a = filled(&p, &values);
        let mut lu = SparseLu::new(3);
        lu.factor(&a).unwrap();
        let recorded = lu.recorded.clone().expect("a success records");
        assert!(Arc::ptr_eq(&recorded, &a.pattern));

        // A clone shares the pattern, so it replays against the record.
        lu.factor(&a.clone()).unwrap();
        assert!(Arc::ptr_eq(lu.recorded.as_ref().unwrap(), &recorded));
        assert_matches_fresh(&lu, &a);

        // An equal pattern built separately is not the recorded one:
        // the factorization searches and records it afresh.
        let b = filled(&SparsityPattern::new(3, &entries), &values);
        lu.factor(&b).unwrap();
        assert!(Arc::ptr_eq(lu.recorded.as_ref().unwrap(), &b.pattern));
        assert_matches_fresh(&lu, &b);

        // So is a different pattern of the same size.
        let dense = dense_pattern(3);
        let c = filled(
            &dense,
            &[((0, 2), 5.0), ((1, 1), 2.0), ((2, 0), 3.0), ((2, 2), 1.0)],
        );
        lu.factor(&c).unwrap();
        assert!(Arc::ptr_eq(lu.recorded.as_ref().unwrap(), &c.pattern));
        assert_matches_fresh(&lu, &c);
    }

    #[test]
    fn a_singular_failure_drops_the_record() {
        let p = dense_pattern(3);
        let mut a = CscMatrix::zeros(&p);
        for i in 0..3 {
            a.add(i, i, 2.0);
        }
        a.add(0, 1, 1.0);
        a.add(2, 1, 1.0);
        let mut lu = SparseLu::new(3);
        lu.factor(&a).unwrap();
        a.zero_row(0);
        assert!(lu.factor(&a).is_err());
        assert!(lu.recorded.is_none(), "a partial record is never replayed");
        a.add(0, 0, 3.0);
        a.add(0, 2, 1.0);
        lu.factor(&a).unwrap();
        assert_matches_fresh(&lu, &a);
    }

    #[test]
    fn alternating_pivot_sequences_replay_without_searching() {
        // Column 0's pivot is row 0 in `a` and row 1 in `b`: two pivot
        // sequences that share no prefix.
        let p = dense_pattern(3);
        let a = filled(
            &p,
            &[
                ((0, 0), 4.0),
                ((1, 0), 1.0),
                ((1, 1), 3.0),
                ((2, 1), 1.0),
                ((2, 2), 2.0),
                ((0, 2), 0.5),
            ],
        );
        // A clone shares the pattern object, as the Newton loop's one
        // matrix does.
        let mut b = a.clone();
        b.clear();
        for ((r, c), v) in [
            ((0, 0), 1.0),
            ((1, 0), 4.0),
            ((0, 1), 2.0),
            ((1, 1), 1.0),
            ((2, 2), 5.0),
            ((2, 0), 0.5),
        ] {
            b.add(r, c, v);
        }
        let mut lu = SparseLu::new(3);
        lu.factor(&a).unwrap();
        lu.factor(&b).unwrap();
        assert_eq!(lu.searches, 2, "each sequence is recorded once");
        assert_eq!(lu.complete, [true, true]);
        assert_eq!(lu.shared, 0);
        for m in [&a, &b, &a, &b, &a] {
            lu.factor(m).unwrap();
            assert_matches_fresh(&lu, m);
        }
        assert_eq!(
            lu.searches, 2,
            "both programs replay, switching at column 0"
        );
    }

    #[test]
    fn factor_after_a_singular_failure_recovers() {
        let p = dense_pattern(2);
        let mut lu = SparseLu::new(2);
        let singular = CscMatrix::zeros(&p);
        assert!(lu.factor(&singular).is_err());
        let mut a = CscMatrix::zeros(&p);
        a.add(0, 0, 4.0);
        a.add(1, 1, 2.0);
        lu.factor(&a).unwrap();
        let mut b = vec![8.0, 8.0];
        lu.solve(&mut b);
        assert!((b[0] - 2.0).abs() < 1e-12);
        assert!((b[1] - 4.0).abs() < 1e-12);
    }
}
