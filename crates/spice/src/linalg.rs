//! Dense linear algebra: an LU solver with partial pivoting.
//!
//! SRAM cells and the other circuits in this toolkit have tens of
//! unknowns at most, so a dense solver is both simpler and faster than
//! a sparse one at this scale.

use crate::SpiceError;

/// A dense row-major square-capable matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Writes entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to entry `(r, c)` — the natural MNA stamping operation.
    // lint: hot-fn
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += v;
    }

    /// Resets every entry to zero (reusing the allocation).
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Overwrites this matrix with the contents of `other` (no
    /// allocation) — used to refresh the LU scratch from the assembled
    /// Jacobian, since [`solve_in_place`](Self::solve_in_place)
    /// destroys the matrix it factors.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn copy_from(&mut self, other: &DenseMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "dimension mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|r| {
                self.data[r * self.cols..(r + 1) * self.cols]
                    .iter()
                    .zip(x)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect()
    }

    /// Solves `A·x = b` in place by LU decomposition with partial
    /// pivoting, destroying `self` and overwriting `b` with `x`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] if a pivot is (nearly)
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != rows`.
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> Result<(), SpiceError> {
        self.solve_in_place_indexed(b)
            .map_err(|col| SpiceError::SingularMatrix { col })
    }

    /// The row-major value array, addressed by the `r * cols + c`
    /// stamp slots [`crate::CompiledCircuit`] resolves at compile time.
    #[inline]
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// [`solve_in_place`](Self::solve_in_place) returning the failing
    /// column index (= MNA unknown index) on singularity, so callers
    /// that know the circuit can attach the unknown's *name*.
    ///
    /// Works on row slices: the pivot row and each row below it are
    /// borrowed once per elimination step, so the inner loops carry no
    /// index arithmetic. The operations and their order are those of
    /// the element-wise reference loop in the tests below, which pin
    /// it bit for bit: pivot on the first largest magnitude, swap whole
    /// rows, skip rows whose elimination factor is exactly zero, then
    /// back-substitute bottom row first, each row summed left to right.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != rows`.
    // lint: hot-fn
    pub(crate) fn solve_in_place_indexed(&mut self, b: &mut [f64]) -> Result<(), usize> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows);
        let n = self.rows;
        let a = &mut self.data[..];

        for col in 0..n {
            // Partial pivot: the first largest magnitude in this column.
            let mut pivot_row = col;
            let mut pivot_mag = a[col * n + col].abs();
            for (r, v) in a[col * n + col..].iter().step_by(n).enumerate().skip(1) {
                let mag = v.abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = col + r;
                }
            }
            if pivot_mag < 1e-300 {
                return Err(col);
            }
            let (head, below) = a.split_at_mut((col + 1) * n);
            let pivot_full = &mut head[col * n..];
            if pivot_row != col {
                let k = pivot_row - col - 1;
                pivot_full.swap_with_slice(&mut below[k * n..(k + 1) * n]);
                b.swap(col, pivot_row);
            }

            // Eliminate below.
            let pivot_tail = &pivot_full[col..];
            let pivot = pivot_tail[0];
            let (b_head, b_below) = b.split_at_mut(col + 1);
            let b_col = b_head[col];
            for (row, br) in below.chunks_exact_mut(n).zip(b_below) {
                let factor = row[col] / pivot;
                // lint: allow(HYG004): exact-zero factor makes elimination a no-op
                if factor == 0.0 {
                    continue;
                }
                for (v, &p) in row[col..].iter_mut().zip(pivot_tail) {
                    *v -= factor * p;
                }
                *br -= factor * b_col;
            }
        }

        // Back substitution.
        for col in (0..n).rev() {
            let row = &a[col * n..(col + 1) * n];
            let mut acc = b[col];
            for (&u, &bc) in row[col + 1..].iter().zip(&b[col + 1..]) {
                acc -= u * bc;
            }
            b[col] = acc / row[col];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn solves_a_known_system() {
        // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
        let mut a = DenseMatrix::zeros(2, 2);
        a.set(0, 0, 2.0);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 1, 3.0);
        let mut b = vec![5.0, 10.0];
        a.solve_in_place(&mut b).unwrap();
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] x = [2; 3] -> x = [3; 2]
        let mut a = DenseMatrix::zeros(2, 2);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        let mut b = vec![2.0, 3.0];
        a.solve_in_place(&mut b).unwrap();
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut a = DenseMatrix::zeros(2, 2);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 4.0);
        let mut b = vec![1.0, 2.0];
        assert_eq!(
            a.solve_in_place(&mut b),
            Err(SpiceError::SingularMatrix { col: 1 }),
            "the rank collapse is first visible at the second pivot"
        );
    }

    #[test]
    fn stamping_accumulates() {
        let mut a = DenseMatrix::zeros(2, 2);
        a.add(0, 0, 1.0);
        a.add(0, 0, 2.5);
        assert_eq!(a.get(0, 0), 3.5);
        a.clear();
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn matvec_matches_by_hand() {
        let mut a = DenseMatrix::zeros(2, 3);
        for (i, v) in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0].iter().enumerate() {
            a.set(i / 3, i % 3, *v);
        }
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    /// The index-based LU this module shipped before the row-slice
    /// rewrite, kept verbatim as the bit-identity reference.
    fn reference_solve(a: &mut DenseMatrix, b: &mut [f64]) -> Result<(), usize> {
        let n = a.rows;
        for col in 0..n {
            let mut pivot_row = col;
            let mut pivot_mag = a.get(col, col).abs();
            for r in col + 1..n {
                let mag = a.get(r, col).abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if pivot_mag < 1e-300 {
                return Err(col);
            }
            if pivot_row != col {
                for c in 0..n {
                    let tmp = a.get(col, c);
                    a.set(col, c, a.get(pivot_row, c));
                    a.set(pivot_row, c, tmp);
                }
                b.swap(col, pivot_row);
            }
            let pivot = a.get(col, col);
            for r in col + 1..n {
                let factor = a.get(r, col) / pivot;
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    let v = a.get(r, c) - factor * a.get(col, c);
                    a.set(r, c, v);
                }
                b[r] -= factor * b[col];
            }
        }
        for col in (0..n).rev() {
            let mut acc = b[col];
            for (c, &bc) in b.iter().enumerate().take(n).skip(col + 1) {
                acc -= a.get(col, c) * bc;
            }
            b[col] = acc / a.get(col, col);
        }
        Ok(())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs both LUs on copies of `(a, b)` and requires the same
    /// outcome, the same destroyed matrix and the same solution, bit
    /// for bit. Returns the outcome.
    fn assert_matches_reference(a: &DenseMatrix, b: &[f64]) -> Result<(), usize> {
        let (mut a_new, mut b_new) = (a.clone(), b.to_vec());
        let (mut a_ref, mut b_ref) = (a.clone(), b.to_vec());
        let got = a_new.solve_in_place_indexed(&mut b_new);
        let want = reference_solve(&mut a_ref, &mut b_ref);
        assert_eq!(got, want, "outcome");
        assert_eq!(bits(&a_new.data), bits(&a_ref.data), "factored matrix");
        assert_eq!(bits(&b_new), bits(&b_ref), "solution");
        got
    }

    /// A splitmix64 stream mapped to `[-1, 1)`.
    fn unit(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    #[test]
    fn slice_lu_is_bit_identical_to_the_index_loop() {
        let mut state = 7u64;
        let mut swaps = 0;
        let mut zero_factors = 0;
        for n in 1..=27 {
            for _ in 0..4 {
                // About a third of the entries are exact zeros, so
                // whole elimination rows are skipped; weak diagonals
                // force row swaps.
                let mut a = DenseMatrix::zeros(n, n);
                for r in 0..n {
                    for c in 0..n {
                        let u = unit(&mut state);
                        if u.abs() > 0.33 {
                            a.set(r, c, u * if r == c { 0.2 } else { 1.0 });
                        }
                    }
                }
                let b: Vec<f64> = (0..n).map(|_| unit(&mut state)).collect();
                // Zeros in the first column are exact-zero factors of
                // the first elimination step (its pivot is nonzero).
                zero_factors += (0..n).filter(|&r| a.get(r, 0) == 0.0).count();
                if (1..n).any(|r| a.get(r, 0).abs() > a.get(0, 0).abs()) {
                    swaps += 1;
                }
                let _ = assert_matches_reference(&a, &b);
            }
        }
        assert!(swaps > 50, "row swaps exercised: {swaps}");
        assert!(
            zero_factors > 10,
            "exact-zero entries exercised: {zero_factors}"
        );
    }

    #[test]
    fn slice_lu_reports_the_same_singular_column() {
        // Column 2 is nonzero only in rows 0 and 1, which columns 0
        // and 1 (after a row swap) claim as pivots; rows 2..6 never
        // see an update (their elimination factors are exact zeros),
        // so the rank collapse surfaces exactly at column 2 of 6.
        let rows: [[f64; 6]; 6] = [
            [0.5, 2.0, 1.0, 1.0, 0.0, 3.0],
            [4.0, 1.0, 1.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 2.0, 1.0, 2.0],
            [0.0, 0.0, 0.0, 0.0, 5.0, 1.0],
            [0.0, 0.0, 0.0, 2.0, 1.0, 6.0],
        ];
        let mut a = DenseMatrix::zeros(6, 6);
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                a.set(r, c, v);
            }
        }
        let b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let outcome = assert_matches_reference(&a, &b);
        assert_eq!(outcome, Err(2), "fails at a middle column");
    }

    proptest! {
        #[test]
        fn solve_then_multiply_round_trips(
            vals in proptest::collection::vec(-5.0f64..5.0, 16),
            rhs in proptest::collection::vec(-10.0f64..10.0, 4),
        ) {
            let n = 4;
            let mut a = DenseMatrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    a.set(r, c, vals[r * n + c]);
                }
                // Diagonal dominance guarantees non-singularity.
                a.add(r, r, 25.0);
            }
            let a_copy = a.clone();
            let mut x = rhs.clone();
            a.solve_in_place(&mut x).unwrap();
            let back = a_copy.matvec(&x);
            for (orig, b) in rhs.iter().zip(&back) {
                prop_assert!((orig - b).abs() < 1e-8);
            }
        }
    }
}
