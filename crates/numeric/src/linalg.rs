//! Small dense linear algebra: LU solve, complex LU solve, and
//! Householder-QR least squares.
//!
//! The problems in this workspace are tiny (moment-matching systems of order
//! q ≤ 8, curve fits with a handful of parameters), so clarity and
//! correctness win over blocking/SIMD.

use crate::{Complex64, NumericError};

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use rlc_numeric::linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let x = m.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// # Ok::<(), rlc_numeric::NumericError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero-filled matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the rows have uneven
    /// lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, NumericError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        if nrows == 0 || ncols == 0 {
            return Err(NumericError::DimensionMismatch {
                context: "matrix must have at least one row and column",
            });
        }
        if rows.iter().any(|r| r.len() != ncols) {
            return Err(NumericError::DimensionMismatch {
                context: "all rows must have the same length",
            });
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length must match columns");
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self[(i, j)] * x[j]).sum())
            .collect()
    }

    /// Solves the square system `A·x = b` by LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `A` is not square or `b` has
    ///   the wrong length.
    /// * [`NumericError::SingularMatrix`] if a pivot underflows.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        if self.rows != self.cols {
            return Err(NumericError::DimensionMismatch {
                context: "LU solve requires a square matrix",
            });
        }
        if b.len() != self.rows {
            return Err(NumericError::DimensionMismatch {
                context: "right-hand side length must match matrix order",
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        // Forward elimination with partial pivoting.
        for k in 0..n {
            let mut piv = k;
            let mut max = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > max {
                    max = v;
                    piv = i;
                }
            }
            if max < f64::MIN_POSITIVE * 16.0 {
                return Err(NumericError::SingularMatrix { pivot: k });
            }
            if piv != k {
                for j in 0..n {
                    a.swap(k * n + j, piv * n + j);
                }
                x.swap(k, piv);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let factor = a[i * n + k] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for j in k..n {
                    a[i * n + j] -= factor * a[k * n + j];
                }
                x[i] -= factor * x[k];
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            let mut s = x[k];
            for j in (k + 1)..n {
                s -= a[k * n + j] * x[j];
            }
            x[k] = s / a[k * n + k];
        }
        Ok(x)
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂` by Householder QR.
    ///
    /// Requires `rows ≥ cols` (an over- or exactly-determined system).
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] for under-determined shapes or a
    ///   wrong-length `b`.
    /// * [`NumericError::SingularMatrix`] if `A` is rank deficient.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlc_numeric::linalg::Matrix;
    /// // Fit y = c0 + c1·x to 3 points on the line y = 1 + 2x.
    /// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]])?;
    /// let c = a.solve_least_squares(&[1.0, 3.0, 5.0])?;
    /// assert!((c[0] - 1.0).abs() < 1e-12 && (c[1] - 2.0).abs() < 1e-12);
    /// # Ok::<(), rlc_numeric::NumericError>(())
    /// ```
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let (m, n) = (self.rows, self.cols);
        if m < n {
            return Err(NumericError::DimensionMismatch {
                context: "least squares requires rows >= cols",
            });
        }
        if b.len() != m {
            return Err(NumericError::DimensionMismatch {
                context: "right-hand side length must match row count",
            });
        }
        let mut r = self.data.clone();
        let mut y: Vec<f64> = b.to_vec();
        // Householder QR applied simultaneously to R and y.
        for k in 0..n {
            let mut norm = 0.0f64;
            for i in k..m {
                norm = norm.hypot(r[i * n + k]);
            }
            if norm == 0.0 {
                return Err(NumericError::SingularMatrix { pivot: k });
            }
            let alpha = -norm.copysign(r[k * n + k]);
            // v = x − alpha·e1 (stored in-place, v[k..m])
            let mut v: Vec<f64> = (k..m).map(|i| r[i * n + k]).collect();
            v[0] -= alpha;
            let vnorm_sq: f64 = v.iter().map(|t| t * t).sum();
            if vnorm_sq > 0.0 {
                // Apply H = I − 2vvᵀ/‖v‖² to remaining columns and to y.
                for j in k..n {
                    let dot: f64 = (k..m).map(|i| v[i - k] * r[i * n + j]).sum();
                    let scale = 2.0 * dot / vnorm_sq;
                    for i in k..m {
                        r[i * n + j] -= scale * v[i - k];
                    }
                }
                let dot: f64 = (k..m).map(|i| v[i - k] * y[i]).sum();
                let scale = 2.0 * dot / vnorm_sq;
                for i in k..m {
                    y[i] -= scale * v[i - k];
                }
            }
            r[k * n + k] = alpha;
            for i in (k + 1)..m {
                r[i * n + k] = 0.0;
            }
        }
        // Back substitution on the upper-triangular R (n×n block). Rank
        // deficiency shows up as a diagonal entry that is tiny *relative* to
        // the largest diagonal magnitude.
        let max_diag = (0..n).map(|k| r[k * n + k].abs()).fold(0.0f64, f64::max);
        let threshold = max_diag * 1e-12 + f64::MIN_POSITIVE * 16.0;
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut s = y[k];
            for j in (k + 1)..n {
                s -= r[k * n + j] * x[j];
            }
            let d = r[k * n + k];
            if d.abs() < threshold {
                return Err(NumericError::SingularMatrix { pivot: k });
            }
            x[k] = s / d;
        }
        Ok(x)
    }
}

impl Matrix {
    /// Factors the square matrix as `P·A = L·U`, allowing many right-hand
    /// sides to be solved in O(n²) each (used by the transient simulator,
    /// which solves the same system every time step).
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if the matrix is not square.
    /// * [`NumericError::SingularMatrix`] if a pivot underflows.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlc_numeric::linalg::Matrix;
    /// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]])?;
    /// let lu = a.lu()?;
    /// let x = lu.solve(&[10.0, 12.0])?;
    /// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    /// # Ok::<(), rlc_numeric::NumericError>(())
    /// ```
    pub fn lu(&self) -> Result<LuDecomposition, NumericError> {
        if self.rows != self.cols {
            return Err(NumericError::DimensionMismatch {
                context: "LU factorization requires a square matrix",
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut piv = k;
            let mut max = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > max {
                    max = v;
                    piv = i;
                }
            }
            if max < f64::MIN_POSITIVE * 16.0 {
                return Err(NumericError::SingularMatrix { pivot: k });
            }
            if piv != k {
                for j in 0..n {
                    a.swap(k * n + j, piv * n + j);
                }
                perm.swap(k, piv);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let factor = a[i * n + k] / pivot;
                a[i * n + k] = factor; // store L below the diagonal
                if factor == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    a[i * n + j] -= factor * a[k * n + j];
                }
            }
        }
        Ok(LuDecomposition { lu: a, perm, n })
    }
}

/// A reusable LU factorization produced by [`Matrix::lu`].
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    lu: Vec<f64>,
    perm: Vec<usize>,
    n: usize,
}

impl LuDecomposition {
    /// Solves `A·x = b` using the stored factors in O(n²).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b` has the wrong
    /// length.
    #[allow(
        clippy::needless_range_loop,
        reason = "index loops read best in triangular solves"
    )]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let n = self.n;
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                context: "right-hand side length must match matrix order",
            });
        }
        // Apply permutation, then forward/backward substitution. Index
        // loops are the clearest rendering of triangular solves.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.lu[i * n + j] * x[j];
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.lu[i * n + j] * x[j];
            }
            x[i] = s / self.lu[i * n + i];
        }
        Ok(x)
    }

    /// The order of the factored matrix.
    pub fn order(&self) -> usize {
        self.n
    }
}

impl core::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl core::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Solves the complex square system `A·x = b` by LU with partial pivoting.
///
/// Used for residue computation at complex poles (Vandermonde systems).
///
/// # Errors
///
/// Same conditions as [`Matrix::solve`], with pivot magnitude measured by
/// complex modulus.
///
/// # Examples
///
/// ```
/// use rlc_numeric::{Complex64, linalg::solve_complex};
/// let i = Complex64::I;
/// let one = Complex64::ONE;
/// // [2 i; -i 1]·x = [2+i; 1-i] has the solution x = [1; 1].
/// let a = vec![vec![one * 2.0, i], vec![-i, one]];
/// let b = vec![one * 2.0 + i, one - i];
/// let x = solve_complex(&a, &b)?;
/// assert!((x[0] - one).norm() < 1e-12 && (x[1] - one).norm() < 1e-12);
/// # Ok::<(), rlc_numeric::NumericError>(())
/// ```
#[allow(
    clippy::needless_range_loop,
    reason = "index loops read best in elimination kernels"
)]
pub fn solve_complex(
    a: &[Vec<Complex64>],
    b: &[Complex64],
) -> Result<Vec<Complex64>, NumericError> {
    let n = a.len();
    if n == 0 || a.iter().any(|row| row.len() != n) {
        return Err(NumericError::DimensionMismatch {
            context: "complex solve requires a non-empty square matrix",
        });
    }
    if b.len() != n {
        return Err(NumericError::DimensionMismatch {
            context: "right-hand side length must match matrix order",
        });
    }
    let mut m: Vec<Vec<Complex64>> = a.to_vec();
    let mut x: Vec<Complex64> = b.to_vec();
    for k in 0..n {
        let mut piv = k;
        let mut max = m[k][k].norm();
        for (i, row) in m.iter().enumerate().skip(k + 1) {
            let v = row[k].norm();
            if v > max {
                max = v;
                piv = i;
            }
        }
        if max < f64::MIN_POSITIVE * 16.0 {
            return Err(NumericError::SingularMatrix { pivot: k });
        }
        if piv != k {
            m.swap(k, piv);
            x.swap(k, piv);
        }
        let pivot = m[k][k];
        for i in (k + 1)..n {
            let factor = m[i][k] / pivot;
            if factor.norm_sqr() == 0.0 {
                continue;
            }
            for j in k..n {
                let sub = factor * m[k][j];
                m[i][j] -= sub;
            }
            let sub = factor * x[k];
            x[i] -= sub;
        }
    }
    for k in (0..n).rev() {
        let mut s = x[k];
        for j in (k + 1)..n {
            s -= m[k][j] * x[j];
        }
        x[k] = s / m[k][k];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_is_identity() {
        let a = Matrix::identity(4);
        let b = [1.0, -2.0, 3.0, 0.5];
        assert_eq!(a.solve(&b).unwrap(), b.to_vec());
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn solve_3x3_known_solution() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]).unwrap();
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn solve_rejects_bad_shapes() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(NumericError::DimensionMismatch { .. })
        ));
        let sq = Matrix::identity(2);
        assert!(matches!(
            sq.solve(&[1.0]),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_rows_validation() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "vector length")]
    fn mul_vec_panics_on_mismatch() {
        let a = Matrix::identity(2);
        let _ = a.mul_vec(&[1.0]);
    }

    #[test]
    fn residual_small_for_random_system() {
        // Deterministic pseudo-random matrix (LCG) — no rand dependency here.
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let n = 8;
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = next();
            }
            m[(i, i)] += 4.0; // diagonally dominant → well conditioned
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = m.solve(&b).unwrap();
        let r = m.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn least_squares_exact_system() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        let x = a.solve_least_squares(&[4.0, 9.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_overdetermined_line_fit() {
        // y = 2 + 0.5x with symmetric noise that cancels exactly.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let noise = [0.1, -0.1, -0.1, 0.1];
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![1.0, x]).collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&row_refs).unwrap();
        let b: Vec<f64> = xs
            .iter()
            .zip(&noise)
            .map(|(&x, &n)| 2.0 + 0.5 * x + n)
            .collect();
        let c = a.solve_least_squares(&b).unwrap();
        assert!((c[0] - 2.0).abs() < 0.11);
        assert!((c[1] - 0.5).abs() < 0.11);
        // Normal-equation optimality: Aᵀ(Ax − b) = 0.
        let fit = a.mul_vec(&c);
        let resid: Vec<f64> = fit.iter().zip(&b).map(|(f, y)| f - y).collect();
        for j in 0..2 {
            let g: f64 = (0..4).map(|i| a[(i, j)] * resid[i]).sum();
            assert!(g.abs() < 1e-10, "gradient {j} = {g}");
        }
    }

    #[test]
    fn least_squares_rejects_underdetermined() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        assert!(matches!(
            a.solve_least_squares(&[1.0]),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn least_squares_detects_rank_deficiency() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        assert!(matches!(
            a.solve_least_squares(&[1.0, 2.0, 3.0]),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn lu_factor_once_solve_many() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]).unwrap();
        let lu = a.lu().unwrap();
        assert_eq!(lu.order(), 3);
        // Two different right-hand sides against the one-shot solver.
        for b in [[8.0, -11.0, -3.0], [1.0, 0.0, 2.0]] {
            let x_lu = lu.solve(&b).unwrap();
            let x_direct = a.solve(&b).unwrap();
            for (p, q) in x_lu.iter().zip(&x_direct) {
                assert!((p - q).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lu_requires_pivoting_too() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = a.lu().unwrap();
        assert_eq!(lu.solve(&[2.0, 3.0]).unwrap(), vec![3.0, 2.0]);
    }

    #[test]
    fn lu_detects_singularity_and_bad_shapes() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(NumericError::SingularMatrix { .. })));
        let rect = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        assert!(matches!(
            rect.lu(),
            Err(NumericError::DimensionMismatch { .. })
        ));
        let ok = Matrix::identity(2).lu().unwrap();
        assert!(matches!(
            ok.solve(&[1.0]),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn complex_solve_diagonal() {
        let i = Complex64::I;
        let a = vec![
            vec![Complex64::from_real(2.0), Complex64::ZERO],
            vec![Complex64::ZERO, i],
        ];
        let x = solve_complex(&a, &[Complex64::from_real(4.0), i * 3.0]).unwrap();
        assert!((x[0] - Complex64::from_real(2.0)).norm() < 1e-14);
        assert!((x[1] - Complex64::from_real(3.0)).norm() < 1e-14);
    }

    #[test]
    fn complex_solve_vandermonde_residues() {
        // Residue-style system: sum of r_k over poles matches moments.
        let p1 = Complex64::new(-1.0, 2.0);
        let p2 = p1.conj();
        let a = vec![vec![Complex64::ONE, Complex64::ONE], vec![p1, p2]];
        let b = vec![Complex64::from_real(2.0), Complex64::from_real(-2.0)];
        let x = solve_complex(&a, &b).unwrap();
        // Solution must be a conjugate pair.
        assert!((x[0] - x[1].conj()).norm() < 1e-12);
        assert!(((x[0] + x[1]) - Complex64::from_real(2.0)).norm() < 1e-12);
    }

    #[test]
    fn complex_solve_errors() {
        assert!(solve_complex(&[], &[]).is_err());
        let a = vec![vec![Complex64::ZERO]];
        assert!(matches!(
            solve_complex(&a, &[Complex64::ONE]),
            Err(NumericError::SingularMatrix { .. })
        ));
        let id = vec![vec![Complex64::ONE]];
        assert!(matches!(
            solve_complex(&id, &[]),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }
}
