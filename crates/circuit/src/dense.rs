//! Dense linear algebra: a row-major matrix with LU and Cholesky solves.
//!
//! The full modified-nodal-analysis system of a crossbar netlist is
//! asymmetric once voltage-source branch equations are appended, so the
//! general path is LU with partial pivoting. When the network is reduced to
//! its interior (Dirichlet-eliminated) conductance matrix the system is
//! symmetric positive definite and [`DenseMatrix::cholesky`] is both faster
//! and a good cross-check for the sparse conjugate-gradient path.
//!
//! Matrices of the sizes used by `spinamm` (up to a few thousand unknowns for
//! direct solves) fit comfortably in dense storage; larger parasitic networks
//! go through [`crate::sparse`].

use crate::CircuitError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `rows × cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use spinamm_circuit::dense::DenseMatrix;
///
/// # fn main() -> Result<(), spinamm_circuit::CircuitError> {
/// let mut a = DenseMatrix::zeros(2, 2);
/// a[(0, 0)] = 2.0;
/// a[(0, 1)] = 1.0;
/// a[(1, 0)] = 1.0;
/// a[(1, 1)] = 3.0;
/// let x = a.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major slice.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Result<Self, CircuitError> {
        if data.len() != rows * cols {
            return Err(CircuitError::DimensionMismatch {
                expected: rows * cols,
                found: data.len(),
            });
        }
        Ok(Self {
            rows,
            cols,
            data: data.to_vec(),
        })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Maximum absolute asymmetry `max |a_ij − a_ji|`; zero for symmetric
    /// matrices. Useful for asserting that a reduced conductance matrix is
    /// symmetric before handing it to Cholesky or CG.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn asymmetry(&self) -> f64 {
        assert!(self.is_square(), "asymmetry requires a square matrix");
        let mut worst = 0.0_f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DimensionMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, CircuitError> {
        if x.len() != self.cols {
            return Err(CircuitError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        Ok(y)
    }

    /// Solves `A·x = b` by LU factorization with partial pivoting.
    ///
    /// The matrix is copied; repeated solves against the same matrix should
    /// use [`DenseMatrix::lu`] once and [`LuFactors::solve`] per right-hand
    /// side.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::DimensionMismatch`] if the matrix is not square or
    ///   `b.len() != rows`.
    /// * [`CircuitError::SingularSystem`] if a pivot underflows.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, CircuitError> {
        self.lu()?.solve(b)
    }

    /// Computes the LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::DimensionMismatch`] if the matrix is not square.
    /// * [`CircuitError::SingularSystem`] if a pivot underflows.
    pub fn lu(&self) -> Result<LuFactors, CircuitError> {
        if !self.is_square() {
            return Err(CircuitError::DimensionMismatch {
                expected: self.rows,
                found: self.cols,
            });
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        // Scale factors for implicit scaled partial pivoting: row equilibration
        // matters because crossbar MNA rows mix µS memristor conductances with
        // unit voltage-source entries.
        let mut scale = vec![0.0_f64; n];
        for i in 0..n {
            let big = lu[i * n..(i + 1) * n]
                .iter()
                .fold(0.0_f64, |m, v| m.max(v.abs()));
            if big == 0.0 {
                return Err(CircuitError::SingularSystem { pivot: i });
            }
            scale[i] = 1.0 / big;
        }

        for k in 0..n {
            // Pivot search over rows k..n.
            let mut best = k;
            let mut best_val = scale[k] * lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = scale[i] * lu[i * n + k].abs();
                if v > best_val {
                    best_val = v;
                    best = i;
                }
            }
            if best != k {
                for j in 0..n {
                    lu.swap(k * n + j, best * n + j);
                }
                perm.swap(k, best);
                scale.swap(k, best);
            }
            let pivot = lu[k * n + k];
            if pivot.abs() < f64::MIN_POSITIVE * 1e4 {
                return Err(CircuitError::SingularSystem { pivot: k });
            }
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        lu[i * n + j] -= factor * lu[k * n + j];
                    }
                }
            }
        }

        Ok(LuFactors { n, lu, perm })
    }

    /// Computes the Cholesky factor `L` (lower triangular, `A = L·Lᵀ`) of a
    /// symmetric positive definite matrix. Only the lower triangle of `self`
    /// is read.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::DimensionMismatch`] if the matrix is not square.
    /// * [`CircuitError::SingularSystem`] if the matrix is not positive
    ///   definite (a diagonal pivot becomes non-positive).
    pub fn cholesky(&self) -> Result<CholeskyFactor, CircuitError> {
        if !self.is_square() {
            return Err(CircuitError::DimensionMismatch {
                expected: self.rows,
                found: self.cols,
            });
        }
        let n = self.rows;
        let mut l = vec![0.0_f64; n * n];
        for j in 0..n {
            let mut diag = self[(j, j)];
            for k in 0..j {
                diag -= l[j * n + k] * l[j * n + k];
            }
            if diag <= 0.0 {
                return Err(CircuitError::SingularSystem { pivot: j });
            }
            let djj = diag.sqrt();
            l[j * n + j] = djj;
            for i in (j + 1)..n {
                let mut v = self[(i, j)];
                for k in 0..j {
                    v -= l[i * n + k] * l[j * n + k];
                }
                l[i * n + j] = v / djj;
            }
        }
        Ok(CholeskyFactor { n, l })
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.5e}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// LU factorization produced by [`DenseMatrix::lu`].
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Packed L (unit diagonal, below) and U (on/above diagonal).
    lu: Vec<f64>,
    /// `perm[k]` is the original row now in position `k`.
    perm: Vec<usize>,
}

impl LuFactors {
    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DimensionMismatch`] if `b.len()` differs from
    /// the factored dimension.
    #[allow(clippy::needless_range_loop)] // indexed triangular solves read clearer
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, CircuitError> {
        let n = self.n;
        if b.len() != n {
            return Err(CircuitError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        // Apply permutation, then forward- and back-substitute.
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
}

/// Cholesky factor produced by [`DenseMatrix::cholesky`].
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    n: usize,
    l: Vec<f64>,
}

impl CholeskyFactor {
    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` using the stored factor (`L·Lᵀ·x = b`).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DimensionMismatch`] if `b.len()` differs from
    /// the factored dimension.
    #[allow(clippy::needless_range_loop)] // indexed triangular solves read clearer
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, CircuitError> {
        let n = self.n;
        if b.len() != n {
            return Err(CircuitError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        let mut x = b.to_vec();
        self.solve_into(&mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` in place: `x` holds `b` on entry and the solution on
    /// exit. No allocation; the arithmetic is identical to
    /// [`CholeskyFactor::solve`], so results are bit-for-bit the same.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DimensionMismatch`] if `x.len()` differs from
    /// the factored dimension.
    #[allow(clippy::needless_range_loop)] // indexed triangular solves read clearer
    pub fn solve_into(&self, x: &mut [f64]) -> Result<(), CircuitError> {
        let n = self.n;
        if x.len() != n {
            return Err(CircuitError::DimensionMismatch {
                expected: n,
                found: x.len(),
            });
        }
        // Forward: L·y = b.
        for i in 0..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.l[i * n + j] * x[j];
            }
            x[i] = s / self.l[i * n + i];
        }
        // Backward: Lᵀ·x = y.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.l[j * n + i] * x[j];
            }
            x[i] = s / self.l[i * n + i];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &DenseMatrix, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .unwrap()
            .iter()
            .zip(b)
            .map(|(ax, bi)| (ax - bi).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn identity_solve_is_identity() {
        let a = DenseMatrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = a.solve(&b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn lu_solves_general_system() {
        let a = DenseMatrix::from_rows(3, 3, &[2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0])
            .unwrap();
        let b = [8.0, -11.0, -3.0];
        let x = a.solve(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn lu_handles_zero_leading_pivot() {
        // Requires pivoting: a11 = 0.
        let a = DenseMatrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn lu_detects_singular() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]).unwrap();
        match a.solve(&[1.0, 2.0]) {
            Err(CircuitError::SingularSystem { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
        let zero = DenseMatrix::zeros(3, 3);
        assert!(matches!(
            zero.solve(&[0.0; 3]),
            Err(CircuitError::SingularSystem { .. })
        ));
    }

    #[test]
    fn lu_badly_scaled_rows() {
        // Rows differing by 9 orders of magnitude — scaled pivoting must cope,
        // as MNA matrices mix µS conductances with unit source stamps.
        let a = DenseMatrix::from_rows(2, 2, &[1e-9, 2e-9, 1.0, -1.0]).unwrap();
        let b = [3e-9, 0.0];
        let x = a.solve(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lu_factors_reusable_across_rhs() {
        let a = DenseMatrix::from_rows(2, 2, &[4.0, 1.0, 1.0, 3.0]).unwrap();
        let lu = a.lu().unwrap();
        assert_eq!(lu.dim(), 2);
        for b in [[1.0, 0.0], [0.0, 1.0], [5.0, -2.0]] {
            let x = lu.solve(&b).unwrap();
            assert!(residual(&a, &x, &b) < 1e-12);
        }
    }

    #[test]
    fn cholesky_matches_lu_on_spd() {
        let a =
            DenseMatrix::from_rows(3, 3, &[4.0, 1.0, 0.5, 1.0, 5.0, 1.5, 0.5, 1.5, 6.0]).unwrap();
        assert_eq!(a.asymmetry(), 0.0);
        let b = [1.0, 2.0, 3.0];
        let x_lu = a.solve(&b).unwrap();
        let x_ch = a.cholesky().unwrap().solve(&b).unwrap();
        for (u, v) in x_lu.iter().zip(&x_ch) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_solve_into_bit_matches_solve() {
        let a =
            DenseMatrix::from_rows(3, 3, &[4.0, 1.0, 0.5, 1.0, 5.0, 1.5, 0.5, 1.5, 6.0]).unwrap();
        let ch = a.cholesky().unwrap();
        let rhs = [[1.0, 2.0, 3.0], [-0.5, 0.25, 7.0], [1e-9, 2e3, -4.0]];

        // solve_into is bit-identical to solve.
        for b in &rhs {
            let reference = ch.solve(b).unwrap();
            let mut x = b.to_vec();
            ch.solve_into(&mut x).unwrap();
            assert_eq!(x, reference);
        }

        // Dimension errors.
        assert!(matches!(
            ch.solve_into(&mut [0.0; 2]),
            Err(CircuitError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(
            a.cholesky(),
            Err(CircuitError::SingularSystem { .. })
        ));
    }

    #[test]
    fn dimension_errors() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(CircuitError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            a.matvec(&[1.0, 2.0]),
            Err(CircuitError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            DenseMatrix::from_rows(2, 2, &[1.0]),
            Err(CircuitError::DimensionMismatch { .. })
        ));
        let spd = DenseMatrix::identity(2);
        let ch = spd.cholesky().unwrap();
        assert!(matches!(
            ch.solve(&[1.0]),
            Err(CircuitError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matvec_matches_manual() {
        let a = DenseMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = a.matvec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![6.0, 15.0]);
    }

    #[test]
    fn display_formats_all_entries() {
        let a = DenseMatrix::identity(2);
        let s = a.to_string();
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = DenseMatrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }
}
