//! Dense linear algebra: a row-major matrix with a Cholesky solve.
//!
//! Every netlist is solved on its Dirichlet-reduced (clamped nodes
//! eliminated) conductance matrix, which is symmetric positive definite, so
//! [`DenseMatrix::cholesky`] is the one dense factorization: the cold
//! reference solve, the prepared system's small-network backend and the
//! transient analysis all use it, and it cross-checks the sparse
//! conjugate-gradient path.
//!
//! Matrices of the sizes solved directly (up to several hundred unknowns)
//! fit comfortably in dense storage; larger parasitic networks go through
//! [`crate::sparse`].

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
/// let x = a.cholesky()?.solve(&[3.0, 5.0])?;
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
        let x = a.cholesky().unwrap().solve(&b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn cholesky_matches_lu_on_spd() {
        // Solves to a known solution: b = A·x for x = (1, −2, 0.5).
        let a =
            DenseMatrix::from_rows(3, 3, &[4.0, 1.0, 0.5, 1.0, 5.0, 1.5, 0.5, 1.5, 6.0]).unwrap();
        assert_eq!(a.asymmetry(), 0.0);
        let want = [1.0, -2.0, 0.5];
        let b = a.matvec(&want).unwrap();
        assert_eq!(b, vec![2.25, -8.25, 0.5]);
        let x = a.cholesky().unwrap().solve(&b).unwrap();
        for (u, v) in x.iter().zip(&want) {
            assert!((u - v).abs() < 1e-12);
        }
        assert!(residual(&a, &x, &b) < 1e-12);
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
            a.cholesky(),
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
