//! Cholesky factorization `A = L Lᵀ` for symmetric positive definite input,
//! plus a pivoted-free PSD variant used to factor constraint matrices.
//!
//! The solver pipeline uses Cholesky in two places: (1) as a cheap
//! positive-definiteness certificate in tests and verifiers, and (2) to turn
//! dense PSD constraint matrices into the factorized form `A = QQᵀ` that the
//! vector engines (Theorem 4.1) consume when an eigendecomposition would be
//! overkill.

use crate::error::LinalgError;
use crate::mat::Mat;

/// Lower-triangular Cholesky factor of a symmetric positive definite matrix.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor; entries above the diagonal are zero.
    pub l: Mat,
}

impl Cholesky {
    /// Solve `A x = b` using the factorization (forward + back substitution).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.nrows();
        assert_eq!(b.len(), n, "cholesky solve: dim mismatch");
        // Forward: L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for (j, &yj) in y.iter().enumerate().take(i) {
                s -= self.l[(i, j)] * yj;
            }
            y[i] = s / self.l[(i, i)];
        }
        // Backward: L^T x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                s -= self.l[(j, i)] * xj;
            }
            x[i] = s / self.l[(i, i)];
        }
        x
    }
}

/// Factor a symmetric positive **definite** matrix.
///
/// # Errors
/// [`LinalgError::NotPositiveDefinite`] if a pivot is `≤ 0` (up to a tiny
/// relative tolerance), [`LinalgError::NotSquare`]/[`NotFinite`] on malformed
/// input.
///
/// [`NotFinite`]: LinalgError::NotFinite
pub fn cholesky(a: &Mat) -> Result<Cholesky, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
    }
    if !a.all_finite() {
        return Err(LinalgError::NotFinite);
    }
    let n = a.nrows();
    let mut l = Mat::zeros(n, n);
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { index: j, pivot: d });
        }
        let djj = d.sqrt();
        l[(j, j)] = djj;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / djj;
        }
    }
    Ok(Cholesky { l })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    #[test]
    fn cholesky_known_3x3() {
        // Classic SPD example.
        let a = Mat::from_rows(&[&[4.0, 12.0, -16.0], &[12.0, 37.0, -43.0], &[-16.0, -43.0, 98.0]]);
        let c = cholesky(&a).unwrap();
        let want = Mat::from_rows(&[&[2.0, 0.0, 0.0], &[6.0, 1.0, 0.0], &[-8.0, 5.0, 3.0]]);
        for i in 0..3 {
            for j in 0..3 {
                assert!((c.l[(i, j)] - want[(i, j)]).abs() < 1e-12);
            }
        }
        // L L^T reconstructs A.
        let rec = matmul(&c.l, &c.l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn cholesky_solve() {
        let a = Mat::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let c = cholesky(&a).unwrap();
        let x = c.solve(&[8.0, 7.0]);
        // Verify A x = b.
        let b2 = crate::gemm::matvec(&a, &x);
        assert!((b2[0] - 8.0).abs() < 1e-12);
        assert!((b2[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(cholesky(&a), Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn psd_test_accepts_semidefinite_with_shift() {
        // Rank-1 PSD matrix is not PD, but passes with a tolerance shift.
        let mut a = Mat::zeros(3, 3);
        a.rank1_update(1.0, &[1.0, 1.0, 1.0]);
        assert!(cholesky(&a).is_err());
        let mut shifted = a.clone();
        shifted.add_diag(1e-10);
        assert!(cholesky(&shifted).is_ok());
        // A clearly indefinite matrix still fails.
        let mut b = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        b.add_diag(1e-10);
        assert!(cholesky(&b).is_err());
    }
}
