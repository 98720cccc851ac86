//! Matrix functions of symmetric matrices via eigendecomposition.
//!
//! These are the "exact" reference implementations: `exp(A)`, `A^{1/2}`,
//! `A^{-1/2}` (pseudo-inverse on the range, as Appendix A needs for
//! `C^{-1/2}`), and the dense→factorized conversion `A = QQᵀ` that feeds
//! Theorem 4.1's vector engines.

use crate::eigen::{sym_eigen, SymEigen};
use crate::error::LinalgError;
use crate::mat::Mat;

/// `exp(A)` for symmetric `A`, via eigendecomposition (Section 2.1
/// definition: `f(A) = Σ f(λᵢ) vᵢvᵢᵀ`).
pub fn expm(a: &Mat) -> Result<Mat, LinalgError> {
    Ok(sym_eigen(a)?.apply_fn(f64::exp))
}

/// Moore–Penrose inverse square root of a PSD matrix: eigenvalues below
/// `rank_tol * λmax` are treated as zero and inverted to zero. This is
/// exactly what Appendix A needs: the paper treats `C` "as having full rank"
/// after restricting to its support, and `A^{-1/2}` on the support is the
/// pseudo-inverse square root.
pub fn inv_sqrt_psd(a: &Mat, rank_tol: f64) -> Result<Mat, LinalgError> {
    let eig = sym_eigen(a)?;
    check_psd_spectrum(&eig, rank_tol)?;
    let lam_max = eig.lambda_max().max(0.0);
    let cut = rank_tol * lam_max.max(1e-300);
    Ok(eig.apply_fn(|x| if x > cut { 1.0 / x.sqrt() } else { 0.0 }))
}

/// Factor a PSD matrix as `A = Q Qᵀ` with `Q = [√λᵢ vᵢ]` over eigenvalues
/// above `rank_tol * λmax`. Returns the `m × r` factor (r = numerical rank).
///
/// This is the preprocessing step of Section 1.2 ("we can add a preprocessing
/// step that factors each Aᵢ") realized with an eigendecomposition, which is
/// also rank-revealing — important because application constraint matrices
/// are typically very low rank (rank 1–2 for beamforming/ellipse instances).
pub fn psd_factor(a: &Mat, rank_tol: f64) -> Result<Mat, LinalgError> {
    let eig = sym_eigen(a)?;
    check_psd_spectrum(&eig, rank_tol)?;
    let m = a.nrows();
    let lam_max = eig.lambda_max().max(0.0);
    let cut = rank_tol * lam_max.max(1e-300);
    let keep: Vec<usize> = (0..m).filter(|&j| eig.values[j] > cut && eig.values[j] > 0.0).collect();
    let mut q = Mat::zeros(m, keep.len().max(1));
    for (c, &j) in keep.iter().enumerate() {
        let s = eig.values[j].sqrt();
        for i in 0..m {
            q[(i, c)] = s * eig.vectors[(i, j)];
        }
    }
    Ok(q)
}

/// Validate that a spectrum is PSD up to `tol * max(1, λmax)` of negative
/// noise.
fn check_psd_spectrum(eig: &SymEigen, tol: f64) -> Result<(), LinalgError> {
    if eig.values.is_empty() {
        return Ok(());
    }
    let scale = eig.lambda_max().abs().max(1.0);
    let lmin = eig.lambda_min();
    if lmin < -tol.max(1e-10) * scale {
        return Err(LinalgError::NotPositiveDefinite { index: 0, pivot: lmin });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    #[test]
    fn expm_zero_is_identity() {
        let e = expm(&Mat::zeros(4, 4)).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((e[(i, j)] - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn expm_diagonal() {
        let a = Mat::from_diag(&[0.0, 1.0, 2.0]);
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((e[(1, 1)] - 1.0_f64.exp()).abs() < 1e-12);
        assert!((e[(2, 2)] - 2.0_f64.exp()).abs() < 1e-10);
        assert!(e[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn expm_commutes_with_similarity() {
        // exp of 2x2 rotationally-mixed matrix vs known closed form:
        // A = [[a, b], [b, a]] has eigenvalues a±b with eigenvectors
        // (1,1)/√2, (1,-1)/√2, so exp(A)_00 = (e^{a+b} + e^{a-b})/2.
        let (a, b) = (0.3, 0.7);
        let m = Mat::from_rows(&[&[a, b], &[b, a]]);
        let e = expm(&m).unwrap();
        let want00 = 0.5 * ((a + b).exp() + (a - b).exp());
        let want01 = 0.5 * ((a + b).exp() - (a - b).exp());
        assert!((e[(0, 0)] - want00).abs() < 1e-12);
        assert!((e[(0, 1)] - want01).abs() < 1e-12);
    }

    #[test]
    fn sqrt_of_square() {
        let mut a = Mat::from_fn(5, 5, |i, j| ((i + j) % 4) as f64 * 0.2);
        a.symmetrize();
        let aa = matmul(&a, &a); // PSD by construction
        let s = sym_eigen(&aa).unwrap().apply_fn(|x| x.max(0.0).sqrt());
        let ss = matmul(&s, &s);
        for i in 0..5 {
            for j in 0..5 {
                assert!((ss[(i, j)] - aa[(i, j)]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn inv_sqrt_full_rank() {
        let a = Mat::from_diag(&[4.0, 9.0, 16.0]);
        let s = inv_sqrt_psd(&a, 1e-12).unwrap();
        assert!((s[(0, 0)] - 0.5).abs() < 1e-12);
        assert!((s[(1, 1)] - 1.0 / 3.0).abs() < 1e-12);
        assert!((s[(2, 2)] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn inv_sqrt_pseudo_inverse_on_rank_deficient() {
        // C = diag(4, 0): pseudo-inverse-sqrt is diag(1/2, 0).
        let a = Mat::from_diag(&[4.0, 0.0]);
        let s = inv_sqrt_psd(&a, 1e-9).unwrap();
        assert!((s[(0, 0)] - 0.5).abs() < 1e-12);
        assert!(s[(1, 1)].abs() < 1e-12);
    }

    #[test]
    fn psd_factor_reconstructs_and_reveals_rank() {
        // Rank-2 PSD matrix in R^4.
        let mut a = Mat::zeros(4, 4);
        a.rank1_update(2.0, &[1.0, 0.0, 1.0, 0.0]);
        a.rank1_update(3.0, &[0.0, 1.0, -1.0, 2.0]);
        let q = psd_factor(&a, 1e-9).unwrap();
        assert_eq!(q.ncols(), 2, "numerical rank should be 2");
        let rec = matmul(&q, &q.transpose());
        for i in 0..4 {
            for j in 0..4 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn funcs_reject_indefinite() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]); // eigenvalues ±1
        assert!(inv_sqrt_psd(&a, 1e-9).is_err());
        assert!(psd_factor(&a, 1e-9).is_err());
    }
}
