//! Truncated Taylor approximation of the matrix exponential applied to
//! vector blocks (Lemma 4.2 / Arora–Kale Lemma 6).
//!
//! For PSD `B` with `‖B‖₂ ≤ κ`, the operator
//!
//! ```text
//!   p(B) = Σ_{0 ≤ i < k} Bⁱ/i!,   k = max(⌈e²κ⌉, ⌈ln(2ε⁻¹)⌉)
//! ```
//!
//! satisfies `(1−ε) exp(B) ⪯ p(B) ⪯ exp(B)`. We never materialize `p(B)`:
//! the engines apply it to a block `X` with the forward recurrence
//! `T₀ = X`, `T_{j+1} = B·T_j/(j+1)`, `p(B)X = Σ T_j`, costing `k` operator
//! applications. All Taylor terms of a PSD argument are PSD, so the series
//! has no sign cancellation in the spectral sense.

use crate::mat::Mat;
use crate::op::SymOp;

/// Degree rule of Lemma 4.2: `k = max(⌈e²κ⌉, ⌈ln(2/ε)⌉)`, at least 1.
///
/// `kappa` must be an upper bound on `‖B‖₂`; `eps ∈ (0,1)` is the allowed
/// one-sided relative error.
pub fn taylor_degree(kappa: f64, eps: f64) -> usize {
    assert!(eps > 0.0 && eps < 1.0, "taylor_degree: eps must be in (0,1)");
    assert!(kappa >= 0.0 && kappa.is_finite(), "taylor_degree: bad kappa {kappa}");
    let e2k = (std::f64::consts::E * std::f64::consts::E * kappa).ceil();
    let log_term = (2.0 / eps).ln().ceil();
    (e2k.max(log_term) as usize).max(1)
}

/// Apply `p(B) = Σ_{i<k} Bⁱ/i!` to the block `x` (`dim × r`).
///
/// Returns `p(B)·x`. `degree` is the number of terms `k` (so `degree = 1`
/// returns `x` itself).
pub fn apply_exp_taylor_block(op: &dyn SymOp, x: &Mat, degree: usize) -> Mat {
    assert!(degree >= 1, "need at least the constant term");
    assert_eq!(x.nrows(), op.dim(), "apply_exp_taylor_block: dim mismatch");
    let mut acc = x.clone();
    let mut term = x.clone();
    for j in 1..degree {
        term = op.apply_block(&term);
        term.scale(1.0 / j as f64);
        acc.axpy(1.0, &term);
    }
    acc
}

/// Materialize `p(B)` as a dense matrix by applying it to the identity.
/// Only used by tests and the no-sketch Taylor engine at small `m`.
pub fn exp_taylor_dense(op: &dyn SymOp, degree: usize) -> Mat {
    apply_exp_taylor_block(op, &Mat::identity(op.dim()), degree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::sym_eigen;
    use crate::funcs::expm;

    #[test]
    fn degree_rule_matches_lemma() {
        // kappa large: e^2 * kappa dominates.
        let k = taylor_degree(10.0, 0.5);
        assert_eq!(k, (std::f64::consts::E * std::f64::consts::E * 10.0).ceil() as usize);
        // kappa ~ 0: log term dominates.
        let k = taylor_degree(0.0, 1e-6);
        assert_eq!(k, (2e6_f64).ln().ceil() as usize);
        assert!(taylor_degree(0.0, 0.9) >= 1);
    }

    #[test]
    fn degree_one_is_identity_operator() {
        let b = Mat::from_diag(&[1.0, 2.0]);
        let x = Mat::from_rows(&[&[1.0], &[1.0]]);
        let y = apply_exp_taylor_block(&b, &x, 1);
        assert_eq!(y[(0, 0)], 1.0);
        assert_eq!(y[(1, 0)], 1.0);
    }

    #[test]
    fn taylor_approximates_exp_scalar_case() {
        // 1x1 matrix: p(b) must sit in [(1-eps) e^b, e^b].
        for &bval in &[0.0, 0.5, 1.0, 3.0, 6.0] {
            for &eps in &[0.3, 0.1, 0.01] {
                let b = Mat::from_diag(&[bval]);
                let k = taylor_degree(bval, eps);
                let p = exp_taylor_dense(&b, k)[(0, 0)];
                let truth = bval.exp();
                assert!(p <= truth * (1.0 + 1e-12), "p {p} > exp {truth}");
                assert!(p >= truth * (1.0 - eps), "p {p} < (1-eps) exp {truth}");
            }
        }
    }

    #[test]
    fn taylor_spectral_sandwich_psd_matrix() {
        // Random-ish PSD matrix with ||B|| <= kappa: check the Loewner
        // sandwich (1-eps) exp(B) <= p(B) <= exp(B) via eigenvalues of the
        // differences.
        let mut b = Mat::from_fn(6, 6, |i, j| ((i * 5 + j * 3) % 7) as f64 * 0.1);
        b.symmetrize();
        // Shift to PSD.
        let eig = sym_eigen(&b).unwrap();
        b.add_diag(-eig.lambda_min().min(0.0) + 0.05);
        let kappa = sym_eigen(&b).unwrap().lambda_max();
        let eps = 0.1;
        let k = taylor_degree(kappa, eps);
        let p = exp_taylor_dense(&b, k);
        let e = expm(&b).unwrap();

        // exp(B) - p(B) should be PSD.
        let mut diff_hi = e.sub(&p);
        diff_hi.symmetrize();
        let lmin_hi = sym_eigen(&diff_hi).unwrap().lambda_min();
        assert!(lmin_hi > -1e-8 * e.max_abs(), "p(B) exceeded exp(B): {lmin_hi}");

        // p(B) - (1-eps) exp(B) should be PSD.
        let mut diff_lo = p.sub(&e.scaled(1.0 - eps));
        diff_lo.symmetrize();
        let lmin_lo = sym_eigen(&diff_lo).unwrap().lambda_min();
        assert!(lmin_lo > -1e-8 * e.max_abs(), "p(B) below (1-eps) exp(B): {lmin_lo}");
    }

    #[test]
    fn block_and_vec_agree() {
        let mut b = Mat::from_fn(5, 5, |i, j| ((i + j) % 3) as f64 * 0.2);
        b.symmetrize();
        b.add_diag(1.0);
        let x = Mat::from_fn(5, 2, |i, j| (i + 2 * j) as f64 * 0.1);
        let y = apply_exp_taylor_block(&b, &x, 8);
        for j in 0..2 {
            let col = Mat::from_fn(5, 1, |i, _| x[(i, j)]);
            let yv = apply_exp_taylor_block(&b, &col, 8);
            for i in 0..5 {
                assert!((y[(i, j)] - yv[(i, 0)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn half_exponent_squares_to_full() {
        // exp(B) = exp(B/2)^2; with enough terms the Taylor approximations
        // agree to high accuracy. This is the identity Theorem 4.1 exploits.
        let b = Mat::from_diag(&[0.3, 1.1, 2.0]);
        let half = b.scaled(0.5);
        let k = taylor_degree(2.0, 1e-10);
        let ph = exp_taylor_dense(&half, k);
        let sq = crate::gemm::matmul(&ph, &ph);
        let e = expm(&b).unwrap();
        for i in 0..3 {
            assert!((sq[(i, i)] - e[(i, i)]).abs() / e[(i, i)] < 1e-6);
        }
    }
}
