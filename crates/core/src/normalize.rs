//! Appendix A: normalization of a general positive SDP to the Figure 2 form.
//!
//! Given the primal `min C•Y` s.t. `Aᵢ•Y ≥ bᵢ`, `Y ⪰ 0`, define
//! `Bᵢ = (1/bᵢ) C^{-1/2} Aᵢ C^{-1/2}`; then `min Tr Z` s.t. `Bᵢ•Z ≥ 1` has
//! the same optimum under the substitution `Z = C^{1/2} Y C^{1/2}`.
//!
//! Two edge cases the paper dispatches in prose, handled explicitly here:
//!
//! * `bᵢ = 0` constraints are vacuous (any PSD `Y` satisfies them) and are
//!   dropped; their indices are recorded.
//! * Constraints with mass outside the support of `C` force the
//!   corresponding dual variable to 0 ("we know that the corresponding dual
//!   variable must be set to 0 and therefore can be removed"); we detect
//!   them via the projector onto `range(C)` and drop them, recording the
//!   indices. `C^{-1/2}` is the Moore–Penrose inverse square root on the
//!   support, so the remaining algebra goes through unchanged.

use crate::error::PsdpError;
use crate::instance::{PackingInstance, PositiveSdp};
use psdp_linalg::{inv_sqrt_psd, matmul, Mat};
use psdp_sparse::{Csr, PsdMatrix};

/// Output of normalization: the packing/covering instance plus the data
/// needed to map solutions back to the original program.
#[derive(Debug, Clone)]
pub struct Normalized {
    /// The normalized instance over the `Bᵢ`.
    pub instance: PackingInstance,
    /// `C^{-1/2}` (pseudo-inverse square root), for mapping `Y = C^{-1/2} Z C^{-1/2}`.
    pub c_inv_sqrt: Mat,
    /// Indices (into the original constraint list) retained, in order.
    pub kept: Vec<usize>,
    /// Original indices dropped because `bᵢ = 0`.
    pub dropped_zero_rhs: Vec<usize>,
    /// Original indices dropped because `Aᵢ` leaves the support of `C`.
    pub dropped_off_support: Vec<usize>,
    /// Right-hand sides of the kept constraints (for mapping duals back:
    /// `λᵢ = xᵢ / bᵢ`).
    pub kept_rhs: Vec<f64>,
}

/// Relative tolerance for the support test `‖(I − Π_C) Aᵢ (I − Π_C)‖`.
const SUPPORT_TOL: f64 = 1e-8;

/// Normalize a general positive SDP (Appendix A).
///
/// # Errors
/// Validation failures, a non-PSD objective, or an instance where *every*
/// constraint is dropped.
pub fn normalize(sdp: &PositiveSdp) -> Result<Normalized, PsdpError> {
    sdp.validate()?;
    let m = sdp.dim();
    let c_dense = sdp.objective.to_dense();
    let c_inv_sqrt = inv_sqrt_psd(&c_dense, 1e-12)?;

    // Projector onto range(C): Π = C^{1/2}·C^{-1/2} = C·C^{+}… cheapest from
    // the same eigenbasis: Π = c_inv_sqrt · C · c_inv_sqrt.
    let proj = matmul(&matmul(&c_inv_sqrt, &c_dense), &c_inv_sqrt);
    let mut off_support_probe = Mat::identity(m);
    off_support_probe.axpy(-1.0, &proj); // I − Π

    let mut mats = Vec::new();
    let mut kept = Vec::new();
    let mut kept_rhs = Vec::new();
    let mut dropped_zero_rhs = Vec::new();
    let mut dropped_off_support = Vec::new();

    for (i, (a, &b)) in sdp.constraints.iter().zip(&sdp.rhs).enumerate() {
        if b == 0.0 {
            dropped_zero_rhs.push(i);
            continue;
        }
        let a_dense = a.to_dense();
        // Support test: (I−Π) Aᵢ (I−Π) should vanish if Aᵢ lives in range(C).
        let outside = matmul(&matmul(&off_support_probe, &a_dense), &off_support_probe);
        let scale = a_dense.max_abs().max(1e-300);
        if outside.max_abs() > SUPPORT_TOL * scale {
            dropped_off_support.push(i);
            continue;
        }
        // Bᵢ = (1/bᵢ)·C^{-1/2} Aᵢ C^{-1/2}.
        let mut bi = matmul(&matmul(&c_inv_sqrt, &a_dense), &c_inv_sqrt);
        bi.scale(1.0 / b);
        bi.symmetrize();
        // Keep sparsity the conjugation preserved (diagonal C with sparse
        // Aᵢ is the common case): store entry-sparse results in CSR so the
        // solver's incremental Ψ path scatter-adds only real nonzeros.
        // Only exact zeros are dropped — storage never changes values.
        let nnz = bi.as_slice().iter().filter(|&&v| v != 0.0).count();
        if nnz * 4 <= m * m {
            mats.push(PsdMatrix::Sparse(Csr::from_dense(&bi, 0.0)));
        } else {
            mats.push(PsdMatrix::Dense(bi));
        }
        kept.push(i);
        kept_rhs.push(b);
    }

    if mats.is_empty() {
        return Err(PsdpError::InvalidInstance(
            "normalization dropped every constraint (all bᵢ = 0 or off-support)".into(),
        ));
    }
    let instance = PackingInstance::new(mats)?;
    Ok(Normalized { instance, c_inv_sqrt, kept, dropped_zero_rhs, dropped_off_support, kept_rhs })
}

impl Normalized {
    /// Map a normalized primal `Z` back to the original variable
    /// `Y = C^{-1/2} Z C^{-1/2}` (so `C•Y = Tr Z` and `Aᵢ•Y = bᵢ·(Bᵢ•Z)`).
    pub fn primal_back(&self, z: &Mat) -> Mat {
        let mut y = matmul(&matmul(&self.c_inv_sqrt, z), &self.c_inv_sqrt);
        y.symmetrize();
        y
    }

    /// Map a normalized dual `x` (indexed over kept constraints) back to the
    /// original dual `λ` over all `n` constraints: `λ_{kept[j]} = x_j / b_j`,
    /// zero elsewhere.
    pub fn dual_back(&self, x: &[f64], n_original: usize) -> Vec<f64> {
        assert_eq!(x.len(), self.kept.len(), "dual_back: length mismatch");
        let mut lam = vec![0.0; n_original];
        for ((&idx, &b), &xi) in self.kept.iter().zip(&self.kept_rhs).zip(x) {
            lam[idx] = xi / b;
        }
        lam
    }
}

/// Lemma 2.2 trace pruning with the paper's `n³` cutoff: indices of
/// constraints whose (scaled) trace is below the cutoff. The paper shows
/// dropping the rest changes the optimum by at most an `ε` relative amount
/// in its normalized regime (`m ≤ poly(n)`, decision threshold 1).
pub fn trace_prune(inst: &PackingInstance) -> (Vec<usize>, Vec<usize>) {
    let n = inst.n() as f64;
    trace_prune_with(inst, n * n * n)
}

/// Trace pruning with an explicit cutoff. The optimizer uses the *certified*
/// cutoff `max(n³, 2nm/ε)`: any feasible `x` of a threshold-1 decision
/// instance has `xᵢ ≤ m/Tr(Aᵢ)`, so coordinates above that cutoff carry at
/// most `ε/2` total mass regardless of the `m` vs `n` balance.
pub fn trace_prune_with(inst: &PackingInstance, cutoff: f64) -> (Vec<usize>, Vec<usize>) {
    let mut keep = Vec::new();
    let mut dropped = Vec::new();
    for (i, a) in inst.mats().iter().enumerate() {
        if a.trace() <= cutoff {
            keep.push(i);
        } else {
            dropped.push(i);
        }
    }
    (keep, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(d: &[f64]) -> PsdMatrix {
        PsdMatrix::Diagonal(d.to_vec())
    }

    #[test]
    fn identity_objective_is_noop() {
        let sdp = PositiveSdp {
            objective: diag(&[1.0, 1.0]),
            constraints: vec![diag(&[2.0, 0.0]), diag(&[0.0, 4.0])],
            rhs: vec![1.0, 2.0],
        };
        let nz = normalize(&sdp).unwrap();
        assert_eq!(nz.instance.n(), 2);
        // B₁ = A₁/1 = diag(2,0); B₂ = A₂/2 = diag(0,2).
        let b0 = nz.instance.mats()[0].to_dense();
        assert!((b0[(0, 0)] - 2.0).abs() < 1e-12);
        let b1 = nz.instance.mats()[1].to_dense();
        assert!((b1[(1, 1)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_by_c_preserves_optimum_diagonal_case() {
        // Covering: min C•Y s.t. A•Y ≥ b with everything diagonal reduces to
        // a scalar problem: min Σ c_j y_j s.t. Σ a_j y_j ≥ b; OPT =
        // b·min_j(c_j/a_j)…  for one constraint OPT = b·min over support.
        let sdp = PositiveSdp {
            objective: diag(&[4.0, 1.0]),
            constraints: vec![diag(&[1.0, 1.0])],
            rhs: vec![2.0],
        };
        // Original OPT: put all mass on the cheaper ratio c_j/a_j = 1 at
        // j = 1: Y = diag(0, 2), C•Y = 2.
        let nz = normalize(&sdp).unwrap();
        // Normalized OPT = min Tr Z s.t. B•Z ≥ 1 where B = C^{-1/2}AC^{-1/2}/b
        // = diag(1/8, 1/2). OPT = 1/λmax(B) = 2 = original OPT.
        let b = nz.instance.mats()[0].to_dense();
        assert!((b[(0, 0)] - 1.0 / 8.0).abs() < 1e-12);
        assert!((b[(1, 1)] - 1.0 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn drops_zero_rhs() {
        let sdp = PositiveSdp {
            objective: diag(&[1.0, 1.0]),
            constraints: vec![diag(&[1.0, 0.0]), diag(&[0.0, 1.0])],
            rhs: vec![0.0, 1.0],
        };
        let nz = normalize(&sdp).unwrap();
        assert_eq!(nz.dropped_zero_rhs, vec![0]);
        assert_eq!(nz.kept, vec![1]);
        assert_eq!(nz.instance.n(), 1);
    }

    #[test]
    fn drops_off_support_constraints() {
        // C supported on coordinate 0 only; A₂ lives on coordinate 1.
        let sdp = PositiveSdp {
            objective: diag(&[1.0, 0.0]),
            constraints: vec![diag(&[1.0, 0.0]), diag(&[0.0, 1.0])],
            rhs: vec![1.0, 1.0],
        };
        let nz = normalize(&sdp).unwrap();
        assert_eq!(nz.dropped_off_support, vec![1]);
        assert_eq!(nz.kept, vec![0]);
    }

    #[test]
    fn errors_when_everything_dropped() {
        let sdp = PositiveSdp {
            objective: diag(&[1.0, 0.0]),
            constraints: vec![diag(&[0.0, 1.0])],
            rhs: vec![1.0],
        };
        assert!(normalize(&sdp).is_err());
    }

    #[test]
    fn primal_back_roundtrip_objective() {
        // For any Z: C • primal_back(Z) = Tr Z (on the support of C).
        let sdp = PositiveSdp {
            objective: diag(&[4.0, 9.0]),
            constraints: vec![diag(&[1.0, 1.0])],
            rhs: vec![1.0],
        };
        let nz = normalize(&sdp).unwrap();
        let z = Mat::from_diag(&[0.3, 0.7]);
        let y = nz.primal_back(&z);
        let cy = sdp.objective.dot_dense(&y);
        assert!((cy - z.trace()).abs() < 1e-10, "C•Y = {cy} vs Tr Z = {}", z.trace());
    }

    #[test]
    fn dual_back_places_and_scales() {
        let sdp = PositiveSdp {
            objective: diag(&[1.0, 1.0]),
            constraints: vec![diag(&[1.0, 0.0]), diag(&[0.0, 1.0]), diag(&[1.0, 1.0])],
            rhs: vec![0.0, 2.0, 4.0],
        };
        let nz = normalize(&sdp).unwrap();
        assert_eq!(nz.kept, vec![1, 2]);
        let lam = nz.dual_back(&[1.0, 2.0], 3);
        assert_eq!(lam, vec![0.0, 0.5, 0.5]);
    }

    #[test]
    fn trace_prune_splits_by_cutoff() {
        // n = 2 → cutoff 8.
        let inst = PackingInstance::new(vec![diag(&[1.0, 1.0]), diag(&[100.0, 100.0])]).unwrap();
        let (keep, dropped) = trace_prune(&inst);
        assert_eq!(keep, vec![0]);
        assert_eq!(dropped, vec![1]);
    }

    #[test]
    fn non_diagonal_objective() {
        // C = rank-2 PSD with off-diagonal structure; normalization must
        // still produce PSD Bᵢ and keep the dual mapping consistent.
        let mut c = Mat::zeros(2, 2);
        c.rank1_update(1.0, &[1.0, 0.5]);
        c.rank1_update(2.0, &[0.0, 1.0]);
        let mut a = Mat::zeros(2, 2);
        a.rank1_update(1.0, &[1.0, 1.0]);
        let sdp = PositiveSdp {
            objective: PsdMatrix::Dense(c),
            constraints: vec![PsdMatrix::Dense(a)],
            rhs: vec![3.0],
        };
        let nz = normalize(&sdp).unwrap();
        let b = nz.instance.mats()[0].to_dense();
        let eig = psdp_linalg::sym_eigen(&b).unwrap();
        assert!(eig.lambda_min() > -1e-10, "B must stay PSD");
        assert!(b.trace() > 0.0);
    }
}
