//! Problem instances: the general positive SDP (1.1) and the normalized
//! packing form of Figure 2.

use crate::error::PsdpError;
use psdp_linalg::Mat;
use psdp_sparse::PsdMatrix;
use rayon::prelude::*;

/// The constraint storage type of the solver: a PSD matrix in one of four
/// formats — dense `Mat`, sparse symmetric [`psdp_sparse::Csr`], factorized
/// [`psdp_sparse::FactorPsd`] (`A = QQᵀ`), or nonnegative diagonal. Storage
/// never changes semantics, only cost: the incremental-Ψ scatter path and
/// the engines exploit whatever structure the chosen variant exposes.
pub type Constraint = PsdMatrix;

/// Constraint count below which [`PackingInstance::weighted_sum`] stays
/// sequential (chunked partial accumulators cost `m²` each to merge).
const PARALLEL_WEIGHTED_SUM_MIN_N: usize = 128;

/// Fixed constraints-per-chunk of the parallel [`PackingInstance::weighted_sum`]
/// path. Deliberately **not** derived from the thread count: the
/// floating-point summation grouping (and therefore the result, bitwise)
/// must be identical across thread pools, preserving the repo's
/// thread-count-invariance contract (`tests/determinism.rs`).
const WEIGHTED_SUM_CHUNK: usize = 64;

/// A general positive SDP in the paper's standard primal form (1.1):
///
/// ```text
///   minimize   C • Y
///   subject to Aᵢ • Y ≥ bᵢ   (i = 1…n),   Y ⪰ 0,
/// ```
///
/// with `C, Aᵢ ⪰ 0` and `bᵢ ≥ 0`.
#[derive(Debug, Clone)]
pub struct PositiveSdp {
    /// Objective matrix `C` (PSD).
    pub objective: PsdMatrix,
    /// Constraint matrices `Aᵢ` (PSD).
    pub constraints: Vec<PsdMatrix>,
    /// Right-hand sides `bᵢ ≥ 0`.
    pub rhs: Vec<f64>,
}

impl PositiveSdp {
    /// Validate shapes and sign conditions.
    ///
    /// # Errors
    /// [`PsdpError::InvalidInstance`] with an explanation.
    pub fn validate(&self) -> Result<(), PsdpError> {
        let m = self.objective.dim();
        if self.constraints.is_empty() {
            return Err(PsdpError::InvalidInstance("no constraints".into()));
        }
        if self.constraints.len() != self.rhs.len() {
            return Err(PsdpError::InvalidInstance(format!(
                "{} constraints but {} right-hand sides",
                self.constraints.len(),
                self.rhs.len()
            )));
        }
        for (i, a) in self.constraints.iter().enumerate() {
            if a.dim() != m {
                return Err(PsdpError::InvalidInstance(format!(
                    "constraint {i} has dim {} != objective dim {m}",
                    a.dim()
                )));
            }
        }
        for (i, &b) in self.rhs.iter().enumerate() {
            if !b.is_finite() || b < 0.0 {
                return Err(PsdpError::InvalidInstance(format!("rhs b[{i}] = {b} not in [0,∞)")));
            }
        }
        Ok(())
    }

    /// Matrix dimension `m`.
    pub fn dim(&self) -> usize {
        self.objective.dim()
    }

    /// Number of constraints `n`.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }
}

/// A normalized **packing** instance (the dual side of Figure 2):
///
/// ```text
///   maximize 1ᵀx   subject to   Σᵢ xᵢ Aᵢ ⪯ I,   x ≥ 0,
/// ```
///
/// equivalently the covering primal `min Tr Y` s.t. `Aᵢ • Y ≥ 1`. This is
/// the form `decisionPSDP` (Algorithm 3.1) consumes.
#[derive(Debug, Clone)]
pub struct PackingInstance {
    mats: Vec<Constraint>,
    dim: usize,
}

impl PackingInstance {
    /// Build and validate an instance.
    ///
    /// # Errors
    /// [`PsdpError::InvalidInstance`] on an empty set, dimension mismatches,
    /// or a constraint with non-positive trace (a zero matrix makes the
    /// packing value unbounded, so it is rejected rather than silently
    /// accepted).
    pub fn new(mats: Vec<Constraint>) -> Result<Self, PsdpError> {
        if mats.is_empty() {
            return Err(PsdpError::InvalidInstance("no constraint matrices".into()));
        }
        let dim = mats[0].dim();
        if dim == 0 {
            return Err(PsdpError::InvalidInstance("zero-dimensional matrices".into()));
        }
        for (i, a) in mats.iter().enumerate() {
            if a.dim() != dim {
                return Err(PsdpError::InvalidInstance(format!(
                    "matrix {i} has dim {} != {dim}",
                    a.dim()
                )));
            }
            if let Err(msg) = a.validate_cheap() {
                return Err(PsdpError::InvalidInstance(format!("matrix {i}: {msg}")));
            }
            let tr = a.trace();
            if !tr.is_finite() || tr <= 0.0 {
                return Err(PsdpError::InvalidInstance(format!(
                    "matrix {i} has trace {tr}; every Aᵢ must be PSD and nonzero"
                )));
            }
        }
        Ok(PackingInstance { mats, dim })
    }

    /// The constraint matrices.
    pub fn mats(&self) -> &[Constraint] {
        &self.mats
    }

    /// Number of constraints `n`.
    pub fn n(&self) -> usize {
        self.mats.len()
    }

    /// Matrix dimension `m`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total storage nonzeros across constraints (the `q` of Theorem 4.1
    /// when all constraints are factorized).
    pub fn total_nnz(&self) -> usize {
        self.mats.iter().map(|a| a.storage_nnz()).sum()
    }

    /// `Σᵢ xᵢ Aᵢ` as a dense symmetric matrix.
    ///
    /// Large storage-heavy instances accumulate rayon-parallel over
    /// fixed-size constraint chunks (one partial `m × m` accumulator per
    /// chunk, summed in chunk order at the end); this is the full-rebuild
    /// path of the incremental Ψ maintenance in
    /// [`crate::psi::PsiMaintainer`]. The chunking — and therefore the
    /// floating-point summation grouping and the bitwise result — depends
    /// only on the instance, never on the thread count. The parallel path
    /// engages only when the scatter work (total storage nonzeros)
    /// dominates the `m²`-per-chunk accumulator merge cost, so sparse
    /// instances with large `m` stay on the cheap sequential scatter.
    pub fn weighted_sum(&self, x: &[f64]) -> Mat {
        assert_eq!(x.len(), self.n(), "weighted_sum: coefficient length");
        let merge_cost = self.n().div_ceil(WEIGHTED_SUM_CHUNK) * self.dim * self.dim;
        let parallel_pays =
            self.n() >= PARALLEL_WEIGHTED_SUM_MIN_N && self.total_nnz() >= 2 * merge_cost;
        let mut out = if parallel_pays {
            let partials: Vec<Mat> = self
                .mats
                .par_chunks(WEIGHTED_SUM_CHUNK)
                .enumerate()
                .map(|(ci, part)| {
                    let mut acc = Mat::zeros(self.dim, self.dim);
                    for (j, a) in part.iter().enumerate() {
                        let xi = x[ci * WEIGHTED_SUM_CHUNK + j];
                        if xi != 0.0 {
                            a.add_scaled_into(&mut acc, xi);
                        }
                    }
                    acc
                })
                .collect();
            let mut total = Mat::zeros(self.dim, self.dim);
            for p in partials {
                total.axpy(1.0, &p);
            }
            total
        } else {
            let mut acc = Mat::zeros(self.dim, self.dim);
            for (a, &xi) in self.mats.iter().zip(x) {
                if xi != 0.0 {
                    a.add_scaled_into(&mut acc, xi);
                }
            }
            acc
        };
        out.symmetrize();
        out
    }

    /// Return a copy with every matrix scaled by `sigma > 0` (the bisection
    /// of `approxPSDP` tests "OPT ≥ σ" by scaling and asking the ε-decision
    /// problem at threshold 1).
    pub fn scaled(&self, sigma: f64) -> PackingInstance {
        assert!(sigma > 0.0 && sigma.is_finite(), "scale must be positive");
        let mats = self
            .mats
            .iter()
            .map(|a| {
                let mut b = a.clone();
                b.scale(sigma);
                b
            })
            .collect();
        PackingInstance { mats, dim: self.dim }
    }

    /// Restrict to a subset of constraint indices (Lemma 2.2 trace pruning).
    ///
    /// # Errors
    /// [`PsdpError::InvalidInstance`] if `keep` is empty or out of range.
    pub fn restrict(&self, keep: &[usize]) -> Result<PackingInstance, PsdpError> {
        if keep.is_empty() {
            return Err(PsdpError::InvalidInstance("restriction keeps no constraints".into()));
        }
        let mut mats = Vec::with_capacity(keep.len());
        for &i in keep {
            if i >= self.n() {
                return Err(PsdpError::InvalidInstance(format!("index {i} out of range")));
            }
            mats.push(self.mats[i].clone());
        }
        Ok(PackingInstance { mats, dim: self.dim })
    }
}

/// A normalized **mixed packing–covering** instance (Jain–Yao):
///
/// ```text
///   find x ≥ 0   with   Σᵢ xᵢ Pᵢ ⪯ I   and   Σᵢ xᵢ Cᵢ ⪰ σ·I,
/// ```
///
/// one packing matrix `Pᵢ` and one covering matrix `Cᵢ` per coordinate.
/// The two sides live in independent spaces: `Pᵢ` are `pack_dim × pack_dim`
/// and `Cᵢ` are `cover_dim × cover_dim`, and the dimensions need not match.
/// [`crate::mixed::solve_mixed`] answers the feasibility question for a
/// given `σ` and optimizes the largest feasible `σ*` by certified
/// bisection.
///
/// Internally each side is a [`PackingInstance`] so the mixed solver
/// reuses the packing stack wholesale: the same storage formats, the same
/// incremental [`crate::psi::PsiMaintainer`] on both aggregates
/// `Ψ_P = Σ xᵢPᵢ` and `Ψ_C = Σ xᵢCᵢ`, and the same engines. Every `Pᵢ`
/// and `Cᵢ` must therefore be PSD with positive trace (a coordinate with a
/// zero matrix on either side is rejected; scale a tiny multiple of the
/// identity in if a side is genuinely unconstrained).
#[derive(Debug, Clone)]
pub struct MixedInstance {
    pack: PackingInstance,
    cover: PackingInstance,
}

impl MixedInstance {
    /// Build and validate a mixed instance from per-coordinate packing and
    /// covering matrices (`pack[k]` and `cover[k]` belong to coordinate
    /// `k`).
    ///
    /// # Errors
    /// [`PsdpError::InvalidInstance`] when the two sides disagree on the
    /// coordinate count, or either side fails [`PackingInstance::new`]
    /// validation (empty set, dimension mismatch, non-PSD storage,
    /// non-positive trace).
    pub fn new(pack: Vec<Constraint>, cover: Vec<Constraint>) -> Result<Self, PsdpError> {
        if pack.len() != cover.len() {
            return Err(PsdpError::InvalidInstance(format!(
                "mixed instance needs one packing and one covering matrix per coordinate, got \
                 {} packing vs {} covering",
                pack.len(),
                cover.len()
            )));
        }
        let pack = PackingInstance::new(pack)
            .map_err(|e| PsdpError::InvalidInstance(format!("packing side: {e}")))?;
        let cover = PackingInstance::new(cover)
            .map_err(|e| PsdpError::InvalidInstance(format!("covering side: {e}")))?;
        Ok(MixedInstance { pack, cover })
    }

    /// The packing side `P₁ … Pₙ` as a packing instance.
    pub fn pack(&self) -> &PackingInstance {
        &self.pack
    }

    /// The covering side `C₁ … Cₙ` as a packing instance.
    pub fn cover(&self) -> &PackingInstance {
        &self.cover
    }

    /// Number of coordinates `n` (shared by both sides).
    pub fn n(&self) -> usize {
        self.pack.n()
    }

    /// Packing-side matrix dimension.
    pub fn pack_dim(&self) -> usize {
        self.pack.dim()
    }

    /// Covering-side matrix dimension.
    pub fn cover_dim(&self) -> usize {
        self.cover.dim()
    }

    /// Total storage nonzeros across both sides.
    pub fn total_nnz(&self) -> usize {
        self.pack.total_nnz() + self.cover.total_nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(d: &[f64]) -> PsdMatrix {
        PsdMatrix::Diagonal(d.to_vec())
    }

    #[test]
    fn packing_instance_validates() {
        let inst = PackingInstance::new(vec![diag(&[1.0, 0.0]), diag(&[0.0, 2.0])]).unwrap();
        assert_eq!(inst.n(), 2);
        assert_eq!(inst.dim(), 2);
        assert_eq!(inst.total_nnz(), 2);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(PackingInstance::new(vec![]).is_err());
        let r = PackingInstance::new(vec![diag(&[1.0]), diag(&[1.0, 1.0])]);
        assert!(r.is_err());
    }

    #[test]
    fn rejects_zero_trace() {
        let r = PackingInstance::new(vec![diag(&[0.0, 0.0])]);
        assert!(matches!(r, Err(PsdpError::InvalidInstance(_))));
    }

    #[test]
    fn rejects_structurally_non_psd_input() {
        // Negative diagonal entry.
        let r = PackingInstance::new(vec![diag(&[1.0, -0.5])]);
        assert!(matches!(r, Err(PsdpError::InvalidInstance(_))));
        // NaN entry.
        let r = PackingInstance::new(vec![diag(&[f64::NAN, 1.0])]);
        assert!(matches!(r, Err(PsdpError::InvalidInstance(_))));
        // Asymmetric dense matrix.
        let m = Mat::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let r = PackingInstance::new(vec![PsdMatrix::Dense(m)]);
        assert!(matches!(r, Err(PsdpError::InvalidInstance(_))));
        // Negative dense diagonal (necessary-condition check).
        let m = Mat::from_rows(&[&[-1.0, 0.0], &[0.0, 1.0]]);
        let r = PackingInstance::new(vec![PsdMatrix::Dense(m)]);
        assert!(matches!(r, Err(PsdpError::InvalidInstance(_))));
    }

    #[test]
    fn weighted_sum_matches_hand_calc() {
        let inst = PackingInstance::new(vec![diag(&[1.0, 0.0]), diag(&[0.0, 3.0])]).unwrap();
        let s = inst.weighted_sum(&[2.0, 0.5]);
        assert_eq!(s[(0, 0)], 2.0);
        assert_eq!(s[(1, 1)], 1.5);
        assert_eq!(s[(0, 1)], 0.0);
    }

    #[test]
    fn weighted_sum_parallel_path_matches_sequential() {
        // n ≥ 128 dense-stored constraints trigger the chunked rayon path
        // (total nnz = n·m² dominates the merge cost); compare against a
        // hand-rolled sequential accumulation.
        let n = 150;
        let dim = 6;
        let mats: Vec<PsdMatrix> = (0..n)
            .map(|i| {
                let mut a = Mat::zeros(dim, dim);
                let mut v = vec![0.0; dim];
                v[i % dim] = 1.0 + (i % 4) as f64 * 0.5;
                v[(i + 2) % dim] = 0.5;
                a.rank1_update(1.0, &v);
                PsdMatrix::Dense(a)
            })
            .collect();
        let inst = PackingInstance::new(mats).unwrap();
        assert!(inst.total_nnz() >= 2 * inst.n().div_ceil(64) * dim * dim, "gate must engage");
        let x: Vec<f64> = (0..n).map(|i| 0.01 * (1 + i % 7) as f64).collect();
        let got = inst.weighted_sum(&x);
        let mut want = Mat::zeros(dim, dim);
        for (a, &xi) in inst.mats().iter().zip(&x) {
            a.add_scaled_into(&mut want, xi);
        }
        want.symmetrize();
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }
    }

    #[test]
    fn scaled_multiplies_matrices() {
        let inst = PackingInstance::new(vec![diag(&[1.0, 2.0])]).unwrap();
        let s = inst.scaled(3.0);
        assert_eq!(s.mats()[0].trace(), 9.0);
    }

    #[test]
    fn restrict_picks_subset() {
        let inst =
            PackingInstance::new(vec![diag(&[1.0, 0.0]), diag(&[0.0, 1.0]), diag(&[1.0, 1.0])])
                .unwrap();
        let sub = inst.restrict(&[0, 2]).unwrap();
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.mats()[1].trace(), 2.0);
        assert!(inst.restrict(&[]).is_err());
        assert!(inst.restrict(&[7]).is_err());
    }

    #[test]
    fn mixed_instance_validates_and_exposes_sides() {
        let inst = MixedInstance::new(
            vec![diag(&[1.0, 0.0]), diag(&[0.0, 2.0])],
            vec![diag(&[0.5, 0.5, 0.0]), diag(&[0.0, 0.0, 1.0])],
        )
        .unwrap();
        assert_eq!(inst.n(), 2);
        assert_eq!(inst.pack_dim(), 2);
        assert_eq!(inst.cover_dim(), 3);
        assert_eq!(inst.total_nnz(), 2 + 3);
        assert_eq!(inst.pack().n(), inst.cover().n());
    }

    #[test]
    fn mixed_instance_rejects_mismatch_and_zero_sides() {
        // Coordinate counts must match.
        assert!(MixedInstance::new(vec![diag(&[1.0])], vec![]).is_err());
        // A zero matrix on either side is rejected (positive trace).
        let r = MixedInstance::new(vec![diag(&[0.0, 0.0])], vec![diag(&[1.0, 0.0])]);
        assert!(matches!(r, Err(PsdpError::InvalidInstance(msg)) if msg.contains("packing side")));
        let r = MixedInstance::new(vec![diag(&[1.0, 0.0])], vec![diag(&[0.0, 0.0])]);
        assert!(matches!(r, Err(PsdpError::InvalidInstance(msg)) if msg.contains("covering side")));
    }

    #[test]
    fn positive_sdp_validation() {
        let sdp = PositiveSdp {
            objective: diag(&[1.0, 1.0]),
            constraints: vec![diag(&[1.0, 0.0])],
            rhs: vec![1.0],
        };
        assert!(sdp.validate().is_ok());
        assert_eq!(sdp.dim(), 2);
        assert_eq!(sdp.num_constraints(), 1);

        let bad = PositiveSdp {
            objective: diag(&[1.0, 1.0]),
            constraints: vec![diag(&[1.0, 0.0])],
            rhs: vec![-1.0],
        };
        assert!(bad.validate().is_err());

        let mismatch = PositiveSdp {
            objective: diag(&[1.0, 1.0]),
            constraints: vec![diag(&[1.0, 0.0]), diag(&[1.0, 0.0])],
            rhs: vec![1.0],
        };
        assert!(mismatch.validate().is_err());
    }
}
