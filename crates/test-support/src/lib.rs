//! # psdp-test-support
//!
//! Shared fixtures for the workspace's test suites. Before this crate, the
//! root integration tests each carried a hand-rolled copy of "random
//! factorized instance from a seed", "sparse G(n,p) edge-Laplacian
//! instance with empty-graph fallback", and ad-hoc LCG streams; the copies
//! drifted (different dims, widths, scales) and every new suite re-rolled
//! its own. This crate is the single home for:
//!
//! * [`FactorizedSpec`] / [`factorized_instance`] — the deterministic
//!   random-factorized packing instance every suite parameterizes,
//! * [`arb_factorized_instance`] / [`arb_sparse_graph_instance`] —
//!   proptest strategies over those families,
//! * [`diag_lp_with_columns`] — a diagonal (positive-LP) instance paired
//!   with its scalar columns, for cross-validation against LP baselines,
//! * [`arb_mixed_diagonal`] / [`MixedDiagonal`] — diagonal-embedded mixed
//!   packing–covering instances paired with their columns and the exact
//!   simplex threshold, for the mixed differential tests,
//! * [`det_stream`] — a splitmix64-backed deterministic `u64` stream for
//!   tests that need cheap reproducible pseudo-randomness without pulling
//!   in a full RNG,
//! * [`MmwGame`] — the Section 2.1 matrix multiplicative-weights game, for
//!   the Theorem 2.1 regret-bound tests.
//!
//! Everything here is deterministic in its seed parameters; nothing reads
//! global state.

#![warn(missing_docs)]

pub mod matrix_mw;

pub use matrix_mw::MmwGame;
use proptest::prelude::*;
use psdp_baselines::mixed_exact_threshold;
use psdp_core::{MixedInstance, PackingInstance};
use psdp_parallel::splitmix64;
use psdp_sparse::PsdMatrix;
use psdp_workloads::{
    diagonal_columns, edge_packing_sparse, gnp, mixed_lp_diagonal, random_factorized,
    random_lp_diagonal, RandomFactorized,
};

/// Parameters of the shared random-factorized packing fixture.
///
/// The defaults reproduce the shape most suites used: rank-2 constraints
/// with 3 nonzeros per factor column, unit width, and a 0.5 post-scale
/// (which puts the packing optimum near the decision threshold, so both
/// dual and primal sides get exercised across seeds).
#[derive(Debug, Clone, Copy)]
pub struct FactorizedSpec {
    /// Matrix dimension `m`.
    pub dim: usize,
    /// Constraint count `n`.
    pub n: usize,
    /// Factor rank per constraint.
    pub rank: usize,
    /// Nonzeros per factor column.
    pub nnz_per_col: usize,
    /// Width knob of the generator.
    pub width: f64,
    /// Generator seed.
    pub seed: u64,
    /// Uniform post-scale applied to every constraint.
    pub scale: f64,
}

impl FactorizedSpec {
    /// The default fixture shape at a given size and seed.
    pub fn new(dim: usize, n: usize, seed: u64) -> Self {
        FactorizedSpec { dim, n, rank: 2, nnz_per_col: 3, width: 1.0, seed, scale: 0.5 }
    }

    /// Builder-style width override.
    #[must_use]
    pub fn with_width(mut self, width: f64) -> Self {
        self.width = width;
        self
    }

    /// Builder-style post-scale override (`1.0` = no scaling).
    #[must_use]
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }
}

/// Build the deterministic random-factorized packing instance described by
/// `spec`.
///
/// # Panics
/// Panics if the generated matrices fail instance validation (cannot
/// happen for positive sizes).
pub fn factorized_instance(spec: &FactorizedSpec) -> PackingInstance {
    let inst = PackingInstance::new(random_factorized(&RandomFactorized {
        dim: spec.dim,
        n: spec.n,
        rank: spec.rank,
        nnz_per_col: spec.nnz_per_col,
        width: spec.width,
        seed: spec.seed,
    }))
    .expect("random_factorized emits valid instances");
    if spec.scale == 1.0 {
        inst
    } else {
        inst.scaled(spec.scale)
    }
}

/// Proptest strategy over the factorized fixture: `dim ∈ [4, 9)`,
/// `n ∈ [3, 7)`, seeds below 1000, width 1.5, no post-scale (the shape
/// the warm-start property tests always used).
pub fn arb_factorized_instance() -> impl Strategy<Value = PackingInstance> {
    (4usize..9, 3usize..7, 0u64..1000).prop_map(|(dim, n, seed)| {
        factorized_instance(&FactorizedSpec::new(dim, n, seed).with_width(1.5).with_scale(1.0))
    })
}

/// Proptest strategy over sparse instances: CSR edge Laplacians of a
/// `G(v, 1/2)` graph, falling back to a diagonal instance when the
/// sampled graph has no edges.
pub fn arb_sparse_graph_instance() -> impl Strategy<Value = PackingInstance> {
    (6usize..12, 0u64..1000).prop_map(|(v, seed)| {
        let mats: Vec<PsdMatrix> = edge_packing_sparse(&gnp(v, 0.5, seed));
        if mats.is_empty() {
            PackingInstance::new(vec![PsdMatrix::Diagonal(vec![1.0; v])]).expect("valid")
        } else {
            PackingInstance::new(mats).expect("valid instance")
        }
    })
}

/// A random diagonal (positive-LP) packing instance paired with its scalar
/// columns, for cross-validation against the LP baselines.
///
/// # Panics
/// Panics on zero sizes (forwarded from the generator).
pub fn diag_lp_with_columns(
    m: usize,
    n: usize,
    density: f64,
    seed: u64,
) -> (PackingInstance, Vec<Vec<f64>>) {
    let mats = random_lp_diagonal(m, n, density, seed);
    let cols = diagonal_columns(&mats);
    (PackingInstance::new(mats).expect("valid diagonal instance"), cols)
}

/// A diagonal-embedded mixed instance bundled with its scalar columns and
/// the exact simplex threshold `t* = max{t : Px ≤ 1, Cx ≥ t·1}` — the
/// complete input of a mixed differential test case.
#[derive(Debug, Clone)]
pub struct MixedDiagonal {
    /// The mixed SDP instance (diagonal embedding of the columns).
    pub inst: MixedInstance,
    /// Packing columns (`pack_cols[k]` = column `k` of `P`).
    pub pack_cols: Vec<Vec<f64>>,
    /// Covering columns.
    pub cover_cols: Vec<Vec<f64>>,
    /// Exact feasibility threshold from simplex (ground truth).
    pub tstar: f64,
}

/// Build one diagonal mixed differential case from its sizes and seed.
pub fn mixed_diagonal_case(
    mp: usize,
    mc: usize,
    n: usize,
    density: f64,
    seed: u64,
) -> MixedDiagonal {
    let inst = mixed_lp_diagonal(mp, mc, n, density, seed);
    let pack_cols = diagonal_columns(inst.pack().mats());
    let cover_cols = diagonal_columns(inst.cover().mats());
    let tstar = mixed_exact_threshold(&pack_cols, &cover_cols);
    MixedDiagonal { inst, pack_cols, cover_cols, tstar }
}

/// Proptest strategy over [`MixedDiagonal`] cases: `m_P ∈ [3, 7)`,
/// `m_C ∈ [2, 5)`, `n ∈ [3, 7)`, density 0.6, seeds below 1000. Cases
/// with an unbounded coverage direction (`t* = ∞`, every covering column
/// free of packing cost) are filtered out — the approximate solvers
/// detect them as unbounded growth, which is not what these tests probe.
pub fn arb_mixed_diagonal() -> impl Strategy<Value = MixedDiagonal> {
    (3usize..7, 2usize..5, 3usize..7, 0u64..1000)
        .prop_map(|(mp, mc, n, seed)| mixed_diagonal_case(mp, mc, n, 0.6, seed))
        .prop_filter("coverage must be bounded", |case| case.tstar.is_finite())
}

/// A deterministic splitmix64 `u64` stream: each call advances the state
/// and returns the next output. The shared replacement for the ad-hoc
/// LCGs tests used to inline.
pub fn det_stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorized_fixture_is_deterministic() {
        let spec = FactorizedSpec::new(8, 5, 42);
        let a = factorized_instance(&spec);
        let b = factorized_instance(&spec);
        assert_eq!(a.n(), 5);
        assert_eq!(a.dim(), 8);
        for (x, y) in a.mats().iter().zip(b.mats()) {
            assert_eq!(x.to_dense().as_slice(), y.to_dense().as_slice());
        }
        // Scale is applied.
        let unscaled = factorized_instance(&spec.with_scale(1.0));
        assert!((a.mats()[0].trace() - 0.5 * unscaled.mats()[0].trace()).abs() < 1e-12);
    }

    #[test]
    fn diag_lp_columns_match_instance() {
        let (inst, cols) = diag_lp_with_columns(6, 4, 0.6, 7);
        assert_eq!(cols.len(), inst.n());
        for (m, c) in inst.mats().iter().zip(&cols) {
            assert_eq!(&diagonal_columns(std::slice::from_ref(m))[0], c);
        }
    }

    #[test]
    fn mixed_case_carries_consistent_oracle() {
        let case = mixed_diagonal_case(4, 3, 5, 0.6, 11);
        assert_eq!(case.pack_cols.len(), case.inst.n());
        assert_eq!(case.cover_cols.len(), case.inst.n());
        // The oracle is reproducible.
        let again = mixed_diagonal_case(4, 3, 5, 0.6, 11);
        assert_eq!(case.tstar.to_bits(), again.tstar.to_bits());
    }

    #[test]
    fn det_stream_reproducible_and_spread() {
        let mut a = det_stream(9);
        let mut b = det_stream(9);
        let xs: Vec<u64> = (0..16).map(|_| a()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b()).collect();
        assert_eq!(xs, ys);
        let distinct: std::collections::HashSet<_> = xs.iter().collect();
        assert_eq!(distinct.len(), xs.len());
    }
}
