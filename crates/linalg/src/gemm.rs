//! Parallel dense matrix–matrix and matrix–vector products.
//!
//! The GEMM kernel is cache-blocked and panelized: the `k` dimension is
//! tiled into fixed panels of [`GEMM_KC`] rows of `B` so a panel stays hot
//! in cache while it is streamed against a block of [`GEMM_MR`] rows of
//! `A`, and the innermost loop is unrolled [`GEMM_KU`]-way over `k` so each
//! pass over an output row retires four rank-1 contributions (4× less
//! read/write traffic on `C`, the bandwidth bottleneck of an i-k-j kernel).
//!
//! **Determinism contract.** Every block size is a fixed compile-time
//! constant and parallelism splits the *output* rows into fixed-size
//! chunks, so each output element is computed by exactly one task and its
//! partial sums are accumulated one term at a time in strictly increasing
//! `k` order — the same order as the textbook i-k-j triple loop. The result
//! is therefore **bitwise identical** to the scalar reference kernel for
//! every thread-pool width (`tests/kernel_equivalence.rs` asserts this
//! property across pools and against an independent reference
//! implementation). Do not introduce SIMD/FMA contractions or per-thread
//! partial accumulators here without re-deriving that contract; DESIGN.md
//! §12 documents why the solver's verdict certification relies on it.

use crate::mat::Mat;
use rayon::prelude::*;

/// Below this many output rows, parallel dispatch costs more than it saves
/// and the kernel runs on the calling thread.
pub const GEMM_PAR_MIN_ROWS: usize = 8;

/// Output rows per parallel task. Fixed (not derived from the pool width)
/// so the work decomposition — and thus scheduling-independent output —
/// is identical for every thread count.
pub const GEMM_MR: usize = 8;

/// Rows of `B` per cache panel (the `k`-dimension tile). A panel of
/// `GEMM_KC × n` doubles (`n ≤ 1024` in this workspace ⇒ ≤ 512 KiB) is
/// reused across all rows of the current `A` block before the next panel
/// is touched.
pub const GEMM_KC: usize = 64;

/// Innermost unroll factor over `k`: each pass over an output row folds in
/// this many `B` rows. Terms are still added one at a time in increasing
/// `k` order, so unrolling changes the memory traffic, not the float
/// associativity.
pub const GEMM_KU: usize = 4;

/// Below this many rows, [`matvec`] stays sequential.
pub const MATVEC_PAR_MIN_ROWS: usize = 64;

/// Accumulate `C[r0.., ..] += A[r0.., ..] · B` for a chunk of output rows.
///
/// `c_chunk` is the contiguous row-major storage of the chunk's rows. The
/// `k` loop is tiled by [`GEMM_KC`] and unrolled [`GEMM_KU`]-way; per
/// output element the contributions arrive in increasing `k` order.
fn gemm_row_chunk(a: &Mat, b: &Mat, r0: usize, c_chunk: &mut [f64]) {
    let k = a.ncols();
    let n = b.ncols();
    let rows = c_chunk.len() / n.max(1);
    for kb in (0..k).step_by(GEMM_KC) {
        let kend = (kb + GEMM_KC).min(k);
        for i in 0..rows {
            let arow = a.row(r0 + i);
            let crow = &mut c_chunk[i * n..(i + 1) * n];
            let mut kk = kb;
            while kk + GEMM_KU <= kend {
                let (a0, a1, a2, a3) = (arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]);
                let b0 = b.row(kk);
                let b1 = b.row(kk + 1);
                let b2 = b.row(kk + 2);
                let b3 = b.row(kk + 3);
                for (j, cv) in crow.iter_mut().enumerate() {
                    let mut v = *cv;
                    v += a0 * b0[j];
                    v += a1 * b1[j];
                    v += a2 * b2[j];
                    v += a3 * b3[j];
                    *cv = v;
                }
                kk += GEMM_KU;
            }
            while kk < kend {
                let aik = arow[kk];
                let brow = b.row(kk);
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += aik * bv;
                }
                kk += 1;
            }
        }
    }
}

/// `C = A · B` (blocked, panelized, thread-count-invariant; see module docs).
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "matmul: {}x{} * {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    let (m, n) = (a.nrows(), b.ncols());
    let mut c = Mat::zeros(m, n);
    if n == 0 {
        return c;
    }
    if m < GEMM_PAR_MIN_ROWS {
        gemm_row_chunk(a, b, 0, c.as_mut_slice());
    } else {
        c.as_mut_slice()
            .par_chunks_mut(GEMM_MR * n)
            .enumerate()
            .for_each(|(ci, chunk)| gemm_row_chunk(a, b, ci * GEMM_MR, chunk));
    }
    c
}

/// Symmetric product `C = S · S` for exactly symmetric `S`, exploiting the
/// symmetry of the output: only the upper triangle is computed (as row–row
/// dot products, valid because `S = Sᵀ`) and mirrored, halving the flops of
/// a general GEMM. Used by the Taylor engine to square `p(Φ/2)`.
///
/// Bitwise contract: for exactly symmetric input this returns the same
/// bits as `matmul(s, s)` on and above the diagonal (each entry is a
/// single increasing-`k` dot product, the same order the blocked GEMM
/// uses), with the strict lower triangle mirrored from the upper.
///
/// # Panics
/// Panics if `s` is not square.
pub fn symmul(s: &Mat) -> Mat {
    assert!(s.is_square(), "symmul: need a square (symmetric) matrix");
    let m = s.nrows();
    let mut c = Mat::zeros(m, m);
    let entries: Vec<(usize, usize, f64)> = (0..m)
        .into_par_iter()
        .flat_map_iter(|i| {
            let ri = s.row(i);
            (i..m).map(move |j| (i, j, crate::vecops::dot(ri, s.row(j))))
        })
        .collect();
    for (i, j, v) in entries {
        c[(i, j)] = v;
        c[(j, i)] = v;
    }
    c
}

/// `y = A · x`.
///
/// # Panics
/// Panics if `x.len() != A.ncols()`.
pub fn matvec(a: &Mat, x: &[f64]) -> Vec<f64> {
    assert_eq!(a.ncols(), x.len(), "matvec: dim mismatch");
    let m = a.nrows();
    if m < MATVEC_PAR_MIN_ROWS {
        (0..m).map(|i| crate::vecops::dot(a.row(i), x)).collect()
    } else {
        (0..m).into_par_iter().map(|i| crate::vecops::dot(a.row(i), x)).collect()
    }
}

/// `C = Aᵀ · A` (Gram matrix), exploiting symmetry of the output.
pub fn gram(a: &Mat) -> Mat {
    let n = a.ncols();
    let mut g = Mat::zeros(n, n);
    // Accumulate row outer products: G += rowᵀ row.
    for i in 0..a.nrows() {
        g.rank1_update(1.0, a.row(i));
    }
    g.symmetrize();
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook i-k-j scalar reference: the order contract of the blocked
    /// kernel (per element, terms in increasing `k`, one at a time).
    fn reference_matmul(a: &Mat, b: &Mat) -> Mat {
        let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
        let mut c = Mat::zeros(m, n);
        for i in 0..m {
            for kk in 0..k {
                let aik = a[(i, kk)];
                for j in 0..n {
                    c[(i, j)] += aik * b[(kk, j)];
                }
            }
        }
        c
    }

    fn pseudo(m: usize, n: usize, salt: u64) -> Mat {
        Mat::from_fn(m, n, |i, j| {
            let h = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add((j as u64).wrapping_mul(1442695040888963407))
                .wrapping_add(salt);
            ((h >> 11) % 2000) as f64 / 997.0 - 1.0
        })
    }

    #[test]
    fn matmul_small_known() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Mat::from_fn(5, 5, |i, j| (i + 2 * j) as f64);
        let c = matmul(&a, &Mat::identity(5));
        assert_eq!(c, a);
        let c2 = matmul(&Mat::identity(5), &a);
        assert_eq!(c2, a);
    }

    #[test]
    fn matmul_rectangular_shapes() {
        let a = Mat::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let b = Mat::from_fn(4, 2, |i, j| (i + j) as f64);
        let c = matmul(&a, &b);
        assert_eq!(c.nrows(), 3);
        assert_eq!(c.ncols(), 2);
        // hand-check entry (1,1): row1 of a = [4,5,6,7], col1 of b = [1,2,3,4]
        assert_eq!(c[(1, 1)], 4.0 + 10.0 + 18.0 + 28.0);
    }

    /// The dispatch/blocking cutovers: every boundary shape must agree with
    /// the reference bitwise. Covers the serial↔parallel row cutover
    /// (`GEMM_PAR_MIN_ROWS` ± 1), the parallel chunk size (`GEMM_MR` ± 1),
    /// the `k` panel boundary (`GEMM_KC` ± 1), and the unroll remainder
    /// (`GEMM_KU` ± 1).
    #[test]
    fn matmul_bitwise_at_dispatch_boundaries() {
        let boundary_m = [
            1,
            GEMM_PAR_MIN_ROWS - 1,
            GEMM_PAR_MIN_ROWS,
            GEMM_PAR_MIN_ROWS + 1,
            GEMM_MR - 1,
            GEMM_MR,
            GEMM_MR + 1,
            2 * GEMM_MR + 3,
        ];
        let boundary_k = [1, GEMM_KU - 1, GEMM_KU, GEMM_KU + 1, GEMM_KC - 1, GEMM_KC, GEMM_KC + 1];
        for (case, &m) in boundary_m.iter().enumerate() {
            for &k in &boundary_k {
                let n = 1 + (m + k) % 9;
                let a = pseudo(m, k, case as u64);
                let b = pseudo(k, n, 1000 + case as u64);
                let c = matmul(&a, &b);
                let r = reference_matmul(&a, &b);
                assert_eq!(c.as_slice(), r.as_slice(), "m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    fn matmul_zero_inner_and_outer_dims() {
        let a = Mat::zeros(3, 0);
        let b = Mat::zeros(0, 2);
        let c = matmul(&a, &b);
        assert_eq!((c.nrows(), c.ncols()), (3, 2));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
        let c = matmul(&Mat::zeros(0, 4), &Mat::zeros(4, 0));
        assert_eq!((c.nrows(), c.ncols()), (0, 0));
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        // Exercise the parallel path (m >= threshold) against a scalar loop.
        let a = Mat::from_fn(33, 17, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = Mat::from_fn(17, 21, |i, j| ((i * 5 + j * 11) % 9) as f64 - 4.0);
        let c = matmul(&a, &b);
        let r = reference_matmul(&a, &b);
        assert_eq!(c.as_slice(), r.as_slice(), "blocked kernel diverged from reference");
    }

    #[test]
    fn symmul_matches_matmul_bitwise_on_symmetric_input() {
        for m in [1usize, 2, 5, GEMM_MR + 1, GEMM_KC + 1] {
            let mut s = pseudo(m, m, 7);
            s.symmetrize();
            let c = symmul(&s);
            let r = matmul(&s, &s);
            assert_eq!(c.as_slice(), r.as_slice(), "m={m}");
        }
    }

    #[test]
    fn matvec_and_transpose() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = matvec(&a, &[1.0, -1.0]);
        assert_eq!(y, vec![-1.0, -1.0, -1.0]);
        let z = matvec(&a.transpose(), &[1.0, 1.0, 1.0]);
        assert_eq!(z, vec![9.0, 12.0]);
    }

    #[test]
    fn matvec_parallel_cutover_bitwise() {
        // m just below / at / above the matvec parallel threshold: per-row
        // dot products are independent, so the values must be identical.
        for m in [MATVEC_PAR_MIN_ROWS - 1, MATVEC_PAR_MIN_ROWS, MATVEC_PAR_MIN_ROWS + 1] {
            let a = pseudo(m, 13, 3);
            let x: Vec<f64> = (0..13).map(|i| (i as f64 - 6.0) * 0.25).collect();
            let y = matvec(&a, &x);
            let want: Vec<f64> = (0..m).map(|i| crate::vecops::dot(a.row(i), &x)).collect();
            assert_eq!(y, want, "m={m}");
        }
    }

    #[test]
    fn gram_matches_explicit() {
        let a = Mat::from_fn(4, 3, |i, j| (i + j) as f64);
        let g = gram(&a);
        let g2 = matmul(&a.transpose(), &a);
        for i in 0..3 {
            for j in 0..3 {
                assert!((g[(i, j)] - g2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn quad_form_psd_of_gram() {
        let a = Mat::from_fn(3, 3, |i, j| ((i + 1) * (j + 2)) as f64 * 0.1);
        let g = gram(&a);
        // Gram matrices are PSD: x^T G x >= 0.
        let x = [1.0, -2.0, 0.7];
        assert!(crate::vecops::dot(&matvec(&g, &x), &x) >= -1e-12);
    }
}
