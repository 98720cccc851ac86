//! Compressed sparse row (CSR) matrices with rayon-parallel products.
//!
//! CSR is the storage format for the factorized constraint matrices
//! `Aᵢ = QᵢQᵢᵀ` of Theorem 4.1: `q = Σᵢ nnz(Qᵢ)` is exactly the quantity the
//! paper's nearly-linear work bound is stated in, so the kernels here are the
//! ones whose operation counts the work-scaling experiment (E5) measures.

use psdp_linalg::{Mat, SymOp};
use rayon::prelude::*;

/// A sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    /// Row pointer array, length `nrows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, length `nnz`, sorted within each row.
    col_idx: Vec<usize>,
    /// Nonzero values, parallel to `col_idx`.
    values: Vec<f64>,
}

impl Csr {
    /// Build from (row, col, value) triplets; duplicates are summed.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        // row_ptr[r + 1] first counts entries in row r, then a prefix sum
        // turns counts into offsets.
        let mut row_ptr = vec![0usize; nrows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        let mut last: Option<(usize, usize)> = None;

        for &(r, c, v) in &sorted {
            assert!(r < nrows && c < ncols, "triplet ({r},{c}) out of range");
            if last == Some((r, c)) {
                *values.last_mut().unwrap() += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_ptr[r + 1] += 1;
                last = Some((r, c));
            }
        }
        for i in 0..nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Csr { nrows, ncols, row_ptr, col_idx, values }
    }

    /// Convert a dense matrix, dropping entries with `|v| <= drop_tol`.
    pub fn from_dense(a: &Mat, drop_tol: f64) -> Self {
        let mut trip = Vec::new();
        for i in 0..a.nrows() {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v.abs() > drop_tol {
                    trip.push((i, j, v));
                }
            }
        }
        Csr::from_triplets(a.nrows(), a.ncols(), &trip)
    }

    /// Build from raw CSR arrays without panicking, enforcing the canonical
    /// invariants [`Csr::from_triplets`] produces: monotone `row_ptr`,
    /// in-range and **strictly increasing** column indices within each row
    /// (no duplicates). The binary instance reader uses this so malformed
    /// input surfaces as an error, never an assertion failure.
    ///
    /// # Errors
    /// A message describing the first violated invariant.
    pub fn try_from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, String> {
        if row_ptr.len() != nrows + 1 {
            return Err(format!("row_ptr length {} != nrows + 1 = {}", row_ptr.len(), nrows + 1));
        }
        if col_idx.len() != values.len() {
            return Err(format!("{} column indices but {} values", col_idx.len(), values.len()));
        }
        if row_ptr.first().copied() != Some(0) {
            return Err("row_ptr must start at 0".into());
        }
        if row_ptr.last().copied() != Some(col_idx.len()) {
            return Err(format!("row_ptr end {:?} != nnz {}", row_ptr.last(), col_idx.len()));
        }
        if !row_ptr.windows(2).all(|w| w[0] <= w[1]) {
            return Err("row_ptr not monotone".into());
        }
        for r in 0..nrows {
            let row = col_idx.get(row_ptr[r]..row_ptr[r + 1]).unwrap_or(&[]);
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("row {r} columns not strictly increasing"));
            }
            if row.last().is_some_and(|&c| c >= ncols) {
                return Err(format!("row {r} has a column index >= ncols {ncols}"));
            }
        }
        Ok(Csr { nrows, ncols, row_ptr, col_idx, values })
    }

    /// Row pointer array (length `nrows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices (length `nnz`, sorted within each row).
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Stored nonzero values, parallel to [`Csr::col_idx`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// An `nrows × ncols` all-zero sparse matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Csr { nrows, ncols, row_ptr: vec![0; nrows + 1], col_idx: vec![], values: vec![] }
    }

    /// Sparse identity.
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterate over `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// `y = A x` (parallel over rows).
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "spmv: dim mismatch");
        let row_dot = |i: usize| -> f64 {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            let mut s = 0.0;
            for k in lo..hi {
                s += self.values[k] * x[self.col_idx[k]];
            }
            s
        };
        if self.nrows < 256 {
            (0..self.nrows).map(row_dot).collect()
        } else {
            (0..self.nrows).into_par_iter().map(row_dot).collect()
        }
    }

    /// `y = Aᵀ x` without materializing the transpose.
    pub fn spmv_transpose(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows, "spmv_transpose: dim mismatch");
        let mut y = vec![0.0; self.ncols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (c, v) in self.row_iter(i) {
                y[c] += xi * v;
            }
        }
        y
    }

    /// `Y = A · X` for a dense block `X` (`ncols × r`), parallel over rows.
    pub fn spmm(&self, x: &Mat) -> Mat {
        assert_eq!(x.nrows(), self.ncols, "spmm: dim mismatch");
        let r = x.ncols();
        let mut out = Mat::zeros(self.nrows, r);
        let rp = &self.row_ptr;
        let ci = &self.col_idx;
        let vals = &self.values;
        let do_row = |i: usize, orow: &mut [f64]| {
            for k in rp[i]..rp[i + 1] {
                let v = vals[k];
                let xrow = x.row(ci[k]);
                for (o, &xv) in orow.iter_mut().zip(xrow) {
                    *o += v * xv;
                }
            }
        };
        if self.nrows < 64 {
            for i in 0..self.nrows {
                let orow = &mut out.as_mut_slice()[i * r..(i + 1) * r];
                do_row(i, orow);
            }
        } else {
            out.as_mut_slice().par_chunks_mut(r).enumerate().for_each(|(i, orow)| do_row(i, orow));
        }
        out
    }

    /// `Y = Aᵀ · X` for a dense block `X` (`nrows × r`).
    pub fn spmm_transpose(&self, x: &Mat) -> Mat {
        assert_eq!(x.nrows(), self.nrows, "spmm_transpose: dim mismatch");
        let r = x.ncols();
        let mut out = Mat::zeros(self.ncols, r);
        for i in 0..self.nrows {
            let xrow = x.row(i);
            for (c, v) in self.row_iter(i) {
                let orow = &mut out.as_mut_slice()[c * r..(c + 1) * r];
                for (o, &xv) in orow.iter_mut().zip(xrow) {
                    *o += v * xv;
                }
            }
        }
        out
    }

    /// Materialize the transpose.
    pub fn transpose(&self) -> Csr {
        let mut trip = Vec::with_capacity(self.nnz());
        for i in 0..self.nrows {
            for (c, v) in self.row_iter(i) {
                trip.push((c, i, v));
            }
        }
        Csr::from_triplets(self.ncols, self.nrows, &trip)
    }

    /// Densify.
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for (c, v) in self.row_iter(i) {
                m[(i, c)] += v;
            }
        }
        m
    }

    /// Scale all values by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }

    /// Squared Frobenius norm `Σ v²` of stored values.
    pub fn fro_norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }
}

/// A symmetric operator defined by a CSR matrix (assumed symmetric).
impl SymOp for Csr {
    fn dim(&self) -> usize {
        assert_eq!(self.nrows, self.ncols, "SymOp requires square CSR");
        self.nrows
    }

    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        self.spmv(x)
    }

    fn apply_block(&self, x: &Mat) -> Mat {
        self.spmm(x)
    }

    fn nnz(&self) -> usize {
        Csr::nnz(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Csr {
        // [[1, 0, 2],
        //  [0, 0, 3],
        //  [4, 5, 0]]
        Csr::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 2, 3.0), (2, 0, 4.0), (2, 1, 5.0)])
    }

    #[test]
    fn triplets_roundtrip_dense() {
        let a = example();
        assert_eq!(a.nnz(), 5);
        let d = a.to_dense();
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(0, 2)], 2.0);
        assert_eq!(d[(1, 2)], 3.0);
        assert_eq!(d[(2, 0)], 4.0);
        assert_eq!(d[(2, 1)], 5.0);
        assert_eq!(d[(1, 1)], 0.0);
        let back = Csr::from_dense(&d, 0.0);
        assert_eq!(back, a);
    }

    #[test]
    fn duplicate_triplets_sum() {
        let a = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]);
        assert_eq!(a.to_dense()[(0, 0)], 3.5);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn empty_rows_handled() {
        let a = Csr::from_triplets(4, 3, &[(3, 1, 7.0)]);
        assert_eq!(a.spmv(&[0.0, 1.0, 0.0]), vec![0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = example();
        let x = [1.0, -1.0, 2.0];
        let y = a.spmv(&x);
        let yd = psdp_linalg::matvec(&a.to_dense(), &x);
        assert_eq!(y, yd);
    }

    #[test]
    fn spmv_transpose_matches_dense() {
        let a = example();
        let x = [1.0, 2.0, 3.0];
        let y = a.spmv_transpose(&x);
        let yd = psdp_linalg::matvec(&a.to_dense().transpose(), &x);
        for (g, w) in y.iter().zip(&yd) {
            assert!((g - w).abs() < 1e-14);
        }
    }

    #[test]
    fn spmm_matches_dense() {
        let a = example();
        let x = Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let y = a.spmm(&x);
        let yd = psdp_linalg::matmul(&a.to_dense(), &x);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(y[(i, j)], yd[(i, j)]);
            }
        }
    }

    #[test]
    fn spmm_transpose_matches_dense() {
        let a = example();
        let x = Mat::from_fn(3, 2, |i, j| (i + 3 * j) as f64);
        let y = a.spmm_transpose(&x);
        let yd = psdp_linalg::matmul(&a.to_dense().transpose(), &x);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(y[(i, j)], yd[(i, j)]);
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = example();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn identity_spmv() {
        let i = Csr::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.spmv(&x), x.to_vec());
        assert_eq!(i.nnz(), 4);
    }

    #[test]
    fn fro_and_col_norms() {
        let a = example();
        assert_eq!(a.fro_norm_sq(), 1.0 + 4.0 + 9.0 + 16.0 + 25.0);
    }

    #[test]
    fn large_parallel_spmv_matches_serial() {
        // Exercise the parallel path (nrows >= 256).
        let n = 400;
        let trip: Vec<(usize, usize, f64)> =
            (0..n).flat_map(|i| vec![(i, i, 2.0), (i, (i * 7 + 3) % n, 1.0)]).collect();
        let a = Csr::from_triplets(n, n, &trip);
        let x: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
        let y = a.spmv(&x);
        let yd = psdp_linalg::matvec(&a.to_dense(), &x);
        for (g, w) in y.iter().zip(&yd) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    fn symop_impl_square_only() {
        let a = Csr::identity(3);
        assert_eq!(SymOp::dim(&a), 3);
        assert_eq!(SymOp::nnz(&a), 3);
    }

    #[test]
    fn try_from_raw_accepts_canonical_and_rejects_malformed() {
        let a = example();
        let b = Csr::try_from_raw(
            a.nrows(),
            a.ncols(),
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.values().to_vec(),
        )
        .unwrap();
        assert_eq!(a, b);
        // Wrong row_ptr length.
        assert!(Csr::try_from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // row_ptr end disagrees with nnz.
        assert!(Csr::try_from_raw(1, 2, vec![0, 2], vec![0], vec![1.0]).is_err());
        // Column out of range.
        assert!(Csr::try_from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // Duplicate / unsorted columns within a row.
        assert!(Csr::try_from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        assert!(Csr::try_from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // Non-monotone row_ptr.
        assert!(Csr::try_from_raw(2, 2, vec![0, 1, 0], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn scale_in_place() {
        let mut a = example();
        a.scale(2.0);
        assert_eq!(a.to_dense()[(2, 1)], 10.0);
    }
}
