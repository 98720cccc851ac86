//! Young-style width-independent positive **LP** solver — the scalar
//! ancestor (Young, FOCS 2001) that Algorithm 3.1 generalizes.
//!
//! For the packing LP `max 1ᵀx` s.t. `Dx ≤ 1`, `x ≥ 0` (`D ≥ 0`, `m` rows),
//! the decision core mirrors Algorithm 3.1 with the soft-max potential
//! `w_j = exp((Dx)_j)` in place of the matrix exponential:
//!
//! ```text
//! x⁰ᵢ = 1/(n·Σ_j D_ji);   while ‖x‖₁ ≤ K:
//!     ratioᵢ = Σ_j D_ji w_j / Σ_j w_j
//!     B = { i : ratioᵢ ≤ 1+ε };  x_B ← (1+α)·x_B
//! ```
//!
//! * `‖x‖₁ > K` ⇒ dual side: the rescaled `x` is a near-optimal packing,
//! * `B = ∅` ⇒ primal side: the normalized weights `y = w/Σw` form a
//!   covering certificate (`Σ_j D_ji y_j > 1+ε` for every `i`), which
//!   upper-bounds the optimum.
//!
//! Optimization then wraps the decision core in the same geometric
//! bisection `approxPSDP` uses (Lemma 2.2), scaling the columns by `σ`.
//!
//! On diagonal SDP instances this must agree with the matrix solver (matrix
//! exponentials of diagonal matrices *are* the scalar exponentials) — the
//! cross-validation tests exploit that.

use psdp_core::paper_constants;

/// One decision-call outcome at threshold 1.
#[derive(Debug, Clone)]
pub enum YoungDecision {
    /// `‖x‖₁` crossed `K`: a feasible packing vector with value `≥ 1−O(ε)`.
    Dual {
        /// Feasible (rescaled) packing vector.
        x: Vec<f64>,
        /// Its value `1ᵀx`.
        value: f64,
    },
    /// The eligible set emptied: covering certificate with per-column loads
    /// `Σ_j D_ji y_j` all `> 1+ε`, establishing `OPT ≤ 1/min_load`.
    Primal {
        /// Normalized covering weights (`Σ y = 1`).
        y: Vec<f64>,
        /// `minᵢ Σ_j D_ji y_j` (> 1+ε by construction).
        min_load: f64,
    },
}

/// Result of the LP optimizer.
#[derive(Debug, Clone)]
pub struct YoungLpResult {
    /// Best feasible packing vector found (original scale).
    pub x: Vec<f64>,
    /// Its value `1ᵀx` — a certified lower bound on OPT.
    pub value: f64,
    /// Certified upper bound on OPT (from the last covering certificate).
    pub upper: f64,
    /// Total inner iterations across all decision calls.
    pub iterations: usize,
    /// Decision calls made by the bisection.
    pub calls: usize,
}

fn validate(cols: &[Vec<f64>], eps: f64) -> usize {
    let n = cols.len();
    assert!(n > 0, "need at least one column");
    let m = cols[0].len();
    assert!(m > 0, "need at least one row");
    for (i, c) in cols.iter().enumerate() {
        assert_eq!(c.len(), m, "column {i} has wrong length");
        assert!(c.iter().all(|&v| v >= 0.0), "column {i} has negative entries");
        assert!(c.iter().any(|&v| v > 0.0), "column {i} is zero (LP unbounded)");
    }
    assert!(eps > 0.0 && eps < 1.0);
    m
}

/// Decision core at threshold 1 (see module docs). Returns the outcome and
/// the iterations used.
pub fn young_decision(cols: &[Vec<f64>], eps: f64, max_iters: usize) -> (YoungDecision, usize) {
    let m = validate(cols, eps);
    let n = cols.len();
    let pc = paper_constants(n, eps);
    let k_threshold = pc.k_threshold;
    let alpha = pc.alpha * 16.0; // practical boost, mirroring the SDP solver

    let col_sums: Vec<f64> = cols.iter().map(|c| c.iter().sum()).collect();
    let mut x: Vec<f64> = col_sums.iter().map(|s| 1.0 / (n as f64 * s)).collect();
    let mut z = vec![0.0_f64; m]; // z = Dx, maintained incrementally
    for (i, c) in cols.iter().enumerate() {
        for (j, &v) in c.iter().enumerate() {
            z[j] += x[i] * v;
        }
    }

    let mut weights = vec![0.0_f64; m];
    let mut iters = 0;
    while iters < max_iters {
        iters += 1;
        let zmax = z.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        for (w, &zj) in weights.iter_mut().zip(&z) {
            *w = (zj - zmax).exp();
        }
        let wsum: f64 = weights.iter().sum();

        let mut updates: Vec<(usize, f64)> = Vec::new();
        let mut min_load = f64::INFINITY;
        for (i, c) in cols.iter().enumerate() {
            let load: f64 = c.iter().zip(&weights).map(|(a, w)| a * w).sum::<f64>() / wsum;
            min_load = min_load.min(load);
            if load <= 1.0 + eps {
                updates.push((i, alpha * x[i]));
            }
        }
        if updates.is_empty() {
            let y: Vec<f64> = weights.iter().map(|w| w / wsum).collect();
            return (YoungDecision::Primal { y, min_load }, iters);
        }
        for &(i, delta) in &updates {
            x[i] += delta;
            for (j, &v) in cols[i].iter().enumerate() {
                z[j] += delta * v;
            }
        }
        if x.iter().sum::<f64>() > k_threshold {
            break;
        }
    }

    // Dual exit: certify feasibility by the measured max load.
    let dx_max = z.iter().fold(0.0_f64, |a, &b| a.max(b)).max(1e-300);
    let scale = dx_max.max(1.0);
    let xs: Vec<f64> = x.iter().map(|v| v / scale).collect();
    let value = xs.iter().sum();
    (YoungDecision::Dual { x: xs, value }, iters)
}

/// Optimize the packing LP `max 1ᵀx, Dx ≤ 1, x ≥ 0` to `(1±O(ε))` by
/// geometric bisection over the decision core. `cols[i]` is column `i` of
/// `D`.
///
/// ```
/// use psdp_baselines::young_packing_lp;
///
/// // max x₁+x₂ s.t. 2x₁ ≤ 1, 4x₂ ≤ 1:  OPT = 0.75.
/// let r = young_packing_lp(&[vec![2.0, 0.0], vec![0.0, 4.0]], 0.1, 400_000);
/// assert!(r.value >= 0.75 * 0.7 && r.value <= 0.75);
/// assert!(r.upper >= 0.75 * (1.0 - 1e-9));
/// ```
///
/// # Panics
/// Panics on malformed input (see [`young_decision`]).
pub fn young_packing_lp(cols: &[Vec<f64>], eps: f64, max_iters: usize) -> YoungLpResult {
    let m = validate(cols, eps);
    let n = cols.len();

    // Structural bracket: xᵢ ≤ 1/max_j D_ji for any feasible point.
    let caps: Vec<f64> =
        cols.iter().map(|c| 1.0 / c.iter().fold(0.0_f64, |a, &b| a.max(b)).max(1e-300)).collect();
    let mut lo = caps.iter().fold(0.0_f64, |a, &b| a.max(b)) * 0.5;
    let mut hi = caps.iter().sum::<f64>() * 2.0;

    let mut best_x = vec![0.0; n];
    let mut best_value = 0.0;
    let mut iterations = 0;
    let mut calls = 0;

    while hi > lo * (1.0 + eps) && calls < 60 {
        calls += 1;
        let sigma = (lo * hi).sqrt();
        let scaled: Vec<Vec<f64>> =
            cols.iter().map(|c| c.iter().map(|v| v * sigma).collect()).collect();
        let (dec, it) = young_decision(&scaled, eps / 2.0, max_iters);
        iterations += it;
        match dec {
            YoungDecision::Dual { x, value } => {
                // x feasible for σD ⇒ σx feasible for D with value σ·value.
                let v = sigma * value;
                if v > best_value {
                    best_value = v;
                    best_x = x.iter().map(|xi| xi * sigma).collect();
                }
                lo = lo.max(v);
            }
            YoungDecision::Primal { min_load, .. } => {
                hi = hi.min(sigma / min_load.max(1e-12));
            }
        }
        if lo > hi {
            let mid = (lo * hi).sqrt();
            lo = mid;
            hi = mid;
        }
    }
    let _ = m;
    YoungLpResult { x: best_x, value: best_value, upper: hi, iterations, calls }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{packing_lp_opt, LpResult};

    fn exact(cols: &[Vec<f64>]) -> f64 {
        match packing_lp_opt(cols) {
            LpResult::Optimal { value, .. } => value,
            LpResult::Unbounded => panic!("unbounded"),
        }
    }

    fn check_instance(cols: &[Vec<f64>], eps: f64) {
        let r = young_packing_lp(cols, eps, 400_000);
        let opt = exact(cols);
        // Feasibility.
        let m = cols[0].len();
        for j in 0..m {
            let s: f64 = cols.iter().zip(&r.x).map(|(c, &xi)| c[j] * xi).sum();
            assert!(s <= 1.0 + 1e-9, "row {j} violated: {s}");
        }
        // Near-optimality.
        assert!(
            r.value >= opt * (1.0 - 3.0 * eps),
            "value {} too far below OPT {opt} (eps {eps})",
            r.value
        );
        assert!(r.value <= opt * (1.0 + 1e-9), "value above OPT?");
        // Upper bound brackets the optimum.
        assert!(r.upper >= opt * (1.0 - 1e-9), "upper {} below OPT {opt}", r.upper);
    }

    #[test]
    fn orthogonal_columns() {
        check_instance(&[vec![2.0, 0.0], vec![0.0, 4.0]], 0.1);
    }

    #[test]
    fn shared_row() {
        check_instance(&[vec![1.0, 1.0], vec![1.0, 1.0]], 0.1);
    }

    #[test]
    fn asymmetric_instance() {
        check_instance(&[vec![1.0, 0.5, 0.0], vec![0.2, 0.9, 0.3], vec![0.0, 0.1, 1.0]], 0.1);
    }

    #[test]
    fn wide_instance_many_columns() {
        let cols: Vec<Vec<f64>> = (0..10)
            .map(|i| (0..4).map(|j| (((i + j * 3) % 5) as f64) * 0.3 + 0.05).collect())
            .collect();
        check_instance(&cols, 0.15);
    }

    #[test]
    fn decision_primal_side_certifies() {
        // OPT = 1/3 < 1 ⇒ decision must come back primal with load > 1+ε.
        let (dec, _) = young_decision(&[vec![3.0, 3.0]], 0.2, 100_000);
        match dec {
            YoungDecision::Primal { y, min_load } => {
                assert!(min_load > 1.2);
                let ysum: f64 = y.iter().sum();
                assert!((ysum - 1.0).abs() < 1e-9);
            }
            YoungDecision::Dual { .. } => panic!("expected primal certificate"),
        }
    }

    #[test]
    fn decision_dual_side_on_feasible() {
        // OPT = 2 > 1 ⇒ dual outcome with value ≥ 1−O(ε).
        let (dec, _) = young_decision(&[vec![1.0, 0.0], vec![0.0, 1.0]], 0.2, 400_000);
        match dec {
            YoungDecision::Dual { x, value } => {
                assert!(value >= 0.7, "value {value}");
                assert!(x.iter().all(|&v| v <= 1.0 + 1e-9));
            }
            YoungDecision::Primal { .. } => panic!("expected dual"),
        }
    }

    #[test]
    #[should_panic]
    fn rejects_zero_column() {
        let _ = young_packing_lp(&[vec![0.0, 0.0]], 0.1, 100);
    }
}
