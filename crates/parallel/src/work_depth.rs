//! Analytic work–depth cost accounting.
//!
//! The paper states its complexity results in the work–depth model
//! (Corollary 1.2: `Õ(ε⁻⁶(n+m+q))` work, `O(ε⁻⁴ polylog)` depth). Wall-clock
//! measurements on a fixed machine cannot verify those *asymptotic* claims
//! directly, so the kernels additionally report analytic costs through this
//! module: each kernel states its [`Cost`] (parallel structure shows up as
//! depth below work, e.g. a reduction's `log₂ n`), and costs compose
//! **sequentially** with `+` (work and depth both add). Experiment E5 sums
//! these over a run and checks the scaling shape against the corollary.

use std::ops::Add;

/// An analytic (work, depth) pair, in abstract flop units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Total operation count across all processors.
    pub work: f64,
    /// Critical-path length.
    pub depth: f64,
}

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost { work: 0.0, depth: 0.0 };

    /// A purely sequential cost: `depth = work`.
    pub fn seq(work: f64) -> Cost {
        Cost { work, depth: work }
    }

    /// An ideally parallel cost with explicit depth.
    pub fn new(work: f64, depth: f64) -> Cost {
        Cost { work, depth }
    }

    /// Cost of a parallel reduction over `n` items of `item_work` each:
    /// work `n·item_work`, depth `item_work + log₂(n)`.
    pub fn reduce(n: usize, item_work: f64) -> Cost {
        if n == 0 {
            return Cost::ZERO;
        }
        Cost { work: n as f64 * item_work, depth: item_work + (n as f64).log2().max(0.0) }
    }

    /// Cost of a dense `r × c` mat-vec (or one sparse pass over `nnz`
    /// entries with `log` reduction depth): work `2·nnz`, depth `log₂ c`.
    pub fn matvec(nnz: usize, reduce_len: usize) -> Cost {
        Cost { work: 2.0 * nnz as f64, depth: (reduce_len.max(2) as f64).log2() }
    }
}

/// Sequential composition.
impl Add for Cost {
    type Output = Cost;
    fn add(self, other: Cost) -> Cost {
        Cost { work: self.work + other.work, depth: self.depth + other.depth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_composition_adds_both() {
        let c = Cost::seq(10.0) + Cost::seq(5.0);
        assert_eq!(c.work, 15.0);
        assert_eq!(c.depth, 15.0);
    }

    #[test]
    fn reduce_has_log_depth() {
        let c = Cost::reduce(1024, 1.0);
        assert_eq!(c.work, 1024.0);
        assert_eq!(c.depth, 11.0); // 1 + log2(1024)
        assert_eq!(Cost::reduce(0, 5.0), Cost::ZERO);
    }

    #[test]
    fn matvec_cost_shape() {
        let c = Cost::matvec(1000, 100);
        assert_eq!(c.work, 2000.0);
        assert!((c.depth - 100f64.log2()).abs() < 1e-12);
    }
}
