//! E1 / E2 — iteration-count scaling of `decisionPSDP` under the paper's
//! constants (Theorem 3.1: `R = O(ε⁻³ log² n)`, never exceeded; measured
//! iterations should track the bound's shape).

use crate::table::{f, Table};
use psdp_core::{ours_decision_iterations, DecisionOptions, Outcome, PackingInstance, Solver};
use psdp_workloads::{random_factorized, RandomFactorized};

/// One strict-constants decision solve through the session API.
fn strict_solve(inst: &PackingInstance, eps: f64) -> psdp_core::DecisionResult {
    let solver =
        Solver::builder(inst).options(DecisionOptions::strict(eps)).build().expect("build");
    solver.session().solve(1.0).expect("solve")
}

/// Build a feasible-side instance (OPT ≈ 2–3) so runs exercise the dual
/// exit, which is the path whose iteration count Theorem 3.1 bounds.
fn instance(n: usize, m: usize, seed: u64) -> PackingInstance {
    let mats = random_factorized(&RandomFactorized {
        dim: m,
        n,
        rank: 2,
        nnz_per_col: 3,
        width: 1.0,
        seed,
    });
    // λmax ≈ 1 each ⇒ OPT ≥ 1; scale down to push OPT up to ≈ 2.5.
    PackingInstance::new(mats).expect("valid instance").scaled(0.4)
}

/// E1: iterations vs `n` at fixed ε, paper-strict constants.
pub fn e1_iterations_vs_n() -> Table {
    let eps = 0.25;
    let m = 10;
    let mut t = Table::new(
        format!("E1: decisionPSDP iterations vs n (paper constants, eps={eps}, m={m})"),
        &["n", "K", "alpha", "R(bound)", "iters", "iters/R", "iters/ln^2(n)", "exit"],
    );
    for &n in &[4usize, 8, 16, 32, 64] {
        let inst = instance(n, m, 42);
        let res = strict_solve(&inst, eps);
        let bound = ours_decision_iterations(n, eps);
        let ln2 = (n as f64).ln().powi(2).max(1e-9);
        let exit = match res.outcome {
            Outcome::Dual(_) => "dual",
            Outcome::Primal(_) => "primal",
        };
        t.row(vec![
            n.to_string(),
            f(res.stats.k_threshold),
            f(res.stats.alpha),
            f(bound),
            res.stats.iterations.to_string(),
            f(res.stats.iterations as f64 / bound),
            f(res.stats.iterations as f64 / ln2),
            exit.into(),
        ]);
    }
    t
}

/// E2: iterations vs ε at fixed `n`, paper-strict constants.
pub fn e2_iterations_vs_eps() -> Table {
    let n = 16;
    let m = 10;
    let mut t = Table::new(
        format!("E2: decisionPSDP iterations vs eps (paper constants, n={n}, m={m})"),
        &["eps", "R(bound)", "iters", "iters/R", "iters*eps^2", "exit"],
    );
    for &eps in &[0.5, 0.4, 0.3, 0.25, 0.2] {
        let inst = instance(n, m, 7);
        let res = strict_solve(&inst, eps);
        let bound = ours_decision_iterations(n, eps);
        let exit = match res.outcome {
            Outcome::Dual(_) => "dual",
            Outcome::Primal(_) => "primal",
        };
        t.row(vec![
            f(eps),
            f(bound),
            res.stats.iterations.to_string(),
            f(res.stats.iterations as f64 / bound),
            f(res.stats.iterations as f64 * eps * eps),
            exit.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_produces_rows_within_bound() {
        let t = e1_iterations_vs_n();
        assert_eq!(t.len(), 5);
        // The rendered iters/R column must never exceed 1 (Theorem 3.1).
        for line in t.render().lines().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            if cells.len() >= 6 {
                let ratio: f64 = cells[5].parse().unwrap_or(0.0);
                assert!(ratio <= 1.0 + 1e-9, "iterations exceeded R: {line}");
            }
        }
    }

    #[test]
    fn e2_produces_rows() {
        let t = e2_iterations_vs_eps();
        assert_eq!(t.len(), 5);
    }
}
