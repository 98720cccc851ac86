//! The paper's constants `(K, α, R)` for Algorithm 3.1, and closed-form
//! iteration-bound calculators for the solvers the paper compares
//! (Section 1.1's complexity discussion).
//!
//! Jain–Yao '11 cannot be *run* at any interesting size — its bound is
//! `O(ε⁻¹³ log¹³ m · log n)` iterations of `Ω(m^ω)` work each — so
//! experiment E7 compares bound *formulas* (all with constant 1, i.e. as
//! printed these are the bounds' growth terms, not calibrated constants)
//! alongside measured iteration counts for the runnable algorithms.

/// Parameters of Algorithm 3.1 for a given `(n, ε)`:
/// `K = (1 + ln n)/ε`, `α = ε / (K(1+10ε))`, `R = (32/(εα)) ln max(n, 2)`.
///
/// `R` floors `n` at 2: with one active coordinate `ln n = 0` would cap a
/// paper-strict run at a single iteration, too few for either exit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperConstants {
    /// Dual-norm termination threshold `K`.
    pub k_threshold: f64,
    /// Multiplicative step size `α`.
    pub alpha: f64,
    /// Iteration cap `R`.
    pub r_cap: f64,
}

/// Compute the paper's constants for `n` constraints at accuracy `ε`.
///
/// # Panics
/// Panics unless `0 < eps < 1` and `n ≥ 1`.
pub fn paper_constants(n: usize, eps: f64) -> PaperConstants {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
    assert!(n >= 1, "need at least one constraint");
    let ln_n = (n as f64).ln().max(1e-9);
    let k = (1.0 + ln_n) / eps;
    let alpha = eps / (k * (1.0 + 10.0 * eps));
    let r = 32.0 / (eps * alpha) * (n.max(2) as f64).ln();
    PaperConstants { k_threshold: k, alpha, r_cap: r }
}

/// Our decision-procedure iteration bound `R = O(ε⁻³ log² n)` (Theorem 3.1),
/// with the paper's explicit constants.
pub fn ours_decision_iterations(n: usize, eps: f64) -> f64 {
    paper_constants(n, eps).r_cap
}

/// Jain–Yao 2011 iteration bound `ε⁻¹³ log¹³ m · log n` (constant 1).
pub fn jain_yao_iterations(m: usize, n: usize, eps: f64) -> f64 {
    assert!(eps > 0.0 && eps < 1.0);
    let lm = (m.max(2) as f64).ln();
    let ln = (n.max(2) as f64).ln();
    eps.powi(-13) * lm.powi(13) * ln
}

/// Width-dependent MMW packing bound `ρ ln(m) / ε²` for the primal–dual
/// best-response oracle (Arora–Kale style; ρ is the width of the oracle's
/// responses — PST-style general oracles pay `ρ²`). This matches the
/// baseline implemented in `psdp-baselines::ak` and is the quantity the
/// width-independence experiment (E3) shows growing while ours stays flat.
pub fn width_dependent_iterations(rho: f64, m: usize, eps: f64) -> f64 {
    assert!(rho >= 1.0, "width at least 1");
    assert!(eps > 0.0 && eps < 1.0);
    rho * (m.max(2) as f64).ln() / (eps * eps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_formulas() {
        let c = paper_constants(100, 0.1);
        let ln_n = 100f64.ln();
        assert!((c.k_threshold - (1.0 + ln_n) / 0.1).abs() < 1e-12);
        assert!((c.alpha - 0.1 / (c.k_threshold * 2.0)).abs() < 1e-12);
        assert!((c.r_cap - 32.0 / (0.1 * c.alpha) * ln_n).abs() < 1e-9);
    }

    #[test]
    fn ours_scales_as_eps_cubed() {
        // R = 32 (1+ln n)(1+10ε) ln(n) / ε³, so halving ε multiplies R by
        // 8 · (1+5ε)/(1+10ε) → 8 as ε → 0.
        let r1 = ours_decision_iterations(1000, 0.02);
        let r2 = ours_decision_iterations(1000, 0.01);
        let ratio = r2 / r1;
        let want = 8.0 * (1.0 + 10.0 * 0.01) / (1.0 + 10.0 * 0.02);
        assert!((ratio - want).abs() < 1e-9, "ratio {ratio} want {want}");
        // And the ε→0 limit is indeed the cubic law.
        let r3 = ours_decision_iterations(1000, 2e-4);
        let r4 = ours_decision_iterations(1000, 1e-4);
        assert!((r4 / r3 - 8.0).abs() < 0.02, "asymptotic ratio {}", r4 / r3);
    }

    #[test]
    fn ours_scales_as_log_squared_n() {
        // R(n²)/R(n) → 4 for large n at fixed eps.
        let r1 = ours_decision_iterations(1_000, 0.1);
        let r2 = ours_decision_iterations(1_000_000, 0.1);
        let l1 = 1_000f64.ln();
        let l2 = 1_000_000f64.ln();
        let want = ((1.0 + l2) * l2) / ((1.0 + l1) * l1);
        assert!((r2 / r1 - want).abs() < 1e-6);
    }

    #[test]
    fn jain_yao_dwarfs_ours() {
        // The headline comparison: at m = n = 64, eps = 0.1, JY'11's bound is
        // astronomically larger than ours.
        let ours = ours_decision_iterations(64, 0.1);
        let jy = jain_yao_iterations(64, 64, 0.1);
        assert!(jy / ours > 1e12, "jy {jy} vs ours {ours}");
    }

    #[test]
    fn width_dependence_linear() {
        let a = width_dependent_iterations(2.0, 64, 0.1);
        let b = width_dependent_iterations(4.0, 64, 0.1);
        assert!((b / a - 2.0).abs() < 1e-12);
    }
}
