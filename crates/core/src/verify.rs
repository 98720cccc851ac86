//! Numerical certification of solutions.
//!
//! Every solution the solver returns can be re-checked against the instance
//! with exact (eigensolver-backed) linear algebra, independent of which
//! engine or constants mode produced it. The experiments report these
//! certificates, so a buggy fast path cannot silently inflate results.
//!
//! [`certify_decision`], [`certify_packing`] and [`certify_mixed`] are the
//! one certification entry point for whole solver results, at the named
//! tolerances below: the one-shot `psdp solve|optimize|mixed` commands and
//! the serving executor both call them, so a certificate means the same
//! thing on every surface.

use crate::approx::PackingReport;
use crate::decision::DecisionResult;
use crate::instance::{MixedInstance, PackingInstance};
use crate::mixed::MixedReport;
use crate::solution::{DualSolution, MixedCertificate, MixedFeasible, Outcome, PrimalSolution};
use psdp_linalg::{sym_eigen, vecops};

/// Tolerance a dual (packing) solution is certified at: `λmax ≤ 1 + DUAL_TOL`.
pub const DUAL_TOL: f64 = 1e-8;

/// Tolerance a primal (covering) solution is certified at: `Tr Y = 1`,
/// `Y ⪰ 0` and `Aᵢ • Y ≥ 1` each up to `PRIMAL_TOL`.
pub const PRIMAL_TOL: f64 = 1e-5;

/// Tolerance mixed feasible points and infeasibility witnesses are
/// certified at.
pub const MIXED_TOL: f64 = 1e-7;

/// Relative slack under a mixed report's certified lower threshold at which
/// its best point is re-checked: coverage `≥ threshold_lower·(1 − MIXED_SIGMA_SLACK)`.
pub const MIXED_SIGMA_SLACK: f64 = 1e-9;

/// `min` that propagates NaN (`f64::min` drops it), so a NaN entry fails
/// every certificate comparison instead of being skipped.
fn nan_min(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.min(b)
    }
}

/// Result of checking a dual (packing) solution.
#[derive(Debug, Clone, Copy)]
pub struct DualCertificate {
    /// Measured `λmax(Σ xᵢAᵢ)`; feasible iff `≤ 1` (up to `tol`).
    pub lambda_max: f64,
    /// The packing value `1ᵀx`.
    pub value: f64,
    /// Whether the solution passes at the requested tolerance.
    pub feasible: bool,
}

/// Result of checking a primal (covering) solution.
#[derive(Debug, Clone, Copy)]
pub struct PrimalCertificate {
    /// `Tr Y` (should be 1). `NaN` when no dense `Y` was accumulated.
    pub trace: f64,
    /// Measured `minᵢ Aᵢ • Y` (from the dense `Y` if present, otherwise the
    /// solver's reported averages).
    pub min_dot: f64,
    /// Smallest eigenvalue of `Y` (PSD check); `NaN` without a dense `Y`.
    pub lambda_min: f64,
    /// Whether the matrix itself was checked (vs engine-reported averages).
    pub matrix_checked: bool,
    /// Whether the solution passes at the requested tolerance.
    pub feasible: bool,
}

/// Certify a dual solution: `x ≥ 0`, `λmax(Σ xᵢAᵢ) ≤ 1 + tol`.
pub fn verify_dual(inst: &PackingInstance, sol: &DualSolution, tol: f64) -> DualCertificate {
    let nonneg = sol.x.iter().all(|&v| v >= -tol);
    let psi = inst.weighted_sum(&sol.x);
    let lambda_max = match sym_eigen(&psi) {
        Ok(e) => e.lambda_max(),
        Err(_) => f64::INFINITY,
    };
    let value = vecops::sum(&sol.x);
    DualCertificate { lambda_max, value, feasible: nonneg && lambda_max <= 1.0 + tol }
}

/// Certify a primal solution: `Tr Y = 1`, `Y ⪰ 0`, `Aᵢ • Y ≥ 1 − tol`.
///
/// When the dense `Y` is available the dots are recomputed from it;
/// otherwise the solver-reported averages are used and
/// `matrix_checked = false` records the weaker evidence.
pub fn verify_primal(inst: &PackingInstance, sol: &PrimalSolution, tol: f64) -> PrimalCertificate {
    match &sol.y {
        Some(y) => {
            let trace = y.trace();
            let lambda_min = match sym_eigen(y) {
                Ok(e) => e.lambda_min(),
                Err(_) => f64::NEG_INFINITY,
            };
            let min_dot = inst.mats().iter().map(|a| a.dot_dense(y)).fold(f64::INFINITY, nan_min);
            let feasible = (trace - 1.0).abs() <= tol && lambda_min >= -tol && min_dot >= 1.0 - tol;
            PrimalCertificate { trace, min_dot, lambda_min, matrix_checked: true, feasible }
        }
        None => {
            let min_dot = sol.min_dot;
            PrimalCertificate {
                trace: f64::NAN,
                min_dot,
                lambda_min: f64::NAN,
                matrix_checked: false,
                feasible: min_dot >= 1.0 - tol,
            }
        }
    }
}

/// Result of checking a mixed feasible point against a
/// [`MixedInstance`] at coverage threshold `sigma`.
#[derive(Debug, Clone, Copy)]
pub struct MixedFeasibleCertificate {
    /// Measured `λmax(Σ xᵢPᵢ)`; packing-feasible iff `≤ 1` (up to `tol`).
    pub pack_lambda_max: f64,
    /// Measured `λmin(Σ xᵢCᵢ)`; covers threshold `sigma` iff
    /// `≥ sigma·(1 − tol)`.
    pub cover_lambda_min: f64,
    /// Whether the point passes both sides at the requested tolerance.
    pub feasible: bool,
}

/// Result of checking a mixed infeasibility certificate.
#[derive(Debug, Clone, Copy)]
pub struct MixedInfeasibleCertificate {
    /// Re-measured pricing margin `minₖ σ·(Pₖ•Y_P)/(Cₖ•Y_C)` (from the
    /// dense weight matrices when both are present, otherwise from the
    /// solver-reported dots).
    pub margin: f64,
    /// The coverage threshold the certificate proves unreachable:
    /// `σ* ≤ σ/margin`.
    pub refuted_threshold: f64,
    /// Whether **both** weight matrices were re-checked (trace 1, PSD,
    /// dots recomputed). Sides without a materialized matrix fall back
    /// to the solver-reported dot products (each side is re-measured
    /// independently whenever its matrix is present).
    pub matrix_checked: bool,
    /// Whether the certificate is valid at the requested tolerance:
    /// margin `> 1` and every present weight matrix is trace-1 PSD.
    pub valid: bool,
}

/// Certify a mixed feasible point: `x ≥ 0`, `λmax(Σ xᵢPᵢ) ≤ 1 + tol`,
/// `λmin(Σ xᵢCᵢ) ≥ sigma·(1 − tol)`. Both aggregates are rebuilt from the
/// instance and measured with the exact eigensolver — the certificate is
/// independent of whichever engine produced `sol`.
pub fn verify_mixed_feasible(
    inst: &MixedInstance,
    sol: &MixedFeasible,
    sigma: f64,
    tol: f64,
) -> MixedFeasibleCertificate {
    let nonneg = sol.x.iter().all(|&v| v >= -tol);
    let psi_p = inst.pack().weighted_sum(&sol.x);
    let pack_lambda_max = match sym_eigen(&psi_p) {
        Ok(e) => e.lambda_max(),
        Err(_) => f64::INFINITY,
    };
    let psi_c = inst.cover().weighted_sum(&sol.x);
    let cover_lambda_min = match sym_eigen(&psi_c) {
        Ok(e) => e.lambda_min(),
        Err(_) => f64::NEG_INFINITY,
    };
    let feasible =
        nonneg && pack_lambda_max <= 1.0 + tol && cover_lambda_min >= sigma * (1.0 - tol);
    MixedFeasibleCertificate { pack_lambda_max, cover_lambda_min, feasible }
}

/// Certify a mixed infeasibility certificate (see
/// [`MixedCertificate`] for the pricing argument). Each weight matrix is
/// verified independently when present — checked to be trace-1 PSD with
/// its dot products recomputed from the instance — so a sketched packing
/// engine (`y_pack = None`) still gets its covering side re-measured
/// (the covering weights are always materialized). `matrix_checked` is
/// `true` only when *both* sides were re-measured; sides without a
/// matrix fall back to the solver-reported dots. The pricing minimum
/// runs over the certificate's active mask — with Lemma-2.2 pruning in
/// play the certificate refutes the *restricted* instance, and the
/// bisection adds the pruned coordinates' certified coverage slack on
/// top.
pub fn verify_mixed_infeasible(
    inst: &MixedInstance,
    cert: &MixedCertificate,
    tol: f64,
) -> MixedInfeasibleCertificate {
    let sigma = cert.sigma;
    let weight_ok = |y: &psdp_linalg::Mat| {
        (y.trace() - 1.0).abs() <= tol
            && match sym_eigen(y) {
                Ok(e) => e.lambda_min() >= -tol,
                Err(_) => false,
            }
    };
    let (pack_dots, pack_checked, pack_ok) = match &cert.y_pack {
        Some(yp) => (
            inst.pack().mats().iter().map(|a| a.dot_dense(yp)).collect::<Vec<f64>>(),
            true,
            weight_ok(yp),
        ),
        None => (cert.pack_dots.clone(), false, true),
    };
    let (cover_dots, cover_checked, cover_ok) = match &cert.y_cover {
        Some(yc) => (
            inst.cover().mats().iter().map(|a| a.dot_dense(yc)).collect::<Vec<f64>>(),
            true,
            weight_ok(yc),
        ),
        None => (cert.cover_dots.clone(), false, true),
    };
    let matrix_checked = pack_checked && cover_checked;
    let matrices_ok = pack_ok && cover_ok;
    let is_active = |k: usize| cert.active.get(k).copied().unwrap_or(true);
    let mut counted = 0usize;
    let margin = pack_dots
        .iter()
        .zip(&cover_dots)
        .enumerate()
        .filter(|&(k, _)| is_active(k))
        .map(|(_, (&p, &c))| {
            counted += 1;
            // A NaN covering value falls through to the division, so it
            // poisons the margin rather than pricing the coordinate out.
            if c <= 0.0 {
                f64::INFINITY
            } else {
                sigma * p / c
            }
        })
        .fold(f64::INFINITY, nan_min);
    // Reject vacuous certificates outright: the pricing minimum must have
    // actually run over every coordinate (short dot vectors would silently
    // truncate the zip) and priced at least one active one. An *infinite*
    // margin (every active covering value 0, so λmin(Σ xC) ≤ 0) is only
    // meaningful when backed by a re-measured trace-1 PSD `Y_C` — from
    // reported numbers alone it is indistinguishable from garbage.
    let structurally_ok = counted > 0
        && pack_dots.len() == inst.pack().n()
        && cover_dots.len() == inst.cover().n()
        && (margin.is_finite() || cover_checked);
    MixedInfeasibleCertificate {
        margin,
        refuted_threshold: sigma / margin.max(1e-300),
        matrix_checked,
        valid: matrices_ok && structurally_ok && margin > 1.0 + tol,
    }
}

/// The certificate of a [`DecisionResult`]: whichever side it returned,
/// re-checked against the instance.
#[derive(Debug, Clone, Copy)]
pub enum DecisionCertificate {
    /// The result was dual-side; [`verify_dual`] at [`DUAL_TOL`].
    Dual(DualCertificate),
    /// The result was primal-side; [`verify_primal`] at [`PRIMAL_TOL`].
    Primal(PrimalCertificate),
}

impl DecisionCertificate {
    /// The dual-side certificate, if the result was dual-side.
    pub fn dual(&self) -> Option<&DualCertificate> {
        match self {
            DecisionCertificate::Dual(c) => Some(c),
            DecisionCertificate::Primal(_) => None,
        }
    }

    /// The primal-side certificate, if the result was primal-side.
    pub fn primal(&self) -> Option<&PrimalCertificate> {
        match self {
            DecisionCertificate::Primal(c) => Some(c),
            DecisionCertificate::Dual(_) => None,
        }
    }
}

/// The certificate of a [`PackingReport`]: its best dual, re-checked.
#[derive(Debug, Clone, Copy)]
pub struct PackingReportCertificate {
    /// [`verify_dual`] of `best_dual` at [`DUAL_TOL`]; `None` exactly when
    /// the report has no best dual.
    pub best_dual: Option<DualCertificate>,
}

/// The certificate of a [`MixedReport`]: its best point and its
/// infeasibility witness, each re-checked.
#[derive(Debug, Clone, Copy)]
pub struct MixedReportCertificate {
    /// [`verify_mixed_feasible`] of `best_point` at coverage
    /// `threshold_lower·(1 − MIXED_SIGMA_SLACK)` and [`MIXED_TOL`]; `None`
    /// exactly when the report has no best point.
    pub best_point: Option<MixedFeasibleCertificate>,
    /// [`verify_mixed_infeasible`] of `infeasibility_witness` at
    /// [`MIXED_TOL`]; `None` exactly when the report has no witness.
    pub infeasibility: Option<MixedInfeasibleCertificate>,
}

/// Certify a decision result on whichever side it returned.
pub fn certify_decision(inst: &PackingInstance, res: &DecisionResult) -> DecisionCertificate {
    match &res.outcome {
        Outcome::Dual(d) => DecisionCertificate::Dual(verify_dual(inst, d, DUAL_TOL)),
        Outcome::Primal(p) => DecisionCertificate::Primal(verify_primal(inst, p, PRIMAL_TOL)),
    }
}

/// Certify a packing bisection report's best dual.
pub fn certify_packing(inst: &PackingInstance, r: &PackingReport) -> PackingReportCertificate {
    PackingReportCertificate {
        best_dual: r.best_dual.as_ref().map(|d| verify_dual(inst, d, DUAL_TOL)),
    }
}

/// Certify a mixed bisection report's best point and infeasibility witness.
pub fn certify_mixed(inst: &MixedInstance, r: &MixedReport) -> MixedReportCertificate {
    let sigma = r.threshold_lower * (1.0 - MIXED_SIGMA_SLACK);
    MixedReportCertificate {
        best_point: r.best_point.as_ref().map(|p| verify_mixed_feasible(inst, p, sigma, MIXED_TOL)),
        infeasibility: r
            .infeasibility_witness
            .as_ref()
            .map(|w| verify_mixed_infeasible(inst, w, MIXED_TOL)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::decision_psdp;
    use crate::options::DecisionOptions;
    use crate::solution::Outcome;
    use psdp_linalg::Mat;
    use psdp_sparse::PsdMatrix;

    fn inst2() -> PackingInstance {
        PackingInstance::new(vec![
            PsdMatrix::Diagonal(vec![1.0, 0.0]),
            PsdMatrix::Diagonal(vec![0.0, 1.0]),
        ])
        .unwrap()
    }

    #[test]
    fn verifies_known_feasible_dual() {
        let inst = inst2();
        let sol = DualSolution { x: vec![0.9, 0.8], value: 1.7, feasibility_scale: 1.0 };
        let c = verify_dual(&inst, &sol, 1e-9);
        assert!(c.feasible);
        assert!((c.lambda_max - 0.9).abs() < 1e-12);
        assert!((c.value - 1.7).abs() < 1e-12);
    }

    #[test]
    fn rejects_infeasible_dual() {
        let inst = inst2();
        let sol = DualSolution { x: vec![1.5, 0.2], value: 1.7, feasibility_scale: 1.0 };
        let c = verify_dual(&inst, &sol, 1e-9);
        assert!(!c.feasible);
    }

    #[test]
    fn rejects_negative_dual() {
        let inst = inst2();
        let sol = DualSolution { x: vec![-0.5, 0.2], value: -0.3, feasibility_scale: 1.0 };
        assert!(!verify_dual(&inst, &sol, 1e-9).feasible);
    }

    #[test]
    fn verifies_primal_with_matrix() {
        let inst = PackingInstance::new(vec![PsdMatrix::Diagonal(vec![2.0, 2.0])]).unwrap();
        let y = Mat::from_diag(&[0.5, 0.5]);
        let sol = PrimalSolution {
            constraint_dots: vec![2.0],
            y: Some(y),
            min_dot: 2.0,
            rounds_averaged: 1,
        };
        let c = verify_primal(&inst, &sol, 1e-9);
        assert!(c.feasible);
        assert!(c.matrix_checked);
        assert!((c.trace - 1.0).abs() < 1e-12);
        assert!((c.min_dot - 2.0).abs() < 1e-12);
    }

    #[test]
    fn primal_without_matrix_uses_reported_dots() {
        let inst = inst2();
        let sol = PrimalSolution {
            constraint_dots: vec![1.2, 1.1],
            y: None,
            min_dot: 1.1,
            rounds_averaged: 5,
        };
        let c = verify_primal(&inst, &sol, 1e-6);
        assert!(c.feasible);
        assert!(!c.matrix_checked);
        assert!(c.trace.is_nan());
    }

    #[test]
    fn mixed_feasible_verification_both_sides() {
        // P = diag(2, 2), C = diag(1, 3): x = 0.4 has λmax(ΣxP) = 0.8,
        // λmin(ΣxC) = 0.4.
        let inst = MixedInstance::new(
            vec![PsdMatrix::Diagonal(vec![2.0, 2.0])],
            vec![PsdMatrix::Diagonal(vec![1.0, 3.0])],
        )
        .unwrap();
        let sol = MixedFeasible { x: vec![0.4], pack_lambda_max: 0.8, cover_lambda_min: 0.4 };
        let c = verify_mixed_feasible(&inst, &sol, 0.4, 1e-9);
        assert!(c.feasible);
        assert!((c.pack_lambda_max - 0.8).abs() < 1e-12);
        assert!((c.cover_lambda_min - 0.4).abs() < 1e-12);
        // Asking for more coverage than the point delivers must fail.
        assert!(!verify_mixed_feasible(&inst, &sol, 0.6, 1e-9).feasible);
        // Packing violations must fail too.
        let bad = MixedFeasible { x: vec![0.6], pack_lambda_max: 1.2, cover_lambda_min: 0.6 };
        assert!(!verify_mixed_feasible(&inst, &bad, 0.1, 1e-9).feasible);
    }

    #[test]
    fn mixed_infeasible_verification_margin() {
        // P = diag(2, 2), C = diag(1, 1): σ* = 1/2. At σ = 2 the uniform
        // weight pair prices every coordinate out with margin σ·2/1 = 4.
        let inst = MixedInstance::new(
            vec![PsdMatrix::Diagonal(vec![2.0, 2.0])],
            vec![PsdMatrix::Diagonal(vec![1.0, 1.0])],
        )
        .unwrap();
        let half = Mat::from_diag(&[0.5, 0.5]);
        let cert = MixedCertificate {
            sigma: 2.0,
            y_pack: Some(half.clone()),
            y_cover: Some(half),
            pack_dots: vec![2.0],
            cover_dots: vec![1.0],
            active: vec![true],
            margin: 4.0,
        };
        let v = verify_mixed_infeasible(&inst, &cert, 1e-9);
        assert!(v.valid);
        assert!(v.matrix_checked);
        assert!((v.margin - 4.0).abs() < 1e-12);
        // The refuted threshold bounds the true optimum σ* = 1/2.
        assert!((v.refuted_threshold - 0.5).abs() < 1e-12);

        // A non-trace-1 weight matrix invalidates the certificate.
        let bad = MixedCertificate { y_pack: Some(Mat::from_diag(&[0.5, 0.9])), ..cert.clone() };
        assert!(!verify_mixed_infeasible(&inst, &bad, 1e-9).valid);
    }

    #[test]
    fn mixed_infeasible_rejects_vacuous_certificates() {
        let inst = MixedInstance::new(
            vec![PsdMatrix::Diagonal(vec![2.0, 2.0])],
            vec![PsdMatrix::Diagonal(vec![1.0, 1.0])],
        )
        .unwrap();
        // All-inactive mask: nothing was priced — not a proof of anything.
        let vacuous = MixedCertificate {
            sigma: 1.0,
            y_pack: None,
            y_cover: None,
            pack_dots: vec![2.0],
            cover_dots: vec![1.0],
            active: vec![false],
            margin: 2.0,
        };
        assert!(!verify_mixed_infeasible(&inst, &vacuous, 1e-9).valid);
        // Truncated dot vectors silently shorten the zip: reject.
        let truncated = MixedCertificate {
            pack_dots: vec![],
            cover_dots: vec![],
            active: vec![true],
            ..vacuous.clone()
        };
        assert!(!verify_mixed_infeasible(&inst, &truncated, 1e-9).valid);
        // An infinite margin from *reported* numbers alone is untrusted…
        let unbacked = MixedCertificate {
            cover_dots: vec![0.0],
            active: vec![true],
            margin: f64::INFINITY,
            ..vacuous.clone()
        };
        assert!(!verify_mixed_infeasible(&inst, &unbacked, 1e-9).valid);
        // …but becomes acceptable when a re-measured Y_C backs it. (Here
        // C•Y_C = 1 ≠ 0, so the margin is finite after re-measurement and
        // the certificate is judged on the re-measured numbers.)
        let backed = MixedCertificate { y_cover: Some(Mat::from_diag(&[0.5, 0.5])), ..unbacked };
        let v = verify_mixed_infeasible(&inst, &backed, 1e-9);
        assert!(v.margin.is_finite(), "re-measured cover dots must replace the reported zeros");
    }

    #[test]
    fn mixed_infeasible_cover_side_checked_without_pack_matrix() {
        // Sketched packing engines leave y_pack = None; the covering
        // matrix must still be independently re-measured.
        let inst = MixedInstance::new(
            vec![PsdMatrix::Diagonal(vec![2.0, 2.0])],
            vec![PsdMatrix::Diagonal(vec![1.0, 1.0])],
        )
        .unwrap();
        let half = Mat::from_diag(&[0.5, 0.5]);
        let cert = MixedCertificate {
            sigma: 2.0,
            y_pack: None,
            y_cover: Some(half),
            pack_dots: vec![2.0],
            // Inflated reported cover value: the re-measurement from
            // y_cover (C•Y = 1.0) must override it.
            cover_dots: vec![100.0],
            active: vec![true],
            margin: 4.0,
        };
        let v = verify_mixed_infeasible(&inst, &cert, 1e-9);
        assert!(!v.matrix_checked, "only one side had a matrix");
        assert!((v.margin - 4.0).abs() < 1e-12, "cover side not re-measured: {v:?}");
        // A broken covering weight matrix invalidates the certificate
        // even without a packing matrix.
        let bad = MixedCertificate { y_cover: Some(Mat::from_diag(&[0.5, 0.9])), ..cert };
        assert!(!verify_mixed_infeasible(&inst, &bad, 1e-9).valid);
    }

    #[test]
    fn nan_reported_pack_dot_fails_mixed_infeasible_certificate() {
        // Two coordinates, P = diag(2, 2), C = diag(1, 1) each: the
        // re-measured cover side prices coordinate 2 at margin 4, but the
        // engine-reported packing dot of coordinate 1 is NaN. The minimum
        // must not skip it.
        let p = || PsdMatrix::Diagonal(vec![2.0, 2.0]);
        let c = || PsdMatrix::Diagonal(vec![1.0, 1.0]);
        let inst = MixedInstance::new(vec![p(), p()], vec![c(), c()]).unwrap();
        let cert = MixedCertificate {
            sigma: 2.0,
            y_pack: None,
            y_cover: Some(Mat::from_diag(&[0.5, 0.5])),
            pack_dots: vec![f64::NAN, 2.0],
            cover_dots: vec![1.0, 1.0],
            active: vec![true, true],
            margin: 4.0,
        };
        let v = verify_mixed_infeasible(&inst, &cert, 1e-9);
        assert!(v.margin.is_nan(), "NaN dot dropped from the margin: {v:?}");
        assert!(!v.valid);
        // A NaN reported covering dot poisons the margin too, rather than
        // pricing its coordinate out as if it were zero.
        let nan_cover = MixedCertificate {
            y_cover: None,
            pack_dots: vec![2.0, 2.0],
            cover_dots: vec![f64::NAN, 1.0],
            ..cert
        };
        let v = verify_mixed_infeasible(&inst, &nan_cover, 1e-9);
        assert!(v.margin.is_nan() && !v.valid, "{v:?}");
    }

    #[test]
    fn nan_dense_dot_fails_primal_certificate() {
        // A NaN off-diagonal entry of Y leaves its trace at 1 but makes
        // A₁ • Y NaN; the reported minimum must be NaN, not A₂ • Y = 4.
        let inst = PackingInstance::new(vec![
            PsdMatrix::Dense(Mat::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]])),
            PsdMatrix::Diagonal(vec![4.0, 4.0]),
        ])
        .unwrap();
        let y = Mat::from_rows(&[&[0.5, f64::NAN], &[f64::NAN, 0.5]]);
        let sol = PrimalSolution {
            constraint_dots: vec![1.0, 4.0],
            y: Some(y),
            min_dot: 1.0,
            rounds_averaged: 1,
        };
        let c = verify_primal(&inst, &sol, 1e-9);
        assert!(c.matrix_checked);
        assert!(c.min_dot.is_nan(), "NaN dot dropped from the minimum: {c:?}");
        assert!(!c.feasible);
    }

    #[test]
    fn certify_entry_points_match_the_named_tolerance_calls() {
        let inst = inst2();
        let mut sides = Vec::new();
        for threshold in [0.5, 4.0] {
            let solver = crate::Solver::builder(&inst)
                .options(DecisionOptions::practical(0.2))
                .build()
                .unwrap();
            let res = solver.session().solve(threshold).unwrap();
            sides.push(matches!(res.outcome, Outcome::Dual(_)));
            match (&res.outcome, certify_decision(&inst, &res)) {
                (Outcome::Dual(d), DecisionCertificate::Dual(c)) => {
                    let want = verify_dual(&inst, d, DUAL_TOL);
                    assert_eq!(c.lambda_max.to_bits(), want.lambda_max.to_bits());
                    assert_eq!(c.feasible, want.feasible);
                }
                (Outcome::Primal(p), DecisionCertificate::Primal(c)) => {
                    let want = verify_primal(&inst, p, PRIMAL_TOL);
                    assert_eq!(c.min_dot.to_bits(), want.min_dot.to_bits());
                    assert_eq!(c.feasible, want.feasible);
                }
                (o, c) => panic!("certificate side does not match the outcome: {o:?} / {c:?}"),
            }
        }
        assert_eq!(sides, [true, false], "both sides must be exercised");
    }

    #[test]
    fn solver_outputs_pass_verification() {
        // End-to-end: whatever side the solver certifies must verify.
        let insts = [
            inst2(),
            PackingInstance::new(vec![PsdMatrix::Diagonal(vec![3.0, 3.0, 3.0])]).unwrap(),
        ];
        for inst in &insts {
            let res = decision_psdp(inst, &DecisionOptions::practical(0.2)).unwrap();
            match res.outcome {
                Outcome::Dual(d) => {
                    assert!(verify_dual(inst, &d, 1e-8).feasible, "dual failed verify");
                }
                Outcome::Primal(p) => {
                    assert!(verify_primal(inst, &p, 1e-6).feasible, "primal failed verify: {p:?}");
                }
            }
        }
    }
}
