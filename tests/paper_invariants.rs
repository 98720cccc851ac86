//! The paper's named claims, checked as executable invariants:
//!
//! * Claim 3.3 — `Ψ(0) = Σ xᵢ⁰Aᵢ ⪯ I`,
//! * Claim 3.5 — `‖x‖₁ ≤ (1+ε)K` at exit,
//! * Lemma 3.2 — `Ψ(t) ⪯ (1+10ε)K·I` throughout (checked at exit),
//! * Lemma 3.6 — primal exits satisfy every covering constraint,
//! * Theorem 2.1 — the MMW regret bound on adversarial gain sequences,
//! * Lemma 4.2 — the Taylor sandwich `(1−ε)exp(B) ⪯ p(B) ⪯ exp(B)`,
//! * Lemma 2.2 — trace pruning keeps every small-trace constraint,
//! * witness directions — every certificate a report carries certifies
//!   *at least* the bound the report states, re-verified through
//!   `psdp_core::verify` (packing, covering, and mixed sides alike).

use psdp_core::{
    decision_psdp, paper_constants, solve_covering, solve_mixed, trace_prune, verify_dual,
    verify_mixed_feasible, verify_mixed_infeasible, verify_primal, ApproxOptions, DecisionOptions,
    MixedApproxOptions, Outcome, PackingInstance, PositiveSdp,
};
use psdp_linalg::{sym_eigen, Mat};
use psdp_sparse::PsdMatrix;
use psdp_test_support::{factorized_instance, FactorizedSpec, MmwGame};
use psdp_workloads::{gnp, mixed_edge_cover, mixed_lp_diagonal};

fn instance(n: usize, seed: u64) -> PackingInstance {
    factorized_instance(&FactorizedSpec::new(8, n, seed))
}

/// Claim 3.3: the starting point respects the packing constraint.
#[test]
fn claim_3_3_initial_psi_below_identity() {
    for seed in [1u64, 2, 3] {
        let inst = instance(6, seed);
        let x0: Vec<f64> =
            inst.mats().iter().map(|a| 1.0 / (inst.n() as f64 * a.trace())).collect();
        let psi0 = inst.weighted_sum(&x0);
        let lam = sym_eigen(&psi0).unwrap().lambda_max();
        assert!(lam <= 1.0 + 1e-10, "λmax(Ψ⁰) = {lam} > 1");
    }
}

/// Claim 3.5 and Lemma 3.2 at exit under strict constants.
#[test]
fn claim_3_5_and_lemma_3_2_strict_mode() {
    let eps = 0.3;
    for seed in [1u64, 4] {
        let inst = instance(5, seed);
        let res = decision_psdp(&inst, &DecisionOptions::strict(eps)).unwrap();
        let k = res.stats.k_threshold;
        // Claim 3.5: no big overshoot.
        assert!(
            res.stats.final_norm1 <= (1.0 + eps) * k + 1e-9,
            "‖x‖₁ = {} > (1+ε)K = {}",
            res.stats.final_norm1,
            (1.0 + eps) * k
        );
        // Lemma 3.2 (via the κ telemetry: the certified bound passed to the
        // engine never exceeded the lemma bound meaningfully).
        let lemma = (1.0 + 10.0 * eps) * k;
        assert!(
            res.stats.kappa_max <= lemma * 1.02,
            "κ = {} exceeded the Lemma 3.2 bound {lemma}",
            res.stats.kappa_max
        );
        // And the dual, when returned, uses the paper scaling.
        if let Outcome::Dual(d) = &res.outcome {
            assert!((d.feasibility_scale - (1.0 + 10.0 * eps) * k).abs() < 1e-9);
            let lam = sym_eigen(&inst.weighted_sum(&d.x)).unwrap().lambda_max();
            assert!(lam <= 1.0 + 1e-8, "strict dual infeasible: {lam}");
        }
    }
}

/// Lemma 3.6: when the loop exhausts its budget, the averaged primal
/// satisfies every constraint. (Forced by an infeasible instance.)
#[test]
fn lemma_3_6_primal_feasibility() {
    // OPT = 1/3 < 1: the decision procedure must return a primal side, and
    // its averaged Y must cover every constraint.
    let inst = PackingInstance::new(vec![
        PsdMatrix::Diagonal(vec![3.0, 3.0]),
        PsdMatrix::Diagonal(vec![3.0, 0.0]),
    ])
    .unwrap();
    let res = decision_psdp(&inst, &DecisionOptions::practical(0.2)).unwrap();
    let p = res.outcome.primal().expect("primal expected on infeasible instance");
    assert!(p.min_dot >= 1.0 - 1e-6, "min dot {}", p.min_dot);
    for &d in &p.constraint_dots {
        assert!(d >= 1.0 - 1e-6);
    }
}

/// Theorem 2.1 under a gain sequence chosen by the solver's own dynamics:
/// replay the decision run's gains through the standalone MMW game.
#[test]
fn theorem_2_1_regret_on_solver_like_gains() {
    // Adversary alternating projectors plus a drifting mixture — a sequence
    // shaped like the solver's (PSD, ⪯ I, non-commuting).
    let dim = 4;
    let mut game = MmwGame::new(dim, 0.3);
    for t in 0..80 {
        let mut g = Mat::zeros(dim, dim);
        let i = t % dim;
        let j = (t * 7 + 1) % dim;
        let mut v = vec![0.0; dim];
        v[i] = (0.6_f64).sqrt();
        v[j] = (0.4_f64).sqrt();
        g.rank1_update(1.0, &v);
        game.play(&g).unwrap();
    }
    let (lhs, rhs) = game.regret_bound_sides().unwrap();
    assert!(lhs >= rhs - 1e-9, "regret bound violated: {lhs} < {rhs}");
}

/// Lemma 4.2 sandwich on PSD matrices at the κ the solver actually sees
/// (`(1+10ε)K` for small instances).
#[test]
fn lemma_4_2_sandwich_at_solver_kappa() {
    let eps = 0.25;
    let pc = paper_constants(6, eps);
    let kappa = ((1.0 + 10.0 * eps) * pc.k_threshold).min(24.0);
    // Random PSD with that norm.
    let mut b = Mat::from_fn(6, 6, |i, j| ((i * 5 + j * 3) % 7) as f64 * 0.1);
    b.symmetrize();
    let shift = -sym_eigen(&b).unwrap().lambda_min().min(0.0) + 0.05;
    b.add_diag(shift);
    let lam = sym_eigen(&b).unwrap().lambda_max();
    b.scale(kappa / lam);

    let k = psdp_linalg::taylor_degree(kappa, eps);
    let p = psdp_linalg::poly::exp_taylor_dense(&b, k);
    let e = psdp_linalg::expm(&b).unwrap();

    let upper = {
        let mut d = e.sub(&p);
        d.symmetrize();
        sym_eigen(&d).unwrap().lambda_min()
    };
    assert!(upper > -1e-7 * e.max_abs(), "p(B) ⪯ exp(B) violated: {upper}");
    let lower = {
        let mut d = p.sub(&e.scaled(1.0 - eps));
        d.symmetrize();
        sym_eigen(&d).unwrap().lambda_min()
    };
    assert!(lower > -1e-7 * e.max_abs(), "(1−ε)exp(B) ⪯ p(B) violated: {lower}");
}

/// Witness direction, covering side: a `CoveringReport`'s certificates
/// must certify at least the bounds the report states, re-checked through
/// `verify.rs` — the dual multipliers re-verify on the normalized packing
/// instance at (at least) `value_lower`, and the primal witness re-verifies
/// at (at least) the strength backing `value_upper`. Mirrors the
/// packing-side checks in `tests/end_to_end.rs`.
#[test]
fn covering_report_certificates_certify_reported_bounds() {
    // Diagonal covering SDP with a known optimum (see approx.rs tests):
    // min C•Y s.t. A•Y ≥ 2 with C = diag(4,1), A = diag(1,1) ⇒ OPT = 2.
    let sdp = PositiveSdp {
        objective: PsdMatrix::Diagonal(vec![4.0, 1.0]),
        constraints: vec![PsdMatrix::Diagonal(vec![1.0, 1.0])],
        rhs: vec![2.0],
    };
    let r = solve_covering(&sdp, &ApproxOptions::practical(0.1)).unwrap();
    assert!(r.value_lower <= 2.0 + 1e-6 && r.value_upper >= 2.0 - 1e-6);

    // Lower bound: the packing report's best dual is a feasible packing
    // vector whose value is at least the reported lower bound.
    let d = r.packing.best_dual.as_ref().expect("dual witness");
    let nz = psdp_core::normalize(&sdp).unwrap();
    let cert = verify_dual(&nz.instance, d, 1e-8);
    assert!(cert.feasible, "covering dual failed verify: λmax {}", cert.lambda_max);
    assert!(
        cert.value >= r.value_lower - 1e-9,
        "dual witness value {} certifies less than reported lower bound {}",
        cert.value,
        r.value_lower
    );

    // Upper bound: the primal witness at (σ, p) certifies OPT ≤ σ/min_dot
    // (it is the *latest* witness, not necessarily the tightest, so the
    // invariant linking it to the report is bracket consistency: the
    // certified lower bound can never exceed any certified upper bound).
    // (`feasible` would demand min_dot ≥ 1 — feasibility at threshold 1 of
    // the σ-scaled instance — but a weak witness with min_dot < 1 still
    // certifies OPT ≤ σ/min_dot; check the matrix structure and the bound
    // direction instead.)
    let (sigma, p) = r.packing.upper_witness.as_ref().expect("primal witness");
    let cert = verify_primal(&nz.instance, p, 1e-6);
    if cert.matrix_checked {
        assert!((cert.trace - 1.0).abs() <= 1e-6, "witness trace {} ≠ 1", cert.trace);
        assert!(cert.lambda_min >= -1e-6, "witness not PSD: λmin {}", cert.lambda_min);
    }
    assert!(cert.min_dot > 0.0, "degenerate witness: min_dot {}", cert.min_dot);
    let witness_bound = sigma / cert.min_dot.max(1e-12);
    assert!(
        r.value_lower <= witness_bound * (1.0 + 1e-9),
        "certified lower bound {} exceeds what the covering witness allows ({witness_bound})",
        r.value_lower
    );
}

/// Witness direction, mixed side: a `MixedReport`'s feasible point must
/// re-verify at the reported `threshold_lower`, and its infeasibility
/// witness must refute no more than the reported `threshold_upper` —
/// i.e. each certificate certifies *at least* the bound the report
/// states, on both the diagonal and the sparse graph families.
#[test]
fn mixed_report_certificates_certify_reported_bounds() {
    let instances = [
        ("mixed-lp", mixed_lp_diagonal(5, 4, 6, 0.6, 2)),
        ("edge-cover", mixed_edge_cover(&gnp(8, 0.6, 4), 0.5)),
    ];
    for (name, inst) in &instances {
        let r = solve_mixed(inst, &MixedApproxOptions::practical(0.12)).unwrap();
        assert!(r.threshold_lower > 0.0, "{name}: degenerate bracket");

        let p = r.best_point.as_ref().expect("feasible witness");
        let cert = verify_mixed_feasible(inst, p, r.threshold_lower * (1.0 - 1e-9), 1e-7);
        assert!(cert.feasible, "{name}: feasible point failed verify: {cert:?}");
        assert!(
            cert.cover_lambda_min >= r.threshold_lower * (1.0 - 1e-9),
            "{name}: witness coverage {} certifies less than reported lower bound {}",
            cert.cover_lambda_min,
            r.threshold_lower
        );
        assert!(cert.pack_lambda_max <= 1.0 + 1e-7, "{name}: packing side violated");

        if let Some(w) = &r.infeasibility_witness {
            let cert = verify_mixed_infeasible(inst, w, 1e-7);
            assert!(cert.valid, "{name}: infeasibility witness failed verify: {cert:?}");
            // The report keeps the *tightest* witness, and every hi update
            // adds nonnegative pruning slack on top of its certificate, so
            // the reported upper bound is never tighter than the
            // re-measured witness supports.
            assert!(
                r.threshold_upper >= cert.refuted_threshold * (1.0 - 1e-6) - 1e-9,
                "{name}: reported upper bound {} tighter than witness supports ({})",
                r.threshold_upper,
                cert.refuted_threshold
            );
        }
    }
}

/// Lemma 2.2: pruning never drops a constraint with trace ≤ n³, and the
/// pruned instance is still valid.
#[test]
fn lemma_2_2_trace_pruning() {
    let mut mats = vec![PsdMatrix::Diagonal(vec![1.0, 1.0]), PsdMatrix::Diagonal(vec![0.5, 0.5])];
    // A pathological constraint with enormous trace.
    mats.push(PsdMatrix::Diagonal(vec![1e6, 1e6]));
    let inst = PackingInstance::new(mats).unwrap();
    let (keep, dropped) = trace_prune(&inst);
    assert_eq!(keep, vec![0, 1]);
    assert_eq!(dropped, vec![2]);
    let pruned = inst.restrict(&keep).unwrap();
    assert_eq!(pruned.n(), 2);
    // The pruned instance still solves.
    let res = decision_psdp(&pruned, &DecisionOptions::practical(0.2)).unwrap();
    match res.outcome {
        Outcome::Dual(_) | Outcome::Primal(_) => {}
    }
}
