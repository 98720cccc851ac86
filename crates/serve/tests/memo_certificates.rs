//! A memo hit carries the certificate computed with its result.
//!
//! The executor certifies each freshly computed result once; a memo hit
//! replays that certificate with the stored result. These tests pin the
//! replay down bitwise on both orchestrators, for every certificate kind
//! (dual and primal `solve`, `optimize` with a best dual, `mixed` with a
//! point and a witness), and check that a cache-disabled run certifies
//! every response it computes.

use psdp_core::{
    certify_decision, certify_mixed, certify_packing, ApproxOptions, DecisionCertificate,
    DecisionOptions, DualCertificate, MixedApproxOptions, MixedFeasibleCertificate,
    MixedInfeasibleCertificate, MixedInstance, Outcome, PackingInstance, PrimalCertificate,
};
use psdp_serve::{
    InstancePayload, Scheduler, SchedulerOptions, ServeRequest, ServeResponse, ServeResult,
    Service, ServiceOptions, StreamItem, StreamOutcome,
};
use psdp_sparse::PsdMatrix;
use std::sync::Arc;

fn pack_inst() -> Arc<PackingInstance> {
    Arc::new(
        PackingInstance::new(vec![
            PsdMatrix::Diagonal(vec![2.0, 0.0]),
            PsdMatrix::Diagonal(vec![0.0, 4.0]),
        ])
        .unwrap(),
    )
}

fn mixed_inst() -> Arc<MixedInstance> {
    Arc::new(
        MixedInstance::new(
            vec![PsdMatrix::Diagonal(vec![2.0, 0.0]), PsdMatrix::Diagonal(vec![0.0, 2.0])],
            vec![PsdMatrix::Diagonal(vec![1.0, 0.0]), PsdMatrix::Diagonal(vec![0.0, 1.0])],
        )
        .unwrap(),
    )
}

fn dual_bits(c: &DualCertificate, out: &mut Vec<u64>) {
    out.extend([c.lambda_max.to_bits(), c.value.to_bits(), u64::from(c.feasible)]);
}

fn primal_bits(c: &PrimalCertificate, out: &mut Vec<u64>) {
    out.extend([
        c.trace.to_bits(),
        c.min_dot.to_bits(),
        c.lambda_min.to_bits(),
        u64::from(c.matrix_checked),
        u64::from(c.feasible),
    ]);
}

fn point_bits(c: &MixedFeasibleCertificate, out: &mut Vec<u64>) {
    out.extend([c.pack_lambda_max.to_bits(), c.cover_lambda_min.to_bits(), u64::from(c.feasible)]);
}

fn witness_bits(c: &MixedInfeasibleCertificate, out: &mut Vec<u64>) {
    out.extend([
        c.margin.to_bits(),
        c.refuted_threshold.to_bits(),
        u64::from(c.matrix_checked),
        u64::from(c.valid),
    ]);
}

/// Every number and flag of a certificate, as bits. The leading tag keeps
/// `None` fields and certificate kinds from colliding.
fn decision_bits(c: &DecisionCertificate) -> Vec<u64> {
    let mut out = Vec::new();
    match c {
        DecisionCertificate::Dual(d) => {
            out.push(1);
            dual_bits(d, &mut out);
        }
        DecisionCertificate::Primal(p) => {
            out.push(2);
            primal_bits(p, &mut out);
        }
    }
    out
}

/// The stored certificate of a response's result, as bits.
fn stored_bits(res: &ServeResult) -> Vec<u64> {
    let mut out = Vec::new();
    match res {
        ServeResult::Decision(_, c) => out = decision_bits(c),
        ServeResult::Optimize(_, c) => {
            out.push(3);
            c.best_dual.iter().for_each(|d| dual_bits(d, &mut out));
        }
        ServeResult::Mixed(_, c) => {
            out.push(4);
            c.best_point.iter().for_each(|p| point_bits(p, &mut out));
            out.push(5);
            c.infeasibility.iter().for_each(|w| witness_bits(w, &mut out));
        }
    }
    out
}

/// A fresh certification of a response's result against the request's
/// instance, as bits.
fn fresh_bits(req: &ServeRequest, res: &ServeResult) -> Vec<u64> {
    match (&req.payload, res) {
        (InstancePayload::Packing(inst), ServeResult::Decision(d, _)) => {
            decision_bits(&certify_decision(inst, d))
        }
        (InstancePayload::Packing(inst), ServeResult::Optimize(r, _)) => {
            let c = certify_packing(inst, r);
            stored_bits(&ServeResult::Optimize(r.clone(), c))
        }
        (InstancePayload::Mixed(inst), ServeResult::Mixed(r, _)) => {
            let c = certify_mixed(inst, r);
            stored_bits(&ServeResult::Mixed(r.clone(), c))
        }
        _ => panic!("result family does not match the request payload"),
    }
}

fn result_of(resp: &ServeResponse) -> &ServeResult {
    match &resp.result {
        Ok(r) => r,
        Err(e) => panic!("request {} failed: {e}", resp.id),
    }
}

/// One request of each certificate kind, under the id `id`.
fn cases(id: &str) -> Vec<(&'static str, ServeRequest)> {
    let pack = pack_inst();
    vec![
        (
            "dual solve",
            ServeRequest::decision(id, Arc::clone(&pack), 0.5, DecisionOptions::practical(0.2)),
        ),
        (
            "primal solve",
            ServeRequest::decision(id, Arc::clone(&pack), 1.4, DecisionOptions::practical(0.2)),
        ),
        ("optimize", ServeRequest::optimize(id, pack, ApproxOptions::serving(0.1))),
        ("mixed", ServeRequest::mixed(id, mixed_inst(), MixedApproxOptions::practical(0.1))),
    ]
}

/// The case's result really has the certificate kind it is named for.
fn assert_shape(case: &str, res: &ServeResult) {
    let ok = match res {
        ServeResult::Decision(d, c) => match case {
            "dual solve" => {
                matches!((&d.outcome, c), (Outcome::Dual(_), DecisionCertificate::Dual(_)))
            }
            _ => matches!((&d.outcome, c), (Outcome::Primal(_), DecisionCertificate::Primal(_))),
        },
        ServeResult::Optimize(r, c) => r.best_dual.is_some() && c.best_dual.is_some(),
        ServeResult::Mixed(r, c) => {
            r.best_point.is_some()
                && c.best_point.is_some()
                && r.infeasibility_witness.is_some()
                && c.infeasibility.is_some()
        }
    };
    assert!(ok, "{case}: unexpected result shape {res:?}");
}

/// Cold then memo hit: the hit's certificate is bitwise the cold one's,
/// and both equal a fresh certification of the result.
fn assert_hit_replays(case: &str, req: &ServeRequest, cold: &ServeResponse, hit: &ServeResponse) {
    assert!(!cold.stats.memoized, "{case}: first request must be computed");
    assert!(hit.stats.memoized, "{case}: repeat must be a memo hit");
    let (cold_res, hit_res) = (result_of(cold), result_of(hit));
    assert_shape(case, cold_res);
    let fresh = fresh_bits(req, cold_res);
    assert_eq!(stored_bits(cold_res), fresh, "{case}: cold certificate differs from certify_*");
    assert_eq!(stored_bits(hit_res), stored_bits(cold_res), "{case}: hit certificate differs");
    assert_eq!(fresh_bits(req, hit_res), fresh, "{case}: hit result re-certifies differently");
}

fn run_stream(service: &mut Service, requests: Vec<ServeRequest>) -> Vec<ServeResponse> {
    let mut out = Vec::new();
    let items = requests.into_iter().map(|request| StreamItem::Execute { request, ctx: () });
    service.run_stream(items, |(), outcome| match outcome {
        StreamOutcome::Response(r) => out.push(*r),
        _ => panic!("request was not answered"),
    });
    out
}

#[test]
fn scheduler_memo_hit_replays_the_certificate() {
    for ((case, cold_req), (_, hit_req)) in cases("a").into_iter().zip(cases("b")) {
        let mut sched = Scheduler::new(SchedulerOptions::default());
        let cold = sched.run_batch(std::slice::from_ref(&cold_req)).unwrap();
        let hit = sched.run_batch(std::slice::from_ref(&hit_req)).unwrap();
        assert_hit_replays(case, &cold_req, &cold.responses[0], &hit.responses[0]);
    }
}

#[test]
fn service_memo_hit_replays_the_certificate() {
    for ((case, cold_req), (_, hit_req)) in cases("a").into_iter().zip(cases("b")) {
        let mut service = Service::new(ServiceOptions::default());
        let out = run_stream(&mut service, vec![cold_req.clone(), hit_req]);
        assert_hit_replays(case, &cold_req, &out[0], &out[1]);
    }
}

#[test]
fn cache_off_certifies_every_response() {
    let requests: Vec<ServeRequest> = cases("a")
        .into_iter()
        .chain(cases("b"))
        .enumerate()
        .map(|(i, (_, mut r))| {
            r.id = format!("r{i}");
            r
        })
        .collect();
    let by_id = |id: &str| requests.iter().find(|r| r.id == id).unwrap();

    let mut sched = Scheduler::new(SchedulerOptions { cache_enabled: false });
    let batch = sched.run_batch(&requests).unwrap().responses;
    let mut service = Service::new(ServiceOptions { cache_enabled: false, ..Default::default() });
    let stream = run_stream(&mut service, requests.clone());
    assert_eq!(batch.len(), requests.len());
    assert_eq!(stream.len(), requests.len());
    for resp in batch.iter().chain(&stream) {
        assert!(!resp.stats.memoized, "{}: cache off must compute every response", resp.id);
        let res = result_of(resp);
        assert_eq!(stored_bits(res), fresh_bits(by_id(&resp.id), res), "{}", resp.id);
    }
}
