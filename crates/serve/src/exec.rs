//! The per-request executor behind both orchestrators.
//!
//! Every request `psdp serve` answers runs through [`execute`], whichever
//! orchestrator scheduled it: the one-shot [`crate::Scheduler`] calls it
//! once per fingerprint group (requests in id order), the streaming
//! [`crate::Service`] once per request. One call walks the three reuse
//! tiers for each request in turn:
//!
//! 1. **memo** — a byte-identical request already answered on this
//!    fingerprint replays its stored result and certificate;
//! 2. **prepared** — otherwise the solver is assembled, once per call and
//!    only at the first memo miss, from the cached engines when there are
//!    any ([`Prepared::solver`]);
//! 3. **bracket** — a perturbed `optimize` starts from the fingerprint's
//!    last certified bracket.
//!
//! All requests of one call share one session, so later requests replay
//! the trajectories of earlier ones (bitwise result-neutral).
//!
//! Every freshly computed result is certified here, once, against the
//! instance it was solved on (`psdp_core::certify_*`), and the certificate
//! travels with the result into the memo. So the cost of a certificate is
//! paid on the thread that computed the result, once per computed result,
//! and never by a memo hit or by the renderer.

use crate::cache::{params_key, prep_engine_of, Built, CacheEntry, MemoEntry, Prepared};
use crate::request::{RequestKind, ServeRequest};
use crate::scheduler::{ServeResponse, ServeResult, ServeStats};
use psdp_core::{
    certify_decision, certify_mixed, certify_packing, MixedInstance, MixedSession, PackingInstance,
    Session,
};
use std::cell::OnceCell;
use std::time::Instant;

/// What one [`execute`] call hands back.
pub(crate) struct Executed {
    /// One response per request, in input order.
    pub(crate) responses: Vec<ServeResponse>,
    /// The fingerprint's updated entry; `None` when solver preparation
    /// failed.
    pub(crate) entry: Option<CacheEntry>,
    /// This call paid for solver preparation (an engine build).
    pub(crate) prep_built: bool,
}

/// An open session on a [`Built`] solver, with the instance its results
/// are certified against.
enum Live<'i, 's> {
    Packing(&'i PackingInstance, Session<'i, 's>),
    Mixed(&'i MixedInstance, MixedSession<'i, 's>),
}

impl<'i> Built<'i> {
    fn session(&self) -> Live<'i, '_> {
        match self {
            Built::Packing(inst, s) => Live::Packing(inst, s.session()),
            Built::Mixed(inst, s) => Live::Mixed(inst, s.session()),
        }
    }
}

/// Serve `requests` — all of fingerprint `hash`, in the given order —
/// against the fingerprint's cache `entry` (`None` = cold). `since` is
/// when the requests were queued; each response's queue wait is measured
/// from it.
pub(crate) fn execute(
    hash: u64,
    entry: Option<CacheEntry>,
    requests: &[&ServeRequest],
    since: Instant,
) -> Executed {
    let Some(first) = requests.first() else {
        return Executed { responses: Vec::new(), entry, prep_built: false };
    };
    let (engine_kind, seed) = prep_engine_of(&first.kind);
    let (prior, mut memo, mut bracket) = match entry {
        Some(e) => (Some(e.prepared), e.memo, e.bracket),
        None => (None, Vec::new(), None),
    };
    let payload = prior.as_ref().map_or_else(|| first.payload.clone(), Prepared::payload);
    let built: OnceCell<Result<Built<'_>, String>> = OnceCell::new();
    let mut session: Option<Live<'_, '_>> = None;

    let mut responses = Vec::with_capacity(requests.len());
    for req in requests {
        let started = Instant::now();
        let mut stats =
            ServeStats { queue_wait: started.duration_since(since), ..ServeStats::default() };
        let params = params_key(&req.kind);
        let result = if !req.payload_matches_kind() {
            Err(format!("request kind `{}` does not match its instance payload", req.kind.name()))
        } else if let Some(hit) = memo.iter().find(|m| m.params == params) {
            stats.prep_reused = true;
            stats.memoized = true;
            Ok(hit.result.clone())
        } else {
            let cold = prior.is_none() && built.get().is_none();
            let prepare = || Prepared::solver(&payload, prior.as_ref(), engine_kind, seed);
            match built.get_or_init(prepare) {
                Err(e) => Err(format!("solver preparation failed: {e}")),
                Ok(solver) => {
                    stats.prep_reused = !cold;
                    let live = session.get_or_insert_with(|| solver.session());
                    let run = run(live, &req.kind, &params, &mut bracket, &mut stats);
                    if let Ok(res) = &run {
                        (stats.engine_evals, stats.replayed) = live_work(res);
                        if memo.len() < crate::cache::MEMO_PER_ENTRY {
                            memo.push(MemoEntry { params, result: res.clone() });
                        }
                    }
                    run
                }
            }
        };
        stats.service = started.elapsed();
        responses.push(ServeResponse { id: req.id.clone(), result, stats });
    }
    drop(session);

    let (prepared, prep_built) = match built.into_inner() {
        Some(Ok(solver)) => (Some(solver.prepared()), prior.is_none()),
        Some(Err(_)) => (None, false),
        None => (prior, false),
    };
    let entry = prepared.map(|prepared| CacheEntry {
        hash,
        engine_kind,
        seed,
        prepared,
        memo,
        bracket,
        last_used: 0,
    });
    Executed { responses, entry, prep_built }
}

/// Run one request on the open session and certify its result. An
/// `optimize` whose parameters differ from the last certified one on this
/// fingerprint starts inside that bracket (tier 3).
fn run(
    live: &mut Live<'_, '_>,
    kind: &RequestKind,
    params: &str,
    bracket: &mut Option<(String, f64, f64)>,
    stats: &mut ServeStats,
) -> Result<ServeResult, String> {
    let out = match (live, kind) {
        (Live::Packing(inst, s), RequestKind::Decision { threshold, opts }) => {
            s.solve_with(*threshold, opts).map(|d| {
                let cert = certify_decision(inst, &d);
                ServeResult::Decision(d, cert)
            })
        }
        (Live::Packing(inst, s), RequestKind::Optimize { opts }) => {
            let mut o = *opts;
            if let Some((_, lo, hi)) = bracket.as_ref().filter(|(p, _, _)| p != params) {
                o.initial_bracket = Some(match o.initial_bracket {
                    Some((l, h)) => (l.max(*lo), h.min(*hi)),
                    None => (*lo, *hi),
                });
                stats.bracket_injected = true;
            }
            s.optimize(&o).map(|r| {
                *bracket = Some((params.to_string(), r.value_lower, r.value_upper));
                let cert = certify_packing(inst, &r);
                ServeResult::Optimize(r, cert)
            })
        }
        (Live::Mixed(inst, s), RequestKind::Mixed { opts }) => s.optimize(opts).map(|r| {
            let cert = certify_mixed(inst, &r);
            ServeResult::Mixed(r, cert)
        }),
        _ => return Err("request routed to the wrong solver family (internal)".to_string()),
    };
    out.map_err(|e| e.to_string())
}

/// `(engine evaluations, replayed rounds)` a freshly computed result cost.
fn live_work(res: &ServeResult) -> (usize, usize) {
    match res {
        ServeResult::Decision(d, _) => (d.stats.engine_evals, d.stats.replayed),
        ServeResult::Optimize(r, _) => (r.total_engine_evals, r.total_replayed),
        ServeResult::Mixed(r, _) => (r.total_engine_evals, 0),
    }
}
