//! The traced run: the same request bytes again through the socket, the
//! in-process front end, the in-process service and direct calls into
//! each layer, folded into the per-layer ledger.
//!
//! Every sum is over the timed requests (warm-up requests are replayed so
//! the server state matches, but left out of the sums).

use crate::direct::{self, Direct, ParsedInstance};
use crate::harness::{self, ClientPlan, ServerConfig};
use crate::inproc;
use crate::stats::{exec_residual, frontend_residual, median, quantile, ratio};
use crate::workload::{Load, Request};
use crate::{m, Metric};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

pub struct Traced {
    pub metrics: Vec<Metric>,
    /// Responses of the socket and front-end replays checked against the
    /// reference, and how many differ from it.
    pub checked: usize,
    pub failed: usize,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Append `(client, index)` for every client's `range`, taking one from
/// each client in turn.
fn round_robin(
    order: &mut Vec<(usize, usize)>,
    clients: usize,
    range: impl Fn(usize) -> std::ops::Range<usize>,
) {
    let longest = (0..clients).map(|c| range(c).len()).max().unwrap_or(0);
    for k in 0..longest {
        for c in 0..clients {
            let r = range(c);
            if k < r.len() {
                order.push((c, r.start + k));
            }
        }
    }
}

pub fn traced(
    psdp: &Path,
    cfg: &ServerConfig,
    load: Load,
    streams: &[(Vec<Request>, Vec<Request>)],
    plans: &[ClientPlan<'_>],
    reference: &[Vec<String>],
    untraced_latency_ms: f64,
) -> Result<Traced, String> {
    let warm = |c: usize| streams[c].0.len();
    let mut checked = 0;
    let mut failed = 0;

    // 1. Socket replay with client spans.
    let socket = harness::socket_run(psdp, cfg, plans, load.window)?;
    for (c, (w, t)) in socket.warmup.iter().zip(&socket.timed).enumerate() {
        for (line, want) in w.lines.iter().chain(&t.lines).zip(&reference[c]) {
            checked += 1;
            failed += usize::from(line != want);
        }
    }
    let client_ms: f64 = socket
        .timed
        .iter()
        .map(|t| (0..t.lines.len()).map(|i| ms(t.latency(i))).sum::<f64>())
        .sum();

    // Parts 2 and 3 replay every client's requests as one stream, in the
    // round-robin order the server's fair admission drains them (warm-ups
    // first), with the clients' combined window: one service and one
    // sequencer serve all clients, as in the socket server.
    let mut order: Vec<(usize, usize)> = Vec::new();
    round_robin(&mut order, load.clients, |c| 0..warm(c));
    round_robin(&mut order, load.clients, |c| warm(c)..warm(c) + streams[c].1.len());
    let total_warm: usize = (0..load.clients).map(warm).sum();
    let window = load.window * load.clients;
    let all = |c: usize, i: usize| -> &Request {
        let (w, t) = &streams[c];
        w.get(i).unwrap_or_else(|| &t[i - w.len()])
    };
    let merged: Vec<&[u8]> = order.iter().map(|&(c, i)| all(c, i).bytes.as_slice()).collect();
    let mut pos: Vec<Vec<usize>> =
        streams.iter().map(|(w, t)| vec![0; w.len() + t.len()]).collect();
    for (p, &(c, i)) in order.iter().enumerate() {
        pos[c][i] = p;
    }

    // 2. The same bytes through the in-process front end.
    let front = inproc::frontend_replay(cfg, &merged, total_warm, window)?;
    checked += front.lines.len();
    failed +=
        order.iter().zip(&front.lines).filter(|(&(c, i), line)| **line != reference[c][i]).count();
    let residence_ms: f64 = (total_warm..front.written.len())
        .map(|p| ms(front.written[p].duration_since(front.consumed[p])))
        .sum();

    // 4a. Parse every distinct instance once, timed.
    let mut parsed: BTreeMap<String, ParsedInstance> = BTreeMap::new();
    for r in streams.iter().flat_map(|(w, t)| w.iter().chain(t)) {
        if let Entry::Vacant(slot) = parsed.entry(r.inst.label.clone()) {
            slot.insert(direct::parse(r)?);
        }
    }

    // 3. The same requests through the in-process service.
    let requests: Vec<psdp_serve::ServeRequest> = order
        .iter()
        .map(|&(c, i)| {
            let r = all(c, i);
            direct::serve_request(r, &parsed[&r.inst.label])
        })
        .collect::<Result<_, String>>()?;
    let service = inproc::service_replay(cfg, requests, total_warm, window);

    // 4b. Direct calls for each distinct (instance, request) timed.
    let mut directs: BTreeMap<String, Direct> = BTreeMap::new();
    for r in streams.iter().flat_map(|(_, t)| t) {
        if let Entry::Vacant(slot) = directs.entry(r.key()) {
            slot.insert(direct::run(r, &parsed[&r.inst.label])?);
        }
    }

    // Fold the timed requests into the ledger.
    let mut l = Sums::default();
    for (c, (warmup, timed)) in streams.iter().enumerate() {
        // Instances this connection has parsed already.
        let mut seen: BTreeSet<&str> = warmup.iter().map(|r| r.inst.label.as_str()).collect();
        for (i, r) in timed.iter().enumerate() {
            let d = &directs[&r.key()];
            l.bytes += r.bytes.len() as f64;
            if seen.insert(&r.inst.label) {
                l.parse_ms += parsed[&r.inst.label].parse_ms;
            }
            l.verify_ms += d.verify_ms;
            l.render_ms += d.render_ms;
            if let Some(eval) = d.eval_ms {
                l.eval_samples.push(eval);
            }
            let Some(s) = &service.stats[pos[c][warm(c) + i]] else { continue };
            l.executed += 1;
            l.queue_ms.push(ms(s.queue_wait));
            l.exec_ms.push(ms(s.service));
            let mixed = matches!(r.command, crate::workload::Command::Mixed { .. });
            if mixed {
                l.mixed_evals += s.engine_evals as f64;
            } else {
                l.evals += s.engine_evals as f64;
            }
            if s.prep_reused {
                l.prep_reuses += 1.0;
            }
            if s.memoized {
                l.memo_hits += 1.0;
                continue;
            }
            if !s.prep_reused {
                l.prep_builds += 1.0;
                l.prep_ms += d.build_ms;
            }
            if mixed {
                l.mixed_ms += d.mixed_solve_ms;
                l.mixed_iterations += d.mixed_iterations as f64;
            } else {
                l.solve_ms += d.solve_ms;
                l.iterations += d.iterations as f64;
                l.discarded += d.discarded_iterations as f64;
                l.decision_calls += d.decision_calls as f64;
                l.replayed += d.replayed as f64;
                l.work += d.work;
                l.iter_ms.extend_from_slice(&d.iter_ms);
                if let Some(eval) = d.eval_ms {
                    l.eval_weighted_ms += d.engine_evals as f64 * eval;
                    l.eval_count += d.engine_evals as f64;
                }
            }
        }
    }
    let report = &service.report;
    let exec_sum: f64 = l.exec_ms.iter().sum();
    let queue_sum: f64 = l.queue_ms.iter().sum();
    let frontend_ms = residence_ms - (queue_sum + exec_sum);
    // Per-evaluation engine time, weighted by how often each instance's
    // engine ran; where no engine ran in the timed phase (memo hits), the
    // median over the instances the requests touched.
    let eval_ms = if l.eval_count > 0.0 {
        l.eval_weighted_ms / l.eval_count
    } else {
        median(&l.eval_samples)
    };
    let metrics = vec![
        m("io.parse_ms", l.parse_ms, "ms"),
        m("io.bytes", l.bytes, "bytes"),
        m("expdot.prep_ms", l.prep_ms, "ms"),
        m("expdot.eval_ms", eval_ms, "ms"),
        m("expdot.evals", l.evals, "count"),
        m("expdot.work", l.work, "ops"),
        m("expdot.share", ratio(l.eval_weighted_ms, l.solve_ms), "ratio"),
        m("solver.solve_ms", l.solve_ms, "ms"),
        m("solver.iterations", l.iterations, "count"),
        m("solver.discarded_iterations", l.discarded, "count"),
        m("solver.decision_calls", l.decision_calls, "count"),
        m("solver.replayed", l.replayed, "count"),
        m("solver.iter_ms_p50", median(&l.iter_ms), "ms"),
        m("mixed.solve_ms", l.mixed_ms, "ms"),
        m("mixed.iterations", l.mixed_iterations, "count"),
        m("mixed.engine_evals", l.mixed_evals, "count"),
        m("verify.ms", l.verify_ms, "ms"),
        m("jsonfmt.render_ms", l.render_ms, "ms"),
        m("serve.queue_wait_ms_p50", median(&l.queue_ms), "ms"),
        m("serve.queue_wait_ms_p99", quantile(&l.queue_ms, 0.99), "ms"),
        m("serve.exec_ms_p50", median(&l.exec_ms), "ms"),
        m("serve.exec_ms_p99", quantile(&l.exec_ms, 0.99), "ms"),
        m("serve.memo_hits", l.memo_hits, "count"),
        m("serve.prep_reuses", l.prep_reuses, "count"),
        m("serve.prep_builds", l.prep_builds, "count"),
        m("serve.memo_hit_ratio", ratio(l.memo_hits, l.executed as f64), "ratio"),
        m("serve.overloaded", report.overloaded as f64, "count"),
        m("serve.errors", report.errors as f64, "count"),
        m(
            "serve.queue_high_water",
            report.queue_high_water.iter().copied().max().unwrap_or(0) as f64,
            "count",
        ),
        m("cli.residence_ms", residence_ms, "ms"),
        m("cli.frontend_ms", frontend_ms, "ms"),
        m("transport.ms", client_ms - residence_ms, "ms"),
        m("client.latency_sum_ms", client_ms, "ms"),
        m(
            "ledger.exec_residual_frac",
            exec_residual(exec_sum, l.prep_ms, l.solve_ms, l.mixed_ms),
            "ratio",
        ),
        m(
            "ledger.frontend_residual_frac",
            frontend_residual(frontend_ms, l.parse_ms, l.render_ms),
            "ratio",
        ),
        m(
            "trace.overhead_frac",
            ratio(client_ms - untraced_latency_ms, untraced_latency_ms),
            "ratio",
        ),
    ];
    Ok(Traced { metrics, checked, failed })
}

/// Running sums over the timed requests.
#[derive(Default)]
struct Sums {
    bytes: f64,
    parse_ms: f64,
    verify_ms: f64,
    render_ms: f64,
    executed: usize,
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    evals: f64,
    mixed_evals: f64,
    prep_reuses: f64,
    prep_builds: f64,
    memo_hits: f64,
    prep_ms: f64,
    solve_ms: f64,
    iterations: f64,
    discarded: f64,
    decision_calls: f64,
    replayed: f64,
    work: f64,
    iter_ms: Vec<f64>,
    eval_samples: Vec<f64>,
    eval_weighted_ms: f64,
    eval_count: f64,
    mixed_ms: f64,
    mixed_iterations: f64,
}
