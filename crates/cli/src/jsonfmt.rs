//! Shared JSON rendering for the `--json` schemas.
//!
//! One place formats the machine-readable payloads of `solve`, `optimize`,
//! and `mixed`, so the one-shot commands and the `serve` subcommand cannot
//! drift apart — `tests/json_schema.rs` snapshots both against the same
//! golden files. Serving responses must be byte-deterministic, so the
//! `include_wall` switch lets `serve` emit `"wall_ms": null` (key present,
//! schema unchanged) while the one-shot commands keep real timings.

use psdp_core::{
    certify_decision, certify_mixed, certify_packing, DecisionCertificate, DecisionResult,
    MixedInstance, MixedReport, MixedReportCertificate, Outcome, PackingInstance, PackingReport,
    PackingReportCertificate,
};

/// Minimal JSON string escaping (our strings are ASCII identifiers and
/// paths, but stay correct on quotes/backslashes/control bytes).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The in-place error line `psdp serve` answers a failed request with:
/// `{"id":…,"error":…}`, with `"id":null` when the request was too broken
/// to name itself. Every serve error path renders through here, so the
/// schema cannot drift from the golden under
/// `tests/fixtures/schema/serve_error.json`.
pub fn error_line(id: Option<&str>, msg: &str) -> String {
    let id_json = id.map_or_else(|| "null".to_string(), json_str);
    format!("{{\"id\":{id_json},\"error\":{}}}\n", json_str(msg))
}

/// The typed `overloaded` response line `psdp serve` emits when a request
/// is shed by backpressure — a full shard queue, the adaptive p99 shed
/// policy, or a per-client in-flight cap at the socket front end
/// (`shard` is `null` for the last: the request was never routed).
/// Rendered here so the schema cannot drift from the golden under
/// `tests/fixtures/schema/serve_overloaded.json`.
pub fn overloaded_line(id: &str, shard: Option<usize>) -> String {
    let shard_json = match shard {
        Some(s) => s.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"id\":{},\"error\":\"overloaded\",\"overloaded\":true,\"shard\":{shard_json}}}\n",
        json_str(id)
    )
}

/// Finite floats print as-is; NaN/inf become `null` (JSON has no literals
/// for them).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One `SolveStats` as a JSON object (the per-bracket machine-readable
/// telemetry `--json` emits). `include_wall = false` emits
/// `"wall_ms": null` so serving responses stay byte-deterministic.
pub fn json_stats(s: &psdp_core::SolveStats, include_wall: bool) -> String {
    let wall = if include_wall { json_f64(s.wall.as_secs_f64() * 1e3) } else { "null".into() };
    format!(
        "{{\"threshold\":{},\"iterations\":{},\"engine_evals\":{},\"replayed\":{},\"warm_started\":{},\"exit\":{},\"engine\":{},\"final_norm1\":{},\"k_threshold\":{},\"kappa_max\":{},\"avg_selected\":{},\"psi_rebuilds\":{},\"psi_max_drift\":{},\"wall_ms\":{}}}",
        json_f64(s.threshold),
        s.iterations,
        s.engine_evals,
        s.replayed,
        s.warm_started,
        json_str(&format!("{:?}", s.exit)),
        json_str(s.engine),
        json_f64(s.final_norm1),
        json_f64(s.k_threshold),
        json_f64(s.kappa_max),
        json_f64(s.avg_selected),
        s.psi_rebuilds,
        json_f64(s.psi_max_drift),
        wall,
    )
}

/// Body fields of a `solve` response (no surrounding braces, no
/// `command`/`id` — the caller frames them): `"file":…,"outcome":…,
/// "certificate":…,"stats":…`. Certifies `res` against `inst`, then
/// formats it with [`solve_body`].
pub fn solve_payload(
    file_json: &str,
    inst: &PackingInstance,
    res: &DecisionResult,
    include_wall: bool,
) -> String {
    solve_body(file_json, res, &certify_decision(inst, res), include_wall)
}

/// Format a `solve` response body from a result and its certificate (see
/// [`solve_payload`]). A certificate for the other side than the outcome
/// does not certify it, and renders as not feasible.
pub fn solve_body(
    file_json: &str,
    res: &DecisionResult,
    cert: &DecisionCertificate,
    include_wall: bool,
) -> String {
    let (side, cert) = match &res.outcome {
        Outcome::Dual(d) => {
            let c = cert.dual();
            (
                "dual",
                format!(
                    "{{\"value\":{},\"lambda_max\":{},\"feasible\":{}}}",
                    json_f64(d.value),
                    json_f64(c.map_or(f64::NAN, |c| c.lambda_max)),
                    c.is_some_and(|c| c.feasible)
                ),
            )
        }
        Outcome::Primal(p) => (
            "primal",
            format!(
                "{{\"min_dot\":{},\"rounds_averaged\":{},\"feasible\":{}}}",
                json_f64(p.min_dot),
                p.rounds_averaged,
                cert.primal().is_some_and(|c| c.feasible)
            ),
        ),
    };
    format!(
        "\"file\":{},\"outcome\":{},\"certificate\":{},\"stats\":{}",
        file_json,
        json_str(side),
        cert,
        json_stats(&res.stats, include_wall),
    )
}

/// Body fields of an `optimize` response (see [`solve_payload`]).
/// Certifies `r` against `inst`, then formats it with [`optimize_body`].
pub fn optimize_payload(
    file_json: &str,
    inst: &PackingInstance,
    r: &PackingReport,
    include_wall: bool,
) -> String {
    optimize_body(file_json, r, &certify_packing(inst, r), include_wall)
}

/// Format an `optimize` response body from a report and its certificate.
pub fn optimize_body(
    file_json: &str,
    r: &PackingReport,
    cert: &PackingReportCertificate,
    include_wall: bool,
) -> String {
    let dual = match &r.best_dual {
        Some(d) => format!(
            "{{\"value\":{},\"feasible\":{}}}",
            json_f64(d.value),
            cert.best_dual.is_some_and(|c| c.feasible)
        ),
        None => "null".to_string(),
    };
    let brackets: Vec<String> = r
        .brackets
        .iter()
        .zip(&r.call_stats)
        .map(|(b, s)| {
            format!(
                "{{\"sigma\":{},\"dual_side\":{},\"lo\":{},\"hi\":{},\"stats\":{}}}",
                json_f64(b.sigma),
                b.dual_side,
                json_f64(b.lo),
                json_f64(b.hi),
                json_stats(s, include_wall),
            )
        })
        .collect();
    format!(
        "\"file\":{},\"value_lower\":{},\"value_upper\":{},\"converged\":{},\"decision_calls\":{},\"total_iterations\":{},\"engine_evals\":{},\"replayed\":{},\"best_dual\":{},\"brackets\":[{}]",
        file_json,
        json_f64(r.value_lower),
        json_f64(r.value_upper),
        r.converged,
        r.decision_calls,
        r.total_iterations,
        r.total_engine_evals,
        r.total_replayed,
        dual,
        brackets.join(","),
    )
}

/// Body fields of a `mixed` response (see [`solve_payload`]). Certifies
/// `r` against `inst`, then formats it with [`mixed_body`].
pub fn mixed_payload(
    file_json: &str,
    inst: &MixedInstance,
    r: &MixedReport,
    include_wall: bool,
) -> String {
    mixed_body(file_json, r, &certify_mixed(inst, r), include_wall)
}

/// Format a `mixed` response body from a report and its certificate.
pub fn mixed_body(
    file_json: &str,
    r: &MixedReport,
    cert: &MixedReportCertificate,
    include_wall: bool,
) -> String {
    let point = match &r.best_point {
        Some(p) => format!(
            "{{\"pack_lambda_max\":{},\"cover_lambda_min\":{},\"verified\":{}}}",
            json_f64(p.pack_lambda_max),
            json_f64(p.cover_lambda_min),
            cert.best_point.is_some_and(|c| c.feasible)
        ),
        None => "null".to_string(),
    };
    let witness = match (&r.infeasibility_witness, &cert.infeasibility) {
        (Some(w), Some(c)) => format!(
            "{{\"sigma\":{},\"margin\":{},\"refuted_threshold\":{},\"matrix_checked\":{},\"verified\":{}}}",
            json_f64(w.sigma),
            json_f64(c.margin),
            json_f64(c.refuted_threshold),
            c.matrix_checked,
            c.valid
        ),
        // A witness is only rendered with the certificate that checked it.
        _ => "null".to_string(),
    };
    let brackets: Vec<String> = r
        .brackets
        .iter()
        .zip(&r.call_stats)
        .map(|(b, s)| {
            format!(
                "{{\"sigma\":{},\"feasible_side\":{},\"lo\":{},\"hi\":{},\"stats\":{}}}",
                json_f64(b.sigma),
                b.dual_side,
                json_f64(b.lo),
                json_f64(b.hi),
                json_stats(s, include_wall),
            )
        })
        .collect();
    format!(
        "\"file\":{},\"threshold_lower\":{},\"threshold_upper\":{},\"converged\":{},\"decision_calls\":{},\"total_iterations\":{},\"engine_evals\":{},\"pruned_max\":{},\"best_point\":{},\"infeasibility\":{},\"brackets\":[{}]",
        file_json,
        json_f64(r.threshold_lower),
        json_f64(r.threshold_upper),
        r.converged,
        r.decision_calls,
        r.total_iterations,
        r.total_engine_evals,
        r.pruned_max,
        point,
        witness,
        brackets.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\nd\te\u{1}"), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn json_f64_non_finite_is_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
