//! The batch scheduler: heterogeneous requests in, deterministic
//! responses out, preparation amortized through the fingerprint cache.
//!
//! ## Execution model
//!
//! A batch is partitioned into **groups** by preparation fingerprint
//! ([`crate::cache::prep_hash`], verified by structural instance equality
//! so a 64-bit collision can only split a group, never merge two):
//! requests over the same instance with the same engine kind and seed
//! share one prepared solver and one session.
//! Groups run concurrently over the caller's rayon pool; each group is
//! one call of the shared per-request executor (`crate::exec`), which
//! runs its requests sequentially **in request-id order**, so which
//! request pays the cold costs — and every response byte — is a function
//! of the batch's *contents*, never of submission order or pool width.
//! Responses are returned in submission order (each carries its id).
//!
//! ## Reuse tiers
//!
//! 1. **Result memoization** — a request byte-identical to one already
//!    served on this fingerprint returns the stored result. The whole
//!    pipeline is deterministic, so this is exact, not approximate.
//! 2. **Prepared-state reuse** — constraint factorizations, `Auto` engine
//!    resolution, and per-constraint scalars are built once per
//!    fingerprint and shared via [`psdp_core::SolverBuilder::build_with_engine`].
//!    Preparation never affects results, only wall clock.
//! 3. **Warm session / bracket continuation** — requests in one group
//!    share a session (trajectory replay is bitwise result-neutral), and
//!    a repeated-but-perturbed `optimize` request starts from the prior
//!    certified bracket via [`psdp_core::ApproxOptions::initial_bracket`].
//!
//! See `DESIGN.md` §10 for the soundness argument (what the fingerprint
//! must cover so a cache hit can never change a verdict).

use crate::cache::{prep_engine_of, prep_hash, CacheEntry};
use crate::exec::{execute, Executed};
use crate::request::ServeRequest;
use psdp_core::{
    DecisionCertificate, DecisionResult, MixedReport, MixedReportCertificate, PackingReport,
    PackingReportCertificate,
};
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerOptions {
    /// Master switch for the fingerprint cache. Off = every request is its
    /// own cold group (the baseline the `serve_throughput` bench compares
    /// against).
    pub cache_enabled: bool,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions { cache_enabled: true }
    }
}

/// Batch-level failures (per-request failures are reported per response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Two requests in one batch share an id; responses are keyed by id,
    /// so this is rejected up front.
    DuplicateId(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DuplicateId(id) => write!(f, "duplicate request id `{id}` in batch"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A successful request result with its certificate. The executor
/// certifies each result once, when it is computed (`psdp_core::certify_*`);
/// a memo hit replays the stored certificate with the stored result, so
/// rendering a response never re-verifies anything.
#[derive(Debug, Clone)]
pub enum ServeResult {
    /// Result of a [`crate::RequestKind::Decision`] request.
    Decision(DecisionResult, DecisionCertificate),
    /// Result of a [`crate::RequestKind::Optimize`] request.
    Optimize(PackingReport, PackingReportCertificate),
    /// Result of a [`crate::RequestKind::Mixed`] request.
    Mixed(MixedReport, MixedReportCertificate),
}

/// Per-request serving telemetry. Only the wall-clock fields
/// ([`ServeStats::queue_wait`], [`ServeStats::service`]) are
/// non-deterministic; everything else is a pure function of the batch
/// contents (and prior batches on this scheduler), which is what lets the
/// determinism suite compare response streams bitwise.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Time from batch start until this request began executing (queue
    /// wait behind its group predecessors and pool scheduling).
    pub queue_wait: Duration,
    /// Execution time of this request alone.
    pub service: Duration,
    /// The request did not pay for solver preparation (engine build) —
    /// prepared state came from the cache or from an earlier request in
    /// its group.
    pub prep_reused: bool,
    /// The response was replayed from the memo store (no solve ran).
    pub memoized: bool,
    /// The request's `optimize` started from a prior certified bracket.
    pub bracket_injected: bool,
    /// Live engine evaluations this request caused.
    pub engine_evals: usize,
    /// Rounds replayed from the shared session's trajectory cache.
    pub replayed: usize,
}

impl ServeStats {
    /// The deepest cache tier that served this request, for telemetry:
    /// `"memo"` (tier 1), `"bracket"` (tier 3 continuation), `"prepared"`
    /// (tier 2 only), or `None` for a fully cold request.
    pub fn hit_tier(&self) -> Option<&'static str> {
        if self.memoized {
            Some("memo")
        } else if self.bracket_injected {
            Some("bracket")
        } else if self.prep_reused {
            Some("prepared")
        } else {
            None
        }
    }
}

/// One response: the request's id, its result (or a printable error), and
/// serving telemetry.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The request id this response answers.
    pub id: String,
    /// The result, or a printable per-request error.
    pub result: Result<ServeResult, String>,
    /// Serving telemetry.
    pub stats: ServeStats,
}

/// Aggregate report over one [`Scheduler::run_batch`] call.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Requests in the batch.
    pub requests: usize,
    /// Distinct fingerprint groups executed.
    pub groups: usize,
    /// Requests that ended in an error response.
    pub errors: usize,
    /// Solver preparations performed (engine builds).
    pub prep_builds: usize,
    /// Per-tier cache hit counters (same schema as the streaming
    /// [`crate::service::ServiceReport`], so E13 and E15 compare
    /// row-for-row).
    pub tiers: crate::telemetry::TierCounters,
    /// Total live engine evaluations across the batch.
    pub engine_evals: usize,
    /// Total trajectory-cache rounds replayed across the batch.
    pub replayed: usize,
    /// Sum of per-request queue waits.
    pub total_queue_wait: Duration,
    /// Largest single queue wait.
    pub max_queue_wait: Duration,
    /// Sum of per-request service times.
    pub total_service: Duration,
    /// Service-time (execution only) latency histogram.
    pub service_hist: crate::telemetry::LatencyHistogram,
    /// Queue-wait (batch start → execution start) latency histogram.
    pub queue_hist: crate::telemetry::LatencyHistogram,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
}

/// Responses (submission order) plus the aggregate report.
pub struct BatchOutput {
    /// One response per request, in submission order.
    pub responses: Vec<ServeResponse>,
    /// Aggregate batch telemetry.
    pub report: BatchReport,
}

/// The serving scheduler: owns the fingerprint cache and executes request
/// batches. Create once and feed it batches; cached preparation (and
/// memoized results) carry across batches.
pub struct Scheduler {
    opts: SchedulerOptions,
    cache: crate::cache::SolverCache,
}

/// One fingerprint group's members: `(submission index, request)`.
type GroupItems<'r> = Vec<(usize, &'r ServeRequest)>;

/// Work unit handed to a group worker.
struct GroupWork<'r> {
    /// The group's prep hash (cold mode uses a synthetic per-request
    /// value; it is never inserted, so it only needs to be unique).
    hash: u64,
    entry: Option<CacheEntry>,
    /// Members sorted by request id.
    items: GroupItems<'r>,
}

/// Full-fingerprint equality between two requests: same engine kind and
/// seed, and structurally identical instances. This — not the 64-bit hash
/// — is what defines a group.
fn fingerprint_eq(a: &ServeRequest, b: &ServeRequest) -> bool {
    prep_engine_of(&a.kind) == prep_engine_of(&b.kind) && a.payload.structural_eq(&b.payload)
}

impl Scheduler {
    /// A scheduler with the given options.
    pub fn new(opts: SchedulerOptions) -> Self {
        Scheduler { opts, cache: crate::cache::SolverCache::new(crate::cache::MAX_ENTRIES) }
    }

    /// Number of fingerprints currently cached.
    pub fn cached_fingerprints(&self) -> usize {
        self.cache.len()
    }

    /// Execute one batch. Responses come back in submission order; see the
    /// module docs for the determinism and reuse contracts.
    ///
    /// # Errors
    /// [`ServeError::DuplicateId`] when two requests share an id.
    /// Per-request failures (bad options, mismatched payload, solver
    /// errors) are reported inside the affected [`ServeResponse`], not as
    /// batch errors.
    pub fn run_batch(&mut self, requests: &[ServeRequest]) -> Result<BatchOutput, ServeError> {
        let batch_start = Instant::now();
        {
            let mut seen = std::collections::BTreeSet::new();
            for r in requests {
                if !seen.insert(r.id.as_str()) {
                    return Err(ServeError::DuplicateId(r.id.clone()));
                }
            }
        }

        // Partition into fingerprint groups: bucket by prep hash (BTreeMap
        // ⇒ canonical bucket order, independent of submission order), then
        // split each bucket by *actual* fingerprint equality so a 64-bit
        // collision can only split a group, never merge two distinct
        // fingerprints onto one prepared solver.
        let cache_enabled = self.opts.cache_enabled;
        let mut buckets: BTreeMap<u64, Vec<GroupItems<'_>>> = BTreeMap::new();
        for (idx, req) in requests.iter().enumerate() {
            // Cold mode: every request is its own group and nothing is
            // kept, giving the uncached per-request baseline. The
            // synthetic hash is never inserted, only unique.
            let hash = if cache_enabled { prep_hash(req) } else { idx as u64 };
            let subs = buckets.entry(hash).or_default();
            match subs
                .iter_mut()
                .find(|s| s.first().is_some_and(|(_, rep)| fingerprint_eq(rep, req)))
            {
                Some(s) => s.push((idx, req)),
                None => subs.push(vec![(idx, req)]),
            }
        }
        let mut work: Vec<GroupWork<'_>> = Vec::new();
        for (hash, mut subs) in buckets {
            for s in subs.iter_mut() {
                s.sort_by(|a, b| a.1.id.cmp(&b.1.id));
            }
            // Collision sub-groups (vanishingly rare) ordered by their
            // smallest request id, keeping group order a function of batch
            // contents alone.
            subs.sort_by(|a, b| {
                a.first().map(|x| x.1.id.as_str()).cmp(&b.first().map(|x| x.1.id.as_str()))
            });
            for items in subs {
                let entry = if cache_enabled {
                    items.first().and_then(|(_, rep)| self.cache.take(hash, rep))
                } else {
                    None
                };
                work.push(GroupWork { hash, entry, items });
            }
        }

        // Groups run in parallel on the caller's pool; concurrency never
        // changes results, only wall clock.
        let group_count = work.len();
        let outcomes: Vec<(Vec<usize>, Executed)> = {
            use rayon::prelude::*;
            work.into_par_iter()
                .map(|w| {
                    let (idxs, reqs): (Vec<usize>, Vec<&ServeRequest>) =
                        w.items.into_iter().unzip();
                    (idxs, execute(w.hash, w.entry, &reqs, batch_start))
                })
                .collect()
        };

        // Re-insert surviving entries in canonical group order.
        let mut prep_builds = 0usize;
        let mut responses: Vec<Option<ServeResponse>> = requests.iter().map(|_| None).collect();
        for (idxs, out) in outcomes {
            if out.prep_built {
                prep_builds += 1;
            }
            if let Some(entry) = out.entry.filter(|_| cache_enabled) {
                self.cache.insert(entry);
            }
            for (idx, resp) in idxs.into_iter().zip(out.responses) {
                if let Some(slot) = responses.get_mut(idx) {
                    *slot = Some(resp);
                }
            }
        }
        // Every request gets an answer even if a group worker dropped one
        // on the floor (a bug, but one that must surface as an error
        // response, not a panic mid-batch).
        let responses: Vec<ServeResponse> = responses
            .into_iter()
            .zip(requests)
            .map(|(slot, req)| {
                slot.unwrap_or_else(|| ServeResponse {
                    id: req.id.clone(),
                    result: Err("request was not answered by any group (internal)".to_string()),
                    stats: ServeStats::default(),
                })
            })
            .collect();

        let mut report = BatchReport {
            requests: requests.len(),
            groups: group_count,
            prep_builds,
            wall: batch_start.elapsed(),
            ..BatchReport::default()
        };
        for resp in &responses {
            if resp.result.is_err() {
                report.errors += 1;
            }
            let s = &resp.stats;
            report.tiers.record(s);
            report.engine_evals += s.engine_evals;
            report.replayed += s.replayed;
            report.total_queue_wait += s.queue_wait;
            report.max_queue_wait = report.max_queue_wait.max(s.queue_wait);
            report.total_service += s.service;
            report.service_hist.record(s.service);
            report.queue_hist.record(s.queue_wait);
        }
        Ok(BatchOutput { responses, report })
    }
}
