//! Serving throughput: the fingerprint-keyed cache vs cold per-request
//! solving on a zipf-repeated request batch (backs experiment E13).
//!
//! `cached` runs one scheduler whose cache persists across iterations —
//! repeats hit memoized results and shared prepared solvers. `cold` runs
//! with the cache disabled, so every request pays preparation and a full
//! solve. Identical batches, byte-identical response values (the cache is
//! value-neutral; `psdp-serve` unit tests and `tests/determinism.rs`
//! assert it) — only the work differs.

use criterion::{criterion_group, criterion_main, Criterion};
use psdp_core::DecisionOptions;
use psdp_serve::{Scheduler, SchedulerOptions, ServeRequest};
use psdp_workloads::{request_stream, RequestStreamSpec};
use std::sync::Arc;

fn batch() -> Vec<ServeRequest> {
    let spec = RequestStreamSpec {
        pool: 4,
        requests: 24,
        dim: 12,
        n: 8,
        zipf_s: 1.1,
        thresholds: 3,
        seed: 5,
    };
    let (instances, stream) = request_stream(&spec);
    let instances: Vec<Arc<_>> = instances.into_iter().map(Arc::new).collect();
    stream
        .into_iter()
        .map(|r| {
            ServeRequest::decision(
                r.id,
                Arc::clone(&instances[r.instance]),
                r.threshold,
                DecisionOptions::practical(0.15),
            )
        })
        .collect()
}

fn bench_serve(c: &mut Criterion) {
    let requests = batch();
    let mut g = c.benchmark_group("serve_throughput");
    g.sample_size(10);

    g.bench_function("cold_per_request", |b| {
        b.iter(|| {
            let mut sched = Scheduler::new(SchedulerOptions { cache_enabled: false });
            let out = sched.run_batch(&requests).expect("batch");
            assert_eq!(out.report.errors, 0);
            out.report.engine_evals
        })
    });

    g.bench_function("fingerprint_cached", |b| {
        let mut sched = Scheduler::new(SchedulerOptions::default());
        b.iter(|| {
            let out = sched.run_batch(&requests).expect("batch");
            assert_eq!(out.report.errors, 0);
            out.report.engine_evals
        })
    });

    g.finish();

    // Print the amortization evidence alongside the timings (E13): prep
    // reuse and memo hits visible in the batch report.
    let mut cold = Scheduler::new(SchedulerOptions { cache_enabled: false });
    let cold_out = cold.run_batch(&requests).expect("batch");
    let mut warm = Scheduler::new(SchedulerOptions::default());
    let first = warm.run_batch(&requests).expect("batch");
    let steady = warm.run_batch(&requests).expect("batch");
    println!(
        "serve_throughput/report: cold evals={} prep_builds={} | first evals={} prep_builds={} prep_reuses={} memo_hits={} | steady evals={} memo_hits={}",
        cold_out.report.engine_evals,
        cold_out.report.prep_builds,
        first.report.engine_evals,
        first.report.prep_builds,
        first.report.tiers.prep_reuses,
        first.report.tiers.memo_hits,
        steady.report.engine_evals,
        steady.report.tiers.memo_hits,
    );
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
