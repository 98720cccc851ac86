//! Timed direct calls into each layer for one distinct instance or
//! (instance, request) pair: parse, solver preparation, the solve with a
//! per-iteration observer, one engine evaluation, verification and
//! rendering.

use crate::workload::{Command, Payload, Request, Wire};
use psdp_cli::jsonfmt::{mixed_payload, optimize_payload, solve_payload};
use psdp_core::{
    packing_content_hash, read_instance, read_instance_bin, read_mixed_instance_bin, verify_dual,
    verify_mixed_feasible, verify_mixed_infeasible, verify_primal, write_instance,
    write_instance_bin, write_mixed_instance_bin, ApproxOptions, ConstantsMode, DecisionOptions,
    EngineKind, IterationEvent, MixedApproxOptions, MixedInstance, MixedOptions, MixedSolver,
    Observer, ObserverControl, Outcome, PackingInstance, PackingReport, PhaseEvent, Solver,
};
use psdp_serve::ServeRequest;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// An instance as the server parsed it.
pub enum Parsed {
    Packing(Arc<PackingInstance>),
    Mixed(Arc<MixedInstance>),
}

pub struct ParsedInstance {
    pub parsed: Parsed,
    /// The content hash the server fingerprints it by.
    pub hash: u64,
    /// `read_instance` (+ content hash) or `read_*_bin` wall time.
    pub parse_ms: f64,
}

/// Parse a request's instance the way the server does: canonical text
/// plus one content hash, or the binary reader (which returns the
/// verified header hash).
pub fn parse(req: &Request) -> Result<ParsedInstance, String> {
    let e = |e: psdp_core::PsdpError| e.to_string();
    match (&req.inst.payload, req.wire) {
        (Payload::Packing(p), Wire::Text) => {
            let text = write_instance(p);
            let t = Instant::now();
            let inst = read_instance(&text).map_err(e)?;
            let hash = packing_content_hash(&inst);
            let parse_ms = ms_since(t);
            Ok(ParsedInstance { parsed: Parsed::Packing(Arc::new(inst)), hash, parse_ms })
        }
        (Payload::Packing(p), Wire::Frame) => {
            let bytes = write_instance_bin(p);
            let t = Instant::now();
            let (inst, hash) = read_instance_bin(&bytes).map_err(e)?;
            let parse_ms = ms_since(t);
            Ok(ParsedInstance { parsed: Parsed::Packing(Arc::new(inst)), hash, parse_ms })
        }
        (Payload::Mixed(x), _) => {
            let bytes = write_mixed_instance_bin(x);
            let t = Instant::now();
            let (inst, hash) = read_mixed_instance_bin(&bytes).map_err(e)?;
            let parse_ms = ms_since(t);
            Ok(ParsedInstance { parsed: Parsed::Mixed(Arc::new(inst)), hash, parse_ms })
        }
    }
}

/// The CLI's engine names (`psdp serve` request field `engine`).
fn engine_of(name: &str, eps: f64) -> EngineKind {
    match name {
        "auto" => EngineKind::Auto { eps: eps.min(0.3) },
        "taylor" => EngineKind::Taylor { eps: (eps * 0.5).min(0.2) },
        "jl" => EngineKind::TaylorJl { eps: eps.min(0.3), sketch_const: 4.0 },
        "expv" => EngineKind::Expv { eps: eps.min(0.3) },
        _ => EngineKind::Exact,
    }
}

fn decision_options(eps: f64, engine: &str) -> DecisionOptions {
    let mut opts = DecisionOptions::practical(eps).with_engine(engine_of(engine, eps)).with_seed(0);
    opts.mode = ConstantsMode::practical_default();
    opts
}

fn approx_options(eps: f64) -> ApproxOptions {
    let mut opts = ApproxOptions::practical(eps);
    opts.warm_start = true;
    opts
}

fn mixed_options(eps: f64) -> MixedApproxOptions {
    let mut opts = MixedApproxOptions::practical(eps);
    opts.warm_start = true;
    opts.decision = opts.decision.with_engine(engine_of("exact", eps)).with_seed(0);
    opts
}

/// The `ServeRequest` the server builds from this request's bytes.
pub fn serve_request(req: &Request, p: &ParsedInstance) -> Result<ServeRequest, String> {
    Ok(match (&req.command, &p.parsed) {
        (Command::Solve { threshold, eps, engine }, Parsed::Packing(i)) => {
            ServeRequest::decision_hashed(
                req.id.clone(),
                Arc::clone(i),
                p.hash,
                *threshold,
                decision_options(*eps, engine),
            )
        }
        (Command::Optimize { eps }, Parsed::Packing(i)) => ServeRequest::optimize_hashed(
            req.id.clone(),
            Arc::clone(i),
            p.hash,
            approx_options(*eps),
        ),
        (Command::Mixed { eps }, Parsed::Mixed(i)) => {
            ServeRequest::mixed_hashed(req.id.clone(), Arc::clone(i), p.hash, mixed_options(*eps))
        }
        _ => return Err(format!("request {}: command and instance family disagree", req.id)),
    })
}

/// Iteration stamps from a benchmark-owned observer.
#[derive(Default)]
struct IterLog {
    last: Option<Instant>,
    /// Wall time of each live (not replayed) iteration.
    iter_ms: Vec<f64>,
    /// `κ` of each live iteration.
    kappas: Vec<f64>,
}

struct Stamper(Rc<RefCell<IterLog>>);

impl Observer for Stamper {
    fn on_phase(&mut self, event: &PhaseEvent<'_>) {
        if let PhaseEvent::SolveStarted { .. } = event {
            self.0.borrow_mut().last = Some(Instant::now());
        }
    }

    fn on_iteration(&mut self, event: &IterationEvent) -> ObserverControl {
        let now = Instant::now();
        let mut log = self.0.borrow_mut();
        if let Some(last) = log.last {
            if !event.replayed {
                log.iter_ms.push(now.duration_since(last).as_secs_f64() * 1e3);
                log.kappas.push(event.kappa);
            }
        }
        log.last = Some(now);
        ObserverControl::Continue
    }
}

/// What the direct calls measured for one (instance, request) pair.
#[derive(Debug, Default, Clone)]
pub struct Direct {
    /// `Solver::builder(..).build()` / `MixedSolver::builder(..).build()`.
    pub build_ms: f64,
    /// `Session::solve_with` / `Session::optimize` (packing).
    pub solve_ms: f64,
    pub iterations: usize,
    /// Iterations of discarded decision attempts (optimize only).
    pub discarded_iterations: usize,
    pub decision_calls: usize,
    pub replayed: usize,
    pub engine_evals: usize,
    /// Analytic engine work (`SolveStats.cost.work`, summed).
    pub work: f64,
    /// Per live iteration wall time.
    pub iter_ms: Vec<f64>,
    /// One `Engine::compute` at `Ψ = Σxᵢ Aᵢ` of the returned dual point.
    pub eval_ms: Option<f64>,
    /// `MixedSession::optimize`.
    pub mixed_solve_ms: f64,
    pub mixed_iterations: usize,
    pub mixed_evals: usize,
    /// The `verify_*` calls the renderer makes.
    pub verify_ms: f64,
    /// `jsonfmt::*_payload` (includes its `verify_*` re-run).
    pub render_ms: f64,
}

/// Iterations run by decision attempts that `optimize` discarded: the
/// total minus the iterations of the calls it reports.
pub fn discarded_iterations(r: &PackingReport) -> usize {
    let kept: usize = r.call_stats.iter().map(|s| s.iterations).sum();
    r.total_iterations.saturating_sub(kept)
}

/// Call `f` once untimed (first-call allocations), then time it until
/// `min_ms` has passed (at least once, at most `max_reps` times) and
/// return the median wall time of one call.
fn median_ms(min_ms: f64, max_reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.is_empty() || (ms_since(started) < min_ms && samples.len() < max_reps) {
        let t = Instant::now();
        f();
        samples.push(ms_since(t));
    }
    crate::stats::median(&samples)
}

pub fn run(req: &Request, p: &ParsedInstance) -> Result<Direct, String> {
    let e = |e: psdp_core::PsdpError| e.to_string();
    let mut d = Direct::default();
    match (&req.command, &p.parsed) {
        (Command::Mixed { eps }, Parsed::Mixed(inst)) => {
            let opts = mixed_options(*eps);
            let build_opts = MixedOptions::practical(0.1)
                .with_engine(opts.decision.engine)
                .with_seed(opts.decision.seed);
            let t = Instant::now();
            let solver = MixedSolver::builder(inst).options(build_opts).build().map_err(e)?;
            d.build_ms = ms_since(t);
            let mut session = solver.session();
            let t = Instant::now();
            let r = session.optimize(&opts).map_err(e)?;
            d.mixed_solve_ms = ms_since(t);
            d.mixed_iterations = r.total_iterations;
            d.mixed_evals = r.total_engine_evals;
            let t = Instant::now();
            if let Some(pt) = &r.best_point {
                std::hint::black_box(verify_mixed_feasible(
                    inst,
                    pt,
                    r.threshold_lower * (1.0 - 1e-9),
                    1e-7,
                ));
            }
            if let Some(w) = &r.infeasibility_witness {
                std::hint::black_box(verify_mixed_infeasible(inst, w, 1e-7));
            }
            d.verify_ms = ms_since(t);
            let t = Instant::now();
            std::hint::black_box(mixed_payload("null", inst, &r, false));
            d.render_ms = ms_since(t);
        }
        (cmd, Parsed::Packing(inst)) => {
            let engine = match cmd {
                Command::Solve { eps, engine, .. } => engine_of(engine, *eps),
                _ => EngineKind::Exact,
            };
            let build_opts = DecisionOptions::practical(0.1).with_engine(engine).with_seed(0);
            let t = Instant::now();
            let solver = Solver::builder(inst).options(build_opts).build().map_err(e)?;
            d.build_ms = ms_since(t);
            let log = Rc::new(RefCell::new(IterLog::default()));
            let mut session = solver.session();
            session.add_observer(Box::new(Stamper(Rc::clone(&log))));
            let (dual, render): (Option<psdp_core::DualSolution>, Box<dyn Fn() -> String>) =
                match cmd {
                    Command::Solve { threshold, eps, engine } => {
                        let t = Instant::now();
                        let res = session
                            .solve_with(*threshold, &decision_options(*eps, engine))
                            .map_err(e)?;
                        d.solve_ms = ms_since(t);
                        d.iterations = res.stats.iterations;
                        d.decision_calls = 1;
                        d.replayed = res.stats.replayed;
                        d.engine_evals = res.stats.engine_evals;
                        d.work = res.stats.cost.work;
                        let t = Instant::now();
                        match &res.outcome {
                            Outcome::Dual(x) => {
                                std::hint::black_box(verify_dual(inst, x, 1e-8));
                            }
                            Outcome::Primal(y) => {
                                std::hint::black_box(verify_primal(inst, y, 1e-5));
                            }
                        }
                        d.verify_ms = ms_since(t);
                        let dual = res.outcome.dual().cloned();
                        let inst = Arc::clone(inst);
                        (dual, Box::new(move || solve_payload("null", &inst, &res, false)))
                    }
                    Command::Optimize { eps } => {
                        let t = Instant::now();
                        let r = session.optimize(&approx_options(*eps)).map_err(e)?;
                        d.solve_ms = ms_since(t);
                        d.iterations = r.total_iterations;
                        d.discarded_iterations = discarded_iterations(&r);
                        d.decision_calls = r.decision_calls;
                        d.replayed = r.total_replayed;
                        d.engine_evals = r.total_engine_evals;
                        d.work = r.call_stats.iter().map(|s| s.cost.work).sum();
                        let t = Instant::now();
                        if let Some(x) = &r.best_dual {
                            std::hint::black_box(verify_dual(inst, x, 1e-8));
                        }
                        d.verify_ms = ms_since(t);
                        let dual = r.best_dual.clone();
                        let inst = Arc::clone(inst);
                        (dual, Box::new(move || optimize_payload("null", &inst, &r, false)))
                    }
                    Command::Mixed { .. } => {
                        return Err(format!(
                            "request {}: mixed command on a packing instance",
                            req.id
                        ))
                    }
                };
            drop(session);
            let t = Instant::now();
            std::hint::black_box(render());
            d.render_ms = ms_since(t);
            let log = log.borrow();
            d.iter_ms = log.iter_ms.clone();
            if let Some(x) = dual {
                // Ψ at the returned dual point, scaled to the median κ the
                // solve handed the engine, so the evaluation does the
                // typical per-iteration work (the Taylor degree grows
                // with κ).
                let mut psi = inst.weighted_sum(&x.x);
                let lam = verify_dual(inst, &x, 1e-8).lambda_max;
                let kappa = crate::stats::median(&log.kappas);
                if lam > 0.0 && kappa > 0.0 {
                    psi.scale(kappa / lam);
                    let engine = solver.engine_handle();
                    let mut failed = None;
                    let ms = median_ms(200.0, 15, || {
                        let out = engine.compute(std::hint::black_box(&psi), kappa, inst.mats(), 1);
                        if let Err(err) = std::hint::black_box(out) {
                            failed = Some(err.to_string());
                        }
                    });
                    if let Some(err) = failed {
                        return Err(format!("engine evaluation failed: {err}"));
                    }
                    d.eval_ms = Some(ms);
                }
            }
        }
        _ => return Err(format!("request {}: command and instance family disagree", req.id)),
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_workloads::{random_factorized, RandomFactorized};

    #[test]
    fn discarded_iterations_count_the_capped_certificate_search() {
        // `psdp generate --family random --dim 16 --seed 2`: one of its
        // optimize brackets runs the certificate-seeking continuation to
        // the 20 000-iteration practical cap and is discarded.
        let inst = PackingInstance::new(random_factorized(&RandomFactorized {
            dim: 16,
            n: 8,
            rank: 2,
            nnz_per_col: 5,
            width: 1.0,
            seed: 2,
        }))
        .unwrap();
        let solver =
            Solver::builder(&inst).options(DecisionOptions::practical(0.1)).build().unwrap();
        let r = solver.session().optimize(&ApproxOptions::practical(0.2)).unwrap();
        let kept: usize = r.call_stats.iter().map(|s| s.iterations).sum();
        assert_eq!(discarded_iterations(&r), r.total_iterations - kept);
        assert!(
            discarded_iterations(&r) >= 20_000,
            "{} of {}",
            discarded_iterations(&r),
            r.total_iterations
        );

        // A report whose calls account for every iteration discards none,
        // and a total below the kept sum cannot underflow.
        let mut clean = r.clone();
        clean.total_iterations = kept;
        assert_eq!(discarded_iterations(&clean), 0);
        clean.total_iterations = 0;
        assert_eq!(discarded_iterations(&clean), 0);
    }
}
