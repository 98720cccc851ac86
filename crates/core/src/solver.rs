//! Session-based solver API: prepare once, solve many times.
//!
//! [`decision_psdp`](crate::decision_psdp) is a one-shot free function:
//! every call re-validates the instance, re-resolves
//! [`EngineKind::Auto`](psdp_expdot::EngineKind), re-factorizes every
//! constraint, rebuilds `Ψ` from scratch, and restarts `x` at `x⁰`. The
//! geometric bisection of `approxPSDP` (Lemma 2.2) makes `O(log(n/ε))` such
//! calls on the *same* constraint set, differing only in the threshold `σ`,
//! so all of that preparation is repaid nothing across brackets.
//!
//! This module splits the solver into:
//!
//! * [`Solver`] — the prepared problem: instance validated once, engine
//!   constructed (and `Auto` resolved, support-local factorizations built)
//!   once, per-constraint traces and `λmax` estimates cached once.
//! * [`Session`] — mutable solve state: the iterate, the incremental
//!   [`PsiMaintainer`], the warm-start trajectory cache, and the registered
//!   [`Observer`]s. [`Session::solve`] answers one ε-decision question
//!   "is the packing optimum ≥ `threshold`?"; [`Session::optimize`] runs
//!   the full certified bisection over one session.
//!
//! ## Cross-bracket warm starts
//!
//! Two complementary mechanisms, designed so that the certified brackets
//! of [`Session::optimize`] are **bitwise-identical** to a cold-start run
//! (the first unconditionally; the second whenever warm and cold resolve
//! each tested threshold to the same strong certificate — see below;
//! `tests/warmstart_bisection.rs` and experiment E11 verify the equality
//! end to end):
//!
//! **1. The trajectory replay cache (bitwise-neutral, per-solve).**
//! The decision loop at threshold `σ` nominally runs on the scaled
//! constraints `σAᵢ`. In *original* coordinates `u = σ·x` the whole state
//! is `σ`-invariant:
//!
//! * start point: `u⁰ᵢ = σ·x⁰ᵢ = σ/(n·Tr(σAᵢ)) = 1/(n·Tr Aᵢ)`,
//! * maintained matrix: `Ψ = Σ xᵢ·σAᵢ = Σ uᵢAᵢ`,
//! * engine output: `exp(Ψ)•(σAᵢ) = σ·(exp(Ψ)•Aᵢ)`.
//!
//! The threshold enters only through the eligibility test
//! `σ·ρᵢ(t) ≤ 1+ε` (where `ρᵢ = (exp Ψ • Aᵢ)/Tr exp Ψ`) and the exit test
//! `‖u‖₁ > σK`. Two cold solves therefore share a bitwise-identical
//! trajectory prefix for as long as they select the same step vectors. The
//! session caches, per round, the engine output `ρ(t)` and the step vector
//! taken; a later cold solve *replays* the cached rounds — skipping the
//! engine evaluation, the dominant per-round cost — until its own step
//! vector (computed from the cached `ρ` under the *new* threshold)
//! diverges. Because replay re-derives every decision from cached engine
//! values, a replayed solve returns **bitwise-identical results** to a
//! from-scratch one — only [`SolveStats::engine_evals`] /
//! [`SolveStats::replayed`] differ. Replay pays off when thresholds are
//! close (repeated or clustered queries over one session); it is disabled
//! for solves that accumulate the dense primal matrix `Y` (the cache holds
//! dot products, not `m×m` probability matrices).
//!
//! **2. Iterate continuation in the bisection (certified-quantized).**
//! Distant thresholds share essentially no trajectory prefix, so
//! [`Session::optimize`] additionally warm-starts each bracket's iterate
//! from the previous bracket's final `u`, rescaled so its threshold-frame
//! mass is `β·K` (β = 1/2) — the "previous iterate rescaled to remain
//! feasible for the new threshold". A warm-started trajectory differs
//! numerically from the cold one, so the bisection only accepts its
//! outcome when it is **strong** — a dual with measured value ≥ 1
//! (certifying `OPT ≥ σ` exactly) or a primal with min-dot ≥ 1 (certifying
//! `OPT ≤ σ·(1+pruning slack)` exactly) — and then applies the *quantized*
//! bracket update `lo ← σ` / `hi ← σ·(1+slack)`, a deterministic function
//! of `σ` alone. Weak warm outcomes are discarded and the bracket re-runs
//! cold (replay-assisted), reproducing exactly what the cold bisection
//! would have done; a weak *cold* outcome escalates to a deterministic
//! certificate-seeking continuation before falling back to the
//! measured-value update.
//!
//! Strong certificates are true statements about `OPT` regardless of the
//! path that found them, so warm and cold bisections walk the same `σ`
//! sequence — and report the same certified bracket — **whenever each
//! tested `σ` resolves to the same strong side on both paths** (or both
//! end weak, where the shared fallback is cold-deterministic). The two
//! sides are simultaneously certifiable only when `σ` sits within the
//! solver's ε-resolution of `OPT`; there, and when only one path finds a
//! strong certificate at all, warm and cold could in principle diverge —
//! both brackets stay individually certified. The warm-start unit tests,
//! the `tests/warmstart_bisection.rs` property test, and experiment E11
//! check that on the tested families the brackets are in fact equal bit
//! for bit, while the warm run reaches each certificate in far fewer
//! live iterations (the cold path must ramp `‖x‖₁` from `‖x⁰‖₁ ≪ 1` to
//! `K` at rate `(1+α)` per round). Warm attempts and the escalation
//! engage only in practical constants mode: under
//! [`ConstantsMode::PaperStrict`] the dual is scaled by `(1+10ε)K` while
//! the exit fires just above `K`, so a strong dual is unreachable and
//! strict-mode bisections run every bracket cold with measured-value
//! updates.
//!
//! ## Observers
//!
//! [`Observer`]s registered on a session receive [`IterationEvent`]s from
//! inside the iterate loop and [`PhaseEvent`]s at solve/bracket
//! boundaries; an observer can stop a solve early by returning
//! [`ObserverControl::Stop`] (the solve exits with
//! [`ExitReason::ObserverStopped`] and an *uncertified* averaged primal).
//! Telemetry, progress streaming, and early-stop injection therefore no
//! longer require forking the solver loop.

use crate::approx::{ApproxOptions, PackingReport};
use crate::decision::DecisionResult;
use crate::error::PsdpError;
use crate::instance::PackingInstance;
use crate::options::{ConstantsMode, DecisionOptions, UpdateRule};
use crate::psi::PsiMaintainer;
use crate::solution::{DualSolution, ExitReason, Outcome, PrimalSolution};
use crate::stats::{BracketStats, SolveStats};
use crate::theory::paper_constants;
use psdp_expdot::{Engine, EngineKind, ExpDots};
use psdp_linalg::{lambda_max_upper_bound, sym_eigen, vecops, Mat};
use psdp_parallel::Cost;
use std::sync::Arc;
use std::time::Instant;

/// Upper bound on the floats retained by the warm-start trajectory cache.
/// Each cached round stores up to `2n` floats (an `n`-length dot-product
/// vector plus an `n`-length step vector), so the cap corresponds to
/// ≈ 32 MB of `f64`s.
const CACHE_MAX_FLOATS: usize = 1 << 22;

/// Threshold-frame `‖x‖₁` mass (as a fraction of the dual-exit threshold
/// `K`) a warm-started bracket iterate is rescaled to. Half of `K` leaves
/// the loop room to re-balance the iterate before any exit can trigger.
const WARM_MASS_FRACTION: f64 = 0.5;

/// Builder for a prepared [`Solver`].
///
/// Obtained from [`Solver::builder`]; configure with
/// [`SolverBuilder::options`] and finish with [`SolverBuilder::build`].
#[derive(Debug, Clone)]
pub struct SolverBuilder<'i> {
    inst: &'i PackingInstance,
    opts: DecisionOptions,
}

impl<'i> SolverBuilder<'i> {
    /// Set the decision options (engine, constants mode, update rule, …)
    /// the solver prepares for. The engine kind and sketch seed are fixed
    /// at [`SolverBuilder::build`] time; per-solve overrides passed to
    /// [`Session::solve_with`] may change everything else.
    pub fn options(mut self, opts: DecisionOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Validate the options, resolve [`EngineKind::Auto`] against the
    /// instance's storage profile, and construct the engine (including any
    /// support-local constraint factorizations) exactly once.
    ///
    /// # Errors
    /// Option validation failures and constraint factorization failures.
    pub fn build(self) -> Result<Solver<'i>, PsdpError> {
        self.opts.validate()?;
        let engine = Arc::new(Engine::new(self.opts.engine, self.inst.mats(), self.opts.seed)?);
        Self::assemble(self.inst, self.opts, engine)
    }

    /// Like [`SolverBuilder::build`], but reuse an already-prepared engine
    /// instead of constructing one — the amortization hook the serving
    /// layer's fingerprint cache relies on (`psdp-serve`): factorizations
    /// and `Auto` resolution are paid once per distinct instance, not once
    /// per request.
    ///
    /// The engine **must** have been built (via [`SolverBuilder::build`] on
    /// an earlier solver, read back with [`Solver::engine_handle`]) from
    /// the same constraint set. That cannot be fully re-verified here, so
    /// this checks everything observable — dimension, seed, and that the
    /// engine's concrete kind equals what resolving the requested kind
    /// against this instance would produce — and the caller is responsible
    /// for keying its cache on the full instance identity (see
    /// `DESIGN.md` §10 on cache-key soundness).
    ///
    /// # Errors
    /// Option validation failures, or an engine inconsistent with this
    /// instance/options pair.
    pub fn build_with_engine(self, engine: Arc<Engine>) -> Result<Solver<'i>, PsdpError> {
        self.opts.validate()?;
        if engine.dim() != self.inst.dim() {
            return Err(PsdpError::InvalidInstance(format!(
                "prepared engine has dim {}, instance has dim {}",
                engine.dim(),
                self.inst.dim()
            )));
        }
        if engine.seed() != self.opts.seed {
            return Err(PsdpError::InvalidInstance(format!(
                "prepared engine was built with seed {}, options ask for seed {}",
                engine.seed(),
                self.opts.seed
            )));
        }
        let want = self.opts.engine.resolve(self.inst.dim(), self.inst.total_nnz());
        if engine.kind() != want {
            return Err(PsdpError::InvalidInstance(format!(
                "prepared engine kind {:?} does not match requested kind {:?}",
                engine.kind(),
                want
            )));
        }
        Self::assemble(self.inst, self.opts, engine)
    }

    fn assemble(
        inst: &'i PackingInstance,
        opts: DecisionOptions,
        engine: Arc<Engine>,
    ) -> Result<Solver<'i>, PsdpError> {
        let traces: Vec<f64> = inst.mats().iter().map(|a| a.trace()).collect();
        let lambda_caps: Vec<f64> =
            inst.mats().iter().map(|a| 1.0 / a.lambda_max_est().max(1e-300)).collect();
        Ok(Solver { inst, opts, engine, traces, lambda_caps })
    }
}

/// A prepared positive-SDP solver bound to one [`PackingInstance`].
///
/// Construction work — validation, engine resolution, constraint
/// factorization, per-constraint scalars — happens once here; all solves
/// run through [`Session`]s created by [`Solver::session`].
///
/// ```
/// use psdp_core::{DecisionOptions, PackingInstance, Solver};
/// use psdp_sparse::PsdMatrix;
///
/// let inst = PackingInstance::new(vec![
///     PsdMatrix::Diagonal(vec![1.0, 0.0]),
///     PsdMatrix::Diagonal(vec![0.0, 1.0]),
/// ])?;
/// let solver = Solver::builder(&inst).options(DecisionOptions::practical(0.2)).build()?;
/// let mut session = solver.session();
/// // "Is the packing optimum ≥ 1?" — yes (it is 2): a dual is certified.
/// let res = session.solve(1.0)?;
/// assert!(res.outcome.dual().is_some());
/// // "Is it ≥ 3?" — no: the same prepared engine answers the other side.
/// let res = session.solve(3.0)?;
/// assert!(res.outcome.primal().is_some());
/// # Ok::<(), psdp_core::PsdpError>(())
/// ```
pub struct Solver<'i> {
    inst: &'i PackingInstance,
    opts: DecisionOptions,
    engine: Arc<Engine>,
    traces: Vec<f64>,
    lambda_caps: Vec<f64>,
}

impl<'i> Solver<'i> {
    /// Start building a solver for `inst`.
    pub fn builder(inst: &'i PackingInstance) -> SolverBuilder<'i> {
        SolverBuilder { inst, opts: DecisionOptions::practical(0.1) }
    }

    /// The instance this solver was prepared for.
    pub fn instance(&self) -> &PackingInstance {
        self.inst
    }

    /// The options the solver was built with.
    pub fn options(&self) -> &DecisionOptions {
        &self.opts
    }

    /// The concrete engine kind in use ([`EngineKind::Auto`] is resolved at
    /// build time).
    pub fn engine_kind(&self) -> EngineKind {
        self.engine.kind()
    }

    /// A shareable handle to the prepared engine (factorizations included).
    /// Hand this to [`SolverBuilder::build_with_engine`] to prepare another
    /// solver for the *same* constraint set without redoing the work.
    pub fn engine_handle(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// Open a fresh session (empty warm-start cache, no observers).
    pub fn session(&self) -> Session<'i, '_> {
        Session {
            solver: self,
            cache: TrajectoryCache::default(),
            observers: Vec::new(),
            warm: true,
            solves: 0,
            last_u: None,
            last_mask: Vec::new(),
            last_key: None,
        }
    }
}

/// What an [`Observer`] tells the solve loop after each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverControl {
    /// Keep iterating.
    Continue,
    /// Stop the solve now; it exits with [`ExitReason::ObserverStopped`].
    Stop,
}

/// Per-iteration telemetry delivered to [`Observer::on_iteration`].
///
/// All quantities are in the scaled (threshold-1) frame the decision
/// problem is stated in, matching [`SolveStats`].
#[derive(Debug, Clone, Copy)]
pub struct IterationEvent {
    /// The threshold `σ` of the running solve.
    pub threshold: f64,
    /// Iteration counter `t` (1-based).
    pub t: usize,
    /// `‖x‖₁` after this iteration's update.
    pub norm1: f64,
    /// Number of coordinates stepped this iteration.
    pub selected: usize,
    /// Spectral-norm bound `κ` passed to the engine this iteration.
    pub kappa: f64,
    /// Smallest constraint ratio `P•Aᵢ` this iteration (over active
    /// coordinates).
    pub min_ratio: f64,
    /// Whether this iteration was replayed from the warm-start cache
    /// (engine evaluation skipped).
    pub replayed: bool,
}

/// Phase-boundary events delivered to [`Observer::on_phase`].
#[derive(Debug, Clone, Copy)]
pub enum PhaseEvent<'a> {
    /// A decision solve is starting.
    SolveStarted {
        /// Threshold `σ` being tested.
        threshold: f64,
        /// Whether the warm-start cache is armed for this solve.
        warm: bool,
    },
    /// A decision solve finished; full telemetry attached.
    SolveFinished {
        /// Threshold `σ` that was tested.
        threshold: f64,
        /// The solve's telemetry.
        stats: &'a SolveStats,
    },
    /// [`Session::optimize`] moved its bracket after a decision call.
    BracketUpdated {
        /// Threshold that was tested.
        sigma: f64,
        /// Certified lower bound after the update.
        lo: f64,
        /// Certified upper bound after the update.
        hi: f64,
        /// Whether the call certified the dual (feasible) side.
        dual_side: bool,
    },
}

/// Hooks threaded through the iterate loop and the bisection.
///
/// Default implementations do nothing, so an observer only implements what
/// it needs. Observers run synchronously on the solve thread; keep
/// [`Observer::on_iteration`] cheap.
pub trait Observer {
    /// Called at solve and bracket boundaries.
    fn on_phase(&mut self, _event: &PhaseEvent<'_>) {}

    /// Called once per iteration, after the update and exit checks.
    /// Returning [`ObserverControl::Stop`] ends the solve with
    /// [`ExitReason::ObserverStopped`].
    fn on_iteration(&mut self, _event: &IterationEvent) -> ObserverControl {
        ObserverControl::Continue
    }
}

/// One cached trajectory round: the engine output (only for rounds that
/// refreshed it — `None` for stale-rule reuse rounds) and the step vector
/// the cached trajectory took.
struct CachedRound {
    dots: Option<ExpDots>,
    steps: Vec<f64>,
}

/// Options fingerprint a cached trajectory is valid for. Anything that
/// changes the per-round state evolution (or the engine inputs) must be
/// part of this key; `threshold` deliberately is not — sharing across
/// thresholds is the whole point.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CacheKey {
    eps: f64,
    mode: ConstantsMode,
    rule: UpdateRule,
    psi_rebuild_period: usize,
}

impl CacheKey {
    fn of(opts: &DecisionOptions) -> CacheKey {
        CacheKey {
            eps: opts.eps,
            mode: opts.mode,
            rule: opts.rule,
            psi_rebuild_period: opts.psi_rebuild_period,
        }
    }
}

#[derive(Default)]
struct TrajectoryCache {
    key: Option<CacheKey>,
    mask: Vec<bool>,
    rounds: Vec<CachedRound>,
}

/// A stateful solve session over a prepared [`Solver`].
///
/// Owns the warm-start trajectory cache and the registered observers.
/// Create with [`Solver::session`]; run ε-decision solves with
/// [`Session::solve`] / [`Session::solve_with`] and full certified
/// optimization with [`Session::optimize`].
pub struct Session<'i, 's> {
    solver: &'s Solver<'i>,
    cache: TrajectoryCache,
    observers: Vec<Box<dyn Observer>>,
    warm: bool,
    solves: usize,
    /// Final original-coordinate iterate of the most recent solve, the
    /// seed for iterate continuation in [`Session::optimize`].
    last_u: Option<Vec<f64>>,
    /// Active mask of the most recent solve (iterate continuation requires
    /// an identical mask).
    last_mask: Vec<bool>,
    /// Options fingerprint of the most recent solve.
    last_key: Option<CacheKey>,
}

impl<'i, 's> Session<'i, 's> {
    /// Enable or disable cross-bracket warm starts (trajectory replay).
    /// Warm and cold solves return bitwise-identical results; disabling is
    /// useful for measuring the savings (experiment E11 does exactly that).
    pub fn set_warm_start(&mut self, warm: bool) {
        self.warm = warm;
    }

    /// Builder-style form of [`Session::set_warm_start`].
    #[must_use]
    pub fn with_warm_start(mut self, warm: bool) -> Self {
        self.warm = warm;
        self
    }

    /// Register an observer for subsequent solves.
    pub fn add_observer(&mut self, obs: Box<dyn Observer>) {
        self.observers.push(obs);
    }

    /// Number of decision solves this session has run.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Run the ε-decision problem "is the packing optimum ≥ `threshold`?"
    /// with the solver's build-time options.
    ///
    /// # Errors
    /// Invalid threshold, option validation, or linear-algebra failures.
    pub fn solve(&mut self, threshold: f64) -> Result<DecisionResult, PsdpError> {
        let opts = self.solver.opts;
        self.solve_with(threshold, &opts)
    }

    /// Like [`Session::solve`] with per-solve option overrides. The engine
    /// kind and sketch seed are fixed at [`SolverBuilder::build`] time and
    /// ignored here; everything else (eps, constants mode, update rule,
    /// early exit, …) takes effect for this solve only.
    ///
    /// # Errors
    /// Invalid threshold, option validation, or linear-algebra failures.
    pub fn solve_with(
        &mut self,
        threshold: f64,
        opts: &DecisionOptions,
    ) -> Result<DecisionResult, PsdpError> {
        opts.validate()?;
        self.run_decision(threshold, opts, None, None, false)
    }

    fn emit_phase(&mut self, event: &PhaseEvent<'_>) {
        for obs in &mut self.observers {
            obs.on_phase(event);
        }
    }

    /// The decision loop (Algorithm 3.1) at threshold `sigma`, optionally
    /// restricted to an active-coordinate mask (Lemma 2.2 trace pruning)
    /// and optionally starting from a warm iterate (`start`, original
    /// coordinates; replay and recording are disabled for warm starts —
    /// the cache only ever holds cold trajectories). State is kept in
    /// original coordinates `u = σ·x` (see the module docs), which is what
    /// makes the replay cache threshold-invariant.
    ///
    /// `cert_seek` switches the exit logic to *strong-certificate hunting*
    /// (the bisection's deterministic escalation for weak outcomes): the
    /// dual exit fires only once `‖x‖₁ ≥ κ·(1+1e-6)` — which guarantees
    /// the measured dual value is ≥ 1 since `λmax(Ψ) ≤ κ` — and the
    /// primal running-average check runs regardless of
    /// [`DecisionOptions::early_exit`].
    fn run_decision(
        &mut self,
        sigma: f64,
        opts: &DecisionOptions,
        mask: Option<Vec<bool>>,
        start: Option<Vec<f64>>,
        cert_seek: bool,
    ) -> Result<DecisionResult, PsdpError> {
        if !(sigma > 0.0 && sigma.is_finite()) {
            return Err(PsdpError::InvalidInstance(format!(
                "decision threshold must be positive and finite, got {sigma}"
            )));
        }
        let wall_start = Instant::now();
        self.solves += 1;
        let inst = self.solver.inst;
        let engine = &self.solver.engine;
        let n = inst.n();
        let m = inst.dim();
        let eps = opts.eps;

        let active: Vec<bool> = mask.unwrap_or_else(|| vec![true; n]);
        debug_assert_eq!(active.len(), n);
        let n_active = active.iter().filter(|&&b| b).count();
        if n_active == 0 {
            return Err(PsdpError::InvalidInstance("active-coordinate mask is empty".into()));
        }
        let active_min = |vals: &[f64]| {
            vals.iter()
                .zip(&active)
                .filter(|&(_, &a)| a)
                .fold(f64::INFINITY, |acc, (&v, _)| acc.min(v))
        };

        let pc = paper_constants(n_active, eps);
        let (k_threshold, alpha, cap) = match opts.mode {
            ConstantsMode::PaperStrict => (pc.k_threshold, pc.alpha, pc.r_cap.ceil() as usize),
            ConstantsMode::Practical { alpha_boost, max_iters } => {
                (pc.k_threshold, pc.alpha * alpha_boost, max_iters)
            }
        };
        let lemma_bound = (1.0 + 10.0 * eps) * k_threshold;

        // Original-coordinate start point u⁰ᵢ = 1/(n_active·Tr Aᵢ)
        // (σ-invariant; equals σ·x⁰ᵢ for the scaled instance), unless a
        // warm iterate was handed in. Masked coordinates are frozen at 0 —
        // exactly the Lemma 2.2 restriction.
        let warm_init = start.is_some();
        let mut x: Vec<f64> = match start {
            Some(u) => {
                debug_assert_eq!(u.len(), n);
                u
            }
            None => self
                .solver
                .traces
                .iter()
                .zip(&active)
                .map(|(&tr, &a)| if a { 1.0 / (n_active as f64 * tr) } else { 0.0 })
                .collect(),
        };
        let mut psi = PsiMaintainer::new(inst, &x, opts.psi_rebuild_period);

        let engine_kind = engine.kind();
        // Only the engines that can materialize a dense P (exact always,
        // Taylor via one extra symmetric square) feed the primal average;
        // the sketched and expm-action engines never form exp(Φ).
        let accumulate_y = opts.primal_matrix_dim_limit > 0
            && m <= opts.primal_matrix_dim_limit
            && matches!(engine_kind, EngineKind::Exact | EngineKind::Taylor { .. });
        let mut y_acc: Option<Mat> = accumulate_y.then(|| Mat::zeros(m, m));

        // Replay arming: needs a cold start, a compatible cached
        // trajectory, and no dense-Y accumulation (the cache has no P
        // matrices). Recording is allowed when extending a verified prefix
        // (replay armed) or when the cache is empty and can adopt this
        // (cold) solve.
        let key = CacheKey::of(opts);
        let compatible = self.cache.key == Some(key) && self.cache.mask == active;
        let mut replaying = self.warm && compatible && !accumulate_y && !warm_init;
        let recording = if warm_init {
            false
        } else if self.cache.rounds.is_empty() {
            self.cache.key = Some(key);
            self.cache.mask = active.clone();
            true
        } else {
            replaying
        };
        let max_rounds = (CACHE_MAX_FLOATS / (2 * n.max(1))).clamp(64, 1 << 14);

        let phase = PhaseEvent::SolveStarted { threshold: sigma, warm: replaying || warm_init };
        self.emit_phase(&phase);

        let mut dot_sums = vec![0.0_f64; n];
        let mut rounds_accumulated = 0usize;
        let mut cost_total = Cost::ZERO;
        let mut selected_total = 0usize;
        let mut kappa_max = 0.0_f64;
        let mut engine_evals = 0usize;
        let mut replayed = 0usize;
        let mut exit = ExitReason::IterationCap;
        let sample_every = (cap / 200).max(1);
        let mut trajectory: Vec<(usize, f64)> = Vec::new();
        let mut cur: Option<ExpDots> = None;
        let mut t = 0usize;
        let mut empty_b_snapshot: Option<(Vec<f64>, Option<Mat>)> = None;

        if cert_seek {
            let kappa0 = lambda_max_upper_bound(psi.matrix());
            if vecops::sum(&x) / sigma >= (kappa0 * (1.0 + 1e-6)).max(1.0) {
                exit = ExitReason::DualNormCrossed;
            }
        } else if vecops::sum(&x) / sigma > k_threshold {
            exit = ExitReason::DualNormCrossed;
        }

        while t < cap && exit != ExitReason::DualNormCrossed {
            t += 1;
            let idx = t - 1;

            let mut kappa = lambda_max_upper_bound(psi.matrix());
            if matches!(opts.mode, ConstantsMode::PaperStrict) {
                kappa = kappa.min(lemma_bound * 1.01);
            }
            kappa_max = kappa_max.max(kappa);

            let refresh = match opts.rule {
                UpdateRule::Stale { period } => (t - 1).is_multiple_of(period) || cur.is_none(),
                _ => true,
            };
            let mut from_cache = false;
            if refresh {
                let cached_dots = if replaying {
                    self.cache.rounds.get(idx).and_then(|r| r.dots.clone())
                } else {
                    None
                };
                let dots = match cached_dots {
                    Some(d) => {
                        from_cache = true;
                        replayed += 1;
                        d
                    }
                    None => {
                        if replaying {
                            // Cache exhausted (or misaligned): go live and
                            // let recording extend it from here.
                            self.cache.rounds.truncate(idx);
                            replaying = false;
                        }
                        engine_evals += 1;
                        if accumulate_y {
                            engine.compute_dense(psi.matrix(), kappa, inst.mats(), t as u64)?
                        } else {
                            engine.compute(psi.matrix(), kappa, inst.mats(), t as u64)?
                        }
                    }
                };
                cost_total = cost_total + dots.cost;
                cur = Some(dots);
            } else if replaying && self.cache.rounds.get(idx).is_none() {
                self.cache.rounds.truncate(idx);
                replaying = false;
            }
            let dots = cur.as_ref().expect("engine output present");

            // Ratios P(t) • (σAᵢ) = σ·(W•Aᵢ)/Tr W.
            let inv_tr = 1.0 / dots.tr_w;
            let ratios: Vec<f64> = dots.dots.iter().map(|d| d * inv_tr * sigma).collect();

            if refresh {
                for (s, &r) in dot_sums.iter_mut().zip(&ratios) {
                    *s += r;
                }
                if let (Some(acc), Some(p)) = (y_acc.as_mut(), dots.dense_p.as_ref()) {
                    acc.axpy(1.0, p);
                }
                rounds_accumulated += 1;
            }

            let steps = select_steps(&ratios, eps, alpha, opts.rule, Some(&active));
            if replaying && idx < self.cache.rounds.len() && self.cache.rounds[idx].steps != steps {
                // Divergence: the new threshold selects differently here.
                // The cached dots were still valid for this round (the state
                // was shared up to it); everything after is not.
                self.cache.rounds.truncate(idx);
                replaying = false;
            }
            if recording && idx == self.cache.rounds.len() && self.cache.rounds.len() < max_rounds {
                let stored = if refresh {
                    cur.as_ref().map(|d| ExpDots {
                        tr_w: d.tr_w,
                        dots: d.dots.clone(),
                        log_scale: d.log_scale,
                        cost: d.cost,
                        degree: d.degree,
                        sketch_rows: d.sketch_rows,
                        dense_p: None,
                    })
                } else {
                    None
                };
                self.cache.rounds.push(CachedRound { dots: stored, steps: steps.clone() });
            }
            let dots = cur.as_ref().expect("engine output present");

            let selected = steps.iter().filter(|&&s| s > 0.0).count();
            if selected == 0 {
                // Every active constraint has P•Aᵢ > 1+ε: the current P is a
                // feasible primal. Replayed rounds carry no dense P, so
                // re-evaluate the engine once to rebuild the snapshot the
                // cold path would have had — but only for the exact engine,
                // the only one whose plain `compute` produces a dense P
                // (replay implies `accumulate_y` is off, so a cold Taylor/
                // sketched solve would have had `None` here anyway).
                let dense_p = if from_cache {
                    if matches!(engine_kind, EngineKind::Exact) {
                        engine_evals += 1;
                        engine.compute(psi.matrix(), kappa, inst.mats(), t as u64)?.dense_p
                    } else {
                        None
                    }
                } else {
                    dots.dense_p.clone()
                };
                empty_b_snapshot = Some((ratios.clone(), dense_p));
                exit = ExitReason::EmptyEligibleSet;
                break;
            }
            selected_total += selected;

            let mut deltas: Vec<(usize, f64)> = Vec::with_capacity(selected);
            for (i, &step) in steps.iter().enumerate() {
                if step > 0.0 {
                    let delta = step * x[i];
                    x[i] += delta;
                    deltas.push((i, delta));
                }
            }
            psi.apply_updates(&deltas);
            psi.maybe_rebuild(&x);

            let norm1 = vecops::sum(&x) / sigma;
            if t.is_multiple_of(sample_every) {
                trajectory.push((t, norm1));
            }
            if cert_seek {
                // Strong-dual hunt: exit only once the measured value is
                // guaranteed ≥ 1 (λmax(Ψ) ≤ κ, so ‖x‖₁ ≥ κ ⇒ value ≥ 1).
                let kappa_now = lambda_max_upper_bound(psi.matrix());
                if norm1 >= (kappa_now * (1.0 + 1e-6)).max(1.0) {
                    exit = ExitReason::DualNormCrossed;
                    break;
                }
            } else if norm1 > k_threshold {
                exit = ExitReason::DualNormCrossed;
                break;
            }
            if (opts.early_exit || cert_seek) && rounds_accumulated > 0 {
                let min_avg = active_min(&dot_sums) / rounds_accumulated as f64;
                if min_avg >= 1.0 {
                    exit = ExitReason::PrimalEarly;
                    break;
                }
            }
            if !self.observers.is_empty() {
                let event = IterationEvent {
                    threshold: sigma,
                    t,
                    norm1,
                    selected,
                    kappa,
                    min_ratio: active_min(&ratios),
                    replayed: from_cache,
                };
                let mut stop = false;
                for obs in &mut self.observers {
                    if obs.on_iteration(&event) == ObserverControl::Stop {
                        stop = true;
                    }
                }
                if stop {
                    exit = ExitReason::ObserverStopped;
                    break;
                }
            }
        }

        let final_norm1 = vecops::sum(&x) / sigma;
        let outcome = match exit {
            ExitReason::DualNormCrossed => {
                let x_scaled: Vec<f64> = x.iter().map(|v| v / sigma).collect();
                Outcome::Dual(build_dual(&x_scaled, psi.matrix(), eps, k_threshold, opts.mode)?)
            }
            ExitReason::EmptyEligibleSet => {
                let (ratios, p) = empty_b_snapshot.expect("snapshot recorded");
                let min_dot = active_min(&ratios);
                Outcome::Primal(PrimalSolution {
                    constraint_dots: ratios,
                    y: p,
                    min_dot,
                    rounds_averaged: 1,
                })
            }
            // `CoverageReached` belongs to the mixed loop (`crate::mixed`)
            // and is never produced here; it falls through to the averaged
            // primal like the other soft exits.
            ExitReason::IterationCap
            | ExitReason::PrimalEarly
            | ExitReason::ObserverStopped
            | ExitReason::CoverageReached => {
                let rounds = rounds_accumulated.max(1) as f64;
                let constraint_dots: Vec<f64> = dot_sums.iter().map(|s| s / rounds).collect();
                let min_dot = active_min(&constraint_dots);
                let y = y_acc.map(|mut acc| {
                    acc.scale(1.0 / rounds);
                    let tr = acc.trace();
                    if tr > 0.0 {
                        acc.scale(1.0 / tr);
                    }
                    acc
                });
                Outcome::Primal(PrimalSolution {
                    constraint_dots,
                    y,
                    min_dot,
                    rounds_averaged: rounds_accumulated.max(1),
                })
            }
        };

        let stats = SolveStats {
            iterations: t,
            exit,
            final_norm1,
            k_threshold,
            alpha,
            iteration_cap: cap,
            cost: cost_total,
            engine: engine_kind.name(),
            avg_selected: if t > 0 { selected_total as f64 / t as f64 } else { 0.0 },
            kappa_max,
            psi_rebuilds: psi.rebuilds(),
            psi_max_drift: psi.max_drift(),
            threshold: sigma,
            warm_started: replayed > 0 || warm_init,
            engine_evals,
            replayed,
            wall: wall_start.elapsed(),
            norm_trajectory: trajectory,
        };
        self.last_u = Some(x);
        self.last_mask = active;
        self.last_key = Some(key);
        self.emit_phase(&PhaseEvent::SolveFinished { threshold: sigma, stats: &stats });
        Ok(DecisionResult { outcome, stats })
    }

    /// Optimize the packing instance to `(1+ε)` relative accuracy by
    /// certified geometric bisection (Lemma 2.2) over this session: every
    /// bracket reuses the prepared engine, and — when warm starts are on
    /// and the constants mode is practical — continues from the previous
    /// bracket's iterate (rescaled to the new threshold; see the module
    /// docs for the warm-vs-cold equivalence and its caveat).
    ///
    /// Bracket moves are driven by certified quantities only. A **strong**
    /// outcome (dual value ≥ 1, or primal min-dot ≥ 1) proves `OPT ≥ σ` /
    /// `OPT ≤ σ·(1+pruning slack)` exactly, and the bracket moves to that
    /// deterministic value — which is what lets warm and cold runs walk
    /// identical `σ` sequences. A weak outcome from a warm-started solve
    /// is discarded and the bracket re-runs cold; a weak cold outcome
    /// escalates to a certificate-seeking continuation and then falls
    /// back to the measured-value update (`lo ← σ·value`,
    /// `hi ← σ/min_dot`), still certified.
    ///
    /// # Errors
    /// Validation or solver failures; a bracket that fails to close within
    /// `max_calls` is reported with `converged = false`, not an error.
    pub fn optimize(&mut self, opts: &ApproxOptions) -> Result<PackingReport, PsdpError> {
        // Warm starts require BOTH the session flag and the options flag:
        // [`ApproxOptions::warm_start`] must not be silently ignored.
        let session_warm = self.warm;
        self.warm = session_warm && opts.warm_start;
        let result = self.optimize_inner(opts);
        self.warm = session_warm;
        result
    }

    fn optimize_inner(&mut self, opts: &ApproxOptions) -> Result<PackingReport, PsdpError> {
        if !(opts.eps > 0.0 && opts.eps < 1.0) {
            return Err(PsdpError::InvalidInstance(format!("eps {} not in (0,1)", opts.eps)));
        }
        opts.decision.validate()?;
        let inst = self.solver.inst;
        let n = inst.n();

        let mut lo = self.solver.lambda_caps.iter().fold(0.0_f64, |m, &v| m.max(v)) * 0.5;
        let mut hi = self.solver.lambda_caps.iter().sum::<f64>() * 2.0;
        if lo.is_nan() || lo <= 0.0 || !hi.is_finite() {
            return Err(PsdpError::InvalidInstance("degenerate λmax estimates".into()));
        }
        // Externally certified bracket (serving-layer reuse): intersect with
        // the structural bounds — both are certified, so the intersection is
        // certified and at least as tight. An inconsistent injection (empty
        // intersection, non-finite, or non-positive) is dropped, not
        // trusted.
        if let Some((inj_lo, inj_hi)) = opts.initial_bracket {
            if inj_lo > 0.0 && inj_lo.is_finite() && inj_hi.is_finite() && inj_lo <= inj_hi {
                let cand_lo = lo.max(inj_lo);
                let cand_hi = hi.min(inj_hi);
                if cand_lo <= cand_hi {
                    lo = cand_lo;
                    hi = cand_hi;
                }
            }
        }

        let mut best_dual: Option<DualSolution> = None;
        let mut upper_witness: Option<(f64, PrimalSolution)> = None;
        let mut call_stats = Vec::new();
        let mut brackets: Vec<BracketStats> = Vec::new();
        let mut total_iterations = 0;
        let mut total_engine_evals = 0usize;
        let mut total_replayed = 0usize;
        let mut calls = 0;
        let mut pruned_max = 0usize;
        let mut stopped = false;
        let decision = opts.decision;
        let key = CacheKey::of(&decision);
        // Strong duals are unreachable under the paper's strict scaling
        // (the dual exit fires just above K while the value is scaled by
        // (1+10ε)K, so measured value ≈ 1/(1+10ε) < 1): warm attempts and
        // the certificate-seeking escalation would always be discarded.
        // Strict-mode bisections therefore run every bracket cold with
        // measured-value updates, exactly like the pre-session optimizer.
        let practical = matches!(decision.mode, ConstantsMode::Practical { .. });

        while hi > lo * (1.0 + opts.eps) && calls < opts.max_calls {
            calls += 1;
            let sigma = (lo * hi).sqrt();
            // Lemma 2.2 trace pruning with the certified cutoff
            // max(n³, 2nm/ε): at threshold 1 any feasible x has
            // xᵢ ≤ m/Tr(Aᵢ'), so dropped coordinates carry ≤ ε/2 total mass.
            let n_f = n as f64;
            let cutoff = (n_f * n_f * n_f).max(2.0 * n_f * inst.dim() as f64 / opts.eps);
            let mut mask = vec![true; n];
            let mut dropped: Vec<usize> = Vec::new();
            for (i, &tr) in self.solver.traces.iter().enumerate() {
                if sigma * tr > cutoff {
                    mask[i] = false;
                    dropped.push(i);
                }
            }
            pruned_max = pruned_max.max(dropped.len());
            let use_mask = !dropped.is_empty() && dropped.len() < n;
            let active: Vec<bool> = if use_mask { mask } else { vec![true; n] };
            // Certified repair for pruned coordinates: any feasible x of
            // the scaled instance has xᵢ ≤ m/Tr(Aᵢ'), so the dropped
            // coordinates contribute at most Σ_dropped m/(σ·Tr Aᵢ) to the
            // scaled value. Deterministic in (σ, mask).
            let dropped_slack: f64 = if use_mask {
                dropped
                    .iter()
                    .map(|&i| inst.dim() as f64 / (sigma * self.solver.traces[i]).max(1e-300))
                    .sum()
            } else {
                0.0
            };

            // Rescale an iterate to threshold-frame mass β·K — "the
            // previous iterate rescaled to remain feasible for the new
            // threshold" (the loop has room to re-balance before any exit
            // can trigger).
            let n_active = active.iter().filter(|&&b| b).count();
            let k_threshold = paper_constants(n_active, decision.eps).k_threshold;
            let rescale = |u: &Vec<f64>| {
                let gamma = WARM_MASS_FRACTION * k_threshold * sigma / vecops::sum(u).max(1e-300);
                u.iter().map(|v| v * gamma).collect::<Vec<f64>>()
            };
            // Iterate continuation: warm-start from the previous bracket's
            // final iterate and accept its outcome only if strong;
            // otherwise fall back to a cold solve, which reproduces the
            // cold bisection bitwise.
            let warm_seed =
                if practical && self.warm && self.last_key == Some(key) && self.last_mask == active
                {
                    self.last_u.as_ref().map(&rescale)
                } else {
                    None
                };
            let mask_arg = use_mask.then(|| active.clone());
            let is_strong = |r: &DecisionResult| match &r.outcome {
                Outcome::Dual(d) => d.value >= 1.0,
                Outcome::Primal(p) => p.min_dot >= 1.0,
            };
            let stopped_early = |r: &DecisionResult| r.stats.exit == ExitReason::ObserverStopped;

            // Per-σ decision protocol (identical for warm and cold runs —
            // warm attempts are only *accepted* when strong, and every
            // fallback step is cold-deterministic):
            //   1. warm-seeded attempt (if available); accept if strong;
            //   2. cold solve; accept if strong;
            //   3. certificate-seeking continuation from the cold solve's
            //      final iterate; accept if strong;
            //   4. otherwise use the cold solve's weak outcome with
            //      measured-value bracket updates.
            // Work spent on discarded attempts still happened: count it in
            // every exported total so warm-start savings are never
            // overstated.
            let mut discarded: Vec<SolveStats> = Vec::new();
            let mut res = match warm_seed {
                Some(seed) => {
                    let attempt =
                        self.run_decision(sigma, &decision, mask_arg.clone(), Some(seed), false)?;
                    if is_strong(&attempt) || stopped_early(&attempt) {
                        attempt
                    } else {
                        discarded.push(attempt.stats);
                        self.run_decision(sigma, &decision, mask_arg.clone(), None, false)?
                    }
                }
                None => self.run_decision(sigma, &decision, mask_arg.clone(), None, false)?,
            };
            if practical && !is_strong(&res) && !stopped_early(&res) {
                // Certificate-seeking escalation, deterministic from the
                // weak cold solve's final iterate (rescaled to β·K mass so
                // the overshot state can re-balance toward either
                // certificate).
                let seed = self.last_u.as_ref().map(&rescale);
                let retry = self.run_decision(sigma, &decision, mask_arg, seed, true)?;
                if is_strong(&retry) || stopped_early(&retry) {
                    discarded.push(res.stats.clone());
                    res = retry;
                } else {
                    discarded.push(retry.stats);
                }
            }
            let wasted_iters: usize = discarded.iter().map(|s| s.iterations).sum();
            let wasted_evals: usize = discarded.iter().map(|s| s.engine_evals).sum();
            let wasted_replayed: usize = discarded.iter().map(|s| s.replayed).sum();
            let wasted_wall: std::time::Duration = discarded.iter().map(|s| s.wall).sum();
            total_iterations += res.stats.iterations + wasted_iters;
            total_engine_evals += res.stats.engine_evals + wasted_evals;
            total_replayed += res.stats.replayed + wasted_replayed;
            if res.stats.exit == ExitReason::ObserverStopped {
                // Keep the brackets-cover-every-call invariant: record the
                // aborted call (bracket unchanged) before stopping.
                brackets.push(BracketStats {
                    sigma,
                    dual_side: false,
                    lo,
                    hi,
                    iterations: res.stats.iterations + wasted_iters,
                    engine_evals: res.stats.engine_evals + wasted_evals,
                    replayed: res.stats.replayed + wasted_replayed,
                    warm_started: res.stats.warm_started
                        || discarded.iter().any(|s| s.warm_started),
                    wall: res.stats.wall + wasted_wall,
                });
                call_stats.push(res.stats);
                stopped = true;
                break;
            }
            let dual_side = res.outcome.is_dual();
            match res.outcome {
                Outcome::Dual(d) => {
                    // x' feasible for σAᵢ ⇒ x = σx' feasible for Aᵢ (masked
                    // coordinates are already zero).
                    let x: Vec<f64> = d.x.iter().map(|v| v * sigma).collect();
                    let value = sigma * d.value;
                    if d.value >= 1.0 {
                        // Strong: a feasible dual of scaled value ≥ 1
                        // proves OPT ≥ σ. Quantized, deterministic update.
                        lo = lo.max(sigma);
                    } else if value > lo {
                        lo = value;
                    } else {
                        // Degenerate progress (very weak dual): still move
                        // the bracket a little to guarantee termination.
                        lo = (lo * sigma).sqrt().max(lo);
                    }
                    if best_dual.as_ref().is_none_or(|b| value > b.value) {
                        best_dual =
                            Some(DualSolution { x, value, feasibility_scale: d.feasibility_scale });
                    }
                }
                Outcome::Primal(p) => {
                    let new_hi = if p.min_dot >= 1.0 {
                        // Strong: a trace-1 covering witness proves
                        // OPT ≤ σ (plus pruning slack). Quantized update.
                        sigma * (1.0 + dropped_slack)
                    } else {
                        let margin = p.min_dot.max(1e-12);
                        sigma * (1.0 / margin + dropped_slack)
                    };
                    if new_hi < hi {
                        hi = new_hi;
                    } else {
                        hi = (hi * sigma).sqrt().min(hi);
                    }
                    upper_witness = Some((sigma, p));
                }
            }
            if lo > hi {
                // Certified bounds crossed: numerical noise at convergence;
                // collapse the bracket.
                let mid = (lo * hi).sqrt();
                lo = mid;
                hi = mid;
            }
            brackets.push(BracketStats {
                sigma,
                dual_side,
                lo,
                hi,
                iterations: res.stats.iterations + wasted_iters,
                engine_evals: res.stats.engine_evals + wasted_evals,
                replayed: res.stats.replayed + wasted_replayed,
                warm_started: res.stats.warm_started || discarded.iter().any(|s| s.warm_started),
                wall: res.stats.wall + wasted_wall,
            });
            call_stats.push(res.stats);
            self.emit_phase(&PhaseEvent::BracketUpdated { sigma, lo, hi, dual_side });
            if lo == hi {
                break;
            }
        }

        Ok(PackingReport {
            value_lower: lo,
            value_upper: hi,
            best_dual,
            upper_witness,
            decision_calls: calls,
            total_iterations,
            converged: !stopped && hi <= lo * (1.0 + opts.eps) * (1.0 + 1e-12),
            pruned_max,
            call_stats,
            brackets,
            total_engine_evals,
            total_replayed,
        })
    }
}

/// Per-coordinate step multipliers (0 = not stepped) under the chosen rule,
/// restricted to the active coordinates. The returned value is the
/// multiplicative step: `x_i ← x_i·(1 + stepᵢ)`.
pub(crate) fn select_steps(
    ratios: &[f64],
    eps: f64,
    alpha: f64,
    rule: UpdateRule,
    active: Option<&[bool]>,
) -> Vec<f64> {
    let is_active = |i: usize| active.is_none_or(|a| a[i]);
    let threshold = 1.0 + eps;
    match rule {
        UpdateRule::Standard | UpdateRule::Stale { .. } => ratios
            .iter()
            .enumerate()
            .map(|(i, &r)| if r <= threshold && is_active(i) { alpha } else { 0.0 })
            .collect(),
        UpdateRule::Bucketed { boost } => ratios
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                if r <= threshold && is_active(i) {
                    // Slack-proportional boost, floored so near-threshold
                    // coordinates keep moving, capped at `boost`.
                    let slack = (threshold - r) / eps;
                    alpha * slack.clamp(0.25, boost)
                } else {
                    0.0
                }
            })
            .collect(),
        UpdateRule::TopK { k } => {
            let mut eligible: Vec<(usize, f64)> = ratios
                .iter()
                .copied()
                .enumerate()
                .filter(|&(i, r)| r <= threshold && is_active(i))
                .collect();
            eligible.sort_by(|a, b| a.1.total_cmp(&b.1));
            let mut steps = vec![0.0; ratios.len()];
            for &(i, _) in eligible.iter().take(k) {
                steps[i] = alpha;
            }
            steps
        }
    }
}

/// Build a certified dual solution from the raw (threshold-frame) iterate.
fn build_dual(
    x: &[f64],
    psi: &Mat,
    eps: f64,
    k_threshold: f64,
    mode: ConstantsMode,
) -> Result<DualSolution, PsdpError> {
    let scale = match mode {
        ConstantsMode::PaperStrict => (1.0 + 10.0 * eps) * k_threshold,
        ConstantsMode::Practical { .. } => {
            // Certify by measurement: λmax(Σ xᵢAᵢ) from the maintained Ψ.
            let lam = match sym_eigen(psi) {
                Ok(eig) => eig.lambda_max(),
                Err(_) => lambda_max_upper_bound(psi),
            };
            (lam * (1.0 + 1e-9)).max(1.0)
        }
    };
    let xs: Vec<f64> = x.iter().map(|v| v / scale).collect();
    let value = vecops::sum(&xs);
    Ok(DualSolution { x: xs, value, feasibility_scale: scale })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_sparse::PsdMatrix;

    fn diag_instance(rows: &[&[f64]]) -> PackingInstance {
        PackingInstance::new(rows.iter().map(|r| PsdMatrix::Diagonal(r.to_vec())).collect())
            .unwrap()
    }

    #[test]
    fn solver_session_answers_both_sides() {
        let inst = diag_instance(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let solver =
            Solver::builder(&inst).options(DecisionOptions::practical(0.2)).build().unwrap();
        let mut s = solver.session();
        // OPT = 2: threshold 1 certifies a dual, threshold 4 a primal.
        let d = s.solve(1.0).unwrap();
        assert!(d.outcome.dual().is_some());
        assert_eq!(d.stats.threshold, 1.0);
        let p = s.solve(4.0).unwrap();
        assert!(p.outcome.primal().is_some());
        assert_eq!(s.solves(), 2);
    }

    #[test]
    fn warm_and_cold_solves_are_bitwise_identical() {
        let inst = diag_instance(&[&[1.0, 0.0, 0.5], &[0.0, 1.0, 0.5], &[0.5, 0.5, 0.0]]);
        let mut opts = DecisionOptions::practical(0.15);
        opts.primal_matrix_dim_limit = 0; // enable replay
        let solver = Solver::builder(&inst).options(opts).build().unwrap();

        let thresholds = [0.8, 1.1, 0.95, 1.02];
        let mut warm = solver.session();
        let warm_results: Vec<DecisionResult> =
            thresholds.iter().map(|&s| warm.solve(s).unwrap()).collect();
        assert!(warm_results.iter().any(|r| r.stats.replayed > 0), "warm session never replayed");

        for (&sigma, wr) in thresholds.iter().zip(&warm_results) {
            let mut cold = solver.session().with_warm_start(false);
            let cr = cold.solve(sigma).unwrap();
            assert_eq!(cr.stats.iterations, wr.stats.iterations, "σ={sigma}");
            assert_eq!(cr.stats.exit, wr.stats.exit, "σ={sigma}");
            match (&cr.outcome, &wr.outcome) {
                (Outcome::Dual(a), Outcome::Dual(b)) => {
                    assert_eq!(a.x, b.x, "σ={sigma}: dual iterates diverged");
                    assert_eq!(a.value.to_bits(), b.value.to_bits(), "σ={sigma}");
                }
                (Outcome::Primal(a), Outcome::Primal(b)) => {
                    assert_eq!(a.constraint_dots, b.constraint_dots, "σ={sigma}");
                    assert_eq!(a.min_dot.to_bits(), b.min_dot.to_bits(), "σ={sigma}");
                }
                _ => panic!("σ={sigma}: outcome sides diverged warm vs cold"),
            }
        }
    }

    #[test]
    fn replay_skips_engine_evaluations() {
        let inst = diag_instance(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let mut opts = DecisionOptions::practical(0.1);
        opts.primal_matrix_dim_limit = 0;
        let solver = Solver::builder(&inst).options(opts).build().unwrap();
        let mut s = solver.session();
        let first = s.solve(0.7).unwrap();
        assert_eq!(first.stats.replayed, 0);
        assert!(!s.cache.rounds.is_empty());
        // A nearby threshold shares a long prefix.
        let second = s.solve(0.71).unwrap();
        assert!(second.stats.replayed > 0, "no rounds replayed: {:?}", second.stats);
        assert!(second.stats.engine_evals < second.stats.iterations + 1);
        assert!(second.stats.warm_started);
    }

    #[test]
    fn session_optimize_matches_known_optimum() {
        // OPT = 1/2 + 1/4 = 0.75.
        let inst = diag_instance(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let solver =
            Solver::builder(&inst).options(DecisionOptions::practical(0.025)).build().unwrap();
        let mut s = solver.session();
        let r = s.optimize(&ApproxOptions::practical(0.1)).unwrap();
        assert!(r.converged);
        assert!(r.value_lower <= 0.75 + 1e-9 && r.value_upper >= 0.75 - 1e-9);
        assert_eq!(r.brackets.len(), r.decision_calls);
        assert!(r.brackets.iter().all(|b| b.iterations > 0));
    }

    /// Strict constants mode can never produce a strong dual (the paper
    /// scaling divides by (1+10ε)K), so the bisection must skip warm
    /// attempts and escalation entirely — warm and cold are then the same
    /// cold path, and no discarded work appears in the totals.
    #[test]
    fn strict_mode_optimize_runs_cold_and_matches() {
        let inst = diag_instance(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let mut opts = ApproxOptions::practical(0.2);
        opts.decision = DecisionOptions::strict(0.05);
        let solver = Solver::builder(&inst).options(opts.decision).build().unwrap();
        let warm = solver.session().with_warm_start(true).optimize(&opts).unwrap();
        let cold = solver.session().with_warm_start(false).optimize(&opts).unwrap();
        assert_eq!(warm.value_lower.to_bits(), cold.value_lower.to_bits());
        assert_eq!(warm.value_upper.to_bits(), cold.value_upper.to_bits());
        assert_eq!(warm.total_iterations, cold.total_iterations);
        assert_eq!(warm.total_engine_evals, cold.total_engine_evals);
        assert!(warm.value_lower <= 0.75 && warm.value_upper >= 0.75);
        // No warm attempts were made, so per-call and total accounting
        // coincide exactly.
        let accepted: usize = warm.call_stats.iter().map(|s| s.iterations).sum();
        assert_eq!(warm.total_iterations, accepted);
    }

    /// Discarded warm attempts and escalations still happened: their
    /// engine evaluations must be part of the exported totals.
    #[test]
    fn discarded_attempts_counted_in_totals() {
        let inst = diag_instance(&[&[1.0, 0.0, 0.5], &[0.0, 1.0, 0.5], &[0.5, 0.5, 0.0]]);
        let opts = ApproxOptions::serving(0.1);
        let solver = Solver::builder(&inst).options(opts.decision).build().unwrap();
        let r = solver.session().optimize(&opts).unwrap();
        let accepted_iters: usize = r.call_stats.iter().map(|s| s.iterations).sum();
        let accepted_evals: usize = r.call_stats.iter().map(|s| s.engine_evals).sum();
        assert!(r.total_iterations >= accepted_iters);
        assert!(r.total_engine_evals >= accepted_evals);
        // Per-bracket totals must cover everything the report counts.
        let bracket_iters: usize = r.brackets.iter().map(|b| b.iterations).sum();
        let bracket_evals: usize = r.brackets.iter().map(|b| b.engine_evals).sum();
        assert_eq!(bracket_iters, r.total_iterations);
        assert_eq!(bracket_evals, r.total_engine_evals);
    }

    #[test]
    fn observer_sees_iterations_and_can_stop() {
        struct Counter {
            iters: usize,
            phases: usize,
            stop_at: usize,
        }
        impl Observer for Counter {
            fn on_phase(&mut self, _: &PhaseEvent<'_>) {
                self.phases += 1;
            }
            fn on_iteration(&mut self, ev: &IterationEvent) -> ObserverControl {
                self.iters += 1;
                assert!(ev.t >= 1 && ev.norm1 >= 0.0);
                if self.iters >= self.stop_at {
                    ObserverControl::Stop
                } else {
                    ObserverControl::Continue
                }
            }
        }

        let inst = diag_instance(&[&[0.5, 0.0], &[0.0, 0.5]]);
        let solver =
            Solver::builder(&inst).options(DecisionOptions::practical(0.2)).build().unwrap();
        let mut s = solver.session();
        s.add_observer(Box::new(Counter { iters: 0, phases: 0, stop_at: 3 }));
        let res = s.solve(1.0).unwrap();
        assert_eq!(res.stats.exit, ExitReason::ObserverStopped);
        assert_eq!(res.stats.iterations, 3);
    }

    #[test]
    fn masked_solve_freezes_pruned_coordinates() {
        let inst = diag_instance(&[&[1.0, 0.0], &[0.0, 1.0], &[100.0, 100.0]]);
        let solver =
            Solver::builder(&inst).options(DecisionOptions::practical(0.2)).build().unwrap();
        let mut s = solver.session();
        let res = s
            .run_decision(
                1.0,
                &DecisionOptions::practical(0.2),
                Some(vec![true, true, false]),
                None,
                false,
            )
            .unwrap();
        let d = res.outcome.dual().expect("dual side");
        assert_eq!(d.x[2], 0.0, "masked coordinate moved");
        assert!(d.value >= 0.8);
    }

    #[test]
    fn rejects_bad_threshold() {
        let inst = diag_instance(&[&[1.0]]);
        let solver = Solver::builder(&inst).build().unwrap();
        let mut s = solver.session();
        assert!(s.solve(0.0).is_err());
        assert!(s.solve(f64::NAN).is_err());
        assert!(s.solve(f64::INFINITY).is_err());
    }

    #[test]
    fn select_steps_standard_and_topk() {
        let ratios = vec![0.5, 1.05, 1.3];
        let s = select_steps(&ratios, 0.1, 0.01, UpdateRule::Standard, None);
        assert!(s[0] > 0.0 && s[1] > 0.0 && s[2] == 0.0);
        let s = select_steps(&ratios, 0.1, 0.01, UpdateRule::TopK { k: 1 }, None);
        assert!(s[0] > 0.0 && s[1] == 0.0 && s[2] == 0.0);
        // Masking removes the smallest-ratio coordinate from TopK.
        let s =
            select_steps(&ratios, 0.1, 0.01, UpdateRule::TopK { k: 1 }, Some(&[false, true, true]));
        assert!(s[0] == 0.0 && s[1] > 0.0 && s[2] == 0.0);
    }

    #[test]
    fn select_steps_bucketed_orders_by_slack() {
        let ratios = vec![0.1, 1.0, 2.0];
        let s = select_steps(&ratios, 0.1, 0.01, UpdateRule::Bucketed { boost: 8.0 }, None);
        assert!(s[0] > s[1], "lower ratio should step more: {s:?}");
        assert_eq!(s[2], 0.0);
        assert!(s[0] <= 0.01 * 8.0 + 1e-15);
    }
}
