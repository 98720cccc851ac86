//! # psdp-core
//!
//! Width-independent parallel positive SDP solving — the reproduction of
//! Peng–Tangwongsan–Zhang (SPAA 2012).
//!
//! * [`solver`] — the session API and the iterate loop itself:
//!   [`Solver`] (instance validated, engine resolved and constructed once)
//!   → [`Session`] (stateful solves with cross-bracket warm starts and
//!   per-iteration [`Observer`]s). **This is the primary entry point.**
//! * [`instance`] — problem types: general positive SDPs (1.1),
//!   normalized packing instances (Figure 2), and mixed packing–covering
//!   instances, all over [`Constraint`] storage (dense / sparse CSR /
//!   factorized / diagonal),
//! * [`mixed`] — the Jain–Yao mixed packing–covering solver on the same
//!   session core: [`MixedSolver`] → [`MixedSession`] with certified
//!   feasibility answers and threshold bisection ([`solve_mixed`]),
//! * [`decision`] / [`approx`] — the classic one-shot entry points
//!   ([`decision_psdp`], [`solve_packing`], [`solve_covering`]), kept as
//!   thin convenience wrappers over the session API,
//! * [`psi`] — incremental maintenance of `Ψ = Σ xᵢAᵢ` with periodic
//!   drift-checked rebuilds,
//! * [`options`] — solver configuration (paper-strict vs practical
//!   constants, engines including auto-selection, update-rule variants),
//! * [`solution`] / [`stats`] — certified outcomes and telemetry,
//! * [`theory`] — the paper's constants `(K, α, R)` ([`paper_constants`])
//!   and the closed-form iteration bounds experiment E7 compares.
//!
//! Architecture and experiment index: see `DESIGN.md` at the repository
//! root (§8 covers the Solver/Session/Observer design); recorded
//! experiment outputs live in `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod approx;
pub mod bin_io;
pub mod decision;
pub mod error;
pub mod instance;
pub mod io;
pub mod mixed;
pub mod normalize;
pub mod options;
pub mod psi;
pub mod solution;
pub mod solver;
pub mod stats;
pub mod theory;
pub mod verify;

pub use approx::{solve_covering, solve_packing, ApproxOptions, CoveringReport, PackingReport};
pub use bin_io::{
    binary_family, fnv1a, fnv_wide, is_binary_instance, mixed_content_hash, mixed_structural_eq,
    packing_content_hash, packing_structural_eq, peek_content_hash, read_instance_bin,
    read_mixed_instance_bin, write_instance_bin, write_mixed_instance_bin, Fnv1a, FnvWide,
    BIN_FAMILY_MIXED, BIN_FAMILY_PACKING, BIN_MAGIC, BIN_VERSION,
};
pub use decision::{decision_psdp, DecisionResult};
pub use error::PsdpError;
pub use instance::{Constraint, MixedInstance, PackingInstance, PositiveSdp};
pub use io::{read_instance, read_mixed_instance, write_instance, write_mixed_instance};
pub use mixed::{
    coverage_target, solve_mixed, MixedApproxOptions, MixedDecision, MixedOptions, MixedReport,
    MixedSession, MixedSolver, MixedSolverBuilder,
};
pub use normalize::{normalize, trace_prune, Normalized};
pub use options::{ConstantsMode, DecisionOptions, EngineKind, UpdateRule};
pub use psi::PsiMaintainer;
pub use solution::{
    DualSolution, ExitReason, MixedCertificate, MixedFeasible, MixedOutcome, Outcome,
    PrimalSolution,
};
pub use solver::{
    IterationEvent, Observer, ObserverControl, PhaseEvent, Session, Solver, SolverBuilder,
};
pub use stats::{BracketStats, SolveStats};
pub use theory::{
    jain_yao_iterations, ours_decision_iterations, paper_constants, width_dependent_iterations,
    PaperConstants,
};
pub use verify::{
    certify_decision, certify_mixed, certify_packing, verify_dual, verify_mixed_feasible,
    verify_mixed_infeasible, verify_primal, DecisionCertificate, DualCertificate,
    MixedFeasibleCertificate, MixedInfeasibleCertificate, MixedReportCertificate,
    PackingReportCertificate, PrimalCertificate,
};
