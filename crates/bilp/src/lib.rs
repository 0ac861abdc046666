//! # bilp — a 0-1 integer linear programming solver
//!
//! The DAC 2018 CGRA-mapping paper solves its ILP formulation with Gurobi.
//! This crate is the repository's self-contained substitute: an exact
//! solver for integer linear programs whose variables are all binary —
//! which is precisely the class the paper's formulation lives in (the
//! placement variables `F`, routing variables `R` and sink-specific
//! routing variables are all 0/1, with unit-coefficient constraints).
//!
//! Internally the solver is a conflict-driven clause-learning (CDCL)
//! search with:
//!
//! * two-watched-literal clause propagation,
//! * a counting propagator for pseudo-Boolean *at-most* constraints
//!   (cardinality and weighted), with clausal conflict explanations,
//! * 1UIP conflict learning, VSIDS + phase saving, Luby restarts and
//!   learnt-database reduction,
//! * branch-and-bound minimisation by repeatedly strengthening an
//!   objective-bound constraint until unsatisfiability proves optimality.
//!
//! Feasibility verdicts and optimal objective values are exact; only the
//! runtime differs from a commercial solver.
//!
//! # Examples
//!
//! ```
//! use bilp::{LinExpr, Model, Outcome, Solver};
//! // Choose at least 2 of 4 items, minimizing the number chosen.
//! let mut m = Model::new();
//! let items = m.new_vars(4);
//! m.add_ge(LinExpr::sum(items.clone()), 2);
//! m.minimize(LinExpr::sum(items));
//! match Solver::new().solve(&m) {
//!     Outcome::Optimal { objective, .. } => assert_eq!(objective, 2),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod brute;
pub mod checker;
mod engine;
mod model;
mod normalize;
pub mod portfolio;
pub mod presolve;
mod proof;
mod solve;

pub use checker::CheckOutcome;
pub use engine::{Budget, Engine, EngineFeatures, EngineStats, SatResult};
pub use model::{to_lp_format, Cmp, Constraint, LinExpr, Lit, Model, Var};
pub use normalize::{normalize, NormConstraint};
pub use portfolio::ClauseExchange;
pub use presolve::{presolve, LitDisposition, PresolveStats, Presolved, Reconstruction};
pub use proof::{Certificate, ProofLog, ProofOrigin, ProofStep, StepKind};
pub use solve::{
    certify_infeasibility, Assignment, HeuristicProbe, IncrementalSolver, IncumbentSource, Outcome,
    SolveStats, Solver, SolverConfig,
};
