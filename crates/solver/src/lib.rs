//! SAT solvers for the `satroute` workspace.
//!
//! The reproduced paper (Velev & Gao, DATE 2008) solved its CNF instances
//! with siege_v4 and MiniSat — both clause-learning CDCL solvers. Neither is
//! redistributable here, so this crate provides a from-scratch substitute of
//! the same algorithm class:
//!
//! * [`CdclSolver`] — conflict-driven clause learning with two-watched
//!   literals, first-UIP learning, recursive clause minimization, VSIDS-style
//!   activity decisions, phase saving, Luby restarts and activity-based
//!   learnt-clause database reduction. This is the solver used by the
//!   benchmark harness.
//! * [`DpllSolver`] — a deliberately simple chronological-backtracking DPLL
//!   solver used as a cross-checking oracle in tests and as a "pre-CDCL"
//!   baseline in ablations.
//!
//! Both solvers consume [`satroute_cnf::CnfFormula`] and report a
//! [`SolveOutcome`]. The CDCL solver additionally supports run control and
//! observability (see [`run`]): declarative [`RunBudget`]s (wall-clock
//! deadline, conflict cap), cooperative cancellation via
//! [`CancellationToken`], and one telemetry sink per solver (filled by
//! [`RunContext::solver`]) that writes the solve's counters, samples and
//! outcome onto its trace span and feeds a metrics registry. An early
//! stop is reported as [`SolveOutcome::Unknown`] carrying a typed
//! [`StopReason`], and a traced one keeps a
//! [`postmortem`](CdclSolver::postmortem).
//!
//! # Examples
//!
//! ```
//! use satroute_cnf::{CnfFormula, Lit};
//! use satroute_solver::{CdclSolver, SolveOutcome};
//!
//! let mut f = CnfFormula::new();
//! let a = f.new_var();
//! let b = f.new_var();
//! f.add_clause([Lit::positive(a), Lit::positive(b)]);
//! f.add_clause([Lit::negative(a)]);
//!
//! let mut solver = CdclSolver::new();
//! solver.add_formula(&f);
//! match solver.solve() {
//!     SolveOutcome::Sat(model) => assert!(f.is_satisfied_by(&model)),
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod cdcl;
mod dpll;
mod heap;
mod inprocess;
mod luby;
mod outcome;
mod proof;
mod watch;

pub mod run;

pub use arena::{ClauseArena, ClauseRef, Forwarding, Tier};
pub use cdcl::{CdclSolver, LoadPass, PhaseInit, RestartScheme, SolverConfig, SolverStats};
pub use dpll::DpllSolver;
pub use inprocess::InprocessConfig;
pub use luby::luby;
pub use outcome::SolveOutcome;
pub use proof::{rup_implied, CheckProofError, DratProof, ProofStep};
pub use run::{CancellationToken, ClauseExchange, RunBudget, RunContext, SolveVerdict, StopReason};
pub use satroute_obs::{Postmortem, SampleCause, TimelineSample};
pub use watch::ConflictBinaries;
