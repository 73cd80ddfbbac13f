//! CNF substrate for the `satroute` workspace.
//!
//! This crate provides the propositional-logic plumbing shared by the SAT
//! solver ([`satroute-solver`]), the encoding framework ([`satroute-core`])
//! and the benchmark harness:
//!
//! * [`Var`] / [`Lit`] — compact variable and literal handles,
//! * [`CnfFormula`] — a formula in conjunctive normal form with its own
//!   variable allocator, storing its clauses flat and yielding each as a
//!   literal slice,
//! * [`ClauseSink`] — anything that takes clauses one literal slice at a
//!   time: a [`CnfFormula`] keeps them, [`FormulaStats`] counts them, and
//!   a solver loads them directly,
//! * [`clause`] — operations on one clause given as a literal slice,
//! * [`Assignment`] — a (possibly partial) truth assignment,
//! * [`dimacs`] — reading and writing the DIMACS CNF interchange format used
//!   by the tool flow described in the reproduced paper (Velev & Gao,
//!   DATE 2008).
//!
//! # Examples
//!
//! Build the formula `(a ∨ b) ∧ (¬a ∨ b)` and evaluate it:
//!
//! ```
//! use satroute_cnf::{CnfFormula, Lit};
//!
//! let mut f = CnfFormula::new();
//! let a = f.new_var();
//! let b = f.new_var();
//! f.add_clause([Lit::positive(a), Lit::positive(b)]);
//! f.add_clause([Lit::negative(a), Lit::positive(b)]);
//!
//! let mut model = satroute_cnf::Assignment::new(f.num_vars());
//! model.assign(a, false);
//! model.assign(b, true);
//! assert!(f.evaluate(&model).unwrap());
//! ```
//!
//! [`satroute-solver`]: https://example.com/satroute
//! [`satroute-core`]: https://example.com/satroute

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod formula;
mod lit;

pub mod clause;
pub mod dimacs;

pub use assignment::Assignment;
pub use formula::{ClauseSink, Clauses, CnfFormula, FormulaStats};
pub use lit::{Lit, Var};
