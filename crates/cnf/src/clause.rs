//! Operations on one clause — a disjunction of literals — given as a
//! literal slice, the form [`CnfFormula::clauses`](crate::CnfFormula::clauses)
//! yields.
//!
//! # Examples
//!
//! ```
//! use satroute_cnf::{clause, Assignment, Lit, Var};
//!
//! let a = Var::new(0);
//! let lits = [Lit::positive(a), Lit::negative(a)];
//! assert_eq!(clause::evaluate(&lits, &Assignment::new(1)), None);
//! assert_eq!(clause::display(&lits).to_string(), "x0 ∨ ¬x0");
//! ```

use std::fmt;

use crate::{Assignment, Lit};

/// Evaluates the clause under a (possibly partial) assignment.
///
/// Returns `Some(true)` if some literal is satisfied, `Some(false)` if all
/// literals are falsified (the empty clause included), and `None` if the
/// clause is undetermined.
pub fn evaluate(lits: &[Lit], assignment: &Assignment) -> Option<bool> {
    let mut undetermined = false;
    for &lit in lits {
        match assignment.lit_value(lit) {
            Some(true) => return Some(true),
            Some(false) => {}
            None => undetermined = true,
        }
    }
    if undetermined {
        None
    } else {
        Some(false)
    }
}

/// Formats the clause as `x0 ∨ ¬x1`, and the empty clause as `⊥`.
pub fn display(lits: &[Lit]) -> impl fmt::Display + '_ {
    Disjunction(lits)
}

struct Disjunction<'a>(&'a [Lit]);

impl fmt::Display for Disjunction<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "⊥");
        }
        for (i, lit) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "{lit}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn evaluate_partial_assignments() {
        let c = [lit(1), lit(2)];
        let mut a = Assignment::new(2);
        assert_eq!(evaluate(&c, &a), None);
        a.assign(Var::new(0), false);
        assert_eq!(evaluate(&c, &a), None);
        a.assign(Var::new(1), true);
        assert_eq!(evaluate(&c, &a), Some(true));
        a.assign(Var::new(1), false);
        assert_eq!(evaluate(&c, &a), Some(false));
    }

    #[test]
    fn empty_clause_is_false() {
        let a = Assignment::new(0);
        assert_eq!(evaluate(&[], &a), Some(false));
    }

    #[test]
    fn display_uses_disjunction() {
        assert_eq!(display(&[lit(1), lit(-2)]).to_string(), "x0 ∨ ¬x1");
        assert_eq!(display(&[]).to_string(), "⊥");
    }
}
