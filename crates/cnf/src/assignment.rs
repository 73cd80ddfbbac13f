//! Truth assignments over a set of variables.

use std::fmt;

use crate::{Lit, Var};

/// A possibly partial truth assignment.
///
/// Each variable is `Some(true)`, `Some(false)` or unassigned (`None`).
/// SAT solvers in this workspace return total assignments (models) using this
/// type; the encoding decoder consumes them.
///
/// # Examples
///
/// ```
/// use satroute_cnf::{Assignment, Lit, Var};
///
/// let mut a = Assignment::new(2);
/// let v = Var::new(0);
/// a.assign(v, true);
/// assert_eq!(a.value(v), Some(true));
/// assert_eq!(a.lit_value(Lit::negative(v)), Some(false));
/// assert_eq!(a.value(Var::new(1)), None);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Assignment {
    /// 0 = unassigned, 1 = false, 2 = true.
    values: Vec<u8>,
}

impl Assignment {
    /// Creates an all-unassigned assignment over `num_vars` variables.
    pub fn new(num_vars: u32) -> Self {
        Assignment {
            values: vec![0; num_vars as usize],
        }
    }

    /// Creates a total assignment from a boolean slice (index = var index).
    pub fn from_bools(values: &[bool]) -> Self {
        Assignment {
            values: values.iter().map(|&b| if b { 2 } else { 1 }).collect(),
        }
    }

    /// Number of variables covered by this assignment.
    pub fn num_vars(&self) -> u32 {
        self.values.len() as u32
    }

    /// Returns the truth value of a variable, or `None` if unassigned or out
    /// of range.
    #[inline]
    pub fn value(&self, var: Var) -> Option<bool> {
        match self.values.get(usize::from(var)) {
            Some(1) => Some(false),
            Some(2) => Some(true),
            _ => None,
        }
    }

    /// Returns the truth value of a literal, or `None` if its variable is
    /// unassigned.
    #[inline]
    pub fn lit_value(&self, lit: Lit) -> Option<bool> {
        self.value(lit.var()).map(|v| lit.apply(v))
    }

    /// Returns `true` if the literal is satisfied under this assignment.
    #[inline]
    pub fn satisfies(&self, lit: Lit) -> bool {
        self.lit_value(lit) == Some(true)
    }

    /// Assigns a truth value to a variable, growing the assignment if needed.
    #[inline]
    pub fn assign(&mut self, var: Var, value: bool) {
        let idx = usize::from(var);
        if idx >= self.values.len() {
            self.values.resize(idx + 1, 0);
        }
        self.values[idx] = if value { 2 } else { 1 };
    }

    /// Assigns a literal to be true.
    #[inline]
    pub fn assign_lit(&mut self, lit: Lit) {
        self.assign(lit.var(), lit.is_positive());
    }

    /// Removes the assignment of a variable.
    #[inline]
    pub fn unassign(&mut self, var: Var) {
        if let Some(v) = self.values.get_mut(usize::from(var)) {
            *v = 0;
        }
    }

    /// Returns `true` if every variable is assigned.
    pub fn is_total(&self) -> bool {
        self.values.iter().all(|&v| v != 0)
    }

    /// Number of assigned variables.
    pub fn assigned_count(&self) -> usize {
        self.values.iter().filter(|&&v| v != 0).count()
    }

    /// Iterates over `(Var, bool)` pairs for all assigned variables.
    pub fn iter(&self) -> impl Iterator<Item = (Var, bool)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| match v {
                1 => Some((Var::new(i as u32), false)),
                2 => Some((Var::new(i as u32), true)),
                _ => None,
            })
    }
}

impl fmt::Debug for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Assignment{{")?;
        let mut first = true;
        for (var, val) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}={}", var, if val { 1 } else { 0 })?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_assignment_is_unassigned() {
        let a = Assignment::new(3);
        assert_eq!(a.num_vars(), 3);
        assert!(!a.is_total());
        assert_eq!(a.assigned_count(), 0);
        assert_eq!(a.value(Var::new(0)), None);
    }

    #[test]
    fn assign_and_unassign() {
        let mut a = Assignment::new(2);
        a.assign(Var::new(0), true);
        a.assign(Var::new(1), false);
        assert!(a.is_total());
        a.unassign(Var::new(0));
        assert_eq!(a.value(Var::new(0)), None);
        assert_eq!(a.value(Var::new(1)), Some(false));
    }

    #[test]
    fn assign_grows_out_of_range() {
        let mut a = Assignment::new(1);
        a.assign(Var::new(5), true);
        assert_eq!(a.num_vars(), 6);
        assert_eq!(a.value(Var::new(5)), Some(true));
    }

    #[test]
    fn lit_value_respects_polarity() {
        let mut a = Assignment::new(1);
        let v = Var::new(0);
        a.assign(v, true);
        assert_eq!(a.lit_value(Lit::positive(v)), Some(true));
        assert_eq!(a.lit_value(Lit::negative(v)), Some(false));
        assert!(a.satisfies(Lit::positive(v)));
        assert!(!a.satisfies(Lit::negative(v)));
    }

    #[test]
    fn from_bools_is_total() {
        let a = Assignment::from_bools(&[true, false, true]);
        assert!(a.is_total());
        let pairs: Vec<_> = a.iter().collect();
        assert_eq!(
            pairs,
            vec![
                (Var::new(0), true),
                (Var::new(1), false),
                (Var::new(2), true)
            ]
        );
    }
}
