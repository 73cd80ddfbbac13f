//! CNF formulas with a built-in variable allocator.

use std::fmt;

use crate::{clause, Assignment, Lit, Var};

/// A formula in conjunctive normal form.
///
/// The formula owns its clauses and tracks how many variables have been
/// allocated. Fresh variables are handed out by [`CnfFormula::new_var`],
/// which is how the encoding framework allocates the indexing Boolean
/// variables of each CSP variable.
///
/// Clauses are stored flat — every clause's literals back to back in one
/// buffer, plus one `u32` end offset per clause — so adding a clause
/// allocates nothing of its own. They are read back as literal slices.
///
/// # Examples
///
/// ```
/// use satroute_cnf::{CnfFormula, Lit};
///
/// let mut f = CnfFormula::new();
/// let a = f.new_var();
/// let b = f.new_var();
/// f.add_clause([Lit::positive(a), Lit::positive(b)]);
/// assert_eq!(f.num_vars(), 2);
/// assert_eq!(f.num_clauses(), 1);
/// assert_eq!(f.clauses().next(), Some(&[Lit::positive(a), Lit::positive(b)][..]));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct CnfFormula {
    num_vars: u32,
    /// The literals of every clause, back to back in clause order.
    lits: Vec<Lit>,
    /// `ends[i]` is the offset in `lits` just past clause `i`.
    ends: Vec<u32>,
}

/// Where clauses go as they are produced: a [`CnfFormula`] that keeps
/// them, a [`FormulaStats`] that counts them, or a solver that loads
/// them, so an encoder writes each clause once, into whichever consumer
/// it is handed.
pub trait ClauseSink {
    /// Takes one clause. The slice is only borrowed; a sink that keeps the
    /// clause copies it.
    fn add_clause(&mut self, lits: &[Lit]);
}

impl ClauseSink for CnfFormula {
    fn add_clause(&mut self, lits: &[Lit]) {
        CnfFormula::add_clause(self, lits.iter().copied());
    }
}

/// Summary statistics for a [`CnfFormula`], used by the formula-size
/// ablation (experiment A1 in `DESIGN.md`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FormulaStats {
    /// Number of allocated variables.
    pub num_vars: u32,
    /// Number of clauses.
    pub num_clauses: usize,
    /// Total number of literal occurrences.
    pub num_literals: usize,
    /// Number of unit (single-literal) clauses.
    pub num_unit: usize,
    /// Number of binary (two-literal) clauses.
    pub num_binary: usize,
    /// Length of the longest clause.
    pub max_clause_len: usize,
}

/// Counting is a sink too: each clause added updates the clause, literal,
/// unit, binary and longest-clause counts (`num_vars` is left to the
/// caller).
impl ClauseSink for FormulaStats {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.num_clauses += 1;
        self.num_literals += lits.len();
        match lits.len() {
            1 => self.num_unit += 1,
            2 => self.num_binary += 1,
            _ => {}
        }
        self.max_clause_len = self.max_clause_len.max(lits.len());
    }
}

impl FormulaStats {
    /// Counts `count` binary clauses as [`ClauseSink::add_clause`] would,
    /// without their literals: for a consumer that takes some binaries in
    /// another form, such as a solver holding them as a conflict graph.
    pub fn add_binaries(&mut self, count: usize) {
        if count > 0 {
            self.num_clauses += count;
            self.num_literals += 2 * count;
            self.num_binary += count;
            self.max_clause_len = self.max_clause_len.max(2);
        }
    }
}

impl CnfFormula {
    /// Creates an empty formula with no variables.
    pub fn new() -> Self {
        CnfFormula::default()
    }

    /// Creates an empty formula with `num_vars` pre-allocated variables.
    pub fn with_vars(num_vars: u32) -> Self {
        CnfFormula {
            num_vars,
            ..CnfFormula::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Allocates `n` fresh variables, returning them in order.
    pub fn new_vars(&mut self, n: u32) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Ensures the variable count is at least `num_vars`.
    pub fn ensure_vars(&mut self, num_vars: u32) {
        self.num_vars = self.num_vars.max(num_vars);
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// The clauses of the formula, in insertion order.
    pub fn clauses(&self) -> Clauses<'_> {
        Clauses {
            lits: &self.lits,
            ends: self.ends.iter(),
            start: 0,
        }
    }

    /// Adds a clause built from the given literals.
    ///
    /// Variables referenced by the clause are registered automatically, so a
    /// formula parsed from literals never under-reports `num_vars`.
    ///
    /// # Panics
    ///
    /// Panics if the formula would hold more than `u32::MAX` literals.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let start = self.lits.len();
        self.lits.extend(lits);
        for lit in &self.lits[start..] {
            self.num_vars = self.num_vars.max(lit.var().index() + 1);
        }
        let end =
            u32::try_from(self.lits.len()).expect("a CnfFormula holds at most u32::MAX literals");
        self.ends.push(end);
    }

    /// Evaluates the formula under an assignment.
    ///
    /// Returns `Some(true)` if every clause is satisfied, `Some(false)` if
    /// some clause is falsified, `None` if undetermined.
    pub fn evaluate(&self, assignment: &Assignment) -> Option<bool> {
        let mut undetermined = false;
        for lits in self {
            match clause::evaluate(lits, assignment) {
                Some(true) => {}
                Some(false) => return Some(false),
                None => undetermined = true,
            }
        }
        if undetermined {
            None
        } else {
            Some(true)
        }
    }

    /// Returns `true` if `assignment` is a model of this formula (all clauses
    /// satisfied; unassigned variables are allowed as long as every clause
    /// already has a satisfied literal).
    pub fn is_satisfied_by(&self, assignment: &Assignment) -> bool {
        self.clauses()
            .all(|lits| clause::evaluate(lits, assignment) == Some(true))
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> FormulaStats {
        let mut s = FormulaStats {
            num_vars: self.num_vars,
            ..FormulaStats::default()
        };
        for lits in self {
            s.add_clause(lits);
        }
        s
    }
}

/// Iterator over the clauses of a [`CnfFormula`] as literal slices, in
/// insertion order. Created by [`CnfFormula::clauses`].
#[derive(Clone, Debug)]
pub struct Clauses<'a> {
    lits: &'a [Lit],
    ends: std::slice::Iter<'a, u32>,
    start: usize,
}

impl<'a> Iterator for Clauses<'a> {
    type Item = &'a [Lit];

    #[inline]
    fn next(&mut self) -> Option<&'a [Lit]> {
        let end = *self.ends.next()? as usize;
        let lits = &self.lits[self.start..end];
        self.start = end;
        Some(lits)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for Clauses<'_> {}

impl<'a> IntoIterator for &'a CnfFormula {
    type Item = &'a [Lit];
    type IntoIter = Clauses<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.clauses()
    }
}

impl fmt::Debug for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CnfFormula({} vars, {} clauses)",
            self.num_vars,
            self.num_clauses()
        )
    }
}

impl fmt::Display for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, lits) in self.clauses().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "({})", clause::display(lits))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn var_allocation_is_sequential() {
        let mut f = CnfFormula::new();
        assert_eq!(f.new_var().index(), 0);
        assert_eq!(f.new_var().index(), 1);
        let vs = f.new_vars(3);
        assert_eq!(vs.iter().map(|v| v.index()).collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(f.num_vars(), 5);
    }

    #[test]
    fn add_clause_registers_variables() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(5), lit(-2)]);
        assert_eq!(f.num_vars(), 5);
    }

    #[test]
    fn evaluate_total_and_partial() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1), lit(2)]);
        f.add_clause([lit(-1)]);
        let mut a = Assignment::new(2);
        assert_eq!(f.evaluate(&a), None);
        a.assign(Var::new(0), false);
        a.assign(Var::new(1), true);
        assert_eq!(f.evaluate(&a), Some(true));
        assert!(f.is_satisfied_by(&a));
        a.assign(Var::new(0), true);
        assert_eq!(f.evaluate(&a), Some(false));
    }

    #[test]
    fn stats_counts_shapes() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1)]);
        f.add_clause([lit(1), lit(2)]);
        f.add_clause([lit(1), lit(2), lit(3)]);
        let s = f.stats();
        assert_eq!(s.num_vars, 3);
        assert_eq!(s.num_clauses, 3);
        assert_eq!(s.num_literals, 6);
        assert_eq!(s.num_unit, 1);
        assert_eq!(s.num_binary, 1);
        assert_eq!(s.max_clause_len, 3);
    }

    #[test]
    fn counted_binaries_shape_like_added_ones() {
        let mut added = FormulaStats::default();
        let mut counted = FormulaStats::default();
        for stats in [&mut added, &mut counted] {
            stats.add_clause(&[lit(1)]);
        }
        for _ in 0..3 {
            added.add_clause(&[lit(-1), lit(2)]);
        }
        counted.add_binaries(3);
        counted.add_binaries(0);
        assert_eq!(added, counted);
        assert_eq!((counted.num_binary, counted.max_clause_len), (3, 2));
    }

    #[test]
    fn empty_formula_is_trivially_true() {
        let f = CnfFormula::new();
        assert_eq!(f.evaluate(&Assignment::new(0)), Some(true));
    }

    #[test]
    fn flat_storage_keeps_clause_boundaries() {
        let long: Vec<Lit> = (1..=40)
            .map(|d| lit(if d % 2 == 0 { d } else { -d }))
            .collect();
        let mut f = CnfFormula::new();
        f.add_clause(std::iter::empty());
        f.add_clause([lit(3)]);
        f.add_clause(long.iter().copied());
        f.add_clause(std::iter::empty());
        f.add_clause([lit(-1), lit(2)]);

        assert_eq!(f.num_clauses(), 5);
        assert_eq!(f.clauses().len(), 5);
        let listed: Vec<&[Lit]> = f.clauses().collect();
        let expected: [&[Lit]; 5] = [&[], &[lit(3)], &long, &[], &[lit(-1), lit(2)]];
        assert_eq!(listed, expected);

        let s = f.stats();
        assert_eq!((s.num_vars, s.num_clauses, s.num_literals), (40, 5, 43));
        assert_eq!((s.num_unit, s.num_binary, s.max_clause_len), (1, 1, 40));
        assert_eq!(f.evaluate(&Assignment::new(40)), Some(false));

        let text = crate::dimacs::to_cnf_string(&f);
        assert_eq!(crate::dimacs::parse_cnf_str(&text).unwrap(), f);
    }
}
