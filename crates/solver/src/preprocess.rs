//! Level-0 preprocessing: unit propagation, pure-literal elimination and
//! tautology/duplicate cleanup.
//!
//! Simplifies a formula before solving, preserving equisatisfiability over
//! the *same* variable space. Literals fixed by the preprocessor are
//! recorded so any model of the simplified formula can be extended back to
//! a model of the original with [`Simplification::restore_model`].
//!
//! This mirrors what siege/MiniSat-era solvers did up front; the size
//! ablation shows the encodings differ markedly in how much of the formula
//! preprocessing can already discharge (e.g. symmetry-breaking negations
//! turn many direct/muldirect clauses into units).

use satroute_cnf::{Assignment, CnfFormula, Lit, Var};
use satroute_obs::MetricsRegistry;

use crate::outcome::SolveOutcome;
use crate::CdclSolver;

/// The result of preprocessing a formula.
#[derive(Clone, Debug)]
pub struct Simplification {
    /// The simplified, equisatisfiable formula (same variable space).
    pub formula: CnfFormula,
    /// Literals fixed during preprocessing (units and pure literals).
    pub forced: Vec<Lit>,
    /// `true` if preprocessing already refuted the formula.
    pub unsat: bool,
}

impl Simplification {
    /// Extends a model of the simplified formula to a model of the
    /// original: applies the forced literals on top of `model` and gives
    /// untouched unassigned variables a default value.
    pub fn restore_model(&self, model: &Assignment, num_vars: u32) -> Assignment {
        let mut restored = model.clone();
        restored.grow(num_vars);
        for &lit in &self.forced {
            restored.assign_lit(lit);
        }
        for i in 0..num_vars {
            let v = Var::new(i);
            if restored.value(v).is_none() {
                restored.assign(v, false);
            }
        }
        restored
    }
}

/// Statistics of one preprocessing pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Unit literals propagated.
    pub units: usize,
    /// Pure literals eliminated.
    pub pure_literals: usize,
    /// Clauses removed (satisfied, tautological, or containing a pure
    /// literal).
    pub removed_clauses: usize,
    /// Literal occurrences removed from surviving clauses.
    pub removed_literals: usize,
}

/// The registry counters a preprocessing pass adds to, in the order of
/// [`PreprocessStats::record`]'s values.
pub(crate) const PREPROCESS_COUNTERS: [&str; 4] = [
    "preprocess.units",
    "preprocess.pure_literals",
    "preprocess.removed_clauses",
    "preprocess.removed_literals",
];

impl PreprocessStats {
    /// Adds this pass's totals to the registry's `preprocess.units`,
    /// `preprocess.pure_literals`, `preprocess.removed_clauses` and
    /// `preprocess.removed_literals` counters (nothing when disabled).
    pub fn record(&self, registry: &MetricsRegistry) {
        if !registry.is_enabled() {
            return;
        }
        let values = [
            self.units,
            self.pure_literals,
            self.removed_clauses,
            self.removed_literals,
        ];
        for (name, value) in PREPROCESS_COUNTERS.into_iter().zip(values) {
            registry.counter(name).add(value as u64);
        }
    }
}

/// Simplifies `formula` by repeated unit propagation and pure-literal
/// elimination until fixpoint.
///
/// # Examples
///
/// ```
/// use satroute_cnf::{CnfFormula, Lit, Var};
/// use satroute_solver::preprocess::preprocess;
///
/// let mut f = CnfFormula::new();
/// let a = f.new_var();
/// let b = f.new_var();
/// f.add_clause([Lit::positive(a)]);                      // unit: a
/// f.add_clause([Lit::negative(a), Lit::positive(b)]);    // a -> b
/// let (simplified, stats) = preprocess(&f);
/// assert!(!simplified.unsat);
/// assert_eq!(simplified.formula.num_clauses(), 0);       // fully discharged
/// assert_eq!(stats.units, 2);
/// ```
pub fn preprocess(formula: &CnfFormula) -> (Simplification, PreprocessStats) {
    let num_vars = formula.num_vars();
    let mut stats = PreprocessStats::default();
    let mut assignment = Assignment::new(num_vars);
    let mut forced: Vec<Lit> = Vec::new();

    // Working clause set, cleaned of tautologies and duplicate literals.
    let mut clauses: Vec<Vec<Lit>> = Vec::with_capacity(formula.num_clauses());
    for clause in formula {
        let mut c = clause.clone();
        c.dedup();
        if c.is_tautology() {
            stats.removed_clauses += 1;
            continue;
        }
        clauses.push(c.into_lits());
    }

    loop {
        let mut changed = false;

        // Unit propagation.
        loop {
            let mut unit: Option<Lit> = None;
            for c in &clauses {
                let mut unassigned = None;
                let mut count = 0;
                let mut satisfied = false;
                for &l in c {
                    match assignment.lit_value(l) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => {}
                        None => {
                            unassigned = Some(l);
                            count += 1;
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match count {
                    0 => {
                        return (
                            Simplification {
                                formula: CnfFormula::with_vars(num_vars),
                                forced,
                                unsat: true,
                            },
                            stats,
                        );
                    }
                    1 => {
                        unit = unassigned;
                        break;
                    }
                    _ => {}
                }
            }
            match unit {
                Some(l) => {
                    assignment.assign_lit(l);
                    forced.push(l);
                    stats.units += 1;
                    changed = true;
                }
                None => break,
            }
        }

        // Pure-literal elimination over the not-yet-satisfied clauses.
        let mut polarity = vec![(false, false); num_vars as usize]; // (pos, neg)
        for c in &clauses {
            if c.iter().any(|&l| assignment.lit_value(l) == Some(true)) {
                continue;
            }
            for &l in c {
                if assignment.lit_value(l).is_none() {
                    let entry = &mut polarity[l.var().index() as usize];
                    if l.is_positive() {
                        entry.0 = true;
                    } else {
                        entry.1 = true;
                    }
                }
            }
        }
        for (i, &(pos, neg)) in polarity.iter().enumerate() {
            if pos ^ neg {
                let lit = Lit::new(Var::new(i as u32), pos);
                assignment.assign_lit(lit);
                forced.push(lit);
                stats.pure_literals += 1;
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }

    // Emit the residual formula: drop satisfied clauses, strip falsified
    // literals.
    let mut result = CnfFormula::with_vars(num_vars);
    for c in &clauses {
        if c.iter().any(|&l| assignment.lit_value(l) == Some(true)) {
            stats.removed_clauses += 1;
            continue;
        }
        let kept: Vec<Lit> = c
            .iter()
            .copied()
            .filter(|&l| assignment.lit_value(l).is_none())
            .collect();
        stats.removed_literals += c.len() - kept.len();
        debug_assert!(kept.len() >= 2, "units were propagated to fixpoint");
        result.add_clause(kept);
    }

    (
        Simplification {
            formula: result,
            forced,
            unsat: false,
        },
        stats,
    )
}

/// Convenience: preprocess, solve the residual with a fresh
/// [`CdclSolver`], and restore a full model.
pub fn preprocess_and_solve(formula: &CnfFormula) -> SolveOutcome {
    let (simp, _) = preprocess(formula);
    if simp.unsat {
        return SolveOutcome::Unsat;
    }
    let mut solver = CdclSolver::new();
    solver.add_formula(&simp.formula);
    match solver.solve() {
        SolveOutcome::Sat(model) => {
            let restored = simp.restore_model(&model, formula.num_vars());
            debug_assert!(formula.is_satisfied_by(&restored));
            SolveOutcome::Sat(restored)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn units_cascade() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1)]);
        f.add_clause([lit(-1), lit(2)]);
        f.add_clause([lit(-2), lit(3)]);
        let (simp, stats) = preprocess(&f);
        assert!(!simp.unsat);
        assert_eq!(stats.units, 3);
        assert_eq!(simp.formula.num_clauses(), 0);
        let model = simp.restore_model(&Assignment::new(0), f.num_vars());
        assert!(f.is_satisfied_by(&model));
    }

    #[test]
    fn detects_top_level_conflicts() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1)]);
        f.add_clause([lit(-1)]);
        let (simp, _) = preprocess(&f);
        assert!(simp.unsat);
    }

    #[test]
    fn pure_literals_are_eliminated() {
        // x2 appears only positively.
        let mut f = CnfFormula::new();
        f.add_clause([lit(1), lit(2)]);
        f.add_clause([lit(-1), lit(2)]);
        let (simp, stats) = preprocess(&f);
        assert!(!simp.unsat);
        assert_eq!(stats.pure_literals, 1);
        assert_eq!(simp.formula.num_clauses(), 0);
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1), lit(-1)]);
        f.add_clause([lit(2), lit(3)]);
        let (simp, stats) = preprocess(&f);
        assert!(stats.removed_clauses >= 1);
        // The binary clause gets discharged by pure literals (2 and 3 are
        // both pure), so nothing remains.
        assert_eq!(simp.formula.num_clauses(), 0);
    }

    #[test]
    fn residual_formula_keeps_hard_core() {
        // An unsatisfiable core that neither UP nor purity can touch:
        // XOR-style constraints where every variable appears both ways.
        let mut f = CnfFormula::new();
        f.add_clause([lit(1), lit(2)]);
        f.add_clause([lit(1), lit(-2)]);
        f.add_clause([lit(-1), lit(2)]);
        f.add_clause([lit(-1), lit(-2)]);
        let (simp, _) = preprocess(&f);
        assert!(!simp.unsat, "preprocessing alone cannot refute this");
        assert_eq!(simp.formula.num_clauses(), 4);
        assert_eq!(preprocess_and_solve(&f), SolveOutcome::Unsat);
    }

    #[test]
    #[cfg_attr(miri, ignore = "minutes under the interpreter")]
    fn preprocess_and_solve_agrees_with_plain_solving() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..40 {
            let num_vars = rng.gen_range(3..8u32);
            let mut f = CnfFormula::with_vars(num_vars);
            for _ in 0..rng.gen_range(1..18) {
                let len = rng.gen_range(1..4);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars)), rng.gen_bool(0.5)))
                    .collect();
                f.add_clause(lits);
            }
            let mut plain = CdclSolver::new();
            plain.add_formula(&f);
            let expected = plain.solve().is_sat();
            match preprocess_and_solve(&f) {
                SolveOutcome::Sat(m) => {
                    assert!(expected);
                    assert!(f.is_satisfied_by(&m));
                    assert!(m.is_total() || f.num_vars() == 0);
                }
                SolveOutcome::Unsat => assert!(!expected),
                SolveOutcome::Unknown(reason) => panic!("no budget configured, got {reason:?}"),
            }
        }
    }
}
