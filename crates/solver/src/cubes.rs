//! Lookahead cube splitting for cube-and-conquer.
//!
//! Cube-and-conquer partitions one SAT instance into `2^k` *subcubes* —
//! conjunctions of `k` literals over `k` chosen *split variables* — that
//! are then *conquered* independently by CDCL solvers racing in parallel
//! (see `satroute_core::conquer`). Because the cubes enumerate every sign
//! pattern over the split variables, they partition the assignment space:
//! the instance is SAT iff some cube is SAT, and UNSAT iff every cube is
//! UNSAT. Each cube is handed to a solver as an *assumption prefix*
//! ([`crate::CdclSolver::solve_with_assumptions`]), so no clause of the
//! instance is modified and learnt clauses remain consequences of the
//! formula alone — sound to share across cubes.
//!
//! [`split_cubes`] picks the split variables with a two-stage lookahead
//! heuristic:
//!
//! 1. **Occurrence prefilter.** Every unassigned variable gets a
//!    Jeroslow–Wang-style score (`Σ 2^-len` over the clauses containing
//!    either literal); the top [`CubeOptions::candidates`] variables go
//!    into the lookahead pool. This bounds the expensive stage.
//! 2. **Propagation lookahead.** For each candidate `v`, both literals
//!    are unit-propagated from the root; the candidate is ranked by the
//!    product `(implied(v)+1) * (implied(¬v)+1)`, which favours variables
//!    whose *both* branches constrain the instance (the classic
//!    march-style balance measure). A candidate with a failed literal
//!    (one branch conflicts) is not split on: the surviving literal is
//!    asserted at the root instead, strengthening every later lookahead —
//!    the asserted literal is implied by the formula, so this is sound.
//!
//! The top-`k` survivors become the split variables and the `2^k` sign
//! patterns are enumerated in binary order (bit `j` of the pattern index
//! flips variable `j`), propagating each prefix once more: cubes the
//! propagator already refutes are counted ([`CubePlan::refuted`]) rather
//! than emitted, so the conquer phase only pays for cubes that need real
//! search. The whole split is deterministic — scores break ties on
//! variable index — so cube counts and per-cube work are reproducible
//! bench columns.

use satroute_cnf::{CnfFormula, Lit, Var};

/// The most split variables [`split_cubes`] accepts; `2^16` cubes is
/// already far beyond any useful split of the instances this workspace
/// handles, and the cap keeps the enumeration loop trivially bounded.
pub const MAX_CUBE_VARS: u32 = 16;

/// Knobs of the cube splitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CubeOptions {
    /// Number of split variables `k`; the plan holds up to `2^k` cubes.
    /// Clamped to [`MAX_CUBE_VARS`]. `0` yields the single empty cube
    /// (conquer degenerates to one sequential solve).
    pub cube_vars: u32,
    /// Size of the lookahead pool: how many of the top occurrence-scored
    /// variables get the (more expensive) propagation lookahead.
    pub candidates: usize,
}

impl CubeOptions {
    /// Options splitting on `cube_vars` variables with the default
    /// 32-variable lookahead pool.
    pub fn new(cube_vars: u32) -> CubeOptions {
        CubeOptions {
            cube_vars,
            candidates: 32,
        }
    }

    /// Sets the lookahead pool size (clamped to at least `cube_vars`).
    pub fn with_candidates(mut self, candidates: usize) -> CubeOptions {
        self.candidates = candidates;
        self
    }
}

impl Default for CubeOptions {
    fn default() -> CubeOptions {
        CubeOptions::new(3)
    }
}

/// The splitter's output: the chosen variables and the surviving cubes.
///
/// Invariant: `cubes.len() as u64 + refuted == 1 << vars.len()` — every
/// sign pattern over the split variables is either emitted or was refuted
/// by unit propagation (a root-level conflict is reported as the single
/// empty cube being refuted, with no split variables).
#[derive(Clone, Debug)]
pub struct CubePlan {
    /// The split variables, in branch order (cube bit `j` flips `vars[j]`).
    pub vars: Vec<Var>,
    /// The emitted cubes: assumption prefixes of `vars.len()` literals
    /// each, in sign-pattern order.
    pub cubes: Vec<Vec<Lit>>,
    /// Sign patterns refuted by unit propagation at split time; these
    /// cubes need no conquering (the propagator's refutation is the
    /// UNSAT answer for them).
    pub refuted: u64,
    /// `true` when propagating the formula's own unit clauses (or a
    /// failed-literal assertion) conflicts: the formula is UNSAT outright
    /// and the plan carries no cubes.
    pub root_refuted: bool,
}

impl CubePlan {
    /// The number of sign patterns the plan accounts for: emitted cubes
    /// plus refuted ones, always `2^vars.len()`.
    pub fn cube_space(&self) -> u64 {
        1u64 << self.vars.len()
    }
}

/// Splits `formula` into up to `2^k` assumption-prefix cubes (see the
/// module docs for the heuristic).
///
/// # Examples
///
/// ```
/// use satroute_cnf::{CnfFormula, Lit};
/// use satroute_solver::cubes::{split_cubes, CubeOptions};
///
/// let mut f = CnfFormula::new();
/// let vars = f.new_vars(4);
/// for w in vars.windows(2) {
///     f.add_clause([Lit::positive(w[0]), Lit::positive(w[1])]);
///     f.add_clause([Lit::negative(w[0]), Lit::negative(w[1])]);
/// }
/// let plan = split_cubes(&f, &CubeOptions::new(2));
/// assert_eq!(plan.vars.len(), 2);
/// assert_eq!(plan.cubes.len() as u64 + plan.refuted, plan.cube_space());
/// ```
pub fn split_cubes(formula: &CnfFormula, opts: &CubeOptions) -> CubePlan {
    let k = opts.cube_vars.min(MAX_CUBE_VARS);
    let mut engine = Propagator::new(formula);

    // Assert the formula's own unit clauses first: lookaheads and cube
    // propagation both run on top of this root trail.
    if !engine.assert_units() {
        return CubePlan {
            vars: Vec::new(),
            cubes: Vec::new(),
            refuted: 1,
            root_refuted: true,
        };
    }
    if k == 0 {
        return CubePlan {
            vars: Vec::new(),
            cubes: vec![Vec::new()],
            refuted: 0,
            root_refuted: false,
        };
    }

    // Stage 1: Jeroslow–Wang occurrence prefilter.
    let pool = opts.candidates.max(k as usize);
    let candidates = engine.occurrence_ranking(pool);

    // Stage 2: propagation lookahead with failed-literal root
    // strengthening.
    let mut scored: Vec<(u64, Var)> = Vec::with_capacity(candidates.len());
    for var in candidates {
        if engine.value(var).is_some() {
            // A previous failed-literal assertion already decided it.
            continue;
        }
        let mark = engine.mark();
        let pos = engine.propagate(Lit::positive(var));
        engine.undo_to(mark);
        let neg = engine.propagate(Lit::negative(var));
        engine.undo_to(mark);
        match (pos, neg) {
            (Propagation::Conflict, Propagation::Conflict) => {
                return CubePlan {
                    vars: Vec::new(),
                    cubes: Vec::new(),
                    refuted: 1,
                    root_refuted: true,
                };
            }
            (Propagation::Conflict, Propagation::Implied(_)) => {
                // Failed literal: ¬var is implied by the formula; assert
                // it at the root (the re-propagation cannot conflict — it
                // just succeeded from the same state).
                let _ = engine.propagate(Lit::negative(var));
            }
            (Propagation::Implied(_), Propagation::Conflict) => {
                let _ = engine.propagate(Lit::positive(var));
            }
            (Propagation::Implied(p), Propagation::Implied(n)) => {
                scored.push(((p as u64 + 1) * (n as u64 + 1), var));
            }
        }
    }

    // Top-k by lookahead score; ties break on variable index so the split
    // is deterministic.
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.truncate(k as usize);
    // Root strengthening above may have assigned a scored variable after
    // it was scored; such a variable no longer branches.
    scored.retain(|&(_, v)| engine.value(v).is_none());
    let vars: Vec<Var> = scored.iter().map(|&(_, v)| v).collect();

    // Enumerate the sign patterns, dropping propagation-refuted cubes.
    let mut cubes = Vec::with_capacity(1 << vars.len());
    let mut refuted = 0u64;
    let root_mark = engine.mark();
    'patterns: for pattern in 0u64..(1u64 << vars.len()) {
        let cube: Vec<Lit> = vars
            .iter()
            .enumerate()
            .map(|(j, &v)| Lit::new(v, (pattern >> j) & 1 == 0))
            .collect();
        for &lit in &cube {
            if let Propagation::Conflict = engine.propagate(lit) {
                refuted += 1;
                engine.undo_to(root_mark);
                continue 'patterns;
            }
        }
        engine.undo_to(root_mark);
        cubes.push(cube);
    }

    CubePlan {
        vars,
        cubes,
        refuted,
        root_refuted: false,
    }
}

/// The result of propagating one literal (plus its consequences).
enum Propagation {
    /// No conflict; the number of variables newly assigned (including the
    /// propagated literal itself, 0 if it was already true).
    Implied(usize),
    /// Propagation derived a conflict; the caller must unwind with
    /// [`Propagator::undo_to`].
    Conflict,
}

/// A minimal occurrence-list unit propagator, independent of the CDCL
/// solver's watched-literal machinery: the splitter runs it a few dozen
/// times on the full formula, where simplicity beats amortized speed.
struct Propagator<'f> {
    formula: &'f CnfFormula,
    /// Literal code → indices of clauses containing that literal.
    occurs: Vec<Vec<u32>>,
    /// Variable index → assigned value (`None` = unassigned).
    values: Vec<Option<bool>>,
    /// Assigned variables in assignment order, for undo.
    trail: Vec<Var>,
}

impl<'f> Propagator<'f> {
    fn new(formula: &'f CnfFormula) -> Propagator<'f> {
        let num_vars = formula.num_vars() as usize;
        let mut occurs = vec![Vec::new(); num_vars * 2];
        for (idx, clause) in formula.clauses().enumerate() {
            for &lit in clause {
                occurs[lit.code() as usize].push(idx as u32);
            }
        }
        Propagator {
            formula,
            occurs,
            values: vec![None; num_vars],
            trail: Vec::new(),
        }
    }

    fn value(&self, var: Var) -> Option<bool> {
        self.values[var.index() as usize]
    }

    fn lit_true(&self, lit: Lit) -> Option<bool> {
        self.value(lit.var()).map(|v| lit.apply(v))
    }

    fn mark(&self) -> usize {
        self.trail.len()
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let var = self.trail.pop().expect("len checked");
            self.values[var.index() as usize] = None;
        }
    }

    /// Propagates the formula's unit clauses (the root trail). Returns
    /// `false` on a root conflict (including an empty clause).
    fn assert_units(&mut self) -> bool {
        for clause in self.formula.clauses() {
            match clause {
                [] => return false,
                [unit] => {
                    if let Propagation::Conflict = self.propagate(*unit) {
                        return false;
                    }
                }
                _ => {}
            }
        }
        true
    }

    /// Assigns `lit` and exhaustively unit-propagates its consequences on
    /// top of the current trail. On `Conflict` the trail holds partial
    /// consequences; the caller unwinds via [`Propagator::undo_to`].
    fn propagate(&mut self, lit: Lit) -> Propagation {
        match self.lit_true(lit) {
            Some(true) => return Propagation::Implied(0),
            Some(false) => return Propagation::Conflict,
            None => {}
        }
        let mark = self.trail.len();
        self.assign(lit);
        let mut head = mark;
        while head < self.trail.len() {
            let var = self.trail[head];
            head += 1;
            // The literal of `var` that just became false; only clauses
            // containing it can become unit or empty.
            let value = self.values[var.index() as usize].expect("on trail");
            let false_lit = Lit::new(var, !value);
            for i in 0..self.occurs[false_lit.code() as usize].len() {
                let clause_idx = self.occurs[false_lit.code() as usize][i] as usize;
                let clause = self.formula.clause(clause_idx);
                let mut unassigned: Option<Lit> = None;
                let mut open = 0usize;
                let mut satisfied = false;
                for &l in clause {
                    match self.lit_true(l) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => {}
                        None => {
                            open += 1;
                            unassigned = Some(l);
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match (open, unassigned) {
                    (0, _) => return Propagation::Conflict,
                    (1, Some(unit)) => self.assign(unit),
                    _ => {}
                }
            }
        }
        Propagation::Implied(self.trail.len() - mark)
    }

    fn assign(&mut self, lit: Lit) {
        self.values[lit.var().index() as usize] = Some(lit.is_positive());
        self.trail.push(lit.var());
    }

    /// The top `pool` unassigned variables by Jeroslow–Wang occurrence
    /// score (`Σ 2^-min(len,30)` over both literals' clauses), ties broken
    /// on variable index.
    fn occurrence_ranking(&self, pool: usize) -> Vec<Var> {
        let mut scores = vec![0.0f64; self.values.len()];
        for clause in self.formula.clauses() {
            let weight = 2.0f64.powi(-(clause.len().min(30) as i32));
            for &lit in clause {
                scores[lit.var().index() as usize] += weight;
            }
        }
        let mut ranked: Vec<Var> = (0..self.values.len() as u32)
            .map(Var::new)
            .filter(|&v| self.value(v).is_none())
            .collect();
        ranked.sort_by(|&a, &b| {
            scores[b.index() as usize]
                .total_cmp(&scores[a.index() as usize])
                .then(a.index().cmp(&b.index()))
        });
        ranked.truncate(pool);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_formula(n: u32) -> CnfFormula {
        // x_i != x_{i+1}: 2-colorable chain with plenty of propagation.
        let mut f = CnfFormula::new();
        let vars = f.new_vars(n);
        for w in vars.windows(2) {
            f.add_clause([Lit::positive(w[0]), Lit::positive(w[1])]);
            f.add_clause([Lit::negative(w[0]), Lit::negative(w[1])]);
        }
        f
    }

    #[test]
    fn plan_covers_the_cube_space() {
        let f = chain_formula(6);
        for k in 0..=3 {
            let plan = split_cubes(&f, &CubeOptions::new(k));
            assert!(!plan.root_refuted);
            assert_eq!(
                plan.cubes.len() as u64 + plan.refuted,
                plan.cube_space(),
                "k={k}"
            );
            assert!(plan.vars.len() <= k as usize);
            for cube in &plan.cubes {
                assert_eq!(cube.len(), plan.vars.len());
                for (j, lit) in cube.iter().enumerate() {
                    assert_eq!(lit.var(), plan.vars[j]);
                }
            }
        }
    }

    #[test]
    fn zero_split_vars_yields_the_empty_cube() {
        let plan = split_cubes(&chain_formula(4), &CubeOptions::new(0));
        assert_eq!(plan.cubes, vec![Vec::<Lit>::new()]);
        assert_eq!(plan.refuted, 0);
        assert_eq!(plan.cube_space(), 1);
    }

    #[test]
    fn propagation_refutes_contradictory_cubes() {
        // a ∨ b together with ¬a ∨ ¬b: the chain already forces the two
        // split variables to disagree, so half the sign patterns die at
        // split time.
        let f = chain_formula(2);
        let plan = split_cubes(&f, &CubeOptions::new(2));
        assert_eq!(plan.vars.len(), 2);
        assert_eq!(plan.cubes.len(), 2, "only the disagreeing patterns");
        assert_eq!(plan.refuted, 2);
    }

    #[test]
    fn root_conflict_is_reported_not_split() {
        let mut f = CnfFormula::new();
        let v = f.new_var();
        f.add_clause([Lit::positive(v)]);
        f.add_clause([Lit::negative(v)]);
        let plan = split_cubes(&f, &CubeOptions::new(3));
        assert!(plan.root_refuted);
        assert!(plan.cubes.is_empty());
        assert_eq!(plan.refuted, 1);
        assert_eq!(plan.cube_space(), 1);
    }

    #[test]
    fn unit_assigned_variables_are_never_split_on() {
        let mut f = chain_formula(6);
        let pinned = Var::new(0);
        f.add_clause([Lit::positive(pinned)]);
        let plan = split_cubes(&f, &CubeOptions::new(3));
        assert!(!plan.vars.contains(&pinned), "unit-assigned var chosen");
    }

    #[test]
    fn failed_literals_strengthen_instead_of_branching() {
        // v → a and v → ¬a make +v a failed literal; the splitter must
        // assert ¬v at the root and branch on other variables only.
        let mut f = chain_formula(4);
        let v = f.new_var();
        let a = f.new_var();
        f.add_clause([Lit::negative(v), Lit::positive(a)]);
        f.add_clause([Lit::negative(v), Lit::negative(a)]);
        let plan = split_cubes(&f, &CubeOptions::new(2).with_candidates(64));
        assert!(!plan.root_refuted);
        assert!(!plan.vars.contains(&v), "failed literal chosen as split");
        assert_eq!(plan.cubes.len() as u64 + plan.refuted, plan.cube_space());
    }

    #[test]
    fn splitting_is_deterministic() {
        let f = chain_formula(9);
        let opts = CubeOptions::new(3).with_candidates(8);
        let a = split_cubes(&f, &opts);
        let b = split_cubes(&f, &opts);
        assert_eq!(a.vars, b.vars);
        assert_eq!(a.cubes, b.cubes);
        assert_eq!(a.refuted, b.refuted);
    }

    #[test]
    fn empty_formula_splits_into_nothing_useful() {
        let f = CnfFormula::new();
        let plan = split_cubes(&f, &CubeOptions::new(3));
        assert!(!plan.root_refuted);
        assert!(plan.vars.is_empty());
        assert_eq!(plan.cubes, vec![Vec::<Lit>::new()]);
    }
}
