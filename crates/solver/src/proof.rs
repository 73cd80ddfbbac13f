//! DRAT unsatisfiability proofs and a RUP checker.
//!
//! The headline capability of SAT-based FPGA detailed routing is *proving*
//! unroutability. To make that proof tangible, [`crate::CdclSolver`] can
//! log every learnt clause (and deletion) as a [`DratProof`] — the standard
//! DRAT format used by SAT competitions — and this module provides an
//! independent forward checker based on *reverse unit propagation* (RUP):
//! a clause `C` is RUP-derivable from a database when asserting `¬C` and
//! unit-propagating yields a conflict. A DRAT proof is valid for a formula
//! when every addition is RUP over the original clauses plus the earlier
//! (undeleted) additions, and some addition is the empty clause.
//!
//! The checker is deliberately simple (no watched literals, no RAT checks —
//! CDCL learnt clauses are always RUP), quadratic-ish, and meant for tests
//! and moderate instances, not competition-scale proofs.

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use satroute_cnf::{CnfFormula, Lit};

/// One step of a DRAT proof.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProofStep {
    /// Addition of a (learnt) clause; the empty clause ends an UNSAT proof.
    Add(Vec<Lit>),
    /// Deletion of a previously present clause.
    Delete(Vec<Lit>),
}

/// A DRAT proof: the sequence of clause additions and deletions a solver
/// performed while refuting a formula.
///
/// # Examples
///
/// ```
/// use satroute_cnf::{CnfFormula, Lit};
/// use satroute_solver::{CdclSolver, SolveOutcome};
///
/// let mut f = CnfFormula::new();
/// let a = f.new_var();
/// let b = f.new_var();
/// f.add_clause([Lit::positive(a), Lit::positive(b)]);
/// f.add_clause([Lit::positive(a), Lit::negative(b)]);
/// f.add_clause([Lit::negative(a), Lit::positive(b)]);
/// f.add_clause([Lit::negative(a), Lit::negative(b)]);
///
/// let mut solver = CdclSolver::new();
/// solver.enable_proof_logging();
/// solver.add_formula(&f);
/// assert_eq!(solver.solve(), SolveOutcome::Unsat);
/// let proof = solver.take_proof().expect("logging was enabled");
/// proof.check(&f).expect("the proof must verify");
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DratProof {
    steps: Vec<ProofStep>,
}

/// Why a proof failed to verify.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckProofError {
    /// An added clause is not RUP over the current database.
    NotRup {
        /// Index of the offending step.
        step: usize,
    },
    /// The proof never derives the empty clause.
    NoEmptyClause,
}

impl fmt::Display for CheckProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckProofError::NotRup { step } => {
                write!(f, "proof step {step} is not RUP-derivable")
            }
            CheckProofError::NoEmptyClause => {
                write!(f, "proof does not derive the empty clause")
            }
        }
    }
}

impl Error for CheckProofError {}

impl DratProof {
    /// Creates an empty proof.
    pub fn new() -> Self {
        DratProof::default()
    }

    /// The steps of the proof.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` for a proof without steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Appends an addition step.
    pub fn push_add(&mut self, lits: Vec<Lit>) {
        self.steps.push(ProofStep::Add(lits));
    }

    /// Appends an addition step from any literal source (e.g. straight
    /// from a clause-arena iterator, without an intermediate `Vec`).
    pub fn push_add_from(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.steps.push(ProofStep::Add(lits.into_iter().collect()));
    }

    /// Appends a deletion step.
    pub fn push_delete(&mut self, lits: Vec<Lit>) {
        self.steps.push(ProofStep::Delete(lits));
    }

    /// Appends a deletion step from any literal source.
    pub fn push_delete_from(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.steps
            .push(ProofStep::Delete(lits.into_iter().collect()));
    }

    /// Verifies this proof refutes `formula`.
    ///
    /// Every `Add` step must be RUP over the original clauses plus the
    /// not-yet-deleted earlier additions, and some `Add` must be the empty
    /// clause.
    ///
    /// # Errors
    ///
    /// [`CheckProofError::NotRup`] at the first non-derivable step, or
    /// [`CheckProofError::NoEmptyClause`] if the refutation never
    /// completes.
    pub fn check(&self, formula: &CnfFormula) -> Result<(), CheckProofError> {
        let mut db: Vec<Vec<Lit>> = formula.clauses().map(<[Lit]>::to_vec).collect();
        let mut num_vars = formula.num_vars();
        for step in &self.steps {
            if let ProofStep::Add(lits) = step {
                for l in lits {
                    num_vars = num_vars.max(l.var().index() + 1);
                }
            }
        }

        let mut refuted = false;
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                ProofStep::Add(lits) => {
                    if !is_rup(&db, num_vars, lits) {
                        return Err(CheckProofError::NotRup { step: i });
                    }
                    if lits.is_empty() {
                        refuted = true;
                        break;
                    }
                    db.push(lits.clone());
                }
                ProofStep::Delete(lits) => {
                    // Remove one matching clause (multiset semantics).
                    if let Some(pos) = db.iter().position(|c| clause_eq(c, lits)) {
                        db.swap_remove(pos);
                    }
                    // A deletion of an absent clause is harmless; ignore.
                }
            }
        }
        if refuted {
            Ok(())
        } else {
            Err(CheckProofError::NoEmptyClause)
        }
    }

    /// Writes the proof in the textual DRAT format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_drat<W: Write>(&self, mut writer: W) -> io::Result<()> {
        for step in &self.steps {
            match step {
                ProofStep::Add(lits) => {
                    for l in lits {
                        write!(writer, "{} ", l.to_dimacs())?;
                    }
                    writeln!(writer, "0")?;
                }
                ProofStep::Delete(lits) => {
                    write!(writer, "d ")?;
                    for l in lits {
                        write!(writer, "{} ", l.to_dimacs())?;
                    }
                    writeln!(writer, "0")?;
                }
            }
        }
        Ok(())
    }

    /// Renders the proof as a DRAT string.
    pub fn to_drat_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_drat(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("DRAT output is ASCII")
    }

    /// Parses a textual DRAT proof.
    ///
    /// # Errors
    ///
    /// Returns an error string describing the first malformed line.
    pub fn parse_drat<R: Read>(reader: R) -> Result<Self, String> {
        let reader = BufReader::new(reader);
        let mut steps = Vec::new();
        for (idx, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| format!("i/o error at line {}: {e}", idx + 1))?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('c') {
                continue;
            }
            let (is_delete, rest) = match trimmed.strip_prefix("d ") {
                Some(rest) => (true, rest),
                None if trimmed == "d" => (true, ""),
                None => (false, trimmed),
            };
            let mut lits = Vec::new();
            let mut terminated = false;
            for tok in rest.split_whitespace() {
                let v: i64 = tok
                    .parse()
                    .map_err(|_| format!("bad literal `{tok}` at line {}", idx + 1))?;
                if v == 0 {
                    terminated = true;
                    break;
                }
                lits.push(Lit::from_dimacs(v));
            }
            if !terminated {
                return Err(format!("missing 0 terminator at line {}", idx + 1));
            }
            steps.push(if is_delete {
                ProofStep::Delete(lits)
            } else {
                ProofStep::Add(lits)
            });
        }
        Ok(DratProof { steps })
    }
}

/// RUP entailment check against a formula: does asserting the negation of
/// `clause` and unit-propagating over `formula`'s clauses yield a
/// conflict?
///
/// RUP is *sufficient* for entailment but not complete — a clause can be a
/// logical consequence without being unit-propagation-derivable — so a
/// `false` result means "not confirmed by UP", not "not entailed". The
/// sharing tests use this as a cheap first check on imported clauses and
/// fall back to a full refutation of `formula ∧ ¬clause` when it is
/// inconclusive.
pub fn rup_implied(formula: &CnfFormula, clause: &[Lit]) -> bool {
    let db: Vec<Vec<Lit>> = formula.clauses().map(<[Lit]>::to_vec).collect();
    let num_vars = clause
        .iter()
        .map(|l| l.var().index() + 1)
        .fold(formula.num_vars(), u32::max);
    is_rup(&db, num_vars, clause)
}

fn clause_eq(a: &[Lit], b: &[Lit]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut a2: Vec<Lit> = a.to_vec();
    let mut b2: Vec<Lit> = b.to_vec();
    a2.sort_unstable();
    b2.sort_unstable();
    a2 == b2
}

/// RUP check: does asserting the negation of `clause` and unit-propagating
/// over `db` yield a conflict?
fn is_rup(db: &[Vec<Lit>], num_vars: u32, clause: &[Lit]) -> bool {
    // 0 = unassigned, 1 = false, 2 = true.
    let mut assignment = vec![0u8; num_vars as usize];
    let value = |assignment: &[u8], lit: Lit| -> u8 {
        let v = assignment[lit.var().index() as usize];
        if v == 0 {
            0
        } else if (v == 2) == lit.is_positive() {
            2
        } else {
            1
        }
    };
    let mut queue: Vec<Lit> = Vec::new();
    for &l in clause {
        match value(&assignment, l) {
            2 => return true, // ¬C is contradictory on its own
            1 => {}
            _ => {
                assignment[l.var().index() as usize] = if l.is_positive() { 1 } else { 2 };
                queue.push(!l);
            }
        }
    }

    // Naive unit propagation to fixpoint.
    loop {
        let mut changed = false;
        for c in db {
            let mut unassigned: Option<Lit> = None;
            let mut count = 0;
            let mut satisfied = false;
            for &l in c {
                match value(&assignment, l) {
                    2 => {
                        satisfied = true;
                        break;
                    }
                    1 => {}
                    // A repeated literal counts once, so `x ∨ x` propagates
                    // `x` as the solver's unit does. `count` is exact up to
                    // one distinct literal and at least 2 beyond.
                    _ if unassigned == Some(l) => {}
                    _ => {
                        unassigned = Some(l);
                        count += 1;
                    }
                }
            }
            if satisfied {
                continue;
            }
            match count {
                0 => return true, // conflict found: clause is RUP
                1 => {
                    let l = unassigned.expect("one unassigned literal");
                    assignment[l.var().index() as usize] = if l.is_positive() { 2 } else { 1 };
                    queue.push(l);
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    fn xor_unsat_formula() -> CnfFormula {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1), lit(2)]);
        f.add_clause([lit(1), lit(-2)]);
        f.add_clause([lit(-1), lit(2)]);
        f.add_clause([lit(-1), lit(-2)]);
        f
    }

    #[test]
    fn hand_written_proof_checks() {
        let f = xor_unsat_formula();
        let mut proof = DratProof::new();
        proof.push_add(vec![lit(1)]); // RUP: assume ¬1, clauses force conflict
        proof.push_add(vec![]); // with unit 1, UP on (¬1∨2), (¬1∨¬2) conflicts
        proof.check(&f).unwrap();
    }

    #[test]
    fn a_repeated_literal_propagates_as_a_unit() {
        // (x ∨ x) ∧ (¬x ∨ y) ∧ (¬x ∨ ¬y): the first clause is the unit x.
        let mut f = CnfFormula::new();
        f.add_clause([lit(1), lit(1)]);
        f.add_clause([lit(-1), lit(2)]);
        f.add_clause([lit(-1), lit(-2)]);
        let mut proof = DratProof::new();
        proof.push_add(vec![]);
        proof.check(&f).unwrap();
    }

    #[test]
    fn non_rup_step_is_rejected() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1), lit(2)]);
        let mut proof = DratProof::new();
        proof.push_add(vec![lit(1)]); // not implied
        assert_eq!(proof.check(&f), Err(CheckProofError::NotRup { step: 0 }));
    }

    #[test]
    fn proof_without_empty_clause_is_incomplete() {
        let f = xor_unsat_formula();
        let mut proof = DratProof::new();
        proof.push_add(vec![lit(1)]);
        assert_eq!(proof.check(&f), Err(CheckProofError::NoEmptyClause));
    }

    #[test]
    fn deletions_are_honored() {
        let f = xor_unsat_formula();
        let mut proof = DratProof::new();
        proof.push_add(vec![lit(1)]);
        // Deleting an original clause needed later makes the final empty
        // clause underivable.
        proof.push_delete(vec![lit(-1), lit(2)]);
        proof.push_add(vec![]);
        assert_eq!(proof.check(&f), Err(CheckProofError::NotRup { step: 2 }));
        // Deleting an *absent* clause is harmless.
        let mut ok = DratProof::new();
        ok.push_add(vec![lit(1)]);
        ok.push_delete(vec![lit(7), lit(8)]);
        ok.push_add(vec![]);
        ok.check(&f).unwrap();
    }

    #[test]
    fn drat_text_roundtrip() {
        let mut proof = DratProof::new();
        proof.push_add(vec![lit(1), lit(-3)]);
        proof.push_delete(vec![lit(2)]);
        proof.push_add(vec![]);
        let text = proof.to_drat_string();
        assert_eq!(text, "1 -3 0\nd 2 0\n0\n");
        let parsed = DratProof::parse_drat(text.as_bytes()).unwrap();
        assert_eq!(parsed, proof);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DratProof::parse_drat("1 2\n".as_bytes()).is_err());
        assert!(DratProof::parse_drat("x 0\n".as_bytes()).is_err());
        // Comments and blanks are fine.
        let p = DratProof::parse_drat("c hi\n\n1 0\n".as_bytes()).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn empty_proof_of_sat_formula_fails() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1)]);
        assert_eq!(
            DratProof::new().check(&f),
            Err(CheckProofError::NoEmptyClause)
        );
    }

    #[test]
    fn proof_logged_under_assumptions_is_cleanly_rejected() {
        // Regression: UNSAT *under assumptions* refutes nothing, so a
        // proof log taken from such a solve must fail the checker with
        // `NoEmptyClause` rather than verify or panic — every learnt
        // clause in it is still RUP (conflict analysis resolves only over
        // reason clauses, never over assumption decisions), but the empty
        // clause is never derived. Callers certifying refutations must
        // check `unsat_under_assumptions` first, as
        // `SolveRequest::run_certified` does.
        use crate::CdclSolver;
        let mut f = CnfFormula::new();
        // Satisfiable 3-clause chain: 1→2, 2→3.
        f.add_clause([lit(-1), lit(2)]);
        f.add_clause([lit(-2), lit(3)]);
        let mut s = CdclSolver::new();
        s.enable_proof_logging();
        s.add_formula(&f);
        let out = s.solve_with_assumptions(&[lit(1), lit(-3)]);
        assert!(out.is_unsat());
        assert!(s.unsat_under_assumptions());
        assert!(!s.failed_assumptions().is_empty());
        let proof = s.take_proof().expect("logging was enabled");
        assert_eq!(proof.check(&f), Err(CheckProofError::NoEmptyClause));
        // The solver itself remains usable.
        assert!(s.solve().is_sat());
    }
}
