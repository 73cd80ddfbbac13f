//! Inprocessing: in-search formula simplification between restarts.
//!
//! Three MiniSat/CaDiCaL-lineage passes run over the flat clause arena
//! and the implicit problem binaries at restart boundaries, scheduled by
//! a conflict budget with geometric back-off ([`InprocessConfig`], off by
//! default):
//!
//! * **Vivification** — each clause is re-propagated literal by literal
//!   (assuming the negation of the prefix); a conflict or satisfied
//!   literal shortens the clause, a falsified literal is dropped.
//! * **Subsumption / self-subsumption** — occurrence lists with 64-bit
//!   signatures find clauses contained in others (delete the superset)
//!   or contained up to one flipped literal (strengthen the superset by
//!   resolution).
//! * **Bounded variable elimination** — a variable whose resolvent set
//!   is no larger than the clauses it replaces is resolved away; the
//!   positive-occurrence clauses go onto a reconstruction stack so
//!   [`CdclSolver::solve`](crate::CdclSolver::solve) still returns
//!   models over the original variable space (Eén–Biere style).
//!
//! # Soundness rules
//!
//! * Clauses are never shrunk in place: a strengthened clause is a
//!   fresh arena allocation (or a fresh implicit binary) and the old one
//!   is deleted (watchers drop it lazily; an implicit binary's two
//!   watchers leave their lists at once), so cached blocker literals can
//!   never dangle.
//! * Locked clauses — the reason of their first literal, which at
//!   level 0 means the reason of a root implication — are never
//!   deleted or strengthened; DRAT checkers re-derive every root unit
//!   through the reason chain, and the chain must stay live.
//! * Every derived clause is RUP, so each round first re-logs the
//!   root-level trail as DRAT unit additions and then emits
//!   add-before-delete pairs; `prove` stays certified.
//! * Frozen variables (assumption selectors, cube prefixes, anything
//!   assumed in the current solve) are never eliminated, and imported
//!   clauses mentioning a locally eliminated variable are dropped at
//!   the `ClauseExchange` boundary — eliminated variables never cross
//!   the sharing bus.

use satroute_cnf::{Lit, Var};

use crate::arena::ClauseRef;
use crate::cdcl::{CdclSolver, BINARY, FALSE, NO_REASON, TRUE, UNDEF};
use crate::run::Boundary;

/// Schedule and pass selection for inprocessing (see the module docs).
///
/// The default is **disabled**: the classic search stays byte-identical
/// to the recorded baselines. [`InprocessConfig::on`] enables all three
/// passes with the default schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct InprocessConfig {
    /// Master switch; when false no round ever runs.
    pub enabled: bool,
    /// Conflicts before the first round. `0` runs a round at solve
    /// start, before any search — where the encoder's symmetry units
    /// have landed but nothing has propagated them into the clauses.
    pub first_conflicts: u64,
    /// Conflicts between rounds (before back-off).
    pub interval: u64,
    /// Geometric growth of the interval after every round, so a long
    /// search spends a vanishing fraction of its time simplifying.
    pub backoff: f64,
    /// Run the vivification pass.
    pub vivify: bool,
    /// Run the subsumption / self-subsumption pass.
    pub subsume: bool,
    /// Run the bounded-variable-elimination pass.
    pub bve: bool,
    /// Clauses longer than this are not vivified.
    pub vivify_max_len: usize,
    /// Clauses longer than this neither subsume nor get subsumed.
    pub subsume_max_len: usize,
    /// Variables with more total occurrences than this are not
    /// candidates for elimination.
    pub bve_max_occ: usize,
    /// A variable is eliminated only if it produces at most
    /// `occurrences + bve_growth` non-tautological resolvents.
    pub bve_growth: usize,
    /// Deterministic work budget per round (literal visits); bounds the
    /// wall time of a round independently of formula size.
    pub ticks: u64,
}

impl Default for InprocessConfig {
    fn default() -> Self {
        InprocessConfig {
            enabled: false,
            first_conflicts: 0,
            interval: 4000,
            backoff: 2.0,
            vivify: true,
            subsume: true,
            bve: true,
            vivify_max_len: 32,
            subsume_max_len: 32,
            bve_max_occ: 16,
            bve_growth: 0,
            ticks: 2_000_000,
        }
    }
}

impl InprocessConfig {
    /// The default schedule with inprocessing switched on.
    pub fn on() -> Self {
        InprocessConfig {
            enabled: true,
            ..InprocessConfig::default()
        }
    }
}

/// What became of a clause handed to `add_derived`.
enum Derived {
    /// Already satisfied at level 0; nothing was added.
    Satisfied,
    /// Attached as a two-plus-literal clause.
    Attached(Handle),
    /// Collapsed to a root unit, enqueued and propagated.
    Unit,
    /// Collapsed to the empty clause: the formula is refuted and the
    /// solver is marked unsatisfiable.
    Empty,
}

/// A clause an inprocessing round sees: an arena clause, or one of the
/// round's implicit problem binaries by its index in [`Binaries`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Handle {
    Binary(u32),
    Arena(ClauseRef),
}

/// The implicit problem binaries of one round: collected from the watch
/// lists when the round starts — each once, from the list of its smaller
/// literal — with the binaries the round derives appended.
struct Binaries {
    lits: Vec<[Lit; 2]>,
    deleted: Vec<bool>,
}

impl Binaries {
    fn push(&mut self, lits: [Lit; 2]) -> Handle {
        self.lits.push(lits);
        self.deleted.push(false);
        Handle::Binary(self.lits.len() as u32 - 1)
    }
}

impl CdclSolver {
    /// Marks `var` as never to be eliminated by inprocessing.
    ///
    /// Callers that assume a variable in *some* solves but not all of
    /// them — incremental width ladders over track selectors, explain
    /// sessions over group selectors — must freeze every selector up
    /// front; the solver only auto-freezes the assumptions of the
    /// current call.
    pub fn freeze_var(&mut self, var: Var) {
        self.ensure_vars(var.index() + 1);
        self.frozen[usize::from(var)] = true;
    }

    /// `true` once [`CdclSolver::freeze_var`] ran for `var` (or it was
    /// used as an assumption).
    pub fn is_frozen(&self, var: Var) -> bool {
        self.frozen.get(usize::from(var)).copied().unwrap_or(false)
    }

    /// `true` if bounded variable elimination removed `var`. Its model
    /// value is reconstructed, and clauses mentioning it can no longer
    /// be added or imported.
    pub fn is_eliminated(&self, var: Var) -> bool {
        self.eliminated
            .get(usize::from(var))
            .copied()
            .unwrap_or(false)
    }

    /// Runs an inprocessing round if one is due, and reschedules.
    /// Called at level 0 (solve start and restart boundaries). Returns
    /// `false` when the round refuted the formula.
    pub(crate) fn maybe_inprocess(&mut self) -> bool {
        if !self.config.inprocess.enabled || !self.ok {
            return self.ok;
        }
        let due = if self.inprocess_interval == 0 {
            self.config.inprocess.first_conflicts
        } else {
            self.next_inprocess_at
        };
        if self.stats.conflicts < due {
            return true;
        }
        self.run_inprocess_round();
        let cfg = &self.config.inprocess;
        self.inprocess_interval = if self.inprocess_interval == 0 {
            cfg.interval.max(1)
        } else {
            (((self.inprocess_interval as f64) * cfg.backoff).ceil() as u64)
                .max(self.inprocess_interval + 1)
        };
        self.next_inprocess_at = self.stats.conflicts + self.inprocess_interval;
        self.ok
    }

    fn run_inprocess_round(&mut self) {
        debug_assert_eq!(self.decision_level(), 0, "inprocessing runs at level 0");
        let cfg = self.config.inprocess.clone();
        let mut ticks = cfg.ticks;

        // Re-log the root-level trail as DRAT units before anything is
        // deleted: the checker re-derives root units through clauses,
        // and a deletion below may remove the last clause a unit was
        // derivable from.
        if self.proof.is_some() {
            for i in self.proof_units_logged..self.trail.len() {
                let lit = self.trail[i];
                if let Some(proof) = &mut self.proof {
                    proof.push_add(vec![lit]);
                }
            }
            self.proof_units_logged = self.trail.len();
        }

        let mut bins = self.collect_binaries();
        if cfg.vivify && self.ok {
            self.vivify_pass(&mut bins, &cfg, &mut ticks);
        }
        if cfg.subsume && self.ok {
            self.subsume_pass(&mut bins, &cfg, &mut ticks);
        }
        if cfg.bve && self.ok {
            self.bve_pass(&mut bins, &cfg, &mut ticks);
        }

        // Restore the `learnts` invariant (no deleted references) that
        // `reduce_db` and the GC rely on, and eagerly purge watchers of
        // deleted clauses — a round deletes in bulk, and dropping the
        // stale entries now keeps them off the propagation hot path.
        self.learnts.retain(|&c| !self.arena.is_deleted(c));
        for watchers in &mut self.watches {
            watchers.retain(|w| w.is_binary() || !self.arena.is_deleted(w.cref));
        }

        self.stats.inprocess_runs += 1;
        self.report(Boundary::Inprocess);
        if self.ok && self.arena.wants_gc(self.config.gc_dead_frac) {
            self.collect_garbage();
        }
        self.debug_check_refs();
    }

    fn collect_binaries(&self) -> Binaries {
        let mut lits = Vec::new();
        for (code, watchers) in self.watches.iter().enumerate() {
            let watched = Lit::from_code(code as u32);
            for w in watchers {
                if w.is_binary() && watched < w.blocker {
                    lits.push([watched, w.blocker]);
                }
            }
        }
        let deleted = vec![false; lits.len()];
        Binaries { lits, deleted }
    }

    /// Every live clause of the round: the arena's in allocation order,
    /// then the implicit binaries.
    fn round_clauses(&self, bins: &Binaries) -> Vec<Handle> {
        let binaries = (0..bins.lits.len() as u32)
            .map(Handle::Binary)
            .filter(|&h| !self.is_gone(bins, h));
        self.arena
            .refs()
            .map(Handle::Arena)
            .chain(binaries)
            .collect()
    }

    fn clause_lits(&self, bins: &Binaries, h: Handle) -> Vec<Lit> {
        match h {
            Handle::Binary(i) => bins.lits[i as usize].to_vec(),
            Handle::Arena(c) => self.arena.lits(c).collect(),
        }
    }

    fn clause_len(&self, h: Handle) -> usize {
        match h {
            Handle::Binary(_) => 2,
            Handle::Arena(c) => self.arena.len(c),
        }
    }

    fn is_gone(&self, bins: &Binaries, h: Handle) -> bool {
        match h {
            Handle::Binary(i) => bins.deleted[i as usize],
            Handle::Arena(c) => self.arena.is_deleted(c),
        }
    }

    /// `true` for the reason of a trail literal: an arena clause locked
    /// by its first literal, or a binary either of whose literals it
    /// implied.
    fn is_reason(&self, bins: &Binaries, h: Handle) -> bool {
        match h {
            Handle::Binary(i) => {
                let [a, b] = bins.lits[i as usize];
                let implied = |x: Lit, other: Lit| {
                    self.lit_value(x) == TRUE
                        && self.reason[usize::from(x.var())] == BINARY | other.code()
                };
                implied(a, b) || implied(b, a)
            }
            Handle::Arena(c) => self.is_locked(c),
        }
    }

    /// Learnt flag, LBD and activity of a clause, for the clause that
    /// replaces it; implicit binaries are problem clauses.
    fn clause_meta(&self, h: Handle) -> (bool, u32, f64) {
        match h {
            Handle::Binary(_) => (false, 0, 0.0),
            Handle::Arena(c) => (
                self.arena.is_learnt(c),
                self.arena.lbd(c),
                self.arena.activity(c),
            ),
        }
    }

    /// Deletes a clause of the round. An implicit binary (one copy, if
    /// the formula holds it twice) loses its two watchers at once, each
    /// list keeping the order of the rest, with the same proof and
    /// accounting duties as [`CdclSolver::delete_any_clause`].
    fn delete_clause(&mut self, bins: &mut Binaries, h: Handle) {
        let i = match h {
            Handle::Arena(c) => return self.delete_any_clause(c),
            Handle::Binary(i) => i as usize,
        };
        debug_assert!(!bins.deleted[i]);
        let [a, b] = bins.lits[i];
        for (watched, other) in [(a, b), (b, a)] {
            let watchers = &mut self.watches[watched.code() as usize];
            let at = watchers
                .iter()
                .position(|w| w.is_binary() && w.blocker == other)
                .expect("a live binary keeps both watchers");
            watchers.remove(at);
        }
        if let Some(proof) = &mut self.proof {
            proof.push_delete_from([a, b]);
        }
        self.original_clauses -= 1;
        bins.deleted[i] = true;
    }

    /// Adds an entailed clause at level 0: normalizes against the root
    /// assignment, emits the DRAT addition, and attaches or enqueues —
    /// a two-literal problem clause as an implicit binary of the round.
    /// `lits` must be duplicate-free and non-tautological.
    fn add_derived(
        &mut self,
        bins: &mut Binaries,
        lits: &[Lit],
        learnt: bool,
        lbd_hint: u32,
    ) -> Derived {
        debug_assert_eq!(self.decision_level(), 0);
        let mut out: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.lit_value(l) {
                TRUE => return Derived::Satisfied,
                FALSE => {}
                _ => out.push(l),
            }
        }
        if let Some(proof) = &mut self.proof {
            proof.push_add(out.clone());
        }
        match out[..] {
            [] => {
                self.ok = false;
                Derived::Empty
            }
            [unit] => {
                self.enqueue(unit, NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                    if let Some(proof) = &mut self.proof {
                        proof.push_add(Vec::new());
                    }
                    return Derived::Empty;
                }
                Derived::Unit
            }
            [a, b] if !learnt => {
                self.attach_binary(a, b);
                Derived::Attached(bins.push([a, b]))
            }
            _ => {
                let lbd = if learnt {
                    lbd_hint.clamp(1, out.len() as u32)
                } else {
                    0
                };
                Derived::Attached(Handle::Arena(self.attach_clause(&out, learnt, lbd)))
            }
        }
    }

    /// Vivification: distills each clause by propagating the negations
    /// of its literals one decision level at a time. Also deletes
    /// clauses satisfied at the root.
    fn vivify_pass(&mut self, bins: &mut Binaries, cfg: &InprocessConfig, ticks: &mut u64) {
        // Probing assigns and retracts literals through the ordinary
        // trail machinery, and `backtrack` records every retracted
        // polarity for phase saving. Those assignments are probes, not
        // search: letting them overwrite the saved phases would steer
        // the subsequent search off its trajectory even when the pass
        // simplifies nothing. Snapshot and restore around the pass so
        // vivification's only observable effect is shorter clauses.
        let saved_phases = self.phase.clone();
        for h in self.round_clauses(bins) {
            if *ticks == 0 || !self.ok {
                break;
            }
            if self.is_gone(bins, h) {
                continue;
            }
            let len = self.clause_len(h);
            if len > cfg.vivify_max_len || self.is_reason(bins, h) {
                continue;
            }
            *ticks = ticks.saturating_sub(len as u64);
            let lits = self.clause_lits(bins, h);

            // Satisfied at the root: the unit trail subsumes it.
            if lits.iter().any(|&l| self.lit_value(l) == TRUE) {
                self.delete_clause(bins, h);
                self.stats.subsumed_clauses += 1;
                continue;
            }

            let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
            let mut changed = false;
            for (idx, &l) in lits.iter().enumerate() {
                match self.lit_value(l) {
                    // Implied false under the negated prefix (or at the
                    // root): the clause holds without it.
                    FALSE => changed = true,
                    // Implied true under the negated prefix: the suffix
                    // is unreachable.
                    TRUE => {
                        kept.push(l);
                        changed = idx + 1 < lits.len();
                        break;
                    }
                    _ => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(!l, NO_REASON);
                        *ticks = ticks.saturating_sub(1);
                        if self.propagate().is_some() {
                            // The negated prefix is contradictory: the
                            // prefix itself is an implied clause.
                            kept.push(l);
                            changed = idx + 1 < lits.len();
                            break;
                        }
                        kept.push(l);
                    }
                }
            }
            self.backtrack(0);
            if !changed {
                continue;
            }

            self.stats.vivified_clauses += 1;
            self.stats.vivified_literals += (lits.len() - kept.len()) as u64;
            let (learnt, lbd, activity) = self.clause_meta(h);
            match self.add_derived(bins, &kept, learnt, lbd) {
                Derived::Empty => break,
                attached => {
                    // The replacement inherits the original's activity:
                    // a freshly-allocated clause scores 0, and a
                    // strengthened copy of a hot learnt clause must not
                    // die at the next reduction for being "new".
                    if let Derived::Attached(Handle::Arena(new_cref)) = attached {
                        self.arena.set_activity(new_cref, activity);
                    }
                    // Add-before-delete keeps the proof checkable; the
                    // unit case may have just locked the old clause as
                    // a root reason, in which case it must stay.
                    if !self.is_reason(bins, h) {
                        self.delete_clause(bins, h);
                    }
                }
            }
        }
        self.phase = saved_phases;
    }

    /// Subsumption and self-subsuming resolution over occurrence lists
    /// with 64-bit literal signatures.
    fn subsume_pass(&mut self, bins: &mut Binaries, cfg: &InprocessConfig, ticks: &mut u64) {
        let mut clauses: Vec<Handle> = self.round_clauses(bins);
        clauses.retain(|&c| self.clause_len(c) <= cfg.subsume_max_len);
        // Smallest first: a clause can only be subsumed by one no
        // longer than itself, and processing short subsumers first
        // removes the most clauses per check.
        clauses.sort_by_key(|&c| (self.clause_len(c), c));

        let mut occ: Vec<Vec<Handle>> = vec![Vec::new(); 2 * self.num_vars() as usize];
        let mut sigs: std::collections::HashMap<Handle, u64> = Default::default();
        for &c in &clauses {
            let mut sig = 0u64;
            for l in self.clause_lits(bins, c) {
                occ[l.code() as usize].push(c);
                sig |= 1u64 << (l.var().index() % 64);
            }
            sigs.insert(c, sig);
        }

        for &c in &clauses {
            if *ticks == 0 || !self.ok {
                break;
            }
            if self.is_gone(bins, c) {
                continue;
            }
            let c_lits = self.clause_lits(bins, c);
            let c_sig = sigs[&c];

            // Scan the occurrence lists of the rarest variable in `c`:
            // any subsumption victim contains every literal of `c`
            // except at most one flipped, so it shows up there.
            let pivot = c_lits
                .iter()
                .copied()
                .min_by_key(|l| occ[l.code() as usize].len() + occ[(!*l).code() as usize].len())
                .expect("round clauses have at least two literals");
            let mut victims = occ[pivot.code() as usize].clone();
            victims.extend_from_slice(&occ[(!pivot).code() as usize]);

            for d in victims {
                if *ticks == 0 || !self.ok {
                    break;
                }
                if d == c || self.is_gone(bins, d) || self.is_gone(bins, c) {
                    continue;
                }
                if self.clause_len(d) < c_lits.len() {
                    continue;
                }
                let d_sig = sigs.get(&d).copied().unwrap_or(u64::MAX);
                if c_sig & !d_sig != 0 {
                    continue; // some variable of c is not in d
                }
                *ticks = ticks.saturating_sub(c_lits.len() as u64);

                // `c` subsumes `d` iff every literal of `c` occurs in
                // `d`; one flipped occurrence instead means the
                // resolvent on it strengthens `d`.
                let d_lits = self.clause_lits(bins, d);
                let mut flipped: Option<Lit> = None;
                let mut fits = true;
                for &l in &c_lits {
                    if d_lits.contains(&l) {
                        continue;
                    }
                    if flipped.is_none() && d_lits.contains(&!l) {
                        flipped = Some(l);
                        continue;
                    }
                    fits = false;
                    break;
                }
                if !fits || self.is_reason(bins, d) {
                    continue;
                }

                let (d_learnt, d_lbd, d_activity) = self.clause_meta(d);
                match flipped {
                    None => {
                        // A learnt subsumer must become permanent
                        // before the original it covers is dropped.
                        if let (Handle::Arena(c_ref), false) = (c, d_learnt) {
                            if self.arena.is_learnt(c_ref) {
                                self.promote_to_original(c_ref);
                            }
                        }
                        self.delete_clause(bins, d);
                        self.stats.subsumed_clauses += 1;
                    }
                    Some(l) => {
                        let strengthened: Vec<Lit> =
                            d_lits.iter().copied().filter(|&x| x != !l).collect();
                        self.stats.strengthened_clauses += 1;
                        match self.add_derived(bins, &strengthened, d_learnt, d_lbd) {
                            Derived::Empty => return,
                            Derived::Attached(new) => {
                                // Inherit the victim's activity (see
                                // `vivify_pass`).
                                if let Handle::Arena(new_cref) = new {
                                    self.arena.set_activity(new_cref, d_activity);
                                }
                                if !self.is_reason(bins, d) {
                                    self.delete_clause(bins, d);
                                }
                                let mut sig = 0u64;
                                for l in self.clause_lits(bins, new) {
                                    occ[l.code() as usize].push(new);
                                    sig |= 1u64 << (l.var().index() % 64);
                                }
                                sigs.insert(new, sig);
                            }
                            _ => {
                                if !self.is_reason(bins, d) {
                                    self.delete_clause(bins, d);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Bounded variable elimination (NiVER/SatELite style): a variable
    /// is resolved away when its non-tautological resolvents do not
    /// outnumber the clauses it appears in (plus the configured
    /// growth), with the positive side stored for model reconstruction.
    fn bve_pass(&mut self, bins: &mut Binaries, cfg: &InprocessConfig, ticks: &mut u64) {
        let mut occ: Vec<Vec<Handle>> = vec![Vec::new(); 2 * self.num_vars() as usize];
        for c in self.round_clauses(bins) {
            for l in self.clause_lits(bins, c) {
                occ[l.code() as usize].push(c);
            }
        }

        for v in 0..self.num_vars() {
            if *ticks == 0 || !self.ok {
                break;
            }
            let vi = v as usize;
            if self.frozen[vi] || self.eliminated[vi] || self.assigns[vi] != UNDEF {
                continue;
            }
            let var = Var::new(v);
            let live = |lit: Lit| -> Vec<Handle> {
                occ[lit.code() as usize]
                    .iter()
                    .copied()
                    .filter(|&c| !self.is_gone(bins, c))
                    .collect()
            };
            let pos = live(Lit::positive(var));
            let neg = live(Lit::negative(var));
            let occurrences = pos.len() + neg.len();
            if occurrences == 0 || occurrences > cfg.bve_max_occ {
                continue;
            }
            if pos.iter().chain(&neg).any(|&c| self.is_reason(bins, c)) {
                continue;
            }
            *ticks = ticks.saturating_sub((occurrences * 4) as u64);
            let pos_lits: Vec<Vec<Lit>> = pos.iter().map(|&c| self.clause_lits(bins, c)).collect();
            let neg_lits: Vec<Vec<Lit>> = neg.iter().map(|&c| self.clause_lits(bins, c)).collect();

            // Count (and collect) the non-tautological resolvents.
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            let limit = occurrences + cfg.bve_growth;
            let mut too_many = false;
            'outer: for pc in &pos_lits {
                for nc in &neg_lits {
                    *ticks = ticks.saturating_sub((pc.len() + nc.len()) as u64);
                    if let Some(r) = resolve_on(pc, nc, var) {
                        resolvents.push(r);
                        if resolvents.len() > limit {
                            too_many = true;
                            break 'outer;
                        }
                    }
                }
            }
            if too_many {
                continue;
            }

            // Add every resolvent (DRAT add-before-delete), keeping the
            // occurrence lists current so later candidate variables see
            // them.
            let mut refuted = false;
            for r in &resolvents {
                match self.add_derived(bins, r, false, 0) {
                    Derived::Empty => {
                        refuted = true;
                        break;
                    }
                    Derived::Attached(new) => {
                        for l in self.clause_lits(bins, new) {
                            occ[l.code() as usize].push(new);
                        }
                    }
                    _ => {}
                }
            }
            if refuted {
                return;
            }

            // Unit propagation from the resolvents may have assigned
            // `v` or locked one of its clauses as a root reason; both
            // void the elimination (the resolvents stay — they are
            // entailed either way).
            if self.assigns[vi] != UNDEF || pos.iter().chain(&neg).any(|&c| self.is_reason(bins, c))
            {
                continue;
            }
            for &c in pos.iter().chain(&neg) {
                if !self.is_gone(bins, c) {
                    self.delete_clause(bins, c);
                }
            }
            self.eliminated[vi] = true;
            self.elim_stack.push((var, pos_lits));
            self.stats.eliminated_vars += 1;
        }
    }
}

/// The resolvent of `pc` (containing `var`) and `nc` (containing `!var`)
/// on `var`, deduplicated; `None` when tautological.
fn resolve_on(pc: &[Lit], nc: &[Lit], var: Var) -> Option<Vec<Lit>> {
    let mut out: Vec<Lit> = Vec::with_capacity(pc.len() + nc.len() - 2);
    out.extend(pc.iter().copied().filter(|l| l.var() != var));
    out.extend(nc.iter().copied().filter(|l| l.var() != var));
    out.sort_unstable();
    out.dedup();
    let mut i = 0;
    while i + 1 < out.len() {
        if out[i + 1] == !out[i] {
            return None;
        }
        i += 1;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::SolveOutcome;
    use satroute_cnf::CnfFormula;

    fn formula(clauses: &[Vec<i64>]) -> CnfFormula {
        let mut f = CnfFormula::new();
        for c in clauses {
            f.add_clause(c.iter().map(|&d| Lit::from_dimacs(d)));
        }
        f
    }

    fn inprocessing_solver(f: &CnfFormula) -> CdclSolver {
        let config = crate::SolverConfig {
            inprocess: InprocessConfig::on(),
            ..crate::SolverConfig::default()
        };
        let mut s = CdclSolver::with_config(config);
        s.add_formula(f);
        s
    }

    #[test]
    fn vivification_shortens_a_clause_implied_by_a_binary() {
        // (1 2) makes the tail of (1 2 3 4) unreachable: assuming ¬1
        // propagates 2, so vivification cuts the clause to (1 2).
        let f = formula(&[vec![1, 2], vec![1, 2, 3, 4], vec![3, 5], vec![-5, 4]]);
        let mut s = inprocessing_solver(&f);
        let out = s.solve();
        assert!(out.is_sat());
        assert!(f.is_satisfied_by(out.model().unwrap()));
        assert!(s.stats().inprocess_runs >= 1);
        assert!(s.stats().vivified_literals >= 2, "{:?}", s.stats());
    }

    #[test]
    fn subsumption_deletes_supersets_and_strengthens_with_one_flip() {
        // (1 2) subsumes (1 2 3); resolving it against (-1 2 4) drops
        // the flipped literal. Vivification is switched off so the
        // subsumption pass gets the credit.
        let f = formula(&[vec![1, 2], vec![1, 2, 3], vec![-1, 2, 4], vec![-2, 6, 7]]);
        let config = crate::SolverConfig {
            inprocess: InprocessConfig {
                vivify: false,
                bve: false,
                ..InprocessConfig::on()
            },
            ..crate::SolverConfig::default()
        };
        let mut s = CdclSolver::with_config(config);
        s.add_formula(&f);
        let out = s.solve();
        assert!(out.is_sat());
        assert!(f.is_satisfied_by(out.model().unwrap()));
        assert!(s.stats().subsumed_clauses >= 1, "{:?}", s.stats());
        assert!(s.stats().strengthened_clauses >= 1, "{:?}", s.stats());
    }

    #[test]
    fn bve_eliminates_and_reconstruction_restores_the_model() {
        // Variable 1 occurs twice; its single resolvent (2 3) replaces
        // both clauses. The model must still satisfy the originals.
        let f = formula(&[vec![1, 2], vec![-1, 3], vec![2, 4], vec![-3, 5, 6]]);
        let mut s = inprocessing_solver(&f);
        let out = s.solve();
        assert!(out.is_sat());
        assert!(
            f.is_satisfied_by(out.model().unwrap()),
            "reconstructed model must satisfy the original formula"
        );
        assert!(s.stats().eliminated_vars >= 1, "{:?}", s.stats());
        assert!(s.is_eliminated(Var::new(0)) || s.stats().eliminated_vars >= 1);
    }

    #[test]
    fn frozen_variables_survive_elimination() {
        let f = formula(&[vec![1, 2], vec![-1, 3], vec![2, 4], vec![-3, 5, 6]]);
        let mut s = inprocessing_solver(&f);
        for v in 0..f.num_vars() {
            s.freeze_var(Var::new(v));
        }
        let out = s.solve();
        assert!(out.is_sat());
        assert_eq!(s.stats().eliminated_vars, 0);
        for v in 0..f.num_vars() {
            assert!(s.is_frozen(Var::new(v)));
            assert!(!s.is_eliminated(Var::new(v)));
        }
    }

    #[test]
    fn assumptions_are_auto_frozen() {
        let f = formula(&[vec![1, 2], vec![-1, 3], vec![2, 4]]);
        let mut s = inprocessing_solver(&f);
        let a = Lit::from_dimacs(1);
        assert!(matches!(
            s.solve_with_assumptions(&[a]),
            SolveOutcome::Sat(_)
        ));
        assert!(s.is_frozen(a.var()));
        assert!(!s.is_eliminated(a.var()));
        // A later solve with the opposite assumption still works.
        assert!(matches!(
            s.solve_with_assumptions(&[!a]),
            SolveOutcome::Sat(_)
        ));
    }

    #[test]
    fn unsat_proof_with_all_passes_checks_end_to_end() {
        // An eliminable auxiliary variable (7), redundant supersets for
        // subsumption, and long vivifiable clauses on top of an
        // unsatisfiable XOR-ish core over 1..3.
        let clauses: Vec<Vec<i64>> = vec![
            vec![1, 2, 3],
            vec![1, 2, -3],
            vec![1, -2, 3],
            vec![1, -2, -3],
            vec![-1, 2, 3],
            vec![-1, 2, -3],
            vec![-1, -2, 3],
            vec![-1, -2, -3],
            vec![1, 2, 3, 4, 5],
            vec![7, 4, 5],
            vec![-7, 6],
            vec![4, 5, 6, -1, 2],
        ];
        let f = formula(&clauses);
        let mut s = inprocessing_solver(&f);
        s.enable_proof_logging();
        s.add_formula(&f);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        let simplifications = {
            let st = s.stats();
            st.vivified_clauses + st.subsumed_clauses + st.strengthened_clauses + st.eliminated_vars
        };
        assert!(simplifications > 0, "{:?}", s.stats());
        let proof = s.take_proof().expect("proof logging was enabled");
        proof
            .check(&f)
            .expect("DRAT proof with inprocessing must verify against the original formula");
    }

    #[test]
    fn on_and_off_agree_across_small_formulas() {
        // A deterministic family of small formulas: identical verdicts
        // with inprocessing on and off, and on-models verify.
        for seed in 0..12u64 {
            let mut clauses: Vec<Vec<i64>> = Vec::new();
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let num_vars = 12i64;
            for _ in 0..40 {
                let mut c = Vec::new();
                for _ in 0..3 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let v = (x % num_vars as u64) as i64 + 1;
                    let sign = if (x >> 32) & 1 == 0 { 1 } else { -1 };
                    c.push(sign * v);
                }
                clauses.push(c);
            }
            let f = formula(&clauses);
            let mut plain = CdclSolver::new();
            plain.add_formula(&f);
            let baseline = plain.solve();

            let mut s = inprocessing_solver(&f);
            let out = s.solve();
            assert_eq!(baseline.is_sat(), out.is_sat(), "seed {seed}");
            if let SolveOutcome::Sat(m) = &out {
                assert!(f.is_satisfied_by(m), "seed {seed}");
            }
        }
    }

    /// The eight clauses over variables `a..a+3` that rule out every
    /// assignment: an unsatisfiable block that needs search.
    fn unsat_block(a: i64) -> Vec<Vec<i64>> {
        (0..8)
            .map(|mask| {
                (0..3)
                    .map(|b| {
                        if mask & (1 << b) == 0 {
                            a + b
                        } else {
                            -(a + b)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Solves `f` with proof logging under `passes`, then checks it
    /// against the DPLL oracle: the same verdict, a model of `f` on SAT,
    /// a checked DRAT proof on UNSAT, and watch lists holding exactly one
    /// watcher pair per live problem clause outside the arena.
    fn solve_checked(f: &CnfFormula, passes: InprocessConfig) -> CdclSolver {
        let mut s = CdclSolver::with_config(crate::SolverConfig {
            inprocess: passes,
            ..crate::SolverConfig::default()
        });
        s.enable_proof_logging();
        s.add_formula(f);
        let out = s.solve();
        assert_eq!(out.is_sat(), crate::DpllSolver::new().solve(f).is_sat());
        match &out {
            SolveOutcome::Sat(m) => assert!(f.is_satisfied_by(m)),
            _ => s
                .take_proof()
                .expect("proof logging was enabled")
                .check(f)
                .expect("DRAT proof with inprocessing must verify"),
        }
        let halves = s.watches.iter().flatten().filter(|w| w.is_binary()).count();
        let arena_problem = s.arena.refs().filter(|&c| !s.arena.is_learnt(c)).count();
        assert_eq!(halves % 2, 0, "binary watchers come in pairs");
        assert_eq!(halves / 2 + arena_problem, s.original_clauses);
        assert!(s.stats().inprocess_runs >= 1);
        s
    }

    fn only(vivify: bool, subsume: bool, bve: bool) -> InprocessConfig {
        InprocessConfig {
            vivify,
            subsume,
            bve,
            ..InprocessConfig::on()
        }
    }

    #[test]
    fn an_implicit_binary_subsumes_a_ternary() {
        // (1 2) is the only clause that can subsume (1 2 3); the ternary
        // must go, and a lost or duplicated binary breaks the count or
        // the oracle check.
        let sat = vec![
            vec![1, 2],
            vec![1, 2, 3],
            vec![-2, 4, 5],
            vec![-4, -5],
            vec![3, -1],
        ];
        let mut unsat = sat.clone();
        unsat.extend(unsat_block(6));
        for clauses in [sat, unsat] {
            let s = solve_checked(&formula(&clauses), only(false, true, false));
            assert!(s.stats().subsumed_clauses >= 1, "{:?}", s.stats());
        }
    }

    #[test]
    fn bve_eliminates_a_variable_seen_only_in_binaries() {
        // Variable 1 occurs only in (1 2) and (-1 3): its resolvent (2 3)
        // replaces both, and neither binary may propagate afterwards.
        let sat = vec![
            vec![1, 2],
            vec![-1, 3],
            vec![2, 4, 5],
            vec![-3, -4, 5],
            vec![-5, -2, 4],
        ];
        let mut unsat = sat.clone();
        unsat.extend(unsat_block(6));
        for clauses in [sat, unsat] {
            let s = solve_checked(&formula(&clauses), only(false, false, true));
            let x = Var::new(0);
            assert!(s.is_eliminated(x), "{:?}", s.stats());
            for l in [Lit::positive(x), Lit::negative(x)] {
                assert!(
                    s.watches[l.code() as usize].is_empty(),
                    "deleted binaries must leave the watch lists"
                );
            }
        }
    }

    #[test]
    fn vivification_cuts_a_binary_to_a_unit() {
        // Every clause is binary, so any vivified clause is a binary cut
        // down: assuming ¬1 implies both 3 and ¬3, so (1 2) becomes (1).
        let sat = vec![
            vec![1, 2],
            vec![1, 3],
            vec![1, -3],
            vec![-1, 4],
            vec![4, 5],
            vec![-5, 6],
        ];
        let mut unsat = sat.clone();
        unsat.extend([vec![-4, 7], vec![-4, -7]]);
        for clauses in [sat, unsat] {
            let s = solve_checked(&formula(&clauses), only(true, false, false));
            assert!(s.stats().vivified_clauses >= 1, "{:?}", s.stats());
            assert_eq!(
                s.stats().conflicts,
                0,
                "the unit settles the formula at the root"
            );
        }
    }

    #[test]
    fn disabled_config_never_runs_a_round() {
        let f = formula(&[vec![1, 2], vec![1, 2, 3], vec![-1, 3]]);
        let mut s = CdclSolver::new();
        s.add_formula(&f);
        assert!(s.solve().is_sat());
        let st = s.stats();
        assert_eq!(st.inprocess_runs, 0);
        assert_eq!(st.vivified_literals, 0);
        assert_eq!(st.subsumed_clauses, 0);
        assert_eq!(st.eliminated_vars, 0);
    }
}
