//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! Implements the standard modern architecture (MiniSat lineage, the same
//! family as the paper's siege_v4 / MiniSat):
//!
//! * two-watched-literal unit propagation with blocker literals,
//! * first-UIP conflict analysis with recursive clause minimization,
//! * VSIDS variable activities with an indexed max-heap and phase saving,
//! * Luby-sequence restarts,
//! * activity-driven learnt-clause database reduction.
//!
//! Two-literal problem clauses are implicit: each is a pair of one-word
//! watchers that carry the other literal (see [`crate::watch`]), so
//! propagating one never touches clause memory. A graph coloring's
//! conflict binaries can take no words at all: handed over as the
//! conflict graph ([`CdclSolver::add_conflict_binaries`]), they are
//! visited from the graph, ahead of each literal's list. Every other clause —
//! learnt clauses of any length and problem clauses of three or more
//! literals — lives in a flat
//! [`ClauseArena`](crate::ClauseArena) — one contiguous `u32` buffer
//! addressed by word offsets — with compacting garbage collection
//! reclaiming deleted clauses once their share of the buffer crosses
//! [`SolverConfig::gc_dead_frac`].
//!
//! The solver is deterministic: the same formula always produces the same
//! search, which makes the benchmark tables reproducible run to run.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use satroute_cnf::{Assignment, ClauseSink, CnfFormula, Lit, Var};

use crate::arena::{ClauseArena, ClauseRef, Tier};
use crate::heap::VarHeap;
use crate::inprocess::InprocessConfig;
use crate::luby::luby;
use crate::outcome::SolveOutcome;
use crate::proof::DratProof;
use crate::run::{
    Boundary, CancellationToken, ClauseExchange, RunBudget, SearchView, StopReason, Telemetry,
};
use crate::watch::{
    watcher_words, ConflictBinaries, VirtualBinaries, Visit, Watch, WatchList, BINARY,
};
use satroute_obs::{Postmortem, SpanId};

/// Conflicts between cancellation-token polls.
const CANCEL_POLL_INTERVAL: u64 = 256;
/// Conflicts between wall-clock deadline polls (`Instant::now` is not free).
const DEADLINE_POLL_INTERVAL: u64 = 64;
/// Decisions between budget polls on conflict-free stretches.
const DECISION_POLL_INTERVAL: u64 = 4096;
/// Learnt clauses offered to a [`ClauseExchange`] must be glue: LBD at
/// most this (the usual ManySAT-style filter, with [`EXPORT_MAX_LEN`]),
/// or the import traffic drowns the receivers in junk.
const EXPORT_MAX_LBD: u32 = 8;
/// Learnt clauses offered to a [`ClauseExchange`] have at most this many
/// literals.
const EXPORT_MAX_LEN: usize = 30;

/// Initial phase (branching polarity) assigned to fresh variables.
///
/// Phase saving overwrites the initial phase as soon as a variable is
/// unassigned by backtracking, so this knob steers only the early search —
/// which is exactly what portfolio diversification needs: members that
/// explore different corners of the assignment space first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PhaseInit {
    /// Every fresh variable starts `false` (MiniSat default).
    #[default]
    AllFalse,
    /// Every fresh variable starts `true`.
    AllTrue,
    /// Per-variable pseudo-random phase derived from
    /// [`SolverConfig::seed`]; deterministic and independent of the order
    /// in which variables are introduced.
    Random,
}

/// Restart schedule of the [`CdclSolver`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum RestartScheme {
    /// Luby sequence times [`SolverConfig::restart_base`] (the classic
    /// MiniSat schedule, and the default).
    #[default]
    Luby,
    /// Geometric: `restart_base * factor^i` conflicts before restart `i`.
    /// `Geometric(1.5)` is the pre-Luby MiniSat schedule.
    Geometric(f64),
}

/// Tunable parameters of the [`CdclSolver`].
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Multiplicative decay applied to variable activities per conflict
    /// (MiniSat default 0.95).
    pub var_decay: f64,
    /// Multiplicative decay applied to clause activities per conflict
    /// (MiniSat default 0.999).
    pub clause_decay: f64,
    /// Conflicts per Luby restart unit (MiniSat default 100).
    pub restart_base: u64,
    /// Initial learnt-clause limit as a fraction of problem clauses.
    pub learnt_ratio: f64,
    /// Growth factor of the learnt-clause limit at each database reduction.
    pub learnt_growth: f64,
    /// Diversification seed. `0` (the default) means "no diversification":
    /// phases and activities are exactly the classic deterministic search.
    /// Any other value perturbs the initial variable activities (a tiny
    /// deterministic jitter that breaks VSIDS ties differently per seed)
    /// and feeds [`PhaseInit::Random`].
    pub seed: u64,
    /// Initial branching polarity for fresh variables.
    pub phase_init: PhaseInit,
    /// Restart schedule.
    pub restart_scheme: RestartScheme,
    /// Hard floor of the learnt-clause limit (MiniSat's classic 1000);
    /// tests lower it to force database reductions on small formulas.
    pub learnt_floor: f64,
    /// Compact the clause arena once deleted clauses occupy at least this
    /// fraction of it (checked after each database reduction).
    pub gc_dead_frac: f64,
    /// Testing knob: additionally run a compacting GC every N conflicts
    /// (even with nothing dead), to exercise reference remapping.
    pub debug_force_gc: Option<u64>,
    /// Inprocessing (vivification / subsumption / bounded variable
    /// elimination) schedule and pass selection. Disabled by default:
    /// the classic search stays byte-identical to the recorded
    /// baselines unless the caller opts in.
    pub inprocess: InprocessConfig,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_base: 100,
            learnt_ratio: 1.0 / 3.0,
            learnt_growth: 1.1,
            seed: 0,
            phase_init: PhaseInit::AllFalse,
            restart_scheme: RestartScheme::Luby,
            learnt_floor: 1000.0,
            gc_dead_frac: 0.25,
            debug_force_gc: None,
            inprocess: InprocessConfig::default(),
        }
    }
}

impl SolverConfig {
    /// Derives a deterministic variant of this configuration for portfolio
    /// member `index`.
    ///
    /// Member 0 is the base configuration unchanged (so a diversified
    /// portfolio always contains the classic search); members 1, 2, …
    /// cycle through phase polarities, alternate Luby and geometric
    /// restarts with varied bases, and get distinct nonzero seeds. Same
    /// `(base, index)` always yields the same variant.
    pub fn diversified(&self, index: u64) -> SolverConfig {
        if index == 0 {
            return self.clone();
        }
        let mut cfg = self.clone();
        cfg.seed = splitmix64(self.seed ^ (0xD1CE << 16) ^ index);
        cfg.phase_init = match index % 3 {
            0 => PhaseInit::AllFalse,
            1 => PhaseInit::AllTrue,
            _ => PhaseInit::Random,
        };
        // Odd members restart faster (good on SAT instances, and frequent
        // restarts mean frequent import points); even members keep Luby
        // with a shifted base.
        cfg.restart_scheme = if index % 2 == 1 {
            RestartScheme::Geometric(1.3)
        } else {
            RestartScheme::Luby
        };
        cfg.restart_base = match index % 4 {
            1 => 25,
            2 => 150,
            3 => 50,
            _ => self.restart_base,
        };
        cfg
    }
}

/// SplitMix64: a tiny, high-quality mixing function used for deterministic
/// per-variable phase/activity diversification (no RNG state to carry).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The two smallest distinct literals of a clause, which normalization
/// puts in the watched slots; `None` for clauses that will not be
/// watched.
fn two_smallest(lits: &[Lit]) -> Option<[Lit; 2]> {
    let (&first, rest) = lits.split_first()?;
    let mut min = first;
    let mut second: Option<Lit> = None;
    for &l in rest {
        if l < min {
            second = Some(min);
            min = l;
        } else if l != min && second.is_none_or(|s| l < s) {
            second = Some(l);
        }
    }
    second.map(|s| [min, s])
}

/// The two passes of [`CdclSolver::load`], in the order they run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadPass {
    /// The sink only counts how many words each literal's watch list
    /// will hold; nothing is loaded.
    Count,
    /// The sink is the solver: every clause is added.
    Fill,
}

/// The sink of [`CdclSolver::load`]'s counting pass: entry `code` is the
/// number of words the watch list of the literal with that code will
/// hold. A clause with no third distinct literal becomes an implicit
/// binary.
struct WatchCounts(Vec<u32>);

impl ClauseSink for WatchCounts {
    fn add_clause(&mut self, lits: &[Lit]) {
        if let Some([a, b]) = two_smallest(lits) {
            let binary = lits.iter().all(|&l| l == a || l == b);
            let words = watcher_words(binary);
            self.0[a.code() as usize] += words;
            self.0[b.code() as usize] += words;
        }
    }
}

/// Counters describing the work a [`CdclSolver`] performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of clauses learnt.
    pub learnt_clauses: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Literals removed by conflict-clause minimization.
    pub minimized_literals: u64,
    /// Sum of learnt-clause LBD (glue) values; divide by `learnt_clauses`
    /// for the mean.
    pub sum_lbd: u64,
    /// Learnt clauses offered to a [`ClauseExchange`] (sharing enabled and
    /// the clause was glue: LBD ≤ 8 and at most 30 literals).
    pub exported_clauses: u64,
    /// Clauses accepted from a [`ClauseExchange`] at restart boundaries
    /// (after level-0 simplification; satisfied/tautological deliveries are
    /// not counted).
    pub imported_clauses: u64,
    /// Restart boundaries that imported at least one clause.
    pub import_batches: u64,
    /// Compacting garbage collections of the clause arena.
    pub gc_runs: u64,
    /// Bytes reclaimed by those collections.
    pub gc_reclaimed_bytes: u64,
    /// Inprocessing rounds executed.
    pub inprocess_runs: u64,
    /// Clauses shortened by vivification.
    pub vivified_clauses: u64,
    /// Literals removed by vivification (including level-0 falsified
    /// literals stripped during the pass).
    pub vivified_literals: u64,
    /// Clauses deleted because another clause subsumes them (including
    /// clauses satisfied at level 0, which the unit trail subsumes).
    pub subsumed_clauses: u64,
    /// Clauses strengthened by self-subsuming resolution.
    pub strengthened_clauses: u64,
    /// Variables removed by bounded variable elimination.
    pub eliminated_vars: u64,
}

/// Reason word of a decision, an assumption or a root unit.
pub(crate) const NO_REASON: u32 = u32::MAX;

// A reason is an arena offset or a [`BINARY`]-tagged literal code, never
// `NO_REASON`.
const _: () = assert!((BINARY | (2 * Var::LIMIT - 1)) < NO_REASON);

/// Truth-value codes of the per-literal value table.
pub(crate) const UNDEF: u8 = 0;
pub(crate) const FALSE: u8 = 1;
pub(crate) const TRUE: u8 = 2;

/// A clause as conflict analysis reads it: a conflict returned by
/// `propagate`, or the reason of a trail literal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Antecedent {
    /// An arena clause; its literal order is the watch order, which
    /// puts a reason's implied literal in slot 0.
    Clause(ClauseRef),
    /// An implicit problem binary by its literals, in the slot order
    /// `propagate` gives a two-literal arena clause (falsified watch in
    /// slot 1), so both kinds analyze alike: for a reason, the implied
    /// literal and then the falsified one; for a conflict, the other
    /// literal and then the watched one.
    Binary([Lit; 2]),
}

/// Holder for the optional clause exchange; `dyn ClauseExchange` has no
/// `Debug` impl, so the slot provides one for the solver's derive.
#[derive(Clone, Default)]
struct ExchangeSlot(Option<Arc<dyn ClauseExchange>>);

impl fmt::Debug for ExchangeSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ExchangeSlot")
            .field(&self.0.as_ref().map(|_| "dyn ClauseExchange"))
            .finish()
    }
}

/// A conflict-driven clause-learning SAT solver.
///
/// Load clauses with [`CdclSolver::add_formula`] or
/// [`CdclSolver::add_clause`], then call [`CdclSolver::solve`].
///
/// # Examples
///
/// ```
/// use satroute_cnf::{CnfFormula, Lit};
/// use satroute_solver::{CdclSolver, SolveOutcome};
///
/// let mut f = CnfFormula::new();
/// let a = f.new_var();
/// f.add_clause([Lit::positive(a)]);
/// f.add_clause([Lit::negative(a)]);
///
/// let mut s = CdclSolver::new();
/// s.add_formula(&f);
/// assert_eq!(s.solve(), SolveOutcome::Unsat);
/// ```
#[derive(Clone, Debug)]
pub struct CdclSolver {
    pub(crate) config: SolverConfig,
    pub(crate) stats: SolverStats,

    /// Flat clause storage; every `cref` below is an offset into it.
    pub(crate) arena: ClauseArena,
    /// References of learnt clauses (may include deleted ones until the
    /// next compaction of this list at the end of `reduce_db`).
    pub(crate) learnts: Vec<ClauseRef>,
    /// Watch list of each literal, indexed by its code.
    pub(crate) watches: Vec<WatchList>,
    /// Binaries held as a conflict graph, visited ahead of the lists.
    virtual_binaries: VirtualBinaries,
    /// Clauses ever attached (learnt included, deletions not subtracted);
    /// feeds the initial learnt-clause limit exactly as the length of the
    /// old grow-only clause vector did.
    allocated_clauses: usize,
    /// Original (problem) clauses currently attached.
    pub(crate) original_clauses: usize,
    /// Live learnt clauses per [`Tier`], indexed by `Tier as usize`.
    tier_counts: [u64; 3],

    /// Value of each literal, indexed by its code: both polarities of a
    /// variable are written together, so reading a literal's value is
    /// one load.
    values: Vec<u8>,
    pub(crate) level: Vec<u32>,
    pub(crate) reason: Vec<u32>,
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    pub(crate) phase: Vec<bool>,
    cla_inc: f64,

    /// Scratch space for conflict analysis.
    seen: Vec<bool>,
    analyze_stack: Vec<Lit>,
    analyze_clear: Vec<Lit>,
    /// Reusable buffer holding the clause produced by `analyze` (avoids
    /// one heap allocation per conflict).
    learnt_buf: Vec<Lit>,
    /// Per-decision-level stamps for the allocation-free LBD computation.
    lbd_stamp: Vec<u32>,
    lbd_gen: u32,
    /// Reusable output buffer of `normalize`, the level-0 clause
    /// normalizer shared by loading and clause import.
    norm_buf: Vec<Lit>,

    /// False once a top-level conflict has been derived.
    pub(crate) ok: bool,
    cancel: Option<CancellationToken>,
    budget: RunBudget,
    /// Where every boundary of a solve is reported; subscribes nothing
    /// unless built by [`RunContext::solver`](crate::RunContext::solver)
    /// (one branch per boundary).
    pub(crate) telemetry: Telemetry,
    /// Mailbox to sharing peers, when this solver participates in a
    /// sharing portfolio.
    exchange: ExchangeSlot,
    /// Effective absolute deadline of the current solve, resolved from the
    /// budget when the solve starts.
    deadline: Option<Instant>,
    /// Start instant of the current solve (for event timestamps).
    solve_start: Option<Instant>,
    /// Exponential moving average of learnt-clause LBD.
    lbd_ema: f64,
    /// DRAT proof log (learnt additions + deletions) when enabled.
    pub(crate) proof: Option<DratProof>,
    /// Set when the last `solve_with_assumptions` failed only because of
    /// the assumptions (the formula itself may still be satisfiable).
    unsat_under_assumptions: bool,
    /// The failed-assumption core of the last UNSAT-under-assumptions
    /// answer (MiniSat's `conflict` vector): a subset of the supplied
    /// assumptions that is already contradictory with the formula.
    failed_assumptions: Vec<Lit>,

    /// Variables inprocessing must never eliminate: assumption
    /// selectors and anything assumed in the current solve (assumptions
    /// are frozen automatically at solve start).
    pub(crate) frozen: Vec<bool>,
    /// Variables removed by bounded variable elimination. They carry no
    /// clauses, are never branched on, and block clause import; their
    /// model value is rebuilt from `elim_stack` in `extract_model`.
    pub(crate) eliminated: Vec<bool>,
    /// Eén–Biere reconstruction stack: for each eliminated variable, the
    /// clauses that contained its positive literal, in elimination
    /// order. Replayed in reverse to extend a model of the simplified
    /// formula to the original variable space.
    pub(crate) elim_stack: Vec<(Var, Vec<Vec<Lit>>)>,
    /// Number of level-0 trail literals already re-logged as DRAT unit
    /// additions (inprocessing logs the prefix before deleting clauses,
    /// so the checker can still derive every root-level unit).
    pub(crate) proof_units_logged: usize,
    /// Conflict count at which the next inprocessing round may run.
    pub(crate) next_inprocess_at: u64,
    /// Conflicts between inprocessing rounds; grows geometrically by
    /// [`InprocessConfig::backoff`] after every round.
    pub(crate) inprocess_interval: u64,
}

impl ClauseSink for CdclSolver {
    fn add_clause(&mut self, lits: &[Lit]) {
        CdclSolver::add_clause(self, lits);
    }
}

impl Default for CdclSolver {
    fn default() -> Self {
        CdclSolver::new()
    }
}

impl CdclSolver {
    /// Creates a solver with default configuration.
    pub fn new() -> Self {
        CdclSolver::with_config(SolverConfig::default())
    }

    /// Creates a solver with the given configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        CdclSolver {
            config,
            stats: SolverStats::default(),
            arena: ClauseArena::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            virtual_binaries: VirtualBinaries::default(),
            allocated_clauses: 0,
            original_clauses: 0,
            tier_counts: [0; 3],
            values: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarHeap::new(),
            phase: Vec::new(),
            cla_inc: 1.0,
            seen: Vec::new(),
            analyze_stack: Vec::new(),
            analyze_clear: Vec::new(),
            learnt_buf: Vec::new(),
            lbd_stamp: Vec::new(),
            lbd_gen: 0,
            norm_buf: Vec::new(),
            ok: true,
            cancel: None,
            budget: RunBudget::default(),
            telemetry: Telemetry::default(),
            exchange: ExchangeSlot::default(),
            deadline: None,
            solve_start: None,
            lbd_ema: 0.0,
            proof: None,
            unsat_under_assumptions: false,
            failed_assumptions: Vec::new(),
            frozen: Vec::new(),
            eliminated: Vec::new(),
            elim_stack: Vec::new(),
            proof_units_logged: 0,
            next_inprocess_at: 0,
            inprocess_interval: 0,
        }
    }

    /// Starts recording a DRAT proof of the refutation (see
    /// [`crate::DratProof`]). Must be called before adding clauses for the
    /// proof to be checkable against the original formula.
    ///
    /// Proofs are meaningful for plain [`CdclSolver::solve`] runs; under
    /// assumptions the log still contains only implied clauses but never
    /// the final empty clause.
    pub fn enable_proof_logging(&mut self) {
        if self.proof.is_none() {
            self.proof = Some(DratProof::new());
        }
    }

    /// Takes the recorded proof, leaving logging disabled.
    pub fn take_proof(&mut self) -> Option<DratProof> {
        self.proof.take()
    }

    /// Returns `true` if the last solve returned [`SolveOutcome::Unsat`]
    /// only because of the supplied assumptions; the formula itself has not
    /// been refuted and further solves may still succeed.
    pub fn unsat_under_assumptions(&self) -> bool {
        self.unsat_under_assumptions
    }

    /// The failed-assumption core of the last UNSAT-under-assumptions
    /// answer: a subset of the assumptions passed to
    /// [`CdclSolver::solve_with_assumptions`] that is contradictory with
    /// the formula on its own (MiniSat-style final-conflict analysis).
    ///
    /// Literals appear in the caller's sense (as passed, not negated) and
    /// the slice is empty unless
    /// [`CdclSolver::unsat_under_assumptions`] is true. Any later solve of
    /// a superset of the core is UNSAT without search, which is what lets
    /// the incremental width ladder skip doomed widths.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed_assumptions
    }

    /// Installs a cooperative [`CancellationToken`].
    ///
    /// Once any clone of the token is cancelled, [`CdclSolver::solve`]
    /// returns [`SolveOutcome::Unknown`] with [`StopReason::Cancelled`] at
    /// the next poll point (conflict or decision boundary). Used by the
    /// parallel portfolio runner to stop losing strategies.
    pub fn set_cancellation(&mut self, token: CancellationToken) {
        self.cancel = Some(token);
    }

    /// Installs a [`RunBudget`]; each subsequent solve call enforces it.
    ///
    /// Limits are polled cooperatively at conflict boundaries (the deadline
    /// every 64 conflicts and every few thousand decisions), so overshoot
    /// is bounded but not zero. A budget
    /// with `deadline_at` is shared: every solve under it races the same
    /// absolute instant.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
    }

    /// The currently installed budget (unlimited by default).
    pub fn budget(&self) -> RunBudget {
        self.budget
    }

    /// Moves the span the solver's telemetry writes onto (see
    /// [`RunContext::solver`](crate::RunContext::solver)) to `span`,
    /// keeping the registry deltas and sample rates — for a solver that
    /// lives across probes, each traced under its own span.
    pub fn set_trace_span(&mut self, span: SpanId) {
        self.telemetry.set_span(span);
    }

    /// The postmortem of the last solve, when it stopped without an
    /// answer and the solver was built by
    /// [`RunContext::solver`](crate::RunContext::solver) with an enabled
    /// tracer: the stop reason and the solve's last
    /// [`POSTMORTEM_WINDOW`](satroute_obs::timeline::POSTMORTEM_WINDOW)
    /// samples. `None` for decided or untraced solves.
    pub fn postmortem(&self) -> Option<Postmortem> {
        self.telemetry.postmortem()
    }

    /// Connects this solver to a [`ClauseExchange`] for learnt-clause
    /// sharing.
    ///
    /// Glue learnt clauses (LBD ≤ 8, at most 30 literals) are exported at
    /// each conflict; peer clauses are imported at each restart
    /// (and at solve start), where the trail is at decision level 0 so
    /// watched literals can be set up on unassigned literals.
    ///
    /// The caller must guarantee every clause arriving through the exchange
    /// is entailed by this solver's formula (see the [`ClauseExchange`]
    /// soundness contract). Imports are skipped while DRAT proof logging is
    /// enabled — a peer's clause need not be RUP-derivable step-by-step
    /// from *this* solver's database, so accepting it would break the
    /// proof.
    pub fn set_exchange(&mut self, exchange: Arc<dyn ClauseExchange>) {
        self.exchange = ExchangeSlot(Some(exchange));
    }

    /// Exponential moving average of learnt-clause LBD (0.95/0.05 mix,
    /// seeded by the first learnt clause's LBD). 0 before any learning.
    pub fn lbd_ema(&self) -> f64 {
        self.lbd_ema
    }

    /// Reports one boundary of the solve to the telemetry sink; with
    /// nothing subscribed this is one branch.
    #[inline]
    pub(crate) fn report(&mut self, at: Boundary) {
        if self.telemetry.is_active() {
            let view = SearchView {
                stats: self.stats,
                trail: self.trail.len() as u64,
                level: u64::from(self.decision_level()),
                tiers: self.tier_counts,
                arena_live_bytes: self.arena.live_bytes(),
                arena_dead_bytes: self.arena.dead_bytes(),
                watch_bytes: if self.telemetry.sets_store_gauges(&at) {
                    self.watches
                        .iter()
                        .map(WatchList::allocated_bytes)
                        .sum::<u64>()
                        + self.virtual_binaries.allocated_bytes()
                } else {
                    0
                },
                lbd_ema: self.lbd_ema,
                solve_start: self.solve_start,
            };
            self.telemetry.record(at, &view);
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> u32 {
        self.level.len() as u32
    }

    /// Ensures the solver knows about variables `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`Var::LIMIT`], the most variables a reason
    /// word can name.
    pub fn ensure_vars(&mut self, n: u32) {
        assert!(
            n <= Var::LIMIT,
            "{n} variables exceed the solver's limit of {}",
            Var::LIMIT
        );
        let n = n as usize;
        if self.level.len() >= n {
            return;
        }
        let old_len = self.level.len();
        self.values.resize(n * 2, UNDEF);
        self.level.resize(n, 0);
        self.reason.resize(n, NO_REASON);
        self.activity.resize(n, 0.0);
        self.phase.resize(n, false);
        self.seen.resize(n, false);
        self.frozen.resize(n, false);
        self.eliminated.resize(n, false);
        // Decision levels never exceed the variable count.
        self.lbd_stamp.resize(n + 1, 0);
        self.watches.resize(n * 2, WatchList::default());
        // Diversification: initial phase polarity, plus (for nonzero seeds)
        // a tiny deterministic activity jitter that breaks VSIDS ties
        // differently per seed. Both are keyed on the variable index, not
        // on introduction order, so growing the formula incrementally does
        // not change a variable's initial phase.
        for v in old_len..n {
            let h = splitmix64(self.config.seed ^ (v as u64).wrapping_mul(0x9E37_79B9));
            self.phase[v] = match self.config.phase_init {
                PhaseInit::AllFalse => false,
                PhaseInit::AllTrue => true,
                PhaseInit::Random => h & 1 == 1,
            };
            if self.config.seed != 0 {
                self.activity[v] = (h >> 11) as f64 / (1u64 << 53) as f64 * 1e-6;
            }
        }
        self.order.grow(n);
        for v in 0..n as u32 {
            if self.var_value(Var::new(v)) == UNDEF && !self.order.contains(v) {
                self.order.insert(v, &self.activity);
            }
        }
    }

    /// Loads a problem in one count, reserve and fill: loading never
    /// regrows a watch list, and an emitter that produces its clauses on
    /// the fly (the encoder) needs no stored copy of them.
    ///
    /// `emit` writes every clause into the sink it is handed, and runs
    /// twice. The [`LoadPass::Count`] pass counts the words each
    /// literal's watch list will hold: a clause is watched on its two
    /// smallest distinct literals, which normalization puts first (only
    /// level-0 units met on the way can shift a watch), with one word for
    /// an implicit binary and two for an arena clause. Every watch list
    /// is then reserved at exactly that length, and the
    /// [`LoadPass::Fill`] pass adds the clauses to the solver through
    /// [`CdclSolver::add_clause`].
    /// Both passes must write the same clauses in the same order. The
    /// solver knows at least `num_vars` variables afterwards, mentioned by
    /// a clause or not.
    ///
    /// # Panics
    ///
    /// Panics if a clause mentions a variable beyond both `num_vars` and
    /// the variables the solver already knows.
    pub fn load(&mut self, num_vars: u32, mut emit: impl FnMut(&mut dyn ClauseSink, LoadPass)) {
        self.ensure_vars(num_vars);
        let mut counts = WatchCounts(vec![0; self.watches.len()]);
        emit(&mut counts, LoadPass::Count);
        for (watchers, &words) in self.watches.iter_mut().zip(&counts.0) {
            watchers.reserve_exact(words as usize);
        }
        drop(counts);
        emit(self, LoadPass::Fill);
    }

    /// Takes the binaries `graph` stands for as the graph itself, if this
    /// solver can hold them so, and returns whether it did; if not, the
    /// caller adds them as clauses. Held binaries take no watch-list
    /// words: when x_{u,c} becomes true, propagation visits them from the
    /// graph, then ¬x_{u,c}'s list (see [`ConflictBinaries`]).
    ///
    /// The solver takes them only where that searches exactly as the
    /// attached binaries would: before anything is loaded, so no list
    /// holds a watcher that should come first and no literal is assigned;
    /// without a proof log; and with inprocessing off, since its passes
    /// read and delete problem binaries through the lists. A caller that
    /// has the solver take them at the start of a load must add, before
    /// the point where it would have written them, no unit clause and no
    /// clause with a literal ¬x_{u,c} (such as direct's at-most-one
    /// binaries): those would have come first.
    ///
    /// Held binaries count as problem clauses, as attached ones do, in
    /// the learnt-clause limit and the clause count a solve reports.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is not a graph on its layout's vertices, or its
    /// variables pass [`Var::LIMIT`] (see [`ConflictBinaries`]).
    pub fn add_conflict_binaries(&mut self, graph: ConflictBinaries<'_>) -> bool {
        let fresh = self.ok
            && self.trail.is_empty()
            && self.allocated_clauses == 0
            && self.virtual_binaries.is_empty();
        if !fresh || self.proof.is_some() || self.config.inprocess.enabled {
            return false;
        }
        self.virtual_binaries = VirtualBinaries::new(&graph);
        self.ensure_vars(graph.vertices * graph.colors);
        let binaries = graph.num_binaries();
        self.allocated_clauses += binaries;
        self.original_clauses += binaries;
        true
    }

    /// Adds every clause of `formula`: [`CdclSolver::load`] over its
    /// clauses.
    pub fn add_formula(&mut self, formula: &CnfFormula) {
        self.load(formula.num_vars(), |sink, _| {
            for lits in formula {
                sink.add_clause(lits);
            }
        });
    }

    /// Adds a single clause.
    ///
    /// Duplicate literals are removed and tautological clauses are dropped.
    /// An empty (or immediately falsified) clause marks the solver
    /// unsatisfiable. A clause that is already normalized — strictly
    /// increasing variables, each known to the solver, unassigned and not
    /// eliminated — is attached straight from `lits`, which leaves the
    /// same state as normalizing it; any other goes through the
    /// normalization buffer first. The encoder writes nearly every clause
    /// already normalized, so loading its output skips the copy, sort and
    /// scans of `normalize`.
    ///
    /// # Panics
    ///
    /// Panics if called after `solve` left decisions on the trail (the
    /// solver always backtracks fully, so this cannot happen through the
    /// public API), or if the clause mentions a variable removed by
    /// bounded variable elimination.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        assert!(
            self.trail_lim.is_empty(),
            "clauses must be added at decision level 0"
        );
        if !self.ok {
            return;
        }
        if self.is_normalized(lits) {
            self.add_normalized(lits, false);
        } else {
            let max_var = lits.iter().map(|l| l.var().index() + 1).max().unwrap_or(0);
            self.ensure_vars(max_var);
            assert!(
                !lits
                    .iter()
                    .any(|l| self.eliminated[l.var().index() as usize]),
                "clause mentions a variable removed by bounded variable \
                 elimination; freeze variables that later clauses will mention"
            );
            let mut normalized = std::mem::take(&mut self.norm_buf);
            if self.normalize(lits, &mut normalized) {
                self.add_normalized(&normalized, false);
            }
            self.norm_buf = normalized;
        }
        if !self.ok {
            if let Some(proof) = &mut self.proof {
                proof.push_add(Vec::new());
            }
        }
    }

    /// Whether `normalize` would return `lits` unchanged: its variables
    /// strictly increase (so its literal codes do, and no variable
    /// repeats), and each is known, unassigned and not eliminated.
    fn is_normalized(&self, lits: &[Lit]) -> bool {
        lits.windows(2).all(|pair| pair[0].var() < pair[1].var())
            && lits.iter().all(|&lit| {
                let var = lit.var().index() as usize;
                var < self.level.len() && self.lit_value(lit) == UNDEF && !self.eliminated[var]
            })
    }

    /// The level-0 clause normalizer: writes `lits` into `out` sorted and
    /// duplicate-free, with literals falsified at level 0 dropped. Returns
    /// `false` when the clause is tautological or already satisfied at
    /// level 0, and so adds nothing.
    fn normalize(&self, lits: &[Lit], out: &mut Vec<Lit>) -> bool {
        out.clear();
        out.extend_from_slice(lits);
        out.sort_unstable();
        out.dedup();
        let mut kept = 0;
        for i in 0..out.len() {
            let lit = out[i];
            if i + 1 < out.len() && out[i + 1] == !lit {
                return false; // tautology
            }
            match self.lit_value(lit) {
                TRUE => return false, // already satisfied at level 0
                FALSE => {}           // drop falsified literal
                _ => {
                    out[kept] = lit;
                    kept += 1;
                }
            }
        }
        out.truncate(kept);
        true
    }

    /// Adds a normalized clause at level 0: the empty clause refutes the
    /// formula, a unit is enqueued and propagated, a problem binary
    /// becomes two implicit watchers, and anything else is attached in
    /// the arena. A learnt clause (an import) is classified by its length,
    /// a sound upper bound on its LBD, and bumped.
    fn add_normalized(&mut self, lits: &[Lit], learnt: bool) {
        match lits.len() {
            0 => self.ok = false,
            1 => {
                self.enqueue(lits[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            2 if !learnt => self.attach_binary(lits[0], lits[1]),
            len if learnt => {
                let cref = self.attach_clause(lits, true, len as u32);
                self.bump_clause(cref);
            }
            _ => {
                self.attach_clause(lits, false, 0);
            }
        }
    }

    /// Solves the loaded formula.
    ///
    /// Returns [`SolveOutcome::Sat`] with a total model over the solver's
    /// variables, [`SolveOutcome::Unsat`], or [`SolveOutcome::Unknown`] if
    /// the conflict budget ran out or cancellation was requested.
    pub fn solve(&mut self) -> SolveOutcome {
        self.solve_with_assumptions(&[])
    }

    /// Solves the loaded formula under `assumptions` — literals forced true
    /// for this call only (MiniSat-style incremental interface).
    ///
    /// On [`SolveOutcome::Unsat`], [`CdclSolver::unsat_under_assumptions`]
    /// distinguishes "the formula plus assumptions is contradictory" (the
    /// solver remains usable, e.g. for the incremental channel-width
    /// search) from a refutation of the formula itself. Learnt clauses are
    /// retained across calls, which is the point of the interface.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveOutcome {
        let start = Instant::now();
        self.solve_start = Some(start);
        self.deadline = self.budget.deadline(start);
        self.report(Boundary::Start {
            num_vars: self.num_vars(),
            num_clauses: self.original_clauses,
        });
        let outcome = self.solve_inner(assumptions);
        self.report(Boundary::Finish {
            verdict: outcome.verdict(),
        });
        outcome
    }

    fn solve_inner(&mut self, assumptions: &[Lit]) -> SolveOutcome {
        self.unsat_under_assumptions = false;
        self.failed_assumptions.clear();
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        // A budget that is already exhausted (shared deadline in the past,
        // pre-cancelled token) stops the solve before any search happens.
        if let Some(reason) = self.check_budget_now() {
            return SolveOutcome::Unknown(reason);
        }
        for lit in assumptions {
            self.ensure_vars(lit.var().index() + 1);
            // Assumptions are frozen for the lifetime of the solver:
            // inprocessing must never eliminate a variable a later
            // (possibly different) assumption set could mention again.
            self.frozen[lit.var().index() as usize] = true;
            assert!(
                !self.eliminated[lit.var().index() as usize],
                "assumption over a variable removed by bounded variable \
                 elimination; freeze assumption selectors before solving"
            );
        }
        if self.propagate().is_some() {
            self.ok = false;
            if let Some(proof) = &mut self.proof {
                proof.push_add(Vec::new());
            }
            return SolveOutcome::Unsat;
        }

        // Pick up anything peers shared before this solve began.
        if !self.import_shared_clauses() {
            return SolveOutcome::Unsat;
        }
        // First inprocessing opportunity: the trail is at level 0 and the
        // whole formula (simplifiable symmetry units included) is loaded.
        if !self.maybe_inprocess() {
            return SolveOutcome::Unsat;
        }

        let mut max_learnts = ((self.allocated_clauses as f64) * self.config.learnt_ratio)
            .max(self.config.learnt_floor);
        let mut restart_number: u64 = 1;
        let mut conflicts_until_restart = self.restart_interval(restart_number);

        loop {
            match self.search(assumptions, &mut conflicts_until_restart, &mut max_learnts) {
                SearchResult::Sat => {
                    let model = self.extract_model();
                    self.backtrack(0);
                    return SolveOutcome::Sat(model);
                }
                SearchResult::Unsat => {
                    self.ok = false;
                    if let Some(proof) = &mut self.proof {
                        proof.push_add(Vec::new());
                    }
                    return SolveOutcome::Unsat;
                }
                SearchResult::UnsatUnderAssumptions => {
                    self.backtrack(0);
                    self.unsat_under_assumptions = true;
                    return SolveOutcome::Unsat;
                }
                SearchResult::Restart => {
                    self.backtrack(0);
                    self.stats.restarts += 1;
                    self.report(Boundary::Restart);
                    // Restart boundaries are the import points: the trail
                    // is at level 0, so peer clauses can be watched on
                    // unassigned literals.
                    if !self.import_shared_clauses() {
                        return SolveOutcome::Unsat;
                    }
                    // Restart boundaries are also the inprocessing
                    // points; the conflict-budget schedule inside
                    // decides whether this one actually runs a round.
                    if !self.maybe_inprocess() {
                        return SolveOutcome::Unsat;
                    }
                    restart_number += 1;
                    conflicts_until_restart = self.restart_interval(restart_number);
                }
                SearchResult::Interrupted(reason) => {
                    self.backtrack(0);
                    return SolveOutcome::Unknown(reason);
                }
            }
        }
    }

    /// Runs search until SAT, UNSAT, restart or interruption.
    fn search(
        &mut self,
        assumptions: &[Lit],
        conflicts_left: &mut u64,
        max_learnts: &mut f64,
    ) -> SearchResult {
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    return SearchResult::Unsat;
                }
                // `analyze` leaves the learnt clause in `learnt_buf`.
                let backtrack_level = self.analyze(conflict);
                // LBD uses the decision levels at conflict time, so it must
                // be computed before backtracking.
                let lbd = self.learnt_buf_lbd();
                self.stats.sum_lbd += u64::from(lbd);
                self.lbd_ema = if self.stats.learnt_clauses == 0 {
                    f64::from(lbd)
                } else {
                    0.95 * self.lbd_ema + 0.05 * f64::from(lbd)
                };
                // Offer glue clauses to sharing peers before the clause is
                // consumed by `record_learnt`.
                let exported = match &self.exchange.0 {
                    Some(exchange)
                        if lbd <= EXPORT_MAX_LBD && self.learnt_buf.len() <= EXPORT_MAX_LEN =>
                    {
                        exchange.export(&self.learnt_buf);
                        true
                    }
                    _ => false,
                };
                if exported {
                    self.stats.exported_clauses += 1;
                }
                self.backtrack(backtrack_level);
                self.record_learnt(lbd);
                self.decay_activities();
                if let Some(every) = self.config.debug_force_gc {
                    if every > 0 && self.stats.conflicts.is_multiple_of(every) {
                        self.collect_garbage();
                    }
                }
                self.report(Boundary::Conflict { lbd });

                if *conflicts_left == 0 {
                    return SearchResult::Restart;
                }
                *conflicts_left -= 1;

                if let Some(reason) = self.check_budget_at_conflict() {
                    return SearchResult::Interrupted(reason);
                }
            } else {
                // Establish pending assumptions, one decision level each.
                let mut assumption_enqueued = false;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        TRUE => {
                            // Already satisfied: open a dummy level so the
                            // position in `assumptions` keeps advancing.
                            self.trail_lim.push(self.trail.len());
                        }
                        FALSE => {
                            self.analyze_final(p);
                            return SearchResult::UnsatUnderAssumptions;
                        }
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, NO_REASON);
                            assumption_enqueued = true;
                            break;
                        }
                    }
                }
                if assumption_enqueued {
                    continue; // propagate the assumption before deciding
                }

                if self.learnts.len() as f64 >= *max_learnts + self.num_assigned() as f64 {
                    self.reduce_db();
                    *max_learnts *= self.config.learnt_growth;
                }
                match self.pick_branch_var() {
                    None => return SearchResult::Sat,
                    Some(var) => {
                        self.stats.decisions += 1;
                        // Long conflict-free stretches (easy SAT regions)
                        // would otherwise never poll the deadline or token.
                        let stop = if self.stats.decisions.is_multiple_of(DECISION_POLL_INTERVAL) {
                            self.check_budget_now()
                        } else {
                            None
                        };
                        if let Some(reason) = stop {
                            // Give the popped variable back to the branching
                            // heap; it was never assigned, so backtracking
                            // would not restore it.
                            if !self.order.contains(var.index()) {
                                self.order.insert(var.index(), &self.activity);
                            }
                            return SearchResult::Interrupted(reason);
                        }
                        let lit = Lit::new(var, self.phase[usize::from(var)]);
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(lit, NO_REASON);
                    }
                }
            }
        }
    }

    /// Budget checks run at every conflict. The conflict cap is exact;
    /// the deadline and the cancellation token are polled on a stride so
    /// `Instant::now` and the atomic load stay off the hot path.
    fn check_budget_at_conflict(&self) -> Option<StopReason> {
        let conflicts = self.stats.conflicts;
        if let Some(max) = self.budget.max_conflicts {
            if conflicts >= max {
                return Some(StopReason::ConflictLimit);
            }
        }
        if conflicts.is_multiple_of(CANCEL_POLL_INTERVAL) {
            if let Some(cancel) = &self.cancel {
                if cancel.is_cancelled() {
                    return Some(StopReason::Cancelled);
                }
            }
        }
        if conflicts.is_multiple_of(DEADLINE_POLL_INTERVAL) {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Some(StopReason::Deadline);
                }
            }
        }
        None
    }

    /// Unconditional cancellation + deadline check (solve entry, decision
    /// poll points).
    fn check_budget_now(&self) -> Option<StopReason> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopReason::Deadline);
            }
        }
        None
    }

    /// Conflicts allotted before restart number `n` (1-based), per the
    /// configured [`RestartScheme`].
    fn restart_interval(&self, n: u64) -> u64 {
        match self.config.restart_scheme {
            RestartScheme::Luby => luby(n).saturating_mul(self.config.restart_base),
            RestartScheme::Geometric(factor) => {
                let base = self.config.restart_base.max(1) as f64;
                let interval = base * factor.max(1.0).powi((n - 1).min(1024) as i32);
                if interval >= u64::MAX as f64 {
                    u64::MAX
                } else {
                    interval as u64
                }
            }
        }
    }

    /// Drains the clause exchange and adds each delivered clause as a
    /// learnt clause, through the same level-0 normalizer as
    /// [`CdclSolver::add_clause`]. Must be called at decision level 0.
    /// Returns `false` if an imported clause produced a top-level conflict
    /// — since imported clauses are entailed by this solver's formula (the
    /// [`ClauseExchange`] contract), that refutes the formula itself.
    fn import_shared_clauses(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let Some(exchange) = self.exchange.0.clone() else {
            return true;
        };
        // A peer's learnt clause need not be step-RUP over *this* solver's
        // clause database, so importing while proof logging would record an
        // uncheckable step; keep proofs self-contained instead.
        if self.proof.is_some() {
            return true;
        }
        let batch = exchange.drain();
        if batch.is_empty() {
            return self.ok;
        }
        let mut accepted = 0usize;
        let mut normalized = std::mem::take(&mut self.norm_buf);
        for lits in batch {
            if !self.ok {
                break;
            }
            let max_var = lits.iter().map(|l| l.var().index() + 1).max().unwrap_or(0);
            self.ensure_vars(max_var);

            // Peers do not know about this solver's bounded variable
            // elimination; attaching a clause over a locally eliminated
            // variable would resurrect it, so such deliveries are
            // dropped at the import boundary.
            if lits.iter().any(|l| self.eliminated[usize::from(l.var())]) {
                continue;
            }
            // Satisfied and tautological deliveries are skipped.
            if !self.normalize(&lits, &mut normalized) {
                continue;
            }
            accepted += 1;
            self.stats.imported_clauses += 1;
            self.add_normalized(&normalized, true);
        }
        self.norm_buf = normalized;
        if accepted > 0 {
            self.stats.import_batches += 1;
            self.report(Boundary::Import);
        }
        self.ok
    }

    /// Literal block distance of the clause in `learnt_buf`: the number of
    /// distinct decision levels among its literals (valid only before
    /// backtracking past them). Allocation-free: distinct levels are
    /// counted with a per-level generation stamp instead of sort + dedup.
    fn learnt_buf_lbd(&mut self) -> u32 {
        if self.lbd_gen == u32::MAX {
            // One wrap in 2^32 conflicts: restart the stamp epoch.
            self.lbd_stamp.fill(0);
            self.lbd_gen = 0;
        }
        self.lbd_gen += 1;
        let gen = self.lbd_gen;
        let mut distinct = 0u32;
        for &l in &self.learnt_buf {
            let lev = self.level[usize::from(l.var())] as usize;
            if self.lbd_stamp[lev] != gen {
                self.lbd_stamp[lev] = gen;
                distinct += 1;
            }
        }
        distinct
    }

    fn num_assigned(&self) -> usize {
        self.trail.len()
    }

    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    #[inline]
    pub(crate) fn lit_value(&self, lit: Lit) -> u8 {
        self.values[lit.code() as usize]
    }

    /// The value of `var`'s positive literal.
    #[inline]
    pub(crate) fn var_value(&self, var: Var) -> u8 {
        self.lit_value(Lit::positive(var))
    }

    pub(crate) fn enqueue(&mut self, lit: Lit, reason: u32) {
        debug_assert_eq!(self.lit_value(lit), UNDEF);
        self.values[lit.code() as usize] = TRUE;
        self.values[(!lit).code() as usize] = FALSE;
        let var = usize::from(lit.var());
        self.level[var] = self.decision_level();
        self.reason[var] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation. Returns the falsified clause, if any.
    pub(crate) fn propagate(&mut self) -> Option<Antecedent> {
        // Held in a register: every literal code below it names a
        // variable of the held graph's layout (none without a graph).
        let graph_codes = self.virtual_binaries.lit_codes();
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            // Binaries held as a graph come before the list.
            if p.code() < graph_codes && p.is_positive() {
                if let conflict @ Some(_) = self.propagate_graph(p) {
                    self.qhead = self.trail.len();
                    return conflict;
                }
            }
            // Hoisted out of the watcher loop: the falsified literal and
            // the index of its watcher list are fixed for the whole scan.
            let false_lit = !p;
            let watch_idx = false_lit.code() as usize;
            let mut watchers = std::mem::take(&mut self.watches[watch_idx]);
            let mut conflict: Option<Antecedent> = None;
            let stopped = watchers.scan(|watch| match watch {
                // An implicit binary stays in place: its other literal is
                // satisfied, implied, or falsified too.
                Watch::Binary(other) => match self.lit_value(other) {
                    TRUE => Visit::Keep(watch),
                    FALSE => {
                        conflict = Some(Antecedent::Binary([other, false_lit]));
                        Visit::Stop(watch)
                    }
                    _ => {
                        self.enqueue(other, BINARY | false_lit.code());
                        Visit::Keep(watch)
                    }
                },
                Watch::Clause(cref, blocker) => {
                    self.visit_clause(cref, blocker, false_lit, &mut conflict)
                }
            });
            self.watches[watch_idx] = watchers;
            if stopped {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// Visits the binaries the held graph stands for on `p`, some
    /// x_{u,c} that just became true, as implicit binary watchers of ¬p
    /// are visited: a satisfied other literal is passed, an unassigned
    /// one is implied with the binary reason, and a falsified one is the
    /// conflict. Kept out of line: it walks a whole row, and inlined it
    /// would grow the propagation loop every encoding runs.
    #[inline(never)]
    fn propagate_graph(&mut self, p: Lit) -> Option<Antecedent> {
        let graph = std::mem::take(&mut self.virtual_binaries);
        let (vertex, color) = graph.vertex_color(p);
        let false_lit = !p;
        let mut conflict = None;
        for &v in graph.row(vertex) {
            let other = graph.not_x(v, color);
            match self.lit_value(other) {
                TRUE => {}
                FALSE => {
                    conflict = Some(Antecedent::Binary([other, false_lit]));
                    break;
                }
                _ => self.enqueue(other, BINARY | false_lit.code()),
            }
        }
        self.virtual_binaries = graph;
        conflict
    }

    /// One arena-clause watcher of the falsified literal `false_lit`:
    /// kept while its clause is satisfied, moved to a new non-false
    /// literal when there is one, and otherwise kept with its clause unit
    /// (the first literal is enqueued) or conflicting (stored in
    /// `conflict`, and the scan stops).
    #[inline]
    fn visit_clause(
        &mut self,
        cref: ClauseRef,
        blocker: Lit,
        false_lit: Lit,
        conflict: &mut Option<Antecedent>,
    ) -> Visit {
        // Fast path: blocker already satisfied.
        if self.lit_value(blocker) == TRUE {
            return Visit::Keep(Watch::Clause(cref, blocker));
        }
        if self.arena.is_deleted(cref) {
            return Visit::Drop; // lazily drop watcher of deleted clause
        }

        // Ensure the falsified literal is in slot 1.
        if self.arena.lit(cref, 0) == false_lit {
            self.arena.swap_lits(cref, 0, 1);
        }
        debug_assert_eq!(self.arena.lit(cref, 1), false_lit);
        let first = self.arena.lit(cref, 0);
        let kept = Watch::Clause(cref, first);
        if first != blocker && self.lit_value(first) == TRUE {
            return Visit::Keep(kept);
        }

        // Look for a new literal to watch.
        for k in 2..self.arena.len(cref) {
            let lk = self.arena.lit(cref, k);
            if self.lit_value(lk) != FALSE {
                self.arena.swap_lits(cref, 1, k);
                self.watches[lk.code() as usize].push_clause(cref, first);
                return Visit::Drop;
            }
        }

        // No new watch: the clause is unit or conflicting.
        if self.lit_value(first) == FALSE {
            *conflict = Some(Antecedent::Clause(cref));
            return Visit::Stop(kept);
        }
        self.enqueue(first, cref);
        Visit::Keep(kept)
    }

    /// First-UIP conflict analysis with recursive minimization.
    ///
    /// Leaves the learnt clause in `learnt_buf` (asserting literal first,
    /// the literal of the backtrack level second) and returns the level to
    /// backtrack to.
    fn analyze(&mut self, conflict: Antecedent) -> u32 {
        self.learnt_buf.clear();
        self.learnt_buf.push(Lit::from_code(0)); // slot for UIP
        let mut path_count: u32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = conflict;
        let current_level = self.decision_level();

        loop {
            // A reason's slot 0 is the literal it implied; a conflict is
            // read whole.
            let start = usize::from(p.is_some());
            match confl {
                Antecedent::Clause(cref) => {
                    self.bump_clause(cref);
                    for k in start..self.arena.len(cref) {
                        let q = self.arena.lit(cref, k);
                        self.analyze_lit(q, current_level, &mut path_count);
                    }
                }
                Antecedent::Binary(lits) => {
                    for &q in &lits[start..] {
                        self.analyze_lit(q, current_level, &mut path_count);
                    }
                }
            }

            // Walk back to the next marked trail literal.
            loop {
                index -= 1;
                if self.seen[usize::from(self.trail[index].var())] {
                    break;
                }
            }
            let lit = self.trail[index];
            let var = usize::from(lit.var());
            self.seen[var] = false;
            path_count -= 1;
            if path_count == 0 {
                self.learnt_buf[0] = !lit;
                break;
            }
            p = Some(lit);
            confl = self.antecedent(lit);
        }

        // `seen` is still set for learnt_buf[1..]; reuse it for
        // minimization.
        self.analyze_clear.extend_from_slice(&self.learnt_buf);
        self.seen[usize::from(self.learnt_buf[0].var())] = true;

        let abstract_levels = self.learnt_buf[1..]
            .iter()
            .fold(0u64, |acc, l| acc | self.abstract_level(l.var()));
        let original_len = self.learnt_buf.len();
        let mut kept = 1;
        for idx in 1..original_len {
            let l = self.learnt_buf[idx];
            if self.reason[usize::from(l.var())] == NO_REASON
                || !self.lit_redundant(l, abstract_levels)
            {
                self.learnt_buf[kept] = l;
                kept += 1;
            }
        }
        self.learnt_buf.truncate(kept);
        self.stats.minimized_literals += (original_len - kept) as u64;

        // Clear the `seen` markers.
        while let Some(l) = self.analyze_clear.pop() {
            self.seen[usize::from(l.var())] = false;
        }

        // Compute backtrack level and move the corresponding literal to
        // slot 1 (second watch).
        if self.learnt_buf.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..self.learnt_buf.len() {
                if self.level[usize::from(self.learnt_buf[i].var())]
                    > self.level[usize::from(self.learnt_buf[max_i].var())]
                {
                    max_i = i;
                }
            }
            self.learnt_buf.swap(1, max_i);
            self.level[usize::from(self.learnt_buf[1].var())]
        }
    }

    /// One antecedent literal `q` of conflict analysis: marks and bumps
    /// its variable the first time it is met above level 0, counting it
    /// as an open path at the conflict level or keeping it for the learnt
    /// clause below it.
    #[inline]
    fn analyze_lit(&mut self, q: Lit, current_level: u32, path_count: &mut u32) {
        let var = usize::from(q.var());
        if !self.seen[var] && self.level[var] > 0 {
            self.seen[var] = true;
            self.bump_var(q.var());
            if self.level[var] >= current_level {
                *path_count += 1;
            } else {
                self.learnt_buf.push(q);
            }
        }
    }

    /// The reason of the trail literal `lit`, which must have one.
    #[inline]
    pub(crate) fn antecedent(&self, lit: Lit) -> Antecedent {
        let reason = self.reason[usize::from(lit.var())];
        debug_assert_ne!(reason, NO_REASON, "non-decision literal must have a reason");
        if reason & BINARY != 0 {
            Antecedent::Binary([lit, Lit::from_code(reason & !BINARY)])
        } else {
            Antecedent::Clause(reason)
        }
    }

    /// MiniSat-style final-conflict analysis: `p` is the pending
    /// assumption found falsified while establishing the assumption
    /// prefix. Walks the trail top-down expanding reason clauses; every
    /// decision reached is an earlier assumption (only assumptions are
    /// decided while the prefix is incomplete), so the collected literals
    /// form a failed-assumption core, stored in the caller's sense.
    fn analyze_final(&mut self, p: Lit) {
        self.failed_assumptions.clear();
        self.failed_assumptions.push(p);
        if self.decision_level() == 0 {
            // Falsified by the formula alone (level-0 propagation): the
            // core is `p` by itself.
            return;
        }
        self.seen[usize::from(p.var())] = true;
        for idx in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let var = usize::from(lit.var());
            if !self.seen[var] {
                continue;
            }
            if self.reason[var] == NO_REASON {
                // A decision inside the assumption prefix: the trail holds
                // the assumption exactly as it was passed in.
                self.failed_assumptions.push(lit);
            } else {
                // Slot 0 is the propagated literal itself; expand the rest.
                match self.antecedent(lit) {
                    Antecedent::Clause(reason) => {
                        for k in 1..self.arena.len(reason) {
                            let q = self.arena.lit(reason, k);
                            self.mark_above_root(q);
                        }
                    }
                    Antecedent::Binary([_, q]) => self.mark_above_root(q),
                }
            }
            self.seen[var] = false;
        }
        self.seen[usize::from(p.var())] = false;
    }

    fn mark_above_root(&mut self, q: Lit) {
        if self.level[usize::from(q.var())] > 0 {
            self.seen[usize::from(q.var())] = true;
        }
    }

    fn abstract_level(&self, var: Var) -> u64 {
        1u64 << (self.level[usize::from(var)] & 63)
    }

    /// Checks whether `lit` is implied by the remaining learnt literals
    /// (i.e. removable from the learnt clause), by exploring its reason
    /// clauses depth-first.
    fn lit_redundant(&mut self, lit: Lit, abstract_levels: u64) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(lit);
        let clear_start = self.analyze_clear.len();

        while let Some(l) = self.analyze_stack.pop() {
            // `l` is false; its variable's reason implied `!l`.
            let removable = match self.antecedent(!l) {
                Antecedent::Clause(reason) => (1..self.arena.len(reason)).all(|k| {
                    let q = self.arena.lit(reason, k);
                    self.redundant_step(q, abstract_levels)
                }),
                Antecedent::Binary([_, q]) => self.redundant_step(q, abstract_levels),
            };
            if !removable {
                // Not removable: undo the markers added in this call.
                for cleared in self.analyze_clear.drain(clear_start..) {
                    self.seen[usize::from(cleared.var())] = false;
                }
                return false;
            }
        }
        true
    }

    /// One reason literal `q` met by `lit_redundant`: skipped if already
    /// seen or at level 0, queued if its own reason may still imply it,
    /// and `false` if it is a decision or sits on a level no learnt
    /// literal has.
    #[inline]
    fn redundant_step(&mut self, q: Lit, abstract_levels: u64) -> bool {
        let var = usize::from(q.var());
        if self.seen[var] || self.level[var] == 0 {
            return true;
        }
        if self.reason[var] == NO_REASON || (self.abstract_level(q.var()) & abstract_levels) == 0 {
            return false;
        }
        self.seen[var] = true;
        self.analyze_stack.push(q);
        self.analyze_clear.push(q);
        true
    }

    /// Installs the clause left in `learnt_buf` by `analyze`.
    fn record_learnt(&mut self, lbd: u32) {
        self.stats.learnt_clauses += 1;
        if let Some(proof) = &mut self.proof {
            proof.push_add_from(self.learnt_buf.iter().copied());
        }
        match self.learnt_buf.len() {
            0 => unreachable!("learnt clauses are never empty"),
            1 => {
                let unit = self.learnt_buf[0];
                self.enqueue(unit, NO_REASON);
            }
            _ => {
                let asserting = self.learnt_buf[0];
                // Take the buffer so `attach_clause` can borrow the rest of
                // the solver; hand it back for the next conflict.
                let buf = std::mem::take(&mut self.learnt_buf);
                let cref = self.attach_clause(&buf, true, lbd);
                self.learnt_buf = buf;
                self.bump_clause(cref);
                self.enqueue(asserting, cref);
            }
        }
    }

    /// Copies `lits` into the arena, hooks up both watchers, and (for
    /// learnt clauses) records `lbd` and the [`Tier`] it implies.
    pub(crate) fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt);
        self.allocated_clauses += 1;
        self.watches[lits[0].code() as usize].push_clause(cref, lits[1]);
        self.watches[lits[1].code() as usize].push_clause(cref, lits[0]);
        if learnt {
            let tier = Tier::for_lbd(lbd);
            self.arena.set_lbd(cref, lbd);
            self.arena.set_tier(cref, tier);
            self.tier_counts[tier as usize] += 1;
            self.learnts.push(cref);
        } else {
            self.original_clauses += 1;
        }
        cref
    }

    /// Attaches the problem binary `a ∨ b` as two implicit watchers,
    /// pushed in the order `attach_clause` pushes an arena clause's.
    pub(crate) fn attach_binary(&mut self, a: Lit, b: Lit) {
        self.watches[a.code() as usize].push_binary(b);
        self.watches[b.code() as usize].push_binary(a);
        self.allocated_clauses += 1;
        self.original_clauses += 1;
    }

    pub(crate) fn backtrack(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let trail_start = self.trail_lim[target_level as usize];
        for idx in (trail_start..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let var = usize::from(lit.var());
            self.phase[var] = lit.is_positive();
            self.values[lit.code() as usize] = UNDEF;
            self.values[(!lit).code() as usize] = UNDEF;
            self.reason[var] = NO_REASON;
            if !self.order.contains(lit.var().index()) {
                self.order.insert(lit.var().index(), &self.activity);
            }
        }
        self.trail.truncate(trail_start);
        self.trail_lim.truncate(target_level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.var_value(Var::new(v)) == UNDEF && !self.eliminated[v as usize] {
                return Some(Var::new(v));
            }
        }
        None
    }

    fn bump_var(&mut self, var: Var) {
        let idx = usize::from(var);
        self.activity[idx] += self.var_inc;
        if self.activity[idx] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rescaled();
        }
        self.order
            .decreased_key_of_others_or_increased_own(var.index(), &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.arena.is_learnt(cref) {
            return;
        }
        let bumped = self.arena.activity(cref) + self.cla_inc;
        self.arena.set_activity(cref, bumped);
        if bumped > 1e20 {
            for &l in &self.learnts {
                let rescaled = self.arena.activity(l) * 1e-20;
                self.arena.set_activity(l, rescaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.cla_inc /= self.config.clause_decay;
    }

    pub(crate) fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.arena.lit(cref, 0);
        self.lit_value(first) == TRUE && self.reason[usize::from(first.var())] == cref
    }

    /// Marks one learnt clause deleted: tier accounting, the DRAT
    /// deletion record, and the arena's dead-word bookkeeping. The watcher
    /// lists still reference the clause until the next GC drops them
    /// lazily.
    fn delete_learnt(&mut self, cref: ClauseRef) {
        debug_assert!(self.arena.is_learnt(cref) && !self.arena.is_deleted(cref));
        if let Some(proof) = &mut self.proof {
            proof.push_delete_from(self.arena.lits(cref));
        }
        self.tier_counts[self.arena.tier(cref) as usize] -= 1;
        self.arena.delete(cref);
        self.stats.deleted_clauses += 1;
    }

    /// Promotes a learnt clause to irredundant (original) status.
    ///
    /// Subsumption may only delete an original clause whose subsumer is
    /// permanent; when the subsumer is learnt it is promoted first so a
    /// later learnt-database reduction cannot leave the formula weaker
    /// than the input.
    pub(crate) fn promote_to_original(&mut self, cref: ClauseRef) {
        debug_assert!(self.arena.is_learnt(cref) && !self.arena.is_deleted(cref));
        self.tier_counts[self.arena.tier(cref) as usize] -= 1;
        self.arena.clear_learnt(cref);
        self.learnts.retain(|&c| c != cref);
        self.original_clauses += 1;
    }

    /// Marks any clause — learnt or original — deleted, with the same
    /// proof/accounting duties as [`CdclSolver::delete_learnt`].
    /// Inprocessing uses this for subsumed and resolved-away clauses;
    /// the caller removes stale entries from `learnts` afterwards (one
    /// retain per round, mirroring `reduce_db`).
    pub(crate) fn delete_any_clause(&mut self, cref: ClauseRef) {
        if self.arena.is_learnt(cref) {
            self.delete_learnt(cref);
        } else {
            debug_assert!(!self.arena.is_deleted(cref));
            if let Some(proof) = &mut self.proof {
                proof.push_delete_from(self.arena.lits(cref));
            }
            self.arena.delete(cref);
            self.original_clauses -= 1;
        }
    }

    /// Reduces the learnt-clause database the classic MiniSat way:
    /// removes roughly the less-active half of the learnt clauses,
    /// keeping binary clauses and clauses that are reasons for current
    /// assignments. Then compacts the `learnts` index and runs the arena
    /// GC if enough of the buffer is dead.
    ///
    /// `learnts` holds no deleted references on entry — the only other
    /// deleter, an inprocessing round, ends with the same retain — so no
    /// pre-filtering pass is needed.
    fn reduce_db(&mut self) {
        let mut sorted: Vec<ClauseRef> = self.learnts.clone();
        sorted.sort_by(|&a, &b| {
            self.arena
                .activity(a)
                .partial_cmp(&self.arena.activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let target = sorted.len() / 2;
        let mut removed = 0;
        for &cref in &sorted {
            if removed >= target {
                break;
            }
            if self.arena.len(cref) <= 2 || self.is_locked(cref) {
                continue;
            }
            self.delete_learnt(cref);
            removed += 1;
        }
        self.learnts.retain(|&c| !self.arena.is_deleted(c));
        self.report(Boundary::Reduce {
            learnts: self.learnts.len(),
        });
        if self.arena.wants_gc(self.config.gc_dead_frac) {
            self.collect_garbage();
        }
    }

    /// Compacts the clause arena and remaps every live [`ClauseRef`]:
    /// watcher lists (watchers of dead clauses are dropped, preserving
    /// survivor order, exactly like the lazy drop in `propagate`), the
    /// trail's `reason` slots, and the `learnts` index. Reason clauses are
    /// never deleted (they are locked), so their remap always resolves.
    /// Implicit binaries live outside the arena and keep their watchers
    /// and reasons as they are.
    pub(crate) fn collect_garbage(&mut self) {
        let reclaimed = self.arena.dead_bytes();
        let fwd = self.arena.compact();
        for watchers in &mut self.watches {
            watchers.retain_clauses(|cref| fwd.resolve(cref));
        }
        for &lit in &self.trail {
            let var = usize::from(lit.var());
            let reason = self.reason[var];
            // Decisions and binary reasons both carry the tag bit.
            if reason & BINARY == 0 {
                self.reason[var] = fwd
                    .resolve(reason)
                    .expect("reason clauses are locked and survive GC");
            }
        }
        for cref in &mut self.learnts {
            *cref = fwd
                .resolve(*cref)
                .expect("learnts index holds only live clauses outside reduce_db");
        }
        self.stats.gc_runs += 1;
        self.stats.gc_reclaimed_bytes += reclaimed;
        self.report(Boundary::Gc {
            reclaimed_bytes: reclaimed,
        });
        self.debug_check_refs();
    }

    /// Debug-build invariant check run after every GC: every watcher
    /// references a live clause that still watches the list's literal,
    /// the implicit binary watchers pair up (`a`'s list carries `b`
    /// exactly as often as `b`'s carries `a`), every trail `reason` and
    /// every `learnts` entry resolves to a live clause of the right kind,
    /// and no live clause mentions an eliminated variable. Compiles to
    /// nothing in release builds.
    pub(crate) fn debug_check_refs(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut halves: Vec<(u32, u32)> = Vec::new();
        let mut twins: Vec<(u32, u32)> = Vec::new();
        for (code, watchers) in self.watches.iter().enumerate() {
            let watched = Lit::from_code(code as u32);
            for watch in watchers.iter() {
                let cref = match watch {
                    Watch::Binary(other) => {
                        halves.push((watched.code(), other.code()));
                        twins.push((other.code(), watched.code()));
                        continue;
                    }
                    Watch::Clause(cref, _) => cref,
                };
                assert!(
                    !self.arena.is_deleted(cref),
                    "watcher references a deleted clause after GC"
                );
                assert!(
                    self.arena.lit(cref, 0) == watched || self.arena.lit(cref, 1) == watched,
                    "watched literal must sit in one of the first two slots"
                );
            }
        }
        halves.sort_unstable();
        twins.sort_unstable();
        assert!(halves == twins, "implicit binary watchers must pair up");
        for &lit in &self.trail {
            let reason = self.reason[usize::from(lit.var())];
            if reason == NO_REASON {
                continue;
            }
            match self.antecedent(lit) {
                Antecedent::Clause(cref) => assert!(
                    !self.arena.is_deleted(cref),
                    "trail reason references a deleted clause after GC"
                ),
                Antecedent::Binary([_, other]) => assert!(
                    self.lit_value(other) == FALSE,
                    "a binary reason's other literal must be false"
                ),
            }
        }
        for &cref in &self.learnts {
            assert!(
                self.arena.is_learnt(cref) && !self.arena.is_deleted(cref),
                "learnts index must hold live learnt clauses after GC"
            );
        }
        if self.stats.eliminated_vars > 0 {
            let eliminated = |l: Lit| self.eliminated[usize::from(l.var())];
            for cref in self.arena.refs() {
                assert!(
                    !self.arena.lits(cref).any(eliminated),
                    "live clause mentions an eliminated variable"
                );
            }
            for &(a, b) in &halves {
                assert!(
                    !eliminated(Lit::from_code(a)) && !eliminated(Lit::from_code(b)),
                    "live binary mentions an eliminated variable"
                );
            }
        }
    }

    fn extract_model(&self) -> Assignment {
        let mut model = Assignment::new(self.num_vars());
        for var in (0..self.num_vars()).map(Var::new) {
            // Any variable never touched by a clause gets an arbitrary but
            // defined value so callers receive a total model.
            model.assign(var, self.var_value(var) == TRUE);
        }
        // Eén–Biere reconstruction for eliminated variables, most recent
        // elimination first: a variable defaults to false and flips to
        // true exactly when one of its stored positive-occurrence
        // clauses is otherwise unsatisfied; the negative side is then
        // satisfied by construction of the resolvents.
        for (var, pos_clauses) in self.elim_stack.iter().rev() {
            let needs_true = pos_clauses.iter().any(|clause| {
                !clause
                    .iter()
                    .any(|&l| l.var() != *var && model.satisfies(l))
            });
            model.assign(*var, needs_true);
        }
        model
    }
}

enum SearchResult {
    Sat,
    Unsat,
    UnsatUnderAssumptions,
    Restart,
    Interrupted(StopReason),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    fn solve_clauses(clauses: &[Vec<i64>]) -> SolveOutcome {
        let mut f = CnfFormula::new();
        for c in clauses {
            f.add_clause(c.iter().map(|&d| Lit::from_dimacs(d)));
        }
        let mut s = CdclSolver::new();
        s.add_formula(&f);
        let out = s.solve();
        if let SolveOutcome::Sat(m) = &out {
            assert!(f.is_satisfied_by(m), "returned model must satisfy formula");
        }
        out
    }

    #[test]
    fn empty_formula_is_sat() {
        assert!(solve_clauses(&[]).is_sat());
    }

    #[test]
    fn single_unit_is_sat() {
        let out = solve_clauses(&[vec![1]]);
        assert_eq!(out.model().unwrap().value(Var::new(0)), Some(true));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        assert!(solve_clauses(&[vec![1], vec![-1]]).is_unsat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        assert!(solve_clauses(&[vec![]]).is_unsat());
    }

    #[test]
    fn simple_implication_chain() {
        // a, a->b, b->c, and require c.
        let out = solve_clauses(&[vec![1], vec![-1, 2], vec![-2, 3], vec![3]]);
        let m = out.model().unwrap();
        assert_eq!(m.value(Var::new(2)), Some(true));
    }

    #[test]
    fn all_eight_combinations_blocked_is_unsat() {
        // Block every assignment of 3 variables.
        let mut clauses = Vec::new();
        for mask in 0..8i64 {
            let c: Vec<i64> = (0..3)
                .map(|b| {
                    let v = b as i64 + 1;
                    if mask & (1 << b) != 0 {
                        -v
                    } else {
                        v
                    }
                })
                .collect();
            clauses.push(c);
        }
        assert!(solve_clauses(&clauses).is_unsat());
    }

    #[test]
    fn seven_of_eight_blocked_is_sat() {
        let mut clauses = Vec::new();
        for mask in 0..7i64 {
            let c: Vec<i64> = (0..3)
                .map(|b| {
                    let v = b as i64 + 1;
                    if mask & (1 << b) != 0 {
                        -v
                    } else {
                        v
                    }
                })
                .collect();
            clauses.push(c);
        }
        let out = solve_clauses(&clauses);
        let m = out.model().unwrap();
        // The only surviving assignment is all-true (mask 7).
        assert_eq!(m.value(Var::new(0)), Some(true));
        assert_eq!(m.value(Var::new(1)), Some(true));
        assert_eq!(m.value(Var::new(2)), Some(true));
    }

    #[test]
    fn tautologies_are_ignored() {
        let out = solve_clauses(&[vec![1, -1], vec![2]]);
        assert!(out.is_sat());
    }

    #[test]
    fn duplicate_literals_are_deduped() {
        let out = solve_clauses(&[vec![1, 1, 1]]);
        assert_eq!(out.model().unwrap().value(Var::new(0)), Some(true));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_{i,j}: pigeon i in hole j. Vars: 1..=6, p(i,j) = 2*i + j + 1.
        let p = |i: i64, j: i64| 2 * i + j + 1;
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        for i in 0..3 {
            clauses.push(vec![p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    clauses.push(vec![-p(a, j), -p(b, j)]);
                }
            }
        }
        assert!(solve_clauses(&clauses).is_unsat());
    }

    #[test]
    #[cfg_attr(miri, ignore = "minutes under the interpreter")]
    fn pigeonhole_5_into_4_is_unsat_and_counts_conflicts() {
        let n = 5i64;
        let h = 4i64;
        let p = |i: i64, j: i64| h * i + j + 1;
        let mut f = CnfFormula::new();
        for i in 0..n {
            f.add_clause((0..h).map(|j| Lit::from_dimacs(p(i, j))));
        }
        for j in 0..h {
            for a in 0..n {
                for b in (a + 1)..n {
                    f.add_clause([Lit::from_dimacs(-p(a, j)), Lit::from_dimacs(-p(b, j))]);
                }
            }
        }
        let mut s = CdclSolver::new();
        s.add_formula(&f);
        assert!(s.solve().is_unsat());
        assert!(s.stats().conflicts > 0);
        assert!(s.stats().learnt_clauses > 0);
    }

    /// Builds a pigeonhole formula (n pigeons into h holes).
    fn pigeonhole(n: i64, h: i64) -> CnfFormula {
        let p = |i: i64, j: i64| h * i + j + 1;
        let mut f = CnfFormula::new();
        for i in 0..n {
            f.add_clause((0..h).map(|j| Lit::from_dimacs(p(i, j))));
        }
        for j in 0..h {
            for a in 0..n {
                for b in (a + 1)..n {
                    f.add_clause([Lit::from_dimacs(-p(a, j)), Lit::from_dimacs(-p(b, j))]);
                }
            }
        }
        f
    }

    #[test]
    fn cancellation_token_yields_unknown() {
        let mut s = CdclSolver::new();
        let token = CancellationToken::new();
        token.cancel();
        s.set_cancellation(token);
        s.add_formula(&pigeonhole(9, 8));
        assert_eq!(s.solve(), SolveOutcome::Unknown(StopReason::Cancelled));
    }

    #[test]
    fn budget_conflict_cap_yields_unknown() {
        let mut s = CdclSolver::new();
        s.set_budget(RunBudget::new().with_max_conflicts(10));
        s.add_formula(&pigeonhole(8, 7));
        assert_eq!(s.solve(), SolveOutcome::Unknown(StopReason::ConflictLimit));
        assert!(s.stats().conflicts <= 11, "bounded overshoot");
    }

    #[test]
    fn elapsed_deadline_yields_unknown_before_search() {
        use std::time::Duration;
        let mut s = CdclSolver::new();
        s.set_budget(RunBudget::new().with_wall(Duration::ZERO));
        s.add_formula(&pigeonhole(8, 7));
        assert_eq!(s.solve(), SolveOutcome::Unknown(StopReason::Deadline));
        assert_eq!(s.stats().conflicts, 0);
    }

    #[test]
    fn budget_interrupted_solver_remains_usable() {
        // Stop a solve early, lift the budget, and check the solver still
        // reaches the right verdict (no solver state was corrupted).
        let mut s = CdclSolver::new();
        s.set_budget(RunBudget::new().with_max_conflicts(1));
        s.add_formula(&pigeonhole(5, 4));
        assert_eq!(s.solve(), SolveOutcome::Unknown(StopReason::ConflictLimit));
        s.set_budget(RunBudget::new());
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn observer_sees_started_finished_and_metrics() {
        use crate::run::RunContext;
        use satroute_obs::{BufferSink, SpanForest, Tracer};

        let buffer = BufferSink::new();
        let registry = satroute_obs::MetricsRegistry::new();
        let ctx = RunContext {
            tracer: Tracer::to_sink(buffer.clone()),
            metrics: registry.clone(),
            ..RunContext::default()
        };
        let span = ctx.tracer.span("solve");
        let mut s = ctx.solver(span.id());
        s.add_formula(&pigeonhole(5, 4));
        assert!(s.solve().is_unsat());
        drop(span);
        let forest = SpanForest::from_events(&buffer.events()).unwrap();
        let solve = forest.spans_named("solve")[0];
        // The start counters and the final outcome reached the span.
        assert_eq!(solve.counters["num_vars"], u64::from(s.num_vars()));
        assert_eq!(solve.marks["outcome"], "unsat");
        let stats = s.stats();
        assert_eq!(solve.counters["conflicts"], stats.conflicts);
        assert!(stats.conflicts > 0);
        assert!(stats.sum_lbd > 0, "learnt clauses must carry LBD");
        assert!(
            s.postmortem().is_none(),
            "a decided solve has no postmortem"
        );
        // The registry saw the same work, one LBD per learnt clause.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("solver.conflicts"), Some(stats.conflicts));
        assert_eq!(
            snap.histogram("solver.lbd").map(|h| h.count()),
            Some(stats.learnt_clauses)
        );
    }

    #[test]
    fn solver_is_reusable_after_sat() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause([Lit::positive(a), Lit::positive(b)]);
        let mut s = CdclSolver::new();
        s.add_formula(&f);
        assert!(s.solve().is_sat());
        // Add a constraint and re-solve (incremental use).
        s.add_clause(&[Lit::negative(a)]);
        s.add_clause(&[Lit::negative(b)]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn assumptions_restrict_without_refuting() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause([Lit::positive(a), Lit::positive(b)]);
        let mut s = CdclSolver::new();
        s.add_formula(&f);

        // Assume ¬a: forces b.
        let out = s.solve_with_assumptions(&[Lit::negative(a)]);
        let m = out.model().expect("satisfiable under ¬a");
        assert_eq!(m.value(a), Some(false));
        assert_eq!(m.value(b), Some(true));

        // Assume ¬a ∧ ¬b: contradiction under assumptions only.
        let out = s.solve_with_assumptions(&[Lit::negative(a), Lit::negative(b)]);
        assert_eq!(out, SolveOutcome::Unsat);
        assert!(s.unsat_under_assumptions());

        // The solver is still usable and the formula still satisfiable.
        assert!(s.solve().is_sat());
        assert!(!s.unsat_under_assumptions());
    }

    #[test]
    fn contradictory_assumption_pair_is_unsat_under_assumptions() {
        let mut s = CdclSolver::new();
        s.ensure_vars(1);
        let v = Var::new(0);
        let out = s.solve_with_assumptions(&[Lit::positive(v), Lit::negative(v)]);
        assert_eq!(out, SolveOutcome::Unsat);
        assert!(s.unsat_under_assumptions());
        let core = s.failed_assumptions().to_vec();
        assert_eq!(core.len(), 2);
        assert!(core.contains(&Lit::positive(v)) && core.contains(&Lit::negative(v)));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn failed_assumptions_explain_the_conflict() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        let c = f.new_var();
        f.add_clause([Lit::positive(a), Lit::positive(b)]);
        let mut s = CdclSolver::new();
        s.add_formula(&f);

        // `c` is irrelevant to the conflict: the core must not include it.
        let assumptions = [Lit::positive(c), Lit::negative(a), Lit::negative(b)];
        assert_eq!(s.solve_with_assumptions(&assumptions), SolveOutcome::Unsat);
        assert!(s.unsat_under_assumptions());
        let core = s.failed_assumptions().to_vec();
        assert!(!core.is_empty());
        for l in &core {
            assert!(assumptions.contains(l), "core literal {l:?} was assumed");
        }
        assert!(!core.contains(&Lit::positive(c)));

        // The core alone is already contradictory with the formula.
        assert_eq!(s.solve_with_assumptions(&core), SolveOutcome::Unsat);
        assert!(s.unsat_under_assumptions());

        // A satisfiable solve clears the stored core.
        assert!(s.solve().is_sat());
        assert!(s.failed_assumptions().is_empty());
        assert!(!s.unsat_under_assumptions());
    }

    #[test]
    fn failed_assumption_core_survives_real_search() {
        // Pigeonhole 4→4 with hole-disable selectors: closing hole 0 forces
        // a genuine CDCL refutation (not a pure propagation conflict), and
        // the reported core must still be a contradictory assumption subset
        // that names the closed hole.
        let n = 4i64;
        let h = 4i64;
        let p = |i: i64, j: i64| h * i + j + 1;
        let disable = |j: i64| n * h + j + 1;
        let mut f = CnfFormula::new();
        for i in 0..n {
            f.add_clause((0..h).map(|j| Lit::from_dimacs(p(i, j))));
        }
        for j in 0..h {
            for a in 0..n {
                f.add_clause([Lit::from_dimacs(-disable(j)), Lit::from_dimacs(-p(a, j))]);
                for b in (a + 1)..n {
                    f.add_clause([Lit::from_dimacs(-p(a, j)), Lit::from_dimacs(-p(b, j))]);
                }
            }
        }
        let mut s = CdclSolver::new();
        s.add_formula(&f);

        let mut close_one: Vec<Lit> = (0..h).map(|j| Lit::from_dimacs(-disable(j))).collect();
        close_one[0] = !close_one[0];
        assert_eq!(s.solve_with_assumptions(&close_one), SolveOutcome::Unsat);
        assert!(s.unsat_under_assumptions());
        let core = s.failed_assumptions().to_vec();
        assert!(core.iter().all(|l| close_one.contains(l)));
        assert!(
            core.contains(&Lit::from_dimacs(disable(0))),
            "the closed hole must appear in the core"
        );
        assert_eq!(s.solve_with_assumptions(&core), SolveOutcome::Unsat);
        assert!(s.unsat_under_assumptions());
        // The formula itself is still satisfiable.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn duplicate_assumptions_are_harmless() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        f.add_clause([Lit::positive(a)]);
        let mut s = CdclSolver::new();
        s.add_formula(&f);
        let assumptions = vec![Lit::positive(a); 5];
        assert!(s.solve_with_assumptions(&assumptions).is_sat());
    }

    #[test]
    fn incremental_solving_keeps_learnt_clauses() {
        // Pigeonhole 4→3 with "hole-disable" assumption variables: assuming
        // all holes open is SAT; closing one hole is UNSAT-under-assumptions.
        let n = 4i64;
        let h = 4i64;
        let p = |i: i64, j: i64| h * i + j + 1;
        let disable = |j: i64| n * h + j + 1; // d_j true = hole j closed
        let mut f = CnfFormula::new();
        for i in 0..n {
            f.add_clause((0..h).map(|j| Lit::from_dimacs(p(i, j))));
        }
        for j in 0..h {
            for a in 0..n {
                f.add_clause([Lit::from_dimacs(-disable(j)), Lit::from_dimacs(-p(a, j))]);
                for b in (a + 1)..n {
                    f.add_clause([Lit::from_dimacs(-p(a, j)), Lit::from_dimacs(-p(b, j))]);
                }
            }
        }
        let mut s = CdclSolver::new();
        s.add_formula(&f);

        let open: Vec<Lit> = (0..h).map(|j| Lit::from_dimacs(-disable(j))).collect();
        assert!(s.solve_with_assumptions(&open).is_sat());

        let mut close_one = open.clone();
        close_one[0] = !close_one[0];
        assert_eq!(s.solve_with_assumptions(&close_one), SolveOutcome::Unsat);
        assert!(s.unsat_under_assumptions());

        // Back to all-open: still SAT; solver reusable throughout.
        assert!(s.solve_with_assumptions(&open).is_sat());
    }

    #[test]
    fn unsat_proofs_verify_with_the_checker() {
        // Pigeonhole 4 into 3 — forces real learning and DB activity.
        let n = 4i64;
        let h = 3i64;
        let p = |i: i64, j: i64| h * i + j + 1;
        let mut f = CnfFormula::new();
        for i in 0..n {
            f.add_clause((0..h).map(|j| Lit::from_dimacs(p(i, j))));
        }
        for j in 0..h {
            for a in 0..n {
                for b in (a + 1)..n {
                    f.add_clause([Lit::from_dimacs(-p(a, j)), Lit::from_dimacs(-p(b, j))]);
                }
            }
        }
        let mut s = CdclSolver::new();
        s.enable_proof_logging();
        s.add_formula(&f);
        assert!(s.solve().is_unsat());
        let proof = s.take_proof().expect("logging enabled");
        assert!(!proof.is_empty());
        proof.check(&f).expect("solver proofs must verify");
    }

    #[test]
    fn proof_of_trivial_top_level_conflict() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        f.add_clause([Lit::positive(a)]);
        f.add_clause([Lit::negative(a)]);
        let mut s = CdclSolver::new();
        s.enable_proof_logging();
        s.add_formula(&f);
        assert!(s.solve().is_unsat());
        let proof = s.take_proof().expect("logging enabled");
        proof.check(&f).expect("trivial refutation verifies");
    }

    /// Satellite check (ISSUE 2): first-conflict LBD bookkeeping. `sum_lbd`
    /// is bumped before the `learnt_clauses == 0` check that seeds the EMA,
    /// but the check reads the *pre-increment* count (`record_learnt` runs
    /// later), so the EMA is correctly seeded with the first clause's own
    /// LBD — pinned here against a hand-traced two-conflict refutation.
    #[test]
    fn first_conflict_seeds_lbd_ema_with_own_lbd() {
        // (x1∨x2)(¬x1∨x2)(¬x2∨x3)(¬x2∨¬x3): the deterministic first
        // decision ¬x1 forces x2, then x3/¬x3 clash; analysis learns the
        // unit ¬x2 (LBD 1) and the second conflict is at level 0, learning
        // nothing.
        let mut f = CnfFormula::new();
        for c in [[1i64, 2], [-1, 2], [-2, 3], [-2, -3]] {
            f.add_clause(c.iter().map(|&d| Lit::from_dimacs(d)));
        }
        let mut s = CdclSolver::new();
        s.add_formula(&f);
        assert!(s.solve().is_unsat());
        assert_eq!(s.stats().conflicts, 2);
        assert_eq!(s.stats().learnt_clauses, 1);
        assert_eq!(s.stats().sum_lbd, 1, "the single learnt unit has LBD 1");
        assert_eq!(s.lbd_ema(), 1.0, "EMA seeds with the first clause's LBD");
    }

    #[test]
    fn diversified_config_is_deterministic_and_member_zero_is_base() {
        let base = SolverConfig::default();
        let d0 = base.diversified(0);
        assert_eq!(d0.seed, 0);
        assert_eq!(d0.phase_init, PhaseInit::AllFalse);
        assert_eq!(d0.restart_scheme, RestartScheme::Luby);
        let mut seeds = Vec::new();
        for i in 1..6u64 {
            let a = base.diversified(i);
            let b = base.diversified(i);
            assert_ne!(a.seed, 0, "member {i} must be seeded");
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.phase_init, b.phase_init);
            assert_eq!(a.restart_scheme, b.restart_scheme);
            assert_eq!(a.restart_base, b.restart_base);
            seeds.push(a.seed);
        }
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 5, "members get pairwise distinct seeds");
    }

    #[test]
    #[cfg_attr(miri, ignore = "minutes under the interpreter")]
    fn diversified_members_agree_on_the_verdict() {
        // Different seeds/phases/restart schemes explore different orders
        // but must reach the same answer.
        let f = pigeonhole(5, 4);
        for i in 0..4u64 {
            let mut s = CdclSolver::with_config(SolverConfig::default().diversified(i));
            s.add_formula(&f);
            assert!(s.solve().is_unsat(), "member {i}");
        }
        let mut g = CnfFormula::new();
        let a = g.new_var();
        let b = g.new_var();
        g.add_clause([Lit::positive(a), Lit::positive(b)]);
        g.add_clause([Lit::negative(a), Lit::negative(b)]);
        for i in 0..4u64 {
            let mut s = CdclSolver::with_config(SolverConfig::default().diversified(i));
            s.add_formula(&g);
            let out = s.solve();
            let m = out.model().expect("satisfiable for every member");
            assert!(g.is_satisfied_by(m));
        }
    }

    /// In-memory exchange used by the sharing unit tests.
    #[derive(Default)]
    struct VecExchange {
        inbox: std::sync::Mutex<Vec<Arc<[Lit]>>>,
        exported: std::sync::Mutex<Vec<Arc<[Lit]>>>,
    }

    impl VecExchange {
        fn queue(&self, lits: Vec<Lit>) {
            self.inbox.lock().unwrap().push(lits.into());
        }
    }

    impl ClauseExchange for VecExchange {
        fn export(&self, lits: &[Lit]) {
            self.exported.lock().unwrap().push(lits.into());
        }
        fn drain(&self) -> Vec<Arc<[Lit]>> {
            std::mem::take(&mut *self.inbox.lock().unwrap())
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "minutes under the interpreter")]
    fn exports_honor_the_sharing_filter_and_counters() {
        let ex = Arc::new(VecExchange::default());
        let mut s = CdclSolver::new();
        s.set_exchange(ex.clone());
        s.add_formula(&pigeonhole(8, 7));
        assert!(s.solve().is_unsat());
        let exported = ex.exported.lock().unwrap();
        let stats = s.stats();
        assert!(stats.exported_clauses > 0, "glue clauses must flow");
        assert!(
            stats.exported_clauses < stats.learnt_clauses,
            "the filter must hold back some learnt clause: {stats:?}"
        );
        assert_eq!(exported.len() as u64, stats.exported_clauses);
        for c in exported.iter() {
            assert!(c.len() <= EXPORT_MAX_LEN);
        }
        assert_eq!(stats.imported_clauses, 0, "nothing was ever queued");
    }

    #[test]
    fn imports_apply_at_solve_start_and_can_refute() {
        // Units x1 and ¬x1 queued by a "peer": the import at solve start
        // derives the top-level conflict without any search.
        let ex = Arc::new(VecExchange::default());
        ex.queue(vec![lit(1)]);
        ex.queue(vec![lit(-1)]);
        let mut s = CdclSolver::new();
        s.set_exchange(ex);
        s.ensure_vars(1);
        assert!(s.solve().is_unsat());
        assert_eq!(s.stats().imported_clauses, 2);
        assert_eq!(s.stats().conflicts, 0);
    }

    #[test]
    fn satisfied_and_tautological_deliveries_are_not_imported() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        f.add_clause([Lit::positive(a)]);
        let ex = Arc::new(VecExchange::default());
        ex.queue(vec![Lit::positive(a)]); // satisfied at level 0
        ex.queue(vec![lit(2), lit(-2)]); // tautology
        let mut s = CdclSolver::new();
        s.set_exchange(ex);
        s.add_formula(&f);
        assert!(s.solve().is_sat());
        assert_eq!(s.stats().imported_clauses, 0);
    }

    #[test]
    fn imports_are_skipped_while_proof_logging() {
        let ex = Arc::new(VecExchange::default());
        ex.queue(vec![lit(1)]);
        let mut s = CdclSolver::new();
        s.enable_proof_logging();
        s.set_exchange(ex);
        s.ensure_vars(1);
        assert!(s.solve().is_sat());
        assert_eq!(s.stats().imported_clauses, 0, "proofs stay self-contained");
    }

    #[test]
    #[cfg_attr(miri, ignore = "minutes under the interpreter")]
    fn shared_clauses_flow_between_two_solvers() {
        // Solver A refutes and exports; its glue clauses are fed to solver
        // B working on the same formula. B must reach the same verdict and
        // count the imports.
        let f = pigeonhole(6, 5);
        let ex_a = Arc::new(VecExchange::default());
        let mut a = CdclSolver::new();
        a.set_exchange(ex_a.clone());
        a.add_formula(&f);
        assert!(a.solve().is_unsat());
        let shared = ex_a.exported.lock().unwrap().clone();
        assert!(!shared.is_empty());

        let ex_b = Arc::new(VecExchange::default());
        *ex_b.inbox.lock().unwrap() = shared;
        let mut b = CdclSolver::new();
        b.set_exchange(ex_b);
        b.add_formula(&f);
        assert!(b.solve().is_unsat());
        assert!(b.stats().imported_clauses > 0);
    }

    /// Configuration pair that reduces the learnt database aggressively;
    /// `gc` toggles only the arena compaction, never the search.
    fn reducing_config(gc: bool) -> SolverConfig {
        SolverConfig {
            learnt_ratio: 0.0,
            learnt_floor: 5.0,
            debug_force_gc: if gc { Some(3) } else { None },
            gc_dead_frac: if gc { 0.0 } else { 2.0 },
            ..SolverConfig::default()
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "minutes under the interpreter")]
    fn forced_gc_is_search_transparent() {
        // Same reductions, same search — GC only moves bytes. The run with
        // compaction forced every 3 conflicts must match the GC-free run
        // on every search statistic, and `debug_check_refs` (active in
        // debug builds) validates every watcher/reason after each GC.
        let f = pigeonhole(6, 5);
        let mut with_gc = CdclSolver::with_config(reducing_config(true));
        with_gc.add_formula(&f);
        assert!(with_gc.solve().is_unsat());
        let mut without_gc = CdclSolver::with_config(reducing_config(false));
        without_gc.add_formula(&f);
        assert!(without_gc.solve().is_unsat());

        assert!(with_gc.stats().gc_runs > 0, "forced GC must have run");
        assert!(with_gc.stats().gc_reclaimed_bytes > 0);
        assert_eq!(without_gc.stats().gc_runs, 0);
        assert_eq!(with_gc.stats().conflicts, without_gc.stats().conflicts);
        assert_eq!(with_gc.stats().decisions, without_gc.stats().decisions);
        assert_eq!(
            with_gc.stats().propagations,
            without_gc.stats().propagations
        );
        assert_eq!(
            with_gc.stats().deleted_clauses,
            without_gc.stats().deleted_clauses
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "minutes under the interpreter")]
    fn forced_gc_preserves_proof_validity() {
        let f = pigeonhole(5, 4);
        let mut s = CdclSolver::with_config(reducing_config(true));
        s.enable_proof_logging();
        s.add_formula(&f);
        assert!(s.solve().is_unsat());
        assert!(s.stats().gc_runs > 0);
        let proof = s.take_proof().expect("proof logging was enabled");
        proof.check(&f).expect("DRAT proof must verify after GC");
    }

    #[test]
    fn activity_reduction_keeps_tier_counts_of_live_learnts() {
        // White-box: attach learnt clauses of every tier with distinct
        // activities, then reduce. The less-active half goes whatever its
        // tier, and the per-tier counts behind the `solver.tier.*` gauges
        // follow the survivors.
        let mut s = CdclSolver::with_config(SolverConfig {
            gc_dead_frac: 2.0, // keep ClauseRefs stable for the asserts
            ..SolverConfig::default()
        });
        s.ensure_vars(40);
        let clause = |base: i64| vec![lit(base), lit(base + 1), lit(base + 2)];
        // (LBD, activity): the four least active span all three tiers.
        let specs = [
            (2, 3.0),
            (2, 8.0),
            (5, 1.0),
            (5, 7.0),
            (5, 6.0),
            (9, 2.0),
            (9, 4.0),
            (9, 9.0),
            (9, 5.0),
        ];
        let refs: Vec<ClauseRef> = specs
            .iter()
            .enumerate()
            .map(|(i, &(lbd, activity))| {
                let cref = s.attach_clause(&clause(1 + 3 * i as i64), true, lbd);
                s.arena.set_activity(cref, activity);
                cref
            })
            .collect();
        assert_eq!(s.tier_counts, [2, 3, 4]);

        s.reduce_db();

        let deleted: Vec<f64> = specs
            .iter()
            .zip(&refs)
            .filter(|&(_, &c)| s.arena.is_deleted(c))
            .map(|(&(_, activity), _)| activity)
            .collect();
        assert_eq!(deleted, [3.0, 1.0, 2.0, 4.0], "the less-active half goes");
        assert_eq!(s.learnts.len(), 5, "learnts index drops deleted refs");
        let mut live = [0u64; 3];
        for &cref in &s.learnts {
            live[s.arena.tier(cref) as usize] += 1;
        }
        assert_eq!(s.tier_counts, live);
        assert_eq!(s.tier_counts, [1, 2, 2]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "minutes under the interpreter")]
    fn gc_compacts_the_arena_after_reductions() {
        let f = pigeonhole(6, 5);
        let mut s = CdclSolver::with_config(SolverConfig {
            learnt_ratio: 0.0,
            learnt_floor: 5.0,
            gc_dead_frac: 0.1,
            ..SolverConfig::default()
        });
        s.add_formula(&f);
        assert!(s.solve().is_unsat());
        assert!(s.stats().gc_runs > 0, "reduction churn must trigger GC");
        let (live, dead) = (s.arena.live_bytes(), s.arena.dead_bytes());
        assert!(
            dead as f64 <= 0.1 * (live + dead).max(1) as f64 || dead == 0,
            "post-GC arena stays under the dead-byte threshold at finish: \
             {live} live, {dead} dead bytes"
        );
    }

    /// Live problem binaries in the watch lists, each counted once;
    /// panics unless every binary watcher has its twin.
    fn implicit_binaries(s: &CdclSolver) -> usize {
        let halves = s
            .watches
            .iter()
            .flat_map(WatchList::iter)
            .filter(|w| matches!(w, Watch::Binary(_)))
            .count();
        assert_eq!(halves % 2, 0, "binary watchers come in pairs");
        halves / 2
    }

    #[test]
    fn failed_assumption_core_runs_through_implicit_binaries() {
        // a → x1 → x2 → x3 → x4 and b → ¬x4, all binary problem clauses;
        // c and d are assumed but irrelevant. The chain is the only route
        // from {a, b} to a contradiction, so a lost binary leaves the
        // assumptions satisfiable.
        let f = {
            let mut f = CnfFormula::new();
            for c in [[-1i64, 5], [-5, 6], [-6, 7], [-7, 8], [-2, -8]] {
                f.add_clause(c.iter().map(|&d| lit(d)));
            }
            f.add_clause([lit(3), lit(4), lit(9)]);
            f
        };
        let mut s = CdclSolver::new();
        s.add_formula(&f);
        assert_eq!(implicit_binaries(&s), 5);
        assert_eq!(
            s.arena.refs().count(),
            1,
            "only the ternary is an arena clause"
        );

        let assumptions = [lit(3), lit(1), lit(4), lit(2)];
        assert_eq!(s.solve_with_assumptions(&assumptions), SolveOutcome::Unsat);
        assert!(s.unsat_under_assumptions());
        let mut core = s.failed_assumptions().to_vec();
        core.sort_unstable();
        assert_eq!(core, [lit(1), lit(2)]);

        let mut fresh = CdclSolver::new();
        fresh.add_formula(&f);
        assert_eq!(fresh.solve_with_assumptions(&core), SolveOutcome::Unsat);
        assert!(fresh.unsat_under_assumptions());
        for half in core {
            assert!(fresh.solve_with_assumptions(&[half]).is_sat(), "{half:?}");
        }
        assert_eq!(implicit_binaries(&fresh), 5);
    }

    /// `k`-coloring of a random graph on `n` vertices (edge probability
    /// `p_percent`%, xorshift per seed) in the direct encoding: one
    /// at-least-one clause per vertex, and a binary per edge and color —
    /// nearly every clause and most reasons are implicit binaries.
    fn random_coloring(seed: u64, n: u32, k: u32, p_percent: u64) -> CnfFormula {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let color = |v: u32, c: u32| Var::new(v * k + c);
        let mut f = CnfFormula::new();
        for v in 0..n {
            f.add_clause((0..k).map(|c| Lit::positive(color(v, c))));
        }
        for u in 0..n {
            for v in u + 1..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 100 < p_percent {
                    for c in 0..k {
                        f.add_clause([Lit::negative(color(u, c)), Lit::negative(color(v, c))]);
                    }
                }
            }
        }
        f
    }

    #[test]
    fn minimization_through_binary_reasons_keeps_proofs_valid() {
        // Most reasons conflict analysis meets here are implicit binaries,
        // so learnt-clause minimization walks binary reasons. Every verdict
        // must match the DPLL oracle and every refutation's DRAT proof
        // must check against the formula.
        let (mut refuted, mut minimized) = (0, 0);
        for seed in 0..24u64 {
            let f = random_coloring(seed, 24, 3, 20);
            let oracle = crate::DpllSolver::new().solve(&f).is_sat();
            let mut s = CdclSolver::new();
            s.enable_proof_logging();
            s.add_formula(&f);
            assert_eq!(implicit_binaries(&s), f.stats().num_binary, "seed {seed}");
            let out = s.solve();
            assert_eq!(out.is_sat(), oracle, "seed {seed}");
            match &out {
                SolveOutcome::Sat(m) => assert!(f.is_satisfied_by(m), "seed {seed}"),
                _ => {
                    let proof = s.take_proof().expect("logging enabled");
                    proof
                        .check(&f)
                        .expect("proofs through binary reasons verify");
                    refuted += 1;
                    minimized += s.stats().minimized_literals;
                }
            }
        }
        assert!(refuted > 0, "the family must contain refutations");
        assert!(minimized > 0, "minimization must remove literals");
    }

    #[test]
    fn loading_reserves_every_watch_list_exactly() {
        // Without unit clauses no level-0 assignment can shift a watch, so
        // the counting pass predicts every list's final length in words.
        for seed in 0..4u64 {
            let f = random_coloring(seed, 30, 4, 30);
            assert_eq!(f.stats().num_unit, 0);
            let mut s = CdclSolver::new();
            s.add_formula(&f);
            for (code, watchers) in s.watches.iter().enumerate() {
                assert_eq!(
                    watchers.capacity(),
                    watchers.len(),
                    "seed {seed} literal {code}"
                );
            }
        }
    }

    #[test]
    fn mixed_watch_lists_keep_attach_order_through_propagation_and_gc() {
        let f = {
            let mut f = CnfFormula::new();
            for c in [
                vec![1i64, 2],
                vec![1, 3, 4],
                vec![1, 5],
                vec![1, 6, 7],
                vec![1, 8, 9],
            ] {
                f.add_clause(c.iter().map(|&d| lit(d)));
            }
            f
        };
        let mut s = CdclSolver::with_config(SolverConfig {
            gc_dead_frac: 2.0, // collect only when the test says so
            ..SolverConfig::default()
        });
        s.add_formula(&f);
        let list =
            |s: &CdclSolver, d: i64| s.watches[lit(d).code() as usize].iter().collect::<Vec<_>>();
        let [c0, c1, c2]: [ClauseRef; 3] = s.arena.refs().collect::<Vec<_>>().try_into().unwrap();
        assert_eq!(
            list(&s, 1),
            [
                Watch::Binary(lit(2)),
                Watch::Clause(c0, lit(3)),
                Watch::Binary(lit(5)),
                Watch::Clause(c1, lit(6)),
                Watch::Clause(c2, lit(8)),
            ]
        );
        assert_eq!(
            s.watches[lit(1).code() as usize].len(),
            8,
            "1 + 2 + 1 + 2 + 2 words"
        );

        // With 8 true, falsifying 1 implies 2 and 5 through the binaries,
        // moves the watchers of (1 3 4) and (1 6 7) to 4 and 7, and keeps
        // the one of (1 8 9) on its satisfied blocker.
        for d in [8, -1] {
            s.trail_lim.push(s.trail.len());
            s.enqueue(lit(d), NO_REASON);
            assert_eq!(s.propagate(), None);
        }
        assert_eq!(s.lit_value(lit(2)), TRUE);
        assert_eq!(s.lit_value(lit(5)), TRUE);
        assert_eq!(
            list(&s, 1),
            [
                Watch::Binary(lit(2)),
                Watch::Binary(lit(5)),
                Watch::Clause(c2, lit(8)),
            ]
        );
        assert_eq!(list(&s, 4), [Watch::Clause(c0, lit(3))]);
        assert_eq!(list(&s, 7), [Watch::Clause(c1, lit(6))]);
        s.backtrack(0);

        // Deleting the first arena clause moves the others down: the GC
        // drops its watchers and remaps the rest in place.
        s.delete_any_clause(c0);
        s.collect_garbage();
        let [c1, c2]: [ClauseRef; 2] = s.arena.refs().collect::<Vec<_>>().try_into().unwrap();
        assert_eq!(c1, c0, "compaction moved (1 6 7) down");
        assert_eq!(
            list(&s, 1),
            [
                Watch::Binary(lit(2)),
                Watch::Binary(lit(5)),
                Watch::Clause(c2, lit(8)),
            ]
        );
        assert_eq!(list(&s, 3), []);
        assert_eq!(list(&s, 4), []);
        assert_eq!(list(&s, 7), [Watch::Clause(c1, lit(6))]);
        assert_eq!(list(&s, 2), [Watch::Binary(lit(1))]);
    }

    #[test]
    fn watch_bytes_gauge_counts_four_bytes_per_binary_watcher() {
        // At most one of ten variables is true: 45 binaries, 90 one-word
        // watchers. The all-false phase satisfies every clause without a
        // conflict, so nothing is learnt and every list keeps its exact
        // reserve.
        let mut f = CnfFormula::with_vars(10);
        for a in 1..=10i64 {
            for b in a + 1..=10 {
                f.add_clause([lit(-a), lit(-b)]);
            }
        }
        let registry = satroute_obs::MetricsRegistry::new();
        let ctx = crate::RunContext {
            metrics: registry.clone(),
            ..crate::RunContext::default()
        };
        let mut s = ctx.solver(0);
        s.add_formula(&f);
        assert!(s.solve().is_sat());
        assert_eq!(s.stats().conflicts, 0);
        assert_eq!(
            registry.snapshot().gauge("solver.watch_bytes"),
            Some(4.0 * 90.0)
        );
    }

    /// A `k`-coloring of `n` vertices in the muldirect encoding, over
    /// x_{v,c} = v·k + c, with one selector s_c = n·k + c per color: the
    /// clauses an encoder writes, split at the binaries a solver can hold
    /// as the graph.
    struct Colored {
        n: u32,
        k: u32,
        /// Ascending, each `(u, v)` with `u < v`.
        edges: Vec<(u32, u32)>,
        offsets: Vec<u32>,
        neighbors: Vec<u32>,
    }

    impl Colored {
        fn new(n: u32, k: u32, mut edges: Vec<(u32, u32)>) -> Colored {
            edges.sort_unstable();
            let mut rows = vec![Vec::new(); n as usize];
            for &(u, v) in &edges {
                rows[u as usize].push(v);
                rows[v as usize].push(u);
            }
            let mut offsets = vec![0];
            let mut neighbors = Vec::new();
            for mut row in rows {
                row.sort_unstable();
                neighbors.extend(row);
                offsets.push(neighbors.len() as u32);
            }
            Colored {
                n,
                k,
                edges,
                offsets,
                neighbors,
            }
        }

        fn x(&self, v: u32, c: u32) -> Lit {
            Lit::positive(Var::new(v * self.k + c))
        }

        fn selector(&self, c: u32) -> Lit {
            Lit::positive(Var::new(self.n * self.k + c))
        }

        /// The clauses in the encoder's order: per vertex at-least-one,
        /// per edge and color a conflict binary, per vertex and color an
        /// activation binary ¬s_c ∨ ¬x_{v,c}. Without `held` the binaries
        /// the graph stands for are left out.
        fn clauses(&self, held: bool) -> Vec<Vec<Lit>> {
            let mut out: Vec<Vec<Lit>> = (0..self.n)
                .map(|v| (0..self.k).map(|c| self.x(v, c)).collect())
                .collect();
            for &(u, v) in self.edges.iter().filter(|_| held) {
                for c in 0..self.k {
                    out.push(vec![!self.x(u, c), !self.x(v, c)]);
                }
            }
            for v in 0..self.n {
                for c in 0..self.k {
                    out.push(vec![!self.selector(c), !self.x(v, c)]);
                }
            }
            out
        }

        /// Every clause attached to the watch lists.
        fn attached(&self, config: &SolverConfig) -> CdclSolver {
            let mut f = CnfFormula::with_vars(self.n * self.k + self.k);
            for clause in self.clauses(true) {
                f.add_clause(clause);
            }
            let mut s = CdclSolver::with_config(config.clone());
            s.add_formula(&f);
            s
        }

        fn graph(&self) -> ConflictBinaries<'_> {
            ConflictBinaries {
                colors: self.k,
                vertices: self.n,
                offsets: &self.offsets,
                neighbors: &self.neighbors,
            }
        }

        /// The binaries held as the graph, the other clauses attached.
        fn held(&self, config: &SolverConfig) -> CdclSolver {
            let mut s = CdclSolver::with_config(config.clone());
            assert!(s.add_conflict_binaries(self.graph()));
            s.load(self.n * self.k + self.k, |sink, _| {
                for clause in self.clauses(false) {
                    sink.add_clause(&clause);
                }
            });
            s
        }
    }

    /// The two solvers hold the same trail with the same reasons and
    /// the same counters.
    fn assert_same_search(a: &CdclSolver, b: &CdclSolver, at: &str) {
        assert_eq!(a.trail, b.trail, "{at}");
        let reasons = |s: &CdclSolver| -> Vec<u32> {
            s.trail
                .iter()
                .map(|&l| s.reason[usize::from(l.var())])
                .collect()
        };
        assert_eq!(reasons(a), reasons(b), "{at}");
        assert_eq!(a.stats, b.stats, "{at}");
    }

    /// Decides each still-unassigned literal of `decisions` on a level of
    /// its own in both solvers, checking after every propagation that
    /// they agree; a conflict is analyzed, learnt and propagated in both.
    fn lockstep(a: &mut CdclSolver, b: &mut CdclSolver, decisions: &[Lit]) {
        for (step, &decision) in decisions.iter().enumerate() {
            if a.lit_value(decision) != UNDEF {
                continue;
            }
            for s in [&mut *a, &mut *b] {
                s.trail_lim.push(s.trail.len());
                s.enqueue(decision, NO_REASON);
            }
            loop {
                let conflict = a.propagate();
                assert_eq!(conflict, b.propagate(), "step {step}");
                assert_same_search(a, b, &format!("step {step}"));
                let Some(conflict) = conflict else { break };
                if a.decision_level() == 0 {
                    return;
                }
                let level = a.analyze(conflict);
                assert_eq!(level, b.analyze(conflict), "step {step}");
                assert_eq!(a.learnt_buf, b.learnt_buf, "step {step}");
                for s in [&mut *a, &mut *b] {
                    let lbd = s.learnt_buf_lbd();
                    s.backtrack(level);
                    s.record_learnt(lbd);
                }
            }
        }
    }

    #[test]
    fn graph_binaries_come_before_the_list_and_search_like_attached_ones() {
        // Vertex 0 has the neighbors 1, 2 and 3. After the graph's binaries
        // of x_{0,0}, its list holds the activation binary ¬s_0 ∨ ¬x_{0,0}
        // and then a learnt clause ¬x_{0,0} ∨ s_2: x_{0,0} implies ¬x_{v,0}
        // for the neighbors first, then ¬s_0, then s_2.
        let g = Colored::new(4, 3, vec![(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]);
        let config = SolverConfig::default();
        let (mut a, mut b) = (g.attached(&config), g.held(&config));
        assert_eq!(implicit_binaries(&a), 5 * 3 + 4 * 3);
        assert_eq!(implicit_binaries(&b), 4 * 3, "only the activations");
        assert_eq!(
            (a.original_clauses, a.allocated_clauses),
            (b.original_clauses, b.allocated_clauses)
        );
        for s in [&mut a, &mut b] {
            s.attach_clause(&[!g.x(0, 0), g.selector(2)], true, 2);
            s.trail_lim.push(0);
            s.enqueue(g.x(0, 0), NO_REASON);
        }
        let conflict = a.propagate();
        assert_eq!(conflict, b.propagate());
        assert_same_search(&a, &b, "x_{0,0}");
        assert_eq!(
            b.trail[..6],
            [
                g.x(0, 0),
                !g.x(1, 0),
                !g.x(2, 0),
                !g.x(3, 0),
                !g.selector(0),
                g.selector(2),
            ]
        );
        // s_2 disables color 2, and vertex 2 is left with no color.
        assert!(conflict.is_some());

        // Again from level 0, learning from each conflict, until every
        // color of every vertex is decided or refuted.
        a.backtrack(0);
        b.backtrack(0);
        let decisions: Vec<Lit> = (0..4)
            .flat_map(|v| (0..3).map(move |c| (v, c)))
            .map(|(v, c)| g.x(v, c))
            .collect();
        lockstep(&mut a, &mut b, &decisions);
        assert!(a.stats.learnt_clauses > 0);
        assert_eq!(a.ok, b.ok);
    }

    #[test]
    fn graph_binaries_solve_like_attached_ones() {
        // Random colorings between too few colors and enough, plain and
        // probed one track down through the selectors, with a learnt floor low enough to reduce: the same
        // answer, model and counters either way.
        let config = SolverConfig {
            learnt_floor: 20.0,
            restart_base: 20,
            ..SolverConfig::default()
        };
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let (mut reduced, mut restarted) = (false, false);
        for round in 0..8u32 {
            let n = if cfg!(miri) { 10 } else { 18 + round };
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x % 100 < 45 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Colored::new(n, 4 + round % 3, edges);
            for assumptions in [vec![], vec![g.selector(g.k - 1)]] {
                let at = format!("round {round} assuming {assumptions:?}");
                let (mut a, mut b) = (g.attached(&config), g.held(&config));
                let outcome = a.solve_with_assumptions(&assumptions);
                assert_eq!(outcome, b.solve_with_assumptions(&assumptions), "{at}");
                assert_eq!(a.stats, b.stats, "{at}");
                assert_eq!(a.failed_assumptions, b.failed_assumptions, "{at}");
                reduced |= a.stats.deleted_clauses > 0;
                restarted |= a.stats.restarts > 0;
            }
        }
        if !cfg!(miri) {
            assert!(reduced && restarted, "the family must reduce and restart");
        }
    }

    #[test]
    fn only_a_fresh_plain_solver_holds_the_graph() {
        let g = Colored::new(3, 2, vec![(0, 1), (1, 2)]);
        let graph = g.graph();
        // 2 edges × 2 colors.
        assert_eq!(graph.num_binaries(), 4);
        let mut plain = CdclSolver::new();
        assert!(plain.add_conflict_binaries(graph));
        assert_eq!(plain.original_clauses, 4);
        assert!(!plain.add_conflict_binaries(graph), "one graph per solver");

        let mut logging = CdclSolver::new();
        logging.enable_proof_logging();
        let inprocessing = CdclSolver::with_config(SolverConfig {
            inprocess: InprocessConfig::on(),
            ..SolverConfig::default()
        });
        let mut loaded = CdclSolver::new();
        loaded.add_clause(&[g.x(0, 0), g.x(2, 1)]);
        let mut assigned = CdclSolver::new();
        assigned.add_clause(&[g.selector(0)]);
        for mut s in [logging, inprocessing, loaded, assigned] {
            assert!(!s.add_conflict_binaries(graph));
            assert_eq!(s.virtual_binaries.allocated_bytes(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "row 0 must be strictly ascending and below 2")]
    fn a_neighbor_outside_the_layout_is_refused() {
        // Vertex 2 of a 2-vertex layout would be x_{2,c} = 2·k + c, a
        // variable past the coloring.
        CdclSolver::new().add_conflict_binaries(ConflictBinaries {
            colors: 2,
            vertices: 2,
            offsets: &[0, 1, 2],
            neighbors: &[2, 0],
        });
    }

    #[test]
    #[should_panic(expected = "row offsets must rise from 0 to its neighbor count")]
    fn falling_row_offsets_are_refused() {
        CdclSolver::new().add_conflict_binaries(ConflictBinaries {
            colors: 2,
            vertices: 3,
            offsets: &[0, 2, 1, 2],
            neighbors: &[1, 2, 0, 0],
        });
    }

    #[test]
    fn already_normalized_clauses_load_like_normalized_ones() {
        // (clause, attached straight from the slice?)
        let clauses: Vec<(Vec<i64>, bool)> = vec![
            (vec![1, 2, 3], true),
            (vec![-1, 4], true),         // binary
            (vec![3, 1, 2, 5], false),   // unsorted
            (vec![2, 2, 6], false),      // duplicated literal
            (vec![2, 5, -2], false),     // tautology
            (vec![7], true),             // unit, assigned at level 0
            (vec![-7, 8, 9], false),     // falsified literal dropped
            (vec![7, 10], false),        // satisfied at level 0, dropped
            (vec![8, 9, 14, 13], false), // unsorted, past the known variables
            (vec![-8, -9, 14], true),
            (vec![], true),     // the empty clause refutes
            (vec![1, 2], true), // ignored once refuted
        ];
        // `direct` gets each clause as written; `normalized` gets it
        // reversed with its first literal repeated, which only `normalize`
        // accepts.
        let mut direct = CdclSolver::new();
        let mut normalized = CdclSolver::new();
        for s in [&mut direct, &mut normalized] {
            s.enable_proof_logging();
            s.ensure_vars(12);
        }
        for (clause, zero_copy) in &clauses {
            let lits: Vec<Lit> = clause.iter().map(|&d| lit(d)).collect();
            let scrambled: Vec<Lit> = lits.iter().rev().chain(lits.first()).copied().collect();
            assert_eq!(direct.is_normalized(&lits), *zero_copy, "{clause:?}");
            assert_eq!(normalized.is_normalized(&scrambled), lits.is_empty());
            direct.add_clause(&lits);
            normalized.add_clause(&scrambled);
            // The normalization buffer only holds working state;
            // everything else must match.
            direct.norm_buf.clear();
            normalized.norm_buf.clear();
            assert_eq!(
                format!("{direct:?}"),
                format!("{normalized:?}"),
                "after {clause:?}"
            );
        }
        assert!(!direct.ok);

        // The zero-copy path is taken exactly for already-normalized
        // clauses over known, unassigned, live variables.
        let s = CdclSolver::new();
        assert!(s.is_normalized(&[]));
        let mut s = CdclSolver::new();
        s.ensure_vars(4);
        assert!(s.is_normalized(&[lit(1), lit(-2), lit(4)]));
        assert!(!s.is_normalized(&[lit(2), lit(1)]));
        assert!(!s.is_normalized(&[lit(1), lit(-1)]));
        assert!(!s.is_normalized(&[lit(1), lit(5)]));
        s.add_clause(&[lit(3)]);
        assert!(!s.is_normalized(&[lit(1), lit(3)]));
        s.eliminated[3] = true;
        assert!(!s.is_normalized(&[lit(4)]));
    }

    #[test]
    #[should_panic(expected = "clause mentions a variable removed by bounded variable elimination")]
    fn clause_over_an_eliminated_variable_panics() {
        let mut s = CdclSolver::new();
        s.ensure_vars(3);
        s.eliminated[1] = true;
        s.add_clause(&[lit(1), lit(2), lit(3)]);
    }

    #[test]
    fn model_is_total_even_for_unconstrained_vars() {
        let mut f = CnfFormula::with_vars(5);
        f.add_clause([lit(1)]);
        let mut s = CdclSolver::new();
        s.add_formula(&f);
        let out = s.solve();
        let m = out.model().unwrap();
        assert!(m.is_total());
        assert_eq!(m.num_vars(), 5);
    }
}
