//! Run control and observability: budgets, cancellation, solver events.
//!
//! This module is the contract between long-running solves and the code
//! that supervises them (portfolio runners, benchmark harnesses, the CLI):
//!
//! * [`RunBudget`] — declarative resource limits (wall-clock deadline,
//!   conflict/decision caps, learnt-clause memory cap). Budgets are
//!   *cooperative*: the solver polls them at conflict boundaries, so
//!   overshoot is bounded by the cost of one conflict plus the polling
//!   interval (64 conflicts for the deadline), not by the whole solve.
//! * [`StopReason`] — the typed cause carried by
//!   [`SolveOutcome::Unknown`](crate::SolveOutcome::Unknown), so callers can
//!   distinguish "out of time" from "cancelled because a sibling won".
//! * [`CancellationToken`] — a cheap-to-clone handle for cooperative
//!   cancellation across threads.
//! * [`RunContext`] — the one value bundling configuration, budget,
//!   cancellation, observer, tracer, metrics registry and flight recorder
//!   that every request holds and forwards; it builds wired solvers.
//! * `Telemetry` — a solver's one telemetry sink, filled from the
//!   context by [`RunContext::solver`]. The solver reports each boundary
//!   of a solve to it with one call, and it feeds the registry's
//!   `solver.*` instruments, the flight-recorder ring, the tracer
//!   (bridged onto the solve's span) and the caller's observer.
//! * [`SolverEvent`] / [`RunObserver`] — a typed event stream (restarts,
//!   clause-database reductions, periodic progress with rates and the
//!   learnt-clause LBD trend) delivered to the caller's sink, such as
//!   [`ProgressLogger`] (human-readable lines).
//!
//! # Examples
//!
//! Give a solve two seconds and watch its events:
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use std::time::Duration;
//! use satroute_cnf::{CnfFormula, Lit};
//! use satroute_solver::{RunBudget, RunContext, RunObserver, SolveVerdict, SolverEvent};
//!
//! #[derive(Default)]
//! struct LastVerdict(Mutex<Option<SolveVerdict>>);
//!
//! impl RunObserver for LastVerdict {
//!     fn on_event(&self, event: &SolverEvent) {
//!         if let SolverEvent::Finished { verdict, .. } = event {
//!             *self.0.lock().unwrap() = Some(*verdict);
//!         }
//!     }
//! }
//!
//! let mut f = CnfFormula::new();
//! let a = f.new_var();
//! f.add_clause([Lit::positive(a)]);
//!
//! let last = Arc::new(LastVerdict::default());
//! let ctx = RunContext {
//!     budget: RunBudget::new().with_wall(Duration::from_secs(2)),
//!     observer: Some(last.clone()),
//!     ..RunContext::default()
//! };
//! let mut solver = ctx.solver(0);
//! solver.add_formula(&f);
//! assert!(solver.solve().is_sat());
//! assert_eq!(*last.0.lock().unwrap(), Some(SolveVerdict::Sat));
//! ```

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use satroute_cnf::Lit;
use satroute_obs::{
    Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, SampleCause, SpanId,
    TimelineSample, Tracer,
};

use crate::cdcl::{CdclSolver, SolverConfig, SolverStats};
use crate::preprocess::PREPROCESS_COUNTERS;

/// Conflicts between [`SolverEvent::Progress`] emissions.
const PROGRESS_INTERVAL: u64 = 1024;
/// Conflicts between flight-recorder heartbeat samples (restart, reduce,
/// GC, inprocessing and finish boundaries sample regardless).
const FLIGHT_SAMPLE_INTERVAL: u64 = 256;

/// Why a solve stopped without a SAT/UNSAT answer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StopReason {
    /// A [`CancellationToken`] was triggered.
    Cancelled,
    /// The wall-clock deadline of the [`RunBudget`] passed.
    Deadline,
    /// The conflict cap of the [`RunBudget`] was reached.
    ConflictLimit,
    /// The decision cap of the [`RunBudget`] was reached.
    DecisionLimit,
    /// The learnt-clause memory cap of the [`RunBudget`] was reached.
    MemoryLimit,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::Cancelled => "cancelled",
            StopReason::Deadline => "deadline",
            StopReason::ConflictLimit => "conflict-limit",
            StopReason::DecisionLimit => "decision-limit",
            StopReason::MemoryLimit => "memory-limit",
        };
        f.write_str(s)
    }
}

/// A cooperative cancellation handle.
///
/// Clones share one flag: cancelling any clone cancels them all. The
/// solver polls the token at conflict boundaries and returns
/// [`SolveOutcome::Unknown`](crate::SolveOutcome::Unknown) with
/// [`StopReason::Cancelled`].
///
/// # Examples
///
/// ```
/// use satroute_solver::CancellationToken;
///
/// let token = CancellationToken::new();
/// let clone = token.clone();
/// assert!(!clone.is_cancelled());
/// token.cancel();
/// assert!(clone.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
    parent: Option<Box<CancellationToken>>,
}

impl CancellationToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        CancellationToken::default()
    }

    /// A token that reads cancelled once it or `self` is cancelled, while
    /// cancelling it leaves `self` untouched — so a race can stop its own
    /// jobs without cancelling the caller's token.
    ///
    /// # Examples
    ///
    /// ```
    /// use satroute_solver::CancellationToken;
    ///
    /// let caller = CancellationToken::new();
    /// let race = caller.child();
    /// race.cancel();
    /// assert!(race.is_cancelled() && !caller.is_cancelled());
    ///
    /// let race = caller.child();
    /// caller.cancel();
    /// assert!(race.is_cancelled());
    /// ```
    pub fn child(&self) -> CancellationToken {
        CancellationToken {
            flag: Arc::default(),
            parent: Some(Box::new(self.clone())),
        }
    }

    /// Requests cancellation. Idempotent; there is no un-cancel.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Returns `true` once any clone, or any clone of a parent this token
    /// was made [`child`](CancellationToken::child) of, has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }
}

/// Filter for learnt-clause sharing: which clauses are worth exporting.
///
/// Shared clauses must be *glue* (low LBD) and short, otherwise the import
/// traffic drowns the receivers in junk. The defaults follow the usual
/// parallel-SAT practice (ManySAT-style): LBD ≤ 8, length ≤ 30.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SharingConfig {
    /// Export only clauses whose literal block distance is at most this.
    pub max_lbd: u32,
    /// Export only clauses with at most this many literals.
    pub max_len: usize,
}

impl Default for SharingConfig {
    fn default() -> Self {
        SharingConfig {
            max_lbd: 8,
            max_len: 30,
        }
    }
}

impl SharingConfig {
    /// The default filter (LBD ≤ 8, length ≤ 30).
    pub fn new() -> Self {
        SharingConfig::default()
    }

    /// Sets the LBD threshold.
    pub fn with_max_lbd(mut self, max_lbd: u32) -> Self {
        self.max_lbd = max_lbd;
        self
    }

    /// Sets the length cap.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = max_len;
        self
    }
}

/// A two-way mailbox connecting one solver to its sharing peers.
///
/// The solver calls [`ClauseExchange::export`] at conflict boundaries with
/// each learnt clause that passes its [`SharingConfig`] filter, and
/// [`ClauseExchange::drain`] at restart boundaries (decision level 0) to
/// collect clauses its peers exported since the last restart.
///
/// **Soundness contract:** every clause delivered by `drain` must be a
/// logical consequence of the formula the importing solver is working on.
/// The portfolio runner guarantees this by only connecting members that
/// solve the *same* CNF (same encoding, same symmetry breaking, same k) —
/// learnt clauses are consequences of that shared formula, so importing
/// them preserves the answer.
///
/// Implementations are shared across threads and must return quickly; they
/// sit on the conflict path of every participating solver.
///
/// Delivered clauses are `Arc<[Lit]>` so a bus fanning one export out to
/// many peers clones a pointer per mailbox instead of copying the literal
/// payload per peer.
pub trait ClauseExchange: Send + Sync {
    /// Offers a learnt clause (already filtered by the exporter) to peers.
    fn export(&self, lits: &[Lit], lbd: u32);

    /// Takes every clause peers have offered since the last call.
    fn drain(&self) -> Vec<Arc<[Lit]>>;
}

/// Declarative resource limits for one solve (or one portfolio of solves).
///
/// All limits are optional and combine with "whichever trips first". The
/// default budget is unlimited. Limits are polled at conflict boundaries,
/// so a run can overshoot by a bounded amount (one propagation/analysis
/// cycle; the deadline is additionally polled only every 64 conflicts and
/// every 4096 decisions to keep `Instant::now` off the hot path).
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use satroute_solver::RunBudget;
///
/// let budget = RunBudget::new()
///     .with_wall(Duration::from_secs(2))
///     .with_max_conflicts(1_000_000);
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct RunBudget {
    /// Stop with [`StopReason::ConflictLimit`] after this many conflicts.
    pub max_conflicts: Option<u64>,
    /// Stop with [`StopReason::DecisionLimit`] after this many decisions.
    pub max_decisions: Option<u64>,
    /// Stop with [`StopReason::MemoryLimit`] once the learnt-clause
    /// database holds roughly this many bytes.
    pub max_learnt_bytes: Option<u64>,
    /// Stop with [`StopReason::Deadline`] this long after the solve starts.
    pub wall: Option<Duration>,
    /// Stop with [`StopReason::Deadline`] at this absolute instant
    /// (for sharing one deadline across several runs that start at
    /// slightly different times, e.g. portfolio members).
    pub deadline_at: Option<Instant>,
}

impl RunBudget {
    /// An unlimited budget (same as `RunBudget::default()`).
    pub fn new() -> Self {
        RunBudget::default()
    }

    /// Sets a wall-clock limit relative to the start of each solve.
    pub fn with_wall(mut self, wall: Duration) -> Self {
        self.wall = Some(wall);
        self
    }

    /// Sets an absolute deadline shared by every solve under this budget.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline_at = Some(at);
        self
    }

    /// Sets a conflict cap.
    pub fn with_max_conflicts(mut self, n: u64) -> Self {
        self.max_conflicts = Some(n);
        self
    }

    /// Sets a decision cap.
    pub fn with_max_decisions(mut self, n: u64) -> Self {
        self.max_decisions = Some(n);
        self
    }

    /// Sets an approximate learnt-clause memory cap in bytes.
    pub fn with_max_learnt_bytes(mut self, bytes: u64) -> Self {
        self.max_learnt_bytes = Some(bytes);
        self
    }

    /// `true` if no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_conflicts.is_none()
            && self.max_decisions.is_none()
            && self.max_learnt_bytes.is_none()
            && self.wall.is_none()
            && self.deadline_at.is_none()
    }

    /// Resolves the effective absolute deadline for a solve starting at
    /// `start`: the earlier of `deadline_at` and `start + wall`.
    pub fn deadline(&self, start: Instant) -> Option<Instant> {
        match (self.deadline_at, self.wall.map(|w| start + w)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// Everything that controls one run apart from its input: the solver
/// configuration, the [`RunBudget`], cancellation, the observer and the
/// three telemetry sinks.
///
/// Every request in `satroute_core` (solve, incremental ladder, explain,
/// conquer, portfolio, routing pipeline) holds one context and forwards it
/// unchanged to the requests it spawns, so a caller configures a run the
/// same way whatever the entry point. The default is the classic
/// unlimited, unobserved, untraced search.
///
/// # Examples
///
/// ```
/// use satroute_cnf::{CnfFormula, Lit};
/// use satroute_obs::MetricsRegistry;
/// use satroute_solver::{RunBudget, RunContext};
///
/// let registry = MetricsRegistry::new();
/// let ctx = RunContext {
///     budget: RunBudget::new().with_max_conflicts(1_000),
///     metrics: registry.clone(),
///     ..RunContext::default()
/// };
/// let mut f = CnfFormula::new();
/// let a = f.new_var();
/// f.add_clause([Lit::positive(a)]);
/// let span = ctx.tracer.span("solve");
/// let mut solver = ctx.solver(span.id());
/// solver.add_formula(&f);
/// assert!(solver.solve().is_sat());
/// assert_eq!(registry.snapshot().counter("solver.conflicts"), Some(0));
/// ```
#[derive(Clone, Default)]
pub struct RunContext {
    /// Solver configuration every solve starts from.
    pub config: SolverConfig,
    /// Resource limits, polled at conflict boundaries.
    pub budget: RunBudget,
    /// Cooperative cancellation; `None` means the run cannot be cancelled
    /// from outside.
    pub cancel: Option<CancellationToken>,
    /// The caller's sink for every solve's [`SolverEvent`] stream.
    pub observer: Option<Arc<dyn RunObserver>>,
    /// Span destination; the disabled default records nothing.
    pub tracer: Tracer,
    /// Metrics destination; the disabled default records nothing.
    pub metrics: MetricsRegistry,
    /// Search-state sampling ring; the disabled default records nothing.
    pub flight: FlightRecorder,
}

impl RunContext {
    /// A fresh solver with this context's configuration, budget and
    /// cancellation token, whose telemetry feeds this context's registry,
    /// flight recorder and observer and bridges its tracer onto `span`
    /// (`0` for no span; see
    /// [`CdclSolver::set_trace_span`](crate::CdclSolver::set_trace_span)).
    pub fn solver(&self, span: SpanId) -> CdclSolver {
        let mut solver = CdclSolver::with_config(self.config.clone());
        solver.telemetry = self.telemetry(span);
        solver.set_budget(self.budget);
        if let Some(token) = &self.cancel {
            solver.set_cancellation(token.clone());
        }
        solver
    }

    /// The telemetry sink of one solver: this context's registry, flight
    /// recorder and observer, and its tracer bridged onto `span`.
    fn telemetry(&self, span: SpanId) -> Telemetry {
        let mut telemetry = Telemetry {
            active: false,
            registry: self
                .metrics
                .is_enabled()
                .then(|| SolverInstruments::new(&self.metrics)),
            flight: self.flight.clone(),
            flight_last: None,
            trace: self
                .tracer
                .is_enabled()
                .then(|| (self.tracer.clone(), span)),
            observer: self.observer.clone(),
        };
        telemetry.active = telemetry.registry.is_some() || telemetry.fans_out();
        telemetry
    }
}

impl fmt::Debug for RunContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunContext")
            .field("config", &self.config)
            .field("budget", &self.budget)
            .field("cancelled", &self.cancel.as_ref().map(|c| c.is_cancelled()))
            .field("observed", &self.observer.is_some())
            .field("traced", &self.tracer.is_enabled())
            .field("metered", &self.metrics.is_enabled())
            .field("recorded", &self.flight.is_enabled())
            .finish()
    }
}

/// The verdict part of a [`SolveOutcome`](crate::SolveOutcome), without the
/// model — what observers and metrics carry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveVerdict {
    /// A model was found.
    Sat,
    /// The formula (or formula + assumptions) was refuted.
    Unsat,
    /// The solve stopped early for the given reason.
    Unknown(StopReason),
}

impl fmt::Display for SolveVerdict {
    /// `sat`, `unsat` or `unknown:<reason>` — the `outcome` mark of a
    /// traced solve.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveVerdict::Sat => f.write_str("sat"),
            SolveVerdict::Unsat => f.write_str("unsat"),
            SolveVerdict::Unknown(reason) => write!(f, "unknown:{reason}"),
        }
    }
}

impl SolveVerdict {
    /// The stop reason, when the verdict is [`SolveVerdict::Unknown`].
    pub fn stop_reason(&self) -> Option<StopReason> {
        match self {
            SolveVerdict::Unknown(r) => Some(*r),
            _ => None,
        }
    }
}

/// One point of the solver's event stream.
///
/// Events arrive in a fixed grammar per solve:
/// `Started (Restart | Reduce | Progress | Import | Inprocess)* Finished`, with
/// `Progress` conflict counts nondecreasing and `Restart` numbers
/// increasing by one. `Import` is emitted only when a [`ClauseExchange`]
/// is installed and delivered at least one clause at a restart boundary.
#[derive(Clone, Copy, Debug)]
pub enum SolverEvent {
    /// A solve began.
    Started {
        /// Variables known to the solver.
        num_vars: u32,
        /// Clauses loaded (original, not learnt).
        num_clauses: usize,
    },
    /// The solver restarted (backtracked to level 0 on the Luby schedule).
    Restart {
        /// Restart ordinal (1-based, cumulative across solves).
        restarts: u64,
        /// Conflicts seen so far.
        conflicts: u64,
    },
    /// The learnt-clause database was reduced.
    Reduce {
        /// Learnt clauses before the reduction.
        learnts_before: usize,
        /// Learnt clauses surviving it.
        learnts_after: usize,
        /// Conflicts seen so far.
        conflicts: u64,
    },
    /// Periodic progress (every 1024 conflicts).
    Progress {
        /// Conflicts so far.
        conflicts: u64,
        /// Decisions so far.
        decisions: u64,
        /// Propagations so far.
        propagations: u64,
        /// Exponential moving average of learnt-clause LBD (glue); low and
        /// falling means the solver is learning useful clauses.
        lbd_ema: f64,
        /// Wall time since the solve started.
        elapsed: Duration,
    },
    /// Clauses were imported from sharing peers (restart boundary).
    Import {
        /// Clauses accepted in this batch (after level-0 simplification).
        imported: usize,
        /// Cumulative imported-clause count.
        total_imported: u64,
        /// Conflicts seen so far.
        conflicts: u64,
    },
    /// An inprocessing round finished (solve start or restart boundary,
    /// only when [`SolverConfig::inprocess`](crate::SolverConfig) is
    /// enabled). Counters are cumulative across the solver's lifetime.
    Inprocess {
        /// Rounds run so far.
        runs: u64,
        /// Literals removed by clause vivification.
        vivified_literals: u64,
        /// Clauses deleted by subsumption (including root-satisfied).
        subsumed_clauses: u64,
        /// Clauses strengthened by self-subsuming resolution.
        strengthened_clauses: u64,
        /// Variables removed by bounded variable elimination.
        eliminated_vars: u64,
        /// Conflicts seen so far.
        conflicts: u64,
    },
    /// The solve returned.
    Finished {
        /// SAT / UNSAT / Unknown(reason).
        verdict: SolveVerdict,
        /// Cumulative work counters at the end of the solve.
        stats: SolverStats,
        /// Wall time of this solve.
        elapsed: Duration,
    },
    /// A flight-recorder search-state capture (emitted only when a
    /// [`FlightRecorder`] is attached; conflict-interval heartbeats plus
    /// restart/reduce/GC/finish boundaries).
    Sample {
        /// The captured search state.
        sample: TimelineSample,
    },
}

/// A sink for [`SolverEvent`]s.
///
/// Observers are shared across threads (`Send + Sync`) and invoked from
/// the solving thread; implementations use interior mutability and should
/// return quickly — they sit on the restart/reduce path.
pub trait RunObserver: Send + Sync {
    /// Called by the solver at each event point.
    fn on_event(&self, event: &SolverEvent);
}

/// An observer that writes one human-readable line per event.
///
/// Every line carries the wall time elapsed since the last `Started`
/// event (`[label +1.2s]`), and the writer is flushed after each event so
/// progress stays visible when stderr is redirected to a file. The
/// default sink is standard error; [`ProgressLogger::to_writer`] accepts
/// any `Write + Send` sink (tests use a `Vec<u8>` behind a `Mutex`).
/// Write errors are ignored — progress output must never abort a solve.
///
/// Output is rate-limited: intermediate events (restart, reduce,
/// progress, import) are dropped when less than the configured
/// [minimum interval](ProgressLogger::with_min_interval) — 100 ms by
/// default — has passed since the last emitted line, so a hot solve
/// restarting thousands of times per second cannot drown stderr.
/// Terminal events (`Started`, `Finished`) are always emitted.
pub struct ProgressLogger {
    label: String,
    out: Mutex<Box<dyn Write + Send>>,
    started: Mutex<Option<Instant>>,
    min_interval: Duration,
    last_emit: Mutex<Option<Instant>>,
}

/// Default floor between two emitted intermediate progress lines.
pub const PROGRESS_LOG_MIN_INTERVAL: Duration = Duration::from_millis(100);

impl ProgressLogger {
    /// Logs to standard error with a `label` prefix.
    pub fn stderr(label: impl Into<String>) -> Self {
        ProgressLogger::to_writer(label, Box::new(std::io::stderr()))
    }

    /// Logs to an arbitrary writer.
    pub fn to_writer(label: impl Into<String>, out: Box<dyn Write + Send>) -> Self {
        ProgressLogger {
            label: label.into(),
            out: Mutex::new(out),
            started: Mutex::new(None),
            min_interval: PROGRESS_LOG_MIN_INTERVAL,
            last_emit: Mutex::new(None),
        }
    }

    /// Sets the minimum interval between two emitted intermediate lines
    /// (`Duration::ZERO` disables throttling; tests use this to see
    /// every event).
    #[must_use]
    pub fn with_min_interval(mut self, min_interval: Duration) -> Self {
        self.min_interval = min_interval;
        self
    }
}

impl fmt::Debug for ProgressLogger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgressLogger")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl RunObserver for ProgressLogger {
    fn on_event(&self, event: &SolverEvent) {
        let terminal = matches!(
            event,
            SolverEvent::Started { .. } | SolverEvent::Finished { .. }
        );
        {
            // Throttle intermediate events; terminal events always pass
            // and reset the interval clock.
            let mut last_emit = self.last_emit.lock().expect("logger lock never poisoned");
            let now = Instant::now();
            if !terminal {
                if let Some(last) = *last_emit {
                    if now.duration_since(last) < self.min_interval {
                        return;
                    }
                }
            }
            *last_emit = Some(now);
        }
        let elapsed = {
            let mut started = self.started.lock().expect("logger lock never poisoned");
            if matches!(event, SolverEvent::Started { .. }) {
                *started = Some(Instant::now());
            }
            started.map(|s| s.elapsed()).unwrap_or(Duration::ZERO)
        };
        let mut out = self.out.lock().expect("logger lock never poisoned");
        let tag = format!("[{} +{:.1}s]", self.label, elapsed.as_secs_f64());
        // Ignore write errors: logging must not interfere with solving.
        let _ = match *event {
            SolverEvent::Started {
                num_vars,
                num_clauses,
            } => writeln!(out, "{tag} start: {num_vars} vars, {num_clauses} clauses"),
            SolverEvent::Restart {
                restarts,
                conflicts,
            } => writeln!(out, "{tag} restart #{restarts} at {conflicts} conflicts"),
            SolverEvent::Reduce {
                learnts_before,
                learnts_after,
                conflicts,
            } => writeln!(
                out,
                "{tag} reduce: {learnts_before} -> {learnts_after} learnts at {conflicts} conflicts"
            ),
            SolverEvent::Progress {
                conflicts,
                decisions,
                propagations,
                lbd_ema,
                elapsed,
            } => writeln!(
                out,
                "{tag} {:.1}s: {conflicts} conflicts, {decisions} decisions, {propagations} props, lbd~{lbd_ema:.1}",
                elapsed.as_secs_f64()
            ),
            SolverEvent::Import {
                imported,
                total_imported,
                conflicts,
            } => writeln!(
                out,
                "{tag} import: {imported} shared clauses ({total_imported} total) at {conflicts} conflicts"
            ),
            SolverEvent::Inprocess {
                runs,
                vivified_literals,
                subsumed_clauses,
                strengthened_clauses,
                eliminated_vars,
                conflicts,
            } => writeln!(
                out,
                "{tag} inprocess #{runs} at {conflicts} conflicts: \
                 {vivified_literals} lits vivified, {subsumed_clauses} subsumed, \
                 {strengthened_clauses} strengthened, {eliminated_vars} vars eliminated"
            ),
            SolverEvent::Finished {
                verdict, elapsed, ..
            } => writeln!(
                out,
                "{tag} done in {:.3}s: {verdict:?}",
                elapsed.as_secs_f64()
            ),
            // Recorder-backed line: the sampled phase, the conflict rate
            // over the last sample window, and the learnt-DB breakdown.
            SolverEvent::Sample { sample } => writeln!(
                out,
                "{tag} {}: {:.0} conflicts/s, learnts={} (core {} / mid {} / local {}), lbd~{:.1}",
                sample.cause.as_str(),
                sample.conflicts_per_sec,
                sample.learnts(),
                sample.tier_core,
                sample.tier_mid,
                sample.tier_local,
                sample.lbd_ema,
            ),
        };
        // Flush each line so progress survives redirection to a file.
        let _ = out.flush();
    }
}

/// A point in a solve at which the solver reports to its [`Telemetry`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Boundary {
    /// A solve began over this many variables and original clauses.
    Start {
        num_vars: u32,
        num_clauses: usize,
    },
    /// A clause with this LBD was learnt from a conflict.
    Conflict {
        lbd: u32,
    },
    Restart,
    /// The learnt-clause database was reduced.
    Reduce {
        learnts_before: usize,
        learnts_after: usize,
    },
    /// The clause arena was compacted.
    Gc {
        reclaimed_bytes: u64,
    },
    /// This many peer clauses were imported at a restart boundary.
    Import {
        imported: usize,
    },
    /// An inprocessing round finished.
    Inprocess,
    /// The solve returned after `elapsed`.
    Finish {
        verdict: SolveVerdict,
        elapsed: Duration,
    },
}

impl Boundary {
    /// The flight-recorder sample this boundary takes, if any.
    fn sample_cause(&self, conflicts: u64) -> Option<SampleCause> {
        match self {
            Boundary::Start { .. } | Boundary::Import { .. } => None,
            Boundary::Conflict { .. } => conflicts
                .is_multiple_of(FLIGHT_SAMPLE_INTERVAL)
                .then_some(SampleCause::Conflict),
            Boundary::Restart => Some(SampleCause::Restart),
            Boundary::Reduce { .. } => Some(SampleCause::Reduce),
            Boundary::Gc { .. } => Some(SampleCause::Gc),
            Boundary::Inprocess => Some(SampleCause::Inprocess),
            Boundary::Finish { .. } => Some(SampleCause::Finish),
        }
    }

    /// The [`SolverEvent`] this boundary emits, if any.
    fn event(&self, view: &SearchView) -> Option<SolverEvent> {
        let stats = &view.stats;
        Some(match *self {
            Boundary::Start {
                num_vars,
                num_clauses,
            } => SolverEvent::Started {
                num_vars,
                num_clauses,
            },
            Boundary::Conflict { .. } if stats.conflicts.is_multiple_of(PROGRESS_INTERVAL) => {
                SolverEvent::Progress {
                    conflicts: stats.conflicts,
                    decisions: stats.decisions,
                    propagations: stats.propagations,
                    lbd_ema: view.lbd_ema,
                    elapsed: view.solve_start.map(|s| s.elapsed()).unwrap_or_default(),
                }
            }
            Boundary::Conflict { .. } | Boundary::Gc { .. } => return None,
            Boundary::Restart => SolverEvent::Restart {
                restarts: stats.restarts,
                conflicts: stats.conflicts,
            },
            Boundary::Reduce {
                learnts_before,
                learnts_after,
            } => SolverEvent::Reduce {
                learnts_before,
                learnts_after,
                conflicts: stats.conflicts,
            },
            Boundary::Import { imported } => SolverEvent::Import {
                imported,
                total_imported: stats.imported_clauses,
                conflicts: stats.conflicts,
            },
            Boundary::Inprocess => SolverEvent::Inprocess {
                runs: stats.inprocess_runs,
                vivified_literals: stats.vivified_literals,
                subsumed_clauses: stats.subsumed_clauses,
                strengthened_clauses: stats.strengthened_clauses,
                eliminated_vars: stats.eliminated_vars,
                conflicts: stats.conflicts,
            },
            Boundary::Finish { verdict, elapsed } => SolverEvent::Finished {
                verdict,
                stats: *stats,
                elapsed,
            },
        })
    }
}

/// What the solver shows its [`Telemetry`] at a boundary: the work
/// counters and the search state a flight sample captures.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SearchView {
    pub(crate) stats: SolverStats,
    /// Assigned literals on the trail.
    pub(crate) trail: u64,
    /// Current decision level.
    pub(crate) level: u64,
    /// Live learnt clauses per tier (core, mid, local).
    pub(crate) tiers: [u64; 3],
    pub(crate) arena_live_bytes: u64,
    pub(crate) arena_dead_bytes: u64,
    pub(crate) lbd_ema: f64,
    pub(crate) solve_start: Option<Instant>,
}

/// A solver's one telemetry sink.
///
/// The solver reports each boundary of a solve — start, conflict,
/// restart, reduce, GC, import, inprocessing round and finish — with one
/// call, and the sink feeds up to four subscribers from it:
///
/// * the registry's `solver.*` instruments, resolved once and fed as
///   deltas against the last flushed [`SolverStats`], so
///   per-propagation work costs nothing;
/// * the flight-recorder ring: a [`TimelineSample`] every 256 conflicts
///   and at restart, reduce, GC, inprocessing and finish boundaries —
///   never per propagation;
/// * the tracer, bridged onto the solve's span: heartbeat counters from
///   `Progress`, restart, import and inprocessing counters, every sample,
///   and the final work counters plus an `outcome` mark;
/// * the caller's [`RunObserver`], which sees the [`SolverEvent`] stream
///   (samples included).
///
/// Sampling only reads search state, so no subscriber perturbs the
/// search. With nothing subscribed a boundary costs one branch; with only
/// the registry, a conflict is a direct call with no dynamic dispatch,
/// lock or allocation.
///
/// Filled by [`RunContext::solver`]; the default subscribes nothing.
#[derive(Clone, Default)]
pub(crate) struct Telemetry {
    /// Whether anything is subscribed: the solver's one branch.
    active: bool,
    registry: Option<SolverInstruments>,
    flight: FlightRecorder,
    /// `(conflicts, propagations, at_us)` of the previous flight sample,
    /// from which the next sample's windowed rates are computed.
    flight_last: Option<(u64, u64, u64)>,
    trace: Option<(Tracer, SpanId)>,
    observer: Option<Arc<dyn RunObserver>>,
}

impl Telemetry {
    /// Whether any subscriber is attached.
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// Whether a subscriber beyond the registry is attached.
    fn fans_out(&self) -> bool {
        self.flight.is_enabled() || self.trace.is_some() || self.observer.is_some()
    }

    /// Bridges later boundaries onto `span`; registry deltas and sample
    /// rates carry over.
    pub(crate) fn set_span(&mut self, span: SpanId) {
        if let Some((_, current)) = &mut self.trace {
            *current = span;
        }
    }

    /// Feeds one boundary to every subscriber. Events precede the
    /// boundary's sample, except at finish, where `Finished` closes the
    /// stream.
    pub(crate) fn record(&mut self, at: Boundary, view: &SearchView) {
        if let Some(registry) = &mut self.registry {
            registry.record(&at, view);
        }
        if !self.fans_out() {
            return;
        }
        let sample = match at.sample_cause(view.stats.conflicts) {
            Some(cause) if self.flight.is_enabled() => Some(self.capture(cause, view)),
            _ => None,
        };
        if self.trace.is_none() && self.observer.is_none() {
            return;
        }
        let sample = sample.map(|sample| SolverEvent::Sample { sample });
        let event = at.event(view);
        let ordered = match at {
            Boundary::Finish { .. } => [sample, event],
            _ => [event, sample],
        };
        for event in ordered.iter().flatten() {
            if let Some(observer) = &self.observer {
                observer.on_event(event);
            }
            if let Some((tracer, span)) = &self.trace {
                bridge(tracer, *span, event);
            }
        }
    }

    /// Captures one sample of the search state into the flight ring.
    fn capture(&mut self, cause: SampleCause, view: &SearchView) -> TimelineSample {
        let stats = &view.stats;
        let at_us = view.solve_start.map_or(0, |s| {
            u64::try_from(s.elapsed().as_micros()).unwrap_or(u64::MAX)
        });
        let (mut conflicts_per_sec, mut propagations_per_sec) = (0.0, 0.0);
        if let Some((conflicts0, propagations0, at0)) = self.flight_last {
            if at_us > at0 {
                let window_secs = (at_us - at0) as f64 / 1e6;
                conflicts_per_sec = stats.conflicts.saturating_sub(conflicts0) as f64 / window_secs;
                propagations_per_sec =
                    stats.propagations.saturating_sub(propagations0) as f64 / window_secs;
            }
        }
        self.flight_last = Some((stats.conflicts, stats.propagations, at_us));
        let [tier_core, tier_mid, tier_local] = view.tiers;
        let sample = TimelineSample {
            at_us,
            cause: cause.into(),
            member: self.flight.label(),
            conflicts: stats.conflicts,
            decisions: stats.decisions,
            propagations: stats.propagations,
            restarts: stats.restarts,
            trail: view.trail,
            level: view.level,
            tier_core,
            tier_mid,
            tier_local,
            arena_live_bytes: view.arena_live_bytes,
            arena_dead_bytes: view.arena_dead_bytes,
            lbd_ema: view.lbd_ema,
            conflicts_per_sec,
            propagations_per_sec,
        };
        self.flight.record(&sample);
        sample
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("metered", &self.registry.is_some())
            .field("recorded", &self.flight.is_enabled())
            .field("span", &self.trace.as_ref().map(|(_, span)| *span))
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

/// Writes one event onto `span`: heartbeat counters and the LBD gauge
/// from `Progress`, restart, import and inprocessing counters, samples,
/// and the final work counters plus an `outcome` mark from `Finished`.
fn bridge(tracer: &Tracer, span: SpanId, event: &SolverEvent) {
    let counters = |pairs: &[(&str, u64)]| {
        for &(name, value) in pairs {
            tracer.counter(span, name, value);
        }
    };
    match *event {
        SolverEvent::Started {
            num_vars,
            num_clauses,
        } => counters(&[
            ("num_vars", u64::from(num_vars)),
            ("num_clauses", num_clauses as u64),
        ]),
        SolverEvent::Restart { restarts, .. } => counters(&[("restarts", restarts)]),
        SolverEvent::Reduce { learnts_after, .. } => {
            counters(&[("learnts", learnts_after as u64)]);
        }
        SolverEvent::Progress {
            conflicts,
            decisions,
            propagations,
            lbd_ema,
            ..
        } => {
            counters(&[
                ("conflicts", conflicts),
                ("decisions", decisions),
                ("propagations", propagations),
            ]);
            tracer.gauge(span, "lbd_ema", lbd_ema);
        }
        SolverEvent::Import { total_imported, .. } => {
            counters(&[("imported_clauses", total_imported)]);
        }
        SolverEvent::Inprocess {
            runs,
            vivified_literals,
            subsumed_clauses,
            strengthened_clauses,
            eliminated_vars,
            ..
        } => counters(&[
            ("inprocess_runs", runs),
            ("vivified_literals", vivified_literals),
            ("subsumed_clauses", subsumed_clauses),
            ("strengthened_clauses", strengthened_clauses),
            ("eliminated_vars", eliminated_vars),
        ]),
        SolverEvent::Finished { verdict, stats, .. } => {
            counters(&[
                ("conflicts", stats.conflicts),
                ("decisions", stats.decisions),
                ("propagations", stats.propagations),
            ]);
            tracer.mark(span, "outcome", &verdict.to_string());
        }
        SolverEvent::Sample { sample } => tracer.sample(span, &sample),
    }
}

/// Work counters fed as deltas at conflict, restart, inprocessing and
/// finish boundaries.
const WORK_COUNTERS: [&str; 5] = [
    "solver.conflicts",
    "solver.decisions",
    "solver.propagations",
    "solver.restarts",
    "solver.learnt_clauses",
];

fn work_counts(s: &SolverStats) -> [u64; 5] {
    [
        s.conflicts,
        s.decisions,
        s.propagations,
        s.restarts,
        s.learnt_clauses,
    ]
}

/// Inprocessing counters fed as deltas at round boundaries.
const INPROCESS_COUNTERS: [&str; 5] = [
    "solver.inprocess.runs",
    "solver.inprocess.vivified_literals",
    "solver.inprocess.subsumed_clauses",
    "solver.inprocess.strengthened_clauses",
    "solver.inprocess.eliminated_vars",
];

fn inprocess_counts(s: &SolverStats) -> [u64; 5] {
    [
        s.inprocess_runs,
        s.vivified_literals,
        s.subsumed_clauses,
        s.strengthened_clauses,
        s.eliminated_vars,
    ]
}

/// Clause-store gauges set at reduce, GC and finish boundaries.
const STORE_GAUGES: [&str; 5] = [
    "solver.arena.live_bytes",
    "solver.arena.dead_bytes",
    "solver.tier.core",
    "solver.tier.mid",
    "solver.tier.local",
];

fn store_levels(view: &SearchView) -> [u64; 5] {
    let [core, mid, local] = view.tiers;
    [
        view.arena_live_bytes,
        view.arena_dead_bytes,
        core,
        mid,
        local,
    ]
}

/// The registry's `solver.*` instruments, resolved once so the hot path
/// never touches the registry's name maps. Besides the families above:
/// `solver.lbd` (histogram of learnt-clause glue),
/// `solver.restart_interval` (histogram of conflicts between restarts),
/// `solver.arena.gc_runs` and `solver.arena.reclaimed_bytes` (counters).
#[derive(Clone)]
struct SolverInstruments {
    work: [Counter; 5],
    inprocess: [Counter; 5],
    store: [Gauge; 5],
    lbd: Histogram,
    restart_interval: Histogram,
    gc_runs: Counter,
    reclaimed_bytes: Counter,
    /// The stats at the last flush.
    last: SolverStats,
    last_restart_conflicts: u64,
}

impl SolverInstruments {
    fn new(registry: &MetricsRegistry) -> Self {
        // Listed at zero until a pass records into them, so a metered
        // run always reports the `preprocess.*` family.
        for name in PREPROCESS_COUNTERS {
            let _ = registry.counter(name);
        }
        SolverInstruments {
            work: WORK_COUNTERS.map(|name| registry.counter(name)),
            inprocess: INPROCESS_COUNTERS.map(|name| registry.counter(name)),
            store: STORE_GAUGES.map(|name| registry.gauge(name)),
            lbd: registry.histogram("solver.lbd"),
            restart_interval: registry.histogram("solver.restart_interval"),
            gc_runs: registry.counter("solver.arena.gc_runs"),
            reclaimed_bytes: registry.counter("solver.arena.reclaimed_bytes"),
            last: SolverStats::default(),
            last_restart_conflicts: 0,
        }
    }

    fn record(&mut self, at: &Boundary, view: &SearchView) {
        let stats = &view.stats;
        match *at {
            Boundary::Conflict { lbd } => {
                self.lbd.record(u64::from(lbd));
                self.flush(stats);
            }
            Boundary::Restart => {
                self.restart_interval
                    .record(stats.conflicts.saturating_sub(self.last_restart_conflicts));
                self.last_restart_conflicts = stats.conflicts;
                self.flush(stats);
            }
            Boundary::Inprocess => {
                let then = inprocess_counts(&self.last);
                for ((counter, now), then) in
                    self.inprocess.iter().zip(inprocess_counts(stats)).zip(then)
                {
                    counter.add(now.saturating_sub(then));
                }
                self.flush(stats);
            }
            Boundary::Gc { reclaimed_bytes } => {
                self.gc_runs.inc();
                self.reclaimed_bytes.add(reclaimed_bytes);
                self.set_store(view);
            }
            Boundary::Reduce { .. } => self.set_store(view),
            Boundary::Finish { .. } => {
                self.flush(stats);
                self.set_store(view);
            }
            Boundary::Start { .. } | Boundary::Import { .. } => {}
        }
    }

    fn flush(&mut self, stats: &SolverStats) {
        let then = work_counts(&self.last);
        for ((counter, now), then) in self.work.iter().zip(work_counts(stats)).zip(then) {
            counter.add(now.saturating_sub(then));
        }
        self.last = *stats;
    }

    fn set_store(&self, view: &SearchView) {
        for (gauge, level) in self.store.iter().zip(store_levels(view)) {
            gauge.set(level as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancellation_token_clones_share_state() {
        let t = CancellationToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled() && !c.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled() && c.is_cancelled());
    }

    #[test]
    fn budget_deadline_resolution_takes_the_earlier() {
        let start = Instant::now();
        let b = RunBudget::new().with_wall(Duration::from_secs(10));
        assert_eq!(b.deadline(start), Some(start + Duration::from_secs(10)));

        let sooner = start + Duration::from_secs(1);
        let b = b.with_deadline_at(sooner);
        assert_eq!(b.deadline(start), Some(sooner));

        assert!(RunBudget::new().deadline(start).is_none());
        assert!(RunBudget::new().is_unlimited());
        assert!(!RunBudget::new().with_max_decisions(5).is_unlimited());
    }

    /// A writer whose bytes the test can read back.
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn progress_logger_writes_lines() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let logger = ProgressLogger::to_writer("t", Box::new(Shared(buf.clone())))
            .with_min_interval(Duration::ZERO);
        logger.on_event(&SolverEvent::Started {
            num_vars: 3,
            num_clauses: 4,
        });
        logger.on_event(&SolverEvent::Restart {
            restarts: 2,
            conflicts: 200,
        });
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(text.contains("[t +0.0s] start: 3 vars"), "{text}");
        assert!(text.contains("restart #2 at 200 conflicts"), "{text}");
        // Every line carries the elapsed-since-start tag.
        assert!(text.lines().all(|l| l.starts_with("[t +")), "{text}");
    }

    #[test]
    fn progress_logger_throttles_intermediate_events() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        // A one-hour interval: nothing intermediate can pass after Started.
        let logger = ProgressLogger::to_writer("t", Box::new(Shared(buf.clone())))
            .with_min_interval(Duration::from_secs(3600));
        logger.on_event(&SolverEvent::Started {
            num_vars: 1,
            num_clauses: 1,
        });
        for n in 1..=100 {
            logger.on_event(&SolverEvent::Restart {
                restarts: n,
                conflicts: n,
            });
        }
        logger.on_event(&SolverEvent::Finished {
            verdict: SolveVerdict::Sat,
            stats: SolverStats::default(),
            elapsed: Duration::from_millis(1),
        });
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        // Terminal events always land; the 100 restarts are dropped.
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.contains("start:"), "{text}");
        assert!(text.contains("done in"), "{text}");
    }

    #[test]
    fn stop_reason_displays_kebab_case() {
        assert_eq!(StopReason::Deadline.to_string(), "deadline");
        assert_eq!(StopReason::ConflictLimit.to_string(), "conflict-limit");
        assert_eq!(
            SolveVerdict::Unknown(StopReason::Deadline).to_string(),
            "unknown:deadline"
        );
    }
}
