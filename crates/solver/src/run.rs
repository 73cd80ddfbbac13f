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
//!   that every request holds and forwards; it builds wired solvers and
//!   composes per-solve observers.
//! * [`SolverEvent`] / [`RunObserver`] — a typed event stream (restarts,
//!   clause-database reductions, periodic progress with rates and the
//!   learnt-clause LBD trend) delivered to pluggable sinks:
//!   [`NullObserver`], [`MetricsRecorder`] (aggregates into
//!   [`RunMetrics`]), and [`ProgressLogger`] (human-readable lines).
//!
//! # Examples
//!
//! Give a solve two seconds and record its metrics:
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use satroute_cnf::{CnfFormula, Lit};
//! use satroute_solver::{CdclSolver, MetricsRecorder, RunBudget};
//!
//! let mut f = CnfFormula::new();
//! let a = f.new_var();
//! f.add_clause([Lit::positive(a)]);
//!
//! let recorder = Arc::new(MetricsRecorder::new());
//! let mut solver = CdclSolver::new();
//! solver.set_budget(RunBudget::new().with_wall(Duration::from_secs(2)));
//! solver.set_observer(recorder.clone());
//! solver.add_formula(&f);
//! assert!(solver.solve().is_sat());
//! let metrics = recorder.snapshot();
//! assert_eq!(metrics.sat, Some(true));
//! assert!(metrics.stop_reason.is_none());
//! ```

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use satroute_cnf::Lit;
use satroute_obs::{
    Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, SpanId, TimelineSample, Tracer,
};

use crate::cdcl::{CdclSolver, SolverConfig, SolverStats};
use crate::preprocess::PreprocessStats;

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
}

impl CancellationToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        CancellationToken::default()
    }

    /// Requests cancellation. Idempotent; there is no un-cancel.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Returns `true` once any clone has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
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
/// use std::sync::Arc;
/// use satroute_cnf::{CnfFormula, Lit};
/// use satroute_solver::{MetricsRecorder, RunBudget, RunContext};
///
/// let recorder = Arc::new(MetricsRecorder::new());
/// let ctx = RunContext {
///     budget: RunBudget::new().with_max_conflicts(1_000),
///     observer: Some(recorder.clone()),
///     ..RunContext::default()
/// };
/// let mut f = CnfFormula::new();
/// let a = f.new_var();
/// f.add_clause([Lit::positive(a)]);
/// let span = ctx.tracer.span("solve");
/// let mut solver = ctx.solver();
/// solver.set_observer(ctx.observer_on(span.id(), []));
/// solver.add_formula(&f);
/// assert!(solver.solve().is_sat());
/// assert_eq!(recorder.snapshot().sat, Some(true));
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
    /// A fresh solver with this context's configuration, budget,
    /// cancellation token, metrics registry and flight recorder attached.
    /// The observer is left to [`RunContext::observer_on`], since each
    /// solve bridges events onto its own span.
    pub fn solver(&self) -> CdclSolver {
        let mut solver = CdclSolver::with_config(self.config.clone());
        solver.set_metrics(&self.metrics);
        solver.set_flight(&self.flight);
        solver.set_budget(self.budget);
        if let Some(token) = &self.cancel {
            solver.set_cancellation(token.clone());
        }
        solver
    }

    /// The observer for one solve: the caller's `extras` (in order), then
    /// the context's observer, then a [`TraceObserver`] on `span` when the
    /// tracer is enabled.
    pub fn observer_on(
        &self,
        span: SpanId,
        extras: impl IntoIterator<Item = Arc<dyn RunObserver>>,
    ) -> Arc<dyn RunObserver> {
        let mut fanout = extras
            .into_iter()
            .fold(FanoutObserver::new(), FanoutObserver::with);
        if let Some(user) = &self.observer {
            fanout = fanout.with(user.clone());
        }
        if self.tracer.is_enabled() {
            fanout = fanout.with(Arc::new(TraceObserver::new(self.tracer.clone(), span)));
        }
        Arc::new(fanout)
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

/// An observer that discards every event.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl RunObserver for NullObserver {
    fn on_event(&self, _event: &SolverEvent) {}
}

/// Aggregated measurements of one run, assembled by [`MetricsRecorder`]
/// (and re-used as the machine-readable record the benchmark harness
/// serializes).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Wall time of the solve (zero until `Finished` arrives).
    pub wall_time: Duration,
    /// Final work counters.
    pub stats: SolverStats,
    /// Why the run stopped early, if it did.
    pub stop_reason: Option<StopReason>,
    /// `Some(true)` on SAT, `Some(false)` on UNSAT, `None` on Unknown.
    pub sat: Option<bool>,
    /// Restart events observed.
    pub restarts: u64,
    /// Clause-database reductions observed.
    pub reductions: u64,
    /// Progress events observed.
    pub progress_samples: u64,
    /// Import events observed (batches, not clauses; clause totals live in
    /// [`SolverStats::imported_clauses`]).
    pub import_batches: u64,
    /// Inprocessing rounds observed (simplification totals live in
    /// [`SolverStats`]: `vivified_literals`, `subsumed_clauses`,
    /// `strengthened_clauses`, `eliminated_vars`).
    pub inprocess_rounds: u64,
    /// Flight-recorder samples observed.
    pub timeline_samples: u64,
    /// Last observed LBD moving average (0 if no clause was learnt).
    pub lbd_ema: f64,
    /// Pre-solve simplification counters, when the run preprocessed its
    /// formula (all zero otherwise — preprocessing is opt-in and skipped
    /// under assumptions or proof logging).
    pub preprocess: PreprocessStats,
}

impl RunMetrics {
    /// Conflicts per second of wall time (0 for a zero-duration run).
    pub fn conflicts_per_sec(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs > 0.0 {
            self.stats.conflicts as f64 / secs
        } else {
            0.0
        }
    }

    /// Propagations per second of wall time (0 for a zero-duration run).
    pub fn propagations_per_sec(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs > 0.0 {
            self.stats.propagations as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean LBD over all learnt clauses (0 if none).
    pub fn mean_lbd(&self) -> f64 {
        if self.stats.learnt_clauses > 0 {
            self.stats.sum_lbd as f64 / self.stats.learnt_clauses as f64
        } else {
            0.0
        }
    }

    /// Clauses this run exported to sharing peers.
    pub fn exported_clauses(&self) -> u64 {
        self.stats.exported_clauses
    }

    /// Clauses this run imported from sharing peers.
    pub fn imported_clauses(&self) -> u64 {
        self.stats.imported_clauses
    }
}

/// An observer that aggregates the event stream into [`RunMetrics`].
///
/// When one recorder observes several consecutive solves (e.g. the probes
/// of an incremental width search), the snapshot reflects the latest
/// `Finished` event plus cumulative restart/reduce/progress counts.
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    inner: Mutex<RunMetrics>,
}

impl MetricsRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// The metrics observed so far.
    pub fn snapshot(&self) -> RunMetrics {
        *self.inner.lock().expect("metrics lock never poisoned")
    }
}

impl RunObserver for MetricsRecorder {
    fn on_event(&self, event: &SolverEvent) {
        let mut m = self.inner.lock().expect("metrics lock never poisoned");
        match *event {
            SolverEvent::Started { .. } => {}
            SolverEvent::Restart { .. } => m.restarts += 1,
            SolverEvent::Reduce { .. } => m.reductions += 1,
            SolverEvent::Progress { lbd_ema, .. } => {
                m.progress_samples += 1;
                m.lbd_ema = lbd_ema;
            }
            SolverEvent::Import { .. } => m.import_batches += 1,
            SolverEvent::Inprocess { .. } => m.inprocess_rounds += 1,
            SolverEvent::Sample { .. } => m.timeline_samples += 1,
            SolverEvent::Finished {
                verdict,
                stats,
                elapsed,
            } => {
                m.wall_time = elapsed;
                m.stats = stats;
                m.stop_reason = verdict.stop_reason();
                m.sat = match verdict {
                    SolveVerdict::Sat => Some(true),
                    SolveVerdict::Unsat => Some(false),
                    SolveVerdict::Unknown(_) => None,
                };
            }
        }
    }
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

/// An observer that bridges the solver's event stream into a trace span:
/// heartbeat measurements from `Progress`, import/restart counters, and
/// final work counters plus an `outcome` mark from `Finished`.
///
/// The portfolio runner attaches one per member span, so a recorded trace
/// can report conflicts, decisions and propagations (and props/sec) per
/// member.
pub struct TraceObserver {
    tracer: Tracer,
    span: SpanId,
}

impl TraceObserver {
    /// Bridges events onto `span` of `tracer`.
    pub fn new(tracer: Tracer, span: SpanId) -> Self {
        TraceObserver { tracer, span }
    }
}

impl fmt::Debug for TraceObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceObserver")
            .field("span", &self.span)
            .finish()
    }
}

impl RunObserver for TraceObserver {
    fn on_event(&self, event: &SolverEvent) {
        let span = self.span;
        match *event {
            SolverEvent::Started {
                num_vars,
                num_clauses,
            } => {
                self.tracer.counter(span, "num_vars", num_vars as u64);
                self.tracer.counter(span, "num_clauses", num_clauses as u64);
            }
            SolverEvent::Restart { restarts, .. } => {
                self.tracer.counter(span, "restarts", restarts);
            }
            SolverEvent::Reduce { learnts_after, .. } => {
                self.tracer.counter(span, "learnts", learnts_after as u64);
            }
            SolverEvent::Progress {
                conflicts,
                decisions,
                propagations,
                lbd_ema,
                ..
            } => {
                self.tracer.counter(span, "conflicts", conflicts);
                self.tracer.counter(span, "decisions", decisions);
                self.tracer.counter(span, "propagations", propagations);
                self.tracer.gauge(span, "lbd_ema", lbd_ema);
            }
            SolverEvent::Import { total_imported, .. } => {
                self.tracer
                    .counter(span, "imported_clauses", total_imported);
            }
            SolverEvent::Inprocess {
                runs,
                vivified_literals,
                subsumed_clauses,
                strengthened_clauses,
                eliminated_vars,
                ..
            } => {
                self.tracer.counter(span, "inprocess_runs", runs);
                self.tracer
                    .counter(span, "vivified_literals", vivified_literals);
                self.tracer
                    .counter(span, "subsumed_clauses", subsumed_clauses);
                self.tracer
                    .counter(span, "strengthened_clauses", strengthened_clauses);
                self.tracer
                    .counter(span, "eliminated_vars", eliminated_vars);
            }
            SolverEvent::Finished { verdict, stats, .. } => {
                self.tracer.counter(span, "conflicts", stats.conflicts);
                self.tracer.counter(span, "decisions", stats.decisions);
                self.tracer
                    .counter(span, "propagations", stats.propagations);
                let outcome = match verdict {
                    SolveVerdict::Sat => "sat".to_string(),
                    SolveVerdict::Unsat => "unsat".to_string(),
                    SolveVerdict::Unknown(reason) => format!("unknown:{reason}"),
                };
                self.tracer.mark(span, "outcome", &outcome);
            }
            SolverEvent::Sample { sample } => {
                self.tracer.sample(span, &sample);
            }
        }
    }
}

/// Fans one event stream out to several observers, in order.
#[derive(Clone, Default)]
pub struct FanoutObserver {
    sinks: Vec<Arc<dyn RunObserver>>,
}

impl FanoutObserver {
    /// Creates an empty fanout (equivalent to [`NullObserver`]).
    pub fn new() -> Self {
        FanoutObserver::default()
    }

    /// Adds a sink; events are delivered in insertion order.
    pub fn with(mut self, sink: Arc<dyn RunObserver>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl fmt::Debug for FanoutObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FanoutObserver")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl RunObserver for FanoutObserver {
    fn on_event(&self, event: &SolverEvent) {
        for sink in &self.sinks {
            sink.on_event(event);
        }
    }
}

/// Pre-resolved [`MetricsRegistry`] handles for the CDCL hot path.
///
/// The solver owns one hub and calls it at conflict, restart and finish
/// boundaries; each call is a single `enabled` branch when metrics are
/// off. Counters are fed as *deltas* against the last flushed
/// [`SolverStats`], so per-propagation work costs nothing — the
/// propagation count reaches the registry in one relaxed add per
/// conflict instead of one per propagated literal.
///
/// Instrument names (shared by every solver feeding one registry):
/// `solver.conflicts`, `solver.decisions`, `solver.propagations`,
/// `solver.restarts`, `solver.learnt_clauses` (counters),
/// `solver.lbd` (histogram of learnt-clause glue) and
/// `solver.restart_interval` (histogram of conflicts between restarts).
///
/// Clause-store instruments, fed at reduce/GC/finish boundaries from
/// [`StoreSnapshot`]s: `solver.arena.live_bytes`, `solver.arena.dead_bytes`,
/// `solver.tier.core`, `solver.tier.mid`, `solver.tier.local` (gauges),
/// `solver.arena.gc_runs` and `solver.arena.reclaimed_bytes` (counters).
///
/// Inprocessing instruments, fed at round boundaries by
/// [`SolverMetricsHub::on_inprocess`]: `solver.inprocess.runs`,
/// `solver.inprocess.vivified_literals`, `solver.inprocess.subsumed_clauses`,
/// `solver.inprocess.strengthened_clauses` and
/// `solver.inprocess.eliminated_vars` (counters).
#[derive(Clone, Default)]
pub struct SolverMetricsHub {
    enabled: bool,
    conflicts: Counter,
    decisions: Counter,
    propagations: Counter,
    restarts: Counter,
    learnt_clauses: Counter,
    lbd: Histogram,
    restart_interval: Histogram,
    arena_live_bytes: Gauge,
    arena_dead_bytes: Gauge,
    arena_gc_runs: Counter,
    arena_reclaimed_bytes: Counter,
    tier_core: Gauge,
    tier_mid: Gauge,
    tier_local: Gauge,
    inprocess_runs: Counter,
    inprocess_vivified_literals: Counter,
    inprocess_subsumed_clauses: Counter,
    inprocess_strengthened_clauses: Counter,
    inprocess_eliminated_vars: Counter,
    preprocess_units: Counter,
    preprocess_pure_literals: Counter,
    preprocess_removed_clauses: Counter,
    preprocess_removed_literals: Counter,
    last: SolverStats,
    last_restart_conflicts: u64,
}

/// A point-in-time view of the solver's clause store, produced by the
/// solver at reduce/GC/finish boundaries and folded into the registry by
/// [`SolverMetricsHub::on_store`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Bytes occupied by live clauses in the arena.
    pub live_bytes: u64,
    /// Bytes occupied by deleted clauses awaiting compaction.
    pub dead_bytes: u64,
    /// Live learnt clauses in the core tier (LBD ≤ 3, kept forever under
    /// the tiered policy).
    pub tier_core: u64,
    /// Live learnt clauses in the mid tier.
    pub tier_mid: u64,
    /// Live learnt clauses in the local tier.
    pub tier_local: u64,
}

impl SolverMetricsHub {
    /// A hub that records nothing (one branch per call).
    pub fn disabled() -> Self {
        SolverMetricsHub::default()
    }

    /// Resolves the `solver.*` instruments of `registry` once, so the
    /// hot path never touches the registry's name maps.
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        SolverMetricsHub {
            enabled: registry.is_enabled(),
            conflicts: registry.counter("solver.conflicts"),
            decisions: registry.counter("solver.decisions"),
            propagations: registry.counter("solver.propagations"),
            restarts: registry.counter("solver.restarts"),
            learnt_clauses: registry.counter("solver.learnt_clauses"),
            lbd: registry.histogram("solver.lbd"),
            restart_interval: registry.histogram("solver.restart_interval"),
            arena_live_bytes: registry.gauge("solver.arena.live_bytes"),
            arena_dead_bytes: registry.gauge("solver.arena.dead_bytes"),
            arena_gc_runs: registry.counter("solver.arena.gc_runs"),
            arena_reclaimed_bytes: registry.counter("solver.arena.reclaimed_bytes"),
            tier_core: registry.gauge("solver.tier.core"),
            tier_mid: registry.gauge("solver.tier.mid"),
            tier_local: registry.gauge("solver.tier.local"),
            inprocess_runs: registry.counter("solver.inprocess.runs"),
            inprocess_vivified_literals: registry.counter("solver.inprocess.vivified_literals"),
            inprocess_subsumed_clauses: registry.counter("solver.inprocess.subsumed_clauses"),
            inprocess_strengthened_clauses: registry
                .counter("solver.inprocess.strengthened_clauses"),
            inprocess_eliminated_vars: registry.counter("solver.inprocess.eliminated_vars"),
            preprocess_units: registry.counter("preprocess.units"),
            preprocess_pure_literals: registry.counter("preprocess.pure_literals"),
            preprocess_removed_clauses: registry.counter("preprocess.removed_clauses"),
            preprocess_removed_literals: registry.counter("preprocess.removed_literals"),
            last: SolverStats::default(),
            last_restart_conflicts: 0,
        }
    }

    /// Whether this hub feeds a live registry.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Called once per learnt conflict with the clause's LBD and the
    /// solver's cumulative stats.
    #[inline]
    pub fn on_conflict(&mut self, lbd: u32, stats: &SolverStats) {
        if !self.enabled {
            return;
        }
        self.lbd.record(u64::from(lbd));
        self.flush_deltas(stats);
    }

    /// Called at each restart boundary; records the conflict interval
    /// since the previous restart.
    pub fn on_restart(&mut self, stats: &SolverStats) {
        if !self.enabled {
            return;
        }
        self.restart_interval
            .record(stats.conflicts.saturating_sub(self.last_restart_conflicts));
        self.last_restart_conflicts = stats.conflicts;
        self.flush_deltas(stats);
    }

    /// Called when a solve returns, flushing any unflushed tail of the
    /// work counters.
    pub fn on_finish(&mut self, stats: &SolverStats) {
        if !self.enabled {
            return;
        }
        self.flush_deltas(stats);
    }

    /// Folds a clause-store snapshot into the arena/tier gauges. Called at
    /// reduce, GC and finish boundaries — never per conflict.
    pub fn on_store(&mut self, snap: &StoreSnapshot) {
        if !self.enabled {
            return;
        }
        self.arena_live_bytes.set(snap.live_bytes as f64);
        self.arena_dead_bytes.set(snap.dead_bytes as f64);
        self.tier_core.set(snap.tier_core as f64);
        self.tier_mid.set(snap.tier_mid as f64);
        self.tier_local.set(snap.tier_local as f64);
    }

    /// Folds one pre-solve preprocessing pass into the `preprocess.*`
    /// counters. Unlike the solver-fed methods this is called from
    /// *outside* the solver (the pass runs before a solver exists), once
    /// per pass with that pass's totals.
    pub fn on_preprocess(&mut self, stats: &PreprocessStats) {
        if !self.enabled {
            return;
        }
        self.preprocess_units.add(stats.units as u64);
        self.preprocess_pure_literals
            .add(stats.pure_literals as u64);
        self.preprocess_removed_clauses
            .add(stats.removed_clauses as u64);
        self.preprocess_removed_literals
            .add(stats.removed_literals as u64);
    }

    /// Called at the end of each inprocessing round; feeds the
    /// `solver.inprocess.*` counters as deltas (alongside the regular
    /// work counters, which an inprocessing round also advances through
    /// its unit propagations).
    pub fn on_inprocess(&mut self, stats: &SolverStats) {
        if !self.enabled {
            return;
        }
        self.inprocess_runs.add(
            stats
                .inprocess_runs
                .saturating_sub(self.last.inprocess_runs),
        );
        self.inprocess_vivified_literals.add(
            stats
                .vivified_literals
                .saturating_sub(self.last.vivified_literals),
        );
        self.inprocess_subsumed_clauses.add(
            stats
                .subsumed_clauses
                .saturating_sub(self.last.subsumed_clauses),
        );
        self.inprocess_strengthened_clauses.add(
            stats
                .strengthened_clauses
                .saturating_sub(self.last.strengthened_clauses),
        );
        self.inprocess_eliminated_vars.add(
            stats
                .eliminated_vars
                .saturating_sub(self.last.eliminated_vars),
        );
        self.flush_deltas(stats);
    }

    /// Called after each compacting GC with the bytes it reclaimed and the
    /// post-collection store snapshot.
    pub fn on_gc(&mut self, reclaimed_bytes: u64, snap: &StoreSnapshot) {
        if !self.enabled {
            return;
        }
        self.arena_gc_runs.inc();
        self.arena_reclaimed_bytes.add(reclaimed_bytes);
        self.on_store(snap);
    }

    fn flush_deltas(&mut self, stats: &SolverStats) {
        self.conflicts
            .add(stats.conflicts.saturating_sub(self.last.conflicts));
        self.decisions
            .add(stats.decisions.saturating_sub(self.last.decisions));
        self.propagations
            .add(stats.propagations.saturating_sub(self.last.propagations));
        self.restarts
            .add(stats.restarts.saturating_sub(self.last.restarts));
        self.learnt_clauses.add(
            stats
                .learnt_clauses
                .saturating_sub(self.last.learnt_clauses),
        );
        self.last = *stats;
    }
}

impl fmt::Debug for SolverMetricsHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverMetricsHub")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

/// An observer that folds the event stream into a [`MetricsRegistry`]
/// under a caller-chosen name prefix.
///
/// Where [`SolverMetricsHub`] rides inside one solver, this observer
/// attaches from the outside — the portfolio runner hangs one per
/// member (prefix `portfolio.member_<i>.`) so a shared registry ends up
/// with per-member conflict/propagation totals, wall-time histograms
/// and outcome counts without touching solver internals.
pub struct RegistryObserver {
    wall_time_us: Histogram,
    conflicts: Counter,
    decisions: Counter,
    propagations: Counter,
    restarts: Counter,
    import_batches: Counter,
    imported_clauses: Counter,
    exported_clauses: Counter,
    props_per_sec: Gauge,
    sat: Counter,
    unsat: Counter,
    unknown: Counter,
}

impl RegistryObserver {
    /// Resolves this observer's instruments under `prefix` (e.g.
    /// `"portfolio.member_0."`; the empty string puts them at the root).
    pub fn new(registry: &MetricsRegistry, prefix: &str) -> Self {
        let name = |suffix: &str| format!("{prefix}{suffix}");
        RegistryObserver {
            wall_time_us: registry.histogram(&name("wall_time_us")),
            conflicts: registry.counter(&name("conflicts")),
            decisions: registry.counter(&name("decisions")),
            propagations: registry.counter(&name("propagations")),
            restarts: registry.counter(&name("restarts")),
            import_batches: registry.counter(&name("import_batches")),
            imported_clauses: registry.counter(&name("imported_clauses")),
            exported_clauses: registry.counter(&name("exported_clauses")),
            props_per_sec: registry.gauge(&name("props_per_sec")),
            sat: registry.counter(&name("outcome.sat")),
            unsat: registry.counter(&name("outcome.unsat")),
            unknown: registry.counter(&name("outcome.unknown")),
        }
    }
}

impl fmt::Debug for RegistryObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegistryObserver").finish_non_exhaustive()
    }
}

impl RunObserver for RegistryObserver {
    fn on_event(&self, event: &SolverEvent) {
        match *event {
            SolverEvent::Import { .. } => self.import_batches.inc(),
            SolverEvent::Finished {
                verdict,
                stats,
                elapsed,
            } => {
                self.conflicts.add(stats.conflicts);
                self.decisions.add(stats.decisions);
                self.propagations.add(stats.propagations);
                self.restarts.add(stats.restarts);
                self.imported_clauses.add(stats.imported_clauses);
                self.exported_clauses.add(stats.exported_clauses);
                let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
                self.wall_time_us.record(micros);
                let secs = elapsed.as_secs_f64();
                if secs > 0.0 {
                    #[allow(clippy::cast_precision_loss)]
                    self.props_per_sec.set(stats.propagations as f64 / secs);
                }
                match verdict {
                    SolveVerdict::Sat => self.sat.inc(),
                    SolveVerdict::Unsat => self.unsat.inc(),
                    SolveVerdict::Unknown(_) => self.unknown.inc(),
                }
            }
            _ => {}
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

    #[test]
    fn metrics_recorder_aggregates_stream() {
        let r = MetricsRecorder::new();
        r.on_event(&SolverEvent::Started {
            num_vars: 3,
            num_clauses: 4,
        });
        r.on_event(&SolverEvent::Restart {
            restarts: 1,
            conflicts: 100,
        });
        r.on_event(&SolverEvent::Progress {
            conflicts: 1024,
            decisions: 2000,
            propagations: 9000,
            lbd_ema: 3.5,
            elapsed: Duration::from_millis(20),
        });
        let stats = SolverStats {
            conflicts: 1500,
            propagations: 12000,
            ..Default::default()
        };
        r.on_event(&SolverEvent::Finished {
            verdict: SolveVerdict::Unknown(StopReason::Deadline),
            stats,
            elapsed: Duration::from_millis(500),
        });
        let m = r.snapshot();
        assert_eq!(m.restarts, 1);
        assert_eq!(m.progress_samples, 1);
        assert_eq!(m.lbd_ema, 3.5);
        assert_eq!(m.stop_reason, Some(StopReason::Deadline));
        assert_eq!(m.sat, None);
        assert_eq!(m.stats.conflicts, 1500);
        assert!(m.conflicts_per_sec() > 0.0);
        assert!(m.propagations_per_sec() > m.conflicts_per_sec());
    }

    #[test]
    fn progress_logger_writes_lines() {
        use std::sync::OnceLock;
        static BUF: OnceLock<Arc<Mutex<Vec<u8>>>> = OnceLock::new();
        let buf = BUF.get_or_init(|| Arc::new(Mutex::new(Vec::new()))).clone();

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
    fn solver_metrics_hub_flushes_deltas() {
        let registry = MetricsRegistry::new();
        let mut hub = SolverMetricsHub::from_registry(&registry);
        assert!(hub.is_enabled());

        let mut stats = SolverStats {
            conflicts: 1,
            decisions: 10,
            propagations: 100,
            learnt_clauses: 1,
            ..Default::default()
        };
        hub.on_conflict(3, &stats);
        stats.conflicts = 2;
        stats.decisions = 25;
        stats.propagations = 450;
        stats.learnt_clauses = 2;
        hub.on_conflict(7, &stats);
        stats.restarts = 1;
        hub.on_restart(&stats);
        stats.propagations = 500;
        hub.on_finish(&stats);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("solver.conflicts"), Some(2));
        assert_eq!(snap.counter("solver.decisions"), Some(25));
        assert_eq!(snap.counter("solver.propagations"), Some(500));
        assert_eq!(snap.counter("solver.restarts"), Some(1));
        assert_eq!(snap.counter("solver.learnt_clauses"), Some(2));
        let lbd = snap.histogram("solver.lbd").unwrap();
        assert_eq!(lbd.count(), 2);
        assert_eq!(lbd.max(), 7);
        // The restart happened 2 conflicts in.
        let interval = snap.histogram("solver.restart_interval").unwrap();
        assert_eq!(interval.count(), 1);
        assert_eq!(interval.max(), 2);

        // A disabled hub records nothing and costs one branch.
        let mut off = SolverMetricsHub::disabled();
        assert!(!off.is_enabled());
        off.on_conflict(3, &stats);
        off.on_finish(&stats);
    }

    #[test]
    fn registry_observer_folds_finished_stats() {
        let registry = MetricsRegistry::new();
        let obs = RegistryObserver::new(&registry, "portfolio.member_0.");
        obs.on_event(&SolverEvent::Import {
            imported: 4,
            total_imported: 4,
            conflicts: 10,
        });
        obs.on_event(&SolverEvent::Finished {
            verdict: SolveVerdict::Unsat,
            stats: SolverStats {
                conflicts: 1500,
                propagations: 12000,
                imported_clauses: 4,
                ..Default::default()
            },
            elapsed: Duration::from_millis(500),
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("portfolio.member_0.conflicts"), Some(1500));
        assert_eq!(snap.counter("portfolio.member_0.import_batches"), Some(1));
        assert_eq!(snap.counter("portfolio.member_0.outcome.unsat"), Some(1));
        assert_eq!(snap.counter("portfolio.member_0.outcome.sat"), Some(0));
        let wall = snap.histogram("portfolio.member_0.wall_time_us").unwrap();
        assert_eq!(wall.count(), 1);
        assert!(snap.gauge("portfolio.member_0.props_per_sec").unwrap() > 0.0);
    }

    #[test]
    fn trace_observer_bridges_events_onto_a_span() {
        use satroute_obs::{TraceEvent, TraceTree};

        let tree = TraceTree::new();
        let tracer = Tracer::to_sink(tree.clone());
        let span = tracer.span("member");
        let obs = TraceObserver::new(tracer.clone(), span.id());
        obs.on_event(&SolverEvent::Progress {
            conflicts: 1024,
            decisions: 2048,
            propagations: 9001,
            lbd_ema: 4.5,
            elapsed: Duration::from_millis(10),
        });
        let stats = SolverStats {
            conflicts: 1500,
            decisions: 3000,
            propagations: 12000,
            ..Default::default()
        };
        obs.on_event(&SolverEvent::Finished {
            verdict: SolveVerdict::Unsat,
            stats,
            elapsed: Duration::from_millis(20),
        });
        drop(span);

        let forest = tree.forest().unwrap();
        let member = forest.node(forest.roots()[0]).unwrap();
        assert_eq!(member.counters.get("conflicts"), Some(&1500));
        assert_eq!(member.counters.get("propagations"), Some(&12000));
        assert_eq!(
            member.marks.get("outcome").map(String::as_str),
            Some("unsat")
        );
        assert_eq!(member.gauges.get("lbd_ema"), Some(&4.5));
        // The heartbeat arrived before the final counters.
        let events = tree.events();
        assert!(events.iter().any(
            |e| matches!(e, TraceEvent::Counter { name, value: 1024, .. } if name == "conflicts")
        ));
    }

    #[test]
    fn fanout_delivers_to_all_sinks() {
        let a = Arc::new(MetricsRecorder::new());
        let b = Arc::new(MetricsRecorder::new());
        let fan = FanoutObserver::new()
            .with(a.clone() as Arc<dyn RunObserver>)
            .with(b.clone() as Arc<dyn RunObserver>);
        fan.on_event(&SolverEvent::Restart {
            restarts: 1,
            conflicts: 1,
        });
        assert_eq!(a.snapshot().restarts, 1);
        assert_eq!(b.snapshot().restarts, 1);
    }

    #[test]
    fn stop_reason_displays_kebab_case() {
        assert_eq!(StopReason::Deadline.to_string(), "deadline");
        assert_eq!(StopReason::ConflictLimit.to_string(), "conflict-limit");
    }
}
