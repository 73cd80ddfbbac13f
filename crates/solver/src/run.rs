//! Run control: budgets, cancellation and the solver's telemetry.
//!
//! This module is the contract between long-running solves and the code
//! that supervises them (portfolio runners, benchmark harnesses, the CLI):
//!
//! * [`RunBudget`] — declarative resource limits (wall-clock deadline,
//!   conflict cap). Budgets are
//!   *cooperative*: the solver polls them at conflict boundaries, so
//!   overshoot is bounded by the cost of one conflict plus the polling
//!   interval (64 conflicts for the deadline), not by the whole solve.
//! * [`StopReason`] — the typed cause carried by
//!   [`SolveOutcome::Unknown`](crate::SolveOutcome::Unknown), so callers can
//!   distinguish "out of time" from "cancelled because a sibling won".
//! * [`CancellationToken`] — a cheap-to-clone handle for cooperative
//!   cancellation across threads.
//! * [`RunContext`] — the one value bundling configuration, budget,
//!   cancellation, tracer and metrics registry that every request holds
//!   and forwards; it builds wired solvers.
//! * `Telemetry` — a solver's one telemetry sink, filled from the
//!   context by [`RunContext::solver`]. The solver reports each boundary
//!   of a solve to it with one call. It writes the solve's events onto
//!   the solve's span — counters, the LBD trend, search-state samples
//!   and the `outcome` mark — and feeds the registry's aggregate
//!   `solver.*` instruments. A stopped traced solve keeps its last
//!   samples as a [`Postmortem`].
//!
//! # Examples
//!
//! Give a solve two seconds and read its outcome off the trace:
//!
//! ```
//! use std::time::Duration;
//! use satroute_cnf::{CnfFormula, Lit};
//! use satroute_obs::{BufferSink, SpanForest, Tracer};
//! use satroute_solver::{RunBudget, RunContext};
//!
//! let mut f = CnfFormula::new();
//! let a = f.new_var();
//! f.add_clause([Lit::positive(a)]);
//!
//! let buffer = BufferSink::new();
//! let ctx = RunContext {
//!     budget: RunBudget::new().with_wall(Duration::from_secs(2)),
//!     tracer: Tracer::to_sink(buffer.clone()),
//!     ..RunContext::default()
//! };
//! let span = ctx.tracer.span("solve");
//! let mut solver = ctx.solver(span.id());
//! solver.add_formula(&f);
//! assert!(solver.solve().is_sat());
//! drop(span);
//! let forest = SpanForest::from_events(&buffer.events()).unwrap();
//! let solve = forest.spans_named("solve")[0];
//! assert_eq!(solve.marks["outcome"], "sat");
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use satroute_cnf::Lit;
use satroute_obs::timeline::POSTMORTEM_WINDOW;
use satroute_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, Postmortem, SampleCause, SpanId, TimelineSample,
    Tracer,
};

use crate::cdcl::{CdclSolver, SolverConfig, SolverStats};

/// Conflicts between the heartbeat counters and `lbd_ema` gauge written
/// onto a traced solve's span.
const HEARTBEAT_INTERVAL: u64 = 1024;
/// Conflicts between heartbeat samples (restart, reduce, GC,
/// inprocessing and finish boundaries sample regardless).
const SAMPLE_INTERVAL: u64 = 256;

/// Why a solve stopped without a SAT/UNSAT answer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StopReason {
    /// A [`CancellationToken`] was triggered.
    Cancelled,
    /// The wall-clock deadline of the [`RunBudget`] passed.
    Deadline,
    /// The conflict cap of the [`RunBudget`] was reached.
    ConflictLimit,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::Cancelled => "cancelled",
            StopReason::Deadline => "deadline",
            StopReason::ConflictLimit => "conflict-limit",
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

/// A two-way mailbox connecting one solver to its sharing peers.
///
/// The solver calls [`ClauseExchange::export`] at conflict boundaries with
/// each glue learnt clause (LBD ≤ 8, at most 30 literals), and
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
    fn export(&self, lits: &[Lit]);

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

    /// `true` if no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_conflicts.is_none() && self.wall.is_none() && self.deadline_at.is_none()
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
/// configuration, the [`RunBudget`], cancellation and the two telemetry
/// destinations.
///
/// Every request in `satroute_core` (solve, incremental ladder, explain,
/// portfolio, routing pipeline) holds one context and forwards it
/// unchanged to the requests it spawns, so a caller configures a run the
/// same way whatever the entry point. The default is the classic
/// unlimited, untraced search.
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
    /// Where every solve's events, samples and outcome go; the disabled
    /// default records nothing.
    pub tracer: Tracer,
    /// Aggregate counters, gauges and histograms; the disabled default
    /// records nothing.
    pub metrics: MetricsRegistry,
}

impl RunContext {
    /// A fresh solver with this context's configuration, budget and
    /// cancellation token, whose telemetry feeds this context's registry
    /// and writes onto `span` of its tracer (`0` for no span; see
    /// [`CdclSolver::set_trace_span`](crate::CdclSolver::set_trace_span)).
    pub fn solver(&self, span: SpanId) -> CdclSolver {
        let mut solver = CdclSolver::with_config(self.config.clone());
        solver.telemetry = Telemetry {
            active: self.metrics.is_enabled() || self.tracer.is_enabled(),
            registry: self
                .metrics
                .is_enabled()
                .then(|| SolverInstruments::new(&self.metrics)),
            trace: self
                .tracer
                .is_enabled()
                .then(|| (self.tracer.clone(), span)),
            ..Telemetry::default()
        };
        solver.set_budget(self.budget);
        if let Some(token) = &self.cancel {
            solver.set_cancellation(token.clone());
        }
        solver
    }
}

impl fmt::Debug for RunContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunContext")
            .field("config", &self.config)
            .field("budget", &self.budget)
            .field("cancelled", &self.cancel.as_ref().map(|c| c.is_cancelled()))
            .field("traced", &self.tracer.is_enabled())
            .field("metered", &self.metrics.is_enabled())
            .finish()
    }
}

/// The verdict part of a [`SolveOutcome`](crate::SolveOutcome), without the
/// model — what a traced solve's `outcome` mark carries.
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
    /// The learnt-clause database was reduced to this many clauses.
    Reduce {
        learnts: usize,
    },
    /// The clause arena was compacted.
    Gc {
        reclaimed_bytes: u64,
    },
    /// Peer clauses were imported at a restart boundary.
    Import,
    /// An inprocessing round finished.
    Inprocess,
    /// The solve returned.
    Finish {
        verdict: SolveVerdict,
    },
}

impl Boundary {
    /// The sample this boundary takes, if any.
    fn sample_cause(&self, conflicts: u64) -> Option<SampleCause> {
        match self {
            Boundary::Start { .. } | Boundary::Import => None,
            Boundary::Conflict { .. } => conflicts
                .is_multiple_of(SAMPLE_INTERVAL)
                .then_some(SampleCause::Conflict),
            Boundary::Restart => Some(SampleCause::Restart),
            Boundary::Reduce { .. } => Some(SampleCause::Reduce),
            Boundary::Gc { .. } => Some(SampleCause::Gc),
            Boundary::Inprocess => Some(SampleCause::Inprocess),
            Boundary::Finish { .. } => Some(SampleCause::Finish),
        }
    }

    /// Whether the registry's clause-store gauges are set here: solve
    /// start, reduce, GC and finish.
    fn sets_store(&self) -> bool {
        matches!(
            self,
            Boundary::Start { .. }
                | Boundary::Reduce { .. }
                | Boundary::Gc { .. }
                | Boundary::Finish { .. }
        )
    }
}

/// What the solver shows its [`Telemetry`] at a boundary: the work
/// counters and the search state a sample captures.
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
    /// Bytes allocated to all watch lists; computed only where
    /// [`Telemetry::sets_store_gauges`] holds, 0 elsewhere (summing them
    /// visits every literal's list).
    pub(crate) watch_bytes: u64,
    pub(crate) lbd_ema: f64,
    pub(crate) solve_start: Option<Instant>,
}

/// A solver's one telemetry sink.
///
/// The solver reports each boundary of a solve — start, conflict,
/// restart, reduce, GC, import, inprocessing round and finish — with one
/// call, and the sink writes it to up to two destinations:
///
/// * the tracer, onto the solve's span: `num_vars`/`num_clauses` at the
///   start; `conflicts`/`decisions`/`propagations` counters and the
///   `lbd_ema` gauge every 1024 conflicts; `restarts`, `learnts`,
///   `imported_clauses` and the inprocessing counters at their
///   boundaries; a [`TimelineSample`] every 256 conflicts and at
///   restart, reduce, GC, inprocessing and finish boundaries — never per
///   propagation; and the final work counters then an `outcome` mark. The
///   sink keeps the current solve's last [`POSTMORTEM_WINDOW`] samples
///   for the [`Postmortem`] of a solve that stops without an answer;
/// * the registry's `solver.*` instruments, resolved once and fed as
///   deltas against the last flushed [`SolverStats`], so
///   per-propagation work costs nothing.
///
/// Sampling only reads search state, so tracing never perturbs the
/// search. With nothing enabled a boundary costs one branch; with only
/// the registry, a conflict is a direct call with no dynamic dispatch,
/// lock or allocation.
///
/// Filled by [`RunContext::solver`]; the default writes nothing.
#[derive(Clone, Default)]
pub(crate) struct Telemetry {
    /// Whether anything is enabled: the solver's one branch.
    active: bool,
    registry: Option<SolverInstruments>,
    trace: Option<(Tracer, SpanId)>,
    /// `(conflicts, propagations, at_us)` of the previous sample, from
    /// which the next sample's windowed rates are computed.
    last_sample: Option<(u64, u64, u64)>,
    /// The current solve's last samples, oldest first.
    recent: VecDeque<TimelineSample>,
    /// Why the last traced solve stopped without an answer.
    stopped: Option<StopReason>,
}

impl Telemetry {
    /// Whether anything is enabled.
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// Whether `at` sets the registry's clause-store gauges: a registry
    /// is attached and `at` is a solve start, reduce, GC or finish.
    pub(crate) fn sets_store_gauges(&self, at: &Boundary) -> bool {
        self.registry.is_some() && at.sets_store()
    }

    /// Writes later boundaries onto `span`; registry deltas and sample
    /// rates carry over.
    pub(crate) fn set_span(&mut self, span: SpanId) {
        if let Some((_, current)) = &mut self.trace {
            *current = span;
        }
    }

    /// Feeds one boundary to the registry and writes it onto the span: a
    /// boundary's sample comes before its counters, and at finish the
    /// `outcome` mark comes last.
    pub(crate) fn record(&mut self, at: Boundary, view: &SearchView) {
        if let Some(registry) = &mut self.registry {
            registry.record(&at, view);
        }
        if self.trace.is_none() {
            return;
        }
        match at {
            Boundary::Start { .. } => self.recent.clear(),
            Boundary::Finish { verdict } => self.stopped = verdict.stop_reason(),
            _ => {}
        }
        let sample = at
            .sample_cause(view.stats.conflicts)
            .map(|cause| self.capture(cause, view));
        let Some((tracer, span)) = &self.trace else {
            return;
        };
        let counters = |pairs: &[(&str, u64)]| {
            for &(name, value) in pairs {
                tracer.counter(*span, name, value);
            }
        };
        if let Some(sample) = &sample {
            tracer.sample(*span, sample);
        }
        let stats = &view.stats;
        let work = [
            ("conflicts", stats.conflicts),
            ("decisions", stats.decisions),
            ("propagations", stats.propagations),
        ];
        match at {
            Boundary::Start {
                num_vars,
                num_clauses,
            } => counters(&[
                ("num_vars", u64::from(num_vars)),
                ("num_clauses", num_clauses as u64),
            ]),
            Boundary::Conflict { .. } if stats.conflicts.is_multiple_of(HEARTBEAT_INTERVAL) => {
                counters(&work);
                tracer.gauge(*span, "lbd_ema", view.lbd_ema);
            }
            Boundary::Conflict { .. } | Boundary::Gc { .. } => {}
            Boundary::Restart => counters(&[("restarts", stats.restarts)]),
            Boundary::Reduce { learnts } => counters(&[("learnts", learnts as u64)]),
            Boundary::Import => counters(&[("imported_clauses", stats.imported_clauses)]),
            Boundary::Inprocess => counters(&[
                ("inprocess_runs", stats.inprocess_runs),
                ("vivified_literals", stats.vivified_literals),
                ("subsumed_clauses", stats.subsumed_clauses),
                ("strengthened_clauses", stats.strengthened_clauses),
                ("eliminated_vars", stats.eliminated_vars),
            ]),
            Boundary::Finish { verdict } => {
                counters(&work);
                tracer.mark(*span, "outcome", &verdict.to_string());
            }
        }
    }

    /// Captures one sample of the search state into the trailing window.
    fn capture(&mut self, cause: SampleCause, view: &SearchView) -> TimelineSample {
        let stats = &view.stats;
        let at_us = view.solve_start.map_or(0, |s| {
            u64::try_from(s.elapsed().as_micros()).unwrap_or(u64::MAX)
        });
        let (mut conflicts_per_sec, mut propagations_per_sec) = (0.0, 0.0);
        if let Some((conflicts0, propagations0, at0)) = self.last_sample {
            if at_us > at0 {
                let window_secs = (at_us - at0) as f64 / 1e6;
                conflicts_per_sec = stats.conflicts.saturating_sub(conflicts0) as f64 / window_secs;
                propagations_per_sec =
                    stats.propagations.saturating_sub(propagations0) as f64 / window_secs;
            }
        }
        self.last_sample = Some((stats.conflicts, stats.propagations, at_us));
        let [tier_core, tier_mid, tier_local] = view.tiers;
        let sample = TimelineSample {
            at_us,
            cause,
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
        if self.recent.len() == POSTMORTEM_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(sample);
        sample
    }

    /// The postmortem of the last solve, when it was traced and stopped
    /// without an answer: the stop reason and the solve's last samples.
    pub(crate) fn postmortem(&self) -> Option<Postmortem> {
        Some(Postmortem {
            stop_reason: self.stopped?.to_string(),
            samples: self.recent.iter().copied().collect(),
            ..Postmortem::default()
        })
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("metered", &self.registry.is_some())
            .field("span", &self.trace.as_ref().map(|(_, span)| *span))
            .finish()
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

/// Clause-store gauges set at solve start, reduce, GC and finish
/// boundaries.
const STORE_GAUGES: [&str; 6] = [
    "solver.arena.live_bytes",
    "solver.arena.dead_bytes",
    "solver.watch_bytes",
    "solver.tier.core",
    "solver.tier.mid",
    "solver.tier.local",
];

fn store_levels(view: &SearchView) -> [u64; 6] {
    let [core, mid, local] = view.tiers;
    [
        view.arena_live_bytes,
        view.arena_dead_bytes,
        view.watch_bytes,
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
    store: [Gauge; 6],
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
            }
            Boundary::Finish { .. } => self.flush(stats),
            Boundary::Start { .. } | Boundary::Reduce { .. } | Boundary::Import => {}
        }
        if at.sets_store() {
            self.set_store(view);
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
        assert!(!RunBudget::new().with_max_conflicts(5).is_unlimited());
    }

    /// `n` pigeons into `n - 1` holes: UNSAT, and hard enough to run
    /// thousands of conflicts for small `n`.
    fn pigeonhole(n: i64) -> satroute_cnf::CnfFormula {
        let p = |i: i64, j: i64| Lit::from_dimacs((n - 1) * i + j + 1);
        let mut f = satroute_cnf::CnfFormula::new();
        for i in 0..n {
            f.add_clause((0..n - 1).map(|j| p(i, j)));
        }
        for j in 0..n - 1 {
            for a in 0..n {
                for b in a + 1..n {
                    f.add_clause([!p(a, j), !p(b, j)]);
                }
            }
        }
        f
    }

    #[test]
    fn telemetry_keeps_the_last_window_of_samples() {
        let buffer = satroute_obs::BufferSink::new();
        let ctx = RunContext {
            budget: RunBudget::new().with_max_conflicts(8_000),
            tracer: Tracer::to_sink(buffer.clone()),
            ..RunContext::default()
        };
        let mut solver = ctx.solver(0);
        solver.add_formula(&pigeonhole(9));
        let outcome = solver.solve();
        assert_eq!(
            outcome.verdict().stop_reason(),
            Some(StopReason::ConflictLimit)
        );
        let traced: Vec<TimelineSample> = buffer
            .events()
            .into_iter()
            .filter_map(|e| match e {
                satroute_obs::TraceEvent::Sample { sample, .. } => Some(sample),
                _ => None,
            })
            .collect();
        assert!(traced.len() > POSTMORTEM_WINDOW, "{} samples", traced.len());
        let pm = solver.postmortem().expect("a stopped traced solve");
        assert_eq!(pm.stop_reason, "conflict-limit");
        // The window is the trace's last samples, oldest first.
        assert_eq!(pm.samples, traced[traced.len() - POSTMORTEM_WINDOW..]);
        assert_eq!(pm.last_sample().unwrap().cause, SampleCause::Finish);

        // The next solve starts a fresh window: three more conflicts leave
        // only that solve's few samples.
        solver.set_budget(RunBudget::new().with_max_conflicts(8_003));
        assert!(!solver.solve().is_sat());
        let pm = solver.postmortem().expect("a stopped traced solve");
        assert!(
            pm.samples.len() < POSTMORTEM_WINDOW,
            "{} samples",
            pm.samples.len()
        );

        // An untraced solver never has a postmortem.
        let mut plain = RunContext::default().solver(0);
        plain.set_budget(RunBudget::new().with_max_conflicts(10));
        plain.add_formula(&pigeonhole(9));
        assert!(!plain.solve().is_sat());
        assert!(plain.postmortem().is_none());
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
