//! Parallel portfolios of strategies (paper §6).
//!
//! "The availability of many SAT encodings, that can each be combined with
//! various symmetry-breaking heuristics, opens the possibility to design
//! portfolios of parallel strategies … run in parallel on different cores
//! of a multicore CPU …, with the rest of the runs terminated as soon as
//! one of them returns an answer."
//!
//! [`run_portfolio`] runs one solve per strategy, all on the same
//! K-coloring instance, on a fixed set of scoped worker threads that each
//! claim the next member from one shared counter. The first *decided*
//! (SAT or UNSAT) result wins and stops the losers at their next conflict
//! boundary. Every member's report — including the losers' partial
//! [`SolverStats`](satroute_solver::SolverStats) and [`StopReason`] — is
//! retained in the returned [`PortfolioResult`]. It is the one way the
//! crate races an instance. On an idle multicore the race answers at its
//! fastest member's own time, so the paper's portfolio speedups are read
//! off each member's solo Table-2 time rather than re-measured.
//!
//! Run control comes from one [`RunContext`] shared by every member: a
//! relative wall limit is converted to one shared absolute deadline, so
//! members that start a few microseconds apart still race the same
//! instant.
//!
//! A member whose strategy repeats an earlier member's runs a diversified
//! solver configuration (a seed/phase/restart-scheme variant of the base
//! config), so copies of one strategy explore differently while distinct
//! strategies keep the base. Beyond racing, members can *cooperate*:
//! [`PortfolioOptions`] (a) cap the number of concurrently running
//! members at the machine's parallelism (excess members are queued, so an
//! N-member portfolio does not degrade to a thread pile-up on a small
//! box), and (b) wire a [`SharingBus`] between members so learnt clauses
//! flow between them. Sharing is restricted to
//! members with the *same* strategy — same encoding, same symmetry
//! breaking, and (implicitly, per call) the same `k` — because only then
//! do two members solve the identical CNF, making a peer's learnt clause a
//! sound addition. [`Strategy::diversified`] builds such same-strategy
//! member lists.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use satroute_cnf::Lit;
use satroute_coloring::CspGraph;
use satroute_obs::{FieldValue, MetricsRegistry};
use satroute_solver::{CancellationToken, ClauseExchange, RunContext, SolveVerdict, StopReason};

use crate::strategy::{ColoringReport, Strategy};

/// Maximum clauses a member's inbox holds; exports beyond this are dropped
/// (a slow importer must not make peers buffer unboundedly).
const INBOX_CAP: usize = 4096;

/// One portfolio member's contribution: its strategy, its full report
/// (partial if it was stopped), and its own wall time.
#[derive(Clone, Debug)]
pub struct MemberReport {
    /// The strategy this member ran.
    pub strategy: Strategy,
    /// The member's report; for losers this carries the partial solver
    /// stats and the [`StopReason`] it was stopped with.
    pub report: ColoringReport,
    /// This member's own wall time (encode + solve + decode).
    pub wall_time: Duration,
}

impl MemberReport {
    /// Why this member stopped early, if it did.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.report.outcome.stop_reason()
    }

    /// `true` if this member reached a SAT/UNSAT answer.
    pub fn is_decided(&self) -> bool {
        self.report.outcome.is_decided()
    }

    /// Learnt clauses this member exported to sharing peers.
    pub fn exported_clauses(&self) -> u64 {
        self.report.solver_stats.exported_clauses
    }

    /// Clauses this member imported from sharing peers.
    pub fn imported_clauses(&self) -> u64 {
        self.report.solver_stats.imported_clauses
    }
}

/// The result of a [`run_portfolio`] race: the winner (if any member
/// decided) plus every member's report.
#[derive(Clone, Debug)]
pub struct PortfolioResult {
    /// Index (into `members` and the input strategy slice) of the member
    /// that answered first, or `None` if every member returned Unknown.
    pub winner: Option<usize>,
    /// All members, in input order, each with its (possibly partial)
    /// report.
    pub members: Vec<MemberReport>,
    /// Wall-clock time from launch to the first decided answer, or to the
    /// last member stopping when nothing was decided.
    pub wall_time: Duration,
}

impl PortfolioResult {
    /// `true` if some member reached a SAT/UNSAT answer.
    pub fn is_decided(&self) -> bool {
        self.winner.is_some()
    }

    /// The winning member, if any.
    pub fn winning_member(&self) -> Option<&MemberReport> {
        self.winner.map(|i| &self.members[i])
    }

    /// The winning member's report, if any.
    pub fn report(&self) -> Option<&ColoringReport> {
        self.winning_member().map(|m| &m.report)
    }

    /// The winning strategy, if any.
    pub fn strategy(&self) -> Option<Strategy> {
        self.winning_member().map(|m| m.strategy)
    }

    /// Total conflicts across every member (the paper's "work" measure for
    /// sharing-effectiveness comparisons).
    pub fn total_conflicts(&self) -> u64 {
        self.members
            .iter()
            .map(|m| m.report.solver_stats.conflicts)
            .sum()
    }

    /// Total clauses exported to the sharing bus across members.
    pub fn total_exported(&self) -> u64 {
        self.members.iter().map(|m| m.exported_clauses()).sum()
    }

    /// Total clauses imported from the sharing bus across members.
    pub fn total_imported(&self) -> u64 {
        self.members.iter().map(|m| m.imported_clauses()).sum()
    }
}

/// Execution options for [`run_portfolio`]: thread cap and clause
/// sharing.
///
/// # Examples
///
/// ```
/// use satroute_core::PortfolioOptions;
///
/// let opts = PortfolioOptions::new().with_max_threads(4).with_sharing(true);
/// assert_eq!(opts.max_threads, Some(4));
/// ```
#[derive(Clone, Debug, Default)]
pub struct PortfolioOptions {
    /// Cap on concurrently running members. `None` (the default) uses
    /// [`std::thread::available_parallelism`]. Members beyond the cap are
    /// queued and claimed by workers as slots free up; a queued member
    /// still races the same shared deadline and stop token, so it
    /// reports [`StopReason::Deadline`] / [`StopReason::Cancelled`] with
    /// zero work if the race ends before it starts.
    pub max_threads: Option<usize>,
    /// When `true`, members sharing a strategy exchange glue learnt
    /// clauses (see [`SharingBus`]).
    pub sharing: bool,
}

impl PortfolioOptions {
    /// Default options: parallelism-capped threads and no sharing — the
    /// classic race.
    pub fn new() -> Self {
        PortfolioOptions::default()
    }

    /// Caps concurrently running members at `n` (clamped to at least 1).
    pub fn with_max_threads(mut self, n: usize) -> Self {
        self.max_threads = Some(n.max(1));
        self
    }

    /// Enables learnt-clause sharing among same-strategy members.
    pub fn with_sharing(mut self, sharing: bool) -> Self {
        self.sharing = sharing;
        self
    }
}

/// One member's inbox on the [`SharingBus`].
#[derive(Debug, Default)]
struct Inbox {
    clauses: Mutex<Vec<Arc<[Lit]>>>,
}

/// A member's view of the bus: its own inbox to drain plus every sharing
/// peer's inbox to push exports into.
#[derive(Debug)]
struct BusEndpoint {
    mine: Arc<Inbox>,
    peers: Vec<Arc<Inbox>>,
}

impl ClauseExchange for BusEndpoint {
    fn export(&self, lits: &[Lit]) {
        // One allocation per export; each peer gets a pointer clone, not a
        // copy of the literal payload.
        let shared: Arc<[Lit]> = lits.into();
        for peer in &self.peers {
            // Recover from a poisoned inbox instead of cascading: a member
            // that panicked mid-push leaves at worst a half-updated queue
            // of well-formed Arc'd clauses, and every clause on the bus is
            // individually sound — the survivors must keep racing.
            let mut queue = peer
                .clauses
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Drop on overflow: losing a shared clause is always sound
            // (sharing is an accelerator, not a correctness mechanism).
            if queue.len() < INBOX_CAP {
                queue.push(Arc::clone(&shared));
            }
        }
    }

    fn drain(&self) -> Vec<Arc<[Lit]>> {
        std::mem::take(
            &mut *self
                .mine
                .clauses
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

/// Per-member clause mailboxes connecting same-strategy portfolio members.
///
/// The bus groups members by their full [`Strategy`] — encoding *and*
/// symmetry heuristic. Two members share clauses only within a group,
/// because only members running the identical encoding pipeline on the
/// same `(graph, k)` instance produce the same CNF over the same variable
/// numbering; a learnt clause is a consequence of that CNF and therefore
/// sound to add at any peer in the group. Members whose strategy appears
/// once get no exchange at all (no peers — nothing to share).
///
/// Exports are pushed into each peer's bounded inbox at conflict
/// boundaries; each member drains its own inbox at restart boundaries.
#[derive(Debug)]
pub struct SharingBus {
    endpoints: Vec<Option<Arc<BusEndpoint>>>,
}

impl SharingBus {
    /// Builds a bus for `strategies`, connecting equal strategies.
    pub fn for_strategies(strategies: &[Strategy]) -> SharingBus {
        let mut groups: HashMap<Strategy, Vec<usize>> = HashMap::new();
        for (idx, s) in strategies.iter().enumerate() {
            groups.entry(*s).or_default().push(idx);
        }
        let inboxes: Vec<Arc<Inbox>> = (0..strategies.len())
            .map(|_| Arc::new(Inbox::default()))
            .collect();
        let mut endpoints: Vec<Option<Arc<BusEndpoint>>> = vec![None; strategies.len()];
        for group in groups.values() {
            if group.len() < 2 {
                continue;
            }
            for &member in group {
                let peers = group
                    .iter()
                    .filter(|&&other| other != member)
                    .map(|&other| Arc::clone(&inboxes[other]))
                    .collect();
                endpoints[member] = Some(Arc::new(BusEndpoint {
                    mine: Arc::clone(&inboxes[member]),
                    peers,
                }));
            }
        }
        SharingBus { endpoints }
    }

    /// The exchange endpoint for `member`, or `None` when the member has
    /// no same-strategy peer.
    pub fn exchange(&self, member: usize) -> Option<Arc<dyn ClauseExchange>> {
        self.endpoints
            .get(member)
            .and_then(|e| e.clone())
            .map(|e| e as Arc<dyn ClauseExchange>)
    }
}

/// Runs `strategies` in parallel on the K-coloring problem of `graph` and
/// returns the first decided answer plus every member's report.
///
/// Every member solves under `ctx`. A relative wall limit
/// (`ctx.budget.wall`) is resolved once, at launch, into an absolute
/// deadline shared by all members; if the caller also supplied an
/// absolute `deadline_at`, the *earlier* of the two wins. Each member
/// additionally honours the budget's conflict cap individually.
/// Cancelling `ctx.cancel` (from any thread) stops every member at its
/// next poll point. The winner stops the losers through a
/// [`child`](crate::CancellationToken::child) of that token, so the
/// caller's token is never cancelled by the race itself.
///
/// At most `opts.max_threads` members run concurrently (default: the
/// machine's parallelism); remaining members queue and are claimed by idle
/// workers. A member claimed after the race was won still runs, on the
/// cancelled token, so every member reports. When `opts.sharing` is set,
/// a [`SharingBus`] connects members with equal strategies. A member
/// whose strategy already appeared `r` times before it runs
/// [`SolverConfig::diversified`](satroute_solver::SolverConfig::diversified)`(r)`
/// of `ctx.config`, which for `r = 0` is `ctx.config` itself.
///
/// An enabled tracer gets a `portfolio` root span with one `member` child
/// span per member (fields: `index`, `strategy`; the member's final
/// conflicts, decisions and propagations plus an `outcome` mark), each
/// member's own encode/solve/decode spans nesting beneath it. An enabled
/// metrics registry receives the aggregate `solver.*` instruments plus a
/// `portfolio.member_<i>.*` family per member (conflict / propagation
/// totals, wall-time histogram, props/sec and outcome counts). With the
/// tracer enabled, a member stopped by the budget or by the winner
/// carries a [`Postmortem`](satroute_obs::Postmortem) labelled with its
/// index.
///
/// # Examples
///
/// A 4-member diversified sharing portfolio of the paper's best strategy:
///
/// ```
/// use satroute_coloring::random_graph;
/// use satroute_core::{run_portfolio, PortfolioOptions, RunContext, Strategy};
///
/// let g = random_graph(12, 0.5, 7);
/// let members = Strategy::diversified(Strategy::paper_best(), 4);
/// let opts = PortfolioOptions::new().with_sharing(true);
/// let result = run_portfolio(&g, 4, &members, &RunContext::default(), &opts);
/// assert!(result.is_decided());
/// ```
pub fn run_portfolio(
    graph: &CspGraph,
    k: u32,
    strategies: &[Strategy],
    ctx: &RunContext,
    opts: &PortfolioOptions,
) -> PortfolioResult {
    let start = Instant::now();
    let n = strategies.len();
    let root = ctx.tracer.span_with(
        "portfolio",
        [
            ("members", FieldValue::from(n as u64)),
            ("k", FieldValue::from(k)),
        ],
    );
    let bus = opts.sharing.then(|| SharingBus::for_strategies(strategies));
    // One absolute deadline, so members claimed late still race the same
    // instant; `RunBudget::deadline` takes the earlier of `wall` and
    // `deadline_at`.
    let mut budget = ctx.budget;
    if let Some(deadline) = budget.deadline(start) {
        budget.deadline_at = Some(deadline);
        budget.wall = None;
    }
    let stop = ctx
        .cancel
        .as_ref()
        .map_or_else(CancellationToken::new, CancellationToken::child);
    let winner = OnceLock::new();
    let run_member = |idx: usize| {
        // An explicit parent: the worker thread's span stack is empty.
        let span = ctx.tracer.span_under(
            root.id(),
            "member",
            vec![
                ("index", FieldValue::from(idx as u64)),
                ("strategy", FieldValue::from(strategies[idx].to_string())),
            ],
        );
        let repeats = strategies[..idx].iter().filter(|&&s| s == strategies[idx]);
        let member_ctx = RunContext {
            config: ctx.config.diversified(repeats.count() as u64),
            budget,
            cancel: Some(stop.clone()),
            ..ctx.clone()
        };
        let mut request = strategies[idx].solve(graph, k).context(member_ctx);
        if let Some(exchange) = bus.as_ref().and_then(|bus| bus.exchange(idx)) {
            request = request.share(exchange);
        }
        let mut report = request.run();
        if ctx.metrics.is_enabled() {
            record_member(&ctx.metrics, idx, &report);
        }
        if let Some(pm) = &mut report.postmortem {
            pm.member = Some(idx as u64);
        }
        // The member's final counters and outcome; the solver's own events
        // land on the `solve` span beneath.
        let stats = &report.solver_stats;
        span.counter("conflicts", stats.conflicts);
        span.counter("decisions", stats.decisions);
        span.counter("propagations", stats.propagations);
        span.mark("outcome", &report.outcome.verdict().to_string());
        if report.outcome.is_decided() && winner.set((idx, start.elapsed())).is_ok() {
            stop.cancel();
        }
        MemberReport {
            strategy: strategies[idx],
            report,
            wall_time: span.close(),
        }
    };

    // Each worker claims the next member index until none is left; a
    // member is never split once claimed, so this balances load without
    // per-worker queues.
    let workers = opts
        .max_threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
        .clamp(1, n.max(1));
    let (next, run_member) = (&AtomicUsize::new(0), &run_member);
    let mut members: Vec<(usize, MemberReport)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            return done;
                        }
                        done.push((idx, run_member(idx)));
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    members.sort_unstable_by_key(|&(idx, _)| idx);
    let winner = winner.get().copied();
    match winner {
        Some((w, _)) => root.counter("winner", w as u64),
        None => root.mark("winner", "none"),
    }
    PortfolioResult {
        winner: winner.map(|(idx, _)| idx),
        members: members.into_iter().map(|(_, member)| member).collect(),
        wall_time: winner.map_or_else(|| start.elapsed(), |(_, at)| at),
    }
}

/// Adds member `idx`'s report to its `portfolio.member_<i>.*` family:
/// work and sharing totals, the solve's wall time, its propagation rate
/// and an outcome tally.
fn record_member(registry: &MetricsRegistry, idx: usize, report: &ColoringReport) {
    let name = |suffix: &str| format!("portfolio.member_{idx}.{suffix}");
    let stats = &report.solver_stats;
    let verdict = report.outcome.verdict();
    for (suffix, value) in [
        ("conflicts", stats.conflicts),
        ("decisions", stats.decisions),
        ("propagations", stats.propagations),
        ("restarts", stats.restarts),
        ("import_batches", stats.import_batches),
        ("imported_clauses", stats.imported_clauses),
        ("exported_clauses", stats.exported_clauses),
        ("outcome.sat", u64::from(verdict == SolveVerdict::Sat)),
        ("outcome.unsat", u64::from(verdict == SolveVerdict::Unsat)),
        (
            "outcome.unknown",
            u64::from(verdict.stop_reason().is_some()),
        ),
    ] {
        registry.counter(&name(suffix)).add(value);
    }
    let micros = u64::try_from(report.solve_time.as_micros()).unwrap_or(u64::MAX);
    registry.histogram(&name("wall_time_us")).record(micros);
    let props_per_sec = registry.gauge(&name("props_per_sec"));
    let secs = report.solve_time.as_secs_f64();
    if secs > 0.0 {
        props_per_sec.set(stats.propagations as f64 / secs);
    }
}

impl Strategy {
    /// The paper's 2-strategy portfolio (§6): ITE-linear-2+muldirect/s1 and
    /// muldirect-3+muldirect/s1 (additional 1.84× over the best single
    /// strategy in the paper's measurements).
    pub fn paper_portfolio_2() -> Vec<Strategy> {
        use crate::catalog::EncodingId::*;
        use crate::symmetry::SymmetryHeuristic::S1;
        vec![
            Strategy::new(IteLinear2Muldirect, S1),
            Strategy::new(Muldirect3Muldirect, S1),
        ]
    }

    /// The paper's 3-strategy portfolio (§6): the 2-strategy portfolio plus
    /// ITE-linear-2+direct/s1 (additional 2.30× in the paper).
    pub fn paper_portfolio_3() -> Vec<Strategy> {
        use crate::catalog::EncodingId::*;
        use crate::symmetry::SymmetryHeuristic::S1;
        let mut p = Strategy::paper_portfolio_2();
        p.push(Strategy::new(IteLinear2Direct, S1));
        p
    }

    /// `n` copies of `base` — the homogeneous portfolio shape used for
    /// diversified clause-sharing runs.
    ///
    /// Every copy encodes the identical CNF, so a [`SharingBus`] connects
    /// all members, and [`run_portfolio`] gives each copy its own
    /// diversified solver configuration (seeds, phases, restarts).
    ///
    /// # Examples
    ///
    /// ```
    /// use satroute_core::Strategy;
    ///
    /// let members = Strategy::diversified(Strategy::paper_best(), 4);
    /// assert_eq!(members.len(), 4);
    /// assert!(members.iter().all(|m| *m == members[0]));
    /// ```
    pub fn diversified(base: Strategy, n: usize) -> Vec<Strategy> {
        vec![base; n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::ColoringOutcome;
    use satroute_coloring::{exact, random_graph};
    use satroute_obs::{MetricsRegistry, SpanForest, Tracer};
    use satroute_solver::{CancellationToken, RunBudget};

    /// The classic race: `strategies` under `ctx` with default options.
    fn race(g: &CspGraph, k: u32, strategies: &[Strategy], ctx: RunContext) -> PortfolioResult {
        run_portfolio(g, k, strategies, &ctx, &PortfolioOptions::default())
    }

    #[test]
    fn empty_portfolio_is_undecided() {
        let g = CspGraph::new(2);
        let result = race(&g, 1, &[], RunContext::default());
        assert!(!result.is_decided());
        assert!(result.members.is_empty());
        assert!(result.report().is_none());
    }

    #[test]
    fn portfolio_agrees_with_oracle_on_both_outcomes() {
        let g = random_graph(10, 0.5, 3);
        let chi = exact::chromatic_number(&g);
        let portfolio = Strategy::paper_portfolio_3();

        let sat = race(&g, chi, &portfolio, RunContext::default());
        match &sat.report().expect("decides").outcome {
            ColoringOutcome::Colorable(c) => assert!(c.is_proper(&g)),
            other => panic!("expected colorable, got {other:?}"),
        }
        let winner = sat.winner.expect("decides");
        assert!(winner < portfolio.len());
        assert_eq!(sat.strategy(), Some(portfolio[winner]));
        assert_eq!(sat.members.len(), portfolio.len());

        let unsat = race(&g, chi - 1, &portfolio, RunContext::default());
        assert!(matches!(
            unsat.report().expect("decides").outcome,
            ColoringOutcome::Unsat
        ));
    }

    #[test]
    fn losers_keep_their_partial_reports() {
        let g = random_graph(10, 0.5, 3);
        let chi = exact::chromatic_number(&g);
        let portfolio = Strategy::paper_portfolio_3();
        let result = race(&g, chi - 1, &portfolio, RunContext::default());
        assert!(result.is_decided());
        for (idx, member) in result.members.iter().enumerate() {
            assert_eq!(member.strategy, portfolio[idx]);
            // Every member either decided or was cancelled by the winner —
            // and its (possibly partial) stats survive either way.
            match member.report.outcome {
                ColoringOutcome::Unknown(reason) => {
                    assert_eq!(reason, StopReason::Cancelled, "member {idx}");
                }
                _ => assert!(member.is_decided()),
            }
        }
    }

    #[test]
    fn exhausted_conflict_budget_reports_reasons() {
        let g = random_graph(30, 0.6, 7);
        let budget = RunBudget::new().with_max_conflicts(1);
        // With a 1-conflict budget on a hard instance every member returns
        // Unknown (or, rarely, one finishes instantly — accept both).
        let result = race(
            &g,
            9,
            &Strategy::paper_portfolio_2(),
            RunContext {
                budget,
                ..RunContext::default()
            },
        );
        for member in &result.members {
            if !member.is_decided() {
                assert!(matches!(
                    member.stop_reason(),
                    Some(StopReason::ConflictLimit | StopReason::Cancelled)
                ));
            }
        }
        if !result.is_decided() {
            assert!(result.report().is_none());
        }
    }

    #[test]
    fn expired_deadline_stops_every_member() {
        let g = random_graph(30, 0.6, 5);
        let budget = RunBudget::new().with_wall(Duration::ZERO);
        let result = race(
            &g,
            9,
            &Strategy::paper_portfolio_2(),
            RunContext {
                budget,
                ..RunContext::default()
            },
        );
        assert!(!result.is_decided());
        for member in &result.members {
            assert_eq!(member.stop_reason(), Some(StopReason::Deadline));
        }
    }

    #[test]
    fn pre_cancelled_token_stops_every_member() {
        let g = random_graph(30, 0.6, 5);
        let token = CancellationToken::new();
        token.cancel();
        let result = race(
            &g,
            9,
            &Strategy::paper_portfolio_2(),
            RunContext {
                cancel: Some(token),
                ..RunContext::default()
            },
        );
        assert!(!result.is_decided());
        for member in &result.members {
            assert_eq!(member.stop_reason(), Some(StopReason::Cancelled));
        }
    }

    #[test]
    fn paper_portfolios_have_the_documented_members() {
        let p2 = Strategy::paper_portfolio_2();
        assert_eq!(p2.len(), 2);
        assert_eq!(p2[0], Strategy::paper_best());
        let p3 = Strategy::paper_portfolio_3();
        assert_eq!(p3.len(), 3);
        assert_eq!(&p3[..2], &p2[..]);
    }

    #[test]
    fn caller_deadline_earlier_than_wall_wins() {
        // Regression: a caller-supplied absolute `deadline_at` that fires
        // before the relative `wall` must not be clobbered at launch.
        let g = random_graph(30, 0.6, 5);
        let budget = RunBudget::new()
            .with_wall(Duration::from_secs(3600))
            .with_deadline_at(Instant::now());
        let start = Instant::now();
        let result = race(
            &g,
            9,
            &Strategy::paper_portfolio_2(),
            RunContext {
                budget,
                ..RunContext::default()
            },
        );
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "expired deadline_at must win over a huge wall limit"
        );
        for member in &result.members {
            assert_eq!(member.stop_reason(), Some(StopReason::Deadline));
        }
    }

    #[test]
    fn wall_earlier_than_caller_deadline_wins() {
        let g = random_graph(30, 0.6, 5);
        let budget = RunBudget::new()
            .with_wall(Duration::ZERO)
            .with_deadline_at(Instant::now() + Duration::from_secs(3600));
        let start = Instant::now();
        let result = race(
            &g,
            9,
            &Strategy::paper_portfolio_2(),
            RunContext {
                budget,
                ..RunContext::default()
            },
        );
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "zero wall must win over a distant deadline_at"
        );
        for member in &result.members {
            assert_eq!(member.stop_reason(), Some(StopReason::Deadline));
        }
    }

    #[test]
    fn thread_cap_queues_members_without_losing_reports() {
        // Six members, one worker: members run strictly sequentially and
        // every one still reports. The single worker runs member 0 first
        // and it wins; the winner cancels the race's token before the
        // worker claims the next member, so every queued member starts on
        // a cancelled token and reports `Cancelled`. None may vanish.
        let g = random_graph(10, 0.5, 3);
        let chi = exact::chromatic_number(&g);
        let members = Strategy::diversified(Strategy::paper_best(), 6);
        let opts = PortfolioOptions::new().with_max_threads(1);
        let result = run_portfolio(&g, chi, &members, &RunContext::default(), &opts);
        assert!(result.is_decided());
        assert_eq!(result.members.len(), 6);
        assert_eq!(result.winner, Some(0), "sequential run: member 0 decides");
        for (idx, member) in result.members.iter().enumerate().skip(1) {
            assert_eq!(
                member.stop_reason(),
                Some(StopReason::Cancelled),
                "queued member {idx} must observe the winner's cancel, got {:?}",
                member.report.outcome
            );
        }
    }

    #[test]
    fn sharing_bus_connects_only_equal_strategies() {
        let mut strategies = Strategy::paper_portfolio_3();
        strategies.extend(Strategy::diversified(Strategy::paper_best(), 2));
        // paper_portfolio_3()[0] IS paper_best(), so the bus group for
        // paper_best has 3 members; the other two strategies are singletons.
        let bus = SharingBus::for_strategies(&strategies);
        assert!(bus.exchange(0).is_some());
        assert!(bus.exchange(1).is_none());
        assert!(bus.exchange(2).is_none());
        assert!(bus.exchange(3).is_some());
        assert!(bus.exchange(4).is_some());
        assert!(bus.exchange(5).is_none(), "out of range is a no-op");
    }

    #[test]
    fn sharing_bus_routes_exports_to_peers_only() {
        let strategies = Strategy::diversified(Strategy::paper_best(), 3);
        let bus = SharingBus::for_strategies(&strategies);
        let a = bus.exchange(0).expect("connected");
        let b = bus.exchange(1).expect("connected");
        let c = bus.exchange(2).expect("connected");
        let clause = vec![Lit::from_dimacs(1), Lit::from_dimacs(-2)];
        let delivered: Arc<[Lit]> = clause.as_slice().into();
        a.export(&clause);
        assert!(a.drain().is_empty(), "no self-delivery");
        assert_eq!(b.drain(), vec![Arc::clone(&delivered)]);
        assert_eq!(c.drain(), vec![delivered]);
        assert!(b.drain().is_empty(), "drain empties the inbox");
    }

    #[test]
    fn traced_portfolio_records_one_member_span_per_member() {
        let g = random_graph(10, 0.5, 3);
        let chi = exact::chromatic_number(&g);
        let strategies = Strategy::paper_portfolio_3();
        let buffer = satroute_obs::BufferSink::new();
        let ctx = RunContext {
            tracer: Tracer::to_sink(buffer.clone()),
            ..RunContext::default()
        };
        let result = run_portfolio(&g, chi, &strategies, &ctx, &PortfolioOptions::new());
        assert!(result.is_decided());

        let forest = SpanForest::from_events(&buffer.events()).expect("trace reconstructs");
        let roots = forest.roots();
        assert_eq!(roots.len(), 1, "one portfolio root span");
        let root = forest.node(roots[0]).unwrap();
        assert_eq!(root.name, "portfolio");
        assert_eq!(
            root.counters.get("winner").copied(),
            result.winner.map(|w| w as u64)
        );

        let members = forest.spans_named("member");
        assert_eq!(members.len(), strategies.len());
        for member in &members {
            assert_eq!(member.parent, Some(roots[0]));
            let idx = match member.field("index") {
                Some(satroute_obs::FieldValue::U64(i)) => *i as usize,
                other => panic!("member span missing index field: {other:?}"),
            };
            assert_eq!(
                member.field("strategy").map(|f| f.to_string()),
                Some(strategies[idx].to_string())
            );
            // The member's report put its final counters on the span.
            assert_eq!(
                member.counters.get("conflicts").copied(),
                Some(result.members[idx].report.solver_stats.conflicts)
            );
            assert!(member.marks.contains_key("outcome"), "member {idx}");
        }
        // Each member's own encode/solve spans nest beneath its member span.
        let nested: Vec<_> = forest
            .spans_named("encode")
            .into_iter()
            .chain(forest.spans_named("solve"))
            .collect();
        assert!(!nested.is_empty());
        for span in nested {
            let parent = span.parent.expect("nested under a member");
            let mut at = parent;
            while let Some(node) = forest.node(at) {
                if node.name == "member" {
                    break;
                }
                at = node.parent.expect("reaches a member span");
            }
        }
    }

    #[test]
    fn metered_portfolio_populates_per_member_families() {
        let g = random_graph(10, 0.5, 3);
        let chi = exact::chromatic_number(&g);
        let strategies = Strategy::paper_portfolio_2();
        let registry = MetricsRegistry::new();
        let ctx = RunContext {
            metrics: registry.clone(),
            ..RunContext::default()
        };
        let result = run_portfolio(&g, chi, &strategies, &ctx, &PortfolioOptions::new());
        assert!(result.is_decided());

        let snapshot = registry.snapshot();
        for (idx, member) in result.members.iter().enumerate() {
            // The member's report was folded into its prefixed counter
            // family.
            assert_eq!(
                snapshot.counter(&format!("portfolio.member_{idx}.conflicts")),
                Some(member.report.solver_stats.conflicts)
            );
            assert_eq!(
                snapshot
                    .histogram(&format!("portfolio.member_{idx}.wall_time_us"))
                    .map(|h| h.count()),
                Some(1)
            );
        }
        // The shared solver.* family aggregates across members.
        let total: u64 = result
            .members
            .iter()
            .map(|m| m.report.solver_stats.propagations)
            .sum();
        assert_eq!(snapshot.counter("solver.propagations"), Some(total));
    }

    #[test]
    fn diversified_sharing_portfolio_agrees_with_oracle() {
        let g = random_graph(10, 0.5, 9);
        let chi = exact::chromatic_number(&g);
        let members = Strategy::diversified(Strategy::paper_best(), 4);
        let opts = PortfolioOptions::new()
            .with_max_threads(4)
            .with_sharing(true);
        for k in [chi - 1, chi] {
            let result = run_portfolio(&g, k, &members, &RunContext::default(), &opts);
            match &result.report().expect("decides").outcome {
                ColoringOutcome::Colorable(c) => {
                    assert_eq!(k, chi);
                    assert!(c.is_proper(&g));
                }
                ColoringOutcome::Unsat => assert_eq!(k, chi - 1),
                other => panic!("expected a decision, got {other:?}"),
            }
        }
    }

    #[test]
    fn poisoned_inbox_recovers_instead_of_cascading() {
        use satroute_cnf::Var;
        let strategy = Strategy::paper_best();
        let bus = SharingBus::for_strategies(&[strategy; 3]);
        let a = bus.exchange(0).expect("same-strategy members share");
        let b = bus.exchange(1).expect("same-strategy members share");

        // One member aborts while holding its own inbox lock, poisoning
        // the mutex mid-critical-section.
        let poisoned = Arc::clone(bus.endpoints[1].as_ref().expect("grouped"));
        let aborted = std::thread::spawn(move || {
            let _guard = poisoned.mine.clauses.lock().unwrap();
            panic!("member 1 aborts mid-push");
        })
        .join();
        assert!(aborted.is_err(), "the aborting member must really panic");

        // The survivors' export/drain paths keep working — including
        // into and out of the poisoned mailbox, since every clause on
        // the bus is individually well-formed regardless of the abort.
        let clause = [Lit::positive(Var::new(0)), Lit::negative(Var::new(1))];
        a.export(&clause);
        let delivered = b.drain();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].as_ref(), &clause[..]);
        assert!(b.drain().is_empty(), "drain empties the recovered inbox");
    }
}
