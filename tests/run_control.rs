//! Integration tests for the run-control subsystem: budgets, cancellation
//! and the solver event stream, exercised through the public `satroute`
//! facade exactly as an embedding application would.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use satroute::coloring::{dsatur_coloring, exact, random_graph, CspGraph};
use satroute::core::{
    run_portfolio, simulate_portfolio, ColoringOutcome, ExplainOutcome, PipelineError,
    PortfolioOptions, RoutingPipeline, Strategy,
};
use satroute::fpga::benchmarks;
use satroute::{
    CancellationToken, RunBudget, RunContext, RunObserver, SolveVerdict, SolverEvent, StopReason,
};

/// A graph-coloring instance hard enough that no strategy decides it
/// within the test budgets: a random graph with `k` between the greedy
/// clique (no cheap UNSAT certificate) and the DSATUR upper bound (no
/// cheap coloring), the classic hard region.
fn hard_instance() -> (CspGraph, u32) {
    let g = random_graph(70, 0.5, 0xC0FFEE);
    let clique = g.greedy_clique().len() as u32;
    let upper = dsatur_coloring(&g).max_color().map_or(1, |m| m + 1);
    assert!(clique + 2 < upper, "instance not in the hard region");
    (g, (clique + upper) / 2)
}

#[test]
fn wall_deadline_returns_unknown_within_tolerance() {
    let (g, k) = hard_instance();
    let budget = RunBudget::new().with_wall(Duration::from_millis(300));
    let start = Instant::now();
    let report = Strategy::paper_best().solve(&g, k).budget(budget).run();
    let elapsed = start.elapsed();

    assert_eq!(
        report.outcome,
        ColoringOutcome::Unknown(StopReason::Deadline),
        "hard instance must hit the wall budget"
    );
    assert_eq!(report.outcome.stop_reason(), Some(StopReason::Deadline));
    // Budgets are polled at conflict boundaries, so overshoot is bounded
    // but nonzero; a whole extra second would mean polling is broken.
    assert!(
        elapsed < Duration::from_millis(300) + Duration::from_secs(1),
        "stopped {elapsed:?} after a 300 ms budget"
    );
    assert!(
        report.solve_time >= Duration::from_millis(250),
        "solver gave up early: {:?}",
        report.solve_time
    );
}

/// The issue's acceptance criterion: a portfolio under a 2 s wall budget
/// on an oversized instance terminates within 2.5 s, with
/// `StopReason::Deadline` for every undecided member.
#[test]
fn portfolio_under_wall_budget_terminates_with_deadline_members() {
    let (g, k) = hard_instance();
    let strategies = Strategy::paper_portfolio_3();
    let budget = RunBudget::new().with_wall(Duration::from_secs(2));

    let start = Instant::now();
    let result = run_portfolio(
        &g,
        k,
        &strategies,
        &RunContext {
            budget,
            ..RunContext::default()
        },
        &PortfolioOptions::default(),
    );
    let elapsed = start.elapsed();

    assert!(
        elapsed <= Duration::from_millis(2500),
        "portfolio took {elapsed:?} against a 2 s budget"
    );
    assert_eq!(result.members.len(), strategies.len());
    assert!(
        !result.is_decided(),
        "instance is meant to be undecidable in 2 s"
    );
    for member in &result.members {
        assert_eq!(
            member.stop_reason(),
            Some(StopReason::Deadline),
            "{}: every undecided member must report the shared deadline",
            member.strategy
        );
    }
    // Losers keep their partial work counters. Members are queued when
    // there are fewer cores than members, so only *some* member is
    // guaranteed to have started working before the deadline.
    assert!(
        result
            .members
            .iter()
            .any(|m| m.report.solver_stats.conflicts > 0 || m.report.solver_stats.decisions > 0),
        "no member did any work within the budget"
    );
}

#[test]
fn cancellation_mid_solve_stops_every_portfolio_member() {
    let (g, k) = hard_instance();
    let strategies = Strategy::paper_portfolio_3();
    let token = CancellationToken::new();

    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            token.cancel();
        })
    };

    let start = Instant::now();
    let result = run_portfolio(
        &g,
        k,
        &strategies,
        &RunContext {
            cancel: Some(token),
            ..RunContext::default()
        },
        &PortfolioOptions::default(),
    );
    let elapsed = start.elapsed();
    canceller.join().unwrap();

    assert!(
        elapsed < Duration::from_secs(5),
        "cancellation ignored: portfolio ran {elapsed:?}"
    );
    assert!(!result.is_decided());
    for member in &result.members {
        assert_eq!(
            member.stop_reason(),
            Some(StopReason::Cancelled),
            "{}: member must observe the external token",
            member.strategy
        );
    }
}

/// A winner stops its siblings through the race's own token: the caller's
/// token stays uncancelled, so the same context can run again.
#[test]
fn a_winner_leaves_the_callers_token_uncancelled() {
    let g = random_graph(12, 0.4, 11);
    let chi = exact::chromatic_number(&g);
    let portfolio_token = CancellationToken::new();
    let ctx = RunContext {
        cancel: Some(portfolio_token.clone()),
        ..RunContext::default()
    };
    for run in 0..2 {
        let result = run_portfolio(
            &g,
            chi,
            &Strategy::paper_portfolio_2(),
            &ctx,
            &PortfolioOptions::new(),
        );
        assert!(result.is_decided(), "portfolio run {run} undecided");
        assert!(
            !portfolio_token.is_cancelled(),
            "portfolio run {run} cancelled the caller's token"
        );
    }

    let conquer_token = CancellationToken::new();
    let result = Strategy::paper_best()
        .cube_and_conquer(&g, chi + 1)
        .cube_vars(2)
        .cancel(conquer_token.clone())
        .run();
    assert!(matches!(result.outcome, ColoringOutcome::Colorable(_)));
    assert!(
        !conquer_token.is_cancelled(),
        "a SAT conquer cancelled the caller's token"
    );
}

/// Records every event for post-hoc order checking.
#[derive(Default)]
struct EventLog {
    events: Mutex<Vec<SolverEvent>>,
}

impl RunObserver for EventLog {
    fn on_event(&self, event: &SolverEvent) {
        self.events.lock().unwrap().push(*event);
    }
}

/// Property test: over seeded random graphs, the observer stream obeys the
/// grammar `Started (Restart | Reduce | Progress | Import)* Finished` with
/// monotone counters.
#[test]
fn observer_events_arrive_in_valid_order() {
    for seed in 0..8u64 {
        let g = random_graph(16, 0.5, seed);
        let upper = dsatur_coloring(&g).max_color().map_or(1, |m| m + 1);
        // Probing just below the upper bound keeps a mix of SAT and UNSAT
        // runs with enough conflicts to restart at least occasionally.
        let k = upper.saturating_sub(1).max(1);

        let log = Arc::new(EventLog::default());
        let report = Strategy::paper_baseline()
            .solve(&g, k)
            .observe(log.clone())
            .run();
        assert!(report.outcome.is_decided(), "seed {seed}: tiny instance");

        let events = log.events.lock().unwrap();
        assert!(events.len() >= 2, "seed {seed}: missing bracket events");
        assert!(
            matches!(events.first(), Some(SolverEvent::Started { .. })),
            "seed {seed}: first event must be Started"
        );
        assert!(
            matches!(events.last(), Some(SolverEvent::Finished { .. })),
            "seed {seed}: last event must be Finished"
        );

        let mut last_restart = 0u64;
        let mut last_progress_conflicts = 0u64;
        for (i, event) in events.iter().enumerate() {
            match event {
                SolverEvent::Started { .. } => {
                    assert_eq!(i, 0, "seed {seed}: Started mid-stream")
                }
                SolverEvent::Finished { verdict, .. } => {
                    assert_eq!(i, events.len() - 1, "seed {seed}: Finished mid-stream");
                    assert!(verdict.stop_reason().is_none(), "seed {seed}: decided run");
                }
                SolverEvent::Restart { restarts, .. } => {
                    assert!(*restarts > last_restart, "seed {seed}: restart ordinal");
                    last_restart = *restarts;
                }
                SolverEvent::Progress { conflicts, .. } => {
                    assert!(
                        *conflicts >= last_progress_conflicts,
                        "seed {seed}: progress conflicts must be monotone"
                    );
                    last_progress_conflicts = *conflicts;
                }
                SolverEvent::Reduce {
                    learnts_before,
                    learnts_after,
                    ..
                } => {
                    assert!(
                        learnts_after <= learnts_before,
                        "seed {seed}: reduction must not grow the database"
                    );
                }
                SolverEvent::Import { imported, .. } => {
                    // No exchange is attached in this test, so an Import
                    // event would mean phantom clauses appeared.
                    panic!("seed {seed}: import of {imported} clauses without an exchange");
                }
                SolverEvent::Sample { .. } => {
                    // Flight sampling only fires with an enabled recorder,
                    // and this request never attaches one.
                    panic!("seed {seed}: flight sample without a recorder");
                }
                SolverEvent::Inprocess { runs, .. } => {
                    // Inprocessing is off by default, so a round here
                    // would mean the default path changed.
                    panic!("seed {seed}: inprocessing round #{runs} while disabled");
                }
            }
        }
    }
}

#[test]
fn conflict_cap_is_exact_and_reported() {
    let (g, k) = hard_instance();
    let budget = RunBudget::new().with_max_conflicts(500);
    let report = Strategy::paper_baseline().solve(&g, k).budget(budget).run();
    assert_eq!(
        report.outcome,
        ColoringOutcome::Unknown(StopReason::ConflictLimit)
    );
    // Integer caps are polled every conflict, so the overshoot is zero.
    assert!(
        report.solver_stats.conflicts <= 500,
        "{} conflicts against a cap of 500",
        report.solver_stats.conflicts
    );
}

/// The stop reason of a pipeline run that gave up.
fn undecided<T>(result: Result<T, PipelineError>) -> Option<StopReason> {
    result
        .err()
        .map(|PipelineError::Undecided { reason, .. }| reason)
}

/// Every entry point forwards its `RunContext` to the solves it runs: a
/// context carrying a pre-cancelled token and an `EventLog` observer
/// stops each path with `Cancelled`, and the log ends with the stopped
/// solve's `Finished` event.
#[test]
fn every_entry_point_forwards_its_run_context() {
    let instance = benchmarks::suite_tiny().remove(0);
    let problem = &instance.problem;
    let graph = &instance.conflict_graph;
    let width = instance.routable_width;
    let groups: Vec<u32> = problem.subnets().map(|s| s.net.0).collect();
    let strategy = Strategy::paper_best();

    type Path<'a> = Box<dyn Fn(&RunContext) -> Option<StopReason> + 'a>;
    let paths: Vec<(&str, Path)> = vec![
        (
            "SolveRequest",
            Box::new(|ctx| {
                let report = strategy.solve(graph, width).context(ctx.clone()).run();
                report.outcome.stop_reason()
            }),
        ),
        (
            "IncrementalSession::probe",
            Box::new(|ctx| {
                let mut session = strategy
                    .incremental(graph, width)
                    .context(ctx.clone())
                    .build();
                session.probe(width).outcome.stop_reason()
            }),
        ),
        (
            "ExplainRequest",
            Box::new(|ctx| {
                let report = strategy
                    .explain(graph, &groups, width)
                    .context(ctx.clone())
                    .run();
                match report.outcome {
                    ExplainOutcome::Unknown(reason) => Some(reason),
                    _ => None,
                }
            }),
        ),
        (
            "ConquerRequest",
            Box::new(|ctx| {
                let result = strategy
                    .cube_and_conquer(graph, width)
                    .cube_vars(2)
                    .context(ctx.clone())
                    .run();
                result.outcome.stop_reason()
            }),
        ),
        (
            "run_portfolio",
            Box::new(|ctx| {
                let strategies = Strategy::paper_portfolio_2();
                let result =
                    run_portfolio(graph, width, &strategies, ctx, &PortfolioOptions::new());
                let stopped = |m: &satroute::core::MemberReport| {
                    m.stop_reason() == Some(StopReason::Cancelled)
                };
                result
                    .members
                    .iter()
                    .all(stopped)
                    .then_some(StopReason::Cancelled)
            }),
        ),
        (
            "simulate_portfolio",
            Box::new(|ctx| {
                let strategies = Strategy::paper_portfolio_2();
                let sim = simulate_portfolio(graph, width, &strategies, ctx);
                let stopped = |m: &satroute::core::MemberReport| {
                    m.stop_reason() == Some(StopReason::Cancelled)
                };
                sim.members
                    .iter()
                    .all(stopped)
                    .then_some(StopReason::Cancelled)
            }),
        ),
        (
            "RoutingPipeline::route",
            Box::new(|ctx| {
                let pipeline = RoutingPipeline::new(strategy).context(ctx.clone());
                undecided(pipeline.route(problem, width))
            }),
        ),
        (
            "RoutingPipeline::prove_unroutable",
            Box::new(|ctx| {
                let pipeline = RoutingPipeline::new(strategy).context(ctx.clone());
                undecided(pipeline.prove_unroutable(problem, width))
            }),
        ),
        (
            "RoutingPipeline::find_min_width",
            Box::new(|ctx| {
                let pipeline = RoutingPipeline::new(strategy).context(ctx.clone());
                undecided(pipeline.find_min_width(problem))
            }),
        ),
        (
            "RoutingPipeline::find_min_width_incremental",
            Box::new(|ctx| {
                let pipeline = RoutingPipeline::new(strategy).context(ctx.clone());
                undecided(pipeline.find_min_width_incremental(problem))
            }),
        ),
    ];

    for (name, path) in &paths {
        let token = CancellationToken::new();
        token.cancel();
        let log = Arc::new(EventLog::default());
        let ctx = RunContext {
            cancel: Some(token),
            observer: Some(log.clone()),
            ..RunContext::default()
        };
        assert_eq!(
            path(&ctx),
            Some(StopReason::Cancelled),
            "{name} dropped the context's cancellation token"
        );
        let events = log.events.lock().unwrap();
        assert!(
            matches!(
                events.last(),
                Some(SolverEvent::Finished {
                    verdict: SolveVerdict::Unknown(StopReason::Cancelled),
                    ..
                })
            ),
            "{name} dropped the context's observer"
        );
    }
}
