//! Integration tests for the run-control subsystem: budgets, cancellation
//! and the solver's events on the trace, exercised through the public
//! `satroute` facade exactly as an embedding application would.

use std::time::{Duration, Instant};

use satroute::coloring::{dsatur_coloring, exact, random_graph, CspGraph};
use satroute::core::{
    run_portfolio, ColoringOutcome, ExplainOutcome, PipelineError, PortfolioOptions,
    RoutingPipeline, Strategy,
};
use satroute::fpga::benchmarks;
use satroute::obs::{BufferSink, SpanForest, TraceEvent};
use satroute::{CancellationToken, RunBudget, RunContext, StopReason, Tracer};

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
    let token = CancellationToken::new();
    let ctx = RunContext {
        cancel: Some(token.clone()),
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
            !token.is_cancelled(),
            "portfolio run {run} cancelled the caller's token"
        );
    }
}

/// The events written onto span `id`, in order.
fn span_events(events: &[TraceEvent], id: u64) -> Vec<&TraceEvent> {
    events
        .iter()
        .filter(|e| match e {
            TraceEvent::Counter { span, .. }
            | TraceEvent::Gauge { span, .. }
            | TraceEvent::Mark { span, .. }
            | TraceEvent::Sample { span, .. } => *span == Some(id),
            _ => false,
        })
        .collect()
}

/// Property test: over seeded random graphs, each traced solve writes a
/// valid stream onto its span — `num_vars` and `num_clauses` first,
/// restart counts increasing, conflict counts never decreasing, and the
/// `outcome` mark after every other event — and no import or
/// inprocessing counter appears while both are off.
#[test]
fn observer_events_arrive_in_valid_order() {
    for seed in 0..8u64 {
        let g = random_graph(16, 0.5, seed);
        let upper = dsatur_coloring(&g).max_color().map_or(1, |m| m + 1);
        // Probing just below the upper bound keeps a mix of SAT and UNSAT
        // runs with enough conflicts to restart at least occasionally.
        let k = upper.saturating_sub(1).max(1);

        let buffer = BufferSink::new();
        let report = Strategy::paper_baseline()
            .solve(&g, k)
            .trace(Tracer::to_sink(buffer.clone()))
            .run();
        assert!(report.outcome.is_decided(), "seed {seed}: tiny instance");

        let events = buffer.events();
        let forest = SpanForest::from_events(&events).expect("trace reconstructs");
        let solves = forest.spans_named("solve");
        assert_eq!(solves.len(), 1, "seed {seed}: one solve span");
        let stream = span_events(&events, solves[0].id);
        let counters: Vec<(&str, u64)> = stream
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Counter { name, value, .. } => Some((name.as_str(), *value)),
                _ => None,
            })
            .collect();
        assert_eq!(
            counters.iter().map(|c| c.0).take(2).collect::<Vec<_>>(),
            ["num_vars", "num_clauses"],
            "seed {seed}: the start counters open the stream"
        );
        let (mut last_restart, mut last_conflicts) = (0u64, 0u64);
        for &(name, value) in &counters {
            match name {
                "restarts" => {
                    assert!(value > last_restart, "seed {seed}: restart ordinal");
                    last_restart = value;
                }
                "conflicts" => {
                    assert!(
                        value >= last_conflicts,
                        "seed {seed}: conflict counts must be monotone"
                    );
                    last_conflicts = value;
                }
                // No exchange is attached, so an import counter would
                // mean phantom clauses appeared.
                "imported_clauses" => panic!("seed {seed}: import without an exchange"),
                // Inprocessing is off by default, so a round here would
                // mean the default path changed.
                "inprocess_runs" => panic!("seed {seed}: inprocessing while disabled"),
                _ => {}
            }
        }
        assert_eq!(last_conflicts, report.solver_stats.conflicts);
        match stream.last() {
            Some(TraceEvent::Mark { name, value, .. }) if name == "outcome" => {
                assert_eq!(*value, report.outcome.verdict().to_string(), "seed {seed}");
                assert!(
                    value == "sat" || value == "unsat",
                    "seed {seed}: decided run"
                );
            }
            other => panic!("seed {seed}: the stream must end on the outcome mark, got {other:?}"),
        }
        let outcome_marks = stream
            .iter()
            .filter(|e| matches!(e, TraceEvent::Mark { name, .. } if name == "outcome"))
            .count();
        assert_eq!(outcome_marks, 1, "seed {seed}: one outcome mark");
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
    // The conflict cap is polled every conflict, so the overshoot is zero.
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
/// context carrying a pre-cancelled token and a buffered tracer stops
/// each path with `Cancelled`, and the trace's last `outcome` mark is the
/// stopped solve's `unknown:cancelled`.
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
        let buffer = BufferSink::new();
        let ctx = RunContext {
            cancel: Some(token),
            tracer: Tracer::to_sink(buffer.clone()),
            ..RunContext::default()
        };
        assert_eq!(
            path(&ctx),
            Some(StopReason::Cancelled),
            "{name} dropped the context's cancellation token"
        );
        let last_outcome = buffer.events().into_iter().rev().find_map(|e| match e {
            TraceEvent::Mark { name, value, .. } if name == "outcome" => Some(value),
            _ => None,
        });
        assert_eq!(
            last_outcome.as_deref(),
            Some("unknown:cancelled"),
            "{name} dropped the context's tracer"
        );
    }
}
