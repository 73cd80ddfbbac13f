//! Search-state recording contract tests: a traced solve samples its
//! search onto its span and keeps its last samples for a postmortem.
//!
//! Three properties pin recording down as pure observability:
//!
//! 1. **Postmortems fire for every budget outcome.** Each
//!    [`StopReason`] a CDCL solve can stop with — the conflict cap, a
//!    passed deadline, an external cancellation — must leave a
//!    [`Postmortem`](satroute::Postmortem) on a traced report naming that
//!    reason, and a decided run (or an untraced run) must leave none.
//! 2. **An untraced run records nothing** — no samples, no postmortem.
//! 3. **Recording never perturbs the search**: conflict, decision and
//!    propagation counts are bit-identical with the tracer on or off —
//!    or with every sink and the registry on at once — the same
//!    determinism contract the bench gate enforces.
//!
//! Plus the exporter round trip: a traced run's Chrome trace must
//! re-parse as JSON, contain every span exactly once, and keep
//! timestamps monotone per track; and the postmortems of portfolio
//! members carry their member index.

use std::collections::HashMap;
use std::time::Duration;

use satroute::coloring::{random_graph, CspGraph};
use satroute::core::{
    run_portfolio, ColoringOutcome, ColoringReport, PortfolioOptions, RunContext, Strategy,
};
use satroute::obs::{
    chrome_trace, json, BufferSink, MetricsRegistry, ProgressLogger, TraceEvent, TraceSink, Tracer,
};
use satroute::solver::{CancellationToken, RunBudget, StopReason};

/// A dense 25-vertex graph at an infeasibly low color count: reliably
/// UNSAT and far beyond any of the tiny budgets used below, so every
/// budgeted run genuinely exhausts rather than finishing early.
fn hard_instance() -> (CspGraph, u32) {
    (random_graph(25, 0.5, 11), 4)
}

/// A traced cold solve and a traced ladder probe of the hard instance
/// under `budget` (and `cancel`, when given).
fn budgeted_runs(budget: RunBudget, cancel: Option<CancellationToken>) -> [ColoringReport; 2] {
    let (g, k) = hard_instance();
    let tracer = Tracer::to_sink(BufferSink::new());
    let token = cancel.unwrap_or_default();
    let cold = Strategy::paper_best()
        .solve(&g, k)
        .budget(budget)
        .cancel(token.clone())
        .trace(tracer.clone())
        .run();
    let mut session = Strategy::paper_best()
        .incremental(&g, k + 2)
        .budget(budget)
        .cancel(token)
        .trace(tracer)
        .build();
    [cold, session.probe(k)]
}

#[test]
fn postmortem_names_every_stop_reason() {
    let cancelled = CancellationToken::new();
    cancelled.cancel();
    let cases: Vec<(StopReason, RunBudget, Option<CancellationToken>)> = vec![
        (
            StopReason::ConflictLimit,
            RunBudget::new().with_max_conflicts(5),
            None,
        ),
        (
            StopReason::Deadline,
            RunBudget::new().with_wall(Duration::ZERO),
            None,
        ),
        (StopReason::Cancelled, RunBudget::new(), Some(cancelled)),
    ];
    for (expected, budget, cancel) in cases {
        let [cold, probe] = budgeted_runs(budget, cancel);
        // The ladder probe's postmortem lists the selector assumptions of
        // its width; the cold solve assumes nothing.
        let probe_pm = probe.postmortem.as_ref();
        assert!(
            probe_pm.is_some_and(|pm| !pm.assumptions.is_empty()),
            "{expected:?} ladder probe lists no assumptions: {probe_pm:?}"
        );
        assert!(cold
            .postmortem
            .as_ref()
            .is_some_and(|pm| pm.assumptions.is_empty()));
        for report in [cold, probe] {
            assert_eq!(
                report.outcome,
                ColoringOutcome::Unknown(expected),
                "budget did not stop the run with {expected:?}"
            );
            let pm = report
                .postmortem
                .as_ref()
                .unwrap_or_else(|| panic!("{expected:?} run carries no postmortem"));
            assert_eq!(
                pm.stop_reason,
                expected.to_string(),
                "postmortem names the wrong stop reason"
            );
            assert!(
                pm.hottest_phase.is_some(),
                "{expected:?} postmortem lacks a hottest phase"
            );
            // Every stop path passes the finish boundary, which records one
            // last sample even when no conflict interval was ever reached.
            let last = pm
                .last_sample()
                .unwrap_or_else(|| panic!("{expected:?} postmortem carries no samples"));
            assert_eq!(
                last.cause.to_string(),
                "finish",
                "{expected:?}: final sample is not the finish-boundary one"
            );
            // The postmortem renders without panicking and names the reason.
            let text = pm.render_text();
            assert!(
                text.contains(&expected.to_string()),
                "rendered postmortem does not mention {expected}"
            );
        }
    }
}

#[test]
fn decided_runs_and_disabled_recorders_carry_no_postmortem() {
    let (g, k) = hard_instance();

    // Decided outcome (UNSAT, unlimited budget): tracer on, no postmortem.
    let buffer = BufferSink::new();
    let report = Strategy::paper_best()
        .solve(&g, k)
        .trace(Tracer::to_sink(buffer.clone()))
        .run();
    assert_eq!(report.outcome, ColoringOutcome::Unsat);
    assert!(report.postmortem.is_none(), "decided run grew a postmortem");
    assert!(
        buffer
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Sample { .. })),
        "traced run wrote no samples"
    );

    // Budget-exhausted but untraced: no postmortem either.
    let report = Strategy::paper_best()
        .solve(&g, k)
        .budget(RunBudget::new().with_max_conflicts(5))
        .trace(Tracer::disabled())
        .run();
    assert!(matches!(report.outcome, ColoringOutcome::Unknown(_)));
    assert!(
        report.postmortem.is_none(),
        "untraced run produced a postmortem"
    );
}

#[test]
fn recording_does_not_perturb_the_search() {
    let (g, k) = hard_instance();
    let plain = Strategy::paper_best().solve(&g, k).run();
    let recorded = Strategy::paper_best()
        .solve(&g, k)
        .trace(Tracer::to_sink(BufferSink::new()))
        .run();
    assert_eq!(plain.outcome, recorded.outcome);
    assert_eq!(
        plain.solver_stats.conflicts, recorded.solver_stats.conflicts,
        "recording changed the conflict count"
    );
    assert_eq!(
        plain.solver_stats.decisions,
        recorded.solver_stats.decisions
    );
    assert_eq!(
        plain.solver_stats.propagations,
        recorded.solver_stats.propagations
    );

    // Everything at once: a buffer and a progress logger on the tracer,
    // and a fresh registry.
    let registry = MetricsRegistry::new();
    let buffer = BufferSink::new();
    let sinks: Vec<Box<dyn TraceSink>> = vec![
        Box::new(buffer.clone()),
        Box::new(ProgressLogger::to_writer("t", Box::new(std::io::sink()))),
    ];
    let all = Strategy::paper_best()
        .solve(&g, k)
        .trace(Tracer::with_sinks(sinks))
        .metrics(registry.clone())
        .run();
    assert_eq!(plain.outcome, all.outcome);
    assert_eq!(
        plain.solver_stats.conflicts, all.solver_stats.conflicts,
        "the subscribers changed the conflict count"
    );
    assert_eq!(plain.solver_stats.decisions, all.solver_stats.decisions);
    assert_eq!(
        plain.solver_stats.propagations,
        all.solver_stats.propagations
    );
    assert!(buffer.events().len() >= 2, "the tracer starved");
    // The registry's delta flushes add up to the solver's own counters,
    // with one LBD observation per learnt clause.
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter("solver.conflicts"),
        Some(all.solver_stats.conflicts)
    );
    assert_eq!(
        snapshot.histogram("solver.lbd").map(|h| h.count()),
        Some(all.solver_stats.learnt_clauses)
    );
}

#[test]
fn chrome_export_round_trips_a_recorded_run() {
    let (g, k) = hard_instance();
    let sink = BufferSink::new();
    let report = Strategy::paper_best()
        .solve(&g, k)
        .trace(Tracer::to_sink(sink.clone()))
        .run();
    assert_eq!(report.outcome, ColoringOutcome::Unsat);

    let events = sink.events();
    assert!(!events.is_empty(), "traced run produced no events");
    let chrome = chrome_trace(&events).expect("span stream is well-formed");

    // Strict JSON: the serialized artifact re-parses to the same shape.
    let text = chrome.to_json();
    let parsed = json::parse(&text).expect("chrome trace is valid JSON");
    let entries = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("chrome trace carries a traceEvents array");
    assert!(!entries.is_empty());

    // Every span from the source stream appears exactly once (as a
    // complete "X" or unclosed "B" event), and per-track timestamps are
    // monotone — the invariants Perfetto needs to render sanely.
    let mut span_events = 0usize;
    let mut track_clock: HashMap<String, f64> = HashMap::new();
    for entry in entries {
        let ph = entry
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has a phase");
        assert!(
            matches!(ph, "M" | "X" | "B" | "C"),
            "unexpected chrome phase {ph:?}"
        );
        if matches!(ph, "X" | "B") {
            span_events += 1;
        }
        if ph == "M" {
            continue; // metadata events carry no timestamp
        }
        let ts = entry
            .get("ts")
            .and_then(|v| v.as_f64())
            .expect("timed events carry ts");
        let tid = entry
            .get("tid")
            .and_then(|v| v.as_f64())
            .expect("timed events carry tid");
        let key = format!("{ph}:{tid}");
        let clock = track_clock.entry(key).or_insert(0.0);
        assert!(
            ts >= *clock,
            "timestamps regress on track {tid} (phase {ph}): {ts} < {clock}"
        );
        *clock = ts;
    }
    let source_spans = events
        .iter()
        .filter(|e| matches!(e, satroute::obs::TraceEvent::SpanStart { .. }))
        .count();
    assert_eq!(
        span_events, source_spans,
        "chrome trace does not carry every span exactly once"
    );

    // The solve's samples surfaced as counter tracks.
    assert!(
        entries
            .iter()
            .any(|e| e.get("ph").and_then(|v| v.as_str()) == Some("C")),
        "recorded run exported no counter events"
    );
}

/// Every stopped portfolio member carries a postmortem labelled with its
/// index (and some member stops), and decided members carry none.
#[test]
fn member_postmortems_carry_their_member_index() {
    let (g, k) = hard_instance();
    let ctx = RunContext {
        budget: RunBudget::new().with_max_conflicts(5),
        tracer: Tracer::to_sink(BufferSink::new()),
        ..RunContext::default()
    };
    let strategies = Strategy::paper_portfolio_3();
    let opts = PortfolioOptions::new().with_max_threads(2);
    let result = run_portfolio(&g, k, &strategies, &ctx, &opts);
    let mut stopped = 0;
    for (index, member) in result.members.iter().enumerate() {
        let label = member.report.postmortem.as_ref().map(|pm| pm.member);
        if member.is_decided() {
            assert_eq!(label, None, "decided member {index}");
        } else {
            stopped += 1;
            assert_eq!(label, Some(Some(index as u64)), "stopped member {index}");
        }
    }
    assert!(stopped > 0, "no member stopped on the budget");
}
