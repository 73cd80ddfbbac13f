//! Flight-recorder contract tests.
//!
//! Three properties pin the recorder down as pure observability:
//!
//! 1. **Postmortems fire for every budget outcome.** Each
//!    [`StopReason`] variant — conflict, decision and memory caps, a
//!    passed deadline, an external cancellation — must leave a
//!    [`Postmortem`] on the report naming that reason, and a decided
//!    run (or a run with the recorder disabled) must leave none.
//! 2. **A disabled recorder is inert** — no samples, no postmortem,
//!    identical to not passing one at all.
//! 3. **Recording never perturbs the search**: conflict, decision and
//!    propagation counts are bit-identical with the recorder on or off —
//!    or with every telemetry subscriber on at once — the same
//!    determinism contract the bench gate enforces.
//!
//! Plus the exporter round trip: a traced + recorded run's Chrome
//! trace must re-parse as JSON, contain every span exactly once, and
//! keep timestamps monotone per track.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use satroute::coloring::{random_graph, CspGraph};
use satroute::core::{ColoringOutcome, ColoringReport, Strategy};
use satroute::obs::{chrome_trace, json, BufferSink, FlightRecorder, MetricsRegistry, Tracer};
use satroute::solver::{CancellationToken, RunBudget, RunObserver, SolverEvent, StopReason};

/// A dense 25-vertex graph at an infeasibly low color count: reliably
/// UNSAT and far beyond any of the tiny budgets used below, so every
/// budgeted run genuinely exhausts rather than finishing early.
fn hard_instance() -> (CspGraph, u32) {
    (random_graph(25, 0.5, 11), 4)
}

fn budgeted_run(budget: RunBudget, cancel: Option<CancellationToken>) -> ColoringReport {
    let (g, k) = hard_instance();
    let flight = FlightRecorder::new();
    let mut request = Strategy::paper_best()
        .solve(&g, k)
        .budget(budget)
        .flight(flight);
    if let Some(token) = cancel {
        request = request.cancel(token);
    }
    request.run()
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
            StopReason::DecisionLimit,
            RunBudget::new().with_max_decisions(2),
            None,
        ),
        (
            StopReason::MemoryLimit,
            RunBudget::new().with_max_learnt_bytes(1),
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
        let report = budgeted_run(budget, cancel);
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

#[test]
fn decided_runs_and_disabled_recorders_carry_no_postmortem() {
    let (g, k) = hard_instance();

    // Decided outcome (UNSAT, unlimited budget): recorder on, no postmortem.
    let flight = FlightRecorder::new();
    let report = Strategy::paper_best()
        .solve(&g, k)
        .flight(flight.clone())
        .run();
    assert_eq!(report.outcome, ColoringOutcome::Unsat);
    assert!(report.postmortem.is_none(), "decided run grew a postmortem");
    assert!(flight.recorded() > 0, "enabled recorder saw no samples");

    // Budget-exhausted but recorder disabled: no postmortem either.
    let disabled = FlightRecorder::disabled();
    let report = Strategy::paper_best()
        .solve(&g, k)
        .budget(RunBudget::new().with_max_conflicts(5))
        .flight(disabled.clone())
        .run();
    assert!(matches!(report.outcome, ColoringOutcome::Unknown(_)));
    assert!(
        report.postmortem.is_none(),
        "disabled recorder produced a postmortem"
    );
    assert!(!disabled.is_enabled());
    assert_eq!(disabled.recorded(), 0, "disabled recorder counted samples");
    assert!(disabled.samples().is_empty());
}

#[test]
fn recording_does_not_perturb_the_search() {
    let (g, k) = hard_instance();
    let plain = Strategy::paper_best().solve(&g, k).run();
    let recorded = Strategy::paper_best()
        .solve(&g, k)
        .flight(FlightRecorder::new())
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

    // Every subscriber at once: tracer, a fresh registry, the recorder
    // and a user observer.
    #[derive(Default)]
    struct Counted(AtomicU64);
    impl RunObserver for Counted {
        fn on_event(&self, _event: &SolverEvent) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let registry = MetricsRegistry::new();
    let observer = Arc::new(Counted::default());
    let all = Strategy::paper_best()
        .solve(&g, k)
        .trace(Tracer::to_sink(BufferSink::new()))
        .metrics(registry.clone())
        .flight(FlightRecorder::new())
        .observe(observer.clone())
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
    assert!(observer.0.load(Ordering::Relaxed) >= 2, "observer starved");
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
        .flight(FlightRecorder::new())
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

    // The recorder's samples surfaced as counter tracks.
    assert!(
        entries
            .iter()
            .any(|e| e.get("ph").and_then(|v| v.as_str()) == Some("C")),
        "recorded run exported no counter events"
    );
}
