//! End-to-end tests for the tracing subsystem: record runs through the
//! public API into JSONL artifacts, parse them back, and validate the
//! reconstructed span trees — nesting, parent integrity, timestamp
//! monotonicity, self-time accounting, and the per-encoding CNF-size
//! counters against `encode_coloring`.

use std::fs;

use satroute::core::{
    encode_coloring, encode_coloring_traced, run_portfolio, EncodingId, PortfolioOptions,
    RoutingPipeline, RunContext, Strategy, SymmetryHeuristic,
};
use satroute::fpga::benchmarks;
use satroute::obs::TraceEvent;
use satroute::{parse_jsonl, SpanForest, TraceReport, TraceTree, TraceWriter, Tracer};

fn trace_file(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("satroute_tracing_{}", std::process::id()));
    fs::create_dir_all(&dir).expect("can create temp dir");
    dir.join(name)
}

fn event_time(event: &TraceEvent) -> u64 {
    match event {
        TraceEvent::SpanStart { at_us, .. }
        | TraceEvent::SpanEnd { at_us, .. }
        | TraceEvent::Counter { at_us, .. }
        | TraceEvent::Gauge { at_us, .. }
        | TraceEvent::Mark { at_us, .. }
        | TraceEvent::Sample { at_us, .. } => *at_us,
    }
}

/// Records a routed benchmark to JSONL and round-trips the artifact: the
/// span tree must reconstruct with no orphans, globally nondecreasing
/// timestamps, every phase present, and self-time summing to the root's
/// wall time.
#[test]
fn route_trace_round_trips_through_jsonl() {
    let instance = benchmarks::suite_tiny().remove(0);
    let path = trace_file("route.jsonl");
    {
        let tracer = Tracer::to_sink(TraceWriter::to_path(&path).expect("can create trace file"));
        let pipeline = RoutingPipeline::new(Strategy::paper_best()).trace(tracer);
        let result = pipeline
            .route(&instance.problem, instance.routable_width)
            .expect("pipeline runs");
        assert!(result.routing.is_some(), "routable width");
        // Tracer and writer drop here, flushing the artifact.
    }

    let text = fs::read_to_string(&path).expect("artifact written");
    let events = parse_jsonl(&text).expect("every line parses");
    assert!(!events.is_empty());

    // Timestamps are globally nondecreasing across the whole stream.
    for pair in events.windows(2) {
        assert!(
            event_time(&pair[0]) <= event_time(&pair[1]),
            "timestamps must be nondecreasing: {pair:?}"
        );
    }

    // Reconstruction validates parent integrity (orphans are hard errors).
    let forest = SpanForest::from_events(&events).expect("forest reconstructs");
    assert!(forest.warnings.is_empty(), "{:?}", forest.warnings);

    let roots = forest.roots();
    assert_eq!(roots.len(), 1, "a single route root span");
    let root = forest.node(roots[0]).expect("root exists");
    assert_eq!(root.name, "route");

    // The full phase coverage of the issue: graph generation, encoding
    // (with CNF-size counters), solving, decode, verification.
    for phase in ["graph_generation", "encode", "solve", "decode", "verify"] {
        assert!(
            !forest.spans_named(phase).is_empty(),
            "missing phase `{phase}`"
        );
    }
    let encode = &forest.spans_named("encode")[0];
    for counter in ["variables", "clauses", "literals"] {
        assert!(
            encode.counters.get(counter).copied().unwrap_or(0) > 0,
            "encode span missing `{counter}`"
        );
    }

    // Self-times partition the root's wall time: in a single-threaded
    // trace the per-span self components telescope to the root total.
    let self_sum: u64 = forest.spans().iter().map(|n| forest.self_us(n.id)).sum();
    let total = root.total_us();
    assert!(
        self_sum <= total && (total - self_sum) as f64 <= total as f64 * 0.05,
        "self-time sum {self_sum} must be within 5% of wall {total}"
    );

    // The analyzer agrees with the tree.
    let report = TraceReport::from_forest(&forest);
    assert_eq!(report.wall_us, total);
    assert_eq!(report.phases["route"].count, 1);
    assert_eq!(report.encodings.len(), 1);
    let text = report.render_text(&forest);
    assert!(text.contains("per-encoding CNF size"), "{text}");
}

/// The per-encoding CNF-size counters recorded by the `encode` span are
/// pinned for the three simple encodings on a triangle and always equal
/// what [`encode_coloring`] reports.
#[test]
fn encode_spans_pin_cnf_stats_per_encoding() {
    let triangle = satroute::coloring::CspGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
    // (encoding, vars, clauses) at k = 3 without symmetry breaking:
    // direct    — 9 value vars; 3×(1 ALO + 3 AMO) + 9 conflicts = 21;
    // log       — 2 index vars × 3; 3 illegal-value + 9 conflicts = 12;
    // muldirect — 9 value vars; 3 ALO + 9 conflicts = 12.
    let pinned = [
        (EncodingId::Direct, 9u64, 21u64),
        (EncodingId::Log, 6, 12),
        (EncodingId::Muldirect, 9, 12),
    ];
    for (id, vars, clauses) in pinned {
        let tree = TraceTree::new();
        let tracer = Tracer::to_sink(tree.clone());
        let traced = encode_coloring_traced(
            &triangle,
            3,
            &id.encoding(),
            SymmetryHeuristic::None,
            &tracer,
        );
        let plain = encode_coloring(&triangle, 3, &id.encoding(), SymmetryHeuristic::None);
        let stats = plain.formula.stats();

        let forest = tree.forest().expect("trace reconstructs");
        let encode = &forest.spans_named("encode")[0];
        let counter = |name: &str| encode.counters.get(name).copied().unwrap_or(0);

        assert_eq!(counter("variables"), vars, "{id}: pinned variables");
        assert_eq!(counter("clauses"), clauses, "{id}: pinned clauses");
        assert_eq!(counter("variables"), stats.num_vars as u64, "{id}");
        assert_eq!(counter("clauses"), stats.num_clauses as u64, "{id}");
        assert_eq!(counter("literals"), stats.num_literals as u64, "{id}");
        assert_eq!(
            traced.formula.num_clauses(),
            plain.formula.num_clauses(),
            "{id}: traced and plain encoders agree"
        );
    }
}

/// A traced portfolio produces one `member` span per strategy under the
/// `portfolio` root, each carrying bridged solver counters, and the
/// artifact survives the JSONL round trip.
#[test]
fn portfolio_trace_reports_every_member() {
    let instance = benchmarks::suite_tiny().remove(0);
    let strategies = Strategy::paper_portfolio_3();
    let path = trace_file("portfolio.jsonl");
    {
        let tracer = Tracer::to_sink(TraceWriter::to_path(&path).expect("can create trace file"));
        let ctx = RunContext {
            tracer,
            ..RunContext::default()
        };
        let result = run_portfolio(
            &instance.conflict_graph,
            instance.unroutable_width,
            &strategies,
            &ctx,
            &PortfolioOptions::new(),
        );
        assert!(result.is_decided());
    }

    let events = parse_jsonl(&fs::read_to_string(&path).expect("artifact written"))
        .expect("every line parses");
    let forest = SpanForest::from_events(&events).expect("forest reconstructs");
    let report = TraceReport::from_forest(&forest);
    assert_eq!(report.members.len(), strategies.len());
    for (i, member) in report.members.iter().enumerate() {
        assert_eq!(member.index, i as u64);
        assert_eq!(
            member.strategy.as_deref(),
            Some(strategies[i].to_string().as_str())
        );
        assert!(member.total_us > 0);
    }
    // At least the winner propagated something, so props/sec is reportable.
    assert!(report.members.iter().any(|m| m.props_per_sec > 0.0));
}

/// The CLI round trip: `route --trace` writes an artifact that
/// `trace report --json` analyzes; a malformed artifact is rejected.
#[test]
fn cli_trace_report_round_trips() {
    let dir = std::env::temp_dir().join(format!("satroute_tracing_cli_{}", std::process::id()));
    fs::create_dir_all(&dir).expect("can create temp dir");
    let problem = dir.join("tiny.txt");
    let artifact = dir.join("route.jsonl");
    let satroute = env!("CARGO_BIN_EXE_satroute");

    let out = std::process::Command::new(satroute)
        .args(["gen", "--bench", "tiny_a", "--out"])
        .arg(&problem)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    let out = std::process::Command::new(satroute)
        .arg("route")
        .arg(&problem)
        .args(["--width", "3", "--trace"])
        .arg(&artifact)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = std::process::Command::new(satroute)
        .args(["trace", "report"])
        .arg(&artifact)
        .arg("--json")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = satroute::obs::json::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("report emits valid JSON");
    let wall = doc.get("wall_us").and_then(|v| v.as_f64()).unwrap_or(0.0);
    assert!(wall > 0.0, "report covers nonzero wall time");

    // Malformed artifacts are rejected with a parse error, not silence.
    let broken = dir.join("broken.jsonl");
    fs::write(&broken, "{\"type\":\"span_start\"\n").expect("can write");
    let out = std::process::Command::new(satroute)
        .args(["trace", "report"])
        .arg(&broken)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}
