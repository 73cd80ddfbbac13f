//! End-to-end tests for the tracing subsystem: record runs through the
//! public API into JSONL artifacts, parse them back, and validate the
//! reconstructed span trees — nesting, parent integrity, timestamp
//! monotonicity, self-time accounting, and the per-encoding CNF-size
//! counters against `encode_coloring`.

use std::fs;

use satroute::coloring::random_graph;
use satroute::core::{
    encode, encode_coloring, run_portfolio, EncodingId, PortfolioOptions, RoutingPipeline,
    RunContext, Selectors, Strategy, SymmetryHeuristic,
};
use satroute::fpga::benchmarks;
use satroute::obs::{BufferSink, TraceEvent};
use satroute::{
    parse_jsonl, MetricsRegistry, SpanForest, TimelineReport, TraceReport, TraceWriter, Tracer,
};

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
        let buffer = BufferSink::new();
        let tracer = Tracer::to_sink(buffer.clone());
        let traced = encode(
            &triangle,
            3,
            &id.encoding(),
            SymmetryHeuristic::None,
            Selectors::None,
            &tracer,
            &MetricsRegistry::disabled(),
        );
        let plain = encode_coloring(&triangle, 3, &id.encoding(), SymmetryHeuristic::None);
        let stats = plain.formula.stats();

        let forest = SpanForest::from_events(&buffer.events()).expect("trace reconstructs");
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

/// A solve whose encoder writes straight into the solver runs the clause
/// writer twice, a counting pass and the fill, yet records one `encode`
/// span with one child per section, the CNF-size counters of a formula
/// encode, and one sample in each `encode.*` histogram. The same holds
/// for the warm ladder's selector encode.
#[test]
fn sink_loads_record_one_encode_span_and_one_metric_sample() {
    let g = random_graph(30, 0.4, 7);
    let strategy = Strategy::new(EncodingId::Muldirect, SymmetryHeuristic::B1);
    let encoding = strategy.encoding.encoding();
    let sections = [
        "scheme_emit",
        "structural_clauses",
        "conflict_clauses",
        "symmetry_breaking",
    ];
    for warm in [false, true] {
        let buffer = BufferSink::new();
        let registry = MetricsRegistry::new();
        let tracer = Tracer::to_sink(buffer.clone());
        let (formula_stats, expected) = if warm {
            let mut session = strategy
                .incremental(&g, 6)
                .trace(tracer)
                .metrics(registry.clone())
                .build();
            let report = session.probe(6);
            let traced = encode(
                &g,
                6,
                &encoding,
                strategy.symmetry,
                Selectors::PerTrack,
                &Tracer::disabled(),
                &MetricsRegistry::disabled(),
            );
            (report.formula_stats, traced.formula.stats())
        } else {
            let report = strategy
                .solve(&g, 6)
                .trace(tracer)
                .metrics(registry.clone())
                .run();
            let plain = encode_coloring(&g, 6, &encoding, strategy.symmetry);
            (report.formula_stats, plain.formula.stats())
        };
        assert_eq!(formula_stats, expected, "warm={warm}");

        let forest = SpanForest::from_events(&buffer.events()).expect("trace reconstructs");
        let encodes = forest.spans_named("encode");
        assert_eq!(encodes.len(), 1, "warm={warm}: one encode span");
        let children: Vec<&str> = encodes[0]
            .children
            .iter()
            .map(|&id| forest.node(id).expect("child exists").name.as_str())
            .collect();
        let mut want = sections.to_vec();
        if warm {
            want.push("activation_selectors");
        }
        assert_eq!(children, want, "warm={warm}");
        let counter = |name: &str| encodes[0].counters.get(name).copied();
        assert_eq!(counter("variables"), Some(u64::from(expected.num_vars)));
        assert_eq!(counter("clauses"), Some(expected.num_clauses as u64));
        assert_eq!(counter("literals"), Some(expected.num_literals as u64));

        let snapshot = registry.snapshot();
        for shape in ["wall_us", "vars", "clauses", "literals"] {
            let name = format!("encode.{shape}.{}", encoding.name());
            assert_eq!(
                snapshot.histogram(&name).map(|h| h.count()),
                Some(1),
                "warm={warm}: {name}"
            );
        }
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

/// A traced, metered solve long enough to restart and send heartbeats
/// writes its events onto its `solve` span — heartbeat counters and the
/// LBD gauge every 1024 conflicts, restart counts, the final work
/// counters and an `outcome` mark — and its registry deltas add up to
/// the solver's own counters.
#[test]
fn solve_span_and_registry_carry_the_solver_counters() {
    let g = random_graph(40, 0.5, 3);
    let buffer = BufferSink::new();
    let registry = MetricsRegistry::new();
    let report = Strategy::paper_best()
        .solve(&g, 6)
        .trace(Tracer::to_sink(buffer.clone()))
        .metrics(registry.clone())
        .run();
    let stats = report.solver_stats;
    assert!(
        stats.conflicts >= 1024 && stats.restarts > 0,
        "the instance must restart and reach a heartbeat: {stats:?}"
    );

    let forest = SpanForest::from_events(&buffer.events()).expect("trace reconstructs");
    let solve = forest.spans_named("solve")[0];
    let work = [
        ("conflicts", stats.conflicts),
        ("decisions", stats.decisions),
        ("propagations", stats.propagations),
        ("restarts", stats.restarts),
    ];
    for (name, value) in work {
        assert_eq!(solve.counters.get(name), Some(&value), "solve span {name}");
    }
    assert_eq!(
        solve.marks.get("outcome").map(String::as_str),
        Some(report.outcome.verdict().to_string().as_str())
    );
    assert!(solve.gauges.contains_key("lbd_ema"), "no heartbeat gauge");
    // The first heartbeat reached the span before the final counters.
    assert!(buffer.events().iter().any(
        |e| matches!(e, TraceEvent::Counter { name, value: 1024, .. } if name == "conflicts")
    ));

    let snapshot = registry.snapshot();
    for (name, value) in work
        .into_iter()
        .chain([("learnt_clauses", stats.learnt_clauses)])
    {
        assert_eq!(
            snapshot.counter(&format!("solver.{name}")),
            Some(value),
            "registry solver.{name}"
        );
    }
    let count = |name: &str| snapshot.histogram(name).map(|h| h.count());
    assert_eq!(count("solver.lbd"), Some(stats.learnt_clauses));
    assert_eq!(count("solver.restart_interval"), Some(stats.restarts));
}

/// A traced portfolio and cube-and-conquer run write
/// each solve's events and samples once, on that solve's own span: the
/// timeline has exactly one series per member or cube, labelled by it
/// and never `solve`, while the report's member and cube rows keep their
/// final conflicts and outcome.
#[test]
fn portfolio_and_conquer_samples_reach_the_trace_once() {
    // tiny_c at width 8 is unroutable but not refuted by loading alone:
    // members search, and the splitter leaves cubes to conquer.
    let instance = benchmarks::suite_tiny().remove(2);
    assert_eq!(instance.name, "tiny_c");
    let (graph, width) = (&instance.conflict_graph, 8);

    let buffer = BufferSink::new();
    let strategies = Strategy::paper_portfolio_2();
    let ctx = RunContext {
        tracer: Tracer::to_sink(buffer.clone()),
        ..RunContext::default()
    };
    let opts = PortfolioOptions::new().with_max_threads(2);
    let result = run_portfolio(graph, width, &strategies, &ctx, &opts);
    let forest = SpanForest::from_events(&buffer.events()).expect("trace reconstructs");
    let labels: Vec<String> = TimelineReport::from_forest(&forest)
        .series
        .into_iter()
        .map(|series| series.label)
        .collect();
    let mut expected: Vec<String> = strategies
        .iter()
        .enumerate()
        .map(|(i, s)| format!("member {i} ({s})"))
        .collect();
    let mut sorted = labels.clone();
    sorted.sort();
    expected.sort();
    assert_eq!(sorted, expected, "one series per member: {labels:?}");
    let report = TraceReport::from_forest(&forest);
    assert_eq!(report.members.len(), strategies.len());
    for row in &report.members {
        let member = &result.members[row.index as usize].report;
        assert_eq!(row.conflicts, member.solver_stats.conflicts);
        assert_eq!(
            row.outcome.as_deref(),
            Some(member.outcome.verdict().to_string().as_str())
        );
    }

    let buffer = BufferSink::new();
    let conquered = Strategy::paper_best()
        .cube_and_conquer(graph, width)
        .cube_vars(3)
        .threads(2)
        .trace(Tracer::to_sink(buffer.clone()))
        .run();
    assert!(
        !conquered.cubes.is_empty(),
        "the splitter left cubes to solve"
    );
    let forest = SpanForest::from_events(&buffer.events()).expect("trace reconstructs");
    let mut labels: Vec<String> = TimelineReport::from_forest(&forest)
        .series
        .into_iter()
        .map(|series| series.label)
        .collect();
    let mut expected: Vec<String> = conquered
        .cubes
        .iter()
        .map(|cube| format!("cube {}", cube.index))
        .collect();
    labels.sort();
    expected.sort();
    assert_eq!(labels, expected, "one series per cube");
    let report = TraceReport::from_forest(&forest);
    assert_eq!(report.cubes.len(), conquered.cubes.len());
    for row in &report.cubes {
        let cube = &conquered.cubes[row.index as usize].report;
        assert_eq!(row.conflicts, cube.solver_stats.conflicts);
        assert_eq!(
            row.outcome.as_deref(),
            Some(cube.outcome.verdict().to_string().as_str())
        );
    }
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

/// A plain `--trace` artifact, with no other flag, carries the solve's
/// samples: `trace timeline --json` finds a series and `trace export`
/// turns the samples into counter tracks.
#[test]
fn plain_trace_artifact_feeds_timeline_and_export() {
    let dir = std::env::temp_dir().join(format!("satroute_tracing_plain_{}", std::process::id()));
    fs::create_dir_all(&dir).expect("can create temp dir");
    let problem = dir.join("tiny.txt");
    let artifact = dir.join("route.jsonl");
    let chrome = dir.join("chrome.json");
    let satroute = env!("CARGO_BIN_EXE_satroute");
    let run = |args: &[&std::ffi::OsStr]| {
        let out = std::process::Command::new(satroute)
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{args:?}: {stderr}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let os = |s: &'static str| std::ffi::OsStr::new(s);

    run(&[
        os("gen"),
        os("--bench"),
        os("tiny_a"),
        os("--out"),
        problem.as_os_str(),
    ]);
    run(&[
        os("route"),
        problem.as_os_str(),
        os("--width"),
        os("3"),
        os("--trace"),
        artifact.as_os_str(),
    ]);
    let timeline = run(&[
        os("trace"),
        os("timeline"),
        artifact.as_os_str(),
        os("--json"),
    ]);
    let doc = satroute::obs::json::parse(&timeline).expect("timeline emits valid JSON");
    let samples: usize = doc
        .get("series")
        .and_then(|v| v.as_array())
        .expect("timeline lists its series")
        .iter()
        .map(|series| {
            series
                .get("samples")
                .and_then(|v| v.as_array())
                .map_or(0, <[_]>::len)
        })
        .sum();
    assert!(samples > 0, "no samples in the timeline: {timeline}");

    run(&[
        os("trace"),
        os("export"),
        artifact.as_os_str(),
        os("--chrome"),
        chrome.as_os_str(),
    ]);
    let text = fs::read_to_string(&chrome).expect("export wrote the Chrome trace");
    let doc = satroute::obs::json::parse(&text).expect("Chrome trace is valid JSON");
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(|v| v.as_str()) == Some("C")
                && e.get("name")
                    .and_then(|v| v.as_str())
                    .is_some_and(|n| n.starts_with("search"))
        }),
        "the samples did not reach the export"
    );
}
