//! Metric-name drift guard.
//!
//! `DESIGN.md` carries an appendix table of every metric name family the
//! workspace may emit (between the `metric-families:begin/end` markers).
//! This test runs the full pipeline, a portfolio, an incremental session
//! and an explanation run against one shared
//! [`MetricsRegistry`], then asserts the snapshot contains *only* names
//! matching a documented family. Adding an instrument without its table
//! row (or renaming one and leaving the doc stale) fails here, so the
//! appendix and the code cannot drift apart silently.

use satroute::coloring::{exact, random_graph};
use satroute::core::{run_portfolio, PortfolioOptions, RoutingPipeline, RunContext, Strategy};
use satroute::fpga::benchmarks;
use satroute::obs::MetricsRegistry;

/// Reads the documented name patterns out of the DESIGN.md appendix.
///
/// A pattern is the first backticked token of each table row between the
/// `<!-- metric-families:begin -->` / `end` markers; `<i>` stands for a
/// decimal member index and `<encoding>` for an encoding name.
fn documented_patterns() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md");
    let text = std::fs::read_to_string(path).expect("DESIGN.md is readable");
    let begin = text
        .find("<!-- metric-families:begin -->")
        .expect("DESIGN.md has the metric-families begin marker");
    let end = text
        .find("<!-- metric-families:end -->")
        .expect("DESIGN.md has the metric-families end marker");
    let mut patterns = Vec::new();
    for line in text[begin..end].lines() {
        let Some(rest) = line.trim().strip_prefix("| `") else {
            continue;
        };
        let name = rest
            .split('`')
            .next()
            .expect("split yields at least one piece");
        assert!(!name.is_empty(), "empty metric pattern in DESIGN.md table");
        patterns.push(name.to_string());
    }
    assert!(
        patterns.len() >= 30,
        "suspiciously few documented families ({}) — table parse broke?",
        patterns.len()
    );
    patterns
}

/// Matches `name` against a table pattern. `<i>` consumes one or more
/// ASCII digits; `<encoding>` consumes the (non-empty) remainder of the
/// name — it only ever appears as the final segment.
fn matches_pattern(pattern: &str, name: &str) -> bool {
    let mut rest = name;
    let mut pat = pattern;
    loop {
        if let Some(after) = pat.strip_prefix("<i>") {
            let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            if digits == 0 {
                return false;
            }
            rest = &rest[digits..];
            pat = after;
        } else if let Some(after) = pat.strip_prefix("<encoding>") {
            assert!(after.is_empty(), "<encoding> must end the pattern");
            return !rest.is_empty() && !rest.contains(char::is_whitespace);
        } else {
            match pat.find('<') {
                Some(0) => panic!("unknown placeholder in pattern {pattern:?}"),
                Some(lit) => {
                    let (head, tail) = pat.split_at(lit);
                    let Some(r) = rest.strip_prefix(head) else {
                        return false;
                    };
                    rest = r;
                    pat = tail;
                }
                None => return rest == pat,
            }
        }
    }
}

/// Populates `registry` from every metric-emitting surface: the full
/// routing pipeline, a two-member portfolio, an incremental session and
/// an explanation run.
fn run_everything(registry: &MetricsRegistry) {
    let instance = benchmarks::suite_tiny()
        .into_iter()
        .next()
        .expect("tiny suite is non-empty");
    let pipeline = RoutingPipeline::new(Strategy::paper_best()).metrics(registry.clone());
    pipeline
        .route(&instance.problem, instance.routable_width)
        .expect("tiny instance routes at its recorded width");

    let g = random_graph(10, 0.5, 3);
    let chi = exact::chromatic_number(&g);
    let ctx = RunContext {
        metrics: registry.clone(),
        ..RunContext::default()
    };
    let result = run_portfolio(
        &g,
        chi,
        &Strategy::paper_portfolio_2(),
        &ctx,
        &PortfolioOptions::new(),
    );
    assert!(result.is_decided(), "portfolio decides the tiny instance");

    let mut session = Strategy::paper_best()
        .incremental(&g, chi + 1)
        .metrics(registry.clone())
        .build();
    session.find_min_colors().expect("graph is colorable");

    // An explanation run below the chromatic number exercises the
    // explain.* family, shrink loop included.
    let groups: Vec<u32> = (0..g.num_vertices() as u32).collect();
    let report = Strategy::paper_best()
        .explain(&g, &groups, chi - 1)
        .metrics(registry.clone())
        .run();
    assert!(
        report.core().is_some(),
        "explain finds a core below the chromatic number"
    );
}

#[test]
fn snapshot_emits_only_documented_metric_names() {
    let patterns = documented_patterns();
    let registry = MetricsRegistry::new();
    run_everything(&registry);
    let snapshot = registry.snapshot();

    let mut names: Vec<String> = snapshot
        .counters()
        .map(|(n, _)| n.to_string())
        .chain(snapshot.gauges().map(|(n, _)| n.to_string()))
        .chain(snapshot.histograms().map(|(n, _)| n.to_string()))
        .collect();
    names.sort();
    names.dedup();

    let undocumented: Vec<&String> = names
        .iter()
        .filter(|name| !patterns.iter().any(|p| matches_pattern(p, name)))
        .collect();
    assert!(
        undocumented.is_empty(),
        "metrics emitted but missing from the DESIGN.md appendix table: {undocumented:?}"
    );

    // Guard against vacuity: a broken run that emits nothing would pass
    // the only-documented check trivially, so pin one name per family.
    for expected in [
        "solver.conflicts",
        "portfolio.member_0.conflicts",
        "incremental.probes",
        "explain.probes",
        "phase.sat_solving_us",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "full run did not emit {expected} — exercise path broke"
        );
    }
    assert!(
        names.iter().any(|n| n.starts_with("encode.wall_us.")),
        "full run did not emit any encode.wall_us.<encoding> histogram"
    );
}

#[test]
fn pattern_matcher_handles_placeholders() {
    assert!(matches_pattern("solver.conflicts", "solver.conflicts"));
    assert!(!matches_pattern("solver.conflicts", "solver.conflict"));
    assert!(matches_pattern(
        "portfolio.member_<i>.outcome.sat",
        "portfolio.member_12.outcome.sat"
    ));
    assert!(!matches_pattern(
        "portfolio.member_<i>.outcome.sat",
        "portfolio.member_.outcome.sat"
    ));
    assert!(!matches_pattern(
        "portfolio.member_<i>.outcome.sat",
        "portfolio.member_1.outcome.unsat"
    ));
    assert!(matches_pattern(
        "encode.wall_us.<encoding>",
        "encode.wall_us.ITE-linear-2+muldirect"
    ));
    assert!(!matches_pattern(
        "encode.wall_us.<encoding>",
        "encode.wall_us."
    ));
}
