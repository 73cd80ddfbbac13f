//! End-to-end integration tests: FPGA problem → conflict graph → SAT →
//! detailed routing, across encodings, symmetry heuristics and solvers.

use std::collections::BTreeSet;

use satroute::coloring::{dsatur_coloring, exact};
use satroute::core::{ColoringOutcome, EncodingId, RoutingPipeline, Strategy, SymmetryHeuristic};
use satroute::fpga::{benchmarks, io, Architecture, GlobalRouter, Netlist, RoutingProblem};

fn small_problem(seed: u64) -> RoutingProblem {
    let arch = Architecture::new(4, 4).expect("valid grid");
    let netlist = Netlist::random(&arch, 10, 2..=3, seed).expect("fits");
    let routing = GlobalRouter::new().route(&arch, &netlist).expect("routes");
    RoutingProblem::new(arch, netlist, routing)
}

#[test]
fn every_encoding_routes_small_problems_identically() {
    let problem = small_problem(1);
    let graph = problem.conflict_graph();
    let upper = dsatur_coloring(&graph).max_color().map_or(1, |m| m + 1);

    // Reference verdicts from the best strategy.
    let reference = RoutingPipeline::new(Strategy::paper_best());
    let mut verdicts = Vec::new();
    for width in 1..=upper {
        let r = reference.route(&problem, width).expect("no budget");
        verdicts.push(r.routing.is_some());
    }

    // Every other encoding must agree at every width.
    for encoding in EncodingId::ALL {
        let pipeline = RoutingPipeline::new(Strategy::new(encoding, SymmetryHeuristic::B1));
        for (i, width) in (1..=upper).enumerate() {
            let r = pipeline.route(&problem, width).expect("no budget");
            assert_eq!(
                r.routing.is_some(),
                verdicts[i],
                "{encoding} disagrees at width {width}"
            );
            if let Some(routing) = &r.routing {
                problem
                    .verify_detailed_routing(routing, width)
                    .expect("pipeline routings always verify");
            }
        }
    }
}

#[test]
fn min_width_matches_exact_chromatic_number() {
    for seed in [2u64, 3] {
        let problem = small_problem(seed);
        let graph = problem.conflict_graph();
        let chi = exact::chromatic_number(&graph);
        let search = RoutingPipeline::new(Strategy::paper_best())
            .find_min_width(&problem)
            .expect("no budget");
        assert_eq!(search.min_width, chi, "seed {seed}");
        problem
            .verify_detailed_routing(&search.routing, search.min_width)
            .expect("optimal routing verifies");
    }
}

#[test]
fn symmetry_breaking_preserves_every_verdict() {
    let problem = small_problem(4);
    let graph = problem.conflict_graph();
    let chi = exact::chromatic_number(&graph);
    for sym in SymmetryHeuristic::ALL {
        for encoding in [
            EncodingId::Muldirect,
            EncodingId::Log,
            EncodingId::IteLinear2Muldirect,
        ] {
            let strategy = Strategy::new(encoding, sym);
            let sat = strategy.solve_coloring(&graph, chi);
            assert!(sat.outcome.is_colorable(), "{strategy} at chi");
            if chi > 0 {
                let unsat = strategy.solve_coloring(&graph, chi - 1);
                assert!(
                    matches!(unsat.outcome, ColoringOutcome::Unsat),
                    "{strategy} at chi-1"
                );
            }
        }
    }
}

#[test]
fn tiny_suite_round_trips_through_the_pipeline() {
    for instance in benchmarks::suite_tiny() {
        let pipeline = RoutingPipeline::new(Strategy::paper_best());
        let sat = pipeline
            .route(&instance.problem, instance.routable_width)
            .expect("no budget");
        let routing = sat.routing.expect("routable width routes");
        instance
            .problem
            .verify_detailed_routing(&routing, instance.routable_width)
            .expect("verified");

        if instance.unroutable_width > 0 {
            let unsat = pipeline
                .prove_unroutable(&instance.problem, instance.unroutable_width)
                .expect("no budget");
            assert!(unsat.is_unroutable(), "{}", instance.name);
        }
    }
}

#[test]
fn dimacs_interchange_preserves_answers() {
    use satroute::cnf::dimacs as cnf_dimacs;
    use satroute::coloring::dimacs as col_dimacs;
    use satroute::solver::{CdclSolver, SolveOutcome};

    let problem = small_problem(5);
    let graph = problem.conflict_graph();
    let k = dsatur_coloring(&graph).max_color().map_or(1, |m| m + 1);

    // Round-trip the graph through .col text.
    let graph2 = col_dimacs::parse_col_str(&col_dimacs::to_col_string(&graph)).expect("parses");
    assert_eq!(graph2, graph);

    // Encode, round-trip the CNF through .cnf text, solve both.
    let enc = satroute::core::encode_coloring(
        &graph2,
        k,
        &EncodingId::IteLog.encoding(),
        SymmetryHeuristic::S1,
    );
    let formula2 =
        cnf_dimacs::parse_cnf_str(&cnf_dimacs::to_cnf_string(&enc.formula)).expect("parses");

    let mut s1 = CdclSolver::new();
    s1.add_formula(&enc.formula);
    let mut s2 = CdclSolver::new();
    s2.add_formula(&formula2);
    match (s1.solve(), s2.solve()) {
        (SolveOutcome::Sat(m1), SolveOutcome::Sat(_)) => {
            let coloring = satroute::core::decode_coloring(&m1, &enc.decode).expect("decodes");
            assert!(coloring.is_proper(&graph));
        }
        (a, b) => panic!("expected SAT/SAT at the DSATUR bound, got {a:?} / {b:?}"),
    }
}

#[test]
fn certified_unroutability_proofs_verify_end_to_end() {
    use satroute::core::RoutingPipeline;

    let instance = &benchmarks::suite_tiny()[2];
    let pipeline = RoutingPipeline::new(Strategy::paper_best());
    let (result, certificate) = pipeline
        .prove_unroutable_certified(&instance.problem, instance.unroutable_width)
        .expect("no budget");
    assert!(result.is_unroutable());
    let certificate = certificate.expect("UNSAT answers carry a certificate");
    certificate.verify().expect("certificate checks out");
    assert_eq!(certificate.width, instance.unroutable_width);

    // The DRAT text round-trips and still verifies.
    let text = certificate.proof.to_drat_string();
    let parsed = satroute::solver::DratProof::parse_drat(text.as_bytes()).expect("parses");
    parsed
        .check(&certificate.formula)
        .expect("round-tripped proof verifies");

    // A routable width yields no certificate.
    let (result, certificate) = pipeline
        .prove_unroutable_certified(&instance.problem, instance.routable_width)
        .expect("no budget");
    assert!(result.routing.is_some());
    assert!(certificate.is_none());
}

#[test]
fn problem_files_round_trip_through_the_pipeline() {
    let instance = &benchmarks::suite_tiny()[0];
    let text = io::to_problem_string(&instance.problem);
    let reloaded = io::parse_problem_str(&text).expect("own output parses");
    assert_eq!(reloaded, instance.problem);

    // The reloaded problem routes to the same minimum width.
    let a = RoutingPipeline::new(Strategy::paper_best())
        .find_min_width(&instance.problem)
        .expect("no budget");
    let b = RoutingPipeline::new(Strategy::paper_best())
        .find_min_width(&reloaded)
        .expect("no budget");
    assert_eq!(a.min_width, b.min_width);
}

/// A fabric far larger than the routes it carries is valid input. The
/// conflict graph, the congestion bound and the verifier index only the
/// segments the routes pass through, so tiny_a on a 65535 x 65535 fabric
/// keeps its conflict graph, and its width-3 routing verifies.
#[test]
fn an_enlarged_fabric_keeps_the_conflict_graph_and_routes() {
    let instance = benchmarks::suite_tiny().remove(0);
    assert_eq!(instance.name, "tiny_a");
    let text = io::to_problem_string(&instance.problem);
    let enlarged: Vec<&str> = text
        .lines()
        .map(|line| {
            if line.starts_with("fabric ") {
                "fabric 65535 65535"
            } else {
                line
            }
        })
        .collect();
    let problem = io::parse_problem_str(&enlarged.join("\n")).expect("enlarged tiny_a parses");
    assert_ne!(problem.arch(), instance.problem.arch(), "the fabric grew");

    assert_eq!(problem.conflict_graph(), instance.problem.conflict_graph());
    assert_eq!(
        problem
            .global_routing()
            .max_segment_congestion(problem.arch()),
        instance
            .problem
            .global_routing()
            .max_segment_congestion(instance.problem.arch())
    );
    let routed = RoutingPipeline::new(Strategy::paper_best())
        .route(&problem, 3)
        .expect("no budget");
    let routing = routed.routing.expect("tiny_a routes at width 3");
    assert!(problem.verify_detailed_routing(&routing, 3).is_ok());
}

#[test]
fn routing_stats_are_consistent_with_the_conflict_graph() {
    for instance in benchmarks::suite_tiny() {
        let arch = instance.problem.arch();
        let routes = instance.problem.global_routing().routes();
        let mut nets_per_segment = vec![BTreeSet::new(); arch.num_segments()];
        for route in routes {
            for &seg in &route.path {
                nets_per_segment[arch.segment_index(seg)].insert(route.subnet.net);
            }
        }
        let max_congestion = nets_per_segment.iter().map(BTreeSet::len).max();
        // Max segment congestion is a clique in the conflict graph, so it
        // can never exceed the DSATUR color count (a proper coloring).
        assert!(max_congestion.is_some_and(|c| c as u32 <= instance.routable_width));
        // And the clique-based unroutable width lies below it.
        assert!(instance.unroutable_width < instance.routable_width);
        let wirelength: usize = routes.iter().map(|r| r.path.len()).sum();
        assert!(wirelength >= instance.problem.num_subnets());
    }
}
