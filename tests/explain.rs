//! End-to-end properties of minimized unroutability cores.
//!
//! `Strategy::explain` re-encodes a conflict graph with one activation
//! selector per net and shrinks the failed-assumption core to a
//! 1-minimal set of jointly unroutable nets. These tests pin the
//! semantics on real routing problems: the core re-solved *alone* is
//! still unroutable at the probed width, dropping any single net makes
//! it routable (1-minimality), and the explanation agrees with the
//! certified minimum from the incremental width ladder on both sides of
//! the boundary. A pinned quick-suite instance additionally checks the
//! fabric-level blame mapping.
//!
//! Cases come from a seeded deterministic driver (no external
//! property-testing framework is available offline); failure messages
//! carry the seed for exact replay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use satroute::coloring::CspGraph;
use satroute::core::{ExplainOutcome, RoutingPipeline, Strategy};
use satroute::fpga::{
    benchmarks, Architecture, BlameReport, GlobalRouter, NetId, Netlist, RoutingProblem,
};

fn random_problem(seed: u64) -> RoutingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = rng.gen_range(2u16..7);
    let h = rng.gen_range(2u16..6);
    let nets = rng.gen_range(2usize..14);
    let netlist_seed = rng.gen_range(0u64..500);
    let arch = Architecture::new(w, h).expect("non-empty grid");
    // Keep within the pin budget: each net needs at most 4 pins.
    let max_nets = (arch.num_blocks() * 4) / 4;
    let nets = nets.min(max_nets.max(1));
    let netlist = Netlist::random(&arch, nets, 2..=4, netlist_seed).expect("pins suffice");
    let routing = GlobalRouter::new().route(&arch, &netlist).expect("routes");
    RoutingProblem::new(arch, netlist, routing)
}

/// One group per subnet, labelled by the net it belongs to — the
/// grouping `satroute explain` uses.
fn net_groups(problem: &RoutingProblem) -> Vec<u32> {
    problem.subnets().map(|s| s.net.0).collect()
}

/// The conflict subgraph induced by the subnets whose net is in `core`.
fn induced(graph: &CspGraph, groups: &[u32], core: &[u32]) -> CspGraph {
    let keep: Vec<bool> = groups.iter().map(|g| core.contains(g)).collect();
    let mut remap = vec![u32::MAX; groups.len()];
    let mut next = 0u32;
    for (v, &k) in keep.iter().enumerate() {
        if k {
            remap[v] = next;
            next += 1;
        }
    }
    let edges = graph
        .edges()
        .filter(|&(u, v)| keep[u as usize] && keep[v as usize]);
    CspGraph::from_edges(
        next as usize,
        edges.map(|(u, v)| (remap[u as usize], remap[v as usize])),
    )
}

const CASES: u64 = 24;

#[test]
fn cores_are_unsat_alone_one_minimal_and_agree_with_the_ladder() {
    let strategy = Strategy::paper_best();
    let mut cores_seen = 0u64;
    for seed in 0..CASES {
        let problem = random_problem(seed);
        let search = RoutingPipeline::new(strategy)
            .find_min_width_incremental(&problem)
            .expect("ladder completes unbudgeted");
        if search.min_width == 0 {
            continue;
        }
        let width = search.min_width - 1;
        let graph = problem.conflict_graph();
        let groups = net_groups(&problem);

        let report = strategy.explain(&graph, &groups, width).run();
        let core = report
            .core()
            .unwrap_or_else(|| panic!("seed {seed}: width {width} is below the minimum"));
        assert!(core.status.is_minimal(), "seed {seed}");
        assert!(!core.groups.is_empty(), "seed {seed}");
        // The core bound reproduces the ladder's certified minimum.
        assert_eq!(
            report.lower_bound(),
            Some(search.min_width),
            "seed {seed}: core at min_width - 1 must witness exactly the minimum"
        );

        // The core's nets re-solved alone are still unroutable…
        let sub = induced(&graph, &groups, &core.groups);
        assert!(
            !strategy.solve_coloring(&sub, width).outcome.is_colorable(),
            "seed {seed}: core is not UNSAT alone"
        );
        // …and dropping any single net makes them routable (1-minimal).
        for &dropped in &core.groups {
            let rest: Vec<u32> = core
                .groups
                .iter()
                .copied()
                .filter(|&g| g != dropped)
                .collect();
            let sub = induced(&graph, &groups, &rest);
            assert!(
                strategy.solve_coloring(&sub, width).outcome.is_colorable(),
                "seed {seed}: core is not 1-minimal at net {dropped}"
            );
        }

        // At the minimum itself there is nothing to explain.
        let at_min = strategy.explain(&graph, &groups, search.min_width).run();
        assert!(
            matches!(at_min.outcome, ExplainOutcome::Colorable(_)),
            "seed {seed}: explain must agree the minimum width routes"
        );
        cores_seen += 1;
    }
    assert!(
        cores_seen >= 20,
        "only {cores_seen}/{CASES} instances produced a core — sampling broke"
    );
}

#[test]
fn pinned_quick_suite_instance_yields_channel_blame() {
    let instance = benchmarks::suite_tiny()
        .into_iter()
        .find(|b| b.name == "tiny_c")
        .expect("the quick suite pins tiny_c");
    let problem = &instance.problem;
    let graph = problem.conflict_graph();
    let groups = net_groups(problem);
    let width = instance.unroutable_width;

    let report = Strategy::paper_best().explain(&graph, &groups, width).run();
    let core = report
        .core()
        .expect("tiny_c is pinned unroutable at its recorded width");
    assert!(core.status.is_minimal());
    assert!(
        core.groups.len() >= 2,
        "tiny_c congestion involves several nets"
    );

    let nets: Vec<NetId> = core.groups.iter().copied().map(NetId).collect();
    let blame = BlameReport::new(problem, width, &nets);
    // The core bound meets the recorded routable width exactly.
    assert_eq!(blame.lower_bound, instance.routable_width);
    assert!(
        !blame.channels.is_empty(),
        "a multi-net core contests at least one channel segment"
    );
    assert!(blame.pressure_bound >= 2);
    assert_eq!(blame.nets.len(), core.groups.len());

    let json = blame.to_json();
    let nets_in_json = json
        .get("nets")
        .and_then(satroute::obs::json::Value::as_array)
        .expect("blame JSON has a nets array");
    assert_eq!(nets_in_json.len(), core.groups.len());
}
