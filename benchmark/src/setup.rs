//! Seeded inputs: netlists, global routes, subnet permutations and the
//! oracle widths every answer is checked against.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use satroute_coloring::dsatur_coloring;
use satroute_fpga::benchmarks::{paper_specs, BenchmarkSpec};
use satroute_fpga::{Architecture, GlobalRouter, GlobalRouting, Netlist, RoutingProblem};
use satroute_obs::Tracer;

use crate::Workload;

/// One routing problem with the independent facts the oracle needs.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Benchmark name (`alu2` … `k2`, or `fabric<side>`).
    pub name: String,
    /// Fabric, netlist and (seed-permuted) global routing.
    pub problem: RoutingProblem,
    /// A clique of the conflict graph, as subnet indices of `problem`:
    /// `clique.len() - 1` tracks are provably too few.
    pub clique: Vec<u32>,
    /// Colors of a DSATUR coloring: a width that provably routes.
    pub dsatur_width: u32,
}

impl Instance {
    /// The clique bound ω: every width below it is unroutable.
    pub fn omega(&self) -> u32 {
        self.clique.len() as u32
    }

    /// Checks the clique witness against the global routing directly
    /// (not through the conflict graph): every pair belongs to different
    /// nets and shares a channel segment.
    pub fn check_clique(&self) -> Result<(), String> {
        let subnets: Vec<_> = self.problem.subnets().collect();
        for (i, &a) in self.clique.iter().enumerate() {
            for &b in &self.clique[i + 1..] {
                let (a, b) = (a as usize, b as usize);
                if subnets[a].net == subnets[b].net || self.problem.shared_segments(a, b).is_empty()
                {
                    return Err(format!(
                        "{}: clique witness pair ({a}, {b}) does not conflict",
                        self.name
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Wall time of each set-up layer, summed over the instances of one build.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Netlist generation (`fpga::netlist`).
    pub netlist: Duration,
    /// Global routing (`GlobalRouter::route`).
    pub global_route: Duration,
    /// DSATUR and greedy-clique bounds (`coloring`).
    pub bounds: Duration,
    /// Total global-route path length in channel segments.
    pub wirelength: u64,
}

/// The `large-route` fabrics: name and side; each carries side² nets.
const LARGE_FABRICS: [(&str, u16); 5] = [
    ("fabric12", 12),
    ("fabric14", 14),
    ("fabric16", 16),
    ("fabric18", 18),
    ("fabric20", 20),
];

/// The specs a workload builds: the eight paper benchmarks, or
/// `large-route`'s fabrics with fixed seeded placements. Run seeds only
/// reorder subnets (see [`PassInputs`]), so every run routes the same
/// fabrics and set-up does the same work.
fn specs(workload: Workload) -> Vec<BenchmarkSpec> {
    match workload {
        Workload::LargeRoute => LARGE_FABRICS
            .iter()
            .map(|&(name, side)| BenchmarkSpec {
                name,
                grid: (side, side),
                nets: usize::from(side) * usize::from(side),
                terminals: 2..=4,
                seed: 0xFAB_0000 + u64::from(side),
                ripup_passes: 3,
                congestion_weight: 4,
                clusters: 1,
            })
            .collect(),
        _ => paper_specs(),
    }
}

/// Builds the canonical instances of `workload`, recording one span per
/// layer call under `tracer` and summing layer times into `times`.
pub fn build(workload: Workload, tracer: &Tracer, times: &mut SetupTimes) -> Vec<Instance> {
    specs(workload)
        .iter()
        .map(|spec| build_one(spec, tracer, times))
        .collect()
}

/// The inputs of successive passes: every pass routes the same instances
/// with their subnets in a fresh seeded order, drawn from one stream per
/// seed (the first pass of seed 0 keeps the canonical order).
///
/// A permuted routing has an isomorphic conflict graph, so the widths
/// stay exact while the CNF variable order, and with it the solver's
/// search, changes. Averaging over many orders keeps a run's totals
/// steady across seeds.
pub struct PassInputs {
    rng: StdRng,
    identity_next: bool,
}

impl PassInputs {
    /// The pass stream of `seed`.
    pub fn new(seed: u64) -> PassInputs {
        PassInputs {
            rng: StdRng::seed_from_u64(seed),
            identity_next: seed == 0,
        }
    }

    /// The next pass's instances: `canonical` in the pass's order.
    pub fn next_pass(&mut self, canonical: &[Instance]) -> Vec<Instance> {
        if std::mem::take(&mut self.identity_next) {
            return canonical.to_vec();
        }
        canonical
            .iter()
            .map(|inst| inst.permuted(&mut self.rng))
            .collect()
    }
}

impl Instance {
    fn permuted(&self, rng: &mut StdRng) -> Instance {
        let routes = self.problem.global_routing().routes();
        let mut order: Vec<usize> = (0..routes.len()).collect();
        order.shuffle(rng);
        let mut position = vec![0u32; order.len()];
        for (new, &old) in order.iter().enumerate() {
            position[old] = new as u32;
        }
        let permuted = GlobalRouting::new(order.iter().map(|&old| routes[old].clone()).collect());
        Instance {
            name: self.name.clone(),
            problem: RoutingProblem::new(
                self.problem.arch().clone(),
                self.problem.netlist().clone(),
                permuted,
            ),
            clique: self.clique.iter().map(|&c| position[c as usize]).collect(),
            dsatur_width: self.dsatur_width,
        }
    }
}

fn build_one(spec: &BenchmarkSpec, tracer: &Tracer, times: &mut SetupTimes) -> Instance {
    let (w, h) = spec.grid;
    let arch = Architecture::new(w, h).expect("spec grids are non-empty");

    let span = tracer.span("netlist");
    let netlist = if spec.clusters <= 1 {
        Netlist::random(&arch, spec.nets, spec.terminals.clone(), spec.seed)
    } else {
        let per_cluster = spec.nets / usize::from(spec.clusters);
        Netlist::random_clustered(
            &arch,
            spec.clusters,
            per_cluster,
            spec.terminals.clone(),
            spec.seed,
        )
    }
    .expect("spec netlists fit their fabric");
    times.netlist += span.close();

    let span = tracer.span("global_route");
    let routing = GlobalRouter::new()
        .with_ripup_passes(spec.ripup_passes)
        .with_congestion_weight(spec.congestion_weight)
        .route(&arch, &netlist)
        .expect("connected fabrics always route");
    span.counter("subnets", routing.len() as u64);
    times.global_route += span.close();
    times.wirelength += routing
        .routes()
        .iter()
        .map(|r| r.path.len() as u64)
        .sum::<u64>();

    let span = tracer.span("conflict_graph");
    let problem = RoutingProblem::new(arch, netlist, routing);
    let graph = problem.conflict_graph();
    span.counter("edges", graph.num_edges() as u64);
    drop(span);

    let span = tracer.span("bounds");
    let dsatur_width = dsatur_coloring(&graph).max_color().map_or(1, |m| m + 1);
    let clique = graph.greedy_clique();
    times.bounds += span.close();

    Instance {
        name: spec.name.to_string(),
        problem,
        clique,
        dsatur_width,
    }
}
