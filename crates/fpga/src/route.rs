//! Congestion-negotiating global router.
//!
//! In the paper, global routings come from the SEGA-1.1 distribution; here
//! they are produced by a maze router of the same family: every 2-pin subnet
//! gets a shortest path through the channel-segment graph, with segment
//! costs that grow with present congestion, followed by rip-up-and-reroute
//! refinement passes. The router is deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

use crate::{decompose, Architecture, DecompositionStyle, Netlist, Segment, Subnet, Terminal};

/// The global route of one 2-pin subnet: the ordered channel segments it
/// passes through, from the source pin's connection block to the sink's.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubnetRoute {
    /// The routed subnet.
    pub subnet: Subnet,
    /// The segments traversed, in order. Never empty; consecutive segments
    /// are switch-block adjacent.
    pub path: Vec<Segment>,
}

/// A complete global routing: one [`SubnetRoute`] per 2-pin subnet.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct GlobalRouting {
    routes: Vec<SubnetRoute>,
}

impl GlobalRouting {
    /// Creates a global routing from per-subnet routes.
    pub fn new(routes: Vec<SubnetRoute>) -> Self {
        GlobalRouting { routes }
    }

    /// The per-subnet routes.
    pub fn routes(&self) -> &[SubnetRoute] {
        &self.routes
    }

    /// Number of routed subnets.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Returns `true` if no subnets are routed.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Checks structural validity against a fabric: every path is non-empty,
    /// both terminals are on the fabric, and the path starts at the source
    /// pin's segment, ends at the sink pin's segment, and moves only
    /// between switch-block-adjacent segments.
    ///
    /// # Errors
    ///
    /// Returns the first [`RouteError`] found.
    pub fn validate(&self, arch: &Architecture) -> Result<(), RouteError> {
        for route in &self.routes {
            let path = &route.path;
            if path.is_empty() {
                return Err(RouteError::EmptyPath(route.subnet));
            }
            let (from, to) = (route.subnet.from, route.subnet.to);
            if !arch.contains_block(from.x, from.y) || !arch.contains_block(to.x, to.y) {
                return Err(RouteError::OffFabric(route.subnet));
            }
            let src = arch.pin_segment(from.x, from.y, from.side);
            let dst = arch.pin_segment(to.x, to.y, to.side);
            if path[0] != src || *path.last().expect("non-empty") != dst {
                return Err(RouteError::EndpointMismatch(route.subnet));
            }
            for w in path.windows(2) {
                if !arch.neighbors(w[0]).contains(&w[1]) {
                    return Err(RouteError::Disconnected(route.subnet));
                }
            }
        }
        Ok(())
    }

    /// Maximum number of *distinct nets* passing through any one segment —
    /// a lower bound on the channel width required by this global routing.
    pub fn max_segment_congestion(&self, arch: &Architecture) -> usize {
        let mut nets_per_segment: Vec<std::collections::BTreeSet<u32>> =
            vec![std::collections::BTreeSet::new(); arch.num_segments()];
        for route in &self.routes {
            for &seg in &route.path {
                nets_per_segment[arch.segment_index(seg)].insert(route.subnet.net.0);
            }
        }
        nets_per_segment.iter().map(|s| s.len()).max().unwrap_or(0)
    }
}

/// Errors produced by routing or validating routes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteError {
    /// A subnet has an empty path.
    EmptyPath(Subnet),
    /// A subnet's terminal is on a block outside the fabric.
    OffFabric(Subnet),
    /// A path does not start/end at the subnet's pins.
    EndpointMismatch(Subnet),
    /// Consecutive path segments are not switch-block adjacent.
    Disconnected(Subnet),
    /// The maze search found no path (cannot happen on a connected fabric;
    /// kept for API honesty).
    NoPath(Subnet),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::EmptyPath(s) => write!(f, "subnet {s} has an empty path"),
            RouteError::OffFabric(s) => write!(f, "subnet {s} has a terminal off the fabric"),
            RouteError::EndpointMismatch(s) => {
                write!(f, "subnet {s} path does not connect its pins")
            }
            RouteError::Disconnected(s) => {
                write!(f, "subnet {s} path jumps between non-adjacent segments")
            }
            RouteError::NoPath(s) => write!(f, "no path found for subnet {s}"),
        }
    }
}

impl Error for RouteError {}

/// A deterministic congestion-negotiating maze router.
///
/// # Examples
///
/// ```
/// use satroute_fpga::{Architecture, GlobalRouter, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let arch = Architecture::new(4, 4)?;
/// let netlist = Netlist::random(&arch, 6, 2..=3, 11)?;
/// let routing = GlobalRouter::new().route(&arch, &netlist)?;
/// routing.validate(&arch)?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct GlobalRouter {
    style: DecompositionStyle,
    ripup_passes: usize,
    congestion_weight: u64,
}

impl Default for GlobalRouter {
    fn default() -> Self {
        GlobalRouter {
            style: DecompositionStyle::Star,
            ripup_passes: 2,
            congestion_weight: 3,
        }
    }
}

impl GlobalRouter {
    /// Creates a router with default parameters (star decomposition, two
    /// rip-up passes, congestion weight 3).
    pub fn new() -> Self {
        GlobalRouter::default()
    }

    /// Sets the multi-pin decomposition style.
    pub fn with_decomposition(mut self, style: DecompositionStyle) -> Self {
        self.style = style;
        self
    }

    /// Sets the number of rip-up-and-reroute refinement passes.
    pub fn with_ripup_passes(mut self, passes: usize) -> Self {
        self.ripup_passes = passes;
        self
    }

    /// Sets the extra cost per net already occupying a segment.
    pub fn with_congestion_weight(mut self, weight: u64) -> Self {
        self.congestion_weight = weight;
        self
    }

    /// Routes every subnet of `netlist` on `arch`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::NoPath`] if the maze search fails (impossible
    /// on a connected fabric, but surfaced rather than panicking).
    pub fn route(
        &self,
        arch: &Architecture,
        netlist: &Netlist,
    ) -> Result<GlobalRouting, RouteError> {
        let subnets = decompose(netlist, self.style);
        let graph = SegmentGraph::new(arch);
        let mut search = MazeSearch::new(arch.num_segments());
        // usage[s] = number of subnets currently routed through segment s.
        let mut usage: Vec<u64> = vec![0; arch.num_segments()];
        // paths[i]: subnet i's segment indices, source first; empty until
        // the first pass routes it.
        let mut paths: Vec<Vec<u32>> = vec![Vec::new(); subnets.len()];
        let pin = |t: Terminal| arch.segment_index(arch.pin_segment(t.x, t.y, t.side)) as u32;

        // Route longer subnets first: they have fewer detour options.
        let mut order: Vec<usize> = (0..subnets.len()).collect();
        order.sort_by_key(|&i| {
            let s = subnets[i];
            let dx = (i32::from(s.from.x) - i32::from(s.to.x)).unsigned_abs();
            let dy = (i32::from(s.from.y) - i32::from(s.to.y)).unsigned_abs();
            (Reverse(dx + dy), i)
        });

        for _ in 0..=self.ripup_passes {
            for &i in &order {
                let path = &mut paths[i];
                for &seg in path.iter() {
                    usage[seg as usize] -= 1;
                }
                let subnet = subnets[i];
                let cost = |seg: u32| 1 + self.congestion_weight * usage[seg as usize];
                if !search.shortest_path(&graph, pin(subnet.from), pin(subnet.to), cost, path) {
                    return Err(RouteError::NoPath(subnet));
                }
                for &seg in path.iter() {
                    usage[seg as usize] += 1;
                }
            }
        }

        let routes = subnets
            .into_iter()
            .zip(paths)
            .map(|(subnet, path)| SubnetRoute {
                subnet,
                path: path.iter().map(|&i| arch.segment_at(i as usize)).collect(),
            })
            .collect();
        Ok(GlobalRouting::new(routes))
    }
}

/// A fabric's segment graph as flat adjacency lists, built once per
/// [`GlobalRouter::route`] call: the neighbors of the segment with dense
/// index `i` are `adj[start[i]..start[i + 1]]`, as dense indices in
/// [`Architecture::neighbors`] order.
struct SegmentGraph {
    start: Vec<u32>,
    adj: Vec<u32>,
}

impl SegmentGraph {
    /// # Panics
    ///
    /// Panics if the fabric is too large for `u32` offsets: a segment has
    /// at most six neighbors, so `6 · segments` must fit.
    fn new(arch: &Architecture) -> Self {
        assert!(
            arch.num_segments() <= u32::MAX as usize / 6,
            "{arch} has too many segments to route"
        );
        let mut start = Vec::with_capacity(arch.num_segments() + 1);
        let mut adj = Vec::new();
        start.push(0);
        for seg in arch.segments() {
            adj.extend(
                arch.neighbors(seg)
                    .into_iter()
                    .map(|next| arch.segment_index(next) as u32),
            );
            start.push(adj.len() as u32);
        }
        SegmentGraph { start, adj }
    }

    fn neighbors(&self, seg: u32) -> &[u32] {
        let seg = seg as usize;
        &self.adj[self.start[seg] as usize..self.start[seg + 1] as usize]
    }
}

/// Dijkstra's working state, reused by every search of one
/// [`GlobalRouter::route`] call.
struct MazeSearch {
    dist: Vec<u64>,
    /// Predecessor on the cheapest path found. Not reset between searches:
    /// every segment a search reaches gets its entry from that search, and
    /// the path walk follows only reached segments.
    prev: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl MazeSearch {
    fn new(num_segments: usize) -> Self {
        MazeSearch {
            dist: vec![u64::MAX; num_segments],
            prev: vec![u32::MAX; num_segments],
            heap: BinaryHeap::new(),
        }
    }

    /// Dijkstra over the segment graph from `src` to `dst`, where entering
    /// a segment (the source included) costs `cost(segment)`. Writes the
    /// cheapest path into `path`, source first, and returns `false` if
    /// `dst` is unreachable.
    fn shortest_path(
        &mut self,
        graph: &SegmentGraph,
        src: u32,
        dst: u32,
        cost: impl Fn(u32) -> u64,
        path: &mut Vec<u32>,
    ) -> bool {
        let dist = &mut self.dist;
        dist.fill(u64::MAX);
        self.heap.clear();
        dist[src as usize] = cost(src);
        self.heap.push(Reverse((dist[src as usize], src)));

        while let Some(Reverse((d, seg))) = self.heap.pop() {
            if d > dist[seg as usize] {
                continue;
            }
            if seg == dst {
                break;
            }
            for &next in graph.neighbors(seg) {
                let nd = d + cost(next);
                if nd < dist[next as usize] {
                    dist[next as usize] = nd;
                    self.prev[next as usize] = seg;
                    self.heap.push(Reverse((nd, next)));
                }
            }
        }

        if dist[dst as usize] == u64::MAX {
            return false;
        }
        path.clear();
        let mut cur = dst;
        loop {
            path.push(cur);
            if cur == src {
                break;
            }
            cur = self.prev[cur as usize];
        }
        path.reverse();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Net, Side, Terminal};

    fn t(x: u16, y: u16, side: Side) -> Terminal {
        Terminal { x, y, side }
    }

    #[test]
    fn routes_single_straight_net() {
        let arch = Architecture::new(3, 1).unwrap();
        let net = Net::new(vec![t(0, 0, Side::South), t(2, 0, Side::South)]).unwrap();
        let nl = Netlist::new(&arch, vec![net]).unwrap();
        let routing = GlobalRouter::new().route(&arch, &nl).unwrap();
        routing.validate(&arch).unwrap();
        assert_eq!(routing.len(), 1);
        // Straight shot along the bottom channel: 3 segments.
        assert_eq!(routing.routes()[0].path.len(), 3);
    }

    #[test]
    fn same_segment_pins_yield_single_segment_path() {
        let arch = Architecture::new(2, 1).unwrap();
        // South pins of horizontally adjacent blocks share no segment, but
        // the North pin of (0,0) and South of... use two pins on the same
        // block-edge channel segment: block (0,0) South and... only one pin
        // per side per block, so use a net whose two pins map to the same
        // segment: impossible on distinct blocks here — instead verify a
        // minimal two-block route validates.
        let net = Net::new(vec![t(0, 0, Side::East), t(1, 0, Side::West)]).unwrap();
        let nl = Netlist::new(&arch, vec![net]).unwrap();
        let routing = GlobalRouter::new().route(&arch, &nl).unwrap();
        routing.validate(&arch).unwrap();
        // Both pins connect to V(1,0): a single-segment path.
        assert_eq!(routing.routes()[0].path.len(), 1);
    }

    #[test]
    fn routing_is_deterministic() {
        let arch = Architecture::new(5, 5).unwrap();
        let nl = Netlist::random(&arch, 15, 2..=4, 42).unwrap();
        let r1 = GlobalRouter::new().route(&arch, &nl).unwrap();
        let r2 = GlobalRouter::new().route(&arch, &nl).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn all_routes_validate_on_random_netlists() {
        for seed in 0..5u64 {
            let arch = Architecture::new(6, 4).unwrap();
            let nl = Netlist::random(&arch, 12, 2..=4, seed).unwrap();
            let routing = GlobalRouter::new().route(&arch, &nl).unwrap();
            routing.validate(&arch).unwrap();
            assert_eq!(
                routing.len(),
                nl.iter().map(|(_, n)| n.num_terminals() - 1).sum::<usize>()
            );
        }
    }

    #[test]
    fn congestion_weight_spreads_traffic() {
        // Many nets crossing the same column; a congestion-aware router
        // should not exceed the uncongested router's peak usage.
        let arch = Architecture::new(6, 6).unwrap();
        let nl = Netlist::random(&arch, 20, 2..=2, 8).unwrap();
        let flat = GlobalRouter::new()
            .with_congestion_weight(0)
            .with_ripup_passes(0)
            .route(&arch, &nl)
            .unwrap();
        let spread = GlobalRouter::new().route(&arch, &nl).unwrap();
        assert!(
            spread.max_segment_congestion(&arch) <= flat.max_segment_congestion(&arch),
            "negotiation should not make congestion worse"
        );
    }

    #[test]
    fn validate_rejects_corrupted_paths() {
        let arch = Architecture::new(3, 3).unwrap();
        let nl = Netlist::random(&arch, 4, 2..=2, 2).unwrap();
        let routing = GlobalRouter::new().route(&arch, &nl).unwrap();

        let mut broken = routing.routes().to_vec();
        broken[0].path.clear();
        assert!(matches!(
            GlobalRouting::new(broken).validate(&arch),
            Err(RouteError::EmptyPath(_))
        ));

        let mut broken = routing.routes().to_vec();
        broken[0].path.remove(0);
        let res = GlobalRouting::new(broken).validate(&arch);
        assert!(res.is_err());
    }

    /// The router before the flat segment graph: a fresh Dijkstra per
    /// subnet, with neighbors from [`Architecture::neighbors`]. The
    /// reference [`GlobalRouter::route`] must match route for route.
    fn reference_route(
        router: &GlobalRouter,
        arch: &Architecture,
        netlist: &Netlist,
    ) -> GlobalRouting {
        let subnets = decompose(netlist, router.style);
        let mut usage: Vec<u64> = vec![0; arch.num_segments()];
        let mut paths: Vec<Option<Vec<Segment>>> = vec![None; subnets.len()];
        let mut order: Vec<usize> = (0..subnets.len()).collect();
        order.sort_by_key(|&i| {
            let s = subnets[i];
            let dx = (i32::from(s.from.x) - i32::from(s.to.x)).unsigned_abs();
            let dy = (i32::from(s.from.y) - i32::from(s.to.y)).unsigned_abs();
            (Reverse(dx + dy), i)
        });
        for pass in 0..=router.ripup_passes {
            for &i in &order {
                if pass > 0 {
                    for seg in paths[i].take().expect("routed in pass 0") {
                        usage[arch.segment_index(seg)] -= 1;
                    }
                }
                let path = reference_maze_route(router, arch, subnets[i], &usage);
                for seg in &path {
                    usage[arch.segment_index(*seg)] += 1;
                }
                paths[i] = Some(path);
            }
        }
        GlobalRouting::new(
            subnets
                .into_iter()
                .zip(paths)
                .map(|(subnet, path)| SubnetRoute {
                    subnet,
                    path: path.expect("all subnets routed"),
                })
                .collect(),
        )
    }

    fn reference_maze_route(
        router: &GlobalRouter,
        arch: &Architecture,
        subnet: Subnet,
        usage: &[u64],
    ) -> Vec<Segment> {
        let src =
            arch.segment_index(arch.pin_segment(subnet.from.x, subnet.from.y, subnet.from.side));
        let dst = arch.segment_index(arch.pin_segment(subnet.to.x, subnet.to.y, subnet.to.side));
        let n = arch.num_segments();
        let mut dist: Vec<u64> = vec![u64::MAX; n];
        let mut prev: Vec<usize> = vec![usize::MAX; n];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let enter_cost = |idx: usize| 1 + router.congestion_weight * usage[idx];
        dist[src] = enter_cost(src);
        heap.push(Reverse((dist[src], src)));
        while let Some(Reverse((d, idx))) = heap.pop() {
            if d > dist[idx] {
                continue;
            }
            if idx == dst {
                break;
            }
            for next in arch.neighbors(arch.segment_at(idx)) {
                let next_idx = arch.segment_index(next);
                let nd = d + enter_cost(next_idx);
                if nd < dist[next_idx] {
                    dist[next_idx] = nd;
                    prev[next_idx] = idx;
                    heap.push(Reverse((nd, next_idx)));
                }
            }
        }
        let mut path = Vec::new();
        let mut cur = dst;
        loop {
            path.push(arch.segment_at(cur));
            if cur == src {
                break;
            }
            cur = prev[cur];
        }
        path.reverse();
        path
    }

    #[test]
    fn flat_router_matches_the_reference_dijkstra() {
        for (width, height) in [(1, 1), (3, 2), (5, 5), (9, 7)] {
            let arch = Architecture::new(width, height).unwrap();
            let nets = (arch.num_blocks() / 2).max(1);
            for seed in 0..2u64 {
                let nl = Netlist::random(&arch, nets, 2..=4, seed).unwrap();
                for style in [DecompositionStyle::Star, DecompositionStyle::Chain] {
                    for passes in [0, 1, 3] {
                        for weight in [0, 1, 4] {
                            let router = GlobalRouter::new()
                                .with_decomposition(style)
                                .with_ripup_passes(passes)
                                .with_congestion_weight(weight);
                            assert_eq!(
                                router.route(&arch, &nl).unwrap(),
                                reference_route(&router, &arch, &nl),
                                "{width}x{height} seed {seed} {style:?} passes {passes} weight {weight}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn chain_decomposition_also_routes() {
        let arch = Architecture::new(5, 5).unwrap();
        let nl = Netlist::random(&arch, 8, 3..=5, 21).unwrap();
        let routing = GlobalRouter::new()
            .with_decomposition(DecompositionStyle::Chain)
            .route(&arch, &nl)
            .unwrap();
        routing.validate(&arch).unwrap();
    }
}
