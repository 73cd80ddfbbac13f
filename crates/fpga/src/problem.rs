//! The detailed-routing problem bundle and its verification.

use std::error::Error;
use std::fmt;

use satroute_coloring::CspGraph;

use crate::{Architecture, GlobalRouting, Netlist, Segment, Subnet};

/// A detailed routing: one track index per 2-pin subnet, aligned with
/// [`RoutingProblem::subnets`] order.
///
/// With the track-preserving switch blocks of the [`Architecture`] model, a
/// subnet occupies the same track index along its entire global route, so a
/// single `u32` per subnet fully describes the detailed routing — exactly
/// the graph-coloring correspondence the paper builds on (§2).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DetailedRouting {
    tracks: Vec<u32>,
}

impl DetailedRouting {
    /// Creates a detailed routing from per-subnet track indices.
    pub fn from_tracks(tracks: Vec<u32>) -> Self {
        DetailedRouting { tracks }
    }

    /// Track assigned to subnet `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn track(&self, i: usize) -> u32 {
        self.tracks[i]
    }

    /// All track assignments (index = subnet index).
    pub fn tracks(&self) -> &[u32] {
        &self.tracks
    }

    /// Number of assigned subnets.
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// Returns `true` if no subnets are assigned.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }
}

impl From<Vec<u32>> for DetailedRouting {
    fn from(tracks: Vec<u32>) -> Self {
        DetailedRouting::from_tracks(tracks)
    }
}

/// Reasons a detailed routing fails verification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// The routing covers a different number of subnets than the problem.
    WrongLength {
        /// Subnets in the problem.
        expected: usize,
        /// Subnets in the routing.
        actual: usize,
    },
    /// A subnet uses a track `>= width`.
    TrackOutOfRange {
        /// Offending subnet index.
        subnet: usize,
        /// Its track.
        track: u32,
        /// The channel width.
        width: u32,
    },
    /// Two subnets of different nets share a track in a common segment.
    TrackConflict {
        /// First subnet index.
        a: usize,
        /// Second subnet index.
        b: usize,
        /// The shared track.
        track: u32,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::WrongLength { expected, actual } => write!(
                f,
                "routing covers {actual} subnets but the problem has {expected}"
            ),
            VerifyError::TrackOutOfRange {
                subnet,
                track,
                width,
            } => write!(
                f,
                "subnet {subnet} uses track {track} outside channel width {width}"
            ),
            VerifyError::TrackConflict { a, b, track } => write!(
                f,
                "subnets {a} and {b} of different nets share track {track} in a common segment"
            ),
        }
    }
}

impl Error for VerifyError {}

/// An FPGA detailed-routing problem: a fabric, a netlist and a fixed global
/// routing. The open question — the one the SAT flow answers — is whether
/// the subnets can be assigned tracks within a channel width `W`.
///
/// # Examples
///
/// ```
/// use satroute_fpga::{Architecture, GlobalRouter, Netlist, RoutingProblem};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let arch = Architecture::new(4, 4)?;
/// let netlist = Netlist::random(&arch, 8, 2..=3, 5)?;
/// let routing = GlobalRouter::new().route(&arch, &netlist)?;
/// let problem = RoutingProblem::new(arch, netlist, routing);
/// let graph = problem.conflict_graph();
/// assert_eq!(graph.num_vertices(), problem.num_subnets());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RoutingProblem {
    arch: Architecture,
    netlist: Netlist,
    routing: GlobalRouting,
}

impl RoutingProblem {
    /// Bundles a fabric, netlist and global routing into a problem.
    pub fn new(arch: Architecture, netlist: Netlist, routing: GlobalRouting) -> Self {
        RoutingProblem {
            arch,
            netlist,
            routing,
        }
    }

    /// The fabric.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The fixed global routing.
    pub fn global_routing(&self) -> &GlobalRouting {
        &self.routing
    }

    /// Number of 2-pin subnets (= CSP variables).
    pub fn num_subnets(&self) -> usize {
        self.routing.len()
    }

    /// The subnets, in the index order used by conflict graphs and detailed
    /// routings.
    pub fn subnets(&self) -> impl Iterator<Item = Subnet> + '_ {
        self.routing.routes().iter().map(|r| r.subnet)
    }

    /// Builds the track-exclusivity graph (paper §2): one vertex per 2-pin
    /// subnet; an edge wherever two subnets of *different* multi-pin nets
    /// pass through a common channel segment (i.e. share a connection
    /// block), since such pairs must use different tracks. The constraint is
    /// emitted once per pair even when they share several segments.
    pub fn conflict_graph(&self) -> CspGraph {
        let routes = self.routing.routes();
        let mut graph = CspGraph::new(routes.len());
        let occupancy = self.routing.segment_occupancy(&self.arch, |i, _| i as u32);
        for through in occupancy.chunk_by(|a, b| a.0 == b.0) {
            for (a_pos, &(_, a)) in through.iter().enumerate() {
                for &(_, b) in &through[a_pos + 1..] {
                    if routes[a as usize].subnet.net != routes[b as usize].subnet.net {
                        graph.add_edge(a, b);
                    }
                }
            }
        }
        graph
    }

    /// [`RoutingProblem::conflict_graph`] wrapped in a `graph_generation`
    /// trace span recording subnet/vertex/edge counts; also returns the
    /// measured wall time so callers can keep their timing views without
    /// re-measuring.
    pub fn conflict_graph_traced(
        &self,
        tracer: &satroute_obs::Tracer,
    ) -> (CspGraph, std::time::Duration) {
        let span = tracer.span("graph_generation");
        let graph = self.conflict_graph();
        span.counter("subnets", self.num_subnets() as u64);
        span.counter("vertices", graph.num_vertices() as u64);
        span.counter("edges", graph.num_edges() as u64);
        (graph, span.close())
    }

    /// Checks that `routing` is a valid detailed routing for channel width
    /// `width`.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] encountered: wrong subnet count, a
    /// track outside `0..width`, or two subnets of different nets sharing a
    /// track in a common segment.
    pub fn verify_detailed_routing(
        &self,
        routing: &DetailedRouting,
        width: u32,
    ) -> Result<(), VerifyError> {
        let routes = self.routing.routes();
        if routing.len() != routes.len() {
            return Err(VerifyError::WrongLength {
                expected: routes.len(),
                actual: routing.len(),
            });
        }
        for (i, &track) in routing.tracks().iter().enumerate() {
            if track >= width {
                return Err(VerifyError::TrackOutOfRange {
                    subnet: i,
                    track,
                    width,
                });
            }
        }
        // Check conflicts segment by segment, segments and then subnets
        // ascending (independently of the conflict graph, so this doubles
        // as a test oracle for `conflict_graph`).
        let occupancy = self.routing.segment_occupancy(&self.arch, |i, _| i as u32);
        for through in occupancy.chunk_by(|a, b| a.0 == b.0) {
            for (a_pos, &(_, a)) in through.iter().enumerate() {
                for &(_, b) in &through[a_pos + 1..] {
                    let (a, b) = (a as usize, b as usize);
                    if routes[a].subnet.net != routes[b].subnet.net
                        && routing.track(a) == routing.track(b)
                    {
                        return Err(VerifyError::TrackConflict {
                            a,
                            b,
                            track: routing.track(a),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The segments shared by two subnets (diagnostic helper).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn shared_segments(&self, a: usize, b: usize) -> Vec<Segment> {
        let ra = &self.routing.routes()[a];
        let rb = &self.routing.routes()[b];
        let set: std::collections::HashSet<Segment> = ra.path.iter().copied().collect();
        let mut out: Vec<Segment> = rb
            .path
            .iter()
            .copied()
            .filter(|s| set.contains(s))
            .collect();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GlobalRouter, Net, Side, Terminal};
    use satroute_coloring::{dsatur_coloring, Coloring};

    fn t(x: u16, y: u16, side: Side) -> Terminal {
        Terminal { x, y, side }
    }

    fn sample_problem(seed: u64) -> RoutingProblem {
        let arch = Architecture::new(5, 5).unwrap();
        let netlist = Netlist::random(&arch, 14, 2..=4, seed).unwrap();
        let routing = GlobalRouter::new().route(&arch, &netlist).unwrap();
        RoutingProblem::new(arch, netlist, routing)
    }

    #[test]
    fn two_overlapping_nets_conflict() {
        let arch = Architecture::new(3, 1).unwrap();
        // Both nets run along the bottom channel.
        let n1 = Net::new(vec![t(0, 0, Side::South), t(2, 0, Side::South)]).unwrap();
        let n2 = Net::new(vec![t(1, 0, Side::South), t(2, 0, Side::North)]).unwrap();
        let netlist = Netlist::new(&arch, vec![n1, n2]).unwrap();
        let routing = GlobalRouter::new().route(&arch, &netlist).unwrap();
        let problem = RoutingProblem::new(arch, netlist, routing);
        let g = problem.conflict_graph();
        assert_eq!(g.num_vertices(), 2);
        // Net 1's source segment H(1,0) lies on net 0's path H(0,0)-H(1,0)-H(2,0).
        assert_eq!(g.num_edges(), 1);

        // Same track fails, different tracks verify.
        let same = DetailedRouting::from_tracks(vec![0, 0]);
        assert!(matches!(
            problem.verify_detailed_routing(&same, 2),
            Err(VerifyError::TrackConflict { .. })
        ));
        let diff = DetailedRouting::from_tracks(vec![0, 1]);
        problem.verify_detailed_routing(&diff, 2).unwrap();
        assert!(matches!(
            problem.verify_detailed_routing(&diff, 1),
            Err(VerifyError::TrackOutOfRange { .. })
        ));
    }

    #[test]
    fn subnets_of_same_net_never_conflict() {
        let arch = Architecture::new(3, 3).unwrap();
        // One 3-pin net: its two subnets share the source pin's segment but
        // must not produce an edge.
        let net = Net::new(vec![
            t(1, 1, Side::North),
            t(0, 1, Side::North),
            t(2, 1, Side::North),
        ])
        .unwrap();
        let netlist = Netlist::new(&arch, vec![net]).unwrap();
        let routing = GlobalRouter::new().route(&arch, &netlist).unwrap();
        let problem = RoutingProblem::new(arch, netlist, routing);
        assert_eq!(problem.num_subnets(), 2);
        assert_eq!(problem.conflict_graph().num_edges(), 0);
        // Sharing one track is fine within a net.
        problem
            .verify_detailed_routing(&DetailedRouting::from_tracks(vec![0, 0]), 1)
            .unwrap();
    }

    #[test]
    fn proper_coloring_of_conflict_graph_verifies() {
        for seed in [1u64, 2, 3] {
            let problem = sample_problem(seed);
            let graph = problem.conflict_graph();
            let coloring = dsatur_coloring(&graph);
            assert!(coloring.is_proper(&graph));
            let width = coloring.max_color().map_or(1, |m| m + 1);
            let routing = DetailedRouting::from_tracks(coloring.into_colors());
            problem.verify_detailed_routing(&routing, width).unwrap();
        }
    }

    #[test]
    fn improper_coloring_fails_verification() {
        let problem = sample_problem(4);
        let graph = problem.conflict_graph();
        if graph.num_edges() == 0 {
            return; // extremely unlikely; nothing to violate
        }
        let (u, _v) = graph.edges().next().unwrap();
        let coloring = dsatur_coloring(&graph);
        let width = coloring.max_color().unwrap() + 1;
        let mut tracks = coloring.into_colors();
        // Force a violation on the first edge.
        let (a, b) = graph.edges().next().unwrap();
        tracks[b as usize] = tracks[a as usize];
        let _ = u;
        let routing = DetailedRouting::from_tracks(tracks);
        assert!(problem
            .verify_detailed_routing(&routing, width + 1)
            .is_err());
    }

    #[test]
    fn wrong_length_is_rejected() {
        let problem = sample_problem(5);
        let routing = DetailedRouting::from_tracks(vec![0; problem.num_subnets() + 1]);
        assert!(matches!(
            problem.verify_detailed_routing(&routing, 10),
            Err(VerifyError::WrongLength { .. })
        ));
    }

    #[test]
    fn conflict_graph_matches_verification_oracle() {
        // Every edge of the conflict graph must correspond to a pair that
        // fails verification when given equal tracks.
        let problem = sample_problem(6);
        let graph = problem.conflict_graph();
        let n = problem.num_subnets();
        for (a, b) in graph.edges().take(20) {
            let mut tracks: Vec<u32> = (0..n as u32).map(|i| i + 2).collect();
            tracks[a as usize] = 0;
            tracks[b as usize] = 0;
            let routing = DetailedRouting::from_tracks(tracks);
            assert!(
                problem
                    .verify_detailed_routing(&routing, n as u32 + 2)
                    .is_err(),
                "edge ({a}, {b}) should conflict"
            );
            assert!(!problem.shared_segments(a as usize, b as usize).is_empty());
        }
        let _ = Coloring::default();
    }
}
