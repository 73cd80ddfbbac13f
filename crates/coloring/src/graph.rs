//! The CSP constraint graph.

use std::collections::BTreeSet;
use std::fmt;

/// An undirected simple graph representing a graph-coloring CSP.
///
/// Vertices are `0..num_vertices()` and model CSP variables (in the FPGA
/// flow: 2-pin nets). An edge `(u, v)` is the disequality constraint
/// "u and v must receive different colors" (different routing tracks).
///
/// Self-loops are rejected and duplicate edges are ignored, so the graph is
/// always simple.
///
/// # Examples
///
/// ```
/// use satroute_coloring::CspGraph;
///
/// let mut g = CspGraph::new(4);
/// g.add_edge(0, 1);
/// g.add_edge(0, 1); // duplicate, ignored
/// g.add_edge(2, 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(0), 1);
/// assert!(g.has_edge(1, 0));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct CspGraph {
    /// Sorted adjacency sets of the vertices up to the largest endpoint of
    /// an edge; every vertex above it has no neighbors and costs nothing,
    /// so a declared vertex count allocates nothing on its own.
    adjacency: Vec<BTreeSet<u32>>,
    num_vertices: usize,
    num_edges: usize,
}

impl CspGraph {
    /// Creates a graph with `n` vertices and no edges, without allocating.
    pub fn new(n: usize) -> Self {
        CspGraph {
            adjacency: Vec::new(),
            num_vertices: n,
            num_edges: 0,
        }
    }

    /// Creates a graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex `>= n` or is a self-loop.
    pub fn from_edges<I: IntoIterator<Item = (u32, u32)>>(n: usize, edges: I) -> Self {
        let mut g = CspGraph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adds an undirected edge. Duplicate edges are ignored.
    ///
    /// Returns `true` if the edge was new.
    ///
    /// # Panics
    ///
    /// Panics on a self-loop or an out-of-range vertex.
    pub fn add_edge(&mut self, u: u32, v: u32) -> bool {
        assert_ne!(u, v, "self-loops are not allowed (vertex {u})");
        let n = self.num_vertices;
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) references a vertex >= {n}"
        );
        let top = u.max(v) as usize;
        if top >= self.adjacency.len() {
            self.adjacency.resize_with(top + 1, BTreeSet::new);
        }
        let inserted = self.adjacency[u as usize].insert(v);
        if inserted {
            self.adjacency[v as usize].insert(u);
            self.num_edges += 1;
        }
        inserted
    }

    /// Returns `true` if the edge `(u, v)` exists.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adjacency
            .get(u as usize)
            .is_some_and(|adj| adj.contains(&v))
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: u32) -> usize {
        self.adjacent(v).len()
    }

    /// Iterates over the neighbors of `v` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        self.adjacent(v).iter().copied()
    }

    /// `v`'s adjacency set, empty above the largest edge endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn adjacent(&self, v: u32) -> &BTreeSet<u32> {
        static ISOLATED: BTreeSet<u32> = BTreeSet::new();
        let n = self.num_vertices;
        assert!((v as usize) < n, "vertex {v} out of range ({n} vertices)");
        self.adjacency.get(v as usize).unwrap_or(&ISOLATED)
    }

    /// Iterates over all edges as `(u, v)` pairs with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(u, adj)| {
            let u = u as u32;
            adj.iter()
                .copied()
                .filter_map(move |v| if u < v { Some((u, v)) } else { None })
        })
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(|a| a.len()).max().unwrap_or(0)
    }

    /// Sum of the degrees of `v`'s neighbors — the tie-breaking key used by
    /// the paper's symmetry heuristics (§5).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbor_degree_sum(&self, v: u32) -> usize {
        self.neighbors(v).map(|w| self.degree(w)).sum()
    }

    /// A greedily grown clique around the highest-degree vertex — a quick
    /// lower bound on the chromatic number.
    pub fn greedy_clique(&self) -> Vec<u32> {
        let n = self.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.degree(v)));
        let mut clique: Vec<u32> = Vec::new();
        for v in order {
            if clique.iter().all(|&c| self.has_edge(c, v)) {
                clique.push(v);
            }
        }
        clique
    }
}

impl fmt::Debug for CspGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CspGraph({} vertices, {} edges)",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_empty() {
        let g = CspGraph::new(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn add_edge_is_symmetric_and_dedups() {
        let mut g = CspGraph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0));
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        CspGraph::new(2).add_edge(1, 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        CspGraph::new(2).add_edge(0, 2);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = CspGraph::from_edges(4, [(0, 1), (2, 1), (3, 0)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn degree_and_neighbor_sum() {
        let g = CspGraph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
        // Neighbors of 0 are 1 (deg 2), 2 (deg 2), 3 (deg 1).
        assert_eq!(g.neighbor_degree_sum(0), 5);
    }

    #[test]
    fn greedy_clique_finds_triangle() {
        let g = CspGraph::from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]);
        let clique = g.greedy_clique();
        assert_eq!(clique.len(), 3);
        for i in 0..clique.len() {
            for j in (i + 1)..clique.len() {
                assert!(g.has_edge(clique[i], clique[j]));
            }
        }
    }

    #[test]
    fn untouched_vertices_cost_nothing_and_answer_as_isolated() {
        // Sized per declared vertex, this graph would take 25.8 GB.
        let n = (1 << 30) - 1;
        let g = CspGraph::from_edges(n, [(0, 1)]);
        assert_eq!(g.num_vertices(), n);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.adjacency.len(), 2);
        for v in [2, 1000, n as u32 - 1] {
            assert_eq!(g.degree(v), 0);
            assert_eq!(g.neighbors(v).count(), 0);
            assert_eq!(g.neighbor_degree_sum(v), 0);
            assert!(!g.has_edge(v, 0));
        }
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), [1]);
        assert_eq!(g.edges().collect::<Vec<_>>(), [(0, 1)]);
        assert_eq!(g.max_degree(), 1);
        assert_eq!(g, CspGraph::from_edges(n, [(1, 0)]));
        assert_ne!(g, CspGraph::from_edges(n - 1, [(0, 1)]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn degree_of_an_undeclared_vertex_panics() {
        CspGraph::new(3).degree(3);
    }

    #[test]
    fn greedy_clique_on_empty_graph() {
        assert!(CspGraph::new(0).greedy_clique().is_empty());
        assert_eq!(CspGraph::new(3).greedy_clique().len(), 1);
    }
}
