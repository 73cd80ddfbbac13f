//! The CSP constraint graph.

use std::fmt;

/// An undirected simple graph representing a graph-coloring CSP.
///
/// Vertices are `0..num_vertices()` and model CSP variables (in the FPGA
/// flow: 2-pin nets). An edge `(u, v)` is the disequality constraint
/// "u and v must receive different colors" (different routing tracks).
///
/// The graph is built once, from an edge list, and stored in compressed
/// sparse rows: each vertex's neighbor ids, ascending, in one array, and
/// one offset per vertex into it. Self-loops are rejected and duplicate
/// edges are ignored, so the graph is always simple, and the same edges
/// give the same graph in any order.
///
/// # Examples
///
/// ```
/// use satroute_coloring::CspGraph;
///
/// // (1, 0) repeats (0, 1) and is ignored.
/// let g = CspGraph::from_edges(4, [(0, 1), (2, 3), (1, 0)]);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(0), 1);
/// assert!(g.has_edge(1, 0));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct CspGraph {
    /// Row offsets of the vertices up to the largest edge endpoint, plus
    /// one past it: vertex `v`'s neighbors are
    /// `neighbors[offsets[v]..offsets[v + 1]]`. Every vertex above it has
    /// no neighbors and no row, so a declared vertex count allocates
    /// nothing on its own; a graph without edges has no offsets at all.
    offsets: Vec<u32>,
    /// Every vertex's neighbor ids, ascending within each row.
    neighbors: Vec<u32>,
    num_vertices: usize,
}

impl CspGraph {
    /// Creates a graph with `n` vertices and no edges, without allocating.
    pub fn new(n: usize) -> Self {
        CspGraph {
            num_vertices: n,
            ..CspGraph::default()
        }
    }

    /// Creates a graph from an edge list; duplicate edges, in either
    /// direction, count once.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex `>= n` or is a self-loop.
    pub fn from_edges<I: IntoIterator<Item = (u32, u32)>>(n: usize, edges: I) -> Self {
        // Both directions of every edge as one sortable key, row first.
        let mut arcs: Vec<u64> = Vec::new();
        for (u, v) in edges {
            assert_ne!(u, v, "self-loops are not allowed (vertex {u})");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) references a vertex >= {n}"
            );
            arcs.push(u64::from(u) << 32 | u64::from(v));
            arcs.push(u64::from(v) << 32 | u64::from(u));
        }
        arcs.sort_unstable();
        arcs.dedup();
        assert!(
            u32::try_from(arcs.len()).is_ok(),
            "{} neighbor entries overflow a 32-bit row offset",
            arcs.len()
        );
        let rows = arcs.last().map_or(0, |&arc| (arc >> 32) as usize + 1);
        let mut offsets = vec![0u32; if rows == 0 { 0 } else { rows + 1 }];
        for &arc in &arcs {
            offsets[(arc >> 32) as usize + 1] += 1;
        }
        for v in 1..offsets.len() {
            offsets[v] += offsets[v - 1];
        }
        CspGraph {
            offsets,
            neighbors: arcs.into_iter().map(|arc| arc as u32).collect(),
            num_vertices: n,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Returns `true` if the edge `(u, v)` exists.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.row(u).binary_search(&v).is_ok()
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

    /// The graph's compressed sparse rows, `(offsets, neighbors)`: for a
    /// vertex `v < offsets.len() - 1`, its neighbors in ascending order
    /// are `neighbors[offsets[v]..offsets[v + 1]]`; every other vertex
    /// has none. Both are empty for a graph without edges.
    pub fn rows(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.neighbors)
    }

    /// `v`'s row, empty above the largest edge endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn adjacent(&self, v: u32) -> &[u32] {
        let n = self.num_vertices;
        assert!((v as usize) < n, "vertex {v} out of range ({n} vertices)");
        self.row(v)
    }

    /// `v`'s row, empty for a vertex without one.
    fn row(&self, v: u32) -> &[u32] {
        match self.offsets.get(v as usize..v as usize + 2) {
            Some(&[start, end]) => &self.neighbors[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Iterates over all edges as `(u, v)` pairs with `u < v`, in
    /// ascending order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.offsets.len().saturating_sub(1) as u32).flat_map(move |u| {
            self.row(u)
                .iter()
                .copied()
                .filter_map(move |v| if u < v { Some((u, v)) } else { None })
        })
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|row| (row[1] - row[0]) as usize)
            .max()
            .unwrap_or(0)
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
    fn equal_edges_give_equal_graphs_in_any_order() {
        let g = CspGraph::from_edges(3, [(0, 1), (1, 0)]);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.rows(), (&[0, 1, 2][..], &[1, 0][..]));

        // Every order, direction and repetition of one edge set builds
        // the same rows.
        let edges = [(0u32, 3u32), (2, 5), (1, 3), (3, 5), (0, 1), (4, 2)];
        let g = CspGraph::from_edges(7, edges);
        let mut x = 0x2545_f491_u64;
        for round in 0..20 {
            let mut shuffled: Vec<(u32, u32)> = edges
                .iter()
                .flat_map(|&(u, v)| [(u, v), (v, u)])
                .chain(edges.iter().take(round % 4).copied())
                .collect();
            for i in (1..shuffled.len()).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                shuffled.swap(i, (x % (i as u64 + 1)) as usize);
            }
            assert_eq!(CspGraph::from_edges(7, shuffled), g, "round {round}");
        }
        assert_eq!(g.num_edges(), edges.len());
        for v in 0..7 {
            let row: Vec<u32> = g.neighbors(v).collect();
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {v} ascends");
        }
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        CspGraph::from_edges(2, [(1, 1)]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        CspGraph::from_edges(2, [(0, 2)]);
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
        // Sized per declared vertex, this graph would take 4.3 GB of row
        // offsets.
        let n = (1 << 30) - 1;
        let g = CspGraph::from_edges(n, [(0, 1)]);
        assert_eq!(g.num_vertices(), n);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.offsets.len(), 3);
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
