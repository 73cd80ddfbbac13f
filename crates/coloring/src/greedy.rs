//! Greedy coloring heuristics: fast upper bounds on the chromatic number.
//!
//! These are not part of the paper's SAT flow; they bound the search range
//! when the pipeline looks for the minimum routable channel width, and they
//! act as sanity oracles in tests.

use crate::{Coloring, CspGraph};

/// Colors the graph greedily in the given vertex order, always using the
/// smallest color not used by an already-colored neighbor.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the vertices.
pub fn greedy_coloring_with_order(graph: &CspGraph, order: &[u32]) -> Coloring {
    let n = graph.num_vertices();
    assert_eq!(order.len(), n, "order must cover every vertex");
    let mut colors: Vec<Option<u32>> = vec![None; n];
    let mut used: Vec<bool> = Vec::new();
    for &v in order {
        used.clear();
        used.resize(n + 1, false);
        for w in graph.neighbors(v) {
            if let Some(c) = colors[w as usize] {
                used[c as usize] = true;
            }
        }
        let color = used
            .iter()
            .position(|&u| !u)
            .expect("n+1 slots always contain a free color") as u32;
        assert!(
            colors[v as usize].is_none(),
            "order visits vertex {v} twice"
        );
        colors[v as usize] = Some(color);
    }
    Coloring::from_colors(
        colors
            .into_iter()
            .map(|c| c.expect("order must be a permutation"))
            .collect(),
    )
}

/// Greedy coloring in descending-degree order (Welsh–Powell).
///
/// # Examples
///
/// ```
/// use satroute_coloring::{CspGraph, greedy_coloring};
///
/// let g = CspGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let c = greedy_coloring(&g);
/// assert!(c.is_proper(&g));
/// assert!(c.num_colors() <= 3);
/// ```
pub fn greedy_coloring(graph: &CspGraph) -> Coloring {
    let mut order: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    greedy_coloring_with_order(graph, &order)
}

/// DSATUR coloring (Brélaz): repeatedly colors the vertex with the highest
/// saturation (number of distinct neighbor colors), breaking ties by degree.
///
/// Usually produces tighter bounds than [`greedy_coloring`]; it is the
/// upper-bound oracle used when calibrating benchmark channel widths.
pub fn dsatur_coloring(graph: &CspGraph) -> Coloring {
    let n = graph.num_vertices();
    let mut colors: Vec<Option<u32>> = vec![None; n];
    let mut neighbor_colors: Vec<std::collections::BTreeSet<u32>> =
        vec![std::collections::BTreeSet::new(); n];

    for _ in 0..n {
        // Pick the uncolored vertex with max (saturation, degree).
        let v = (0..n as u32)
            .filter(|&v| colors[v as usize].is_none())
            .max_by_key(|&v| (neighbor_colors[v as usize].len(), graph.degree(v)))
            .expect("at least one uncolored vertex remains");
        let mut color = 0u32;
        while neighbor_colors[v as usize].contains(&color) {
            color += 1;
        }
        colors[v as usize] = Some(color);
        for w in graph.neighbors(v) {
            neighbor_colors[w as usize].insert(color);
        }
    }

    Coloring::from_colors(
        colors
            .into_iter()
            .map(|c| c.expect("all colored"))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = CspGraph::new(0);
        assert_eq!(greedy_coloring(&g).len(), 0);
        assert_eq!(dsatur_coloring(&g).len(), 0);
    }

    #[test]
    fn edgeless_graph_uses_one_color() {
        let g = CspGraph::new(5);
        assert_eq!(greedy_coloring(&g).num_colors(), 1);
        assert_eq!(dsatur_coloring(&g).num_colors(), 1);
    }

    #[test]
    fn complete_graph_uses_n_colors() {
        let n = 6u32;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        let g = CspGraph::from_edges(n as usize, edges);
        assert_eq!(greedy_coloring(&g).num_colors(), n as usize);
        assert_eq!(dsatur_coloring(&g).num_colors(), n as usize);
    }

    #[test]
    fn bipartite_graph_dsatur_uses_two_colors() {
        // Complete bipartite K(3,3).
        let mut edges = Vec::new();
        for i in 0..3u32 {
            for j in 3..6u32 {
                edges.push((i, j));
            }
        }
        let g = CspGraph::from_edges(6, edges);
        let c = dsatur_coloring(&g);
        assert!(c.is_proper(&g));
        assert_eq!(c.num_colors(), 2);
    }

    #[test]
    fn odd_cycle_needs_three() {
        let g = CspGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let c = dsatur_coloring(&g);
        assert!(c.is_proper(&g));
        assert_eq!(c.num_colors(), 3);
    }

    #[test]
    fn custom_order_is_respected() {
        let g = CspGraph::from_edges(3, [(0, 1)]);
        let c = greedy_coloring_with_order(&g, &[1, 0, 2]);
        assert!(c.is_proper(&g));
        assert_eq!(c.color(1), 0);
        assert_eq!(c.color(0), 1);
        assert_eq!(c.color(2), 0);
    }

    #[test]
    fn order_decides_the_colors_of_the_3_crown() {
        // The 3-crown: K(3,3) minus a perfect matching, chromatic number
        // 2, the case where routing one net at a time loses to SAT. The
        // interleaved order needs 3 colors, the id order 2.
        let g = CspGraph::from_edges(6, [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)]);
        let interleaved = greedy_coloring_with_order(&g, &[0, 3, 1, 4, 2, 5]);
        assert!(interleaved.is_proper(&g));
        assert_eq!(interleaved.num_colors(), 3);
        assert_eq!(
            greedy_coloring_with_order(&g, &[0, 1, 2, 3, 4, 5]).num_colors(),
            2
        );
    }

    #[test]
    #[should_panic]
    fn non_permutation_order_panics() {
        let g = CspGraph::new(3);
        let _ = greedy_coloring_with_order(&g, &[0, 0, 1]);
    }
}
