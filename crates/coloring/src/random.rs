//! Seeded random graph generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::CspGraph;

/// Generates a seeded Erdős–Rényi graph `G(n, p)`.
///
/// Each of the `n·(n-1)/2` possible edges is present independently with
/// probability `p`. The same `(n, p, seed)` triple always produces the same
/// graph, which keeps property tests and benches reproducible.
///
/// # Panics
///
/// Panics if `p` is not within `0.0..=1.0`.
///
/// # Examples
///
/// ```
/// use satroute_coloring::random_graph;
///
/// let g1 = random_graph(20, 0.3, 42);
/// let g2 = random_graph(20, 0.3, 42);
/// assert_eq!(g1, g2);
/// assert_eq!(g1.num_vertices(), 20);
/// ```
pub fn random_graph(n: usize, p: f64, seed: u64) -> CspGraph {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    CspGraph::from_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        assert_eq!(random_graph(30, 0.5, 7), random_graph(30, 0.5, 7));
    }

    #[test]
    fn different_seeds_differ() {
        // With 30 vertices at p = 0.5 a collision is essentially impossible.
        assert_ne!(random_graph(30, 0.5, 1), random_graph(30, 0.5, 2));
    }

    #[test]
    fn extreme_probabilities() {
        let empty = random_graph(10, 0.0, 3);
        assert_eq!(empty.num_edges(), 0);
        let full = random_graph(10, 1.0, 3);
        assert_eq!(full.num_edges(), 45);
    }

    #[test]
    #[should_panic]
    fn invalid_probability_panics() {
        let _ = random_graph(5, 1.5, 0);
    }
}
