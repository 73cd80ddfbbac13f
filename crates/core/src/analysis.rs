//! Closed-form size analysis of the encodings.
//!
//! For each encoding, the number of Boolean variables per CSP variable and
//! the number of structural clauses per CSP variable are simple functions
//! of the domain size `k`; the number of conflict clauses is always
//! `|E| · k`. This module provides those functions as a closed-form
//! cross-check: its own tests compare them against the actual emitters,
//! so a regression in either is caught by the other.

use crate::catalog::EncodingId;
use crate::scheme::ceil_log2;

/// Predicted per-CSP-variable shape of an encoding at domain size `k`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EncodingShape {
    /// Local Boolean variables per CSP variable.
    pub vars_per_vertex: u32,
    /// Structural clauses per CSP variable.
    pub structural_per_vertex: u32,
}

/// Number of subdomains a chunked top level produces (`⌈k / ⌈k/m⌉⌉`).
fn chunk_count(k: u32, m: u32) -> u32 {
    let m = m.min(k);
    if k == 0 {
        return 0;
    }
    k.div_ceil(k.div_ceil(m))
}

/// Sizes of the chunked subdomains.
fn chunk_sizes(k: u32, m: u32) -> Vec<u32> {
    let m = m.min(k);
    let capacity = k.div_ceil(m);
    let mut sizes = Vec::new();
    let mut rem = k;
    while rem > 0 {
        let take = capacity.min(rem);
        sizes.push(take);
        rem -= take;
    }
    sizes
}

/// Sizes of the recursive-halving subdomains (ITE-log tops).
fn halving_sizes(k: u32, levels: u32) -> Vec<u32> {
    fn split(size: u32, depth: u32, out: &mut Vec<u32>) {
        if depth == 0 || size == 1 {
            out.push(size);
        } else {
            let first = size.div_ceil(2);
            split(first, depth - 1, out);
            split(size - first, depth - 1, out);
        }
    }
    let mut out = Vec::new();
    split(k, levels, &mut out);
    out
}

/// Exclusion clauses for ragged subdomains with a non-ITE bottom:
/// `Σ_s (capacity − size_s)`.
fn ragged_exclusions(sizes: &[u32]) -> u32 {
    let capacity = *sizes.iter().max().unwrap_or(&0);
    sizes.iter().map(|&s| capacity - s).sum()
}

/// Structural clauses of the simple bottom/top schemes at size `m`.
fn simple_structural(id: SimpleKind, m: u32) -> u32 {
    match id {
        SimpleKind::Log => (1u32 << ceil_log2(m)) - m,
        SimpleKind::Direct => 1 + m * m.saturating_sub(1) / 2,
        SimpleKind::Muldirect => 1,
        SimpleKind::Ite => 0,
    }
}

#[derive(Clone, Copy)]
enum SimpleKind {
    Log,
    Direct,
    Muldirect,
    Ite,
}

/// Predicts the per-CSP-variable shape of `id` at domain size `k`.
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Examples
///
/// ```
/// use satroute_core::analysis::predicted_shape;
/// use satroute_core::EncodingId;
///
/// // §3: 13 values need 12 ITE-linear variables but only 4 ITE-log ones.
/// assert_eq!(predicted_shape(EncodingId::IteLinear, 13).vars_per_vertex, 12);
/// assert_eq!(predicted_shape(EncodingId::IteLog, 13).vars_per_vertex, 4);
/// ```
pub fn predicted_shape(id: EncodingId, k: u32) -> EncodingShape {
    assert!(k >= 1, "domain must have at least one value");
    use EncodingId::*;
    let (vars, structural) = match id {
        Log => (ceil_log2(k), simple_structural(SimpleKind::Log, k)),
        Direct => (k, simple_structural(SimpleKind::Direct, k)),
        Muldirect => (k, simple_structural(SimpleKind::Muldirect, k)),
        IteLinear => (k - 1, 0),
        IteLog => (ceil_log2(k), 0),
        IteLog1IteLinear => ite_log_top(k, 1, SimpleKind::Ite),
        IteLog2IteLinear => ite_log_top(k, 2, SimpleKind::Ite),
        IteLog2Direct => ite_log_top(k, 2, SimpleKind::Direct),
        IteLog2Muldirect => ite_log_top(k, 2, SimpleKind::Muldirect),
        IteLinear2Direct => chunk_top(k, 3, TopKind::IteLinear, SimpleKind::Direct),
        IteLinear2Muldirect => chunk_top(k, 3, TopKind::IteLinear, SimpleKind::Muldirect),
        Direct3Direct => chunk_top(k, 3, TopKind::Direct, SimpleKind::Direct),
        Direct3Muldirect => chunk_top(k, 3, TopKind::Direct, SimpleKind::Muldirect),
        Muldirect3Direct => chunk_top(k, 3, TopKind::Muldirect, SimpleKind::Direct),
        Muldirect3Muldirect => chunk_top(k, 3, TopKind::Muldirect, SimpleKind::Muldirect),
    };
    EncodingShape {
        vars_per_vertex: vars,
        structural_per_vertex: structural,
    }
}

enum TopKind {
    IteLinear,
    Direct,
    Muldirect,
}

fn bottom_vars(kind: &SimpleKind, capacity: u32) -> u32 {
    match kind {
        SimpleKind::Log => ceil_log2(capacity),
        SimpleKind::Direct | SimpleKind::Muldirect => capacity,
        SimpleKind::Ite => capacity.saturating_sub(1), // ITE-linear bottoms
    }
}

fn ite_log_top(k: u32, levels: u32, bottom: SimpleKind) -> (u32, u32) {
    let sizes = halving_sizes(k, levels);
    let capacity = *sizes.iter().max().expect("non-empty");
    // The truncated balanced tree uses `levels` vars unless the domain ran
    // out earlier (k < 2^levels); its var count equals the depth actually
    // reached.
    let top_vars = tree_depth(k, levels);
    let vars = top_vars + bottom_vars(&bottom, capacity);
    let mut structural = simple_structural(bottom, capacity);
    if !matches!(bottom, SimpleKind::Ite) {
        structural += ragged_exclusions(&sizes);
    }
    (vars, structural)
}

fn tree_depth(k: u32, levels: u32) -> u32 {
    if levels == 0 || k <= 1 {
        0
    } else {
        let first = k.div_ceil(2);
        1 + tree_depth(first, levels - 1).max(tree_depth(k - first, levels - 1))
    }
}

fn chunk_top(k: u32, m: u32, top: TopKind, bottom: SimpleKind) -> (u32, u32) {
    let sizes = chunk_sizes(k, m);
    let count = chunk_count(k, m);
    let capacity = *sizes.iter().max().expect("non-empty");
    let (top_vars, top_structural) = match top {
        TopKind::IteLinear => (count - 1, 0),
        TopKind::Direct => (count, simple_structural(SimpleKind::Direct, count)),
        TopKind::Muldirect => (count, simple_structural(SimpleKind::Muldirect, count)),
    };
    let vars = top_vars + bottom_vars(&bottom, capacity);
    let mut structural = top_structural + simple_structural(bottom, capacity);
    if !matches!(bottom, SimpleKind::Ite) {
        structural += ragged_exclusions(&sizes);
    }
    (vars, structural)
}

/// Predicts the whole-instance CNF size for a graph with `n` vertices and
/// `e` edges at domain size `k` (ignoring symmetry-breaking clauses).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn predicted_instance_size(id: EncodingId, n: usize, e: usize, k: u32) -> (u64, u64) {
    let shape = predicted_shape(id, k);
    let vars = shape.vars_per_vertex as u64 * n as u64;
    let clauses = shape.structural_per_vertex as u64 * n as u64 + e as u64 * k as u64;
    (vars, clauses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_coloring;
    use crate::symmetry::SymmetryHeuristic;
    use satroute_coloring::random_graph;

    #[test]
    fn predictions_match_the_emitters() {
        for id in EncodingId::ALL {
            for k in 1..=16 {
                let scheme = id.emit(k);
                let shape = predicted_shape(id, k);
                assert_eq!(shape.vars_per_vertex, scheme.num_vars, "{id} k={k}: vars");
                assert_eq!(
                    shape.structural_per_vertex as usize,
                    scheme.structural.len(),
                    "{id} k={k}: structural clauses"
                );
            }
        }
    }

    #[test]
    fn instance_predictions_match_the_encoder() {
        let g = random_graph(20, 0.4, 11);
        for id in EncodingId::ALL {
            for k in [2u32, 5, 9] {
                let enc = encode_coloring(&g, k, &id.encoding(), SymmetryHeuristic::None);
                let (vars, clauses) =
                    predicted_instance_size(id, g.num_vertices(), g.num_edges(), k);
                assert_eq!(u64::from(enc.formula.num_vars()), vars, "{id} k={k}");
                assert_eq!(enc.formula.num_clauses() as u64, clauses, "{id} k={k}");
            }
        }
    }

    #[test]
    fn known_shapes_from_the_paper() {
        // muldirect-3+muldirect at K=13: top 3 vars + bottom ⌈13/3⌉ = 5.
        let s = predicted_shape(EncodingId::Muldirect3Muldirect, 13);
        assert_eq!(s.vars_per_vertex, 8);
        // log at k=3 needs exactly one illegal-value clause (Table 1).
        let s = predicted_shape(EncodingId::Log, 3);
        assert_eq!(s.structural_per_vertex, 1);
        // direct at k=3: ALO + 3 AMO (Table 1).
        let s = predicted_shape(EncodingId::Direct, 3);
        assert_eq!(s.structural_per_vertex, 4);
    }
}
