//! Decoding a SAT model back into a coloring.
//!
//! Multi-valued encodings (muldirect and hierarchical encodings with a
//! muldirect level) may select several domain values per CSP variable; per
//! the paper, "we extract a CSP solution by taking any one of the allowed
//! values" — the decoder takes the lowest. The conflict clauses guarantee
//! the allowed sets of adjacent vertices are disjoint, so any choice is
//! proper.

use std::error::Error;
use std::fmt;

use satroute_cnf::{Assignment, Lit};
use satroute_coloring::Coloring;

use crate::encode::DecodeMap;

/// Error produced when a model cannot be decoded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// No pattern of this vertex is satisfied — the model does not satisfy
    /// the encoding's structural clauses (indicates a solver bug or a model
    /// for a different formula).
    NoValueSelected {
        /// The undecodable vertex.
        vertex: u32,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::NoValueSelected { vertex } => {
                write!(f, "model selects no domain value for vertex {vertex}")
            }
        }
    }
}

impl Error for DecodeError {}

/// Decodes a SAT model into a coloring using the map produced by
/// [`encode`](crate::encode::encode).
///
/// # Errors
///
/// Returns [`DecodeError::NoValueSelected`] if some vertex has no satisfied
/// pattern — impossible for models of the encoded formula (the encodings'
/// *totality* property), so an error indicates a mismatched model.
///
/// # Examples
///
/// ```
/// use satroute_coloring::CspGraph;
/// use satroute_core::{decode_coloring, encode_coloring, EncodingId, SymmetryHeuristic};
/// use satroute_solver::{CdclSolver, SolveOutcome};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let square = CspGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let enc = encode_coloring(
///     &square,
///     2,
///     &EncodingId::IteLog.encoding(),
///     SymmetryHeuristic::S1,
/// );
/// let mut solver = CdclSolver::new();
/// solver.add_formula(&enc.formula);
/// let SolveOutcome::Sat(model) = solver.solve() else { panic!("2-colorable") };
/// let coloring = decode_coloring(&model, &enc.decode)?;
/// assert!(coloring.is_proper(&square));
/// # Ok(())
/// # }
/// ```
pub fn decode_coloring(model: &Assignment, map: &DecodeMap) -> Result<Coloring, DecodeError> {
    let mut colors = Vec::with_capacity(map.offsets.len());
    for (vertex, &offset) in map.offsets.iter().enumerate() {
        let color = map
            .scheme
            .patterns
            .iter()
            .position(|p| {
                p.lits()
                    .iter()
                    .all(|&l| model.satisfies(Lit::from_code(l.code() + 2 * offset)))
            })
            .ok_or(DecodeError::NoValueSelected {
                vertex: vertex as u32,
            })?;
        colors.push(color as u32);
    }
    Ok(Coloring::from_colors(colors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::EncodingId;
    use crate::encode::encode_coloring;
    use crate::symmetry::SymmetryHeuristic;
    use satroute_coloring::CspGraph;
    use satroute_solver::{CdclSolver, SolveOutcome};

    #[test]
    fn decodes_solutions_for_every_encoding() {
        let g = CspGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
        for id in EncodingId::ALL {
            let enc = encode_coloring(&g, 3, &id.encoding(), SymmetryHeuristic::None);
            let mut solver = CdclSolver::new();
            solver.add_formula(&enc.formula);
            match solver.solve() {
                SolveOutcome::Sat(model) => {
                    let coloring = decode_coloring(&model, &enc.decode)
                        .unwrap_or_else(|e| panic!("{id}: {e}"));
                    assert!(coloring.is_proper(&g), "{id}");
                    assert!(coloring.max_color().unwrap() < 3, "{id}");
                }
                other => panic!("{id}: expected SAT, got {other:?}"),
            }
        }
    }

    #[test]
    fn mismatched_model_reports_no_value() {
        let g = CspGraph::from_edges(2, [(0, 1)]);
        let enc = encode_coloring(
            &g,
            2,
            &EncodingId::Direct.encoding(),
            SymmetryHeuristic::None,
        );
        // An all-false model violates the at-least-one clauses.
        let model = Assignment::from_bools(&vec![false; enc.formula.num_vars() as usize]);
        assert!(matches!(
            decode_coloring(&model, &enc.decode),
            Err(DecodeError::NoValueSelected { vertex: 0 })
        ));
    }

    #[test]
    fn multivalued_model_takes_lowest_selected_value() {
        let g = CspGraph::new(1);
        let enc = encode_coloring(
            &g,
            3,
            &EncodingId::Muldirect.encoding(),
            SymmetryHeuristic::None,
        );
        // Select values 1 and 2 simultaneously.
        let model = Assignment::from_bools(&[false, true, true]);
        let coloring = decode_coloring(&model, &enc.decode).unwrap();
        assert_eq!(coloring.color(0), 1);
    }
}
