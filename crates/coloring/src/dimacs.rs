//! DIMACS graph-coloring (`.col`) interchange format.
//!
//! The paper's first contribution is a tool flow that emits the FPGA
//! detailed-routing constraint graph "in the DIMACS format" so that any
//! graph-coloring-to-SAT tool can pick it up. This module implements that
//! interchange point: the classic `p edge <n> <m>` / `e <u> <v>` format used
//! by the DIMACS graph-coloring challenges (vertices are 1-based).
//!
//! # Examples
//!
//! ```
//! use satroute_coloring::{dimacs, CspGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = CspGraph::from_edges(3, [(0, 1), (1, 2)]);
//! let text = dimacs::to_col_string(&g);
//! let parsed = dimacs::parse_col_str(&text)?;
//! assert_eq!(parsed, g);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use crate::CspGraph;

/// The most vertices a `p edge` header may declare: 2^30 − 1.
///
/// Every encoding of width two or more gives each vertex at least one
/// variable, and a CNF names at most 2^30 − 1 variables (the `Var::LIMIT`
/// of `satroute-cnf`), so no graph with more vertices can be encoded.
/// The parser rejects larger counts before it allocates the graph.
pub const MAX_VERTICES: u32 = (1 << 30) - 1;

/// Error produced when parsing a DIMACS `.col` file fails.
#[derive(Debug)]
pub enum ParseColError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the file.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for ParseColError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseColError::Io(e) => write!(f, "i/o error reading DIMACS .col: {e}"),
            ParseColError::Syntax { line, message } => {
                write!(f, "DIMACS .col syntax error at line {line}: {message}")
            }
        }
    }
}

impl Error for ParseColError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseColError::Io(e) => Some(e),
            ParseColError::Syntax { .. } => None,
        }
    }
}

impl From<io::Error> for ParseColError {
    fn from(e: io::Error) -> Self {
        ParseColError::Io(e)
    }
}

fn syntax(line: usize, message: impl Into<String>) -> ParseColError {
    ParseColError::Syntax {
        line,
        message: message.into(),
    }
}

/// Parses a DIMACS `.col` graph.
///
/// Accepts `c` comments, one `p edge <n> <m>` (or the historical
/// `p edges`) header, and `e <u> <v>` edge lines with 1-based vertices.
/// Duplicate edges are tolerated; self-loops are rejected (a coloring
/// instance with a self-loop is contradictory).
///
/// # Errors
///
/// Returns [`ParseColError`] on I/O failure or malformed content.
pub fn parse_col<R: Read>(reader: R) -> Result<CspGraph, ParseColError> {
    let (n, edges) = parse_col_edges(reader)?;
    Ok(CspGraph::from_edges(n, edges))
}

/// Parses a DIMACS `.col` graph as [`parse_col`] does, but stops short of
/// building it: returns the declared vertex count and the edges, 0-based,
/// in file order. A caller that refuses graphs above some size can check
/// the vertex count before anything is sized by the largest endpoint.
///
/// # Errors
///
/// See [`parse_col`].
pub fn parse_col_edges<R: Read>(reader: R) -> Result<(usize, Vec<(u32, u32)>), ParseColError> {
    let reader = BufReader::new(reader);
    let mut header: Option<usize> = None;
    let mut edges = Vec::new();

    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        match parts.next() {
            Some("p") => {
                if header.is_some() {
                    return Err(syntax(line_no, "duplicate problem header"));
                }
                let format = parts.next();
                if format != Some("edge") && format != Some("edges") {
                    return Err(syntax(line_no, "expected `p edge <n> <m>`"));
                }
                let n: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n <= MAX_VERTICES)
                    .ok_or_else(|| {
                        syntax(
                            line_no,
                            format!("bad vertex count (at most {MAX_VERTICES})"),
                        )
                    })?;
                let _m: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| syntax(line_no, "bad edge count"))?;
                header = Some(n as usize);
            }
            Some("e") => {
                let n = header.ok_or_else(|| syntax(line_no, "edge before `p edge` header"))?;
                let u: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| syntax(line_no, "bad edge endpoint"))?;
                let v: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| syntax(line_no, "bad edge endpoint"))?;
                if u == 0 || v == 0 {
                    return Err(syntax(line_no, "vertices are 1-based"));
                }
                if u == v {
                    return Err(syntax(line_no, format!("self-loop on vertex {u}")));
                }
                let (u0, v0) = (u - 1, v - 1);
                if (u0 as usize) >= n || (v0 as usize) >= n {
                    return Err(syntax(
                        line_no,
                        format!("edge ({u}, {v}) exceeds declared vertex count"),
                    ));
                }
                edges.push((u0, v0));
            }
            Some(other) => {
                return Err(syntax(line_no, format!("unknown line type `{other}`")));
            }
            None => unreachable!("trimmed non-empty line has a token"),
        }
    }

    let n = header.ok_or_else(|| syntax(0, "missing `p edge` header"))?;
    Ok((n, edges))
}

/// Parses a DIMACS `.col` document from a string.
///
/// # Errors
///
/// See [`parse_col`].
pub fn parse_col_str(text: &str) -> Result<CspGraph, ParseColError> {
    parse_col(text.as_bytes())
}

/// Writes a graph in DIMACS `.col` format (1-based vertices).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_col<W: Write>(mut writer: W, graph: &CspGraph) -> io::Result<()> {
    writeln!(
        writer,
        "p edge {} {}",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (u, v) in graph.edges() {
        writeln!(writer, "e {} {}", u + 1, v + 1)?;
    }
    Ok(())
}

/// Renders a graph as a DIMACS `.col` string.
pub fn to_col_string(graph: &CspGraph) -> String {
    let mut buf = Vec::new();
    write_col(&mut buf, graph).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("DIMACS output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let g = CspGraph::from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 4)]);
        let parsed = parse_col_str(&to_col_string(&g)).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn parses_comments_and_duplicates() {
        let text = "c graph\np edge 3 2\ne 1 2\ne 2 1\ne 2 3\n";
        let g = parse_col_str(text).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn accepts_edges_keyword() {
        let g = parse_col_str("p edges 2 1\ne 1 2\n").unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_col_str("").is_err());
        assert!(parse_col_str("e 1 2\n").is_err());
        assert!(parse_col_str("p edge 2 1\ne 1 1\n").is_err());
        assert!(parse_col_str("p edge 2 1\ne 0 1\n").is_err());
        assert!(parse_col_str("p edge 2 1\ne 1 5\n").is_err());
        assert!(parse_col_str("p edge 2 1\nq 1 2\n").is_err());
        assert!(parse_col_str("p edge 2 1\np edge 2 1\n").is_err());
        assert!(parse_col_str("p foo 2 1\n").is_err());
    }

    #[test]
    fn vertex_count_above_u32_is_a_syntax_error() {
        let err = parse_col_str("p edge 18446744073709551615 1\n").unwrap_err();
        assert!(
            matches!(err, ParseColError::Syntax { line: 1, .. }),
            "{err}"
        );
        assert!(parse_col_str("p edge 4294967296 0\n").is_err());
    }

    #[test]
    fn vertex_count_above_the_bound_is_rejected_before_allocating() {
        for count in [MAX_VERTICES + 1, 3_000_000_000, u32::MAX] {
            let err = parse_col_str(&format!("p edge {count} 1\ne 1 2\n")).unwrap_err();
            assert!(
                matches!(err, ParseColError::Syntax { line: 1, .. }),
                "{err}"
            );
            assert!(err.to_string().contains("at most 1073741823"), "{err}");
        }
    }

    #[test]
    fn edge_lists_come_back_as_written_without_building_the_graph() {
        // One high endpoint: as a graph this would size rows up to it.
        let text = "p edge 1000000000 2\ne 1 1000000000\ne 2 1\n";
        let (n, edges) = parse_col_edges(text.as_bytes()).unwrap();
        assert_eq!(n, 1_000_000_000);
        assert_eq!(edges, [(0, 999_999_999), (1, 0)]);
        assert!(parse_col_edges("e 1 2\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = CspGraph::new(0);
        assert_eq!(parse_col_str(&to_col_string(&g)).unwrap(), g);
    }
}
