//! Plain-text interchange for netlists and global routings.
//!
//! The paper's flow consumes netlists and global routings produced by
//! external tools (SEGA-1.1 files for the MCNC circuits). This module
//! defines a small line-oriented format in that spirit so problems can be
//! saved, shipped and reloaded:
//!
//! ```text
//! # comments start with '#'
//! fabric 6 6
//! net n0 (0,1,N) (3,4,E) (5,0,S)      # driver first, then sinks
//! ...
//! route n0 0 H(0,2) V(1,1) ...        # subnet <net> <sink-index> + path
//! ```
//!
//! `parse_problem` round-trips everything [`write_problem`] emits and
//! validates the result against the fabric.

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use crate::{
    Architecture, GlobalRouting, Net, NetId, Netlist, RoutingProblem, Segment, Side, Subnet,
    SubnetRoute, Terminal,
};

/// Error produced when parsing a problem file fails.
#[derive(Debug)]
pub enum ParseProblemError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem, with a 1-based line number and message.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for ParseProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseProblemError::Io(e) => write!(f, "i/o error reading problem: {e}"),
            ParseProblemError::Syntax { line, message } => {
                write!(f, "problem syntax error at line {line}: {message}")
            }
        }
    }
}

impl Error for ParseProblemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseProblemError::Io(e) => Some(e),
            ParseProblemError::Syntax { .. } => None,
        }
    }
}

impl From<io::Error> for ParseProblemError {
    fn from(e: io::Error) -> Self {
        ParseProblemError::Io(e)
    }
}

fn syntax(line: usize, message: impl Into<String>) -> ParseProblemError {
    ParseProblemError::Syntax {
        line,
        message: message.into(),
    }
}

fn side_char(side: Side) -> char {
    match side {
        Side::North => 'N',
        Side::South => 'S',
        Side::East => 'E',
        Side::West => 'W',
    }
}

fn parse_side(c: &str) -> Option<Side> {
    match c {
        "N" => Some(Side::North),
        "S" => Some(Side::South),
        "E" => Some(Side::East),
        "W" => Some(Side::West),
        _ => None,
    }
}

fn write_terminal(w: &mut impl Write, t: Terminal) -> io::Result<()> {
    write!(w, "({},{},{})", t.x, t.y, side_char(t.side))
}

fn parse_terminal(tok: &str, line: usize) -> Result<Terminal, ParseProblemError> {
    let inner = tok
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| syntax(line, format!("bad terminal `{tok}`")))?;
    let mut parts = inner.split(',');
    let x: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| syntax(line, format!("bad terminal x in `{tok}`")))?;
    let y: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| syntax(line, format!("bad terminal y in `{tok}`")))?;
    let side = parts
        .next()
        .and_then(parse_side)
        .ok_or_else(|| syntax(line, format!("bad terminal side in `{tok}`")))?;
    if parts.next().is_some() {
        return Err(syntax(line, format!("trailing fields in terminal `{tok}`")));
    }
    Ok(Terminal { x, y, side })
}

fn write_segment(w: &mut impl Write, s: Segment) -> io::Result<()> {
    match s {
        Segment::Horizontal { x, y } => write!(w, "H({x},{y})"),
        Segment::Vertical { x, y } => write!(w, "V({x},{y})"),
    }
}

fn parse_segment(tok: &str, line: usize) -> Result<Segment, ParseProblemError> {
    let (kind, rest) = tok
        .split_at_checked(1)
        .ok_or_else(|| syntax(line, format!("bad segment kind `{tok}`")))?;
    let inner = rest
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| syntax(line, format!("bad segment `{tok}`")))?;
    let mut parts = inner.split(',');
    let x: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| syntax(line, format!("bad segment x in `{tok}`")))?;
    let y: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| syntax(line, format!("bad segment y in `{tok}`")))?;
    if parts.next().is_some() {
        return Err(syntax(line, format!("trailing fields in segment `{tok}`")));
    }
    match kind {
        "H" => Ok(Segment::Horizontal { x, y }),
        "V" => Ok(Segment::Vertical { x, y }),
        _ => Err(syntax(line, format!("bad segment kind `{tok}`"))),
    }
}

/// Writes a complete routing problem (fabric, netlist, global routing).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_problem<W: Write>(mut writer: W, problem: &RoutingProblem) -> io::Result<()> {
    let arch = problem.arch();
    writeln!(writer, "# satroute problem file")?;
    writeln!(writer, "fabric {} {}", arch.width(), arch.height())?;
    for (id, net) in problem.netlist().iter() {
        write!(writer, "net n{}", id.0)?;
        for &t in net.terminals() {
            write!(writer, " ")?;
            write_terminal(&mut writer, t)?;
        }
        writeln!(writer)?;
    }
    for route in problem.global_routing().routes() {
        // Identify the subnet by its parent net and sink terminal.
        write!(writer, "route n{} ", route.subnet.net.0)?;
        write_terminal(&mut writer, route.subnet.from)?;
        write!(writer, " ")?;
        write_terminal(&mut writer, route.subnet.to)?;
        for &seg in &route.path {
            write!(writer, " ")?;
            write_segment(&mut writer, seg)?;
        }
        writeln!(writer)?;
    }
    Ok(())
}

/// Renders a problem to a string.
pub fn to_problem_string(problem: &RoutingProblem) -> String {
    let mut buf = Vec::new();
    write_problem(&mut buf, problem).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("output is ASCII")
}

/// Parses a problem file, validating the netlist against the fabric and the
/// routes against both.
///
/// # Errors
///
/// Returns [`ParseProblemError`] for I/O failures, malformed lines,
/// terminals off the fabric, or routes that do not validate.
pub fn parse_problem<R: Read>(reader: R) -> Result<RoutingProblem, ParseProblemError> {
    let reader = BufReader::new(reader);
    let mut arch: Option<Architecture> = None;
    let mut nets: Vec<Net> = Vec::new();
    let mut routes: Vec<SubnetRoute> = Vec::new();

    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let content = line.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut tokens = content.split_whitespace();
        match tokens.next() {
            Some("fabric") => {
                if arch.is_some() {
                    return Err(syntax(line_no, "duplicate fabric line"));
                }
                let w: u16 = tokens
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| syntax(line_no, "bad fabric width"))?;
                let h: u16 = tokens
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| syntax(line_no, "bad fabric height"))?;
                arch = Some(Architecture::new(w, h).map_err(|e| syntax(line_no, e.to_string()))?);
            }
            Some("net") => {
                let name = tokens
                    .next()
                    .ok_or_else(|| syntax(line_no, "missing net name"))?;
                let expected = format!("n{}", nets.len());
                if name != expected {
                    return Err(syntax(
                        line_no,
                        format!("nets must be declared in order; expected {expected}, got {name}"),
                    ));
                }
                let terminals: Result<Vec<Terminal>, _> =
                    tokens.map(|t| parse_terminal(t, line_no)).collect();
                let net = Net::new(terminals?).map_err(|e| syntax(line_no, e.to_string()))?;
                nets.push(net);
            }
            Some("route") => {
                let name = tokens
                    .next()
                    .ok_or_else(|| syntax(line_no, "missing route net name"))?;
                let net_idx: u32 = name
                    .strip_prefix('n')
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| syntax(line_no, format!("bad net name `{name}`")))?;
                if net_idx as usize >= nets.len() {
                    return Err(syntax(line_no, format!("route references unknown {name}")));
                }
                let from = parse_terminal(
                    tokens
                        .next()
                        .ok_or_else(|| syntax(line_no, "missing route source"))?,
                    line_no,
                )?;
                let to = parse_terminal(
                    tokens
                        .next()
                        .ok_or_else(|| syntax(line_no, "missing route sink"))?,
                    line_no,
                )?;
                let path: Result<Vec<Segment>, _> =
                    tokens.map(|t| parse_segment(t, line_no)).collect();
                routes.push(SubnetRoute {
                    subnet: Subnet {
                        net: NetId(net_idx),
                        from,
                        to,
                    },
                    path: path?,
                });
            }
            Some(other) => {
                return Err(syntax(line_no, format!("unknown line type `{other}`")));
            }
            None => unreachable!("non-empty content has a token"),
        }
    }

    let arch = arch.ok_or_else(|| syntax(0, "missing fabric line"))?;
    let netlist = Netlist::new(&arch, nets).map_err(|e| syntax(0, e.to_string()))?;
    let routing = GlobalRouting::new(routes);
    routing
        .validate(&arch)
        .map_err(|e| syntax(0, e.to_string()))?;
    Ok(RoutingProblem::new(arch, netlist, routing))
}

/// Parses a problem from a string.
///
/// # Errors
///
/// See [`parse_problem`].
pub fn parse_problem_str(text: &str) -> Result<RoutingProblem, ParseProblemError> {
    parse_problem(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GlobalRouter;

    fn sample_problem() -> RoutingProblem {
        let arch = Architecture::new(4, 3).unwrap();
        let netlist = Netlist::random(&arch, 8, 2..=3, 0xD0C).unwrap();
        let routing = GlobalRouter::new().route(&arch, &netlist).unwrap();
        RoutingProblem::new(arch, netlist, routing)
    }

    #[test]
    fn roundtrip_preserves_the_problem() {
        let problem = sample_problem();
        let text = to_problem_string(&problem);
        let parsed = parse_problem_str(&text).unwrap();
        assert_eq!(parsed, problem);
        // And the derived conflict graph is identical.
        assert_eq!(parsed.conflict_graph(), problem.conflict_graph());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let problem = sample_problem();
        let mut text = String::from("# header\n\n");
        text.push_str(&to_problem_string(&problem));
        text.push_str("\n# trailer\n");
        assert_eq!(parse_problem_str(&text).unwrap(), problem);
    }

    #[test]
    fn multibyte_segment_kind_is_a_syntax_error() {
        let text = "fabric 2 2\nnet n0 (0,0,N) (1,1,S)\nroute n0 (0,0,N) (1,1,S) \u{e9}(0,1)\n";
        let err = parse_problem_str(text).unwrap_err();
        assert!(
            matches!(err, ParseProblemError::Syntax { line: 3, .. }),
            "{err}"
        );
    }

    #[test]
    fn route_terminal_off_the_fabric_is_an_error() {
        let text = "fabric 2 2\nnet n0 (0,0,N) (1,1,S)\nroute n0 (9,9,N) (1,1,S) H(0,1)\n";
        let err = parse_problem_str(text).unwrap_err();
        assert!(err.to_string().contains("off the fabric"), "{err}");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_problem_str("").is_err());
        assert!(parse_problem_str("fabric 0 2\n").is_err());
        assert!(parse_problem_str("fabric 2 2\nfabric 2 2\n").is_err());
        assert!(parse_problem_str("fabric 2 2\nnet n1 (0,0,N) (1,1,S)\n").is_err());
        assert!(parse_problem_str("fabric 2 2\nnet n0 (0,0,N)\n").is_err());
        assert!(parse_problem_str("fabric 2 2\nnet n0 (0,0,N) (9,9,S)\n").is_err());
        assert!(parse_problem_str("fabric 2 2\nroute n0 (0,0,N) (1,1,S)\n").is_err());
        assert!(parse_problem_str("fabric 2 2\nbogus\n").is_err());
        assert!(parse_problem_str(
            "fabric 2 2\nnet n0 (0,0,N) (1,1,S)\nroute n0 (0,0,N) (1,1,S) Q(0,0)\n"
        )
        .is_err());
    }

    #[test]
    fn rejects_invalid_routes() {
        // A route whose path does not connect its pins fails validation.
        let text = "fabric 2 2\nnet n0 (0,0,N) (1,1,S)\nroute n0 (0,0,N) (1,1,S) H(0,1)\n";
        assert!(parse_problem_str(text).is_err());
    }

    #[test]
    fn terminal_and_segment_tokens() {
        assert!(parse_terminal("(1,2,N)", 1).is_ok());
        assert!(parse_terminal("(1,2,N,3)", 1).is_err());
        assert!(parse_terminal("1,2,N", 1).is_err());
        assert!(parse_terminal("(1,2,X)", 1).is_err());
        assert!(parse_segment("H(3,4)", 1).is_ok());
        assert!(parse_segment("V(0,0)", 1).is_ok());
        assert!(parse_segment("H(3)", 1).is_err());
        assert!(parse_segment("H(3,4,5)", 1).is_err());
    }
}
