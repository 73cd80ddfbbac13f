//! Regenerates **Table 1** of the paper: the clause sets generated by the
//! log, direct and muldirect encodings for an example graph-coloring
//! problem with two adjacent vertices v and w, each with domain {0, 1, 2}.
//!
//! Run with: `cargo run -p satroute-bench --bin table1`

use satroute_cnf::clause;
use satroute_coloring::CspGraph;
use satroute_core::{encode_coloring, EncodingId, SymmetryHeuristic};

fn main() {
    // Two adjacent vertices — the constraint for detailed routing of two
    // electrically distinct 2-pin nets through one connection block with
    // three tracks.
    let graph = CspGraph::from_edges(2, [(0, 1)]);
    let k = 3;

    println!("Table 1: clauses for two adjacent CSP variables v, w with domain {{0,1,2}}");
    println!("(vertex v owns the first variable block, w the second)\n");

    for id in [EncodingId::Log, EncodingId::Direct, EncodingId::Muldirect] {
        let enc = encode_coloring(&graph, k, &id.encoding(), SymmetryHeuristic::None);
        println!(
            "--- {} ({} variables, {} clauses) ---",
            id,
            enc.formula.num_vars(),
            enc.formula.num_clauses()
        );
        let scheme = &enc.decode.scheme;
        for (d, p) in scheme.patterns.iter().enumerate() {
            println!("  pattern for value {d}: {p}");
        }
        for lits in enc.formula.clauses() {
            println!("  clause: {}", clause::display(lits));
        }
        println!();
    }
}
