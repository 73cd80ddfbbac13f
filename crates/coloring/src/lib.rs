//! Graph-coloring CSP substrate for the `satroute` workspace.
//!
//! The reproduced paper (Velev & Gao, DATE 2008) solves FPGA detailed
//! routing by first translating it to a graph-coloring problem "in the
//! DIMACS format", then encoding that to SAT. This crate is the
//! graph-coloring half of the tool flow:
//!
//! * [`CspGraph`] — an undirected simple graph whose vertices are CSP
//!   variables (2-pin nets) and whose edges are disequality constraints,
//! * [`Coloring`] — a color assignment with validity checking,
//! * [`dimacs`] — the DIMACS `.col` interchange format,
//! * [`greedy_coloring`] / [`dsatur_coloring`] — fast upper bounds on the
//!   chromatic number,
//! * [`exact`] — an exhaustive k-colorability oracle for tests,
//! * [`random_graph`] — seeded G(n, p) instances for property tests and
//!   benches.
//!
//! # Examples
//!
//! ```
//! use satroute_coloring::{CspGraph, greedy_coloring};
//!
//! // A triangle needs 3 colors.
//! let g = CspGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
//! let coloring = greedy_coloring(&g);
//! assert!(coloring.is_proper(&g));
//! assert_eq!(coloring.num_colors(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coloring;
mod graph;
mod greedy;
mod random;

pub mod dimacs;
pub mod exact;

pub use coloring::Coloring;
pub use graph::CspGraph;
pub use greedy::{dsatur_coloring, greedy_coloring, greedy_coloring_with_order};
pub use random::random_graph;
