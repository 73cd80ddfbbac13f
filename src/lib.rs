//! # satroute
//!
//! A comparison framework for Boolean-satisfiability encodings of FPGA
//! detailed routing problems — a from-scratch reproduction of
//! **M. N. Velev and P. Gao, "Comparison of Boolean Satisfiability Encodings
//! on FPGA Detailed Routing Problems", DATE 2008**.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`cnf`] — CNF formulas, literals and DIMACS CNF I/O,
//! * [`solver`] — a CDCL SAT solver (and a DPLL baseline),
//! * [`coloring`] — graph-coloring CSPs and DIMACS `.col` I/O,
//! * [`fpga`] — an island-style FPGA model, global router and benchmark
//!   suite,
//! * [`core`] — the paper's contribution: 14 SAT encodings for CSPs,
//!   symmetry breaking, the encoder/decoder, strategies and the parallel
//!   portfolio, plus the end-to-end routing pipeline,
//! * [`obs`] — the observability subsystem: hierarchical spans that
//!   carry every solve's counters, search-state samples and outcome,
//!   JSONL trace artifacts and the `--progress` logger, the trace report
//!   analyzer, budget postmortems ([`Postmortem`]), the metrics registry
//!   (counters, gauges, log-bucketed histograms) and the Chrome
//!   trace-event / folded-stack exporters,
//! * [`bench`](mod@bench) — the table/figure-regeneration harness and the
//!   `satroute bench` regression suites, `BENCH_*.json` artifacts and
//!   the comparison gate.
//!
//! The run-control vocabulary (budgets, cancellation) is re-exported at
//! the crate root: [`RunContext`], [`RunBudget`], [`CancellationToken`],
//! [`StopReason`] and [`SolveVerdict`], as is the tracing vocabulary from
//! [`obs`]: [`Tracer`], [`TraceWriter`], [`ProgressLogger`],
//! [`SpanForest`] and [`TraceReport`] (see "Observability & tracing" in
//! the README).
//!
//! # Quickstart
//!
//! Route a small FPGA end to end with the paper's best strategy
//! (ITE-linear-2+muldirect with symmetry heuristic s1):
//!
//! ```
//! use satroute::core::{EncodingId, RoutingPipeline, Strategy, SymmetryHeuristic};
//! use satroute::fpga::benchmarks;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let instance = benchmarks::suite_tiny()
//!     .into_iter()
//!     .next()
//!     .expect("suite is non-empty");
//! let strategy = Strategy::new(EncodingId::IteLinear2Muldirect, SymmetryHeuristic::S1);
//! let pipeline = RoutingPipeline::new(strategy);
//! let result = pipeline.route(&instance.problem, instance.routable_width)?;
//! let routing = result.routing.expect("routable at this width");
//! instance.problem.verify_detailed_routing(&routing, instance.routable_width)?;
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for more complete programs and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

#![forbid(unsafe_code)]

pub use satroute_bench as bench;
pub use satroute_cnf as cnf;
pub use satroute_coloring as coloring;
pub use satroute_core as core;
pub use satroute_fpga as fpga;
pub use satroute_obs as obs;
pub use satroute_solver as solver;

pub use satroute_solver::{CancellationToken, RunBudget, RunContext, SolveVerdict, StopReason};

pub use satroute_obs::{
    chrome_trace, collapsed_stacks, parse_jsonl, MetricsRegistry, MetricsSnapshot, Postmortem,
    ProgressLogger, SampleCause, SpanForest, TimelineReport, TimelineSample, TraceReport,
    TraceWriter, Tracer,
};
