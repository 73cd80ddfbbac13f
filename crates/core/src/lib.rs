//! The paper's contribution: SAT encodings for FPGA detailed routing.
//!
//! This crate reproduces the technical core of **Velev & Gao, "Comparison of
//! Boolean Satisfiability Encodings on FPGA Detailed Routing Problems"
//! (DATE 2008)**:
//!
//! * [`pattern`] — the *indexing Boolean pattern* framework (paper §2): an
//!   encoding of a CSP variable is a set of local Boolean variables, one
//!   pattern (conjunction of literals) per domain value, and structural
//!   clauses. Conflict clauses between adjacent CSP variables fall out as
//!   single CNF clauses.
//! * [`scheme`] — the simple encodings: **log**, **direct**, **muldirect**
//!   (Table 1).
//! * [`ite`] — structural ITE-tree encodings (§3): **ITE-linear**,
//!   **ITE-log**, and arbitrary tree shapes.
//! * [`hier`] — hierarchical 2-level composition (§4): a top scheme
//!   partitions the domain into subdomains, a bottom scheme (with one shared
//!   variable set) selects within each subdomain.
//! * [`catalog`] — the 14 encodings compared in the paper (plus `direct`),
//!   addressable by [`EncodingId`].
//! * [`symmetry`] — the symmetry-breaking heuristics **b1** (Van Gelder) and
//!   **s1** (the paper's new heuristic) (§5).
//! * [`encode`](mod@encode) / [`decode`] — graph-coloring CSP → CNF (one
//!   [`encode()`] with optional per-track or per-group activation
//!   [`Selectors`]) and SAT model → coloring.
//! * [`strategy`] — one (encoding, symmetry) combination run end to end
//!   with the Table 2 time breakdown, configured through the
//!   [`SolveRequest`] builder (a [`RunContext`] plus assumptions and
//!   sharing).
//! * [`portfolio`] — parallel first-answer-wins execution of several
//!   strategies (§6), with per-member reports, a shared deadline, a
//!   parallelism-aware thread cap, and optional learnt-clause sharing
//!   between diversified same-strategy members.
//! * [`pipeline`] — the full FPGA flow: global routing → conflict graph →
//!   SAT → detailed routing / unroutability proof.
//! * [`incremental`] — assumption-based incremental width search: encode
//!   once at an upper bound with per-track activation selectors, probe any
//!   width on one warm solver ([`IncrementalSession`], built by
//!   [`Strategy::incremental`]).
//! * [`explain`] — unroutability explanations: re-encode with one
//!   activation selector per net group, extract a failed-assumption core
//!   and shrink it to a 1-minimal MUS over nets by warm deletion probes
//!   ([`ExplainRequest`], built by [`Strategy::explain`]).
//!
//! Run control comes from [`satroute_solver::run`]: every request holds
//! one [`RunContext`] (configuration, budget, cancellation, tracer,
//! metrics) and forwards it to the solves it spawns. Every solve — a cold
//! request, a portfolio member, a ladder probe, an explain probe — is a probe
//! of one crate-private solver loaded with one encode, which times it,
//! maps its failed assumptions back to track or group ids and writes the
//! postmortem of a stopped probe. The commonly
//! used types are re-exported here.
//!
//! # Examples
//!
//! Prove a triangle is not 2-colorable with the paper's best encoding:
//!
//! ```
//! use satroute_coloring::CspGraph;
//! use satroute_core::{ColoringOutcome, EncodingId, Strategy, SymmetryHeuristic};
//!
//! let triangle = CspGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
//! let strategy = Strategy::new(EncodingId::IteLinear2Muldirect, SymmetryHeuristic::S1);
//! match strategy.solve_coloring(&triangle, 2).outcome {
//!     ColoringOutcome::Unsat => {}
//!     other => panic!("expected UNSAT, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Writes the run-control setters of a request type that holds its
/// [`RunContext`] in a `ctx` field: [`context`](SolveRequest::context)
/// replaces the whole context, and one setter per context field replaces
/// just that field. Each type documents what its spans and metrics record.
macro_rules! run_context_setters {
    ($ty:ty) => {
        impl $ty {
            /// Replaces the whole [`RunContext`](satroute_solver::RunContext).
            #[must_use]
            pub fn context(mut self, ctx: satroute_solver::RunContext) -> Self {
                self.ctx = ctx;
                self
            }

            /// Sets the solver configuration (defaults to
            /// [`SolverConfig::default`](satroute_solver::SolverConfig)).
            #[must_use]
            pub fn config(mut self, config: satroute_solver::SolverConfig) -> Self {
                self.ctx.config = config;
                self
            }

            /// Sets the resource budget (unlimited by default). Limits are
            /// polled at conflict boundaries, so overshoot is bounded; see
            /// [`RunBudget`](satroute_solver::RunBudget).
            #[must_use]
            pub fn budget(mut self, budget: satroute_solver::RunBudget) -> Self {
                self.ctx.budget = budget;
                self
            }

            /// Attaches a cooperative cancellation token; cancelling any
            /// clone of it stops every current and later solve with
            /// [`StopReason::Cancelled`](satroute_solver::StopReason).
            #[must_use]
            pub fn cancel(mut self, token: satroute_solver::CancellationToken) -> Self {
                self.ctx.cancel = Some(token);
                self
            }

            /// Attaches a [`Tracer`](satroute_obs::Tracer): every solve
            /// writes its counters, search-state samples and `outcome`
            /// mark onto its span, and a solve stopped by a budget or
            /// cancellation carries a
            /// [`Postmortem`](satroute_obs::Postmortem). The disabled
            /// default records nothing.
            #[must_use]
            pub fn trace(mut self, tracer: satroute_obs::Tracer) -> Self {
                self.ctx.tracer = tracer;
                self
            }

            /// Attaches a [`MetricsRegistry`](satroute_obs::MetricsRegistry);
            /// the disabled default records nothing and costs one branch
            /// per boundary.
            #[must_use]
            pub fn metrics(mut self, registry: satroute_obs::MetricsRegistry) -> Self {
                self.ctx.metrics = registry;
                self
            }
        }
    };
}

pub mod analysis;
pub mod catalog;
pub mod decode;
pub mod encode;
pub mod explain;
pub mod hier;
pub mod incremental;
pub mod ite;
pub mod pattern;
pub mod pipeline;
pub mod portfolio;
mod probe;
pub mod scheme;
pub mod strategy;
pub mod symmetry;

pub use catalog::{Encoding, EncodingId, ParseEncodingError};
pub use decode::{decode_coloring, DecodeError};
pub use encode::{encode, encode_coloring, DecodeMap, EncodedColoring, Selectors};
pub use explain::{ExplainOutcome, ExplainReport, ExplainRequest, NetCore, ShrinkStatus};
pub use hier::TopScheme;
pub use incremental::{IncrementalSession, IncrementalSessionBuilder};
pub use ite::IteTree;
pub use pattern::{Pattern, SchemeCnf};
pub use pipeline::{
    PipelineError, RouteResult, RoutingPipeline, UnroutabilityCertificate, WidthSearch,
};
pub use portfolio::{
    run_portfolio, simulate_portfolio, MemberReport, PortfolioOptions, PortfolioResult, SharingBus,
};
pub use scheme::SimpleScheme;
pub use strategy::{ColoringOutcome, ColoringReport, SolveRequest, Strategy, TimingBreakdown};
pub use symmetry::SymmetryHeuristic;

// Run-control vocabulary used throughout this crate's APIs, re-exported
// so downstream code does not need a direct `satroute_solver` dependency.
pub use satroute_solver::{
    CancellationToken, ClauseExchange, PhaseInit, RestartScheme, RunBudget, RunContext,
    SolveVerdict, StopReason,
};

// Tracing vocabulary (spans, sinks, reports) from `satroute_obs`,
// re-exported for the same reason.
pub use satroute_obs::{
    parse_jsonl, Postmortem, SampleCause, SpanForest, TimelineSample, TraceReport, TraceWriter,
    Tracer,
};
