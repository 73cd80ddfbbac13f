//! Strategies: one (encoding, symmetry-heuristic) combination.
//!
//! Table 2 reports, per benchmark and strategy, the *total CPU time: the
//! sum of the times to generate the graph-coloring problem + its
//! translation to CNF + the time to SAT-solve it*. A [`Strategy`] runs the
//! last two stages and reports the same breakdown ([`TimingBreakdown`];
//! the graph-generation time is added by [`crate::pipeline`]).
//!
//! Runs are configured through the builder returned by
//! [`Strategy::solve`]: a [`SolveRequest`] carries a [`RunContext`] — the
//! solver configuration, budget, cancellation token, tracer and metrics
//! registry the underlying solver is wired with — threaded through the
//! encode/decode pipeline.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use satroute_cnf::{CnfFormula, FormulaStats, Lit};
use satroute_coloring::{Coloring, CspGraph};
use satroute_obs::{FieldValue, Postmortem, SpanGuard};
use satroute_solver::{
    ClauseExchange, DratProof, RunContext, SolveOutcome, SolveVerdict, SolverStats, StopReason,
};

use crate::catalog::EncodingId;
use crate::encode::{encode, Selectors};
use crate::probe::Probe;
use crate::symmetry::SymmetryHeuristic;

/// The answer of a strategy run on a K-coloring instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ColoringOutcome {
    /// A proper K-coloring was found and validated.
    Colorable(Coloring),
    /// The graph is provably not K-colorable.
    Unsat,
    /// The solver stopped early; the [`StopReason`] says which budget
    /// limit or cancellation request stopped it.
    Unknown(StopReason),
}

impl ColoringOutcome {
    /// Returns `true` for [`ColoringOutcome::Colorable`].
    pub fn is_colorable(&self) -> bool {
        matches!(self, ColoringOutcome::Colorable(_))
    }

    /// Returns `true` for a definite SAT/UNSAT answer.
    pub fn is_decided(&self) -> bool {
        !matches!(self, ColoringOutcome::Unknown(_))
    }

    /// Why the run stopped early, for [`ColoringOutcome::Unknown`].
    pub fn stop_reason(&self) -> Option<StopReason> {
        match self {
            ColoringOutcome::Unknown(r) => Some(*r),
            _ => None,
        }
    }

    /// The coloring, if one was found.
    pub fn coloring(&self) -> Option<&Coloring> {
        match self {
            ColoringOutcome::Colorable(c) => Some(c),
            _ => None,
        }
    }

    /// The solver verdict behind this outcome; its `Display` form
    /// (`sat`, `unsat`, `unknown:<reason>`) is the outcome string of
    /// traces, bench artifacts and the CLI.
    pub fn verdict(&self) -> SolveVerdict {
        match self {
            ColoringOutcome::Colorable(_) => SolveVerdict::Sat,
            ColoringOutcome::Unsat => SolveVerdict::Unsat,
            ColoringOutcome::Unknown(reason) => SolveVerdict::Unknown(*reason),
        }
    }
}

/// Wall-clock time per pipeline stage, mirroring Table 2's breakdown.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TimingBreakdown {
    /// Generating the graph-coloring problem from the FPGA global routing
    /// (0 when a strategy is run directly on a graph).
    pub graph_generation: Duration,
    /// Translating the coloring problem to CNF (the `encode` span). Where
    /// the encoder writes straight into the solver —
    /// [`SolveRequest::run`] (so portfolio members and the uncertified
    /// pipeline), the warm width ladder and explain — this also includes
    /// loading the solver.
    pub cnf_translation: Duration,
    /// SAT solving (the `solve` span). For
    /// [`SolveRequest::run_certified`], which keeps a [`CnfFormula`], this
    /// also includes loading the solver from it.
    pub sat_solving: Duration,
}

impl TimingBreakdown {
    /// The Table 2 "total CPU time": all three stages summed.
    pub fn total(&self) -> Duration {
        self.graph_generation + self.cnf_translation + self.sat_solving
    }
}

/// Everything a strategy run reports.
#[derive(Clone, Debug)]
pub struct ColoringReport {
    /// The verdict.
    pub outcome: ColoringOutcome,
    /// Per-stage timings.
    pub timing: TimingBreakdown,
    /// Shape of the generated CNF (for the size ablation).
    pub formula_stats: FormulaStats,
    /// Solver work counters.
    pub solver_stats: SolverStats,
    /// The solver's own wall time for this solve, without solver set-up,
    /// encode or decode.
    pub solve_time: Duration,
    /// When the outcome is [`ColoringOutcome::Unsat`] *under assumptions*
    /// (a run built with [`SolveRequest::assume`], or an incremental
    /// width probe), the subset of the assumptions the solver's
    /// final-conflict analysis found contradictory with the formula.
    /// `None` for unconditional answers.
    pub failed_assumptions: Option<Vec<Lit>>,
    /// Postmortem of a budget-stopped or cancelled run
    /// ([`ColoringOutcome::Unknown`]) when the request's tracer is
    /// enabled (see [`SolveRequest::trace`]); it lists the run's
    /// assumptions. `None` for decided runs and for untraced runs.
    pub postmortem: Option<Postmortem>,
}

/// A single parallel-portfolio constituent: an encoding plus a
/// symmetry-breaking heuristic.
///
/// # Examples
///
/// ```
/// use satroute_core::{EncodingId, Strategy, SymmetryHeuristic};
///
/// let s = Strategy::new(EncodingId::IteLinear2Muldirect, SymmetryHeuristic::S1);
/// assert_eq!(s.to_string(), "ITE-linear-2+muldirect/s1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Strategy {
    /// The CSP→SAT encoding.
    pub encoding: EncodingId,
    /// The symmetry-breaking heuristic.
    pub symmetry: SymmetryHeuristic,
}

impl Strategy {
    /// Creates a strategy.
    pub fn new(encoding: EncodingId, symmetry: SymmetryHeuristic) -> Self {
        Strategy { encoding, symmetry }
    }

    /// The strategy the paper identifies as the best single one:
    /// ITE-linear-2+muldirect with s1 (§6).
    pub fn paper_best() -> Self {
        Strategy::new(EncodingId::IteLinear2Muldirect, SymmetryHeuristic::S1)
    }

    /// The paper's baseline: muldirect without symmetry breaking (the 1.00×
    /// speedup row of Table 2).
    pub fn paper_baseline() -> Self {
        Strategy::new(EncodingId::Muldirect, SymmetryHeuristic::None)
    }

    /// Starts building a run of this strategy on the K-coloring problem of
    /// `graph`. Chain configuration calls, then [`SolveRequest::run`].
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::Duration;
    /// use satroute_coloring::random_graph;
    /// use satroute_core::Strategy;
    /// use satroute_solver::RunBudget;
    ///
    /// let g = random_graph(10, 0.4, 7);
    /// let report = Strategy::paper_best()
    ///     .solve(&g, 4)
    ///     .budget(RunBudget::new().with_wall(Duration::from_secs(5)))
    ///     .run();
    /// assert!(report.outcome.is_decided());
    /// ```
    pub fn solve<'a>(&self, graph: &'a CspGraph, k: u32) -> SolveRequest<'a> {
        SolveRequest {
            strategy: *self,
            graph,
            k,
            ctx: RunContext::default(),
            exchange: None,
            assumptions: Vec::new(),
        }
    }

    /// Starts building an incremental width-ladder session on `graph`,
    /// encoded once at the `upper` bound: chain the same run-control
    /// calls as [`Strategy::solve`], then
    /// [`build`](crate::incremental::IncrementalSessionBuilder::build).
    ///
    /// The returned [`IncrementalSession`](crate::IncrementalSession)
    /// probes any width `≤ upper` by flipping selector assumptions on one
    /// warm solver, keeping learnt clauses, activity and phases between
    /// probes.
    ///
    /// # Examples
    ///
    /// ```
    /// use satroute_coloring::random_graph;
    /// use satroute_core::Strategy;
    ///
    /// let g = random_graph(10, 0.4, 7);
    /// let mut session = Strategy::paper_best().incremental(&g, 6).build();
    /// let (min, _coloring) = session.find_min_colors().expect("colorable");
    /// assert!(min <= 6);
    /// ```
    pub fn incremental<'a>(
        &self,
        graph: &'a CspGraph,
        upper: u32,
    ) -> crate::incremental::IncrementalSessionBuilder<'a> {
        crate::incremental::IncrementalSessionBuilder::new(*self, graph, upper)
    }

    /// Starts building an unroutability explanation of `graph` at `width`:
    /// the instance is re-encoded with one activation selector per vertex
    /// *group* (`groups[v]`; for routing, the subnet's net id), solved
    /// under group assumptions, and an UNSAT answer's failed-assumption
    /// core is shrunk to a 1-minimal set of groups by deletion probes on
    /// the same warm solver. Chain the same run-control calls as
    /// [`Strategy::solve`], then
    /// [`run`](crate::explain::ExplainRequest::run).
    ///
    /// The strategy's symmetry heuristic is ignored: full-graph symmetry
    /// restrictions are unsound once groups are deleted (see
    /// [`Selectors::PerGroup`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use satroute_coloring::CspGraph;
    /// use satroute_core::Strategy;
    ///
    /// // A triangle of three single-vertex nets needs three tracks.
    /// let g = CspGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
    /// let report = Strategy::paper_best().explain(&g, &[0, 1, 2], 2).run();
    /// let core = report.core().expect("width 2 is unroutable");
    /// assert_eq!(core.groups, vec![0, 1, 2]);
    /// ```
    pub fn explain<'a>(
        &self,
        graph: &'a CspGraph,
        groups: &'a [u32],
        width: u32,
    ) -> crate::explain::ExplainRequest<'a> {
        crate::explain::ExplainRequest::new(*self, graph, groups, width)
    }

    /// Solves the K-coloring problem of `graph` with default solver
    /// settings.
    pub fn solve_coloring(&self, graph: &CspGraph, k: u32) -> ColoringReport {
        self.solve(graph, k).run()
    }
}

/// A configured-but-not-yet-started strategy run, built by
/// [`Strategy::solve`].
///
/// Run control comes from the request's [`RunContext`]. The budget bounds
/// the SAT-solving stage. A tracer records `encode` (with per-encoding
/// CNF-size counters), `solve` and `decode` spans under the caller's
/// current span; the solver writes its counters, samples and `outcome`
/// mark onto the `solve` span. A metrics registry receives the solver's
/// `solver.*` counters and LBD/restart-interval histograms, the encoder's
/// per-encoding CNF-size histograms (`encode.*.<encoding>`) and one
/// `phase.*_us` wall-time histogram per pipeline phase.
#[derive(Clone)]
pub struct SolveRequest<'a> {
    strategy: Strategy,
    graph: &'a CspGraph,
    k: u32,
    ctx: RunContext,
    exchange: Option<Arc<dyn ClauseExchange>>,
    assumptions: Vec<Lit>,
}

impl fmt::Debug for SolveRequest<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveRequest")
            .field("strategy", &self.strategy)
            .field("k", &self.k)
            .field("ctx", &self.ctx)
            .field("shared", &self.exchange.is_some())
            .finish_non_exhaustive()
    }
}

run_context_setters!(SolveRequest<'_>);

impl<'a> SolveRequest<'a> {
    /// Connects the underlying solver to a [`ClauseExchange`] for
    /// learnt-clause sharing (see
    /// [`CdclSolver::set_exchange`](satroute_solver::CdclSolver::set_exchange)).
    ///
    /// The caller is responsible for the soundness contract: every clause
    /// the exchange delivers must be entailed by the CNF this request
    /// encodes — in practice, connect only runs of the *same* strategy on
    /// the same `(graph, k)` instance (see
    /// [`SharingBus`](crate::portfolio::SharingBus)).
    pub fn share(mut self, exchange: Arc<dyn ClauseExchange>) -> Self {
        self.exchange = Some(exchange);
        self
    }

    /// Solves under `assumptions` — literals of the *encoded CNF* (use the
    /// [`DecodeMap`](crate::DecodeMap) variable layout: vertex `v`'s block
    /// starts at `offsets[v]`) forced true for this run only, without
    /// dropping down to [`CdclSolver`](satroute_solver::CdclSolver).
    ///
    /// When the run comes back UNSAT only because of the assumptions, the
    /// report's [`failed_assumptions`](ColoringReport::failed_assumptions)
    /// carries the contradictory subset from the solver's final-conflict
    /// analysis; the graph itself has *not* been proven uncolorable.
    pub fn assume(mut self, assumptions: &[Lit]) -> Self {
        self.assumptions = assumptions.to_vec();
        self
    }

    /// Encodes, solves and decodes, consuming the request.
    ///
    /// The encoder writes straight into the solver, so no
    /// [`CnfFormula`] is built: the `encode` span covers the encode and
    /// the load (the report's `cnf_translation`), and the `solve` span
    /// the solve alone (`sat_solving`).
    ///
    /// # Panics
    ///
    /// Panics if the solver returns a model that does not decode to a
    /// proper coloring — that would be a soundness bug in the encoder or
    /// solver, not a run-time condition.
    pub fn run(self) -> ColoringReport {
        let (probe, cnf_translation) = Probe::load(
            &self.ctx,
            self.graph,
            self.k,
            self.strategy,
            Selectors::None,
        );
        let solve_span = self.solve_span();
        self.solve(solve_span, probe, cnf_translation).0
    }

    /// Like [`SolveRequest::run`], but with DRAT proof logging enabled:
    /// also returns the encoded CNF and, on UNSAT, the solver's refutation
    /// of it. Clause imports are disabled under proof logging, so a
    /// certified run never records `imported_clauses`.
    ///
    /// An UNSAT answer that holds only *under assumptions* (a request
    /// built with [`SolveRequest::assume`]) refutes nothing: the DRAT log
    /// contains implied clauses but no empty clause, so no proof is
    /// returned — the report's `failed_assumptions` is the certificate
    /// for that case.
    ///
    /// The `solve` span covers loading the formula and the solve (the
    /// report's `sat_solving`).
    pub fn run_certified(self) -> (ColoringReport, CnfFormula, Option<DratProof>) {
        let ctx = &self.ctx;
        let encoded = encode(
            self.graph,
            self.k,
            &self.strategy.encoding.encoding(),
            self.strategy.symmetry,
            Selectors::None,
            &ctx.tracer,
            &ctx.metrics,
        );
        let solve_span = self.solve_span();
        let probe = Probe::load_formula(ctx, &encoded);
        let (report, proof) = self.solve(solve_span, probe, encoded.cnf_translation);
        (report, encoded.formula, proof)
    }

    /// Opens the `solve` span of this request's one probe.
    fn solve_span(&self) -> SpanGuard {
        self.ctx.tracer.span_with(
            "solve",
            [("strategy", FieldValue::from(self.strategy.to_string()))],
        )
    }

    /// Solves the loaded `probe` under the request's assumptions as one
    /// probe traced on `solve_span`, then decodes the answer under a
    /// `decode` span. A refutation of the formula itself by a solver that
    /// logs a proof also returns the proof.
    fn solve(
        self,
        solve_span: SpanGuard,
        mut probe: Probe,
        cnf_translation: Duration,
    ) -> (ColoringReport, Option<DratProof>) {
        let ctx = &self.ctx;
        if let Some(exchange) = self.exchange {
            probe.solver.set_exchange(exchange);
        }
        let probed = probe.solve(solve_span, &self.assumptions, cnf_translation);
        // UNSAT-under-assumptions refutes nothing, so there is no proof to
        // take: the DRAT log never derived the empty clause.
        let proof = (matches!(probed.outcome, SolveOutcome::Unsat)
            && !probe.solver.unsat_under_assumptions())
        .then(|| probe.solver.take_proof())
        .flatten();

        let decode_span = ctx.tracer.span("decode");
        let report = probe.report(probed);
        if let ColoringOutcome::Colorable(coloring) = &report.outcome {
            assert!(
                coloring.is_proper(self.graph),
                "decoded coloring must be proper — encoder/solver soundness bug"
            );
        }
        decode_span.mark(
            "verdict",
            match &report.outcome {
                ColoringOutcome::Colorable(_) => "sat",
                ColoringOutcome::Unsat => "unsat",
                ColoringOutcome::Unknown(_) => "unknown",
            },
        );
        let decoding = decode_span.close();

        let metrics = &ctx.metrics;
        if metrics.is_enabled() {
            let micros = |d: Duration| -> u64 { u64::try_from(d.as_micros()).unwrap_or(u64::MAX) };
            metrics
                .histogram("phase.cnf_translation_us")
                .record(micros(report.timing.cnf_translation));
            metrics
                .histogram("phase.sat_solving_us")
                .record(micros(report.timing.sat_solving));
            metrics
                .histogram("phase.decode_us")
                .record(micros(decoding));
        }
        (report, proof)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.encoding, self.symmetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satroute_coloring::{exact, random_graph};
    use satroute_solver::{CancellationToken, RunBudget};

    #[test]
    fn every_strategy_agrees_with_the_exact_oracle() {
        // Random small graphs: SAT/UNSAT must match exhaustive backtracking
        // for every encoding, with and without symmetry breaking.
        for seed in 0..3u64 {
            let g = random_graph(9, 0.45, seed);
            let chi = exact::chromatic_number(&g);
            for id in EncodingId::ALL {
                for sym in SymmetryHeuristic::ALL {
                    for k in [chi.saturating_sub(1), chi] {
                        let report = Strategy::new(id, sym).solve_coloring(&g, k);
                        let expected_colorable = k >= chi && k > 0 || g.num_vertices() == 0;
                        match report.outcome {
                            ColoringOutcome::Colorable(c) => {
                                assert!(expected_colorable, "{id}/{sym} k={k} seed={seed}");
                                assert!(c.is_proper(&g));
                                assert!(c.max_color().unwrap() < k);
                            }
                            ColoringOutcome::Unsat => {
                                assert!(!expected_colorable, "{id}/{sym} k={k} seed={seed}");
                            }
                            ColoringOutcome::Unknown(reason) => {
                                panic!("no budget was set, got {reason:?}")
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn report_carries_stats_timing_and_metrics() {
        let g = random_graph(12, 0.5, 9);
        let report = Strategy::paper_best().solve_coloring(&g, 4);
        assert!(report.formula_stats.num_clauses > 0);
        assert!(report.timing.total() >= report.timing.sat_solving);
        // The solver's own time sits inside the solve stage.
        assert!(report.solve_time <= report.timing.sat_solving);
    }

    #[test]
    fn display_matches_paper_convention() {
        assert_eq!(Strategy::paper_baseline().to_string(), "muldirect/-");
        assert_eq!(
            Strategy::new(EncodingId::Muldirect3Muldirect, SymmetryHeuristic::B1).to_string(),
            "muldirect-3+muldirect/b1"
        );
    }

    #[test]
    fn budgeted_run_can_return_unknown() {
        let g = random_graph(30, 0.6, 1);
        // 8-coloring a dense 30-vertex graph needs more than one conflict.
        let report = Strategy::paper_baseline()
            .solve(&g, 8)
            .budget(RunBudget::new().with_max_conflicts(1))
            .run();
        // Either it finished fast or reported Unknown; both are legal, but
        // the call must not hang or panic.
        if let ColoringOutcome::Unknown(reason) = report.outcome {
            assert_eq!(reason, StopReason::ConflictLimit);
            assert!(report.solver_stats.conflicts <= 1);
        }
    }

    #[test]
    fn cancelled_request_reports_cancellation() {
        let g = random_graph(30, 0.6, 2);
        let token = CancellationToken::new();
        token.cancel();
        let report = Strategy::paper_baseline().solve(&g, 8).cancel(token).run();
        assert_eq!(
            report.outcome,
            ColoringOutcome::Unknown(StopReason::Cancelled)
        );
    }

    #[test]
    fn assumed_run_steers_the_model() {
        use satroute_cnf::Var;
        // Muldirect layout: vertex v's block starts at v*k, pattern d is
        // the single positive literal of local var d. Pin vertex 0 to
        // color 1.
        let g = CspGraph::from_edges(2, [(0, 1)]);
        let pin = [Lit::positive(Var::new(1)), Lit::negative(Var::new(0))];
        let report = Strategy::paper_baseline().solve(&g, 2).assume(&pin).run();
        let coloring = report.outcome.coloring().expect("still satisfiable");
        assert_eq!(coloring.colors(), &[1, 0]);
        assert!(report.failed_assumptions.is_none());
    }

    #[test]
    fn assumed_run_reports_failed_assumptions() {
        use satroute_cnf::Var;
        // Forbid both colors of vertex 0: UNSAT under assumptions only.
        let g = CspGraph::from_edges(2, [(0, 1)]);
        let forbid = [Lit::negative(Var::new(0)), Lit::negative(Var::new(1))];
        let report = Strategy::paper_baseline()
            .solve(&g, 2)
            .assume(&forbid)
            .run();
        assert_eq!(report.outcome, ColoringOutcome::Unsat);
        let core = report.failed_assumptions.expect("unsat under assumptions");
        assert!(!core.is_empty());
        assert!(core.iter().all(|l| forbid.contains(l)));
        // The same graph without assumptions is colorable and carries no
        // core.
        let report = Strategy::paper_baseline().solve_coloring(&g, 2);
        assert!(report.outcome.is_colorable());
        assert!(report.failed_assumptions.is_none());
    }

    #[test]
    fn certified_run_under_assumptions_refuses_the_proof() {
        use satroute_cnf::Var;
        let g = CspGraph::from_edges(2, [(0, 1)]);
        let forbid = [Lit::negative(Var::new(0)), Lit::negative(Var::new(1))];
        let (report, _formula, proof) = Strategy::paper_baseline()
            .solve(&g, 2)
            .assume(&forbid)
            .run_certified();
        // UNSAT under assumptions refutes nothing: no DRAT proof, but the
        // failed-assumption core is the certificate instead.
        assert_eq!(report.outcome, ColoringOutcome::Unsat);
        assert!(proof.is_none());
        assert!(report.failed_assumptions.is_some());
    }

    #[test]
    fn user_observer_receives_the_event_stream() {
        use satroute_obs::{BufferSink, SpanForest, Tracer};
        let g = random_graph(14, 0.6, 4);
        let user = BufferSink::new();
        let report = Strategy::paper_baseline()
            .solve(&g, 3)
            .trace(Tracer::to_sink(user.clone()))
            .run();
        // The user's sink saw the solve's final counters and outcome.
        let forest = SpanForest::from_events(&user.events()).unwrap();
        let solve = forest.spans_named("solve")[0];
        let stats = report.solver_stats;
        assert_eq!(solve.counters["conflicts"], stats.conflicts);
        assert_eq!(solve.counters["decisions"], stats.decisions);
        assert_eq!(solve.counters["propagations"], stats.propagations);
        assert_eq!(solve.marks["outcome"], report.outcome.verdict().to_string());
    }
}
