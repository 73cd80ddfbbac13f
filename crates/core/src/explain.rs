//! Explaining unroutability: minimized UNSAT cores over net groups.
//!
//! An UNSAT verdict at width `W` says *that* the instance is unroutable,
//! not *why*. This module answers why at the domain level: which minimal
//! set of nets is jointly unroutable. The instance is re-encoded with one
//! activation selector per vertex group ([`GroupedEncoding`]; for
//! routing, one group per net), solved once with every group assumed
//! active, and the solver's final-conflict analysis yields an initial
//! group-level core. A deletion pass then shrinks it to a **1-minimal
//! MUS**: each candidate group is dropped from the assumptions and the
//! same warm solver re-solves — SAT means the group is critical (kept),
//! UNSAT means it is redundant and the new failed-assumption core refines
//! the candidate set further (clause-set refinement).
//!
//! Warm shrink probes are sound because assumptions never enter the
//! formula: every clause the solver learns while refuting one candidate
//! set is implied by the grouped CNF alone, so it remains valid for every
//! other candidate set probed later.
//!
//! One deletion pass yields 1-minimality because criticality is monotone
//! under shrinking: if `S \ {g}` is satisfiable then so is every subset,
//! so a group proven critical against an earlier (larger) candidate set
//! stays critical against the final core.
//!
//! The loop is budgetable: [`ExplainRequest::shrink_budget`] caps the
//! number of deletion probes, and a
//! [`RunBudget`](satroute_solver::RunBudget) caps the solver's
//! cumulative work. Either stop leaves the not-yet-tested groups in the
//! core (sound, possibly non-minimal) and reports it via
//! [`ShrinkStatus`].

use std::collections::VecDeque;
use std::time::Duration;

use satroute_cnf::FormulaStats;
use satroute_coloring::{Coloring, CspGraph};
use satroute_obs::{FieldValue, Postmortem};
use satroute_solver::{CdclSolver, RunContext, SolveOutcome, SolverStats, StopReason};

use crate::decode::decode_coloring;
use crate::encode::{encode_coloring_grouped_traced, GroupedEncoding};
use crate::strategy::{postmortem_core, Strategy};

/// How far the deletion pass got.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShrinkStatus {
    /// Every core group was tested: the core is a 1-minimal MUS over
    /// groups (removing any single group makes the instance routable).
    Minimal,
    /// The [`ExplainRequest::shrink_budget`] probe cap stopped the pass;
    /// `untested` groups remain in the core without a criticality proof.
    BudgetExhausted {
        /// Number of core groups never probed for removal.
        untested: u32,
    },
    /// A solver [`RunBudget`](satroute_solver::RunBudget) or cancellation
    /// stopped a probe; `untested` groups remain in the core without a
    /// criticality proof.
    SolverStopped {
        /// Why the probe stopped.
        reason: StopReason,
        /// Number of core groups never probed for removal (including the
        /// one whose probe stopped).
        untested: u32,
    },
}

impl ShrinkStatus {
    /// `true` when the core is proven 1-minimal.
    #[must_use]
    pub fn is_minimal(&self) -> bool {
        matches!(self, ShrinkStatus::Minimal)
    }

    /// Stable lowercase name for rendering (`minimal`,
    /// `budget-exhausted`, `solver-stopped`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ShrinkStatus::Minimal => "minimal",
            ShrinkStatus::BudgetExhausted { .. } => "budget-exhausted",
            ShrinkStatus::SolverStopped { .. } => "solver-stopped",
        }
    }

    /// Number of core groups without a criticality proof (0 when
    /// minimal).
    #[must_use]
    pub fn untested(&self) -> u32 {
        match self {
            ShrinkStatus::Minimal => 0,
            ShrinkStatus::BudgetExhausted { untested }
            | ShrinkStatus::SolverStopped { untested, .. } => *untested,
        }
    }
}

/// A group-level UNSAT core: a set of groups (nets) whose induced
/// subgraph is already uncolorable at the probed width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetCore {
    /// The core's group ids, ascending. Still UNSAT when re-solved alone;
    /// 1-minimal when `status.is_minimal()`.
    pub groups: Vec<u32>,
    /// Whether the deletion pass finished, and if not, why.
    pub status: ShrinkStatus,
    /// Size of the initial failed-assumption core, before shrinking.
    pub initial_size: u32,
}

/// The verdict of an explanation run.
#[derive(Clone, Debug)]
pub enum ExplainOutcome {
    /// The instance is colorable at the probed width — nothing to
    /// explain; the witness coloring is attached.
    Colorable(Coloring),
    /// The instance is uncolorable; the core names the groups to blame.
    Core(NetCore),
    /// The initial probe stopped before deciding the instance.
    Unknown(StopReason),
}

/// Everything an explanation run reports.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// The verdict.
    pub outcome: ExplainOutcome,
    /// The probed width.
    pub width: u32,
    /// Total solver calls: the initial probe plus every deletion probe.
    pub probes: u64,
    /// Groups proven critical (their deletion probe came back SAT).
    pub kept: u32,
    /// Groups removed from the initial core (deletion probes and
    /// clause-set refinement combined).
    pub dropped: u32,
    /// Shape of the grouped CNF.
    pub formula_stats: FormulaStats,
    /// Solver work counters accumulated across all probes.
    pub solver_stats: SolverStats,
    /// Wall time spent encoding the grouped CNF.
    pub cnf_translation: Duration,
    /// Wall time spent solving, summed over all probes.
    pub sat_solving: Duration,
    /// Flight-recorder postmortem of the probe that stopped early, when a
    /// budget or cancellation interrupted the run and an enabled
    /// [`FlightRecorder`](satroute_obs::FlightRecorder) was attached.
    pub postmortem: Option<Postmortem>,
}

impl ExplainReport {
    /// The core, when the outcome is [`ExplainOutcome::Core`].
    #[must_use]
    pub fn core(&self) -> Option<&NetCore> {
        match &self.outcome {
            ExplainOutcome::Core(core) => Some(core),
            _ => None,
        }
    }

    /// The width lower bound the core witnesses: an UNSAT core at width
    /// `W` proves the minimum routable width is at least `W + 1`. `None`
    /// unless a core was found.
    #[must_use]
    pub fn lower_bound(&self) -> Option<u32> {
        self.core().map(|_| self.width + 1)
    }
}

/// A configured-but-not-yet-started explanation run, built by
/// [`Strategy::explain`]. Mirrors the [`crate::SolveRequest`] idiom.
///
/// Run control comes from the request's [`RunContext`] and covers every
/// probe. Integer budget caps apply to the solver's *cumulative* counters
/// across all probes; a stopped probe ends the shrink pass with
/// [`ShrinkStatus::SolverStopped`]. A tracer records an `explain` root
/// span with the `encode_grouped` span, an `initial_core` probe span and
/// one `shrink_step` span per deletion probe (fields: the candidate
/// group, active-set size; mark: the verdict) as children. A metrics
/// registry receives the `solver.*` family plus `explain.probes`,
/// `explain.kept`, `explain.dropped` and `explain.core_nets` counters and
/// an `explain.shrink_conflicts` histogram of per-deletion-probe conflict
/// costs. A budget-stopped run's postmortem names the active assumption
/// core at the stop.
pub struct ExplainRequest<'a> {
    strategy: Strategy,
    graph: &'a CspGraph,
    groups: &'a [u32],
    width: u32,
    ctx: RunContext,
    shrink_budget: Option<u64>,
}

impl std::fmt::Debug for ExplainRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExplainRequest")
            .field("strategy", &self.strategy)
            .field("width", &self.width)
            .field("ctx", &self.ctx)
            .field("shrink_budget", &self.shrink_budget)
            .finish_non_exhaustive()
    }
}

run_context_setters!(ExplainRequest<'_>);

impl<'a> ExplainRequest<'a> {
    pub(crate) fn new(
        strategy: Strategy,
        graph: &'a CspGraph,
        groups: &'a [u32],
        width: u32,
    ) -> Self {
        ExplainRequest {
            strategy,
            graph,
            groups,
            width,
            ctx: RunContext::default(),
            shrink_budget: None,
        }
    }

    /// Caps the number of deletion probes; a capped pass reports
    /// [`ShrinkStatus::BudgetExhausted`] with the untested count. `None`
    /// (the default) means shrink to 1-minimality.
    #[must_use]
    pub fn shrink_budget(mut self, probes: Option<u64>) -> Self {
        self.shrink_budget = probes;
        self
    }

    /// Encodes, probes and shrinks, consuming the request.
    ///
    /// # Panics
    ///
    /// Panics if `groups.len() != graph.num_vertices()`.
    pub fn run(self) -> ExplainReport {
        let ctx = &self.ctx;
        let (tracer, metrics) = (&ctx.tracer, &ctx.metrics);
        let span = tracer.span_with(
            "explain",
            [
                (
                    "encoding",
                    FieldValue::from(self.strategy.encoding.to_string()),
                ),
                ("width", FieldValue::from(self.width)),
                ("vertices", FieldValue::from(self.graph.num_vertices())),
                ("edges", FieldValue::from(self.graph.num_edges())),
            ],
        );
        let encoding = encode_coloring_grouped_traced(
            self.graph,
            self.width,
            self.groups,
            &self.strategy.encoding.encoding(),
            tracer,
        );
        let formula_stats = encoding.formula.stats();
        // No span yet: each probe moves the sink onto its own.
        let mut solver = ctx.solver(0);
        solver.add_formula(&encoding.formula);
        // Deletion probes assume shrinking selector subsets, so the
        // solver's per-call assumption freezing never covers dropped
        // groups — freeze every group selector up front or inprocessing
        // (when enabled) could eliminate one a later probe re-assumes.
        for lit in encoding.all_assumptions() {
            solver.freeze_var(lit.var());
        }

        let mut populated: Vec<u32> = self.groups.to_vec();
        populated.sort_unstable();
        populated.dedup();

        let mut probes = 0u64;
        let mut sat_solving = Duration::ZERO;
        let mut postmortem = None;

        // Initial probe: every populated group active.
        probes += 1;
        if metrics.is_enabled() {
            metrics.counter("explain.probes").add(1);
        }
        let (outcome, wall) = probe_groups(
            &mut solver,
            &encoding,
            ctx,
            "initial_core",
            None,
            &populated,
        );
        sat_solving += wall;

        let initial_core = match outcome {
            SolveOutcome::Sat(model) => {
                let coloring = decode_coloring(&model, &encoding.decode)
                    .expect("models of the encoding always decode (totality)");
                assert!(
                    coloring.is_proper(self.graph),
                    "decoded coloring must be proper — encoder/solver soundness bug"
                );
                span.mark("verdict", "colorable");
                close_run_span(span, probes, 0, 0, 0);
                return ExplainReport {
                    outcome: ExplainOutcome::Colorable(coloring),
                    width: self.width,
                    probes,
                    kept: 0,
                    dropped: 0,
                    formula_stats,
                    solver_stats: *solver.stats(),
                    cnf_translation: encoding.cnf_translation,
                    sat_solving,
                    postmortem: None,
                };
            }
            SolveOutcome::Unknown(reason) => {
                if ctx.flight.is_enabled() {
                    let mut pm = Postmortem::from_recorder(&ctx.flight, reason.to_string());
                    pm.hottest_phase = Some("sat_solving".to_string());
                    pm.failed_assumptions =
                        postmortem_core(&encoding.assumptions_for(populated.iter().copied()));
                    postmortem = Some(pm);
                }
                span.mark("verdict", "unknown");
                close_run_span(span, probes, 0, 0, 0);
                return ExplainReport {
                    outcome: ExplainOutcome::Unknown(reason),
                    width: self.width,
                    probes,
                    kept: 0,
                    dropped: 0,
                    formula_stats,
                    solver_stats: *solver.stats(),
                    cnf_translation: encoding.cnf_translation,
                    sat_solving,
                    postmortem,
                };
            }
            SolveOutcome::Unsat => failed_groups(&solver, &encoding).expect(
                "the grouped CNF is satisfiable without assumptions, so UNSAT is always under them",
            ),
        };

        // Deletion pass: drop one candidate group per probe; a SAT answer
        // proves it critical, an UNSAT answer refines the candidate set to
        // the new failed core.
        let initial_size = initial_core.len() as u32;
        let mut kept: Vec<u32> = Vec::new();
        let mut untested: VecDeque<u32> = initial_core.into_iter().collect();
        let mut status = ShrinkStatus::Minimal;
        let mut shrink_probes = 0u64;
        while let Some(candidate) = untested.pop_front() {
            if self.shrink_budget.is_some_and(|cap| shrink_probes >= cap) {
                untested.push_front(candidate);
                status = ShrinkStatus::BudgetExhausted {
                    untested: untested.len() as u32,
                };
                break;
            }
            shrink_probes += 1;
            probes += 1;
            if metrics.is_enabled() {
                metrics.counter("explain.probes").add(1);
            }
            let active: Vec<u32> = kept.iter().chain(untested.iter()).copied().collect();
            let conflicts_before = solver.stats().conflicts;
            let (outcome, wall) = probe_groups(
                &mut solver,
                &encoding,
                ctx,
                "shrink_step",
                Some(candidate),
                &active,
            );
            sat_solving += wall;
            if metrics.is_enabled() {
                metrics
                    .histogram("explain.shrink_conflicts")
                    .record(solver.stats().conflicts - conflicts_before);
            }
            match outcome {
                SolveOutcome::Sat(_) => kept.push(candidate),
                SolveOutcome::Unsat => {
                    let refined = failed_groups(&solver, &encoding)
                        .expect("UNSAT of the grouped CNF is always under assumptions");
                    kept.retain(|g| refined.binary_search(g).is_ok());
                    untested.retain(|g| refined.binary_search(g).is_ok());
                }
                SolveOutcome::Unknown(reason) => {
                    untested.push_front(candidate);
                    status = ShrinkStatus::SolverStopped {
                        reason,
                        untested: untested.len() as u32,
                    };
                    if ctx.flight.is_enabled() {
                        let mut pm = Postmortem::from_recorder(&ctx.flight, reason.to_string());
                        pm.hottest_phase = Some("sat_solving".to_string());
                        pm.failed_assumptions =
                            postmortem_core(&encoding.assumptions_for(active.iter().copied()));
                        postmortem = Some(pm);
                    }
                    break;
                }
            }
        }

        let mut core: Vec<u32> = kept.iter().chain(untested.iter()).copied().collect();
        core.sort_unstable();
        let kept_count = kept.len() as u32;
        let dropped = initial_size - core.len() as u32;
        if metrics.is_enabled() {
            metrics.counter("explain.kept").add(u64::from(kept_count));
            metrics.counter("explain.dropped").add(u64::from(dropped));
            metrics.counter("explain.core_nets").add(core.len() as u64);
        }
        span.mark("verdict", status.name());
        close_run_span(span, probes, kept_count, dropped, core.len() as u32);
        ExplainReport {
            outcome: ExplainOutcome::Core(NetCore {
                groups: core,
                status,
                initial_size,
            }),
            width: self.width,
            probes,
            kept: kept_count,
            dropped,
            formula_stats,
            solver_stats: *solver.stats(),
            cnf_translation: encoding.cnf_translation,
            sat_solving,
            postmortem,
        }
    }
}

/// Closes the `explain` root span after stamping the run counters.
fn close_run_span(
    span: satroute_obs::SpanGuard,
    probes: u64,
    kept: u32,
    dropped: u32,
    core_nets: u32,
) {
    span.counter("probes", probes);
    span.counter("kept", u64::from(kept));
    span.counter("dropped", u64::from(dropped));
    span.counter("core_nets", u64::from(core_nets));
    span.close();
}

/// One warm probe with the given groups assumed active, under its own
/// child span carrying the solver's event stream.
fn probe_groups(
    solver: &mut CdclSolver,
    encoding: &GroupedEncoding,
    ctx: &RunContext,
    span_name: &'static str,
    candidate: Option<u32>,
    active: &[u32],
) -> (SolveOutcome, Duration) {
    let mut fields = vec![("active", FieldValue::from(active.len() as u64))];
    if let Some(group) = candidate {
        fields.push(("candidate", FieldValue::from(group)));
    }
    let span = ctx.tracer.span_with(span_name, fields);
    solver.set_trace_span(span.id());
    let assumptions = encoding.assumptions_for(active.iter().copied());
    let outcome = solver.solve_with_assumptions(&assumptions);
    span.mark(
        "verdict",
        match &outcome {
            SolveOutcome::Sat(_) => "sat",
            SolveOutcome::Unsat => "unsat",
            SolveOutcome::Unknown(_) => "unknown",
        },
    );
    let wall = span.close();
    (outcome, wall)
}

/// The failed-assumption core of the last probe as sorted, deduped group
/// ids; `None` when the answer was not UNSAT-under-assumptions.
fn failed_groups(solver: &CdclSolver, encoding: &GroupedEncoding) -> Option<Vec<u32>> {
    if !solver.unsat_under_assumptions() {
        return None;
    }
    let mut groups: Vec<u32> = solver
        .failed_assumptions()
        .iter()
        .filter_map(|&l| encoding.group_of(l))
        .collect();
    groups.sort_unstable();
    groups.dedup();
    Some(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use satroute_coloring::{exact, random_graph};
    use satroute_obs::MetricsRegistry;
    use satroute_solver::CancellationToken;

    /// Explains `graph` at `width` with one single-vertex group per
    /// vertex.
    fn explain_per_vertex(graph: &CspGraph, width: u32) -> ExplainReport {
        let groups: Vec<u32> = (0..graph.num_vertices() as u32).collect();
        Strategy::paper_best().explain(graph, &groups, width).run()
    }

    /// The subgraph induced by the vertices whose group is in `core`.
    fn induced(graph: &CspGraph, groups: &[u32], core: &[u32]) -> CspGraph {
        let keep: Vec<bool> = groups.iter().map(|g| core.contains(g)).collect();
        let mut remap = vec![u32::MAX; groups.len()];
        let mut next = 0u32;
        for (v, &k) in keep.iter().enumerate() {
            if k {
                remap[v] = next;
                next += 1;
            }
        }
        let mut sub = CspGraph::new(next as usize);
        for (u, v) in graph.edges() {
            if keep[u as usize] && keep[v as usize] {
                sub.add_edge(remap[u as usize], remap[v as usize]);
            }
        }
        sub
    }

    #[test]
    fn colorable_width_yields_witness() {
        let g = CspGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let report = explain_per_vertex(&g, 3);
        match &report.outcome {
            ExplainOutcome::Colorable(c) => assert!(c.is_proper(&g)),
            other => panic!("expected a coloring, got {other:?}"),
        }
        assert_eq!(report.probes, 1);
        assert!(report.lower_bound().is_none());
    }

    #[test]
    fn triangle_core_is_all_three_vertices() {
        let g = CspGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let report = explain_per_vertex(&g, 2);
        let core = report.core().expect("triangle needs 3 colors");
        assert_eq!(core.groups, vec![0, 1, 2]);
        assert!(core.status.is_minimal());
        assert_eq!(report.lower_bound(), Some(3));
        assert_eq!(report.kept, 3);
    }

    #[test]
    fn core_ignores_vertices_outside_the_obstruction() {
        // A triangle plus a pendant path: only the triangle blocks width 2.
        let g = CspGraph::from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]);
        let report = explain_per_vertex(&g, 2);
        let core = report.core().expect("the triangle blocks width 2");
        assert_eq!(core.groups, vec![0, 1, 2]);
        assert!(core.status.is_minimal());
        assert!(report.dropped + report.kept <= core.initial_size);
    }

    #[test]
    fn grouping_merges_vertices_into_one_blame_unit() {
        // Two triangles sharing no vertices; groups pair them up so the
        // core is expressed in group ids.
        let g = CspGraph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let groups = [0, 0, 1, 2, 2, 3];
        let report = Strategy::paper_best().explain(&g, &groups, 2).run();
        let core = report.core().expect("triangles block width 2");
        // A 1-minimal core is one triangle's groups: {0,1} or {2,3}.
        assert!(core.groups == vec![0, 1] || core.groups == vec![2, 3]);
        assert!(core.status.is_minimal());
    }

    #[test]
    fn width_zero_core_is_a_single_group() {
        let g = CspGraph::from_edges(4, [(0, 1), (2, 3)]);
        let report = Strategy::paper_best().explain(&g, &[0, 0, 1, 1], 0).run();
        let core = report.core().expect("width 0 fits nothing");
        assert_eq!(core.groups.len(), 1);
        assert!(core.status.is_minimal());
    }

    #[test]
    fn cores_are_unsat_alone_and_one_minimal() {
        for seed in 0..8u64 {
            let g = random_graph(10, 0.5, seed);
            let chi = exact::chromatic_number(&g);
            if chi < 2 {
                continue;
            }
            let width = chi - 1;
            let groups: Vec<u32> = (0..g.num_vertices() as u32).collect();
            let report = Strategy::paper_best().explain(&g, &groups, width).run();
            let core = report
                .core()
                .unwrap_or_else(|| panic!("seed {seed} unsat at {width}"));
            assert!(core.status.is_minimal());
            // The core alone is still uncolorable at the probed width…
            let sub = induced(&g, &groups, &core.groups);
            assert!(
                !Strategy::paper_best()
                    .solve_coloring(&sub, width)
                    .outcome
                    .is_colorable(),
                "seed {seed}: core is not UNSAT alone"
            );
            // …and removing any single group makes it colorable.
            for &g_out in &core.groups {
                let rest: Vec<u32> = core
                    .groups
                    .iter()
                    .copied()
                    .filter(|&x| x != g_out)
                    .collect();
                let sub = induced(&g, &groups, &rest);
                assert!(
                    Strategy::paper_best()
                        .solve_coloring(&sub, width)
                        .outcome
                        .is_colorable(),
                    "seed {seed}: core is not 1-minimal at group {g_out}"
                );
            }
        }
    }

    #[test]
    fn shrink_budget_stops_early_with_typed_status() {
        let g = random_graph(12, 0.6, 7);
        let chi = exact::chromatic_number(&g);
        let groups: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let report = Strategy::paper_best()
            .explain(&g, &groups, chi - 1)
            .shrink_budget(Some(0))
            .run();
        let core = report.core().expect("unsat below chi");
        match core.status {
            ShrinkStatus::BudgetExhausted { untested } => {
                assert_eq!(untested, core.groups.len() as u32);
                assert_eq!(untested, core.status.untested());
            }
            ref other => panic!("expected budget exhaustion, got {other:?}"),
        }
        // The unshrunk core is the initial failed-assumption core.
        assert_eq!(core.groups.len() as u32, core.initial_size);
        assert_eq!(report.kept, 0);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn cancelled_initial_probe_reports_unknown() {
        let g = random_graph(12, 0.6, 3);
        let token = CancellationToken::new();
        token.cancel();
        let groups: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let report = Strategy::paper_best()
            .explain(&g, &groups, 3)
            .cancel(token)
            .run();
        assert!(matches!(
            report.outcome,
            ExplainOutcome::Unknown(StopReason::Cancelled)
        ));
    }

    #[test]
    fn metrics_and_spans_cover_the_shrink_loop() {
        let g = CspGraph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let registry = MetricsRegistry::new();
        let groups: Vec<u32> = (0..4).collect();
        let report = Strategy::paper_best()
            .explain(&g, &groups, 2)
            .metrics(registry.clone())
            .run();
        let core = report.core().expect("triangle blocks width 2");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("explain.probes"), Some(report.probes));
        assert_eq!(snap.counter("explain.kept"), Some(u64::from(report.kept)));
        assert_eq!(
            snap.counter("explain.dropped"),
            Some(u64::from(report.dropped))
        );
        assert_eq!(
            snap.counter("explain.core_nets"),
            Some(core.groups.len() as u64)
        );
        assert!(snap.histogram("explain.shrink_conflicts").is_some());
    }
}
