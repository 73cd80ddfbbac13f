//! Explaining unroutability: minimized UNSAT cores over net groups.
//!
//! An UNSAT verdict at width `W` says *that* the instance is unroutable,
//! not *why*. This module answers why at the domain level: which minimal
//! set of nets is jointly unroutable. The instance is re-encoded with one
//! activation selector per vertex group ([`Selectors::PerGroup`]; for
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
use satroute_solver::{RunContext, SolveOutcome, SolverStats, StopReason};

use crate::encode::Selectors;
use crate::probe::{Probe, Probed};
use crate::strategy::Strategy;
use crate::symmetry::SymmetryHeuristic;

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
    /// Postmortem of the probe that stopped early, when a budget or
    /// cancellation interrupted a traced run.
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
/// span with the `encode` span (field `selectors`: `group`), an
/// `initial_core` probe span and one `shrink_step` span per deletion probe
/// (fields: the candidate group, active-set size; the solver's `outcome`
/// mark) as children. A metrics registry receives the encoder's
/// `encode.*.<encoding>` histograms, the `solver.*` family plus
/// `explain.probes`, `explain.kept`, `explain.dropped` and
/// `explain.core_nets` counters and an `explain.shrink_conflicts`
/// histogram of per-deletion-probe conflict costs. A budget-stopped run's
/// postmortem lists the stopped probe's active group selectors.
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
        let span = ctx.tracer.span_with(
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
        // No `CnfFormula`: the encoder writes straight into the solver.
        let (probe, cnf_translation) = Probe::load(
            ctx,
            self.graph,
            self.width,
            Strategy::new(self.strategy.encoding, SymmetryHeuristic::None),
            Selectors::PerGroup(self.groups),
        );
        let mut probe = GroupProbe {
            probe,
            ctx,
            probes: 0,
            sat_solving: Duration::ZERO,
        };

        let mut populated: Vec<u32> = self.groups.to_vec();
        populated.sort_unstable();
        populated.dedup();
        // Initial probe: every populated group active.
        let initial = probe.run("initial_core", None, &populated);
        let (outcome, postmortem) = match initial.outcome {
            SolveOutcome::Sat(model) => {
                let coloring = probe.probe.coloring(&model);
                assert!(
                    coloring.is_proper(self.graph),
                    "decoded coloring must be proper — encoder/solver soundness bug"
                );
                (ExplainOutcome::Colorable(coloring), None)
            }
            SolveOutcome::Unknown(reason) => (ExplainOutcome::Unknown(reason), initial.postmortem),
            SolveOutcome::Unsat => self.shrink(&mut probe, initial),
        };

        let (verdict, kept, dropped, core_nets) = match &outcome {
            ExplainOutcome::Colorable(_) => ("colorable", 0, 0, 0),
            ExplainOutcome::Unknown(_) => ("unknown", 0, 0, 0),
            ExplainOutcome::Core(core) => {
                let core_nets = core.groups.len() as u32;
                // Every core group was either proven critical or left
                // untested.
                let kept = core_nets - core.status.untested();
                let dropped = core.initial_size - core_nets;
                let metrics = &ctx.metrics;
                if metrics.is_enabled() {
                    metrics.counter("explain.kept").add(u64::from(kept));
                    metrics.counter("explain.dropped").add(u64::from(dropped));
                    metrics
                        .counter("explain.core_nets")
                        .add(u64::from(core_nets));
                }
                (core.status.name(), kept, dropped, core_nets)
            }
        };
        span.mark("verdict", verdict);
        span.counter("probes", probe.probes);
        span.counter("kept", u64::from(kept));
        span.counter("dropped", u64::from(dropped));
        span.counter("core_nets", u64::from(core_nets));
        span.close();
        ExplainReport {
            outcome,
            width: self.width,
            probes: probe.probes,
            kept,
            dropped,
            formula_stats: probe.probe.formula_stats,
            solver_stats: *probe.probe.solver.stats(),
            cnf_translation,
            sat_solving: probe.sat_solving,
            postmortem,
        }
    }

    /// The deletion pass over the `initial` probe's failed core: drop one
    /// candidate group per probe; a SAT answer proves it critical, an
    /// UNSAT answer refines the candidate set to the new failed core.
    /// Returns the core and the postmortem of a stopped probe.
    fn shrink(
        &self,
        probe: &mut GroupProbe<'_>,
        initial: Probed,
    ) -> (ExplainOutcome, Option<Postmortem>) {
        let initial_core = failed_groups(initial);
        let initial_size = initial_core.len() as u32;
        let mut kept: Vec<u32> = Vec::new();
        let mut untested: VecDeque<u32> = initial_core.into();
        let mut status = ShrinkStatus::Minimal;
        let mut postmortem = None;
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
            let active: Vec<u32> = kept.iter().chain(untested.iter()).copied().collect();
            let conflicts_before = probe.probe.solver.stats().conflicts;
            let probed = probe.run("shrink_step", Some(candidate), &active);
            if self.ctx.metrics.is_enabled() {
                self.ctx
                    .metrics
                    .histogram("explain.shrink_conflicts")
                    .record(probe.probe.solver.stats().conflicts - conflicts_before);
            }
            match probed.outcome {
                // A SAT answer is never decoded: a released net's vertices
                // may select no track at all.
                SolveOutcome::Sat(_) => kept.push(candidate),
                SolveOutcome::Unsat => {
                    let refined = failed_groups(probed);
                    kept.retain(|g| refined.binary_search(g).is_ok());
                    untested.retain(|g| refined.binary_search(g).is_ok());
                }
                SolveOutcome::Unknown(reason) => {
                    untested.push_front(candidate);
                    status = ShrinkStatus::SolverStopped {
                        reason,
                        untested: untested.len() as u32,
                    };
                    postmortem = probed.postmortem;
                    break;
                }
            }
        }

        let mut groups: Vec<u32> = kept.iter().chain(untested.iter()).copied().collect();
        groups.sort_unstable();
        let core = NetCore {
            groups,
            status,
            initial_size,
        };
        (ExplainOutcome::Core(core), postmortem)
    }
}

/// The warm probe of one explanation run and its running totals.
struct GroupProbe<'c> {
    probe: Probe,
    ctx: &'c RunContext,
    probes: u64,
    sat_solving: Duration,
}

impl GroupProbe<'_> {
    /// One probe with the `active` groups assumed, under its own `name`
    /// span (fields: active-set size and the candidate group).
    fn run(&mut self, name: &str, candidate: Option<u32>, active: &[u32]) -> Probed {
        self.probes += 1;
        if self.ctx.metrics.is_enabled() {
            self.ctx.metrics.counter("explain.probes").add(1);
        }
        let mut fields = vec![("active", FieldValue::from(active.len() as u64))];
        if let Some(group) = candidate {
            fields.push(("candidate", FieldValue::from(group)));
        }
        let span = self.ctx.tracer.span_with(name, fields);
        let assumptions = self.probe.decode.assumptions_for(active.iter().copied());
        let probed = self.probe.solve(span, &assumptions, Duration::ZERO);
        self.sat_solving += probed.timing.sat_solving;
        probed
    }
}

/// The group ids of an UNSAT probe's failed core, ascending.
fn failed_groups(probed: Probed) -> Vec<u32> {
    assert!(
        probed.failed.is_some(),
        "the grouped CNF is satisfiable without assumptions, so UNSAT is always under them"
    );
    probed.failed_ids
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
        let edges = graph
            .edges()
            .filter(|&(u, v)| keep[u as usize] && keep[v as usize]);
        CspGraph::from_edges(
            next as usize,
            edges.map(|(u, v)| (remap[u as usize], remap[v as usize])),
        )
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
