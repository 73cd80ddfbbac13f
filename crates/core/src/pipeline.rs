//! The end-to-end FPGA detailed-routing pipeline.
//!
//! This is the tool flow of the paper's first contribution: FPGA global
//! routing → graph-coloring problem (optionally via a DIMACS `.col` file) →
//! SAT instance → detailed routing or unroutability proof.
//!
//! [`RoutingPipeline::find_min_width`] exercises the headline capability of
//! SAT-based detailed routing: *"it can prove that a particular global
//! routing does not have a detailed routing for a given number of tracks
//! per channel, and so can guarantee optimality when a detailed routing is
//! found for W, such that the configuration with W − 1 tracks is proven
//! unroutable"*.

use satroute_fpga::{DetailedRouting, RoutingProblem};
use satroute_obs::FieldValue;
use satroute_solver::{RunBudget, RunContext, StopReason};

use crate::strategy::{ColoringOutcome, ColoringReport, Strategy};

/// The outcome of routing one problem at one channel width.
#[derive(Clone, Debug)]
pub struct RouteResult {
    /// The channel width that was attempted.
    pub width: u32,
    /// A verified detailed routing, when one exists.
    pub routing: Option<DetailedRouting>,
    /// The underlying coloring report (outcome, timings including graph
    /// generation, formula and solver statistics).
    pub report: ColoringReport,
}

impl RouteResult {
    /// Returns `true` if the width was proven unroutable.
    pub fn is_unroutable(&self) -> bool {
        matches!(self.report.outcome, ColoringOutcome::Unsat)
    }
}

/// The trace of a minimum-width search.
///
/// **Certificate invariant:** whenever `min_width > 0`, the final probe is
/// the UNSAT answer at `min_width - 1` that certifies optimality — the
/// descending loop always probes one width below the best routing before
/// stopping, including width 0 after a width-1 success. The single
/// exception is `min_width == 0` (a problem with no subnets at all), where
/// no narrower width exists to refute and the last probe is the width-0
/// routing itself.
#[derive(Clone, Debug)]
pub struct WidthSearch {
    /// The minimum channel width with a detailed routing.
    pub min_width: u32,
    /// A verified routing at `min_width`.
    pub routing: DetailedRouting,
    /// Every width probed, with its result (including, when
    /// `min_width > 0`, the UNSAT proof at `min_width - 1` that certifies
    /// optimality). The incremental ladder
    /// ([`RoutingPipeline::find_min_width_incremental`]) records fewer
    /// probes: widths a SAT model already proves achievable are skipped.
    pub probes: Vec<RouteResult>,
    /// The tracks named by the failed-assumption core of the final UNSAT
    /// probe, ascending — the PR 6 certificate: with `m` the lowest track
    /// in the core, every width `≤ m` is unroutable. Populated by the
    /// incremental ladder only; the from-scratch search has no selector
    /// assumptions and leaves it empty, as does a `min_width == 0` search
    /// (no UNSAT probe exists).
    pub failed_tracks: Vec<u32>,
}

impl WidthSearch {
    /// The width lower bound certified by the final UNSAT probe's core:
    /// `min(failed_tracks) + 1`. `None` when no core was recorded (cold
    /// search or `min_width == 0`).
    #[must_use]
    pub fn core_lower_bound(&self) -> Option<u32> {
        self.failed_tracks.first().map(|&m| m + 1)
    }
}

/// A machine-checkable proof that a channel width is insufficient: the CNF
/// instance together with the solver's DRAT refutation of it.
#[derive(Clone, Debug)]
pub struct UnroutabilityCertificate {
    /// The refuted channel width.
    pub width: u32,
    /// The CNF instance encoding "a detailed routing with `width` tracks
    /// exists".
    pub formula: satroute_cnf::CnfFormula,
    /// The solver's DRAT refutation of `formula`.
    pub proof: satroute_solver::DratProof,
}

impl UnroutabilityCertificate {
    /// Re-verifies the certificate with the independent RUP checker.
    ///
    /// # Errors
    ///
    /// Propagates [`satroute_solver::CheckProofError`] if the proof does
    /// not refute the formula.
    pub fn verify(&self) -> Result<(), satroute_solver::CheckProofError> {
        self.proof.check(&self.formula)
    }
}

/// Errors from pipeline runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PipelineError {
    /// The solver returned Unknown (budget exhausted / cancelled).
    Undecided {
        /// Width at which the run was cut short.
        width: u32,
        /// Which budget limit or cancellation stopped the run.
        reason: StopReason,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Undecided { width, reason } => {
                write!(f, "solver stopped ({reason}) at channel width {width}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// The FPGA detailed-routing pipeline for a fixed strategy.
///
/// # Examples
///
/// ```
/// use satroute_core::{RoutingPipeline, Strategy};
/// use satroute_fpga::benchmarks;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let instance = &benchmarks::suite_tiny()[0];
/// let pipeline = RoutingPipeline::new(Strategy::paper_best());
/// let result = pipeline.route(&instance.problem, instance.routable_width)?;
/// let routing = result.routing.expect("routable width");
/// instance
///     .problem
///     .verify_detailed_routing(&routing, instance.routable_width)?;
/// # Ok(())
/// # }
/// ```
///
/// Run control comes from the pipeline's [`RunContext`], which every solve
/// it performs inherits. Each probe of a width search gets the budget
/// individually; a shared absolute `deadline_at` bounds the whole search.
/// A tracer records a `route` span per width (field `certified`) with
/// `graph_generation`, `encode`, `solve`, `decode` and `verify`
/// children. A metrics registry additionally
/// receives `phase.graph_generation_us` and `phase.verify_us` wall-time
/// histograms, on top of the per-solve instruments the
/// [`SolveRequest`](crate::SolveRequest) feeds.
#[derive(Clone, Debug)]
pub struct RoutingPipeline {
    strategy: Strategy,
    ctx: RunContext,
}

run_context_setters!(RoutingPipeline);

impl RoutingPipeline {
    /// Creates a pipeline with default solver settings.
    pub fn new(strategy: Strategy) -> Self {
        RoutingPipeline {
            strategy,
            ctx: RunContext::default(),
        }
    }

    /// Same as [`RoutingPipeline::budget`].
    #[must_use]
    pub fn with_budget(self, budget: RunBudget) -> Self {
        self.budget(budget)
    }

    /// The pipeline's strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Attempts a detailed routing of `problem` with `width` tracks per
    /// channel.
    ///
    /// On SAT the decoded routing is verified against the problem before
    /// being returned; on UNSAT `routing` is `None` and the width is
    /// certified unroutable.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Undecided`] when the solver gives up (only possible
    /// with a conflict budget).
    ///
    /// # Panics
    ///
    /// Panics if a SAT answer fails verification — a soundness bug, not a
    /// run-time condition.
    pub fn route(
        &self,
        problem: &RoutingProblem,
        width: u32,
    ) -> Result<RouteResult, PipelineError> {
        self.route_at(problem, width, false)
            .map(|(result, _)| result)
    }

    /// The one body of [`RoutingPipeline::route`] and
    /// [`RoutingPipeline::prove_unroutable_certified`]: a `route` span over
    /// graph generation, the solve and the verify, with a DRAT certificate
    /// of an UNSAT answer when `certified`.
    fn route_at(
        &self,
        problem: &RoutingProblem,
        width: u32,
        certified: bool,
    ) -> Result<(RouteResult, Option<UnroutabilityCertificate>), PipelineError> {
        let span = self.ctx.tracer.span_with(
            "route",
            [
                ("width", FieldValue::from(width)),
                ("strategy", FieldValue::from(self.strategy.to_string())),
                ("certified", FieldValue::from(certified)),
            ],
        );
        let (graph, graph_generation) = problem.conflict_graph_traced(&self.ctx.tracer);
        self.record_phase("phase.graph_generation_us", graph_generation);

        let request = self.strategy.solve(&graph, width).context(self.ctx.clone());
        let (mut report, certificate) = if certified {
            let (report, formula, proof) = request.run_certified();
            let certificate = proof.map(|proof| UnroutabilityCertificate {
                width,
                formula,
                proof,
            });
            (report, certificate)
        } else {
            (request.run(), None)
        };
        report.timing.graph_generation = graph_generation;

        let routing = match &report.outcome {
            ColoringOutcome::Colorable(coloring) => {
                Some(self.verify(problem, width, coloring.colors()))
            }
            ColoringOutcome::Unsat => {
                assert!(
                    !certified || certificate.is_some(),
                    "UNSAT certified runs always carry a proof"
                );
                None
            }
            ColoringOutcome::Unknown(reason) => {
                span.mark("verdict", "unknown");
                return Err(PipelineError::Undecided {
                    width,
                    reason: *reason,
                });
            }
        };
        span.mark("verdict", if routing.is_some() { "sat" } else { "unsat" });
        let result = RouteResult {
            width,
            routing,
            report,
        };
        Ok((result, certificate))
    }

    /// Converts a decoded coloring into a detailed routing and verifies it
    /// against the problem, under a `verify` span.
    ///
    /// # Panics
    ///
    /// Panics if verification fails — a soundness bug, not a run-time
    /// condition.
    fn verify(&self, problem: &RoutingProblem, width: u32, tracks: &[u32]) -> DetailedRouting {
        let span = self.ctx.tracer.span("verify");
        let routing = DetailedRouting::from_tracks(tracks.to_vec());
        problem
            .verify_detailed_routing(&routing, width)
            .expect("decoded routings always verify — soundness bug otherwise");
        self.record_phase("phase.verify_us", span.close());
        routing
    }

    /// Records one phase duration into the registry (no-op when metrics
    /// are disabled).
    fn record_phase(&self, name: &str, duration: std::time::Duration) {
        if self.ctx.metrics.is_enabled() {
            let micros = u64::try_from(duration.as_micros()).unwrap_or(u64::MAX);
            self.ctx.metrics.histogram(name).record(micros);
        }
    }

    /// Proves that `width` tracks are insufficient for `problem`.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Undecided`] if the solver gives up.
    ///
    /// Returns `Ok(result)` whose [`RouteResult::is_unroutable`] tells
    /// whether the proof succeeded (`false` means the width is actually
    /// routable).
    pub fn prove_unroutable(
        &self,
        problem: &RoutingProblem,
        width: u32,
    ) -> Result<RouteResult, PipelineError> {
        self.route(problem, width)
    }

    /// Like [`RoutingPipeline::prove_unroutable`], but also returns a DRAT
    /// certificate of the refutation together with the CNF it refutes —
    /// auditable by [`satroute_solver::DratProof::check`] or any external
    /// DRAT checker.
    ///
    /// Returns `Ok((result, None))` when the width turned out routable
    /// (there is nothing to certify).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Undecided`] if the solver gives up.
    pub fn prove_unroutable_certified(
        &self,
        problem: &RoutingProblem,
        width: u32,
    ) -> Result<(RouteResult, Option<UnroutabilityCertificate>), PipelineError> {
        self.route_at(problem, width, true)
    }

    /// Finds the minimum channel width for which `problem` has a detailed
    /// routing, walking downward from a greedy upper bound and certifying
    /// optimality with the final UNSAT answer (see the [`WidthSearch`]
    /// certificate invariant).
    ///
    /// Each probe re-encodes and solves from scratch;
    /// [`RoutingPipeline::find_min_width_incremental`] answers the same
    /// question on one warm solver.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Undecided`] if any probe gives up.
    pub fn find_min_width(&self, problem: &RoutingProblem) -> Result<WidthSearch, PipelineError> {
        let graph = problem.conflict_graph();
        let upper = satroute_coloring::dsatur_coloring(&graph)
            .max_color()
            .map_or(1, |m| m + 1);

        let mut probes = Vec::new();
        let mut best: Option<(u32, DetailedRouting)> = None;
        let mut width = upper;
        loop {
            let result = self.route(problem, width)?;
            let routable = result.routing.is_some();
            if let Some(r) = &result.routing {
                best = Some((width, r.clone()));
            }
            probes.push(result);
            if !routable {
                break;
            }
            if width == 0 {
                break;
            }
            width -= 1;
        }

        let (min_width, routing) = best
            .expect("the DSATUR upper bound is always routable, so at least one probe succeeds");
        Ok(WidthSearch {
            min_width,
            routing,
            probes,
            failed_tracks: Vec::new(),
        })
    }

    /// Like [`RoutingPipeline::find_min_width`], but on one warm solver:
    /// the instance is encoded once at the DSATUR upper bound with
    /// per-track activation selectors
    /// ([`Strategy::incremental`](crate::Strategy::incremental)) and the
    /// ladder sweeps downward by flipping assumptions, keeping learnt
    /// clauses, VSIDS activity and saved phases between probes.
    ///
    /// Returns the same `min_width` as the from-scratch search and
    /// preserves the [`WidthSearch`] certificate invariant, but skips
    /// widths each SAT model already proves achievable (a model using `c`
    /// colors jumps the next probe straight to `c - 1`), and on the final
    /// UNSAT answer the failed-assumption core certifies the bound for
    /// every skipped width (the probe's
    /// [`failed_assumptions`](crate::ColoringReport::failed_assumptions)).
    /// Per-probe reports carry the session's *cumulative* solver counters.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Undecided`] if any probe gives up.
    pub fn find_min_width_incremental(
        &self,
        problem: &RoutingProblem,
    ) -> Result<WidthSearch, PipelineError> {
        let ladder_span = self.ctx.tracer.span_with(
            "width_ladder",
            [("strategy", FieldValue::from(self.strategy.to_string()))],
        );
        let (graph, graph_generation) = problem.conflict_graph_traced(&self.ctx.tracer);
        self.record_phase("phase.graph_generation_us", graph_generation);
        let upper = satroute_coloring::dsatur_coloring(&graph)
            .max_color()
            .map_or(1, |m| m + 1);

        let mut session = self
            .strategy
            .incremental(&graph, upper)
            .context(self.ctx.clone())
            .build();

        let mut probes = Vec::new();
        let mut best: Option<(u32, DetailedRouting)> = None;
        let mut width = upper;
        loop {
            let mut report = session.probe(width);
            if probes.is_empty() {
                report.timing.graph_generation = graph_generation;
            }
            let routing = match &report.outcome {
                ColoringOutcome::Colorable(coloring) => {
                    // The decoded tracks are valid at the (possibly
                    // narrower) width the model actually uses; verify and
                    // record the routing there, then jump below it.
                    let used = coloring.max_color().map_or(0, |m| m + 1);
                    let routing = self.verify(problem, used, coloring.colors());
                    best = Some((used, routing.clone()));
                    Some(routing)
                }
                ColoringOutcome::Unsat => None,
                ColoringOutcome::Unknown(reason) => {
                    ladder_span.mark("verdict", "unknown");
                    return Err(PipelineError::Undecided {
                        width,
                        reason: *reason,
                    });
                }
            };
            let routable = routing.is_some();
            probes.push(RouteResult {
                width,
                routing,
                report,
            });
            if !routable {
                break;
            }
            match best.as_ref().map(|(w, _)| *w) {
                Some(0) | None => break,
                Some(used) => width = used - 1,
            }
        }

        let (min_width, routing) = best
            .expect("the DSATUR upper bound is always routable, so at least one probe succeeds");
        ladder_span.mark("verdict", "done");
        ladder_span.counter("min_width", u64::from(min_width));
        ladder_span.counter("probes", probes.len() as u64);
        Ok(WidthSearch {
            min_width,
            routing,
            probes,
            // The ladder ends on the UNSAT probe (when min_width > 0), so
            // the session still holds that probe's selector core.
            failed_tracks: session.failed_tracks().to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::LastFinished;
    use satroute_fpga::benchmarks;
    use satroute_solver::CancellationToken;
    use std::sync::Arc;

    #[test]
    fn incremental_ladder_records_failed_track_core() {
        let inst = benchmarks::suite_tiny().remove(0);
        let pipeline = RoutingPipeline::new(Strategy::paper_best());
        let search = pipeline
            .find_min_width_incremental(&inst.problem)
            .expect("tiny instance decides");
        assert!(search.min_width > 0, "tiny_a needs at least one track");
        // The final UNSAT probe's selector core survives into the search
        // result and certifies exactly the found minimum.
        assert!(!search.failed_tracks.is_empty());
        assert_eq!(search.core_lower_bound(), Some(search.min_width));
        assert!(search.failed_tracks.windows(2).all(|w| w[0] < w[1]));
        // The cold search has no selector assumptions, hence no core.
        let cold = pipeline
            .find_min_width(&inst.problem)
            .expect("tiny instance decides");
        assert!(cold.failed_tracks.is_empty());
        assert!(cold.core_lower_bound().is_none());
    }

    #[test]
    fn routes_tiny_suite_at_routable_width() {
        for inst in benchmarks::suite_tiny() {
            let pipeline = RoutingPipeline::new(Strategy::paper_best());
            let result = pipeline.route(&inst.problem, inst.routable_width).unwrap();
            let routing = result.routing.expect("routable width must route");
            inst.problem
                .verify_detailed_routing(&routing, inst.routable_width)
                .unwrap();
            assert!(result.report.timing.total() >= result.report.timing.graph_generation);
        }
    }

    #[test]
    fn proves_tiny_suite_unroutable_below_clique() {
        for inst in benchmarks::suite_tiny() {
            if inst.unroutable_width == 0 {
                continue;
            }
            let pipeline = RoutingPipeline::new(Strategy::paper_best());
            let result = pipeline
                .prove_unroutable(&inst.problem, inst.unroutable_width)
                .unwrap();
            assert!(result.is_unroutable(), "{}", inst.name);
        }
    }

    #[test]
    fn min_width_search_is_consistent_and_certified() {
        let inst = &benchmarks::suite_tiny()[0];
        let pipeline = RoutingPipeline::new(Strategy::paper_best());
        let search = pipeline.find_min_width(&inst.problem).unwrap();

        // The found routing verifies at min_width.
        inst.problem
            .verify_detailed_routing(&search.routing, search.min_width)
            .unwrap();
        // min_width lies between the clique bound and the DSATUR bound.
        assert!(search.min_width <= inst.routable_width);
        assert!(search.min_width > inst.unroutable_width.saturating_sub(1));
        // The WidthSearch certificate invariant: min_width > 0, so the
        // last probe is the UNSAT answer one width below.
        let last = search.probes.last().unwrap();
        assert!(last.is_unroutable());
        assert_eq!(last.width, search.min_width - 1);
    }

    /// A problem whose conflict graph has one vertex and no edges: the
    /// minimum width is 1.
    fn single_net_problem() -> RoutingProblem {
        use satroute_fpga::{Architecture, GlobalRouter, Net, Netlist, Side, Terminal};
        let arch = Architecture::new(3, 1).unwrap();
        let net = Net::new(vec![
            Terminal {
                x: 0,
                y: 0,
                side: Side::South,
            },
            Terminal {
                x: 2,
                y: 0,
                side: Side::South,
            },
        ])
        .unwrap();
        let netlist = Netlist::new(&arch, vec![net]).unwrap();
        let routing = GlobalRouter::new().route(&arch, &netlist).unwrap();
        RoutingProblem::new(arch, netlist, routing)
    }

    /// A problem with no nets at all: zero tracks suffice.
    fn net_free_problem() -> RoutingProblem {
        use satroute_fpga::{Architecture, GlobalRouter, Netlist};
        let arch = Architecture::new(3, 1).unwrap();
        let netlist = Netlist::new(&arch, vec![]).unwrap();
        let routing = GlobalRouter::new().route(&arch, &netlist).unwrap();
        RoutingProblem::new(arch, netlist, routing)
    }

    #[test]
    fn width_one_minimum_still_probes_width_zero_for_the_certificate() {
        // Pins the WidthSearch invariant at its edge: a width-1 success
        // must be followed by the width-0 UNSAT probe.
        let problem = single_net_problem();
        for search in [
            RoutingPipeline::new(Strategy::paper_best())
                .find_min_width(&problem)
                .unwrap(),
            RoutingPipeline::new(Strategy::paper_best())
                .find_min_width_incremental(&problem)
                .unwrap(),
        ] {
            assert_eq!(search.min_width, 1);
            let last = search.probes.last().unwrap();
            assert!(last.is_unroutable(), "width 0 must be probed and refuted");
            assert_eq!(last.width, 0);
        }
    }

    #[test]
    fn net_free_problem_has_min_width_zero_without_certificate() {
        // The documented exception: min_width == 0 leaves nothing to
        // refute, so every probe is SAT.
        let problem = net_free_problem();
        for search in [
            RoutingPipeline::new(Strategy::paper_best())
                .find_min_width(&problem)
                .unwrap(),
            RoutingPipeline::new(Strategy::paper_best())
                .find_min_width_incremental(&problem)
                .unwrap(),
        ] {
            assert_eq!(search.min_width, 0);
            assert!(search.probes.iter().all(|p| !p.is_unroutable()));
        }
    }

    #[test]
    fn incremental_min_width_agrees_with_from_scratch() {
        for inst in benchmarks::suite_tiny() {
            let pipeline = RoutingPipeline::new(Strategy::paper_best());
            let cold = pipeline.find_min_width(&inst.problem).unwrap();
            let warm = pipeline.find_min_width_incremental(&inst.problem).unwrap();
            assert_eq!(warm.min_width, cold.min_width, "{}", inst.name);
            inst.problem
                .verify_detailed_routing(&warm.routing, warm.min_width)
                .unwrap();
            // The warm ladder never probes more widths than the cold one
            // (model jumps can only remove probes)...
            assert!(warm.probes.len() <= cold.probes.len());
            // ...and preserves the certificate invariant.
            if warm.min_width > 0 {
                let last = warm.probes.last().unwrap();
                assert!(last.is_unroutable());
                assert_eq!(last.width, warm.min_width - 1);
                assert!(last.report.failed_assumptions.is_some());
            }
        }
    }

    #[test]
    fn min_width_agrees_across_strategies() {
        let inst = &benchmarks::suite_tiny()[1];
        let a = RoutingPipeline::new(Strategy::paper_best())
            .find_min_width(&inst.problem)
            .unwrap();
        let b = RoutingPipeline::new(Strategy::paper_baseline())
            .find_min_width(&inst.problem)
            .unwrap();
        assert_eq!(a.min_width, b.min_width);
    }

    #[test]
    fn budgeted_pipeline_reports_undecided() {
        let inst = &benchmarks::suite_tiny()[2];
        let pipeline = RoutingPipeline::new(Strategy::paper_baseline())
            .budget(RunBudget::new().with_max_conflicts(0));
        // With a zero-conflict budget, either the instance is trivial (no
        // conflicts needed) or we get Undecided; both must be handled.
        match pipeline.route(&inst.problem, inst.unroutable_width.max(1)) {
            Ok(_) | Err(PipelineError::Undecided { .. }) => {}
        }
    }

    #[test]
    fn expired_deadline_reports_undecided_with_reason() {
        use std::time::Duration;
        let inst = &benchmarks::suite_tiny()[0];
        let pipeline = RoutingPipeline::new(Strategy::paper_best())
            .with_budget(RunBudget::new().with_wall(Duration::ZERO));
        match pipeline.route(&inst.problem, inst.routable_width) {
            Err(PipelineError::Undecided { width, reason }) => {
                assert_eq!(width, inst.routable_width);
                assert_eq!(reason, StopReason::Deadline);
            }
            Ok(_) => panic!("zero wall budget cannot decide"),
        }
    }

    #[test]
    fn cancelled_pipeline_reports_undecided() {
        let inst = &benchmarks::suite_tiny()[0];
        let token = CancellationToken::new();
        token.cancel();
        let pipeline = RoutingPipeline::new(Strategy::paper_best()).cancel(token);
        match pipeline.route(&inst.problem, inst.routable_width) {
            Err(PipelineError::Undecided { reason, .. }) => {
                assert_eq!(reason, StopReason::Cancelled);
            }
            Ok(_) => panic!("pre-cancelled pipeline cannot decide"),
        }
    }

    #[test]
    fn pipeline_observer_sees_every_probe() {
        let inst = &benchmarks::suite_tiny()[0];
        let observer = Arc::new(LastFinished::default());
        let pipeline = RoutingPipeline::new(Strategy::paper_best()).observe(observer.clone());
        let search = pipeline.find_min_width(&inst.problem).unwrap();
        // The observer saw at least the last probe's Finished event.
        assert!(search.probes.len() >= 2);
        assert!(observer.get().is_some());
    }
}
