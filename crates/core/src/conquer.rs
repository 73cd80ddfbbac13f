//! Cube-and-conquer: parallel search *within* one instance.
//!
//! The portfolio ([`crate::portfolio`]) parallelizes across *strategies*;
//! every member still faces the whole instance. Cube-and-conquer
//! parallelizes across the *assignment space* of a single strategy: a
//! lookahead splitter ([`satroute_solver::cubes`]) picks the `k` most
//! constraining variables of the encoded CNF and partitions the instance
//! into up to `2^k` subcubes — assumption prefixes over the split
//! variables — which the crate's worker pool, the same one that races
//! portfolio members, then *conquers* concurrently:
//!
//! * workers claim the next unconquered cube from one shared counter;
//!   cubes are never split once claimed, so this balances load without
//!   per-worker queues;
//! * every cube loads the splitter's one encode into a fresh solver and
//!   solves it under the cube's literals as assumptions
//!   ([`SolveRequest::assume`](crate::SolveRequest::assume)), so a cube's
//!   UNSAT answer is exactly "no solution extends this prefix";
//! * the first cube that reports SAT **cancels the siblings** through the
//!   pool's stop token (they report [`StopReason::Cancelled`]); if *every*
//!   cube reports UNSAT the instance is UNSAT, because the cubes plus the
//!   splitter's propagation-refuted sign patterns cover all `2^k`
//!   assignments of the split variables;
//! * workers optionally exchange learnt clauses over the portfolio's
//!   [`SharingBus`]: every worker runs the *same* strategy on the same
//!   instance, so all solvers see the identical CNF, and clauses learnt
//!   under assumptions are consequences of the formula alone (the
//!   assumptions enter conflict analysis as decisions, never as axioms)
//!   — sound to import in any sibling cube.
//!
//! Observability mirrors the portfolio: a `conquer` root span with a
//! `split` child holding the one `encode` span, and one `cube` child per
//! conquered cube (the cube's final counters and `outcome` mark; its
//! solver events land on the `solve` span beneath it), and `conquer.cubes` /
//! `conquer.refuted` counters plus a `conquer.cube_conflicts` histogram in
//! the metrics registry.
//!
//! Determinism note for benchmarking: with sharing disabled, per-cube
//! conflict counts are bit-reproducible even under parallel execution —
//! each cube gets a fresh solver whose search depends only on the CNF and
//! its assumption prefix — as long as no cube reports SAT (cancellation
//! timing is scheduling-dependent). The gated `conquer` bench suite
//! therefore measures unroutable (UNSAT) cells with sharing off.
//!
//! DRAT proofs are refused per-cube for now: an UNSAT answer under a
//! non-empty assumption prefix derives no empty clause, so each cube
//! yields only a *conditional* refutation. Stitching `2^k` conditional
//! DRAT logs plus the splitter's propagation refutations into one checked
//! proof is future work (see DESIGN.md §7); use `satroute prove` for a
//! certified sequential refutation.

use std::time::{Duration, Instant};

use satroute_cnf::{FormulaStats, Lit, Var};
use satroute_coloring::CspGraph;
use satroute_obs::FieldValue;
use satroute_solver::cubes::{split_cubes, CubeOptions};
use satroute_solver::{RunContext, SharingConfig, StopReason};

use crate::encode::{encode, Selectors};
use crate::portfolio::SharingBus;
use crate::race::{self, Pool};
use crate::strategy::{ColoringOutcome, ColoringReport, Strategy};

/// One conquered cube's contribution to a [`ConquerResult`].
#[derive(Clone, Debug)]
pub struct CubeReport {
    /// Index of this cube in sign-pattern order (stable across runs).
    pub index: usize,
    /// The assumption prefix this cube was solved under.
    pub cube: Vec<Lit>,
    /// The worker that conquered it.
    pub worker: usize,
    /// The full per-cube report. UNSAT here means "UNSAT under this
    /// cube's assumptions" and carries
    /// [`failed_assumptions`](ColoringReport::failed_assumptions) unless
    /// the solver refuted the formula outright. The cube loads the shared
    /// encode, so its `cnf_translation` is zero.
    pub report: ColoringReport,
    /// This cube's own wall time (solver load + solve + decode).
    pub wall_time: Duration,
}

impl CubeReport {
    /// `true` if this cube reached a SAT/UNSAT answer.
    pub fn is_decided(&self) -> bool {
        self.report.outcome.is_decided()
    }

    /// Why this cube stopped early, if it did.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.report.outcome.stop_reason()
    }
}

/// The aggregated result of a cube-and-conquer run.
#[derive(Clone, Debug)]
pub struct ConquerResult {
    /// The instance-level verdict: SAT from the winning cube, UNSAT when
    /// the whole cube space is refuted, Unknown otherwise (first
    /// undecided cube's stop reason, in cube order).
    pub outcome: ColoringOutcome,
    /// Index (into [`ConquerResult::cubes`]) of the first cube that
    /// reported SAT, or `None`.
    pub winner: Option<usize>,
    /// Every conquered cube in sign-pattern order. Cubes claimed after a
    /// winner cancelled the race report [`StopReason::Cancelled`].
    pub cubes: Vec<CubeReport>,
    /// The split variables the cube space ranges over.
    pub split_vars: Vec<Var>,
    /// Sign patterns the splitter's unit propagation refuted before any
    /// solver ran; together with `cubes` they cover `2^split_vars.len()`.
    pub refuted_at_split: u64,
    /// Number of workers the pool ran with.
    pub workers: usize,
    /// Wall-clock time from launch to the winning answer (or to the last
    /// cube finishing when nothing was decided).
    pub wall_time: Duration,
    /// Wall-clock time of the sequential prefix alone: the shared encode
    /// plus the lookahead split, before any worker launched.
    pub split_wall_time: Duration,
    /// Shape of the encoded CNF (shared by every cube).
    pub formula_stats: FormulaStats,
    /// Wall time of the one shared encode feeding the splitter.
    pub cnf_translation: Duration,
}

impl ConquerResult {
    /// `true` if the run reached a SAT/UNSAT answer.
    pub fn is_decided(&self) -> bool {
        self.outcome.is_decided()
    }

    /// The winning cube's report, if any cube found a coloring.
    pub fn winning_cube(&self) -> Option<&CubeReport> {
        self.winner.map(|i| &self.cubes[i])
    }

    /// Emitted cubes plus split-time refutations: always
    /// `2^split_vars.len()`, the invariant behind all-UNSAT aggregation.
    pub fn cube_space(&self) -> u64 {
        self.cubes.len() as u64 + self.refuted_at_split
    }

    /// Total conflicts across every conquered cube (the "work" measure
    /// the bench suite gates).
    pub fn total_conflicts(&self) -> u64 {
        self.cubes
            .iter()
            .map(|c| c.report.solver_stats.conflicts)
            .sum()
    }

    /// Per-cube conflict counts in sign-pattern order — deterministic for
    /// UNSAT runs without sharing (see the module docs).
    pub fn cube_conflicts(&self) -> Vec<u64> {
        self.cubes
            .iter()
            .map(|c| c.report.solver_stats.conflicts)
            .collect()
    }

    /// Simulated multicore wall time on an ideal `workers`-core machine,
    /// following the substitution policy (DESIGN.md): this container
    /// exposes a single core, so true parallel wall times are
    /// unobtainable here. The simulation charges the sequential prefix
    /// ([`ConquerResult::split_wall_time`]) in full, then schedules the
    /// measured per-cube wall times onto `workers` cores with
    /// longest-processing-time-first list scheduling — a (4/3)-optimal
    /// makespan, i.e. what a well-scheduled `workers`-core pool achieves.
    /// Per-cube walls are only undistorted when the cubes actually ran
    /// sequentially, so the bench suite measures with one thread and
    /// simulates the cell's worker count through this method.
    pub fn ideal_wall_time(&self, workers: usize) -> Duration {
        let walls: Vec<Duration> = self.cubes.iter().map(|c| c.wall_time).collect();
        self.split_wall_time + lpt_makespan(&walls, workers)
    }
}

/// A cube's assumption prefix as space-joined DIMACS literals (the
/// `assumptions` field on `cube` trace spans).
fn dimacs_cube(cube: &[Lit]) -> String {
    cube.iter()
        .map(|l| l.to_dimacs().to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Longest-processing-time-first list scheduling: jobs sorted by
/// decreasing duration, each placed on the least-loaded of `workers`
/// machines; returns the makespan (maximum machine load).
fn lpt_makespan(jobs: &[Duration], workers: usize) -> Duration {
    let workers = workers.max(1);
    let mut sorted: Vec<Duration> = jobs.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut loads = vec![Duration::ZERO; workers];
    for job in sorted {
        let min = loads
            .iter_mut()
            .min()
            .expect("workers clamped to at least 1");
        *min += job;
    }
    loads.into_iter().max().unwrap_or(Duration::ZERO)
}

/// A configured-but-not-yet-started cube-and-conquer run, built by
/// [`Strategy::cube_and_conquer`].
///
/// Run control comes from the request's [`RunContext`], which every cube's
/// solve inherits. A relative wall budget is resolved once, at launch,
/// into one absolute deadline raced by all cubes. Cancelling the context's
/// token stops every cube; a winning cube stops its siblings through a
/// [`child`](crate::CancellationToken::child) of that token, so the
/// caller's token is never cancelled by the race itself. A tracer records
/// a `conquer` root span with a `split` child and one `cube` span per
/// conquered cube. A metrics registry receives every cube solver's
/// `solver.*` instruments plus `conquer.{cubes,refuted}` counters and a
/// `conquer.cube_conflicts` histogram. With the tracer enabled, a cube
/// stopped by the shared budget (or cancelled after a winner) carries a
/// [`Postmortem`](satroute_obs::Postmortem) labelled with its index.
#[derive(Clone)]
pub struct ConquerRequest<'a> {
    strategy: Strategy,
    graph: &'a CspGraph,
    k: u32,
    cube_vars: u32,
    candidates: usize,
    threads: Option<usize>,
    sharing: Option<SharingConfig>,
    ctx: RunContext,
}

run_context_setters!(ConquerRequest<'_>);

impl<'a> ConquerRequest<'a> {
    /// Sets the number of split variables `k` (up to `2^k` cubes;
    /// default 3, clamped to [`satroute_solver::cubes::MAX_CUBE_VARS`]).
    pub fn cube_vars(mut self, k: u32) -> Self {
        self.cube_vars = k;
        self
    }

    /// Sets the splitter's lookahead pool size (default 32).
    pub fn candidates(mut self, n: usize) -> Self {
        self.candidates = n.max(1);
        self
    }

    /// Caps the worker pool at `n` threads (clamped to at least 1;
    /// default: [`std::thread::available_parallelism`], never more than
    /// the number of cubes).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Enables learnt-clause exchange between workers over a
    /// [`SharingBus`], filtered by `sharing`. Sound here by construction:
    /// every worker solves the identical CNF (see the module docs) — but
    /// it makes per-cube conflict counts scheduling-dependent, so the
    /// gated bench suite keeps it off.
    pub fn share(mut self, sharing: SharingConfig) -> Self {
        self.sharing = Some(sharing);
        self
    }

    /// Splits, conquers and aggregates, consuming the request.
    pub fn run(self) -> ConquerResult {
        let start = Instant::now();
        let ctx = &self.ctx;
        let (tracer, metrics) = (&ctx.tracer, &ctx.metrics);
        let root = tracer.span_with(
            "conquer",
            [
                ("strategy", FieldValue::from(self.strategy.to_string())),
                ("k", FieldValue::from(self.k)),
                ("cube_vars", FieldValue::from(self.cube_vars)),
            ],
        );

        // Encode once: the splitter picks the cube literals from this CNF
        // and every cube loads it, so all solvers see the exact CNF the
        // cubes range over.
        let split_span = tracer.span("split");
        let encoded = encode(
            self.graph,
            self.k,
            &self.strategy.encoding.encoding(),
            self.strategy.symmetry,
            Selectors::None,
            tracer,
            metrics,
        );
        let formula_stats = encoded.stats;
        let plan = split_cubes(
            &encoded.formula,
            &CubeOptions::new(self.cube_vars).with_candidates(self.candidates),
        );
        split_span.counter("cubes", plan.cubes.len() as u64);
        split_span.counter("refuted", plan.refuted);
        drop(split_span);
        let split_wall_time = start.elapsed();
        if metrics.is_enabled() {
            metrics
                .counter("conquer.cubes")
                .add(plan.cubes.len() as u64);
            metrics.counter("conquer.refuted").add(plan.refuted);
        }

        if plan.cubes.is_empty() {
            // The splitter's unit propagation refuted the entire cube
            // space (root conflict included): the formula is UNSAT with
            // no solver ever launched.
            root.mark("outcome", "unsat");
            return ConquerResult {
                outcome: ColoringOutcome::Unsat,
                winner: None,
                cubes: Vec::new(),
                split_vars: plan.vars,
                refuted_at_split: plan.refuted,
                workers: 0,
                wall_time: start.elapsed(),
                split_wall_time,
                formula_stats,
                cnf_translation: encoded.cnf_translation,
            };
        }

        let workers = race::workers(self.threads, plan.cubes.len());
        root.counter("workers", workers as u64);
        // Same-strategy workers ⇒ one sharing group spanning the pool.
        let bus = self
            .sharing
            .map(|_| SharingBus::for_strategies(&vec![self.strategy; workers]));
        let pool = Pool {
            ctx,
            start,
            parent: root.id(),
            workers,
        };
        let race = pool.race(
            plan.cubes.len(),
            "cube",
            |idx, worker| {
                vec![
                    ("index", FieldValue::from(idx as u64)),
                    ("worker", FieldValue::from(worker as u64)),
                    (
                        "assumptions",
                        FieldValue::from(dimacs_cube(&plan.cubes[idx])),
                    ),
                ]
            },
            ColoringOutcome::is_colorable,
            |idx, worker, cube_ctx| {
                let mut request = self
                    .strategy
                    .solve(self.graph, self.k)
                    .context(cube_ctx)
                    .assume(&plan.cubes[idx]);
                if let (Some(sharing), Some(bus)) = (self.sharing, &bus) {
                    if let Some(exchange) = bus.exchange(worker) {
                        request = request.share(exchange, sharing);
                    }
                }
                let (report, _) = request.run_encoded(&encoded, Duration::ZERO, false);
                if metrics.is_enabled() {
                    metrics
                        .histogram("conquer.cube_conflicts")
                        .record(report.solver_stats.conflicts);
                }
                report
            },
        );

        let cubes: Vec<CubeReport> = race
            .jobs
            .into_iter()
            .zip(plan.cubes)
            .enumerate()
            .map(|(index, (job, cube))| CubeReport {
                index,
                cube,
                worker: job.worker,
                report: job.report,
                wall_time: job.wall_time,
            })
            .collect();
        let outcome = aggregate(race.winner, &cubes);
        root.mark("outcome", &outcome.verdict().to_string());

        ConquerResult {
            outcome,
            winner: race.winner,
            cubes,
            split_vars: plan.vars,
            refuted_at_split: plan.refuted,
            workers,
            wall_time: race.wall_time,
            split_wall_time,
            formula_stats,
            cnf_translation: encoded.cnf_translation,
        }
    }
}

/// Instance-level verdict from the per-cube reports (see the module
/// docs for the soundness argument).
fn aggregate(winner: Option<usize>, cubes: &[CubeReport]) -> ColoringOutcome {
    if let Some(idx) = winner {
        return cubes[idx].report.outcome.clone();
    }
    if cubes
        .iter()
        .all(|c| matches!(c.report.outcome, ColoringOutcome::Unsat))
    {
        return ColoringOutcome::Unsat;
    }
    // No winner and not fully refuted: surface the first undecided cube's
    // stop reason (deterministic: cube order, not arrival order).
    let reason = cubes
        .iter()
        .find_map(|c| c.stop_reason())
        .unwrap_or(StopReason::Cancelled);
    ColoringOutcome::Unknown(reason)
}

impl Strategy {
    /// Starts building a cube-and-conquer run of this strategy on the
    /// K-coloring problem of `graph`: chain run-control calls
    /// ([`ConquerRequest::cube_vars`], [`ConquerRequest::threads`],
    /// [`ConquerRequest::budget`], …), then [`ConquerRequest::run`].
    ///
    /// # Examples
    ///
    /// ```
    /// use satroute_coloring::random_graph;
    /// use satroute_core::{ColoringOutcome, Strategy};
    ///
    /// let g = random_graph(10, 0.5, 7);
    /// let result = Strategy::paper_best()
    ///     .cube_and_conquer(&g, 2)
    ///     .cube_vars(2)
    ///     .threads(2)
    ///     .run();
    /// assert!(matches!(result.outcome, ColoringOutcome::Unsat));
    /// assert_eq!(result.cube_space(), 1 << result.split_vars.len());
    /// ```
    pub fn cube_and_conquer<'a>(&self, graph: &'a CspGraph, k: u32) -> ConquerRequest<'a> {
        ConquerRequest {
            strategy: *self,
            graph,
            k,
            cube_vars: 3,
            candidates: 32,
            threads: None,
            sharing: None,
            ctx: RunContext::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satroute_coloring::{exact, random_graph};
    use satroute_obs::{MetricsRegistry, SpanForest, Tracer};
    use satroute_solver::CancellationToken;

    #[test]
    fn lpt_makespan_schedules_longest_jobs_first() {
        let secs = |s: u64| Duration::from_secs(s);
        // 7,5,4,3,1 on 2 machines: LPT gives {7,3} and {5,4,1} → 10.
        let jobs = [secs(5), secs(1), secs(7), secs(3), secs(4)];
        assert_eq!(lpt_makespan(&jobs, 2), secs(10));
        // One machine serializes everything; more machines than jobs
        // leaves the longest job as the makespan.
        assert_eq!(lpt_makespan(&jobs, 1), secs(20));
        assert_eq!(lpt_makespan(&jobs, 8), secs(7));
        assert_eq!(lpt_makespan(&[], 4), Duration::ZERO);
        // workers = 0 is clamped rather than dividing by zero.
        assert_eq!(lpt_makespan(&jobs, 0), secs(20));
    }

    #[test]
    fn ideal_wall_time_charges_split_plus_makespan() {
        let g = random_graph(14, 0.5, 9);
        let chi = exact::chromatic_number(&g);
        let result = Strategy::paper_best()
            .cube_and_conquer(&g, chi - 1)
            .cube_vars(2)
            .threads(1)
            .run();
        assert!(!result.cubes.is_empty());
        let longest = result.cubes.iter().map(|c| c.wall_time).max().unwrap();
        let serial: Duration = result.cubes.iter().map(|c| c.wall_time).sum();
        let one = result.ideal_wall_time(1);
        let many = result.ideal_wall_time(result.cubes.len());
        assert_eq!(one, result.split_wall_time + serial);
        assert_eq!(many, result.split_wall_time + longest);
        assert!(many <= one);
    }

    #[test]
    fn conquer_agrees_with_sequential_on_both_verdicts() {
        let g = random_graph(10, 0.5, 3);
        let chi = exact::chromatic_number(&g);
        for k in [chi - 1, chi] {
            let result = Strategy::paper_best()
                .cube_and_conquer(&g, k)
                .cube_vars(2)
                .threads(2)
                .run();
            match &result.outcome {
                ColoringOutcome::Colorable(c) => {
                    assert_eq!(k, chi);
                    assert!(c.is_proper(&g));
                    let winner = result.winning_cube().expect("winner set on SAT");
                    assert!(winner.is_decided());
                }
                ColoringOutcome::Unsat => {
                    assert_eq!(k, chi - 1);
                    assert_eq!(result.cube_space(), 1 << result.split_vars.len());
                }
                other => panic!("no budget was set, got {other:?}"),
            }
        }
    }

    #[test]
    fn unsat_aggregation_requires_every_cube_unsat() {
        // Seed chosen so the splitter's lookahead does *not* refute the
        // instance outright: solvers must conquer real cubes.
        let g = random_graph(14, 0.5, 9);
        let chi = exact::chromatic_number(&g);
        let result = Strategy::paper_best()
            .cube_and_conquer(&g, chi - 1)
            .cube_vars(2)
            .threads(2)
            .run();
        assert!(matches!(result.outcome, ColoringOutcome::Unsat));
        assert!(
            !result.cubes.is_empty(),
            "instance must not be refuted at split time for this test"
        );
        for cube in &result.cubes {
            assert!(
                matches!(cube.report.outcome, ColoringOutcome::Unsat),
                "cube {} not UNSAT",
                cube.index
            );
        }
        assert_eq!(
            result.cubes.len() as u64 + result.refuted_at_split,
            1 << result.split_vars.len()
        );
    }

    #[test]
    fn single_worker_cancels_cubes_after_the_winner() {
        let g = random_graph(12, 0.4, 11);
        let chi = exact::chromatic_number(&g);
        let result = Strategy::paper_best()
            .cube_and_conquer(&g, chi + 1)
            .cube_vars(2)
            .threads(1)
            .run();
        // Plenty of colors: some cube is SAT. With one worker the cubes
        // run in order, so everything after the winner observes the
        // cancellation deterministically.
        let winner = result.winner.expect("satisfiable instance");
        assert!(matches!(result.outcome, ColoringOutcome::Colorable(_)));
        for cube in &result.cubes {
            if cube.index < winner {
                assert!(
                    matches!(cube.report.outcome, ColoringOutcome::Unsat),
                    "pre-winner cube {} must have been UNSAT",
                    cube.index
                );
            } else if cube.index > winner {
                assert_eq!(
                    cube.stop_reason(),
                    Some(StopReason::Cancelled),
                    "post-winner cube {} must be cancelled",
                    cube.index
                );
            }
        }
    }

    #[test]
    fn pre_cancelled_token_stops_every_cube() {
        // A satisfiable width: the splitter cannot refute a SAT instance
        // at the root, so cubes reach the (already cancelled) solvers.
        let g = random_graph(10, 0.5, 3);
        let chi = exact::chromatic_number(&g);
        let token = CancellationToken::new();
        token.cancel();
        let result = Strategy::paper_best()
            .cube_and_conquer(&g, chi)
            .cube_vars(2)
            .cancel(token)
            .run();
        assert!(!result.cubes.is_empty());
        assert_eq!(
            result.outcome,
            ColoringOutcome::Unknown(StopReason::Cancelled)
        );
        for cube in &result.cubes {
            assert_eq!(cube.stop_reason(), Some(StopReason::Cancelled));
        }
    }

    #[test]
    fn zero_cube_vars_degenerates_to_one_sequential_solve() {
        let g = random_graph(9, 0.5, 2);
        let chi = exact::chromatic_number(&g);
        let result = Strategy::paper_best()
            .cube_and_conquer(&g, chi)
            .cube_vars(0)
            .run();
        assert_eq!(result.cubes.len(), 1);
        assert!(result.split_vars.is_empty());
        assert!(result.cubes[0].cube.is_empty());
        assert!(matches!(result.outcome, ColoringOutcome::Colorable(_)));
    }

    #[test]
    fn conquer_metrics_and_spans_record_the_run() {
        // Seed with a known mixed split (some cubes refuted by the
        // lookahead, some conquered) so every instrument gets exercised.
        let g = random_graph(14, 0.5, 5);
        let chi = exact::chromatic_number(&g);
        let registry = MetricsRegistry::new();
        let buffer = satroute_obs::BufferSink::new();
        let result = Strategy::paper_best()
            .cube_and_conquer(&g, chi - 1)
            .cube_vars(2)
            .threads(2)
            .trace(Tracer::to_sink(buffer.clone()))
            .metrics(registry.clone())
            .run();
        assert!(matches!(result.outcome, ColoringOutcome::Unsat));

        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counter("conquer.cubes"),
            Some(result.cubes.len() as u64)
        );
        assert_eq!(
            snapshot.counter("conquer.refuted"),
            Some(result.refuted_at_split)
        );
        assert_eq!(
            snapshot
                .histogram("conquer.cube_conflicts")
                .map(|h| h.count()),
            Some(result.cubes.len() as u64)
        );

        let forest = SpanForest::from_events(&buffer.events()).expect("trace reconstructs");
        let roots = forest.roots();
        assert_eq!(roots.len(), 1);
        let root = forest.node(roots[0]).unwrap();
        assert_eq!(root.name, "conquer");
        assert_eq!(root.marks.get("outcome").map(String::as_str), Some("unsat"));
        let cube_spans = forest.spans_named("cube");
        assert_eq!(cube_spans.len(), result.cubes.len());
        for span in &cube_spans {
            assert_eq!(span.parent, Some(roots[0]));
        }
        assert_eq!(forest.spans_named("split").len(), 1);
    }

    #[test]
    fn sharing_conquer_still_agrees_with_the_oracle() {
        let g = random_graph(10, 0.5, 7);
        let chi = exact::chromatic_number(&g);
        for k in [chi - 1, chi] {
            let result = Strategy::paper_best()
                .cube_and_conquer(&g, k)
                .cube_vars(3)
                .threads(4)
                .share(SharingConfig::default())
                .run();
            match &result.outcome {
                ColoringOutcome::Colorable(c) => {
                    assert_eq!(k, chi);
                    assert!(c.is_proper(&g));
                }
                ColoringOutcome::Unsat => assert_eq!(k, chi - 1),
                other => panic!("expected a decision, got {other:?}"),
            }
        }
    }
}
