//! Jobs: one user request each, run through the public pipeline entry
//! points (untraced) or composed from the layers' own public functions
//! with one span per layer call (traced).

use std::time::{Duration, Instant};

use satroute_cnf::FormulaStats;
use satroute_coloring::{dsatur_coloring, CspGraph};
use satroute_core::{
    decode_coloring, encode_coloring, ColoringOutcome, EncodingId, RoutingPipeline, RunBudget,
    Strategy, SymmetryHeuristic,
};
use satroute_fpga::{DetailedRouting, RoutingProblem};
use satroute_obs::Tracer;
use satroute_solver::{CdclSolver, SolveOutcome, SolverConfig, SolverStats};

use crate::setup::Instance;
use crate::Workload;

/// Wall budget of every solve (and of every ladder probe).
pub const JOB_BUDGET: Duration = Duration::from_secs(60);

/// What a job asks of the pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobKind {
    /// `prove_unroutable` at ω − 1.
    Prove,
    /// `route` at the DSATUR width.
    Route,
    /// `find_min_width`: re-encode per probe.
    ColdLadder,
    /// `find_min_width_incremental`: encode once, probe by assumptions.
    WarmLadder,
}

impl JobKind {
    /// Stable name used in trace fields.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Prove => "prove",
            JobKind::Route => "route",
            JobKind::ColdLadder => "cold-ladder",
            JobKind::WarmLadder => "warm-ladder",
        }
    }
}

/// One execution of a user request.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Index into the workload's instances.
    pub instance: usize,
    /// The encoding and symmetry heuristic.
    pub strategy: Strategy,
    /// The request.
    pub kind: JobKind,
}

/// The 15 strategies of the paper's Table 2: muldirect with {-, b1, s1}
/// and the six best new encodings with {b1, s1}.
pub fn table2_strategies() -> Vec<Strategy> {
    use EncodingId::*;
    use SymmetryHeuristic::{None as NoSym, B1, S1};
    let mut strategies = vec![Strategy::new(Muldirect, NoSym)];
    for encoding in [
        Muldirect,
        IteLinear,
        IteLog,
        IteLinear2Direct,
        IteLinear2Muldirect,
        Muldirect3Muldirect,
        Direct3Muldirect,
    ] {
        strategies.extend([Strategy::new(encoding, B1), Strategy::new(encoding, S1)]);
    }
    strategies
}

/// Largest clique bound ω on which `table2-unsat` proves. Above it, a
/// subnet order in which the symmetry heuristic's clique misses the
/// densest hotspot turns a symmetry-broken proof into the full pigeonhole
/// refutation (measured: `C1355` ω = 9, direct-3+muldirect/b1, 599k
/// conflicts in 15.7 s; `vda` ω = 10, muldirect/b1, 139k conflicts in
/// 7.8 s, against a median of milliseconds). That happens in about one
/// pass in ten, so a single job would decide a run's total.
pub const PROVE_MAX_OMEGA: u32 = 8;

/// The jobs of one pass of `workload` over `instances`.
pub fn pass(workload: Workload, instances: &[Instance]) -> Vec<Job> {
    let strategies: Vec<(Strategy, JobKind)> = match workload {
        Workload::Table2Unsat => table2_strategies()
            .into_iter()
            .map(|s| (s, JobKind::Prove))
            .collect(),
        Workload::RoutableSweep => EncodingId::ALL
            .iter()
            .flat_map(|&e| {
                SymmetryHeuristic::ALL.map(|sym| (Strategy::new(e, sym), JobKind::Route))
            })
            .collect(),
        Workload::MinWidth => [JobKind::ColdLadder, JobKind::WarmLadder]
            .map(|k| (Strategy::paper_best(), k))
            .to_vec(),
        Workload::LargeRoute => [SymmetryHeuristic::None, SymmetryHeuristic::B1]
            .map(|sym| (Strategy::new(EncodingId::Muldirect, sym), JobKind::Route))
            .to_vec(),
    };
    let mut jobs = Vec::new();
    for (instance, inst) in instances.iter().enumerate() {
        for &(strategy, kind) in &strategies {
            if kind == JobKind::Prove && inst.omega() > PROVE_MAX_OMEGA {
                continue;
            }
            jobs.push(Job {
                instance,
                strategy,
                kind,
            });
        }
    }
    jobs
}

/// Deterministic work counters of a job, summed over its solves. A
/// traced job must reproduce its untraced twin's counters exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Work {
    /// Number of solver runs (ladder probes count one each).
    pub solves: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub restarts: u64,
    pub learnt_clauses: u64,
    pub deleted_clauses: u64,
    pub gc_runs: u64,
    /// CNF shape, summed over the formulas the job encoded.
    pub vars: u64,
    pub clauses: u64,
    pub literals: u64,
}

impl Work {
    fn add_solver(&mut self, s: &SolverStats) {
        self.solves += 1;
        self.conflicts += s.conflicts;
        self.decisions += s.decisions;
        self.propagations += s.propagations;
        self.restarts += s.restarts;
        self.learnt_clauses += s.learnt_clauses;
        self.deleted_clauses += s.deleted_clauses;
        self.gc_runs += s.gc_runs;
    }

    fn add_cnf(&mut self, f: &FormulaStats) {
        self.vars += u64::from(f.num_vars);
        self.clauses += f.num_clauses as u64;
        self.literals += f.num_literals as u64;
    }

    /// Accumulates another job's counters.
    pub fn add(&mut self, o: &Work) {
        let Work {
            solves,
            conflicts,
            decisions,
            propagations,
            restarts,
            learnt_clauses,
            deleted_clauses,
            gc_runs,
            vars,
            clauses,
            literals,
        } = *o;
        self.solves += solves;
        self.conflicts += conflicts;
        self.decisions += decisions;
        self.propagations += propagations;
        self.restarts += restarts;
        self.learnt_clauses += learnt_clauses;
        self.deleted_clauses += deleted_clauses;
        self.gc_runs += gc_runs;
        self.vars += vars;
        self.clauses += clauses;
        self.literals += literals;
    }
}

/// A decided answer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Answer {
    /// The width was proven unroutable.
    Unroutable,
    /// A routing at the job's width.
    Routed(DetailedRouting),
    /// A minimum-width search.
    MinWidth {
        /// The minimum width found.
        min: u32,
        /// A routing at `min`.
        routing: DetailedRouting,
        /// Widths probed, in order.
        probes: Vec<u32>,
        /// Whether the last probe was UNSAT.
        last_unsat: bool,
    },
}

/// The result of one execution: the answer and its work counters, or why
/// it gave no answer (budget stop or panic).
pub type JobResult = Result<(Answer, Work), String>;

/// The width a prove or route job is asked about.
pub fn job_width(job: &Job, inst: &Instance) -> u32 {
    match job.kind {
        JobKind::Prove => inst.omega() - 1,
        _ => inst.dsatur_width,
    }
}

fn budget() -> RunBudget {
    RunBudget::new().with_wall(JOB_BUDGET)
}

/// Runs a job through the public `RoutingPipeline` entry points.
pub fn run(job: &Job, inst: &Instance) -> JobResult {
    let pipeline = RoutingPipeline::new(job.strategy).with_budget(budget());
    let problem = &inst.problem;
    let mut work = Work::default();
    let answer = match job.kind {
        JobKind::Prove | JobKind::Route => {
            let width = job_width(job, inst);
            let result = if job.kind == JobKind::Prove {
                pipeline.prove_unroutable(problem, width)
            } else {
                pipeline.route(problem, width)
            }
            .map_err(|e| e.to_string())?;
            work.add_cnf(&result.report.formula_stats);
            work.add_solver(&result.report.solver_stats);
            match result.routing {
                Some(routing) => Answer::Routed(routing),
                None => Answer::Unroutable,
            }
        }
        JobKind::ColdLadder | JobKind::WarmLadder => {
            let search = if job.kind == JobKind::ColdLadder {
                pipeline.find_min_width(problem)
            } else {
                pipeline.find_min_width_incremental(problem)
            }
            .map_err(|e| e.to_string())?;
            let last = search.probes.last().expect("a search probes at least once");
            if job.kind == JobKind::ColdLadder {
                for probe in &search.probes {
                    work.add_cnf(&probe.report.formula_stats);
                    work.add_solver(&probe.report.solver_stats);
                }
            } else {
                // Warm probes report the session's cumulative counters.
                work.add_cnf(&last.report.formula_stats);
                work.add_solver(&last.report.solver_stats);
                work.solves = search.probes.len() as u64;
            }
            Answer::MinWidth {
                min: search.min_width,
                probes: search.probes.iter().map(|p| p.width).collect(),
                last_unsat: last.is_unroutable(),
                routing: search.routing,
            }
        }
    };
    Ok((answer, work))
}

/// Wall time per layer, summed over the traced calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// `RoutingProblem::conflict_graph`.
    pub conflict_graph: Duration,
    /// Edges of the conflict graphs built.
    pub conflict_edges: u64,
    /// `dsatur_coloring` for the ladders' upper bound.
    pub bounds: Duration,
    /// `encode_coloring`, and the encode inside an incremental build.
    pub encode: Duration,
    /// `CdclSolver::with_config` + `add_formula`, and the rest of an
    /// incremental build.
    pub load: Duration,
    /// `CdclSolver::solve`, and `IncrementalSession::probe`.
    pub solve: Duration,
    /// `decode_coloring`.
    pub decode: Duration,
    /// `verify_detailed_routing`.
    pub verify: Duration,
    /// Largest resident set seen right after a solver load, in bytes.
    pub rss_after_load: u64,
}

/// Runs `f` under a span named `name`, adding its wall time to `acc`.
fn timed<T>(tracer: &Tracer, name: &str, acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let span = tracer.span(name);
    let out = f();
    *acc += span.close();
    out
}

/// Runs a job by calling each layer's public function in the order the
/// pipeline does, one span per call under a `job` span. Reproduces
/// [`run`]'s answer and counters exactly.
pub fn run_traced(
    job: &Job,
    inst: &Instance,
    tracer: &Tracer,
    layers: &mut LayerTimes,
) -> JobResult {
    let width = job_width(job, inst);
    let span = tracer.span_with(
        "job",
        [
            ("instance", inst.name.clone().into()),
            ("strategy", job.strategy.to_string().into()),
            ("kind", job.kind.name().into()),
        ],
    );
    let problem = &inst.problem;
    let mut work = Work::default();
    let answer = match job.kind {
        JobKind::Prove | JobKind::Route => {
            match route_traced(problem, job.strategy, width, tracer, layers, &mut work)? {
                Some(routing) => Answer::Routed(routing),
                None => Answer::Unroutable,
            }
        }
        JobKind::ColdLadder => {
            let (_, upper) = ladder_bounds(problem, tracer, layers);
            let mut probes = Vec::new();
            let mut best = None;
            let mut width = upper;
            let last_unsat = loop {
                probes.push(width);
                match route_traced(problem, job.strategy, width, tracer, layers, &mut work)? {
                    Some(routing) => best = Some((width, routing)),
                    None => break true,
                }
                if width == 0 {
                    break false;
                }
                width -= 1;
            };
            let (min, routing) = best.ok_or("the DSATUR width did not route")?;
            Answer::MinWidth {
                min,
                routing,
                probes,
                last_unsat,
            }
        }
        JobKind::WarmLadder => {
            let (graph, upper) = ladder_bounds(problem, tracer, layers);
            let build = tracer.span("incremental_build");
            let mut session = job
                .strategy
                .incremental(&graph, upper)
                .budget(budget())
                .build();
            let build = build.close();
            layers.rss_after_load = layers.rss_after_load.max(crate::measure::rss_bytes());
            let mut probes = Vec::new();
            let mut best = None;
            let mut width = upper;
            let mut encode = None;
            let (last_unsat, report) = loop {
                probes.push(width);
                let report = timed(tracer, "probe", &mut layers.solve, || session.probe(width));
                // The session charges its one encode to the first probe.
                encode.get_or_insert(report.timing.cnf_translation);
                let used = match &report.outcome {
                    ColoringOutcome::Colorable(c) => c.max_color().map_or(0, |m| m + 1),
                    ColoringOutcome::Unsat => break (true, report),
                    ColoringOutcome::Unknown(reason) => {
                        return Err(format!("stopped ({reason}) at width {width}"))
                    }
                };
                let colors = report
                    .outcome
                    .coloring()
                    .expect("colorable")
                    .colors()
                    .to_vec();
                let routing = timed(tracer, "verify", &mut layers.verify, || {
                    let routing = DetailedRouting::from_tracks(colors);
                    problem
                        .verify_detailed_routing(&routing, used)
                        .map(|()| routing)
                })
                .map_err(|e| e.to_string())?;
                best = Some((used, routing));
                if used == 0 {
                    break (false, report);
                }
                width = used - 1;
            };
            let encode = encode.expect("a ladder probes at least once");
            span.counter("incremental_encode_us", encode.as_micros() as u64);
            layers.encode += encode;
            layers.load += build.saturating_sub(encode);
            work.add_cnf(&report.formula_stats);
            work.add_solver(&report.solver_stats);
            work.solves = probes.len() as u64;
            let (min, routing) = best.ok_or("the DSATUR width did not route")?;
            Answer::MinWidth {
                min,
                routing,
                probes,
                last_unsat,
            }
        }
    };
    Ok((answer, work))
}

/// The conflict graph and its DSATUR width, where a ladder starts.
fn ladder_bounds(
    problem: &RoutingProblem,
    tracer: &Tracer,
    layers: &mut LayerTimes,
) -> (CspGraph, u32) {
    let graph = conflict_graph(problem, tracer, layers);
    let upper = timed(tracer, "bounds", &mut layers.bounds, || {
        dsatur_coloring(&graph).max_color().map_or(1, |m| m + 1)
    });
    (graph, upper)
}

fn conflict_graph(problem: &RoutingProblem, tracer: &Tracer, layers: &mut LayerTimes) -> CspGraph {
    let graph = timed(tracer, "conflict_graph", &mut layers.conflict_graph, || {
        problem.conflict_graph()
    });
    layers.conflict_edges += graph.num_edges() as u64;
    graph
}

/// `RoutingPipeline::route` decomposed into its layer calls. Returns the
/// verified routing, or `None` when the width is unroutable.
fn route_traced(
    problem: &RoutingProblem,
    strategy: Strategy,
    width: u32,
    tracer: &Tracer,
    layers: &mut LayerTimes,
    work: &mut Work,
) -> Result<Option<DetailedRouting>, String> {
    let graph = conflict_graph(problem, tracer, layers);
    let encoded = timed(tracer, "encode", &mut layers.encode, || {
        encode_coloring(
            &graph,
            width,
            &strategy.encoding.encoding(),
            strategy.symmetry,
        )
    });
    work.add_cnf(&encoded.formula.stats());
    let mut solver = timed(tracer, "load", &mut layers.load, || {
        let mut solver = CdclSolver::with_config(SolverConfig::default());
        solver.set_budget(budget());
        solver.add_formula(&encoded.formula);
        solver
    });
    layers.rss_after_load = layers.rss_after_load.max(crate::measure::rss_bytes());
    let outcome = timed(tracer, "solve", &mut layers.solve, || solver.solve());
    work.add_solver(solver.stats());
    // Like the pipeline's own decode step, this runs for every verdict.
    let coloring = timed(tracer, "decode", &mut layers.decode, || match outcome {
        SolveOutcome::Sat(model) => decode_coloring(&model, &encoded.decode)
            .map(Some)
            .map_err(|e| e.to_string()),
        SolveOutcome::Unsat => Ok(None),
        SolveOutcome::Unknown(reason) => Err(format!("stopped ({reason}) at width {width}")),
    })?;
    let Some(coloring) = coloring else {
        return Ok(None);
    };
    timed(tracer, "verify", &mut layers.verify, || {
        let routing = DetailedRouting::from_tracks(coloring.into_colors());
        problem
            .verify_detailed_routing(&routing, width)
            .map(|()| routing)
    })
    .map(Some)
    .map_err(|e| e.to_string())
}

/// Times one execution, turning a panic into an undecided result.
pub fn timed_execution(f: impl FnOnce() -> JobResult) -> (JobResult, Duration) {
    let start = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err("panicked".to_string()));
    (result, start.elapsed())
}
