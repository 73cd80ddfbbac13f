//! Pinned regression suites for `satroute bench run`.
//!
//! A suite is a fixed list of (benchmark, strategy, width) triples whose
//! instances are generated from constant seeds, so the deterministic
//! columns of the resulting [`BenchArtifact`] (conflicts, decisions,
//! propagations, CNF shape, outcome) are bit-identical across machines
//! for a given toolchain — those columns gate regressions anywhere, while
//! wall time gates only between matching environments (see
//! [`crate::compare`]).

use std::time::{Duration, Instant};

use satroute_core::{ExplainOutcome, RoutingPipeline, Strategy, WidthSearch};
use satroute_fpga::benchmarks::{self, BenchmarkInstance};
use satroute_obs::{MetricsRegistry, MetricsSnapshot};
use satroute_solver::{InprocessConfig, RunBudget, RunContext, SolverConfig};

use crate::artifact::{BenchArtifact, BenchCell, EnvFingerprint, HistogramSummary, WallTime};
use crate::fmt_secs;

/// Which pinned suite to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteId {
    /// The three `tiny_*` instances × two strategies × both calibrated
    /// widths — seconds of wall time; the CI regression gate.
    Quick,
    /// The paper's circuit suite at the unroutable widths (the Table 2
    /// regime) with the paper's best and baseline strategies — minutes.
    Paper,
    /// Full minimum-width ladders on the `tiny_*` instances, warm
    /// (assumption-based, one solver) versus cold (re-encode per width),
    /// for both reference strategies. Cells record *total ladder*
    /// conflicts and the found minimum width in the outcome column, so
    /// the gate catches both performance and answer regressions of the
    /// incremental path.
    Incremental,
    /// Cube-and-conquer versus single-threaded solves on the hard
    /// (unroutable) `tiny_*` cells. Conquer cells run with sharing off
    /// and a fresh solver per cube, so the cube count and per-cube
    /// conflict sequence — recorded in the outcome column — are
    /// deterministic despite parallel execution, and gate everywhere;
    /// the paired plain cells make the wall-time speedup visible in
    /// timing-comparable environments.
    Conquer,
    /// Core-minimizing explanation runs on the unroutable `tiny_*`
    /// cells: one warm solver per cell extracts and shrinks a net-level
    /// UNSAT core to 1-minimality. The outcome column records the core's
    /// net ids, shrink status and probe counts — all deterministic — so
    /// the gate catches a changed core or a degenerated shrink loop as
    /// loudly as a slowdown.
    Explain,
    /// The quick-suite cells — plus the hard `k2` paper cell — twice
    /// each: once with in-search inprocessing (vivification,
    /// subsumption, bounded variable elimination) enabled and once with
    /// the stock configuration. The
    /// `inp-on` cells embed the simplification counters in the outcome
    /// column (`... viv=L sub=C bve=V`) — all deterministic, since pass
    /// budgets tick on clause lengths rather than time — so the gate
    /// catches a pass that silently stops firing as loudly as a
    /// slowdown; the paired `inp-off` cells make the wall-time effect
    /// visible in timing-comparable environments.
    Inprocess,
}

impl SuiteId {
    /// The suite's artifact name (`"quick"` / `"paper"` /
    /// `"incremental"` / `"conquer"` / `"explain"` / `"inprocess"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SuiteId::Quick => "quick",
            SuiteId::Paper => "paper",
            SuiteId::Incremental => "incremental",
            SuiteId::Conquer => "conquer",
            SuiteId::Explain => "explain",
            SuiteId::Inprocess => "inprocess",
        }
    }
}

impl std::str::FromStr for SuiteId {
    type Err = String;

    fn from_str(s: &str) -> Result<SuiteId, String> {
        match s {
            "quick" => Ok(SuiteId::Quick),
            "paper" => Ok(SuiteId::Paper),
            "incremental" => Ok(SuiteId::Incremental),
            "conquer" => Ok(SuiteId::Conquer),
            "explain" => Ok(SuiteId::Explain),
            "inprocess" => Ok(SuiteId::Inprocess),
            other => Err(format!(
                "unknown suite `{other}` (try: quick, paper, incremental, conquer, explain, \
                 inprocess)"
            )),
        }
    }
}

/// Knobs of a suite run.
#[derive(Clone, Debug)]
pub struct SuiteOptions {
    /// Repeat runs per cell; the artifact records the median wall time.
    pub runs: usize,
    /// Run control every cell's solves inherit. The default budget caps
    /// each solve at 60 s wall so a pathological regression fails the
    /// gate as `unknown:wall` instead of hanging CI. A tracer gets one
    /// `cell` span per cell with the run's encode/solve/decode spans
    /// beneath it. A flight recorder receives every solve's search-state
    /// samples; sampling only reads solver state, so the deterministic
    /// columns are identical with recording on or off. Each run replaces
    /// the metrics registry with a fresh one of its own.
    pub ctx: RunContext,
    /// Case-sensitive substring filter on cell ids
    /// (`benchmark/encoding/symmetry/wN`); only matching cells run.
    /// `None` runs the whole suite.
    pub filter: Option<String>,
}

impl Default for SuiteOptions {
    fn default() -> SuiteOptions {
        SuiteOptions {
            runs: 3,
            ctx: RunContext {
                budget: RunBudget::new().with_wall(Duration::from_secs(60)),
                ..RunContext::default()
            },
            filter: None,
        }
    }
}

/// What a suite cell measures.
#[derive(Clone, Copy)]
enum CellKind {
    /// One solve at a fixed channel width.
    Solve { width: u32 },
    /// A whole minimum-width ladder; `warm` selects the assumption-based
    /// incremental search over the re-encode-per-width baseline.
    Ladder { warm: bool },
    /// One cube-and-conquer run at a fixed width: `2^cube_vars` subcubes
    /// raced by `threads` workers, sharing off (determinism).
    Conquer {
        width: u32,
        cube_vars: u32,
        threads: usize,
    },
    /// One explanation run at a fixed (unroutable) width: net-grouped
    /// selector encoding, initial core, deletion shrink to 1-minimality
    /// on one warm solver.
    Explain { width: u32 },
    /// One solve at a fixed width with in-search inprocessing toggled;
    /// the `on` cells embed the pass counters in the outcome column.
    Inprocess { width: u32, on: bool },
}

/// One entry of a suite's work list.
struct SuiteCell {
    instance: BenchmarkInstance,
    strategy: Strategy,
    kind: CellKind,
}

fn quick_cells() -> Vec<SuiteCell> {
    let strategies = [Strategy::paper_best(), Strategy::paper_baseline()];
    let mut cells = Vec::new();
    for instance in benchmarks::suite_tiny() {
        for strategy in strategies {
            for width in [instance.routable_width, instance.unroutable_width] {
                if width == 0 {
                    continue;
                }
                cells.push(SuiteCell {
                    instance: instance.clone(),
                    strategy,
                    kind: CellKind::Solve { width },
                });
            }
        }
    }
    cells
}

fn incremental_cells() -> Vec<SuiteCell> {
    let strategies = [Strategy::paper_best(), Strategy::paper_baseline()];
    let mut cells = Vec::new();
    for instance in benchmarks::suite_tiny() {
        for strategy in strategies {
            for warm in [true, false] {
                cells.push(SuiteCell {
                    instance: instance.clone(),
                    strategy,
                    kind: CellKind::Ladder { warm },
                });
            }
        }
    }
    cells
}

fn paper_cells() -> Vec<SuiteCell> {
    let strategies = [Strategy::paper_best(), Strategy::paper_baseline()];
    let mut cells = Vec::new();
    for instance in benchmarks::suite_paper() {
        for strategy in strategies {
            let width = instance.unroutable_width;
            if width == 0 {
                continue;
            }
            cells.push(SuiteCell {
                instance: instance.clone(),
                strategy,
                kind: CellKind::Solve { width },
            });
        }
    }
    cells
}

/// The hard rows of the conquer suite: each unroutable `tiny_*` cell
/// appears twice, once as a plain single-threaded solve (the wall-time
/// baseline) and once cube-and-conquered at up to `2^4` cubes on a
/// simulated 4-worker machine (see [`run_conquer_cell`]).
fn conquer_cells() -> Vec<SuiteCell> {
    let strategies = [Strategy::paper_best(), Strategy::paper_baseline()];
    let mut cells = Vec::new();
    for instance in benchmarks::suite_tiny() {
        if !matches!(instance.name.as_str(), "tiny_b" | "tiny_c") {
            continue;
        }
        let width = instance.unroutable_width;
        if width == 0 {
            continue;
        }
        for strategy in strategies {
            cells.push(SuiteCell {
                instance: instance.clone(),
                strategy,
                kind: CellKind::Solve { width },
            });
            cells.push(SuiteCell {
                instance: instance.clone(),
                strategy,
                kind: CellKind::Conquer {
                    width,
                    cube_vars: 4,
                    threads: 4,
                },
            });
        }
    }
    cells
}

/// One explanation cell per unroutable `tiny_*` instance and reference
/// strategy: extract and shrink the net-level UNSAT core at the
/// calibrated unroutable width. The shrink loop runs unbudgeted on these
/// sub-second instances, so every cell's core is 1-minimal and its
/// outcome column is exact.
fn explain_cells() -> Vec<SuiteCell> {
    let strategies = [Strategy::paper_best(), Strategy::paper_baseline()];
    let mut cells = Vec::new();
    for instance in benchmarks::suite_tiny() {
        let width = instance.unroutable_width;
        if width == 0 {
            continue;
        }
        for strategy in strategies {
            cells.push(SuiteCell {
                instance: instance.clone(),
                strategy,
                kind: CellKind::Explain { width },
            });
        }
    }
    cells
}

/// The quick-suite grid with inprocessing on and off: every `tiny_*`
/// instance × reference strategy × calibrated width appears as an
/// `inp-on` / `inp-off` twin pair, plus the hard `k2` paper cell at its
/// unroutable width (the one sub-second instance where the
/// symmetry-falsified literals stripped by the start round pay for the
/// search perturbation many times over). Both cells of a pair solve the
/// same CNF with the same solver configuration apart from the
/// [`InprocessConfig`] toggle, so any divergence in the verdict columns
/// is an inprocessing soundness bug, not noise.
fn inprocess_cells() -> Vec<SuiteCell> {
    let strategies = [Strategy::paper_best(), Strategy::paper_baseline()];
    let mut cells = Vec::new();
    for instance in benchmarks::suite_tiny() {
        for strategy in strategies {
            for width in [instance.routable_width, instance.unroutable_width] {
                if width == 0 {
                    continue;
                }
                for on in [true, false] {
                    cells.push(SuiteCell {
                        instance: instance.clone(),
                        strategy,
                        kind: CellKind::Inprocess { width, on },
                    });
                }
            }
        }
    }
    for instance in benchmarks::suite_paper() {
        if instance.name != "k2" {
            continue;
        }
        let width = instance.unroutable_width;
        for strategy in strategies {
            for on in [true, false] {
                cells.push(SuiteCell {
                    instance: instance.clone(),
                    strategy,
                    kind: CellKind::Inprocess { width, on },
                });
            }
        }
    }
    cells
}

/// Runs `suite` and assembles the artifact. `progress` receives one line
/// per completed cell (pass `|_| {}` to silence).
pub fn run_suite(
    suite: SuiteId,
    opts: &SuiteOptions,
    mut progress: impl FnMut(&str),
) -> BenchArtifact {
    let mut cells = match suite {
        SuiteId::Quick => quick_cells(),
        SuiteId::Paper => paper_cells(),
        SuiteId::Incremental => incremental_cells(),
        SuiteId::Conquer => conquer_cells(),
        SuiteId::Explain => explain_cells(),
        SuiteId::Inprocess => inprocess_cells(),
    };
    if let Some(needle) = &opts.filter {
        cells.retain(|cell| cell_id(cell).contains(needle.as_str()));
    }
    let runs = opts.runs.max(1);
    let mut measured = Vec::with_capacity(cells.len());
    for cell in &cells {
        let bench_cell = run_cell(cell, runs, opts);
        progress(&format!(
            "{:<56} {:>8}s  {:>9} conflicts  {}",
            bench_cell.id,
            fmt_secs(Duration::from_secs_f64(bench_cell.wall_time_s.median)),
            bench_cell.conflicts,
            bench_cell.outcome,
        ));
        measured.push(bench_cell);
    }
    BenchArtifact {
        schema: crate::artifact::SCHEMA.to_string(),
        suite: suite.name().to_string(),
        env: EnvFingerprint::capture(),
        cells: measured,
    }
}

/// The artifact id a suite cell will be recorded under. Ladder cells use
/// a `ladder-warm` / `ladder-cold` final segment in place of `wN`, since
/// they sweep widths rather than pinning one; conquer cells append a
/// `cube<k>x<threads>` segment to the plain id so they never collide
/// with their single-threaded baseline twin. Explain cells use an
/// `explain-wN` final segment and a `-` symmetry segment — deleting nets
/// from a symmetry-broken formula is unsound, so the explanation path
/// always encodes symmetry-free regardless of the strategy. Inprocess
/// cells append `inp-on` / `inp-off` to the plain id so twins never
/// collide with each other or with the quick suite.
fn cell_id(cell: &SuiteCell) -> String {
    match cell.kind {
        CellKind::Solve { width } => BenchCell::make_id(
            &cell.instance.name,
            cell.strategy.encoding.name(),
            cell.strategy.symmetry.name(),
            width,
        ),
        CellKind::Ladder { warm } => format!(
            "{}/{}/{}/ladder-{}",
            cell.instance.name,
            cell.strategy.encoding.name(),
            cell.strategy.symmetry.name(),
            if warm { "warm" } else { "cold" }
        ),
        CellKind::Conquer {
            width,
            cube_vars,
            threads,
        } => format!(
            "{}/cube{cube_vars}x{threads}",
            BenchCell::make_id(
                &cell.instance.name,
                cell.strategy.encoding.name(),
                cell.strategy.symmetry.name(),
                width,
            )
        ),
        CellKind::Explain { width } => format!(
            "{}/{}/-/explain-w{width}",
            cell.instance.name,
            cell.strategy.encoding.name(),
        ),
        CellKind::Inprocess { width, on } => format!(
            "{}/inp-{}",
            BenchCell::make_id(
                &cell.instance.name,
                cell.strategy.encoding.name(),
                cell.strategy.symmetry.name(),
                width,
            ),
            if on { "on" } else { "off" }
        ),
    }
}

/// The suite's run control for one run of a cell, recording into that
/// run's own `registry`.
fn cell_context(opts: &SuiteOptions, registry: &MetricsRegistry) -> RunContext {
    RunContext {
        metrics: registry.clone(),
        ..opts.ctx.clone()
    }
}

/// Measures one cell: `runs` repeats, each with a fresh metrics
/// registry; deterministic columns and histograms come from the run with
/// the median wall time.
fn run_cell(cell: &SuiteCell, runs: usize, opts: &SuiteOptions) -> BenchCell {
    let width = match cell.kind {
        CellKind::Solve { width } => width,
        CellKind::Ladder { warm } => return run_ladder_cell(cell, warm, runs, opts),
        CellKind::Conquer {
            width,
            cube_vars,
            threads,
        } => return run_conquer_cell(cell, width, cube_vars, threads, runs, opts),
        CellKind::Explain { width } => return run_explain_cell(cell, width, runs, opts),
        CellKind::Inprocess { width, on } => {
            return run_inprocess_cell(cell, width, on, runs, opts)
        }
    };
    let span = opts.ctx.tracer.span_with(
        "cell",
        [
            (
                "benchmark",
                satroute_obs::FieldValue::from(cell.instance.name.as_str()),
            ),
            (
                "strategy",
                satroute_obs::FieldValue::from(cell.strategy.to_string()),
            ),
            ("width", satroute_obs::FieldValue::from(width)),
        ],
    );
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let registry = MetricsRegistry::new();
        let report = cell
            .strategy
            .solve(&cell.instance.conflict_graph, width)
            .context(cell_context(opts, &registry))
            .run();
        samples.push((report, registry.snapshot()));
    }
    drop(span);

    // Median by wall time; ties keep the earlier run (deterministic).
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| {
        samples[a]
            .0
            .metrics
            .wall_time
            .cmp(&samples[b].0.metrics.wall_time)
            .then(a.cmp(&b))
    });
    let median_idx = order[order.len() / 2];
    let (report, snapshot) = &samples[median_idx];

    let walls: Vec<f64> = samples
        .iter()
        .map(|(r, _)| r.metrics.wall_time.as_secs_f64())
        .collect();
    let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let max = walls.iter().copied().fold(0.0_f64, f64::max);

    let outcome = match &report.outcome {
        satroute_core::ColoringOutcome::Colorable(_) => "sat".to_string(),
        satroute_core::ColoringOutcome::Unsat => "unsat".to_string(),
        satroute_core::ColoringOutcome::Unknown(reason) => format!("unknown:{reason}"),
    };
    let histograms = snapshot
        .histograms()
        .map(|(name, h)| (name.to_string(), HistogramSummary::of(h)))
        .collect();

    BenchCell {
        id: cell_id(cell),
        benchmark: cell.instance.name.clone(),
        encoding: cell.strategy.encoding.name().to_string(),
        symmetry: cell.strategy.symmetry.name().to_string(),
        width,
        runs: runs as u64,
        wall_time_s: WallTime {
            median: report.metrics.wall_time.as_secs_f64(),
            min,
            max,
        },
        conflicts: report.solver_stats.conflicts,
        decisions: report.solver_stats.decisions,
        propagations: report.solver_stats.propagations,
        props_per_sec: report.metrics.propagations_per_sec(),
        cnf_vars: u64::from(report.formula_stats.num_vars),
        cnf_clauses: report.formula_stats.num_clauses as u64,
        outcome,
        histograms,
    }
}

/// Measures one inprocessing twin cell: a plain fixed-width solve with
/// the [`InprocessConfig`] toggled per the cell's `on` flag. The `on`
/// outcome column appends the pass counters
/// (`viv=<literals> sub=<clauses> bve=<vars>`) to the verdict: pass
/// budgets are conflict- and tick-scheduled (ticks decrement by clause
/// length, never by time) and candidate orders are fixed, so the
/// counters are bit-identical across machines and the compare gate
/// checks them verbatim — a pass that silently stops firing, or fires
/// differently, fails the gate even if wall time looks fine.
fn run_inprocess_cell(
    cell: &SuiteCell,
    width: u32,
    on: bool,
    runs: usize,
    opts: &SuiteOptions,
) -> BenchCell {
    let span = opts.ctx.tracer.span_with(
        "cell",
        [
            (
                "benchmark",
                satroute_obs::FieldValue::from(cell.instance.name.as_str()),
            ),
            (
                "strategy",
                satroute_obs::FieldValue::from(cell.strategy.to_string()),
            ),
            ("width", satroute_obs::FieldValue::from(width)),
            ("inprocess", satroute_obs::FieldValue::from(on)),
        ],
    );
    let mut config = SolverConfig::default();
    if on {
        config.inprocess = InprocessConfig::on();
    }
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let registry = MetricsRegistry::new();
        let report = cell
            .strategy
            .solve(&cell.instance.conflict_graph, width)
            .context(cell_context(opts, &registry))
            .config(config.clone())
            .run();
        samples.push((report, registry.snapshot()));
    }
    drop(span);

    // Median by wall time; ties keep the earlier run (deterministic).
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| {
        samples[a]
            .0
            .metrics
            .wall_time
            .cmp(&samples[b].0.metrics.wall_time)
            .then(a.cmp(&b))
    });
    let median_idx = order[order.len() / 2];
    let (report, snapshot) = &samples[median_idx];

    let walls: Vec<f64> = samples
        .iter()
        .map(|(r, _)| r.metrics.wall_time.as_secs_f64())
        .collect();
    let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let max = walls.iter().copied().fold(0.0_f64, f64::max);

    let verdict = match &report.outcome {
        satroute_core::ColoringOutcome::Colorable(_) => "sat".to_string(),
        satroute_core::ColoringOutcome::Unsat => "unsat".to_string(),
        satroute_core::ColoringOutcome::Unknown(reason) => format!("unknown:{reason}"),
    };
    let outcome = if on {
        let s = &report.solver_stats;
        format!(
            "{verdict} viv={} sub={} bve={}",
            s.vivified_literals, s.subsumed_clauses, s.eliminated_vars,
        )
    } else {
        verdict
    };
    let histograms = snapshot
        .histograms()
        .map(|(name, h)| (name.to_string(), HistogramSummary::of(h)))
        .collect();

    BenchCell {
        id: cell_id(cell),
        benchmark: cell.instance.name.clone(),
        encoding: cell.strategy.encoding.name().to_string(),
        symmetry: cell.strategy.symmetry.name().to_string(),
        width,
        runs: runs as u64,
        wall_time_s: WallTime {
            median: report.metrics.wall_time.as_secs_f64(),
            min,
            max,
        },
        conflicts: report.solver_stats.conflicts,
        decisions: report.solver_stats.decisions,
        propagations: report.solver_stats.propagations,
        props_per_sec: report.metrics.propagations_per_sec(),
        cnf_vars: u64::from(report.formula_stats.num_vars),
        cnf_clauses: report.formula_stats.num_clauses as u64,
        outcome,
        histograms,
    }
}

/// Measures one cube-and-conquer cell. Sharing stays off and every cube
/// gets a fresh solver, so the emitted cube count, split-time
/// refutations, and per-cube conflict sequence are independent of worker
/// scheduling on UNSAT instances; they are recorded in the outcome
/// column (`unsat cubes=N refuted=M cube_conflicts=a,b,...`), which the
/// compare gate checks verbatim everywhere. The aggregate
/// conflicts/decisions/propagations columns are sums over the cubes and
/// gate as usual.
///
/// Wall time follows the substitution policy (DESIGN.md): this container
/// exposes a single core, so a threaded run cannot show a parallel
/// speedup and would distort every per-cube wall with time-slicing.
/// The cubes therefore execute on one thread — giving clean per-cube
/// measurements — and the recorded wall is
/// [`satroute_core::ConquerResult::ideal_wall_time`] for the cell's
/// worker count: the
/// split prefix plus the LPT makespan an ideally parallel
/// `threads`-core machine achieves. Wall gates at the usual 25%
/// threshold; the verdict columns above are exact.
fn run_conquer_cell(
    cell: &SuiteCell,
    width: u32,
    cube_vars: u32,
    threads: usize,
    runs: usize,
    opts: &SuiteOptions,
) -> BenchCell {
    struct Sample {
        wall: Duration,
        outcome: String,
        conflicts: u64,
        decisions: u64,
        propagations: u64,
        cnf_vars: u64,
        cnf_clauses: u64,
        snapshot: MetricsSnapshot,
    }

    let span = opts.ctx.tracer.span_with(
        "cell",
        [
            (
                "benchmark",
                satroute_obs::FieldValue::from(cell.instance.name.as_str()),
            ),
            (
                "strategy",
                satroute_obs::FieldValue::from(cell.strategy.to_string()),
            ),
            ("width", satroute_obs::FieldValue::from(width)),
            ("cube_vars", satroute_obs::FieldValue::from(cube_vars)),
            ("threads", satroute_obs::FieldValue::from(threads as u64)),
        ],
    );
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let registry = MetricsRegistry::new();
        // One thread for undistorted per-cube walls; the cell's worker
        // count enters through `ideal_wall_time` below.
        let result = cell
            .strategy
            .cube_and_conquer(&cell.instance.conflict_graph, width)
            .cube_vars(cube_vars)
            .threads(1)
            .context(cell_context(opts, &registry))
            .run();
        let outcome = match &result.outcome {
            satroute_core::ColoringOutcome::Colorable(_) => "sat".to_string(),
            satroute_core::ColoringOutcome::Unsat => {
                let per_cube: Vec<String> =
                    result.cube_conflicts().iter().map(u64::to_string).collect();
                format!(
                    "unsat cubes={} refuted={} cube_conflicts={}",
                    result.cubes.len(),
                    result.refuted_at_split,
                    per_cube.join(","),
                )
            }
            satroute_core::ColoringOutcome::Unknown(reason) => format!("unknown:{reason}"),
        };
        let (decisions, propagations) = result.cubes.iter().fold((0, 0), |acc, c| {
            let s = &c.report.solver_stats;
            (acc.0 + s.decisions, acc.1 + s.propagations)
        });
        samples.push(Sample {
            wall: result.ideal_wall_time(threads),
            outcome,
            conflicts: result.total_conflicts(),
            decisions,
            propagations,
            cnf_vars: u64::from(result.formula_stats.num_vars),
            cnf_clauses: result.formula_stats.num_clauses as u64,
            snapshot: registry.snapshot(),
        });
    }
    drop(span);

    // Median by wall time; ties keep the earlier run (deterministic).
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| samples[a].wall.cmp(&samples[b].wall).then(a.cmp(&b)));
    let median = &samples[order[order.len() / 2]];
    let walls: Vec<f64> = samples.iter().map(|s| s.wall.as_secs_f64()).collect();
    let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let max = walls.iter().copied().fold(0.0_f64, f64::max);
    let secs = median.wall.as_secs_f64();
    let histograms = median
        .snapshot
        .histograms()
        .map(|(name, h)| (name.to_string(), HistogramSummary::of(h)))
        .collect();

    BenchCell {
        id: cell_id(cell),
        benchmark: cell.instance.name.clone(),
        encoding: cell.strategy.encoding.name().to_string(),
        symmetry: cell.strategy.symmetry.name().to_string(),
        width,
        runs: runs as u64,
        wall_time_s: WallTime {
            median: secs,
            min,
            max,
        },
        conflicts: median.conflicts,
        decisions: median.decisions,
        propagations: median.propagations,
        props_per_sec: if secs > 0.0 {
            median.propagations as f64 / secs
        } else {
            0.0
        },
        cnf_vars: median.cnf_vars,
        cnf_clauses: median.cnf_clauses,
        outcome: median.outcome.clone(),
        histograms,
    }
}

/// Measures one explanation cell: net-grouped re-encode, initial
/// assumption core, deletion shrink to 1-minimality on one warm solver.
/// The whole path is single-threaded and seed-pinned, so the outcome
/// column (`core=<net ids> status=<shrink status> probes=N kept=K
/// dropped=D`) is exact and gates everywhere; the aggregate
/// conflict/decision/propagation columns are the warm solver's
/// cumulative counters across all probes.
fn run_explain_cell(cell: &SuiteCell, width: u32, runs: usize, opts: &SuiteOptions) -> BenchCell {
    struct Sample {
        wall: Duration,
        outcome: String,
        conflicts: u64,
        decisions: u64,
        propagations: u64,
        cnf_vars: u64,
        cnf_clauses: u64,
        snapshot: MetricsSnapshot,
    }

    let span = opts.ctx.tracer.span_with(
        "cell",
        [
            (
                "benchmark",
                satroute_obs::FieldValue::from(cell.instance.name.as_str()),
            ),
            (
                "strategy",
                satroute_obs::FieldValue::from(cell.strategy.to_string()),
            ),
            ("explain_width", satroute_obs::FieldValue::from(width)),
        ],
    );
    let groups: Vec<u32> = cell.instance.problem.subnets().map(|s| s.net.0).collect();
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let registry = MetricsRegistry::new();
        let start = Instant::now();
        let report = cell
            .strategy
            .explain(&cell.instance.conflict_graph, &groups, width)
            .context(cell_context(opts, &registry))
            .run();
        let wall = start.elapsed();
        let outcome = match &report.outcome {
            ExplainOutcome::Core(core) => {
                let nets: Vec<String> = core.groups.iter().map(u32::to_string).collect();
                format!(
                    "core={} status={} probes={} kept={} dropped={}",
                    nets.join(","),
                    core.status.name(),
                    report.probes,
                    report.kept,
                    report.dropped,
                )
            }
            ExplainOutcome::Colorable(_) => "sat".to_string(),
            ExplainOutcome::Unknown(reason) => format!("unknown:{reason}"),
        };
        samples.push(Sample {
            wall,
            outcome,
            conflicts: report.solver_stats.conflicts,
            decisions: report.solver_stats.decisions,
            propagations: report.solver_stats.propagations,
            cnf_vars: u64::from(report.formula_stats.num_vars),
            cnf_clauses: report.formula_stats.num_clauses as u64,
            snapshot: registry.snapshot(),
        });
    }
    drop(span);

    // Median by wall time; ties keep the earlier run (deterministic).
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| samples[a].wall.cmp(&samples[b].wall).then(a.cmp(&b)));
    let median = &samples[order[order.len() / 2]];
    let walls: Vec<f64> = samples.iter().map(|s| s.wall.as_secs_f64()).collect();
    let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let max = walls.iter().copied().fold(0.0_f64, f64::max);
    let secs = median.wall.as_secs_f64();
    let histograms = median
        .snapshot
        .histograms()
        .map(|(name, h)| (name.to_string(), HistogramSummary::of(h)))
        .collect();

    BenchCell {
        id: cell_id(cell),
        benchmark: cell.instance.name.clone(),
        encoding: cell.strategy.encoding.name().to_string(),
        // The explanation path always encodes symmetry-free (see
        // `cell_id`), whatever the strategy says.
        symmetry: "-".to_string(),
        width,
        runs: runs as u64,
        wall_time_s: WallTime {
            median: secs,
            min,
            max,
        },
        conflicts: median.conflicts,
        decisions: median.decisions,
        propagations: median.propagations,
        props_per_sec: if secs > 0.0 {
            median.propagations as f64 / secs
        } else {
            0.0
        },
        cnf_vars: median.cnf_vars,
        cnf_clauses: median.cnf_clauses,
        outcome: median.outcome.clone(),
        histograms,
    }
}

/// Measures one minimum-width ladder end to end: global routing,
/// encoding, and every width probe. The deterministic columns are ladder
/// *totals* — warm reads the cumulative counters of its single solver,
/// cold sums over its per-width solvers — and the outcome column records
/// the answer (`min_width=N`), so the gate catches a wrong minimum as
/// loudly as a slow one.
fn run_ladder_cell(cell: &SuiteCell, warm: bool, runs: usize, opts: &SuiteOptions) -> BenchCell {
    struct Sample {
        wall: Duration,
        outcome: String,
        width: u32,
        conflicts: u64,
        decisions: u64,
        propagations: u64,
        cnf_vars: u64,
        cnf_clauses: u64,
        snapshot: MetricsSnapshot,
    }

    let span = opts.ctx.tracer.span_with(
        "cell",
        [
            (
                "benchmark",
                satroute_obs::FieldValue::from(cell.instance.name.as_str()),
            ),
            (
                "strategy",
                satroute_obs::FieldValue::from(cell.strategy.to_string()),
            ),
            ("warm", satroute_obs::FieldValue::from(warm)),
        ],
    );
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let registry = MetricsRegistry::new();
        let pipeline = RoutingPipeline::new(cell.strategy).context(cell_context(opts, &registry));
        let start = Instant::now();
        let result = if warm {
            pipeline.find_min_width_incremental(&cell.instance.problem)
        } else {
            pipeline.find_min_width(&cell.instance.problem)
        };
        let wall = start.elapsed();
        let sample = match result {
            Ok(search) => {
                let (conflicts, decisions, propagations) = ladder_totals(&search, warm);
                let shape = search.probes.last().map(|p| &p.report.formula_stats);
                Sample {
                    wall,
                    outcome: format!("min_width={}", search.min_width),
                    width: search.min_width,
                    conflicts,
                    decisions,
                    propagations,
                    cnf_vars: shape.map_or(0, |s| u64::from(s.num_vars)),
                    cnf_clauses: shape.map_or(0, |s| s.num_clauses as u64),
                    snapshot: registry.snapshot(),
                }
            }
            Err(e) => Sample {
                wall,
                outcome: format!("unknown:{e}"),
                width: 0,
                conflicts: 0,
                decisions: 0,
                propagations: 0,
                cnf_vars: 0,
                cnf_clauses: 0,
                snapshot: registry.snapshot(),
            },
        };
        samples.push(sample);
    }
    drop(span);

    // Median by wall time; ties keep the earlier run (deterministic).
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| samples[a].wall.cmp(&samples[b].wall).then(a.cmp(&b)));
    let median = &samples[order[order.len() / 2]];
    let walls: Vec<f64> = samples.iter().map(|s| s.wall.as_secs_f64()).collect();
    let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let max = walls.iter().copied().fold(0.0_f64, f64::max);
    let secs = median.wall.as_secs_f64();
    let histograms = median
        .snapshot
        .histograms()
        .map(|(name, h)| (name.to_string(), HistogramSummary::of(h)))
        .collect();

    BenchCell {
        id: cell_id(cell),
        benchmark: cell.instance.name.clone(),
        encoding: cell.strategy.encoding.name().to_string(),
        symmetry: cell.strategy.symmetry.name().to_string(),
        width: median.width,
        runs: runs as u64,
        wall_time_s: WallTime {
            median: secs,
            min,
            max,
        },
        conflicts: median.conflicts,
        decisions: median.decisions,
        propagations: median.propagations,
        props_per_sec: if secs > 0.0 {
            median.propagations as f64 / secs
        } else {
            0.0
        },
        cnf_vars: median.cnf_vars,
        cnf_clauses: median.cnf_clauses,
        outcome: median.outcome.clone(),
        histograms,
    }
}

/// Ladder totals for the deterministic columns: the warm ladder's single
/// solver reports cumulative counters (its last probe *is* the total);
/// the cold ladder sums its independent per-width solvers.
fn ladder_totals(search: &WidthSearch, warm: bool) -> (u64, u64, u64) {
    if warm {
        search.probes.last().map_or((0, 0, 0), |p| {
            let s = &p.report.solver_stats;
            (s.conflicts, s.decisions, s.propagations)
        })
    } else {
        search.probes.iter().fold((0, 0, 0), |acc, p| {
            let s = &p.report.solver_stats;
            (
                acc.0 + s.conflicts,
                acc.1 + s.decisions,
                acc.2 + s.propagations,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_is_deterministic_across_repeat_runs() {
        let opts = SuiteOptions {
            runs: 1,
            ..SuiteOptions::default()
        };
        let a = run_suite(SuiteId::Quick, &opts, |_| {});
        let b = run_suite(SuiteId::Quick, &opts, |_| {});
        assert!(!a.cells.is_empty());
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.id, cb.id);
            assert_eq!(ca.conflicts, cb.conflicts, "{}", ca.id);
            assert_eq!(ca.propagations, cb.propagations, "{}", ca.id);
            assert_eq!(ca.cnf_vars, cb.cnf_vars, "{}", ca.id);
            assert_eq!(ca.cnf_clauses, cb.cnf_clauses, "{}", ca.id);
            assert_eq!(ca.outcome, cb.outcome, "{}", ca.id);
        }
    }

    #[test]
    fn filter_restricts_the_suite_to_matching_cells() {
        let opts = SuiteOptions {
            runs: 1,
            filter: Some("tiny_a/".to_string()),
            ..SuiteOptions::default()
        };
        let artifact = run_suite(SuiteId::Quick, &opts, |_| {});
        assert!(!artifact.cells.is_empty(), "tiny_a cells must match");
        assert!(artifact.cells.iter().all(|c| c.id.contains("tiny_a/")));

        let none = SuiteOptions {
            runs: 1,
            filter: Some("no-such-cell".to_string()),
            ..SuiteOptions::default()
        };
        assert!(run_suite(SuiteId::Quick, &none, |_| {}).cells.is_empty());
    }

    #[test]
    fn incremental_suite_agrees_and_saves_conflicts_somewhere() {
        let opts = SuiteOptions {
            runs: 1,
            ..SuiteOptions::default()
        };
        let artifact = run_suite(SuiteId::Incremental, &opts, |_| {});
        let warm_cells: Vec<_> = artifact
            .cells
            .iter()
            .filter(|c| c.id.ends_with("ladder-warm"))
            .collect();
        assert!(!warm_cells.is_empty());
        let mut strictly_lower = 0;
        for warm in warm_cells {
            let cold_id = warm.id.replace("ladder-warm", "ladder-cold");
            let cold = artifact
                .cells
                .iter()
                .find(|c| c.id == cold_id)
                .expect("every warm ladder has a cold twin");
            // Same answer (the outcome column carries `min_width=N`).
            assert!(warm.outcome.starts_with("min_width="), "{}", warm.outcome);
            assert_eq!(warm.outcome, cold.outcome, "{}", warm.id);
            if warm.conflicts < cold.conflicts {
                strictly_lower += 1;
            }
        }
        assert!(
            strictly_lower > 0,
            "warm ladders must beat cold on total conflicts somewhere"
        );
    }

    #[test]
    fn conquer_suite_is_deterministic_and_pairs_with_baselines() {
        let opts = SuiteOptions {
            runs: 1,
            ..SuiteOptions::default()
        };
        let a = run_suite(SuiteId::Conquer, &opts, |_| {});
        let b = run_suite(SuiteId::Conquer, &opts, |_| {});
        assert!(!a.cells.is_empty());
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.id, cb.id);
            // The conquer outcome column embeds the cube count and the
            // per-cube conflict sequence; identical strings across
            // repeat parallel runs is the determinism claim the CI gate
            // relies on.
            assert_eq!(ca.outcome, cb.outcome, "{}", ca.id);
            assert_eq!(ca.conflicts, cb.conflicts, "{}", ca.id);
        }
        for cell in a.cells.iter().filter(|c| c.id.contains("/cube")) {
            assert!(
                cell.outcome.starts_with("unsat cubes="),
                "{}: conquer cells pin unroutable widths, got `{}`",
                cell.id,
                cell.outcome
            );
            let baseline_id = cell.id.rsplit_once("/cube").expect("conquer id").0;
            let baseline = a
                .cells
                .iter()
                .find(|c| c.id == baseline_id)
                .expect("every conquer cell has a single-threaded twin");
            assert_eq!(baseline.outcome, "unsat", "{}", baseline.id);
            // The conquer cell records one conflict figure per cube.
            let cube_list = cell
                .outcome
                .rsplit_once("cube_conflicts=")
                .expect("outcome carries the per-cube sequence")
                .1;
            let cubes: u64 = cell
                .outcome
                .split_once("cubes=")
                .and_then(|(_, rest)| rest.split_whitespace().next())
                .and_then(|n| n.parse().ok())
                .expect("outcome carries the cube count");
            // An instance the lookahead refutes outright emits no cubes
            // and an empty conflict list; otherwise one figure per cube.
            let listed = if cube_list.is_empty() {
                0
            } else {
                cube_list.split(',').count() as u64
            };
            assert_eq!(listed, cubes, "{}", cell.id);
        }
    }

    #[test]
    fn explain_suite_is_deterministic_and_cores_are_minimal() {
        let opts = SuiteOptions {
            runs: 1,
            ..SuiteOptions::default()
        };
        let a = run_suite(SuiteId::Explain, &opts, |_| {});
        let b = run_suite(SuiteId::Explain, &opts, |_| {});
        assert!(!a.cells.is_empty());
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.id, cb.id);
            // The outcome column embeds the core's net ids and the probe
            // count; identical strings across repeat runs is the
            // determinism claim the CI gate relies on.
            assert_eq!(ca.outcome, cb.outcome, "{}", ca.id);
            assert_eq!(ca.conflicts, cb.conflicts, "{}", ca.id);
            assert_eq!(ca.cnf_vars, cb.cnf_vars, "{}", ca.id);
        }
        for cell in &a.cells {
            assert!(cell.id.contains("/explain-w"), "{}", cell.id);
            // The suite pins unroutable widths and runs unbudgeted, so
            // every cell must blame a non-empty 1-minimal core.
            assert!(
                cell.outcome.starts_with("core=") && cell.outcome.contains("status=minimal"),
                "{}: expected a minimal core, got `{}`",
                cell.id,
                cell.outcome
            );
            // Shrink probes do real solver work on these cells.
            assert!(cell.conflicts > 0, "{}", cell.id);
        }
    }

    #[test]
    fn inprocess_suite_twins_agree_and_counters_are_deterministic() {
        let opts = SuiteOptions {
            runs: 1,
            ..SuiteOptions::default()
        };
        let a = run_suite(SuiteId::Inprocess, &opts, |_| {});
        let b = run_suite(SuiteId::Inprocess, &opts, |_| {});
        assert!(!a.cells.is_empty());
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.id, cb.id);
            // The `inp-on` outcome embeds the pass counters; identical
            // strings across repeat runs is the determinism claim the
            // CI gate relies on.
            assert_eq!(ca.outcome, cb.outcome, "{}", ca.id);
            assert_eq!(ca.conflicts, cb.conflicts, "{}", ca.id);
        }
        let mut simplified_somewhere = false;
        for on in a.cells.iter().filter(|c| c.id.ends_with("/inp-on")) {
            assert!(
                on.outcome.contains(" viv=") && on.outcome.contains(" bve="),
                "{}: expected embedded counters, got `{}`",
                on.id,
                on.outcome
            );
            let off_id = on.id.replace("/inp-on", "/inp-off");
            let off = a
                .cells
                .iter()
                .find(|c| c.id == off_id)
                .expect("every inp-on cell has an inp-off twin");
            // Same verdict token: inprocessing must never flip an
            // answer.
            let verdict = on.outcome.split_whitespace().next().unwrap();
            assert_eq!(verdict, off.outcome, "{}", on.id);
            if !on.outcome.contains("viv=0 sub=0 bve=0") {
                simplified_somewhere = true;
            }
        }
        assert!(
            simplified_somewhere,
            "at least one inp-on cell must report non-zero pass counters"
        );
    }

    #[test]
    fn quick_suite_cells_carry_metrics_histograms() {
        let opts = SuiteOptions {
            runs: 1,
            ..SuiteOptions::default()
        };
        let artifact = run_suite(SuiteId::Quick, &opts, |_| {});
        // Every cell at an unroutable width hits conflicts, so the
        // solver.lbd histogram must be populated for at least one cell.
        assert!(artifact
            .cells
            .iter()
            .any(|c| c.histograms.get("solver.lbd").is_some_and(|h| h.count > 0)));
        // Phase wall-time histograms are recorded for every cell.
        for cell in &artifact.cells {
            assert!(
                cell.histograms.contains_key("phase.sat_solving_us"),
                "{} lacks phase.sat_solving_us",
                cell.id
            );
        }
    }
}
