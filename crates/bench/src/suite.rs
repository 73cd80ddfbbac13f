//! Pinned benchmark suites for `satroute bench run`.
//!
//! A suite is a fixed list of cells — a benchmark instance, a strategy
//! and a `CellKind` saying what one run does — whose instances are
//! generated from constant seeds, so the deterministic columns of the
//! resulting [`BenchArtifact`] (conflicts, decisions, propagations, CNF
//! shape, outcome) are bit-identical across machines for a given
//! toolchain: those columns gate exactly, and wall time is reported (see
//! [`crate::compare`](mod@crate::compare)). Each fact comes from one
//! cell: no cell re-measures what another cell of any suite holds.
//! One driver measures every cell: each kind only says how one run
//! yields a `Sample`.

use std::rc::Rc;
use std::time::{Duration, Instant};

use satroute_cnf::FormulaStats;
use satroute_coloring::greedy_coloring_with_order;
use satroute_core::{
    encode, run_portfolio, Encoding, EncodingId, ExplainOutcome, IteTree, PortfolioOptions,
    RoutingPipeline, Selectors, SimpleScheme, Strategy, SymmetryHeuristic,
};
use satroute_fpga::benchmarks::{self, BenchmarkInstance};
use satroute_obs::{FieldValue, MetricsRegistry, MetricsSnapshot};
use satroute_solver::{InprocessConfig, RunBudget, RunContext, SolverStats};

use crate::artifact::{BenchArtifact, BenchCell, EnvFingerprint, HistogramSummary, WallTime};

/// Which pinned suite to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteId {
    /// The three `tiny_*` instances × two strategies × both calibrated
    /// widths — seconds of wall time; the CI regression gate.
    Quick,
    /// Table 2 of the paper: its 15 strategies (muldirect/- first, the
    /// speedup baseline) × the 8 circuits at the unroutable width.
    /// Cells record the solver's wall time; CNF translation is in the
    /// `phase.cnf_translation_us` histogram.
    Paper,
    /// The paper's §6 routable configurations: all 45 strategies (15
    /// encodings × {-, b1, s1}, muldirect/- first) × the 8 circuits at
    /// the routable width.
    Routable,
    /// Clause sharing (§6) on the 8 circuits at the routable width: four
    /// diversified muldirect/s1 members race on four threads with
    /// learnt-clause sharing off and on; the outcome adds the
    /// exported/imported clause counts. The twins depend on thread
    /// scheduling, so this suite is a smoke test, not a gate. The paper's
    /// 2- and 3-strategy portfolios need no cells of their own: on an idle
    /// multicore a portfolio answers at its fastest member's time, and
    /// [`SuiteId::Paper`] solves every member alone.
    Portfolio,
    /// Full minimum-width ladders on the `tiny_*` instances, warm
    /// (assumption-based, one solver) versus cold (re-encode per width),
    /// for both reference strategies. Cells record *total ladder*
    /// conflicts and the found minimum width in the outcome column, so
    /// the gate catches both performance and answer regressions of the
    /// incremental path.
    Incremental,
    /// Core-minimizing explanation runs on the unroutable `tiny_*`
    /// cells: one warm solver per cell extracts and shrinks a net-level
    /// UNSAT core to 1-minimality. The outcome column records the core's
    /// net ids, shrink status and probe counts — all deterministic — so
    /// the gate catches a changed core or a degenerated shrink loop as
    /// loudly as a slowdown.
    Explain,
    /// The quick-suite cells — plus the hard `k2` paper cell — with
    /// in-search inprocessing (vivification, subsumption, bounded
    /// variable elimination) enabled, as `inp-on` cells. Each embeds the
    /// simplification counters in the outcome column (`... viv=L sub=C
    /// bve=V`) — all deterministic, since pass budgets tick on clause
    /// lengths rather than time — so the gate catches a pass that
    /// silently stops firing as loudly as a changed search. The stock
    /// configuration's cell with the same id prefix is in
    /// [`SuiteId::Quick`] or [`SuiteId::Paper`].
    Inprocess,
    /// The ablations of the paper's premises, one cell per measured row.
    /// A1 (formula sizes): every encoding with s1 on `alu2` at the
    /// unroutable width, whose literal counts are the
    /// `encode.literals.<encoding>` histograms. A3 (greedy router vs SAT):
    /// the cold paper-best ladder per paper circuit, whose outcome adds
    /// the widths a one-net-at-a-time greedy router needs in three net
    /// orders. A6 (ITE tree shapes, §3): `k2` at the unroutable width
    /// with s1, the linear chain and the balanced tree as the catalog's
    /// ITE-linear and ITE-log cells, and five seeded random shapes whose
    /// outcome adds the tree depth.
    Ablation,
}

impl SuiteId {
    /// Every suite, in `--suite` listing order.
    const ALL: [SuiteId; 8] = [
        SuiteId::Quick,
        SuiteId::Paper,
        SuiteId::Routable,
        SuiteId::Portfolio,
        SuiteId::Incremental,
        SuiteId::Explain,
        SuiteId::Inprocess,
        SuiteId::Ablation,
    ];

    /// The suite's artifact name, which is also its `--suite` value.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SuiteId::Quick => "quick",
            SuiteId::Paper => "paper",
            SuiteId::Routable => "routable",
            SuiteId::Portfolio => "portfolio",
            SuiteId::Incremental => "incremental",
            SuiteId::Explain => "explain",
            SuiteId::Inprocess => "inprocess",
            SuiteId::Ablation => "ablation",
        }
    }
}

impl std::str::FromStr for SuiteId {
    type Err = String;

    fn from_str(s: &str) -> Result<SuiteId, String> {
        SuiteId::ALL
            .into_iter()
            .find(|suite| suite.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = SuiteId::ALL.iter().map(|suite| suite.name()).collect();
                format!("unknown suite `{s}` (try: {})", names.join(", "))
            })
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
    /// beneath it, and every solve's search-state samples on its `solve`
    /// span; sampling only reads solver state, so the deterministic
    /// columns are identical with tracing on or off. Each run replaces
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

/// Members (and threads) of the portfolio suite's clause-sharing twins.
const SHARING_MEMBERS: usize = 4;

/// What one run of a suite cell does.
#[derive(Clone, Copy)]
enum CellKind {
    /// One solve at a fixed channel width. `inprocess` enables in-search
    /// inprocessing and appends the pass counters to the outcome.
    Solve { width: u32, inprocess: bool },
    /// A whole minimum-width ladder; `warm` selects the assumption-based
    /// incremental search over the re-encode-per-width baseline, and
    /// `greedy` adds the greedy router's widths to the outcome.
    Ladder { warm: bool, greedy: bool },
    /// One explanation run at a fixed (unroutable) width: net-grouped
    /// selector encoding, initial core, deletion shrink to 1-minimality
    /// on one warm solver.
    Explain { width: u32 },
    /// [`SHARING_MEMBERS`] diversified copies of the cell strategy racing
    /// on as many threads, with learnt-clause sharing on or off.
    Sharing { width: u32, share: bool },
    /// One solve at a fixed width encoded with the random ITE tree shape
    /// of `seed` ([`SimpleScheme::IteRandom`]) under the cell strategy's
    /// symmetry heuristic; the strategy's encoding is not used.
    Shape { width: u32, seed: u64 },
}

impl CellKind {
    /// The pinned channel width, or `None` for a ladder.
    fn width(self) -> Option<u32> {
        match self {
            CellKind::Solve { width, .. }
            | CellKind::Explain { width }
            | CellKind::Sharing { width, .. }
            | CellKind::Shape { width, .. } => Some(width),
            CellKind::Ladder { .. } => None,
        }
    }
}

/// One entry of a suite's work list.
struct SuiteCell {
    instance: Rc<BenchmarkInstance>,
    strategy: Strategy,
    kind: CellKind,
}

/// What one run of a cell yields; the driver keeps the median-wall run.
struct Sample {
    wall: Duration,
    width: u32,
    outcome: String,
    stats: SolverStats,
    cnf: FormulaStats,
}

/// Every instance × strategy × kind, in that nesting order, skipping
/// kinds pinned at width 0 (an instance without conflicts).
fn cross(
    instances: Vec<BenchmarkInstance>,
    strategies: &[Strategy],
    kinds: impl Fn(&BenchmarkInstance) -> Vec<CellKind>,
) -> Vec<SuiteCell> {
    let mut cells = Vec::new();
    for instance in instances.into_iter().map(Rc::new) {
        for &strategy in strategies {
            for kind in kinds(&instance) {
                if kind.width() != Some(0) {
                    cells.push(SuiteCell {
                        instance: Rc::clone(&instance),
                        strategy,
                        kind,
                    });
                }
            }
        }
    }
    cells
}

/// Table 2's columns: muldirect with {-, b1, s1}, then the six best new
/// encodings with {b1, s1}.
fn table2_strategies() -> Vec<Strategy> {
    use EncodingId::*;
    use SymmetryHeuristic::{B1, S1};
    let mut strategies = vec![Strategy::paper_baseline()];
    strategies.extend(
        [
            Muldirect,
            IteLinear,
            IteLog,
            IteLinear2Direct,
            IteLinear2Muldirect,
            Muldirect3Muldirect,
            Direct3Muldirect,
        ]
        .into_iter()
        .flat_map(|encoding| [Strategy::new(encoding, B1), Strategy::new(encoding, S1)]),
    );
    strategies
}

/// All 45 strategies, the paper baseline first.
fn all_strategies() -> Vec<Strategy> {
    let baseline = Strategy::paper_baseline();
    let others = EncodingId::ALL.into_iter().flat_map(|encoding| {
        SymmetryHeuristic::ALL
            .into_iter()
            .map(move |symmetry| Strategy::new(encoding, symmetry))
    });
    std::iter::once(baseline)
        .chain(others.filter(|s| *s != baseline))
        .collect()
}

/// The instances called one of `names`.
fn named(instances: Vec<BenchmarkInstance>, names: &[&str]) -> Vec<BenchmarkInstance> {
    instances
        .into_iter()
        .filter(|i| names.contains(&i.name.as_str()))
        .collect()
}

/// The suite's cells, in run order.
fn suite_cells(suite: SuiteId) -> Vec<SuiteCell> {
    let reference = [Strategy::paper_best(), Strategy::paper_baseline()];
    let solve = |width| CellKind::Solve {
        width,
        inprocess: false,
    };
    let both_widths = |i: &BenchmarkInstance| [i.routable_width, i.unroutable_width];
    match suite {
        SuiteId::Quick => cross(benchmarks::suite_tiny(), &reference, |i| {
            both_widths(i).map(solve).to_vec()
        }),
        SuiteId::Paper => cross(benchmarks::suite_paper(), &table2_strategies(), |i| {
            vec![solve(i.unroutable_width)]
        }),
        SuiteId::Routable => cross(benchmarks::suite_paper(), &all_strategies(), |i| {
            vec![solve(i.routable_width)]
        }),
        SuiteId::Portfolio => {
            let muldirect = Strategy::new(EncodingId::Muldirect, SymmetryHeuristic::S1);
            cross(benchmarks::suite_paper(), &[muldirect], |i| {
                [false, true]
                    .map(|share| CellKind::Sharing {
                        width: i.routable_width,
                        share,
                    })
                    .to_vec()
            })
        }
        SuiteId::Incremental => cross(benchmarks::suite_tiny(), &reference, |_| {
            [true, false]
                .map(|warm| CellKind::Ladder {
                    warm,
                    greedy: false,
                })
                .to_vec()
        }),
        // The shrink loop runs unbudgeted on these sub-second instances,
        // so every core is 1-minimal and the outcome column is exact.
        SuiteId::Explain => cross(benchmarks::suite_tiny(), &reference, |i| {
            vec![CellKind::Explain {
                width: i.unroutable_width,
            }]
        }),
        // The quick grid plus the hard `k2` cell at its unroutable width.
        // Each solves the same CNF as its stock twin in `quick` or `paper`
        // with inprocessing on, so a verdict divergence is a soundness
        // bug, not noise.
        SuiteId::Inprocess => {
            let inprocess = |width| CellKind::Solve {
                width,
                inprocess: true,
            };
            let mut cells = cross(benchmarks::suite_tiny(), &reference, |i| {
                both_widths(i).map(inprocess).to_vec()
            });
            cells.extend(cross(
                named(benchmarks::suite_paper(), &["k2"]),
                &reference,
                |i| vec![inprocess(i.unroutable_width)],
            ));
            cells
        }
        SuiteId::Ablation => {
            let paper = benchmarks::suite_paper();
            let s1 = |encoding| Strategy::new(encoding, SymmetryHeuristic::S1);
            let unroutable = |i: &BenchmarkInstance| vec![solve(i.unroutable_width)];
            let sizes: Vec<Strategy> = EncodingId::ALL.into_iter().map(s1).collect();
            let mut cells = cross(named(paper.clone(), &["alu2"]), &sizes, unroutable);
            let cold = CellKind::Ladder {
                warm: false,
                greedy: true,
            };
            cells.extend(cross(paper.clone(), &[Strategy::paper_best()], |_| {
                vec![cold]
            }));
            let k2 = named(paper, &["k2"]);
            let trees = [s1(EncodingId::IteLinear), s1(EncodingId::IteLog)];
            cells.extend(cross(k2.clone(), &trees, unroutable));
            cells.extend(cross(k2, &trees[..1], |i| {
                (0..5)
                    .map(|seed| CellKind::Shape {
                        width: i.unroutable_width,
                        seed,
                    })
                    .collect()
            }));
            cells
        }
    }
}

/// Runs `suite` and assembles the artifact. `progress` receives one line
/// per completed cell (pass `|_| {}` to silence).
pub fn run_suite(
    suite: SuiteId,
    opts: &SuiteOptions,
    mut progress: impl FnMut(&str),
) -> BenchArtifact {
    let mut cells = suite_cells(suite);
    if let Some(needle) = &opts.filter {
        cells.retain(|cell| cell.id().contains(needle.as_str()));
    }
    let runs = opts.runs.max(1);
    let mut measured = Vec::with_capacity(cells.len());
    for cell in &cells {
        let bench_cell = run_cell(cell, runs, opts);
        progress(&format!(
            "{:<56} {:>8.2}s  {:>9} conflicts  {}",
            bench_cell.id, bench_cell.wall_time_s.median, bench_cell.conflicts, bench_cell.outcome,
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

/// Measures one cell: `runs` repeats under one `cell` span, each with a
/// fresh metrics registry; the deterministic columns and histograms come
/// from the run with the median wall time.
fn run_cell(cell: &SuiteCell, runs: usize, opts: &SuiteOptions) -> BenchCell {
    let id = cell.id();
    let span = opts.ctx.tracer.span_with(
        "cell",
        [
            ("id", FieldValue::from(id.as_str())),
            ("benchmark", FieldValue::from(cell.instance.name.as_str())),
            (
                "strategy",
                FieldValue::from(format!("{}/{}", cell.encoding(), cell.strategy.symmetry)),
            ),
        ],
    );
    let samples: Vec<(Sample, MetricsSnapshot)> = (0..runs)
        .map(|_| {
            let registry = MetricsRegistry::new();
            let ctx = RunContext {
                metrics: registry.clone(),
                ..opts.ctx.clone()
            };
            (cell.measure(ctx), registry.snapshot())
        })
        .collect();
    drop(span);

    // Median by wall time; the stable sort keeps the earlier of tied runs.
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by_key(|&i| samples[i].0.wall);
    let (median, snapshot) = &samples[order[order.len() / 2]];
    let walls = samples.iter().map(|(s, _)| s.wall.as_secs_f64());
    let secs = median.wall.as_secs_f64();

    BenchCell {
        id,
        benchmark: cell.instance.name.clone(),
        encoding: cell.encoding().name(),
        symmetry: cell.symmetry().to_string(),
        width: median.width,
        runs: runs as u64,
        wall_time_s: WallTime {
            median: secs,
            min: walls.clone().fold(f64::INFINITY, f64::min),
            max: walls.fold(0.0, f64::max),
        },
        conflicts: median.stats.conflicts,
        decisions: median.stats.decisions,
        propagations: median.stats.propagations,
        props_per_sec: if secs > 0.0 {
            median.stats.propagations as f64 / secs
        } else {
            0.0
        },
        cnf_vars: u64::from(median.cnf.num_vars),
        cnf_clauses: median.cnf.num_clauses as u64,
        outcome: median.outcome.clone(),
        histograms: snapshot
            .histograms()
            .map(|(name, h)| (name.to_string(), HistogramSummary::of(h)))
            .collect(),
    }
}

impl SuiteCell {
    /// The artifact id: `benchmark/encoding/symmetry/wN`, plus a final
    /// segment naming the cell kind (`inp-on`, `div4-share-on`,
    /// `seed-N`, ...) so twins never collide. Ladder
    /// cells sweep widths, so `ladder-warm` / `ladder-cold` (with
    /// `-vs-greedy` when the outcome adds the greedy widths) replaces
    /// `wN`; explain cells end in `explain-wN` under a `-` symmetry
    /// segment.
    fn id(&self) -> String {
        let name = &self.instance.name;
        let encoding = self.encoding().name();
        let symmetry = self.symmetry();
        let plain = |width| BenchCell::make_id(name, &encoding, symmetry, width);
        match self.kind {
            CellKind::Solve {
                width,
                inprocess: false,
            } => plain(width),
            CellKind::Solve {
                width,
                inprocess: true,
            } => format!("{}/inp-on", plain(width)),
            CellKind::Ladder { warm, greedy } => format!(
                "{name}/{encoding}/{symmetry}/ladder-{}{}",
                if warm { "warm" } else { "cold" },
                if greedy { "-vs-greedy" } else { "" }
            ),
            CellKind::Explain { width } => format!("{name}/{encoding}/-/explain-w{width}"),
            CellKind::Sharing { width, share } => format!(
                "{}/div{SHARING_MEMBERS}-share-{}",
                plain(width),
                if share { "on" } else { "off" }
            ),
            CellKind::Shape { width, seed } => format!("{}/seed-{seed}", plain(width)),
        }
    }

    /// The encoding the cell encodes with: the strategy's, or a shape
    /// cell's random ITE tree.
    fn encoding(&self) -> Encoding {
        match self.kind {
            CellKind::Shape { seed, .. } => Encoding::Simple(SimpleScheme::IteRandom(seed)),
            _ => self.strategy.encoding.encoding(),
        }
    }

    /// The symmetry the cell actually encodes with: deleting nets from a
    /// symmetry-broken formula is unsound, so explanation always encodes
    /// symmetry-free, whatever the strategy says.
    fn symmetry(&self) -> &'static str {
        match self.kind {
            CellKind::Explain { .. } => "-",
            _ => self.strategy.symmetry.name(),
        }
    }

    /// One run of the cell under `ctx`.
    fn measure(&self, mut ctx: RunContext) -> Sample {
        let graph = &self.instance.conflict_graph;
        match self.kind {
            // The solver's own wall time, without encode and decode.
            CellKind::Solve { width, inprocess } => {
                if inprocess {
                    ctx.config.inprocess = InprocessConfig::on();
                }
                let report = self.strategy.solve(graph, width).context(ctx).run();
                let mut outcome = report.outcome.verdict().to_string();
                // Pass budgets tick on clause lengths, never on time, and
                // candidate orders are fixed, so the counters are
                // deterministic and the gate checks them verbatim.
                if inprocess {
                    let s = &report.solver_stats;
                    outcome = format!(
                        "{outcome} viv={} sub={} bve={}",
                        s.vivified_literals, s.subsumed_clauses, s.eliminated_vars,
                    );
                }
                Sample {
                    wall: report.solve_time,
                    width,
                    outcome,
                    stats: report.solver_stats,
                    cnf: report.formula_stats,
                }
            }
            // Global routing, encoding and every probe. Warm ladders read
            // their one solver's cumulative counters, cold ladders sum
            // their per-width solvers; the outcome pins the answer.
            CellKind::Ladder { warm, greedy } => {
                let pipeline = RoutingPipeline::new(self.strategy).context(ctx);
                let start = Instant::now();
                let result = if warm {
                    pipeline.find_min_width_incremental(&self.instance.problem)
                } else {
                    pipeline.find_min_width(&self.instance.problem)
                };
                let wall = start.elapsed();
                match result {
                    Ok(search) => {
                        let reports = search.probes.iter().map(|p| &p.report);
                        let last = search.probes.last().map(|p| &p.report);
                        let mut outcome = format!("min_width={}", search.min_width);
                        if greedy {
                            let [id, degree, reverse] = greedy_widths(&self.instance);
                            outcome = format!("{outcome} greedy={id},{degree},{reverse}");
                        }
                        Sample {
                            wall,
                            width: search.min_width,
                            outcome,
                            stats: if warm {
                                last.map(|r| r.solver_stats).unwrap_or_default()
                            } else {
                                summed(reports.map(|r| &r.solver_stats))
                            },
                            cnf: last.map(|r| r.formula_stats).unwrap_or_default(),
                        }
                    }
                    Err(e) => Sample {
                        wall,
                        width: 0,
                        outcome: format!("unknown:{e}"),
                        stats: SolverStats::default(),
                        cnf: FormulaStats::default(),
                    },
                }
            }
            // Single-threaded and seed-pinned: the outcome (core net ids,
            // shrink status, probe counts) is exact; the counters are the
            // warm solver's totals across all probes.
            CellKind::Explain { width } => {
                let groups: Vec<u32> = self.instance.problem.subnets().map(|s| s.net.0).collect();
                let start = Instant::now();
                let report = self
                    .strategy
                    .explain(graph, &groups, width)
                    .context(ctx)
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
                Sample {
                    wall,
                    width,
                    outcome,
                    stats: report.solver_stats,
                    cnf: report.formula_stats,
                }
            }
            CellKind::Sharing { width, share } => {
                let members = Strategy::diversified(self.strategy, SHARING_MEMBERS);
                let options = PortfolioOptions::new()
                    .with_max_threads(SHARING_MEMBERS)
                    .with_sharing(share);
                let result = run_portfolio(graph, width, &members, &ctx, &options);
                let outcome = match result.winner {
                    Some(i) => format!(
                        "{} winner={i} exported={} imported={}",
                        result.members[i].report.outcome.verdict(),
                        result.total_exported(),
                        result.total_imported(),
                    ),
                    None => result.members[0].report.outcome.verdict().to_string(),
                };
                Sample {
                    wall: result.wall_time,
                    width,
                    outcome,
                    stats: summed(result.members.iter().map(|m| &m.report.solver_stats)),
                    cnf: result.members[0].report.formula_stats,
                }
            }
            // The `satroute solve` path: the encoded CNF into a solver from
            // the run context; the wall is the solve alone.
            CellKind::Shape { width, seed } => {
                let (encoding, symmetry) = (self.encoding(), self.strategy.symmetry);
                let encoded = encode(
                    graph,
                    width,
                    &encoding,
                    symmetry,
                    Selectors::None,
                    &ctx.tracer,
                    &ctx.metrics,
                );
                let strategy = FieldValue::from(format!("{encoding}/{symmetry}"));
                let span = ctx.tracer.span_with("solve", [("strategy", strategy)]);
                let mut solver = ctx.solver(span.id());
                solver.add_formula(&encoded.formula);
                let start = Instant::now();
                let verdict = solver.solve().verdict();
                let wall = start.elapsed();
                let depth = IteTree::random_shape(width, seed).depth();
                Sample {
                    wall,
                    width,
                    outcome: format!("{verdict} depth={depth}"),
                    stats: *solver.stats(),
                    cnf: encoded.stats,
                }
            }
        }
    }
}

/// The smallest widths at which a one-net-at-a-time greedy router (first
/// fit, never revisiting a net) routes `instance`, with the nets in id,
/// descending-degree and reverse-id order.
fn greedy_widths(instance: &BenchmarkInstance) -> [usize; 3] {
    let g = &instance.conflict_graph;
    let id: Vec<u32> = (0..g.num_vertices() as u32).collect();
    let mut degree = id.clone();
    degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let reverse: Vec<u32> = id.iter().rev().copied().collect();
    [id, degree, reverse].map(|order| greedy_coloring_with_order(g, &order).num_colors())
}

/// The conflict, decision and propagation totals of several solvers.
fn summed<'a>(stats: impl Iterator<Item = &'a SolverStats>) -> SolverStats {
    stats.fold(SolverStats::default(), |acc, s| SolverStats {
        conflicts: acc.conflicts + s.conflicts,
        decisions: acc.decisions + s.decisions,
        propagations: acc.propagations + s.propagations,
        ..acc
    })
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
        let cells = suite_cells(SuiteId::Inprocess);
        assert!(!a.cells.is_empty());
        assert_eq!(a.cells.len(), cells.len());
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
        for (cell, on) in cells.iter().zip(&a.cells) {
            assert_eq!(cell.id(), on.id);
            assert!(
                on.id.ends_with("/inp-on")
                    && on.outcome.contains(" viv=")
                    && on.outcome.contains(" bve="),
                "{}: expected embedded counters, got `{}`",
                on.id,
                on.outcome
            );
            // The stock solve of the same instance, strategy and width
            // must reach the same verdict: inprocessing never flips an
            // answer.
            let width = cell.kind.width().expect("a fixed-width solve");
            let plain = cell
                .strategy
                .solve(&cell.instance.conflict_graph, width)
                .run();
            let verdict = on.outcome.split_whitespace().next().unwrap();
            assert_eq!(verdict, plain.outcome.verdict().to_string(), "{}", on.id);
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

    #[test]
    fn paper_tables_pin_their_grids() {
        let circuits = [
            "alu2",
            "too_large",
            "alu4",
            "C880",
            "apex7",
            "C1355",
            "vda",
            "k2",
        ];
        // Table 2's columns, in the paper's order, baseline first.
        let table2 = [
            "muldirect/-",
            "muldirect/b1",
            "muldirect/s1",
            "ITE-linear/b1",
            "ITE-linear/s1",
            "ITE-log/b1",
            "ITE-log/s1",
            "ITE-linear-2+direct/b1",
            "ITE-linear-2+direct/s1",
            "ITE-linear-2+muldirect/b1",
            "ITE-linear-2+muldirect/s1",
            "muldirect-3+muldirect/b1",
            "muldirect-3+muldirect/s1",
            "direct-3+muldirect/b1",
            "direct-3+muldirect/s1",
        ];
        let paper = suite_cells(SuiteId::Paper);
        let ids: Vec<String> = paper.iter().map(SuiteCell::id).collect();
        let mut expected = Vec::new();
        for (circuit, row) in circuits.iter().zip(paper.chunks(table2.len())) {
            let width = row[0].instance.unroutable_width;
            assert!(width > 0, "{circuit}");
            for strategy in table2 {
                expected.push(format!("{circuit}/{strategy}/w{width}"));
            }
        }
        assert_eq!(ids, expected);
        // The 16 cells of the former two-strategy `paper` suite survive
        // with their ids.
        for instance in benchmarks::suite_paper() {
            for strategy in [Strategy::paper_best(), Strategy::paper_baseline()] {
                let id = BenchCell::make_id(
                    &instance.name,
                    strategy.encoding.name(),
                    strategy.symmetry.name(),
                    instance.unroutable_width,
                );
                assert!(ids.contains(&id), "{id}");
            }
        }

        // Routable: every strategy once per circuit, at the routable width.
        let routable = suite_cells(SuiteId::Routable);
        assert_eq!(routable.len(), 45 * circuits.len());
        let mut strategies: Vec<String> = routable[..45]
            .iter()
            .map(|c| c.strategy.to_string())
            .collect();
        assert_eq!(strategies[0], "muldirect/-");
        strategies.sort();
        strategies.dedup();
        assert_eq!(strategies.len(), 45);
        for cell in &routable {
            assert_eq!(cell.kind.width(), Some(cell.instance.routable_width));
        }
    }

    #[test]
    fn ablation_suite_pins_its_cells_and_is_deterministic() {
        // A1: every encoding on alu2; A3: one cold ladder per paper
        // circuit; A6: the catalog's two trees and five random shapes.
        let ids: Vec<String> = suite_cells(SuiteId::Ablation)
            .iter()
            .map(SuiteCell::id)
            .collect();
        let mut expected: Vec<String> = EncodingId::ALL
            .iter()
            .map(|e| format!("alu2/{e}/s1/w4"))
            .collect();
        let best = Strategy::paper_best();
        for instance in benchmarks::suite_paper() {
            expected.push(format!("{}/{best}/ladder-cold-vs-greedy", instance.name));
        }
        expected.extend(["k2/ITE-linear/s1/w6".into(), "k2/ITE-log/s1/w6".into()]);
        expected.extend((0..5).map(|seed| format!("k2/ITE-random/s1/w6/seed-{seed}")));
        assert_eq!(ids.len(), 30);
        assert_eq!(ids, expected);

        let opts = SuiteOptions {
            runs: 1,
            filter: Some("alu2/".to_string()),
            ..SuiteOptions::default()
        };
        let a = run_suite(SuiteId::Ablation, &opts, |_| {});
        let b = run_suite(SuiteId::Ablation, &opts, |_| {});
        assert_eq!(a.cells.len(), 16);
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.id, cb.id);
            assert_eq!(ca.conflicts, cb.conflicts, "{}", ca.id);
            assert_eq!(ca.decisions, cb.decisions, "{}", ca.id);
            assert_eq!(ca.propagations, cb.propagations, "{}", ca.id);
            assert_eq!(ca.cnf_vars, cb.cnf_vars, "{}", ca.id);
            assert_eq!(ca.cnf_clauses, cb.cnf_clauses, "{}", ca.id);
            assert_eq!(ca.outcome, cb.outcome, "{}", ca.id);
        }
        // `min_width=N greedy=I,D,R`: the greedy router's widths in id,
        // degree and reverse order never beat the certified optimum.
        let ladder = &a.cells[15];
        let (min, greedy) = ladder
            .outcome
            .strip_prefix("min_width=")
            .and_then(|rest| rest.split_once(" greedy="))
            .unwrap_or_else(|| panic!("{}: `{}`", ladder.id, ladder.outcome));
        let min: usize = min.parse().unwrap();
        let greedy: Vec<usize> = greedy.split(',').map(|w| w.parse().unwrap()).collect();
        assert_eq!(greedy.len(), 3, "{}", ladder.outcome);
        assert!(greedy.iter().all(|&w| w >= min), "{}", ladder.outcome);
    }
}
