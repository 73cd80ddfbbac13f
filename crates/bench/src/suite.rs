//! Pinned benchmark suites for `satroute bench run`.
//!
//! A suite is a fixed list of cells — a benchmark instance, a strategy
//! and a `CellKind` saying what one run does — whose instances are
//! generated from constant seeds, so the deterministic columns of the
//! resulting [`BenchArtifact`] (conflicts, decisions, propagations, CNF
//! shape, outcome) are bit-identical across machines for a given
//! toolchain — those columns gate regressions anywhere, while wall time
//! gates only between matching environments (see
//! [`crate::compare`](mod@crate::compare)).
//! One driver measures every cell: each kind only says how one run
//! yields a `Sample`.

use std::rc::Rc;
use std::time::{Duration, Instant};

use satroute_cnf::FormulaStats;
use satroute_core::{
    run_portfolio, simulate_portfolio, EncodingId, ExplainOutcome, PortfolioOptions,
    RoutingPipeline, Strategy, SymmetryHeuristic,
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
    /// The paper's §6 portfolios on the 8 circuits. At the unroutable
    /// width, `portfolio-N` cells simulate the first 1, 2 and 3 members
    /// of the paper's portfolio (each member runs sequentially; the wall
    /// is the fastest decided member's, so all three columns are timed
    /// the same way); the outcome names the winner. At the routable
    /// width, four diversified muldirect/s1 members race on four threads
    /// with learnt-clause sharing off and on; the outcome adds the
    /// exported/imported clause counts. The threaded twins depend on
    /// scheduling, so this suite is a smoke test, not a gate.
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
    /// Every suite, in `--suite` listing order.
    const ALL: [SuiteId; 7] = [
        SuiteId::Quick,
        SuiteId::Paper,
        SuiteId::Routable,
        SuiteId::Portfolio,
        SuiteId::Incremental,
        SuiteId::Explain,
        SuiteId::Inprocess,
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
    /// One solve at a fixed channel width. `inprocess: Some(on)` marks an
    /// inprocessing twin: `on` enables in-search inprocessing, and the
    /// `on` outcome appends the pass counters.
    Solve { width: u32, inprocess: Option<bool> },
    /// A whole minimum-width ladder; `warm` selects the assumption-based
    /// incremental search over the re-encode-per-width baseline.
    Ladder { warm: bool },
    /// One explanation run at a fixed (unroutable) width: net-grouped
    /// selector encoding, initial core, deletion shrink to 1-minimality
    /// on one warm solver.
    Explain { width: u32 },
    /// A simulated portfolio of the first `members` strategies of
    /// [`Strategy::paper_portfolio_3`], whose lead is the cell strategy.
    Portfolio { width: u32, members: usize },
    /// [`SHARING_MEMBERS`] diversified copies of the cell strategy racing
    /// on as many threads, with learnt-clause sharing on or off.
    Sharing { width: u32, share: bool },
}

impl CellKind {
    /// The pinned channel width, or `None` for a ladder.
    fn width(self) -> Option<u32> {
        match self {
            CellKind::Solve { width, .. }
            | CellKind::Explain { width }
            | CellKind::Portfolio { width, .. }
            | CellKind::Sharing { width, .. } => Some(width),
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
        inprocess: None,
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
            let instances = benchmarks::suite_paper();
            let mut cells = cross(instances.clone(), &[Strategy::paper_best()], |i| {
                (1..=3)
                    .map(|members| CellKind::Portfolio {
                        width: i.unroutable_width,
                        members,
                    })
                    .collect()
            });
            let muldirect = Strategy::new(EncodingId::Muldirect, SymmetryHeuristic::S1);
            cells.extend(cross(instances, &[muldirect], |i| {
                [false, true]
                    .map(|share| CellKind::Sharing {
                        width: i.routable_width,
                        share,
                    })
                    .to_vec()
            }));
            cells
        }
        SuiteId::Incremental => cross(benchmarks::suite_tiny(), &reference, |_| {
            vec![
                CellKind::Ladder { warm: true },
                CellKind::Ladder { warm: false },
            ]
        }),
        // The shrink loop runs unbudgeted on these sub-second instances,
        // so every core is 1-minimal and the outcome column is exact.
        SuiteId::Explain => cross(benchmarks::suite_tiny(), &reference, |i| {
            vec![CellKind::Explain {
                width: i.unroutable_width,
            }]
        }),
        // The quick grid as on/off twins plus the hard `k2` cell at its
        // unroutable width. Twins solve the same CNF with the same
        // configuration apart from the inprocessing toggle, so a verdict
        // divergence is a soundness bug, not noise.
        SuiteId::Inprocess => {
            let twins = |widths: &[u32]| {
                widths
                    .iter()
                    .flat_map(|&width| {
                        [true, false].map(|on| CellKind::Solve {
                            width,
                            inprocess: Some(on),
                        })
                    })
                    .collect()
            };
            let mut cells = cross(benchmarks::suite_tiny(), &reference, |i| {
                twins(&both_widths(i))
            });
            cells.extend(cross(
                named(benchmarks::suite_paper(), &["k2"]),
                &reference,
                |i| twins(&[i.unroutable_width]),
            ));
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
            ("strategy", FieldValue::from(cell.strategy.to_string())),
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
        encoding: cell.strategy.encoding.name().to_string(),
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
    /// segment naming the cell kind (`inp-on`, `portfolio-2`,
    /// `div4-share-on`, ...) so twins never collide. Ladder cells sweep
    /// widths, so `ladder-warm` / `ladder-cold` replaces `wN`; explain
    /// cells end in `explain-wN` under a `-` symmetry segment.
    fn id(&self) -> String {
        let name = &self.instance.name;
        let encoding = self.strategy.encoding.name();
        let symmetry = self.symmetry();
        let plain = |width| BenchCell::make_id(name, encoding, symmetry, width);
        let on_off = |on: bool| if on { "on" } else { "off" };
        match self.kind {
            CellKind::Solve {
                width,
                inprocess: None,
            } => plain(width),
            CellKind::Solve {
                width,
                inprocess: Some(on),
            } => format!("{}/inp-{}", plain(width), on_off(on)),
            CellKind::Ladder { warm } => format!(
                "{name}/{encoding}/{symmetry}/ladder-{}",
                if warm { "warm" } else { "cold" }
            ),
            CellKind::Explain { width } => format!("{name}/{encoding}/-/explain-w{width}"),
            CellKind::Portfolio { width, members } => {
                format!("{}/portfolio-{members}", plain(width))
            }
            CellKind::Sharing { width, share } => format!(
                "{}/div{SHARING_MEMBERS}-share-{}",
                plain(width),
                on_off(share)
            ),
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
                let inprocess_on = inprocess == Some(true);
                if inprocess_on {
                    ctx.config.inprocess = InprocessConfig::on();
                }
                let report = self.strategy.solve(graph, width).context(ctx).run();
                let mut outcome = report.outcome.verdict().to_string();
                // Pass budgets tick on clause lengths, never on time, and
                // candidate orders are fixed, so the counters are
                // deterministic and the gate checks them verbatim.
                if inprocess_on {
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
            CellKind::Ladder { warm } => {
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
                        Sample {
                            wall,
                            width: search.min_width,
                            outcome: format!("min_width={}", search.min_width),
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
            // Counters sum over the members and the CNF shape is the lead
            // member's, both deterministic; the winner is timing-dependent.
            CellKind::Portfolio { width, members } => {
                let strategies = &Strategy::paper_portfolio_3()[..members];
                let sim = simulate_portfolio(graph, width, strategies, &ctx);
                let outcome = match sim.winning_member() {
                    Some(m) => format!("{} winner={}", m.report.outcome.verdict(), m.strategy),
                    None => sim.members[0].report.outcome.verdict().to_string(),
                };
                Sample {
                    wall: sim.wall_time,
                    width,
                    outcome,
                    stats: summed(sim.members.iter().map(|m| &m.report.solver_stats)),
                    cnf: sim.members[0].report.formula_stats,
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
        }
    }
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
    fn portfolio_cells_run_every_member_and_report_the_winner() {
        let opts = SuiteOptions {
            runs: 1,
            filter: Some("alu2/".to_string()),
            ..SuiteOptions::default()
        };
        let artifact = run_suite(SuiteId::Portfolio, &opts, |_| {});
        let ids: Vec<&str> = artifact.cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids.len(), 5, "{ids:?}");
        let mut member_conflicts = Vec::new();
        for members in 1..=3 {
            let cell = artifact
                .cells
                .iter()
                .find(|c| c.id.ends_with(&format!("/portfolio-{members}")))
                .expect("one cell per portfolio size");
            assert!(
                cell.outcome.starts_with("unsat winner="),
                "{}",
                cell.outcome
            );
            member_conflicts.push(cell.conflicts);
        }
        // Counters sum over the members, so a larger portfolio never
        // reports less work.
        assert!(member_conflicts.windows(2).all(|w| w[0] <= w[1]));
        for share in ["off", "on"] {
            let cell = artifact
                .cells
                .iter()
                .find(|c| c.id.ends_with(&format!("/div4-share-{share}")))
                .expect("sharing twins");
            assert!(
                cell.outcome.starts_with("sat winner=") && cell.outcome.contains(" imported="),
                "{}",
                cell.outcome
            );
        }
    }
}
