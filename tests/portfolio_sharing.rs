//! Integration tests for learnt-clause sharing in diversified portfolios:
//! shared and non-shared portfolios must agree with the exact oracle,
//! every clause crossing the bus must be entailed by the importer's
//! formula, and the sharing counters must report real clause flow.

use std::sync::{Arc, Mutex};

use satroute::cnf::Lit;
use satroute::coloring::{dsatur_coloring, exact, random_graph};
use satroute::core::{
    encode_coloring, run_portfolio, ColoringOutcome, EncodingId, PortfolioOptions, Strategy,
    SymmetryHeuristic,
};
use satroute::solver::{rup_implied, CdclSolver, ClauseExchange, SolveOutcome};
use satroute::{MetricsRegistry, RunBudget, RunContext};

/// Oversubscribes the single-core CI container so members interleave and
/// clauses actually flow while the race is undecided.
const THREADS: usize = 4;

fn sharing_opts(share: bool) -> PortfolioOptions {
    PortfolioOptions::new()
        .with_max_threads(THREADS)
        .with_sharing(share)
}

/// Property test: across random graphs and both phase transitions
/// (`chi - 1` UNSAT, `chi` SAT), a 4-member diversified portfolio reaches
/// the oracle's verdict whether or not clause sharing is enabled.
#[test]
fn shared_and_unshared_portfolios_agree_with_the_oracle() {
    for seed in 0..6u64 {
        let n = 10 + (seed as usize % 5);
        let g = random_graph(n, 0.5, seed);
        let chi = exact::chromatic_number(&g);
        let members = Strategy::diversified(
            Strategy::new(EncodingId::Muldirect, SymmetryHeuristic::S1),
            4,
        );
        for k in [chi.saturating_sub(1).max(1), chi] {
            let expect_sat = k >= chi;
            for share in [false, true] {
                let result = run_portfolio(
                    &g,
                    k,
                    &members,
                    &RunContext::default(),
                    &sharing_opts(share),
                );
                match &result.report().expect("small instance decides").outcome {
                    ColoringOutcome::Colorable(c) => {
                        assert!(expect_sat, "seed {seed}, k {k}, share {share}: bogus SAT");
                        assert!(c.is_proper(&g), "seed {seed}: improper coloring");
                    }
                    ColoringOutcome::Unsat => {
                        assert!(
                            !expect_sat,
                            "seed {seed}, k {k}, share {share}: bogus UNSAT"
                        );
                    }
                    other => panic!("seed {seed}: undecided: {other:?}"),
                }
            }
        }
    }
}

/// An exchange that records everything a solver exports and feeds a fixed
/// set of clauses to whoever drains it.
#[derive(Default)]
struct RecordingExchange {
    exported: Mutex<Vec<Vec<Lit>>>,
    deliveries: Mutex<Vec<Arc<[Lit]>>>,
}

impl ClauseExchange for RecordingExchange {
    fn export(&self, lits: &[Lit]) {
        self.exported.lock().unwrap().push(lits.to_vec());
    }

    fn drain(&self) -> Vec<Arc<[Lit]>> {
        std::mem::take(&mut *self.deliveries.lock().unwrap())
    }
}

/// Checks that `formula ∧ ¬clause` is unsatisfiable with a fresh solver —
/// the complete (if slower) fallback for clauses the linear RUP check
/// cannot certify in one propagation pass.
fn refutes_negation(formula: &satroute::cnf::CnfFormula, clause: &[Lit]) -> bool {
    let mut f = formula.clone();
    let needed = clause
        .iter()
        .map(|l| l.var().index() + 1)
        .max()
        .unwrap_or(0);
    while f.num_vars() < needed {
        f.new_var();
    }
    for &lit in clause {
        f.add_clause([!lit]);
    }
    let mut solver = CdclSolver::new();
    solver.add_formula(&f);
    matches!(solver.solve(), SolveOutcome::Unsat)
}

/// Soundness spot-check (the issue's acceptance criterion): every clause a
/// solver exports for its peers is entailed by the shared formula —
/// verified by the RUP checker in `solver::proof`, falling back to a full
/// refutation of `formula ∧ ¬C` where one propagation pass is not enough.
#[test]
fn every_exported_clause_is_entailed_by_the_formula() {
    let g = random_graph(24, 0.6, 42);
    let chi = exact::chromatic_number(&g);
    let enc = encode_coloring(
        &g,
        chi - 1,
        &EncodingId::Muldirect.encoding(),
        SymmetryHeuristic::S1,
    );

    let exchange = Arc::new(RecordingExchange::default());
    let mut solver = CdclSolver::new();
    solver.set_exchange(exchange.clone());
    solver.add_formula(&enc.formula);
    assert_eq!(solver.solve(), SolveOutcome::Unsat);

    let exported = exchange.exported.lock().unwrap();
    assert!(!exported.is_empty(), "UNSAT run must export learnt clauses");
    for clause in exported.iter() {
        assert!(
            rup_implied(&enc.formula, clause) || refutes_negation(&enc.formula, clause),
            "exported clause {clause:?} is not entailed"
        );
    }
}

/// Importing a peer's learnt clauses must never make the importer slower
/// on conflicts-to-answer. This is the deterministic (thread-free) form of
/// the issue's benchmark criterion: solver A runs the instance to
/// completion and exports; solver B solves the same instance once cold and
/// once with A's clauses preloaded, with identical seeds throughout.
#[test]
fn preloaded_shared_clauses_do_not_increase_conflicts() {
    let g = random_graph(24, 0.6, 42);
    let chi = exact::chromatic_number(&g);
    let enc = encode_coloring(
        &g,
        chi - 1,
        &EncodingId::Muldirect.encoding(),
        SymmetryHeuristic::S1,
    );

    let recorder = Arc::new(RecordingExchange::default());
    let mut exporter = CdclSolver::new();
    exporter.set_exchange(recorder.clone());
    exporter.add_formula(&enc.formula);
    assert_eq!(exporter.solve(), SolveOutcome::Unsat);
    let shared = recorder.exported.lock().unwrap().clone();
    assert!(!shared.is_empty());

    let mut cold = CdclSolver::new();
    cold.add_formula(&enc.formula);
    assert_eq!(cold.solve(), SolveOutcome::Unsat);
    let cold_conflicts = cold.stats().conflicts;

    let feed = Arc::new(RecordingExchange::default());
    *feed.deliveries.lock().unwrap() = shared.iter().map(|c| c.as_slice().into()).collect();
    let mut warm = CdclSolver::new();
    warm.set_exchange(feed);
    warm.add_formula(&enc.formula);
    assert_eq!(warm.solve(), SolveOutcome::Unsat);

    assert!(warm.stats().imported_clauses > 0, "nothing was imported");
    assert!(
        warm.stats().conflicts <= cold_conflicts,
        "imports made the solver slower: {} vs {} conflicts",
        warm.stats().conflicts,
        cold_conflicts
    );
}

/// A diversified same-strategy portfolio with sharing enabled reports
/// nonzero clause flow through `MemberReport` / `PortfolioResult` on an
/// instance hard enough that members restart while the race is open.
#[test]
fn diversified_sharing_portfolio_reports_clause_flow() {
    let g = random_graph(40, 0.5, 0xC0FFEE);
    let clique = g.greedy_clique().len() as u32;
    let upper = dsatur_coloring(&g).max_color().map_or(1, |m| m + 1);
    let k = (clique + upper) / 2;
    let members = Strategy::diversified(
        Strategy::new(EncodingId::Muldirect, SymmetryHeuristic::S1),
        4,
    );
    let budget = RunBudget::new().with_max_conflicts(3000);

    let ctx = RunContext {
        budget,
        ..RunContext::default()
    };
    let result = run_portfolio(&g, k, &members, &ctx, &sharing_opts(true));
    assert_eq!(result.members.len(), 4);
    assert!(
        result.total_exported() > 0,
        "thousands of conflicts must export something"
    );
    assert!(
        result.total_imported() > 0,
        "restarting members must import from their peers \
         (exported {} clauses)",
        result.total_exported()
    );
}

/// Each member's `portfolio.member_<i>.*` family is folded from its
/// report: work and sharing totals (import batches included), one
/// wall-time observation, a propagation rate and an outcome tally.
#[test]
fn sharing_portfolio_member_families_match_the_reports() {
    let g = random_graph(40, 0.5, 0xC0FFEE);
    let clique = g.greedy_clique().len() as u32;
    let upper = dsatur_coloring(&g).max_color().map_or(1, |m| m + 1);
    let members = Strategy::diversified(
        Strategy::new(EncodingId::Muldirect, SymmetryHeuristic::S1),
        4,
    );
    let registry = MetricsRegistry::new();
    let ctx = RunContext {
        budget: RunBudget::new().with_max_conflicts(3000),
        metrics: registry.clone(),
        ..RunContext::default()
    };
    let result = run_portfolio(
        &g,
        (clique + upper) / 2,
        &members,
        &ctx,
        &sharing_opts(true),
    );

    let snapshot = registry.snapshot();
    for (i, member) in result.members.iter().enumerate() {
        let name = |suffix: &str| format!("portfolio.member_{i}.{suffix}");
        let stats = &member.report.solver_stats;
        let outcome = &member.report.outcome;
        assert_eq!(stats.import_batches > 0, stats.imported_clauses > 0);
        for (suffix, value) in [
            ("conflicts", stats.conflicts),
            ("decisions", stats.decisions),
            ("propagations", stats.propagations),
            ("restarts", stats.restarts),
            ("import_batches", stats.import_batches),
            ("imported_clauses", stats.imported_clauses),
            ("exported_clauses", stats.exported_clauses),
            ("outcome.sat", u64::from(outcome.is_colorable())),
            (
                "outcome.unsat",
                u64::from(*outcome == ColoringOutcome::Unsat),
            ),
            ("outcome.unknown", u64::from(!outcome.is_decided())),
        ] {
            assert_eq!(
                snapshot.counter(&name(suffix)),
                Some(value),
                "{}",
                name(suffix)
            );
        }
        let wall = snapshot.histogram(&name("wall_time_us")).map(|h| h.count());
        assert_eq!(wall, Some(1), "member {i}");
        let rate = snapshot
            .gauge(&name("props_per_sec"))
            .expect("gauge resolved");
        assert_eq!(rate > 0.0, stats.propagations > 0, "member {i}");
    }
}
