//! One solver loaded with one encode, solved under assumptions.
//!
//! Every solve in this crate is a probe of a [`Probe`]. A cold
//! [`SolveRequest`](crate::SolveRequest) loads its plain encode and probes
//! it once, under its assumptions if it has any. The warm width ladder
//! ([`IncrementalSession`](crate::IncrementalSession)) and explain's
//! initial and shrink probes load one selector encode and probe it many
//! times, keeping learnt clauses, activities and phases in between.
//! [`Probe::load`] has the encoder write straight into the solver; only a
//! certified run, whose proof is checked against the formula, loads a
//! [`CnfFormula`](satroute_cnf::CnfFormula) ([`Probe::load_formula`]).
//! The probe owns what those paths share: selector freezing, solve timing
//! under the caller's probe span, the failed-assumption core mapped to
//! track or group ids, and the postmortem of a stopped probe.

use std::time::{Duration, Instant};

use satroute_cnf::{Assignment, FormulaStats, Lit, Var};
use satroute_coloring::{Coloring, CspGraph};
use satroute_obs::{Postmortem, SpanGuard};
use satroute_solver::{CdclSolver, RunContext, SolveOutcome};

use crate::decode::decode_coloring;
use crate::encode::{DecodeMap, EncodedColoring, Encoder, Selectors};
use crate::strategy::{ColoringOutcome, ColoringReport, Strategy, TimingBreakdown};

/// A solver from a [`RunContext`] loaded with one encode.
pub(crate) struct Probe {
    /// The solver; it keeps its learnt clauses, activities and phases
    /// across probes.
    pub(crate) solver: CdclSolver,
    /// The loaded encode's decoder state, selectors included.
    pub(crate) decode: DecodeMap,
    /// Shape of the loaded CNF.
    pub(crate) formula_stats: FormulaStats,
}

/// What one probe answered.
pub(crate) struct Probed {
    /// The solver's answer; a SAT model is decoded by [`Probe::report`] or
    /// [`Probe::coloring`].
    pub(crate) outcome: SolveOutcome,
    /// `cnf_translation` as the caller charged it to this probe and
    /// `sat_solving` as the probe span's wall time.
    pub(crate) timing: TimingBreakdown,
    /// The solver's own wall time for this solve.
    pub(crate) solve_time: Duration,
    /// The failed-assumption core (trail order) when the answer is UNSAT
    /// under the assumptions; `None` otherwise.
    pub(crate) failed: Option<Vec<Lit>>,
    /// The track or group ids of the selectors in `failed`, ascending and
    /// deduplicated.
    pub(crate) failed_ids: Vec<u32>,
    /// The postmortem of a stopped probe, when the context's tracer is
    /// enabled.
    pub(crate) postmortem: Option<Postmortem>,
}

impl Probe {
    /// Encodes `graph` at `k` colors with `strategy` and `selectors`
    /// straight into a fresh solver from `ctx` — no [`CnfFormula`] is
    /// built — and returns the probe with the one `encode` span's wall
    /// time, which covers the encode and the load.
    ///
    /// [`CnfFormula`]: satroute_cnf::CnfFormula
    pub(crate) fn load(
        ctx: &RunContext,
        graph: &CspGraph,
        k: u32,
        strategy: Strategy,
        selectors: Selectors<'_>,
    ) -> (Probe, Duration) {
        let encoding = strategy.encoding.encoding();
        // The encoder builds the decode map before the solver's clause
        // arena grows. Allocated after it, the small map would land above
        // the arena and keep the heap from reusing the arena's pages once
        // it is freed, which raises the peak RSS of a run of large routing
        // jobs.
        let encoder = Encoder::begin(
            graph,
            k,
            &encoding,
            strategy.symmetry,
            selectors,
            &ctx.tracer,
        );
        // No span yet: each probe moves the solver's telemetry onto its
        // own.
        let mut solver = ctx.solver(0);
        let (decode, formula_stats, cnf_translation) = encoder.load(&mut solver, &ctx.metrics);
        (Probe::new(solver, decode, formula_stats), cnf_translation)
    }

    /// Loads a certified run's formula, which the proof checker reads
    /// afterwards, into a fresh solver from `ctx` that logs DRAT from the
    /// first clause.
    pub(crate) fn load_formula(ctx: &RunContext, encoded: &EncodedColoring) -> Probe {
        let decode = encoded.decode.clone();
        let mut solver = ctx.solver(0);
        solver.enable_proof_logging();
        solver.add_formula(&encoded.formula);
        Probe::new(solver, decode, encoded.stats)
    }

    fn new(mut solver: CdclSolver, decode: DecodeMap, formula_stats: FormulaStats) -> Probe {
        // Probes assume varying selector subsets, and the solver freezes
        // only the current call's assumptions: freeze every selector up
        // front, or inprocessing (when enabled) could eliminate one that a
        // later probe assumes.
        for var in decode.selectors.clone() {
            solver.freeze_var(Var::new(var));
        }
        Probe {
            solver,
            decode,
            formula_stats,
        }
    }

    /// Solves under `assumptions` as one probe traced on `span`, which the
    /// probe closes: its wall time is the probe's `sat_solving`, and
    /// `cnf_translation` is the encode time the caller charges to it.
    pub(crate) fn solve(
        &mut self,
        span: SpanGuard,
        assumptions: &[Lit],
        cnf_translation: Duration,
    ) -> Probed {
        self.solver.set_trace_span(span.id());
        let start = Instant::now();
        let outcome = self.solver.solve_with_assumptions(assumptions);
        let solve_time = start.elapsed();
        let timing = TimingBreakdown {
            graph_generation: Duration::ZERO,
            cnf_translation,
            sat_solving: span.close(),
        };
        let failed = self
            .solver
            .unsat_under_assumptions()
            .then(|| self.solver.failed_assumptions().to_vec());
        let mut failed_ids: Vec<u32> = failed
            .iter()
            .flatten()
            .filter_map(|&lit| self.decode.selector_id(lit))
            .collect();
        failed_ids.sort_unstable();
        failed_ids.dedup();
        let postmortem = self.solver.postmortem().map(|mut pm| {
            pm.hottest_phase = Some(hottest_phase(&timing).to_string());
            pm.assumptions = assumptions.iter().map(|l| l.to_dimacs()).collect();
            pm.assumptions.sort_unstable();
            pm.assumptions.dedup();
            pm
        });
        Probed {
            outcome,
            timing,
            solve_time,
            failed,
            failed_ids,
            postmortem,
        }
    }

    /// Decodes a model of the loaded encode.
    pub(crate) fn coloring(&self, model: &Assignment) -> Coloring {
        decode_coloring(model, &self.decode)
            .expect("models of the encoding always decode (totality)")
    }

    /// The coloring report of `probed`, decoding a SAT model; solver
    /// counters are the solver's totals across every probe so far.
    pub(crate) fn report(&self, probed: Probed) -> ColoringReport {
        let outcome = match probed.outcome {
            SolveOutcome::Sat(model) => ColoringOutcome::Colorable(self.coloring(&model)),
            SolveOutcome::Unsat => ColoringOutcome::Unsat,
            SolveOutcome::Unknown(reason) => ColoringOutcome::Unknown(reason),
        };
        ColoringReport {
            outcome,
            timing: probed.timing,
            formula_stats: self.formula_stats,
            solver_stats: *self.solver.stats(),
            solve_time: probed.solve_time,
            failed_assumptions: probed.failed,
            postmortem: probed.postmortem,
        }
    }
}

/// The stage of `timing` that dominated wall time, as a stable name
/// (`graph_generation`, `cnf_translation`, `sat_solving`; the last on
/// ties).
fn hottest_phase(timing: &TimingBreakdown) -> &'static str {
    let stages = [
        ("graph_generation", timing.graph_generation),
        ("cnf_translation", timing.cnf_translation),
        ("sat_solving", timing.sat_solving),
    ];
    stages
        .iter()
        .max_by_key(|(_, d)| *d)
        .map(|(name, _)| *name)
        .expect("stage list is non-empty")
}
