//! Incremental minimum-width search with one reusable solver.
//!
//! The paper's flow re-encodes and re-solves from scratch for every channel
//! width. Modern SAT solvers offer a cheaper alternative — the MiniSat
//! assumption interface — which this module exploits as an extension: the
//! instance is encoded **once** at an upper bound `W_max` on the width with
//! one *activation selector* per track (see [`Selectors::PerTrack`]), and
//! narrower widths are probed by assuming the selectors of every track
//! `d ≥ W`. All clauses learnt at one width remain valid at every other
//! width (assumptions never enter the formula), so the descending search
//! reuses the solver's accumulated knowledge — learnt DB, VSIDS scores and
//! saved phases included.
//!
//! Because selectors disable whole *patterns*, this works for every catalog
//! encoding (the historical muldirect-only trick — one assumption per
//! vertex and track — is fully subsumed and its shim API has been
//! removed).
//!
//! When a probe is UNSAT the solver's final-conflict analysis
//! ([`CdclSolver::failed_assumptions`](satroute_solver::CdclSolver::failed_assumptions))
//! yields the subset of selectors that already contradict the formula;
//! the lowest track `m` in that core proves every width `≤ m` uncolorable,
//! so the ladder can stop without probing the widths the core covers
//! ([`IncrementalSession::core_lower_bound`]).

use std::time::Duration;

use satroute_coloring::{Coloring, CspGraph};
use satroute_obs::FieldValue;
use satroute_solver::RunContext;

use crate::encode::{encode, Selectors};
use crate::probe::Probe;
use crate::strategy::{ColoringOutcome, ColoringReport, Strategy};

/// Builder for an [`IncrementalSession`], returned by
/// [`Strategy::incremental`]. Mirrors the [`crate::SolveRequest`] idiom:
/// chain configuration calls, then [`IncrementalSessionBuilder::build`].
///
/// Run control comes from the builder's [`RunContext`] and covers every
/// probe of the session. Integer budget caps apply to the solver's
/// *cumulative* counters (conflicts accumulate across probes); a shared
/// `deadline_at` or wall budget bounds the whole ladder. A tracer records
/// an `encode` span (field `selectors`: `track`) for the encode and a
/// `width_probe` span (field `width`) carrying each probe's solver events.
/// A metrics registry receives the encoder's `encode.*.<encoding>`
/// histograms, the `solver.*` family and the session's
/// `incremental.probes` and `incremental.reused_conflicts` counters
/// (conflicts carried into each probe from earlier ones — the state a
/// cold ladder would have thrown away).
pub struct IncrementalSessionBuilder<'a> {
    strategy: Strategy,
    graph: &'a CspGraph,
    upper: u32,
    ctx: RunContext,
}

impl std::fmt::Debug for IncrementalSessionBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSessionBuilder")
            .field("strategy", &self.strategy)
            .field("upper", &self.upper)
            .field("ctx", &self.ctx)
            .finish_non_exhaustive()
    }
}

run_context_setters!(IncrementalSessionBuilder<'_>);

impl<'a> IncrementalSessionBuilder<'a> {
    pub(crate) fn new(strategy: Strategy, graph: &'a CspGraph, upper: u32) -> Self {
        IncrementalSessionBuilder {
            strategy,
            graph,
            upper,
            ctx: RunContext::default(),
        }
    }

    /// Encodes the instance once at the upper bound and loads the warm
    /// solver.
    ///
    /// # Panics
    ///
    /// Panics if `upper == 0`.
    #[must_use]
    pub fn build(self) -> IncrementalSession {
        assert!(self.upper >= 1, "the upper color bound must be positive");
        let encoded = encode(
            self.graph,
            self.upper,
            &self.strategy.encoding.encoding(),
            self.strategy.symmetry,
            Selectors::PerTrack,
            &self.ctx.tracer,
            &self.ctx.metrics,
        );
        // No span yet: each probe moves the solver's telemetry onto its
        // own. The formula is dropped here; the solver holds its clauses.
        let probe = Probe::load(&self.ctx, 0, &encoded, false);
        IncrementalSession {
            strategy: self.strategy,
            probe,
            ctx: self.ctx,
            probes: 0,
            failed_tracks: Vec::new(),
            encode_time: Some(encoded.cnf_translation),
        }
    }
}

/// An incremental k-colorability oracle for one graph: encode once at an
/// upper bound (any catalog encoding), probe any `k ≤ upper` by flipping
/// selector assumptions on one warm
/// [`CdclSolver`](satroute_solver::CdclSolver).
///
/// Built by [`Strategy::incremental`]. The session keeps the solver's
/// learnt clauses, activity scores and saved phases across probes; probe
/// answers are independent of probe order.
///
/// # Examples
///
/// ```
/// use satroute_coloring::CspGraph;
/// use satroute_core::Strategy;
///
/// // A 5-cycle: chromatic number 3.
/// let g = CspGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
/// let mut session = Strategy::paper_best().incremental(&g, 4).build();
/// assert!(session.solve_at(3).is_colorable());
/// assert!(!session.solve_at(2).is_colorable());
/// let (min, coloring) = session.find_min_colors().expect("graph is colorable");
/// assert_eq!(min, 3);
/// assert!(coloring.is_proper(&g));
/// ```
pub struct IncrementalSession {
    strategy: Strategy,
    probe: Probe,
    ctx: RunContext,
    probes: u64,
    /// Tracks named by the failed-assumption core of the last UNSAT probe.
    failed_tracks: Vec<u32>,
    /// The one-time encode wall time, until the first probe's
    /// `cnf_translation` takes it so ladder timing sums stay honest.
    encode_time: Option<Duration>,
}

impl std::fmt::Debug for IncrementalSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSession")
            .field("strategy", &self.strategy)
            .field("upper", &self.upper())
            .field("probes", &self.probes)
            .field("failed_tracks", &self.failed_tracks)
            .finish_non_exhaustive()
    }
}

impl IncrementalSession {
    /// The encoded upper bound.
    #[must_use]
    pub fn upper(&self) -> u32 {
        self.probe.decode.num_selectors()
    }

    /// The session's strategy.
    #[must_use]
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Number of probes run so far.
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Solver work counters accumulated across all probes so far.
    #[must_use]
    pub fn solver_stats(&self) -> &satroute_solver::SolverStats {
        self.probe.solver.stats()
    }

    /// The tracks named by the failed-assumption core of the most recent
    /// UNSAT probe (ascending). Empty unless the last probe was UNSAT
    /// under its selector assumptions.
    #[must_use]
    pub fn failed_tracks(&self) -> &[u32] {
        &self.failed_tracks
    }

    /// The width lower bound certified by the last UNSAT probe's core:
    /// with `m` the lowest track in the core, every width `≤ m` is
    /// uncolorable, so the minimum width is at least `m + 1`. `None` when
    /// the last probe was not UNSAT-under-assumptions.
    #[must_use]
    pub fn core_lower_bound(&self) -> Option<u32> {
        self.failed_tracks.first().map(|&m| m + 1)
    }

    /// Probes k-colorability for any `k ≤ upper`, returning the full
    /// report. `solver_stats` in the report are the session's *cumulative*
    /// counters at the end of the probe; `solve_time` covers this probe
    /// alone.
    /// On an UNSAT answer the report's `failed_assumptions` carries the
    /// selector core; a stopped probe's postmortem lists the probe's
    /// selector assumptions.
    ///
    /// # Panics
    ///
    /// Panics if `k > upper` (those tracks were not encoded).
    pub fn probe(&mut self, k: u32) -> ColoringReport {
        assert!(
            k <= self.upper(),
            "width {k} exceeds the encoded upper bound {}",
            self.upper()
        );
        let span = self.ctx.tracer.span_with(
            "width_probe",
            [
                ("width", FieldValue::from(k)),
                ("strategy", FieldValue::from(self.strategy.to_string())),
            ],
        );
        self.probes += 1;
        let metrics = &self.ctx.metrics;
        if metrics.is_enabled() {
            let reused = self.probe.solver.stats().conflicts;
            metrics.counter("incremental.probes").add(1);
            metrics.counter("incremental.reused_conflicts").add(reused);
        }

        let assumptions = self.probe.decode.assumptions_for_width(k);
        let encode_time = self.encode_time.take().unwrap_or_default();
        let mut probed = self.probe.solve(span, &assumptions, encode_time);
        self.failed_tracks = std::mem::take(&mut probed.failed_ids);
        let report = self.probe.report(probed);
        debug_assert!(
            report
                .outcome
                .coloring()
                .is_none_or(|c| c.colors().iter().all(|&c| c < k)),
            "selectors force decoded colors below the probed width"
        );
        report
    }

    /// Probes k-colorability for any `k ≤ upper` (outcome only; see
    /// [`IncrementalSession::probe`] for the full report).
    ///
    /// # Panics
    ///
    /// Panics if `k > upper`.
    pub fn solve_at(&mut self, k: u32) -> ColoringOutcome {
        self.probe(k).outcome
    }

    /// Walks `k` downward from the upper bound to the smallest colorable
    /// `k` on the warm solver, jumping past widths each SAT model already
    /// proves achievable (a model using `c` colors makes probing widths in
    /// `c..k` pointless) and stopping at the first UNSAT answer, whose
    /// failed-assumption core certifies the lower bound for every skipped
    /// width below it.
    ///
    /// Returns `None` if even the upper bound is uncolorable (possible
    /// when the caller's bound is not from a greedy coloring) or if a
    /// probe exhausts a budget.
    pub fn find_min_colors(&mut self) -> Option<(u32, Coloring)> {
        let mut best: Option<(u32, Coloring)> = None;
        let mut k = self.upper();
        loop {
            match self.solve_at(k) {
                ColoringOutcome::Colorable(c) => {
                    let used = c.max_color().map_or(0, |m| m + 1);
                    best = Some((used, c));
                    if used == 0 {
                        // Only possible for a vertex-free graph.
                        return best;
                    }
                    k = used - 1;
                }
                ColoringOutcome::Unsat => {
                    // Every track in the core is ≥ k, so the core's lower
                    // bound (min track + 1) confirms that no width below
                    // the best coloring can work — including the widths
                    // the model jumps skipped.
                    debug_assert!(self.failed_tracks.iter().all(|&d| d >= k));
                    debug_assert!(
                        best.is_none() || self.core_lower_bound().is_none_or(|lb| lb == k + 1)
                    );
                    return best;
                }
                ColoringOutcome::Unknown(_) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::EncodingId;
    use crate::symmetry::SymmetryHeuristic;
    use satroute_coloring::{exact, random_graph};
    use satroute_obs::MetricsRegistry;
    use satroute_solver::CancellationToken;

    #[test]
    fn matches_exact_chromatic_number() {
        for seed in 0..6u64 {
            let g = random_graph(10, 0.45, seed);
            let chi = exact::chromatic_number(&g);
            let upper = satroute_coloring::dsatur_coloring(&g)
                .max_color()
                .map_or(1, |m| m + 1);
            for sym in SymmetryHeuristic::ALL {
                let mut session = Strategy::new(EncodingId::Muldirect, sym)
                    .incremental(&g, upper)
                    .build();
                let (min, coloring) = session.find_min_colors().expect("upper bound colors");
                assert_eq!(min, chi, "seed {seed} sym {sym}");
                assert!(coloring.is_proper(&g));
                assert!(coloring.max_color().unwrap_or(0) < min.max(1));
            }
        }
    }

    #[test]
    fn every_encoding_supports_incremental_probing() {
        // The selector mechanism must work beyond muldirect: for each
        // catalog encoding the probe answers agree with the exact oracle.
        let g = random_graph(9, 0.5, 11);
        let chi = exact::chromatic_number(&g);
        let upper = chi + 2;
        for id in EncodingId::ALL {
            let mut session = Strategy::new(id, SymmetryHeuristic::S1)
                .incremental(&g, upper)
                .build();
            for k in (1..=upper).rev() {
                assert_eq!(
                    session.solve_at(k).is_colorable(),
                    k >= chi,
                    "{id} at k={k}"
                );
            }
            let lb = session.core_lower_bound();
            assert_eq!(lb, Some(chi), "{id} core bound");
        }
    }

    #[test]
    fn probes_agree_with_from_scratch_solving() {
        let g = random_graph(12, 0.5, 9);
        let upper = 8;
        let mut session = Strategy::paper_baseline().incremental(&g, upper).build();
        for k in (1..=upper).rev() {
            let incremental = session.solve_at(k).is_colorable();
            let scratch = Strategy::paper_baseline()
                .solve_coloring(&g, k)
                .outcome
                .is_colorable();
            assert_eq!(incremental, scratch, "k={k}");
        }
    }

    #[test]
    fn probing_up_and_down_is_consistent() {
        let g = random_graph(10, 0.5, 2);
        let mut session = Strategy::new(EncodingId::Muldirect, SymmetryHeuristic::S1)
            .incremental(&g, 6)
            .build();
        let down: Vec<bool> = (1..=6)
            .rev()
            .map(|k| session.solve_at(k).is_colorable())
            .collect();
        let up: Vec<bool> = (1..=6)
            .map(|k| session.solve_at(k).is_colorable())
            .collect();
        let down_rev: Vec<bool> = down.into_iter().rev().collect();
        assert_eq!(down_rev, up, "answers must not depend on probe order");
        // Colorability is monotone in k.
        for w in up.windows(2) {
            assert!(!w[0] || w[1], "monotonicity violated");
        }
    }

    #[test]
    fn unsat_probe_reports_selector_core() {
        // Triangle, upper 4: width 2 is UNSAT and the core must name only
        // assumed tracks (≥ 2) including track 2.
        let g = CspGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let mut session = Strategy::paper_best().incremental(&g, 4).build();
        let report = session.probe(2);
        assert_eq!(report.outcome, ColoringOutcome::Unsat);
        let core = report.failed_assumptions.expect("UNSAT under selectors");
        assert!(!core.is_empty());
        assert!(session.failed_tracks().iter().all(|&d| (2..4).contains(&d)));
        assert_eq!(session.core_lower_bound(), Some(3));
        // SAT probes clear the core.
        let report = session.probe(3);
        assert!(report.outcome.is_colorable());
        assert!(report.failed_assumptions.is_none());
        assert!(session.failed_tracks().is_empty());
    }

    #[test]
    fn stopped_probe_postmortem_lists_its_assumptions() {
        use satroute_obs::{BufferSink, Tracer};
        use satroute_solver::{RunBudget, StopReason};
        // Far below the chromatic number of a dense graph: five conflicts
        // cannot refute the width.
        let g = random_graph(30, 0.6, 1);
        let mut session = Strategy::paper_baseline()
            .incremental(&g, 12)
            .budget(RunBudget::new().with_max_conflicts(5))
            .trace(Tracer::to_sink(BufferSink::new()))
            .build();
        let report = session.probe(7);
        assert_eq!(
            report.outcome,
            ColoringOutcome::Unknown(StopReason::ConflictLimit)
        );
        let pm = report.postmortem.expect("a stopped traced probe");
        let mut expected: Vec<i64> = session
            .probe
            .decode
            .assumptions_for_width(7)
            .iter()
            .map(|l| l.to_dimacs())
            .collect();
        expected.sort_unstable();
        assert_eq!(pm.assumptions, expected);
    }

    #[test]
    fn cancelled_probe_returns_unknown_and_search_gives_up() {
        use satroute_solver::StopReason;
        let g = random_graph(12, 0.5, 4);
        let token = CancellationToken::new();
        let mut session = Strategy::paper_baseline()
            .incremental(&g, 6)
            .cancel(token.clone())
            .build();
        token.cancel();
        assert_eq!(
            session.solve_at(3),
            ColoringOutcome::Unknown(StopReason::Cancelled)
        );
        assert!(session.find_min_colors().is_none());
    }

    #[test]
    fn session_feeds_metrics_and_observer() {
        use satroute_obs::{BufferSink, SpanForest, Tracer};
        let g = random_graph(10, 0.5, 3);
        let registry = MetricsRegistry::new();
        let buffer = BufferSink::new();
        let mut session = Strategy::paper_best()
            .incremental(&g, 5)
            .metrics(registry.clone())
            .trace(Tracer::to_sink(buffer.clone()))
            .build();
        let (_min, _coloring) = session.find_min_colors().expect("colorable");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("incremental.probes"), Some(session.probes()));
        assert!(snap.counter("incremental.reused_conflicts").is_some());
        // Every probe's solve ended on an outcome mark on its own span.
        let forest = SpanForest::from_events(&buffer.events()).unwrap();
        let outcomes = forest
            .spans()
            .into_iter()
            .filter(|span| span.marks.contains_key("outcome"))
            .count();
        assert_eq!(outcomes as u64, session.probes());
    }

    #[test]
    #[should_panic]
    fn probing_above_upper_panics() {
        let g = random_graph(5, 0.5, 1);
        let mut session = Strategy::paper_baseline().incremental(&g, 3).build();
        let _ = session.solve_at(4);
    }

    #[test]
    fn unsatisfiable_upper_bound_returns_none() {
        // A triangle with upper = 2: no coloring exists at all.
        let g = CspGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let mut session = Strategy::paper_baseline().incremental(&g, 2).build();
        assert!(session.find_min_colors().is_none());
    }

    #[test]
    fn empty_graph_needs_one_color_at_most() {
        let g = CspGraph::new(4);
        let mut session = Strategy::new(EncodingId::Muldirect, SymmetryHeuristic::S1)
            .incremental(&g, 3)
            .build();
        let (min, coloring) = session.find_min_colors().expect("colorable");
        // Edgeless graphs are 1-colorable; k = 0 is probed and refuted by
        // the activation clauses plus the at-least-one totality clauses.
        assert_eq!(min, 1);
        assert_eq!(coloring.len(), 4);
    }
}
