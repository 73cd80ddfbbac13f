//! Encoding a graph-coloring CSP into CNF.
//!
//! For a K-coloring of a [`CspGraph`] the encoder:
//!
//! 1. emits the chosen encoding's [`SchemeCnf`] for domain size K once (all
//!    CSP variables share the same domain — the K tracks);
//! 2. allocates a disjoint block of `num_vars` SAT variables per vertex
//!    (the paper's requirement that ITE trees "depend on a unique set of
//!    indexing Boolean variables");
//! 3. maps the structural clauses into each vertex's block;
//! 4. adds one conflict clause per edge and common domain value:
//!    `¬pattern_v(d) ∨ ¬pattern_w(d)` (§2–§4);
//! 5. adds symmetry-breaking restrictions: the p-th restricted vertex
//!    (0-based) gets `¬pattern(d)` clauses for every `d > p` (§5);
//! 6. optionally appends activation [`Selectors`] — one fresh variable per
//!    track (the warm width ladder) or per vertex group (explain's cores) —
//!    after all vertex blocks.
//!
//! Each clause goes out once, through a [`ClauseSink`]: a [`CnfFormula`]
//! ([`encode`]) or, for a solve that keeps no formula, the solver itself.
//! The result carries a [`DecodeMap`] so that a SAT model can be converted
//! back into a coloring by [`crate::decode::decode_coloring`], and a failed
//! selector assumption back into its track or group id.

use std::ops::Range;
use std::time::Duration;

use satroute_cnf::{ClauseSink, CnfFormula, FormulaStats, Lit, Var};
use satroute_coloring::CspGraph;
use satroute_obs::{FieldValue, MetricsRegistry, SpanGuard, Tracer};
use satroute_solver::{CdclSolver, LoadPass};

use crate::catalog::Encoding;
use crate::pattern::{Pattern, SchemeCnf};
use crate::symmetry::SymmetryHeuristic;

/// Which activation selectors [`encode`] appends after the vertex blocks.
///
/// Selectors are consecutive fresh variables, so the [`DecodeMap`] of the
/// vertex blocks is the plain encode's, and a selector literal maps back
/// to its track or group id by variable index
/// ([`DecodeMap::selector_id`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Selectors<'a> {
    /// No selectors: the paper's plain encoding.
    None,
    /// One selector `s_d` per track `d < k`, with the clauses
    /// `¬s_d ∨ ¬pattern_v(d)` for every vertex `v`. Assuming `s_d` disables
    /// track `d` for the whole graph, so a width-`W` probe assumes
    /// [`DecodeMap::assumptions_for_width`] and one CNF encoded at an upper
    /// width answers every narrower width. Because patterns are
    /// conjunctions this works for every catalog encoding.
    ///
    /// Decoding at width `W` stays sound: totality forces some pattern
    /// true per vertex and the activation clauses falsify every pattern
    /// `≥ W`. Symmetry restrictions emitted at the upper width stay sound
    /// at smaller widths because they only ever *forbid* high tracks.
    PerTrack,
    /// One selector `s_g` per vertex group, `groups[v]` being vertex `v`'s
    /// group (for routing, the subnet's net id). Every clause mentioning a
    /// vertex of `g` is guarded with `¬s_g`: structural clauses get their
    /// vertex's guard, conflict clauses the guards of both endpoints.
    /// Assuming `s_g` activates the group; leaving it free lets the solver
    /// delete the group's vertices by setting `s_g` false. A probe
    /// assuming the selectors of a set `A` of groups is therefore SAT iff
    /// the subgraph induced by `A`'s vertices is `k`-colorable, and an
    /// UNSAT answer's failed assumptions name a subset of `A` that is
    /// uncolorable on its own — a group-level core.
    ///
    /// Symmetry breaking is forced off: restrictions derived from a clique
    /// and vertex order of the *full* graph do not stay sound once groups
    /// are deleted, and an unsound one would make a colorable group subset
    /// look UNSAT. At `k == 0` each populated group gets the unit clause
    /// `¬s_g` instead of the empty clause, so width-0 probes still yield
    /// group cores.
    PerGroup(&'a [u32]),
}

impl Selectors<'_> {
    /// Stable name recorded in the `encode` span's `selectors` field
    /// (`none`, `track`, `group`).
    fn name(&self) -> &'static str {
        match self {
            Selectors::None => "none",
            Selectors::PerTrack => "track",
            Selectors::PerGroup(_) => "group",
        }
    }
}

/// Mapping from SAT variables back to the CSP: the shared scheme, each
/// vertex's variable-block offset and the activation selectors.
#[derive(Clone, Debug)]
pub struct DecodeMap {
    /// The per-vertex scheme (patterns over local variables).
    pub scheme: SchemeCnf,
    /// `offsets[v]` = index of the first SAT variable of vertex `v`.
    pub offsets: Vec<u32>,
    /// Number of colors the instance was encoded for.
    pub num_colors: u32,
    /// Variable indices of the activation selectors, consecutive after
    /// every vertex block; the variable at `selectors.start + i` is the
    /// selector of track or group `i`. Empty for [`Selectors::None`].
    pub selectors: Range<u32>,
}

impl DecodeMap {
    /// Number of selectors: the encoded width for [`Selectors::PerTrack`],
    /// max group id + 1 for [`Selectors::PerGroup`] (ids need not all be
    /// populated), 0 otherwise.
    #[must_use]
    pub fn num_selectors(&self) -> u32 {
        self.selectors.end - self.selectors.start
    }

    /// The positive literal of selector `id` (a track or group id).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below [`DecodeMap::num_selectors`].
    #[must_use]
    pub fn selector(&self, id: u32) -> Lit {
        assert!(
            id < self.num_selectors(),
            "selector {id} out of range ({} selectors)",
            self.num_selectors()
        );
        Lit::positive(Var::new(self.selectors.start + id))
    }

    /// Maps a failed-assumption literal back to the track or group id of
    /// its selector, by variable index; `None` for literals that are not
    /// positive selector occurrences.
    #[must_use]
    pub fn selector_id(&self, lit: Lit) -> Option<u32> {
        let var = lit.var().index();
        (lit.is_positive() && self.selectors.contains(&var)).then(|| var - self.selectors.start)
    }

    /// The assumption vector of a width-`width` probe of a per-track
    /// encode: the selectors of every track `≥ width`, highest track first
    /// (so consecutive downward probes share an assumption prefix).
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds the encoded width.
    #[must_use]
    pub fn assumptions_for_width(&self, width: u32) -> Vec<Lit> {
        assert!(
            width <= self.num_selectors(),
            "width {width} above encoded upper bound {}",
            self.num_selectors()
        );
        (width..self.num_selectors())
            .rev()
            .map(|d| self.selector(d))
            .collect()
    }

    /// The assumption vector activating exactly the given groups of a
    /// per-group encode (ascending group-id order for determinism).
    #[must_use]
    pub fn assumptions_for(&self, groups: impl IntoIterator<Item = u32>) -> Vec<Lit> {
        let mut ids: Vec<u32> = groups.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(|g| self.selector(g)).collect()
    }
}

/// The output of [`encode`]: the CNF formula and its decode map.
#[derive(Clone, Debug)]
pub struct EncodedColoring {
    /// The CNF instance; satisfiable iff the graph is `num_colors`-colorable
    /// (under the sound symmetry restrictions; for selector encodes, under
    /// the probe's assumptions).
    pub formula: CnfFormula,
    /// Decoder state.
    pub decode: DecodeMap,
    /// Shape of `formula`, counted as the encoder wrote it.
    pub stats: FormulaStats,
    /// Wall time spent encoding (the `encode` span's duration) — the
    /// `cnf_translation` component of [`crate::TimingBreakdown`].
    pub cnf_translation: Duration,
}

/// Encodes the K-coloring problem of `graph` as CNF, with the given
/// activation `selectors` appended after the vertex blocks.
///
/// `k == 0` with a non-empty graph yields a trivially unsatisfiable formula
/// (a single empty clause, or per group a unit clause against its
/// selector); with an empty graph, an empty (satisfiable) formula.
///
/// The clauses go through a [`ClauseSink`]: here a [`CnfFormula`], which
/// DIMACS output and the DRAT checker read. A solve
/// that needs no formula ([`SolveRequest::run`](crate::SolveRequest::run),
/// the warm ladder, explain) has the same clause writer fill its solver
/// instead, through [`CdclSolver::load`].
///
/// The run is recorded as one `encode` span (fields: encoding name, `k`,
/// vertex/edge counts and the selector kind) with `scheme_emit`,
/// `structural_clauses`, `conflict_clauses`, `symmetry_breaking` and, per
/// track, `activation_selectors` child spans, plus final
/// `variables`/`clauses`/`literals` counters — the paper's per-encoding
/// CNF-size comparison, recorded per run. An enabled `metrics` registry
/// receives the wall time in the `encode.wall_us.<encoding>` histogram and
/// the CNF shape in `encode.vars.<encoding>` / `encode.clauses.<encoding>`
/// / `encode.literals.<encoding>`.
///
/// # Panics
///
/// Panics if a [`Selectors::PerGroup`] slice does not hold exactly one
/// group id per vertex.
pub fn encode(
    graph: &CspGraph,
    k: u32,
    encoding: &Encoding,
    symmetry: SymmetryHeuristic,
    selectors: Selectors<'_>,
    tracer: &Tracer,
    metrics: &MetricsRegistry,
) -> EncodedColoring {
    let encoder = Encoder::begin(graph, k, encoding, symmetry, selectors, tracer);
    let mut formula = CnfFormula::with_vars(encoder.num_vars());
    let stats = encoder.emit(&mut formula, LoadPass::Fill);
    let (decode, cnf_translation) = encoder.finish(&stats, metrics);
    EncodedColoring {
        formula,
        decode,
        stats,
        cnf_translation,
    }
}

/// One encode in progress: its open `encode` span, the scheme emitted for
/// domain size K, the vertex blocks and the selector layout — everything
/// the clause writer needs to write the clauses into a sink, as often as
/// asked.
pub(crate) struct Encoder<'a> {
    span: SpanGuard,
    tracer: &'a Tracer,
    graph: &'a CspGraph,
    encoding: &'a Encoding,
    symmetry: SymmetryHeuristic,
    /// `symmetry`'s restricted vertex sequence: position `p` may only use
    /// colors `0..=p`.
    restricted: Vec<u32>,
    selectors: Selectors<'a>,
    /// `negations[d]`: the clause forbidding pattern `d`, over the scheme's
    /// local variables.
    negations: Vec<Vec<Lit>>,
    decode: DecodeMap,
}

impl<'a> Encoder<'a> {
    /// Opens the `encode` span, emits the scheme under it and picks the
    /// symmetry heuristic's restricted vertices.
    ///
    /// # Panics
    ///
    /// Panics if a [`Selectors::PerGroup`] slice does not hold exactly one
    /// group id per vertex.
    pub(crate) fn begin(
        graph: &'a CspGraph,
        k: u32,
        encoding: &'a Encoding,
        symmetry: SymmetryHeuristic,
        selectors: Selectors<'a>,
        tracer: &'a Tracer,
    ) -> Self {
        let n = graph.num_vertices();
        let span = tracer.span_with(
            "encode",
            [
                ("encoding", FieldValue::from(encoding.name())),
                ("k", FieldValue::from(k)),
                ("vertices", FieldValue::from(n)),
                ("edges", FieldValue::from(graph.num_edges())),
                ("selectors", FieldValue::from(selectors.name())),
            ],
        );
        let num_selectors = match selectors {
            Selectors::None => 0,
            Selectors::PerTrack => k,
            Selectors::PerGroup(groups) => {
                assert_eq!(
                    groups.len(),
                    n,
                    "need exactly one group id per vertex ({} ids for {n} vertices)",
                    groups.len()
                );
                groups.iter().map(|&g| g + 1).max().unwrap_or(0)
            }
        };
        // Deleting groups would make full-graph symmetry restrictions unsound.
        let symmetry = match selectors {
            Selectors::PerGroup(_) => SymmetryHeuristic::None,
            _ => symmetry,
        };
        let scheme = if k == 0 {
            SchemeCnf::default()
        } else {
            encoding.emit_traced(k, tracer)
        };
        let blocks = scheme.num_vars * n as u32;
        let offsets: Vec<u32> = (0..n as u32).map(|v| v * scheme.num_vars).collect();
        let negations = scheme
            .patterns
            .iter()
            .map(Pattern::negation_clause)
            .collect();
        Encoder {
            span,
            tracer,
            graph,
            encoding,
            symmetry,
            restricted: symmetry.restricted_sequence(graph, k),
            selectors,
            negations,
            decode: DecodeMap {
                scheme,
                offsets,
                num_colors: k,
                selectors: blocks..blocks + num_selectors,
            },
        }
    }

    /// Variables of the encode: every vertex block, then the selectors.
    fn num_vars(&self) -> u32 {
        self.decode.selectors.end
    }

    /// Encodes into `solver` in one count, reserve and fill
    /// ([`CdclSolver::load`]), closes the span over both and returns the
    /// decode map, the CNF shape and the span's wall time — encode plus
    /// load. No [`CnfFormula`] is built.
    pub(crate) fn load(
        self,
        solver: &mut CdclSolver,
        metrics: &MetricsRegistry,
    ) -> (DecodeMap, FormulaStats, Duration) {
        let mut stats = FormulaStats::default();
        solver.load(self.num_vars(), |sink, pass| stats = self.emit(sink, pass));
        let (decode, cnf_translation) = self.finish(&stats, metrics);
        (decode, stats, cnf_translation)
    }

    /// Writes every clause into `sink` and returns their shape. Only the
    /// [`LoadPass::Fill`] pass records the section spans, so a counting
    /// pass leaves no trace.
    fn emit(&self, sink: &mut dyn ClauseSink, pass: LoadPass) -> FormulaStats {
        let untraced = Tracer::disabled();
        let tracer = match pass {
            LoadPass::Count => &untraced,
            LoadPass::Fill => self.tracer,
        };
        let mut out = Shaped {
            sink,
            stats: FormulaStats {
                num_vars: self.num_vars(),
                ..FormulaStats::default()
            },
            buf: Vec::new(),
        };
        let DecodeMap {
            offsets, selectors, ..
        } = &self.decode;
        let negations = &self.negations;
        let groups = match self.selectors {
            Selectors::PerGroup(groups) => Some(groups),
            _ => None,
        };
        let selector = |id: u32| Lit::positive(Var::new(selectors.start + id));
        // The literal releasing vertex `v`'s clauses: its group's `¬s_g`.
        let guard = |v: u32| groups.map(|groups| !selector(groups[v as usize]));

        // Structural clauses, one copy per vertex.
        let structural = tracer.span("structural_clauses");
        for (v, &offset) in (0u32..).zip(offsets) {
            for clause in &self.decode.scheme.structural {
                out.add(guard(v).into_iter().chain(shifted(clause, offset)));
            }
        }
        structural.counter("clauses", out.stats.num_clauses as u64);
        drop(structural);

        // Conflict clauses: for each edge and common value, forbid both
        // patterns simultaneously — guarded by both endpoints' groups, so the
        // clause only bites while both are active.
        let conflicts = tracer.span("conflict_clauses");
        let before_conflicts = out.stats.num_clauses;
        for (u, v) in self.graph.edges() {
            let gu = guard(u);
            let gv = guard(v).filter(|&g| Some(g) != gu);
            let (ou, ov) = (offsets[u as usize], offsets[v as usize]);
            for neg in negations {
                out.add(
                    gu.into_iter()
                        .chain(gv)
                        .chain(shifted(neg, ou))
                        .chain(shifted(neg, ov)),
                );
            }
        }
        conflicts.counter("clauses", (out.stats.num_clauses - before_conflicts) as u64);
        drop(conflicts);

        // Symmetry restrictions: position p (0-based) may only use colors 0..=p.
        let sym = tracer.span_with(
            "symmetry_breaking",
            [("heuristic", FieldValue::from(self.symmetry.name()))],
        );
        let before_sym = out.stats.num_clauses;
        for (p, &v) in self.restricted.iter().enumerate() {
            for neg in negations.iter().skip(p + 1) {
                out.add(shifted(neg, offsets[v as usize]));
            }
        }
        sym.counter("clauses", (out.stats.num_clauses - before_sym) as u64);
        drop(sym);

        if self.selectors == Selectors::PerTrack {
            let activations = tracer.span("activation_selectors");
            let before = out.stats.num_clauses;
            for &offset in offsets {
                for (d, neg) in (0u32..).zip(negations) {
                    out.add(std::iter::once(!selector(d)).chain(shifted(neg, offset)));
                }
            }
            activations.counter("clauses", (out.stats.num_clauses - before) as u64);
            drop(activations);
        }

        if self.decode.num_colors == 0 {
            // No tracks at all. Per group, each populated group is unroutable
            // by itself: one unit clause against its selector (one per group,
            // not per vertex, so cores stay minimal).
            match groups {
                Some(groups) => {
                    let mut populated = vec![false; selectors.len()];
                    for &g in groups {
                        if !std::mem::replace(&mut populated[g as usize], true) {
                            out.add([!selector(g)]);
                        }
                    }
                }
                None if self.graph.num_vertices() > 0 => out.add(std::iter::empty()),
                None => {}
            }
        }
        out.stats
    }

    /// Records the CNF shape on the span, closes it and feeds the
    /// `encode.*` histograms; returns the decode map and the span's wall
    /// time.
    fn finish(self, stats: &FormulaStats, metrics: &MetricsRegistry) -> (DecodeMap, Duration) {
        let span = self.span;
        span.counter("variables", stats.num_vars as u64);
        span.counter("clauses", stats.num_clauses as u64);
        span.counter("literals", stats.num_literals as u64);
        let cnf_translation = span.close();
        if metrics.is_enabled() {
            let name = self.encoding.name();
            let micros = u64::try_from(cnf_translation.as_micros()).unwrap_or(u64::MAX);
            metrics
                .histogram(&format!("encode.wall_us.{name}"))
                .record(micros);
            metrics
                .histogram(&format!("encode.vars.{name}"))
                .record(stats.num_vars as u64);
            metrics
                .histogram(&format!("encode.clauses.{name}"))
                .record(stats.num_clauses as u64);
            metrics
                .histogram(&format!("encode.literals.{name}"))
                .record(stats.num_literals as u64);
        }
        (self.decode, cnf_translation)
    }
}

/// The encoder's view of a sink: each clause is built in one reused
/// buffer, counted, then handed on.
struct Shaped<'s> {
    sink: &'s mut dyn ClauseSink,
    stats: FormulaStats,
    buf: Vec<Lit>,
}

impl Shaped<'_> {
    fn add(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.buf.clear();
        self.buf.extend(lits);
        self.stats.add_clause(&self.buf);
        self.sink.add_clause(&self.buf);
    }
}

/// `lits` moved into the variable block starting at `offset`.
fn shifted(lits: &[Lit], offset: u32) -> impl Iterator<Item = Lit> + '_ {
    lits.iter()
        .map(move |&l| Lit::from_code(l.code() + 2 * offset))
}

/// Encodes the K-coloring problem of `graph` as plain CNF: [`encode`]
/// without selectors, trace or metrics.
///
/// # Examples
///
/// ```
/// use satroute_coloring::CspGraph;
/// use satroute_core::{encode_coloring, EncodingId, SymmetryHeuristic};
///
/// let triangle = CspGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
/// let enc = encode_coloring(
///     &triangle,
///     3,
///     &EncodingId::Muldirect.encoding(),
///     SymmetryHeuristic::None,
/// );
/// // 3 vertices × 3 value variables.
/// assert_eq!(enc.formula.num_vars(), 9);
/// ```
pub fn encode_coloring(
    graph: &CspGraph,
    k: u32,
    encoding: &Encoding,
    symmetry: SymmetryHeuristic,
) -> EncodedColoring {
    encode(
        graph,
        k,
        encoding,
        symmetry,
        Selectors::None,
        &Tracer::disabled(),
        &MetricsRegistry::disabled(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::EncodingId;
    use satroute_coloring::random_graph;

    fn triangle() -> CspGraph {
        CspGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn col_vertex_bound_is_the_variable_limit() {
        // One variable per vertex at the least, so a `.col` header may
        // declare no more vertices than a CNF has variables.
        assert_eq!(satroute_coloring::dimacs::MAX_VERTICES, Var::LIMIT);
    }

    #[test]
    fn zero_colors_nonempty_graph_is_trivially_unsat() {
        let enc = encode_coloring(
            &triangle(),
            0,
            &EncodingId::Log.encoding(),
            SymmetryHeuristic::None,
        );
        assert_eq!(enc.formula.num_clauses(), 1);
        assert_eq!(enc.formula.clauses().next(), Some(&[][..]));
    }

    #[test]
    fn zero_colors_empty_graph_is_trivially_sat() {
        let enc = encode_coloring(
            &CspGraph::new(0),
            0,
            &EncodingId::Log.encoding(),
            SymmetryHeuristic::None,
        );
        assert_eq!(enc.formula.num_clauses(), 0);
    }

    #[test]
    fn muldirect_triangle_clause_counts() {
        // Per vertex: 1 ALO clause. Per edge: 3 conflict clauses.
        let enc = encode_coloring(
            &triangle(),
            3,
            &EncodingId::Muldirect.encoding(),
            SymmetryHeuristic::None,
        );
        assert_eq!(enc.formula.num_clauses(), 3 + 9);
        assert_eq!(enc.formula.num_vars(), 9);
    }

    #[test]
    fn direct_triangle_clause_counts() {
        // Per vertex: 1 ALO + 3 AMO. Per edge: 3 conflicts.
        let enc = encode_coloring(
            &triangle(),
            3,
            &EncodingId::Direct.encoding(),
            SymmetryHeuristic::None,
        );
        assert_eq!(enc.formula.num_clauses(), 3 * 4 + 9);
    }

    #[test]
    fn table1_conflict_clause_shape_for_log() {
        // Table 1's log conflict clauses on a single edge, k = 3, are
        // 4-literal clauses (two 2-literal patterns negated).
        let g = CspGraph::from_edges(2, [(0, 1)]);
        let enc = encode_coloring(&g, 3, &EncodingId::Log.encoding(), SymmetryHeuristic::None);
        // 2 illegal-value clauses + 3 conflict clauses.
        assert_eq!(enc.formula.num_clauses(), 5);
        let conflicts: Vec<_> = enc.formula.clauses().filter(|c| c.len() == 4).collect();
        assert_eq!(conflicts.len(), 3);
    }

    #[test]
    fn symmetry_restrictions_add_unit_like_clauses() {
        let without = encode_coloring(
            &triangle(),
            3,
            &EncodingId::Muldirect.encoding(),
            SymmetryHeuristic::None,
        );
        let with = encode_coloring(
            &triangle(),
            3,
            &EncodingId::Muldirect.encoding(),
            SymmetryHeuristic::S1,
        );
        // Sequence has 2 vertices: position 0 forbids colors 1,2 (2
        // clauses), position 1 forbids color 2 (1 clause).
        assert_eq!(
            with.formula.num_clauses(),
            without.formula.num_clauses() + 3
        );
    }

    #[test]
    fn ite_encodings_have_no_structural_clauses() {
        let enc = encode_coloring(
            &triangle(),
            5,
            &EncodingId::IteLog.encoding(),
            SymmetryHeuristic::None,
        );
        // Only conflict clauses: 3 edges × 5 values.
        assert_eq!(enc.formula.num_clauses(), 15);
    }

    /// [`encode`] with selectors, untraced.
    fn encode_with(
        graph: &CspGraph,
        k: u32,
        id: EncodingId,
        symmetry: SymmetryHeuristic,
        selectors: Selectors<'_>,
    ) -> EncodedColoring {
        encode(
            graph,
            k,
            &id.encoding(),
            symmetry,
            selectors,
            &Tracer::disabled(),
            &MetricsRegistry::disabled(),
        )
    }

    #[test]
    fn incremental_encoding_adds_selectors_after_vertex_blocks() {
        let enc = encode_with(
            &triangle(),
            3,
            EncodingId::Muldirect,
            SymmetryHeuristic::None,
            Selectors::PerTrack,
        );
        let per = enc.decode.scheme.num_vars;
        // Decode map identical to the plain encode; selectors appended.
        assert_eq!(enc.decode.offsets, vec![0, per, 2 * per]);
        assert_eq!(enc.formula.num_vars(), 3 * per + 3);
        assert_eq!(enc.decode.num_selectors(), 3);
        // Base clauses (3 ALO + 9 conflicts) + 3 vertices × 3 activations.
        assert_eq!(enc.formula.num_clauses(), 12 + 9);
    }

    #[test]
    fn incremental_assumption_vectors_probe_suffixes() {
        let enc = encode_with(
            &triangle(),
            3,
            EncodingId::IteLinear,
            SymmetryHeuristic::S1,
            Selectors::PerTrack,
        );
        let decode = &enc.decode;
        // Full-width probe assumes nothing; width 1 disables tracks 2 and
        // 1, highest first; width 0 disables everything.
        assert!(decode.assumptions_for_width(3).is_empty());
        assert_eq!(
            decode.assumptions_for_width(1),
            vec![decode.selector(2), decode.selector(1)]
        );
        assert_eq!(decode.assumptions_for_width(0).len(), 3);
        assert_eq!(decode.selector_id(decode.selector(2)), Some(2));
        assert_eq!(decode.selector_id(!decode.selector(2)), None);
    }

    #[test]
    fn grouped_encoding_guards_clauses_and_keeps_decode_map() {
        // Triangle, vertices 0 and 1 in group 0, vertex 2 in group 1.
        let enc = encode_with(
            &triangle(),
            3,
            EncodingId::Muldirect,
            SymmetryHeuristic::None,
            Selectors::PerGroup(&[0, 0, 1]),
        );
        let decode = &enc.decode;
        assert_eq!(decode.num_selectors(), 2);
        // Vertex blocks first, then one selector variable per group.
        assert_eq!(decode.offsets, vec![0, 3, 6]);
        assert_eq!(enc.formula.num_vars(), 9 + 2);
        // Same clause count as the ungrouped encode (3 ALO + 9 conflicts),
        // each clause merely widened by its guard literal(s).
        assert_eq!(enc.formula.num_clauses(), 3 + 9);
        // ALO clauses gain one guard; intra-group conflicts one, the
        // cross-group ones two.
        let lens: Vec<usize> = enc.formula.clauses().map(<[Lit]>::len).collect();
        assert_eq!(lens.iter().filter(|&&l| l == 4).count(), 3 + 6);
        assert_eq!(lens.iter().filter(|&&l| l == 3).count(), 3);
        assert_eq!(decode.selector_id(decode.selector(1)), Some(1));
        assert_eq!(decode.selector_id(!decode.selector(1)), None);
        assert_eq!(
            decode.assumptions_for([1, 0, 1]),
            decode.assumptions_for(0..2)
        );
    }

    #[test]
    fn grouped_zero_colors_emits_one_unit_guard_per_populated_group() {
        let enc = encode_with(
            &triangle(),
            0,
            EncodingId::Log,
            SymmetryHeuristic::None,
            Selectors::PerGroup(&[0, 2, 2]),
        );
        // Groups 0 and 2 are populated, group 1 is not.
        assert_eq!(enc.decode.num_selectors(), 3);
        assert_eq!(enc.formula.num_clauses(), 2);
        assert!(enc.formula.clauses().all(|c| c.len() == 1));
    }

    #[test]
    fn selector_kinds_only_add_to_the_plain_encode() {
        // Every encoding, symmetry and width on seeded random graphs: a
        // per-track encode is the plain encode plus n·k trailing
        // activation clauses, and a per-group encode is the symmetry-free
        // plain encode with a guard prefix on every clause — so the three
        // selector kinds cannot drift apart.
        for seed in 0..6u64 {
            let n = 6 + seed as usize;
            let graph = random_graph(n, 0.3 + 0.06 * seed as f64, seed);
            let groups: Vec<u32> = (0..n as u32).map(|v| v / 2).collect();
            for id in EncodingId::ALL {
                for sym in SymmetryHeuristic::ALL {
                    for k in 1..=5u32 {
                        let at = format!("{id}/{sym} k={k} seed={seed}");
                        let plain = encode_with(&graph, k, id, sym, Selectors::None);
                        let track = encode_with(&graph, k, id, sym, Selectors::PerTrack);
                        // The shape counted while emitting is the
                        // formula's own.
                        assert_eq!(plain.stats, plain.formula.stats(), "{at}");
                        assert_eq!(track.stats, track.formula.stats(), "{at}");
                        let activations = n * k as usize;
                        let clauses: Vec<&[Lit]> = track.formula.clauses().collect();
                        let plain_clauses: Vec<&[Lit]> = plain.formula.clauses().collect();
                        assert_eq!(
                            &clauses[..clauses.len() - activations],
                            plain_clauses,
                            "{at}"
                        );
                        assert_eq!(track.decode.offsets, plain.decode.offsets, "{at}");

                        let free =
                            encode_with(&graph, k, id, SymmetryHeuristic::None, Selectors::None);
                        let grouped = encode_with(&graph, k, id, sym, Selectors::PerGroup(&groups));
                        assert_eq!(grouped.stats, grouped.formula.stats(), "{at}");
                        let stripped: Vec<Vec<Lit>> = grouped
                            .formula
                            .clauses()
                            .map(|lits| {
                                let guards = lits
                                    .iter()
                                    .take_while(|&&l| grouped.decode.selector_id(!l).is_some())
                                    .count();
                                assert!((1..=2).contains(&guards), "{at}: unguarded clause");
                                lits[guards..].to_vec()
                            })
                            .collect();
                        let expected: Vec<Vec<Lit>> =
                            free.formula.clauses().map(<[Lit]>::to_vec).collect();
                        assert_eq!(stripped, expected, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn loading_through_the_sink_searches_like_add_formula() {
        // A solver the encoder writes into and one loaded from the encoded
        // formula must hold the same clauses in the same watch order, so
        // they search alike: same verdict, conflicts, decisions and
        // propagations, and the same counted shape.
        for seed in 0..4u64 {
            let n = 6 + seed as usize;
            let graph = random_graph(n, 0.3 + 0.06 * seed as f64, seed);
            let groups: Vec<u32> = (0..n as u32).map(|v| v / 2).collect();
            for id in EncodingId::ALL {
                for sym in SymmetryHeuristic::ALL {
                    for selectors in [
                        Selectors::None,
                        Selectors::PerTrack,
                        Selectors::PerGroup(&groups),
                    ] {
                        for k in 1..=3u32 {
                            let at = format!("{id}/{sym} {selectors:?} k={k} seed={seed}");
                            let encoding = id.encoding();
                            let tracer = Tracer::disabled();
                            let metrics = MetricsRegistry::disabled();
                            let encoded =
                                encode(&graph, k, &encoding, sym, selectors, &tracer, &metrics);
                            let mut copied = CdclSolver::new();
                            copied.add_formula(&encoded.formula);

                            let mut sunk = CdclSolver::new();
                            let (decode, stats, _) =
                                Encoder::begin(&graph, k, &encoding, sym, selectors, &tracer)
                                    .load(&mut sunk, &metrics);
                            assert_eq!(stats, encoded.stats, "{at}");
                            assert_eq!(decode.offsets, encoded.decode.offsets, "{at}");
                            assert_eq!(sunk.num_vars(), copied.num_vars(), "{at}");

                            // Per track, probe one width below the
                            // encoded one; per group, every group.
                            let assumptions = match selectors {
                                Selectors::None => Vec::new(),
                                Selectors::PerTrack => decode.assumptions_for_width(k - 1),
                                Selectors::PerGroup(groups) => {
                                    decode.assumptions_for(groups.iter().copied())
                                }
                            };
                            let outcome = sunk.solve_with_assumptions(&assumptions);
                            assert_eq!(
                                outcome,
                                copied.solve_with_assumptions(&assumptions),
                                "{at}"
                            );
                            let (a, b) = (sunk.stats(), copied.stats());
                            assert_eq!(
                                (a.conflicts, a.decisions, a.propagations),
                                (b.conflicts, b.decisions, b.propagations),
                                "{at}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn vertex_blocks_are_disjoint() {
        let enc = encode_coloring(
            &triangle(),
            4,
            &EncodingId::IteLinear.encoding(),
            SymmetryHeuristic::None,
        );
        let per = enc.decode.scheme.num_vars;
        assert_eq!(enc.decode.offsets, vec![0, per, 2 * per]);
        assert_eq!(enc.formula.num_vars(), 3 * per);
    }
}
