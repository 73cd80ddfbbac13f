//! Property tests for the inprocessing engine (issue tentpole): running
//! vivification, subsumption and bounded variable elimination between
//! restarts must change nothing observable about the *answer* — verdict
//! and model validity — versus an inprocessing-free run on random
//! coloring instances; DRAT proofs emitted while the passes rewrite the
//! clause database must still verify against the ORIGINAL formula; and
//! assumption selectors frozen by the incremental ladder must never be
//! eliminated, while ordinary variables demonstrably are (so the
//! freezing property is not vacuous).
//!
//! Unlike the GC properties (`tests/arena_gc.rs`), conflict counts are
//! NOT compared here: inprocessing legitimately changes the search
//! trajectory — that is its point. The invariant is the verdict.

use satroute::coloring::{exact, random_graph};
use satroute::core::{encode, encode_coloring, EncodingId, Selectors, SymmetryHeuristic};
use satroute::solver::{CdclSolver, InprocessConfig, SolverConfig};
use satroute::{MetricsRegistry, Tracer};

/// Rounds fire at solve start and then every ~60 conflicts (no
/// back-off), so even the micro-instances below inprocess many times.
fn aggressive() -> SolverConfig {
    SolverConfig {
        inprocess: InprocessConfig {
            enabled: true,
            interval: 60,
            backoff: 1.0,
            ..InprocessConfig::on()
        },
        ..SolverConfig::default()
    }
}

fn formula_for(seed: u64, k: u32) -> satroute::cnf::CnfFormula {
    let n = 10 + (seed as usize % 5);
    let g = random_graph(n, 0.5, seed);
    encode_coloring(
        &g,
        k,
        &EncodingId::Muldirect.encoding(),
        SymmetryHeuristic::S1,
    )
    .formula
}

fn chromatic(seed: u64) -> u32 {
    let n = 10 + (seed as usize % 5);
    exact::chromatic_number(&random_graph(n, 0.5, seed))
}

/// Across 24 random colorings on both sides of the phase transition
/// (`chi - 1` UNSAT, `chi` SAT), the aggressive-inprocessing run reaches
/// the verdict the stock solver reaches, and any model it returns —
/// reconstructed through the elimination stack — satisfies the original
/// formula.
#[test]
fn inprocessing_never_changes_the_verdict_on_random_colorings() {
    let mut rounds = 0u64;
    let mut simplifications = 0u64;
    for seed in 0..12u64 {
        let chi = chromatic(seed);
        for k in [chi.saturating_sub(1).max(1), chi] {
            let f = formula_for(seed, k);

            let mut inp = CdclSolver::with_config(aggressive());
            inp.add_formula(&f);
            let out_inp = inp.solve();

            let mut plain = CdclSolver::new();
            plain.add_formula(&f);
            let out_plain = plain.solve();

            assert_eq!(
                out_inp.is_sat(),
                out_plain.is_sat(),
                "seed {seed}, k {k}: inprocessing flipped the verdict"
            );
            if let Some(m) = out_inp.model() {
                assert!(
                    f.is_satisfied_by(m),
                    "seed {seed}, k {k}: reconstructed model violates the original formula"
                );
            }
            if let Some(m) = out_plain.model() {
                assert!(
                    f.is_satisfied_by(m),
                    "seed {seed}, k {k}: control model bogus"
                );
            }
            let s = inp.stats();
            rounds += s.inprocess_runs;
            simplifications += s.vivified_literals
                + s.subsumed_clauses
                + s.strengthened_clauses
                + s.eliminated_vars;
            assert_eq!(
                plain.stats().inprocess_runs,
                0,
                "control must not inprocess"
            );
        }
    }
    assert!(
        rounds > 0,
        "the property is vacuous unless rounds actually ran"
    );
    assert!(
        simplifications > 0,
        "the property is vacuous unless some pass actually simplified something"
    );
}

/// DRAT proofs logged while vivification strengthens clauses,
/// subsumption deletes them, and BVE swaps variables out for resolvents
/// must still verify against the original formula: every derived clause
/// is logged as an addition before any clause it replaces is deleted,
/// and round boundaries re-log the root-level trail so the checker's
/// unit propagation survives deletions.
#[test]
fn drat_proofs_verify_with_aggressive_inprocessing() {
    let mut checked = 0;
    let mut simplifications = 0u64;
    for seed in 0..12u64 {
        let chi = chromatic(seed);
        let k = chi.saturating_sub(1).max(1);
        if k == chi {
            continue; // 1-chromatic graph: no UNSAT side to prove
        }
        let f = formula_for(seed, k);
        let mut s = CdclSolver::with_config(aggressive());
        s.enable_proof_logging();
        s.add_formula(&f);
        assert!(s.solve().is_unsat(), "seed {seed}: k < chi must be UNSAT");
        let st = s.stats();
        simplifications += st.vivified_literals
            + st.subsumed_clauses
            + st.strengthened_clauses
            + st.eliminated_vars;
        let proof = s.take_proof().expect("proof logging was enabled");
        proof
            .check(&f)
            .unwrap_or_else(|e| panic!("seed {seed}: proof broken under inprocessing: {e}"));
        checked += 1;
    }
    assert!(checked >= 4, "property needs a real sample, got {checked}");
    assert!(
        simplifications > 0,
        "the proofs never exercised an inprocessing rewrite"
    );
}

/// The incremental ladder's activation selectors must survive every
/// inprocessing round: eliminating a variable the next probe will
/// assume would make `solve_with_assumptions` answer about the wrong
/// formula. `solve_with_assumptions` auto-freezes the variables it is
/// handed, but the first (loosest) probe assumes NOTHING — so the
/// ladder protocol, as [`satroute::core::IncrementalSession`] builds
/// it, freezes every selector up front with `freeze_var`. This test
/// follows that protocol and walks a full downward ladder asserting
/// (a) no selector is ever eliminated, (b) the per-width verdicts
/// match an inprocessing-free cold ladder, and (c) ordinary variables
/// DO get eliminated along the way — without (c) the freezing property
/// would pass vacuously on a BVE pass that never fires.
#[test]
fn frozen_selectors_survive_ladder_inprocessing() {
    let mut eliminated_total = 0u64;
    let mut probes = 0u32;
    for seed in [3u64, 5, 8] {
        let n = 12 + (seed as usize % 4);
        let g = random_graph(n, 0.5, seed);
        let chi = exact::chromatic_number(&g);
        let upper = chi + 2;
        let enc = encode(
            &g,
            upper,
            &EncodingId::Muldirect.encoding(),
            SymmetryHeuristic::None,
            Selectors::PerTrack,
            &Tracer::disabled(),
            &MetricsRegistry::disabled(),
        );
        let selectors: Vec<_> = (0..upper).map(|d| enc.decode.selector(d)).collect();

        let mut warm = CdclSolver::with_config(aggressive());
        warm.add_formula(&enc.formula);
        for &sel in &selectors {
            warm.freeze_var(sel.var());
        }

        for k in (1..=upper).rev() {
            let assumptions = enc.decode.assumptions_for_width(k);
            let out = warm.solve_with_assumptions(&assumptions);
            probes += 1;

            for &sel in &selectors {
                assert!(
                    warm.is_frozen(sel.var()),
                    "seed {seed}, width {k}: selector {sel:?} lost its freeze"
                );
                assert!(
                    !warm.is_eliminated(sel.var()),
                    "seed {seed}, width {k}: frozen selector {sel:?} was eliminated"
                );
            }

            // Cold control: fresh stock solver, same width, re-encoded
            // non-incrementally (no selectors at all).
            let cold_f = encode_coloring(
                &g,
                k,
                &EncodingId::Muldirect.encoding(),
                SymmetryHeuristic::None,
            )
            .formula;
            let mut cold = CdclSolver::new();
            cold.add_formula(&cold_f);
            let cold_out = cold.solve();
            assert_eq!(
                out.is_sat(),
                cold_out.is_sat(),
                "seed {seed}, width {k}: warm ladder with inprocessing disagrees with cold solve"
            );
            if out.is_unsat() {
                break; // widths below k are unsat too; ladder is done
            }
        }
        eliminated_total += warm.stats().eliminated_vars;
    }
    assert!(probes >= 6, "ladders must actually probe, got {probes}");
    assert!(
        eliminated_total > 0,
        "no unfrozen variable was ever eliminated — the freezing property is vacuous"
    );
}
