//! Soundness property tests for cube-and-conquer: the parallel search
//! must agree verdict-for-verdict with a sequential CDCL solve, the
//! all-UNSAT aggregation must rest on cubes that cover the entire
//! `2^k` assignment space of the split variables, and first-SAT-wins
//! cancellation must stop sibling cubes with `StopReason::Cancelled`.

use satroute::coloring::{exact, random_graph, CspGraph};
use satroute::core::{ColoringOutcome, Strategy};
use satroute::solver::StopReason;

/// Oversubscribes the single-core CI container so cubes genuinely
/// interleave.
const THREADS: usize = 4;

/// Property test: on ≥24 random instances spanning both sides of the
/// phase transition (`chi - 1` UNSAT, `chi` SAT), conquer reaches the
/// same verdict as the sequential solver of the same strategy; SAT
/// models are verified proper colorings and UNSAT runs cover the full
/// cube space.
#[test]
fn conquer_agrees_with_sequential_cdcl_on_random_instances() {
    let mut checked = 0;
    for seed in 0..12u64 {
        let n = 10 + (seed as usize % 5);
        let g = random_graph(n, 0.5, seed);
        let chi = exact::chromatic_number(&g);
        for k in [chi - 1, chi] {
            let sequential = Strategy::paper_best().solve(&g, k).run();
            let conquered = Strategy::paper_best()
                .cube_and_conquer(&g, k)
                .cube_vars(3)
                .threads(THREADS)
                .run();
            match (&sequential.outcome, &conquered.outcome) {
                (ColoringOutcome::Colorable(_), ColoringOutcome::Colorable(c)) => {
                    assert!(c.is_proper(&g), "seed {seed} k {k}: improper model");
                    let winner = conquered.winning_cube().expect("SAT run names a winner");
                    assert!(
                        matches!(winner.report.outcome, ColoringOutcome::Colorable(_)),
                        "seed {seed} k {k}: winner index does not point at the SAT cube"
                    );
                }
                (ColoringOutcome::Unsat, ColoringOutcome::Unsat) => {
                    assert_eq!(
                        conquered.cube_space(),
                        1 << conquered.split_vars.len(),
                        "seed {seed} k {k}: UNSAT verdict from an incomplete cube cover"
                    );
                    for cube in &conquered.cubes {
                        assert!(
                            matches!(cube.report.outcome, ColoringOutcome::Unsat),
                            "seed {seed} k {k}: cube {} not refuted yet aggregated UNSAT",
                            cube.index
                        );
                    }
                }
                (seq, con) => {
                    panic!("seed {seed} k {k}: sequential {seq:?} but conquer {con:?}")
                }
            }
            checked += 1;
        }
    }
    assert!(checked >= 24, "only {checked} instances checked");
}

/// The cube-space ledger is an invariant of *every* run, decided or not:
/// emitted cubes plus split-time propagation refutations always total
/// `2^(split vars)`, and each emitted cube's assumption prefix assigns
/// exactly the split variables.
#[test]
fn cube_space_is_fully_covered() {
    for seed in [5u64, 9, 11] {
        let g = random_graph(14, 0.5, seed);
        let chi = exact::chromatic_number(&g);
        for k in [chi - 1, chi] {
            for cube_vars in [1u32, 2, 3, 4] {
                let result = Strategy::paper_best()
                    .cube_and_conquer(&g, k)
                    .cube_vars(cube_vars)
                    .threads(2)
                    .run();
                assert_eq!(
                    result.cubes.len() as u64 + result.refuted_at_split,
                    1 << result.split_vars.len(),
                    "seed {seed} k {k} cube_vars {cube_vars}"
                );
                assert!(result.split_vars.len() <= cube_vars as usize);
                for cube in &result.cubes {
                    assert_eq!(
                        cube.cube.len(),
                        result.split_vars.len(),
                        "a cube assigns every split variable exactly once"
                    );
                    for (lit, var) in cube.cube.iter().zip(&result.split_vars) {
                        assert_eq!(lit.var(), *var, "cube literals follow split-var order");
                    }
                }
            }
        }
    }
}

/// First-SAT-wins: with one worker the cubes run in index order, so every
/// cube before the winner must have been refuted and every cube after it
/// must have been stopped by the winner's cancellation — observable as
/// `StopReason::Cancelled` on each sibling.
#[test]
fn first_sat_wins_cancels_the_sibling_cubes() {
    let mut saw_cancelled_sibling = false;
    for seed in [3u64, 7, 11, 13] {
        let g = random_graph(12, 0.4, seed);
        let chi = exact::chromatic_number(&g);
        // Extra colors keep many cubes satisfiable, so the winner is
        // usually not the last cube and siblings remain to cancel.
        let result = Strategy::paper_best()
            .cube_and_conquer(&g, chi + 1)
            .cube_vars(3)
            .threads(1)
            .run();
        let winner = result.winner.expect("chi + 1 colors are satisfiable");
        assert!(matches!(result.outcome, ColoringOutcome::Colorable(_)));
        for cube in &result.cubes {
            if cube.index < winner {
                assert!(
                    matches!(cube.report.outcome, ColoringOutcome::Unsat),
                    "seed {seed}: cube {} preceding the winner must be UNSAT",
                    cube.index
                );
            } else if cube.index > winner {
                assert_eq!(
                    cube.report.outcome.stop_reason(),
                    Some(StopReason::Cancelled),
                    "seed {seed}: cube {} after the winner must be cancelled",
                    cube.index
                );
                saw_cancelled_sibling = true;
            }
        }
    }
    assert!(
        saw_cancelled_sibling,
        "no run left siblings to cancel — the property was never exercised"
    );
}

/// Learnt-clause exchange across cubes must not change any verdict: with
/// sharing on and heavy oversubscription, conquer still matches the
/// oracle on both sides of the phase transition.
#[test]
fn sharing_conquer_agrees_with_the_oracle() {
    for seed in [9u64, 5] {
        let g = random_graph(14, 0.5, seed);
        let chi = exact::chromatic_number(&g);
        for k in [chi - 1, chi] {
            let result = Strategy::paper_best()
                .cube_and_conquer(&g, k)
                .cube_vars(3)
                .threads(THREADS)
                .share()
                .run();
            match &result.outcome {
                ColoringOutcome::Colorable(c) => {
                    assert_eq!(k, chi, "seed {seed}");
                    assert!(c.is_proper(&g), "seed {seed}");
                }
                ColoringOutcome::Unsat => assert_eq!(k, chi - 1, "seed {seed}"),
                other => panic!("seed {seed} k {k}: expected a decision, got {other:?}"),
            }
        }
    }
}

/// Degenerate inputs stay sound: an edgeless graph at width 1 (trivially
/// SAT) and width 0 on a graph with vertices (UNSAT via the totality
/// clauses) both come back correctly through the conquer path.
#[test]
fn degenerate_instances_survive_conquering() {
    let edgeless = CspGraph::new(4);
    let sat = Strategy::paper_best()
        .cube_and_conquer(&edgeless, 1)
        .cube_vars(2)
        .run();
    match &sat.outcome {
        ColoringOutcome::Colorable(c) => assert!(c.is_proper(&edgeless)),
        other => panic!("edgeless graph at width 1 must be colorable, got {other:?}"),
    }

    let triangle = CspGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
    let unsat = Strategy::paper_best()
        .cube_and_conquer(&triangle, 2)
        .cube_vars(2)
        .threads(2)
        .run();
    assert!(matches!(unsat.outcome, ColoringOutcome::Unsat));
    assert_eq!(unsat.cube_space(), 1 << unsat.split_vars.len());
}
