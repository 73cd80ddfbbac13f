//! Comparing two `BENCH_*.json` artifacts and gating on regressions
//! (`satroute bench compare`).
//!
//! The gate checks exactly the columns that are properties of the code
//! rather than of the machine: a matched cell fails on any difference in
//! conflicts, decisions, propagations, CNF variables or CNF clauses, in
//! either direction, and on a changed decided outcome; a baseline cell
//! missing from the candidate fails too. A change that alters the search
//! therefore re-records the baselines it moves. Wall time is reported
//! per cell and never gated: on a shared host it moves by tens of percent
//! between runs of the same binary, so only paired A/B runs can judge it.
//! For the same reason no suite may pin a wall-clock stop: an
//! `unknown:deadline` cell's counters depend on the host, not the code.
//! The `env` fingerprint stays in every artifact as a record.

use satroute_obs::json::Value;
use satroute_obs::{Align, TextTable};

use crate::artifact::{BenchArtifact, BenchCell};

/// One gated column of one cell that differs from the baseline.
#[derive(Clone, Debug)]
pub struct Regression {
    /// The cell id.
    pub cell: String,
    /// Which column differs (`conflicts`, `decisions`, `propagations`,
    /// `cnf_vars`, `cnf_clauses`, `outcome`, `missing`).
    pub metric: String,
    /// Human-readable detail (`50 -> 51 (+1)`).
    pub detail: String,
}

/// A matched cell's deltas.
#[derive(Clone, Debug)]
pub struct CellComparison {
    /// The cell id.
    pub id: String,
    /// Baseline / candidate median wall seconds.
    pub wall: (f64, f64),
    /// Baseline / candidate conflicts.
    pub conflicts: (u64, u64),
    /// Baseline / candidate CNF clauses.
    pub cnf_clauses: (u64, u64),
    /// Baseline / candidate outcome strings.
    pub outcome: (String, String),
}

impl CellComparison {
    /// Relative wall-time change in percent (positive = slower).
    #[must_use]
    pub fn wall_delta_pct(&self) -> f64 {
        let (base, cand) = self.wall;
        if base > 0.0 {
            (cand - base) / base * 100.0
        } else if cand > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

/// The result of comparing a candidate artifact against a baseline.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Per-cell deltas for cells present in both artifacts, baseline
    /// order.
    pub cells: Vec<CellComparison>,
    /// Every gated column that differs; empty unless gating was asked for.
    pub regressions: Vec<Regression>,
}

impl Comparison {
    /// True when gating was requested and at least one regression was
    /// found — the CLI exits nonzero on this.
    #[must_use]
    pub fn gate_failed(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Renders the per-cell delta table plus a verdict line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut table = TextTable::new([
            ("cell", Align::Left),
            ("base_s", Align::Right),
            ("cand_s", Align::Right),
            ("wall%", Align::Right),
            ("conflicts", Align::Right),
            ("clauses", Align::Right),
            ("outcome", Align::Left),
        ]);
        for cell in &self.cells {
            table.row([
                cell.id.clone(),
                format!("{:.3}", cell.wall.0),
                format!("{:.3}", cell.wall.1),
                format!("{:+.1}", cell.wall_delta_pct()),
                format!("{} -> {}", cell.conflicts.0, cell.conflicts.1),
                format!("{} -> {}", cell.cnf_clauses.0, cell.cnf_clauses.1),
                if cell.outcome.0 == cell.outcome.1 {
                    cell.outcome.1.clone()
                } else {
                    format!("{}!={}", cell.outcome.0, cell.outcome.1)
                },
            ]);
        }
        let mut out = table.render();
        if self.regressions.is_empty() {
            out.push_str("OK: no gated regressions\n");
        } else {
            for r in &self.regressions {
                out.push_str(&format!(
                    "REGRESSION {} {}: {}\n",
                    r.cell, r.metric, r.detail
                ));
            }
        }
        out
    }

    /// Machine-readable form of the comparison.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object([
            ("gate_failed", Value::Bool(self.gate_failed())),
            (
                "cells",
                Value::array(self.cells.iter().map(|c| {
                    Value::object([
                        ("id", Value::string(&c.id)),
                        ("base_wall_s", Value::from(c.wall.0)),
                        ("cand_wall_s", Value::from(c.wall.1)),
                        ("wall_delta_pct", Value::from(c.wall_delta_pct())),
                        ("base_conflicts", Value::from(c.conflicts.0)),
                        ("cand_conflicts", Value::from(c.conflicts.1)),
                        ("base_cnf_clauses", Value::from(c.cnf_clauses.0)),
                        ("cand_cnf_clauses", Value::from(c.cnf_clauses.1)),
                        ("base_outcome", Value::string(&c.outcome.0)),
                        ("cand_outcome", Value::string(&c.outcome.1)),
                    ])
                })),
            ),
            (
                "regressions",
                Value::array(self.regressions.iter().map(|r| {
                    Value::object([
                        ("cell", Value::string(&r.cell)),
                        ("metric", Value::string(&r.metric)),
                        ("detail", Value::string(&r.detail)),
                    ])
                })),
            ),
        ])
    }
}

/// Compares `candidate` against `baseline` cell by cell; with `gate`,
/// every gated difference becomes a [`Regression`].
#[must_use]
pub fn compare(baseline: &BenchArtifact, candidate: &BenchArtifact, gate: bool) -> Comparison {
    let mut cells = Vec::new();
    let mut regressions = Vec::new();
    let mut push = |cell: &str, metric: &str, detail: String| {
        if gate {
            regressions.push(Regression {
                cell: cell.to_string(),
                metric: metric.to_string(),
                detail,
            });
        }
    };

    for base in &baseline.cells {
        let Some(cand) = candidate.cell(&base.id) else {
            push(
                &base.id,
                "missing",
                "cell present in baseline, absent in candidate".to_string(),
            );
            continue;
        };
        check_cell(base, cand, &mut push);
        cells.push(CellComparison {
            id: base.id.clone(),
            wall: (base.wall_time_s.median, cand.wall_time_s.median),
            conflicts: (base.conflicts, cand.conflicts),
            cnf_clauses: (base.cnf_clauses, cand.cnf_clauses),
            outcome: (base.outcome.clone(), cand.outcome.clone()),
        });
    }

    Comparison { cells, regressions }
}

fn check_cell(base: &BenchCell, cand: &BenchCell, push: &mut impl FnMut(&str, &str, String)) {
    // A decided baseline outcome that changes is always a regression: a
    // budget kicked in where none used to, or a deterministic answer
    // (verdict, minimum width, core, pass counters) moved.
    if base.outcome != cand.outcome && !base.outcome.starts_with("unknown") {
        push(
            &base.id,
            "outcome",
            format!("{} -> {}", base.outcome, cand.outcome),
        );
    }
    let counters = [
        ("conflicts", base.conflicts, cand.conflicts),
        ("decisions", base.decisions, cand.decisions),
        ("propagations", base.propagations, cand.propagations),
        ("cnf_vars", base.cnf_vars, cand.cnf_vars),
        ("cnf_clauses", base.cnf_clauses, cand.cnf_clauses),
    ];
    for (name, b, c) in counters {
        if b != c {
            let delta = i128::from(c) - i128::from(b);
            push(&base.id, name, format!("{b} -> {c} ({delta:+})"));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::artifact::{EnvFingerprint, HistogramSummary, WallTime, SCHEMA};

    fn env() -> EnvFingerprint {
        EnvFingerprint {
            git_rev: "aaa".into(),
            rustc: "rustc 1.95.0".into(),
            cpus: 8,
            opt_level: "release".into(),
            os: "linux".into(),
        }
    }

    fn cell(id: &str, wall: f64, conflicts: u64) -> BenchCell {
        BenchCell {
            id: id.to_string(),
            benchmark: "tiny_a".into(),
            encoding: "log".into(),
            symmetry: "s1".into(),
            width: 4,
            runs: 3,
            wall_time_s: WallTime {
                median: wall,
                min: wall,
                max: wall,
            },
            conflicts,
            decisions: 2 * conflicts,
            propagations: 10 * conflicts,
            props_per_sec: 1000.0,
            cnf_vars: 100,
            cnf_clauses: 400,
            outcome: "unsat".into(),
            histograms: BTreeMap::from([(
                "solver.lbd".to_string(),
                HistogramSummary {
                    count: conflicts,
                    sum: 3 * conflicts,
                    mean: 3.0,
                    p50: 3,
                    p90: 5,
                    p99: 7,
                    max: 7,
                },
            )]),
        }
    }

    fn artifact(cells: Vec<BenchCell>) -> BenchArtifact {
        BenchArtifact {
            schema: SCHEMA.to_string(),
            suite: "quick".to_string(),
            env: env(),
            cells,
        }
    }

    #[test]
    fn identical_artifacts_pass_the_gate() {
        let a = artifact(vec![cell("c1", 0.1, 50)]);
        let cmp = compare(&a, &a, true);
        assert!(!cmp.gate_failed(), "{:?}", cmp.regressions);
    }

    #[test]
    fn every_counter_gates_a_difference_of_one_either_way() {
        let base = cell("c1", 0.1, 50);
        for name in [
            "conflicts",
            "decisions",
            "propagations",
            "cnf_vars",
            "cnf_clauses",
        ] {
            for up in [true, false] {
                let mut moved = base.clone();
                let value = match name {
                    "conflicts" => &mut moved.conflicts,
                    "decisions" => &mut moved.decisions,
                    "propagations" => &mut moved.propagations,
                    "cnf_vars" => &mut moved.cnf_vars,
                    _ => &mut moved.cnf_clauses,
                };
                *value = if up { *value + 1 } else { *value - 1 };
                let cmp = compare(&artifact(vec![base.clone()]), &artifact(vec![moved]), true);
                assert_eq!(cmp.regressions.len(), 1, "{name}: {:?}", cmp.regressions);
                assert_eq!(cmp.regressions[0].metric, name);
                let sign = if up { "(+1)" } else { "(-1)" };
                assert!(cmp.regressions[0].detail.ends_with(sign), "{name}");
            }
        }
    }

    #[test]
    fn wall_time_is_reported_and_never_gated() {
        let base = artifact(vec![cell("c1", 0.1, 50)]);
        let cand = artifact(vec![cell("c1", 1.0, 50)]);
        let cmp = compare(&base, &cand, true);
        assert!(!cmp.gate_failed(), "{:?}", cmp.regressions);
        assert!((cmp.cells[0].wall_delta_pct() - 900.0).abs() < 1e-9);
        assert!(cmp.render_text().contains("+900.0"));
    }

    #[test]
    fn conflict_regression_gates_even_across_environments() {
        let base = artifact(vec![cell("c1", 0.1, 50)]);
        let mut cand = artifact(vec![cell("c1", 0.1, 100)]);
        cand.env.rustc = "rustc 1.96.0".into();
        let cmp = compare(&base, &cand, true);
        assert!(cmp.gate_failed());
        assert_eq!(cmp.regressions[0].metric, "conflicts");
    }

    #[test]
    fn missing_cell_and_outcome_flip_are_regressions() {
        let base = artifact(vec![cell("c1", 0.1, 50), cell("c2", 0.1, 50)]);
        let mut flipped = cell("c1", 0.1, 50);
        flipped.outcome = "unknown:wall".into();
        let cand = artifact(vec![flipped]);
        let cmp = compare(&base, &cand, true);
        let metrics: Vec<&str> = cmp.regressions.iter().map(|r| r.metric.as_str()).collect();
        assert!(metrics.contains(&"outcome"), "{metrics:?}");
        assert!(metrics.contains(&"missing"), "{metrics:?}");
    }

    #[test]
    fn a_changed_decided_outcome_is_a_regression_and_an_undecided_one_is_not() {
        let with_outcome = |outcome: &str| {
            let mut c = cell("c1", 0.1, 50);
            c.outcome = outcome.into();
            artifact(vec![c])
        };
        let base = with_outcome("min_width=9 greedy=10,9,11");
        let cmp = compare(&base, &with_outcome("min_width=9 greedy=10,9,12"), true);
        assert_eq!(cmp.regressions.len(), 1, "{:?}", cmp.regressions);
        assert_eq!(cmp.regressions[0].metric, "outcome");
        assert!(compare(&base, &base, true).regressions.is_empty());
        let stopped = with_outcome("unknown:wall");
        let cmp = compare(&stopped, &with_outcome("unknown:deadline"), true);
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
    }

    #[test]
    fn without_gate_regressions_are_not_collected() {
        let base = artifact(vec![cell("c1", 0.1, 50)]);
        let cand = artifact(vec![cell("c1", 0.5, 500)]);
        let cmp = compare(&base, &cand, false);
        assert!(!cmp.gate_failed());
        assert!(cmp.render_text().contains("OK"));
    }
}
