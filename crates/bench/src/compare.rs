//! Comparing two `BENCH_*.json` artifacts and gating on regressions
//! (`satroute bench compare`).
//!
//! Deterministic columns — outcome, conflicts, CNF shape, missing cells —
//! gate whenever `--gate` is on: for a pinned suite they are properties
//! of the code, not the machine. Wall time additionally requires the two
//! environment fingerprints to be timing-comparable
//! ([`EnvFingerprint::timing_comparable`]); comparing a laptop artifact
//! against a CI artifact still gates the deterministic columns while
//! reporting (not gating) the timing delta.

use satroute_obs::json::Value;
use satroute_obs::{Align, TextTable};

use crate::artifact::{BenchArtifact, BenchCell, EnvFingerprint};

/// Gating knobs of a comparison.
#[derive(Clone, Copy, Debug)]
pub struct GateOptions {
    /// When set, regressions make [`Comparison::gate_failed`] true.
    pub gate: bool,
    /// Relative worsening (percent) beyond which a gated metric is a
    /// regression. The CLI default is 25.
    pub threshold_pct: f64,
}

impl Default for GateOptions {
    fn default() -> GateOptions {
        GateOptions {
            gate: false,
            threshold_pct: 25.0,
        }
    }
}

/// Wall-time medians below this are pure overhead/noise; their relative
/// deltas are reported but never gated.
const WALL_GATE_FLOOR_S: f64 = 0.005;

/// One metric of one cell that worsened beyond the threshold.
#[derive(Clone, Debug)]
pub struct Regression {
    /// The cell id.
    pub cell: String,
    /// Which metric regressed (`wall_time`, `conflicts`, `cnf_clauses`,
    /// `cnf_vars`, `outcome`, `missing`).
    pub metric: String,
    /// Human-readable detail (`0.10s -> 0.25s (+150.0%)`).
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
        rel_pct(self.wall.0, self.wall.1)
    }
}

/// The result of comparing a candidate artifact against a baseline.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Per-cell deltas for cells present in both artifacts, baseline
    /// order.
    pub cells: Vec<CellComparison>,
    /// Whether wall time participated in gating (environments were
    /// timing-comparable).
    pub timing_gated: bool,
    /// Every gated metric that worsened beyond the threshold.
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
        if !self.timing_gated {
            out.push_str(
                "note: environments differ (rustc/cpus/opt-level/os); wall time reported but not gated\n",
            );
        }
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
            ("timing_gated", Value::Bool(self.timing_gated)),
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

fn rel_pct(base: f64, cand: f64) -> f64 {
    if base > 0.0 {
        (cand - base) / base * 100.0
    } else if cand > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Compares `candidate` against `baseline` cell by cell.
#[must_use]
pub fn compare(
    baseline: &BenchArtifact,
    candidate: &BenchArtifact,
    opts: &GateOptions,
) -> Comparison {
    let timing_gated = baseline.env.timing_comparable(&candidate.env);
    let mut cells = Vec::new();
    let mut regressions = Vec::new();
    let mut push = |cell: &str, metric: &str, detail: String| {
        if opts.gate {
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
        check_cell(base, cand, timing_gated, opts, &mut push);
        cells.push(CellComparison {
            id: base.id.clone(),
            wall: (base.wall_time_s.median, cand.wall_time_s.median),
            conflicts: (base.conflicts, cand.conflicts),
            cnf_clauses: (base.cnf_clauses, cand.cnf_clauses),
            outcome: (base.outcome.clone(), cand.outcome.clone()),
        });
    }

    Comparison {
        cells,
        timing_gated,
        regressions,
    }
}

fn check_cell(
    base: &BenchCell,
    cand: &BenchCell,
    timing_gated: bool,
    opts: &GateOptions,
    push: &mut impl FnMut(&str, &str, String),
) {
    // A decided baseline outcome that changes is always a regression: a
    // budget kicked in where none used to, or a deterministic answer
    // (verdict, minimum width, core, pass counters) moved.
    if base.outcome != cand.outcome {
        let decided = |o: &str| !o.starts_with("unknown");
        if decided(&base.outcome) {
            push(
                &base.id,
                "outcome",
                format!("{} -> {}", base.outcome, cand.outcome),
            );
        }
    }
    let counters = [
        ("conflicts", base.conflicts, cand.conflicts),
        ("cnf_vars", base.cnf_vars, cand.cnf_vars),
        ("cnf_clauses", base.cnf_clauses, cand.cnf_clauses),
    ];
    for (name, b, c) in counters {
        let delta = rel_pct(b as f64, c as f64);
        if delta > opts.threshold_pct {
            push(&base.id, name, format!("{b} -> {c} ({delta:+.1}%)"));
        }
    }
    if timing_gated && base.wall_time_s.median >= WALL_GATE_FLOOR_S {
        let (b, c) = (base.wall_time_s.median, cand.wall_time_s.median);
        let delta = rel_pct(b, c);
        if delta > opts.threshold_pct {
            push(
                &base.id,
                "wall_time",
                format!("{b:.3}s -> {c:.3}s ({delta:+.1}%)"),
            );
        }
    }
}

/// Convenience used by the CLI and the environment-independence of the
/// fingerprint check: exposes whether two artifacts would gate timing.
#[must_use]
pub fn timing_comparable(a: &EnvFingerprint, b: &EnvFingerprint) -> bool {
    a.timing_comparable(b)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::artifact::{HistogramSummary, WallTime, SCHEMA};

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
        let cmp = compare(
            &a,
            &a,
            &GateOptions {
                gate: true,
                threshold_pct: 25.0,
            },
        );
        assert!(cmp.timing_gated);
        assert!(!cmp.gate_failed(), "{:?}", cmp.regressions);
    }

    #[test]
    fn wall_time_regression_fails_the_gate() {
        let base = artifact(vec![cell("c1", 0.1, 50)]);
        let cand = artifact(vec![cell("c1", 0.25, 50)]);
        let cmp = compare(
            &base,
            &cand,
            &GateOptions {
                gate: true,
                threshold_pct: 25.0,
            },
        );
        assert!(cmp.gate_failed());
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].metric, "wall_time");
    }

    #[test]
    fn wall_time_is_not_gated_across_environments() {
        let base = artifact(vec![cell("c1", 0.1, 50)]);
        let mut cand = artifact(vec![cell("c1", 0.25, 50)]);
        cand.env.cpus = 2;
        let cmp = compare(
            &base,
            &cand,
            &GateOptions {
                gate: true,
                threshold_pct: 25.0,
            },
        );
        assert!(!cmp.timing_gated);
        assert!(!cmp.gate_failed(), "{:?}", cmp.regressions);
    }

    #[test]
    fn conflict_regression_gates_even_across_environments() {
        let base = artifact(vec![cell("c1", 0.1, 50)]);
        let mut cand = artifact(vec![cell("c1", 0.1, 100)]);
        cand.env.rustc = "rustc 1.96.0".into();
        let cmp = compare(
            &base,
            &cand,
            &GateOptions {
                gate: true,
                threshold_pct: 25.0,
            },
        );
        assert!(cmp.gate_failed());
        assert_eq!(cmp.regressions[0].metric, "conflicts");
    }

    #[test]
    fn missing_cell_and_outcome_flip_are_regressions() {
        let base = artifact(vec![cell("c1", 0.1, 50), cell("c2", 0.1, 50)]);
        let mut flipped = cell("c1", 0.1, 50);
        flipped.outcome = "unknown:wall".into();
        let cand = artifact(vec![flipped]);
        let cmp = compare(
            &base,
            &cand,
            &GateOptions {
                gate: true,
                threshold_pct: 25.0,
            },
        );
        let metrics: Vec<&str> = cmp.regressions.iter().map(|r| r.metric.as_str()).collect();
        assert!(metrics.contains(&"outcome"), "{metrics:?}");
        assert!(metrics.contains(&"missing"), "{metrics:?}");
    }

    #[test]
    fn a_changed_decided_outcome_is_a_regression_and_an_undecided_one_is_not() {
        let gate = GateOptions {
            gate: true,
            threshold_pct: 25.0,
        };
        let with_outcome = |outcome: &str| {
            let mut c = cell("c1", 0.1, 50);
            c.outcome = outcome.into();
            artifact(vec![c])
        };
        let base = with_outcome("min_width=9 greedy=10,9,11");
        let cmp = compare(&base, &with_outcome("min_width=9 greedy=10,9,12"), &gate);
        assert_eq!(cmp.regressions.len(), 1, "{:?}", cmp.regressions);
        assert_eq!(cmp.regressions[0].metric, "outcome");
        assert!(compare(&base, &base, &gate).regressions.is_empty());
        let stopped = with_outcome("unknown:wall");
        let cmp = compare(&stopped, &with_outcome("unknown:deadline"), &gate);
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
    }

    #[test]
    fn sub_floor_wall_times_never_gate() {
        let base = artifact(vec![cell("c1", 0.001, 50)]);
        let cand = artifact(vec![cell("c1", 0.004, 50)]);
        let cmp = compare(
            &base,
            &cand,
            &GateOptions {
                gate: true,
                threshold_pct: 25.0,
            },
        );
        assert!(!cmp.gate_failed(), "{:?}", cmp.regressions);
    }

    #[test]
    fn without_gate_regressions_are_not_collected() {
        let base = artifact(vec![cell("c1", 0.1, 50)]);
        let cand = artifact(vec![cell("c1", 0.5, 500)]);
        let cmp = compare(&base, &cand, &GateOptions::default());
        assert!(!cmp.gate_failed());
        assert!(cmp.render_text().contains("OK"));
    }
}
