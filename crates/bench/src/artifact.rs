//! The `BENCH_*.json` baseline artifact: a canonical, diffable record of
//! one benchmark-suite run.
//!
//! An artifact captures an environment fingerprint (a record of where the
//! wall times were measured) plus one [`BenchCell`] per (benchmark,
//! strategy, width) triple with median-of-N wall time, the deterministic
//! work counters, CNF shape and histogram summaries.
//! `satroute bench run` writes artifacts; `satroute bench compare` diffs
//! two of them and optionally gates on regressions (see
//! [`crate::compare`](mod@crate::compare)).

use std::collections::BTreeMap;

use satroute_obs::json::Value;
use satroute_obs::{Align, HistogramSnapshot, TextTable};

/// Artifact schema identifier; bump on breaking layout changes.
pub const SCHEMA: &str = "satroute-bench/v1";

/// The machine/toolchain fingerprint stamped into every artifact, as a
/// record of where its wall times were measured; the gate reads none of
/// it.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvFingerprint {
    /// `git rev-parse HEAD` of the working tree, or `"unknown"`.
    pub git_rev: String,
    /// `rustc --version`, or `"unknown"`.
    pub rustc: String,
    /// Available hardware parallelism.
    pub cpus: u64,
    /// `"release"` or `"debug"` (of the bench harness itself).
    pub opt_level: String,
    /// `std::env::consts::OS`.
    pub os: String,
}

impl EnvFingerprint {
    /// Captures the current environment. Never fails: unavailable fields
    /// degrade to `"unknown"` so artifacts stay writable offline.
    pub fn capture() -> EnvFingerprint {
        let run = |cmd: &str, args: &[&str]| -> Option<String> {
            let out = std::process::Command::new(cmd).args(args).output().ok()?;
            if !out.status.success() {
                return None;
            }
            let text = String::from_utf8(out.stdout).ok()?;
            let text = text.trim();
            (!text.is_empty()).then(|| text.to_string())
        };
        EnvFingerprint {
            git_rev: run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            rustc: run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            opt_level: if cfg!(debug_assertions) {
                "debug".into()
            } else {
                "release".into()
            },
            os: std::env::consts::OS.to_string(),
        }
    }

    /// Serializes as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object([
            ("git_rev", Value::string(&self.git_rev)),
            ("rustc", Value::string(&self.rustc)),
            ("cpus", Value::from(self.cpus)),
            ("opt_level", Value::string(&self.opt_level)),
            ("os", Value::string(&self.os)),
        ])
    }

    /// Parses the object written by [`EnvFingerprint::to_json`].
    pub fn from_json(value: &Value) -> Result<EnvFingerprint, String> {
        Ok(EnvFingerprint {
            git_rev: req_str(value, "git_rev")?,
            rustc: req_str(value, "rustc")?,
            cpus: req_u64(value, "cpus")?,
            opt_level: req_str(value, "opt_level")?,
            os: req_str(value, "os")?,
        })
    }
}

/// Wall-time spread of a cell's N runs, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WallTime {
    /// Median of the runs — the number comparisons report.
    pub median: f64,
    /// Fastest run.
    pub min: f64,
    /// Slowest run.
    pub max: f64,
}

impl WallTime {
    fn to_json(self) -> Value {
        Value::object([
            ("median", Value::from(self.median)),
            ("min", Value::from(self.min)),
            ("max", Value::from(self.max)),
        ])
    }

    fn from_json(value: &Value) -> Result<WallTime, String> {
        Ok(WallTime {
            median: req_f64(value, "median")?,
            min: req_f64(value, "min")?,
            max: req_f64(value, "max")?,
        })
    }
}

/// The seven-number summary an artifact keeps per histogram (full bucket
/// vectors would dominate the artifact for no comparison value).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Mean of recorded values.
    pub mean: f64,
    /// Estimated 50th percentile (within one log-bucket of exact).
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

impl HistogramSummary {
    /// Summarizes a registry snapshot's histogram.
    #[must_use]
    pub fn of(h: &HistogramSnapshot) -> HistogramSummary {
        HistogramSummary {
            count: h.count(),
            sum: h.sum(),
            mean: h.mean(),
            p50: h.p50(),
            p90: h.p90(),
            p99: h.p99(),
            max: h.max(),
        }
    }

    fn to_json(self) -> Value {
        Value::object([
            ("count", Value::from(self.count)),
            ("sum", Value::from(self.sum)),
            ("mean", Value::from(self.mean)),
            ("p50", Value::from(self.p50)),
            ("p90", Value::from(self.p90)),
            ("p99", Value::from(self.p99)),
            ("max", Value::from(self.max)),
        ])
    }

    fn from_json(value: &Value) -> Result<HistogramSummary, String> {
        Ok(HistogramSummary {
            count: req_u64(value, "count")?,
            sum: req_u64(value, "sum")?,
            mean: req_f64(value, "mean")?,
            p50: req_u64(value, "p50")?,
            p90: req_u64(value, "p90")?,
            p99: req_u64(value, "p99")?,
            max: req_u64(value, "max")?,
        })
    }
}

/// One measured (benchmark, strategy, width) triple.
#[derive(Clone, Debug)]
pub struct BenchCell {
    /// Stable identifier: `"<benchmark>/<encoding>/<symmetry>/w<width>"`.
    /// Comparisons match cells on this.
    pub id: String,
    /// Benchmark instance name.
    pub benchmark: String,
    /// Encoding name (paper spelling).
    pub encoding: String,
    /// Symmetry-heuristic name.
    pub symmetry: String,
    /// Channel width (number of colors).
    pub width: u32,
    /// How many repeat runs produced [`BenchCell::wall_time_s`].
    pub runs: u64,
    /// Wall-time spread across the runs.
    pub wall_time_s: WallTime,
    /// Solver conflicts (deterministic for a fixed seed/toolchain).
    pub conflicts: u64,
    /// Solver decisions.
    pub decisions: u64,
    /// Solver propagations.
    pub propagations: u64,
    /// Propagations per second of the median run.
    pub props_per_sec: f64,
    /// CNF variable count.
    pub cnf_vars: u64,
    /// CNF clause count.
    pub cnf_clauses: u64,
    /// `"sat"`, `"unsat"` or `"unknown:<reason>"`, followed in some
    /// suites by the cell kind's deterministic answer (`min_width=9`,
    /// `depth=4`, ...); a ladder or explain cell's outcome is that answer
    /// alone. Only `unknown` outcomes count as undecided.
    pub outcome: String,
    /// Named histogram summaries (e.g. `solver.lbd`,
    /// `phase.sat_solving_us`) from the median run's metrics registry.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl BenchCell {
    /// The canonical id for a triple.
    #[must_use]
    pub fn make_id(benchmark: &str, encoding: &str, symmetry: &str, width: u32) -> String {
        format!("{benchmark}/{encoding}/{symmetry}/w{width}")
    }

    /// Serializes as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object([
            ("id", Value::string(&self.id)),
            ("benchmark", Value::string(&self.benchmark)),
            ("encoding", Value::string(&self.encoding)),
            ("symmetry", Value::string(&self.symmetry)),
            ("width", Value::from(u64::from(self.width))),
            ("runs", Value::from(self.runs)),
            ("wall_time_s", self.wall_time_s.to_json()),
            ("conflicts", Value::from(self.conflicts)),
            ("decisions", Value::from(self.decisions)),
            ("propagations", Value::from(self.propagations)),
            ("props_per_sec", Value::from(self.props_per_sec)),
            ("cnf_vars", Value::from(self.cnf_vars)),
            ("cnf_clauses", Value::from(self.cnf_clauses)),
            ("outcome", Value::string(&self.outcome)),
            (
                "histograms",
                Value::object(
                    self.histograms
                        .iter()
                        .map(|(name, h)| (name.clone(), h.to_json())),
                ),
            ),
        ])
    }

    /// Parses the object written by [`BenchCell::to_json`].
    pub fn from_json(value: &Value) -> Result<BenchCell, String> {
        let histograms = match value.get("histograms") {
            Some(Value::Object(pairs)) => pairs
                .iter()
                .map(|(name, v)| Ok((name.clone(), HistogramSummary::from_json(v)?)))
                .collect::<Result<BTreeMap<_, _>, String>>()?,
            Some(_) => return Err("`histograms` is not an object".into()),
            None => BTreeMap::new(),
        };
        Ok(BenchCell {
            id: req_str(value, "id")?,
            benchmark: req_str(value, "benchmark")?,
            encoding: req_str(value, "encoding")?,
            symmetry: req_str(value, "symmetry")?,
            width: u32::try_from(req_u64(value, "width")?)
                .map_err(|_| "`width` out of range".to_string())?,
            runs: req_u64(value, "runs")?,
            wall_time_s: WallTime::from_json(
                value.get("wall_time_s").ok_or("missing `wall_time_s`")?,
            )?,
            conflicts: req_u64(value, "conflicts")?,
            decisions: req_u64(value, "decisions")?,
            propagations: req_u64(value, "propagations")?,
            props_per_sec: req_f64(value, "props_per_sec")?,
            cnf_vars: req_u64(value, "cnf_vars")?,
            cnf_clauses: req_u64(value, "cnf_clauses")?,
            outcome: req_str(value, "outcome")?,
            histograms,
        })
    }
}

/// A complete `BENCH_*.json` document.
#[derive(Clone, Debug)]
pub struct BenchArtifact {
    /// Always [`SCHEMA`] for artifacts this code writes.
    pub schema: String,
    /// Suite name (a [`SuiteId`](crate::SuiteId) name such as `"quick"`).
    pub suite: String,
    /// Environment the suite ran in.
    pub env: EnvFingerprint,
    /// Measured cells, in suite order.
    pub cells: Vec<BenchCell>,
}

impl BenchArtifact {
    /// Serializes the artifact as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object([
            ("schema", Value::string(&self.schema)),
            ("suite", Value::string(&self.suite)),
            ("env", self.env.to_json()),
            (
                "cells",
                Value::array(self.cells.iter().map(BenchCell::to_json)),
            ),
        ])
    }

    /// The artifact as a JSON document string (newline-terminated).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_json();
        s.push('\n');
        s
    }

    /// Parses an artifact document, rejecting unknown schemas.
    pub fn parse_str(text: &str) -> Result<BenchArtifact, String> {
        let value = satroute_obs::json::parse(text).map_err(|e| e.to_string())?;
        let schema = req_str(&value, "schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported artifact schema `{schema}` (this build reads `{SCHEMA}`)"
            ));
        }
        let cells = match value.get("cells") {
            Some(Value::Array(items)) => items
                .iter()
                .map(BenchCell::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing `cells` array".into()),
        };
        Ok(BenchArtifact {
            schema,
            suite: req_str(&value, "suite")?,
            env: EnvFingerprint::from_json(value.get("env").ok_or("missing `env`")?)?,
            cells,
        })
    }

    /// Looks a cell up by id.
    #[must_use]
    pub fn cell(&self, id: &str) -> Option<&BenchCell> {
        self.cells.iter().find(|c| c.id == id)
    }

    /// Renders the cells as a Table 2-style grid of median wall times in
    /// seconds (four decimals): one row per benchmark and width, one
    /// column per remaining id segment (the `w<W>` token dropped), in
    /// first-appearance order. A `Total` row sums each column; a
    /// `Speedup` row divides the first column's time by each column's,
    /// summed over the rows both columns have. Cells the artifact lacks
    /// render blank.
    #[must_use]
    pub fn render_grid(&self) -> String {
        fn slot<T: PartialEq>(list: &mut Vec<T>, item: T) -> usize {
            list.iter().position(|x| *x == item).unwrap_or_else(|| {
                list.push(item);
                list.len() - 1
            })
        }
        let mut rows: Vec<(&str, u32)> = Vec::new();
        let mut columns: Vec<String> = Vec::new();
        let mut times: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for cell in &self.cells {
            let w = format!("w{}", cell.width);
            let column: Vec<&str> = cell
                .id
                .split('/')
                .skip(1)
                .filter_map(|seg| match seg.strip_suffix(w.as_str()) {
                    Some("") => None,
                    Some(rest) => Some(rest.trim_end_matches('-')),
                    None => Some(seg),
                })
                .collect();
            let r = slot(&mut rows, (cell.benchmark.as_str(), cell.width));
            let c = slot(&mut columns, column.join("/"));
            times.insert((r, c), cell.wall_time_s.median);
        }

        let mut table = TextTable::new(
            [("benchmark", Align::Left), ("W", Align::Right)]
                .into_iter()
                .chain(columns.iter().map(|c| (c.as_str(), Align::Right))),
        );
        let secs = |t: f64| format!("{t:.4}");
        for (r, (benchmark, width)) in rows.iter().enumerate() {
            table.row(
                [benchmark.to_string(), width.to_string()]
                    .into_iter()
                    .chain(
                        (0..columns.len())
                            .map(|c| times.get(&(r, c)).map_or(String::new(), |&t| secs(t))),
                    ),
            );
        }
        let totals = (0..columns.len()).map(|c| {
            let total: f64 = (0..rows.len()).filter_map(|r| times.get(&(r, c))).sum();
            secs(total)
        });
        table.row(
            ["Total".to_string(), String::new()]
                .into_iter()
                .chain(totals),
        );
        let speedups = (0..columns.len()).map(|c| {
            let (first, this) = (0..rows.len())
                .filter_map(|r| Some((times.get(&(r, 0))?, times.get(&(r, c))?)))
                .fold((0.0, 0.0), |(f, t), (a, b)| (f + a, t + b));
            if this > 0.0 {
                // Three significant digits: 0.00283x, 1.00x, 189x.
                let x = first / this;
                let decimals = (2.0 - x.log10().floor()).clamp(0.0, 6.0) as usize;
                format!("{x:.decimals$}x")
            } else {
                String::new()
            }
        });
        table.row(
            ["Speedup".to_string(), String::new()]
                .into_iter()
                .chain(speedups),
        );
        table.render()
    }
}

fn req_str(value: &Value, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn req_f64(value: &Value, key: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

fn req_u64(value: &Value, key: &str) -> Result<u64, String> {
    let n = req_f64(value, key)?;
    if n < 0.0 {
        return Err(format!("`{key}` is negative"));
    }
    Ok(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchArtifact {
        BenchArtifact {
            schema: SCHEMA.to_string(),
            suite: "quick".to_string(),
            env: EnvFingerprint {
                git_rev: "abc123".into(),
                rustc: "rustc 1.95.0".into(),
                cpus: 8,
                opt_level: "release".into(),
                os: "linux".into(),
            },
            cells: vec![BenchCell {
                id: BenchCell::make_id("tiny_a", "log", "s1", 4),
                benchmark: "tiny_a".into(),
                encoding: "log".into(),
                symmetry: "s1".into(),
                width: 4,
                runs: 3,
                wall_time_s: WallTime {
                    median: 0.125,
                    min: 0.120,
                    max: 0.140,
                },
                conflicts: 42,
                decisions: 99,
                propagations: 1234,
                props_per_sec: 9872.0,
                cnf_vars: 120,
                cnf_clauses: 456,
                outcome: "unsat".into(),
                histograms: [(
                    "solver.lbd".to_string(),
                    HistogramSummary {
                        count: 42,
                        sum: 130,
                        mean: 3.1,
                        p50: 3,
                        p90: 6,
                        p99: 9,
                        max: 9,
                    },
                )]
                .into_iter()
                .collect(),
            }],
        }
    }

    #[test]
    fn artifact_roundtrips_through_json() {
        let artifact = sample();
        let parsed = BenchArtifact::parse_str(&artifact.to_json_string()).expect("parses");
        assert_eq!(parsed.suite, "quick");
        assert_eq!(parsed.env, artifact.env);
        assert_eq!(parsed.cells.len(), 1);
        let (a, b) = (&artifact.cells[0], &parsed.cells[0]);
        assert_eq!(a.id, b.id);
        assert_eq!(a.wall_time_s, b.wall_time_s);
        assert_eq!(a.conflicts, b.conflicts);
        assert_eq!(a.histograms, b.histograms);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut artifact = sample();
        artifact.schema = "satroute-bench/v999".into();
        let err = BenchArtifact::parse_str(&artifact.to_json_string()).unwrap_err();
        assert!(err.contains("unsupported artifact schema"), "{err}");
    }

    #[test]
    fn grid_totals_speedups_and_blank_cells() {
        let mut artifact = sample();
        let template = artifact.cells.pop().unwrap();
        let cell = |id: &str, width: u32, wall: f64| BenchCell {
            id: id.to_string(),
            benchmark: id.split('/').next().unwrap().to_string(),
            width,
            wall_time_s: WallTime {
                median: wall,
                min: wall,
                max: wall,
            },
            ..template.clone()
        };
        artifact.cells = vec![
            cell("a/muldirect/-/w3", 3, 1.0),
            cell("a/log/s1/w3", 3, 0.5),
            cell("a/log/-/explain-w3", 3, 0.25),
            cell("b/muldirect/-/w4", 4, 3.0),
            cell("b/log/-/explain-w4", 4, 0.75),
        ];
        let text = artifact.render_grid();
        let lines: Vec<Vec<&str>> = text
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            lines[0],
            ["benchmark", "W", "muldirect/-", "log/s1", "log/-/explain"]
        );
        assert_eq!(lines[2], ["a", "3", "1.0000", "0.5000", "0.2500"]);
        // `b` has no log/s1 cell: that slot is blank, not shifted.
        assert_eq!(lines[3], ["b", "4", "3.0000", "0.7500"]);
        let header = text.lines().next().unwrap();
        let s1 = header.find("log/s1").unwrap();
        let b_row = text.lines().nth(3).unwrap();
        assert!(b_row[s1..s1 + "log/s1".len()].trim().is_empty(), "{text}");
        assert_eq!(lines[4], ["Total", "4.0000", "0.5000", "1.0000"]);
        // Speedups compare against column 1 on shared rows only: log/s1
        // ran on `a` alone, so 1.0 / 0.5, not 4.0 / 0.5.
        assert_eq!(lines[5], ["Speedup", "1.00x", "2.00x", "4.00x"]);
    }

    #[test]
    fn env_capture_degrades_gracefully() {
        let env = EnvFingerprint::capture();
        assert!(env.cpus >= 1);
        assert!(!env.rustc.is_empty());
        assert!(env.opt_level == "debug" || env.opt_level == "release");
    }
}
