//! Integration tests driving `satroute bench run` / `bench compare` end
//! to end: artifact shape, gate exit codes, and the `--metrics`
//! exposition flag.

use std::process::Command;

use satroute::bench::{BenchArtifact, SCHEMA};

fn satroute() -> Command {
    Command::new(env!("CARGO_BIN_EXE_satroute"))
}

fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("satroute_bench_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("can create temp dir");
    dir
}

/// Runs the quick suite once and parses the artifact back.
fn record_quick(dir: &std::path::Path, file: &str) -> BenchArtifact {
    let out_path = dir.join(file);
    let out = satroute()
        .args(["bench", "run", "--suite", "quick", "--runs", "1", "--out"])
        .arg(&out_path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "bench run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).expect("artifact written");
    BenchArtifact::parse_str(&text).expect("artifact parses")
}

#[test]
fn bench_run_writes_a_parseable_artifact() {
    let dir = tempdir("run");
    let artifact = record_quick(&dir, "BENCH_quick.json");

    assert_eq!(artifact.schema, SCHEMA);
    assert_eq!(artifact.suite, "quick");
    assert!(artifact.env.cpus >= 1);
    assert!(artifact.env.opt_level == "debug" || artifact.env.opt_level == "release");
    assert!(!artifact.cells.is_empty());
    for cell in &artifact.cells {
        assert!(!cell.benchmark.is_empty());
        assert!(!cell.encoding.is_empty());
        assert!(cell.cnf_clauses > 0, "{} has no clauses", cell.id);
        assert!(
            cell.outcome == "sat" || cell.outcome == "unsat",
            "{}: quick suite must decide every cell, got {}",
            cell.id,
            cell.outcome
        );
        assert!(
            cell.histograms.contains_key("phase.sat_solving_us"),
            "{} lacks phase histogram",
            cell.id
        );
    }
    // The suite covers both the routable and the unroutable regime.
    assert!(artifact.cells.iter().any(|c| c.outcome == "sat"));
    assert!(artifact.cells.iter().any(|c| c.outcome == "unsat"));
}

#[test]
fn bench_compare_reports_wall_time_and_gates_an_injected_conflict() {
    let dir = tempdir("gate");
    let baseline = record_quick(&dir, "base.json");

    // Two injected changes on one cell: a 2.5x wall time, which is
    // reported and never gated, and one conflict more, which is.
    let mut slow = baseline.clone();
    slow.cells[0].wall_time_s.median *= 2.5;
    let mut searched = baseline.clone();
    searched.cells[0].conflicts += 1;

    let base_path = dir.join("BENCH_base.json");
    let slow_path = dir.join("BENCH_slow.json");
    let searched_path = dir.join("BENCH_searched.json");
    std::fs::write(&base_path, baseline.to_json_string()).unwrap();
    std::fs::write(&slow_path, slow.to_json_string()).unwrap();
    std::fs::write(&searched_path, searched.to_json_string()).unwrap();
    let compare = |candidate: &std::path::Path, extra: &[&str]| {
        satroute()
            .args(["bench", "compare"])
            .args([&base_path, candidate])
            .args(extra)
            .output()
            .expect("binary runs")
    };

    // Identical artifacts pass the gate.
    let out = compare(&base_path, &["--gate"]);
    assert!(
        out.status.success(),
        "self-compare failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK: no gated regressions"));

    // The slowdown is reported, and passes.
    let out = compare(&slow_path, &["--gate"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "wall time must not gate: {text}");
    assert!(text.contains("+150.0"), "{text}");

    // One conflict more fails the gate with exit code 3.
    let out = compare(&searched_path, &["--gate"]);
    assert_eq!(out.status.code(), Some(3), "gate must exit 3");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSION"), "{text}");
    assert!(text.contains("conflicts"), "{text}");

    // Without --gate the same pair reports but exits 0.
    assert!(compare(&searched_path, &[]).status.success());

    // The wall-time threshold is gone with the wall gate.
    let out = compare(&slow_path, &["--threshold", "25"]);
    assert_eq!(out.status.code(), Some(2), "--threshold must be refused");
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn bench_compare_does_not_gate_wall_time_across_environments() {
    let dir = tempdir("env");
    let artifact = record_quick(&dir, "base.json");

    let mut baseline = artifact.clone();
    for cell in &mut baseline.cells {
        cell.wall_time_s.median = 0.1;
    }
    let mut foreign = baseline.clone();
    foreign.env.cpus = baseline.env.cpus + 64;
    for cell in &mut foreign.cells {
        cell.wall_time_s.median = 10.0;
    }
    let base_path = dir.join("a.json");
    let foreign_path = dir.join("b.json");
    std::fs::write(&base_path, baseline.to_json_string()).unwrap();
    std::fs::write(&foreign_path, foreign.to_json_string()).unwrap();

    let out = satroute()
        .args(["bench", "compare"])
        .args([&base_path, &foreign_path])
        .arg("--gate")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "cross-env wall time must not gate: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn bench_compare_gates_deterministic_counters_across_environments() {
    let dir = tempdir("det");
    let artifact = record_quick(&dir, "base.json");

    let mut foreign = artifact.clone();
    foreign.env.rustc = format!("{} (other)", artifact.env.rustc);
    foreign.cells[0].conflicts = artifact.cells[0].conflicts * 2 + 100;

    let base_path = dir.join("a.json");
    let foreign_path = dir.join("b.json");
    std::fs::write(&base_path, artifact.to_json_string()).unwrap();
    std::fs::write(&foreign_path, foreign.to_json_string()).unwrap();

    let out = satroute()
        .args(["bench", "compare"])
        .args([&base_path, &foreign_path])
        .arg("--gate")
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(3),
        "conflict regressions gate everywhere: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn metrics_flag_writes_json_and_prometheus_snapshots() {
    let dir = tempdir("metrics");
    let problem = dir.join("tiny.txt");
    let out = satroute()
        .args(["gen", "--bench", "tiny_b", "--out"])
        .arg(&problem)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    let json_path = dir.join("metrics.json");
    let out = satroute()
        .arg("route")
        .arg(&problem)
        .args(["--width", "6", "--metrics"])
        .arg(&json_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&json_path).expect("metrics written");
    let value = satroute::obs::json::parse(&text).expect("valid JSON");
    let conflicts = value
        .get("counters")
        .and_then(|c| c.get("solver.conflicts"))
        .and_then(|v| v.as_f64());
    assert!(conflicts.is_some(), "{text}");
    // Clause-store families introduced with the flat arena: occupancy and
    // tier gauges plus GC counters must appear in every snapshot, even
    // when no GC ran (zero-valued families are still registered).
    for gauge in [
        "solver.arena.live_bytes",
        "solver.tier.core",
        "solver.tier.mid",
        "solver.tier.local",
    ] {
        let found = value
            .get("gauges")
            .and_then(|g| g.get(gauge))
            .and_then(|v| v.as_f64());
        assert!(found.is_some(), "missing gauge {gauge} in {text}");
    }
    for counter in ["solver.arena.gc_runs", "solver.arena.reclaimed_bytes"] {
        let found = value
            .get("counters")
            .and_then(|c| c.get(counter))
            .and_then(|v| v.as_f64());
        assert!(found.is_some(), "missing counter {counter} in {text}");
    }
    let live = value
        .get("gauges")
        .and_then(|g| g.get("solver.arena.live_bytes"))
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(live > 0.0, "a solved instance must leave live clause bytes");

    let prom_path = dir.join("metrics.prom");
    let out = satroute()
        .arg("prove")
        .arg(&problem)
        .args(["--width", "4", "--metrics"])
        .arg(&prom_path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(20), "width 4 is unroutable");
    let text = std::fs::read_to_string(&prom_path).expect("metrics written");
    assert!(
        text.contains("# TYPE satroute_solver_conflicts counter"),
        "{text}"
    );
    assert!(text.contains("satroute_solver_lbd_bucket"), "{text}");
    assert!(
        text.contains("# TYPE satroute_solver_arena_gc_runs counter"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE satroute_solver_arena_live_bytes gauge"),
        "{text}"
    );
    assert!(text.contains("satroute_solver_tier_core"), "{text}");
}

#[test]
fn bench_run_filter_restricts_and_rejects_unmatched() {
    let dir = tempdir("filter");
    let out_path = dir.join("BENCH_filtered.json");
    let out = satroute()
        .args([
            "bench", "run", "--suite", "quick", "--runs", "1", "--filter", "tiny_a/", "--out",
        ])
        .arg(&out_path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "filtered bench run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).expect("artifact written");
    let artifact = BenchArtifact::parse_str(&text).expect("artifact parses");
    assert!(!artifact.cells.is_empty());
    assert!(
        artifact.cells.iter().all(|c| c.id.contains("tiny_a/")),
        "filter must drop non-matching cells"
    );

    // A filter that matches nothing is an error (exit 2), not an empty
    // artifact silently passed to `bench compare`.
    let out = satroute()
        .args([
            "bench",
            "run",
            "--suite",
            "quick",
            "--runs",
            "1",
            "--filter",
            "no-such-cell",
            "--out",
        ])
        .arg(dir.join("BENCH_empty.json"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("matches no cell"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn routable_suite_routes_every_strategy_and_prints_a_grid() {
    let dir = tempdir("routable");
    let out_path = dir.join("BENCH_routable.json");
    let out = satroute()
        .args([
            "bench", "run", "--suite", "routable", "--filter", "alu2/", "--runs", "1", "--out",
        ])
        .arg(&out_path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "routable bench run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).expect("artifact written");
    let artifact = BenchArtifact::parse_str(&text).expect("artifact parses");
    assert_eq!(artifact.suite, "routable");
    assert_eq!(artifact.cells.len(), 45, "15 encodings x 3 symmetries");
    for cell in &artifact.cells {
        assert_eq!(cell.benchmark, "alu2");
        assert_eq!(cell.outcome, "sat", "{}", cell.id);
    }

    // The grid on stdout: a header naming every strategy, one alu2 row,
    // then the Total and Speedup rows with one entry per strategy.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let header = lines
        .iter()
        .position(|l| l.starts_with("benchmark"))
        .unwrap_or_else(|| panic!("no grid header in {stdout}"));
    let columns: Vec<&str> = lines[header].split_whitespace().skip(2).collect();
    assert_eq!(columns.len(), 45, "{}", lines[header]);
    assert_eq!(columns[0], "muldirect/-");
    for cell in &artifact.cells {
        let column = cell
            .id
            .rsplit_once('/')
            .unwrap()
            .0
            .split_once('/')
            .unwrap()
            .1;
        assert!(columns.contains(&column), "no column for {}", cell.id);
    }
    assert!(lines[header + 2].starts_with("alu2"), "{stdout}");
    assert_eq!(lines[header + 2].split_whitespace().count(), 2 + 45);
    assert_eq!(lines[header + 3].split_whitespace().next(), Some("Total"));
    assert_eq!(lines[header + 3].split_whitespace().count(), 1 + 45);
    assert!(lines[header + 4].starts_with("Speedup"), "{stdout}");
    assert!(lines[header + 4].contains("1.00x"), "{stdout}");
}
