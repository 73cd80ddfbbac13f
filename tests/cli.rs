//! Integration tests driving the `satroute` CLI binary end to end.

use std::process::Command;

fn satroute() -> Command {
    Command::new(env!("CARGO_BIN_EXE_satroute"))
}

fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("satroute_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("can create temp dir");
    dir
}

#[test]
fn no_args_prints_usage() {
    let out = satroute().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_command_fails() {
    let out = satroute().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn encodings_lists_all_fifteen() {
    let out = satroute().arg("encodings").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ITE-linear-2+muldirect"));
    assert!(text.contains("muldirect-3+direct"));
    assert!(text.contains("log"));
}

#[test]
fn gen_route_prove_roundtrip() {
    let dir = tempdir("roundtrip");
    let problem = dir.join("tiny.txt");

    // Export a benchmark problem.
    let out = satroute()
        .args(["gen", "--bench", "tiny_a", "--out"])
        .arg(&problem)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Routable at a generous width: exit code 0 and track assignments.
    let out = satroute()
        .arg("route")
        .arg(&problem)
        .args(["--width", "12"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("ROUTABLE"));

    // Provably unroutable at width 1 (tiny_a has conflicting subnets):
    // exit code 20, with a verified DRAT certificate.
    let cert = dir.join("w1.drat");
    let out = satroute()
        .arg("prove")
        .arg(&problem)
        .args(["--width", "1", "--certificate"])
        .arg(&cert)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(20));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("UNROUTABLE"), "{text}");
    assert!(text.contains("verified DRAT certificate"), "{text}");
    assert!(cert.exists());
}

#[test]
fn min_width_matches_incremental() {
    let dir = tempdir("minwidth");
    let problem = dir.join("tiny.txt");
    satroute()
        .args(["gen", "--bench", "tiny_b", "--out"])
        .arg(&problem)
        .status()
        .expect("binary runs");

    let classic = satroute()
        .arg("min-width")
        .arg(&problem)
        .output()
        .expect("binary runs");
    assert!(classic.status.success());
    let classic_text = String::from_utf8_lossy(&classic.stdout).to_string();

    let incr = satroute()
        .arg("min-width")
        .arg(&problem)
        .arg("--incremental")
        .output()
        .expect("binary runs");
    assert!(incr.status.success());
    let incr_text = String::from_utf8_lossy(&incr.stdout).to_string();

    let grab = |s: &str| -> u32 {
        s.lines()
            .find(|l| l.contains("minimum channel width"))
            .and_then(|l| l.split(':').nth(1)?.split_whitespace().next()?.parse().ok())
            .expect("width line present")
    };
    assert_eq!(grab(&classic_text), grab(&incr_text));
}

#[test]
fn encode_then_solve_pipeline() {
    let dir = tempdir("encode");
    let problem = dir.join("tiny.txt");
    satroute()
        .args(["gen", "--bench", "tiny_c", "--out"])
        .arg(&problem)
        .status()
        .expect("binary runs");

    let cnf = dir.join("instance.cnf");
    let out = satroute()
        .arg("encode")
        .arg(&problem)
        .args([
            "--width",
            "2",
            "--encoding",
            "muldirect",
            "--symmetry",
            "b1",
            "--out",
        ])
        .arg(&cnf)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // tiny_c is unroutable at width 2 → solver exit code 20 + proof.
    let proof = dir.join("instance.drat");
    let out = satroute()
        .arg("solve")
        .arg(&cnf)
        .arg("--proof")
        .arg(&proof)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(20));
    assert!(String::from_utf8_lossy(&out.stdout).contains("s UNSATISFIABLE"));
    assert!(proof.exists());
}

/// `solve --preprocess` simplifies DIMACS input itself: on an S1
/// muldirect encode (whose symmetry restrictions are unit clauses) it
/// answers as plain `solve` does and reports the units it consumed.
#[test]
fn solve_preprocess_reports_its_units_in_the_metrics() {
    let dir = tempdir("preprocess");
    let problem = dir.join("tiny.txt");
    satroute()
        .args(["gen", "--bench", "tiny_c", "--out"])
        .arg(&problem)
        .status()
        .expect("binary runs");
    let cnf = dir.join("s1.cnf");
    let out = satroute()
        .arg("encode")
        .arg(&problem)
        .args([
            "--width",
            "2",
            "--encoding",
            "muldirect",
            "--symmetry",
            "s1",
            "--out",
        ])
        .arg(&cnf)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let plain = satroute()
        .arg("solve")
        .arg(&cnf)
        .output()
        .expect("binary runs");
    let metrics = dir.join("m.json");
    let pre = satroute()
        .arg("solve")
        .arg(&cnf)
        .arg("--preprocess")
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("binary runs");
    assert_eq!(pre.status.code(), plain.status.code());
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let snapshot = satroute::obs::json::parse(&text).expect("metrics are JSON");
    let units = snapshot
        .get("counters")
        .and_then(|c| c.get("preprocess.units"))
        .and_then(|v| v.as_f64())
        .expect("preprocess.units is reported");
    assert!(units > 0.0, "S1 units must feed the preprocessor");
}

#[test]
fn bad_inputs_produce_errors_not_panics() {
    let out = satroute()
        .args(["route", "/nonexistent/problem.txt", "--width", "3"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    let out = satroute()
        .args(["encode", "x.col", "--width"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));

    let out = satroute()
        .args(["gen", "--bench", "not_a_bench"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn portfolio_command_reports_sharing_counters() {
    let dir = tempdir("portfolio");
    let problem = dir.join("tiny.txt");
    satroute()
        .args(["gen", "--bench", "tiny_b", "--out"])
        .arg(&problem)
        .status()
        .expect("binary runs");

    // Routable width with a diversified sharing portfolio: exit 0, and the
    // JSON carries the sharing counters for every member.
    let out = satroute()
        .arg("portfolio")
        .arg(&problem)
        .args([
            "--width",
            "6",
            "--encoding",
            "muldirect",
            "--diversify",
            "4",
            "--portfolio-share",
            "--threads",
            "4",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"routable\":true"), "{text}");
    assert!(text.contains("\"sharing\":true"), "{text}");
    assert!(text.contains("\"total_imported\""), "{text}");
    assert_eq!(text.matches("\"imported_clauses\"").count(), 4, "{text}");

    // Unroutable width with the default heterogeneous portfolio: exit 20.
    let out = satroute()
        .arg("portfolio")
        .arg(&problem)
        .args(["--width", "4"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(20));
    assert!(String::from_utf8_lossy(&out.stdout).contains("UNROUTABLE"));

    // Flag validation: zero members / zero threads are rejected.
    for bad in [["--diversify", "0"], ["--threads", "0"]] {
        let out = satroute()
            .arg("portfolio")
            .arg(&problem)
            .args(["--width", "6"])
            .args(bad)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2));
    }
}

#[test]
fn progress_flag_reaches_portfolio_and_conquer() {
    let dir = tempdir("progress");
    let problem = dir.join("tiny.txt");
    satroute()
        .args(["gen", "--bench", "tiny_a", "--out"])
        .arg(&problem)
        .status()
        .expect("binary runs");

    for command in ["portfolio", "conquer"] {
        let out = satroute()
            .arg(command)
            .arg(&problem)
            .args(["--width", "3", "--progress"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{command}: {stderr}");
        assert!(
            stderr.contains(&format!("[{command} +")) && stderr.contains("start:"),
            "{command} --progress printed no progress: {stderr}"
        );
    }
}
