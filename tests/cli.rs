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
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"));
    // One usage line per command row, subcommands included.
    let rows = [
        "gen",
        "route",
        "prove",
        "min-width",
        "encode",
        "solve",
        "portfolio",
        "explain",
        "trace report",
        "trace timeline",
        "trace export",
        "bench run",
        "bench compare",
        "encodings",
    ];
    let lines: Vec<&str> = stderr
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("satroute "))
        .collect();
    assert_eq!(lines.len(), rows.len(), "{stderr}");
    for row in rows {
        let matching = lines
            .iter()
            .filter(|line| **line == row || line.starts_with(&format!("{row} ")))
            .count();
        assert_eq!(matching, 1, "usage lines for `{row}`: {stderr}");
    }
}

/// Every command parses against its own usage line: a flag the command
/// does not read, or a positional argument beyond those it names, is an
/// error that names it, never silently dropped.
#[test]
fn flags_a_command_does_not_read_are_errors() {
    let dir = tempdir("misapplied");
    let problem = dir.join("tiny.txt");
    let trace = dir.join("gen.jsonl");
    let status = satroute()
        .args(["gen", "--bench", "tiny_a", "--out"])
        .arg(&problem)
        .status()
        .expect("binary runs");
    assert!(status.success());
    let p = problem.to_str().expect("utf-8 temp path");
    let t = trace.to_str().expect("utf-8 temp path");

    let cases: [(&[&str], &str); 9] = [
        (
            &[
                "route",
                p,
                "--width",
                "3",
                "--threads",
                "4",
                "--diversify",
                "3",
            ],
            "--threads",
        ),
        (
            &["explain", p, "--width", "2", "--certificate", "x.drat"],
            "--certificate",
        ),
        (
            &["explain", p, "--width", "2", "--symmetry", "b1"],
            "--symmetry",
        ),
        (&["min-width", p, "--width", "3"], "--width"),
        (
            &["encode", p, "--width", "2", "--timeout", "1"],
            "--timeout",
        ),
        (&["gen", "--bench", "tiny_a", "--trace", t], "--trace"),
        (&["trace", "report", t, "--chrome", "x"], "--chrome"),
        (
            &["bench", "compare", "a.json", "b.json", "--runs", "2"],
            "--runs",
        ),
        (&["bench", "run", "extra"], "extra"),
    ];
    for (args, named) in cases {
        let out = satroute().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("error:") && l.contains(named)),
            "{args:?}: {stderr}"
        );
    }
    assert!(!trace.exists(), "a rejected `gen --trace` wrote a trace");
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

    // A timeout beyond `Duration`'s range is a bad value, not a panic.
    let dir = tempdir("timeout");
    let problem = dir.join("tiny.txt");
    let status = satroute()
        .args(["gen", "--bench", "tiny_a", "--out"])
        .arg(&problem)
        .status()
        .expect("binary runs");
    assert!(status.success());
    let cases: [&[&str]; 2] = [
        &[
            "route",
            problem.to_str().unwrap(),
            "--width",
            "3",
            "--timeout",
            "1e300",
        ],
        &["bench", "run", "--suite", "quick", "--timeout", "1e20"],
    ];
    for args in cases {
        let out = satroute().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error: bad --timeout value"),
            "{args:?}: {stderr}"
        );
    }

    // A command that fails before its first trace event leaves no trace
    // file behind; one that a budget stops keeps a trace the analyzers
    // read.
    let p = problem.to_str().unwrap();
    let cases: [(&[&str], &str); 2] = [
        (
            &["route", "/nonexistent/problem.txt", "--width", "3"],
            "missing",
        ),
        (&["route", p, "--width", "abc"], "bad_width"),
    ];
    for (args, name) in cases {
        let trace = dir.join(format!("{name}.jsonl"));
        let out = satroute()
            .args(args)
            .arg("--trace")
            .arg(&trace)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!trace.exists(), "{args:?} left a trace file");
    }
    let hard = dir.join("tiny_c.txt");
    let status = satroute()
        .args(["gen", "--bench", "tiny_c", "--out"])
        .arg(&hard)
        .status()
        .expect("binary runs");
    assert!(status.success());
    let trace = dir.join("stopped.jsonl");
    let out = satroute()
        .arg("route")
        .arg(&hard)
        .args(["--width", "8", "--max-conflicts", "5", "--trace"])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(std::fs::metadata(&trace).is_ok_and(|m| m.len() > 0));
    let out = satroute()
        .args(["trace", "timeline"])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
}

#[test]
fn a_col_graph_too_large_to_encode_is_an_error_not_an_abort() {
    // One edge under a header of 10^9 vertices. Sized per declared vertex
    // the graph alone takes 24 GB; at width 2 the default encoding needs
    // 2·10^9 variables, above the CNF limit. Under a 4 GB address-space
    // limit the command must refuse with an error naming the limit.
    let dir = tempdir("big_col");
    let col = dir.join("big.col");
    std::fs::write(&col, "p edge 1000000000 1\ne 1 2\n").unwrap();
    let out = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -v 4000000; "$0" encode "$1" --width 2"#)
        .arg(env!("CARGO_BIN_EXE_satroute"))
        .arg(&col)
        .output()
        .expect("sh runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains("1073741823"),
        "{stderr}"
    );
}

#[test]
fn a_col_edge_naming_a_high_vertex_is_refused_before_the_graph_is_built() {
    // The header's 10^9 vertices need 2·10^9 variables at width 2. Built
    // first, the graph would size its rows up to the edge's endpoint
    // 10^9 (4 GB of offsets) before the limit could refuse it.
    let dir = tempdir("hi_col");
    let col = dir.join("hi.col");
    std::fs::write(&col, "p edge 1000000000 1\ne 1 1000000000\n").unwrap();
    let out = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -v 4000000; "$0" encode "$1" --width 2"#)
        .arg(env!("CARGO_BIN_EXE_satroute"))
        .arg(&col)
        .output()
        .expect("sh runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains("1073741823"),
        "{stderr}"
    );
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

    // Flag validation: zero members / zero threads are rejected, and so
    // is sharing without two copies of one strategy to share between, and
    // a strategy the paper's fixed portfolio would not race.
    let cases: [&[&str]; 6] = [
        &["--diversify", "0"],
        &["--threads", "0"],
        &["--portfolio-share"],
        &["--diversify", "1", "--portfolio-share"],
        &["--encoding", "log"],
        &["--symmetry", "b1"],
    ];
    for bad in cases {
        let out = satroute()
            .arg("portfolio")
            .arg(&problem)
            .args(["--width", "6"])
            .args(bad)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "{bad:?}: {stderr}");
        if ["--portfolio-share", "--encoding", "--symmetry"]
            .iter()
            .any(|flag| bad.contains(flag))
        {
            assert!(stderr.contains("--diversify"), "{bad:?}: {stderr}");
        }
    }
}

#[test]
fn progress_flag_reaches_portfolio() {
    let dir = tempdir("progress");
    let problem = dir.join("tiny.txt");
    satroute()
        .args(["gen", "--bench", "tiny_a", "--out"])
        .arg(&problem)
        .status()
        .expect("binary runs");

    let out = satroute()
        .arg("portfolio")
        .arg(&problem)
        .args(["--width", "3", "--progress"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("[portfolio +") && stderr.contains("start:"),
        "portfolio --progress printed no progress: {stderr}"
    );
}
