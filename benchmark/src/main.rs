//! Command line of the repository benchmark.
//!
//! ```text
//! satroute-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--trace-file OUT]
//! ```
//!
//! Prints one line per metric (`workload metric value unit n=samples`) and
//! ends with one JSON result line. Without `--workload`, every workload
//! runs in its own child process, one after another, so that each reports
//! its own peak memory. Exits nonzero when any answer is wrong or
//! undecided.

use std::process::{Command, ExitCode};

use satroute_benchmark::{run_traced, run_untraced, RunOptions, RunReport, Workload};

const USAGE: &str =
    "usage: satroute-benchmark [--workload table2-unsat|routable-sweep|min-width|large-route] \
[--seed N] [--seconds S] [--trace 0|1] [--trace-file OUT.jsonl]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: 25.0,
        trace: false,
        trace_file: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-file" => parsed.trace_file = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn environment() -> String {
    let output = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let rev = if std::path::Path::new(".git").exists() {
        output("git", &["rev-parse", "--short", "HEAD"])
    } else {
        "unknown".into()
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "cpus={cpus} rustc=\"{}\" git_rev={rev}",
        output("rustc", &["--version"])
    )
}

fn print_report(workload: Workload, report: &RunReport) {
    for m in report.metrics.iter().chain(&report.notes) {
        println!(
            "{workload} {} {} {} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for error in &report.errors {
        eprintln!("{workload}: error: {error}");
    }
    println!("{}", report.json());
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    println!("{workload} environment {}", environment());
    let opts = RunOptions {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace_file: args.trace_file.as_ref().map(Into::into),
    };
    let report = if args.trace {
        match run_traced(&opts) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{workload}: cannot write the trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_untraced(&opts)
    };
    print_report(workload, &report);
    if report.correct() && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own, in turn.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child.args(["--workload", workload.name()]);
        child.args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(file) = &args.trace_file {
            child.args(["--trace-file", &format!("{file}.{workload}")]);
        }
        match child.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("{workload}: cannot start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    satroute_benchmark::measure::fix_allocator();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}
