//! `satroute` — command-line front end for the SAT-based FPGA
//! detailed-routing flow.
//!
//! Run `satroute` without arguments for the usage: one line per command,
//! printed from [`USAGE`], the same table every command line is parsed
//! against. A flag the command does not read, or a positional argument
//! beyond those its line names, is an error (exit 2). The commands:
//! `gen` exports a suite benchmark; `route` finds a detailed routing and
//! `prove` proves unroutability (with a verified DRAT certificate under
//! `--certificate`); `min-width` searches the minimum width; `encode`
//! emits DIMACS CNF and `solve` runs the CDCL solver on it; `portfolio`
//! races a solver portfolio; `explain` blames a minimal net core for
//! unroutability; `trace report|timeline|export` analyze a `--trace`
//! artifact; `bench run|compare` record and gate `BENCH_*.json`
//! baselines; `encodings` lists the 15 encodings.
//!
//! `--encoding` takes the paper's spelling (default
//! ITE-linear-2+muldirect) and `--symmetry` defaults to s1.
//! `portfolio --diversify N` races N copies of the selected strategy,
//! each on its own diversified solver configuration, instead of the
//! paper's heterogeneous 3-strategy portfolio, so `portfolio` reads
//! `--encoding` and `--symmetry` only next to `--diversify`;
//! `--portfolio-share` needs N ≥ 2, since only copies of one strategy can
//! share learnt clauses, and `--threads` caps concurrent members
//! (default: available parallelism).
//!
//! `explain` re-encodes the instance with one activation selector per
//! net, extracts a failed-assumption core and shrinks it to a 1-minimal
//! set of jointly unroutable nets, rendered as per-net and per-channel
//! blame tables (exit 20 when a core exists). `--shrink-budget` caps the
//! deletion probes (a capped core stays sound but may not be minimal);
//! `min-width --explain` blames the width below the found minimum.
//! Explanation runs without symmetry breaking: deleting nets from a
//! symmetry-broken formula would be unsound.
//!
//! Run control (`RUN` in the usage): `--timeout` and `--max-conflicts`
//! budget every solve. Budgets are cooperative — checked at conflict
//! boundaries — so overshoot is bounded but nonzero; an exhausted budget
//! reports UNKNOWN with its stop reason. `--progress` adds a progress
//! logger to the command's tracer, printing each solve's start, its
//! search-state samples and its outcome on stderr; a traced run (with
//! `--progress` or `--trace`) that stops on a budget prints a postmortem.
//! `--trace` records hierarchical spans and samples to a JSONL artifact
//! for `trace report|timeline|export`; the writer is finished before
//! exit, so a full disk fails the command instead of truncating the
//! artifact, and a command that fails before its first event leaves no
//! file. `--metrics` writes a final registry snapshot, Prometheus
//! text for `.prom` and JSON otherwise. `bench run` takes `--timeout` and
//! `--trace` through the same path.
//!
//! `bench compare --gate` exits with status 3 when a cell's conflicts,
//! decisions, propagations or CNF shape differ from the baseline's, its
//! decided outcome changed or it is missing; wall time is reported and
//! never gated.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::fs;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use satroute::bench::{compare, run_suite, BenchArtifact, SuiteId, SuiteOptions};
use satroute::cnf::dimacs as cnf_dimacs;
use satroute::cnf::Var;
use satroute::coloring::dimacs as col_dimacs;
use satroute::coloring::CspGraph;
use satroute::core::{
    encode_coloring, num_vars_needed, run_portfolio, ColoringOutcome, EncodingId, ExplainOutcome,
    ExplainReport, PipelineError, PortfolioOptions, RoutingPipeline, Strategy,
};
use satroute::fpga::{benchmarks, io as fpga_io, BlameReport, NetId, RoutingProblem};
use satroute::obs::json::Value;
use satroute::obs::{FieldValue, TraceSink};
use satroute::solver::{InprocessConfig, SolveOutcome};
use satroute::{
    chrome_trace, collapsed_stacks, parse_jsonl, MetricsRegistry, ProgressLogger, RunContext,
    SpanForest, TimelineReport, TraceReport, TraceWriter, Tracer,
};

/// The run-control flags of every solving command; `RUN` in a [`USAGE`]
/// line stands for them.
const RUN: &str = "[--timeout <secs>] [--max-conflicts <n>] [--progress] [--json] \
                   [--trace <out.jsonl>] [--metrics <out.json|out.prom>] [--inprocess]";

/// Every command with its usage line. A flag followed by `<value>` takes
/// a value, a bracketed item is optional, and `RUN` stands for [`RUN`].
/// [`parse_args`] parses each command line against its row and
/// [`print_usage`] prints the rows, so the usage shows exactly what the
/// parser accepts.
const USAGE: &[(&str, &str)] = &[
    ("gen", "--bench <name> [--out <problem.txt>]"),
    (
        "route",
        "<problem.txt> --width <W> [--encoding <name>] [--symmetry <-|b1|s1>] \
         [--certificate <out.drat>] RUN",
    ),
    (
        "prove",
        "<problem.txt> --width <W> [--encoding <name>] [--symmetry <-|b1|s1>] \
         [--certificate <out.drat>] RUN",
    ),
    (
        "min-width",
        "<problem.txt> [--encoding <name>] [--symmetry <-|b1|s1>] [--incremental] [--explain] \
         [--shrink-budget <n>] RUN",
    ),
    (
        "encode",
        "<problem.txt|graph.col> --width <W> [--encoding <name>] [--symmetry <-|b1|s1>] \
         [--out <out.cnf>]",
    ),
    ("solve", "<file.cnf> [--proof <out.drat>] RUN"),
    (
        "portfolio",
        "<problem.txt> --width <W> [--encoding <name>] [--symmetry <-|b1|s1>] \
         [--diversify <N>] [--portfolio-share] [--threads <T>] RUN",
    ),
    (
        "explain",
        "<problem.txt> --width <W> [--encoding <name>] [--shrink-budget <n>] RUN",
    ),
    ("trace report", "<trace.jsonl> [--json]"),
    ("trace timeline", "<trace.jsonl> [--json]"),
    (
        "trace export",
        "<trace.jsonl> [--chrome <out.json>] [--collapsed <out.txt>]",
    ),
    (
        "bench run",
        "[--suite <name>] [--out <BENCH.json>] [--runs <N>] [--timeout <secs>] \
         [--trace <out.jsonl>] [--filter <S>]",
    ),
    (
        "bench compare",
        "<baseline.json> <candidate.json> [--gate] [--json]",
    ),
    ("encodings", ""),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        print_usage();
        return ExitCode::from(2);
    }
    match run(&argv) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!("usage:");
    for (command, usage) in USAGE {
        eprintln!("  {}", format!("satroute {command} {usage}").trim_end());
    }
    eprintln!("RUN = {RUN}\nsee the crate README for details");
}

/// A command line parsed against its command's row of [`USAGE`].
struct Args {
    command: &'static str,
    positional: Vec<String>,
    /// The flags given, each with its value (empty for a switch); a
    /// repeated flag keeps its last value.
    flags: BTreeMap<&'static str, String>,
}

/// Parses `argv` against the row of [`USAGE`] that its first words name:
/// every flag must be on that row, and the positional arguments and the
/// flags outside brackets must all be there.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let row = USAGE.iter().find(|(name, _)| {
        let mut words = name.split(' ').enumerate();
        words.all(|(i, word)| argv.get(i).is_some_and(|arg| arg == word))
    });
    let Some(&(command, usage)) = row else {
        let subcommands: Vec<&str> = USAGE
            .iter()
            .filter_map(|(name, _)| name.strip_prefix(argv[0].as_str())?.strip_prefix(' '))
            .collect();
        if subcommands.is_empty() {
            print_usage();
            return Err(format!("unknown command `{}`", argv[0]));
        }
        return Err(format!(
            "`{}` takes a subcommand: {}",
            argv[0],
            subcommands.join(", ")
        ));
    };
    // The row's flags as (flag, takes a value, required), and its
    // positional arguments.
    let mut flags = Vec::new();
    let mut positionals = Vec::new();
    let mut words = usage
        .split_whitespace()
        .flat_map(|word| if word == "RUN" { RUN } else { word }.split_whitespace())
        .peekable();
    while let Some(word) = words.next() {
        let name = word.trim_matches(['[', ']']);
        if name.starts_with("--") {
            let takes_value = words.next_if(|next| next.starts_with('<')).is_some();
            flags.push((name, takes_value, !word.starts_with('[')));
        } else {
            positionals.push(name);
        }
    }

    let mut args = Args {
        command,
        positional: Vec::new(),
        flags: BTreeMap::new(),
    };
    let mut rest = argv[command.split(' ').count()..].iter();
    while let Some(arg) = rest.next() {
        if arg.starts_with('-') && arg.len() > 1 {
            let &(flag, takes_value, _) = flags
                .iter()
                .find(|(flag, ..)| flag == arg)
                .ok_or_else(|| format!("`{command}` does not take {arg}"))?;
            let value = if takes_value {
                let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
                value.clone()
            } else {
                String::new()
            };
            args.flags.insert(flag, value);
        } else if args.positional.len() < positionals.len() {
            args.positional.push(arg.clone());
        } else {
            return Err(format!(
                "`{command}` does not take the extra argument `{arg}`"
            ));
        }
    }
    let missing_flag = flags
        .iter()
        .find(|&&(flag, _, required)| required && !args.has(flag));
    match (positionals.get(args.positional.len()), missing_flag) {
        (Some(&missing), _) | (None, Some(&(missing, ..))) => {
            Err(format!("`{command}` needs {missing}"))
        }
        (None, None) => Ok(args),
    }
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// The value of `flag` parsed as a `T`, if the flag was given.
    fn parse<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let parse = |v: &str| {
            v.parse()
                .map_err(|e| format!("bad {flag} value `{v}`: {e}"))
        };
        self.get(flag).map(parse).transpose()
    }

    /// The value of a flag that the command's usage line requires.
    fn required<T: FromStr>(&self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.parse(flag)?
            .ok_or_else(|| format!("`{}` needs {flag}", self.command))
    }

    /// The `--encoding` / `--symmetry` strategy, by default the paper's
    /// best (ITE-linear-2+muldirect with s1).
    fn strategy(&self) -> Result<Strategy, String> {
        let best = Strategy::paper_best();
        Ok(Strategy::new(
            self.parse("--encoding")?.unwrap_or(best.encoding),
            self.parse("--symmetry")?.unwrap_or(best.symmetry),
        ))
    }

    /// The command's run control, for the solving commands and `bench
    /// run` alike: `--timeout` and `--max-conflicts` as the budget,
    /// `--inprocess` in the solver configuration, a live registry under
    /// `--metrics`, and the `--trace` writer plus a `--progress` logger on
    /// stderr as the tracer. `bench run` starts from its suites' default
    /// budget, every other command from no budget. The caller keeps the
    /// returned writer and finishes it once the command completes, so a
    /// write failure surfaces as an error instead of a truncated artifact.
    fn run_context(&self) -> Result<(RunContext, Option<TraceWriter<fs::File>>), String> {
        let mut ctx = match self.command {
            "bench run" => SuiteOptions::default().ctx,
            _ => RunContext::default(),
        };
        if let Some(v) = self.get("--timeout") {
            let wall = v
                .parse()
                .ok()
                .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                .ok_or_else(|| format!("bad --timeout value `{v}`"))?;
            ctx.budget = ctx.budget.with_wall(wall);
        }
        if let Some(n) = self.parse("--max-conflicts")? {
            ctx.budget = ctx.budget.with_max_conflicts(n);
        }
        if self.has("--inprocess") {
            ctx.config.inprocess = InprocessConfig::on();
        }
        if self.has("--metrics") {
            ctx.metrics = MetricsRegistry::new();
        }
        let writer = self
            .get("--trace")
            .map(|path| {
                TraceWriter::to_path(path).map_err(|e| format!("cannot create {path}: {e}"))
            })
            .transpose()?;
        let mut sinks: Vec<Box<dyn TraceSink>> = Vec::new();
        if let Some(writer) = &writer {
            sinks.push(Box::new(writer.clone()));
        }
        if self.has("--progress") {
            sinks.push(Box::new(ProgressLogger::stderr(self.command)));
        }
        if !sinks.is_empty() {
            ctx.tracer = Tracer::with_sinks(sinks);
        }
        Ok((ctx, writer))
    }
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    let (ctx, trace_writer) = args.run_context()?;
    let code = dispatch(&args, &ctx);
    if let (Some(writer), Some(path)) = (trace_writer, args.get("--trace")) {
        let finished = writer.finish();
        // A command that fails before its first trace event leaves no
        // empty artifact behind; one that fails later, as a budget-stopped
        // `route` does, keeps its trace.
        if code.is_err() && fs::metadata(path).is_ok_and(|m| m.len() == 0) {
            let _ = fs::remove_file(path);
        }
        if code.is_ok() {
            finished.map_err(|e| format!("trace artifact {path} incomplete: {e}"))?;
        }
    }
    let code = code?;
    if let Some(path) = args.get("--metrics") {
        write_metrics_snapshot(path, &ctx.metrics)?;
    }
    Ok(code)
}

fn load_problem(path: &str) -> Result<RoutingProblem, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    fpga_io::parse_problem_str(&text).map_err(|e| format!("{e}"))
}

/// Writes a final registry snapshot to `path`: Prometheus text exposition
/// for `.prom`, a JSON document otherwise.
fn write_metrics_snapshot(path: &str, registry: &MetricsRegistry) -> Result<(), String> {
    let snapshot = registry.snapshot();
    let text = if path.ends_with(".prom") {
        snapshot.to_prometheus()
    } else {
        let mut s = snapshot.to_json().to_json();
        s.push('\n');
        s
    };
    fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn dispatch(args: &Args, ctx: &RunContext) -> Result<ExitCode, String> {
    let json = args.has("--json");
    match args.command {
        "gen" => {
            let name: String = args.required("--bench")?;
            let instance = benchmarks::suite_tiny()
                .into_iter()
                .chain(benchmarks::suite_paper())
                .find(|b| b.name == name)
                .ok_or_else(|| {
                    format!("unknown benchmark `{name}` (try tiny_a..tiny_c, alu2..k2)")
                })?;
            let text = fpga_io::to_problem_string(&instance.problem);
            match args.get("--out") {
                Some(path) => {
                    fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
                    println!(
                        "wrote {path} ({} subnets; routable at W={}, unroutable at W={})",
                        instance.problem.num_subnets(),
                        instance.routable_width,
                        instance.unroutable_width
                    );
                }
                None => print!("{text}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        "route" | "prove" => {
            let width = args.required("--width")?;
            let problem = load_problem(&args.positional[0])?;
            let pipeline = RoutingPipeline::new(args.strategy()?).context(ctx.clone());
            if let Some(cert_path) = args.get("--certificate") {
                let (result, certificate) = pipeline
                    .prove_unroutable_certified(&problem, width)
                    .map_err(pipeline_stop)?;
                return finish_route(result, Some((cert_path, certificate)), json);
            }
            let result = pipeline.route(&problem, width).map_err(pipeline_stop)?;
            finish_route(result, None, json)
        }
        "min-width" => {
            let problem = load_problem(&args.positional[0])?;
            let strategy = args.strategy()?;
            let shrink_budget = args.parse("--shrink-budget")?;
            let incremental = args.has("--incremental");
            let pipeline = RoutingPipeline::new(strategy).context(ctx.clone());
            let search = if incremental {
                // One warm solver for the whole ladder: encode once at the
                // DSATUR bound, sweep widths via selector assumptions.
                pipeline.find_min_width_incremental(&problem)
            } else {
                pipeline.find_min_width(&problem)
            }
            .map_err(pipeline_stop)?;
            // Cumulative across the ladder: the last probe reports the
            // warm solver's total counters.
            let conflicts = search
                .probes
                .last()
                .map_or(0, |p| p.report.solver_stats.conflicts);
            // --explain blames the width just below the minimum — by
            // construction the tightest unroutable probe.
            let explanation = if args.has("--explain") && search.min_width > 0 {
                let width = search.min_width - 1;
                Some(explain_at(&problem, width, strategy, shrink_budget, ctx))
            } else {
                if args.has("--explain") {
                    eprintln!("note: minimum width is 0 — nothing to blame");
                }
                None
            };
            if let Some((report, _)) = &explanation {
                if let Some(pm) = &report.postmortem {
                    eprint!("{}", pm.render_text());
                }
            }
            if json {
                let probes = search.probes.iter().map(|p| {
                    Value::object([
                        ("width", Value::from(u64::from(p.width))),
                        ("routable", Value::from(p.routing.is_some())),
                    ])
                });
                let mut doc = vec![
                    ("min_width", Value::from(u64::from(search.min_width))),
                    ("incremental", Value::from(incremental)),
                    ("probes", Value::array(probes)),
                ];
                if incremental {
                    let bound = search.core_lower_bound().map(u64::from);
                    let tracks = search.failed_tracks.iter().map(|&t| u64::from(t).into());
                    doc.push(("conflicts", Value::from(conflicts)));
                    doc.push(("core_lower_bound", bound.map_or(Value::Null, Value::from)));
                    doc.push(("failed_tracks", Value::array(tracks)));
                }
                if let Some((report, blame)) = &explanation {
                    doc.push(("explain", explain_json(report, blame.as_ref())));
                }
                println!("{}", Value::object(doc).to_json());
            } else {
                if incremental {
                    println!(
                        "minimum channel width: {} (incremental, {conflicts} conflicts)",
                        search.min_width
                    );
                } else {
                    println!("minimum channel width: {}", search.min_width);
                }
                for probe in &search.probes {
                    println!(
                        "  W = {:>2}: {}",
                        probe.width,
                        if probe.routing.is_some() {
                            "SAT"
                        } else {
                            "UNSAT"
                        }
                    );
                }
                if let Some(bound) = search.core_lower_bound() {
                    let tracks: Vec<String> =
                        search.failed_tracks.iter().map(u32::to_string).collect();
                    println!(
                        "  final UNSAT core: tracks [{}] (width >= {bound})",
                        tracks.join(", ")
                    );
                }
                if let Some((report, blame)) = &explanation {
                    println!();
                    match (&report.outcome, blame) {
                        (ExplainOutcome::Core(_), Some(blame)) => print!("{}", blame.render_text()),
                        (ExplainOutcome::Unknown(reason), _) => {
                            println!("explain: undecided ({reason})");
                        }
                        // min_width - 1 is unroutable by construction of the
                        // search, so a Colorable verdict cannot happen.
                        _ => println!("explain: no core"),
                    }
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "explain" => {
            let width = args.required("--width")?;
            let problem = load_problem(&args.positional[0])?;
            let (strategy, shrink_budget) = (args.strategy()?, args.parse("--shrink-budget")?);
            let (report, blame) = explain_at(&problem, width, strategy, shrink_budget, ctx);
            if let Some(pm) = &report.postmortem {
                eprint!("{}", pm.render_text());
            }
            if json {
                println!("{}", explain_json(&report, blame.as_ref()).to_json());
            } else {
                match &report.outcome {
                    ExplainOutcome::Colorable(_) => {
                        println!("ROUTABLE with {width} tracks — nothing to blame");
                    }
                    ExplainOutcome::Unknown(reason) => {
                        println!("UNDECIDED with {width} tracks ({reason})");
                    }
                    ExplainOutcome::Core(core) => {
                        println!(
                            "UNROUTABLE with {width} tracks ({} probes, {} conflicts)",
                            report.probes, report.solver_stats.conflicts
                        );
                        if core.status.is_minimal() {
                            println!(
                                "core: {} of {} initial net(s), 1-minimal",
                                core.groups.len(),
                                core.initial_size
                            );
                        } else {
                            println!(
                                "core: {} of {} initial net(s), shrink stopped: {} ({} untested)",
                                core.groups.len(),
                                core.initial_size,
                                core.status.name(),
                                core.status.untested()
                            );
                        }
                        println!();
                        if let Some(blame) = &blame {
                            print!("{}", blame.render_text());
                        }
                    }
                }
            }
            match &report.outcome {
                ExplainOutcome::Core(_) => Ok(ExitCode::from(20)),
                _ => Ok(ExitCode::SUCCESS),
            }
        }
        "encode" => {
            let width = args.required("--width")?;
            let path = &args.positional[0];
            // A `.col` graph is built only once its variables are known to
            // fit: one edge naming a high vertex sizes the graph up to it.
            let (num_vertices, col_edges, problem_graph) = if path.ends_with(".col") {
                let text =
                    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
                let (n, edges) =
                    col_dimacs::parse_col_edges(text.as_bytes()).map_err(|e| format!("{e}"))?;
                (n, edges, None)
            } else {
                let graph = load_problem(path)?.conflict_graph();
                (graph.num_vertices(), Vec::new(), Some(graph))
            };
            let strategy = args.strategy()?;
            let encoding = strategy.encoding.encoding();
            let vars = num_vars_needed(num_vertices, width, &encoding);
            if vars > u64::from(Var::LIMIT) {
                return Err(format!(
                    "encoding {num_vertices} vertices at width {width} needs {vars} variables, \
                     above the CNF limit of {} (2^30 - 1)",
                    Var::LIMIT
                ));
            }
            let graph =
                problem_graph.unwrap_or_else(|| CspGraph::from_edges(num_vertices, col_edges));
            let enc = encode_coloring(&graph, width, &encoding, strategy.symmetry);
            let text = cnf_dimacs::to_cnf_string(&enc.formula);
            match args.get("--out") {
                Some(out) => {
                    fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
                    println!(
                        "wrote {out} ({} vars, {} clauses, {strategy})",
                        enc.formula.num_vars(),
                        enc.formula.num_clauses(),
                    );
                }
                None => print!("{text}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        "solve" => {
            let path = &args.positional[0];
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let formula = cnf_dimacs::parse_cnf_str(&text).map_err(|e| format!("{e}"))?;
            let span = ctx.tracer.span_with(
                "solve",
                [("strategy", FieldValue::from(format!("cnf:{path}")))],
            );
            let mut solver = ctx.solver(span.id());
            let proof_path = args.get("--proof");
            if proof_path.is_some() {
                solver.enable_proof_logging();
            }
            solver.add_formula(&formula);
            let outcome = solver.solve();
            drop(span);
            if json {
                let stats = solver.stats();
                let (result, reason) = match &outcome {
                    SolveOutcome::Sat(_) => ("sat", None),
                    SolveOutcome::Unsat => ("unsat", None),
                    SolveOutcome::Unknown(reason) => ("unknown", Some(reason.to_string())),
                };
                let doc = Value::object([
                    ("result", Value::from(result)),
                    ("stop_reason", reason.map_or(Value::Null, Value::from)),
                    ("conflicts", Value::from(stats.conflicts)),
                    ("decisions", Value::from(stats.decisions)),
                    ("propagations", Value::from(stats.propagations)),
                ]);
                println!("{}", doc.to_json());
            }
            match outcome {
                SolveOutcome::Sat(model) => {
                    debug_assert!(formula.is_satisfied_by(&model));
                    if !json {
                        println!("s SATISFIABLE");
                        print!("v");
                        for (var, value) in model.iter() {
                            print!(
                                " {}",
                                if value {
                                    var.to_dimacs()
                                } else {
                                    -var.to_dimacs()
                                }
                            );
                        }
                        println!(" 0");
                    }
                    Ok(ExitCode::from(10))
                }
                SolveOutcome::Unsat => {
                    if !json {
                        println!("s UNSATISFIABLE");
                    }
                    if let Some(out) = proof_path {
                        let proof = solver.take_proof().expect("logging enabled");
                        fs::write(out, proof.to_drat_string())
                            .map_err(|e| format!("cannot write {out}: {e}"))?;
                        if !json {
                            println!("c DRAT proof written to {out}");
                        }
                    }
                    Ok(ExitCode::from(20))
                }
                SolveOutcome::Unknown(reason) => {
                    if let Some(pm) = solver.postmortem() {
                        eprint!("{}", pm.render_text());
                    }
                    if !json {
                        println!("c stopped: {reason}");
                        println!("s UNKNOWN");
                    }
                    Ok(ExitCode::SUCCESS)
                }
            }
        }
        "portfolio" => {
            let width = args.required("--width")?;
            let diversify = args.parse::<NonZeroUsize>("--diversify")?;
            let share = args.has("--portfolio-share");
            // Only equal strategies share, and the paper portfolio's
            // members all differ: sharing needs two diversified copies.
            if share && diversify.is_none_or(|n| n.get() < 2) {
                return Err(
                    "--portfolio-share needs --diversify <N> with N >= 2: only copies of one \
                     strategy can share clauses"
                        .to_string(),
                );
            }
            // The paper's portfolio fixes its members' strategies.
            let strategy_flag = ["--encoding", "--symmetry"]
                .into_iter()
                .find(|f| args.has(f));
            if let (None, Some(flag)) = (diversify, strategy_flag) {
                return Err(format!(
                    "{flag} needs --diversify <N>: without it `portfolio` races the paper's \
                     3-strategy portfolio"
                ));
            }
            let graph = load_problem(&args.positional[0])?.conflict_graph();
            // --diversify N races N copies of the selected strategy, which
            // `run_portfolio` diversifies (a sound setting for clause
            // sharing: identical CNF per member); the default races the
            // paper's heterogeneous 3-strategy portfolio.
            let strategies = match diversify {
                Some(n) => Strategy::diversified(args.strategy()?, n.get()),
                None => Strategy::paper_portfolio_3(),
            };
            let mut portfolio_opts = PortfolioOptions::new().with_sharing(share);
            if let Some(n) = args.parse::<NonZeroUsize>("--threads")? {
                portfolio_opts = portfolio_opts.with_max_threads(n.get());
            }
            let result = run_portfolio(&graph, width, &strategies, ctx, &portfolio_opts);

            if json {
                let members = result.members.iter().map(|m| {
                    Value::object([
                        ("strategy", Value::string(m.strategy.to_string())),
                        ("decided", Value::from(m.is_decided())),
                        ("conflicts", Value::from(m.report.solver_stats.conflicts)),
                        ("exported_clauses", Value::from(m.exported_clauses())),
                        ("imported_clauses", Value::from(m.imported_clauses())),
                    ])
                });
                let routable = result.report().map(|r| r.outcome.is_colorable());
                let winner = result.strategy().map(|s| s.to_string());
                let doc = Value::object([
                    ("width", Value::from(u64::from(width))),
                    ("routable", routable.map_or(Value::Null, Value::from)),
                    ("winner", winner.map_or(Value::Null, Value::from)),
                    ("sharing", Value::from(share)),
                    ("total_conflicts", Value::from(result.total_conflicts())),
                    ("total_exported", Value::from(result.total_exported())),
                    ("total_imported", Value::from(result.total_imported())),
                    ("wall_time_s", Value::from(result.wall_time.as_secs_f64())),
                    ("members", Value::array(members)),
                ]);
                println!("{}", doc.to_json());
            } else {
                match result.report().map(|r| &r.outcome) {
                    Some(ColoringOutcome::Colorable(_)) => {
                        println!(
                            "ROUTABLE with {width} tracks (winner: {})",
                            result.strategy().expect("decided")
                        );
                    }
                    Some(ColoringOutcome::Unsat) => {
                        println!(
                            "UNROUTABLE with {width} tracks (winner: {})",
                            result.strategy().expect("decided")
                        );
                    }
                    _ => println!("UNDECIDED with {width} tracks (budget exhausted)"),
                }
                for member in &result.members {
                    println!(
                        "  {:<28} {:>8} conflicts  {:>6} exported  {:>6} imported{}",
                        member.strategy.to_string(),
                        member.report.solver_stats.conflicts,
                        member.exported_clauses(),
                        member.imported_clauses(),
                        if member.is_decided() {
                            "  [decided]"
                        } else {
                            ""
                        },
                    );
                }
            }
            for member in &result.members {
                if let Some(pm) = &member.report.postmortem {
                    eprint!("{}", pm.render_text());
                }
            }
            match result.report().map(|r| r.outcome.is_colorable()) {
                Some(false) => Ok(ExitCode::from(20)),
                _ => Ok(ExitCode::SUCCESS),
            }
        }
        command @ ("trace report" | "trace timeline" | "trace export") => {
            let path = &args.positional[0];
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let events = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
            if events.is_empty() {
                return Err(format!("{path}: trace contains no events"));
            }
            let forest = SpanForest::from_events(&events).map_err(|e| format!("{path}: {e}"))?;
            match command {
                "trace report" => {
                    let report = TraceReport::from_forest(&forest);
                    if json {
                        println!("{}", report.to_json().to_json());
                    } else {
                        print!("{}", report.render_text(&forest));
                    }
                }
                "trace timeline" => {
                    let report = TimelineReport::from_forest(&forest);
                    if json {
                        println!("{}", report.to_json().to_json());
                    } else {
                        print!("{}", report.render_text());
                    }
                }
                _ => {
                    let (chrome, collapsed) = (args.get("--chrome"), args.get("--collapsed"));
                    if chrome.is_none() && collapsed.is_none() {
                        return Err(
                            "trace export needs --chrome <out.json> and/or --collapsed <out.txt>"
                                .to_string(),
                        );
                    }
                    if let Some(out) = chrome {
                        let doc = chrome_trace(&events).map_err(|e| format!("{path}: {e}"))?;
                        let mut text = doc.to_json();
                        text.push('\n');
                        fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
                        println!("wrote {out} (Chrome trace-event JSON; open in ui.perfetto.dev)");
                    }
                    if let Some(out) = collapsed {
                        let stacks = collapsed_stacks(&forest);
                        fs::write(out, stacks).map_err(|e| format!("cannot write {out}: {e}"))?;
                        println!("wrote {out} (folded stacks for inferno/flamegraph)");
                    }
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "bench run" => {
            let suite = args.parse("--suite")?.unwrap_or(SuiteId::Quick);
            let mut suite_opts = SuiteOptions {
                ctx: ctx.clone(),
                filter: args.get("--filter").map(String::from),
                ..SuiteOptions::default()
            };
            if let Some(runs) = args.parse::<NonZeroUsize>("--runs")? {
                suite_opts.runs = runs.get();
            }
            let out = args
                .get("--out")
                .map_or_else(|| format!("BENCH_{}.json", suite.name()), String::from);
            let artifact = run_suite(suite, &suite_opts, |line| eprintln!("{line}"));
            if let (true, Some(needle)) = (artifact.cells.is_empty(), &suite_opts.filter) {
                return Err(format!(
                    "--filter `{needle}` matches no cell of suite {}",
                    suite.name()
                ));
            }
            fs::write(&out, artifact.to_json_string())
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            println!(
                "suite {}: median wall time [s] per cell; speedup vs the first column",
                artifact.suite
            );
            print!("{}", artifact.render_grid());
            println!(
                "wrote {out} (suite {}, {} cells, {} runs/cell, {} {})",
                artifact.suite,
                artifact.cells.len(),
                suite_opts.runs,
                artifact.env.opt_level,
                artifact.env.rustc,
            );
            Ok(ExitCode::SUCCESS)
        }
        "bench compare" => {
            let load = |path: &str| -> Result<BenchArtifact, String> {
                let text =
                    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
                BenchArtifact::parse_str(&text).map_err(|e| format!("{path}: {e}"))
            };
            let baseline = load(&args.positional[0])?;
            let candidate = load(&args.positional[1])?;
            let comparison = compare(&baseline, &candidate, args.has("--gate"));
            if json {
                println!("{}", comparison.to_json().to_json());
            } else {
                print!("{}", comparison.render_text());
            }
            if comparison.gate_failed() {
                Ok(ExitCode::from(3))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        "encodings" => {
            println!("previously used for FPGA routing:");
            for id in EncodingId::PREVIOUS {
                println!("  {id}");
            }
            println!("introduced by the paper:");
            for id in EncodingId::NEW {
                println!("  {id}");
            }
            println!("also available: direct");
            Ok(ExitCode::SUCCESS)
        }
        command => unreachable!("`{command}` has a row in USAGE but no arm here"),
    }
}

/// Runs a net-grouped explanation of `problem` at `width` and maps the
/// resulting core (if any) onto the fabric as a blame report.
fn explain_at(
    problem: &RoutingProblem,
    width: u32,
    strategy: Strategy,
    shrink_budget: Option<u64>,
    ctx: &RunContext,
) -> (ExplainReport, Option<BlameReport>) {
    let graph = problem.conflict_graph();
    let groups: Vec<u32> = problem.subnets().map(|s| s.net.0).collect();
    let report = strategy
        .explain(&graph, &groups, width)
        .context(ctx.clone())
        .shrink_budget(shrink_budget)
        .run();
    let blame = report.core().map(|core| {
        let nets: Vec<NetId> = core.groups.iter().copied().map(NetId).collect();
        BlameReport::new(problem, width, &nets)
    });
    (report, blame)
}

/// The explanation run as a JSON document, embedding the blame report
/// when a core was found.
fn explain_json(report: &ExplainReport, blame: Option<&BlameReport>) -> Value {
    let routable = match &report.outcome {
        ExplainOutcome::Colorable(_) => Value::from(true),
        ExplainOutcome::Core(_) => Value::from(false),
        ExplainOutcome::Unknown(_) => Value::Null,
    };
    let mut pairs: Vec<(&str, Value)> = vec![
        ("width", Value::from(u64::from(report.width))),
        ("routable", routable),
        ("probes", Value::from(report.probes)),
        ("kept", Value::from(u64::from(report.kept))),
        ("dropped", Value::from(u64::from(report.dropped))),
        ("conflicts", Value::from(report.solver_stats.conflicts)),
    ];
    match &report.outcome {
        ExplainOutcome::Unknown(reason) => {
            pairs.push(("stop_reason", Value::string(reason.to_string())));
        }
        ExplainOutcome::Core(core) => {
            pairs.push(("status", Value::from(core.status.name())));
            pairs.push(("minimal", Value::from(core.status.is_minimal())));
            pairs.push(("untested", Value::from(u64::from(core.status.untested()))));
            pairs.push(("initial_core", Value::from(u64::from(core.initial_size))));
            pairs.push((
                "core_nets",
                Value::array(core.groups.iter().map(|&g| Value::from(u64::from(g)))),
            ));
            pairs.push(("lower_bound", Value::from(u64::from(report.width + 1))));
        }
        ExplainOutcome::Colorable(_) => {}
    }
    if let Some(blame) = blame {
        pairs.push(("blame", blame.to_json()));
    }
    Value::object(pairs)
}

/// Renders a pipeline stop as the command's error message, first printing
/// the stopped probe's postmortem on stderr when the run was traced.
fn pipeline_stop(err: PipelineError) -> String {
    let PipelineError::Undecided { postmortem, .. } = &err;
    if let Some(pm) = postmortem {
        eprint!("{}", pm.render_text());
    }
    err.to_string()
}

fn finish_route(
    result: satroute::core::RouteResult,
    certificate: Option<(&str, Option<satroute::core::UnroutabilityCertificate>)>,
    json: bool,
) -> Result<ExitCode, String> {
    if json {
        let report = &result.report;
        let tracks = result.routing.iter().flat_map(|r| r.tracks());
        let doc = Value::object([
            ("width", Value::from(u64::from(result.width))),
            ("routable", Value::from(result.routing.is_some())),
            ("tracks", Value::array(tracks.map(|&t| u64::from(t).into()))),
            ("conflicts", Value::from(report.solver_stats.conflicts)),
            ("wall_time_s", Value::from(report.solve_time.as_secs_f64())),
        ]);
        println!("{}", doc.to_json());
    }
    match &result.routing {
        Some(routing) => {
            if !json {
                println!("ROUTABLE with {} tracks", result.width);
                for (i, track) in routing.tracks().iter().enumerate() {
                    println!("  subnet {i}: track {track}");
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        None => {
            if !json {
                println!(
                    "UNROUTABLE with {} tracks ({} conflicts)",
                    result.width, result.report.solver_stats.conflicts
                );
            }
            if let Some((path, Some(cert))) = certificate {
                cert.verify()
                    .map_err(|e| format!("certificate failed: {e}"))?;
                fs::write(path, cert.proof.to_drat_string())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                if !json {
                    println!("verified DRAT certificate written to {path}");
                }
            }
            Ok(ExitCode::from(20))
        }
    }
}
