//! `satroute` — command-line front end for the SAT-based FPGA
//! detailed-routing flow.
//!
//! ```text
//! satroute gen --bench <name> --out <problem.txt>      export a suite benchmark
//! satroute route <problem.txt> --width <W> [...]       find a detailed routing
//! satroute prove <problem.txt> --width <W> [...]       prove unroutability (+DRAT)
//! satroute min-width <problem.txt> [...]               certified minimum width
//! satroute encode <problem.txt|.col> --width <W> [...] emit DIMACS CNF
//! satroute solve <file.cnf> [--proof <out.drat>]       run the CDCL solver
//! satroute portfolio <problem.txt> --width <W> [...]   race a solver portfolio
//! satroute explain <problem.txt> --width <W> [...]     blame a minimal net core for unroutability
//! satroute trace report <trace.jsonl> [--json]         analyze a trace artifact
//! satroute trace timeline <trace.jsonl> [--json]       search-state time series
//! satroute trace export <trace.jsonl> --chrome <f>     Perfetto / flamegraph export
//! satroute bench run [--suite <name>] [--filter S]     record a BENCH_*.json baseline + grid
//! satroute bench compare <base> <cand> [--gate]        diff/gate two baselines
//! satroute encodings                                   list the 15 encodings
//! ```
//!
//! Options: `--encoding <name>` (paper spelling, default
//! ITE-linear-2+muldirect), `--symmetry -|b1|s1` (default s1),
//! `--certificate <out.drat>`, `--out <path>`.
//!
//! Portfolio options: `--diversify <N>` (N diversified copies of the
//! selected strategy instead of the heterogeneous paper portfolio),
//! `--portfolio-share` (learnt-clause sharing between same-strategy
//! members; needs `--diversify <N>` with N ≥ 2, since the paper
//! portfolio's members all differ and a lone member has no peer),
//! `--threads <T>` (concurrent member cap, default: available
//! parallelism).
//!
//! Explain options: `satroute explain` re-encodes the instance with one
//! activation selector per net, extracts a failed-assumption core and
//! shrinks it to a 1-minimal set of jointly unroutable nets, rendered as
//! per-net and per-channel blame tables with the lower bounds the core
//! witnesses (exit 20 when a core exists). `--shrink-budget <n>` caps the
//! deletion probes (a capped core stays sound but may not be minimal).
//! `min-width --explain` additionally blames the width below the found
//! minimum. Explanation ignores `--symmetry`: deleting nets from a
//! symmetry-broken formula would be unsound.
//!
//! Run control (every solving command): `--timeout <secs>` (wall-clock
//! budget), `--max-conflicts <n>` (conflict budget), `--progress`
//! (solver progress on stderr), `--json` (machine-readable result on
//! stdout). Budgets are cooperative — checked at conflict boundaries — so
//! overshoot is bounded but nonzero; an exhausted budget reports UNKNOWN
//! with its stop reason.
//!
//! Progress and postmortems: `--progress` adds a progress logger to the
//! command's tracer, which prints each solve's start, its search-state
//! samples (one every 256 conflicts and at restart/reduce/GC boundaries,
//! at most one line per 100 ms) and its outcome. A traced run — with
//! `--progress` or `--trace` — that stops on a budget or cancellation
//! prints a postmortem on stderr: stop reason, hottest phase, last-window
//! conflict rate, learnt-DB and arena state. A `--trace` artifact carries
//! the samples for `trace timeline` and `trace export`.
//!
//! Tracing: `--trace <out.jsonl>` on `route`, `prove`, `min-width`,
//! `solve`, `portfolio` and `explain` records hierarchical
//! spans (graph generation, encoding, solving, decode) to a JSONL
//! artifact; `satroute trace report <out.jsonl>` reconstructs the span
//! tree and prints per-phase, per-encoding and per-member tables
//! (`--json` for machine-readable output). The writer is explicitly
//! finished before exit so a full buffer or disk error fails the command
//! instead of truncating the artifact silently.
//!
//! Metrics: `--metrics <out.json|out.prom>` on the same commands enables
//! the metrics registry (solver conflict/propagation counters, LBD and
//! restart-interval histograms, per-phase wall times) and writes a final
//! snapshot in JSON or Prometheus text exposition, chosen by extension.
//!
//! Benchmarking: `satroute bench run --suite quick --out BENCH_quick.json`
//! executes a pinned deterministic suite, records a baseline artifact and
//! prints its cells as a Table 2-style grid (suites: `quick`, `paper` =
//! Table 2, `routable`, `portfolio`, `incremental`, `explain`,
//! `inprocess`);
//! `satroute bench compare <baseline> <candidate> --gate [--threshold 25]`
//! diffs two artifacts and exits with status 3 when a gated metric
//! regressed (wall time gates only between timing-comparable
//! environments; conflicts/CNF shape/outcomes gate everywhere).

use std::fs;
use std::process::ExitCode;
use std::time::Duration;

use satroute::bench::{compare, BenchArtifact, GateOptions, SuiteId, SuiteOptions};
use satroute::cnf::dimacs as cnf_dimacs;
use satroute::coloring::dimacs as col_dimacs;
use satroute::coloring::CspGraph;
use satroute::core::{
    encode_coloring, EncodingId, ExplainOutcome, ExplainReport, PipelineError, RoutingPipeline,
    Strategy, SymmetryHeuristic,
};
use satroute::fpga::{benchmarks, io as fpga_io, BlameReport, NetId, RoutingProblem};
use satroute::obs::json::Value;
use satroute::obs::{FieldValue, TraceSink};
use satroute::solver::SolveOutcome;
use satroute::{
    chrome_trace, collapsed_stacks, parse_jsonl, MetricsRegistry, ProgressLogger, RunBudget,
    RunContext, SpanForest, TimelineReport, TraceReport, TraceWriter, Tracer,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[derive(Clone)]
struct Options {
    positional: Vec<String>,
    encoding: EncodingId,
    symmetry: SymmetryHeuristic,
    width: Option<u32>,
    out: Option<String>,
    bench: Option<String>,
    proof: Option<String>,
    certificate: Option<String>,
    incremental: bool,
    explain: bool,
    shrink_budget: Option<u64>,
    timeout: Option<f64>,
    max_conflicts: Option<u64>,
    progress: bool,
    json: bool,
    portfolio_share: bool,
    diversify: Option<usize>,
    threads: Option<usize>,
    trace: Option<String>,
    metrics: Option<String>,
    chrome: Option<String>,
    collapsed: Option<String>,
    inprocess: bool,
}

impl Options {
    /// The run control of a solving command: the default CDCL settings
    /// with inprocessing switched on by `--inprocess` (off keeps the
    /// classic search byte-identical), the `--timeout` / `--max-conflicts`
    /// budget, and the command's tracer and registry.
    fn run_context(&self, tracer: &Tracer, registry: &MetricsRegistry) -> RunContext {
        let mut ctx = RunContext {
            tracer: tracer.clone(),
            metrics: registry.clone(),
            ..RunContext::default()
        };
        if self.inprocess {
            ctx.config.inprocess = satroute::solver::InprocessConfig::on();
        }
        if let Some(secs) = self.timeout {
            ctx.budget = ctx.budget.with_wall(Duration::from_secs_f64(secs));
        }
        if let Some(n) = self.max_conflicts {
            ctx.budget = ctx.budget.with_max_conflicts(n);
        }
        ctx
    }

    /// The command's tracer: the `--trace` writer and a `--progress`
    /// logger on stderr labelled `label`, or the disabled tracer when
    /// neither is asked for.
    fn tracer(&self, label: &str, writer: Option<&TraceWriter<fs::File>>) -> Tracer {
        let mut sinks: Vec<Box<dyn TraceSink>> = Vec::new();
        if let Some(writer) = writer {
            sinks.push(Box::new(writer.clone()));
        }
        if self.progress {
            sinks.push(Box::new(ProgressLogger::stderr(label)));
        }
        if sinks.is_empty() {
            Tracer::disabled()
        } else {
            Tracer::with_sinks(sinks)
        }
    }

    /// The trace writer implied by `--trace`. The caller keeps the
    /// returned writer (the tracer holds a clone of its shared buffer)
    /// and calls [`TraceWriter::finish`] once the command completes, so
    /// write failures surface as errors instead of a truncated artifact.
    fn trace_writer(&self) -> Result<Option<TraceWriter<fs::File>>, String> {
        match &self.trace {
            Some(path) => Ok(Some(
                TraceWriter::to_path(path).map_err(|e| format!("cannot create {path}: {e}"))?,
            )),
            None => Ok(None),
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        positional: Vec::new(),
        encoding: EncodingId::IteLinear2Muldirect,
        symmetry: SymmetryHeuristic::S1,
        width: None,
        out: None,
        bench: None,
        proof: None,
        certificate: None,
        incremental: false,
        explain: false,
        shrink_budget: None,
        timeout: None,
        max_conflicts: None,
        progress: false,
        json: false,
        portfolio_share: false,
        diversify: None,
        threads: None,
        trace: None,
        metrics: None,
        chrome: None,
        collapsed: None,
        inprocess: false,
    };
    let mut i = 0;
    let take_value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--encoding" => {
                let v = take_value(args, &mut i, "--encoding")?;
                opts.encoding = v.parse().map_err(|e| format!("{e}"))?;
            }
            "--symmetry" => {
                let v = take_value(args, &mut i, "--symmetry")?;
                opts.symmetry = v.parse().map_err(|_| format!("unknown symmetry `{v}`"))?;
            }
            "--width" => {
                let v = take_value(args, &mut i, "--width")?;
                opts.width = Some(v.parse().map_err(|_| format!("bad width `{v}`"))?);
            }
            "--out" => opts.out = Some(take_value(args, &mut i, "--out")?),
            "--bench" => opts.bench = Some(take_value(args, &mut i, "--bench")?),
            "--proof" => opts.proof = Some(take_value(args, &mut i, "--proof")?),
            "--certificate" => opts.certificate = Some(take_value(args, &mut i, "--certificate")?),
            "--incremental" => opts.incremental = true,
            "--explain" => opts.explain = true,
            "--shrink-budget" => {
                let v = take_value(args, &mut i, "--shrink-budget")?;
                opts.shrink_budget =
                    Some(v.parse().map_err(|_| format!("bad shrink budget `{v}`"))?);
            }
            "--timeout" => {
                let v = take_value(args, &mut i, "--timeout")?;
                let secs: f64 = v.parse().map_err(|_| format!("bad timeout `{v}`"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(format!("bad timeout `{v}`"));
                }
                opts.timeout = Some(secs);
            }
            "--max-conflicts" => {
                let v = take_value(args, &mut i, "--max-conflicts")?;
                opts.max_conflicts =
                    Some(v.parse().map_err(|_| format!("bad conflict limit `{v}`"))?);
            }
            "--trace" => opts.trace = Some(take_value(args, &mut i, "--trace")?),
            "--metrics" => opts.metrics = Some(take_value(args, &mut i, "--metrics")?),
            "--inprocess" => opts.inprocess = true,
            "--chrome" => opts.chrome = Some(take_value(args, &mut i, "--chrome")?),
            "--collapsed" => opts.collapsed = Some(take_value(args, &mut i, "--collapsed")?),
            "--progress" => opts.progress = true,
            "--json" => opts.json = true,
            "--portfolio-share" => opts.portfolio_share = true,
            "--diversify" => {
                let v = take_value(args, &mut i, "--diversify")?;
                let n: usize = v.parse().map_err(|_| format!("bad member count `{v}`"))?;
                if n == 0 {
                    return Err("--diversify needs at least 1 member".to_string());
                }
                opts.diversify = Some(n);
            }
            "--threads" => {
                let v = take_value(args, &mut i, "--threads")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
                if n == 0 {
                    return Err("--threads needs at least 1".to_string());
                }
                opts.threads = Some(n);
            }
            flag if flag.starts_with('-') && flag.len() > 1 => {
                return Err(format!("unknown flag `{flag}`"))
            }
            positional => opts.positional.push(positional.to_string()),
        }
        i += 1;
    }
    Ok(opts)
}

fn load_problem(path: &str) -> Result<RoutingProblem, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    fpga_io::parse_problem_str(&text).map_err(|e| format!("{e}"))
}

fn find_benchmark(name: &str) -> Result<benchmarks::BenchmarkInstance, String> {
    benchmarks::suite_tiny()
        .into_iter()
        .chain(benchmarks::suite_paper())
        .find(|b| b.name == name)
        .ok_or_else(|| format!("unknown benchmark `{name}` (try tiny_a..tiny_c, alu2..k2)"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(ExitCode::from(2));
    };
    if command == "bench" {
        // The bench family has its own flag vocabulary (--suite, --gate,
        // --threshold, ...); parse it separately.
        return run_bench(&args[1..]);
    }
    let opts = parse_options(&args[1..])?;
    let trace_writer = opts.trace_writer()?;
    let tracer = opts.tracer(command, trace_writer.as_ref());
    let registry = if opts.metrics.is_some() {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::disabled()
    };

    let code = dispatch(command, opts.clone(), &tracer, &registry)?;

    if let Some(writer) = trace_writer {
        let path = opts.trace.as_deref().unwrap_or_default();
        writer
            .finish()
            .map_err(|e| format!("trace artifact {path} incomplete: {e}"))?;
    }
    if let Some(path) = &opts.metrics {
        write_metrics_snapshot(path, &registry)?;
    }
    Ok(code)
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

fn dispatch(
    command: &str,
    opts: Options,
    tracer: &Tracer,
    registry: &MetricsRegistry,
) -> Result<ExitCode, String> {
    let ctx = opts.run_context(tracer, registry);
    match command {
        "gen" => {
            let name = opts.bench.ok_or("gen needs --bench <name>")?;
            let instance = find_benchmark(&name)?;
            let text = fpga_io::to_problem_string(&instance.problem);
            match &opts.out {
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
            let path = opts
                .positional
                .first()
                .ok_or("route/prove need a problem file")?;
            let width = opts.width.ok_or("route/prove need --width <W>")?;
            let problem = load_problem(path)?;
            let pipeline = RoutingPipeline::new(Strategy::new(opts.encoding, opts.symmetry))
                .context(ctx.clone());

            if let Some(cert_path) = &opts.certificate {
                let (result, certificate) = pipeline
                    .prove_unroutable_certified(&problem, width)
                    .map_err(pipeline_stop)?;
                return finish_route(result, Some((cert_path, certificate)), opts.json);
            }
            let result = pipeline.route(&problem, width).map_err(pipeline_stop)?;
            finish_route(result, None, opts.json)
        }
        "min-width" => {
            let path = opts
                .positional
                .first()
                .ok_or("min-width needs a problem file")?;
            let problem = load_problem(path)?;
            let pipeline = RoutingPipeline::new(Strategy::new(opts.encoding, opts.symmetry))
                .context(ctx.clone());
            let search = if opts.incremental {
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
            let explanation = if opts.explain && search.min_width > 0 {
                Some(explain_at(&problem, search.min_width - 1, &opts, &ctx))
            } else {
                if opts.explain {
                    eprintln!("note: minimum width is 0 — nothing to blame");
                }
                None
            };
            if let Some((report, _)) = &explanation {
                if let Some(pm) = &report.postmortem {
                    eprint!("{}", pm.render_text());
                }
            }
            if opts.json {
                let probes = search.probes.iter().map(|p| {
                    Value::object([
                        ("width", Value::from(u64::from(p.width))),
                        ("routable", Value::from(p.routing.is_some())),
                    ])
                });
                let mut doc = vec![
                    ("min_width", Value::from(u64::from(search.min_width))),
                    ("incremental", Value::from(opts.incremental)),
                    ("probes", Value::array(probes)),
                ];
                if opts.incremental {
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
                if opts.incremental {
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
            let path = opts
                .positional
                .first()
                .ok_or("explain needs a problem file")?;
            let width = opts.width.ok_or("explain needs --width <W>")?;
            let problem = load_problem(path)?;
            let (report, blame) = explain_at(&problem, width, &opts, &ctx);
            if let Some(pm) = &report.postmortem {
                eprint!("{}", pm.render_text());
            }
            if opts.json {
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
            let path = opts
                .positional
                .first()
                .ok_or("encode needs an input file")?;
            let width = opts.width.ok_or("encode needs --width <W>")?;
            let graph: CspGraph = if path.ends_with(".col") {
                let text =
                    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
                col_dimacs::parse_col_str(&text).map_err(|e| format!("{e}"))?
            } else {
                load_problem(path)?.conflict_graph()
            };
            let enc = encode_coloring(&graph, width, &opts.encoding.encoding(), opts.symmetry);
            let text = cnf_dimacs::to_cnf_string(&enc.formula);
            match &opts.out {
                Some(out) => {
                    fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
                    println!(
                        "wrote {out} ({} vars, {} clauses, {}/{})",
                        enc.formula.num_vars(),
                        enc.formula.num_clauses(),
                        opts.encoding,
                        opts.symmetry
                    );
                }
                None => print!("{text}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        "solve" => {
            let path = opts.positional.first().ok_or("solve needs a .cnf file")?;
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let formula = cnf_dimacs::parse_cnf_str(&text).map_err(|e| format!("{e}"))?;
            let span = tracer.span_with(
                "solve",
                [("strategy", FieldValue::from(format!("cnf:{path}")))],
            );
            let mut solver = ctx.solver(span.id());
            if opts.proof.is_some() {
                solver.enable_proof_logging();
            }
            solver.add_formula(&formula);
            let outcome = solver.solve();
            drop(span);
            if opts.json {
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
                    if !opts.json {
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
                    if !opts.json {
                        println!("s UNSATISFIABLE");
                    }
                    if let Some(out) = &opts.proof {
                        let proof = solver.take_proof().expect("logging enabled");
                        fs::write(out, proof.to_drat_string())
                            .map_err(|e| format!("cannot write {out}: {e}"))?;
                        if !opts.json {
                            println!("c DRAT proof written to {out}");
                        }
                    }
                    Ok(ExitCode::from(20))
                }
                SolveOutcome::Unknown(reason) => {
                    if let Some(pm) = solver.postmortem() {
                        eprint!("{}", pm.render_text());
                    }
                    if !opts.json {
                        println!("c stopped: {reason}");
                        println!("s UNKNOWN");
                    }
                    Ok(ExitCode::SUCCESS)
                }
            }
        }
        "portfolio" => {
            let path = opts
                .positional
                .first()
                .ok_or("portfolio needs a problem file")?;
            let width = opts.width.ok_or("portfolio needs --width <W>")?;
            // Only equal strategies share, and the paper portfolio's
            // members all differ: sharing needs two diversified copies.
            if opts.portfolio_share && opts.diversify.is_none_or(|n| n < 2) {
                return Err(
                    "--portfolio-share needs --diversify <N> with N >= 2: only copies of one \
                     strategy can share clauses"
                        .to_string(),
                );
            }
            let problem = load_problem(path)?;
            let graph = problem.conflict_graph();

            use satroute::core::{run_portfolio, PortfolioOptions};
            // --diversify N races N copies of the selected strategy with
            // diversified solver configurations (a sound setting for clause
            // sharing: identical CNF per member); the default races the
            // paper's heterogeneous 3-strategy portfolio.
            let strategies = match opts.diversify {
                Some(n) => Strategy::diversified(Strategy::new(opts.encoding, opts.symmetry), n),
                None => Strategy::paper_portfolio_3(),
            };
            let mut portfolio_opts = PortfolioOptions::new()
                .with_diversified_configs(opts.diversify.is_some())
                .with_sharing(opts.portfolio_share);
            if let Some(n) = opts.threads {
                portfolio_opts = portfolio_opts.with_max_threads(n);
            }
            let result = run_portfolio(&graph, width, &strategies, &ctx, &portfolio_opts);

            if opts.json {
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
                    ("sharing", Value::from(opts.portfolio_share)),
                    ("total_conflicts", Value::from(result.total_conflicts())),
                    ("total_exported", Value::from(result.total_exported())),
                    ("total_imported", Value::from(result.total_imported())),
                    ("wall_time_s", Value::from(result.wall_time.as_secs_f64())),
                    ("members", Value::array(members)),
                ]);
                println!("{}", doc.to_json());
            } else {
                match result.report().map(|r| &r.outcome) {
                    Some(satroute::core::ColoringOutcome::Colorable(_)) => {
                        println!(
                            "ROUTABLE with {width} tracks (winner: {})",
                            result.strategy().expect("decided")
                        );
                    }
                    Some(satroute::core::ColoringOutcome::Unsat) => {
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
                Some(true) => Ok(ExitCode::SUCCESS),
                Some(false) => Ok(ExitCode::from(20)),
                None => Ok(ExitCode::SUCCESS),
            }
        }
        "trace" => {
            let sub = opts.positional.first().ok_or(
                "trace needs a subcommand (try: trace report|timeline|export <file.jsonl>)",
            )?;
            if !matches!(sub.as_str(), "report" | "timeline" | "export") {
                return Err(format!(
                    "unknown trace subcommand `{sub}` (try: trace report|timeline|export <file.jsonl>)"
                ));
            }
            let path = opts
                .positional
                .get(1)
                .ok_or_else(|| format!("trace {sub} needs a .jsonl trace file"))?;
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let events = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
            if events.is_empty() {
                return Err(format!("{path}: trace contains no events"));
            }
            let forest = SpanForest::from_events(&events).map_err(|e| format!("{path}: {e}"))?;
            match sub.as_str() {
                "report" => {
                    let report = TraceReport::from_forest(&forest);
                    if opts.json {
                        println!("{}", report.to_json().to_json());
                    } else {
                        print!("{}", report.render_text(&forest));
                    }
                }
                "timeline" => {
                    let report = TimelineReport::from_forest(&forest);
                    if opts.json {
                        println!("{}", report.to_json().to_json());
                    } else {
                        print!("{}", report.render_text());
                    }
                }
                "export" => {
                    if opts.chrome.is_none() && opts.collapsed.is_none() {
                        return Err(
                            "trace export needs --chrome <out.json> and/or --collapsed <out.txt>"
                                .to_string(),
                        );
                    }
                    if let Some(out) = &opts.chrome {
                        let doc = chrome_trace(&events).map_err(|e| format!("{path}: {e}"))?;
                        let mut text = doc.to_json();
                        text.push('\n');
                        fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
                        println!("wrote {out} (Chrome trace-event JSON; open in ui.perfetto.dev)");
                    }
                    if let Some(out) = &opts.collapsed {
                        let stacks = collapsed_stacks(&forest);
                        fs::write(out, stacks).map_err(|e| format!("cannot write {out}: {e}"))?;
                        println!("wrote {out} (folded stacks for inferno/flamegraph)");
                    }
                }
                _ => unreachable!("subcommand validated above"),
            }
            Ok(ExitCode::SUCCESS)
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
        other => {
            print_usage();
            Err(format!("unknown command `{other}`"))
        }
    }
}

/// `satroute bench run|compare` — the regression harness front end.
fn run_bench(args: &[String]) -> Result<ExitCode, String> {
    let Some(sub) = args.first() else {
        return Err("bench needs a subcommand (try: bench run, bench compare)".to_string());
    };
    let args = &args[1..];
    let take_value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    match sub.as_str() {
        "run" => {
            let mut suite = SuiteId::Quick;
            let mut out: Option<String> = None;
            let mut suite_opts = SuiteOptions::default();
            let mut trace: Option<String> = None;
            let mut i = 0;
            while i < args.len() {
                match args[i].as_str() {
                    "--suite" => {
                        suite = take_value(args, &mut i, "--suite")?.parse()?;
                    }
                    "--out" => out = Some(take_value(args, &mut i, "--out")?),
                    "--runs" => {
                        let v = take_value(args, &mut i, "--runs")?;
                        let n: usize = v.parse().map_err(|_| format!("bad run count `{v}`"))?;
                        if n == 0 {
                            return Err("--runs needs at least 1".to_string());
                        }
                        suite_opts.runs = n;
                    }
                    "--timeout" => {
                        let v = take_value(args, &mut i, "--timeout")?;
                        let secs: f64 = v.parse().map_err(|_| format!("bad timeout `{v}`"))?;
                        if !secs.is_finite() || secs < 0.0 {
                            return Err(format!("bad timeout `{v}`"));
                        }
                        suite_opts.ctx.budget =
                            RunBudget::new().with_wall(Duration::from_secs_f64(secs));
                    }
                    "--trace" => trace = Some(take_value(args, &mut i, "--trace")?),
                    "--filter" => {
                        suite_opts.filter = Some(take_value(args, &mut i, "--filter")?);
                    }
                    other => return Err(format!("unknown bench run argument `{other}`")),
                }
                i += 1;
            }
            let out = out.unwrap_or_else(|| format!("BENCH_{}.json", suite.name()));
            let trace_writer = match &trace {
                Some(path) => Some(
                    TraceWriter::to_path(path).map_err(|e| format!("cannot create {path}: {e}"))?,
                ),
                None => None,
            };
            suite_opts.ctx.tracer = trace_writer
                .as_ref()
                .map_or_else(Tracer::disabled, |w| Tracer::to_sink(w.clone()));

            let artifact =
                satroute::bench::run_suite(suite, &suite_opts, |line| eprintln!("{line}"));
            if artifact.cells.is_empty() {
                if let Some(needle) = &suite_opts.filter {
                    return Err(format!(
                        "--filter `{needle}` matches no cell of suite {}",
                        suite.name()
                    ));
                }
            }
            fs::write(&out, artifact.to_json_string())
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            println!(
                "suite {}: median wall time [s] per cell; speedup vs the first column",
                artifact.suite
            );
            print!("{}", artifact.render_grid());
            if let Some(writer) = trace_writer {
                let path = trace.as_deref().unwrap_or_default();
                writer
                    .finish()
                    .map_err(|e| format!("trace artifact {path} incomplete: {e}"))?;
            }
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
        "compare" => {
            let mut gate_opts = GateOptions::default();
            let mut json = false;
            let mut paths: Vec<String> = Vec::new();
            let mut i = 0;
            while i < args.len() {
                match args[i].as_str() {
                    "--gate" => gate_opts.gate = true,
                    "--threshold" => {
                        let v = take_value(args, &mut i, "--threshold")?;
                        let pct: f64 = v.parse().map_err(|_| format!("bad threshold `{v}`"))?;
                        if !pct.is_finite() || pct < 0.0 {
                            return Err(format!("bad threshold `{v}`"));
                        }
                        gate_opts.threshold_pct = pct;
                    }
                    "--json" => json = true,
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown bench compare argument `{flag}`"))
                    }
                    positional => paths.push(positional.to_string()),
                }
                i += 1;
            }
            let [baseline_path, candidate_path] = paths.as_slice() else {
                return Err("bench compare needs <baseline.json> <candidate.json>".to_string());
            };
            let load = |path: &str| -> Result<BenchArtifact, String> {
                let text =
                    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
                BenchArtifact::parse_str(&text).map_err(|e| format!("{path}: {e}"))
            };
            let baseline = load(baseline_path)?;
            let candidate = load(candidate_path)?;
            let comparison = compare(&baseline, &candidate, &gate_opts);
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
        other => Err(format!(
            "unknown bench subcommand `{other}` (try: bench run, bench compare)"
        )),
    }
}

/// Runs a net-grouped explanation of `problem` at `width` and maps the
/// resulting core (if any) onto the fabric as a blame report.
fn explain_at(
    problem: &RoutingProblem,
    width: u32,
    opts: &Options,
    ctx: &RunContext,
) -> (ExplainReport, Option<BlameReport>) {
    let graph = problem.conflict_graph();
    let groups: Vec<u32> = problem.subnets().map(|s| s.net.0).collect();
    let report = Strategy::new(opts.encoding, opts.symmetry)
        .explain(&graph, &groups, width)
        .context(ctx.clone())
        .shrink_budget(opts.shrink_budget)
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
    certificate: Option<(&String, Option<satroute::core::UnroutabilityCertificate>)>,
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

fn print_usage() {
    eprintln!(
        "usage: satroute <command> [options]\n\
         commands: gen, route, prove, min-width, encode, solve, portfolio, explain, trace, bench, encodings\n\
         run control: --timeout <secs>, --max-conflicts <n>, --progress, --json\n\
         simplification: --inprocess (in-search vivify/subsume/BVE rounds)\n\
         portfolio: --diversify <N>, --portfolio-share (needs --diversify N >= 2), --threads <T>\n\
         tracing: --trace <out.jsonl>; trace report|timeline <out.jsonl> [--json]\n\
         \u{20}        trace export <out.jsonl> --chrome <out.json> [--collapsed <out.txt>]\n\
         metrics: --metrics <out.json|out.prom>\n\
         min-width: --incremental (one warm solver, selector assumptions), --explain (blame the width below the minimum)\n\
         explain: --width <W>, --shrink-budget <n> (cap deletion probes), --json (core + blame document)\n\
         bench: bench run [--suite quick|paper|routable|portfolio|incremental|explain|inprocess] [--out F] [--runs N] [--trace F] [--filter S];\n\
         \u{20}       bench compare <base> <cand> [--gate] [--threshold PCT] [--json]\n\
         see the crate README for details"
    );
}
