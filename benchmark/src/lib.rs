//! The repository benchmark: seeded routing workloads timed end to end
//! through the public pipeline, and a traced pass that splits each job
//! into its layers. See `README.md` for the workloads and metrics.

pub mod jobs;
pub mod measure;
pub mod setup;

use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

use satroute_obs::{SpanForest, TraceSink, TraceWriter, Tracer};

use jobs::{Answer, Job, JobKind, JobResult, LayerTimes, Work};
use setup::{Instance, PassInputs, SetupTimes};

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The paper's Table 2: unroutability proofs at ω − 1.
    Table2Unsat,
    /// Every strategy routing at the DSATUR width.
    RoutableSweep,
    /// Cold and warm minimum-width ladders with the paper-best strategy.
    MinWidth,
    /// Large seeded fabrics routed at the DSATUR width.
    LargeRoute,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Table2Unsat,
        Workload::RoutableSweep,
        Workload::MinWidth,
        Workload::LargeRoute,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Unsat => "table2-unsat",
            Workload::RoutableSweep => "routable-sweep",
            Workload::MinWidth => "min-width",
            Workload::LargeRoute => "large-route",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// Number of samples behind the value.
    pub samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct RunReport {
    /// The metrics of the result line: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Further diagnostics printed only as text.
    pub notes: Vec<Metric>,
    /// Executions attempted.
    pub attempted: u64,
    /// Executions without a correct decided answer.
    pub failed: u64,
    /// Every wrong answer, oracle disagreement or trace mismatch.
    pub errors: Vec<String>,
}

impl RunReport {
    /// Whether every answer agreed with the oracle.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        use satroute_obs::json::Value;
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Value::object([
                    ("value", Value::from(m.value)),
                    ("unit", Value::from(m.unit)),
                ]),
            )
        });
        Value::object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::from(self.attempted as f64)),
            ("failed", Value::from(self.failed as f64)),
            ("metrics", Value::object(metrics)),
        ])
        .to_json()
    }
}

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time; whole passes are run until it is closest to this.
    pub seconds: f64,
    /// Where [`run_traced`] writes its pass as obs JSONL.
    pub trace_file: Option<std::path::PathBuf>,
}

/// `instance/strategy/kind`, for error messages.
fn label(job: &Job, inst: &Instance) -> String {
    format!("{}/{}/{}", inst.name, job.strategy, job.kind.name())
}

/// Checks one answer against the oracle.
pub fn check(job: &Job, inst: &Instance, answer: &Answer) -> Result<(), String> {
    let width = jobs::job_width(job, inst);
    let fail = |what: String| Err(format!("{}: {what}", label(job, inst)));
    match (job.kind, answer) {
        (JobKind::Prove, Answer::Unroutable) => Ok(()),
        (JobKind::Route, Answer::Routed(routing)) => inst
            .problem
            .verify_detailed_routing(routing, width)
            .or_else(|e| fail(format!("routing at width {width} does not verify: {e}"))),
        (
            JobKind::ColdLadder | JobKind::WarmLadder,
            Answer::MinWidth {
                min,
                routing,
                probes,
                last_unsat,
            },
        ) => {
            if !(inst.omega()..=inst.dsatur_width).contains(min) {
                return fail(format!(
                    "minimum width {min} outside [ω {}, DSATUR {}]",
                    inst.omega(),
                    inst.dsatur_width
                ));
            }
            if !*last_unsat || probes.last().copied() != min.checked_sub(1) {
                return fail(format!(
                    "last probe is not an UNSAT below {min}: {probes:?}"
                ));
            }
            inst.problem
                .verify_detailed_routing(routing, *min)
                .or_else(|e| fail(format!("routing at width {min} does not verify: {e}")))
        }
        (_, answer) => fail(format!("wrong answer at width {width}: {answer:?}")),
    }
}

/// Tallies executions: answers, oracle errors, and the ladder minima that
/// must agree between cold and warm ladders and across passes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    undecided: u64,
    wrong: u64,
    errors: Vec<String>,
    minima: BTreeMap<usize, u32>,
    /// Ladder probes run, and the ones a perfect ladder needs (the SAT
    /// probe at the minimum and the UNSAT probe below it).
    probes: u64,
    needed_probes: u64,
}

impl Tally {
    /// Checks each instance's clique witness, the evidence behind every
    /// UNSAT answer at ω − 1.
    fn witnesses(&mut self, instances: &[Instance]) {
        self.errors
            .extend(instances.iter().filter_map(|i| i.check_clique().err()));
    }

    fn record(&mut self, job: &Job, inst: &Instance, result: &JobResult) {
        self.attempted += 1;
        let answer = match result {
            Ok((answer, _)) => answer,
            Err(e) => {
                self.undecided += 1;
                self.errors
                    .push(format!("{}: undecided: {e}", label(job, inst)));
                return;
            }
        };
        let mut verdict = check(job, inst, answer);
        if let (Ok(()), Answer::MinWidth { min, probes, .. }) = (&verdict, answer) {
            self.probes += probes.len() as u64;
            self.needed_probes += if *min > 0 { 2 } else { 1 };
            let first = *self.minima.entry(job.instance).or_insert(*min);
            if first != *min {
                verdict = Err(format!(
                    "{}: minimum width {min}, another ladder found {first}",
                    label(job, inst)
                ));
            }
        }
        if let Err(e) = verdict {
            self.wrong += 1;
            self.errors.push(e);
        }
    }

    fn failed(&self) -> u64 {
        self.undecided + self.wrong
    }
}

/// What one pass measured.
struct PassStats {
    jobs_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    peak_rss_mib: f64,
}

/// Runs `workload` untraced for about `seconds` and reports the
/// end-to-end metrics.
pub fn run_untraced(opts: &RunOptions) -> RunReport {
    let mut inputs = PassInputs::new(opts.seed);
    let mut tally = Tally::default();
    let mut jobs = Vec::new();

    let wait_before = measure::runqueue_wait_s();
    let started = Instant::now();
    let mut setup_samples = Vec::new();
    let mut times = Vec::new();
    let mut passes = Vec::new();
    loop {
        // Every pass sets up afresh, so that set-up time is sampled
        // across the whole run like the jobs are.
        let setup_started = Instant::now();
        let instances = {
            let canonical = setup::build(
                opts.workload,
                &Tracer::disabled(),
                &mut SetupTimes::default(),
            );
            setup_samples.push(setup_started.elapsed().as_secs_f64());
            if jobs.is_empty() {
                jobs = jobs::pass(opts.workload, &canonical);
            }
            inputs.next_pass(&canonical)
        };
        tally.witnesses(&instances);
        measure::reset_peak_rss();
        let first = times.len();
        for job in &jobs {
            let inst = &instances[job.instance];
            let (result, wall) = jobs::timed_execution(|| jobs::run(job, inst));
            times.push(wall.as_secs_f64());
            tally.record(job, inst, &result);
        }
        let pass = &times[first..];
        passes.push(PassStats {
            jobs_per_s: pass.len() as f64 / pass.iter().sum::<f64>(),
            p50_ms: measure::median(pass) * 1e3,
            p90_ms: measure::quantile(pass, 0.9) * 1e3,
            peak_rss_mib: measure::peak_rss_bytes() as f64 / 1048576.0,
        });
        // Whole passes keep the job mix fixed; stop at the pass count
        // that brings the measured time closest to `seconds`.
        let pass_s = setup_started.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + pass_s / 2.0 >= opts.seconds {
            break;
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    let wait_s = measure::runqueue_wait_s() - wait_before;

    let n = times.len();
    let p = passes.len();
    let column = |f: fn(&PassStats) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    let attempted = tally.attempted as f64;
    RunReport {
        metrics: vec![
            metric(
                "setup_s",
                measure::median(&setup_samples),
                "s",
                setup_samples.len(),
            ),
            // Medians over passes, so that one heavy-tailed solve or one
            // stall of the host moves one sample rather than the result.
            metric(
                "jobs_per_s",
                measure::median(&column(|p| p.jobs_per_s)),
                "1/s",
                n,
            ),
            metric("job_p50_ms", measure::median(&times) * 1e3, "ms", n),
            metric("job_p90_ms", measure::quantile(&times, 0.9) * 1e3, "ms", n),
            metric(
                "peak_rss_mib",
                measure::median(&column(|p| p.peak_rss_mib)),
                "MiB",
                p,
            ),
        ],
        notes: vec![
            metric(
                "decided_frac",
                1.0 - tally.undecided as f64 / attempted,
                "ratio",
                n,
            ),
            metric(
                "error_count",
                (tally.errors.len() as u64 - tally.undecided) as f64,
                "count",
                n,
            ),
            metric("passes", p as f64, "count", 1),
            metric("measured_s", measured_s, "s", 1),
            metric(
                "setup_s.iqr_frac",
                measure::iqr_frac(&setup_samples),
                "ratio",
                setup_samples.len(),
            ),
            metric(
                "jobs_per_s.pass_iqr_frac",
                measure::iqr_frac(&column(|p| p.jobs_per_s)),
                "ratio",
                p,
            ),
            metric(
                "job_p50_ms.pass_iqr_frac",
                measure::iqr_frac(&column(|p| p.p50_ms)),
                "ratio",
                p,
            ),
            metric(
                "job_p90_ms.pass_iqr_frac",
                measure::iqr_frac(&column(|p| p.p90_ms)),
                "ratio",
                p,
            ),
            metric("host.runqueue_wait_s", wait_s, "s", 1),
        ],
        attempted: tally.attempted,
        failed: tally.failed(),
        errors: tally.errors,
    }
}

/// Runs one traced set-up and one pass of `workload`, each job untraced
/// and then traced, and reports the per-layer metrics.
///
/// # Errors
///
/// Fails when the trace file cannot be created or written.
pub fn run_traced(opts: &RunOptions) -> std::io::Result<RunReport> {
    let writer = opts
        .trace_file
        .as_ref()
        .map(TraceWriter::to_path)
        .transpose()?;
    // The in-memory copy lets every traced run validate its own spans.
    let buffer = satroute_obs::BufferSink::new();
    let mut sinks: Vec<Box<dyn TraceSink>> = vec![Box::new(buffer.clone())];
    if let Some(writer) = &writer {
        sinks.push(Box::new(writer.clone()));
    }
    let tracer = Tracer::with_sinks(sinks);

    let mut setup_times = SetupTimes::default();
    let setup_span = tracer.span("setup");
    let canonical = setup::build(opts.workload, &tracer, &mut setup_times);
    let setup_s = setup_span.close().as_secs_f64();
    let jobs = jobs::pass(opts.workload, &canonical);
    let instances = PassInputs::new(opts.seed).next_pass(&canonical);
    let mut tally = Tally::default();
    tally.witnesses(&instances);

    let mut layers = LayerTimes::default();
    let mut work = Work::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let wait_before = measure::runqueue_wait_s();
    for job in &jobs {
        let inst = &instances[job.instance];
        let (plain, plain_wall) = jobs::timed_execution(|| jobs::run(job, inst));
        let (traced, traced_wall) =
            jobs::timed_execution(|| jobs::run_traced(job, inst, &tracer, &mut layers));
        plain_s += plain_wall.as_secs_f64();
        traced_s += traced_wall.as_secs_f64();
        tally.record(job, inst, &traced);
        if let Ok((_, job_work)) = &traced {
            work.add(job_work);
        }
        let same = match (&plain, &traced) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        };
        if !same {
            tally.errors.push(format!(
                "{}: traced run differs: {:?} vs {:?}",
                label(job, inst),
                plain.as_ref().map(|r| r.1),
                traced.as_ref().map(|r| r.1)
            ));
        }
    }
    let wait_s = measure::runqueue_wait_s() - wait_before;
    drop(tracer);
    if let Err(e) = SpanForest::from_events(&buffer.events()).and_then(|forest| {
        forest
            .warnings
            .is_empty()
            .then_some(())
            .ok_or(forest.warnings.join("; "))
    }) {
        tally.errors.push(format!("trace is malformed: {e}"));
    }
    if let Some(writer) = writer {
        writer.finish()?;
    }

    let s = Duration::as_secs_f64;
    let n = jobs.len();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let cnt = |name, v: u64| metric(name, v as f64, "count", n);
    Ok(RunReport {
        metrics: vec![
            metric(
                "fpga.netlist_s",
                s(&setup_times.netlist),
                "s",
                instances.len(),
            ),
            metric(
                "fpga.global_route_s",
                s(&setup_times.global_route),
                "s",
                instances.len(),
            ),
            cnt("fpga.wirelength", setup_times.wirelength),
            metric(
                "coloring.bounds_s",
                s(&(setup_times.bounds + layers.bounds)),
                "s",
                n,
            ),
            metric("fpga.conflict_graph_s", s(&layers.conflict_graph), "s", n),
            cnt("fpga.conflict_edges", layers.conflict_edges),
            metric("core.encode_s", s(&layers.encode), "s", n),
            cnt("cnf.vars", work.vars),
            cnt("cnf.clauses", work.clauses),
            cnt("cnf.literals", work.literals),
            metric("solver.load_s", s(&layers.load), "s", n),
            metric(
                "mem.rss_after_load_mib",
                layers.rss_after_load as f64 / 1048576.0,
                "MiB",
                n,
            ),
            metric("solver.solve_s", s(&layers.solve), "s", n),
            metric(
                "solver.props_per_s",
                work.propagations as f64 / s(&layers.solve),
                "1/s",
                n,
            ),
            cnt("solver.conflicts", work.conflicts),
            cnt("solver.decisions", work.decisions),
            cnt("solver.propagations", work.propagations),
            cnt("solver.restarts", work.restarts),
            cnt("solver.learnt_clauses", work.learnt_clauses),
            cnt("solver.deleted_clauses", work.deleted_clauses),
            metric(
                "solver.deleted_frac",
                ratio(work.deleted_clauses, work.learnt_clauses),
                "ratio",
                n,
            ),
            cnt("solver.gc_runs", work.gc_runs),
            metric("core.decode_s", s(&layers.decode), "s", n),
            cnt("ladder.probes", tally.probes),
            metric(
                "ladder.useful_probe_frac",
                ratio(tally.needed_probes, tally.probes),
                "ratio",
                n,
            ),
            metric("trace.overhead_frac", traced_s / plain_s - 1.0, "ratio", n),
            metric("host.runqueue_wait_s", wait_s, "s", 1),
        ],
        notes: vec![
            metric("fpga.verify_s", s(&layers.verify), "s", n),
            metric("setup.traced_s", setup_s, "s", 1),
            metric(
                "setup.global_route_frac",
                s(&setup_times.global_route) / setup_s,
                "ratio",
                1,
            ),
            metric("job.traced_s", traced_s, "s", n),
            metric("job.solve_frac", s(&layers.solve) / traced_s, "ratio", n),
            metric(
                "job.graph_encode_load_frac",
                s(&(layers.conflict_graph + layers.encode + layers.load)) / traced_s,
                "ratio",
                n,
            ),
            metric(
                "job.encode_load_frac",
                s(&(layers.encode + layers.load)) / traced_s,
                "ratio",
                n,
            ),
        ],
        attempted: tally.attempted,
        failed: tally.failed(),
        errors: tally.errors,
    })
}
