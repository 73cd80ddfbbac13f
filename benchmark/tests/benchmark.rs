//! The benchmark's inputs and its traced composition, checked on small
//! instances so the suite stays fast in debug builds.

use std::collections::BTreeMap;

use satroute_benchmark::jobs::{self, Job, JobKind, LayerTimes};
use satroute_benchmark::setup::{self, Instance, PassInputs, SetupTimes};
use satroute_benchmark::{check, Workload};
use satroute_core::Strategy;
use satroute_fpga::benchmarks;
use satroute_obs::{chrome_trace, parse_jsonl, SpanForest, TraceReport, TraceWriter, Tracer};

fn first_pass(workload: Workload, seed: u64) -> Vec<Instance> {
    let canonical = setup::build(workload, &Tracer::disabled(), &mut SetupTimes::default());
    PassInputs::new(seed).next_pass(&canonical)
}

/// Index of every subnet of `b` in `a`, when `b` reorders `a`'s subnets.
fn subnet_map(a: &Instance, b: &Instance) -> Vec<usize> {
    let key = |s: satroute_fpga::Subnet| (s.net, s.from, s.to);
    let index: BTreeMap<_, usize> = a
        .problem
        .subnets()
        .enumerate()
        .map(|(i, s)| (key(s), i))
        .collect();
    b.problem.subnets().map(|s| index[&key(s)]).collect()
}

#[test]
fn seed_zero_reproduces_the_paper_suite() {
    let ours = first_pass(Workload::Table2Unsat, 0);
    let paper = benchmarks::suite_paper();
    assert_eq!(ours.len(), paper.len());
    for (inst, reference) in ours.iter().zip(&paper) {
        assert_eq!(inst.name, reference.name);
        assert!(
            inst.problem.conflict_graph() == reference.conflict_graph,
            "{}",
            inst.name
        );
        assert_eq!(inst.dsatur_width, reference.routable_width, "{}", inst.name);
        assert_eq!(
            inst.omega() - 1,
            reference.unroutable_width,
            "{}",
            inst.name
        );
        inst.check_clique().unwrap();
    }
}

#[test]
fn other_seeds_permute_into_isomorphic_instances() {
    let canonical = first_pass(Workload::Table2Unsat, 0);
    let mut inputs = PassInputs::new(1);
    let (first, second) = (inputs.next_pass(&canonical), inputs.next_pass(&canonical));
    for permuted in [&first, &second] {
        for (a, b) in canonical.iter().zip(permuted) {
            let map = subnet_map(a, b);
            let (ga, gb) = (a.problem.conflict_graph(), b.problem.conflict_graph());
            assert_eq!(ga.num_edges(), gb.num_edges(), "{}", a.name);
            for (u, v) in gb.edges() {
                assert!(
                    ga.has_edge(map[u as usize] as u32, map[v as usize] as u32),
                    "{}",
                    a.name
                );
            }
            assert_eq!((a.dsatur_width, a.omega()), (b.dsatur_width, b.omega()));
            b.check_clique().unwrap();
        }
    }
    assert!(
        first
            .iter()
            .zip(&second)
            .any(|(a, b)| a.problem != b.problem),
        "each pass draws a fresh order"
    );

    // The answers do not depend on the order: the same checks pass and the
    // ladders find the same minimum.
    let small = |insts: &[Instance]| insts[0].clone();
    let (a, b) = (small(&canonical), small(&first));
    for kind in [JobKind::Prove, JobKind::Route, JobKind::WarmLadder] {
        let job = Job {
            instance: 0,
            strategy: Strategy::paper_best(),
            kind,
        };
        let (answer_a, _) = jobs::run(&job, &a).unwrap();
        let (answer_b, _) = jobs::run(&job, &b).unwrap();
        check(&job, &a, &answer_a).unwrap();
        check(&job, &b, &answer_b).unwrap();
        if let (jobs::Answer::MinWidth { min: x, .. }, jobs::Answer::MinWidth { min: y, .. }) =
            (&answer_a, &answer_b)
        {
            assert_eq!(x, y);
        }
    }
}

/// One job of every kind, on the two smallest paper instances.
fn reduced_jobs() -> Vec<Job> {
    let baseline = Strategy::paper_baseline();
    let best = Strategy::paper_best();
    [
        (0, baseline, JobKind::Prove),
        (1, best, JobKind::Prove),
        (0, baseline, JobKind::Route),
        (1, best, JobKind::Route),
        (0, best, JobKind::ColdLadder),
        (1, best, JobKind::WarmLadder),
    ]
    .map(|(instance, strategy, kind)| Job {
        instance,
        strategy,
        kind,
    })
    .to_vec()
}

#[test]
fn traced_jobs_reproduce_the_untraced_counters() {
    let instances = first_pass(Workload::Table2Unsat, 3);
    let tracer = Tracer::to_sink(satroute_obs::BufferSink::new());
    let mut layers = LayerTimes::default();
    for job in reduced_jobs() {
        let inst = &instances[job.instance];
        let plain = jobs::run(&job, inst).unwrap();
        let traced = jobs::run_traced(&job, inst, &tracer, &mut layers).unwrap();
        assert_eq!(
            plain, traced,
            "{}/{}/{:?}",
            inst.name, job.strategy, job.kind
        );
        check(&job, inst, &traced.0).unwrap();
        assert!(traced.1.solves >= 1 && traced.1.clauses > 0);
    }
    assert!(layers.encode > layers.decode && !layers.solve.is_zero());
}

#[test]
fn trace_file_is_a_valid_obs_trace() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("benchmark-trace.jsonl");
    let writer = TraceWriter::to_path(&path).unwrap();
    let tracer = Tracer::to_sink(writer.clone());
    let setup_span = tracer.span("setup");
    let canonical = setup::build(Workload::MinWidth, &tracer, &mut SetupTimes::default());
    drop(setup_span);
    let instances = PassInputs::new(0).next_pass(&canonical);
    let mut layers = LayerTimes::default();
    let jobs = reduced_jobs();
    for job in &jobs {
        jobs::run_traced(job, &instances[job.instance], &tracer, &mut layers).unwrap();
    }
    drop(tracer);
    writer.finish().unwrap();

    let events = parse_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let forest = SpanForest::from_events(&events).unwrap();
    assert!(forest.warnings.is_empty(), "{:?}", forest.warnings);
    let job_spans = forest.spans_named("job");
    assert_eq!(job_spans.len(), jobs.len());
    let layers = [
        "conflict_graph",
        "bounds",
        "encode",
        "load",
        "solve",
        "decode",
        "verify",
        "incremental_build",
        "probe",
    ];
    for span in &job_spans {
        assert!(span.parent.is_none());
        assert!(!span.children.is_empty());
        for child in &span.children {
            let child = forest.node(*child).unwrap();
            assert!(layers.contains(&child.name.as_str()), "{}", child.name);
            assert!(child.children.is_empty(), "layer spans are leaves");
        }
    }
    // Every span is a job, the set-up root, or a direct child of one.
    for span in forest.spans() {
        match span.parent {
            None => assert!(span.name == "job" || span.name == "setup", "{}", span.name),
            Some(p) => assert!(forest.node(p).unwrap().parent.is_none()),
        }
    }
    // The repository's trace tools read it as is.
    assert!(!TraceReport::from_forest(&forest)
        .render_text(&forest)
        .is_empty());
    chrome_trace(&events).unwrap();
}
