//! End-to-end observability contracts (`tps-obs`):
//!
//! * tracing is **output-neutral** — a traced run's assignments are
//!   bit-identical to an untraced run's, serial, parallel and distributed;
//! * a traced run's events reconstruct a well-formed span forest whose
//!   root spans are exactly the `PhaseTimer` phases;
//! * a traced distributed run ships each worker's shard-phase spans to the
//!   coordinator in the `ShardDone` frame, tagged `worker = shard + 1`,
//!   and the whole cluster renders from one trace.
//!
//! The recorder is process-global state, so everything lives in one `#[test]`
//! (the default test harness runs sibling tests concurrently).

use std::collections::BTreeSet;

use tps_core::job::{JobSpec, ThreadMode};
use tps_core::partitioner::PartitionParams;
use tps_core::sink::VecSink;
use tps_core::two_phase::TwoPhaseConfig;
use tps_dist::{
    loopback_pair, run_coordinator, run_worker, AttachedResolver, FaultPolicy, InputDescriptor,
    NoReplacements, Transport,
};
use tps_graph::stream::InMemoryGraph;
use tps_graph::types::Edge;

const K: u32 = 5;

fn test_graph() -> InMemoryGraph {
    // Deterministic skewed edge list: enough vertices for prepartitioning
    // chunks, duplicates and self-loops included.
    let edges: Vec<Edge> = (0u32..4000)
        .map(|i| Edge::from(((i * 7) % 97, (i * i + 3) % 211)))
        .collect();
    InMemoryGraph::from_edges(edges)
}

fn serial_run(g: &InMemoryGraph) -> Vec<(Edge, u32)> {
    let mut sink = VecSink::new();
    let mut stream = g.stream();
    JobSpec::stream(&mut stream)
        .two_phase(TwoPhaseConfig::default())
        .params(&PartitionParams::new(K))
        .num_vertices(g.num_vertices())
        .extra_sink(&mut sink)
        .run()
        .unwrap();
    sink.into_assignments()
}

fn parallel_run(g: &InMemoryGraph, threads: usize) -> Vec<(Edge, u32)> {
    let mut sink = VecSink::new();
    JobSpec::ranged(g)
        .two_phase(TwoPhaseConfig::default())
        .params(&PartitionParams::new(K))
        .threads(ThreadMode::Count(threads))
        .extra_sink(&mut sink)
        .run()
        .unwrap();
    sink.into_assignments()
}

fn dist_run(g: &InMemoryGraph, workers: usize) -> Vec<(Edge, u32)> {
    let mut coordinator_sides: Vec<Box<dyn Transport>> = Vec::with_capacity(workers);
    let mut worker_sides: Vec<Box<dyn Transport>> = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (c, w) = loopback_pair();
        coordinator_sides.push(Box::new(c));
        worker_sides.push(Box::new(w));
    }
    let mut sink = VecSink::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = worker_sides
            .into_iter()
            .map(|mut t| scope.spawn(move || run_worker(&mut *t, &AttachedResolver(g))))
            .collect();
        run_coordinator(
            &TwoPhaseConfig::default(),
            &PartitionParams::new(K),
            g.info(),
            &InputDescriptor::Attached,
            workers,
            coordinator_sides,
            &mut NoReplacements,
            &FaultPolicy::default(),
            0,
            &mut sink,
        )
        .unwrap();
        for h in handles {
            h.join().unwrap().unwrap();
        }
    });
    sink.into_assignments()
}

#[test]
fn tracing_is_output_neutral_and_ships_worker_spans() {
    let g = test_graph();

    // Untraced references first.
    tps_obs::set_enabled(false);
    tps_obs::reset_events();
    let serial_want = serial_run(&g);
    let parallel_want = parallel_run(&g, 4);
    let dist_want = dist_run(&g, 2);

    // Serial, traced: identical output, root spans = PhaseTimer phases.
    tps_obs::reset_events();
    tps_obs::set_enabled(true);
    let serial_traced = serial_run(&g);
    tps_obs::set_enabled(false);
    assert_eq!(serial_traced, serial_want, "tracing changed serial output");
    let events = tps_obs::take_events();
    let forest = tps_obs::build_span_forest(&events).expect("well-formed serial span tree");
    let roots: Vec<&str> = forest
        .iter()
        .flat_map(|t| t.roots.iter().map(|r| r.name.as_str()))
        .collect();
    assert_eq!(
        roots,
        [
            "degree",
            "clustering",
            "mapping",
            "prepartition",
            "partition"
        ],
        "serial root spans are the paper's phases"
    );

    // Parallel, traced: identical output, same phase roots plus emit.
    tps_obs::reset_events();
    tps_obs::set_enabled(true);
    let parallel_traced = parallel_run(&g, 4);
    tps_obs::set_enabled(false);
    assert_eq!(
        parallel_traced, parallel_want,
        "tracing changed parallel output"
    );
    assert!(!tps_obs::take_events().is_empty());

    // Distributed (loopback), traced: identical output, and every worker's
    // shard spans arrive tagged worker = shard + 1.
    tps_obs::reset_events();
    tps_obs::set_enabled(true);
    let dist_traced = dist_run(&g, 2);
    tps_obs::set_enabled(false);
    assert_eq!(dist_traced, dist_want, "tracing changed dist output");
    let events = tps_obs::take_events();
    let workers: BTreeSet<u32> = events.iter().map(|e| e.worker).collect();
    assert_eq!(
        workers.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2],
        "coordinator plus both shard workers appear in one trace"
    );
    for w in [1u32, 2] {
        let names: BTreeSet<&str> = events
            .iter()
            .filter(|e| e.worker == w)
            .map(|e| e.name.as_str())
            .collect();
        for phase in ["degree", "clustering", "prepartition", "partition"] {
            assert!(names.contains(phase), "worker {w} missing {phase:?} span");
        }
    }
    let forest = tps_obs::build_span_forest(&events).expect("well-formed dist span forest");
    assert!(
        forest.len() >= 3,
        "one timeline per worker, got {}",
        forest.len()
    );

    // The whole cluster renders from the one trace.
    let text = tps_obs::render_trace(
        &tps_obs::TraceMeta {
            cmd: "test".into(),
            algo: "2PS-L×2w".into(),
            k: K,
            alpha: 1.05,
            vertices: g.num_vertices(),
            edges: g.num_edges(),
        },
        &events,
        &[],
    );
    let trace = tps_obs::Trace::parse(&text).expect("trace roundtrips");
    let report = tps_obs::render_report(&trace).expect("report renders");
    assert!(report.contains("worker w1"), "report shows shard workers");
    assert!(
        report.contains("critical path"),
        "report shows critical path"
    );

    // Every mode feeds the same trace counters: a traced `--threads 2`
    // run's assignment and cluster counters are its report's.
    let path = std::env::temp_dir().join(format!("tps-obs-counters-{}.jsonl", std::process::id()));
    let outcome = JobSpec::ranged(&g)
        .two_phase(TwoPhaseConfig::default())
        .params(&PartitionParams::new(K))
        .threads(ThreadMode::Count(2))
        .trace(&path)
        .run()
        .unwrap();
    let trace = tps_obs::Trace::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let traced = |name: &str| -> u64 {
        trace
            .counters
            .iter()
            .filter(|(_, n, _)| n == name)
            .map(|(_, _, v)| v)
            .sum()
    };
    assert!(outcome.report.counter("prepartitioned") > 0);
    for (counter, key) in [
        ("core.assign.prepartitioned", "prepartitioned"),
        ("core.assign.remaining", "remaining"),
        ("clustering.clusters", "clusters"),
    ] {
        assert_eq!(traced(counter), outcome.report.counter(key), "{counter}");
    }
}
