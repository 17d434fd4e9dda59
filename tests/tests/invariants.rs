//! The contract every partitioner must honour, checked across the whole
//! roster: completeness (every edge assigned exactly once), valid partition
//! ids, and — for cap-enforcing algorithms — the hard `α·|E|/k` balance cap.
//! And the contract of the 2PS-L engines in particular: the quality they
//! report from their own end state is the quality of what they emitted.

use std::io;
use std::sync::Arc;

use integration_tests::{full_roster, threads_job};
use proptest::prelude::*;
use tps_clustering::paged::MemPageStoreProvider;
use tps_core::balance::PartitionLoads;
use tps_core::job::{JobSpec, ThreadMode};
use tps_core::partitioner::{PartitionParams, Partitioner, RunReport};
use tps_core::sink::{AssignmentSink, QualitySink, TeeSink, VecSink};
use tps_core::two_phase::{ClusterPaging, TwoPhaseConfig, TwoPhasePartitioner};
use tps_graph::datasets::Dataset;
use tps_graph::stream::InMemoryGraph;
use tps_graph::types::Edge;

fn check_graph(graph: &InMemoryGraph, k: u32) {
    let mut want: Vec<Edge> = graph.edges().to_vec();
    want.sort();
    for mut p in full_roster(true) {
        let name = p.name();
        let mut sink = VecSink::new();
        let mut stream = graph.stream();
        let result = p.partition(&mut stream, &PartitionParams::new(k), &mut sink);
        // SNE legitimately refuses k beyond its chunk capacity.
        if name == "SNE" && result.is_err() {
            continue;
        }
        result.unwrap_or_else(|e| panic!("{name} failed: {e}"));
        let assignments = sink.assignments();
        assert!(
            assignments.iter().all(|&(_, p)| p < k),
            "{name}: partition id out of range"
        );
        let mut got: Vec<Edge> = assignments.iter().map(|(e, _)| *e).collect();
        got.sort();
        assert_eq!(
            got, want,
            "{name}: assignment is not a permutation of the edge set"
        );
    }
}

#[test]
fn roster_on_web_graph() {
    let graph = Dataset::It.generate_scaled(0.01);
    for k in [2u32, 8, 17] {
        check_graph(&graph, k);
    }
}

#[test]
fn roster_on_social_graph() {
    let graph = Dataset::Ok.generate_scaled(0.01);
    check_graph(&graph, 8);
}

#[test]
fn roster_on_degenerate_graphs() {
    // Star (extreme skew), path (no structure to exploit), parallel edges +
    // self-loops.
    let star = InMemoryGraph::from_edges((1..60).map(|i| Edge::new(0, i)).collect());
    check_graph(&star, 4);
    let path = InMemoryGraph::from_edges((0..60).map(|i| Edge::new(i, i + 1)).collect());
    check_graph(&path, 4);
    let messy = InMemoryGraph::from_edges(vec![
        Edge::new(0, 0),
        Edge::new(0, 1),
        Edge::new(0, 1),
        Edge::new(1, 2),
        Edge::new(2, 2),
        Edge::new(3, 4),
    ]);
    check_graph(&messy, 3);
}

#[test]
fn two_phase_cap_is_hard_across_ks() {
    let graph = Dataset::Uk.generate_scaled(0.01);
    for k in [2u32, 5, 32, 101] {
        for cfg in [
            tps_core::two_phase::TwoPhaseConfig::default(),
            tps_core::two_phase::TwoPhaseConfig::hdrf_variant(),
        ] {
            let mut p = tps_core::two_phase::TwoPhasePartitioner::new(cfg);
            let mut sink = tps_core::sink::CountingSink::new(k);
            let mut stream = graph.stream();
            tps_core::partitioner::Partitioner::partition(
                &mut p,
                &mut stream,
                &PartitionParams::new(k),
                &mut sink,
            )
            .unwrap();
            let cap = PartitionLoads::new(k, graph.num_edges(), 1.05).cap();
            let max = sink.counts().iter().copied().max().unwrap();
            assert!(max <= cap, "{}: k={k} max load {max} > cap {cap}", p.name());
            assert_eq!(sink.total(), graph.num_edges());
        }
    }
}

#[test]
fn deterministic_roster_reproduces_exactly() {
    let graph = Dataset::Gsh.generate_scaled(0.005);
    for mut p in full_roster(false) {
        let name = p.name();
        let params = PartitionParams::new(6);
        let mut a = VecSink::new();
        let mut b = VecSink::new();
        p.partition(&mut graph.stream(), &params, &mut a).unwrap();
        p.partition(&mut graph.stream(), &params, &mut b).unwrap();
        assert_eq!(
            a.assignments(),
            b.assignments(),
            "{name} is not deterministic"
        );
    }
}

#[test]
fn quality_ordering_on_clustered_graph() {
    // Statistical expectation on a strongly clustered graph: in-memory NE
    // beats 2PS-L, which beats stateless hashing (paper Fig. 4 ordering).
    let graph = Dataset::Gsh.generate_scaled(0.02);
    let k = 16u32;
    let rf = |p: &mut dyn tps_core::partitioner::Partitioner| {
        let mut sink = tps_core::sink::QualitySink::new(graph.num_vertices(), k);
        p.partition(&mut graph.stream(), &PartitionParams::new(k), &mut sink)
            .unwrap();
        sink.finish().replication_factor
    };
    let ne = rf(&mut tps_baselines::NePartitioner);
    let tps = rf(&mut tps_core::two_phase::TwoPhasePartitioner::new(
        Default::default(),
    ));
    let random = rf(&mut tps_baselines::RandomPartitioner::default());
    assert!(ne < tps, "NE {ne} should beat 2PS-L {tps}");
    assert!(tps < random, "2PS-L {tps} should beat random {random}");
}

/// Partition counts around the one-word replica-row boundary (dense private
/// rows at k ≤ 64, sparse overlay above) and up to the ledger's k = 256.
const QUALITY_KS: [u32; 7] = [1, 8, 63, 64, 65, 130, 256];

/// Run every in-process way of executing 2PS-L on `g` — serial, paged at a
/// fully external / five-page / 1 MiB / never-evicting budget,
/// chunk-parallel on 1, 2, 3 and 8 workers — into a [`QualitySink`], and
/// require the metrics the engine reports from its replication matrix and
/// loads to equal the sink's, field for field. The one-shard runs (serial,
/// paged, one worker) are one run: every counter the serial report carries,
/// and every assignment, must be the same in each, with no cap overshoot.
/// Returns the largest `cap_overshoot` seen.
fn assert_engines_report_emitted_quality(g: &InMemoryGraph, k: u32, config: TwoPhaseConfig) -> u64 {
    const PAGE: usize = 1024;
    let params = PartitionParams::new(k);
    let mut overshoot = 0;
    let mut check =
        |mode: &str, run: &mut dyn FnMut(&mut dyn AssignmentSink) -> io::Result<RunReport>| {
            let mut sink = QualitySink::new(g.num_vertices(), k);
            let mut emitted = VecSink::new();
            let report = run(&mut TeeSink::new(&mut sink, &mut emitted))
                .unwrap_or_else(|e| panic!("{mode}, k={k}: {e}"));
            assert_eq!(report.quality, Some(sink.finish()), "{mode}, k={k}");
            overshoot = overshoot.max(report.counter("cap_overshoot"));
            (report, emitted.into_assignments())
        };
    let (serial, serial_assignments) = check("serial", &mut |sink| {
        TwoPhasePartitioner::new(config).partition(&mut g.stream(), &params, sink)
    });
    let mut one_shard = Vec::new();
    for budget_bytes in [0, 5 * PAGE as u64, 1 << 20, 1 << 30] {
        let mode = format!("paged at {budget_bytes} B");
        let run = check(&mode, &mut |sink| {
            let paging = ClusterPaging {
                budget_bytes,
                page_size: PAGE,
                provider: Arc::new(MemPageStoreProvider),
            };
            TwoPhasePartitioner::new(config)
                .with_cluster_paging(paging)
                .partition(&mut g.stream(), &params, sink)
        });
        one_shard.push((mode, run));
    }
    for threads in [1usize, 2, 3, 8] {
        let mode = format!("--threads {threads}");
        let run = check(&mode, &mut |sink| {
            threads_job(g, config, &params, threads, sink)
        });
        if threads == 1 {
            one_shard.push((mode, run));
        }
    }
    for (mode, (report, assignments)) in one_shard {
        for (key, value) in &serial.counters {
            assert_eq!(report.counter(key), *value, "{mode}, k={k}: {key}");
        }
        assert_eq!(report.counter("cap_overshoot"), 0, "{mode}, k={k}");
        assert!(
            assignments == serial_assignments,
            "{mode}, k={k}: assignments"
        );
    }
    overshoot
}

fn quality_configs() -> [TwoPhaseConfig; 3] {
    [
        TwoPhaseConfig::default(),
        TwoPhaseConfig::hdrf_variant(),
        TwoPhaseConfig {
            prepartitioning: false,
            ..Default::default()
        },
    ]
}

#[test]
fn engine_reported_quality_on_awkward_graphs() {
    // Self-loops, parallel edges, and vertex ids 5..9 and 11..39 that no
    // edge touches (isolated: they must stay out of RF's denominator).
    let messy = InMemoryGraph::from_edges(vec![
        Edge::new(0, 0),
        Edge::new(0, 1),
        Edge::new(0, 1),
        Edge::new(1, 2),
        Edge::new(2, 2),
        Edge::new(3, 4),
        Edge::new(10, 40),
        Edge::new(40, 40),
    ]);
    // |E| = 40 at k = 16: quota slices round to zero and workers overshoot.
    let tiny = InMemoryGraph::from_edges(
        (0..40u32)
            .map(|i| Edge::new(i % 13, (i * 7 + 1) % 13))
            .collect(),
    );
    let social = Dataset::Ok.generate_scaled(0.01);
    let empty = InMemoryGraph::from_edges(vec![]);
    for config in quality_configs() {
        for k in QUALITY_KS {
            for g in [&messy, &tiny, &social, &empty] {
                assert_engines_report_emitted_quality(g, k, config);
            }
        }
        let overshoot = assert_engines_report_emitted_quality(&tiny, 16, config);
        assert!(overshoot > 0, "the cap_overshoot regime never overshot");
    }
}

#[test]
fn job_metrics_are_the_engines_with_a_vertex_count_above_the_covered_one() {
    // `--num-vertices`-style overrides size the caller's sinks, not the
    // metrics: vertices no edge covers are in neither count.
    let g = Dataset::It.generate_scaled(0.01);
    let nv = g.num_vertices() + 1000;
    for k in [8u32, 130] {
        for threads in [
            ThreadMode::Serial,
            ThreadMode::Count(1),
            ThreadMode::Count(3),
        ] {
            let mut shadow = QualitySink::new(nv, k);
            let outcome = JobSpec::ranged(&g)
                .k(k)
                .num_vertices(nv)
                .threads(threads)
                .extra_sink(&mut shadow)
                .run()
                .unwrap();
            assert_eq!(outcome.metrics, shadow.finish(), "k={k} {threads:?}");
            assert_eq!(outcome.report.quality.as_ref(), Some(&outcome.metrics));
            assert!(outcome.metrics.covered_vertices <= g.num_vertices());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same equivalence over arbitrary small multigraphs (duplicates and
    /// self-loops allowed) at every row width.
    #[test]
    fn engine_reported_quality_equals_quality_sink_on_arbitrary_graphs(
        pairs in proptest::collection::vec((0u32..96, 0u32..96), 1..160),
        k in (0..QUALITY_KS.len()).prop_map(|i| QUALITY_KS[i]),
        config in 0usize..3,
    ) {
        let g = InMemoryGraph::from_edges(pairs.into_iter().map(Edge::from).collect());
        assert_engines_report_emitted_quality(&g, k, quality_configs()[config]);
    }
}
