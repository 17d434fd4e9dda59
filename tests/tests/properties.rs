//! Property-based tests (proptest) over arbitrary graphs.

use proptest::prelude::*;
use tps_core::balance::PartitionLoads;
use tps_core::partitioner::{PartitionParams, Partitioner};
use tps_core::sink::VecSink;
use tps_core::two_phase::{TwoPhaseConfig, TwoPhasePartitioner};
use tps_graph::degree::DegreeTable;
use tps_graph::stream::InMemoryGraph;
use tps_graph::types::Edge;

/// Arbitrary small graphs: up to 200 edges over up to 64 vertices, with
/// duplicates and self-loops allowed (the algorithms must tolerate both).
fn arb_graph() -> impl Strategy<Value = InMemoryGraph> {
    proptest::collection::vec((0u32..64, 0u32..64), 1..200)
        .prop_map(|pairs| InMemoryGraph::from_edges(pairs.into_iter().map(Edge::from).collect()))
}

fn assert_complete(
    name: &str,
    graph: &InMemoryGraph,
    assignments: &[(Edge, u32)],
    k: u32,
) -> Result<(), TestCaseError> {
    prop_assert!(
        assignments.iter().all(|&(_, p)| p < k),
        "{name}: bad partition id"
    );
    let mut got: Vec<Edge> = assignments.iter().map(|(e, _)| *e).collect();
    let mut want: Vec<Edge> = graph.edges().to_vec();
    got.sort();
    want.sort();
    prop_assert_eq!(got, want, "{}: incomplete assignment", name);
    Ok(())
}

// A wrapper so `assert_complete` can use prop_assert inside a helper.
fn check_partitioner(
    p: &mut dyn Partitioner,
    graph: &InMemoryGraph,
    k: u32,
) -> Result<Vec<(Edge, u32)>, TestCaseError> {
    let mut sink = VecSink::new();
    let mut stream = graph.stream();
    p.partition(&mut stream, &PartitionParams::new(k), &mut sink)
        .map_err(|e| TestCaseError::fail(format!("{}: {e}", p.name())))?;
    assert_complete(&p.name(), graph, sink.assignments(), k)?;
    Ok(sink.into_assignments())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn two_phase_invariants(graph in arb_graph(), k in 1u32..9) {
        let assignments = check_partitioner(
            &mut TwoPhasePartitioner::new(TwoPhaseConfig::default()),
            &graph,
            k,
        )?;
        // Hard cap holds on every generated graph.
        let cap = PartitionLoads::new(k, graph.num_edges(), 1.05).cap();
        let mut loads = vec![0u64; k as usize];
        for &(_, p) in &assignments {
            loads[p as usize] += 1;
        }
        prop_assert!(loads.iter().all(|&l| l <= cap), "cap {cap} violated: {loads:?}");
    }

    #[test]
    fn streaming_baselines_invariants(graph in arb_graph(), k in 1u32..9) {
        check_partitioner(&mut tps_baselines::HdrfPartitioner::default(), &graph, k)?;
        check_partitioner(&mut tps_baselines::DbhPartitioner::default(), &graph, k)?;
        check_partitioner(&mut tps_baselines::GreedyPartitioner, &graph, k)?;
    }

    #[test]
    fn in_memory_baselines_invariants(graph in arb_graph(), k in 1u32..9) {
        check_partitioner(&mut tps_baselines::NePartitioner, &graph, k)?;
        check_partitioner(&mut tps_baselines::MultilevelPartitioner::default(), &graph, k)?;
    }

    #[test]
    fn clustering_volume_invariant(graph in arb_graph(), passes in 1u32..4) {
        let mut stream = graph.stream();
        let degrees = DegreeTable::compute(&mut stream, graph.num_vertices()).unwrap();
        let cfg = tps_clustering::streaming::ClusteringConfig::for_partitions(4, 1.0, passes);
        let clustering =
            tps_clustering::streaming::cluster_stream(&mut stream, &degrees, &cfg).unwrap();
        prop_assert!(clustering.check_volume_invariant(&degrees).is_ok());
        // Every stream vertex (degree > 0) is clustered.
        for v in 0..graph.num_vertices() as u32 {
            if degrees.degree(v) > 0 {
                prop_assert!(clustering.cluster_of(v).is_some(), "vertex {v} unclustered");
            }
        }
    }

    #[test]
    fn binary_format_roundtrip(pairs in proptest::collection::vec((0u32..1000, 0u32..1000), 0..100)) {
        let edges: Vec<Edge> = pairs.into_iter().map(Edge::from).collect();
        let path = std::env::temp_dir().join(format!(
            "tps-prop-{}-{}.bel",
            std::process::id(),
            edges.len()
        ));
        tps_graph::formats::binary::write_binary_edge_list(&path, 1000, edges.iter().copied())
            .unwrap();
        let mut f = tps_io::open_edge_stream(&path, tps_io::ReaderBackend::Buffered).unwrap();
        let mut back = Vec::new();
        tps_graph::stream::for_each_edge(&mut f, |e| back.push(e)).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back, edges);
    }

    #[test]
    fn replication_factor_bounds(graph in arb_graph(), k in 1u32..9) {
        // RF of any complete assignment lies in [1, min(k, max_degree)].
        let assignments = check_partitioner(
            &mut tps_baselines::RandomPartitioner::default(),
            &graph,
            k,
        )?;
        let mut tracker =
            tps_metrics::quality::QualityTracker::new(graph.num_vertices(), k);
        for &(e, p) in &assignments {
            tracker.record(e, p);
        }
        let m = tracker.finish();
        let mut stream = graph.stream();
        let degrees = DegreeTable::compute(&mut stream, graph.num_vertices()).unwrap();
        prop_assert!(m.replication_factor >= 1.0 - 1e-12);
        let bound = (k as f64).min(degrees.max_degree() as f64);
        prop_assert!(
            m.replication_factor <= bound + 1e-12,
            "rf {} > bound {bound}",
            m.replication_factor
        );
    }

    #[test]
    fn graham_mapping_is_balanced(volumes in proptest::collection::vec(1u64..100, 1..64), k in 1u32..9) {
        let v2c: Vec<u32> = (0..volumes.len() as u32).collect();
        let clustering = tps_clustering::model::Clustering::from_parts(v2c, volumes.clone());
        let placement =
            tps_core::two_phase::mapping::ClusterPlacement::sorted_list_schedule(&clustering, k);
        let total: u64 = volumes.iter().sum();
        let max_job = *volumes.iter().max().unwrap();
        let lower = (total as f64 / k as f64).max(max_job as f64);
        // Graham's LPT guarantee: makespan ≤ 4/3 · OPT ≤ 4/3 · max(avg, max).
        // (OPT itself is ≥ both terms.)
        prop_assert!(
            placement.makespan() as f64 <= lower * (4.0 / 3.0) + 1.0,
            "makespan {} vs LPT bound {}",
            placement.makespan(),
            lower * 4.0 / 3.0
        );
    }
}
