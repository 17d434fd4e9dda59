//! Full-pipeline integration: generate → write to disk → stream from disk →
//! partition → distributed PageRank, validated end to end.

use tps_core::partitioner::{PartitionParams, Partitioner};
use tps_core::sink::VecSink;
use tps_core::two_phase::{TwoPhaseConfig, TwoPhasePartitioner};
use tps_graph::datasets::Dataset;
use tps_graph::formats::binary::write_binary_edge_list;
use tps_io::{open_edge_stream, ReaderBackend};
use tps_procsim::cost::simulate_pagerank;
use tps_procsim::{reference_pagerank, ClusterCostModel, DistributedGraph, PageRankConfig};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tps-pipeline-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn file_stream_partitioning_matches_in_memory() {
    let graph = Dataset::It.generate_scaled(0.01);
    let dir = tmpdir("filestream");
    let path = dir.join("it.bel");
    write_binary_edge_list(&path, graph.num_vertices(), graph.edges().iter().copied()).unwrap();

    let params = PartitionParams::new(8);
    let mut mem_sink = VecSink::new();
    TwoPhasePartitioner::new(TwoPhaseConfig::default())
        .partition(&mut graph.stream(), &params, &mut mem_sink)
        .unwrap();

    let mut file_stream = open_edge_stream(&path, ReaderBackend::Buffered).unwrap();
    let mut file_sink = VecSink::new();
    TwoPhasePartitioner::new(TwoPhaseConfig::default())
        .partition(&mut file_stream, &params, &mut file_sink)
        .unwrap();

    // The algorithm is deterministic in the stream order, and the file holds
    // the same order — identical decisions, edge for edge.
    assert_eq!(mem_sink.assignments(), file_sink.assignments());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pagerank_correct_across_partitioners() {
    let graph = Dataset::Wi.generate_scaled(0.01);
    let k = 8u32;
    let pr = PageRankConfig {
        iterations: 15,
        ..Default::default()
    };
    let reference = reference_pagerank(graph.edges(), graph.num_vertices(), &pr);

    let mut partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(TwoPhasePartitioner::new(TwoPhaseConfig::default())),
        Box::new(tps_baselines::DbhPartitioner::default()),
        Box::new(tps_baselines::NePartitioner),
    ];
    for p in partitioners.iter_mut() {
        let mut sink = VecSink::new();
        p.partition(&mut graph.stream(), &PartitionParams::new(k), &mut sink)
            .unwrap();
        let layout =
            DistributedGraph::from_assignments(sink.assignments(), graph.num_vertices(), k);
        let result = tps_procsim::pagerank::run_distributed(&layout, &pr);
        for (v, (got, want)) in result.ranks.iter().zip(&reference).enumerate() {
            let scale = want.abs().max(1.0);
            assert!(
                (got - want).abs() / scale < 1e-9,
                "{}: rank of vertex {v} diverged: {got} vs {want}",
                p.name()
            );
        }
    }
}

#[test]
fn better_partitioning_never_simulates_slower_given_equal_balance() {
    // Compare 2PS-L and Random at identical k on a clustered graph; the
    // replication gap must translate into a simulated-time gap.
    let graph = Dataset::Gsh.generate_scaled(0.01);
    let k = 16u32;
    let pr = PageRankConfig {
        iterations: 10,
        ..Default::default()
    };
    let cost = ClusterCostModel::spark_like();
    let outcome = |p: &mut dyn Partitioner| {
        let mut sink = VecSink::new();
        p.partition(&mut graph.stream(), &PartitionParams::new(k), &mut sink)
            .unwrap();
        let layout =
            DistributedGraph::from_assignments(sink.assignments(), graph.num_vertices(), k);
        simulate_pagerank(&layout, &pr, &cost).unwrap()
    };
    let good = outcome(&mut TwoPhasePartitioner::new(TwoPhaseConfig::default()));
    let bad = outcome(&mut tps_baselines::RandomPartitioner::default());
    assert!(good.replication_factor < bad.replication_factor);
    assert!(good.simulated_time < bad.simulated_time);
}

#[test]
fn partition_files_round_trip_through_procsim() {
    // Write partition files, read them back, and rebuild the layout from the
    // files — the fully materialised out-of-core pipeline.
    let graph = Dataset::Ok.generate_scaled(0.005);
    let dir = tmpdir("partfiles");
    let k = 4u32;
    let mut quality = tps_core::sink::QualitySink::new(graph.num_vertices(), k);
    let mut files = tps_core::sink::FileSink::create(&dir, "ok", k, graph.num_vertices()).unwrap();
    {
        let mut tee = tps_core::sink::TeeSink::new(&mut quality, &mut files);
        TwoPhasePartitioner::new(TwoPhaseConfig::default())
            .partition(&mut graph.stream(), &PartitionParams::new(k), &mut tee)
            .unwrap();
    }
    let parts = files.finish().unwrap();
    let mut assignments = Vec::new();
    for (i, (path, _)) in parts.iter().enumerate() {
        let mut f = open_edge_stream(path, ReaderBackend::Buffered).unwrap();
        tps_graph::stream::for_each_edge(&mut f, |e| assignments.push((e, i as u32))).unwrap();
    }
    assert_eq!(assignments.len() as u64, graph.num_edges());
    let layout = DistributedGraph::from_assignments(&assignments, graph.num_vertices(), k);
    let metrics = quality.finish();
    assert!((layout.replication_factor() - metrics.replication_factor).abs() < 1e-12);
    std::fs::remove_dir_all(&dir).ok();
}
