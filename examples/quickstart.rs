//! Quickstart: partition a graph with 2PS-L and inspect the result.
//!
//! Run: `cargo run --release -p tps-examples --bin quickstart`

use tps_core::partitioner::{PartitionParams, Partitioner};
use tps_core::sink::QualitySink;
use tps_core::two_phase::{TwoPhaseConfig, TwoPhasePartitioner};
use tps_graph::datasets::Dataset;

fn main() {
    // 1. Get a graph. Any `EdgeStream` works: a generated dataset (here), a
    //    binary edge-list file (`tps_io::open_edge_stream`), or a text edge
    //    list.
    let graph = Dataset::Ok.generate_scaled(0.1);
    println!(
        "graph: {} vertices, {} edges (com-orkut stand-in at 10 % scale)",
        graph.num_vertices(),
        graph.num_edges()
    );

    // 2. Pick partition count and balance factor (α = 1.05 is the paper's
    //    setting and the default).
    let params = PartitionParams::new(32);

    // 3. Partition. The sink receives every (edge, partition) decision; the
    //    QualitySink computes ground-truth metrics from them.
    let mut partitioner = TwoPhasePartitioner::new(TwoPhaseConfig::default());
    let mut sink = QualitySink::new(graph.num_vertices(), params.k);
    let mut stream = graph.stream();
    let report = partitioner
        .partition(&mut stream, &params, &mut sink)
        .expect("partitioning failed");

    // 4. Inspect the result.
    let metrics = sink.finish();
    println!("replication factor: {:.3}", metrics.replication_factor);
    println!("balance: {}", metrics.load_summary());
    println!(
        "pre-partitioned {} of {} edges ({} clusters found)",
        report.counter("prepartitioned"),
        metrics.num_edges,
        report.counter("clusters"),
    );
    for (name, d) in report.phases.phases() {
        println!("  phase {name:<13} {:>8.2} ms", d.as_secs_f64() * 1e3);
    }
    assert!(
        metrics.alpha <= params.alpha + 1e-9,
        "the hard balance cap held"
    );
}
