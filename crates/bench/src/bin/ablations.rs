//! Ablations of 2PS-L's design choices (DESIGN.md §6).
//!
//! 1. Cluster volume-cap factor ∈ {0.25, 0.5, 1.0, 2.0, ∞}.
//! 2. Cluster→partition mapping: Graham sorted vs unsorted first-fit.
//! 3. Pre-partitioning on/off.
//! 4. One vs two clustering passes.
//!
//! Run: `cargo run --release -p tps-bench --bin ablations`

use tps_bench::harness::BenchArgs;
use tps_core::job::JobSpec;
use tps_core::partitioner::PartitionParams;
use tps_core::two_phase::{MappingStrategy, TwoPhaseConfig};
use tps_graph::datasets::Dataset;
use tps_metrics::table::Table;

#[global_allocator]
static ALLOC: tps_metrics::alloc::CountingAllocator = tps_metrics::alloc::CountingAllocator;

fn run_config(graph: &tps_graph::InMemoryGraph, config: TwoPhaseConfig, k: u32) -> (f64, f64, f64) {
    let mut stream = graph.stream();
    let out = JobSpec::stream(&mut stream)
        .two_phase(config)
        .params(&PartitionParams::new(k))
        .num_vertices(graph.num_vertices())
        .run()
        .expect("partitioning failed");
    let pre = out.report.counter("prepartitioned") as f64;
    let total = graph.num_edges().max(1) as f64;
    (out.metrics.replication_factor, out.seconds(), pre / total)
}

fn main() {
    let args = BenchArgs::from_env();
    let k = 32u32;
    let mut table = Table::new(vec![
        "graph",
        "variant",
        "rf",
        "time (s)",
        "prepartitioned %",
    ]);
    for ds in [Dataset::It, Dataset::Ok] {
        let graph = ds.generate_scaled(args.scale);
        let mut row = |variant: &str, cfg: TwoPhaseConfig| {
            let (rf, t, pre) = run_config(&graph, cfg, k);
            table.row(vec![
                ds.abbrev().to_string(),
                variant.to_string(),
                format!("{rf:.3}"),
                format!("{t:.3}"),
                format!("{:.1}", pre * 100.0),
            ]);
        };
        row("baseline (cap 0.5)", TwoPhaseConfig::default());
        for factor in [0.25f64, 1.0, 2.0] {
            row(
                &format!("cap factor {factor}"),
                TwoPhaseConfig {
                    volume_cap_factor: factor,
                    ..Default::default()
                },
            );
        }
        // "Unbounded" = a cap so large it never binds (factor k ⇒ cap = 2|E|).
        row(
            "cap unbounded",
            TwoPhaseConfig {
                volume_cap_factor: k as f64,
                ..Default::default()
            },
        );
        row(
            "unsorted mapping",
            TwoPhaseConfig {
                mapping: MappingStrategy::UnsortedFirstFit,
                ..Default::default()
            },
        );
        row(
            "no pre-partitioning",
            TwoPhaseConfig {
                prepartitioning: false,
                ..Default::default()
            },
        );
        row("2 clustering passes", TwoPhaseConfig::with_passes(2));
    }
    println!("{}", table.render());
    args.maybe_write_csv("ablations", &table);
}
