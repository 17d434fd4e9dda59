//! Out-of-core storage scenario (the Table V question): what does running
//! 2PS-L from a real file on a slow device cost?
//!
//! Writes the UK stand-in to a binary edge-list file, partitions it straight
//! from the file (the true out-of-core path), then replays the same run
//! under the SSD and HDD device models to show how the `3 + passes`
//! streaming passes translate into I/O time.
//!
//! Run: `cargo run --release -p tps-examples --bin storage_budget`

use tps_core::partitioner::{PartitionParams, Partitioner};
use tps_core::sink::NullSink;
use tps_core::two_phase::{TwoPhaseConfig, TwoPhasePartitioner};
use tps_graph::datasets::Dataset;
use tps_graph::formats::binary::write_binary_edge_list;
use tps_io::{open_edge_stream, ReaderBackend};
use tps_storage::{DeviceModel, DeviceStream};

fn main() {
    let graph = Dataset::Uk.generate_scaled(0.1);
    let dir = std::env::temp_dir().join(format!("tps-storage-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("uk.bel");
    let info = write_binary_edge_list(&path, graph.num_vertices(), graph.edges().iter().copied())
        .expect("write edge list");
    println!(
        "wrote {} ({} edges, {} bytes)\n",
        path.display(),
        info.num_edges,
        std::fs::metadata(&path).unwrap().len()
    );

    // Partition straight from the file — the real out-of-core code path.
    let mut file_stream = open_edge_stream(&path, ReaderBackend::Buffered).expect("open edge list");
    let mut partitioner = TwoPhasePartitioner::new(TwoPhaseConfig::default());
    let start = std::time::Instant::now();
    partitioner
        .partition(&mut file_stream, &PartitionParams::new(32), &mut NullSink)
        .expect("partitioning failed");
    let cpu = start.elapsed();
    println!("from file (page cache hot): {cpu:.2?} wall-clock");

    // Replay under the device models to budget cold-storage deployments.
    println!("\ndevice budgets for the same run (CPU + modelled I/O):");
    for device in [DeviceModel::ssd(), DeviceModel::hdd()] {
        let mut stream = DeviceStream::new(graph.stream(), device);
        let mut p = TwoPhasePartitioner::new(TwoPhaseConfig::default());
        let t = std::time::Instant::now();
        p.partition(&mut stream, &PartitionParams::new(32), &mut NullSink)
            .expect("partitioning failed");
        let cpu = t.elapsed();
        let acc = stream.account();
        println!(
            "  {:<11} {} passes, {:>6.1} MB read, I/O {:>6.2} s, total {:>6.2} s",
            device.name,
            acc.passes,
            acc.bytes as f64 / 1e6,
            acc.simulated_io.as_secs_f64(),
            cpu.as_secs_f64() + acc.simulated_io.as_secs_f64()
        );
    }
    println!(
        "\nrule of thumb from the paper: give 2PS-L >= 1 GB/s of sequential \
         read or enough RAM for the page cache."
    );
    std::fs::remove_dir_all(&dir).ok();
}
