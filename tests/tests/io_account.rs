//! `DeviceStream` I/O accounting over `tps-io`'s file reader.
//!
//! A v1 stream wrapped in a `DeviceStream` is charged one pass per pass and
//! 8 bytes per edge, the record size. For the compressed v2 format the
//! charge is scaled with `with_record_bytes` to the file's true on-disk
//! cost per edge.

use std::path::PathBuf;

use tps_core::partitioner::{PartitionParams, Partitioner};
use tps_core::sink::NullSink;
use tps_core::two_phase::{TwoPhaseConfig, TwoPhasePartitioner};
use tps_graph::datasets::Dataset;
use tps_graph::formats::binary::write_binary_edge_list;
use tps_graph::stream::for_each_edge;
use tps_io::{open_edge_stream, ReaderBackend};
use tps_storage::{DeviceModel, DeviceStream, IoAccount};

fn materialize(tag: &str) -> (PathBuf, u64) {
    let graph = Dataset::It.generate_scaled(0.005);
    let path = std::env::temp_dir().join(format!("tps-ioacct-{tag}-{}.bel", std::process::id()));
    write_binary_edge_list(&path, graph.num_vertices(), graph.edges().iter().copied()).unwrap();
    (path, graph.num_edges())
}

/// Run a full 2PS-L partition (3 + 1 passes) over `path` with the given
/// backend, wrapped in an SSD device model, and return the account.
fn run_accounted(path: &PathBuf, backend: ReaderBackend) -> IoAccount {
    let stream = open_edge_stream(path, backend).unwrap();
    let mut device = DeviceStream::new(stream, DeviceModel::ssd());
    let mut p = TwoPhasePartitioner::new(TwoPhaseConfig::default());
    p.partition(&mut device, &PartitionParams::new(8), &mut NullSink)
        .unwrap();
    device.account()
}

#[test]
fn accounting_is_identical_across_v1_backends() {
    let (path, num_edges) = materialize("backends");
    for backend in ReaderBackend::ALL {
        let account = run_accounted(&path, backend);
        // 2PS-L with one clustering pass: degree + clustering +
        // pre-partition + partition = 4 full passes, 8 bytes per edge.
        assert_eq!(account.passes, 4, "{backend:?}");
        assert_eq!(account.bytes, 4 * num_edges * 8, "{backend:?}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn v2_record_bytes_charge_the_compressed_size() {
    let (v1_path, num_edges) = materialize("v2bytes");
    let v2_path = v1_path.with_extension("bel2");
    tps_io::convert_v1_to_v2(&v1_path, &v2_path, 4096).unwrap();

    // One full pass reads the header and every chunk (the index and
    // trailer are only read at open).
    let layout = tps_io::v2::read_layout(&mut std::fs::File::open(&v2_path).unwrap()).unwrap();
    let chunk_bytes: u64 = layout
        .chunks
        .iter()
        .map(|c| tps_io::v2::CHUNK_HEADER_LEN + c.payload_len as u64)
        .sum();
    let pass_bytes = tps_io::v2::HEADER_LEN_V2 + chunk_bytes;
    let record_bytes = pass_bytes as f64 / num_edges as f64;
    assert!(
        record_bytes < 8.0,
        "v2 should beat 8 B/edge, got {record_bytes}"
    );

    let stream = open_edge_stream(&v2_path, ReaderBackend::Buffered).unwrap();
    let mut device = DeviceStream::with_record_bytes(stream, DeviceModel::hdd(), record_bytes);
    for_each_edge(&mut device, |_| {}).unwrap();
    for_each_edge(&mut device, |_| {}).unwrap();
    let acc = device.account();
    assert_eq!(acc.passes, 2);
    // Two passes charge ~2x the compressed pass size (±1 byte of rounding).
    assert!(
        acc.bytes.abs_diff(2 * pass_bytes) <= 2,
        "charged {} for two passes of {pass_bytes}",
        acc.bytes
    );
    std::fs::remove_file(&v1_path).ok();
    std::fs::remove_file(&v2_path).ok();
}

#[test]
fn empty_pass_costs_nothing_on_any_backend() {
    let path = std::env::temp_dir().join(format!("tps-ioacct-empty-{}.bel", std::process::id()));
    write_binary_edge_list(&path, 0, std::iter::empty()).unwrap();
    for backend in ReaderBackend::ALL {
        let stream = open_edge_stream(&path, backend).unwrap();
        let mut device = DeviceStream::new(stream, DeviceModel::hdd());
        for_each_edge(&mut device, |_| {}).unwrap();
        assert_eq!(device.account().passes, 0, "{backend:?}");
        assert_eq!(device.account().bytes, 0, "{backend:?}");
    }
    std::fs::remove_file(&path).ok();
}
