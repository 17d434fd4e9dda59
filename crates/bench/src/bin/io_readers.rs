//! File-reader throughput: TPSBEL1 vs TPSBEL2 on the one reader.
//!
//! Writes an R-MAT-skewed stand-in graph as both TPSBEL1 and TPSBEL2, then
//! times a 4-pass streaming *epoch* per format — one open, then
//! `EPOCH_PASSES` (4) sequential fingerprint passes, the exact access
//! pattern of a 2PS-L partitioning run (degree, clustering, prepartition,
//! partition) — and a full 2PS-L partition on the v1 file, emitting a JSON
//! report on stdout. The headline `medges_per_sec` is the per-pass average
//! over the epoch; the cold (first, checksummed + decoded) and warm passes
//! are also reported separately so the cold-pass premium stays visible.
//! Warm v2 passes read the range the cold pass spilled to a temp-dir file,
//! packed in the bits its ids need (see crates/io/README.md); where the
//! spill cannot be written, warm passes re-decode and look like cold
//! ones. The `v2_vs_v1` section reports the epoch throughput ratio, which
//! is robust to container-speed drift unlike absolute Medges/s. Entries
//! keep a `"backend": "buffered"` field, the reader's name, so the perf
//! gate's metric names stay stable.
//!
//! Both formats must yield the bit-identical edge order — the paper's
//! multi-pass algorithms depend on it — so each pass is fingerprinted with
//! an order-sensitive FNV-1a hash and the run aborts on divergence.
//!
//! Run: `cargo run --release -p tps-bench --bin io_readers -- [--scale f] [--repeats n]`

use std::time::Instant;

use tps_bench::harness::BenchArgs;
use tps_core::partitioner::{PartitionParams, Partitioner};
use tps_core::sink::NullSink;
use tps_core::two_phase::{TwoPhaseConfig, TwoPhasePartitioner};
use tps_graph::datasets::Dataset;
use tps_graph::formats::binary::write_binary_edge_list;
use tps_graph::stream::{for_each_edge, EdgeStream};
use tps_io::{open_edge_stream, write_v2_edge_list, ReaderBackend};

/// Order-sensitive stream fingerprint (FNV-1a over the edge byte sequence),
/// drained through the bulk read — the read the engine's passes use.
fn stream_fingerprint(stream: &mut dyn EdgeStream) -> std::io::Result<(u64, u64)> {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut n = 0u64;
    for_each_edge(stream, |e| {
        for b in e.src.to_le_bytes().into_iter().chain(e.dst.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        n += 1;
    })?;
    Ok((h, n))
}

fn main() {
    let args = BenchArgs::from_env();
    let dir = std::env::temp_dir().join(format!("tps-io-readers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let v1_path = dir.join("graph.bel");
    let v2_path = dir.join("graph.bel2");

    // The OK stand-in is R-MAT-derived: skewed degrees and skewed ids, the
    // case the v2 varint encoding targets.
    let graph = Dataset::Ok.generate_scaled(args.scale);
    write_binary_edge_list(
        &v1_path,
        graph.num_vertices(),
        graph.edges().iter().copied(),
    )
    .expect("write v1");
    write_v2_edge_list(
        &v2_path,
        graph.num_vertices(),
        graph.edges().iter().copied(),
        tps_io::v2::DEFAULT_CHUNK_EDGES,
    )
    .expect("write v2");
    let v1_bytes = std::fs::metadata(&v1_path).unwrap().len();
    let v2_bytes = std::fs::metadata(&v2_path).unwrap().len();

    const EPOCH_PASSES: usize = 4;
    let backend = ReaderBackend::Buffered.name();
    struct Acc {
        best_epoch: f64,
        best_cold: f64,
        best_warm: f64,
        total_epoch: f64,
    }
    let formats = [("v1", &v1_path), ("v2", &v2_path)];
    let mut accs = formats.map(|_| Acc {
        best_epoch: f64::INFINITY,
        best_cold: f64::INFINITY,
        best_warm: f64::INFINITY,
        total_epoch: 0.0,
    });
    let mut reference: Option<(u64, u64)> = None;
    // Repeats are the OUTER loop so each repeat measures v1 and v2
    // back-to-back: the container CPU clock drifts over a run (turbo at
    // the start, sustained later), and interleaving keeps the ratio's
    // numerator and denominator under the same clock.
    for _ in 0..args.repeats {
        for ((format, path), acc) in formats.iter().zip(&mut accs) {
            let mut stream = open_edge_stream(path, ReaderBackend::Buffered).expect("open stream");
            let start = Instant::now();
            let (hash, n) = stream_fingerprint(&mut stream).expect("stream pass");
            let cold = start.elapsed().as_secs_f64();
            let expected = *reference.get_or_insert((hash, n));
            assert_eq!(
                (hash, n),
                expected,
                "{format} diverged from reference edge order"
            );
            let warm_start = Instant::now();
            for pass in 1..EPOCH_PASSES {
                let got = stream_fingerprint(&mut stream).expect("stream pass");
                assert_eq!(got, expected, "{format} diverged on warm pass {pass}");
            }
            let warm = warm_start.elapsed().as_secs_f64();
            let epoch = start.elapsed().as_secs_f64();
            acc.best_epoch = acc.best_epoch.min(epoch);
            acc.best_cold = acc.best_cold.min(cold);
            acc.best_warm = acc.best_warm.min(warm);
            acc.total_epoch += epoch;
        }
    }

    let edges = graph.num_edges() as f64;
    let mut results = Vec::new();
    for ((format, _), acc) in formats.iter().zip(&accs) {
        results.push(format!(
            "    {{\"format\": \"{format}\", \"backend\": \"{backend}\", \"passes\": {EPOCH_PASSES}, \
             \"epoch_seconds\": {:.6}, \"medges_per_sec\": {:.2}, \
             \"cold_medges_per_sec\": {:.2}, \"warm_medges_per_sec\": {:.2}}}",
            acc.best_epoch,
            edges * EPOCH_PASSES as f64 / acc.best_epoch / 1e6,
            edges / acc.best_cold / 1e6,
            edges * (EPOCH_PASSES - 1) as f64 / acc.best_warm / 1e6
        ));
    }

    // The v2/v1 epoch-throughput ratio: the size saving is only free once
    // it holds at >= 1.0. It uses *total* epoch time over all (interleaved)
    // repeats, not best-of — clock drift hits both sides equally and
    // cancels, where best-of favors whichever format caught the fastest
    // clock window.
    let [v1, v2] = &accs;
    let ratio = format!(
        "    {{\"backend\": \"{backend}\", \"ratio\": {:.4}, \
         \"v1_medges_per_sec\": {:.2}, \"v2_medges_per_sec\": {:.2}}}",
        v1.total_epoch / v2.total_epoch,
        edges * EPOCH_PASSES as f64 / v1.best_epoch / 1e6,
        edges * EPOCH_PASSES as f64 / v2.best_epoch / 1e6
    );

    // End-to-end: a full 2PS-L partition (4 passes over the stream) on the
    // v1 file.
    let mut best = f64::INFINITY;
    for _ in 0..args.repeats {
        let mut stream = open_edge_stream(&v1_path, ReaderBackend::Buffered).expect("open stream");
        let mut p = TwoPhasePartitioner::new(TwoPhaseConfig::default());
        let start = Instant::now();
        p.partition(&mut stream, &PartitionParams::new(32), &mut NullSink)
            .expect("partition");
        best = best.min(start.elapsed().as_secs_f64());
    }
    let partition = format!("    {{\"backend\": \"{backend}\", \"partition_seconds\": {best:.6}}}");

    println!("{{");
    println!(
        "  \"graph\": {{\"vertices\": {}, \"edges\": {}, \"scale\": {}}},",
        graph.num_vertices(),
        graph.num_edges(),
        args.scale
    );
    println!(
        "  \"files\": {{\"v1_bytes\": {v1_bytes}, \"v2_bytes\": {v2_bytes}, \"v2_ratio\": {:.4}}},",
        v2_bytes as f64 / v1_bytes as f64
    );
    println!("  \"stream_pass\": [\n{}\n  ],", results.join(",\n"));
    println!("  \"v2_vs_v1\": [\n{ratio}\n  ],");
    println!("  \"partition_2psl_k32\": [\n{partition}\n  ]");
    println!("}}");

    assert!(
        v2_bytes < v1_bytes,
        "v2 ({v2_bytes} B) must be smaller than v1 ({v1_bytes} B)"
    );
    std::fs::remove_dir_all(&dir).ok();
}
