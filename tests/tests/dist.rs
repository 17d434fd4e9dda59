//! Distributed/parallel equivalence and protocol-trace contracts.
//!
//! Pins the guarantees documented in `tps-dist`:
//!
//! * a distributed run over any transport is **bit-identical** to the
//!   in-process `--threads N` job at the same worker count, for every
//!   storage backend (in-memory, v1 file, v2 file);
//! * the loopback-channel and loopback-TCP transports carry **identical
//!   protocol traces** (same message sequence, same frame bytes lengths) —
//!   serialisation lives entirely above the transport;
//! * a distributed run reports the quality `--threads N` reports — the
//!   census of the workers' final replica rows equals a recount of the
//!   emitted records;
//! * corrupt or truncated frames are errors, never panics or hangs.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use tps_core::job::{JobSpec, ThreadMode};
use tps_core::partitioner::{PartitionParams, RunReport};
use tps_core::sink::{QualitySink, VecSink};
use tps_core::two_phase::TwoPhaseConfig;
use tps_dist::transport::TraceEvent;
use tps_dist::{
    loopback_pair, run_coordinator, run_worker, AttachedResolver, FaultPolicy, InputDescriptor,
    NoReplacements, TcpTransport, TraceTransport, Transport,
};
use tps_graph::ranged::RangedEdgeSource;
use tps_graph::stream::InMemoryGraph;
use tps_graph::types::Edge;
use tps_metrics::quality::PartitionMetrics;

/// Which transport a dist run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wire {
    Loopback,
    Tcp,
}

/// A traced distributed run: its assignments, the coordinator-side trace
/// per worker, and its report.
type DistRun = (Vec<(Edge, u32)>, Vec<Vec<TraceEvent>>, RunReport);

/// Run a traced distributed job over `wire`.
fn dist_traced(source: &dyn RangedEdgeSource, k: u32, workers: usize, wire: Wire) -> DistRun {
    let config = TwoPhaseConfig::default();
    let params = PartitionParams::new(k);
    let traces: Vec<Arc<Mutex<Vec<TraceEvent>>>> = (0..workers)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();

    let mut coordinator_sides: Vec<Box<dyn Transport>> = Vec::with_capacity(workers);
    let mut worker_sides: Vec<Box<dyn Transport>> = Vec::with_capacity(workers);
    match wire {
        Wire::Loopback => {
            for trace in &traces {
                let (c, w) = loopback_pair();
                coordinator_sides.push(Box::new(TraceTransport::new(c, trace.clone())));
                worker_sides.push(Box::new(w));
            }
        }
        Wire::Tcp => {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            for trace in &traces {
                let client = std::net::TcpStream::connect(addr).unwrap();
                let (served, _) = listener.accept().unwrap();
                coordinator_sides.push(Box::new(TraceTransport::new(
                    TcpTransport::new(served).unwrap(),
                    trace.clone(),
                )));
                worker_sides.push(Box::new(TcpTransport::new(client).unwrap()));
            }
        }
    }

    let mut sink = VecSink::new();
    let report = std::thread::scope(|scope| {
        let handles: Vec<_> = worker_sides
            .into_iter()
            .map(|mut t| scope.spawn(move || run_worker(&mut *t, &AttachedResolver(source))))
            .collect();
        let report = run_coordinator(
            &config,
            &params,
            source.info(),
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
        report
    });
    let traces = traces.iter().map(|t| t.lock().unwrap().clone()).collect();
    (sink.into_assignments(), traces, report)
}

/// The `--threads N` run's assignments and its `RunOutcome::metrics`.
fn parallel_reference(
    g: &InMemoryGraph,
    k: u32,
    workers: usize,
) -> (Vec<(Edge, u32)>, PartitionMetrics) {
    let mut sink = VecSink::new();
    let outcome = JobSpec::ranged(g)
        .two_phase(TwoPhaseConfig::default())
        .params(&PartitionParams::new(k))
        .threads(ThreadMode::Count(workers))
        .extra_sink(&mut sink)
        .run()
        .unwrap();
    (sink.into_assignments(), outcome.metrics)
}

/// A `QualitySink`'s recount of `assignments`.
fn recount(num_vertices: u64, k: u32, assignments: &[(Edge, u32)]) -> PartitionMetrics {
    use tps_core::sink::AssignmentSink;
    let mut quality = QualitySink::new(num_vertices, k);
    quality.assign_batch(assignments).unwrap();
    quality.finish()
}

/// Arbitrary small graphs (duplicates and self-loops allowed).
fn arb_graph() -> impl Strategy<Value = InMemoryGraph> {
    proptest::collection::vec((0u32..48, 0u32..48), 1..160)
        .prop_map(|pairs| InMemoryGraph::from_edges(pairs.into_iter().map(Edge::from).collect()))
}

proptest! {
    // Each case spins up to 3 backends × 2 transports × 3 worker counts of
    // full protocol runs (TCP included), so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dist_equals_parallel_across_transports_backends_and_worker_counts(
        graph in arb_graph(),
        k in 1u32..9,
    ) {
        // Materialise the same edges as v1 and v2 files (chunk size chosen
        // not to divide range boundaries).
        let dir = std::env::temp_dir().join(format!(
            "tps-dist-prop-{}-{:x}",
            std::process::id(),
            graph.num_edges() * 31 + k as u64
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let v1_path = dir.join("g.bel");
        let v2_path = dir.join("g.bel2");
        tps_graph::formats::binary::write_binary_edge_list(
            &v1_path,
            graph.num_vertices(),
            graph.edges().iter().copied(),
        )
        .unwrap();
        tps_io::write_v2_edge_list(
            &v2_path,
            graph.num_vertices(),
            graph.edges().iter().copied(),
            7,
        )
        .unwrap();
        let v1 = tps_io::RangedFile::read(&v1_path).unwrap();
        let v2 = tps_io::RangedFile::read(&v2_path).unwrap();

        for workers in [1usize, 2, 4] {
            let (want, metrics) = parallel_reference(&graph, k, workers);
            let (mem_out, mem_trace, mem_report) = dist_traced(&graph, k, workers, Wire::Loopback);
            prop_assert_eq!(&mem_out, &want, "loopback/mem, {} workers", workers);
            // The census round counts what `--threads N` counts.
            prop_assert_eq!(mem_report.quality.as_ref(), Some(&metrics), "{} workers", workers);

            // Storage backends change nothing: same shard map, same bytes.
            let (v1_out, v1_trace, _) = dist_traced(&v1, k, workers, Wire::Loopback);
            let (v2_out, v2_trace, _) = dist_traced(&v2, k, workers, Wire::Loopback);
            prop_assert_eq!(&v1_out, &want, "loopback/v1, {} workers", workers);
            prop_assert_eq!(&v2_out, &want, "loopback/v2, {} workers", workers);
            prop_assert_eq!(&v1_trace, &mem_trace, "v1 trace, {} workers", workers);
            prop_assert_eq!(&v2_trace, &mem_trace, "v2 trace, {} workers", workers);

            // TCP carries the identical protocol trace and output.
            let (tcp_out, tcp_trace, _) = dist_traced(&graph, k, workers, Wire::Tcp);
            prop_assert_eq!(&tcp_out, &want, "tcp/mem, {} workers", workers);
            prop_assert_eq!(&tcp_trace, &mem_trace, "tcp trace, {} workers", workers);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn traces_follow_the_documented_message_sequence() {
    let g = tps_graph::datasets::Dataset::Ok.generate_scaled(0.01);
    let (_, traces, _) = dist_traced(&g, 8, 2, Wire::Loopback);
    for trace in &traces {
        let names: Vec<&str> = trace
            .iter()
            .map(|e| {
                // Coordinator-side: sent frames are C→W messages.
                e.name()
            })
            .collect();
        // Run frames repeat; collapse them for the structural check.
        let mut collapsed = names.clone();
        collapsed.dedup();
        assert_eq!(
            collapsed,
            vec![
                "Hello",
                "Job",
                "Degrees",
                "Globals",
                "LocalClustering",
                "Plan",
                "ReplicationChunk",
                "MergedReplicationChunk",
                "ShardDone",
                "CensusPull",
                "CensusChunk",
                "Pull",
                "Run",
                "RunsDone",
                "Shutdown",
            ],
            "full trace: {names:?}"
        );
    }
}

/// A graph of `num_vertices` ids, 400 edges scattered across the whole
/// range so that every replication chunk carries bits.
fn scattered_graph(num_vertices: u32) -> InMemoryGraph {
    let mut edges = Vec::new();
    for i in 0..400u32 {
        let u = (i * 1_499) % num_vertices;
        let v = (u + 137_003) % num_vertices;
        edges.push(Edge::new(u, v));
    }
    edges.push(Edge::new(0, num_vertices - 1)); // pin the id space
    InMemoryGraph::from_edges(edges)
}

/// A graph whose vertex-id space spans several replication chunks
/// (`ReplChunks` targets 2^14 words per frame; at k = 64 a row is one
/// whole word, so that is 16384 vertices per chunk).
#[test]
fn replication_barrier_spans_multiple_chunks_bit_identically() {
    let g = scattered_graph(300_000);
    let k = 64;
    let chunks = tps_dist::ReplChunks::new(g.num_vertices(), k);
    assert!(
        chunks.count() >= 3,
        "test graph must span several chunks, got {}",
        chunks.count()
    );

    for workers in [2usize, 3] {
        let (want, _) = parallel_reference(&g, k, workers);
        let (got, traces, _) = dist_traced(&g, k, workers, Wire::Loopback);
        assert_eq!(got, want, "{workers} workers");
        for (w, trace) in traces.iter().enumerate() {
            let recv_chunks = trace
                .iter()
                .filter(|e| !e.sent && e.name() == "ReplicationChunk")
                .count();
            let sent_merged = trace
                .iter()
                .filter(|e| e.sent && e.name() == "MergedReplicationChunk")
                .count();
            assert_eq!(
                recv_chunks,
                chunks.count() as usize,
                "worker {w}: one ReplicationChunk per vertex range"
            );
            assert_eq!(
                sent_merged,
                chunks.count() as usize,
                "worker {w}: one MergedReplicationChunk per vertex range"
            );
            let census = trace
                .iter()
                .filter(|e| !e.sent && e.name() == "CensusChunk")
                .count();
            assert_eq!(
                census,
                chunks.count() as usize,
                "worker {w}: one CensusChunk per vertex range"
            );
            // Every barrier frame stays far below the frame cap — the
            // point of chunking (zero-run encoding shrinks them further).
            for e in trace.iter().filter(|e| e.name().ends_with("Chunk")) {
                assert!(
                    e.len < 1 << 18,
                    "worker {w}: {} frame of {} bytes",
                    e.name(),
                    e.len
                );
            }
        }
    }
}

/// The quality a distributed run reports is the census of the workers'
/// final replica rows, ORed one chunk at a time: it equals a recount of
/// the emitted records and the `RunOutcome::metrics` of `--threads N`, at
/// every row packing — one-bit lanes (k = 1), lanes sharing words
/// (k = 63), one word per row (k = 64), rows of several words (k = 65,
/// 256) — over a vertex space of several census chunks.
#[test]
fn dist_quality_is_the_census_of_the_final_replica_rows() {
    // 1.1 M ids: two chunks even at k = 1, where 64 rows share a word.
    let g = scattered_graph(1_100_000);
    for k in [1u32, 63, 64, 65, 256] {
        let chunks = tps_dist::ReplChunks::new(g.num_vertices(), k);
        assert!(chunks.count() >= 2, "k = {k}: {} chunks", chunks.count());
        let (want, metrics) = parallel_reference(&g, k, 2);
        let (got, traces, report) = dist_traced(&g, k, 2, Wire::Loopback);
        assert_eq!(got, want, "k = {k}");
        let census = report.quality.expect("dist reports its quality");
        assert_eq!(census, recount(g.num_vertices(), k, &got), "k = {k}");
        assert_eq!(census, metrics, "k = {k}");
        for trace in &traces {
            let pulls = trace.iter().filter(|e| e.name() == "CensusPull").count();
            assert_eq!(pulls, chunks.count() as usize, "k = {k}");
        }
    }
}

// ---- error paths: a corrupt peer must produce errors, not hangs ----

/// Feed the coordinator a worker that sends garbage instead of `Hello`.
#[test]
fn coordinator_rejects_garbage_handshake() {
    let g = InMemoryGraph::from_edges(vec![Edge::new(0, 1)]);
    let (c, mut w) = loopback_pair();
    let transports: Vec<Box<dyn Transport>> = vec![Box::new(c)];
    w.send(&[250, 1, 2, 3]).unwrap(); // unknown tag
    let mut sink = VecSink::new();
    let err = run_coordinator(
        &TwoPhaseConfig::default(),
        &PartitionParams::new(2),
        g.info(),
        &InputDescriptor::Attached,
        1,
        transports,
        &mut NoReplacements,
        &FaultPolicy::default(),
        0,
        &mut sink,
    )
    .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// A worker whose coordinator vanishes mid-protocol errors out cleanly.
#[test]
fn worker_survives_coordinator_disconnect() {
    let g = InMemoryGraph::from_edges(vec![Edge::new(0, 1), Edge::new(1, 2)]);
    let (c, mut w) = loopback_pair();
    drop(c);
    let err = run_worker(&mut w, &AttachedResolver(&g)).unwrap_err();
    // Depending on timing the worker fails sending Hello (BrokenPipe) or
    // waiting for the Job (UnexpectedEof) — either way, an error, no hang.
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::UnexpectedEof
        ),
        "{err}"
    );
}

/// A worker receiving a `Job` whose graph info contradicts its source
/// aborts (and the coordinator sees the abort as an error).
#[test]
fn mismatched_job_info_aborts_the_run() {
    let g = InMemoryGraph::from_edges(vec![Edge::new(0, 1), Edge::new(1, 2)]);
    let lying = InMemoryGraph::from_edges(vec![Edge::new(0, 1)]);
    let (c, w) = loopback_pair();
    let transports: Vec<Box<dyn Transport>> = vec![Box::new(c)];
    let mut sink = VecSink::new();
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let mut w = w;
            run_worker(&mut w, &AttachedResolver(&lying))
        });
        let err = run_coordinator(
            &TwoPhaseConfig::default(),
            &PartitionParams::new(2),
            g.info(),
            &InputDescriptor::Attached,
            1,
            transports,
            &mut NoReplacements,
            &FaultPolicy::default(),
            0,
            &mut sink,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("input mismatch"),
            "unexpected error: {err}"
        );
        assert!(handle.join().unwrap().is_err());
    });
}

/// A worker receiving a `Job` whose memory budget overflows 64-bit bytes
/// refuses it as corrupt instead of running with the wrapped budget (2⁴⁴
/// MiB wraps to none at all), and the coordinator sees why.
#[test]
fn overflowing_job_budget_aborts_the_run() {
    let g = InMemoryGraph::from_edges(vec![Edge::new(0, 1), Edge::new(1, 2)]);
    let (c, w) = loopback_pair();
    let transports: Vec<Box<dyn Transport>> = vec![Box::new(c)];
    let mut sink = VecSink::new();
    let source = &g;
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let mut w = w;
            run_worker(&mut w, &AttachedResolver(source))
        });
        let err = run_coordinator(
            &TwoPhaseConfig::default(),
            &PartitionParams::new(2),
            g.info(),
            &InputDescriptor::Attached,
            1,
            transports,
            &mut NoReplacements,
            &FaultPolicy::default(),
            1 << 44,
            &mut sink,
        )
        .unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
        let worker_err = handle.join().unwrap().unwrap_err();
        assert_eq!(worker_err.kind(), std::io::ErrorKind::InvalidData);
    });
}

/// Abort reasons propagate across real TCP, not just loopback.
#[test]
fn abort_propagates_over_tcp() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut t = TcpTransport::new(std::net::TcpStream::connect(addr).unwrap()).unwrap();
        // Speak a wrong protocol version.
        t.send(&tps_dist::Message::Hello { version: 999 }.encode())
            .unwrap();
        // The coordinator answers with an Abort frame.
        tps_dist::Message::decode(&t.recv().unwrap()).unwrap()
    });
    let (stream, _) = listener.accept().unwrap();
    let transports: Vec<Box<dyn Transport>> = vec![Box::new(TcpTransport::new(stream).unwrap())];
    let g = InMemoryGraph::from_edges(vec![Edge::new(0, 1)]);
    let mut sink = VecSink::new();
    let err = run_coordinator(
        &TwoPhaseConfig::default(),
        &PartitionParams::new(2),
        g.info(),
        &InputDescriptor::Attached,
        1,
        transports,
        &mut NoReplacements,
        &FaultPolicy::default(),
        0,
        &mut sink,
    )
    .unwrap_err();
    assert!(err.to_string().contains("protocol"), "{err}");
    let got = client.join().unwrap();
    assert!(matches!(got, tps_dist::Message::Abort { .. }));
}

/// A worker built before replica rows were packed (protocol v6) would
/// misread every replication chunk at k ≤ 32, one built before the `Job`
/// frame lost its reader byte (v7) would misread the input path, and one
/// built before the census round (v8) would take the first `CensusPull`
/// for a protocol error: the handshake refuses all three, as a fresh
/// `Hello` and as a `Rejoin`, naming both versions.
#[test]
fn handshake_refuses_a_v6_worker() {
    assert_eq!(tps_dist::PROTOCOL_VERSION, 9);
    let g = InMemoryGraph::from_edges(vec![Edge::new(0, 1)]);
    for (version, hello) in [6, 7, 8].into_iter().flat_map(|version| {
        [
            (version, tps_dist::Message::Hello { version }),
            (version, tps_dist::Message::Rejoin { version }),
        ]
    }) {
        let (c, mut w) = loopback_pair();
        w.send(&hello.encode()).unwrap();
        let err = run_coordinator(
            &TwoPhaseConfig::default(),
            &PartitionParams::new(2),
            g.info(),
            &InputDescriptor::Attached,
            1,
            vec![Box::new(c) as Box<dyn Transport>],
            &mut NoReplacements,
            &FaultPolicy::default(),
            0,
            &mut VecSink::new(),
        )
        .unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("worker speaks protocol {version}, coordinator 9")),
            "{err}"
        );
        let reply = tps_dist::Message::decode(&w.recv().unwrap()).unwrap();
        assert!(matches!(reply, tps_dist::Message::Abort { .. }));
    }
}
