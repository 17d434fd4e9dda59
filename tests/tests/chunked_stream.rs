//! Chunked ≡ per-edge: the bulk read (`EdgeStream::next_chunk`) and the
//! batched sink call (`AssignmentSink::assign_batch`) move the same edges in
//! the same order as the per-edge primitives they sit on — for every reader
//! backend, format and range shape — and every wrapper forwards them, so the
//! engine's pass loops make one call per chunk, never one per edge.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use tps_core::job::{JobSpec, ThreadMode};
use tps_core::partitioner::{PartitionParams, Partitioner};
use tps_core::sink::{AssignmentSink, AssignmentSpool, TeeSink, VecSink, VecSpool, SINK_BATCH};
use tps_core::two_phase::{TwoPhaseConfig, TwoPhasePartitioner};
use tps_graph::formats::binary::write_binary_edge_list;
use tps_graph::ranged::RangedEdgeSource;
use tps_graph::stream::{for_each_chunk, for_each_edge, EdgeStream, InMemoryGraph, CHUNK_EDGES};
use tps_graph::types::{Edge, GraphInfo, PartitionId};
use tps_io::{
    open_edge_stream, open_ranged_backend, write_v2_edge_list, ReaderBackend, SpillSpool,
};
use tps_storage::{DeviceModel, DeviceStream};

fn tmp(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tps-chunked-{tag}-{}.{ext}", std::process::id()))
}

fn per_edge(s: &mut dyn EdgeStream) -> Vec<Edge> {
    s.reset().unwrap();
    let mut out = Vec::new();
    while let Some(e) = s.next_edge().unwrap() {
        out.push(e);
    }
    assert_eq!(s.next_edge().unwrap(), None, "end of pass is sticky");
    out
}

/// One pass through the bulk read. A reader lends its own buffer: on this
/// (little-endian) target none of them may touch the scratch vector, which
/// is what keeps a pass from holding a second copy of a chunk.
fn chunked(s: &mut dyn EdgeStream) -> Vec<Edge> {
    s.reset().unwrap();
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    loop {
        let run = s.next_chunk(&mut scratch).unwrap();
        if run.is_empty() {
            break;
        }
        out.extend_from_slice(run);
    }
    assert!(s.next_chunk(&mut scratch).unwrap().is_empty());
    if cfg!(target_endian = "little") {
        assert_eq!(scratch.capacity(), 0, "a file reader copied into scratch");
    }
    out
}

/// `lead` single edges, one run, `lead + 1` single edges, one run, …: the
/// two reads share one cursor, wherever in a chunk the switch happens.
fn interleaved(s: &mut dyn EdgeStream, lead: usize) -> Vec<Edge> {
    s.reset().unwrap();
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    let mut singles = lead;
    'pass: loop {
        for _ in 0..singles {
            match s.next_edge().unwrap() {
                Some(e) => out.push(e),
                None => break 'pass,
            }
        }
        singles += 1;
        let run = s.next_chunk(&mut scratch).unwrap();
        if run.is_empty() {
            break;
        }
        out.extend_from_slice(run);
    }
    out
}

fn check_stream(s: &mut dyn EdgeStream, want: &[Edge], what: &str) {
    assert_eq!(per_edge(s), want, "{what}: per-edge order");
    assert_eq!(chunked(s), want, "{what}: chunked order");
    // Abandon a pass a few edges in, and one most of the way through.
    s.reset().unwrap();
    for _ in 0..want.len().min(5) {
        s.next_edge().unwrap();
    }
    assert_eq!(chunked(s), want, "{what}: after an early reset");
    s.reset().unwrap();
    let (mut scratch, mut seen) = (Vec::new(), 0);
    while seen < want.len() * 2 / 3 {
        let run = s.next_chunk(&mut scratch).unwrap().len();
        assert!(run > 0, "{what}: pass ended after {seen} edges");
        seen += run;
    }
    s.next_edge().unwrap();
    assert_eq!(chunked(s), want, "{what}: after a late reset");
    for lead in [0, 1, 7] {
        assert_eq!(
            interleaved(s, lead),
            want,
            "{what}: interleaved from {lead}"
        );
    }
    assert_eq!(per_edge(s), want, "{what}: per-edge order again");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// {v1, v2} × {buffered, mmap, prefetch} × {whole file, a range that
    /// starts and ends inside a v2 chunk (and, when the file is long enough,
    /// spans several v1 blocks), the empty range}.
    #[test]
    fn chunk_runs_concatenate_to_the_per_edge_sequence(
        n in 0usize..(3 * CHUNK_EDGES),
        seed in 0u32..1000,
        v2_chunk in 2u32..6000,
        cut in (0u32..1000, 0u32..1000),
    ) {
        let edges: Vec<Edge> = (0..n as u32)
            .map(|i| Edge::new(i.wrapping_mul(2_654_435_761).wrapping_add(seed) % 50_000, (i ^ seed) % 50_000))
            .collect();
        let v1 = tmp("prop", "bel");
        let v2 = tmp("prop", "bel2");
        write_binary_edge_list(&v1, 50_000, edges.iter().copied()).unwrap();
        write_v2_edge_list(&v2, 50_000, edges.iter().copied(), v2_chunk).unwrap();

        let (a, b) = (n * cut.0.min(cut.1) as usize / 1000, n * cut.0.max(cut.1) as usize / 1000);
        // Nudge the range ends off v2 chunk boundaries where there is room.
        let inside = |x: usize| x + usize::from(x.is_multiple_of(v2_chunk as usize) && x + 1 < n);
        let (a, b) = (inside(a), inside(b).max(inside(a)));
        for path in [&v1, &v2] {
            for backend in ReaderBackend::ALL {
                let what = format!("{path:?} {backend:?}");
                let mut whole = open_edge_stream(path, backend).unwrap();
                check_stream(&mut *whole, &edges, &what);
                drop(whole);
                let source = open_ranged_backend(path, backend).unwrap();
                for (lo, hi) in [(0, n), (a, b), (a, a), (n, n)] {
                    let mut s = source.open_range(lo as u64, hi as u64).unwrap();
                    check_stream(&mut *s, &edges[lo..hi], &format!("{what} [{lo}, {hi})"));
                }
            }
        }
        std::fs::remove_file(&v1).ok();
        std::fs::remove_file(&v2).ok();
    }
}

/// An in-memory stream that counts how it is read.
struct CountingStream {
    inner: InMemoryGraph,
    calls: Arc<Calls>,
}

#[derive(Default)]
struct Calls {
    edge: AtomicU64,
    chunk: AtomicU64,
}

impl EdgeStream for CountingStream {
    fn reset(&mut self) -> io::Result<()> {
        self.inner.reset()
    }
    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        self.calls.edge.fetch_add(1, Ordering::Relaxed);
        self.inner.next_edge()
    }
    fn next_chunk<'a>(&'a mut self, scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        self.calls.chunk.fetch_add(1, Ordering::Relaxed);
        self.inner.next_chunk(scratch)
    }
    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
    fn num_vertices_hint(&self) -> Option<u64> {
        self.inner.num_vertices_hint()
    }
}

fn graph(n: u32) -> InMemoryGraph {
    InMemoryGraph::from_edges(
        (0..n)
            .map(|i| Edge::new(i % 997, (i * 31 + 7) % 4096))
            .collect(),
    )
}

/// Chunks of a pass over `n` edges, counting the empty one that ends it.
fn chunk_calls(n: usize) -> u64 {
    n.div_ceil(CHUNK_EDGES) as u64 + 1
}

#[test]
fn wrappers_forward_the_bulk_read() {
    let n = 2 * CHUNK_EDGES + 100;
    let g = graph(n as u32);
    let counting = || {
        let calls = Arc::new(Calls::default());
        let stream = CountingStream {
            inner: g.stream(),
            calls: calls.clone(),
        };
        (stream, calls)
    };
    let drain = |s: &mut dyn EdgeStream| {
        let mut seen = Vec::new();
        for_each_chunk(s, |run| {
            seen.extend_from_slice(run);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, g.edges());
    };
    let assert_bulk_only = |calls: &Calls, what: &str| {
        assert_eq!(
            calls.chunk.load(Ordering::Relaxed),
            chunk_calls(n),
            "{what}"
        );
        assert_eq!(calls.edge.load(Ordering::Relaxed), 0, "{what}");
    };

    let (stream, calls) = counting();
    let mut boxed: Box<dyn EdgeStream> = Box::new(stream);
    drain(&mut boxed);
    assert_bulk_only(&calls, "Box<dyn EdgeStream>");

    let (mut stream, calls) = counting();
    let mut by_ref = &mut stream;
    drain(&mut by_ref);
    assert_bulk_only(&calls, "&mut S");

    // `DeviceStream` forwards it too, and its virtual clock reads the same
    // whichever way the pass was read (5.3 B/edge: a compressed stream).
    let (stream, calls) = counting();
    let mut device = DeviceStream::with_record_bytes(stream, DeviceModel::hdd(), 5.3);
    drain(&mut device);
    assert_bulk_only(&calls, "DeviceStream");
    let mut per_edge_device = DeviceStream::with_record_bytes(g.stream(), DeviceModel::hdd(), 5.3);
    assert_eq!(per_edge(&mut per_edge_device), g.edges());
    assert_eq!(device.account(), per_edge_device.account());
    assert_eq!(device.account().passes, 1);
    assert_eq!(device.account().bytes, (n as f64 * 5.3).round() as u64);
}

/// A sink that counts how it is fed.
#[derive(Default)]
struct BatchCountingSink {
    got: Vec<(Edge, PartitionId)>,
    singles: u64,
    batches: u64,
}

impl AssignmentSink for BatchCountingSink {
    fn assign(&mut self, edge: Edge, p: PartitionId) -> io::Result<()> {
        self.singles += 1;
        self.got.push((edge, p));
        Ok(())
    }
    fn assign_batch(&mut self, batch: &[(Edge, PartitionId)]) -> io::Result<()> {
        assert!(batch.len() <= SINK_BATCH, "a run longer than a batch");
        self.batches += 1;
        self.got.extend_from_slice(batch);
        Ok(())
    }
}

#[test]
fn tee_and_replay_forward_batches() {
    let n = 2 * SINK_BATCH + 123;
    let assignments: Vec<(Edge, PartitionId)> = graph(n as u32)
        .edges()
        .iter()
        .enumerate()
        .map(|(i, &e)| (e, i as u32 % 7))
        .collect();

    let (mut a, mut b) = (BatchCountingSink::default(), BatchCountingSink::default());
    TeeSink::new(&mut a, &mut b)
        .assign_batch(&assignments[..100])
        .unwrap();
    for sink in [&a, &b] {
        assert_eq!((sink.batches, sink.singles), (1, 0));
        assert_eq!(sink.got, &assignments[..100]);
    }

    // An in-memory spool and one that spilled most of its records replay
    // the same runs: one sink call per run, none per edge.
    let spill_path = tmp("replay", "spool");
    let mut spools: [Box<dyn AssignmentSpool>; 2] = [
        Box::new(VecSpool::new()),
        Box::new(SpillSpool::create(spill_path.clone(), 12 * 1000)),
    ];
    for spool in &mut spools {
        // Fed both ways, as a worker's passes feed it.
        spool.assign_batch(&assignments[..n / 2]).unwrap();
        for &(e, p) in &assignments[n / 2..] {
            spool.assign(e, p).unwrap();
        }
        let mut sink = BatchCountingSink::default();
        spool.replay(&mut sink).unwrap();
        assert_eq!(sink.got, assignments);
        assert_eq!(sink.singles, 0);
        assert!(
            sink.batches <= (n.div_ceil(SINK_BATCH) + 1) as u64,
            "{} sink calls for {n} records",
            sink.batches
        );
        // Replay consumed the spool.
        let mut again = BatchCountingSink::default();
        spool.replay(&mut again).unwrap();
        assert!(again.got.is_empty());
    }
    assert!(!spill_path.exists(), "replay removes the run file");
}

/// A ranged source handing out counting streams.
struct CountingSource {
    graph: InMemoryGraph,
    calls: Arc<Calls>,
}

impl RangedEdgeSource for CountingSource {
    fn info(&self) -> GraphInfo {
        self.graph.info()
    }
    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        let edges = self.graph.edges()[start as usize..end as usize].to_vec();
        Ok(Box::new(CountingStream {
            inner: InMemoryGraph::with_num_vertices(edges, self.graph.num_vertices()),
            calls: self.calls.clone(),
        }))
    }
}

/// The acceptance criterion itself: a whole run — serial, and two workers
/// with their replay — reads its input and feeds its sink through the bulk
/// calls only, and emits what a per-edge sink collects.
#[test]
fn the_engine_makes_no_per_edge_call() {
    let g = tps_graph::gen::gnm::generate(3_000, 2 * CHUNK_EDGES as u64 + 500, 11);
    let n = g.num_edges() as usize;
    let params = PartitionParams::new(8);

    let mut reference = VecSink::new();
    TwoPhasePartitioner::new(TwoPhaseConfig::default())
        .partition(&mut g.stream(), &params, &mut reference)
        .unwrap();

    let calls = Arc::new(Calls::default());
    let mut stream = CountingStream {
        inner: g.stream(),
        calls: calls.clone(),
    };
    let mut sink = BatchCountingSink::default();
    TwoPhasePartitioner::new(TwoPhaseConfig::default())
        .partition(&mut stream, &params, &mut sink)
        .unwrap();
    assert_eq!(sink.got, reference.assignments());
    assert_eq!(sink.singles, 0);
    assert_eq!(calls.edge.load(Ordering::Relaxed), 0);
    // Degree, clustering, pre-partitioning, scoring.
    assert_eq!(calls.chunk.load(Ordering::Relaxed), 4 * chunk_calls(n));

    let source = CountingSource {
        graph: g.stream(),
        calls: Arc::new(Calls::default()),
    };
    let mut sink = BatchCountingSink::default();
    JobSpec::ranged(&source)
        .k(8)
        .threads(ThreadMode::Count(2))
        .extra_sink(&mut sink)
        .run()
        .unwrap();
    assert_eq!(sink.got.len(), n);
    assert_eq!(sink.singles, 0);
    assert_eq!(source.calls.edge.load(Ordering::Relaxed), 0);
    assert_eq!(
        source.calls.chunk.load(Ordering::Relaxed),
        4 * 2 * chunk_calls(n / 2)
    );

    // And `for_each_edge` is the same pass.
    let mut seen = 0;
    for_each_edge(&mut stream, |_| seen += 1).unwrap();
    assert_eq!(seen, n);
    assert_eq!(calls.edge.load(Ordering::Relaxed), 0);
}
