//! Chunked ≡ per-edge: the bulk read (`EdgeStream::next_chunk`) and the
//! batched sink call (`AssignmentSink::assign_batch`) move the same edges in
//! the same order as the per-edge primitives they sit on — for every format
//! and range shape — and every wrapper forwards them, so the
//! engine's pass loops make one call per chunk, never one per edge. A v2
//! ranged source decodes a range once: later opens read the range it
//! spilled.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use tps_core::job::{JobSpec, ThreadMode};
use tps_core::partitioner::{PartitionParams, Partitioner};
use tps_core::sink::{
    decision_pass, AssignmentSink, DecisionLog, DecisionOut, EmitPlan, Subpass, TeeSink, VecSink,
    SINK_BATCH,
};
use tps_core::two_phase::{TwoPhaseConfig, TwoPhasePartitioner};
use tps_graph::formats::binary::write_binary_edge_list;
use tps_graph::ranged::RangedEdgeSource;
use tps_graph::stream::{for_each_chunk, for_each_edge, EdgeStream, InMemoryGraph, CHUNK_EDGES};
use tps_graph::types::{Edge, GraphInfo, PartitionId};
use tps_io::{
    open_edge_stream, open_ranged, write_v2_edge_list, RangedFile, ReaderBackend, RetainingSource,
};
use tps_storage::{DeviceModel, DeviceStream};

/// The `io.v2.*` counters are process-wide: every test here that decodes
/// a v2 file or reads a counter holds this.
static V2_GLOBALS: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> u64 {
    tps_obs::counters_snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

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

    /// {v1, v2} × {whole file, a range that
    /// starts and ends inside a v2 chunk (and, when the file is long enough,
    /// spans several v1 blocks), the empty range}.
    #[test]
    fn chunk_runs_concatenate_to_the_per_edge_sequence(
        n in 0usize..(3 * CHUNK_EDGES),
        seed in 0u32..1000,
        v2_chunk in 2u32..6000,
        cut in (0u32..1000, 0u32..1000),
    ) {
        let _globals = V2_GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
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
            let what = format!("{path:?}");
            let mut whole = open_edge_stream(path, ReaderBackend::Buffered).unwrap();
            check_stream(&mut *whole, &edges, &what);
            drop(whole);
            let source = open_ranged(path).unwrap();
            for (lo, hi) in [(0, n), (a, b), (a, a), (n, n)] {
                let mut s = source.open_range(lo as u64, hi as u64).unwrap();
                check_stream(&mut *s, &edges[lo..hi], &format!("{what} [{lo}, {hi})"));
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

    // A shard's decision log (pass 2a deciding the edges whose endpoints'
    // clusters share a partition, 2b the rest) hands over the same runs: one
    // sink call per run, none per edge. Vertex `v` is cluster `v`, placed on
    // `v % 7`.
    let g = graph(n as u32);
    let plan = tps_clustering::model::Clustering::from_parts((0..4096).collect(), vec![1; 4096])
        .freeze((0..4096).map(|c| c % 7).collect());
    let ends = |e: Edge| [e.src % 7, e.dst % 7];
    let in_2a = |e: Edge| e.src % 7 == e.dst % 7;
    let mut log = DecisionLog::new(n as u64, 7).unwrap();
    for subpass in [Subpass::Prepartition, Subpass::Remaining] {
        let mut pass = log.pass(subpass);
        let mut i = 0;
        decision_pass(&mut g.stream(), &mut pass, |e, out| {
            let mine = match subpass {
                Subpass::Prepartition => in_2a(e),
                Subpass::Remaining => !out.decided_earlier().expect("the log recorded 2a"),
            };
            if mine {
                out.decide(e, i as u32 % 7, ends(e));
            }
            i += 1;
        })
        .unwrap();
        pass.finish().unwrap();
    }
    let (first, second): (Vec<_>, Vec<_>) = assignments.iter().partition(|&&(e, _)| in_2a(e));
    let assignments = [first, second].concat();
    let few_runs = |sink: &BatchCountingSink| {
        assert_eq!(sink.got, assignments);
        assert_eq!(sink.singles, 0);
        assert!(
            sink.batches <= (n.div_ceil(SINK_BATCH) + 1) as u64,
            "{} sink calls for {n} records",
            sink.batches
        );
    };
    // Emitting reads the log, it does not consume it.
    for _ in 0..2 {
        let mut sink = BatchCountingSink::default();
        log.emit(&mut g.stream(), &EmitPlan::new(&plan, 7), &mut sink)
            .unwrap();
        few_runs(&sink);
    }
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
/// with their emit scans — reads its input and feeds its sink through the
/// bulk calls only, and emits what a per-edge sink collects.
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
    let outcome = JobSpec::ranged(&source)
        .k(8)
        .threads(ThreadMode::Count(2))
        .extra_sink(&mut sink)
        .run()
        .unwrap();
    assert_eq!(sink.got.len(), n);
    assert_eq!(sink.singles, 0);
    assert_eq!(source.calls.edge.load(Ordering::Relaxed), 0);
    // Per worker: degree, clustering, pre-partitioning and scoring; and
    // for the second, which logs its decisions (the first writes them as
    // it decides), one emit scan for each of the two subpasses' records.
    assert!(outcome.report.counter("prepartitioned") > 0);
    assert!(outcome.report.counter("remaining") > 0);
    assert_eq!(
        source.calls.chunk.load(Ordering::Relaxed),
        (4 * 2 + 2) * chunk_calls(n / 2)
    );

    // And `for_each_edge` is the same pass.
    let mut seen = 0;
    for_each_edge(&mut stream, |_| seen += 1).unwrap();
    assert_eq!(seen, n);
    assert_eq!(calls.edge.load(Ordering::Relaxed), 0);
}

/// The vertex count `v2_file` writes in its header.
const V2_FILE_VERTICES: u64 = 4096;

/// A v2 file of `n` edges in chunks of 700, and the edges.
fn v2_file(tag: &str, n: u32) -> (PathBuf, Vec<Edge>) {
    let edges = graph(n).edges().to_vec();
    let path = tmp(tag, "bel2");
    write_v2_edge_list(&path, V2_FILE_VERTICES, edges.iter().copied(), 700).unwrap();
    (path, edges)
}

/// The bytes a source spills for `span` edges of a `v2_file`: each edge
/// packed in 2w bits, w the bits of the header's largest id (4095: w = 12,
/// 24 bits), plus 8 pad bytes per range.
fn retained_bytes(span: u64) -> u64 {
    let w = u64::from(64 - (V2_FILE_VERTICES - 1).leading_zeros());
    (2 * w * span).div_ceil(8) + 8
}

/// Ranged v2 sources retain what they decode: for every range shape, the
/// second `open_range` lends the reference sequence out of the spill — no
/// chunk decoded — and only a *complete* first pass publishes anything.
#[test]
fn a_v2_range_is_decoded_once_per_source() {
    let _globals = V2_GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let (path, edges) = v2_file("retain", 5_000);
    let n = edges.len() as u64;
    // Whole file, a range that starts and ends inside a chunk, two
    // neighbours sharing a chunk, and the empty range.
    let ranges = [(0, n), (1_001, 3_456), (3_456, 4_000), (2_000, 2_000)];
    let source = open_ranged(&path).unwrap();
    let retained_before = counter("io.v2.ranges_retained");
    let bytes_before = counter("io.v2.retained_bytes");
    for (a, b) in ranges {
        let want = &edges[a as usize..b as usize];
        let what = format!("[{a}, {b})");

        // A pass abandoned half way publishes nothing: the next open
        // decodes again.
        let mut first = source.open_range(a, b).unwrap();
        first.reset().unwrap();
        for _ in 0..want.len() / 2 {
            first.next_edge().unwrap();
        }
        first.reset().unwrap();
        let decoded = counter("io.v2.chunks_decoded");
        assert_eq!(chunked(&mut *source.open_range(a, b).unwrap()), want);
        if a < b {
            assert!(counter("io.v2.chunks_decoded") > decoded, "{what}");
        }
        // The abandoned cursor still holds the range's claim; completing
        // its pass is what deposits the range …
        assert_eq!(chunked(&mut *first), want, "{what}: first pass");
        drop(first);

        // … and every later open is served from the spill, whichever way
        // it is read.
        let decoded = counter("io.v2.chunks_decoded");
        let mut second = source.open_range(a, b).unwrap();
        check_stream(&mut *second, want, &what);
        assert_eq!(counter("io.v2.chunks_decoded"), decoded, "{what}");
    }
    let nonempty = ranges.iter().filter(|(a, b)| a < b);
    assert_eq!(
        counter("io.v2.ranges_retained") - retained_before,
        nonempty.clone().count() as u64
    );
    assert_eq!(
        counter("io.v2.retained_bytes") - bytes_before,
        nonempty.map(|(a, b)| retained_bytes(b - a)).sum::<u64>()
    );
    std::fs::remove_file(&path).ok();
}

/// A v2 file opened through `RangedFile::read` alone is never retained:
/// every open of every range decodes its chunks again. A cursor dropped
/// before it completes a pass gives its claim back, so a later open of the
/// range spills it.
#[test]
fn an_unretained_source_decodes_every_open() {
    let _globals = V2_GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let (path, edges) = v2_file("unretained", 4_000);
    let halves = [(0u64, 2_000u64), (2_000, 4_000)];
    let decodes_on_reopen = |source: &dyn RangedEdgeSource| {
        let retained = counter("io.v2.ranges_retained");
        let mut decoding = 0;
        for (a, b) in halves {
            let want = &edges[a as usize..b as usize];
            assert_eq!(chunked(&mut *source.open_range(a, b).unwrap()), want);
            let decoded = counter("io.v2.chunks_decoded");
            assert_eq!(chunked(&mut *source.open_range(a, b).unwrap()), want);
            decoding += usize::from(counter("io.v2.chunks_decoded") > decoded);
        }
        (decoding, counter("io.v2.ranges_retained") - retained)
    };
    assert_eq!(decodes_on_reopen(&RangedFile::read(&path).unwrap()), (2, 0));
    assert_eq!(decodes_on_reopen(&*open_ranged(&path).unwrap()), (0, 2));

    let source = open_ranged(&path).unwrap();
    let mut abandoned = source.open_range(0, 2_000).unwrap();
    abandoned.next_edge().unwrap();
    drop(abandoned);
    let retained = counter("io.v2.ranges_retained");
    assert_eq!(
        chunked(&mut *source.open_range(0, 2_000).unwrap()),
        &edges[..2_000]
    );
    assert_eq!(counter("io.v2.ranges_retained"), retained + 1);
    let decoded = counter("io.v2.chunks_decoded");
    assert_eq!(
        chunked(&mut *source.open_range(0, 2_000).unwrap()),
        &edges[..2_000]
    );
    assert_eq!(counter("io.v2.chunks_decoded"), decoded);
    std::fs::remove_file(&path).ok();
}

/// A source whose spill directory cannot be written runs the same job to
/// the same assignments, in one shard or two, and retains nothing.
#[test]
fn a_spill_dir_that_cannot_be_written_changes_nothing_but_retention() {
    let _globals = V2_GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let (path, _) = v2_file("unwritable", 30_000);
    let run = |source: &dyn RangedEdgeSource, threads| {
        let mut sink = VecSink::new();
        JobSpec::ranged(source)
            .two_phase(TwoPhaseConfig::with_passes(2))
            .k(8)
            .threads(threads)
            .extra_sink(&mut sink)
            .run()
            .unwrap();
        sink.into_assignments()
    };
    for threads in [ThreadMode::Serial, ThreadMode::Count(2)] {
        let retained = counter("io.v2.ranges_retained");
        let spilled = run(&*open_ranged(&path).unwrap(), threads);
        assert!(counter("io.v2.ranges_retained") > retained, "{threads:?}");
        let retained = counter("io.v2.ranges_retained");
        // A directory below a regular file.
        let nowhere = RetainingSource::new(RangedFile::read(&path).unwrap(), path.join("spill"));
        assert_eq!(run(&nowhere, threads), spilled, "{threads:?}");
        assert_eq!(counter("io.v2.ranges_retained"), retained, "{threads:?}");
    }
    std::fs::remove_file(&path).ok();
}

/// A header that understates |V| is not trusted: a range holding an id the
/// header's |V| does not cover streams from the file, exactly, on every
/// pass, and is never retained; the other range is.
#[test]
fn a_range_with_ids_beyond_the_header_streams_from_the_file() {
    let _globals = V2_GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let mut edges = graph(4_000).edges().to_vec();
    // Past the 12 bits the header's 4096 vertices need.
    edges[1_500] = Edge::new(4_096, 7);
    edges[1_600] = Edge::new(3, u32::MAX);
    let path = tmp("liar", "bel2");
    write_v2_edge_list(&path, V2_FILE_VERTICES, edges.iter().copied(), 700).unwrap();
    let (liars, honest) = edges.split_at(2_000);
    let source = open_ranged(&path).unwrap();
    let retained = counter("io.v2.ranges_retained");
    let mut liar = source.open_range(0, 2_000).unwrap();
    liar.reset().unwrap();
    for want in &liars[..1_700] {
        assert_eq!(liar.next_edge().unwrap().as_ref(), Some(want));
    }
    assert_eq!(
        chunked(&mut *source.open_range(2_000, 4_000).unwrap()),
        honest
    );
    assert_eq!(counter("io.v2.ranges_retained"), retained + 1);

    let what = "liar";
    let decoded = counter("io.v2.chunks_decoded");
    check_stream(&mut *liar, liars, what);
    assert!(counter("io.v2.chunks_decoded") > decoded, "{what}");
    drop(liar);
    let decoded = counter("io.v2.chunks_decoded");
    check_stream(&mut *source.open_range(0, 2_000).unwrap(), liars, what);
    assert!(
        counter("io.v2.chunks_decoded") > decoded,
        "{what}: reopened"
    );
    assert_eq!(counter("io.v2.ranges_retained"), retained + 1, "{what}");
    std::fs::remove_file(&path).ok();
}

/// A ranged source whose cursors count the passes they start.
struct PassCountingSource {
    inner: Box<dyn RangedEdgeSource>,
    resets: AtomicU64,
}

struct PassCountingStream<'a> {
    inner: Box<dyn EdgeStream + 'a>,
    resets: &'a AtomicU64,
}

impl RangedEdgeSource for PassCountingSource {
    fn info(&self) -> GraphInfo {
        self.inner.info()
    }
    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        Ok(Box::new(PassCountingStream {
            inner: self.inner.open_range(start, end)?,
            resets: &self.resets,
        }))
    }
}

impl EdgeStream for PassCountingStream<'_> {
    fn reset(&mut self) -> io::Result<()> {
        self.resets.fetch_add(1, Ordering::Relaxed);
        self.inner.reset()
    }
    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        self.inner.next_edge()
    }
    fn next_chunk<'a>(&'a mut self, scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        self.inner.next_chunk(scratch)
    }
    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
    fn num_vertices_hint(&self) -> Option<u64> {
        self.inner.num_vertices_hint()
    }
}

/// A one-shard job over a file source streams the pipeline's passes —
/// degree, clustering × passes, pre-partitioning, scoring — and nothing
/// else: every cursor reports the header's vertex count,
/// so no discovery pass precedes the degree pass. Its assignments are the
/// in-memory graph's.
#[test]
fn a_one_shard_file_job_streams_only_the_pipeline_passes() {
    let _globals = V2_GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph(5_000);
    let v1 = tmp("passes", "bel");
    let v2 = tmp("passes", "bel2");
    write_binary_edge_list(&v1, g.num_vertices(), g.edges().iter().copied()).unwrap();
    write_v2_edge_list(&v2, g.num_vertices(), g.edges().iter().copied(), 700).unwrap();
    let config = TwoPhaseConfig::with_passes(2);
    let mut reference = VecSink::new();
    JobSpec::ranged(&g)
        .two_phase(config)
        .k(8)
        .threads(ThreadMode::Serial)
        .extra_sink(&mut reference)
        .run()
        .unwrap();
    for path in [&v1, &v2] {
        for threads in [ThreadMode::Serial, ThreadMode::Count(1)] {
            let what = format!("{path:?} {threads:?}");
            let source = PassCountingSource {
                inner: open_ranged(path).unwrap(),
                resets: AtomicU64::new(0),
            };
            let mut sink = VecSink::new();
            JobSpec::ranged(&source)
                .two_phase(config)
                .k(8)
                .threads(threads)
                .extra_sink(&mut sink)
                .run()
                .unwrap();
            let passes = 3 + config.clustering_passes as u64;
            assert_eq!(source.resets.load(Ordering::Relaxed), passes, "{what}");
            assert_eq!(sink.assignments(), reference.assignments(), "{what}");
        }
    }
    std::fs::remove_file(&v1).ok();
    std::fs::remove_file(&v2).ok();
}
