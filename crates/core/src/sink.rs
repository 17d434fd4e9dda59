//! Assignment sinks: consumers of `(edge, partition)` decisions.
//!
//! A streaming partitioner *decides* each edge immediately and never
//! revisits it ("each edge ... is immediately assigned to a partition", paper
//! §II-B); the decisions *move* in batches. The pass loops collect them in a
//! bounded [`SinkBatch`] — at most [`SINK_BATCH`] records — and hand the sink
//! whole runs through [`AssignmentSink::assign_batch`], once per input chunk
//! and before the pass returns, so a sink error fails the pass it occurred
//! in. A sink sees every assignment exactly once, in decision order, whether
//! it arrives through `assign` or `assign_batch`. A pass loop is generic over
//! *where* its decisions go ([`DecisionOut`]): a one-shard run — serial,
//! paged or `--threads 1` — writes through a [`SinkBatch`]; each shard of a
//! `--threads N` or distributed run writes one tag per stream position into
//! a [`DecisionLog`] and the emit step re-reads the shard's range to turn
//! the tags back into records. Sinks
//! provided here:
//!
//! * [`NullSink`] — discard (pure timing runs).
//! * [`CountingSink`] — per-partition edge counts only.
//! * [`QualitySink`] — quality metrics recounted from the assignments via
//!   [`tps_metrics::QualityTracker`]: the reference the 2PS-L engines' own
//!   report is tested against, and the measuring sink for partitioners that
//!   hold no replica state. It owns a second `|V|·k`-bit matrix, so a 2PS-L
//!   job does not run behind one (see [`crate::job`]).
//! * [`VecSink`] — collect pairs in memory (tests, the processing simulator).
//! * [`FileSink`] — write per-partition binary edge lists (the materialised
//!   out-of-core output, what the paper's tool writes back to storage; the
//!   one partition writer of `tps partition` and `tps dist coordinator` in
//!   every mode).
//! * [`TeeSink`] — duplicate into two sinks (a measuring sink in front of
//!   the caller's; not on a 2PS-L job's path in release builds).

use std::io;

use tps_graph::formats::binary::PartitionFileWriter;
use tps_graph::stream::{for_each_chunk, EdgeStream};
use tps_graph::types::{Edge, PartitionId};
use tps_metrics::quality::{PartitionMetrics, QualityTracker};

/// Receives each edge assignment exactly once, in the order decided.
pub trait AssignmentSink {
    /// Record that `edge` belongs to partition `p`.
    fn assign(&mut self, edge: Edge, p: PartitionId) -> io::Result<()>;

    /// Record a run of assignments, in order — what the engine calls. The
    /// default loops over [`assign`](AssignmentSink::assign) and stops at
    /// the first error; sinks with a cheaper bulk form override it.
    fn assign_batch(&mut self, batch: &[(Edge, PartitionId)]) -> io::Result<()> {
        batch.iter().try_for_each(|&(edge, p)| self.assign(edge, p))
    }
}

/// Records a [`SinkBatch`] holds before it must be flushed (96 KiB).
pub const SINK_BATCH: usize = 1 << 13;

/// Where a phase-2 pass loop puts its decisions. The driver
/// ([`decision_pass`]) walks a cursor over the input edges — `begin_run`,
/// then one kernel call and one `advance` per edge, then `flush` — and the
/// kernel calls [`decide`](DecisionOut::decide) at most once per edge.
pub trait DecisionOut {
    /// A run of `n` input edges begins; the cursor is on its first edge.
    fn begin_run(&mut self, _n: usize) -> io::Result<()> {
        Ok(())
    }

    /// The edge under the cursor goes to partition `p`.
    fn decide(&mut self, edge: Edge, p: PartitionId);

    /// Move the cursor to the next input edge.
    fn advance(&mut self) {}

    /// Whether an earlier pass decided the edge under the cursor; `None`
    /// when this out keeps no record of it and the kernel must recompute.
    fn decided_earlier(&self) -> Option<bool> {
        None
    }

    /// The run is over: hand its decisions on.
    fn flush(&mut self) -> io::Result<()>;
}

/// The bounded out-buffer between a pass loop's per-edge kernel and its
/// sink: `push` is an inlined store, `flush` one `assign_batch` call.
///
/// The buffer does not flush itself: the pass loop ([`batched_pass`]) feeds
/// it at most [`SINK_BATCH`] input edges between flushes — each yields at
/// most one assignment — and flushes before it returns.
pub struct SinkBatch<'s, K: AssignmentSink + ?Sized> {
    sink: &'s mut K,
    buf: Vec<(Edge, PartitionId)>,
}

impl<'s, K: AssignmentSink + ?Sized> SinkBatch<'s, K> {
    /// An empty batch in front of `sink`.
    pub fn new(sink: &'s mut K) -> Self {
        SinkBatch {
            sink,
            buf: Vec::with_capacity(SINK_BATCH),
        }
    }

    /// Buffer one assignment.
    #[inline]
    pub fn push(&mut self, edge: Edge, p: PartitionId) {
        debug_assert!(self.buf.len() < SINK_BATCH, "pass loop skipped a flush");
        self.buf.push((edge, p));
    }

    /// [`push`](SinkBatch::push) for a producer that emits at its own pace
    /// rather than at most once per input edge (a windowed baseline): a full
    /// batch is flushed first.
    #[inline]
    pub fn push_flushing(&mut self, edge: Edge, p: PartitionId) -> io::Result<()> {
        if self.buf.len() == SINK_BATCH {
            self.flush()?;
        }
        self.buf.push((edge, p));
        Ok(())
    }

    /// Hand everything buffered to the sink, in order.
    pub fn flush(&mut self) -> io::Result<()> {
        let result = self.sink.assign_batch(&self.buf);
        self.buf.clear();
        result
    }
}

impl<K: AssignmentSink + ?Sized> DecisionOut for SinkBatch<'_, K> {
    #[inline]
    fn decide(&mut self, edge: Edge, p: PartitionId) {
        self.push(edge, p);
    }

    fn flush(&mut self) -> io::Result<()> {
        SinkBatch::flush(self)
    }
}

/// Hand `assignments` to `sink` in order, in runs of at most [`SINK_BATCH`]
/// — short enough that the second sink of a tee finds the run in cache.
pub fn assign_in_runs<K: AssignmentSink + ?Sized>(
    sink: &mut K,
    assignments: &[(Edge, PartitionId)],
) -> io::Result<()> {
    assignments
        .chunks(SINK_BATCH)
        .try_for_each(|run| sink.assign_batch(run))
}

/// One complete pass of a deciding kernel: reset `stream`, run `kernel` on
/// every edge in order, and flush `out` after every [`SINK_BATCH`] input
/// edges and at the end of every chunk — so nothing is buffered when the
/// pass returns, and the first out or stream error ends it.
pub fn decision_pass<S, O, F>(stream: &mut S, out: &mut O, mut kernel: F) -> io::Result<()>
where
    S: EdgeStream + ?Sized,
    O: DecisionOut,
    F: FnMut(Edge, &mut O),
{
    for_each_chunk(stream, |chunk| {
        for run in chunk.chunks(SINK_BATCH) {
            out.begin_run(run.len())?;
            for &edge in run {
                kernel(edge, out);
                out.advance();
            }
            out.flush()?;
        }
        Ok(())
    })
}

/// [`decision_pass`] with a [`SinkBatch`] in front of `sink`.
pub fn batched_pass<S, K, F>(stream: &mut S, sink: &mut K, kernel: F) -> io::Result<()>
where
    S: EdgeStream + ?Sized,
    K: AssignmentSink + ?Sized,
    F: FnMut(Edge, &mut SinkBatch<'_, K>),
{
    decision_pass(stream, &mut SinkBatch::new(sink), kernel)
}

/// Discards assignments.
#[derive(Default, Clone, Copy, Debug)]
pub struct NullSink;

impl AssignmentSink for NullSink {
    #[inline]
    fn assign(&mut self, _edge: Edge, _p: PartitionId) -> io::Result<()> {
        Ok(())
    }
}

/// Counts edges per partition.
#[derive(Clone, Debug)]
pub struct CountingSink {
    counts: Vec<u64>,
}

impl CountingSink {
    /// A counting sink for `k` partitions.
    pub fn new(k: u32) -> Self {
        CountingSink {
            counts: vec![0; k as usize],
        }
    }

    /// Per-partition edge counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total edges recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl AssignmentSink for CountingSink {
    #[inline]
    fn assign(&mut self, _edge: Edge, p: PartitionId) -> io::Result<()> {
        self.counts[p as usize] += 1;
        Ok(())
    }
}

/// Recounts partition quality (replication factor, balance) from the
/// assignments it is handed, independently of the partitioner's state.
#[derive(Clone, Debug)]
pub struct QualitySink {
    tracker: QualityTracker,
}

impl QualitySink {
    /// A quality sink for a graph with `num_vertices` vertices and `k`
    /// partitions.
    pub fn new(num_vertices: u64, k: u32) -> Self {
        QualitySink {
            tracker: QualityTracker::new(num_vertices, k),
        }
    }

    /// Finalise the metrics.
    pub fn finish(&self) -> PartitionMetrics {
        self.tracker.finish()
    }

    /// Borrow the underlying tracker.
    pub fn tracker(&self) -> &QualityTracker {
        &self.tracker
    }
}

impl AssignmentSink for QualitySink {
    #[inline]
    fn assign(&mut self, edge: Edge, p: PartitionId) -> io::Result<()> {
        self.tracker.record(edge, p);
        Ok(())
    }
}

/// Collects `(edge, partition)` pairs in memory.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    assignments: Vec<(Edge, PartitionId)>,
}

impl VecSink {
    /// Empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The recorded assignments in decision order.
    pub fn assignments(&self) -> &[(Edge, PartitionId)] {
        &self.assignments
    }

    /// Consume into the assignment vector.
    pub fn into_assignments(self) -> Vec<(Edge, PartitionId)> {
        self.assignments
    }
}

impl AssignmentSink for VecSink {
    #[inline]
    fn assign(&mut self, edge: Edge, p: PartitionId) -> io::Result<()> {
        self.assignments.push((edge, p));
        Ok(())
    }

    fn assign_batch(&mut self, batch: &[(Edge, PartitionId)]) -> io::Result<()> {
        self.assignments.extend_from_slice(batch);
        Ok(())
    }
}

/// Writes per-partition binary edge-list files.
pub struct FileSink {
    writer: Option<PartitionFileWriter>,
}

impl FileSink {
    /// Create `k` partition files named `<stem>.part<i>.bel` in `dir`.
    pub fn create(
        dir: &std::path::Path,
        stem: &str,
        k: u32,
        num_vertices: u64,
    ) -> io::Result<Self> {
        Ok(FileSink {
            writer: Some(PartitionFileWriter::create(dir, stem, k, num_vertices)?),
        })
    }

    /// Flush headers and return `(path, edge_count)` per partition.
    pub fn finish(mut self) -> io::Result<Vec<(std::path::PathBuf, u64)>> {
        self.writer.take().expect("finish called twice").finish()
    }
}

impl AssignmentSink for FileSink {
    #[inline]
    fn assign(&mut self, edge: Edge, p: PartitionId) -> io::Result<()> {
        self.writer
            .as_mut()
            .expect("sink already finished")
            .write(edge, p)
    }

    fn assign_batch(&mut self, batch: &[(Edge, PartitionId)]) -> io::Result<()> {
        self.writer
            .as_mut()
            .expect("sink already finished")
            .write_batch(batch)
    }
}

/// One tag per stream position of a shard: the partition the edge went to
/// and whether the pre-partitioning pass (2a) or the scoring pass (2b)
/// decided it, in the narrowest of `u8` / `u16` / `u32` that holds `2k − 1`
/// — 1 B per edge up to k = 128, 2 B up to k = 32 768.
///
/// This is what a shard of a `--threads N` or distributed run remembers
/// until the emit barrier; it replaced `VecSpool`, which remembered the
/// edges as well (12 B per edge). The edges are in the input:
/// [`emit`](DecisionLog::emit) re-reads the shard's range and hands the sink
/// the 2a records and then the 2b records, each in stream order — the order
/// the two passes decided them in.
pub struct DecisionLog {
    tags: Tags,
    /// Positions the pre-partitioning pass decided.
    prepartitioned: u64,
}

/// `partition << 1 | decided_in_2a`, per stream position.
enum Tags {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

/// The phase-2 subpass a [`LogPass`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subpass {
    /// Pass 2a: every decision sets the tag's flag.
    Prepartition,
    /// Pass 2b: decides exactly the positions whose flag is clear.
    Remaining,
}

static CORE_DECISION_LOG_BYTES: tps_obs::Counter = tps_obs::Counter::new("core.decision_log.bytes");
static CORE_EMIT_RESTREAMED_EDGES: tps_obs::Counter =
    tps_obs::Counter::new("core.emit.restreamed_edges");

impl Tags {
    fn len(&self) -> usize {
        match self {
            Tags::U8(t) => t.len(),
            Tags::U16(t) => t.len(),
            Tags::U32(t) => t.len(),
        }
    }

    /// Replace `window` with the tags of positions `at..at + n`, widened.
    fn load(&self, at: usize, n: usize, window: &mut Vec<u32>) {
        window.clear();
        match self {
            Tags::U8(t) => window.extend(t[at..at + n].iter().map(|&tag| u32::from(tag))),
            Tags::U16(t) => window.extend(t[at..at + n].iter().map(|&tag| u32::from(tag))),
            Tags::U32(t) => window.extend_from_slice(&t[at..at + n]),
        }
    }

    /// Write `window` back over positions `at..at + window.len()`. The
    /// narrowing casts are exact: the width was chosen to hold every tag.
    fn store(&mut self, at: usize, window: &[u32]) {
        match self {
            Tags::U8(t) => {
                for (tag, &w) in t[at..at + window.len()].iter_mut().zip(window) {
                    *tag = w as u8;
                }
            }
            Tags::U16(t) => {
                for (tag, &w) in t[at..at + window.len()].iter_mut().zip(window) {
                    *tag = w as u16;
                }
            }
            Tags::U32(t) => t[at..at + window.len()].copy_from_slice(window),
        }
    }
}

fn range_mismatch(kind: io::ErrorKind, got: usize, want: usize) -> io::Error {
    io::Error::new(
        kind,
        format!("a pass over the shard's range read {got} edges, the range holds {want}"),
    )
}

impl DecisionLog {
    /// A log for a shard of `edges` stream positions and `k` partitions,
    /// every position undecided. The tags are zeroed pages until a pass
    /// writes them. Errors for a `k` above 2³¹ (a tag is a partition id and
    /// one flag in 32 bits) or a shard longer than the address space.
    pub fn new(edges: u64, k: u32) -> io::Result<DecisionLog> {
        let n = match usize::try_from(edges) {
            Ok(n) if k <= 1 << 31 => n,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("no decision log for {edges} edges into {k} partitions"),
                ))
            }
        };
        let max_tag = (u64::from(k) << 1).saturating_sub(1);
        let tags = if max_tag <= u64::from(u8::MAX) {
            Tags::U8(vec![0; n])
        } else if max_tag <= u64::from(u16::MAX) {
            Tags::U16(vec![0; n])
        } else {
            Tags::U32(vec![0; n])
        };
        let log = DecisionLog {
            tags,
            prepartitioned: 0,
        };
        CORE_DECISION_LOG_BYTES.add(log.heap_bytes() as u64);
        Ok(log)
    }

    /// Stream positions the log covers.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the shard's range is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes of the tags (1, 2 or 4 per position).
    pub fn heap_bytes(&self) -> usize {
        match &self.tags {
            Tags::U8(t) => t.len(),
            Tags::U16(t) => t.len() * 2,
            Tags::U32(t) => t.len() * 4,
        }
    }

    /// The [`DecisionOut`] of one pass over the shard's range. Drive it with
    /// a pass loop, then call [`LogPass::finish`].
    pub fn pass(&mut self, subpass: Subpass) -> LogPass<'_> {
        LogPass {
            log: self,
            flag: u32::from(subpass == Subpass::Prepartition),
            base: 0,
            window: Vec::with_capacity(SINK_BATCH),
            at: 0,
            decided: 0,
        }
    }

    /// Turn the tags back into records: read `stream` — the shard's own
    /// range, again — once per subpass that decided anything, and hand
    /// `sink` the 2a records and then the 2b records, in runs of
    /// [`SINK_BATCH`]. Errors if the stream no longer yields the range's
    /// edge count.
    pub fn emit(
        &self,
        stream: &mut dyn EdgeStream,
        sink: &mut dyn AssignmentSink,
    ) -> io::Result<()> {
        let len = self.len();
        let mut batch: Vec<(Edge, PartitionId)> = Vec::with_capacity(SINK_BATCH.min(len));
        let mut window = Vec::new();
        for (flag, wanted) in [
            (1, self.prepartitioned),
            (0, len as u64 - self.prepartitioned),
        ] {
            if wanted == 0 {
                continue;
            }
            let mut at = 0usize;
            for_each_chunk(stream, |chunk| {
                if chunk.len() > len - at {
                    return Err(range_mismatch(
                        io::ErrorKind::InvalidData,
                        at + chunk.len(),
                        len,
                    ));
                }
                self.tags.load(at, chunk.len(), &mut window);
                at += chunk.len();
                for (&edge, &tag) in chunk.iter().zip(&window) {
                    if tag & 1 == flag {
                        batch.push((edge, tag >> 1));
                        if batch.len() == SINK_BATCH {
                            sink.assign_batch(&batch)?;
                            batch.clear();
                        }
                    }
                }
                Ok(())
            })?;
            CORE_EMIT_RESTREAMED_EDGES.add(at as u64);
            if at != len {
                return Err(range_mismatch(io::ErrorKind::UnexpectedEof, at, len));
            }
        }
        if batch.is_empty() {
            return Ok(());
        }
        sink.assign_batch(&batch)
    }
}

/// One pass's writer into a [`DecisionLog`]: a widened window of the
/// current run's tags, so the pass loop stores plain `u32`s whatever the
/// log's width.
pub struct LogPass<'l> {
    log: &'l mut DecisionLog,
    /// The tag bit this pass sets: 1 in 2a, 0 in 2b.
    flag: u32,
    /// Stream position of the window's first tag.
    base: usize,
    window: Vec<u32>,
    /// The cursor, within the window.
    at: usize,
    decided: u64,
}

impl LogPass<'_> {
    /// The pass is over: errors if it did not cover the whole range (a tag
    /// it skipped would emit as partition 0).
    pub fn finish(self) -> io::Result<()> {
        if self.base != self.log.len() {
            return Err(range_mismatch(
                io::ErrorKind::UnexpectedEof,
                self.base,
                self.log.len(),
            ));
        }
        if self.flag == 1 {
            self.log.prepartitioned = self.decided;
        }
        Ok(())
    }
}

impl DecisionOut for LogPass<'_> {
    fn begin_run(&mut self, n: usize) -> io::Result<()> {
        if n > self.log.len() - self.base {
            return Err(range_mismatch(
                io::ErrorKind::InvalidData,
                self.base + n,
                self.log.len(),
            ));
        }
        self.log.tags.load(self.base, n, &mut self.window);
        self.at = 0;
        Ok(())
    }

    #[inline]
    fn decide(&mut self, _edge: Edge, p: PartitionId) {
        self.window[self.at] = p << 1 | self.flag;
        self.decided += 1;
    }

    #[inline]
    fn advance(&mut self) {
        self.at += 1;
    }

    #[inline]
    fn decided_earlier(&self) -> Option<bool> {
        Some(self.window[self.at] & 1 == 1)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.log.tags.store(self.base, &self.window);
        self.base += self.window.len();
        self.window.clear();
        Ok(())
    }
}

/// Duplicates assignments into two sinks (e.g. quality + files).
pub struct TeeSink<'a> {
    first: &'a mut dyn AssignmentSink,
    second: &'a mut dyn AssignmentSink,
}

impl<'a> TeeSink<'a> {
    /// Tee into `first` then `second`.
    pub fn new(first: &'a mut dyn AssignmentSink, second: &'a mut dyn AssignmentSink) -> Self {
        TeeSink { first, second }
    }
}

impl AssignmentSink for TeeSink<'_> {
    #[inline]
    fn assign(&mut self, edge: Edge, p: PartitionId) -> io::Result<()> {
        self.first.assign(edge, p)?;
        self.second.assign(edge, p)
    }

    fn assign_batch(&mut self, batch: &[(Edge, PartitionId)]) -> io::Result<()> {
        self.first.assign_batch(batch)?;
        self.second.assign_batch(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::new(3);
        s.assign(Edge::new(0, 1), 2).unwrap();
        s.assign(Edge::new(1, 2), 2).unwrap();
        s.assign(Edge::new(2, 3), 0).unwrap();
        assert_eq!(s.counts(), &[1, 0, 2]);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn vec_sink_preserves_order() {
        let mut s = VecSink::new();
        s.assign(Edge::new(0, 1), 1).unwrap();
        s.assign(Edge::new(1, 2), 0).unwrap();
        assert_eq!(
            s.into_assignments(),
            vec![(Edge::new(0, 1), 1), (Edge::new(1, 2), 0)]
        );
    }

    #[test]
    fn quality_sink_produces_metrics() {
        let mut s = QualitySink::new(3, 2);
        s.assign(Edge::new(0, 1), 0).unwrap();
        s.assign(Edge::new(1, 2), 1).unwrap();
        let m = s.finish();
        assert_eq!(m.num_edges, 2);
        assert!((m.replication_factor - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tee_sink_duplicates() {
        let mut a = CountingSink::new(2);
        let mut b = VecSink::new();
        {
            let mut tee = TeeSink::new(&mut a, &mut b);
            tee.assign(Edge::new(0, 1), 1).unwrap();
        }
        assert_eq!(a.total(), 1);
        assert_eq!(b.assignments().len(), 1);
    }

    #[test]
    fn file_sink_round_trip() {
        let dir = std::env::temp_dir().join(format!("tps-filesink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = FileSink::create(&dir, "t", 2, 4).unwrap();
        s.assign(Edge::new(0, 1), 0).unwrap();
        s.assign(Edge::new(2, 3), 1).unwrap();
        let parts = s.finish().unwrap();
        assert_eq!(parts[0].1, 1);
        assert_eq!(parts[1].1, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two hand-written passes over `n` edges: 2a decides every third
    /// position, 2b the rest (asking the log which those are).
    fn logged(n: u32, k: u32) -> (tps_graph::stream::InMemoryGraph, DecisionLog) {
        let g = tps_graph::stream::InMemoryGraph::from_edges(
            (0..n).map(|i| Edge::new(i, i + 1)).collect(),
        );
        let mut log = DecisionLog::new(u64::from(n), k).unwrap();
        let mut pass = log.pass(Subpass::Prepartition);
        decision_pass(&mut g.stream(), &mut pass, |e, out| {
            if e.src % 3 == 0 {
                out.decide(e, e.src % k);
            }
        })
        .unwrap();
        pass.finish().unwrap();
        let mut pass = log.pass(Subpass::Remaining);
        decision_pass(&mut g.stream(), &mut pass, |e, out| {
            let earlier = out.decided_earlier().expect("the log knows");
            assert_eq!(earlier, e.src % 3 == 0);
            if !earlier {
                out.decide(e, (e.src + 1) % k);
            }
        })
        .unwrap();
        pass.finish().unwrap();
        (g, log)
    }

    #[test]
    fn decision_log_emits_the_2a_records_then_the_2b_records() {
        let n = 2 * SINK_BATCH as u32 + 77;
        for (k, bytes_per_tag) in [
            (1u32, 1usize),
            (128, 1),
            (129, 2),
            (32_768, 2),
            (32_769, 4),
            (1 << 31, 4),
        ] {
            let (g, log) = logged(n, k);
            assert_eq!(log.heap_bytes(), n as usize * bytes_per_tag, "k = {k}");
            let mut sink = VecSink::new();
            log.emit(&mut g.stream(), &mut sink).unwrap();
            let first = (0..n).filter(|i| i % 3 == 0).map(|i| (i, i % k));
            let second = (0..n).filter(|i| i % 3 != 0).map(|i| (i, (i + 1) % k));
            let want: Vec<_> = first
                .chain(second)
                .map(|(i, p)| (Edge::new(i, i + 1), p))
                .collect();
            assert_eq!(sink.assignments(), want, "k = {k}");
        }
    }

    #[test]
    fn decision_log_refuses_a_range_that_changed_length() {
        let (g, log) = logged(100, 8);
        let stream_of =
            |n: usize| tps_graph::stream::InMemoryGraph::from_edges(g.edges()[..n].to_vec());
        let mut longer = g.edges().to_vec();
        longer.push(Edge::new(7, 8));
        let mut longer = tps_graph::stream::InMemoryGraph::from_edges(longer);
        let err = log
            .emit(&mut stream_of(99), &mut VecSink::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        let err = log.emit(&mut longer, &mut VecSink::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        // A pass is held to the same length: too short fails `finish`, too
        // long fails the run that overflows.
        let mut log = DecisionLog::new(100, 8).unwrap();
        let mut pass = log.pass(Subpass::Prepartition);
        decision_pass(&mut stream_of(99), &mut pass, |_, _| {}).unwrap();
        assert_eq!(
            pass.finish().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        let mut pass = log.pass(Subpass::Remaining);
        let err = decision_pass(&mut longer, &mut pass, |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        // An empty shard emits nothing and reads nothing.
        let log = DecisionLog::new(0, 8).unwrap();
        assert!(log.is_empty());
        assert!(DecisionLog::new(1, (1 << 31) + 1).is_err());
        let mut sink = VecSink::new();
        log.emit(&mut stream_of(0), &mut sink).unwrap();
        assert!(sink.assignments().is_empty());
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut s = NullSink;
        for i in 0..10 {
            s.assign(Edge::new(i, i + 1), 0).unwrap();
        }
    }
}
