//! Assignment sinks: consumers of `(edge, partition)` decisions.
//!
//! A streaming partitioner *decides* each edge immediately and never
//! revisits it ("each edge ... is immediately assigned to a partition", paper
//! §II-B); the decisions *move* in batches. The pass loops collect them in a
//! bounded [`SinkBatch`] — at most [`SINK_BATCH`] records — and hand the sink
//! whole runs through [`AssignmentSink::assign_batch`], once per input chunk
//! and before the pass returns, so a sink error fails the pass it occurred
//! in. A sink sees every assignment exactly once, in decision order, whether
//! it arrives through `assign` or `assign_batch`. Sinks provided here:
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
//!   out-of-core output, what the paper's tool writes back to storage).
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
/// every edge in order with a [`SinkBatch`] in front of `sink`, and flush
/// after every [`SINK_BATCH`] input edges and at the end of every chunk —
/// so nothing is buffered when the pass returns, and the first sink or
/// stream error ends it.
pub fn batched_pass<S, K, F>(stream: &mut S, sink: &mut K, mut kernel: F) -> io::Result<()>
where
    S: EdgeStream + ?Sized,
    K: AssignmentSink + ?Sized,
    F: FnMut(Edge, &mut SinkBatch<'_, K>),
{
    let mut out = SinkBatch::new(sink);
    for_each_chunk(stream, |chunk| {
        for run in chunk.chunks(SINK_BATCH) {
            for &edge in run {
                kernel(edge, &mut out);
            }
            out.flush()?;
        }
        Ok(())
    })
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

/// A replayable per-worker assignment buffer ("run").
///
/// Parallel and distributed runners buffer each worker's decisions until the
/// emit barrier, then replay them in worker order so the output stream is
/// deterministic. A spool is that buffer: an [`AssignmentSink`] whose
/// contents can be drained back out in insertion order exactly once.
/// Implementations may hold everything in memory ([`VecSpool`]) or spill to
/// disk under a byte budget (`tps-io`'s `SpillSpool`).
pub trait AssignmentSpool: AssignmentSink + Send {
    /// Drain every buffered assignment into `sink` in insertion order,
    /// consuming the spool's contents. The sink is handed whole runs
    /// ([`AssignmentSink::assign_batch`]), not single edges.
    fn replay(&mut self, sink: &mut dyn AssignmentSink) -> io::Result<()>;
}

/// Creates one spool per worker (`tps-core`'s parallel runner and
/// `tps-dist`'s workers are both parameterised over this).
pub trait SpoolFactory: Sync {
    /// A fresh, empty spool for worker `worker`.
    fn create_spool(&self, worker: usize) -> io::Result<Box<dyn AssignmentSpool>>;
}

/// The default spool: an unbounded in-memory buffer.
#[derive(Clone, Debug, Default)]
pub struct VecSpool {
    buf: Vec<(Edge, PartitionId)>,
}

impl VecSpool {
    /// Empty spool.
    pub fn new() -> Self {
        VecSpool::default()
    }

    /// Buffered assignments (not yet replayed).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl AssignmentSink for VecSpool {
    #[inline]
    fn assign(&mut self, edge: Edge, p: PartitionId) -> io::Result<()> {
        self.buf.push((edge, p));
        Ok(())
    }

    fn assign_batch(&mut self, batch: &[(Edge, PartitionId)]) -> io::Result<()> {
        self.buf.extend_from_slice(batch);
        Ok(())
    }
}

impl AssignmentSpool for VecSpool {
    fn replay(&mut self, sink: &mut dyn AssignmentSink) -> io::Result<()> {
        assign_in_runs(sink, &std::mem::take(&mut self.buf))
    }
}

/// A [`SpoolFactory`] handing out [`VecSpool`]s (the unbounded default).
#[derive(Clone, Copy, Debug, Default)]
pub struct MemorySpoolFactory;

impl SpoolFactory for MemorySpoolFactory {
    fn create_spool(&self, _worker: usize) -> io::Result<Box<dyn AssignmentSpool>> {
        Ok(Box::new(VecSpool::new()))
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

    #[test]
    fn null_sink_accepts_everything() {
        let mut s = NullSink;
        for i in 0..10 {
            s.assign(Edge::new(i, i + 1), 0).unwrap();
        }
    }
}
