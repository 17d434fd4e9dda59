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
//! paged or `--threads 1` — and the first shard of a `--threads N` run
//! write through a [`SinkBatch`]; every other shard of a `--threads N` run,
//! and each distributed worker, writes a
//! 2-bit tag per stream position into a [`DecisionLog`] and the emit step
//! re-reads the shard's range to turn the tags back into records. Sinks
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

use tps_clustering::model::{ClusterPlan, NO_CLUSTER};
use tps_graph::formats::binary::PartitionFileWriter;
use tps_graph::packed::PackedU32s;
use tps_graph::stream::{for_each_chunk, EdgeStream};
use tps_graph::types::{Edge, PartitionId, VertexId};
use tps_metrics::quality::{PartitionMetrics, QualityTracker};

use crate::two_phase::ClusterView;

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

    /// The edge under the cursor goes to partition `p`; `ends` are the
    /// partitions of its endpoints' clusters, `[p(src), p(dst)]`, as the
    /// kernel read them.
    fn decide(&mut self, edge: Edge, p: PartitionId, ends: [PartitionId; 2]);

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
    fn decide(&mut self, edge: Edge, p: PartitionId, _ends: [PartitionId; 2]) {
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

    /// [`new`](QualitySink::new), or `InvalidInput` naming the table and
    /// `k` when its tables cannot be allocated.
    pub fn try_new(num_vertices: u64, k: u32) -> io::Result<Self> {
        let tracker = QualityTracker::try_new(num_vertices, k)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        Ok(QualitySink { tracker })
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

/// A shard's decisions until the emit barrier: a 2-bit tag per stream
/// position naming the partition the edge got and the subpass that decided
/// it — 2a's shared partition of its endpoints' clusters, 2b's partition of
/// the source's cluster or of the destination's (in the shard's
/// [`ClusterPlan`]), or an **escape** — plus, per escape, its partition in
/// the bytes `k − 1` needs. Every pre-partitioned edge and every two-choice
/// winner is one of the first three, so only fallbacks, 2a overflows and
/// 2PS-HDRF picks off both candidates take an entry.
///
/// So the log is smaller than a byte per edge only while escapes are rare:
/// an edge costs 2 bits, and an escape `⌈bits(k − 1)/8⌉` bytes more (the
/// ledger social graph at `--threads 2`, k = 32: 2.6 % of the logged edges
/// escape, 0.28 B per edge; 2PS-HDRF there: 63 %, 0.88 B per edge; an
/// escape-only shard at k ≤ 256 would take 1.25 B per edge). The escape
/// list grows by doubling during the passes and is cut to its length when
/// the 2b pass ends.
///
/// This is what a shard of a `--threads N` run other than the first, or a
/// worker of a distributed run, remembers; it replaced a byte or more per
/// edge (`p << 1 | flag`), and before that `VecSpool`, which remembered the
/// edges as well (12 B per edge). The edges are in the input:
/// [`emit`](DecisionLog::emit) re-reads the shard's range, resolves each tag
/// against the plan, and hands the sink the 2a records and then the 2b
/// records, each in stream order — the order the two passes decided them
/// in.
pub struct DecisionLog {
    /// Four tags per byte, position `i` in bits `2·(i % 4)..` of byte `i / 4`.
    tags: Vec<u8>,
    /// Stream positions covered.
    len: usize,
    /// The partitions of the escapes: the 2a pass's in stream order, then
    /// the 2b pass's.
    escapes: PackedU32s,
    /// How many of `escapes` the 2a pass wrote.
    escapes_2a: usize,
    /// Positions the 2a pass decided.
    prepartitioned: u64,
}

/// Tags: 2b's source end (also what a position holds until a pass decides
/// it), 2a's shared partition, 2b's destination end, an escape of either
/// pass. The low bit is set on exactly what the 2a pass writes.
const SRC: u8 = 0;
const SHARED: u8 = 1;
const DST: u8 = 2;
const ESCAPE: u8 = 3;

/// The phase-2 subpass a [`LogPass`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subpass {
    /// Pass 2a: decides the edges whose endpoints' clusters share a
    /// partition.
    Prepartition,
    /// Pass 2b: decides exactly the positions 2a left undecided.
    Remaining,
}

static CORE_DECISION_LOG_BYTES: tps_obs::Counter = tps_obs::Counter::new("core.decision_log.bytes");
static CORE_EMIT_RESTREAMED_EDGES: tps_obs::Counter =
    tps_obs::Counter::new("core.emit.restreamed_edges");

fn range_mismatch(kind: io::ErrorKind, got: usize, want: usize) -> io::Error {
    io::Error::new(
        kind,
        format!("a pass over the shard's range read {got} edges, the range holds {want}"),
    )
}

fn misfit() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "the decision log does not fit the plan",
    )
}

impl DecisionLog {
    /// A log for a shard of `edges` stream positions and `k` partitions,
    /// every position undecided. The tags are zeroed pages until a pass
    /// writes them. Errors for `k` = 0 or a shard longer than the address
    /// space.
    pub fn new(edges: u64, k: u32) -> io::Result<DecisionLog> {
        let len = match usize::try_from(edges) {
            Ok(len) if k > 0 => len,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("no decision log for {edges} edges into {k} partitions"),
                ))
            }
        };
        Ok(DecisionLog {
            tags: vec![0; len.div_ceil(4)],
            len,
            escapes: PackedU32s::zeroed(0, PackedU32s::width_for(k - 1)),
            escapes_2a: 0,
            prepartitioned: 0,
        })
    }

    /// Stream positions the log covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the shard's range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the log's entries take: ⌈n/4⌉ for the tags plus the escapes'
    /// bytes (not the escape list's 3 pad bytes, nor, before the 2b pass
    /// ends, its growth slack) — what `core.decision_log.bytes` counts once
    /// the 2b pass is over.
    pub fn heap_bytes(&self) -> usize {
        self.tags.len() + self.escapes.len() * self.escapes.width()
    }

    #[inline]
    fn tag(&self, i: usize) -> u8 {
        self.tags[i >> 2] >> (2 * (i & 3)) & 3
    }

    /// The [`DecisionOut`] of one pass over the shard's range. Drive it with
    /// a pass loop, then call [`LogPass::finish`].
    pub fn pass(&mut self, subpass: Subpass) -> LogPass<'_> {
        LogPass {
            log: self,
            subpass,
            at: 0,
            decided: 0,
        }
    }

    /// Turn the tags back into records: read `stream` — the shard's own
    /// range, again — once per subpass that decided anything, resolve each
    /// of that subpass's tags against `plan` — built from the plan the
    /// passes read — and hand `sink` the 2a records and then the 2b
    /// records, in runs of [`SINK_BATCH`]. An escape belongs to 2a when its
    /// edge meets the pre-partitioning condition — the kernel's own test,
    /// `ClusterView::shared_partition`. Errors if the stream no longer
    /// yields the range's edge count or names a vertex outside the plan, or
    /// if the tags do not fit the plan.
    pub fn emit(
        &self,
        stream: &mut dyn EdgeStream,
        plan: &EmitPlan<'_>,
        sink: &mut dyn AssignmentSink,
    ) -> io::Result<()> {
        let len = self.len;
        if len == 0 {
            return Ok(());
        }
        let decided_in_2a = |edge: Edge| -> io::Result<bool> {
            if self.escapes_2a == 0 {
                return Ok(false);
            }
            let clusters = plan.plan;
            if clusters.cluster_of(edge.src) == NO_CLUSTER
                || clusters.cluster_of(edge.dst) == NO_CLUSTER
            {
                return Err(misfit());
            }
            Ok((&*clusters).shared_partition(edge.src, edge.dst).is_some())
        };
        let mut batch: Vec<(Edge, PartitionId)> = Vec::with_capacity(SINK_BATCH.min(len));
        for (in_2a, wanted, escapes) in [
            (true, self.prepartitioned, 0..self.escapes_2a),
            (
                false,
                len as u64 - self.prepartitioned,
                self.escapes_2a..self.escapes.len(),
            ),
        ] {
            if wanted == 0 {
                continue;
            }
            let (mut at, mut emitted, mut escape) = (0usize, 0u64, escapes.start);
            for_each_chunk(stream, |chunk| {
                if chunk.len() > len - at {
                    return Err(range_mismatch(
                        io::ErrorKind::InvalidData,
                        at + chunk.len(),
                        len,
                    ));
                }
                for &edge in chunk {
                    plan.check(edge)?;
                    let tag = self.tag(at);
                    at += 1;
                    let p = if tag == ESCAPE {
                        if decided_in_2a(edge)? != in_2a {
                            continue;
                        }
                        if escape == escapes.end {
                            return Err(misfit());
                        }
                        escape += 1;
                        self.escapes.get(escape - 1)
                    } else if (tag == SHARED) == in_2a {
                        // Which end won is data-dependent and
                        // unpredictable; the index select compiles to a
                        // load, not a branch.
                        let end = [edge.src, edge.dst][usize::from(tag == DST)];
                        plan.v2p.get(end as usize)
                    } else {
                        continue;
                    };
                    emitted += 1;
                    batch.push((edge, p));
                    if batch.len() == SINK_BATCH {
                        sink.assign_batch(&batch)?;
                        batch.clear();
                    }
                }
                Ok(())
            })?;
            CORE_EMIT_RESTREAMED_EDGES.add(at as u64);
            if at != len {
                return Err(range_mismatch(io::ErrorKind::UnexpectedEof, at, len));
            }
            if emitted != wanted || escape != escapes.end {
                return Err(misfit());
            }
        }
        if batch.is_empty() {
            return Ok(());
        }
        sink.assign_batch(&batch)
    }
}

/// A [`ClusterPlan`] as [`DecisionLog::emit`] reads it: the plan itself,
/// for the pre-partitioning condition of the escapes, and each vertex's
/// cluster partition — |V| entries in the bytes `k − 1` needs, resolved
/// once for every log a run emits, so a tag costs one load instead of a
/// cluster lookup and a placement lookup (the emit phase of a two-worker
/// dist run on the ledger social graph, 2 vCPUs, median of 25: 0.180 s
/// with the two lookups, 0.166 s with the table, 0.146 s with the
/// byte-per-edge log it replaced). A vertex in no cluster reads as
/// partition 0.
pub struct EmitPlan<'p> {
    plan: &'p ClusterPlan,
    v2p: PackedU32s,
}

impl<'p> EmitPlan<'p> {
    /// Resolve `plan`'s vertices to their partitions among `k`.
    pub fn new(plan: &'p ClusterPlan, k: u32) -> Self {
        let nv = plan.num_vertices();
        let v2p = PackedU32s::with_width(
            (0..nv).map(|v| match plan.cluster_of(v as VertexId) {
                NO_CLUSTER => 0,
                c => plan.partition_of(c),
            }),
            nv,
            PackedU32s::width_for(k.max(1) - 1),
        );
        EmitPlan { plan, v2p }
    }

    /// `InvalidData` when `edge` names a vertex the plan does not cover:
    /// the input changed since the passes.
    #[inline]
    fn check(&self, edge: Edge) -> io::Result<()> {
        let nv = self.v2p.len();
        if edge.src as usize >= nv || edge.dst as usize >= nv {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "edge ({}, {}) names a vertex outside the plan of {nv} vertices",
                    edge.src, edge.dst
                ),
            ));
        }
        Ok(())
    }
}

/// One pass's writer into a [`DecisionLog`]: a cursor over the shard's
/// positions, each decision ORed into its tag.
pub struct LogPass<'l> {
    log: &'l mut DecisionLog,
    subpass: Subpass,
    /// The position under the cursor.
    at: usize,
    decided: u64,
}

impl LogPass<'_> {
    /// The pass is over: errors if it did not cover the whole range (a tag
    /// it skipped would not emit).
    pub fn finish(self) -> io::Result<()> {
        if self.at != self.log.len {
            return Err(range_mismatch(
                io::ErrorKind::UnexpectedEof,
                self.at,
                self.log.len,
            ));
        }
        let log = self.log;
        match self.subpass {
            Subpass::Prepartition => {
                log.prepartitioned = self.decided;
                log.escapes_2a = log.escapes.len();
            }
            Subpass::Remaining => {
                log.escapes.shrink_to_fit();
                CORE_DECISION_LOG_BYTES.add(log.heap_bytes() as u64);
            }
        }
        Ok(())
    }
}

impl DecisionOut for LogPass<'_> {
    fn begin_run(&mut self, n: usize) -> io::Result<()> {
        if n > self.log.len - self.at {
            return Err(range_mismatch(
                io::ErrorKind::InvalidData,
                self.at + n,
                self.log.len,
            ));
        }
        Ok(())
    }

    #[inline]
    fn decide(&mut self, _edge: Edge, p: PartitionId, ends: [PartitionId; 2]) {
        // A 2a decision's ends are its one shared partition.
        let tag = if p == ends[0] {
            match self.subpass {
                Subpass::Prepartition => SHARED,
                Subpass::Remaining => SRC,
            }
        } else if p == ends[1] {
            DST
        } else {
            let escapes = &mut self.log.escapes;
            let n = escapes.len();
            escapes.grow(n + 1);
            escapes.set(n, p);
            ESCAPE
        };
        debug_assert_eq!(self.log.tag(self.at), SRC, "a position decided twice");
        self.log.tags[self.at >> 2] |= tag << (2 * (self.at & 3));
        self.decided += 1;
    }

    #[inline]
    fn advance(&mut self) {
        self.at += 1;
    }

    #[inline]
    fn decided_earlier(&self) -> Option<bool> {
        Some(self.log.tag(self.at) & 1 == 1)
    }

    fn flush(&mut self) -> io::Result<()> {
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

    /// The partitions of `edge`'s endpoints' clusters, `[p(src), p(dst)]`.
    fn ends_of(plan: &ClusterPlan, edge: Edge) -> [PartitionId; 2] {
        [edge.src, edge.dst].map(|v| plan.partition_of(plan.cluster_of(v)))
    }

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

    /// Edges `(i, i + 1)` for `i < n`, and a plan over their vertices:
    /// vertex `v` in cluster `v / 3`, cluster `c` on partition `c % k` — so
    /// two edges of three join one cluster (a pre-partitioned edge), and at
    /// k > 1 the third spans two partitions.
    fn graph_and_plan(n: u32, k: u32) -> (tps_graph::stream::InMemoryGraph, ClusterPlan) {
        let g = tps_graph::stream::InMemoryGraph::from_edges(
            (0..n).map(|i| Edge::new(i, i + 1)).collect(),
        );
        let clusters = n / 3 + 1;
        let clustering = tps_clustering::model::Clustering::from_parts(
            (0..=n).map(|v| v / 3).collect(),
            vec![3; clusters as usize],
        );
        (g, clustering.freeze((0..clusters).map(|c| c % k).collect()))
    }

    /// Two hand-written passes over `graph_and_plan(n, k)`: 2a decides the
    /// edges whose ends share a partition, 2b the rest (asking the log which
    /// those are); every fifth decision is an escape to `7·i mod k` where
    /// that is off both ends, the others go to an end. Returns the log and
    /// the records the one-shard path hands on: 2a's, then 2b's.
    fn logged(
        n: u32,
        k: u32,
    ) -> (
        tps_graph::stream::InMemoryGraph,
        ClusterPlan,
        DecisionLog,
        Vec<(Edge, PartitionId)>,
    ) {
        let (g, plan) = graph_and_plan(n, k);
        let decision = |e: Edge| {
            let ends = ends_of(&plan, e);
            let p = match e.src % 5 {
                0 => e.src.wrapping_mul(7) % k,
                i => ends[(i % 2) as usize],
            };
            (ends[0] == ends[1], p, ends)
        };
        let mut log = DecisionLog::new(u64::from(n), k).unwrap();
        let mut want = [Vec::new(), Vec::new()];
        for (subpass, in_2a) in [(Subpass::Prepartition, true), (Subpass::Remaining, false)] {
            let mut pass = log.pass(subpass);
            decision_pass(&mut g.stream(), &mut pass, |e, out| {
                let (shared, p, ends) = decision(e);
                if !in_2a {
                    assert_eq!(out.decided_earlier(), Some(shared), "edge {e:?}");
                }
                if shared == in_2a {
                    out.decide(e, p, ends);
                    want[usize::from(!in_2a)].push((e, p));
                }
            })
            .unwrap();
            pass.finish().unwrap();
        }
        let [first, second] = want;
        (g, plan, log, first.into_iter().chain(second).collect())
    }

    #[test]
    fn decision_log_emits_the_2a_records_then_the_2b_records() {
        let n = 2 * SINK_BATCH as u32 + 77;
        for (k, escape_bytes) in [
            (1u32, 1usize),
            (128, 1),
            (256, 1),
            (257, 2),
            (65_536, 2),
            (65_537, 3),
            (1 << 31, 4),
        ] {
            let (g, plan, log, want) = logged(n, k);
            let escapes = want
                .iter()
                .filter(|&&(e, p)| !ends_of(&plan, e).contains(&p))
                .count();
            assert!(k < 3 || escapes > 0, "k = {k}");
            assert_eq!(
                log.heap_bytes(),
                (n as usize).div_ceil(4) + escapes * escape_bytes,
                "k = {k}"
            );
            let mut sink = VecSink::new();
            log.emit(&mut g.stream(), &EmitPlan::new(&plan, k), &mut sink)
                .unwrap();
            assert_eq!(sink.assignments(), want, "k = {k}");
        }
    }

    #[test]
    fn decision_log_refuses_a_range_that_changed_length() {
        let (g, plan, log, _) = logged(100, 8);
        let plan = EmitPlan::new(&plan, 8);
        let stream_of =
            |n: usize| tps_graph::stream::InMemoryGraph::from_edges(g.edges()[..n].to_vec());
        let mut longer = g.edges().to_vec();
        longer.push(Edge::new(7, 8));
        let mut longer = tps_graph::stream::InMemoryGraph::from_edges(longer);
        let err = log
            .emit(&mut stream_of(99), &plan, &mut VecSink::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        let err = log
            .emit(&mut longer, &plan, &mut VecSink::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        // A plan other than the passes read does not fit the tags.
        let (_, other) = graph_and_plan(100, 1);
        let err = log
            .emit(
                &mut g.stream(),
                &EmitPlan::new(&other, 8),
                &mut VecSink::new(),
            )
            .unwrap_err();
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
        assert!(DecisionLog::new(1, 0).is_err());
        let mut sink = VecSink::new();
        log.emit(&mut stream_of(0), &plan, &mut sink).unwrap();
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
