//! Range-addressable file sources: every file input is read through one
//! [`RangedFile`], the whole file being range `0..|E|`.
//!
//! A file is a run of *blocks* that a cursor decodes whole, and the two
//! on-disk formats differ only in where the blocks lie and how one decodes:
//!
//! * **v1** (`TPSBEL1`) — records are fixed-width, so block `i` is records
//!   `[i·CHUNK_EDGES, …)`, found by arithmetic and copied straight into the
//!   cursor's edge buffer.
//! * **v2** (`TPSBEL2`) — the chunk **index footer** is read once at open
//!   and a prefix sum over per-chunk edge counts is kept; block `i` is
//!   chunk `i`, varint-decoded with its checksum verified once per cursor.
//!
//! The bytes come from positioned reads through one file handle, so
//! cursors share it. A range cursor finds the block holding its start edge,
//! decodes whole blocks and skips the intra-block prefix; cursors schedule
//! disjoint ranges off the one shared layout with no coordination. A v2
//! file sits behind a [`RetainingSource`]: the first complete pass over a
//! range leaves the decoded edges with the source, packed in the bytes
//! their ids need (while they fit the decode budget), and every later pass
//! or open of that range unpacks them from memory.
//!
//! Ranges are expressed in *edge indices*, not storage offsets, so a
//! parallel partitioning run makes identical per-thread decisions whether
//! the graph lives in memory, in a v1 file or in a v2 file.
//!
//! Every source here also implements [`RangedReopen`]: its cursors own
//! their state (`Arc`s of the open file and of the retained ranges), so
//! they outlive the source — which is how [`crate::open_edge_stream`] hands
//! out a whole-file stream.
//!
//! [`open_ranged`] is the front door (format sniffing via
//! [`crate::detect_format`]).

use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tps_graph::formats::binary::{self as v1, EDGE_RECORD_LEN, HEADER_LEN};
use tps_graph::ranged::{check_range, RangedEdgeSource};
use tps_graph::stream::{EdgeStream, CHUNK_EDGES};
use tps_graph::types::{Edge, GraphInfo};

use crate::v2::{
    decode_cache_budget, decode_chunk, read_layout, ChunkMeta, DecodeCache, PackedEdges, Packing,
    CHUNK_HEADER_LEN,
};
use crate::EdgeFileFormat;

/// Sources that open *owned* (`'static` + [`Send`]) range cursors: what a
/// whole-file stream that outlives its source needs.
pub trait RangedReopen: RangedEdgeSource {
    /// Open `[start, end)` as an owned stream over the source's shared
    /// state.
    fn open_range_owned(
        &self,
        start: u64,
        end: u64,
    ) -> io::Result<Box<dyn EdgeStream + Send + 'static>>;
}

/// Where a file's blocks lie.
enum Layout {
    /// `TPSBEL1`: block `i` is records `[i·CHUNK_EDGES, …)` of `num_edges`.
    V1 { num_edges: u64 },
    /// `TPSBEL2`: block `i` is chunk `i` of the index footer; `cum[i]` =
    /// edges in chunks `0..i`, `cum[num_chunks]` = `|E|`.
    V2 {
        chunks: Vec<ChunkMeta>,
        cum: Vec<u64>,
    },
}

impl Layout {
    fn v2(chunks: Vec<ChunkMeta>) -> Self {
        let mut cum = vec![0];
        cum.extend(chunks.iter().scan(0u64, |total, c| {
            *total += c.edge_count as u64;
            Some(*total)
        }));
        Layout::V2 { chunks, cum }
    }

    fn blocks(&self) -> usize {
        match self {
            Layout::V1 { num_edges } => num_edges.div_ceil(CHUNK_EDGES as u64) as usize,
            Layout::V2 { chunks, .. } => chunks.len(),
        }
    }

    /// The block holding edge `start` (`< |E|`), and how many of its edges
    /// come before it.
    fn locate(&self, start: u64) -> (usize, usize) {
        match self {
            Layout::V1 { .. } => {
                let block = CHUNK_EDGES as u64;
                ((start / block) as usize, (start % block) as usize)
            }
            Layout::V2 { cum, .. } => {
                let chunk = cum.partition_point(|&c| c <= start) - 1;
                (chunk, (start - cum[chunk]) as usize)
            }
        }
    }
}

/// An open edge file: what a [`RangedFile`] and all its cursors share.
struct EdgeFile {
    path: Arc<Path>,
    info: GraphInfo,
    layout: Layout,
    file: File,
}

/// The [`RangedEdgeSource`] over an edge file of either format (sniffed by
/// magic), read through one shared file handle. Cursors over ranges of it
/// are independent and own their state.
pub struct RangedFile(Arc<EdgeFile>);

impl RangedFile {
    /// Open `path`, validating its header (and a v2 file's index and
    /// trailer); cursors read through one shared file handle.
    pub fn read<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref();
        let format = crate::detect_format(path)?;
        let mut file = File::open(path)?;
        let (info, layout) = match format {
            EdgeFileFormat::V1 => {
                let info = v1::read_checked_header(&mut file)?;
                let num_edges = info.num_edges;
                (info, Layout::V1 { num_edges })
            }
            EdgeFileFormat::V2 => {
                let layout = read_layout(&mut file)?;
                (layout.info, Layout::v2(layout.chunks))
            }
        };
        Ok(RangedFile(Arc::new(EdgeFile {
            path: path.into(),
            info,
            layout,
            file,
        })))
    }

    fn is_v2(&self) -> bool {
        matches!(self.0.layout, Layout::V2 { .. })
    }
}

impl RangedEdgeSource for RangedFile {
    fn info(&self) -> GraphInfo {
        self.0.info
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        Ok(self.open_range_owned(start, end)?)
    }
}

impl RangedReopen for RangedFile {
    fn open_range_owned(
        &self,
        start: u64,
        end: u64,
    ) -> io::Result<Box<dyn EdgeStream + Send + 'static>> {
        check_range(start, end, self.0.info.num_edges)?;
        let mut cursor = ChunkCursor {
            verified: vec![false; self.0.layout.blocks()],
            file: Arc::clone(&self.0),
            start,
            end,
            next_block: 0,
            skip: 0,
            emitted: 0,
            buf: Vec::new(),
            buf_pos: 0,
            scratch: Vec::new(),
        };
        cursor.rewind();
        Ok(Box::new(cursor))
    }
}

/// The cursor over edges `[start, end)` of an edge file: it decodes whole
/// blocks into its buffer, lends them, and skips the first block's prefix.
/// A fresh cursor decodes nothing until it is read. Read errors name the
/// file: a multi-pass run re-reads it long after opening it.
struct ChunkCursor {
    file: Arc<EdgeFile>,
    start: u64,
    end: u64,
    /// Next block to decode sequentially.
    next_block: usize,
    /// Edges of the next decoded block that lie before the range (nonzero
    /// only for the first block of a pass).
    skip: usize,
    /// Edges already handed out of this range.
    emitted: u64,
    buf: Vec<Edge>,
    buf_pos: usize,
    /// A v2 chunk's bytes.
    scratch: Vec<u8>,
    /// Blocks this cursor already decoded once — multi-pass consumers
    /// (`reset` + re-stream) decode proven v2 chunks checksum-free.
    verified: Vec<bool>,
}

impl ChunkCursor {
    /// Start a pass: aim at the block containing `start`, to be decoded —
    /// and its intra-block prefix skipped — when the pass first reads.
    fn rewind(&mut self) {
        self.emitted = 0;
        self.buf.clear();
        self.buf_pos = 0;
        if self.start < self.end {
            (self.next_block, self.skip) = self.file.layout.locate(self.start);
        }
    }

    /// Decode block `i` into the (empty) buffer: a v1 block's records are
    /// read straight into it, a v2 chunk is decoded out of its bytes,
    /// checksum verified if `verify`.
    fn decode(&mut self, i: usize, verify: bool) -> io::Result<()> {
        let file = &*self.file;
        match &file.layout {
            Layout::V1 { num_edges } => {
                let first = i as u64 * CHUNK_EDGES as u64;
                let n = (num_edges - first).min(CHUNK_EDGES as u64) as usize;
                let offset = HEADER_LEN + first * EDGE_RECORD_LEN;
                v1::read_records(n, &mut self.buf, |bytes| {
                    file.file.read_exact_at(bytes, offset)
                })
            }
            Layout::V2 { chunks, .. } => {
                let meta = chunks[i];
                let len = (CHUNK_HEADER_LEN + meta.payload_len as u64) as usize;
                // Grow-only: the read overwrites the prefix it uses.
                if self.scratch.len() < len {
                    self.scratch.resize(len, 0);
                }
                let chunk = &mut self.scratch[..len];
                file.file
                    .read_exact_at(chunk, meta.offset)
                    .map_err(|e| match e.kind() {
                        io::ErrorKind::UnexpectedEof => io::Error::new(
                            io::ErrorKind::InvalidData,
                            "chunk extends past end of file",
                        ),
                        _ => e,
                    })?;
                decode_chunk(chunk, meta, verify, &mut self.buf)
            }
        }
    }

    /// Take up to `max` unread edges of the range out of the decoded block,
    /// decoding the next one when it is drained; empty at the range end.
    fn take_run(&mut self, max: usize) -> io::Result<&[Edge]> {
        let left = (self.end - self.start) - self.emitted;
        while left > 0 && self.buf_pos == self.buf.len() {
            let i = self.next_block;
            self.buf.clear();
            self.buf_pos = 0;
            if let Err(e) = self.decode(i, !self.verified[i]) {
                self.buf.clear();
                return Err(v1::named(&self.file.path, e));
            }
            self.verified[i] = true;
            self.next_block += 1;
            self.buf_pos = std::mem::take(&mut self.skip);
        }
        let n = (self.buf.len() - self.buf_pos)
            .min(max)
            .min(usize::try_from(left).unwrap_or(usize::MAX));
        let run = &self.buf[self.buf_pos..self.buf_pos + n];
        self.buf_pos += n;
        self.emitted += n as u64;
        Ok(run)
    }
}

impl EdgeStream for ChunkCursor {
    fn reset(&mut self) -> io::Result<()> {
        self.rewind();
        Ok(())
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        Ok(self.take_run(1)?.first().copied())
    }

    fn next_chunk<'a>(&'a mut self, _scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        self.take_run(usize::MAX)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.end - self.start)
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.file.info.num_vertices)
    }
}

static IO_V2_RANGES_RETAINED: tps_obs::Counter = tps_obs::Counter::new("io.v2.ranges_retained");
static IO_V2_RETAINED_BYTES: tps_obs::Counter = tps_obs::Counter::new("io.v2.retained_bytes");

/// A v2 ranged source that keeps what its cursors decode — the one decoded
/// edge cache of the v2 readers, built on `v2::DecodeCache`.
///
/// The first *complete* pass over `open_range(a, b)` deposits the decoded
/// range with the source, packed at 2w bits per edge (w = the bits of the
/// header's largest id `|V| − 1`; 8 B above w = 28) plus 8 pad bytes, if
/// that packed size still fits the decode budget
/// ([`crate::v2::set_decode_cache_budget`]) next to the ranges already
/// retained: one reservation across all of a source's ranges,
/// all-or-nothing per range, taken when the range is opened and given back
/// if its cursor is dropped before completing a pass. The cursor's own next
/// pass, and every later `open_range(a, b)`, unpacks runs of the retained
/// edges: no file read, no checksum, no varint decode.
/// A retained range is never one that skipped verification — it is what a
/// checksumming cursor produced. Ranges that do not fit are streamed from
/// the inner source on every pass, and so is a range holding an id the
/// header's |V| does not cover: its cursor gives the reservation back the
/// moment it decodes one, so output never depends on the header.
pub struct RetainingSource {
    inner: RangedFile,
    retained: Arc<Mutex<Retained>>,
}

#[derive(Default)]
struct Retained {
    /// `None` while the cursor that reserved the range is still decoding it.
    ranges: HashMap<(u64, u64), Option<Arc<PackedEdges>>>,
    /// Bytes reserved: the retained ranges plus the ones being decoded.
    bytes: u64,
}

/// Every update of [`Retained`] is one map operation and one add, so the
/// data is valid even if a holder panicked.
fn lock(retained: &Mutex<Retained>) -> MutexGuard<'_, Retained> {
    retained.lock().unwrap_or_else(PoisonError::into_inner)
}

impl RetainingSource {
    /// Wrap `inner`, a v2 file.
    pub fn new(inner: RangedFile) -> Self {
        RetainingSource {
            inner,
            retained: Arc::default(),
        }
    }
}

impl RangedEdgeSource for RetainingSource {
    fn info(&self) -> GraphInfo {
        self.inner.info()
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        Ok(self.open_range_owned(start, end)?)
    }
}

impl RangedReopen for RetainingSource {
    fn open_range_owned(
        &self,
        start: u64,
        end: u64,
    ) -> io::Result<Box<dyn EdgeStream + Send + 'static>> {
        let range = (start, end);
        let num_vertices = self.inner.info().num_vertices;
        let bytes = Packing::new(num_vertices).bytes(end.saturating_sub(start));
        let mut reserved = false;
        {
            let mut retained = lock(&self.retained);
            match retained.ranges.get(&range) {
                Some(Some(edges)) => {
                    return Ok(Box::new(RetainedStream::new(
                        Arc::clone(edges),
                        num_vertices,
                    )))
                }
                // Another cursor is decoding this range: stream beside it.
                Some(None) => {}
                None => {
                    let fits = bytes
                        .and_then(|bytes| retained.bytes.checked_add(bytes))
                        .filter(|&total| start < end && total <= decode_cache_budget());
                    if let Some(total) = fits {
                        retained.bytes = total;
                        retained.ranges.insert(range, None);
                        reserved = true;
                    }
                }
            }
        }
        // From here on dropping the reservation gives the bytes back.
        let reservation = Reservation {
            retained: Arc::clone(&self.retained),
            range,
            bytes: bytes.unwrap_or(0),
            held: reserved,
        };
        let inner = self.inner.open_range_owned(start, end)?;
        Ok(Box::new(RetainingStream {
            inner,
            num_vertices,
            absorbing: Absorbing {
                cache: DecodeCache::new(end - start, num_vertices, reserved),
                reservation,
                pos: 0,
                deposited: None,
            },
        }))
    }
}

/// A range's share of the decode budget, held by the cursor decoding it
/// until the range is deposited or the cursor is dropped.
struct Reservation {
    retained: Arc<Mutex<Retained>>,
    range: (u64, u64),
    /// The range's packed size.
    bytes: u64,
    held: bool,
}

impl Reservation {
    /// The range is complete: other opens may read it from now on.
    fn deposit(&mut self, edges: Arc<PackedEdges>) {
        IO_V2_RANGES_RETAINED.incr();
        IO_V2_RETAINED_BYTES.add(self.bytes);
        lock(&self.retained).ranges.insert(self.range, Some(edges));
        self.held = false;
    }

    /// Give the range's share of the budget back, if still held.
    fn release(&mut self) {
        if std::mem::take(&mut self.held) {
            let mut retained = lock(&self.retained);
            retained.ranges.remove(&self.range);
            retained.bytes -= self.bytes;
        }
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.release();
    }
}

/// A cursor over a range the source has not retained (yet): streams from
/// the inner cursor, absorbing what it lends if the range was reserved. Once
/// a pass has completed the range, the next `reset` swaps the inner cursor
/// for one over the retained edges (the pass in flight still drains the
/// file cursor, whose buffer it is being lent).
struct RetainingStream {
    inner: Box<dyn EdgeStream + Send>,
    num_vertices: u64,
    absorbing: Absorbing,
}

/// What a [`RetainingStream`] keeps beside its inner cursor.
struct Absorbing {
    cache: DecodeCache,
    reservation: Reservation,
    /// Edges handed out this pass.
    pos: usize,
    /// The range, from the moment this cursor completed and deposited it
    /// until its next `reset`.
    deposited: Option<Arc<PackedEdges>>,
}

impl Absorbing {
    /// Account for `run` (just lent by the inner cursor) and deposit the
    /// range with the source the moment it is complete; a run the header's
    /// |V| does not cover gives the reservation back at once.
    fn absorb(&mut self, run: &[Edge]) {
        if !self.cache.absorb(self.pos, run) {
            self.reservation.release();
        }
        self.pos += run.len();
        if self.cache.complete() {
            let edges = Arc::new(self.cache.take());
            self.reservation.deposit(Arc::clone(&edges));
            self.deposited = Some(edges);
        }
    }
}

impl EdgeStream for RetainingStream {
    fn reset(&mut self) -> io::Result<()> {
        self.absorbing.pos = 0;
        if let Some(edges) = self.absorbing.deposited.take() {
            self.inner = Box::new(RetainedStream::new(edges, self.num_vertices));
        }
        self.inner.reset()
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        let e = self.inner.next_edge()?;
        self.absorbing.absorb(e.as_slice());
        Ok(e)
    }

    fn next_chunk<'a>(&'a mut self, scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        let run = self.inner.next_chunk(scratch)?;
        self.absorbing.absorb(run);
        Ok(run)
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.num_vertices)
    }
}

/// A cursor over a range the source retained: it unpacks runs of the
/// shared packed edges into a buffer of its own and lends that.
struct RetainedStream {
    edges: Arc<PackedEdges>,
    num_vertices: u64,
    pos: usize,
    /// Up to [`CHUNK_EDGES`] unpacked edges.
    buf: Vec<Edge>,
}

impl RetainedStream {
    fn new(edges: Arc<PackedEdges>, num_vertices: u64) -> Self {
        RetainedStream {
            buf: vec![Edge::new(0, 0); edges.len().min(CHUNK_EDGES)],
            edges,
            num_vertices,
            pos: 0,
        }
    }
}

impl EdgeStream for RetainedStream {
    fn reset(&mut self) -> io::Result<()> {
        self.pos = 0;
        Ok(())
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        let e = self.edges.get(self.pos);
        self.pos += usize::from(e.is_some());
        Ok(e)
    }

    fn next_chunk<'a>(&'a mut self, _scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        let n = (self.edges.len() - self.pos).min(self.buf.len());
        let run = &mut self.buf[..n];
        if n > 0 {
            self.edges.unpack(self.pos, run);
        }
        self.pos += n;
        Ok(run)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.edges.len() as u64)
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.num_vertices)
    }
}

/// Open `path` (v1 or v2, sniffed by magic) as a source of owned cursors;
/// a v2 source retains the ranges it decodes (see [`RetainingSource`]).
pub(crate) fn open_file(path: &Path) -> io::Result<Box<dyn RangedReopen>> {
    let file = RangedFile::read(path)?;
    Ok(if file.is_v2() {
        Box::new(RetainingSource::new(file))
    } else {
        Box::new(file)
    })
}

/// Open `path` (v1 or v2, sniffed by magic) as a ranged source: what every
/// path input of a job runs over.
pub fn open_ranged<P: AsRef<Path>>(path: P) -> io::Result<Box<dyn RangedEdgeSource>> {
    let source: Box<dyn RangedEdgeSource> = open_file(path.as_ref())?;
    Ok(source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tps_graph::formats::binary::write_binary_edge_list;
    use tps_graph::ranged::split_even;
    use tps_graph::stream::for_each_edge;

    fn tmpfile(tag: &str, ext: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tps-io-ranged-{tag}-{}.{ext}", std::process::id()))
    }

    fn edges(n: u32) -> Vec<Edge> {
        (0..n)
            .map(|i| Edge::new(i % 517, (i * 31 + 7) % 4096))
            .collect()
    }

    fn collect(s: &mut dyn EdgeStream) -> Vec<Edge> {
        let mut out = Vec::new();
        for_each_edge(s, |e| out.push(e)).unwrap();
        out
    }

    #[test]
    fn v1_ranges_reassemble_full_pass() {
        let path = tmpfile("v1", "bel");
        let es = edges(10_000);
        write_binary_edge_list(&path, 4096, es.iter().copied()).unwrap();
        let src = RangedFile::read(&path).unwrap();
        assert_eq!(src.info().num_edges, 10_000);
        for parts in [1usize, 3, 7] {
            let mut seen = Vec::new();
            for (a, b) in split_even(10_000, parts) {
                let mut s = src.open_range(a, b).unwrap();
                seen.extend(collect(&mut *s));
            }
            assert_eq!(seen, es, "parts = {parts}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_ranges_reassemble_full_pass_across_chunk_sizes() {
        let es = edges(10_000);
        // Chunk sizes that do and do not divide the range boundaries.
        for chunk_edges in [64u32, 1000, 4096, 20_000] {
            let path = tmpfile(&format!("v2-{chunk_edges}"), "bel2");
            crate::v2::write_v2_edge_list(&path, 4096, es.iter().copied(), chunk_edges).unwrap();
            let src = RangedFile::read(&path).unwrap();
            for parts in [1usize, 2, 5, 13] {
                let mut seen = Vec::new();
                for (a, b) in split_even(10_000, parts) {
                    let mut s = src.open_range(a, b).unwrap();
                    seen.extend(collect(&mut *s));
                }
                assert_eq!(seen, es, "chunk {chunk_edges} parts {parts}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn v2_range_mid_chunk_resets_correctly() {
        let es = edges(5_000);
        let path = tmpfile("v2-reset", "bel2");
        crate::v2::write_v2_edge_list(&path, 4096, es.iter().copied(), 777).unwrap();
        let src = RangedFile::read(&path).unwrap();
        // A range starting and ending mid-chunk.
        let mut s = src.open_range(1_000, 3_500).unwrap();
        let first = collect(&mut *s);
        let second = collect(&mut *s); // collect resets first
        assert_eq!(first.len(), 2_500);
        assert_eq!(first, second);
        assert_eq!(first[0], es[1_000]);
        assert_eq!(*first.last().unwrap(), es[3_499]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_ranged_sniffs_both_formats() {
        let es = edges(2_000);
        let p1 = tmpfile("sniff", "bel");
        let p2 = tmpfile("sniff", "bel2");
        write_binary_edge_list(&p1, 4096, es.iter().copied()).unwrap();
        crate::v2::write_v2_edge_list(&p2, 4096, es.iter().copied(), 300).unwrap();
        for p in [&p1, &p2] {
            let src = open_ranged(p).unwrap();
            let mut s = src.open_range(500, 1500).unwrap();
            let seen = collect(&mut *s);
            assert_eq!(seen, &es[500..1500], "{p:?}");
        }
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    /// One-edge ranges, opened back to front, each read the edge a whole
    /// pass reads at that index.
    #[test]
    fn single_edge_ranges_match_the_stream() {
        let path = tmpfile("single", "bel");
        let es: Vec<Edge> = (0..64).map(|i| Edge::new(i * 3, i * 5 + 1)).collect();
        write_binary_edge_list(&path, 1024, es.iter().copied()).unwrap();
        let src = RangedFile::read(&path).unwrap();
        for (i, &e) in es.iter().enumerate().rev() {
            let mut one = src.open_range(i as u64, i as u64 + 1).unwrap();
            assert_eq!(one.next_edge().unwrap(), Some(e));
            assert_eq!(one.next_edge().unwrap(), None);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_bounds_ranges_rejected() {
        let es = edges(100);
        let path = tmpfile("oob", "bel");
        write_binary_edge_list(&path, 4096, es.iter().copied()).unwrap();
        let src = RangedFile::read(&path).unwrap();
        assert!(src.open_range(0, 101).is_err());
        assert!(src.open_range(60, 50).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_range_yields_nothing() {
        let es = edges(100);
        let path = tmpfile("emptyrange", "bel2");
        crate::v2::write_v2_edge_list(&path, 4096, es.iter().copied(), 32).unwrap();
        let src = RangedFile::read(&path).unwrap();
        let mut s = src.open_range(50, 50).unwrap();
        assert_eq!(s.next_edge().unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    /// The edges of one pass, read one at a time.
    fn one_by_one(s: &mut dyn EdgeStream) -> Vec<Edge> {
        s.reset().unwrap();
        std::iter::from_fn(|| s.next_edge().unwrap()).collect()
    }

    /// A retained range packs each edge in the 2w bits the header's |V|
    /// needs — every w from 1 to 32 below, the stride turning to 64 bits
    /// above w = 28 — and reads back exactly, id |V| − 1 included: the first
    /// pass ≡ the later passes ≡ a fresh open of the retained range ≡ the
    /// input, in runs and per edge, the last edge too.
    #[test]
    fn retained_ranges_read_back_at_every_packed_width() {
        fn check(source: RetainingSource, es: &[Edge], bytes: u64) {
            let n = es.len() as u64;
            let mut cursor = source.open_range(0, n).unwrap();
            assert_eq!(collect(&mut *cursor), es, "first pass");
            {
                let retained = lock(&source.retained);
                let Some(Some(packed)) = retained.ranges.get(&(0, n)) else {
                    panic!("range not retained");
                };
                assert_eq!(retained.bytes, bytes);
                let last = es.len() - 1;
                assert_eq!(packed.get(last), Some(es[last]), "get, last edge");
                assert_eq!(packed.get(last + 1), None);
                let mut tail = [Edge::new(0, 0); 3];
                packed.unpack(last - 2, &mut tail);
                assert_eq!(tail, es[last - 2..], "unpack, last edges");
            }
            assert_eq!(one_by_one(&mut *cursor), es, "second pass");
            assert_eq!(collect(&mut *cursor), es, "third pass");
            let mut fresh = source.open_range(0, n).unwrap();
            assert_eq!(one_by_one(&mut *fresh), es, "fresh open");
            assert_eq!(collect(&mut *fresh), es, "fresh open, in runs");
        }

        // An odd edge count, so no stride ends the range on a word.
        let n = CHUNK_EDGES as u64 + 1_001;
        for w in 1..=32u64 {
            let num_vertices = 1 << w;
            let stride = if w <= 28 { 2 * w } else { 64 };
            let top = num_vertices - 1;
            let es: Vec<Edge> = (0..n)
                .map(|i| {
                    Edge::new(
                        (i * 2_654_435_761 % num_vertices) as u32,
                        (top - i % num_vertices) as u32,
                    )
                })
                .collect();
            let path = tmpfile(&format!("packed-{w}"), "bel2");
            crate::v2::write_v2_edge_list(&path, num_vertices, es.iter().copied(), 777).unwrap();
            check(
                RetainingSource::new(RangedFile::read(&path).unwrap()),
                &es,
                (stride * n).div_ceil(8) + 8,
            );
            std::fs::remove_file(&path).ok();
        }
    }

    /// A v2 cursor verifies each chunk's checksum on its first decode and
    /// trusts it on later passes; a fresh cursor verifies again.
    #[test]
    fn checksums_are_verified_once_per_cursor() {
        use crate::v2::{CHUNK_HEADER_LEN, HEADER_LEN_V2};
        use std::os::unix::fs::FileExt;

        let es = edges(2_000);
        let path = tmpfile("verify-once", "bel2");
        crate::v2::write_v2_edge_list(&path, 4096, es.iter().copied(), 500).unwrap();
        let file = RangedFile::read(&path).unwrap();
        let mut cursor = file.open_range(0, 2_000).unwrap();
        assert_eq!(collect(&mut *cursor), es);
        // Edge 0 is (0, 7): rewrite its source as another one-byte varint,
        // so chunk 0 still decodes but no longer matches its checksum.
        let at = HEADER_LEN_V2 + CHUNK_HEADER_LEN;
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(&[0x01], at).unwrap();
        let again = collect(&mut *cursor);
        assert_eq!(again[0], Edge::new(1, 7));
        assert_eq!(again[1..], es[1..]);
        let err = for_each_edge(&mut *file.open_range(0, 2_000).unwrap(), |_| {})
            .expect_err("a fresh cursor verifies");
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
