//! Range-addressable file sources: every file input is read through one of
//! these, the whole file being range `0..|E|`.
//!
//! Implements [`RangedEdgeSource`] (see `tps_graph::ranged`) for both
//! on-disk formats, so `tps-core`'s shards each open an independent cursor
//! over their range and a one-shard run streams the whole file through the
//! same cursor:
//!
//! * **v1** (`TPSBEL1`) — records are fixed-width, so a range `[a, b)` is a
//!   single seek to `HEADER + 8·a` and a countdown.
//! * **v2** (`TPSBEL2`) — the chunk **index footer** is read once at open
//!   and a prefix-sum over per-chunk edge counts is kept; a range cursor
//!   binary-searches the chunk containing its start edge, decodes whole
//!   chunks (checksums verified once per cursor) and skips the intra-chunk
//!   prefix. Cursors schedule disjoint chunk ranges off one shared index
//!   with no coordination. Every v2 backend sits behind a
//!   [`RetainingSource`]: the first complete pass over a range leaves the
//!   decoded edges with the source (while they fit the decode budget), and
//!   every later pass or open of that range reads them from memory.
//!
//! Ranges are expressed in *edge indices*, not storage offsets, so a
//! parallel partitioning run makes identical per-thread decisions whether
//! the graph lives in memory, in a v1 file or in a v2 file.
//!
//! Every source here also implements [`RangedReopen`]: its cursors own
//! their state (a file handle, or `Arc`s of the mapping, the chunk
//! directory and the retained ranges), so they outlive the source — which
//! is how [`crate::open_edge_stream`] hands out a whole-file stream and how
//! [`RangedPrefetchSource`] moves a cursor onto its background thread
//! ([`crate::prefetch`]), overlapping chunk decode and disk I/O with
//! partitioning CPU per worker.
//!
//! [`open_ranged_backend`] is the front door (format sniffing via
//! [`crate::detect_format`]).

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufReader, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tps_graph::formats::binary::{self as v1, BinaryEdgeFile};
use tps_graph::ranged::{check_range, RangedEdgeSource};
use tps_graph::stream::{lend_run, EdgeStream};
use tps_graph::types::{Edge, GraphInfo};

use crate::mmap::Mmap;
use crate::prefetch::{ChunkSource, PrefetchConfig, PrefetchReader};
use crate::v2::{
    decode_cache_budget, decode_chunk_slice, read_chunk_at, read_layout, ChunkMeta, DecodeCache,
};
use crate::{EdgeFileFormat, ReaderBackend};

/// Sources that open *owned* (`'static` + [`Send`]) range cursors: what a
/// whole-file stream that outlives its source, and a prefetch thread, need.
pub trait RangedReopen: RangedEdgeSource {
    /// Open `[start, end)` as an owned stream (fresh file handle, shared
    /// metadata).
    fn open_range_owned(
        &self,
        start: u64,
        end: u64,
    ) -> io::Result<Box<dyn EdgeStream + Send + 'static>>;
}

/// A [`RangedEdgeSource`] over a v1 fixed-width `.bel` file.
pub struct RangedV1File {
    path: PathBuf,
    info: GraphInfo,
}

impl RangedV1File {
    /// Open `path` and validate the v1 header.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let info = v1::read_checked_header(&mut File::open(&path)?)?;
        Ok(RangedV1File { path, info })
    }
}

impl RangedEdgeSource for RangedV1File {
    fn info(&self) -> GraphInfo {
        self.info
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        Ok(self.open_range_owned(start, end)?)
    }
}

impl RangedReopen for RangedV1File {
    fn open_range_owned(
        &self,
        start: u64,
        end: u64,
    ) -> io::Result<Box<dyn EdgeStream + Send + 'static>> {
        Ok(Box::new(BinaryEdgeFile::open_range(
            &self.path, start, end,
        )?))
    }
}

/// A v2 file's chunk directory, shared by the source and all its cursors.
struct Directory {
    chunks: Vec<ChunkMeta>,
    /// `cum[i]` = edges in chunks `0..i`; `cum[num_chunks]` = `|E|`.
    cum: Vec<u64>,
}

impl Directory {
    fn new(chunks: Vec<ChunkMeta>) -> Arc<Self> {
        let mut cum = Vec::with_capacity(chunks.len() + 1);
        let mut total = 0u64;
        cum.push(0);
        for c in &chunks {
            total += c.edge_count as u64;
            cum.push(total);
        }
        Arc::new(Directory { chunks, cum })
    }

    /// The chunk holding edge `start` (`< |E|`), and how many of its edges
    /// come before it.
    fn locate(&self, start: u64) -> (usize, usize) {
        let chunk = self.cum.partition_point(|&c| c <= start) - 1;
        (chunk, (start - self.cum[chunk]) as usize)
    }
}

/// A [`RangedEdgeSource`] over a v2 chunked file, scheduling chunk ranges
/// off the shared index footer.
pub struct RangedV2File {
    path: PathBuf,
    info: GraphInfo,
    dir: Arc<Directory>,
}

impl RangedV2File {
    /// Open `path`, validating header, index and trailer.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let layout = read_layout(&mut File::open(&path)?)?;
        Ok(RangedV2File {
            path,
            info: layout.info,
            dir: Directory::new(layout.chunks),
        })
    }

    /// The chunk directory (shared, read-only — workers schedule off it).
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.dir.chunks
    }
}

impl RangedEdgeSource for RangedV2File {
    fn info(&self) -> GraphInfo {
        self.info
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        Ok(self.open_range_owned(start, end)?)
    }
}

impl RangedReopen for RangedV2File {
    fn open_range_owned(
        &self,
        start: u64,
        end: u64,
    ) -> io::Result<Box<dyn EdgeStream + Send + 'static>> {
        check_range(start, end, self.info.num_edges)?;
        let mut stream = V2RangeStream {
            reader: BufReader::with_capacity(1 << 16, File::open(&self.path)?),
            cursor: ChunkCursor::new(&self.dir, self.info.num_vertices, start, end),
            scratch: Vec::new(),
        };
        stream.reset()?;
        Ok(Box::new(stream))
    }
}

fn directory_exhausted() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "v2 chunk directory exhausted before range end",
    )
}

/// Where a cursor over edges `[start, end)` of a v2 file stands: the chunk
/// it decodes next and the unread part of the one it decoded last. Shared by
/// the file-backed and the mapped cursor, which differ only in where a
/// chunk's bytes come from.
struct ChunkCursor {
    dir: Arc<Directory>,
    num_vertices: u64,
    start: u64,
    end: u64,
    /// Next chunk index to decode sequentially.
    next_chunk: usize,
    /// Edges of the next decoded chunk that lie before the range (nonzero
    /// only for the first chunk of a pass).
    skip: usize,
    /// Edges already handed out of this range.
    emitted: u64,
    buf: Vec<Edge>,
    buf_pos: usize,
    /// Chunks whose checksum this cursor already verified — multi-pass
    /// consumers (`reset` + re-stream) decode proven chunks checksum-free.
    verified: Vec<bool>,
}

impl ChunkCursor {
    fn new(dir: &Arc<Directory>, num_vertices: u64, start: u64, end: u64) -> Self {
        ChunkCursor {
            verified: vec![false; dir.chunks.len()],
            dir: Arc::clone(dir),
            num_vertices,
            start,
            end,
            next_chunk: 0,
            skip: 0,
            emitted: 0,
            buf: Vec::new(),
            buf_pos: 0,
        }
    }

    /// Start a pass: aim at the chunk containing `start`, to be decoded —
    /// and its intra-chunk prefix skipped — when the pass first reads.
    /// Returns that chunk's file offset (`None` for an empty range).
    fn rewind(&mut self) -> Option<u64> {
        self.emitted = 0;
        self.buf.clear();
        self.buf_pos = 0;
        if self.start >= self.end {
            return None;
        }
        (self.next_chunk, self.skip) = self.dir.locate(self.start);
        Some(self.dir.chunks[self.next_chunk].offset)
    }

    /// Take up to `max` unread edges of the range out of the decoded chunk,
    /// decoding the next one with `decode(meta, verify, buf)` when it is
    /// drained; empty at the range end.
    fn take_run(
        &mut self,
        max: usize,
        mut decode: impl FnMut(ChunkMeta, bool, &mut Vec<Edge>) -> io::Result<()>,
    ) -> io::Result<&[Edge]> {
        let left = (self.end - self.start) - self.emitted;
        while left > 0 && self.buf_pos == self.buf.len() {
            let i = self.next_chunk;
            let meta = *self.dir.chunks.get(i).ok_or_else(directory_exhausted)?;
            self.buf.clear();
            self.buf_pos = 0;
            if let Err(e) = decode(meta, !self.verified[i], &mut self.buf) {
                self.buf.clear();
                return Err(e);
            }
            self.verified[i] = true;
            self.next_chunk += 1;
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

/// A stream over edges `[start, end)` of a v2 file, decoding whole chunks
/// through its own file handle and skipping the intra-chunk prefix.
struct V2RangeStream {
    reader: BufReader<File>,
    cursor: ChunkCursor,
    scratch: Vec<u8>,
}

impl V2RangeStream {
    fn take_run(&mut self, max: usize) -> io::Result<&[Edge]> {
        let (reader, scratch) = (&mut self.reader, &mut self.scratch);
        self.cursor.take_run(max, |meta, verify, out| {
            read_chunk_at(reader, meta, verify, scratch, out)
        })
    }
}

impl EdgeStream for V2RangeStream {
    fn reset(&mut self) -> io::Result<()> {
        if let Some(offset) = self.cursor.rewind() {
            self.reader.seek(SeekFrom::Start(offset))?;
        }
        Ok(())
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        Ok(self.take_run(1)?.first().copied())
    }

    fn next_chunk<'a>(&'a mut self, _scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        self.take_run(usize::MAX)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.cursor.end - self.cursor.start)
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.cursor.num_vertices)
    }
}

/// A [`RangedEdgeSource`] over a memory-mapped v1 `.bel` file: one shared
/// read-only mapping, zero-copy range cursors with per-worker offsets.
///
/// Every worker's range stream is a `(start, end, cursor)` triple over the
/// same mapped payload — no per-worker file handles, no read syscalls, no
/// decode buffers. `reset` is a cursor assignment. This is the fastest
/// backend on a warm page cache (the decode copy of the buffered readers
/// disappears); on a cold cache the kernel's readahead (hinted with
/// `madvise(MADV_SEQUENTIAL)`) serves interleaved workers nearly as well as
/// dedicated cursors.
pub struct RangedMmapV1File {
    map: Arc<Mmap>,
    info: GraphInfo,
}

impl RangedMmapV1File {
    /// Map `path` and validate the v1 header.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let map = Mmap::map(&File::open(path.as_ref())?)?;
        let info = v1::read_header(&mut map.as_slice())?;
        v1::check_payload_len(&info, map.len() as u64)?;
        Ok(RangedMmapV1File {
            map: Arc::new(map),
            info,
        })
    }
}

impl RangedEdgeSource for RangedMmapV1File {
    fn info(&self) -> GraphInfo {
        self.info
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        Ok(self.open_range_owned(start, end)?)
    }
}

impl RangedReopen for RangedMmapV1File {
    fn open_range_owned(
        &self,
        start: u64,
        end: u64,
    ) -> io::Result<Box<dyn EdgeStream + Send + 'static>> {
        check_range(start, end, self.info.num_edges)?;
        Ok(Box::new(MmapV1RangeStream {
            map: Arc::clone(&self.map),
            info: self.info,
            start,
            end,
            pos: start,
        }))
    }
}

/// A zero-copy cursor over records `[start, end)` of a shared v1 mapping.
struct MmapV1RangeStream {
    map: Arc<Mmap>,
    info: GraphInfo,
    start: u64,
    end: u64,
    pos: u64,
}

impl EdgeStream for MmapV1RangeStream {
    fn reset(&mut self) -> io::Result<()> {
        self.pos = self.start;
        Ok(())
    }

    #[inline]
    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        if self.pos >= self.end {
            return Ok(None);
        }
        let payload = crate::mmap::v1_payload(&self.map, self.info.num_edges);
        let e = crate::mmap::edge_at(payload, self.pos as usize);
        self.pos += 1;
        Ok(Some(e))
    }

    fn next_chunk<'a>(&'a mut self, scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        let payload = crate::mmap::v1_payload(&self.map, self.info.num_edges);
        Ok(crate::mmap::lend_records(
            payload,
            &mut self.pos,
            self.end,
            scratch,
        ))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.end - self.start)
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.info.num_vertices)
    }
}

/// A [`RangedEdgeSource`] over a memory-mapped v2 chunked file: chunk-index
/// scheduling as in [`RangedV2File`], but chunks are decoded straight out of
/// the shared mapping (checksums still verified) instead of through
/// per-worker file handles.
pub struct RangedMmapV2File {
    map: Arc<Mmap>,
    info: GraphInfo,
    dir: Arc<Directory>,
}

impl RangedMmapV2File {
    /// Map `path`, validating header, index and trailer.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let mut file = File::open(path.as_ref())?;
        let layout = read_layout(&mut file)?;
        Ok(RangedMmapV2File {
            map: Arc::new(Mmap::map(&file)?),
            info: layout.info,
            dir: Directory::new(layout.chunks),
        })
    }
}

impl RangedEdgeSource for RangedMmapV2File {
    fn info(&self) -> GraphInfo {
        self.info
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        Ok(self.open_range_owned(start, end)?)
    }
}

impl RangedReopen for RangedMmapV2File {
    fn open_range_owned(
        &self,
        start: u64,
        end: u64,
    ) -> io::Result<Box<dyn EdgeStream + Send + 'static>> {
        check_range(start, end, self.info.num_edges)?;
        let mut stream = MmapV2RangeStream {
            map: Arc::clone(&self.map),
            cursor: ChunkCursor::new(&self.dir, self.info.num_vertices, start, end),
        };
        stream.reset()?;
        Ok(Box::new(stream))
    }
}

/// A cursor over edges `[start, end)` of a shared v2 mapping, decoding whole
/// chunks from the mapped bytes and skipping the intra-chunk prefix.
struct MmapV2RangeStream {
    map: Arc<Mmap>,
    cursor: ChunkCursor,
}

impl MmapV2RangeStream {
    fn take_run(&mut self, max: usize) -> io::Result<&[Edge]> {
        let bytes = self.map.as_slice();
        self.cursor.take_run(max, |meta, verify, out| {
            decode_chunk_slice(bytes, meta, verify, out)
        })
    }
}

impl EdgeStream for MmapV2RangeStream {
    fn reset(&mut self) -> io::Result<()> {
        self.cursor.rewind();
        Ok(())
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        Ok(self.take_run(1)?.first().copied())
    }

    fn next_chunk<'a>(&'a mut self, _scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        self.take_run(usize::MAX)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.cursor.end - self.cursor.start)
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.cursor.num_vertices)
    }
}

static IO_V2_RANGES_RETAINED: tps_obs::Counter = tps_obs::Counter::new("io.v2.ranges_retained");
static IO_V2_RETAINED_BYTES: tps_obs::Counter = tps_obs::Counter::new("io.v2.retained_bytes");

/// A v2 ranged source that keeps what its cursors decode — the one decoded
/// edge cache of the v2 readers, built on `v2::DecodeCache`.
///
/// The first *complete* pass over `open_range(a, b)` deposits the decoded
/// range with the source, if `8·(b − a)` bytes still fit the decode budget
/// ([`crate::v2::set_decode_cache_budget`]) next to the ranges already
/// retained: one reservation across all of a source's ranges,
/// all-or-nothing per range, taken when the range is opened and given back
/// if its cursor is dropped before completing a pass. The cursor's own next
/// pass, and every later `open_range(a, b)`, lends windows of the retained
/// edges: no file handle, no checksum, no varint decode, no prefetch
/// thread. A retained range is never one that skipped verification — it is
/// what a checksumming cursor produced. Ranges that do not fit are streamed
/// from the inner source on every pass.
///
/// Errors from the inner cursors are prefixed with the file's path.
pub struct RetainingSource<S> {
    inner: S,
    path: Arc<Path>,
    retained: Arc<Mutex<Retained>>,
}

#[derive(Default)]
struct Retained {
    /// `None` while the cursor that reserved the range is still decoding it.
    ranges: HashMap<(u64, u64), Option<Arc<Vec<Edge>>>>,
    /// Bytes reserved: the retained ranges plus the ones being decoded.
    bytes: u64,
}

/// Every update of [`Retained`] is one map operation and one add, so the
/// data is valid even if a holder panicked.
fn lock(retained: &Mutex<Retained>) -> MutexGuard<'_, Retained> {
    retained.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<S: RangedReopen> RetainingSource<S> {
    /// Wrap `inner`, a ranged source over the v2 file at `path`.
    pub fn new(inner: S, path: &Path) -> Self {
        RetainingSource {
            inner,
            path: path.into(),
            retained: Arc::default(),
        }
    }
}

impl<S: RangedReopen> RangedEdgeSource for RetainingSource<S> {
    fn info(&self) -> GraphInfo {
        self.inner.info()
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        Ok(self.open_range_owned(start, end)?)
    }
}

impl<S: RangedReopen> RangedReopen for RetainingSource<S> {
    fn open_range_owned(
        &self,
        start: u64,
        end: u64,
    ) -> io::Result<Box<dyn EdgeStream + Send + 'static>> {
        let range = (start, end);
        let bytes = end.saturating_sub(start).saturating_mul(8);
        let num_vertices = self.inner.info().num_vertices;
        let mut reserved = false;
        {
            let mut retained = lock(&self.retained);
            match retained.ranges.get(&range) {
                Some(Some(edges)) => {
                    return Ok(Box::new(RetainedStream {
                        edges: Arc::clone(edges),
                        num_vertices,
                        pos: 0,
                    }))
                }
                // Another cursor is decoding this range: stream beside it.
                Some(None) => {}
                None => {
                    let fits = retained
                        .bytes
                        .checked_add(bytes)
                        .is_some_and(|total| total <= decode_cache_budget());
                    if start < end && fits {
                        retained.bytes += bytes;
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
            held: reserved,
        };
        let inner = self
            .inner
            .open_range_owned(start, end)
            .map_err(|e| v1::named(&self.path, e))?;
        Ok(Box::new(RetainingStream {
            inner,
            path: Arc::clone(&self.path),
            num_vertices,
            absorbing: Absorbing {
                cache: DecodeCache::new(end - start, reserved),
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
    held: bool,
}

impl Reservation {
    /// The range is complete: other opens may read it from now on.
    fn deposit(&mut self, edges: Arc<Vec<Edge>>) {
        IO_V2_RANGES_RETAINED.incr();
        IO_V2_RETAINED_BYTES.add(edges.len() as u64 * 8);
        lock(&self.retained).ranges.insert(self.range, Some(edges));
        self.held = false;
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        if self.held {
            let mut retained = lock(&self.retained);
            retained.ranges.remove(&self.range);
            retained.bytes -= (self.range.1 - self.range.0) * 8;
        }
    }
}

/// A cursor over a range the source has not retained (yet): streams from
/// the inner cursor, absorbing what it lends if the range was reserved. Once
/// a pass has completed the range, the next `reset` swaps the inner cursor
/// for one over the retained edges (the pass in flight still drains the
/// file cursor, whose buffer it is being lent).
struct RetainingStream {
    inner: Box<dyn EdgeStream + Send>,
    path: Arc<Path>,
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
    deposited: Option<Arc<Vec<Edge>>>,
}

impl Absorbing {
    /// Account for `run` (just lent by the inner cursor) and deposit the
    /// range with the source the moment it is complete.
    fn absorb(&mut self, run: &[Edge]) {
        self.cache.absorb(self.pos, run);
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
            self.inner = Box::new(RetainedStream {
                edges,
                num_vertices: self.num_vertices,
                pos: 0,
            });
        }
        self.inner.reset().map_err(|e| v1::named(&self.path, e))
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        let e = self
            .inner
            .next_edge()
            .map_err(|e| v1::named(&self.path, e))?;
        self.absorbing.absorb(e.as_slice());
        Ok(e)
    }

    fn next_chunk<'a>(&'a mut self, scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        let run = self
            .inner
            .next_chunk(scratch)
            .map_err(|e| v1::named(&self.path, e))?;
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

/// A cursor over a range the source retained: windows of shared memory.
struct RetainedStream {
    edges: Arc<Vec<Edge>>,
    num_vertices: u64,
    pos: usize,
}

impl EdgeStream for RetainedStream {
    fn reset(&mut self) -> io::Result<()> {
        self.pos = 0;
        Ok(())
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        let e = self.edges.get(self.pos).copied();
        self.pos += usize::from(e.is_some());
        Ok(e)
    }

    fn next_chunk<'a>(&'a mut self, _scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        Ok(lend_run(&self.edges, &mut self.pos))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.edges.len() as u64)
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.num_vertices)
    }
}

/// Open `path` (v1 or v2, sniffed by magic) as a source of owned cursors
/// read through `backend`; a v2 source retains the ranges it decodes (see
/// [`RetainingSource`]).
pub(crate) fn open_file(path: &Path, backend: ReaderBackend) -> io::Result<Box<dyn RangedReopen>> {
    Ok(match (crate::detect_format(path)?, backend) {
        (EdgeFileFormat::V1, ReaderBackend::Buffered) => Box::new(RangedV1File::open(path)?),
        (EdgeFileFormat::V1, ReaderBackend::Mmap) => Box::new(RangedMmapV1File::open(path)?),
        (EdgeFileFormat::V1, ReaderBackend::Prefetch) => {
            Box::new(RangedPrefetchSource::new(RangedV1File::open(path)?))
        }
        (EdgeFileFormat::V2, ReaderBackend::Buffered) => {
            Box::new(RetainingSource::new(RangedV2File::open(path)?, path))
        }
        (EdgeFileFormat::V2, ReaderBackend::Mmap) => {
            Box::new(RetainingSource::new(RangedMmapV2File::open(path)?, path))
        }
        (EdgeFileFormat::V2, ReaderBackend::Prefetch) => Box::new(RetainingSource::new(
            RangedPrefetchSource::new(RangedV2File::open(path)?),
            path,
        )),
    })
}

/// Open `path` (v1 or v2, sniffed by magic) as a ranged source with the
/// requested [`ReaderBackend`]: what every path input of a job runs over.
pub fn open_ranged_backend<P: AsRef<Path>>(
    path: P,
    backend: ReaderBackend,
) -> io::Result<Box<dyn RangedEdgeSource>> {
    let source: Box<dyn RangedEdgeSource> = open_file(path.as_ref(), backend)?;
    Ok(source)
}

/// [`open_ranged_backend`] with the buffered backend.
pub fn open_ranged<P: AsRef<Path>>(path: P) -> io::Result<Box<dyn RangedEdgeSource>> {
    open_ranged_backend(path, ReaderBackend::Buffered)
}

/// Wraps a ranged source so each range stream is served by a background
/// prefetch thread (double-buffered, see [`crate::prefetch`]): chunk decode
/// and disk reads overlap with the consumer's partitioning work, per worker.
pub struct RangedPrefetchSource<S> {
    inner: S,
    config: PrefetchConfig,
}

impl<S: RangedReopen> RangedPrefetchSource<S> {
    /// Wrap `inner` with the default prefetch configuration.
    pub fn new(inner: S) -> Self {
        RangedPrefetchSource {
            inner,
            config: PrefetchConfig::default(),
        }
    }

    /// Wrap `inner` with an explicit prefetch configuration.
    pub fn with_config(inner: S, config: PrefetchConfig) -> Self {
        RangedPrefetchSource { inner, config }
    }
}

/// Adapts one owned range stream into a [`ChunkSource`] feeding a prefetch
/// worker.
struct RangeChunkSource {
    stream: Box<dyn EdgeStream + Send + 'static>,
    /// For a stream without a bulk read of its own; the file streams lend.
    scratch: Vec<Edge>,
}

impl ChunkSource for RangeChunkSource {
    fn reset(&mut self) -> io::Result<()> {
        self.stream.reset()
    }

    fn fill_chunk(&mut self, buf: &mut Vec<Edge>, max_edges: usize) -> io::Result<usize> {
        // A lent run is taken whole, so a fill may overshoot `max_edges` by
        // less than one run (one block of v1 records, one v2 chunk).
        while buf.len() < max_edges {
            let run = self.stream.next_chunk(&mut self.scratch)?;
            if run.is_empty() {
                break;
            }
            buf.extend_from_slice(run);
        }
        Ok(buf.len())
    }

    fn info(&self) -> Option<GraphInfo> {
        Some(GraphInfo {
            num_vertices: self.stream.num_vertices_hint()?,
            num_edges: self.stream.len_hint()?,
        })
    }
}

impl<S: RangedReopen> RangedEdgeSource for RangedPrefetchSource<S> {
    fn info(&self) -> GraphInfo {
        self.inner.info()
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        Ok(self.open_range_owned(start, end)?)
    }
}

impl<S: RangedReopen> RangedReopen for RangedPrefetchSource<S> {
    fn open_range_owned(
        &self,
        start: u64,
        end: u64,
    ) -> io::Result<Box<dyn EdgeStream + Send + 'static>> {
        let stream = self.inner.open_range_owned(start, end)?;
        Ok(Box::new(PrefetchReader::new(
            RangeChunkSource {
                stream,
                scratch: Vec::new(),
            },
            self.config,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let src = RangedV1File::open(&path).unwrap();
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
            let src = RangedV2File::open(&path).unwrap();
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
        let src = RangedV2File::open(&path).unwrap();
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

    #[test]
    fn prefetch_wrapped_ranges_match_plain_ranges() {
        let es = edges(8_000);
        let p1 = tmpfile("pf", "bel");
        let p2 = tmpfile("pf", "bel2");
        write_binary_edge_list(&p1, 4096, es.iter().copied()).unwrap();
        crate::v2::write_v2_edge_list(&p2, 4096, es.iter().copied(), 1000).unwrap();

        let v1 = RangedPrefetchSource::new(RangedV1File::open(&p1).unwrap());
        let v2 = RangedPrefetchSource::new(RangedV2File::open(&p2).unwrap());
        for (a, b) in split_even(8_000, 4) {
            let mut s1 = v1.open_range(a, b).unwrap();
            let mut s2 = v2.open_range(a, b).unwrap();
            assert_eq!(collect(&mut *s1), &es[a as usize..b as usize]);
            assert_eq!(collect(&mut *s2), &es[a as usize..b as usize]);
        }
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn mmap_ranges_match_buffered_ranges_both_formats() {
        let es = edges(6_000);
        let p1 = tmpfile("mm", "bel");
        let p2 = tmpfile("mm", "bel2");
        write_binary_edge_list(&p1, 4096, es.iter().copied()).unwrap();
        crate::v2::write_v2_edge_list(&p2, 4096, es.iter().copied(), 777).unwrap();
        for p in [&p1, &p2] {
            let src = open_ranged_backend(p, ReaderBackend::Mmap).unwrap();
            assert_eq!(src.info().num_edges, 6_000);
            for parts in [1usize, 3, 5] {
                let mut seen = Vec::new();
                for (a, b) in split_even(6_000, parts) {
                    let mut s = src.open_range(a, b).unwrap();
                    seen.extend(collect(&mut *s));
                }
                assert_eq!(seen, es, "{p:?} parts {parts}");
            }
            // Mid-range reset rewinds to the range start, not the file start.
            let mut s = src.open_range(1_000, 2_500).unwrap();
            let first = collect(&mut *s);
            assert_eq!(first, collect(&mut *s));
            assert_eq!(first[0], es[1_000]);
            // Out-of-bounds ranges rejected like every other backend.
            assert!(src.open_range(0, 6_001).is_err());
        }
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn mmap_rejects_absurd_header_edge_counts() {
        // A header promising 2^61 edges would wrap the size multiply;
        // both mmap openers must report corruption, not panic later.
        let path = tmpfile("absurd", "bel");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&tps_graph::formats::binary::MAGIC);
        bytes.extend_from_slice(&8u64.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 61).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(RangedMmapV1File::open(&path).is_err());
        assert!(crate::open_edge_stream(&path, ReaderBackend::Mmap).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backend_dispatch_opens_all_three() {
        let es = edges(500);
        let path = tmpfile("dispatch", "bel");
        write_binary_edge_list(&path, 4096, es.iter().copied()).unwrap();
        for backend in ReaderBackend::ALL {
            let src = open_ranged_backend(&path, backend).unwrap();
            let mut s = src.open_range(100, 200).unwrap();
            assert_eq!(collect(&mut *s), &es[100..200], "{backend:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_bounds_ranges_rejected() {
        let es = edges(100);
        let path = tmpfile("oob", "bel");
        write_binary_edge_list(&path, 4096, es.iter().copied()).unwrap();
        let src = RangedV1File::open(&path).unwrap();
        assert!(src.open_range(0, 101).is_err());
        assert!(src.open_range(60, 50).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_range_yields_nothing() {
        let es = edges(100);
        let path = tmpfile("emptyrange", "bel2");
        crate::v2::write_v2_edge_list(&path, 4096, es.iter().copied(), 32).unwrap();
        let src = RangedV2File::open(&path).unwrap();
        let mut s = src.open_range(50, 50).unwrap();
        assert_eq!(s.next_edge().unwrap(), None);
        std::fs::remove_file(&path).ok();
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
        let file = RangedV2File::open(&path).unwrap();
        let mapped = RangedMmapV2File::open(&path).unwrap();
        let sources: [&dyn RangedEdgeSource; 2] = [&file, &mapped];
        let mut cursors: Vec<_> = sources.map(|s| s.open_range(0, 2_000).unwrap()).into();
        for cursor in &mut cursors {
            assert_eq!(collect(&mut **cursor), es);
        }
        // Edge 0 is (0, 7): rewrite its source as another one-byte varint,
        // so chunk 0 still decodes but no longer matches its checksum.
        let at = HEADER_LEN_V2 + CHUNK_HEADER_LEN;
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(&[0x01], at).unwrap();
        for cursor in &mut cursors {
            let again = collect(&mut **cursor);
            assert_eq!(again[0], Edge::new(1, 7));
            assert_eq!(again[1..], es[1..]);
        }
        for source in sources {
            let err = for_each_edge(&mut *source.open_range(0, 2_000).unwrap(), |_| {})
                .expect_err("a fresh cursor verifies");
            assert!(err.to_string().contains("checksum"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }
}
