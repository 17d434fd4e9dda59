//! Range-addressable file sources — chunk-range scheduling for the
//! chunk-parallel partitioner.
//!
//! Implements [`RangedEdgeSource`] (see `tps_graph::ranged`) for both
//! on-disk formats, so `tps-core`'s `ParallelRunner` can open one
//! independent cursor per worker thread:
//!
//! * **v1** (`TPSBEL1`) — records are fixed-width, so a range `[a, b)` is a
//!   single seek to `HEADER + 8·a` and a countdown.
//! * **v2** (`TPSBEL2`) — the chunk **index footer** is read once at open
//!   and a prefix-sum over per-chunk edge counts is kept; a range cursor
//!   binary-searches the chunk containing its start edge, decodes whole
//!   chunks (checksums verified as in a sequential pass) and skips the
//!   intra-chunk prefix. Workers therefore schedule disjoint chunk ranges
//!   off one shared index with no coordination. Every v2 backend sits
//!   behind a [`RetainingSource`]: the first complete pass over a range
//!   leaves the decoded edges with the source (while they fit the decode
//!   budget), and every later open of that range reads them from memory —
//!   a worker opens its range six times and decodes it once.
//!
//! Ranges are expressed in *edge indices*, not storage offsets, so a
//! parallel partitioning run makes identical per-thread decisions whether
//! the graph lives in memory, in a v1 file or in a v2 file.
//!
//! [`open_ranged`] is the front door (format sniffing via
//! [`crate::detect_format`]). [`RangedPrefetchSource`] wraps either source
//! so each worker's range stream is additionally double-buffered by a
//! background reader thread ([`crate::prefetch`]), overlapping chunk decode
//! and disk I/O with partitioning CPU per worker.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufReader, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tps_graph::formats::binary::{self as v1, BinaryEdgeFile};
use tps_graph::ranged::{check_range, RangedEdgeSource};
use tps_graph::stream::{lend_run, EdgeStream};
use tps_graph::types::{Edge, GraphInfo};

use crate::prefetch::{ChunkSource, PrefetchConfig, PrefetchReader};
use crate::v2::{
    decode_cache_budget, read_chunk_at, read_layout, ChunkMeta, DecodeCache, V2Layout,
};
use crate::EdgeFileFormat;

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

    fn open_range_stream(&self, start: u64, end: u64) -> io::Result<BinaryEdgeFile> {
        BinaryEdgeFile::open_range(&self.path, start, end)
    }
}

impl RangedEdgeSource for RangedV1File {
    fn info(&self) -> GraphInfo {
        self.info
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        Ok(Box::new(self.open_range_stream(start, end)?))
    }
}

/// A [`RangedEdgeSource`] over a v2 chunked file, scheduling chunk ranges
/// off the shared index footer.
pub struct RangedV2File {
    path: PathBuf,
    layout: V2Layout,
    /// `cum[i]` = edges in chunks `0..i`; `cum[num_chunks]` = `|E|`.
    cum: Vec<u64>,
}

impl RangedV2File {
    /// Open `path`, validating header, index and trailer.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let layout = read_layout(&mut file)?;
        let mut cum = Vec::with_capacity(layout.chunks.len() + 1);
        let mut total = 0u64;
        cum.push(0);
        for c in &layout.chunks {
            total += c.edge_count as u64;
            cum.push(total);
        }
        Ok(RangedV2File { path, layout, cum })
    }

    /// The chunk directory (shared, read-only — workers schedule off it).
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.layout.chunks
    }

    fn open_range_with<C, U>(
        &self,
        chunks: C,
        cum: U,
        start: u64,
        end: u64,
    ) -> io::Result<V2RangeStream<C, U>>
    where
        C: AsRef<[ChunkMeta]>,
        U: AsRef<[u64]>,
    {
        check_range(start, end, self.layout.info.num_edges)?;
        let file = File::open(&self.path)?;
        let verified = vec![false; chunks.as_ref().len()];
        let mut stream = V2RangeStream {
            reader: BufReader::with_capacity(1 << 16, file),
            chunks,
            cum,
            start,
            end,
            next_chunk: 0,
            emitted: 0,
            scratch: Vec::new(),
            buf: Vec::new(),
            buf_pos: 0,
            verified,
        };
        stream.rewind()?;
        Ok(stream)
    }
}

impl RangedEdgeSource for RangedV2File {
    fn info(&self) -> GraphInfo {
        self.layout.info
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        Ok(Box::new(self.open_range_with(
            self.layout.chunks.as_slice(),
            self.cum.as_slice(),
            start,
            end,
        )?))
    }
}

/// Hand out up to `max` of the `left` edges a v2 range cursor still owes,
/// from the unread part of its decoded chunk (shared by the file-backed and
/// the mapped cursor).
fn take_decoded<'a>(
    decoded: &'a [Edge],
    pos: &mut usize,
    emitted: &mut u64,
    left: u64,
    max: usize,
) -> &'a [Edge] {
    let n = (decoded.len() - *pos)
        .min(max)
        .min(usize::try_from(left).unwrap_or(usize::MAX));
    let run = &decoded[*pos..*pos + n];
    *pos += n;
    *emitted += n as u64;
    run
}

fn directory_exhausted() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "v2 chunk directory exhausted before range end",
    )
}

/// A stream over edges `[start, end)` of a v2 file, decoding whole chunks
/// and skipping the intra-chunk prefix. Generic over borrowed or owned
/// chunk-directory storage (owned streams can migrate to a prefetch
/// thread).
struct V2RangeStream<C, U> {
    reader: BufReader<File>,
    chunks: C,
    cum: U,
    start: u64,
    end: u64,
    /// Next chunk index to decode sequentially.
    next_chunk: usize,
    /// Edges already handed out of this range.
    emitted: u64,
    scratch: Vec<u8>,
    buf: Vec<Edge>,
    buf_pos: usize,
    /// Chunks whose checksum this cursor already verified — multi-pass
    /// workers (`reset` + re-stream) decode proven chunks checksum-free.
    verified: Vec<bool>,
}

impl<C: AsRef<[ChunkMeta]>, U: AsRef<[u64]>> V2RangeStream<C, U> {
    /// Position at the chunk containing `start` and skip the intra-chunk
    /// prefix (decoding is chunk-at-a-time; varints cannot be entered
    /// mid-stream).
    fn rewind(&mut self) -> io::Result<()> {
        self.emitted = 0;
        self.buf.clear();
        self.buf_pos = 0;
        if self.start >= self.end || self.chunks.as_ref().is_empty() {
            return Ok(());
        }
        // Last chunk whose cumulative start is <= `start`.
        self.next_chunk = self
            .cum
            .as_ref()
            .partition_point(|&c| c <= self.start)
            .saturating_sub(1);
        self.reader.seek(SeekFrom::Start(
            self.chunks.as_ref()[self.next_chunk].offset,
        ))?;
        let skip = self.start - self.cum.as_ref()[self.next_chunk];
        self.decode_next_chunk()?;
        self.buf_pos = skip as usize;
        Ok(())
    }

    /// Decode chunk `next_chunk` into `buf` and advance the counter.
    fn decode_next_chunk(&mut self) -> io::Result<()> {
        let meta = self.chunks.as_ref()[self.next_chunk];
        self.buf.clear();
        self.buf_pos = 0;
        let verify = !self.verified[self.next_chunk];
        let mut buf = std::mem::take(&mut self.buf);
        let r = read_chunk_at(&mut self.reader, meta, verify, &mut self.scratch, &mut buf);
        self.buf = buf;
        r?;
        self.verified[self.next_chunk] = true;
        self.next_chunk += 1;
        Ok(())
    }

    /// Take up to `max` unread edges of the range out of the decoded chunk
    /// (decoding the next one when it is drained); empty at the range end.
    fn take_run(&mut self, max: usize) -> io::Result<&[Edge]> {
        let left = (self.end - self.start) - self.emitted;
        while left > 0 && self.buf_pos == self.buf.len() {
            if self.next_chunk >= self.chunks.as_ref().len() {
                return Err(directory_exhausted());
            }
            self.decode_next_chunk()?;
        }
        Ok(take_decoded(
            &self.buf,
            &mut self.buf_pos,
            &mut self.emitted,
            left,
            max,
        ))
    }
}

impl<C: AsRef<[ChunkMeta]>, U: AsRef<[u64]>> EdgeStream for V2RangeStream<C, U> {
    fn reset(&mut self) -> io::Result<()> {
        self.rewind()
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
}

/// A [`RangedEdgeSource`] over a memory-mapped v1 `.bel` file: one shared
/// read-only mapping, zero-copy range cursors with per-worker offsets.
///
/// Every worker's range stream is a `(start, end, cursor)` triple over the
/// same mapped payload — no per-worker file handles, no read syscalls, no
/// decode buffers. `reset` is a cursor assignment. This is the fastest
/// parallel backend on a warm page cache (the decode copy of the buffered
/// readers disappears); on a cold cache the kernel's readahead serves
/// interleaved workers nearly as well as dedicated cursors.
pub struct RangedMmapV1File {
    map: crate::mmap::Mmap,
    info: GraphInfo,
}

impl RangedMmapV1File {
    /// Map `path` and validate the v1 header.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::open(path.as_ref())?;
        let map = crate::mmap::Mmap::map(&file)?;
        let mut cursor = map.as_slice();
        let info = v1::read_header(&mut cursor)?;
        v1::check_payload_len(&info, map.as_slice().len() as u64)?;
        Ok(RangedMmapV1File { map, info })
    }
}

impl RangedEdgeSource for RangedMmapV1File {
    fn info(&self) -> GraphInfo {
        self.info
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        check_range(start, end, self.info.num_edges)?;
        Ok(Box::new(MmapV1RangeStream {
            payload: crate::mmap::v1_payload(&self.map, self.info.num_edges),
            start,
            end,
            pos: start,
        }))
    }
}

/// A zero-copy cursor over records `[start, end)` of a shared v1 mapping.
struct MmapV1RangeStream<'a> {
    payload: &'a [u8],
    start: u64,
    end: u64,
    pos: u64,
}

impl EdgeStream for MmapV1RangeStream<'_> {
    fn reset(&mut self) -> io::Result<()> {
        self.pos = self.start;
        Ok(())
    }

    #[inline]
    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        if self.pos >= self.end {
            return Ok(None);
        }
        let e = crate::mmap::edge_at(self.payload, self.pos as usize);
        self.pos += 1;
        Ok(Some(e))
    }

    fn next_chunk<'a>(&'a mut self, scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        Ok(crate::mmap::lend_records(
            self.payload,
            &mut self.pos,
            self.end,
            scratch,
        ))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.end - self.start)
    }
}

/// A [`RangedEdgeSource`] over a memory-mapped v2 chunked file: chunk-index
/// scheduling as in [`RangedV2File`], but chunks are decoded straight out of
/// the shared mapping (checksums still verified) instead of through
/// per-worker file handles.
pub struct RangedMmapV2File {
    map: crate::mmap::Mmap,
    layout: V2Layout,
    /// `cum[i]` = edges in chunks `0..i`; `cum[num_chunks]` = `|E|`.
    cum: Vec<u64>,
}

impl RangedMmapV2File {
    /// Map `path`, validating header, index and trailer.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let mut file = File::open(path.as_ref())?;
        let layout = read_layout(&mut file)?;
        let map = crate::mmap::Mmap::map(&file)?;
        let mut cum = Vec::with_capacity(layout.chunks.len() + 1);
        let mut total = 0u64;
        cum.push(0);
        for c in &layout.chunks {
            total += c.edge_count as u64;
            cum.push(total);
        }
        Ok(RangedMmapV2File { map, layout, cum })
    }
}

impl RangedEdgeSource for RangedMmapV2File {
    fn info(&self) -> GraphInfo {
        self.layout.info
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        check_range(start, end, self.layout.info.num_edges)?;
        let mut stream = MmapV2RangeStream {
            bytes: self.map.as_slice(),
            chunks: &self.layout.chunks,
            cum: &self.cum,
            start,
            end,
            next_chunk: 0,
            emitted: 0,
            buf: Vec::new(),
            buf_pos: 0,
            verified: vec![false; self.layout.chunks.len()],
        };
        stream.rewind()?;
        Ok(Box::new(stream))
    }
}

/// A cursor over edges `[start, end)` of a shared v2 mapping, decoding whole
/// chunks from the mapped bytes and skipping the intra-chunk prefix.
struct MmapV2RangeStream<'a> {
    bytes: &'a [u8],
    chunks: &'a [ChunkMeta],
    cum: &'a [u64],
    start: u64,
    end: u64,
    next_chunk: usize,
    emitted: u64,
    buf: Vec<Edge>,
    buf_pos: usize,
    /// Chunks whose checksum this cursor already verified (see
    /// [`V2RangeStream::verified`]).
    verified: Vec<bool>,
}

impl MmapV2RangeStream<'_> {
    fn rewind(&mut self) -> io::Result<()> {
        self.emitted = 0;
        self.buf.clear();
        self.buf_pos = 0;
        if self.start >= self.end || self.chunks.is_empty() {
            return Ok(());
        }
        self.next_chunk = self
            .cum
            .partition_point(|&c| c <= self.start)
            .saturating_sub(1);
        let skip = self.start - self.cum[self.next_chunk];
        self.decode_next_chunk()?;
        self.buf_pos = skip as usize;
        Ok(())
    }

    fn decode_next_chunk(&mut self) -> io::Result<()> {
        self.buf.clear();
        self.buf_pos = 0;
        let verify = !self.verified[self.next_chunk];
        crate::v2::decode_chunk_slice(
            self.bytes,
            self.chunks[self.next_chunk],
            verify,
            &mut self.buf,
        )?;
        self.verified[self.next_chunk] = true;
        self.next_chunk += 1;
        Ok(())
    }

    /// Take up to `max` unread edges of the range out of the decoded chunk
    /// (decoding the next one when it is drained); empty at the range end.
    fn take_run(&mut self, max: usize) -> io::Result<&[Edge]> {
        let left = (self.end - self.start) - self.emitted;
        while left > 0 && self.buf_pos == self.buf.len() {
            if self.next_chunk >= self.chunks.len() {
                return Err(directory_exhausted());
            }
            self.decode_next_chunk()?;
        }
        Ok(take_decoded(
            &self.buf,
            &mut self.buf_pos,
            &mut self.emitted,
            left,
            max,
        ))
    }
}

impl EdgeStream for MmapV2RangeStream<'_> {
    fn reset(&mut self) -> io::Result<()> {
        self.rewind()
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
}

static IO_V2_RANGES_RETAINED: tps_obs::Counter = tps_obs::Counter::new("io.v2.ranges_retained");
static IO_V2_RETAINED_BYTES: tps_obs::Counter = tps_obs::Counter::new("io.v2.retained_bytes");

/// A v2 ranged source that keeps what its cursors decode — the ranged
/// counterpart of the sequential readers' decode cache, and built on the
/// same `v2::DecodeCache`.
///
/// The first *complete* pass over `open_range(a, b)` deposits the decoded
/// range with the source, if `8·(b − a)` bytes still fit the decode budget
/// ([`crate::v2::set_decode_cache_budget`]) next to the ranges already
/// retained: one reservation across all of a source's ranges,
/// all-or-nothing per range, taken when the range is opened and given back
/// if its cursor is dropped before completing a pass. Every later
/// `open_range(a, b)` lends windows of the retained edges: no file handle,
/// no checksum, no varint decode, no prefetch thread. A retained range is
/// never one that skipped verification — it is what a checksumming cursor
/// produced. Ranges that do not fit are streamed from the inner source on
/// every open, as before.
///
/// Errors from the inner cursors are prefixed with the file's path.
pub struct RetainingSource<S> {
    inner: S,
    path: PathBuf,
    retained: Mutex<Retained>,
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

impl<S: RangedEdgeSource> RetainingSource<S> {
    /// Wrap `inner`, a ranged source over the v2 file at `path`.
    pub fn new(inner: S, path: &Path) -> Self {
        RetainingSource {
            inner,
            path: path.to_path_buf(),
            retained: Mutex::default(),
        }
    }
}

impl<S: RangedEdgeSource> RangedEdgeSource for RetainingSource<S> {
    fn info(&self) -> GraphInfo {
        self.inner.info()
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        let range = (start, end);
        let bytes = end.saturating_sub(start).saturating_mul(8);
        let mut reserved = false;
        {
            let mut retained = lock(&self.retained);
            match retained.ranges.get(&range) {
                Some(Some(edges)) => {
                    return Ok(Box::new(RetainedStream {
                        edges: Arc::clone(edges),
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
            retained: &self.retained,
            range,
            held: reserved,
        };
        let inner = self
            .inner
            .open_range(start, end)
            .map_err(|e| v1::named(&self.path, e))?;
        Ok(Box::new(RetainingStream {
            inner,
            path: &self.path,
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
struct Reservation<'s> {
    retained: &'s Mutex<Retained>,
    range: (u64, u64),
    held: bool,
}

impl Reservation<'_> {
    /// The range is complete: other opens may read it from now on.
    fn deposit(&mut self, edges: Arc<Vec<Edge>>) {
        IO_V2_RANGES_RETAINED.incr();
        IO_V2_RETAINED_BYTES.add(edges.len() as u64 * 8);
        lock(self.retained).ranges.insert(self.range, Some(edges));
        self.held = false;
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if self.held {
            let mut retained = lock(self.retained);
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
struct RetainingStream<'s> {
    inner: Box<dyn EdgeStream + 's>,
    path: &'s Path,
    absorbing: Absorbing<'s>,
}

/// What a [`RetainingStream`] keeps beside its inner cursor.
struct Absorbing<'s> {
    cache: DecodeCache,
    reservation: Reservation<'s>,
    /// Edges handed out this pass.
    pos: usize,
    /// The range, from the moment this cursor completed and deposited it
    /// until its next `reset`.
    deposited: Option<Arc<Vec<Edge>>>,
}

impl Absorbing<'_> {
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

impl EdgeStream for RetainingStream<'_> {
    fn reset(&mut self) -> io::Result<()> {
        self.absorbing.pos = 0;
        if let Some(edges) = self.absorbing.deposited.take() {
            self.inner = Box::new(RetainedStream { edges, pos: 0 });
        }
        self.inner.reset().map_err(|e| v1::named(self.path, e))
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        let e = self
            .inner
            .next_edge()
            .map_err(|e| v1::named(self.path, e))?;
        self.absorbing.absorb(e.as_slice());
        Ok(e)
    }

    fn next_chunk<'a>(&'a mut self, scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        let run = self
            .inner
            .next_chunk(scratch)
            .map_err(|e| v1::named(self.path, e))?;
        self.absorbing.absorb(run);
        Ok(run)
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

/// A cursor over a range the source retained: windows of shared memory.
struct RetainedStream {
    edges: Arc<Vec<Edge>>,
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
}

/// Open `path` (v1 or v2, sniffed by magic) as a ranged source; a v2
/// source retains the ranges it decodes (see [`RetainingSource`]).
pub fn open_ranged<P: AsRef<Path>>(path: P) -> io::Result<Box<dyn RangedEdgeSource>> {
    let path = path.as_ref();
    match crate::detect_format(path)? {
        EdgeFileFormat::V1 => Ok(Box::new(RangedV1File::open(path)?)),
        EdgeFileFormat::V2 => Ok(Box::new(RetainingSource::new(
            RangedV2File::open(path)?,
            path,
        ))),
    }
}

/// Like [`open_ranged`], serving every range as a zero-copy (v1) or
/// in-mapping-decoded, retained (v2) cursor over one shared memory mapping.
pub fn open_ranged_mmap<P: AsRef<Path>>(path: P) -> io::Result<Box<dyn RangedEdgeSource>> {
    let path = path.as_ref();
    match crate::detect_format(path)? {
        EdgeFileFormat::V1 => Ok(Box::new(RangedMmapV1File::open(path)?)),
        EdgeFileFormat::V2 => Ok(Box::new(RetainingSource::new(
            RangedMmapV2File::open(path)?,
            path,
        ))),
    }
}

/// Open `path` as a ranged source with the requested [`ReaderBackend`](crate::ReaderBackend) —
/// the parallel/distributed analogue of [`crate::open_edge_stream`].
pub fn open_ranged_backend<P: AsRef<Path>>(
    path: P,
    backend: crate::ReaderBackend,
) -> io::Result<Box<dyn RangedEdgeSource>> {
    match backend {
        crate::ReaderBackend::Buffered => open_ranged(path),
        crate::ReaderBackend::Mmap => open_ranged_mmap(path),
        crate::ReaderBackend::Prefetch => open_ranged_prefetch(path),
    }
}

/// Like [`open_ranged`], with every range stream double-buffered by a
/// background prefetch thread.
pub fn open_ranged_prefetch<P: AsRef<Path>>(path: P) -> io::Result<Box<dyn RangedEdgeSource>> {
    let path = path.as_ref();
    match crate::detect_format(path)? {
        EdgeFileFormat::V1 => Ok(Box::new(RangedPrefetchSource::new(RangedV1File::open(
            path,
        )?))),
        EdgeFileFormat::V2 => Ok(Box::new(RetainingSource::new(
            RangedPrefetchSource::new(RangedV2File::open(path)?),
            path,
        ))),
    }
}

/// Sources that can open an *owned* (`'static` + [`Send`]) range stream, as
/// required to move the stream onto a prefetch worker thread.
pub trait RangedReopen {
    /// Open `[start, end)` as an owned stream (fresh file handle, owned
    /// metadata).
    fn open_range_owned(
        &self,
        start: u64,
        end: u64,
    ) -> io::Result<Box<dyn EdgeStream + Send + 'static>>;
}

impl RangedReopen for RangedV1File {
    fn open_range_owned(
        &self,
        start: u64,
        end: u64,
    ) -> io::Result<Box<dyn EdgeStream + Send + 'static>> {
        Ok(Box::new(self.open_range_stream(start, end)?))
    }
}

impl RangedReopen for RangedV2File {
    fn open_range_owned(
        &self,
        start: u64,
        end: u64,
    ) -> io::Result<Box<dyn EdgeStream + Send + 'static>> {
        Ok(Box::new(self.open_range_with(
            self.layout.chunks.clone(),
            self.cum.clone(),
            start,
            end,
        )?))
    }
}

/// Wraps a ranged source so each range stream is served by a background
/// prefetch thread (double-buffered, see [`crate::prefetch`]): chunk decode
/// and disk reads overlap with the consumer's partitioning work, per worker.
pub struct RangedPrefetchSource<S> {
    inner: S,
    config: PrefetchConfig,
}

impl<S: RangedEdgeSource + RangedReopen> RangedPrefetchSource<S> {
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
}

impl<S: RangedEdgeSource + RangedReopen> RangedEdgeSource for RangedPrefetchSource<S> {
    fn info(&self) -> GraphInfo {
        self.inner.info()
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
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
            let src = open_ranged_mmap(p).unwrap();
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
        assert!(crate::mmap::MmapEdgeFile::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backend_dispatch_opens_all_three() {
        let es = edges(500);
        let path = tmpfile("dispatch", "bel");
        write_binary_edge_list(&path, 4096, es.iter().copied()).unwrap();
        for backend in crate::ReaderBackend::ALL {
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
}
