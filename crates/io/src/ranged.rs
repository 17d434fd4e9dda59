//! Range-addressable file sources: every file input is read through one
//! [`RangedFile`], the whole file being range `0..|E|`.
//!
//! A file is a run of *blocks* that a cursor decodes whole, and the
//! layouts differ only in where the blocks lie and how one decodes:
//!
//! * **v1** (`TPSBEL1`) — records are fixed-width, so block `i` is records
//!   `[i·CHUNK_EDGES, …)`, found by arithmetic and copied straight into the
//!   cursor's edge buffer.
//! * **v2** (`TPSBEL2`) — the chunk **index footer** is read once at open
//!   and a prefix sum over per-chunk edge counts is kept; block `i` is
//!   chunk `i`, varint-decoded with its checksum verified once per cursor.
//! * **spill** — a v2 range a [`RetainingSource`] kept: block `i` is edges
//!   `[i·CHUNK_EDGES, …)` of the range, packed in the bits their ids need
//!   in a temporary file, unpacked with its checksum verified once per
//!   cursor.
//!
//! The bytes come from positioned reads through one file handle, so
//! cursors share it. A range cursor finds the block holding its start edge,
//! decodes whole blocks and skips the intra-block prefix; cursors schedule
//! disjoint ranges off the one shared layout with no coordination. A v2
//! file sits behind a [`RetainingSource`]: the first complete pass over a
//! range spills the decoded edges, packed, to an unlinked file in the
//! source's spill directory, and every later pass or open of that range
//! reads the spill instead of decoding the file again.
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
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tps_graph::formats::binary::{self as v1, EDGE_RECORD_LEN, HEADER_LEN};
use tps_graph::ranged::{check_range, RangedEdgeSource};
use tps_graph::stream::{EdgeStream, CHUNK_EDGES};
use tps_graph::types::{Edge, GraphInfo};

use crate::page::page_checksum;
use crate::v2::{
    decode_chunk, invalid, read_layout, ChunkMeta, Packing, CHUNK_HEADER_LEN, PACK_PAD,
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
    /// A spilled range of `num_edges` edges: block `i` is its edges
    /// `[i·CHUNK_EDGES, …)` packed by `packing` (see [`spill_block`]),
    /// `sums[i]` the block's checksum.
    Spill {
        num_edges: u64,
        packing: Packing,
        sums: Vec<u64>,
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
            Layout::Spill { sums, .. } => sums.len(),
        }
    }

    /// The block holding edge `start` (`< |E|`), and how many of its edges
    /// come before it.
    fn locate(&self, start: u64) -> (usize, usize) {
        match self {
            Layout::V1 { .. } | Layout::Spill { .. } => {
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

/// Block `i` of a spilled range of `num_edges` edges: its byte offset in
/// the spill, its packed bytes (no pad) and its edges. Every block but the
/// last holds [`CHUNK_EDGES`] edges, which end on a byte.
fn spill_block(packing: Packing, num_edges: u64, i: usize) -> (u64, usize, usize) {
    let first = i as u64 * CHUNK_EDGES as u64;
    let edges = (num_edges - first).min(CHUNK_EDGES as u64);
    let bytes = |n| packing.span_bytes(n).expect("a block's bytes fit");
    (bytes(first), bytes(edges) as usize, edges as usize)
}

/// An open edge file: what a [`RangedFile`] and all its cursors share. A
/// spill is one too, `path` naming the input it holds a range of.
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
        Ok(ChunkCursor::open(Arc::clone(&self.0), start, end))
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
    /// A v2 chunk's or a spilled block's bytes.
    scratch: Vec<u8>,
    /// Blocks this cursor already decoded once — multi-pass consumers
    /// (`reset` + re-stream) decode proven blocks checksum-free.
    verified: Vec<bool>,
}

impl ChunkCursor {
    /// A cursor over `[start, end)` (a valid range) of `file`.
    fn open(file: Arc<EdgeFile>, start: u64, end: u64) -> Box<Self> {
        let mut cursor = ChunkCursor {
            verified: vec![false; file.layout.blocks()],
            file,
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
        Box::new(cursor)
    }

    /// Start a pass: aim at the block containing `start`, to be decoded —
    /// and its intra-block prefix skipped — when the pass first reads.
    fn rewind(&mut self) {
        self.emitted = 0;
        self.buf_pos = self.buf.len();
        if self.start < self.end {
            (self.next_block, self.skip) = self.file.layout.locate(self.start);
        }
    }

    /// Decode block `i` into the buffer: a v1 block's records are read
    /// straight into it, a v2 chunk is decoded out of its bytes, checksum
    /// verified if `verify` — both into the emptied buffer — and a spilled
    /// block is unpacked out of its bytes over the last block's edges,
    /// with no fill before.
    fn decode(&mut self, i: usize, verify: bool) -> io::Result<()> {
        let file = &*self.file;
        if !matches!(file.layout, Layout::Spill { .. }) {
            self.buf.clear();
        }
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
                        io::ErrorKind::UnexpectedEof => invalid("chunk extends past end of file"),
                        _ => e,
                    })?;
                decode_chunk(chunk, meta, verify, &mut self.buf)
            }
            Layout::Spill {
                num_edges,
                packing,
                sums,
            } => {
                let (offset, len, n) = spill_block(*packing, *num_edges, i);
                // Grow-only, with the pad the last edge's load reads.
                if self.scratch.len() < len + PACK_PAD {
                    self.scratch.resize(len + PACK_PAD, 0);
                }
                let block = &mut self.scratch[..len];
                file.file
                    .read_exact_at(block, offset)
                    .map_err(|e| match e.kind() {
                        io::ErrorKind::UnexpectedEof => {
                            invalid(format!("spilled block {i} is cut short"))
                        }
                        _ => e,
                    })?;
                if verify && page_checksum(block) != sums[i] {
                    return Err(invalid(format!(
                        "spilled block {i}: checksum mismatch (corrupt spill)"
                    )));
                }
                self.buf.resize(n, Edge::new(0, 0));
                packing.unpack(&self.scratch, 0, &mut self.buf);
                Ok(())
            }
        }
    }

    /// Take up to `max` unread edges of the range out of the decoded block,
    /// decoding the next one when it is drained; empty at the range end.
    fn take_run(&mut self, max: usize) -> io::Result<&[Edge]> {
        let left = (self.end - self.start) - self.emitted;
        while left > 0 && self.buf_pos == self.buf.len() {
            let i = self.next_block;
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

/// A v2 ranged source that keeps what its cursors decode, in spill files
/// rather than in memory.
///
/// The first *complete* pass over `open_range(a, b)` spills the decoded
/// range: each edge packed at 2w bits (w = the bits of the header's largest
/// id `|V| − 1`; 8 B above w = 28), a block of [`CHUNK_EDGES`] edges at a
/// time, to an unlinked file in the spill directory, then 8 pad bytes; one
/// checksum per block stays in memory. The cursor's own next pass, and
/// every later `open_range(a, b)`, reads the spill as a third block
/// layout: no varint decode, the blocks checksummed once per cursor. A
/// spilled range is never one that skipped verification — it is what a
/// checksumming cursor produced.
///
/// The cursor that opens a range first claims it, and gives the claim up
/// if it is dropped before completing a pass; others open meanwhile stream
/// the file beside it. A range streams from the file on every pass when
/// its spill cannot be created or written (a full disk, a directory that
/// cannot be written), and so does a range holding an id the header's |V|
/// does not cover: output never depends on the spill or on the header.
pub struct RetainingSource {
    inner: RangedFile,
    spill_dir: Arc<Path>,
    retained: Arc<Mutex<Retained>>,
}

/// Ranges by `(start, end)`: `None` while the cursor that claimed the range
/// is still spilling it.
type Retained = HashMap<(u64, u64), Option<Arc<EdgeFile>>>;

/// Every update of [`Retained`] is one map operation, so the data is valid
/// even if a holder panicked.
fn lock(retained: &Mutex<Retained>) -> MutexGuard<'_, Retained> {
    retained.lock().unwrap_or_else(PoisonError::into_inner)
}

impl RetainingSource {
    /// Wrap `inner`, a v2 file, spilling retained ranges into `spill_dir`.
    pub fn new(inner: RangedFile, spill_dir: impl Into<PathBuf>) -> Self {
        RetainingSource {
            inner,
            spill_dir: spill_dir.into().into(),
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
        let claim = {
            let mut retained = lock(&self.retained);
            match retained.get(&range) {
                Some(Some(spill)) => {
                    return Ok(ChunkCursor::open(Arc::clone(spill), 0, end - start))
                }
                // Another cursor is spilling this range: stream beside it.
                Some(None) => None,
                None => (start < end).then(|| {
                    retained.insert(range, None);
                    Claim {
                        retained: Arc::clone(&self.retained),
                        range,
                        held: true,
                    }
                }),
            }
        };
        // From here on dropping the claim gives the range back.
        let inner = self.inner.open_range_owned(start, end)?;
        let Some(claim) = claim else {
            return Ok(inner);
        };
        let file = &self.inner.0;
        Ok(Box::new(RetainingStream {
            inner,
            absorbing: Absorbing {
                spill: Some(SpillWriter::new(
                    Arc::clone(&self.spill_dir),
                    Arc::clone(&file.path),
                    GraphInfo {
                        num_vertices: file.info.num_vertices,
                        num_edges: end - start,
                    },
                )),
                claim,
                pos: 0,
                deposited: None,
            },
        }))
    }
}

/// A range claimed by the cursor spilling it, held until the range is
/// deposited or given up, or the cursor is dropped.
struct Claim {
    retained: Arc<Mutex<Retained>>,
    range: (u64, u64),
    held: bool,
}

impl Claim {
    /// The range is spilled: other opens read it from now on.
    fn deposit(&mut self, spill: Arc<EdgeFile>) {
        lock(&self.retained).insert(self.range, Some(spill));
        self.held = false;
    }

    /// Give the range up, if still held.
    fn release(&mut self) {
        if std::mem::take(&mut self.held) {
            lock(&self.retained).remove(&self.range);
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        self.release();
    }
}

/// Numbers every spill file of the process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A new, already unlinked file in `dir`: it lives as long as its handles,
/// and nothing is left in `dir` however the process ends. Every spill of
/// the process — a v2 range's decoded edges, the distributed
/// coordinator's recovery frames — is made here.
pub fn create_spill(dir: &Path) -> io::Result<File> {
    let n = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("tps-spill-{}-{n}", std::process::id()));
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)?;
    fs::remove_file(&path)?;
    Ok(file)
}

/// The spill of one range, written by the cursor that claimed it during
/// its first pass: the edges are packed into one block buffer, and each
/// block goes to the spill file as it fills, its checksum kept.
struct SpillWriter {
    dir: Arc<Path>,
    /// The input, which the spill's read errors name.
    path: Arc<Path>,
    /// The header's |V|, and the range's edges.
    info: GraphInfo,
    packing: Packing,
    /// Created with the first block.
    file: Option<File>,
    /// Edges spilled or packed so far: a strictly sequential prefix.
    have: u64,
    /// The block being packed; allocated by the first edge.
    block: Vec<u8>,
    sums: Vec<u64>,
}

impl SpillWriter {
    fn new(dir: Arc<Path>, path: Arc<Path>, info: GraphInfo) -> Self {
        SpillWriter {
            dir,
            path,
            packing: Packing::new(info.num_vertices),
            info,
            file: None,
            have: 0,
            block: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Pack `run`, edges `pos..` of the range, as far as it extends the
    /// packed prefix: the prefix only ever grows sequentially, so a pass
    /// abandoned by an early `reset` just resumes once the next pass
    /// catches up. An error means the range cannot be retained: the run
    /// holds an id the header's |V| does not cover, or a block could not
    /// be written.
    fn absorb(&mut self, pos: u64, run: &[Edge]) -> io::Result<()> {
        let have = self.have;
        if have < pos || have >= pos + run.len() as u64 {
            return Ok(());
        }
        let mut run = &run[(have - pos) as usize..];
        if !self.packing.holds(run) {
            return Err(invalid("an id the header's vertex count does not cover"));
        }
        if self.block.is_empty() {
            let bytes = self.packing.bytes(CHUNK_EDGES as u64);
            self.block = vec![0; bytes.expect("a block's bytes fit") as usize];
        }
        while !run.is_empty() {
            let at = (self.have % CHUNK_EDGES as u64) as usize;
            let (now, rest) = run.split_at(run.len().min(CHUNK_EDGES - at));
            self.packing.pack(&mut self.block, at, now);
            self.have += now.len() as u64;
            run = rest;
            if at + now.len() == CHUNK_EDGES || self.complete() {
                self.write_block()?;
            }
        }
        Ok(())
    }

    /// Write the packed block, and after the range's last block the pad,
    /// so the spill takes the range's packed size.
    fn write_block(&mut self) -> io::Result<()> {
        let i = self.sums.len();
        let (offset, len, _) = spill_block(self.packing, self.info.num_edges, i);
        let end = if self.complete() {
            self.block[len..len + PACK_PAD].fill(0);
            len + PACK_PAD
        } else {
            len
        };
        let file = match &self.file {
            Some(file) => file,
            None => self.file.insert(create_spill(&self.dir)?),
        };
        file.write_all_at(&self.block[..end], offset)?;
        self.sums.push(page_checksum(&self.block[..len]));
        Ok(())
    }

    fn complete(&self) -> bool {
        self.have == self.info.num_edges
    }

    /// The spilled range, as a file cursors read (once complete).
    fn finish(self) -> EdgeFile {
        let file = self.file.expect("a complete spill has written its blocks");
        EdgeFile {
            path: self.path,
            info: self.info,
            layout: Layout::Spill {
                num_edges: self.info.num_edges,
                packing: self.packing,
                sums: self.sums,
            },
            file,
        }
    }
}

/// A cursor over a range the source has not retained (yet), which it
/// claimed: streams from the inner cursor, spilling what it lends. Once a
/// pass has completed the range, the next `reset` swaps the inner cursor
/// for one over the spill (the pass in flight still drains the file
/// cursor, whose buffer it is being lent).
struct RetainingStream {
    inner: Box<dyn EdgeStream + Send>,
    absorbing: Absorbing,
}

/// What a [`RetainingStream`] keeps beside its inner cursor.
struct Absorbing {
    /// The range's spill while this cursor writes it.
    spill: Option<SpillWriter>,
    claim: Claim,
    /// Edges handed out this pass.
    pos: u64,
    /// The spilled range, from the moment this cursor completed and
    /// deposited it until its next `reset`.
    deposited: Option<Arc<EdgeFile>>,
}

impl Absorbing {
    /// Spill `run` (just lent by the inner cursor) and deposit the range
    /// with the source the moment it is complete; a range that cannot be
    /// spilled is given up at once.
    fn absorb(&mut self, run: &[Edge]) {
        let pos = self.pos;
        self.pos += run.len() as u64;
        let Some(spill) = &mut self.spill else {
            return;
        };
        if spill.absorb(pos, run).is_err() {
            self.spill = None;
            self.claim.release();
        } else if spill.complete() {
            let spill = self.spill.take().expect("spilling").finish();
            IO_V2_RANGES_RETAINED.incr();
            IO_V2_RETAINED_BYTES.add(spill.file.metadata().map_or(0, |m| m.len()));
            let spill = Arc::new(spill);
            self.claim.deposit(Arc::clone(&spill));
            self.deposited = Some(spill);
        }
    }
}

impl EdgeStream for RetainingStream {
    fn reset(&mut self) -> io::Result<()> {
        self.absorbing.pos = 0;
        if let Some(spill) = self.absorbing.deposited.take() {
            let len = spill.info.num_edges;
            self.inner = ChunkCursor::open(spill, 0, len);
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
        self.inner.num_vertices_hint()
    }
}

/// Open `path` (v1 or v2, sniffed by magic) as a source of owned cursors;
/// a v2 source spills the ranges it decodes into the system temp directory
/// (see [`RetainingSource`]).
pub(crate) fn open_file(path: &Path) -> io::Result<Box<dyn RangedReopen>> {
    let file = RangedFile::read(path)?;
    Ok(if file.is_v2() {
        Box::new(RetainingSource::new(file, std::env::temp_dir()))
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
    /// input, in runs and per edge, the last edge too. The spill holds the
    /// range's packed size, pad included, and nothing else.
    #[test]
    fn retained_ranges_read_back_at_every_packed_width() {
        fn check(source: RetainingSource, es: &[Edge], bytes: u64) {
            let n = es.len() as u64;
            let mut cursor = source.open_range(0, n).unwrap();
            assert_eq!(collect(&mut *cursor), es, "first pass");
            let spill = spilled(&source, (0, n));
            assert_eq!(spill.file.metadata().unwrap().len(), bytes);
            assert_eq!(spill.layout.blocks() as u64, n.div_ceil(CHUNK_EDGES as u64));
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
                RetainingSource::new(RangedFile::read(&path).unwrap(), std::env::temp_dir()),
                &es,
                (stride * n).div_ceil(8) + 8,
            );
            std::fs::remove_file(&path).ok();
        }
    }

    /// The spill `source` holds for `range`.
    fn spilled(source: &RetainingSource, range: (u64, u64)) -> Arc<EdgeFile> {
        match lock(&source.retained).get(&range) {
            Some(Some(spill)) => Arc::clone(spill),
            _ => panic!("{range:?} not retained"),
        }
    }

    /// A spill that changed after it was written fails the pass that reads
    /// it with `InvalidData` naming the input — a flipped byte by its
    /// block's checksum, in the cursor that wrote the spill and in a fresh
    /// one alike; a cut-short block by its length. Nothing panics.
    #[test]
    fn a_damaged_spill_fails_the_next_pass() {
        let n = 3 * CHUNK_EDGES as u32 + 500;
        let es = edges(n);
        let path = tmpfile("damaged-spill", "bel2");
        crate::v2::write_v2_edge_list(&path, 4096, es.iter().copied(), 1_000).unwrap();
        let fails = |s: &mut dyn EdgeStream, what: &str| {
            let err = for_each_edge(s, |_| {}).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(
                err.to_string().contains(path.to_str().unwrap()),
                "{what}: {err}"
            );
            err.to_string()
        };
        let source = RetainingSource::new(RangedFile::read(&path).unwrap(), std::env::temp_dir());
        let mut writer = source.open_range(0, n as u64).unwrap();
        assert_eq!(collect(&mut *writer), es);
        let spill = spilled(&source, (0, n as u64));
        // A byte of block 1, whose edges the second pass reaches after
        // block 0's.
        let (at, _, _) = spill_block(Packing::new(4096), n as u64, 1);
        let mut byte = [0u8];
        spill.file.read_exact_at(&mut byte, at + 5).unwrap();
        spill.file.write_all_at(&[byte[0] ^ 0x10], at + 5).unwrap();
        let err = fails(&mut *writer, "the writer's next pass");
        assert!(err.contains("checksum"), "{err}");
        let err = fails(
            &mut *source.open_range(0, n as u64).unwrap(),
            "a fresh open",
        );
        assert!(err.contains("checksum"), "{err}");
        // The last block cut short.
        spill.file.write_all_at(&byte, at + 5).unwrap();
        assert_eq!(collect(&mut *source.open_range(0, n as u64).unwrap()), es);
        spill
            .file
            .set_len(spill.file.metadata().unwrap().len() - 20)
            .unwrap();
        let err = fails(&mut *source.open_range(0, n as u64).unwrap(), "a cut spill");
        assert!(err.contains("cut short"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// A source whose spill directory cannot take a file retains nothing
    /// and streams every pass from the file, exactly.
    #[test]
    fn a_spill_that_cannot_be_created_leaves_the_range_unretained() {
        let es = edges(2 * CHUNK_EDGES as u32 + 3);
        let n = es.len() as u64;
        let path = tmpfile("no-spill", "bel2");
        crate::v2::write_v2_edge_list(&path, 4096, es.iter().copied(), 1_000).unwrap();
        // A directory below a regular file.
        let source = RetainingSource::new(RangedFile::read(&path).unwrap(), path.join("spill"));
        let mut cursor = source.open_range(0, n).unwrap();
        for pass in 0..3 {
            assert_eq!(collect(&mut *cursor), es, "pass {pass}");
            assert!(lock(&source.retained).is_empty(), "pass {pass}");
        }
        assert_eq!(collect(&mut *source.open_range(0, n).unwrap()), es);
        assert!(lock(&source.retained).is_empty());
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
