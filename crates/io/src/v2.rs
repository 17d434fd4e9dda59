//! The compressed chunked edge-list format, version 2 ("TPSBEL2").
//!
//! v1 (`TPSBEL1`, see `tps_graph::formats::binary`) spends a fixed 8 bytes
//! per edge. Real graph ids are skewed toward small values (crawl order,
//! R-MAT quadrant bias, community grouping), which a variable-length
//! encoding exploits: v2 stores each endpoint as a LEB128 varint, cutting
//! the paper's multi-pass streaming cost on every pass. Edges are grouped
//! into independently decodable **chunks** with a checksummed header and an
//! **index footer**, so readers can (a) detect truncation/corruption per
//! chunk rather than mid-stream, (b) seek to any chunk, and (c) scan chunks
//! in parallel (degree/clustering passes are per-edge commutative).
//!
//! ## Layout
//!
//! ```text
//! offset  size   field
//! 0       8      magic  b"TPSBEL2\0"
//! 8       8      num_vertices (u64 le)
//! 16      8      num_edges    (u64 le)
//! 24      4      edges_per_chunk (u32 le)
//! 28      4      flags (u32 le; 0 = LEB128 varint pairs)
//! 32      ...    chunks
//! ...     16*C   index: per chunk { offset u64, edge_count u32, payload_len u32 }
//! end-24  24     trailer { index_offset u64, num_chunks u64, magic b"TPS2IDX\0" }
//! ```
//!
//! Each chunk is `{ edge_count u32, payload_len u32, checksum u32 }` followed
//! by `payload_len` bytes of varint pairs `(src, dst)`. The checksum is
//! FNV-1a over the payload. The edge **order is preserved exactly** — the
//! paper's algorithms require identical order across passes, and the v1↔v2
//! converters are order-preserving by construction.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use tps_graph::formats::binary::named;
use tps_graph::ranged::RangedEdgeSource;
use tps_graph::stream::{for_each_chunk, EdgeStream};
use tps_graph::types::{Edge, GraphInfo};

use crate::ranged::RangedFile;
use crate::ReaderBackend;

/// Magic bytes opening a v2 file.
pub const MAGIC_V2: [u8; 8] = *b"TPSBEL2\0";
/// Magic bytes closing the trailer.
pub const TRAILER_MAGIC: [u8; 8] = *b"TPS2IDX\0";
/// Fixed header length.
pub const HEADER_LEN_V2: u64 = 32;
/// Per-chunk header length (`edge_count`, `payload_len`, `checksum`).
pub const CHUNK_HEADER_LEN: u64 = 12;
/// Bytes per index entry.
pub const INDEX_ENTRY_LEN: u64 = 16;
/// Trailer length.
pub const TRAILER_LEN: u64 = 24;
/// Default edges per chunk (64 Ki edges ≈ 0.5 MiB of v1 payload).
pub const DEFAULT_CHUNK_EDGES: u32 = 1 << 16;
/// Largest permitted `edges_per_chunk`: a varint pair is at most 10 bytes,
/// and a chunk's `payload_len` must fit in u32.
pub const MAX_CHUNK_EDGES: u32 = u32::MAX / 10;

pub(crate) fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// FNV-1a (32-bit) — the chunk payload checksum.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Append `v` as a LEB128 varint (1–5 bytes for u32).
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a LEB128 varint at `pos`, advancing it.
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> io::Result<u32> {
    let mut value: u32 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = bytes
            .get(*pos)
            .ok_or_else(|| invalid("truncated varint in chunk payload"))?;
        *pos += 1;
        if shift == 28 && byte > 0x0F {
            return Err(invalid("varint overflows u32"));
        }
        value |= ((byte & 0x7F) as u32) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 28 {
            return Err(invalid("varint longer than 5 bytes"));
        }
    }
}

/// Location and size of one chunk, as recorded in the index footer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Absolute file offset of the chunk header.
    pub offset: u64,
    /// Edges in the chunk.
    pub edge_count: u32,
    /// Payload bytes (excluding the 12-byte chunk header).
    pub payload_len: u32,
}

/// Parsed v2 header + index.
#[derive(Clone, Debug)]
pub struct V2Layout {
    /// Graph summary.
    pub info: GraphInfo,
    /// Writer's target edges per chunk (the last chunk may be shorter).
    pub edges_per_chunk: u32,
    /// Encoding flags (0 = varint pairs).
    pub flags: u32,
    /// Chunk directory in stream order.
    pub chunks: Vec<ChunkMeta>,
}

static IO_V2_CHUNKS_ENCODED: tps_obs::Counter = tps_obs::Counter::new("io.v2.chunks_encoded");
static IO_V2_CHUNKS_DECODED: tps_obs::Counter = tps_obs::Counter::new("io.v2.chunks_decoded");

/// Encoded length of `v` as a LEB128 varint (1–5 bytes).
#[inline(always)]
fn varint_len(v: u32) -> usize {
    // `v | 1` keeps the width ≥ 1 so zero still encodes in one byte.
    let bits = 32 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Spread the 7-bit groups of `v` into the low bytes of a word, low group
/// first — the LEB128 byte layout minus continuation bits.
#[inline(always)]
fn spread7(v: u32) -> u64 {
    let v = v as u64;
    (v & 0x7F)
        | ((v & (0x7F << 7)) << 1)
        | ((v & (0x7F << 14)) << 2)
        | ((v & (0x7F << 21)) << 3)
        | ((v & (0x0F << 28)) << 4)
}

/// Continuation-bit mask for a `len`-byte varint: bit 7 of every byte but
/// the last.
#[inline(always)]
fn cont_mask(len: usize) -> u64 {
    0x8080_8080_8080_8080u64 & ((1u64 << (8 * (len - 1))) - 1)
}

/// Encode `edges` into a chunk payload. Branchless bulk path: each varint
/// is assembled in a register (length from `leading_zeros`, groups spread
/// with shifts) and appended as one slice copy — bit-identical to
/// [`write_varint`] per edge, which the golden-layout tests pin.
pub fn encode_payload(edges: &[Edge], out: &mut Vec<u8>) {
    out.clear();
    // Worst case 5 + 5 bytes per edge; one reservation keeps the hot loop
    // free of growth checks.
    out.reserve(edges.len() * 10);
    for e in edges {
        let (ls, ld) = (varint_len(e.src), varint_len(e.dst));
        let ws = spread7(e.src) | cont_mask(ls);
        let wd = spread7(e.dst) | cont_mask(ld);
        out.extend_from_slice(&ws.to_le_bytes()[..ls]);
        out.extend_from_slice(&wd.to_le_bytes()[..ld]);
    }
}

/// Bytes past the decode position the SWAR fast path may touch in one
/// iteration: two unaligned 8-byte loads (src + dst varints).
const SWAR_SLACK: usize = 16;

/// Unaligned 8-byte little-endian load.
#[inline(always)]
fn load_u64(payload: &[u8], pos: usize) -> u64 {
    debug_assert!(pos + 8 <= payload.len());
    // SAFETY: every caller guards `pos + 8 <= payload.len()` (the fast-path
    // loops check `pos + SWAR_SLACK`; `Packing::unpack` checks its whole
    // run once against a buffer that keeps `PACK_PAD` bytes past its last
    // edge); unaligned reads of byte data are valid at any offset.
    u64::from_le(unsafe { (payload.as_ptr().add(pos) as *const u64).read_unaligned() })
}

/// Unaligned 8-byte little-endian store.
#[inline(always)]
fn store_u64(bytes: &mut [u8], pos: usize, v: u64) {
    debug_assert!(pos + 8 <= bytes.len());
    // SAFETY: `Packing::pack` checks once per run that every store of its
    // edges ends within the range's pad; unaligned writes of byte data
    // are valid at any offset.
    unsafe { (bytes.as_mut_ptr().add(pos) as *mut u64).write_unaligned(v.to_le()) }
}

/// Extract the value of a `len`-byte varint (`len <= 5`) sitting in the low
/// bytes of `word`: mask the consumed bytes, strip the continuation bits,
/// then close the 1-bit gaps so byte i contributes value bits 7i..7i+7.
#[inline(always)]
fn swar_extract(word: u64, len: usize) -> u64 {
    let x = (word & (u64::MAX >> (64 - 8 * len))) & 0x7F7F_7F7F_7F7F_7F7F;
    (x & 0x7F)
        | ((x >> 1) & (0x7F << 7))
        | ((x >> 2) & (0x7F << 14))
        | ((x >> 3) & (0x7F << 21))
        | ((x >> 4) & (0x7F << 28))
}

/// SWAR decode of one `(src, dst)` varint pair at `pos`.
///
/// The caller guarantees `pos + SWAR_SLACK <= payload.len()`. Fast path:
/// one unaligned 8-byte load covers both varints (a skewed-id pair averages
/// ~5 bytes) — the two clear continuation bits located with
/// `!word & 0x8080…` + `trailing_zeros` give both lengths at once, and the
/// values are extracted branchlessly with [`swar_extract`]. Pairs spanning
/// more than 8 bytes take a second load. Returns `None` on malformed input
/// (varint longer than 5 bytes, or a 5-byte varint overflowing u32); the
/// caller re-decodes at the same position with the checked scalar path so
/// the error message stays byte-identical to [`read_varint`]'s.
#[inline(always)]
fn swar_pair(payload: &[u8], pos: usize) -> Option<(Edge, usize)> {
    let w = load_u64(payload, pos);
    let stop = !w & 0x8080_8080_8080_8080;
    let stop2 = stop & stop.wrapping_sub(1);
    if stop2 != 0 {
        // Both varint ends are inside this word.
        let l1 = (stop.trailing_zeros() as usize + 1) >> 3;
        let l2 = ((stop2.trailing_zeros() as usize + 1) >> 3) - l1;
        if l1 > 5 || l2 > 5 {
            return None;
        }
        let src = swar_extract(w, l1);
        let dst = swar_extract(w >> (8 * l1), l2);
        if src > u32::MAX as u64 || dst > u32::MAX as u64 {
            return None;
        }
        let e = Edge {
            src: src as u32,
            dst: dst as u32,
        };
        return Some((e, pos + l1 + l2));
    }
    if stop == 0 {
        // All 8 bytes carry continuation bits: longer than any valid varint.
        return None;
    }
    // Long pair: the second varint needs its own load.
    let l1 = (stop.trailing_zeros() as usize + 1) >> 3;
    if l1 > 5 {
        return None;
    }
    let src = swar_extract(w, l1);
    let w1 = load_u64(payload, pos + l1);
    let stop1 = !w1 & 0x8080_8080_8080_8080;
    if stop1 == 0 {
        return None;
    }
    let l2 = (stop1.trailing_zeros() as usize + 1) >> 3;
    if l2 > 5 {
        return None;
    }
    let dst = swar_extract(w1, l2);
    if src > u32::MAX as u64 || dst > u32::MAX as u64 {
        return None;
    }
    let e = Edge {
        src: src as u32,
        dst: dst as u32,
    };
    Some((e, pos + l1 + l2))
}

#[inline]
fn check_trailing(payload: &[u8], pos: usize, count: u32) -> io::Result<()> {
    if pos != payload.len() {
        return Err(invalid(format!(
            "chunk payload has {} trailing bytes after {count} edges",
            payload.len() - pos
        )));
    }
    Ok(())
}

/// Decode `count` edges from a chunk payload into `out` with the checked
/// per-byte scalar path. This is the reference decoder: the SWAR bulk path
/// is pinned byte-exact against it (same edges, same errors) by the
/// `decode_fuzz` differential suite.
pub fn decode_payload_scalar(payload: &[u8], count: u32, out: &mut Vec<Edge>) -> io::Result<()> {
    let mut pos = 0usize;
    for _ in 0..count {
        let src = read_varint(payload, &mut pos)?;
        let dst = read_varint(payload, &mut pos)?;
        out.push(Edge { src, dst });
    }
    check_trailing(payload, pos, count)
}

/// Decode `count` edges from a chunk payload into `out` (appended), SWAR
/// fast path + checked scalar tail. Behaviour (edges, error kinds and
/// messages) is identical to [`decode_payload_scalar`].
pub fn decode_payload(payload: &[u8], count: u32, out: &mut Vec<Edge>) -> io::Result<()> {
    decode_chunk_payload(payload, count, None, out)
}

/// Decode a chunk payload, optionally verifying its FNV-1a checksum in the
/// same traversal.
///
/// With `checksum: Some(sum)` the checksum chain is interleaved with the
/// SWAR decode of the bytes it just covered — one pass over the payload
/// instead of a verify pass followed by a decode pass, with the serial FNV
/// multiply chain overlapping the independent decode work. Error behaviour
/// matches the verify-then-decode sequence exactly: a checksum mismatch is
/// reported first even when the payload is also structurally malformed,
/// then varint errors, then the trailing-bytes check. On error `out` may
/// hold partially decoded edges.
pub fn decode_chunk_payload(
    payload: &[u8],
    count: u32,
    checksum: Option<u32>,
    out: &mut Vec<Edge>,
) -> io::Result<()> {
    let n = count as usize;
    out.reserve(n);
    let mut h: u32 = 0x811C_9DC5;
    let mut pos = 0usize;
    let mut i = 0usize;
    if checksum.is_some() {
        while i < n && pos + SWAR_SLACK <= payload.len() {
            let Some((e, next)) = swar_pair(payload, pos) else {
                break;
            };
            let mut j = pos;
            while j < next {
                h = (h ^ payload[j] as u32).wrapping_mul(0x0100_0193);
                j += 1;
            }
            out.push(e);
            pos = next;
            i += 1;
        }
        // Whatever the fast loop did not cover (the tail, trailing bytes,
        // or everything after a malformed varint) still feeds the checksum:
        // it is defined over the whole payload.
        for &b in &payload[pos..] {
            h = (h ^ b as u32).wrapping_mul(0x0100_0193);
        }
    } else {
        while i < n && pos + SWAR_SLACK <= payload.len() {
            let Some((e, next)) = swar_pair(payload, pos) else {
                break;
            };
            out.push(e);
            pos = next;
            i += 1;
        }
    }
    // Checked scalar tail: the last few edges (within SWAR_SLACK of the
    // payload end) and the canonical error for malformed input.
    let mut decode_err = None;
    while i < n {
        let pair = read_varint(payload, &mut pos)
            .and_then(|src| read_varint(payload, &mut pos).map(|dst| Edge { src, dst }));
        match pair {
            Ok(e) => {
                out.push(e);
                i += 1;
            }
            Err(err) => {
                decode_err = Some(err);
                break;
            }
        }
    }
    if let Some(sum) = checksum {
        if h != sum {
            return Err(invalid("chunk checksum mismatch (corrupt payload)"));
        }
    }
    if let Some(err) = decode_err {
        return Err(err);
    }
    check_trailing(payload, pos, count)
}

/// Streaming writer producing a v2 file.
pub struct V2Writer {
    w: BufWriter<File>,
    num_vertices: u64,
    edges_per_chunk: u32,
    pending: Vec<Edge>,
    payload: Vec<u8>,
    chunks: Vec<ChunkMeta>,
    offset: u64,
    num_edges: u64,
}

impl V2Writer {
    /// Create `path`, writing a header with a zero edge count (patched by
    /// [`V2Writer::finish`]).
    pub fn create<P: AsRef<Path>>(
        path: P,
        num_vertices: u64,
        edges_per_chunk: u32,
    ) -> io::Result<Self> {
        if edges_per_chunk == 0 {
            return Err(invalid("edges_per_chunk must be positive"));
        }
        if edges_per_chunk > MAX_CHUNK_EDGES {
            return Err(invalid(format!(
                "edges_per_chunk {edges_per_chunk} exceeds the maximum {MAX_CHUNK_EDGES} \
                 (chunk payload length must fit in u32)"
            )));
        }
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(&MAGIC_V2)?;
        w.write_all(&num_vertices.to_le_bytes())?;
        w.write_all(&0u64.to_le_bytes())?;
        w.write_all(&edges_per_chunk.to_le_bytes())?;
        w.write_all(&0u32.to_le_bytes())?;
        Ok(V2Writer {
            w,
            num_vertices,
            edges_per_chunk,
            // Reserve lazily beyond 1 Mi edges; huge chunk sizes should not
            // pre-commit gigabytes before the first push.
            pending: Vec::with_capacity(edges_per_chunk.min(1 << 20) as usize),
            payload: Vec::new(),
            chunks: Vec::new(),
            offset: HEADER_LEN_V2,
            num_edges: 0,
        })
    }

    /// Append one edge.
    pub fn push(&mut self, edge: Edge) -> io::Result<()> {
        self.pending.push(edge);
        self.num_edges += 1;
        if self.pending.len() as u32 >= self.edges_per_chunk {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        IO_V2_CHUNKS_ENCODED.incr();
        encode_payload(&self.pending, &mut self.payload);
        let meta = ChunkMeta {
            offset: self.offset,
            edge_count: self.pending.len() as u32,
            payload_len: self.payload.len() as u32,
        };
        self.w.write_all(&meta.edge_count.to_le_bytes())?;
        self.w.write_all(&meta.payload_len.to_le_bytes())?;
        self.w.write_all(&fnv1a32(&self.payload).to_le_bytes())?;
        self.w.write_all(&self.payload)?;
        self.offset += CHUNK_HEADER_LEN + meta.payload_len as u64;
        self.chunks.push(meta);
        self.pending.clear();
        Ok(())
    }

    /// Flush the tail chunk, write the index footer + trailer, patch the
    /// header edge count and close the file. Returns the graph summary.
    pub fn finish(mut self) -> io::Result<GraphInfo> {
        self.flush_chunk()?;
        let index_offset = self.offset;
        for c in &self.chunks {
            self.w.write_all(&c.offset.to_le_bytes())?;
            self.w.write_all(&c.edge_count.to_le_bytes())?;
            self.w.write_all(&c.payload_len.to_le_bytes())?;
        }
        self.w.write_all(&index_offset.to_le_bytes())?;
        self.w
            .write_all(&(self.chunks.len() as u64).to_le_bytes())?;
        self.w.write_all(&TRAILER_MAGIC)?;
        let mut file = self.w.into_inner()?;
        file.seek(SeekFrom::Start(16))?;
        file.write_all(&self.num_edges.to_le_bytes())?;
        file.flush()?;
        Ok(GraphInfo {
            num_vertices: self.num_vertices,
            num_edges: self.num_edges,
        })
    }
}

/// Write an edge iterator as a v2 file in one go.
pub fn write_v2_edge_list<P: AsRef<Path>>(
    path: P,
    num_vertices: u64,
    edges: impl IntoIterator<Item = Edge>,
    edges_per_chunk: u32,
) -> io::Result<GraphInfo> {
    let mut w = V2Writer::create(path, num_vertices, edges_per_chunk)?;
    for e in edges {
        w.push(e)?;
    }
    w.finish()
}

/// Parse and validate header, index and trailer of a v2 file.
pub fn read_layout(file: &mut File) -> io::Result<V2Layout> {
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN_V2 + TRAILER_LEN {
        return Err(invalid("file too short for a TPSBEL2 header + trailer"));
    }
    let mut header = [0u8; HEADER_LEN_V2 as usize];
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut header)?;
    if header[..8] != MAGIC_V2 {
        return Err(invalid("not a TPSBEL2 chunked edge list (bad magic)"));
    }
    let num_vertices = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let num_edges = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let edges_per_chunk = u32::from_le_bytes(header[24..28].try_into().unwrap());
    let flags = u32::from_le_bytes(header[28..32].try_into().unwrap());
    if flags != 0 {
        return Err(invalid(format!("unsupported TPSBEL2 flags {flags:#x}")));
    }
    if edges_per_chunk == 0 {
        return Err(invalid("edges_per_chunk must be positive"));
    }
    tps_graph::formats::binary::check_num_vertices(num_vertices)?;

    let mut trailer = [0u8; TRAILER_LEN as usize];
    file.seek(SeekFrom::Start(file_len - TRAILER_LEN))?;
    file.read_exact(&mut trailer)?;
    if trailer[16..24] != TRAILER_MAGIC {
        return Err(invalid(
            "missing TPS2IDX trailer (truncated or corrupt file)",
        ));
    }
    let index_offset = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
    let num_chunks = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
    let expected_len = index_offset
        .checked_add(
            num_chunks
                .checked_mul(INDEX_ENTRY_LEN)
                .ok_or_else(|| invalid("chunk count overflow"))?,
        )
        .and_then(|v| v.checked_add(TRAILER_LEN))
        .ok_or_else(|| invalid("index offset overflow"))?;
    if expected_len != file_len || index_offset < HEADER_LEN_V2 {
        return Err(invalid(format!(
            "index trailer inconsistent with file size ({expected_len} != {file_len})"
        )));
    }

    file.seek(SeekFrom::Start(index_offset))?;
    let mut index_bytes = vec![0u8; (num_chunks * INDEX_ENTRY_LEN) as usize];
    file.read_exact(&mut index_bytes)?;
    let mut chunks = Vec::with_capacity(num_chunks as usize);
    let mut next_offset = HEADER_LEN_V2;
    let mut total_edges = 0u64;
    for entry in index_bytes.chunks_exact(INDEX_ENTRY_LEN as usize) {
        let meta = ChunkMeta {
            offset: u64::from_le_bytes(entry[0..8].try_into().unwrap()),
            edge_count: u32::from_le_bytes(entry[8..12].try_into().unwrap()),
            payload_len: u32::from_le_bytes(entry[12..16].try_into().unwrap()),
        };
        if meta.offset != next_offset || meta.edge_count == 0 {
            return Err(invalid("corrupt chunk index"));
        }
        next_offset += CHUNK_HEADER_LEN + meta.payload_len as u64;
        total_edges += meta.edge_count as u64;
        chunks.push(meta);
    }
    if next_offset != index_offset {
        return Err(invalid("chunk index does not cover the chunk region"));
    }
    if total_edges != num_edges {
        return Err(invalid(format!(
            "index sums to {total_edges} edges, header promises {num_edges}"
        )));
    }
    Ok(V2Layout {
        info: GraphInfo {
            num_vertices,
            num_edges,
        },
        edges_per_chunk,
        flags,
        chunks,
    })
}

/// Verify (if `verify`) and decode one chunk — its 12-byte header and
/// payload, the bytes `meta` locates — appending its edges to `out`.
/// `verify: false` skips the checksum for a chunk this cursor already
/// proved intact on an earlier pass.
pub(crate) fn decode_chunk(
    chunk: &[u8],
    meta: ChunkMeta,
    verify: bool,
    out: &mut Vec<Edge>,
) -> io::Result<()> {
    let field = |at: usize| u32::from_le_bytes(chunk[at..at + 4].try_into().unwrap());
    let (edge_count, payload_len, checksum) = (field(0), field(4), field(8));
    if edge_count != meta.edge_count || payload_len != meta.payload_len {
        return Err(invalid("chunk header disagrees with index"));
    }
    let payload = &chunk[CHUNK_HEADER_LEN as usize..];
    IO_V2_CHUNKS_DECODED.incr();
    decode_chunk_payload(payload, edge_count, verify.then_some(checksum), out)
}

/// Pad bytes after a packed range, so every edge is one 8-byte load.
pub(crate) const PACK_PAD: usize = 8;

/// How a retained range packs its edges in its spill: edge `i` is the `2·bits`-bit
/// value `src | dst << bits` at bit `stride·i`, `bits` being what the
/// header's largest id `|V| − 1` needs (1..=32). An edge is read as one
/// unaligned 8-byte load at the byte holding its first bit, shifted by
/// that bit's offset in the byte (0..=7), so the value must end within the
/// load: `stride` is `2·bits` while `2·bits + 7 ≤ 64` (bits ≤ 28), else 64.
///
/// Eight edges take `stride` bytes, so every group of eight starts on a
/// byte boundary and its `j`-th edge sits at bit `j·stride` of the group
/// in every group. The pack and unpack loops go a group at a time: the
/// offsets are the same eight each time, and no group waits on the last.
#[derive(Clone, Copy)]
pub(crate) struct Packing {
    bits: u32,
    stride: u32,
}

impl Packing {
    /// The packing of a file whose header counts `num_vertices`.
    pub(crate) fn new(num_vertices: u64) -> Self {
        let max_id = num_vertices.saturating_sub(1);
        let bits = (u64::BITS - max_id.leading_zeros()).clamp(1, 32);
        let stride = if 2 * bits + 7 <= u64::BITS {
            2 * bits
        } else {
            64
        };
        Packing { bits, stride }
    }

    /// Bytes `span` packed edges take, no pad; `None` if that overflows.
    pub(crate) fn span_bytes(self, span: u64) -> Option<u64> {
        Some(span.checked_mul(u64::from(self.stride))?.div_ceil(8))
    }

    /// Bytes a packed range of `span` edges takes, pad included; `None` if
    /// that overflows.
    pub(crate) fn bytes(self, span: u64) -> Option<u64> {
        self.span_bytes(span)?.checked_add(PACK_PAD as u64)
    }

    /// Whether every id of `run` fits in `bits` (not so under a header that
    /// understates |V|).
    pub(crate) fn holds(self, run: &[Edge]) -> bool {
        let ids = run.iter().fold(0, |acc, e| acc | e.src | e.dst);
        u64::from(ids) >> self.bits == 0
    }

    /// Check once per run that every 8-byte load or store of edges
    /// `..end` ends within `bytes`, the pad included.
    fn check(self, bytes: &[u8], end: usize) {
        let need = self.bytes(end as u64);
        assert!(need.is_some_and(|need| need <= bytes.len() as u64));
    }

    /// The edge whose first bit is bit `shift` (0..=7) of byte `at`.
    #[inline(always)]
    fn read(self, bytes: &[u8], at: usize, shift: usize) -> Edge {
        let v = load_u64(bytes, at) >> shift;
        let mask = (1 << self.bits) - 1;
        Edge::new((v & mask) as u32, (v >> self.bits & mask) as u32)
    }

    /// Edge `i` of `bytes`.
    #[inline(always)]
    fn get(self, bytes: &[u8], i: usize) -> Edge {
        let bit = i * self.stride as usize;
        self.read(bytes, bit >> 3, bit & 7)
    }

    /// Pack `run` as edges `first..` of `bytes`, whose edges before `first`
    /// are packed already.
    pub(crate) fn pack(self, bytes: &mut [u8], first: usize, run: &[Edge]) {
        with_bmi2(
            #[inline(always)]
            || self.pack_groups(bytes, first, run),
        )
    }

    /// [`Packing::pack`]: the rest of the group edge `first` falls in, on
    /// top of its earlier edges' bits, then a group at a time, each packed
    /// by a [`BitWriter`] of its own.
    #[inline(always)]
    fn pack_groups(self, bytes: &mut [u8], first: usize, run: &[Edge]) {
        self.check(bytes, first + run.len());
        let head = run.len().min(first.wrapping_neg() % 8);
        let (head, rest) = run.split_at(head);
        let start = first * self.stride as usize;
        let mut w = BitWriter::resume(bytes, start);
        for e in head {
            w.push(bytes, self.value(e), self.stride);
        }
        w.finish(bytes);
        // Where the next group starts, once the head has filled its own.
        let mut base = (first + head.len()) / 8 * self.stride as usize;
        let mut groups = rest.chunks_exact(8);
        for group in &mut groups {
            let mut w = BitWriter::at(base);
            if 2 * self.stride <= u64::BITS {
                // Two edges at a time, as one value of twice the stride:
                // half the accumulator steps.
                for pair in group.chunks_exact(2) {
                    let v = self.value(&pair[0]) | self.value(&pair[1]) << self.stride;
                    w.push(bytes, v, 2 * self.stride);
                }
            } else {
                for e in group {
                    w.push(bytes, self.value(e), self.stride);
                }
            }
            w.finish(bytes);
            base += self.stride as usize;
        }
        // The run's last, partial group (a writer with nothing to push
        // would store zeros over the head).
        if !groups.remainder().is_empty() {
            let mut w = BitWriter::at(base);
            for e in groups.remainder() {
                w.push(bytes, self.value(e), self.stride);
            }
            w.finish(bytes);
        }
    }

    /// The packed value of `e`.
    #[inline(always)]
    fn value(self, e: &Edge) -> u64 {
        u64::from(e.src) | u64::from(e.dst) << self.bits
    }

    /// Unpack edges `first..first + out.len()` of `bytes` into `out`.
    pub(crate) fn unpack(self, bytes: &[u8], first: usize, out: &mut [Edge]) {
        with_bmi2(
            #[inline(always)]
            || self.unpack_groups(bytes, first, out),
        )
    }

    /// [`Packing::unpack`]: the rest of the group edge `first` falls in,
    /// then a group at a time.
    #[inline(always)]
    fn unpack_groups(self, bytes: &[u8], first: usize, out: &mut [Edge]) {
        self.check(bytes, first + out.len());
        let head = out.len().min(first.wrapping_neg() % 8);
        let (head, rest) = out.split_at_mut(head);
        for (i, e) in head.iter_mut().enumerate() {
            *e = self.get(bytes, first + i);
        }
        // The bit offsets of a group's eight edges from its first byte.
        let bits: [usize; 8] = std::array::from_fn(|j| j * self.stride as usize);
        let mut base = (first + head.len()) / 8 * self.stride as usize;
        let mut groups = rest.chunks_exact_mut(8);
        for group in &mut groups {
            for (e, bit) in group.iter_mut().zip(bits) {
                *e = self.read(bytes, base + (bit >> 3), bit & 7);
            }
            base += self.stride as usize;
        }
        for (e, bit) in groups.into_remainder().iter_mut().zip(bits) {
            *e = self.read(bytes, base + (bit >> 3), bit & 7);
        }
    }
}

/// Run `f` compiled for BMI2 where the CPU has it. The packed loops shift
/// by amounts known only at run time: BMI2's `shlx`/`shrx` take the count
/// in any register, one µop each, where baseline x86-64 pins it in `cl`
/// and spends two. Everything `f` calls is inlined into it, so the one
/// body is compiled twice, not written twice.
#[inline(always)]
fn with_bmi2<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "bmi2")]
        fn bmi2<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        if std::arch::is_x86_feature_detected!("bmi2") {
            // SAFETY: the CPU has BMI2.
            return unsafe { bmi2(f) };
        }
    }
    f()
}

/// A bit accumulator writing values from byte `at` on: each full 8-byte
/// word is stored once and never loaded back, so no store waits on a load.
struct BitWriter {
    at: usize,
    filled: u32,
    acc: u64,
}

impl BitWriter {
    /// A writer starting on byte `at`.
    #[inline(always)]
    fn at(at: usize) -> Self {
        BitWriter {
            at,
            filled: 0,
            acc: 0,
        }
    }

    /// A writer going on from bit `bit` of `bytes`, keeping the bits
    /// before it in that byte.
    #[inline(always)]
    fn resume(bytes: &[u8], bit: usize) -> Self {
        let filled = (bit & 7) as u32;
        BitWriter {
            at: bit >> 3,
            filled,
            acc: u64::from(bytes[bit >> 3]) & ((1 << filled) - 1),
        }
    }

    /// Append the `stride` (1..=64) bits of `v`.
    #[inline(always)]
    fn push(&mut self, bytes: &mut [u8], v: u64, stride: u32) {
        self.acc |= v << self.filled;
        self.filled += stride;
        if self.filled >= u64::BITS {
            store_u64(bytes, self.at, self.acc);
            self.at += 8;
            self.filled -= u64::BITS;
            // The bits of `v` the word had no room for: a shift by
            // `stride − filled`, which is 1..=64, in two steps.
            self.acc = v >> 1 >> (stride - 1 - self.filled);
        }
    }

    /// Store the last, partial word: its bytes, and zeros past them that
    /// the next writer's stores cover (or the pad, after the last edge).
    #[inline(always)]
    fn finish(self, bytes: &mut [u8]) {
        store_u64(bytes, self.at, self.acc);
    }
}

/// Convert a v1 `.bel` file to v2, preserving edge order exactly.
pub fn convert_v1_to_v2<P: AsRef<Path>, Q: AsRef<Path>>(
    src: P,
    dst: Q,
    edges_per_chunk: u32,
) -> io::Result<GraphInfo> {
    let src = src.as_ref();
    let mut input =
        crate::open_edge_stream(src, ReaderBackend::Buffered).map_err(|e| named(src, e))?;
    let num_vertices = input
        .num_vertices_hint()
        .expect("a file cursor reports its header's vertex count");
    let mut w = V2Writer::create(dst, num_vertices, edges_per_chunk)?;
    for_each_chunk(&mut input, |run| run.iter().try_for_each(|&e| w.push(e)))?;
    let info = w.finish()?;
    if input.len_hint() != Some(info.num_edges) {
        return Err(invalid("edge count changed during conversion"));
    }
    Ok(info)
}

/// Convert a v2 file back to v1, preserving edge order exactly.
pub fn convert_v2_to_v1<P: AsRef<Path>, Q: AsRef<Path>>(src: P, dst: Q) -> io::Result<GraphInfo> {
    let source = RangedFile::read(src)?;
    let info = source.info();
    let mut input = source.open_range(0, info.num_edges)?;
    let num_vertices = info.num_vertices;
    let mut iter_err = None;
    let info = tps_graph::formats::binary::write_binary_edge_list(
        dst,
        num_vertices,
        std::iter::from_fn(|| match input.next_edge() {
            Ok(e) => e,
            Err(err) => {
                iter_err = Some(err);
                None
            }
        }),
    )?;
    if let Some(err) = iter_err {
        return Err(err);
    }
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_graph::stream::for_each_edge;

    use std::path::PathBuf;

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tps-io-v2-{tag}-{}.bel2", std::process::id()))
    }

    fn edges(n: u32) -> Vec<Edge> {
        (0..n)
            .map(|i| Edge::new(i % 97, (i * 131 + 5) % 1024))
            .collect()
    }

    /// A range packed from runs cut anywhere — inside a group of eight,
    /// across one, a run of one edge — reads back exactly at every id
    /// width, by `get` and by `unpack` from every first edge; all-ones ids
    /// beside zeros show any bit landing in a neighbour.
    #[test]
    fn packing_reads_back_runs_cut_anywhere_at_every_width() {
        let n = 75;
        for w in 1..=32u32 {
            let top = (1u64 << w) - 1;
            let es: Vec<Edge> = (0..n as u64)
                .map(|i| match i % 4 {
                    0 => Edge::new(top as u32, top as u32),
                    1 => Edge::new(0, 0),
                    _ => Edge::new(
                        ((i * 2_654_435_761) & top) as u32,
                        ((i * 40_503) & top) as u32,
                    ),
                })
                .collect();
            let packing = Packing::new(top + 1);
            let mut packed = vec![0; packing.bytes(n as u64).unwrap() as usize];
            let mut pos = 0;
            for len in [1, 2, 3, 5, 8, 1, 9, 7, 16, 4, 19].into_iter().cycle() {
                let len = len.min(n - pos);
                let run = &es[pos..pos + len];
                assert!(packing.holds(run), "w {w}");
                packing.pack(&mut packed, pos, run);
                pos += len;
                if pos == n {
                    break;
                }
            }
            assert_eq!(
                packed.len() as u64,
                packing.span_bytes(n as u64).unwrap() + 8
            );
            for (i, &e) in es.iter().enumerate() {
                assert_eq!(packing.get(&packed, i), e, "w {w}, get {i}");
            }
            for first in 0..n {
                let mut out = vec![Edge::new(0, 0); n - first];
                packing.unpack(&packed, first, &mut out);
                assert_eq!(out, es[first..], "w {w}, unpack from {first}");
            }
            // The loops as compiled without BMI2, which the copy `pack`
            // and `unpack` pick on a CPU with it stands in for.
            let mut bytes = vec![0; packed.len()];
            packing.pack_groups(&mut bytes, 0, &es[..n / 2]);
            packing.pack_groups(&mut bytes, n / 2, &es[n / 2..]);
            assert!(bytes == packed, "w {w}, baseline pack");
            let mut out = vec![Edge::new(0, 0); n - 3];
            packing.unpack_groups(&bytes, 3, &mut out);
            assert_eq!(out, es[3..], "w {w}, baseline unpack");
            // One id past the width is refused.
            if w < 32 {
                assert!(!packing.holds(&[Edge::new(0, (top + 1) as u32)]), "w {w}");
            }
        }
    }

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let values = [0u32, 1, 127, 128, 16_383, 16_384, 1 << 21, u32::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 6-byte continuation chain.
        let mut pos = 0;
        assert!(read_varint(&[0x80; 6], &mut pos).is_err());
        // 5th byte with high bits set overflows u32.
        let mut pos = 0;
        assert!(read_varint(&[0x80, 0x80, 0x80, 0x80, 0x7F], &mut pos).is_err());
        // Truncated mid-varint.
        let mut pos = 0;
        assert!(read_varint(&[0x80], &mut pos).is_err());
    }

    #[test]
    fn degenerate_chunk_sizes_rejected_at_create() {
        let path = tmpfile("badchunk");
        assert!(V2Writer::create(&path, 10, 0).is_err());
        assert!(V2Writer::create(&path, 10, MAX_CHUNK_EDGES + 1).is_err());
        assert!(V2Writer::create(&path, 10, MAX_CHUNK_EDGES).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn round_trip_multi_chunk() {
        let path = tmpfile("roundtrip");
        let es = edges(10_000);
        let info = write_v2_edge_list(&path, 1024, es.iter().copied(), 256).unwrap();
        assert_eq!(info.num_edges, 10_000);

        let layout = read_layout(&mut File::open(&path).unwrap()).unwrap();
        assert_eq!(layout.chunks.len(), 10_000usize.div_ceil(256));
        let src = RangedFile::read(&path).unwrap();
        let mut f = src.open_range(0, 10_000).unwrap();
        let mut seen = Vec::new();
        for_each_edge(&mut f, |e| seen.push(e)).unwrap();
        assert_eq!(seen, es);
        // Second pass identical.
        let mut again = Vec::new();
        for_each_edge(&mut f, |e| again.push(e)).unwrap();
        assert_eq!(again, es);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_round_trip() {
        let path = tmpfile("empty");
        write_v2_edge_list(&path, 0, std::iter::empty(), 64).unwrap();
        let layout = read_layout(&mut File::open(&path).unwrap()).unwrap();
        assert_eq!(layout.chunks.len(), 0);
        let src = RangedFile::read(&path).unwrap();
        assert_eq!(src.open_range(0, 0).unwrap().next_edge().unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_smaller_than_v1_on_skewed_ids() {
        let dir = std::env::temp_dir();
        let v1 = dir.join(format!("tps-io-size-{}.bel", std::process::id()));
        let v2 = dir.join(format!("tps-io-size-{}.bel2", std::process::id()));
        // Skewed ids (R-MAT-like): most below 2^14 -> ≤2-byte varints.
        let es: Vec<Edge> = (0..20_000u32)
            .map(|i| Edge::new((i * i) % 8192, (i * 7) % 16_000))
            .collect();
        tps_graph::formats::binary::write_binary_edge_list(&v1, 16_000, es.iter().copied())
            .unwrap();
        write_v2_edge_list(&v2, 16_000, es.iter().copied(), DEFAULT_CHUNK_EDGES).unwrap();
        let s1 = std::fs::metadata(&v1).unwrap().len();
        let s2 = std::fs::metadata(&v2).unwrap().len();
        assert!(
            (s2 as f64) < 0.8 * s1 as f64,
            "v2 ({s2} B) not measurably smaller than v1 ({s1} B)"
        );
        std::fs::remove_file(&v1).ok();
        std::fs::remove_file(&v2).ok();
    }

    #[test]
    fn random_chunk_access_and_parallel_fold() {
        let path = tmpfile("chunks");
        let es = edges(5_000);
        write_v2_edge_list(&path, 1024, es.iter().copied(), 512).unwrap();
        let src = RangedFile::read(&path).unwrap();

        // Random access to a middle chunk matches the slice of the original.
        let mut chunk = Vec::new();
        for_each_edge(&mut src.open_range(3 * 512, 4 * 512).unwrap(), |e| {
            chunk.push(e)
        })
        .unwrap();
        assert_eq!(chunk.as_slice(), &es[3 * 512..4 * 512]);

        // Sequential streaming still works after random access.
        let mut seen = Vec::new();
        for_each_edge(&mut src.open_range(0, 5_000).unwrap(), |e| seen.push(e)).unwrap();
        assert_eq!(seen, es);

        // A degree fold over four cursors on four threads == the sequential
        // degree fold.
        let fold = |acc: &mut Vec<u64>, e: Edge| {
            acc[e.src as usize] += 1;
            acc[e.dst as usize] += 1;
        };
        let src = &src;
        let par = std::thread::scope(|scope| {
            let workers: Vec<_> = tps_graph::ranged::split_even(5_000, 4)
                .into_iter()
                .map(|(a, b)| {
                    scope.spawn(move || {
                        let mut acc = vec![0u64; 1024];
                        let mut s = src.open_range(a, b).unwrap();
                        for_each_edge(&mut s, |e| fold(&mut acc, e)).unwrap();
                        acc
                    })
                })
                .collect();
            let mut sum = vec![0u64; 1024];
            for w in workers {
                for (x, y) in sum.iter_mut().zip(w.join().unwrap()) {
                    *x += y;
                }
            }
            sum
        });
        let mut seq = vec![0u64; 1024];
        for &e in &es {
            fold(&mut seq, e);
        }
        assert_eq!(par, seq);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_payload_detected_by_checksum() {
        let path = tmpfile("corrupt");
        write_v2_edge_list(&path, 1024, edges(1000), 100).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the first chunk (header is 32 B, chunk
        // header 12 B; +5 lands inside the payload).
        let target = HEADER_LEN_V2 as usize + CHUNK_HEADER_LEN as usize + 5;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let src = RangedFile::read(&path).unwrap();
        let err = for_each_edge(&mut src.open_range(0, 1000).unwrap(), |_| {}).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected_at_open() {
        let path = tmpfile("trunc");
        write_v2_edge_list(&path, 1024, edges(1000), 100).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(RangedFile::read(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Ids are `u32`: a header |V| past 2³² is refused with the layout,
    /// before any per-vertex table is sized by it.
    #[test]
    fn vertex_count_past_32_bit_ids_rejected_at_open() {
        let path = tmpfile("hugev");
        write_v2_edge_list(&path, 1 << 32, edges(10), 100).unwrap();
        assert_eq!(
            RangedFile::read(&path).unwrap().info().num_vertices,
            1 << 32
        );
        let mut bytes = std::fs::read(&path).unwrap();
        for num_vertices in [(1u64 << 32) + 1, u64::MAX] {
            bytes[8..16].copy_from_slice(&num_vertices.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = read_layout(&mut File::open(&path).unwrap()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("2^32"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmpfile("magic");
        std::fs::write(&path, vec![0u8; 100]).unwrap();
        let err = RangedFile::read(&path).err().expect("bad magic must fail");
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn converters_are_inverse_and_order_preserving() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let v1 = dir.join(format!("tps-io-conv-{pid}.bel"));
        let v2 = dir.join(format!("tps-io-conv-{pid}.bel2"));
        let back = dir.join(format!("tps-io-conv-back-{pid}.bel"));
        let es = edges(3_333);
        tps_graph::formats::binary::write_binary_edge_list(&v1, 1024, es.iter().copied()).unwrap();

        let info = convert_v1_to_v2(&v1, &v2, 500).unwrap();
        assert_eq!(
            info,
            GraphInfo {
                num_vertices: 1024,
                num_edges: 3_333
            }
        );
        let info = convert_v2_to_v1(&v2, &back).unwrap();
        assert_eq!(
            info,
            GraphInfo {
                num_vertices: 1024,
                num_edges: 3_333
            }
        );

        // Byte-identical round trip: v1 -> v2 -> v1.
        let a = std::fs::read(&v1).unwrap();
        let b = std::fs::read(&back).unwrap();
        assert_eq!(a, b);
        for p in [&v1, &v2, &back] {
            std::fs::remove_file(p).ok();
        }
    }
}
