//! The binary edge-list format ("`.bel`").
//!
//! Layout:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"TPSBEL1\0"
//! 8       8     num_vertices (u64 le)
//! 16      8     num_edges    (u64 le)
//! 24      8*E   edge records: src (u32 le), dst (u32 le)
//! ```
//!
//! The payload matches the paper's "binary edge list with 32-bit vertex IDs";
//! the 24-byte header lets streams report exact hints without a discovery
//! pass. This module owns the layout: the header reader and its one length
//! check ([`check_payload_len`], which every v1 opener applies), the record
//! read ([`read_records`]) and the writers. The reader is `tps-io`'s
//! `RangedFile`, one cursor for this format and the compressed chunked
//! **TPSBEL2** alike, through positioned reads of one file handle. Open a
//! file with `tps_io::open_ranged(path)` or
//! `tps_io::open_edge_stream(path, ReaderBackend::Buffered)` (both
//! auto-detect v1 vs v2 by magic).

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::types::{Edge, GraphInfo};

/// Magic bytes identifying the format (also versions it).
pub const MAGIC: [u8; 8] = *b"TPSBEL1\0";
/// Header length in bytes.
pub const HEADER_LEN: u64 = 24;
/// Bytes per edge record.
pub const EDGE_RECORD_LEN: u64 = 8;

/// Write `edges` to `path` in the binary format.
pub fn write_binary_edge_list<P: AsRef<Path>>(
    path: P,
    num_vertices: u64,
    edges: impl IntoIterator<Item = Edge>,
) -> io::Result<GraphInfo> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(&MAGIC)?;
    w.write_all(&num_vertices.to_le_bytes())?;
    // Placeholder for the edge count; patched after the payload.
    w.write_all(&0u64.to_le_bytes())?;
    let mut n = 0u64;
    for e in edges {
        w.write_all(&e.src.to_le_bytes())?;
        w.write_all(&e.dst.to_le_bytes())?;
        n += 1;
    }
    let mut file = w.into_inner()?;
    file.seek(SeekFrom::Start(16))?;
    file.write_all(&n.to_le_bytes())?;
    file.flush()?;
    Ok(GraphInfo {
        num_vertices,
        num_edges: n,
    })
}

/// `e` with the file it came from in front: a multi-pass run re-reads its
/// input long after it was opened, and the file may have changed since.
pub fn named(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Read and validate a TPSBEL1 header from `r`, leaving the cursor at the
/// first edge record. Shared by every v1 opener so the header layout lives
/// in one place.
pub fn read_header<R: Read>(r: &mut R) -> io::Result<GraphInfo> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a TPSBEL1 binary edge list (bad magic)",
        ));
    }
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    let num_vertices = u64::from_le_bytes(buf);
    r.read_exact(&mut buf)?;
    let num_edges = u64::from_le_bytes(buf);
    check_num_vertices(num_vertices)?;
    Ok(GraphInfo {
        num_vertices,
        num_edges,
    })
}

/// The vertex-count check of every edge-file header (v1 and v2). Vertex ids
/// are `u32`, so a header |V| above 2³² can never be valid: refused here,
/// before any table is sized from it.
pub fn check_num_vertices(num_vertices: u64) -> io::Result<()> {
    if num_vertices > 1 << 32 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("header promises {num_vertices} vertices; 32-bit ids allow at most 2^32"),
        ));
    }
    Ok(())
}

/// The one length check of every v1 opener. The header's edge count is
/// untrusted input: a count whose payload overflows or that the file does
/// not hold (`file_len` bytes in all) is an error here, at open — not a
/// short read three passes in.
pub fn check_payload_len(info: &GraphInfo, file_len: u64) -> io::Result<()> {
    let need = info
        .num_edges
        .checked_mul(EDGE_RECORD_LEN)
        .and_then(|payload| payload.checked_add(HEADER_LEN))
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "header promises an impossible edge count {}",
                    info.num_edges
                ),
            )
        })?;
    if file_len < need {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("file holds {file_len} bytes, header promises {need}"),
        ));
    }
    Ok(())
}

/// [`read_header`] + [`check_payload_len`] for an open file, leaving the
/// cursor at the first edge record.
pub fn read_checked_header(file: &mut File) -> io::Result<GraphInfo> {
    let info = read_header(file)?;
    check_payload_len(&info, file.metadata()?.len())?;
    Ok(info)
}

/// Append exactly `n` records to `out`, with no staging buffer: `fill`
/// writes their `8·n` bytes straight into the edge buffer. On error `out`
/// is left as it was.
pub fn read_records(
    n: usize,
    out: &mut Vec<Edge>,
    fill: impl FnOnce(&mut [u8]) -> io::Result<()>,
) -> io::Result<()> {
    let old = out.len();
    out.resize(old + n, Edge { src: 0, dst: 0 });
    let fresh = &mut out[old..];
    // SAFETY: `Edge` is `repr(C)` — two `u32`s, 8 bytes, no padding, every
    // bit pattern valid — so its slice may be written as `n * 8` plain bytes;
    // `fresh` is initialised, exclusively borrowed, and `u8` has no
    // alignment requirement.
    let bytes = unsafe {
        std::slice::from_raw_parts_mut(
            fresh.as_mut_ptr().cast::<u8>(),
            n * EDGE_RECORD_LEN as usize,
        )
    };
    if let Err(e) = fill(bytes) {
        out.truncate(old);
        return Err(e);
    }
    if cfg!(target_endian = "big") {
        for e in &mut out[old..] {
            *e = Edge {
                src: u32::from_le(e.src),
                dst: u32::from_le(e.dst),
            };
        }
    }
    Ok(())
}

/// `EMFILE` — "too many open files" for this process — on Linux, macOS and
/// the BSDs. `std::io::ErrorKind` has no stable kind for it.
const EMFILE: i32 = 24;

/// Create the `k` partition files `<stem>.part<i>.bel` in `dir`, each
/// holding a v1 header with a zero edge count, and return their paths and
/// the open files, both in partition order.
///
/// All or nothing: if file `i` cannot be created the files made so far are
/// removed again, and the error names `k`, the file that failed and, when
/// the cause is the open-file limit (`k` ≳ `RLIMIT_NOFILE`), that limit.
fn create_partition_files(
    dir: &Path,
    stem: &str,
    k: u32,
    num_vertices: u64,
) -> io::Result<(Vec<PathBuf>, Vec<File>)> {
    let mut header = [0u8; HEADER_LEN as usize];
    header[..8].copy_from_slice(&MAGIC);
    header[8..16].copy_from_slice(&num_vertices.to_le_bytes());
    let mut paths = Vec::with_capacity(k as usize);
    let mut files = Vec::with_capacity(k as usize);
    for i in 0..k {
        let path = dir.join(format!("{stem}.part{i}.bel"));
        let opened = File::create(&path).and_then(|mut file| {
            file.write_all(&header)?;
            Ok(file)
        });
        match opened {
            Ok(file) => {
                paths.push(path);
                files.push(file);
            }
            Err(err) => {
                drop(files);
                // `path` too: it may exist with a torn header.
                for made in paths.iter().chain([&path]) {
                    let _ = std::fs::remove_file(made);
                }
                let hint = if err.raw_os_error() == Some(EMFILE) {
                    format!(
                        ": all {k} partition files stay open for the whole run, which \
                         needs RLIMIT_NOFILE above k — raise it (`ulimit -n`) or lower --k"
                    )
                } else {
                    String::new()
                };
                return Err(io::Error::new(
                    err.kind(),
                    format!(
                        "cannot create partition file {} of {k}, {}: {err}{hint}",
                        i + 1,
                        path.display()
                    ),
                ));
            }
        }
    }
    Ok((paths, files))
}

/// A buffered writer producing one binary edge-list file per partition —
/// the materialised output of an out-of-core partitioning run.
pub struct PartitionFileWriter {
    writers: Vec<BufWriter<File>>,
    counts: Vec<u64>,
    paths: Vec<PathBuf>,
}

impl PartitionFileWriter {
    /// Create `k` files named `<stem>.part<i>.bel` in `dir`, held open
    /// until [`finish`](PartitionFileWriter::finish). All or nothing: if
    /// one cannot be created, those made so far are removed and the error
    /// names `k`, the file, and `RLIMIT_NOFILE` when that is the cause.
    pub fn create(dir: &Path, stem: &str, k: u32, num_vertices: u64) -> io::Result<Self> {
        let (paths, files) = create_partition_files(dir, stem, k, num_vertices)?;
        Ok(PartitionFileWriter {
            writers: files.into_iter().map(BufWriter::new).collect(),
            counts: vec![0; k as usize],
            paths,
        })
    }

    /// Append an edge to partition `p`.
    #[inline]
    pub fn write(&mut self, edge: Edge, p: u32) -> io::Result<()> {
        let mut rec = [0u8; EDGE_RECORD_LEN as usize];
        rec[..4].copy_from_slice(&edge.src.to_le_bytes());
        rec[4..].copy_from_slice(&edge.dst.to_le_bytes());
        self.writers[p as usize].write_all(&rec)?;
        self.counts[p as usize] += 1;
        Ok(())
    }

    /// Append every `(edge, partition)` of `batch`, in order.
    pub fn write_batch(&mut self, batch: &[(Edge, u32)]) -> io::Result<()> {
        batch.iter().try_for_each(|&(edge, p)| self.write(edge, p))
    }

    /// Patch edge counts into all headers and close the files.
    /// Returns the per-partition paths and edge counts.
    pub fn finish(self) -> io::Result<Vec<(PathBuf, u64)>> {
        let mut out = Vec::with_capacity(self.writers.len());
        for ((w, count), path) in self.writers.into_iter().zip(self.counts).zip(self.paths) {
            let mut file = w.into_inner()?;
            file.seek(SeekFrom::Start(16))?;
            file.write_all(&count.to_le_bytes())?;
            out.push((path, count));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tps-binfmt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Read a v1 file back through the header check and one record read.
    fn read_back(path: &Path) -> io::Result<(GraphInfo, Vec<Edge>)> {
        let mut file = File::open(path)?;
        let info = read_checked_header(&mut file)?;
        let mut edges = Vec::new();
        read_records(info.num_edges as usize, &mut edges, |bytes| {
            file.read_exact(bytes)
        })?;
        Ok((info, edges))
    }

    #[test]
    fn round_trip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("g.bel");
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(4, 0)];
        let info = write_binary_edge_list(&path, 5, edges.clone()).unwrap();
        assert_eq!(info.num_edges, 3);
        assert_eq!(
            read_back(&path).unwrap(),
            (
                GraphInfo {
                    num_vertices: 5,
                    num_edges: 3
                },
                edges
            )
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Re-reading the records from the first one, in blocks as a cursor
    /// does, yields the one-read pass again.
    #[test]
    fn multi_pass_identical() {
        let dir = tmpdir("multipass");
        let path = dir.join("g.bel");
        let edges: Vec<Edge> = (0..100).map(|i| Edge::new(i, (i * 7 + 1) % 128)).collect();
        write_binary_edge_list(&path, 128, edges.clone()).unwrap();
        let (_, p1) = read_back(&path).unwrap();
        let mut file = File::open(&path).unwrap();
        file.seek(SeekFrom::Start(HEADER_LEN)).unwrap();
        let mut p2 = Vec::new();
        for block in [32, 32, 32, 4] {
            read_records(block, &mut p2, |bytes| file.read_exact(bytes)).unwrap();
        }
        assert_eq!(p1, edges);
        assert_eq!(p1, p2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let dir = tmpdir("badmagic");
        let path = dir.join("bad.bel");
        std::fs::write(&path, b"NOTMAGIC________________").unwrap();
        let err = read_back(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Ids are `u32`: a header |V| of 2³² is the largest valid one, and a
    /// larger one is refused at the header, before a table is sized by it.
    #[test]
    fn rejects_a_vertex_count_past_32_bit_ids() {
        let dir = tmpdir("hugev");
        let path = dir.join("v.bel");
        for (num_vertices, ok) in [
            (1u64 << 32, true),
            ((1 << 32) + 1, false),
            (u64::MAX, false),
        ] {
            write_binary_edge_list(&path, num_vertices, [Edge::new(0, 1)]).unwrap();
            match read_back(&path) {
                Ok((info, _)) => assert!(ok && info.num_vertices == num_vertices),
                Err(err) => {
                    assert!(!ok, "{num_vertices}: {err}");
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                    assert!(err.to_string().contains("2^32"), "{err}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_file_round_trip() {
        let dir = tmpdir("empty");
        let path = dir.join("e.bel");
        write_binary_edge_list(&path, 0, std::iter::empty()).unwrap();
        let (info, edges) = read_back(&path).unwrap();
        assert_eq!(info.num_edges, 0);
        assert!(edges.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record read copies a payload into the (aligned) edge buffer, so
    /// a payload at a misaligned address reads like an aligned one — no
    /// in-place view of the bytes is ever taken — and a short read is
    /// refused, leaving the buffer as it was.
    #[test]
    fn record_views_agree_and_refuse_a_misaligned_payload() {
        let edges: Vec<Edge> = (0..9).map(|i| Edge::new(i * 3, u32::MAX - i)).collect();
        let mut payload = Vec::new();
        for e in &edges {
            payload.extend_from_slice(&e.src.to_le_bytes());
            payload.extend_from_slice(&e.dst.to_le_bytes());
        }
        let mut read = Vec::new();
        read_records(edges.len(), &mut read, |b| (&payload[..]).read_exact(b)).unwrap();
        assert_eq!(read, edges);
        let short = read_records(edges.len() + 1, &mut read, |b| (&payload[..]).read_exact(b));
        assert!(short.is_err());
        assert_eq!(read, edges, "a short read leaves the buffer as it was");

        // The same payload twice in one buffer: once 4-byte aligned, once
        // one byte past an aligned address.
        let mut buf = vec![0u8; 4 + 2 * payload.len() + 1];
        let aligned = buf.as_ptr().align_offset(4);
        let misaligned = aligned + payload.len() + 1;
        buf[aligned..][..payload.len()].copy_from_slice(&payload);
        buf[misaligned..][..payload.len()].copy_from_slice(&payload);
        for at in [aligned, misaligned] {
            let mut copied = Vec::new();
            read_records(edges.len(), &mut copied, |b| {
                b.copy_from_slice(&buf[at..][..payload.len()]);
                Ok(())
            })
            .unwrap();
            assert_eq!(copied, edges);
        }
    }

    #[test]
    fn partition_writer_splits_edges() {
        let dir = tmpdir("pwriter");
        let mut w = PartitionFileWriter::create(&dir, "g", 2, 6).unwrap();
        w.write(Edge::new(0, 1), 0).unwrap();
        w.write(Edge::new(2, 3), 1).unwrap();
        w.write(Edge::new(4, 5), 1).unwrap();
        let parts = w.finish().unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].1, 1);
        assert_eq!(parts[1].1, 2);
        let (info, seen) = read_back(&parts[1].0).unwrap();
        assert_eq!(info.num_vertices, 6);
        assert_eq!(seen, vec![Edge::new(2, 3), Edge::new(4, 5)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
