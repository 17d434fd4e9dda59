//! `tps-io` — the out-of-core I/O engine.
//!
//! The paper's premise is multi-pass streaming from external storage at
//! linear run-time; this crate makes the storage side real. Everything is a
//! [`tps_graph::stream::EdgeStream`], so partitioners stay oblivious:
//!
//! * [`ranged`] — the reader: [`RangedFile`], one range-addressable source
//!   over both formats, whose one cursor type decodes v1 record blocks or
//!   v2 chunks out of positioned reads of one file handle. Every shard of a
//!   run opens its own cursor over a contiguous edge-index range, and a
//!   whole file is range `0..|E|`; a v2 source spills each range it has
//!   decoded once, packed in the bits its ids need, to an unlinked file in
//!   the temp directory, and reads the later passes from there.
//! * [`v2`] — the `TPSBEL2` compressed chunked format: varint-encoded
//!   edges in checksummed chunks with a seekable index footer, plus
//!   order-preserving v1↔v2 converters.
//! * [`page`] — a checksummed slotted page store backing `tps-clustering`'s
//!   paged cluster table, so cluster state itself can live out of core
//!   under a `--mem-budget-mb` budget.
//!
//! [`open_ranged`] is the front door: it sniffs the file format (v1 or v2
//! by magic); [`open_edge_stream`] is its whole-file cursor. See
//! `README.md` in this crate for the format layout.

pub mod page;
pub mod partread;
pub mod ranged;
pub mod v2;

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;
use std::sync::Arc;

use tps_clustering::paged::PageStoreProvider;
use tps_core::job::{InputProvider, JobSpec};
use tps_core::runner::RunOutcome;
use tps_graph::ranged::RangedEdgeSource;
use tps_graph::stream::EdgeStream;

pub use partread::{load_partition_dir, LoadedPartition};

pub use page::{FilePageStore, TempPageStoreProvider};
pub use ranged::{open_ranged, RangedFile, RetainingSource};
pub use v2::{convert_v1_to_v2, convert_v2_to_v1, write_v2_edge_list};

/// How an edge file is read: `buffered`, positioned reads through one file
/// handle — the only way. The name survives as a value so that callers that
/// pass it, and the `--reader` flag that names it, keep working.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReaderBackend {
    /// Positioned reads through one shared file handle.
    #[default]
    Buffered,
}

impl ReaderBackend {
    /// Every backend, for iteration in benches and tests.
    pub const ALL: [ReaderBackend; 1] = [ReaderBackend::Buffered];

    /// Stable lower-case name (CLI flag value).
    pub fn name(self) -> &'static str {
        match self {
            ReaderBackend::Buffered => "buffered",
        }
    }
}

impl std::str::FromStr for ReaderBackend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "buffered" => Ok(ReaderBackend::Buffered),
            other => Err(format!(
                "unknown reader {other:?} (the one reader is buffered)"
            )),
        }
    }
}

/// On-disk edge-list container format, sniffed from the magic bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeFileFormat {
    /// `TPSBEL1`: fixed 8-byte records.
    V1,
    /// `TPSBEL2`: compressed chunked (see [`v2`]).
    V2,
}

/// Sniff a file's container format from its first 8 bytes.
pub fn detect_format<P: AsRef<Path>>(path: P) -> io::Result<EdgeFileFormat> {
    let mut file = File::open(path)?;
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic)?;
    if magic == tps_graph::formats::binary::MAGIC {
        Ok(EdgeFileFormat::V1)
    } else if magic == v2::MAGIC_V2 {
        Ok(EdgeFileFormat::V2)
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "neither TPSBEL1 nor TPSBEL2 magic — not an edge-list file",
        ))
    }
}

/// Open `path` (v1 or v2, auto-detected): the owned cursor over range
/// `0..|E|` of [`open_ranged`]'s source.
pub fn open_edge_stream<P: AsRef<Path>>(
    path: P,
    backend: ReaderBackend,
) -> io::Result<Box<dyn EdgeStream>> {
    let ReaderBackend::Buffered = backend;
    let source = ranged::open_file(path.as_ref())?;
    let stream: Box<dyn EdgeStream> = source.open_range_owned(0, source.info().num_edges)?;
    Ok(stream)
}

/// The standard [`InputProvider`]: opens path inputs as ranged sources
/// through this crate's format sniffing (a v2 source spilling into the
/// system temp directory), and serves cluster-page stores out of it too.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileInput;

impl InputProvider for FileInput {
    fn open_ranged(&self, path: &Path) -> io::Result<Box<dyn RangedEdgeSource>> {
        open_ranged(path)
    }

    fn page_store_provider(&self) -> io::Result<Arc<dyn PageStoreProvider>> {
        let dir = std::env::temp_dir().join(format!("tps-pages-{}", std::process::id()));
        Ok(Arc::new(page::TempPageStoreProvider::new(dir)))
    }
}

/// Run a [`JobSpec`] with file support: path inputs are opened through
/// [`FileInput`] and `mem_budget_mb` budgets get a disk-backed page store.
pub fn run_job(spec: JobSpec<'_>) -> io::Result<RunOutcome> {
    spec.run_with(&FileInput)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_graph::formats::binary::write_binary_edge_list;
    use tps_graph::stream::for_each_edge;
    use tps_graph::types::Edge;

    #[test]
    fn backend_parsing() {
        for backend in ReaderBackend::ALL {
            assert_eq!(backend.name().parse::<ReaderBackend>(), Ok(backend));
        }
        assert_eq!(ReaderBackend::default(), ReaderBackend::Buffered);
        for gone in ["spinny-disk", "mmap", "prefetch"] {
            let err = gone.parse::<ReaderBackend>().unwrap_err();
            assert!(err.contains("buffered"), "{err}");
        }
    }

    #[test]
    fn every_backend_streams_both_formats_identically() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let v1_path = dir.join(format!("tps-io-open-{pid}.bel"));
        let v2_path = dir.join(format!("tps-io-open-{pid}.bel2"));
        let edges: Vec<Edge> = (0..5000u32)
            .map(|i| Edge::new(i % 512, (i * 13) % 4096))
            .collect();
        write_binary_edge_list(&v1_path, 4096, edges.iter().copied()).unwrap();
        write_v2_edge_list(&v2_path, 4096, edges.iter().copied(), 700).unwrap();

        for path in [&v1_path, &v2_path] {
            for backend in ReaderBackend::ALL {
                let mut s = open_edge_stream(path, backend).unwrap();
                assert_eq!(s.len_hint(), Some(5000), "{backend:?} on {path:?}");
                assert_eq!(s.num_vertices_hint(), Some(4096), "{backend:?} on {path:?}");
                let mut seen = Vec::new();
                for_each_edge(&mut s, |e| seen.push(e)).unwrap();
                assert_eq!(seen, edges, "order diverged: {backend:?} on {path:?}");
            }
        }
        std::fs::remove_file(&v1_path).ok();
        std::fs::remove_file(&v2_path).ok();
    }

    /// A v1 file round-trips on every backend, pass after pass, and a range
    /// of it reads its slice; an empty file has one empty pass.
    #[test]
    fn v1_files_round_trip_on_every_backend() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let path = dir.join(format!("tps-io-v1-rt-{pid}.bel"));
        let empty = dir.join(format!("tps-io-v1-empty-{pid}.bel"));
        // Three v1 blocks and a partial fourth.
        let n = 3 * tps_graph::stream::CHUNK_EDGES as u32 + 77;
        let edges: Vec<Edge> = (0..n)
            .map(|i| Edge::new(i % 700, (i * 7 + 1) % 1024))
            .collect();
        write_binary_edge_list(&path, 1024, edges.iter().copied()).unwrap();
        write_binary_edge_list(&empty, 0, std::iter::empty()).unwrap();
        for backend in ReaderBackend::ALL {
            let mut s = open_edge_stream(&path, backend).unwrap();
            for pass in 0..2 {
                let mut seen = Vec::new();
                for_each_edge(&mut s, |e| seen.push(e)).unwrap();
                assert_eq!(seen, edges, "{backend:?} pass {pass}");
            }
            let source = open_ranged(&path).unwrap();
            let (a, b) = (8_000, 20_000);
            let mut seen = Vec::new();
            for_each_edge(&mut *source.open_range(a, b).unwrap(), |e| seen.push(e)).unwrap();
            assert_eq!(seen, &edges[a as usize..b as usize], "{backend:?}");
            assert!(source.open_range(0, n as u64 + 1).is_err(), "{backend:?}");
            assert!(source.open_range(b, a).is_err(), "{backend:?}");

            let mut s = open_edge_stream(&empty, backend).unwrap();
            assert_eq!(s.len_hint(), Some(0), "{backend:?}");
            assert_eq!(s.next_edge().unwrap(), None, "{backend:?}");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&empty).ok();
    }

    /// A v1 header whose edge count the file does not hold — cut payload,
    /// or a count whose byte size overflows — is refused at open by every
    /// backend.
    #[test]
    fn v1_headers_are_checked_at_open_on_every_backend() {
        let path = std::env::temp_dir().join(format!("tps-io-v1-hdr-{}.bel", std::process::id()));
        write_binary_edge_list(&path, 8, (0..10u32).map(|i| Edge::new(i % 8, 7))).unwrap();
        let intact = std::fs::read(&path).unwrap();
        let mut oversized = intact.clone();
        oversized[16..24].copy_from_slice(&(1u64 << 61).to_le_bytes());
        let cases = [
            (
                intact[..intact.len() - 3].to_vec(),
                io::ErrorKind::UnexpectedEof,
            ),
            (oversized, io::ErrorKind::InvalidData),
        ];
        for (bytes, kind) in cases {
            std::fs::write(&path, &bytes).unwrap();
            for backend in ReaderBackend::ALL {
                let err = open_edge_stream(&path, backend).err().expect("must fail");
                assert_eq!(err.kind(), kind, "{backend:?}: {err}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_budgeted_jobs_get_separate_page_files() {
        // Two budgeted jobs in one process each ask `FileInput` for a page
        // store provider; their stores must not share a file.
        let pages_a = FileInput.page_store_provider().unwrap();
        let pages_b = FileInput.page_store_provider().unwrap();
        let mut a = pages_a.open_store(64).unwrap();
        let mut b = pages_b.open_store(64).unwrap();
        a.write_pages(&[(0, vec![0xAA; 64])]).unwrap();
        b.write_pages(&[(0, vec![0xBB; 64])]).unwrap();
        let mut buf = vec![0u8; 64];
        assert!(a.read_page(0, &mut buf).unwrap());
        assert_eq!(buf, vec![0xAA; 64], "job A read job B's page");
    }

    #[test]
    fn detect_rejects_garbage() {
        let path = std::env::temp_dir().join(format!("tps-io-junk-{}", std::process::id()));
        std::fs::write(&path, b"hello world junk").unwrap();
        assert!(detect_format(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
