//! The read-only memory mapping behind the `mmap` reader backend.
//!
//! [`Mmap`] maps a whole edge file so the cursors of a mapped
//! [`RangedFile`](crate::ranged::RangedFile) decode straight out of the page
//! cache: no read syscalls and no byte staging buffer, one mapping shared
//! by every cursor.
//!
//! The mapping is done with a tiny private `mmap(2)` FFI binding — the
//! workspace builds offline with no `libc`/`memmap2` crates, and the three
//! symbols used here (`mmap`, `munmap`, `madvise`) are part of every Unix C
//! library. Non-Unix targets get an `Unsupported` error at `open` time.

use std::fs::File;
use std::io;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_SHARED: i32 = 1;
    pub const MADV_SEQUENTIAL: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }
}

/// A read-only memory mapping of an entire file.
///
/// Dereferences to `&[u8]`. The mapping is `MAP_SHARED` + `PROT_READ`: pages
/// are shared with the page cache and never copied.
pub struct Mmap {
    ptr: *mut std::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is read-only for its entire lifetime; concurrent reads
// of immutable memory are safe from any thread.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map `file` read-only in full. Empty files produce an empty mapping
    /// without calling `mmap` (a zero-length mapping is EINVAL on Linux).
    #[cfg(unix)]
    pub fn map(file: &File) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;

        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file too large to map",
            ));
        }
        let len = len as usize;
        if len == 0 {
            return Ok(Mmap {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        // SAFETY: fd is valid for the duration of the call; we request a
        // fresh read-only shared mapping and check for MAP_FAILED.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // Advisory only; ignore failures.
        unsafe { sys::madvise(ptr, len, sys::MADV_SEQUENTIAL) };
        Ok(Mmap { ptr, len })
    }

    /// Memory mapping is not wired up on this platform.
    #[cfg(not(unix))]
    pub fn map(_file: &File) -> io::Result<Mmap> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mmap backend requires a Unix target",
        ))
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: ptr/len came from a successful mmap and are unmapped
            // exactly once.
            #[cfg(unix)]
            unsafe {
                sys::munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranged::RangedFile;
    use std::path::PathBuf;
    use tps_graph::formats::binary::{write_binary_edge_list, MAGIC};
    use tps_graph::ranged::RangedEdgeSource;
    use tps_graph::stream::for_each_edge;
    use tps_graph::types::{Edge, GraphInfo};

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tps-io-mmap-{tag}-{}.bel", std::process::id()))
    }

    #[test]
    fn mmap_streams_identical_to_spec_order() {
        let path = tmpfile("order");
        let edges: Vec<Edge> = (0..1000)
            .map(|i| Edge::new(i, (i * 31 + 7) % 2048))
            .collect();
        write_binary_edge_list(&path, 2048, edges.iter().copied()).unwrap();
        let src = RangedFile::map(&path).unwrap();
        assert_eq!(
            src.info(),
            GraphInfo {
                num_vertices: 2048,
                num_edges: 1000
            }
        );
        let mut m = src.open_range(0, 1000).unwrap();
        let mut seen = Vec::new();
        for_each_edge(&mut m, |e| seen.push(e)).unwrap();
        assert_eq!(seen, edges);
        // Second pass identical.
        let mut again = Vec::new();
        for_each_edge(&mut m, |e| again.push(e)).unwrap();
        assert_eq!(again, edges);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn random_access_matches_stream() {
        let path = tmpfile("random");
        let edges: Vec<Edge> = (0..64).map(|i| Edge::new(i * 3, i * 5 + 1)).collect();
        write_binary_edge_list(&path, 1024, edges.iter().copied()).unwrap();
        let src = RangedFile::map(&path).unwrap();
        for (i, &e) in edges.iter().enumerate().rev() {
            let mut one = src.open_range(i as u64, i as u64 + 1).unwrap();
            assert_eq!(one.next_edge().unwrap(), Some(e));
            assert_eq!(one.next_edge().unwrap(), None);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let path = tmpfile("bad");
        std::fs::write(&path, b"NOTMAGIC________________").unwrap();
        assert!(RangedFile::map(&path).is_err());

        // Valid header promising more edges than the file holds.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&100u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]); // only 2 edges present
        std::fs::write(&path, &bytes).unwrap();
        let err = RangedFile::map(&path)
            .err()
            .expect("truncated file must fail");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_maps_fine() {
        let path = tmpfile("empty");
        write_binary_edge_list(&path, 0, std::iter::empty()).unwrap();
        let src = RangedFile::map(&path).unwrap();
        let mut m = src.open_range(0, 0).unwrap();
        assert_eq!(m.next_edge().unwrap(), None);
        std::fs::remove_file(&path).ok();
    }
}
