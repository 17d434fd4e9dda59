//! The checksummed page store backing out-of-core cluster paging.
//!
//! [`FilePageStore`] implements `tps-clustering`'s
//! [`PageBacking`] over a single slotted file: every page lives in a
//! fixed-layout slot (`key`, `length`, word-wise checksum, payload), new
//! keys append, re-written keys overwrite their slot in place (all pages of
//! a store share one size, so slots never grow). An in-memory directory maps
//! keys to slot offsets — `O(#pages)` at 16 bytes per *page*, three to
//! four orders of magnitude below the paged data itself. A slot moves in
//! one positioned read or write through a reused staging buffer: no seek,
//! no allocation per fault.
//!
//! Integrity: a read that hits a slot whose stored key, length or checksum
//! disagrees with expectations fails loudly (`InvalidData`) instead of
//! handing back silently wrong cluster state; a slot cut short by
//! truncation surfaces as `UnexpectedEof`. The paged partitioning path
//! checks for these after every phase (`PagedClustering::check_io`).

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tps_clustering::paged::{PageBacking, PageStoreProvider};

/// Slot header: key (8) + payload length (4) + checksum (8).
const SLOT_HEADER_LEN: u64 = 20;

/// 64-bit checksum over a page payload, eight bytes at a time.
///
/// Four independent lanes each chain `h = (rotl(h) ^ word) * odd` over every
/// fourth word, so the multiplies of one lane overlap with the others' (a
/// byte-serial FNV-1a over a 16 KiB page costs ~24 µs, this ~1 µs). Each
/// step is a bijection of `h` for a fixed word and of the word for a fixed
/// `h`, and the lanes fold into the result through the same step, so a
/// change confined to one word — any bit flip, any overwritten byte —
/// always changes the sum. The rotate carries a word's high bits into the
/// next multiply, which makes the chain order-sensitive in every bit:
/// swapped or shifted words land on different lanes or different chain
/// positions. The payload length seeds the sum.
pub(crate) fn page_checksum(bytes: &[u8]) -> u64 {
    const MUL: [u64; 4] = [
        0x9E37_79B9_7F4A_7C15,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
        0xFF51_AFD7_ED55_8CCD,
    ];
    #[inline(always)]
    fn step(h: u64, word: u64, mul: u64) -> u64 {
        (h.rotate_left(23) ^ word).wrapping_mul(mul)
    }
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte chunk"));

    let mut lanes = MUL;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = step(*lane, word(&block[8 * i..8 * i + 8]), MUL[i]);
        }
    }
    // Fewer than 32 bytes left: whole words, then a zero-padded partial one
    // (the length in the seed tells padding from payload).
    let mut words = blocks.remainder().chunks_exact(8);
    for (i, w) in (&mut words).enumerate() {
        lanes[i] = step(lanes[i], word(w), MUL[i]);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        lanes[3] = step(lanes[3], u64::from_le_bytes(padded), MUL[3]);
    }
    let mut sum = bytes.len() as u64;
    for (lane, mul) in lanes.into_iter().zip(MUL) {
        sum = step(sum, lane, mul);
    }
    sum
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A slotted, checksummed, overwrite-in-place page file (see module docs).
/// The backing file is removed on drop.
#[derive(Debug)]
pub struct FilePageStore {
    file: File,
    path: PathBuf,
    page_size: usize,
    /// Page key → slot start offset.
    directory: HashMap<u64, u64>,
    /// Append cursor for slots of never-before-written keys.
    end: u64,
    /// One slot (header + payload) of staging, reused by every read and
    /// write.
    slot: Vec<u8>,
}

impl FilePageStore {
    /// Create an empty store for `page_size`-byte pages at `path`
    /// (truncating anything already there).
    pub fn create(path: &Path, page_size: usize) -> io::Result<Self> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FilePageStore {
            file,
            path: path.to_path_buf(),
            page_size,
            directory: HashMap::new(),
            end: 0,
            slot: vec![0; SLOT_HEADER_LEN as usize + page_size],
        })
    }

    /// Number of distinct pages stored.
    pub fn num_pages(&self) -> usize {
        self.directory.len()
    }

    /// Bytes the store occupies on disk.
    pub fn file_bytes(&self) -> u64 {
        self.end
    }
}

impl Drop for FilePageStore {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

impl PageBacking for FilePageStore {
    fn read_page(&mut self, key: u64, buf: &mut [u8]) -> io::Result<bool> {
        debug_assert_eq!(buf.len(), self.page_size);
        let Some(&offset) = self.directory.get(&key) else {
            return Ok(false);
        };
        self.file
            .read_exact_at(&mut self.slot, offset)
            .map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("page {key:#x}: slot truncated"),
                ),
                _ => e,
            })?;
        let (header, payload) = self.slot.split_at(SLOT_HEADER_LEN as usize);
        let stored_key = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
        let stored_len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        let stored_sum = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
        if stored_key != key {
            return Err(invalid(format!(
                "page {key:#x}: slot holds key {stored_key:#x} (corrupt directory or slot)"
            )));
        }
        if stored_len as usize != self.page_size {
            return Err(invalid(format!(
                "page {key:#x}: slot length {stored_len} != page size {}",
                self.page_size
            )));
        }
        if page_checksum(payload) != stored_sum {
            return Err(invalid(format!(
                "page {key:#x}: checksum mismatch (corrupt slot)"
            )));
        }
        buf.copy_from_slice(payload);
        Ok(true)
    }

    fn write_pages(&mut self, pages: &[(u64, Vec<u8>)]) -> io::Result<()> {
        for (key, data) in pages {
            assert_eq!(data.len(), self.page_size, "page {key:#x}: wrong size");
            let offset = match self.directory.get(key) {
                Some(&off) => off,
                None => {
                    let off = self.end;
                    self.directory.insert(*key, off);
                    self.end += self.slot.len() as u64;
                    off
                }
            };
            let (header, payload) = self.slot.split_at_mut(SLOT_HEADER_LEN as usize);
            header[0..8].copy_from_slice(&key.to_le_bytes());
            header[8..12].copy_from_slice(&(data.len() as u32).to_le_bytes());
            header[12..20].copy_from_slice(&page_checksum(data).to_le_bytes());
            payload.copy_from_slice(data);
            self.file.write_all_at(&self.slot, offset)?;
        }
        Ok(())
    }
}

/// A [`PageStoreProvider`] creating [`FilePageStore`]s in a directory
/// (typically under the system temp dir). Each store gets a file no other
/// store of the process shares, even when two providers — two budgeted jobs
/// — use the same directory; stores remove their files on drop, and
/// providers remove the directory on drop if it emptied.
#[derive(Debug)]
pub struct TempPageStoreProvider {
    dir: PathBuf,
}

/// Numbers every store file of the process: a per-provider count would let
/// a second provider's store truncate and take over a live one's file.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

impl TempPageStoreProvider {
    /// A provider creating stores inside `dir` (created on first use).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TempPageStoreProvider { dir: dir.into() }
    }
}

impl Drop for TempPageStoreProvider {
    fn drop(&mut self) {
        // Only removes the directory when no store files remain.
        let _ = fs::remove_dir(&self.dir);
    }
}

impl PageStoreProvider for TempPageStoreProvider {
    fn open_store(&self, page_size: usize) -> io::Result<Box<dyn PageBacking>> {
        fs::create_dir_all(&self.dir)?;
        let n = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = self
            .dir
            .join(format!("pages-{}-{n}.tpspage", std::process::id()));
        Ok(Box::new(FilePageStore::create(&path, page_size)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Seek, SeekFrom, Write};
    use tps_clustering::paged::{MemPageBacking, PagedClustering};
    use tps_clustering::streaming::{clustering_pass_on, VolumeCap};
    use tps_graph::degree::DegreeTable;
    use tps_graph::gen::planted::{self, PlantedConfig};

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tps-io-page-{tag}-{}.tpspage", std::process::id()))
    }

    fn page(fill: u8, size: usize) -> Vec<u8> {
        vec![fill; size]
    }

    #[test]
    fn roundtrip_and_unknown_keys() {
        let path = tmpfile("roundtrip");
        let mut store = FilePageStore::create(&path, 64).unwrap();
        store
            .write_pages(&[(1, page(0xAA, 64)), (9, page(0xBB, 64))])
            .unwrap();
        let mut buf = vec![0u8; 64];
        assert!(store.read_page(9, &mut buf).unwrap());
        assert_eq!(buf, page(0xBB, 64));
        assert!(store.read_page(1, &mut buf).unwrap());
        assert_eq!(buf, page(0xAA, 64));
        assert!(!store.read_page(7, &mut buf).unwrap(), "never written");
        assert_eq!(store.num_pages(), 2);
    }

    #[test]
    fn overwrite_in_place_keeps_file_size() {
        let path = tmpfile("overwrite");
        let mut store = FilePageStore::create(&path, 32).unwrap();
        store.write_pages(&[(5, page(1, 32))]).unwrap();
        let size_once = store.file_bytes();
        for round in 2..10u8 {
            store.write_pages(&[(5, page(round, 32))]).unwrap();
        }
        assert_eq!(store.file_bytes(), size_once, "overwrites must not grow");
        let mut buf = vec![0u8; 32];
        assert!(store.read_page(5, &mut buf).unwrap());
        assert_eq!(buf, page(9, 32));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let path = tmpfile("corrupt");
        let mut store = FilePageStore::create(&path, 64).unwrap();
        store.write_pages(&[(3, page(0x11, 64))]).unwrap();
        // Flip one payload byte out-of-band.
        let mut f = OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(SLOT_HEADER_LEN + 10)).unwrap();
        f.write_all(&[0x99]).unwrap();
        drop(f);
        let mut buf = vec![0u8; 64];
        let err = store.read_page(3, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    /// A 4 KiB page of distinct, unstructured words (splitmix64).
    fn varied_page() -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut page = Vec::with_capacity(4096);
        while page.len() < 4096 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            page.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        page
    }

    #[test]
    fn checksum_detects_every_single_byte_flip() {
        // On cluster-state-shaped pages too: all sentinels, all zeros.
        for page in [varied_page(), vec![0xFF; 4096], vec![0x00; 4096]] {
            let sum = page_checksum(&page);
            let mut probe = page.clone();
            for i in 0..probe.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    probe[i] ^= flip;
                    assert_ne!(page_checksum(&probe), sum, "byte {i} ^ {flip:#x}");
                    probe[i] ^= flip;
                }
            }
        }
    }

    #[test]
    fn checksum_detects_every_word_swap_and_a_rotation() {
        let page = varied_page();
        let sum = page_checksum(&page);
        let words = page.len() / 8;
        let mut probe = page.clone();
        let swap = |p: &mut [u8], a: usize, b: usize| {
            for k in 0..8 {
                p.swap(8 * a + k, 8 * b + k);
            }
        };
        for a in 0..words {
            for b in a + 1..words {
                swap(&mut probe, a, b);
                assert_ne!(page_checksum(&probe), sum, "words {a} <-> {b}");
                swap(&mut probe, a, b);
            }
        }
        // Words that differ in their top bit only: a plain multiplicative
        // chain cancels exactly this swap within a lane.
        let mut twins = page.clone();
        let top = twins[7] ^ 0x80;
        twins.copy_within(0..8, 32);
        twins[39] = top;
        let twin_sum = page_checksum(&twins);
        swap(&mut twins, 0, 4);
        assert_ne!(page_checksum(&twins), twin_sum, "top-bit twins in one lane");

        probe.rotate_left(8);
        assert_ne!(page_checksum(&probe), sum, "one-word rotation");
        probe.rotate_right(16);
        assert_ne!(
            page_checksum(&probe),
            sum,
            "one-word rotation the other way"
        );
    }

    #[test]
    fn checksum_tells_fill_patterns_and_lengths_apart() {
        assert_ne!(
            page_checksum(&[0x00; 4096]),
            page_checksum(&[0xFF; 4096]),
            "all-zero vs all-0xFF"
        );
        // A zero-extended page is a different page, whatever the tail length.
        let sums: Vec<u64> = (0..=72).map(|n| page_checksum(&vec![0u8; n])).collect();
        for a in 0..sums.len() {
            for b in a + 1..sums.len() {
                assert_ne!(sums[a], sums[b], "{a} vs {b} zero bytes");
            }
        }
    }

    #[test]
    fn corrupt_slot_key_is_detected() {
        let path = tmpfile("badkey");
        let mut store = FilePageStore::create(&path, 16).unwrap();
        store.write_pages(&[(42, page(7, 16))]).unwrap();
        let mut f = OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        f.write_all(&77u64.to_le_bytes()).unwrap();
        drop(f);
        let mut buf = vec![0u8; 16];
        let err = store.read_page(42, &mut buf).unwrap_err();
        assert!(err.to_string().contains("key"), "{err}");
    }

    #[test]
    fn truncated_slot_is_detected() {
        let path = tmpfile("trunc");
        let mut store = FilePageStore::create(&path, 64).unwrap();
        store
            .write_pages(&[(1, page(1, 64)), (2, page(2, 64))])
            .unwrap();
        // Cut the file mid-way through the second slot's payload.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(SLOT_HEADER_LEN + 64 + SLOT_HEADER_LEN + 10)
            .unwrap();
        drop(f);
        let mut buf = vec![0u8; 64];
        assert!(store.read_page(1, &mut buf).unwrap(), "first slot intact");
        let err = store.read_page(2, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn store_file_removed_on_drop() {
        let path = tmpfile("dropclean");
        let mut store = FilePageStore::create(&path, 16).unwrap();
        store.write_pages(&[(0, page(0, 16))]).unwrap();
        assert!(path.exists());
        drop(store);
        assert!(!path.exists());
    }

    #[test]
    fn provider_hands_out_distinct_stores() {
        let dir = std::env::temp_dir().join(format!("tps-io-pagedir-{}", std::process::id()));
        let provider = TempPageStoreProvider::new(&dir);
        let mut a = provider.open_store(32).unwrap();
        let mut b = provider.open_store(32).unwrap();
        a.write_pages(&[(1, page(0xA, 32))]).unwrap();
        let mut buf = vec![0u8; 32];
        assert!(!b.read_page(1, &mut buf).unwrap(), "stores are independent");
        drop(a);
        drop(b);
        drop(provider);
        assert!(!dir.exists(), "empty store dir cleaned up");
    }

    /// The file store and the in-memory backing are interchangeable under
    /// a real clustering workload: same final state, byte for byte.
    #[test]
    fn paged_clustering_over_file_store_matches_mem_backing() {
        let g = planted::generate(&PlantedConfig::web(600, 3000), 3);
        let mut s = g.stream();
        let degrees = DegreeTable::compute(&mut s, g.num_vertices()).unwrap();
        let cap = VolumeCap::FractionOfTotal(1.0 / 8.0).resolve(degrees.total_volume());
        let run = |backing: Box<dyn PageBacking>| -> PagedClustering {
            // 4 tiny frames: heavy eviction through the backing under test.
            let mut t = PagedClustering::with_page_size(g.num_vertices(), 4 * 64, 64, backing);
            for _ in 0..2 {
                let mut s = g.stream();
                clustering_pass_on(&mut s, &degrees, cap, &mut t).unwrap();
            }
            t.check_io().unwrap();
            t
        };
        let path = tmpfile("clustered");
        let mut on_file = run(Box::new(FilePageStore::create(&path, 64).unwrap()));
        let mut in_mem = run(Box::new(MemPageBacking::new()));
        assert_eq!(on_file.num_cluster_ids(), in_mem.num_cluster_ids());
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(on_file.raw_cluster_of(v), in_mem.raw_cluster_of(v), "v={v}");
        }
        on_file.check_io().unwrap();
        in_mem.check_io().unwrap();
    }
}
