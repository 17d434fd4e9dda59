//! Budget-bounded, disk-backed cluster state: the out-of-core counterpart
//! of [`Clustering`].
//!
//! The paper's pitch is out-of-core partitioning at linear run-time, but a
//! flat `Vec`-backed clustering still ties peak RSS to `O(|V|)`.
//! [`PagedClustering`] removes that term: the three per-vertex/per-cluster
//! arrays of phase 1+2 — vertex→cluster (`v2c`), cluster volumes (`vol`)
//! and cluster→partition (`c2p`) — are split into fixed-size pages, of
//! which at most `budget / page_size` are resident at once. Hot pages are
//! pinned by a strict LRU; cold dirty pages are written back in batches
//! through a [`PageBacking`] (the file-backed store lives in `tps-io`,
//! which `tps-clustering` cannot depend on — the trait points the
//! dependency the right way round).
//!
//! Cost model: a hit is an array index — one direct-indexed page table
//! per array (page number → frame), shift/mask addressing into one
//! contiguous frame pool, one LRU-stamp store. Everything else (victim
//! scan, write-back staging, backing I/O) lives in the `#[cold]` fault
//! path, so the four accessors inline into the clustering and assignment
//! loops.
//!
//! Compaction: Algorithm 1 founds a singleton cluster for every vertex on
//! first sight, so `vol` — and `c2p`, sized like it — would span every id
//! ever handed out (600 k on the ledger's web graph) although mapping and
//! phase 2 read only the live clusters (~1 000 there). [`compact_ids`]
//! renumbers the survivors in id order: it scans `vol` page by page,
//! slides the live volumes down, rewrites `v2c` one resident page at a
//! time, and demotes the frames of the dead `vol` tail — clean and least
//! recently used, so new ids grow back into them without a fault and any
//! other fault takes them first. A one-shard run calls it at every pass
//! boundary. Mid-pass, the pass's [`ClusterTable::between_edges`] hook
//! calls it when three things hold: the pool is full, `⌈|V|/64⌉` ids were
//! allocated since the last compaction, and the dead tail holds frames not
//! yet demoted. Ids never exceed `|V|`, so that is at most 64 mid-pass
//! compactions of `O(|V|)` each, and phase 1 stays linear. On
//! endpoint-sorted input whose `v2c` fits the pool, the pool then holds
//! `v2c` and a few `vol` pages and evicts nothing: on the ledger's web
//! graph at `--mem-budget-mb 5` (147 `v2c` pages in 160 frames) phase 1
//! takes 160 faults. The stride is measured, not derived: `⌈|V|/32⌉` left
//! that pool a page short (681 faults), and pass-boundary compaction
//! alone leaves 13 931.
//!
//! Promotion: compaction can shrink the state until it fits the budget
//! flat, and from then on paging buys nothing but the page-table toll. A
//! one-shard run checks at every pass boundary, once compacted, whether
//! the flat arrays — `v2c`, `vol` and `c2p`, `4·|V| + 12·live` bytes — fit
//! the budget; if they do, [`into_clustering`] copies the table out and
//! the rest of the run takes the in-memory path. Only a table that never
//! fits pages through mapping and phase 2. On the ledger's web graph at
//! `--mem-budget-mb 5` that happens after pass 1.
//!
//! Determinism: page faults and evictions are a pure function of the access
//! sequence (LRU order is tracked by a monotonic counter, never by wall
//! time, and compaction triggers on counts, never on chunk boundaries), so
//! two runs over the same stream issue identical reads and writes — and
//! because every access goes through the same [`ClusterTable`] calls as
//! the in-memory path, and compaction preserves the order of ids, the
//! partitioning output is bit-identical at **every** budget, including a
//! budget of zero (which degenerates to a single resident frame: fully
//! external, constant memory, maximum I/O).
//!
//! [`compact_ids`]: PagedClustering::compact_ids
//! [`into_clustering`]: PagedClustering::into_clustering

use std::collections::HashMap;
use std::io;

use tps_graph::types::{ClusterId, PartitionId, VertexId};

use crate::model::{Clustering, IdRemap, NO_CLUSTER};
use crate::table::ClusterTable;

/// Default page size: 64 KiB (16 Ki `u32` entries / 8 Ki `u64` entries).
pub const DEFAULT_PAGE_SIZE: usize = 64 * 1024;

/// Dirty pages buffered before a batched [`PageBacking::write_pages`] call.
/// This bounds the write-back staging memory to
/// `WRITE_BATCH_PAGES × page_size` — part of the fixed overhead on top of
/// the configured budget.
pub const WRITE_BATCH_PAGES: usize = 8;

/// The three paged arrays, encoded into the page key's kind bits.
const KIND_V2C: u8 = 0;
const KIND_VOL: u8 = 1;
const KIND_C2P: u8 = 2;

/// Byte every page of `kind` starts life filled with: `0xFF` yields
/// `NO_CLUSTER` / unplaced sentinels for the u32 maps, `0x00` yields zero
/// volumes.
fn fill_byte(kind: u8) -> u8 {
    match kind {
        KIND_VOL => 0x00,
        _ => 0xFF,
    }
}

fn page_key(kind: u8, page_no: u64) -> u64 {
    debug_assert!(page_no < 1 << 40, "page number overflows the key space");
    ((kind as u64) << 40) | page_no
}

/// Where evicted pages go: the storage backend of a [`PagedClustering`].
///
/// Implementations store whole pages addressed by an opaque `u64` key.
/// Pages are all the same size for the lifetime of a store.
pub trait PageBacking: Send {
    /// Read page `key` into `buf` (exactly one page long). Returns `false`
    /// if the page was never written — the caller applies the default fill.
    /// Corrupt or truncated stored pages must surface as `Err`, never as
    /// silently wrong bytes.
    fn read_page(&mut self, key: u64, buf: &mut [u8]) -> io::Result<bool>;

    /// Persist a batch of pages (write-back batching: the table buffers up
    /// to [`WRITE_BATCH_PAGES`] evicted dirty pages per call).
    fn write_pages(&mut self, pages: &[(u64, Vec<u8>)]) -> io::Result<()>;
}

/// Creates fresh page stores: the seam `tps-core` uses to ask its I/O
/// provider for disk-backed storage without `tps-core`/`tps-clustering`
/// depending on `tps-io`.
pub trait PageStoreProvider: Send + Sync {
    /// Open a new, empty page store for `page_size`-byte pages.
    fn open_store(&self, page_size: usize) -> io::Result<Box<dyn PageBacking>>;
}

/// An in-memory [`PageBacking`] (tests, and environments without an I/O
/// provider). Defeats the RSS purpose of paging — the pages just move into
/// a map — but preserves the exact fault/eviction/batching behaviour, so
/// bit-identity and determinism tests run without touching disk.
#[derive(Debug, Default)]
pub struct MemPageBacking {
    pages: HashMap<u64, Vec<u8>>,
}

impl MemPageBacking {
    /// An empty in-memory backing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct pages ever written.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }
}

impl PageBacking for MemPageBacking {
    fn read_page(&mut self, key: u64, buf: &mut [u8]) -> io::Result<bool> {
        match self.pages.get(&key) {
            Some(data) => {
                buf.copy_from_slice(data);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn write_pages(&mut self, pages: &[(u64, Vec<u8>)]) -> io::Result<()> {
        for (key, data) in pages {
            self.pages.insert(*key, data.clone());
        }
        Ok(())
    }
}

/// A [`PageStoreProvider`] handing out [`MemPageBacking`]s.
#[derive(Debug, Default)]
pub struct MemPageStoreProvider;

impl PageStoreProvider for MemPageStoreProvider {
    fn open_store(&self, _page_size: usize) -> io::Result<Box<dyn PageBacking>> {
        Ok(Box::new(MemPageBacking::new()))
    }
}

/// Fault/eviction and compaction statistics of a [`PagedClustering`] (run
/// reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagingStats {
    /// Page faults (accesses that missed the resident frame pool).
    pub faults: u64,
    /// Frames evicted to make room (dirty or clean).
    pub evictions: u64,
    /// Dirty pages pushed through the write-back path.
    pub writebacks: u64,
    /// Id compactions that dropped at least one id.
    pub compactions: u64,
    /// Cluster ids those compactions dropped.
    pub ids_dropped: u64,
}

/// Page-table entry of a page that is not resident.
const ABSENT: u32 = u32::MAX;

/// LRU stamp of a frame whose page a compaction left dead: older than any
/// access (the clock starts at 1), so it is the next victim.
const DEMOTED: u64 = 0;

/// Low 40 bits of a page key: the page number within its kind.
const PAGE_NO_MASK: u64 = (1 << 40) - 1;

/// The paged cluster table: `v2c`, `vol` and `c2p` behind one LRU frame
/// pool bounded by a byte budget.
///
/// Implements [`ClusterTable`], so
/// [`clustering_pass_on`](crate::streaming::clustering_pass_on) runs
/// against it unchanged; phase-2 helpers (`partition_of`,
/// `for_each_volume`) cover the mapping and assignment passes.
///
/// I/O errors poison the table instead of panicking: affected accessors
/// return default values and the first error is surfaced by
/// [`check_io`](PagedClustering::check_io), which callers run after every
/// phase (the [`ClusterTable`] accessors cannot return `Result` — the hot
/// loop is shared with the infallible in-memory path).
pub struct PagedClustering {
    num_vertices: u64,
    next_id: u32,
    /// Ids with non-zero volume (exact, since members have degree ≥ 1).
    live: u32,
    /// `next_id` at which [`between_edges`](ClusterTable::between_edges)
    /// next weighs a mid-pass compaction.
    next_check: u32,
    page_size: usize,
    /// `log2(page_size)`: byte offset → page number by shift, frame index →
    /// pool offset by shift.
    page_shift: u32,
    max_frames: usize,
    /// Per kind, page number → frame index ([`ABSENT`] when not resident).
    /// Grown on fault to the highest page touched: `O(|V|·16 / page_size)`
    /// entries in total.
    tables: [Vec<u32>; 3],
    /// The frame pool: frame `i` is `pool[i << page_shift..][..page_size]`.
    /// Grows one frame per cold fault up to `max_frames`, so it is bounded
    /// by the pages actually touched, never sized by the budget up front.
    pool: Vec<u8>,
    /// Per frame: the page it holds.
    keys: Vec<u64>,
    /// Per frame: monotonic last-use stamp — the LRU order. Deterministic:
    /// stamps come from an access counter, never from time.
    stamps: Vec<u64>,
    /// Per frame: modified since it was loaded.
    dirty: Vec<bool>,
    /// Evicted dirty pages staged for the next batched write.
    pending: Vec<(u64, Vec<u8>)>,
    /// Page buffers recycled between `pending` rounds (at most
    /// [`WRITE_BATCH_PAGES`]).
    spare: Vec<Vec<u8>>,
    backing: Box<dyn PageBacking>,
    clock: u64,
    stats: PagingStats,
    error: Option<io::Error>,
}

impl std::fmt::Debug for PagedClustering {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedClustering")
            .field("num_vertices", &self.num_vertices)
            .field("next_id", &self.next_id)
            .field("page_size", &self.page_size)
            .field("max_frames", &self.max_frames)
            .field("resident", &self.keys.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl PagedClustering {
    /// An empty paged clustering over `num_vertices` vertices, keeping at
    /// most `budget_bytes` of pages resident (a zero budget still pins one
    /// frame — the fully-external degeneration).
    pub fn new(num_vertices: u64, budget_bytes: u64, backing: Box<dyn PageBacking>) -> Self {
        Self::with_page_size(num_vertices, budget_bytes, DEFAULT_PAGE_SIZE, backing)
    }

    /// [`PagedClustering::new`] with an explicit page size (tests use tiny
    /// pages to force eviction on small graphs). `page_size` must be a
    /// power of two ≥ 8: pages are addressed by shift and mask, and no
    /// entry may straddle a page boundary.
    pub fn with_page_size(
        num_vertices: u64,
        budget_bytes: u64,
        page_size: usize,
        backing: Box<dyn PageBacking>,
    ) -> Self {
        assert!(
            page_size >= 8 && page_size.is_power_of_two(),
            "page size must be a power of two >= 8"
        );
        let max_frames = (budget_bytes / page_size as u64).clamp(1, ABSENT as u64 - 1) as usize;
        let mut table = PagedClustering {
            num_vertices,
            next_id: 0,
            live: 0,
            next_check: 0,
            page_size,
            page_shift: page_size.trailing_zeros(),
            max_frames,
            tables: [Vec::new(), Vec::new(), Vec::new()],
            pool: Vec::new(),
            keys: Vec::new(),
            stamps: Vec::new(),
            dirty: Vec::new(),
            pending: Vec::new(),
            spare: Vec::new(),
            backing,
            clock: 0,
            stats: PagingStats::default(),
            error: None,
        };
        table.next_check = table.compaction_stride();
        table
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Number of cluster ids ever allocated.
    pub fn num_cluster_ids(&self) -> u32 {
        self.next_id
    }

    /// Resident page-pool bytes (≤ budget, modulo the one-frame floor).
    pub fn resident_bytes(&self) -> u64 {
        self.pool.len() as u64
    }

    /// Fault/eviction statistics so far.
    pub fn stats(&self) -> PagingStats {
        self.stats
    }

    /// Surface the first I/O error the table swallowed, if any. Call after
    /// each phase; a poisoned table keeps returning defaults, so skipping
    /// this check risks silently wrong output.
    pub fn check_io(&mut self) -> io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if let Err(e) = self.backing.write_pages(&self.pending) {
            // Only the first error is kept.
            self.error.get_or_insert(e);
        }
        self.spare
            .extend(self.pending.drain(..).map(|(_, data)| data));
    }

    /// Pool offset of the entry at byte `byte` of array `kind`, with its
    /// page brought resident and stamped most-recently-used. The hit path
    /// is a table index and a stamp store; a miss goes through
    /// [`fault`](Self::fault).
    #[inline]
    fn locate(&mut self, kind: u8, byte: u64) -> usize {
        self.clock += 1;
        let page_no = (byte >> self.page_shift) as usize;
        let frame = match self.tables[kind as usize].get(page_no) {
            Some(&frame) if frame != ABSENT => {
                self.stamps[frame as usize] = self.clock;
                frame as usize
            }
            _ => self.fault(kind, page_no),
        };
        (frame << self.page_shift) | (byte as usize & (self.page_size - 1))
    }

    /// Bring page `page_no` of `kind` resident — evicting the
    /// least-recently-used frame if the pool is full — and return its
    /// frame index.
    #[cold]
    #[inline(never)]
    fn fault(&mut self, kind: u8, page_no: usize) -> usize {
        let key = page_key(kind, page_no as u64);
        self.stats.faults += 1;
        let frame = if self.keys.len() < self.max_frames {
            self.pool.resize(self.pool.len() + self.page_size, 0);
            self.keys.push(key);
            self.stamps.push(self.clock);
            self.dirty.push(false);
            self.keys.len() - 1
        } else {
            // Evict the least-recently-used frame (stamps are unique but
            // for demoted frames, of which the first wins, so the victim —
            // and therefore the whole I/O sequence — is deterministic).
            let frame = self
                .stamps
                .iter()
                .enumerate()
                .min_by_key(|&(_, stamp)| *stamp)
                .map(|(i, _)| i)
                .expect("frame pool is non-empty once full");
            let old_key = self.keys[frame];
            self.tables[(old_key >> 40) as usize][(old_key & PAGE_NO_MASK) as usize] = ABSENT;
            self.stats.evictions += 1;
            if self.dirty[frame] {
                self.stats.writebacks += 1;
                let mut data = self.spare.pop().unwrap_or_else(|| vec![0; self.page_size]);
                data.copy_from_slice(&self.pool[frame << self.page_shift..][..self.page_size]);
                self.pending.push((old_key, data));
                if self.pending.len() >= WRITE_BATCH_PAGES {
                    self.flush_pending();
                }
            }
            self.keys[frame] = key;
            self.stamps[frame] = self.clock;
            frame
        };
        let page = &mut self.pool[frame << self.page_shift..][..self.page_size];
        // Load: newest data may still sit in the write-back buffer.
        if let Some(pos) = self.pending.iter().position(|(k, _)| *k == key) {
            let (_, data) = self.pending.swap_remove(pos);
            page.copy_from_slice(&data);
            self.spare.push(data);
            // Never reached the backing — must stay dirty or it is lost.
            self.dirty[frame] = true;
        } else {
            let found = match self.backing.read_page(key, page) {
                Ok(found) => found,
                Err(e) => {
                    self.error.get_or_insert(e);
                    false
                }
            };
            if !found {
                page.fill(fill_byte(kind));
            }
            self.dirty[frame] = false;
        }
        let table = &mut self.tables[kind as usize];
        if page_no >= table.len() {
            table.resize(page_no + 1, ABSENT);
        }
        table[page_no] = frame as u32;
        frame
    }

    #[inline]
    fn load_u32(&mut self, kind: u8, index: u64) -> u32 {
        let off = self.locate(kind, index << 2);
        u32::from_le_bytes(self.pool[off..off + 4].try_into().expect("4-byte slice"))
    }

    #[inline]
    fn store_u32(&mut self, kind: u8, index: u64, value: u32) {
        let off = self.locate(kind, index << 2);
        self.pool[off..off + 4].copy_from_slice(&value.to_le_bytes());
        self.dirty[off >> self.page_shift] = true;
    }

    #[inline]
    fn load_u64(&mut self, kind: u8, index: u64) -> u64 {
        let off = self.locate(kind, index << 3);
        u64::from_le_bytes(self.pool[off..off + 8].try_into().expect("8-byte slice"))
    }

    #[inline]
    fn store_u64(&mut self, kind: u8, index: u64, value: u64) {
        let off = self.locate(kind, index << 3);
        self.pool[off..off + 8].copy_from_slice(&value.to_le_bytes());
        self.dirty[off >> self.page_shift] = true;
    }

    /// Raw cluster id of `v` (`NO_CLUSTER` when unassigned).
    #[inline]
    pub fn raw_cluster_of(&mut self, v: VertexId) -> ClusterId {
        self.load_u32(KIND_V2C, v as u64)
    }

    /// Volume of cluster `c`.
    #[inline]
    pub fn cluster_volume(&mut self, c: ClusterId) -> u64 {
        self.load_u64(KIND_VOL, c as u64)
    }

    /// Record the partition placement of cluster `c` (phase-2 mapping).
    #[inline]
    pub fn set_partition_of(&mut self, c: ClusterId, p: PartitionId) {
        self.store_u32(KIND_C2P, c as u64, p);
    }

    /// Partition placement of cluster `c` (must have been set).
    #[inline]
    pub fn partition_of(&mut self, c: ClusterId) -> PartitionId {
        let p = self.load_u32(KIND_C2P, c as u64);
        debug_assert_ne!(p, u32::MAX, "cluster {c} queried before placement");
        p
    }

    /// Sequentially visit `(cluster id, volume)` for every allocated id —
    /// the mapping phase's input scan. Pages are visited in order, so the
    /// scan touches each volume page exactly once.
    pub fn for_each_volume(&mut self, mut f: impl FnMut(ClusterId, u64)) {
        for c in 0..self.next_id {
            let vol = self.load_u64(KIND_VOL, c as u64);
            f(c, vol);
        }
    }

    /// Number of clusters with non-zero volume.
    pub fn num_nonempty_clusters(&self) -> u64 {
        self.live as u64
    }

    /// Largest cluster volume (scan; 0 if no clusters).
    pub fn max_volume(&mut self) -> u64 {
        let mut max = 0;
        self.for_each_volume(|_, vol| max = max.max(vol));
        max
    }

    /// Drop since-emptied cluster ids, renumbering the survivors in
    /// ascending old-id order — [`Clustering::compact_ids`] on paged
    /// state (same remap, same output invariance); returns how many ids
    /// it dropped. Frames that held the dead tail of `vol` become the
    /// pool's first victims, clean. Phase 1 only: `c2p` is not remapped,
    /// so call it before the first
    /// [`set_partition_of`](Self::set_partition_of).
    ///
    /// [`Clustering::compact_ids`]: crate::model::Clustering::compact_ids
    pub fn compact_ids(&mut self) -> u32 {
        debug_assert!(
            self.tables[KIND_C2P as usize].is_empty(),
            "compaction after placement"
        );
        let dropped = self.next_id - self.live;
        self.next_check = self.live.saturating_add(self.compaction_stride());
        if dropped == 0 {
            return 0;
        }
        // Scan `vol` a page at a time, sliding each page's survivors down
        // to their new ids (never above their old ones).
        let per_page = (self.page_size / 8) as u32;
        let mut remap = IdRemap::new(self.next_id);
        let mut survivors = Vec::with_capacity(per_page as usize);
        let mut next = 0u32;
        let mut first_dead = NO_CLUSTER;
        for page_no in 0..self.next_id.div_ceil(per_page) {
            let first = page_no * per_page;
            let frame = self.page_frame(KIND_VOL, page_no as usize);
            let entries = per_page.min(self.next_id - first) as usize;
            let page = &self.pool[frame << self.page_shift..][..entries * 8];
            for (i, entry) in page.chunks_exact(8).enumerate() {
                let vol = u64::from_le_bytes(entry.try_into().expect("8-byte slice"));
                if vol > 0 {
                    remap.mark_live(first + i as u32);
                    survivors.push((first + i as u32, vol));
                }
            }
            for (old, vol) in survivors.drain(..) {
                if old != next {
                    first_dead = first_dead.min(next);
                    self.store_u64(KIND_VOL, next as u64, vol);
                }
                next += 1;
            }
        }
        debug_assert_eq!(next, self.live, "live count drifted");
        remap.rank();
        // Rewrite every `v2c` page ever touched (the rest is all
        // `NO_CLUSTER`), one resident page at a time; ids below the first
        // dead one keep their number.
        for page_no in 0..self.tables[KIND_V2C as usize].len() {
            let frame = self.page_frame(KIND_V2C, page_no);
            let page = &mut self.pool[frame << self.page_shift..][..self.page_size];
            let mut changed = false;
            for entry in page.chunks_exact_mut(4) {
                let c = u32::from_le_bytes((&*entry).try_into().expect("4-byte slice"));
                if c >= first_dead && c != NO_CLUSTER {
                    entry.copy_from_slice(&remap.map(c).to_le_bytes());
                    changed = true;
                }
            }
            self.dirty[frame] |= changed;
        }
        // The `vol` pages past the survivors hold nothing anyone reads
        // again (a new id writes its volume before any read): make their
        // frames clean and least recently used. New ids grow back into
        // them without a fault; any other fault takes them first, without
        // a write-back.
        let keep = self.vol_pages_kept();
        for &frame in self.tables[KIND_VOL as usize].iter().skip(keep) {
            if frame != ABSENT {
                self.dirty[frame as usize] = false;
                self.stamps[frame as usize] = DEMOTED;
            }
        }
        self.next_id = self.live;
        self.stats.compactions += 1;
        self.stats.ids_dropped += dropped as u64;
        dropped
    }

    /// The table as a flat [`Clustering`] (module docs, "Promotion"): every
    /// `v2c` page — resident, written back, or never touched (all
    /// `NO_CLUSTER`) — and the volumes of ids `0..next_id`, copied without
    /// faulting. Ids read back are validated, so a corrupt or foreign store
    /// is an `InvalidData` error, not a panic. Consumes the table: the pool
    /// and the page store go with it.
    pub fn into_clustering(mut self) -> io::Result<Clustering> {
        self.check_io()?;
        let mut page = vec![0u8; self.page_size];
        let mut v2c = Vec::with_capacity(self.num_vertices as usize);
        let v2c_pages = (self.num_vertices * 4).div_ceil(self.page_size as u64);
        for page_no in 0..v2c_pages as usize {
            self.copy_page(KIND_V2C, page_no, &mut page)?;
            let left = (self.num_vertices - v2c.len() as u64).min(self.page_size as u64 / 4);
            for entry in page[..left as usize * 4].chunks_exact(4) {
                let c = u32::from_le_bytes(entry.try_into().expect("4-byte slice"));
                if c != NO_CLUSTER && c >= self.next_id {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "paged vertex {} holds cluster id {c} of {}",
                            v2c.len(),
                            self.next_id
                        ),
                    ));
                }
                v2c.push(c);
            }
        }
        let mut volumes = Vec::with_capacity(self.next_id as usize);
        for page_no in 0..(self.next_id as usize * 8).div_ceil(self.page_size) {
            self.copy_page(KIND_VOL, page_no, &mut page)?;
            let left = (self.next_id as usize - volumes.len()).min(self.page_size / 8);
            volumes.extend(
                page[..left * 8]
                    .chunks_exact(8)
                    .map(|entry| u64::from_le_bytes(entry.try_into().expect("8-byte slice"))),
            );
        }
        Ok(Clustering::from_parts(v2c, volumes))
    }

    /// Copy page `page_no` of `kind` into `buf` without bringing it
    /// resident: from its frame, from the write-back buffer (newest), from
    /// the backing store, or — never written — the kind's fill.
    fn copy_page(&mut self, kind: u8, page_no: usize, buf: &mut [u8]) -> io::Result<()> {
        let key = page_key(kind, page_no as u64);
        match self.tables[kind as usize].get(page_no) {
            Some(&frame) if frame != ABSENT => {
                buf.copy_from_slice(
                    &self.pool[(frame as usize) << self.page_shift..][..self.page_size],
                );
            }
            _ => match self.pending.iter().find(|(k, _)| *k == key) {
                Some((_, data)) => buf.copy_from_slice(data),
                None => {
                    if !self.backing.read_page(key, buf)? {
                        buf.fill(fill_byte(kind));
                    }
                }
            },
        }
        Ok(())
    }

    /// Ids allocated between two mid-pass compactions: `⌈|V|/64⌉`, which
    /// caps them at 64 per run (module docs, "Compaction").
    fn compaction_stride(&self) -> u32 {
        self.num_vertices.div_ceil(64).clamp(1, u32::MAX as u64) as u32
    }

    /// `vol` pages the live clusters occupy once compacted.
    fn vol_pages_kept(&self) -> usize {
        (self.live as usize * 8).div_ceil(self.page_size)
    }

    /// The frame holding page `page_no` of `kind`, faulted in if need be and
    /// stamped most-recently-used.
    fn page_frame(&mut self, kind: u8, page_no: usize) -> usize {
        self.locate(kind, (page_no as u64) << self.page_shift) >> self.page_shift
    }

    /// The mid-pass trigger (module docs, "Compaction"): compact if the
    /// pool is full and compacting frees a resident frame; otherwise look
    /// again a page of ids later.
    #[cold]
    #[inline(never)]
    fn compact_if_it_frees_frames(&mut self) {
        let pool_full = self.keys.len() >= self.max_frames;
        let frees = || {
            self.tables[KIND_VOL as usize]
                .iter()
                .skip(self.vol_pages_kept())
                .any(|&frame| frame != ABSENT && self.stamps[frame as usize] != DEMOTED)
        };
        if pool_full && frees() {
            self.compact_ids();
        } else {
            self.next_check = self.next_id.saturating_add((self.page_size / 8) as u32);
        }
    }
}

impl ClusterTable for PagedClustering {
    #[inline]
    fn cluster_of(&mut self, v: VertexId) -> ClusterId {
        self.raw_cluster_of(v)
    }

    #[inline]
    fn volume(&mut self, c: ClusterId) -> u64 {
        self.cluster_volume(c)
    }

    #[inline]
    fn create_cluster(&mut self, v: VertexId, vol: u64) -> ClusterId {
        let id = self.next_id;
        self.next_id += 1;
        self.live += u32::from(vol > 0);
        self.store_u64(KIND_VOL, id as u64, vol);
        self.store_u32(KIND_V2C, v as u64, id);
        id
    }

    #[inline]
    fn migrate(&mut self, v: VertexId, d: u64, to: ClusterId) {
        let from = self.load_u32(KIND_V2C, v as u64);
        debug_assert_ne!(from, NO_CLUSTER);
        debug_assert_ne!(from, to);
        let from_vol = self.load_u64(KIND_VOL, from as u64);
        self.live -= u32::from(d > 0 && from_vol == d);
        self.store_u64(KIND_VOL, from as u64, from_vol - d);
        let to_vol = self.load_u64(KIND_VOL, to as u64);
        self.store_u64(KIND_VOL, to as u64, to_vol + d);
        self.store_u32(KIND_V2C, v as u64, to);
    }

    #[inline]
    fn between_edges(&mut self) {
        if self.next_id >= self.next_check {
            self.compact_if_it_frees_frames();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::{clustering_pass_on, VolumeCap};
    use std::sync::{Arc, Mutex};
    use tps_graph::degree::DegreeTable;
    use tps_graph::gen::planted;
    use tps_graph::gen::planted::PlantedConfig;
    use tps_graph::stream::InMemoryGraph;

    fn mem_table(num_vertices: u64, budget: u64, page_size: usize) -> PagedClustering {
        PagedClustering::with_page_size(
            num_vertices,
            budget,
            page_size,
            Box::new(MemPageBacking::new()),
        )
    }

    #[test]
    fn basic_ops_match_in_memory() {
        let mut paged = mem_table(4, 0, 16); // 1 frame of 16 bytes: constant thrash
        let mut flat = Clustering::empty(4);
        let a = paged.create_cluster(0, 3);
        assert_eq!(a, flat.create_cluster(0, 3));
        let b = paged.create_cluster(1, 5);
        assert_eq!(b, flat.create_cluster(1, 5));
        paged.migrate(0, 3, b);
        flat.migrate(0, 3, b);
        for v in 0..4u32 {
            assert_eq!(paged.raw_cluster_of(v), flat.raw_cluster_of(v), "v={v}");
        }
        for c in [a, b] {
            assert_eq!(paged.cluster_volume(c), flat.volume(c), "c={c}");
        }
        paged.check_io().unwrap();
        assert!(paged.stats().faults > 0, "a 1-frame pool must fault");
        assert_eq!(paged.resident_bytes(), 16);
    }

    #[test]
    fn unset_state_reads_as_defaults() {
        let mut t = mem_table(100, 1024, 64);
        assert_eq!(t.raw_cluster_of(99), NO_CLUSTER);
        assert_eq!(t.cluster_volume(7), 0);
        assert_eq!(t.num_cluster_ids(), 0);
        assert_eq!(t.max_volume(), 0);
    }

    #[test]
    fn budget_caps_resident_bytes() {
        let page = 64;
        let mut t = mem_table(10_000, 4 * page as u64, page);
        for v in 0..10_000u32 {
            t.create_cluster(v, 1);
        }
        assert!(t.resident_bytes() <= 4 * page as u64);
        assert!(t.stats().evictions > 0);
        t.check_io().unwrap();
    }

    fn run_pass(table: &mut impl ClusterTable, g: &InMemoryGraph, passes: u32) -> DegreeTable {
        run_passes(table, g, passes, |_| {})
    }

    /// `passes` clustering passes over `g`, with `after_pass` run at every
    /// pass boundary.
    fn run_passes<T: ClusterTable>(
        table: &mut T,
        g: &InMemoryGraph,
        passes: u32,
        mut after_pass: impl FnMut(&mut T),
    ) -> DegreeTable {
        let mut s = g.stream();
        let degrees = DegreeTable::compute(&mut s, g.num_vertices()).unwrap();
        let cap = VolumeCap::FractionOfTotal(1.0 / 8.0).resolve(degrees.total_volume());
        for _ in 0..passes {
            let mut s = g.stream();
            clustering_pass_on(&mut s, &degrees, cap, &mut *table).unwrap();
            after_pass(table);
        }
        degrees
    }

    /// A paged table whose mid-pass compaction is off: the pass sees only
    /// the four accessors, so the paging policy runs alone.
    struct Uncompacted<'a>(&'a mut PagedClustering);

    impl ClusterTable for Uncompacted<'_> {
        fn cluster_of(&mut self, v: VertexId) -> ClusterId {
            self.0.cluster_of(v)
        }
        fn volume(&mut self, c: ClusterId) -> u64 {
            self.0.cluster_volume(c)
        }
        fn create_cluster(&mut self, v: VertexId, vol: u64) -> ClusterId {
            self.0.create_cluster(v, vol)
        }
        fn migrate(&mut self, v: VertexId, d: u64, to: ClusterId) {
            self.0.migrate(v, d, to)
        }
    }

    /// The tentpole invariant: paged and flat state produce bit-identical
    /// clusterings at every budget, including zero, when both compact at
    /// every pass boundary — with the paged table also compacting mid-pass
    /// wherever its tiny pages and pool trigger it.
    #[test]
    fn bit_identical_to_flat_at_zero_tiny_and_huge_budgets() {
        let g = planted::generate(&PlantedConfig::web(800, 4000), 11);
        let mut flat = Clustering::empty(g.num_vertices());
        run_passes(&mut flat, &g, 3, |c| {
            c.compact_ids();
        });
        for budget in [0u64, 256, 1 << 30] {
            let mut paged = mem_table(g.num_vertices(), budget, 64);
            run_passes(&mut paged, &g, 3, |t| {
                t.compact_ids();
            });
            paged.check_io().unwrap();
            let stats = paged.stats();
            if budget == 256 {
                assert!(
                    stats.compactions > 3,
                    "a full 4-frame pool must compact mid-pass: {stats:?}"
                );
            }
            if budget == 1 << 30 {
                assert!(
                    stats.compactions <= 3,
                    "a pool that never fills compacts per pass"
                );
            }
            assert_eq!(
                paged.num_cluster_ids(),
                flat.num_cluster_ids(),
                "budget {budget}"
            );
            for v in 0..g.num_vertices() as u32 {
                assert_eq!(
                    paged.raw_cluster_of(v),
                    flat.raw_cluster_of(v),
                    "budget {budget}, v {v}"
                );
            }
            for c in 0..flat.num_cluster_ids() {
                assert_eq!(
                    paged.cluster_volume(c),
                    flat.volume(c),
                    "budget {budget}, c {c}"
                );
            }
            let (nonempty, max) = (paged.num_nonempty_clusters(), paged.max_volume());
            assert_eq!(nonempty, flat.num_nonempty_clusters() as u64);
            assert_eq!(max, flat.max_volume());
        }
    }

    /// The flat table renumbers mid-pass once its dead ids reach
    /// `max(live, ⌈|V|/8⌉)`: after every edge of a first pass — where every
    /// vertex the stream meets founds a cluster — it holds at most
    /// `2·live + ⌈|V|/8⌉` ids, renumbers at most 8 times, drops each
    /// founded id once, and, compacted, equals a paged table that never
    /// compacts mid-pass (its pool never fills).
    #[test]
    fn flat_pass_renumbers_mid_pass_within_its_bound() {
        struct Bounded<'a> {
            flat: &'a mut Clustering,
            edges: u64,
        }
        impl Bounded<'_> {
            fn check(&self) {
                let (ids, live) = (
                    self.flat.num_cluster_ids() as u64,
                    self.flat.num_nonempty_clusters() as u64,
                );
                let bound = 2 * live + self.flat.num_vertices().div_ceil(8);
                assert!(ids <= bound, "edge {}: {ids} ids > {bound}", self.edges);
            }
        }
        impl ClusterTable for Bounded<'_> {
            fn cluster_of(&mut self, v: VertexId) -> ClusterId {
                self.flat.raw_cluster_of(v)
            }
            fn volume(&mut self, c: ClusterId) -> u64 {
                self.flat.volume(c)
            }
            fn create_cluster(&mut self, v: VertexId, vol: u64) -> ClusterId {
                self.flat.create_cluster(v, vol)
            }
            fn migrate(&mut self, v: VertexId, d: u64, to: ClusterId) {
                self.flat.migrate(v, d, to)
            }
            fn between_edges(&mut self) {
                self.check();
                ClusterTable::between_edges(&mut *self.flat);
                self.check();
                self.edges += 1;
            }
        }

        let g = planted::generate(&PlantedConfig::web(4_000, 20_000), 5);
        let mut flat = Clustering::empty(g.num_vertices());
        let mut bounded = Bounded {
            flat: &mut flat,
            edges: 0,
        };
        run_pass(&mut bounded, &g, 1);
        bounded.check();
        assert_eq!(bounded.edges, g.num_edges());
        let founded = (0..g.num_vertices() as u32)
            .filter(|&v| flat.cluster_of(v).is_some())
            .count() as u64;
        let (renumberings, renumbered) = flat.take_renumbered();
        assert!((1..=8).contains(&renumberings), "{renumberings}");
        let dropped = flat.compact_ids() as u64;
        assert_eq!(
            renumbered + dropped + flat.num_nonempty_clusters() as u64,
            founded
        );

        let mut paged = mem_table(g.num_vertices(), 1 << 30, 64);
        run_pass(&mut paged, &g, 1);
        assert_eq!(
            paged.compact_ids() as u64,
            founded - flat.num_nonempty_clusters() as u64
        );
        assert_eq!(paged.num_cluster_ids(), flat.num_cluster_ids());
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(paged.raw_cluster_of(v), flat.raw_cluster_of(v), "v {v}");
        }
        for c in 0..flat.num_cluster_ids() {
            assert_eq!(paged.cluster_volume(c), flat.volume(c), "c {c}");
        }
    }

    /// Randomised version of the same invariant (a lightweight in-repo
    /// proptest: seeds × budgets, no external crate in the offline set).
    #[test]
    fn proptest_bit_identity_across_seeds_and_budgets() {
        for seed in [1u64, 7, 23, 99] {
            let nv = 200 + (seed * 37) % 400;
            let ne = nv * 5;
            let g = planted::generate(&PlantedConfig::web(nv, ne), seed);
            let mut flat = Clustering::empty(g.num_vertices());
            run_pass(&mut flat, &g, 1);
            flat.compact_ids();
            for budget in [0u64, 128, 4096, 1 << 26] {
                let mut paged = mem_table(g.num_vertices(), budget, 32);
                run_pass(&mut paged, &g, 1);
                paged.compact_ids();
                paged.check_io().unwrap();
                for v in 0..g.num_vertices() as u32 {
                    assert_eq!(
                        paged.raw_cluster_of(v),
                        flat.raw_cluster_of(v),
                        "seed {seed}, budget {budget}, v {v}"
                    );
                }
            }
        }
    }

    /// A backing that records the exact sequence of reads and writes.
    struct RecordingBacking {
        inner: MemPageBacking,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl PageBacking for RecordingBacking {
        fn read_page(&mut self, key: u64, buf: &mut [u8]) -> io::Result<bool> {
            self.log.lock().unwrap().push(format!("r{key:x}"));
            self.inner.read_page(key, buf)
        }
        fn write_pages(&mut self, pages: &[(u64, Vec<u8>)]) -> io::Result<()> {
            let mut log = self.log.lock().unwrap();
            for (key, _) in pages {
                log.push(format!("w{key:x}"));
            }
            self.inner.write_pages(pages)
        }
    }

    #[test]
    fn lru_eviction_order_is_deterministic() {
        let io_log = |seed: u64| -> Vec<String> {
            let g = planted::generate(&PlantedConfig::web(500, 2500), seed);
            let log = Arc::new(Mutex::new(Vec::new()));
            let backing = RecordingBacking {
                inner: MemPageBacking::new(),
                log: Arc::clone(&log),
            };
            let mut paged =
                PagedClustering::with_page_size(g.num_vertices(), 6 * 32, 32, Box::new(backing));
            run_pass(&mut paged, &g, 2);
            paged.check_io().unwrap();
            let out = log.lock().unwrap().clone();
            out
        };
        let a = io_log(5);
        let b = io_log(5);
        assert!(!a.is_empty(), "tiny budget must hit the backing");
        assert_eq!(a, b, "same input must issue the identical I/O sequence");
    }

    /// The table this one replaced, kept as the reference for its policy:
    /// a `HashMap` from page key to frame, exact LRU by access stamp,
    /// write-back in batches of [`WRITE_BATCH_PAGES`], `pending` consulted
    /// before the backing. It tracks residency only — entries live in a
    /// flat [`Clustering`] — and logs the backing calls the old table made.
    struct ReferenceModel {
        flat: Clustering,
        page_size: u64,
        max_frames: usize,
        /// Per frame: (key, dirty, last use).
        frames: Vec<(u64, bool, u64)>,
        resident: HashMap<u64, usize>,
        pending: Vec<u64>,
        clock: u64,
        stats: PagingStats,
        log: Vec<String>,
    }

    impl ReferenceModel {
        fn new(num_vertices: u64, budget: u64, page_size: usize) -> Self {
            ReferenceModel {
                flat: Clustering::empty(num_vertices),
                page_size: page_size as u64,
                max_frames: ((budget / page_size as u64) as usize).max(1),
                frames: Vec::new(),
                resident: HashMap::new(),
                pending: Vec::new(),
                clock: 0,
                stats: PagingStats::default(),
                log: Vec::new(),
            }
        }

        fn touch(&mut self, kind: u8, index: u64, entry_bytes: u64, write: bool) {
            let key = page_key(kind, index / (self.page_size / entry_bytes));
            self.clock += 1;
            if let Some(&idx) = self.resident.get(&key) {
                self.frames[idx].2 = self.clock;
                self.frames[idx].1 |= write;
                return;
            }
            self.stats.faults += 1;
            let idx = if self.frames.len() < self.max_frames {
                self.frames.push((key, false, self.clock));
                self.frames.len() - 1
            } else {
                let idx = (0..self.frames.len())
                    .min_by_key(|&i| self.frames[i].2)
                    .unwrap();
                let (old_key, dirty, _) = self.frames[idx];
                self.resident.remove(&old_key);
                self.stats.evictions += 1;
                if dirty {
                    self.stats.writebacks += 1;
                    self.pending.push(old_key);
                    if self.pending.len() >= WRITE_BATCH_PAGES {
                        self.log
                            .extend(self.pending.drain(..).map(|k| format!("w{k:x}")));
                    }
                }
                idx
            };
            let dirty = match self.pending.iter().position(|&k| k == key) {
                Some(pos) => {
                    self.pending.swap_remove(pos);
                    true
                }
                None => {
                    self.log.push(format!("r{key:x}"));
                    false
                }
            };
            self.frames[idx] = (key, dirty || write, self.clock);
            self.resident.insert(key, idx);
        }
    }

    /// The old accessors' touches, in their order.
    impl ClusterTable for ReferenceModel {
        fn cluster_of(&mut self, v: VertexId) -> ClusterId {
            self.touch(KIND_V2C, v as u64, 4, false);
            self.flat.raw_cluster_of(v)
        }
        fn volume(&mut self, c: ClusterId) -> u64 {
            self.touch(KIND_VOL, c as u64, 8, false);
            self.flat.volume(c)
        }
        fn create_cluster(&mut self, v: VertexId, vol: u64) -> ClusterId {
            let id = self.flat.create_cluster(v, vol);
            self.touch(KIND_VOL, id as u64, 8, true);
            self.touch(KIND_V2C, v as u64, 4, true);
            id
        }
        fn migrate(&mut self, v: VertexId, d: u64, to: ClusterId) {
            let from = self.flat.raw_cluster_of(v);
            self.touch(KIND_V2C, v as u64, 4, false);
            self.touch(KIND_VOL, from as u64, 8, false);
            self.touch(KIND_VOL, from as u64, 8, true);
            self.touch(KIND_VOL, to as u64, 8, false);
            self.touch(KIND_VOL, to as u64, 8, true);
            self.touch(KIND_V2C, v as u64, 4, true);
            self.flat.migrate(v, d, to);
        }
    }

    /// The replacement policy did not move: over seeds × budgets × page
    /// sizes, the page-table implementation issues the reference model's
    /// exact backing reads and writes and counts the same faults,
    /// evictions and write-backs.
    #[test]
    fn io_sequence_and_stats_match_the_reference_model() {
        for seed in [2u64, 9, 31] {
            let g = planted::generate(&PlantedConfig::web(300 + seed * 20, 2000), seed);
            for page_size in [16usize, 64, 1024] {
                for budget in [0u64, 5 * page_size as u64, 1 << 30] {
                    let mut model = ReferenceModel::new(g.num_vertices(), budget, page_size);
                    run_pass(&mut model, &g, 2);
                    let log = Arc::new(Mutex::new(Vec::new()));
                    let backing = RecordingBacking {
                        inner: MemPageBacking::new(),
                        log: Arc::clone(&log),
                    };
                    let mut paged = PagedClustering::with_page_size(
                        g.num_vertices(),
                        budget,
                        page_size,
                        Box::new(backing),
                    );
                    run_pass(&mut Uncompacted(&mut paged), &g, 2);
                    paged.check_io().unwrap();
                    let case = format!("seed {seed}, page {page_size}, budget {budget}");
                    assert_eq!(paged.stats(), model.stats, "{case}");
                    assert_eq!(*log.lock().unwrap(), model.log, "{case}");
                }
            }
        }
    }

    /// Fault, eviction and write-back counts of one fixed graph, as the
    /// `HashMap` table produced them before the table learned to compact:
    /// the paging policy alone.
    #[test]
    fn paging_counts_are_pinned() {
        let g = planted::generate(&PlantedConfig::web(500, 2500), 5);
        for (budget, page_size, faults, evictions, writebacks) in [
            (0u64, 16usize, 22_755u64, 22_754u64, 5_139u64),
            (6 * 32, 32, 14_085, 14_079, 3_194),
            (8 * 64, 64, 12_094, 12_086, 3_212),
            (1 << 20, 1024, 6, 0, 0),
        ] {
            let mut paged = mem_table(g.num_vertices(), budget, page_size);
            run_pass(&mut Uncompacted(&mut paged), &g, 2);
            paged.check_io().unwrap();
            let expected = PagingStats {
                faults,
                evictions,
                writebacks,
                ..PagingStats::default()
            };
            assert_eq!(paged.stats(), expected, "budget {budget}, page {page_size}");
        }
    }

    /// Compaction at the pass boundaries and mid-pass, on an endpoint-sorted
    /// graph whose `v2c` fits the pool but whose `vol` does not: far fewer
    /// faults than the policy alone, no more than 64 mid-pass compactions,
    /// and — once pass 1 has compacted — no faults but the pages the pool
    /// evicted before then.
    #[test]
    fn compaction_cuts_faults_within_its_bound() {
        let mut edges = planted::generate(&PlantedConfig::web(4000, 20_000), 3)
            .edges()
            .to_vec();
        edges.sort_by_key(|e| (e.src.min(e.dst), e.src.max(e.dst)));
        let g = InMemoryGraph::from_edges(edges);
        let nv = g.num_vertices();
        let page = 1024u64;
        let v2c_pages = (nv * 4).div_ceil(page);
        let budget = (v2c_pages + 8) * page;
        let passes = 3;

        let mut plain = mem_table(nv, budget, page as usize);
        run_pass(&mut Uncompacted(&mut plain), &g, passes);
        let mut compacting = mem_table(nv, budget, page as usize);
        let mut after_pass1 = None;
        run_passes(&mut compacting, &g, passes, |t| {
            t.compact_ids();
            after_pass1.get_or_insert(t.stats());
        });
        compacting.check_io().unwrap();
        let (plain, stats, after_pass1) = (plain.stats(), compacting.stats(), after_pass1.unwrap());

        assert!(stats.compactions > passes as u64, "{stats:?}");
        assert!(stats.compactions <= 64 + passes as u64, "{stats:?}");
        assert_eq!(
            stats.ids_dropped + compacting.num_cluster_ids() as u64,
            nv,
            "every vertex founded one id; the dead ones were dropped once"
        );
        assert!(
            stats.faults * 3 < plain.faults,
            "compacting {stats:?} vs plain {plain:?}"
        );
        assert!(
            stats.faults - after_pass1.faults <= v2c_pages + 1,
            "after pass 1 only cold v2c pages and the one vol page fault: \
             {after_pass1:?} then {stats:?}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_page_size_is_rejected() {
        mem_table(100, 1024, 24);
    }

    #[test]
    fn writeback_buffer_is_consulted_on_refault() {
        // One frame + batch size 8: a dirty page evicted into the pending
        // buffer must be found there (not re-read stale from the backing)
        // when it faults back in before the batch flushes.
        let mut t = mem_table(1000, 0, 16); // 4 u32 entries per page
        t.create_cluster(0, 7); // writes vol page + v2c page (evicts vol, dirty)
        assert_eq!(t.cluster_volume(0), 7, "volume must survive via pending");
        assert_eq!(t.raw_cluster_of(0), 0);
        t.check_io().unwrap();
    }

    #[test]
    fn c2p_roundtrips_through_paging() {
        let mut t = mem_table(64, 0, 16);
        for c in 0..40u32 {
            t.set_partition_of(c, c % 5);
        }
        for c in 0..40u32 {
            assert_eq!(t.partition_of(c), c % 5, "c={c}");
        }
        t.check_io().unwrap();
    }

    struct FailingBacking;
    impl PageBacking for FailingBacking {
        fn read_page(&mut self, _key: u64, _buf: &mut [u8]) -> io::Result<bool> {
            Err(io::Error::other("read exploded"))
        }
        fn write_pages(&mut self, _pages: &[(u64, Vec<u8>)]) -> io::Result<()> {
            Err(io::Error::other("write exploded"))
        }
    }

    /// Promotion copies every `v2c` page — resident, written back, still in
    /// the write-back buffer, or never touched — and the volumes: after
    /// evictions at a tiny budget the copy is the flat clustering of the
    /// same passes, byte for byte.
    #[test]
    fn into_clustering_equals_the_flat_clustering_of_the_same_passes() {
        let g = planted::generate(&PlantedConfig::web(800, 4000), 11);
        // Vertices past the graph's own: their `v2c` pages are never touched.
        let nv = g.num_vertices() + 1000;
        let mut flat = Clustering::empty(nv);
        run_passes(&mut flat, &g, 2, |c| {
            c.compact_ids();
        });
        let mut want = Vec::new();
        flat.encode_into(&mut want);
        for budget in [0u64, 256, 1 << 30] {
            let mut paged = mem_table(nv, budget, 64);
            run_passes(&mut paged, &g, 2, |t| {
                t.compact_ids();
            });
            let touched = paged.tables[KIND_V2C as usize].len() as u64;
            assert!(touched < (nv * 4).div_ceil(64), "budget {budget}");
            if budget < 1 << 30 {
                assert!(paged.stats().writebacks > 0, "budget {budget}");
            }
            let mut got = Vec::new();
            paged.into_clustering().unwrap().encode_into(&mut got);
            assert_eq!(got, want, "budget {budget}");
        }
    }

    /// How a [`ReadSwitch`] answers reads.
    #[derive(Clone, Copy)]
    enum Reads {
        Pass,
        Fail,
        Garbage(u8),
    }

    /// A backing whose reads can be made to fail or to return garbage
    /// after the fact.
    struct ReadSwitch {
        inner: MemPageBacking,
        reads: Arc<Mutex<Reads>>,
    }

    impl PageBacking for ReadSwitch {
        fn read_page(&mut self, key: u64, buf: &mut [u8]) -> io::Result<bool> {
            match *self.reads.lock().unwrap() {
                Reads::Pass => self.inner.read_page(key, buf),
                Reads::Fail => Err(io::Error::other("read exploded")),
                Reads::Garbage(byte) => {
                    buf.fill(byte);
                    Ok(true)
                }
            }
        }
        fn write_pages(&mut self, pages: &[(u64, Vec<u8>)]) -> io::Result<()> {
            self.inner.write_pages(pages)
        }
    }

    /// A store that fails the read of a written-back page, or hands back
    /// an id past the table's, fails the promotion with an error — never a
    /// panic in `Clustering::from_parts`.
    #[test]
    fn into_clustering_turns_bad_reads_into_errors() {
        let g = planted::generate(&PlantedConfig::web(800, 4000), 11);
        for (reads, kind) in [
            (Reads::Fail, io::ErrorKind::Other),
            (Reads::Garbage(0x7F), io::ErrorKind::InvalidData),
        ] {
            let switch = Arc::new(Mutex::new(Reads::Pass));
            let backing = ReadSwitch {
                inner: MemPageBacking::new(),
                reads: Arc::clone(&switch),
            };
            let mut paged =
                PagedClustering::with_page_size(g.num_vertices(), 256, 64, Box::new(backing));
            run_passes(&mut paged, &g, 1, |t| {
                t.compact_ids();
            });
            paged.check_io().unwrap();
            *switch.lock().unwrap() = reads;
            let err = paged.into_clustering().unwrap_err();
            assert_eq!(err.kind(), kind, "{err}");
        }
    }

    #[test]
    fn io_errors_poison_instead_of_panicking() {
        let mut t = PagedClustering::with_page_size(100, 0, 16, Box::new(FailingBacking));
        // Enough traffic to force eviction of dirty pages → failing writes,
        // and re-faults → failing reads.
        for v in 0..50u32 {
            t.create_cluster(v, 1);
        }
        let err = t.check_io().unwrap_err();
        assert!(err.to_string().contains("exploded"));
        // After taking the error the table is clean again until the next
        // failure.
        assert!(t.check_io().is_ok());
    }
}
