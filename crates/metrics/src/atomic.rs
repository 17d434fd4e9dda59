//! The shared-memory replication matrix of the chunk-parallel runner.
//!
//! Phase 2 of 2PS-L keeps one bit per (vertex, partition) pair —
//! `O(|V|·k)` bits, the dominant term of Table II. The chunk-parallel
//! runner used to shard that state per worker thread (`O(T·|V|·k)` bits)
//! and OR-merge the shards at the pre-partition/scoring barrier; this
//! module restores the serial bound for any thread count:
//!
//! * [`AtomicReplicationMatrix`] — **one** shared packed bit matrix whose
//!   words are set with relaxed `fetch_or`. The pre-partitioning subpass
//!   only ever *writes* replication state (targets depend on the merged
//!   clustering and load quotas, never on replica bits), and OR is
//!   commutative, associative and idempotent — so when every worker
//!   `fetch_or`s into the same words, the matrix at the barrier equals the
//!   OR-merge of per-worker shards for **every** interleaving, and no
//!   merge (and no per-worker copy) is needed at all.
//! * [`SharedReplicaView`] — one worker's handle on the shared matrix.
//!   Before [`freeze`](SharedReplicaView::freeze) (the pre-partitioning
//!   subpass) inserts write through to the shared words. After freeze (the
//!   scoring subpass) inserts stay private and reads see `shared ∪ private`
//!   — exactly the "merged matrix plus my own scoring-time replicas" view a
//!   sharded worker had, which is what keeps the output bit-identical to
//!   the sharded path (and to `tps-dist`, whose workers still run owned
//!   per-shard matrices). Once the scoring subpass has joined, each view is
//!   [`publish`](SharedReplicaView::publish)ed — its private bits are ORed
//!   into the shared words and freed — and the shared matrix is the run's
//!   final replica set, counted in place by
//!   [`census`](AtomicReplicationMatrix::census): the quality metrics need
//!   no second matrix.
//!
//! # Memory
//!
//! The private state after the freeze has two representations, chosen from
//! the row width alone:
//!
//! * **k ≤ 64 — dense private rows.** A row is one lane of
//!   `k.next_power_of_two()` bits in a word shared with its neighbours
//!   ([`RowLayout`]), so `freeze` copies the now-immutable shared words
//!   into a private `Vec<u64>` and every later `contains`/`insert` is one
//!   array access, as cheap as the serial [`ReplicationMatrix`]. That is the row bytes, `k.next_power_of_two()/8`
//!   B/vertex/worker (4 B at k = 32, 8 B at k = 64) — `O(|V|)`, not
//!   `O(|V|·k)` bits — and at k ≤ 32 no more than the 4 B/vertex `u32`
//!   cluster map the same worker held through phase 1, so it does not
//!   raise the job's peak.
//! * **k > 64 — sparse overlay.** A dense copy would be the `O(T·|V|·k)`
//!   bits this module exists to avoid, so inserts land in a word-index →
//!   bits hash (`WordOverlay`) holding only words this worker's scoring
//!   commits touch: per-worker state proportional to its own new replicas.
//!
//! [`SharedReplicaView::private_bytes`] reports either; the `mem_peak` bench
//! gates both regimes in CI.
//!
//! Memory ordering: relaxed operations suffice. All workers join at the
//! barrier between the two subpasses (thread join is a happens-before
//! edge), so every pre-partition write is visible to every scoring read,
//! and bits are only ever set — a racy read during the write phase could
//! at worst miss a concurrent set, and no decision reads the matrix during
//! that phase.

use std::sync::atomic::{AtomicU64, Ordering};

use tps_graph::types::{PartitionId, VertexId};

use crate::bitmatrix::{ReplicaCensus, ReplicaSet, ReplicationMatrix, RowLayout};

/// A compact word-index → bits map: open addressing, linear probing,
/// power-of-two capacity, 12 bytes per slot (`u32` key + `u64` bits in
/// parallel arrays). The overlay is the per-worker memory term of the
/// shared-matrix design, so its constant factor matters — a std `HashMap`
/// spends ~3× more per entry once growth slack and SipHash are counted.
///
/// Keys are word indices into the shared matrix and must fit `u32`; the
/// matrix constructor enforces that bound (fewer than `2^32 − 1` packed
/// words ≈ 32 GiB of bits — beyond in-process scale; see
/// [`AtomicReplicationMatrix::words_needed`]).
struct WordOverlay {
    /// Word index per slot; `EMPTY` marks a free slot.
    keys: Vec<u32>,
    /// Overlay bits per slot (parallel to `keys`).
    bits: Vec<u64>,
    len: usize,
}

/// Free-slot sentinel. Unreachable as a key: word indices are `< 2^32 − 1`
/// by the matrix-size bound.
const EMPTY: u32 = u32::MAX;

impl WordOverlay {
    fn new() -> Self {
        WordOverlay {
            keys: Vec::new(),
            bits: Vec::new(),
            len: 0,
        }
    }

    /// Multiplicative hash (Fibonacci): word indices are near-sequential
    /// per vertex row, which pure masking would clump.
    #[inline]
    fn slot_of(&self, key: u32) -> usize {
        let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & (self.keys.len() - 1)
    }

    #[inline]
    fn get(&self, key: u32) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let mut slot = self.slot_of(key);
        loop {
            match self.keys[slot] {
                k if k == key => return self.bits[slot],
                EMPTY => return 0,
                _ => slot = (slot + 1) & (self.keys.len() - 1),
            }
        }
    }

    #[inline]
    fn or_insert(&mut self, key: u32, mask: u64) {
        if self.keys.len() < 2 || self.len * 8 >= self.keys.len() * 7 {
            self.grow();
        }
        let mut slot = self.slot_of(key);
        loop {
            match self.keys[slot] {
                k if k == key => {
                    self.bits[slot] |= mask;
                    return;
                }
                EMPTY => {
                    self.keys[slot] = key;
                    self.bits[slot] = mask;
                    self.len += 1;
                    return;
                }
                _ => slot = (slot + 1) & (self.keys.len() - 1),
            }
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(64);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_bits = std::mem::take(&mut self.bits);
        self.bits = vec![0u64; new_cap];
        self.len = 0;
        for (key, bits) in old_keys.into_iter().zip(old_bits) {
            if key != EMPTY {
                self.or_insert(key, bits);
            }
        }
    }
}

/// A packed `O(|V|·k)`-bit replication matrix shared by all phase-2
/// workers, written with relaxed word-level `fetch_or`.
pub struct AtomicReplicationMatrix {
    layout: RowLayout,
    bits: Vec<AtomicU64>,
    num_vertices: u64,
}

impl AtomicReplicationMatrix {
    /// An all-zero shared matrix for `num_vertices` vertices and `k`
    /// partitions. Panics where [`words_needed`](Self::words_needed) errs.
    pub fn new(num_vertices: u64, k: u32) -> Self {
        assert!(k > 0, "k must be positive");
        let total = Self::words_needed(num_vertices, k).unwrap_or_else(|e| panic!("{e}"));
        let mut bits = Vec::with_capacity(total);
        bits.resize_with(total, || AtomicU64::new(0));
        AtomicReplicationMatrix {
            layout: RowLayout::new(k),
            bits,
            num_vertices,
        }
    }

    /// The packed words a shared `num_vertices × k` matrix takes, or why
    /// it cannot be built in process: word indices must stay below
    /// `2^32 − 1` (the sparse overlay keys them as `u32`). Checked by the
    /// driver before its first pass, so a matrix too large to share is
    /// refused before any work, not after the clustering passes.
    pub fn words_needed(num_vertices: u64, k: u32) -> Result<usize, String> {
        RowLayout::new(k)
            .words_for(num_vertices)
            .filter(|&words| words < u32::MAX as usize)
            .ok_or_else(|| {
                format!(
                    "a shared replication matrix for |V| = {num_vertices} and k = {k} exceeds \
                     the in-process bound of 2^32 − 1 packed words; use the distributed \
                     runtime for matrices this large"
                )
            })
    }

    /// Number of partitions.
    #[inline]
    pub fn k(&self) -> u32 {
        self.layout.k()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    #[inline]
    fn index(&self, v: VertexId, p: PartitionId) -> (usize, u64) {
        self.layout.index(v, p)
    }

    /// Mark `v` as replicated on `p` — one relaxed `fetch_or`, callable
    /// from any thread through a shared reference.
    #[inline]
    pub fn set(&self, v: VertexId, p: PartitionId) {
        let (word, mask) = self.index(v, p);
        self.bits[word].fetch_or(mask, Ordering::Relaxed);
    }

    /// Whether `v` is replicated on `p` (relaxed load).
    #[inline]
    pub fn get(&self, v: VertexId, p: PartitionId) -> bool {
        let (word, mask) = self.index(v, p);
        self.bits[word].load(Ordering::Relaxed) & mask != 0
    }

    /// Approximate heap footprint in bytes (for the memory experiments).
    pub fn heap_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Covered vertices and total replicas, counted in place (relaxed
    /// loads, no copy of the words). The run's final census once every
    /// worker's view has been [`publish`](SharedReplicaView::publish)ed.
    pub fn census(&self) -> ReplicaCensus {
        let words = self.bits.iter().map(|w| w.load(Ordering::Relaxed));
        self.layout.census(words)
    }

    /// An owned snapshot with exact cover counts — for inspection and
    /// tests; the hot paths never materialise one.
    pub fn snapshot(&self) -> ReplicationMatrix {
        let words: Vec<u64> = self
            .bits
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect();
        ReplicationMatrix::from_raw_words(self.num_vertices, self.k(), words)
            .expect("set() never writes stray bits")
    }
}

/// What a [`SharedReplicaView`] holds privately (see the module docs'
/// `# Memory` section).
enum Private {
    /// Thawed: inserts write through, nothing is private.
    Nothing,
    /// Frozen, rows within one word (k ≤ 64): the frozen shared words plus
    /// this worker's own scoring-time replicas, in the shared layout.
    Dense(Vec<u64>),
    /// Frozen, wider rows: word index → additional bits, only for words
    /// this worker's own scoring commits touch.
    Sparse(WordOverlay),
}

/// One worker's view of the shared matrix: write-through before the
/// barrier, private rows or a private sparse overlay after it (see the
/// module docs).
pub struct SharedReplicaView<'m> {
    shared: &'m AtomicReplicationMatrix,
    private: Private,
}

impl<'m> SharedReplicaView<'m> {
    /// A thawed view: inserts write through to `shared`.
    pub fn new(shared: &'m AtomicReplicationMatrix) -> Self {
        SharedReplicaView {
            shared,
            private: Private::Nothing,
        }
    }

    /// Stop writing through: subsequent inserts stay private to this view.
    /// Called at the pre-partition/scoring barrier, after every worker's
    /// write-through pass has joined — the shared words are immutable from
    /// here on, which is what makes the dense snapshot sound.
    pub fn freeze(&mut self) {
        if self.is_frozen() {
            return;
        }
        self.private = if self.shared.layout.words_per_row() == 1 {
            let rows = self.shared.bits.iter();
            Private::Dense(rows.map(|w| w.load(Ordering::Relaxed)).collect())
        } else {
            Private::Sparse(WordOverlay::new())
        };
    }

    /// Whether the view is frozen (keeping inserts private).
    pub fn is_frozen(&self) -> bool {
        !matches!(self.private, Private::Nothing)
    }

    /// OR this view's private post-freeze replicas into the shared matrix
    /// and drop them, so the shared matrix alone holds the run's final
    /// replica set. Only after **every** worker's scoring pass has joined:
    /// a sparse view reads the shared words on each `contains`, and a
    /// worker must not see another's scoring-time replicas.
    pub fn publish(self) {
        let shared = &self.shared.bits;
        match self.private {
            Private::Nothing => {}
            Private::Dense(rows) => {
                for (word, row) in shared.iter().zip(rows) {
                    // Most rows gained nothing after the freeze; skip the RMW.
                    if row & !word.load(Ordering::Relaxed) != 0 {
                        word.fetch_or(row, Ordering::Relaxed);
                    }
                }
            }
            Private::Sparse(overlay) => {
                for (key, bits) in overlay.keys.into_iter().zip(overlay.bits) {
                    if key != EMPTY {
                        shared[key as usize].fetch_or(bits, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Heap bytes this view holds privately: 0 while thawed, the packed
    /// row bytes (`k.next_power_of_two()/8` B/vertex) for dense rows, 12 B
    /// per allocated slot for the sparse overlay.
    pub fn private_bytes(&self) -> usize {
        match &self.private {
            Private::Nothing => 0,
            Private::Dense(rows) => rows.len() * 8,
            Private::Sparse(overlay) => overlay.keys.len() * 12,
        }
    }
}

impl ReplicaSet for SharedReplicaView<'_> {
    #[inline]
    fn k(&self) -> u32 {
        self.shared.k()
    }

    #[inline]
    fn num_vertices(&self) -> u64 {
        self.shared.num_vertices()
    }

    #[inline]
    fn contains(&self, v: VertexId, p: PartitionId) -> bool {
        let (word, mask) = self.shared.index(v, p);
        match &self.private {
            Private::Dense(rows) => rows[word] & mask != 0,
            Private::Sparse(overlay) => {
                self.shared.bits[word].load(Ordering::Relaxed) & mask != 0
                    || overlay.get(word as u32) & mask != 0
            }
            Private::Nothing => self.shared.bits[word].load(Ordering::Relaxed) & mask != 0,
        }
    }

    #[inline]
    fn insert(&mut self, v: VertexId, p: PartitionId) {
        let (word, mask) = self.shared.index(v, p);
        match &mut self.private {
            Private::Dense(rows) => rows[word] |= mask,
            Private::Sparse(overlay) => {
                // A bit the frozen shared matrix already holds needs no
                // private copy — `contains` reads `shared ∪ overlay` either
                // way, and on prepartition-heavy graphs this keeps the
                // overlay near-empty.
                if self.shared.bits[word].load(Ordering::Relaxed) & mask == 0 {
                    overlay.or_insert(word as u32, mask);
                }
            }
            Private::Nothing => {
                self.shared.bits[word].fetch_or(mask, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_snapshot() {
        let m = AtomicReplicationMatrix::new(5, 130);
        assert!(!m.get(3, 129));
        m.set(3, 129);
        m.set(3, 129); // idempotent
        m.set(0, 0);
        m.set(4, 64);
        assert!(m.get(3, 129) && m.get(0, 0) && m.get(4, 64));
        assert!(!m.get(3, 128));
        let snap = m.snapshot();
        assert_eq!(snap.total_replicas(), 3);
        assert_eq!(snap.cover_count(129), 1);
        assert!(snap.get(4, 64));
    }

    #[test]
    fn concurrent_sets_equal_sharded_or_merge() {
        // The tentpole claim in miniature: T threads writing disjoint and
        // overlapping bits through fetch_or produce exactly the OR of the
        // per-thread shards.
        let shared = AtomicReplicationMatrix::new(64, 96);
        let mut shards: Vec<ReplicationMatrix> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..4u32 {
                let shared = &shared;
                handles.push(scope.spawn(move || {
                    let mut own = ReplicationMatrix::new(64, 96);
                    for i in 0..200u32 {
                        let v = (t * 37 + i * 13) % 64;
                        let p = (t * 11 + i * 7) % 96;
                        shared.set(v, p);
                        own.set(v, p);
                    }
                    own
                }));
            }
            for h in handles {
                shards.push(h.join().unwrap());
            }
        });
        let mut merged = ReplicationMatrix::new(64, 96);
        for shard in &shards {
            for v in 0..64u32 {
                for p in shard.partitions_of(v) {
                    merged.set(v, p);
                }
            }
        }
        let snap = shared.snapshot();
        for v in 0..64u32 {
            for p in 0..96u32 {
                assert_eq!(snap.get(v, p), merged.get(v, p), "({v},{p})");
            }
        }
        assert_eq!(snap.total_replicas(), merged.total_replicas());
    }

    #[test]
    fn view_writes_through_until_frozen_then_overlays() {
        let shared = AtomicReplicationMatrix::new(8, 4);
        let mut view = SharedReplicaView::new(&shared);
        view.insert(1, 2);
        assert!(shared.get(1, 2), "thawed insert writes through");
        assert!(view.contains(1, 2));
        view.freeze();
        view.insert(3, 1);
        assert!(!shared.get(3, 1), "frozen insert stays private");
        assert!(view.contains(3, 1), "…but is visible to this view");
        assert!(view.contains(1, 2), "shared bits stay visible");

        // A second frozen view does not see the first view's overlay —
        // the sharded-path semantics the bit-identity proptests pin.
        let other = SharedReplicaView::new(&shared);
        assert!(!other.contains(3, 1));
        assert!(other.contains(1, 2));
    }

    #[test]
    fn private_bytes_follow_the_row_width() {
        // k ≤ 64: one private word per vertex from the freeze on, however
        // few inserts follow. k > 64: nothing until the first private
        // insert, then 12 B per allocated overlay slot — never a dense copy.
        let narrow = AtomicReplicationMatrix::new(1000, 64);
        let wide = AtomicReplicationMatrix::new(1000, 65);
        let mut dense = SharedReplicaView::new(&narrow);
        let mut sparse = SharedReplicaView::new(&wide);
        assert_eq!((dense.private_bytes(), sparse.private_bytes()), (0, 0));
        dense.freeze();
        sparse.freeze();
        assert!(dense.is_frozen() && sparse.is_frozen());
        assert_eq!((dense.private_bytes(), sparse.private_bytes()), (8000, 0));
        dense.insert(7, 63);
        sparse.insert(7, 64);
        assert_eq!(dense.private_bytes(), 8000);
        assert_eq!(sparse.private_bytes(), 64 * 12);
        assert!(sparse.private_bytes() < wide.heap_bytes());
        // A second freeze keeps what the view already holds.
        dense.freeze();
        sparse.freeze();
        assert!(dense.contains(7, 63) && sparse.contains(7, 64));
    }

    #[test]
    fn dense_and_sparse_views_answer_like_an_owned_matrix() {
        // One random insert/contains script against three replica states
        // holding the same bits: a frozen dense view (k = 40), a frozen
        // sparse view (the same partitions, k padded past one word) and an
        // owned matrix seeded with the shared bits — the sharded-path
        // reference. A bystander view frozen at the same barrier must never
        // see the scripted views' private writes.
        const N: u32 = 300;
        const K: u32 = 40;
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u32| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 33) as u32 % bound
        };
        let narrow = AtomicReplicationMatrix::new(N as u64, K);
        let wide = AtomicReplicationMatrix::new(N as u64, K + 64);
        let mut owned = ReplicationMatrix::new(N as u64, K);
        let mut dense = SharedReplicaView::new(&narrow);
        let mut sparse = SharedReplicaView::new(&wide);
        for _ in 0..400 {
            let (v, p) = (next(N), next(K));
            dense.insert(v, p);
            sparse.insert(v, p);
            owned.set(v, p);
        }
        let frozen = narrow.snapshot();
        let mut bystanders = [
            SharedReplicaView::new(&narrow),
            SharedReplicaView::new(&wide),
        ];
        for view in [&mut dense, &mut sparse].into_iter().chain(&mut bystanders) {
            view.freeze();
        }
        for step in 0..4000 {
            let (v, p) = (next(N), next(K));
            if next(3) == 0 {
                dense.insert(v, p);
                sparse.insert(v, p);
                owned.set(v, p);
            }
            let want = owned.get(v, p);
            assert_eq!(dense.contains(v, p), want, "dense, step {step}");
            assert_eq!(sparse.contains(v, p), want, "sparse, step {step}");
            for other in &bystanders {
                assert_eq!(other.contains(v, p), frozen.get(v, p), "step {step}");
            }
        }
        assert_eq!(narrow.snapshot().total_replicas(), frozen.total_replicas());
        assert!(owned.total_replicas() > frozen.total_replicas());

        // Published after the "join", the private rows (dense) and the
        // overlay (sparse) land in the shared words: each shared matrix is
        // now the OR of everything the owned replay holds, and the in-place
        // census is the owned matrix's. Bystanders publish nothing new.
        let [by_narrow, by_wide] = bystanders;
        for view in [dense, by_narrow, sparse, by_wide] {
            view.publish();
        }
        for v in 0..N {
            for p in 0..K + 64 {
                let want = p < K && owned.get(v, p);
                assert_eq!(wide.get(v, p), want, "wide ({v},{p})");
                if p < K {
                    assert_eq!(narrow.get(v, p), want, "narrow ({v},{p})");
                }
            }
        }
        assert_eq!(narrow.census(), owned.census());
        assert_eq!(wide.census(), owned.census());
        assert_eq!(narrow.census().total_replicas, owned.total_replicas());
    }

    #[test]
    fn packed_dense_views_publish_to_the_owned_matrix() {
        // k = 8 and k = 32 pack 8 and 2 rows per word, so two workers'
        // rows share words: write-through inserts, a freeze (a private copy
        // of the packed words, |V|·k.next_power_of_two()/8 bytes), private
        // inserts each view alone sees, then both published — the shared
        // matrix equals one owned matrix that replayed every insert.
        const N: u32 = 203;
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u32| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 33) as u32 % bound
        };
        for k in [8u32, 32] {
            let shared = AtomicReplicationMatrix::new(N as u64, k);
            let mut owned = ReplicationMatrix::new(N as u64, k);
            let mut views = [
                SharedReplicaView::new(&shared),
                SharedReplicaView::new(&shared),
            ];
            for i in 0..300 {
                let (v, p) = (next(N), next(k));
                views[i % 2].insert(v, p);
                owned.set(v, p);
            }
            let frozen = shared.snapshot();
            for view in &mut views {
                view.freeze();
                let row_bytes = k.next_power_of_two() as usize / 8;
                assert_eq!(
                    view.private_bytes(),
                    (N as usize * row_bytes).next_multiple_of(8)
                );
            }
            let mut mine = [
                ReplicationMatrix::new(N as u64, k),
                ReplicationMatrix::new(N as u64, k),
            ];
            for step in 0..600 {
                let (w, v, p) = (step % 2, next(N), next(k));
                views[w].insert(v, p);
                mine[w].set(v, p);
                owned.set(v, p);
                for (i, view) in views.iter().enumerate() {
                    let want = frozen.get(v, p) || mine[i].get(v, p);
                    assert_eq!(view.contains(v, p), want, "k {k}, step {step}, view {i}");
                }
            }
            for view in views {
                view.publish();
            }
            let published = shared.snapshot();
            for v in 0..N {
                for p in 0..k {
                    assert_eq!(published.get(v, p), owned.get(v, p), "k {k}, ({v}, {p})");
                }
            }
            for p in 0..k {
                assert_eq!(published.cover_count(p), owned.cover_count(p), "k {k}, {p}");
            }
            assert_eq!(shared.census(), owned.census());
        }
    }

    #[test]
    fn publishing_several_frozen_views_yields_their_union() {
        // Two workers frozen at the same barrier score different replicas;
        // neither sees the other's until both are published.
        for k in [8u32, 200] {
            let shared = AtomicReplicationMatrix::new(10, k);
            shared.set(0, 1);
            let mut a = SharedReplicaView::new(&shared);
            let mut b = SharedReplicaView::new(&shared);
            a.freeze();
            b.freeze();
            a.insert(3, k - 1);
            a.insert(0, 1); // already shared: nothing to publish
            b.insert(3, 0);
            b.insert(9, k - 1);
            assert!(!b.contains(3, k - 1) && !a.contains(9, k - 1));
            a.publish();
            b.publish();
            let census = shared.census();
            assert_eq!((census.covered_vertices, census.total_replicas), (3, 4));
            assert!(shared.get(3, k - 1) && shared.get(3, 0) && shared.get(9, k - 1));
            // A thawed view has nothing private to publish.
            SharedReplicaView::new(&shared).publish();
            assert_eq!(shared.census(), census);
        }
    }

    #[test]
    fn empty_matrix() {
        let m = AtomicReplicationMatrix::new(0, 7);
        assert_eq!(m.snapshot().total_replicas(), 0);
        assert_eq!(m.heap_bytes(), 0);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_k() {
        AtomicReplicationMatrix::new(10, 0);
    }
}
