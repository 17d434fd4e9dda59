//! The vertex × partition replication bit matrix (`v2p` in the paper's
//! Algorithm 2).
//!
//! One bit per (vertex, partition) pair, packed into 64-bit words by a
//! [`RowLayout`]: at k ≤ 64 a vertex row is `k.next_power_of_two()` bits
//! and `64 / that` rows share a word (4 B per vertex at k = 32, 1 B at
//! k = 8); above 64 a row is `⌈k/64⌉` words. `O(|V|·k)` bits total — the
//! dominant term of 2PS-L's space complexity (Table II). The matrix also
//! keeps the per-partition cover counts `|V(p)|` incrementally, so the
//! replication factor is available in `O(k)` at any time.

use tps_graph::types::{PartitionId, VertexId};

/// The membership interface phase 2's edge kernel needs from its
/// replication state: "is vertex `v` replicated on partition `p`?" and
/// "record that it now is".
///
/// Implemented by the owned [`ReplicationMatrix`] (a one-shard run and
/// the distributed worker) and by
/// [`SharedReplicaView`](crate::atomic::SharedReplicaView) (in-process
/// shards' view of one shared
/// [`AtomicReplicationMatrix`](crate::atomic::AtomicReplicationMatrix)),
/// so the per-edge decision code is written once and the replication
/// state's memory layout — owned, shared, or shared-plus-overlay — is the
/// caller's choice.
pub trait ReplicaSet {
    /// Number of partitions.
    fn k(&self) -> u32;
    /// Number of vertices.
    fn num_vertices(&self) -> u64;
    /// Whether `v` is replicated on `p`.
    fn contains(&self, v: VertexId, p: PartitionId) -> bool;
    /// Mark `v` as replicated on `p` (idempotent).
    fn insert(&mut self, v: VertexId, p: PartitionId);
}

/// What the quality metrics need from a finished replication state: how
/// many vertices have a replica anywhere, and how many replicas there are.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaCensus {
    /// Vertices replicated on at least one partition.
    pub covered_vertices: u64,
    /// `Σ_p |V(p)|` — set bits in the whole matrix.
    pub total_replicas: u64,
}

/// Where each (vertex, partition) bit lives in a packed matrix — shared
/// by the owned, atomic and wire forms so they cannot disagree.
///
/// At k ≤ 64 a row is one *lane* of `2^r = k.next_power_of_two()` bits
/// and `2^s = 64 / 2^r` rows share a word: vertex `v` sits in word
/// `v >> s` at bit offset `(v << r) & 63`. Above 64 a row is `⌈k/64⌉`
/// whole words, i.e. `r = 6`, `s = 0` and one 64-bit lane per word. One
/// formula serves both: word `(v >> s)·⌈k/64⌉ + p/64`, bit
/// `((v << r) & 63) | (p & 63)`. A word range is *aligned* when it starts
/// at a vertex that is a multiple of [`rows_per_word`](Self::rows_per_word).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowLayout {
    k: u32,
    /// `s`: log2 of the rows sharing one word.
    row_shift: u32,
    /// `r`: log2 of a lane's width in bits.
    lane_shift: u32,
    /// Words per row (1 at k ≤ 64).
    words_per_row: usize,
}

impl RowLayout {
    /// The layout of a matrix with `k` partitions (`k = 0` is the
    /// caller's error to reject; it lays out like `k = 1`).
    pub fn new(k: u32) -> Self {
        let lane_shift = k.clamp(1, 64).next_power_of_two().trailing_zeros();
        RowLayout {
            k,
            row_shift: 6 - lane_shift,
            lane_shift,
            words_per_row: (k as usize).div_ceil(64).max(1),
        }
    }

    /// Number of partitions.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Vertex rows per word (`64 / k.next_power_of_two()` at k ≤ 64, else 1).
    #[inline]
    pub fn rows_per_word(&self) -> u64 {
        1 << self.row_shift
    }

    /// Words per vertex row (`⌈k/64⌉`; 1 at k ≤ 64, where rows share it).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Words that hold `rows` vertex rows, `None` if that overflows.
    pub fn words_for(&self, rows: u64) -> Option<usize> {
        usize::try_from(rows.div_ceil(self.rows_per_word()))
            .ok()?
            .checked_mul(self.words_per_row)
    }

    /// The word index and bit mask of `(v, p)`.
    #[inline(always)]
    pub fn index(&self, v: VertexId, p: PartitionId) -> (usize, u64) {
        debug_assert!(p < self.k, "partition {p} out of range (k = {})", self.k);
        let v = v as usize;
        let word = (v >> self.row_shift) * self.words_per_row + (p as usize >> 6);
        let bit = ((v << self.lane_shift) & 63) | (p as usize & 63);
        (word, 1u64 << bit)
    }

    /// The first word of `v`'s row and the row's bit offset in it.
    #[inline]
    fn row_start(&self, v: VertexId) -> (usize, u32) {
        let v = v as usize;
        let base = (v >> self.row_shift) * self.words_per_row;
        (base, ((v << self.lane_shift) & 63) as u32)
    }

    /// Mask of one lane's bits at offset 0.
    #[inline]
    fn lane_mask(&self) -> u64 {
        !0u64 >> (64 - (1u32 << self.lane_shift))
    }

    /// Bit 0 of every lane in a word.
    fn lane_low_bits(&self) -> u64 {
        u64::MAX / self.lane_mask()
    }

    /// Partition of bit `bit` of word `word` (an index into the matrix).
    #[inline]
    fn partition_of_bit(&self, word: usize, bit: u32) -> PartitionId {
        ((word % self.words_per_row) as u32) * 64 + (bit & ((1 << self.lane_shift) - 1))
    }

    /// Bits of a row's last word that no partition `< k` sets, across
    /// every lane of the word (the other words of a row have none).
    fn stray_mask(&self) -> u64 {
        let bits_in_last = self.k - (self.words_per_row as u32 - 1) * 64;
        let valid = !0u64 >> (64 - bits_in_last.clamp(1, 64));
        (self.lane_mask() & !valid) * self.lane_low_bits()
    }

    /// How many lanes of `x` have a bit set.
    fn nonzero_lanes(&self, mut x: u64) -> u32 {
        let mut shift = 1;
        while shift < 1 << self.lane_shift {
            x |= x >> shift;
            shift <<= 1;
        }
        (x & self.lane_low_bits()).count_ones()
    }

    /// Count `words` — whole rows in this layout, lanes past the last
    /// vertex zero — in one pass, holding no more than a row's running
    /// OR: what lets the shared atomic matrix be counted in place.
    pub fn census(&self, words: impl IntoIterator<Item = u64>) -> ReplicaCensus {
        let mut census = ReplicaCensus::default();
        let (mut in_row, mut row_bits) = (0usize, 0u64);
        for w in words {
            census.total_replicas += u64::from(w.count_ones());
            row_bits |= w;
            in_row += 1;
            if in_row == self.words_per_row {
                census.covered_vertices += u64::from(self.nonzero_lanes(row_bits));
                (in_row, row_bits) = (0, 0);
            }
        }
        debug_assert_eq!(in_row, 0, "words end mid-row");
        census
    }

    /// Validate `words` as the aligned packing of `rows` vertex rows: the
    /// word count fits, no lane sets a bit at partition ≥ k, and no lane
    /// past the last row sets anything — the one rule every word-level
    /// ingress shares (snapshot, range install, the distributed
    /// coordinator's chunk merge), kept here so they cannot diverge.
    pub fn validate(&self, words: &[u64], rows: u64) -> Result<(), String> {
        let wpr = self.words_per_row;
        if self.words_for(rows) != Some(words.len()) {
            return Err(format!(
                "{} words are not the packing of {rows} vertex rows ({wpr} words per row, \
                 {} rows per word)",
                words.len(),
                self.rows_per_word()
            ));
        }
        let stray = self.stray_mask();
        if stray != 0
            && words
                .iter()
                .skip(wpr - 1)
                .step_by(wpr)
                .any(|&w| w & stray != 0)
        {
            return Err("packed rows have bits beyond partition k-1".into());
        }
        let tail_rows = rows % self.rows_per_word();
        if tail_rows != 0 && words[words.len() - 1] >> (tail_rows << self.lane_shift) != 0 {
            return Err(format!("packed rows have bits past vertex row {rows}"));
        }
        Ok(())
    }
}

/// Packed replication matrix with incremental cover counts.
#[derive(Clone, Debug)]
pub struct ReplicationMatrix {
    layout: RowLayout,
    bits: Vec<u64>,
    /// `|V(p)|` per partition — number of vertices with the bit set.
    cover_counts: Vec<u64>,
    num_vertices: u64,
}

impl ReplicationMatrix {
    /// Create an all-zero matrix for `num_vertices` vertices and `k`
    /// partitions.
    pub fn new(num_vertices: u64, k: u32) -> Self {
        assert!(k > 0, "k must be positive");
        let layout = RowLayout::new(k);
        let total = layout
            .words_for(num_vertices)
            .expect("replication matrix size overflow");
        ReplicationMatrix {
            layout,
            bits: vec![0u64; total],
            cover_counts: vec![0u64; k as usize],
            num_vertices,
        }
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

    /// Build a matrix from raw packed words (cover counts are recounted).
    /// Rejects `k = 0` and words that are not the packing of
    /// `num_vertices` rows ([`RowLayout::validate`]).
    pub fn from_raw_words(
        num_vertices: u64,
        k: u32,
        bits: Vec<u64>,
    ) -> Result<ReplicationMatrix, String> {
        if k == 0 {
            return Err("replication matrix with k = 0".into());
        }
        let layout = RowLayout::new(k);
        layout.validate(&bits, num_vertices)?;
        let mut matrix = ReplicationMatrix {
            layout,
            bits,
            cover_counts: vec![0u64; k as usize],
            num_vertices,
        };
        for i in 0..matrix.bits.len() {
            matrix.count_bits(i, matrix.bits[i], 1);
        }
        Ok(matrix)
    }

    /// Add `delta` to the cover count of every partition set in `bits`,
    /// read as word `word` of the matrix.
    fn count_bits(&mut self, word: usize, mut bits: u64, delta: i64) {
        while bits != 0 {
            let p = self.layout.partition_of_bit(word, bits.trailing_zeros());
            let count = &mut self.cover_counts[p as usize];
            *count = count.wrapping_add_signed(delta);
            bits &= bits - 1;
        }
    }

    /// The packed words of the vertex range `[v0, v1)` — what one
    /// vertex-range chunk of the distributed replication barrier carries.
    /// `v0` must be aligned, and `v1` too unless it is `|V|`.
    pub fn range_words(&self, v0: u64, v1: u64) -> &[u64] {
        let rpw = self.layout.rows_per_word();
        assert!(
            v0 <= v1 && v1 <= self.num_vertices,
            "vertex range [{v0}, {v1}) out of bounds for |V| = {}",
            self.num_vertices
        );
        assert!(
            v0.is_multiple_of(rpw) && (v1.is_multiple_of(rpw) || v1 == self.num_vertices),
            "vertex range [{v0}, {v1}) splits a word of {rpw} rows"
        );
        let start = (v0 / rpw) as usize * self.layout.words_per_row;
        let len = self.layout.words_for(v1 - v0).expect("in bounds");
        &self.bits[start..start + len]
    }

    /// Replace the packed words of the aligned vertex range starting at
    /// `v0` with `words`, keeping the cover counts exact (per-word bit
    /// deltas). The inverse of [`ReplicationMatrix::range_words`] — how a
    /// distributed worker installs one merged vertex-range chunk. Rejects
    /// misaligned or out-of-bounds ranges and words that are not valid
    /// packed rows ([`RowLayout::validate`]).
    pub fn install_range_words(&mut self, v0: u64, words: &[u64]) -> Result<(), String> {
        let (rpw, wpr) = (self.layout.rows_per_word(), self.layout.words_per_row);
        if !v0.is_multiple_of(rpw) {
            return Err(format!(
                "chunk at vertex {v0} is not aligned to {rpw} rows per word"
            ));
        }
        let start = usize::try_from(v0 / rpw)
            .ok()
            .and_then(|w| w.checked_mul(wpr))
            .filter(|s| v0 <= self.num_vertices && s + words.len() <= self.bits.len())
            .ok_or_else(|| {
                format!(
                    "chunk at vertex {v0} ({} words) exceeds |V| = {}",
                    words.len(),
                    self.num_vertices
                )
            })?;
        let rows = ((words.len() / wpr) as u64 * rpw).min(self.num_vertices - v0);
        self.layout.validate(words, rows)?;
        for (i, &src) in words.iter().enumerate() {
            let dst = self.bits[start + i];
            if dst != src {
                self.count_bits(start + i, src & !dst, 1);
                self.count_bits(start + i, dst & !src, -1);
                self.bits[start + i] = src;
            }
        }
        Ok(())
    }

    /// Whether `v` is replicated on `p`.
    #[inline]
    pub fn get(&self, v: VertexId, p: PartitionId) -> bool {
        let (word, mask) = self.layout.index(v, p);
        self.bits[word] & mask != 0
    }

    /// Mark `v` as replicated on `p`. Returns `true` if the bit was newly set.
    #[inline]
    pub fn set(&mut self, v: VertexId, p: PartitionId) -> bool {
        let (word, mask) = self.layout.index(v, p);
        let newly = self.bits[word] & mask == 0;
        if newly {
            self.bits[word] |= mask;
            self.cover_counts[p as usize] += 1;
        }
        newly
    }

    /// `v`'s row, one lane per row word, shifted to bit 0.
    fn row(&self, v: VertexId) -> impl Iterator<Item = u64> + '_ {
        let (base, offset) = self.layout.row_start(v);
        let mask = self.layout.lane_mask();
        let words = &self.bits[base..base + self.layout.words_per_row];
        words.iter().map(move |&w| (w >> offset) & mask)
    }

    /// Number of partitions `v` is replicated on.
    #[inline]
    pub fn replica_count(&self, v: VertexId) -> u32 {
        self.row(v).map(|w| w.count_ones()).sum()
    }

    /// `|V(p)|` — vertices covered by partition `p`.
    #[inline]
    pub fn cover_count(&self, p: PartitionId) -> u64 {
        self.cover_counts[p as usize]
    }

    /// `Σ_p |V(p)|` — the replication-factor numerator.
    pub fn total_replicas(&self) -> u64 {
        self.cover_counts.iter().sum()
    }

    /// Covered vertices and total replicas of the matrix as it stands
    /// (one `O(|V|·k/64)` scan; see [`RowLayout::census`]).
    pub fn census(&self) -> ReplicaCensus {
        self.layout.census(self.bits.iter().copied())
    }

    /// Iterate over the partitions `v` is replicated on, ascending.
    pub fn partitions_of(&self, v: VertexId) -> impl Iterator<Item = PartitionId> + '_ {
        self.row(v).enumerate().flat_map(|(wi, mut w)| {
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    wi as u32 * 64 + b
                })
            })
        })
    }

    /// Approximate heap footprint in bytes (for the memory experiments).
    pub fn heap_bytes(&self) -> usize {
        self.bits.len() * 8 + self.cover_counts.len() * 8
    }
}

impl ReplicaSet for ReplicationMatrix {
    #[inline]
    fn k(&self) -> u32 {
        ReplicationMatrix::k(self)
    }
    #[inline]
    fn num_vertices(&self) -> u64 {
        ReplicationMatrix::num_vertices(self)
    }
    #[inline]
    fn contains(&self, v: VertexId, p: PartitionId) -> bool {
        self.get(v, p)
    }
    #[inline]
    fn insert(&mut self, v: VertexId, p: PartitionId) {
        self.set(v, p);
    }
}

/// Validate `words` as the aligned packing of `rows` vertex rows of a
/// `k`-partition matrix ([`RowLayout::validate`]) — the check the
/// distributed coordinator runs on every chunk before merging it.
pub fn validate_packed_rows(words: &[u64], k: u32, rows: u64) -> Result<(), String> {
    RowLayout::new(k).validate(words, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut m = ReplicationMatrix::new(10, 5);
        assert!(!m.get(3, 2));
        assert!(m.set(3, 2));
        assert!(m.get(3, 2));
        assert!(!m.set(3, 2), "second set reports not-new");
        assert_eq!(m.cover_count(2), 1);
    }

    #[test]
    fn works_across_word_boundaries() {
        let mut m = ReplicationMatrix::new(4, 130);
        for p in [0u32, 63, 64, 127, 128, 129] {
            assert!(m.set(1, p));
            assert!(m.get(1, p));
        }
        assert_eq!(m.replica_count(1), 6);
        assert_eq!(m.replica_count(0), 0);
        let ps: Vec<u32> = m.partitions_of(1).collect();
        assert_eq!(ps, vec![0, 63, 64, 127, 128, 129]);
    }

    #[test]
    fn cover_counts_accumulate_per_partition() {
        let mut m = ReplicationMatrix::new(5, 3);
        m.set(0, 0);
        m.set(1, 0);
        m.set(1, 1);
        m.set(4, 2);
        assert_eq!(m.cover_count(0), 2);
        assert_eq!(m.cover_count(1), 1);
        assert_eq!(m.cover_count(2), 1);
        assert_eq!(m.total_replicas(), 4);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_k() {
        ReplicationMatrix::new(10, 0);
    }

    #[test]
    fn heap_bytes_scale_with_v_and_k() {
        let small = ReplicationMatrix::new(100, 4);
        let wide = ReplicationMatrix::new(100, 256);
        let tall = ReplicationMatrix::new(1000, 4);
        assert!(wide.heap_bytes() > small.heap_bytes());
        assert!(tall.heap_bytes() > small.heap_bytes());
    }

    #[test]
    fn empty_matrix() {
        let m = ReplicationMatrix::new(0, 4);
        assert_eq!(m.total_replicas(), 0);
    }

    #[test]
    fn range_words_roundtrip_through_install() {
        let mut src = ReplicationMatrix::new(10, 130);
        src.set(0, 0);
        src.set(3, 64);
        src.set(4, 129);
        src.set(9, 63);
        let mut dst = ReplicationMatrix::new(10, 130);
        dst.set(4, 1); // overwritten by the install of [3, 7)
        dst.set(9, 2); // outside the range: survives
        dst.install_range_words(3, src.range_words(3, 7)).unwrap();
        assert!(dst.get(3, 64));
        assert!(dst.get(4, 129));
        assert!(!dst.get(4, 1), "install replaces, not ORs");
        assert!(dst.get(9, 2));
        assert!(!dst.get(0, 0), "outside the range: untouched");
        // Cover counts stay exact through the replacement.
        let mut recount = vec![0u64; 130];
        for v in 0..10u32 {
            for p in dst.partitions_of(v) {
                recount[p as usize] += 1;
            }
        }
        for p in 0..130u32 {
            assert_eq!(dst.cover_count(p), recount[p as usize], "partition {p}");
        }
        assert_eq!(dst.total_replicas(), 3);
    }

    #[test]
    fn install_range_rejects_bad_shapes_and_stray_bits() {
        // k = 10: 16-bit lanes, four rows per word, so |V| = 6 is 2 words.
        let mut m = ReplicationMatrix::new(6, 10);
        assert!(m.install_range_words(0, &[0, 0]).is_ok());
        assert!(m.install_range_words(4, &[1]).is_ok(), "aligned tail word");
        assert!(m.get(4, 0));
        assert!(m.install_range_words(4, &[0, 0]).is_err(), "out of bounds");
        assert!(m.install_range_words(3, &[0]).is_err(), "not word-aligned");
        assert!(m.install_range_words(8, &[]).is_err(), "starts past |V|");
        let wide = ReplicationMatrix::new(4, 130);
        let mut m2 = ReplicationMatrix::new(4, 130);
        assert!(
            m2.install_range_words(0, &wide.range_words(0, 1)[..1])
                .is_err(),
            "not a whole vertex row"
        );
        assert!(
            m.install_range_words(0, &[1u64 << 13]).is_err(),
            "bit beyond k-1 in lane 0"
        );
        assert!(
            m.install_range_words(0, &[1u64 << (16 * 2 + 10)]).is_err(),
            "bit beyond k-1 in a middle lane"
        );
        assert!(
            m.install_range_words(4, &[1u64 << (16 * 2)]).is_err(),
            "bit in a lane past |V|"
        );
        assert!(m.get(4, 0), "a rejected install changes nothing");
    }

    #[test]
    fn from_raw_words_validates_and_recounts() {
        let mut src = ReplicationMatrix::new(3, 70);
        src.set(0, 0);
        src.set(2, 65);
        let words = src.range_words(0, 3).to_vec();
        let back = ReplicationMatrix::from_raw_words(3, 70, words.clone()).unwrap();
        assert!(back.get(0, 0) && back.get(2, 65));
        assert_eq!(back.total_replicas(), 2);
        assert!(ReplicationMatrix::from_raw_words(3, 0, vec![]).is_err());
        assert!(ReplicationMatrix::from_raw_words(3, 70, words[..4].to_vec()).is_err());
        let mut stray = words;
        stray[1] |= 1 << 70u32.rem_euclid(64); // bit for partition 70 of k=70
        assert!(ReplicationMatrix::from_raw_words(3, 70, stray).is_err());
    }

    #[test]
    fn packed_ingress_rejects_middle_lane_strays_and_lanes_past_v() {
        // Lanes of 4, 8 and 32 bits with a part-filled last word: a bit at
        // partition k in a middle lane of word 0, or any bit in the first
        // lane past |V| of the last word, is refused by every ingress.
        for (k, nv) in [(3u32, 21u64), (5, 11), (17, 3)] {
            let layout = RowLayout::new(k);
            let (rpw, lane) = (layout.rows_per_word(), 64 / layout.rows_per_word());
            let mut src = ReplicationMatrix::new(nv, k);
            for v in 0..nv as u32 {
                src.set(v, v % k);
            }
            let good = src.range_words(0, nv).to_vec();
            let last = good.len() - 1;
            let mut middle = good.clone();
            middle[0] |= 1 << ((rpw / 2) * lane + k as u64);
            let mut past = good.clone();
            past[last] |= 1 << ((nv % rpw) * lane);
            assert!(validate_packed_rows(&good, k, nv).is_ok());
            assert!(ReplicationMatrix::from_raw_words(nv, k, good.clone()).is_ok());
            for (bad, why) in [(middle, "middle-lane stray"), (past, "lane past |V|")] {
                assert!(validate_packed_rows(&bad, k, nv).is_err(), "k {k}: {why}");
                assert!(
                    ReplicationMatrix::from_raw_words(nv, k, bad.clone()).is_err(),
                    "k {k}: {why}"
                );
                let mut dst = ReplicationMatrix::new(nv, k);
                assert!(dst.install_range_words(0, &bad).is_err(), "k {k}: {why}");
                assert_eq!(dst.census(), ReplicaCensus::default(), "nothing installed");
                let tail_start = last as u64 * rpw;
                assert_eq!(
                    dst.install_range_words(tail_start, &bad[last..]).is_err(),
                    why == "lane past |V|",
                    "k {k}: {why}, last word alone"
                );
            }
        }
    }

    #[test]
    fn census_counts_covered_rows_and_bits() {
        let mut m = ReplicationMatrix::new(6, 130);
        assert_eq!(m.census(), ReplicaCensus::default());
        m.set(0, 0);
        m.set(0, 129);
        m.set(3, 64);
        m.set(5, 63);
        m.set(5, 63);
        let census = m.census();
        assert_eq!(census.covered_vertices, 3);
        assert_eq!(census.total_replicas, m.total_replicas());
        assert_eq!(
            ReplicationMatrix::new(0, 7).census(),
            ReplicaCensus::default()
        );
    }

    #[test]
    fn replica_set_trait_is_usable_generically() {
        fn touch<R: ReplicaSet>(r: &mut R) {
            r.insert(1, 2);
            assert!(r.contains(1, 2));
            assert!(!r.contains(0, 2));
            assert_eq!(r.k(), 4);
            assert_eq!(r.num_vertices(), 3);
        }
        let mut m = ReplicationMatrix::new(3, 4);
        touch(&mut m);
    }
}
