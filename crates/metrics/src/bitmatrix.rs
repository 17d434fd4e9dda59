//! The vertex × partition replication bit matrix (`v2p` in the paper's
//! Algorithm 2).
//!
//! One bit per (vertex, partition) pair, packed into 64-bit words:
//! `⌈k/64⌉` words per vertex, `O(|V|·k)` bits total — the dominant term of
//! 2PS-L's space complexity (Table II). The matrix also keeps the per-
//! partition cover counts `|V(p)|` incrementally, so the replication factor
//! is available in `O(k)` at any time.

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

impl ReplicaCensus {
    /// Count `words` as consecutive `words_per_vertex`-word vertex rows, in
    /// one pass and without holding more than a row's running sum — what
    /// lets the shared atomic matrix be counted in place.
    pub fn of_rows(words_per_vertex: usize, words: impl IntoIterator<Item = u64>) -> Self {
        let mut census = ReplicaCensus::default();
        let (mut in_row, mut row_bits) = (0usize, 0u64);
        for w in words {
            row_bits += u64::from(w.count_ones());
            in_row += 1;
            if in_row == words_per_vertex {
                census.covered_vertices += u64::from(row_bits > 0);
                census.total_replicas += row_bits;
                (in_row, row_bits) = (0, 0);
            }
        }
        debug_assert_eq!(in_row, 0, "words end mid-row");
        census
    }
}

/// Packed replication matrix with incremental cover counts.
#[derive(Clone, Debug)]
pub struct ReplicationMatrix {
    words_per_vertex: usize,
    bits: Vec<u64>,
    /// `|V(p)|` per partition — number of vertices with the bit set.
    cover_counts: Vec<u64>,
    k: u32,
    num_vertices: u64,
}

impl ReplicationMatrix {
    /// Create an all-zero matrix for `num_vertices` vertices and `k`
    /// partitions.
    pub fn new(num_vertices: u64, k: u32) -> Self {
        assert!(k > 0, "k must be positive");
        let words_per_vertex = (k as usize).div_ceil(64);
        let total = words_per_vertex
            .checked_mul(num_vertices as usize)
            .expect("replication matrix size overflow");
        ReplicationMatrix {
            words_per_vertex,
            bits: vec![0u64; total],
            cover_counts: vec![0u64; k as usize],
            k,
            num_vertices,
        }
    }

    /// Number of partitions.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Packed words per vertex row (`⌈k/64⌉`).
    #[inline]
    pub fn words_per_vertex(&self) -> usize {
        self.words_per_vertex
    }

    /// Build a matrix from raw packed words (cover counts are recounted).
    /// Rejects a word count that does not match `num_vertices × ⌈k/64⌉`,
    /// `k = 0`, and stray bits beyond partition `k − 1` — the validation
    /// every word-level ingress (snapshot, range install) shares.
    pub fn from_raw_words(
        num_vertices: u64,
        k: u32,
        bits: Vec<u64>,
    ) -> Result<ReplicationMatrix, String> {
        if k == 0 {
            return Err("replication matrix with k = 0".into());
        }
        let words_per_vertex = (k as usize).div_ceil(64);
        let total = words_per_vertex
            .checked_mul(num_vertices as usize)
            .ok_or("replication matrix size overflow")?;
        if bits.len() != total {
            return Err(format!(
                "replication matrix has {} words, expected {total}",
                bits.len()
            ));
        }
        validate_packed_rows(&bits, k)?;
        let mut cover_counts = vec![0u64; k as usize];
        for (i, &w) in bits.iter().enumerate() {
            let mut w = w;
            let base = ((i % words_per_vertex) as u32) * 64;
            while w != 0 {
                let b = w.trailing_zeros();
                cover_counts[(base + b) as usize] += 1;
                w &= w - 1;
            }
        }
        Ok(ReplicationMatrix {
            words_per_vertex,
            bits,
            cover_counts,
            k,
            num_vertices,
        })
    }

    /// The packed words of the vertex range `[v0, v1)` — what one
    /// vertex-range chunk of the distributed replication barrier carries.
    pub fn range_words(&self, v0: u64, v1: u64) -> &[u64] {
        assert!(
            v0 <= v1 && v1 <= self.num_vertices,
            "vertex range [{v0}, {v1}) out of bounds for |V| = {}",
            self.num_vertices
        );
        &self.bits[v0 as usize * self.words_per_vertex..v1 as usize * self.words_per_vertex]
    }

    /// Replace the packed words of the vertex range starting at `v0` with
    /// `words`, keeping the cover counts exact (per-word bit deltas). The
    /// inverse of [`ReplicationMatrix::range_words`] — how a distributed
    /// worker installs one merged vertex-range chunk. Rejects misaligned
    /// or out-of-bounds ranges and stray bits beyond partition `k − 1`.
    pub fn install_range_words(&mut self, v0: u64, words: &[u64]) -> Result<(), String> {
        let wpv = self.words_per_vertex;
        let start = (v0 as usize)
            .checked_mul(wpv)
            .filter(|s| s + words.len() <= self.bits.len())
            .ok_or_else(|| {
                format!(
                    "chunk at vertex {v0} ({} words) exceeds |V| = {}",
                    words.len(),
                    self.num_vertices
                )
            })?;
        validate_packed_rows(words, self.k)?;
        for (i, (dst, &src)) in self.bits[start..start + words.len()]
            .iter_mut()
            .zip(words)
            .enumerate()
        {
            if *dst == src {
                continue;
            }
            let base = (((start + i) % wpv) as u32) * 64;
            let mut added = src & !*dst;
            while added != 0 {
                let b = added.trailing_zeros();
                self.cover_counts[(base + b) as usize] += 1;
                added &= added - 1;
            }
            let mut removed = *dst & !src;
            while removed != 0 {
                let b = removed.trailing_zeros();
                self.cover_counts[(base + b) as usize] -= 1;
                removed &= removed - 1;
            }
            *dst = src;
        }
        Ok(())
    }

    #[inline]
    fn index(&self, v: VertexId, p: PartitionId) -> (usize, u64) {
        debug_assert!(p < self.k, "partition {p} out of range (k = {})", self.k);
        let word = v as usize * self.words_per_vertex + (p as usize >> 6);
        let mask = 1u64 << (p & 63);
        (word, mask)
    }

    /// Whether `v` is replicated on `p`.
    #[inline]
    pub fn get(&self, v: VertexId, p: PartitionId) -> bool {
        let (word, mask) = self.index(v, p);
        self.bits[word] & mask != 0
    }

    /// Mark `v` as replicated on `p`. Returns `true` if the bit was newly set.
    #[inline]
    pub fn set(&mut self, v: VertexId, p: PartitionId) -> bool {
        let (word, mask) = self.index(v, p);
        let newly = self.bits[word] & mask == 0;
        if newly {
            self.bits[word] |= mask;
            self.cover_counts[p as usize] += 1;
        }
        newly
    }

    /// Number of partitions `v` is replicated on.
    #[inline]
    pub fn replica_count(&self, v: VertexId) -> u32 {
        let base = v as usize * self.words_per_vertex;
        self.bits[base..base + self.words_per_vertex]
            .iter()
            .map(|w| w.count_ones())
            .sum()
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
    /// (one `O(|V|·k/64)` scan; see [`ReplicaCensus`]).
    pub fn census(&self) -> ReplicaCensus {
        ReplicaCensus::of_rows(self.words_per_vertex, self.bits.iter().copied())
    }

    /// Iterate over the partitions `v` is replicated on.
    pub fn partitions_of(&self, v: VertexId) -> impl Iterator<Item = PartitionId> + '_ {
        let base = v as usize * self.words_per_vertex;
        let words = &self.bits[base..base + self.words_per_vertex];
        words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            let mut out = Vec::with_capacity(w.count_ones() as usize);
            while w != 0 {
                let b = w.trailing_zeros();
                out.push((wi as u32) * 64 + b);
                w &= w - 1;
            }
            out
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

/// Mask of the unused high bits in a vertex's last packed word, if any
/// (`None` when `k` is a multiple of 64). Bits at positions ≥ k would
/// corrupt the cover counts silently; every word-level ingress — range
/// install, the distributed coordinator's chunk merge — rejects rows where
/// `last_word & mask != 0`.
#[inline]
pub fn stray_bit_mask(k: u32) -> Option<u64> {
    let tail_bits = ((k as usize).div_ceil(64) * 64 - k as usize) as u32;
    (tail_bits > 0).then(|| !0u64 << (64 - tail_bits))
}

/// Validate a packed word sequence as whole `⌈k/64⌉`-word vertex rows
/// with no stray bits beyond partition `k − 1` — the one rule every
/// word-level ingress shares (snapshot, range install, the distributed
/// coordinator's chunk merge), kept here so the ingresses cannot diverge.
pub fn validate_packed_rows(words: &[u64], k: u32) -> Result<(), String> {
    let wpv = (k as usize).div_ceil(64);
    if !words.len().is_multiple_of(wpv) {
        return Err(format!(
            "chunk of {} words is not a whole number of {wpv}-word vertex rows",
            words.len()
        ));
    }
    if let Some(mask) = stray_bit_mask(k) {
        for row in words.chunks_exact(wpv) {
            if row[wpv - 1] & mask != 0 {
                return Err("packed rows have bits beyond partition k-1".into());
            }
        }
    }
    Ok(())
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
        let mut m = ReplicationMatrix::new(4, 10);
        assert!(m.install_range_words(0, &[0, 0, 0]).is_ok());
        assert!(m.install_range_words(3, &[0, 0]).is_err(), "out of bounds");
        let wide = ReplicationMatrix::new(4, 130);
        let mut m2 = ReplicationMatrix::new(4, 130);
        assert!(
            m2.install_range_words(0, &wide.range_words(0, 1)[..1])
                .is_err(),
            "not a whole vertex row"
        );
        assert!(
            m.install_range_words(1, &[1u64 << 13]).is_err(),
            "bit beyond k-1"
        );
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
