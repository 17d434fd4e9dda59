//! The clustering result: vertex→cluster map and cluster volumes.
//!
//! These are the three `O(|V|)` arrays of Algorithm 1 (`d`, `vol`, `v2c`);
//! the degree array stays in [`tps_graph::degree::DegreeTable`] and is shared
//! with the partitioning phase ("the preprocessing phase has no additional
//! memory overhead in excess of the streaming partitioning phase", §IV-B).

use tps_graph::degree::DegreeTable;
use tps_graph::types::{ClusterId, VertexId};

/// Sentinel for "vertex has no cluster yet" (isolated vertices keep it).
pub const NO_CLUSTER: ClusterId = ClusterId::MAX;

/// A vertex clustering with volume bookkeeping.
///
/// As the [`ClusterTable`](crate::ClusterTable) of a clustering pass it
/// renumbers its ids mid-pass ([`Clustering::compact_ids`], minus the
/// capacity release) once the dead ids reach `max(live, ⌈|V|/8⌉)`: pass 1
/// founds a singleton for every vertex it meets, and without renumbering
/// `volumes` would reach 8 B per vertex although only the live clusters
/// (~1 000 on a web graph) survive the pass. So it holds at most
/// `2·live + ⌈|V|/8⌉` volumes after every edge, for at most 8 `O(|V|)`
/// renumberings in all: each drops ≥ ⌈|V|/8⌉ ids, and a vertex founds an
/// id only while it has none, so a clustering founds at most |V|.
#[derive(Clone, Debug)]
pub struct Clustering {
    /// Vertex → cluster id, `NO_CLUSTER` if unassigned.
    v2c: Vec<ClusterId>,
    /// Cluster id → volume (sum of member degrees). Indexed densely by the
    /// ids handed out during streaming; emptied clusters keep volume 0
    /// until the next renumbering.
    volumes: Vec<u64>,
    /// Ids with non-zero volume.
    live: u32,
    /// Clusters that must still die before the renumbering trigger can
    /// hold — a lower bound, re-checked when it reaches 0 (see `arm`), so
    /// the pass pays one test per edge.
    until_due: u32,
    /// Mid-pass renumberings since the last [`Clustering::compact_ids`],
    /// and the ids they dropped.
    renumbered: (u64, u64),
}

impl Clustering {
    /// A clustering with no vertices assigned and no clusters allocated.
    pub fn empty(num_vertices: u64) -> Self {
        Self::from_vecs(vec![NO_CLUSTER; num_vertices as usize], Vec::new())
    }

    /// The clustering of `v2c` and `volumes`, with its live count.
    fn from_vecs(v2c: Vec<ClusterId>, volumes: Vec<u64>) -> Self {
        let live = volumes.iter().filter(|&&v| v > 0).count() as u32;
        let mut clustering = Clustering {
            v2c,
            volumes,
            live,
            until_due: 0,
            renumbered: (0, 0),
        };
        clustering.arm();
        clustering
    }

    /// Construct directly from parts (tests and the ablation baselines).
    ///
    /// # Panics
    /// Panics if a vertex references a cluster id outside `volumes`.
    pub fn from_parts(v2c: Vec<ClusterId>, volumes: Vec<u64>) -> Self {
        for &c in &v2c {
            assert!(
                c == NO_CLUSTER || (c as usize) < volumes.len(),
                "cluster id {c} out of range"
            );
        }
        Self::from_vecs(v2c, volumes)
    }

    /// Cluster of `v`, if assigned.
    #[inline]
    pub fn cluster_of(&self, v: VertexId) -> Option<ClusterId> {
        match self.v2c[v as usize] {
            NO_CLUSTER => None,
            c => Some(c),
        }
    }

    /// Raw cluster id of `v` (`NO_CLUSTER` when unassigned); the hot-path
    /// accessor used by the partitioning inner loops.
    #[inline]
    pub fn raw_cluster_of(&self, v: VertexId) -> ClusterId {
        self.v2c[v as usize]
    }

    /// Volume of cluster `c`.
    #[inline]
    pub fn volume(&self, c: ClusterId) -> u64 {
        self.volumes[c as usize]
    }

    /// Number of cluster ids ever allocated (including since-emptied ones).
    pub fn num_cluster_ids(&self) -> u32 {
        self.volumes.len() as u32
    }

    /// Number of clusters with non-zero volume.
    pub fn num_nonempty_clusters(&self) -> usize {
        self.live as usize
    }

    /// Number of vertices (assigned or not).
    pub fn num_vertices(&self) -> u64 {
        self.v2c.len() as u64
    }

    /// The volumes array (cluster id → volume).
    pub fn volumes(&self) -> &[u64] {
        &self.volumes
    }

    /// Largest cluster volume (0 if no clusters).
    pub fn max_volume(&self) -> u64 {
        self.volumes.iter().copied().max().unwrap_or(0)
    }

    /// Drop since-emptied cluster ids, renumbering the survivors
    /// (volume > 0) in ascending old-id order; returns how many ids it
    /// dropped. Algorithm 1 founds a singleton for every vertex on first
    /// sight and abandons ids as vertices migrate, so the id space — and
    /// everything indexed by it (the volumes, the `c2p` placement, the
    /// distributed `Plan` frame) — grows far past the live cluster count;
    /// compaction restores `O(live)` at `O(|V| + ids)` cost, with an
    /// `IdRemap` of ~0.19 B per old id as its only transient. The volume
    /// invariant guarantees no member references an emptied id (members
    /// have degree ≥ 1).
    ///
    /// Output-invariant at any point between two edges of a pass: the pass
    /// tests ids for equality and compares volumes, new ids are appended
    /// after the survivors, and the mapping step breaks ties by id order,
    /// which renumbering preserves. A pass over the flat table renumbers
    /// mid-pass the same way (type docs); this call also releases the
    /// capacity those renumberings left.
    pub fn compact_ids(&mut self) -> u32 {
        let dropped = self.renumber();
        self.volumes.shrink_to_fit(); // renumbering keeps capacity; release it
        self.arm();
        dropped
    }

    /// Take the count of mid-pass renumberings since the last
    /// [`compact_ids`](Self::compact_ids) and the ids they dropped — what
    /// a driver adds to its compaction counters.
    pub fn take_renumbered(&mut self) -> (u64, u64) {
        std::mem::take(&mut self.renumbered)
    }

    /// [`compact_ids`](Self::compact_ids) in place, keeping the capacity.
    ///
    /// Branch-free throughout: mid-pass, live and dead ids interleave and
    /// so do unassigned vertices, and a branch per id or vertex would
    /// mispredict about every other time.
    fn renumber(&mut self) -> u32 {
        let mut remap = IdRemap::new(self.num_cluster_ids());
        for (word, vols) in remap.live.iter_mut().zip(self.volumes.chunks(64)) {
            *word = (vols.iter().enumerate()).fold(0, |w, (i, &v)| w | u64::from(v > 0) << i);
        }
        let dropped = self.num_cluster_ids() - remap.rank();
        if dropped == 0 {
            return 0;
        }
        let mut kept = 0;
        for i in 0..self.volumes.len() {
            let vol = self.volumes[i];
            self.volumes[kept] = vol;
            kept += usize::from(vol > 0);
        }
        self.volumes.truncate(kept);
        let stand_in = remap.first_live();
        for c in self.v2c.iter_mut() {
            let assigned = *c != NO_CLUSTER;
            let new = remap.map(if assigned { *c } else { stand_in });
            *c = if assigned { new } else { NO_CLUSTER };
        }
        dropped
    }

    // ----- mutation API used by the streaming algorithms (public so
    // downstream extensions, e.g. the hypergraph generalisation, can drive
    // their own clustering passes over the same state) -----

    /// Assign `v` to a brand-new cluster with initial volume `vol`.
    /// Returns the new cluster's id.
    #[inline]
    pub fn create_cluster(&mut self, v: VertexId, vol: u64) -> ClusterId {
        let id = self.volumes.len() as ClusterId;
        self.volumes.push(vol);
        self.live += u32::from(vol > 0);
        self.until_due = self.until_due.saturating_sub(u32::from(vol == 0));
        self.v2c[v as usize] = id;
        id
    }

    /// Move `v` (of degree `d`) from its current cluster to `to`.
    #[inline]
    pub fn migrate(&mut self, v: VertexId, d: u64, to: ClusterId) {
        let from = self.v2c[v as usize];
        debug_assert_ne!(from, NO_CLUSTER);
        debug_assert_ne!(from, to);
        self.volumes[from as usize] -= d;
        let emptied = u32::from(d > 0 && self.volumes[from as usize] == 0);
        self.live -= emptied;
        self.until_due = self.until_due.saturating_sub(emptied);
        self.live += u32::from(d > 0 && self.volumes[to as usize] == 0);
        self.volumes[to as usize] += d;
        self.v2c[v as usize] = to;
    }

    /// The trigger of the mid-pass renumbering (type docs), run by a
    /// clustering pass between edges.
    #[inline]
    pub(crate) fn between_edges(&mut self) {
        if self.until_due == 0 {
            self.renumber_if_due();
        }
    }

    /// Dead ids minus `max(live, ⌈|V|/8⌉)`: the trigger holds at ≥ 0.
    fn trigger_margin(&self) -> i64 {
        let dead = (self.volumes.len() - self.live as usize) as i64;
        dead - (self.live as usize).max(self.v2c.len().div_ceil(8)) as i64
    }

    /// The mid-pass renumbering of a clustering pass (type docs), when the
    /// trigger holds; then re-arm it.
    #[cold]
    #[inline(never)]
    fn renumber_if_due(&mut self) {
        if self.trigger_margin() >= 0 {
            let dropped = self.renumber();
            if dropped > 0 {
                self.renumbered.0 += 1;
                self.renumbered.1 += u64::from(dropped);
            }
        }
        self.arm();
    }

    /// Set `until_due`: a dying cluster (or a zero-volume one founded)
    /// narrows the trigger margin by at most 2 — one more dead id, one
    /// fewer live — and nothing else narrows it, so the trigger cannot
    /// hold before half the margin's worth of such events.
    fn arm(&mut self) {
        let gap = u64::try_from(-self.trigger_margin()).unwrap_or(0);
        self.until_due = gap.div_ceil(2).min(u32::MAX.into()) as u32;
    }

    /// Extend the vertex space to `num_vertices`, the new vertices
    /// unassigned (no-op if it is already that large). In place — an
    /// amortised `Vec::resize` — so a caller that grows one id at a time
    /// (the incremental engine's inserts) pays `O(1)` per id.
    pub fn grow_vertices(&mut self, num_vertices: u64) {
        if num_vertices > self.num_vertices() {
            self.v2c.resize(num_vertices as usize, NO_CLUSTER);
        }
    }

    // ----- wire format (the distributed runtime ships clusterings between
    // workers and the coordinator; see `tps-dist`) -----

    /// Serialise into `out`: `|V|` (u64), `#cluster ids` (u32), the
    /// vertex→cluster map as little-endian u32s, the volumes as u64s.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(12 + self.v2c.len() * 4 + self.volumes.len() * 8);
        out.extend_from_slice(&(self.v2c.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.volumes.len() as u32).to_le_bytes());
        for &c in &self.v2c {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for &v in &self.volumes {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Inverse of [`Clustering::encode_into`]. Consumes exactly the encoded
    /// bytes from the front of `bytes`, returning the rest; rejects
    /// truncated input and out-of-range cluster ids.
    pub fn decode_from(bytes: &[u8]) -> Result<(Clustering, &[u8]), String> {
        let take = |b: &[u8], n: usize| -> Result<(), String> {
            if b.len() < n {
                Err(format!(
                    "clustering truncated: need {n} bytes, have {}",
                    b.len()
                ))
            } else {
                Ok(())
            }
        };
        take(bytes, 12)?;
        let num_vertices = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let num_ids = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let rest = &bytes[12..];
        // Checked: a hostile header must not wrap past the length check
        // into an allocation the bytes do not back.
        let overflow = || "clustering vertex count overflow".to_string();
        let v2c_bytes = usize::try_from(num_vertices)
            .ok()
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(overflow)?;
        let vol_bytes = (num_ids as usize).checked_mul(8).ok_or_else(overflow)?;
        take(rest, v2c_bytes.checked_add(vol_bytes).ok_or_else(overflow)?)?;
        let mut v2c = Vec::with_capacity(num_vertices as usize);
        for rec in rest[..v2c_bytes].chunks_exact(4) {
            let c = u32::from_le_bytes(rec.try_into().unwrap());
            if c != NO_CLUSTER && c >= num_ids {
                return Err(format!("cluster id {c} out of range ({num_ids} ids)"));
            }
            v2c.push(c);
        }
        let mut volumes = Vec::with_capacity(num_ids as usize);
        for rec in rest[v2c_bytes..v2c_bytes + vol_bytes].chunks_exact(8) {
            volumes.push(u64::from_le_bytes(rec.try_into().unwrap()));
        }
        Ok((
            Self::from_vecs(v2c, volumes),
            &rest[v2c_bytes + vol_bytes..],
        ))
    }

    /// Verify that every cluster's volume equals the sum of its members'
    /// degrees. `O(|V| + #clusters)`; test/debug helper.
    pub fn check_volume_invariant(&self, degrees: &DegreeTable) -> Result<(), String> {
        let mut recomputed = vec![0u64; self.volumes.len()];
        for (v, &c) in self.v2c.iter().enumerate() {
            if c != NO_CLUSTER {
                recomputed[c as usize] += degrees.degree(v as VertexId) as u64;
            }
        }
        for (c, (&expected, &actual)) in recomputed.iter().zip(&self.volumes).enumerate() {
            if expected != actual {
                return Err(format!(
                    "cluster {c}: stored volume {actual} != recomputed {expected}"
                ));
            }
        }
        Ok(())
    }
}

/// The old→new map of an order-preserving id compaction: one bit per old
/// id, set when the id survives, plus the survivors before each 64-id word
/// — 12 B per 64 ids where a `u32` per id would take 256.
pub(crate) struct IdRemap {
    live: Vec<u64>,
    rank: Vec<u32>,
}

impl IdRemap {
    /// A map over old ids `0..num_ids`, none of them marked live yet.
    pub(crate) fn new(num_ids: u32) -> Self {
        IdRemap {
            live: vec![0; num_ids.div_ceil(64) as usize],
            rank: Vec::new(),
        }
    }

    /// Keep old id `c`.
    #[inline]
    pub(crate) fn mark_live(&mut self, c: ClusterId) {
        self.live[(c >> 6) as usize] |= 1 << (c & 63);
    }

    /// The lowest surviving old id (0 if none survives).
    fn first_live(&self) -> ClusterId {
        (0..)
            .zip(&self.live)
            .find(|&(_, &w)| w != 0)
            .map_or(0, |(i, w)| i * 64 + w.trailing_zeros())
    }

    /// Fix the per-word ranks once every survivor is marked; returns the
    /// survivor count.
    pub(crate) fn rank(&mut self) -> u32 {
        let mut survivors = 0;
        self.rank = self
            .live
            .iter()
            .map(|w| {
                let before = survivors;
                survivors += w.count_ones();
                before
            })
            .collect();
        survivors
    }

    /// New id of surviving old id `c`: the survivors below it.
    #[inline]
    pub(crate) fn map(&self, c: ClusterId) -> ClusterId {
        let (word, bit) = ((c >> 6) as usize, c & 63);
        debug_assert!(
            (self.live[word] >> bit) & 1 == 1,
            "member of an empty cluster"
        );
        self.rank[word] + (self.live[word] & ((1u64 << bit) - 1)).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_clustering_has_no_assignments() {
        let c = Clustering::empty(5);
        assert_eq!(c.num_vertices(), 5);
        assert_eq!(c.num_cluster_ids(), 0);
        assert_eq!(c.cluster_of(3), None);
        assert_eq!(c.max_volume(), 0);
    }

    #[test]
    fn create_and_migrate() {
        let mut c = Clustering::empty(3);
        let c0 = c.create_cluster(0, 4);
        let c1 = c.create_cluster(1, 2);
        assert_eq!(c.cluster_of(0), Some(c0));
        assert_eq!(c.volume(c0), 4);
        c.migrate(1, 2, c0);
        assert_eq!(c.cluster_of(1), Some(c0));
        assert_eq!(c.volume(c0), 6);
        assert_eq!(c.volume(c1), 0);
        assert_eq!(c.num_nonempty_clusters(), 1);
    }

    #[test]
    fn volume_invariant_detects_mismatch() {
        let degrees = DegreeTable::from_vec(vec![2, 2]);
        let good = Clustering::from_parts(vec![0, 0], vec![4]);
        assert!(good.check_volume_invariant(&degrees).is_ok());
        let bad = Clustering::from_parts(vec![0, 0], vec![5]);
        assert!(bad.check_volume_invariant(&degrees).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_parts_validates_ids() {
        Clustering::from_parts(vec![3], vec![1]);
    }

    #[test]
    fn wire_roundtrip_preserves_everything() {
        let c = Clustering::from_parts(vec![1, 0, NO_CLUSTER, 1], vec![5, 9]);
        let mut bytes = Vec::new();
        c.encode_into(&mut bytes);
        let (d, rest) = Clustering::decode_from(&bytes).unwrap();
        assert!(rest.is_empty());
        assert_eq!(d.v2c, c.v2c);
        assert_eq!(d.volumes, c.volumes);
        // Trailing bytes are handed back, not consumed.
        bytes.push(0xAB);
        let (_, rest) = Clustering::decode_from(&bytes).unwrap();
        assert_eq!(rest, &[0xAB]);
    }

    #[test]
    fn wire_rejects_truncation_and_bad_ids() {
        let c = Clustering::from_parts(vec![0, 0], vec![4]);
        let mut bytes = Vec::new();
        c.encode_into(&mut bytes);
        for cut in [0, 5, bytes.len() - 1] {
            assert!(Clustering::decode_from(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Corrupt a vertex's cluster id to an out-of-range value.
        bytes[12..16].copy_from_slice(&7u32.to_le_bytes());
        assert!(Clustering::decode_from(&bytes).is_err());
    }

    /// 28 bytes whose header promises 2⁶² − 1 vertices: the byte count
    /// overflows, which must be an error, not an add-overflow panic or a
    /// capacity-overflow allocation.
    #[test]
    fn wire_rejects_a_header_whose_size_overflows() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&((1u64 << 62) - 1).to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 16]);
        assert_eq!(bytes.len(), 28);
        let err = Clustering::decode_from(&bytes).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
    }

    /// Live ids on both sides of several 64-id word boundaries: survivors
    /// keep their order and volumes, members follow them, and the dead ids
    /// are gone.
    #[test]
    fn compact_ids_across_word_boundaries() {
        let live: Vec<ClusterId> = vec![0, 62, 63, 64, 65, 127, 128, 191, 250];
        let ids = 256;
        let mut volumes = vec![0u64; ids];
        for (i, &c) in live.iter().enumerate() {
            volumes[c as usize] = 10 + i as u64;
        }
        // One member per live id, in reverse, and one unassigned vertex.
        let mut v2c: Vec<ClusterId> = live.iter().rev().copied().collect();
        v2c.push(NO_CLUSTER);
        let mut c = Clustering::from_parts(v2c, volumes);
        assert_eq!(c.compact_ids(), (ids - live.len()) as u32);
        assert_eq!(c.num_cluster_ids(), live.len() as u32);
        let want: Vec<u64> = (0..live.len() as u64).map(|i| 10 + i).collect();
        assert_eq!(c.volumes(), &want[..], "order and volumes survive");
        for (v, new) in (0..live.len() as ClusterId).rev().enumerate() {
            assert_eq!(c.raw_cluster_of(v as VertexId), new, "vertex {v}");
        }
        assert_eq!(c.cluster_of(live.len() as VertexId), None);
        assert_eq!(c.compact_ids(), 0, "already compact");
    }

    /// Growing the vertex space keeps every cluster, member and volume,
    /// leaves the new vertices unassigned, and never shrinks.
    #[test]
    fn grow_vertices_keeps_every_cluster_and_volume() {
        let mut c = Clustering::from_parts(vec![1, 0, NO_CLUSTER, 1], vec![5, 9]);
        for n in 5..70u64 {
            c.grow_vertices(n);
            assert_eq!(c.num_vertices(), n);
        }
        c.grow_vertices(3);
        assert_eq!(c.num_vertices(), 69, "never shrinks");
        assert_eq!(c.volumes(), &[5, 9]);
        assert_eq!(
            (0..4).map(|v| c.raw_cluster_of(v)).collect::<Vec<_>>(),
            [1, 0, NO_CLUSTER, 1]
        );
        assert!((4..69).all(|v| c.cluster_of(v).is_none()));
        let fresh = c.create_cluster(68, 3);
        assert_eq!((fresh, c.volume(fresh)), (2, 3));
    }

    #[test]
    fn unassigned_vertices_ignored_by_invariant() {
        let degrees = DegreeTable::from_vec(vec![2, 0]);
        let c = Clustering::from_parts(vec![0, NO_CLUSTER], vec![2]);
        assert!(c.check_volume_invariant(&degrees).is_ok());
    }
}
