//! The clustering result: vertex→cluster map and cluster volumes.
//!
//! These are the three `O(|V|)` arrays of Algorithm 1 (`d`, `vol`, `v2c`);
//! the degree array stays in [`tps_graph::degree::DegreeTable`] and is shared
//! with the partitioning phase ("the preprocessing phase has no additional
//! memory overhead in excess of the streaming partitioning phase", §IV-B).
//!
//! `v2c` is one [`PackedU32s`] for both phases, holding `id + 1` per vertex
//! and 0 for none: phase 1 writes it at the width of |V|, which bounds
//! every cluster id (see [`Clustering`]), and [`Clustering::freeze`]
//! narrows it in place to the width of the finished id space for phase 2's
//! [`ClusterPlan`]. With 0 for "no cluster", a new table is zeroed memory,
//! which costs nothing until a vertex is assigned, and a read is one
//! subtraction: 0 wraps to [`NO_CLUSTER`].

use tps_graph::degree::DegreeTable;
use tps_graph::packed::PackedU32s;
use tps_graph::types::{ClusterId, PartitionId, VertexId};

/// Sentinel for "vertex has no cluster yet" (isolated vertices keep it).
pub const NO_CLUSTER: ClusterId = ClusterId::MAX;

/// A vertex clustering with volume bookkeeping.
///
/// # Cluster ids stay below |V|
/// The id count never exceeds the clustered vertices: a vertex founds a
/// cluster only while it has none, and never loses its cluster again, so
/// each founding adds one id and one clustered vertex; a migration adds
/// neither; a renumbering keeps only the live clusters, each of which has
/// a member. [`merge_clusterings`](crate::merge_clusterings) concatenates
/// the parts' id spaces, which can pass |V|, but compacts them to the live
/// clusters before anyone reads the result. So every id is below |V|, and
/// `v2c` holds `id + 1` in the bytes |V| needs (3 B up to 2²⁴ − 1
/// vertices); a founding asserts the bound in debug builds. A table built
/// from parts whose id count passes |V| is as wide as that count; a
/// decoded one only as wide as its id count, until a founding widens it.
///
/// # Renumbering
/// As the [`ClusterTable`](crate::ClusterTable) of a clustering pass it
/// renumbers its ids mid-pass ([`Clustering::compact_ids`], minus the
/// capacity release) once the dead ids reach `max(live, ⌈|V|/8⌉)`: pass 1
/// founds a singleton for every vertex it meets, and without renumbering
/// `volumes` would reach 8 B per vertex although only the live clusters
/// (~1 000 on a web graph) survive the pass. So it holds at most
/// `2·live + ⌈|V|/8⌉` volumes after every edge, for at most 8 `O(|V|)`
/// renumberings in all: each drops ≥ ⌈|V|/8⌉ ids, and a clustering founds
/// at most |V| (above).
#[derive(Clone, Debug)]
pub struct Clustering {
    /// Vertex → cluster id + 1, 0 if unassigned.
    v2c: PackedU32s,
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

/// The bytes per `v2c` entry of a table over `num_vertices` vertices and
/// `num_ids` cluster ids: every id + 1 fits, and so does every id a vertex
/// may still found.
pub(crate) fn id_width(num_vertices: u64, num_ids: usize) -> usize {
    let top = num_vertices.max(num_ids as u64).min(u32::MAX.into());
    PackedU32s::width_for(top as u32)
}

/// What `v2c` holds for cluster `c`: `c + 1`, and 0 for [`NO_CLUSTER`].
#[inline]
pub(crate) fn pack_id(c: ClusterId) -> u32 {
    c.wrapping_add(1)
}

/// The cluster a `v2c` entry holds, [`NO_CLUSTER`] for 0.
#[inline]
pub(crate) fn unpack_id(stored: u32) -> ClusterId {
    stored.wrapping_sub(1)
}

impl Clustering {
    /// A clustering with no vertices assigned and no clusters allocated.
    pub fn empty(num_vertices: u64) -> Self {
        let width = id_width(num_vertices, 0);
        Self::from_table(PackedU32s::zeroed(num_vertices as usize, width), Vec::new())
    }

    /// The clustering of `v2c` and `volumes`, with its live count.
    pub(crate) fn from_table(v2c: PackedU32s, volumes: Vec<u64>) -> Self {
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
        let width = id_width(v2c.len() as u64, volumes.len());
        let ids = v2c.iter().map(|&c| pack_id(c));
        Self::from_table(PackedU32s::with_width(ids, v2c.len(), width), volumes)
    }

    /// Cluster of `v`, if assigned.
    #[inline]
    pub fn cluster_of(&self, v: VertexId) -> Option<ClusterId> {
        match self.raw_cluster_of(v) {
            NO_CLUSTER => None,
            c => Some(c),
        }
    }

    /// Raw cluster id of `v` (`NO_CLUSTER` when unassigned); the hot-path
    /// accessor used by the partitioning inner loops.
    #[inline]
    pub fn raw_cluster_of(&self, v: VertexId) -> ClusterId {
        unpack_id(self.v2c.get(v as usize))
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

    /// Heap bytes of the packed vertex→cluster map, pad included.
    pub fn v2c_bytes(&self) -> usize {
        self.v2c.heap_bytes()
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
    /// have degree ≥ 1). A table wider than |V| needs (a merge's
    /// concatenated id space) narrows to it.
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
        let width = id_width(self.num_vertices(), self.volumes.len());
        if width < self.v2c.width() {
            self.v2c.rewiden(width);
        }
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
        self.v2c.map_in_place(|stored| {
            let assigned = stored != 0;
            let new = remap.map(if assigned {
                unpack_id(stored)
            } else {
                stand_in
            });
            if assigned {
                pack_id(new)
            } else {
                0
            }
        });
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
        debug_assert!(
            u64::from(id) < self.num_vertices(),
            "cluster id {id} reaches |V| = {}",
            self.num_vertices()
        );
        self.volumes.push(vol);
        self.live += u32::from(vol > 0);
        self.until_due = self.until_due.saturating_sub(u32::from(vol == 0));
        if pack_id(id) > self.v2c.max_value() {
            self.widen();
        }
        self.v2c.set(v as usize, pack_id(id));
        id
    }

    /// Widen a decoded table, sized by its id count, to the bytes |V|
    /// needs: a founding outgrew it.
    #[cold]
    #[inline(never)]
    fn widen(&mut self) {
        self.v2c
            .rewiden(id_width(self.num_vertices(), self.volumes.len()));
    }

    /// Move `v` (of degree `d`) from its current cluster to `to`.
    #[inline]
    pub fn migrate(&mut self, v: VertexId, d: u64, to: ClusterId) {
        let from = self.raw_cluster_of(v);
        debug_assert_ne!(from, NO_CLUSTER);
        debug_assert_ne!(from, to);
        self.volumes[from as usize] -= d;
        let emptied = u32::from(d > 0 && self.volumes[from as usize] == 0);
        self.live -= emptied;
        self.until_due = self.until_due.saturating_sub(emptied);
        self.live += u32::from(d > 0 && self.volumes[to as usize] == 0);
        self.volumes[to as usize] += d;
        self.v2c.set(v as usize, pack_id(to));
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
    /// unassigned (no-op if it is already that large). In place and
    /// amortised `O(1)` per id, so a caller that grows one id at a time (the
    /// incremental engine's inserts) pays that; the table re-widens, an
    /// `O(|V|)` copy, only when |V| crosses a width boundary (2⁸, 2¹⁶, 2²⁴).
    pub fn grow_vertices(&mut self, num_vertices: u64) {
        if num_vertices > self.num_vertices() {
            let width = id_width(num_vertices, self.volumes.len());
            if width > self.v2c.width() {
                self.v2c.rewiden(width);
            }
            self.v2c.grow(num_vertices as usize);
        }
    }

    /// The finished clustering as phase 2 reads it, each cluster placed on
    /// `c2p[c]`: `v2c` narrowed in place to the bytes the id space needs
    /// (2 B up to 65 535 clusters), the volumes moved, nothing copied.
    ///
    /// # Panics
    /// Panics if `c2p` covers fewer clusters than the clustering has ids.
    pub fn freeze(mut self, c2p: Vec<PartitionId>) -> ClusterPlan {
        assert!(
            c2p.len() >= self.volumes.len(),
            "c2p covers {} clusters, clustering has {}",
            c2p.len(),
            self.volumes.len()
        );
        // An entry holds at most the id count (the last id + 1).
        self.v2c
            .rewiden(PackedU32s::width_for(self.num_cluster_ids()));
        ClusterPlan {
            v2c: self.v2c,
            volumes: self.volumes,
            c2p,
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
        for v in 0..self.v2c.len() {
            out.extend_from_slice(&self.raw_cluster_of(v as VertexId).to_le_bytes());
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
        let ids = rest[..v2c_bytes]
            .chunks_exact(4)
            .map(|rec| u32::from_le_bytes(rec.try_into().unwrap()));
        if let Some(c) = ids.clone().find(|&c| c != NO_CLUSTER && c >= num_ids) {
            return Err(format!("cluster id {c} out of range ({num_ids} ids)"));
        }
        // Packed straight from the frame, no `u32` copy of the map, in the
        // bytes of the id count: a dist worker freezes it as it is, and a
        // founding that outgrows it widens it.
        let nv = num_vertices as usize;
        let width = PackedU32s::width_for(num_ids);
        let ids = ids.map(pack_id);
        let volumes = rest[v2c_bytes..v2c_bytes + vol_bytes]
            .chunks_exact(8)
            .map(|rec| u64::from_le_bytes(rec.try_into().unwrap()))
            .collect();
        Ok((
            Self::from_table(PackedU32s::with_width(ids, nv, width), volumes),
            &rest[v2c_bytes + vol_bytes..],
        ))
    }

    /// Verify that every cluster's volume equals the sum of its members'
    /// degrees. `O(|V| + #clusters)`; test/debug helper.
    pub fn check_volume_invariant(&self, degrees: &DegreeTable) -> Result<(), String> {
        let mut recomputed = vec![0u64; self.volumes.len()];
        for v in (0..self.v2c.len()).map(|v| v as VertexId) {
            let c = self.raw_cluster_of(v);
            if c != NO_CLUSTER {
                recomputed[c as usize] += degrees.degree(v) as u64;
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

/// A finished clustering and its placement, as phase 2 reads them: what
/// [`Clustering::freeze`] makes of the phase-1 table at the placement
/// barrier, shared read-only by every shard. It answers exactly what the
/// clustering and its placement answer, so every decision is the one they
/// would give.
#[derive(Clone, Debug)]
pub struct ClusterPlan {
    /// Vertex → cluster id + 1 (0 for none), in the bytes the id space
    /// needs.
    v2c: PackedU32s,
    /// Cluster id → volume.
    volumes: Vec<u64>,
    /// Cluster id → partition.
    c2p: Vec<PartitionId>,
}

impl ClusterPlan {
    /// Raw cluster id of `v` (`NO_CLUSTER` when unassigned), as
    /// [`Clustering::raw_cluster_of`] answers it.
    #[inline]
    pub fn cluster_of(&self, v: VertexId) -> ClusterId {
        unpack_id(self.v2c.get(v as usize))
    }

    /// Volume of cluster `c`.
    #[inline]
    pub fn volume(&self, c: ClusterId) -> u64 {
        self.volumes[c as usize]
    }

    /// Partition of cluster `c`.
    #[inline]
    pub fn partition_of(&self, c: ClusterId) -> PartitionId {
        self.c2p[c as usize]
    }

    /// Number of vertices the plan covers.
    pub fn num_vertices(&self) -> usize {
        self.v2c.len()
    }

    /// Heap bytes of the packed vertex→cluster map.
    pub fn cluster_map_bytes(&self) -> usize {
        self.v2c.heap_bytes()
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
        assert_eq!(d.v2c.width(), 1);
        assert_eq!(d.volumes, c.volumes);
        // Trailing bytes are handed back, not consumed.
        bytes.push(0xAB);
        let (_, rest) = Clustering::decode_from(&bytes).unwrap();
        assert_eq!(rest, &[0xAB]);
    }

    /// A decoded table takes the bytes of its id count, not of |V|, and a
    /// founding past that width widens it with every assignment kept.
    #[test]
    fn decoded_table_widens_when_a_founding_outgrows_it() {
        let mut v2c = vec![NO_CLUSTER; 300];
        v2c[7] = 1;
        let mut bytes = Vec::new();
        Clustering::from_parts(v2c, vec![0, 3]).encode_into(&mut bytes);
        let (mut c, _) = Clustering::decode_from(&bytes).unwrap();
        assert_eq!(c.v2c.width(), 1);
        for v in 8..262 {
            c.create_cluster(v, 1);
        }
        assert_eq!((c.num_cluster_ids(), c.v2c.width()), (256, 2));
        assert_eq!(c.raw_cluster_of(7), 1);
        assert_eq!(c.raw_cluster_of(261), 255);
        assert_eq!(c.cluster_of(262), None);
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

    /// |V| on both sides of the 1- and 2-byte boundaries: the map takes the
    /// bytes |V| needs (an entry holds id + 1), and every vertex founding its
    /// own cluster — ids up to |V| − 1, the most a clustering founds —
    /// reads back, the last vertex too, as do unassigned vertices.
    #[test]
    fn v2c_takes_the_bytes_of_v_at_every_width_boundary() {
        for (nv, width) in [(1u64, 1usize), (255, 1), (256, 2), (65_535, 2), (65_536, 3)] {
            let mut c = Clustering::empty(nv);
            assert_eq!(c.v2c_bytes(), width * nv as usize + 3, "|V| = {nv}");
            assert_eq!(c.cluster_of(nv as VertexId - 1), None);
            for v in 0..nv as VertexId {
                assert_eq!(c.create_cluster(v, 1), v);
            }
            assert_eq!(c.v2c.width(), width, "|V| = {nv}");
            for v in (0..nv as VertexId).rev() {
                assert_eq!(c.cluster_of(v), Some(v), "|V| = {nv}, vertex {v}");
            }
        }
        // The 3- to 4-byte boundary, without a 2²⁴-vertex table.
        assert_eq!(id_width((1 << 24) - 1, 0), 3);
        assert_eq!(id_width(1 << 24, 0), 4);
        assert_eq!(id_width(1 << 32, 0), 4);
        // A merge's concatenated id space may pass |V|: the ids set the width.
        assert_eq!(id_width(200, 300), 2);
    }

    /// The incremental engine grows |V| one id at a time: across 2⁸ and
    /// 2¹⁶ the map re-widens and keeps every cluster and unassigned vertex.
    #[test]
    fn grow_vertices_rewidens_across_width_boundaries() {
        let mut c = Clustering::empty(200);
        let mut want = vec![NO_CLUSTER; 200];
        for n in 201..=70_000u64 {
            c.grow_vertices(n);
            let v = n as VertexId - 1;
            want.push(NO_CLUSTER);
            if !v.is_multiple_of(3) {
                want[v as usize] = c.create_cluster(v, 1);
            }
            if matches!(n, 255 | 256 | 257 | 65_535 | 65_536 | 65_537) {
                let got: Vec<ClusterId> = (0..n as VertexId).map(|v| c.raw_cluster_of(v)).collect();
                assert_eq!(got, want, "|V| = {n}");
            }
        }
        assert_eq!(c.v2c.width(), 3);
        // Moving the highest id, then renumbering, keeps every member.
        assert_eq!(c.raw_cluster_of(69_998), c.num_cluster_ids() - 1);
        c.migrate(69_998, 1, 0);
        want[69_998] = 0;
        c.compact_ids();
        // One member per cluster, but cluster 0 has two.
        let members = want.iter().filter(|&&c| c != NO_CLUSTER).count();
        assert_eq!(c.num_cluster_ids() as usize, members - 1);
        assert!((0..70_000)
            .all(|v| (c.raw_cluster_of(v) == NO_CLUSTER) == (want[v as usize] == NO_CLUSTER)));
    }

    /// A clustering of `nv` vertices over `ids` cluster ids: vertex `v` in
    /// cluster `v % ids`, every seventh vertex unclustered.
    fn striped(nv: u32, ids: u32) -> Clustering {
        let v2c = (0..nv)
            .map(|v| if v % 7 == 3 { NO_CLUSTER } else { v % ids })
            .collect();
        Clustering::from_parts(v2c, (0..ids).map(|c| 2 + u64::from(c)).collect())
    }

    /// Freezing narrows the map to the id space's width, and the plan
    /// answers as the clustering and its placement did.
    #[test]
    fn freeze_answers_like_the_clustering_at_every_width_boundary() {
        // 255 ids store as 1..=255 in one byte, 256 need two; 65 535
        // and 65 536 straddle the next boundary.
        for (ids, width) in [(1u32, 1usize), (255, 1), (256, 2), (65_535, 2), (65_536, 3)] {
            let c = striped(70_000, ids);
            assert_eq!(c.v2c_bytes(), 3 * 70_000 + 3, "{ids} ids before");
            let c2p: Vec<PartitionId> = (0..ids).map(|c| c % 8).collect();
            let plan = c.clone().freeze(c2p.clone());
            assert_eq!(plan.cluster_map_bytes(), width * 70_000 + 3, "{ids} ids");
            for v in 0..70_000u32 {
                let id = plan.cluster_of(v);
                assert_eq!(id, c.raw_cluster_of(v), "{ids} ids, vertex {v}");
                if id != NO_CLUSTER {
                    assert_eq!(plan.volume(id), c.volume(id));
                    assert_eq!(plan.partition_of(id), c2p[id as usize]);
                }
            }
        }
    }

    #[test]
    fn an_unclustered_vertex_reads_no_cluster_when_frozen() {
        let c = Clustering::from_parts(vec![NO_CLUSTER, 0, NO_CLUSTER], vec![4]);
        let plan = c.freeze(vec![1]);
        let ids: Vec<ClusterId> = (0..3).map(|v| plan.cluster_of(v)).collect();
        assert_eq!(ids, [NO_CLUSTER, 0, NO_CLUSTER]);
    }

    /// A merge's concatenated id space passes |V| until it is compacted;
    /// then the map narrows to the width of |V|.
    #[test]
    fn compaction_narrows_a_table_wider_than_v_needs() {
        let mut volumes = vec![0u64; 300];
        volumes[7] = 5;
        volumes[299] = 1;
        let mut c = Clustering::from_parts(vec![299, 7, NO_CLUSTER], volumes);
        assert_eq!(c.v2c.width(), 2);
        assert_eq!(c.compact_ids(), 298);
        assert_eq!(c.v2c.width(), 1);
        let ids: Vec<ClusterId> = (0..3).map(|v| c.raw_cluster_of(v)).collect();
        assert_eq!(ids, [1, 0, NO_CLUSTER]);
    }
}
