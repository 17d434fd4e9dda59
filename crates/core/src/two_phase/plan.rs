//! Phase 2's flat cluster state: what the per-edge kernel reads of phase 1
//! and the mapping step, in one owned table that every shard shares.
//!
//! Phase 1 needs a mutable `u32` per vertex for its cluster ids; phase 2
//! only reads them, and a finished clustering's id space is small (a web
//! graph keeps ~1 000 clusters). At the placement barrier the driver builds
//! a [`ClusterPlan`] — the vertex→cluster ids packed to the bytes the id
//! space needs ([`PackedU32s`]), plus each cluster's volume and partition —
//! and drops the phase-1 [`Clustering`] before it allocates the replica
//! rows. The plan answers exactly what the clustering and its placement
//! answer, so every decision is the one they would give.

use tps_clustering::model::{Clustering, NO_CLUSTER};
use tps_graph::packed::PackedU32s;
use tps_graph::types::{ClusterId, PartitionId, VertexId};

use crate::two_phase::mapping::ClusterPlacement;

/// A finished clustering and its placement, as phase 2 reads them.
#[derive(Clone, Debug)]
pub struct ClusterPlan {
    /// Vertex → cluster id, in the bytes the id space needs; the width's
    /// all-ones value stands for [`NO_CLUSTER`] (no valid id reaches it).
    v2c: PackedU32s,
    /// Cluster id → volume.
    volumes: Vec<u64>,
    /// Cluster id → partition.
    c2p: Vec<PartitionId>,
}

impl ClusterPlan {
    /// The plan of `clustering` placed by `placement`.
    pub fn new(clustering: &Clustering, placement: &ClusterPlacement) -> ClusterPlan {
        // Ids run below `num_cluster_ids`, so that count — all ones at
        // most — is free to mark an unclustered vertex.
        let width = PackedU32s::width_for(clustering.num_cluster_ids());
        let unclustered = PackedU32s::all_ones(width);
        let nv = clustering.num_vertices() as usize;
        let ids = (0..nv).map(|v| match clustering.raw_cluster_of(v as VertexId) {
            NO_CLUSTER => unclustered,
            c => c,
        });
        ClusterPlan {
            v2c: PackedU32s::with_width(ids, nv, width),
            volumes: clustering.volumes().to_vec(),
            c2p: placement.c2p().to_vec(),
        }
    }

    /// Raw cluster id of `v` (`NO_CLUSTER` when unassigned), as
    /// [`Clustering::raw_cluster_of`] answers it.
    #[inline]
    pub fn cluster_of(&self, v: VertexId) -> ClusterId {
        let c = self.v2c.get(v as usize);
        if c == self.v2c.max_value() {
            NO_CLUSTER
        } else {
            c
        }
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

    /// Heap bytes of the packed vertex→cluster map.
    pub fn cluster_map_bytes(&self) -> usize {
        self.v2c.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clustering of `nv` vertices over `ids` cluster ids: vertex `v` in
    /// cluster `v % ids`, every seventh vertex unclustered.
    fn clustering(nv: u32, ids: u32) -> Clustering {
        let v2c = (0..nv)
            .map(|v| if v % 7 == 3 { NO_CLUSTER } else { v % ids })
            .collect();
        Clustering::from_parts(v2c, (0..ids).map(|c| 2 + u64::from(c)).collect())
    }

    #[test]
    fn answers_like_the_clustering_at_every_width_boundary() {
        // 255 ids fit one byte beside the sentinel, 256 need two; 65 535
        // and 65 536 straddle the next boundary.
        for (ids, width) in [(1u32, 1usize), (255, 1), (256, 2), (65_535, 2), (65_536, 3)] {
            let c = clustering(70_000, ids);
            let placement = ClusterPlacement::sorted_list_schedule(&c, 8);
            let plan = ClusterPlan::new(&c, &placement);
            assert_eq!(plan.cluster_map_bytes(), width * 70_000 + 3, "{ids} ids");
            for v in 0..70_000u32 {
                let id = plan.cluster_of(v);
                assert_eq!(id, c.raw_cluster_of(v), "{ids} ids, vertex {v}");
                if id != NO_CLUSTER {
                    assert_eq!(plan.volume(id), c.volume(id));
                    assert_eq!(plan.partition_of(id), placement.partition_of(id));
                }
            }
        }
    }

    #[test]
    fn an_unclustered_vertex_reads_no_cluster() {
        let c = Clustering::from_parts(vec![NO_CLUSTER, 0, NO_CLUSTER], vec![4]);
        let plan = ClusterPlan::new(&c, &ClusterPlacement::sorted_list_schedule(&c, 2));
        let ids: Vec<ClusterId> = (0..3).map(|v| plan.cluster_of(v)).collect();
        assert_eq!(ids, [NO_CLUSTER, 0, NO_CLUSTER]);
    }
}
