//! Merging per-thread clusterings — phase 1 of chunk-parallel 2PS-L.
//!
//! Chunk-parallel clustering runs one independent streaming clustering per
//! worker thread over that worker's edge range. A vertex whose edges span
//! two ranges ends up assigned in *both* workers' maps; the merge resolves
//! every such conflict **by volume** (union-by-volume): the vertex keeps the
//! assignment whose cluster currently has the larger volume, and its degree
//! is subtracted from the losing cluster. Larger volume means more of the
//! cluster's edges are still to come in phase 2 — the same signal the 2PS-L
//! scoring function uses — so the winner is the cluster more likely to keep
//! the vertex's edges internal.
//!
//! Properties of the merged result:
//!
//! * **volume invariant** — every cluster's volume equals the sum of its
//!   members' exact degrees (each vertex is counted in exactly one cluster);
//! * **cap invariant** — clusters only *lose* vertices during the merge, so
//!   no multi-member cluster exceeds the per-part volume cap if none did
//!   locally;
//! * **determinism** — parts are merged in index order and ties prefer the
//!   earlier part, so the result depends only on the inputs, not on thread
//!   scheduling;
//! * **identity** — merging a single part returns an equivalent clustering
//!   (same assignments, same volumes): a one-worker dist run is serial.

use tps_graph::degree::DegreeTable;
use tps_graph::packed::PackedU32s;
use tps_graph::types::{ClusterId, VertexId};

use crate::model::{id_width, pack_id, unpack_id, Clustering, NO_CLUSTER};

/// Merge per-thread clusterings into one, resolving conflicting vertex
/// assignments by larger current cluster volume (ties prefer the earlier
/// part). All parts must cover the same vertex-id space.
///
/// Cluster ids of part `t` are first offset by the total id count of parts
/// `0..t` (the merged id space is the concatenation of the parts' id
/// spaces); after the merge the id space is **compacted** to the clusters
/// that survived with volume > 0, renumbered in ascending old-id order.
/// The concatenated space is `T`× the serial one, and its `volumes` array
/// (plus every structure indexed by it: the placement's `c2p`, the
/// distributed `Plan` frame) would otherwise stay `O(T·C)` through all of
/// phase 2. Order-preserving renumbering is decision-invariant: the
/// pre-partition test compares cluster ids for equality only, volumes
/// travel with their cluster, and both mapping strategies break ties on
/// ascending id while zero-volume clusters contribute no load — so the
/// placement of surviving clusters is unchanged. A single part is returned
/// as-is (identity): a one-worker dist run stays bit-identical to serial.
///
/// # Panics
/// Panics if the parts disagree on `num_vertices`, or `parts` is empty.
pub fn merge_clusterings(parts: &[Clustering], degrees: &DegreeTable) -> Clustering {
    assert!(!parts.is_empty(), "need at least one clustering to merge");
    let num_vertices = parts[0].num_vertices();
    for p in parts {
        assert_eq!(
            p.num_vertices(),
            num_vertices,
            "all parts must cover the same vertex set"
        );
    }

    // Offsets mapping each part's local cluster ids into the merged space.
    let mut offsets = Vec::with_capacity(parts.len());
    let mut total_ids: u64 = 0;
    for p in parts {
        offsets.push(total_ids as ClusterId);
        total_ids += p.num_cluster_ids() as u64;
    }
    assert!(
        total_ids <= NO_CLUSTER as u64,
        "merged cluster-id space overflows u32"
    );

    // Merged volumes start as the concatenation of the parts' volumes.
    let mut volumes = Vec::with_capacity(total_ids as usize);
    for p in parts {
        volumes.extend_from_slice(p.volumes());
    }

    // Resolve per-vertex assignments part by part, straight into the packed
    // table at the width of the concatenated id space.
    let mut v2c = PackedU32s::zeroed(num_vertices as usize, id_width(num_vertices, volumes.len()));
    for (t, part) in parts.iter().enumerate() {
        let off = offsets[t];
        for v in 0..num_vertices as VertexId {
            let local = part.raw_cluster_of(v);
            if local == NO_CLUSTER {
                continue;
            }
            let cand = off + local;
            let cur = unpack_id(v2c.get(v as usize));
            if cur == NO_CLUSTER {
                v2c.set(v as usize, pack_id(cand));
                continue;
            }
            // Conflict: the vertex was clustered by an earlier part too.
            // Union-by-volume on the *current* (partially merged) volumes;
            // ties keep the earlier part's assignment.
            let d = degrees.degree(v) as u64;
            if volumes[cand as usize] > volumes[cur as usize] {
                volumes[cur as usize] -= d;
                v2c.set(v as usize, pack_id(cand));
            } else {
                volumes[cand as usize] -= d;
            }
        }
    }

    let mut merged = Clustering::from_table(v2c, volumes);
    if parts.len() > 1 {
        // Compact the concatenated id space to the surviving clusters (see
        // the function docs); a single part stays the identity so a
        // one-worker dist run matches serial bit for bit, cluster ids too.
        merged.compact_ids();
    }
    // Every id is below |V| again (see `Clustering`).
    debug_assert!(u64::from(merged.num_cluster_ids()) <= num_vertices.max(1));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_graph::degree::DegreeTable;
    use tps_graph::ranged::{split_even, RangedEdgeSource};
    use tps_graph::stream::InMemoryGraph;
    use tps_graph::types::Edge;

    use crate::streaming::clustering_pass;

    fn degrees_of(g: &InMemoryGraph) -> DegreeTable {
        DegreeTable::compute(&mut g.stream(), g.num_vertices()).unwrap()
    }

    /// Cluster each of `parts` edge ranges independently, then merge.
    fn cluster_in_parts(g: &InMemoryGraph, parts: usize, cap: u64) -> Clustering {
        let degrees = degrees_of(g);
        let locals: Vec<Clustering> = split_even(g.num_edges(), parts)
            .into_iter()
            .map(|(a, b)| {
                let mut s = g.open_range(a, b).unwrap();
                let mut c = Clustering::empty(g.num_vertices());
                clustering_pass(&mut s, &degrees, cap, &mut c).unwrap();
                c
            })
            .collect();
        merge_clusterings(&locals, &degrees)
    }

    fn test_graph() -> InMemoryGraph {
        // Two dense blobs plus a sprinkling of cross edges, sequenced so a
        // range split lands vertices in several workers.
        let mut edges = Vec::new();
        for i in 0..10u32 {
            for j in (i + 1)..10 {
                edges.push(Edge::new(i, j));
            }
        }
        for i in 10..20u32 {
            for j in (i + 1)..20 {
                edges.push(Edge::new(i, j));
            }
        }
        edges.push(Edge::new(3, 14));
        edges.push(Edge::new(7, 12));
        InMemoryGraph::from_edges(edges)
    }

    #[test]
    fn merged_volume_invariant_holds() {
        let g = test_graph();
        let degrees = degrees_of(&g);
        for parts in [1usize, 2, 3, 4, 8] {
            let merged = cluster_in_parts(&g, parts, 40);
            merged.check_volume_invariant(&degrees).unwrap();
        }
    }

    #[test]
    fn single_part_merge_is_identity() {
        let g = test_graph();
        let degrees = degrees_of(&g);
        let mut serial = Clustering::empty(g.num_vertices());
        clustering_pass(&mut g.stream(), &degrees, 40, &mut serial).unwrap();
        let merged = merge_clusterings(std::slice::from_ref(&serial), &degrees);
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(merged.raw_cluster_of(v), serial.raw_cluster_of(v));
        }
        assert_eq!(merged.volumes(), serial.volumes());
    }

    #[test]
    fn conflicting_vertex_joins_larger_volume_cluster() {
        // Part 0: vertex 0 in a cluster of volume 3; part 1: vertex 0 in a
        // cluster of volume 10. Vertex 0 (degree 2) must follow part 1.
        let degrees = DegreeTable::from_vec(vec![2, 1, 8]);
        let a = Clustering::from_parts(vec![0, 0, NO_CLUSTER], vec![3]);
        let b = Clustering::from_parts(vec![0, NO_CLUSTER, 0], vec![10]);
        let merged = merge_clusterings(&[a, b], &degrees);
        // Cluster ids: part 0's cluster is 0, part 1's is 1.
        assert_eq!(merged.raw_cluster_of(0), 1);
        assert_eq!(merged.raw_cluster_of(1), 0);
        assert_eq!(merged.raw_cluster_of(2), 1);
        assert_eq!(merged.volume(0), 3 - 2);
        assert_eq!(merged.volume(1), 10);
        merged.check_volume_invariant(&degrees).unwrap();
    }

    #[test]
    fn ties_prefer_the_earlier_part() {
        let degrees = DegreeTable::from_vec(vec![1, 1, 1]);
        let a = Clustering::from_parts(vec![0, 0, NO_CLUSTER], vec![2]);
        let b = Clustering::from_parts(vec![0, NO_CLUSTER, 0], vec![2]);
        let merged = merge_clusterings(&[a, b], &degrees);
        assert_eq!(merged.raw_cluster_of(0), 0, "tie must keep part 0");
        assert_eq!(merged.volume(0), 2);
        assert_eq!(merged.volume(1), 1);
    }

    #[test]
    fn merge_is_deterministic() {
        let g = test_graph();
        let a = cluster_in_parts(&g, 4, 40);
        let b = cluster_in_parts(&g, 4, 40);
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(a.raw_cluster_of(v), b.raw_cluster_of(v));
        }
    }

    #[test]
    fn merged_clusters_respect_local_caps() {
        let g = test_graph();
        let cap = 30u64;
        let merged = cluster_in_parts(&g, 3, cap);
        // Multi-member clusters can only have shrunk during the merge.
        let mut members = vec![0u32; merged.num_cluster_ids() as usize];
        for v in 0..g.num_vertices() as u32 {
            if let Some(c) = merged.cluster_of(v) {
                members[c as usize] += 1;
            }
        }
        for (c, &m) in members.iter().enumerate() {
            if m >= 2 {
                assert!(
                    merged.volume(c as u32) <= cap,
                    "cluster {c} volume {} > cap {cap}",
                    merged.volume(c as u32)
                );
            }
        }
    }

    #[test]
    fn merge_compacts_emptied_cluster_ids() {
        // Part 0's cluster empties entirely (its only member defects to
        // part 1's higher-volume cluster): the merged id space must skip
        // it, renumbering survivors in old-id order.
        let degrees = DegreeTable::from_vec(vec![3, 5, 4]);
        let a = Clustering::from_parts(vec![0, NO_CLUSTER, 1], vec![3, 4]);
        let b = Clustering::from_parts(vec![0, 0, NO_CLUSTER], vec![8]);
        let merged = merge_clusterings(&[a, b], &degrees);
        // Concatenated ids: part 0 → {0, 1}, part 1 → {2}. Vertex 0
        // (degree 3) defects from cluster 0 (vol 3) to cluster 2 (vol 8),
        // emptying cluster 0. Survivors {1, 2} renumber to {0, 1}.
        assert_eq!(merged.num_cluster_ids(), 2);
        assert_eq!(merged.raw_cluster_of(0), 1, "defector follows part 1");
        assert_eq!(merged.raw_cluster_of(1), 1);
        assert_eq!(merged.raw_cluster_of(2), 0, "old id 1 renumbers to 0");
        assert_eq!(merged.volumes(), &[4, 8]);
        merged.check_volume_invariant(&degrees).unwrap();
    }

    #[test]
    fn merged_id_space_stays_compact_on_real_splits() {
        let g = test_graph();
        for parts in [2usize, 3, 4, 8] {
            let merged = cluster_in_parts(&g, parts, 40);
            // Every id in the compacted space is live.
            for c in 0..merged.num_cluster_ids() {
                assert!(merged.volume(c) > 0, "{parts} parts: empty id {c} survived");
            }
        }
    }

    #[test]
    #[should_panic(expected = "same vertex set")]
    fn mismatched_vertex_counts_rejected() {
        let degrees = DegreeTable::from_vec(vec![1]);
        let a = Clustering::empty(1);
        let b = Clustering::empty(2);
        merge_clusterings(&[a, b], &degrees);
    }
}
