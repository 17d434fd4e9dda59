//! Step 1 of phase 2: mapping clusters to partitions (paper §III-B).
//!
//! The paper models this as Makespan Scheduling on Identical Machines
//! (MSP-IM): partitions are machines, clusters are jobs, cluster volumes are
//! job run-times, and the goal is to minimise the cumulative volume of the
//! largest partition. MSP-IM is NP-hard; Graham's *sorted list scheduling*
//! (longest processing time first) is a 4/3-approximation: sort clusters by
//! decreasing volume, assign each to the currently least-loaded partition.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;

use tps_clustering::model::Clustering;
use tps_clustering::paged::PagedClustering;
use tps_graph::types::{ClusterId, PartitionId};

use crate::balance::try_counters;

/// What [`try_counters`] names the volume sums.
const PARTITION_VOLUMES: &str = "the mapping's partition volumes";

/// The cluster→partition map plus the per-partition volume sums.
#[derive(Clone, Debug)]
pub struct ClusterPlacement {
    /// Cluster id → partition id. Clusters with zero volume are never
    /// scheduled and read as partition 0 (irrelevant but valid).
    c2p: Vec<PartitionId>,
    /// Summed cluster volume per partition (`vol_p` in Algorithm 2).
    partition_volumes: Vec<u64>,
}

impl ClusterPlacement {
    /// Graham sorted-list scheduling of `clustering`'s clusters onto `k`
    /// partitions.
    ///
    /// # Panics
    /// Panics where [`try_schedule`](ClusterPlacement::try_schedule) errs.
    pub fn sorted_list_schedule(clustering: &Clustering, k: u32) -> Self {
        Self::try_schedule(clustering, k, true).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Graham's scheduler, or with `sorted` false first-fit placement in
    /// cluster-id order — the ablation baseline showing what Graham's
    /// sorting buys — on [`schedule_live_clusters`]: only clusters with volume are sorted and
    /// heap-scheduled (multi-pass clustering leaves hundreds of dead ids
    /// per live one); a dead id keeps partition 0, which nothing reads —
    /// see that function's invariance argument. `InvalidInput` naming `k`
    /// when the `k` volume sums cannot be allocated.
    pub fn try_schedule(clustering: &Clustering, k: u32, sorted: bool) -> io::Result<Self> {
        let volumes = clustering.volumes();
        let mut live: Vec<(ClusterId, u64)> = volumes
            .iter()
            .enumerate()
            .filter(|&(_, &vol)| vol > 0)
            .map(|(c, &vol)| (c as ClusterId, vol))
            .collect();
        let mut c2p = vec![0 as PartitionId; volumes.len()];
        let mut partition_volumes = try_counters(k, PARTITION_VOLUMES)?;
        schedule_live_clusters(&mut live, k, sorted, |c, p| {
            c2p[c as usize] = p;
            partition_volumes[p as usize] += volumes[c as usize];
        });
        Ok(ClusterPlacement {
            c2p,
            partition_volumes,
        })
    }

    /// Reconstruct a placement from a shipped cluster→partition map (the
    /// distributed runtime computes the placement once on the coordinator
    /// and broadcasts `c2p`; workers rebuild the volume sums from the merged
    /// clustering so makespan reporting stays exact).
    ///
    /// `InvalidInput` naming `k` when the `k` volume sums cannot be
    /// allocated.
    ///
    /// # Panics
    /// Panics if a partition id in `c2p` is `>= k` or `c2p` is shorter than
    /// the clustering's id space.
    pub fn from_c2p(c2p: Vec<PartitionId>, clustering: &Clustering, k: u32) -> io::Result<Self> {
        assert!(k > 0, "k must be positive");
        assert!(
            c2p.len() >= clustering.num_cluster_ids() as usize,
            "c2p covers {} clusters, clustering has {}",
            c2p.len(),
            clustering.num_cluster_ids()
        );
        let mut partition_volumes = try_counters(k, PARTITION_VOLUMES)?;
        for (c, &p) in c2p.iter().enumerate() {
            assert!(p < k, "partition id {p} out of range (k = {k})");
            if let Some(&vol) = clustering.volumes().get(c) {
                partition_volumes[p as usize] += vol;
            }
        }
        Ok(ClusterPlacement {
            c2p,
            partition_volumes,
        })
    }

    /// Partition of cluster `c`.
    #[inline]
    pub fn partition_of(&self, c: ClusterId) -> PartitionId {
        self.c2p[c as usize]
    }

    /// The raw cluster→partition map (what the coordinator broadcasts).
    pub fn c2p(&self) -> &[PartitionId] {
        &self.c2p
    }

    /// The cluster→partition map, the volume sums dropped: what
    /// [`Clustering::freeze`] takes.
    pub fn into_c2p(self) -> Vec<PartitionId> {
        self.c2p
    }

    /// Number of clusters this placement covers (clusters created after the
    /// placement — e.g. by incremental insertion — are not in it).
    #[inline]
    pub fn num_clusters(&self) -> u32 {
        self.c2p.len() as u32
    }

    /// Summed cluster volumes per partition.
    pub fn partition_volumes(&self) -> &[u64] {
        &self.partition_volumes
    }

    /// Makespan: the largest per-partition volume.
    pub fn makespan(&self) -> u64 {
        self.partition_volumes.iter().copied().max().unwrap_or(0)
    }
}

/// Schedule *live* (volume > 0) clusters onto `k` partitions — the one
/// scheduler behind every mapping step. Each placement is written through
/// `place` as it is decided: into a flat `c2p` array
/// ([`ClusterPlacement::try_schedule`]) or straight into the paged one
/// (the out-of-core run, which never materialises the full array).
///
/// `live` must list the live clusters in ascending id order (a volume
/// scan's natural order); `sorted` selects Graham LPT vs. first-fit id
/// order.
///
/// Bit-identity with scheduling every cluster id: zero-volume clusters
/// cannot change any live cluster's placement. Under LPT they sort after
/// every live cluster, so by the time one is placed all live placements
/// are already fixed; under first-fit a zero-volume cluster pops the
/// least-loaded partition and pushes the same load back, leaving the
/// heap's (load, partition) multiset — the only state later pops observe —
/// unchanged. Since only live clusters are ever queried by phase 2 (a
/// stream vertex has degree ≥ 1, so its cluster has volume ≥ 1), skipping
/// the zero-volume ids is output-invariant.
pub fn schedule_live_clusters(
    live: &mut [(ClusterId, u64)],
    k: u32,
    sorted: bool,
    mut place: impl FnMut(ClusterId, PartitionId),
) {
    assert!(k > 0, "k must be positive");
    debug_assert!(live.windows(2).all(|w| w[0].0 < w[1].0), "ids must ascend");
    if sorted {
        live.sort_by_key(|&(c, vol)| (Reverse(vol), c));
    }
    let mut heap: BinaryHeap<Reverse<(u64, PartitionId)>> =
        (0..k).map(|p| Reverse((0u64, p))).collect();
    for &(c, vol) in live.iter() {
        let Reverse((load, p)) = heap.pop().expect("heap holds k entries");
        place(c, p);
        heap.push(Reverse((load + vol, p)));
    }
}

/// The mapping step of a paged run: schedule the table's clusters — all
/// live, its ids are compact after phase 1 — straight into its paged `c2p`
/// array. The list is the one transient term that scales with the
/// clustering, not the budget: O(#live clusters). Returns the live cluster
/// count and the largest volume.
pub(crate) fn schedule_paged(
    table: &mut PagedClustering,
    k: u32,
    sorted: bool,
) -> io::Result<(u64, u64)> {
    let mut live: Vec<(ClusterId, u64)> = Vec::new();
    table.for_each_volume(|c, vol| live.push((c, vol)));
    table.check_io()?;
    let max_volume = live.iter().map(|&(_, vol)| vol).max().unwrap_or(0);
    let clusters = live.len() as u64;
    schedule_live_clusters(&mut live, k, sorted, |c, p| table.set_partition_of(c, p));
    table.check_io()?;
    Ok((clusters, max_volume))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_clustering::model::Clustering;

    fn clustering_with_volumes(volumes: Vec<u64>) -> Clustering {
        // Build a v2c where vertex i belongs to cluster i (degrees unused here).
        let v2c: Vec<u32> = (0..volumes.len() as u32).collect();
        Clustering::from_parts(v2c, volumes)
    }

    #[test]
    fn graham_balances_classic_example() {
        // Volumes 7,6,5,4,3 on 2 machines: LPT gives {7,4,3}=14 vs {6,5}=11.
        let c = clustering_with_volumes(vec![7, 6, 5, 4, 3]);
        let p = ClusterPlacement::sorted_list_schedule(&c, 2);
        assert_eq!(p.makespan(), 14);
        let total: u64 = p.partition_volumes().iter().sum();
        assert_eq!(total, 25);
    }

    #[test]
    fn graham_beats_or_equals_unsorted() {
        let vols = vec![1, 1, 1, 1, 9, 8, 7, 2, 2, 3];
        let c = clustering_with_volumes(vols);
        let sorted = ClusterPlacement::sorted_list_schedule(&c, 3);
        let unsorted = ClusterPlacement::try_schedule(&c, 3, false).unwrap();
        assert!(sorted.makespan() <= unsorted.makespan());
    }

    #[test]
    fn within_four_thirds_of_lower_bound() {
        // LPT guarantee: makespan ≤ 4/3 · OPT; OPT ≥ max(total/k, max job).
        let vols: Vec<u64> = (1..=40).map(|i| (i * 13) % 23 + 1).collect();
        let total: u64 = vols.iter().sum();
        let max_job = *vols.iter().max().unwrap();
        for k in [2u32, 3, 5, 8] {
            let c = clustering_with_volumes(vols.clone());
            let p = ClusterPlacement::sorted_list_schedule(&c, k);
            let lower = (total as f64 / k as f64).max(max_job as f64);
            assert!(
                p.makespan() as f64 <= lower * 4.0 / 3.0 + 1.0,
                "k={k}: makespan {} vs bound {}",
                p.makespan(),
                lower * 4.0 / 3.0
            );
        }
    }

    #[test]
    fn single_partition_takes_everything() {
        let c = clustering_with_volumes(vec![3, 1, 4]);
        let p = ClusterPlacement::sorted_list_schedule(&c, 1);
        assert_eq!(p.makespan(), 8);
        for cl in 0..3u32 {
            assert_eq!(p.partition_of(cl), 0);
        }
    }

    #[test]
    fn more_partitions_than_clusters() {
        let c = clustering_with_volumes(vec![5, 2]);
        let p = ClusterPlacement::sorted_list_schedule(&c, 8);
        assert_eq!(p.makespan(), 5);
        assert_ne!(p.partition_of(0), p.partition_of(1));
    }

    #[test]
    fn deterministic() {
        let vols: Vec<u64> = (0..100).map(|i| (i * 7) % 31 + 1).collect();
        let c = clustering_with_volumes(vols);
        let a = ClusterPlacement::sorted_list_schedule(&c, 4);
        let b = ClusterPlacement::sorted_list_schedule(&c, 4);
        assert_eq!(a.c2p, b.c2p);
    }

    #[test]
    fn from_c2p_rebuilds_volumes() {
        let c = clustering_with_volumes(vec![5, 2, 7]);
        let original = ClusterPlacement::sorted_list_schedule(&c, 2);
        let rebuilt = ClusterPlacement::from_c2p(original.c2p().to_vec(), &c, 2).unwrap();
        assert_eq!(rebuilt.c2p(), original.c2p());
        assert_eq!(rebuilt.partition_volumes(), original.partition_volumes());
        assert_eq!(rebuilt.makespan(), original.makespan());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_c2p_rejects_bad_partition() {
        let c = clustering_with_volumes(vec![1]);
        let _ = ClusterPlacement::from_c2p(vec![5], &c, 2);
    }

    #[test]
    fn empty_clustering() {
        let c = clustering_with_volumes(vec![]);
        let p = ClusterPlacement::sorted_list_schedule(&c, 4);
        assert_eq!(p.makespan(), 0);
    }

    /// The scheduler this module had before it skipped dead ids: every
    /// cluster id, zero-volume ones included, goes through the sort and the
    /// heap. Kept as the reference the live-only scheduler is pinned to.
    fn schedule_every_id(volumes: &[u64], k: u32, sorted: bool) -> (Vec<PartitionId>, Vec<u64>) {
        let mut order: Vec<ClusterId> = (0..volumes.len() as u32).collect();
        if sorted {
            order.sort_by_key(|&c| (Reverse(volumes[c as usize]), c));
        }
        let mut heap: BinaryHeap<Reverse<(u64, PartitionId)>> =
            (0..k).map(|p| Reverse((0u64, p))).collect();
        let mut c2p = vec![0 as PartitionId; volumes.len()];
        let mut partition_volumes = vec![0u64; k as usize];
        for c in order {
            let Reverse((load, p)) = heap.pop().expect("heap holds k entries");
            c2p[c as usize] = p;
            partition_volumes[p as usize] = load + volumes[c as usize];
            heap.push(Reverse((partition_volumes[p as usize], p)));
        }
        (c2p, partition_volumes)
    }

    #[test]
    fn live_schedule_matches_full_schedulers() {
        // Zero-volume holes, as multi-pass clustering leaves them behind.
        let vols: Vec<u64> = (0..200)
            .map(|i: u64| {
                if i.is_multiple_of(3) {
                    0
                } else {
                    (i * 17) % 41 + 1
                }
            })
            .collect();
        let c = clustering_with_volumes(vols.clone());
        for k in [2u32, 3, 7] {
            for sorted in [true, false] {
                let (full_c2p, full_volumes) = schedule_every_id(&vols, k, sorted);
                let placement = if sorted {
                    ClusterPlacement::sorted_list_schedule(&c, k)
                } else {
                    ClusterPlacement::try_schedule(&c, k, false).unwrap()
                };
                assert_eq!(placement.partition_volumes(), full_volumes);
                for (cl, &vol) in vols.iter().enumerate() {
                    if vol > 0 {
                        assert_eq!(
                            placement.partition_of(cl as u32),
                            full_c2p[cl],
                            "k={k} sorted={sorted} c={cl}"
                        );
                    } else {
                        assert_eq!(placement.partition_of(cl as u32), 0);
                    }
                }
            }
        }
    }
}
