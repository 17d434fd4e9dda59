//! The [`ClusterTable`] abstraction: what Algorithm 1 needs from its state.
//!
//! The streaming clustering pass touches its `O(|V|)` state through four
//! operations — look up a vertex's cluster, read a cluster's volume, create
//! a singleton cluster, migrate a vertex between clusters — and offers the
//! table one point between edges to renumber its ids. Everything else
//! about the state (flat arrays vs. disk-backed pages) is a storage policy,
//! so the pass is generic over this trait: [`crate::model::Clustering`] is
//! the in-memory implementation, [`crate::paged::PagedClustering`] the
//! budget-bounded external one. All accessors take `&mut self` because a
//! paged implementation may fault pages (and update its LRU) on reads.

use tps_graph::types::{ClusterId, VertexId};

use crate::model::Clustering;
#[cfg(test)]
use crate::model::NO_CLUSTER;

/// Mutable vertex→cluster + cluster-volume state, as seen by the streaming
/// clustering pass (Algorithm 1).
///
/// Implementations must uphold the volume invariant the pass relies on:
/// after [`create_cluster`](ClusterTable::create_cluster) /
/// [`migrate`](ClusterTable::migrate), a cluster's volume is exactly the sum
/// of its members' degrees (as supplied by the caller).
pub trait ClusterTable {
    /// Raw cluster id of `v`, [`NO_CLUSTER`](crate::NO_CLUSTER) when unassigned.
    fn cluster_of(&mut self, v: VertexId) -> ClusterId;

    /// Volume of cluster `c`.
    fn volume(&mut self, c: ClusterId) -> u64;

    /// Assign `v` to a brand-new cluster with initial volume `vol`;
    /// returns the new cluster's id.
    fn create_cluster(&mut self, v: VertexId, vol: u64) -> ClusterId;

    /// Move `v` (of degree `d`) from its current cluster to `to`.
    fn migrate(&mut self, v: VertexId, d: u64, to: ClusterId);

    /// Called by the pass before every edge, when no cluster id is held
    /// across the call: the one point at which a table may renumber its
    /// ids (order-preserving, see [`Clustering::compact_ids`]). The paged
    /// table compacts here when that frees frames; the default does
    /// nothing and compiles away.
    #[inline]
    fn between_edges(&mut self) {}
}

impl ClusterTable for Clustering {
    #[inline]
    fn cluster_of(&mut self, v: VertexId) -> ClusterId {
        self.raw_cluster_of(v)
    }

    #[inline]
    fn volume(&mut self, c: ClusterId) -> u64 {
        Clustering::volume(self, c)
    }

    #[inline]
    fn create_cluster(&mut self, v: VertexId, vol: u64) -> ClusterId {
        Clustering::create_cluster(self, v, vol)
    }

    #[inline]
    fn migrate(&mut self, v: VertexId, d: u64, to: ClusterId) {
        Clustering::migrate(self, v, d, to)
    }
}

impl<T: ClusterTable + ?Sized> ClusterTable for &mut T {
    #[inline]
    fn cluster_of(&mut self, v: VertexId) -> ClusterId {
        (**self).cluster_of(v)
    }

    #[inline]
    fn volume(&mut self, c: ClusterId) -> u64 {
        (**self).volume(c)
    }

    #[inline]
    fn create_cluster(&mut self, v: VertexId, vol: u64) -> ClusterId {
        (**self).create_cluster(v, vol)
    }

    #[inline]
    fn migrate(&mut self, v: VertexId, d: u64, to: ClusterId) {
        (**self).migrate(v, d, to)
    }

    #[inline]
    fn between_edges(&mut self) {
        (**self).between_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustering_implements_table() {
        let mut c = Clustering::empty(3);
        let table: &mut dyn ClusterTable = &mut c;
        assert_eq!(table.cluster_of(0), NO_CLUSTER);
        let id = table.create_cluster(0, 2);
        assert_eq!(table.cluster_of(0), id);
        assert_eq!(table.volume(id), 2);
        let other = table.create_cluster(1, 3);
        table.migrate(0, 2, other);
        assert_eq!(table.volume(other), 5);
        assert_eq!(table.volume(id), 0);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut c = Clustering::empty(2);
        let mut r = &mut c;
        let id = ClusterTable::create_cluster(&mut r, 1, 4);
        assert_eq!(ClusterTable::cluster_of(&mut r, 1), id);
        assert_eq!(ClusterTable::volume(&mut r, id), 4);
    }
}
