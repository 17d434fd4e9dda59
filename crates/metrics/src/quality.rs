//! Partition quality metrics (paper §II-A).
//!
//! The optimisation objective of edge partitioning is the **replication
//! factor** `RF(p_1..p_k) = (1/|V|) · Σ_i |V(p_i)|`, under the balancing
//! constraint `|p_i| ≤ α · |E| / k`. Both are a function of a finished
//! run's replication matrix and per-partition loads —
//! [`PartitionMetrics::from_state`] — and a run holds that state once:
//!
//! * The 2PS-L engines (serial, paged, `--threads N`) already keep the
//!   matrix and the loads to take their decisions, and report the metrics
//!   from what they finished with (`RunReport::quality` in `tps-core`).
//!   The distributed coordinator does too, though its replicas live in
//!   worker processes: it ORs their final rows one bounded chunk at a time
//!   and sums each chunk's [`RowLayout::census`](crate::bitmatrix::RowLayout::census).
//! * [`QualityTracker`] rebuilds the same state from the emitted
//!   `(edge, partition)` assignments, independently of whatever the
//!   partitioner keeps. It is the **reference** the engine-reported numbers
//!   are tested against (and `debug_assert`ed against in every debug-build
//!   job), and the only source of metrics for partitioners that hold no
//!   replica state of their own — the stateless baselines. It
//!   costs a second `O(|V|·k)`-bit matrix and two random bit updates per
//!   edge, which is why the engines do not run behind one.
//!
//! `|V|` is taken to be the number of vertices actually covered by at least
//! one edge. Our generators compact ids so every vertex is covered; on
//! arbitrary inputs with isolated vertices this matches the convention of the
//! paper's datasets (which have none).

use tps_graph::types::{Edge, PartitionId};

use crate::bitmatrix::{ReplicaCensus, ReplicationMatrix};

/// Final quality metrics of one partitioning run.
///
/// Two values compare equal only if every field does; the two float fields
/// are computed from the integer ones by [`PartitionMetrics::from_state`],
/// so equal states give bit-equal metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionMetrics {
    /// Number of partitions.
    pub k: u32,
    /// Edges assigned.
    pub num_edges: u64,
    /// Vertices covered by at least one partition.
    pub covered_vertices: u64,
    /// Σ_i |V(p_i)|.
    pub total_replicas: u64,
    /// Replication factor (1.0 is the minimum possible on covered vertices).
    pub replication_factor: f64,
    /// Edge count of the largest partition.
    pub max_load: u64,
    /// Edge count of the smallest partition.
    pub min_load: u64,
    /// Observed balance `α = max_load / (|E|/k)`.
    pub alpha: f64,
    /// Per-partition edge counts.
    pub loads: Vec<u64>,
}

impl PartitionMetrics {
    /// The metrics of a finished run: `k` partitions, the census of its
    /// replication matrix and its per-partition edge counts. The one place
    /// RF and α are computed, whoever held the state.
    pub fn from_state(k: u32, census: ReplicaCensus, loads: &[u64]) -> Self {
        debug_assert_eq!(loads.len(), k as usize);
        let num_edges: u64 = loads.iter().sum();
        let replication_factor = if census.covered_vertices == 0 {
            0.0
        } else {
            census.total_replicas as f64 / census.covered_vertices as f64
        };
        let max_load = loads.iter().copied().max().unwrap_or(0);
        let min_load = loads.iter().copied().min().unwrap_or(0);
        let expected = num_edges as f64 / k as f64;
        let alpha = if expected > 0.0 {
            max_load as f64 / expected
        } else {
            0.0
        };
        PartitionMetrics {
            k,
            num_edges,
            covered_vertices: census.covered_vertices,
            total_replicas: census.total_replicas,
            replication_factor,
            max_load,
            min_load,
            alpha,
            loads: loads.to_vec(),
        }
    }

    /// Render the per-partition loads as a short summary string.
    pub fn load_summary(&self) -> String {
        format!(
            "max {} / min {} / α = {:.3}",
            self.max_load, self.min_load, self.alpha
        )
    }
}

/// Accumulates metrics edge by edge.
///
/// Doubles as the reference implementation of the `v2p` bit matrix used by
/// the stateful partitioners (they typically share the same matrix).
#[derive(Clone, Debug)]
pub struct QualityTracker {
    matrix: ReplicationMatrix,
    loads: Vec<u64>,
    num_edges: u64,
}

impl QualityTracker {
    /// Create a tracker for `num_vertices` vertices and `k` partitions.
    pub fn new(num_vertices: u64, k: u32) -> Self {
        Self::try_new(num_vertices, k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new), or an error naming the table and `k` when its
    /// matrix or its `k` loads cannot be allocated.
    pub fn try_new(num_vertices: u64, k: u32) -> Result<Self, String> {
        let matrix = ReplicationMatrix::try_new(num_vertices, k)?;
        let loads = crate::bitmatrix::try_zeroed_words(k as usize)
            .ok_or_else(|| format!("k = {k}: the quality tracker's loads cannot be allocated"))?;
        Ok(QualityTracker {
            matrix,
            loads,
            num_edges: 0,
        })
    }

    /// Record the assignment of `edge` to partition `p`.
    #[inline]
    pub fn record(&mut self, edge: Edge, p: PartitionId) {
        self.matrix.set(edge.src, p);
        self.matrix.set(edge.dst, p);
        self.loads[p as usize] += 1;
        self.num_edges += 1;
    }

    /// Edges recorded so far.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Current load of partition `p`.
    #[inline]
    pub fn load(&self, p: PartitionId) -> u64 {
        self.loads[p as usize]
    }

    /// Borrow the underlying replication matrix.
    pub fn matrix(&self) -> &ReplicationMatrix {
        &self.matrix
    }

    /// Finalise into [`PartitionMetrics`].
    pub fn finish(&self) -> PartitionMetrics {
        debug_assert_eq!(self.num_edges, self.loads.iter().sum::<u64>());
        PartitionMetrics::from_state(self.matrix.k(), self.matrix.census(), &self.loads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_partitioning_has_rf_one() {
        // Two disjoint edges on two partitions: no vertex is replicated.
        let mut t = QualityTracker::new(4, 2);
        t.record(Edge::new(0, 1), 0);
        t.record(Edge::new(2, 3), 1);
        let m = t.finish();
        assert_eq!(m.covered_vertices, 4);
        assert_eq!(m.total_replicas, 4);
        assert!((m.replication_factor - 1.0).abs() < 1e-12);
        assert_eq!(m.max_load, 1);
        assert_eq!(m.min_load, 1);
        assert!((m.alpha - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replicated_vertex_raises_rf() {
        // A path 0-1-2 split across two partitions replicates vertex 1.
        let mut t = QualityTracker::new(3, 2);
        t.record(Edge::new(0, 1), 0);
        t.record(Edge::new(1, 2), 1);
        let m = t.finish();
        assert_eq!(m.total_replicas, 4); // {0,1} on p0, {1,2} on p1
        assert!((m.replication_factor - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_reflects_imbalance() {
        let mut t = QualityTracker::new(6, 2);
        t.record(Edge::new(0, 1), 0);
        t.record(Edge::new(2, 3), 0);
        t.record(Edge::new(4, 5), 0);
        t.record(Edge::new(0, 2), 1);
        let m = t.finish();
        // 4 edges, k=2 → expected 2; max load 3 → α = 1.5.
        assert!((m.alpha - 1.5).abs() < 1e-12);
        assert_eq!(m.min_load, 1);
    }

    #[test]
    fn isolated_vertices_excluded_from_denominator() {
        let mut t = QualityTracker::new(10, 2);
        t.record(Edge::new(0, 1), 0);
        let m = t.finish();
        assert_eq!(m.covered_vertices, 2);
        assert!((m.replication_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_loop_covers_one_vertex() {
        let mut t = QualityTracker::new(2, 2);
        t.record(Edge::new(0, 0), 1);
        let m = t.finish();
        assert_eq!(m.covered_vertices, 1);
        assert_eq!(m.total_replicas, 1);
    }

    #[test]
    fn empty_tracker_yields_zeroes() {
        let t = QualityTracker::new(5, 3);
        let m = t.finish();
        assert_eq!(m.num_edges, 0);
        assert_eq!(m.replication_factor, 0.0);
        assert_eq!(m.alpha, 0.0);
    }

    #[test]
    fn rf_upper_bound_is_k() {
        // Star with centre 0 replicated on both partitions.
        let mut t = QualityTracker::new(5, 2);
        t.record(Edge::new(0, 1), 0);
        t.record(Edge::new(0, 2), 1);
        t.record(Edge::new(0, 3), 0);
        t.record(Edge::new(0, 4), 1);
        let m = t.finish();
        assert!(m.replication_factor <= m.k as f64);
        assert!(m.replication_factor > 1.0);
    }
}
