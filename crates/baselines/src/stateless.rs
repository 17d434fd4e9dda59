//! Stateless streaming partitioners: Random hashing, DBH and Grid.
//!
//! Stateless partitioning (paper §II-B) assigns each edge independently of
//! all previous assignments, via hashing:
//!
//! * [`RandomPartitioner`] — hash of the (canonicalised) edge. The
//!   no-information floor: replication ≈ `min(degree, k)` per vertex.
//! * [`DbhPartitioner`] — degree-based hashing (Xie et al., NeurIPS'14):
//!   hash the **lower-degree** endpoint, so high-degree vertices absorb the
//!   replication. One exact degree pass + one assignment pass; `O(|E|)`,
//!   `O(|V|)` state. The fastest meaningful baseline in the paper.
//! * [`GridPartitioner`] — constrained 2D hashing (GraphBuilder, Jain et
//!   al.): partitions form a `√k × √k` grid, the edge goes to cell
//!   `(h(u) mod r, h(v) mod r)`, bounding each vertex's replicas by `2√k`.
//!   `O(1)` state.

use std::io;

use tps_core::partitioner::{PartitionParams, Partitioner, RunReport};
use tps_core::sink::{batched_pass, AssignmentSink};
use tps_graph::degree::DegreeTable;
use tps_graph::hash::{mix64, seeded_hash_to_partition};
use tps_graph::stream::{discover_info, EdgeStream};

/// Uniform random (hash-based) edge assignment.
#[derive(Clone, Copy, Debug)]
pub struct RandomPartitioner {
    /// Hash seed (fixed default → deterministic).
    pub seed: u64,
}

impl Default for RandomPartitioner {
    fn default() -> Self {
        RandomPartitioner { seed: 0x5EED_0001 }
    }
}

impl Partitioner for RandomPartitioner {
    fn name(&self) -> String {
        "Random".to_string()
    }

    fn partition(
        &mut self,
        stream: &mut dyn EdgeStream,
        params: &PartitionParams,
        sink: &mut dyn AssignmentSink,
    ) -> io::Result<RunReport> {
        let mut report = RunReport::default();
        let t = tps_obs::span("partition");
        batched_pass(stream, sink, |e, out| {
            let c = e.canonical();
            let key = ((c.src as u64) << 32) | c.dst as u64;
            let p = seeded_hash_to_partition((key ^ key >> 32) as u32, self.seed, params.k);
            out.push(e, p);
        })?;
        report.phases.record("partition", t.end());
        Ok(report)
    }
}

/// Degree-based hashing (DBH).
#[derive(Clone, Copy, Debug)]
pub struct DbhPartitioner {
    /// Hash seed.
    pub seed: u64,
}

impl Default for DbhPartitioner {
    fn default() -> Self {
        DbhPartitioner { seed: 0x5EED_0002 }
    }
}

impl Partitioner for DbhPartitioner {
    fn name(&self) -> String {
        "DBH".to_string()
    }

    fn partition(
        &mut self,
        stream: &mut dyn EdgeStream,
        params: &PartitionParams,
        sink: &mut dyn AssignmentSink,
    ) -> io::Result<RunReport> {
        let mut report = RunReport::default();
        let info = discover_info(stream)?;

        let t0 = tps_obs::span("degree");
        let degrees = DegreeTable::compute(stream, info.num_vertices)?;
        report.phases.record("degree", t0.end());

        let t1 = tps_obs::span("partition");
        batched_pass(stream, sink, |e, out| {
            // Hash the lower-degree endpoint; ties keep the first endpoint,
            // so the choice is deterministic for a given stream.
            let v = if degrees.degree(e.src) <= degrees.degree(e.dst) {
                e.src
            } else {
                e.dst
            };
            out.push(e, seeded_hash_to_partition(v, self.seed, params.k));
        })?;
        report.phases.record("partition", t1.end());
        Ok(report)
    }
}

/// Grid (constrained 2D) hashing.
#[derive(Clone, Copy, Debug)]
pub struct GridPartitioner {
    /// Hash seed.
    pub seed: u64,
}

impl Default for GridPartitioner {
    fn default() -> Self {
        GridPartitioner { seed: 0x5EED_0003 }
    }
}

impl GridPartitioner {
    /// Grid side length for `k` partitions: the largest `r` with `r² ≤ k`.
    /// Only `r²` partitions are used — the classic Grid constraint (the
    /// original requires a perfect square).
    pub fn side(k: u32) -> u32 {
        ((k as f64).sqrt().floor() as u32).max(1)
    }
}

impl Partitioner for GridPartitioner {
    fn name(&self) -> String {
        "Grid".to_string()
    }

    fn partition(
        &mut self,
        stream: &mut dyn EdgeStream,
        params: &PartitionParams,
        sink: &mut dyn AssignmentSink,
    ) -> io::Result<RunReport> {
        let mut report = RunReport::default();
        let r = Self::side(params.k);
        let t = tps_obs::span("partition");
        batched_pass(stream, sink, |e, out| {
            let row = (mix64(e.src as u64 ^ self.seed) % r as u64) as u32;
            let col = (mix64(e.dst as u64 ^ self.seed.rotate_left(17)) % r as u64) as u32;
            out.push(e, row * r + col);
        })?;
        report.phases.record("partition", t.end());
        report.count("grid_side", r as u64);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::sink::{QualitySink, VecSink};
    use tps_graph::datasets::Dataset;
    use tps_graph::gen::gnm;
    use tps_graph::stream::InMemoryGraph;
    use tps_graph::types::Edge;

    fn run_quality(
        p: &mut dyn Partitioner,
        g: &InMemoryGraph,
        k: u32,
    ) -> tps_metrics::quality::PartitionMetrics {
        let mut sink = QualitySink::new(g.num_vertices(), k);
        let mut s = g.stream();
        p.partition(&mut s, &PartitionParams::new(k), &mut sink)
            .unwrap();
        sink.finish()
    }

    #[test]
    fn all_stateless_assign_every_edge() {
        let g = gnm::generate(200, 1000, 7);
        for p in [
            &mut RandomPartitioner::default() as &mut dyn Partitioner,
            &mut DbhPartitioner::default(),
            &mut GridPartitioner::default(),
        ] {
            let m = run_quality(p, &g, 8);
            assert_eq!(m.num_edges, 1000, "{}", p.name());
        }
    }

    #[test]
    fn dbh_replicates_high_degree_vertices() {
        // A star: centre 0 has degree 200, leaves degree 1. DBH hashes the
        // leaves (lower degree), spreading the star across partitions but
        // keeping each leaf on exactly one partition.
        let edges: Vec<Edge> = (1..=200).map(|i| Edge::new(0, i)).collect();
        let g = InMemoryGraph::from_edges(edges);
        let m = run_quality(&mut DbhPartitioner::default(), &g, 8);
        // Leaves never replicated → total replicas = 200 + replicas(centre).
        assert!(m.total_replicas <= 200 + 8);
        // Loads should be roughly uniform (hashing 200 leaves over 8 parts).
        assert!(m.min_load > 0);
    }

    #[test]
    fn dbh_beats_random_on_skewed_graph() {
        let g = Dataset::Tw.generate_scaled(0.02);
        let dbh = run_quality(&mut DbhPartitioner::default(), &g, 32);
        let rnd = run_quality(&mut RandomPartitioner::default(), &g, 32);
        assert!(
            dbh.replication_factor < rnd.replication_factor,
            "dbh {} vs random {}",
            dbh.replication_factor,
            rnd.replication_factor
        );
    }

    #[test]
    fn grid_uses_only_square_partitions() {
        let g = gnm::generate(100, 500, 3);
        let mut sink = VecSink::new();
        let mut s = g.stream();
        GridPartitioner::default()
            .partition(&mut s, &PartitionParams::new(10), &mut sink)
            .unwrap();
        // side = 3 → only partitions 0..9 used; with k=10, partition 9 stays
        // empty.
        assert!(sink.assignments().iter().all(|&(_, p)| p < 9));
    }

    #[test]
    fn grid_bounds_vertex_replicas_by_two_rows() {
        let g = gnm::generate(60, 600, 11);
        let k = 16u32; // side 4
        let mut sink = QualitySink::new(g.num_vertices(), k);
        let mut s = g.stream();
        GridPartitioner::default()
            .partition(&mut s, &PartitionParams::new(k), &mut sink)
            .unwrap();
        let matrix = sink.tracker().matrix();
        for v in 0..g.num_vertices() as u32 {
            // A vertex appears in one fixed row (as src) and one fixed column
            // (as dst): ≤ 2·side − 1 replicas.
            assert!(matrix.replica_count(v) < 2 * 4);
        }
    }

    #[test]
    fn deterministic() {
        let g = gnm::generate(100, 400, 5);
        let mut a = VecSink::new();
        let mut b = VecSink::new();
        let params = PartitionParams::new(8);
        DbhPartitioner::default()
            .partition(&mut g.stream(), &params, &mut a)
            .unwrap();
        DbhPartitioner::default()
            .partition(&mut g.stream(), &params, &mut b)
            .unwrap();
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn empty_graph() {
        let g = InMemoryGraph::from_edges(vec![]);
        let m = run_quality(&mut RandomPartitioner::default(), &g, 4);
        assert_eq!(m.num_edges, 0);
    }

    #[test]
    fn grid_side() {
        assert_eq!(GridPartitioner::side(1), 1);
        assert_eq!(GridPartitioner::side(4), 2);
        assert_eq!(GridPartitioner::side(10), 3);
        assert_eq!(GridPartitioner::side(256), 16);
    }
}
