//! Greedy — the PowerGraph streaming heuristic (Gonzalez et al., OSDI 2012).
//!
//! Case-based placement using the replica sets `A(u)`, `A(v)` of the two
//! endpoints:
//!
//! 1. both endpoints replicated with a common partition → least-loaded
//!    partition in `A(u) ∩ A(v)`;
//! 2. both replicated, disjoint → least-loaded in `A(u) ∪ A(v)` (the
//!    streaming adaptation: the original prefers the vertex with more
//!    unassigned edges, which a single-pass streamer cannot know);
//! 3. exactly one replicated → least-loaded partition in its replica set;
//! 4. neither → least-loaded partition overall.
//!
//! `O(|E|·k)` worst case (set scans), `O(|V|·k)` state. Mentioned by the
//! paper (§II-B, §VI) as outperformed by HDRF — we include it for
//! completeness and ablations.

use std::io;

use tps_core::partitioner::{PartitionParams, Partitioner, RunReport};
use tps_core::sink::{batched_pass, AssignmentSink};
use tps_graph::stream::{discover_info, EdgeStream};
use tps_graph::types::PartitionId;
use tps_metrics::bitmatrix::ReplicationMatrix;

/// The PowerGraph Greedy streaming partitioner.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyPartitioner;

impl GreedyPartitioner {
    /// Least-loaded partition among those with the bit set for *either*
    /// vertex mask; returns `None` if no candidate.
    fn best_in<'a>(
        loads: &[u64],
        candidates: impl Iterator<Item = &'a PartitionId>,
    ) -> Option<PartitionId> {
        let mut best: Option<(u64, PartitionId)> = None;
        for &p in candidates {
            let l = loads[p as usize];
            if best.is_none_or(|(bl, bp)| l < bl || (l == bl && p < bp)) {
                best = Some((l, p));
            }
        }
        best.map(|(_, p)| p)
    }
}

impl Partitioner for GreedyPartitioner {
    fn name(&self) -> String {
        "Greedy".to_string()
    }

    fn partition(
        &mut self,
        stream: &mut dyn EdgeStream,
        params: &PartitionParams,
        sink: &mut dyn AssignmentSink,
    ) -> io::Result<RunReport> {
        let mut report = RunReport::default();
        let info = discover_info(stream)?;
        let k = params.k;

        let t = tps_obs::span("partition");
        let mut v2p = ReplicationMatrix::new(info.num_vertices, k);
        let mut loads = vec![0u64; k as usize];

        batched_pass(stream, sink, |e, out| {
            let a_u: Vec<PartitionId> = v2p.partitions_of(e.src).collect();
            let a_v: Vec<PartitionId> = v2p.partitions_of(e.dst).collect();
            let inter: Vec<PartitionId> = a_u.iter().copied().filter(|p| a_v.contains(p)).collect();

            let target = if !inter.is_empty() {
                Self::best_in(&loads, inter.iter()).expect("non-empty intersection")
            } else if !a_u.is_empty() && !a_v.is_empty() {
                Self::best_in(&loads, a_u.iter().chain(a_v.iter())).expect("non-empty union")
            } else if !a_u.is_empty() {
                Self::best_in(&loads, a_u.iter()).expect("non-empty set")
            } else if !a_v.is_empty() {
                Self::best_in(&loads, a_v.iter()).expect("non-empty set")
            } else {
                // Least loaded overall.
                let mut best = 0u32;
                for p in 1..k {
                    if loads[p as usize] < loads[best as usize] {
                        best = p;
                    }
                }
                best
            };

            v2p.set(e.src, target);
            v2p.set(e.dst, target);
            loads[target as usize] += 1;
            out.push(e, target);
        })?;
        report.phases.record("partition", t.end());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::sink::QualitySink;
    use tps_graph::gen::gnm;
    use tps_graph::stream::InMemoryGraph;
    use tps_graph::types::Edge;

    fn quality(g: &InMemoryGraph, k: u32) -> tps_metrics::quality::PartitionMetrics {
        let mut p = GreedyPartitioner;
        let mut sink = QualitySink::new(g.num_vertices(), k);
        p.partition(&mut g.stream(), &PartitionParams::new(k), &mut sink)
            .unwrap();
        sink.finish()
    }

    #[test]
    fn assigns_all_edges() {
        let g = gnm::generate(200, 800, 4);
        assert_eq!(quality(&g, 8).num_edges, 800);
    }

    #[test]
    fn keeps_a_path_together() {
        // A path streamed in order: every new edge shares a vertex with the
        // previous one, so Greedy should keep long stretches co-located.
        let edges: Vec<Edge> = (0..50).map(|i| Edge::new(i, i + 1)).collect();
        let g = InMemoryGraph::from_edges(edges);
        let m = quality(&g, 4);
        // Perfect RF would be slightly above 1; random would be ~1.9.
        assert!(m.replication_factor < 1.5, "rf {}", m.replication_factor);
    }

    #[test]
    fn spreads_load_when_uninformed() {
        // Disjoint edges: rule 4 (least loaded) must round-robin them.
        let edges: Vec<Edge> = (0..40).map(|i| Edge::new(2 * i, 2 * i + 1)).collect();
        let g = InMemoryGraph::from_edges(edges);
        let m = quality(&g, 4);
        assert_eq!(m.max_load, 10);
        assert_eq!(m.min_load, 10);
    }

    #[test]
    fn intersection_rule_wins() {
        // Edge (0,1) then (1,2) then (0,2): third edge's endpoints both live
        // on the partitions of the first two; Greedy must reuse one, not open
        // a new partition.
        let g = InMemoryGraph::from_edges(vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]);
        let m = quality(&g, 8);
        assert!(m.total_replicas <= 4, "replicas {}", m.total_replicas);
    }

    #[test]
    fn empty_graph() {
        let g = InMemoryGraph::from_edges(vec![]);
        assert_eq!(quality(&g, 4).num_edges, 0);
    }
}
