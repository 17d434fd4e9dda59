//! HDRF — High-Degree (are) Replicated First (Petroni et al., CIKM 2015).
//!
//! The canonical stateful streaming edge partitioner and the paper's main
//! streaming comparison point. For every edge, a score
//! `C_HDRF(u,v,p) = C_REP(u,v,p) + λ·C_BAL(p)` is evaluated for **all k**
//! partitions — the `O(|E|·k)` cost the paper's Fig. 2 makes vivid. Degrees
//! are *partial*: counted as the stream is consumed, exactly as in the
//! original (single pass, no preprocessing).

use std::io;

use tps_core::partitioner::{PartitionParams, Partitioner, RunReport};
use tps_core::sink::{batched_pass, AssignmentSink};
use tps_core::two_phase::scoring::HdrfParams;
use tps_graph::stream::{discover_info, EdgeStream};
use tps_graph::types::{Edge, PartitionId, VertexId};
use tps_metrics::bitmatrix::ReplicationMatrix;

/// The HDRF per-edge decision kernel: scoring state plus the commit path.
struct HdrfScorer {
    v2p: ReplicationMatrix,
    loads: Vec<u64>,
    max_load: u64,
    min_load: u64,
    params: HdrfParams,
}

impl HdrfScorer {
    fn new(num_vertices: u64, k: u32, params: HdrfParams) -> Self {
        HdrfScorer {
            v2p: ReplicationMatrix::new(num_vertices, k),
            loads: vec![0u64; k as usize],
            max_load: 0,
            min_load: 0,
            params,
        }
    }

    /// Score all `k` partitions for `(u, v)` with degrees `(du, dv)`,
    /// commit the edge to the best one, and return it.
    fn place(&mut self, e: Edge, du: u64, dv: u64) -> PartitionId {
        let k = self.loads.len() as u32;
        let d_sum = (du + dv) as f64;
        let theta_u = du as f64 / d_sum;
        let theta_v = dv as f64 / d_sum;
        let bal_denom = self.params.epsilon + (self.max_load - self.min_load) as f64;

        // O(k) scoring loop — the cost 2PS-L eliminates.
        let mut best_p = 0u32;
        let mut best_score = f64::NEG_INFINITY;
        for p in 0..k {
            let mut c_rep = 0.0;
            if self.v2p.get(e.src as VertexId, p) {
                c_rep += 1.0 + (1.0 - theta_u);
            }
            if self.v2p.get(e.dst as VertexId, p) {
                c_rep += 1.0 + (1.0 - theta_v);
            }
            let c_bal = (self.max_load - self.loads[p as usize]) as f64 / bal_denom;
            let score = c_rep + self.params.lambda * c_bal;
            if score > best_score {
                best_score = score;
                best_p = p;
            }
        }

        self.v2p.set(e.src, best_p);
        self.v2p.set(e.dst, best_p);
        let l = &mut self.loads[best_p as usize];
        *l += 1;
        if *l > self.max_load {
            self.max_load = *l;
        }
        if self.loads[best_p as usize] - 1 == self.min_load {
            // The minimum may have moved; recompute lazily only when the
            // partition that held it grew. O(k), amortised rarely.
            self.min_load = self.loads.iter().copied().min().unwrap_or(0);
        }
        best_p
    }
}

/// The HDRF streaming partitioner, counting partial degrees as the edges
/// stream by (the original algorithm).
#[derive(Clone, Copy, Debug, Default)]
pub struct HdrfPartitioner {
    /// Scoring parameters (λ = 1.1 per the paper's appendix, ε = 1.0).
    pub params: HdrfParams,
}

impl Partitioner for HdrfPartitioner {
    fn name(&self) -> String {
        "HDRF".to_string()
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

        let mut degrees = vec![0u64; info.num_vertices as usize];
        let t = tps_obs::span("partition");
        let mut scorer = HdrfScorer::new(info.num_vertices, k, self.params);
        batched_pass(stream, sink, |e, out| {
            degrees[e.src as usize] += 1;
            degrees[e.dst as usize] += 1;
            let du = degrees[e.src as usize];
            let dv = degrees[e.dst as usize];
            out.push(e, scorer.place(e, du, dv));
        })?;
        report.phases.record("partition", t.end());
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

    fn quality(g: &InMemoryGraph, k: u32) -> tps_metrics::quality::PartitionMetrics {
        let mut p = HdrfPartitioner::default();
        let mut sink = QualitySink::new(g.num_vertices(), k);
        p.partition(&mut g.stream(), &PartitionParams::new(k), &mut sink)
            .unwrap();
        sink.finish()
    }

    #[test]
    fn assigns_all_edges() {
        let g = gnm::generate(300, 2000, 1);
        let m = quality(&g, 8);
        assert_eq!(m.num_edges, 2000);
    }

    #[test]
    fn balance_term_keeps_loads_reasonable() {
        let g = Dataset::Ok.generate_scaled(0.02);
        let m = quality(&g, 16);
        // HDRF has no hard cap but λ=1.1 keeps imbalance small in practice;
        // the paper reports α ≈ 1.05–1.48.
        assert!(m.alpha < 1.6, "alpha {}", m.alpha);
        assert!(m.min_load > 0);
    }

    #[test]
    fn beats_random_hashing_on_quality() {
        let g = Dataset::Ok.generate_scaled(0.02);
        let hdrf = quality(&g, 32);
        let mut rnd = crate::stateless::RandomPartitioner::default();
        let mut sink = QualitySink::new(g.num_vertices(), 32);
        rnd.partition(&mut g.stream(), &PartitionParams::new(32), &mut sink)
            .unwrap();
        let rand_m = sink.finish();
        assert!(
            hdrf.replication_factor < rand_m.replication_factor,
            "hdrf {} vs random {}",
            hdrf.replication_factor,
            rand_m.replication_factor
        );
    }

    #[test]
    fn colocates_a_clique() {
        // A small clique fits one partition; HDRF should not shatter it.
        let mut edges = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                edges.push(tps_graph::types::Edge::new(i, j));
            }
        }
        let g = InMemoryGraph::from_edges(edges);
        let m = quality(&g, 4);
        // 6 vertices, 15 edges: balance pushes some spread, but RF must stay
        // well below random (~min(5, 4) per vertex).
        assert!(m.replication_factor < 3.0, "rf {}", m.replication_factor);
    }

    #[test]
    fn deterministic() {
        let g = gnm::generate(100, 500, 9);
        let params = PartitionParams::new(8);
        let mut a = VecSink::new();
        let mut b = VecSink::new();
        HdrfPartitioner::default()
            .partition(&mut g.stream(), &params, &mut a)
            .unwrap();
        HdrfPartitioner::default()
            .partition(&mut g.stream(), &params, &mut b)
            .unwrap();
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn empty_graph() {
        let g = InMemoryGraph::from_edges(vec![]);
        assert_eq!(quality(&g, 4).num_edges, 0);
    }
}
