//! Multilevel graph partitioner (METIS-class), built from scratch.
//!
//! The paper compares against METIS as the classic in-memory multilevel
//! *vertex* partitioner (Karypis & Kumar 1998): coarsen by heavy-edge
//! matching, partition the coarsest graph, then uncoarsen with boundary
//! refinement at every level. Edge partitions are derived from the vertex
//! partition at the end (an edge goes to its endpoints' common part, or to
//! the less-loaded of the two parts when they differ) — the standard way
//! METIS results are used for edge-partitioning comparisons.
//!
//! Faithfully reproduced behaviours from the paper's evaluation:
//! run-time far above any streaming partitioner (Fig. 4, "2500× slower than
//! 2PS-L"), memory `≥ O(|E|)`, good replication factors, and balance
//! violations at higher `k` (METIS balances *vertices*, not edges — the
//! paper reports α up to 1.48 for it).

use std::collections::HashMap;
use std::io;

use tps_core::partitioner::{PartitionParams, Partitioner, RunReport};
use tps_core::sink::{batched_pass, AssignmentSink};
use tps_graph::ranged::EdgeSliceStream;
use tps_graph::stream::{discover_info, for_each_edge, EdgeStream};
use tps_graph::types::{Edge, PartitionId};

/// One level of the multilevel hierarchy: a weighted undirected graph.
struct Level {
    offsets: Vec<usize>,
    /// (neighbor, edge weight); parallel edges merged, self-loops dropped.
    adj: Vec<(u32, u64)>,
    vweight: Vec<u64>,
    /// Fine vertex → coarse vertex (filled when this level gets coarsened).
    to_coarse: Vec<u32>,
}

impl Level {
    fn num_vertices(&self) -> usize {
        self.vweight.len()
    }

    fn neighbors(&self, v: u32) -> &[(u32, u64)] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    fn from_pairs(n: usize, pairs: &mut [(u32, u32, u64)], vweight: Vec<u64>) -> Level {
        // Merge parallel edges: sort by (min-endpoint normalised) pair.
        for p in pairs.iter_mut() {
            if p.0 > p.1 {
                std::mem::swap(&mut p.0, &mut p.1);
            }
        }
        pairs.sort_unstable();
        let mut merged: Vec<(u32, u32, u64)> = Vec::with_capacity(pairs.len());
        for &(a, b, w) in pairs.iter() {
            if a == b {
                continue; // self-loop: irrelevant to the cut
            }
            match merged.last_mut() {
                Some(last) if last.0 == a && last.1 == b => last.2 += w,
                _ => merged.push((a, b, w)),
            }
        }
        // Degree counting for CSR.
        let mut counts = vec![0usize; n + 1];
        for &(a, b, _) in &merged {
            counts[a as usize + 1] += 1;
            counts[b as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut adj = vec![(0u32, 0u64); offsets[n]];
        for &(a, b, w) in &merged {
            adj[cursor[a as usize]] = (b, w);
            cursor[a as usize] += 1;
            adj[cursor[b as usize]] = (a, w);
            cursor[b as usize] += 1;
        }
        Level {
            offsets,
            adj,
            vweight,
            to_coarse: Vec::new(),
        }
    }

    /// Heavy-edge matching coarsening. Returns the coarse level.
    fn coarsen(&mut self) -> Level {
        let n = self.num_vertices();
        let mut match_of: Vec<u32> = vec![u32::MAX; n];
        // Visit in id order (deterministic); match with the unmatched
        // neighbour of maximum edge weight.
        for v in 0..n as u32 {
            if match_of[v as usize] != u32::MAX {
                continue;
            }
            let mut best: Option<(u64, u32)> = None;
            for &(u, w) in self.neighbors(v) {
                if match_of[u as usize] == u32::MAX
                    && u != v
                    && best.is_none_or(|(bw, bu)| w > bw || (w == bw && u < bu))
                {
                    best = Some((w, u));
                }
            }
            if match_of[v as usize] == u32::MAX {
                match (best, v) {
                    (Some((_, u)), v) => {
                        match_of[v as usize] = u;
                        match_of[u as usize] = v;
                    }
                    (None, v) => match_of[v as usize] = v,
                }
            }
        }
        // Coarse ids.
        let mut to_coarse = vec![u32::MAX; n];
        let mut next = 0u32;
        for v in 0..n as u32 {
            if to_coarse[v as usize] == u32::MAX {
                to_coarse[v as usize] = next;
                let m = match_of[v as usize];
                to_coarse[m as usize] = next;
                next += 1;
            }
        }
        // Coarse vertex weights + edges.
        let cn = next as usize;
        let mut vweight = vec![0u64; cn];
        for v in 0..n {
            vweight[to_coarse[v] as usize] += self.vweight[v];
        }
        let mut pairs: Vec<(u32, u32, u64)> = Vec::with_capacity(self.adj.len() / 2);
        for v in 0..n as u32 {
            for &(u, w) in self.neighbors(v) {
                if v < u {
                    let (cv, cu) = (to_coarse[v as usize], to_coarse[u as usize]);
                    if cv != cu {
                        pairs.push((cv, cu, w));
                    }
                }
            }
        }
        self.to_coarse = to_coarse;
        Level::from_pairs(cn, &mut pairs, vweight)
    }

    /// Greedy balanced BFS initial partitioning into `k` parts by vertex
    /// weight.
    fn initial_partition(&self, k: u32) -> Vec<PartitionId> {
        let n = self.num_vertices();
        let total: u64 = self.vweight.iter().sum();
        let target = total.div_ceil(k as u64).max(1);
        let mut part = vec![u32::MAX; n];
        let mut current = 0u32;
        let mut weight = 0u64;
        let mut queue = std::collections::VecDeque::new();
        let mut cursor = 0usize;
        loop {
            let v = match queue.pop_front() {
                Some(v) => v,
                None => {
                    while cursor < n && part[cursor] != u32::MAX {
                        cursor += 1;
                    }
                    if cursor >= n {
                        break;
                    }
                    cursor as u32
                }
            };
            if part[v as usize] != u32::MAX {
                continue;
            }
            part[v as usize] = current;
            weight += self.vweight[v as usize];
            if weight >= target && current + 1 < k {
                current += 1;
                weight = 0;
                queue.clear();
            } else {
                for &(u, _) in self.neighbors(v) {
                    if part[u as usize] == u32::MAX {
                        queue.push_back(u);
                    }
                }
            }
        }
        part
    }

    /// Boundary refinement: greedy gain moves keeping vertex-weight balance.
    fn refine(&self, part: &mut [PartitionId], k: u32, passes: u32, balance: f64) {
        let n = self.num_vertices();
        let total: u64 = self.vweight.iter().sum();
        let max_weight = ((total as f64 / k as f64) * balance).ceil() as u64;
        let mut pweights = vec![0u64; k as usize];
        for v in 0..n {
            pweights[part[v] as usize] += self.vweight[v];
        }
        let mut conn: HashMap<u32, u64> = HashMap::new();
        for _ in 0..passes {
            let mut moved = 0u64;
            for v in 0..n as u32 {
                let cur = part[v as usize];
                conn.clear();
                for &(u, w) in self.neighbors(v) {
                    *conn.entry(part[u as usize]).or_insert(0) += w;
                }
                if conn.len() <= 1 && conn.contains_key(&cur) {
                    continue; // interior vertex
                }
                let internal = conn.get(&cur).copied().unwrap_or(0);
                let vw = self.vweight[v as usize];
                let mut best: Option<(i64, u32)> = None;
                for (&p, &w) in &conn {
                    if p == cur || pweights[p as usize] + vw > max_weight {
                        continue;
                    }
                    let gain = w as i64 - internal as i64;
                    if gain > 0 && best.is_none_or(|(bg, bp)| gain > bg || (gain == bg && p < bp)) {
                        best = Some((gain, p));
                    }
                }
                if let Some((_, p)) = best {
                    pweights[cur as usize] -= vw;
                    pweights[p as usize] += vw;
                    part[v as usize] = p;
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }
    }
}

/// The multilevel partitioner.
#[derive(Clone, Copy, Debug)]
pub struct MultilevelPartitioner {
    /// Stop coarsening at this many vertices (scaled by `k`).
    pub coarsen_target_per_part: usize,
    /// Refinement passes per level.
    pub refine_passes: u32,
    /// Vertex-weight balance slack during refinement.
    pub balance: f64,
}

impl Default for MultilevelPartitioner {
    fn default() -> Self {
        MultilevelPartitioner {
            coarsen_target_per_part: 32,
            refine_passes: 4,
            balance: 1.1,
        }
    }
}

impl Partitioner for MultilevelPartitioner {
    fn name(&self) -> String {
        "Multilevel".to_string()
    }

    fn partition(
        &mut self,
        stream: &mut dyn EdgeStream,
        params: &PartitionParams,
        sink: &mut dyn AssignmentSink,
    ) -> io::Result<RunReport> {
        let mut report = RunReport::default();
        let info = discover_info(stream)?;
        if info.num_edges == 0 {
            return Ok(report);
        }
        let k = params.k;

        // Materialise level 0.
        let t0 = tps_obs::span("build");
        let mut edges: Vec<Edge> = Vec::with_capacity(info.num_edges as usize);
        for_each_edge(stream, |e| edges.push(e))?;
        let n0 = info.num_vertices as usize;
        let mut pairs: Vec<(u32, u32, u64)> = edges.iter().map(|e| (e.src, e.dst, 1u64)).collect();
        let mut levels = vec![Level::from_pairs(n0, &mut pairs, vec![1u64; n0])];
        report.phases.record("build", t0.end());

        // Coarsening.
        let t1 = tps_obs::span("coarsen");
        let target = (self.coarsen_target_per_part * k as usize).max(128);
        loop {
            let last = levels.last_mut().expect("at least level 0");
            let before = last.num_vertices();
            if before <= target {
                break;
            }
            let coarse = last.coarsen();
            let after = coarse.num_vertices();
            levels.push(coarse);
            if after as f64 > before as f64 * 0.95 {
                break; // diminishing returns (e.g. star graphs)
            }
        }
        report.phases.record("coarsen", t1.end());

        // Initial partition on the coarsest level, then project + refine.
        let t2 = tps_obs::span("refine");
        let coarsest = levels.last().expect("non-empty");
        let mut part = coarsest.initial_partition(k);
        coarsest.refine(&mut part, k, self.refine_passes, self.balance);
        for li in (0..levels.len() - 1).rev() {
            let finer = &levels[li];
            let mut fine_part = vec![0u32; finer.num_vertices()];
            for v in 0..finer.num_vertices() {
                fine_part[v] = part[finer.to_coarse[v] as usize];
            }
            part = fine_part;
            levels[li].refine(&mut part, k, self.refine_passes, self.balance);
        }
        report.phases.record("refine", t2.end());

        // Derive the edge partition: common part, else the less edge-loaded
        // of the two endpoint parts.
        let t3 = tps_obs::span("derive");
        let mut loads = vec![0u64; k as usize];
        let mut loaded = EdgeSliceStream::new(&edges, info.num_vertices);
        batched_pass(&mut loaded, sink, |e, out| {
            let (pu, pv) = (part[e.src as usize], part[e.dst as usize]);
            let p = if pu == pv || loads[pu as usize] <= loads[pv as usize] {
                pu
            } else {
                pv
            };
            loads[p as usize] += 1;
            out.push(e, p);
        })?;
        report.phases.record("derive", t3.end());
        report.count("levels", levels.len() as u64);
        report.count(
            "coarsest_vertices",
            levels.last().unwrap().num_vertices() as u64,
        );
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
        let mut p = MultilevelPartitioner::default();
        let mut sink = QualitySink::new(g.num_vertices(), k);
        p.partition(&mut g.stream(), &PartitionParams::new(k), &mut sink)
            .unwrap();
        sink.finish()
    }

    #[test]
    fn assigns_every_edge() {
        let g = Dataset::It.generate_scaled(0.01);
        let mut sink = VecSink::new();
        MultilevelPartitioner::default()
            .partition(&mut g.stream(), &PartitionParams::new(8), &mut sink)
            .unwrap();
        assert_eq!(sink.assignments().len() as u64, g.num_edges());
    }

    #[test]
    fn splits_two_cliques_cleanly() {
        // Two 8-cliques joined by one edge → a perfect 2-way vertex split.
        let mut edges = Vec::new();
        for base in [0u32, 8] {
            for i in 0..8 {
                for j in (i + 1)..8 {
                    edges.push(Edge::new(base + i, base + j));
                }
            }
        }
        edges.push(Edge::new(0, 8));
        let g = InMemoryGraph::from_edges(edges);
        let m = quality(&g, 2);
        // Only the bridge edge replicates one vertex: RF ≤ 17/16.
        assert!(
            m.replication_factor <= 17.0 / 16.0 + 1e-9,
            "rf {}",
            m.replication_factor
        );
    }

    #[test]
    fn good_quality_on_clustered_graph() {
        let g = Dataset::Gsh.generate_scaled(0.01);
        let m = quality(&g, 8);
        assert!(m.replication_factor < 2.5, "rf {}", m.replication_factor);
    }

    #[test]
    fn coarsening_reduces_vertex_count() {
        let g = gnm::generate(2000, 10000, 7);
        let mut p = MultilevelPartitioner::default();
        let mut sink = VecSink::new();
        let report = p
            .partition(&mut g.stream(), &PartitionParams::new(4), &mut sink)
            .unwrap();
        assert!(report.counter("levels") > 1);
        assert!(report.counter("coarsest_vertices") < 2000);
    }

    #[test]
    fn deterministic() {
        let g = gnm::generate(300, 1500, 2);
        let params = PartitionParams::new(4);
        let mut a = VecSink::new();
        let mut b = VecSink::new();
        MultilevelPartitioner::default()
            .partition(&mut g.stream(), &params, &mut a)
            .unwrap();
        MultilevelPartitioner::default()
            .partition(&mut g.stream(), &params, &mut b)
            .unwrap();
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn empty_graph() {
        let g = InMemoryGraph::from_edges(vec![]);
        assert_eq!(quality(&g, 4).num_edges, 0);
    }

    #[test]
    fn handles_star_graph() {
        // Matching collapses poorly on stars; the shrink-factor exit must
        // prevent an infinite loop.
        let edges: Vec<Edge> = (1..500).map(|i| Edge::new(0, i)).collect();
        let g = InMemoryGraph::from_edges(edges);
        let m = quality(&g, 4);
        assert_eq!(m.num_edges, 499);
    }
}
