//! SNE — streaming NE: the out-of-core variant of neighborhood expansion
//! used as a baseline in the paper ("a streaming version of the in-memory
//! partitioning algorithm NE", §V).
//!
//! The stream is consumed in bounded **chunks**. Each chunk is materialised
//! as a small CSR and partitioned with the NE expansion machinery
//! ([`crate::ne::NeCore`]); partition loads and the balance cap are global
//! across chunks, and each expansion targets the currently least-loaded
//! partition so chunks spread over all `k` parts.
//!
//! Behavioural envelope relative to the paper (§V-A): better replication
//! factor than HDRF (it sees neighbourhood structure within a chunk), far
//! slower than 2PS-L / DBH (expansion cost per chunk), memory bounded by the
//! chunk size rather than `|E|` — and, like the original implementation, it
//! *fails* (returns an error) when `k` exceeds the number of chunks' worth
//! of capacity it can manage; the paper shows SNE FAIL rows at k = 128/256
//! on several graphs. We reproduce the failure condition as: chunk capacity
//! cannot host `k` seeds (`chunk_edges < 4·k`).

use std::io;

use tps_core::partitioner::{PartitionParams, Partitioner, RunReport};
use tps_core::sink::AssignmentSink;
use tps_graph::csr::Csr;
use tps_graph::stream::{discover_info, EdgeStream};
use tps_graph::types::Edge;

use crate::ne::NeCore;

/// The streaming-NE partitioner.
#[derive(Clone, Copy, Debug)]
pub struct SnePartitioner {
    /// Maximum edges materialised per chunk. The paper's SNE uses a vertex
    /// cache of `2|V|`; an edge-count bound is the equivalent control knob
    /// for synthetic streams.
    pub chunk_edges: usize,
}

impl Default for SnePartitioner {
    fn default() -> Self {
        // The paper's SNE keeps a vertex cache of 2|V|, which for its
        // datasets corresponds to a large fraction of the edge set staying
        // addressable per round; 256 k edges plays that role at repo scale.
        SnePartitioner {
            chunk_edges: 1 << 18,
        }
    }
}

impl Partitioner for SnePartitioner {
    fn name(&self) -> String {
        "SNE".to_string()
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
        if self.chunk_edges < 4 * params.k as usize {
            // The failure regime the paper reports as "SNE FAIL" at high k.
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "SNE: chunk capacity {} cannot sustain k = {} partitions",
                    self.chunk_edges, params.k
                ),
            ));
        }

        let t = tps_obs::span("partition");
        let cap = (params.alpha * info.num_edges as f64 / params.k as f64)
            .floor()
            .max(1.0) as u64;
        let mut global_loads = vec![0u64; params.k as usize];
        let mut chunks = 0u64;

        stream.reset()?;
        let mut exhausted = false;
        let mut chunk: Vec<Edge> = Vec::with_capacity(self.chunk_edges);
        // The unread rest of the run the stream last lent.
        let (mut scratch, mut run) = (Vec::new(), &[][..]);
        while !exhausted {
            chunk.clear();
            while chunk.len() < self.chunk_edges {
                if run.is_empty() {
                    run = stream.next_chunk(&mut scratch)?;
                    if run.is_empty() {
                        exhausted = true;
                        break;
                    }
                }
                let (head, rest) = run.split_at(run.len().min(self.chunk_edges - chunk.len()));
                chunk.extend_from_slice(head);
                run = rest;
            }
            if chunk.is_empty() {
                break;
            }
            chunks += 1;
            // Chunk-local CSR over the *global* id space (vertex state is
            // O(|V|), the out-of-core budget SNE also pays).
            let csr = Csr::from_edges(&chunk, info.num_vertices);
            let mut core = NeCore::new(&csr, &chunk, params.k);
            // Expand into the least-loaded partition until the chunk drains.
            loop {
                let p = global_loads
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &l)| (l, i))
                    .map(|(i, _)| i as u32)
                    .expect("k >= 1");
                if global_loads[p as usize] >= cap {
                    break; // all partitions at cap; sweep handles the rest
                }
                let before = core.loads()[p as usize];
                // Give this expansion a budget: fill towards the global cap
                // but stop after a chunk-fair share so other partitions get
                // chunk locality too.
                let budget = (self.chunk_edges as u64 / params.k as u64).max(16);
                let target = (before + budget).min(before + (cap - global_loads[p as usize]));
                core.expand(p, target, sink)?;
                let grown = core.loads()[p as usize] - before;
                global_loads[p as usize] += grown;
                if grown == 0 {
                    break; // chunk exhausted
                }
            }
            // Leftovers inside the chunk go to the *globally* least-loaded
            // partition at each step.
            core.sweep_leftovers_by(sink, |_| {
                let p = global_loads
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &l)| (l, i))
                    .map(|(i, _)| i as u32)
                    .expect("k >= 1");
                global_loads[p as usize] += 1;
                p
            })?;
        }
        report.phases.record("partition", t.end());
        report.count("chunks", chunks);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdrf::HdrfPartitioner;
    use tps_core::sink::{QualitySink, VecSink};
    use tps_graph::datasets::Dataset;
    use tps_graph::gen::gnm;
    use tps_graph::stream::InMemoryGraph;

    fn quality(
        p: &mut dyn Partitioner,
        g: &InMemoryGraph,
        k: u32,
    ) -> tps_metrics::quality::PartitionMetrics {
        let mut sink = QualitySink::new(g.num_vertices(), k);
        p.partition(&mut g.stream(), &PartitionParams::new(k), &mut sink)
            .unwrap();
        sink.finish()
    }

    #[test]
    fn assigns_all_edges() {
        let g = Dataset::It.generate_scaled(0.01);
        let mut sink = VecSink::new();
        SnePartitioner::default()
            .partition(&mut g.stream(), &PartitionParams::new(8), &mut sink)
            .unwrap();
        assert_eq!(sink.assignments().len() as u64, g.num_edges());
    }

    #[test]
    fn multiple_chunks_still_complete() {
        let g = Dataset::It.generate_scaled(0.02);
        let mut p = SnePartitioner { chunk_edges: 1024 };
        let mut sink = QualitySink::new(g.num_vertices(), 8);
        let report = p
            .partition(&mut g.stream(), &PartitionParams::new(8), &mut sink)
            .unwrap();
        assert!(report.counter("chunks") > 1);
        assert_eq!(sink.finish().num_edges, g.num_edges());
    }

    #[test]
    fn beats_hdrf_on_clustered_graph() {
        let g = Dataset::Gsh.generate_scaled(0.01);
        let sne = quality(&mut SnePartitioner::default(), &g, 8);
        let hdrf = quality(&mut HdrfPartitioner::default(), &g, 8);
        assert!(
            sne.replication_factor < hdrf.replication_factor,
            "sne {} vs hdrf {}",
            sne.replication_factor,
            hdrf.replication_factor
        );
    }

    #[test]
    fn fails_when_k_exceeds_chunk_capacity() {
        let g = gnm::generate(100, 400, 2);
        let mut p = SnePartitioner { chunk_edges: 64 };
        let mut sink = VecSink::new();
        let err = p
            .partition(&mut g.stream(), &PartitionParams::new(32), &mut sink)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn balanced_loads() {
        let g = Dataset::Ok.generate_scaled(0.01);
        let m = quality(&mut SnePartitioner::default(), &g, 8);
        assert!(m.min_load > 0);
        assert!(m.alpha < 1.35, "alpha {}", m.alpha);
    }

    #[test]
    fn empty_graph() {
        let g = InMemoryGraph::from_edges(vec![]);
        let m = quality(&mut SnePartitioner::default(), &g, 4);
        assert_eq!(m.num_edges, 0);
    }
}
