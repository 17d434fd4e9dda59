//! ADWISE-style buffered (window-based) streaming edge partitioning
//! (Mayer et al., ICDCS 2018).
//!
//! ADWISE keeps a buffer of `w` unassigned edges and, instead of assigning
//! the stream head, repeatedly assigns the *best-scoring* (edge, partition)
//! pair from the buffer — "looking into the future" of the stream. The paper
//! uses it as the representative of buffered approaches and shows that (a)
//! it can beat HDRF on small graphs, (b) the buffer covers too little of a
//! very large graph to help, and (c) its run-time is far higher.
//!
//! ## Fidelity note
//!
//! The original scores the whole window per assignment with an adaptive
//! window size, amortising via score caching. We reproduce the behavioural
//! envelope with a bounded **probe cohort**: each step scores `probe`
//! round-robin window slots against all `k` partitions and assigns the
//! winner. Cost `O(|E|·probe·k)` — an order of magnitude above HDRF, like
//! the original; quality sits between HDRF and NE on buffer-sized graphs and
//! degrades toward HDRF when the graph vastly exceeds the buffer.

use std::io;

use tps_core::partitioner::{PartitionParams, Partitioner, RunReport};
use tps_core::sink::{AssignmentSink, SinkBatch};
use tps_core::two_phase::scoring::HdrfParams;
use tps_graph::stream::{discover_info, EdgeStream};
use tps_graph::types::Edge;
use tps_metrics::bitmatrix::ReplicationMatrix;

/// The buffered greedy partitioner.
#[derive(Clone, Copy, Debug)]
pub struct AdwisePartitioner {
    /// Window (buffer) size in edges.
    pub window: usize,
    /// Number of window slots scored per assignment step.
    pub probe: usize,
    /// HDRF-style scoring parameters used inside the window.
    pub params: HdrfParams,
}

impl Default for AdwisePartitioner {
    fn default() -> Self {
        AdwisePartitioner {
            window: 1024,
            probe: 16,
            params: HdrfParams::default(),
        }
    }
}

impl AdwisePartitioner {
    /// Score `edge` against all partitions; returns `(best_score, best_p)`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn best_partition(
        &self,
        edge: Edge,
        degrees: &[u64],
        v2p: &ReplicationMatrix,
        loads: &[u64],
        max_load: u64,
        min_load: u64,
        k: u32,
    ) -> (f64, u32) {
        let du = degrees[edge.src as usize].max(1);
        let dv = degrees[edge.dst as usize].max(1);
        let d_sum = (du + dv) as f64;
        let bal_denom = self.params.epsilon + (max_load - min_load) as f64;
        let mut best = (f64::NEG_INFINITY, 0u32);
        for p in 0..k {
            let mut c_rep = 0.0;
            if v2p.get(edge.src, p) {
                c_rep += 1.0 + (1.0 - du as f64 / d_sum);
            }
            if v2p.get(edge.dst, p) {
                c_rep += 1.0 + (1.0 - dv as f64 / d_sum);
            }
            let c_bal = (max_load - loads[p as usize]) as f64 / bal_denom;
            let score = c_rep + self.params.lambda * c_bal;
            if score > best.0 {
                best = (score, p);
            }
        }
        best
    }
}

impl Partitioner for AdwisePartitioner {
    fn name(&self) -> String {
        "ADWISE".to_string()
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
        // Degrees are discovered on ingestion into the window (partial, as in
        // the original single-pass setting).
        let mut degrees = vec![0u64; info.num_vertices as usize];
        let mut v2p = ReplicationMatrix::new(info.num_vertices, k);
        let mut loads = vec![0u64; k as usize];
        let mut max_load = 0u64;

        let mut window: Vec<Edge> = Vec::with_capacity(self.window);
        let mut cursor = 0usize; // round-robin probe start
        stream.reset()?;
        let mut exhausted = false;
        // The unread rest of the run the stream last lent.
        let (mut scratch, mut run) = (Vec::new(), &[][..]);
        let mut out = SinkBatch::new(sink);

        loop {
            // Refill the window from the stream.
            while window.len() < self.window && !exhausted {
                if run.is_empty() {
                    run = stream.next_chunk(&mut scratch)?;
                }
                match run.split_first() {
                    Some((&e, rest)) => {
                        run = rest;
                        degrees[e.src as usize] += 1;
                        degrees[e.dst as usize] += 1;
                        window.push(e);
                    }
                    None => exhausted = true,
                }
            }
            if window.is_empty() {
                break;
            }
            // Probe a bounded cohort of window slots; assign the best pair.
            let min_load = loads.iter().copied().min().unwrap_or(0);
            let probes = self.probe.min(window.len());
            let mut best: Option<(f64, usize, u32)> = None;
            for i in 0..probes {
                let idx = (cursor + i) % window.len();
                let (score, p) =
                    self.best_partition(window[idx], &degrees, &v2p, &loads, max_load, min_load, k);
                if best.is_none_or(|(bs, _, _)| score > bs) {
                    best = Some((score, idx, p));
                }
            }
            let (_, idx, p) = best.expect("window non-empty");
            let edge = window.swap_remove(idx);
            cursor = if window.is_empty() {
                0
            } else {
                (idx + 1) % window.len()
            };

            v2p.set(edge.src, p);
            v2p.set(edge.dst, p);
            loads[p as usize] += 1;
            max_load = max_load.max(loads[p as usize]);
            out.push_flushing(edge, p)?;
        }
        out.flush()?;
        report.phases.record("partition", t.end());
        report.count("window", self.window as u64);
        report.count("probe", self.probe as u64);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdrf::HdrfPartitioner;
    use tps_core::sink::QualitySink;
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
        let g = gnm::generate(100, 700, 3);
        let m = quality(&mut AdwisePartitioner::default(), &g, 8);
        assert_eq!(m.num_edges, 700);
    }

    #[test]
    fn window_helps_on_buffer_sized_graph() {
        // Graph small enough to fit mostly inside the window: ADWISE should
        // beat plain HDRF (the paper observed this on OK/IT).
        let g = Dataset::It.generate_scaled(0.002);
        let adwise = quality(&mut AdwisePartitioner::default(), &g, 8);
        let hdrf = quality(&mut HdrfPartitioner::default(), &g, 8);
        assert!(
            adwise.replication_factor <= hdrf.replication_factor * 1.05,
            "adwise {} vs hdrf {}",
            adwise.replication_factor,
            hdrf.replication_factor
        );
    }

    #[test]
    fn tiny_window_still_correct() {
        let g = gnm::generate(50, 200, 8);
        let mut p = AdwisePartitioner {
            window: 2,
            probe: 2,
            ..Default::default()
        };
        let m = quality(&mut p, &g, 4);
        assert_eq!(m.num_edges, 200);
    }

    #[test]
    fn window_larger_than_graph() {
        let g = gnm::generate(30, 60, 5);
        let mut p = AdwisePartitioner {
            window: 10_000,
            probe: 32,
            ..Default::default()
        };
        let m = quality(&mut p, &g, 4);
        assert_eq!(m.num_edges, 60);
    }

    #[test]
    fn empty_graph() {
        let g = InMemoryGraph::from_edges(vec![]);
        let m = quality(&mut AdwisePartitioner::default(), &g, 4);
        assert_eq!(m.num_edges, 0);
    }
}
