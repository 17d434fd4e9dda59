//! Chunk-parallel execution of the per-edge streaming baselines (HDRF, DBH)
//! over the same [`RangedEdgeSource`] substrate as the 2PS runners — the
//! paper's Fig. 4 comparison extended with a threads axis.
//!
//! Both baselines stream once over the edges after an exact degree pass, so
//! they parallelise over contiguous edge-index ranges exactly like phase 2
//! of 2PS-L:
//!
//! * **DBH** is stateless given the (merged, exact) degree table — each
//!   worker hashes its range independently, and because the per-edge
//!   decision is a pure function of the edge and the global degrees, the
//!   output is **identical to the serial DBH run at every thread count**
//!   (worker-order replay of contiguous ranges reproduces the input order).
//! * **HDRF** is stateful (replica matrix + load vector): each worker keeps
//!   its own scoring state over its range. One worker reproduces the serial
//!   exact-degree HDRF bit for bit; at higher thread counts the replication
//!   factor degrades *more steeply* than parallel 2PS-L's (roughly 1.5×
//!   serial at 2 threads, 2× at 4 on the R-MAT stand-ins), because HDRF has
//!   no pre-partitioning barrier at which replica state could be merged —
//!   every placement depends on all previous ones. That contrast is itself
//!   a Fig. 4 data point: 2PS-L's two-phase structure is what makes it
//!   parallelise without that loss.
//!
//! Each worker counts its placements per partition and commits the counts
//! to the shared [`AtomicLoads`] ledger once, after its loop — which is
//! where the merged per-partition loads in the report come from. It is the
//! same off-the-edge-path accounting the 2PS parallel runner uses (the
//! baselines enforce no hard cap, so the ledger's cap is only a reporting
//! reference).

use std::io;

use tps_core::balance::AtomicLoads;
use tps_core::parallel::{merge_degree_tables, run_workers, shard_degrees};
use tps_core::partitioner::{PartitionParams, RunReport};
use tps_core::sink::{assign_in_runs, AssignmentSink};
use tps_core::two_phase::scoring::HdrfParams;
use tps_graph::degree::DegreeTable;
use tps_graph::hash::seeded_hash_to_partition;
use tps_graph::ranged::{split_even, RangedEdgeSource};
use tps_graph::stream::for_each_edge;
use tps_graph::types::{Edge, PartitionId};

use crate::hdrf::HdrfScorer;
use crate::stateless::DbhPartitioner;

/// Which per-edge streaming baseline to run.
#[derive(Clone, Copy, Debug)]
pub enum StreamingBaseline {
    /// Degree-based hashing with the given seed (exact degrees).
    Dbh {
        /// Hash seed (defaults to [`DbhPartitioner`]'s).
        seed: u64,
    },
    /// HDRF with exact degrees (the `partial_degrees: false` ablation —
    /// partial degree counting is inherently sequential).
    Hdrf(HdrfParams),
}

impl StreamingBaseline {
    /// DBH with the default seed.
    pub fn dbh() -> Self {
        StreamingBaseline::Dbh {
            seed: DbhPartitioner::default().seed,
        }
    }

    /// HDRF with default parameters.
    pub fn hdrf() -> Self {
        StreamingBaseline::Hdrf(HdrfParams::default())
    }
}

/// Chunk-parallel runner for the streaming baselines.
#[derive(Clone, Copy, Debug)]
pub struct ParallelBaselineRunner {
    algo: StreamingBaseline,
    threads: usize,
}

impl ParallelBaselineRunner {
    /// A runner executing `algo` on `threads` workers (`0` selects
    /// [`std::thread::available_parallelism`]).
    pub fn new(algo: StreamingBaseline, threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        ParallelBaselineRunner { algo, threads }
    }

    /// The worker thread count in use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Algorithm name with a thread tag, like the 2PS parallel runner's.
    pub fn name(&self) -> String {
        let base = match self.algo {
            StreamingBaseline::Dbh { .. } => "DBH",
            StreamingBaseline::Hdrf(_) => "HDRF",
        };
        format!("{base}×{}", self.threads)
    }

    /// Partition `source` into `params.k` parts, emitting into `sink` in
    /// deterministic worker order.
    pub fn partition(
        &self,
        source: &dyn RangedEdgeSource,
        params: &PartitionParams,
        sink: &mut dyn AssignmentSink,
    ) -> io::Result<RunReport> {
        let mut report = RunReport::default();
        let info = source.info();
        if info.num_edges == 0 {
            return Ok(report);
        }
        let threads = self.threads.max(1);
        let ranges = split_even(info.num_edges, threads);

        // Exact degree pass, parallel and merged (both baselines share it;
        // serial DBH computes the identical table from one cursor).
        let t0 = tps_obs::span("degree");
        let tables = run_workers(&ranges, |_, range| {
            shard_degrees(source, range, info.num_vertices)
        })?;
        let degrees = merge_degree_tables(tables);
        report.phases.record("degree", t0.end());

        // Assignment pass: per-worker streaming state, shared load ledger.
        let t1 = tps_obs::span("partition");
        let ledger = AtomicLoads::new(params.k, info.num_edges, params.alpha);
        let algo = self.algo;
        let buffers = run_workers(&ranges, |_, (a, b)| {
            let mut out: Vec<(Edge, PartitionId)> = Vec::with_capacity((b - a) as usize);
            let mut placed = vec![0u64; params.k as usize];
            let mut stream = source.open_range(a, b)?;
            match algo {
                StreamingBaseline::Dbh { seed } => {
                    for_each_edge(&mut *stream, |e| {
                        let p = dbh_target(&degrees, e, seed, params.k);
                        placed[p as usize] += 1;
                        out.push((e, p));
                    })?;
                }
                StreamingBaseline::Hdrf(hdrf) => {
                    let mut scorer = HdrfScorer::new(info.num_vertices, params.k, hdrf);
                    for_each_edge(&mut *stream, |e| {
                        let du = degrees.degree(e.src) as u64;
                        let dv = degrees.degree(e.dst) as u64;
                        let p = scorer.place(e, du, dv);
                        placed[p as usize] += 1;
                        out.push((e, p));
                    })?;
                }
            }
            for (p, &n) in placed.iter().enumerate() {
                ledger.commit(p as PartitionId, n);
            }
            Ok(out)
        })?;
        report.phases.record("partition", t1.end());

        // Emit in worker order (= input order: the ranges are contiguous).
        let t2 = tps_obs::span("emit");
        for buf in buffers {
            assign_in_runs(sink, &buf)?;
        }
        report.phases.record("emit", t2.end());

        debug_assert_eq!(ledger.total(), info.num_edges);
        report.count("threads", threads as u64);
        report.count(
            "ledger_max_load",
            ledger.snapshot().into_iter().max().unwrap_or(0),
        );
        Ok(report)
    }
}

/// The DBH decision: hash the lower-degree endpoint (ties keep the first),
/// shared verbatim with [`DbhPartitioner`].
#[inline]
fn dbh_target(degrees: &DegreeTable, e: Edge, seed: u64, k: u32) -> PartitionId {
    let v = if degrees.degree(e.src) <= degrees.degree(e.dst) {
        e.src
    } else {
        e.dst
    };
    seeded_hash_to_partition(v, seed, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdrf::HdrfPartitioner;
    use tps_core::partitioner::Partitioner;
    use tps_core::sink::{QualitySink, VecSink};
    use tps_graph::datasets::Dataset;
    use tps_graph::stream::InMemoryGraph;

    fn parallel(
        algo: StreamingBaseline,
        g: &InMemoryGraph,
        k: u32,
        threads: usize,
    ) -> Vec<(Edge, u32)> {
        let mut sink = VecSink::new();
        ParallelBaselineRunner::new(algo, threads)
            .partition(g, &PartitionParams::new(k), &mut sink)
            .unwrap();
        sink.into_assignments()
    }

    #[test]
    fn parallel_dbh_is_identical_to_serial_at_every_thread_count() {
        let g = Dataset::Tw.generate_scaled(0.02);
        let mut serial = VecSink::new();
        DbhPartitioner::default()
            .partition(&mut g.stream(), &PartitionParams::new(16), &mut serial)
            .unwrap();
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(
                parallel(StreamingBaseline::dbh(), &g, 16, threads),
                serial.assignments(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn one_worker_hdrf_matches_serial_exact_degree_hdrf() {
        let g = Dataset::Ok.generate_scaled(0.02);
        let mut serial = VecSink::new();
        HdrfPartitioner {
            partial_degrees: false,
            ..Default::default()
        }
        .partition(&mut g.stream(), &PartitionParams::new(8), &mut serial)
        .unwrap();
        assert_eq!(
            parallel(StreamingBaseline::hdrf(), &g, 8, 1),
            serial.assignments()
        );
    }

    #[test]
    fn parallel_hdrf_assigns_all_edges_with_bounded_quality_loss() {
        let g = Dataset::Ok.generate_scaled(0.03);
        let k = 16;
        let mut serial_sink = QualitySink::new(g.num_vertices(), k);
        HdrfPartitioner {
            partial_degrees: false,
            ..Default::default()
        }
        .partition(&mut g.stream(), &PartitionParams::new(k), &mut serial_sink)
        .unwrap();
        let serial_rf = serial_sink.finish().replication_factor;
        for (threads, eps) in [(2usize, 1.6), (4, 2.2)] {
            let mut sink = QualitySink::new(g.num_vertices(), k);
            let report = ParallelBaselineRunner::new(StreamingBaseline::hdrf(), threads)
                .partition(&g, &PartitionParams::new(k), &mut sink)
                .unwrap();
            let m = sink.finish();
            assert_eq!(m.num_edges, g.num_edges());
            assert_eq!(report.counter("threads"), threads as u64);
            // HDRF has no barrier to merge replica state at, so its parallel
            // quality loss is steeper than 2PS-L's (see module docs).
            assert!(
                m.replication_factor <= serial_rf * eps + 0.05,
                "threads {threads}: rf {} vs serial {serial_rf} (eps {eps})",
                m.replication_factor
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_thread_count() {
        let g = Dataset::It.generate_scaled(0.01);
        for algo in [StreamingBaseline::dbh(), StreamingBaseline::hdrf()] {
            let a = parallel(algo, &g, 8, 4);
            let b = parallel(algo, &g, 8, 4);
            assert_eq!(a, b, "{algo:?}");
        }
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = InMemoryGraph::from_edges(vec![]);
        assert!(parallel(StreamingBaseline::dbh(), &g, 4, 4).is_empty());
    }

    #[test]
    fn names_carry_thread_tags() {
        assert_eq!(
            ParallelBaselineRunner::new(StreamingBaseline::dbh(), 4).name(),
            "DBH×4"
        );
        assert_eq!(
            ParallelBaselineRunner::new(StreamingBaseline::hdrf(), 2).name(),
            "HDRF×2"
        );
        assert!(ParallelBaselineRunner::new(StreamingBaseline::dbh(), 0).threads() >= 1);
    }
}
