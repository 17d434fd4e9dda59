//! The loopback runner: a full coordinator/worker job in one process.
//!
//! Workers run on scoped threads, connected to the coordinator through
//! [`loopback_pair`] channel transports. Every frame that would cross a
//! socket crosses a channel instead — byte for byte the same protocol —
//! which makes this the deterministic, socket-free reference deployment:
//! the `dist_scaling` bench measures it and the CI `dist-smoke` job diffs
//! its output against `--threads N`.

use std::io;

use tps_core::partitioner::{PartitionParams, RunReport};
use tps_core::sink::AssignmentSink;
use tps_core::two_phase::TwoPhaseConfig;
use tps_graph::ranged::RangedEdgeSource;

use crate::coordinator::{run_coordinator, FaultPolicy, NoReplacements};
use crate::protocol::InputDescriptor;
use crate::transport::{loopback_pair, Transport};
use crate::worker::{run_worker, AttachedResolver};

/// Partition `source` with `workers` loopback workers, emitting into `sink`
/// in shard order. Deterministic for a fixed worker count and bit-identical
/// to a `--threads N` job at N = `workers` (see `tests/tests/dist.rs`).
/// Loopback workers cannot die spontaneously, so the run uses the fail-fast
/// [`FaultPolicy`]; the chaos tests drive `run_coordinator` directly with
/// fault-injecting transports and a respawning supply.
pub fn run_dist_local(
    source: &dyn RangedEdgeSource,
    config: &TwoPhaseConfig,
    params: &PartitionParams,
    workers: usize,
    sink: &mut dyn AssignmentSink,
) -> io::Result<RunReport> {
    let workers = workers.max(1);
    let mut coordinator_sides: Vec<Box<dyn Transport>> = Vec::with_capacity(workers);
    let mut worker_sides = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (c, w) = loopback_pair();
        coordinator_sides.push(Box::new(c));
        worker_sides.push(w);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = worker_sides
            .into_iter()
            .map(|mut t| scope.spawn(move || run_worker(&mut t, &AttachedResolver(source))))
            .collect();
        let report = run_coordinator(
            config,
            params,
            source.info(),
            &InputDescriptor::Attached,
            workers,
            coordinator_sides,
            &mut NoReplacements,
            &FaultPolicy::default(),
            0,
            sink,
        );
        // Coordinator failures drop the channels, so workers always unblock;
        // prefer the coordinator's error, else surface the first worker's.
        let mut worker_err = None;
        for h in handles {
            if let Err(e) = h.join().expect("dist worker thread panicked") {
                worker_err.get_or_insert(e);
            }
        }
        match (report, worker_err) {
            (Ok(r), None) => Ok(r),
            (Err(e), _) => Err(e),
            (Ok(_), Some(e)) => Err(e),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::job::{JobSpec, ThreadMode};
    use tps_core::runner::RunOutcome;
    use tps_core::sink::VecSink;
    use tps_graph::datasets::Dataset;
    use tps_graph::stream::InMemoryGraph;
    use tps_graph::types::Edge;

    fn dist(g: &InMemoryGraph, k: u32, workers: usize) -> (Vec<(Edge, u32)>, RunReport) {
        let mut sink = VecSink::new();
        let report = run_dist_local(
            g,
            &TwoPhaseConfig::default(),
            &PartitionParams::new(k),
            workers,
            &mut sink,
        )
        .unwrap();
        (sink.into_assignments(), report)
    }

    /// The in-process `--threads` job the loopback run must reproduce.
    fn threads_job(
        g: &InMemoryGraph,
        config: TwoPhaseConfig,
        k: u32,
        threads: usize,
        sink: &mut VecSink,
    ) -> RunOutcome {
        JobSpec::ranged(g)
            .two_phase(config)
            .params(&PartitionParams::new(k))
            .threads(ThreadMode::Count(threads))
            .extra_sink(sink)
            .run()
            .unwrap()
    }

    #[test]
    fn loopback_matches_parallel_runner_bit_for_bit() {
        let g = Dataset::Ok.generate_scaled(0.02);
        for workers in [1usize, 2, 3, 4] {
            let mut expected = VecSink::new();
            let runner_report =
                threads_job(&g, TwoPhaseConfig::default(), 16, workers, &mut expected).report;
            let mut sink = VecSink::new();
            let report = run_dist_local(
                &g,
                &TwoPhaseConfig::default(),
                &PartitionParams::new(16),
                workers,
                &mut sink,
            )
            .unwrap();
            assert_eq!(
                sink.assignments(),
                expected.assignments(),
                "workers = {workers}"
            );
            // Counter parity (phases/timing aside): same decisions, same counts.
            for key in [
                "prepartitioned",
                "prepartition_overflow",
                "remaining",
                "fallback_hash",
                "fallback_least_loaded",
                "cap_overshoot",
                "clusters",
                "cluster_volume_cap",
                "max_cluster_volume",
            ] {
                assert_eq!(
                    report.counter(key),
                    runner_report.counter(key),
                    "counter {key} at {workers} workers"
                );
            }
            assert_eq!(report.counter("workers"), workers as u64);
        }
    }

    #[test]
    fn hdrf_variant_and_restreaming_run_distributed() {
        let g = Dataset::It.generate_scaled(0.01);
        for config in [
            TwoPhaseConfig::hdrf_variant(),
            TwoPhaseConfig::with_passes(2),
        ] {
            let mut expected = VecSink::new();
            threads_job(&g, config, 8, 2, &mut expected);
            let mut sink = VecSink::new();
            run_dist_local(&g, &config, &PartitionParams::new(8), 2, &mut sink).unwrap();
            assert_eq!(sink.assignments(), expected.assignments());
        }
    }

    #[test]
    fn prepartitioning_disabled_skips_the_replication_barrier() {
        let g = Dataset::Ok.generate_scaled(0.01);
        let config = TwoPhaseConfig {
            prepartitioning: false,
            ..Default::default()
        };
        let mut expected = VecSink::new();
        threads_job(&g, config, 8, 3, &mut expected);
        let mut sink = VecSink::new();
        run_dist_local(&g, &config, &PartitionParams::new(8), 3, &mut sink).unwrap();
        assert_eq!(sink.assignments(), expected.assignments());
    }

    #[test]
    fn empty_graph_is_a_noop_with_clean_shutdown() {
        let g = InMemoryGraph::from_edges(vec![]);
        let (assignments, report) = dist(&g, 4, 3);
        assert!(assignments.is_empty());
        assert_eq!(report.counter("workers"), 0);
    }

    #[test]
    fn more_workers_than_edges_still_assigns_all() {
        let g = InMemoryGraph::from_edges(vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)]);
        let (assignments, _) = dist(&g, 2, 8);
        assert_eq!(assignments.len(), 3);
    }
}
