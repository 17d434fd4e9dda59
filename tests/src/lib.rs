//! Cross-crate integration tests for the `twophase` workspace.
//!
//! The actual tests live under `tests/` of this package:
//!
//! * `invariants.rs` — every partitioner assigns every edge exactly once;
//!   cap-enforcing partitioners respect `α·|E|/k`.
//! * `pipeline.rs` — graph → file → partition → distributed PageRank, with
//!   results validated against single-machine references.
//! * `properties.rs` — proptest properties over arbitrary graphs.
//! * `storage.rs` — device-stream accounting across full partitioner runs.
//!
//! This lib target only hosts shared helpers.

use std::io;

use tps_core::job::{JobSpec, ThreadMode};
use tps_core::partitioner::{PartitionParams, Partitioner, RunReport};
use tps_core::sink::AssignmentSink;
use tps_core::two_phase::TwoPhaseConfig;
use tps_graph::ranged::RangedEdgeSource;

/// A `--threads N` run of `config` over `source`, every assignment into
/// `sink`: the in-process reference the sharded kernels and `tps dist`
/// must reproduce.
pub fn threads_job(
    source: &dyn RangedEdgeSource,
    config: TwoPhaseConfig,
    params: &PartitionParams,
    threads: usize,
    sink: &mut dyn AssignmentSink,
) -> io::Result<RunReport> {
    JobSpec::ranged(source)
        .two_phase(config)
        .params(params)
        .threads(ThreadMode::Count(threads))
        .extra_sink(sink)
        .run()
        .map(|out| out.report)
}

/// Every partitioner in the workspace with default settings, including the
/// 2PS variants. `include_nondeterministic` adds DNE (thread-racy output).
pub fn full_roster(include_nondeterministic: bool) -> Vec<Box<dyn Partitioner>> {
    let mut v: Vec<Box<dyn Partitioner>> = vec![
        Box::new(tps_core::two_phase::TwoPhasePartitioner::new(
            TwoPhaseConfig::default(),
        )),
        Box::new(tps_core::two_phase::TwoPhasePartitioner::new(
            TwoPhaseConfig::hdrf_variant(),
        )),
        Box::new(tps_baselines::HdrfPartitioner::default()),
        Box::new(tps_baselines::GreedyPartitioner),
        Box::new(tps_baselines::DbhPartitioner::default()),
        Box::new(tps_baselines::GridPartitioner::default()),
        Box::new(tps_baselines::RandomPartitioner::default()),
        Box::new(tps_baselines::AdwisePartitioner::default()),
        Box::new(tps_baselines::NePartitioner),
        Box::new(tps_baselines::SnePartitioner::default()),
        Box::new(tps_baselines::HepPartitioner::with_tau(1.0)),
        Box::new(tps_baselines::HepPartitioner::with_tau(10.0)),
        Box::new(tps_baselines::MultilevelPartitioner::default()),
    ];
    if include_nondeterministic {
        v.push(Box::new(tps_baselines::DnePartitioner::default()));
    }
    v
}
