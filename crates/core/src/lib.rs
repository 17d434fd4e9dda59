//! `tps-core` — the primary contribution of *Out-of-Core Edge Partitioning at
//! Linear Run-Time* (Mayer, Orujzade, Jacobsen; ICDE 2022): the **2PS-L**
//! edge partitioner, together with the partitioning framework shared by all
//! algorithms in this workspace.
//!
//! # The algorithm in one paragraph
//!
//! 2PS-L partitions the edge set of a graph into `k` balanced parts while
//! streaming it from external storage, in time linear in `|E|` and
//! *independent of `k`*. Phase 1 clusters vertices with a bounded-volume
//! streaming clustering (see [`tps_clustering`]). Phase 2 (a) packs clusters
//! onto partitions with Graham's sorted list scheduling, (b) pre-partitions
//! every edge whose endpoints land on the same partition, and (c) scores each
//! remaining edge against exactly **two** candidate partitions — the ones
//! associated with its endpoints' clusters — using a degree- and
//! cluster-volume-aware scoring function, under a hard `α·|E|/k` balance cap.
//!
//! # Crate layout
//!
//! * [`partitioner`] — the [`Partitioner`] trait,
//!   run parameters and reports; implemented by 2PS-L here and by every
//!   baseline in `tps-baselines`.
//! * [`sink`] — assignment sinks: where `(edge, partition)` decisions go
//!   (quality tracking, in-memory collection, per-partition files), and the
//!   bounded batch they travel in.
//! * [`balance`] — per-partition load accounting with the hard balance cap.
//! * [`two_phase`] — the 2PS-L implementation (and its 2PS-HDRF variant).
//! * [`parallel`] — the one 2PS-L driver and its per-shard kernels: a
//!   serial run is one shard, a `--threads N` job runs both
//!   phases with one worker per contiguous edge range (mergeable
//!   clustering state, one shared replication matrix, quota-sliced lock-free
//!   load reservation — see the module docs for the scheme and its
//!   determinism/quality bounds).
//! * [`job`] — the unified [`JobSpec`] builder describing a run (input,
//!   engine, execution knobs) for every front-end; the only entry point.
//! * [`runner`] — [`RunOutcome`], what a job returns.
//! * [`incremental`] — the dynamic-graph transformation (§VI): retained
//!   phase state, O(1) insert/remove, snapshot/restore — the write path of
//!   the `tps serve` daemon.
//!
//! # Quickstart
//!
//! ```
//! use tps_core::two_phase::{TwoPhaseConfig, TwoPhasePartitioner};
//! use tps_core::partitioner::{PartitionParams, Partitioner};
//! use tps_core::sink::QualitySink;
//! use tps_graph::datasets::Dataset;
//!
//! let graph = Dataset::Ok.generate_scaled(0.02);
//! let params = PartitionParams::new(8);
//! let mut partitioner = TwoPhasePartitioner::new(TwoPhaseConfig::default());
//! let mut sink = QualitySink::new(graph.num_vertices(), params.k);
//! let mut stream = graph.stream();
//! partitioner.partition(&mut stream, &params, &mut sink).unwrap();
//! let metrics = sink.finish();
//! assert_eq!(metrics.num_edges, graph.num_edges());
//! assert!(metrics.alpha <= params.alpha + 1e-9);
//! ```

pub mod balance;
pub mod incremental;
pub mod job;
pub mod parallel;
pub mod partitioner;
pub mod runner;
pub mod sink;
pub mod two_phase;

pub use job::{ExecPlan, InputProvider, JobEngine, JobInput, JobSpec, ThreadMode};
pub use partitioner::{PartitionParams, Partitioner, RunReport};
pub use runner::RunOutcome;
pub use sink::{AssignmentSink, NullSink, QualitySink, VecSink};
pub use two_phase::{RemainingStrategy, TwoPhaseConfig, TwoPhasePartitioner};
