//! Distributed graph-processing simulator — the substitute for the paper's
//! Spark/GraphX cluster in the end-to-end experiment (Table IV).
//!
//! The paper measures "partitioning time + static PageRank (100 iterations)
//! on 32 executors" and shows that neither the fastest partitioner (DBH) nor
//! the best-quality one (SNE/HEP-1) minimises the *total*; 2PS-L does,
//! because processing time grows with the replication factor while
//! partitioning time grows with the partitioner. This crate reproduces that
//! coupling mechanically:
//!
//! * [`layout`] — turns an edge partitioning into a PowerGraph-style
//!   master/mirror layout (masters on the lowest-id hosting partition).
//! * [`pagerank`] — *actually executes* PageRank over the partitioned graph
//!   with gather–apply–scatter synchronisation, counting real per-worker
//!   work and real mirror messages; results are validated against a
//!   single-machine reference.
//! * [`cost`] — converts the counted work into simulated wall-clock using a
//!   cluster cost model calibrated to the paper's setup (per-edge compute,
//!   per-replica sync, 10 GbE bandwidth, per-round latency), including the
//!   shuffle-disk budget that makes high-replication runs FAIL like DBH on
//!   WI in Table IV.
//!
//! The simulated times are *not* meant to match the paper's absolute seconds
//! (our graphs are ~1000× smaller); the preserved structure is the ordering
//! and the trade-off, which `repro --figure table4` prints.

pub mod components;
pub mod cost;
pub mod layout;
pub mod pagerank;

pub use components::{reference_components, run_components};
pub use cost::{ClusterCostModel, ProcessingOutcome, SpillError};
pub use layout::DistributedGraph;
pub use pagerank::{reference_pagerank, PageRankConfig};
