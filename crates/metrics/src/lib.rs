//! Measurement substrate for the `twophase` workspace.
//!
//! Everything the paper's evaluation *measures* lives here, kept strictly
//! separate from the algorithms: the replication state and the quality
//! formula are defined once, and a tracker that recounts quality from the
//! emitted assignments is the reference for whoever else reports it:
//!
//! * [`bitmatrix`] — the vertex×partition replication bit matrix (the
//!   `O(|V|·k)` structure of Table II) and the [`bitmatrix::ReplicaSet`]
//!   interface the phase-2 kernels are generic over.
//! * [`atomic`] — the **shared** atomic variant of that matrix (word-level
//!   `fetch_or`), which keeps the chunk-parallel runner at the serial
//!   `O(|V|·k)` bound instead of `O(T·|V|·k)`.
//! * [`quality`] — replication factor, balance and load metrics
//!   (paper §II-A): computed from a finished replication state, and the
//!   edge-by-edge tracker that is their reference.
//! * [`alloc`] — a counting global allocator: the repo-local proxy for the
//!   paper's "maximum resident set size" plots (Fig. 4, right column).
//! * [`stats`] — mean / standard deviation over repeated runs (the paper
//!   reports 3-run means with error bars).
//! * [`table`] — aligned text tables and CSV output for the bench binaries.

pub mod alloc;
pub mod atomic;
pub mod bitmatrix;
pub mod quality;
pub mod stats;
pub mod table;

pub use atomic::{AtomicReplicationMatrix, SharedReplicaView};
pub use bitmatrix::{ReplicaCensus, ReplicaSet, ReplicationMatrix};
pub use quality::{PartitionMetrics, QualityTracker};
