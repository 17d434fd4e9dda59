//! Graph substrate for the `twophase` edge-partitioning workspace.
//!
//! This crate provides everything the partitioners need to *observe* a graph
//! without materialising it in memory:
//!
//! * [`types`] — vertex / edge / partition identifier types shared by the
//!   whole workspace.
//! * [`stream`] — the [`EdgeStream`] abstraction: a
//!   resettable, multi-pass, one-edge-at-a-time view of an edge list. This is
//!   the out-of-core contract from the paper: space consumption of a consumer
//!   must be independent of `|E|`.
//! * [`formats`] — the binary edge-list format from the paper (pairs of
//!   little-endian 32-bit vertex ids) and a whitespace text format, with
//!   streaming readers and writers.
//! * [`degree`] — the linear-time out-of-core degree pass (phase 0 of 2PS-L).
//! * [`csr`] — a compressed-sparse-row adjacency representation for the
//!   *in-memory* baseline partitioners (NE, DNE, HEP, multilevel).
//! * [`gen`] — deterministic synthetic graph generators (R-MAT for skewed
//!   social-network-like graphs, planted partitions for community-heavy web
//!   graphs, G(n,m) for noise).
//! * [`datasets`] — the registry of scaled-down stand-ins for the paper's
//!   seven real-world graphs (Table III) plus the Wikipedia graph of Table IV.
//! * [`hash`] — the deterministic 64-bit mixers used by the stateless
//!   partitioners.
//! * [`packed`] — per-vertex `u32` tables in the bytes their largest value
//!   needs (the degree table, phase 2's vertex→cluster map).
//!
//! # Quick example
//!
//! ```
//! use tps_graph::datasets::Dataset;
//! use tps_graph::stream::EdgeStream;
//!
//! // A tiny deterministic stand-in for the paper's com-orkut graph.
//! let graph = Dataset::Ok.generate_scaled(0.01);
//! let mut stream = graph.stream();
//! let mut edges = 0u64;
//! while let Some(_edge) = stream.next_edge().unwrap() {
//!     edges += 1;
//! }
//! assert_eq!(edges, stream.len_hint().unwrap());
//! ```

pub mod csr;
pub mod datasets;
pub mod degree;
pub mod formats;
pub mod gen;
pub mod hash;
pub mod packed;
pub mod ranged;
pub mod stream;
pub mod types;

pub use stream::{EdgeStream, InMemoryGraph};
pub use types::{Edge, PartitionId, VertexId};
