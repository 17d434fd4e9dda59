//! Phase 1 of 2PS-L: streaming vertex clustering.
//!
//! The paper (§III-A) extends the streaming clustering algorithm of Hollocou
//! et al. with two changes that make its output usable for balanced edge
//! partitioning:
//!
//! 1. **Exact degrees & bounded volumes** — degrees are computed upfront in a
//!    linear pass, cluster *volume* (sum of member degrees) is capped so that
//!    clusters remain packable into `k` balanced partitions.
//! 2. **Re-streaming** — the same pass can be repeated over the stream,
//!    refining vertex→cluster assignments with accumulated state (Fig. 7/8
//!    evaluate 1–8 passes).
//!
//! Modules:
//!
//! * [`model`] — the [`Clustering`] result type
//!   (vertex→cluster map + cluster volumes), its invariants, and the
//!   [`ClusterPlan`] phase 2 reads once it is frozen.
//! * [`table`] — the [`ClusterTable`] storage abstraction the streaming
//!   pass is generic over.
//! * [`paged`] — the budget-bounded, disk-backed
//!   [`PagedClustering`] (out-of-core mode).
//! * [`streaming`] — the 2PS-L clustering pass (Algorithm 1).
//! * [`merge`] — the volume-ordered merge of per-shard clusterings.
//!
//! ```
//! use tps_clustering::streaming::{cluster_stream, ClusteringConfig};
//! use tps_graph::degree::DegreeTable;
//! use tps_graph::datasets::Dataset;
//!
//! let graph = Dataset::It.generate_scaled(0.02);
//! let mut stream = graph.stream();
//! let degrees = DegreeTable::compute(&mut stream, graph.num_vertices()).unwrap();
//! let config = ClusteringConfig::for_partitions(32, 1.0, 1);
//! let clustering = cluster_stream(&mut stream, &degrees, &config).unwrap();
//! assert!(clustering.num_nonempty_clusters() > 1);
//! ```

pub mod merge;
pub mod model;
pub mod paged;
pub mod streaming;
pub mod table;

pub use merge::merge_clusterings;
pub use model::{ClusterPlan, Clustering, NO_CLUSTER};
pub use paged::{
    MemPageBacking, MemPageStoreProvider, PageBacking, PageStoreProvider, PagedClustering,
};
pub use streaming::{cluster_stream, clustering_pass_on, ClusteringConfig, VolumeCap};
pub use table::ClusterTable;
