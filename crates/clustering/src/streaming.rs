//! The 2PS-L streaming clustering pass (paper Algorithm 1).
//!
//! For every edge `(u, v)` of the stream:
//!
//! 1. endpoints without a cluster get a fresh singleton cluster whose volume
//!    is their **exact** degree (paper extension #1 — the original Hollocou
//!    algorithm uses partial degrees and cannot bound volumes);
//! 2. if both endpoint clusters are within the volume cap, the endpoint
//!    whose cluster has the smaller *residual* volume (volume minus own
//!    degree) migrates into the other endpoint's cluster — provided the
//!    target stays within the cap.
//!
//! Re-streaming (paper extension #2) repeats the same pass with retained
//! state; every visit of a vertex may refine its assignment.

use std::io;

use tps_graph::degree::DegreeTable;
use tps_graph::stream::{for_each_edge, EdgeStream};

use crate::model::{Clustering, NO_CLUSTER};
use crate::table::ClusterTable;

/// How the cluster volume cap is chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VolumeCap {
    /// `cap = fraction × Σ_v d(v)` — the paper's usage sets
    /// `fraction = volume_cap_factor / k` so a cluster never exceeds (a
    /// multiple of) one partition's fair share of volume.
    FractionOfTotal(f64),
    /// An explicit absolute cap.
    Explicit(u64),
    /// No cap (the original Hollocou behaviour; ablation only — partition
    /// balance can then force cutting through clusters).
    Unbounded,
}

impl VolumeCap {
    /// Resolve to an absolute volume bound given the total graph volume.
    pub fn resolve(self, total_volume: u64) -> u64 {
        match self {
            VolumeCap::FractionOfTotal(f) => {
                assert!(f > 0.0, "volume cap fraction must be positive");
                ((total_volume as f64 * f).ceil() as u64).max(1)
            }
            VolumeCap::Explicit(v) => v.max(1),
            VolumeCap::Unbounded => u64::MAX,
        }
    }
}

/// Configuration of the clustering phase.
#[derive(Clone, Copy, Debug)]
pub struct ClusteringConfig {
    /// Volume cap policy.
    pub cap: VolumeCap,
    /// Number of streaming passes (1 = no re-streaming, the paper's
    /// recommended default; Fig. 7/8 sweep 1–8).
    pub passes: u32,
}

impl ClusteringConfig {
    /// The paper's standard setting for partitioning into `k` parts:
    /// `cap = cap_factor × 2|E|/k`, `passes` streaming passes.
    pub fn for_partitions(k: u32, cap_factor: f64, passes: u32) -> Self {
        assert!(k > 0, "k must be positive");
        ClusteringConfig {
            cap: VolumeCap::FractionOfTotal(cap_factor / k as f64),
            passes,
        }
    }

    /// Single-pass clustering with the default cap factor 1.0.
    pub fn default_for_partitions(k: u32) -> Self {
        Self::for_partitions(k, 1.0, 1)
    }
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig {
            cap: VolumeCap::FractionOfTotal(1.0 / 32.0),
            passes: 1,
        }
    }
}

/// Run Algorithm 1: `config.passes` streaming passes over `stream` with
/// exact degrees from `degrees`.
///
/// Returns the final [`Clustering`]. The stream is reset before each pass.
pub fn cluster_stream<S: EdgeStream + ?Sized>(
    stream: &mut S,
    degrees: &DegreeTable,
    config: &ClusteringConfig,
) -> io::Result<Clustering> {
    assert!(
        config.passes >= 1,
        "at least one clustering pass is required"
    );
    let mut clustering = Clustering::empty(degrees.len() as u64);
    let max_vol = config.cap.resolve(degrees.total_volume());
    for _ in 0..config.passes {
        clustering_pass(stream, degrees, max_vol, &mut clustering)?;
    }
    Ok(clustering)
}

/// One streaming pass (Algorithm 1 lines 9–22), reusing existing state.
/// Exposed so callers can interleave passes with their own instrumentation
/// (the re-streaming experiment times each pass separately).
pub fn clustering_pass<S: EdgeStream + ?Sized>(
    stream: &mut S,
    degrees: &DegreeTable,
    max_vol: u64,
    clustering: &mut Clustering,
) -> io::Result<()> {
    clustering_pass_on(stream, degrees, max_vol, clustering)
}

/// [`clustering_pass`], generic over the cluster-state storage: the same
/// decision sequence runs against the flat in-memory [`Clustering`] or the
/// budget-bounded [`crate::paged::PagedClustering`], so the two decide
/// identically by construction (every read and write goes through the
/// same [`ClusterTable`] calls in the same order). A table that compacts
/// in [`ClusterTable::between_edges`] numbers its clusters differently
/// mid-pass, in the same order; after a [`Clustering::compact_ids`] of
/// both, the ids match too.
pub fn clustering_pass_on<S: EdgeStream + ?Sized, T: ClusterTable>(
    stream: &mut S,
    degrees: &DegreeTable,
    max_vol: u64,
    clustering: &mut T,
) -> io::Result<()> {
    for_each_edge(stream, |e| {
        clustering.between_edges();
        let (u, v) = (e.src, e.dst);
        // Lines 11–15: late cluster creation with exact-degree volume.
        let mut cu = clustering.cluster_of(u);
        if cu == NO_CLUSTER {
            cu = clustering.create_cluster(u, degrees.degree(u) as u64);
        }
        let mut cv = clustering.cluster_of(v);
        if cv == NO_CLUSTER {
            cv = clustering.create_cluster(v, degrees.degree(v) as u64);
        }
        if cu == cv {
            return; // same cluster (includes self-loops): nothing to migrate
        }
        // Line 16: both clusters must currently respect the cap.
        let vol_u = clustering.volume(cu);
        let vol_v = clustering.volume(cv);
        if vol_u > max_vol || vol_v > max_vol {
            return;
        }
        // Lines 17–18: the endpoint whose cluster has the smaller residual
        // volume (volume minus its own degree) is the migration candidate;
        // ties go to the first endpoint.
        let du = degrees.degree(u) as u64;
        let dv = degrees.degree(v) as u64;
        let (vs, ds, cs, cl) = if vol_u.saturating_sub(du) <= vol_v.saturating_sub(dv) {
            (u, du, cu, cv)
        } else {
            (v, dv, cv, cu)
        };
        let _ = cs;
        // Lines 19–22: migrate if the target stays within the cap.
        if clustering.volume(cl) + ds <= max_vol {
            clustering.migrate(vs, ds, cl);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_graph::gen::planted::PlantedConfig;
    use tps_graph::gen::{planted, GenOptions};
    use tps_graph::stream::InMemoryGraph;
    use tps_graph::types::Edge;

    fn degrees_of(g: &InMemoryGraph) -> DegreeTable {
        let mut s = g.stream();
        DegreeTable::compute(&mut s, g.num_vertices()).unwrap()
    }

    /// Two triangles joined by a single bridge edge.
    fn two_triangles() -> InMemoryGraph {
        InMemoryGraph::from_edges(vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 0),
            Edge::new(3, 4),
            Edge::new(4, 5),
            Edge::new(5, 3),
            Edge::new(2, 3), // bridge
        ])
    }

    #[test]
    fn clusters_triangles_together() {
        let g = two_triangles();
        let d = degrees_of(&g);
        let mut s = g.stream();
        let cfg = ClusteringConfig {
            cap: VolumeCap::FractionOfTotal(0.5),
            passes: 2,
        };
        let c = cluster_stream(&mut s, &d, &cfg).unwrap();
        // Vertices of the same triangle should share a cluster.
        assert_eq!(c.cluster_of(0), c.cluster_of(1));
        assert_eq!(c.cluster_of(1), c.cluster_of(2));
        assert_eq!(c.cluster_of(3), c.cluster_of(4));
        assert_eq!(c.cluster_of(4), c.cluster_of(5));
        c.check_volume_invariant(&d).unwrap();
    }

    #[test]
    fn volume_invariant_holds_after_each_pass_count() {
        let g = planted::generate(&PlantedConfig::web(500, 2500), 3);
        let d = degrees_of(&g);
        for passes in 1..=4 {
            let mut s = g.stream();
            let cfg = ClusteringConfig {
                cap: VolumeCap::FractionOfTotal(1.0 / 8.0),
                passes,
            };
            let c = cluster_stream(&mut s, &d, &cfg).unwrap();
            c.check_volume_invariant(&d).unwrap();
        }
    }

    #[test]
    fn multi_member_clusters_respect_cap() {
        let g = planted::generate(&PlantedConfig::web(1000, 6000), 9);
        let d = degrees_of(&g);
        let total = d.total_volume();
        let cap = VolumeCap::FractionOfTotal(1.0 / 16.0);
        let abs_cap = cap.resolve(total);
        let mut s = g.stream();
        let c = cluster_stream(&mut s, &d, &ClusteringConfig { cap, passes: 1 }).unwrap();
        // Count members per cluster; multi-member clusters must be ≤ cap
        // (singletons may exceed it if one vertex's degree already does).
        let mut members = vec![0u32; c.num_cluster_ids() as usize];
        for v in 0..g.num_vertices() as u32 {
            if let Some(cl) = c.cluster_of(v) {
                members[cl as usize] += 1;
            }
        }
        for (cl, &m) in members.iter().enumerate() {
            if m >= 2 {
                assert!(
                    c.volume(cl as u32) <= abs_cap,
                    "cluster {cl} with {m} members has volume {} > cap {abs_cap}",
                    c.volume(cl as u32)
                );
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = planted::generate(&PlantedConfig::web(300, 1500), 5);
        let d = degrees_of(&g);
        let cfg = ClusteringConfig::default_for_partitions(8);
        let mut s1 = g.stream();
        let a = cluster_stream(&mut s1, &d, &cfg).unwrap();
        let mut s2 = g.stream();
        let b = cluster_stream(&mut s2, &d, &cfg).unwrap();
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(a.cluster_of(v), b.cluster_of(v));
        }
    }

    #[test]
    fn empty_stream_produces_empty_clustering() {
        let g = InMemoryGraph::from_edges(vec![]);
        let d = degrees_of(&g);
        let mut s = g.stream();
        let c = cluster_stream(&mut s, &d, &ClusteringConfig::default()).unwrap();
        assert_eq!(c.num_cluster_ids(), 0);
    }

    #[test]
    fn self_loops_get_a_cluster_without_migration() {
        let g = InMemoryGraph::from_edges(vec![Edge::new(0, 0), Edge::new(1, 2)]);
        let d = degrees_of(&g);
        let mut s = g.stream();
        let c = cluster_stream(&mut s, &d, &ClusteringConfig::default()).unwrap();
        assert!(c.cluster_of(0).is_some());
        c.check_volume_invariant(&d).unwrap();
    }

    #[test]
    fn unbounded_cap_merges_connected_graph_into_one_cluster() {
        // On a path graph with unbounded volumes, repeated passes glue
        // everything into a single cluster.
        let edges: Vec<Edge> = (0..20).map(|i| Edge::new(i, i + 1)).collect();
        let g = InMemoryGraph::from_edges(edges);
        let d = degrees_of(&g);
        let mut s = g.stream();
        let cfg = ClusteringConfig {
            cap: VolumeCap::Unbounded,
            passes: 8,
        };
        let c = cluster_stream(&mut s, &d, &cfg).unwrap();
        assert_eq!(c.num_nonempty_clusters(), 1);
        c.check_volume_invariant(&d).unwrap();
    }

    #[test]
    fn restreaming_does_not_hurt_planted_recovery() {
        // Intra-cluster edge fraction should not degrade with more passes.
        let cfg_graph = PlantedConfig {
            opts: GenOptions {
                shuffle_edges: true,
                ..PlantedConfig::web(2_000, 12_000).opts
            },
            ..PlantedConfig::web(2_000, 12_000)
        };
        let g = planted::generate(&cfg_graph, 21);
        let d = degrees_of(&g);
        let frac = |passes: u32| -> f64 {
            let mut s = g.stream();
            let c = cluster_stream(
                &mut s,
                &d,
                &ClusteringConfig {
                    cap: VolumeCap::FractionOfTotal(1.0 / 4.0),
                    passes,
                },
            )
            .unwrap();
            let intra = g
                .edges()
                .iter()
                .filter(|e| c.cluster_of(e.src) == c.cluster_of(e.dst))
                .count();
            intra as f64 / g.num_edges() as f64
        };
        let one = frac(1);
        let four = frac(4);
        assert!(one > 0.3, "single pass already finds structure, got {one}");
        assert!(four >= one - 0.05, "re-streaming degraded: {one} -> {four}");
    }

    #[test]
    fn cap_resolution() {
        assert_eq!(VolumeCap::FractionOfTotal(0.25).resolve(100), 25);
        assert_eq!(VolumeCap::Explicit(7).resolve(100), 7);
        assert_eq!(VolumeCap::Unbounded.resolve(100), u64::MAX);
        // Ceil and floor-at-1 behaviour.
        assert_eq!(VolumeCap::FractionOfTotal(0.001).resolve(100), 1);
    }
}
