//! Planted-partition (stochastic-block) generator with power-law community
//! sizes — the stand-in for the paper's web graphs (it-2004, uk-2007-05,
//! gsh-2015, wdc-2014).
//!
//! Web crawls have pronounced community structure (per-host/per-domain link
//! locality) and id locality (crawl order groups pages of a host). This
//! generator reproduces both:
//!
//! * community sizes follow a truncated Pareto distribution,
//! * a `1 - mixing` fraction of edges is intra-community, sampled with a
//!   skewed within-community endpoint distribution (hub pages),
//! * ids are assigned community-by-community (high id locality), mirroring
//!   crawl-ordered web datasets.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{relabel, sample_distinct, GenOptions};
use crate::stream::InMemoryGraph;
use crate::types::Edge;

/// Planted-partition generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct PlantedConfig {
    /// Number of vertices before compaction.
    pub vertices: u64,
    /// Number of edges to sample (distinct count after dedup slightly lower;
    /// `generate` oversamples to compensate).
    pub edges: u64,
    /// Fraction of edges whose endpoints are drawn from *different*
    /// communities (the LFR "mixing parameter" µ). Web graphs: 0.05–0.15.
    pub mixing: f64,
    /// Pareto shape for community sizes (smaller = more skewed). ~1.5–2.5.
    pub community_exponent: f64,
    /// Minimum community size.
    pub min_community: u64,
    /// Maximum community size (caps giant communities; also the natural
    /// counterpart of 2PS-L's cluster volume cap).
    pub max_community: u64,
    /// Within-community endpoint skew `γ ≥ 1`: member index is drawn as
    /// `⌊size · u^γ⌋`, so γ = 1 is uniform and larger γ concentrates edges on
    /// few hub members.
    pub hub_skew: f64,
    /// Post-processing options.
    pub opts: GenOptions,
}

impl PlantedConfig {
    /// Web-graph-like defaults: strong communities, strong id locality.
    ///
    /// Community sizes are intentionally independent of `vertices`: real web
    /// communities (hosts/domains) are tiny relative to `|V|`, and the whole
    /// premise of 2PS-L's volume cap (`2|E|/k`, i.e. ~`|V|/k` vertices' worth
    /// of volume) is that communities fit under it for every evaluated `k`.
    /// Two constraints pin the size range:
    ///
    /// * feasibility of intra-density — members must be able to host most of
    ///   their edges inside the community, so `size ≳ 2 × mean degree`
    ///   (datasets built on this config keep mean degree ≈ 16);
    /// * the cap — `size ≤ |V|/k` for every evaluated `k` (≤ 256).
    ///
    /// Sizes in `[32, 128]` satisfy both for all scaled datasets.
    pub fn web(vertices: u64, edges: u64) -> Self {
        PlantedConfig {
            vertices,
            edges,
            mixing: 0.08,
            community_exponent: 2.0,
            min_community: 32,
            max_community: 128,
            hub_skew: 1.5,
            opts: GenOptions {
                permute_ids: false, // keep crawl-order locality
                ..Default::default()
            },
        }
    }
}

/// Draw community sizes until they cover `cfg.vertices`.
fn draw_communities(cfg: &PlantedConfig, rng: &mut SmallRng) -> Vec<(u64, u64)> {
    // Returns (start_id, size) per community.
    let mut communities = Vec::new();
    let mut covered = 0u64;
    while covered < cfg.vertices {
        // Truncated Pareto via inverse transform.
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let raw = cfg.min_community as f64 / u.powf(1.0 / cfg.community_exponent);
        let size = (raw as u64)
            .clamp(cfg.min_community, cfg.max_community)
            .min(cfg.vertices - covered);
        communities.push((covered, size));
        covered += size;
    }
    communities
}

/// Pick a member of a community with hub skew.
#[inline]
fn pick_member(start: u64, size: u64, skew: f64, rng: &mut SmallRng) -> u32 {
    let u: f64 = rng.gen();
    let idx = ((size as f64) * u.powf(skew)) as u64;
    (start + idx.min(size - 1)) as u32
}

/// Generate a planted-partition graph with (close to) `cfg.edges` distinct
/// edges. Community sampling is weighted by community size so that the
/// expected degree is roughly uniform across communities before hub skew.
pub fn generate(cfg: &PlantedConfig, seed: u64) -> InMemoryGraph {
    assert!(cfg.vertices >= 2, "need at least two vertices");
    assert!((0.0..=1.0).contains(&cfg.mixing), "mixing must be in [0,1]");
    let mut rng = SmallRng::seed_from_u64(seed);
    let communities = draw_communities(cfg, &mut rng);

    // Cumulative sizes for size-weighted community sampling.
    let mut cum: Vec<u64> = Vec::with_capacity(communities.len());
    let mut acc = 0u64;
    for &(_, size) in &communities {
        acc += size;
        cum.push(acc);
    }
    let total = acc;

    let pick_community = |rng: &mut SmallRng| -> usize {
        let t = rng.gen_range(0..total);
        cum.partition_point(|&c| c <= t)
    };

    let max_attempts = cfg.edges.saturating_mul(30).max(1000);
    // Duplicate samples concentrate on intra-community pairs (small, skewed
    // communities saturate first); if a rejected sample were simply redrawn
    // from scratch the effective mixing would drift far above the nominal µ.
    // Instead we re-draw endpoints *within the same intra/inter decision* a
    // few times before giving the slot up.
    const RETRIES_PER_DECISION: u32 = 8;
    let edges = sample_distinct(
        &mut rng,
        cfg.edges,
        max_attempts,
        RETRIES_PER_DECISION,
        cfg.opts.dedup,
        |rng| {
            let ci = pick_community(rng);
            let inter = rng.gen::<f64>() < cfg.mixing || communities[ci].1 < 2;
            (ci, inter)
        },
        |&(ci, inter), rng| {
            let (start, size) = communities[ci];
            let (u, v) = if inter {
                // Inter-community edge: second endpoint from another community.
                let mut cj = pick_community(rng);
                if communities.len() > 1 {
                    while cj == ci {
                        cj = pick_community(rng);
                    }
                }
                let (s2, z2) = communities[cj];
                (
                    pick_member(start, size, cfg.hub_skew, rng),
                    pick_member(s2, z2, cfg.hub_skew, rng),
                )
            } else {
                (
                    pick_member(start, size, cfg.hub_skew, rng),
                    pick_member(start, size, cfg.hub_skew, rng),
                )
            };
            let e = Edge::new(u, v);
            (!(cfg.opts.drop_self_loops && e.is_self_loop())).then_some(e)
        },
    );
    relabel(edges, cfg.opts, seed)
}

/// The ground-truth community of a vertex id under a given config+seed
/// (before compaction). Used by tests to check the clustering phase recovers
/// planted structure.
pub fn ground_truth_communities(cfg: &PlantedConfig, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    draw_communities(cfg, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let cfg = PlantedConfig::web(2_000, 10_000);
        let a = generate(&cfg, 11);
        let b = generate(&cfg, 11);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn respects_edge_target_within_tolerance() {
        let cfg = PlantedConfig::web(4_000, 20_000);
        let g = generate(&cfg, 3);
        assert!(g.num_edges() >= 19_000, "got {}", g.num_edges());
        assert!(g.num_edges() <= 20_000);
    }

    #[test]
    fn most_edges_are_intra_community() {
        let cfg = PlantedConfig {
            opts: GenOptions {
                shuffle_edges: false,
                ..PlantedConfig::web(0, 0).opts
            },
            ..PlantedConfig::web(3_000, 15_000)
        };
        let seed = 17;
        let comms = ground_truth_communities(&cfg, seed);
        // Build a membership lookup over the *uncompacted* id space. With
        // 15k edges on 3k vertices nearly every vertex is covered, so the
        // compaction remap is near-identity; tolerate slack in the assertion.
        let total: u64 = comms.iter().map(|c| c.1).sum();
        let mut member = vec![0u32; total as usize];
        for (i, &(start, size)) in comms.iter().enumerate() {
            for v in start..start + size {
                member[v as usize] = i as u32;
            }
        }
        let g = generate(&cfg, seed);
        let intra = g
            .edges()
            .iter()
            .filter(|e| {
                let a = member.get(e.src as usize);
                let b = member.get(e.dst as usize);
                a.is_some() && a == b
            })
            .count();
        let frac = intra as f64 / g.num_edges() as f64;
        assert!(frac > 0.75, "intra fraction {frac}");
    }

    #[test]
    fn community_sizes_respect_bounds() {
        let cfg = PlantedConfig::web(10_000, 1_000);
        let comms = ground_truth_communities(&cfg, 5);
        for &(_, size) in &comms {
            assert!(size >= 1 && size <= cfg.max_community);
        }
        let covered: u64 = comms.iter().map(|c| c.1).sum();
        assert_eq!(covered, cfg.vertices);
    }

    #[test]
    #[should_panic(expected = "mixing")]
    fn rejects_bad_mixing() {
        let mut cfg = PlantedConfig::web(100, 100);
        cfg.mixing = 1.5;
        generate(&cfg, 1);
    }
}
