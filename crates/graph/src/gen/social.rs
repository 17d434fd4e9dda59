//! Hybrid social-network generator: R-MAT degree tail + planted community
//! overlay.
//!
//! Pure R-MAT reproduces the heavy degree tail of social graphs but almost
//! none of their community structure (real social networks have clustering
//! coefficients of 0.1–0.2; R-MAT with permuted ids is close to a skewed
//! random graph). Real social graphs have both — and 2PS-L's whole premise
//! is that the community structure is there to find. This generator samples
//! a `1 − community_fraction` share of edges from R-MAT and the rest from
//! planted communities over the same vertex universe, then compacts,
//! permutes ids (social dumps have no id locality) and shuffles.
//!
//! The `community_fraction` knob maps onto the paper's dataset spectrum:
//! com-orkut and com-friendster are community-rich; twitter-2010 is the
//! most skewed, least community-structured graph in the evaluation (the one
//! dataset where DBH's replication factor beats 2PS-L).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::rmat::RmatConfig;
use super::{relabel, sample_distinct, GenOptions};
use crate::stream::InMemoryGraph;
use crate::types::Edge;

/// Configuration of the hybrid social generator.
#[derive(Clone, Copy, Debug)]
pub struct SocialConfig {
    /// R-MAT parameters (defines the vertex universe `2^scale` and the tail).
    pub rmat: RmatConfig,
    /// Total distinct edges to generate.
    pub edges: u64,
    /// Fraction of edges drawn from the community overlay (0 = pure R-MAT).
    pub community_fraction: f64,
    /// Community size range of the overlay.
    pub min_community: u64,
    /// Largest overlay community.
    pub max_community: u64,
    /// Within-community endpoint skew (see `planted::PlantedConfig`).
    pub hub_skew: f64,
}

impl SocialConfig {
    /// Defaults for an Orkut-like graph: strong tail, strong communities.
    pub fn new(scale: u32, edges: u64, community_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&community_fraction));
        SocialConfig {
            rmat: RmatConfig::social(scale, edges),
            edges,
            community_fraction,
            min_community: 16,
            max_community: 96,
            hub_skew: 1.8,
        }
    }
}

/// Generate the hybrid graph.
pub fn generate(cfg: &SocialConfig, seed: u64) -> InMemoryGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let universe = 1u64 << cfg.rmat.scale;
    // Draw overlay communities over the whole universe.
    let mut communities: Vec<(u64, u64)> = Vec::new();
    let mut covered = 0u64;
    while covered < universe {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let size = ((cfg.min_community as f64 / u.powf(0.5)) as u64)
            .clamp(cfg.min_community, cfg.max_community)
            .min(universe - covered);
        communities.push((covered, size));
        covered += size;
    }

    let max_attempts = cfg.edges.saturating_mul(40).max(1000);
    let pick_member = |start: u64, size: u64, skew: f64, rng: &mut SmallRng| -> u32 {
        let u: f64 = rng.gen();
        let idx = ((size as f64) * u.powf(skew)) as u64;
        (start + idx.min(size - 1)) as u32
    };
    // An attempt draws up to 8 edges from the side it picks first.
    let edges = sample_distinct(
        &mut rng,
        cfg.edges,
        max_attempts,
        8,
        true,
        |rng| rng.gen::<f64>() < cfg.community_fraction,
        |&from_overlay, rng| {
            let e = if from_overlay {
                let ci = rng.gen_range(0..communities.len());
                let (start, size) = communities[ci];
                if size < 2 {
                    return None;
                }
                Edge::new(
                    pick_member(start, size, cfg.hub_skew, rng),
                    pick_member(start, size, cfg.hub_skew, rng),
                )
            } else {
                super::rmat::sample_edge(&cfg.rmat, rng)
            };
            (!e.is_self_loop()).then_some(e)
        },
    );
    let opts = GenOptions {
        permute_ids: true,
        shuffle_edges: true,
        ..Default::default()
    };
    relabel(edges, opts, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_near_target() {
        let cfg = SocialConfig::new(13, 30_000, 0.4);
        let a = generate(&cfg, 5);
        let b = generate(&cfg, 5);
        assert_eq!(a.edges(), b.edges());
        assert!(a.num_edges() >= 29_000, "got {}", a.num_edges());
    }

    #[test]
    fn keeps_heavy_tail() {
        let cfg = SocialConfig::new(13, 40_000, 0.4);
        let g = generate(&cfg, 9);
        let mut degs = vec![0u32; g.num_vertices() as usize];
        for e in g.edges() {
            degs[e.src as usize] += 1;
            degs[e.dst as usize] += 1;
        }
        let max = *degs.iter().max().unwrap() as f64;
        let mean = degs.iter().map(|&d| d as f64).sum::<f64>() / degs.len() as f64;
        assert!(max > mean * 8.0, "max {max} mean {mean}");
    }

    #[test]
    fn community_fraction_zero_is_pure_rmat_style() {
        let cfg = SocialConfig::new(12, 10_000, 0.0);
        let g = generate(&cfg, 2);
        assert!(g.num_edges() > 9_000);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_fraction() {
        SocialConfig::new(10, 100, 1.5);
    }
}
