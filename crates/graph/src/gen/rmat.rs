//! R-MAT (recursive matrix) graph generator.
//!
//! The Graph500 reference generator: each edge picks one quadrant of the
//! adjacency matrix recursively with probabilities `(a, b, c, d)`. With the
//! standard skewed parameters `(0.57, 0.19, 0.19, 0.05)` the degree
//! distribution is heavy-tailed like the paper's social graphs (com-orkut,
//! twitter-2010, com-friendster). Per-level probability noise decorrelates
//! the quadrant choice across levels, avoiding the exact self-similarity
//! artefacts of naive R-MAT.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{finalize, relabel, sample_distinct, GenOptions};
use crate::stream::InMemoryGraph;
use crate::types::Edge;

/// R-MAT generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct RmatConfig {
    /// log2 of the vertex-id universe (the matrix is `2^scale × 2^scale`).
    pub scale: u32,
    /// Number of edges to *sample* (post-dedup count will be slightly lower;
    /// use [`generate_exact`] to hit an exact distinct-edge target).
    pub edges: u64,
    /// Quadrant probabilities; must sum to 1.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Per-level multiplicative noise applied to `a` (0 = none, 0.1 = ±10 %).
    pub noise: f64,
    /// Post-processing options.
    pub opts: GenOptions,
}

impl RmatConfig {
    /// Graph500-style defaults for a social-network-like graph: skewed
    /// quadrants, permuted ids (social dumps have no id locality).
    pub fn social(scale: u32, edges: u64) -> Self {
        RmatConfig {
            scale,
            edges,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.1,
            opts: GenOptions {
                permute_ids: true,
                ..Default::default()
            },
        }
    }
}

/// Sample one R-MAT edge (shared with the hybrid social generator).
pub(crate) fn sample_edge(cfg: &RmatConfig, rng: &mut SmallRng) -> Edge {
    // `noise * (u - 0.5)` for the uniform `u = k · 2^-53` that
    // `rng.gen::<f64>()` draws (`k` = the top 53 bits), in two float
    // operations instead of four, with the same bits: `u - 0.5` is exactly
    // `(k - 2^52) · 2^-53`, and `noise · 2^-53` is exact unless `noise` is
    // below 2^-969, where both products are too small to move `1.0 + …`.
    let scaled_noise = cfg.noise / (1u64 << 53) as f64;
    let centred =
        |rng: &mut SmallRng| ((rng.next_u64() >> 11) as i64 - (1 << 52)) as f64 * scaled_noise;
    let mut src = 0u64;
    let mut dst = 0u64;
    for _ in 0..cfg.scale {
        src <<= 1;
        dst <<= 1;
        // Per-level noisy quadrant probabilities.
        let na = cfg.a * (1.0 + centred(rng));
        let nb = cfg.b * (1.0 + centred(rng));
        let nc = cfg.c * (1.0 + centred(rng));
        let nd = (1.0 - cfg.a - cfg.b - cfg.c) * (1.0 + centred(rng));
        let total = na + nb + nc + nd;
        let r = rng.gen::<f64>() * total;
        // Quadrants a | b / c | d in order along [0, total): `src` is set
        // in c and d, `dst` in b and d. Comparisons, not branches: the
        // quadrant is random, so a branch on it mispredicts.
        let ab = na + nb;
        src |= u64::from(r >= ab);
        dst |= u64::from((na <= r) & (r < ab)) | u64::from(r >= ab + nc);
    }
    Edge::new(src as u32, dst as u32)
}

/// Generate an R-MAT graph. The number of *distinct* edges after dedup is
/// close to, but below, `cfg.edges`.
pub fn generate(cfg: &RmatConfig, seed: u64) -> InMemoryGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(cfg.edges as usize);
    for _ in 0..cfg.edges {
        edges.push(sample_edge(cfg, &mut rng));
    }
    finalize(edges, cfg.opts, seed)
}

/// Generate an R-MAT graph with (close to) an exact distinct-edge target by
/// oversampling in rounds until the post-dedup count reaches `cfg.edges` or
/// the sample space saturates (tiny scales).
pub fn generate_exact(cfg: &RmatConfig, seed: u64) -> InMemoryGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let max_attempts = cfg.edges.saturating_mul(20).max(1000);
    let edges = sample_distinct(
        &mut rng,
        cfg.edges,
        max_attempts,
        1,
        cfg.opts.dedup,
        |_| (),
        |(), rng| {
            let e = sample_edge(cfg, rng);
            (!(cfg.opts.drop_self_loops && e.is_self_loop())).then_some(e)
        },
    );
    relabel(edges, cfg.opts, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let cfg = RmatConfig::social(10, 2_000);
        let a = generate(&cfg, 99);
        let b = generate(&cfg, 99);
        assert_eq!(a.edges(), b.edges());
        let c = generate(&cfg, 100);
        assert_ne!(a.edges(), c.edges());
    }

    /// `sample_edge` draws the edges of the plain per-level formula (a
    /// branch per quadrant, `noise * (gen::<f64>() - 0.5)`) for noises from
    /// none through one whose `noise · 2^-53` is subnormal to the largest
    /// that keeps every probability non-negative.
    #[test]
    fn sample_edge_matches_the_plain_formula() {
        fn plain(cfg: &RmatConfig, rng: &mut SmallRng) -> Edge {
            let (mut src, mut dst) = (0u64, 0u64);
            for _ in 0..cfg.scale {
                src <<= 1;
                dst <<= 1;
                let na = cfg.a * (1.0 + cfg.noise * (rng.gen::<f64>() - 0.5));
                let nb = cfg.b * (1.0 + cfg.noise * (rng.gen::<f64>() - 0.5));
                let nc = cfg.c * (1.0 + cfg.noise * (rng.gen::<f64>() - 0.5));
                let d = 1.0 - cfg.a - cfg.b - cfg.c;
                let nd = d * (1.0 + cfg.noise * (rng.gen::<f64>() - 0.5));
                let r = rng.gen::<f64>() * (na + nb + nc + nd);
                if r < na {
                } else if r < na + nb {
                    dst |= 1;
                } else if r < na + nb + nc {
                    src |= 1;
                } else {
                    src |= 1;
                    dst |= 1;
                }
            }
            Edge::new(src as u32, dst as u32)
        }
        for noise in [0.0, 1e-300, 1e-5, 0.1, 1.0, 2.0] {
            let cfg = RmatConfig {
                noise,
                ..RmatConfig::social(16, 0)
            };
            let mut fast = SmallRng::seed_from_u64(9);
            let mut slow = SmallRng::seed_from_u64(9);
            for _ in 0..2_000 {
                let e = sample_edge(&cfg, &mut fast);
                assert_eq!(e, plain(&cfg, &mut slow), "noise {noise}");
            }
        }
    }

    #[test]
    fn exact_generator_hits_target() {
        let cfg = RmatConfig::social(12, 5_000);
        let g = generate_exact(&cfg, 7);
        assert_eq!(g.num_edges(), 5_000);
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let cfg = RmatConfig::social(10, 3_000);
        let g = generate_exact(&cfg, 3);
        let mut seen = std::collections::HashSet::new();
        for e in g.edges() {
            assert!(!e.is_self_loop());
            let c = e.canonical();
            assert!(seen.insert((c.src, c.dst)), "duplicate {e:?}");
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let cfg = RmatConfig::social(13, 40_000);
        let g = generate_exact(&cfg, 5);
        let mut degs = vec![0u32; g.num_vertices() as usize];
        for e in g.edges() {
            degs[e.src as usize] += 1;
            degs[e.dst as usize] += 1;
        }
        let max = *degs.iter().max().unwrap() as f64;
        let mean = degs.iter().map(|&d| d as f64).sum::<f64>() / degs.len() as f64;
        // Heavy tail: max degree far above the mean (uniform graphs sit ~3x).
        assert!(max > mean * 10.0, "max {max} mean {mean}");
    }

    #[test]
    fn saturates_gracefully_on_tiny_scale() {
        // 2^2 = 4 vertices can host at most 6 distinct loop-free edges.
        let cfg = RmatConfig {
            scale: 2,
            edges: 100,
            ..RmatConfig::social(2, 100)
        };
        let g = generate_exact(&cfg, 1);
        assert!(g.num_edges() <= 6);
    }
}
