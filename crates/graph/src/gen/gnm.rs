//! Uniform G(n, m) random graphs — a no-skew, no-community control used in
//! tests and ablations (every partitioner should behave near its worst case
//! here: there is no structure to exploit).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{finalize, EdgeSet, GenOptions};
use crate::stream::InMemoryGraph;
use crate::types::Edge;

/// Generate a uniform random graph with `n` vertices and (close to) `m`
/// distinct edges.
///
/// # Panics
/// Panics if `n < 2` or if `m` exceeds the number of distinct loop-free
/// undirected edges `n·(n-1)/2`.
pub fn generate(n: u64, m: u64, seed: u64) -> InMemoryGraph {
    assert!(n >= 2, "need at least two vertices");
    let max_edges = n * (n - 1) / 2;
    assert!(
        m <= max_edges,
        "m = {m} exceeds the {max_edges} possible edges"
    );
    let opts = GenOptions {
        shuffle_edges: true,
        permute_ids: false,
        ..Default::default()
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = EdgeSet::with_capacity(m as usize);
    let mut edges = Vec::with_capacity(m as usize);
    while (edges.len() as u64) < m {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u == v {
            continue;
        }
        if seen.insert(Edge::new(u, v)) {
            edges.push(Edge::new(u, v));
        }
    }
    finalize(edges, opts, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_exact_edge_count() {
        let g = generate(100, 500, 1);
        assert_eq!(g.num_edges(), 500);
        assert!(g.num_vertices() <= 100);
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(50, 100, 9).edges(), generate(50, 100, 9).edges());
    }

    #[test]
    fn no_duplicates_or_loops() {
        let g = generate(40, 300, 2);
        let mut seen = std::collections::HashSet::new();
        for e in g.edges() {
            assert!(!e.is_self_loop());
            let c = e.canonical();
            assert!(seen.insert((c.src, c.dst)));
        }
    }

    #[test]
    fn complete_graph_possible() {
        let g = generate(5, 10, 3);
        assert_eq!(g.num_edges(), 10);
        assert_eq!(g.num_vertices(), 5);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_impossible_m() {
        generate(4, 7, 1);
    }
}
