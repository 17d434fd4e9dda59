//! Deterministic synthetic graph generators.
//!
//! The paper evaluates on seven real-world graphs (Table III) that are not
//! redistributable here (hundreds of GiB, external downloads). Per the
//! reproduction rules we substitute synthetic generators that control the two
//! properties every experiment in the paper depends on:
//!
//! 1. **Degree skew** — drives DBH / HDRF / scoring behaviour. Reproduced by
//!    [`rmat`] (recursive-matrix sampling, the Graph500 generator) whose
//!    output degree distribution is heavy-tailed.
//! 2. **Community structure** — drives the pre-partitioning ratio (Fig. 6)
//!    and the social-vs-web split of the evaluation. Reproduced by
//!    [`planted`] (a planted-partition / stochastic-block generator with
//!    power-law community sizes and skewed within-community degrees).
//!
//! [`gnm`] provides uniform G(n, m) graphs as a no-structure control used in
//! tests and ablations.
//!
//! All generators are deterministic given a seed, emit a dense vertex id
//! space with no isolated vertices (ids are compacted after sampling), and
//! can optionally deduplicate parallel edges and drop self-loops.
//!
//! Every sampler with a distinct-edge target ([`social`], [`planted`],
//! [`rmat::generate_exact`], [`gnm`]) yields distinct, loop-free edges
//! itself, as far as its [`GenOptions`] ask: one shared loop
//! (`sample_distinct`) rejects each candidate against a dedup table, and
//! the kept edges are only relabelled (compacted, permuted, shuffled). Only
//! [`rmat::generate`], which samples a fixed count, relies on `finalize`'s
//! filter.
//!
//! That loop hides the table's cache miss behind the next draw: while a
//! candidate's slot loads, it begins the next attempt on a clone of the
//! RNG. The clone makes exactly the draws the accepting path would make and
//! is adopted only when the candidate is kept, so the output does not
//! depend on the speculation.

pub mod gnm;
pub mod planted;
pub mod rmat;
pub mod social;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::hash::splitmix64;
use crate::stream::InMemoryGraph;
use crate::types::{Edge, VertexId};

/// Shared post-processing options for all generators.
#[derive(Clone, Copy, Debug)]
pub struct GenOptions {
    /// Remove duplicate (undirected) edges.
    pub dedup: bool,
    /// Remove self-loops.
    pub drop_self_loops: bool,
    /// Shuffle the edge order of the final stream. Streaming partitioners are
    /// order-sensitive; real edge lists arrive in crawl/insert order, which a
    /// plain generator does not mimic — a seeded shuffle is the neutral choice.
    pub shuffle_edges: bool,
    /// Apply a random permutation to the vertex ids. Social-network dumps
    /// carry little id locality (we permute); web crawls carry a lot (we keep
    /// community-grouped ids).
    pub permute_ids: bool,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            dedup: true,
            drop_self_loops: true,
            shuffle_edges: true,
            permute_ids: false,
        }
    }
}

/// The dedup key of an undirected edge: its canonical endpoints, `src` high.
fn edge_key(e: Edge) -> u64 {
    let c = e.canonical();
    u64::from(c.src) << 32 | u64::from(c.dst)
}

/// The generators' dedup set of [`edge_key`]s: open addressing with linear
/// probing on [`splitmix64`], at most half full. A generator only asks
/// whether a key is new, so nothing here depends on the probe order.
struct EdgeSet {
    /// `FREE` marks an empty slot; the key `FREE` itself, the self-loop of
    /// id `u32::MAX`, is kept out of band in `has_free_key`.
    slots: Vec<u64>,
    len: usize,
    has_free_key: bool,
}

const FREE: u64 = u64::MAX;

impl EdgeSet {
    /// A set with room for `keys` keys before it grows.
    fn with_capacity(keys: usize) -> EdgeSet {
        EdgeSet {
            slots: vec![FREE; (2 * keys).next_power_of_two().max(16)],
            len: 0,
            has_free_key: false,
        }
    }

    /// Insert `e`'s key; whether it was new.
    fn insert(&mut self, e: Edge) -> bool {
        self.insert_key(edge_key(e))
    }

    /// Start loading `key`'s home slot into the cache; the set is unchanged.
    #[inline]
    fn prefetch(&self, key: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let slot = &self.slots[splitmix64(key) as usize & (self.slots.len() - 1)];
            // SAFETY: a prefetch is a hint that never faults, and `slot` is
            // a live element of `slots`.
            unsafe { _mm_prefetch::<_MM_HINT_T0>((slot as *const u64).cast()) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = key;
    }

    fn insert_key(&mut self, key: u64) -> bool {
        if key == FREE {
            return !std::mem::replace(&mut self.has_free_key, true);
        }
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = splitmix64(key) as usize & mask;
        loop {
            match self.slots[i] {
                FREE => {
                    self.slots[i] = key;
                    self.len += 1;
                    return true;
                }
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Double the table and re-insert every key.
    fn grow(&mut self) {
        let doubled = vec![FREE; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.len = 0;
        for key in old.into_iter().filter(|&k| k != FREE) {
            self.insert_key(key);
        }
    }
}

/// The sampling loop of the generators with a distinct-edge target: up to
/// `max_attempts` attempts, each calling `begin` once and `draw` up to
/// `draws` times, keep the first candidate that is new (any candidate,
/// without `dedup`) until `target` edges are kept. A `None` draw spends a
/// draw. Before the table is read, the candidate's slot is prefetched and
/// the next attempt is begun on a clone of `rng` (if there would be one),
/// which replaces `rng` only if the candidate is kept.
fn sample_distinct<A>(
    rng: &mut SmallRng,
    target: u64,
    max_attempts: u64,
    draws: u32,
    dedup: bool,
    begin: impl Fn(&mut SmallRng) -> A,
    draw: impl Fn(&A, &mut SmallRng) -> Option<Edge>,
) -> Vec<Edge> {
    let mut seen = dedup.then(|| EdgeSet::with_capacity(target as usize));
    let mut edges = Vec::with_capacity(target as usize);
    let mut attempts = 0u64;
    // The next attempt and its first draw, made on the adopted clone.
    let mut ahead: Option<(A, Option<Edge>)> = None;
    'attempts: while (edges.len() as u64) < target && attempts < max_attempts {
        attempts += 1;
        let (attempt, mut candidate) = ahead.take().unwrap_or_else(|| {
            let attempt = begin(rng);
            let first = draw(&attempt, rng);
            (attempt, first)
        });
        for i in 0..draws {
            if i > 0 {
                candidate = draw(&attempt, rng);
            }
            let Some(e) = candidate else { continue };
            let Some(seen) = seen.as_mut() else {
                edges.push(e);
                continue 'attempts;
            };
            let key = edge_key(e);
            seen.prefetch(key);
            let more = (edges.len() as u64 + 1) < target && attempts < max_attempts;
            let mut clone = rng.clone();
            let next = more.then(|| {
                let attempt = begin(&mut clone);
                let first = draw(&attempt, &mut clone);
                if let Some(f) = first {
                    seen.prefetch(edge_key(f));
                }
                (attempt, first)
            });
            if seen.insert_key(key) {
                edges.push(e);
                if next.is_some() {
                    *rng = clone;
                    ahead = next;
                }
                continue 'attempts;
            }
        }
    }
    edges
}

/// Finalise a raw edge sample into an [`InMemoryGraph`]: loop removal and
/// dedup per `opts`, then [`relabel`].
pub(crate) fn finalize(mut edges: Vec<Edge>, opts: GenOptions, seed: u64) -> InMemoryGraph {
    if opts.drop_self_loops {
        edges.retain(|e| !e.is_self_loop());
    }
    if opts.dedup {
        let mut seen = EdgeSet::with_capacity(edges.len());
        edges.retain(|&e| seen.insert(e));
    }
    relabel(edges, opts, seed)
}

/// Turn filtered edges into an [`InMemoryGraph`]: id compaction (removes
/// isolated vertices so that `|V|` matches the covered vertex set, as in
/// the real datasets), optional id permutation and edge shuffle.
pub(crate) fn relabel(mut edges: Vec<Edge>, opts: GenOptions, seed: u64) -> InMemoryGraph {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xF1AA_11CE_5EED_0001);
    // Compact ids to 0..n preserving relative order (keeps web-graph locality).
    let max_id = edges
        .iter()
        .map(|e| e.src.max(e.dst))
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut used = vec![false; max_id];
    for e in &edges {
        used[e.src as usize] = true;
        used[e.dst as usize] = true;
    }
    let mut remap: Vec<VertexId> = vec![0; max_id];
    let mut next: VertexId = 0;
    for (i, &u) in used.iter().enumerate() {
        if u {
            remap[i] = next;
            next += 1;
        }
    }
    let n = next;
    let mut perm: Vec<VertexId> = (0..n).collect();
    if opts.permute_ids {
        // Fisher–Yates with the seeded rng.
        for i in (1..n as usize).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
    }
    for e in &mut edges {
        e.src = perm[remap[e.src as usize] as usize];
        e.dst = perm[remap[e.dst as usize] as usize];
    }
    if opts.shuffle_edges {
        for i in (1..edges.len()).rev() {
            let j = rng.gen_range(0..=i);
            edges.swap(i, j);
        }
    }
    InMemoryGraph::with_num_vertices(edges, n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over |V| and the edge sequence.
    fn digest(g: &InMemoryGraph) -> u64 {
        let words = std::iter::once(g.num_vertices()).chain(
            g.edges()
                .iter()
                .map(|e| u64::from(e.src) << 32 | u64::from(e.dst)),
        );
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// Every generator's exact output at small scale, pinned: a change to
    /// how a generator samples or deduplicates must keep these bytes (the
    /// benchmark's inputs and every test graph depend on them).
    #[test]
    fn generator_outputs_are_pinned() {
        let loops: Vec<Edge> = (0..400u32)
            .map(|i| Edge::new(i % 37, (i * 11) % 37))
            .collect();
        let keep_loops = GenOptions {
            drop_self_loops: false,
            ..Default::default()
        };
        let got = [
            digest(&social::generate(
                &social::SocialConfig::new(12, 20_000, 0.5),
                1,
            )),
            digest(&planted::generate(
                &planted::PlantedConfig::web(4_000, 20_000),
                1,
            )),
            digest(&rmat::generate_exact(
                &rmat::RmatConfig::social(12, 20_000),
                1,
            )),
            digest(&rmat::generate(&rmat::RmatConfig::social(12, 20_000), 1)),
            digest(&gnm::generate(2_000, 10_000, 1)),
            digest(&finalize(loops, keep_loops, 1)),
        ];
        let want = [
            0xda26_c62a_d0b4_4248,
            0x13f8_ecbd_053b_6e64,
            0x1e40_7ef4_89a2_a680,
            0x9b13_9eb2_1cbf_825a,
            0x2b22_1f0f_9453_cecd,
            0xa862_214b_646c_8ac0,
        ];
        assert_eq!(got, want);
    }

    /// The outputs where a sampling loop leaves its common path, pinned
    /// beside [`generator_outputs_are_pinned`]: attempts run out before the
    /// target, a draw yields no candidate (a community of one), one side of
    /// a mixing or overlay choice is never taken, a filter is off, and the
    /// target is met on the last attempt allowed.
    #[test]
    fn generator_boundary_outputs_are_pinned() {
        let rmat_opts = |dedup, drop_self_loops| rmat::RmatConfig {
            opts: GenOptions {
                dedup,
                drop_self_loops,
                ..rmat::RmatConfig::social(8, 3_000).opts
            },
            ..rmat::RmatConfig::social(8, 3_000)
        };
        // 2^3 ids host 28 loop-free edges; seed 52 finds the 28th on
        // attempt 1 000, the last one `generate_exact` allows.
        let last_attempt = rmat::generate_exact(&rmat::RmatConfig::social(3, 28), 52);
        assert_eq!(last_attempt.num_edges(), 28);
        let got = [
            // Attempts exhausted: 16 ids cannot host 500 edges, 40 cannot
            // host 2 000.
            digest(&social::generate(
                &social::SocialConfig::new(4, 500, 0.5),
                1,
            )),
            digest(&planted::generate(
                &planted::PlantedConfig::web(40, 2_000),
                1,
            )),
            // Communities of one: the overlay never yields a candidate, and
            // every planted edge is forced between communities.
            digest(&social::generate(
                &social::SocialConfig {
                    min_community: 1,
                    max_community: 1,
                    ..social::SocialConfig::new(10, 2_000, 0.5)
                },
                1,
            )),
            digest(&planted::generate(
                &planted::PlantedConfig {
                    min_community: 1,
                    max_community: 1,
                    ..planted::PlantedConfig::web(200, 1_000)
                },
                1,
            )),
            // One side of the choice only.
            digest(&social::generate(
                &social::SocialConfig::new(10, 3_000, 0.0),
                1,
            )),
            digest(&social::generate(
                &social::SocialConfig::new(10, 3_000, 1.0),
                1,
            )),
            digest(&planted::generate(
                &planted::PlantedConfig {
                    mixing: 1.0,
                    ..planted::PlantedConfig::web(2_000, 8_000)
                },
                1,
            )),
            // Filters off.
            digest(&rmat::generate_exact(&rmat_opts(false, true), 1)),
            digest(&rmat::generate_exact(&rmat_opts(true, false), 1)),
            digest(&planted::generate(
                &planted::PlantedConfig {
                    opts: GenOptions {
                        dedup: false,
                        drop_self_loops: false,
                        ..planted::PlantedConfig::web(0, 0).opts
                    },
                    ..planted::PlantedConfig::web(300, 3_000)
                },
                1,
            )),
            // The target met by the last attempt, and by the last edge.
            digest(&last_attempt),
            digest(&gnm::generate(6, 15, 1)),
        ];
        let want = [
            0xb04b_8097_3096_2b55,
            0x8cf7_3ee4_407c_cccd,
            0xe600_f029_c6ba_0043,
            0x6947_3c73_5b4c_e9eb,
            0x2275_4bfe_5a49_5f4c,
            0xd99f_50fa_96dd_2467,
            0xc20d_1034_e868_8cf2,
            0xafd8_f689_e11f_c4f4,
            0x98f5_a530_6b48_7da5,
            0xee46_27cb_88ed_38cd,
            0xfe4c_9a48_09e1_804d,
            0x0f4f_ae97_93fd_2032,
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn edge_set_answers_like_a_hash_set_and_grows() {
        // Sized for 4 keys, fed thousands (with repeats): the table grows,
        // and every answer matches std's set.
        let mut set = EdgeSet::with_capacity(4);
        let mut std_set = std::collections::HashSet::new();
        for i in 0..5_000u32 {
            let e = Edge::new(i % 97, (i * 31) % 89);
            assert_eq!(set.insert(e), std_set.insert(edge_key(e)), "edge {e:?}");
        }
        assert_eq!(set.len, std_set.len());
        assert!(2 * set.len <= set.slots.len());
    }

    #[test]
    fn edge_set_keeps_the_free_slot_key_out_of_band() {
        // The self-loop of id u32::MAX has the key that marks a free slot.
        let top = Edge::new(u32::MAX, u32::MAX);
        assert_eq!(edge_key(top), FREE);
        let mut set = EdgeSet::with_capacity(2);
        assert!(set.insert(top));
        assert!(!set.insert(top));
        assert!(set.insert(Edge::new(u32::MAX, u32::MAX - 1)));
        assert!(set.insert(Edge::new(0, 0)));
        assert!(!set.insert(Edge::new(u32::MAX - 1, u32::MAX)));
        assert_eq!(set.len, 2);
    }

    #[test]
    fn finalize_removes_self_loops_and_dups() {
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 0), // duplicate (undirected)
            Edge::new(2, 2), // self-loop
            Edge::new(1, 3),
        ];
        let opts = GenOptions {
            shuffle_edges: false,
            permute_ids: false,
            ..Default::default()
        };
        let g = finalize(edges, opts, 1);
        assert_eq!(g.num_edges(), 2);
        // Vertex 2 only appeared in a self-loop → compacted away.
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn finalize_keeps_parallel_edges_without_dedup() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 0)];
        let opts = GenOptions {
            dedup: false,
            shuffle_edges: false,
            permute_ids: false,
            drop_self_loops: true,
        };
        let g = finalize(edges, opts, 1);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn finalize_is_deterministic() {
        let edges: Vec<Edge> = (0..100u32)
            .map(|i| Edge::new(i % 13, (i * 7) % 13))
            .collect();
        let opts = GenOptions::default();
        let a = finalize(edges.clone(), opts, 42);
        let b = finalize(edges, opts, 42);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn permutation_changes_ids_but_not_structure() {
        let edges: Vec<Edge> = (0..200u32)
            .map(|i| Edge::new(i % 20, (i * 3 + 1) % 20))
            .collect();
        let keep = finalize(
            edges.clone(),
            GenOptions {
                permute_ids: false,
                shuffle_edges: false,
                ..Default::default()
            },
            7,
        );
        let perm = finalize(
            edges,
            GenOptions {
                permute_ids: true,
                shuffle_edges: false,
                ..Default::default()
            },
            7,
        );
        assert_eq!(keep.num_vertices(), perm.num_vertices());
        assert_eq!(keep.num_edges(), perm.num_edges());
    }
}
