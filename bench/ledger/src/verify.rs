//! The output verifier. It shares the partition-file reader
//! (`tps_io::load_partition_dir`) with the engine and nothing else: every
//! invariant is recounted from the files, never taken from what the engine
//! printed.
//!
//! * exactly once — the sorted multiset of input edges equals the sorted
//!   multiset of edges in the union of the partition files;
//! * balance — no partition holds more than ⌈α·|E|/k⌉ edges;
//! * replication factor — recomputed from scratch.

use std::io::{self, Read};
use std::path::Path;

use tps_graph::types::Edge;

/// An edge as a sortable key that keeps its orientation: partition files
/// must hold the input's `(src, dst)` records, not their mirror images.
pub fn oriented_key(e: Edge) -> u64 {
    ((e.src as u64) << 32) | e.dst as u64
}

/// The input's edges as sorted keys — what the union of the output must equal.
pub fn sorted_input_keys(edges: &[Edge]) -> Vec<u64> {
    let mut keys: Vec<u64> = edges.iter().copied().map(oriented_key).collect();
    keys.sort_unstable();
    keys
}

/// Edges in exactly one of two sorted multisets (missing + duplicated + alien).
fn multiset_difference(a: &[u64], b: &[u64]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff + (a.len() - i) as u64 + (b.len() - j) as u64
}

/// The paper's hard balance cap, ⌈α·|E|/k⌉.
pub fn balance_cap(num_edges: u64, k: u32, alpha: f64) -> u64 {
    (alpha * num_edges as f64 / k as f64).ceil() as u64
}

/// One bit per (vertex, partition): which partitions hold an edge of which
/// vertex. The ledger's own, built from `(edge, partition)` pairs alone.
pub struct ReplicaBits {
    bits: Vec<u64>,
    words: usize,
}

impl ReplicaBits {
    /// Pairs naming a vertex or partition outside the matrix are ignored
    /// here; the exactly-once check is what reports them.
    pub fn of(assignments: &[(Edge, u32)], num_vertices: u64, k: u32) -> ReplicaBits {
        let words = (k as usize).div_ceil(64).max(1);
        let mut bits = vec![0u64; num_vertices as usize * words];
        for &(e, p) in assignments {
            for v in [e.src, e.dst] {
                if let Some(w) = bits.get_mut(v as usize * words + p as usize / 64) {
                    *w |= 1 << (p % 64);
                }
            }
        }
        ReplicaBits { bits, words }
    }

    /// The partitions vertex `v` has an edge on, ascending.
    pub fn partitions_of(&self, v: u32) -> Vec<u32> {
        let row = &self.bits[v as usize * self.words..][..self.words];
        (0..self.words as u32 * 64)
            .filter(|&p| row[p as usize / 64] >> (p % 64) & 1 == 1)
            .collect()
    }

    /// Σ_v |partitions of v| ÷ vertices with at least one edge.
    pub fn replication_factor(&self) -> f64 {
        let (mut replicas, mut covered) = (0u64, 0u64);
        for row in self.bits.chunks_exact(self.words) {
            let n: u32 = row.iter().map(|w| w.count_ones()).sum();
            replicas += n as u64;
            covered += (n > 0) as u64;
        }
        if covered == 0 {
            0.0
        } else {
            replicas as f64 / covered as f64
        }
    }
}

/// What a partitioning on disk must satisfy.
pub struct Expected<'a> {
    pub sorted_input_keys: &'a [u64],
    pub num_vertices: u64,
    pub k: u32,
    pub alpha: f64,
}

/// What the verifier found in one output directory.
#[derive(Clone, Debug)]
pub struct Checked {
    /// Edges missing, duplicated or alien, plus one per partition over the
    /// cap; the whole input if the directory cannot be read at all.
    pub failed: u64,
    /// Replication factor recomputed from the files: Σ_v |partitions of v| ÷
    /// vertices with at least one edge.
    pub rf: f64,
    pub problems: Vec<String>,
}

/// Check the partition files in `dir` against `want`.
pub fn check_partition_dir(dir: &Path, want: &Expected<'_>) -> Checked {
    let num_edges = want.sorted_input_keys.len() as u64;
    let loaded = match tps_io::load_partition_dir(dir) {
        Ok(l) => l,
        Err(e) => {
            return Checked {
                failed: num_edges.max(1),
                rf: 0.0,
                problems: vec![format!("{}: {e}", dir.display())],
            }
        }
    };
    let mut failed = 0u64;
    let mut problems = Vec::new();
    if loaded.k != want.k {
        failed += num_edges;
        problems.push(format!("{} partition files, wanted {}", loaded.k, want.k));
    }

    // Exactly once.
    let mut got: Vec<u64> = loaded
        .assignments
        .iter()
        .map(|&(e, _)| oriented_key(e))
        .collect();
    got.sort_unstable();
    let diff = multiset_difference(want.sorted_input_keys, &got);
    if diff > 0 {
        failed += diff;
        problems.push(format!(
            "{diff} edges missing, duplicated or not of the input"
        ));
    }

    // Balance: the cap is hard, for `--threads N` and dist too (their
    // quota-sliced load tracker only overshoots on inputs far smaller than
    // any the benchmark generates).
    let cap = balance_cap(num_edges, want.k, want.alpha);
    let over = loaded.part_counts.iter().filter(|&&c| c > cap).count();
    if over > 0 {
        failed += over as u64;
        problems.push(format!("{over} partitions over the cap of {cap} edges"));
    }

    let nv = loaded.num_vertices.max(want.num_vertices);
    let rf = ReplicaBits::of(&loaded.assignments, nv, loaded.k).replication_factor();
    Checked {
        failed,
        rf,
        problems,
    }
}

/// A digest of every file in `dir` (names and bytes, in name order). Two
/// output directories with equal digests are byte-identical; the
/// cross-checks (`web_paged` ≡ `web_serial`, `social_dist2` ≡ `social_par2`,
/// hand-driven ≡ child, rep n ≡ rep 1) compare these.
pub fn dir_digest(dir: &Path) -> io::Result<u64> {
    let mut names: Vec<_> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.file_name()))
        .collect::<io::Result<_>>()?;
    names.sort();
    // FNV-1a, 64 bit.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut buf = vec![0u8; 1 << 16];
    for name in names {
        eat(name.as_encoded_bytes());
        eat(&[0]);
        let mut f = std::fs::File::open(dir.join(&name))?;
        loop {
            let n = f.read(&mut buf)?;
            if n == 0 {
                break;
            }
            eat(&buf[..n]);
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_difference_counts_missing_duplicated_and_alien() {
        assert_eq!(multiset_difference(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(multiset_difference(&[1, 2, 3], &[1, 3]), 1);
        assert_eq!(multiset_difference(&[1, 2, 3], &[1, 2, 2, 3]), 1);
        assert_eq!(multiset_difference(&[1, 2, 3], &[1, 2, 4]), 2);
        assert_eq!(multiset_difference(&[], &[5, 5]), 2);
    }

    #[test]
    fn the_cap_rounds_up() {
        assert_eq!(balance_cap(1000, 32, 1.05), 33);
        assert_eq!(balance_cap(4_000_000, 32, 1.05), 131_250);
    }
}
