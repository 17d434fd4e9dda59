//! Per-partition load accounting with the hard balance cap `α·|E|/k`.
//!
//! 2PS-L enforces the cap strictly ("we guarantee that no partition gets more
//! than α·|E|/k edges assigned", paper §III-B step 3); the stateful baselines
//! (HDRF, Greedy) use the same structure for their balance terms.
//!
//! Two pieces live here:
//!
//! * [`PartitionLoads`] — the plain tracker: counters plus the cap (the
//!   baselines' balance state, and the one cap formula).
//! * [`AtomicLoads`] — the lock-free shared commit ledger of the 2PS-L
//!   driver ([`crate::parallel`]). Its shards decide from a `ShardLoads`
//!   slice: they *reserve* capacity deterministically up front
//!   (each thread `t` of `T` owns the quota slice
//!   `⌊(t+1)·cap/T⌋ − ⌊t·cap/T⌋` of every partition's cap, so the quotas
//!   sum to the cap exactly), count their placements locally, and `commit`
//!   the counts here once per pass — `k` relaxed `fetch_add`s, none on the
//!   per-edge path. Because the quota slices partition the cap, a worker
//!   that respects its quota can never push the ledger past the cap — the
//!   atomic counter is the runtime witness of that invariant and the source
//!   of the merged per-partition loads, not a lock.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

use tps_graph::types::PartitionId;

/// `k` zeroed 8-byte per-partition counters, or `InvalidInput` naming
/// `table` and `k` when they cannot be allocated: a huge `k` is an input
/// error, not an abort.
pub(crate) fn try_counters<T: Default>(k: u32, table: &str) -> io::Result<Vec<T>> {
    let mut counters = Vec::new();
    counters.try_reserve_exact(k as usize).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("k = {k}: {table} ({k} × 8 B) cannot be allocated"),
        )
    })?;
    counters.resize_with(k as usize, T::default);
    Ok(counters)
}

/// Lock-free shared per-partition load counters with the hard cap.
///
/// All mutation is a single `fetch_add` with relaxed ordering — worker
/// threads never contend on a lock and never observe torn counts. The
/// structure reports how much of each commit landed past the cap; the
/// deterministic quota slices held by the workers (see module docs)
/// guarantee it except in counted degenerate cases (`|E|` not much larger
/// than `k × threads`), which the parallel runner surfaces as a
/// `cap_overshoot` counter rather than hiding.
#[derive(Debug)]
pub struct AtomicLoads {
    loads: Vec<AtomicU64>,
    cap: u64,
}

impl AtomicLoads {
    /// Shared loads for `k` partitions of a graph with `num_edges` edges
    /// under balance factor `alpha` (same cap formula as
    /// [`PartitionLoads::new`]).
    ///
    /// # Panics
    /// Panics where [`try_new`](AtomicLoads::try_new) errs.
    pub fn new(k: u32, num_edges: u64, alpha: f64) -> Self {
        Self::try_new(k, num_edges, alpha).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](AtomicLoads::new), or `InvalidInput` naming the ledger and
    /// `k` when its `k` counters cannot be allocated.
    pub fn try_new(k: u32, num_edges: u64, alpha: f64) -> io::Result<Self> {
        let cap = PartitionLoads::cap_for(k, num_edges, alpha);
        let loads = try_counters(k, "the partition load ledger")?;
        Ok(AtomicLoads { loads, cap })
    }

    /// Number of partitions.
    #[inline]
    pub fn k(&self) -> u32 {
        self.loads.len() as u32
    }

    /// The hard capacity per partition.
    #[inline]
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Current load of `p` (racy snapshot — exact once workers are joined).
    #[inline]
    pub fn load(&self, p: PartitionId) -> u64 {
        self.loads[p as usize].load(Ordering::Relaxed)
    }

    /// Record `delta` edges on `p` with one relaxed `fetch_add` and return
    /// how many of them landed past the cap: `max(0, old+δ − max(old, cap))`.
    /// Every edge is recorded either way — it must be placed somewhere;
    /// callers count the overshoot instead. Commits claim disjoint intervals
    /// `[old, old+δ)` of the counter, so the overshoots of all commits on `p`
    /// sum to `max(0, load_p − cap)` for every interleaving and every
    /// batching — one commit per edge and one per pass count the same total.
    #[inline]
    pub fn commit(&self, p: PartitionId, delta: u64) -> u64 {
        let old = self.loads[p as usize].fetch_add(delta, Ordering::Relaxed);
        (old + delta).saturating_sub(old.max(self.cap))
    }

    /// The quota slice of the cap owned by thread `t` of `threads`:
    /// `⌊(t+1)·cap/T⌋ − ⌊t·cap/T⌋`. Slices are deterministic, differ by at
    /// most one, and sum to exactly the cap over all threads.
    pub fn quota_slice(cap: u64, t: usize, threads: usize) -> u64 {
        let (cap, t, threads) = (cap as u128, t as u128, threads.max(1) as u128);
        ((cap * (t + 1)) / threads - (cap * t) / threads) as u64
    }

    /// Final per-partition loads (call after all workers joined).
    pub fn snapshot(&self) -> Vec<u64> {
        self.loads
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect()
    }

    /// Total edges reserved.
    pub fn total(&self) -> u64 {
        self.snapshot().iter().sum()
    }
}

/// Edge counts per partition plus the hard capacity.
#[derive(Clone, Debug)]
pub struct PartitionLoads {
    loads: Vec<u64>,
    cap: u64,
}

impl PartitionLoads {
    /// Loads for `k` partitions of a graph with `num_edges` edges under
    /// balance factor `alpha`.
    ///
    /// The cap is `max(⌈|E|/k⌉, ⌊α·|E|/k⌋)`: the first term guarantees
    /// feasibility (all edges *can* be placed) even at `α = 1.0`; the second
    /// is the paper's constraint.
    pub fn new(k: u32, num_edges: u64, alpha: f64) -> Self {
        PartitionLoads {
            cap: Self::cap_for(k, num_edges, alpha),
            loads: vec![0; k as usize],
        }
    }

    /// The cap of [`new`](PartitionLoads::new)'s tracker, without its `k`
    /// counters.
    pub fn cap_for(k: u32, num_edges: u64, alpha: f64) -> u64 {
        assert!(k > 0, "k must be positive");
        assert!(alpha >= 1.0, "alpha must be >= 1");
        let fair = num_edges.div_ceil(k as u64);
        let soft = (alpha * num_edges as f64 / k as f64).floor() as u64;
        fair.max(soft)
    }

    /// Number of partitions.
    #[inline]
    pub fn k(&self) -> u32 {
        self.loads.len() as u32
    }

    /// The hard capacity per partition.
    #[inline]
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Current load of `p`.
    #[inline]
    pub fn load(&self, p: PartitionId) -> u64 {
        self.loads[p as usize]
    }

    /// Whether `p` is at capacity.
    #[inline]
    pub fn is_full(&self, p: PartitionId) -> bool {
        self.loads[p as usize] >= self.cap
    }

    /// Record one edge on `p`.
    ///
    /// # Panics
    /// Panics in debug builds if `p` is already full (callers must route
    /// through the fallback chain first).
    #[inline]
    pub fn add(&mut self, p: PartitionId) {
        debug_assert!(!self.is_full(p), "partition {p} exceeds the balance cap");
        self.loads[p as usize] += 1;
    }

    /// The least-loaded partition (lowest id wins ties). `O(k)`.
    pub fn least_loaded(&self) -> PartitionId {
        let mut best = 0u32;
        let mut best_load = self.loads[0];
        for (i, &l) in self.loads.iter().enumerate().skip(1) {
            if l < best_load {
                best = i as u32;
                best_load = l;
            }
        }
        best
    }

    /// Largest current load.
    pub fn max_load(&self) -> u64 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Smallest current load.
    pub fn min_load(&self) -> u64 {
        self.loads.iter().copied().min().unwrap_or(0)
    }

    /// Total edges recorded.
    pub fn total(&self) -> u64 {
        self.loads.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_is_feasible_at_alpha_one() {
        // 10 edges, 4 partitions, α = 1.0 → cap must be ⌈10/4⌉ = 3 so that
        // 4 × 3 ≥ 10.
        let l = PartitionLoads::new(4, 10, 1.0);
        assert_eq!(l.cap(), 3);
        assert!(l.cap() as u128 * 4 >= 10);
    }

    #[test]
    fn cap_follows_alpha() {
        let l = PartitionLoads::new(4, 1000, 1.05);
        assert_eq!(l.cap(), 262); // floor(1.05 * 250)
    }

    #[test]
    fn add_and_full() {
        let mut l = PartitionLoads::new(2, 4, 1.0);
        assert_eq!(l.cap(), 2);
        l.add(0);
        assert!(!l.is_full(0));
        l.add(0);
        assert!(l.is_full(0));
        assert_eq!(l.load(0), 2);
        assert_eq!(l.total(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "balance cap")]
    fn debug_add_past_cap_panics() {
        let mut l = PartitionLoads::new(1, 1, 1.0);
        l.add(0);
        l.add(0);
    }

    #[test]
    fn least_loaded_prefers_lowest_id_on_tie() {
        let mut l = PartitionLoads::new(3, 30, 2.0);
        l.add(0);
        assert_eq!(l.least_loaded(), 1);
        l.add(1);
        l.add(2);
        assert_eq!(l.least_loaded(), 0);
    }

    #[test]
    fn min_max_loads() {
        let mut l = PartitionLoads::new(3, 100, 2.0);
        l.add(1);
        l.add(1);
        l.add(2);
        assert_eq!(l.max_load(), 2);
        assert_eq!(l.min_load(), 0);
    }

    #[test]
    fn atomic_reserve_reports_cap() {
        let l = AtomicLoads::new(2, 4, 1.0);
        assert_eq!(l.cap(), 2);
        assert_eq!(l.commit(0, 1), 0);
        assert_eq!(l.commit(0, 1), 0);
        assert_eq!(l.commit(0, 1), 1, "third reservation exceeds the cap");
        assert_eq!(l.load(0), 3, "overshoot is still recorded");
        assert_eq!(l.load(1), 0);
        assert_eq!(l.total(), 3);
    }

    #[test]
    fn atomic_matches_serial_cap_formula() {
        let a = AtomicLoads::new(4, 1000, 1.05);
        let s = PartitionLoads::new(4, 1000, 1.05);
        assert_eq!(a.cap(), s.cap());
        assert_eq!(a.k(), 4);
    }

    #[test]
    fn quota_slices_partition_the_cap() {
        for cap in [0u64, 1, 2, 7, 100, 1003] {
            for threads in [1usize, 2, 3, 8, 17] {
                let slices: Vec<u64> = (0..threads)
                    .map(|t| AtomicLoads::quota_slice(cap, t, threads))
                    .collect();
                assert_eq!(slices.iter().sum::<u64>(), cap, "cap {cap} T {threads}");
                let (lo, hi) = (*slices.iter().min().unwrap(), *slices.iter().max().unwrap());
                assert!(hi - lo <= 1, "uneven slices {slices:?}");
            }
        }
        // One thread owns the full cap — the T=1 ≡ serial precondition.
        assert_eq!(AtomicLoads::quota_slice(262, 0, 1), 262);
    }

    #[test]
    fn atomic_reservation_is_race_free() {
        // 4 OS threads hammer one partition; exactly `cap` reservations may
        // report in-cap regardless of interleaving.
        let l = AtomicLoads::new(1, 1000, 1.0);
        let in_cap: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..500).filter(|_| l.commit(0, 1) == 0).count() as u64))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(in_cap, 1000);
        assert_eq!(l.load(0), 2000);
    }

    #[test]
    fn batched_commits_count_the_same_overshoot_as_unit_commits() {
        // cap 5; the batches straddle it below, across and above.
        let batches = [3u64, 0, 4, 2, 6];
        let batched = AtomicLoads::new(1, 5, 1.0);
        let unit = AtomicLoads::new(1, 5, 1.0);
        let (mut over_batched, mut over_unit) = (0, 0);
        for &d in &batches {
            over_batched += batched.commit(0, d);
            over_unit += (0..d).map(|_| unit.commit(0, 1)).sum::<u64>();
        }
        assert_eq!(batched.load(0), 15);
        assert_eq!(over_batched, 10);
        assert_eq!(over_unit, 10);
    }
}
