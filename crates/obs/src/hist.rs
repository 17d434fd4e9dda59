//! Mergeable log-bucketed latency histograms.
//!
//! A [`Hist`] is a `static` registry value like [`Counter`](crate::Counter):
//! it self-registers on first record, costs a couple of relaxed atomic ops
//! per sample, and never takes a lock on the hot path. Buckets grow by a
//! factor of √2 ([`NUM_BUCKETS`] of them, covering [`MIN_VALUE`] up to
//! 2³⁵ ≈ 34 s when the unit is nanoseconds; the last bucket is unbounded
//! and reports the exact max), so any reported quantile is within one
//! bucket — a bounded relative error of √2 − 1 ≈ 41 % worst case, and the
//! reported value is always an *upper* bound of the true quantile's bucket.
//!
//! Snapshots ([`HistSnapshot`]) are plain data: exact to merge (per-bucket
//! addition — associative and commutative), cheap to ship, and the source
//! for quantile queries and the text exposition in [`export`](crate::export).
//!
//! ```
//! use tps_obs::Hist;
//!
//! static LOOKUP_NS: Hist = Hist::new("doc.example.lookup.ns");
//! LOOKUP_NS.record(1_250);
//! let snap = LOOKUP_NS.snapshot();
//! assert!(snap.count() >= 1);
//! assert!(snap.quantile(0.5) >= 1_250);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of buckets per histogram. 64 √2-steps span a 2³² dynamic range.
pub const NUM_BUCKETS: usize = 64;

/// Values below this land in bucket 0 (2³ = 8) — small enough that batch
/// sizes resolve, while 64 √2-steps still reach 2³⁵ (≈ 34 s in ns).
pub const MIN_VALUE: u64 = 1 << MIN_SHIFT;

const MIN_SHIFT: u32 = 3;

/// Upper bound (exclusive) of bucket `i`; the last bucket is unbounded.
///
/// Even buckets end at a power of two, odd buckets at √2 × a power of two
/// (computed in fixed point so the table is `const`).
pub const fn bucket_bound(i: usize) -> u64 {
    let octave = MIN_SHIFT + (i as u32).div_ceil(2);
    if (i + 1).is_multiple_of(2) {
        1u64 << octave
    } else {
        // floor(√2 · 2^octave): √2 in 16.16 fixed point is 92681.9…;
        // u128 keeps the multiply exact for every octave in range.
        (((1u128 << octave) * 92682) >> 16) as u64
    }
}

/// Bucket index for a value: integer-only (leading_zeros + one compare).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < MIN_VALUE {
        return 0;
    }
    let octave = 63 - v.leading_zeros(); // 2^octave <= v
    let base = 2 * (octave - MIN_SHIFT) as usize;
    let idx = base + (v >= bucket_bound(base)) as usize;
    if idx >= NUM_BUCKETS {
        NUM_BUCKETS - 1
    } else {
        idx
    }
}

/// A named, process-global, mergeable latency histogram.
///
/// Construct as a `static` with [`Hist::new`]; appears in
/// [`hists_snapshot`] after its first [`record`](Hist::record).
pub struct Hist {
    name: &'static str,
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

static REGISTRY: Mutex<Vec<&'static Hist>> = Mutex::new(Vec::new());

/// Global switch for metric recording (histograms); **on** by default.
///
/// The instrumented path is the default everywhere; the only intended user
/// of the off state is the `metrics_overhead` bench, which measures the
/// cost of the instrumentation itself.
static METRICS_ENABLED: AtomicBool = AtomicBool::new(true);

fn registry() -> std::sync::MutexGuard<'static, Vec<&'static Hist>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether histogram recording is enabled (default: true).
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable histogram recording (bench-only; counters and gauges
/// are unaffected). Recording never changes served answers either way.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Relaxed);
}

impl Hist {
    /// An empty histogram with a hierarchical dotted `name`
    /// (e.g. `"serve.op.lookup.ns"`). `const`, so usable in `static` items.
    pub const fn new(name: &'static str) -> Hist {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Hist {
            name,
            buckets: [ZERO; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one sample (relaxed; safe from any thread; lock-free).
    ///
    /// A no-op when [`metrics_enabled`] is off.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    /// A consistent-enough point-in-time copy (buckets read relaxed).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut counts = [0u64; NUM_BUCKETS];
        for (out, b) in counts.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            name: self.name.to_string(),
            counts,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn register(&'static self) {
        let mut reg = registry();
        // Double-check under the lock so concurrent first records register once.
        if !self.registered.swap(true, Ordering::Relaxed) {
            reg.push(self);
        }
    }
}

/// Snapshot of every registered histogram, sorted by name.
pub fn hists_snapshot() -> Vec<HistSnapshot> {
    let reg = registry();
    let mut out: Vec<HistSnapshot> = reg.iter().map(|h| h.snapshot()).collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// A plain-data histogram: per-bucket counts plus exact sum and max.
///
/// Merging is per-bucket addition, so it is exact, associative and
/// commutative; quantiles report the (exclusive) upper bound of the bucket
/// holding the requested rank, which bounds the relative error by the √2
/// bucket width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Histogram name (dotted hierarchy, as registered).
    pub name: String,
    /// Per-bucket sample counts (bucket `i` covers `[bound(i−1), bound(i))`).
    pub counts: [u64; NUM_BUCKETS],
    /// Exact sum of all recorded values.
    pub sum: u64,
    /// Exact maximum recorded value (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    /// An empty snapshot with the given name.
    pub fn empty(name: &str) -> HistSnapshot {
        HistSnapshot {
            name: name.to_string(),
            counts: [0; NUM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Build a snapshot from raw values (tests, parsers).
    pub fn from_values(name: &str, values: &[u64]) -> HistSnapshot {
        let mut s = HistSnapshot::empty(name);
        for &v in values {
            s.counts[bucket_index(v)] += 1;
            s.sum += v;
            s.max = s.max.max(v);
        }
        s
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`): the upper bound of the bucket
    /// containing the sample of that rank, clamped to the exact max for the
    /// last bucket. Returns 0 when the histogram is empty.
    ///
    /// For any recorded value `t` in an in-range bucket the reported value
    /// `r` satisfies `t ≤ r < √2·t` (+1 for integer-floor bounds) — the
    /// bounded relative error pinned by the property tests.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Rank of the target sample, 1-based; q ≤ 0 → first, q ≥ 1 → last.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == NUM_BUCKETS - 1 {
                    self.max
                } else {
                    bucket_bound(i)
                };
            }
        }
        self.max
    }

    /// Merge another snapshot into this one (exact per-bucket addition).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_grow_by_sqrt2() {
        assert_eq!(bucket_bound(1), 16);
        assert_eq!(bucket_bound(3), 32);
        // Odd-index (√2) bounds sit strictly between the powers of two.
        for i in (0..NUM_BUCKETS - 2).step_by(2) {
            assert!(
                bucket_bound(i)
                    > if i == 0 {
                        MIN_VALUE
                    } else {
                        bucket_bound(i - 1)
                    }
            );
            assert!(bucket_bound(i) < bucket_bound(i + 1));
        }
        // Ratio between consecutive bounds stays within [1.30, 1.50].
        for i in 1..NUM_BUCKETS - 1 {
            let r = bucket_bound(i) as f64 / bucket_bound(i - 1) as f64;
            assert!((1.30..=1.50).contains(&r), "bucket {i}: ratio {r}");
        }
    }

    #[test]
    fn bucket_index_matches_bounds() {
        for i in 0..NUM_BUCKETS - 1 {
            let hi = bucket_bound(i);
            assert_eq!(bucket_index(hi - 1), i, "below bound {hi}");
            assert_eq!(bucket_index(hi), i + 1, "at bound {hi}");
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn record_snapshot_quantiles() {
        static H: Hist = Hist::new("test.hist.quantiles");
        for v in [100u64, 200, 300, 400, 100_000] {
            H.record(v);
        }
        let s = H.snapshot();
        assert!(s.count() >= 5);
        assert_eq!(s.max, 100_000);
        // Rank-3 sample is 300 (bucket [256, 362)); the reported p50 is the
        // bucket's upper bound: 300 ≤ p50 < √2·300.
        let p50 = s.quantile(0.5);
        assert!((300..=424).contains(&p50), "p50 = {p50}");
        assert!(s.quantile(1.0) >= s.quantile(0.5));
    }

    #[test]
    fn merge_is_exact() {
        let a = HistSnapshot::from_values("m", &[100, 5_000]);
        let b = HistSnapshot::from_values("m", &[70, 1_000_000]);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(
            ab,
            HistSnapshot::from_values("m", &[100, 5_000, 70, 1_000_000])
        );
    }

    #[test]
    fn disabled_recording_is_a_noop() {
        static H: Hist = Hist::new("test.hist.disabled");
        set_metrics_enabled(false);
        H.record(123);
        set_metrics_enabled(true);
        assert_eq!(H.snapshot().count(), 0);
        H.record(123);
        assert_eq!(H.snapshot().count(), 1);
    }
}
