//! Always-on counter registry.
//!
//! Counters are `static` [`Counter`] values with hierarchical dotted names.
//! They self-register into a global registry on first use, cost one relaxed
//! `fetch_add` per update, and are *always* counted — the values reflect work
//! that happens identically whether tracing is enabled or not, so snapshots
//! never perturb partitioning output.
//!
//! ```
//! use tps_obs::Counter;
//!
//! static CHUNKS: Counter = Counter::new("doc.example.chunks");
//! CHUNKS.add(3);
//! assert!(CHUNKS.get() >= 3);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A named, process-global monotonic counter.
///
/// Construct as a `static` with [`Counter::new`]; the counter appears in
/// [`counters_snapshot`] after its first [`add`](Counter::add) or
/// [`incr`](Counter::incr).
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

static REGISTRY: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());

fn registry() -> std::sync::MutexGuard<'static, Vec<&'static Counter>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

impl Counter {
    /// A zero counter with a hierarchical dotted `name`
    /// (e.g. `"io.v2.chunks_decoded"`). `const`, so usable in `static` items.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` to the counter (relaxed; safe from any thread).
    pub fn add(&'static self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    /// Add one to the counter.
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn register(&'static self) {
        let mut reg = registry();
        // Double-check under the lock so concurrent first adds register once.
        if !self.registered.swap(true, Ordering::Relaxed) {
            reg.push(self);
        }
    }
}

/// Snapshot of every registered counter, sorted by name.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    let reg = registry();
    let mut out: Vec<(String, u64)> = reg.iter().map(|c| (c.name.to_string(), c.get())).collect();
    out.sort();
    out
}

/// Reset every registered counter to zero (test / bench isolation).
pub fn reset_counters() {
    for c in registry().iter() {
        c.value.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static A: Counter = Counter::new("test.counter.alpha");
    static B: Counter = Counter::new("test.counter.beta");

    #[test]
    fn counts_and_registers_once() {
        A.add(2);
        A.incr();
        B.add(5);
        assert!(A.get() >= 3);
        let snap = counters_snapshot();
        assert_eq!(
            snap.iter()
                .filter(|(n, _)| n == "test.counter.alpha")
                .count(),
            1
        );
        // Snapshot is sorted by name.
        let names: Vec<&String> = snap.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn concurrent_adds_sum() {
        static C: Counter = Counter::new("test.counter.concurrent");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        C.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(C.get() % 1000, 0);
        assert!(C.get() >= 4000);
    }
}
