//! A counting global allocator — the repository's stand-in for the paper's
//! "maximum resident set size" measurements (Fig. 4, right column; Table II).
//!
//! The paper reports `max RSS` per partitioning run. Inside one long-running
//! bench process RSS is useless (the OS never returns freed pages), so we
//! count live heap bytes instead: [`CountingAllocator`] wraps the system
//! allocator and tracks *current* and *peak* live bytes with relaxed atomics.
//! Bench binaries install it as `#[global_allocator]`, call
//! [`reset_peak`] before each run and read [`peak_bytes`] after — giving a
//! deterministic, comparable per-run memory figure.
//!
//! Cost: two atomic adds per allocation. That overhead is identical across
//! partitioners, so comparisons remain fair.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A [`GlobalAlloc`] wrapper over the system allocator that tracks live and
/// peak heap bytes.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: tps_metrics::alloc::CountingAllocator = tps_metrics::alloc::CountingAllocator;
/// ```
pub struct CountingAllocator;

impl CountingAllocator {
    #[inline]
    fn add(size: usize) {
        let cur = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
        // Lossy peak update is fine: the bench harness is effectively
        // single-threaded at measurement points, and a slightly stale peak
        // changes nothing about the comparison.
        let mut peak = PEAK.load(Ordering::Relaxed);
        while cur > peak {
            match PEAK.compare_exchange_weak(peak, cur, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
    }

    #[inline]
    fn sub(size: usize) {
        CURRENT.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: delegates directly to `System`; the bookkeeping never dereferences
// the returned pointers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::sub(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::add(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::sub(layout.size());
            Self::add(new_size);
        }
        p
    }
}

/// Live heap bytes right now (as tracked; 0 if the counting allocator is not
/// installed).
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Reset the peak to the current live count. Call before a measured run.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Measure the peak heap growth of `f` relative to entry, in bytes.
///
/// Only meaningful when [`CountingAllocator`] is installed as the global
/// allocator; returns 0 growth otherwise.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = current_bytes();
    reset_peak();
    let out = f();
    let peak = peak_bytes();
    (out, peak.saturating_sub(base))
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the allocator is *not* installed in unit tests (installing a
    // global allocator in a lib's test build would affect every test). These
    // tests cover the bookkeeping arithmetic through the public hooks.

    /// `CURRENT` and `PEAK` are process-global and `cargo test` runs tests
    /// on parallel threads: every test that touches them holds this lock,
    /// so none sees another's bytes between its reads.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_counters() -> std::sync::MutexGuard<'static, ()> {
        // A failed assertion in one test must not fail the others: the
        // guarded data is `()`, so a poisoned lock is still valid.
        COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn add_sub_roundtrip() {
        let _guard = lock_counters();
        let before = current_bytes();
        CountingAllocator::add(1024);
        assert_eq!(current_bytes(), before + 1024);
        assert!(peak_bytes() >= before + 1024);
        CountingAllocator::sub(1024);
        assert_eq!(current_bytes(), before);
    }

    #[test]
    fn reset_peak_drops_to_current() {
        let _guard = lock_counters();
        CountingAllocator::add(4096);
        CountingAllocator::sub(4096);
        reset_peak();
        assert_eq!(peak_bytes(), current_bytes());
    }

    #[test]
    fn measure_peak_reports_growth() {
        let _guard = lock_counters();
        let ((), growth) = measure_peak(|| {
            CountingAllocator::add(10_000);
            CountingAllocator::sub(10_000);
        });
        assert!(growth >= 10_000);
    }
}
