//! Thread-local event/span recorder.
//!
//! Each thread records into a fixed-capacity ring ([`RING_CAPACITY`] events)
//! that is flushed into a process-global collection buffer when it fills and
//! at explicit barriers ([`drain_local`], [`take_events`]). Recording is
//! gated by a global enable flag: when disabled (the default) [`span`] costs
//! a relaxed load and a clock read, and [`instant`] is a relaxed load.
//!
//! Timestamps are nanoseconds since a process-local epoch (first use), so
//! they are monotonic per process. Events shipped from remote workers keep
//! their own epochs; the report layer only compares timestamps within one
//! `(worker, thread)` timeline.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Per-thread ring capacity, in events, before an automatic flush.
pub const RING_CAPACITY: usize = 1024;

/// What an event marks: a span opening, a span closing, or a point event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span started.
    Open,
    /// The most recently opened span on this thread ended.
    Close,
    /// A point-in-time mark (e.g. a fault event).
    Mark,
}

/// One recorded event, owned (names become `String` when leaving the ring).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Open / Close / Mark.
    pub kind: EventKind,
    /// Span or mark name (phase names match `PhaseTimer` entries).
    pub name: String,
    /// Originating worker: 0 is the local process (serial runs, the
    /// coordinator); dist workers are `shard + 1`.
    pub worker: u32,
    /// Recording thread id, unique per thread within a worker.
    pub tid: u32,
    /// Nanoseconds since the worker's process-local epoch.
    pub ns: u64,
    /// Optional free-form detail (fault events carry the error text).
    pub detail: Option<String>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NOTICES: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static COLLECTED: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static REMOTE_COUNTERS: Mutex<Vec<(u32, String, u64)>> = Mutex::new(Vec::new());

struct Ring {
    tid: u32,
    events: Vec<(EventKind, &'static str, u64, Option<String>)>,
}

thread_local! {
    static RING: RefCell<Ring> = RefCell::new(Ring {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: Vec::new(),
    });
}

fn collected() -> std::sync::MutexGuard<'static, Vec<TraceEvent>> {
    COLLECTED.lock().unwrap_or_else(|e| e.into_inner())
}

fn remote_counters() -> std::sync::MutexGuard<'static, Vec<(u32, String, u64)>> {
    REMOTE_COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Turn event recording on or off (counters are unaffected: always on).
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before the first event so timestamps start near zero.
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether event recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn flush(ring: &mut Ring) {
    if ring.events.is_empty() {
        return;
    }
    let tid = ring.tid;
    let mut sink = collected();
    sink.extend(
        ring.events
            .drain(..)
            .map(|(kind, name, ns, detail)| TraceEvent {
                kind,
                name: name.to_string(),
                worker: 0,
                tid,
                ns,
                detail,
            }),
    );
}

fn push(kind: EventKind, name: &'static str, detail: Option<String>) {
    let ns = now_ns();
    RING.with(|ring| {
        let mut ring = ring.borrow_mut();
        if ring.events.capacity() == 0 {
            ring.events.reserve_exact(RING_CAPACITY);
        }
        if ring.events.len() >= RING_CAPACITY {
            flush(&mut ring);
        }
        ring.events.push((kind, name, ns, detail));
    });
}

/// Record a point event if recording is enabled.
#[inline]
pub fn instant(name: &'static str) {
    if enabled() {
        push(EventKind::Mark, name, None);
    }
}

/// Record a point event with a detail string if recording is enabled.
///
/// The detail is only materialised when recording is on; pass a closure-free
/// `format!` at call sites guarded by this function's own check when the
/// formatting itself is expensive.
#[inline]
pub fn instant_with(name: &'static str, detail: String) {
    if enabled() {
        push(EventKind::Mark, name, Some(detail));
    }
}

/// Let [`notice`] print to stderr (off by default: a library stays silent
/// unless the front-end that owns the terminal turns this on).
pub fn set_notices(on: bool) {
    NOTICES.store(on, Ordering::Relaxed);
}

/// Something the operator should know *while the run is going*: printed
/// as one `note:` line on stderr if the front-end enabled notices, and
/// recorded as a point event if recording is enabled.
pub fn notice(name: &'static str, message: String) {
    if NOTICES.load(Ordering::Relaxed) {
        eprintln!("note: {message}");
    }
    instant_with(name, message);
}

/// Flush this thread's ring into the global buffer (a barrier drain).
///
/// Call at the end of worker-thread bodies so events survive thread exit.
pub fn drain_local() {
    RING.with(|ring| flush(&mut ring.borrow_mut()));
}

/// Drain the calling thread and take every collected event, sorted by
/// `(worker, tid)` with per-thread chronological order preserved.
///
/// Rings of *other* live threads are not drained here — drain them at their
/// own barriers with [`drain_local`] before the final take.
pub fn take_events() -> Vec<TraceEvent> {
    drain_local();
    let mut out = std::mem::take(&mut *collected());
    out.sort_by_key(|a| (a.worker, a.tid, a.ns));
    out
}

/// Drain the calling thread's ring, then remove and return only the events
/// this thread recorded (matched by its tid) — including any that earlier
/// overflowed into the global buffer.
///
/// Dist workers use this to ship their own events in the `ShardDone` frame
/// without disturbing other threads' events when they share a process with
/// the coordinator (loopback / `--dist-local` runs).
pub fn take_thread_events() -> Vec<TraceEvent> {
    drain_local();
    let tid = RING.with(|ring| ring.borrow().tid);
    let mut sink = collected();
    let mut out = Vec::new();
    let mut keep = Vec::with_capacity(sink.len());
    for e in sink.drain(..) {
        if e.worker == 0 && e.tid == tid {
            out.push(e);
        } else {
            keep.push(e);
        }
    }
    *sink = keep;
    out
}

/// Ingest events shipped from a remote worker, tagging them with `worker`.
pub fn record_remote(worker: u32, events: Vec<TraceEvent>) {
    let mut sink = collected();
    for mut e in events {
        e.worker = worker;
        sink.push(e);
    }
}

/// Stash a remote worker's counter snapshot for the trace writer.
pub fn record_remote_counters(worker: u32, counters: Vec<(String, u64)>) {
    let mut sink = remote_counters();
    for (name, value) in counters {
        sink.push((worker, name, value));
    }
}

/// Take every stashed remote counter snapshot, sorted by `(worker, name)`.
pub fn take_remote_counters() -> Vec<(u32, String, u64)> {
    let mut out = std::mem::take(&mut *remote_counters());
    out.sort();
    out
}

/// Discard all collected events and remote counters (test / bench isolation).
pub fn reset_events() {
    RING.with(|ring| ring.borrow_mut().events.clear());
    collected().clear();
    remote_counters().clear();
}

/// An open span. Created by [`span`]; closed by [`Span::end`] or on drop.
///
/// The start instant is always captured (callers need the duration for the
/// `PhaseTimer` summary); the open/close *events* are only recorded when the
/// recorder was enabled at open time.
#[must_use = "hold the span for the duration of the phase, then call end()"]
pub struct Span {
    name: &'static str,
    start: Instant,
    armed: bool,
}

/// Open a span named `name`.
#[inline]
pub fn span(name: &'static str) -> Span {
    let armed = enabled();
    if armed {
        push(EventKind::Open, name, None);
    }
    Span {
        name,
        start: Instant::now(),
        armed,
    }
}

impl Span {
    /// Close the span and return its measured wall-clock duration.
    pub fn end(mut self) -> Duration {
        let d = self.start.elapsed();
        self.close();
        d
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn close(&mut self) {
        if self.armed {
            self.armed = false;
            push(EventKind::Close, self.name, None);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global state; serialise tests touching it.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = locked();
        reset_events();
        set_enabled(false);
        let s = span("quiet");
        instant("mark");
        let d = s.end();
        assert!(d.as_nanos() < u128::MAX);
        assert!(take_events().is_empty());
    }

    #[test]
    fn span_records_open_close_in_order() {
        let _g = locked();
        reset_events();
        set_enabled(true);
        let outer = span("outer");
        let inner = span("inner");
        inner.end();
        instant("mark");
        outer.end();
        set_enabled(false);
        let ev = take_events();
        let kinds: Vec<(EventKind, &str)> = ev.iter().map(|e| (e.kind, e.name.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (EventKind::Open, "outer"),
                (EventKind::Open, "inner"),
                (EventKind::Close, "inner"),
                (EventKind::Mark, "mark"),
                (EventKind::Close, "outer"),
            ]
        );
        let mut last = 0;
        for e in &ev {
            assert!(e.ns >= last, "timestamps must be monotonic per thread");
            last = e.ns;
        }
    }

    #[test]
    fn drop_closes_span() {
        let _g = locked();
        reset_events();
        set_enabled(true);
        {
            let _s = span("scoped");
        }
        set_enabled(false);
        let ev = take_events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].kind, EventKind::Close);
    }

    #[test]
    fn ring_overflow_flushes() {
        let _g = locked();
        reset_events();
        set_enabled(true);
        for _ in 0..(RING_CAPACITY + 10) {
            instant("tick");
        }
        set_enabled(false);
        let ev = take_events();
        assert_eq!(ev.len(), RING_CAPACITY + 10);
    }

    #[test]
    fn threads_get_distinct_tids_and_keep_order() {
        let _g = locked();
        reset_events();
        set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let s = span("worker_phase");
                    instant("worker_mark");
                    s.end();
                    drain_local();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let ev = take_events();
        assert_eq!(ev.len(), 12);
        let mut tids: Vec<u32> = ev.iter().map(|e| e.tid).collect();
        tids.dedup();
        assert_eq!(tids.len(), 4, "four threads, four contiguous tid groups");
        for chunk in ev.chunks(3) {
            assert_eq!(chunk[0].kind, EventKind::Open);
            assert_eq!(chunk[1].kind, EventKind::Mark);
            assert_eq!(chunk[2].kind, EventKind::Close);
        }
    }

    #[test]
    fn remote_events_are_tagged() {
        let _g = locked();
        reset_events();
        record_remote(
            3,
            vec![TraceEvent {
                kind: EventKind::Mark,
                name: "remote".into(),
                worker: 0,
                tid: 1,
                ns: 5,
                detail: None,
            }],
        );
        record_remote_counters(3, vec![("io.test".into(), 9)]);
        let ev = take_events();
        assert_eq!(ev[0].worker, 3);
        assert_eq!(take_remote_counters(), vec![(3, "io.test".into(), 9)]);
    }
}
