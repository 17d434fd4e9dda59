//! Observability substrate for the `twophase` workspace.
//!
//! The paper's central claim is a *linear run-time budget* per phase; this
//! crate makes every run able to show where that budget went. It is std-only
//! (no external dependencies, like the rest of the workspace) and provides
//! four layers:
//!
//! * [`counter`] — a registry of always-on, relaxed-atomic [`Counter`]s with
//!   hierarchical names (`io.v2.chunks_decoded`, `dist.frames.sent`, …).
//!   Counting costs one `fetch_add` and never changes partitioning output.
//! * [`recorder`] — a thread-local event/span recorder behind a global
//!   enable flag. When disabled (the default), [`span`] is a branch and a
//!   clock read; when enabled it appends open/close/mark events into a
//!   fixed-size per-thread ring that is drained at barriers.
//! * [`trace`] — a flat JSON-lines sink and parser for traces: one meta
//!   line, one line per event, one line per counter value. Dist workers ship
//!   their drained events to the coordinator inside the `ShardDone` barrier
//!   frame, so a single file describes the whole cluster. Traces are read
//!   back through [`json`], the workspace's one JSON parser.
//! * [`report`] — reconstructs the span forest from a trace (validating
//!   nesting and per-thread timestamp monotonicity) and renders the phase
//!   breakdown, top counters, and fault timeline (`tps report`).
//!
//! On top of the run-scoped layers sits the **live metrics plane** for
//! long-running modes (`tps serve`, the dist coordinator):
//!
//! * [`hist`] — mergeable log-bucketed latency [`Hist`]ograms: fixed
//!   √2-spaced buckets, lock-free relaxed-atomic record, exact merge,
//!   quantiles with bounded relative error.
//! * [`gauge`] — last-value [`Gauge`]s (static registry mirroring the
//!   counters, plus dynamically named gauges for per-shard state).
//! * [`export`] — Prometheus-style text exposition + a std-only scrape
//!   listener ([`serve_metrics`]) and client ([`scrape`]); all encoding
//!   happens on the scrape thread.
//!
//! [`timer::PhaseTimer`] (the Fig. 5 run-time dissection table) also lives
//! here now; spans are the single timing source and callers record
//! `span.end()` durations into the timer for human-readable summaries.

pub mod counter;
pub mod export;
pub mod gauge;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod report;
pub mod timer;
pub mod trace;

pub use counter::{counters_snapshot, reset_counters, Counter};
pub use export::{
    parse_exposition, render_exposition, render_hist, scrape, serve_metrics, MetricsServer, Sample,
    EXPORT_QUANTILES,
};
pub use gauge::{gauges_snapshot, reset_gauges, set_gauge, Gauge};
pub use hist::{
    bucket_bound, bucket_index, hists_snapshot, metrics_enabled, set_metrics_enabled, Hist,
    HistSnapshot, MIN_VALUE, NUM_BUCKETS,
};
pub use recorder::{
    drain_local, enabled, instant, instant_with, notice, record_remote, record_remote_counters,
    reset_events, set_enabled, set_notices, span, take_events, take_remote_counters,
    take_thread_events, EventKind, Span, TraceEvent,
};
pub use report::{build_span_forest, render_report, SpanNode, ThreadSpans};
pub use timer::PhaseTimer;
pub use trace::{render_trace, write_trace, Trace, TraceMeta, TraceRecording};

/// Run `$body` inside a span named `$name`, recording the measured duration
/// into `$timer` (a [`PhaseTimer`]) under the same name.
///
/// This is the migration shim for the old `Instant::now()` / `record()`
/// pattern: one expression, one timing source.
#[macro_export]
macro_rules! phase_span {
    ($timer:expr, $name:expr, $body:expr) => {{
        let __span = $crate::span($name);
        let __out = $body;
        $timer.record($name, __span.end());
        __out
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_span_macro_records_into_timer() {
        let mut timer = PhaseTimer::new();
        let v = phase_span!(timer, "work", { 2 + 3 });
        assert_eq!(v, 5);
        assert_eq!(timer.phases().len(), 1);
        assert_eq!(timer.phases()[0].0, "work");
    }
}
