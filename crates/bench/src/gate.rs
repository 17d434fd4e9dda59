//! The CI performance gate: parse bench JSON reports, extract named
//! throughput metrics, and compare against a committed baseline.
//!
//! Reports are read with the workspace's one JSON parser,
//! [`tps_obs::json`], re-exported here as [`parse_json`] and [`Json`].
//!
//! Metrics come in two directions, resolved per key by [`direction`]'s
//! suffix table:
//!
//! * **floors** ([`Direction::Floor`], throughput-shaped, higher is better
//!   — the default): the gate fails when `current < floor × (1 −
//!   tolerance)`. Absolute numbers vary across machines, so committed
//!   floors should be *derated* (the `perf_gate --write-baseline
//!   --derate f` flow) — the gate then catches genuine regressions
//!   without tripping on runner jitter.
//! * **ceilings** ([`Direction::Ceiling`], lower is better — the
//!   replication-factor ratios `*.rf_vs_serial`, the peak-memory
//!   bounds `*.peak_rss_mb`, the tracing-overhead ratios
//!   `*.trace_overhead.slowdown`, and the serve update-cost bounds
//!   `*.update_ms_per_edge` / `*.update_scale_ratio`): the gate fails
//!   when `current > ceiling × (1 + tolerance)`. RF ratios are
//!   deterministic for a fixed worker count and committed as measured;
//!   the rest are committed with explicit headroom (see
//!   `bench/baselines/ci.json`). None are derated by `--write-baseline`.

use std::collections::BTreeMap;

pub use tps_obs::json::{parse_json, Json};

/// Extract the gated metrics from a *merged* report
/// `{"io_readers": ..., "parallel_scaling": ..., "mem_peak": ...}`.
pub fn extract_metrics(report: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(io) = report.get("io_readers") {
        for entry in io.get("stream_pass").and_then(Json::as_arr).unwrap_or(&[]) {
            if let (Some(format), Some(backend), Some(v)) = (
                entry.get("format").and_then(Json::as_str),
                entry.get("backend").and_then(Json::as_str),
                entry.get("medges_per_sec").and_then(Json::as_f64),
            ) {
                out.insert(format!("io_readers.{format}.{backend}.medges_per_sec"), v);
            }
        }
        // The v2/v1 epoch-throughput ratios are gated as floors: unlike the
        // absolute Medges/s numbers they are robust to container-speed
        // drift, since both sides of each ratio ran interleaved on the same
        // machine in the same process.
        for entry in io.get("v2_vs_v1").and_then(Json::as_arr).unwrap_or(&[]) {
            if let (Some(backend), Some(v)) = (
                entry.get("backend").and_then(Json::as_str),
                entry.get("ratio").and_then(Json::as_f64),
            ) {
                out.insert(format!("io_readers.v2_vs_v1.{backend}.ratio"), v);
            }
        }
    }
    // parallel_scaling and dist_scaling emit the same schema (serial
    // reference + per-worker-count rows); gate both under their own prefix.
    for section in ["parallel_scaling", "dist_scaling"] {
        let Some(par) = report.get(section) else {
            continue;
        };
        if let Some(v) = par
            .get("serial")
            .and_then(|s| s.get("medges_per_sec"))
            .and_then(Json::as_f64)
        {
            out.insert(format!("{section}.serial.medges_per_sec"), v);
        }
        for entry in par.get("parallel").and_then(Json::as_arr).unwrap_or(&[]) {
            let Some(t) = entry.get("threads").and_then(Json::as_f64) else {
                continue;
            };
            if let Some(v) = entry.get("medges_per_sec").and_then(Json::as_f64) {
                out.insert(format!("{section}.t{}.medges_per_sec", t as u64), v);
            }
            // Replication-factor quality ratio: a ceiling metric (lower is
            // better), guarding the measured per-worker-count RF epsilons.
            if let Some(v) = entry.get("rf_vs_serial").and_then(Json::as_f64) {
                out.insert(format!("{section}.t{}.rf_vs_serial", t as u64), v);
            }
        }
        // One-worker parity floor: serial ÷ T = 1 wall time, interleaved
        // in one process like the v2/v1 ratios above.
        if let Some(v) = par
            .get("t1_vs_serial")
            .and_then(|t| t.get("ratio"))
            .and_then(Json::as_f64)
        {
            out.insert(format!("{section}.t1_vs_serial.ratio"), v);
        }
        // Tracing-overhead ceiling: traced ÷ untraced wall time.
        if let Some(v) = par
            .get("trace_overhead")
            .and_then(|t| t.get("slowdown"))
            .and_then(Json::as_f64)
        {
            out.insert(format!("{section}.trace_overhead.slowdown"), v);
        }
    }
    // serve_scaling gates the online path: batched lookup throughput
    // (floor) plus the fixed-delta update-cost ceilings — ms/edge on the
    // base graph and the 10×-graph/base ratio that pins "update cost
    // scales with the delta, not the graph".
    if let Some(serve) = report.get("serve_scaling") {
        if let Some(v) = serve
            .get("lookup")
            .and_then(|l| l.get("lookup_qps"))
            .and_then(Json::as_f64)
        {
            out.insert("serve_scaling.lookup_qps".to_string(), v);
        }
        if let Some(update) = serve.get("update") {
            if let Some(v) = update.get("update_ms_per_edge").and_then(Json::as_f64) {
                out.insert("serve_scaling.update_ms_per_edge".to_string(), v);
            }
            if let Some(v) = update.get("update_scale_ratio").and_then(Json::as_f64) {
                out.insert("serve_scaling.update_scale_ratio".to_string(), v);
            }
        }
        // Live-metrics overhead ceiling: instrumented ÷ uninstrumented
        // lookup time, exact-tolerance like the trace_overhead slowdowns.
        if let Some(v) = serve
            .get("metrics_overhead")
            .and_then(|m| m.get("slowdown"))
            .and_then(Json::as_f64)
        {
            out.insert("serve_scaling.metrics_overhead.slowdown".to_string(), v);
        }
    }
    // mem_peak emits one row per execution mode; the gated number is the
    // peak-RSS ceiling.
    if let Some(mem) = report.get("mem_peak") {
        for entry in mem.get("modes").and_then(Json::as_arr).unwrap_or(&[]) {
            if let (Some(mode), Some(v)) = (
                entry.get("mode").and_then(Json::as_str),
                entry.get("peak_rss_mb").and_then(Json::as_f64),
            ) {
                out.insert(format!("mem_peak.{mode}.peak_rss_mb"), v);
            }
        }
        // … and the peak-RSS differences between pairs of modes (a ceiling
        // in MB on what one mode holds beyond the other, which cancels the
        // runner's fixed allocator and binary residency).
        for entry in mem.get("differences").and_then(Json::as_arr).unwrap_or(&[]) {
            if let (Some(name), Some(v)) = (
                entry.get("name").and_then(Json::as_str),
                entry.get("mb").and_then(Json::as_f64),
            ) {
                out.insert(format!("mem_peak.{name}.mb"), v);
            }
        }
    }
    // scale_up gates the paper's headline bound from both sides: absolute
    // top-scale throughput (floor) and peak RSS (ceiling), plus the two
    // top÷base growth ratios — time-per-edge (linear run-time) and peak
    // RSS (edge-independent memory) — as ceilings near 1.0.
    if let Some(scale) = report.get("scale_up") {
        if let Some(top) = scale.get("top") {
            if let Some(v) = top.get("medges_per_sec").and_then(Json::as_f64) {
                out.insert("scale_up.top.medges_per_sec".to_string(), v);
            }
            if let Some(v) = top.get("peak_rss_mb").and_then(Json::as_f64) {
                out.insert("scale_up.top.peak_rss_mb".to_string(), v);
            }
        }
        for family in ["time_per_edge", "peak_rss"] {
            if let Some(v) = scale
                .get(family)
                .and_then(|f| f.get("growth_ratio"))
                .and_then(Json::as_f64)
            {
                out.insert(format!("scale_up.{family}.growth_ratio"), v);
            }
        }
    }
    out
}

/// Compare direction of one gated metric (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Higher is better; the gate bounds regressions from below.
    Floor,
    /// Lower is better; the gate bounds regressions from above.
    Ceiling,
}

/// The per-key direction table: metrics whose key ends with a listed
/// suffix take its direction; everything else is a throughput-shaped
/// floor. One table, shared by the gate comparison and the baseline
/// writer — adding a new lower-is-better metric family is one entry here,
/// not another suffix special-case at each call site.
const DIRECTION_SUFFIXES: &[(&str, Direction)] = &[
    (".rf_vs_serial", Direction::Ceiling),
    (".peak_rss_mb", Direction::Ceiling),
    (".slowdown", Direction::Ceiling),
    (".update_ms_per_edge", Direction::Ceiling),
    (".update_scale_ratio", Direction::Ceiling),
    (".growth_ratio", Direction::Ceiling),
    // Peak RSS of `--threads 2` − serial on the same file, in MB.
    ("mem_peak.k32_t2_minus_serial_file.mb", Direction::Ceiling),
];

/// The compare direction of `metric`, per the suffix table above.
pub fn direction(metric: &str) -> Direction {
    DIRECTION_SUFFIXES
        .iter()
        .find(|(suffix, _)| metric.ends_with(suffix))
        .map(|&(_, d)| d)
        .unwrap_or(Direction::Floor)
}

/// Whether `metric` is a **ceiling** (lower is better).
pub fn is_ceiling(metric: &str) -> bool {
    direction(metric) == Direction::Ceiling
}

/// Per-metric tolerance override. The `*.slowdown` tracing-overhead
/// ceilings are ratios whose committed baseline already encodes the
/// allowed headroom (1.03 = "traced within 3% of untraced"), so the
/// global jitter tolerance must not widen them: they compare exactly.
/// The serve `*.update_scale_ratio` ceiling deliberately keeps the
/// standard tolerance — its committed 2.0 documents the paper-shaped
/// fixed-delta bound, while the regression it guards against (a
/// per-mutation packed-table probe tying update cost to graph size)
/// lands at 3× and beyond, so runner jitter headroom does not blunt it.
/// The scale_up `*.growth_ratio` ceilings compare exactly too: they pin
/// the paper's linear-run-time / flat-RSS claims, where the committed
/// value (≈1.25) already holds all the jitter headroom — widening it by
/// another 25% would admit a super-linear pass unchallenged. So does the
/// `mem_peak` RSS difference: its committed MB sit 0.7 MB over the
/// highest measured run, and the regression it exists to catch (a byte
/// per edge of each worker's range resident again) reads ~1.2 MB over
/// that run.
pub fn tolerance_override(metric: &str) -> Option<f64> {
    (metric.ends_with(".slowdown")
        || metric.ends_with(".growth_ratio")
        || metric == "mem_peak.k32_t2_minus_serial_file.mb")
        .then_some(0.0)
}

/// Restrict `baseline` to metrics whose section (the prefix before the
/// first `.`) appears in `sections` — the report families this gate
/// invocation actually ran. CI runs the gate from more than one job
/// (perf-smoke gates io + scaling, dist-smoke gates dist) against one
/// committed baseline file; without scoping, each job would flag the other
/// job's floors as "missing bench" regressions. Within a supplied section,
/// a missing metric still fails.
pub fn scope_baseline(
    baseline: &BTreeMap<String, f64>,
    sections: &[&str],
) -> BTreeMap<String, f64> {
    baseline
        .iter()
        .filter(|(k, _)| {
            let section = k.split('.').next().unwrap_or("");
            sections.contains(&section)
        })
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

/// One metric that fell below the gate.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    pub metric: String,
    pub baseline: f64,
    pub current: f64,
    /// `current / baseline` (1.0 = unchanged).
    pub ratio: f64,
}

/// Compare `current` metrics against `baseline`: a floor metric regresses
/// when it drops below `baseline × (1 − tolerance)`, a ceiling metric (see
/// [`is_ceiling`]) when it rises above `baseline × (1 + tolerance)`, and a
/// baseline metric missing from the current report is a regression outright
/// (a silently dropped bench must not pass the gate). Extra current metrics
/// are allowed — new benches land before their baselines.
pub fn compare(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    tolerance: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for (metric, &base) in baseline {
        let tolerance = tolerance_override(metric).unwrap_or(tolerance);
        let regressed = match current.get(metric) {
            None => true,
            Some(&cur) if is_ceiling(metric) => cur > base * (1.0 + tolerance),
            Some(&cur) => cur < base * (1.0 - tolerance),
        };
        if regressed {
            let cur = current.get(metric).copied().unwrap_or(0.0);
            out.push(Regression {
                metric: metric.clone(),
                baseline: base,
                current: cur,
                ratio: if base > 0.0 { cur / base } else { 0.0 },
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Json {
        parse_json(
            r#"{
              "io_readers": {
                "stream_pass": [
                  {"format": "v1", "backend": "mmap", "pass_seconds": 0.1, "medges_per_sec": 40.0},
                  {"format": "v2", "backend": "buffered", "pass_seconds": 0.2, "medges_per_sec": 20.0}
                ],
                "v2_vs_v1": [
                  {"backend": "mmap", "ratio": 1.05, "v1_medges_per_sec": 40.0, "v2_medges_per_sec": 42.0}
                ]
              },
              "parallel_scaling": {
                "serial": {"seconds": 1.0, "medges_per_sec": 15.0},
                "parallel": [
                  {"threads": 1, "medges_per_sec": 14.0, "rf_vs_serial": 1.0},
                  {"threads": 4, "medges_per_sec": 50.0, "rf_vs_serial": 1.24}
                ],
                "t1_vs_serial": {"serial_seconds": 1.0, "t1_seconds": 1.25, "ratio": 0.8}
              }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn extracts_named_metrics() {
        let m = extract_metrics(&sample_report());
        assert_eq!(m["io_readers.v1.mmap.medges_per_sec"], 40.0);
        assert_eq!(m["io_readers.v2.buffered.medges_per_sec"], 20.0);
        assert_eq!(m["parallel_scaling.serial.medges_per_sec"], 15.0);
        assert_eq!(m["parallel_scaling.t4.medges_per_sec"], 50.0);
        assert_eq!(m["parallel_scaling.t1.rf_vs_serial"], 1.0);
        assert_eq!(m["parallel_scaling.t4.rf_vs_serial"], 1.24);
        assert_eq!(m["io_readers.v2_vs_v1.mmap.ratio"], 1.05);
        assert_eq!(m["parallel_scaling.t1_vs_serial.ratio"], 0.8);
        assert_eq!(m.len(), 9);
        // The v2/v1 parity ratio is a floor (higher = v2 faster = better);
        // note the distinct `.update_scale_ratio` suffix stays a ceiling.
        assert_eq!(
            direction("io_readers.v2_vs_v1.mmap.ratio"),
            Direction::Floor
        );
        assert_eq!(
            direction("parallel_scaling.t1_vs_serial.ratio"),
            Direction::Floor
        );
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let mut base = BTreeMap::new();
        base.insert("a".to_string(), 100.0);
        base.insert("b".to_string(), 100.0);
        base.insert("c".to_string(), 100.0);
        let mut cur = BTreeMap::new();
        cur.insert("a".to_string(), 80.0); // within 25% tolerance
        cur.insert("b".to_string(), 70.0); // regression
        cur.insert("c".to_string(), 130.0); // improvement
        cur.insert("new".to_string(), 1.0); // extra metric: fine
        let regs = compare(&base, &cur, 0.25);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "b");
        assert!((regs[0].ratio - 0.7).abs() < 1e-12);
    }

    #[test]
    fn missing_current_metric_is_a_regression() {
        let mut base = BTreeMap::new();
        base.insert("gone".to_string(), 10.0);
        let regs = compare(&base, &BTreeMap::new(), 0.25);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].current, 0.0);
    }

    #[test]
    fn rf_ceilings_fail_upward_not_downward() {
        let mut base = BTreeMap::new();
        base.insert("parallel_scaling.t4.rf_vs_serial".to_string(), 1.24);
        base.insert("dist_scaling.t2.rf_vs_serial".to_string(), 1.05);
        base.insert("parallel_scaling.t4.medges_per_sec".to_string(), 10.0);

        // Better (lower) RF and faster throughput: no regressions.
        let mut good = BTreeMap::new();
        good.insert("parallel_scaling.t4.rf_vs_serial".to_string(), 1.10);
        good.insert("dist_scaling.t2.rf_vs_serial".to_string(), 1.05);
        good.insert("parallel_scaling.t4.medges_per_sec".to_string(), 12.0);
        assert!(compare(&base, &good, 0.25).is_empty());

        // RF blowing past ceiling × (1 + tolerance) fails, throughput-style
        // "higher is fine" must NOT apply to a ceiling.
        let mut bad = BTreeMap::new();
        bad.insert("parallel_scaling.t4.rf_vs_serial".to_string(), 1.60);
        bad.insert("dist_scaling.t2.rf_vs_serial".to_string(), 1.05);
        bad.insert("parallel_scaling.t4.medges_per_sec".to_string(), 12.0);
        let regs = compare(&base, &bad, 0.25);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "parallel_scaling.t4.rf_vs_serial");
        assert!(regs[0].ratio > 1.0);

        // A ceiling missing from the current report is a regression too —
        // 0.0 would trivially pass an upper bound otherwise.
        let mut gone = good.clone();
        gone.remove("dist_scaling.t2.rf_vs_serial");
        let regs = compare(&base, &gone, 0.25);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "dist_scaling.t2.rf_vs_serial");
    }

    #[test]
    fn direction_table_routes_by_suffix() {
        assert_eq!(
            direction("parallel_scaling.t4.rf_vs_serial"),
            Direction::Ceiling
        );
        assert_eq!(
            direction("dist_scaling.t2.rf_vs_serial"),
            Direction::Ceiling
        );
        assert_eq!(direction("mem_peak.t8.peak_rss_mb"), Direction::Ceiling);
        assert_eq!(direction("mem_peak.serial.peak_rss_mb"), Direction::Ceiling);
        assert_eq!(
            direction("parallel_scaling.t4.medges_per_sec"),
            Direction::Floor
        );
        assert_eq!(
            direction("io_readers.v1.mmap.medges_per_sec"),
            Direction::Floor
        );
        assert_eq!(
            direction("scale_up.time_per_edge.growth_ratio"),
            Direction::Ceiling
        );
        assert_eq!(
            direction("scale_up.peak_rss.growth_ratio"),
            Direction::Ceiling
        );
        assert_eq!(direction("scale_up.top.medges_per_sec"), Direction::Floor);
        // Growth ratios are exact-compare ceilings, like slowdown budgets.
        assert_eq!(
            tolerance_override("scale_up.time_per_edge.growth_ratio"),
            Some(0.0)
        );
        // A suffix must match the *end* of the key, not a substring.
        assert_eq!(direction("x.peak_rss_mb.note"), Direction::Floor);
        assert!(is_ceiling("mem_peak.dist2.peak_rss_mb"));
        assert!(!is_ceiling("mem_peak.dist2.seconds"));
        // One RSS difference is a ceiling, compared exactly; throughput
        // ratios stay floors.
        assert!(is_ceiling("mem_peak.k32_t2_minus_serial_file.mb"));
        assert_eq!(
            tolerance_override("mem_peak.k32_t2_minus_serial_file.mb"),
            Some(0.0)
        );
        assert!(!is_ceiling("io_readers.v2_vs_v1.mmap.ratio"));
    }

    #[test]
    fn slowdown_ceiling_ignores_global_tolerance() {
        assert_eq!(
            direction("parallel_scaling.trace_overhead.slowdown"),
            Direction::Ceiling
        );
        assert_eq!(
            tolerance_override("parallel_scaling.trace_overhead.slowdown"),
            Some(0.0)
        );
        assert_eq!(tolerance_override("mem_peak.t8.peak_rss_mb"), None);
        let mut base = BTreeMap::new();
        // 1.03 IS the headroom: the global 25% tolerance must not widen it.
        base.insert("parallel_scaling.trace_overhead.slowdown".to_string(), 1.03);
        let mut ok = BTreeMap::new();
        ok.insert("parallel_scaling.trace_overhead.slowdown".to_string(), 1.02);
        assert!(compare(&base, &ok, 0.25).is_empty());
        let mut bad = BTreeMap::new();
        bad.insert("parallel_scaling.trace_overhead.slowdown".to_string(), 1.05);
        let regs = compare(&base, &bad, 0.25);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "parallel_scaling.trace_overhead.slowdown");
    }

    #[test]
    fn extracts_trace_overhead_slowdown() {
        let j = parse_json(
            r#"{
              "parallel_scaling": {
                "serial": {"medges_per_sec": 10.0},
                "parallel": [{"threads": 4, "medges_per_sec": 30.0}],
                "trace_overhead": {"threads": 4, "untraced_medges_per_sec": 30.0,
                                   "traced_medges_per_sec": 29.5, "slowdown": 1.017}
              }
            }"#,
        )
        .unwrap();
        let m = extract_metrics(&j);
        assert_eq!(m["parallel_scaling.trace_overhead.slowdown"], 1.017);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn extracts_mem_peak_modes() {
        let j = parse_json(
            r#"{
              "mem_peak": {
                "graph": {"vertices": 10, "edges": 20, "k": 4},
                "differences": [{"name": "k32_t2_minus_serial_file", "mb": 5.8}],
                "modes": [
                  {"mode": "serial", "peak_rss_mb": 10.5, "seconds": 0.1},
                  {"mode": "t8", "peak_rss_mb": 12.0, "pre_partition_mb": 2.0},
                  {"mode": "dist2", "peak_rss_mb": 21.0}
                ]
              }
            }"#,
        )
        .unwrap();
        let m = extract_metrics(&j);
        assert_eq!(m["mem_peak.k32_t2_minus_serial_file.mb"], 5.8);
        assert_eq!(m["mem_peak.serial.peak_rss_mb"], 10.5);
        assert_eq!(m["mem_peak.t8.peak_rss_mb"], 12.0);
        assert_eq!(m["mem_peak.dist2.peak_rss_mb"], 21.0);
        assert_eq!(m.len(), 4, "seconds/pre_partition are not gated");
    }

    #[test]
    fn extracts_scale_up_metrics() {
        let j = parse_json(
            r#"{
              "scale_up": {
                "graph": {"vertices": 4194304, "k": 32, "mem_budget_mb": 160},
                "scales": [
                  {"edges": 25000000, "seconds": 29.1, "peak_rss_mb": 120.5},
                  {"edges": 100000000, "seconds": 112.0, "peak_rss_mb": 125.0}
                ],
                "top": {"edges": 100000000, "medges_per_sec": 0.893, "peak_rss_mb": 125.0},
                "time_per_edge": {"growth_ratio": 0.962},
                "peak_rss": {"growth_ratio": 1.037}
              }
            }"#,
        )
        .unwrap();
        let m = extract_metrics(&j);
        assert_eq!(m["scale_up.top.medges_per_sec"], 0.893);
        assert_eq!(m["scale_up.top.peak_rss_mb"], 125.0);
        assert_eq!(m["scale_up.time_per_edge.growth_ratio"], 0.962);
        assert_eq!(m["scale_up.peak_rss.growth_ratio"], 1.037);
        assert_eq!(m.len(), 4, "per-scale rows are context, not gated");
    }

    #[test]
    fn peak_rss_ceilings_fail_upward() {
        let mut base = BTreeMap::new();
        base.insert("mem_peak.t8.peak_rss_mb".to_string(), 100.0);
        let mut good = BTreeMap::new();
        good.insert("mem_peak.t8.peak_rss_mb".to_string(), 80.0);
        assert!(compare(&base, &good, 0.25).is_empty(), "lower RSS passes");
        let mut bad = BTreeMap::new();
        bad.insert("mem_peak.t8.peak_rss_mb".to_string(), 130.0);
        let regs = compare(&base, &bad, 0.25);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "mem_peak.t8.peak_rss_mb");
    }

    #[test]
    fn extracts_serve_scaling_metrics() {
        let j = parse_json(
            r#"{
              "serve_scaling": {
                "graph": {"vertices": 10, "edges": 20, "k": 32},
                "lookup": {"batch_edges": 1024, "batches": 3, "seconds": 0.01,
                           "lookup_qps": 2000000.0},
                "metrics_overhead": {"off_qps": 2050000.0, "on_qps": 2000000.0,
                                     "slowdown": 1.025},
                "update": {"delta_edges": 2000, "update_ms_per_edge": 0.004,
                           "large_ms_per_edge": 0.005, "update_scale_ratio": 1.25}
              }
            }"#,
        )
        .unwrap();
        let m = extract_metrics(&j);
        assert_eq!(m["serve_scaling.lookup_qps"], 2000000.0);
        assert_eq!(m["serve_scaling.update_ms_per_edge"], 0.004);
        assert_eq!(m["serve_scaling.update_scale_ratio"], 1.25);
        assert_eq!(m["serve_scaling.metrics_overhead.slowdown"], 1.025);
        assert_eq!(m.len(), 4, "seconds/delta sizes/qps sides are not gated");
        // The metrics-overhead ratio rides the `.slowdown` suffix: a
        // ceiling compared exactly — its committed 1.03 IS the headroom.
        assert!(is_ceiling("serve_scaling.metrics_overhead.slowdown"));
        assert_eq!(
            tolerance_override("serve_scaling.metrics_overhead.slowdown"),
            Some(0.0)
        );
        // Throughput is a floor; both update-cost metrics are ceilings
        // with the standard jitter tolerance (the probe-per-mutation
        // regression they guard against overshoots by multiples).
        assert_eq!(direction("serve_scaling.lookup_qps"), Direction::Floor);
        assert!(is_ceiling("serve_scaling.update_ms_per_edge"));
        assert!(is_ceiling("serve_scaling.update_scale_ratio"));
        assert_eq!(tolerance_override("serve_scaling.update_scale_ratio"), None);
        assert_eq!(tolerance_override("serve_scaling.update_ms_per_edge"), None);
    }

    #[test]
    fn extracts_dist_scaling_like_parallel_scaling() {
        let j = parse_json(
            r#"{
              "dist_scaling": {
                "serial": {"medges_per_sec": 10.0},
                "parallel": [{"threads": 2, "medges_per_sec": 8.0}]
              }
            }"#,
        )
        .unwrap();
        let m = extract_metrics(&j);
        assert_eq!(m["dist_scaling.serial.medges_per_sec"], 10.0);
        assert_eq!(m["dist_scaling.t2.medges_per_sec"], 8.0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn scoping_keeps_only_supplied_sections() {
        let mut base = BTreeMap::new();
        base.insert("io_readers.v1.mmap.medges_per_sec".to_string(), 1.0);
        base.insert("parallel_scaling.t2.medges_per_sec".to_string(), 2.0);
        base.insert("dist_scaling.t2.medges_per_sec".to_string(), 3.0);
        let scoped = scope_baseline(&base, &["io_readers", "parallel_scaling"]);
        assert_eq!(scoped.len(), 2);
        assert!(!scoped.contains_key("dist_scaling.t2.medges_per_sec"));
        let dist_only = scope_baseline(&base, &["dist_scaling"]);
        assert_eq!(dist_only.len(), 1);
    }
}
