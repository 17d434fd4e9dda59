//! `tps top` — a polling terminal dashboard over a `--metrics-addr`
//! endpoint (serve daemon or dist coordinator).
//!
//! Scrapes the text exposition every `--interval-ms`, derives rates from
//! successive counter samples, and redraws in place with plain ANSI
//! (clear + home — no terminal crate in the offline dependency set). The
//! rendering itself is a pure function of two scrapes, so it is unit
//! tested without a socket; `--once` prints a single frame without
//! clearing, which is what the CI smoke job asserts against.

use std::time::{Duration, Instant};

use tps_obs::{parse_exposition, scrape, Sample};

use crate::args::Flags;
use crate::{fail, write_stdout, Failure};

/// One parsed scrape plus when it was taken (rates need the wall-clock gap).
struct Frame {
    at: Instant,
    samples: Vec<Sample>,
}

impl Frame {
    fn grab(addr: &str) -> Result<Frame, String> {
        let at = Instant::now();
        let body = scrape(addr).map_err(|e| format!("{addr}: {e}"))?;
        let samples = parse_exposition(&body).map_err(|e| format!("{addr}: {e}"))?;
        Ok(Frame { at, samples })
    }

    /// The value of `metric{name="..."}`, if scraped.
    fn get(&self, metric: &str, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.metric == metric && s.label("name") == Some(name))
            .map(|s| s.value)
    }

    fn counter(&self, name: &str) -> Option<f64> {
        self.get("tps_counter", name)
    }

    fn gauge(&self, name: &str) -> Option<f64> {
        self.get("tps_gauge", name)
    }

    /// The quantile `q` of histogram `name` (q as rendered, e.g. "0.99").
    fn quantile(&self, name: &str, q: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.metric == "tps_hist_quantile"
                    && s.label("name") == Some(name)
                    && s.label("q") == Some(q)
            })
            .map(|s| s.value)
    }

    /// All histogram names present, in exposition (sorted) order.
    fn hist_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .samples
            .iter()
            .filter(|s| s.metric == "tps_hist_count")
            .filter_map(|s| s.label("name"))
            .collect();
        names.dedup();
        names
    }
}

/// Format a nanosecond quantity with a readable unit.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Format a byte rate.
fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} kB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

/// The coordinator's stage-gauge rank, named (see `Stage::rank` in
/// tps-dist): the per-shard `dist.shard.N.stage` gauge publishes the major
/// rank so the dashboard can show where each shard stands.
fn stage_name(major: f64) -> &'static str {
    match major as u32 {
        0 => "degrees",
        1 => "globals",
        2 => "clustering",
        3 => "plan",
        4 => "replication",
        5 => "partition",
        6 => "emit",
        _ => "?",
    }
}

/// Render one dashboard frame from the current scrape (and the previous
/// one, for rates). Pure — the unit tests drive it with synthetic frames.
fn render(addr: &str, cur: &Frame, prev: Option<&Frame>, tick: u64) -> String {
    let mut out = String::new();
    let push = |out: &mut String, line: String| {
        out.push_str(&line);
        out.push('\n');
    };
    push(&mut out, format!("tps top — {addr} — sample {tick}"));

    // Serve header gauges, if this is a serving daemon.
    if let Some(uptime) = cur.gauge("serve.uptime.secs") {
        push(
            &mut out,
            format!(
                "serve  uptime {uptime:.1} s  staleness {:.4}  epoch {}  overlay {}  live edges {}",
                cur.gauge("serve.staleness").unwrap_or(0.0),
                cur.gauge("serve.epoch").unwrap_or(0.0),
                cur.gauge("serve.overlay.len").unwrap_or(0.0),
                cur.gauge("serve.edges.live").unwrap_or(0.0),
            ),
        );
        push(
            &mut out,
            format!(
                "cache  {} hits / {} misses",
                cur.gauge("serve.cache.hits").unwrap_or(0.0),
                cur.gauge("serve.cache.misses").unwrap_or(0.0),
            ),
        );
    }

    // QPS from the request-counter delta between scrapes.
    if let Some(reqs) = cur.counter("serve.requests") {
        let qps = prev.and_then(|p| {
            let dt = cur.at.duration_since(p.at).as_secs_f64();
            let dv = reqs - p.counter("serve.requests")?;
            (dt > 0.0).then(|| dv / dt)
        });
        match qps {
            Some(qps) => push(&mut out, format!("qps    {qps:.1}  (requests {reqs})")),
            None => push(&mut out, format!("qps    —  (requests {reqs})")),
        }
    }

    // Latency / size table: one row per histogram.
    let hists = cur.hist_names();
    if !hists.is_empty() {
        push(
            &mut out,
            format!(
                "{:<26} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "histogram", "count", "p50", "p90", "p99", "max"
            ),
        );
        for name in hists {
            let count = cur.get("tps_hist_count", name).unwrap_or(0.0);
            // Only `.ns`-named histograms hold time; the rest (batch
            // sizes) render as plain numbers.
            let unit = |v: f64| {
                if name.ends_with(".ns") {
                    fmt_ns(v)
                } else {
                    format!("{v:.0}")
                }
            };
            let q = |q: &str| cur.quantile(name, q).map_or("—".into(), unit);
            let max = cur.get("tps_hist_max", name).map_or("—".into(), unit);
            push(
                &mut out,
                format!(
                    "{name:<26} {count:>10} {:>10} {:>10} {:>10} {max:>10}",
                    q("0.5"),
                    q("0.9"),
                    q("0.99"),
                ),
            );
        }
    }

    // Dist coordinator view, if its gauges are present.
    if let Some(shards) = cur.gauge("dist.shards") {
        let rate = cur
            .gauge("dist.frames.bytes.rate")
            .map_or("—".into(), |r| format!("{}/s", fmt_bytes(r)));
        push(
            &mut out,
            format!(
                "dist   shards {shards}  workers {} live / {} idle  retries {}  frames {rate}",
                cur.gauge("dist.workers.live").unwrap_or(0.0),
                cur.gauge("dist.workers.idle").unwrap_or(0.0),
                cur.gauge("dist.retries").unwrap_or(0.0),
            ),
        );
        push(
            &mut out,
            format!(
                "{:<6} {:<12} {:>6} {:>12}",
                "shard", "stage", "epoch", "emitted"
            ),
        );
        for s in 0..shards as u64 {
            let Some(major) = cur.gauge(&format!("dist.shard.{s}.stage")) else {
                continue;
            };
            push(
                &mut out,
                format!(
                    "{s:<6} {:<12} {:>6} {:>12}",
                    stage_name(major),
                    cur.gauge(&format!("dist.shard.{s}.epoch")).unwrap_or(0.0),
                    cur.gauge(&format!("dist.shard.{s}.emitted")).unwrap_or(0.0),
                ),
            );
        }
    }
    out
}

/// `tps top`
pub fn top(args: &[String]) -> i32 {
    let Some((addr, rest)) = args.split_first() else {
        return fail("usage: tps top HOST:PORT [--interval-ms N] [--samples N] [--once]");
    };
    if addr.starts_with("--") {
        return fail("tps top takes the metrics address first: tps top HOST:PORT [options]");
    }
    let flags = match Flags::parse(rest, &["once"], &["interval-ms", "samples"]) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), Failure> {
        let interval = Duration::from_millis(flags.get_or("interval-ms", 1000u64)?);
        // 0 = run until the endpoint goes away (or ^C).
        let samples: u64 = flags.get_or("samples", 0)?;
        let samples = if flags.has("once") { 1 } else { samples };

        let mut prev: Option<Frame> = None;
        let mut tick = 0u64;
        loop {
            let cur = Frame::grab(addr)?;
            tick += 1;
            let body = render(addr, &cur, prev.as_ref(), tick);
            if samples == 1 {
                write_stdout(format_args!("{body}"))?;
            } else {
                // Clear + home, then the frame — a full redraw in place.
                write_stdout(format_args!("\x1b[2J\x1b[H{body}"))?;
            }
            if samples != 0 && tick >= samples {
                return Ok(());
            }
            prev = Some(cur);
            std::thread::sleep(interval);
        }
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(text: &str) -> Frame {
        Frame {
            at: Instant::now(),
            samples: parse_exposition(text).unwrap(),
        }
    }

    #[test]
    fn renders_serve_view_with_quantiles() {
        let cur = frame(concat!(
            "tps_counter{name=\"serve.requests\"} 120\n",
            "tps_gauge{name=\"serve.uptime.secs\"} 2.5\n",
            "tps_gauge{name=\"serve.staleness\"} 0.25\n",
            "tps_hist_count{name=\"serve.op.lookup.ns\"} 100\n",
            "tps_hist_max{name=\"serve.op.lookup.ns\"} 4000\n",
            "tps_hist_quantile{name=\"serve.op.lookup.ns\",q=\"0.5\"} 1448\n",
            "tps_hist_quantile{name=\"serve.op.lookup.ns\",q=\"0.9\"} 2048\n",
            "tps_hist_quantile{name=\"serve.op.lookup.ns\",q=\"0.99\"} 2896\n",
        ));
        let out = render("x:1", &cur, None, 1);
        assert!(out.contains("staleness 0.2500"), "{out}");
        assert!(out.contains("serve.op.lookup.ns"), "{out}");
        assert!(out.contains("1.4 µs"), "{out}");
        assert!(out.contains("qps    —"), "{out}");
    }

    #[test]
    fn qps_is_the_counter_delta_over_the_gap() {
        let mut prev = frame("tps_counter{name=\"serve.requests\"} 100\n");
        prev.at = Instant::now() - Duration::from_secs(2);
        let cur = frame("tps_counter{name=\"serve.requests\"} 300\n");
        let out = render("x:1", &cur, Some(&prev), 2);
        // 200 requests over ~2 s ≈ 100 qps (sleep imprecision ⇒ loose check).
        let qps: f64 = out
            .lines()
            .find(|l| l.starts_with("qps"))
            .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
            .unwrap();
        assert!((90.0..=110.0).contains(&qps), "{out}");
    }

    #[test]
    fn renders_dist_shard_table() {
        let cur = frame(concat!(
            "tps_gauge{name=\"dist.shards\"} 2\n",
            "tps_gauge{name=\"dist.workers.live\"} 2\n",
            "tps_gauge{name=\"dist.shard.0.stage\"} 6\n",
            "tps_gauge{name=\"dist.shard.0.emitted\"} 500\n",
            "tps_gauge{name=\"dist.shard.1.stage\"} 4\n",
        ));
        let out = render("x:1", &cur, None, 1);
        assert!(out.contains("emit"), "{out}");
        assert!(out.contains("replication"), "{out}");
        assert!(out.contains("500"), "{out}");
    }

    #[test]
    fn units_format() {
        assert_eq!(fmt_ns(950.0), "950 ns");
        assert_eq!(fmt_ns(1500.0), "1.5 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_ns(3.2e9), "3.20 s");
        assert_eq!(fmt_bytes(1.25e6), "1.25 MB");
    }
}
