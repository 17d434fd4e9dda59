//! Parallel scaling: `--threads N` 2PS-L runs against the serial run, end
//! to end.
//!
//! Generates the R-MAT-skewed OK stand-in, runs a full serial partition and
//! full `--threads N` partitions at 1/2/4/8 worker threads (all through
//! `JobSpec`), and emits a JSON report of wall times, throughput and speedup
//! plus the quality deltas (replication factor, balance) so the
//! determinism/quality bounds of `tps-core::parallel` stay observable.
//! One-thread runs are asserted bit-compatible with serial quality (same
//! RF, same loads).
//!
//! Serial and T = 1 — the same kernels over the same edges — are timed in
//! alternation, and the report carries their ratio as `t1_vs_serial`
//! (serial seconds ÷ T = 1 seconds; 1.0 = the one-worker run costs nothing
//! over the serial one). Like `io_readers`' `v2_vs_v1` it cancels
//! machine-speed drift, and the perf gate holds it above the committed
//! `parallel_scaling.t1_vs_serial.ratio` floor.
//!
//! The report also carries a `trace_overhead` section: the same 4-thread
//! run measured untraced and with `tps-obs` event recording enabled, plus
//! their wall-time ratio (`slowdown`, the median over alternating
//! traced/untraced run pairs) — the CI perf gate holds that ratio under the
//! committed `parallel_scaling.trace_overhead.slowdown` ceiling. `--trace
//! FILE` additionally writes the traced run's JSON-lines trace to FILE
//! (`tps report FILE` renders it).
//!
//! Run: `cargo run --release -p tps-bench --bin parallel_scaling -- [--trace file] [--scale f] [--repeats n] [--quick]`

use tps_bench::harness::BenchArgs;
use tps_core::job::{JobSpec, ThreadMode};
use tps_core::partitioner::{PartitionParams, RunReport};
use tps_core::two_phase::TwoPhaseConfig;
use tps_graph::datasets::Dataset;
use tps_graph::stream::InMemoryGraph;
use tps_metrics::quality::PartitionMetrics;

const K: u32 = 32;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One measured run, serial or parallel.
struct Measured {
    seconds: f64,
    metrics: PartitionMetrics,
    report: RunReport,
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = take_value(&mut argv, "--trace");
    let args = BenchArgs::parse(argv);
    // The OK stand-in is R-MAT-derived: skewed degrees and ids.
    let graph = Dataset::Ok.generate_scaled(args.scale);
    let params = PartitionParams::new(K);

    let (serial, parallel) = run_2ps(&graph, &params, &args);

    println!("{{");
    println!(
        "  \"graph\": {{\"vertices\": {}, \"edges\": {}, \"scale\": {}, \"k\": {K}}},",
        graph.num_vertices(),
        graph.num_edges(),
        args.scale
    );
    println!("  \"algo\": \"2ps\",");
    println!(
        "  \"hardware_threads\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let medges = graph.num_edges() as f64 / 1e6;
    println!(
        "  \"serial\": {{\"seconds\": {:.6}, \"medges_per_sec\": {:.3}, \"rf\": {:.4}, \"alpha\": {:.4}}},",
        serial.seconds,
        medges / serial.seconds,
        serial.metrics.replication_factor,
        serial.metrics.alpha
    );
    let rows: Vec<String> = parallel
        .iter()
        .map(|(threads, out)| row(*threads, out, &serial, medges))
        .collect();
    println!("  \"parallel\": [\n{}\n  ],", rows.join(",\n"));
    let t1 = &parallel[0].1; // THREAD_COUNTS starts at 1
    println!(
        "  \"t1_vs_serial\": {{\"serial_seconds\": {:.6}, \"t1_seconds\": {:.6}, \"ratio\": {:.4}}},",
        serial.seconds,
        t1.seconds,
        serial.seconds / t1.seconds
    );
    println!(
        "  {}",
        trace_overhead(&graph, &params, &args, trace_path.as_deref())
    );
    println!("}}");
}

/// Remove `--name value` from `argv`, returning the value.
fn take_value(argv: &mut Vec<String>, name: &str) -> Option<String> {
    let i = argv.iter().position(|a| a == name)?;
    argv.remove(i);
    if i < argv.len() {
        Some(argv.remove(i))
    } else {
        eprintln!("error: {name} needs a value");
        std::process::exit(2);
    }
}

fn keep_faster(best: &mut Option<Measured>, out: Measured) {
    if best.as_ref().is_none_or(|b| out.seconds < b.seconds) {
        *best = Some(out);
    }
}

fn row(threads: usize, out: &Measured, serial: &Measured, medges: f64) -> String {
    format!(
        "    {{\"threads\": {threads}, \"seconds\": {:.6}, \"medges_per_sec\": {:.3}, \"speedup\": {:.3}, \"rf\": {:.4}, \"rf_vs_serial\": {:.4}, \"alpha\": {:.4}, \"cap_overshoot\": {}}}",
        out.seconds,
        medges / out.seconds,
        serial.seconds / out.seconds,
        out.metrics.replication_factor,
        out.metrics.replication_factor / serial.metrics.replication_factor,
        out.metrics.alpha,
        out.report.counter("cap_overshoot"),
    )
}

fn run_2ps(
    graph: &InMemoryGraph,
    params: &PartitionParams,
    args: &BenchArgs,
) -> (Measured, Vec<(usize, Measured)>) {
    let run_serial = || {
        let mut stream = graph.stream();
        let out = JobSpec::stream(&mut stream)
            .two_phase(TwoPhaseConfig::default())
            .params(params)
            .num_vertices(graph.num_vertices())
            .run()
            .expect("serial partition");
        Measured {
            seconds: out.seconds(),
            metrics: out.metrics,
            report: out.report,
        }
    };
    let run_parallel = |threads: usize| {
        let out = JobSpec::ranged(graph)
            .two_phase(TwoPhaseConfig::default())
            .params(params)
            .threads(ThreadMode::Count(threads))
            .run()
            .expect("parallel partition");
        Measured {
            seconds: out.seconds(),
            metrics: out.metrics,
            report: out.report,
        }
    };
    // Serial and T = 1 alternate, so machine-load drift hits both sides of
    // `t1_vs_serial`; a lone `--quick` pair is too noisy for a ratio.
    let (mut serial, mut t1) = (None, None);
    for _ in 0..args.repeats.max(3) {
        keep_faster(&mut serial, run_serial());
        keep_faster(&mut t1, run_parallel(1));
    }
    let serial = serial.expect("at least one repeat");
    let mut parallel = vec![(1, t1.expect("at least one repeat"))];
    for &threads in &THREAD_COUNTS[1..] {
        let mut best = None;
        for _ in 0..args.repeats {
            keep_faster(&mut best, run_parallel(threads));
        }
        parallel.push((threads, best.expect("at least one repeat")));
    }
    for (threads, out) in &parallel {
        check_row(out, &serial, graph, *threads);
    }
    (serial, parallel)
}

fn check_row(out: &Measured, serial: &Measured, graph: &InMemoryGraph, threads: usize) {
    assert_eq!(
        out.metrics.num_edges,
        graph.num_edges(),
        "a {threads}-thread run dropped edges"
    );
    if threads == 1 {
        // One worker executes the serial code path; quality must match
        // exactly, not within epsilon.
        assert_eq!(
            out.metrics.replication_factor, serial.metrics.replication_factor,
            "1-thread parallel RF diverged from serial"
        );
        assert_eq!(out.metrics.loads, serial.metrics.loads);
    }
}

/// Seconds of traced/untraced run pairs behind `trace_overhead.slowdown`,
/// per `--repeats` (at least [`TRACE_OVERHEAD_MIN_REPEATS`] of them).
const TRACE_OVERHEAD_SECS_PER_REPEAT: f64 = 0.6;
const TRACE_OVERHEAD_MIN_REPEATS: u32 = 9;

/// Measure the cost of `tps-obs` event recording on the 4-thread 2PS-L
/// run. Runs come in pairs, one traced and one untraced back to back, the
/// order alternating from pair to pair, and the reported `slowdown` is the
/// median of the pairs' traced/untraced time ratios. At `--quick` scale a
/// run lasts milliseconds, so a pair compares two runs taken a few
/// milliseconds apart — machine load cancels inside it — and hundreds of
/// pairs (≥ 9 × 0.6 s of them) let the median drop the pairs a scheduler
/// burst split: on two shared vCPUs ten invocations read 0.986–1.009,
/// where pairs of 0.3 s batches of runs, which load drifts across, read
/// 0.976–1.072. Tracing must never change output, so the traced run's
/// quality is asserted identical to the untraced run's.
fn trace_overhead(
    graph: &InMemoryGraph,
    params: &PartitionParams,
    args: &BenchArgs,
    trace_path: Option<&str>,
) -> String {
    const THREADS: usize = 4;
    let job = || {
        JobSpec::ranged(graph)
            .two_phase(TwoPhaseConfig::default())
            .params(params)
            .threads(ThreadMode::Count(THREADS))
    };
    let run_once = || {
        let out = job().run().expect("parallel partition");
        Measured {
            seconds: out.seconds(),
            metrics: out.metrics,
            report: out.report,
        }
    };

    // Warm up and size the pair count on an untraced run.
    tps_obs::set_enabled(false);
    tps_obs::reset_events();
    let cal = run_once();
    let secs =
        TRACE_OVERHEAD_SECS_PER_REPEAT * f64::from(args.repeats.max(TRACE_OVERHEAD_MIN_REPEATS));
    let pairs = ((secs / (2.0 * cal.seconds.max(1e-9))).ceil() as usize).clamp(9, 5_000);

    let timed = |traced: bool| -> f64 {
        tps_obs::set_enabled(traced);
        // Each run starts with empty buffers, like a CLI run would.
        tps_obs::reset_events();
        let seconds = run_once().seconds;
        tps_obs::set_enabled(false);
        seconds
    };
    let (mut untraced, mut traced, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let (u, t) = if pair % 2 == 0 {
            let u = timed(false);
            (u, timed(true))
        } else {
            let t = timed(true);
            (timed(false), t)
        };
        untraced.push(u);
        traced.push(t);
        ratios.push(t / u);
    }

    // Bit-identical guarantee: one traced and one untraced run must agree.
    let untraced_out = run_once();
    tps_obs::set_enabled(true);
    tps_obs::reset_events();
    let traced_out = run_once();
    tps_obs::set_enabled(false);
    assert_eq!(
        traced_out.metrics.replication_factor, untraced_out.metrics.replication_factor,
        "tracing changed partitioning output (RF)"
    );
    assert_eq!(
        traced_out.metrics.loads, untraced_out.metrics.loads,
        "tracing changed partitioning output (loads)"
    );

    if let Some(path) = trace_path {
        // One clean traced run for the artifact: the job records from fresh
        // buffers, so the file describes exactly one run.
        job()
            .trace(path)
            .trace_cmd("bench")
            .run()
            .expect("traced partition");
        eprintln!("trace -> {path}");
    }

    let medges = graph.num_edges() as f64 / 1e6;
    format!(
        "\"trace_overhead\": {{\"threads\": {THREADS}, \"pairs\": {pairs}, \"untraced_medges_per_sec\": {:.3}, \"traced_medges_per_sec\": {:.3}, \"slowdown\": {:.4}}}",
        medges / median(&mut untraced),
        medges / median(&mut traced),
        median(&mut ratios)
    )
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}
