//! Parallel scaling: chunk-parallel runners against their serial
//! references, end to end.
//!
//! Generates the R-MAT-skewed OK stand-in, runs a full serial partition and
//! full parallel partitions at 1/2/4/8 worker threads, and emits a JSON
//! report of wall times, throughput and speedup plus the quality deltas
//! (replication factor, balance) so the determinism/quality bounds of
//! `tps-core::parallel` stay observable. One-thread parallel runs are
//! asserted bit-compatible with serial quality (same RF, same loads).
//!
//! `--algo` selects the algorithm (paper Fig. 4 with a threads axis):
//!
//! * `2ps` (default) — `ParallelRunner` vs the serial 2PS-L partitioner;
//! * `hdrf` — `ParallelBaselineRunner` vs serial **exact-degree** HDRF
//!   (partial degree counting is inherently sequential, so the parallel
//!   runner and its serial reference both use exact degrees);
//! * `dbh` — `ParallelBaselineRunner` vs serial DBH (whose output the
//!   parallel runner reproduces identically at every thread count).
//!
//! For the default `2ps` algorithm serial and T = 1 — the same kernels over
//! the same edges — are timed in alternation, and the report carries their
//! ratio as `t1_vs_serial` (serial seconds ÷ T = 1 seconds; 1.0 = the
//! one-worker runner costs nothing over the serial one). Like
//! `io_readers`' `v2_vs_v1` it cancels machine-speed drift, and the perf
//! gate holds it above the committed `parallel_scaling.t1_vs_serial.ratio`
//! floor.
//!
//! The `2ps` report also carries a `trace_overhead` section: the same
//! 4-thread run measured untraced and
//! with `tps-obs` event recording enabled, plus their wall-time ratio
//! (`slowdown`) — the CI perf gate holds that ratio under the committed
//! `parallel_scaling.trace_overhead.slowdown` ceiling. `--trace FILE`
//! additionally writes the traced run's JSON-lines trace to FILE
//! (`tps report FILE` renders it).
//!
//! Run: `cargo run --release -p tps-bench --bin parallel_scaling -- [--algo 2ps|hdrf|dbh] [--trace file] [--scale f] [--repeats n] [--quick]`

use std::time::Instant;

use tps_baselines::{DbhPartitioner, HdrfPartitioner, ParallelBaselineRunner, StreamingBaseline};
use tps_bench::harness::BenchArgs;
use tps_core::job::{JobSpec, ThreadMode};
use tps_core::partitioner::{PartitionParams, Partitioner, RunReport};
use tps_core::sink::QualitySink;
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
    let algo = take_value(&mut argv, "--algo").unwrap_or_else(|| "2ps".to_string());
    let trace_path = take_value(&mut argv, "--trace");
    let args = BenchArgs::parse(argv);
    // The OK stand-in is R-MAT-derived: skewed degrees and ids.
    let graph = Dataset::Ok.generate_scaled(args.scale);
    let params = PartitionParams::new(K);

    let is_2ps = matches!(algo.as_str(), "2ps" | "2ps-l");
    let (serial, parallel) = match algo.as_str() {
        "2ps" | "2ps-l" => run_2ps(&graph, &params, &args),
        "hdrf" => run_baseline(StreamingBaseline::hdrf(), &graph, &params, &args),
        "dbh" => run_baseline(StreamingBaseline::dbh(), &graph, &params, &args),
        other => {
            eprintln!("error: unknown --algo {other:?} (2ps|hdrf|dbh)");
            std::process::exit(2);
        }
    };

    println!("{{");
    println!(
        "  \"graph\": {{\"vertices\": {}, \"edges\": {}, \"scale\": {}, \"k\": {K}}},",
        graph.num_vertices(),
        graph.num_edges(),
        args.scale
    );
    println!("  \"algo\": \"{algo}\",");
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
    if is_2ps {
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
    } else {
        // Keep the document shape stable across algorithms.
        println!("  \"t1_vs_serial\": null,");
        println!("  \"trace_overhead\": null");
    }
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

fn best_of<F: FnMut() -> Measured>(repeats: u32, mut run: F) -> Measured {
    let mut best = None;
    for _ in 0..repeats {
        keep_faster(&mut best, run());
    }
    best.expect("at least one repeat")
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
        parallel.push((threads, best_of(args.repeats, || run_parallel(threads))));
    }
    for (threads, out) in &parallel {
        check_row(out, &serial, graph, *threads);
    }
    (serial, parallel)
}

fn run_baseline(
    algo: StreamingBaseline,
    graph: &InMemoryGraph,
    params: &PartitionParams,
    args: &BenchArgs,
) -> (Measured, Vec<(usize, Measured)>) {
    let serial = best_of(args.repeats, || {
        let mut sink = QualitySink::new(graph.num_vertices(), params.k);
        let start = Instant::now();
        let report = match algo {
            // The parallel reference point uses exact degrees (see module
            // docs), so the serial HDRF reference must too.
            StreamingBaseline::Hdrf(h) => HdrfPartitioner {
                params: h,
                partial_degrees: false,
            }
            .partition(&mut graph.stream(), params, &mut sink)
            .expect("serial hdrf"),
            StreamingBaseline::Dbh { seed } => DbhPartitioner { seed }
                .partition(&mut graph.stream(), params, &mut sink)
                .expect("serial dbh"),
        };
        Measured {
            seconds: start.elapsed().as_secs_f64(),
            metrics: sink.finish(),
            report,
        }
    });
    let mut parallel = Vec::new();
    for threads in THREAD_COUNTS {
        let runner = ParallelBaselineRunner::new(algo, threads);
        let out = best_of(args.repeats, || {
            let mut sink = QualitySink::new(graph.num_vertices(), params.k);
            let start = Instant::now();
            let report = runner
                .partition(graph, params, &mut sink)
                .expect("parallel");
            Measured {
                seconds: start.elapsed().as_secs_f64(),
                metrics: sink.finish(),
                report,
            }
        });
        check_row(&out, &serial, graph, threads);
        parallel.push((threads, out));
    }
    (serial, parallel)
}

fn check_row(out: &Measured, serial: &Measured, graph: &InMemoryGraph, threads: usize) {
    assert_eq!(
        out.metrics.num_edges,
        graph.num_edges(),
        "parallel runner dropped edges at {threads} threads"
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

/// Measure the cost of `tps-obs` event recording on the 4-thread 2PS-L
/// run. At `--quick` scale a single run lasts milliseconds, so each sample
/// times a batch of back-to-back runs (calibrated to ≥ ~0.3 s) and the
/// reported `slowdown` is the ratio of the best traced sample to the best
/// untraced sample — stable enough for the perf gate's exact-tolerance
/// ceiling. Tracing must never change output, so the traced run's quality
/// is asserted identical to the untraced run's.
fn trace_overhead(
    graph: &InMemoryGraph,
    params: &PartitionParams,
    args: &BenchArgs,
    trace_path: Option<&str>,
) -> String {
    const THREADS: usize = 4;
    const TARGET_SAMPLE_SECS: f64 = 0.3;
    let samples = args.repeats.max(3);
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

    // Warm up and calibrate the batch size on an untraced run.
    tps_obs::set_enabled(false);
    tps_obs::reset_events();
    let cal = run_once();
    let iters = ((TARGET_SAMPLE_SECS / cal.seconds.max(1e-9)).ceil() as usize).clamp(1, 50);

    // One sample = the summed partition time of `iters` back-to-back runs.
    let sample = |traced: bool| -> f64 {
        tps_obs::set_enabled(traced);
        let mut total = 0.0;
        for _ in 0..iters {
            // Each run starts with empty buffers, like a CLI run would.
            tps_obs::reset_events();
            total += run_once().seconds;
        }
        tps_obs::set_enabled(false);
        total
    };
    // Alternate untraced/traced samples so machine-load drift hits both.
    let mut best_untraced = f64::INFINITY;
    let mut best_traced = f64::INFINITY;
    for _ in 0..samples {
        best_untraced = best_untraced.min(sample(false));
        best_traced = best_traced.min(sample(true));
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

    let medges = graph.num_edges() as f64 * iters as f64 / 1e6;
    format!(
        "\"trace_overhead\": {{\"threads\": {THREADS}, \"untraced_medges_per_sec\": {:.3}, \"traced_medges_per_sec\": {:.3}, \"slowdown\": {:.4}}}",
        medges / best_untraced,
        medges / best_traced,
        best_traced / best_untraced
    )
}
