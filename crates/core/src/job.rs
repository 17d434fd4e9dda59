//! The unified job API: one builder — [`JobSpec`] — that every execution
//! mode (serial, chunk-parallel, distributed coordinator front-ends, the
//! serving daemon) uses to describe a partitioning run.
//!
//! It is the only entry point: callers state *what* to run (input,
//! algorithm, `k`/`α`) and *how* (threads, memory budget,
//! trace) and the spec resolves the execution plan itself. Each run ends
//! with a `tps_obs::drain_local()` barrier so span events recorded on the
//! calling thread are flushed before the caller snapshots the trace.
//!
//! # Who computes [`RunOutcome::metrics`]
//!
//! A [`JobEngine::TwoPhase`] job (serial, paged or chunk-parallel) writes
//! to one sink — the caller's [`JobSpec::extra_sink`], or a `NullSink` —
//! and takes its metrics from the engine: `RunReport::quality`, computed
//! from the replication matrix and loads the run finished with, so the run
//! holds that `O(|V|·k)`-bit state once. A [`JobEngine::Custom`]
//! partitioner keeps no such state (or none we can read), so a
//! `QualitySink` is teed in front of the caller's sink and recounts the
//! metrics from the assignments. In debug builds two-phase jobs get that
//! tee as well and the two results are asserted equal — every test that
//! runs a job is a differential test of the engine's numbers. The
//! distributed coordinator (`tps-dist`) measures with a `QualitySink` too:
//! its replica state lives in worker processes.
//!
//! ```
//! use tps_core::job::JobSpec;
//! use tps_graph::datasets::Dataset;
//!
//! let g = Dataset::Ok.generate_scaled(0.01);
//! let mut stream = g.stream();
//! let outcome = JobSpec::stream(&mut stream)
//!     .k(8)
//!     .num_vertices(g.num_vertices())
//!     .run()
//!     .unwrap();
//! assert_eq!(outcome.metrics.num_edges, g.num_edges());
//! ```
//!
//! File-path inputs need an [`InputProvider`] that knows how to open edge
//! files as ranged sources; `tps-core` cannot depend on `tps-io` (the
//! dependency points the other way), so `tps_io::run_job` /
//! `tps_io::FileInput` supply the standard provider and `JobSpec::run`
//! handles the in-memory cases. A path input is a ranged source from then
//! on: a one-shard run streams its range `0..|E|`.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tps_clustering::paged::PageStoreProvider;
use tps_graph::ranged::RangedEdgeSource;
use tps_graph::stream::{discover_info, EdgeStream};
use tps_metrics::atomic::AtomicReplicationMatrix;
use tps_metrics::quality::PartitionMetrics;

use crate::parallel::partition_ranged;
use crate::partitioner::{PartitionParams, Partitioner, RunReport};
use crate::runner::RunOutcome;
use crate::sink::{AssignmentSink, NullSink, QualitySink, TeeSink};
use crate::two_phase::{ClusterPaging, TwoPhaseConfig, TwoPhasePartitioner};

/// How many workers a job runs with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ThreadMode {
    /// Force one shard over a single cursor (paper-exact execution).
    Serial,
    /// One worker per available core (the default).
    #[default]
    Auto,
    /// An explicit chunk-parallel worker count (deterministic per count;
    /// 0 is [`ThreadMode::Auto`]).
    Count(usize),
}

impl std::str::FromStr for ThreadMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(ThreadMode::Auto),
            "serial" => Ok(ThreadMode::Serial),
            n => match n.parse::<usize>() {
                Ok(t) if t >= 1 => Ok(ThreadMode::Count(t)),
                _ => Err(format!("expected auto|serial|N>=1, got {n:?}")),
            },
        }
    }
}

/// Where the edges come from.
pub enum JobInput<'a> {
    /// Any edge stream (serial execution only).
    Stream(&'a mut dyn EdgeStream),
    /// A ranged source (eligible for chunk-parallel execution).
    Ranged(&'a dyn RangedEdgeSource),
    /// A file path, opened through the [`InputProvider`].
    Path(PathBuf),
}

/// Which algorithm runs.
pub enum JobEngine<'a> {
    /// 2PS-L / 2PS-HDRF — the only family with a chunk-parallel runner.
    TwoPhase(TwoPhaseConfig),
    /// Any other [`Partitioner`] (always serial).
    Custom(&'a mut dyn Partitioner),
}

/// How a unified memory budget ([`JobSpec::mem_budget_mb`]) is split
/// across the budget-aware subsystems. The split is a fixed, deterministic
/// policy — the same budget always produces the same shares, so runs are
/// reproducible from the flag alone:
///
/// * **½ cluster pages** — the paged cluster table (one-shard runs; the
///   dominant `O(|V|)` term the budget exists to bound);
/// * **½ headroom** — for what the budget does not govern: the partition
///   files' write buffers, the degree table, and the decision logs of a
///   chunk-parallel or distributed run (2 bits per edge of shards
///   1..T−1, or of every dist worker, plus one entry per escape; shard 0
///   of a chunk-parallel run none).
///
/// Decoded TPSBEL2 edges take no share: a v2 source spills them to a
/// temporary file (2w bits per edge, w the bits of `|V| − 1`), which
/// lives in the page cache, not in the process's memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemBudgetSplit {
    /// Bytes for resident cluster-table pages.
    pub cluster_pages: u64,
}

impl MemBudgetSplit {
    /// Split `total_bytes` by the ½ / ½ policy (the second ½ is headroom).
    pub fn of(total_bytes: u64) -> Self {
        MemBudgetSplit {
            cluster_pages: total_bytes / 2,
        }
    }
}

/// Opens path inputs and page stores on behalf of a [`JobSpec`] — the
/// seam that lets `tps-core` describe file jobs without depending on
/// `tps-io` (which implements the standard provider as `FileInput`).
pub trait InputProvider {
    /// Open `path` as a ranged source: every shard of a run streams one
    /// range of it, a one-shard run `0..|E|`.
    fn open_ranged(&self, path: &Path) -> io::Result<Box<dyn RangedEdgeSource>>;
    /// A page-store provider backing out-of-core cluster paging
    /// ([`JobSpec::mem_budget_mb`]). Default: not available.
    fn page_store_provider(&self) -> io::Result<Arc<dyn PageStoreProvider>> {
        Err(io::Error::other(
            "cluster paging needs an I/O provider (use tps_io::run_job)",
        ))
    }
}

/// The provider used by [`JobSpec::run`]: rejects path inputs and cluster
/// paging, which need a real I/O layer (`tps_io::run_job`).
pub struct NoFiles;

impl InputProvider for NoFiles {
    fn open_ranged(&self, path: &Path) -> io::Result<Box<dyn RangedEdgeSource>> {
        Err(unsupported(path))
    }
}

fn unsupported(path: &Path) -> io::Error {
    io::Error::other(format!(
        "path input {} needs an I/O provider (use tps_io::run_job)",
        path.display()
    ))
}

/// The execution plan a spec resolves to (exposed so front-ends can tell
/// the user what will happen before running).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecPlan {
    /// Single-cursor serial execution, with the reason when parallelism was
    /// requested but is not applicable.
    Serial { reason: Option<&'static str> },
    /// Chunk-parallel execution over this many workers.
    Parallel { threads: usize },
}

/// A declarative partitioning job: input + engine + parameters + execution
/// knobs, resolved and run by [`JobSpec::run`] / [`JobSpec::run_with`].
pub struct JobSpec<'a> {
    input: JobInput<'a>,
    engine: JobEngine<'a>,
    params: PartitionParams,
    num_vertices: Option<u64>,
    threads: ThreadMode,
    mem_budget_mb: u64,
    trace: Option<PathBuf>,
    trace_cmd: String,
    extra_sink: Option<&'a mut dyn AssignmentSink>,
}

impl<'a> JobSpec<'a> {
    /// A job over an arbitrary input.
    pub fn new(input: JobInput<'a>) -> Self {
        JobSpec {
            input,
            engine: JobEngine::TwoPhase(TwoPhaseConfig::default()),
            params: PartitionParams::new(2),
            num_vertices: None,
            threads: ThreadMode::default(),
            mem_budget_mb: 0,
            trace: None,
            trace_cmd: "job".to_string(),
            extra_sink: None,
        }
    }

    /// A job over a plain edge stream (serial execution).
    pub fn stream(stream: &'a mut dyn EdgeStream) -> Self {
        JobSpec::new(JobInput::Stream(stream))
    }

    /// A job over a ranged source (chunk-parallel eligible).
    pub fn ranged(source: &'a dyn RangedEdgeSource) -> Self {
        JobSpec::new(JobInput::Ranged(source))
    }

    /// A job over an edge file (resolved by the [`InputProvider`]).
    pub fn path(path: impl Into<PathBuf>) -> Self {
        JobSpec::new(JobInput::Path(path.into()))
    }

    /// Number of partitions (default 2).
    pub fn k(mut self, k: u32) -> Self {
        self.params.k = k;
        self
    }

    /// Balance factor α (default 1.05).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.params.alpha = alpha;
        self
    }

    /// Replace both `k` and `α` at once.
    pub fn params(mut self, params: &PartitionParams) -> Self {
        self.params = *params;
        self
    }

    /// Pin the vertex count (skips the discovery pass for plain streams).
    pub fn num_vertices(mut self, n: u64) -> Self {
        self.num_vertices = Some(n);
        self
    }

    /// Worker-thread policy (default [`ThreadMode::Auto`]).
    pub fn threads(mut self, mode: ThreadMode) -> Self {
        self.threads = mode;
        self
    }

    /// Bound the job's budget-aware memory consumers to `mb` MiB total,
    /// split deterministically by [`MemBudgetSplit`]: the paged cluster
    /// table of a one-shard two-phase run (`Serial` or one thread), and
    /// headroom. 0 = unbounded (the default); a budget whose bytes overflow
    /// 64 bits fails the run as invalid input. A one-shard run then pages
    /// cluster state to disk, so peak RSS stays bounded by the budget plus
    /// fixed per-run overhead even when the graph is many times larger,
    /// and holds it in memory from the first clustering-pass boundary where
    /// it fits the page share flat ([`ClusterPaging`]). A
    /// run over several shards pages nothing and still holds its decision
    /// logs.
    pub fn mem_budget_mb(mut self, mb: u64) -> Self {
        self.mem_budget_mb = mb;
        self
    }

    /// Record a structured trace (phase spans + counters) to `path`.
    /// Tracing never changes partitioning output.
    pub fn trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// The `cmd` tag written into the trace metadata (default `"job"`).
    pub fn trace_cmd(mut self, cmd: impl Into<String>) -> Self {
        self.trace_cmd = cmd.into();
        self
    }

    /// The sink receiving every `(edge, partition)` assignment
    /// (per-partition files, in-memory collection, …). Quality metrics are
    /// collected either way (see the module docs for by whom).
    pub fn extra_sink(mut self, sink: &'a mut dyn AssignmentSink) -> Self {
        self.extra_sink = Some(sink);
        self
    }

    /// Run 2PS-L / 2PS-HDRF with this config (the default engine).
    pub fn two_phase(mut self, config: TwoPhaseConfig) -> Self {
        self.engine = JobEngine::TwoPhase(config);
        self
    }

    /// Run an arbitrary partitioner (always serial).
    pub fn partitioner(mut self, p: &'a mut dyn Partitioner) -> Self {
        self.engine = JobEngine::Custom(p);
        self
    }

    /// Resolve the execution plan without running: chunk-parallel for
    /// two-phase engines on ranged/path inputs (unless `threads = Serial`),
    /// serial otherwise.
    pub fn plan(&self) -> ExecPlan {
        let reason = match (&self.engine, &self.input) {
            (JobEngine::Custom(_), _) => Some("custom partitioners run serial"),
            (JobEngine::TwoPhase(_), JobInput::Stream(_)) => {
                Some("plain streams run serial (ranged or path input required)")
            }
            (JobEngine::TwoPhase(_), _) => None,
        };
        match (reason, self.threads) {
            (Some(reason), _) => ExecPlan::Serial {
                reason: Some(reason),
            },
            (None, ThreadMode::Serial) => ExecPlan::Serial { reason: None },
            (None, ThreadMode::Count(threads)) if threads > 0 => ExecPlan::Parallel { threads },
            (None, _) => ExecPlan::Parallel {
                threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            },
        }
    }

    /// Run the job with the in-memory provider ([`NoFiles`]) — path inputs
    /// and cluster paging need [`JobSpec::run_with`] and a real provider
    /// (`tps_io::run_job`).
    pub fn run(self) -> io::Result<RunOutcome> {
        self.run_with(&NoFiles)
    }

    /// Run the job, opening path inputs through `provider`.
    pub fn run_with(self, provider: &dyn InputProvider) -> io::Result<RunOutcome> {
        let plan = self.plan();
        let JobSpec {
            input,
            engine,
            params,
            num_vertices,
            mem_budget_mb,
            trace,
            trace_cmd,
            extra_sink,
            ..
        } = self;

        // A unified memory budget splits deterministically across the
        // budget-aware subsystems.
        let mem_budget_bytes = mem_budget_mb.checked_mul(1 << 20).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("a memory budget of {mem_budget_mb} MiB overflows 64-bit byte counts"),
            )
        })?;
        let mem_split = (mem_budget_bytes > 0).then(|| MemBudgetSplit::of(mem_budget_bytes));
        // Cluster paging is a one-shard run's cluster storage — `Serial` and
        // one thread page alike; several shards merge their phase-1 state
        // at a barrier instead (see README "Memory model").
        let one_shard = matches!(
            plan,
            ExecPlan::Serial { .. } | ExecPlan::Parallel { threads: 1 }
        );
        let paging = match (mem_split, &engine) {
            (Some(split), JobEngine::TwoPhase(_)) if one_shard => Some(ClusterPaging::new(
                split.cluster_pages,
                provider.page_store_provider()?,
            )),
            _ => None,
        };

        let trace = trace.map(tps_obs::TraceRecording::begin);

        let start = Instant::now();
        // A path input is the provider's ranged source over the file: from
        // here on it runs exactly like a `Ranged` input.
        let opened;
        let input = match input {
            JobInput::Path(p) => {
                opened = provider.open_ranged(&p)?;
                JobInput::Ranged(&*opened)
            }
            JobInput::Ranged(s) => JobInput::Ranged(s),
            JobInput::Stream(s) => JobInput::Stream(s),
        };
        let (name, info_v, info_e, result, peak) = match plan {
            ExecPlan::Parallel { threads } => {
                let cfg = match engine {
                    JobEngine::TwoPhase(cfg) => cfg,
                    JobEngine::Custom(_) => unreachable!("plan() keeps custom engines serial"),
                };
                let JobInput::Ranged(source) = input else {
                    unreachable!("plan() keeps streams serial, and paths are sources by now")
                };
                let info = source.info();
                if threads > 1 {
                    // Several shards share one replica matrix: refuse one
                    // too large to share before any pass, and before a
                    // debug build's quality sink allocates its own.
                    AtomicReplicationMatrix::words_needed(info.num_vertices, params.k)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
                }
                let nv = num_vertices.unwrap_or(info.num_vertices);
                let (result, peak) = tps_metrics::alloc::measure_peak(|| {
                    run_measured(true, nv, params.k, extra_sink, &mut |sink| {
                        partition_ranged(&cfg, threads, paging.as_ref(), source, &params, sink)
                    })
                });
                (
                    threaded_name(&cfg, threads),
                    nv,
                    info.num_edges,
                    result,
                    peak,
                )
            }
            ExecPlan::Serial { .. } => {
                let mut owned_partitioner;
                let engine_reports = matches!(engine, JobEngine::TwoPhase(_));
                let partitioner: &mut dyn Partitioner = match engine {
                    JobEngine::Custom(p) => p,
                    JobEngine::TwoPhase(cfg) => {
                        let mut p = TwoPhasePartitioner::new(cfg);
                        if let Some(paging) = paging {
                            p = p.with_cluster_paging(paging);
                        }
                        owned_partitioner = p;
                        &mut owned_partitioner
                    }
                };
                // Resolve the stream (and a vertex count for the sink): a
                // source is streamed as its one range `0..|E|`.
                let mut ranged_stream;
                let (stream, known): (&mut dyn EdgeStream, Option<(u64, u64)>) = match input {
                    JobInput::Stream(s) => (s, None),
                    JobInput::Ranged(src) => {
                        let info = src.info();
                        ranged_stream = src.open_range(0, info.num_edges)?;
                        (
                            &mut *ranged_stream,
                            Some((info.num_vertices, info.num_edges)),
                        )
                    }
                    JobInput::Path(_) => unreachable!("paths are sources by now"),
                };
                let (nv, ne) = match (num_vertices, known) {
                    (Some(nv), Some((_, ne))) => (nv, ne),
                    (Some(nv), None) => (nv, 0),
                    (None, Some((nv, ne))) => (nv, ne),
                    (None, None) => {
                        let info = discover_info(stream)?;
                        (info.num_vertices, info.num_edges)
                    }
                };
                let (result, peak) = tps_metrics::alloc::measure_peak(|| {
                    run_measured(engine_reports, nv, params.k, extra_sink, &mut |sink| {
                        partitioner.partition(&mut *stream, &params, sink)
                    })
                });
                (partitioner.name(), nv, ne, result, peak)
            }
        };
        let (report, metrics) = result?;
        let wall_time = start.elapsed();
        tps_obs::drain_local();

        if let Some(trace) = trace {
            let meta = tps_obs::TraceMeta {
                cmd: trace_cmd,
                algo: name.clone(),
                k: params.k,
                alpha: params.alpha,
                vertices: info_v,
                edges: if info_e > 0 {
                    info_e
                } else {
                    metrics.num_edges
                },
            };
            trace.finish(&meta)?;
        }

        Ok(RunOutcome {
            name,
            metrics,
            report,
            wall_time,
            peak_heap_bytes: peak,
        })
    }
}

/// The name of a `threads`-worker run of `config`: the serial name with a
/// thread tag (`2PS-L×4`).
fn threaded_name(config: &TwoPhaseConfig, threads: usize) -> String {
    format!("{}×{threads}", TwoPhasePartitioner::new(*config).name())
}

/// Run an engine (`run_into`) in front of the sinks its job needs and return
/// its report with the run's quality metrics.
///
/// An engine that reports its own quality (`engine_reports`: the 2PS-L
/// family, which finishes holding the replication matrix and the loads)
/// writes to the caller's sink alone — or to a [`NullSink`] — and its
/// [`RunReport::quality`] is the result. Any other partitioner is measured
/// from its emitted assignments by a [`QualitySink`] teed in front. Debug
/// builds tee that sink for reporting engines too and assert the two agree,
/// so every test that runs a job is a differential test of the engine's
/// numbers; release builds construct neither the sink nor the tee.
fn run_measured(
    engine_reports: bool,
    num_vertices: u64,
    k: u32,
    extra: Option<&mut dyn AssignmentSink>,
    run_into: &mut dyn FnMut(&mut dyn AssignmentSink) -> io::Result<RunReport>,
) -> io::Result<(RunReport, PartitionMetrics)> {
    let mut quality = (!engine_reports || cfg!(debug_assertions))
        .then(|| QualitySink::try_new(num_vertices, k))
        .transpose()?;
    let report = match (quality.as_mut(), extra) {
        (Some(quality), Some(sink)) => run_into(&mut TeeSink::new(quality, sink)),
        (Some(quality), None) => run_into(quality),
        (None, Some(sink)) => run_into(sink),
        (None, None) => run_into(&mut NullSink),
    }?;
    let measured = quality.map(|quality| quality.finish());
    let metrics = if engine_reports {
        let reported = report.quality.clone();
        let reported = reported.expect("a two-phase engine reports its quality");
        if let Some(measured) = &measured {
            debug_assert_eq!(
                &reported, measured,
                "engine-reported quality differs from the emitted assignments'"
            );
        }
        reported
    } else {
        measured.expect("a non-reporting engine runs behind the quality sink")
    };
    Ok((report, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;
    use tps_graph::datasets::Dataset;

    #[test]
    fn stream_job_matches_serial_runner() {
        let g = Dataset::Ok.generate_scaled(0.01);
        let mut stream = g.stream();
        let out = JobSpec::stream(&mut stream)
            .k(4)
            .num_vertices(g.num_vertices())
            .run()
            .unwrap();
        assert_eq!(out.name, "2PS-L");
        assert_eq!(out.metrics.num_edges, g.num_edges());
    }

    #[test]
    fn custom_partitioner_job_collects_metrics_and_report() {
        let g = Dataset::Ok.generate_scaled(0.01);
        let mut p = TwoPhasePartitioner::new(TwoPhaseConfig::default());
        let mut stream = g.stream();
        let out = JobSpec::stream(&mut stream)
            .partitioner(&mut p)
            .params(&PartitionParams::new(4))
            .num_vertices(g.num_vertices())
            .run()
            .unwrap();
        assert_eq!(out.name, "2PS-L");
        assert_eq!(out.metrics.num_edges, g.num_edges());
        assert!(out.wall_time > std::time::Duration::ZERO);
        assert!(!out.report.phases.phases().is_empty());
    }

    #[test]
    fn stream_job_resolves_vertex_count_from_hints() {
        let g = Dataset::Ok.generate_scaled(0.01);
        let mut stream: Box<dyn EdgeStream> = Box::new(g.stream());
        let out = JobSpec::stream(&mut stream).k(4).run().unwrap();
        assert_eq!(out.metrics.num_edges, g.num_edges());
    }

    #[test]
    fn serial_extra_sink_sees_all_assignments() {
        let g = Dataset::Ok.generate_scaled(0.01);
        let mut extra = VecSink::new();
        let mut stream = g.stream();
        let out = JobSpec::stream(&mut stream)
            .k(4)
            .num_vertices(g.num_vertices())
            .extra_sink(&mut extra)
            .run()
            .unwrap();
        assert_eq!(extra.assignments().len() as u64, g.num_edges());
        assert_eq!(out.metrics.num_edges, g.num_edges());
    }

    #[test]
    fn ranged_job_runs_parallel_and_serial_identically() {
        let g = Dataset::Ok.generate_scaled(0.02);
        let par = JobSpec::ranged(&g)
            .k(8)
            .threads(ThreadMode::Count(2))
            .run()
            .unwrap();
        let mut par2_sink = VecSink::new();
        let par2 = JobSpec::ranged(&g)
            .k(8)
            .threads(ThreadMode::Count(2))
            .extra_sink(&mut par2_sink)
            .run()
            .unwrap();
        assert_eq!(par.name, "2PS-L×2");
        // Deterministic per thread count, with or without an extra sink.
        assert_eq!(
            par.metrics.replication_factor,
            par2.metrics.replication_factor
        );
        assert_eq!(par2_sink.assignments().len() as u64, g.num_edges());

        let serial = JobSpec::ranged(&g)
            .k(8)
            .threads(ThreadMode::Serial)
            .run()
            .unwrap();
        assert_eq!(serial.name, "2PS-L");
        assert_eq!(serial.metrics.num_edges, par.metrics.num_edges);
    }

    #[test]
    fn plan_reports_serial_reasons() {
        let g = Dataset::Ok.generate_scaled(0.01);
        let mut stream = g.stream();
        let spec = JobSpec::stream(&mut stream).threads(ThreadMode::Count(4));
        assert!(matches!(spec.plan(), ExecPlan::Serial { reason: Some(_) }));
        let spec = JobSpec::ranged(&g).threads(ThreadMode::Count(4));
        assert_eq!(spec.plan(), ExecPlan::Parallel { threads: 4 });
        let spec = JobSpec::ranged(&g).threads(ThreadMode::Serial);
        assert_eq!(spec.plan(), ExecPlan::Serial { reason: None });
    }

    #[test]
    fn path_input_without_provider_errors() {
        let err = JobSpec::path("/no/such/file.bel")
            .threads(ThreadMode::Serial)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("I/O provider"));
    }

    #[test]
    fn mem_budget_split_is_deterministic_and_lossless() {
        let s = MemBudgetSplit::of(100 << 20);
        assert_eq!(s.cluster_pages, 50 << 20);
        // Odd totals round the share down; what is left is headroom.
        assert_eq!(MemBudgetSplit::of(7).cluster_pages, 3);
    }

    /// An in-memory provider with a page store — what a mem-budgeted serial
    /// job needs beyond [`NoFiles`].
    struct MemPages;
    impl InputProvider for MemPages {
        fn open_ranged(&self, path: &Path) -> io::Result<Box<dyn RangedEdgeSource>> {
            Err(unsupported(path))
        }
        fn page_store_provider(&self) -> io::Result<Arc<dyn PageStoreProvider>> {
            Ok(Arc::new(tps_clustering::paged::MemPageStoreProvider))
        }
    }

    #[test]
    fn serial_mem_budget_matches_unbounded_output() {
        let g = Dataset::Ok.generate_scaled(0.01);
        let mut base_sink = VecSink::new();
        let base = JobSpec::ranged(&g)
            .k(8)
            .threads(ThreadMode::Serial)
            .extra_sink(&mut base_sink)
            .run()
            .unwrap();
        let mut paged_sink = VecSink::new();
        let paged = JobSpec::ranged(&g)
            .k(8)
            .threads(ThreadMode::Serial)
            .mem_budget_mb(1)
            .extra_sink(&mut paged_sink)
            .run_with(&MemPages)
            .unwrap();
        assert_eq!(paged_sink.assignments(), base_sink.assignments());
        assert_eq!(
            paged.metrics.replication_factor,
            base.metrics.replication_factor
        );
        assert!(paged.report.counter("paging_budget_bytes") > 0);

        // One thread is one shard too: it pages exactly like `Serial`.
        let mut one_sink = VecSink::new();
        let one = JobSpec::ranged(&g)
            .k(8)
            .threads(ThreadMode::Count(1))
            .mem_budget_mb(1)
            .extra_sink(&mut one_sink)
            .run_with(&MemPages)
            .unwrap();
        assert_eq!(one.name, "2PS-L×1");
        assert_eq!(one_sink.assignments(), base_sink.assignments());
        assert_eq!(one.report.counters, paged.report.counters);
    }

    #[test]
    fn mem_budget_whose_bytes_overflow_is_invalid_input() {
        let g = Dataset::Ok.generate_scaled(0.01);
        for mb in [1u64 << 44, u64::MAX] {
            let err = JobSpec::ranged(&g)
                .threads(ThreadMode::Serial)
                .mem_budget_mb(mb)
                .run_with(&MemPages)
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        }
    }

    #[test]
    fn serial_mem_budget_without_page_store_errors() {
        let g = Dataset::Ok.generate_scaled(0.01);
        let err = JobSpec::ranged(&g)
            .k(4)
            .threads(ThreadMode::Serial)
            .mem_budget_mb(64)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("I/O provider"), "{err}");
    }
}
