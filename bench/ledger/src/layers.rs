//! The traced pass of the partition workloads: where the end-to-end
//! nanoseconds go, layer by layer.
//!
//! The ledger drives the pipeline by hand through each crate's public
//! functions — open/drain → `DegreeTable::compute` → `clustering_pass` × n →
//! `sorted_list_schedule` → `prepartition_pass` → `remaining_pass` →
//! `FileSink` — with a span around each call, and checks that what it wrote
//! is byte-identical to what the `tps` child wrote. That identity is what
//! licenses charging the child's wall clock to these layers.
//!
//! A streaming layer's *self* time is its pass minus the time to drain the
//! same reader into a counter: the reader is a layer of its own (`io`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use tps_clustering::merge_clusterings;
use tps_clustering::model::Clustering;
use tps_clustering::paged::{PageBacking, PageStoreProvider, PagedClustering};
use tps_clustering::streaming::{clustering_pass, clustering_pass_on};
use tps_core::balance::{AtomicLoads, PartitionLoads};
use tps_core::job::{JobSpec, MemBudgetSplit, ThreadMode};
use tps_core::parallel::{
    cluster_placement, merge_degree_tables, resolve_volume_cap, shard_clustering, shard_degrees,
    ShardAssigner, ShardLoads,
};
use tps_core::partitioner::PartitionParams;
use tps_core::sink::{AssignmentSink, FileSink, NullSink, QualitySink, TeeSink, VecSink};
use tps_core::two_phase::mapping::ClusterPlacement;
use tps_core::two_phase::{ClusterPaging, TwoPhaseConfig};
use tps_graph::degree::DegreeTable;
use tps_graph::ranged::split_even;
use tps_graph::stream::EdgeStream;
use tps_graph::types::Edge;
use tps_io::{open_edge_stream, FilePageStore, ReaderBackend, TempPageStoreProvider};
use tps_metrics::atomic::{AtomicReplicationMatrix, SharedReplicaView};
use tps_metrics::bitmatrix::ReplicationMatrix;

use crate::e2e::{expected, partition_command, partition_rep, Ctx};
use crate::inputs::{self, Input};
use crate::procstat::run_child;
use crate::span::Recorder;
use crate::stats::median;
use crate::verify;
use crate::workload::{Engine, GraphKind, PartitionSpec, Workload, ALPHA};

/// Untraced child reps a traced pass runs for its wall-clock denominator.
const CHILD_REPS: usize = 3;
/// How often each in-process timing is taken; the smallest counts, as for
/// the partition workloads' child reps: deterministic work, to which noise
/// only adds, and the parts of one table must come from equally quiet moments.
const TIMING_REPS: usize = 3;
/// Traced/untraced child pairs behind `obs.trace_overhead_ratio`.
const TRACE_OVERHEAD_PAIRS: usize = 5;
/// Round trips behind `io.page_store_rt_us`.
const PAGE_STORE_ROUND_TRIPS: usize = 10_000;

/// One row of a workload's layer table: a layer and the seconds it owns.
#[derive(Clone, Debug)]
pub struct LayerRow {
    pub layer: &'static str,
    pub self_secs: f64,
}

/// What a traced pass found.
pub struct TracedResult {
    /// Edges the traced pipeline assigned.
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Per-layer metrics this workload exercises, by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Self seconds per layer, the wall clock they are parts of, and what
    /// that wall clock is of.
    pub table: Vec<LayerRow>,
    pub table_wall_secs: f64,
    pub table_of: &'static str,
    /// Values that explain the rows above without being layer metrics; they
    /// go to the results file only.
    pub context: Vec<(&'static str, f64)>,
    pub recorder: Recorder,
}

impl TracedResult {
    pub fn new(workload: &str) -> TracedResult {
        TracedResult {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            layers: BTreeMap::new(),
            table: Vec::new(),
            table_wall_secs: 0.0,
            table_of: "",
            context: Vec::new(),
            recorder: Recorder::new(workload),
        }
    }

    /// The traced pipeline's wall clock, ns per edge it assigned.
    pub fn table_wall_ns_per_edge(&self) -> f64 {
        self.table_wall_secs * 1e9 / self.attempted.max(1) as f64
    }

    /// The layer table as `(layer, self ns/edge, share of wall)`, closed by
    /// the `unattributed` row that makes the shares sum to 1.
    pub fn table_rows(&self) -> Vec<(&'static str, f64, f64)> {
        let per_op = 1e9 / self.attempted.max(1) as f64;
        let attributed: f64 = self.table.iter().map(|r| r.self_secs).sum();
        self.table
            .iter()
            .map(|r| (r.layer, r.self_secs))
            .chain([("unattributed", self.table_wall_secs - attributed)])
            .map(|(layer, secs)| (layer, secs * per_op, secs / self.table_wall_secs))
            .collect()
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(crate::workload::layer_unit(name).is_some(), "{name}");
        self.layers.insert(name, value);
    }

    fn miss(&mut self, n: u64, what: String) {
        self.failed += n;
        self.problems.push(what);
    }
}

/// An [`EdgeStream`] that counts how often it was rewound: the pipeline's
/// pass count, measured at the reader.
struct CountingStream<S> {
    inner: S,
    resets: u64,
}

impl<S: EdgeStream> EdgeStream for CountingStream<S> {
    fn reset(&mut self) -> io::Result<()> {
        self.resets += 1;
        self.inner.reset()
    }
    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        self.inner.next_edge()
    }
    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
    fn num_vertices_hint(&self) -> Option<u64> {
        self.inner.num_vertices_hint()
    }
}

fn config(spec: &PartitionSpec) -> TwoPhaseConfig {
    TwoPhaseConfig::with_passes(spec.passes)
}

/// Streaming passes the serial pipeline makes: degree, clustering × n,
/// pre-partitioning, scoring.
fn pipeline_passes(spec: &PartitionSpec) -> u32 {
    3 + spec.passes
}

/// What draining the workload's reader costs, pass by pass. For TPSBEL2 the
/// first pass decodes and fills the decode cache and later ones are served
/// from it, so the two are kept apart: the degree pass pays the first, every
/// other layer the later price.
#[derive(Clone, Copy, Default)]
struct Drain {
    first: Duration,
    later: Duration,
    /// Open plus every pass of the epoch.
    total: Duration,
}

/// Open `path` with `backend` and drain `passes` passes into a counter —
/// the pipeline's own access pattern.
fn drain_epoch(path: &Path, backend: ReaderBackend, passes: u32) -> io::Result<Drain> {
    let start = Instant::now();
    let mut stream = open_edge_stream(path, backend)?;
    let mut seen = 0u64;
    let mut times = Vec::new();
    for _ in 0..passes {
        let t = Instant::now();
        stream.reset()?;
        while let Some(e) = stream.next_edge()? {
            seen += black_box(e).src as u64 & 1;
        }
        times.push(t.elapsed());
    }
    black_box(seen);
    let total = start.elapsed();
    let later = &times[1.min(times.len())..];
    Ok(Drain {
        first: times.first().copied().unwrap_or_default(),
        later: later.iter().sum::<Duration>() / later.len().max(1) as u32,
        total,
    })
}

/// The `io.*_ns_per_edge` metrics of the workload's input; returns the
/// buffered epoch (the reader every workload runs with).
fn measure_readers(out: &mut TracedResult, input: &Input, passes: u32) -> io::Result<Drain> {
    let names: [&'static str; 3] = match input.kind {
        GraphKind::Social => [
            "io.v2_buffered_ns_per_edge",
            "io.v2_mmap_ns_per_edge",
            "io.v2_prefetch_ns_per_edge",
        ],
        GraphKind::Web => [
            "io.v1_buffered_ns_per_edge",
            "io.v1_mmap_ns_per_edge",
            "io.v1_prefetch_ns_per_edge",
        ],
    };
    let streamed = (passes as u64 * input.num_edges()) as f64;
    let mut buffered = Drain::default();
    for (name, backend) in names.into_iter().zip(ReaderBackend::ALL) {
        // The shortest epoch, whole, so that its passes add up to it.
        let mut epoch = Drain {
            total: Duration::MAX,
            ..Drain::default()
        };
        for _ in 0..TIMING_REPS {
            let (e, _) = out
                .recorder
                .span(name, |_| drain_epoch(&input.path, backend, passes));
            let e = e?;
            if e.total < epoch.total {
                epoch = e;
            }
        }
        out.set(name, epoch.total.as_secs_f64() * 1e9 / streamed);
        if backend == ReaderBackend::Buffered {
            buffered = epoch;
        }
    }
    Ok(buffered)
}

/// Best wall clock of `CHILD_REPS` untraced child reps of `spec`, the digest
/// of what they wrote, and the replication factor the verifier recomputes.
fn child_baseline(
    ctx: &Ctx<'_>,
    out: &mut TracedResult,
    spec: &PartitionSpec,
    input: &Input,
    sorted_keys: &[u64],
) -> io::Result<(f64, u64, f64)> {
    let mut walls = Vec::new();
    let mut digest = 0;
    let mut rf = 0.0;
    for rep in 0..CHILD_REPS {
        let (run, dir) = partition_rep(ctx, spec, &input.path)?;
        walls.push(run.wall.as_secs_f64());
        if !run.success {
            out.miss(input.num_edges(), "the child exited non-zero".to_string());
        } else if rep == 0 {
            digest = verify::dir_digest(&dir)?;
            let checked = verify::check_partition_dir(&dir, &expected(spec, input, sorted_keys));
            out.failed += checked.failed;
            out.problems.extend(checked.problems);
            rf = checked.rf;
        }
        std::fs::remove_dir_all(dir)?;
    }
    let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
    Ok((best, digest, rf))
}

/// Bytes of one replication bit matrix: |V| rows of ⌈k/64⌉ words (computed,
/// not measured).
fn replica_bytes(spec: &PartitionSpec, input: &Input) -> f64 {
    (input.num_vertices * (spec.k as u64).div_ceil(64) * 8) as f64
}

/// The engine's own balance cap (the hand-driven run must take the engine's
/// decisions to write the engine's bytes).
fn engine_cap(spec: &PartitionSpec, num_edges: u64) -> u64 {
    PartitionLoads::new(spec.k, num_edges, ALPHA).cap()
}

/// Phase-2 state of a one-shard run over the whole edge range.
fn whole_range_assigner<'a>(
    spec: &PartitionSpec,
    input: &Input,
    degrees: &'a DegreeTable,
    clustering: &'a Clustering,
    placement: &'a ClusterPlacement,
) -> ShardAssigner<'a> {
    ShardAssigner::new(
        config(spec),
        degrees,
        clustering,
        placement,
        ReplicationMatrix::new(input.num_vertices, spec.k),
        ShardLoads::standalone(spec.k, engine_cap(spec, input.num_edges()), 0, 1),
    )
}

/// `tps_io::run_job` on `input`, in process, over a counting reader and into
/// a `FileSink` — what `tps partition` does. Returns its wall clock, the
/// passes it made, the run report, and the digest of its output.
fn run_job_in_process(
    ctx: &Ctx<'_>,
    spec: &PartitionSpec,
    input: &Input,
) -> io::Result<(Duration, u64, tps_core::RunOutcome, u64)> {
    let dir = ctx.scratch.fresh_dir("job")?;
    let start = Instant::now();
    let mut stream = CountingStream {
        inner: open_edge_stream(&input.path, ReaderBackend::Buffered)?,
        resets: 0,
    };
    let mut files = FileSink::create(&dir, input.stem(), spec.k, input.num_vertices)?;
    let outcome = tps_io::run_job(
        JobSpec::stream(&mut stream)
            .two_phase(config(spec))
            .params(&PartitionParams::with_alpha(spec.k, ALPHA))
            .num_vertices(input.num_vertices)
            .threads(ThreadMode::Serial)
            .mem_budget_mb(spec.mem_budget_mb)
            .extra_sink(&mut files),
    )?;
    files.finish()?;
    let wall = start.elapsed();
    let digest = verify::dir_digest(&dir)?;
    std::fs::remove_dir_all(dir)?;
    Ok((wall, stream.resets, outcome, digest))
}

/// One hand-driven run of the serial pipeline: its phase-1 state and spans.
struct HandRun {
    degrees: DegreeTable,
    clustering: Clustering,
    placement: ClusterPlacement,
    counters: tps_core::two_phase::AssignCounters,
    t_degree: Duration,
    t_passes: Vec<Duration>,
    t_mapping: Duration,
    wall: Duration,
}

/// Drive the serial pipeline by hand, traced, writing real partition files
/// into `dir` through the sinks `tps partition` uses.
fn hand_driven_run(
    rec: &mut Recorder,
    spec: &PartitionSpec,
    input: &Input,
    dir: &Path,
) -> io::Result<HandRun> {
    let cfg = config(spec);
    let (run, wall) = rec.span("pipeline", |rec| -> io::Result<HandRun> {
        let (stream, _) = rec.span("io.open", |_| {
            open_edge_stream(&input.path, ReaderBackend::Buffered)
        });
        let mut stream = stream?;
        let (degrees, t_degree) = rec.span("graph.degree", |_| {
            DegreeTable::compute(&mut stream, input.num_vertices)
        });
        let degrees = degrees?;
        let cap = resolve_volume_cap(&cfg, spec.k, &degrees);
        let mut clustering = Clustering::empty(input.num_vertices);
        let mut t_passes = Vec::new();
        for _ in 0..spec.passes {
            let (r, t) = rec.span("clustering.pass", |_| {
                clustering_pass(&mut stream, &degrees, cap, &mut clustering)
            });
            r?;
            t_passes.push(t);
        }
        let (placement, t_mapping) = rec.span("core.mapping", |_| {
            ClusterPlacement::sorted_list_schedule(&clustering, spec.k)
        });
        let mut quality = QualitySink::new(input.num_vertices, spec.k);
        let mut files = FileSink::create(dir, input.stem(), spec.k, input.num_vertices)?;
        let counters = {
            let mut assigner = whole_range_assigner(spec, input, &degrees, &clustering, &placement);
            let mut tee = TeeSink::new(&mut quality, &mut files);
            rec.span("core.prepartition+sink", |_| {
                assigner.prepartition_pass(&mut stream, &mut tee)
            })
            .0?;
            rec.span("core.scoring+sink", |_| {
                assigner.remaining_pass(&mut stream, &mut tee)
            })
            .0?;
            assigner.counters()
        };
        rec.span("core.sink.finish", |_| files.finish()).0?;
        Ok(HandRun {
            degrees,
            clustering,
            placement,
            counters,
            t_degree,
            t_passes,
            t_mapping,
            wall: Duration::ZERO,
        })
    });
    Ok(HandRun { wall, ..run? })
}

/// The smallest of `TIMING_REPS` timings of `f`.
fn best_time(mut f: impl FnMut() -> io::Result<Duration>) -> io::Result<Duration> {
    let mut best = Duration::MAX;
    for _ in 0..TIMING_REPS {
        best = best.min(f()?);
    }
    Ok(best)
}

/// The traced pass of a serial, unpaged workload.
fn trace_flat(
    ctx: &Ctx<'_>,
    out: &mut TracedResult,
    spec: &PartitionSpec,
    input: &Input,
    child_wall: f64,
    child_digest: u64,
) -> io::Result<()> {
    let edges = input.num_edges();
    let per_edge = |d: Duration| d.as_secs_f64() * 1e9 / edges as f64;
    let passes = pipeline_passes(spec);
    let drain = measure_readers(out, input, passes)?;

    // The hand-driven pipeline; the fastest of its runs is the one the layer
    // table describes, so that its rows are parts of one whole.
    let mut hand: Option<HandRun> = None;
    for _ in 0..TIMING_REPS {
        let dir = ctx.scratch.fresh_dir("hand")?;
        let run = hand_driven_run(&mut out.recorder, spec, input, &dir)?;
        if verify::dir_digest(&dir)? != child_digest {
            out.miss(
                edges,
                "hand-driven output is not byte-identical to the child's".to_string(),
            );
        }
        std::fs::remove_dir_all(dir)?;
        if hand.as_ref().is_none_or(|h| run.wall < h.wall) {
            hand = Some(run);
        }
    }
    let hand = hand.expect("TIMING_REPS is at least 1");
    out.attempted += edges;

    // Phase 2 again on the same phase-1 state, into a NullSink: the kernels
    // without the sink.
    let mut stream = open_edge_stream(&input.path, ReaderBackend::Buffered)?;
    // One untimed pass so a TPSBEL2 reader serves from its decode cache, as
    // passes 2‥4 of the pipeline are.
    stream.reset()?;
    while stream.next_edge()?.is_some() {}
    let (mut t_prepartition, mut t_scoring) = (Duration::MAX, Duration::MAX);
    for _ in 0..TIMING_REPS {
        let mut assigner = whole_range_assigner(
            spec,
            input,
            &hand.degrees,
            &hand.clustering,
            &hand.placement,
        );
        let (r, t) = out.recorder.span("core.prepartition", |_| {
            assigner.prepartition_pass(&mut stream, &mut NullSink)
        });
        r?;
        t_prepartition = t_prepartition.min(t);
        let (r, t) = out.recorder.span("core.scoring", |_| {
            assigner.remaining_pass(&mut stream, &mut NullSink)
        });
        r?;
        t_scoring = t_scoring.min(t);
    }
    // The assignments in emission order, replayed into the sinks alone.
    let mut emitted = VecSink::new();
    let mut assigner = whole_range_assigner(
        spec,
        input,
        &hand.degrees,
        &hand.clustering,
        &hand.placement,
    );
    assigner.prepartition_pass(&mut stream, &mut emitted)?;
    assigner.remaining_pass(&mut stream, &mut emitted)?;
    drop(stream);
    let t_sink = best_time(|| {
        let dir = ctx.scratch.fresh_dir("replay")?;
        let (r, t) = out.recorder.span("core.sink", |_| -> io::Result<()> {
            let mut quality = QualitySink::new(input.num_vertices, spec.k);
            let mut files = FileSink::create(&dir, input.stem(), spec.k, input.num_vertices)?;
            for &(e, p) in emitted.assignments() {
                quality.assign(e, p)?;
                files.assign(e, p)?;
            }
            files.finish().map(|_| ())
        });
        r?;
        std::fs::remove_dir_all(dir)?;
        Ok(t)
    })?;
    drop(emitted);

    // The same job through the engine's own front door.
    let mut job_passes = 0;
    let job_wall = best_time(|| {
        let (wall, passes, _, digest) = run_job_in_process(ctx, spec, input)?;
        if digest != child_digest {
            out.miss(
                edges,
                "in-process run_job output differs from the child's".to_string(),
            );
        }
        job_passes = passes;
        Ok(wall)
    })?;

    let self_of = |t: Duration| t.saturating_sub(drain.later);
    let degree_self = hand.t_degree.saturating_sub(drain.first);
    let pass_self: Vec<f64> = hand
        .t_passes
        .iter()
        .map(|&t| self_of(t).as_secs_f64())
        .collect();
    let counters = hand.counters;
    let remaining = counters.remaining.max(1);
    out.set("io.stream_passes", job_passes as f64);
    out.set("graph.degree_ns_per_edge", per_edge(degree_self));
    out.set(
        "clustering.pass_ns_per_edge",
        median(&pass_self) * 1e9 / edges as f64,
    );
    out.set(
        "clustering.clusters",
        hand.clustering.num_nonempty_clusters() as f64,
    );
    out.set("core.mapping_ms", hand.t_mapping.as_secs_f64() * 1e3);
    out.set(
        "core.prepartition_ns_per_edge",
        per_edge(self_of(t_prepartition)),
    );
    out.set(
        "core.prepartition_rate",
        counters.prepartitioned as f64 / edges as f64,
    );
    out.set(
        "core.scoring_ns_per_edge",
        self_of(t_scoring).as_secs_f64() * 1e9 / remaining as f64,
    );
    out.set(
        "core.scoring_fallback_rate",
        (counters.fallback_hash + counters.fallback_least_loaded) as f64 / remaining as f64,
    );
    out.set("core.sink_ns_per_edge", per_edge(t_sink));
    out.set("metrics.replica_bytes", replica_bytes(spec, input));
    out.set(
        "ledger.handdriven_vs_job_ratio",
        hand.wall.as_secs_f64() / job_wall.as_secs_f64(),
    );
    out.context
        .push(("child_wall_ns_per_edge", child_wall * 1e9 / edges as f64));

    out.table_of = "hand-driven pipeline";
    out.table = vec![
        LayerRow {
            layer: "io (read+decode)",
            self_secs: drain.total.as_secs_f64(),
        },
        LayerRow {
            layer: "graph.degree",
            self_secs: degree_self.as_secs_f64(),
        },
        LayerRow {
            layer: "clustering",
            self_secs: pass_self.iter().sum(),
        },
        LayerRow {
            layer: "core.mapping",
            self_secs: hand.t_mapping.as_secs_f64(),
        },
        LayerRow {
            layer: "core.prepartition",
            self_secs: self_of(t_prepartition).as_secs_f64(),
        },
        LayerRow {
            layer: "core.scoring",
            self_secs: self_of(t_scoring).as_secs_f64(),
        },
        LayerRow {
            layer: "core.sink",
            self_secs: t_sink.as_secs_f64(),
        },
    ];
    out.table_wall_secs = hand.wall.as_secs_f64();
    let attributed: f64 = out.table.iter().map(|r| r.self_secs).sum();
    out.set(
        "ledger.unattributed_share",
        1.0 - attributed / hand.wall.as_secs_f64(),
    );
    Ok(())
}

/// `spec.passes` clustering passes over `table`, by hand. Returns the passes'
/// durations and the table's fault counts.
fn paged_clustering_passes(
    out: &mut TracedResult,
    span: &'static str,
    input: &Input,
    spec: &PartitionSpec,
    degrees: &DegreeTable,
    mut table: PagedClustering,
) -> io::Result<(Vec<Duration>, tps_clustering::paged::PagingStats)> {
    let cap = resolve_volume_cap(&config(spec), spec.k, degrees);
    let mut stream = open_edge_stream(&input.path, ReaderBackend::Buffered)?;
    let mut passes = Vec::new();
    for _ in 0..spec.passes {
        let (r, t) = out.recorder.span(span, |_| {
            clustering_pass_on(&mut stream, degrees, cap, &mut table)
        });
        r?;
        table.check_io()?;
        passes.push(t);
    }
    Ok((passes, table.stats()))
}

/// The traced pass of the paged workload. Phase 1 is driven by hand over a
/// `PagedClustering`; phase 2 over paged state has no public per-pass entry
/// point (`ClusterView` is crate-private), so the whole job also runs in
/// process through `tps_io::run_job` and its `RunReport` phases fill the
/// layer table.
fn trace_paged(
    ctx: &Ctx<'_>,
    out: &mut TracedResult,
    spec: &PartitionSpec,
    input: &Input,
    child_wall: f64,
    child_digest: u64,
) -> io::Result<()> {
    let edges = input.num_edges();
    let passes = pipeline_passes(spec);
    let drain = measure_readers(out, input, passes)?;
    let self_of = |t: Duration| t.saturating_sub(drain.later);

    // The engine's own split of the budget and choice of page size.
    let store_dir = ctx.scratch.fresh_dir("pages")?;
    let provider = std::sync::Arc::new(TempPageStoreProvider::new(&store_dir));
    let pool_bytes = MemBudgetSplit::of(spec.mem_budget_mb << 20).cluster_pages;
    let page_size = ClusterPaging::new(pool_bytes, provider.clone()).page_size;

    let (degrees, t_degree) = out.recorder.span("graph.degree", |_| {
        let mut stream = open_edge_stream(&input.path, ReaderBackend::Buffered)?;
        DegreeTable::compute(&mut stream, input.num_vertices)
    });
    let degrees = degrees?;
    let (t_paged, stats) = paged_clustering_passes(
        out,
        "clustering.paged.pass",
        input,
        spec,
        &degrees,
        PagedClustering::with_page_size(
            input.num_vertices,
            pool_bytes,
            page_size,
            provider.open_store(page_size)?,
        ),
    )?;
    // The same with every page resident: indirection and LRU bookkeeping
    // without a single fault.
    let all_resident = 64 * input.num_vertices + (1 << 20);
    let (t_resident, resident_stats) = paged_clustering_passes(
        out,
        "clustering.paged.resident_pass",
        input,
        spec,
        &degrees,
        PagedClustering::with_page_size(
            input.num_vertices,
            all_resident,
            page_size,
            provider.open_store(page_size)?,
        ),
    )?;
    if resident_stats.evictions > 0 {
        out.miss(1, "the all-resident paged table evicted pages".to_string());
    }
    let med_secs = |ts: &[Duration]| {
        median(
            &ts.iter()
                .map(|&t| self_of(t).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    out.set(
        "clustering.paged.pass_ns_per_edge",
        med_secs(&t_paged) * 1e9 / edges as f64,
    );
    out.set(
        "clustering.paged.resident_pass_ns_per_edge",
        med_secs(&t_resident) * 1e9 / edges as f64,
    );
    out.set(
        "clustering.paged.faults_per_edge",
        stats.faults as f64 / edges as f64,
    );
    out.set(
        "clustering.paged.writebacks_per_edge",
        stats.writebacks as f64 / edges as f64,
    );

    // One page out and back through the checksummed file store.
    let mut store = FilePageStore::create(&store_dir.join("rt.tpspage"), page_size)?;
    let mut page = vec![0u8; page_size];
    let mut trips = Vec::with_capacity(PAGE_STORE_ROUND_TRIPS);
    for i in 0..PAGE_STORE_ROUND_TRIPS {
        let key = (i % 256) as u64;
        page[0] = i as u8;
        let t = Instant::now();
        store.write_pages(&[(key, page.clone())])?;
        store.read_page(key, &mut page)?;
        trips.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(store);
    out.set("io.page_store_rt_us", median(&trips));
    drop(provider);
    std::fs::remove_dir_all(store_dir).ok();

    // The whole job through the engine, in process, for the phases.
    let mut rec = std::mem::replace(&mut out.recorder, Recorder::new(""));
    let (job, _) = rec.span("pipeline", |_| run_job_in_process(ctx, spec, input));
    out.recorder = rec;
    let (job_wall, job_passes, outcome, job_digest) = job?;
    if job_digest != child_digest {
        out.miss(
            edges,
            "in-process paged output is not byte-identical to the child's".to_string(),
        );
    }
    out.attempted += edges;
    let phase = |name: &str| -> f64 {
        outcome
            .report
            .phases
            .phases()
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, d)| d.as_secs_f64())
    };
    let hand_phase1 =
        t_degree.as_secs_f64() + t_paged.iter().map(Duration::as_secs_f64).sum::<f64>();
    out.set("io.stream_passes", job_passes as f64);
    out.set(
        "graph.degree_ns_per_edge",
        t_degree.saturating_sub(drain.first).as_secs_f64() * 1e9 / edges as f64,
    );
    out.set(
        "clustering.clusters",
        outcome.report.counter("clusters") as f64,
    );
    out.set("core.mapping_ms", phase("mapping") * 1e3);
    out.set(
        "core.prepartition_rate",
        outcome.report.counter("prepartitioned") as f64 / edges as f64,
    );
    out.set(
        "core.paging.faults_per_edge",
        outcome.report.counter("paging_faults") as f64 / edges as f64,
    );
    out.set(
        "core.paged_phase2_ns_per_edge",
        (phase("prepartition") + phase("partition")) * 1e9 / edges as f64,
    );
    out.set("metrics.replica_bytes", replica_bytes(spec, input));
    // Hand-driven phase 1 against the engine's phase 1: what licenses the
    // `clustering.paged.*` timings above.
    out.context.push((
        "phase1_handdriven_vs_job_ratio",
        hand_phase1 / (phase("degree") + phase("clustering")),
    ));
    out.context
        .push(("child_wall_ns_per_edge", child_wall * 1e9 / edges as f64));

    // The rows are the engine's own phase report: they say where the engine
    // thinks its time went, they do not check it.
    let d = drain.later.as_secs_f64();
    out.table_of = "in-process run_job, engine-reported phases";
    out.table = vec![
        LayerRow {
            layer: "io (read+decode)",
            self_secs: drain.total.as_secs_f64(),
        },
        LayerRow {
            layer: "graph.degree",
            self_secs: (phase("degree") - drain.first.as_secs_f64()).max(0.0),
        },
        LayerRow {
            layer: "clustering.paged",
            self_secs: (phase("clustering") - d * spec.passes as f64).max(0.0),
        },
        LayerRow {
            layer: "core.mapping (paged)",
            self_secs: phase("mapping"),
        },
        LayerRow {
            layer: "core.prepartition+sink (paged)",
            self_secs: (phase("prepartition") - d).max(0.0),
        },
        LayerRow {
            layer: "core.scoring+sink (paged)",
            self_secs: (phase("partition") - d).max(0.0),
        },
    ];
    out.table_wall_secs = job_wall.as_secs_f64();
    Ok(())
}

/// The kernels `--threads 2` and the dist workers run, one shard after the
/// other on this thread: what the parallel run costs in CPU, and — stage by
/// stage, the slower shard — the least it could cost in wall clock.
fn trace_shards(
    ctx: &Ctx<'_>,
    out: &mut TracedResult,
    spec: &PartitionSpec,
    input: &Input,
    par2_wall: f64,
    par2_digest: u64,
) -> io::Result<()> {
    let edges = input.num_edges();
    let cfg = config(spec);
    let source = tps_io::open_ranged(&input.path)?;
    let ranges = split_even(edges, 2);
    let mut kernel = Duration::ZERO;
    let mut critical = Duration::ZERO;
    let mut stage = |times: &[Duration]| {
        kernel += times.iter().sum::<Duration>();
        critical += times.iter().copied().max().unwrap_or_default();
    };

    let mut rec = std::mem::replace(&mut out.recorder, Recorder::new(""));
    let mut timed = |name: &str, f: &mut dyn FnMut() -> io::Result<()>| -> io::Result<Duration> {
        let (r, t) = rec.span(name, |_| f());
        r.map(|()| t)
    };

    let mut tables = Vec::new();
    let mut times = Vec::new();
    for &range in &ranges {
        times.push(timed("shard.degrees", &mut || {
            tables.push(shard_degrees(&*source, range, input.num_vertices)?);
            Ok(())
        })?);
    }
    stage(&times);
    let degrees = merge_degree_tables(tables);
    let cap = resolve_volume_cap(&cfg, spec.k, &degrees);

    let mut locals = Vec::new();
    let mut times = Vec::new();
    for &range in &ranges {
        times.push(timed("shard.clustering", &mut || {
            locals.push(shard_clustering(
                &*source,
                range,
                &cfg,
                &degrees,
                cap,
                input.num_vertices,
                true,
            )?);
            Ok(())
        })?);
    }
    stage(&times);
    let mut merged = None;
    let t_merge = timed("clustering.merge", &mut || {
        merged = Some(merge_clusterings(&locals, &degrees));
        Ok(())
    })?;
    let clustering = merged.expect("the merge ran");
    drop(locals);
    let placement = cluster_placement(&cfg, &clustering, spec.k);

    let ledger = AtomicLoads::new(spec.k, edges, ALPHA);
    let replicas = AtomicReplicationMatrix::new(input.num_vertices, spec.k);
    let mut shards: Vec<_> = (0..ranges.len())
        .map(|t| {
            let assigner = ShardAssigner::new(
                cfg,
                &degrees,
                &clustering,
                &placement,
                SharedReplicaView::new(&replicas),
                ShardLoads::with_ledger(&ledger, t, ranges.len()),
            );
            (assigner, VecSink::new())
        })
        .collect();
    let mut times = Vec::new();
    for (&(a, b), (assigner, sink)) in ranges.iter().zip(&mut shards) {
        times.push(timed("shard.prepartition", &mut || {
            let mut s = source.open_range(a, b)?;
            assigner.prepartition_pass(&mut s, sink)
        })?);
    }
    stage(&times);
    for (assigner, _) in &mut shards {
        assigner.freeze_replication();
    }
    let mut times = Vec::new();
    for (&(a, b), (assigner, sink)) in ranges.iter().zip(&mut shards) {
        times.push(timed("shard.scoring", &mut || {
            let mut s = source.open_range(a, b)?;
            assigner.remaining_pass(&mut s, sink)
        })?);
    }
    stage(&times);
    out.recorder = rec;

    // Replayed in shard order the spools must be what `--threads 2` wrote.
    let dir = ctx.scratch.fresh_dir("shards")?;
    let mut files = FileSink::create(&dir, input.stem(), spec.k, input.num_vertices)?;
    for (_, sink) in &shards {
        for &(e, p) in sink.assignments() {
            files.assign(e, p)?;
        }
    }
    files.finish()?;
    if verify::dir_digest(&dir)? != par2_digest {
        out.miss(
            edges,
            "hand-driven shards are not byte-identical to --threads 2".to_string(),
        );
    }
    std::fs::remove_dir_all(dir)?;
    out.attempted += edges;

    out.set("clustering.merge_ms", t_merge.as_secs_f64() * 1e3);
    out.set(
        "clustering.clusters",
        clustering.num_nonempty_clusters() as f64,
    );
    out.set(
        "core.parallel.kernel_ns_per_edge",
        kernel.as_secs_f64() * 1e9 / edges as f64,
    );
    out.set(
        "core.parallel.overhead_share",
        1.0 - critical.as_secs_f64() / par2_wall,
    );
    out.set("metrics.replica_bytes", replica_bytes(spec, input));
    out.table = vec![
        LayerRow {
            layer: "core.parallel kernels (slower shard per stage)",
            self_secs: critical.as_secs_f64(),
        },
        LayerRow {
            layer: "clustering.merge",
            self_secs: t_merge.as_secs_f64(),
        },
    ];
    out.table_wall_secs = par2_wall;
    out.table_of = "`--threads 2` child";
    Ok(())
}

/// `tps_dist::run_dist_local` with two loopback workers: the frames a dist
/// run exchanges, counted by `tps_obs`.
fn trace_dist_frames(
    out: &mut TracedResult,
    spec: &PartitionSpec,
    input: &Input,
) -> io::Result<()> {
    let source = tps_io::open_ranged(&input.path)?;
    tps_obs::reset_counters();
    let (r, _) = out.recorder.span("dist.run_dist_local", |_| {
        tps_dist::run_dist_local(
            &*source,
            &config(spec),
            &PartitionParams::with_alpha(spec.k, ALPHA),
            2,
            &mut NullSink,
        )
    });
    r?;
    let counter = |name: &str| {
        tps_obs::counters_snapshot()
            .into_iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| v)
    };
    // Both ends of a loopback pair live in this process, so every frame is
    // counted once sent and once received; the wire carries half the bytes.
    out.set("dist.frames_per_run", counter("dist.frames.sent") as f64);
    out.set(
        "dist.frame_bytes_per_edge",
        counter("dist.frames.bytes") as f64 / 2.0 / input.num_edges() as f64,
    );
    Ok(())
}

/// `obs.trace_overhead_ratio`: best wall of child reps with `--trace` ÷ best
/// wall without, the two alternating.
fn trace_overhead(ctx: &Ctx<'_>, spec: &PartitionSpec, input: &Input) -> io::Result<f64> {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..TRACE_OVERHEAD_PAIRS {
        for (traced, best) in best.iter_mut().enumerate() {
            let dir = ctx.scratch.fresh_dir("overhead")?;
            let mut cmd = partition_command(ctx, spec, &input.path, &dir);
            if traced == 1 {
                cmd.arg("--trace").arg(dir.join("trace.jsonl"));
            }
            let run = run_child(&mut cmd, false)?;
            if run.success {
                *best = best.min(run.wall.as_secs_f64());
            }
            std::fs::remove_dir_all(dir)?;
        }
    }
    Ok(best[1] / best[0])
}

/// The traced pass of partition workload `w`.
pub fn trace_partition(
    ctx: &Ctx<'_>,
    w: &Workload,
    spec: &PartitionSpec,
) -> io::Result<TracedResult> {
    let started = Instant::now();
    let mut out = TracedResult::new(w.name);
    let dir = ctx.scratch.fresh_dir("setup")?;
    let input = inputs::generate(w.graph, ctx.scale, ctx.seed, &dir)?;
    let keys = verify::sorted_input_keys(&input.edges);
    let (child_wall, digest, rf) = child_baseline(ctx, &mut out, spec, &input, &keys)?;

    match spec.engine {
        Engine::Serial if spec.mem_budget_mb > 0 => {
            trace_paged(ctx, &mut out, spec, &input, child_wall, digest)?
        }
        Engine::Serial => {
            trace_flat(ctx, &mut out, spec, &input, child_wall, digest)?;
            if w.name == "social_serial" {
                out.set(
                    "obs.trace_overhead_ratio",
                    trace_overhead(ctx, spec, &input)?,
                );
            }
        }
        Engine::Threads2 | Engine::Dist2 => {
            // Both run the same shard kernels; dist adds frames and processes.
            let par2 = PartitionSpec {
                engine: Engine::Threads2,
                ..*spec
            };
            let serial = PartitionSpec {
                engine: Engine::Serial,
                ..*spec
            };
            let (par2_wall, par2_digest, par2_rf) = if spec.engine == Engine::Threads2 {
                (child_wall, digest, rf)
            } else {
                child_baseline(ctx, &mut out, &par2, &input, &keys)?
            };
            let (_, _, serial_rf) = child_baseline(ctx, &mut out, &serial, &input, &keys)?;
            trace_shards(ctx, &mut out, &par2, &input, par2_wall, par2_digest)?;
            out.set("core.parallel.rf_vs_serial", par2_rf / serial_rf);
            if spec.engine == Engine::Dist2 {
                if digest != par2_digest {
                    out.miss(
                        input.num_edges(),
                        "dist output differs from --threads 2".to_string(),
                    );
                }
                trace_dist_frames(&mut out, spec, &input)?;
                out.set("dist.overhead_share", 1.0 - par2_wall / child_wall);
            }
            out.context.push((
                "child_wall_ns_per_edge",
                child_wall * 1e9 / input.num_edges() as f64,
            ));
        }
    }
    std::fs::remove_dir_all(dir)?;
    out.context
        .push(("traced_pass_s", started.elapsed().as_secs_f64()));
    Ok(out)
}

/// The traced pass of serve workload `w`: the end-to-end run again with
/// client-side latencies kept, 1-key round trips, and the serve layers
/// called in process.
pub fn trace_serve(
    ctx: &Ctx<'_>,
    w: &Workload,
    traffic: crate::workload::Traffic,
) -> io::Result<TracedResult> {
    use crate::stats::percentile;
    use crate::workload::Traffic;

    let started = Instant::now();
    let mut out = TracedResult::new(w.name);
    let mut rec = std::mem::replace(&mut out.recorder, Recorder::new(""));
    let (run, _) = rec.span("serve.run", |_| {
        crate::serve::run_serve(ctx, w, traffic, true)
    });
    out.recorder = rec;
    let (e2e, extras) = run?;
    out.attempted = e2e.attempted;
    out.failed = e2e.failed;
    out.problems = e2e.problems;
    for (name, value) in extras.layers {
        out.set(name, value);
    }
    let rtt_us = extras.rtt_us.unwrap_or(0.0);
    out.set("serve.proto.rtt_us", rtt_us);
    out.set("serve.lru.hit_rate", extras.lru_hit_rate);
    // A p99 of fewer than 1 000 samples is its maximum, not a tail.
    let lat = &extras.latencies;
    for (p50, p99, samples) in [
        (
            "serve.proto.lookup_batch_p50_us",
            "serve.proto.lookup_batch_p99_us",
            &lat.lookup_us,
        ),
        (
            "serve.proto.update_batch_p50_us",
            "serve.proto.update_batch_p99_us",
            &lat.update_us,
        ),
    ] {
        if let Some(v) = percentile(samples, 50.0, 1) {
            out.set(p50, v);
        }
        if let Some(v) = percentile(samples, 99.0, 1000) {
            out.set(p99, v);
        }
    }

    // Per-request wall = round-trip floor + keys × probe (read) or
    // + edges × apply (write); the rest is framing, copies and the LRU.
    let requests = (lat.lookup_us.len() + lat.update_us.len()) as f64
        + match traffic {
            Traffic::Read => {
                lat.lookup_us.len() as f64 / crate::serve::READ_BATCHES_PER_CYCLE as f64
            }
            Traffic::Churn => 0.0,
        };
    let layer = |name: &str| out.layers.get(name).copied().unwrap_or(0.0);
    let (kernel_row, kernel_secs) = match traffic {
        Traffic::Read => (
            "serve.packed (sorted probe)",
            layer("serve.packed.probe_ns_per_key")
                * 1e-9
                * (lat.lookup_us.len() * crate::serve::READ_BATCH_KEYS) as f64,
        ),
        Traffic::Churn => (
            "serve.state (apply)",
            layer("serve.state.apply_ns_per_edge")
                * 1e-9
                * (lat.update_us.len() * 2 * crate::serve::CHURN_BATCH_EDGES) as f64,
        ),
    };
    out.table = vec![
        LayerRow {
            layer: "serve.proto (round-trip floor)",
            self_secs: requests * rtt_us * 1e-6,
        },
        LayerRow {
            layer: kernel_row,
            self_secs: kernel_secs,
        },
    ];
    out.table_wall_secs = e2e.wall_ns_per_edge.value * 1e-9 * e2e.attempted as f64;
    out.table_of = "client-side request wall (median window)";
    let attributed: f64 = out.table.iter().map(|r| r.self_secs).sum();
    out.set(
        "ledger.unattributed_share",
        1.0 - attributed / out.table_wall_secs,
    );
    out.context
        .push(("traced_pass_s", started.elapsed().as_secs_f64()));
    Ok(out)
}

/// The traced pass of workload `w`.
pub fn trace(ctx: &Ctx<'_>, w: &Workload) -> io::Result<TracedResult> {
    match w.kind {
        crate::workload::Kind::Partition(spec) => trace_partition(ctx, w, &spec),
        crate::workload::Kind::Serve(traffic) => trace_serve(ctx, w, traffic),
    }
}
