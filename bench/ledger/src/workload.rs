//! The benchmark's definition: its workloads and its metric names.
//! `BENCHMARK.json` repeats these lists; a self-test holds the two equal.

/// Which generated graph a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// R-MAT stand-in for twitter-2010 (a = 0.65): heavy tail, no id
    /// locality. Written as TPSBEL2.
    Social,
    /// Planted-partition stand-in for gsh-2015 (mixing 0.04), endpoint-sorted.
    /// Written as v1 `.bel`.
    Web,
}

/// `Dataset::Tw.config_scaled` factor of the social graph at `--scale 1`:
/// 4.0 M edges, ~248 k vertices.
pub const SOCIAL_DATASET_SCALE: f64 = 5.0;
/// Edge orders of the social graph a partition workload rotates its reps
/// through; its `rf` is the mean over them (`inputs::write_orders` says why).
pub const SOCIAL_ORDERS: usize = 6;
/// `Dataset::Gsh.config_scaled` factor of the web graph at `--scale 1`:
/// 4.8 M edges, 600 k vertices.
pub const WEB_DATASET_SCALE: f64 = 3.0;

/// How a partition workload runs the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `tps partition --threads serial`
    Serial,
    /// `tps partition --threads 2`
    Threads2,
    /// `tps dist coordinator --workers 2 --dist-local`
    Dist2,
}

/// One `tps partition` / `tps dist coordinator` command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    pub engine: Engine,
    pub k: u32,
    pub passes: u32,
    /// `--mem-budget-mb`, 0 = none.
    pub mem_budget_mb: u64,
}

/// The balance factor of every workload.
pub const ALPHA: f64 = 1.05;

/// Which traffic a serve workload sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// Cycles of 7 `lookup_batch` of 8 192 keys + 1 `replica_sets` of 1 024 vertices.
    Read,
    /// Cycles of 1 `update` (2 048 inserts + 2 048 removes) + 1 `lookup_batch`
    /// of the 4 096 keys just mutated.
    Churn,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Partition(PartitionSpec),
    Serve(Traffic),
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub graph: GraphKind,
    pub kind: Kind,
}

const fn part(engine: Engine, k: u32, passes: u32, mem_budget_mb: u64) -> Kind {
    Kind::Partition(PartitionSpec {
        engine,
        k,
        passes,
        mem_budget_mb,
    })
}

/// `--k` of the partitioning a serve workload loads.
pub const SERVE_K: u32 = 32;

/// The benchmark's workloads: the ones `BENCHMARK.json` lists and the driver
/// runs.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "social_serial",
        why: "single-threaded baseline: 91% of edges reach the scoring subpass; 4 passes over TPSBEL2 use the decode cache",
        graph: GraphKind::Social,
        kind: part(Engine::Serial, 32, 1, 0),
    },
    Workload {
        name: "social_k256",
        why: "the title claim is run-time independent of k: same layers, 8x replica bits and 256 output files",
        graph: GraphKind::Social,
        kind: part(Engine::Serial, 256, 1, 0),
    },
    Workload {
        name: "social_par2",
        why: "--threads auto is the CLI default, so this is the default path here; core.parallel owns the extra work",
        graph: GraphKind::Social,
        kind: part(Engine::Threads2, 32, 1, 0),
    },
    Workload {
        name: "social_dist2",
        why: "same kernels as social_par2 behind tps-dist frames, TCP and worker processes; output must be identical",
        graph: GraphKind::Social,
        kind: part(Engine::Dist2, 32, 1, 0),
    },
    Workload {
        name: "web_serial",
        why: "opposite layer mix: 60% of edges pre-partitioned, 6 passes over raw v1 input, so io and clustering dominate",
        graph: GraphKind::Web,
        kind: part(Engine::Serial, 32, 3, 0),
    },
    Workload {
        name: "web_paged",
        why: "headline out-of-core mode: cluster state (~10 MB) pages through a 2.5 MB frame pool; clustering.paged owns the gap",
        graph: GraphKind::Web,
        kind: part(Engine::Serial, 32, 3, 5),
    },
];

/// Workloads the ledger runs (`run.sh`, `run.sh --workload`) but
/// `BENCHMARK.json` does not list. A request of theirs is a few thousand
/// dependent cache misses into a 48 MB table and a 300 MB heap, and on the
/// shared box that defined the benchmark its time depends on where the
/// daemon's pages happened to land and on what the neighbours do to the last
/// cache level: the same code read 352–671 ns/key in 31 back-to-back
/// invocations while `social_serial`, alternating with it, stayed within
/// 129–146. The driver refuses a metric whose ten-seed spread passes 25 %,
/// and these pass it every other hour (README, "Why the serve workloads are
/// run by hand").
pub const BY_HAND: [Workload; 2] = [
    Workload {
        name: "serve_read",
        why: "read path only: serve.proto framing, serve.packed galloping probe, serve.lru over one TCP connection",
        graph: GraphKind::Social,
        kind: Kind::Serve(Traffic::Read),
    },
    Workload {
        name: "serve_churn",
        why: "the same daemon written instead of read: serve.state overlay and tps_core::incremental scoring",
        graph: GraphKind::Social,
        kind: Kind::Serve(Traffic::Churn),
    },
];

/// Every workload the ledger knows, the benchmark's first.
pub fn all() -> impl Iterator<Item = &'static Workload> {
    WORKLOADS.iter().chain(&BY_HAND)
}

pub fn find(name: &str) -> Option<&'static Workload> {
    all().find(|w| w.name == name)
}

/// An end-to-end metric: reported by every workload, lower is better.
///
/// `bound` is the share of the parent's median it may worsen by before the
/// driver calls a regression; `BENCHMARK.json` repeats it. The driver accepts
/// a bound only if the metric's spread over ten seeds stays inside it, so a
/// bound cannot be tighter than the box is steady (README, "Why these
/// bounds"): on the shared two-thread box that defined the benchmark the
/// neighbours move the time of identical code by 5–15 % from one run to the
/// next, and other seeds move `rf`, a mean over six edge orders, by 1 %.
///
/// `target` is the bound ISSUE 12 asked for. `run.sh --repeat-check` reports
/// every (workload, metric) pair whose spread is wider than it as
/// *unresolved*: a change of that size on that pair cannot be told from
/// noise here, whatever the bound says.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    pub target: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_ns_per_edge",
        unit: "ns/edge",
        bound: 0.25,
        target: 0.05,
    },
    EndToEnd {
        name: "cpu_ns_per_edge",
        unit: "ns/edge",
        bound: 0.25,
        target: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.05,
        target: 0.05,
    },
    EndToEnd {
        name: "rf",
        unit: "ratio",
        bound: 0.05,
        target: 0.005,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        target: 0.10,
    },
];

/// A per-layer metric: name, unit, and whether higher or lower is better.
pub type Layer = (&'static str, &'static str, &'static str);

/// Every per-layer metric of the benchmark. A traced run of one of its
/// workloads prints all of them; the ones that workload does not exercise
/// read 0.
pub const PER_LAYER: [Layer; 34] = [
    ("io.v1_buffered_ns_per_edge", "ns/edge", "lower"),
    ("io.v1_mmap_ns_per_edge", "ns/edge", "lower"),
    ("io.v1_prefetch_ns_per_edge", "ns/edge", "lower"),
    ("io.v2_buffered_ns_per_edge", "ns/edge", "lower"),
    ("io.v2_mmap_ns_per_edge", "ns/edge", "lower"),
    ("io.v2_prefetch_ns_per_edge", "ns/edge", "lower"),
    ("io.stream_passes", "count", "lower"),
    ("io.page_store_rt_us", "us", "lower"),
    ("graph.degree_ns_per_edge", "ns/edge", "lower"),
    ("clustering.pass_ns_per_edge", "ns/edge", "lower"),
    ("clustering.clusters", "count", "lower"),
    ("clustering.merge_ms", "ms", "lower"),
    ("clustering.paged.pass_ns_per_edge", "ns/edge", "lower"),
    (
        "clustering.paged.resident_pass_ns_per_edge",
        "ns/edge",
        "lower",
    ),
    ("clustering.paged.faults_per_edge", "count/edge", "lower"),
    (
        "clustering.paged.writebacks_per_edge",
        "count/edge",
        "lower",
    ),
    ("core.paging.faults_per_edge", "count/edge", "lower"),
    ("core.paged_phase2_ns_per_edge", "ns/edge", "lower"),
    ("core.mapping_ms", "ms", "lower"),
    ("core.prepartition_ns_per_edge", "ns/edge", "lower"),
    ("core.prepartition_rate", "ratio", "higher"),
    ("core.scoring_ns_per_edge", "ns/edge", "lower"),
    ("core.scoring_fallback_rate", "ratio", "lower"),
    ("core.sink_ns_per_edge", "ns/edge", "lower"),
    ("metrics.replica_bytes", "bytes", "lower"),
    ("core.parallel.kernel_ns_per_edge", "ns/edge", "lower"),
    ("core.parallel.overhead_share", "ratio", "lower"),
    ("core.parallel.rf_vs_serial", "ratio", "lower"),
    ("dist.frame_bytes_per_edge", "bytes/edge", "lower"),
    ("dist.frames_per_run", "count", "lower"),
    ("dist.overhead_share", "ratio", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("ledger.handdriven_vs_job_ratio", "ratio", "lower"),
    ("ledger.unattributed_share", "ratio", "lower"),
];

/// The per-layer metrics a traced run of a `BY_HAND` workload prints.
pub const SERVE_LAYERS: [Layer; 10] = [
    ("serve.state.load_s", "s", "lower"),
    ("serve.packed.probe_ns_per_key", "ns/key", "lower"),
    ("serve.proto.rtt_us", "us", "lower"),
    ("serve.proto.lookup_batch_p50_us", "us", "lower"),
    ("serve.proto.lookup_batch_p99_us", "us", "lower"),
    ("serve.proto.update_batch_p50_us", "us", "lower"),
    ("serve.proto.update_batch_p99_us", "us", "lower"),
    ("serve.lru.hit_rate", "ratio", "higher"),
    ("serve.state.apply_ns_per_edge", "ns/edge", "lower"),
    ("serve.state.overlay_per_mutation", "ratio", "lower"),
];

pub fn layer_unit(name: &str) -> Option<&'static str> {
    let mut layers = PER_LAYER.iter().chain(&SERVE_LAYERS);
    layers.find(|l| l.0 == name).map(|l| l.1)
}

impl Workload {
    /// The per-layer metrics a traced run of this workload prints.
    pub fn layers(&self) -> &'static [Layer] {
        match self.kind {
            Kind::Partition(_) => &PER_LAYER,
            Kind::Serve(_) => &SERVE_LAYERS,
        }
    }
}
