//! The 2PS-L partitioner (paper Algorithms 1 + 2) and its 2PS-HDRF variant.
//!
//! A full run makes `3 + passes` streaming passes over the edge stream:
//!
//! 1. **degree** — exact vertex degrees (`O(|E|)`, shared with DBH);
//! 2. **clustering** × `passes` — bounded-volume streaming clustering;
//! 3. **pre-partitioning** — edges whose endpoint clusters are co-located
//!    are assigned directly to that partition;
//! 4. **remaining** — every other edge is scored against exactly two
//!    candidate partitions (the clusters' partitions), with degree-based
//!    hashing and least-loaded placement as balance-cap fallbacks.
//!
//! The [`RemainingStrategy::Hdrf`] variant replaces step 4's two-choice
//! scoring with the full `O(k)` HDRF scoring over all partitions — this is
//! the paper's 2PS-HDRF comparison point (Fig. 9): better replication
//! factors, linear-in-`k` run-time.

pub mod mapping;
pub mod plan;
pub mod scoring;

use std::io;
use std::sync::Arc;

use tps_clustering::model::{Clustering, NO_CLUSTER};
use tps_clustering::paged::{PageStoreProvider, PagedClustering, PagingStats, DEFAULT_PAGE_SIZE};
use tps_graph::hash::seeded_hash_to_partition;
use tps_graph::stream::EdgeStream;
use tps_graph::types::{Edge, PartitionId};
use tps_metrics::bitmatrix::ReplicaSet;

use crate::parallel::{run_shards, ShardAssigner, Shards};
use crate::partitioner::{PartitionParams, Partitioner, RunReport};
use crate::sink::{decision_pass, AssignmentSink, DecisionOut};
use crate::two_phase::scoring::{hdrf_score, two_choice_best, EdgeScoreInputs, HdrfParams};

pub(crate) use view::ClusterView;

static CLUSTERING_COMPACTIONS: tps_obs::Counter = tps_obs::Counter::new("clustering.compactions");
static CLUSTERING_IDS_DROPPED: tps_obs::Counter = tps_obs::Counter::new("clustering.ids_dropped");
static CORE_PAGING_BUDGET_BYTES: tps_obs::Counter =
    tps_obs::Counter::new("core.paging.budget_bytes");
static CORE_PAGING_FAULTS: tps_obs::Counter = tps_obs::Counter::new("core.paging.faults");
static CORE_PAGING_EVICTIONS: tps_obs::Counter = tps_obs::Counter::new("core.paging.evictions");
static CORE_PAGING_WRITEBACKS: tps_obs::Counter = tps_obs::Counter::new("core.paging.writebacks");
static CORE_PAGING_FLAT_AFTER_PASS: tps_obs::Counter =
    tps_obs::Counter::new("core.paging.flat_after_pass");

/// Page faults per streamed edge, after the first clustering pass of a paged
/// run, above which the run says so. Endpoint-sorted input at a budget a
/// tenth of the cluster state faults ~0.005 times per edge; an order with no
/// locality faults more than once per edge.
const THRASH_FAULTS_PER_EDGE: f64 = 0.5;

/// How edges that were not pre-partitioned are scored.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RemainingStrategy {
    /// 2PS-L: constant-time scoring of the two candidate partitions.
    TwoChoice,
    /// 2PS-HDRF: HDRF scoring over all `k` partitions (`O(k)` per edge).
    Hdrf(HdrfParams),
}

/// How clusters are packed onto partitions (ablation hook).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MappingStrategy {
    /// Graham's sorted list scheduling (the paper's choice, 4/3-approx).
    SortedGraham,
    /// First-fit in cluster-id order (ablation: what the sorting buys).
    UnsortedFirstFit,
}

/// Configuration of the two-phase partitioner.
#[derive(Clone, Copy, Debug)]
pub struct TwoPhaseConfig {
    /// Streaming clustering passes (paper default: 1, i.e. no re-streaming).
    pub clustering_passes: u32,
    /// Cluster volume cap as a multiple of the fair share `2|E|/k`.
    /// The paper mandates an explicit cap but not its value; our ablation
    /// (bench `ablations`) finds 0.5 — i.e. `cap = |E|/k` — strictly better
    /// than 1.0 on every dataset (finer clusters pack better under Graham
    /// scheduling and overflow the balance cap less), and values ≥ 2 or
    /// unbounded degrade sharply, which is exactly the failure the paper's
    /// extension #1 exists to prevent. See DESIGN.md §5.
    pub volume_cap_factor: f64,
    /// Scoring strategy for non-pre-partitioned edges.
    pub strategy: RemainingStrategy,
    /// Cluster→partition mapping strategy.
    pub mapping: MappingStrategy,
    /// Enable the pre-partitioning pass (ablation switch; the paper always
    /// pre-partitions).
    pub prepartitioning: bool,
    /// Seed of the degree-based-hash fallback.
    pub hash_seed: u64,
}

impl Default for TwoPhaseConfig {
    fn default() -> Self {
        TwoPhaseConfig {
            clustering_passes: 1,
            volume_cap_factor: 0.5,
            strategy: RemainingStrategy::TwoChoice,
            mapping: MappingStrategy::SortedGraham,
            prepartitioning: true,
            hash_seed: 0x2B5C_0DE0_0BA1_A2CE,
        }
    }
}

impl TwoPhaseConfig {
    /// The 2PS-HDRF variant with default HDRF parameters (λ = 1.1).
    pub fn hdrf_variant() -> Self {
        TwoPhaseConfig {
            strategy: RemainingStrategy::Hdrf(HdrfParams::default()),
            ..Default::default()
        }
    }

    /// With a given number of clustering passes (Fig. 7/8 re-streaming).
    pub fn with_passes(passes: u32) -> Self {
        TwoPhaseConfig {
            clustering_passes: passes,
            ..Default::default()
        }
    }

    /// Refuse a configuration no run can execute — the one check every
    /// driver entry point passes through.
    pub(crate) fn check(&self) -> io::Result<()> {
        let problem = if self.clustering_passes == 0 {
            "need at least one clustering pass"
        } else if self.volume_cap_factor.is_nan() || self.volume_cap_factor <= 0.0 {
            "volume cap factor must be positive"
        } else {
            return Ok(());
        };
        Err(io::Error::new(io::ErrorKind::InvalidInput, problem))
    }
}

/// Out-of-core execution policy for a one-shard run: keep cluster state
/// (`v2c`, volumes, `c2p`) in a [`PagedClustering`] bounded by
/// `budget_bytes`, spilling cold pages through `provider`'s store — until
/// it fits `budget_bytes` flat: `v2c` at 4 B per vertex plus `vol` and
/// `c2p` at 12 B per live cluster. At the first clustering-pass boundary
/// where it does, the run promotes the table to a flat [`Clustering`] and
/// goes on in memory; a table that never fits pages through mapping and
/// phase 2.
#[derive(Clone)]
pub struct ClusterPaging {
    /// Byte budget for resident cluster pages (0 = one frame, fully
    /// external).
    pub budget_bytes: u64,
    /// Page size in bytes (default [`DEFAULT_PAGE_SIZE`]; tests shrink it
    /// to force eviction on small graphs).
    pub page_size: usize,
    /// Opens the backing page store (e.g. `tps-io`'s checksummed file
    /// store, or [`tps_clustering::paged::MemPageStoreProvider`] in tests).
    pub provider: Arc<dyn PageStoreProvider>,
}

impl ClusterPaging {
    /// Paging under `budget_bytes`, with the page size adapted to it: a
    /// fault costs one page of I/O and memcpy, so a small budget wants
    /// small pages, while a large budget wants large pages to amortise
    /// per-page overhead. Halving from the 64 KiB default until the budget
    /// holds ≥128 frames (floor 4 KiB) keeps the frame pool deep enough
    /// that the stream's working window stays resident even when the whole
    /// table is 10× over budget.
    pub fn new(budget_bytes: u64, provider: Arc<dyn PageStoreProvider>) -> Self {
        let mut page_size = DEFAULT_PAGE_SIZE;
        while page_size > 4096 && budget_bytes / (page_size as u64) < 128 {
            page_size /= 2;
        }
        ClusterPaging {
            budget_bytes,
            page_size,
            provider,
        }
    }

    /// An empty paged cluster table over `num_vertices` vertices, on a
    /// fresh store. `page_size` is a public field; the table addresses
    /// pages by shift and mask, so anything but a power of two ≥ 8 is an
    /// input error here rather than a mis-addressed run.
    pub(crate) fn open_table(&self, num_vertices: u64) -> io::Result<PagedClustering> {
        if self.page_size < 8 || !self.page_size.is_power_of_two() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "cluster page size {} is not a power of two >= 8",
                    self.page_size
                ),
            ));
        }
        let backing = self.provider.open_store(self.page_size)?;
        Ok(PagedClustering::with_page_size(
            num_vertices,
            self.budget_bytes,
            self.page_size,
            backing,
        ))
    }

    /// Whether a compacted table over `num_vertices` vertices and `live`
    /// cluster ids fits the budget flat: `v2c` at 4 B per vertex, `vol`
    /// and `c2p` at 12 B per id.
    pub(crate) fn fits_flat(&self, num_vertices: u64, live: u32) -> bool {
        num_vertices
            .saturating_mul(4)
            .saturating_add(12 * live as u64)
            <= self.budget_bytes
    }

    /// Append the paging counters of a run that paged under this policy:
    /// `stats` of its paged passes, and the pass after which the table
    /// went flat (0 = paged to the end).
    pub(crate) fn record(&self, report: &mut RunReport, stats: PagingStats, flat_after_pass: u32) {
        report.count("paging_budget_bytes", self.budget_bytes);
        report.count("paging_faults", stats.faults);
        report.count("paging_evictions", stats.evictions);
        report.count("paging_writebacks", stats.writebacks);
        report.count("paging_flat_after_pass", flat_after_pass as u64);
        CORE_PAGING_BUDGET_BYTES.add(self.budget_bytes);
        CORE_PAGING_FAULTS.add(stats.faults);
        CORE_PAGING_EVICTIONS.add(stats.evictions);
        CORE_PAGING_WRITEBACKS.add(stats.writebacks);
        CORE_PAGING_FLAT_AFTER_PASS.add(flat_after_pass as u64);
        CLUSTERING_COMPACTIONS.add(stats.compactions);
        CLUSTERING_IDS_DROPPED.add(stats.ids_dropped);
    }
}

impl std::fmt::Debug for ClusterPaging {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterPaging")
            .field("budget_bytes", &self.budget_bytes)
            .field("page_size", &self.page_size)
            .finish_non_exhaustive()
    }
}

/// The 2PS-L / 2PS-HDRF partitioner over one stream: the run is one shard
/// of the one 2PS-L driver (see [`crate::parallel`]), the stream reset
/// before every pass.
#[derive(Clone, Debug)]
pub struct TwoPhasePartitioner {
    config: TwoPhaseConfig,
    paging: Option<ClusterPaging>,
}

impl TwoPhasePartitioner {
    /// Create a partitioner with `config` (checked when it runs).
    pub fn new(config: TwoPhaseConfig) -> Self {
        TwoPhasePartitioner {
            config,
            paging: None,
        }
    }

    /// Run with cluster state paged to disk under `paging`'s budget (the
    /// out-of-core mode) until it fits that budget flat, then in memory
    /// (see [`ClusterPaging`]). Output is bit-identical to the unpaged run
    /// at every budget; only peak memory, I/O traffic and run time change.
    pub fn with_cluster_paging(mut self, paging: ClusterPaging) -> Self {
        self.paging = Some(paging);
        self
    }
}

/// One clustering pass in, the fault rate says whether the input's order
/// fits the budget; five more passes at a thrashing rate is the run that
/// takes minutes and prints nothing.
pub(crate) fn note_if_thrashing(faults: u64, num_edges: u64) {
    let rate = faults as f64 / num_edges as f64;
    if rate > THRASH_FAULTS_PER_EDGE {
        tps_obs::notice(
            "core.paging.thrash",
            format!(
                "cluster paging is thrashing: {rate:.2} page faults per edge after the first \
                 clustering pass ({faults} faults / {num_edges} edges) — the input's vertex \
                 order has no locality at this --mem-budget-mb; see docs/OPERATIONS.md \
                 \"Sort your input first\""
            ),
        );
    }
}

/// Compact `clustering`'s ids at a pass boundary (see
/// [`Clustering::compact_ids`]) and count the work, the pass's mid-pass
/// renumberings included — the one spelling for every shard that clusters
/// in memory.
pub(crate) fn compact_counted(clustering: &mut Clustering) {
    let (renumberings, renumbered) = clustering.take_renumbered();
    let dropped = clustering.compact_ids();
    let compactions = renumberings + u64::from(dropped > 0);
    if compactions > 0 {
        CLUSTERING_COMPACTIONS.add(compactions);
        CLUSTERING_IDS_DROPPED.add(renumbered + u64::from(dropped));
    }
}

/// Counters of the phase-2 edge kernel (summed across workers when the
/// kernel runs chunk-parallel or distributed — the counters cross the wire
/// in `tps-dist`'s shard-done message).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AssignCounters {
    /// Edges placed by the pre-partitioning condition.
    pub prepartitioned: u64,
    /// Pre-partitionable edges bounced off a full target partition.
    pub prepartition_overflow: u64,
    /// Edges handled by the scoring pass.
    pub remaining: u64,
    /// Fallback placements via the degree-based hash.
    pub fallback_hash: u64,
    /// Last-resort least-loaded placements.
    pub fallback_least_loaded: u64,
}

impl AssignCounters {
    /// Accumulate another worker's counters.
    pub fn merge(&mut self, other: &AssignCounters) {
        self.prepartitioned += other.prepartitioned;
        self.prepartition_overflow += other.prepartition_overflow;
        self.remaining += other.remaining;
        self.fallback_hash += other.fallback_hash;
        self.fallback_least_loaded += other.fallback_least_loaded;
    }
}

/// The cluster-state seam of phase 2. Its items are `pub` inside a private
/// module: nothing outside the crate can name them, yet
/// [`crate::parallel::ShardAssigner`] may take `ClusterView` storages and
/// default to an owned [`ClusterPlan`].
mod view {
    use tps_clustering::paged::PagedClustering;
    use tps_graph::types::{ClusterId, PartitionId, VertexId};

    use crate::two_phase::plan::ClusterPlan;

    /// The phase-1+2 state phase 2 reads per edge: a vertex's cluster, a
    /// cluster's volume and a cluster's partition. The in-memory
    /// ([`ClusterPlan`], owned or shared by reference) and paged
    /// ([`PagedClustering`]) storages implement it, so the per-edge
    /// decision kernel is storage-agnostic. Accessors take `&mut self`
    /// because the paged view faults pages (and updates its LRU) on reads.
    pub trait ClusterView {
        /// Raw cluster id of `v` (`NO_CLUSTER` when unassigned).
        fn cluster_of(&mut self, v: VertexId) -> ClusterId;
        /// Volume of cluster `c`.
        fn volume(&mut self, c: ClusterId) -> u64;
        /// Partition placement of cluster `c`.
        fn partition_of(&mut self, c: ClusterId) -> PartitionId;
    }

    impl ClusterView for &ClusterPlan {
        #[inline]
        fn cluster_of(&mut self, v: VertexId) -> ClusterId {
            ClusterPlan::cluster_of(self, v)
        }
        #[inline]
        fn volume(&mut self, c: ClusterId) -> u64 {
            ClusterPlan::volume(self, c)
        }
        #[inline]
        fn partition_of(&mut self, c: ClusterId) -> PartitionId {
            ClusterPlan::partition_of(self, c)
        }
    }

    impl ClusterView for ClusterPlan {
        #[inline]
        fn cluster_of(&mut self, v: VertexId) -> ClusterId {
            ClusterPlan::cluster_of(self, v)
        }
        #[inline]
        fn volume(&mut self, c: ClusterId) -> u64 {
            ClusterPlan::volume(self, c)
        }
        #[inline]
        fn partition_of(&mut self, c: ClusterId) -> PartitionId {
            ClusterPlan::partition_of(self, c)
        }
    }

    impl ClusterView for PagedClustering {
        #[inline]
        fn cluster_of(&mut self, v: VertexId) -> ClusterId {
            self.raw_cluster_of(v)
        }
        #[inline]
        fn volume(&mut self, c: ClusterId) -> u64 {
            self.cluster_volume(c)
        }
        #[inline]
        fn partition_of(&mut self, c: ClusterId) -> PartitionId {
            PagedClustering::partition_of(self, c)
        }
    }
}

/// The phase-2 per-edge decision kernel (paper §III-B steps 2 and 3) of
/// one shard, whatever its replication state and cluster-state storage:
/// every shard of every run — one shard flat or paged, in-process shards
/// over a shared atomic matrix, distributed workers over an owned one —
/// executes this *same* decision path, so a one-thread run is the serial
/// run, and a paged run decides like an unpaged one, by construction, not
/// by testing alone.
impl<R: ReplicaSet, C: ClusterView> ShardAssigner<'_, R, C> {
    /// The pre-partitioning pass (phase 2 step 2) over `stream`: chunks in,
    /// decisions out — to a sink batch or the shard's decision log — and
    /// the pass's loads committed to the ledger.
    pub(crate) fn prepartition_into<O: DecisionOut>(
        &mut self,
        stream: &mut dyn EdgeStream,
        out: &mut O,
    ) -> io::Result<()> {
        decision_pass(stream, out, |edge, out| {
            self.prepartition_edge(edge, out);
        })?;
        self.loads.commit_to_ledger();
        Ok(())
    }

    /// The scoring pass (phase 2 step 3) over `stream`, skipping the edges
    /// the pre-partitioning pass handled — every edge with a
    /// pre-partitioning target; an out that recorded that pass says so
    /// itself.
    pub(crate) fn remaining_into<O: DecisionOut>(
        &mut self,
        stream: &mut dyn EdgeStream,
        out: &mut O,
    ) -> io::Result<()> {
        let (skip_prepartitioned, strategy) = (self.config.prepartitioning, self.config.strategy);
        decision_pass(stream, out, |edge, out| {
            let handled = skip_prepartitioned
                && out
                    .decided_earlier()
                    .unwrap_or_else(|| self.prepartition_target(edge).is_some());
            if !handled {
                self.assign_remaining(edge, strategy, out);
            }
        })?;
        self.loads.commit_to_ledger();
        Ok(())
    }

    /// Commit `edge` to `p`: update replication state and loads, and record
    /// the decision.
    #[inline]
    fn commit<O: DecisionOut>(&mut self, edge: Edge, p: PartitionId, out: &mut O) {
        self.v2p.insert(edge.src, p);
        self.v2p.insert(edge.dst, p);
        self.loads.add(p);
        out.decide(edge, p);
    }

    /// The balance-cap fallback chain: degree-based hash of the higher-degree
    /// endpoint, then least-loaded as the last resort (paper §III-B step 3).
    #[inline]
    fn fallback_target(&mut self, edge: Edge) -> PartitionId {
        let (du, dv) = (self.degrees.degree(edge.src), self.degrees.degree(edge.dst));
        // Endpoint degrees are unpredictable; the index select compiles to a
        // conditional move instead of a branch.
        let hv = [edge.src, edge.dst][usize::from(du < dv)];
        let p = seeded_hash_to_partition(hv, self.config.hash_seed, self.loads.k());
        if !self.loads.is_full(p) {
            self.counters.fallback_hash += 1;
            p
        } else {
            self.counters.fallback_least_loaded += 1;
            self.loads.least_loaded()
        }
    }

    /// Whether `edge` satisfies the pre-partitioning condition: endpoints in
    /// the same cluster, or clusters mapped to the same partition.
    /// (`&mut self`: a paged view faults pages on reads.)
    #[inline]
    fn prepartition_target(&mut self, edge: Edge) -> Option<PartitionId> {
        let cu = self.view.cluster_of(edge.src);
        let cv = self.view.cluster_of(edge.dst);
        debug_assert_ne!(cu, NO_CLUSTER, "clustering must cover all stream vertices");
        debug_assert_ne!(cv, NO_CLUSTER, "clustering must cover all stream vertices");
        let pu = self.view.partition_of(cu);
        if cu == cv {
            return Some(pu);
        }
        let pv = self.view.partition_of(cv);
        (pu == pv).then_some(pu)
    }

    /// Phase 2 step 2 for one edge: assign it if it satisfies the
    /// pre-partitioning condition.
    #[inline]
    fn prepartition_edge<O: DecisionOut>(&mut self, edge: Edge, out: &mut O) {
        let Some(target) = self.prepartition_target(edge) else {
            return;
        };
        let target = if self.loads.is_full(target) {
            self.counters.prepartition_overflow += 1;
            self.fallback_target(edge)
        } else {
            self.counters.prepartitioned += 1;
            target
        };
        self.commit(edge, target, out);
    }

    /// Phase 2 step 3 for one edge that was *not* pre-partitioned: score the
    /// candidate partitions and commit the winner (with the fallback chain
    /// when candidates are full).
    fn assign_remaining<O: DecisionOut>(
        &mut self,
        edge: Edge,
        strategy: RemainingStrategy,
        out: &mut O,
    ) {
        self.counters.remaining += 1;
        let cu = self.view.cluster_of(edge.src);
        let cv = self.view.cluster_of(edge.dst);
        let inputs = EdgeScoreInputs {
            u: edge.src,
            v: edge.dst,
            du: self.degrees.degree(edge.src) as u64,
            dv: self.degrees.degree(edge.dst) as u64,
            vol_cu: self.view.volume(cu),
            vol_cv: self.view.volume(cv),
            pu: self.view.partition_of(cu),
            pv: self.view.partition_of(cv),
        };
        let mut target = match strategy {
            RemainingStrategy::TwoChoice => {
                let best = two_choice_best(&inputs, &self.v2p);
                // If the best of the two candidates is full, try the
                // other before the generic fallback chain.
                if !self.loads.is_full(best) {
                    Some(best)
                } else {
                    let other = if best == inputs.pu {
                        inputs.pv
                    } else {
                        inputs.pu
                    };
                    (!self.loads.is_full(other)).then_some(other)
                }
            }
            RemainingStrategy::Hdrf(hdrf) => {
                // O(k): score every non-full partition.
                let (max_load, min_load) = (self.loads.max_load(), self.loads.min_load());
                let mut best: Option<(f64, PartitionId)> = None;
                for p in 0..self.loads.k() {
                    if self.loads.is_full(p) {
                        continue;
                    }
                    let s = hdrf_score(
                        edge.src,
                        edge.dst,
                        inputs.du,
                        inputs.dv,
                        p,
                        &self.v2p,
                        self.loads.load(p),
                        max_load,
                        min_load,
                        &hdrf,
                    );
                    if best.is_none_or(|(bs, _)| s > bs) {
                        best = Some((s, p));
                    }
                }
                best.map(|(_, p)| p)
            }
        };
        if target.is_none() {
            target = Some(self.fallback_target(edge));
        }
        let target = target.expect("fallback always yields a partition");
        // The fallback itself may hand back a full hash target; re-check.
        let target = if self.loads.is_full(target) {
            self.loads.least_loaded()
        } else {
            target
        };
        self.commit(edge, target, out);
    }
}

impl Partitioner for TwoPhasePartitioner {
    fn name(&self) -> String {
        match self.config.strategy {
            RemainingStrategy::TwoChoice => "2PS-L".to_string(),
            RemainingStrategy::Hdrf(_) => "2PS-HDRF".to_string(),
        }
    }

    fn partition(
        &mut self,
        stream: &mut dyn EdgeStream,
        params: &PartitionParams,
        sink: &mut dyn AssignmentSink,
    ) -> io::Result<RunReport> {
        run_shards(
            &self.config,
            Shards::One(stream, self.paging.as_ref()),
            params,
            sink,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::PartitionLoads;
    use crate::sink::{QualitySink, VecSink};
    use tps_graph::datasets::Dataset;
    use tps_graph::gen::gnm;
    use tps_graph::stream::InMemoryGraph;

    fn run(
        graph: &InMemoryGraph,
        config: TwoPhaseConfig,
        k: u32,
    ) -> (tps_metrics::quality::PartitionMetrics, RunReport) {
        let mut p = TwoPhasePartitioner::new(config);
        let params = PartitionParams::new(k);
        let mut sink = QualitySink::new(graph.num_vertices(), k);
        let mut stream = graph.stream();
        let report = p.partition(&mut stream, &params, &mut sink).unwrap();
        (sink.finish(), report)
    }

    #[test]
    fn assigns_every_edge_exactly_once() {
        let g = Dataset::It.generate_scaled(0.02);
        let mut p = TwoPhasePartitioner::new(TwoPhaseConfig::default());
        let mut sink = VecSink::new();
        let mut stream = g.stream();
        p.partition(&mut stream, &PartitionParams::new(8), &mut sink)
            .unwrap();
        let assigned = sink.assignments();
        assert_eq!(assigned.len() as u64, g.num_edges());
        // Multiset equality with the input edge list.
        let mut input: Vec<_> = g.edges().to_vec();
        let mut got: Vec<_> = assigned.iter().map(|(e, _)| *e).collect();
        input.sort();
        got.sort();
        assert_eq!(input, got);
    }

    #[test]
    fn respects_hard_balance_cap() {
        for k in [2u32, 7, 32] {
            let g = Dataset::Ok.generate_scaled(0.02);
            let (m, _) = run(&g, TwoPhaseConfig::default(), k);
            let cap = PartitionLoads::new(k, g.num_edges(), 1.05).cap();
            assert!(
                m.max_load <= cap,
                "k={k}: max load {} exceeds cap {cap}",
                m.max_load
            );
            assert_eq!(m.num_edges, g.num_edges());
        }
    }

    #[test]
    fn prepartition_dominates_on_web_graphs() {
        let g = Dataset::Gsh.generate_scaled(0.02);
        let (_, report) = run(&g, TwoPhaseConfig::default(), 32);
        let pre = report.counter("prepartitioned");
        let rem = report.counter("remaining");
        assert!(
            pre > rem,
            "web graph should be mostly pre-partitioned: pre={pre} rem={rem}"
        );
    }

    #[test]
    fn beats_random_hashing_on_clustered_graph() {
        let g = Dataset::It.generate_scaled(0.05);
        let (m, _) = run(&g, TwoPhaseConfig::default(), 16);
        // Random edge placement would replicate nearly every vertex ~min(d,k)
        // times; on a strongly clustered graph 2PS-L must stay far below that.
        assert!(m.replication_factor < 3.5, "rf = {}", m.replication_factor);
    }

    #[test]
    fn hdrf_variant_not_worse_on_quality() {
        let g = Dataset::Ok.generate_scaled(0.03);
        let (l, _) = run(&g, TwoPhaseConfig::default(), 32);
        let (h, _) = run(&g, TwoPhaseConfig::hdrf_variant(), 32);
        // Paper Fig. 9: 2PS-HDRF improves RF by up to 50 %. Allow slack but
        // insist it is not significantly worse.
        assert!(
            h.replication_factor <= l.replication_factor * 1.10,
            "2PS-HDRF rf {} vs 2PS-L rf {}",
            h.replication_factor,
            l.replication_factor
        );
    }

    #[test]
    fn k_equals_one_puts_everything_in_partition_zero() {
        let g = gnm::generate(50, 200, 3);
        let (m, _) = run(&g, TwoPhaseConfig::default(), 1);
        assert_eq!(m.loads, vec![200]);
        assert!((m.replication_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = InMemoryGraph::from_edges(vec![]);
        let (m, report) = run(&g, TwoPhaseConfig::default(), 4);
        assert_eq!(m.num_edges, 0);
        assert_eq!(report.counter("prepartitioned"), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = Dataset::Uk.generate_scaled(0.01);
        let mut s1 = VecSink::new();
        let mut s2 = VecSink::new();
        let params = PartitionParams::new(16);
        TwoPhasePartitioner::new(TwoPhaseConfig::default())
            .partition(&mut g.stream(), &params, &mut s1)
            .unwrap();
        TwoPhasePartitioner::new(TwoPhaseConfig::default())
            .partition(&mut g.stream(), &params, &mut s2)
            .unwrap();
        assert_eq!(s1.assignments(), s2.assignments());
    }

    #[test]
    fn counters_cover_all_edges() {
        let g = Dataset::Fr.generate_scaled(0.01);
        let (_, report) = run(&g, TwoPhaseConfig::default(), 8);
        // Every edge is either pre-partitioned, bounced out of a full
        // pre-partition target, or handled by the scoring pass.
        assert_eq!(
            report.counter("prepartitioned")
                + report.counter("prepartition_overflow")
                + report.counter("remaining"),
            g.num_edges()
        );
    }

    #[test]
    fn disabled_prepartitioning_still_assigns_all() {
        let g = Dataset::It.generate_scaled(0.01);
        let cfg = TwoPhaseConfig {
            prepartitioning: false,
            ..Default::default()
        };
        let (m, report) = run(&g, cfg, 8);
        assert_eq!(m.num_edges, g.num_edges());
        assert_eq!(report.counter("prepartitioned"), 0);
    }

    #[test]
    fn phase_report_has_expected_phases() {
        let g = Dataset::Ok.generate_scaled(0.01);
        let (_, report) = run(&g, TwoPhaseConfig::default(), 4);
        let names: Vec<&str> = report
            .phases
            .phases()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "degree",
                "clustering",
                "mapping",
                "prepartition",
                "partition"
            ]
        );
    }

    #[test]
    fn restreaming_runs_and_keeps_invariants() {
        let g = Dataset::It.generate_scaled(0.01);
        for passes in [1u32, 2, 4] {
            let (m, _) = run(&g, TwoPhaseConfig::with_passes(passes), 16);
            assert_eq!(m.num_edges, g.num_edges());
        }
    }

    #[test]
    fn unsorted_mapping_ablation_works() {
        let g = Dataset::It.generate_scaled(0.01);
        let cfg = TwoPhaseConfig {
            mapping: MappingStrategy::UnsortedFirstFit,
            ..Default::default()
        };
        let (m, _) = run(&g, cfg, 8);
        assert_eq!(m.num_edges, g.num_edges());
    }

    /// The tentpole invariant end-to-end: a paged run emits the exact same
    /// assignment sequence as the flat run at every budget, including the
    /// fully-external budget of zero. Exercises both scoring strategies and
    /// both mapping strategies so every phase-2 read path is covered.
    #[test]
    fn paged_run_bit_identical_to_unpaged_at_every_budget() {
        use tps_clustering::paged::MemPageStoreProvider;
        let g = gnm::generate(2_000, 10_000, 13);
        let params = PartitionParams::new(16);
        for config in [
            TwoPhaseConfig::with_passes(2),
            TwoPhaseConfig::hdrf_variant(),
            TwoPhaseConfig {
                mapping: MappingStrategy::UnsortedFirstFit,
                ..Default::default()
            },
        ] {
            let mut base = VecSink::new();
            let base_report = TwoPhasePartitioner::new(config)
                .partition(&mut g.stream(), &params, &mut base)
                .unwrap();
            for budget in [0u64, 8 << 10, 1 << 30] {
                let mut sink = VecSink::new();
                let paging = ClusterPaging {
                    budget_bytes: budget,
                    page_size: 1024,
                    provider: Arc::new(MemPageStoreProvider),
                };
                let report = TwoPhasePartitioner::new(config)
                    .with_cluster_paging(paging)
                    .partition(&mut g.stream(), &params, &mut sink)
                    .unwrap();
                assert_eq!(sink.assignments(), base.assignments(), "budget {budget}");
                assert_same_counters(&report, &base_report, &format!("budget {budget}"));
                // 0 and 8 KiB never fit the 2 000-vertex table flat: mapping
                // and phase 2 run paged. 1 GiB fits after pass 1.
                let flat_after = u64::from(budget == 1 << 30);
                assert_eq!(report.counter("paging_flat_after_pass"), flat_after);
                if budget == 0 {
                    assert!(
                        report.counter("paging_evictions") > 0,
                        "budget 0 must evict"
                    );
                }
            }
        }
    }

    /// The cluster and phase-2 counters every run reports alike.
    fn assert_same_counters(report: &RunReport, base: &RunReport, case: &str) {
        for key in [
            "prepartitioned",
            "prepartition_overflow",
            "remaining",
            "fallback_hash",
            "fallback_least_loaded",
            "cap_overshoot",
            "clusters",
            "cluster_ids_dropped",
            "cluster_volume_cap",
            "max_cluster_volume",
        ] {
            assert_eq!(
                report.counter(key),
                base.counter(key),
                "{case}, counter {key}"
            );
        }
    }

    /// A table promotes at the first pass boundary where it fits its share
    /// flat — after pass 1, or only after a later pass once clustering has
    /// merged enough clusters — and decides exactly like the unpaged run.
    /// The flat passes, mapping and phase 2 after promotion take no fault:
    /// the run faults as often as one that stops at the promoting pass.
    #[test]
    fn paged_run_promotes_where_its_table_first_fits_flat() {
        use tps_clustering::paged::MemPageStoreProvider;
        let g = gnm::generate(2_000, 10_000, 13);
        let params = PartitionParams::new(16);
        let unpaged = |passes: u32| {
            let mut sink = VecSink::new();
            let report = TwoPhasePartitioner::new(TwoPhaseConfig::with_passes(passes))
                .partition(&mut g.stream(), &params, &mut sink)
                .unwrap();
            (sink.into_assignments(), report)
        };
        let paged = |passes: u32, budget: u64| {
            let mut sink = VecSink::new();
            let paging = ClusterPaging {
                budget_bytes: budget,
                page_size: 1024,
                provider: Arc::new(MemPageStoreProvider),
            };
            let report = TwoPhasePartitioner::new(TwoPhaseConfig::with_passes(passes))
                .with_cluster_paging(paging)
                .partition(&mut g.stream(), &params, &mut sink)
                .unwrap();
            (sink.into_assignments(), report)
        };
        // The budget a compacted table fits after pass `p`.
        let flat_bytes = |p: u32| 4 * g.num_vertices() + 12 * unpaged(p).1.counter("clusters");
        assert!(flat_bytes(2) < flat_bytes(1), "pass 2 must merge clusters");
        let (base, base_report) = unpaged(3);
        for (budget, after) in [(flat_bytes(1), 1u32), (flat_bytes(2), 2)] {
            let case = format!("budget {budget}");
            let (assignments, report) = paged(3, budget);
            assert_eq!(assignments, base, "{case}");
            assert_same_counters(&report, &base_report, &case);
            assert_eq!(report.counter("paging_flat_after_pass"), after as u64);
            let faults = report.counter("paging_faults");
            assert!(faults > 0, "{case}");
            let (_, stopped) = paged(after, budget);
            assert_eq!(stopped.counter("paging_flat_after_pass"), after as u64);
            assert_eq!(faults, stopped.counter("paging_faults"), "{case}");
        }
    }

    /// `page_size` is a public field: a value the shift/mask addressing
    /// cannot serve is an input error, not a panic and not a mis-addressed
    /// run.
    #[test]
    fn paged_run_rejects_a_non_power_of_two_page_size() {
        use tps_clustering::paged::MemPageStoreProvider;
        let g = gnm::generate(100, 400, 1);
        for page_size in [0usize, 4, 24, 1000, 4096 + 8] {
            let paging = ClusterPaging {
                budget_bytes: 1 << 20,
                page_size,
                provider: Arc::new(MemPageStoreProvider),
            };
            let err = TwoPhasePartitioner::new(TwoPhaseConfig::default())
                .with_cluster_paging(paging)
                .partition(
                    &mut g.stream(),
                    &PartitionParams::new(4),
                    &mut VecSink::new(),
                )
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{page_size}");
            assert!(err.to_string().contains("power of two"), "{err}");
        }
    }

    #[test]
    fn handles_self_loops_and_parallel_edges() {
        let g = InMemoryGraph::from_edges(vec![
            tps_graph::types::Edge::new(0, 0),
            tps_graph::types::Edge::new(0, 1),
            tps_graph::types::Edge::new(0, 1),
            tps_graph::types::Edge::new(1, 2),
        ]);
        let (m, _) = run(&g, TwoPhaseConfig::default(), 2);
        assert_eq!(m.num_edges, 4);
    }
}
