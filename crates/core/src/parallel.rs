//! The one 2PS-L driver — every serial, paged and `--threads N` run — and
//! the per-shard phase kernels it is built from.
//!
//! A run is a set of **shards**. Both phases of 2PS-L are embarrassingly
//! parallel over contiguous edge ranges: phase 1's streaming clustering
//! commutes up to a state merge, and phase 2 scores each edge against
//! per-vertex state that can be sharded per worker. A `--threads T` job
//! ([`crate::job::JobSpec`]) splits the canonical edge order into `T`
//! near-equal ranges ([`tps_graph::ranged::split_even`]) and runs each
//! phase with one worker per range over its own [`EdgeStream`], opened
//! through a [`RangedEdgeSource`] — in-memory graphs, v1 `.bel` files and
//! chunked v2 files (via `tps-io`) all implement it, and because ranges are
//! expressed in *edge indices* the result is identical for every storage
//! backend.
//! **Serial is one shard**: the caller's stream (`TwoPhasePartitioner`) or
//! the whole range (`T = 1`), its barriers no-ops.
//!
//! # Per-shard kernels
//!
//! The phase logic is deliberately **not** owned by the thread pool: the
//! free functions [`shard_degrees`] and [`shard_clustering`] plus the
//! [`ShardAssigner`] state machine run one shard of one phase each, and the
//! driver merely schedules them onto scoped threads (`run_workers`) and
//! merges between barriers. `tps-dist` schedules the *same* kernels onto
//! worker processes connected over a socket, which is how a distributed run
//! can be bit-identical to `--threads N` — both execute this module's code
//! per shard; only the barrier transport differs.
//!
//! The kernels are **restartable**: they keep no state outside their own
//! instances (no globals, no cross-call caches), so re-running a kernel
//! from the source with the same merged inputs reproduces its output bit
//! for bit. `tps-dist`'s fault tolerance leans on this — when a worker
//! dies mid-shard, the coordinator re-issues the shard and the replacement
//! recomputes an identical contribution (pinned by
//! `shard_kernels_are_restartable_mid_job` below).
//!
//! # Execution model
//!
//! 1. **degree** — each shard computes a [`DegreeTable`] over its edges;
//!    several shards' tables are summed. Exact either way.
//! 2. **clustering** — each shard runs `clustering_passes` local streaming
//!    clustering passes over its edges, renumbering its cluster ids to the
//!    live clusters after each pass; several shards' maps are combined
//!    with [`tps_clustering::merge_clusterings`] (union-by-volume, in shard
//!    order — deterministic). One shard pages its table under a
//!    [`ClusterPaging`] budget (paging is one-shard-only) until, at a pass
//!    boundary, the table fits that budget flat: from there on the run is
//!    the in-memory one.
//! 3. **mapping** — Graham scheduling of the clusters, serial (it is
//!    `O(C log C)` on cluster counts, not edge counts).
//! 4. **partition** — each shard runs the shared phase-2 edge kernel
//!    ([`ShardAssigner`]). One shard owns a [`ReplicationMatrix`] and its
//!    decisions go straight to the caller's [`AssignmentSink`] (decision
//!    order is emit order). Several share **one**
//!    [`AtomicReplicationMatrix`] (word-level relaxed `fetch_or`) and
//!    quota-sliced load tracking (below). The pre-partitioning subpass
//!    writes replication state but never reads it (targets depend only on
//!    the merged clustering, placement and quotas), so all workers writing
//!    the same words is race-free by construction; at the barrier the
//!    shared matrix *is* the OR-merge of the old per-worker shards — OR is
//!    commutative, associative and idempotent — with no merge pass and no
//!    copies. Each worker's view is then **frozen**: scoring-subpass
//!    writes stay private to the worker (a dense copy of the packed words
//!    at k ≤ 64, a sparse overlay above — see `# Memory`), so every worker scores
//!    against "merged state ∪ its own scoring replicas" — exactly the
//!    sharded semantics, bit for bit, at `O(|V|·k)` bits total instead of
//!    `O(T·|V|·k)`.
//! 5. **emit** (several shards) — in worker order, each worker's decisions
//!    reach the caller's [`AssignmentSink`]: its pre-partitioning records,
//!    then its scoring records, so downstream files are reproducible.
//!    Worker 0's records come first, so it runs on the calling thread and
//!    writes them as it decides, one [`SinkBatch`] per subpass, like a
//!    one-shard run. Every later worker remembers *decisions*, not edges —
//!    a 2-bit tag per stream position in a [`DecisionLog`], naming 2a's
//!    shared partition or 2b's partition of the source's or the
//!    destination's cluster, plus one entry per other decision (an
//!    escape) — and emit re-reads the worker's own range to pair each tag
//!    with its edge and resolve it through one vertex→partition table
//!    built from the [`ClusterPlan`] for every log ([`EmitPlan`],
//!    [`DecisionLog::emit`]); a source that
//!    retained the range (`tps-io`'s v2 sources, in a spill file) serves
//!    those two scans from the spill. It writes files, or nothing at
//!    all into a `NullSink`: the metrics were taken before it (below).
//!
//! # Who computes the metrics
//!
//! The driver does, from its own state ([`RunReport::quality`]): one shard
//! from the matrix it owns; several once the scoring subpass has
//! **joined** — not before: a sparse view reads the shared words on every
//! `contains`, and no worker may see another's scoring-time replicas —
//! when each worker's private rows or overlay are OR-published
//! into the shared matrix and freed
//! ([`ShardAssigner::publish_replication`]). The shared matrix is then the
//! union of everything any worker committed, i.e. exactly the matrix a
//! `QualitySink` would build from the replayed assignments, and its census
//! is counted in place (no `snapshot()` — that would be the second
//! `O(|V|·k)` copy this avoids); the loads are the [`AtomicLoads`] ledger's.
//!
//! # The load reservation scheme
//!
//! The hard balance cap `α·|E|/k` is enforced without locks and without
//! cross-thread timing dependences: each worker `t` owns the deterministic
//! quota slice `⌊(t+1)·cap/T⌋ − ⌊t·cap/T⌋` of every partition's capacity
//! (slices sum to the cap exactly), treats a partition as *full* when its
//! own slice is exhausted, and counts its commits locally. Every *decision*
//! reads only that worker-local slice ([`ShardLoads`]), so the per-edge
//! path touches no shared cache line. The shared [`AtomicLoads`] ledger
//! only *verifies* the cap and yields the merged per-partition loads, and
//! it is fed once per pass: at the end of
//! [`prepartition_pass`](ShardAssigner::prepartition_pass) and of
//! [`remaining_pass`](ShardAssigner::remaining_pass) a worker commits its
//! `k` per-partition deltas with one relaxed `fetch_add` each. Each commit
//! claims a disjoint interval of the partition's counter, so the units
//! beyond the cap sum to `Σ_p max(0, load_p − cap)` for every interleaving
//! — what one `fetch_add` per edge counted, and what a ledger-free run
//! reconstructs: a distributed worker runs the identical decision path with
//! [`ShardLoads::standalone`] and the coordinator recomputes the overshoot
//! from the merged loads ([`overshoot_from_loads`]).
//!
//! # Determinism and quality bounds
//!
//! * For a **fixed thread count** the run is fully deterministic: ranges,
//!   merges and replay order depend only on the input. Two runs with the
//!   same `--threads` produce identical assignments.
//! * With **one thread** the run *is* the serial run: one shard, the same
//!   driver and kernels, the full cap as its quota, no decision log.
//! * **Across thread counts** assignments differ (workers don't see each
//!   other's clustering migrations or scoring-time replicas), but the
//!   balance cap holds identically, and the replication factor degrades
//!   only through range-straddling state — measured on the R-MAT `OK`
//!   stand-in (400k edges, k = 32): ≈5 % at 2 threads, ≈25 % at 4 and
//!   ≈40 % at 8, shrinking as the graph grows relative to the thread count
//!   (the `parallel_scaling` bench reports `rf_vs_serial`; the `parallel`
//!   integration tests pin per-thread-count epsilons).
//! * **Degenerate tiny inputs**: when `|E|` is not much larger than
//!   `k × T`, a worker's quota slices can all round to zero and it must
//!   overshoot to place its edges. The overshoot is bounded by `k + 1`
//!   edges per worker, never occurs when `⌊cap/T⌋·k ≥ ⌈|E|/T⌉`, and is
//!   surfaced as the `cap_overshoot` counter in the [`RunReport`].
//!
//! # Memory
//!
//! Phase 2 keeps the paper's Table II replication bound at any thread
//! count: **one** shared `O(|V|·k)`-bit [`AtomicReplicationMatrix`] plus
//! each worker's private post-freeze state, whose form follows the row
//! width (see [`tps_metrics::atomic`]): at k ≤ 64 a dense copy of the
//! packed rows — the row bytes, `k.next_power_of_two()/8` B/vertex/worker
//! (4 B at k = 32, about the packed cluster map each worker held
//! through phase 1) — and at k > 64 a sparse overlay proportional to the
//! worker's own scoring-time replicas, never `O(T·|V|·k)`. Both regimes
//! are measured by the `mem_peak` bench and gated in CI
//! ([`ShardAssigner::private_bytes`] reports the term). Every shard reads
//! one shared [`ClusterPlan`]: the merged phase-1 table, whose ids take
//! the bytes |V| needs, narrowed in place at the placement barrier to the
//! bytes the id space needs; the merged degrees are packed the same way. The remaining
//! per-worker state is transient — degree tables and
//! clustering maps during their phases — plus the [`DecisionLog`]s until
//! the emit barrier: 2 bits per edge of workers 1..T−1's ranges plus one
//! entry per escape, in the bytes k − 1 needs, and none for worker 0 — the
//! one `O(|E|)` term of a run (1 B per edge before, and 12 B per edge in
//! the spool before that) — and, while they are emitted, one
//! vertex→partition table in those bytes (|V| entries, the size of the
//! freed private rows at k ≤ 8). `--mem-budget-mb` does not bound it: only a
//! one-shard run and worker 0 have no log to hold.

use std::io;

use tps_clustering::merge::merge_clusterings;
use tps_clustering::model::{ClusterPlan, Clustering, NO_CLUSTER};
use tps_clustering::streaming::{clustering_pass, clustering_pass_on, VolumeCap};
use tps_graph::degree::DegreeTable;
use tps_graph::ranged::{split_even, RangedEdgeSource};
use tps_graph::stream::{discover_info, EdgeStream};
use tps_graph::types::PartitionId;
use tps_metrics::atomic::{AtomicReplicationMatrix, SharedReplicaView};
use tps_metrics::bitmatrix::{ReplicaCensus, ReplicaSet, ReplicationMatrix};
use tps_metrics::quality::PartitionMetrics;

use crate::balance::{try_counters, AtomicLoads, PartitionLoads};
use crate::partitioner::{PartitionParams, RunReport};
use crate::sink::{AssignmentSink, DecisionLog, EmitPlan, SinkBatch, Subpass};
use crate::two_phase::mapping::{schedule_paged, ClusterPlacement};
use crate::two_phase::{
    compact_counted, note_if_thrashing, AssignCounters, ClusterPaging, ClusterView,
    MappingStrategy, TwoPhaseConfig,
};

static CLUSTERING_CLUSTERS: tps_obs::Counter = tps_obs::Counter::new("clustering.clusters");
static CORE_ASSIGN_PREPARTITIONED: tps_obs::Counter =
    tps_obs::Counter::new("core.assign.prepartitioned");
static CORE_ASSIGN_REMAINING: tps_obs::Counter = tps_obs::Counter::new("core.assign.remaining");
static CORE_ASSIGN_FALLBACK: tps_obs::Counter = tps_obs::Counter::new("core.assign.fallback");
static CORE_CAP_OVERSHOOT: tps_obs::Counter = tps_obs::Counter::new("core.cap.overshoot");
static CORE_MEM_DEGREE_BYTES: tps_obs::Counter = tps_obs::Counter::new("core.mem.degree_bytes");
static CORE_MEM_CLUSTER_MAP_BYTES: tps_obs::Counter =
    tps_obs::Counter::new("core.mem.cluster_map_bytes");
static CORE_MEM_V2C_BYTES: tps_obs::Counter = tps_obs::Counter::new("core.mem.v2c_bytes");

/// A shard's view of the per-partition loads: deterministic quota slice
/// locally, optional atomic commit ledger globally (see module docs).
///
/// Decisions (`is_full`, `least_loaded`, scoring reads) depend **only** on
/// the local slice, so a tracker with and without the ledger takes identical
/// decisions — the ledger adds run-time cap verification and overshoot
/// counting for in-process runs, fed once per pass by the [`ShardAssigner`]
/// that owns the tracker (`add` itself touches no atomic).
pub struct ShardLoads<'a> {
    local: Vec<u64>,
    quota: u64,
    ledger: Option<&'a AtomicLoads>,
    /// `local` as of the last ledger commit (unused without a ledger).
    committed: Vec<u64>,
    overshoot: u64,
}

impl<'a> ShardLoads<'a> {
    /// Loads for shard `shard` of `shards`, committing into `ledger`.
    ///
    /// # Panics
    /// Panics where [`try_with_ledger`](ShardLoads::try_with_ledger) errs.
    pub fn with_ledger(ledger: &'a AtomicLoads, shard: usize, shards: usize) -> ShardLoads<'a> {
        Self::try_with_ledger(ledger, shard, shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`with_ledger`](ShardLoads::with_ledger), or `InvalidInput` naming
    /// `k` when the shard's `k` counters cannot be allocated.
    pub fn try_with_ledger(
        ledger: &'a AtomicLoads,
        shard: usize,
        shards: usize,
    ) -> io::Result<ShardLoads<'a>> {
        let mut loads = Self::try_standalone(ledger.k(), ledger.cap(), shard, shards)?;
        loads.committed = try_counters(ledger.k(), "a shard's committed partition loads")?;
        loads.ledger = Some(ledger);
        Ok(loads)
    }

    /// Loads for shard `shard` of `shards` with no shared ledger — the
    /// distributed worker's tracker (`cap` is the full `α·|E|/k` cap; the
    /// quota slice is derived exactly as in [`ShardLoads::with_ledger`]).
    ///
    /// # Panics
    /// Panics where [`try_standalone`](ShardLoads::try_standalone) errs.
    pub fn standalone(k: u32, cap: u64, shard: usize, shards: usize) -> ShardLoads<'static> {
        ShardLoads::try_standalone(k, cap, shard, shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`standalone`](ShardLoads::standalone), or `InvalidInput` naming `k`
    /// when the shard's `k` counters cannot be allocated.
    pub fn try_standalone(
        k: u32,
        cap: u64,
        shard: usize,
        shards: usize,
    ) -> io::Result<ShardLoads<'a>> {
        Ok(ShardLoads {
            local: try_counters(k, "a shard's partition loads")?,
            quota: AtomicLoads::quota_slice(cap, shard, shards),
            ledger: None,
            committed: Vec::new(),
            overshoot: 0,
        })
    }

    /// This shard's quota slice of the cap.
    pub fn quota(&self) -> u64 {
        self.quota
    }

    /// Edges this shard committed per partition.
    pub fn local_loads(&self) -> &[u64] {
        &self.local
    }

    /// Ledger-witnessed cap overshoots as of the last per-pass commit
    /// (always 0 without a ledger; the coordinator of a ledger-free run
    /// recomputes the total from the merged loads instead).
    pub fn overshoot(&self) -> u64 {
        self.overshoot
    }

    /// Publish the edges added since the last commit to the ledger — `k`
    /// `fetch_add`s, called once at the end of each phase-2 pass so the
    /// per-edge path shares no cache line with other workers.
    pub(crate) fn commit_to_ledger(&mut self) {
        let Some(ledger) = self.ledger else { return };
        for (p, (&now, done)) in self.local.iter().zip(&mut self.committed).enumerate() {
            // Only reachable past the cap through the degenerate
            // all-quotas-exhausted fallback; counted and reported, never
            // silent.
            self.overshoot += ledger.commit(p as PartitionId, now - *done);
            *done = now;
        }
    }

    // What the edge kernel decides from: the local slice alone.

    #[inline]
    pub(crate) fn k(&self) -> u32 {
        self.local.len() as u32
    }

    #[inline]
    pub(crate) fn load(&self, p: PartitionId) -> u64 {
        self.local[p as usize]
    }

    #[inline]
    pub(crate) fn is_full(&self, p: PartitionId) -> bool {
        self.local[p as usize] >= self.quota
    }

    #[inline]
    pub(crate) fn add(&mut self, p: PartitionId) {
        self.local[p as usize] += 1;
    }

    /// The least-loaded partition (lowest id wins ties), *regardless of
    /// fullness*: it can only be full when every slice is, which the cap
    /// arithmetic rules out for one shard and makes a counted degenerate
    /// case (`cap_overshoot`) for several.
    pub(crate) fn least_loaded(&self) -> PartitionId {
        let mut best = 0u32;
        let mut best_load = self.local[0];
        for (i, &l) in self.local.iter().enumerate().skip(1) {
            if l < best_load {
                best = i as u32;
                best_load = l;
            }
        }
        best
    }

    pub(crate) fn max_load(&self) -> u64 {
        self.local.iter().copied().max().unwrap_or(0)
    }

    pub(crate) fn min_load(&self) -> u64 {
        self.local.iter().copied().min().unwrap_or(0)
    }
}

/// Phase 0 for one shard: exact degrees over edge range `range`.
pub fn shard_degrees(
    source: &dyn RangedEdgeSource,
    range: (u64, u64),
    num_vertices: u64,
) -> io::Result<DegreeTable> {
    let mut s = source.open_range(range.0, range.1)?;
    DegreeTable::compute(&mut s, num_vertices)
}

/// Sum per-worker degree tables (saturating, matching the serial pass).
pub fn merge_degree_tables(tables: Vec<DegreeTable>) -> DegreeTable {
    let mut it = tables.into_iter();
    let first = it.next().expect("at least one worker");
    let mut sum: Vec<u32> = first.iter().collect();
    for t in it {
        for (acc, d) in sum.iter_mut().zip(t.iter()) {
            *acc = acc.saturating_add(d);
        }
    }
    DegreeTable::from_vec(sum)
}

/// The resolved cluster volume cap for this configuration (identical on
/// every shard runner given the merged degrees).
pub fn resolve_volume_cap(config: &TwoPhaseConfig, k: u32, degrees: &DegreeTable) -> u64 {
    VolumeCap::FractionOfTotal(config.volume_cap_factor / k as f64).resolve(degrees.total_volume())
}

/// Phase 1 for one shard: `config.clustering_passes` local streaming
/// clustering passes over edge range `range`, against the **merged** exact
/// degrees.
///
/// `compact_ids` drops since-emptied cluster ids at every pass boundary,
/// as a one-shard run does: it shrinks the local state, the distributed
/// `LocalClustering` frame and the merge's concatenated id space, and the
/// output is identical either way because compaction preserves the order
/// of surviving ids. Every caller in the engine passes `true`; the
/// parameter stays because the cost ledger's hand-driven pipeline calls
/// this function with its seven arguments.
pub fn shard_clustering(
    source: &dyn RangedEdgeSource,
    range: (u64, u64),
    config: &TwoPhaseConfig,
    degrees: &DegreeTable,
    volume_cap: u64,
    num_vertices: u64,
    compact_ids: bool,
) -> io::Result<Clustering> {
    let mut s = source.open_range(range.0, range.1)?;
    let mut c = Clustering::empty(num_vertices);
    for _ in 0..config.clustering_passes {
        clustering_pass(&mut s, degrees, volume_cap, &mut c)?;
        if compact_ids {
            compact_counted(&mut c);
        }
    }
    Ok(c)
}

/// Phase 2 step 1: the cluster→partition placement for `config` (serial,
/// edge-free — runs once, on whichever node holds the merged clustering).
///
/// # Panics
/// Panics where [`try_cluster_placement`] errs.
pub fn cluster_placement(
    config: &TwoPhaseConfig,
    clustering: &Clustering,
    k: u32,
) -> ClusterPlacement {
    try_cluster_placement(config, clustering, k).unwrap_or_else(|e| panic!("{e}"))
}

/// [`cluster_placement`], or `InvalidInput` naming `k` when the placement's
/// `k` volume sums cannot be allocated.
pub fn try_cluster_placement(
    config: &TwoPhaseConfig,
    clustering: &Clustering,
    k: u32,
) -> io::Result<ClusterPlacement> {
    let sorted = config.mapping == MappingStrategy::SortedGraham;
    ClusterPlacement::try_schedule(clustering, k, sorted)
}

/// Phase 2 for one shard: the pre-partitioning and scoring subpasses with
/// quota-sliced loads, generic over the replication state and the cluster
/// storage (the per-edge kernel lives in [`crate::two_phase`]).
///
/// Each subpass comes in two forms: `*_pass` hands its decisions to a sink
/// as whole records, as a one-shard run and the first of several shards
/// do; `*_logged` writes one 2-bit tag per position into the shard's
/// [`DecisionLog`], which the in-process driver and `tps-dist`'s workers
/// then emit with [`DecisionLog::emit`].
///
/// The assigner survives the replication barrier between the two subpasses.
/// With an owned [`ReplicationMatrix`] (the default — one-shard runs and
/// `tps-dist`'s workers): run [`prepartition_pass`](ShardAssigner::prepartition_pass),
/// exchange [`replication_shard`](ShardAssigner::replication_shard) /
/// [`install_replication`](ShardAssigner::install_replication) (or the
/// chunked [`install_replication_range`](ShardAssigner::install_replication_range))
/// with any other shards, then run
/// [`remaining_pass`](ShardAssigner::remaining_pass). With a
/// [`SharedReplicaView`] (in-process shards): the barrier is just
/// [`freeze_replication`](ShardAssigner::freeze_replication) — the shared
/// matrix already holds the union of every worker's pre-partition writes.
/// Each pass ends by committing the shard's load deltas to the ledger, if
/// its [`ShardLoads`] has one.
pub struct ShardAssigner<'a, R: ReplicaSet = ReplicationMatrix, C: ClusterView = ClusterPlan> {
    pub(crate) config: TwoPhaseConfig,
    pub(crate) degrees: &'a DegreeTable,
    pub(crate) view: C,
    pub(crate) v2p: R,
    pub(crate) loads: ShardLoads<'a>,
    pub(crate) counters: AssignCounters,
}

impl<'a, R: ReplicaSet> ShardAssigner<'a, R> {
    /// An assigner over the merged phase-1 state for one shard, reading its
    /// own [`ClusterPlan`]: a frozen copy of `clustering` placed by
    /// `placement`, for a caller that keeps both.
    pub fn new(
        config: TwoPhaseConfig,
        degrees: &'a DegreeTable,
        clustering: &'a Clustering,
        placement: &'a ClusterPlacement,
        replicas: R,
        loads: ShardLoads<'a>,
    ) -> Self {
        let plan = clustering.clone().freeze(placement.c2p().to_vec());
        ShardAssigner::from_plan(config, degrees, plan, replicas, loads)
    }

    /// The frozen clustering this shard reads: what its [`DecisionLog`]
    /// is emitted against.
    pub fn plan(&self) -> &ClusterPlan {
        &self.view
    }

    /// An assigner over `plan`, the frozen clustering (a distributed
    /// worker's).
    pub fn from_plan(
        config: TwoPhaseConfig,
        degrees: &'a DegreeTable,
        plan: ClusterPlan,
        replicas: R,
        loads: ShardLoads<'a>,
    ) -> Self {
        ShardAssigner::with_view(config, degrees, plan, replicas, loads)
    }
}

impl<'a, R: ReplicaSet, C: ClusterView> ShardAssigner<'a, R, C> {
    /// An assigner reading its cluster state through `view`.
    pub(crate) fn with_view(
        config: TwoPhaseConfig,
        degrees: &'a DegreeTable,
        view: C,
        replicas: R,
        loads: ShardLoads<'a>,
    ) -> Self {
        ShardAssigner {
            config,
            degrees,
            view,
            v2p: replicas,
            loads,
            counters: AssignCounters::default(),
        }
    }

    /// The pre-partitioning subpass over this shard's edges, its decisions
    /// going to `sink` as whole records.
    pub fn prepartition_pass(
        &mut self,
        stream: &mut dyn EdgeStream,
        sink: &mut dyn AssignmentSink,
    ) -> io::Result<()> {
        self.prepartition_into(stream, &mut SinkBatch::new(sink))
    }

    /// The scoring subpass over this shard's edges (skipping edges the
    /// pre-partitioning subpass already handled), its decisions going to
    /// `sink` as whole records.
    pub fn remaining_pass(
        &mut self,
        stream: &mut dyn EdgeStream,
        sink: &mut dyn AssignmentSink,
    ) -> io::Result<()> {
        self.remaining_into(stream, &mut SinkBatch::new(sink))
    }

    /// [`prepartition_pass`](ShardAssigner::prepartition_pass), one tag per
    /// stream position into `log`.
    pub fn prepartition_logged(
        &mut self,
        stream: &mut dyn EdgeStream,
        log: &mut DecisionLog,
    ) -> io::Result<()> {
        let mut pass = log.pass(Subpass::Prepartition);
        self.prepartition_into(stream, &mut pass)?;
        pass.finish()
    }

    /// [`remaining_pass`](ShardAssigner::remaining_pass) into `log`, which
    /// tells the pass which positions pass 2a decided.
    pub fn remaining_logged(
        &mut self,
        stream: &mut dyn EdgeStream,
        log: &mut DecisionLog,
    ) -> io::Result<()> {
        let mut pass = log.pass(Subpass::Remaining);
        self.remaining_into(stream, &mut pass)?;
        pass.finish()
    }

    /// This shard's phase-2 counters.
    pub fn counters(&self) -> AssignCounters {
        self.counters
    }

    /// Edges this shard committed per partition.
    pub fn local_loads(&self) -> &[u64] {
        self.loads.local_loads()
    }

    /// Ledger-witnessed cap overshoots (see [`ShardLoads::overshoot`]).
    pub fn overshoot(&self) -> u64 {
        self.loads.overshoot()
    }

    /// The cluster view, the replicas, loads and degree borrow freed: what
    /// a distributed worker keeps to emit its log once its replica rows
    /// have been counted.
    pub fn into_view(self) -> C {
        self.view
    }
}

impl<C: ClusterView> ShardAssigner<'_, ReplicationMatrix, C> {
    /// The replicas this shard's assignments created so far (what crosses
    /// the prepartition/scoring barrier in a distributed run).
    pub fn replication_shard(&self) -> &ReplicationMatrix {
        &self.v2p
    }

    /// Replace this shard's replica view with the OR-merged global matrix.
    pub fn install_replication(&mut self, merged: ReplicationMatrix) {
        self.v2p = merged;
    }

    /// Replace the packed words of the vertex range starting at `v0` with
    /// the merged words of one replication chunk (`tps-dist` protocol v3:
    /// the barrier arrives as bounded vertex-range frames rather than one
    /// whole-matrix message).
    pub fn install_replication_range(&mut self, v0: u64, words: &[u64]) -> Result<(), String> {
        self.v2p.install_range_words(v0, words)
    }
}

impl<'a, C: ClusterView> ShardAssigner<'a, SharedReplicaView<'a>, C> {
    /// The in-process replication barrier: stop writing through to the
    /// shared matrix (it now holds the union of every worker's
    /// pre-partition replicas) and keep scoring-subpass writes private to
    /// this worker. Must be called after *all* workers'
    /// pre-partition passes have joined.
    pub fn freeze_replication(&mut self) {
        self.v2p.freeze();
    }

    /// After the scoring subpass of *every* worker has joined: OR this
    /// worker's private scoring-time replicas into the shared matrix and
    /// free them (see [`SharedReplicaView::publish`]). Consumes the
    /// assigner — there is no pass left to run.
    pub fn publish_replication(self) {
        self.v2p.publish();
    }

    /// Heap bytes of this worker's private post-freeze replica state
    /// (memory accounting; see [`SharedReplicaView::private_bytes`]).
    pub fn private_bytes(&self) -> usize {
        self.v2p.private_bytes()
    }
}

/// A run of `threads` shards over `source`: `threads` near-equal edge
/// ranges, or — at one thread — the whole range as one stream, its cluster
/// state paged under `paging` when given (several shards do not page).
pub(crate) fn partition_ranged(
    config: &TwoPhaseConfig,
    threads: usize,
    paging: Option<&ClusterPaging>,
    source: &dyn RangedEdgeSource,
    params: &PartitionParams,
    sink: &mut dyn AssignmentSink,
) -> io::Result<RunReport> {
    let num_edges = source.info().num_edges;
    if threads > 1 {
        let ranges = split_even(num_edges, threads);
        return run_shards(config, Shards::Ranged(source, ranges), params, sink);
    }
    let mut stream = source.open_range(0, num_edges)?;
    run_shards(config, Shards::One(&mut *stream, paging), params, sink)
}

/// The shards of one run.
pub(crate) enum Shards<'s> {
    /// One shard: a stream, reset before every pass, and the paging policy
    /// of its cluster state, if any.
    One(&'s mut dyn EdgeStream, Option<&'s ClusterPaging>),
    /// One shard per edge range of a source — at least two — each phase on
    /// one scoped thread per range, over a freshly opened range stream.
    Ranged(&'s dyn RangedEdgeSource, Vec<(u64, u64)>),
}

/// The 2PS-L driver: every run — serial, paged, `--threads N` — is this
/// function over one shard or several (module docs, "Execution model").
pub(crate) fn run_shards(
    config: &TwoPhaseConfig,
    mut shards: Shards<'_>,
    params: &PartitionParams,
    sink: &mut dyn AssignmentSink,
) -> io::Result<RunReport> {
    config.check()?;
    let info = match &mut shards {
        Shards::One(stream, _) => discover_info(&mut **stream)?,
        Shards::Ranged(source, _) => source.info(),
    };
    if info.num_edges == 0 {
        // No phases, no counters, and the metrics of `k` empty partitions.
        let zeros = vec![0; params.k as usize];
        let quality = PartitionMetrics::from_state(params.k, ReplicaCensus::default(), &zeros);
        return Ok(RunReport {
            quality: Some(quality),
            ..RunReport::default()
        });
    }
    let (nv, k) = (info.num_vertices, params.k);
    let mut report = RunReport::default();
    let ledger = AtomicLoads::try_new(k, info.num_edges, params.alpha)?;

    // A one-shard run that does not page allocates its phase-1 table now,
    // before the degree pass. The table is zeroed, so its pages cost
    // nothing until phase 1 assigns a vertex; and glibc maps an allocation
    // this large on its own while the run has freed none larger, so the
    // narrowing at the placement barrier gives the freed tail back to the
    // OS instead of leaving a hole in the heap that the replica rows, which
    // come next, cannot use (0.5 MB of `web_serial`'s phase-2 peak).
    let mut flat = matches!(shards, Shards::One(_, None)).then(|| Clustering::empty(nv));

    // Phase 0: exact degrees of each shard's edges, summed.
    let s0 = tps_obs::span("degree");
    let degrees = match &mut shards {
        Shards::One(stream, _) => DegreeTable::compute(&mut **stream, nv)?,
        Shards::Ranged(source, ranges) => {
            let source = *source;
            merge_degree_tables(run_workers(ranges, |range| {
                shard_degrees(source, range, nv)
            })?)
        }
    };
    report.phases.record("degree", s0.end());
    CORE_MEM_DEGREE_BYTES.add(degrees.heap_bytes() as u64);

    // Phase 1: streaming clustering — into the one shard's own table, or
    // per range and merged by volume.
    let s1 = tps_obs::span("clustering");
    let cap = resolve_volume_cap(config, k, &degrees);
    // A paged run's policy, paged-pass statistics and the pass after which
    // its table went flat.
    let mut promoted = None;
    let clustering = match &mut shards {
        Shards::One(stream, paging) => {
            let (mut clustering, paged_passes) = match *paging {
                None => (flat.take().expect("allocated before the degree pass"), 0),
                Some(paging) => {
                    // A paged run: the same passes against a
                    // `PagedClustering`, until it fits its share flat.
                    let mut table = paging.open_table(nv)?;
                    let mut passes = 0;
                    let fits = loop {
                        let span = tps_obs::span("clustering.pass");
                        clustering_pass_on(&mut **stream, &degrees, cap, &mut table)?;
                        table.compact_ids();
                        table.check_io()?;
                        span.end();
                        passes += 1;
                        if passes == 1 {
                            note_if_thrashing(table.stats().faults, info.num_edges);
                        }
                        let fits = paging.fits_flat(nv, table.num_cluster_ids());
                        if fits || passes == config.clustering_passes {
                            break fits;
                        }
                    };
                    if !fits {
                        report.phases.record("clustering", s1.end());
                        let s2 = tps_obs::span("mapping");
                        let sorted = config.mapping == MappingStrategy::SortedGraham;
                        let (clusters, max_volume) = schedule_paged(&mut table, k, sorted)?;
                        report.phases.record("mapping", s2.end());
                        let replicas = one_shard_matrix(nv, k)?;
                        let loads = ShardLoads::try_with_ledger(&ledger, 0, 1)?;
                        let mut shard =
                            ShardAssigner::with_view(*config, &degrees, table, replicas, loads);
                        one_shard_phase2(&mut shard, &mut **stream, sink, &mut report)?;
                        shard.view.check_io()?;
                        let stats = shard.view.stats();
                        let census = ClusterCensus {
                            clusters,
                            max_volume,
                            ids_dropped: stats.ids_dropped,
                        };
                        census.record(&mut report, cap);
                        paging.record(&mut report, stats, 0);
                        return Ok(report);
                    }
                    promoted = Some((paging, table.stats(), passes));
                    (table.into_clustering()?, passes)
                }
            };
            for _ in paged_passes..config.clustering_passes {
                let span = tps_obs::span("clustering.pass");
                clustering_pass_on(&mut **stream, &degrees, cap, &mut clustering)?;
                compact_counted(&mut clustering);
                span.end();
            }
            clustering
        }
        Shards::Ranged(source, ranges) => {
            let source = *source;
            let locals = run_workers(ranges, |range| {
                shard_clustering(source, range, config, &degrees, cap, nv, true)
            })?;
            merge_clusterings(&locals, &degrees)
        }
    };
    report.phases.record("clustering", s1.end());

    // Phase 2 step 1: cluster→partition mapping (serial, edge-free); the
    // phase-1 table, frozen in place, is the plan every shard reads.
    let census = ClusterCensus::of(&clustering);
    CORE_MEM_V2C_BYTES.add(clustering.v2c_bytes() as u64);
    let s2 = tps_obs::span("mapping");
    let placement = try_cluster_placement(config, &clustering, k)?;
    let plan = clustering.freeze(placement.into_c2p());
    report.phases.record("mapping", s2.end());
    CORE_MEM_CLUSTER_MAP_BYTES.add(plan.cluster_map_bytes() as u64);

    // Phase 2 steps 2 and 3.
    match &mut shards {
        Shards::One(stream, _) => {
            let replicas = one_shard_matrix(nv, k)?;
            let loads = ShardLoads::try_with_ledger(&ledger, 0, 1)?;
            let mut shard = ShardAssigner::with_view(*config, &degrees, &plan, replicas, loads);
            one_shard_phase2(&mut shard, &mut **stream, sink, &mut report)?;
        }
        Shards::Ranged(source, ranges) => {
            let replicas = AtomicReplicationMatrix::new(nv, k);
            let assigners = (0..ranges.len())
                .map(|t| {
                    let view = SharedReplicaView::new(&replicas);
                    let loads = ShardLoads::try_with_ledger(&ledger, t, ranges.len())?;
                    Ok(ShardAssigner::with_view(
                        *config, &degrees, &plan, view, loads,
                    ))
                })
                .collect::<io::Result<_>>()?;
            sharded_phase2(
                assigners,
                *source,
                ranges,
                &replicas,
                &ledger,
                sink,
                &mut report,
            )?;
        }
    }
    census.record(&mut report, cap);
    if let Some((paging, stats, flat_after_pass)) = promoted {
        paging.record(&mut report, stats, flat_after_pass);
    }
    Ok(report)
}

/// The replica matrix a one-shard run owns, or `InvalidInput` naming it
/// when it cannot be allocated.
fn one_shard_matrix(nv: u64, k: u32) -> io::Result<ReplicationMatrix> {
    ReplicationMatrix::try_new(nv, k).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))
}

/// Phase 2 steps 2 and 3 of a one-shard run: both subpasses straight into
/// `sink` through one [`SinkBatch`] — with one shard, decision order is
/// emit order — and the quality read off the matrix and loads the shard
/// owns.
fn one_shard_phase2<C: ClusterView>(
    shard: &mut ShardAssigner<'_, ReplicationMatrix, C>,
    stream: &mut dyn EdgeStream,
    sink: &mut dyn AssignmentSink,
    report: &mut RunReport,
) -> io::Result<()> {
    report.count("threads", 1);
    let mut out = SinkBatch::new(sink);
    if shard.config.prepartitioning {
        let s3 = tps_obs::span("prepartition");
        shard.prepartition_into(stream, &mut out)?;
        report.phases.record("prepartition", s3.end());
    }
    let s4 = tps_obs::span("partition");
    shard.remaining_into(stream, &mut out)?;
    report.phases.record("partition", s4.end());

    record_phase2_counters(report, &shard.counters(), shard.overshoot());
    report.quality = Some(PartitionMetrics::from_state(
        shard.v2p.k(),
        shard.v2p.census(),
        shard.local_loads(),
    ));
    Ok(())
}

/// Phase 2 steps 2 and 3 of a run over several shards — the `ranges` of
/// `source`, one assigner each over one plan and the shared `replicas`: both
/// subpasses with the freeze barrier between them, the quality counted in
/// place once every worker has published, then the emit step.
///
/// Shard 0 runs on the calling thread and writes its decisions straight
/// into `sink`, one [`SinkBatch`] per subpass, as a one-shard run does: its
/// 2a records and then its 2b records come first in every partition file
/// anyway. Every other shard logs its decisions and emits them afterwards,
/// in shard order.
fn sharded_phase2(
    assigners: Vec<ShardAssigner<'_, SharedReplicaView<'_>, &ClusterPlan>>,
    source: &dyn RangedEdgeSource,
    ranges: &[(u64, u64)],
    replicas: &AtomicReplicationMatrix,
    ledger: &AtomicLoads,
    sink: &mut dyn AssignmentSink,
    report: &mut RunReport,
) -> io::Result<()> {
    let prepartitioning = assigners[0].config.prepartitioning;
    let mut assigners = assigners.into_iter();
    let mut first = assigners.next().expect("several shards");
    let plan = first.view;
    let (range0, logged) = (ranges[0], &ranges[1..]);
    let open = |(a, b): (u64, u64)| source.open_range(a, b);

    // Phase 2 step 2: the pre-partitioning subpass per range. Targets
    // depend only on the (merged) clustering, placement and load quotas
    // — not on replica state — so every worker writing its replicas
    // into the one shared atomic matrix (relaxed fetch_or, no reads)
    // is deterministic, and the matrix at the barrier equals the
    // OR-merge of the old per-worker shards for any interleaving.
    let s3 = tps_obs::span("prepartition");
    let ((), mut states) = beside_workers(
        || {
            if prepartitioning {
                first.prepartition_pass(&mut *open(range0)?, sink)?;
            }
            Ok(())
        },
        logged,
        assigners.collect(),
        |(a, b), mut assigner| {
            let mut log = DecisionLog::new(b - a, ledger.k())?;
            if prepartitioning {
                assigner.prepartition_logged(&mut *open((a, b))?, &mut log)?;
            }
            Ok((assigner, log))
        },
    )?;
    report.phases.record("prepartition", s3.end());

    // Barrier: freeze every worker's view. No merge — the shared
    // matrix already holds the union; scoring-subpass writes stay
    // private to each worker, so it sees exactly "merged ∪ its own
    // scoring replicas" (the sharded-path semantics, at the serial
    // memory bound in bits).
    first.freeze_replication();
    for (assigner, _) in &mut states {
        assigner.freeze_replication();
    }

    // Phase 2 step 3: score-and-assign the remaining edges per range.
    let s4 = tps_obs::span("partition");
    let ((), states) = beside_workers(
        || first.remaining_pass(&mut *open(range0)?, sink),
        logged,
        states,
        |range, (mut assigner, mut log)| {
            assigner.remaining_logged(&mut *open(range)?, &mut log)?;
            Ok((assigner, log))
        },
    )?;
    report.phases.record("partition", s4.end());

    // Every scoring pass has joined, so no view reads the shared words
    // any more: publish each worker's private scoring-time replicas
    // into them. The shared matrix then holds the run's final replica
    // set and the ledger its loads — the state the quality metrics are
    // counted from, in place (see `# Who computes the metrics`).
    let mut counters = first.counters();
    let mut overshoot = first.overshoot();
    first.publish_replication();
    let mut logs = Vec::with_capacity(states.len());
    for (assigner, log) in states {
        counters.merge(&assigner.counters());
        overshoot += assigner.overshoot();
        assigner.publish_replication();
        logs.push(log);
    }
    debug_assert_eq!(ledger.total(), source.info().num_edges);
    report.quality = Some(PartitionMetrics::from_state(
        ledger.k(),
        replicas.census(),
        &ledger.snapshot(),
    ));

    // Emit: the logged workers' decisions, in worker order.
    let s5 = tps_obs::span("emit");
    let plan = EmitPlan::new(plan, ledger.k());
    for (log, &range) in logs.into_iter().zip(logged) {
        log.emit(&mut *open(range)?, &plan, sink)?;
    }
    report.phases.record("emit", s5.end());
    report.count("threads", ranges.len() as u64);
    record_phase2_counters(report, &counters, overshoot);
    Ok(())
}

/// Append the shared phase-2 counter block to `report` and count it in the
/// process's trace counters (one spelling for every driver and the
/// distributed coordinator).
pub fn record_phase2_counters(report: &mut RunReport, counters: &AssignCounters, overshoot: u64) {
    report.count("prepartitioned", counters.prepartitioned);
    report.count("prepartition_overflow", counters.prepartition_overflow);
    report.count("remaining", counters.remaining);
    report.count("fallback_hash", counters.fallback_hash);
    report.count("fallback_least_loaded", counters.fallback_least_loaded);
    report.count("cap_overshoot", overshoot);
    CORE_ASSIGN_PREPARTITIONED.add(counters.prepartitioned);
    CORE_ASSIGN_REMAINING.add(counters.remaining);
    CORE_ASSIGN_FALLBACK.add(counters.fallback_hash + counters.fallback_least_loaded);
    CORE_CAP_OVERSHOOT.add(overshoot);
}

/// What the clustering counter block reports of a finished clustering —
/// taken before the driver freezes it into its [`ClusterPlan`] (or the
/// distributed coordinator moves it into its `Plan` frame), or read off a
/// paged run's table — and appended once phase 2 has run (one spelling for
/// every driver and the distributed coordinator).
pub struct ClusterCensus {
    clusters: u64,
    max_volume: u64,
    ids_dropped: u64,
}

impl ClusterCensus {
    /// Every vertex phase 1 clustered founded one cluster id, and every id
    /// but the live clusters' was dropped again.
    pub fn of(clustering: &Clustering) -> ClusterCensus {
        let clusters = clustering.num_nonempty_clusters() as u64;
        let clustered = (0..clustering.num_vertices())
            .filter(|&v| clustering.raw_cluster_of(v as u32) != NO_CLUSTER)
            .count() as u64;
        ClusterCensus {
            clusters,
            max_volume: clustering.max_volume(),
            ids_dropped: clustered - clusters,
        }
    }

    /// Append the clustering counter block to `report`.
    pub fn record(&self, report: &mut RunReport, cap: u64) {
        report.count("clusters", self.clusters);
        report.count("cluster_ids_dropped", self.ids_dropped);
        report.count("cluster_volume_cap", cap);
        report.count("max_cluster_volume", self.max_volume);
        CLUSTERING_CLUSTERS.add(self.clusters);
    }
}

/// The cap-overshoot total a ledger-free (distributed) run reconstructs
/// from the merged per-partition loads: `Σ_p max(0, load_p − cap)`. For any
/// interleaving this equals the sum of the in-process ledger's per-worker
/// overshoot counts, because each commit claims a disjoint interval of
/// exactly one counter.
pub fn overshoot_from_loads(loads: &[u64], k: u32, num_edges: u64, alpha: f64) -> u64 {
    let cap = PartitionLoads::cap_for(k, num_edges, alpha);
    loads.iter().map(|&l| l.saturating_sub(cap)).sum()
}

/// Run `work(range)` for every range — the first on the calling thread, the
/// others on one scoped thread each — collecting results in range order and
/// propagating the first error.
pub(crate) fn run_workers<T, F>(ranges: &[(u64, u64)], work: F) -> io::Result<Vec<T>>
where
    T: Send,
    F: Fn((u64, u64)) -> io::Result<T> + Sync,
{
    let (t0, rest) = beside_workers(
        || work(ranges[0]),
        &ranges[1..],
        vec![(); ranges.len() - 1],
        |range, ()| work(range),
    )?;
    Ok(std::iter::once(t0).chain(rest).collect())
}

/// Run `first` — shard 0 — on the calling thread while `work(range, state)`
/// runs for each of `ranges` — the other shards — on a scoped thread of its
/// own, moving one element of `state` into each (resuming per-worker state
/// across a barrier). Results come in range order; shard 0's error wins,
/// then the first other shard's. With no other ranges no thread starts.
fn beside_workers<T0, W, T, F>(
    first: impl FnOnce() -> io::Result<T0>,
    ranges: &[(u64, u64)],
    state: Vec<W>,
    work: F,
) -> io::Result<(T0, Vec<T>)>
where
    W: Send,
    T: Send,
    F: Fn((u64, u64), W) -> io::Result<T> + Sync,
{
    debug_assert_eq!(ranges.len(), state.len());
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .zip(state)
            .map(|(&range, w)| {
                scope.spawn(move || {
                    let out = work(range, w);
                    // Barrier drain: events a kernel recorded on this
                    // thread must survive the thread's exit.
                    tps_obs::drain_local();
                    out
                })
            })
            .collect();
        let t0 = first();
        let rest: io::Result<Vec<T>> = handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect();
        Ok((t0?, rest?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, ThreadMode};
    use crate::partitioner::Partitioner;
    use crate::runner::RunOutcome;
    use crate::sink::{QualitySink, VecSink};
    use crate::two_phase::TwoPhasePartitioner;
    use tps_graph::datasets::Dataset;
    use tps_graph::stream::InMemoryGraph;
    use tps_graph::types::Edge;

    fn serial_assignments(g: &InMemoryGraph, k: u32) -> Vec<(Edge, PartitionId)> {
        let mut sink = VecSink::new();
        TwoPhasePartitioner::new(TwoPhaseConfig::default())
            .partition(&mut g.stream(), &PartitionParams::new(k), &mut sink)
            .unwrap();
        sink.into_assignments()
    }

    /// A `--threads` run of `config` on `g` into `sink`.
    fn run_threads(
        g: &InMemoryGraph,
        config: TwoPhaseConfig,
        k: u32,
        threads: usize,
        sink: &mut dyn AssignmentSink,
    ) -> RunOutcome {
        JobSpec::ranged(g)
            .two_phase(config)
            .params(&PartitionParams::new(k))
            .threads(ThreadMode::Count(threads))
            .extra_sink(sink)
            .run()
            .unwrap()
    }

    fn parallel_assignments(
        g: &InMemoryGraph,
        k: u32,
        threads: usize,
    ) -> (Vec<(Edge, PartitionId)>, RunReport) {
        let mut sink = VecSink::new();
        let out = run_threads(g, TwoPhaseConfig::default(), k, threads, &mut sink);
        (sink.into_assignments(), out.report)
    }

    #[test]
    fn one_thread_is_bit_identical_to_serial() {
        let g = Dataset::It.generate_scaled(0.02);
        let serial = serial_assignments(&g, 8);
        let (parallel, report) = parallel_assignments(&g, 8, 1);
        assert_eq!(serial, parallel);
        assert_eq!(report.counter("cap_overshoot"), 0);
    }

    #[test]
    fn every_edge_assigned_exactly_once_at_any_thread_count() {
        let g = Dataset::Ok.generate_scaled(0.02);
        let mut want: Vec<Edge> = g.edges().to_vec();
        want.sort();
        for threads in [1usize, 2, 3, 4, 8] {
            let (assignments, _) = parallel_assignments(&g, 16, threads);
            let mut got: Vec<Edge> = assignments.iter().map(|&(e, _)| e).collect();
            got.sort();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn deterministic_for_fixed_thread_count() {
        let g = Dataset::Uk.generate_scaled(0.01);
        for threads in [2usize, 4] {
            let (a, _) = parallel_assignments(&g, 16, threads);
            let (b, _) = parallel_assignments(&g, 16, threads);
            assert_eq!(a, b, "threads = {threads}");
        }
    }

    #[test]
    fn balance_cap_holds_on_real_graphs() {
        let g = Dataset::Ok.generate_scaled(0.02);
        for threads in [2usize, 4, 8] {
            let mut sink = QualitySink::new(g.num_vertices(), 16);
            let out = run_threads(&g, TwoPhaseConfig::default(), 16, threads, &mut sink);
            let cap = crate::balance::PartitionLoads::new(16, g.num_edges(), 1.05).cap();
            let m = sink.finish();
            assert_eq!(out.report.counter("cap_overshoot"), 0);
            assert!(
                m.max_load <= cap,
                "threads {threads}: max load {} > cap {cap}",
                m.max_load
            );
            assert_eq!(m.num_edges, g.num_edges());
        }
    }

    #[test]
    fn empty_source_is_a_noop() {
        let g = InMemoryGraph::from_edges(vec![]);
        let (assignments, report) = parallel_assignments(&g, 4, 4);
        assert!(assignments.is_empty());
        assert_eq!(report.counter("threads"), 0);
    }

    #[test]
    fn more_threads_than_edges_still_assigns_all() {
        let g = InMemoryGraph::from_edges(vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)]);
        let (assignments, _) = parallel_assignments(&g, 2, 8);
        assert_eq!(assignments.len(), 3);
    }

    #[test]
    fn zero_threads_selects_available_parallelism() {
        let g = Dataset::Ok.generate_scaled(0.01);
        let spec = || JobSpec::ranged(&g).threads(ThreadMode::Count(0));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(
            spec().plan(),
            crate::job::ExecPlan::Parallel { threads: cores }
        );
        assert_eq!(spec().run().unwrap().name, format!("2PS-L×{cores}"));
    }

    #[test]
    fn hdrf_variant_runs_parallel() {
        let g = Dataset::Ok.generate_scaled(0.01);
        let mut sink = VecSink::new();
        let out = run_threads(&g, TwoPhaseConfig::hdrf_variant(), 8, 4, &mut sink);
        assert_eq!(sink.assignments().len() as u64, g.num_edges());
        assert_eq!(out.name, "2PS-HDRF×4");
    }

    #[test]
    fn replication_factor_stays_close_to_serial() {
        let g = Dataset::It.generate_scaled(0.05);
        let k = 16;
        let mut serial_sink = QualitySink::new(g.num_vertices(), k);
        TwoPhasePartitioner::new(TwoPhaseConfig::default())
            .partition(&mut g.stream(), &PartitionParams::new(k), &mut serial_sink)
            .unwrap();
        let serial_rf = serial_sink.finish().replication_factor;
        for threads in [2usize, 4, 8] {
            let mut sink = QualitySink::new(g.num_vertices(), k);
            run_threads(&g, TwoPhaseConfig::default(), k, threads, &mut sink);
            let rf = sink.finish().replication_factor;
            assert!(
                rf <= serial_rf * 1.35 + 0.05,
                "threads {threads}: rf {rf} vs serial {serial_rf}"
            );
        }
    }

    #[test]
    fn standalone_loads_decide_like_ledgered_loads() {
        // The distributed worker's tracker must take identical decisions.
        let shared = AtomicLoads::new(4, 1000, 1.05);
        let mut a = ShardLoads::with_ledger(&shared, 1, 3);
        let mut b = ShardLoads::standalone(4, shared.cap(), 1, 3);
        assert_eq!(a.quota(), b.quota());
        for i in 0..50u32 {
            let p = i % 4;
            assert_eq!(a.is_full(p), b.is_full(p), "step {i}");
            assert_eq!(a.least_loaded(), b.least_loaded());
            a.add(p);
            b.add(p);
        }
        assert_eq!(a.local_loads(), b.local_loads());
        assert_eq!(b.overshoot(), 0);
    }

    #[test]
    fn overshoot_reconstruction_matches_ledger_semantics() {
        // 10 edges, k = 2, α = 1.0 → cap 5. Loads 7 + 3 → overshoot 2.
        assert_eq!(overshoot_from_loads(&[7, 3], 2, 10, 1.0), 2);
        assert_eq!(overshoot_from_loads(&[5, 5], 2, 10, 1.0), 0);
    }

    #[test]
    fn shard_kernels_are_restartable_mid_job() {
        // The distributed coordinator recovers a dead worker by re-running
        // its shard from the source against the same merged state. That is
        // only sound if the kernels keep no hidden cross-call state: a
        // second run — including one abandoned partway — must reproduce
        // the first bit for bit.
        let g = Dataset::Ok.generate_scaled(0.01);
        let k = 8;
        let threads = 3;
        let shard = 1usize;
        let ranges = split_even(g.num_edges(), threads);
        let config = TwoPhaseConfig::default();

        // Degrees and clustering: pure functions of (source, range, inputs).
        let d1 = shard_degrees(&g, ranges[shard], g.num_vertices()).unwrap();
        let d2 = shard_degrees(&g, ranges[shard], g.num_vertices()).unwrap();
        assert_eq!(d1, d2);
        let merged = merge_degree_tables(vec![
            shard_degrees(&g, ranges[0], g.num_vertices()).unwrap(),
            d1,
            shard_degrees(&g, ranges[2], g.num_vertices()).unwrap(),
        ]);
        let cap = resolve_volume_cap(&config, k, &merged);
        let c1 = shard_clustering(
            &g,
            ranges[shard],
            &config,
            &merged,
            cap,
            g.num_vertices(),
            true,
        )
        .unwrap();
        let c2 = shard_clustering(
            &g,
            ranges[shard],
            &config,
            &merged,
            cap,
            g.num_vertices(),
            true,
        )
        .unwrap();
        let mut e1 = Vec::new();
        c1.encode_into(&mut e1);
        let mut e2 = Vec::new();
        c2.encode_into(&mut e2);
        assert_eq!(e1, e2, "restarted clustering diverged");

        // Phase 2: a fresh assigner re-driven from the source reproduces an
        // abandoned assigner's decisions (merged plan held fixed).
        let clustering = merge_clusterings(&[c1.clone(), c1.clone(), c2], &merged);
        let placement = cluster_placement(&config, &clustering, k);
        let cap2 = crate::balance::PartitionLoads::new(k, g.num_edges(), 1.05).cap();
        let run = |abandon_first: bool| {
            if abandon_first {
                // A first attempt that dies after the prepartition pass —
                // its partial state must not leak anywhere.
                let mut doomed = ShardAssigner::new(
                    config,
                    &merged,
                    &clustering,
                    &placement,
                    ReplicationMatrix::new(g.num_vertices(), k),
                    ShardLoads::standalone(k, cap2, shard, threads),
                );
                let mut sink = VecSink::new();
                let mut s = g.open_range(ranges[shard].0, ranges[shard].1).unwrap();
                doomed.prepartition_pass(&mut s, &mut sink).unwrap();
            }
            let mut assigner = ShardAssigner::new(
                config,
                &merged,
                &clustering,
                &placement,
                ReplicationMatrix::new(g.num_vertices(), k),
                ShardLoads::standalone(k, cap2, shard, threads),
            );
            let mut sink = VecSink::new();
            let mut s = g.open_range(ranges[shard].0, ranges[shard].1).unwrap();
            assigner.prepartition_pass(&mut s, &mut sink).unwrap();
            let mut s = g.open_range(ranges[shard].0, ranges[shard].1).unwrap();
            assigner.remaining_pass(&mut s, &mut sink).unwrap();
            (
                sink.into_assignments(),
                assigner.counters(),
                assigner.local_loads().to_vec(),
            )
        };
        let (a1, counters1, loads1) = run(false);
        let (a2, counters2, loads2) = run(true);
        assert_eq!(a1, a2, "restarted shard diverged");
        assert_eq!(counters1, counters2);
        assert_eq!(loads1, loads2);
    }
}
