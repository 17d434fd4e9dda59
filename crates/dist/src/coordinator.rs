//! The coordinator: shard-map owner, barrier merger, emit sequencer —
//! fault-tolerant against worker loss at any protocol point.
//!
//! The coordinator mirrors a `--threads N` job (`tps_core::parallel`)
//! exactly, with transports where the in-process run has scoped threads:
//!
//! * the shard map is [`tps_graph::ranged::split_even`] over the edge count
//!   — the same ranges `--threads N` uses, which is the precondition for
//!   bit-identical output;
//! * degree tables and clusterings are merged in shard order with the same
//!   merge functions (`merge_degree_tables`, `merge_clusterings`);
//!   replication state is merged **one vertex-range chunk at a time**
//!   (protocol v3): for each chunk the coordinator ORs every shard's
//!   contribution into one bounded word buffer, encodes the merged chunk
//!   once, broadcasts it, and drops the buffer — it never materialises a
//!   whole `O(|V|·k)` matrix, and no barrier frame can outgrow
//!   [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN) (OR is commutative,
//!   associative *and idempotent*, so chunk-at-a-time merging — and even
//!   re-merging a recovering worker's identical resends — cannot change
//!   the result);
//! * assignments are pulled back shard-by-shard in shard order as bounded
//!   [`Run`](crate::protocol::Message::Run) batches, so the coordinator
//!   never materialises a full shard's output and the emitted stream equals
//!   the in-process runner's worker-order replay;
//! * the `cap_overshoot` counter is reconstructed from the merged loads
//!   (`tps_core::parallel::overshoot_from_loads`) — provably equal to the
//!   in-process ledger's count for every interleaving.
//!
//! # Fault tolerance
//!
//! Worker loss — a read/write error, a receive timeout
//! ([`FaultPolicy::frame_timeout`]), or an explicit `Abort` — is recovered
//! per shard, not per job:
//!
//! 1. the failed connection is dropped and the shard's **epoch** is bumped,
//!    so any frame a presumed-dead worker manages to deliver later is
//!    recognisably stale and discarded rather than merged twice;
//! 2. the shard is **re-issued** (a [`Reissue`](crate::protocol::Message)
//!    frame) to the first available worker: an idle standby, a worker that
//!    already completed its own shard, or a fresh/reconnecting connection
//!    produced by the [`WorkerSupply`];
//! 3. the replacement is **caught up**: phase-1 state is recomputed from
//!    the source for that range (its `Degrees`/`LocalClustering` resends
//!    are byte-identical by determinism and discarded when the barrier
//!    already passed), and phase-2 state is re-entered by re-broadcasting
//!    the stored encoded `Globals`/`Plan` frames and the merged
//!    replication chunks the barrier has completed so far;
//! 4. a shard that died mid-`Run` stream resumes exactly: the coordinator
//!    skips the records it already emitted (the replacement's replay is
//!    bit-identical, so the skip is a provably safe fast-forward).
//!
//! Every broadcast frame is encoded **once** and the buffer reused across
//! workers and re-issues — the `O(|V|)` barrier messages dominate protocol
//! cost, and the stored encodings double as the recovery state.
//!
//! Output therefore stays bit-identical to `--threads N` no matter which
//! worker dies at which barrier, as long as the retry budget
//! ([`FaultPolicy::max_retries`]) and the supply hold out.

use std::collections::VecDeque;
use std::io;

use tps_clustering::merge::merge_clusterings;
use tps_clustering::model::Clustering;
use tps_core::parallel::{
    merge_degree_tables, overshoot_from_loads, record_clustering_counters, record_phase2_counters,
    resolve_volume_cap, try_cluster_placement,
};
use tps_core::partitioner::{PartitionParams, RunReport};
use tps_core::sink::AssignmentSink;
use tps_core::two_phase::{AssignCounters, TwoPhaseConfig};
use tps_graph::degree::DegreeTable;
use tps_graph::ranged::split_even;
use tps_graph::types::GraphInfo;

use crate::protocol::{InputDescriptor, Job, Message, ReplChunks, PROTOCOL_VERSION};
use crate::transport::{is_timeout, recv_msg, send_frame, send_msg, Transport};
use crate::wire::corrupt;

/// Shard re-issues after a worker failure (each bumps the shard's epoch).
static DIST_EPOCH_REISSUES: tps_obs::Counter = tps_obs::Counter::new("dist.epoch.reissues");
/// Failed workers that reconnected with `Rejoin` after an `Abort`.
static DIST_WORKER_REJOINS: tps_obs::Counter = tps_obs::Counter::new("dist.worker.rejoins");

/// How the coordinator reacts to worker failure. The default is the
/// pre-v2 fail-fast behaviour: no retries, no frame timeout.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPolicy {
    /// Total shard re-issues allowed across the job; `0` fails the job on
    /// the first worker loss.
    pub max_retries: u32,
    /// Bound on how long one `recv` from a worker may block before the
    /// worker is presumed dead. `None` waits forever — a *hung* (rather
    /// than dead) worker then hangs the job, so deployments should set it
    /// generously above the slowest expected phase.
    ///
    /// Detection is receive-side only: `std::net::TcpStream` exposes no
    /// write timeout, so a coordinator *send* to a hung worker can still
    /// block once the kernel send buffer fills (an `O(|V|)` broadcast to a
    /// SIGSTOPped peer). Dead peers fail promptly either way; a truly hung
    /// peer on the send path is eventually surfaced by TCP's own
    /// retransmission timeout rather than this bound.
    pub frame_timeout: Option<std::time::Duration>,
}

impl FaultPolicy {
    /// A policy allowing `max_retries` re-issues, with no frame timeout.
    pub fn with_retries(max_retries: u32) -> Self {
        FaultPolicy {
            max_retries,
            ..Default::default()
        }
    }
}

/// Produces replacement worker connections mid-run: freshly accepted
/// sockets (reconnecting or late-joining workers), respawned local worker
/// processes — whatever the deployment can offer. The coordinator
/// handshakes (`Hello`/`Rejoin`) every connection the supply returns.
pub trait WorkerSupply {
    /// Produce one replacement connection, or `Ok(None)` if none can be
    /// provided (the job then fails if no idle worker remains).
    fn replacement(&mut self) -> io::Result<Option<Box<dyn Transport>>>;
}

/// A supply that never produces replacements — retries can then only use
/// standbys passed up-front and workers that already completed their shard.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoReplacements;

impl WorkerSupply for NoReplacements {
    fn replacement(&mut self) -> io::Result<Option<Box<dyn Transport>>> {
        Ok(None)
    }
}

/// The per-shard protocol step the coordinator is about to perform; every
/// step strictly before it (in [`Stage::rank`] order) has completed for
/// that shard (the global barrier loops guarantee this), which is exactly
/// what a replacement worker must be caught up through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// Receive the shard's degree table.
    Degrees,
    /// Send the merged-degrees frame.
    Globals,
    /// Receive the shard's local clustering.
    Clustering,
    /// Send the merged plan frame.
    Plan,
    /// Receive the shard's replication chunk `c` (pre-partitioning, N > 1).
    Replication(u32),
    /// Send the merged replication chunk `c` (pre-partitioning, N > 1).
    MergedRepl(u32),
    /// Receive the shard's phase-2 summary.
    Done,
    /// Pull the shard's assignment runs.
    Emit,
}

impl Stage {
    /// Protocol-order rank. The chunked replication rounds *interleave*
    /// (`Replication(0) < MergedRepl(0) < Replication(1) < …`), so a
    /// derived enum ordering — all `Replication` before all `MergedRepl` —
    /// would mis-order them; catch-up depends on this rank.
    fn rank(self) -> (u8, u64) {
        match self {
            Stage::Degrees => (0, 0),
            Stage::Globals => (1, 0),
            Stage::Clustering => (2, 0),
            Stage::Plan => (3, 0),
            Stage::Replication(c) => (4, 2 * c as u64),
            Stage::MergedRepl(c) => (4, 2 * c as u64 + 1),
            Stage::Done => (5, 0),
            Stage::Emit => (6, 0),
        }
    }
}

impl PartialOrd for Stage {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Stage {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

/// An error during one shard step, classified for the retry loop.
enum StageErr {
    /// The worker (or its connection) failed — drop it, re-issue the shard.
    Worker(io::Error),
    /// A coordinator-side failure (e.g. the sink) — fail the job.
    Fatal(io::Error),
}

impl StageErr {
    fn worker<E: Into<Box<dyn std::error::Error + Send + Sync>>>(e: E) -> StageErr {
        StageErr::Worker(corrupt(e))
    }
}

/// What a completed receive step yields back to the barrier loops.
enum StageOut {
    None,
    Degrees(DegreeTable),
    Clustering(Clustering),
}

struct ShardState {
    epoch: u32,
    /// Records of this shard already written to the sink (resume point for
    /// a mid-`Run`-stream re-issue).
    emitted: u64,
    done: Option<(AssignCounters, Vec<u64>, u64)>,
}

/// Run one distributed partitioning job over `shards` edge ranges, starting
/// from the given connected transports (the first `shards` become the
/// initial workers; extras are standbys), emitting every assignment into
/// `sink` in shard order.
///
/// `info` must describe the same graph every worker will open via `input`.
/// On worker failure the job recovers per `policy`, drawing replacement
/// connections from `supply` when no idle worker is available. On job
/// failure the coordinator best-effort broadcasts an `Abort` so workers
/// exit instead of blocking on a barrier.
#[allow(clippy::too_many_arguments)] // one call site per deployment; a builder would obscure the protocol inputs
pub fn run_coordinator(
    config: &TwoPhaseConfig,
    params: &PartitionParams,
    info: GraphInfo,
    input: &InputDescriptor,
    shards: usize,
    transports: Vec<Box<dyn Transport>>,
    supply: &mut dyn WorkerSupply,
    policy: &FaultPolicy,
    mem_budget_mb: u64,
    sink: &mut dyn AssignmentSink,
) -> io::Result<RunReport> {
    assert!(shards >= 1, "need at least one shard");
    let mut co = Coordinator {
        config: *config,
        k: params.k,
        alpha: params.alpha,
        mem_budget_mb,
        info,
        input: input.clone(),
        policy: *policy,
        supply,
        n: shards,
        ranges: Vec::new(),
        conns: (0..shards).map(|_| None).collect(),
        idle: VecDeque::new(),
        pending: transports.into_iter().collect(),
        states: (0..shards)
            .map(|_| ShardState {
                epoch: 0,
                emitted: 0,
                done: None,
            })
            .collect(),
        retries: 0,
        rejoined: 0,
        last_handshake_err: None,
        globals_frame: None,
        plan_frame: None,
        repl_chunks: ReplChunks::new(info.num_vertices, params.k),
        repl_acc: Vec::new(),
        merged_repl_frames: Vec::new(),
    };
    let result = co.drive(sink);
    if let Err(e) = &result {
        co.abort_all(e);
    }
    result
}

struct Coordinator<'a> {
    config: TwoPhaseConfig,
    k: u32,
    alpha: f64,
    /// `--mem-budget-mb` forwarded to every `Job` (0 = unbudgeted).
    mem_budget_mb: u64,
    info: GraphInfo,
    input: InputDescriptor,
    policy: FaultPolicy,
    supply: &'a mut dyn WorkerSupply,
    n: usize,
    ranges: Vec<(u64, u64)>,
    /// The connection currently serving each shard.
    conns: Vec<Option<Box<dyn Transport>>>,
    /// Handshaken connections with no current assignment (standbys and
    /// workers whose shard completed).
    idle: VecDeque<Box<dyn Transport>>,
    /// Connections not yet handshaken (the initial transports).
    pending: VecDeque<Box<dyn Transport>>,
    states: Vec<ShardState>,
    retries: u32,
    rejoined: u64,
    /// The most recent up-front handshake failure — context for a later
    /// "no replacement available" error, not a spent retry.
    last_handshake_err: Option<io::Error>,
    /// Broadcast frames, encoded once at their barrier and reused for every
    /// worker and every catch-up (ROADMAP "transport efficiency").
    globals_frame: Option<Vec<u8>>,
    plan_frame: Option<Vec<u8>>,
    /// The deterministic vertex-range chunking of the replication barrier.
    repl_chunks: ReplChunks,
    /// The chunk currently being merged: one bounded word buffer, ORed
    /// into by every shard's `Replication(c)` stage, then encoded and
    /// dropped — the coordinator never holds a whole matrix.
    repl_acc: Vec<u64>,
    /// Merged replication chunks, encoded once per completed round and
    /// reused for every worker and every catch-up (zero-word-run encoded,
    /// so this recovery state is small on sparse graphs).
    merged_repl_frames: Vec<Vec<u8>>,
}

impl Coordinator<'_> {
    fn drive(&mut self, sink: &mut dyn AssignmentSink) -> io::Result<RunReport> {
        let mut report = RunReport::default();

        // Handshake every up-front connection before any work is assigned.
        // A connection that fails its handshake is dropped without touching
        // the retry budget: it never held a shard, and a dead *spare* must
        // not fail a job whose shard workers are all healthy. If the loss
        // leaves a shard unservable, the assignment loop below surfaces it
        // (with this failure as context).
        while let Some(mut t) = self.pending.pop_front() {
            match self.handshake(&mut *t) {
                Ok(()) => self.idle.push_back(t),
                Err(e) => {
                    drop_failed(t, &e);
                    self.last_handshake_err = Some(e);
                }
            }
        }

        if self.info.num_edges == 0 {
            self.shutdown_all();
            return Ok(report);
        }

        // Shard map: the same even edge-index split as `--threads N`. Every
        // shard gets its job eagerly so workers compute phase 0 in parallel.
        self.ranges = split_even(self.info.num_edges, self.n);
        for s in 0..self.n {
            let t = self.acquire(s, Stage::Degrees)?;
            self.conns[s] = Some(t);
        }

        // Phase 0: merge per-shard degree tables in shard order.
        let s0 = tps_obs::span("degree");
        let mut tables: Vec<DegreeTable> = Vec::with_capacity(self.n);
        for s in 0..self.n {
            match self.advance(s, Stage::Degrees, sink)? {
                StageOut::Degrees(d) => tables.push(d),
                _ => unreachable!("Degrees stage yields a degree table"),
            }
        }
        let degrees = merge_degree_tables(tables);
        report.phases.record("degree", s0.end());
        let volume_cap = resolve_volume_cap(&self.config, self.k, &degrees);
        self.globals_frame = Some(
            Message::Globals {
                degrees: degrees.iter().collect(),
                volume_cap,
            }
            .encode(),
        );
        for s in 0..self.n {
            self.advance(s, Stage::Globals, sink)?;
        }

        // Phase 1: merge per-shard clusterings (union-by-volume, shard order).
        let s1 = tps_obs::span("clustering");
        let mut locals: Vec<Clustering> = Vec::with_capacity(self.n);
        for s in 0..self.n {
            match self.advance(s, Stage::Clustering, sink)? {
                StageOut::Clustering(c) => locals.push(c),
                _ => unreachable!("Clustering stage yields a clustering"),
            }
        }
        let clustering = merge_clusterings(&locals, &degrees);
        drop(locals);
        drop(degrees);
        report.phases.record("clustering", s1.end());

        // Phase 2 step 1: placement, computed once here, broadcast to shards.
        let s2 = tps_obs::span("mapping");
        let placement = try_cluster_placement(&self.config, &clustering, self.k)?;
        report.phases.record("mapping", s2.end());
        self.plan_frame = Some(
            Message::Plan {
                clustering: clustering.clone(),
                c2p: placement.c2p().to_vec(),
            }
            .encode(),
        );
        for s in 0..self.n {
            self.advance(s, Stage::Plan, sink)?;
        }

        // Phase 2 step 2 barrier: OR the replication state one vertex-range
        // chunk at a time (skipped exactly when the in-process runner skips
        // its barrier). Each round merges every shard's chunk into one
        // bounded buffer, encodes the merged chunk once, broadcasts it, and
        // drops the buffer — `O(chunk)` live merge state, never `O(|V|·k)`.
        let s3 = tps_obs::span("prepartition");
        if self.replication_active() {
            for c in 0..self.repl_chunks.count() {
                self.repl_acc = vec![0u64; self.repl_chunks.words_in_chunk(c)];
                for s in 0..self.n {
                    self.advance(s, Stage::Replication(c), sink)?;
                }
                let words = std::mem::take(&mut self.repl_acc);
                self.merged_repl_frames
                    .push(Message::MergedReplicationChunk { chunk: c, words }.encode());
                for s in 0..self.n {
                    self.advance(s, Stage::MergedRepl(c), sink)?;
                }
            }
        }
        report.phases.record("prepartition", s3.end());

        // Phase 2 step 3: collect shard summaries.
        let s4 = tps_obs::span("partition");
        for s in 0..self.n {
            self.advance(s, Stage::Done, sink)?;
        }
        let mut counters = AssignCounters::default();
        let mut loads = vec![0u64; self.k as usize];
        let mut assigned_total = 0u64;
        for state in &self.states {
            let (c, l, assigned) = state.done.as_ref().expect("done barrier completed");
            counters.merge(c);
            for (acc, v) in loads.iter_mut().zip(l) {
                *acc += v;
            }
            assigned_total += assigned;
        }
        report.phases.record("partition", s4.end());

        // Emit: pull each shard's runs in shard order — bounded batches, one
        // worker at a time, so coordinator memory stays O(RUN_BATCH_EDGES).
        let s5 = tps_obs::span("emit");
        for s in 0..self.n {
            self.advance(s, Stage::Emit, sink)?;
            // This shard is complete; its worker becomes a standby for any
            // later shard's re-issue.
            if let Some(t) = self.conns[s].take() {
                self.idle.push_back(t);
            }
        }
        report.phases.record("emit", s5.end());
        self.shutdown_all();

        let emitted: u64 = self.states.iter().map(|s| s.emitted).sum();
        if emitted != self.info.num_edges || assigned_total != self.info.num_edges {
            return Err(corrupt(format!(
                "assignment count mismatch: |E| = {}, shards reported {assigned_total}, emitted {emitted}",
                self.info.num_edges
            )));
        }

        report.count("workers", self.n as u64);
        report.count("worker_retries", self.retries as u64);
        report.count("workers_rejoined", self.rejoined);
        let overshoot = overshoot_from_loads(&loads, self.k, self.info.num_edges, self.alpha);
        record_phase2_counters(&mut report, &counters, overshoot);
        record_clustering_counters(&mut report, &clustering, volume_cap);
        Ok(report)
    }

    fn replication_active(&self) -> bool {
        self.config.prepartitioning && self.n > 1
    }

    /// Publish this shard's protocol position (and fleet liveness) as
    /// gauges for the `--metrics-addr` scrape endpoint. Called at stage
    /// transitions only — barrier cost dwarfs the gauge-map updates.
    fn publish_progress(&self, s: usize, stage: Stage) {
        if !tps_obs::metrics_enabled() {
            return;
        }
        let (major, minor) = stage.rank();
        tps_obs::set_gauge(&format!("dist.shard.{s}.stage"), major as f64);
        tps_obs::set_gauge(&format!("dist.shard.{s}.stage.step"), minor as f64);
        tps_obs::set_gauge(
            &format!("dist.shard.{s}.epoch"),
            self.states[s].epoch as f64,
        );
        tps_obs::set_gauge(
            &format!("dist.shard.{s}.emitted"),
            self.states[s].emitted as f64,
        );
        let live = self.conns.iter().filter(|c| c.is_some()).count();
        tps_obs::set_gauge("dist.workers.live", live as f64);
        tps_obs::set_gauge("dist.workers.idle", self.idle.len() as f64);
        tps_obs::set_gauge("dist.retries", self.retries as f64);
        tps_obs::set_gauge("dist.shards", self.n as f64);
    }

    /// Perform `stage` for shard `s`, re-issuing the shard to a replacement
    /// worker on failure until it succeeds or the retry budget is spent.
    fn advance(
        &mut self,
        s: usize,
        stage: Stage,
        sink: &mut dyn AssignmentSink,
    ) -> io::Result<StageOut> {
        self.publish_progress(s, stage);
        loop {
            let mut t = match self.conns[s].take() {
                Some(t) => t,
                None => self.acquire(s, stage)?,
            };
            match self.do_stage(&mut *t, s, stage, sink) {
                Ok(out) => {
                    self.conns[s] = Some(t);
                    return Ok(out);
                }
                Err(StageErr::Worker(e)) => {
                    // Tell a still-alive worker why it is being abandoned,
                    // then close the connection: late frames can't be read,
                    // and the next issuance's epoch marks any that already
                    // arrived as stale.
                    drop_failed(t, &e);
                    self.states[s].epoch += 1;
                    DIST_EPOCH_REISSUES.incr();
                    tps_obs::instant_with("dist.fault.reissue", format!("shard {s} {stage:?}"));
                    self.note_failure(&format!("shard {s} {stage:?}"), e)?;
                }
                Err(StageErr::Fatal(e)) => return Err(e),
            }
        }
    }

    /// Count one worker failure against the retry budget.
    fn note_failure(&mut self, what: &str, e: io::Error) -> io::Result<()> {
        self.retries += 1;
        if tps_obs::metrics_enabled() {
            tps_obs::set_gauge("dist.retries", self.retries as f64);
        }
        if is_timeout(&e) {
            tps_obs::instant_with("dist.fault.timeout", format!("{what}: {e}"));
        }
        tps_obs::instant_with("dist.fault.retry", format!("{what}: {e}"));
        if self.retries > self.policy.max_retries {
            return Err(io::Error::new(
                e.kind(),
                format!(
                    "worker failed during {what}; retry budget exhausted \
                     ({} allowed): {e}",
                    self.policy.max_retries
                ),
            ));
        }
        Ok(())
    }

    /// Produce a caught-up connection for shard `s` about to run `stage`:
    /// an idle worker if one exists, else a supply replacement.
    fn acquire(&mut self, s: usize, stage: Stage) -> io::Result<Box<dyn Transport>> {
        loop {
            let mut t = match self.idle.pop_front() {
                Some(t) => t,
                None => match self.supply.replacement()? {
                    Some(mut t) => {
                        if let Err(e) = self.handshake(&mut *t) {
                            drop_failed(t, &e);
                            self.note_failure("replacement handshake", e)?;
                            continue;
                        }
                        t
                    }
                    None => {
                        // Surface the handshake failure (and its kind) that
                        // cost us the connection, if that is why we are short.
                        let (kind, context) = match &self.last_handshake_err {
                            Some(e) => (
                                e.kind(),
                                format!(" (a connection was dropped at handshake: {e})"),
                            ),
                            None => (io::ErrorKind::Other, String::new()),
                        };
                        return Err(io::Error::new(
                            kind,
                            format!(
                                "shard {s} has no worker and no replacement is available{context}"
                            ),
                        ));
                    }
                },
            };
            match self.catch_up(&mut *t, s, stage) {
                Ok(()) => return Ok(t),
                Err(e) => {
                    drop_failed(t, &e);
                    self.states[s].epoch += 1;
                    DIST_EPOCH_REISSUES.incr();
                    tps_obs::instant_with("dist.fault.reissue", format!("shard {s} catch-up"));
                    self.note_failure(&format!("shard {s} catch-up"), e)?;
                }
            }
        }
    }

    /// Validate a connection's `Hello`/`Rejoin` and apply the frame timeout.
    fn handshake(&mut self, t: &mut dyn Transport) -> io::Result<()> {
        t.set_recv_timeout(self.policy.frame_timeout)?;
        match recv_msg(t)? {
            Message::Hello { version } | Message::Rejoin { version }
                if version != PROTOCOL_VERSION =>
            {
                Err(corrupt(format!(
                    "worker speaks protocol {version}, coordinator {PROTOCOL_VERSION}"
                )))
            }
            Message::Hello { .. } => Ok(()),
            Message::Rejoin { .. } => {
                self.rejoined += 1;
                DIST_WORKER_REJOINS.incr();
                tps_obs::instant("dist.fault.rejoin");
                Ok(())
            }
            Message::Abort { reason } => Err(io::Error::other(format!(
                "worker aborted during handshake: {reason}"
            ))),
            other => Err(corrupt(format!(
                "handshake: unexpected {} message",
                Message::tag_name(other.tag())
            ))),
        }
    }

    /// The job descriptor for shard `s` at its current epoch.
    fn job_for(&self, s: usize) -> Job {
        Job {
            worker_index: s as u32,
            num_workers: self.n as u32,
            epoch: self.states[s].epoch,
            k: self.k,
            alpha: self.alpha,
            config: self.config,
            num_vertices: self.info.num_vertices,
            num_edges: self.info.num_edges,
            shard: self.ranges[s],
            input: self.input.clone(),
            trace: tps_obs::enabled(),
            mem_budget_mb: self.mem_budget_mb,
        }
    }

    /// Issue shard `s` to a fresh connection and replay every step strictly
    /// before `target` from the stored barrier state: contribution resends
    /// are received and discarded (they are bit-identical to the merged
    /// originals by determinism), broadcasts are replayed from the encoded
    /// frames. The worker computes phase 1 from the source and re-enters
    /// phase 2 from the re-broadcast merged state.
    fn catch_up(&mut self, t: &mut dyn Transport, s: usize, target: Stage) -> io::Result<()> {
        let job = self.job_for(s);
        let assignment = if job.epoch == 0 {
            Message::Job(job)
        } else {
            Message::Reissue(job)
        };
        send_msg(t, &assignment)?;
        if target <= Stage::Degrees {
            return Ok(());
        }
        self.replay_recv(t, s, 3, "catch-up degrees")?;
        if target <= Stage::Globals {
            return Ok(());
        }
        send_frame(t, self.globals_frame.as_ref().expect("past degree barrier"))?;
        if target <= Stage::Clustering {
            return Ok(());
        }
        self.replay_recv(t, s, 5, "catch-up clustering")?;
        if target <= Stage::Plan {
            return Ok(());
        }
        send_frame(
            t,
            self.plan_frame.as_ref().expect("past clustering barrier"),
        )?;
        if self.replication_active() {
            // Replay the completed chunk rounds: the replacement resends
            // every chunk eagerly (bit-identical by determinism), so the
            // already-merged ones are consumed and discarded, and the
            // stored merged frames re-enter it into the barrier exactly
            // where the round loop stands.
            for c in 0..self.repl_chunks.count() {
                if target <= Stage::Replication(c) {
                    return Ok(());
                }
                self.replay_recv_chunk(t, s, c)?;
                if target <= Stage::MergedRepl(c) {
                    return Ok(());
                }
                send_frame(t, &self.merged_repl_frames[c as usize])?;
            }
        }
        if target <= Stage::Done {
            return Ok(());
        }
        self.replay_recv(t, s, 9, "catch-up summary")?;
        Ok(())
    }

    /// Receive and discard a replayed replication chunk whose round already
    /// completed, insisting on the expected chunk index and current epoch.
    fn replay_recv_chunk(&self, t: &mut dyn Transport, s: usize, c: u32) -> io::Result<()> {
        match self.recv_current(t, s, "catch-up replication")? {
            Message::ReplicationChunk { chunk, .. } if chunk == c => Ok(()),
            Message::ReplicationChunk { chunk, .. } => Err(corrupt(format!(
                "catch-up replication: chunk {chunk} arrived out of order (expected {c})"
            ))),
            other => Err(corrupt(format!(
                "catch-up replication: expected ReplicationChunk, got {}",
                Message::tag_name(other.tag())
            ))),
        }
    }

    /// Receive and discard a replayed contribution whose barrier already
    /// passed, insisting on the expected tag and current epoch.
    fn replay_recv(&self, t: &mut dyn Transport, s: usize, tag: u8, phase: &str) -> io::Result<()> {
        let msg = self.recv_current(t, s, phase)?;
        if msg.tag() != tag {
            return Err(corrupt(format!(
                "{phase}: expected {}, got {}",
                Message::tag_name(tag),
                Message::tag_name(msg.tag())
            )));
        }
        Ok(())
    }

    /// Receive the next non-stale frame for shard `s`: frames tagged with
    /// an older epoch (a presumed-dead worker's leftovers) are discarded;
    /// a different shard or a future epoch is a protocol violation; an
    /// `Abort` is a worker failure.
    fn recv_current(&self, t: &mut dyn Transport, s: usize, phase: &str) -> io::Result<Message> {
        let epoch = self.states[s].epoch;
        loop {
            let msg = recv_msg(t)
                .map_err(|e| io::Error::new(e.kind(), format!("shard {s}, {phase}: {e}")))?;
            if let Message::Abort { reason } = &msg {
                return Err(io::Error::other(format!(
                    "worker aborted shard {s} during {phase}: {reason}"
                )));
            }
            match msg.shard_epoch() {
                Some((ms, me)) if ms == s as u32 && me == epoch => return Ok(msg),
                Some((ms, me)) if ms == s as u32 && me < epoch => {
                    // Stale frame from a previous issuance of this shard:
                    // discard, never merge twice.
                    tps_obs::instant_with(
                        "dist.fault.stale_frame",
                        format!("shard {s}, {phase}: epoch {me} < {epoch}"),
                    );
                    continue;
                }
                Some((ms, me)) => {
                    return Err(corrupt(format!(
                        "{phase}: frame for shard {ms} epoch {me}, expected shard {s} epoch {epoch}"
                    )))
                }
                None => return Ok(msg),
            }
        }
    }

    /// One protocol step for shard `s` on transport `t` (which is detached
    /// from `self.conns` while this runs).
    fn do_stage(
        &mut self,
        t: &mut dyn Transport,
        s: usize,
        stage: Stage,
        sink: &mut dyn AssignmentSink,
    ) -> Result<StageOut, StageErr> {
        match stage {
            Stage::Degrees => match self
                .recv_current(t, s, "degree")
                .map_err(StageErr::Worker)?
            {
                Message::Degrees { degrees, .. } => {
                    if degrees.len() as u64 != self.info.num_vertices {
                        return Err(StageErr::worker(format!(
                            "shard {s} sent degrees for {} vertices, expected {}",
                            degrees.len(),
                            self.info.num_vertices
                        )));
                    }
                    Ok(StageOut::Degrees(DegreeTable::from_vec(degrees)))
                }
                other => Err(unexpected(s, "degree", &other)),
            },
            Stage::Globals => {
                send_frame(
                    t,
                    self.globals_frame.as_ref().expect("encoded at the barrier"),
                )
                .map_err(StageErr::Worker)?;
                Ok(StageOut::None)
            }
            Stage::Clustering => {
                match self
                    .recv_current(t, s, "clustering")
                    .map_err(StageErr::Worker)?
                {
                    Message::LocalClustering { clustering, .. } => {
                        if clustering.num_vertices() != self.info.num_vertices {
                            return Err(StageErr::worker(format!(
                                "shard {s} clustered {} vertices, expected {}",
                                clustering.num_vertices(),
                                self.info.num_vertices
                            )));
                        }
                        Ok(StageOut::Clustering(clustering))
                    }
                    other => Err(unexpected(s, "clustering", &other)),
                }
            }
            Stage::Plan => {
                send_frame(t, self.plan_frame.as_ref().expect("encoded at the barrier"))
                    .map_err(StageErr::Worker)?;
                Ok(StageOut::None)
            }
            Stage::Replication(c) => {
                match self
                    .recv_current(t, s, "prepartition")
                    .map_err(StageErr::Worker)?
                {
                    Message::ReplicationChunk { chunk, words, .. } => {
                        if chunk != c {
                            return Err(StageErr::worker(format!(
                                "shard {s} sent replication chunk {chunk} out of order \
                                 (expected {c})"
                            )));
                        }
                        if words.len() != self.repl_acc.len() {
                            return Err(StageErr::worker(format!(
                                "shard {s} sent {} words for replication chunk {c}, expected {}",
                                words.len(),
                                self.repl_acc.len()
                            )));
                        }
                        // Reject malformed rows *before* merging: the
                        // accumulator is immutable once encoded, so one
                        // poisoned contribution (e.g. stray bits beyond
                        // partition k−1, or in a lane past |V|) would
                        // otherwise fail every worker's install of the
                        // merged chunk (and every catch-up replay of it) —
                        // a whole-job failure where dropping the one
                        // faulty worker suffices.
                        let (v0, v1) = self.repl_chunks.vertex_range(c);
                        if let Err(e) =
                            tps_metrics::bitmatrix::validate_packed_rows(&words, self.k, v1 - v0)
                        {
                            return Err(StageErr::worker(format!(
                                "shard {s}, replication chunk {c}: {e}"
                            )));
                        }
                        // OR into the round's accumulator. Idempotent, so a
                        // recovering worker's identical re-send of an
                        // already-merged chunk cannot change the result.
                        for (acc, &w) in self.repl_acc.iter_mut().zip(&words) {
                            *acc |= w;
                        }
                        Ok(StageOut::None)
                    }
                    other => Err(unexpected(s, "prepartition", &other)),
                }
            }
            Stage::MergedRepl(c) => {
                send_frame(t, &self.merged_repl_frames[c as usize]).map_err(StageErr::Worker)?;
                Ok(StageOut::None)
            }
            Stage::Done => match self
                .recv_current(t, s, "partition")
                .map_err(StageErr::Worker)?
            {
                Message::ShardDone {
                    counters,
                    loads,
                    assigned,
                    trace,
                    counter_snap,
                    ..
                } => {
                    if loads.len() != self.k as usize {
                        return Err(StageErr::worker(format!(
                            "shard {s} reported loads for {} partitions, expected {}",
                            loads.len(),
                            self.k
                        )));
                    }
                    // Accepted exactly once per shard: replayed frames are
                    // consumed by catch_up, so per-shard spans never double.
                    if !trace.is_empty() {
                        tps_obs::record_remote(s as u32 + 1, trace);
                    }
                    if !counter_snap.is_empty() {
                        tps_obs::record_remote_counters(s as u32 + 1, counter_snap);
                    }
                    self.states[s].done = Some((counters, loads, assigned));
                    Ok(StageOut::None)
                }
                other => Err(unexpected(s, "partition", &other)),
            },
            Stage::Emit => {
                self.emit_shard(t, s, sink)?;
                Ok(StageOut::None)
            }
        }
    }

    /// Pull shard `s`'s runs, skipping the `emitted` records a previous
    /// issuance already delivered (the replay is bit-identical, so the skip
    /// resumes the stream exactly).
    fn emit_shard(
        &mut self,
        t: &mut dyn Transport,
        s: usize,
        sink: &mut dyn AssignmentSink,
    ) -> Result<(), StageErr> {
        send_msg(t, &Message::Pull).map_err(StageErr::Worker)?;
        let mut skip = self.states[s].emitted;
        loop {
            match self.recv_current(t, s, "emit").map_err(StageErr::Worker)? {
                Message::Run { batch, .. } => {
                    let skipped = batch.len().min(usize::try_from(skip).unwrap_or(usize::MAX));
                    skip -= skipped as u64;
                    let fresh = &batch[skipped..];
                    // The sink gets the frame as one run, up to the first
                    // record a sane worker cannot have sent.
                    let sane = fresh.iter().take_while(|&&(_, p)| p < self.k).count();
                    let (good, bad) = fresh.split_at(sane);
                    sink.assign_batch(good).map_err(StageErr::Fatal)?;
                    self.states[s].emitted += good.len() as u64;
                    if let Some(&(_, p)) = bad.first() {
                        return Err(StageErr::worker(format!(
                            "shard {s} assigned partition {p} (k = {})",
                            self.k
                        )));
                    }
                }
                Message::RunsDone { .. } => {
                    if skip > 0 {
                        return Err(StageErr::worker(format!(
                            "shard {s} replayed {skip} fewer records than previously emitted"
                        )));
                    }
                    return Ok(());
                }
                other => return Err(unexpected(s, "emit", &other)),
            }
        }
    }

    /// Best-effort send of one pre-encoded frame to every live connection
    /// (assigned, idle, and never-handshaken); failures are ignored.
    fn broadcast_best_effort(&mut self, frame: &[u8]) {
        for t in self
            .conns
            .iter_mut()
            .flatten()
            .chain(&mut self.idle)
            .chain(&mut self.pending)
        {
            let _ = t.send(frame);
        }
    }

    /// `Shutdown` everyone — the job is over.
    fn shutdown_all(&mut self) {
        self.broadcast_best_effort(&Message::Shutdown.encode());
    }

    /// `Abort` broadcast after a job failure, so workers fail their current
    /// barrier instead of hanging.
    fn abort_all(&mut self, e: &io::Error) {
        self.broadcast_best_effort(
            &Message::Abort {
                reason: e.to_string(),
            }
            .encode(),
        );
    }
}

fn unexpected(s: usize, phase: &str, got: &Message) -> StageErr {
    StageErr::worker(format!(
        "shard {s}, {phase}: unexpected {} message",
        Message::tag_name(got.tag())
    ))
}

/// Best-effort `Abort` to a connection being abandoned, so a still-alive
/// worker learns why (and, if it reconnects, does so with `Rejoin`); a
/// genuinely dead connection just fails the send silently.
fn drop_failed(mut t: Box<dyn Transport>, e: &io::Error) {
    let _ = t.send(
        &Message::Abort {
            reason: e.to_string(),
        }
        .encode(),
    );
}
