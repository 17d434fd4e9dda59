//! The worker: one shard of every phase, driven by coordinator messages.
//!
//! A worker is a thin state machine around `tps-core`'s per-shard kernels
//! ([`shard_degrees`], [`shard_clustering`], [`ShardAssigner`]) — the same
//! code a `--threads N` job schedules onto threads, which is
//! why a distributed run is bit-identical to that job. The worker
//! never sees the whole graph's assignments: its decisions wait in a
//! [`DecisionLog`] — 2 bits per edge of its range plus one entry per
//! escape (a decision off both endpoints' cluster partitions, in the bytes
//! k − 1 needs), under any memory budget — and stream back as bounded
//! `Run` batches when the coordinator pulls them, the tags paired with
//! their edges by re-reading the range and resolved against the plan.
//! Every worker logs, worker 0 too: its records leave only on `Pull`.
//!
//! Workers serve **jobs in a loop**: after a shard's runs are pulled the
//! worker waits for either a [`Reissue`](Message::Reissue) — another
//! shard whose previous worker failed — or a `Shutdown`. Each job is
//! self-contained (the kernels keep no cross-job state), and every frame a
//! worker sends for a job echoes the job's `(shard, epoch)` so the
//! coordinator can discard stale frames from an issuance it has abandoned.
//! A worker that reconnects after losing its coordinator handshakes with
//! [`Rejoin`](Message::Rejoin) instead of `Hello`.

use std::io;

use tps_core::balance::PartitionLoads;
use tps_core::parallel::{shard_clustering, shard_degrees, ShardAssigner, ShardLoads};
use tps_core::sink::{AssignmentSink, DecisionLog, EmitPlan};
use tps_graph::degree::DegreeTable;
use tps_graph::ranged::RangedEdgeSource;
use tps_graph::types::{Edge, PartitionId};

use crate::protocol::{
    InputDescriptor, Job, Message, ReplChunks, PROTOCOL_VERSION, RUN_BATCH_EDGES,
};
use crate::transport::{recv_msg, send_msg, Transport};
use crate::wire::corrupt;

/// Resolves a [`Job`]'s input descriptor to an edge source.
pub trait SourceResolver {
    /// Open the source named by `input`.
    fn open<'s>(&'s self, input: &InputDescriptor) -> io::Result<Box<dyn RangedEdgeSource + 's>>;
}

/// Resolver for out-of-process workers: opens `Path` descriptors through
/// `tps-io` (shared-filesystem deployment); rejects `Attached`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PathResolver;

impl SourceResolver for PathResolver {
    fn open<'s>(&'s self, input: &InputDescriptor) -> io::Result<Box<dyn RangedEdgeSource + 's>> {
        match input {
            InputDescriptor::Path { path } => tps_io::open_ranged(path),
            InputDescriptor::Attached => Err(corrupt(
                "job says the input is attached, but this worker is out-of-process",
            )),
        }
    }
}

/// Resolver for in-process loopback workers: every job reads the one
/// attached source (and `Path` descriptors are honoured too, so mixed tests
/// can reuse it).
pub struct AttachedResolver<'g>(pub &'g dyn RangedEdgeSource);

impl SourceResolver for AttachedResolver<'_> {
    fn open<'s>(&'s self, input: &InputDescriptor) -> io::Result<Box<dyn RangedEdgeSource + 's>> {
        match input {
            InputDescriptor::Attached => Ok(Box::new(self.0)),
            InputDescriptor::Path { path } => tps_io::open_ranged(path),
        }
    }
}

/// Which handshake a worker opens with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Handshake {
    /// A fresh worker's first connection.
    Hello,
    /// A worker that was previously connected (its connection broke or its
    /// job aborted) offering itself for re-assignment.
    Rejoin,
}

/// Serve jobs over `transport` until the coordinator sends `Shutdown`.
/// Decisions wait for the coordinator's `Pull` in a decision log.
///
/// On internal failure the worker sends an `Abort` with the cause (so the
/// coordinator fails the shard's current barrier instead of hanging) and
/// returns the error — the process-level worker can then reconnect with
/// [`Handshake::Rejoin`].
pub fn run_worker(transport: &mut dyn Transport, resolver: &dyn SourceResolver) -> io::Result<()> {
    run_worker_handshake(transport, resolver, Handshake::Hello)
}

/// [`run_worker`] with an explicit handshake kind (reconnections `Rejoin`).
pub fn run_worker_handshake(
    transport: &mut dyn Transport,
    resolver: &dyn SourceResolver,
    handshake: Handshake,
) -> io::Result<()> {
    let result = serve(transport, resolver, handshake);
    if let Err(e) = &result {
        let _ = send_msg(
            transport,
            &Message::Abort {
                reason: e.to_string(),
            },
        );
    }
    result
}

/// Receive, mapping `Abort` appropriately for mid-job steps.
fn expect(transport: &mut dyn Transport, phase: &str) -> io::Result<Message> {
    match recv_msg(transport)? {
        Message::Abort { reason } => Err(io::Error::other(format!(
            "coordinator aborted during {phase}: {reason}"
        ))),
        m => Ok(m),
    }
}

fn protocol_err(phase: &str, got: &Message) -> io::Error {
    corrupt(format!(
        "{phase}: unexpected {} message from coordinator",
        Message::tag_name(got.tag())
    ))
}

fn serve(
    transport: &mut dyn Transport,
    resolver: &dyn SourceResolver,
    handshake: Handshake,
) -> io::Result<()> {
    send_msg(
        transport,
        &match handshake {
            Handshake::Hello => Message::Hello {
                version: PROTOCOL_VERSION,
            },
            Handshake::Rejoin => Message::Rejoin {
                version: PROTOCOL_VERSION,
            },
        },
    )?;
    loop {
        match expect(transport, "assignment")? {
            // First issuance and re-issue run the identical job body.
            Message::Job(job) | Message::Reissue(job) => serve_job(transport, resolver, job)?,
            // The job is complete (or the graph was empty).
            Message::Shutdown => return Ok(()),
            other => return Err(protocol_err("assignment", &other)),
        }
    }
}

fn serve_job(
    transport: &mut dyn Transport,
    resolver: &dyn SourceResolver,
    job: Job,
) -> io::Result<()> {
    let shard = job.worker_index;
    let epoch = job.epoch;
    if job.trace {
        // Enable recording and discard anything a previous (failed) job
        // left on this serving thread, so the shipped events describe
        // exactly this issuance.
        tps_obs::set_enabled(true);
        let _ = tps_obs::take_thread_events();
    }
    // The budget does not reach a worker's memory (no cluster paging, and
    // decoded v2 ranges spill to disk), but a budget whose bytes overflow
    // is a corrupt job, not a bigger one.
    if job.mem_budget_mb.checked_mul(1 << 20).is_none() {
        return Err(corrupt(format!(
            "job memory budget of {} MiB overflows 64-bit byte counts",
            job.mem_budget_mb
        )));
    }
    let source = resolver.open(&job.input)?;
    let info = source.info();
    if info.num_vertices != job.num_vertices || info.num_edges != job.num_edges {
        return Err(corrupt(format!(
            "input mismatch: job says {}V/{}E, opened source has {}V/{}E",
            job.num_vertices, job.num_edges, info.num_vertices, info.num_edges
        )));
    }

    // Phase 0: shard degrees up, merged degrees + volume cap down.
    let sp = tps_obs::span("degree");
    let local_degrees = shard_degrees(&*source, job.shard, job.num_vertices)?;
    sp.end();
    send_msg(
        transport,
        &Message::Degrees {
            shard,
            epoch,
            degrees: local_degrees.iter().collect(),
        },
    )?;
    drop(local_degrees);
    let (degrees, volume_cap) = match expect(transport, "degree barrier")? {
        Message::Globals {
            degrees,
            volume_cap,
        } => {
            if degrees.len() as u64 != job.num_vertices {
                return Err(corrupt("merged degree table has the wrong vertex count"));
            }
            (DegreeTable::from_vec(degrees), volume_cap)
        }
        other => return Err(protocol_err("degree barrier", &other)),
    };

    // Phase 1: shard clustering up, merged clustering + placement down.
    let sp = tps_obs::span("clustering");
    let local_clustering = shard_clustering(
        &*source,
        job.shard,
        &job.config,
        &degrees,
        volume_cap,
        job.num_vertices,
        true,
    )?;
    sp.end();
    send_msg(
        transport,
        &Message::LocalClustering {
            shard,
            epoch,
            clustering: local_clustering,
        },
    )?;
    let (clustering, c2p) = match expect(transport, "clustering barrier")? {
        Message::Plan { clustering, c2p } => (clustering, c2p),
        other => return Err(protocol_err("clustering barrier", &other)),
    };
    if clustering.num_vertices() != job.num_vertices {
        return Err(corrupt("merged clustering has the wrong vertex count"));
    }
    if c2p.len() < clustering.num_cluster_ids() as usize || c2p.iter().any(|&p| p >= job.k) {
        return Err(corrupt("cluster placement is inconsistent with the plan"));
    }
    // Phase 2 reads the merged clustering frozen in place, as in the
    // in-process driver.
    let plan = clustering.freeze(c2p);

    // Phase 2: prepartition + score with the quota-sliced standalone loads
    // (identical decisions to the in-process ledger tracker).
    let cap = PartitionLoads::cap_for(job.k, job.num_edges, job.alpha);
    let loads = ShardLoads::try_standalone(
        job.k,
        cap,
        job.worker_index as usize,
        job.num_workers as usize,
    )?;
    let mut assigner = ShardAssigner::from_plan(
        job.config,
        &degrees,
        plan,
        tps_metrics::bitmatrix::ReplicationMatrix::try_new(job.num_vertices, job.k)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
        loads,
    );
    let mut log = DecisionLog::new(job.shard.1 - job.shard.0, job.k)?;
    if job.config.prepartitioning {
        let sp = tps_obs::span("prepartition");
        let mut s = source.open_range(job.shard.0, job.shard.1)?;
        assigner.prepartition_logged(&mut s, &mut log)?;
        if job.num_workers > 1 {
            // The replication barrier, in bounded vertex-range chunks
            // (protocol v3), strictly **interleaved**: send chunk `c`,
            // then block for merged chunk `c`. The coordinator's rounds
            // run in lockstep (collect chunk `c` from every shard, then
            // broadcast merged `c`), so interleaving keeps at most one
            // frame in flight per direction — sending every chunk up
            // front could deadlock a TCP transport once the unread merged
            // frames overflow the socket buffers, with both sides stuck
            // in blocking sends.
            let chunks = ReplChunks::new(job.num_vertices, job.k);
            for c in 0..chunks.count() {
                let (v0, v1) = chunks.vertex_range(c);
                send_msg(
                    transport,
                    &Message::ReplicationChunk {
                        shard,
                        epoch,
                        chunk: c,
                        words: assigner.replication_shard().range_words(v0, v1).to_vec(),
                    },
                )?;
                match expect(transport, "prepartition barrier")? {
                    Message::MergedReplicationChunk { chunk, words } => {
                        if chunk != c {
                            return Err(corrupt(format!(
                                "merged replication chunk {chunk} arrived out of order \
                                 (expected {c})"
                            )));
                        }
                        if words.len() != chunks.words_in_chunk(c) {
                            return Err(corrupt(format!(
                                "merged replication chunk {c} has {} words, expected {}",
                                words.len(),
                                chunks.words_in_chunk(c)
                            )));
                        }
                        let (v0, _) = chunks.vertex_range(c);
                        assigner
                            .install_replication_range(v0, &words)
                            .map_err(corrupt)?;
                    }
                    other => return Err(protocol_err("prepartition barrier", &other)),
                }
            }
        }
        sp.end();
    }
    {
        let sp = tps_obs::span("partition");
        let mut s = source.open_range(job.shard.0, job.shard.1)?;
        assigner.remaining_logged(&mut s, &mut log)?;
        sp.end();
    }
    let assigned: u64 = assigner.local_loads().iter().sum();
    // Ship this thread's drained events and a counter snapshot with the
    // barrier frame (v4) — the coordinator folds them into one trace. With
    // in-process (loopback) workers the counter snapshot is process-wide;
    // the coordinator keeps only per-worker *events* in that case.
    let (trace, counter_snap) = if job.trace {
        (tps_obs::take_thread_events(), tps_obs::counters_snapshot())
    } else {
        (Vec::new(), Vec::new())
    };
    send_msg(
        transport,
        &Message::ShardDone {
            shard,
            epoch,
            counters: assigner.counters(),
            loads: assigner.local_loads().to_vec(),
            assigned,
            trace,
            counter_snap,
        },
    )?;

    // Emit: stream the decisions back as bounded Run batches when pulled.
    match expect(transport, "emit")? {
        Message::Pull => {}
        other => return Err(protocol_err("emit", &other)),
    }
    {
        let mut sender = RunSender {
            transport,
            shard,
            epoch,
            batch: Vec::with_capacity(RUN_BATCH_EDGES),
        };
        let mut s = source.open_range(job.shard.0, job.shard.1)?;
        log.emit(&mut *s, &EmitPlan::new(assigner.plan(), job.k), &mut sender)?;
        sender.flush()?;
    }
    send_msg(transport, &Message::RunsDone { shard, epoch })?;
    Ok(())
}

/// An [`AssignmentSink`] that ships batches of [`RUN_BATCH_EDGES`] records
/// as `Run` frames.
struct RunSender<'a> {
    transport: &'a mut dyn Transport,
    shard: u32,
    epoch: u32,
    batch: Vec<(Edge, PartitionId)>,
}

impl RunSender<'_> {
    fn flush(&mut self) -> io::Result<()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let batch = std::mem::replace(&mut self.batch, Vec::with_capacity(RUN_BATCH_EDGES));
        send_msg(
            self.transport,
            &Message::Run {
                shard: self.shard,
                epoch: self.epoch,
                batch,
            },
        )
    }
}

impl AssignmentSink for RunSender<'_> {
    #[inline]
    fn assign(&mut self, edge: Edge, p: PartitionId) -> io::Result<()> {
        self.assign_batch(&[(edge, p)])
    }

    /// Frames are cut at [`RUN_BATCH_EDGES`] records however the records
    /// arrive.
    fn assign_batch(&mut self, mut batch: &[(Edge, PartitionId)]) -> io::Result<()> {
        while !batch.is_empty() {
            let room = RUN_BATCH_EDGES - self.batch.len();
            let (head, tail) = batch.split_at(room.min(batch.len()));
            self.batch.extend_from_slice(head);
            if self.batch.len() >= RUN_BATCH_EDGES {
                self.flush()?;
            }
            batch = tail;
        }
        Ok(())
    }
}
