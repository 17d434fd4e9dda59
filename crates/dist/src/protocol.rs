//! The coordinator/worker message schema.
//!
//! One partitioning job exchanges the following messages per shard, in
//! lockstep with the two-phase algorithm's barriers (tags in parentheses):
//!
//! | # | direction | message (tag) | carries |
//! |---|-----------|---------------|---------|
//! | 1 | W → C | `Hello` (1) / `Rejoin` (15) | protocol version |
//! | 2 | C → W | `Job` (2) / `Reissue` (16) | shard descriptor: config, k/α, graph info, edge range, epoch, input |
//! | 3 | W → C | `Degrees` (3) | shard/epoch + the shard's exact degree counts |
//! | 4 | C → W | `Globals` (4) | merged degrees + resolved cluster volume cap |
//! | 5 | W → C | `LocalClustering` (5) | shard/epoch + the shard's phase-1 clustering |
//! | 6 | C → W | `Plan` (6) | merged clustering + cluster→partition map |
//! | 7 | W → C | `ReplicationChunk` (7) × c | shard/epoch + one vertex-range of pre-partitioning replica bits (N > 1 only) |
//! | 8 | C → W | `MergedReplicationChunk` (8) × c | OR of all shards over that vertex range (N > 1 only) |
//! | 9 | W → C | `ShardDone` (9) | shard/epoch + phase-2 counters + per-partition loads + drained trace events + counter snapshot (v4) |
//! | 9a | C → W | `CensusPull` (17) × c | request one vertex-range chunk of the shard's final replica rows (v9) |
//! | 9b | W → C | `CensusChunk` (18) × c | shard/epoch + that chunk's packed words (v9) |
//! | 10 | C → W | `Pull` (10) | request this shard's assignment runs |
//! | 11 | W → C | `Run` (11) | shard/epoch + one bounded batch of `(edge, partition)` records |
//! | 12 | W → C | `RunsDone` (12) | shard/epoch: end of this shard's runs |
//! | 13 | C → W | `Shutdown` (13) | job complete |
//! | 14 | either | `Abort` (14) | fatal error with reason |
//!
//! Steps 7/8 are skipped when pre-partitioning is disabled or there is only
//! one shard — both sides derive that from the `Job`, so the trace stays
//! deterministic. Steps 9a/9b always run, chunk by chunk in lockstep (the
//! census round, below). The coordinator pulls runs shard-by-shard in shard order
//! (step 10), which is what makes the emitted stream bit-identical to the
//! in-process runner's worker-order replay without the coordinator ever
//! holding more than one `Run` batch in memory.
//!
//! # Vertex-range-chunked replication barrier (protocol v3)
//!
//! The replication barrier used to ship the whole `O(|V|·k)`-bit matrix as
//! one frame each way, which overflows the 1 GiB `MAX_FRAME_LEN` sanity
//! cap around `|V|·⌈k/64⌉ ≈ 134M` words. v3 splits the barrier into
//! deterministic **vertex-range chunks** ([`ReplChunks`], derived
//! identically on both sides from `(|V|, k)`): a worker sends one
//! [`ReplicationChunk`](Message::ReplicationChunk) per range, the
//! coordinator ORs each range across shards and broadcasts one
//! [`MergedReplicationChunk`](Message::MergedReplicationChunk) back per
//! range — merging and re-broadcasting *ranges* instead of whole matrices,
//! so every barrier frame is bounded (~[`REPL_CHUNK_WORDS`] words) and the
//! coordinator's live merge state is one range, not one matrix. Chunk
//! payloads use zero-word-run encoding ([`crate::wire::put_word_runs`]):
//! replication rows are mostly zero on sparse graphs, so the frames are
//! usually far below the bound too.
//!
//! # The census round (protocol v9)
//!
//! The run's quality — replication factor and balance — is counted from
//! the final replica rows, as `--threads N` counts it from its shared
//! matrix. Those rows live in the workers, so after the `ShardDone`
//! barrier the coordinator pulls them in, one [`ReplChunks`] chunk at a
//! time: for each chunk it sends every shard a
//! [`CensusPull`](Message::CensusPull) and receives that shard's
//! [`CensusChunk`](Message::CensusChunk) before asking the next, ORs the
//! chunks, counts the merged words ([`RowLayout::census`]) and drops
//! them. Only one chunk is ever in flight, so neither side — nor a
//! loopback channel between them — holds more than one chunk of a
//! `O(|V|·k)` matrix. A worker answers pulls until the `Pull` that starts
//! its emit, and then frees its rows.
//!
//! # Fault tolerance (protocol v2)
//!
//! Worker loss is routine, not fatal. Three additions make recovery safe:
//!
//! * **Per-shard epochs** — every issuance of a shard carries an epoch
//!   number (0 on first issue), and every worker→coordinator frame echoes
//!   `(shard, epoch)`. The coordinator discards frames tagged with an older
//!   epoch of the shard it is collecting — a presumed-dead worker's late
//!   frames are dropped, never merged twice.
//! * **`Reissue` (16)** — re-assignment of a shard whose previous worker
//!   failed, sent to a standby, an idle worker that already completed its
//!   own shard, or a reconnecting worker. Body is identical to `Job`; the
//!   distinct tag keeps traces self-describing.
//! * **`Rejoin` (15)** — the handshake of a worker that was previously
//!   connected (its connection broke, or its job aborted) and is offering
//!   itself for re-assignment. Body is identical to `Hello`.
//!
//! A worker serves jobs in a loop: after `RunsDone` it waits for another
//! `Reissue` or a `Shutdown`, so completed workers double as standbys.

use std::io;

use tps_clustering::model::Clustering;
use tps_core::two_phase::scoring::HdrfParams;
use tps_core::two_phase::{AssignCounters, MappingStrategy, RemainingStrategy, TwoPhaseConfig};
use tps_graph::types::{Edge, PartitionId};
use tps_metrics::bitmatrix::RowLayout;

use crate::wire::{
    corrupt, put_f64, put_string, put_u32, put_u64, put_vec_u32, put_vec_u64, put_word_runs, Reader,
};

/// Protocol version pinned by the `Hello`/`Rejoin` handshake. Bump on any
/// schema change — there is no in-band negotiation. v2 added per-shard
/// epochs and the `Rejoin`/`Reissue` recovery frames; v3 replaced the
/// whole-matrix `ReplicationShard`/`MergedReplication` barrier with
/// vertex-range `ReplicationChunk`/`MergedReplicationChunk` frames
/// (zero-word-run encoded, bounded size); v4 appended the `trace` flag to
/// `Job` and the drained trace events + counter snapshot to `ShardDone`
/// (additive fields, but the frames are not v3-compatible, hence the bump).
/// v5 partitioned the tag space: tags 1–31 stay with this partitioning
/// protocol, tags 32+ are reserved for the `tps-serve` request frames
/// (`tps_serve::proto`), which ride the same length-prefixed transport —
/// a v5 endpoint can therefore tell a misdirected serve frame from a
/// corrupt one. v6 appended `mem_budget_mb` to `Job` (same appended-last
/// discipline as the v4 `trace` flag) so workers honour the coordinator's
/// `--mem-budget-mb` decode-cache share (gone since decoded ranges spill
/// to disk: workers only check the field). v7 packs replica rows at k ≤ 64
/// into shared words ([`RowLayout`]), so the barrier's chunks are cut on
/// word boundaries and carry half the words at k = 32; a v6 peer would
/// misread every chunk's rows. v8 drops the reader-backend byte from a
/// `Job`'s path input: every worker reads its file one way, so a v7 peer
/// would misread the path. v9 adds the census round
/// (`CensusPull`/`CensusChunk`, tags 17/18) between `ShardDone` and
/// `Pull`: a v8 worker would take the first pull for a protocol error.
pub const PROTOCOL_VERSION: u32 = 9;

/// First message tag reserved for the `tps-serve` frame family (see the
/// v5 note on [`PROTOCOL_VERSION`]).
pub const SERVE_TAG_BASE: u8 = 32;

/// Edges per `Run` frame (bounded so neither side buffers a full shard:
/// 8192 records ≈ 96 KiB on the wire).
pub const RUN_BATCH_EDGES: usize = 8192;

/// Target packed words per replication and census chunk (128 KiB of
/// bits): the most either side copies of a matrix at once. The actual
/// per-frame word count is at most `max(this, ⌈k/64⌉)` — a chunk never
/// splits a word or a vertex row, so a single row larger than the target
/// (k beyond 1M partitions) becomes one chunk by itself.
pub const REPL_CHUNK_WORDS: usize = 1 << 14;

/// The deterministic vertex-range chunking of the replication barrier,
/// derived identically by the coordinator and every worker from the job's
/// `(num_vertices, k)` — chunk geometry never crosses the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplChunks {
    num_vertices: u64,
    layout: RowLayout,
    chunk_vertices: u64,
}

impl ReplChunks {
    /// The chunking for a `num_vertices × k` replication matrix: whole
    /// words of [`RowLayout::new(k)`](RowLayout::new), so every chunk
    /// starts at an aligned vertex.
    pub fn new(num_vertices: u64, k: u32) -> ReplChunks {
        assert!(k > 0, "k must be positive");
        let layout = RowLayout::new(k);
        let chunk_words = (REPL_CHUNK_WORDS / layout.words_per_row()).max(1) as u64;
        ReplChunks {
            num_vertices,
            layout,
            chunk_vertices: chunk_words * layout.rows_per_word(),
        }
    }

    /// Number of chunks (0 for an empty vertex set).
    pub fn count(&self) -> u32 {
        let n = self.num_vertices.div_ceil(self.chunk_vertices);
        debug_assert!(n <= u32::MAX as u64, "chunk count overflows u32");
        n as u32
    }

    /// The vertex range `[v0, v1)` of `chunk`.
    pub fn vertex_range(&self, chunk: u32) -> (u64, u64) {
        let v0 = chunk as u64 * self.chunk_vertices;
        debug_assert!(v0 < self.num_vertices, "chunk {chunk} out of range");
        (v0, (v0 + self.chunk_vertices).min(self.num_vertices))
    }

    /// Packed words carried by `chunk`.
    pub fn words_in_chunk(&self, chunk: u32) -> usize {
        let (v0, v1) = self.vertex_range(chunk);
        self.layout.words_for(v1 - v0).expect("a chunk fits memory")
    }

    /// How the chunks' rows are packed.
    pub fn layout(&self) -> RowLayout {
        self.layout
    }
}

/// How a worker obtains its edge source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InputDescriptor {
    /// The worker already holds the source (in-process loopback workers).
    Attached,
    /// Open `path` — a v1/v2 edge file on a filesystem shared with the
    /// coordinator.
    Path {
        /// Absolute path of the input file.
        path: String,
    },
}

/// Everything a worker needs to run its shard.
#[derive(Clone, Debug)]
pub struct Job {
    /// This shard's index in shard order.
    pub worker_index: u32,
    /// Total shards in the job.
    pub num_workers: u32,
    /// Issuance epoch of this shard: 0 on first issue, incremented on every
    /// re-issue after a worker failure. Echoed in every frame the worker
    /// sends for this job, so stale frames are identifiable.
    pub epoch: u32,
    /// Number of partitions.
    pub k: u32,
    /// Balance factor α.
    pub alpha: f64,
    /// The two-phase configuration (identical on every worker).
    pub config: TwoPhaseConfig,
    /// Vertices in the full graph.
    pub num_vertices: u64,
    /// Edges in the full graph.
    pub num_edges: u64,
    /// This worker's edge-index range `[start, end)`.
    pub shard: (u64, u64),
    /// Where the edges come from.
    pub input: InputDescriptor,
    /// Whether the worker should record span events and ship them (with a
    /// counter snapshot) in its `ShardDone` frame. Mirrors the
    /// coordinator's `--trace` state; does not change assignment output.
    pub trace: bool,
    /// The job's `--mem-budget-mb` (0 = unbudgeted). Workers check it and
    /// otherwise leave it unused: cluster-state paging is a one-shard
    /// concern, and decoded v2 ranges spill to disk rather than to a
    /// budgeted cache. It stays on the wire for a worker memory plan.
    /// Does not change assignment output.
    pub mem_budget_mb: u64,
}

/// A protocol message. See the module docs for the exchange order.
#[derive(Clone, Debug)]
pub enum Message {
    /// Worker handshake.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Handshake of a worker that was previously connected and is offering
    /// itself for re-assignment (reconnection or post-abort).
    Rejoin {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// First shard assignment (epoch 0).
    Job(Job),
    /// Re-assignment of a shard after a worker failure (epoch > 0).
    Reissue(Job),
    /// A shard's exact degree counts.
    Degrees {
        /// Shard index this contribution is for.
        shard: u32,
        /// Issuance epoch the sender is serving.
        epoch: u32,
        /// Exact degrees over the shard's edge range.
        degrees: Vec<u32>,
    },
    /// Merged degrees and the resolved cluster volume cap.
    Globals {
        /// Exact degrees over the full graph.
        degrees: Vec<u32>,
        /// The resolved per-cluster volume cap.
        volume_cap: u64,
    },
    /// A shard's local phase-1 clustering.
    LocalClustering {
        /// Shard index this contribution is for.
        shard: u32,
        /// Issuance epoch the sender is serving.
        epoch: u32,
        /// The shard's streaming clustering.
        clustering: Clustering,
    },
    /// The merged clustering and its cluster→partition placement.
    Plan {
        /// Union-by-volume merged clustering.
        clustering: Clustering,
        /// Cluster id → partition id.
        c2p: Vec<PartitionId>,
    },
    /// One vertex-range chunk of a shard's pre-partitioning replication
    /// bits (chunk geometry: [`ReplChunks`]; sent in chunk order).
    ReplicationChunk {
        /// Shard index this contribution is for.
        shard: u32,
        /// Issuance epoch the sender is serving.
        epoch: u32,
        /// Chunk index in `0..ReplChunks::count()`.
        chunk: u32,
        /// The chunk's packed words (zero-word-run encoded on the wire).
        words: Vec<u64>,
    },
    /// One merged vertex-range chunk: the OR of every shard's
    /// [`ReplicationChunk`](Message::ReplicationChunk) for that range.
    MergedReplicationChunk {
        /// Chunk index in `0..ReplChunks::count()`.
        chunk: u32,
        /// The merged packed words (zero-word-run encoded on the wire).
        words: Vec<u64>,
    },
    /// A shard's phase-2 summary.
    ShardDone {
        /// Shard index this summary is for.
        shard: u32,
        /// Issuance epoch the sender is serving.
        epoch: u32,
        /// The shard's assignment counters.
        counters: AssignCounters,
        /// Edges the shard committed per partition.
        loads: Vec<u64>,
        /// Total edges the shard assigned.
        assigned: u64,
        /// The worker's drained span/mark events (empty unless the job was
        /// traced). The `worker` field is assigned coordinator-side.
        trace: Vec<tps_obs::TraceEvent>,
        /// The worker's counter values at the barrier (empty unless
        /// traced).
        counter_snap: Vec<(String, u64)>,
    },
    /// Request one chunk of the worker's final replica rows (the census
    /// round, v9).
    CensusPull {
        /// Chunk index in `0..ReplChunks::count()`.
        chunk: u32,
    },
    /// One vertex-range chunk of a shard's final replica rows: its
    /// pre-partitioning and scoring replicas over that range.
    CensusChunk {
        /// Shard index these rows belong to.
        shard: u32,
        /// Issuance epoch the sender is serving.
        epoch: u32,
        /// Chunk index in `0..ReplChunks::count()`.
        chunk: u32,
        /// The chunk's packed words (zero-word-run encoded on the wire).
        words: Vec<u64>,
    },
    /// Request the worker's assignment runs.
    Pull,
    /// One bounded batch of assignments, in decision order.
    Run {
        /// Shard index these assignments belong to.
        shard: u32,
        /// Issuance epoch the sender is serving.
        epoch: u32,
        /// The assignment records, in decision order.
        batch: Vec<(Edge, PartitionId)>,
    },
    /// End of this shard's runs.
    RunsDone {
        /// Shard index whose runs are complete.
        shard: u32,
        /// Issuance epoch the sender is serving.
        epoch: u32,
    },
    /// Job complete; the worker may exit.
    Shutdown,
    /// Fatal error.
    Abort {
        /// Human-readable cause.
        reason: String,
    },
}

impl Message {
    /// The message's wire tag.
    pub fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => 1,
            Message::Job(_) => 2,
            Message::Degrees { .. } => 3,
            Message::Globals { .. } => 4,
            Message::LocalClustering { .. } => 5,
            Message::Plan { .. } => 6,
            Message::ReplicationChunk { .. } => 7,
            Message::MergedReplicationChunk { .. } => 8,
            Message::ShardDone { .. } => 9,
            Message::Pull => 10,
            Message::Run { .. } => 11,
            Message::RunsDone { .. } => 12,
            Message::Shutdown => 13,
            Message::Abort { .. } => 14,
            Message::Rejoin { .. } => 15,
            Message::Reissue(_) => 16,
            Message::CensusPull { .. } => 17,
            Message::CensusChunk { .. } => 18,
        }
    }

    /// Human-readable name of a wire tag (diagnostics and traces).
    pub fn tag_name(tag: u8) -> &'static str {
        match tag {
            1 => "Hello",
            2 => "Job",
            3 => "Degrees",
            4 => "Globals",
            5 => "LocalClustering",
            6 => "Plan",
            7 => "ReplicationChunk",
            8 => "MergedReplicationChunk",
            9 => "ShardDone",
            10 => "Pull",
            11 => "Run",
            12 => "RunsDone",
            13 => "Shutdown",
            14 => "Abort",
            15 => "Rejoin",
            16 => "Reissue",
            17 => "CensusPull",
            18 => "CensusChunk",
            _ => "unknown",
        }
    }

    /// The `(shard, epoch)` envelope of worker→coordinator data frames, if
    /// this message carries one — the coordinator's staleness check.
    pub fn shard_epoch(&self) -> Option<(u32, u32)> {
        match self {
            Message::Degrees { shard, epoch, .. }
            | Message::LocalClustering { shard, epoch, .. }
            | Message::ReplicationChunk { shard, epoch, .. }
            | Message::ShardDone { shard, epoch, .. }
            | Message::CensusChunk { shard, epoch, .. }
            | Message::Run { shard, epoch, .. }
            | Message::RunsDone { shard, epoch } => Some((*shard, *epoch)),
            _ => None,
        }
    }

    /// Serialise into a frame body (tag byte + message body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.tag()];
        match self {
            Message::Hello { version } | Message::Rejoin { version } => put_u32(&mut out, *version),
            Message::Job(job) | Message::Reissue(job) => encode_job(&mut out, job),
            Message::Degrees {
                shard,
                epoch,
                degrees,
            } => {
                put_u32(&mut out, *shard);
                put_u32(&mut out, *epoch);
                put_vec_u32(&mut out, degrees);
            }
            Message::Globals {
                degrees,
                volume_cap,
            } => return encode_globals(degrees.iter().copied(), *volume_cap),
            Message::LocalClustering {
                shard,
                epoch,
                clustering,
            } => {
                put_u32(&mut out, *shard);
                put_u32(&mut out, *epoch);
                clustering.encode_into(&mut out);
            }
            Message::Plan { clustering, c2p } => {
                clustering.encode_into(&mut out);
                put_vec_u32(&mut out, c2p);
            }
            Message::ReplicationChunk {
                shard,
                epoch,
                chunk,
                words,
            }
            | Message::CensusChunk {
                shard,
                epoch,
                chunk,
                words,
            } => {
                put_u32(&mut out, *shard);
                put_u32(&mut out, *epoch);
                put_u32(&mut out, *chunk);
                put_word_runs(&mut out, words);
            }
            Message::MergedReplicationChunk { chunk, words } => {
                return encode_merged_chunk(*chunk, words)
            }
            Message::CensusPull { chunk } => put_u32(&mut out, *chunk),
            Message::ShardDone {
                shard,
                epoch,
                counters,
                loads,
                assigned,
                trace,
                counter_snap,
            } => {
                put_u32(&mut out, *shard);
                put_u32(&mut out, *epoch);
                put_u64(&mut out, counters.prepartitioned);
                put_u64(&mut out, counters.prepartition_overflow);
                put_u64(&mut out, counters.remaining);
                put_u64(&mut out, counters.fallback_hash);
                put_u64(&mut out, counters.fallback_least_loaded);
                put_u64(&mut out, *assigned);
                put_vec_u64(&mut out, loads);
                put_trace_events(&mut out, trace);
                put_counter_snap(&mut out, counter_snap);
            }
            Message::Pull | Message::Shutdown => {}
            Message::RunsDone { shard, epoch } => {
                put_u32(&mut out, *shard);
                put_u32(&mut out, *epoch);
            }
            Message::Run {
                shard,
                epoch,
                batch,
            } => {
                put_u32(&mut out, *shard);
                put_u32(&mut out, *epoch);
                put_u32(&mut out, batch.len() as u32);
                for (e, p) in batch {
                    put_u32(&mut out, e.src);
                    put_u32(&mut out, e.dst);
                    put_u32(&mut out, *p);
                }
            }
            Message::Abort { reason } => put_string(&mut out, reason),
        }
        out
    }

    /// Parse a frame body. Every malformed input is an `InvalidData` error.
    pub fn decode(frame: &[u8]) -> io::Result<Message> {
        let (&tag, body) = frame
            .split_first()
            .ok_or_else(|| corrupt("empty frame (missing message tag)"))?;
        let mut r = Reader::new(body);
        let msg = match tag {
            1 => Message::Hello { version: r.u32()? },
            15 => Message::Rejoin { version: r.u32()? },
            2 => Message::Job(decode_job(&mut r)?),
            16 => Message::Reissue(decode_job(&mut r)?),
            3 => {
                let shard = r.u32()?;
                let epoch = r.u32()?;
                Message::Degrees {
                    shard,
                    epoch,
                    degrees: r.vec_u32()?,
                }
            }
            4 => {
                let volume_cap = r.u64()?;
                let degrees = r.vec_u32()?;
                Message::Globals {
                    degrees,
                    volume_cap,
                }
            }
            5 => {
                let shard = r.u32()?;
                let epoch = r.u32()?;
                Message::LocalClustering {
                    shard,
                    epoch,
                    clustering: decode_clustering(&mut r)?,
                }
            }
            6 => {
                let clustering = decode_clustering(&mut r)?;
                let c2p = r.vec_u32()?;
                Message::Plan { clustering, c2p }
            }
            7 => {
                let shard = r.u32()?;
                let epoch = r.u32()?;
                let chunk = r.u32()?;
                Message::ReplicationChunk {
                    shard,
                    epoch,
                    chunk,
                    words: r.word_runs()?,
                }
            }
            8 => Message::MergedReplicationChunk {
                chunk: r.u32()?,
                words: r.word_runs()?,
            },
            17 => Message::CensusPull { chunk: r.u32()? },
            18 => {
                let shard = r.u32()?;
                let epoch = r.u32()?;
                let chunk = r.u32()?;
                Message::CensusChunk {
                    shard,
                    epoch,
                    chunk,
                    words: r.word_runs()?,
                }
            }
            9 => {
                let shard = r.u32()?;
                let epoch = r.u32()?;
                let counters = AssignCounters {
                    prepartitioned: r.u64()?,
                    prepartition_overflow: r.u64()?,
                    remaining: r.u64()?,
                    fallback_hash: r.u64()?,
                    fallback_least_loaded: r.u64()?,
                };
                let assigned = r.u64()?;
                let loads = r.vec_u64()?;
                let trace = read_trace_events(&mut r)?;
                let counter_snap = read_counter_snap(&mut r)?;
                Message::ShardDone {
                    shard,
                    epoch,
                    counters,
                    loads,
                    assigned,
                    trace,
                    counter_snap,
                }
            }
            10 => Message::Pull,
            11 => {
                let shard = r.u32()?;
                let epoch = r.u32()?;
                let n = r.u32()? as usize;
                if n > RUN_BATCH_EDGES {
                    return Err(corrupt(format!(
                        "run batch of {n} edges exceeds bound {RUN_BATCH_EDGES}"
                    )));
                }
                let mut batch = Vec::with_capacity(n);
                for _ in 0..n {
                    let src = r.u32()?;
                    let dst = r.u32()?;
                    let p = r.u32()?;
                    batch.push((Edge { src, dst }, p));
                }
                Message::Run {
                    shard,
                    epoch,
                    batch,
                }
            }
            12 => Message::RunsDone {
                shard: r.u32()?,
                epoch: r.u32()?,
            },
            13 => Message::Shutdown,
            14 => Message::Abort {
                reason: r.string()?,
            },
            other if other >= SERVE_TAG_BASE => {
                return Err(corrupt(format!(
                    "message tag {other} belongs to the tps-serve frame family \
                     (tags {SERVE_TAG_BASE}+) — this endpoint speaks the \
                     partitioning protocol"
                )))
            }
            other => return Err(corrupt(format!("unknown message tag {other}"))),
        };
        r.expect_empty()?;
        Ok(msg)
    }
}

/// The `Globals` frame of merged `degrees` (|V| of them) and the cluster
/// volume cap, encoded straight from the degree table — the coordinator
/// never holds the table twice.
pub fn encode_globals(degrees: impl ExactSizeIterator<Item = u32>, volume_cap: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + 4 + 4 * degrees.len());
    out.push(4);
    put_u64(&mut out, volume_cap);
    put_u32(&mut out, degrees.len() as u32);
    for d in degrees {
        put_u32(&mut out, d);
    }
    out
}

/// The `MergedReplicationChunk` frame of `chunk`'s merged `words`, encoded
/// from the coordinator's reused merge buffer.
pub fn encode_merged_chunk(chunk: u32, words: &[u64]) -> Vec<u8> {
    let mut out = vec![8];
    put_u32(&mut out, chunk);
    put_word_runs(&mut out, words);
    out
}

/// Sanity cap on shipped trace events per `ShardDone` (a traced worker
/// records a handful of spans per phase; anything near this is corruption).
const MAX_TRACE_EVENTS: usize = 1 << 16;
/// Sanity cap on shipped counter snapshot entries.
const MAX_TRACE_COUNTERS: usize = 1 << 12;

fn put_trace_events(out: &mut Vec<u8>, events: &[tps_obs::TraceEvent]) {
    put_u32(out, events.len() as u32);
    for e in events {
        out.push(match e.kind {
            tps_obs::EventKind::Open => 0,
            tps_obs::EventKind::Close => 1,
            tps_obs::EventKind::Mark => 2,
        });
        put_string(out, &e.name);
        put_u32(out, e.tid);
        put_u64(out, e.ns);
        match &e.detail {
            None => out.push(0),
            Some(d) => {
                out.push(1);
                put_string(out, d);
            }
        }
    }
}

fn read_trace_events(r: &mut Reader) -> io::Result<Vec<tps_obs::TraceEvent>> {
    let n = r.u32()? as usize;
    if n > MAX_TRACE_EVENTS {
        return Err(corrupt(format!(
            "trace event count {n} exceeds bound {MAX_TRACE_EVENTS}"
        )));
    }
    let mut events = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let kind = match r.u8()? {
            0 => tps_obs::EventKind::Open,
            1 => tps_obs::EventKind::Close,
            2 => tps_obs::EventKind::Mark,
            other => return Err(corrupt(format!("unknown trace event kind {other}"))),
        };
        let name = r.string()?;
        let tid = r.u32()?;
        let ns = r.u64()?;
        let detail = match r.u8()? {
            0 => None,
            1 => Some(r.string()?),
            other => return Err(corrupt(format!("bad trace detail flag {other}"))),
        };
        events.push(tps_obs::TraceEvent {
            kind,
            name,
            worker: 0, // assigned by the coordinator on receipt
            tid,
            ns,
            detail,
        });
    }
    Ok(events)
}

fn put_counter_snap(out: &mut Vec<u8>, snap: &[(String, u64)]) {
    put_u32(out, snap.len() as u32);
    for (name, value) in snap {
        put_string(out, name);
        put_u64(out, *value);
    }
}

fn read_counter_snap(r: &mut Reader) -> io::Result<Vec<(String, u64)>> {
    let n = r.u32()? as usize;
    if n > MAX_TRACE_COUNTERS {
        return Err(corrupt(format!(
            "counter snapshot of {n} entries exceeds bound {MAX_TRACE_COUNTERS}"
        )));
    }
    let mut snap = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = r.string()?;
        snap.push((name, r.u64()?));
    }
    Ok(snap)
}

fn decode_clustering<'a>(r: &mut Reader<'a>) -> io::Result<Clustering> {
    let (c, rest) = Clustering::decode_from(r.tail()).map_err(corrupt)?;
    r.set_tail(rest);
    Ok(c)
}

fn encode_job(out: &mut Vec<u8>, job: &Job) {
    put_u32(out, job.worker_index);
    put_u32(out, job.num_workers);
    put_u32(out, job.epoch);
    put_u32(out, job.k);
    put_f64(out, job.alpha);
    // TwoPhaseConfig, field by field.
    put_u32(out, job.config.clustering_passes);
    put_f64(out, job.config.volume_cap_factor);
    match job.config.strategy {
        RemainingStrategy::TwoChoice => out.push(0),
        RemainingStrategy::Hdrf(h) => {
            out.push(1);
            put_f64(out, h.lambda);
            put_f64(out, h.epsilon);
        }
    }
    out.push(match job.config.mapping {
        MappingStrategy::SortedGraham => 0,
        MappingStrategy::UnsortedFirstFit => 1,
    });
    out.push(job.config.prepartitioning as u8);
    put_u64(out, job.config.hash_seed);
    put_u64(out, job.num_vertices);
    put_u64(out, job.num_edges);
    put_u64(out, job.shard.0);
    put_u64(out, job.shard.1);
    match &job.input {
        InputDescriptor::Attached => out.push(0),
        InputDescriptor::Path { path } => {
            out.push(1);
            put_string(out, path);
        }
    }
    // v4: appended last so every fixed field keeps its v3 offset.
    out.push(job.trace as u8);
    // v6: appended after the v4 tail for the same reason.
    put_u64(out, job.mem_budget_mb);
}

fn decode_job(r: &mut Reader) -> io::Result<Job> {
    let worker_index = r.u32()?;
    let num_workers = r.u32()?;
    let epoch = r.u32()?;
    let k = r.u32()?;
    let alpha = r.f64()?;
    let clustering_passes = r.u32()?;
    let volume_cap_factor = r.f64()?;
    let strategy = match r.u8()? {
        0 => RemainingStrategy::TwoChoice,
        1 => RemainingStrategy::Hdrf(HdrfParams {
            lambda: r.f64()?,
            epsilon: r.f64()?,
        }),
        other => return Err(corrupt(format!("unknown scoring strategy {other}"))),
    };
    let mapping = match r.u8()? {
        0 => MappingStrategy::SortedGraham,
        1 => MappingStrategy::UnsortedFirstFit,
        other => return Err(corrupt(format!("unknown mapping strategy {other}"))),
    };
    let prepartitioning = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(corrupt(format!("bad prepartitioning flag {other}"))),
    };
    let hash_seed = r.u64()?;
    let num_vertices = r.u64()?;
    let num_edges = r.u64()?;
    let shard = (r.u64()?, r.u64()?);
    let input = match r.u8()? {
        0 => InputDescriptor::Attached,
        1 => InputDescriptor::Path { path: r.string()? },
        other => return Err(corrupt(format!("unknown input descriptor {other}"))),
    };
    let trace = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(corrupt(format!("bad trace flag {other}"))),
    };
    let mem_budget_mb = r.u64()?;
    if num_workers == 0 || worker_index >= num_workers {
        return Err(corrupt(format!(
            "worker index {worker_index} out of range for {num_workers} workers"
        )));
    }
    if k == 0
        || alpha < 1.0
        || alpha.is_nan()
        || volume_cap_factor <= 0.0
        || volume_cap_factor.is_nan()
        || clustering_passes == 0
    {
        return Err(corrupt("job parameters out of range"));
    }
    if shard.0 > shard.1 || shard.1 > num_edges {
        return Err(corrupt(format!(
            "shard [{}, {}) out of bounds for |E| = {num_edges}",
            shard.0, shard.1
        )));
    }
    Ok(Job {
        worker_index,
        num_workers,
        epoch,
        k,
        alpha,
        config: TwoPhaseConfig {
            clustering_passes,
            volume_cap_factor,
            strategy,
            mapping,
            prepartitioning,
            hash_seed,
        },
        num_vertices,
        num_edges,
        shard,
        input,
        trace,
        mem_budget_mb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Message) -> Message {
        let bytes = msg.encode();
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded.encode(), bytes, "re-encode must be stable");
        decoded
    }

    #[test]
    fn job_roundtrips_both_strategies_and_inputs() {
        for (config, input) in [
            (TwoPhaseConfig::default(), InputDescriptor::Attached),
            (
                TwoPhaseConfig::hdrf_variant(),
                InputDescriptor::Path {
                    path: "/data/graph.bel".into(),
                },
            ),
        ] {
            let job = Job {
                worker_index: 1,
                num_workers: 4,
                epoch: 3,
                k: 32,
                alpha: 1.05,
                config,
                num_vertices: 1000,
                num_edges: 5000,
                shard: (1250, 2500),
                input: input.clone(),
                trace: true,
                mem_budget_mb: 512,
            };
            let Message::Job(back) = roundtrip(&Message::Job(job.clone())) else {
                panic!("tag changed");
            };
            assert_eq!(back.shard, (1250, 2500));
            assert_eq!(back.epoch, 3);
            assert_eq!(back.input, input);
            assert!(back.trace);
            assert_eq!(back.mem_budget_mb, 512);
            assert_eq!(back.config.hash_seed, TwoPhaseConfig::default().hash_seed);
            // A Reissue carries the identical body under its own tag.
            let Message::Reissue(again) = roundtrip(&Message::Reissue(job)) else {
                panic!("tag changed");
            };
            assert_eq!(again.epoch, 3);
        }
    }

    #[test]
    fn every_fixed_message_roundtrips() {
        for msg in [
            Message::Hello {
                version: PROTOCOL_VERSION,
            },
            Message::Rejoin {
                version: PROTOCOL_VERSION,
            },
            Message::Degrees {
                shard: 1,
                epoch: 2,
                degrees: vec![0, 3, 7],
            },
            Message::Globals {
                degrees: vec![1, 2],
                volume_cap: 99,
            },
            Message::ShardDone {
                shard: 3,
                epoch: 1,
                counters: AssignCounters {
                    prepartitioned: 1,
                    prepartition_overflow: 2,
                    remaining: 3,
                    fallback_hash: 4,
                    fallback_least_loaded: 5,
                },
                loads: vec![7, 8],
                assigned: 15,
                trace: vec![],
                counter_snap: vec![],
            },
            Message::CensusPull { chunk: 3 },
            Message::Pull,
            Message::Run {
                shard: 0,
                epoch: 4,
                batch: vec![(Edge::new(1, 2), 0), (Edge::new(3, 4), 7)],
            },
            Message::RunsDone { shard: 2, epoch: 0 },
            Message::Shutdown,
            Message::Abort {
                reason: "boom".into(),
            },
        ] {
            let tag = msg.tag();
            assert_eq!(roundtrip(&msg).tag(), tag);
        }
    }

    #[test]
    fn shard_epoch_envelope_is_exposed_on_worker_data_frames() {
        assert_eq!(
            Message::Degrees {
                shard: 2,
                epoch: 5,
                degrees: vec![],
            }
            .shard_epoch(),
            Some((2, 5))
        );
        assert_eq!(
            Message::RunsDone { shard: 1, epoch: 9 }.shard_epoch(),
            Some((1, 9))
        );
        assert_eq!(
            Message::CensusChunk {
                shard: 3,
                epoch: 4,
                chunk: 0,
                words: vec![],
            }
            .shard_epoch(),
            Some((3, 4))
        );
        assert_eq!(Message::CensusPull { chunk: 1 }.shard_epoch(), None);
        assert_eq!(Message::Pull.shard_epoch(), None);
        assert_eq!(Message::Shutdown.shard_epoch(), None);
        assert_eq!(
            Message::Hello {
                version: PROTOCOL_VERSION
            }
            .shard_epoch(),
            None
        );
    }

    #[test]
    fn clustering_and_replication_messages_roundtrip() {
        let c = Clustering::from_parts(vec![0, 1, u32::MAX], vec![3, 4]);
        let Message::Plan { clustering, c2p } = roundtrip(&Message::Plan {
            clustering: c.clone(),
            c2p: vec![1, 0],
        }) else {
            panic!("tag changed");
        };
        assert_eq!(clustering.volumes(), &[3, 4]);
        assert_eq!(c2p, vec![1, 0]);

        let Message::LocalClustering {
            shard,
            epoch,
            clustering,
        } = roundtrip(&Message::LocalClustering {
            shard: 1,
            epoch: 2,
            clustering: c,
        })
        else {
            panic!("tag changed");
        };
        assert_eq!((shard, epoch), (1, 2));
        assert_eq!(clustering.volumes(), &[3, 4]);

        // Chunk payloads: empty, all-zero, and mixed-run words roundtrip.
        for words in [vec![], vec![0u64; 9], vec![0, 7, 0, 0, 9]] {
            let Message::ReplicationChunk {
                shard,
                epoch,
                chunk,
                words: back,
            } = roundtrip(&Message::ReplicationChunk {
                shard: 3,
                epoch: 1,
                chunk: 2,
                words: words.clone(),
            })
            else {
                panic!("tag changed");
            };
            assert_eq!((shard, epoch, chunk), (3, 1, 2));
            assert_eq!(back, words);

            let Message::MergedReplicationChunk { chunk, words: back } =
                roundtrip(&Message::MergedReplicationChunk {
                    chunk: 4,
                    words: words.clone(),
                })
            else {
                panic!("tag changed");
            };
            assert_eq!(chunk, 4);
            assert_eq!(back, words);

            let Message::CensusChunk {
                shard,
                epoch,
                chunk,
                words: back,
            } = roundtrip(&Message::CensusChunk {
                shard: 1,
                epoch: 2,
                chunk: 5,
                words: words.clone(),
            })
            else {
                panic!("tag changed");
            };
            assert_eq!((shard, epoch, chunk), (1, 2, 5));
            assert_eq!(back, words);
        }
    }

    #[test]
    fn corrupt_replication_chunks_error_not_panic() {
        let good = Message::ReplicationChunk {
            shard: 0,
            epoch: 0,
            chunk: 1,
            words: vec![0, 0, 5, 6],
        }
        .encode();
        for cut in [1, 8, 13, good.len() - 1] {
            assert!(Message::decode(&good[..cut]).is_err(), "cut {cut}");
        }
        // A word count past the sanity cap is corruption, not an
        // allocation request.
        let mut out = vec![7u8];
        put_u32(&mut out, 0);
        put_u32(&mut out, 0);
        put_u32(&mut out, 0);
        put_u32(&mut out, (crate::wire::MAX_RUN_WORDS + 1) as u32);
        assert!(Message::decode(&out).is_err());
        // Trailing garbage after a complete chunk body.
        let mut trailing = good.clone();
        trailing.push(9);
        assert!(Message::decode(&trailing).is_err());
    }

    #[test]
    fn chunk_geometry_is_deterministic_and_bounded() {
        // Small graphs: one chunk covering everything. At k = 8 a row is an
        // 8-bit lane and eight rows share a word.
        let small = ReplChunks::new(1000, 8);
        assert_eq!(small.count(), 1);
        assert_eq!(small.vertex_range(0), (0, 1000));
        assert_eq!(small.words_in_chunk(0), 125);

        // Empty vertex set: no chunks.
        assert_eq!(ReplChunks::new(0, 8).count(), 0);

        // 100 000 rows are 12 500 words: still one chunk at k = 8.
        let mid = ReplChunks::new(100_000, 8);
        assert_eq!(mid.count(), 1);
        assert_eq!(mid.words_in_chunk(0), 12_500);

        // Beyond the target (2^14 words = 2^17 rows at k = 8): multiple
        // chunks, exact cover, aligned starts, bounded words, and a ragged
        // tail whose last word is part-filled.
        let big = ReplChunks::new(300_003, 8);
        assert_eq!(big.count(), 3);
        let mut covered = 0;
        for c in 0..big.count() {
            let (v0, v1) = big.vertex_range(c);
            assert_eq!(v0, covered, "chunks must tile the vertex space");
            assert_eq!(v0 % 8, 0, "chunks start on a word boundary");
            assert!(big.words_in_chunk(c) <= REPL_CHUNK_WORDS);
            covered = v1;
        }
        assert_eq!(covered, 300_003);
        assert_eq!(big.words_in_chunk(0), REPL_CHUNK_WORDS);
        assert_eq!(big.vertex_range(2), (2 << 17, 300_003));
        assert_eq!(
            big.words_in_chunk(2),
            (300_003 - (2 << 17) as usize).div_ceil(8)
        );

        // Wide k: fewer vertices per chunk (⌊2^14 / 3⌋ = 5 461 rows), same
        // bound.
        let wide = ReplChunks::new(40_000, 130);
        assert_eq!(wide.layout().words_per_row(), 3);
        assert_eq!(wide.count(), 8);
        assert!(wide.count() > big.count());
        for c in 0..wide.count() {
            assert!(wide.words_in_chunk(c) <= REPL_CHUNK_WORDS);
        }

        // Absurdly wide k (a vertex row larger than the target): one
        // vertex per chunk, frame = one row.
        let row = ReplChunks::new(4, u32::MAX);
        assert_eq!(row.count(), 4);
        assert_eq!(row.words_in_chunk(0), row.layout().words_per_row());
    }

    #[test]
    fn corrupt_bodies_error_not_panic() {
        // Empty frame, unknown tag, truncated bodies, trailing garbage,
        // out-of-range enum values.
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[99]).is_err());
        assert!(Message::decode(&[1, 0, 0]).is_err(), "Hello cut short");
        assert!(Message::decode(&[15, 0]).is_err(), "Rejoin cut short");
        let mut hello = Message::Hello { version: 1 }.encode();
        hello.push(0);
        assert!(Message::decode(&hello).is_err(), "trailing byte");
        let mut job = Message::Job(Job {
            worker_index: 0,
            num_workers: 1,
            epoch: 0,
            k: 2,
            alpha: 1.05,
            config: TwoPhaseConfig::default(),
            num_vertices: 10,
            num_edges: 10,
            shard: (0, 10),
            input: InputDescriptor::Attached,
            trace: false,
            mem_budget_mb: 0,
        })
        .encode();
        for cut in [1, 5, job.len() / 2, job.len() - 1] {
            assert!(Message::decode(&job[..cut]).is_err(), "cut {cut}");
        }
        // Strategy byte out of range (offset: tag 1 + 4×u32 16 + f64 8 +
        // u32 4 + f64 8 = byte 37).
        job[37] = 9;
        assert!(Message::decode(&job).is_err());
    }

    #[test]
    fn shard_bounds_are_validated_on_decode() {
        let job = Job {
            worker_index: 0,
            num_workers: 2,
            epoch: 0,
            k: 4,
            alpha: 1.05,
            config: TwoPhaseConfig::default(),
            num_vertices: 10,
            num_edges: 10,
            shard: (8, 20),
            input: InputDescriptor::Attached,
            trace: false,
            mem_budget_mb: 0,
        };
        assert!(Message::decode(&Message::Job(job).encode()).is_err());
    }

    #[test]
    fn oversized_run_batch_rejected() {
        let mut out = vec![11u8];
        put_u32(&mut out, 0);
        put_u32(&mut out, 0);
        put_u32(&mut out, (RUN_BATCH_EDGES + 1) as u32);
        assert!(Message::decode(&out).is_err());
    }

    #[test]
    fn shard_done_trace_payload_roundtrips() {
        let msg = Message::ShardDone {
            shard: 2,
            epoch: 1,
            counters: AssignCounters::default(),
            loads: vec![3, 4],
            assigned: 7,
            trace: vec![
                tps_obs::TraceEvent {
                    kind: tps_obs::EventKind::Open,
                    name: "degree".into(),
                    worker: 0,
                    tid: 1,
                    ns: 100,
                    detail: None,
                },
                tps_obs::TraceEvent {
                    kind: tps_obs::EventKind::Close,
                    name: "degree".into(),
                    worker: 0,
                    tid: 1,
                    ns: 900,
                    detail: Some("note".into()),
                },
            ],
            counter_snap: vec![("io.v2.chunks_decoded".into(), 12)],
        };
        let Message::ShardDone {
            trace,
            counter_snap,
            ..
        } = roundtrip(&msg)
        else {
            panic!("tag changed");
        };
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[1].detail.as_deref(), Some("note"));
        assert_eq!(counter_snap, vec![("io.v2.chunks_decoded".to_string(), 12)]);
    }

    #[test]
    fn corrupt_trace_payload_rejected() {
        // An event count past the sanity cap is corruption, not an
        // allocation request.
        let mut out = Message::ShardDone {
            shard: 0,
            epoch: 0,
            counters: AssignCounters::default(),
            loads: vec![],
            assigned: 0,
            trace: vec![],
            counter_snap: vec![],
        }
        .encode();
        // Strip the two empty v4 vec headers (4 bytes each) and splice in
        // an oversized event count with no payload.
        out.truncate(out.len() - 8);
        put_u32(&mut out, u32::MAX);
        assert!(Message::decode(&out).is_err());
    }
}
