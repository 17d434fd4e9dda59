//! `tps-dist` — coordinator/worker distributed two-phase partitioning over
//! a network-addressable shard map.
//!
//! The paper's two-phase design decomposes into per-range passes joined at
//! two state merges (degrees + clustering after phase 1, replication shards
//! inside phase 2). A `--threads N` job exploits that with threads; this
//! crate promotes the same decomposition across processes:
//!
//! ```text
//!                      coordinator
//!        shard map: split_even(|E|, N) edge-index ranges
//!      ┌───────────────┬───────────────┬───────────────┐
//!      │ worker 0      │ worker 1      │ worker N−1    │
//!      │ [0, |E|/N)    │ [|E|/N, …)    │ […, |E|)      │
//!      └──────┬────────┴──────┬────────┴──────┬────────┘
//!             │   degrees ↑ / merged ↓        │      barrier 1
//!             │   clustering ↑ / plan ↓       │      barrier 2
//!             │   replication ↑ / merged ↓    │      barrier 3
//!             │   summary ↑                   │      barrier 4
//!             │   census pull ↓ / rows ↑      │      census, chunk by chunk
//!             │   runs ↑ (bounded batches)    │      emit, shard order
//! ```
//!
//! Each worker opens its contiguous edge-index range through any
//! [`RangedEdgeSource`](tps_graph::ranged::RangedEdgeSource) (in memory, or
//! a file: v1 record seeks, v2 chunk-index scheduling) and runs the
//! *same* per-shard kernels as `--threads N` (`tps_core::parallel`). The
//! coordinator owns the shard map, performs the merges in worker order, and
//! replays per-worker assignment runs in shard order — so for a fixed shard
//! map the output is **bit-identical** to the in-process runner's, whatever
//! the transport. The run's quality (RF, α) is counted like the in-process
//! runner's too, from the final replica rows: the census round pulls them
//! from every worker one bounded vertex-range chunk at a time (protocol
//! v9), so the coordinator never holds a matrix and needs no recount of
//! the emitted records.
//!
//! # Fault tolerance
//!
//! Worker loss at any protocol point is recovered per shard (protocol v2):
//! the coordinator detects a dead or aborting worker (read error, frame
//! timeout, explicit `Abort`), bumps the shard's **epoch** so stale frames
//! from the presumed-dead worker are discarded, and re-issues the shard to
//! a standby, an idle completed worker, or a connection produced by a
//! [`WorkerSupply`] (reconnecting workers handshake with `Rejoin`). Phase-1
//! state is recomputed from the source per range; phase 2 is re-entered by
//! re-broadcasting the stored encoded `Globals`/`Plan` frames and the
//! merged replication chunks (protocol v3 splits that barrier into
//! bounded vertex-range `ReplicationChunk`/`MergedReplicationChunk`
//! frames) through exactly the chunk rounds the barrier has completed —
//! read back from the unlinked `$TMPDIR` spill file they were written to
//! at their barrier, each checked against its checksum;
//! a shard that died mid-`Run` stream resumes by skipping the
//! records already emitted. Output stays **bit-identical to `--threads N`**
//! no matter which worker dies where — see [`coordinator`] and the chaos
//! tests in `tests/tests/dist_fault.rs`.
//!
//! # Crate layout
//!
//! * [`wire`] — length-prefixed frames and primitive codecs; all corrupt
//!   input surfaces as `io::Error`, never a panic.
//! * [`protocol`] — the message schema (see its table) and the pinned
//!   [`PROTOCOL_VERSION`].
//! * [`transport`] — the [`Transport`] trait with
//!   [`TcpTransport`] (std `TcpStream`, no async
//!   runtime), [`loopback_pair`] channels, and a
//!   tracing wrapper proving both carry identical frames.
//! * [`coordinator`] / [`worker`] — the two state machines (the
//!   coordinator owns retry, catch-up and epoch bookkeeping).
//! * [`fault`] — kill-injection transports (`--kill-at`, chaos tests).
//! * [`local`] — [`run_dist_local`]: a full job over
//!   loopback transports in one process (tests, benches, CI smoke).
//!
//! The CLI front ends live in `tps`: `tps dist coordinator` /
//! `tps dist worker`, plus `--dist-local` to spawn the worker processes
//! automatically.

pub mod coordinator;
pub mod fault;
pub mod local;
pub mod protocol;
mod recovery;
pub mod transport;
pub mod wire;
pub mod worker;

pub use coordinator::{run_coordinator, FaultPolicy, NoReplacements, WorkerSupply};
pub use fault::{FaultTransport, KillMode, KillPoint, KillSpec};
pub use local::run_dist_local;
pub use protocol::{InputDescriptor, Job, Message, ReplChunks, PROTOCOL_VERSION, SERVE_TAG_BASE};
pub use transport::{
    loopback_pair, LoopbackTransport, TcpTransport, TraceEvent, TraceTransport, Transport,
};
pub use worker::{
    run_worker, run_worker_handshake, AttachedResolver, Handshake, PathResolver, SourceResolver,
};
