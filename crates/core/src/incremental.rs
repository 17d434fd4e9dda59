//! Incremental (dynamic-graph) extension of 2PS-L.
//!
//! The paper points at Fan et al. (VLDB 2020): "2PS-L could be transformed
//! into an incremental algorithm to efficiently handle dynamic graphs with
//! edge insertions and deletions without recomputing the complete
//! partitioning from scratch" (§VI). This module implements that
//! transformation on top of the engine; it keeps only what an update needs:
//!
//! * [`IncrementalTwoPhase::adopt`] takes a finished partitioning and derives
//!   the retained phase state with the engine's own phase-0/1 kernels
//!   ([`shard_degrees`], [`resolve_volume_cap`], [`shard_clustering`] and
//!   [`try_cluster_placement`], as a one-shard run calls them) over the edges in
//!   the order given; the replica counts and loads come from the
//!   assignment, which every edge keeps.
//! * [`IncrementalTwoPhase::bootstrap`] runs [`TwoPhasePartitioner`] over
//!   the initial stream and adopts its assignment in stream order, so its
//!   live assignment is the serial run's and its clustering and placement
//!   are that run's phase 1.
//! * [`IncrementalTwoPhase::insert`] assigns a new edge in `O(1)` with the
//!   engine's two-choice score ([`two_choice_best`]) against the retained
//!   state, whatever `config.strategy` is. New vertices are clustered on
//!   first contact exactly as the streaming clustering would (joining the
//!   other endpoint's cluster under the volume cap). Past the headroom cap
//!   the edge falls back to its hash partition, then to the least-loaded
//!   one.
//! * [`IncrementalTwoPhase::remove`] retracts an edge: loads shrink, and
//!   replica bits are dropped when the edge was the vertex's last edge on
//!   that partition (tracked with per-(vertex, partition) counts — the
//!   `O(|V|·k)` budget is preserved, with counts replacing bits).
//!
//! Quality degrades gracefully as the graph drifts from the clustering
//! snapshot; [`IncrementalTwoPhase::staleness`] exposes the drift so callers
//! can schedule a re-bootstrap (the usual deployment loop for incremental
//! partitioners).

use std::collections::HashMap;
use std::io;

use tps_clustering::model::{Clustering, NO_CLUSTER};
use tps_graph::hash::seeded_hash_to_partition;
use tps_graph::stream::{discover_info, for_each_edge, EdgeStream, InMemoryGraph};
use tps_graph::types::{Edge, PartitionId, VertexId};
use tps_metrics::bitmatrix::ReplicaSet;

use crate::balance::PartitionLoads;
use crate::parallel::{resolve_volume_cap, shard_clustering, shard_degrees, try_cluster_placement};
use crate::partitioner::{PartitionParams, Partitioner};
use crate::sink::VecSink;
use crate::two_phase::mapping::ClusterPlacement;
use crate::two_phase::scoring::{two_choice_best, EdgeScoreInputs};
use crate::two_phase::{MappingStrategy, RemainingStrategy, TwoPhaseConfig, TwoPhasePartitioner};

/// Replica reference counts per (vertex, partition): the incremental
/// replacement for the boolean `v2p` matrix, so deletions can retract
/// replicas exactly.
#[derive(Clone, Debug)]
struct ReplicaCounts {
    k: u32,
    counts: Vec<u32>,
}

impl ReplicaCounts {
    fn new(num_vertices: u64, k: u32) -> Self {
        ReplicaCounts {
            k,
            counts: vec![0; (num_vertices * k as u64) as usize],
        }
    }

    #[inline]
    fn idx(&self, v: VertexId, p: PartitionId) -> usize {
        v as usize * self.k as usize + p as usize
    }

    #[inline]
    fn add(&mut self, v: VertexId, p: PartitionId) {
        let i = self.idx(v, p);
        self.counts[i] += 1;
    }

    #[inline]
    fn remove(&mut self, v: VertexId, p: PartitionId) {
        let i = self.idx(v, p);
        assert!(self.counts[i] > 0, "removing a replica that does not exist");
        self.counts[i] -= 1;
    }

    fn grow_vertices(&mut self, num_vertices: u64) {
        self.counts
            .resize((num_vertices * self.k as u64) as usize, 0);
    }

    fn total_replicas(&self) -> u64 {
        self.counts.iter().filter(|&&c| c > 0).count() as u64
    }

    fn covered(&self) -> u64 {
        self.counts
            .chunks(self.k as usize)
            .filter(|row| row.iter().any(|&c| c > 0))
            .count() as u64
    }
}

/// The counts as the replica set the engine's score reads: `v` is on `p`
/// while any live edge of `v` is. Counts change only through
/// `add`/`remove`, never through the set's idempotent `insert`.
impl ReplicaSet for ReplicaCounts {
    fn k(&self) -> u32 {
        self.k
    }

    fn num_vertices(&self) -> u64 {
        (self.counts.len() / self.k as usize) as u64
    }

    #[inline]
    fn contains(&self, v: VertexId, p: PartitionId) -> bool {
        self.counts[self.idx(v, p)] > 0
    }

    fn insert(&mut self, _v: VertexId, _p: PartitionId) {
        unreachable!("replica counts change through add and remove")
    }
}

/// A live, incrementally maintained 2PS-L partitioning.
pub struct IncrementalTwoPhase {
    config: TwoPhaseConfig,
    k: u32,
    cap_per_partition: u64,
    volume_cap: u64,
    degrees: Vec<u32>,
    clustering: Clustering,
    placement: ClusterPlacement,
    /// Partitions of clusters created *after* bootstrap (indexed by
    /// `cluster_id − placement.num_clusters()`): each new cluster is pinned
    /// to the least-loaded partition at creation time.
    late_cluster_partitions: Vec<PartitionId>,
    replicas: ReplicaCounts,
    loads: Vec<u64>,
    /// Live assignment of each edge (canonicalised) — needed for deletions.
    /// `O(|E|)` and therefore *not* out-of-core; incremental maintenance of
    /// dynamic graphs inherently requires an edge→partition lookup (see Fan
    /// et al.), which deployments keep in the DB/storage layer.
    assignment: HashMap<Edge, PartitionId>,
    mutations_since_bootstrap: u64,
    bootstrap_edges: u64,
}

fn invalid_input(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg.into())
}

/// The run parameters both constructors take: `k ≥ 1`, `α ≥ 1` and a
/// head-room factor `≥ 1`.
fn check_params(k: u32, alpha: f64, headroom: f64) -> io::Result<()> {
    let problem = if k == 0 {
        "k must be positive"
    } else if alpha.is_nan() || alpha < 1.0 {
        "alpha must be >= 1"
    } else if headroom.is_nan() || headroom < 1.0 {
        "headroom must be >= 1"
    } else {
        return Ok(());
    };
    Err(invalid_input(problem))
}

impl IncrementalTwoPhase {
    /// Run 2PS-L ([`TwoPhasePartitioner`]) over `stream` and adopt the
    /// result: the live assignment is the serial run's, edge for edge.
    ///
    /// `headroom ≥ 1` multiplies the per-partition cap that *insertions*
    /// respect, so they do not immediately saturate partitions; the
    /// bootstrap run itself keeps the `α` cap. A stream that holds an edge
    /// twice (in either direction) is `InvalidInput`.
    pub fn bootstrap<S: EdgeStream + ?Sized>(
        stream: &mut S,
        k: u32,
        alpha: f64,
        headroom: f64,
        config: TwoPhaseConfig,
    ) -> io::Result<Self> {
        check_params(k, alpha, headroom)?;
        let mut stream = stream;
        let num_vertices = discover_info(&mut stream)?.num_vertices;
        let mut sink = VecSink::new();
        TwoPhasePartitioner::new(config).partition(
            &mut stream,
            &PartitionParams { k, alpha },
            &mut sink,
        )?;
        // The sink saw the pre-partitioned edges first; adopt re-derives
        // phase 1 from the edge order, so hand it the stream's.
        let decided: HashMap<Edge, PartitionId> = sink.into_assignments().into_iter().collect();
        let mut in_order = Vec::with_capacity(decided.len());
        for_each_edge(&mut stream, |e| in_order.push((e, decided[&e])))?;
        Self::adopt(&in_order, num_vertices, k, alpha, headroom, config)
    }

    /// Adopt a finished partitioning as the bootstrap state: every edge
    /// keeps the partition it was given — the live assignment equals
    /// `assignments` bit for bit — and the retained phase state (degrees,
    /// clustering, placement) is what a one-shard 2PS-L run over
    /// `assignments`' edges, in that order, computes in phases 0 and 1.
    /// This is how the serving daemon promotes a partition loaded from
    /// disk to the incremental write path.
    ///
    /// A partition id `≥ k`, an endpoint `≥ num_vertices` or an edge given
    /// twice (in either direction) is `InvalidInput`.
    pub fn adopt(
        assignments: &[(Edge, PartitionId)],
        num_vertices: u64,
        k: u32,
        alpha: f64,
        headroom: f64,
        config: TwoPhaseConfig,
    ) -> io::Result<Self> {
        check_params(k, alpha, headroom)?;
        config.check()?;
        for &(e, p) in assignments {
            if p >= k || u64::from(e.src.max(e.dst)) >= num_vertices {
                return Err(invalid_input(format!(
                    "edge {e:?} on partition {p} is out of range (k = {k}, |V| = {num_vertices})"
                )));
            }
        }
        let edges = assignments.iter().map(|&(e, _)| e).collect();
        let graph = InMemoryGraph::with_num_vertices(edges, num_vertices);
        let all = (0, graph.num_edges());
        let degrees = shard_degrees(&graph, all, num_vertices)?;
        let volume_cap = resolve_volume_cap(&config, k, &degrees);
        let clustering = shard_clustering(
            &graph,
            all,
            &config,
            &degrees,
            volume_cap,
            num_vertices,
            true,
        )?;
        let placement = try_cluster_placement(&config, &clustering, k)?;
        let cap = PartitionLoads::new(k, graph.num_edges(), alpha).cap();
        let mut this = IncrementalTwoPhase {
            config,
            k,
            cap_per_partition: ((cap as f64) * headroom).ceil() as u64,
            volume_cap,
            degrees: degrees.iter().collect(),
            clustering,
            placement,
            late_cluster_partitions: Vec::new(),
            replicas: ReplicaCounts::new(num_vertices, k),
            loads: vec![0; k as usize],
            assignment: HashMap::with_capacity(assignments.len()),
            mutations_since_bootstrap: 0,
            bootstrap_edges: graph.num_edges(),
        };
        for &(e, p) in assignments {
            if this.assignment.contains_key(&e.canonical()) {
                return Err(invalid_input(format!(
                    "duplicate edge {e:?} in adopted assignment"
                )));
            }
            this.commit(e, p);
        }
        Ok(this)
    }

    /// Make room for vertex `v`: every per-vertex array grows in place
    /// (amortised), so a stream of new ids costs `O(1)` per insert.
    fn ensure_vertex(&mut self, v: VertexId) {
        let n = v as u64 + 1;
        if n > self.num_vertices() {
            self.degrees.resize(n as usize, 0);
            self.replicas.grow_vertices(n);
            self.clustering.grow_vertices(n);
        }
    }

    /// Partition of a cluster, covering clusters created after bootstrap.
    #[inline]
    fn cluster_partition(&self, c: u32) -> PartitionId {
        if c < self.placement.num_clusters() {
            self.placement.partition_of(c)
        } else {
            self.late_cluster_partitions[(c - self.placement.num_clusters()) as usize]
        }
    }

    /// The least-loaded partition (lowest id wins ties).
    fn least_loaded(&self) -> PartitionId {
        self.loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .map(|(i, _)| i as u32)
            .expect("k >= 1")
    }

    /// Cluster a vertex on first contact, mirroring the streaming rule: join
    /// the other endpoint's cluster if the cap allows, else start fresh
    /// (new clusters are pinned to the currently least-loaded partition).
    fn cluster_on_first_contact(&mut self, v: VertexId, other: VertexId) {
        if self.clustering.raw_cluster_of(v) != NO_CLUSTER {
            return;
        }
        let dv = self.degrees[v as usize].max(1) as u64;
        let co = self.clustering.raw_cluster_of(other);
        self.clustering.create_cluster(v, dv);
        if co != NO_CLUSTER && self.clustering.volume(co) + dv <= self.volume_cap {
            // Merge into the neighbour's cluster immediately.
            self.clustering.migrate(v, dv, co);
        }
        // Pin any clusters the placement has not seen.
        while self.placement.num_clusters() as usize + self.late_cluster_partitions.len()
            < self.clustering.num_cluster_ids() as usize
        {
            let p = self.least_loaded();
            self.late_cluster_partitions.push(p);
        }
    }

    /// The partition of a new edge whose endpoints are both clustered:
    /// the two-choice score against the retained state (`O(1)` per edge),
    /// then — when the winner is at the head-room cap — the hash partition
    /// of the higher-degree endpoint, then the least-loaded partition.
    fn choose_partition(&self, e: Edge) -> PartitionId {
        let cu = self.clustering.raw_cluster_of(e.src);
        let cv = self.clustering.raw_cluster_of(e.dst);
        let (du, dv) = (self.degrees[e.src as usize], self.degrees[e.dst as usize]);
        let inputs = EdgeScoreInputs {
            u: e.src,
            v: e.dst,
            du: du.into(),
            dv: dv.into(),
            vol_cu: self.clustering.volume(cu),
            vol_cv: self.clustering.volume(cv),
            pu: self.cluster_partition(cu),
            pv: self.cluster_partition(cv),
        };
        let p = two_choice_best(&inputs, &self.replicas);
        if self.loads[p as usize] < self.cap_per_partition {
            return p;
        }
        let hv = if du >= dv { e.src } else { e.dst };
        let p = seeded_hash_to_partition(hv, self.config.hash_seed, self.k);
        if self.loads[p as usize] < self.cap_per_partition {
            return p;
        }
        self.least_loaded()
    }

    fn commit(&mut self, e: Edge, p: PartitionId) {
        self.replicas.add(e.src, p);
        self.replicas.add(e.dst, p);
        self.loads[p as usize] += 1;
        self.assignment.insert(e.canonical(), p);
    }

    /// Insert a new edge; returns its partition. `O(1)` amortised.
    ///
    /// # Panics
    /// Panics if the (canonicalised) edge is already present.
    pub fn insert(&mut self, e: Edge) -> PartitionId {
        assert!(
            !self.assignment.contains_key(&e.canonical()),
            "edge {e:?} already present"
        );
        self.ensure_vertex(e.src.max(e.dst));
        self.degrees[e.src as usize] += 1;
        self.degrees[e.dst as usize] += 1;
        self.cluster_on_first_contact(e.src, e.dst);
        self.cluster_on_first_contact(e.dst, e.src);
        let p = self.choose_partition(e);
        self.commit(e, p);
        self.mutations_since_bootstrap += 1;
        p
    }

    /// Remove an edge; returns the partition it lived on, or `None` if it
    /// was not present. `O(1)`.
    pub fn remove(&mut self, e: Edge) -> Option<PartitionId> {
        let p = self.assignment.remove(&e.canonical())?;
        self.loads[p as usize] -= 1;
        self.degrees[e.src as usize] -= 1;
        self.degrees[e.dst as usize] -= 1;
        self.replicas.remove(e.src, p);
        self.replicas.remove(e.dst, p);
        self.mutations_since_bootstrap += 1;
        Some(p)
    }

    /// Partition of a live edge.
    pub fn partition_of(&self, e: Edge) -> Option<PartitionId> {
        self.assignment.get(&e.canonical()).copied()
    }

    /// Live edge count.
    pub fn num_edges(&self) -> u64 {
        self.assignment.len() as u64
    }

    /// Per-partition edge counts.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Current replication factor over covered vertices.
    pub fn replication_factor(&self) -> f64 {
        let covered = self.replicas.covered();
        if covered == 0 {
            0.0
        } else {
            self.replicas.total_replicas() as f64 / covered as f64
        }
    }

    /// Mutations (insertions *and* deletions) since bootstrap relative to
    /// the bootstrap size — the drift signal for scheduling a re-bootstrap.
    pub fn staleness(&self) -> f64 {
        self.mutations_since_bootstrap as f64 / self.bootstrap_edges.max(1) as f64
    }

    /// Number of partitions.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Vertex-id space currently tracked (`max id + 1`).
    pub fn num_vertices(&self) -> u64 {
        self.degrees.len() as u64
    }

    /// Whether vertex `v` currently has a replica on partition `p`.
    pub fn has_replica(&self, v: VertexId, p: PartitionId) -> bool {
        (v as u64) < self.num_vertices() && self.replicas.contains(v, p)
    }

    /// The partitions vertex `v` currently has replicas on, ascending.
    /// Exact under churn (counts-backed, unlike a sticky bit matrix).
    pub fn replicas_of(&self, v: VertexId) -> Vec<PartitionId> {
        if (v as u64) >= self.num_vertices() {
            return Vec::new();
        }
        (0..self.k)
            .filter(|&p| self.replicas.contains(v, p))
            .collect()
    }

    /// Every live `(edge, partition)` pair, canonicalised, in hash order.
    pub fn assignments(&self) -> impl Iterator<Item = (Edge, PartitionId)> + '_ {
        self.assignment.iter().map(|(&e, &p)| (e, p))
    }
}

// ---------------------------------------------------------------------------
// Snapshot / restore of the retained phase state.
//
// A serving daemon re-bootstrapping on every restart would pay the full
// two-pass cost; the snapshot persists everything `insert`/`remove` touch so
// a restarted daemon resumes with *identical* future decisions. The format
// is a little-endian byte stream behind an 8-byte magic; clusterings reuse
// their wire codec.
// ---------------------------------------------------------------------------

/// Magic + version prefix of the snapshot format.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"TPSINCR1";

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over the snapshot bytes.
struct SnapReader<'a> {
    bytes: &'a [u8],
}

impl<'a> SnapReader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.bytes.len() < n {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "snapshot truncated: need {n} bytes, have {}",
                    self.bytes.len()
                ),
            ));
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn len(&mut self, what: &str) -> io::Result<usize> {
        let n = self.u64()?;
        // A length can never exceed the remaining bytes (every element is
        // at least one byte) — reject early instead of allocating.
        if n > self.bytes.len() as u64 {
            return Err(bad_snapshot(format!("{what} length {n} exceeds input")));
        }
        Ok(n as usize)
    }
}

fn bad_snapshot(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl IncrementalTwoPhase {
    /// Serialise the full retained state (config, degrees, clustering,
    /// placement, replica counts are *re-derivable* — they are rebuilt from
    /// the assignment on read — loads, assignment, drift counters).
    ///
    /// The assignment is written sorted by `(src, dst)` so identical state
    /// produces identical bytes.
    pub fn write_snapshot<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        let mut out = Vec::new();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        // Config.
        put_u32(&mut out, self.config.clustering_passes);
        put_f64(&mut out, self.config.volume_cap_factor);
        match self.config.strategy {
            RemainingStrategy::TwoChoice => out.push(0),
            RemainingStrategy::Hdrf(p) => {
                out.push(1);
                put_f64(&mut out, p.lambda);
                put_f64(&mut out, p.epsilon);
            }
        }
        out.push(match self.config.mapping {
            MappingStrategy::SortedGraham => 0,
            MappingStrategy::UnsortedFirstFit => 1,
        });
        out.push(self.config.prepartitioning as u8);
        put_u64(&mut out, self.config.hash_seed);
        // Scalars.
        put_u32(&mut out, self.k);
        put_u64(&mut out, self.cap_per_partition);
        put_u64(&mut out, self.volume_cap);
        // Degrees.
        put_u64(&mut out, self.degrees.len() as u64);
        for &d in &self.degrees {
            put_u32(&mut out, d);
        }
        // Clustering (wire codec).
        self.clustering.encode_into(&mut out);
        // Placement, with post-bootstrap cluster pins merged in: behaviour
        // is identical (`cluster_partition` resolves the same partition for
        // every cluster id) and the merged form round-trips bit-stably.
        put_u64(
            &mut out,
            (self.placement.num_clusters() as usize + self.late_cluster_partitions.len()) as u64,
        );
        for &p in self.placement.c2p() {
            put_u32(&mut out, p);
        }
        for &p in &self.late_cluster_partitions {
            put_u32(&mut out, p);
        }
        // Loads.
        for &l in &self.loads {
            put_u64(&mut out, l);
        }
        // Assignment, sorted for deterministic bytes.
        let mut pairs: Vec<(Edge, PartitionId)> =
            self.assignment.iter().map(|(&e, &p)| (e, p)).collect();
        pairs.sort_unstable_by_key(|&(e, _)| (e.src, e.dst));
        put_u64(&mut out, pairs.len() as u64);
        for (e, p) in pairs {
            put_u32(&mut out, e.src);
            put_u32(&mut out, e.dst);
            put_u32(&mut out, p);
        }
        // Drift counters.
        put_u64(&mut out, self.mutations_since_bootstrap);
        put_u64(&mut out, self.bootstrap_edges);
        w.write_all(&out)
    }

    /// Restore a partitioning from [`IncrementalTwoPhase::write_snapshot`]
    /// bytes. Future `insert`/`remove` decisions are identical to the
    /// snapshotted instance's.
    ///
    /// `k` is the partition count the caller expects; a snapshot of any
    /// other `k` is `InvalidData`, rejected before anything is sized by it.
    pub fn read_snapshot<R: io::Read>(r: &mut R, k: u32) -> io::Result<Self> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let mut rd = SnapReader { bytes: &bytes };
        if rd.take(8)? != SNAPSHOT_MAGIC {
            return Err(bad_snapshot("not an incremental-state snapshot"));
        }
        let clustering_passes = rd.u32()?;
        let volume_cap_factor = rd.f64()?;
        let strategy = match rd.u8()? {
            0 => RemainingStrategy::TwoChoice,
            1 => {
                let lambda = rd.f64()?;
                let epsilon = rd.f64()?;
                RemainingStrategy::Hdrf(crate::two_phase::scoring::HdrfParams { lambda, epsilon })
            }
            t => return Err(bad_snapshot(format!("unknown strategy tag {t}"))),
        };
        let mapping = match rd.u8()? {
            0 => MappingStrategy::SortedGraham,
            1 => MappingStrategy::UnsortedFirstFit,
            t => return Err(bad_snapshot(format!("unknown mapping tag {t}"))),
        };
        let prepartitioning = rd.u8()? != 0;
        let hash_seed = rd.u64()?;
        let config = TwoPhaseConfig {
            clustering_passes,
            volume_cap_factor,
            strategy,
            mapping,
            prepartitioning,
            hash_seed,
        };
        let snapshot_k = rd.u32()?;
        if snapshot_k != k || k == 0 {
            return Err(bad_snapshot(format!(
                "snapshot has k = {snapshot_k}, expected k = {k}"
            )));
        }
        let cap_per_partition = rd.u64()?;
        let volume_cap = rd.u64()?;
        let n_deg = rd.len("degrees")?;
        let mut degrees = Vec::with_capacity(n_deg);
        for _ in 0..n_deg {
            degrees.push(rd.u32()?);
        }
        let (clustering, rest) = Clustering::decode_from(rd.bytes).map_err(bad_snapshot)?;
        rd.bytes = rest;
        if clustering.num_vertices() != n_deg as u64 {
            return Err(bad_snapshot("clustering and degrees disagree on |V|"));
        }
        let n_c2p = rd.len("placement")?;
        let mut c2p = Vec::with_capacity(n_c2p);
        for _ in 0..n_c2p {
            let p = rd.u32()?;
            if p >= k {
                return Err(bad_snapshot(format!("placement partition {p} >= k {k}")));
            }
            c2p.push(p);
        }
        if c2p.len() < clustering.num_cluster_ids() as usize {
            return Err(bad_snapshot(
                "placement covers fewer clusters than clustering",
            ));
        }
        let placement = ClusterPlacement::from_c2p(c2p, &clustering, k)?;
        let mut loads = Vec::with_capacity(k as usize);
        for _ in 0..k {
            loads.push(rd.u64()?);
        }
        let n_edges = rd.len("assignment")?;
        let mut this = IncrementalTwoPhase {
            config,
            k,
            cap_per_partition,
            volume_cap,
            degrees,
            clustering,
            placement,
            late_cluster_partitions: Vec::new(),
            replicas: ReplicaCounts::new(0, k),
            loads,
            assignment: HashMap::with_capacity(n_edges),
            mutations_since_bootstrap: 0,
            bootstrap_edges: 0,
        };
        this.replicas.grow_vertices(this.degrees.len() as u64);
        for _ in 0..n_edges {
            let src = rd.u32()?;
            let dst = rd.u32()?;
            let p = rd.u32()?;
            if p >= k {
                return Err(bad_snapshot(format!("assignment partition {p} >= k {k}")));
            }
            let e = Edge { src, dst };
            if (e.src.max(e.dst) as usize) >= this.degrees.len() {
                return Err(bad_snapshot(format!("edge {e:?} outside the vertex space")));
            }
            // Rebuild replica counts from the assignment (they are fully
            // determined by it); keep the loads as written and cross-check.
            this.replicas.add(e.src, p);
            this.replicas.add(e.dst, p);
            if this.assignment.insert(e.canonical(), p).is_some() {
                return Err(bad_snapshot(format!("duplicate edge {e:?} in snapshot")));
            }
        }
        let mut counted = vec![0u64; k as usize];
        for &p in this.assignment.values() {
            counted[p as usize] += 1;
        }
        if counted != this.loads {
            return Err(bad_snapshot("snapshot loads disagree with its assignment"));
        }
        this.mutations_since_bootstrap = rd.u64()?;
        this.bootstrap_edges = rd.u64()?;
        Ok(this)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_graph::datasets::Dataset;
    use tps_graph::gen::gnm;

    fn bootstrap(scale: f64, k: u32) -> (IncrementalTwoPhase, tps_graph::InMemoryGraph) {
        let g = Dataset::It.generate_scaled(scale);
        let mut stream = g.stream();
        let inc =
            IncrementalTwoPhase::bootstrap(&mut stream, k, 1.05, 1.5, TwoPhaseConfig::default())
                .unwrap();
        (inc, g)
    }

    #[test]
    fn bootstrap_assigns_everything() {
        let (inc, g) = bootstrap(0.01, 8);
        assert_eq!(inc.num_edges(), g.num_edges());
        assert_eq!(inc.loads().iter().sum::<u64>(), g.num_edges());
        assert!(inc.replication_factor() >= 1.0);
    }

    #[test]
    fn insert_then_remove_restores_state() {
        let (mut inc, _) = bootstrap(0.01, 8);
        let rf_before = inc.replication_factor();
        let edges_before = inc.num_edges();
        let e = Edge::new(1_000_000, 1_000_001); // brand-new vertices
        let p = inc.insert(e);
        assert_eq!(inc.partition_of(e), Some(p));
        assert_eq!(inc.num_edges(), edges_before + 1);
        assert_eq!(inc.remove(e), Some(p));
        assert_eq!(inc.num_edges(), edges_before);
        assert!((inc.replication_factor() - rf_before).abs() < 1e-12);
        assert_eq!(inc.remove(e), None, "double remove");
    }

    #[test]
    fn inserted_edges_respect_headroom_cap() {
        let (mut inc, g) = bootstrap(0.01, 4);
        let cap = ((1.05 * g.num_edges() as f64 / 4.0) * 1.5).ceil() as u64;
        // Insert a burst of new edges between existing vertices.
        for i in 0..2000u32 {
            let e = Edge::new(i % 97, 97 + (i * 7) % 101);
            if inc.partition_of(e).is_none() {
                inc.insert(e);
            }
        }
        assert!(
            inc.loads().iter().all(|&l| l <= cap),
            "{:?} cap {cap}",
            inc.loads()
        );
    }

    #[test]
    fn incremental_quality_tracks_full_recompute() {
        // Bootstrap on 80 % of the edges, insert the remaining 20 %
        // incrementally; the resulting RF should stay close to a full 2PS-L
        // run over everything.
        let g = Dataset::It.generate_scaled(0.02);
        let all = g.edges();
        let cut = all.len() * 8 / 10;
        let first = tps_graph::stream::InMemoryGraph::with_num_vertices(
            all[..cut].to_vec(),
            g.num_vertices(),
        );
        let k = 8;
        let mut stream = first.stream();
        let mut inc =
            IncrementalTwoPhase::bootstrap(&mut stream, k, 1.05, 1.3, TwoPhaseConfig::default())
                .unwrap();
        for &e in &all[cut..] {
            inc.insert(e);
        }
        assert_eq!(inc.num_edges(), g.num_edges());

        let mut p = crate::two_phase::TwoPhasePartitioner::new(TwoPhaseConfig::default());
        let mut sink = crate::sink::QualitySink::new(g.num_vertices(), k);
        crate::partitioner::Partitioner::partition(
            &mut p,
            &mut g.stream(),
            &crate::partitioner::PartitionParams::new(k),
            &mut sink,
        )
        .unwrap();
        let full = sink.finish().replication_factor;
        let incr = inc.replication_factor();
        assert!(
            incr <= full * 1.30,
            "incremental rf {incr} drifted too far from full recompute {full}"
        );
        assert!((inc.staleness() - 0.25).abs() < 0.01); // 20 %/80 %
    }

    #[test]
    fn adopt_preserves_every_assignment() {
        let (inc, g) = bootstrap(0.01, 8);
        let pairs: Vec<(Edge, tps_graph::types::PartitionId)> = inc.assignments().collect();
        let adopted = IncrementalTwoPhase::adopt(
            &pairs,
            g.num_vertices(),
            8,
            1.05,
            1.5,
            TwoPhaseConfig::default(),
        )
        .unwrap();
        assert_eq!(adopted.num_edges(), inc.num_edges());
        for &(e, p) in &pairs {
            assert_eq!(adopted.partition_of(e), Some(p));
        }
        assert_eq!(adopted.loads(), inc.loads());
        assert!((adopted.replication_factor() - inc.replication_factor()).abs() < 1e-12);
    }

    #[test]
    fn snapshot_roundtrip_preserves_future_decisions() {
        let (mut inc, _) = bootstrap(0.01, 8);
        // Drift a little so late clusters and counters are exercised.
        for i in 0..50u32 {
            inc.insert(Edge::new(2_000_000 + i, 2_000_001 + i));
        }
        inc.remove(Edge::new(2_000_000, 2_000_001)).unwrap();
        let mut bytes = Vec::new();
        inc.write_snapshot(&mut bytes).unwrap();
        let mut restored = IncrementalTwoPhase::read_snapshot(&mut &bytes[..], 8).unwrap();
        assert_eq!(restored.num_edges(), inc.num_edges());
        assert_eq!(restored.loads(), inc.loads());
        assert!((restored.staleness() - inc.staleness()).abs() < 1e-12);
        // Same future decisions on both instances.
        for i in 0..200u32 {
            let e = Edge::new(3 * i + 1, 7 * i + 2);
            match (inc.partition_of(e), restored.partition_of(e)) {
                (None, None) => assert_eq!(inc.insert(e), restored.insert(e), "edge {e:?}"),
                (a, b) => assert_eq!(a, b),
            }
        }
        // And a re-snapshot of the restored instance is byte-identical to a
        // re-snapshot of the original.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        inc.write_snapshot(&mut a).unwrap();
        restored.write_snapshot(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adopt_rejects_what_it_cannot_hold() {
        let adopt = |pairs: &[(Edge, PartitionId)], k: u32, alpha: f64| {
            IncrementalTwoPhase::adopt(pairs, 4, k, alpha, 1.0, TwoPhaseConfig::default())
                .err()
                .map(|e| e.kind())
        };
        let ok = [(Edge::new(0, 1), 0), (Edge::new(2, 1), 1)];
        assert_eq!(adopt(&ok, 2, 1.05), None);
        let invalid = Some(io::ErrorKind::InvalidInput);
        assert_eq!(adopt(&ok, 1, 1.05), invalid, "partition id >= k");
        assert_eq!(adopt(&[ok[0], ok[0]], 2, 1.05), invalid, "duplicate");
        assert_eq!(
            adopt(&[ok[0], (Edge::new(1, 0), 1)], 2, 1.05),
            invalid,
            "duplicate, reversed"
        );
        assert_eq!(
            adopt(&[(Edge::new(0, 4), 0)], 2, 1.05),
            invalid,
            "id >= |V|"
        );
        assert_eq!(adopt(&ok, 0, 1.05), invalid, "k = 0");
        assert_eq!(adopt(&ok, 2, 0.5), invalid, "alpha < 1");
        assert_eq!(adopt(&ok, 2, f64::NAN), invalid, "alpha NaN");
    }

    /// `k` sizes the loads and the placement's per-partition vector, so a
    /// snapshot whose `k` is not the caller's is refused before either is
    /// allocated — at `u32::MAX` that allocation alone is 32 GiB.
    #[test]
    fn snapshot_with_a_foreign_k_is_invalid_data() {
        let (inc, _) = bootstrap(0.01, 8);
        let mut bytes = Vec::new();
        inc.write_snapshot(&mut bytes).unwrap();
        // Magic, passes, volume-cap factor, strategy tag (two-choice: no
        // parameters), mapping tag, prepartitioning flag, hash seed.
        let at = 8 + 4 + 8 + 1 + 1 + 1 + 8;
        assert_eq!(bytes[at..at + 4], 8u32.to_le_bytes());
        let read = |bytes: &[u8], k: u32| {
            IncrementalTwoPhase::read_snapshot(&mut &bytes[..], k)
                .err()
                .map(|e| e.kind())
        };
        let invalid = Some(io::ErrorKind::InvalidData);
        for k in [u32::MAX, 9] {
            let mut patched = bytes.clone();
            patched[at..at + 4].copy_from_slice(&k.to_le_bytes());
            assert_eq!(read(&patched, 8), invalid, "snapshot k = {k}");
        }
        assert_eq!(read(&bytes, 9), invalid, "caller expects k = 9");
        assert_eq!(read(&bytes, 8), None);
    }

    /// A snapshot whose clustering covers fewer vertices than its degrees
    /// would index past `v2c` on the first insert that touches the gap.
    #[test]
    fn snapshot_with_a_short_clustering_is_invalid_data() {
        let (mut inc, g) = bootstrap(0.01, 8);
        let short = g.num_vertices() as u32 - 1;
        let v2c = (0..short)
            .map(|v| inc.clustering.raw_cluster_of(v))
            .collect();
        inc.clustering = Clustering::from_parts(v2c, inc.clustering.volumes().to_vec());
        let mut bytes = Vec::new();
        inc.write_snapshot(&mut bytes).unwrap();
        let err = IncrementalTwoPhase::read_snapshot(&mut &bytes[..], 8).err();
        assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
    }

    #[test]
    fn staleness_counts_removals() {
        let (mut inc, g) = bootstrap(0.01, 8);
        let before = inc.staleness();
        let e = g.edges()[0];
        inc.remove(e).unwrap();
        assert!(inc.staleness() > before);
    }

    #[test]
    fn churn_keeps_accounting_exact() {
        let g = gnm::generate(200, 1000, 3);
        let mut stream = g.stream();
        let mut inc =
            IncrementalTwoPhase::bootstrap(&mut stream, 4, 1.05, 2.0, TwoPhaseConfig::default())
                .unwrap();
        // Remove every third edge, re-insert half of those.
        let edges: Vec<Edge> = g.edges().to_vec();
        let mut removed = Vec::new();
        for (i, &e) in edges.iter().enumerate() {
            if i % 3 == 0 {
                inc.remove(e).expect("edge was present");
                removed.push(e);
            }
        }
        for (i, &e) in removed.iter().enumerate() {
            if i % 2 == 0 {
                inc.insert(e);
            }
        }
        let expected = edges.len() - removed.len() + removed.len().div_ceil(2);
        assert_eq!(inc.num_edges() as usize, expected);
        assert_eq!(inc.loads().iter().sum::<u64>() as usize, expected);
    }
}
