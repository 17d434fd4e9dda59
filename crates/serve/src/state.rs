//! The daemon's in-memory serving state.
//!
//! Two representations of one mapping, kept bit-consistent:
//!
//! * [`PackedAssignment`] — the partitioning exactly as loaded from the
//!   `--out` directory's part files; immutable, binary-searched, the
//!   **read path**.
//! * [`IncrementalTwoPhase`] — the same assignment *adopted* verbatim as
//!   bootstrap state, so the paper's two-phase scoring decides where every
//!   streamed insertion goes; the **write path**.
//!
//! The delta between them lives in a small `overlay` map (canonical edge
//! key → `Some(partition)` for post-load inserts and reassignments,
//! `None` for deletions). Lookups probe the overlay first and fall through
//! to the packed table, so a point read costs one hash probe plus (on
//! overlay miss) one binary search — the cost never grows with graph size,
//! only the overlay tracks churn. The update hot path records every
//! mutation in the overlay *without* consulting the packed table (a
//! per-mutation binary search would make update latency grow with graph
//! size); entries that merely restate what the packed table already says
//! are dropped by [`ServeState::compact_overlay`], one batched galloping
//! pass, and [`ServeState::restore`] recomputes the exact minimal diff.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tps_core::incremental::IncrementalTwoPhase;
use tps_core::TwoPhaseConfig;
use tps_graph::types::{Edge, PartitionId, VertexId};
use tps_io::LoadedPartition;
use tps_obs::Counter;

use crate::metrics::{op_latency, LOOKUP_NS, REPLICAS_NS, UPDATE_NS};
use crate::packed::{edge_key, key_edge, PackedAssignment, NOT_FOUND};
use crate::proto::ServeStats;

static SERVE_LOOKUPS: Counter = Counter::new("serve.lookups");
static SERVE_UPDATES: Counter = Counter::new("serve.updates.mutations");
static SERVE_UPDATE_REJECTS: Counter = Counter::new("serve.updates.rejected");

/// How to promote a loaded partitioning to the incremental write path.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Balance factor used to size per-partition capacity (the CLI
    /// default, 1.05).
    pub alpha: f64,
    /// Extra capacity multiplier on top of `alpha` so streamed insertions
    /// have headroom before the balance cap binds.
    pub headroom: f64,
    /// Phase configuration for re-derived clustering state and insertion
    /// scoring.
    pub config: TwoPhaseConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            alpha: 1.05,
            headroom: 1.2,
            config: TwoPhaseConfig::default(),
        }
    }
}

/// Per-batch result of [`ServeState::apply`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Partition each insert landed on; [`NOT_FOUND`] = rejected (the edge
    /// was already live).
    pub inserted: Vec<u32>,
    /// Partition each removal vacated; [`NOT_FOUND`] = the edge was not
    /// live.
    pub removed: Vec<u32>,
    /// The epoch after the batch (bumped iff anything changed).
    pub epoch: u64,
}

/// The shared serving state: packed read path + incremental write path +
/// overlay diff. Wrapped in an `RwLock` by the server — lookups take the
/// read side, updates the write side; the request counters are atomics so
/// readers never need write access.
pub struct ServeState {
    packed: PackedAssignment,
    engine: IncrementalTwoPhase,
    overlay: HashMap<u64, Option<PartitionId>>,
    epoch: u64,
    started: Instant,
    lookups: AtomicU64,
    updates: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl ServeState {
    /// Build serving state from an in-memory assignment (benches, tests).
    pub fn from_assignments(
        assignments: &[(Edge, PartitionId)],
        num_vertices: u64,
        k: u32,
        opts: &ServeOptions,
    ) -> io::Result<ServeState> {
        let packed = PackedAssignment::from_assignments(assignments, k)?;
        let engine = IncrementalTwoPhase::adopt(
            assignments,
            num_vertices,
            k,
            opts.alpha,
            opts.headroom,
            opts.config,
        )?;
        Ok(ServeState::assemble(packed, engine, HashMap::new()))
    }

    /// Build serving state from a partitioning loaded off disk.
    pub fn from_loaded(loaded: &LoadedPartition, opts: &ServeOptions) -> io::Result<ServeState> {
        ServeState::from_assignments(&loaded.assignments, loaded.num_vertices, loaded.k, opts)
    }

    /// Load a `--out` directory of `<stem>.part<i>.bel` files and promote
    /// it to serving state.
    pub fn load_dir(dir: &Path, opts: &ServeOptions) -> io::Result<ServeState> {
        ServeState::from_loaded(&tps_io::load_partition_dir(dir)?, opts)
    }

    /// Restore from a written engine snapshot plus the *original* loaded
    /// partition files: the packed table comes from the files, the engine
    /// (with every post-load decision) from the snapshot, and the overlay
    /// is recomputed as the exact diff between them. A snapshot of another
    /// `k` than the directory's is `InvalidData`.
    pub fn restore<R: io::Read>(loaded: &LoadedPartition, r: &mut R) -> io::Result<ServeState> {
        let engine = IncrementalTwoPhase::read_snapshot(r, loaded.k)?;
        let packed = PackedAssignment::from_assignments(&loaded.assignments, loaded.k)?;
        let mut overlay = HashMap::new();
        for (e, p) in engine.assignments() {
            let key = edge_key(e);
            if packed.get(key) != Some(p) {
                overlay.insert(key, Some(p));
            }
        }
        for (key, _) in packed.iter() {
            if engine.partition_of(key_edge(key)).is_none() {
                overlay.insert(key, None);
            }
        }
        Ok(ServeState::assemble(packed, engine, overlay))
    }

    fn assemble(
        packed: PackedAssignment,
        engine: IncrementalTwoPhase,
        overlay: HashMap<u64, Option<PartitionId>>,
    ) -> ServeState {
        ServeState {
            packed,
            engine,
            overlay,
            epoch: 0,
            started: Instant::now(),
            lookups: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        }
    }

    /// Persist the write-path engine (and with it every post-load
    /// decision) so a restart can [`restore`](ServeState::restore) without
    /// re-adopting from scratch.
    pub fn write_snapshot<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        self.engine.write_snapshot(w)
    }

    /// The current partition of `e`: overlay first, then the packed table.
    pub fn lookup(&self, e: Edge) -> Option<PartitionId> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        SERVE_LOOKUPS.incr();
        let key = edge_key(e);
        match self.overlay.get(&key) {
            Some(&slot) => slot,
            None => self.packed.get(key),
        }
    }

    /// The partitions vertex `v` has replicas on, ascending. Exact under
    /// churn (served from the engine's counts-backed replica sets).
    pub fn replicas_of(&self, v: VertexId) -> Vec<PartitionId> {
        self.engine.replicas_of(v)
    }

    /// Apply one delta batch: `inserts` first (each scored by the
    /// incremental two-phase write path), then `removes`. A duplicate
    /// insert or an absent removal is rejected per-op ([`NOT_FOUND`] in the
    /// outcome), never a panic, and leaves the rest of the batch intact.
    pub fn apply(&mut self, inserts: &[Edge], removes: &[Edge]) -> ApplyOutcome {
        // The overlay mirrors the engine's view of every mutated key (last
        // write wins). Deliberately NO packed-table probe here: a binary
        // search per mutation would tie update latency to graph size, and
        // a redundant overlay entry (restating what the packed table
        // already says) is merely memory that `compact_overlay` reclaims.
        let mut inserted = Vec::with_capacity(inserts.len());
        let mut removed = Vec::with_capacity(removes.len());
        let mut changed = false;
        for &e in inserts {
            if self.engine.partition_of(e).is_some() {
                SERVE_UPDATE_REJECTS.incr();
                inserted.push(NOT_FOUND);
                continue;
            }
            let p = self.engine.insert(e);
            self.overlay.insert(edge_key(e), Some(p));
            inserted.push(p);
            changed = true;
        }
        for &e in removes {
            match self.engine.remove(e) {
                Some(p) => {
                    self.overlay.insert(edge_key(e), None);
                    removed.push(p);
                    changed = true;
                }
                None => {
                    SERVE_UPDATE_REJECTS.incr();
                    removed.push(NOT_FOUND);
                }
            }
        }
        let mutations = inserted
            .iter()
            .chain(&removed)
            .filter(|&&p| p != NOT_FOUND)
            .count() as u64;
        if changed {
            self.epoch += 1;
            self.updates.fetch_add(mutations, Ordering::Relaxed);
            SERVE_UPDATES.add(mutations);
        }
        ApplyOutcome {
            inserted,
            removed,
            epoch: self.epoch,
        }
    }

    /// The update-batch epoch (bumped once per batch that changed state);
    /// connection caches validate against this.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Mutations since load relative to the loaded size — the signal for
    /// scheduling a full re-partition (see the README's re-bootstrap loop).
    pub fn staleness(&self) -> f64 {
        self.engine.staleness()
    }

    /// Number of partitions.
    pub fn k(&self) -> u32 {
        self.engine.k()
    }

    /// Vertex-id space currently tracked.
    pub fn num_vertices(&self) -> u64 {
        self.engine.num_vertices()
    }

    /// Live edge count (after applied deltas).
    pub fn num_edges(&self) -> u64 {
        self.engine.num_edges()
    }

    /// Size of the overlay (post-load churn shadowing the packed table;
    /// run [`ServeState::compact_overlay`] for the minimal diff).
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// Seconds since this state was assembled (daemon uptime).
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Folded replica-cache `(hits, misses)` across finished connections.
    pub fn cache_counts(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// Drop overlay entries that restate what the packed table already
    /// says (an insert that recreated a loaded assignment, a tombstone
    /// for a key the table never held), restoring the overlay to the
    /// minimal engine-vs-packed diff. One sorted galloping probe of the
    /// packed table — `O(overlay)` near-sequential accesses — kept off
    /// the per-mutation hot path on purpose (see [`ServeState::apply`]).
    pub fn compact_overlay(&mut self) {
        let before = self.overlay.len();
        let mut keys: Vec<u64> = self.overlay.keys().copied().collect();
        keys.sort_unstable();
        let probed = self.packed.probe_sorted(&keys);
        for (key, packed_part) in keys.into_iter().zip(probed) {
            let redundant = match (self.overlay.get(&key), packed_part) {
                (Some(&Some(p)), Some(pp)) => p == pp,
                (Some(&None), None) => true,
                _ => false,
            };
            if redundant {
                self.overlay.remove(&key);
            }
        }
        tps_obs::instant_with(
            "serve.compact",
            format!("overlay {before} -> {}", self.overlay.len()),
        );
    }

    /// Fold a connection's replica-cache hit/miss counts into the global
    /// statistics.
    pub fn record_cache(&self, hits: u64, misses: u64) {
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// A statistics snapshot for [`crate::proto::ServeMessage::StatsReply`].
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            k: self.k(),
            num_vertices: self.num_vertices(),
            num_edges: self.num_edges(),
            staleness: self.staleness(),
            replication_factor: self.engine.replication_factor(),
            epoch: self.epoch,
            loads: self.engine.loads().to_vec(),
            lookups: self.lookups.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            uptime_secs: self.uptime_secs(),
            // Quantiles come from the process-global per-op histograms —
            // exactly what the scrape endpoint exposes.
            lookup_latency: op_latency(&LOOKUP_NS),
            replicas_latency: op_latency(&REPLICAS_NS),
            update_latency: op_latency(&UPDATE_NS),
        }
    }

    /// The write-path engine (read-only view).
    pub fn engine(&self) -> &IncrementalTwoPhase {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_assignments(n: u32, k: u32) -> (Vec<(Edge, PartitionId)>, u64) {
        let mut seen = std::collections::HashSet::new();
        let pairs: Vec<(Edge, PartitionId)> = (0..n)
            .map(|i| (Edge::new(i % 97, 97 + (i * 13) % 211), i % k))
            .filter(|&(e, _)| seen.insert(edge_key(e)))
            .collect();
        (pairs, 512)
    }

    #[test]
    fn lookups_match_loaded_files_bit_for_bit() {
        let (pairs, nv) = toy_assignments(1500, 4);
        let st = ServeState::from_assignments(&pairs, nv, 4, &ServeOptions::default()).unwrap();
        for &(e, p) in &pairs {
            assert_eq!(st.lookup(e), Some(p));
        }
        assert_eq!(st.lookup(Edge::new(400, 401)), None);
        assert_eq!(st.overlay_len(), 0);
        assert_eq!(st.num_edges(), pairs.len() as u64);
    }

    #[test]
    fn overlay_stays_consistent_with_engine_under_churn() {
        let (pairs, nv) = toy_assignments(800, 4);
        let mut st = ServeState::from_assignments(&pairs, nv, 4, &ServeOptions::default()).unwrap();
        let inserts: Vec<Edge> = (0..200u32)
            .map(|i| Edge::new(300 + i, 301 + 2 * i))
            .collect();
        let removes: Vec<Edge> = pairs.iter().take(100).map(|&(e, _)| e).collect();
        let out = st.apply(&inserts, &removes);
        assert!(out.inserted.iter().all(|&p| p < 4));
        assert!(out.removed.iter().all(|&p| p < 4));
        assert_eq!(out.epoch, 1);
        // Every edge the engine knows answers identically through the
        // overlay+packed read path, and vice versa for removed edges.
        for (e, p) in st.engine().assignments().collect::<Vec<_>>() {
            assert_eq!(st.lookup(e), Some(p));
        }
        for e in &removes {
            assert_eq!(st.lookup(*e), None);
        }
        // Removing an inserted edge leaves a tombstone; compaction drops
        // it (the packed table never held the key) without changing any
        // answer.
        let before = st.overlay_len();
        st.apply(&[], &inserts[..50]);
        assert_eq!(st.overlay_len(), before, "tombstones are kept un-probed");
        st.compact_overlay();
        assert!(st.overlay_len() < before);
        for e in &inserts[..50] {
            assert_eq!(st.lookup(*e), None, "compaction resurrected {e:?}");
        }
        for (e, p) in st.engine().assignments().collect::<Vec<_>>() {
            assert_eq!(st.lookup(e), Some(p));
        }
        assert!(st.staleness() > 0.0);
    }

    #[test]
    fn duplicate_insert_and_absent_remove_are_rejected_per_op() {
        let (pairs, nv) = toy_assignments(300, 2);
        let mut st = ServeState::from_assignments(&pairs, nv, 2, &ServeOptions::default()).unwrap();
        let live = pairs[0].0;
        let out = st.apply(
            &[live, Edge::new(400, 450)],
            &[Edge::new(499, 498), pairs[1].0],
        );
        assert_eq!(out.inserted[0], NOT_FOUND);
        assert!(out.inserted[1] < 2);
        assert_eq!(out.removed[0], NOT_FOUND);
        assert!(out.removed[1] < 2);
        // Rejections alone must not bump the epoch.
        let epoch = st.epoch();
        let out = st.apply(&[live], &[Edge::new(499, 498)]);
        assert_eq!(out.epoch, epoch);
    }

    #[test]
    fn snapshot_restore_preserves_overlay_and_answers() {
        let (pairs, nv) = toy_assignments(600, 4);
        let loaded = LoadedPartition {
            k: 4,
            num_vertices: nv,
            stem: "toy".into(),
            assignments: pairs.clone(),
            part_counts: vec![],
        };
        let mut st = ServeState::from_loaded(&loaded, &ServeOptions::default()).unwrap();
        let inserts: Vec<Edge> = (0..64u32).map(|i| Edge::new(310 + i, 410 + i)).collect();
        let removes: Vec<Edge> = pairs.iter().take(40).map(|&(e, _)| e).collect();
        st.apply(&inserts, &removes);

        let mut buf = Vec::new();
        st.write_snapshot(&mut buf).unwrap();
        let st2 = ServeState::restore(&loaded, &mut buf.as_slice()).unwrap();
        // Restore recomputes the *minimal* diff; the live overlay matches
        // it once compacted.
        st.compact_overlay();
        assert_eq!(st2.overlay_len(), st.overlay_len());
        assert_eq!(st2.num_edges(), st.num_edges());
        assert_eq!(st2.staleness(), st.staleness());
        for (e, p) in st.engine().assignments().collect::<Vec<_>>() {
            assert_eq!(st2.lookup(e), Some(p));
        }
        for e in &removes {
            assert_eq!(st2.lookup(*e), None);
        }
    }
}
