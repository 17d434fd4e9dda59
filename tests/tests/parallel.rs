//! Parallel/serial equivalence of the chunk-parallel runner.
//!
//! Pins the contracts documented in `tps-core::parallel`:
//!
//! * completeness — every edge assigned exactly once at any thread count;
//! * one-thread runs match the serial runner bit for bit;
//! * determinism for a fixed thread count;
//! * the balance cap holds (with the documented `k+1`-per-worker bound in
//!   the degenerate tiny-graph regime, where `|E|` ≲ `k × threads`);
//! * replication factor within a fixed epsilon of the serial runner on
//!   generated R-MAT graphs;
//! * storage-backend independence — in-memory, v1 and v2 sources produce
//!   identical parallel assignments;
//! * emit order — what the runner's decision logs emit is what its shards'
//!   passes decided, 2a records then 2b records, shard by shard.

use integration_tests::threads_job;
use proptest::prelude::*;
use tps_clustering::merge::merge_clusterings;
use tps_core::balance::PartitionLoads;
use tps_core::parallel::{
    cluster_placement, merge_degree_tables, overshoot_from_loads, resolve_volume_cap,
    shard_clustering, shard_degrees, ShardAssigner, ShardLoads,
};
use tps_core::partitioner::{PartitionParams, Partitioner};
use tps_core::sink::{QualitySink, VecSink};
use tps_core::two_phase::{TwoPhaseConfig, TwoPhasePartitioner};
use tps_graph::datasets::Dataset;
use tps_graph::gen::rmat;
use tps_graph::ranged::{split_even, RangedEdgeSource};
use tps_graph::stream::InMemoryGraph;
use tps_graph::types::Edge;
use tps_metrics::bitmatrix::ReplicationMatrix;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn serial_assignments(g: &InMemoryGraph, k: u32) -> Vec<(Edge, u32)> {
    let mut sink = VecSink::new();
    TwoPhasePartitioner::new(TwoPhaseConfig::default())
        .partition(&mut g.stream(), &PartitionParams::new(k), &mut sink)
        .unwrap();
    sink.into_assignments()
}

fn parallel_assignments(source: &dyn RangedEdgeSource, k: u32, threads: usize) -> Vec<(Edge, u32)> {
    let mut sink = VecSink::new();
    threads_job(
        source,
        TwoPhaseConfig::default(),
        &PartitionParams::new(k),
        threads,
        &mut sink,
    )
    .unwrap();
    sink.into_assignments()
}

/// Arbitrary small graphs (duplicates and self-loops allowed).
fn arb_graph() -> impl Strategy<Value = InMemoryGraph> {
    proptest::collection::vec((0u32..64, 0u32..64), 1..200)
        .prop_map(|pairs| InMemoryGraph::from_edges(pairs.into_iter().map(Edge::from).collect()))
}

/// Partition counts on both sides of the one-word replica-row boundary: the
/// in-process workers' frozen views are dense private rows at k ≤ 64 and a
/// sparse overlay above, and both must reproduce the sharded reference.
fn arb_k_across_row_widths() -> impl Strategy<Value = u32> {
    const KS: [u32; 6] = [1, 8, 63, 64, 65, 130];
    (0..KS.len()).prop_map(|i| KS[i])
}

/// The pre-atomic **sharded** phase 2, hand-driven through the public
/// kernels: one owned replication-matrix shard per worker, OR-merged at the
/// barrier and installed back into every worker — the
/// reference the shared `AtomicReplicationMatrix` path must reproduce bit
/// for bit (and exactly what a distributed worker still executes).
fn sharded_reference(source: &dyn RangedEdgeSource, k: u32, threads: usize) -> Vec<(Edge, u32)> {
    sharded_reference_with(source, TwoPhaseConfig::default(), k, threads)
}

/// [`sharded_reference`] for any configuration. Each shard's two passes
/// write whole records into one `VecSink` and the shards' sinks are
/// concatenated: the order a replayed per-shard spool produced, which is the
/// order the decision logs must emit.
fn sharded_reference_with(
    source: &dyn RangedEdgeSource,
    config: TwoPhaseConfig,
    k: u32,
    threads: usize,
) -> Vec<(Edge, u32)> {
    let info = source.info();
    let ranges = split_even(info.num_edges, threads);

    let tables: Vec<_> = ranges
        .iter()
        .map(|&r| shard_degrees(source, r, info.num_vertices).unwrap())
        .collect();
    let degrees = merge_degree_tables(tables);
    let volume_cap = resolve_volume_cap(&config, k, &degrees);
    let locals: Vec<_> = ranges
        .iter()
        .map(|&r| {
            shard_clustering(
                source,
                r,
                &config,
                &degrees,
                volume_cap,
                info.num_vertices,
                true,
            )
            .unwrap()
        })
        .collect();
    let clustering = merge_clusterings(&locals, &degrees);
    let placement = cluster_placement(&config, &clustering, k);

    let edge_cap = PartitionLoads::new(k, info.num_edges, 1.05).cap();
    let mut workers: Vec<(ShardAssigner<ReplicationMatrix>, VecSink)> = (0..threads)
        .map(|t| {
            (
                ShardAssigner::new(
                    config,
                    &degrees,
                    &clustering,
                    &placement,
                    ReplicationMatrix::new(info.num_vertices, k),
                    ShardLoads::standalone(k, edge_cap, t, threads),
                ),
                VecSink::new(),
            )
        })
        .collect();
    if config.prepartitioning {
        for (t, (assigner, sink)) in workers.iter_mut().enumerate() {
            let mut s = source.open_range(ranges[t].0, ranges[t].1).unwrap();
            assigner.prepartition_pass(&mut s, sink).unwrap();
        }
    }
    if threads > 1 {
        let mut merged = ReplicationMatrix::new(info.num_vertices, k);
        for (assigner, _) in &workers {
            let shard = assigner.replication_shard();
            for v in 0..info.num_vertices as u32 {
                for p in shard.partitions_of(v) {
                    merged.set(v, p);
                }
            }
        }
        for (assigner, _) in workers.iter_mut() {
            assigner.install_replication(merged.clone());
        }
    }
    for (t, (assigner, sink)) in workers.iter_mut().enumerate() {
        let mut s = source.open_range(ranges[t].0, ranges[t].1).unwrap();
        assigner.remaining_pass(&mut s, sink).unwrap();
    }
    workers
        .into_iter()
        .flat_map(|(_, sink)| sink.into_assignments())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_invariants_across_thread_counts(graph in arb_graph(), k in 1u32..9) {
        let serial = serial_assignments(&graph, k);
        let cap = PartitionLoads::new(k, graph.num_edges(), 1.05).cap();
        let mut want: Vec<Edge> = graph.edges().to_vec();
        want.sort();
        for threads in THREAD_COUNTS {
            let got = parallel_assignments(&graph, k, threads);
            // Completeness: the assigned multiset is the edge multiset.
            let mut edges: Vec<Edge> = got.iter().map(|&(e, _)| e).collect();
            edges.sort();
            prop_assert_eq!(&edges, &want, "threads {}", threads);
            prop_assert!(got.iter().all(|&(_, p)| p < k));
            // Bit-for-bit serial equivalence at one thread.
            if threads == 1 {
                prop_assert_eq!(&got, &serial, "1-thread run diverged from serial");
            }
            // Determinism for a fixed thread count.
            prop_assert_eq!(&got, &parallel_assignments(&graph, k, threads));
            // Balance: hard cap, plus the documented degenerate bound of at
            // most k+1 overshoot edges per worker on tiny graphs.
            let mut loads = vec![0u64; k as usize];
            for &(_, p) in &got {
                loads[p as usize] += 1;
            }
            // Exact predicate from tps-core::parallel: a worker can stay
            // within quota iff its quota slices cover its edge share.
            let t = threads as u64;
            let guaranteed = (cap / t) * k as u64 >= graph.num_edges().div_ceil(t);
            let slack = if guaranteed { 0 } else { (k as u64 + 1) * t };
            prop_assert!(
                loads.iter().all(|&l| l <= cap + slack),
                "threads {}: loads {:?} exceed cap {} + slack {}",
                threads, loads, cap, slack
            );
        }
    }
}

proptest! {
    // Each case runs 4 thread counts × (3 backends + 1 reference) of full
    // partitions; keep the count modest (nightly soaks scale it up).
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant of the shared `AtomicReplicationMatrix`
    /// design: phase 2 over one shared `O(|V|·k)` matrix (write-through
    /// prepartition, frozen + private rows or overlays for scoring) is
    /// **bit-identical** to the old sharded, OR-merged path, at every
    /// thread count, for every storage backend and for both private
    /// representations.
    #[test]
    fn atomic_phase2_is_bit_identical_to_the_sharded_merge_path(
        graph in arb_graph(),
        k in arb_k_across_row_widths(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "tps-atomic-shard-{}-{:x}",
            std::process::id(),
            graph.num_edges() * 31 + k as u64
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let v1_path = dir.join("g.bel");
        let v2_path = dir.join("g.bel2");
        tps_graph::formats::binary::write_binary_edge_list(
            &v1_path,
            graph.num_vertices(),
            graph.edges().iter().copied(),
        )
        .unwrap();
        tps_io::write_v2_edge_list(
            &v2_path,
            graph.num_vertices(),
            graph.edges().iter().copied(),
            7,
        )
        .unwrap();
        let v1 = tps_io::RangedFile::read(&v1_path).unwrap();
        let v2 = tps_io::RangedFile::read(&v2_path).unwrap();

        for threads in THREAD_COUNTS {
            let want = sharded_reference(&graph, k, threads);
            let atomic = parallel_assignments(&graph, k, threads);
            prop_assert_eq!(&atomic, &want, "mem backend, {} threads", threads);
            prop_assert_eq!(
                &parallel_assignments(&v1, k, threads),
                &want,
                "v1 backend, {} threads",
                threads
            );
            prop_assert_eq!(
                &parallel_assignments(&v2, k, threads),
                &want,
                "v2 backend, {} threads",
                threads
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The log is the old spool, observably: at every tag width (`u8` up to
    /// k = 128, `u16` up to 32 768, `u32` above), with more workers than
    /// edges (empty ranges), with and without a pass 2a, a `--threads`
    /// job emits record for record what its shards' passes wrote into per-shard
    /// sinks — multigraphs with self-loops and parallel edges included.
    #[test]
    fn decision_logs_emit_what_the_shard_passes_decided(
        graph in arb_graph(),
        k in (0usize..9).prop_map(|i| [1u32, 2, 127, 128, 129, 255, 256, 257, 40_000][i]),
        variant in 0usize..3,
    ) {
        let config = [
            TwoPhaseConfig::default(),
            TwoPhaseConfig::hdrf_variant(),
            TwoPhaseConfig { prepartitioning: false, ..Default::default() },
        ][variant];
        for threads in [1usize, 2, 3, 8, graph.num_edges() as usize + 1] {
            let want = sharded_reference_with(&graph, config, k, threads);
            let mut sink = VecSink::new();
            let report = threads_job(&graph, config, &PartitionParams::new(k), threads, &mut sink)
                .unwrap();
            prop_assert_eq!(sink.assignments(), &want[..], "k {}, {} threads", k, threads);
            if !config.prepartitioning {
                prop_assert_eq!(report.counter("prepartitioned"), 0);
            }
        }
    }
}

#[test]
fn rmat_replication_factor_within_epsilon_of_serial() {
    // A direct R-MAT generation (not just the dataset stand-ins).
    let g = rmat::generate(&rmat::RmatConfig::social(14, 120_000), 7);
    let k = 16;
    let mut serial_sink = QualitySink::new(g.num_vertices(), k);
    TwoPhasePartitioner::new(TwoPhaseConfig::default())
        .partition(&mut g.stream(), &PartitionParams::new(k), &mut serial_sink)
        .unwrap();
    let serial = serial_sink.finish();
    let cap = PartitionLoads::new(k, g.num_edges(), 1.05).cap();
    for threads in THREAD_COUNTS {
        let mut sink = QualitySink::new(g.num_vertices(), k);
        let report = threads_job(
            &g,
            TwoPhaseConfig::default(),
            &PartitionParams::new(k),
            threads,
            &mut sink,
        )
        .unwrap();
        let m = sink.finish();
        assert_eq!(m.num_edges, g.num_edges());
        assert_eq!(report.counter("cap_overshoot"), 0, "threads {threads}");
        assert!(
            m.max_load <= cap,
            "threads {threads}: max load {} > cap {cap}",
            m.max_load
        );
        // The epsilon bound documented in tps-core::parallel: the sharded
        // run loses quality only on range-straddling state.
        let eps = match threads {
            1 => 1.0,
            2 => 1.15,
            4 => 1.30,
            _ => 1.45,
        };
        assert!(
            m.replication_factor <= serial.replication_factor * eps + 1e-9,
            "threads {threads}: rf {} vs serial {} (eps {eps})",
            m.replication_factor,
            serial.replication_factor
        );
    }
}

#[test]
fn per_pass_ledger_commits_count_the_overshoot_a_dist_run_reconstructs() {
    // The degenerate regime (|E| ≲ k·T): quota slices round to zero, workers
    // overshoot, and the count must not depend on who counts it — the
    // in-process workers' per-pass ledger commits (summed into the report),
    // the merged loads of the output, and a ledger-free dist-local run all
    // agree, for every thread interleaving.
    let edges: Vec<Edge> = (0..40u32)
        .map(|i| Edge::new(i % 13, (i * 7 + 1) % 13))
        .collect();
    let g = InMemoryGraph::from_edges(edges);
    let k = 16;
    let params = PartitionParams::new(k);
    let mut saw_overshoot = false;
    for threads in [2usize, 3, 8] {
        let mut sink = VecSink::new();
        let report =
            threads_job(&g, TwoPhaseConfig::default(), &params, threads, &mut sink).unwrap();
        let mut loads = vec![0u64; k as usize];
        for &(_, p) in sink.assignments() {
            loads[p as usize] += 1;
        }
        let from_loads = overshoot_from_loads(&loads, k, g.num_edges(), params.alpha);
        assert_eq!(
            report.counter("cap_overshoot"),
            from_loads,
            "threads {threads}"
        );

        let mut dist_sink = VecSink::new();
        let dist_report = tps_dist::run_dist_local(
            &g,
            &TwoPhaseConfig::default(),
            &params,
            threads,
            &mut dist_sink,
        )
        .unwrap();
        assert_eq!(dist_sink.assignments(), sink.assignments());
        assert_eq!(
            dist_report.counter("cap_overshoot"),
            from_loads,
            "dist-local, {threads} workers"
        );
        saw_overshoot |= from_loads > 0;
    }
    assert!(saw_overshoot, "the regime under test never overshot");
}

#[test]
fn parallel_result_is_independent_of_the_storage_backend() {
    let g = Dataset::Ok.generate_scaled(0.02);
    let dir = std::env::temp_dir().join(format!("tps-par-backend-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v1_path = dir.join("g.bel");
    let v2_path = dir.join("g.bel2");
    tps_graph::formats::binary::write_binary_edge_list(
        &v1_path,
        g.num_vertices(),
        g.edges().iter().copied(),
    )
    .unwrap();
    // A chunk size that does not divide the thread ranges.
    tps_io::write_v2_edge_list(&v2_path, g.num_vertices(), g.edges().iter().copied(), 777).unwrap();

    let k = 8;
    let threads = 3;
    let reference = parallel_assignments(&g, k, threads);
    assert_eq!(reference.len() as u64, g.num_edges());

    let v1 = tps_io::RangedFile::read(&v1_path).unwrap();
    let v2 = tps_io::RangedFile::read(&v2_path).unwrap();
    assert_eq!(parallel_assignments(&v1, k, threads), reference, "v1 file");
    assert_eq!(parallel_assignments(&v2, k, threads), reference, "v2 file");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restreaming_and_hdrf_variants_run_parallel() {
    let g = Dataset::It.generate_scaled(0.01);
    for cfg in [
        TwoPhaseConfig::with_passes(2),
        TwoPhaseConfig::hdrf_variant(),
    ] {
        for threads in [2usize, 4] {
            let mut sink = VecSink::new();
            threads_job(&g, cfg, &PartitionParams::new(8), threads, &mut sink).unwrap();
            assert_eq!(sink.assignments().len() as u64, g.num_edges());
        }
    }
}

/// Several shards share one replication matrix whose word indices must fit
/// `u32`. A 72-byte v1 file whose header claims |V| = 70 000 000 asks for
/// 4.48 × 10⁹ packed words at k = 4096: a `--threads 2` job refuses it as
/// `InvalidInput` naming |V|, k and the bound before its first pass — no
/// degree table or clustering of 70 M vertices is allocated first, nor the
/// 35.8 GB |V|·k-bit matrix of the quality sink a debug build tees in — where
/// it used to panic in the matrix constructor after phase 1. (`tps
/// partition --threads 2` prints the message and exits 2.)
#[test]
fn a_replica_matrix_too_large_to_share_is_refused_before_the_first_pass() {
    let dir = std::env::temp_dir().join(format!("tps-par-huge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge.bel");
    let mut bytes = b"TPSBEL1\0".to_vec();
    bytes.extend_from_slice(&70_000_000u64.to_le_bytes());
    bytes.extend_from_slice(&8u64.to_le_bytes());
    for v in 0..8u32 {
        bytes.extend_from_slice(&v.to_le_bytes());
        bytes.extend_from_slice(&(v + 1).to_le_bytes());
    }
    std::fs::write(&path, bytes).unwrap();
    let source = tps_io::open_ranged(&path).unwrap();
    let err = threads_job(
        &*source,
        TwoPhaseConfig::default(),
        &PartitionParams::new(4096),
        2,
        &mut VecSink::new(),
    )
    .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    let msg = err.to_string();
    for needle in ["|V| = 70000000", "k = 4096", "2^32 − 1 packed words"] {
        assert!(msg.contains(needle), "{needle}: {msg}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
