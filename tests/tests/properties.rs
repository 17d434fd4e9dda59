//! Property-based tests (proptest) over arbitrary graphs.

use proptest::prelude::*;
use tps_core::balance::PartitionLoads;
use tps_core::partitioner::{PartitionParams, Partitioner};
use tps_core::sink::VecSink;
use tps_core::two_phase::{TwoPhaseConfig, TwoPhasePartitioner};
use tps_graph::degree::DegreeTable;
use tps_graph::stream::InMemoryGraph;
use tps_graph::types::Edge;

/// Arbitrary small graphs: up to 200 edges over up to 64 vertices, with
/// duplicates and self-loops allowed (the algorithms must tolerate both).
fn arb_graph() -> impl Strategy<Value = InMemoryGraph> {
    proptest::collection::vec((0u32..64, 0u32..64), 1..200)
        .prop_map(|pairs| InMemoryGraph::from_edges(pairs.into_iter().map(Edge::from).collect()))
}

fn assert_complete(
    name: &str,
    graph: &InMemoryGraph,
    assignments: &[(Edge, u32)],
    k: u32,
) -> Result<(), TestCaseError> {
    prop_assert!(
        assignments.iter().all(|&(_, p)| p < k),
        "{name}: bad partition id"
    );
    let mut got: Vec<Edge> = assignments.iter().map(|(e, _)| *e).collect();
    let mut want: Vec<Edge> = graph.edges().to_vec();
    got.sort();
    want.sort();
    prop_assert_eq!(got, want, "{}: incomplete assignment", name);
    Ok(())
}

/// The frozen `clustering` against the clustering and its Graham
/// placement onto `k` partitions, vertex by vertex.
fn check_plan(clustering: &tps_clustering::model::Clustering, k: u32) -> Result<(), TestCaseError> {
    use tps_clustering::model::NO_CLUSTER;
    use tps_core::two_phase::mapping::ClusterPlacement;
    let placement = ClusterPlacement::sorted_list_schedule(clustering, k);
    let plan = clustering.clone().freeze(placement.c2p().to_vec());
    for v in 0..clustering.num_vertices() as u32 {
        let c = plan.cluster_of(v);
        prop_assert_eq!(c, clustering.raw_cluster_of(v), "vertex {}", v);
        if c != NO_CLUSTER {
            prop_assert_eq!(plan.volume(c), clustering.volume(c), "cluster {}", c);
            prop_assert_eq!(
                plan.partition_of(c),
                placement.partition_of(c),
                "cluster {}",
                c
            );
        }
    }
    Ok(())
}

// A wrapper so `assert_complete` can use prop_assert inside a helper.
fn check_partitioner(
    p: &mut dyn Partitioner,
    graph: &InMemoryGraph,
    k: u32,
) -> Result<Vec<(Edge, u32)>, TestCaseError> {
    let mut sink = VecSink::new();
    let mut stream = graph.stream();
    p.partition(&mut stream, &PartitionParams::new(k), &mut sink)
        .map_err(|e| TestCaseError::fail(format!("{}: {e}", p.name())))?;
    assert_complete(&p.name(), graph, sink.assignments(), k)?;
    Ok(sink.into_assignments())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn two_phase_invariants(graph in arb_graph(), k in 1u32..9) {
        let assignments = check_partitioner(
            &mut TwoPhasePartitioner::new(TwoPhaseConfig::default()),
            &graph,
            k,
        )?;
        // Hard cap holds on every generated graph.
        let cap = PartitionLoads::new(k, graph.num_edges(), 1.05).cap();
        let mut loads = vec![0u64; k as usize];
        for &(_, p) in &assignments {
            loads[p as usize] += 1;
        }
        prop_assert!(loads.iter().all(|&l| l <= cap), "cap {cap} violated: {loads:?}");
    }

    #[test]
    fn streaming_baselines_invariants(graph in arb_graph(), k in 1u32..9) {
        check_partitioner(&mut tps_baselines::HdrfPartitioner::default(), &graph, k)?;
        check_partitioner(&mut tps_baselines::DbhPartitioner::default(), &graph, k)?;
        check_partitioner(&mut tps_baselines::GreedyPartitioner, &graph, k)?;
    }

    #[test]
    fn in_memory_baselines_invariants(graph in arb_graph(), k in 1u32..9) {
        check_partitioner(&mut tps_baselines::NePartitioner, &graph, k)?;
        check_partitioner(&mut tps_baselines::MultilevelPartitioner::default(), &graph, k)?;
    }

    #[test]
    fn clustering_volume_invariant(graph in arb_graph(), passes in 1u32..4) {
        let mut stream = graph.stream();
        let degrees = DegreeTable::compute(&mut stream, graph.num_vertices()).unwrap();
        let cfg = tps_clustering::streaming::ClusteringConfig::for_partitions(4, 1.0, passes);
        let clustering =
            tps_clustering::streaming::cluster_stream(&mut stream, &degrees, &cfg).unwrap();
        prop_assert!(clustering.check_volume_invariant(&degrees).is_ok());
        // Every stream vertex (degree > 0) is clustered.
        for v in 0..graph.num_vertices() as u32 {
            if degrees.degree(v) > 0 {
                prop_assert!(clustering.cluster_of(v).is_some(), "vertex {v} unclustered");
            }
        }
    }

    /// Phase 2's packed plan answers every vertex's cluster, and every
    /// cluster's volume and partition, exactly as the clustering and its
    /// placement do (unclustered vertices included).
    #[test]
    fn cluster_plan_answers_like_clustering_and_placement(
        graph in arb_graph(),
        passes in 1u32..4,
        k in 1u32..9,
    ) {
        let mut stream = graph.stream();
        let degrees = DegreeTable::compute(&mut stream, graph.num_vertices()).unwrap();
        let cfg = tps_clustering::streaming::ClusteringConfig::for_partitions(k, 1.0, passes);
        let clustering =
            tps_clustering::streaming::cluster_stream(&mut stream, &degrees, &cfg).unwrap();
        check_plan(&clustering, k)?;
    }

    /// The same at every id-space width: up to 70 000 cluster ids, so the
    /// map packs to 1, 2 or 3 bytes, with arbitrary unclustered vertices.
    #[test]
    fn cluster_plan_answers_like_clustering_at_any_id_width(
        ids in 1u32..70_000,
        slots in proptest::collection::vec((0u32..10, 0u32..u32::MAX), 1..300),
        k in 1u32..9,
    ) {
        use tps_clustering::model::{Clustering, NO_CLUSTER};
        // One vertex in ten unclustered; the largest id always used, so the
        // width is the id space's.
        let mut v2c: Vec<u32> = slots
            .iter()
            .map(|&(roll, c)| if roll == 0 { NO_CLUSTER } else { c % ids })
            .collect();
        v2c[0] = ids - 1;
        let volumes = (0..ids).map(|c| u64::from(c % 5)).collect();
        check_plan(&Clustering::from_parts(v2c, volumes), k)?;
    }

    #[test]
    fn binary_format_roundtrip(pairs in proptest::collection::vec((0u32..1000, 0u32..1000), 0..100)) {
        let edges: Vec<Edge> = pairs.into_iter().map(Edge::from).collect();
        let path = std::env::temp_dir().join(format!(
            "tps-prop-{}-{}.bel",
            std::process::id(),
            edges.len()
        ));
        tps_graph::formats::binary::write_binary_edge_list(&path, 1000, edges.iter().copied())
            .unwrap();
        let mut f = tps_io::open_edge_stream(&path, tps_io::ReaderBackend::Buffered).unwrap();
        let mut back = Vec::new();
        tps_graph::stream::for_each_edge(&mut f, |e| back.push(e)).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back, edges);
    }

    #[test]
    fn replication_factor_bounds(graph in arb_graph(), k in 1u32..9) {
        // RF of any complete assignment lies in [1, min(k, max_degree)].
        let assignments = check_partitioner(
            &mut tps_baselines::RandomPartitioner::default(),
            &graph,
            k,
        )?;
        let mut tracker =
            tps_metrics::quality::QualityTracker::new(graph.num_vertices(), k);
        for &(e, p) in &assignments {
            tracker.record(e, p);
        }
        let m = tracker.finish();
        let mut stream = graph.stream();
        let degrees = DegreeTable::compute(&mut stream, graph.num_vertices()).unwrap();
        prop_assert!(m.replication_factor >= 1.0 - 1e-12);
        let bound = (k as f64).min(degrees.max_degree() as f64);
        prop_assert!(
            m.replication_factor <= bound + 1e-12,
            "rf {} > bound {bound}",
            m.replication_factor
        );
    }

    #[test]
    fn graham_mapping_is_balanced(volumes in proptest::collection::vec(1u64..100, 1..64), k in 1u32..9) {
        let v2c: Vec<u32> = (0..volumes.len() as u32).collect();
        let clustering = tps_clustering::model::Clustering::from_parts(v2c, volumes.clone());
        let placement =
            tps_core::two_phase::mapping::ClusterPlacement::sorted_list_schedule(&clustering, k);
        let total: u64 = volumes.iter().sum();
        let max_job = *volumes.iter().max().unwrap();
        let lower = (total as f64 / k as f64).max(max_job as f64);
        // Graham's LPT guarantee: makespan ≤ 4/3 · OPT ≤ 4/3 · max(avg, max).
        // (OPT itself is ≥ both terms.)
        prop_assert!(
            placement.makespan() as f64 <= lower * (4.0 / 3.0) + 1.0,
            "makespan {} vs LPT bound {}",
            placement.makespan(),
            lower * 4.0 / 3.0
        );
    }
}

/// The partition counts the replica-matrix property runs at: both sides of
/// every lane width (1, 2, 4, …, 64 bits) and of the one- and two-word
/// rows above 64.
const MATRIX_KS: [u32; 16] = [1, 2, 3, 7, 8, 9, 16, 17, 31, 32, 33, 63, 64, 65, 128, 200];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `ReplicationMatrix` against a `HashSet<(v, p)>` oracle at every k of
    /// [`MATRIX_KS`], with |V| never a multiple of the rows per word (the
    /// last word is part-filled): set/get, `replica_count`,
    /// `partitions_of`, the cover counts, `census`, and `range_words` →
    /// `install_range_words` over word-aligned ranges.
    #[test]
    fn replication_matrix_matches_a_set_oracle(
        nv in 1u64..150,
        ops in proptest::collection::vec((0u64..1 << 20, 0u32..1 << 20), 0..400),
        cut in (0u64..1 << 20, 0u64..1 << 20),
    ) {
        use std::collections::{BTreeSet, HashSet};
        use tps_metrics::bitmatrix::{ReplicaCensus, ReplicationMatrix, RowLayout};
        for k in MATRIX_KS {
            let rpw = RowLayout::new(k).rows_per_word();
            let nv = if rpw > 1 && nv % rpw == 0 { nv + 1 } else { nv };
            let mut m = ReplicationMatrix::new(nv, k);
            let mut oracle = HashSet::new();
            for &(v, p) in &ops {
                let (v, p) = ((v % nv) as u32, p % k);
                prop_assert_eq!(m.set(v, p), oracle.insert((v, p)), "set ({}, {}) at k {}", v, p, k);
            }
            let mut census = ReplicaCensus::default();
            for v in 0..nv as u32 {
                let row: BTreeSet<u32> = (0..k).filter(|&p| oracle.contains(&(v, p))).collect();
                for p in 0..k {
                    prop_assert_eq!(m.get(v, p), row.contains(&p), "get ({}, {}) at k {}", v, p, k);
                }
                prop_assert_eq!(m.replica_count(v) as usize, row.len());
                prop_assert_eq!(m.partitions_of(v).collect::<Vec<_>>(), row.iter().copied().collect::<Vec<_>>());
                census.covered_vertices += u64::from(!row.is_empty());
                census.total_replicas += row.len() as u64;
            }
            for p in 0..k {
                let want = oracle.iter().filter(|&&(_, q)| q == p).count() as u64;
                prop_assert_eq!(m.cover_count(p), want, "cover count of {} at k {}", p, k);
            }
            prop_assert_eq!(m.census(), census);

            // A word-aligned range [v0, v1) installed over another matrix takes
            // the source's rows there, keeps its own elsewhere, and recounts.
            let v0 = (cut.0 % nv) / rpw * rpw;
            let v1 = (v0 + cut.1 % (nv - v0 + 1)).div_ceil(rpw) * rpw;
            let v1 = v1.min(nv);
            let mut dst = ReplicationMatrix::new(nv, k);
            for v in 0..nv as u32 {
                dst.set(v, (v * 7 + 3) % k);
            }
            let before = dst.clone();
            dst.install_range_words(v0, m.range_words(v0, v1)).unwrap();
            for v in 0..nv as u32 {
                let from = if (v0..v1).contains(&(v as u64)) { &m } else { &before };
                for p in 0..k {
                    prop_assert_eq!(dst.get(v, p), from.get(v, p), "({}, {}) at k {}, [{}, {})", v, p, k, v0, v1);
                }
            }
            let whole = ReplicationMatrix::from_raw_words(nv, k, dst.range_words(0, nv).to_vec()).unwrap();
            for p in 0..k {
                prop_assert_eq!(dst.cover_count(p), whole.cover_count(p), "recount of {} at k {}", p, k);
            }
            prop_assert_eq!(dst.census(), whole.census());
        }
    }
}

/// The k of the decision-log round trip: one-byte escapes up to k = 256,
/// two up to 65 536, three at 65 537.
const LOG_KS: [u32; 8] = [1, 2, 3, 64, 65, 256, 257, 65_537];

/// One pass of hand-made `decisions` — per edge, whether pass 2a decides
/// it and the partition it gets — into `out`, the edges of `graph` read
/// in order. An out that recorded pass 2a must know its positions.
fn drive_pass<O: tps_core::sink::DecisionOut>(
    graph: &InMemoryGraph,
    plan: &tps_clustering::model::ClusterPlan,
    decisions: &[(bool, u32)],
    in_2a: bool,
    out: &mut O,
) {
    let mut i = 0;
    tps_core::sink::decision_pass(&mut graph.stream(), out, |e, out| {
        let (decided_in_2a, p) = decisions[i];
        i += 1;
        if !in_2a {
            if let Some(earlier) = out.decided_earlier() {
                assert_eq!(earlier, decided_in_2a, "edge {}", i - 1);
            }
        }
        if decided_in_2a == in_2a {
            let ends = [e.src, e.dst].map(|v| plan.partition_of(plan.cluster_of(v)));
            out.decide(e, p, ends);
        }
    })
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A shard's `DecisionLog` against the one-shard path: arbitrary
    /// decisions — to the source's cluster partition, the destination's,
    /// or an escape off both — in both subpasses, or with pass 2a off, on
    /// shards whose length is not a multiple of 4, at every k of
    /// [`LOG_KS`]. `emit` hands the sink exactly the records a `VecSink`
    /// gets through a `SinkBatch`, and `heap_bytes()` — what
    /// `core.decision_log.bytes` counts — is ⌈n/4⌉ plus each escape in the
    /// bytes `k − 1` needs.
    #[test]
    fn decision_log_emits_what_the_one_shard_path_hands_on(
        ki in 0usize..8,
        quads in 0usize..5_000,
        rem in 1usize..4,
        prepartitioning in 0u32..2,
        clusters in 1u32..7,
        seed in 0u64..u64::MAX,
    ) {
        use tps_clustering::model::Clustering;
        use tps_core::sink::{DecisionLog, EmitPlan, SinkBatch, Subpass};
        use tps_graph::packed::PackedU32s;

        let (k, n, prepartitioning) = (LOG_KS[ki], 4 * quads + rem, prepartitioning == 1);
        // splitmix64 over the case's seed.
        let mut state = seed;
        let mut below = |bound: u32| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % u64::from(bound)) as u32
        };
        let nv = 40u32;
        let v2c: Vec<u32> = (0..nv).map(|_| below(clusters)).collect();
        let c2p: Vec<u32> = (0..clusters).map(|_| below(k)).collect();
        let plan = Clustering::from_parts(v2c, vec![1; clusters as usize]).freeze(c2p);
        let graph = InMemoryGraph::with_num_vertices(
            (0..n).map(|_| Edge::new(below(nv), below(nv))).collect(),
            u64::from(nv),
        );
        // With pass 2a on, it decides exactly the edges whose endpoints'
        // clusters share a partition; each decision picks an end or any
        // partition, an escape when that is off both ends.
        let mut escapes = 0;
        let decisions: Vec<(bool, u32)> = graph
            .edges()
            .iter()
            .map(|&e| {
                let ends = [e.src, e.dst].map(|v| plan.partition_of(plan.cluster_of(v)));
                let p = match below(3) {
                    2 => below(k),
                    end => ends[end as usize],
                };
                escapes += usize::from(!ends.contains(&p));
                (prepartitioning && ends[0] == ends[1], p)
            })
            .collect();
        let subpasses = [(Subpass::Prepartition, true), (Subpass::Remaining, false)];
        let subpasses = &subpasses[usize::from(!prepartitioning)..];

        let mut want = VecSink::new();
        for &(_, in_2a) in subpasses {
            drive_pass(&graph, &plan, &decisions, in_2a, &mut SinkBatch::new(&mut want));
        }
        let mut log = DecisionLog::new(n as u64, k).unwrap();
        for &(subpass, in_2a) in subpasses {
            let mut pass = log.pass(subpass);
            drive_pass(&graph, &plan, &decisions, in_2a, &mut pass);
            pass.finish().unwrap();
        }
        let mut got = VecSink::new();
        log.emit(&mut graph.stream(), &EmitPlan::new(&plan, k), &mut got).unwrap();
        prop_assert_eq!(got.assignments(), want.assignments(), "k {} n {}", k, n);
        prop_assert_eq!(
            log.heap_bytes(),
            n.div_ceil(4) + escapes * PackedU32s::width_for(k - 1),
            "k {} n {} escapes {}", k, n, escapes
        );
    }
}
