//! Property-based tests (proptest) over the incremental 2PS-L engine.
//!
//! Pins the contract `tps-serve` builds on: bootstrap *is* the serial
//! 2PS-L run, edge for edge, under every configuration; novel-edge churn
//! that is fully undone restores the bootstrap state bit for bit; and the
//! retained books (per-partition loads, replica reference counts,
//! staleness) stay exact under arbitrary interleavings of insertions and
//! deletions.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use proptest::prelude::*;
use tps_core::incremental::IncrementalTwoPhase;
use tps_core::two_phase::{MappingStrategy, TwoPhaseConfig};
use tps_core::{PartitionParams, Partitioner, TwoPhasePartitioner, VecSink};
use tps_graph::stream::InMemoryGraph;
use tps_graph::types::Edge;

/// Arbitrary simple graphs: unique canonical edges, no self-loops (the
/// engine's live-edge map is keyed on canonical edges, so duplicates and
/// loops are the *callers'* problem — `ServeState::apply` rejects them).
fn simple_edges(pairs: Vec<(u32, u32)>) -> Vec<Edge> {
    let uniq: BTreeSet<(u32, u32)> = pairs
        .into_iter()
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    uniq.into_iter().map(|(s, d)| Edge::new(s, d)).collect()
}

fn arb_simple_graph() -> impl Strategy<Value = InMemoryGraph> {
    proptest::collection::vec((0u32..48, 0u32..48), 1..120).prop_map(|pairs| {
        let mut edges = simple_edges(pairs);
        if edges.is_empty() {
            edges.push(Edge::new(0, 1)); // all draws were self-loops
        }
        InMemoryGraph::from_edges(edges)
    })
}

/// Novel edges disjoint from [`arb_simple_graph`]'s vertex range, so
/// inserting them never collides with a bootstrap edge.
fn arb_novel_edges() -> impl Strategy<Value = Vec<Edge>> {
    proptest::collection::vec((48u32..80, 48u32..80), 1..40).prop_map(simple_edges)
}

/// Simple graphs in draw order and orientation (the first draw of each
/// undirected edge wins), with up to a few hundred edges over 160 ids, so
/// multi-member clusters, full partitions and both phase-2 subpasses occur.
fn arb_stream_graph() -> impl Strategy<Value = InMemoryGraph> {
    proptest::collection::vec((0u32..160, 0u32..160), 2..480).prop_map(|pairs| {
        let mut seen = HashSet::new();
        let mut edges: Vec<Edge> = pairs
            .into_iter()
            .filter(|&(a, b)| a != b && seen.insert((a.min(b), a.max(b))))
            .map(|(a, b)| Edge::new(a, b))
            .collect();
        if edges.is_empty() {
            edges.push(Edge::new(1, 0));
        }
        InMemoryGraph::from_edges(edges)
    })
}

/// The serial engine's assignment (canonicalised) and loads.
fn engine_run(
    graph: &InMemoryGraph,
    k: u32,
    config: TwoPhaseConfig,
) -> (BTreeMap<Edge, u32>, Vec<u64>) {
    let mut sink = VecSink::new();
    TwoPhasePartitioner::new(config)
        .partition(&mut graph.stream(), &PartitionParams::new(k), &mut sink)
        .expect("in-memory run cannot fail");
    let mut loads = vec![0u64; k as usize];
    let live = sink
        .into_assignments()
        .into_iter()
        .map(|(e, p)| {
            loads[p as usize] += 1;
            (e.canonical(), p)
        })
        .collect();
    (live, loads)
}

fn bootstrap(graph: &InMemoryGraph, k: u32) -> IncrementalTwoPhase {
    let mut stream = graph.stream();
    IncrementalTwoPhase::bootstrap(&mut stream, k, 1.05, 1.5, TwoPhaseConfig::default())
        .expect("bootstrap over an in-memory stream cannot fail")
}

fn live_map(eng: &IncrementalTwoPhase) -> BTreeMap<Edge, u32> {
    eng.assignments().collect()
}

/// The books must be derivable from the live assignment alone: loads are
/// per-partition edge counts, and a vertex has a replica on `p` iff some
/// live edge incident to it lives on `p` (exact retraction on delete).
fn check_books(eng: &IncrementalTwoPhase, k: u32) -> Result<(), TestCaseError> {
    let live = live_map(eng);
    let mut loads = vec![0u64; k as usize];
    for p in live.values() {
        loads[*p as usize] += 1;
    }
    prop_assert_eq!(eng.loads(), &loads[..], "loads diverged from a recount");
    prop_assert_eq!(eng.num_edges(), live.len() as u64);
    for v in 0..eng.num_vertices() as u32 {
        for p in 0..k {
            let want = live
                .iter()
                .any(|(e, &q)| q == p && (e.src == v || e.dst == v));
            prop_assert_eq!(
                eng.has_replica(v, p),
                want,
                "replica books wrong at vertex {} partition {}",
                v,
                p
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bootstrap is the serial engine run: the same partition for every
    /// edge and the same loads, for every configuration the engine
    /// honours (the remaining-edge strategy, pass count, pre-partitioning
    /// and mapping), every `k` and every head-room factor — head-room only
    /// loosens the cap that later insertions see.
    #[test]
    fn bootstrap_is_the_serial_engine_run(graph in arb_stream_graph()) {
        let configs = [
            ("default", TwoPhaseConfig::default()),
            ("2ps-hdrf", TwoPhaseConfig::hdrf_variant()),
            ("2 passes", TwoPhaseConfig::with_passes(2)),
            ("no prepartitioning", TwoPhaseConfig {
                prepartitioning: false,
                ..TwoPhaseConfig::default()
            }),
            ("unsorted first-fit", TwoPhaseConfig {
                mapping: MappingStrategy::UnsortedFirstFit,
                ..TwoPhaseConfig::default()
            }),
        ];
        for (name, config) in configs {
            for k in [1u32, 2, 8, 65] {
                let (want, loads) = engine_run(&graph, k, config);
                for headroom in [1.0, 1.5] {
                    let eng = IncrementalTwoPhase::bootstrap(
                        &mut graph.stream(), k, 1.05, headroom, config,
                    ).expect("bootstrap over a simple graph cannot fail");
                    prop_assert_eq!(
                        live_map(&eng), want.clone(),
                        "{} k={} headroom={}: assignment", name, k, headroom
                    );
                    prop_assert_eq!(
                        eng.loads(), &loads[..],
                        "{} k={} headroom={}: loads", name, k, headroom
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Inserting novel edges and then removing them all restores the
    /// bootstrap assignment bit for bit, with staleness strictly
    /// increasing across every mutation (it counts drift, not live size).
    #[test]
    fn undone_novel_churn_restores_bootstrap(
        graph in arb_simple_graph(),
        k in 1u32..9,
        novel in arb_novel_edges(),
    ) {
        let mut eng = bootstrap(&graph, k);
        prop_assert_eq!(eng.staleness(), 0.0, "zero drift at bootstrap");
        let baseline = live_map(&eng);
        prop_assert_eq!(baseline.len() as u64, graph.num_edges());
        check_books(&eng, k)?;

        let mut staleness = 0.0;
        let mut given = Vec::new();
        for &e in &novel {
            let p = eng.insert(e);
            prop_assert!(p < k);
            prop_assert_eq!(eng.partition_of(e), Some(p));
            prop_assert!(eng.staleness() > staleness, "staleness must grow per mutation");
            staleness = eng.staleness();
            given.push((e, p));
        }
        check_books(&eng, k)?;

        for &(e, p) in given.iter().rev() {
            prop_assert_eq!(eng.remove(e), Some(p), "removal must report the live partition");
            prop_assert!(eng.staleness() > staleness, "staleness must grow per mutation");
            staleness = eng.staleness();
        }
        prop_assert_eq!(live_map(&eng), baseline, "undone churn must restore bootstrap");
        check_books(&eng, k)?;
    }

    /// Removing and re-inserting live edges keeps the books exact: the
    /// re-inserted edge may land on a different partition, but the live
    /// edge *set* and every derived count stay consistent throughout.
    #[test]
    fn live_edge_churn_keeps_books_exact(
        graph in arb_simple_graph(),
        k in 1u32..9,
        stride in 1usize..5,
    ) {
        let mut eng = bootstrap(&graph, k);
        let baseline = live_map(&eng);
        let victims: Vec<Edge> = baseline.keys().copied().step_by(stride).collect();

        for &e in &victims {
            prop_assert!(eng.remove(e).is_some());
            prop_assert_eq!(eng.partition_of(e), None);
            prop_assert_eq!(eng.remove(e), None, "double remove must be rejected");
        }
        check_books(&eng, k)?;

        for &e in &victims {
            let p = eng.insert(e);
            prop_assert!(p < k);
            prop_assert_eq!(eng.partition_of(e), Some(p));
        }
        check_books(&eng, k)?;
        let after: Vec<Edge> = live_map(&eng).keys().copied().collect();
        let want: Vec<Edge> = baseline.keys().copied().collect();
        prop_assert_eq!(after, want, "churn must preserve the live edge set");
    }
}
