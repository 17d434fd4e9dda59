//! Out-of-core end-to-end: a `--mem-budget-mb` job whose cluster state
//! pages through a real on-disk `FilePageStore` must be bit-identical to
//! the unbudgeted run — assignments, replication factor, everything the
//! partitioner decides. This is the integration half of the proptested
//! per-crate bit-identity suites (`tps-clustering::paged`,
//! `tps-core::two_phase`): here the whole stack runs, file input through
//! `tps_io::run_job`, with pages actually hitting disk.

use std::sync::Arc;

use tps_clustering::paged::{PageStoreProvider, PagedClustering};
use tps_clustering::streaming::clustering_pass_on;
use tps_core::job::{JobSpec, ThreadMode};
use tps_core::parallel::resolve_volume_cap;
use tps_core::partitioner::{PartitionParams, Partitioner};
use tps_core::sink::VecSink;
use tps_core::two_phase::{ClusterPaging, TwoPhaseConfig, TwoPhasePartitioner};
use tps_graph::datasets::Dataset;
use tps_graph::degree::DegreeTable;
use tps_graph::gen::planted::{self, PlantedConfig};
use tps_graph::stream::InMemoryGraph;
use tps_io::{write_v2_edge_list, TempPageStoreProvider};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tps-ooc-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn budgeted_file_job_is_bit_identical_to_unbudgeted() {
    let graph = Dataset::Ok.generate_scaled(0.01);
    let dir = tmpdir("bitident");
    let path = dir.join("ok.bel2");
    write_v2_edge_list(
        &path,
        graph.num_vertices(),
        graph.edges().iter().copied(),
        4096,
    )
    .unwrap();

    let run = |threads: ThreadMode, budget_mb: u64| {
        let mut sink = VecSink::new();
        let outcome = tps_io::run_job(
            JobSpec::path(&path)
                .k(8)
                .threads(threads)
                .mem_budget_mb(budget_mb)
                .extra_sink(&mut sink),
        )
        .unwrap();
        (sink.into_assignments(), outcome)
    };

    // Serial pages its cluster state; two workers take only the decode
    // share of the budget and keep their decision logs.
    for threads in [ThreadMode::Serial, ThreadMode::Count(2)] {
        let (base_assign, base) = run(threads, 0);
        // 1 MiB: cluster-page share is 512 KiB against ~8 MiB of cluster
        // state for this graph — real eviction through the temp-dir page
        // files.
        for budget_mb in [1u64, 4096] {
            let (assign, outcome) = run(threads, budget_mb);
            let at = format!("{threads:?} at {budget_mb} MiB");
            assert_eq!(assign, base_assign, "{at} diverged");
            assert_eq!(
                outcome.metrics.replication_factor, base.metrics.replication_factor,
                "{at} changed rf"
            );
            assert_eq!(
                outcome.report.counter("paging_budget_bytes") > 0,
                threads == ThreadMode::Serial,
                "{at}: only the serial engine pages cluster state"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Id compaction keeps an endpoint-sorted input's cluster state resident:
/// on a planted graph whose `v2c` fits the frame pool, a 3-pass budgeted
/// run through file-backed pages takes its faults in pass 1 — after that,
/// at most one per cold `v2c` page — within the compaction bound. The same
/// budget through the serial job adds only the `c2p` pages and partitions
/// exactly as the unbudgeted run does.
#[test]
fn compaction_keeps_sorted_input_resident_after_pass_one() {
    let mut edges = planted::generate(&PlantedConfig::web(20_000, 160_000), 7)
        .edges()
        .to_vec();
    edges.sort_by_key(|e| (e.src.min(e.dst), e.src.max(e.dst)));
    let g = InMemoryGraph::from_edges(edges);
    let nv = g.num_vertices();
    let (k, passes, page) = (32u32, 3u32, 4096u64);
    let v2c_pages = (nv * 4).div_ceil(page);
    let budget = (v2c_pages + 8) * page;
    let dir = tmpdir("compact");

    // Phase 1 by hand, pass by pass, compacting at each boundary as the
    // serial runner does.
    let provider = TempPageStoreProvider::new(dir.join("hand"));
    let degrees = DegreeTable::compute(&mut g.stream(), nv).unwrap();
    let config = TwoPhaseConfig::with_passes(passes);
    let cap = resolve_volume_cap(&config, k, &degrees);
    let store = provider.open_store(page as usize).unwrap();
    let mut table = PagedClustering::with_page_size(nv, budget, page as usize, store);
    let mut after = Vec::new();
    for _ in 0..passes {
        clustering_pass_on(&mut g.stream(), &degrees, cap, &mut table).unwrap();
        table.compact_ids();
        table.check_io().unwrap();
        after.push(table.stats());
    }
    let (pass1, end) = (after[0], after[after.len() - 1]);
    assert!(
        pass1.compactions > 1,
        "pass 1 must compact mid-pass: {pass1:?}"
    );
    assert!(end.compactions <= 64 + passes as u64, "{end:?}");
    assert!(
        end.faults - pass1.faults <= v2c_pages,
        "faults after pass 1 beyond the cold v2c pages: {pass1:?} then {end:?}"
    );
    let clusters = table.num_nonempty_clusters();
    assert_eq!(end.ids_dropped + clusters, nv, "each dead id dropped once");

    // The whole serial job at the same budget.
    let params = PartitionParams::new(k);
    let mut base = VecSink::new();
    TwoPhasePartitioner::new(config)
        .partition(&mut g.stream(), &params, &mut base)
        .unwrap();
    let paging = ClusterPaging {
        budget_bytes: budget,
        page_size: page as usize,
        provider: Arc::new(TempPageStoreProvider::new(dir.join("job"))),
    };
    let mut paged = VecSink::new();
    let report = TwoPhasePartitioner::new(config)
        .with_cluster_paging(paging)
        .partition(&mut g.stream(), &params, &mut paged)
        .unwrap();
    assert_eq!(paged.assignments(), base.assignments());
    assert_eq!(report.counter("clusters"), clusters);
    assert_eq!(report.counter("cluster_ids_dropped"), end.ids_dropped);
    let c2p_pages = (clusters * 4).div_ceil(page);
    assert!(
        report.counter("paging_faults") <= end.faults + c2p_pages,
        "phase 2 faulted beyond c2p: {} vs {end:?}",
        report.counter("paging_faults")
    );
    std::fs::remove_dir_all(&dir).ok();
}
