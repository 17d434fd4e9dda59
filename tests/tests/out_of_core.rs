//! Out-of-core end-to-end: a `--mem-budget-mb` job whose cluster state
//! pages through a real on-disk `FilePageStore` must be bit-identical to
//! the unbudgeted run — assignments, replication factor, everything the
//! partitioner decides. This is the integration half of the proptested
//! per-crate bit-identity suites (`tps-clustering::paged`,
//! `tps-core::two_phase`): here the whole stack runs, file input through
//! `tps_io::run_job`, with pages actually hitting disk.

use tps_core::job::{JobSpec, ThreadMode};
use tps_core::sink::VecSink;
use tps_graph::datasets::Dataset;
use tps_io::write_v2_edge_list;

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
