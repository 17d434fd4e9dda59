//! End-to-end live metrics: scrape a serving daemon and pin the exposition.
//!
//! The acceptance claim for the metrics plane: a scrape of a daemon under
//! a serve-smoke-shaped workload returns **every** registered counter,
//! gauge and per-op histogram — with quantile lines that match what the
//! histogram snapshots themselves compute — counters are monotone across
//! scrapes, and turning recording (or tracing) on or off never changes a
//! served answer.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};

use tps_graph::types::Edge;
use tps_obs::{
    counters_snapshot, hists_snapshot, parse_exposition, scrape, set_metrics_enabled, Sample,
    EXPORT_QUANTILES,
};
use tps_serve::{
    spawn_loopback, start_metrics, ServeClient, ServeOptions, ServeState, ServerConfig,
};

const K: u32 = 8;
const NUM_VERTICES: u64 = 400;

// Histograms/counters are process-global; serialise the tests in this binary.
static GLOBAL: Mutex<()> = Mutex::new(());

/// Deterministic synthetic assignments: the serving fixture.
fn assignments() -> Vec<(Edge, u32)> {
    (0..3000u32)
        .map(|i| (Edge::new(i % 199, 199 + (i * 7) % 201), i % K))
        .filter(|&(e, _)| e.src != e.dst)
        .collect()
}

fn boot() -> (
    Arc<RwLock<ServeState>>,
    ServeClient,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let state =
        ServeState::from_assignments(&assignments(), NUM_VERTICES, K, &ServeOptions::default())
            .expect("promote assignments");
    let state = Arc::new(RwLock::new(state));
    let (transport, handle) = spawn_loopback(Arc::clone(&state), ServerConfig::default());
    let client = ServeClient::over(Box::new(transport)).expect("loopback handshake");
    (state, client, handle)
}

fn value_of(samples: &[Sample], metric: &str, name: &str) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.metric == metric && s.label("name") == Some(name))
        .map(|s| s.value)
}

#[test]
fn scrape_exposes_every_counter_gauge_and_histogram_with_correct_quantiles() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    set_metrics_enabled(true);
    let (state, mut client, handle) = boot();
    let server = start_metrics("127.0.0.1:0", Arc::clone(&state)).expect("metrics bind");
    let addr = server.addr().to_string();

    // Serve-smoke-shaped workload: lookups, replica sets, one delta.
    let edges: Vec<Edge> = assignments().iter().map(|&(e, _)| e).collect();
    for chunk in edges.chunks(256) {
        client.lookup_batch(chunk).expect("lookup");
    }
    let vertices: Vec<u32> = (0..64u32).collect();
    client.replica_sets(&vertices).expect("replica sets");
    let delta: Vec<Edge> = edges.iter().copied().take(40).collect();
    let outcome = client.update(&[], &delta).expect("remove batch");
    assert!(outcome.removed.iter().all(Option::is_some));
    client.update(&delta, &[]).expect("re-insert batch");

    // A two-worker job over a TPSBEL2 file, in this process, registers the
    // batch path's counters: the second worker's decision log (2 bits per
    // edge of its half, plus its escapes), emit's re-read of that half once
    // per subpass, the ranges the source retained.
    let input = std::env::temp_dir().join(format!("tps-scrape-{}.bel2", std::process::id()));
    tps_io::write_v2_edge_list(&input, NUM_VERTICES, edges.iter().copied(), 500).expect("input");
    // Each worker's range is retained packed: 2w bits per edge, w the bits
    // of the header's largest id, plus 8 pad bytes per range.
    let w = u64::from(64 - (NUM_VERTICES - 1).leading_zeros());
    let retained_bytes = (2 * w * edges.len() as u64).div_ceil(8) + 2 * 8;
    tps_io::run_job(
        tps_core::job::JobSpec::path(&input)
            .k(K)
            .threads(tps_core::job::ThreadMode::Count(2)),
    )
    .expect("partition job");
    // A budgeted one-shard job registers the paging counters; its 400-vertex
    // table fits the budget's page share flat after the first pass. Each
    // job packs a degree table, phase 1's cluster map and phase 2's of at
    // least 1 B per vertex plus 3 pad bytes.
    tps_io::run_job(
        tps_core::job::JobSpec::path(&input)
            .k(K)
            .threads(tps_core::job::ThreadMode::Serial)
            .mem_budget_mb(1),
    )
    .expect("paged partition job");
    std::fs::remove_file(&input).ok();

    // The daemon is now idle: local snapshots and the scrape must agree.
    let scrape1 = parse_exposition(&scrape(&addr).expect("scrape 1")).expect("parse 1");

    // Every registered counter appears, with its exact value.
    let counters = counters_snapshot();
    assert!(!counters.is_empty(), "workload registered no counters");
    for (name, at_least) in [
        (
            "core.decision_log.bytes",
            (edges.len() as u64 / 2).div_ceil(4),
        ),
        ("core.emit.restreamed_edges", edges.len() as u64),
        ("io.v2.ranges_retained", 2),
        ("io.v2.retained_bytes", retained_bytes),
        ("core.paging.budget_bytes", 1 << 19),
        ("core.paging.flat_after_pass", 1),
        ("core.mem.degree_bytes", 2 * (NUM_VERTICES + 3)),
        ("core.mem.cluster_map_bytes", 2 * (NUM_VERTICES + 3)),
        ("core.mem.v2c_bytes", 2 * (NUM_VERTICES + 3)),
    ] {
        let value = counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        assert!(value >= Some(at_least), "{name} = {value:?}");
    }
    for (name, v) in &counters {
        assert_eq!(
            value_of(&scrape1, "tps_counter", name),
            Some(*v as f64),
            "counter {name} missing or wrong in the exposition"
        );
    }

    // Every serve state gauge appears (refreshed on the scrape thread).
    for gauge in [
        "serve.staleness",
        "serve.epoch",
        "serve.overlay.len",
        "serve.edges.live",
        "serve.uptime.secs",
        "serve.cache.hits",
        "serve.cache.misses",
    ] {
        assert!(
            value_of(&scrape1, "tps_gauge", gauge).is_some(),
            "gauge {gauge} missing from the exposition"
        );
    }
    let live = value_of(&scrape1, "tps_gauge", "serve.edges.live").unwrap();
    assert_eq!(live, assignments().len() as f64, "live edge gauge");
    assert_eq!(
        value_of(&scrape1, "tps_gauge", "serve.epoch"),
        Some(2.0),
        "two update batches committed"
    );
    assert!(value_of(&scrape1, "tps_gauge", "serve.staleness").unwrap() > 0.0);

    // Every per-op histogram appears; count/sum/max/quantile lines match
    // what the snapshots themselves compute.
    let hists = hists_snapshot();
    for op in [
        "serve.op.lookup.ns",
        "serve.op.lookup.batch",
        "serve.op.replicas.ns",
        "serve.op.replicas.batch",
        "serve.op.update.ns",
        "serve.op.insert.batch",
        "serve.op.remove.batch",
    ] {
        let h = hists
            .iter()
            .find(|h| h.name == op)
            .unwrap_or_else(|| panic!("histogram {op} never recorded"));
        assert!(h.count() > 0, "histogram {op} is empty under workload");
        assert_eq!(
            value_of(&scrape1, "tps_hist_count", op),
            Some(h.count() as f64),
            "{op} count"
        );
        assert_eq!(value_of(&scrape1, "tps_hist_sum", op), Some(h.sum as f64));
        assert_eq!(value_of(&scrape1, "tps_hist_max", op), Some(h.max as f64));
        for q in EXPORT_QUANTILES {
            let line = scrape1
                .iter()
                .find(|s| {
                    s.metric == "tps_hist_quantile"
                        && s.label("name") == Some(op)
                        && s.label("q") == Some(&format!("{q}"))
                })
                .unwrap_or_else(|| panic!("{op} missing q={q} line"));
            assert_eq!(line.value, h.quantile(q) as f64, "{op} q={q}");
        }
        // Cumulative bucket lines end at the total count.
        let last = scrape1
            .iter()
            .rfind(|s| s.metric == "tps_hist_bucket" && s.label("name") == Some(op))
            .unwrap();
        assert_eq!(last.value, h.count() as f64, "{op} cumulative buckets");
    }

    // Batch-size histograms resolve real batch sizes: the lookup batches
    // were 256 edges, so p50 must sit within one √2 bucket of 256.
    let lookup_batch = hists
        .iter()
        .find(|h| h.name == "serve.op.lookup.batch")
        .unwrap();
    let p50 = lookup_batch.quantile(0.5);
    assert!((256..=363).contains(&p50), "lookup batch p50 = {p50}");

    // More work, second scrape: every counter is monotone non-decreasing.
    for chunk in edges.chunks(256) {
        client.lookup_batch(chunk).expect("lookup round 2");
    }
    let scrape2 = parse_exposition(&scrape(&addr).expect("scrape 2")).expect("parse 2");
    let before: BTreeMap<&str, f64> = scrape1
        .iter()
        .filter(|s| s.metric == "tps_counter")
        .map(|s| (s.label("name").unwrap(), s.value))
        .collect();
    let mut grew = false;
    for s in scrape2.iter().filter(|s| s.metric == "tps_counter") {
        let name = s.label("name").unwrap();
        let b = before.get(name).copied().unwrap_or_else(|| {
            panic!("counter {name} vanished between scrapes");
        });
        assert!(
            s.value >= b,
            "counter {name} went backwards: {b} -> {}",
            s.value
        );
        grew = grew || s.value > b;
    }
    assert!(grew, "second workload round moved no counter");

    server.shutdown();
    client.shutdown().expect("client shutdown");
    handle.join().expect("server thread").expect("server exit");
}

#[test]
fn served_answers_are_identical_with_metrics_or_tracing_on_or_off() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_state, mut client, handle) = boot();
    let edges: Vec<Edge> = assignments().iter().map(|&(e, _)| e).collect();
    let vertices: Vec<u32> = (0..64u32).collect();

    set_metrics_enabled(false);
    let lookups_off = client.lookup_batch(&edges).expect("lookups off");
    let replicas_off = client.replica_sets(&vertices).expect("replicas off");

    set_metrics_enabled(true);
    tps_obs::reset_events();
    tps_obs::set_enabled(true); // tracing on top of metrics
    let lookups_on = client.lookup_batch(&edges).expect("lookups on");
    let replicas_on = client.replica_sets(&vertices).expect("replicas on");
    tps_obs::set_enabled(false);

    assert_eq!(lookups_off, lookups_on, "metrics/tracing changed lookups");
    assert_eq!(
        replicas_off, replicas_on,
        "metrics/tracing changed replica sets"
    );

    client.shutdown().expect("client shutdown");
    handle.join().expect("server thread").expect("server exit");
}
