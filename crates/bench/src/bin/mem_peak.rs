//! Peak-RSS measurement of phase 2 across execution modes (the CI
//! `mem-smoke` job).
//!
//! The paper's Table II bounds replication state at `O(|V|·k)` bits; this
//! bench pins that bound *per execution mode* with the operating system's
//! own accounting. The parent process generates a G(n,m) graph and writes
//! it to a v1 `.bel` file **once**; each mode (serial, `--threads 4`,
//! `--threads 8`, a 2-worker `--dist-local` run) then executes in a
//! **fresh child process** as the job `tps partition` would run — a
//! `JobSpec` through `tps_io::run_job`, so a second matrix held by the job
//! layer rather than the engine would show — streaming the file (so neither
//! graph generation nor another mode's high-water mark can leak into the
//! measurement) and reads `VmHWM` from `/proc/self/status` right before
//! and after the partitioning call. The reported `peak_rss_mb` is the
//! child's process-wide high-water mark after phase 2 — the number the
//! `perf_gate` lower-is-better `*.peak_rss_mb` ceilings in
//! `bench/baselines/ci.json` guard.
//!
//! The graph is a planted-partition web-graph stand-in with `|E| = 8|V|`
//! (the generator's intended mean degree, so pre-partitioning dominates
//! phase 2) and k = 4096 (the memory-stress regime the ISSUE's motivating
//! work targets), sized so the replication matrix (`|V|·k` bits)
//! dominates the heap: a mode that keeps one matrix copy per worker is
//! immediately visible as a multiple of the serial peak. Every mode runs
//! the default path: a parallel worker's only `O(|E|)` term is its decision
//! log (2 bits per edge plus one entry per escape, none for worker 0),
//! small beside the matrix.
//!
//! The same graph at k = 32 drives the **low-k pair** (`k32_serial`,
//! `k32_t8`): at k ≤ 64 replica rows are packed into shared words (a
//! 32-bit row, half a word, at k = 32) and each in-process worker holds a
//! dense private copy of those words after the freeze (the row bytes,
//! 4 B/vertex/worker here — see `tps_metrics::atomic`). The `k32_t8`
//! ceiling holds that term at `O(T·|V|)`: a regression to per-worker
//! `O(|V|·k)` state passes here but fails `t4`/`t8`, and a per-worker term
//! that outgrows one word per vertex fails here.
//!
//! The **file pair** (`k32_serial_file`, `k32_t2_file`) runs that k = 32
//! job on a TPSBEL2 copy of the graph: serial spills the decoded file to
//! a temp-dir file, two workers spill their decoded ranges (each edge
//! packed in the 2w bits its ids need, 38 or 40 at this graph's 19- or
//! 20-bit ids, in the page cache, not in RSS), and the second worker holds
//! a decision log of 2 bits per edge of its range plus one entry per
//! escape (the first writes as it decides). `k32_t2_minus_serial_file` is
//! their difference in MB, gated as a ceiling: the default path's only
//! `O(|E|)` residency is that log, plus the second worker's private
//! replica rows and buffers (~4.5 MB in all). A byte per edge of each
//! worker's range resident again reads ~6 MB; the second worker's log
//! alone at a byte per edge stays under the run's earlier peak, which no
//! whole-run peak can see.
//!
//! A second, vertex-heavy graph (mean degree 2, small k) drives the
//! **out-of-core pair**: `oc_unpaged` runs the plain serial job, `oc_paged`
//! the identical job under `--mem-budget-mb` (cluster state paged through
//! `tps-io`'s on-disk page store). Their gated ceilings are committed far
//! apart, so the gate fails if paging silently stops evicting. Output is
//! bit-identical between the two by construction (see
//! `tests/tests/out_of_core.rs`).
//!
//! Run: `cargo run --release -p tps-bench --bin mem_peak -- [--quick]`
//! (`--mode NAME --input FILE` is the internal child-process entry point.)

use std::path::Path;
use std::time::Instant;

use tps_core::job::{JobSpec, ThreadMode};
use tps_core::partitioner::PartitionParams;
use tps_core::sink::NullSink;
use tps_core::two_phase::TwoPhaseConfig;
use tps_dist::run_dist_local;
use tps_graph::gen::planted::{self, PlantedConfig};

#[global_allocator]
static ALLOC: tps_metrics::alloc::CountingAllocator = tps_metrics::alloc::CountingAllocator;

/// The measured modes, in report order.
const MODES: [&str; 4] = ["serial", "t4", "t8", "dist2"];

/// The low-k pair: the bench graph again, at [`LOW_K`] — the regime where
/// in-process workers keep dense private replica rows.
const LOW_K_MODES: [&str; 2] = ["k32_serial", "k32_t8"];
const LOW_K: u32 = 32;

/// The file pair: the low-k job on the TPSBEL2 copy (spilled ranges,
/// decision logs).
const FILE_MODES: [&str; 2] = ["k32_serial_file", "k32_t2_file"];

/// The out-of-core modes: same serial pipeline over a second, vertex-heavy
/// graph, with and without a `--mem-budget-mb` budget. Gated as a pair —
/// `oc_paged`'s ceiling sits well below `oc_unpaged`'s measured peak, so a
/// paging regression (cluster state silently resident again) fails the
/// gate rather than just burning memory.
const OC_MODES: [&str; 2] = ["oc_unpaged", "oc_paged"];

const DEFAULT_K: u32 = 4096;
/// k for the out-of-core pair: small, so `O(|V|)` cluster state — the term
/// the paged table exists to bound — dominates the child's heap instead of
/// the `O(|V|·k)` replication matrix.
const OC_K: u32 = 8;
/// `--mem-budget-mb` for `oc_paged`. The OC graph's cluster state is an
/// order of magnitude bigger (the ≥10× regime the ISSUE gates), so the
/// budget only holds if pages actually evict.
const OC_BUDGET_MB: u64 = 2;
const SEED: u64 = 0xA11C;

/// The bench graph's generator configuration: strongly clusterable
/// communities (low mixing, no hub skew, community sizes well above the
/// mean degree) so that — together with the re-streaming clustering
/// passes below — phase 2 is dominated by the pre-partitioning subpass
/// and by replication state, the term this bench exists to bound.
fn bench_config(vertices: u64, edges: u64) -> PlantedConfig {
    PlantedConfig {
        mixing: 0.04,
        min_community: 24,
        max_community: 48,
        hub_skew: 1.0,
        ..PlantedConfig::web(vertices, edges)
    }
}

/// Clustering passes (paper Fig. 7/8 re-streaming): they let the
/// streaming clustering recover the planted communities, which is what
/// keeps the scoring subpass — and with it each worker's private overlay —
/// small.
const CLUSTERING_PASSES: u32 = 4;

/// Balance factor for the memory bench. The paper's α = 1.05 at high k
/// puts every partition under constant cap pressure, so commits scatter
/// through the least-loaded fallback — measuring cap-pressure noise, not
/// the replication-state bound this bench exists to pin. A loose α keeps
/// the fallback rate (and the scatter) negligible.
const BALANCE_ALPHA: f64 = 4.0;

/// Graph dimensions: (vertices, edges).
fn dims(quick: bool) -> (u64, u64) {
    if quick {
        (400_000, 3_200_000)
    } else {
        (800_000, 6_400_000)
    }
}

/// Out-of-core graph dimensions: vertex-heavy (mean degree 2), so the
/// `O(|V|)` cluster table is the dominant heap term and is ≥10× the
/// [`OC_BUDGET_MB`] budget.
fn oc_dims(quick: bool) -> (u64, u64) {
    if quick {
        (1_000_000, 2_000_000)
    } else {
        (1_500_000, 3_000_000)
    }
}

/// `VmHWM` (peak resident set) of this process, in KiB. `None` off Linux.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

fn mb(kb: u64) -> f64 {
    kb as f64 / 1024.0
}

fn main() {
    let mut quick = false;
    let mut k = DEFAULT_K;
    let mut mode: Option<String> = None;
    let mut input: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--k" => {
                k = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--k needs a positive integer"));
            }
            "--mode" => mode = Some(args.next().unwrap_or_else(|| die("--mode needs a value"))),
            "--input" => input = Some(args.next().unwrap_or_else(|| die("--input needs a value"))),
            "--help" | "-h" => {
                eprintln!("options: [--quick]   (--mode/--input form the child entry point)");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    match (mode, input) {
        (Some(m), Some(path)) => run_child(&m, &path, k),
        (None, None) => run_parent(quick, k),
        _ => die("--mode and --input go together (child entry point)"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parent: materialise the graph as a v1 file, run every mode in a fresh
/// child process against it, and merge the rows.
fn run_parent(quick: bool, k: u32) {
    let exe = std::env::current_exe().expect("own executable path");
    let (vertices, edges) = dims(quick);
    let dir = std::env::temp_dir().join(format!("tps-mem-peak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let input = dir.join("g.bel");
    {
        let graph = planted::generate(&bench_config(vertices, edges), SEED);
        tps_graph::formats::binary::write_binary_edge_list(
            &input,
            graph.num_vertices(),
            graph.edges().iter().copied(),
        )
        .expect("write v1 edge file");
    }
    let input_v2 = dir.join("g.bel2");
    tps_io::convert_v1_to_v2(&input, &input_v2, tps_io::v2::DEFAULT_CHUNK_EDGES)
        .expect("write v2 edge file");
    let (oc_vertices, oc_edges) = oc_dims(quick);
    let oc_input = dir.join("oc.bel");
    {
        // Lower mixing than the replication bench: inter-community edges
        // are the only non-local page accesses left after the sort below,
        // so µ directly sets the paging fault rate.
        let oc_config = PlantedConfig {
            mixing: 0.01,
            ..bench_config(oc_vertices, oc_edges)
        };
        let graph = planted::generate(&oc_config, SEED ^ 1);
        // Endpoint-sort before writing: out-of-core paging needs stream
        // locality, and the generator's shuffled community order would make
        // every edge fault a cold page (the standard preprocessing step for
        // any bounded-memory streaming pass; see docs/OPERATIONS.md). Both
        // oc rows stream this same sorted file, so the comparison is fair
        // and the pair stays bit-identical.
        let mut edges = graph.edges().to_vec();
        edges.sort_by_key(|e| (e.src.min(e.dst), e.src.max(e.dst)));
        tps_graph::formats::binary::write_binary_edge_list(
            &oc_input,
            graph.num_vertices(),
            edges.iter().copied(),
        )
        .expect("write out-of-core v1 edge file");
    }
    let mut rows = Vec::new();
    let children = MODES
        .iter()
        .map(|m| (*m, &input, k))
        .chain(LOW_K_MODES.iter().map(|m| (*m, &input, LOW_K)))
        .chain(FILE_MODES.iter().map(|m| (*m, &input_v2, LOW_K)))
        .chain(OC_MODES.iter().map(|m| (*m, &oc_input, OC_K)));
    let mut file_pair_mb = Vec::new();
    for (mode, input, k) in children {
        let out = std::process::Command::new(&exe)
            .arg("--mode")
            .arg(mode)
            .arg("--input")
            .arg(input)
            .arg("--k")
            .arg(k.to_string())
            .output()
            .expect("spawn mem_peak child");
        if !out.status.success() {
            eprintln!("mode {mode} failed:");
            eprintln!("{}", String::from_utf8_lossy(&out.stderr));
            std::process::exit(1);
        }
        let row = String::from_utf8(out.stdout).expect("child emits UTF-8");
        if FILE_MODES.contains(&mode) {
            let peak = tps_bench::gate::parse_json(&row)
                .ok()
                .and_then(|r| r.get("peak_rss_mb").and_then(tps_bench::gate::Json::as_f64));
            file_pair_mb.push(peak.expect("child row carries peak_rss_mb"));
        }
        rows.push(format!("    {}", row.trim()));
    }
    if std::env::var_os("TPS_MEM_KEEP").is_none() {
        std::fs::remove_dir_all(&dir).ok();
    } else {
        eprintln!("kept {}", input.display());
    }
    println!("{{");
    println!(
        "  \"graph\": {{\"vertices\": {vertices}, \"edges\": {edges}, \"k\": {k}, \"low_k\": {LOW_K}}},"
    );
    println!(
        "  \"oc_graph\": {{\"vertices\": {oc_vertices}, \"edges\": {oc_edges}, \"k\": {OC_K}, \"mem_budget_mb\": {OC_BUDGET_MB}}},"
    );
    println!(
        "  \"differences\": [{{\"name\": \"k32_t2_minus_serial_file\", \"mb\": {:.3}}}],",
        file_pair_mb[1] - file_pair_mb[0]
    );
    println!("  \"modes\": [\n{}\n  ]", rows.join(",\n"));
    println!("}}");
}

/// Child: stream the file out-of-core through one mode, report its VmHWM.
///
/// Every in-process mode goes through the front door `tps partition` uses —
/// a [`JobSpec`] run by `tps_io::run_job` — so the rows include whatever
/// the job layer holds on top of the engine (sinks, metrics), not just the
/// engine's own state. Only `dist2` calls its runner directly: a dist job's
/// front door is the coordinator process.
fn run_child(mode: &str, input: &str, k: u32) {
    let params = PartitionParams::with_alpha(k, BALANCE_ALPHA);
    let config = TwoPhaseConfig::with_passes(CLUSTERING_PASSES);
    // `None`: not a `JobSpec` job.
    let threads = match mode {
        "serial" | "k32_serial" | "k32_serial_file" | "oc_unpaged" | "oc_paged" => {
            Some(ThreadMode::Serial)
        }
        "k32_t2_file" => Some(ThreadMode::Count(2)),
        "t4" => Some(ThreadMode::Count(4)),
        "t8" | "k32_t8" => Some(ThreadMode::Count(8)),
        "dist2" => None,
        other => die(&format!(
            "unknown mode {other:?} (serial|t4|t8|dist2|k32_serial|k32_t8|k32_serial_file|\
             k32_t2_file|oc_unpaged|oc_paged)"
        )),
    };

    let pre_kb = vm_hwm_kb().unwrap_or(0);
    let start = Instant::now();
    match threads {
        None => {
            let source = tps_io::open_ranged(Path::new(input)).expect("open v1 edge file");
            run_dist_local(&*source, &config, &params, 2, &mut NullSink)
                .expect("dist-local partition");
        }
        Some(threads) => {
            let mut spec = JobSpec::path(input)
                .params(&params)
                .threads(threads)
                .two_phase(config);
            // The out-of-core pair differs only in the budget — so the RSS
            // delta between the two rows is exactly what cluster paging buys.
            if mode == "oc_paged" {
                spec = spec.mem_budget_mb(OC_BUDGET_MB);
            }
            tps_io::run_job(spec).expect("partition job");
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let heap_peak_mb = tps_metrics::alloc::peak_bytes() as f64 / (1 << 20) as f64;
    let post_kb = vm_hwm_kb().unwrap_or(0);
    println!(
        "{{\"mode\": \"{mode}\", \"peak_rss_mb\": {:.1}, \"pre_partition_mb\": {:.1}, \"heap_peak_mb\": {heap_peak_mb:.1}, \"seconds\": {seconds:.3}}}",
        mb(post_kb),
        mb(pre_kb)
    );
}
