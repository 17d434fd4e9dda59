//! Billion-edge scale-up: linear run-time with flat peak RSS under one
//! `--mem-budget-mb` budget (the CI `scale-smoke` job).
//!
//! The paper's headline claim is out-of-core edge partitioning at **linear
//! run-time**; this bench pins both halves of that claim as the edge count
//! grows with everything else held fixed. An R-MAT generator (Graph500
//! probabilities, power-law degrees — the adversarial shape for streaming
//! partitioners) streams edges straight into the v2 writer, so no scale is
//! ever materialised in memory; each scale then partitions in a **fresh
//! child process** running the ordinary budgeted serial job
//! (`tps partition --threads serial --mem-budget-mb B`) and reports its
//! `VmHWM`. The parent derives the two gated ratios:
//!
//! * `time_per_edge.growth_ratio` — seconds/edge at the top scale ÷
//!   seconds/edge at the base scale. Linear run-time means ≈ 1.0; a
//!   super-linear term (say, an `O(|E| log |E|)` sort sneaking into a
//!   pass) shows up as the edge ratio between the scales.
//! * `peak_rss.growth_ratio` — peak RSS at the top scale ÷ base scale.
//!   The memory model is `O(|V| + budget)`: vertex-linear state (degrees,
//!   cluster table, replication bits) plus budget-capped caches, nothing
//!   proportional to `|E|`. Flat RSS while edges grow 4× is that bound,
//!   measured by the operating system.
//!
//! Absolute floors/ceilings (`top.medges_per_sec`, `top.peak_rss_mb`) ride
//! along in `bench/baselines/ci.json` like every other bench family.
//!
//! Run: `cargo run --release -p tps-bench --bin scale_up -- [--quick]
//! [--edges N]`. `--quick` sweeps 25M/50M/100M edges (the CI job);
//! the default sweep tops out at 250M; `--edges N` sweeps N/4, N/2, N —
//! `--edges 1000000000` is the documented offline billion-edge run (see
//! docs/OPERATIONS.md for a measured transcript). (`--child` is the
//! internal per-scale entry point.)

use std::path::Path;
use std::time::Instant;

use tps_graph::types::Edge;

/// Fixed vertex count (2²²). The sweep varies |E| only, so every O(|V|)
/// term is constant across scales and RSS growth isolates O(|E|) leaks.
const VERTICES: u64 = 1 << 22;
const VERTEX_BITS: u32 = 22;

/// Whole-job memory budget. Sized so the budget's cluster-page share holds
/// the 2²²-vertex cluster table resident (this bench gates *flatness at
/// scale*; eviction under pressure is gated by `mem_peak`'s oc pair).
/// Every scale's v2 file is decoded once into a temp-dir spill that the
/// later passes read, so no scale keeps its edges in memory.
const BUDGET_MB: u64 = 160;

const K: u32 = 32;

/// Graph500 R-MAT quadrant probabilities (a, b, c; d is the remainder).
const RMAT_A: f64 = 0.57;
const RMAT_B: f64 = 0.19;
const RMAT_C: f64 = 0.19;

const V2_CHUNK_EDGES: u32 = 1 << 16;
const SEED: u64 = 0x5CA1E;

/// A streaming R-MAT edge sampler: `Iterator<Item = Edge>`, O(1) state —
/// the writer consumes it straight to disk, so a billion-edge scale costs
/// no more resident memory than a million-edge one.
struct RmatEdges {
    remaining: u64,
    state: u64,
}

impl RmatEdges {
    fn new(edges: u64, seed: u64) -> Self {
        RmatEdges {
            remaining: edges,
            state: seed | 1,
        }
    }

    /// xorshift64* — cheap, full-period, and deterministic across runs.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Iterator for RmatEdges {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        loop {
            let (mut u, mut v) = (0u32, 0u32);
            for _ in 0..VERTEX_BITS {
                let r = self.next_f64();
                let (ubit, vbit) = if r < RMAT_A {
                    (0, 0)
                } else if r < RMAT_A + RMAT_B {
                    (0, 1)
                } else if r < RMAT_A + RMAT_B + RMAT_C {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | ubit;
                v = (v << 1) | vbit;
            }
            if u != v {
                return Some(Edge::new(u, v));
            }
        }
    }
}

/// The swept edge counts, smallest first (base scale → top scale).
fn scales(quick: bool, top: Option<u64>) -> Vec<u64> {
    let top = top.unwrap_or(if quick { 100_000_000 } else { 250_000_000 });
    vec![top / 4, top / 2, top]
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

fn main() {
    let mut quick = false;
    let mut top: Option<u64> = None;
    let mut child: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--edges" => {
                top = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 4)
                        .unwrap_or_else(|| die("--edges needs a positive integer")),
                );
            }
            "--child" => child = Some(args.next().unwrap_or_else(|| die("--child needs a path"))),
            "--help" | "-h" => {
                eprintln!("options: [--quick] [--edges N]   (--child FILE is internal)");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    match child {
        Some(path) => run_child(&path),
        None => run_parent(quick, top),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parent: per scale, stream-generate the v2 file, partition it in a fresh
/// child, delete the file — disk high-water is one scale, not the sweep.
fn run_parent(quick: bool, top: Option<u64>) {
    let exe = std::env::current_exe().expect("own executable path");
    let dir = std::env::temp_dir().join(format!("tps-scale-up-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let sweep = scales(quick, top);
    let mut rows: Vec<(u64, f64, f64)> = Vec::new(); // (edges, seconds, peak_rss_mb)
    let mut row_json = Vec::new();
    for &edges in &sweep {
        let input = dir.join(format!("rmat-{edges}.bel2"));
        let gen_start = Instant::now();
        tps_io::write_v2_edge_list(
            &input,
            VERTICES,
            RmatEdges::new(edges, SEED),
            V2_CHUNK_EDGES,
        )
        .expect("write v2 edge file");
        let gen_seconds = gen_start.elapsed().as_secs_f64();
        let out = std::process::Command::new(&exe)
            .arg("--child")
            .arg(&input)
            .output()
            .expect("spawn scale_up child");
        std::fs::remove_file(&input).ok();
        if !out.status.success() {
            eprintln!("scale {edges} failed:");
            eprintln!("{}", String::from_utf8_lossy(&out.stderr));
            std::process::exit(1);
        }
        // Child emits "seconds peak_rss_kb".
        let text = String::from_utf8(out.stdout).expect("child emits UTF-8");
        let mut parts = text.split_whitespace();
        let seconds: f64 = parts.next().and_then(|s| s.parse().ok()).expect("seconds");
        let peak_kb: f64 = parts.next().and_then(|s| s.parse().ok()).expect("peak kb");
        let peak_mb = peak_kb / 1024.0;
        let medges = edges as f64 / 1e6 / seconds;
        eprintln!(
            "scale {edges}: gen {gen_seconds:.1}s, partition {seconds:.1}s \
             ({medges:.2} Medges/s), peak RSS {peak_mb:.1} MB"
        );
        row_json.push(format!(
            "    {{\"edges\": {edges}, \"gen_seconds\": {gen_seconds:.3}, \"seconds\": {seconds:.3}, \
             \"medges_per_sec\": {medges:.3}, \"peak_rss_mb\": {peak_mb:.1}}}"
        ));
        rows.push((edges, seconds, peak_mb));
    }
    std::fs::remove_dir_all(&dir).ok();

    let (base_edges, base_secs, base_rss) = rows[0];
    let (top_edges, top_secs, top_rss) = *rows.last().expect("at least one scale");
    let time_growth = (top_secs / top_edges as f64) / (base_secs / base_edges as f64);
    let rss_growth = top_rss / base_rss;
    let top_medges = top_edges as f64 / 1e6 / top_secs;
    println!("{{");
    println!(
        "  \"graph\": {{\"vertices\": {VERTICES}, \"k\": {K}, \"mem_budget_mb\": {BUDGET_MB}}},"
    );
    println!("  \"scales\": [\n{}\n  ],", row_json.join(",\n"));
    println!(
        "  \"top\": {{\"edges\": {top_edges}, \"medges_per_sec\": {top_medges:.3}, \"peak_rss_mb\": {top_rss:.1}}},"
    );
    println!("  \"time_per_edge\": {{\"growth_ratio\": {time_growth:.3}}},");
    println!("  \"peak_rss\": {{\"growth_ratio\": {rss_growth:.3}}}");
    println!("}}");
}

/// Child: one budgeted serial job over the file; prints seconds + VmHWM.
fn run_child(input: &str) {
    let start = Instant::now();
    let mut sink = tps_core::sink::NullSink;
    tps_io::run_job(
        tps_core::job::JobSpec::path(Path::new(input))
            .k(K)
            .threads(tps_core::job::ThreadMode::Serial)
            .mem_budget_mb(BUDGET_MB)
            .extra_sink(&mut sink),
    )
    .expect("budgeted serial partition");
    let seconds = start.elapsed().as_secs_f64();
    let peak_kb = vm_hwm_kb().unwrap_or(0);
    println!("{seconds:.3} {peak_kb}");
}
