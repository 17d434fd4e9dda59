//! End-to-end measurement of the serve workloads: a `tps serve` daemon as a
//! child process, file on disk → answers at a TCP client.
//!
//! One connection, closed loop: the next request leaves only after the
//! previous reply arrived. The amount of work is fixed by `--seconds` (so
//! the replication factor after the last request, the overlay size and the
//! LRU hit rate repeat exactly); only the time it takes is measured. The
//! timer runs from a request's first byte sent to its reply's last byte
//! received, and the wall clock of a window is the sum over its requests: the
//! client's own work between requests (drawing the next delta, checking the
//! last answer) is not the daemon's cost.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tps_graph::types::Edge;
use tps_serve::{PackedAssignment, ServeClient, ServeOptions, ServeState};

use crate::e2e::{partition_rep, Ctx, EndToEndResult, Measured};
use crate::inputs;
use crate::procstat::{pid_cpu_secs, reap, vm_hwm_kb, OneCpu};
use crate::verify::ReplicaBits;
use crate::workload::{Engine, PartitionSpec, Traffic, Workload, SERVE_K};

/// Keys per `lookup_batch` of the read mix: large enough that the ~50 µs
/// wake-up per round trip is under 5 % of a request.
pub const READ_BATCH_KEYS: usize = 8192;
/// `lookup_batch` requests per read cycle.
pub const READ_BATCHES_PER_CYCLE: usize = 7;
/// Vertices per `replica_sets` request of the read mix.
pub const READ_REPLICA_VERTICES: usize = 1024;
/// Distinct pre-generated read cycles; the measured section loops over them.
const READ_POOL_CYCLES: usize = 16;
/// Inserts, and removes, per `update` of the churn mix.
pub const CHURN_BATCH_EDGES: usize = 2048;
/// Churn cycles sent before the timer starts.
const CHURN_WARMUP_CYCLES: usize = 20;
/// Timed windows per run; the time metrics are the median window. Churn is
/// not stationary (the overlay grows with every update), so the median is
/// the cost at the middle of a trajectory that is the same in every run.
const WINDOWS: usize = 30;
/// Cycles per second of `--seconds`, fixed so that the measured section
/// takes about `--seconds` at the commit that defined the benchmark.
const READ_CYCLES_PER_SEC: f64 = 32.0;
const CHURN_CYCLES_PER_SEC: f64 = 270.0;

/// The partitioning every serve workload loads.
pub const SERVE_PARTITION: PartitionSpec = PartitionSpec {
    engine: Engine::Serial,
    k: SERVE_K,
    passes: 1,
    mem_budget_mb: 0,
};

/// Both orientations of an edge share this key.
pub fn canonical_key(e: Edge) -> u64 {
    ((e.src.min(e.dst) as u64) << 32) | e.src.max(e.dst) as u64
}

/// A running `tps serve` child. Dropping it kills the child if a clean
/// shutdown has not reaped it already.
pub struct Daemon {
    child: Option<Child>,
    pub pid: u32,
    pub addr: String,
}

impl Daemon {
    /// Start a daemon over the partition files in `parts` and wait until it
    /// has written its address.
    pub fn start(ctx: &Ctx<'_>, parts: &Path, dir: &Path) -> io::Result<Daemon> {
        let addr_file = dir.join("serve.addr");
        let child = Command::new(ctx.tps)
            .args(["serve", "--listen", "127.0.0.1:0", "--quiet"])
            .arg("--parts")
            .arg(parts)
            .arg("--addr-file")
            .arg(&addr_file)
            .env("TMPDIR", ctx.scratch.root())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            pid: child.id(),
            child: Some(child),
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                daemon.addr = addr.trim().to_string();
                return Ok(daemon);
            }
            let exited = daemon.child.as_mut().expect("just spawned").try_wait()?;
            if exited.is_some() || Instant::now() > deadline {
                return Err(io::Error::other("tps serve did not come up"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Ask the daemon to exit over a fresh connection and reap it. Returns
    /// whether it exited with status 0.
    pub fn shutdown(mut self) -> io::Result<bool> {
        ServeClient::connect(&self.addr)?.shutdown()?;
        let child = self.child.take().expect("shutdown runs once");
        Ok(reap(child)?.success)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// What the ledger knows the daemon must answer: the live edges with their
/// partitions, kept in step with every delta it sends.
pub struct Oracle {
    pub k: u32,
    pub num_vertices: u64,
    /// Live edges and their partitions.
    pub live: Vec<(Edge, u32)>,
    /// Canonical keys of the loaded graph, sorted (absent-key draws and
    /// fresh-insert draws are checked against it).
    loaded_keys: Vec<u64>,
    /// Canonical keys ever inserted: an edge is inserted at most once, so an
    /// insert can never be a duplicate of a live edge.
    inserted_keys: HashSet<u64>,
}

impl Oracle {
    fn from_parts(dir: &Path) -> io::Result<Oracle> {
        let loaded = tps_io::load_partition_dir(dir)?;
        let mut loaded_keys: Vec<u64> = loaded
            .assignments
            .iter()
            .map(|&(e, _)| canonical_key(e))
            .collect();
        loaded_keys.sort_unstable();
        Ok(Oracle {
            k: loaded.k,
            num_vertices: loaded.num_vertices,
            live: loaded.assignments,
            loaded_keys,
            inserted_keys: HashSet::new(),
        })
    }

    fn never_live(&self, key: u64) -> bool {
        self.loaded_keys.binary_search(&key).is_err() && !self.inserted_keys.contains(&key)
    }

    /// A uniformly drawn vertex pair that is not, and never was, an edge.
    fn draw_absent(&self, rng: &mut SmallRng) -> Edge {
        loop {
            let u = rng.gen_range(0..self.num_vertices) as u32;
            let v = rng.gen_range(0..self.num_vertices) as u32;
            if u != v && self.never_live(canonical_key(Edge::new(u, v))) {
                return Edge::new(u, v);
            }
        }
    }

    /// The next churn delta: `CHURN_BATCH_EDGES` live edges to remove (taken
    /// out of `live` here) and as many never-seen edges between existing
    /// vertices to insert (the caller adds them to `live` once the daemon has
    /// said where they landed). The edge count stays flat.
    fn draw_delta(&mut self, rng: &mut SmallRng) -> (Vec<Edge>, Vec<(Edge, u32)>) {
        let removes = (0..CHURN_BATCH_EDGES)
            .map(|_| {
                let i = rng.gen_range(0..self.live.len());
                self.live.swap_remove(i)
            })
            .collect();
        let mut inserts = Vec::with_capacity(CHURN_BATCH_EDGES);
        while inserts.len() < CHURN_BATCH_EDGES {
            let e = self.draw_absent(rng);
            if self.inserted_keys.insert(canonical_key(e)) {
                inserts.push(e);
            }
        }
        (inserts, removes)
    }

    fn replica_bits(&self) -> ReplicaBits {
        ReplicaBits::of(&self.live, self.num_vertices, self.k)
    }

    /// Replication factor of the live edges, from scratch.
    pub fn rf(&self) -> f64 {
        self.replica_bits().replication_factor()
    }
}

/// One pre-generated read cycle with the answers the daemon must give.
struct ReadCycle {
    batches: Vec<(Vec<Edge>, Vec<Option<u32>>)>,
    vertices: Vec<u32>,
    replica_sets: Vec<Vec<u32>>,
}

fn draw_read_pool(oracle: &Oracle, rng: &mut SmallRng) -> Vec<ReadCycle> {
    let replicas = oracle.replica_bits();
    (0..READ_POOL_CYCLES)
        .map(|_| {
            let batches = (0..READ_BATCHES_PER_CYCLE)
                .map(|_| {
                    // 90 % live edges drawn uniformly, 10 % absent keys.
                    (0..READ_BATCH_KEYS)
                        .map(|i| {
                            if i % 10 == 9 {
                                (oracle.draw_absent(rng), None)
                            } else {
                                let (e, p) = oracle.live[rng.gen_range(0..oracle.live.len())];
                                (e, Some(p))
                            }
                        })
                        .unzip()
                })
                .collect();
            // Endpoints of uniformly drawn edges: degree-biased, so the
            // daemon's per-connection LRU sees hot vertices.
            let vertices: Vec<u32> = (0..READ_REPLICA_VERTICES)
                .map(|i| {
                    let (e, _) = oracle.live[rng.gen_range(0..oracle.live.len())];
                    [e.src, e.dst][i % 2]
                })
                .collect();
            let replica_sets = vertices
                .iter()
                .map(|&v| replicas.partitions_of(v))
                .collect();
            ReadCycle {
                batches,
                vertices,
                replica_sets,
            }
        })
        .collect()
}

/// One timed `lookup_batch`: its latency and how many answers differ from `want`.
fn timed_lookup(
    client: &mut ServeClient,
    keys: &[Edge],
    want: &[Option<u32>],
) -> io::Result<(Duration, usize)> {
    let t = Instant::now();
    let got = client.lookup_batch(keys)?;
    let d = t.elapsed();
    Ok((d, got.iter().zip(want).filter(|(g, w)| g != w).count()))
}

/// Everything a serve workload sets up before its first timed request.
pub struct Served {
    pub parts: PathBuf,
    pub daemon: Daemon,
    pub client: ServeClient,
    pub oracle: Oracle,
    read_pool: Vec<ReadCycle>,
    rng: SmallRng,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Client-side latency of every timed request, µs.
#[derive(Default)]
pub struct Latencies {
    pub lookup_us: Vec<f64>,
    pub update_us: Vec<f64>,
}

/// What one timed window cost.
struct Window {
    wall_secs: f64,
    ops: u64,
}

impl Served {
    /// Generate the graph, partition it with `tps partition`, start the
    /// daemon on the result, connect, and run the warm-up pass.
    pub fn set_up(ctx: &Ctx<'_>, w: &Workload, traffic: Traffic, dir: &Path) -> io::Result<Served> {
        let input = inputs::generate(w.graph, ctx.scale, ctx.seed, dir)?;
        let (run, parts) = partition_rep(ctx, &SERVE_PARTITION, &input.path)?;
        if !run.success {
            return Err(io::Error::other("tps partition failed during serve set-up"));
        }
        let daemon = Daemon::start(ctx, &parts, dir)?;
        let client = ServeClient::connect(&daemon.addr)?;
        let oracle = Oracle::from_parts(&parts)?;
        let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x5e12_7e00_c11e_0000);
        let read_pool = match traffic {
            Traffic::Read => draw_read_pool(&oracle, &mut rng),
            Traffic::Churn => Vec::new(),
        };
        let mut served = Served {
            parts,
            daemon,
            client,
            oracle,
            read_pool,
            rng,
            failed: 0,
            problems: Vec::new(),
        };
        // Warm-up: the first pass over a fresh daemon runs at ~60 % of the
        // steady rate (page faults on the packed table, cold LRU).
        let warmup = match traffic {
            Traffic::Read => READ_POOL_CYCLES,
            Traffic::Churn => CHURN_WARMUP_CYCLES,
        };
        served.window(traffic, 0, warmup, &mut Latencies::default())?;
        Ok(served)
    }

    fn miss(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Send `cycles` cycles starting at cycle number `first`, timing each
    /// request and checking each reply.
    fn window(
        &mut self,
        traffic: Traffic,
        first: usize,
        cycles: usize,
        lat: &mut Latencies,
    ) -> io::Result<Window> {
        let mut wall = Duration::ZERO;
        let mut ops = 0u64;
        for c in first..first + cycles {
            match traffic {
                Traffic::Read => {
                    let idx = c % self.read_pool.len();
                    for b in 0..READ_BATCHES_PER_CYCLE {
                        let (keys, want) = &self.read_pool[idx].batches[b];
                        let (d, wrong) = timed_lookup(&mut self.client, keys, want)?;
                        wall += d;
                        lat.lookup_us.push(d.as_secs_f64() * 1e6);
                        ops += keys.len() as u64;
                        if wrong > 0 {
                            self.miss(wrong as u64, format!("cycle {c}: {wrong} wrong lookups"));
                        }
                    }
                    let cycle = &self.read_pool[idx];
                    let t = Instant::now();
                    let got = self.client.replica_sets(&cycle.vertices)?;
                    wall += t.elapsed();
                    ops += cycle.vertices.len() as u64;
                    let wrong = got
                        .iter()
                        .zip(&cycle.replica_sets)
                        .filter(|(g, w)| g != w)
                        .count();
                    if wrong > 0 {
                        self.miss(
                            wrong as u64,
                            format!("cycle {c}: {wrong} wrong replica sets"),
                        );
                    }
                }
                Traffic::Churn => {
                    // Drawn between requests, off the clock.
                    let (inserts, removes) = self.oracle.draw_delta(&mut self.rng);
                    let remove_edges: Vec<Edge> = removes.iter().map(|&(e, _)| e).collect();

                    let t = Instant::now();
                    let out = self.client.update(&inserts, &remove_edges)?;
                    let d = t.elapsed();
                    wall += d;
                    lat.update_us.push(d.as_secs_f64() * 1e6);
                    ops += (inserts.len() + remove_edges.len()) as u64;

                    let k = self.oracle.k;
                    let bad_inserts = out
                        .inserted
                        .iter()
                        .filter(|p| p.is_none_or(|p| p >= k))
                        .count();
                    let bad_removes = out
                        .removed
                        .iter()
                        .zip(&removes)
                        .filter(|(got, (_, was))| **got != Some(*was))
                        .count();
                    if bad_inserts + bad_removes > 0 {
                        self.miss(
                            (bad_inserts + bad_removes) as u64,
                            format!("cycle {c}: {bad_inserts} inserts refused, {bad_removes} removes wrong"),
                        );
                    }
                    for (e, p) in inserts.iter().zip(&out.inserted) {
                        if let Some(p) = p {
                            self.oracle.live.push((*e, *p));
                        }
                    }

                    // The keys just mutated: inserted ones must answer where
                    // the update said they landed, removed ones nowhere.
                    let keys: Vec<Edge> = inserts.iter().chain(&remove_edges).copied().collect();
                    let want: Vec<Option<u32>> = out
                        .inserted
                        .iter()
                        .copied()
                        .chain(std::iter::repeat_n(None, remove_edges.len()))
                        .collect();
                    let (d, wrong) = timed_lookup(&mut self.client, &keys, &want)?;
                    wall += d;
                    lat.lookup_us.push(d.as_secs_f64() * 1e6);
                    ops += keys.len() as u64;
                    if wrong > 0 {
                        self.miss(
                            wrong as u64,
                            format!("cycle {c}: {wrong} stale lookups after update"),
                        );
                    }
                }
            }
        }
        Ok(Window {
            wall_secs: wall.as_secs_f64(),
            ops,
        })
    }
}

/// Churn cycles applied in process behind `serve.state.apply_ns_per_edge`.
const APPLY_CYCLES: usize = 50;

/// The serve layers called directly, in this process, on the partition files
/// the daemon loaded: `(metric, value)` pairs.
fn in_process_layers(
    served: &Served,
    traffic: Traffic,
    seed: u64,
) -> io::Result<Vec<(&'static str, f64)>> {
    let t = Instant::now();
    let mut state = ServeState::load_dir(&served.parts, &ServeOptions::default())?;
    let mut layers = vec![("serve.state.load_s", t.elapsed().as_secs_f64())];
    match traffic {
        Traffic::Read => {
            // Read traffic never mutates: the oracle still holds what was loaded.
            let packed = PackedAssignment::from_assignments(&served.oracle.live, served.oracle.k)?;
            let (mut secs, mut keys) = (0.0, 0usize);
            for (edges, want) in served.read_pool.iter().flat_map(|c| &c.batches) {
                let mut sorted: Vec<u64> = edges.iter().map(|&e| tps_serve::edge_key(e)).collect();
                sorted.sort_unstable();
                let t = Instant::now();
                let found = std::hint::black_box(packed.probe_sorted(&sorted));
                secs += t.elapsed().as_secs_f64();
                keys += sorted.len();
                debug_assert_eq!(found.len(), want.len());
            }
            layers.push((
                "serve.packed.probe_ns_per_key",
                secs * 1e9 / keys.max(1) as f64,
            ));
        }
        Traffic::Churn => {
            let mut oracle = Oracle::from_parts(&served.parts)?;
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xa991_7000);
            let (mut secs, mut mutations) = (0.0, 0usize);
            for _ in 0..APPLY_CYCLES {
                let (inserts, removes) = oracle.draw_delta(&mut rng);
                let remove_edges: Vec<Edge> = removes.iter().map(|&(e, _)| e).collect();
                let t = Instant::now();
                let outcome = state.apply(&inserts, &remove_edges);
                secs += t.elapsed().as_secs_f64();
                mutations += inserts.len() + remove_edges.len();
                for (e, p) in inserts.iter().zip(outcome.inserted) {
                    oracle.live.push((*e, p));
                }
            }
            layers.push((
                "serve.state.apply_ns_per_edge",
                secs * 1e9 / mutations as f64,
            ));
            layers.push((
                "serve.state.overlay_per_mutation",
                state.overlay_len() as f64 / mutations as f64,
            ));
        }
    }
    Ok(layers)
}

/// What a serve run measured beside the end-to-end metrics.
pub struct ServeExtras {
    /// The serve layers called in process (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    pub latencies: Latencies,
    /// `ServeStats.cache_hits ÷ (hits + misses)`, read after the measured
    /// connection closed (the daemon folds a connection's LRU counts in then).
    pub lru_hit_rate: f64,
    /// Median of 1-key `lookup_batch` round trips over the measured connection, µs.
    pub rtt_us: Option<f64>,
}

/// Cycles in each timed window for `seconds` of nominal measuring.
fn cycles_per_window(traffic: Traffic, seconds: f64) -> usize {
    let rate = match traffic {
        Traffic::Read => READ_CYCLES_PER_SEC,
        Traffic::Churn => CHURN_CYCLES_PER_SEC,
    };
    ((seconds * rate / WINDOWS as f64).round() as usize).max(1)
}

/// 1-key round trips behind `serve.proto.rtt_us`.
const RTT_PROBES: usize = 2000;

/// Measure serve workload `w` end to end. A `traced` run also times 1-key
/// round trips over the measured connection and calls the serve layers in
/// process.
pub fn run_serve(
    ctx: &Ctx<'_>,
    w: &Workload,
    traffic: Traffic,
    traced: bool,
) -> io::Result<(EndToEndResult, ServeExtras)> {
    // Client and daemon on one CPU, from before the daemon is spawned.
    let _one_cpu = OneCpu::pin();
    let dir = ctx.scratch.fresh_dir("setup")?;
    let setup = Instant::now();
    let mut served = Served::set_up(ctx, w, traffic, &dir)?;
    let setup_s = setup.elapsed().as_secs_f64();

    let per_window = cycles_per_window(traffic, ctx.seconds);
    let first_cycle = match traffic {
        Traffic::Read => 0,
        Traffic::Churn => CHURN_WARMUP_CYCLES,
    };
    let mut lat = Latencies::default();
    let (mut wall, mut cpu) = (Vec::new(), Vec::new());
    let mut attempted = 0u64;
    for i in 0..WINDOWS {
        let cpu_before = pid_cpu_secs(served.daemon.pid)?;
        let win = served.window(traffic, first_cycle + i * per_window, per_window, &mut lat)?;
        let cpu_after = pid_cpu_secs(served.daemon.pid)?;
        attempted += win.ops;
        wall.push(win.wall_secs * 1e9 / win.ops as f64);
        cpu.push((cpu_after - cpu_before) * 1e9 / win.ops as f64);
    }

    // The replication factor after the last request: recomputed from the
    // oracle's live edges, and the daemon must report the same.
    let rf = served.oracle.rf();
    let stats = served.client.stats()?;
    if (stats.replication_factor - rf).abs() > 1e-9 * rf {
        served.miss(
            1,
            format!(
                "daemon reports rf {}, the live edges give {rf}",
                stats.replication_factor
            ),
        );
    }
    if stats.num_edges != served.oracle.live.len() as u64 {
        served.miss(
            1,
            format!(
                "daemon holds {} edges, the oracle {}",
                stats.num_edges,
                served.oracle.live.len()
            ),
        );
    }
    let layers = if traced {
        in_process_layers(&served, traffic, ctx.seed)?
    } else {
        Vec::new()
    };
    let rtt_us = if traced {
        let (probe, _) = served.oracle.live[0];
        let mut samples = Vec::with_capacity(RTT_PROBES);
        for _ in 0..RTT_PROBES {
            let t = Instant::now();
            served.client.lookup_batch(&[probe])?;
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Some(crate::stats::median(&samples))
    } else {
        None
    };
    let peak_rss_mb = vm_hwm_kb(served.daemon.pid).unwrap_or(0) as f64 / 1024.0;

    // Close the measured connection so its LRU counts are folded in, then
    // read them over the connection that also carries the shutdown.
    let Served {
        client,
        daemon,
        parts,
        mut failed,
        mut problems,
        ..
    } = served;
    drop(client);
    let lru = ServeClient::connect(&daemon.addr)?.stats()?;
    let lookups = lru.cache_hits + lru.cache_misses;
    let lru_hit_rate = if lookups == 0 {
        0.0
    } else {
        lru.cache_hits as f64 / lookups as f64
    };
    if !daemon.shutdown()? {
        failed += attempted;
        problems.push("tps serve exited non-zero".to_string());
    }
    std::fs::remove_dir_all(parts)?;
    std::fs::remove_dir_all(dir)?;

    Ok((
        EndToEndResult {
            attempted,
            failed,
            problems,
            wall_ns_per_edge: Measured::median_of(&wall),
            cpu_ns_per_edge: Measured::median_of(&cpu),
            peak_rss_mb: Measured::median_of(&[peak_rss_mb]),
            rf: Measured::median_of(&[rf]),
            setup_s: Measured::median_of(&[setup_s]),
        },
        ServeExtras {
            layers,
            latencies: lat,
            lru_hit_rate,
            rtt_us,
        },
    ))
}
