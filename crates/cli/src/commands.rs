//! Implementations of the `tps` subcommands.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};

use tps_baselines::{
    AdwisePartitioner, DbhPartitioner, DnePartitioner, GreedyPartitioner, GridPartitioner,
    HdrfPartitioner, HepPartitioner, MultilevelPartitioner, NePartitioner, RandomPartitioner,
    SnePartitioner,
};
use tps_core::job::{ExecPlan, JobSpec, ThreadMode};
use tps_core::partitioner::{PartitionParams, Partitioner, RunReport};
use tps_core::sink::{AssignmentSink, FileSink, NullSink};
use tps_core::two_phase::{TwoPhaseConfig, TwoPhasePartitioner};
use tps_core::RunOutcome;
use tps_graph::datasets::Dataset;
use tps_graph::formats::binary::write_binary_edge_list;
use tps_graph::formats::text::TextEdgeFile;
use tps_graph::stream::{discover_info, EdgeStream};
use tps_graph::types::GraphInfo;
use tps_io::{EdgeFileFormat, ReaderBackend};

use crate::args::{CommonOpts, Flags, COMMON_VALUED};
use crate::{fail, write_stdout, Failure};

/// Top-level usage text.
pub const USAGE: &str = "\
tps — out-of-core edge partitioning (2PS-L, ICDE 2022) and friends

USAGE:
  tps partition --input FILE -k N [options]   partition an edge list
  tps dist coordinator --input FILE --k N --workers N [options]
                                              distributed partition (coordinator)
  tps dist worker --connect HOST:PORT         distributed partition (worker)
  tps serve     --parts DIR [options]         serve a finished partitioning
  tps lookup    --connect HOST:PORT [options] query / update a running daemon
  tps top       HOST:PORT [options]           live dashboard over a metrics endpoint
  tps generate  --dataset NAME --out FILE     write a synthetic dataset
  tps convert   --input FILE --out FILE       convert between .bel v1 and v2
  tps info      --input FILE                  print graph statistics
  tps profile   --path FILE                   measure sequential read speed
  tps report    TRACE.jsonl                   render a trace file's run report
  tps help                                    show this text (so does CMD --help)

partition options:
  --input FILE        binary (.bel / TPSBEL2) or text edge list
  --format bel|text   input format (default: by file extension)
  --reader buffered   how binary inputs are read: positioned reads, the
                      only reader (the flag accepts nothing else)
  --k N               number of partitions (required; also -k via --k)
  --algorithm NAME    2ps-l | 2ps-hdrf | hdrf | dbh | grid | random | greedy |
                      adwise | ne | sne | dne | hep-1 | hep-10 | hep-100 |
                      multilevel            (default: 2ps-l)
  --alpha F           balance factor (default 1.05)
  --passes N          clustering passes for 2ps-l/2ps-hdrf (default 1)
  --threads N|auto|serial
                      chunk-parallel 2ps-l/2ps-hdrf execution over N worker
                      threads (default: auto = available parallelism; serial
                      forces one shard over a single cursor; binary inputs
                      only — text inputs and other algorithms always run
                      serial). Results are deterministic for a fixed N; N=1
                      is one shard too and matches serial bit for bit. Pin
                      N for output that is reproducible across machines.
  --out DIR           write per-partition .bel files into DIR
  --mem-budget-mb N   whole-job memory budget, split deterministically:
                      half pages cluster state out of core (one-shard
                      runs: serial or 1) until, at a clustering-pass
                      boundary, it fits that half flat (4 B/vertex +
                      12 B/cluster) and the run goes on in memory; the
                      other half is headroom for what it does not
                      govern (output buffers, degree table, the
                      decision logs of --threads N > 1: 2 bits per
                      edge of shards 1..N-1 plus one entry per escape;
                      shard 0 none). Only one-shard runs are bounded
                      hard. A TPSBEL2 input is decoded once per run into
                      a temp-dir spill file (2w bits per edge, w = bits
                      of |V|-1) that the later passes read; it takes no
                      share, so the bound needs TMPDIR on a disk (on a
                      tmpfs the spill is RAM outside the budget).
                      Output is bit-identical at every budget; see
                      the README `Memory model` section
  --trace FILE        record a structured trace (JSON lines: phase spans,
                      counters) to FILE; `tps report FILE` renders it.
                      Tracing never changes partitioning output.
  --quiet             only print the metrics line

dist coordinator options (2ps-l / 2ps-hdrf on binary inputs):
  --input FILE        v1/v2 edge file on a filesystem all workers share
  --k N               number of partitions (required)
  --workers N         shards = worker connections to wait for (default 2)
  --standby N         extra idle worker connections to accept up-front;
                      failed shards are re-issued to them first (default 0)
  --max-retries N     shard re-issues allowed across the job before the
                      run fails (default 2; 0 = fail on first worker loss)
  --frame-timeout-ms N
                      presume a worker dead when one frame takes longer
                      than this to arrive (default 0 = wait forever)
  --listen ADDR       bind address (default 127.0.0.1:0 = ephemeral port)
  --metrics-addr ADDR serve live metrics scrapes (per-shard stage gauges,
                      worker liveness, fault counters, frame byte rates)
                      over HTTP on ADDR; `tps top ADDR` renders them
  --metrics-addr-file FILE
                      write the bound metrics address to FILE (atomic;
                      scripts poll for it)
  --dist-local        spawn the worker processes locally itself, and
                      respawn clean replacements on worker failure
  --kill-worker I / --kill-at SPEC
                      fault injection (--dist-local only): worker I dies at
                      SPEC = recv:TAG[:N] | send:TAG[:N] | frames:N
                      (the CI dist-chaos job drives this)
  --alpha/--passes/--algorithm/--reader/--out/--mem-budget-mb/
  --trace/--quiet     as for tps partition; --mem-budget-mb is
                      forwarded in the Job frame, where workers check it
                      but page nothing; each worker spills the TPSBEL2
                      range it decodes to its own temp dir. With --trace,
                      workers record their shard phases too and ship them
                      in the ShardDone barrier frame, so the one trace
                      file covers the whole cluster. Output is
                      bit-identical to `tps partition --threads N` for the
                      same worker count, even across worker failures.

dist worker options:
  --connect HOST:PORT coordinator address (retries for ~5 s)
  --reconnect N       on failure, reconnect to the coordinator up to N
                      times (handshakes with Rejoin; default 0)
  --kill-at SPEC      fault injection: die at the given protocol point

serve options (the online serving daemon — see crates/serve/README.md):
  --parts DIR         a tps partition --out directory of <stem>.part<i>.bel
                      files (required); loaded once into a packed lookup
                      table and adopted by the incremental write path
  --listen ADDR       bind address (default 127.0.0.1:0 = ephemeral port)
  --addr-file FILE    write the bound address to FILE once listening
                      (written atomically; scripts poll for it)
  --metrics-addr ADDR serve live metrics scrapes over HTTP on ADDR:
                      per-op latency/batch histograms with p50/p90/p99,
                      staleness/overlay/cache/epoch gauges, all counters.
                      Recording costs a few relaxed atomic ops per op and
                      never changes served answers
  --metrics-addr-file FILE
                      write the bound metrics address to FILE (atomic)
  --trace FILE        record a structured trace of the serving session
                      (per-op phase spans, delta/compaction marks) to
                      FILE on shutdown; `tps report FILE` renders it
  --state FILE        restore the write-path engine from a snapshot
                      written by --save-state (the packed table still
                      comes from --parts)
  --save-state FILE   write an engine snapshot to FILE on shutdown
  --cache N           per-connection replica-set LRU entries (default
                      4096; 0 disables)
  --headroom F        extra insert capacity multiplier over --alpha
                      (default 1.2)
  --alpha/--passes/--algorithm
                      scoring knobs for streamed insertions (2ps-l /
                      2ps-hdrf only)
  --quiet             only print the listening line

lookup options (client for a running tps serve):
  --connect HOST:PORT daemon address (required)
  --edge S,D[;S,D…]   look up edge partitions, one line per edge
  --replicas V[,V…]   print each vertex's replica set
  --insert S,D[;…]    stream edge insertions (before removals)
  --remove S,D[;…]    stream edge removals
  --insert-file FILE / --remove-file FILE
                      whitespace-separated \"src dst\" lines; # comments
  --verify-parts DIR  re-read a --out directory and assert every edge's
                      served partition matches the files bit for bit
  --stats             print a server statistics snapshot (incl. uptime and
                      per-op latency quantiles; protocol v2)
  --shutdown          ask the daemon to exit (runs last)

top options (dashboard over a serve/dist --metrics-addr endpoint):
  tps top HOST:PORT [--interval-ms N] [--samples N] [--once]
                      poll every N ms (default 1000) and redraw in place;
                      --once prints one frame and exits, --samples N stops
                      after N frames (0 = run until ^C)

generate options:
  --dataset NAME      ok|it|tw|fr|uk|gsh|wdc|wi
  --scale F           size factor (default 1.0)
  --out FILE          output .bel path

convert options:
  --input FILE        source edge list (v1 or v2, auto-detected)
  --out FILE          destination path
  --to v1|v2          target format (default: the other one)
  --chunk-edges N     v2 edges per chunk (default 65536)

info options:
  --input FILE        binary (v1/v2) or text edge list
  --reader buffered   as for tps partition

profile options:
  --path FILE         file to read
  --block-size N      read block bytes (default 100 MiB, fio-style)

report options:
  tps report TRACE.jsonl
                      parse a --trace file and print the phase breakdown
                      (per worker, plus the per-shard critical path for
                      dist runs), top counters, and fault timeline
";

/// Resolve the input format: the `--format` flag, else the file extension.
fn resolve_format(path: &str, format: Option<&str>) -> String {
    match format {
        Some(f) => f.to_string(),
        None => Path::new(path)
            .extension()
            .and_then(|e| e.to_str())
            .unwrap_or("bel")
            .to_string(),
    }
}

/// Whether `fmt` names the binary container (v1/v2 — the chunk-parallel
/// runner applies to these only).
fn is_binary_format(fmt: &str) -> bool {
    matches!(fmt, "bel" | "bel2" | "v2")
}

fn open_stream(path: &str, format: Option<&str>) -> Result<Box<dyn EdgeStream>, String> {
    let fmt = resolve_format(path, format);
    match fmt.as_str() {
        // v1 and v2 binary files are auto-detected by magic.
        _ if is_binary_format(&fmt) => tps_io::open_edge_stream(path, ReaderBackend::Buffered)
            .map_err(|e| format!("{path}: {e}")),
        "text" | "txt" | "el" | "edges" => Ok(Box::new(
            TextEdgeFile::open(path).map_err(|e| format!("{path}: {e}"))?,
        )),
        other => Err(format!("unknown format {other:?} (use bel or text)")),
    }
}

fn make_partitioner(name: &str, passes: u32) -> Result<Box<dyn Partitioner>, String> {
    // Two-phase algorithms resolve through the same alias table the
    // chunk-parallel path uses, so serial and parallel configs cannot drift.
    if let Some(cfg) = two_phase_config(name, passes) {
        return Ok(Box::new(TwoPhasePartitioner::new(cfg)));
    }
    Ok(match name.to_ascii_lowercase().as_str() {
        "hdrf" => Box::new(HdrfPartitioner::default()),
        "dbh" => Box::new(DbhPartitioner::default()),
        "grid" => Box::new(GridPartitioner::default()),
        "random" => Box::new(RandomPartitioner::default()),
        "greedy" => Box::new(GreedyPartitioner),
        "adwise" => Box::new(AdwisePartitioner::default()),
        "ne" => Box::new(NePartitioner),
        "sne" => Box::new(SnePartitioner::default()),
        "dne" => Box::new(DnePartitioner::default()),
        "hep-1" => Box::new(HepPartitioner::with_tau(1.0)),
        "hep-10" => Box::new(HepPartitioner::with_tau(10.0)),
        "hep-100" => Box::new(HepPartitioner::with_tau(100.0)),
        "multilevel" | "metis" => Box::new(MultilevelPartitioner::default()),
        other => return Err(format!("unknown algorithm {other:?}")),
    })
}

/// Write a bound socket address to `path` atomically, so pollers never
/// observe a partially written address.
pub(crate) fn write_addr_file(path: &str, addr: &str) -> Result<(), String> {
    replace_file(Path::new(path), |f| writeln!(f, "{addr}"))
}

/// Replace `path` with what `write` writes, so that neither a crash nor a
/// failed write leaves it torn: the bytes go to `PATH.tmp` in the same
/// directory, which is synced and renamed over `path`, and then the
/// directory is synced. A failed step deletes the temp file and leaves
/// `path` as it was.
pub(crate) fn replace_file(
    path: &Path,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let staged = std::fs::File::create(&tmp)
        .and_then(|mut f| {
            write(&mut f)?;
            f.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = staged {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!("{}: {e}", path.display()));
    }
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("{}: {e}", dir.display()))
}

/// Start the coordinator's `--metrics-addr` scrape endpoint: the body is
/// every `tps_obs` counter plus the coordinator's per-shard stage gauges,
/// with run-scoped rate/uptime gauges refreshed at scrape time.
fn start_dist_metrics(
    flags: &Flags,
    quiet: bool,
) -> Result<Option<tps_obs::MetricsServer>, String> {
    let Some(maddr) = flags.get("metrics-addr") else {
        if flags.get("metrics-addr-file").is_some() {
            return Err("--metrics-addr-file does nothing without --metrics-addr".into());
        }
        return Ok(None);
    };
    let started = std::time::Instant::now();
    let server = tps_obs::serve_metrics(maddr, move || {
        let uptime = started.elapsed().as_secs_f64();
        tps_obs::set_gauge("dist.uptime.secs", uptime);
        if uptime > 0.0 {
            let bytes = tps_obs::counters_snapshot()
                .into_iter()
                .find(|(n, _)| n == "dist.frames.bytes")
                .map_or(0, |(_, v)| v);
            tps_obs::set_gauge("dist.frames.bytes.rate", bytes as f64 / uptime);
        }
        tps_obs::render_exposition()
    })
    .map_err(|e| format!("metrics bind {maddr}: {e}"))?;
    let bound = server.addr();
    if !quiet {
        eprintln!("note: metrics on http://{bound}/metrics");
    }
    if let Some(path) = flags.get("metrics-addr-file") {
        write_addr_file(path, &bound.to_string())?;
    }
    Ok(Some(server))
}

/// The two-phase config for `algo`, if `algo` is a two-phase algorithm (the
/// only family the chunk-parallel runner executes).
pub(crate) fn two_phase_config(algo: &str, passes: u32) -> Option<TwoPhaseConfig> {
    match algo.to_ascii_lowercase().as_str() {
        "2ps-l" | "2psl" | "2ps" => Some(TwoPhaseConfig {
            clustering_passes: passes,
            ..TwoPhaseConfig::default()
        }),
        "2ps-hdrf" => Some(TwoPhaseConfig {
            clustering_passes: passes,
            ..TwoPhaseConfig::hdrf_variant()
        }),
        _ => None,
    }
}

/// The run parameters of `--k` and `--alpha`; an `--alpha` below 1 (or
/// not a number) is an input error.
fn alpha_params(k: u32, alpha: f64) -> Result<PartitionParams, String> {
    PartitionParams::try_with_alpha(k, alpha).map_err(|e| format!("--alpha: {e}"))
}

/// Print the standard metrics line (and phases/counters when not quiet)
/// for a finished job.
fn print_outcome(outcome: &RunOutcome, k: u32, quiet: bool) -> Result<(), Failure> {
    say!(
        "algorithm={} k={k} edges={} rf={:.4} alpha={:.4} time_s={:.3}",
        outcome.name,
        outcome.metrics.num_edges,
        outcome.metrics.replication_factor,
        outcome.metrics.alpha,
        outcome.seconds()
    )?;
    if !quiet {
        for (name, d) in outcome.report.phases.phases() {
            eprintln!("phase {name}: {:.3} s", d.as_secs_f64());
        }
        for (name, v) in &outcome.report.counters {
            eprintln!("counter {name}: {v}");
        }
        if outcome.report.counter("paging_budget_bytes") > 0 {
            let rate =
                outcome.report.counter("paging_faults") as f64 / outcome.metrics.num_edges as f64;
            match outcome.report.counter("paging_flat_after_pass") {
                0 => eprintln!("paging: {rate:.4} faults/edge, paged to the end"),
                pass => eprintln!("paging: {rate:.4} faults/edge, flat after pass {pass}"),
            }
        }
    }
    Ok(())
}

/// `tps partition` — a thin front-end over [`JobSpec`]: the flags map onto
/// builder calls, the spec resolves the execution plan, and the only CLI
/// value-add is the output sinks and the printed notes.
pub fn partition(args: &[String]) -> i32 {
    let valued: Vec<&str> = ["input", "k", "out", "trace"]
        .iter()
        .chain(COMMON_VALUED)
        .copied()
        .collect();
    let flags = match Flags::parse(args, &["quiet"], &valued) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), Failure> {
        let common = CommonOpts::from_flags(&flags)?;
        let input = flags.require("input")?;
        let k: u32 = flags.get_or("k", 0)?;
        if k == 0 {
            return Err("--k is required and must be >= 1".into());
        }
        let quiet = flags.has("quiet");
        // The engine's own mid-run notes (a thrashing page table) follow
        // the same switch as the front-end's.
        tps_obs::set_notices(!quiet);
        let note = |msg: &str| {
            if !quiet {
                eprintln!("note: {msg}");
            }
        };

        // Binary inputs go in as path inputs (chunk-parallel eligible; the
        // provider opens per-worker cursors itself); text inputs run as
        // plain serial streams.
        let mut owned_partitioner;
        let mut text_stream = None;
        let info: GraphInfo;
        let binary_input = is_binary_format(&resolve_format(input, common.format.as_deref()));
        let mut spec = if binary_input {
            info = tps_io::open_ranged(input)
                .map_err(|e| format!("{input}: {e}"))?
                .info();
            JobSpec::path(input)
        } else {
            let mut s = open_stream(input, common.format.as_deref())?;
            info = discover_info(&mut *s).map_err(|e| e.to_string())?;
            let s = text_stream.insert(s);
            JobSpec::stream(&mut **s)
        };
        spec = match two_phase_config(&common.algorithm, common.passes) {
            Some(cfg) => spec.two_phase(cfg),
            None => {
                owned_partitioner = make_partitioner(&common.algorithm, common.passes)?;
                spec.partitioner(&mut *owned_partitioner)
            }
        };
        spec = spec
            .params(&alpha_params(k, common.alpha)?)
            .num_vertices(info.num_vertices)
            .threads(common.threads)
            .mem_budget_mb(common.mem_budget_mb);
        if let Some(path) = flags.get("trace") {
            spec = spec.trace(path).trace_cmd("partition");
        }

        match spec.plan() {
            ExecPlan::Parallel { threads } => {
                if threads > 1 && common.threads == ThreadMode::Auto {
                    note(&format!(
                        "running chunk-parallel on {threads} threads (deterministic per \
                         thread count; --threads serial for the paper-exact serial run)"
                    ));
                }
            }
            ExecPlan::Serial {
                reason: Some(reason),
            } => {
                if matches!(common.threads, ThreadMode::Count(n) if n > 1) {
                    note(reason);
                }
            }
            ExecPlan::Serial { reason: None } => {}
        }

        let mut files = open_parts(&flags, input, k, info.num_vertices)?;
        if let Some(files) = files.as_mut() {
            spec = spec.extra_sink(files);
        }
        let outcome = tps_io::run_job(spec).map_err(|e| e.to_string())?;
        close_parts(files, quiet)?;
        print_outcome(&outcome, k, quiet)?;
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// The partition files `--out DIR` asks for — `<stem>.part<i>.bel` in DIR,
/// the stem taken from `input` — or `None` without `--out`.
fn open_parts(
    flags: &Flags,
    input: &str,
    k: u32,
    num_vertices: u64,
) -> Result<Option<FileSink>, String> {
    let Some(dir) = flags.get("out") else {
        return Ok(None);
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("--out {dir}: {e}"))?;
    let stem = Path::new(input)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("graph");
    FileSink::create(Path::new(dir), stem, k, num_vertices)
        .map(Some)
        .map_err(|e| e.to_string())
}

/// Finish what [`open_parts`] opened and say what was written.
fn close_parts(files: Option<FileSink>, quiet: bool) -> Result<(), String> {
    let Some(files) = files else { return Ok(()) };
    let parts = files.finish().map_err(|e| e.to_string())?;
    if !quiet {
        for (path, count) in parts {
            eprintln!("wrote {} ({count} edges)", path.display());
        }
    }
    Ok(())
}

/// Run a partitioning job and print metrics/outputs for
/// `tps dist coordinator`, which supplies its own runner closure
/// (`tps partition` builds a [`JobSpec`] instead — the coordinator cannot
/// yet, because its runner spans a worker fleet, not a local stream). The
/// runner reports the run's quality itself ([`RunReport::quality`]), so the
/// assignments go only to the `--out` files, if any.
#[allow(clippy::too_many_arguments)] // the args mirror the CLI surface
fn execute_and_report(
    flags: &Flags,
    cmd: &str,
    name: &str,
    info: GraphInfo,
    input: &str,
    k: u32,
    alpha: f64,
    run: &mut dyn FnMut(&PartitionParams, &mut dyn AssignmentSink) -> Result<RunReport, String>,
) -> Result<(), Failure> {
    let trace = flags.get("trace").map(tps_obs::TraceRecording::begin);
    let params = alpha_params(k, alpha)?;
    let start = std::time::Instant::now();
    let mut files = open_parts(flags, input, k, info.num_vertices)?;
    let mut report = match files.as_mut() {
        Some(files) => run(&params, files)?,
        None => run(&params, &mut NullSink)?,
    };
    close_parts(files, flags.has("quiet"))?;
    let outcome = RunOutcome {
        name: name.to_string(),
        metrics: report
            .quality
            .take()
            .ok_or("the coordinator reported no quality metrics")?,
        report,
        wall_time: start.elapsed(),
        peak_heap_bytes: 0,
    };
    print_outcome(&outcome, k, flags.has("quiet"))?;
    if let Some(trace) = trace {
        let meta = tps_obs::TraceMeta {
            cmd: cmd.to_string(),
            algo: name.to_string(),
            k,
            alpha,
            vertices: info.num_vertices,
            edges: info.num_edges,
        };
        let path = trace.path().display().to_string();
        let (events, counters) = trace.finish(&meta).map_err(|e| e.to_string())?;
        if !flags.has("quiet") {
            eprintln!("trace: {events} events, {counters} counters -> {path}");
        }
    }
    Ok(())
}

/// `tps dist` — distributed coordinator/worker execution.
pub fn dist(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("coordinator") => dist_coordinator(&args[1..]),
        Some("worker") => dist_worker(&args[1..]),
        _ => fail("usage: tps dist coordinator|worker [options] (see tps help)"),
    }
}

/// How `--dist-local` respawns replacement workers on demand.
struct RespawnSpec {
    exe: PathBuf,
    addr: String,
}

impl RespawnSpec {
    /// The worker command line — one builder for initial spawns and
    /// replacements, so the two can't drift apart.
    fn command(&self) -> std::process::Command {
        let mut cmd = std::process::Command::new(&self.exe);
        cmd.args(["dist", "worker", "--connect"]).arg(&self.addr);
        cmd
    }
}

/// The coordinator's replacement source: optionally respawn a clean local
/// worker process, then accept one connection within a bounded window.
/// Reconnecting workers (`tps dist worker --reconnect`) arrive here too.
struct CliSupply<'a> {
    listener: &'a TcpListener,
    respawn: Option<&'a RespawnSpec>,
    children: &'a mut Vec<std::process::Child>,
    quiet: bool,
}

/// How long the coordinator waits for a replacement connection before
/// giving up on a shard (respawned local workers connect within
/// milliseconds; remote standbys get a grace period).
const ACCEPT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

impl CliSupply<'_> {
    fn accept_deadline(&mut self) -> std::io::Result<Option<TcpStream>> {
        let deadline = std::time::Instant::now() + ACCEPT_TIMEOUT;
        self.listener.set_nonblocking(true)?;
        let result = loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if !self.quiet {
                        eprintln!("note: replacement worker connected from {peer}");
                    }
                    break Some(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if std::time::Instant::now() >= deadline {
                        break None;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(e) => {
                    self.listener.set_nonblocking(false).ok();
                    return Err(e);
                }
            }
        };
        self.listener.set_nonblocking(false)?;
        if let Some(stream) = &result {
            stream.set_nonblocking(false)?;
        }
        Ok(result)
    }
}

impl tps_dist::WorkerSupply for CliSupply<'_> {
    fn replacement(&mut self) -> std::io::Result<Option<Box<dyn tps_dist::Transport>>> {
        if let Some(spec) = self.respawn {
            // Replacements are spawned clean: no fault-injection flags.
            self.children.push(spec.command().spawn()?);
            if !self.quiet {
                eprintln!("note: respawned a replacement worker");
            }
        }
        match self.accept_deadline()? {
            Some(stream) => Ok(Some(Box::new(tps_dist::TcpTransport::new(stream)?))),
            None => Ok(None),
        }
    }
}

fn dist_coordinator(args: &[String]) -> i32 {
    let valued: Vec<&str> = [
        "input",
        "k",
        "workers",
        "standby",
        "max-retries",
        "frame-timeout-ms",
        "listen",
        "metrics-addr",
        "metrics-addr-file",
        "kill-worker",
        "kill-at",
        "out",
        "trace",
    ]
    .iter()
    .chain(COMMON_VALUED)
    .copied()
    .collect();
    let flags = match Flags::parse(args, &["quiet", "dist-local"], &valued) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), Failure> {
        let common = CommonOpts::from_flags(&flags)?;
        let input = flags.require("input")?;
        let k: u32 = flags.get_or("k", 0)?;
        if k == 0 {
            return Err("--k is required and must be >= 1".into());
        }
        let alpha = alpha_params(k, common.alpha)?.alpha;
        let algo = common.algorithm.as_str();
        let config = two_phase_config(algo, common.passes)
            .ok_or_else(|| format!("tps dist runs 2ps-l / 2ps-hdrf only, not {algo:?}"))?;
        let workers: usize = flags.get_or("workers", 2)?;
        if workers == 0 {
            return Err("--workers must be >= 1".into());
        }
        let standby: usize = flags.get_or("standby", 0)?;
        let max_retries: u32 = flags.get_or("max-retries", 2)?;
        let frame_timeout_ms: u64 = flags.get_or("frame-timeout-ms", 0)?;
        let policy = tps_dist::FaultPolicy {
            max_retries,
            frame_timeout: (frame_timeout_ms > 0)
                .then(|| std::time::Duration::from_millis(frame_timeout_ms)),
        };
        // Fault-injection hooks for the chaos tests: forward --kill-at to
        // the --dist-local worker with spawn index --kill-worker.
        let kill_at = flags.get("kill-at");
        let kill_worker: usize = flags.get_or("kill-worker", 0)?;
        if let Some(spec) = kill_at {
            tps_dist::KillSpec::parse(spec)?; // validate before spawning anything
            if !flags.has("dist-local") {
                return Err(
                    "--kill-at requires --dist-local (it is forwarded to a spawned worker)".into(),
                );
            }
            // A mistargeted kill would silently test nothing.
            if kill_worker >= workers + standby {
                return Err(format!(
                    "--kill-worker {kill_worker} is out of range: only {} workers are spawned \
                     ({workers} shards + {standby} standby)",
                    workers + standby
                )
                .into());
            }
        } else if flags.get("kill-worker").is_some() {
            return Err("--kill-worker does nothing without --kill-at".into());
        }
        let quiet = flags.has("quiet");

        // Workers resolve the path themselves, so ship it absolute.
        let abs = std::fs::canonicalize(input).map_err(|e| format!("{input}: {e}"))?;
        let info = tps_io::open_ranged(&abs)
            .map_err(|e| format!("{input}: {e}"))?
            .info();

        let listener = TcpListener::bind(flags.get("listen").unwrap_or("127.0.0.1:0"))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let _metrics = start_dist_metrics(&flags, quiet)?;
        let initial = workers + standby;
        if !quiet {
            eprintln!(
                "note: coordinator listening on {addr}, waiting for {initial} worker(s) \
                 ({workers} shards + {standby} standby)"
            );
        }

        let respawn = RespawnSpec {
            exe: std::env::current_exe().map_err(|e| e.to_string())?,
            addr: addr.to_string(),
        };
        let mut children = Vec::new();

        let accept_one = || -> Result<Box<dyn tps_dist::Transport>, String> {
            let (stream, peer) = listener.accept().map_err(|e| format!("accept: {e}"))?;
            if !quiet {
                eprintln!("note: worker connected from {peer}");
            }
            Ok(Box::new(
                tps_dist::TcpTransport::new(stream).map_err(|e| e.to_string())?,
            ))
        };
        // Immediately-invoked so the mutable borrow of `children` ends
        // before the supply takes it.
        let accepted = (|| -> Result<Vec<Box<dyn tps_dist::Transport>>, String> {
            let mut transports: Vec<Box<dyn tps_dist::Transport>> = Vec::with_capacity(initial);
            if flags.has("dist-local") {
                // Spawn and accept one worker at a time so spawn index ==
                // connection order == role: workers 0..N-1 hold shards
                // 0..N-1 and the rest are standbys. This is what makes
                // --kill-worker target a *specific* role deterministically
                // (the chaos gate depends on it). The memory budget
                // reaches spawned workers in the Job frame.
                for i in 0..initial {
                    let mut cmd = respawn.command();
                    if let (Some(spec), true) = (kill_at, i == kill_worker) {
                        cmd.args(["--kill-at", spec]);
                    }
                    children.push(cmd.spawn().map_err(|e| format!("spawning worker: {e}"))?);
                    transports.push(accept_one()?);
                }
            } else {
                for _ in 0..initial {
                    transports.push(accept_one()?);
                }
            }
            Ok(transports)
        })();
        let result = accepted.map_err(Failure::from).and_then(|transports| {
            let input_desc = tps_dist::InputDescriptor::Path {
                path: abs.to_string_lossy().into_owned(),
            };
            let base = match config.strategy {
                tps_core::two_phase::RemainingStrategy::TwoChoice => "2PS-L",
                tps_core::two_phase::RemainingStrategy::Hdrf(_) => "2PS-HDRF",
            };
            let name = format!("{base}×{workers}w");
            let mut transports = Some(transports);
            let mut supply = CliSupply {
                listener: &listener,
                respawn: flags.has("dist-local").then_some(&respawn),
                children: &mut children,
                quiet,
            };
            let result = execute_and_report(
                &flags,
                "dist",
                &name,
                info,
                input,
                k,
                alpha,
                &mut |params, sink| {
                    tps_dist::run_coordinator(
                        &config,
                        params,
                        info,
                        &input_desc,
                        workers,
                        transports.take().ok_or("coordinator can only run once")?,
                        &mut supply,
                        &policy,
                        common.mem_budget_mb,
                        sink,
                    )
                    .map_err(|e| e.to_string())
                },
            );
            // A job that failed before the coordinator ran (an input error)
            // never spoke to the workers: dismiss them as the backlog is.
            for mut t in transports.into_iter().flatten() {
                let _ = t.send(&tps_dist::Message::Shutdown.encode());
            }
            result
        });
        // Reconnecting workers may still sit in the accept backlog with no
        // job to serve: drain them with a Shutdown so they exit.
        if listener.set_nonblocking(true).is_ok() {
            while let Ok((stream, _)) = listener.accept() {
                stream.set_nonblocking(false).ok();
                if let Ok(mut t) = tps_dist::TcpTransport::new(stream) {
                    use tps_dist::Transport as _;
                    let _ = t.send(&tps_dist::Message::Shutdown.encode());
                }
            }
        }
        // Always reap spawned workers, even on failure (a coordinator error
        // aborts them over the wire, so wait() terminates promptly).
        for mut child in children {
            let _ = child.wait();
        }
        result
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

fn dist_worker(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, &["quiet"], &["connect", "reconnect", "kill-at"]) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), Failure> {
        let connect = flags.require("connect")?;
        let reconnects: u32 = flags.get_or("reconnect", 0)?;
        let kill = flags
            .get("kill-at")
            .map(tps_dist::KillSpec::parse)
            .transpose()?;
        let quiet = flags.has("quiet");
        let connect_stream = || -> Result<TcpStream, String> {
            // The coordinator may still be binding (or, with --dist-local,
            // is our parent racing us) — retry for ~5 s before giving up.
            for attempt in 0..50 {
                match TcpStream::connect(connect) {
                    Ok(s) => return Ok(s),
                    Err(e) if attempt == 49 => return Err(format!("{connect}: {e}")),
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(100)),
                }
            }
            unreachable!("connect loop returns or errors")
        };
        let mut handshake = tps_dist::Handshake::Hello;
        let mut attempt = 0u32;
        loop {
            let tcp = tps_dist::TcpTransport::new(connect_stream()?).map_err(|e| e.to_string())?;
            // The kill switch hard-exits the process when it fires, so the
            // socket closes exactly as a crashed worker's would.
            let mut transport: Box<dyn tps_dist::Transport> = match kill {
                Some(spec) => Box::new(tps_dist::FaultTransport::new(
                    tcp,
                    spec,
                    tps_dist::KillMode::Exit,
                )),
                None => Box::new(tcp),
            };
            match tps_dist::run_worker_handshake(
                &mut *transport,
                &tps_dist::PathResolver,
                handshake,
            ) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    attempt += 1;
                    if attempt > reconnects {
                        return Err(e.to_string().into());
                    }
                    if !quiet {
                        eprintln!(
                            "note: worker failed ({e}); reconnecting ({attempt}/{reconnects})"
                        );
                    }
                    handshake = tps_dist::Handshake::Rejoin;
                }
            }
        }
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// `tps generate`
pub fn generate(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, &[], &["dataset", "scale", "out"]) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), Failure> {
        let name = flags.require("dataset")?;
        let scale: f64 = flags.get_or("scale", 1.0)?;
        let out = flags.require("out")?;
        let ds = Dataset::ALL
            .into_iter()
            .find(|d| d.abbrev().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown dataset {name:?} (ok|it|tw|fr|uk|gsh|wdc|wi)"))?;
        let graph = ds.generate_scaled(scale);
        let info = write_binary_edge_list(out, graph.num_vertices(), graph.edges().iter().copied())
            .map_err(|e| format!("{out}: {e}"))?;
        say!(
            "wrote {out}: {} vertices, {} edges ({} stand-in at scale {scale})",
            info.num_vertices,
            info.num_edges,
            ds.full_name()
        )?;
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// `tps convert`
pub fn convert(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, &[], &["input", "out", "to", "chunk-edges"]) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), Failure> {
        let input = flags.require("input")?;
        let out = flags.require("out")?;
        let chunk_edges: u32 = flags.get_or("chunk-edges", tps_io::v2::DEFAULT_CHUNK_EDGES)?;
        if chunk_edges == 0 {
            return Err("--chunk-edges must be >= 1".into());
        }
        // Creating the output truncates it; refuse to clobber the input
        // (same path, possibly via a symlink or a relative spelling).
        if let Ok(canon_in) = std::fs::canonicalize(input) {
            if let Ok(canon_out) = std::fs::canonicalize(out) {
                if canon_in == canon_out {
                    return Err(format!("--out must differ from --input ({input})").into());
                }
            }
        }
        let from = tps_io::detect_format(input).map_err(|e| format!("{input}: {e}"))?;
        let to = match (flags.get("to"), from) {
            (Some("v1"), _) => EdgeFileFormat::V1,
            (Some("v2"), _) => EdgeFileFormat::V2,
            (Some(other), _) => {
                return Err(format!("unknown target format {other:?} (v1|v2)").into())
            }
            (None, EdgeFileFormat::V1) => EdgeFileFormat::V2,
            (None, EdgeFileFormat::V2) => EdgeFileFormat::V1,
        };
        let converted = match (from, to) {
            (EdgeFileFormat::V1, EdgeFileFormat::V2) => {
                tps_io::convert_v1_to_v2(input, out, chunk_edges)
            }
            (EdgeFileFormat::V2, EdgeFileFormat::V1) => tps_io::convert_v2_to_v1(input, out),
            _ => return Err(format!("{input} is already {to:?}").into()),
        };
        let info = converted.map_err(|e| format!("converting {input} to {out}: {e}"))?;
        let in_bytes = std::fs::metadata(input).map_err(|e| e.to_string())?.len();
        let out_bytes = std::fs::metadata(out).map_err(|e| e.to_string())?.len();
        say!(
            "converted {input} ({from:?}, {in_bytes} B) -> {out} ({to:?}, {out_bytes} B, {:.1}% of input): {} vertices, {} edges",
            100.0 * out_bytes as f64 / in_bytes.max(1) as f64,
            info.num_vertices,
            info.num_edges,
        )?;
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// `tps info`
pub fn info(args: &[String]) -> i32 {
    let valued: Vec<&str> = ["input"].iter().chain(COMMON_VALUED).copied().collect();
    let flags = match Flags::parse(args, &[], &valued) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), Failure> {
        let common = CommonOpts::from_flags(&flags)?;
        let input = flags.require("input")?;
        let mut stream = open_stream(input, common.format.as_deref())?;
        let info = discover_info(&mut stream).map_err(|e| e.to_string())?;
        // One more pass for degree statistics.
        let degrees = tps_graph::degree::DegreeTable::compute(&mut stream, info.num_vertices)
            .map_err(|e| e.to_string())?;
        say!("file: {input}")?;
        say!("vertices: {}", info.num_vertices)?;
        say!("edges: {}", info.num_edges)?;
        say!("mean degree: {:.2}", info.mean_degree())?;
        say!("max degree: {}", degrees.max_degree())?;
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// `tps profile`
pub fn profile(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, &[], &["path", "block-size"]) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), Failure> {
        let path = flags.require("path")?;
        let block: usize = flags.get_or("block-size", 100 << 20)?;
        let p = tps_storage::profile_sequential_read(Path::new(path), block)
            .map_err(|e| e.to_string())?;
        say!(
            "read {} bytes in {:.3} s -> {:.1} MB/s",
            p.bytes,
            p.seconds,
            p.bandwidth() / 1e6
        )?;
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// `tps report` — render a `--trace` file's phase breakdown, counters and
/// fault timeline.
pub fn report(args: &[String]) -> i32 {
    let path = match args.first() {
        Some(p) if !p.starts_with('-') => PathBuf::from(p),
        _ => return fail("usage: tps report TRACE.jsonl"),
    };
    let run = || -> Result<(), Failure> {
        let trace = tps_obs::Trace::load(&path)?;
        write_stdout(format_args!("{}", tps_obs::render_report(&trace)?))?;
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}
