//! End-to-end measurement of the partition workloads: the shipped `tps`
//! binary as a child process, file on disk → partition files on disk.
//!
//! Every rep is a fresh child writing into a new empty directory that is
//! deleted after the timer stops: overwriting an existing `--out` directory
//! drifts (518 → 598 ms over 16 reps at the seed commit), fresh ones do not.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::inputs::{self, Input, Scratch};
use crate::procstat::{run_child, ChildRun};
use crate::stats::Summary;
use crate::verify::{self, Expected};
use crate::workload::{EndToEnd, Engine, PartitionSpec, Workload, ALPHA, END_TO_END};

/// What one invocation of the benchmark was asked to do.
pub struct Ctx<'a> {
    /// The `tps` binary under test.
    pub tps: &'a Path,
    pub scratch: &'a Scratch,
    pub seed: u64,
    /// How long the measured section runs.
    pub seconds: f64,
    /// Graph size as a share of the benchmark's (1.0 outside smoke tests).
    pub scale: f64,
    /// Fewest measured reps, however long they take.
    pub min_reps: usize,
}

/// One end-to-end metric: the value reported and the samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    pub value: f64,
    pub samples: Summary,
}

impl Measured {
    /// The time of a partition workload: its fastest rep. Every rep does the
    /// same deterministic work in a fresh child, so the reps differ only by
    /// what the neighbours on a shared box add, for seconds or for minutes at
    /// a time. Measured on the same ten-seed runs, the fastest rep spread
    /// 10 % where the median rep spread 19–21 % (README, "Why the fastest
    /// rep"), and the driver refuses a benchmark whose spread passes 25 %.
    pub fn fastest_of(samples: &[f64]) -> Measured {
        let samples = Summary::of(samples);
        Measured {
            value: samples.min,
            samples,
        }
    }

    /// The median of `samples`: the time of a serve workload, whose windows
    /// do not all do the same work (the overlay grows).
    pub fn median_of(samples: &[f64]) -> Measured {
        let samples = Summary::of(samples);
        Measured {
            value: samples.median,
            samples,
        }
    }

    /// The highest of `samples`: the peak memory of a partition workload is
    /// the highest high-water mark any of its reps reached. Under
    /// `--threads 2` a rep's peak depends on how its two threads interleave
    /// (60–66 MB within one run); over ten invocations the highest rep moved
    /// 0.9 % where the median rep moved 1.7 %, and 3.7 % in a loud hour.
    pub fn highest_of(samples: &[f64]) -> Measured {
        let samples = Summary::of(samples);
        Measured {
            value: samples.max,
            samples,
        }
    }

    /// The mean of `samples`: the replication factor over the edge orders of
    /// one graph, which scatter like draws from one distribution
    /// (`inputs::write_orders`) — the mean of six moves less than their median.
    pub fn mean_of(samples: &[f64]) -> Measured {
        Measured {
            value: samples.iter().sum::<f64>() / samples.len() as f64,
            samples: Summary::of(samples),
        }
    }
}

/// The five end-to-end metrics of one workload, with what the driver's
/// contract wants next to them.
#[derive(Clone, Debug)]
pub struct EndToEndResult {
    /// Edges the measured section operated on, summed over reps.
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub wall_ns_per_edge: Measured,
    pub cpu_ns_per_edge: Measured,
    pub peak_rss_mb: Measured,
    pub rf: Measured,
    pub setup_s: Measured,
}

impl EndToEndResult {
    /// Every end-to-end metric with its definition, in `END_TO_END`'s order.
    pub fn metrics(&self) -> [(&'static EndToEnd, Measured); 5] {
        let values = [
            ("wall_ns_per_edge", self.wall_ns_per_edge),
            ("cpu_ns_per_edge", self.cpu_ns_per_edge),
            ("peak_rss_mb", self.peak_rss_mb),
            ("rf", self.rf),
            ("setup_s", self.setup_s),
        ];
        std::array::from_fn(|i| {
            assert_eq!(values[i].0, END_TO_END[i].name, "END_TO_END's order");
            (&END_TO_END[i], values[i].1)
        })
    }
}

/// The command line of one partition rep.
pub fn partition_command(ctx: &Ctx<'_>, spec: &PartitionSpec, input: &Path, out: &Path) -> Command {
    let mut cmd = Command::new(ctx.tps);
    match spec.engine {
        Engine::Serial => cmd.args(["partition", "--threads", "serial"]),
        Engine::Threads2 => cmd.args(["partition", "--threads", "2"]),
        Engine::Dist2 => cmd.args(["dist", "coordinator", "--workers", "2", "--dist-local"]),
    };
    cmd.arg("--input").arg(input).arg("--out").arg(out);
    cmd.args(["--k", &spec.k.to_string()]);
    cmd.args(["--passes", &spec.passes.to_string()]);
    cmd.args(["--alpha", &ALPHA.to_string()]);
    cmd.args(["--reader", "buffered", "--quiet"]);
    if spec.mem_budget_mb > 0 {
        cmd.args(["--mem-budget-mb", &spec.mem_budget_mb.to_string()]);
    }
    // The engine's page store and spools go to std::env::temp_dir().
    cmd.env("TMPDIR", ctx.scratch.root());
    cmd
}

/// One partition rep: fresh directory, fresh child. The directory is the
/// caller's to delete.
pub fn partition_rep(
    ctx: &Ctx<'_>,
    spec: &PartitionSpec,
    input: &Path,
) -> io::Result<(ChildRun, PathBuf)> {
    let out = ctx.scratch.fresh_dir("parts")?;
    let run = run_child(
        &mut partition_command(ctx, spec, input, &out),
        spec.engine == Engine::Dist2,
    )?;
    Ok((run, out))
}

/// The verifier's expectations of `spec` run on `input`.
pub fn expected<'a>(spec: &PartitionSpec, input: &Input, sorted_keys: &'a [u64]) -> Expected<'a> {
    Expected {
        sorted_input_keys: sorted_keys,
        num_vertices: input.num_vertices,
        k: spec.k,
        alpha: ALPHA,
    }
}

/// The workload whose output `spec`'s output must equal byte for byte, if any:
/// paged ≡ unpaged and dist ≡ `--threads N` are the repo's pinned identities.
fn identity_reference(spec: &PartitionSpec) -> Option<(PartitionSpec, &'static str)> {
    if spec.mem_budget_mb > 0 {
        let unpaged = PartitionSpec {
            mem_budget_mb: 0,
            ..*spec
        };
        return Some((unpaged, "the unpaged run"));
    }
    if spec.engine == Engine::Dist2 {
        let threads = PartitionSpec {
            engine: Engine::Threads2,
            ..*spec
        };
        return Some((threads, "--threads 2"));
    }
    None
}

/// Measure partition workload `w` end to end.
pub fn run_partition(
    ctx: &Ctx<'_>,
    w: &Workload,
    spec: &PartitionSpec,
) -> io::Result<EndToEndResult> {
    // Set-up runs once: nothing is cached between invocations, so one
    // sample per invocation means the same thing every time.
    let input_dir = ctx.scratch.fresh_dir("setup")?;
    let setup = Instant::now();
    let input = inputs::generate(w.graph, ctx.scale, ctx.seed, &input_dir)?;
    let orders = inputs::write_orders(&input, ctx.seed)?;
    let setup_s = setup.elapsed().as_secs_f64();
    let edges = input.num_edges();
    // Every order holds the same edges, so one sorted copy checks them all.
    let keys = verify::sorted_input_keys(&input.edges);
    let want = expected(spec, &input, &keys);

    let (mut wall, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    // Per order: the digest and the replication factor of its first output.
    let mut first: Vec<Option<(u64, f64)>> = vec![None; orders.len()];
    let started = Instant::now();
    // The reps rotate through the orders; every order is partitioned at
    // least once. Checking an order's first output happens between reps, off
    // their clocks, inside the run's `--seconds`.
    while wall.len() < ctx.min_reps.max(orders.len())
        || started.elapsed().as_secs_f64() < ctx.seconds
    {
        let order = wall.len() % orders.len();
        let (run, out) = partition_rep(ctx, spec, &orders[order])?;
        attempted += edges;
        wall.push(run.wall.as_secs_f64() * 1e9 / edges as f64);
        cpu.push(run.cpu_secs * 1e9 / edges as f64);
        rss.push(run.peak_rss_kb as f64 / 1024.0);
        if !run.success {
            failed += edges;
            problems.push(format!("rep {}: the child exited non-zero", wall.len()));
            std::fs::remove_dir_all(&out)?;
            continue;
        }
        let digest = verify::dir_digest(&out)?;
        match first[order] {
            None => {
                let checked = verify::check_partition_dir(&out, &want);
                failed += checked.failed;
                problems.extend(checked.problems);
                first[order] = Some((digest, checked.rf));
                if order == 0 {
                    if let Some((reference, what)) = identity_reference(spec) {
                        let (run, other) = partition_rep(ctx, &reference, &orders[0])?;
                        if !run.success || verify::dir_digest(&other)? != digest {
                            failed += edges;
                            problems
                                .push(format!("output is not byte-identical to that of {what}"));
                        }
                        std::fs::remove_dir_all(&other)?;
                    }
                }
            }
            // The engine is deterministic: a later rep on an order must
            // write what the first (fully verified) one wrote.
            Some((d, _)) => {
                if d != digest {
                    failed += edges;
                    problems.push(format!(
                        "rep {}: output differs from the first on its order",
                        wall.len()
                    ));
                }
            }
        }
        std::fs::remove_dir_all(&out)?;
    }
    std::fs::remove_dir_all(input_dir)?;

    // An order whose reps all failed has no replication factor (the failure
    // is counted above); a run without a single one reports 0.
    let mut rfs: Vec<f64> = first.iter().flatten().map(|&(_, rf)| rf).collect();
    if rfs.is_empty() {
        rfs.push(0.0);
    }
    Ok(EndToEndResult {
        attempted,
        failed,
        problems,
        wall_ns_per_edge: Measured::fastest_of(&wall),
        cpu_ns_per_edge: Measured::fastest_of(&cpu),
        peak_rss_mb: Measured::highest_of(&rss),
        rf: Measured::mean_of(&rfs),
        setup_s: Measured::median_of(&[setup_s]),
    })
}
