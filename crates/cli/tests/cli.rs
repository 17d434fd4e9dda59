//! End-to-end tests of the `tps` binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn tps() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tps"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tps-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = tps().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tps partition"));
    assert!(text.contains("2ps-l"));
}

#[test]
fn unknown_command_fails() {
    let out = tps().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn every_subcommand_prints_usage_on_help() {
    for cmd in [
        "partition",
        "dist",
        "serve",
        "lookup",
        "top",
        "generate",
        "convert",
        "info",
        "profile",
        "report",
    ] {
        for args in [
            vec![cmd, "--help"],
            vec![cmd, "-h"],
            vec![cmd, "--k", "4", "--help"],
        ] {
            let out = tps().args(&args).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "tps {args:?}: {stderr}");
            assert!(stderr.is_empty(), "tps {args:?}: {stderr}");
            let text = String::from_utf8_lossy(&out.stdout);
            assert!(text.contains("tps partition"), "tps {args:?}: {text}");
        }
    }
}

/// An output path under a regular file cannot be created; the error names
/// the path, not just the OS's reason.
#[test]
fn an_output_path_that_cannot_be_created_is_named_in_the_error() {
    let dir = tmpdir("badout");
    let bel = dir.join("g.bel");
    let out = tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel)
        .output()
        .unwrap();
    assert!(out.status.success());
    let blocked = bel.join("parts");
    let out = tps()
        .args(["partition", "--input"])
        .arg(&bel)
        .args(["--k", "4", "--out"])
        .arg(&blocked)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&*blocked.to_string_lossy()), "{stderr}");
    for (cmd, args) in [
        ("generate", vec!["--dataset", "ok", "--scale", "0.01"]),
        ("convert", vec!["--input", bel.to_str().unwrap()]),
    ] {
        let out = tps()
            .arg(cmd)
            .args(args)
            .arg("--out")
            .arg(bel.join("g2.bel"))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("g.bel/g2.bel"), "{cmd}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_info_partition_roundtrip() {
    let dir = tmpdir("roundtrip");
    let bel = dir.join("ok.bel");

    // generate
    let out = tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // info
    let out = tps().args(["info", "--input"]).arg(&bel).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("edges: 4000"), "{text}");

    // partition with output files
    let parts = dir.join("parts");
    let out = tps()
        .args(["partition", "--input"])
        .arg(&bel)
        .args(["--k", "4", "--out"])
        .arg(&parts)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("algorithm=2PS-L"), "{text}");
    assert!(text.contains("edges=4000"), "{text}");

    // The partition files together hold every edge exactly once.
    let mut total = 0u64;
    for i in 0..4 {
        let path = parts.join(format!("ok.part{i}.bel"));
        let f = tps_io::open_edge_stream(path, tps_io::ReaderBackend::Buffered).unwrap();
        total += f.len_hint().unwrap();
    }
    assert_eq!(total, 4000);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partition_each_algorithm_smoke() {
    let dir = tmpdir("algos");
    let bel = dir.join("it.bel");
    tps()
        .args(["generate", "--dataset", "it", "--scale", "0.005", "--out"])
        .arg(&bel)
        .status()
        .unwrap();
    for algo in [
        "2ps-l",
        "2ps-hdrf",
        "hdrf",
        "dbh",
        "grid",
        "random",
        "greedy",
        "ne",
        "sne",
        "dne",
        "hep-10",
        "multilevel",
    ] {
        let out = tps()
            .args(["partition", "--input"])
            .arg(&bel)
            .args(["--k", "4", "--algorithm", algo, "--quiet"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("rf="),
            "{algo}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn convert_and_reader_backends_roundtrip() {
    let dir = tmpdir("convert");
    let bel = dir.join("ok.bel");
    let bel2 = dir.join("ok.bel2");
    let back = dir.join("ok-back.bel");

    let out = tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // v1 -> v2 shrinks the file.
    let out = tps()
        .args(["convert", "--input"])
        .arg(&bel)
        .arg("--out")
        .arg(&bel2)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v1_size = std::fs::metadata(&bel).unwrap().len();
    let v2_size = std::fs::metadata(&bel2).unwrap().len();
    assert!(
        v2_size < v1_size,
        "v2 {v2_size} not smaller than v1 {v1_size}"
    );

    // v2 -> v1 restores the original bytes.
    let out = tps()
        .args(["convert", "--input"])
        .arg(&bel2)
        .arg("--out")
        .arg(&back)
        .args(["--to", "v1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&bel).unwrap(), std::fs::read(&back).unwrap());

    // The reader partitions both formats with identical metrics.
    let mut lines = Vec::new();
    for input in [&bel, &bel2] {
        let out = tps()
            .args(["partition", "--input"])
            .arg(input)
            .args(["--k", "4", "--reader", "buffered", "--quiet"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{input:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Strip the wall-clock field; everything else is deterministic.
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let metrics = stdout.split(" time_s=").next().unwrap().to_string();
        lines.push(metrics);
    }
    assert!(
        lines.iter().all(|l| l == &lines[0]),
        "metrics diverged: {lines:?}"
    );

    // A chunk gone bad fails a `--threads 2` run (whose workers retain the
    // ranges they decode) with exit code 2 and an error naming the file: a
    // range is retained by the cursor that verified it, never instead.
    let mut bytes = std::fs::read(&bel2).unwrap();
    bytes[100] ^= 0x40;
    std::fs::write(&bel2, &bytes).unwrap();
    let out = tps()
        .args(["partition", "--input"])
        .arg(&bel2)
        .args(["--k", "4", "--threads", "2", "--quiet"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("checksum"), "{stderr}");
    assert!(stderr.contains(bel2.to_str().unwrap()), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partition_threads_with_mem_budget_matches_unbudgeted() {
    let dir = tmpdir("budget");
    let bel = dir.join("ok.bel");
    let bel2 = dir.join("ok.bel2");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.5", "--out"])
        .arg(&bel)
        .status()
        .unwrap();
    tps()
        .args(["convert", "--input"])
        .arg(&bel)
        .arg("--out")
        .arg(&bel2)
        .status()
        .unwrap();

    let plain = dir.join("plain");
    let budgeted = dir.join("budgeted");
    let trace = dir.join("budgeted.jsonl");
    // Pin the thread count on both sides. A budget governs no decoded
    // edges: each worker still spills its 100 000-edge range, packed
    // (|V| = 8 192: 13-bit ids, 26 bits per edge, 325 008 B), whatever the
    // budget, and emit reads it back — so the files and the metrics line
    // must be identical.
    let budget = ["--mem-budget-mb", "1", "--trace", trace.to_str().unwrap()];
    let mut lines = Vec::new();
    for (out_dir, extra) in [(&plain, &[][..]), (&budgeted, &budget[..])] {
        let out = tps()
            .args(["partition", "--input"])
            .arg(&bel2)
            .args(["--k", "4", "--threads", "2", "--out"])
            .arg(out_dir)
            .args(extra)
            .args(["--quiet"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        lines.push(stdout.split(" time_s=").next().unwrap().to_string());
    }
    assert_eq!(lines[0], lines[1]);
    for i in 0..4 {
        let a = std::fs::read(plain.join(format!("ok.part{i}.bel"))).unwrap();
        let b = std::fs::read(budgeted.join(format!("ok.part{i}.bel"))).unwrap();
        assert_eq!(a, b, "partition {i} diverged under the memory budget");
    }
    // Both workers retained their range under the budget.
    let trace = std::fs::read_to_string(&trace).unwrap();
    assert!(trace.contains("\"io.v2.chunks_decoded\""), "{trace}");
    for counter in [
        "\"io.v2.ranges_retained\",\"v\":2}",
        "\"io.v2.retained_bytes\",\"v\":650016}",
    ] {
        assert!(trace.contains(counter), "{counter}: {trace}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partition_text_format() {
    let dir = tmpdir("text");
    let txt = dir.join("g.txt");
    std::fs::write(&txt, "# tiny graph\n0 1\n1 2\n2 3\n3 0\n").unwrap();
    let out = tps()
        .args(["partition", "--input"])
        .arg(&txt)
        .args(["--k", "2", "--format", "text", "--quiet"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("edges=4"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A paged run over an order with no locality says so after the first
/// clustering pass, and every paged run reports its fault rate; `--quiet`
/// silences both.
#[test]
fn thrashing_paged_run_explains_itself() {
    let dir = tmpdir("thrash");
    let txt = dir.join("scattered.txt");
    // 20 k edges between pseudo-random vertices out of 400 k: the 1.6 MB
    // vertex→cluster map alone is three times the 512 KiB page share of a
    // 1 MiB budget, so compacting cluster ids cannot make it fit.
    let mut x = 12345u64;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % 400_000
    };
    let text: String = (0..20_000)
        .map(|_| format!("{} {}\n", next(), next()))
        .collect();
    std::fs::write(&txt, text).unwrap();
    let run_at = |budget_mb: &str, quiet: bool| {
        let mut cmd = tps();
        cmd.args(["partition", "--input"]).arg(&txt).args([
            "--k",
            "4",
            "--format",
            "text",
            "--threads",
            "serial",
            "--mem-budget-mb",
            budget_mb,
        ]);
        if quiet {
            cmd.arg("--quiet");
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        stderr
    };
    let loud = run_at("1", false);
    assert!(loud.contains("note: cluster paging is thrashing"), "{loud}");
    assert!(loud.contains("Sort your input first"), "{loud}");
    assert!(loud.contains("faults/edge, paged to the end"), "{loud}");
    assert_eq!(
        run_at("1", true),
        "",
        "--quiet must silence the engine's notes"
    );
    // A 4 MiB page share holds the whole table flat after the first pass.
    let roomy = run_at("8", false);
    assert!(!roomy.contains("thrashing"), "{roomy}");
    assert!(roomy.contains("faults/edge, flat after pass 1"), "{roomy}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threads_one_matches_serial_bit_for_bit() {
    let dir = tmpdir("threads1");
    let bel = dir.join("ok.bel");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel)
        .status()
        .unwrap();

    let serial = dir.join("serial");
    let one = dir.join("one");
    for (out_dir, threads) in [(&serial, "serial"), (&one, "1")] {
        let out = tps()
            .args(["partition", "--input"])
            .arg(&bel)
            .args(["--k", "4", "--threads", threads, "--out"])
            .arg(out_dir)
            .args(["--quiet"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // One worker runs the exact serial code path: files must be identical.
    for i in 0..4 {
        let a = std::fs::read(serial.join(format!("ok.part{i}.bel"))).unwrap();
        let b = std::fs::read(one.join(format!("ok.part{i}.bel"))).unwrap();
        assert_eq!(a, b, "partition {i} diverged between serial and 1 thread");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A one-shard run over a TPSBEL2 file — `--threads serial` or `--threads
/// 1` — streams the file as one retained range: each chunk is decoded once,
/// by the first pass, and the run makes no discovery pass before it.
#[test]
fn one_shard_v2_runs_decode_every_chunk_once() {
    let dir = tmpdir("decode-once");
    let bel = dir.join("ok.bel");
    let bel2 = dir.join("ok.bel2");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel)
        .status()
        .unwrap();
    // 4 000 edges in chunks of 700: six chunks.
    let out = tps()
        .args(["convert", "--input"])
        .arg(&bel)
        .arg("--out")
        .arg(&bel2)
        .args(["--chunk-edges", "700"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for threads in ["serial", "1"] {
        let what = format!("--threads {threads}");
        let trace = dir.join(format!("t{threads}.jsonl"));
        let out = tps()
            .args(["partition", "--input"])
            .arg(&bel2)
            .args(["--k", "4", "--threads", threads])
            .args(["--quiet", "--trace"])
            .arg(&trace)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{what}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let trace = std::fs::read_to_string(&trace).unwrap();
        for counter in [
            "\"io.v2.chunks_decoded\",\"v\":6}",
            "\"io.v2.ranges_retained\",\"v\":1}",
        ] {
            assert!(trace.contains(counter), "{what}: {counter}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A TPSBEL2 run spills into `$TMPDIR`, the directory an operator points at
/// a disk for `--mem-budget-mb` to bound the run's RAM: there the range is
/// retained and nothing is left behind; where `$TMPDIR` cannot be written,
/// every pass decodes the file and the output does not change.
#[test]
fn v2_runs_spill_into_tmpdir() {
    let dir = tmpdir("spill-tmpdir");
    let bel = dir.join("ok.bel");
    let bel2 = dir.join("ok.bel2");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel)
        .status()
        .unwrap();
    // 4 000 edges in chunks of 700: six chunks.
    let out = tps()
        .args(["convert", "--input"])
        .arg(&bel)
        .arg("--out")
        .arg(&bel2)
        .args(["--chunk-edges", "700"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let spill_dir = dir.join("spill");
    std::fs::create_dir_all(&spill_dir).unwrap();
    // A directory below a regular file can be neither created nor written.
    let unwritable = bel.join("spill");
    let mut runs = Vec::new();
    for (tag, tmp) in [("disk", &spill_dir), ("unwritable", &unwritable)] {
        let parts = dir.join(format!("parts-{tag}"));
        let trace = dir.join(format!("{tag}.jsonl"));
        let out = tps()
            .env("TMPDIR", tmp)
            .args(["partition", "--input"])
            .arg(&bel2)
            .args(["--k", "4", "--threads", "serial", "--passes", "3"])
            .args(["--quiet", "--out"])
            .arg(&parts)
            .arg("--trace")
            .arg(&trace)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let files: Vec<Vec<u8>> = (0..4)
            .map(|i| std::fs::read(parts.join(format!("ok.part{i}.bel"))).unwrap())
            .collect();
        runs.push((files, std::fs::read_to_string(&trace).unwrap()));
    }
    assert_eq!(runs[0].0, runs[1].0, "the spill changed the output");
    let (spilled, unspilled) = (&runs[0].1, &runs[1].1);
    assert!(spilled.contains("\"io.v2.ranges_retained\",\"v\":1}"));
    assert!(spilled.contains("\"io.v2.chunks_decoded\",\"v\":6}"));
    assert!(!unspilled.contains("\"io.v2.ranges_retained\",\"v\":1}"));
    // Unretained, the file is decoded on every pass, not once.
    assert!(!unspilled.contains("\"io.v2.chunks_decoded\",\"v\":6}"));
    assert!(unspilled.contains("\"io.v2.chunks_decoded\""));
    // The spill was unlinked as it was created.
    assert_eq!(std::fs::read_dir(&spill_dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threads_parallel_is_deterministic_across_formats_and_readers() {
    let dir = tmpdir("threads-par");
    let bel = dir.join("ok.bel");
    let bel2 = dir.join("ok.bel2");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel)
        .status()
        .unwrap();
    tps()
        .args(["convert", "--input"])
        .arg(&bel)
        .arg("--out")
        .arg(&bel2)
        .status()
        .unwrap();

    // The same --threads value must give identical metrics regardless of
    // run or input format (ranges are edge-indexed).
    let mut lines = Vec::new();
    for input in [&bel, &bel, &bel2] {
        let out = tps()
            .args(["partition", "--input"])
            .arg(input)
            .args([
                "--k",
                "4",
                "--threads",
                "3",
                "--reader",
                "buffered",
                "--quiet",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{input:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        lines.push(stdout.split(" time_s=").next().unwrap().to_string());
    }
    assert!(
        lines.iter().all(|l| l == &lines[0]),
        "parallel metrics diverged: {lines:?}"
    );
    assert!(lines[0].contains("algorithm=2PS-L×3"), "{}", lines[0]);
    std::fs::remove_dir_all(&dir).ok();
}

/// The `edges=`, `rf=` and `alpha=` fields of a metrics line.
fn quality_fields(stdout: &str) -> Vec<String> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("algorithm="))
        .unwrap_or_else(|| panic!("no metrics line in {stdout:?}"));
    let fields: Vec<String> = line
        .split(' ')
        .filter(|f| ["edges=", "rf=", "alpha="].iter().any(|p| f.starts_with(p)))
        .map(String::from)
        .collect();
    assert_eq!(fields.len(), 3, "{line}");
    fields
}

#[test]
fn dist_local_two_workers_is_bit_identical_to_threads_two() {
    let dir = tmpdir("dist");
    let bel = dir.join("ok.bel");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.02", "--out"])
        .arg(&bel)
        .status()
        .unwrap();

    let t2 = dir.join("t2");
    let out = tps()
        .args(["partition", "--input"])
        .arg(&bel)
        .args(["--k", "8", "--threads", "2", "--out"])
        .arg(&t2)
        .arg("--quiet")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let t2_quality = quality_fields(&String::from_utf8_lossy(&out.stdout));

    // The acceptance contract: a 2-worker loopback-TCP distributed run on
    // the same shard map writes byte-identical partition files.
    let d2 = dir.join("d2");
    let out = tps()
        .args(["dist", "coordinator", "--input"])
        .arg(&bel)
        .args(["--k", "8", "--workers", "2", "--dist-local", "--out"])
        .arg(&d2)
        .arg("--quiet")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("algorithm=2PS-L×2w"), "{stdout}");
    // The coordinator's census counts what `--threads 2` counts.
    assert_eq!(quality_fields(&stdout), t2_quality, "{stdout}");
    for i in 0..8 {
        let a = std::fs::read(t2.join(format!("ok.part{i}.bel"))).unwrap();
        let b = std::fs::read(d2.join(format!("ok.part{i}.bel"))).unwrap();
        assert_eq!(a, b, "partition {i} diverged between --threads 2 and dist");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dist_local_recovers_from_a_killed_worker_bit_identically() {
    let dir = tmpdir("dist-chaos");
    let bel = dir.join("ok.bel");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.02", "--out"])
        .arg(&bel)
        .status()
        .unwrap();

    let t2 = dir.join("t2");
    assert!(tps()
        .args(["partition", "--input"])
        .arg(&bel)
        .args(["--k", "8", "--threads", "2", "--out"])
        .arg(&t2)
        .arg("--quiet")
        .status()
        .unwrap()
        .success());

    // One worker hard-exits right after learning the merged degrees (mid
    // phase 1); the standby takes over and the recovered output must still
    // be byte-identical. A second case uses the respawn path instead.
    for (tag, extra) in [("standby", vec!["--standby", "1"]), ("respawn", vec![])] {
        let out_dir = dir.join(tag);
        let mut cmd = tps();
        cmd.args(["dist", "coordinator", "--input"])
            .arg(&bel)
            .args(["--k", "8", "--workers", "2", "--dist-local"])
            .args(["--max-retries", "2", "--kill-worker", "0"])
            .args(["--kill-at", "recv:globals", "--out"])
            .arg(&out_dir)
            .args(&extra);
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{tag}: {stderr}");
        // The fault must actually have fired (spawn index 0 deterministically
        // holds shard 0, so recv:globals always triggers): one re-issue.
        assert!(
            stderr.contains("counter worker_retries: 1"),
            "{tag}: kill never fired\n{stderr}"
        );
        for i in 0..8 {
            let a = std::fs::read(t2.join(format!("ok.part{i}.bel"))).unwrap();
            let b = std::fs::read(out_dir.join(format!("ok.part{i}.bel"))).unwrap();
            assert_eq!(a, b, "{tag}: partition {i} diverged after worker kill");
        }
    }

    // A bad kill spec is rejected before anything is spawned.
    let out = tps()
        .args(["dist", "coordinator", "--input"])
        .arg(&bel)
        .args([
            "--k",
            "4",
            "--dist-local",
            "--kill-worker",
            "0",
            "--kill-at",
            "whenever",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("kill spec"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The coordinator keeps its recovery frames in an unlinked spill file in
/// `$TMPDIR`: a worker killed in phase 2 is replaced from them, and
/// nothing is left there after the run. Where `$TMPDIR` cannot be
/// written, the frames stay in memory, and the recovered output is the
/// same bytes.
#[test]
fn dist_recovery_frames_spill_into_tmpdir() {
    let dir = tmpdir("dist-recovery-spill");
    let bel = dir.join("ok.bel");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.02", "--out"])
        .arg(&bel)
        .status()
        .unwrap();
    let t2 = dir.join("t2");
    assert!(tps()
        .args(["partition", "--input"])
        .arg(&bel)
        .args(["--k", "8", "--threads", "2", "--quiet", "--out"])
        .arg(&t2)
        .status()
        .unwrap()
        .success());
    let spill_dir = dir.join("spill");
    std::fs::create_dir_all(&spill_dir).unwrap();
    // A directory below a regular file can be neither created nor written.
    let unwritable = bel.join("spill");
    for (tag, tmp) in [("disk", &spill_dir), ("unwritable", &unwritable)] {
        let out_dir = dir.join(format!("parts-{tag}"));
        let trace = dir.join(format!("{tag}.jsonl"));
        // Worker 1 dies once it holds the merged replication chunk: its
        // replacement is caught up from `Globals`, `Plan` and that chunk.
        let out = tps()
            .env("TMPDIR", tmp)
            .args(["dist", "coordinator", "--input"])
            .arg(&bel)
            .args(["--k", "8", "--workers", "2", "--dist-local"])
            .args(["--max-retries", "2", "--kill-worker", "1"])
            .args(["--kill-at", "recv:mergedreplicationchunk", "--out"])
            .arg(&out_dir)
            .arg("--trace")
            .arg(&trace)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{tag}: {stderr}");
        assert!(
            stderr.contains("counter worker_retries: 1"),
            "{tag}: kill never fired\n{stderr}"
        );
        for i in 0..8 {
            let a = std::fs::read(t2.join(format!("ok.part{i}.bel"))).unwrap();
            let b = std::fs::read(out_dir.join(format!("ok.part{i}.bel"))).unwrap();
            assert_eq!(a, b, "{tag}: partition {i} diverged after the catch-up");
        }
        let trace = std::fs::read_to_string(&trace).unwrap();
        assert_eq!(
            trace.contains("\"dist.recovery.spilled_bytes\""),
            tag == "disk",
            "{tag}"
        );
    }
    // The spill was unlinked as it was created.
    assert_eq!(std::fs::read_dir(&spill_dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dist_rejects_non_two_phase_algorithms_and_bad_worker_counts() {
    let out = tps()
        .args([
            "dist",
            "coordinator",
            "--input",
            "/nonexistent.bel",
            "--k",
            "4",
            "--algorithm",
            "hdrf",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("2ps-l"));

    let out = tps()
        .args([
            "dist",
            "coordinator",
            "--input",
            "/nonexistent.bel",
            "--k",
            "4",
            "--workers",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workers"));

    let out = tps().args(["dist", "frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn threads_flag_rejects_garbage() {
    let out = tps()
        .args([
            "partition",
            "--input",
            "/nonexistent.bel",
            "--k",
            "4",
            "--threads",
            "many",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));
}

#[test]
fn missing_flags_error_cleanly() {
    let out = tps().args(["partition", "--k", "4"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));

    let out = tps()
        .args(["generate", "--dataset", "nope", "--out", "/tmp/x"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// The `rf=` / `alpha=` a run prints come from the engine's own end state
/// (no shadow tracker watches the assignments in a release build), so the
/// independent check is the output itself: read the partition files back
/// and recount replicas and loads from scratch.
#[test]
fn printed_quality_equals_quality_recomputed_from_the_written_files() {
    use std::collections::HashSet;

    let dir = tmpdir("quality");
    let bel = dir.join("ok.bel");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.05", "--out"])
        .arg(&bel)
        .status()
        .unwrap();
    let modes: [&[&str]; 3] = [
        &["--threads", "serial"],
        &["--threads", "2"],
        &["--threads", "serial", "--mem-budget-mb", "5"],
    ];
    for k in [32u32, 256] {
        for mode in modes {
            let parts = dir.join(format!("parts-{k}-{}", mode.join("")));
            let out = tps()
                .args(["partition", "--input"])
                .arg(&bel)
                .args(["--k", &k.to_string(), "--quiet", "--out"])
                .arg(&parts)
                .args(mode)
                .output()
                .unwrap();
            let line = String::from_utf8_lossy(&out.stdout).to_string();
            assert!(out.status.success(), "{line}");

            let loaded = tps_io::load_partition_dir(&parts).unwrap();
            assert_eq!(loaded.k, k);
            let mut replicas = HashSet::new();
            let mut covered = HashSet::new();
            for &(e, p) in &loaded.assignments {
                for v in [e.src, e.dst] {
                    replicas.insert((v, p));
                    covered.insert(v);
                }
            }
            let rf = replicas.len() as f64 / covered.len() as f64;
            let max_load = *loaded.part_counts.iter().max().unwrap();
            let alpha = max_load as f64 / (loaded.num_edges() as f64 / k as f64);
            let want = format!("edges={} rf={rf:.4} alpha={alpha:.4} ", loaded.num_edges());
            assert!(
                line.contains(&want),
                "k={k} {mode:?}: want {want:?} in {line:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `k` above the open-file limit used to print a bare `os error 24` and
/// leave the files created so far behind. The file sink now says which
/// file of how many failed and which limit to raise, and cleans up.
#[cfg(unix)]
#[test]
fn fd_exhaustion_is_a_precise_error_and_leaves_no_debris() {
    let dir = tmpdir("emfile");
    let bel = dir.join("ok.bel");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel)
        .status()
        .unwrap();
    let parts = dir.join("parts");
    // The soft limit is lowered in a shell that then execs `tps`.
    let out = Command::new("sh")
        .args(["-c", "ulimit -n 64 && exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_tps"))
        .args(["partition", "--input"])
        .arg(&bel)
        .args(["--k", "128", "--threads", "serial", "--quiet", "--out"])
        .arg(&parts)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("of 128"), "{err}");
    assert!(err.contains(".bel"), "{err}");
    assert!(
        err.contains("RLIMIT_NOFILE") && err.contains("ulimit -n"),
        "{err}"
    );
    assert_eq!(std::fs::read_dir(&parts).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The spill budget flag is gone from all three commands that took it: a
/// script that still sets it stops with the parser's message rather than
/// running unbounded.
#[test]
fn removed_spill_flag_is_rejected() {
    // Spelled in two parts so a search for the flag finds no live use.
    let flag = format!("--{}-budget-mb", "spill");
    for cmd in [
        &["partition", "--input", "g.bel", "--k", "4"][..],
        &["dist", "coordinator", "--input", "g.bel", "--k", "4"][..],
        &["dist", "worker", "--connect", "127.0.0.1:1"][..],
    ] {
        let out = tps().args(cmd).arg(&flag).arg("1").output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd:?}: {err}");
        assert!(
            err.contains(&format!("unknown flag {flag} (valid: ")),
            "{cmd:?}: {err}"
        );
    }
}

/// A file is read one way: `--reader` accepts `buffered` only, and a
/// script that still asks for a deleted reader stops with exit 2 and a
/// message naming the one that is left, on every command that takes it.
#[test]
fn removed_readers_are_rejected() {
    for reader in ["mmap", "prefetch"] {
        for cmd in [
            &["partition", "--input", "g.bel", "--k", "4"][..],
            &["dist", "coordinator", "--input", "g.bel", "--k", "4"][..],
            &["info", "--input", "g.bel"][..],
        ] {
            let out = tps().args(cmd).args(["--reader", reader]).output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{cmd:?} {reader}: {err}");
            assert!(
                err.contains("--reader") && err.contains("buffered"),
                "{cmd:?} {reader}: {err}"
            );
        }
    }
}

/// Vertex ids are 32 bits, so a header |V| above 2³² is corrupt: `info`,
/// `partition` (every mode) and `convert` refuse it with exit 2 and the
/// reason, in both formats, before anything is sized by it — never an
/// allocation failure (exit 134).
#[test]
fn a_header_vertex_count_past_32_bit_ids_is_an_input_error() {
    let dir = tmpdir("huge-v");
    let bel = dir.join("g.bel");
    let bel2 = dir.join("g.bel2");
    // A 32-byte TPSBEL1 file with one edge and the largest valid |V|, 2^32,
    // converts; then both headers are patched to |V| = 2^40 (bytes 8..16
    // in either format).
    let mut bytes = b"TPSBEL1\0".to_vec();
    bytes.extend_from_slice(&(1u64 << 32).to_le_bytes());
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&[0, 0, 0, 0, 1, 0, 0, 0]);
    std::fs::write(&bel, &bytes).unwrap();
    let out = tps()
        .args(["convert", "--input"])
        .arg(&bel)
        .arg("--out")
        .arg(&bel2)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for path in [&bel, &bel2] {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }
    let converted = dir.join("converted");
    let converted = converted.to_str().unwrap();
    for input in [&bel, &bel2] {
        let runs: [&[&str]; 5] = [
            &["info"],
            &["partition", "--k", "4", "--threads", "serial"],
            &["partition", "--k", "4", "--threads", "2"],
            &[
                "partition",
                "--k",
                "4",
                "--threads",
                "serial",
                "--mem-budget-mb",
                "8",
            ],
            &["convert", "--out", converted],
        ];
        for run in runs {
            let out = tps()
                .args(&run[..1])
                .arg("--input")
                .arg(input)
                .args(&run[1..])
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{input:?} {run:?}: {err}");
            assert!(err.contains("2^32"), "{input:?} {run:?}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Options no run can execute are input errors — exit 2 with the reason —
/// not a constructor's panic (`--passes 0`, in every mode) or a silently
/// wrapped budget (2⁴⁴ MiB of `--mem-budget-mb` wraps to none, 2⁴⁴ + 1 to
/// 1 MiB).
#[test]
fn unrunnable_options_are_input_errors() {
    let dir = tmpdir("unrunnable");
    let bel = dir.join("ok.bel");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel)
        .status()
        .unwrap();
    let (no_pass, wraps) = ("need at least one clustering pass", "MiB overflows");
    for (flags, reason) in [
        ("--passes 0 --threads serial", no_pass),
        ("--passes 0 --threads 1", no_pass),
        ("--passes 0 --threads 2", no_pass),
        ("--mem-budget-mb 17592186044416", wraps),
        ("--mem-budget-mb 17592186044417", wraps),
    ] {
        let out = tps()
            .args(["partition", "--input"])
            .arg(&bel)
            .args(["--k", "4"])
            .args(flags.split(' '))
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags}: {err}");
        assert!(err.contains(reason), "{flags}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An `--alpha` below 1, infinite or not a number is an input error in
/// every mode — exit 2 with one `error:` line naming the flag — not a
/// constructor's panic, and not a run with no balance cap.
#[test]
fn alpha_below_one_or_nan_is_an_input_error() {
    let dir = tmpdir("alpha");
    let bel = dir.join("ok.bel");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel)
        .status()
        .unwrap();
    for (cmd, alpha) in [
        ("partition --threads serial", "0.5"),
        ("partition --threads 2", "nan"),
        ("partition --algorithm hdrf", "0.5"),
        ("dist coordinator --dist-local --workers 1", "0.5"),
        ("partition --threads serial", "inf"),
        ("partition --threads 2", "-inf"),
        ("dist coordinator --dist-local --workers 1", "inf"),
    ] {
        let out = tps()
            .args(cmd.split(' '))
            .arg("--input")
            .arg(&bel)
            .args(["--k", "4", "--alpha", alpha])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd} --alpha {alpha}: {err}");
        assert_eq!(err.lines().count(), 1, "{cmd} --alpha {alpha}: {err}");
        assert!(
            err.starts_with("error: --alpha"),
            "{cmd} --alpha {alpha}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--scale` that is not a positive finite number, or whose vertex ids
/// would leave the 32-bit id space, is an input error of `tps generate`:
/// exit 2 with one `error:` line naming the flag, before anything is
/// generated or written.
#[test]
fn generate_refuses_a_scale_it_cannot_honour() {
    let dir = tmpdir("scale");
    let out_path = dir.join("g.bel");
    for (dataset, scale) in [
        ("ok", "0"),
        ("ok", "-1"),
        ("tw", "nan"),
        ("gsh", "inf"),
        ("ok", "1e30"),
        ("gsh", "1e30"),
    ] {
        let out = tps()
            .args(["generate", "--dataset", dataset, "--scale", scale, "--out"])
            .arg(&out_path)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        let what = format!("{dataset} --scale {scale}: {err}");
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert_eq!(err.lines().count(), 1, "{what}");
        assert!(err.starts_with("error: --scale"), "{what}");
        assert!(!err.contains("panicked"), "{what}");
        assert!(!out_path.exists(), "{what}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `tps report` of a file with no trace record (empty, or one junk line)
/// is an error naming the file; a real trace whose last line was torn
/// still renders, with its warning.
#[test]
fn report_refuses_a_file_that_is_not_a_trace() {
    let dir = tmpdir("report");
    let bel = dir.join("ok.bel");
    let trace = dir.join("t.jsonl");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel)
        .status()
        .unwrap();
    let run = tps()
        .args(["partition", "--threads", "serial", "--k", "4", "--quiet"])
        .arg("--input")
        .arg(&bel)
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(run.status.success());
    let text = std::fs::read_to_string(&trace).unwrap();
    let torn = dir.join("torn.jsonl");
    std::fs::write(&torn, &text[..text.trim_end().len() - 3]).unwrap();
    let out = tps().arg("report").arg(&torn).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("warning: trace file was truncated"));

    for (name, body) in [("empty.jsonl", ""), ("junk.jsonl", "not a trace\n")] {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        let out = tps().arg("report").arg(&path).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {err}");
        assert_eq!(err.lines().count(), 1, "{name}: {err}");
        assert!(err.starts_with("error: "), "{name}: {err}");
        assert!(err.contains(name), "{name}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--k` whose tables cannot be allocated is an input error in every
/// mode — exit 2 with an error naming `k`, not an allocation abort (exit
/// 134). The run gets a 4 GB address space, so a 34 GB load ledger, or
/// the 137 GB replica matrix of a debug build's quality sink, fails to
/// allocate on any machine.
#[test]
fn a_k_whose_tables_cannot_be_allocated_is_an_input_error() {
    let dir = tmpdir("huge-k");
    let bel = dir.join("ok.bel");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel)
        .status()
        .unwrap();
    for cmd in [
        "partition --threads serial",
        "partition --threads 1",
        "partition --threads serial --mem-budget-mb 4",
        "partition --threads 2",
        "partition --algorithm 2ps-hdrf --threads 1",
        "dist coordinator --dist-local --workers 2",
    ] {
        let out = Command::new("sh")
            .args(["-c", "ulimit -v 4000000; exec \"$@\"", "sh"])
            .arg(env!("CARGO_BIN_EXE_tps"))
            .args(cmd.split(' '))
            .arg("--input")
            .arg(&bel)
            .args(["--k", "4294967295", "--quiet"])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {err}");
        // One error, the input's: a dist run dismisses its workers, which
        // exit without a word of their own.
        let errors: Vec<&str> = err.lines().filter(|l| l.starts_with("error: ")).collect();
        assert_eq!(errors.len(), 1, "{cmd}: {err}");
        assert!(errors[0].contains("k = 4294967295"), "{cmd}: {err}");
        assert!(!err.contains("memory allocation"), "{cmd}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closed stdout (`tps info … | head -0`) ends the command
/// quietly with exit 0: no panic, no message. The pipe's read end is gone
/// before `tps` starts, so every write to it fails.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let dir = tmpdir("closed-stdout");
    let bel = dir.join("ok.bel");
    let closed = || {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        writer
    };
    let mut generate = tps();
    generate
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel);
    let mut info = tps();
    info.args(["info", "--input"]).arg(&bel);
    let mut help = tps();
    help.arg("help");
    for (name, cmd) in [("generate", generate), ("info", info), ("help", help)] {
        let mut cmd = cmd;
        let out = cmd.stdout(closed()).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{name}: {err}");
        assert!(err.is_empty(), "{name}: {err}");
    }
    assert!(bel.exists(), "generate wrote its file before printing");
    std::fs::remove_dir_all(&dir).ok();
}

/// A spawned `tps serve`, killed if the test fails before shutting it down.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Run `tps lookup` against `addr` and return its stdout.
fn lookup(addr: &str, args: &[&str]) -> String {
    let out = tps()
        .args(["lookup", "--connect", addr])
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn save_state_over_the_restored_snapshot_still_restores() {
    let dir = tmpdir("save-state");
    let bel = dir.join("ok.bel");
    let parts = dir.join("parts");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel)
        .status()
        .unwrap();
    let status = tps()
        .args(["partition", "--input"])
        .arg(&bel)
        .args(["--k", "4", "--quiet", "--out"])
        .arg(&parts)
        .status()
        .unwrap();
    assert!(status.success());

    // The restart loop restores from and saves to the same file: each
    // shutdown replaces the snapshot the daemon booted from.
    let snap = dir.join("snap.bin");
    let wait_addr = |path: &Path| {
        for _ in 0..500 {
            if let Ok(addr) = std::fs::read_to_string(path) {
                return addr.trim().to_string();
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        panic!("serve never wrote {}", path.display());
    };
    for round in 0..3 {
        let addr_file = dir.join(format!("addr{round}"));
        let mut daemon = Daemon(
            tps()
                .args(["serve", "--quiet", "--parts"])
                .arg(&parts)
                .arg("--addr-file")
                .arg(&addr_file)
                .arg("--state")
                .arg(&snap)
                .arg("--save-state")
                .arg(&snap)
                .stdout(Stdio::null())
                .spawn()
                .unwrap(),
        );
        let addr = wait_addr(&addr_file);
        if round == 0 {
            lookup(&addr, &["--insert", "900000,900001"]);
        }
        let answer = lookup(&addr, &["--edge", "900000,900001"]);
        assert!(!answer.contains("not found"), "round {round}: {answer}");
        lookup(&addr, &["--shutdown"]);
        assert!(daemon.0.wait().unwrap().success());
        assert!(snap.exists());
        assert!(!dir.join("snap.bin.tmp").exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A daemon whose stdout has no reader still serves: its banner lines are
/// dropped, not taken for a reason to stop, and it exits 0 only after a
/// client shut it down.
#[test]
fn serve_without_a_reader_of_its_stdout_still_serves() {
    let dir = tmpdir("serve-closed-stdout");
    let bel = dir.join("ok.bel");
    let parts = dir.join("parts");
    tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.01", "--out"])
        .arg(&bel)
        .status()
        .unwrap();
    let status = tps()
        .args(["partition", "--input"])
        .arg(&bel)
        .args(["--k", "4", "--quiet", "--out"])
        .arg(&parts)
        .status()
        .unwrap();
    assert!(status.success());
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let addr_file = dir.join("addr");
    let mut daemon = Daemon(
        tps()
            .args(["serve", "--quiet", "--parts"])
            .arg(&parts)
            .arg("--addr-file")
            .arg(&addr_file)
            .stdout(writer)
            .spawn()
            .unwrap(),
    );
    let addr = (0..500)
        .find_map(|_| {
            let addr = std::fs::read_to_string(&addr_file).ok();
            if addr.is_none() {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            addr
        })
        .expect("serve never wrote its address");
    assert!(lookup(addr.trim(), &["--stats"]).contains("k: 4"));
    lookup(addr.trim(), &["--shutdown"]);
    assert!(daemon.0.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}
