//! Golden digests of multi-shard partition output.
//!
//! The other byte-identity gates compare modes with each other (`--threads
//! 1` with serial, dist with `--threads N`, paged with unpaged); these pin
//! what `--threads N > 1` and `tps dist` write, so a change to how shards
//! remember or emit their decisions must reproduce the files exactly. The
//! digest of a run covers every partition file, in partition order.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tps() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tps"))
}

/// 64-bit FNV-1a over each file's name and bytes, for `stem.part0.bel` up to
/// `stem.part{k-1}.bel`.
fn dir_digest(dir: &Path, stem: &str, k: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..k {
        let name = format!("{stem}.part{i}.bel");
        let bytes = std::fs::read(dir.join(&name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        for &b in name.as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The fixed input: the com-orkut stand-in at scale 0.1 (2 048 vertices,
/// 40 000 edges — several sink batches per shard, and at k = 300 a
/// quota of about 70 edges per partition and shard, so many fallbacks).
fn input(dir: &Path) -> PathBuf {
    let bel = dir.join("ok.bel");
    let out = tps()
        .args(["generate", "--dataset", "ok", "--scale", "0.1", "--out"])
        .arg(&bel)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    bel
}

/// Run `tps ARGS --input BEL --k K --out DIR --quiet` and digest its output.
fn digest_of(args: &[&str], bel: &Path, k: u32, out_dir: &Path) -> u64 {
    let out = tps()
        .args(args)
        .arg("--input")
        .arg(bel)
        .args(["--k", &k.to_string(), "--out"])
        .arg(out_dir)
        .arg("--quiet")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "tps {args:?} --k {k}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir_digest(out_dir, "ok", k)
}

#[test]
fn multi_shard_partition_files_match_their_golden_digests() {
    let dir = std::env::temp_dir().join(format!("tps-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bel = input(&dir);
    let threads = |t: &'static str| vec!["partition", "--threads", t];
    let cases: Vec<(&str, Vec<&str>, u32, u64)> = vec![
        ("threads 2, k 32", threads("2"), 32, 0xe6d3_719d_a257_5a4c),
        ("threads 2, k 256", threads("2"), 256, 0xa62f_13c8_3591_4b70),
        ("threads 2, k 300", threads("2"), 300, 0x0709_8379_d031_8f94),
        ("threads 3, k 32", threads("3"), 32, 0xb5c7_1c2e_c876_7dec),
        ("threads 3, k 256", threads("3"), 256, 0xa497_f2a2_53b1_5f70),
        ("threads 3, k 300", threads("3"), 300, 0xa018_31db_5529_43f6),
        (
            "dist, 2 local workers, k 32",
            vec!["dist", "coordinator", "--workers", "2", "--dist-local"],
            32,
            0xe6d3_719d_a257_5a4c,
        ),
        (
            "2ps-hdrf, threads 2, k 32",
            vec!["partition", "--algorithm", "2ps-hdrf", "--threads", "2"],
            32,
            0xe222_e384_7fba_11d4,
        ),
    ];
    let mut wrong = Vec::new();
    for (i, (name, args, k, want)) in cases.iter().enumerate() {
        let got = digest_of(args, &bel, *k, &dir.join(format!("run{i}")));
        if got != *want {
            wrong.push(format!("{name}: {got:#018x}, pinned {want:#018x}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(wrong.is_empty(), "digests differ:\n{}", wrong.join("\n"));
}
