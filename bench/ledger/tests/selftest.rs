//! The ledger's self-tests: tiny graphs (`--scale 0.02`), the real `tps`
//! binary, the same code paths `run.sh` drives.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use ledger::e2e::{partition_rep, run_partition, Ctx, EndToEndResult};
use ledger::inputs::{self, Scratch};
use ledger::layers::trace;
use ledger::report;
use ledger::serve::run_serve;
use ledger::verify;
use ledger::workload::{
    self, GraphKind, Kind, Workload, BY_HAND, END_TO_END, PER_LAYER, SERVE_LAYERS, WORKLOADS,
};
use tps_bench::gate::{parse_json, Json};

fn ledger_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> PathBuf {
    ledger_dir().join("../..").canonicalize().unwrap()
}

/// The `tps` binary under test, built once (a no-op after `cargo build
/// --release` at the root, which tier-1 runs anyway).
fn tps() -> &'static Path {
    static TPS: OnceLock<PathBuf> = OnceLock::new();
    TPS.get_or_init(|| {
        let root = repo_root();
        let target = root.join("target");
        let status = std::process::Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "-p",
                "tps-cli",
                "--bin",
                "tps",
            ])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building tps failed");
        // The engine's page store, when a test calls it in process, goes to
        // std::env::temp_dir(); keep that inside the ledger's own out/.
        let tmp = ledger_dir().join("out").join("test-tmp");
        std::fs::create_dir_all(&tmp).unwrap();
        std::env::set_var("TMPDIR", &tmp);
        target.join("release").join("tps")
    })
}

fn ctx<'a>(scratch: &'a Scratch, seed: u64, scale: f64) -> Ctx<'a> {
    Ctx {
        tps: tps(),
        scratch,
        seed,
        seconds: 0.2,
        scale,
        min_reps: 2,
    }
}

fn untraced(ctx: &Ctx<'_>, w: &Workload) -> EndToEndResult {
    match w.kind {
        Kind::Partition(spec) => run_partition(ctx, w, &spec).unwrap(),
        Kind::Serve(traffic) => run_serve(ctx, w, traffic, false).unwrap().0,
    }
}

/// The members of a JSON object, in file order.
fn members(j: &Json) -> &[(String, Json)] {
    match j {
        Json::Obj(members) => members,
        other => panic!("not an object: {other}"),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

#[test]
fn benchmark_json_repeats_the_ledgers_definition() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    assert!(text.len() <= 64 << 10);
    let b = parse_json(&text).unwrap();
    let keys: Vec<&str> = members(&b).iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strs = |v: &Json| -> Vec<String> {
        v.as_arr()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(
        strs(b.get("command").unwrap()),
        ["bash", "bench/ledger/run.sh"]
    );
    assert_eq!(strs(b.get("paths").unwrap()), ["bench/ledger"]);
    let seconds = b.get("run_seconds").unwrap().as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let field = |o: &Json, k: &str| o.get(k).unwrap().as_str().unwrap().to_string();
    let workloads = b.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(field(j, "name"), w.name);
        assert_eq!(field(j, "why"), w.why);
        assert!(valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
    }

    let e2e = b.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(field(j, "name"), m.name);
        assert_eq!(field(j, "unit"), m.unit);
        assert_eq!(field(j, "better"), "lower");
        assert_eq!(j.get("bound").unwrap().as_f64().unwrap(), m.bound);
        assert!(valid_name(m.name) && valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!(setup.unit, "s");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let layers = b.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (j, &(name, unit, better)) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(
            (field(j, "name"), field(j, "unit"), field(j, "better")),
            (name.into(), unit.into(), better.into())
        );
        assert!(valid_name(name) && valid_unit(unit) && ["higher", "lower"].contains(&better));
    }
    // The names the ledger uses beyond the benchmark's collide with none of it.
    let mut names: Vec<&str> = workload::all()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().chain(&SERVE_LAYERS).map(|l| l.0))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let scratch = Scratch::create(&ledger_dir()).unwrap();
    let ctx = ctx(&scratch, 1, 0.02);
    for w in workload::all() {
        let r = untraced(&ctx, w);
        assert_eq!(r.failed, 0, "{}: {:?}", w.name, r.problems);
        let line = report::contract_line(r.attempted, r.failed, report::end_to_end_metrics(&r));
        assert!(!line.contains('\n'));
        let j = parse_json(&line).unwrap();
        let keys: Vec<&str> = members(&j).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert!(j.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let metrics = members(j.get("metrics").unwrap());
        assert_eq!(metrics.len(), END_TO_END.len());
        let mut values = Vec::new();
        for ((name, m), spec) in metrics.iter().zip(&END_TO_END) {
            assert_eq!(name, spec.name, "{}", w.name);
            assert_eq!(m.get("unit").unwrap().as_str(), Some(spec.unit));
            let v = m.get("value").unwrap().as_f64().unwrap();
            assert!(v.is_finite() && v > 0.0, "{} {name} = {v}", w.name);
            values.push(v);
        }
        // No metric is another under a second name: each comes from its own
        // clock or count, so no two read the same.
        for i in 0..values.len() {
            for j in i + 1..values.len() {
                assert_ne!(
                    values[i], values[j],
                    "{}: {} aliases {}",
                    w.name, END_TO_END[i].name, END_TO_END[j].name
                );
            }
        }
    }
}

#[test]
fn the_seed_changes_the_graph_and_rf() {
    let scratch = Scratch::create(&ledger_dir()).unwrap();
    let w = workload::find("social_serial").unwrap();
    let (a, b) = (
        untraced(&ctx(&scratch, 1, 0.02), w),
        untraced(&ctx(&scratch, 2, 0.02), w),
    );
    assert_eq!((a.failed, b.failed), (0, 0));
    assert_ne!(a.rf.value, b.rf.value);
    let dir = scratch.fresh_dir("graphs").unwrap();
    for kind in [GraphKind::Social, GraphKind::Web] {
        let one = inputs::generate(kind, 0.02, 1, &dir).unwrap();
        let two = inputs::generate(kind, 0.02, 2, &dir).unwrap();
        let again = inputs::generate(kind, 0.02, 1, &dir).unwrap();
        assert_ne!(one.edges, two.edges);
        assert_eq!(one.edges, again.edges, "the same seed gives the same input");
    }
}

#[test]
fn a_corrupted_partition_file_fails_verification() {
    let scratch = Scratch::create(&ledger_dir()).unwrap();
    let ctx = ctx(&scratch, 1, 0.02);
    let w = workload::find("web_serial").unwrap();
    let Kind::Partition(spec) = w.kind else {
        unreachable!()
    };
    let dir = scratch.fresh_dir("input").unwrap();
    let input = inputs::generate(w.graph, ctx.scale, ctx.seed, &dir).unwrap();
    let keys = verify::sorted_input_keys(&input.edges);
    let want = ledger::e2e::expected(&spec, &input, &keys);
    let (run, out) = partition_rep(&ctx, &spec, &input.path).unwrap();
    assert!(run.success);
    let clean = verify::check_partition_dir(&out, &want);
    assert_eq!(clean.failed, 0, "{:?}", clean.problems);
    assert!(clean.rf >= 1.0);
    let digest = verify::dir_digest(&out).unwrap();

    // One edge record overwritten with another vertex pair: one edge goes
    // missing and one that is not of the input appears.
    let part = out.join("web.part0.bel");
    let mut bytes = std::fs::read(&part).unwrap();
    let n = bytes.len();
    bytes[n - 8..].copy_from_slice(&[0xff, 0xff, 0x00, 0x00, 0xfe, 0xff, 0x00, 0x00]);
    std::fs::write(&part, &bytes).unwrap();
    let flipped = verify::check_partition_dir(&out, &want);
    assert!(flipped.failed >= 1, "{:?}", flipped.problems);
    assert_ne!(verify::dir_digest(&out).unwrap(), digest);

    // A partition file gone: the directory no longer loads, everything fails.
    std::fs::remove_file(&part).unwrap();
    let gone = verify::check_partition_dir(&out, &want);
    assert!(gone.failed >= input.num_edges());
}

#[test]
fn the_same_seed_reproduces_counts_to_the_last_digit() {
    let scratch = Scratch::create(&ledger_dir()).unwrap();
    // Large enough that the 2.5 MB frame pool does not hold the cluster state.
    let ctx = ctx(&scratch, 7, 0.3);
    let w = workload::find("web_paged").unwrap();
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let e2e = untraced(&ctx, w);
            let traced = trace(&ctx, w).unwrap();
            assert_eq!(
                (e2e.failed, traced.failed),
                (0, 0),
                "{:?} {:?}",
                e2e.problems,
                traced.problems
            );
            (e2e.rf.value, traced.layers)
        })
        .collect();
    assert_eq!(runs[0].0, runs[1].0, "rf");
    for name in [
        "io.stream_passes",
        "clustering.paged.faults_per_edge",
        "clustering.paged.writebacks_per_edge",
        "core.paging.faults_per_edge",
        "clustering.clusters",
    ] {
        assert_eq!(runs[0].1[name], runs[1].1[name], "{name}");
    }
    assert_eq!(
        runs[0].1["io.stream_passes"], 6.0,
        "3 + 3 clustering passes"
    );
    assert!(runs[0].1["clustering.paged.faults_per_edge"] > 0.0);
    // Every name a traced pass of the benchmark sets is one BENCHMARK.json lists.
    for name in runs[0].1.keys() {
        assert!(PER_LAYER.iter().any(|l| l.0 == *name), "{name}");
    }
}

#[test]
fn traced_serial_pass_writes_the_childs_bytes() {
    let scratch = Scratch::create(&ledger_dir()).unwrap();
    let ctx = ctx(&scratch, 3, 0.02);
    for name in [
        "social_serial",
        "social_par2",
        "social_dist2",
        "serve_churn",
    ] {
        let w = workload::find(name).unwrap();
        let traced = trace(&ctx, w).unwrap();
        // Byte-identity of hand-driven and child output is a `failed` count.
        assert_eq!(traced.failed, 0, "{name}: {:?}", traced.problems);
        assert!(traced.attempted > 0);
        let line = report::contract_line(
            traced.attempted,
            traced.failed,
            report::per_layer_metrics(w.layers(), &traced.layers),
        );
        let j = parse_json(&line).unwrap();
        let printed = members(j.get("metrics").unwrap()).len();
        if BY_HAND.iter().any(|b| b.name == name) {
            assert_eq!(printed, SERVE_LAYERS.len());
        } else {
            assert_eq!(printed, PER_LAYER.len());
        }
    }
}
