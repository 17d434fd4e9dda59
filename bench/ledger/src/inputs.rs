//! Generated inputs and the scratch space they live in.
//!
//! Nothing is cached between runs: a run that found last run's graph on disk
//! would report a different `setup_s` than one that did not.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tps_graph::datasets::{Dataset, DatasetConfig};
use tps_graph::formats::binary::write_binary_edge_list;
use tps_graph::gen::{planted, social};
use tps_graph::types::Edge;

use crate::workload::{GraphKind, SOCIAL_DATASET_SCALE, SOCIAL_ORDERS, WEB_DATASET_SCALE};

/// TPSBEL2 chunk size `tps convert` writes by default.
const V2_CHUNK_EDGES: u32 = 65_536;

/// A scratch directory inside the ledger's own `out/`, removed on drop. The
/// benchmark may write nowhere else, so `TMPDIR` of every child points here
/// too (the engine's page store and spools use `std::env::temp_dir`).
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u64>,
}

impl Scratch {
    /// Create `<ledger_dir>/out/tmp-<pid>-<n>`, empty.
    pub fn create(ledger_dir: &Path) -> io::Result<Scratch> {
        // Tests create several in one process.
        static CREATED: AtomicU64 = AtomicU64::new(0);
        let root = ledger_dir.join("out").join(format!(
            "tmp-{}-{}",
            std::process::id(),
            CREATED.fetch_add(1, Ordering::Relaxed)
        ));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A new empty directory; every call returns another one.
    pub fn fresh_dir(&self, label: &str) -> io::Result<PathBuf> {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("{label}-{n}"));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

/// A generated graph, on disk for the SUT and in memory for the verifier.
pub struct Input {
    pub kind: GraphKind,
    pub path: PathBuf,
    pub edges: Vec<Edge>,
    pub num_vertices: u64,
}

impl Input {
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// The file stem `tps partition` names its `<stem>.part<i>.bel` files by.
    pub fn stem(&self) -> &str {
        self.path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("generate() names the file")
    }
}

/// Generate graph `kind` from `seed` at `scale` × the benchmark's size and
/// write it into `dir` in the workload's input format.
pub fn generate(kind: GraphKind, scale: f64, seed: u64, dir: &Path) -> io::Result<Input> {
    let (graph, path) = match kind {
        GraphKind::Social => {
            let DatasetConfig::Social(cfg) =
                Dataset::Tw.config_scaled(SOCIAL_DATASET_SCALE * scale)
            else {
                unreachable!("twitter-2010 is a social dataset")
            };
            (social::generate(&cfg, seed), dir.join("social.bel2"))
        }
        GraphKind::Web => {
            let DatasetConfig::Planted(cfg) = Dataset::Gsh.config_scaled(WEB_DATASET_SCALE * scale)
            else {
                unreachable!("gsh-2015 is a web dataset")
            };
            (planted::generate(&cfg, seed), dir.join("web.bel"))
        }
    };
    let num_vertices = graph.num_vertices();
    let mut edges = graph.edges().to_vec();
    drop(graph);
    match kind {
        GraphKind::Social => {
            tps_io::write_v2_edge_list(&path, num_vertices, edges.iter().copied(), V2_CHUNK_EDGES)?;
        }
        GraphKind::Web => {
            // Endpoint-sorted, the locality docs/OPERATIONS.md tells
            // out-of-core users to give their input first.
            edges.sort_by_key(|e| (e.src.min(e.dst), e.src.max(e.dst)));
            write_binary_edge_list(&path, num_vertices, edges.iter().copied())?;
        }
    }
    Ok(Input {
        kind,
        path,
        edges,
        num_vertices,
    })
}

/// The files a partition workload rotates its reps through: `input.path`
/// first, and for the social graph `SOCIAL_ORDERS − 1` more files holding the
/// same edges in other seeded orders.
///
/// 2PS-L's replication factor is chaotic in the order of the stream: the same
/// 4 M edges in 32 orders gave 3.65–4.04 (σ 2.2 %), while the mean over the
/// orders of one graph agreed with that of another graph to 0.3 %. One order is
/// one draw from that; the mean over several is the number that repeats. The
/// web graph has one order, the endpoint-sorted one its workloads are about.
pub fn write_orders(input: &Input, seed: u64) -> io::Result<Vec<PathBuf>> {
    let mut paths = vec![input.path.clone()];
    if input.kind == GraphKind::Web {
        return Ok(paths);
    }
    let mut edges = input.edges.clone();
    for order in 1..SOCIAL_ORDERS as u64 {
        let mut rng = SmallRng::seed_from_u64(seed ^ (order << 56) ^ 0x0bde_5000);
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.gen_range(0..=i));
        }
        let path = input.path.with_file_name(format!("social.o{order}.bel2"));
        tps_io::write_v2_edge_list(
            &path,
            input.num_vertices,
            edges.iter().copied(),
            V2_CHUNK_EDGES,
        )?;
        paths.push(path);
    }
    Ok(paths)
}
