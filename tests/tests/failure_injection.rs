//! Failure injection: I/O errors raised mid-stream must propagate out of
//! every pass of every partitioner — no panic, no partial-success lie —
//! wherever in a chunk or batch they land, and a v1 file whose header lies
//! about its length is refused when it is opened, by every backend. A
//! `--threads N` run reads its input once more to emit: an input that
//! changed since the passes fails the run there, naming the file.

use std::io;

use tps_core::job::{JobSpec, ThreadMode};
use tps_core::partitioner::{PartitionParams, Partitioner};
use tps_core::sink::{AssignmentSink, VecSink, SINK_BATCH};
use tps_core::two_phase::{TwoPhaseConfig, TwoPhasePartitioner};
use tps_graph::stream::{EdgeStream, InMemoryGraph, CHUNK_EDGES};
use tps_graph::types::Edge;

/// A stream that fails with an I/O error after `fail_after` successful reads
/// (cumulative across passes), emulating a device error mid-run.
struct FailingStream {
    inner: InMemoryGraph,
    reads: u64,
    fail_after: u64,
}

impl FailingStream {
    fn new(graph: &InMemoryGraph, fail_after: u64) -> Self {
        FailingStream {
            inner: graph.stream(),
            reads: 0,
            fail_after,
        }
    }
}

impl EdgeStream for FailingStream {
    fn reset(&mut self) -> io::Result<()> {
        self.inner.reset()
    }
    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        if self.reads >= self.fail_after {
            return Err(io::Error::other("injected device error"));
        }
        self.reads += 1;
        self.inner.next_edge()
    }
    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
    fn num_vertices_hint(&self) -> Option<u64> {
        self.inner.num_vertices_hint()
    }
}

/// A sink that errors after `fail_after` assignments (emulating a full disk
/// while writing partition files).
struct FailingSink {
    assigned: u64,
    fail_after: u64,
}

impl AssignmentSink for FailingSink {
    fn assign(&mut self, _edge: Edge, _p: u32) -> io::Result<()> {
        if self.assigned >= self.fail_after {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected sink error",
            ));
        }
        self.assigned += 1;
        Ok(())
    }
}

fn graph() -> InMemoryGraph {
    tps_graph::gen::gnm::generate(100, 500, 7)
}

/// Two full chunks / sink batches and a partial one per pass.
fn graph_of_three_chunks() -> InMemoryGraph {
    let g = tps_graph::gen::gnm::generate(2_000, 20_000, 7);
    assert!(g.num_edges() as usize > 2 * CHUNK_EDGES.max(SINK_BATCH));
    assert!(!(g.num_edges() as usize).is_multiple_of(CHUNK_EDGES));
    assert!(!(g.num_edges() as usize).is_multiple_of(SINK_BATCH));
    g
}

#[test]
fn stream_errors_propagate_from_every_pass() {
    let g = graph();
    // 2PS-L makes 4 passes of 500 reads each; inject failures landing in
    // each of them.
    for fail_after in [10u64, 600, 1100, 1600] {
        let mut stream = FailingStream::new(&g, fail_after);
        let mut p = TwoPhasePartitioner::new(TwoPhaseConfig::default());
        let err = p
            .partition(&mut stream, &PartitionParams::new(4), &mut VecSink::new())
            .expect_err("must surface the injected error");
        assert!(err.to_string().contains("injected device error"), "{err}");
    }
    // The same through the chunked read: in the first chunk, in the middle
    // one and in the final partial chunk of each of the 4 passes.
    let g = graph_of_three_chunks();
    let e = g.num_edges();
    for pass in 0..4u64 {
        for offset in [10, e / 2, e - 5] {
            let mut stream = FailingStream::new(&g, pass * e + offset);
            let mut p = TwoPhasePartitioner::new(TwoPhaseConfig::default());
            let err = p
                .partition(&mut stream, &PartitionParams::new(4), &mut VecSink::new())
                .expect_err("must surface the injected error");
            assert!(
                err.to_string().contains("injected device error"),
                "pass {pass} + {offset}: {err}"
            );
        }
    }
    // (A pass also reads its end-of-stream marker, so the offsets drift by
    // a few reads per pass; they stay inside the chunk they aim at.) Never
    // failing, the same stream completes.
    let mut stream = FailingStream::new(&g, u64::MAX);
    let mut sink = VecSink::new();
    TwoPhasePartitioner::new(TwoPhaseConfig::default())
        .partition(&mut stream, &PartitionParams::new(4), &mut sink)
        .unwrap();
    assert_eq!(sink.assignments().len() as u64, e);
}

#[test]
fn stream_errors_propagate_from_baselines() {
    let g = graph();
    let mut roster: Vec<Box<dyn Partitioner>> = vec![
        Box::new(tps_baselines::HdrfPartitioner::default()),
        Box::new(tps_baselines::DbhPartitioner::default()),
        Box::new(tps_baselines::NePartitioner),
        Box::new(tps_baselines::SnePartitioner::default()),
        Box::new(tps_baselines::HepPartitioner::with_tau(10.0)),
        Box::new(tps_baselines::MultilevelPartitioner::default()),
    ];
    for p in roster.iter_mut() {
        let mut stream = FailingStream::new(&g, 50);
        let err = p
            .partition(&mut stream, &PartitionParams::new(4), &mut VecSink::new())
            .expect_err(&format!("{} must surface the injected error", p.name()));
        assert!(
            err.to_string().contains("injected device error"),
            "{}: {err}",
            p.name()
        );
    }
}

#[test]
fn sink_errors_propagate() {
    let g = graph();
    let mut p = TwoPhasePartitioner::new(TwoPhaseConfig::default());
    let mut sink = FailingSink {
        assigned: 0,
        fail_after: 100,
    };
    let err = p
        .partition(&mut g.stream(), &PartitionParams::new(4), &mut sink)
        .expect_err("must surface the sink error");
    assert!(err.to_string().contains("injected sink error"), "{err}");

    // Batched: a failure in the first batch, in a middle one, in the final
    // partial batch of the pre-partitioning pass and in the final partial
    // batch of the run — serial, and through a two-worker run's emit, whose
    // batches are cut from the decision logs.
    let g = graph_of_three_chunks();
    let e = g.num_edges();
    let prepartitioned = {
        let mut p = TwoPhasePartitioner::new(TwoPhaseConfig::default());
        let report = p
            .partition(
                &mut g.stream(),
                &PartitionParams::new(4),
                &mut VecSink::new(),
            )
            .unwrap();
        report.counter("prepartitioned") + report.counter("prepartition_overflow")
    };
    assert!(prepartitioned > 0 && prepartitioned < e);
    for fail_after in [100, e / 2, prepartitioned - 1, e - 1] {
        let mut sink = FailingSink {
            assigned: 0,
            fail_after,
        };
        let err = TwoPhasePartitioner::new(TwoPhaseConfig::default())
            .partition(&mut g.stream(), &PartitionParams::new(4), &mut sink)
            .expect_err("must surface the sink error");
        assert!(err.to_string().contains("injected sink error"), "{err}");
        assert_eq!(sink.assigned, fail_after, "every earlier record arrived");

        let mut sink = FailingSink {
            assigned: 0,
            fail_after,
        };
        let err = JobSpec::ranged(&g)
            .k(4)
            .threads(ThreadMode::Count(2))
            .extra_sink(&mut sink)
            .run()
            .expect_err("must surface the sink error");
        assert!(err.to_string().contains("injected sink error"), "{err}");
        assert_eq!(sink.assigned, fail_after);
    }
    let mut sink = FailingSink {
        assigned: 0,
        fail_after: e,
    };
    TwoPhasePartitioner::new(TwoPhaseConfig::default())
        .partition(&mut g.stream(), &PartitionParams::new(4), &mut sink)
        .unwrap();
    assert_eq!(sink.assigned, e);
}

/// A v1 header is untrusted: a file cut mid-record and a header that
/// promises more edges than the file holds (or than fit in a `u64` of bytes)
/// are refused at open by every opener — not three passes
/// into a run, and never by a panic or an allocation sized by the header.
#[test]
fn truncated_binary_file_is_an_error_not_a_panic() {
    use tps_graph::formats::binary::write_binary_edge_list;
    use tps_io::{open_edge_stream, open_ranged, RangedFile, ReaderBackend};

    let dir = std::env::temp_dir().join(format!("tps-trunc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.bel");
    write_binary_edge_list(
        &path,
        10,
        (0..10u32).map(|i| Edge::new(i % 10, (i + 1) % 10)),
    )
    .unwrap();
    let intact = std::fs::read(&path).unwrap();
    let with_count = |count: u64| {
        let mut bytes = intact.clone();
        bytes[16..24].copy_from_slice(&count.to_le_bytes());
        bytes
    };
    let cases: [(&str, Vec<u8>, io::ErrorKind); 4] = [
        (
            "cut mid-record",
            intact[..intact.len() - 5].to_vec(),
            io::ErrorKind::UnexpectedEof,
        ),
        (
            "one edge too many",
            with_count(11),
            io::ErrorKind::UnexpectedEof,
        ),
        (
            "a count no disk holds",
            with_count(1 << 40),
            io::ErrorKind::UnexpectedEof,
        ),
        (
            "a count whose byte size overflows",
            with_count(1 << 61),
            io::ErrorKind::InvalidData,
        ),
    ];
    for (what, bytes, kind) in cases {
        std::fs::write(&path, &bytes).unwrap();
        let errors = [
            RangedFile::read(&path).err(),
            open_edge_stream(&path, ReaderBackend::Buffered).err(),
            open_ranged(&path).err(),
        ];
        for err in errors {
            let err = err.unwrap_or_else(|| panic!("{what}: an opener accepted the file"));
            assert_eq!(err.kind(), kind, "{what}: {err}");
        }
        // And so the job fails before its first pass.
        let err = JobSpec::path(&path)
            .threads(ThreadMode::Serial)
            .run_with(&tps_io::FileInput)
            .unwrap_err();
        assert_eq!(err.kind(), kind, "{what}: {err}");
    }
    // The intact file still opens everywhere.
    std::fs::write(&path, &intact).unwrap();
    for backend in ReaderBackend::ALL {
        let mut s = open_edge_stream(&path, backend).unwrap();
        let mut n = 0;
        tps_graph::stream::for_each_edge(&mut s, |_| n += 1).unwrap();
        assert_eq!(n, 10, "{backend:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The page store of a `--mem-budget-mb` job is a file like any other: a
/// slot that rots between write-back and re-fault must fail the job with
/// `InvalidData`, never feed it wrong cluster state.
#[test]
fn corrupt_page_store_slot_fails_the_budgeted_job() {
    use std::os::unix::fs::FileExt;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;
    use tps_clustering::paged::{PageBacking, PageStoreProvider};
    use tps_core::job::InputProvider;
    use tps_graph::ranged::RangedEdgeSource;
    use tps_io::{FileInput, FilePageStore};

    /// A `FilePageStore` that, once `after` pages have been written back,
    /// flips one payload byte of the first slot behind the store's back.
    struct RottingStore {
        inner: FilePageStore,
        path: PathBuf,
        written: usize,
        after: usize,
    }
    impl PageBacking for RottingStore {
        fn read_page(&mut self, key: u64, buf: &mut [u8]) -> io::Result<bool> {
            self.inner.read_page(key, buf)
        }
        fn write_pages(&mut self, pages: &[(u64, Vec<u8>)]) -> io::Result<()> {
            self.inner.write_pages(pages)?;
            let before = self.written;
            self.written += pages.len();
            if before < self.after && self.written >= self.after {
                let f = std::fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&self.path)?;
                // Past the 20-byte slot header, inside the first payload.
                let mut byte = [0u8];
                f.read_exact_at(&mut byte, 100)?;
                f.write_all_at(&[byte[0] ^ 0x10], 100)?;
            }
            Ok(())
        }
    }
    struct RottingProvider(PathBuf, usize);
    impl PageStoreProvider for RottingProvider {
        fn open_store(&self, page_size: usize) -> io::Result<Box<dyn PageBacking>> {
            Ok(Box::new(RottingStore {
                inner: FilePageStore::create(&self.0, page_size)?,
                path: self.0.clone(),
                written: 0,
                after: self.1,
            }))
        }
    }
    /// `FileInput` with the page store swapped for the rotting one.
    struct RottingInput(PathBuf, usize);
    impl InputProvider for RottingInput {
        fn open_ranged(&self, path: &Path) -> io::Result<Box<dyn RangedEdgeSource>> {
            FileInput.open_ranged(path)
        }
        fn page_store_provider(&self) -> io::Result<Arc<dyn PageStoreProvider>> {
            Ok(Arc::new(RottingProvider(self.0.clone(), self.1)))
        }
    }

    // A 150 k-vertex path: ~1.8 MB of cluster state sweeps through the
    // 512 KiB page share of a 1 MiB budget once per pass, so every slot is
    // written back in one pass and re-faulted in the next.
    let dir = std::env::temp_dir().join(format!("tps-rot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("path.bel");
    tps_graph::formats::binary::write_binary_edge_list(
        &input,
        150_001,
        (0..150_000).map(|i| Edge::new(i, i + 1)),
    )
    .unwrap();
    let run = |after: usize| {
        JobSpec::path(&input)
            .k(8)
            .threads(ThreadMode::Serial)
            .mem_budget_mb(1)
            .run_with(&RottingInput(dir.join("pages.tpspage"), after))
    };
    // Never rotting, the job succeeds through the same provider …
    let clean = run(usize::MAX).unwrap();
    assert!(clean.report.counter("paging_writebacks") > 100);
    // … and rotting after 50 write-backs, it fails loudly.
    let err = run(50).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("checksum"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The per-partition writer holds `k` files open for the whole run, so
/// creating them is all or nothing: when file `i` cannot be created (here a
/// directory squats on its name; under `ulimit -n` it is `EMFILE` — the CLI
/// test `fd_exhaustion_is_a_precise_error_and_leaves_no_debris` drives that
/// one), the error names `k` and the file, and the files already created
/// are gone again.
#[test]
fn partition_file_creation_is_all_or_nothing() {
    use tps_core::sink::FileSink;

    let dir = std::env::temp_dir().join(format!("tps-create-fail-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("g.part5.bel")).unwrap();
    let err = FileSink::create(&dir, "g", 8, 100)
        .err()
        .expect("a directory is not a partition file");
    let text = err.to_string();
    assert!(text.contains("partition file 6 of 8"), "{text}");
    assert!(text.contains("g.part5.bel"), "{text}");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["g.part5.bel"], "debris left behind");
    // Without the obstacle the same call succeeds.
    std::fs::remove_dir(dir.join("g.part5.bel")).unwrap();
    let parts = FileSink::create(&dir, "g", 8, 100)
        .unwrap()
        .finish()
        .unwrap();
    assert_eq!(parts.len(), 8);
    std::fs::remove_dir_all(&dir).ok();
}

/// A file-backed ranged source that runs `tamper` just before its
/// `at_open`-th `open_range`.
struct TamperingSource<'a> {
    inner: Box<dyn tps_graph::ranged::RangedEdgeSource>,
    opens: std::sync::atomic::AtomicUsize,
    at_open: usize,
    tamper: &'a (dyn Fn() + Sync),
}

impl tps_graph::ranged::RangedEdgeSource for TamperingSource<'_> {
    fn info(&self) -> tps_graph::types::GraphInfo {
        self.inner.info()
    }
    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        use std::sync::atomic::Ordering;
        if self.opens.fetch_add(1, Ordering::SeqCst) == self.at_open {
            (self.tamper)();
        }
        self.inner.open_range(start, end)
    }
}

fn ranges_retained() -> u64 {
    tps_obs::counters_snapshot()
        .into_iter()
        .find(|(n, _)| n == "io.v2.ranges_retained")
        .map_or(0, |(_, v)| v)
}

/// A logging worker remembers decisions, not edges, so emit reads the input
/// again — two workers open their ranges four times each for the passes,
/// and the ninth open is shard 1's emit (shard 0 writes its records as it
/// decides them). A v1 file truncated, or a v2 file (opened through
/// `RangedFile::read`, so nothing of it is retained) with a chunk of shard 1's range
/// gone bad, in between fails the job there with an error naming the file
/// (a v1 rewrite naming a vertex outside the plan, with `InvalidData`): no
/// panic, no partition file quietly short. The same job on the untouched file
/// succeeds, and `tps partition` turns any job error into exit code 2.
#[test]
fn input_changed_between_the_passes_and_emit_fails_the_job() {
    use std::os::unix::fs::FileExt;
    let g = graph_of_three_chunks();
    let dir = std::env::temp_dir().join(format!("tps-emit-reread-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v1 = dir.join("g.bel");
    let v2 = dir.join("g.bel2");
    let write_inputs = || {
        tps_graph::formats::binary::write_binary_edge_list(
            &v1,
            g.num_vertices(),
            g.edges().iter().copied(),
        )
        .unwrap();
        tps_io::write_v2_edge_list(&v2, g.num_vertices(), g.edges().iter().copied(), 1_000)
            .unwrap();
    };
    let truncate_v1 = || {
        let f = std::fs::OpenOptions::new().write(true).open(&v1).unwrap();
        f.set_len(f.metadata().unwrap().len() - 40).unwrap();
    };
    let corrupt_v2 = || {
        // Inside the last chunk's payload, which ends where the chunk
        // index begins (the trailer's first field).
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&v2)
            .unwrap();
        let mut index = [0u8; 8];
        let trailer = f.metadata().unwrap().len() - tps_io::v2::TRAILER_LEN;
        f.read_exact_at(&mut index, trailer).unwrap();
        let at = u64::from_le_bytes(index) - 50;
        let mut byte = [0u8];
        f.read_exact_at(&mut byte, at).unwrap();
        f.write_all_at(&[byte[0] ^ 0x40], at).unwrap();
    };
    // `retain`: open through `open_ranged`, whose v2 sources spill the
    // ranges they decode, else through `RangedFile::read`, which never does.
    let run = |path: &std::path::Path, retain: bool, at_open: usize, tamper: &(dyn Fn() + Sync)| {
        write_inputs();
        let inner: Box<dyn tps_graph::ranged::RangedEdgeSource> = if retain {
            tps_io::open_ranged(path).unwrap()
        } else {
            Box::new(tps_io::RangedFile::read(path).unwrap())
        };
        let source = TamperingSource {
            inner,
            opens: Default::default(),
            at_open,
            tamper,
        };
        let mut sink = VecSink::new();
        JobSpec::ranged(&source)
            .k(4)
            .threads(ThreadMode::Count(2))
            .extra_sink(&mut sink)
            .run()
            .map(|outcome| (outcome, sink.into_assignments().len() as u64))
    };

    let retained = ranges_retained();
    for (path, tamper) in [
        (&v1, &truncate_v1 as &(dyn Fn() + Sync)),
        (&v2, &corrupt_v2),
    ] {
        let (_, emitted) = run(path, false, usize::MAX, &|| {}).unwrap();
        assert_eq!(emitted, g.num_edges());
        let err = run(path, false, 8, tamper).expect_err("emit must notice the input changed");
        let text = err.to_string();
        assert!(text.contains(path.to_str().unwrap()), "{text}");
        let kind = if path == &v1 {
            io::ErrorKind::UnexpectedEof
        } else {
            assert!(text.contains("checksum"), "{text}");
            io::ErrorKind::InvalidData
        };
        assert_eq!(err.kind(), kind, "{text}");
    }
    assert_eq!(ranges_retained(), retained, "a RangedFile retains nothing");

    // A same-length rewrite that names a vertex the plan does not cover —
    // the last edge's source set to |V| + 5 — is `InvalidData` at emit, not
    // a panic.
    let out_of_range_v1 = || {
        let f = std::fs::OpenOptions::new().write(true).open(&v1).unwrap();
        let last = f.metadata().unwrap().len() - 8;
        let id = g.num_vertices() as u32 + 5;
        f.write_all_at(&id.to_le_bytes(), last).unwrap();
    };
    let err = run(&v1, false, 8, &out_of_range_v1).expect_err("emit must notice the new vertex");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("outside the plan"), "{err}");

    // With retention on, a chunk that is bad before the first pass is still
    // caught by its checksum — a range is retained by the cursor that
    // verified it, never instead of verifying it — so at most the other
    // worker's (intact) range is; tampering before emit goes unnoticed only
    // because emit then reads the verified spill, not the file.
    let err = run(&v2, true, 0, &corrupt_v2).expect_err("the first decode verifies");
    assert!(err.to_string().contains("checksum"), "{err}");
    assert!(err.to_string().contains(v2.to_str().unwrap()), "{err}");
    assert!(ranges_retained() - retained <= 1);
    let retained = ranges_retained();
    let (_, emitted) = run(&v2, true, 8, &corrupt_v2).unwrap();
    assert_eq!(emitted, g.num_edges());
    assert_eq!(ranges_retained(), retained + 2);
    std::fs::remove_dir_all(&dir).ok();
}
