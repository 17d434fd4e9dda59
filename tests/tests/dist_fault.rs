//! Chaos tests for the fault-tolerant distributed runtime.
//!
//! The contract under test (ISSUE 4 / ROADMAP "worker fault handling"):
//! killing any single worker at **any** protocol point — every barrier and
//! mid-`Run` stream — still produces output **bit-identical** to the
//! in-process `--threads N` run, with a bounded number of re-issues, for
//! every storage backend. Also pinned here: epoch-stale frames from a
//! previous issuance are discarded (never merged or emitted twice), future
//! epochs and foreign shards are rejected, receive timeouts detect hung
//! (not just dead) workers, and standbys / completed workers / supplied
//! replacements all serve re-issues.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::Scope;
use std::time::Duration;

use integration_tests::threads_job;
use proptest::prelude::*;
use tps_core::partitioner::{PartitionParams, RunReport};
use tps_core::sink::VecSink;
use tps_core::two_phase::TwoPhaseConfig;
use tps_dist::{
    loopback_pair, run_coordinator, run_worker, run_worker_handshake, AttachedResolver,
    FaultPolicy, FaultTransport, Handshake, InputDescriptor, KillMode, KillPoint, KillSpec,
    Message, NoReplacements, Transport, WorkerSupply, PROTOCOL_VERSION,
};
use tps_graph::ranged::RangedEdgeSource;
use tps_graph::stream::InMemoryGraph;
use tps_graph::types::Edge;

/// A supply that spawns fresh loopback workers (handshaking with `Rejoin`,
/// as a reconnecting process worker would) into an enclosing thread scope.
struct ScopedSupply<'s, 'e, 'g> {
    scope: &'s Scope<'s, 'e>,
    source: &'g dyn RangedEdgeSource,
    spawned: &'g AtomicUsize,
}

impl<'s, 'e, 'g: 'e> WorkerSupply for ScopedSupply<'s, 'e, 'g> {
    fn replacement(&mut self) -> io::Result<Option<Box<dyn Transport>>> {
        let (c, mut w) = loopback_pair();
        let source = self.source;
        self.spawned.fetch_add(1, Ordering::Relaxed);
        self.scope.spawn(move || {
            let _ = run_worker_handshake(&mut w, &AttachedResolver(source), Handshake::Rejoin);
        });
        Ok(Some(Box::new(c)))
    }
}

/// Run a distributed job where worker `killed` dies at `kill`, recovering
/// through supply-spawned replacements. Returns the assignments and report.
fn dist_chaos(
    source: &dyn RangedEdgeSource,
    k: u32,
    workers: usize,
    killed: usize,
    kill: KillSpec,
    policy: &FaultPolicy,
) -> io::Result<(Vec<(Edge, u32)>, RunReport)> {
    let config = TwoPhaseConfig::default();
    let params = PartitionParams::new(k);
    let spawned = AtomicUsize::new(0);
    let mut sink = VecSink::new();
    let report = std::thread::scope(|scope| {
        let mut coordinator_sides: Vec<Box<dyn Transport>> = Vec::with_capacity(workers);
        for w in 0..workers {
            let (c, wk) = loopback_pair();
            coordinator_sides.push(Box::new(c));
            if w == killed {
                let mut t = FaultTransport::new(wk, kill, KillMode::Sever);
                scope.spawn(move || {
                    // Killed workers error out by design; their result is
                    // the fault being injected.
                    let _ = run_worker(&mut t, &AttachedResolver(source));
                });
            } else {
                let mut t = wk;
                scope.spawn(move || {
                    let _ = run_worker(&mut t, &AttachedResolver(source));
                });
            }
        }
        let mut supply = ScopedSupply {
            scope,
            source,
            spawned: &spawned,
        };
        run_coordinator(
            &config,
            &params,
            source.info(),
            &InputDescriptor::Attached,
            workers,
            coordinator_sides,
            &mut supply,
            policy,
            0,
            &mut sink,
        )
    })?;
    Ok((sink.into_assignments(), report))
}

fn parallel_reference(g: &InMemoryGraph, k: u32, workers: usize) -> Vec<(Edge, u32)> {
    let mut sink = VecSink::new();
    threads_job(
        g,
        TwoPhaseConfig::default(),
        &PartitionParams::new(k),
        workers,
        &mut sink,
    )
    .unwrap();
    sink.into_assignments()
}

/// Exhaustive sweep: kill each worker after each frame index, across all
/// three storage backends. Frame-count kill points cover every barrier
/// (the worker's protocol is 13 frames plus its `Run` stream).
#[test]
fn any_worker_killed_at_any_frame_is_bit_identical() {
    let g = tps_graph::gen::gnm::generate(64, 400, 11);
    let dir = std::env::temp_dir().join(format!("tps-chaos-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v1_path = dir.join("g.bel");
    let v2_path = dir.join("g.bel2");
    tps_graph::formats::binary::write_binary_edge_list(
        &v1_path,
        g.num_vertices(),
        g.edges().iter().copied(),
    )
    .unwrap();
    tps_io::write_v2_edge_list(&v2_path, g.num_vertices(), g.edges().iter().copied(), 37).unwrap();
    let v1 = tps_io::RangedFile::read(&v1_path).unwrap();
    let v2 = tps_io::RangedFile::read(&v2_path).unwrap();
    let sources: [(&str, &dyn RangedEdgeSource); 3] = [("mem", &g), ("v1", &v1), ("v2", &v2)];

    let workers = 2;
    let want = parallel_reference(&g, 8, workers);
    let policy = FaultPolicy::with_retries(2);
    for (backend, source) in sources {
        // 15 frames covers the full per-worker exchange of this graph
        // (one Run frame per shard); the last indices exercise "killed
        // after its shard completed", which must be a no-op.
        for frame in 0..=15u32 {
            for killed in 0..workers {
                let kill = KillSpec {
                    point: KillPoint::Frames(frame),
                };
                let (got, report) = dist_chaos(source, 8, workers, killed, kill, &policy)
                    .unwrap_or_else(|e| {
                        panic!("{backend}: kill worker {killed} at frame {frame}: {e}")
                    });
                assert_eq!(
                    got, want,
                    "{backend}: output diverged (worker {killed} killed at frame {frame})"
                );
                let retries = report.counter("worker_retries");
                assert!(
                    retries <= policy.max_retries as u64,
                    "{backend}: {retries} retries exceed the budget"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Named kill points at the three chaos barriers the CI job drives.
#[test]
fn named_kill_points_recover_including_mid_run_stream() {
    // Big enough that each shard streams multiple Run frames (8192/batch).
    let g = tps_graph::datasets::Dataset::Ok.generate_scaled(0.05);
    let workers = 2;
    let want = parallel_reference(&g, 8, workers);
    let policy = FaultPolicy::with_retries(2);
    for (spec, want_retries) in [
        ("recv:globals", 1),                // dies while phase 1 runs
        ("send:localclustering", 1),        // dies pre-plan
        ("recv:mergedreplicationchunk", 1), // dies mid phase 2
        ("send:run:1", 1),                  // dies mid-Run stream, after one batch
        ("send:run:2", 1),                  // deeper into the stream
        ("send:runsdone", 0),               // dies with its work fully delivered
    ] {
        let kill = KillSpec::parse(spec).unwrap();
        let (got, report) = dist_chaos(&g, 8, workers, 1, kill, &policy).unwrap();
        assert_eq!(got, want, "kill at {spec}");
        assert_eq!(
            report.counter("worker_retries"),
            want_retries,
            "one kill means at most one re-issue at {spec}"
        );
        // Early kills recover through a supply-spawned rejoining worker;
        // emit-stage kills may be served by an already-idle completed
        // worker instead — either way, at most one new connection.
        assert!(report.counter("workers_rejoined") <= 1, "{spec}");
    }
}

proptest! {
    // Each case is several full protocol runs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random graph × k × worker count × kill frame × killed worker:
    /// output is bit-identical to `--threads N` and retries stay bounded.
    #[test]
    fn chaos_recovery_is_bit_identical(
        pairs in proptest::collection::vec((0u32..48, 0u32..48), 1..160),
        k in 1u32..9,
        workers in 1usize..5,
        kill_frame in 0u32..16,
        killed_index in 0usize..4,
    ) {
        let g = InMemoryGraph::from_edges(pairs.into_iter().map(Edge::from).collect());
        let killed = killed_index % workers;
        let want = parallel_reference(&g, k, workers);
        let policy = FaultPolicy::with_retries(2);
        let kill = KillSpec { point: KillPoint::Frames(kill_frame) };
        let (got, report) = dist_chaos(&g, k, workers, killed, kill, &policy).unwrap();
        prop_assert_eq!(got, want);
        prop_assert!(report.counter("worker_retries") <= 2);
    }
}

// ---- epoch semantics ----

/// Rebuild a worker frame with its epoch lowered by one — the forgery a
/// presumed-dead worker's leftovers would look like.
fn with_epoch(msg: &Message, epoch: u32) -> Message {
    match msg.clone() {
        Message::Degrees { shard, degrees, .. } => Message::Degrees {
            shard,
            epoch,
            degrees,
        },
        Message::LocalClustering {
            shard, clustering, ..
        } => Message::LocalClustering {
            shard,
            epoch,
            clustering,
        },
        Message::ReplicationChunk {
            shard,
            chunk,
            words,
            ..
        } => Message::ReplicationChunk {
            shard,
            epoch,
            chunk,
            words,
        },
        Message::ShardDone {
            shard,
            counters,
            loads,
            assigned,
            trace,
            counter_snap,
            ..
        } => Message::ShardDone {
            shard,
            epoch,
            counters,
            loads,
            assigned,
            trace,
            counter_snap,
        },
        Message::Run { shard, batch, .. } => Message::Run {
            shard,
            epoch,
            batch,
        },
        Message::RunsDone { shard, .. } => Message::RunsDone { shard, epoch },
        other => other,
    }
}

/// A worker-side transport that precedes every enveloped frame of epoch
/// `e > 0` with a duplicate claiming the given forged epoch.
struct InjectEpoch<T: Transport> {
    inner: T,
    forge: fn(u32) -> u32,
}

impl<T: Transport> Transport for InjectEpoch<T> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        if let Ok(msg) = Message::decode(frame) {
            if let Some((_, epoch)) = msg.shard_epoch() {
                if epoch > 0 {
                    let forged = with_epoch(&msg, (self.forge)(epoch));
                    self.inner.send(&forged.encode())?;
                }
            }
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.inner.recv()
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_recv_timeout(timeout)
    }
}

/// Kill the only worker right after its `Job`, then have the replacement
/// duplicate **every** frame — degrees, clustering, summary, every `Run`
/// batch, the `RunsDone` — under the stale epoch 0. The coordinator must
/// discard each duplicate (nothing merged or emitted twice) and still
/// produce the bit-identical output.
#[test]
fn stale_epoch_frames_are_discarded_not_merged_twice() {
    let g = tps_graph::gen::gnm::generate(80, 600, 3);
    let want = parallel_reference(&g, 4, 1);
    let mut sink = VecSink::new();
    let report = std::thread::scope(|scope| {
        let g = &g;
        let (c, wk) = loopback_pair();
        let mut doomed = FaultTransport::new(
            wk,
            KillSpec {
                point: KillPoint::Frames(2), // Hello sent, Job received, dead
            },
            KillMode::Sever,
        );
        scope.spawn(move || {
            let _ = run_worker(&mut doomed, &AttachedResolver(g));
        });

        struct StaleSupply<'s, 'e, 'g> {
            scope: &'s Scope<'s, 'e>,
            source: &'g InMemoryGraph,
        }
        impl<'s, 'e, 'g: 'e> WorkerSupply for StaleSupply<'s, 'e, 'g> {
            fn replacement(&mut self) -> io::Result<Option<Box<dyn Transport>>> {
                let (c, w) = loopback_pair();
                let source = self.source;
                self.scope.spawn(move || {
                    let mut t = InjectEpoch {
                        inner: w,
                        forge: |e| e - 1,
                    };
                    let _ =
                        run_worker_handshake(&mut t, &AttachedResolver(source), Handshake::Rejoin);
                });
                Ok(Some(Box::new(c)))
            }
        }
        let mut supply = StaleSupply { scope, source: g };
        run_coordinator(
            &TwoPhaseConfig::default(),
            &PartitionParams::new(4),
            g.info(),
            &InputDescriptor::Attached,
            1,
            vec![Box::new(c) as Box<dyn Transport>],
            &mut supply,
            &FaultPolicy::with_retries(1),
            0,
            &mut sink,
        )
    })
    .unwrap();
    assert_eq!(sink.into_assignments(), want);
    assert_eq!(report.counter("worker_retries"), 1);
    assert_eq!(report.counter("workers_rejoined"), 1);
}

/// A frame claiming a *future* epoch is a protocol violation, not something
/// to wait for — the shard is re-issued (and the job fails once the retry
/// budget is gone).
#[test]
fn future_epoch_frames_are_rejected() {
    let g = tps_graph::gen::gnm::generate(40, 200, 5);
    let mut sink = VecSink::new();
    let err = std::thread::scope(|scope| {
        let g = &g;
        // The assigned worker dies right after its Job (epoch 0)...
        let (c, wk) = loopback_pair();
        let mut doomed = FaultTransport::new(
            wk,
            KillSpec {
                point: KillPoint::Frames(2),
            },
            KillMode::Sever,
        );
        scope.spawn(move || {
            let _ = run_worker(&mut doomed, &AttachedResolver(g));
        });
        // ...and the replacement (serving epoch 1) forges every envelope up
        // to epoch 2. The budget allows the one real loss but not the
        // forgery, so the epoch violation surfaces as the job error.
        struct ForgingSupply<'s, 'e, 'g> {
            scope: &'s Scope<'s, 'e>,
            source: &'g InMemoryGraph,
        }
        impl<'s, 'e, 'g: 'e> WorkerSupply for ForgingSupply<'s, 'e, 'g> {
            fn replacement(&mut self) -> io::Result<Option<Box<dyn Transport>>> {
                let (c, w) = loopback_pair();
                let source = self.source;
                self.scope.spawn(move || {
                    let mut t = InjectEpoch {
                        inner: w,
                        forge: |e| e + 1,
                    };
                    let _ =
                        run_worker_handshake(&mut t, &AttachedResolver(source), Handshake::Rejoin);
                });
                Ok(Some(Box::new(c)))
            }
        }
        let mut supply = ForgingSupply { scope, source: g };
        run_coordinator(
            &TwoPhaseConfig::default(),
            &PartitionParams::new(4),
            g.info(),
            &InputDescriptor::Attached,
            1,
            vec![Box::new(c) as Box<dyn Transport>],
            &mut supply,
            &FaultPolicy::with_retries(1),
            0,
            &mut sink,
        )
    })
    .unwrap_err();
    assert!(
        err.to_string().contains("epoch"),
        "error should name the epoch mismatch: {err}"
    );
}

// ---- recovery sources ----

/// A hung (not dead) worker: nothing arrives, the connection stays open.
/// The frame timeout must detect it and a standby must take over — both
/// for a worker that hangs before its handshake (costs no retry budget:
/// it never held a shard) and for one that hangs mid-protocol (costs one
/// re-issue).
#[test]
fn frame_timeout_detects_hung_worker_and_standby_recovers() {
    let g = tps_graph::gen::gnm::generate(50, 300, 9);
    let want = parallel_reference(&g, 4, 1);
    for hang_after_handshake in [false, true] {
        let mut sink = VecSink::new();
        let report = std::thread::scope(|scope| {
            let g = &g;
            // The hung worker: its transport end stays alive but silent —
            // optionally after a well-formed Hello, so it is assigned the
            // shard and hangs mid-protocol instead of at the handshake.
            let (c_hung, mut w_hung) = loopback_pair();
            if hang_after_handshake {
                w_hung
                    .send(
                        &Message::Hello {
                            version: PROTOCOL_VERSION,
                        }
                        .encode(),
                    )
                    .unwrap();
            }
            // The standby: a real worker, accepted up-front.
            let (c_standby, mut w_standby) = loopback_pair();
            scope.spawn(move || {
                let _ = run_worker(&mut w_standby, &AttachedResolver(g));
            });
            let policy = FaultPolicy {
                max_retries: 1,
                frame_timeout: Some(Duration::from_millis(100)),
            };
            let transports: Vec<Box<dyn Transport>> = vec![Box::new(c_hung), Box::new(c_standby)];
            let result = run_coordinator(
                &TwoPhaseConfig::default(),
                &PartitionParams::new(4),
                g.info(),
                &InputDescriptor::Attached,
                1,
                transports,
                &mut NoReplacements,
                &policy,
                0,
                &mut sink,
            );
            drop(w_hung);
            result
        })
        .unwrap();
        assert_eq!(
            sink.into_assignments(),
            want,
            "hang_after_handshake = {hang_after_handshake}"
        );
        // Hanging at the handshake loses the connection but no issued
        // shard; hanging mid-protocol costs exactly one re-issue.
        assert_eq!(
            report.counter("worker_retries"),
            hang_after_handshake as u64,
            "hang_after_handshake = {hang_after_handshake}"
        );
    }
}

/// A worker whose own shard completed serves a later shard's re-issue —
/// no standby, no supply.
#[test]
fn completed_worker_serves_a_reissue() {
    let g = tps_graph::datasets::Dataset::Ok.generate_scaled(0.02);
    let workers = 2;
    let want = parallel_reference(&g, 8, workers);
    let mut sink = VecSink::new();
    let report = std::thread::scope(|scope| {
        let g = &g;
        let mut coordinator_sides: Vec<Box<dyn Transport>> = Vec::new();
        for w in 0..workers {
            let (c, wk) = loopback_pair();
            coordinator_sides.push(Box::new(c));
            if w == 1 {
                // Worker 1 dies awaiting its Pull — after shard 0's worker
                // has fully completed and become idle.
                let mut t =
                    FaultTransport::new(wk, KillSpec::parse("recv:pull").unwrap(), KillMode::Sever);
                scope.spawn(move || {
                    let _ = run_worker(&mut t, &AttachedResolver(g));
                });
            } else {
                let mut t = wk;
                scope.spawn(move || {
                    let _ = run_worker(&mut t, &AttachedResolver(g));
                });
            }
        }
        run_coordinator(
            &TwoPhaseConfig::default(),
            &PartitionParams::new(8),
            g.info(),
            &InputDescriptor::Attached,
            workers,
            coordinator_sides,
            &mut NoReplacements,
            &FaultPolicy::with_retries(1),
            0,
            &mut sink,
        )
    })
    .unwrap();
    assert_eq!(sink.into_assignments(), want);
    assert_eq!(report.counter("worker_retries"), 1);
    assert_eq!(
        report.counter("workers_rejoined"),
        0,
        "recovered via the idle completed worker, not a new connection"
    );
}

/// With the retry budget at zero the first loss still fails the job (the
/// pre-v2 contract), and the error names the spent budget.
#[test]
fn zero_retry_budget_fails_on_first_loss() {
    let g = tps_graph::gen::gnm::generate(30, 100, 2);
    let mut sink = VecSink::new();
    let err = std::thread::scope(|scope| {
        let g = &g;
        let (c, wk) = loopback_pair();
        let mut t = FaultTransport::new(
            wk,
            KillSpec {
                point: KillPoint::Frames(3),
            },
            KillMode::Sever,
        );
        scope.spawn(move || {
            let _ = run_worker(&mut t, &AttachedResolver(g));
        });
        run_coordinator(
            &TwoPhaseConfig::default(),
            &PartitionParams::new(2),
            g.info(),
            &InputDescriptor::Attached,
            1,
            vec![Box::new(c) as Box<dyn Transport>],
            &mut NoReplacements,
            &FaultPolicy::default(),
            0,
            &mut sink,
        )
    })
    .unwrap_err();
    assert!(
        err.to_string().contains("retry budget"),
        "error should name the budget: {err}"
    );
}

/// Retries allowed but nowhere to get a replacement: the job fails with a
/// diagnostic naming the missing replacement, not a hang.
#[test]
fn no_replacement_available_is_an_error_not_a_hang() {
    let g = tps_graph::gen::gnm::generate(30, 100, 2);
    let mut sink = VecSink::new();
    let err = std::thread::scope(|scope| {
        let g = &g;
        let (c, wk) = loopback_pair();
        let mut t = FaultTransport::new(
            wk,
            KillSpec {
                point: KillPoint::Frames(3),
            },
            KillMode::Sever,
        );
        scope.spawn(move || {
            let _ = run_worker(&mut t, &AttachedResolver(g));
        });
        run_coordinator(
            &TwoPhaseConfig::default(),
            &PartitionParams::new(2),
            g.info(),
            &InputDescriptor::Attached,
            1,
            vec![Box::new(c) as Box<dyn Transport>],
            &mut NoReplacements,
            &FaultPolicy::with_retries(3),
            0,
            &mut sink,
        )
    })
    .unwrap_err();
    assert!(
        err.to_string().contains("no replacement"),
        "error should name the missing replacement: {err}"
    );
}
