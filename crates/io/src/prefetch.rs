//! Double-buffered prefetching: overlap disk reads with partitioning CPU.
//!
//! The paper's read-process loop is strictly serial — each pass pays
//! `io_time + cpu_time`. [`PrefetchReader`] moves the reading onto a
//! background thread: the worker fills fixed-size edge chunks while the
//! partitioner consumes the previous chunk, so a pass costs
//! `max(io_time, cpu_time)` plus one chunk of latency.
//!
//! Buffers cycle between the two threads (classic double buffering — the
//! default is 2 in-flight chunks, configurable): the consumer returns a
//! drained chunk to the worker instead of allocating, so steady-state
//! memory is `buffers × chunk_edges × 8` bytes regardless of graph size.
//!
//! Any [`ChunkSource`] can feed the worker; the `prefetch` reader backend
//! feeds it one range cursor of a file (`crate::ranged::RangedPrefetchSource`).
//! `reset` is a generation bump: stale chunks from an abandoned pass are
//! recycled on receipt (and a `reset` before the first read keeps the pass
//! in flight), so multi-pass algorithms (the 2PS-L degree / clustering /
//! partitioning passes) observe the exact same edge order every pass with
//! no worker restart.

use std::io;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;

use tps_graph::stream::EdgeStream;
use tps_graph::types::{Edge, GraphInfo};

/// A resettable producer of edge chunks, consumed from a worker thread.
pub trait ChunkSource: Send {
    /// Rewind to the start of the stream.
    fn reset(&mut self) -> io::Result<()>;

    /// Fill `buf` (already cleared) with up to `max_edges` edges.
    /// Returns the number of edges produced; 0 means end of pass.
    fn fill_chunk(&mut self, buf: &mut Vec<Edge>, max_edges: usize) -> io::Result<usize>;

    /// Graph summary, if known.
    fn info(&self) -> Option<GraphInfo> {
        None
    }
}

/// Tuning knobs for [`PrefetchReader`].
#[derive(Clone, Copy, Debug)]
pub struct PrefetchConfig {
    /// Edges per chunk buffer (a fill may overshoot it by less than one of
    /// the source's own runs).
    pub chunk_edges: usize,
    /// Buffers cycling between worker and consumer (≥ 2 for overlap).
    pub buffers: usize,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            chunk_edges: 1 << 16,
            buffers: 2,
        }
    }
}

enum Cmd {
    /// Start (or restart) a pass at the given generation.
    Start(u64),
    /// Return a drained buffer to the worker.
    Recycle(Vec<Edge>),
}

struct Msg {
    generation: u64,
    /// `Ok(Some(chunk))` mid-pass, `Ok(None)` at end of pass.
    payload: io::Result<Option<Vec<Edge>>>,
}

fn worker_loop<S: ChunkSource>(
    mut source: S,
    cfg: PrefetchConfig,
    cmd_rx: Receiver<Cmd>,
    data_tx: Sender<Msg>,
) {
    let mut pool: Vec<Vec<Edge>> = (0..cfg.buffers.max(2))
        .map(|_| Vec::with_capacity(cfg.chunk_edges))
        .collect();
    let mut pending: Option<u64> = None;
    loop {
        let generation = match pending.take() {
            Some(g) => g,
            None => match cmd_rx.recv() {
                Ok(Cmd::Start(g)) => g,
                Ok(Cmd::Recycle(b)) => {
                    pool.push(b);
                    continue;
                }
                Err(_) => return, // consumer dropped
            },
        };
        if let Err(e) = source.reset() {
            let _ = data_tx.send(Msg {
                generation,
                payload: Err(e),
            });
            continue;
        }
        'pass: loop {
            // Acquire a buffer, aborting the pass if a newer Start arrives.
            let mut buf = loop {
                if let Some(b) = pool.pop() {
                    break b;
                }
                match cmd_rx.recv() {
                    Ok(Cmd::Recycle(b)) => pool.push(b),
                    Ok(Cmd::Start(g)) => {
                        pending = Some(g);
                        break 'pass;
                    }
                    Err(_) => return,
                }
            };
            buf.clear();
            match source.fill_chunk(&mut buf, cfg.chunk_edges) {
                Ok(0) => {
                    pool.push(buf);
                    let _ = data_tx.send(Msg {
                        generation,
                        payload: Ok(None),
                    });
                    break 'pass;
                }
                Ok(_) => {
                    if data_tx
                        .send(Msg {
                            generation,
                            payload: Ok(Some(buf)),
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                Err(e) => {
                    pool.push(buf);
                    let _ = data_tx.send(Msg {
                        generation,
                        payload: Err(e),
                    });
                    break 'pass;
                }
            }
            // A reset may overtake a long pass; check without blocking.
            match cmd_rx.try_recv() {
                Ok(Cmd::Recycle(b)) => pool.push(b),
                Ok(Cmd::Start(g)) => {
                    pending = Some(g);
                    break 'pass;
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => return,
            }
        }
    }
}

/// A background-thread prefetching [`EdgeStream`] over any [`ChunkSource`].
pub struct PrefetchReader {
    cmd_tx: Option<Sender<Cmd>>,
    data_rx: Receiver<Msg>,
    handle: Option<JoinHandle<()>>,
    generation: u64,
    current: Vec<Edge>,
    pos: usize,
    pass_done: bool,
    /// Nothing of the pass in flight has been read yet, so a `reset` may
    /// keep it instead of restarting the worker.
    fresh: bool,
    info: Option<GraphInfo>,
}

impl PrefetchReader {
    /// Spawn the worker over `source` and begin prefetching the first pass.
    pub fn new<S: ChunkSource + 'static>(source: S, cfg: PrefetchConfig) -> Self {
        let info = source.info();
        let (cmd_tx, cmd_rx) = std::sync::mpsc::channel();
        let (data_tx, data_rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("tps-io-prefetch".into())
            .spawn(move || worker_loop(source, cfg, cmd_rx, data_tx))
            .expect("spawn prefetch worker");
        let _ = cmd_tx.send(Cmd::Start(0));
        PrefetchReader {
            cmd_tx: Some(cmd_tx),
            data_rx,
            handle: Some(handle),
            generation: 0,
            current: Vec::new(),
            pos: 0,
            pass_done: false,
            fresh: true,
            info,
        }
    }

    fn send(&self, cmd: Cmd) -> io::Result<()> {
        self.cmd_tx
            .as_ref()
            .expect("prefetch worker already shut down")
            .send(cmd)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "prefetch worker exited"))
    }
}

impl EdgeStream for PrefetchReader {
    fn reset(&mut self) -> io::Result<()> {
        if self.fresh {
            // The pass in flight is unread: it already is a fresh one.
            return Ok(());
        }
        self.fresh = true;
        if !self.current.is_empty() {
            let stale = std::mem::take(&mut self.current);
            let _ = self.send(Cmd::Recycle(stale));
        }
        self.pos = 0;
        self.pass_done = false;
        self.generation += 1;
        self.send(Cmd::Start(self.generation))
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        if !self.fill()? {
            return Ok(None);
        }
        let e = self.current[self.pos];
        self.pos += 1;
        Ok(Some(e))
    }

    /// Lends what is left of the block the worker thread produced.
    fn next_chunk<'a>(&'a mut self, _scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        self.fill()?;
        let run = &self.current[self.pos..];
        self.pos = self.current.len();
        Ok(run)
    }

    fn len_hint(&self) -> Option<u64> {
        self.info.map(|i| i.num_edges)
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        self.info.map(|i| i.num_vertices)
    }
}

impl PrefetchReader {
    /// Make sure `current` holds unread edges, receiving the worker's next
    /// block when it is drained; `false` at end of pass.
    fn fill(&mut self) -> io::Result<bool> {
        self.fresh = false;
        loop {
            if self.pos < self.current.len() {
                return Ok(true);
            }
            if self.pass_done {
                return Ok(false);
            }
            if !self.current.is_empty() {
                let drained = std::mem::take(&mut self.current);
                self.pos = 0;
                let _ = self.send(Cmd::Recycle(drained));
            }
            let msg = self
                .data_rx
                .recv()
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "prefetch worker exited"))?;
            if msg.generation != self.generation {
                // Chunk from an abandoned pass: recycle and keep waiting.
                if let Ok(Some(stale)) = msg.payload {
                    let _ = self.send(Cmd::Recycle(stale));
                }
                continue;
            }
            match msg.payload {
                Ok(Some(chunk)) => {
                    self.current = chunk;
                    self.pos = 0;
                }
                Ok(None) => {
                    self.pass_done = true;
                    return Ok(false);
                }
                Err(e) => {
                    self.pass_done = true;
                    return Err(e);
                }
            }
        }
    }
}

impl Drop for PrefetchReader {
    fn drop(&mut self) {
        // Closing the command channel stops the worker at its next recv.
        drop(self.cmd_tx.take());
        // Drain data so a worker blocked on send (unbounded mpsc never
        // blocks, but be robust to future bounded channels) can exit.
        while self.data_rx.try_recv().is_ok() {}
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranged::{RangedPrefetchSource, RangedV1File, RangedV2File};
    use std::path::PathBuf;
    use tps_graph::formats::binary as v1;
    use tps_graph::ranged::RangedEdgeSource;
    use tps_graph::stream::for_each_edge;

    fn tmpfile(tag: &str, ext: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "tps-io-prefetch-{tag}-{}.{ext}",
            std::process::id()
        ))
    }

    fn edges(n: u32) -> Vec<Edge> {
        (0..n)
            .map(|i| Edge::new(i % 321, (i * 17 + 3) % 4096))
            .collect()
    }

    /// A v1 file of `es` behind a prefetch thread configured with `cfg`.
    fn v1_source(path: &PathBuf, es: &[Edge], cfg: PrefetchConfig) -> impl RangedEdgeSource {
        v1::write_binary_edge_list(path, 4096, es.iter().copied()).unwrap();
        RangedPrefetchSource::with_config(RangedV1File::open(path).unwrap(), cfg)
    }

    #[test]
    fn v1_prefetch_matches_file_order_across_passes() {
        let path = tmpfile("v1", "bel");
        let es = edges(50_000);
        let cfg = PrefetchConfig {
            chunk_edges: 777,
            buffers: 3,
        };
        let src = v1_source(&path, &es, cfg);
        let mut r = src.open_range(0, 50_000).unwrap();
        assert_eq!(r.len_hint(), Some(50_000));
        assert_eq!(r.num_vertices_hint(), Some(4096));
        for _pass in 0..3 {
            let mut seen = Vec::new();
            for_each_edge(&mut r, |e| seen.push(e)).unwrap();
            assert_eq!(seen, es);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_prefetch_matches_file_order() {
        let path = tmpfile("v2", "bel2");
        let es = edges(20_000);
        crate::v2::write_v2_edge_list(&path, 4096, es.iter().copied(), 1000).unwrap();
        let src = RangedPrefetchSource::new(RangedV2File::open(&path).unwrap());
        let mut r = src.open_range(0, 20_000).unwrap();
        assert_eq!(r.num_vertices_hint(), Some(4096));
        let mut seen = Vec::new();
        for_each_edge(&mut r, |e| seen.push(e)).unwrap();
        assert_eq!(seen, es);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_mid_pass_restarts_cleanly() {
        let path = tmpfile("midreset", "bel");
        let es = edges(10_000);
        let cfg = PrefetchConfig {
            chunk_edges: 64,
            buffers: 2,
        };
        let src = v1_source(&path, &es, cfg);
        let mut r = src.open_range(0, 10_000).unwrap();
        // Consume a fragment of the first pass, then reset repeatedly.
        for _ in 0..3 {
            for _ in 0..100 {
                r.next_edge().unwrap().expect("stream too short");
            }
            r.reset().unwrap();
        }
        let mut seen = Vec::new();
        for_each_edge(&mut r, |e| seen.push(e)).unwrap();
        assert_eq!(seen, es);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let path = tmpfile("empty", "bel");
        let src = v1_source(&path, &[], PrefetchConfig::default());
        let mut r = src.open_range(0, 0).unwrap();
        assert_eq!(r.next_edge().unwrap(), None);
        r.reset().unwrap();
        assert_eq!(r.next_edge().unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_mid_pass_does_not_hang() {
        let path = tmpfile("drop", "bel");
        let es = edges(30_000);
        let src = v1_source(&path, &es, PrefetchConfig::default());
        let mut r = src.open_range(0, 30_000).unwrap();
        r.next_edge().unwrap();
        drop(r); // must join the worker without deadlock
        std::fs::remove_file(&path).ok();
    }
}
