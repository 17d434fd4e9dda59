//! Double-buffered prefetching: overlap disk reads with partitioning CPU.
//!
//! The paper's read-process loop is strictly serial — each pass pays
//! `io_time + cpu_time`. [`PrefetchReader`] moves the reading onto a
//! background thread: the worker fills fixed-size edge chunks while the
//! partitioner consumes the previous chunk, so a pass costs
//! `max(io_time, cpu_time)` plus one chunk of latency.
//!
//! Two buffers of 64 Ki edges cycle between the two threads (classic double
//! buffering): the consumer returns a drained chunk to the worker instead of
//! allocating, so steady-state memory is 1 MiB regardless of graph size.
//!
//! The worker reads any owned [`EdgeStream`]; the `prefetch` reader backend
//! hands it one range cursor of a file (`crate::ranged::RangedPrefetchSource`).
//! `reset` is a generation bump: stale chunks from an abandoned pass are
//! recycled on receipt (and a `reset` before the first read keeps the pass
//! in flight), so multi-pass algorithms (the 2PS-L degree / clustering /
//! partitioning passes) observe the exact same edge order every pass with
//! no worker restart.

use std::io;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;

use tps_graph::stream::EdgeStream;
use tps_graph::types::Edge;

/// Edges per chunk buffer (a fill may overshoot it by less than one of the
/// stream's own runs).
const PREFETCH_EDGES: usize = 1 << 16;

/// Buffers cycling between the worker and the consumer.
const BUFFERS: usize = 2;

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

/// Append the stream's next runs to `buf` until it holds `PREFETCH_EDGES`
/// or the pass ends. A lent run is taken whole.
fn fill(
    stream: &mut dyn EdgeStream,
    buf: &mut Vec<Edge>,
    scratch: &mut Vec<Edge>,
) -> io::Result<()> {
    while buf.len() < PREFETCH_EDGES {
        let run = stream.next_chunk(scratch)?;
        if run.is_empty() {
            break;
        }
        buf.extend_from_slice(run);
    }
    Ok(())
}

fn worker_loop(
    mut stream: Box<dyn EdgeStream + Send>,
    cmd_rx: Receiver<Cmd>,
    data_tx: Sender<Msg>,
) {
    let mut pool: Vec<Vec<Edge>> = (0..BUFFERS)
        .map(|_| Vec::with_capacity(PREFETCH_EDGES))
        .collect();
    // For a stream without a bulk read of its own; the file cursors lend.
    let mut scratch = Vec::new();
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
        if let Err(e) = stream.reset() {
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
            match fill(&mut *stream, &mut buf, &mut scratch) {
                Ok(()) if buf.is_empty() => {
                    pool.push(buf);
                    let _ = data_tx.send(Msg {
                        generation,
                        payload: Ok(None),
                    });
                    break 'pass;
                }
                Ok(()) => {
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

/// A background-thread prefetching [`EdgeStream`] over an owned stream.
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
    len_hint: Option<u64>,
    num_vertices_hint: Option<u64>,
}

impl PrefetchReader {
    /// Move `stream` onto a worker thread and begin prefetching its first
    /// pass.
    pub fn new(stream: Box<dyn EdgeStream + Send>) -> Self {
        let (len_hint, num_vertices_hint) = (stream.len_hint(), stream.num_vertices_hint());
        let (cmd_tx, cmd_rx) = std::sync::mpsc::channel();
        let (data_tx, data_rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("tps-io-prefetch".into())
            .spawn(move || worker_loop(stream, cmd_rx, data_tx))
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
            len_hint,
            num_vertices_hint,
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
        self.len_hint
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        self.num_vertices_hint
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
    use crate::ranged::{RangedFile, RangedPrefetchSource};
    use std::path::PathBuf;
    use tps_graph::formats::binary as v1;
    use tps_graph::ranged::RangedEdgeSource;
    use tps_graph::stream::{for_each_edge, InMemoryGraph};

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

    /// A stream with no bulk read of its own: the worker fills its blocks
    /// one edge at a time through the default `next_chunk`.
    struct PerEdge(InMemoryGraph);

    impl EdgeStream for PerEdge {
        fn reset(&mut self) -> io::Result<()> {
            self.0.reset()
        }
        fn next_edge(&mut self) -> io::Result<Option<Edge>> {
            self.0.next_edge()
        }
        fn len_hint(&self) -> Option<u64> {
            self.0.len_hint()
        }
        fn num_vertices_hint(&self) -> Option<u64> {
            self.0.num_vertices_hint()
        }
    }

    /// Several blocks' worth of edges behind a prefetch thread.
    fn prefetched(es: &[Edge]) -> PrefetchReader {
        let graph = InMemoryGraph::with_num_vertices(es.to_vec(), 4096);
        PrefetchReader::new(Box::new(PerEdge(graph)))
    }

    #[test]
    fn v1_prefetch_matches_file_order_across_passes() {
        let path = tmpfile("v1", "bel");
        let es = edges(50_000);
        v1::write_binary_edge_list(&path, 4096, es.iter().copied()).unwrap();
        let src = RangedPrefetchSource::new(RangedFile::read(&path).unwrap());
        let mut r = src.open_range(0, 50_000).unwrap();
        assert_eq!(r.len_hint(), Some(50_000));
        assert_eq!(r.num_vertices_hint(), Some(4096));
        for _pass in 0..3 {
            let mut seen = Vec::new();
            for_each_edge(&mut r, |e| seen.push(e)).unwrap();
            assert_eq!(seen, es);
        }
        // And over a stream that spans several blocks.
        let es = edges(3 * PREFETCH_EDGES as u32 + 777);
        let mut r = prefetched(&es);
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
        let src = RangedPrefetchSource::new(RangedFile::read(&path).unwrap());
        let mut r = src.open_range(0, 20_000).unwrap();
        assert_eq!(r.num_vertices_hint(), Some(4096));
        let mut seen = Vec::new();
        for_each_edge(&mut r, |e| seen.push(e)).unwrap();
        assert_eq!(seen, es);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_mid_pass_restarts_cleanly() {
        let es = edges(3 * PREFETCH_EDGES as u32 + 100);
        let mut r = prefetched(&es);
        // Consume a fragment of the first pass, then reset repeatedly —
        // once in the first block, once in a later one.
        for skip in [100, 100, PREFETCH_EDGES + 5] {
            for _ in 0..skip {
                r.next_edge().unwrap().expect("stream too short");
            }
            r.reset().unwrap();
        }
        let mut seen = Vec::new();
        for_each_edge(&mut r, |e| seen.push(e)).unwrap();
        assert_eq!(seen, es);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let mut r = prefetched(&[]);
        assert_eq!(r.len_hint(), Some(0));
        assert_eq!(r.next_edge().unwrap(), None);
        r.reset().unwrap();
        assert_eq!(r.next_edge().unwrap(), None);
    }

    #[test]
    fn drop_mid_pass_does_not_hang() {
        let mut r = prefetched(&edges(3 * PREFETCH_EDGES as u32));
        r.next_edge().unwrap();
        drop(r); // must join the worker without deadlock
    }
}
