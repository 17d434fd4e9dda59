//! The out-of-core edge-stream abstraction.
//!
//! Streaming edge partitioning (paper §II-B) decides *one edge at a time* and
//! may perform several complete passes (degree pass, clustering pass(es),
//! pre-partitioning pass, partitioning pass). [`EdgeStream`] is that
//! contract: `reset` rewinds to the beginning, and the pass is then read in
//! the stream's fixed order. A conforming consumer never stores the edge set,
//! so its memory use is `O(|V|·k)` at most — exactly the paper's Table II
//! bound.
//!
//! Edges *move* in chunks. [`EdgeStream::next_chunk`] is the read every pass
//! loop of the engine uses: it lends a run of the stream's own buffer — a
//! block read from disk, a decoded v2 chunk, an unpacked spilled block — so a
//! pass pays one (possibly virtual) call per chunk and the per-edge work is
//! a plain slice iteration the compiler can inline the kernel into.
//! [`EdgeStream::next_edge`] stays the required primitive (a stream that
//! implements nothing else gets a `next_chunk` that fills a scratch buffer
//! from it), and the two reads may be mixed freely within a pass: both
//! advance the same cursor. [`for_each_chunk`] / [`for_each_edge`] run one
//! whole pass.
//!
//! Implementations in this workspace:
//!
//! * [`InMemoryGraph`] — a `Vec<Edge>` backed stream. Used by tests, the
//!   generators and the benchmark harness (the paper itself evaluates with the
//!   page cache hot, which this models faithfully).
//! * `tps_io::RangedFile`'s cursor — the on-disk edge lists (the
//!   [`formats::binary`](crate::formats::binary) v1 layout and the
//!   compressed TPSBEL2 one), read a block at a time through a file
//!   handle; `tps_io::open_edge_stream` opens one.
//! * `tps_storage::DeviceStream` — a throttled, virtual-clock device model.

use std::io;

use crate::types::{Edge, GraphInfo, VertexId};

/// Edges per run of the bulk read: what a block reader fetches per `read`
/// and the longest window a slice-backed stream lends. 64 KiB of v1 records
/// — a constant of the data plane, not a knob.
pub const CHUNK_EDGES: usize = 1 << 13;

/// A resettable, multi-pass stream of edges — the out-of-core view of a graph.
///
/// The same instance is reused for all passes of a partitioning run, so the
/// order of edges is identical across passes (the paper's algorithms rely on
/// pre-partitioning and partitioning passes observing the same stream).
pub trait EdgeStream {
    /// Rewind to the beginning of the stream, starting a fresh pass.
    fn reset(&mut self) -> io::Result<()>;

    /// The next edge of the current pass, or `None` when the pass is done.
    fn next_edge(&mut self) -> io::Result<Option<Edge>>;

    /// The next run of edges of the current pass; empty when the pass is
    /// done.
    ///
    /// Readers override this to lend their own buffer, in which case
    /// `scratch` is left untouched; the default fills `scratch` with up to
    /// [`CHUNK_EDGES`] edges from [`next_edge`](EdgeStream::next_edge). A
    /// run is never longer than what the stream already buffers, so a
    /// consumer holds no second copy of it. Advances the same cursor as
    /// `next_edge`.
    fn next_chunk<'a>(&'a mut self, scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        scratch.clear();
        while scratch.len() < CHUNK_EDGES {
            match self.next_edge()? {
                Some(e) => scratch.push(e),
                None => break,
            }
        }
        Ok(scratch)
    }

    /// Number of edges per pass, if known ahead of time.
    fn len_hint(&self) -> Option<u64> {
        None
    }

    /// Number of vertices (`max id + 1`), if known ahead of time.
    ///
    /// All streams in this workspace know their vertex count: the binary file
    /// format stores it in a header and generators know it by construction.
    /// A stream that does not know it forces consumers to discover the bound
    /// with an extra pass (see [`discover_info`]).
    fn num_vertices_hint(&self) -> Option<u64> {
        None
    }
}

/// Blanket impl so `&mut S` can be passed where an `EdgeStream` is expected.
impl<S: EdgeStream + ?Sized> EdgeStream for &mut S {
    fn reset(&mut self) -> io::Result<()> {
        (**self).reset()
    }
    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        (**self).next_edge()
    }
    fn next_chunk<'a>(&'a mut self, scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        (**self).next_chunk(scratch)
    }
    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }
    fn num_vertices_hint(&self) -> Option<u64> {
        (**self).num_vertices_hint()
    }
}

impl<S: EdgeStream + ?Sized> EdgeStream for Box<S> {
    fn reset(&mut self) -> io::Result<()> {
        (**self).reset()
    }
    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        (**self).next_edge()
    }
    fn next_chunk<'a>(&'a mut self, scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        (**self).next_chunk(scratch)
    }
    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }
    fn num_vertices_hint(&self) -> Option<u64> {
        (**self).num_vertices_hint()
    }
}

/// Run one complete pass over the stream, calling `f` per chunk; an error
/// from `f` ends the pass.
///
/// Resets the stream first, so each call is an independent pass.
pub fn for_each_chunk<S, F>(stream: &mut S, mut f: F) -> io::Result<()>
where
    S: EdgeStream + ?Sized,
    F: FnMut(&[Edge]) -> io::Result<()>,
{
    stream.reset()?;
    let mut scratch = Vec::new();
    loop {
        let chunk = stream.next_chunk(&mut scratch)?;
        if chunk.is_empty() {
            return Ok(());
        }
        f(chunk)?;
    }
}

/// Run one complete pass over the stream, calling `f` per edge.
///
/// Resets the stream first, so each call is an independent pass.
pub fn for_each_edge<S, F>(stream: &mut S, mut f: F) -> io::Result<()>
where
    S: EdgeStream + ?Sized,
    F: FnMut(Edge),
{
    for_each_chunk(stream, |chunk| {
        chunk.iter().for_each(|&e| f(e));
        Ok(())
    })
}

/// Advance `cursor` over `edges` by one lent run of at most [`CHUNK_EDGES`]
/// (the bulk read of every slice-backed stream).
#[inline]
pub fn lend_run<'a>(edges: &'a [Edge], cursor: &mut usize) -> &'a [Edge] {
    let start = *cursor;
    let end = edges.len().min(start + CHUNK_EDGES);
    *cursor = end;
    &edges[start..end]
}

/// Discover `(num_vertices, num_edges)` with a single pass, for streams that
/// lack hints. Returns the hints without a pass when both are present.
pub fn discover_info<S: EdgeStream + ?Sized>(stream: &mut S) -> io::Result<GraphInfo> {
    if let (Some(v), Some(e)) = (stream.num_vertices_hint(), stream.len_hint()) {
        return Ok(GraphInfo {
            num_vertices: v,
            num_edges: e,
        });
    }
    let mut max_v: Option<VertexId> = None;
    let mut edges = 0u64;
    for_each_edge(stream, |e| {
        edges += 1;
        let m = e.src.max(e.dst);
        max_v = Some(max_v.map_or(m, |cur| cur.max(m)));
    })?;
    Ok(GraphInfo {
        num_vertices: max_v.map_or(0, |m| m as u64 + 1),
        num_edges: edges,
    })
}

/// An in-memory edge list exposing the streaming interface.
///
/// This is the workhorse for tests, generators and page-cache-hot benchmarks.
/// It is *not* a violation of the out-of-core model from the consumer's point
/// of view: consumers only see the `EdgeStream` trait.
#[derive(Clone, Debug)]
pub struct InMemoryGraph {
    edges: Vec<Edge>,
    num_vertices: u64,
    cursor: usize,
}

impl InMemoryGraph {
    /// Build from an edge list, computing the vertex count as `max id + 1`.
    pub fn from_edges(edges: Vec<Edge>) -> Self {
        let num_vertices = edges
            .iter()
            .map(|e| e.src.max(e.dst) as u64 + 1)
            .max()
            .unwrap_or(0);
        InMemoryGraph {
            edges,
            num_vertices,
            cursor: 0,
        }
    }

    /// Build from an edge list with an explicit vertex-count (allows trailing
    /// isolated vertices, which do exist in real datasets).
    ///
    /// # Panics
    /// Panics if an edge references a vertex `>= num_vertices`.
    pub fn with_num_vertices(edges: Vec<Edge>, num_vertices: u64) -> Self {
        for e in &edges {
            assert!(
                (e.src as u64) < num_vertices && (e.dst as u64) < num_vertices,
                "edge {e:?} out of bounds for |V| = {num_vertices}"
            );
        }
        InMemoryGraph {
            edges,
            num_vertices,
            cursor: 0,
        }
    }

    /// Borrow the underlying edge slice (tests and in-memory baselines).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Number of edges.
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// A fresh stream positioned at the start (clones the handle, shares no
    /// cursor with `self`).
    pub fn stream(&self) -> InMemoryGraph {
        InMemoryGraph {
            edges: self.edges.clone(),
            num_vertices: self.num_vertices,
            cursor: 0,
        }
    }

    /// Graph summary.
    pub fn info(&self) -> GraphInfo {
        GraphInfo {
            num_vertices: self.num_vertices,
            num_edges: self.edges.len() as u64,
        }
    }
}

impl EdgeStream for InMemoryGraph {
    fn reset(&mut self) -> io::Result<()> {
        self.cursor = 0;
        Ok(())
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        match self.edges.get(self.cursor) {
            Some(&e) => {
                self.cursor += 1;
                Ok(Some(e))
            }
            None => Ok(None),
        }
    }

    fn next_chunk<'a>(&'a mut self, _scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        Ok(lend_run(&self.edges, &mut self.cursor))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.edges.len() as u64)
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.num_vertices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> InMemoryGraph {
        InMemoryGraph::from_edges(vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)])
    }

    #[test]
    fn in_memory_single_pass() {
        let mut g = tri();
        let mut seen = Vec::new();
        while let Some(e) = g.next_edge().unwrap() {
            seen.push(e);
        }
        assert_eq!(
            seen,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)]
        );
        assert_eq!(g.next_edge().unwrap(), None);
    }

    #[test]
    fn reset_allows_identical_second_pass() {
        let mut g = tri();
        let mut first = Vec::new();
        for_each_edge(&mut g, |e| first.push(e)).unwrap();
        let mut second = Vec::new();
        for_each_edge(&mut g, |e| second.push(e)).unwrap();
        assert_eq!(first, second);
        assert_eq!(first.len(), 3);
    }

    #[test]
    fn hints_are_exact() {
        let g = tri();
        assert_eq!(g.len_hint(), Some(3));
        assert_eq!(g.num_vertices_hint(), Some(3));
    }

    #[test]
    fn empty_graph() {
        let mut g = InMemoryGraph::from_edges(vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.next_edge().unwrap(), None);
        let info = discover_info(&mut g).unwrap();
        assert_eq!(
            info,
            GraphInfo {
                num_vertices: 0,
                num_edges: 0
            }
        );
    }

    #[test]
    fn with_num_vertices_allows_isolated_tail() {
        let g = InMemoryGraph::with_num_vertices(vec![Edge::new(0, 1)], 10);
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn with_num_vertices_rejects_oob() {
        InMemoryGraph::with_num_vertices(vec![Edge::new(0, 10)], 5);
    }

    #[test]
    fn discover_info_counts_without_hints() {
        // Wrap to erase hints.
        struct NoHints(InMemoryGraph);
        impl EdgeStream for NoHints {
            fn reset(&mut self) -> io::Result<()> {
                self.0.reset()
            }
            fn next_edge(&mut self) -> io::Result<Option<Edge>> {
                self.0.next_edge()
            }
        }
        let mut s = NoHints(tri());
        let info = discover_info(&mut s).unwrap();
        assert_eq!(
            info,
            GraphInfo {
                num_vertices: 3,
                num_edges: 3
            }
        );
    }

    #[test]
    fn stream_through_dyn_reference() {
        let mut g = tri();
        let dyn_stream: &mut dyn EdgeStream = &mut g;
        let mut n = 0;
        for_each_edge(dyn_stream, |_| n += 1).unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn boxed_stream_works() {
        let mut b: Box<dyn EdgeStream> = Box::new(tri());
        let mut n = 0;
        for_each_edge(&mut b, |_| n += 1).unwrap();
        assert_eq!(n, 3);
    }
}
