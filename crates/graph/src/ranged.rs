//! Range-addressable edge sources — the substrate of chunk-parallel
//! execution.
//!
//! A [`RangedEdgeSource`] can open an independent [`EdgeStream`] over any
//! contiguous sub-range `[start, end)` of the canonical edge order. Worker
//! threads each open their own range stream, so a parallel pass never shares
//! a cursor. Crucially the ranges are expressed in **edge indices**, not
//! storage chunks: a partitioning run that splits `|E|` edges over `t`
//! threads therefore produces the same per-thread work lists for the
//! in-memory, v1 and v2 backends alike, which keeps parallel partitioning
//! results independent of the storage format (see `tps-core::parallel`).
//!
//! File-backed implementations live in `tps-io` (fixed-width record seeking
//! for v1, chunk-index scheduling with intra-chunk skip for v2); the
//! in-memory implementation for [`InMemoryGraph`] lives here.

use std::io;

use crate::stream::{lend_run, EdgeStream, InMemoryGraph};
use crate::types::{Edge, GraphInfo};

/// A thread-safe factory of edge streams over sub-ranges of the edge order.
///
/// Implementations must be cheap to call concurrently: `open_range` is
/// invoked once per worker thread, and every returned stream must observe
/// the same canonical edge order as a full sequential pass.
pub trait RangedEdgeSource: Sync {
    /// Graph summary (vertex and edge counts of the *full* stream).
    fn info(&self) -> GraphInfo;

    /// Open a stream over edges `[start, end)` of the canonical order.
    ///
    /// `reset` on the returned stream rewinds to `start`, not to the
    /// beginning of the underlying storage. Errors if `start > end` or
    /// `end` exceeds the edge count.
    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>>;
}

/// A borrowed source is a source, so `&S` can be boxed where a
/// `Box<dyn RangedEdgeSource>` is expected.
impl<S: RangedEdgeSource + ?Sized> RangedEdgeSource for &S {
    fn info(&self) -> GraphInfo {
        (**self).info()
    }
    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        (**self).open_range(start, end)
    }
}

/// Validate a requested range against the source's edge count.
pub fn check_range(start: u64, end: u64, num_edges: u64) -> io::Result<()> {
    if start > end || end > num_edges {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("edge range [{start}, {end}) out of bounds for |E| = {num_edges}"),
        ));
    }
    Ok(())
}

/// Split `[0, num_edges)` into `parts` contiguous ranges of near-equal size
/// (every range is within one edge of `num_edges / parts`). Deterministic;
/// trailing ranges may be empty when `parts > num_edges`.
pub fn split_even(num_edges: u64, parts: usize) -> Vec<(u64, u64)> {
    let p = parts.max(1) as u128;
    let e = num_edges as u128;
    (0..p)
        .map(|t| (((e * t) / p) as u64, ((e * (t + 1)) / p) as u64))
        .collect()
}

/// An [`EdgeStream`] over a borrowed edge slice (one range of an in-memory
/// graph).
pub struct EdgeSliceStream<'a> {
    edges: &'a [Edge],
    num_vertices: u64,
    cursor: usize,
}

impl<'a> EdgeSliceStream<'a> {
    /// Stream over `edges`, reporting `num_vertices` for the parent graph.
    pub fn new(edges: &'a [Edge], num_vertices: u64) -> Self {
        EdgeSliceStream {
            edges,
            num_vertices,
            cursor: 0,
        }
    }
}

impl EdgeStream for EdgeSliceStream<'_> {
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

    fn next_chunk<'b>(&'b mut self, _scratch: &'b mut Vec<Edge>) -> io::Result<&'b [Edge]> {
        Ok(lend_run(self.edges, &mut self.cursor))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.edges.len() as u64)
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        Some(self.num_vertices)
    }
}

impl RangedEdgeSource for InMemoryGraph {
    fn info(&self) -> GraphInfo {
        InMemoryGraph::info(self)
    }

    fn open_range(&self, start: u64, end: u64) -> io::Result<Box<dyn EdgeStream + '_>> {
        check_range(start, end, self.num_edges())?;
        Ok(Box::new(EdgeSliceStream::new(
            &self.edges()[start as usize..end as usize],
            self.num_vertices(),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::for_each_edge;

    fn graph(n: u32) -> InMemoryGraph {
        InMemoryGraph::from_edges((0..n).map(|i| Edge::new(i % 7, (i * 3 + 1) % 11)).collect())
    }

    #[test]
    fn split_even_covers_exactly() {
        for (edges, parts) in [(0u64, 4), (1, 4), (10, 3), (100, 7), (5, 8)] {
            let ranges = split_even(edges, parts);
            assert_eq!(ranges.len(), parts);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[parts - 1].1, edges);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges not contiguous: {ranges:?}");
            }
            let sizes: Vec<u64> = ranges.iter().map(|(a, b)| b - a).collect();
            let (lo, hi) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "uneven split: {sizes:?}");
        }
    }

    #[test]
    fn ranges_reassemble_the_full_pass() {
        let g = graph(100);
        let mut full = Vec::new();
        for_each_edge(&mut g.stream(), |e| full.push(e)).unwrap();
        for parts in [1usize, 2, 3, 8, 200] {
            let mut seen = Vec::new();
            for (a, b) in split_even(g.num_edges(), parts) {
                let mut s = g.open_range(a, b).unwrap();
                for_each_edge(&mut s, |e| seen.push(e)).unwrap();
            }
            assert_eq!(seen, full, "parts = {parts}");
        }
    }

    #[test]
    fn range_stream_resets_to_range_start() {
        let g = graph(50);
        let mut s = g.open_range(10, 20).unwrap();
        let mut first = Vec::new();
        for_each_edge(&mut s, |e| first.push(e)).unwrap();
        let mut second = Vec::new();
        for_each_edge(&mut s, |e| second.push(e)).unwrap();
        assert_eq!(first.len(), 10);
        assert_eq!(first, second);
        assert_eq!(first[0], g.edges()[10]);
    }

    #[test]
    fn out_of_bounds_range_rejected() {
        let g = graph(10);
        assert!(g.open_range(0, 11).is_err());
        assert!(g.open_range(5, 4).is_err());
        assert!(g.open_range(10, 10).is_ok(), "empty tail range is valid");
    }

    #[test]
    fn empty_graph_has_one_empty_range() {
        let g = InMemoryGraph::from_edges(vec![]);
        let mut s = g.open_range(0, 0).unwrap();
        assert_eq!(s.next_edge().unwrap(), None);
    }
}
