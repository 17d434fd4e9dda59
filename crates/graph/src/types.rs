//! Core identifier and edge types shared across the workspace.
//!
//! The paper (and its reference implementation) use dense 32-bit vertex ids;
//! we follow that choice: it halves the memory of every per-vertex array and
//! matches the binary edge-list format of Table III.

use std::fmt;

/// A vertex identifier. Dense, 0-based, 32-bit (the paper's format).
pub type VertexId = u32;

/// A partition identifier in `0..k`. `k` never exceeds a few thousand in any
/// realistic deployment, but we keep the full 32-bit range for safety.
pub type PartitionId = u32;

/// A cluster identifier produced by the phase-1 streaming clustering.
/// There can be at most one cluster per vertex, so 32 bits suffice.
pub type ClusterId = u32;

/// An undirected edge between two vertices.
///
/// Streaming edge partitioning treats the graph as undirected: an edge
/// `(u, v)` covers both endpoints regardless of direction. We nevertheless
/// preserve the order in which endpoints appear in the input because the
/// algorithms in the paper are sensitive to it (e.g. tie-breaking in the
/// two-choice scoring favours the first endpoint's cluster partition).
///
/// `repr(C)`: on a little-endian target the in-memory layout is the 8-byte
/// `TPSBEL1` record, which is what lets the v1 readers fill and lend edge
/// buffers without a per-edge decode (see `formats::binary`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(C)]
pub struct Edge {
    /// First endpoint as it appeared in the stream.
    pub src: VertexId,
    /// Second endpoint as it appeared in the stream.
    pub dst: VertexId,
}

impl Edge {
    /// Create an edge. No normalisation is applied; see [`Edge::canonical`].
    #[inline]
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Edge { src, dst }
    }

    /// The edge with endpoints ordered `(min, max)`. Useful for deduplication
    /// and for treating the graph as undirected in tests and generators.
    #[inline]
    pub fn canonical(self) -> Self {
        if self.src <= self.dst {
            self
        } else {
            Edge {
                src: self.dst,
                dst: self.src,
            }
        }
    }

    /// Whether this edge is a self-loop. Self-loops carry no information for
    /// edge partitioning (a single vertex is replicated wherever the edge
    /// goes) but must still be assigned exactly once.
    #[inline]
    pub fn is_self_loop(self) -> bool {
        self.src == self.dst
    }

    /// Iterate over the two endpoints in stream order.
    #[inline]
    pub fn endpoints(self) -> [VertexId; 2] {
        [self.src, self.dst]
    }

    /// Given one endpoint, return the other one.
    ///
    /// # Panics
    /// Panics in debug builds if `v` is not an endpoint of this edge.
    #[inline]
    pub fn other(self, v: VertexId) -> VertexId {
        debug_assert!(v == self.src || v == self.dst);
        if v == self.src {
            self.dst
        } else {
            self.src
        }
    }
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.src, self.dst)
    }
}

impl From<(VertexId, VertexId)> for Edge {
    #[inline]
    fn from((src, dst): (VertexId, VertexId)) -> Self {
        Edge { src, dst }
    }
}

/// Summary statistics of a graph, as carried by streams that know them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphInfo {
    /// Number of vertices (ids are `0..num_vertices`).
    pub num_vertices: u64,
    /// Number of edges in the stream (including duplicates/self-loops if any).
    pub num_edges: u64,
}

impl GraphInfo {
    /// Mean degree `2|E| / |V|` (0 for an empty vertex set).
    pub fn mean_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_vertices as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_orders_endpoints() {
        assert_eq!(Edge::new(5, 3).canonical(), Edge::new(3, 5));
        assert_eq!(Edge::new(3, 5).canonical(), Edge::new(3, 5));
        assert_eq!(Edge::new(4, 4).canonical(), Edge::new(4, 4));
    }

    #[test]
    fn self_loop_detection() {
        assert!(Edge::new(7, 7).is_self_loop());
        assert!(!Edge::new(7, 8).is_self_loop());
    }

    #[test]
    fn other_endpoint() {
        let e = Edge::new(1, 2);
        assert_eq!(e.other(1), 2);
        assert_eq!(e.other(2), 1);
    }

    #[test]
    fn endpoints_in_stream_order() {
        assert_eq!(Edge::new(9, 4).endpoints(), [9, 4]);
    }

    #[test]
    fn mean_degree() {
        let info = GraphInfo {
            num_vertices: 4,
            num_edges: 6,
        };
        assert!((info.mean_degree() - 3.0).abs() < 1e-12);
        let empty = GraphInfo::default();
        assert_eq!(empty.mean_degree(), 0.0);
    }

    #[test]
    fn edge_from_tuple() {
        let e: Edge = (1u32, 2u32).into();
        assert_eq!(e, Edge::new(1, 2));
    }
}
