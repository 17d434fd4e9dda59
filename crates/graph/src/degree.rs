//! The out-of-core degree pass.
//!
//! 2PS-L (paper §III-A2) requires *exact* vertex degrees before clustering so
//! that cluster volumes can be bounded effectively: "The degree of each vertex
//! is computed in a pass through the edge set, keeping a counter for each
//! vertex ID that is seen in an edge, which is a lightweight, linear-time
//! operation." DBH likewise hashes on the lower-degree endpoint.
//!
//! [`DegreeTable`] is that counter array: `O(|V|)` memory. The pass counts
//! in one `u32` per vertex (saturating rather than wrapping), then packs
//! the table into the bytes its largest degree needs ([`PackedU32s`]): one
//! byte per vertex on a web graph whose largest degree is below 256, two
//! on a social graph below 65 536.

use std::io;

use crate::packed::PackedU32s;
use crate::stream::{for_each_edge, EdgeStream};
use crate::types::VertexId;

/// Exact vertex degrees, computed in one streaming pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegreeTable {
    degrees: PackedU32s,
}

impl DegreeTable {
    /// Compute degrees with one pass over `stream`.
    ///
    /// `num_vertices` bounds the id space; edges touching ids outside it
    /// return an error (corrupt input) rather than panicking mid-pass.
    pub fn compute<S: EdgeStream + ?Sized>(stream: &mut S, num_vertices: u64) -> io::Result<Self> {
        let mut degrees = vec![0u32; num_vertices as usize];
        let mut oob: Option<VertexId> = None;
        for_each_edge(stream, |e| {
            for v in e.endpoints() {
                match degrees.get_mut(v as usize) {
                    Some(d) => *d = d.saturating_add(1),
                    None => oob = oob.or(Some(v)),
                }
            }
        })?;
        match oob {
            Some(v) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("edge references vertex {v} >= |V| = {num_vertices}"),
            )),
            None => Ok(DegreeTable::from_vec(degrees)),
        }
    }

    /// Pack a counted degree array (a pass's counters, a merge's sums, a
    /// distributed worker's `Globals` frame).
    pub fn from_vec(degrees: Vec<u32>) -> Self {
        DegreeTable {
            degrees: PackedU32s::from_values(&degrees),
        }
    }

    /// Degree of `v`. Zero for isolated vertices.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.degrees.get(v as usize)
    }

    /// Every vertex's degree, in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.degrees.iter()
    }

    /// Heap bytes of the packed table.
    pub fn heap_bytes(&self) -> usize {
        self.degrees.heap_bytes()
    }

    /// Number of vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// Sum of all degrees — equals `2|E|` for a well-formed undirected edge
    /// list (self-loops contribute 2 as well, since both endpoint slots refer
    /// to the same vertex).
    pub fn total_volume(&self) -> u64 {
        self.iter().map(u64::from).sum()
    }

    /// Maximum degree over all vertices (0 for empty graphs).
    pub fn max_degree(&self) -> u32 {
        self.iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::InMemoryGraph;
    use crate::types::Edge;

    #[test]
    fn counts_simple_graph() {
        let mut g = InMemoryGraph::from_edges(vec![
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(1, 2),
            Edge::new(0, 3),
        ]);
        let d = DegreeTable::compute(&mut g, 4).unwrap();
        assert_eq!(d.degree(0), 3);
        assert_eq!(d.degree(1), 2);
        assert_eq!(d.degree(2), 2);
        assert_eq!(d.degree(3), 1);
        assert_eq!(d.total_volume(), 8);
        assert_eq!(d.max_degree(), 3);
    }

    #[test]
    fn self_loop_counts_twice() {
        let mut g = InMemoryGraph::from_edges(vec![Edge::new(0, 0)]);
        let d = DegreeTable::compute(&mut g, 1).unwrap();
        assert_eq!(d.degree(0), 2);
        assert_eq!(d.total_volume(), 2);
    }

    #[test]
    fn isolated_vertices_have_zero_degree() {
        let mut g = InMemoryGraph::with_num_vertices(vec![Edge::new(0, 1)], 5);
        let d = DegreeTable::compute(&mut g, 5).unwrap();
        assert_eq!(d.degree(4), 0);
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn rejects_out_of_bounds_edge() {
        let mut g = InMemoryGraph::from_edges(vec![Edge::new(0, 9)]);
        let err = DegreeTable::compute(&mut g, 5).unwrap_err();
        assert!(err.to_string().contains("vertex 9"));
    }

    #[test]
    fn volume_is_twice_edge_count() {
        let edges: Vec<Edge> = (0..50)
            .map(|i| Edge::new(i % 10, (i * 3 + 1) % 10))
            .collect();
        let mut g = InMemoryGraph::from_edges(edges);
        let d = DegreeTable::compute(&mut g, 10).unwrap();
        assert_eq!(d.total_volume(), 100);
    }

    #[test]
    fn packs_to_the_bytes_the_largest_degree_needs() {
        // A star with 300 leaves: the hub's degree needs two bytes.
        let star: Vec<Edge> = (1..=300).map(|v| Edge::new(0, v)).collect();
        let d = DegreeTable::compute(&mut InMemoryGraph::from_edges(star), 301).unwrap();
        assert_eq!(d.heap_bytes(), 2 * 301 + 3);
        assert_eq!(d.degree(0), 300);
        assert!(d.iter().skip(1).all(|x| x == 1));
        // Leaves alone fit one byte; a saturated counter needs four.
        assert_eq!(DegreeTable::from_vec(vec![1; 300]).heap_bytes(), 300 + 3);
        let saturated = DegreeTable::from_vec(vec![u32::MAX, 0]);
        assert_eq!(saturated.degree(0), u32::MAX);
        assert_eq!(saturated.heap_bytes(), 4 * 2 + 3);
    }

    #[test]
    fn empty_graph() {
        let mut g = InMemoryGraph::from_edges(vec![]);
        let d = DegreeTable::compute(&mut g, 0).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.total_volume(), 0);
        assert_eq!(d.max_degree(), 0);
    }
}
