//! Loading a finished partitioning back from its run output.
//!
//! `tps partition --out DIR` (and the dist coordinator) materialise one
//! standard v1 `.bel` file per partition, named `<stem>.part<i>.bel`. The
//! serving daemon starts from exactly these files: this module discovers
//! them and streams every edge back with its partition id — the read-side
//! input of `tps-serve`'s packed tables.

use std::io;
use std::path::{Path, PathBuf};

use tps_graph::formats::binary::named;
use tps_graph::stream::for_each_chunk;
use tps_graph::types::{Edge, PartitionId};

use crate::{open_edge_stream, ReaderBackend};

/// A partitioning read back from a `--out` directory.
#[derive(Clone, Debug)]
pub struct LoadedPartition {
    /// Number of partitions (= number of `.part<i>.bel` files).
    pub k: u32,
    /// Vertex-id space from the part-file headers (all agree).
    pub num_vertices: u64,
    /// The common file stem (input graph name).
    pub stem: String,
    /// Every edge with its partition, in per-partition file order.
    pub assignments: Vec<(Edge, PartitionId)>,
    /// Edges per partition (the per-file edge counts).
    pub part_counts: Vec<u64>,
}

impl LoadedPartition {
    /// Total edge count.
    pub fn num_edges(&self) -> u64 {
        self.assignments.len() as u64
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Split `name` (a file name) as `<stem>.part<i>.bel`, if it matches.
fn parse_part_name(name: &str) -> Option<(&str, u32)> {
    let rest = name.strip_suffix(".bel")?;
    let (stem, idx) = rest.rsplit_once(".part")?;
    let idx: u32 = idx.parse().ok()?;
    (!stem.is_empty()).then_some((stem, idx))
}

/// Load every `<stem>.part<i>.bel` file in `dir` back into memory.
///
/// Fails if the directory holds no part files, if the indices are not the
/// contiguous range `0..k`, if two stems mix, or if the per-file vertex
/// counts disagree.
pub fn load_partition_dir(dir: &Path) -> io::Result<LoadedPartition> {
    let mut found: Vec<(u32, String, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((stem, idx)) = parse_part_name(name) {
            found.push((idx, stem.to_string(), entry.path()));
        }
    }
    if found.is_empty() {
        return Err(bad(format!(
            "no <stem>.part<i>.bel files in {}",
            dir.display()
        )));
    }
    found.sort_by_key(|&(idx, _, _)| idx);
    let stem = found[0].1.clone();
    let k = found.len() as u32;
    for (want, (idx, s, path)) in found.iter().enumerate() {
        if *idx != want as u32 {
            return Err(bad(format!(
                "partition files are not contiguous: expected index {want}, found {} ({})",
                idx,
                path.display()
            )));
        }
        if *s != stem {
            return Err(bad(format!(
                "mixed stems in {}: {stem:?} vs {s:?}",
                dir.display()
            )));
        }
    }

    let mut num_vertices = 0u64;
    let mut assignments = Vec::new();
    let mut part_counts = Vec::with_capacity(k as usize);
    for (idx, _, path) in &found {
        let mut file =
            open_edge_stream(path, ReaderBackend::Buffered).map_err(|e| named(path, e))?;
        let nv = file
            .num_vertices_hint()
            .ok_or_else(|| bad(format!("{} has no vertex count", path.display())))?;
        if *idx == 0 {
            num_vertices = nv;
        } else if nv != num_vertices {
            return Err(bad(format!(
                "{} disagrees on the vertex count ({nv} vs {num_vertices})",
                path.display()
            )));
        }
        let before = assignments.len();
        for_each_chunk(&mut file, |run| {
            assignments.extend(run.iter().map(|&e| (e, *idx)));
            Ok(())
        })?;
        part_counts.push((assignments.len() - before) as u64);
    }
    Ok(LoadedPartition {
        k,
        num_vertices,
        stem,
        assignments,
        part_counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::sink::FileSink;

    #[test]
    fn part_name_parsing() {
        assert_eq!(parse_part_name("ok.part0.bel"), Some(("ok", 0)));
        assert_eq!(parse_part_name("a.b.part12.bel"), Some(("a.b", 12)));
        assert_eq!(parse_part_name("ok.part0.bel2"), None);
        assert_eq!(parse_part_name("ok.bel"), None);
        assert_eq!(parse_part_name(".part0.bel"), None);
        assert_eq!(parse_part_name("ok.partx.bel"), None);
    }

    #[test]
    fn roundtrips_a_file_sink() {
        let dir = std::env::temp_dir().join(format!("tps-partread-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let k = 4u32;
        let edges: Vec<(Edge, PartitionId)> = (0..1000u32)
            .map(|i| (Edge::new(i % 57, 57 + (i * 13) % 91), i % k))
            .collect();
        let mut sink = FileSink::create(&dir, "g", k, 256).unwrap();
        for &(e, p) in &edges {
            tps_core::sink::AssignmentSink::assign(&mut sink, e, p).unwrap();
        }
        sink.finish().unwrap();

        let loaded = load_partition_dir(&dir).unwrap();
        assert_eq!(loaded.k, k);
        assert_eq!(loaded.num_vertices, 256);
        assert_eq!(loaded.stem, "g");
        assert_eq!(loaded.num_edges(), edges.len() as u64);
        // Same multiset of assignments (file order groups by partition).
        let mut want = edges.clone();
        let mut got = loaded.assignments.clone();
        let key = |&(e, p): &(Edge, PartitionId)| (p, e.src, e.dst);
        want.sort_unstable_by_key(key);
        got.sort_unstable_by_key(key);
        assert_eq!(want, got);
        std::fs::remove_dir_all(&dir).ok();
    }
}
