//! Whitespace text edge lists (SNAP / KONECT style).
//!
//! One edge per line as `src dst`, with blank lines and lines starting with
//! `#` or `%` ignored. Vertex ids must fit in `u32`. Ids are taken verbatim
//! (no remapping): real dumps are usually dense already, and remapping would
//! change the stream order the algorithms see. A separate [`compact_ids`]
//! helper densifies sparse id spaces when needed.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Seek, SeekFrom};
use std::path::Path;

use crate::stream::EdgeStream;
use crate::types::{Edge, VertexId};

/// A streaming reader over a text edge list. Performs no allocation per edge
/// beyond the reused line buffer.
pub struct TextEdgeFile {
    reader: BufReader<File>,
    line: String,
    line_no: u64,
}

impl TextEdgeFile {
    /// Open a text edge list at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::open(path)?;
        Ok(TextEdgeFile {
            reader: BufReader::with_capacity(1 << 16, file),
            line: String::new(),
            line_no: 0,
        })
    }
}

fn parse_line(line: &str, line_no: u64) -> io::Result<Option<Edge>> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    let mut it = trimmed.split_whitespace();
    let bad = |what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line {line_no}: {what}: {trimmed:?}"),
        )
    };
    let src: VertexId = it
        .next()
        .ok_or_else(|| bad("missing src"))?
        .parse()
        .map_err(|_| bad("unparsable src"))?;
    let dst: VertexId = it
        .next()
        .ok_or_else(|| bad("missing dst"))?
        .parse()
        .map_err(|_| bad("unparsable dst"))?;
    Ok(Some(Edge { src, dst }))
}

impl EdgeStream for TextEdgeFile {
    fn reset(&mut self) -> io::Result<()> {
        self.reader.seek(SeekFrom::Start(0))?;
        self.line_no = 0;
        Ok(())
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        loop {
            self.line.clear();
            let n = self.reader.read_line(&mut self.line)?;
            if n == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            if let Some(edge) = parse_line(&self.line, self.line_no)? {
                return Ok(Some(edge));
            }
        }
    }
}

/// Remap arbitrary (possibly sparse) vertex ids to a dense `0..n` range,
/// preserving first-appearance order. Returns the remapped edges and the
/// number of distinct vertices.
pub fn compact_ids(edges: &[Edge]) -> (Vec<Edge>, u64) {
    let mut map: HashMap<VertexId, VertexId> = HashMap::new();
    let mut next: VertexId = 0;
    let mut remap = |v: VertexId, map: &mut HashMap<VertexId, VertexId>| -> VertexId {
        *map.entry(v).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        })
    };
    let out = edges
        .iter()
        .map(|e| Edge::new(remap(e.src, &mut map), remap(e.dst, &mut map)))
        .collect();
    (out, next as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::for_each_edge;
    use std::path::PathBuf;

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tps-textfmt-{tag}-{}.txt", std::process::id()))
    }

    #[test]
    fn parses_basic_file_with_comments() {
        let path = tmpfile("basic");
        std::fs::write(&path, "# comment\n0 1\n\n% other comment\n1 2\n 2   0 \n").unwrap();
        let mut f = TextEdgeFile::open(&path).unwrap();
        let mut seen = Vec::new();
        for_each_edge(&mut f, |e| seen.push(e)).unwrap();
        assert_eq!(
            seen,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_restarts_pass() {
        let path = tmpfile("reset");
        std::fs::write(&path, "0 1\n1 2\n").unwrap();
        let mut f = TextEdgeFile::open(&path).unwrap();
        let mut a = Vec::new();
        for_each_edge(&mut f, |e| a.push(e)).unwrap();
        let mut b = Vec::new();
        for_each_edge(&mut f, |e| b.push(e)).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reports_parse_error_with_line_number() {
        let path = tmpfile("badline");
        std::fs::write(&path, "0 1\nnot an edge\n").unwrap();
        let mut f = TextEdgeFile::open(&path).unwrap();
        assert!(f.next_edge().unwrap().is_some());
        let err = f.next_edge().unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_dst_is_error() {
        let path = tmpfile("missingdst");
        std::fs::write(&path, "42\n").unwrap();
        let mut f = TextEdgeFile::open(&path).unwrap();
        assert!(f.next_edge().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_round_trip() {
        let path = tmpfile("rt");
        let edges = vec![Edge::new(3, 4), Edge::new(4, 5)];
        std::fs::write(&path, "3 4\n4 5\n").unwrap();
        let mut f = TextEdgeFile::open(&path).unwrap();
        let mut seen = Vec::new();
        for_each_edge(&mut f, |e| seen.push(e)).unwrap();
        assert_eq!(seen, edges);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_ids_densifies() {
        let edges = vec![Edge::new(100, 7), Edge::new(7, 100), Edge::new(9999, 100)];
        let (out, n) = compact_ids(&edges);
        assert_eq!(n, 3);
        assert_eq!(out, vec![Edge::new(0, 1), Edge::new(1, 0), Edge::new(2, 0)]);
    }
}
