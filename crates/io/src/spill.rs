//! Memory-bounded materialised output: the spilling assignment sink.
//!
//! `tps_core::sink::FileSink` keeps one `BufWriter` per partition — fine for
//! k ≤ a few hundred, but at high k (the paper's GNN motivation) or tight
//! memory budgets the write path should be explicit: [`SpillingFileSink`]
//! buffers assignments per partition in memory up to a global byte budget
//! and spills each partition's buffer to its file in one large sequential
//! write when the partition's share fills up. Memory is
//! `budget + O(k)` regardless of `|E|`, writes are big and sequential
//! (device-friendly), and the output files are byte-compatible v1
//! (`TPSBEL1`) partition files — identical to `FileSink`'s.

use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tps_core::sink::AssignmentSink;
use tps_graph::formats::binary::{create_partition_files, HEADER_LEN};
use tps_graph::types::{Edge, PartitionId};

/// Observability counters of a [`SpillingFileSink`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Buffer flushes that hit the disk (excluding the final drain).
    pub spills: u64,
    /// Total bytes written (headers + records).
    pub bytes_written: u64,
    /// High-water mark of buffered edge bytes across all partitions.
    pub peak_buffered_bytes: u64,
}

/// An [`AssignmentSink`] writing per-partition `.bel` files under a global
/// memory budget.
pub struct SpillingFileSink {
    files: Vec<File>,
    paths: Vec<PathBuf>,
    counts: Vec<u64>,
    bufs: Vec<Vec<Edge>>,
    /// Edges a single partition may buffer before spilling.
    per_partition_cap: usize,
    buffered_edges: u64,
    scratch: Vec<u8>,
    stats: SpillStats,
}

/// Bytes one buffered edge occupies on disk.
const EDGE_BYTES: u64 = 8;

static IO_SPILL_SPILLS: tps_obs::Counter = tps_obs::Counter::new("io.spill.spills");
static IO_SPILL_BYTES: tps_obs::Counter = tps_obs::Counter::new("io.spill.bytes");

impl SpillingFileSink {
    /// Create `k` files named `<stem>.part<i>.bel` in `dir` (all or nothing
    /// — see [`create_partition_files`]), buffering at most `budget_bytes`
    /// of edge records in memory (shared evenly across partitions, minimum
    /// one edge each).
    pub fn create(
        dir: &Path,
        stem: &str,
        k: u32,
        num_vertices: u64,
        budget_bytes: u64,
    ) -> io::Result<Self> {
        assert!(k > 0, "need at least one partition");
        let per_partition_cap =
            ((budget_bytes / k as u64 / EDGE_BYTES).max(1) as usize).min(1 << 24);
        let (paths, files) = create_partition_files(dir, stem, k, num_vertices)?;
        let stats = SpillStats {
            bytes_written: k as u64 * HEADER_LEN,
            ..SpillStats::default()
        };
        Ok(SpillingFileSink {
            files,
            paths,
            counts: vec![0; k as usize],
            bufs: (0..k).map(|_| Vec::new()).collect(),
            per_partition_cap,
            buffered_edges: 0,
            scratch: Vec::new(),
            stats,
        })
    }

    /// The effective per-partition buffer capacity in edges.
    pub fn per_partition_cap(&self) -> usize {
        self.per_partition_cap
    }

    /// Counters so far.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    fn spill(&mut self, p: usize) -> io::Result<()> {
        let buf = &mut self.bufs[p];
        if buf.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        self.scratch.reserve(buf.len() * EDGE_BYTES as usize);
        for e in buf.iter() {
            self.scratch.extend_from_slice(&e.src.to_le_bytes());
            self.scratch.extend_from_slice(&e.dst.to_le_bytes());
        }
        self.files[p].write_all(&self.scratch)?;
        self.stats.bytes_written += self.scratch.len() as u64;
        self.stats.spills += 1;
        IO_SPILL_SPILLS.incr();
        IO_SPILL_BYTES.add(self.scratch.len() as u64);
        self.buffered_edges -= buf.len() as u64;
        buf.clear();
        Ok(())
    }

    /// Spill all buffers, patch the per-file edge counts and close.
    /// Returns `(path, edge_count)` per partition and the final stats.
    pub fn finish(mut self) -> io::Result<(Vec<(PathBuf, u64)>, SpillStats)> {
        // The final drain is bookkept as writes, not spills (a spill is a
        // budget-pressure event), so freeze the spill counter across it.
        let pressure_spills = self.stats.spills;
        for p in 0..self.files.len() {
            self.spill(p)?;
        }
        self.stats.spills = pressure_spills;
        let mut out = Vec::with_capacity(self.files.len());
        for ((mut f, count), path) in self.files.into_iter().zip(self.counts).zip(self.paths) {
            f.seek(SeekFrom::Start(16))?;
            f.write_all(&count.to_le_bytes())?;
            out.push((path, count));
        }
        Ok((out, self.stats))
    }
}

impl AssignmentSink for SpillingFileSink {
    #[inline]
    fn assign(&mut self, edge: Edge, p: PartitionId) -> io::Result<()> {
        let p = p as usize;
        self.bufs[p].push(edge);
        self.counts[p] += 1;
        self.buffered_edges += 1;
        self.stats.peak_buffered_bytes = self
            .stats
            .peak_buffered_bytes
            .max(self.buffered_edges * EDGE_BYTES);
        if self.bufs[p].len() >= self.per_partition_cap {
            self.spill(p)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_graph::formats::binary::BinaryEdgeFile;
    use tps_graph::stream::for_each_edge;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tps-io-spill-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn read_part(path: &Path) -> Vec<Edge> {
        let mut f = BinaryEdgeFile::open(path).unwrap();
        let mut v = Vec::new();
        for_each_edge(&mut f, |e| v.push(e)).unwrap();
        v
    }

    #[test]
    fn output_matches_file_sink_layout() {
        let dir = tmpdir("layout");
        let mut sink = SpillingFileSink::create(&dir, "g", 2, 100, 1 << 20).unwrap();
        sink.assign(Edge::new(0, 1), 0).unwrap();
        sink.assign(Edge::new(2, 3), 1).unwrap();
        sink.assign(Edge::new(4, 5), 1).unwrap();
        let (parts, _) = sink.finish().unwrap();
        assert_eq!(parts[0].1, 1);
        assert_eq!(parts[1].1, 2);
        assert_eq!(read_part(&parts[0].0), vec![Edge::new(0, 1)]);
        assert_eq!(
            read_part(&parts[1].0),
            vec![Edge::new(2, 3), Edge::new(4, 5)]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_budget_spills_but_stays_correct() {
        let dir = tmpdir("tiny");
        // 64-byte budget over 4 partitions -> cap of 2 edges per partition.
        let mut sink = SpillingFileSink::create(&dir, "g", 4, 10_000, 64).unwrap();
        assert_eq!(sink.per_partition_cap(), 2);
        let edges: Vec<Edge> = (0..1000).map(|i| Edge::new(i, i + 1)).collect();
        for (i, &e) in edges.iter().enumerate() {
            sink.assign(e, (i % 4) as u32).unwrap();
        }
        let stats = sink.stats();
        assert!(stats.spills > 100, "expected heavy spilling, got {stats:?}");
        assert!(stats.peak_buffered_bytes <= 4 * 2 * 8);
        let (parts, final_stats) = sink.finish().unwrap();
        assert_eq!(parts.iter().map(|p| p.1).sum::<u64>(), 1000);
        // Per-partition order is preserved.
        for (p, (path, _)) in parts.iter().enumerate() {
            let got = read_part(path);
            let want: Vec<Edge> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 4 == p)
                .map(|(_, &e)| e)
                .collect();
            assert_eq!(got, want);
        }
        assert_eq!(
            final_stats.bytes_written,
            4 * 24 + 1000 * 8,
            "headers + every record exactly once"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exact_cap_fill_reports_every_pressure_spill() {
        let dir = tmpdir("exactcap");
        // Cap of 2 edges per partition; assign exactly 2 to each of 4 parts,
        // so every buffer is flushed at assign time and empty at finish.
        let mut sink = SpillingFileSink::create(&dir, "g", 4, 100, 64).unwrap();
        for p in 0..4u32 {
            sink.assign(Edge::new(p, p + 1), p).unwrap();
            sink.assign(Edge::new(p + 1, p + 2), p).unwrap();
        }
        assert_eq!(sink.stats().spills, 4);
        let (parts, stats) = sink.finish().unwrap();
        // The 4 budget-pressure spills must survive the (empty) final drain.
        assert_eq!(stats.spills, 4);
        assert_eq!(parts.iter().map(|p| p.1).sum::<u64>(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generous_budget_never_spills_until_finish() {
        let dir = tmpdir("generous");
        let mut sink = SpillingFileSink::create(&dir, "g", 2, 100, 1 << 20).unwrap();
        for i in 0..100u32 {
            sink.assign(Edge::new(i, i + 1), i % 2).unwrap();
        }
        assert_eq!(sink.stats().spills, 0);
        let (parts, stats) = sink.finish().unwrap();
        assert_eq!(stats.spills, 0);
        assert_eq!(parts.iter().map(|p| p.1).sum::<u64>(), 100);
        std::fs::remove_dir_all(&dir).ok();
    }
}
