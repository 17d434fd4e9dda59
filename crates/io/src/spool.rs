//! Spill-backed assignment spools: bounded-memory replay runs.
//!
//! The parallel runner and the distributed workers hold each worker's
//! decisions until the emit barrier and hand them over in worker order. By
//! default that is a tag per edge (`tps_core::sink::DecisionLog`, ≤ 2 B/edge)
//! and a re-read of the input; under a spill budget it is a
//! `tps_core::sink::AssignmentSpool` of whole `(edge, partition)` records,
//! and [`SpillSpool`] is that spool:
//! assignments are buffered up to a per-worker record budget and appended to
//! a private run file in one large sequential write per spill — the same
//! big-sequential-writes discipline as [`crate::spill::SpillingFileSink`],
//! applied to the replay path instead of the output files. Replay streams
//! the run file front-to-back and then drains the in-memory tail, so
//! insertion order is preserved exactly and a spilled run replays
//! byte-identically to an in-memory one.
//!
//! Run files live in a caller-chosen directory (typically the system temp
//! dir), are never read before their spool's replay, and are removed on
//! replay completion or drop.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tps_core::sink::{assign_in_runs, AssignmentSink, AssignmentSpool, SpoolFactory, SINK_BATCH};
use tps_graph::types::{Edge, PartitionId};

/// Bytes one spooled record occupies on disk: src, dst, partition.
const RECORD_BYTES: usize = 12;

static IO_SPOOL_SPILLS: tps_obs::Counter = tps_obs::Counter::new("io.spool.spills");
static IO_SPOOL_BYTES: tps_obs::Counter = tps_obs::Counter::new("io.spool.bytes");

/// A memory-bounded [`AssignmentSpool`] spilling to a private run file.
pub struct SpillSpool {
    buf: Vec<(Edge, PartitionId)>,
    /// Records buffered in memory before a spill.
    cap_records: usize,
    path: PathBuf,
    file: Option<File>,
    spilled_records: u64,
    spills: u64,
    scratch: Vec<u8>,
}

impl SpillSpool {
    /// A spool buffering at most `budget_bytes` of records in memory before
    /// spilling to `path` (minimum one record).
    pub fn create(path: PathBuf, budget_bytes: u64) -> SpillSpool {
        let cap_records = (budget_bytes as usize / RECORD_BYTES).clamp(1, 1 << 26);
        SpillSpool {
            buf: Vec::new(),
            cap_records,
            path,
            file: None,
            spilled_records: 0,
            spills: 0,
            scratch: Vec::new(),
        }
    }

    /// The in-memory record capacity.
    pub fn cap_records(&self) -> usize {
        self.cap_records
    }

    /// Budget-pressure spills so far.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    fn spill(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let file = match &mut self.file {
            Some(f) => f,
            None => {
                let f = OpenOptions::new()
                    .create(true)
                    .truncate(true)
                    .read(true)
                    .write(true)
                    .open(&self.path)?;
                self.file.insert(f)
            }
        };
        // Encode through a bounded chunk: a full-buffer scratch would
        // transiently double the spool's memory, defeating the budget.
        const CHUNK_RECORDS: usize = (64 << 10) / RECORD_BYTES;
        for chunk in self.buf.chunks(CHUNK_RECORDS) {
            self.scratch.clear();
            self.scratch.reserve(chunk.len() * RECORD_BYTES);
            for (e, p) in chunk {
                self.scratch.extend_from_slice(&e.src.to_le_bytes());
                self.scratch.extend_from_slice(&e.dst.to_le_bytes());
                self.scratch.extend_from_slice(&p.to_le_bytes());
            }
            file.write_all(&self.scratch)?;
        }
        self.spilled_records += self.buf.len() as u64;
        self.spills += 1;
        IO_SPOOL_SPILLS.incr();
        IO_SPOOL_BYTES.add(self.buf.len() as u64 * RECORD_BYTES as u64);
        self.buf.clear();
        Ok(())
    }
}

impl AssignmentSink for SpillSpool {
    #[inline]
    fn assign(&mut self, edge: Edge, p: PartitionId) -> io::Result<()> {
        self.buf.push((edge, p));
        if self.buf.len() >= self.cap_records {
            self.spill()?;
        }
        Ok(())
    }

    /// Same spill points as one `assign` per record: the buffer is topped
    /// up to the cap, spilled, and topped up again.
    fn assign_batch(&mut self, mut batch: &[(Edge, PartitionId)]) -> io::Result<()> {
        while !batch.is_empty() {
            let room = self.cap_records - self.buf.len();
            let (head, tail) = batch.split_at(room.min(batch.len()));
            self.buf.extend_from_slice(head);
            if self.buf.len() >= self.cap_records {
                self.spill()?;
            }
            batch = tail;
        }
        Ok(())
    }
}

impl AssignmentSpool for SpillSpool {
    fn replay(&mut self, sink: &mut dyn AssignmentSink) -> io::Result<()> {
        // Spills happen in insertion order, so the file holds the oldest
        // prefix and `buf` the newest tail.
        if let Some(mut file) = self.file.take() {
            file.flush()?;
            file.seek(SeekFrom::Start(0))?;
            // One run of records per read, decoded and handed over whole.
            let mut run = Vec::with_capacity(SINK_BATCH);
            while self.spilled_records > 0 {
                let n = self.spilled_records.min(SINK_BATCH as u64) as usize;
                self.scratch.resize(n * RECORD_BYTES, 0);
                file.read_exact(&mut self.scratch)?;
                run.clear();
                run.extend(self.scratch.chunks_exact(RECORD_BYTES).map(|rec| {
                    let word =
                        |i: usize| u32::from_le_bytes([rec[i], rec[i + 1], rec[i + 2], rec[i + 3]]);
                    (
                        Edge {
                            src: word(0),
                            dst: word(4),
                        },
                        word(8),
                    )
                }));
                sink.assign_batch(&run)?;
                self.spilled_records -= n as u64;
            }
            drop(file);
            std::fs::remove_file(&self.path).ok();
        }
        assign_in_runs(sink, &std::mem::take(&mut self.buf))
    }
}

impl Drop for SpillSpool {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            std::fs::remove_file(&self.path).ok();
        }
    }
}

/// A [`SpoolFactory`] splitting `budget_bytes` evenly across `workers`
/// spill-backed spools. With this factory installed, `--threads N` runs
/// stay within the spill budget end to end: output files through
/// [`crate::spill::SpillingFileSink`], replay runs through here.
pub struct SpillSpoolFactory {
    dir: PathBuf,
    per_worker_bytes: u64,
    tag: String,
}

impl SpillSpoolFactory {
    /// A factory writing run files `<tag>.run<worker>.spool` into `dir`
    /// (created if missing), giving each of `workers` spools an even share
    /// of `budget_bytes`.
    pub fn new(dir: &Path, tag: &str, budget_bytes: u64, workers: usize) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(SpillSpoolFactory {
            dir: dir.to_path_buf(),
            per_worker_bytes: budget_bytes / workers.max(1) as u64,
            tag: tag.to_string(),
        })
    }

    /// The per-spool byte budget.
    pub fn per_worker_bytes(&self) -> u64 {
        self.per_worker_bytes
    }
}

impl SpoolFactory for SpillSpoolFactory {
    fn create_spool(&self, worker: usize) -> io::Result<Box<dyn AssignmentSpool>> {
        let path = self.dir.join(format!("{}.run{worker}.spool", self.tag));
        Ok(Box::new(SpillSpool::create(path, self.per_worker_bytes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::sink::VecSink;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tps-io-spool-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn records(n: u32) -> Vec<(Edge, PartitionId)> {
        (0..n).map(|i| (Edge::new(i, i * 7 + 1), i % 5)).collect()
    }

    #[test]
    fn replay_preserves_order_without_spilling() {
        let dir = tmpdir("mem");
        let mut spool = SpillSpool::create(dir.join("a.spool"), 1 << 20);
        let want = records(100);
        for &(e, p) in &want {
            spool.assign(e, p).unwrap();
        }
        assert_eq!(spool.spills(), 0);
        let mut sink = VecSink::new();
        spool.replay(&mut sink).unwrap();
        assert_eq!(sink.assignments(), &want[..]);
        assert!(!dir.join("a.spool").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_budget_spills_and_replays_identically() {
        let dir = tmpdir("tiny");
        // 36 bytes -> 3 records in memory.
        let mut spool = SpillSpool::create(dir.join("b.spool"), 36);
        assert_eq!(spool.cap_records(), 3);
        let want = records(1000);
        for &(e, p) in &want {
            spool.assign(e, p).unwrap();
        }
        assert!(spool.spills() > 300, "spills {}", spool.spills());
        assert!(dir.join("b.spool").exists());
        let mut sink = VecSink::new();
        spool.replay(&mut sink).unwrap();
        assert_eq!(sink.assignments(), &want[..]);
        assert!(
            !dir.join("b.spool").exists(),
            "run file removed after replay"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_removes_run_file() {
        let dir = tmpdir("drop");
        let path = dir.join("c.spool");
        {
            let mut spool = SpillSpool::create(path.clone(), 12);
            for &(e, p) in &records(10) {
                spool.assign(e, p).unwrap();
            }
            assert!(path.exists());
        }
        assert!(!path.exists(), "dropping an unreplayed spool cleans up");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn factory_splits_budget_and_isolates_workers() {
        let dir = tmpdir("factory");
        let f = SpillSpoolFactory::new(&dir, "g", 240, 4).unwrap();
        assert_eq!(f.per_worker_bytes(), 60);
        let mut a = f.create_spool(0).unwrap();
        let mut b = f.create_spool(1).unwrap();
        let wa = records(50);
        let wb: Vec<_> = records(50).into_iter().map(|(e, p)| (e, p + 10)).collect();
        for (&(e, p), &(e2, p2)) in wa.iter().zip(&wb) {
            a.assign(e, p).unwrap();
            b.assign(e2, p2).unwrap();
        }
        let mut sa = VecSink::new();
        let mut sb = VecSink::new();
        a.replay(&mut sa).unwrap();
        b.replay(&mut sb).unwrap();
        assert_eq!(sa.assignments(), &wa[..]);
        assert_eq!(sb.assignments(), &wb[..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_runner_with_spill_spools_matches_default() {
        use std::sync::Arc;
        use tps_core::parallel::ParallelRunner;
        use tps_core::partitioner::PartitionParams;
        use tps_core::two_phase::TwoPhaseConfig;
        use tps_graph::datasets::Dataset;

        let dir = tmpdir("runner");
        let g = Dataset::Ok.generate_scaled(0.01);
        let params = PartitionParams::new(8);
        let mut plain = VecSink::new();
        ParallelRunner::new(TwoPhaseConfig::default(), 3)
            .partition(&g, &params, &mut plain)
            .unwrap();
        let factory = Arc::new(SpillSpoolFactory::new(&dir, "pr", 4096, 3).unwrap());
        let mut spilled = VecSink::new();
        ParallelRunner::new(TwoPhaseConfig::default(), 3)
            .with_spool_factory(factory)
            .partition(&g, &params, &mut spilled)
            .unwrap();
        assert_eq!(plain.assignments(), spilled.assignments());
        std::fs::remove_dir_all(&dir).ok();
    }
}
