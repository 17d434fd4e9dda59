//! Virtual-clock device models and the accounting stream wrapper.

use std::io;
use std::time::Duration;

use tps_graph::stream::EdgeStream;
use tps_graph::types::Edge;

/// Bytes per edge record in the binary edge list (two `u32` ids).
pub const EDGE_BYTES: u64 = 8;

/// A storage device characterised by sequential bandwidth and a per-pass
/// seek/setup latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceModel {
    /// Device name as used in Table V ("Page Cache", "SSD", "HDD").
    pub name: &'static str,
    /// Sequential read bandwidth in bytes/second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed cost charged at the start of every pass (seek + readahead
    /// warm-up).
    pub pass_latency: Duration,
}

impl DeviceModel {
    /// The OS page cache: memory-bandwidth re-reads (the paper's default
    /// configuration for §V-A–E, ~10 GB/s effective).
    pub fn page_cache() -> Self {
        DeviceModel {
            name: "Page Cache",
            bandwidth_bytes_per_sec: 10.0e9,
            pass_latency: Duration::ZERO,
        }
    }

    /// The paper's SSD: 938 MB/s sequential read (measured with fio).
    pub fn ssd() -> Self {
        DeviceModel {
            name: "SSD",
            bandwidth_bytes_per_sec: 938.0e6,
            pass_latency: Duration::from_micros(100),
        }
    }

    /// The paper's HDD: 158 MB/s sequential read.
    pub fn hdd() -> Self {
        DeviceModel {
            name: "HDD",
            bandwidth_bytes_per_sec: 158.0e6,
            pass_latency: Duration::from_millis(12),
        }
    }

    /// All three Table V devices.
    pub fn table5() -> [DeviceModel; 3] {
        [Self::page_cache(), Self::ssd(), Self::hdd()]
    }

    /// Simulated time to stream `bytes` in one pass.
    pub fn pass_time(&self, bytes: u64) -> Duration {
        self.pass_latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }
}

/// Accumulated I/O accounting of a [`DeviceStream`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoAccount {
    /// Completed (reset-delimited) passes.
    pub passes: u64,
    /// Total bytes charged.
    pub bytes: u64,
    /// Total simulated I/O time.
    pub simulated_io: Duration,
}

/// Wraps an [`EdgeStream`], charging every streamed edge (and every pass
/// start) to a [`DeviceModel`] on a virtual clock.
///
/// Edges are counted exactly; bytes and the simulated time are derived from
/// the totals on demand, so no per-edge rounding error accrues and the
/// account is the same whether the consumer reads edge by edge or chunk by
/// chunk.
pub struct DeviceStream<S> {
    inner: S,
    device: DeviceModel,
    meter: Meter,
    record_bytes: f64,
}

/// What a [`DeviceStream`] counts (apart from `inner`, so a lent run can
/// be charged while it borrows the inner stream).
#[derive(Default)]
struct Meter {
    passes: u64,
    edges: u64,
    started_pass: bool,
}

impl Meter {
    /// Charge `edges` streamed edges, and the per-pass seek on the first
    /// actual read so that opened-but-never-read passes cost nothing.
    fn charge(&mut self, edges: usize) {
        if edges > 0 && !self.started_pass {
            self.started_pass = true;
            self.passes += 1;
        }
        self.edges += edges as u64;
    }
}

impl<S: EdgeStream> DeviceStream<S> {
    /// Wrap `inner` with the given device model, charging the v1 record
    /// size ([`EDGE_BYTES`]) per edge.
    pub fn new(inner: S, device: DeviceModel) -> Self {
        Self::with_record_bytes(inner, device, EDGE_BYTES as f64)
    }

    /// Wrap `inner`, charging `record_bytes` per streamed edge.
    ///
    /// Compressed backends do not read 8 bytes per edge: a `tps-io` TPSBEL2
    /// stream's effective record size is `pass_bytes / num_edges` (often
    /// ~5–6 B). Accounting any `EdgeStream` backend accurately only needs
    /// that average, since every pass reads the whole file.
    pub fn with_record_bytes(inner: S, device: DeviceModel, record_bytes: f64) -> Self {
        assert!(record_bytes >= 0.0 && record_bytes.is_finite());
        DeviceStream {
            inner,
            device,
            meter: Meter::default(),
            record_bytes,
        }
    }

    /// The accounting so far.
    pub fn account(&self) -> IoAccount {
        let bytes = self.meter.edges as f64 * self.record_bytes;
        IoAccount {
            passes: self.meter.passes,
            bytes: bytes.round() as u64,
            simulated_io: self.device.pass_latency * self.meter.passes as u32
                + Duration::from_secs_f64(bytes / self.device.bandwidth_bytes_per_sec),
        }
    }

    /// The wrapped device model.
    pub fn device(&self) -> DeviceModel {
        self.device
    }

    /// Unwrap the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EdgeStream> EdgeStream for DeviceStream<S> {
    fn reset(&mut self) -> io::Result<()> {
        self.inner.reset()?;
        self.meter.started_pass = false;
        Ok(())
    }

    fn next_edge(&mut self) -> io::Result<Option<Edge>> {
        let e = self.inner.next_edge()?;
        self.meter.charge(usize::from(e.is_some()));
        Ok(e)
    }

    fn next_chunk<'a>(&'a mut self, scratch: &'a mut Vec<Edge>) -> io::Result<&'a [Edge]> {
        let run = self.inner.next_chunk(scratch)?;
        self.meter.charge(run.len());
        Ok(run)
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        self.inner.num_vertices_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_graph::stream::{for_each_edge, InMemoryGraph};

    fn graph(edges: u32) -> InMemoryGraph {
        InMemoryGraph::from_edges((0..edges).map(|i| Edge::new(i, i + 1)).collect())
    }

    #[test]
    fn charges_bytes_per_edge() {
        let mut s = DeviceStream::new(graph(100), DeviceModel::ssd());
        for_each_edge(&mut s, |_| {}).unwrap();
        let acc = s.account();
        assert_eq!(acc.passes, 1);
        assert_eq!(acc.bytes, 100 * EDGE_BYTES);
        let expected = DeviceModel::ssd().pass_time(100 * EDGE_BYTES);
        let diff = acc.simulated_io.abs_diff(expected);
        assert!(diff < Duration::from_micros(5), "diff {diff:?}");
    }

    #[test]
    fn multiple_passes_accumulate() {
        let mut s = DeviceStream::new(graph(10), DeviceModel::hdd());
        for_each_edge(&mut s, |_| {}).unwrap();
        for_each_edge(&mut s, |_| {}).unwrap();
        let acc = s.account();
        assert_eq!(acc.passes, 2);
        assert_eq!(acc.bytes, 2 * 10 * EDGE_BYTES);
        // HDD pass latency dominates: at least 2 × 12 ms.
        assert!(acc.simulated_io >= Duration::from_millis(24));
    }

    #[test]
    fn hdd_slower_than_ssd_slower_than_cache() {
        let bytes = 1 << 30;
        let cache = DeviceModel::page_cache().pass_time(bytes);
        let ssd = DeviceModel::ssd().pass_time(bytes);
        let hdd = DeviceModel::hdd().pass_time(bytes);
        assert!(cache < ssd);
        assert!(ssd < hdd);
        // ~5.9× gap between SSD and HDD bandwidth.
        let ratio = hdd.as_secs_f64() / ssd.as_secs_f64();
        assert!(ratio > 5.0 && ratio < 7.0, "ratio {ratio}");
    }

    #[test]
    fn empty_pass_still_counts_latency_lazily() {
        // A pass over an empty stream never reads an edge, so no pass is
        // charged (matches "open but never read" semantics).
        let mut s = DeviceStream::new(InMemoryGraph::from_edges(vec![]), DeviceModel::hdd());
        for_each_edge(&mut s, |_| {}).unwrap();
        assert_eq!(s.account().passes, 0);
    }

    #[test]
    fn custom_record_bytes_scale_the_charge() {
        // A compressed stream averaging 5.5 B/edge.
        let mut s = DeviceStream::with_record_bytes(graph(100), DeviceModel::ssd(), 5.5);
        for_each_edge(&mut s, |_| {}).unwrap();
        assert_eq!(s.account().bytes, 550);
        assert_eq!(s.account().passes, 1);
    }

    #[test]
    fn hints_pass_through() {
        let s = DeviceStream::new(graph(5), DeviceModel::ssd());
        assert_eq!(s.len_hint(), Some(5));
        assert_eq!(s.num_vertices_hint(), Some(6));
    }
}
