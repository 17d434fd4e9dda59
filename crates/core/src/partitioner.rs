//! The [`Partitioner`] trait: the common contract of every edge partitioner
//! in this workspace (2PS-L and all baselines).
//!
//! A partitioner consumes a resettable [`EdgeStream`] (it may take several
//! passes), emits one `(edge, partition)` decision per stream edge into an
//! [`AssignmentSink`], and returns a
//! [`RunReport`] with its phase timings and internal counters. Who computes
//! the quality metrics depends on who holds the replication state: the
//! 2PS-L engines report them from the matrix and loads they finished with
//! ([`RunReport::quality`]); for every other partitioner the harness
//! recomputes them from the sink (`QualitySink`), which is also the
//! reference the engine-reported numbers are tested against.

use std::io;

use tps_graph::stream::EdgeStream;
use tps_metrics::quality::PartitionMetrics;
use tps_obs::PhaseTimer;

use crate::sink::AssignmentSink;

/// Run parameters shared by all partitioners.
#[derive(Clone, Copy, Debug)]
pub struct PartitionParams {
    /// Number of partitions (`k > 1` in the problem statement; `k = 1` is
    /// accepted and trivially assigns everything to partition 0).
    pub k: u32,
    /// Balance factor `α ≥ 1`: no partition may exceed `α·|E|/k` edges for
    /// cap-enforcing partitioners. The paper evaluates with `α = 1.05`.
    pub alpha: f64,
}

impl PartitionParams {
    /// Parameters with the paper's default `α = 1.05`.
    pub fn new(k: u32) -> Self {
        PartitionParams { k, alpha: 1.05 }
    }

    /// Parameters with an explicit balance factor; `InvalidInput` unless
    /// `alpha` is finite and `≥ 1` (a NaN is not; an infinite α would be no
    /// cap at all, which the paper's α never is).
    pub fn try_with_alpha(k: u32, alpha: f64) -> io::Result<Self> {
        if alpha >= 1.0 && alpha.is_finite() {
            Ok(PartitionParams { k, alpha })
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("alpha must be finite and >= 1, not {alpha}"),
            ))
        }
    }

    /// [`try_with_alpha`](Self::try_with_alpha) for a balance factor known
    /// to be valid.
    ///
    /// # Panics
    /// Panics unless `alpha` is finite and `≥ 1`.
    pub fn with_alpha(k: u32, alpha: f64) -> Self {
        Self::try_with_alpha(k, alpha).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Timing and counter report of one partitioning run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Ordered phase timings (e.g. `degree`, `clustering`, `partition`).
    pub phases: PhaseTimer,
    /// Named counters (e.g. `prepartitioned`, `fallback_hash`).
    pub counters: Vec<(String, u64)>,
    /// Quality metrics computed from the replication matrix and loads the
    /// engine finished with — `Some` for the 2PS-L engines (serial, paged,
    /// chunk-parallel, and the distributed coordinator, which counts its
    /// workers' final rows chunk by chunk), `None` for partitioners that
    /// keep no replica state (the baselines); those are measured through a
    /// `QualitySink`.
    pub quality: Option<PartitionMetrics>,
}

impl RunReport {
    /// Look up a counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Add a counter.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_string(), value));
    }
}

/// An edge partitioner.
///
/// Implementations must assign **every** edge of the stream exactly once.
/// Whether the `α` cap is honoured is algorithm-specific (stateless hashing
/// cannot honour it); cap-enforcing algorithms document it.
pub trait Partitioner {
    /// Human-readable algorithm name as used in the paper's plots
    /// (e.g. `"2PS-L"`, `"HDRF"`, `"DBH"`).
    fn name(&self) -> String;

    /// Partition the stream into `params.k` parts, emitting assignments into
    /// `sink`.
    fn partition(
        &mut self,
        stream: &mut dyn EdgeStream,
        params: &PartitionParams,
        sink: &mut dyn AssignmentSink,
    ) -> io::Result<RunReport>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_alpha_is_paper_setting() {
        let p = PartitionParams::new(32);
        assert_eq!(p.k, 32);
        assert!((p.alpha - 1.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_alpha_below_one() {
        PartitionParams::with_alpha(4, 0.9);
    }

    #[test]
    fn try_with_alpha_refuses_below_one_and_nan() {
        for alpha in [0.5, f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let err = PartitionParams::try_with_alpha(4, alpha).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "alpha {alpha}");
        }
        assert_eq!(PartitionParams::try_with_alpha(4, 1.0).unwrap().alpha, 1.0);
    }

    #[test]
    fn report_counters() {
        let mut r = RunReport::default();
        r.count("prepartitioned", 10);
        assert_eq!(r.counter("prepartitioned"), 10);
        assert_eq!(r.counter("missing"), 0);
    }
}
