//! What one partitioning run produces: [`RunOutcome`]. Runs are described
//! and executed through [`crate::job::JobSpec`].

use std::time::Duration;

use tps_metrics::quality::PartitionMetrics;

use crate::partitioner::RunReport;

/// Everything one partitioning run produces.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Algorithm name.
    pub name: String,
    /// Quality metrics of the run: the 2PS-L engines' own
    /// [`RunReport::quality`] (from the replication state they finished
    /// with), a `QualitySink`'s count of the emitted assignments for any
    /// other partitioner. The two are equal by test and by debug assertion.
    pub metrics: PartitionMetrics,
    /// The partitioner's own phase/counter report.
    pub report: RunReport,
    /// End-to-end wall-clock time of the `partition` call.
    pub wall_time: Duration,
    /// Peak heap growth during the run in bytes (0 unless the counting
    /// allocator is installed — bench binaries install it).
    pub peak_heap_bytes: usize,
}

impl RunOutcome {
    /// Wall time in seconds.
    pub fn seconds(&self) -> f64 {
        self.wall_time.as_secs_f64()
    }
}
