//! Storage-device models for the external-storage experiments (Table V).
//!
//! The paper evaluates 2PS-L's multi-pass streaming against three storage
//! configurations: the Linux page cache (memory-speed re-reads), a local SSD
//! (938 MB/s sequential, measured with `fio`) and a local HDD (158 MB/s),
//! dropping the page cache between passes so every pass re-reads the device.
//!
//! We model this with a **virtual clock**: [`DeviceModel`] charges each byte
//! streamed at the device's sequential bandwidth plus a per-pass seek
//! penalty, and [`DeviceStream`] wraps any [`EdgeStream`](tps_graph::stream::EdgeStream) to account every
//! pass. The simulated I/O time is added to the measured CPU time, which
//! matches the paper's single-threaded read-process loop (no overlap).
//! The virtual clock keeps the benches deterministic and fast — no actual
//! sleeping or disk access is required.

pub mod device;
pub mod profile;

pub use device::{DeviceModel, DeviceStream, IoAccount};
pub use profile::profile_sequential_read;
