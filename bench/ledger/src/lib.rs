//! The cost ledger: the repo's benchmark. See `README.md` in this directory.

pub mod e2e;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod procstat;
pub mod report;
pub mod serve;
pub mod span;
pub mod stats;
pub mod verify;
pub mod workload;
