//! Shared helpers for the benchmark binaries: `repro` (every paper figure
//! and table, selected by `--figure <id>` or `--all`) and the JSON binaries
//! CI gates on.
//!
//! See the bin targets under `src/bin/` and `benches/` for the experiments.

pub mod gate;
pub mod harness;
