//! Baseline edge partitioners from the paper's evaluation (§V, Table I/II).
//!
//! Every algorithm the paper compares 2PS-L against, re-implemented from its
//! original publication on top of the shared [`tps_core::Partitioner`]
//! framework:
//!
//! | Module | Algorithm | Class | Complexity |
//! |---|---|---|---|
//! | [`stateless`] | Random hash, DBH, Grid | stateless streaming | `O(\|E\|)` |
//! | [`hdrf`] | HDRF (Petroni et al.) | stateful streaming | `O(\|E\|·k)` |
//! | [`greedy`] | Greedy (PowerGraph) | stateful streaming | `O(\|E\|·k)` |
//! | [`adwise`] | ADWISE-style buffered greedy | stateful streaming | `O(\|E\|·w·k)` |
//! | [`ne`] | NE — neighborhood expansion | in-memory | superlinear |
//! | [`sne`] | SNE — streaming NE | out-of-core | superlinear |
//! | [`dne`] | DNE — parallel NE | in-memory, parallel | superlinear |
//! | [`hep`] | HEP(τ) — hybrid | hybrid | mixed |
//! | [`multilevel`] | Multilevel (METIS-class) | in-memory | `O((\|V\|+\|E\|)·log k)` |
//!
//! The in-memory partitioners intentionally violate the out-of-core space
//! bound (they materialise a CSR) — that is the paper's comparison axis in
//! Fig. 4's memory column.

pub mod adwise;
pub mod dne;
pub mod greedy;
pub mod hdrf;
pub mod hep;
pub mod multilevel;
pub mod ne;
pub mod sne;
pub mod stateless;

pub use adwise::AdwisePartitioner;
pub use dne::DnePartitioner;
pub use greedy::GreedyPartitioner;
pub use hdrf::HdrfPartitioner;
pub use hep::HepPartitioner;
pub use multilevel::MultilevelPartitioner;
pub use ne::NePartitioner;
pub use sne::SnePartitioner;
pub use stateless::{DbhPartitioner, GridPartitioner, RandomPartitioner};

use tps_core::partitioner::Partitioner;

/// Construct every baseline with its default configuration, in the order the
/// paper's plots list them. `include_slow` adds ADWISE and the multilevel
/// partitioner (the two the paper itself could not always run to completion).
pub fn all_baselines(include_slow: bool) -> Vec<Box<dyn Partitioner>> {
    let mut v: Vec<Box<dyn Partitioner>> = vec![
        Box::new(HdrfPartitioner::default()),
        Box::new(DbhPartitioner::default()),
        Box::new(SnePartitioner::default()),
        Box::new(HepPartitioner::with_tau(1.0)),
        Box::new(HepPartitioner::with_tau(10.0)),
        Box::new(HepPartitioner::with_tau(100.0)),
        Box::new(NePartitioner),
        Box::new(DnePartitioner::default()),
    ];
    if include_slow {
        v.push(Box::new(AdwisePartitioner::default()));
        v.push(Box::new(MultilevelPartitioner::default()));
    }
    v
}
