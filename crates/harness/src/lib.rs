//! Experiment harness: seeded workload generation, thread orchestration,
//! metrics, history recording, linearizability checking, and table
//! rendering.
//!
//! The harness drives any [`blink_baselines::ConcurrentIndex`] with the
//! workloads from [`workload`], measures throughput/latency/lock
//! behaviour, and renders the tables the `paper` binary prints.

#![forbid(unsafe_code)]

mod dist;
pub mod hist;
pub mod linearize;
mod ops;
pub mod runner;
pub mod table;

/// Deterministic workload generation for the experiments.
///
/// The paper predates standard benchmark suites, so the experiments use the
/// conventional mixes of the concurrent-index literature: uniform and
/// skewed (zipfian) key choice, sequential insertion, hotspot access, and
/// operation mixes from read-heavy to delete-heavy. Everything is seeded
/// and reproducible.
pub mod workload {
    pub use crate::dist::{KeyDist, KeyPicker};
    pub use crate::ops::{Mix, Op, OpGenerator, OpKind};
}

pub use hist::Histogram;
pub use linearize::{check_history, Event, EventResult};
pub use runner::{run_recorded, run_workload, RunConfig, RunResult};
pub use table::Table;
