//! Experiment harness: thread orchestration, metrics, history recording,
//! linearizability checking, and table rendering.
//!
//! The harness drives any [`blink_baselines::ConcurrentIndex`] with the
//! workloads from `blink-workload`, measures throughput/latency/lock
//! behaviour, and renders the tables the experiment binaries print.

#![forbid(unsafe_code)]

pub mod hist;
pub mod linearize;
pub mod runner;
pub mod table;

pub use hist::Histogram;
pub use linearize::{check_history, Event, EventResult};
pub use runner::{run_recorded, run_workload, RunConfig, RunResult};
pub use table::Table;
