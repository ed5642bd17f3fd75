//! Meta-crate for the Sagiv B*-tree reproduction workspace.
//!
//! Re-exports the member crates so examples and integration tests have a
//! single dependency root. See the individual crates for documentation:
//!
//! * [`blink_db`] — **start here**: the unified `Db` facade (byte-value
//!   KV API with streaming scans over the dense index)
//! * [`sagiv_blink`] — the paper's contribution (core library)
//! * [`blink_pagestore`] — storage/locking substrate (§2.2 model)
//! * [`blink_durable`] — WAL, file-backed pages, crash recovery
//! * [`blink_baselines`] — Lehman–Yao and top-down baselines
//! * [`blink_harness`] — workload generators, experiment harness and
//!   linearizability checker

pub use blink_baselines as baselines;
pub use blink_db as db;
pub use blink_durable as durable;
pub use blink_harness as harness;
pub use blink_harness::workload;
pub use blink_pagestore as pagestore;
pub use sagiv_blink as blink;
