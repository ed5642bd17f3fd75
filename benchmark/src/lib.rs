//! The repo's benchmark: four named `Db` workloads measured end to end
//! (`bench`) and layer by layer from outside (`bench-trace`). See
//! `README.md` for every metric, workload and how they interact.
//!
//! Nothing in this library touches more of the repo than the public `Db`
//! surface (`Db::open`, `DbConfig` constructors and the `pool_frames` /
//! `fsync` fields, sessions and their four ops, `sync` / `checkpoint` /
//! `verify` / `count`, `metrics()` counters looked up by name). Layer
//! handles are `bench-trace`'s alone, so a lower-layer refactor can break
//! the ledger's build but never the end-to-end ruler's.

pub mod client;
pub mod env;
pub mod gen;
pub mod hist;
pub mod json;
pub mod sets;
pub mod spec;
pub mod stats;
pub mod tape;
pub mod world;

pub type Res<T> = Result<T, String>;

/// Adds what was being done to an error from the store.
pub fn ctx<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}
