//! Shared helpers for the experiment binaries (`src/bin/exp*_*.rs`,
//! `src/bin/fig*_*.rs`) and criterion benches (`benches/`).
//!
//! Every binary reproduces one of the paper's claims or figures over the
//! index alone and prints paper-vs-measured; `Db` end to end is measured
//! by the benchmark in `benchmark/`. Set `QUICK=1` to shrink the workloads
//! ~10× for smoke runs.

#![forbid(unsafe_code)]

pub mod lint;

use blink_baselines::{ConcurrentIndex, LehmanYaoTree, TopDownTree};
use blink_pagestore::{MemBackend, PageStore, StoreConfig, StoreStats};
use sagiv_blink::{BLinkTree, TreeConfig, UnderflowPolicy};
use std::sync::Arc;
use std::time::Duration;

/// True when `QUICK=1` (CI / smoke mode).
pub fn quick() -> bool {
    std::env::var("QUICK").map(|v| v == "1").unwrap_or(false)
}

/// Scales a workload size down 10× in quick mode.
pub fn scale(n: u64) -> u64 {
    if quick() {
        (n / 10).max(1)
    } else {
        n
    }
}

/// Scales a duration down in quick mode.
pub fn scale_dur(d: Duration) -> Duration {
    if quick() {
        d / 10
    } else {
        d
    }
}

/// A fresh page store with 4 KiB pages (no simulated I/O delay).
pub fn fresh_store() -> Arc<PageStore> {
    PageStore::new(StoreConfig::with_page_size(4096))
}

/// A fresh page store with a simulated per-access latency and no buffer
/// pool (every access is a backend access — the literal §2.2 model).
pub fn fresh_store_io(delay: Duration) -> Arc<PageStore> {
    fresh_store_io_cached(delay, 0)
}

/// Like [`fresh_store_io`], plus a buffer pool of `frames` pinned frames
/// over the in-memory backend.
pub fn fresh_store_io_cached(delay: Duration, frames: usize) -> Arc<PageStore> {
    let cfg = StoreConfig {
        page_size: 4096,
        io_delay: Some(delay),
        pool_frames: frames,
    };
    let backend = Box::new(MemBackend::new(cfg.page_size));
    PageStore::with_parts(cfg, backend, None, Arc::new(StoreStats::default()), &[])
        .expect("a journal-less store over memory cannot fail to build")
}

/// Sagiv tree with queue-compression enabled.
pub fn sagiv(k: usize) -> Arc<BLinkTree> {
    BLinkTree::create(fresh_store(), TreeConfig::with_k(k)).unwrap()
}

/// Sagiv tree with \[8\]-style trivial deletions (no enqueue).
pub fn sagiv_no_compress(k: usize) -> Arc<BLinkTree> {
    let cfg = TreeConfig::with_k_and_policy(k, UnderflowPolicy::Ignore);
    BLinkTree::create(fresh_store(), cfg).unwrap()
}

/// Sagiv tree with inline compression (the deleting process compresses).
pub fn sagiv_inline(k: usize) -> Arc<BLinkTree> {
    let cfg = TreeConfig::with_k_and_policy(k, UnderflowPolicy::Inline);
    BLinkTree::create(fresh_store(), cfg).unwrap()
}

/// Lehman–Yao baseline.
pub fn lehman_yao(k: usize) -> Arc<LehmanYaoTree> {
    LehmanYaoTree::create(fresh_store(), k).unwrap()
}

/// Top-down lock-coupling baseline.
pub fn topdown(k: usize) -> Arc<TopDownTree> {
    TopDownTree::create(fresh_store(), k).unwrap()
}

/// The three indexes under their trait, same `k`.
pub fn all_indexes(k: usize) -> Vec<Arc<dyn ConcurrentIndex>> {
    vec![sagiv(k), lehman_yao(k), topdown(k)]
}

/// Prints a standard experiment header.
pub fn banner(id: &str, claim: &str) {
    println!("=== {id} ===");
    println!("paper claim: {claim}");
    if quick() {
        println!("(QUICK mode: workloads scaled down ~10x)");
    }
    println!();
}
