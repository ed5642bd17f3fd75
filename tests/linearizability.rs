//! Cross-crate integration: recorded concurrent histories on all three
//! trees must be per-key linearizable (the executable form of Theorem 1/2's
//! "data equivalent to a serial schedule").

use blink_baselines::{ConcurrentIndex, LehmanYaoTree, TopDownTree};
use blink_harness::linearize::check_history;
use blink_harness::runner::{preload_keys, run_recorded, RunConfig};
use blink_harness::workload::{KeyDist, Mix};
use blink_pagestore::{PageStore, StoreConfig};
use sagiv_blink::{BLinkTree, CompressorPool, TreeConfig};
use std::sync::Arc;

fn store() -> Arc<PageStore> {
    PageStore::new(StoreConfig::with_page_size(4096))
}

fn cfg(seed: u64) -> RunConfig {
    RunConfig {
        threads: 6,
        ops_per_thread: 2_000,
        key_space: 25_000,
        dist: KeyDist::Uniform,
        mix: Mix::BALANCED,
        preload: 8_000,
        seed,
        ..RunConfig::default()
    }
}

fn assert_linearizable(index: Arc<dyn ConcurrentIndex>, seed: u64) {
    let cfg = cfg(seed);
    let initial = preload_keys(&cfg);
    let (r, events) = run_recorded(&index, &cfg);
    assert_eq!(r.errors, 0, "{}: operations errored", index.name());
    check_history(&events, &initial)
        .unwrap_or_else(|e| panic!("{} (seed {seed}): {e}", index.name()));
}

#[test]
fn sagiv_histories_linearize() {
    for seed in [31, 32] {
        assert_linearizable(
            BLinkTree::create(store(), TreeConfig::with_k(4)).unwrap(),
            seed,
        );
    }
}

#[test]
fn sagiv_with_compression_histories_linearize() {
    for seed in [41, 42] {
        let tree = BLinkTree::create(store(), TreeConfig::with_k(2)).unwrap();
        let pool = CompressorPool::spawn(&tree, 2);
        let index: Arc<dyn ConcurrentIndex> = Arc::clone(&tree) as _;
        let run = cfg(seed);
        let initial = preload_keys(&run);
        let (r, events) = run_recorded(&index, &run);
        pool.stop();
        assert_eq!(r.errors, 0);
        check_history(&events, &initial)
            .unwrap_or_else(|e| panic!("sagiv+compress (seed {seed}): {e}"));
    }
}

#[test]
fn lehman_yao_histories_linearize() {
    assert_linearizable(LehmanYaoTree::create(store(), 4).unwrap(), 51);
}

#[test]
fn topdown_histories_linearize() {
    assert_linearizable(TopDownTree::create(store(), 4).unwrap(), 61);
}
