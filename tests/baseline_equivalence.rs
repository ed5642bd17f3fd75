//! Cross-crate integration: the three trees and a `BTreeMap` oracle agree
//! on arbitrary operation sequences, sequentially and after concurrent
//! partitioned workloads.

use blink_baselines::{ConcurrentIndex, LehmanYaoTree, TopDownTree};
use blink_harness::workload::{KeyDist, Mix, OpGenerator, OpKind};
use blink_pagestore::{PageStore, StoreConfig};
use sagiv_blink::{BLinkTree, TreeConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

fn indexes(k: usize) -> Vec<Arc<dyn ConcurrentIndex>> {
    let store = || PageStore::new(StoreConfig::with_page_size(4096));
    vec![
        BLinkTree::create(store(), TreeConfig::with_k(k)).unwrap(),
        LehmanYaoTree::create(store(), k).unwrap(),
        TopDownTree::create(store(), k).unwrap(),
    ]
}

#[test]
fn oracle_equivalence_over_generated_workloads() {
    for (dist, mix, seed) in [
        (KeyDist::Uniform, Mix::BALANCED, 1u64),
        (KeyDist::Zipf { theta: 0.9 }, Mix::CHURN, 2),
        (KeyDist::Sequential, Mix::BALANCED, 3),
        (
            KeyDist::Hotspot {
                hot_fraction: 0.1,
                hot_prob: 0.9,
            },
            Mix::DELETE_HEAVY,
            4,
        ),
    ] {
        let trees = indexes(3);
        let mut sessions: Vec<_> = trees.iter().map(|t| t.session()).collect();
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        let mut gen = OpGenerator::new(500, dist.clone(), mix, seed);
        for step in 0..5_000u64 {
            let op = gen.next_op();
            let want = match op.kind {
                OpKind::Insert => {
                    if let std::collections::btree_map::Entry::Vacant(e) = oracle.entry(op.key) {
                        e.insert(step);
                        Some(true as u64)
                    } else {
                        Some(false as u64)
                    }
                }
                OpKind::Delete => Some(oracle.remove(&op.key).is_some() as u64),
                OpKind::Search => Some(oracle.contains_key(&op.key) as u64),
            };
            for (t, s) in trees.iter().zip(sessions.iter_mut()) {
                let got = match op.kind {
                    OpKind::Insert => Some(t.insert(s, op.key, step).unwrap() as u64),
                    OpKind::Delete => Some(t.delete(s, op.key).unwrap().is_some() as u64),
                    OpKind::Search => Some(t.search(s, op.key).unwrap().is_some() as u64),
                };
                assert_eq!(
                    got,
                    want,
                    "{} diverged from oracle at step {step} ({:?} {})",
                    t.name(),
                    op.kind,
                    op.key
                );
            }
        }
        // Final contents agree key-by-key.
        for key in 0..500u64 {
            let want = oracle.get(&key).copied();
            for (t, s) in trees.iter().zip(sessions.iter_mut()) {
                assert_eq!(t.search(s, key).unwrap(), want, "{} final state", t.name());
            }
        }
    }
}

#[test]
fn concurrent_partitioned_equivalence() {
    // Each thread owns a key partition; afterwards all trees contain the
    // identical, exactly-predictable key set.
    let trees = indexes(4);
    let threads = 4u64;
    let per = 3_000u64;
    for index in &trees {
        std::thread::scope(|s| {
            for w in 0..threads {
                let index = Arc::clone(index);
                s.spawn(move || {
                    let mut sess = index.session();
                    let base = w * 1_000_000;
                    for i in 0..per {
                        assert!(index.insert(&mut sess, base + i, i).unwrap());
                    }
                    for i in 0..per {
                        if i % 2 == 1 {
                            assert_eq!(index.delete(&mut sess, base + i).unwrap(), Some(i));
                        }
                    }
                });
            }
        });
    }
    let mut sessions: Vec<_> = trees.iter().map(|t| t.session()).collect();
    for w in 0..threads {
        for i in 0..per {
            let key = w * 1_000_000 + i;
            let want = (i % 2 == 0).then_some(i);
            for (t, s) in trees.iter().zip(sessions.iter_mut()) {
                assert_eq!(t.search(s, key).unwrap(), want, "{} key {key}", t.name());
            }
        }
    }
}
