//! Optimistic-descent tests: root/branch levels are read without the
//! frame latch (seqlock-validated private copies) and **revalidated before
//! the descent acts on them** — a node rewritten between the version read
//! and the revalidation must force a restart, never a torn decode.

use sagiv_blink_repro::blink::{BLinkTree, TreeConfig};
use sagiv_blink_repro::db::{Db, DbConfig};
use sagiv_blink_repro::pagestore::{PageStore, StoreConfig};
use std::sync::Arc;

fn optimistic_tree(k: usize) -> Arc<BLinkTree> {
    let store = PageStore::new(StoreConfig::with_page_size(4096));
    BLinkTree::create(store, TreeConfig::with_k(k)).unwrap()
}

/// The deterministic seam: the test hook fires after the optimistic read
/// has decoded its private copy but *before* the stamp revalidation, and
/// there it splits a leaf — which inserts a separator into the root, the
/// very node the descent just read. The stale stamp must be rejected and
/// the descent restarted.
#[test]
fn split_between_version_read_and_revalidate_restarts_the_descent() {
    let tree = optimistic_tree(2);
    let mut s = tree.session();
    // Height exactly 2: one root over a handful of leaves, so any leaf
    // split rewrites the root (the first node every descent reads).
    for i in 0..8u64 {
        tree.insert(&mut s, i * 10, i).unwrap();
    }
    assert!(tree.height().unwrap() >= 2, "tree must have a branch level");

    let writer = Arc::clone(&tree);
    tree.optimistic_hook.arm(Box::new(move || {
        // Pack one leaf's key range until it splits: with k=2 a leaf
        // overflows after at most 5 co-located keys, and the new
        // separator is posted to the root.
        let mut s = writer.session();
        let before = writer.counters().snapshot().splits;
        for j in 1..=5u64 {
            writer.insert(&mut s, 30 + j, 1000 + j).unwrap();
        }
        assert!(
            writer.counters().snapshot().splits > before,
            "hook failed to force a split"
        );
    }));

    let restarts_before = tree.counters().snapshot().restarts;
    // The search must see the hook's root rewrite, restart, and still
    // produce the correct (pre-existing) binding — a torn decode would
    // either error or return garbage.
    assert_eq!(tree.search(&mut s, 70).unwrap(), Some(7));
    assert!(
        tree.counters().snapshot().restarts > restarts_before,
        "stale optimistic stamp must force a descent restart"
    );
    // The hook fired exactly once and disarmed itself; the keys it wrote
    // are fully visible to later (optimistic) descents.
    for j in 1..=5u64 {
        assert_eq!(tree.search(&mut s, 30 + j).unwrap(), Some(1000 + j));
    }
    let stats = tree.store().stats().snapshot();
    assert!(
        stats.optimistic_reads > 0,
        "descents must use the fast path"
    );
}

/// Optimistic descents stay correct under concurrent writers: every value
/// read must be one the workload actually wrote, and the fast path must
/// actually be taken.
#[test]
fn concurrent_writers_and_optimistic_readers_agree() {
    let tree = optimistic_tree(2);
    {
        let mut s = tree.session();
        for i in 0..400u64 {
            tree.insert(&mut s, i * 2, i * 2).unwrap();
        }
    }
    std::thread::scope(|scope| {
        let writer = Arc::clone(&tree);
        scope.spawn(move || {
            let mut s = writer.session();
            for i in 0..400u64 {
                writer.insert(&mut s, i * 2 + 1, i * 2 + 1).unwrap();
            }
        });
        for _ in 0..3 {
            let reader = Arc::clone(&tree);
            scope.spawn(move || {
                let mut s = reader.session();
                for round in 0..20 {
                    for i in 0..400u64 {
                        // Even keys are stable; odd keys may or may not
                        // exist yet but must never read garbage.
                        assert_eq!(reader.search(&mut s, i * 2).unwrap(), Some(i * 2));
                        if let Some(v) = reader.search(&mut s, i * 2 + 1).unwrap() {
                            assert_eq!(v, i * 2 + 1, "round {round}: torn odd read");
                        }
                    }
                }
            });
        }
    });
    tree.verify(false).unwrap().assert_ok();
    let stats = tree.store().stats().snapshot();
    assert!(stats.optimistic_reads > 0);
}

/// The `Db` facade descends optimistically and surfaces the counters
/// through `Db::metrics`.
#[test]
fn db_defaults_use_optimistic_descents() {
    let db = Db::open(DbConfig::in_memory().with_k(4)).unwrap();
    let mut s = db.session();
    for i in 0..600u64 {
        s.put(i, &i.to_le_bytes()).unwrap();
    }
    for i in 0..600u64 {
        assert_eq!(s.get(i).unwrap().as_deref(), Some(&i.to_le_bytes()[..]));
    }
    let m = db.metrics();
    assert!(
        m.store.optimistic_reads > 0,
        "Db must use the optimistic fast path"
    );
}
