//! Tests for both compression modes, root collapse, and reclamation.

use crate::config::{TreeConfig, UnderflowPolicy};
use crate::key::Bound;
use crate::tree::{BLinkTree, InsertOutcome};
use blink_pagestore::{PageStore, Session, StoreConfig};
use std::sync::Arc;

fn tree_with(k: usize, enqueue: bool) -> Arc<BLinkTree> {
    let store = PageStore::new(StoreConfig::with_page_size(4096));
    let policy = if enqueue {
        UnderflowPolicy::Enqueue
    } else {
        UnderflowPolicy::Ignore
    };
    BLinkTree::create(store, TreeConfig::with_k_and_policy(k, policy)).unwrap()
}

fn fill(t: &BLinkTree, s: &mut Session, n: u64) {
    for i in 0..n {
        assert_eq!(t.insert(s, i * 3 + 1, i).unwrap(), InsertOutcome::Inserted);
    }
}

// ======================================================================
// §5.1 scanner
// ======================================================================

#[test]
fn scanner_restores_min_fill_after_deletions() {
    let t = tree_with(2, false);
    let mut s = t.session();
    fill(&t, &mut s, 400);
    // Delete 3 of every 4 keys.
    for i in 0..400u64 {
        if i % 4 != 0 {
            assert!(t.delete(&mut s, i * 3 + 1).unwrap().is_some());
        }
    }
    let before = t.verify(false).unwrap();
    before.assert_ok();
    assert!(
        before.underfull_nodes > 0,
        "deletions must leave sparse nodes"
    );

    let passes = t.compress_to_fixpoint(&mut s, 64).unwrap();
    assert!(passes < 64, "compression must reach a fixpoint");
    let after = t.verify(true).unwrap();
    after.assert_ok();
    assert!(
        after.node_count < before.node_count,
        "compression must release nodes"
    );

    // Logical data untouched.
    for i in 0..400u64 {
        let want = if i % 4 == 0 { Some(i) } else { None };
        assert_eq!(
            t.search(&mut s, i * 3 + 1).unwrap(),
            want,
            "key {}",
            i * 3 + 1
        );
    }
}

#[test]
fn scanner_collapses_emptied_tree_to_single_leaf() {
    let t = tree_with(2, false);
    let mut s = t.session();
    fill(&t, &mut s, 500);
    assert!(t.height().unwrap() >= 3);
    for i in 0..500u64 {
        t.delete(&mut s, i * 3 + 1).unwrap();
    }
    let passes = t.compress_to_fixpoint(&mut s, 128).unwrap();
    assert!(passes < 128);
    assert_eq!(
        t.height().unwrap(),
        1,
        "emptied tree must collapse to a single leaf"
    );
    let rep = t.verify(false).unwrap();
    rep.assert_ok();
    assert_eq!(rep.node_count, 1);
    assert_eq!(rep.leaf_pairs, 0);
    // The surviving root spans the whole key space again.
    let prime = t.prime_snapshot().unwrap();
    let root = t.read_node(prime.root).unwrap();
    assert_eq!(root.low, Bound::NegInf);
    assert_eq!(root.high, Bound::PosInf);
    assert!(t.counters().snapshot().root_collapses > 0);
}

#[test]
fn scanner_pass_on_compact_tree_is_a_noop() {
    let t = tree_with(2, false);
    let mut s = t.session();
    fill(&t, &mut s, 300);
    let stats = t.compress_pass(&mut s).unwrap();
    assert_eq!(stats.merges, 0);
    assert_eq!(stats.redistributes, 0);
    assert!(!stats.root_collapsed);
    assert!(stats.untouched > 0);
    t.verify(true).unwrap().assert_ok();
}

#[test]
fn scanner_passes_grow_logarithmically() {
    // §5.1: "O(log₂ n) passes over the tree are required" to collapse an
    // emptied tree. Check the growth is far below linear.
    let mut passes_for = vec![];
    for &n in &[200u64, 2000] {
        let t = tree_with(2, false);
        let mut s = t.session();
        fill(&t, &mut s, n);
        for i in 0..n {
            t.delete(&mut s, i * 3 + 1).unwrap();
        }
        let passes = t.compress_to_fixpoint(&mut s, 256).unwrap();
        assert_eq!(t.height().unwrap(), 1);
        passes_for.push(passes);
    }
    // 10x the keys must cost far less than 10x the passes.
    assert!(
        passes_for[1] < passes_for[0] * 5,
        "passes grew too fast: {passes_for:?}"
    );
}

// ======================================================================
// §5.4 queue workers
// ======================================================================

#[test]
fn queue_drain_restores_min_fill() {
    let t = tree_with(2, true);
    let mut s = t.session();
    fill(&t, &mut s, 400);
    for i in 0..400u64 {
        if i % 4 != 0 {
            t.delete(&mut s, i * 3 + 1).unwrap();
        }
    }
    assert!(t.queue_len() > 0);
    let stats = t.compress_drain(&mut s, 100_000).unwrap();
    assert!(stats.done > 0);
    assert_eq!(t.queue_len(), 0, "drain must empty the queue");
    t.verify(true).unwrap().assert_ok();
    for i in 0..400u64 {
        let want = if i % 4 == 0 { Some(i) } else { None };
        assert_eq!(t.search(&mut s, i * 3 + 1).unwrap(), want);
    }
}

#[test]
fn queue_drain_collapses_emptied_tree() {
    let t = tree_with(2, true);
    let mut s = t.session();
    fill(&t, &mut s, 600);
    for i in 0..600u64 {
        t.delete(&mut s, i * 3 + 1).unwrap();
        // Interleave some draining, as a background worker would.
        if i % 50 == 49 {
            t.compress_drain(&mut s, 10_000).unwrap();
        }
    }
    t.compress_drain(&mut s, 100_000).unwrap();
    // Queue compression of leaves can leave a chain of empty internal
    // levels only the root check prunes; finish with the scanner fixpoint
    // as §5.4's hybrid deployments do.
    t.compress_to_fixpoint(&mut s, 64).unwrap();
    assert_eq!(t.height().unwrap(), 1);
    t.verify(true).unwrap().assert_ok();
}

#[test]
fn queue_cascades_enqueue_parents() {
    let t = tree_with(2, true);
    let mut s = t.session();
    fill(&t, &mut s, 800);
    for i in 0..800u64 {
        t.delete(&mut s, i * 3 + 1).unwrap();
    }
    t.compress_drain(&mut s, 200_000).unwrap();
    let c = t.counters().snapshot();
    assert!(c.merges > 0);
    // Merging leaves must have produced under-full parents that were
    // themselves enqueued (cascade).
    assert!(
        c.enqueues > 800 / (2 * 2),
        "expected cascaded enqueues, got {}",
        c.enqueues
    );
}

#[test]
fn compress_step_on_empty_queue_is_idle() {
    let t = tree_with(2, true);
    let mut s = t.session();
    assert_eq!(
        t.compress_step(&mut s).unwrap(),
        crate::compress::worker::CompressStep::Idle
    );
}

#[test]
fn the_upkeep_step_drains_the_queue_and_reclaims_in_bounded_chunks() {
    let t = tree_with(2, true);
    let mut s = t.session();
    fill(&t, &mut s, 400);
    for i in 0..400u64 {
        if i % 4 != 0 {
            t.delete(&mut s, i * 3 + 1).unwrap();
        }
    }
    let queued = t.queue_len();
    assert!(queued > 4, "the deletions must queue under-full leaves");
    // A chunk of 4 items takes 4 off the queue and leaves work behind.
    assert!(t.compress_upkeep(&mut s, 4));
    assert!(t.queue_len() < queued);
    let mut ticks = 1;
    while t.compress_upkeep(&mut s, 4) {
        ticks += 1;
        assert!(ticks < 10_000, "the queue must drain");
    }
    assert_eq!(t.queue_len(), 0);
    let c = t.counters().snapshot();
    assert!(c.merges > 0, "{c:?}");
    assert_eq!(c.compress_errors, 0);
    // Every page the merges deleted was released in the same steps: no
    // session is inside an operation, so §5.3 holds none back.
    assert_eq!(t.pending_reclaim(), 0);
    assert_eq!(c.reclaimed, c.merges + c.root_collapses);
    t.verify(false).unwrap().assert_ok();
    // On an empty queue the step is idle.
    assert!(!t.compress_upkeep(&mut s, 4));
}

#[test]
fn stale_queue_item_for_split_node_is_discarded() {
    let t = tree_with(2, true);
    let mut s = t.session();
    fill(&t, &mut s, 40);
    // Underflow a leaf to enqueue it…
    let mut victim = None;
    for i in 0..40u64 {
        t.delete(&mut s, i * 3 + 1).unwrap();
        if t.queue_len() > 0 {
            victim = Some(i);
            break;
        }
    }
    assert!(victim.is_some());
    // …then grow the tree back so the enqueued leaf splits (high changes).
    for i in 0..200u64 {
        t.insert(&mut s, i * 3 + 2, i).unwrap();
    }
    let stats = t.compress_drain(&mut s, 10_000).unwrap();
    // Either the item was processed as a no-op (footnote 15) or discarded
    // because its recorded high value is stale — both are paper-correct.
    assert_eq!(t.queue_len(), 0);
    let _ = stats;
    t.verify(false).unwrap().assert_ok();
}

// ======================================================================
// Reclamation (§5.3 / §5.4)
// ======================================================================

#[test]
fn deleted_pages_are_reclaimed_only_past_the_horizon() {
    let t = tree_with(2, false);
    let mut s = t.session();
    fill(&t, &mut s, 400);
    for i in 0..400u64 {
        if i % 4 != 0 {
            t.delete(&mut s, i * 3 + 1).unwrap();
        }
    }
    // A reader that starts *before* the compression deletes nodes pins the
    // horizon: §5.3's rule releases a node only when every running process
    // started after its deletion time.
    let mut old_reader = t.session();
    old_reader.begin_op();
    let clock_before = t.clock.now();

    t.compress_to_fixpoint(&mut s, 64).unwrap();
    let pending = t.pending_reclaim();
    assert!(pending > 0, "compression must defer node frees");
    // Only deletions tick the clock; starting an operation reads it.
    assert_eq!(t.clock.now() - clock_before, pending as u64);
    // A reader that starts *after* the deletions pins none of them.
    let mut new_reader = t.session();
    new_reader.begin_op();
    assert_eq!(
        t.reclaim().unwrap(),
        0,
        "active old process must block reclamation"
    );

    old_reader.end_op();
    let freed = t.reclaim().unwrap();
    assert_eq!(freed, pending);
    new_reader.end_op();
    assert_eq!(t.pending_reclaim(), 0);
    t.verify(true).unwrap().assert_ok();
}

#[test]
fn a_queued_stack_stamp_pins_the_horizon() {
    // Deletions under the enqueue policy queue their under-full leaves
    // with the deleting operation's start stamp (§5.4). Nodes the scanner
    // deletes afterwards are stamped no earlier, so while the queue holds
    // those stacks no deleted page is released, even with no process
    // running; draining the queue releases them.
    let t = tree_with(2, true);
    let mut s = t.session();
    fill(&t, &mut s, 400);
    for i in 0..400u64 {
        if i % 4 != 0 {
            t.delete(&mut s, i * 3 + 1).unwrap();
        }
    }
    let queued = t
        .queue
        .min_stamp()
        .expect("deletions enqueue under-full leaves");
    t.compress_to_fixpoint(&mut s, 64).unwrap();
    let pending = t.pending_reclaim();
    assert!(pending > 0, "compression must defer node frees");
    assert!(t.queue_len() > 0, "the scanner left no queued stack");
    assert_eq!(t.queue.min_stamp(), Some(queued));
    assert_eq!(
        t.reclaim().unwrap(),
        0,
        "a queued stack must pin the horizon"
    );

    t.compress_drain(&mut s, 100_000).unwrap();
    assert_eq!(t.queue_len(), 0);
    assert!(t.reclaim().unwrap() >= pending);
    assert_eq!(t.pending_reclaim(), 0);
    t.verify(true).unwrap().assert_ok();
}

#[test]
fn reader_overlapping_compression_still_finds_data() {
    // A reader that read a node just before it was merged away must be able
    // to follow the deleted node's merge pointer (§5.2 case 1 / [4]).
    let t = tree_with(2, false);
    let mut s = t.session();
    fill(&t, &mut s, 100);
    for i in 0..100u64 {
        if i % 4 != 0 {
            t.delete(&mut s, i * 3 + 1).unwrap();
        }
    }
    // Snapshot a leaf pid that is about to be merged away.
    let prime = t.prime_snapshot().unwrap();
    let mut pid = prime.leftmost_at(0).unwrap();
    let mut merged_away = None;
    loop {
        let n = t.read_node(pid).unwrap();
        let Some(link) = n.link else { break };
        let right = t.read_node(link).unwrap();
        if n.pairs() < 2 || right.pairs() < 2 {
            merged_away = Some(link);
        }
        pid = link;
    }
    t.compress_to_fixpoint(&mut s, 64).unwrap();
    if let Some(dead) = merged_away {
        // Without reclamation the page is still readable and redirects.
        let node = t.read_node(dead);
        if let Ok(node) = node {
            if node.deleted {
                assert!(
                    node.merge_target.is_some(),
                    "deleted node must point at its merge target"
                );
            }
        }
    }
    // All surviving keys remain reachable.
    for i in (0..100u64).filter(|i| i % 4 == 0) {
        assert_eq!(t.search(&mut s, i * 3 + 1).unwrap(), Some(i));
    }
}

// ======================================================================
// Compression concurrent with updates
// ======================================================================

#[test]
fn concurrent_updates_and_compressor_pool() {
    use crate::compress::worker::CompressorPool;
    let t = tree_with(2, true);
    let pool = CompressorPool::spawn(&t, 2);

    let threads = 4u32;
    let per = 1500u64;
    let mut handles = vec![];
    for w in 0..threads {
        let t = Arc::clone(&t);
        handles.push(std::thread::spawn(move || {
            let mut s = t.session();
            let base = u64::from(w) * 1_000_000;
            for i in 0..per {
                t.insert(&mut s, base + i, i).unwrap();
            }
            for i in 0..per {
                if i % 2 == 0 {
                    assert_eq!(t.delete(&mut s, base + i).unwrap(), Some(i));
                }
            }
            for i in 0..per {
                let want = if i % 2 == 0 { None } else { Some(i) };
                assert_eq!(t.search(&mut s, base + i).unwrap(), want);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    pool.stop();

    // Finish compression at quiescence and verify everything.
    let mut s = t.session();
    t.compress_drain(&mut s, 1_000_000).unwrap();
    t.compress_to_fixpoint(&mut s, 64).unwrap();
    t.reclaim().unwrap();
    let rep = t.verify(false).unwrap();
    rep.assert_ok();
    assert_eq!(rep.leaf_pairs as u64, u64::from(threads) * per / 2);
}

#[test]
fn scanner_daemon_runs_alongside_updates() {
    use crate::compress::scanner::ScannerDaemon;
    let t = tree_with(2, false);
    let daemon = ScannerDaemon::spawn(&t, std::time::Duration::from_millis(1));
    let mut s = t.session();
    for i in 0..3000u64 {
        t.insert(&mut s, i, i).unwrap();
        if i >= 10 && i % 3 == 0 {
            t.delete(&mut s, i - 10).unwrap();
        }
    }
    daemon.stop();
    let mut s2 = t.session();
    t.compress_to_fixpoint(&mut s2, 64).unwrap();
    t.verify(false).unwrap().assert_ok();
}

// ======================================================================
// Inline compression (abstract / §5.4 option 3)
// ======================================================================

#[test]
fn inline_policy_compresses_as_it_deletes() {
    let store = PageStore::new(StoreConfig::with_page_size(4096));
    let t = BLinkTree::create(
        store,
        TreeConfig::with_k_and_policy(2, UnderflowPolicy::Inline),
    )
    .unwrap();
    let mut s = t.session();
    fill(&t, &mut s, 500);
    for i in 0..500u64 {
        t.delete(&mut s, i * 3 + 1).unwrap();
    }
    // No separate worker ever ran; the deleting process did it all, so the
    // queue holds at most stragglers and the tree is already collapsed (or
    // nearly so — finish any fallback items).
    t.compress_drain(&mut s, 100_000).unwrap();
    t.compress_to_fixpoint(&mut s, 64).unwrap();
    assert_eq!(t.height().unwrap(), 1);
    t.verify(true).unwrap().assert_ok();
    assert!(
        t.counters().snapshot().merges > 100,
        "inline deletions must merge as they go"
    );
}

#[test]
fn inline_policy_keeps_fill_without_any_workers() {
    let store = PageStore::new(StoreConfig::with_page_size(4096));
    let t = BLinkTree::create(
        store,
        TreeConfig::with_k_and_policy(3, UnderflowPolicy::Inline),
    )
    .unwrap();
    let mut s = t.session();
    fill(&t, &mut s, 600);
    for i in 0..600u64 {
        if i % 4 != 0 {
            t.delete(&mut s, i * 3 + 1).unwrap();
        }
    }
    t.compress_drain(&mut s, 100_000).unwrap(); // stragglers only
    t.verify(true).unwrap().assert_ok();
    for i in 0..600u64 {
        let want = if i % 4 == 0 { Some(i) } else { None };
        assert_eq!(t.search(&mut s, i * 3 + 1).unwrap(), want);
    }
}

#[test]
fn inline_policy_under_concurrency() {
    let store = PageStore::new(StoreConfig::with_page_size(4096));
    let t = BLinkTree::create(
        store,
        TreeConfig::with_k_and_policy(2, UnderflowPolicy::Inline),
    )
    .unwrap();
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let t = Arc::clone(&t);
            scope.spawn(move || {
                let mut s = t.session();
                let base = w << 32;
                for i in 0..2_000u64 {
                    t.insert(&mut s, base + i, i).unwrap();
                }
                for i in 0..2_000u64 {
                    t.delete(&mut s, base + i).unwrap();
                }
            });
        }
    });
    let mut s = t.session();
    t.compress_drain(&mut s, 1_000_000).unwrap();
    t.compress_to_fixpoint(&mut s, 128).unwrap();
    assert_eq!(t.height().unwrap(), 1);
    t.verify(false).unwrap().assert_ok();
}

// ======================================================================
// Ablation knobs (E9)
// ======================================================================

#[test]
fn naive_write_order_still_correct() {
    // Disabling the §5.2 gainer-first ordering may cost extra restarts but
    // must never cost correctness.
    let store = PageStore::new(StoreConfig::with_page_size(4096));
    let cfg = TreeConfig {
        gainer_first_writes: false,
        ..TreeConfig::with_k(2)
    };
    let t = BLinkTree::create(store, cfg).unwrap();
    let mut s = t.session();
    fill(&t, &mut s, 400);
    for i in 0..400u64 {
        if i % 3 != 0 {
            t.delete(&mut s, i * 3 + 1).unwrap();
        }
    }
    t.compress_drain(&mut s, 200_000).unwrap();
    t.verify(true).unwrap().assert_ok();
    for i in 0..400u64 {
        let want = if i % 3 == 0 { Some(i) } else { None };
        assert_eq!(t.search(&mut s, i * 3 + 1).unwrap(), want);
    }
}

#[test]
fn no_merge_pointers_still_correct() {
    // Without the [4] merge-pointer trick, readers restart instead of
    // redirecting; data correctness is unaffected.
    let store = PageStore::new(StoreConfig::with_page_size(4096));
    let cfg = TreeConfig {
        merge_pointers: false,
        ..TreeConfig::with_k(2)
    };
    let t = BLinkTree::create(store, cfg).unwrap();
    let mut s = t.session();
    fill(&t, &mut s, 500);
    for i in 0..500u64 {
        t.delete(&mut s, i * 3 + 1).unwrap();
    }
    t.compress_drain(&mut s, 200_000).unwrap();
    t.compress_to_fixpoint(&mut s, 128).unwrap();
    assert_eq!(t.height().unwrap(), 1);
    t.verify(false).unwrap().assert_ok();
}

#[test]
fn no_merge_pointers_concurrent_readers_restart_but_succeed() {
    let store = PageStore::new(StoreConfig::with_page_size(4096));
    let cfg = TreeConfig {
        merge_pointers: false,
        ..TreeConfig::with_k(2)
    };
    let t = BLinkTree::create(store, cfg).unwrap();
    let mut s = t.session();
    for i in 0..10_000u64 {
        t.insert(&mut s, i, i).unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let restarts = std::thread::scope(|scope| {
        let mut readers = vec![];
        for r in 0..3u64 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            readers.push(scope.spawn(move || {
                let mut sess = t.session();
                let mut x = r + 1;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
                    let key = (x >> 35) % 10_000;
                    if let Some(v) = t.search(&mut sess, key).unwrap() {
                        assert_eq!(v, key);
                    }
                }
                sess.stats().restarts
            }));
        }
        {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut sess = t.session();
                for i in 0..10_000u64 {
                    if i % 2 == 0 {
                        t.delete(&mut sess, i).unwrap();
                    }
                }
                t.compress_drain(&mut sess, 1_000_000).unwrap();
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            });
        }
        readers.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
    });
    // Readers survived; restarts may or may not have occurred depending on
    // timing, but the mechanism was exercised under churn.
    let _ = restarts;
    t.verify(false).unwrap().assert_ok();
}
