//! Optimistic-descent tests: every traversal read — prime block, index
//! levels, leaves — and a `Db` get's record read is a probe of the frame in
//! place, taken without a pin or a frame latch, which **the store validates
//! before it hands the result out** — a node rewritten inside the probe
//! window must send the read to its latched fallback, never yield a torn
//! route.

use sagiv_blink_repro::blink::{BLinkTree, TreeConfig};
use sagiv_blink_repro::db::{Db, DbConfig, PutOutcome};
use sagiv_blink_repro::pagestore::{PageId, PageStore, StoreConfig, WriteIntent};
use std::sync::Arc;

fn optimistic_tree(k: usize) -> Arc<BLinkTree> {
    let store = PageStore::new(StoreConfig::with_page_size(4096));
    BLinkTree::create(store, TreeConfig::with_k(k)).unwrap()
}

/// The deterministic seam: the test hook fires inside the probe closure,
/// after the route is decoded and before the store validates the run, and
/// there it splits a leaf — which inserts a separator into the root, the
/// very node the descent is reading. The store must void the run and serve
/// the root from a latched read instead, so the descent goes on without a
/// restart.
#[test]
fn split_inside_the_probe_window_falls_back_to_a_latched_read() {
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
    let fallbacks_before = tree.store().stats().snapshot().optimistic_read_fallbacks;
    // The search must see the hook's root rewrite, fall back, and still
    // produce the correct (pre-existing) binding — a torn decode would
    // either error or return garbage.
    assert_eq!(tree.search(&mut s, 70).unwrap(), Some(7));
    assert!(
        tree.store().stats().snapshot().optimistic_read_fallbacks > fallbacks_before,
        "a run voided by a write must fall back to a latched read"
    );
    assert_eq!(
        tree.counters().snapshot().restarts,
        restarts_before,
        "a voided probe falls back; it does not restart the descent"
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

/// On a resident tree a search is optimistic end to end: the prime block
/// and one node per level, each read without a pin or a latch.
#[test]
fn resident_search_takes_no_pin_or_latch() {
    let tree = optimistic_tree(4);
    let mut s = tree.session();
    for i in 0..2_000u64 {
        tree.insert(&mut s, i, i * 3).unwrap();
    }
    // Warm-up: every page is resident (the default pool holds them all).
    for i in 0..2_000u64 {
        assert_eq!(tree.search(&mut s, i).unwrap(), Some(i * 3));
    }
    let height = u64::from(tree.height().unwrap());
    assert!(height >= 3, "the descent must cross index levels");
    const N: u64 = 500;
    let before = tree.store().stats().snapshot();
    for i in 0..N {
        let key = (i * 7) % 2_000;
        assert_eq!(tree.search(&mut s, key).unwrap(), Some(key * 3));
    }
    let d = tree.store().stats().snapshot().delta(&before);
    assert_eq!(d.pins, 0, "a resident search must not pin");
    assert_eq!(d.cache_hits + d.cache_misses, 0, "no latched page read");
    assert_eq!(
        d.optimistic_reads,
        N * (height + 1),
        "prime + one per level"
    );
    assert_eq!(d.optimistic_read_fallbacks, 0);
}

/// A whole resident `DbSession::get` is optimistic: the prime block, one
/// route per tree level and the record read, each in place in its frame
/// without a pin or a latch.
#[test]
fn resident_db_get_takes_no_pin_or_latch() {
    let db = Db::open(DbConfig::in_memory().with_k(4)).unwrap();
    let mut s = db.session();
    for i in 0..2_000u64 {
        s.put(i, &(i * 3).to_le_bytes()).unwrap();
    }
    // Warm-up: every page is resident (the default pool holds them all).
    for i in 0..2_000u64 {
        assert_eq!(s.get(i).unwrap(), Some((i * 3).to_le_bytes().to_vec()));
    }
    let height = u64::from(db.tree().height().unwrap());
    assert!(height >= 3, "the descent must cross index levels");
    const N: u64 = 500;
    let before = db.store().stats().snapshot();
    for i in 0..N {
        let key = (i * 7) % 2_000;
        assert_eq!(s.get(key).unwrap(), Some((key * 3).to_le_bytes().to_vec()));
    }
    let d = db.store().stats().snapshot().delta(&before);
    assert_eq!(d.pins, 0, "a resident get must not pin");
    assert_eq!(d.cache_hits + d.cache_misses, 0, "no latched page read");
    assert_eq!(
        d.optimistic_reads,
        N * (height + 2),
        "prime + one per level + the record"
    );
    assert_eq!(d.optimistic_read_fallbacks, 0);
}

/// A resident `Db`'s writers read no page latched either: an insert into a
/// leaf that does not split, an in-place overwrite and a delete each
/// re-read their leaf under its paper lock through the same validated
/// probe as a get, so the only pins they take are their own page writes.
#[test]
fn resident_db_writes_pin_only_their_page_writes() {
    let db = Db::open(DbConfig::in_memory().with_k(4)).unwrap();
    let mut s = db.session();
    for i in (0..2_000u64).step_by(2) {
        s.put(i, &i.to_le_bytes()).unwrap();
    }
    let splits = db.tree().counters().snapshot().splits;
    let before = db.store().stats().snapshot();
    assert_eq!(s.put(1_001, &[7u8; 8]).unwrap(), PutOutcome::Inserted);
    assert_eq!(s.put(1_000, &[9u8; 8]).unwrap(), PutOutcome::Replaced);
    assert!(s.delete(998).unwrap());
    let d = db.store().stats().snapshot().delta(&before);
    assert_eq!(db.tree().counters().snapshot().splits, splits, "no split");
    assert_eq!(d.cache_hits + d.cache_misses, 0, "no latched page read");
    // Heap insert + leaf; heap update; leaf + heap free.
    assert_eq!((d.pins, d.puts), (5, 5), "one pin per page write");
    assert_eq!(d.optimistic_read_fallbacks, 0);
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

/// Page `pid`'s pattern: its raw id in every 4-byte word, so a probe that
/// mixes two images, or two pages, sees two different words.
fn pattern_of(pid: PageId, page_size: usize) -> Vec<u8> {
    pid.to_raw().to_le_bytes().repeat(page_size / 4)
}

/// Writes `pid`'s pattern over a page just allocated, which must read as
/// all zeros.
fn fill_fresh(store: &PageStore, pid: PageId) {
    let page = store.get(pid).unwrap();
    assert!(
        page.bytes().iter().all(|&b| b == 0),
        "{pid:?} was (re)allocated with stale bytes"
    );
    let mut w = store.write_page(pid, WriteIntent::Overwrite).unwrap();
    w.bytes_mut()
        .copy_from_slice(&pattern_of(pid, store.page_size()));
    w.commit().unwrap();
}

/// A store without a backend grows its frame table while readers probe it
/// unlatched: two allocators grow it past the chunk boundaries at 512,
/// 1 536 and 3 584 pages, a churner frees and re-allocates pages of its
/// own, and readers read pages that already exist. A read must see one
/// whole image of its own page (its pattern, or the zeros of a page not
/// written yet), a probe whose window spans a free and a re-alloc must
/// fall back to the zeroed page, and every (re)allocated page must read as
/// zeros.
#[test]
fn frame_table_growth_under_unlatched_readers() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const PAGE: usize = 64;
    const TARGET: usize = 4_000;
    let store = PageStore::new(StoreConfig::with_page_size(PAGE));
    let done = Arc::new(AtomicBool::new(false));
    let accepted = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for r in 0..2u64 {
            let (store, done, accepted) = (&store, &done, &accepted);
            scope.spawn(move || {
                let mut x = r + 1;
                let mut words = [0u8; PAGE];
                while !done.load(Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let have = store.capacity();
                    if have == 0 {
                        continue;
                    }
                    let pid = PageId::from_raw(1 + (x >> 33) as u32 % have as u32).unwrap();
                    let Ok(true) = store.read_probe(pid, |p| p.copy(0, &mut words)) else {
                        continue;
                    };
                    let own = pattern_of(pid, PAGE);
                    assert!(
                        words[..] == own[..] || words.iter().all(|&b| b == 0),
                        "a read of {pid:?} saw a torn or foreign image"
                    );
                    accepted.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let churner = {
            let (store, done) = (&store, &done);
            scope.spawn(move || {
                let mut mine: Vec<PageId> = (0..32).map(|_| store.alloc().unwrap()).collect();
                for &pid in &mine {
                    fill_fresh(store, pid);
                }
                let mut page = [0u8; PAGE];
                let mut rounds = 0u64;
                while !done.load(Ordering::Relaxed) || rounds < 200 {
                    let slot = rounds as usize % mine.len();
                    let pid = mine[slot];
                    // Free and re-allocate inside the probe's own window:
                    // no writer touches the churner's pages, so the probe
                    // runs, and the store must void it.
                    let (mut first, mut again) = (true, None);
                    let read = store.read_probe(pid, |p| {
                        let copied = p.copy(0, &mut page);
                        if std::mem::take(&mut first) {
                            store.free(pid).unwrap();
                            again = Some(store.alloc().unwrap());
                        }
                        copied
                    });
                    let again = again.expect("the closure ran");
                    // A grower may have taken the freed page instead.
                    if again == pid {
                        assert!(
                            read == Ok(true) && page.iter().all(|&b| b == 0),
                            "a free + re-alloc must void the probe"
                        );
                    }
                    fill_fresh(store, again);
                    mine[slot] = again;
                    rounds += 1;
                }
                rounds
            })
        };
        let growers: Vec<_> = (0..2)
            .map(|_| {
                let store = &store;
                scope.spawn(move || {
                    while store.capacity() < TARGET {
                        let pid = store.alloc().unwrap();
                        fill_fresh(store, pid);
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        for g in growers {
            g.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        assert!(churner.join().unwrap() >= 200);
    });
    assert!(store.capacity() >= TARGET, "the table crossed 3 584 pages");
    assert!(accepted.load(Ordering::Relaxed) > 0, "no read succeeded");
    let s = store.stats().snapshot();
    assert!(s.optimistic_reads > 0, "no probe was accepted");
    assert_eq!((s.cache_misses, s.frames_evicted), (0, 0));
}
