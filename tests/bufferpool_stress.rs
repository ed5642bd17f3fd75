//! Buffer-pool stress: pin/evict under contention.
//!
//! PR 2's acceptance properties, exercised with many threads on a pool far
//! smaller than the page set:
//!
//! * pinned frames are never evicted — a held read guard keeps observing
//!   its page's bytes no matter how much eviction pressure other threads
//!   generate;
//! * guards never observe torn pages — every page is always a single
//!   repeated pattern byte, so any mixed content is a tear;
//! * dirty victims hit the WAL before the backend — write-ahead order is
//!   checked by an instrumented backend/journal pair counting, per page,
//!   log records vs. backend writes;
//! * a whole tree churned by eight threads on 16 frames: no op fails and
//!   the tree verifies;
//! * a durable `Db`'s records and index churned together on 16 frames, so
//!   the pool's victim choice alternates between record frames and index
//!   frames: no op fails, every read sees its own writes, and `Db` verifies.

use blink_baselines::ConcurrentIndex;
use blink_db::{Db, DbConfig};
use blink_durable::FsyncPolicy;
use blink_harness::runner::{run_workload, RunConfig};
use blink_harness::workload::{KeyDist, Mix};
use blink_pagestore::{
    Journal, MemBackend, Page, PageBackend, PageEdit, PageId, PageStore, Result, StoreConfig,
    StoreStats, WriteIntent,
};
use parking_lot::Mutex;
use sagiv_blink::{BLinkTree, TreeConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn quick() -> bool {
    std::env::var("QUICK").map(|v| v == "1").unwrap_or(false)
}

/// A store whose pool of `cfg.pool_frames` frames caches a [`MemBackend`]
/// (a store built by `PageStore::new` gives every page a frame of its own
/// and never evicts).
fn pooled(cfg: StoreConfig) -> Arc<PageStore> {
    let backend = Box::new(MemBackend::new(cfg.page_size));
    PageStore::with_parts(cfg, backend, None, Arc::new(StoreStats::default()), &[]).unwrap()
}

fn patterned(page_size: usize, tag: u8) -> Page {
    let mut p = Page::zeroed(page_size);
    p.bytes_mut().fill(tag);
    p
}

/// Many readers + writers over 64 pages squeezed through a 8-frame pool.
/// Writers cycle each page through full-pattern images; readers assert that
/// every guard shows exactly one pattern (no tears, no stale mixes).
#[test]
fn guards_never_observe_torn_pages_under_eviction_pressure() {
    let page_size = 512;
    let store = pooled(StoreConfig {
        page_size,
        pool_frames: 8,
    });
    let pages: Vec<PageId> = (0..64).map(|_| store.alloc().unwrap()).collect();
    for &pid in &pages {
        store.put(pid, &patterned(page_size, 1)).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..4u64 {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let pages = pages.clone();
        handles.push(std::thread::spawn(move || {
            let mut x = w + 1;
            let mut tag = 1u8;
            while !stop.load(Ordering::Relaxed) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                tag = tag.wrapping_add(1).max(1);
                let pid = pages[(x >> 33) as usize % pages.len()];
                store.put(pid, &patterned(512, tag)).unwrap();
            }
        }));
    }
    for r in 0..4u64 {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let pages = pages.clone();
        handles.push(std::thread::spawn(move || {
            let mut x = r + 99;
            while !stop.load(Ordering::Relaxed) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let pid = pages[(x >> 33) as usize % pages.len()];
                let g = store.read(pid).unwrap();
                let first = g[0];
                assert!(first != 0, "page must never read as unwritten");
                assert!(
                    g.iter().all(|&b| b == first),
                    "torn page: saw {first} then a different byte"
                );
            }
        }));
    }
    std::thread::sleep(Duration::from_millis(if quick() { 150 } else { 500 }));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let s = store.stats().snapshot();
    assert!(s.frames_evicted > 0, "64 pages through 8 frames must evict");
    assert!(s.dirty_writebacks > 0, "dirty victims must be written back");
    assert_eq!(s.gets, s.cache_hits + s.cache_misses);
}

/// A held guard pins its frame: while other threads churn enough pages to
/// recycle the pool many times over, the pinned bytes must stay exactly
/// what they were at pin time.
#[test]
fn pinned_frames_are_never_evicted() {
    let page_size = 256;
    let store = pooled(StoreConfig {
        page_size,
        pool_frames: 4,
    });
    let hot = store.alloc().unwrap();
    store.put(hot, &patterned(page_size, 0xAB)).unwrap();
    let cold: Vec<PageId> = (0..32).map(|_| store.alloc().unwrap()).collect();

    let guard = store.read(hot).unwrap();
    let snapshot: Vec<u8> = guard.to_vec();

    // Churn from other threads: every cold page is read and written often
    // enough that an unpinned frame would be recycled dozens of times.
    let mut handles = Vec::new();
    for t in 0..3u8 {
        let store = Arc::clone(&store);
        let cold = cold.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..40u8 {
                for &pid in &cold {
                    store
                        .put(pid, &patterned(256, t.wrapping_add(round) | 1))
                        .unwrap();
                    let g = store.read(pid).unwrap();
                    let first = g[0];
                    assert!(g.iter().all(|&b| b == first));
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        store.stats().snapshot().frames_evicted >= 32,
        "churn must actually cycle the pool"
    );
    // The pinned view never moved.
    assert_eq!(&*guard, snapshot.as_slice());
    assert!(guard.iter().all(|&b| b == 0xAB));
    drop(guard);
    // After unpinning, the frame is reclaimable and the page still reads
    // back correctly (via frame or backend).
    assert!(store.read(hot).unwrap().iter().all(|&b| b == 0xAB));
}

/// When every frame is pinned, reads bypass the pool (private copy) rather
/// than deadlocking or evicting a pinned frame.
#[test]
fn exhausted_pool_bypasses_instead_of_evicting() {
    let store = pooled(StoreConfig {
        page_size: 128,
        pool_frames: 2,
    });
    let a = store.alloc().unwrap();
    let b = store.alloc().unwrap();
    let c = store.alloc().unwrap();
    store.put(a, &patterned(128, 1)).unwrap();
    store.put(b, &patterned(128, 2)).unwrap();
    store.put(c, &patterned(128, 3)).unwrap();
    store.sync().unwrap(); // c's image must be in the backend for the bypass
    let ga = store.read(a).unwrap();
    let gb = store.read(b).unwrap();
    let gc = store.read(c).unwrap(); // both frames pinned -> bypass copy
    assert!(gc.iter().all(|&x| x == 3));
    assert!(store.stats().snapshot().pool_bypasses >= 1);
    // Bypass writes work too, and are visible to later reads.
    store.put(c, &patterned(128, 4)).unwrap();
    assert!(store.read(c).unwrap().iter().all(|&x| x == 4));
    drop(ga);
    drop(gb);
}

// ----------------------------------------------------------------------
// Write-ahead order: dirty victims hit the WAL before the backend.
// ----------------------------------------------------------------------

/// Counts, per page, journal put-records and backend writes, and asserts
/// the invariant "the n-th backend write of a page is preceded by >= n
/// journal records for it" at every backend write.
#[derive(Debug, Default)]
struct WalOrderProbe {
    logged: Mutex<HashMap<u32, u64>>,
    flushed: Mutex<HashMap<u32, u64>>,
    violations: AtomicU64,
}

impl WalOrderProbe {
    /// Counts a record for `pid`; returns the records logged so far, which
    /// serves as the record's LSN.
    fn note_log(&self, pid: PageId) -> u64 {
        let mut logged = self.logged.lock();
        *logged.entry(pid.to_raw()).or_insert(0) += 1;
        logged.values().sum()
    }

    fn note_backend_write(&self, index: usize) {
        let raw = index as u32 + 1;
        // Lock order: logged before flushed, matching note_log's single
        // lock; the two maps are only ever locked together here.
        let logged = self.logged.lock();
        let mut flushed = self.flushed.lock();
        let f = flushed.entry(raw).or_insert(0);
        *f += 1;
        if logged.get(&raw).copied().unwrap_or(0) < *f {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[derive(Debug)]
struct ProbedJournal(Arc<WalOrderProbe>);

impl Journal for ProbedJournal {
    fn log_alloc(&self, pid: PageId) -> Result<()> {
        // Replay would zero the page: counts as a logged image.
        self.0.note_log(pid);
        Ok(())
    }
    fn log_free(&self, _pid: PageId) -> Result<()> {
        Ok(())
    }
    fn log_put_base(&self, pid: PageId, _data: &[u8]) -> Result<u64> {
        Ok(self.0.note_log(pid))
    }
    fn log_put_edits(&self, pid: PageId, _lsn: u64, _edits: &[PageEdit<&[u8]>]) -> Result<u64> {
        Ok(self.0.note_log(pid))
    }
    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// A MemBackend that reports every page write to the probe.
#[derive(Debug)]
struct ProbedBackend {
    inner: MemBackend,
    probe: Arc<WalOrderProbe>,
}

impl PageBackend for ProbedBackend {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
    fn grow(&self, new_cap: usize) -> Result<()> {
        self.inner.grow(new_cap)
    }
    fn read(&self, index: usize, buf: &mut [u8]) -> Result<()> {
        self.inner.read(index, buf)
    }
    fn write(&self, index: usize, data: &[u8]) -> Result<()> {
        self.probe.note_backend_write(index);
        self.inner.write(index, data)
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

#[test]
fn dirty_victims_hit_the_wal_before_the_backend() {
    let page_size = 256;
    let probe = Arc::new(WalOrderProbe::default());
    let store = PageStore::with_parts(
        StoreConfig {
            page_size,
            pool_frames: 4,
        },
        Box::new(ProbedBackend {
            inner: MemBackend::new(page_size),
            probe: Arc::clone(&probe),
        }),
        Some(Arc::new(ProbedJournal(Arc::clone(&probe))) as Arc<dyn Journal>),
        Arc::new(StoreStats::default()),
        &[],
    )
    .unwrap();

    let pages: Vec<PageId> = (0..24).map(|_| store.alloc().unwrap()).collect();
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let store = Arc::clone(&store);
        let pages = pages.clone();
        handles.push(std::thread::spawn(move || {
            let mut x = t + 7;
            let rounds = if quick() { 400 } else { 2000 };
            for i in 0..rounds {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let pid = pages[(x >> 33) as usize % pages.len()];
                if i % 3 == 0 {
                    let _ = store.read(pid).unwrap();
                } else if i % 3 == 1 {
                    let mut p = Page::zeroed(256);
                    p.bytes_mut().fill((i % 250) as u8 + 1);
                    store.put(pid, &p).unwrap();
                } else {
                    let mut w = store.write_page(pid, WriteIntent::Overwrite).unwrap();
                    w.bytes_mut().fill((i % 250) as u8 + 1);
                    w.commit().unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    store.sync().unwrap();
    let s = store.stats().snapshot();
    assert!(
        s.dirty_writebacks > 0,
        "24 pages through 4 frames must write back dirty victims"
    );
    assert_eq!(
        probe.violations.load(Ordering::Relaxed),
        0,
        "every backend write must be covered by a prior WAL record"
    );
}

// ----------------------------------------------------------------------
// A whole tree on a pool far smaller than its page set.
// ----------------------------------------------------------------------

/// Eight threads of zipfian insert/delete/search churn over a tree whose
/// pages outnumber the frames many times: every op succeeds, the pool
/// really evicts and writes back dirty victims, and the tree verifies.
#[test]
fn concurrent_tree_churn_on_a_tiny_pool_has_no_errors() {
    let store = pooled(StoreConfig {
        pool_frames: 16,
        ..StoreConfig::with_page_size(512)
    });
    let tree = BLinkTree::create(store, TreeConfig::with_k(8)).unwrap();
    let index: Arc<dyn ConcurrentIndex> = Arc::clone(&tree) as _;
    let r = run_workload(
        &index,
        &RunConfig {
            threads: 8,
            ops_per_thread: if quick() { 500 } else { 2_000 },
            key_space: 20_000,
            dist: KeyDist::Zipf { theta: 0.99 },
            mix: Mix::CHURN,
            preload: 4_000,
            seed: 12,
            ..RunConfig::default()
        },
    );
    assert_eq!(r.errors, 0);
    assert!(r.store_delta.frames_evicted > 0, "16 frames must evict");
    assert!(r.store_delta.dirty_writebacks > 0);
    tree.verify(false).unwrap().assert_ok();
}

/// Four threads put (values of 16–300 B, so records grow, shrink and
/// move), delete and read their own keys in a durable `Db` whose index and
/// record pages far outnumber its 16 frames.
#[test]
fn heap_and_tree_churn_together_on_a_tiny_pool() {
    let dir = std::env::temp_dir().join(format!("blink-pool-mixed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = DbConfig::durable(&dir).with_k(4);
    cfg.page_size = 1024;
    cfg.fsync = FsyncPolicy::Never;
    cfg.pool_frames = 16;
    let db = Arc::new(Db::open(cfg).unwrap());
    let ops = if quick() { 500 } else { 2_000 };
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut s = db.session();
                let mut mine: HashMap<u64, Vec<u8>> = HashMap::new();
                let mut x = t + 1;
                for _ in 0..ops {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = (x >> 33) % 500 * 4 + t;
                    match (x >> 20) % 4 {
                        0 | 1 => {
                            let v = vec![x as u8; 16 + (x >> 40) as usize % 285];
                            s.put(key, &v).unwrap();
                            mine.insert(key, v);
                        }
                        2 => assert_eq!(s.delete(key).unwrap(), mine.remove(&key).is_some()),
                        _ => assert_eq!(s.get(key).unwrap().as_ref(), mine.get(&key)),
                    }
                }
                mine.len()
            })
        })
        .collect();
    let live: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let st = db.store().stats().snapshot();
    assert!(st.frames_evicted > 0, "16 frames must evict");
    assert!(
        db.store().capacity() > 64,
        "pages must outnumber the frames"
    );
    assert_eq!(db.session().count().unwrap(), live);
    db.verify().unwrap().assert_ok();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
