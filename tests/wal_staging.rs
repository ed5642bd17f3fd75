//! Property tests for the WAL write path under concurrent writers: records
//! written through by many threads under the append mutex must replay
//! exactly like every thread's records appended in program order. (The
//! file and test names date from a per-thread staging design the
//! write-through append replaced; the guarantees are the same.)
//!
//! Two guarantees are exercised:
//!
//! 1. **Replay equivalence.** A random multi-thread workload (threads own
//!    disjoint pages, so the final per-page state is just that thread's
//!    script folded over a zero page) crashes without a final flush and
//!    recovers from its log alone. Every page image must match the folded
//!    script byte for byte (outside the store-reserved LSN + CRC region).
//! 2. **Dense, monotone LSNs.** The log is scanned record by
//!    record: `wal::scan` rejects any record whose LSN is not exactly the
//!    successor of the previous one, so `replayed == records logged` with
//!    `torn == false` *is* the density proof — including across a crash at
//!    every record boundary (the fault gate fires before an LSN is claimed,
//!    so a rejected record consumes nothing and the prefix stays dense).

use proptest::prelude::*;
use sagiv_blink_repro::durable::{wal, DurableConfig, DurableStore, FsyncPolicy};
use sagiv_blink_repro::pagestore::{Page, PageId, WriteIntent, PAGE_LSN_OFFSET, PAGE_RESERVED_END};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PAGE: usize = 256;
const THREADS: usize = 3;
const PAGES_PER_THREAD: usize = 2;

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "blink-walstage-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: &PathBuf) -> DurableConfig {
    DurableConfig {
        page_size: PAGE,
        fsync: FsyncPolicy::Never,
        // Small segments so concurrent appends cross rotation boundaries.
        segment_bytes: 8 << 10,
        // Fewer frames than pages: evictions force write-backs, which must
        // never reach the page file ahead of their own records.
        pool_frames: 4,
        ..DurableConfig::new(dir)
    }
}

/// One scripted step by one thread against one of its own pages.
#[derive(Debug, Clone)]
enum Op {
    /// Tracked commit of up to three (off, len, fill) ranges (delta path).
    Tracked(Vec<(usize, usize, u8)>),
    /// Untracked full-image put.
    Full(u8),
    /// Flush WAL + frames mid-run (tests the flushed-prefix state).
    Sync,
}

fn range_strategy() -> impl Strategy<Value = (usize, usize, u8)> {
    (0u64..u64::MAX).prop_map(|x| {
        let fill = (x >> 48) as u8;
        let len = 1 + (x >> 40) as usize % 32;
        let lo = PAGE_RESERVED_END;
        let off = lo + (x as usize) % (PAGE - lo - len);
        (off, len, fill)
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => proptest::collection::vec(range_strategy(), 1..4).prop_map(Op::Tracked),
        3 => (0u8..255).prop_map(Op::Full),
        1 => Just(Op::Sync),
    ]
}

fn scripts_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
    proptest::collection::vec(
        proptest::collection::vec(op_strategy(), 1..12),
        THREADS..THREADS + 1,
    )
}

fn mask(bytes: &[u8]) -> Vec<u8> {
    let mut v = bytes.to_vec();
    // The store owns LSN + CRC: which LSN the final image carries depends
    // on the interleaving, and the CRC covers the LSN bytes.
    v[PAGE_LSN_OFFSET..PAGE_RESERVED_END].fill(0);
    v
}

/// The byte pattern of an [`Op::Full`] image.
fn fill_full(bytes: &mut [u8], seed: u8) {
    for (j, b) in bytes.iter_mut().enumerate() {
        *b = seed ^ (j as u8);
    }
}

fn apply(store: &Arc<sagiv_blink_repro::pagestore::PageStore>, pid: PageId, op: &Op) {
    match op {
        Op::Tracked(ranges) => {
            let mut w = store.write_page(pid, WriteIntent::Update).unwrap();
            for &(off, len, fill) in ranges {
                w.write_at(off, &vec![fill; len]);
            }
            w.commit().unwrap();
        }
        Op::Full(seed) => {
            let mut p = Page::zeroed(PAGE);
            fill_full(p.bytes_mut(), *seed);
            store.put(pid, &p).unwrap();
        }
        Op::Sync => unreachable!("Sync is handled by the caller"),
    }
}

/// The oracle: each page's (masked) final image is its owning thread's
/// script applied in order to a zero page — the same page choice and the
/// same bytes as [`apply`].
fn expected_images(scripts: &[Vec<Op>]) -> Vec<Vec<u8>> {
    let mut imgs = vec![vec![0u8; PAGE]; scripts.len() * PAGES_PER_THREAD];
    for (t, script) in scripts.iter().enumerate() {
        for (i, op) in script.iter().enumerate() {
            let img = &mut imgs[t * PAGES_PER_THREAD + i % PAGES_PER_THREAD];
            match op {
                Op::Tracked(ranges) => {
                    for &(off, len, fill) in ranges {
                        img[off..off + len].fill(fill);
                    }
                }
                Op::Full(seed) => fill_full(img, *seed),
                Op::Sync => {}
            }
        }
    }
    imgs.iter().map(|img| mask(img)).collect()
}

/// Runs `scripts` (one per thread, each thread on its own pages), crashes
/// without a final flush, scans the log for density, reopens, and returns
/// the recovered (masked) page images.
fn run(dir: &PathBuf, scripts: &[Vec<Op>]) -> Vec<Vec<u8>> {
    let pids: Vec<PageId>;
    let logged;
    {
        let ds = Arc::new(DurableStore::create(cfg(dir)).unwrap());
        let store = ds.store();
        pids = (0..scripts.len() * PAGES_PER_THREAD)
            .map(|_| store.alloc().unwrap())
            .collect();
        std::thread::scope(|s| {
            for (t, script) in scripts.iter().enumerate() {
                let my = &pids[t * PAGES_PER_THREAD..(t + 1) * PAGES_PER_THREAD];
                let ds = Arc::clone(&ds);
                s.spawn(move || {
                    let store = ds.store();
                    for (i, op) in script.iter().enumerate() {
                        match op {
                            Op::Sync => ds.sync().unwrap(),
                            _ => apply(store, my[i % PAGES_PER_THREAD], op),
                        }
                    }
                });
            }
        });
        logged = store.stats().snapshot().wal_records;
        // Crash: drop without sync — dirty frames never reach pages.db,
        // recovery must rebuild every page from the log.
    }
    // Density proof: the scan rejects any record whose LSN is not the
    // exact successor, so accepting all `logged` records with no torn
    // tail means the log is dense and monotone.
    let first_seg = wal::list_segments(dir).unwrap()[0];
    let report = wal::scan(dir, first_seg, 1, PAGE + 64, |_, _| Ok(())).unwrap();
    assert!(!report.torn, "log has a torn or reordered region");
    assert_eq!(report.replayed, logged, "log lost or duplicated records");

    let ds = DurableStore::open(cfg(dir)).unwrap();
    pids.iter()
        .map(|&pid| mask(ds.store().get(pid).unwrap().bytes()))
        .collect()
}

fn run_case(scripts: &[Vec<Op>]) {
    let dir = tmpdir("replay");
    assert_eq!(
        run(&dir, scripts),
        expected_images(scripts),
        "replay diverged from the scripts' program order"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn staged_interleavings_replay_identically_to_the_mutex_baseline(
        scripts in scripts_strategy()
    ) {
        run_case(&scripts);
    }
}

/// Deterministic seam coverage: deltas and full images from three
/// threads, with mid-run syncs, so the log spans flushed and
/// unflushed prefixes plus at least one segment rotation.
#[test]
fn staged_multithread_run_with_midrun_syncs_recovers_exactly() {
    let scripts = vec![
        vec![
            Op::Tracked(vec![(32, 8, 0x11)]),
            Op::Full(0xAA),
            Op::Sync,
            Op::Tracked(vec![(64, 8, 0x22), (70, 4, 0x33)]),
        ],
        vec![
            Op::Full(0x55),
            Op::Tracked(vec![(96, 16, 0x44)]),
            Op::Tracked(vec![(128, 8, 0x66)]),
            Op::Full(0x77),
        ],
        vec![
            Op::Tracked(vec![(200, 16, 0x88)]),
            Op::Sync,
            Op::Full(0x99),
            Op::Tracked(vec![(48, 4, 0xCC)]),
        ],
    ];
    run_case(&scripts);
}

/// Crash at **every** record boundary of a fixed multi-thread run:
/// the fault gate rejects the (n+1)-th record before it claims an LSN, so
/// the surviving log must always be a dense prefix of exactly n workload
/// records — recovery replays them all and the store stays writable.
#[test]
fn crash_at_every_record_boundary_leaves_a_dense_staged_prefix() {
    let scripts: Vec<Vec<Op>> = (0..THREADS as u8)
        .map(|t| {
            vec![
                Op::Tracked(vec![(32 + t as usize * 8, 8, t | 0x10)]),
                Op::Full(t | 0x40),
                Op::Tracked(vec![(180, 6, t | 0x80)]),
            ]
        })
        .collect();

    // Phase A: fault-free count of the workload's own records (`pre`
    // covers everything logged before the workload starts: store
    // creation plus the page allocs).
    let dir = tmpdir("matrix");
    let total = {
        let ds = Arc::new(DurableStore::create(cfg(&dir)).unwrap());
        let pids: Vec<PageId> = (0..THREADS * PAGES_PER_THREAD)
            .map(|_| ds.store().alloc().unwrap())
            .collect();
        let pre = ds.store().stats().snapshot().wal_records;
        std::thread::scope(|s| {
            for (t, script) in scripts.iter().enumerate() {
                let my = &pids[t * PAGES_PER_THREAD..(t + 1) * PAGES_PER_THREAD];
                let ds = Arc::clone(&ds);
                s.spawn(move || {
                    for (i, op) in script.iter().enumerate() {
                        apply(ds.store(), my[i % PAGES_PER_THREAD], op);
                    }
                });
            }
        });
        ds.store().stats().snapshot().wal_records - pre
    };
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(total >= 9, "workload too small: {total} records");

    // Phase B: crash after every boundary. Threads stop at the injected
    // fault; whatever dense prefix survived must recover.
    for n in 0..total {
        let pre;
        {
            let ds = Arc::new(DurableStore::create(cfg(&dir)).unwrap());
            let pids: Vec<PageId> = (0..THREADS * PAGES_PER_THREAD)
                .map(|_| ds.store().alloc().unwrap())
                .collect();
            pre = ds.store().stats().snapshot().wal_records;
            ds.fault().crash_after_wal_records(n);
            std::thread::scope(|s| {
                for (t, script) in scripts.iter().enumerate() {
                    let my = &pids[t * PAGES_PER_THREAD..(t + 1) * PAGES_PER_THREAD];
                    let ds = Arc::clone(&ds);
                    s.spawn(move || {
                        for (i, op) in script.iter().enumerate() {
                            let pid = my[i % PAGES_PER_THREAD];
                            let r = match op {
                                Op::Tracked(ranges) => ds
                                    .store()
                                    .write_page(pid, WriteIntent::Update)
                                    .and_then(|mut w| {
                                        for &(off, len, fill) in ranges {
                                            w.write_at(off, &vec![fill; len]);
                                        }
                                        w.commit()
                                    }),
                                Op::Full(seed) => {
                                    let mut p = Page::zeroed(PAGE);
                                    fill_full(p.bytes_mut(), *seed);
                                    ds.store().put(pid, &p)
                                }
                                Op::Sync => unreachable!(),
                            };
                            // A tripped fault surfaces as Err; stop this
                            // thread's script there, like a real crash.
                            if r.is_err() {
                                break;
                            }
                        }
                    });
                }
            });
            assert!(ds.fault().tripped(), "boundary {n}: fault never fired");
        }
        // The surviving log must be a dense prefix: the scan accepts
        // exactly the pre-workload records plus `n` workload records.
        let first_seg = wal::list_segments(&dir).unwrap()[0];
        let report = wal::scan(&dir, first_seg, 1, PAGE + 64, |_, _| Ok(())).unwrap();
        assert!(!report.torn, "boundary {n}: torn prefix");
        assert_eq!(
            report.replayed,
            pre + n,
            "boundary {n}: prefix is not exactly the surviving records"
        );

        // Recovery accepts the prefix and the store stays writable.
        let ds = DurableStore::open(cfg(&dir)).unwrap();
        let pid = ds.store().alloc().unwrap();
        let mut w = ds.store().write_page(pid, WriteIntent::Update).unwrap();
        w.write_at(32, &[n as u8; 4]);
        w.commit().unwrap();
        drop(ds);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
