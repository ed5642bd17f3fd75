//! Property test for the delta WAL: **page writes → diff against the prior
//! image → crash → LSN-gated replay** must reproduce the exact page image,
//! byte for byte.
//!
//! Each case drives a random interleaving of
//!
//! * multi-range field writes (`write_at`; the commit diffs them into a
//!   delta),
//! * whole-page puts of caller bytes, reserved field included (a delta or
//!   a base; the store keeps the field),
//! * whole-page rewrites that leave the reserved field zero, on a resident
//!   frame (a delta) and on a freshly claimed one (a v2 base), and one
//!   that writes caller bytes into the reserved field (a delta again),
//! * insert- and remove-shaped writes: a run shifted up or down by 1..=32
//!   bytes, the uncovered bytes refilled, at random offsets, next to the
//!   reserved field and up to the page end (a delta whose shifted run is
//!   logged as a move),
//! * `sync` (flushes frames, so the page file holds a *newer* prefix than
//!   the unflushed tail — the state the per-page LSN gate exists for), and
//! * `checkpoint` (epoch rotation: forces a re-base and truncates the log)
//!
//! against a plain `Vec<u8>` model, then drops the store *without* a final
//! flush (the crash) and reopens it. Recovery replays whatever mix of
//! bases and deltas the case produced; the page must equal the model
//! everywhere outside the store-reserved region (LSN + CRC), and so must
//! the live page before the crash. Every case runs with two pool frames
//! and with none; without frames every write is a bypass that logs a
//! base. (The durable crate's own tests hold page-once replay to its
//! per-record oracle over the same shapes.)

use proptest::prelude::*;
use sagiv_blink_repro::durable::{DurableConfig, DurableStore, FsyncPolicy};
use sagiv_blink_repro::pagestore::{
    page_lsn, Page, PageId, PageStore, WriteIntent, PAGE_LSN_OFFSET, PAGE_RESERVED_END,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const PAGE: usize = 256;

fn tmpdir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "blink-waldelta-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two frames over two pages: write-backs happen on sync only, which is
/// exactly the flushed-prefix state the gate must handle. No frames: every
/// write goes straight to the page file.
fn cfg(dir: &PathBuf, pool_frames: usize) -> DurableConfig {
    DurableConfig {
        page_size: PAGE,
        fsync: FsyncPolicy::Never,
        segment_bytes: 32 << 10,
        pool_frames,
        ..DurableConfig::new(dir)
    }
}

/// One scripted step against one page.
#[derive(Debug, Clone)]
enum Op {
    /// One commit of up to three (off, len, fill) `write_at` ranges.
    Tracked(Vec<(usize, usize, u8)>),
    /// `PageStore::put` of a pattern over the whole page.
    Full(u8),
    /// `bytes_mut` re-encode of the resident frame, reserved field zero.
    Rewrite(u8),
    /// The same after evicting the page: a freshly claimed frame.
    RewriteFresh(u8),
    /// `bytes_mut` update that writes caller bytes into the reserved field.
    RewriteReserved(u8),
    /// `bytes_mut` update shifting bytes `a..b` up (an insert) or down (a
    /// remove) by `by` bytes and filling the `by` bytes it uncovers.
    Shift {
        a: usize,
        b: usize,
        by: usize,
        up: bool,
        fill: u8,
    },
    /// Flush frames to the page file (no log truncation).
    Sync,
    /// Checkpoint: epoch rotation + log truncation.
    Checkpoint,
}

/// A range that avoids the store-reserved region (LSN + CRC; the heap
/// keeps it in its header and never writes it).
fn range_strategy() -> impl Strategy<Value = (usize, usize, u8)> {
    (0u64..u64::MAX).prop_map(|x| {
        let fill = (x >> 48) as u8;
        let len = 1 + (x >> 40) as usize % 32;
        let lo = PAGE_RESERVED_END;
        let off = lo + (x as usize) % (PAGE - lo - len);
        (off, len, fill)
    })
}

/// A shifted run: from the first byte past the reserved field one time in
/// four, to the page end one time in four, by 1..=32 bytes.
fn shift_strategy() -> impl Strategy<Value = Op> {
    (0u64..u64::MAX).prop_map(|x| {
        let by = 1 + (x % 32) as usize;
        let lo = PAGE_RESERVED_END;
        let a = match (x >> 6) % 4 {
            0 => lo,
            _ => lo + (x >> 8) as usize % (PAGE - lo - by - 1),
        };
        let b = match (x >> 20) % 4 {
            0 => PAGE,
            _ => a + by + 1 + (x >> 24) as usize % (PAGE - a - by),
        };
        Op::Shift {
            a,
            b,
            by,
            up: (x >> 5) & 1 == 0,
            fill: (x >> 56) as u8,
        }
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => proptest::collection::vec(range_strategy(), 1..4).prop_map(Op::Tracked),
        4 => shift_strategy(),
        2 => (0u8..255).prop_map(Op::Full),
        3 => (0u8..255).prop_map(Op::Rewrite),
        2 => (0u8..255).prop_map(Op::RewriteFresh),
        1 => (0u8..255).prop_map(Op::RewriteReserved),
        1 => Just(Op::Sync),
        1 => Just(Op::Checkpoint),
    ]
}

/// A node-like image: a pattern everywhere but the reserved field, which
/// an encoder leaves zero.
fn encoded(seed: u8) -> Vec<u8> {
    let mut p: Vec<u8> = (0..PAGE).map(|j| seed.wrapping_mul(j as u8)).collect();
    p[PAGE_LSN_OFFSET..PAGE_RESERVED_END].fill(0);
    p
}

/// Rewrites `pid` through `bytes_mut` with an encoder's image.
fn rewrite(store: &PageStore, pid: PageId, model: &mut [u8], seed: u8) {
    let image = encoded(seed);
    let mut w = store.write_page(pid, WriteIntent::Overwrite).unwrap();
    w.bytes_mut().copy_from_slice(&image);
    w.commit().unwrap();
    model.copy_from_slice(&image);
}

/// Checks that the store's last record was a v2 record for `pid`: the
/// commit stamped that record's LSN into the page. A fresh store's LSNs
/// count its records from 1.
fn assert_v2(store: &PageStore, pid: PageId) {
    let lsn = page_lsn(&store.get(pid).unwrap());
    let last = store.stats().snapshot().wal_records;
    assert_eq!(lsn, last, "the page does not hold its commit's LSN");
}

/// Reads spare pages until two in a row missed: with two frames, those two
/// are then the only resident pages.
fn evict_all_but_spares(store: &PageStore, spares: &[PageId]) {
    let misses = || store.stats().snapshot().cache_misses;
    let (mut streak, mut i) = (0, 0);
    while streak < 2 {
        let before = misses();
        drop(store.read(spares[i % spares.len()]).unwrap());
        streak = if misses() > before { streak + 1 } else { 0 };
        i += 1;
    }
}

/// Shifts `a..b` of `page` by `by` bytes and fills the uncovered bytes.
fn shift(page: &mut [u8], a: usize, b: usize, by: usize, up: bool, fill: u8) {
    if up {
        page.copy_within(a..b - by, a + by);
        page[a..a + by].fill(fill);
    } else {
        page.copy_within(a + by..b, a);
        page[b - by..b].fill(fill);
    }
}

/// Runs `ops`, crashes, replays, and returns the moves the case logged.
fn run_case(ops: &[Op], pool_frames: usize) -> u64 {
    let dir = tmpdir();
    let mut model = vec![0u8; PAGE];
    let (pid, moves);
    {
        let ds = DurableStore::create(cfg(&dir, pool_frames)).unwrap();
        let store = ds.store();
        pid = store.alloc().unwrap();
        // A second page keeps the 2-frame pool honest (evictions possible).
        let other = store.alloc().unwrap();
        let spares: Vec<PageId> = (0..3).map(|_| store.alloc().unwrap()).collect();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Tracked(ranges) => {
                    let mut w = store.write_page(pid, WriteIntent::Update).unwrap();
                    for &(off, len, fill) in ranges {
                        w.write_at(off, &vec![fill; len]);
                        model[off..off + len].fill(fill);
                    }
                    w.commit().unwrap();
                }
                Op::Full(seed) => {
                    let mut p = Page::zeroed(PAGE);
                    for (j, b) in p.bytes_mut().iter_mut().enumerate() {
                        *b = seed ^ (j as u8);
                    }
                    store.put(pid, &p).unwrap();
                    model.copy_from_slice(p.bytes());
                    assert_v2(store, pid);
                }
                Op::Rewrite(seed) => {
                    rewrite(store, pid, &mut model, *seed);
                    assert_v2(store, pid);
                }
                Op::RewriteFresh(seed) => {
                    evict_all_but_spares(store, &spares);
                    let misses = store.stats().snapshot().cache_misses;
                    rewrite(store, pid, &mut model, *seed);
                    // The write claimed the frame, without a read. With no
                    // frames there is nothing to claim: the check's read
                    // below misses too.
                    if pool_frames > 0 {
                        assert_eq!(store.stats().snapshot().cache_misses, misses);
                    }
                    assert_v2(store, pid);
                }
                Op::RewriteReserved(seed) => {
                    let mut w = store.write_page(pid, WriteIntent::Update).unwrap();
                    for (j, b) in w.bytes_mut().iter_mut().enumerate() {
                        *b = seed ^ (j as u8) ^ 0x80;
                    }
                    model.copy_from_slice(w.bytes());
                    w.commit().unwrap();
                    assert_v2(store, pid);
                }
                &Op::Shift { a, b, by, up, fill } => {
                    let mut w = store.write_page(pid, WriteIntent::Update).unwrap();
                    shift(w.bytes_mut(), a, b, by, up, fill);
                    w.commit().unwrap();
                    shift(&mut model, a, b, by, up, fill);
                }
                Op::Sync => ds.sync().unwrap(),
                Op::Checkpoint => ds.checkpoint().unwrap(),
            }
            // Touch the other page occasionally so frames churn.
            if i % 3 == 0 {
                let mut w = store.write_page(other, WriteIntent::Update).unwrap();
                w.write_at(40, &[i as u8; 4]);
                w.commit().unwrap();
            }
        }
        let s = store.stats().snapshot();
        if pool_frames == 0 {
            assert_eq!(s.wal_put_deltas, 0, "a bypass write logged a delta");
        }
        moves = s.wal_put_moves;
        assert_eq!(
            mask(store.get(pid).unwrap().bytes()),
            mask(&model),
            "the live page diverged from the model"
        );
        // Crash: drop without sync — dirty frames never reach pages.db.
    }
    let ds = DurableStore::open(cfg(&dir, pool_frames)).unwrap();
    let got = ds.store().get(pid).unwrap();
    assert_eq!(
        mask(got.bytes()),
        mask(&model),
        "replayed page diverged from the model"
    );
    drop(ds);
    let _ = std::fs::remove_dir_all(&dir);
    moves
}

/// The page outside the store-reserved region: the store owns LSN + CRC
/// and keeps neither from a writer's bytes.
fn mask(b: &[u8]) -> Vec<u8> {
    let mut v = b.to_vec();
    v[PAGE_LSN_OFFSET..PAGE_RESERVED_END].fill(0);
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn delta_coalescing_then_replay_reproduces_the_exact_page_image(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        run_case(&ops, 2);
    }

    #[test]
    fn with_no_pool_frames_every_write_logs_a_base_that_replays_exactly(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        run_case(&ops, 0);
    }
}

/// The same pipeline, deterministically hitting the interesting seams:
/// delta → sync (flushed prefix) → delta → crash, and a delta logged right
/// after a checkpoint (which must re-base first).
#[test]
fn flushed_prefix_then_unflushed_deltas_recover_exactly() {
    let ops = vec![
        Op::Tracked(vec![(32, 8, 0x11)]),
        Op::Tracked(vec![(64, 8, 0x22)]),
        Op::Sync,
        Op::Tracked(vec![(96, 8, 0x33)]),
        Op::Checkpoint,
        Op::Tracked(vec![(128, 8, 0x44), (130, 4, 0x55)]),
        Op::Full(0x77),
        Op::Tracked(vec![(200, 16, 0x66)]),
    ];
    run_case(&ops, 2);
}

/// Inserts and removes over a varied page, at the reserved field's edge
/// and at the page end: with frames they log moves, without frames bases,
/// and both replay exactly.
#[test]
fn shifted_runs_log_moves_and_replay_exactly() {
    let shift = |a, b, by, up| Op::Shift {
        a,
        b,
        by,
        up,
        fill: 0x3C,
    };
    let ops = vec![
        Op::Rewrite(0x2B),
        shift(PAGE_RESERVED_END, PAGE, 16, true),
        shift(PAGE_RESERVED_END, PAGE, 16, false),
        Op::Sync,
        shift(100, 240, 1, true),
        shift(60, PAGE, 32, false),
        Op::Checkpoint,
        Op::Tracked(vec![(40, 4, 0x11)]),
        shift(PAGE_RESERVED_END, 200, 7, false),
    ];
    assert!(
        run_case(&ops, 2) >= 4,
        "shifted runs were not logged as moves"
    );
    assert_eq!(run_case(&ops, 0), 0);
}
