//! `Db::open` edge cases on a durable directory: a first open that fails
//! (or crashes) before the tree exists must not brick the directory, and
//! the store's journal-derived choices hold for a default `DbConfig`: a
//! durable store runs the background flusher and stamps and verifies
//! per-page CRC32, an in-memory one runs no flusher. A clean reopen reads
//! each heap page once, and a heap page that fails its checksum fails the
//! open instead of being collected — also when a torn write lost only the
//! sector holding its (zeroed) CRC field. A clean reopen logs nothing.
//! Pages over 64 KiB are refused for both store kinds, and the index runs
//! the one tree config `Db::open` resolves, on every open.

use blink_db::{Db, DbConfig};
use blink_durable::{DurableConfig, DurableStore, FsyncPolicy};
use blink_pagestore::StoreError;
use sagiv_blink::{TreeConfig, TreeError, UnderflowPolicy};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blink-db-open-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// XORs the byte at file offset `at` of `dir/pages.db` with 0xFF (twice
/// restores it).
fn flip_page_file_byte(dir: &Path, at: u64) {
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.join("pages.db"))
        .unwrap();
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(at)).unwrap();
    file.read_exact(&mut byte).unwrap();
    byte[0] ^= 0xFF;
    file.seek(SeekFrom::Start(at)).unwrap();
    file.write_all(&byte).unwrap();
    file.sync_all().unwrap();
}

/// Puts, reopens and reads back one key: the directory is a working `Db`.
fn assert_usable(dir: &PathBuf) {
    {
        let db = Db::open(DbConfig::durable(dir)).unwrap();
        db.session().put(7, b"seven").unwrap();
        db.sync().unwrap();
    }
    let db = Db::open(DbConfig::durable(dir)).unwrap();
    assert_eq!(db.get(7).unwrap().as_deref(), Some(&b"seven"[..]));
    db.verify().unwrap().assert_ok();
}

#[test]
fn failed_first_open_leaves_the_directory_usable() {
    let dir = tmpdir("bad-k");
    let err = Db::open(DbConfig::durable(&dir).with_k(10_000)).unwrap_err();
    assert!(matches!(err, TreeError::Config(_)), "got {err}");
    assert_usable(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejected_config_does_not_touch_the_directory() {
    let dir = tmpdir("untouched");
    assert!(Db::open(DbConfig::durable(&dir).with_k(10_000)).is_err());
    assert!(!dir.exists());
}

#[test]
fn pages_over_64_kib_are_refused_for_both_store_kinds() {
    // The record heap's slot offsets are `u16` in every store, not only a
    // journaled one: an in-memory `Db` that accepted 128 KiB pages read
    // record 0 back with another record's bytes.
    let mut c = DbConfig::in_memory();
    c.page_size = 1 << 17;
    let opened = Db::open(c);
    if let Ok(db) = &opened {
        let mut s = db.session();
        for k in 0..8u64 {
            s.put(k, &[k as u8 + 1; 20_000]).unwrap();
        }
        let got = s.get(0).unwrap().unwrap();
        let wrong = got.iter().filter(|&&b| b != 1).count();
        assert_eq!(wrong, 0, "record 0 holds another record's bytes");
    }
    let err = opened.unwrap_err();
    assert!(
        matches!(err, TreeError::Store(StoreError::Config(_))),
        "got {err}"
    );

    let dir = tmpdir("big-page");
    let mut c = DbConfig::durable(&dir);
    c.page_size = 1 << 17;
    let err = Db::open(c).unwrap_err();
    assert!(
        matches!(err, TreeError::Store(StoreError::Config(_))),
        "got {err}"
    );
    assert!(!dir.exists(), "a refused open left files behind");
}

/// The index runs `TreeConfig`'s defaults except the two settings
/// `DbConfig` keeps and the heap's page counter, which `Db::open` sets.
fn assert_resolved_tree_config(db: &Db, k: usize) {
    let got = db.tree().config();
    let handle = got.external_pages.clone().expect("external_pages is set");
    assert!(Arc::ptr_eq(&handle, &db.heap().pages_handle()));
    let want = TreeConfig {
        k,
        underflow_policy: UnderflowPolicy::Ignore,
        external_pages: Some(handle),
        ..TreeConfig::default()
    };
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
}

#[test]
fn the_resolved_tree_config_does_not_drift() {
    assert_resolved_tree_config(&Db::open(DbConfig::in_memory()).unwrap(), 126);
    assert_resolved_tree_config(&Db::open(DbConfig::in_memory().with_k(8)).unwrap(), 8);
    let dir = tmpdir("resolved");
    for _ in 0..2 {
        let db = Db::open(DbConfig::durable(&dir).with_k(8)).unwrap();
        db.session().put(1, b"one").unwrap();
        assert_resolved_tree_config(&db, 8);
    }
    let db = Db::open(DbConfig::durable(&dir)).unwrap();
    assert!(db.recovery().is_some(), "the last open was a reopen");
    assert_resolved_tree_config(&db, 126);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_created_without_a_tree_opens_as_fresh() {
    // What a crash between creating the store and the tree's first page
    // leaves behind: meta, an empty WAL segment and an empty page file.
    let dir = tmpdir("no-tree");
    drop(DurableStore::create(DurableConfig::new(&dir)).unwrap());
    let db = Db::open(DbConfig::durable(&dir)).unwrap();
    assert!(
        db.recovery().is_none(),
        "an empty store is fresh, not recovered"
    );
    drop(db);
    assert_usable(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_defaults_flush_in_background_and_checksum_pages() {
    const KEYS: u64 = 2_000;
    let dir = tmpdir("defaults");
    let cfg = || {
        let mut c = DbConfig::durable(&dir);
        c.fsync = FsyncPolicy::Never;
        c.pool_frames = 16;
        c
    };
    {
        let db = Db::open(cfg()).unwrap();
        let mut s = db.session();
        for k in 0..KEYS {
            s.put(k, &[0x5A; 100]).unwrap();
        }
        drop(s);
        assert!(
            db.store().stats().snapshot().flusher_pages_written > 0,
            "a 16-frame pool under {KEYS} puts must drive the background flusher"
        );
        // Cut the log so the reopen replays nothing: every page below is
        // read from `pages.db` as written back, stamped.
        db.checkpoint().unwrap();
        db.sync().unwrap();
    }
    // Flip the last byte of the prime page (page 1, file offset 0).
    flip_page_file_byte(&dir, cfg().page_size as u64 - 1);

    let err = Db::open(cfg())
        .and_then(|db| {
            let mut s = db.session();
            for k in 0..KEYS {
                s.get(k)?;
            }
            Ok(())
        })
        .unwrap_err();
    assert!(
        matches!(err, TreeError::Store(StoreError::ChecksumMismatch { .. })),
        "a flipped byte in pages.db must surface as ChecksumMismatch, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // The same burst in memory: no backend, so no eviction and no flusher
    // thread, whatever `pool_frames` says.
    let mut c = DbConfig::in_memory();
    c.pool_frames = 16;
    let db = Db::open(c).unwrap();
    let mut s = db.session();
    for k in 0..KEYS {
        s.put(k, &[0x5A; 100]).unwrap();
    }
    drop(s);
    let snap = db.store().stats().snapshot();
    assert_eq!(snap.frames_evicted, 0, "an in-memory store never evicts");
    assert_eq!(
        snap.flusher_pages_written, 0,
        "an in-memory store runs no background flusher"
    );
}

#[test]
fn a_corrupt_heap_page_fails_the_open_and_frees_nothing() {
    const KEYS: u64 = 2_000;
    let dir = tmpdir("corrupt-heap");
    let cfg = || {
        let mut c = DbConfig::durable(&dir);
        c.fsync = FsyncPolicy::Never;
        c.pool_frames = 16;
        c
    };
    let value = |k: u64| vec![k as u8; 100];
    let heap_page;
    {
        let db = Db::open(cfg()).unwrap();
        let mut s = db.session();
        for k in 0..KEYS {
            s.put(k, &value(k)).unwrap();
        }
        // The page holding key 0's record (a `RecordId`'s high 32 bits).
        let raw = db.tree().search(s.inner(), 0).unwrap().unwrap();
        heap_page = (raw >> 32) as u32;
        drop(s);
        db.checkpoint().unwrap();
        db.sync().unwrap();
    }
    // Page n sits at file offset (n - 1) * page_size; flip a byte inside it.
    let page_size = cfg().page_size as u64;
    let at = (u64::from(heap_page) - 1) * page_size + page_size / 2;
    flip_page_file_byte(&dir, at);
    let err = Db::open(cfg()).unwrap_err();
    assert!(
        matches!(
            err,
            TreeError::Store(StoreError::ChecksumMismatch { page }) if page.to_raw() == heap_page
        ),
        "a heap page failing its checksum must fail the open, got {err}"
    );

    // The failed open freed nothing: with the byte restored, every record
    // is still there.
    flip_page_file_byte(&dir, at);
    let db = Db::open(cfg()).unwrap();
    let mut s = db.session();
    for k in 0..KEYS {
        assert_eq!(s.get(k).unwrap(), Some(value(k)), "key {k}");
    }
    drop(s);
    db.verify().unwrap().assert_ok();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_page_whose_first_sector_was_lost_fails_its_checksum() {
    const KEYS: u64 = 2_000;
    let dir = tmpdir("lost-sector");
    let cfg = || {
        let mut c = DbConfig::durable(&dir);
        c.fsync = FsyncPolicy::Never;
        c.pool_frames = 16;
        c
    };
    let heap_page;
    {
        let db = Db::open(cfg()).unwrap();
        let mut s = db.session();
        for k in 0..KEYS {
            s.put(k, &[0x5A; 100]).unwrap();
        }
        let raw = db.tree().search(s.inner(), 0).unwrap().unwrap();
        heap_page = (raw >> 32) as u32;
        drop(s);
        db.checkpoint().unwrap();
        db.sync().unwrap();
    }
    // A torn write that persisted every sector of a stamped page but the
    // first: its LSN and CRC fields read back as zero, the rest does not.
    let page_size = cfg().page_size as u64;
    {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("pages.db"))
            .unwrap();
        let at = (u64::from(heap_page) - 1) * page_size;
        std::os::unix::fs::FileExt::write_all_at(&file, &[0u8; 512], at).unwrap();
        file.sync_all().unwrap();
    }
    let err = Db::open(cfg())
        .and_then(|db| {
            let mut s = db.session();
            for k in 0..KEYS {
                s.get(k)?;
            }
            Ok(())
        })
        .unwrap_err();
    assert!(
        matches!(
            err,
            TreeError::Store(StoreError::ChecksumMismatch { page }) if page.to_raw() == heap_page
        ),
        "a zeroed CRC field over a non-zero page must fail its checksum, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_reopen_reads_each_heap_page_once() {
    const KEYS: u64 = 20_000;
    let dir = tmpdir("one-sweep");
    let cfg = || {
        let mut c = DbConfig::durable(&dir);
        c.fsync = FsyncPolicy::Never;
        c.pool_frames = 64;
        c
    };
    {
        let db = Db::open(cfg()).unwrap();
        let mut s = db.session();
        for i in 0..KEYS {
            // An odd multiplier permutes the keys, so key order and heap
            // order disagree: reading records in leaf order would miss.
            s.put(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), &[i as u8; 400])
                .unwrap();
        }
        drop(s);
        db.checkpoint().unwrap();
        db.sync().unwrap();
    }
    let db = Db::open(cfg()).unwrap();
    let reads = db.store().stats().snapshot().cache_misses;
    let pages = db.store().live_pages() as u64;
    assert!(
        reads < 2 * pages,
        "a clean reopen made {reads} page reads for {pages} allocated pages"
    );
    let rec = db.recovery().unwrap();
    assert_eq!(rec.orphan_records_freed, 0);
    assert_eq!(db.heap().live_record_count(), KEYS);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_durable_load_logs_index_writes_as_deltas_and_reopens_intact() {
    const PUTS: u64 = 20_000;
    let dir = tmpdir("delta-load");
    let cfg = || {
        let mut c = DbConfig::durable(&dir);
        c.fsync = FsyncPolicy::Never;
        c
    };
    let mut model = std::collections::BTreeMap::new();
    {
        let db = Db::open(cfg()).unwrap();
        let mut s = db.session();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..PUTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let value = [x as u8; 64];
            s.put(x >> 20, &value).unwrap();
            model.insert(x >> 20, value);
        }
        drop(s);
        let metrics = db.metrics();
        let report = metrics.report();
        let m = metrics.store;
        let wal_line = format!(
            "wal: records={} deltas={} full_images={} moves={} ",
            m.wal_records, m.wal_put_deltas, m.wal_put_full_images, m.wal_put_moves
        );
        assert!(report.contains(&wal_line), "{report}");
        // A leaf insert shifts the pairs above it: logged as a move, the
        // shifted run costs 7 bytes, not its length.
        assert!(m.wal_put_moves > 0, "no move logged: {report}");
        assert!(m.wal_bytes < 10 << 20, "{} WAL bytes", m.wal_bytes);
        // Every put rewrites a leaf (and a heap page, tracked): a whole-node
        // rewrite logs only the bytes it changed, so full images come from
        // splits, new pages and first touches, not from every put.
        assert!(
            m.wal_put_full_images * 100 < 10 * PUTS,
            "{} full images and {} deltas for {PUTS} puts",
            m.wal_put_full_images,
            m.wal_put_deltas
        );
        assert!(m.wal_put_deltas > PUTS);
        // Crash: no sync, no checkpoint; the reopen replays the whole log.
    }
    let db = Db::open(cfg()).unwrap();
    let rec = db.recovery().unwrap();
    assert!(rec.wal_records_replayed > PUTS);
    assert!(rec.pages_rewritten > 0);
    for (k, v) in &model {
        assert_eq!(db.get(*k).unwrap().as_deref(), Some(&v[..]), "key {k}");
    }
    assert_eq!(db.heap().live_record_count(), model.len() as u64);
    db.verify().unwrap().assert_ok();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file of `dir`, by name, with its bytes.
fn snapshot_files(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

#[test]
fn a_reopen_with_a_smaller_k_is_refused_and_changes_no_file() {
    const KEYS: u64 = 3_000;
    let dir = tmpdir("smaller-k");
    {
        let db = Db::open(DbConfig::durable(&dir)).unwrap();
        let mut s = db.session();
        for k in 0..KEYS {
            s.put(k * 7, &k.to_le_bytes()).unwrap();
        }
        drop(s);
        db.checkpoint().unwrap();
    }
    let before = snapshot_files(&dir);
    assert!(before.contains_key("pages.db"));
    assert!(before.keys().any(|n| n.ends_with(".seg")));
    // The default `k` filled leaves past 2 × 32 pairs: at `k` = 32 they
    // are overfull, which no crash leaves, so the open is refused before
    // the repair would rewrite them.
    let err = Db::open(DbConfig::durable(&dir).with_k(32)).unwrap_err();
    assert!(matches!(err, TreeError::Config(_)), "got {err}");
    let after = snapshot_files(&dir);
    assert!(after == before, "the refused open changed a file");
    let db = Db::open(DbConfig::durable(&dir)).unwrap();
    assert!(!db.recovery().unwrap().tree_repaired);
    let report = db.verify().unwrap();
    report.assert_ok();
    assert_eq!(report.overfull_nodes, 0);
    for k in 0..KEYS {
        assert_eq!(
            db.get(k * 7).unwrap().as_deref(),
            Some(&k.to_le_bytes()[..])
        );
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Total bytes of `dir`'s WAL segments.
fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("wal-") && name.ends_with(".seg")
        })
        .map(|e| e.metadata().unwrap().len())
        .sum()
}

#[test]
fn a_clean_reopen_logs_no_heap_page() {
    const KEYS: u64 = 3_000;
    let dir = tmpdir("clean-reopen");
    {
        let db = Db::open(DbConfig::durable(&dir)).unwrap();
        let mut s = db.session();
        for k in 0..KEYS {
            s.put(k * 7, &[k as u8; 100]).unwrap();
        }
        drop(s);
        db.checkpoint().unwrap();
    }
    let before = wal_bytes(&dir);
    assert!(before > 0);
    for _ in 0..2 {
        let db = Db::open(DbConfig::durable(&dir)).unwrap();
        // The shard's open page, which still holds records, is a shard's
        // open page again, and its state was not rewritten.
        assert_eq!(db.heap().open_page_count(), 1);
        assert_eq!(db.heap().live_record_count(), KEYS);
        drop(db);
        assert_eq!(
            wal_bytes(&dir),
            before,
            "a reopen with no user write logged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
