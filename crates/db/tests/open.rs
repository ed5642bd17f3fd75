//! `Db::open` edge cases on a durable directory: a first open that fails
//! (or crashes) before the tree exists must not brick the directory, and
//! the constant durable-store choices — background flusher on, per-page
//! CRC32 stamped and verified — hold for a default `DbConfig`.

use blink_db::{Db, DbConfig};
use blink_durable::{DurableConfig, DurableStore, FsyncPolicy};
use blink_pagestore::StoreError;
use sagiv_blink::TreeError;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blink-db-open-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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
    let page_size = cfg().page_size;
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.join("pages.db"))
        .unwrap();
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(page_size as u64 - 1)).unwrap();
    file.read_exact(&mut byte).unwrap();
    byte[0] ^= 0xFF;
    file.seek(SeekFrom::Start(page_size as u64 - 1)).unwrap();
    file.write_all(&byte).unwrap();
    file.sync_all().unwrap();
    drop(file);

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
}
