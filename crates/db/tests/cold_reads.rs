//! A durable `Db` whose records outgrow its buffer pool but whose index
//! fits it: the pool evicts record pages before index pages, so once the
//! index is resident a point read misses the pool about once (its record
//! page), not twice (its leaf and its record page).

use blink_db::{Db, DbConfig};
use blink_durable::FsyncPolicy;

const KEYS: u64 = 6_000;
const FRAMES: usize = 48;

fn value(k: u64) -> Vec<u8> {
    (0..400).map(|i| (k + i) as u8).collect()
}

/// A scrambled walk over `0..KEYS`: an odd multiplier (one per seed) is a
/// bijection modulo a power of two, and keys past `KEYS` are skipped.
fn scrambled(seed: u64) -> impl Iterator<Item = u64> {
    (0..8_192u64)
        .map(move |i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15 + 2 * seed) % 8_192)
        .filter(|&k| k < KEYS)
}

#[test]
fn a_cold_get_misses_the_pool_about_once() {
    let dir = std::env::temp_dir().join(format!("blink-db-cold-reads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || {
        let mut c = DbConfig::durable(&dir);
        c.fsync = FsyncPolicy::Never;
        c.pool_frames = FRAMES;
        c
    };
    {
        let db = Db::open(cfg()).unwrap();
        let mut s = db.session();
        for k in scrambled(0) {
            s.put(k, &value(k)).unwrap();
        }
        drop(s);
        db.checkpoint().unwrap();
    }
    let db = Db::open(cfg()).unwrap();
    let pages = db.store().capacity();
    assert!(pages > 10 * FRAMES, "{pages} pages must dwarf the pool");
    let mut s = db.session();
    // Warm-up: one read of every key brings the index in.
    for k in scrambled(1) {
        assert_eq!(s.get(k).unwrap(), Some(value(k)));
    }
    let before = db.metrics().store;
    let mut gets = 0u64;
    for round in 2..4 {
        for k in scrambled(round) {
            assert_eq!(s.get(k).unwrap(), Some(value(k)));
            gets += 1;
        }
    }
    let misses = db.metrics().store.cache_misses - before.cache_misses;
    let per_get = misses as f64 / gets as f64;
    assert!(
        per_get <= 1.1,
        "{per_get:.2} pool misses per get ({misses} over {gets})"
    );
    drop(s);
    db.verify().unwrap().assert_ok();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
