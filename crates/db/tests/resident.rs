//! An in-memory `Db` keeps every page in a frame of its own for the page's
//! whole life: whatever `pool_frames` says, nothing misses, is evicted or
//! is written back.

use blink_db::{Db, DbConfig};

const KEYS: u64 = 20_000;

fn value(k: u64) -> Vec<u8> {
    (0..16 + k % 200).map(|i| (k + i) as u8).collect()
}

#[test]
fn an_in_memory_db_never_evicts() {
    let mut cfg = DbConfig::in_memory();
    cfg.pool_frames = 16;
    let db = Db::open(cfg).unwrap();
    let mut s = db.session();
    for k in 0..KEYS {
        s.put(k, &value(k)).unwrap();
    }
    for k in (0..KEYS).step_by(2) {
        assert!(s.delete(k).unwrap(), "key {k} was loaded");
    }
    for k in 0..KEYS {
        let want = (k % 2 == 1).then(|| value(k));
        assert_eq!(s.get(k).unwrap(), want, "key {k}");
    }
    drop(s);
    db.verify().unwrap().assert_ok();
    let st = db.store().stats().snapshot();
    assert!(
        db.store().capacity() > 16,
        "the data must outgrow the 16 frames asked for"
    );
    assert_eq!(st.frames_evicted, 0, "nothing is evicted");
    assert_eq!(st.cache_misses, 0, "every latched read hits");
    assert_eq!(st.dirty_writebacks, 0, "nothing is written back");
    // Every read is a latched hit or a validated unlatched probe.
    assert_eq!(
        st.gets,
        st.cache_hits + st.cache_misses + st.optimistic_reads
    );
}
