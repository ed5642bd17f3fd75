//! Cross-crate integration: the §2.1 dense index as consumed through the
//! `Db` facade — "the leaves contain pairs (v, p), where p points to the
//! record with key value v" — under concurrent writers and the `Db`'s own
//! background compression. No caller-managed heap, no raw `RecordId`s.

use sagiv_blink_repro::blink::UnderflowPolicy;
use sagiv_blink_repro::db::{Db, DbConfig, PutOutcome};
use std::sync::Arc;

fn db() -> Db {
    Db::open(DbConfig::in_memory().with_k(4)).unwrap()
}

#[test]
fn records_round_trip_through_the_index() {
    let db = db();
    let mut s = db.session();
    for i in 0..5_000u64 {
        let payload = format!("record-{i}-{}", "x".repeat((i % 50) as usize));
        assert_eq!(s.put(i, payload.as_bytes()).unwrap(), PutOutcome::Inserted);
    }
    for i in (0..5_000u64).step_by(7) {
        let data = s.get(i).unwrap().expect("indexed");
        assert!(String::from_utf8(data)
            .unwrap()
            .starts_with(&format!("record-{i}-")));
    }
    // Delete removes index entry and record together.
    assert!(s.delete(1234).unwrap());
    assert_eq!(s.get(1234).unwrap(), None);
    // Overwrites never leak records: live records == live keys, always.
    for i in 0..1_000u64 {
        s.put(i, format!("replacement-{i}").as_bytes()).unwrap();
    }
    assert_eq!(db.heap().live_records().unwrap().len(), s.count().unwrap());
    db.verify().unwrap().assert_ok();
}

#[test]
fn concurrent_writers_own_records() {
    // `Db` ignores underflow by default; this test compresses, so it opts
    // the index into queueing underflowing leaves, which the `Db`'s
    // background step drains while the writers run.
    let mut cfg = DbConfig::in_memory().with_k(4);
    cfg.underflow_policy = UnderflowPolicy::Enqueue;
    let db = Arc::new(Db::open(cfg).unwrap());
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                let mut s = db.session();
                let base = w * 100_000;
                for i in 0..2_000u64 {
                    s.put(base + i, format!("w{w}:{i}").as_bytes()).unwrap();
                }
                // Verify own records while others churn.
                for i in 0..2_000u64 {
                    let data = s.get(base + i).unwrap().expect("own key");
                    assert!(data.starts_with(format!("w{w}:").as_bytes()));
                }
                // Retention: delete the first half — index and records go
                // together now.
                for i in 0..1_000u64 {
                    assert!(s.delete(base + i).unwrap());
                }
            });
        }
    });
    let mut s = db.session();
    let tree = db.tree();
    tree.compress_drain(s.inner(), 1_000_000).unwrap();
    let c = tree.counters().snapshot();
    assert!(c.enqueues > 0, "the deletes fed the compression queue");
    assert!(c.merges + c.redistributes > 0, "the queue was compressed");
    tree.reclaim().unwrap();
    let rep = db.verify().unwrap();
    rep.assert_ok();
    assert_eq!(rep.leaf_pairs, 4 * 1_000);
    // Every surviving index entry resolves to the right worker's record,
    // streamed through the scan cursor.
    let mut n = 0;
    for pair in s.scan(0, u64::MAX) {
        let (key, data) = pair.unwrap();
        let w = key / 100_000;
        assert!(data.starts_with(format!("w{w}:").as_bytes()));
        n += 1;
    }
    assert_eq!(n, 4 * 1_000);
    // And the heap holds exactly those records — nothing dangles or leaks.
    assert_eq!(db.heap().live_records().unwrap().len(), 4 * 1_000);
}

#[test]
fn scan_cursor_streams_fifty_thousand_keys() {
    let db = Db::open(DbConfig::in_memory().with_k(16)).unwrap();
    let mut s = db.session();
    for i in 0..50_000u64 {
        s.put(i, &i.to_le_bytes()).unwrap();
    }
    // One pass, no materialization: the cursor hands out pairs in order
    // while buffering at most one leaf internally.
    let mut expect = 0u64;
    for pair in s.scan(0, u64::MAX) {
        let (k, v) = pair.unwrap();
        assert_eq!(k, expect);
        assert_eq!(v, k.to_le_bytes());
        expect += 1;
    }
    assert_eq!(expect, 50_000);
}
