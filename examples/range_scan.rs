//! Time-window queries over an event log, on the `Db` facade.
//!
//! The §2.1 dense-index arrangement — leaves hold `(v, p)` pairs where `p`
//! points to the record with key value `v` — used to require wiring a
//! `BLinkTree`, a `RecordHeap` and raw `RecordId`s by hand. The `Db` owns
//! all of that now: records live in the heap, the index points at them,
//! and overwrite/delete free them automatically.
//!
//! Run with: `cargo run --release --example range_scan`

use sagiv_blink_repro::blink::UnderflowPolicy;
use sagiv_blink_repro::db::{Db, DbConfig};

fn main() {
    // The retention step below compresses the index, so queue underflowing
    // leaves for it (a `Db` ignores underflow by default).
    let mut cfg = DbConfig::in_memory().with_k(16);
    cfg.underflow_policy = UnderflowPolicy::Enqueue;
    let db = Db::open(cfg).expect("open db");
    let mut session = db.session();

    // Store 50k event records, keyed by timestamp.
    println!("loading 50k event records…");
    for ts in 0..50_000u64 {
        let payload = format!(
            "event at t={ts}: sensor={} reading={}",
            ts % 7,
            ts * 31 % 1000
        );
        session.put(ts, payload.as_bytes()).expect("put");
    }

    // A time-window query: one streaming cursor, values joined on the fly.
    let (lo, hi) = (31_400u64, 31_405u64);
    println!("events in window [{lo}, {hi}]:");
    for pair in session.scan(lo, hi) {
        let (ts, record) = pair.expect("scan");
        println!("  {ts}: {}", String::from_utf8_lossy(&record));
    }

    // The cursor streams: counting a 50k-key range buffers at most one
    // leaf (≤ 2k pairs) at a time — no 50k-element Vec is ever built.
    let mut total = 0u64;
    let mut bytes = 0u64;
    for pair in session.scan(0, u64::MAX) {
        let (_, record) = pair.expect("scan");
        total += 1;
        bytes += record.len() as u64;
    }
    println!("streamed {total} events ({bytes} value bytes) through the cursor");
    assert_eq!(total, 50_000);

    // Retention: drop everything before t=40_000. Deletes free the records
    // too — no caller-managed heap bookkeeping.
    println!("applying retention (drop t < 40000)…");
    let doomed: Vec<u64> = session
        .scan(0, 39_999)
        .map(|pair| pair.expect("scan").0)
        .collect();
    for ts in doomed {
        session.delete(ts).expect("delete");
    }

    // Compress the index back to >= half-full nodes and release pages.
    let tree = db.tree();
    tree.compress_drain(session.inner(), 1_000_000)
        .expect("drain");
    tree.compress_to_fixpoint(session.inner(), 64)
        .expect("fixpoint");
    let freed = tree.reclaim().expect("reclaim");

    let rep = db.verify().expect("verify");
    rep.assert_ok();
    println!(
        "after retention: {} events, height {}, avg leaf fill {:.0}%, {} index pages reclaimed",
        rep.leaf_pairs,
        rep.height,
        rep.avg_leaf_fill * 100.0,
        freed
    );
    println!(
        "record heap pages live: {} (freed pages were returned as their records emptied)",
        db.heap().page_count()
    );

    // The survivors, via one more streaming pass.
    let survivors = session.scan(0, u64::MAX).count();
    let oldest = session
        .scan(0, u64::MAX)
        .next()
        .expect("nonempty")
        .expect("scan");
    assert_eq!(survivors, 10_000);
    assert_eq!(oldest.0, 40_000);
    println!("{survivors} events retained, oldest t={}", oldest.0);
}
