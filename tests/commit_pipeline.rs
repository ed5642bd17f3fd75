//! Pipelined group commit under a deliberately slow fsync.
//!
//! The fault injector's `set_fsync_delay` hook stretches every WAL fsync,
//! which is exactly the regime the pipeline exists for: the leader fsyncs
//! batch N on a cloned fd with no locks held while batch N+1 fills behind
//! it. These tests pin down the two things that must stay true when fsync
//! is slow: the pipeline actually engages (depth counter moves, batches
//! form), and a committer never observes its op as committed before the
//! batch holding its record is durable — including when the simulated
//! crash lands mid-pipeline and the leader's error has to fan out to every
//! waiter of the failed batch.

use sagiv_blink_repro::db::{Db, DbConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blink-pipe-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: &PathBuf) -> DbConfig {
    let mut c = DbConfig::durable_group_commit(dir, Duration::from_micros(500)).with_k(4);
    c.page_size = 1024;
    c.segment_bytes = 256 << 10;
    c
}

#[test]
fn slow_fsync_is_actually_injected() {
    let dir = tmpdir("delay");
    let db = Db::open(cfg(&dir)).unwrap();
    let delay = Duration::from_millis(5);
    db.durable().unwrap().fault().set_fsync_delay(delay);
    let mut s = db.session();
    let t0 = Instant::now();
    s.put(1, b"payload").unwrap();
    assert!(
        t0.elapsed() >= delay,
        "a committed put must have waited out at least one injected fsync ({:?})",
        t0.elapsed()
    );
    drop(s);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pipeline_engages_under_slow_fsync_and_concurrency() {
    let dir = tmpdir("engage");
    let db = Arc::new(Db::open(cfg(&dir)).unwrap());
    db.durable()
        .unwrap()
        .fault()
        .set_fsync_delay(Duration::from_micros(300));
    // A hand-off needs a successor to show up while the leader is still
    // inside fsync; that is overwhelmingly likely per round but not
    // guaranteed, so run rounds until the depth counter moves.
    let mut snap = db.store().stats().snapshot();
    for round in 0..20u64 {
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let mut s = db.session();
                    for i in 0..120u64 {
                        s.put(round * 10_000 + w * 1_000 + i, &i.to_le_bytes())
                            .unwrap();
                    }
                });
            }
        });
        snap = db.store().stats().snapshot();
        if snap.wal_pipeline_depth > 0 {
            break;
        }
    }
    assert!(
        snap.wal_group_commits > 0,
        "concurrent committers under a slow fsync must form batches"
    );
    assert!(
        snap.wal_pipeline_depth > 0,
        "the leader must have handed off to a successor at least once \
         (depth {}, batches {})",
        snap.wal_pipeline_depth,
        snap.wal_group_commits
    );
    db.verify().unwrap().assert_ok();
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash the store mid-run at assorted WAL-record boundaries while fsync is
/// slow and commits are pipelined. Every put that returned `Ok` must read
/// back after recovery (it waited for its batch's fsync); the first `Err`
/// stops the run and only that key may land either way. This drives the
/// pipeline's failure fan-out: the leader's fsync error must fail its whole
/// batch's gate, hand the leader token on, and keep later batches honest.
#[test]
fn committed_puts_survive_a_crash_mid_pipeline() {
    const OPS: u64 = 200;
    let dir = tmpdir("crash");

    // Count the records of the puts alone (the crash budget below is armed
    // after open, so creation-time records are not charged against it).
    let total_records = {
        let db = Db::open(cfg(&dir)).unwrap();
        let before = db.store().stats().snapshot().wal_records;
        let mut s = db.session();
        for i in 0..OPS {
            s.put(i % 37, &i.to_le_bytes()).unwrap();
        }
        drop(s);
        let n = db.store().stats().snapshot().wal_records - before;
        drop(db);
        n
    };
    std::fs::remove_dir_all(&dir).unwrap();

    for &n in &[
        1,
        total_records / 5,
        total_records / 2,
        total_records - 3,
        total_records - 1,
    ] {
        let db = Arc::new(Db::open(cfg(&dir)).unwrap());
        db.durable()
            .unwrap()
            .fault()
            .set_fsync_delay(Duration::from_micros(200));
        db.durable().unwrap().fault().crash_after_wal_records(n);
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut inflight = None;
        let mut s = db.session();
        for i in 0..OPS {
            let key = i % 37;
            match s.put(key, &i.to_le_bytes()) {
                Ok(_) => {
                    model.insert(key, i.to_le_bytes().to_vec());
                }
                Err(_) => {
                    inflight = Some(key);
                    break;
                }
            }
        }
        drop(s);
        assert!(
            db.durable().unwrap().fault().tripped(),
            "boundary {n}: crash never fired"
        );
        drop(db);

        let db = Db::open(cfg(&dir)).unwrap();
        db.verify().unwrap().assert_ok();
        let mut s = db.session();
        for key in 0..37u64 {
            if Some(key) == inflight {
                let _ = s.get(key).unwrap();
                continue;
            }
            assert_eq!(
                s.get(key).unwrap(),
                model.get(&key).cloned(),
                "boundary {n}, key {key}: a committed put was lost or a \
                 doomed one resurrected"
            );
        }
        drop(s);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
