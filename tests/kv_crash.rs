//! Index/heap crash consistency through the `Db` facade.
//!
//! A `put` touches two structures — the record heap (value bytes) and the
//! index (the leaf's `RecordId`) — through one shared WAL. The matrix test
//! kills the store after *every* WAL-record boundary of a mixed
//! put/overwrite/delete run and asserts, for each boundary, that the
//! reopened `Db` is **mutually consistent**: every leaf's `RecordId`
//! resolves to a live record (no dangling — `Db::open` hard-errors
//! otherwise), every live record is referenced by exactly one leaf (no
//! leaks — orphans are GC'd and counted), and every committed key reads
//! back its committed value.

use sagiv_blink_repro::db::{Db, DbConfig};
use sagiv_blink_repro::durable::FsyncPolicy;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blink-kvcrash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: &PathBuf) -> DbConfig {
    let mut c = DbConfig::durable(dir).with_k(4);
    c.page_size = 1024;
    c.fsync = FsyncPolicy::Never; // the injected crash cuts at record granularity
    c.segment_bytes = 128 << 10;
    c
}

#[derive(Debug, Clone, PartialEq)]
enum Op {
    Put(u64, Vec<u8>),
    Delete(u64),
}

/// Deterministic mixed workload. Values vary in size so overwrites exercise
/// both the in-place path (same size) and the move path (growth).
fn op_at(i: u64, key_space: u64) -> Op {
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    x ^= x >> 27;
    x = x.wrapping_mul(0x3C79_AC49_2BA7_B653);
    x ^= x >> 33;
    let key = x % key_space;
    if x >> 40 & 0b11 == 0b11 && i > key_space / 2 {
        Op::Delete(key)
    } else {
        let len = 8 + (x >> 48) as usize % 48;
        let mut v = vec![(i % 251) as u8; len];
        v[..8].copy_from_slice(&i.to_le_bytes());
        Op::Put(key, v)
    }
}

/// Applies `op(i)` for `i` in `0..ops` until one fails (the crash) or the
/// workload ends. Returns the committed model and the in-flight (failed)
/// key.
fn run_until_crash(
    db: &Db,
    ops: u64,
    op: impl Fn(u64) -> Op,
) -> (BTreeMap<u64, Vec<u8>>, Option<u64>) {
    let mut model = BTreeMap::new();
    let inflight = apply_with(&mut db.session(), &mut model, 0..ops, op);
    (model, inflight)
}

/// The reopened `Db` must be internally consistent and must contain exactly
/// the committed pairs; only the in-flight key may land either way.
fn assert_consistent(db: &Db, model: &BTreeMap<u64, Vec<u8>>, inflight: Option<u64>, keys: u64) {
    db.verify().unwrap().assert_ok();
    let mut session = db.session();
    // Mutual consistency: live records == index entries (Db::open already
    // hard-errors on dangling ids; this closes the leak direction too).
    let count = session.count().unwrap();
    assert_eq!(
        db.heap().live_records().unwrap().len(),
        count,
        "live heap records must match index entries exactly"
    );
    for k in 0..keys {
        if Some(k) == inflight {
            // The in-flight op may have landed either way; whatever value
            // is present must still be readable without error.
            let _ = session.get(k).unwrap();
            continue;
        }
        assert_eq!(
            session.get(k).unwrap().as_deref(),
            model.get(&k).map(|v| v.as_slice()),
            "key {k}: committed state lost or resurrected"
        );
    }
}

#[test]
fn crash_point_matrix_over_a_mixed_kv_run() {
    const OPS: u64 = 160;
    const KEYS: u64 = 48;
    let dir = tmpdir("matrix");

    // Phase A: count the WAL records of the whole run, fault-free — and
    // prove the run logs delta records, so the matrix below crashes on
    // every *delta* boundary too (the PR 5 record family).
    let total_records = {
        let db = Db::open(cfg(&dir)).unwrap();
        let before = db.store().stats().snapshot();
        let (_, inflight) = run_until_crash(&db, OPS, |i| op_at(i, KEYS));
        assert_eq!(inflight, None, "fault-free run must not fail");
        let d = db.store().stats().snapshot().delta(&before);
        assert!(
            d.wal_put_deltas > 50,
            "the mixed run must exercise the delta-record path (got {})",
            d.wal_put_deltas
        );
        d.wal_records
    };
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        total_records > 200,
        "workload too small to be interesting: {total_records} records"
    );

    // Phase B: crash after every record boundary; recover; check.
    for n in 0..=total_records {
        let db = Db::open(cfg(&dir)).unwrap();
        db.durable().unwrap().fault().crash_after_wal_records(n);
        let (model, inflight) = run_until_crash(&db, OPS, |i| op_at(i, KEYS));
        if n >= total_records {
            assert_eq!(inflight, None);
        } else {
            assert!(
                db.durable().unwrap().fault().tripped(),
                "boundary {n}: fault never fired"
            );
        }
        drop(db);

        let db = Db::open(cfg(&dir)).unwrap();
        assert_consistent(&db, &model, inflight, KEYS);
        // The recovered database stays writable.
        let mut s = db.session();
        s.put(u64::MAX - n, &n.to_le_bytes()).unwrap();
        assert_eq!(
            s.get(u64::MAX - n).unwrap().as_deref(),
            Some(&n.to_le_bytes()[..])
        );
        drop(s);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Inserts of every key of `0..keys` in a scrambled order, then deletes and
/// overwrites among them. At the default `k` one leaf takes 252 pairs
/// before it splits, so most inserts shift the pairs above them up and
/// every delete shifts them down: the index writes log moves.
fn filling_op_at(i: u64, keys: u64) -> Op {
    // 97 is coprime with the key counts used here: `j * 97 % keys` visits
    // every key once.
    let key = |j: u64| j * 97 % keys;
    let mut v = vec![(i % 251) as u8; 16];
    v[..8].copy_from_slice(&i.to_le_bytes());
    if i < keys {
        Op::Put(key(i), v)
    } else if i.is_multiple_of(2) {
        Op::Delete(key(i * 7 % keys))
    } else {
        Op::Put(key(i * 13 % keys), v)
    }
}

/// Copies every file of `from` into a fresh directory `to`.
fn copy_dir(from: &PathBuf, to: &PathBuf) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for e in std::fs::read_dir(from).unwrap() {
        let e = e.unwrap();
        std::fs::copy(e.path(), to.join(e.file_name())).unwrap();
    }
}

/// The matrix at `DbConfig`'s default `k` and 4 KiB pages, where the
/// other suites run at `k` = 4: leaves fill their page and split, and
/// leaf inserts and removes log moves, so the boundaries fall around
/// move records too. The first `FILL` inserts are written once, into a
/// checkpointed directory; every run starts from a copy of it, and the
/// crash falls after every record boundary of the rest: the inserts that
/// fill the leaf to its page and split it, then deletes and overwrites.
#[test]
fn crash_point_matrix_at_the_default_k() {
    const KEYS: u64 = 280;
    const FILL: u64 = 200;
    const OPS: u64 = KEYS + 40;
    let template = tmpdir("defaultk-template");
    let dir = tmpdir("defaultk");
    let cfg = |dir: &PathBuf| {
        let mut c = DbConfig::durable(dir);
        c.fsync = FsyncPolicy::Never;
        c.segment_bytes = 128 << 10;
        c
    };
    let mut filled = BTreeMap::new();
    {
        let db = Db::open(cfg(&template)).unwrap();
        let inflight = apply_with(&mut db.session(), &mut filled, 0..FILL, |i| {
            filling_op_at(i, KEYS)
        });
        assert_eq!(inflight, None);
        db.checkpoint().unwrap();
    }
    let run = |db: &Db| {
        let mut model = filled.clone();
        let inflight = apply_with(&mut db.session(), &mut model, FILL..OPS, |i| {
            filling_op_at(i, KEYS)
        });
        (model, inflight)
    };
    let total_records = {
        copy_dir(&template, &dir);
        let db = Db::open(cfg(&dir)).unwrap();
        let before = db.store().stats().snapshot();
        let (_, inflight) = run(&db);
        assert_eq!(inflight, None, "fault-free run must not fail");
        let d = db.store().stats().snapshot().delta(&before);
        assert!(d.wal_put_moves > 50, "too few moves: {}", d.wal_put_moves);
        assert!(db.verify().unwrap().height >= 2, "no leaf filled and split");
        d.wal_records
    };

    for n in 0..=total_records {
        copy_dir(&template, &dir);
        let db = Db::open(cfg(&dir)).unwrap();
        db.durable().unwrap().fault().crash_after_wal_records(n);
        let (model, inflight) = run(&db);
        assert_eq!(inflight.is_none(), n >= total_records, "boundary {n}");
        drop(db);

        let db = Db::open(cfg(&dir)).unwrap();
        assert_consistent(&db, &model, inflight, KEYS);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&template).unwrap();
}

/// Delete-then-reinsert churn over a tiny key set with same-size values:
/// almost every reinsert lands in a slot a delete just tombstoned, so WAL
/// boundaries fall *between* a slot's free and its reuse. Crashing there
/// and recovering must neither resurrect the freed record (per-slot
/// generations) nor lose the tenant that reused its slot.
fn churn_op_at(i: u64, key_space: u64) -> Op {
    let key = i % key_space;
    if i / key_space % 2 == 1 && i.is_multiple_of(2) {
        Op::Delete(key)
    } else {
        let mut v = vec![(i % 251) as u8; 24]; // same size => reuse, not growth
        v[..8].copy_from_slice(&i.to_le_bytes());
        Op::Put(key, v)
    }
}

#[test]
fn crash_matrix_over_slot_reuse_churn() {
    const OPS: u64 = 120;
    const KEYS: u64 = 16;
    let dir = tmpdir("reuse");

    // Phase A: fault-free probe — count WAL records AND prove the workload
    // really exercises slot reuse (else the matrix below tests nothing).
    let total_records = {
        let db = Db::open(cfg(&dir)).unwrap();
        let before = db.store().stats().snapshot().wal_records;
        let (_, inflight) = run_until_crash(&db, OPS, |i| churn_op_at(i, KEYS));
        assert_eq!(inflight, None, "fault-free run must not fail");
        let snap = db.store().stats().snapshot();
        assert!(
            snap.heap_slots_reused >= KEYS,
            "churn must reuse freed slots pre-crash (got {})",
            snap.heap_slots_reused
        );
        snap.wal_records - before
    };
    std::fs::remove_dir_all(&dir).unwrap();

    // Phase B: crash after every record boundary; recover; check. The
    // interesting boundaries are the ones splitting a delete's tombstone
    // write from the reusing put's slot write — the full matrix covers
    // them all.
    for n in 0..=total_records {
        let db = Db::open(cfg(&dir)).unwrap();
        db.durable().unwrap().fault().crash_after_wal_records(n);
        let (model, inflight) = run_until_crash(&db, OPS, |i| churn_op_at(i, KEYS));
        drop(db);

        let db = Db::open(cfg(&dir)).unwrap();
        assert_consistent(&db, &model, inflight, KEYS);
        // Recovered databases keep reusing slots correctly: churn a little
        // more and stay consistent.
        let mut s = db.session();
        for k in 0..KEYS / 2 {
            assert!(s.put(k, &[0xAB; 24]).is_ok());
            assert!(s.delete(k).unwrap());
            assert!(s.put(k, &[0xCD; 24]).is_ok());
            assert_eq!(s.get(k).unwrap().unwrap(), vec![0xCD; 24]);
        }
        drop(s);
        db.verify().unwrap().assert_ok();
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn crashes_at_arbitrary_boundaries_of_a_large_run() {
    const OPS: u64 = 4_000;
    const KEYS: u64 = 512;
    let dir = tmpdir("large");

    let total_records = {
        let db = Db::open(cfg(&dir)).unwrap();
        let before = db.store().stats().snapshot().wal_records;
        let (model, inflight) = run_until_crash(&db, OPS, |i| op_at(i, KEYS));
        assert_eq!(inflight, None);
        assert!(model.len() > 200, "workload must leave a real database");
        db.store().stats().snapshot().wal_records - before
    };
    std::fs::remove_dir_all(&dir).unwrap();

    for &n in &[total_records / 7, total_records / 2, total_records - 2] {
        let db = Db::open(cfg(&dir)).unwrap();
        db.durable().unwrap().fault().crash_after_wal_records(n);
        let (model, inflight) = run_until_crash(&db, OPS, |i| op_at(i, KEYS));
        assert!(db.durable().unwrap().fault().tripped());
        drop(db);

        let db = Db::open(cfg(&dir)).unwrap();
        let rec = db.recovery().unwrap();
        assert!(rec.wal_records_replayed > 0);
        assert_consistent(&db, &model, inflight, KEYS);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A crash can also tear the *bytes* of the final record, not just drop
/// whole records: physically truncate the last WAL segment mid-record —
/// the final record being a known in-place overwrite, i.e. a delta — and
/// recovery must discard the torn delta, keep every earlier commit, and
/// read back the pre-overwrite value.
#[test]
fn torn_final_delta_record_is_discarded() {
    let dir = tmpdir("torndelta");
    const PRELOAD: u64 = 64;
    {
        let db = Db::open(cfg(&dir)).unwrap();
        let mut s = db.session();
        for k in 0..PRELOAD {
            s.put(k, &[0xAA; 24]).unwrap();
        }
        // Same-size overwrite: rewrites the record in place, one delta
        // record, no index write — the last record in the log.
        let before = db.store().stats().snapshot().wal_put_deltas;
        s.put(7, &[0xBB; 24]).unwrap();
        assert_eq!(
            db.store().stats().snapshot().wal_put_deltas,
            before + 1,
            "the overwrite must have logged exactly one delta"
        );
        drop(s);
        // No sync: the overwrite lives only in the log + frame.
    }
    // Tear the delta: chop a few bytes off the last segment.
    let last_seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .max()
        .expect("a wal segment");
    let len = std::fs::metadata(&last_seg).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&last_seg)
        .unwrap()
        .set_len(len - 5)
        .unwrap();

    let db = Db::open(cfg(&dir)).unwrap();
    assert!(
        db.durable().unwrap().recovery().torn_tail,
        "recovery must notice the torn record"
    );
    db.verify().unwrap().assert_ok();
    let mut s = db.session();
    assert_eq!(
        s.get(7).unwrap().unwrap(),
        vec![0xAA; 24],
        "the torn overwrite must roll back to the committed value"
    );
    for k in 0..PRELOAD {
        assert!(s.get(k).unwrap().is_some(), "key {k} lost");
    }
    // The store keeps working (and keeps logging deltas) after the trim.
    s.put(7, &[0xCC; 24]).unwrap();
    assert_eq!(s.get(7).unwrap().unwrap(), vec![0xCC; 24]);
    drop(s);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Applies ops `range` on an open session, updating `model`; returns the
/// in-flight key if an op failed (the injected crash fired mid-run).
fn apply_ops(
    session: &mut sagiv_blink_repro::db::DbSession<'_>,
    model: &mut BTreeMap<u64, Vec<u8>>,
    range: std::ops::Range<u64>,
    key_space: u64,
) -> Option<u64> {
    apply_with(session, model, range, |i| op_at(i, key_space))
}

/// Applies `op(i)` for `i` in `range` on an open session, updating
/// `model`; returns the in-flight key if an op failed.
fn apply_with(
    session: &mut sagiv_blink_repro::db::DbSession<'_>,
    model: &mut BTreeMap<u64, Vec<u8>>,
    range: std::ops::Range<u64>,
    op: impl Fn(u64) -> Op,
) -> Option<u64> {
    for i in range {
        let op = op(i);
        let (key, result) = match &op {
            Op::Put(k, v) => (*k, session.put(*k, v).map(|_| ())),
            Op::Delete(k) => (*k, session.delete(*k).map(|_| ())),
        };
        if result.is_err() {
            return Some(key);
        }
        match op {
            Op::Put(k, v) => {
                model.insert(k, v);
            }
            Op::Delete(k) => {
                model.remove(&k);
            }
        }
    }
    None
}

/// The fuzzy-checkpoint crash matrix: a run whose middle third executes
/// **between** `checkpoint_begin` and `checkpoint_end` — writes landing
/// behind the WAL cut while the checkpoint is in flight — crashed after
/// every WAL record boundary. Each recovery must land on exactly the
/// committed prefix, whichever side of the begin/end the boundary falls
/// on: before the cut (replay from the old meta covers everything), inside
/// the window (old meta + all segments, since `checkpoint_end` never ran
/// its deletes), or after the end (replay from the new cut, whose
/// first-touch full images sit under every post-cut delta).
#[test]
fn crash_matrix_across_a_fuzzy_checkpoint() {
    const PHASE: u64 = 60;
    const KEYS: u64 = 48;
    let dir = tmpdir("fuzzyckpt");

    // The whole run, fault-free: count records and prove the checkpoint
    // really cut the log (recovery replay after a clean reopen is small).
    let total_records = {
        let db = Db::open(cfg(&dir)).unwrap();
        let mut model = BTreeMap::new();
        let mut s = db.session();
        assert_eq!(apply_ops(&mut s, &mut model, 0..PHASE, KEYS), None);
        let ds = db.durable().unwrap();
        let token = ds.checkpoint_begin().unwrap();
        assert_eq!(apply_ops(&mut s, &mut model, PHASE..2 * PHASE, KEYS), None);
        ds.checkpoint_end(token).unwrap();
        assert_eq!(
            apply_ops(&mut s, &mut model, 2 * PHASE..3 * PHASE, KEYS),
            None
        );
        drop(s);
        let records = db.store().stats().snapshot().wal_records;
        drop(db);
        let db = Db::open(cfg(&dir)).unwrap();
        let replayed = db.durable().unwrap().recovery().replayed;
        assert!(
            replayed < records,
            "the checkpoint must bound replay ({replayed} of {records} replayed)"
        );
        drop(db);
        records
    };
    std::fs::remove_dir_all(&dir).unwrap();

    // Crash after every record boundary of the same run; recover; check.
    for n in 0..=total_records {
        let db = Db::open(cfg(&dir)).unwrap();
        db.durable().unwrap().fault().crash_after_wal_records(n);
        let mut model = BTreeMap::new();
        let mut s = db.session();
        let mut inflight = apply_ops(&mut s, &mut model, 0..PHASE, KEYS);
        if inflight.is_none() {
            let ds = db.durable().unwrap();
            // A checkpoint interrupted by the crash is itself part of the
            // matrix: begin or end may fail once the fault trips, and
            // recovery must then come from the *previous* meta.
            match ds.checkpoint_begin() {
                Ok(token) => {
                    inflight = apply_ops(&mut s, &mut model, PHASE..2 * PHASE, KEYS);
                    let _ = ds.checkpoint_end(token);
                    if inflight.is_none() {
                        inflight = apply_ops(&mut s, &mut model, 2 * PHASE..3 * PHASE, KEYS);
                    }
                }
                Err(_) => {
                    inflight = apply_ops(&mut s, &mut model, PHASE..3 * PHASE, KEYS);
                }
            }
        }
        drop(s);
        drop(db);

        let db = Db::open(cfg(&dir)).unwrap();
        assert_consistent(&db, &model, inflight, KEYS);
        let mut s = db.session();
        s.put(u64::MAX - n, &n.to_le_bytes()).unwrap();
        assert_eq!(
            s.get(u64::MAX - n).unwrap().as_deref(),
            Some(&n.to_le_bytes()[..])
        );
        drop(s);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The checkpoint's meta rewrite is the single-file commit point of the
/// fuzzy protocol. Fail it — transiently and torn — mid-checkpoint:
/// `checkpoint_end` must error typed, the tear must land in `meta.tmp`
/// (never the live `meta`), the store must keep committing on the old
/// cut, and a reopen must recover the full committed prefix by replaying
/// from the previous checkpoint, whose segments the failed end never got
/// to delete.
#[test]
fn meta_write_faults_mid_checkpoint_fall_back_to_the_previous_cut() {
    use sagiv_blink_repro::durable::{FaultKind, FaultPlan, FaultSite};
    const PHASE: u64 = 60;
    const KEYS: u64 = 48;
    for kind in [FaultKind::Transient, FaultKind::TornWrite(33)] {
        let dir = tmpdir("metafault");
        let db = Db::open(cfg(&dir)).unwrap();
        let mut model = BTreeMap::new();
        let mut s = db.session();
        assert_eq!(apply_ops(&mut s, &mut model, 0..PHASE, KEYS), None);
        let ds = db.durable().unwrap();
        let token = ds.checkpoint_begin().unwrap();
        assert_eq!(apply_ops(&mut s, &mut model, PHASE..2 * PHASE, KEYS), None);
        ds.fault()
            .set_plan(FaultPlan::new().fail_nth(FaultSite::MetaWrite, 1, kind));
        let err = ds
            .checkpoint_end(token)
            .expect_err("a meta-write fault must fail the checkpoint");
        assert!(
            err.to_string().contains("injected"),
            "unexpected error: {err}"
        );
        // The store keeps running on the old cut...
        assert_eq!(
            apply_ops(&mut s, &mut model, 2 * PHASE..3 * PHASE, KEYS),
            None,
            "{kind:?}: writes after the failed checkpoint must still commit"
        );
        // ...and the next checkpoint (the fault is spent) commits cleanly.
        db.checkpoint()
            .unwrap_or_else(|e| panic!("{kind:?}: post-fault checkpoint failed: {e}"));
        drop(s);
        drop(db);
        // Reopen: the torn image sat in `meta.tmp`, so recovery reads an
        // intact meta and lands on exactly the committed prefix.
        let db = Db::open(cfg(&dir)).unwrap();
        assert_consistent(&db, &model, None, KEYS);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Fuzzy means fuzzy: checkpoints loop while four writer threads churn.
/// Every checkpoint must succeed, and the final database (reopened, so
/// recovery replays from the last cut) must verify and hold every thread's
/// last committed writes.
#[test]
fn fuzzy_checkpoints_run_under_concurrent_writers() {
    let dir = tmpdir("fuzzylive");
    const WRITERS: u64 = 4;
    const OPS: u64 = 400;
    {
        let db = Arc::new(Db::open(cfg(&dir)).unwrap());
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let mut s = db.session();
                    for i in 0..OPS {
                        let key = w * 10_000 + i % 97;
                        s.put(key, &i.to_le_bytes()).unwrap();
                        if i % 11 == 0 {
                            s.delete(w * 10_000 + (i + 13) % 97).unwrap();
                        }
                    }
                });
            }
            let db = Arc::clone(&db);
            scope.spawn(move || {
                for _ in 0..20 {
                    db.checkpoint().unwrap();
                }
            });
        });
        db.verify().unwrap().assert_ok();
        db.sync().unwrap();
    }
    let db = Db::open(cfg(&dir)).unwrap();
    db.verify().unwrap().assert_ok();
    let mut s = db.session();
    assert_eq!(
        db.heap().live_records().unwrap().len(),
        s.count().unwrap(),
        "index and heap must agree after checkpoints raced writers"
    );
    drop(s);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn clean_shutdown_reopens_with_no_orphans() {
    let dir = tmpdir("clean");
    {
        let db = Db::open(cfg(&dir)).unwrap();
        let mut s = db.session();
        for i in 0..2_000u64 {
            s.put(i, format!("v{i}").as_bytes()).unwrap();
        }
        for i in 0..500u64 {
            s.put(i, format!("v{i}-rewritten-longer").as_bytes())
                .unwrap();
        }
        db.checkpoint().unwrap();
        db.sync().unwrap();
    }
    let db = Db::open(cfg(&dir)).unwrap();
    let rec = db.recovery().unwrap();
    assert!(!rec.tree_repaired, "clean shutdown needs no repair");
    assert_eq!(rec.orphan_records_freed, 0, "clean shutdown leaks nothing");
    let mut s = db.session();
    assert_eq!(s.count().unwrap(), 2_000);
    assert_eq!(
        s.get(100).unwrap().unwrap(),
        b"v100-rewritten-longer".to_vec()
    );
    drop(s);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_kv_load_then_crash_then_recover() {
    let dir = tmpdir("concurrent");
    {
        let db = Arc::new(Db::open(cfg(&dir)).unwrap());
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let mut s = db.session();
                    for i in 0..300u64 {
                        // Once the injected crash (below) fires, every
                        // subsequent write errors; just stop.
                        if s.put(w * 1_000 + i, &[w as u8; 24]).is_err() {
                            break;
                        }
                    }
                });
            }
            // Let the writers race a mid-run crash.
            db.durable().unwrap().fault().crash_after_wal_records(900);
        });
    }
    let db = Db::open(cfg(&dir)).unwrap();
    let mut s = db.session();
    assert_eq!(
        db.heap().live_records().unwrap().len(),
        s.count().unwrap(),
        "recovery must reconcile index and heap even after a concurrent crash"
    );
    db.verify().unwrap().assert_ok();
    drop(s);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
