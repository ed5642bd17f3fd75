//! Chaos: seeded bad-disk fault plans against the full KV stack.
//!
//! Where `tests/kv_crash.rs` models power loss (a clean cut at a WAL
//! record boundary), this file models a **misbehaving disk**: transient
//! and permanent I/O errors, torn page writes, bit rot on the read path,
//! and failed WAL fsyncs — each injected by a seeded [`FaultPlan`] at an
//! exact per-site operation index.
//!
//! The contract under every plan is the same:
//!
//! * **No panic, no hang.** Every operation returns `Ok` or a typed
//!   error; background threads (flusher, commit leader) stay alive.
//! * **No lie.** An `Ok` from a durably-configured op means the effect is
//!   durable; after a failed fsync the store refuses further commits
//!   ([`StoreError::Poisoned`]) instead of silently retrying.
//! * **Recover on reopen.** Dropping the store and reopening the
//!   directory (the disk now behaving) always yields a verifiable,
//!   checksum-clean database whose contents are *plausible*: every key
//!   holds either its last acknowledged value or a value from an op whose
//!   outcome the fault left undecided.

use sagiv_blink_repro::blink::TreeError;
use sagiv_blink_repro::db::{Db, DbConfig};
use sagiv_blink_repro::durable::{xorshift64, FaultKind, FaultPlan, FaultSite, FsyncPolicy};
use sagiv_blink_repro::pagestore::StoreError;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const KEYS: u64 = 48;

fn quick() -> bool {
    std::env::var("QUICK").map(|v| v == "1").unwrap_or(false)
}

fn ops_per_run() -> u64 {
    if quick() {
        120
    } else {
        260
    }
}

fn tmpdir(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "blink-chaos-{name}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: &PathBuf) -> DbConfig {
    let mut c = DbConfig::durable(dir).with_k(4);
    c.page_size = 1024;
    // Every op commits through an fsync, so WalFsync faults land on real
    // commit points and an `Ok` op is durable by itself.
    c.fsync = FsyncPolicy::Always;
    c.segment_bytes = 64 << 10;
    // Far fewer frames than pages: evictions force backend writes, so
    // PageWrite/PageRead faults fire mid-workload, not only at sync.
    c.pool_frames = 8;
    c
}

/// Pulls the storage error out of a `Db` error, if that is what it is.
fn store_err(e: &TreeError) -> Option<&StoreError> {
    match e {
        TreeError::Store(s) => Some(s),
        _ => None,
    }
}

/// What a key may legitimately hold after a faulted run: the last
/// acknowledged state plus the intended state of every op the fault left
/// undecided (an errored op may or may not have reached the log before
/// failing).
type Plausible = BTreeMap<u64, Vec<Option<Vec<u8>>>>;

fn note_ok(model: &mut Plausible, key: u64, state: Option<Vec<u8>>) {
    model.insert(key, vec![state]);
}

fn note_undecided(model: &mut Plausible, key: u64, state: Option<Vec<u8>>) {
    let e = model.entry(key).or_insert_with(|| vec![None]);
    if !e.contains(&state) {
        e.push(state);
    }
}

/// Runs the deterministic mixed workload for `seed` with `plan` armed,
/// tolerating (but typing) every error, then reopens and checks the
/// plausibility contract. Returns how many ops errored.
fn run_chaos_case(name: &str, seed: u64, plan: FaultPlan) -> u64 {
    let dir = tmpdir(name);
    let mut model = Plausible::new();
    let mut errors = 0u64;
    {
        let db = Db::open(cfg(&dir)).unwrap();
        db.durable().unwrap().fault().set_plan(plan);
        let mut s = db.session();
        let mut x = seed | 1;
        for i in 0..ops_per_run() {
            let r = xorshift64(&mut x);
            let key = r % KEYS;
            if r >> 60 == 0 && i > 20 {
                // Periodic maintenance may fail under the plan; it must
                // fail *typed*, never panic or wedge.
                let outcome = if r >> 59 & 1 == 0 {
                    db.sync()
                } else {
                    db.checkpoint()
                };
                if let Err(e) = outcome {
                    assert!(store_err(&e).is_some(), "untyped maintenance error: {e}");
                    errors += 1;
                }
                continue;
            }
            if r >> 56 & 0b111 == 0b111 {
                match s.delete(key) {
                    Ok(_) => note_ok(&mut model, key, None),
                    Err(e) => {
                        assert!(store_err(&e).is_some(), "untyped delete error: {e}");
                        note_undecided(&mut model, key, None);
                        errors += 1;
                    }
                }
            } else {
                let len = 8 + (r >> 48) as usize % 40;
                let mut v = vec![(i % 251) as u8; len];
                v[..8].copy_from_slice(&i.to_le_bytes());
                match s.put(key, &v) {
                    Ok(_) => note_ok(&mut model, key, Some(v)),
                    Err(e) => {
                        assert!(store_err(&e).is_some(), "untyped put error: {e}");
                        note_undecided(&mut model, key, Some(v));
                        errors += 1;
                    }
                }
            }
        }
        // Crash-drop with the plan still armed: shutdown paths must also
        // survive the bad disk.
    }

    // The disk behaves again: reopen, verify, and sweep every key through
    // the checksum-verified read path.
    let db = Db::open(cfg(&dir)).unwrap();
    db.verify().unwrap().assert_ok();
    let mut s = db.session();
    for k in 0..KEYS {
        let got = s.get(k).unwrap();
        let default = vec![None];
        let plausible = model.get(&k).unwrap_or(&default);
        assert!(
            plausible.contains(&got),
            "seed {seed}, key {k}: recovered {:?} not in plausible set of {} states",
            got.as_ref().map(|v| v.len()),
            plausible.len()
        );
    }
    // The recovered store is writable and durable again.
    s.put(u64::MAX, &seed.to_le_bytes()).unwrap();
    drop(s);
    db.sync().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    errors
}

/// A plan of one or two faults of a single kind, sited where that kind is
/// meaningful, with op indices drawn from the seed.
fn plan_of_kind(kind_tag: u8, seed: u64) -> FaultPlan {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let nth = |s: &mut u64| 1 + xorshift64(s) % 40;
    let mut plan = FaultPlan::new();
    for _ in 0..1 + xorshift64(&mut s) % 2 {
        let n = nth(&mut s);
        plan = match kind_tag {
            0 => {
                let site = match xorshift64(&mut s) % 3 {
                    0 => FaultSite::PageRead,
                    1 => FaultSite::PageWrite,
                    _ => FaultSite::WalAppend,
                };
                plan.fail_nth(site, n, FaultKind::Transient)
            }
            1 => {
                let site = match xorshift64(&mut s) % 4 {
                    0 => FaultSite::PageRead,
                    1 => FaultSite::PageWrite,
                    2 => FaultSite::WalAppend,
                    _ => FaultSite::WalFsync,
                };
                plan.fail_nth(site, n, FaultKind::Permanent)
            }
            2 => {
                let site = if xorshift64(&mut s).is_multiple_of(4) {
                    FaultSite::MetaWrite
                } else {
                    FaultSite::PageWrite
                };
                plan.fail_nth(
                    site,
                    n,
                    FaultKind::TornWrite((xorshift64(&mut s) % 700) as usize),
                )
            }
            _ => plan.fail_nth(
                FaultSite::PageRead,
                n,
                FaultKind::BitFlip(xorshift64(&mut s)),
            ),
        };
    }
    plan
}

/// The acceptance matrix: ≥8 seeds for each fault kind, plus fully random
/// multi-fault schedules from `FaultPlan::chaos`. Every cell must satisfy
/// the no-panic / typed-error / plausible-recovery contract.
#[test]
fn chaos_matrix_over_seeded_fault_plans() {
    let seeds: &[u64] = if quick() {
        &[2, 3, 5, 7, 11, 13, 17, 19]
    } else {
        &[2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    };
    for (tag, name) in [
        (0, "transient"),
        (1, "permanent"),
        (2, "torn"),
        (3, "bitflip"),
    ] {
        for &seed in seeds {
            run_chaos_case(name, seed, plan_of_kind(tag, seed));
        }
    }
    // Mixed random schedules, one of which is freshly logged per CI run
    // via the `CHAOS_SEED` environment variable (see .github/workflows).
    let mut mixed: Vec<u64> = seeds.to_vec();
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        if let Ok(s) = s.parse::<u64>() {
            mixed.push(s);
        }
    }
    for &seed in &mixed {
        run_chaos_case("mixed", seed, FaultPlan::chaos(seed, 40));
    }
}

/// Transient faults on the page file are absorbed by the bounded retry:
/// the workload sees no error at all, and the retry counters prove the
/// faults actually fired.
#[test]
fn transient_page_faults_are_absorbed_by_retry() {
    let dir = tmpdir("retry");
    let db = Db::open(cfg(&dir)).unwrap();
    db.durable().unwrap().fault().set_plan(
        FaultPlan::new()
            .fail_nth(FaultSite::PageWrite, 2, FaultKind::Transient)
            .fail_nth(FaultSite::PageWrite, 9, FaultKind::Transient)
            .fail_nth(FaultSite::PageRead, 3, FaultKind::Transient),
    );
    let mut s = db.session();
    for i in 0..400u64 {
        s.put(i % KEYS, &i.to_le_bytes()).unwrap();
        if i % 5 == 0 {
            let _ = s.get((i + 7) % KEYS).unwrap();
        }
    }
    drop(s);
    db.sync().unwrap();
    let snap = db.store().stats().snapshot();
    assert!(
        snap.io_retries >= 2,
        "the transient faults must have been retried (got {})",
        snap.io_retries
    );
    assert_eq!(
        snap.io_giveups, 0,
        "no transient fault may exhaust the retry budget"
    );
    db.verify().unwrap().assert_ok();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A permanently failing page write exhausts the retry budget, surfaces as
/// a typed error on a foreground op (even when the background flusher hit
/// it first), and the reopened store recovers everything acknowledged.
#[test]
fn permanent_page_write_failure_surfaces_typed_then_reopen_recovers() {
    let dir = tmpdir("permanent");
    let mut committed = Vec::new();
    {
        let db = Db::open(cfg(&dir)).unwrap();
        db.durable()
            .unwrap()
            .fault()
            .set_plan(FaultPlan::new().fail_nth(FaultSite::PageWrite, 3, FaultKind::Permanent));
        let mut s = db.session();
        let mut first_error = None;
        for i in 0..400u64 {
            match s.put(i, &[0x5A; 24]) {
                Ok(_) => committed.push(i),
                Err(e) => {
                    assert!(store_err(&e).is_some(), "untyped error: {e}");
                    first_error = Some(e);
                    break;
                }
            }
        }
        let e = first_error.expect("8 frames over 400 keys must hit the dead disk");
        assert!(
            matches!(store_err(&e), Some(StoreError::Io(_))),
            "a dead page file surfaces as a typed I/O error, got {e}"
        );
        assert!(
            db.store().stats().snapshot().io_giveups >= 1,
            "the permanent fault must exhaust the retry budget"
        );
    }
    let db = Db::open(cfg(&dir)).unwrap();
    db.verify().unwrap().assert_ok();
    let mut s = db.session();
    for &k in &committed {
        assert_eq!(
            s.get(k).unwrap().as_deref(),
            Some(&[0x5A; 24][..]),
            "acknowledged key {k} lost to the dead disk"
        );
    }
    drop(s);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn page write (power cut mid-`pwrite`) leaves a mangled image in
/// the page file. The WAL still holds the full base + delta chain, so the
/// reopened store must serve every acknowledged key — the checksum
/// detects the torn image and recovery rebuilds it.
#[test]
fn torn_page_write_is_repaired_from_the_wal_on_reopen() {
    let dir = tmpdir("torn");
    let mut committed = BTreeMap::new();
    {
        let db = Db::open(cfg(&dir)).unwrap();
        db.durable().unwrap().fault().set_plan(
            FaultPlan::new()
                .fail_nth(FaultSite::PageWrite, 2, FaultKind::TornWrite(333))
                .fail_nth(FaultSite::PageWrite, 7, FaultKind::TornWrite(41)),
        );
        let mut s = db.session();
        for i in 0..300u64 {
            let v = vec![(i % 251) as u8; 16 + (i % 32) as usize];
            // The torn write fires on an eviction under the op or inside a
            // sync; either way the op's own WAL record already committed.
            match s.put(i % KEYS, &v) {
                Ok(_) => {
                    committed.insert(i % KEYS, v);
                }
                Err(e) => assert!(store_err(&e).is_some(), "untyped error: {e}"),
            }
        }
        drop(s);
        let _ = db.sync(); // may fail on the second torn write — typed either way
    }
    let db = Db::open(cfg(&dir)).unwrap();
    db.verify().unwrap().assert_ok();
    let mut s = db.session();
    for (&k, v) in &committed {
        assert_eq!(
            s.get(k).unwrap().as_deref(),
            Some(v.as_slice()),
            "key {k}: torn page not repaired from the WAL"
        );
    }
    drop(s);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bit rot on a **cold** page — flipped in the I/O path while the disk
/// image stays clean — must surface as a typed `ChecksumMismatch` on the
/// very read that returns it, and must not poison anything: re-reading
/// the same page with the fault gone succeeds.
#[test]
fn bit_flip_on_a_cold_page_surfaces_as_checksum_mismatch() {
    let dir = tmpdir("bitflip");
    {
        let db = Db::open(cfg(&dir)).unwrap();
        let mut s = db.session();
        for i in 0..KEYS {
            s.put(i, &[0xC3; 32]).unwrap();
        }
        drop(s);
        // Cut the log so the reopen below replays (almost) nothing and
        // the tree pages are only on disk, stamped.
        db.checkpoint().unwrap();
        db.sync().unwrap();
    }
    let db = Db::open(cfg(&dir)).unwrap();
    // Every frame is cold now. The very next page-file read comes back
    // with one bit flipped.
    db.durable()
        .unwrap()
        .fault()
        .set_plan(FaultPlan::new().fail_nth(FaultSite::PageRead, 1, FaultKind::BitFlip(777)));
    let mut s = db.session();
    let mut mismatches = 0;
    for k in 0..KEYS {
        match s.get(k) {
            Ok(v) => assert_eq!(v.as_deref(), Some(&[0xC3; 32][..])),
            Err(e) => {
                assert!(
                    matches!(store_err(&e), Some(StoreError::ChecksumMismatch { .. })),
                    "a flipped bit must surface as ChecksumMismatch, got {e}"
                );
                mismatches += 1;
            }
        }
    }
    assert_eq!(
        mismatches, 1,
        "exactly one read drew the flipped bit and must have been caught"
    );
    assert!(
        db.store().stats().snapshot().checksum_failures >= 1,
        "the mismatch must be counted"
    );
    // The disk image was never corrupted: with the fault exhausted, every
    // key reads back clean.
    for k in 0..KEYS {
        assert_eq!(s.get(k).unwrap().as_deref(), Some(&[0xC3; 32][..]));
    }
    drop(s);
    db.verify().unwrap().assert_ok();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fsyncgate rule: one failed WAL fsync — even a "transient" one —
/// poisons the store. No commit, sync or checkpoint succeeds afterwards
/// (never a silent fsync retry), and a clean reopen recovers exactly the
/// pre-failure durable prefix.
#[test]
fn fsync_failure_is_sticky_and_poisons_the_store() {
    let dir = tmpdir("poison");
    const PRELOAD: u64 = 24;
    {
        let db = Db::open(cfg(&dir)).unwrap();
        let mut s = db.session();
        for i in 0..PRELOAD {
            s.put(i, &i.to_le_bytes()).unwrap();
        }
        // A *transient* fsync fault: a naive store would retry the fsync
        // and carry on — which is exactly the data-loss bug (the kernel
        // may already have dropped the dirty pages). Ours must poison.
        db.durable()
            .unwrap()
            .fault()
            .set_plan(FaultPlan::new().fail_nth(FaultSite::WalFsync, 1, FaultKind::Transient));
        let e = s.put(100, b"lost").unwrap_err();
        assert_eq!(
            store_err(&e),
            Some(&StoreError::Poisoned),
            "the failing commit itself reports the poisoning"
        );
        // Sticky: every later commit and maintenance op refuses.
        for (what, r) in [
            ("second put", s.put(101, b"x").map(|_| ())),
            ("delete", s.delete(0).map(|_| ())),
            ("sync", db.sync()),
            ("checkpoint", db.checkpoint()),
        ] {
            let e = r.unwrap_err();
            assert_eq!(
                store_err(&e),
                Some(&StoreError::Poisoned),
                "{what} after a failed fsync must report Poisoned, got {e}"
            );
        }
        assert!(db.store().health().is_poisoned());
        drop(s);
    }
    // Reopen: recovery re-establishes the durable prefix from the log.
    let db = Db::open(cfg(&dir)).unwrap();
    assert!(!db.store().health().is_poisoned(), "reopen starts clean");
    db.verify().unwrap().assert_ok();
    let mut s = db.session();
    for i in 0..PRELOAD {
        assert_eq!(
            s.get(i).unwrap().as_deref(),
            Some(&i.to_le_bytes()[..]),
            "durable prefix key {i} lost"
        );
    }
    // The put whose fsync failed is *undecided*: its record reached the
    // log file but was never acknowledged durable — recovery may or may
    // not find it on a real disk. Whatever it holds must read cleanly.
    let undecided = s.get(100).unwrap();
    assert!(undecided.is_none() || undecided.as_deref() == Some(b"lost".as_slice()));
    // Everything *after* the poisoning provably never reached the log:
    // the append gate rejected it before an LSN was claimed.
    assert_eq!(
        s.get(101).unwrap(),
        None,
        "post-poison put must not survive"
    );
    assert_eq!(
        s.get(0).unwrap().as_deref(),
        Some(&0u64.to_le_bytes()[..]),
        "the rejected delete must not have happened"
    );
    s.put(200, b"alive").unwrap();
    drop(s);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Poisoning under group commit: one failed fsync fails every
/// committer waiting on the monitor and every thread that commits
/// afterwards (the monitor's failure is sticky, and the store is
/// poisoned), and each thread's acknowledged prefix survives reopen.
#[test]
fn failed_pipeline_batch_fans_out_to_all_committers() {
    let dir = tmpdir("pipeline-poison");
    const WRITERS: u64 = 3;
    let mut c = DbConfig::durable(&dir).with_k(4);
    c.page_size = 1024;
    c.pool_frames = 32;
    let acked: Vec<Vec<u64>>;
    {
        let db = Db::open(c.clone()).unwrap();
        // Let the 30th fsync fail: well into the concurrent run, so the
        // failing batch almost certainly carries more than one committer.
        db.durable()
            .unwrap()
            .fault()
            .set_plan(FaultPlan::new().fail_nth(FaultSite::WalFsync, 30, FaultKind::Permanent));
        acked = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let db = &db;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        let mut s = db.session();
                        for i in 0..5_000u64 {
                            let key = w * 10_000 + i;
                            match s.put(key, &i.to_le_bytes()) {
                                Ok(_) => mine.push(key),
                                Err(e) => {
                                    assert!(
                                        store_err(&e).is_some(),
                                        "untyped error in writer {w}: {e}"
                                    );
                                    break;
                                }
                            }
                        }
                        // After the batch failure the store is poisoned
                        // for this thread too — no thread runs to 5000.
                        assert!(mine.len() < 5_000, "writer {w} never saw the failure");
                        let e = s.put(w, b"again").unwrap_err();
                        assert_eq!(store_err(&e), Some(&StoreError::Poisoned));
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(db.store().health().is_poisoned());
    }
    let db = Db::open(c).unwrap();
    db.verify().unwrap().assert_ok();
    let mut s = db.session();
    for (w, keys) in acked.iter().enumerate() {
        for &k in keys {
            assert!(
                s.get(k).unwrap().is_some(),
                "writer {w}: acknowledged key {k} lost to the failed batch"
            );
        }
    }
    drop(s);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a WAL-append failure *inside* the root-split publish
/// sequence (sibling → demoted root → new root → prime block) used to
/// strand the tree with no root anywhere — the prime still said height
/// `h`, no node carried the root bit, and the next overflow of the top
/// level spun its whole restart budget waiting (§3.3) for a level nobody
/// would ever publish. The split now rolls the old root back under its
/// own lock, so whichever write the fault lands on, later operations
/// proceed normally.
#[test]
fn wal_fault_inside_a_root_split_rolls_back_cleanly() {
    // k = 4 → the root leaf overflows on its 9th distinct key. `nth`
    // sweeps a single transient fault across every WAL append the
    // overflowing put makes (heap record, sibling, demotion, new root,
    // prime block); the largest values fall past the sequence and double
    // as fault-free controls.
    for nth in 1..=6u64 {
        let dir = tmpdir("rootsplit");
        let db = Db::open(cfg(&dir)).unwrap();
        let mut s = db.session();
        for k in 0..8u64 {
            s.put(k, &k.to_le_bytes()).unwrap();
        }
        db.durable()
            .unwrap()
            .fault()
            .set_plan(FaultPlan::new().fail_nth(FaultSite::WalAppend, nth, FaultKind::Transient));
        let overflow = s.put(100, b"overflow");
        if let Err(e) = &overflow {
            assert!(
                store_err(e).is_some(),
                "nth {nth}: untyped overflow error: {e}"
            );
        }
        db.durable().unwrap().fault().clear_plan();
        // The disk behaves again: the tree must not be wedged. This put
        // lands in the same (possibly just rolled-back) root leaf and
        // forces the split to run again, to completion this time.
        s.put(101, b"after").unwrap();
        for k in 0..8u64 {
            assert_eq!(
                s.get(k).unwrap().as_deref(),
                Some(&k.to_le_bytes()[..]),
                "nth {nth}: preloaded key {k} lost by the rolled-back split"
            );
        }
        assert_eq!(s.get(101).unwrap().as_deref(), Some(b"after".as_slice()));
        drop(s);
        drop(db);
        // And the on-disk state (orphaned split pages included) reopens
        // verifiable.
        let db = Db::open(cfg(&dir)).unwrap();
        db.verify().unwrap().assert_ok();
        let mut s = db.session();
        assert_eq!(s.get(101).unwrap().as_deref(), Some(b"after".as_slice()));
        drop(s);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Regression: a put whose index update fails *after* its leaf write
/// landed — a leaf split whose parent update hits a failed WAL append —
/// used to free its new record as an "undo" while the leaf already pointed
/// at it. The key then failed every read (`TooManyRestarts` over a
/// dangling id), and reopen refused the directory (`leaf holds a dangling
/// record id`). `nth` sweeps one transient append fault across every
/// record a splitting put makes, at every preload size around the first
/// non-root leaf split.
#[test]
fn wal_fault_after_a_leaf_split_keeps_the_record_the_leaf_points_at() {
    let mut landed = 0;
    for preload in 9..=16u64 {
        for nth in 1..=6u64 {
            let dir = tmpdir("leafsplit");
            let db = Db::open(cfg(&dir)).unwrap();
            let mut s = db.session();
            for k in 0..preload {
                s.put(k, &k.to_le_bytes()).unwrap();
            }
            let plan = FaultPlan::new().fail_nth(FaultSite::WalAppend, nth, FaultKind::Transient);
            db.durable().unwrap().fault().set_plan(plan);
            let failed = s.put(preload, b"splitter").is_err();
            db.durable().unwrap().fault().clear_plan();
            // Undecided when it failed, but never dangling.
            let got = s.get(preload).unwrap();
            assert!(
                got.is_none() || got.as_deref() == Some(b"splitter".as_slice()),
                "preload {preload}, nth {nth}: wrong value"
            );
            landed += u32::from(failed && got.is_some());
            drop(s);
            drop(db);
            let db = Db::open(cfg(&dir)).unwrap();
            db.verify().unwrap().assert_ok();
            assert_eq!(
                db.get(preload).unwrap(),
                got,
                "preload {preload}, nth {nth}"
            );
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert!(landed > 0, "no fault landed after a leaf write");
}
