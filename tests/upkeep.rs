//! A `Db` runs at most one background thread: its store's loop. A durable
//! `Db` always has it (the flusher is a step of it, and so is the §5 step
//! its underflow policy asks for); an in-memory `Db` has it only when it
//! compresses. Threads are counted by name (`blink-*`) from
//! `/proc/self/task`, so this binary holds this one test and no other
//! test's threads are counted.

use sagiv_blink_repro::blink::UnderflowPolicy;
use sagiv_blink_repro::db::{Db, DbConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// This process's threads whose name starts with `blink-`.
fn blink_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("blink-"))
        .count()
}

/// Waits (bounded) for the count to reach `want`: a durable store's loop
/// that held the store's last `Arc` when its `Db` dropped ends the store
/// on its own thread, and exits just after the drop returns.
fn settles_at(want: usize) -> usize {
    let t0 = Instant::now();
    while blink_threads() != want && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(2));
    }
    blink_threads()
}

fn with_policy(mut cfg: DbConfig, policy: UnderflowPolicy) -> DbConfig {
    cfg.underflow_policy = policy;
    cfg
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blink-upkeep-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_db_runs_at_most_one_background_thread() {
    assert_eq!(blink_threads(), 0);
    let (ignore, enqueue) = (tmpdir("ignore"), tmpdir("enqueue"));
    let cases = [
        (
            "durable, Ignore",
            DbConfig::durable(&ignore),
            UnderflowPolicy::Ignore,
            1,
        ),
        (
            "durable, Enqueue",
            DbConfig::durable(&enqueue),
            UnderflowPolicy::Enqueue,
            1,
        ),
        (
            "in memory, Ignore",
            DbConfig::in_memory(),
            UnderflowPolicy::Ignore,
            0,
        ),
        (
            "in memory, Enqueue",
            DbConfig::in_memory(),
            UnderflowPolicy::Enqueue,
            1,
        ),
    ];
    for (name, cfg, policy, threads) in cases {
        let db = Db::open(with_policy(cfg.with_k(4), policy)).unwrap();
        // Work for every step: deletes that underflow leaves, and a sync.
        let mut s = db.session();
        for i in 0..500u64 {
            s.put(i, &[1u8; 64]).unwrap();
        }
        for i in 0..400u64 {
            s.delete(i).unwrap();
        }
        drop(s);
        db.sync().unwrap();
        assert_eq!(blink_threads(), threads, "{name}");
        drop(db);
        assert_eq!(settles_at(0), 0, "{name}: the dropped Db left a thread");
    }
    std::fs::remove_dir_all(&ignore).unwrap();
    std::fs::remove_dir_all(&enqueue).unwrap();
}
