//! Theorems 1 and 2 as executable checks.
//!
//! * E7 — deadlock freedom. Paper claims: insertions (one lock) +
//!   deletions + any number of three-lock compression processes are
//!   **deadlock free** — insert/compress lock arcs go only downward or
//!   left-to-right among children of a common (locked) parent, so no cycle
//!   can form. Method: small nodes (k=2, maximal split/merge churn),
//!   zipfian keys (contention), 16 mutator threads + 4 compression
//!   workers, with a watchdog asserting global progress never stalls.
//! * E8 — serializability of the logical data. Paper claim: every
//!   concurrent schedule of searches, insertions and deletions (with
//!   compressions running) is *data equivalent to a serial schedule*.
//!   Executable form: every recorded concurrent history must admit a
//!   per-key linearization consistent with real time and set semantics.
//!   Method: record complete histories under contention for all three
//!   trees across several seeds (a fresh tree per history) and run the
//!   Wing–Gong checker on each.

use crate::{all_indexes, banner, quick, run_config, sagiv};
use blink_baselines::ConcurrentIndex;
use blink_harness::linearize::check_history;
use blink_harness::runner::{preload_keys, run_recorded};
use blink_harness::workload::{KeyDist, Mix, OpGenerator, OpKind};
use blink_harness::Table;
use sagiv_blink::CompressorPool;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub fn exp7() {
    banner(
        "E7: deadlock freedom under maximal churn",
        "insertions lock one node, compressions three; no cycle can form (Thm 1/2)",
    );
    let tree = sagiv(2);
    let index: Arc<dyn ConcurrentIndex> = Arc::clone(&tree) as _;
    let pool = CompressorPool::spawn(&tree, 4);

    let run_for = Duration::from_millis(if quick() { 800 } else { 8_000 });
    let threads = 16;
    let progress = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let mut handles = vec![];
    for t in 0..threads {
        let index = Arc::clone(&index);
        let progress = Arc::clone(&progress);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut session = index.session();
            let mut gen = OpGenerator::new(
                20_000,
                KeyDist::Zipf { theta: 0.9 },
                Mix::CHURN,
                7 + t as u64,
            );
            let mut ops = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let op = gen.next_op();
                match op.kind {
                    OpKind::Insert => {
                        index.insert(&mut session, op.key, op.key).unwrap();
                    }
                    OpKind::Delete => {
                        index.delete(&mut session, op.key).unwrap();
                    }
                    OpKind::Search => {
                        index.search(&mut session, op.key).unwrap();
                    }
                }
                ops += 1;
                if ops.is_multiple_of(64) {
                    progress.fetch_add(64, Ordering::Relaxed);
                }
            }
            ops
        }));
    }

    // Watchdog: progress must advance every 500ms; a deadlock would freeze it.
    let t0 = Instant::now();
    let mut last = 0u64;
    let mut max_stall = Duration::ZERO;
    let mut last_change = Instant::now();
    while t0.elapsed() < run_for {
        std::thread::sleep(Duration::from_millis(50));
        let now = progress.load(Ordering::Relaxed);
        if now != last {
            last = now;
            last_change = Instant::now();
        } else {
            max_stall = max_stall.max(last_change.elapsed());
            assert!(
                last_change.elapsed() < Duration::from_secs(5),
                "no progress for 5s: deadlock or livelock"
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    pool.stop();

    // Quiesce and verify full structural integrity.
    let mut s = tree.session();
    tree.compress_drain(&mut s, 1_000_000).unwrap();
    tree.compress_to_fixpoint(&mut s, 128).unwrap();
    tree.reclaim().unwrap();
    let rep = tree.verify(false).unwrap();
    rep.assert_ok();

    let c = tree.counters().snapshot();
    let snap = tree.store().stats().snapshot();
    let waits = &snap.lock_wait_hist;
    let mean_wait_us = waits.mean() / 1000.0;
    let rows = [
        ("threads (mutators + compressors)", format!("{threads} + 4")),
        ("wall time", format!("{:.1}s", run_for.as_secs_f64())),
        ("ops completed", total.to_string()),
        (
            "splits / merges / redistributes",
            format!("{} / {} / {}", c.splits, c.merges, c.redistributes),
        ),
        (
            "root splits / root collapses",
            format!("{} / {}", c.root_splits, c.root_collapses),
        ),
        ("lock acquisitions", snap.lock_acquires.to_string()),
        ("contended acquisitions", waits.count().to_string()),
        ("mean contended wait", format!("{mean_wait_us:.1}us")),
        ("longest progress stall observed", format!("{max_stall:?}")),
        ("deadlocks", "0 (watchdog never fired)".into()),
        ("post-quiesce verification", "OK".into()),
    ];
    let mut table = Table::new(vec!["metric", "value"]);
    for (metric, value) in rows {
        table.row(vec![metric.to_string(), value]);
    }
    print!("{table}");
}

/// Records one history per seed, each on a fresh index from `index`, and
/// checks every one; returns the events checked.
fn check_histories(
    label: &str,
    seeds: &[u64],
    mix: Mix,
    index: impl Fn() -> (Arc<dyn ConcurrentIndex>, Option<CompressorPool>),
) -> u64 {
    let mut events_total = 0u64;
    for &seed in seeds {
        let (index, pool) = index();
        // A key space hot enough to race, cool enough to check.
        let cfg = run_config(3_000, 30_000, KeyDist::Uniform, mix, 10_000, seed);
        let initial = preload_keys(&cfg);
        let (r, events) = run_recorded(&index, &cfg);
        if let Some(p) = pool {
            p.stop();
        }
        assert_eq!(r.errors, 0);
        events_total += events.len() as u64;
        check_history(&events, &initial)
            .unwrap_or_else(|e| panic!("{label} seed {seed}: NOT linearizable: {e}"));
    }
    events_total
}

pub fn exp8() {
    banner(
        "E8: histories are data-equivalent to a serial schedule",
        "per-key linearizability of all recorded concurrent histories",
    );
    let k = 4;
    let seeds: Vec<u64> = if quick() {
        vec![11, 12]
    } else {
        (11..19).collect()
    };
    let mut table = Table::new(vec!["algorithm", "histories", "events checked", "result"]);
    let mut row = |label: &str, events: u64| {
        table.row(vec![
            label.to_string(),
            seeds.len().to_string(),
            events.to_string(),
            "linearizable".to_string(),
        ]);
    };
    for (i, name) in ["sagiv", "lehman-yao", "top-down"].into_iter().enumerate() {
        let events = check_histories(name, &seeds, Mix::BALANCED, || {
            (all_indexes(k).swap_remove(i), None)
        });
        row(name, events);
    }
    // Sagiv again, with live compression workers racing every history
    // (small nodes: compression happens constantly).
    let events = check_histories("sagiv+compress", &seeds, Mix::CHURN, || {
        let tree = sagiv(2);
        let pool = CompressorPool::spawn(&tree, 2);
        (tree as _, Some(pool))
    });
    row("sagiv + 2 compressors", events);
    print!("{table}");
}
