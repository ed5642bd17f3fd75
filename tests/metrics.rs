//! Tier-1 coverage for the per-layer metrics substrate: windowed
//! snapshot/delta semantics under concurrent writers, percentile edge
//! cases of the shared histogram, deterministic latch-contention
//! recording, and a `Db::metrics()` smoke over a contended durable
//! workload.

use blink_db::{Db, DbConfig};
use blink_durable::FsyncPolicy;
use blink_pagestore::{
    HistSnapshot, Page, PageStore, StoreConfig, StoreStats, WaitHist, WriteIntent,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blink-metrics-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ----------------------------------------------------------------------
// Histogram percentile edge cases.
// ----------------------------------------------------------------------

#[test]
fn percentile_of_empty_window_is_zero() {
    let h = HistSnapshot::new();
    assert_eq!(h.percentile(50.0), 0);
    assert_eq!(h.percentile(100.0), 0);
    assert_eq!(h.max(), 0);
    // The delta of two identical non-empty snapshots is an empty window.
    let w = WaitHist::new();
    w.record(1234);
    let a = w.snapshot();
    let d = w.snapshot().delta(&a);
    assert_eq!(d.count(), 0);
    assert_eq!(d.percentile(99.0), 0);
    assert_eq!(d.min(), 0);
}

#[test]
fn percentile_of_single_sample_is_that_sample() {
    let mut h = HistSnapshot::new();
    h.record(7_777);
    for p in [0.1, 50.0, 99.0, 100.0] {
        let got = h.percentile(p);
        assert!(
            got <= 7_777 && got as f64 >= 7_777.0 * 0.93,
            "p{p} = {got} strays from the only sample"
        );
    }
    assert_eq!(h.percentile(100.0), 7_777, "p100 is the exact max");
    assert_eq!(h.min(), 7_777);
}

#[test]
fn open_last_bucket_clamps_to_exact_max() {
    let mut h = HistSnapshot::new();
    h.record(u64::MAX);
    h.record(u64::MAX - 1);
    assert_eq!(h.count(), 2);
    assert_eq!(h.max(), u64::MAX);
    assert_eq!(h.percentile(100.0), u64::MAX);
    // Every percentile of an all-huge distribution stays in range: the
    // open last bucket must not report a representative beyond the max.
    assert!(h.percentile(50.0) >= 1 << 62);
}

// ----------------------------------------------------------------------
// Concurrent-writer snapshot/delta windowing.
// ----------------------------------------------------------------------

#[test]
fn concurrent_writers_window_cleanly() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;
    let h = WaitHist::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let h = &h;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t * 1_000 + i);
                }
            });
        }
    });
    let mid = h.snapshot();
    assert_eq!(mid.count(), THREADS * PER_THREAD, "no sample lost");
    // Second round; the delta must contain exactly the second round.
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let h = &h;
            scope.spawn(move || {
                for _ in 0..PER_THREAD {
                    h.record(1_000_000);
                }
            });
        }
    });
    let d = h.snapshot().delta(&mid);
    assert_eq!(d.count(), THREADS * PER_THREAD);
    assert_eq!(d.sum(), THREADS * PER_THREAD * 1_000_000);
    // All second-round samples share one bucket, so the windowed
    // percentiles are that bucket's representative (within one bucket of
    // the true value) even though the *cumulative* histogram is bimodal.
    let p50 = d.percentile(50.0);
    assert!(
        (940_000..=1_000_000).contains(&p50),
        "windowed p50 {p50} must reflect only the second round"
    );
}

#[test]
fn db_metrics_delta_windows_op_histograms() {
    let db = Db::open(DbConfig::in_memory().with_k(8)).unwrap();
    let mut s = db.session();
    for i in 0..500u64 {
        s.put(i, b"window-a").unwrap();
    }
    let m0 = db.metrics();
    assert_eq!(m0.put.count(), 500);
    for i in 0..200u64 {
        s.put(i, b"window-b").unwrap();
        s.delete(i).unwrap();
    }
    let d = db.metrics().delta(&m0);
    assert_eq!(d.put.count(), 200, "delta holds only the window's puts");
    assert_eq!(d.delete.count(), 200);
    assert_eq!(d.get.count(), 0);
    assert!(d.put.percentile(99.0) >= d.put.percentile(50.0));
}

#[test]
fn db_gets_from_two_threads_count_exactly_in_a_window() {
    // Each thread records its ops into its own histogram stripe; the
    // window's merged count must still be every op.
    const N: u64 = 3_000;
    let db = Db::open(DbConfig::in_memory().with_k(8)).unwrap();
    {
        let mut s = db.session();
        for i in 0..100u64 {
            s.put(i, b"striped").unwrap();
        }
    }
    let m0 = db.metrics();
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let (db, start) = (&db, &start);
            scope.spawn(move || {
                let mut s = db.session();
                start.wait();
                for i in 0..N {
                    assert!(s.get((i + t) % 100).unwrap().is_some());
                }
            });
        }
    });
    let d = db.metrics().delta(&m0);
    assert_eq!(d.get.count(), 2 * N);
    assert_eq!(d.put.count(), 0);
    assert!(d.get.sum() > 0);
}

// ----------------------------------------------------------------------
// Deterministic latch contention.
// ----------------------------------------------------------------------

#[test]
fn held_page_write_records_latch_wait() {
    let store = PageStore::new(StoreConfig::with_page_size(256));
    let pid = store.alloc().unwrap();
    store.put(pid, &Page::zeroed(256)).unwrap();
    let before = store.stats().snapshot();
    let release = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        // Hold the frame's write latch until the reader is known blocked.
        let w = store.write_page(pid, WriteIntent::Update).unwrap();
        let reader = {
            let store = &store;
            let release = Arc::clone(&release);
            scope.spawn(move || {
                let g = store.read(pid).unwrap();
                assert!(
                    release.load(Ordering::SeqCst),
                    "reader got the latch while the writer still held it"
                );
                drop(g);
            })
        };
        // Give the reader ample time to reach (and block on) the latch.
        std::thread::sleep(std::time::Duration::from_millis(50));
        release.store(true, Ordering::SeqCst);
        drop(w);
        reader.join().unwrap();
    });
    let d = store.stats().snapshot().delta(&before);
    assert!(
        d.counter("latch_contended").unwrap() >= 1,
        "blocked reader must count as a contended latch acquisition"
    );
    let h = d.hist("latch_wait_hist").unwrap();
    assert!(h.count() >= 1);
    assert!(
        h.max() >= 10_000_000,
        "the recorded wait must cover most of the 50ms hold (got {}ns)",
        h.max()
    );
    assert_eq!(d.counter("latch_wait_ns"), Some(h.sum()));
}

// ----------------------------------------------------------------------
// Db::metrics() smoke: every layer populated by a contended durable run.
// ----------------------------------------------------------------------

#[test]
fn db_metrics_smoke_populates_every_layer() {
    let dir = tmpdir("smoke");
    let mut cfg = DbConfig::durable(&dir).with_k(8);
    cfg.fsync = FsyncPolicy::Always;
    let db = Arc::new(Db::open(cfg).unwrap());

    // Twice as many writers as heap shards share one WAL append mutex
    // (held for each record's write, never across an fsync) and the
    // shards, so every round some two writers share a shard and both
    // layers occasionally contend. Batches repeat until both layers have
    // observably contended (bounded — zero contention across this many
    // rounds would mean the instrumentation is broken).
    let writers = 2 * db.heap().shard_count() as u64;
    let mut rounds = 0;
    loop {
        std::thread::scope(|scope| {
            for t in 0..writers {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let mut s = db.session();
                    let base = (rounds * writers + t) * 1_000;
                    for i in 0..150u64 {
                        s.put(base + i, &[t as u8; 48]).unwrap();
                        if i % 3 == 0 {
                            s.get(base + i).unwrap();
                        }
                        if i % 10 == 9 {
                            s.delete(base + i).unwrap();
                            let _ = s.scan(base, base + i).count();
                        }
                    }
                });
            }
        });
        rounds += 1;
        let m = db.metrics();
        let appended = m.store.hist("wal_append_wait_hist").unwrap().count() > 0;
        let heaped = m.store.hist("heap_wait_hist").unwrap().count() > 0;
        if (appended && heaped) || rounds >= 25 {
            break;
        }
    }

    let m = db.metrics();
    // Every end-to-end op histogram saw traffic.
    assert!(m.put.count() > 0, "put hist empty");
    assert!(m.get.count() > 0, "get hist empty");
    assert!(m.delete.count() > 0, "delete hist empty");
    let hops = m.tree.scan_hop_hist.count();
    assert!(hops > 0, "scan-hop hist empty");
    assert_eq!(m.tree.counter("scan_hops"), Some(hops));
    // The write path's own layers saw traffic.
    assert!(m.store.wal_records > 0);
    assert!(m.store.hist("fsync_hist").unwrap().count() > 0);
    assert_eq!(
        m.store.counter("wal_fsyncs").unwrap(),
        m.store.hist("fsync_hist").unwrap().count()
    );
    assert!(
        m.store.hist("wal_append_wait_hist").unwrap().count() > 0,
        "{writers} fsyncing writers never contended the WAL append mutex in {rounds} rounds"
    );
    assert!(
        m.store.hist("heap_wait_hist").unwrap().count() > 0,
        "{writers} writers never contended a heap shard in {rounds} rounds"
    );
    // Report and JSON render without panicking and carry the data.
    let report = m.report();
    assert!(report.contains("ops (end-to-end latency):"));
    assert!(report.contains("wal_append_wait"));
    let json = m.to_json();
    assert!(json.contains("\"counters\""));
    assert!(json.contains("\"wal_fsyncs\""));
    assert!(json.contains("\"put\": {\"n\": "));

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// Names looked up by string: a dropped one breaks no build, so check here.
// ----------------------------------------------------------------------

/// The store counters the benchmark's `bench` and `bench-trace` resolve
/// by name at run time (a miss prints `null` in a ledger row).
const RULER_NAMES: [&str; 24] = [
    "cache_hits",
    "cache_misses",
    "dirty_writebacks",
    "flusher_backpressure_ns",
    "flusher_pages_written",
    "flusher_wakeups",
    "frames_evicted",
    "gets",
    "heap_shard_wait_ns",
    "heap_slots_reused",
    "latch_wait_ns",
    "lock_wait_ns",
    "optimistic_read_fallbacks",
    "optimistic_reads",
    "pool_wait_ns",
    "wal_append_wait_ns",
    "wal_bytes",
    "wal_commit_wait_ns",
    "wal_fsync_ns",
    "wal_fsyncs",
    "wal_group_commit_records",
    "wal_group_commits",
    "wal_pipeline_depth",
    "wal_records",
];

/// Every store counter name `COUNTER_NAMES` listed when each wait was
/// still kept as two stored counters beside its histogram.
const STORE_NAMES: [&str; 54] = [
    "gets",
    "puts",
    "allocs",
    "frees",
    "lock_acquires",
    "lock_contended",
    "lock_wait_ns",
    "rw_shared_acquires",
    "rw_exclusive_acquires",
    "rw_contended",
    "rw_wait_ns",
    "cache_hits",
    "cache_misses",
    "frames_evicted",
    "dirty_writebacks",
    "pins",
    "pool_bypasses",
    "pool_contended",
    "pool_wait_ns",
    "latch_contended",
    "latch_wait_ns",
    "wal_records",
    "wal_bytes",
    "wal_put_deltas",
    "wal_put_moves",
    "wal_put_full_images",
    "wal_delta_fallback_first_touch",
    "wal_delta_fallback_large",
    "recovery_deltas_skipped",
    "wal_fsyncs",
    "wal_fsync_ns",
    "wal_group_commits",
    "wal_group_commit_records",
    "wal_append_contended",
    "wal_append_wait_ns",
    "wal_commit_waits",
    "wal_commit_wait_ns",
    "recovery_replayed",
    "heap_slots_reused",
    "heap_pages_recycled",
    "heap_pages_released",
    "heap_double_frees",
    "heap_shard_contended",
    "heap_shard_wait_ns",
    "optimistic_reads",
    "optimistic_read_fallbacks",
    "wal_pipeline_depth",
    "flusher_pages_written",
    "flusher_wakeups",
    "flusher_backpressure_ns",
    "io_retries",
    "io_giveups",
    "flusher_errors",
    "checksum_failures",
];

/// The tree counters `to_json` has always listed under `"tree"`.
const TREE_NAMES: [&str; 14] = [
    "splits",
    "root_splits",
    "merges",
    "redistributes",
    "root_collapses",
    "enqueues",
    "requeues",
    "discards",
    "waits",
    "reclaimed",
    "recoveries",
    "restarts",
    "link_follows",
    "scan_hops",
];

/// Each derived store name: the histogram it reads, and whether it is the
/// histogram's `sum()` (else its `count()`).
const DERIVED: [(&str, &str, bool); 17] = [
    ("lock_contended", "lock_wait_hist", false),
    ("lock_wait_ns", "lock_wait_hist", true),
    ("rw_contended", "rw_wait_hist", false),
    ("rw_wait_ns", "rw_wait_hist", true),
    ("pool_contended", "pool_wait_hist", false),
    ("pool_wait_ns", "pool_wait_hist", true),
    ("latch_contended", "latch_wait_hist", false),
    ("latch_wait_ns", "latch_wait_hist", true),
    ("heap_shard_contended", "heap_wait_hist", false),
    ("heap_shard_wait_ns", "heap_wait_hist", true),
    ("wal_append_contended", "wal_append_wait_hist", false),
    ("wal_append_wait_ns", "wal_append_wait_hist", true),
    ("wal_commit_waits", "wal_commit_wait_hist", false),
    ("wal_commit_wait_ns", "wal_commit_wait_hist", true),
    ("wal_fsyncs", "fsync_hist", false),
    ("wal_fsync_ns", "fsync_hist", true),
    ("flusher_backpressure_ns", "flusher_backpressure_hist", true),
];

#[test]
fn every_name_the_ruler_looks_up_resolves() {
    let s = StoreStats::default();
    let hists = [
        &s.lock_wait_hist,
        &s.rw_wait_hist,
        &s.pool_wait_hist,
        &s.latch_wait_hist,
        &s.heap_wait_hist,
        &s.wal_append_wait_hist,
        &s.wal_commit_wait_hist,
        &s.fsync_hist,
        &s.flusher_backpressure_hist,
        &s.io_retry_backoff_hist,
    ];
    // A different number of samples and total in every histogram, before
    // and inside the window the ruler measures (it reads deltas).
    let record = |round: u64| {
        for (i, h) in (1..).zip(hists) {
            for j in 0..i * round {
                h.record(100 * i + j);
            }
        }
    };
    record(1);
    let before = s.snapshot();
    record(2);
    for snap in [s.snapshot(), s.snapshot().delta(&before)] {
        for name in RULER_NAMES.iter().chain(&STORE_NAMES) {
            assert!(snap.counter(name).is_some(), "{name} does not resolve");
        }
        for (name, hist, sum) in DERIVED {
            let h = snap.hist(hist).unwrap();
            assert!(h.count() > 0, "{hist} is empty");
            let want = if sum { h.sum() } else { h.count() };
            assert_eq!(snap.counter(name), Some(want), "{name} vs {hist}");
        }
    }

    // `Db::metrics().to_json()` keeps every store and tree key.
    let db = Db::open(DbConfig::in_memory()).unwrap();
    let json = db.metrics().to_json();
    for name in STORE_NAMES.iter().chain(&TREE_NAMES) {
        assert!(
            json.contains(&format!("\n    \"{name}\": ")),
            "{name} missing"
        );
    }
    let c = db.tree().counters().snapshot();
    for name in TREE_NAMES {
        assert!(c.counter(name).is_some(), "tree counter {name}");
    }
}
