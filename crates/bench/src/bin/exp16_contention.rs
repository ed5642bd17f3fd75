//! E16 — write-path contention attribution: where do 8 put threads spend
//! their time?
//!
//! `BENCH_kv_scalability.json` shows put throughput flat from 1 → 8
//! threads. The paper frames its claims in locks obtained and lock
//! waiting; this experiment turns our own write path into the same kind of
//! ledger. Every synchronization point now records *contended* wait time
//! into a per-layer [`blink_pagestore::WaitHist`] (buffer-pool shard
//! locks, frame latches, page-slot locks, paper rw-locks, heap shard
//! allocators, the WAL append mutex, group-commit windows, fsync), so a
//! run's total thread-time — `threads × wall` — can be split into named
//! categories plus "other" (useful work and anything untimed):
//!
//! * **Part 1 (in-memory put sweep):** 1–8 threads, 100% puts. On this
//!   class of host the sweep explains the flat curve directly: the named
//!   wait categories grow with thread count, and whatever is left is CPU.
//! * **Part 2 (durable group-commit put sweep):** same sweep with a WAL;
//!   the ledger gains wal_append / commit-window / fsync columns.
//! * **Part 3 (mixed 8-thread run):** the balanced mix, as a cross-check
//!   that read-heavy traffic shifts the breakdown away from write locks.
//! * **Part 4 (metrics overhead):** the same 8-thread put run with
//!   [`blink_db::DbConfig::metrics`] off is the baseline; the measured
//!   overhead of per-op timing must stay within 5%.
//!
//! Emits `BENCH_contention.json` with the full attribution per run plus
//! `metrics_overhead_pct`.

use blink_bench::{banner, quick};
use blink_db::{Db, DbConfig, MetricsSnapshot};
use blink_harness::kv::{preload_kv, run_kv, KvMix, KvRunConfig};
use blink_harness::Table;
use blink_workload::KeyDist;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// One run's thread-time ledger, all in nanoseconds summed across threads.
/// The categories are disjoint per thread: a thread blocked on the WAL
/// append mutex is not simultaneously inside fsync, and the group-commit
/// window wait has the fsync it contains subtracted out.
struct Ledger {
    total: u64,
    wal_append: u64,
    wal_commit: u64,
    fsync: u64,
    latch: u64,
    pool: u64,
    lock: u64,
    rw: u64,
    heap: u64,
    flusher: u64,
    other: u64,
}

impl Ledger {
    fn from_delta(d: &MetricsSnapshot, threads: usize, wall: Duration) -> Ledger {
        let s = &d.store;
        let total = wall.as_nanos() as u64 * threads as u64;
        // The group-commit wait is timed around the whole commit attempt,
        // including the fsync the committing thread performs itself; count
        // that part once, under fsync.
        let wal_commit = s.wal_commit_wait_ns.saturating_sub(s.wal_fsync_ns);
        let named = s.wal_append_wait_ns
            + wal_commit
            + s.wal_fsync_ns
            + s.latch_wait_ns
            + s.pool_wait_ns
            + s.lock_wait_ns
            + s.rw_wait_ns
            + s.heap_shard_wait_ns
            + s.flusher_backpressure_ns;
        Ledger {
            total,
            wal_append: s.wal_append_wait_ns,
            wal_commit,
            fsync: s.wal_fsync_ns,
            latch: s.latch_wait_ns,
            pool: s.pool_wait_ns,
            lock: s.lock_wait_ns,
            rw: s.rw_wait_ns,
            heap: s.heap_shard_wait_ns,
            flusher: s.flusher_backpressure_ns,
            other: total.saturating_sub(named),
        }
    }

    fn pct(&self, ns: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            ns as f64 * 100.0 / self.total as f64
        }
    }

    /// Share of total thread-time attributed to *any* named category
    /// (including `other`); < 100 only if the named waits overflow the
    /// wall-clock budget (nested timing), which the disjointness above
    /// prevents.
    fn attributed_pct(&self) -> f64 {
        let sum = self.wal_append
            + self.wal_commit
            + self.fsync
            + self.latch
            + self.pool
            + self.lock
            + self.rw
            + self.heap
            + self.flusher
            + self.other;
        self.pct(sum.min(self.total))
    }
}

struct Record {
    part: &'static str,
    backend: &'static str,
    mix: String,
    threads: usize,
    ops_per_sec: f64,
    put_p50_us: f64,
    put_p99_us: f64,
    ledger: Ledger,
}

fn base_cfg(threads: usize, mix: KvMix) -> KvRunConfig {
    KvRunConfig {
        threads,
        ops_per_thread: 0,
        duration: Some(Duration::from_millis(if quick() { 100 } else { 500 })),
        key_space: 50_000,
        dist: KeyDist::Uniform,
        mix,
        value_len: 64,
        scan_len: 100,
        preload: if quick() { 4_000 } else { 40_000 },
        seed: 16,
    }
}

/// Runs one measured phase and windows the metrics over exactly that
/// phase: preload happens before the first snapshot.
fn run_one(db: &Arc<Db>, cfg: &KvRunConfig, part: &'static str, backend: &'static str) -> Record {
    preload_kv(db, cfg);
    let measured = KvRunConfig {
        preload: 0,
        ..cfg.clone()
    };
    let m0 = db.metrics();
    let r = run_kv(db, &measured);
    let d = db.metrics().delta(&m0);
    assert_eq!(r.errors, 0, "kv workload must not error");
    Record {
        part,
        backend,
        mix: cfg.mix.label(),
        threads: cfg.threads,
        ops_per_sec: r.ops_per_sec(),
        put_p50_us: d.put.percentile(50.0) as f64 / 1e3,
        put_p99_us: d.put.percentile(99.0) as f64 / 1e3,
        ledger: Ledger::from_delta(&d, cfg.threads, r.wall),
    }
}

fn table_header() -> Table {
    Table::new(vec![
        "threads",
        "ops/s",
        "put p50/p99 µs",
        "wal_append%",
        "commit%",
        "fsync%",
        "latch%",
        "pool%",
        "lock%",
        "rw%",
        "heap%",
        "flusher%",
        "other%",
    ])
}

fn table_row(t: &mut Table, r: &Record) {
    let l = &r.ledger;
    t.row(vec![
        r.threads.to_string(),
        format!("{:.0}", r.ops_per_sec),
        format!("{:.1}/{:.1}", r.put_p50_us, r.put_p99_us),
        format!("{:.1}", l.pct(l.wal_append)),
        format!("{:.1}", l.pct(l.wal_commit)),
        format!("{:.1}", l.pct(l.fsync)),
        format!("{:.1}", l.pct(l.latch)),
        format!("{:.1}", l.pct(l.pool)),
        format!("{:.1}", l.pct(l.lock)),
        format!("{:.1}", l.pct(l.rw)),
        format!("{:.1}", l.pct(l.heap)),
        format!("{:.1}", l.pct(l.flusher)),
        format!("{:.1}", l.pct(l.other)),
    ]);
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("blink-exp16-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    banner(
        "E16: write-path contention — per-layer thread-time attribution",
        "lock waiting, not lock counts, is what flattens multi-thread puts",
    );
    let threads: &[usize] = if quick() { &[1, 2] } else { &[1, 2, 4, 8] };
    let peak = *threads.last().unwrap();
    let mut records: Vec<Record> = Vec::new();

    // ------------------------------------------------------------------
    // Part 1: in-memory put sweep.
    // ------------------------------------------------------------------
    println!("-- in-memory, 100% puts --");
    let mut t = table_header();
    for &n in threads {
        let db = Arc::new(Db::open(DbConfig::in_memory().with_k(16).with_heap_shards(8)).unwrap());
        let rec = run_one(&db, &base_cfg(n, KvMix::PUT_ONLY), "mem-put", "mem");
        table_row(&mut t, &rec);
        records.push(rec);
        db.verify().unwrap().assert_ok();
    }
    print!("{t}");
    println!();

    // ------------------------------------------------------------------
    // Part 2: durable group-commit put sweep.
    // ------------------------------------------------------------------
    println!("-- durable (group commit 200µs), 100% puts --");
    let mut t = table_header();
    for &n in threads {
        let dir = tmpdir(&format!("group-{n}"));
        let cfg = DbConfig::durable_group_commit(&dir, Duration::from_micros(200))
            .with_k(16)
            .with_heap_shards(8);
        let db = Arc::new(Db::open(cfg).unwrap());
        // A tenth of the in-memory preload: the preload is single-threaded
        // and every put commits through the group window, so a full-size
        // preload would dwarf the measured phase.
        let mut run_cfg = base_cfg(n, KvMix::PUT_ONLY);
        run_cfg.preload /= 10;
        let rec = run_one(&db, &run_cfg, "durable-put", "group");
        table_row(&mut t, &rec);
        records.push(rec);
        db.verify().unwrap().assert_ok();
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    print!("{t}");
    println!();

    // ------------------------------------------------------------------
    // Part 3: mixed workload at peak threads (in-memory).
    // ------------------------------------------------------------------
    println!("-- in-memory, balanced mix, {peak} threads --");
    let mut t = table_header();
    let db = Arc::new(Db::open(DbConfig::in_memory().with_k(16).with_heap_shards(8)).unwrap());
    let rec = run_one(&db, &base_cfg(peak, KvMix::BALANCED), "mem-mixed", "mem");
    table_row(&mut t, &rec);
    records.push(rec);
    db.verify().unwrap().assert_ok();
    print!("{t}");
    println!();

    // The attribution must be a complete ledger at peak write concurrency.
    for r in records.iter().filter(|r| r.threads == peak) {
        let pct = r.ledger.attributed_pct();
        assert!(
            pct >= 90.0,
            "{}-thread {} run attributes only {pct:.1}% of thread-time",
            r.threads,
            r.part
        );
    }

    // ------------------------------------------------------------------
    // Part 4: per-op metrics overhead — metrics on vs off, peak threads.
    // ------------------------------------------------------------------
    println!("-- Db::metrics() overhead, {peak} threads, 100% puts --");
    // Run-to-run throughput variance on a contended host is far larger
    // than the two clock reads per op being measured, so interleave
    // on/off pairs and take the median pairwise overhead.
    let pairs = if quick() { 1 } else { 3 };
    let mut overheads = Vec::new();
    for round in 0..pairs {
        let mut pair = Vec::new();
        for metrics_on in [true, false] {
            let db = Arc::new(
                Db::open(
                    DbConfig::in_memory()
                        .with_k(16)
                        .with_heap_shards(8)
                        .with_metrics(metrics_on),
                )
                .unwrap(),
            );
            let cfg = base_cfg(peak, KvMix::PUT_ONLY);
            preload_kv(&db, &cfg);
            let r = run_kv(&db, &KvRunConfig { preload: 0, ..cfg });
            assert_eq!(r.errors, 0);
            pair.push(r.ops_per_sec());
        }
        let (with_metrics, without) = (pair[0], pair[1]);
        let pct = (without - with_metrics) * 100.0 / without;
        println!(
            "  round {round}: metrics on {with_metrics:.0} ops/s, off {without:.0} ops/s \
             ({pct:+.2}%)"
        );
        overheads.push(pct);
    }
    overheads.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let overhead_pct = overheads[overheads.len() / 2];
    println!("  median overhead: {overhead_pct:+.2}%");
    println!();

    // ------------------------------------------------------------------
    // Perf record for the trajectory file.
    // ------------------------------------------------------------------
    let mut json = String::from("{\n  \"bench\": \"contention\",\n");
    json.push_str(&format!(
        "  \"metrics_overhead_pct\": {overhead_pct:.3},\n  \"results\": [\n"
    ));
    for (i, r) in records.iter().enumerate() {
        let l = &r.ledger;
        json.push_str(&format!(
            "    {{\"part\": \"{}\", \"backend\": \"{}\", \"mix\": \"{}\", \"threads\": {}, \
             \"ops_per_sec\": {:.1}, \"put_p50_us\": {:.2}, \"put_p99_us\": {:.2}, \
             \"total_thread_ms\": {:.2}, \"attributed_pct\": {:.2}, \
             \"wal_append_wait_pct\": {:.3}, \"wal_commit_wait_pct\": {:.3}, \
             \"fsync_pct\": {:.3}, \"latch_wait_pct\": {:.3}, \"pool_wait_pct\": {:.3}, \
             \"lock_wait_pct\": {:.3}, \"rw_wait_pct\": {:.3}, \"heap_wait_pct\": {:.3}, \
             \"flusher_wait_pct\": {:.3}, \"other_pct\": {:.3}}}{}\n",
            r.part,
            r.backend,
            r.mix,
            r.threads,
            r.ops_per_sec,
            r.put_p50_us,
            r.put_p99_us,
            l.total as f64 / 1e6,
            l.attributed_pct(),
            l.pct(l.wal_append),
            l.pct(l.wal_commit),
            l.pct(l.fsync),
            l.pct(l.latch),
            l.pct(l.pool),
            l.pct(l.lock),
            l.pct(l.rw),
            l.pct(l.heap),
            l.pct(l.flusher),
            l.pct(l.other),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_contention.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
    println!();
    println!("read the peak-thread rows: the named columns are thread-time the workers");
    println!("spent *blocked* at each layer; 'other' is CPU (tree descent, page copies,");
    println!("record writes) plus scheduler time. whichever named column grows as the");
    println!("thread sweep climbs is the layer the next perf PR has to attack first.");
}
