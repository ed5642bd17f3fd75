//! E14 — KV scalability through the `Db` facade: threads × mix, and the
//! sharded-heap ablation.
//!
//! E2 sweeps the *bare tree* over threads and shows the paper's claim (the
//! single-lock protocol scales past the lock-coupling baselines). But the
//! `Db` facade bolts a record heap under that tree, and until PR 4 every
//! heap mutation serialized on one global allocator mutex — multi-threaded
//! `put` throughput was capped at the heap, not the index. This experiment
//! measures the full KV stack the way E2 measures the tree:
//!
//! * **Part 1 (thread sweep):** write-heavy and balanced mixes at 1–8
//!   threads, heap sharded per config default. Throughput should grow (or
//!   at worst hold) with threads instead of flatlining on the allocator;
//!   the `heap wait` column is the direct evidence — time writers spent
//!   queued on shard mutexes.
//! * **Part 2 (shard ablation):** the same write-heavy mix at a fixed
//!   thread count while the shard count sweeps 1 → 8. `shards = 1` *is*
//!   the PR 3 design (one open page, one mutex); contention and wait time
//!   must collapse as shards grow even on a single-core host, which makes
//!   this the machine-independent half of the scalability story.
//! * **Part 3 (slot reuse):** a delete-heavy churn mix; freed slots must
//!   be reclaimed in place (`slots reused` ≫ 0, pages recycled through the
//!   allocation pool) without the heap's page count growing with the churn.
//!
//! Emits `BENCH_kv_scalability.json` for trajectory tracking.

use blink_bench::{banner, quick};
use blink_db::{Db, DbConfig};
use blink_harness::kv::{run_kv, KvMix, KvRunConfig};
use blink_harness::Table;
use blink_workload::KeyDist;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

struct Record {
    part: &'static str,
    mix: String,
    threads: usize,
    shards: usize,
    ops_per_sec: f64,
    total_ops: u64,
    p50_put_us: f64,
    heap_contended: u64,
    heap_wait_ms: f64,
    heap_wait_p50_us: f64,
    heap_wait_p99_us: f64,
    heap_wait_p99: String,
    slots_reused: u64,
    pages_recycled: u64,
    heap_pages: usize,
}

fn base_cfg(threads: usize) -> KvRunConfig {
    KvRunConfig {
        threads,
        ops_per_thread: 0,
        duration: Some(Duration::from_millis(if quick() { 100 } else { 600 })),
        key_space: 50_000,
        dist: KeyDist::Uniform,
        value_len: 64,
        scan_len: 100,
        preload: if quick() { 4_000 } else { 40_000 },
        seed: 14,
        ..KvRunConfig::default()
    }
}

fn run_one(db: &Arc<Db>, cfg: &KvRunConfig, part: &'static str) -> Record {
    let r = run_kv(db, cfg);
    assert_eq!(r.errors, 0, "kv workload must not error");
    Record {
        part,
        mix: cfg.mix.label(),
        threads: cfg.threads,
        shards: db.heap().shard_count(),
        ops_per_sec: r.ops_per_sec(),
        total_ops: r.total_ops,
        p50_put_us: r.put_lat.percentile(50.0) as f64 / 1_000.0,
        heap_contended: r.store.heap_shard_contended,
        heap_wait_ms: r.heap_wait_ms(),
        heap_wait_p50_us: r.heap_wait_percentile_us(50.0).unwrap_or(0.0),
        heap_wait_p99_us: r.heap_wait_percentile_us(99.0).unwrap_or(0.0),
        heap_wait_p99: tail_label(r.heap_wait_percentile_us(99.0)),
        slots_reused: r.store.heap_slots_reused,
        pages_recycled: r.store.heap_pages_recycled,
        heap_pages: r.heap_pages,
    }
}

/// Formats a windowed-histogram percentile for tables ("-" when the
/// window saw no contention).
fn tail_label(p: Option<f64>) -> String {
    match p {
        None => "-".into(),
        Some(us) => format!("{us:.0}us"),
    }
}

fn main() {
    banner(
        "E14: KV scalability over Db — threads × mix, sharded-heap ablation",
        "puts must scale with threads instead of flatlining on one heap mutex",
    );
    let threads: &[usize] = if quick() { &[1, 2] } else { &[1, 2, 4, 8] };
    let shard_sweep: &[usize] = if quick() { &[1, 2] } else { &[1, 2, 4, 8] };
    let ablation_threads = if quick() { 2 } else { 8 };
    let mut records: Vec<Record> = Vec::new();

    // ------------------------------------------------------------------
    // Part 1: thread sweep, write-heavy and balanced mixes.
    // ------------------------------------------------------------------
    for (name, mix) in [
        ("write-heavy", KvMix::PUT_ONLY),
        ("balanced", KvMix::BALANCED),
    ] {
        println!("-- thread sweep: {name} --");
        let mut t = Table::new(vec![
            "threads",
            "shards",
            "ops/s",
            "p50 put µs",
            "heap waits",
            "heap wait ms",
            "wait p50",
            "wait p99",
        ]);
        for &n in threads {
            let db =
                Arc::new(Db::open(DbConfig::in_memory().with_k(16).with_heap_shards(8)).unwrap());
            let cfg = KvRunConfig { mix, ..base_cfg(n) };
            let rec = run_one(&db, &cfg, "thread-sweep");
            t.row(vec![
                n.to_string(),
                rec.shards.to_string(),
                format!("{:.0}", rec.ops_per_sec),
                format!("{:.1}", rec.p50_put_us),
                rec.heap_contended.to_string(),
                format!("{:.2}", rec.heap_wait_ms),
                tail_label((rec.heap_wait_p50_us > 0.0).then_some(rec.heap_wait_p50_us)),
                rec.heap_wait_p99.clone(),
            ]);
            records.push(rec);
            db.verify().unwrap().assert_ok();
        }
        print!("{t}");
        println!();
    }

    // ------------------------------------------------------------------
    // Part 2: shard ablation at a fixed thread count. shards = 1 is the
    // pre-PR-4 single-mutex allocator.
    // ------------------------------------------------------------------
    println!("-- shard ablation: write-heavy, {ablation_threads} threads --");
    let mut t2 = Table::new(vec![
        "shards",
        "ops/s",
        "heap waits",
        "heap wait ms",
        "wait p50",
        "wait p99",
        "waits/op",
    ]);
    let mut ablation: Vec<(usize, u64)> = Vec::new();
    for &sh in shard_sweep {
        let db = Arc::new(Db::open(DbConfig::in_memory().with_k(16).with_heap_shards(sh)).unwrap());
        let cfg = KvRunConfig {
            mix: KvMix::PUT_ONLY,
            ..base_cfg(ablation_threads)
        };
        let rec = run_one(&db, &cfg, "shard-ablation");
        t2.row(vec![
            sh.to_string(),
            format!("{:.0}", rec.ops_per_sec),
            rec.heap_contended.to_string(),
            format!("{:.2}", rec.heap_wait_ms),
            tail_label((rec.heap_wait_p50_us > 0.0).then_some(rec.heap_wait_p50_us)),
            rec.heap_wait_p99.clone(),
            format!(
                "{:.4}",
                rec.heap_contended as f64 / (rec.total_ops as f64).max(1.0)
            ),
        ]);
        ablation.push((sh, rec.heap_contended));
        records.push(rec);
        db.verify().unwrap().assert_ok();
    }
    print!("{t2}");
    println!();
    if ablation_threads > 1 {
        let one = ablation.first().map(|&(_, c)| c).unwrap_or(0);
        let many = ablation.last().map(|&(_, c)| c).unwrap_or(0);
        println!(
            "heap-mutex waits: {one} at 1 shard -> {many} at {} shards",
            ablation.last().map(|&(s, _)| s).unwrap_or(0)
        );
    }

    // ------------------------------------------------------------------
    // Part 3: slot-reuse proof under delete-heavy churn.
    // ------------------------------------------------------------------
    println!("-- slot reuse: delete-heavy churn --");
    let db = Arc::new(Db::open(DbConfig::in_memory().with_k(16).with_heap_shards(4)).unwrap());
    let churn = KvMix {
        get_pct: 10,
        put_pct: 50,
        delete_pct: 40,
        scan_pct: 0,
    };
    let cfg = KvRunConfig {
        mix: churn,
        key_space: 10_000,
        preload: if quick() { 2_000 } else { 10_000 },
        ..base_cfg(if quick() { 2 } else { 4 })
    };
    let rec = run_one(&db, &cfg, "slot-reuse");
    let mut t3 = Table::new(vec![
        "mix",
        "ops/s",
        "slots reused",
        "pages recycled",
        "heap pages",
    ]);
    t3.row(vec![
        rec.mix.clone(),
        format!("{:.0}", rec.ops_per_sec),
        rec.slots_reused.to_string(),
        rec.pages_recycled.to_string(),
        rec.heap_pages.to_string(),
    ]);
    print!("{t3}");
    assert!(
        rec.slots_reused > 0,
        "delete-heavy churn must reuse freed slots in partially-live pages"
    );
    records.push(rec);
    db.verify().unwrap().assert_ok();
    println!();

    // ------------------------------------------------------------------
    // Perf record for the trajectory file.
    // ------------------------------------------------------------------
    let mut json = String::from("{\n  \"bench\": \"kv_scalability\",\n  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"part\": \"{}\", \"mix\": \"{}\", \"threads\": {}, \"shards\": {}, \
             \"ops_per_sec\": {:.1}, \"p50_put_us\": {:.2}, \"heap_shard_contended\": {}, \
             \"heap_wait_ms\": {:.3}, \"heap_wait_p50_us\": {:.2}, \
             \"heap_wait_p99_us\": {:.2}, \"heap_wait_p99\": \"{}\", \"slots_reused\": {}, \
             \"pages_recycled\": {}, \"heap_pages\": {}}}{}\n",
            r.part,
            r.mix,
            r.threads,
            r.shards,
            r.ops_per_sec,
            r.p50_put_us,
            r.heap_contended,
            r.heap_wait_ms,
            r.heap_wait_p50_us,
            r.heap_wait_p99_us,
            r.heap_wait_p99,
            r.slots_reused,
            r.pages_recycled,
            r.heap_pages,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_kv_scalability.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
    println!();
    println!("the thread sweep should climb (or hold) instead of flatlining at the heap;");
    println!("the ablation isolates why: at 1 shard every writer queues on one allocator");
    println!("mutex (waits ≈ puts), at 8 the wait column collapses toward zero. part 3");
    println!("shows freed slots being reclaimed without pages ever going fully empty.");
}
