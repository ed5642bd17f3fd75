//! E12 — Buffer pool: throughput vs. pool size (hit-rate sweep).
//!
//! PR 2 replaced the copy-on-every-get page layer with a real buffer pool:
//! pinned frames, zero-copy read guards, CLOCK eviction, dirty-frame
//! write-back. This experiment quantifies both halves of that change:
//!
//! * **Part 1 (simulated disk):** with a per-backend-access latency, a
//!   larger pool converts misses into pinned-frame hits; throughput should
//!   climb with pool size toward the RAM-speed ceiling, fastest for the
//!   READ_HEAVY mix and slowest for CHURN (whose working set keeps moving
//!   and whose dirty victims pay write-backs on eviction).
//! * **Part 2 (RAM speed):** with no simulated latency the pool's remaining
//!   win is the removed memcpy per traversal hop — `read` borrows frame
//!   bytes instead of copying the page — visible as pool-on vs. pool-off
//!   throughput at identical workloads.
//!
//! Emits `BENCH_bufferpool.json` (one perf record per configuration) next
//! to the working directory for trajectory tracking.

use blink_baselines::ConcurrentIndex;
use blink_bench::{banner, quick};
use blink_harness::runner::{run_workload, RunConfig};
use blink_harness::Table;
use blink_pagestore::{PageStore, StoreConfig};
use blink_workload::{KeyDist, Mix};
use sagiv_blink::{BLinkTree, TreeConfig};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

struct Record {
    part: &'static str,
    mix: String,
    pool_frames: usize,
    ops_per_sec: f64,
    hit_rate: f64,
    frames_evicted: u64,
    dirty_writebacks: u64,
    pins: u64,
    pool_bypasses: u64,
}

fn run_one(mix: Mix, delay: Option<Duration>, pool_frames: usize, part: &'static str) -> Record {
    let store = PageStore::new(StoreConfig {
        page_size: 4096,
        io_delay: delay,
        pool_frames,
        background_flusher: false,
        page_checksums: false,
    });
    let tree: Arc<dyn ConcurrentIndex> = BLinkTree::create(store, TreeConfig::with_k(16)).unwrap();
    let cfg = RunConfig {
        threads: 8,
        ops_per_thread: 0,
        duration: Some(Duration::from_millis(if quick() { 150 } else { 800 })),
        key_space: 50_000,
        dist: KeyDist::Zipf { theta: 0.99 },
        mix,
        preload: if quick() { 5_000 } else { 50_000 },
        seed: 12,
    };
    let r = run_workload(&tree, &cfg);
    assert_eq!(r.errors, 0);
    let ops_per_sec = r.ops_per_sec();
    let d = r.store_delta;
    Record {
        part,
        mix: mix.label(),
        pool_frames,
        ops_per_sec,
        hit_rate: d.hit_rate(),
        frames_evicted: d.frames_evicted,
        dirty_writebacks: d.dirty_writebacks,
        pins: d.pins,
        pool_bypasses: d.pool_bypasses,
    }
}

fn main() {
    banner(
        "E12: buffer pool — throughput vs. pool size",
        "frame hits cost a pin instead of an I/O plus a page copy; throughput scales with hit rate",
    );

    let mixes = [Mix::READ_HEAVY, Mix::BALANCED, Mix::CHURN];
    let sizes: &[usize] = if quick() {
        &[0, 64, 1024]
    } else {
        &[0, 64, 256, 1024, 4096]
    };
    let mut records: Vec<Record> = Vec::new();

    // ------------------------------------------------------------------
    // Part 1: simulated disk latency; the pool's job is hiding the I/O.
    // ------------------------------------------------------------------
    let delay = Duration::from_micros(2);
    let mut t1 = Table::new(vec![
        "mix",
        "pool frames",
        "ops/s",
        "hit rate",
        "evictions",
        "writebacks",
        "bypasses",
    ]);
    for &mix in &mixes {
        for &frames in sizes {
            let rec = run_one(mix, Some(delay), frames, "simulated-disk");
            t1.row(vec![
                rec.mix.clone(),
                format!("{frames}"),
                format!("{:.0}", rec.ops_per_sec),
                format!("{:.1}%", rec.hit_rate * 100.0),
                format!("{}", rec.frames_evicted),
                format!("{}", rec.dirty_writebacks),
                format!("{}", rec.pool_bypasses),
            ]);
            records.push(rec);
        }
    }
    print!("{t1}");
    println!();

    // ------------------------------------------------------------------
    // Part 2: RAM speed; the pool's job is deleting the per-hop memcpy.
    // ------------------------------------------------------------------
    let mut t2 = Table::new(vec![
        "mix (RAM speed)",
        "pool off ops/s",
        "pool 4096 ops/s",
        "speedup",
    ]);
    for &mix in &mixes {
        let off = run_one(mix, None, 0, "ram");
        let on = run_one(mix, None, 4096, "ram");
        t2.row(vec![
            off.mix.clone(),
            format!("{:.0}", off.ops_per_sec),
            format!("{:.0}", on.ops_per_sec),
            format!("{:.2}x", on.ops_per_sec / off.ops_per_sec),
        ]);
        records.push(off);
        records.push(on);
    }
    print!("{t2}");
    println!();

    // ------------------------------------------------------------------
    // Perf record for the trajectory file.
    // ------------------------------------------------------------------
    let mut json = String::from("{\n  \"bench\": \"bufferpool\",\n  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"part\": \"{}\", \"mix\": \"{}\", \"pool_frames\": {}, \
             \"ops_per_sec\": {:.1}, \"hit_rate\": {:.4}, \"frames_evicted\": {}, \
             \"dirty_writebacks\": {}, \"pins\": {}, \"pool_bypasses\": {}}}{}\n",
            r.part,
            r.mix,
            r.pool_frames,
            r.ops_per_sec,
            r.hit_rate,
            r.frames_evicted,
            r.dirty_writebacks,
            r.pins,
            r.pool_bypasses,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_bufferpool.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
    println!();
    println!("read-heavy throughput should rise with pool size (misses -> pinned-frame hits)");
    println!("while CHURN keeps paying evictions + dirty write-backs; at RAM speed the pool");
    println!("still wins by deleting the page-sized memcpy every traversal hop used to pay.");
}
