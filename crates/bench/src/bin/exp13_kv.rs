//! E13 — KV facade: byte-value throughput and streaming scan cursors.
//!
//! PR 3 composed tree + record heap + WAL behind the `Db` facade: leaves
//! hold `RecordId`s, the heap holds the value bytes, and range queries are
//! lazy leaf-link cursors instead of materialized `Vec`s. This experiment
//! quantifies the two axes the redesign exposes:
//!
//! * **Part 1 (value-size sweep):** point-op throughput as values grow.
//!   Values ride the record heap, so the index stays dense — ops/s should
//!   degrade gently with value size (the heap write is one extra journaled
//!   page touch, in place for same-size overwrites).
//! * **Part 2 (scan-length sweep):** streaming scan service rate. The
//!   cursor buffers one leaf at a time, so pairs/s should stay flat as the
//!   window grows from 10 to 10k keys — the signature of not
//!   materializing — while scans/s falls proportionally.
//! * **Part 3 (durable):** the same balanced mix against a WAL-backed
//!   directory with group commit: one log covering index *and* data.
//!
//! Emits `BENCH_kv.json` for trajectory tracking.

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
    /// Which durability knobs were toggled for this row (`-` for
    /// in-memory rows, `default` for the all-on durable path, or the one
    /// ablated knob: `flusher-off`, `checksums-off`, `mmap-on`).
    knobs: &'static str,
    value_len: usize,
    scan_len: u64,
    ops_per_sec: f64,
    scan_pairs_per_sec: f64,
    scan_mb_per_sec: f64,
    p50_scan_us: f64,
    errors: u64,
}

fn base_cfg() -> KvRunConfig {
    KvRunConfig {
        threads: 8,
        ops_per_thread: 0,
        duration: Some(Duration::from_millis(if quick() { 120 } else { 700 })),
        key_space: 50_000,
        dist: KeyDist::Uniform,
        preload: if quick() { 5_000 } else { 50_000 },
        seed: 13,
        ..KvRunConfig::default()
    }
}

fn run_one(db: &Arc<Db>, cfg: &KvRunConfig, part: &'static str, knobs: &'static str) -> Record {
    let r = run_kv(db, cfg);
    assert_eq!(r.errors, 0, "kv workload must not error");
    println!(
        "  heap: {} live records on {} pages ({} open across {} shards, {} queued); \
         {} slots reused, {} pages recycled, {} released, {} double-frees",
        r.heap_live_records,
        r.heap_pages,
        r.heap_open_pages,
        db.heap().shard_count(),
        r.heap_queued_pages,
        r.store.heap_slots_reused,
        r.store.heap_pages_recycled,
        r.store.heap_pages_released,
        r.store.heap_double_frees,
    );
    Record {
        part,
        mix: cfg.mix.label(),
        knobs,
        value_len: cfg.value_len,
        scan_len: cfg.scan_len,
        ops_per_sec: r.ops_per_sec(),
        scan_pairs_per_sec: r.scanned_pairs_per_sec(),
        scan_mb_per_sec: r.scan_mb_per_sec(),
        p50_scan_us: r.scan_lat.percentile(50.0) as f64 / 1_000.0,
        errors: r.errors,
    }
}

fn main() {
    banner(
        "E13: KV facade — value-size and scan-length sweeps over Db",
        "byte values ride the record heap; scans stream one leaf at a time",
    );

    let mut records: Vec<Record> = Vec::new();

    // ------------------------------------------------------------------
    // Part 1: value-size sweep, point ops only.
    // ------------------------------------------------------------------
    let value_sizes: &[usize] = if quick() {
        &[16, 256]
    } else {
        &[16, 64, 256, 1024]
    };
    let mut t1 = Table::new(vec!["mix", "value bytes", "ops/s"]);
    for &vlen in value_sizes {
        let db = Arc::new(Db::open(DbConfig::in_memory().with_k(16)).unwrap());
        let cfg = KvRunConfig {
            mix: KvMix {
                get_pct: 50,
                put_pct: 40,
                delete_pct: 10,
                scan_pct: 0,
            },
            value_len: vlen,
            ..base_cfg()
        };
        let rec = run_one(&db, &cfg, "value-sweep", "-");
        t1.row(vec![
            rec.mix.clone(),
            format!("{vlen}"),
            format!("{:.0}", rec.ops_per_sec),
        ]);
        records.push(rec);
        db.verify().unwrap().assert_ok();
    }
    print!("{t1}");
    println!();

    // ------------------------------------------------------------------
    // Part 2: scan-length sweep, scan-heavy mix.
    // ------------------------------------------------------------------
    let scan_lens: &[u64] = if quick() {
        &[10, 1_000]
    } else {
        &[10, 100, 1_000, 10_000]
    };
    let mut t2 = Table::new(vec![
        "mix",
        "scan keys",
        "ops/s",
        "scanned pairs/s",
        "scan MB/s",
        "p50 scan µs",
    ]);
    for &slen in scan_lens {
        let db = Arc::new(Db::open(DbConfig::in_memory().with_k(16)).unwrap());
        let cfg = KvRunConfig {
            mix: KvMix::SCAN_HEAVY,
            value_len: 64,
            scan_len: slen,
            ..base_cfg()
        };
        let rec = run_one(&db, &cfg, "scan-sweep", "-");
        t2.row(vec![
            rec.mix.clone(),
            format!("{slen}"),
            format!("{:.0}", rec.ops_per_sec),
            format!("{:.0}", rec.scan_pairs_per_sec),
            format!("{:.1}", rec.scan_mb_per_sec),
            format!("{:.1}", rec.p50_scan_us),
        ]);
        records.push(rec);
        db.verify().unwrap().assert_ok();
    }
    print!("{t2}");
    println!();

    // ------------------------------------------------------------------
    // Part 3: durable Db — one WAL covering index and heap, plus the
    // fsync-hiding ablations. `default` runs with the background flusher,
    // page checksums and pread reads; each other row flips exactly one
    // knob so the trajectory file records what each mechanism is worth on
    // this host. An in-memory row under the same mix anchors the
    // durability tax.
    // ------------------------------------------------------------------
    let cfg = KvRunConfig {
        mix: KvMix::BALANCED,
        value_len: 64,
        scan_len: 100,
        ..base_cfg()
    };
    let mut t3 = Table::new(vec!["backend", "knobs", "mix", "ops/s", "scanned pairs/s"]);

    let db = Arc::new(Db::open(DbConfig::in_memory().with_k(16)).unwrap());
    let mem = run_one(&db, &cfg, "mem-balanced", "-");
    t3.row(vec![
        "in-memory".into(),
        "-".into(),
        mem.mix.clone(),
        format!("{:.0}", mem.ops_per_sec),
        format!("{:.0}", mem.scan_pairs_per_sec),
    ]);
    let mem_ops = mem.ops_per_sec;
    records.push(mem);
    db.verify().unwrap().assert_ok();
    drop(db);

    let mut durable_ops = std::collections::BTreeMap::new();
    for &knobs in &["default", "flusher-off", "checksums-off", "mmap-on"] {
        let dir = std::env::temp_dir().join(format!("blink-e13-{knobs}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut dcfg = DbConfig::durable_group_commit(&dir, Duration::from_micros(500)).with_k(16);
        dcfg = match knobs {
            "flusher-off" => dcfg.with_background_flusher(false),
            "checksums-off" => dcfg.with_page_checksums(false),
            "mmap-on" => dcfg.with_mmap_backend(true),
            _ => dcfg,
        };
        let db = Arc::new(Db::open(dcfg).unwrap());
        let rec = run_one(&db, &cfg, "durable", knobs);
        t3.row(vec![
            "durable (group commit)".into(),
            knobs.into(),
            rec.mix.clone(),
            format!("{:.0}", rec.ops_per_sec),
            format!("{:.0}", rec.scan_pairs_per_sec),
        ]);
        durable_ops.insert(knobs, rec.ops_per_sec);
        records.push(rec);
        db.sync().unwrap();
        db.verify().unwrap().assert_ok();
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    print!("{t3}");
    // `mmap-on` keeps the flusher at its default, so it is the
    // everything-on configuration — the gap that row closes to is the one
    // the fsync-hiding work is judged by (~5x of in-memory).
    println!(
        "durability tax at group commit: in-memory {mem_ops:.0} ops/s; durable default \
         {:.0} ops/s ({:.2}x), all knobs + mmap reads {:.0} ops/s ({:.2}x; target ~5x)",
        durable_ops["default"],
        mem_ops / durable_ops["default"],
        durable_ops["mmap-on"],
        mem_ops / durable_ops["mmap-on"],
    );
    {
        // Page checksums are stamped into a scratch copy at the backend
        // write funnel and verified on pool-miss reads; the budget for
        // that is ≤5% on the durable mix. The trajectory file records the
        // exact gap; the assertion's generous slack absorbs run-to-run
        // noise (more under QUICK's short windows) so CI only fails on an
        // order-of-magnitude regression, not jitter.
        let slack = if quick() { 0.5 } else { 0.7 };
        let (on, off) = (durable_ops["default"], durable_ops["checksums-off"]);
        println!(
            "page checksum cost on the durable mix: {on:.0} ops/s stamped+verified vs \
             {off:.0} ops/s ablated ({:+.1}%; budget ≤5%)",
            (off / on - 1.0) * 100.0,
        );
        assert!(
            on >= off * slack,
            "page checksums regressed the durable mix: {on:.0} ops/s with checksums \
             vs {off:.0} ops/s without"
        );
    }
    println!();

    // ------------------------------------------------------------------
    // Perf record for the trajectory file.
    // ------------------------------------------------------------------
    let mut json = String::from("{\n  \"bench\": \"kv\",\n  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"part\": \"{}\", \"mix\": \"{}\", \"knobs\": \"{}\", \"value_len\": {}, \
             \"scan_len\": {}, \"ops_per_sec\": {:.1}, \"scan_pairs_per_sec\": {:.1}, \
             \"scan_mb_per_sec\": {:.3}, \"p50_scan_us\": {:.2}, \"errors\": {}}}{}\n",
            r.part,
            r.mix,
            r.knobs,
            r.value_len,
            r.scan_len,
            r.ops_per_sec,
            r.scan_pairs_per_sec,
            r.scan_mb_per_sec,
            r.p50_scan_us,
            r.errors,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_kv.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
    println!();
    println!("pairs/s should stay roughly flat across the scan-length sweep — the cursor");
    println!("buffers one leaf at a time, so a 10k-key window costs no more memory than a");
    println!("10-key one; ops/s in the value sweep degrades only with heap-page traffic.");
}
