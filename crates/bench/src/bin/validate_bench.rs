//! Validates every `BENCH_*.json` trajectory file in the working
//! directory: each must parse as JSON, carry the standard envelope
//! (`"bench"` string + non-empty `"results"` array), and every result row
//! must carry the keys its bench promises. CI runs this after the
//! experiment smokes so a malformed emitter fails the build instead of
//! silently corrupting the perf trajectory.
//!
//! Exit code 0 = all present files valid; 1 = any file invalid. Files for
//! benches that did not run are simply absent, which is fine — but any
//! *present* file must be valid, and the benches CI does run are required
//! (see `required_benches`).

use blink_bench::json::{parse, Json};

/// Keys every result row of the named bench must carry.
fn required_keys(bench: &str) -> &'static [&'static str] {
    match bench {
        "kv" => &["part", "mix", "knobs", "ops_per_sec"],
        "bufferpool" => &["part", "pool_frames", "ops_per_sec", "hit_rate"],
        "kv_scalability" => &[
            "part",
            "threads",
            "ops_per_sec",
            "heap_shard_contended",
            "heap_wait_p50_us",
            "heap_wait_p99_us",
        ],
        "locks" => &[
            "algorithm",
            "operation",
            "locks_per_op",
            "waits",
            "wait_p50_ns",
            "wait_p99_ns",
        ],
        "contention" => &[
            "part",
            "backend",
            "threads",
            "ops_per_sec",
            "attributed_pct",
            "wal_append_wait_pct",
            "wal_commit_wait_pct",
            "fsync_pct",
            "latch_wait_pct",
            "pool_wait_pct",
            "lock_wait_pct",
            "rw_wait_pct",
            "heap_wait_pct",
            "flusher_wait_pct",
            "other_pct",
        ],
        _ => &[],
    }
}

/// Top-level keys (beyond the envelope) the named bench must carry.
fn required_top_level(bench: &str) -> &'static [&'static str] {
    match bench {
        "contention" => &["metrics_overhead_pct"],
        _ => &[],
    }
}

fn validate(path: &str, doc: &Json) -> Result<(usize, String), String> {
    let bench = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing string key \"bench\"")?
        .to_string();
    for &key in required_top_level(&bench) {
        if doc.get(key).is_none() {
            return Err(format!("missing top-level key \"{key}\""));
        }
    }
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing array key \"results\"")?;
    if results.is_empty() {
        return Err("\"results\" is empty".into());
    }
    let keys = required_keys(&bench);
    if keys.is_empty() {
        return Err(format!(
            "unknown bench \"{bench}\" in {path} — add its required keys to validate_bench"
        ));
    }
    for (i, row) in results.iter().enumerate() {
        for &key in keys {
            if row.get(key).is_none() {
                return Err(format!("results[{i}] missing key \"{key}\""));
            }
        }
    }
    Ok((results.len(), bench))
}

fn main() {
    let mut failures = 0;
    let mut seen: Vec<String> = Vec::new();
    let mut paths: Vec<String> = std::fs::read_dir(".")
        .expect("read cwd")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        println!("no BENCH_*.json files in the working directory");
        std::process::exit(1);
    }
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                println!("FAIL {path}: unreadable: {e}");
                failures += 1;
                continue;
            }
        };
        match parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|doc| validate(path, &doc))
        {
            Ok((rows, bench)) => {
                println!("ok   {path}: bench \"{bench}\", {rows} result rows");
                seen.push(bench);
            }
            Err(e) => {
                println!("FAIL {path}: {e}");
                failures += 1;
            }
        }
    }
    // The benches CI actually runs must have produced their files.
    for bench in ["contention", "locks"] {
        if !seen.iter().any(|b| b == bench) {
            println!("FAIL missing required file BENCH_{bench}.json");
            failures += 1;
        }
    }
    if failures > 0 {
        println!("{failures} validation failure(s)");
        std::process::exit(1);
    }
    println!("all {} BENCH files valid", paths.len());
}
