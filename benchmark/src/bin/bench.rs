//! `bench` — the end-to-end ruler. Drives the public `Db` API from one
//! process, closed loop, two clients, tracing off; prints every end-to-end
//! metric by name with its unit, checks every result, and ends with the
//! contract's one-line JSON result.
//!
//! ```text
//! bench --workload mem.point.resident --seed 1 --seconds 10   one workload
//! bench                     every workload, each in its own child process
//! bench --quick             the same with 2 s windows
//! bench --sets 5            five sets (seed, seed+1, …) and their spread table
//! bench --agree             two sets on one seed; exit 1 if any gated
//!                           metric differs by more than its bound
//! ```

use blink_benchmark::client::{run_op, run_window, Tally, Window};
use blink_benchmark::env::{self, Args};
use blink_benchmark::json::Json;
use blink_benchmark::sets::{compare_sets, metrics_json, result_line, run_each_workload};
use blink_benchmark::spec::{Workload, CLIENTS, END_TO_END, ROUNDS, SLICES_PER_ROUND, TAPE_LEN};
use blink_benchmark::stats::median;
use blink_benchmark::tape::{fill_value, value_ok, Kind};
use blink_benchmark::world::{audit, dir_bytes, setup, World};
use blink_benchmark::{ctx, Res};
use blink_db::{Db, MetricsSnapshot};
use std::collections::HashMap;
use std::time::Instant;

fn main() {
    let code = match Args::parse().and_then(|args| match args.workload.clone() {
        Some(name) => {
            let w = Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?;
            run_workload(w, &args)
        }
        None => run_sets(&args),
    }) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run_sets(args: &Args) -> Res<i32> {
    let mut sets = Vec::new();
    for i in 0..args.sets {
        // An A/A comparison repeats one seed; a spread table walks seeds,
        // as the acceptance runs do.
        let seed = if args.agree {
            args.seed
        } else {
            args.seed + i as u64
        };
        println!("== set {} of {} (seed {seed})", i + 1, args.sets);
        sets.push(run_each_workload(args, seed)?);
    }
    let mut record = env::fingerprint(args);
    let set_json = |set: &Vec<(&'static str, Json)>| {
        let mut o = Json::obj();
        for (name, result) in set {
            o.set(name, result.clone());
        }
        o
    };
    record.set("sets", sets.iter().map(set_json).collect::<Vec<_>>());
    env::write_record(
        &args.out_dir,
        &format!("{}-{}", env::commit(), args.seed),
        &record,
    );
    let all_correct = sets
        .iter()
        .flatten()
        .all(|(_, r)| r.get("correct") == Some(&Json::Bool(true)));
    let mut code = if all_correct { 0 } else { 1 };
    if sets.len() > 1 {
        let over = compare_sets(&sets, END_TO_END);
        if args.agree {
            for line in &over {
                println!("DISAGREE {line}");
            }
            if over.is_empty() {
                println!("AGREE: every end-to-end metric within its bound on every workload");
            } else {
                code = 1;
            }
        }
    }
    Ok(code)
}

/// A store counter's growth between two snapshots, by name — `None`
/// (printed as `null`) if a refactor renamed it, rather than a broken build.
fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> Option<f64> {
    Some((after.store.counter(name)? - before.store.counter(name)?) as f64)
}

/// Store counters summed over the measured windows, for the diagnostics
/// and the two "this workload exercises its layer" assertions.
const COUNTERS: [&str; 3] = ["cache_hits", "cache_misses", "wal_bytes"];

fn run_workload(w: &'static Workload, args: &Args) -> Res<i32> {
    if args.trace == Some(true) {
        return Err("--trace 1 is bench-trace's pass (run.sh picks the binary)".to_string());
    }
    let data_root = args.out_dir.join("data");
    ctx(std::fs::create_dir_all(&data_root), "create out dir")?;

    // ROUNDS times over: set up from scratch, warm up, measure a share of
    // the window. `setup_s` is the median set-up, and the window's slices
    // come from ROUNDS separately built databases at separate times, so
    // neither one unlucky memory layout nor one slow stretch of the
    // machine decides a run.
    let (mut setup_s, mut reopen_s) = (Vec::new(), Vec::new());
    let mut window: Option<Window> = None;
    let mut counters = [Some(0.0); COUNTERS.len()];
    let mut total = Tally::default();
    let mut last = None;
    for round in 0..ROUNDS {
        drop(last.take());
        let world = setup(w, args.seed, &data_root)?;
        setup_s.push(world.setup_s);
        reopen_s.extend(world.reopen_s);
        // Each round replays its own stretch of the tapes.
        let mut pos = vec![round * TAPE_LEN / ROUNDS; CLIENTS];
        let db = &world.db;
        let warm = run_window(w, &world.tapes, &mut pos, args.warmup_s(), 1, |_| {
            db.session()
        });
        let before = db.metrics();
        let measured = run_window(
            w,
            &world.tapes,
            &mut pos,
            args.seconds / ROUNDS as f64,
            SLICES_PER_ROUND,
            |_| db.session(),
        );
        let after = db.metrics();
        for (sum, name) in counters.iter_mut().zip(COUNTERS) {
            *sum = sum
                .zip(counter_delta(&before, &after, name))
                .map(|(a, b)| a + b);
        }
        let mut round_tally = warm.tally;
        round_tally.add(&measured.tally);
        total.add(&round_tally);
        match &mut window {
            Some(win) => win.absorb(measured),
            None => window = Some(measured),
        }
        last = Some((world, pos, round_tally));
    }
    let peak_rss_mb = env::peak_rss_mb();
    let window = window.expect("ROUNDS >= 1");
    let (world, mut pos, round_tally) = last.expect("ROUNDS >= 1");
    let World {
        mut db,
        dir,
        tapes,
        loaded_keys,
        config,
        ..
    } = world;

    // Each workload must exercise the layer it was built for.
    let mut problems: Vec<String> = Vec::new();
    let [cache_hits, cache_misses, wal_bytes] = counters;
    let hit_rate = cache_hits
        .zip(cache_misses)
        .map(|(h, m)| h / (h + m).max(1.0));
    if w.name == "mem.point.resident" && cache_misses.is_some_and(|m| m != 0.0) {
        problems.push(format!(
            "resident workload missed the pool {cache_misses:?} times"
        ));
    }
    if w.name == "durable.get.cold" && hit_rate.is_some_and(|r| r >= 0.6) {
        problems.push(format!(
            "cold workload hit the pool at {hit_rate:?}, want < 0.6"
        ));
    }

    // Correctness of what the last round left behind.
    let expected_keys = loaded_keys + round_tally.inserted - round_tally.deleted;
    let mut live = audit(&db, expected_keys);
    problems.append(&mut live.problems);
    let mut disk_bytes = None;
    let mut crash = None;
    if let Some(dir) = &dir {
        // Checkpoint, so the space ratio counts a settled store and the
        // reopen below is not a second replay of the whole load (set-up's
        // reopen and the crash check both exercise replay).
        ctx(db.checkpoint(), "final checkpoint")?;
        disk_bytes = Some(dir_bytes(dir) as f64);
        drop(db);
        db = ctx(Db::open(w.run_config(Some(dir))), "reopen after windows")?;
        let reopened = audit(&db, expected_keys);
        problems.extend(
            reopened
                .problems
                .into_iter()
                .map(|p| format!("after reopen: {p}")),
        );
        if w.group_commit {
            crash = Some(crash_check(w, db, dir, &tapes[0], &mut pos[0], args.seed)?);
        } else {
            drop(db);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    let (acknowledged, violations) = crash
        .as_ref()
        .map_or((0, 0), |c| (c.acknowledged, c.violations));
    if let Some(c) = &mut crash {
        problems.append(&mut c.problems);
    }
    let gated = |name: &str| match name {
        "ops_per_s" => Some(window.ops_per_s()),
        "get_p50_us" => window.percentile_us(Kind::Get, 50.0),
        "get_p95_us" => window.percentile_us(Kind::Get, 95.0),
        "peak_rss_mb" => peak_rss_mb,
        "setup_s" => Some(median(setup_s.iter().copied())),
        _ => None,
    };

    for s in END_TO_END {
        if gated(s.name).is_none() {
            problems.push(format!("{} was not measured", s.name));
        }
    }

    let attempted = total.attempted + acknowledged;
    // Each problem the audits found is one more failure on top of the ops
    // that failed outright.
    let failed = total.failed + violations + problems.len() as u64;
    if let Some(f) = &total.first_failure {
        problems.push(format!("first failed op: {f}"));
    }

    // Printed beside the gated sheet but not gated: numbers that exist
    // only on some workloads, or whose spread is too wide to bound.
    let mut diags: Vec<(String, &str, Option<f64>)> = Vec::new();
    let mut diag = |name: &str, unit, value| diags.push((name.to_string(), unit, value));
    diag(
        "failed_ops_share",
        "share",
        Some(failed as f64 / attempted.max(1) as f64),
    );
    for kind in Kind::ALL {
        let (h, n) = (window.hist(kind), kind.name());
        diag(&format!("{n}_samples"), "count", Some(h.count() as f64));
        if kind != Kind::Get {
            diag(
                &format!("{n}_p50_us"),
                "us",
                window.percentile_us(kind, 50.0),
            );
        }
        diag(
            &format!("{n}_p99_us"),
            "us",
            window.percentile_us(kind, 99.0),
        );
        // Over the whole window, and only with ten samples beyond it.
        let p999 = h.percentile(99.9).filter(|_| h.count() >= 10_000);
        diag(&format!("{n}_p999_us"), "us", p999.map(|ns| ns / 1e3));
    }
    let gets = (total.get_hits + total.get_misses).max(1) as f64;
    let put_bytes = window.tally.put_user_bytes as f64;
    diag("get_hit_share", "share", Some(total.get_hits as f64 / gets));
    diag(
        "reopen_s",
        "s",
        (!reopen_s.is_empty()).then(|| median(reopen_s.iter().copied())),
    );
    diag(
        "wal_bytes_per_user_byte",
        "ratio",
        wal_bytes
            .filter(|_| w.durable && put_bytes > 0.0)
            .map(|b| b / put_bytes),
    );
    diag(
        "disk_bytes_per_user_byte",
        "ratio",
        disk_bytes.map(|b| b / live.user_bytes.max(1) as f64),
    );
    diag("live_keys", "count", Some(live.keys as f64));
    diag("pool_hit_rate", "share", hit_rate);
    diag("cache_misses", "count", cache_misses);
    if crash.is_some() {
        diag(
            "crash.acknowledged_puts",
            "count",
            Some(acknowledged as f64),
        );
        diag(
            "crash.durability_violations",
            "count",
            Some(violations as f64),
        );
    }

    println!(
        "# {} seed {}: {} rounds of set-up + {} s window ({} ops, {} clients, closed loop)",
        w.name,
        args.seed,
        ROUNDS,
        window.seconds() / ROUNDS as f64,
        window.ops(),
        CLIENTS
    );
    for s in END_TO_END {
        println!(
            "{:<28} {:>16.4} {}",
            s.name,
            gated(s.name).unwrap_or(f64::NAN),
            s.unit
        );
    }
    let mut diag_json = Json::obj();
    for (name, unit, value) in &diags {
        match value {
            Some(v) => println!("  {name:<32} {v:>14.4} {unit}"),
            None => println!("  {name:<32} {:>14} {unit}", "null"),
        }
        diag_json.set(name, Json::obj().with("value", *value).with("unit", *unit));
    }
    for p in &problems {
        println!("PROBLEM {p}");
    }

    let result = result_line(
        failed == 0,
        attempted,
        failed,
        metrics_json(END_TO_END, gated),
    );
    let record = env::fingerprint(args)
        .with("workload", w.name)
        .with("why", w.why)
        .with("config", config)
        .with("result", result.clone())
        .with("diagnostics", diag_json)
        .with("slice_ops_per_s", nums(&window.slice_ops_per_s()))
        .with(
            "slice_get_p50_us",
            nums(&window.slice_percentiles_us(Kind::Get, 50.0)),
        )
        .with(
            "slice_get_p95_us",
            nums(&window.slice_percentiles_us(Kind::Get, 95.0)),
        )
        .with("setup_s_each", nums(&setup_s))
        .with(
            "problems",
            problems
                .iter()
                .map(|p| Json::from(p.as_str()))
                .collect::<Vec<_>>(),
        );
    env::write_record(
        &args.out_dir,
        &format!("{}-{}-{}-e2e", env::commit(), args.seed, w.name),
        &record,
    );
    println!("{}", result.encode());
    Ok(0)
}

fn nums(values: &[f64]) -> Vec<Json> {
    values.iter().map(|&v| Json::from(v)).collect()
}

struct CrashOutcome {
    acknowledged: u64,
    violations: u64,
    problems: Vec<String>,
}

/// The durability check: one client arms a simulated crash a seeded number
/// of WAL records ahead, keeps putting until the first error, and after a
/// reopen every put that was acknowledged must read back exactly.
fn crash_check(
    w: &Workload,
    db: Db,
    dir: &std::path::Path,
    tape: &[blink_benchmark::tape::Op],
    pos: &mut usize,
    seed: u64,
) -> Res<CrashOutcome> {
    let fault = db
        .durable()
        .ok_or("crash check needs a durable store")?
        .fault();
    fault.crash_after_wal_records(2_000 + seed % 1_000);
    let mut acked: HashMap<u64, usize> = HashMap::new();
    let mut buf = [0u8; 1 << 10];
    let mut tally = Tally::default();
    {
        let mut s = db.session();
        // The budget is in records and every put logs at least one, so the
        // crash arrives well within this many ops.
        for _ in 0..100_000 {
            let op = tape[*pos % tape.len()];
            *pos += 1;
            if op.kind != Kind::Put {
                continue;
            }
            let value = fill_value(&mut buf, op.key, op.len as usize);
            run_op(&mut s, w, op, value, &mut tally);
            if tally.failed > 0 {
                break;
            }
            acked.insert(op.key, op.len as usize);
        }
    }
    let mut out = CrashOutcome {
        acknowledged: acked.len() as u64,
        violations: 0,
        problems: Vec::new(),
    };
    if tally.failed == 0 {
        out.problems
            .push("the injected crash never surfaced".to_string());
    }
    drop(db);
    let t0 = Instant::now();
    let db = ctx(Db::open(w.run_config(Some(dir))), "reopen after crash")?;
    let recover_s = t0.elapsed().as_secs_f64();
    {
        let mut s = db.session();
        for (&key, &len) in &acked {
            let ok = s.get_with(key, |v| v.len() == len && value_ok(key, v));
            if !matches!(ok, Ok(Some(true))) {
                out.violations += 1;
                if out.violations == 1 {
                    out.problems.push(format!("durability violation: acknowledged put({key}, {len} B) unreadable after crash: {ok:?}"));
                }
            }
        }
    }
    match db.verify() {
        Ok(rep) => out
            .problems
            .extend(rep.errors.into_iter().map(|e| format!("after crash: {e}"))),
        Err(e) => out.problems.push(format!("verify() after crash: {e}")),
    }
    eprintln!(
        "crash check: {} acknowledged puts, {} violations, recovered in {recover_s:.3} s",
        out.acknowledged, out.violations
    );
    Ok(out)
}
