//! E1 — Locks held simultaneously per operation type.
//!
//! Paper claims (§1, §3.1, Thm 1/2): a Sagiv **insertion locks only one
//! node at any time**, vs **2–3** in Lehman–Yao; Sagiv **searches use no
//! locks**; a **compression process locks three nodes simultaneously**;
//! top-down solutions lock every node on the path, readers included.
//!
//! Prints the E1 table, now with the *waiting* half of the claim: lock
//! counts say how often each algorithm locks, the windowed per-layer wait
//! histograms (paper locks and rw-locks) say how long contended
//! acquisitions actually stalled — p50/p99, not just sums.

use blink_baselines::ConcurrentIndex;
use blink_bench::{banner, lehman_yao, sagiv, scale, topdown};
use blink_harness::hist::{fmt_ns, Histogram};
use blink_harness::runner::{run_workload, RunConfig};
use blink_harness::Table;
use blink_pagestore::StatsSnapshot;
use blink_workload::{KeyDist, Mix};
use std::sync::Arc;

/// Combined contended-wait distribution of the paper's queue locks and
/// the baselines' rw-locks over one measured phase.
fn wait_hist(d: &StatsSnapshot) -> Histogram {
    let mut h = d.hist("lock_wait_hist").cloned().unwrap_or_default();
    if let Some(rw) = d.hist("rw_wait_hist") {
        h.merge(rw);
    }
    h
}

/// `"p50/p99"` cell for a wait histogram ("-" when never contended).
fn wait_label(h: &Histogram) -> String {
    if h.count() == 0 {
        "-".into()
    } else {
        format!(
            "{}/{}",
            fmt_ns(h.percentile(50.0)),
            fmt_ns(h.percentile(99.0))
        )
    }
}

fn phase(index: &Arc<dyn ConcurrentIndex>, mix: Mix, preload: u64) -> blink_harness::RunResult {
    let cfg = RunConfig {
        threads: 8,
        ops_per_thread: scale(20_000) as usize,
        key_space: 200_000,
        dist: KeyDist::Uniform,
        mix,
        preload,
        seed: 1,
        ..RunConfig::default()
    };
    run_workload(index, &cfg)
}

fn main() {
    banner(
        "E1: simultaneous locks per operation",
        "insertions lock ONE node (vs 2-3 in Lehman-Yao); searches lock none; \
         compression locks three; top-down readers lock every level",
    );
    let k = 16;
    let mut table = Table::new(vec![
        "algorithm",
        "operation",
        "locks/op",
        "mean simult.",
        "max simult.",
        "waits",
        "wait p50/p99",
        "paper bound",
    ]);

    let trees: Vec<(Arc<dyn ConcurrentIndex>, [&str; 3])> = vec![
        (sagiv(k), ["1", "0", "1"]),
        (lehman_yao(k), ["3", "0", "3"]),
        (topdown(k), ["h+1 (excl.)", "h+1 (shared)", "h+1 (excl.)"]),
    ];

    for (index, bounds) in &trees {
        for (mix, op_name, bound) in [
            (Mix::INSERT_ONLY, "insert", bounds[0]),
            (Mix::SEARCH_ONLY, "search", bounds[1]),
            (
                Mix {
                    search_pct: 0,
                    insert_pct: 0,
                    delete_pct: 100,
                },
                "delete",
                bounds[2],
            ),
        ] {
            let preload = if mix == Mix::INSERT_ONLY {
                0
            } else {
                scale(100_000)
            };
            let r = phase(index, mix, preload);
            let waits = wait_hist(&r.store_delta);
            table.row(vec![
                index.name().to_string(),
                op_name.to_string(),
                format!("{:.2}", r.locks_per_op()),
                format!("{:.2}", r.sessions.mean_simultaneous_locks()),
                format!("{}", r.sessions.max_simultaneous_locks),
                waits.count().to_string(),
                wait_label(&waits),
                bound.to_string(),
            ]);
        }
    }

    // Sagiv compression workers: drain the queue left by the delete phase
    // of a fresh tree and measure the worker session.
    let t = sagiv(k);
    {
        let idx: Arc<dyn ConcurrentIndex> = Arc::clone(&t) as _;
        let _ = phase(
            &idx,
            Mix {
                search_pct: 0,
                insert_pct: 0,
                delete_pct: 100,
            },
            scale(100_000),
        );
    }
    let mut worker = t.session();
    let drain_before = t.store().stats().snapshot();
    t.compress_drain(&mut worker, 1_000_000).unwrap();
    let drain_waits = wait_hist(&t.store().stats().snapshot().delta(&drain_before));
    let st = worker.stats();
    table.row(vec![
        "sagiv".to_string(),
        "compress".to_string(),
        format!("{:.2}", st.locks_acquired as f64 / st.ops.max(1) as f64),
        format!("{:.2}", st.mean_simultaneous_locks()),
        format!("{}", st.max_simultaneous_locks),
        drain_waits.count().to_string(),
        wait_label(&drain_waits),
        "3".to_string(),
    ]);

    print!("{table}");
    println!();
    println!(
        "note: top-down 'locks/op' counts shared+exclusive rw-locks (prime block + one per \
         level); Sagiv/Lehman-Yao searches acquire none by design. the wait columns are \
         contended acquisitions only — an uncontended lock records nothing."
    );
}
