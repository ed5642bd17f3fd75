//! `paper` — reproduces the paper's claims and figures over the index
//! alone and prints paper-vs-measured tables, one subcommand each.
//!
//! `paper <name>` runs one experiment (`paper --list` names them all) and
//! `paper all` runs every one in order. Each asserts what it claims
//! (no errored operation, a verified tree), so a run that finishes is also
//! a smoke test. Set `QUICK=1` to shrink the workloads ~10× for smoke
//! runs. `Db` end to end is measured by the benchmark in `benchmark/`.

mod compression;
mod figures;
mod locks;
mod safety;
mod throughput;

use blink_baselines::{ConcurrentIndex, LehmanYaoTree, TopDownTree};
use blink_harness::runner::RunConfig;
use blink_harness::workload::{KeyDist, Mix};
use blink_pagestore::{MemBackend, PageStore, StoreConfig, StoreStats};
use sagiv_blink::{BLinkTree, TreeConfig, UnderflowPolicy};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Every experiment in the order `paper all` runs them: its name, what it
/// reproduces, and its entry point.
const EXPERIMENTS: [(&str, &str, fn()); 13] = [
    ("exp1", "locks held per operation (§1)", locks::exp1),
    ("exp2", "scalability vs [8], top-down", throughput::exp2),
    ("exp3", "space under deletions (§5)", compression::exp3),
    ("exp4", "restarts under compression", compression::exp4),
    ("exp5", "link follows vs locks (§1)", locks::exp5),
    ("exp6", "passes to collapse (§5.1)", compression::exp6),
    ("exp7", "deadlock freedom (Thm 1/2)", safety::exp7),
    ("exp8", "linearizable histories", safety::exp8),
    ("exp9", "design-detail ablations", compression::exp9),
    ("exp10", "page-access latency (§2.2)", throughput::exp10),
    ("fig1", "node layout (Fig. 1)", figures::fig1),
    ("fig2", "level repetition (Fig. 2)", figures::fig2),
    ("fig3", "two-step split (Fig. 3)", figures::fig3),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprint!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// Runs what `args` names; an unknown or missing name is an error that
/// carries the usage and the list.
fn dispatch(args: &[String]) -> Result<(), String> {
    match args {
        [a] if a == "--list" => print!("{}", list()),
        [a] if a == "all" => {
            for (_, _, run) in EXPERIMENTS {
                run();
                println!();
            }
        }
        [a] => match EXPERIMENTS.iter().find(|(name, ..)| name == a) {
            Some((_, _, run)) => run(),
            None => return Err(format!("unknown experiment `{a}`\n{}", usage())),
        },
        _ => return Err(usage()),
    }
    Ok(())
}

fn usage() -> String {
    format!("usage: paper <experiment> | all | --list\n\n{}", list())
}

fn list() -> String {
    EXPERIMENTS
        .iter()
        .map(|(name, what, _)| format!("{name:<6} {what}\n"))
        .collect()
}

/// True when `QUICK=1` (CI / smoke mode).
fn quick() -> bool {
    std::env::var("QUICK").map(|v| v == "1").unwrap_or(false)
}

/// Scales a workload size down 10× in quick mode.
fn scale(n: u64) -> u64 {
    if quick() {
        (n / 10).max(1)
    } else {
        n
    }
}

/// Prints a standard experiment header.
fn banner(id: &str, claim: &str) {
    println!("=== {id} ===");
    println!("paper claim: {claim}");
    if quick() {
        println!("(QUICK mode: workloads scaled down ~10x)");
    }
    println!();
}

/// The run most experiments measure: 8 threads, `ops` operations each
/// (scaled by `QUICK`).
fn run_config(
    ops: u64,
    key_space: u64,
    dist: KeyDist,
    mix: Mix,
    preload: u64,
    seed: u64,
) -> RunConfig {
    RunConfig {
        threads: 8,
        ops_per_thread: scale(ops) as usize,
        duration: None,
        key_space,
        dist,
        mix,
        preload,
        seed,
    }
}

/// A fresh page store with 4 KiB pages, every page resident.
fn fresh_store() -> Arc<PageStore> {
    PageStore::new(StoreConfig::with_page_size(4096))
}

/// A fresh store of 4 KiB pages over a `MemBackend` that spins `delay` on
/// every access, behind a buffer pool of `frames` frames. With no frames
/// every access is a backend access — the literal §2.2 model.
fn fresh_store_io(delay: Duration, frames: usize) -> Arc<PageStore> {
    let cfg = StoreConfig {
        page_size: 4096,
        pool_frames: frames,
    };
    let backend = Box::new(MemBackend::with_latency(cfg.page_size, delay));
    PageStore::with_parts(cfg, backend, None, Arc::new(StoreStats::default()), &[])
        .expect("a journal-less store over memory cannot fail to build")
}

/// A Sagiv tree over a fresh store.
fn sagiv_with(cfg: TreeConfig) -> Arc<BLinkTree> {
    BLinkTree::create(fresh_store(), cfg).unwrap()
}

/// Sagiv tree with queue-compression enabled.
fn sagiv(k: usize) -> Arc<BLinkTree> {
    sagiv_with(TreeConfig::with_k(k))
}

/// Sagiv tree with \[8\]-style trivial deletions (no enqueue).
fn sagiv_no_compress(k: usize) -> Arc<BLinkTree> {
    sagiv_with(TreeConfig::with_k_and_policy(k, UnderflowPolicy::Ignore))
}

/// Sagiv, Lehman–Yao and top-down, in that order, with the same `k`, each
/// over its own store from `store`.
fn indexes_over(k: usize, store: impl Fn() -> Arc<PageStore>) -> Vec<Arc<dyn ConcurrentIndex>> {
    vec![
        BLinkTree::create(store(), TreeConfig::with_k(k)).unwrap(),
        LehmanYaoTree::create(store(), k).unwrap(),
        TopDownTree::create(store(), k).unwrap(),
    ]
}

/// The three indexes over fresh in-memory stores.
fn all_indexes(k: usize) -> Vec<Arc<dyn ConcurrentIndex>> {
    indexes_over(k, fresh_store)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn list_names_each_experiment_exactly_once() {
        let list = list();
        let names: Vec<&str> = list
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let want: Vec<String> = (1..=10)
            .map(|i| format!("exp{i}"))
            .chain((1..=3).map(|i| format!("fig{i}")))
            .collect();
        assert_eq!(names, want);
        assert!(dispatch(&args(&["--list"])).is_ok());
    }

    #[test]
    fn an_unknown_name_fails_and_prints_the_list() {
        for bad in [&["exp11"][..], &["fig"], &[], &["exp1", "exp2"]] {
            let err = dispatch(&args(bad)).unwrap_err();
            assert!(err.contains(&list()), "{bad:?}: {err}");
        }
        let err = dispatch(&args(&["exp11"])).unwrap_err();
        assert!(err.starts_with("unknown experiment `exp11`"), "{err}");
    }

    #[test]
    fn the_figures_run_in_process() {
        for fig in ["fig1", "fig2", "fig3"] {
            dispatch(&args(&[fig])).unwrap();
        }
    }
}
