//! Multi-threaded workload runner over any [`ConcurrentIndex`].

use crate::hist::Histogram;
use crate::linearize::{Event, EventResult};
use crate::workload::{KeyDist, Mix, OpGenerator, OpKind};
use blink_baselines::ConcurrentIndex;
use blink_pagestore::stats::StatsSnapshot;
use blink_pagestore::SessionStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Parameters of one measured run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads.
    pub threads: usize,
    /// Operations per thread (ignored when `duration` is set).
    pub ops_per_thread: usize,
    /// If set, run for this long instead of a fixed op count.
    pub duration: Option<Duration>,
    /// Key space `0..key_space`.
    pub key_space: u64,
    /// Key distribution.
    pub dist: KeyDist,
    /// Operation mix.
    pub mix: Mix,
    /// Keys preloaded before measuring (spread evenly over the key space).
    pub preload: u64,
    /// Base seed; thread `t` uses `seed + t`.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            threads: 4,
            ops_per_thread: 10_000,
            duration: None,
            key_space: 100_000,
            dist: KeyDist::Uniform,
            mix: Mix::BALANCED,
            preload: 50_000,
            seed: 0xB11A_5EED,
        }
    }
}

/// Aggregated results of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Index under test.
    pub name: &'static str,
    /// Wall-clock time of the measured phase.
    pub wall: Duration,
    /// Operations completed (all kinds).
    pub total_ops: u64,
    /// Operations that returned an error (restart-budget exhaustion).
    pub errors: u64,
    /// Latency per operation kind (ns).
    pub search_lat: Histogram,
    pub insert_lat: Histogram,
    pub delete_lat: Histogram,
    /// Merged per-process stats (locks, restarts, link follows).
    pub sessions: SessionStats,
    /// Store counter delta over the measured phase.
    pub store_delta: StatsSnapshot,
}

impl RunResult {
    /// Throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.wall.as_secs_f64()
    }

    /// Restarts per 1000 operations.
    pub fn restarts_per_kop(&self) -> f64 {
        1000.0 * self.sessions.restarts as f64 / self.total_ops.max(1) as f64
    }

    /// Link follows per operation.
    pub fn links_per_op(&self) -> f64 {
        self.sessions.link_follows as f64 / self.total_ops.max(1) as f64
    }

    /// Lock acquisitions per operation.
    pub fn locks_per_op(&self) -> f64 {
        self.sessions.locks_acquired as f64 / self.total_ops.max(1) as f64
    }
}

/// Preloads `cfg.preload` keys spread evenly over the key space, so that
/// searches in the measured phase hit with probability ≈ preload/key_space.
pub fn preload(index: &dyn ConcurrentIndex, cfg: &RunConfig) {
    let mut s = index.session();
    if cfg.preload == 0 {
        return;
    }
    let stride = (cfg.key_space / cfg.preload).max(1);
    for i in 0..cfg.preload {
        let key = (i * stride) % cfg.key_space;
        index.insert(&mut s, key, key).expect("preload insert");
    }
}

/// The preloaded key set (for the linearizability checker).
pub fn preload_keys(cfg: &RunConfig) -> std::collections::HashSet<u64> {
    let mut set = std::collections::HashSet::new();
    if cfg.preload == 0 {
        return set;
    }
    let stride = (cfg.key_space / cfg.preload).max(1);
    for i in 0..cfg.preload {
        set.insert((i * stride) % cfg.key_space);
    }
    set
}

/// Runs the measured phase (after preloading) and aggregates metrics.
pub fn run_workload(index: &Arc<dyn ConcurrentIndex>, cfg: &RunConfig) -> RunResult {
    preload(index.as_ref(), cfg);
    run_measured(index, cfg, false).0
}

/// Like [`run_workload`] but records every operation as an [`Event`] for
/// linearizability checking. Use modest op counts: histories on hot keys
/// must stay within the checker's per-key bound.
pub fn run_recorded(index: &Arc<dyn ConcurrentIndex>, cfg: &RunConfig) -> (RunResult, Vec<Event>) {
    preload(index.as_ref(), cfg);
    let (result, events) = run_measured(index, cfg, true);
    (result, events)
}

fn run_measured(
    index: &Arc<dyn ConcurrentIndex>,
    cfg: &RunConfig,
    record: bool,
) -> (RunResult, Vec<Event>) {
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));
    let epoch = Instant::now();
    let snap0 = index.store().stats().snapshot();

    let mut result = RunResult {
        name: index.name(),
        wall: Duration::ZERO,
        total_ops: 0,
        errors: 0,
        search_lat: Histogram::new(),
        insert_lat: Histogram::new(),
        delete_lat: Histogram::new(),
        sessions: SessionStats::default(),
        store_delta: StatsSnapshot::default(),
    };
    let mut all_events: Vec<Event> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..cfg.threads {
            let index = Arc::clone(index);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let cfg = cfg.clone();
            handles.push(scope.spawn(move || {
                let mut session = index.session();
                let mut gen = OpGenerator::new(
                    cfg.key_space,
                    cfg.dist.clone(),
                    cfg.mix,
                    cfg.seed + t as u64,
                );
                let mut search = Histogram::new();
                let mut insert = Histogram::new();
                let mut delete = Histogram::new();
                let mut events = Vec::new();
                let mut errors = 0u64;
                let mut ops = 0u64;
                barrier.wait();
                loop {
                    if cfg.duration.is_some() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    } else if ops >= cfg.ops_per_thread as u64 {
                        break;
                    }
                    let op = gen.next_op();
                    let t0 = Instant::now();
                    let start_ns = (t0 - epoch).as_nanos() as u64;
                    let outcome = match op.kind {
                        OpKind::Search => index
                            .search(&mut session, op.key)
                            .map(|r| EventResult::SearchFound(r.is_some())),
                        OpKind::Insert => index
                            .insert(&mut session, op.key, op.key)
                            .map(EventResult::Inserted),
                        OpKind::Delete => index
                            .delete(&mut session, op.key)
                            .map(|r| EventResult::Deleted(r.is_some())),
                    };
                    let end = Instant::now();
                    let lat = (end - t0).as_nanos() as u64;
                    match op.kind {
                        OpKind::Search => search.record(lat),
                        OpKind::Insert => insert.record(lat),
                        OpKind::Delete => delete.record(lat),
                    }
                    ops += 1;
                    match outcome {
                        Ok(result) => {
                            if record {
                                events.push(Event {
                                    key: op.key,
                                    result,
                                    start_ns,
                                    end_ns: (end - epoch).as_nanos() as u64,
                                });
                            }
                        }
                        Err(_) => errors += 1,
                    }
                }
                (search, insert, delete, session.stats(), events, errors, ops)
            }));
        }

        barrier.wait();
        let t0 = Instant::now();
        if let Some(d) = cfg.duration {
            std::thread::sleep(d);
            stop.store(true, Ordering::Relaxed);
        }
        for h in handles {
            let (search, insert, delete, stats, events, errors, ops) = h.join().expect("worker");
            result.search_lat.merge(&search);
            result.insert_lat.merge(&insert);
            result.delete_lat.merge(&delete);
            result.sessions.merge(&stats);
            result.errors += errors;
            result.total_ops += ops;
            all_events.extend(events);
        }
        result.wall = t0.elapsed();
    });

    result.store_delta = index.store().stats().snapshot().delta(&snap0);
    (result, all_events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_pagestore::{PageStore, StoreConfig};
    use sagiv_blink::{BLinkTree, TreeConfig};

    fn sagiv(k: usize) -> Arc<dyn ConcurrentIndex> {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        BLinkTree::create(store, TreeConfig::with_k(k)).unwrap()
    }

    #[test]
    fn fixed_ops_run_completes_and_counts() {
        let index = sagiv(8);
        let cfg = RunConfig {
            threads: 4,
            ops_per_thread: 2_000,
            key_space: 10_000,
            preload: 5_000,
            ..RunConfig::default()
        };
        let r = run_workload(&index, &cfg);
        assert_eq!(r.total_ops, 8_000);
        assert_eq!(r.errors, 0);
        assert!(r.ops_per_sec() > 0.0);
        assert!(r.search_lat.count() + r.insert_lat.count() + r.delete_lat.count() == 8_000);
        assert!(r.sessions.locks_acquired > 0);
        assert!(r.store_delta.gets > 0);
    }

    #[test]
    fn timed_run_stops() {
        let index = sagiv(8);
        let cfg = RunConfig {
            threads: 2,
            duration: Some(Duration::from_millis(100)),
            key_space: 1_000,
            preload: 500,
            ..RunConfig::default()
        };
        let t0 = Instant::now();
        let r = run_workload(&index, &cfg);
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert!(r.total_ops > 0);
    }

    #[test]
    fn recorded_history_is_linearizable() {
        let index = sagiv(4);
        let cfg = RunConfig {
            threads: 4,
            ops_per_thread: 1_000,
            key_space: 50_000, // large space keeps per-key histories short
            preload: 10_000,
            ..RunConfig::default()
        };
        let initial = preload_keys(&cfg);
        let (r, events) = run_recorded(&index, &cfg);
        assert_eq!(r.errors, 0);
        assert_eq!(events.len() as u64, r.total_ops);
        crate::linearize::check_history(&events, &initial).unwrap();
    }
}
