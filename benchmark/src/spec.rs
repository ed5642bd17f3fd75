//! What the ruler is made of: the four named workloads and the metric
//! names, units and regression bounds. `BENCHMARK.json` at the repo root
//! states the same names; `tests/names.rs` keeps the two in step.

use blink_db::DbConfig;
use blink_durable::FsyncPolicy;
use std::path::Path;
use std::time::Duration;

/// Closed loop: each client issues its next op when the previous one
/// returned, as callers of an embedded store do. Two, because `nproc` = 2
/// on the reference sandbox.
pub const CLIENTS: usize = 2;
/// Ops pre-generated per client during set-up (the tape wraps if a window
/// outruns it), so generator cost stays out of the timed loop.
pub const TAPE_LEN: usize = 1 << 20;
/// Pairs one scan op reads.
pub const SCAN_LEN: usize = 100;
/// An end-to-end run sets up from scratch this many times and measures a
/// share of the window on each: `setup_s` is the median set-up, and the
/// window samples that many separately built databases.
pub const ROUNDS: usize = 3;
/// Each round's share of the window is cut into this many slices. Every
/// end-to-end rate and percentile is the median over all slices of all
/// rounds, so one stall (an fsync hiccup, a noisy neighbour) cannot move
/// the reported number.
pub const SLICES_PER_ROUND: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    Uniform,
    /// Scrambled zipfian with this theta.
    Zipf(f64),
}

/// Which keys of `[0, key_space)` are loaded before the windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preload {
    All,
    /// Even keys.
    Half,
    /// Keys not divisible by three.
    TwoThirds,
}

/// Op shares in percent; they sum to 100.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub get: u8,
    pub put: u8,
    pub delete: u8,
    pub scan: u8,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub durable: bool,
    pub key_space: u64,
    pub preload: Preload,
    /// Value length range, inclusive. Values are never shorter than
    /// [`crate::tape::VALUE_HEADER`].
    pub value_len: (u16, u16),
    pub dist: Dist,
    pub mix: Mix,
    /// `None` keeps `DbConfig`'s default pool.
    pub pool_frames: Option<usize>,
    /// Durable only: checkpoint before the drop/reopen (else the reopen
    /// replays the whole load from the WAL).
    pub checkpoint_before_reopen: bool,
    /// Durable only: run the windows at `FsyncPolicy::Group{500µs}`.
    pub group_commit: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "mem.point.resident",
        why: "in-memory, every page resident, 95% get / 5% same-size put, uniform: only core descent, heap read and pool lookup run, so read-path CPU shows here and WAL/backend work must not",
        durable: false,
        key_space: 500_000,
        preload: Preload::All,
        value_len: (64, 64),
        dist: Dist::Uniform,
        mix: Mix { get: 95, put: 5, delete: 0, scan: 0 },
        pool_frames: Some(32_768),
        checkpoint_before_reopen: false,
        group_commit: false,
    },
    Workload {
        name: "mem.churn.zipf",
        why: "in-memory, default pool, scrambled zipfian 0.99, 40% get / 30% put / 20% delete / 10% scan: splits, heap churn, evictions, hot-leaf contention, so a read-path gain that taxes writers or scans shows",
        durable: false,
        key_space: 1_000_000,
        preload: Preload::Half,
        value_len: (32, 256),
        dist: Dist::Zipf(0.99),
        mix: Mix { get: 40, put: 30, delete: 20, scan: 10 },
        pool_frames: None,
        checkpoint_before_reopen: false,
        group_commit: false,
    },
    Workload {
        name: "durable.get.cold",
        why: "durable, data 10x the default pool, checkpointed and reopened, read-only 95% get / 5% scan, uniform: the pool-miss path (eviction, page-file read, CRC verify, decode) does the work",
        durable: true,
        key_space: 100_000,
        preload: Preload::All,
        value_len: (416, 416),
        dist: Dist::Uniform,
        mix: Mix { get: 95, put: 0, delete: 0, scan: 5 },
        pool_frames: None,
        checkpoint_before_reopen: true,
        group_commit: false,
    },
    Workload {
        name: "durable.put.group",
        why: "durable, group commit 500us, reopened by WAL replay, 50% put / 25% delete / 25% get, uniform: WAL staging, commit window and fsync dominate, and acknowledged puts must survive an injected crash",
        durable: true,
        key_space: 90_000,
        preload: Preload::TwoThirds,
        value_len: (64, 64),
        dist: Dist::Uniform,
        mix: Mix { get: 25, put: 50, delete: 25, scan: 0 },
        pool_frames: None,
        checkpoint_before_reopen: false,
        group_commit: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn is_preloaded(&self, key: u64) -> bool {
        match self.preload {
            Preload::All => true,
            Preload::Half => key.is_multiple_of(2),
            Preload::TwoThirds => !key.is_multiple_of(3),
        }
    }

    /// True when nothing in the mix removes a key and every key is loaded:
    /// a get that finds nothing is then a wrong result, not a miss.
    pub fn every_get_hits(&self) -> bool {
        self.preload == Preload::All && self.mix.delete == 0
    }

    /// The configuration the windows run under. Default `DbConfig`
    /// everywhere except the fields stated in the workload, so no knob a
    /// later PR may delete is pinned here.
    pub fn run_config(&self, dir: Option<&Path>) -> DbConfig {
        let mut cfg = match dir {
            Some(dir) if self.group_commit => {
                DbConfig::durable_group_commit(dir, Duration::from_micros(500))
            }
            Some(dir) => DbConfig::durable(dir),
            None => DbConfig::in_memory(),
        };
        if let Some(frames) = self.pool_frames {
            cfg.pool_frames = frames;
        }
        cfg
    }

    /// The configuration the preload runs under: the workload's own, except
    /// that a durable load does not wait for fsyncs.
    pub fn load_config(&self, dir: Option<&Path>) -> DbConfig {
        let mut cfg = self.run_config(dir);
        if self.durable {
            cfg.fsync = FsyncPolicy::Never;
        }
        cfg
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: &'static str, b: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(b),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The gated sheet: defined, and never zero, on every workload (every mix
/// has gets), and steady enough on the reference sandbox to bound (see the
/// README's calibration table — `get_p99_us` was not). Per-op-type
/// latencies that only some mixes have, the durable space and write-cost
/// ratios and `reopen_s` are printed beside these as diagnostics.
pub const END_TO_END: &[MetricSpec] = &[
    gated("ops_per_s", "1/s", "higher", 0.25),
    gated("get_p50_us", "us", "lower", 0.25),
    gated("get_p95_us", "us", "lower", 0.25),
    gated("peak_rss_mb", "MB", "lower", 0.08),
    gated("setup_s", "s", "lower", 0.25),
];

pub const PER_LAYER: &[MetricSpec] = &[
    // crates/db: the composition glue around the layer calls.
    layer("db.self_us_per_op", "us", "lower"),
    layer("db.throttle_us_per_op", "us", "lower"),
    // crates/core: tree ops, traversal, node codec, scan cursor.
    layer("core.search_us", "us", "lower"),
    layer("core.upsert_us", "us", "lower"),
    layer("core.delete_us", "us", "lower"),
    layer("core.scan_us_per_pair", "us", "lower"),
    layer("core.link_follows_per_op", "count", "lower"),
    layer("core.restarts_per_op", "count", "lower"),
    layer("core.optimistic_fallback_share", "share", "lower"),
    layer("core.lock_wait_us_per_op", "us", "lower"),
    layer("core.height", "count", "lower"),
    // crates/pagestore heap.
    layer("heap.read_us", "us", "lower"),
    layer("heap.insert_us", "us", "lower"),
    layer("heap.update_us", "us", "lower"),
    layer("heap.free_us", "us", "lower"),
    layer("heap.inplace_update_share", "share", "higher"),
    layer("heap.slot_reuse_share", "share", "higher"),
    layer("heap.shard_wait_us_per_op", "us", "lower"),
    layer("heap.bytes_per_user_byte", "ratio", "lower"),
    // crates/pagestore pool + store guards.
    layer("pool.hit_rate", "share", "higher"),
    layer("pool.page_reads_per_op", "count", "lower"),
    layer("pool.evictions_per_op", "count", "lower"),
    layer("pool.dirty_writebacks_per_op", "count", "lower"),
    layer("pool.wait_us_per_op", "us", "lower"),
    layer("pool.read_hit_ns", "ns", "lower"),
    layer("pool.read_miss_ns", "ns", "lower"),
    layer("pool.write_commit_ns", "ns", "lower"),
    // crates/durable WAL.
    layer("wal.bytes_per_put", "B", "lower"),
    layer("wal.records_per_put", "count", "lower"),
    layer("wal.fsyncs_per_put", "count", "lower"),
    layer("wal.group_size", "count", "higher"),
    layer("wal.append_wait_us_per_put", "us", "lower"),
    layer("wal.commit_wait_us_per_put", "us", "lower"),
    layer("wal.fsync_us", "us", "lower"),
    layer("wal.pipeline_depth", "share", "higher"),
    layer("wal.commit_span_us", "us", "lower"),
    layer("wal.append_ns_per_record", "ns", "lower"),
    // Page backends, opened directly on a scratch file.
    layer("backend.mem.read_ns", "ns", "lower"),
    layer("backend.mem.write_ns", "ns", "lower"),
    layer("backend.file.read_ns", "ns", "lower"),
    layer("backend.file.write_ns", "ns", "lower"),
    layer("backend.file.sync_us", "us", "lower"),
    layer("backend.mmap.read_ns", "ns", "lower"),
    layer("backend.mmap.write_ns", "ns", "lower"),
    layer("backend.mmap.sync_us", "us", "lower"),
    layer("backend.reads_per_op", "count", "lower"),
    layer("backend.writes_per_op", "count", "lower"),
    // crates/pagestore background flusher.
    layer("flusher.pages_written", "count", "lower"),
    layer("flusher.wakeups", "count", "lower"),
    layer("flusher.backpressure_us_per_op", "us", "lower"),
    // crates/durable store: checkpoint and recovery.
    layer("checkpoint_s", "s", "lower"),
    layer("recover.replayed_records", "count", "lower"),
    layer("recover.records_per_s", "1/s", "higher"),
    // Untraced vs traced ops_per_s on the same workload.
    layer("trace_overhead_pct", "%", "lower"),
];
