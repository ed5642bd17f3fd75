//! Database configuration.

use blink_durable::FsyncPolicy;
use sagiv_blink::TreeConfig;
use std::path::PathBuf;
use std::time::Duration;

/// Configuration for [`crate::Db::open`].
///
/// The two constructors cover the two deployments: [`DbConfig::in_memory`]
/// (the paper's §2.2 volatile store) and [`DbConfig::durable`] (page file +
/// WAL in a directory, crash-recovered on open). Everything else has
/// production defaults and plain public fields for tuning. Durable stores
/// always run the background flusher and per-page CRC32 checksums;
/// in-memory stores run neither.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Durable store directory; `None` for a purely in-memory database.
    pub dir: Option<PathBuf>,
    /// Page size for index nodes and heap pages (they share one store).
    pub page_size: usize,
    /// Index tuning (`k`, underflow policy, restart bounds, …). The
    /// `external_pages` hook is managed by `Db` — any value set here is
    /// overwritten.
    pub tree: TreeConfig,
    /// Commit durability policy (durable stores only).
    pub fsync: FsyncPolicy,
    /// WAL segment size before rotation (durable stores only).
    pub segment_bytes: u64,
    /// Buffer-pool frames over the shared store.
    pub pool_frames: usize,
    /// Record-heap insertion shards (independent open pages, one mutex
    /// each; thread identity picks the shard, so concurrent `put`s of new
    /// records never contend on one allocator). `0` means auto — one shard
    /// per available CPU, capped at 16.
    pub heap_shards: usize,
    /// Serve page-file reads from a read-only `mmap` (durable stores
    /// only): pool misses copy from the mapping instead of issuing a
    /// `pread` syscall. Defaults from the `BLINK_MMAP=1` environment
    /// variable so the whole suite can run against the mapped backend.
    pub mmap_backend: bool,
}

impl DbConfig {
    /// An in-memory database: no WAL, no files, `open` never recovers.
    pub fn in_memory() -> DbConfig {
        DbConfig {
            dir: None,
            page_size: 4096,
            tree: TreeConfig::default(),
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 20,
            pool_frames: 1024,
            heap_shards: 0,
            mmap_backend: std::env::var("BLINK_MMAP").is_ok_and(|v| v == "1"),
        }
    }

    /// A durable database in `dir` (created on first open, recovered on
    /// every later one). Defaults: 4 KiB pages, fsync on every commit.
    pub fn durable(dir: impl Into<PathBuf>) -> DbConfig {
        DbConfig {
            dir: Some(dir.into()),
            ..DbConfig::in_memory()
        }
    }

    /// Same as [`DbConfig::durable`] with group commit in `window`.
    pub fn durable_group_commit(dir: impl Into<PathBuf>, window: Duration) -> DbConfig {
        DbConfig {
            fsync: FsyncPolicy::Group { window },
            ..DbConfig::durable(dir)
        }
    }

    /// Sets the index order `k` (every node holds `k..=2k` pairs).
    pub fn with_k(mut self, k: usize) -> DbConfig {
        self.tree.k = k;
        self
    }

    /// Sets the number of record-heap insertion shards (`0` = auto).
    pub fn with_heap_shards(mut self, shards: usize) -> DbConfig {
        self.heap_shards = shards;
        self
    }
}
