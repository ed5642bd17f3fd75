//! Database configuration.

use blink_durable::{DurableConfig, FsyncPolicy};
use sagiv_blink::{node, UnderflowPolicy};
use std::path::PathBuf;
use std::time::Duration;

/// Configuration for [`crate::Db::open`].
///
/// The two constructors cover the two deployments: [`DbConfig::in_memory`]
/// (the paper's §2.2 volatile store) and [`DbConfig::durable`] (page file +
/// WAL in a directory, crash-recovered on open). Everything else has
/// production defaults and plain public fields for tuning. There are no
/// behaviour switches: durable stores always run the background flusher
/// and per-page CRC32 checksums, in-memory stores run neither. A `Db` has
/// at most one background thread, its store's loop: the flusher and the
/// compression `underflow_policy` asks for are steps of it.
///
/// The index takes only `k` and `underflow_policy` from here;
/// [`crate::Db::open`] runs every other `sagiv_blink::TreeConfig` field at
/// its default and manages the `external_pages` hook itself.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Durable store directory; `None` for a purely in-memory database.
    pub dir: Option<PathBuf>,
    /// Page size for index nodes and heap pages (they share one store).
    /// [`crate::Db::open`] takes 24 B to 64 KiB, for both store kinds: the
    /// record heap's slot offsets are `u16`.
    pub page_size: usize,
    /// The index order: every node holds `k..=2k` pairs.
    ///
    /// Defaults to half the pairs a 4 KiB page holds (126: `2k` = 252 of
    /// 253), so a full node fills its page, as the paper's node is one
    /// page (§2.2). At `TreeConfig`'s `k` = 32 a node would use a quarter
    /// of its page and the index would be a level taller. A smaller
    /// `page_size` needs [`DbConfig::with_k`]: [`crate::Db::open`] rejects
    /// a `k` whose `2k` pairs do not fit the page with a typed error
    /// before it touches the directory. Reopen a durable directory with
    /// the `k` it was built with: a smaller one fails the open with
    /// `TreeError::Config` and leaves the files as they were.
    pub k: usize,
    /// What a delete does to a leaf left under `k` pairs, and so which
    /// §5 compression the `Db` runs. Under `Enqueue` or `Inline`,
    /// [`crate::Db::open`] adds a bounded step to its store's background
    /// loop that drains the compression queue and releases deleted pages
    /// (§5.3); `Inline` deleters also compress as they go. The default,
    /// [`UnderflowPolicy::Ignore`], queues nothing and adds no step.
    pub underflow_policy: UnderflowPolicy,
    /// Commit durability policy (durable stores only).
    pub fsync: FsyncPolicy,
    /// WAL segment size before rotation (durable stores only).
    pub segment_bytes: u64,
    /// Buffer-pool frames over a durable store's page file. An in-memory
    /// store has no pool to size: each page lives in a frame of its own,
    /// so nothing is evicted, whatever this says.
    pub pool_frames: usize,
}

impl DbConfig {
    /// An in-memory database: no WAL, no files, `open` never recovers.
    /// The store fields take [`DurableConfig::new`]'s defaults, so a
    /// [`DbConfig::durable`] opens the store that `DurableConfig` would.
    pub fn in_memory() -> DbConfig {
        let d = DurableConfig::new(PathBuf::new());
        DbConfig {
            dir: None,
            page_size: d.page_size,
            k: node::max_pairs_for_page(d.page_size) / 2,
            underflow_policy: UnderflowPolicy::Ignore,
            fsync: d.fsync,
            segment_bytes: d.segment_bytes,
            pool_frames: d.pool_frames,
        }
    }

    /// A durable database in `dir` (created on first open, recovered on
    /// every later one), with [`DurableConfig::new`]'s defaults: 4 KiB
    /// pages, every commit waits for a covering fsync.
    pub fn durable(dir: impl Into<PathBuf>) -> DbConfig {
        DbConfig {
            dir: Some(dir.into()),
            ..DbConfig::in_memory()
        }
    }

    /// The same as [`DbConfig::durable`]; `window` is not used. Durable
    /// commits batch in the group-commit monitor with no timer, so there
    /// is no window to set. This exists only because the frozen
    /// `benchmark/` package calls it; use [`DbConfig::durable`] everywhere
    /// else. It is deleted at the next benchmark rebaseline.
    pub fn durable_group_commit(dir: impl Into<PathBuf>, _window: Duration) -> DbConfig {
        DbConfig::durable(dir)
    }

    /// Sets the index order `k` (every node holds `k..=2k` pairs).
    pub fn with_k(mut self, k: usize) -> DbConfig {
        self.k = k;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_defaults_are_the_durable_stores() {
        let dir = PathBuf::from("db-dir");
        let (db, d) = (DbConfig::durable(&dir), DurableConfig::new(&dir));
        assert_eq!(db.dir.as_ref(), Some(&d.dir));
        assert_eq!(db.page_size, d.page_size);
        assert_eq!(db.fsync, d.fsync);
        assert_eq!(db.segment_bytes, d.segment_bytes);
        assert_eq!(db.pool_frames, d.pool_frames);
    }
}
