//! Durability subsystem for the Sagiv B\*-tree reproduction: write-ahead
//! logging, a file-backed page store, checkpointing and crash recovery.
//!
//! The paper's setting is a *disk-resident* tree — "reading and writing of
//! nodes are indivisible operations" against secondary storage, and the
//! prime block "must be known to the operating system" (§3.3). This crate
//! supplies that missing storage layer:
//!
//! * [`wal`] — an append-only log of page-level mutations (alloc / free /
//!   page write, logged as a full-image base or as a delta of the bytes
//!   it changed) in checksummed segments, with [`FsyncPolicy`]
//!   controlling commit durability (a group-commit fsync per commit,
//!   or OS-buffered).
//! * [`backend::FileBackend`] — the page file behind
//!   [`blink_pagestore::PageBackend`], read with `pread` and written with
//!   `pwrite` (the one page-file backend; `MmapBackend` is an alias).
//! * [`store::DurableStore`] — ties them together in one directory and
//!   replays the log on open.
//! * [`fault::FaultInjector`] — deterministic simulated crashes after the
//!   *n*-th WAL record, for crash-point matrix tests — and seeded
//!   [`fault::FaultPlan`]s that fail, tear or bit-flip the *n*-th I/O at
//!   a chosen site, for chaos tests.
//!
//! ## Crash model
//!
//! Each WAL record is one indivisible page operation — precisely the
//! granularity at which Sagiv's protocols promise consistency. Replaying a
//! prefix of the log therefore lands the tree in a state some concurrent
//! schedule could have produced: readable, but possibly mid-split or
//! mid-compression. [`BLinkTree::open_or_recover`] finishes the job, using
//! the Fig. 2 invariant ("every nonleaf level is the `(high value, link)`
//! sequence of the level below") to rebuild the index levels from the leaf
//! chain and reclaim orphaned pages.
//!
//! ## Quick start
//!
//! ```
//! use blink_durable::{create_tree, open_tree, DurableConfig};
//! use sagiv_blink::TreeConfig;
//!
//! let dir = std::env::temp_dir().join(format!("blink-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! {
//!     let (store, tree) = create_tree(DurableConfig::new(&dir), TreeConfig::with_k(16)).unwrap();
//!     let mut s = tree.session();
//!     tree.insert(&mut s, 42, 4200).unwrap();
//!     store.sync().unwrap();
//! }
//! // ... crash or restart ...
//! let (_store, tree, rec) = open_tree(DurableConfig::new(&dir), TreeConfig::with_k(16)).unwrap();
//! let mut s = tree.session();
//! assert_eq!(tree.search(&mut s, 42).unwrap(), Some(4200));
//! assert!(!rec.repaired); // clean shutdown: no structural repair needed
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod fault;
pub mod store;
pub mod wal;

pub use backend::{FileBackend, MmapBackend};
pub use fault::{
    xorshift64, FaultInjector, FaultKind, FaultOutcome, FaultPlan, FaultSite, PlannedFault,
};
pub use store::{CheckpointToken, DurableConfig, DurableStore, RecoveryInfo};
pub use wal::{FsyncPolicy, Wal, WalOp};

use blink_pagestore::PageId;
use sagiv_blink::recovery::RecoveryStats;
use sagiv_blink::{BLinkTree, TreeConfig, TreeError};
use std::sync::Arc;

/// The prime block's page id in a durable tree: `BLinkTree::create`'s first
/// allocation against a fresh store — "the address of the prime block …
/// never changes" (§3.3).
pub fn prime_page() -> PageId {
    PageId::from_raw(1).expect("1 is a valid page id")
}

/// Creates a durable store directory and a fresh tree in it.
pub fn create_tree(
    cfg: DurableConfig,
    tree_cfg: TreeConfig,
) -> Result<(Arc<DurableStore>, Arc<BLinkTree>), TreeError> {
    let ds = DurableStore::create(cfg)?;
    let tree = BLinkTree::create(Arc::clone(ds.store()), tree_cfg)?;
    debug_assert_eq!(tree.prime_page(), prime_page());
    Ok((Arc::new(ds), tree))
}

/// Opens a durable tree: replays the WAL, validates the prime block, runs
/// structural repair if the shutdown was dirty, and verifies the result.
/// A store with no pages yet (a new directory, which
/// [`DurableStore::open`] initializes) gets a fresh tree.
pub fn open_tree(
    cfg: DurableConfig,
    tree_cfg: TreeConfig,
) -> Result<(Arc<DurableStore>, Arc<BLinkTree>, RecoveryStats), TreeError> {
    let ds = DurableStore::open(cfg)?;
    if ds.store().live_pages() == 0 {
        let tree = BLinkTree::create(Arc::clone(ds.store()), tree_cfg)?;
        return Ok((Arc::new(ds), tree, RecoveryStats::default()));
    }
    let (tree, mut stats) =
        BLinkTree::open_or_recover(Arc::clone(ds.store()), tree_cfg, prime_page())?;
    stats.wal_records_replayed = ds.recovery().replayed;
    Ok((Arc::new(ds), tree, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_tree_starts_a_tree_in_a_new_directory() {
        let dir = std::env::temp_dir().join(format!("blink-open-new-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (store, tree, rec) =
                open_tree(DurableConfig::new(&dir), TreeConfig::with_k(16)).unwrap();
            assert!(!rec.repaired);
            let mut s = tree.session();
            tree.insert(&mut s, 42, 4200).unwrap();
            store.sync().unwrap();
        }
        let (_store, tree, _) =
            open_tree(DurableConfig::new(&dir), TreeConfig::with_k(16)).unwrap();
        let mut s = tree.session();
        assert_eq!(tree.search(&mut s, 42).unwrap(), Some(4200));
        drop(s);
        drop(tree);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
