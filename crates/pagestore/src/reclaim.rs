//! Deferred release of deleted nodes (§5.3).
//!
//! "When a node is deleted, we cannot remove it, because other processes may
//! have to read it. One solution is to record in the node the time of its
//! deletion, and also store for each running process its starting time. A
//! deleted node can be released when all the currently running processes
//! have started after its deletion time."
//!
//! The tree stamps each deleted page with the logical deletion time and
//! pushes it here. [`DeferredFreeList::reclaim`] frees every page whose
//! deletion stamp is strictly below the caller-supplied safety horizon. For
//! the full §5.4 rule the tree computes the horizon as
//! `min(registry.min_active_start(), min timestamp of queued compression
//! stacks)`.

use crate::clock::Timestamp;
use crate::error::Result;
use crate::page::PageId;
use crate::store::PageStore;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pages awaiting a safe point to be returned to the free list.
#[derive(Debug, Default)]
pub struct DeferredFreeList {
    pending: Mutex<Vec<(PageId, Timestamp)>>,
    /// Pages a running [`DeferredFreeList::reclaim`] took off `pending` and
    /// has not freed yet. Moved over under the `pending` lock and dropped
    /// only after each page's free returns, so a
    /// [`DeferredFreeList::pending_count`] of 0 means every deferred page
    /// is back in the store.
    freeing: AtomicUsize,
}

impl DeferredFreeList {
    pub fn new() -> DeferredFreeList {
        DeferredFreeList::default()
    }

    /// Registers `pid` as deleted at logical time `stamp`.
    pub fn defer(&self, pid: PageId, stamp: Timestamp) {
        self.pending.lock().push((pid, stamp));
    }

    /// Frees every pending page whose deletion stamp is `< horizon`.
    /// Returns the number of pages released. A failed free puts the pages
    /// not yet freed back on the list, for a later call to retry.
    pub fn reclaim(&self, horizon: Timestamp, store: &PageStore) -> Result<usize> {
        // Collect first, free outside the list lock.
        let ready: Vec<(PageId, Timestamp)> = {
            let mut pending = self.pending.lock();
            let mut ready = Vec::new();
            pending.retain(|&entry| {
                if entry.1 < horizon {
                    ready.push(entry);
                    false
                } else {
                    true
                }
            });
            self.freeing.fetch_add(ready.len(), Ordering::Relaxed);
            ready
        };
        for (i, &(pid, _)) in ready.iter().enumerate() {
            if let Err(e) = store.free(pid) {
                let mut pending = self.pending.lock();
                pending.extend_from_slice(&ready[i..]);
                self.freeing.fetch_sub(ready.len() - i, Ordering::Release);
                return Err(e);
            }
            self.freeing.fetch_sub(1, Ordering::Release);
        }
        Ok(ready.len())
    }

    /// Number of pages still awaiting reclamation, those a running
    /// [`DeferredFreeList::reclaim`] is freeing included.
    pub fn pending_count(&self) -> usize {
        let pending = self.pending.lock();
        pending.len() + self.freeing.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    #[test]
    fn reclaims_only_below_horizon() {
        let store = PageStore::new(StoreConfig::with_page_size(64));
        let list = DeferredFreeList::new();
        let a = store.alloc().unwrap();
        let b = store.alloc().unwrap();
        let c = store.alloc().unwrap();
        list.defer(a, 10);
        list.defer(b, 20);
        list.defer(c, 30);

        assert_eq!(list.reclaim(5, &store).unwrap(), 0);
        assert_eq!(list.pending_count(), 3);

        assert_eq!(list.reclaim(21, &store).unwrap(), 2);
        assert_eq!(list.pending_count(), 1);
        assert!(store.get(a).is_err());
        assert!(store.get(b).is_err());
        assert!(store.get(c).is_ok());

        // Horizon equal to a stamp does NOT release it (strict inequality:
        // a process that started exactly at the deletion time may read it).
        assert_eq!(list.reclaim(30, &store).unwrap(), 0);
        assert_eq!(list.reclaim(31, &store).unwrap(), 1);
        assert_eq!(list.pending_count(), 0);
    }

    #[test]
    fn deferred_page_remains_readable_until_reclaimed() {
        let store = PageStore::new(StoreConfig::with_page_size(64));
        let list = DeferredFreeList::new();
        let pid = store.alloc().unwrap();
        list.defer(pid, 100);
        // Still readable — this is the whole point of deferral.
        assert!(store.get(pid).is_ok());
        list.reclaim(u64::MAX, &store).unwrap();
        assert!(store.get(pid).is_err());
    }

    #[test]
    fn a_failed_free_puts_the_unfreed_pages_back() {
        let store = PageStore::new(StoreConfig::with_page_size(64));
        let list = DeferredFreeList::new();
        let a = store.alloc().unwrap();
        let b = store.alloc().unwrap();
        let c = store.alloc().unwrap();
        list.defer(a, 1);
        list.defer(b, 2);
        list.defer(c, 3);
        // `b` is already free, so its second free fails: `a` stays freed,
        // `b` and `c` go back on the list and `c` is still allocated.
        store.free(b).unwrap();
        assert!(list.reclaim(u64::MAX, &store).is_err());
        assert!(store.get(a).is_err());
        assert!(store.get(c).is_ok());
        assert_eq!(list.pending_count(), 2);
    }
}
