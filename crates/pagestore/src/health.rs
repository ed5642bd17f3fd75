//! Store-wide health: sticky fsync-failure poisoning and the deferred
//! I/O error latch.
//!
//! ## Poisoning
//!
//! A failed WAL fsync must be **sticky**. After `fsync` returns an error,
//! POSIX gives no guarantee the kernel still holds the dirty pages — a
//! later retry can "succeed" while the data is gone (the fsyncgate
//! failure mode). So the first fsync failure [`poison`](StoreHealth::poison)s
//! the store: every later commit, sync and checkpoint fails with
//! [`StoreError::Poisoned`] until the process reopens the directory and
//! recovery re-establishes a trusted durable prefix from what actually
//! reached the log. A failed WAL segment write poisons the same way: it
//! may have left a torn record, and nothing may be appended after one.
//!
//! ## The error latch
//!
//! Background work (the flusher step) has no caller to return errors
//! to. Instead of swallowing a failed write-back, the flusher
//! [`flag`](StoreHealth::flag)s the error here and the next foreground
//! operation [`take_flagged`](StoreHealth::take_flagged)s it — a
//! `Permanent` backend failure surfaces on the next `put`/`get`, not
//! at some distant `sync()`.
//!
//! Both fast paths are single relaxed atomic loads; the latch mutex
//! ([`LockClass::HealthLatch`], a pure leaf) is only taken to record or
//! consume an error.

use crate::audit::{audited, Audited, LockClass};
use crate::error::StoreError;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};

/// Shared health state of one store (see module docs). One instance is
/// owned by the `PageStore` and shared with the WAL, the background
/// flusher and the `Db` facade.
#[derive(Debug, Default)]
pub struct StoreHealth {
    /// Sticky: a WAL fsync failed; durability can no longer be promised.
    poisoned: AtomicBool,
    /// A background error is latched and waiting for a foreground op.
    flagged: AtomicBool,
    /// The first latched error (poison cause or flagged background
    /// error), kept for attribution.
    latched: Mutex<Option<StoreError>>,
}

impl StoreHealth {
    pub fn new() -> StoreHealth {
        StoreHealth::default()
    }

    /// The single audited acquisition point for the latch mutex
    /// ([`LockClass::HealthLatch`], a pure leaf — it orders after every
    /// other class and takes nothing while held). All callers go through
    /// here; the lint enforces it.
    fn lock_latched(&self) -> Audited<parking_lot::MutexGuard<'_, Option<StoreError>>> {
        audited(LockClass::HealthLatch, self as *const _ as usize, || {
            self.latched.lock()
        })
    }

    /// True once [`poison`](Self::poison) ran. A single relaxed load —
    /// cheap enough for every commit path.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Fails with [`StoreError::Poisoned`] once the store is poisoned.
    #[inline]
    pub fn check_poisoned(&self) -> crate::error::Result<()> {
        if self.is_poisoned() {
            Err(StoreError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Marks the store poisoned (first caller wins; later calls keep the
    /// original cause). Returns `StoreError::Poisoned` for convenience so
    /// fsync sites can `return Err(health.poison(cause))`.
    pub fn poison(&self, cause: StoreError) -> StoreError {
        let mut latched = self.lock_latched();
        if latched.is_none() {
            *latched = Some(cause);
        }
        self.poisoned.store(true, Ordering::Relaxed);
        StoreError::Poisoned
    }

    /// Latches a background error (flusher write-back failure) so the
    /// next foreground operation surfaces it. First error wins.
    pub fn flag(&self, err: StoreError) {
        let mut latched = self.lock_latched();
        if latched.is_none() {
            *latched = Some(err);
        }
        self.flagged.store(true, Ordering::Relaxed);
    }

    /// Consumes a flagged background error, if any. Poison is *not*
    /// consumable — once poisoned, [`check_poisoned`](Self::check_poisoned)
    /// keeps failing; this only drains the one-shot flusher latch.
    pub fn take_flagged(&self) -> Option<StoreError> {
        if !self.flagged.swap(false, Ordering::Relaxed) {
            return None;
        }
        let mut latched = self.lock_latched();
        // Poison keeps its cause latched for `cause()`; a plain flag is
        // consumed.
        if self.is_poisoned() {
            latched.clone()
        } else {
            latched.take()
        }
    }

    /// The first latched error, without consuming it (diagnostics).
    pub fn cause(&self) -> Option<StoreError> {
        self.lock_latched().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_health_is_clean() {
        let h = StoreHealth::new();
        assert!(!h.is_poisoned());
        assert!(h.check_poisoned().is_ok());
        assert_eq!(h.take_flagged(), None);
        assert_eq!(h.cause(), None);
    }

    #[test]
    fn poison_is_sticky_and_keeps_first_cause() {
        let h = StoreHealth::new();
        let e = h.poison(StoreError::Io("wal fsync: EIO".into()));
        assert_eq!(e, StoreError::Poisoned);
        assert!(h.is_poisoned());
        assert_eq!(h.check_poisoned(), Err(StoreError::Poisoned));
        h.poison(StoreError::Io("second failure".into()));
        assert_eq!(h.cause(), Some(StoreError::Io("wal fsync: EIO".into())));
        // Still poisoned after any number of checks.
        assert_eq!(h.check_poisoned(), Err(StoreError::Poisoned));
    }

    #[test]
    fn flagged_error_surfaces_once() {
        let h = StoreHealth::new();
        h.flag(StoreError::Io("writeback: EIO".into()));
        assert_eq!(
            h.take_flagged(),
            Some(StoreError::Io("writeback: EIO".into()))
        );
        assert_eq!(h.take_flagged(), None, "the flag is one-shot");
        assert!(!h.is_poisoned(), "a flagged error does not poison");
    }

    #[test]
    fn poison_cause_survives_take_flagged() {
        let h = StoreHealth::new();
        h.poison(StoreError::Io("wal fsync: EIO".into()));
        h.flag(StoreError::Io("later".into()));
        assert_eq!(
            h.take_flagged(),
            Some(StoreError::Io("wal fsync: EIO".into()))
        );
        assert_eq!(h.cause(), Some(StoreError::Io("wal fsync: EIO".into())));
    }
}
