//! The journaling hook: how a [`crate::PageStore`] reports mutations to an
//! attached write-ahead log.
//!
//! The store calls the journal **before** applying each mutation to its
//! [`crate::backend::PageBackend`] (write-ahead ordering). Each call is one
//! commit point: when it returns `Ok`, the record is durable to the degree
//! the journal's fsync policy promises. A journal error aborts the mutation
//! — the store leaves its state unchanged and surfaces the error, which is
//! how an injected crash (see `blink-durable`) stops a workload.
//!
//! The concrete implementation lives in the `blink-durable` crate; keeping
//! only the trait here lets the tree and all experiments stay free of any
//! durability dependency.

use crate::error::Result;
use crate::page::PageId;
use std::fmt;

/// One dirtied byte range of a tracked page write, as handed to
/// [`Journal::log_put_delta`]: the offset inside the page and the new
/// bytes of that range.
pub type DeltaRange<'a> = (u16, &'a [u8]);

/// Receiver for page-level mutations, in commit order.
pub trait Journal: Send + Sync + fmt::Debug {
    /// A page was allocated (zero-filled). Replay must zero the page.
    fn log_alloc(&self, pid: PageId) -> Result<()>;

    /// A page was returned to the free list.
    fn log_free(&self, pid: PageId) -> Result<()>;

    /// A page was overwritten with `data` (a full page image).
    fn log_put(&self, pid: PageId, data: &[u8]) -> Result<()>;

    /// Whether this journal understands the v2 record family
    /// ([`Journal::log_put_base`] / [`Journal::log_put_delta`]). A store
    /// only routes tracked page writes through the v2 methods when this
    /// returns `true`; the default (`false`) keeps v1-only journals (tests,
    /// probes) on the plain [`Journal::log_put`] path.
    fn supports_deltas(&self) -> bool {
        false
    }

    /// v2: a tracked page was overwritten with `data` (a full page image)
    /// and the page reserves a per-page LSN field
    /// ([`crate::page::PAGE_LSN_OFFSET`]). Returns the record's LSN so the
    /// store can stamp it into the live page; replay stamps it the same
    /// way, keeping the on-disk LSN exactly "LSN of the last record whose
    /// effects this page holds".
    fn log_put_base(&self, pid: PageId, data: &[u8]) -> Result<u64> {
        self.log_put(pid, data).map(|()| 0)
    }

    /// v2: a tracked page was mutated only inside `ranges` (coalesced,
    /// ascending, non-overlapping). `page_lsn` is the page's LSN *before*
    /// this write (diagnostic; replay gates on the record's own LSN).
    /// Returns the record's LSN for stamping, like
    /// [`Journal::log_put_base`].
    ///
    /// Only called when [`Journal::supports_deltas`] is `true`; the
    /// default errs so a misconfigured journal fails loudly instead of
    /// silently dropping bytes.
    fn log_put_delta(&self, pid: PageId, page_lsn: u64, ranges: &[DeltaRange<'_>]) -> Result<u64> {
        let _ = (pid, page_lsn, ranges);
        Err(crate::error::StoreError::Config(
            "journal does not support delta records",
        ))
    }

    /// Write-ahead barrier before a **backend page write**: every record
    /// this journal has accepted so far must be in the log file (not
    /// necessarily fsynced) when this returns. Journals that buffer
    /// accepted records outside the log (`blink-durable`'s WAL stages
    /// them per thread) publish them here; the default is a no-op for
    /// journals whose `log_*` calls write through. The store calls this before dirty-frame write-back,
    /// flush barriers, pool-bypass writes, and before zeroing a reused
    /// page — the four places backend bytes could otherwise overtake
    /// their own log records.
    fn ensure_published(&self) -> Result<()> {
        Ok(())
    }

    /// Forces everything appended so far to stable storage (used on clean
    /// shutdown and checkpoint, regardless of the fsync policy).
    fn sync(&self) -> Result<()>;
}
