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

/// One changed byte range of a page write, as handed to
/// [`Journal::log_put_delta`]: the offset inside the page and the new
/// bytes of that range.
pub type DeltaRange<'a> = (u16, &'a [u8]);

/// One edit of a delta record. Replay applies a record's edits in order,
/// so a [`PageEdit::Move`] reads the page as the edits before it left it.
/// `B` is the bytes' owner: `&[u8]` when the store logs a write, `Vec<u8>`
/// when the log is read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageEdit<B> {
    /// Writes the bytes at the offset.
    Bytes(u16, B),
    /// Copies `len` bytes from `src` to `dst` inside the page, as
    /// `copy_within` does (the two spans may overlap): how an insert or a
    /// remove that shifts a node's pairs logs the shifted tail.
    Move {
        /// First byte written.
        dst: u16,
        /// First byte read.
        src: u16,
        /// Bytes copied.
        len: u16,
    },
}

impl<B: AsRef<[u8]>> PageEdit<B> {
    /// Bytes this edit takes in a log record: a tag byte, its fields and,
    /// for [`PageEdit::Bytes`], the bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            PageEdit::Bytes(_, b) => 5 + b.as_ref().len(),
            PageEdit::Move { .. } => 7,
        }
    }
}

/// Receiver for page-level mutations, in commit order.
///
/// A page write logs one of two records, both chosen by the store: a
/// **base** (the full image) or a **delta** (the edits that turn the
/// image the write started from into the new one). Either returns its
/// LSN, which the store stamps into the page's reserved field
/// ([`crate::page::PAGE_LSN_OFFSET`]), and replay stamps it the same way.
pub trait Journal: Send + Sync + fmt::Debug {
    /// A page was allocated (zero-filled). Replay must zero the page.
    fn log_alloc(&self, pid: PageId) -> Result<()>;

    /// A page was returned to the free list.
    fn log_free(&self, pid: PageId) -> Result<()>;

    /// A page was overwritten with `data` (a full page image). Returns the
    /// record's LSN so the store can stamp it into the live page; replay
    /// stamps it the same way, keeping the on-disk LSN exactly "LSN of the
    /// last record whose effects this page holds".
    fn log_put_base(&self, pid: PageId, data: &[u8]) -> Result<u64>;

    /// A page was mutated by `edits`, applied in order to the image the
    /// write started from. No edit reaches into the store-reserved field
    /// ([`crate::page::PAGE_LSN_OFFSET`]`..`[`crate::page::PAGE_RESERVED_END`]).
    /// `page_lsn` is the page's LSN *before* this write (diagnostic;
    /// replay gates on the record's own LSN). Returns the record's LSN for
    /// stamping, like [`Journal::log_put_base`].
    fn log_put_edits(&self, pid: PageId, page_lsn: u64, edits: &[PageEdit<&[u8]>]) -> Result<u64>;

    /// [`Journal::log_put_edits`] with byte ranges only (ascending,
    /// non-overlapping). The store never calls it; kept only because the
    /// frozen benchmark's `bench-trace` names it. Delete it at the next
    /// benchmark rebaseline.
    fn log_put_delta(&self, pid: PageId, page_lsn: u64, ranges: &[DeltaRange<'_>]) -> Result<u64> {
        let edits: Vec<PageEdit<&[u8]>> = ranges
            .iter()
            .map(|&(off, bytes)| PageEdit::Bytes(off, bytes))
            .collect();
        self.log_put_edits(pid, page_lsn, &edits)
    }

    /// Logs `data` as a base ([`Journal::log_put_base`]), dropping its
    /// LSN. The store never calls it; kept only because the frozen
    /// benchmark's `bench-trace` names it. Delete it at the next benchmark
    /// rebaseline.
    fn log_put(&self, pid: PageId, data: &[u8]) -> Result<()> {
        self.log_put_base(pid, data).map(drop)
    }

    /// Always `true`: every journal logs bases and deltas. The store never
    /// asks; kept only because the frozen benchmark's `bench-trace` does.
    /// Delete it at the next benchmark rebaseline.
    fn supports_deltas(&self) -> bool {
        true
    }

    /// A no-op the store no longer calls: every `log_*` call writes its
    /// record through to the log file before returning, so write-ahead
    /// order needs no barrier. Kept only because the frozen benchmark's
    /// `bench-trace` calls it; delete it at the next benchmark rebaseline.
    fn ensure_published(&self) -> Result<()> {
        Ok(())
    }

    /// Forces everything appended so far to stable storage (used on clean
    /// shutdown and checkpoint, regardless of the fsync policy).
    fn sync(&self) -> Result<()>;
}
