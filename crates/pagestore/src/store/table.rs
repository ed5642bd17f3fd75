//! The page table: one [`Slot`] per page ever allocated — the §2.2 slot
//! latch, the allocation flag and the paper lock — and the append-only
//! [`ChunkTable`] that holds the slots and, in a store without a backend,
//! the frames. Charged to no ledger prefix of its own: a lookup is two
//! atomic loads inside whichever operation (`pool.*`, `core.lock_wait*`,
//! `wal.*`, `flusher.*`) needs the page.

use super::lock::PaperLock;
use crate::audit::{self, Audited, LockClass};
use parking_lot::{Mutex, MutexGuard};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Per-page bookkeeping: the §2.2 slot latch (doubling as the allocation
/// flag holder) and the paper lock. Every backend access for the page is
/// made while holding the `allocated` mutex, which is what keeps loads,
/// write-backs and bypass accesses of one page mutually indivisible. A
/// new slot is unallocated and unlocked, with no base.
#[derive(Debug, Default)]
pub(super) struct Slot {
    allocated: Mutex<bool>,
    /// Lock-free mirror of `allocated` for the unlatched read path;
    /// written only under the latch, by [`Slot::set_allocated`].
    live: AtomicBool,
    pub(super) lock: PaperLock,
    /// Checkpoint epoch of the page's last full-image WAL record (a base or
    /// an alloc — both let replay rebuild the page from scratch). A delta
    /// record is only legal while this equals the store's current epoch:
    /// the first write after a checkpoint (or after open) must log a full
    /// image so recovery always finds a base to apply deltas over — which
    /// is also what repairs torn page-file writes without full images on
    /// every put. `0` means "no base yet". Read and written under the
    /// slot's `allocated` latch (the same latch every journal append for
    /// the page holds).
    pub(super) base_epoch: AtomicU64,
}

impl Slot {
    /// Flips the allocation flag and its mirror; `allocated` is this
    /// slot's held latch.
    pub(super) fn set_allocated(&self, allocated: &mut bool, to: bool) {
        *allocated = to;
        self.live.store(to, Ordering::Release);
    }

    /// The allocation flag as of the last latched change, without the
    /// latch.
    pub(super) fn is_live(&self) -> bool {
        self.live.load(Ordering::Acquire)
    }

    /// The only place `Slot::allocated` is locked: every acquisition
    /// registers with the latch auditor as a `SlotLatch` (legal under a
    /// frame latch; journal appends and pool-shard checks may nest inside).
    pub(super) fn latch(&self) -> Audited<MutexGuard<'_, bool>> {
        audit::audited(LockClass::SlotLatch, self as *const Slot as usize, || {
            self.allocated.lock()
        })
    }
}

/// Elements in a [`ChunkTable`]'s first chunk; chunk `k` holds
/// `CHUNK << k` elements, so [`CHUNKS`] chunks cover every `u32` page id.
pub(super) const CHUNK: usize = 512;
pub(super) const CHUNKS: usize = 24;

/// An append-only, chunked table indexed by page index: the store's slots
/// and, in a store without a backend, its frames. A lookup is two atomic
/// loads that never wait, and a `&T` stays valid for the table's lifetime:
/// chunks are never moved or freed while it lives, and each element is
/// written once, by [`ChunkTable::push`], before `len` publishes it. A
/// chunk's memory is touched only as its elements are pushed.
pub(super) struct ChunkTable<T> {
    chunks: [OnceLock<Box<[Element<T>]>>; CHUNKS],
    /// Elements published so far; `len` is stored only after its element
    /// is written.
    len: AtomicUsize,
}

/// A [`ChunkTable`] element's storage: written once, in place.
type Element<T> = UnsafeCell<MaybeUninit<T>>;

// SAFETY: `len` is atomic and a chunk is set once through its `OnceLock`.
// An element is written only by `push`, before `len` publishes it, and is
// then only shared as `&T` (hence `T: Sync`) until the table drops it on
// whichever thread drops the table (hence `T: Send`).
unsafe impl<T: Send + Sync> Sync for ChunkTable<T> {}

impl<T> ChunkTable<T> {
    pub(super) fn new() -> ChunkTable<T> {
        ChunkTable {
            chunks: [const { OnceLock::new() }; CHUNKS],
            len: AtomicUsize::new(0),
        }
    }

    /// (chunk, offset) of element `idx`: chunk `k` starts at
    /// `CHUNK × (2^k − 1)`.
    pub(super) fn locate(idx: usize) -> (usize, usize) {
        let q = idx / CHUNK + 1;
        let k = (usize::BITS - 1 - q.leading_zeros()) as usize;
        (k, idx - CHUNK * ((1 << k) - 1))
    }

    pub(super) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    pub(super) fn get(&self, idx: usize) -> Option<&T> {
        if idx >= self.len() {
            return None;
        }
        let (k, off) = ChunkTable::<T>::locate(idx);
        let cell = &self.chunks[k].get()?[off];
        // SAFETY: `idx < len`, and `len` is stored (`Release`, read
        // `Acquire` above) only after `push` wrote element `idx`, which
        // nothing writes again while the table lives.
        Some(unsafe { (*cell.get()).assume_init_ref() })
    }

    /// Publishes `value` as the next element.
    ///
    /// # Safety
    ///
    /// The caller must not push concurrently: [`PageStore`] pushes under
    /// its free-list mutex, or before the store is shared.
    // SAFETY: the write below relies on exactly that contract.
    pub(super) unsafe fn push(&self, value: T) {
        let idx = self.len.load(Ordering::Relaxed);
        let (k, off) = ChunkTable::<T>::locate(idx);
        let chunk = self.chunks[k].get_or_init(|| {
            (0..CHUNK << k)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect()
        });
        // SAFETY: readers reach only elements below `len`, and the caller
        // serializes pushes, so nothing else touches element `idx` now.
        unsafe { (*chunk[off].get()).write(value) };
        self.len.store(idx + 1, Ordering::Release);
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len()).filter_map(|i| self.get(i))
    }
}

impl<T> Drop for ChunkTable<T> {
    fn drop(&mut self) {
        for idx in 0..*self.len.get_mut() {
            let (k, off) = ChunkTable::<T>::locate(idx);
            let cell = &mut self.chunks[k].get_mut().expect("a pushed element's chunk")[off];
            // SAFETY: `push` wrote every element below `len`, and
            // `&mut self` rules out any reader.
            unsafe { cell.get_mut().assume_init_drop() };
        }
    }
}

impl<T> std::fmt::Debug for ChunkTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChunkTable {{ len: {} }}", self.len())
    }
}
