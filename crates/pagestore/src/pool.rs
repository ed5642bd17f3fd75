//! The buffer pool: a fixed table of page frames with pin counts and
//! index-first CLOCK (second-chance) replacement.
//!
//! Until PR 2 the "cache" (`ClockCache` — now gone) tracked *residency
//! only*: it remembered PageIds so a simulated I/O delay could be skipped,
//! while every `get` still copied the whole page out of the backend. This
//! module holds the bytes themselves, so a hit costs a pin + a read-latch
//! and **zero page-sized copies** — callers borrow the frame through
//! [`crate::store::PageRef`] / [`crate::store::PageWrite`] guards.
//!
//! ## Frame life cycle
//!
//! ```text
//!   free ──claim──► loading ──owner published──► resident ──┐
//!    ▲                                             │ ▲      │ put: dirty=true
//!    └──────── discard (page freed) ◄──────────────┘ └──────┘
//!                     resident+dirty ──evict──► flush ──► reused for new page
//! ```
//!
//! * A frame is **pinned** while any guard refers to it; the clock hand
//!   never evicts a pinned frame (`pins > 0`).
//! * Eviction of a dirty frame keeps the *old* page's mapping alive (in
//!   `flushing`) until its bytes have been written back to the backend —
//!   otherwise a concurrent reader could miss in the pool and read stale
//!   bytes from the backend while the newest version sat in the doomed
//!   frame. The WAL record for those bytes was appended when they were put
//!   (write-ahead order), so the write-back itself needs no logging.
//! * All pinning happens under a shard mutex; unpinning is a plain atomic
//!   decrement, so dropping a guard never takes a lock.
//! * Optimistic reads pin nothing: `BufferPool::frame_hinted` looks the
//!   page up in a direct-mapped `pid → frame` **hint** (written under the
//!   shard mutex whenever a mapping is made or hit) and the store validates
//!   the probe against the frame's seqlock *and* its `owner`. A frame can be
//!   repurposed under such a reader, so `owner` must never name a page
//!   whose bytes the frame does not hold: every unmap clears it — the
//!   clean-victim claim, `BufferPool::discard`, an aborted claim, a victim
//!   freed mid-restore — and a refill clears it when its seqlock window
//!   opens and publishes the new page (under the shard mutex, in
//!   `BufferPool::complete_miss`) before the window closes.
//!
//! ## Replacement: record frames first
//!
//! Every operation reads root to leaf before it touches a record, so the
//! index pages are the hot set (§2.2: a `get(x)` per node on every
//! descent). Under plain CLOCK a uniform stream of record misses laps the
//! pool faster than any one leaf is re-read, so the reference bit cannot
//! save the leaf and a cold point read misses twice: leaf, then record.
//! So the frames are of two classes, fixed when a claim completes from the
//! image it loaded or published: a record frame holds a heap page
//! ([`crate::heap::is_heap_page`]), an index frame anything else. While a
//! shard holds an unpinned record frame, the hand runs over record frames
//! only — each still gets its second chance — and passes index frames
//! without clearing their reference bits; an index frame becomes a victim
//! only when the shard has no unpinned record frame, by the plain CLOCK
//! loop. Dirty record frames stay eligible, as dirty frames always were.
//! An exact per-shard count of record frames keeps the record pass off
//! an index-only store. This is 2Q's scan resistance (Johnson & Shasha,
//! VLDB 1994) with the page class known up front.
//!
//! ## Locking
//!
//! The pool is sharded by page id to keep the map mutex off the hot path's
//! critical section. Shard mutexes are **leaves**: no I/O and no other lock
//! is ever taken while one is held. Frame data is under a per-frame
//! `RwLock`; the store's lock order is *frame latch → page slot latch →
//! backend/journal*, and shard mutexes may be taken at any point because
//! they never wait on anything above them.

use crate::audit::{self, Audited, LockClass};
use crate::heap::is_heap_page;
use crate::page::PageId;
use crate::stats::StoreStats;
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One page-sized buffer plus its concurrency state. Cache-line aligned so
/// a latched access to one frame never writes the line an optimistic
/// reader of its neighbour is reading.
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct Frame {
    /// The page bytes. Readers hold the read latch for the lifetime of a
    /// guard; loads, write guards and eviction flushes hold the write latch.
    pub(crate) data: RwLock<Box<[u8]>>,
    /// Seqlock word for optimistic (latch-free) reads: even = stable, odd =
    /// a mutation is in progress. Every path that changes the frame's bytes
    /// or its page mapping brackets the change with [`Frame::begin_write`] /
    /// [`Frame::end_write`] while holding the write latch; an optimistic
    /// reader probes the bytes between two even, equal loads.
    version: AtomicU64,
    /// The heap address of the page buffer, captured at construction. The
    /// boxed slice never moves or reallocates for the frame's lifetime, so
    /// optimistic readers can copy from it without holding `data`'s latch
    /// (validity is established after the copy by re-checking `version`).
    data_addr: usize,
    /// Length of that buffer: the page size. (`u32` keeps a frame's
    /// fields in one cache line; see the size assertion below.)
    data_len: u32,
    /// Raw id of the page whose bytes are valid in `data` (0 = none).
    /// Published with `Release` inside the refill's seqlock window; a
    /// pinner validates it after acquiring the latch and retries on
    /// mismatch, an unpinned reader after its copy.
    pub(crate) owner: AtomicU32,
    /// Guards (and in-flight loaders) referring to this frame. A pinned
    /// frame is never chosen as an eviction victim.
    pins: AtomicU32,
    /// Frame bytes are newer than the backend (write-back pending).
    pub(crate) dirty: AtomicBool,
    /// CLOCK reference bit.
    referenced: AtomicBool,
}

// A frame's concurrency state fits one cache line: a larger `Frame`
// would double every frame's footprint (`repr(align(64))`).
const _: () = assert!(std::mem::size_of::<Frame>() == 64);

impl Frame {
    pub(crate) fn new(page_size: usize) -> Frame {
        let data: Box<[u8]> = vec![0u8; page_size].into_boxed_slice();
        let data_addr = data.as_ptr() as usize;
        Frame {
            data: RwLock::new(data),
            version: AtomicU64::new(0),
            data_addr,
            data_len: u32::try_from(page_size).expect("page size fits in u32"),
            owner: AtomicU32::new(0),
            pins: AtomicU32::new(0),
            dirty: AtomicBool::new(false),
            referenced: AtomicBool::new(false),
        }
    }

    /// Takes one pin on a frame found without the pool (a page's own frame,
    /// which nothing evicts: the pin only pairs with the guard's unpin).
    pub(crate) fn pin(&self) -> &Frame {
        self.pins.fetch_add(1, Ordering::AcqRel);
        self
    }

    /// Releases one pin. Lock-free: guards drop without touching the shard.
    pub(crate) fn unpin(&self) {
        let prev = self.pins.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "unpin of an unpinned frame");
    }

    /// Current owner matches `pid`? (Validation after latch acquisition.)
    pub(crate) fn owned_by(&self, pid: PageId) -> bool {
        self.owner.load(Ordering::Acquire) == pid.to_raw()
    }

    /// The page whose bytes are valid in the frame, if any.
    pub(crate) fn owner(&self) -> Option<PageId> {
        PageId::from_raw(self.owner.load(Ordering::Acquire))
    }

    /// Names `pid` as the page whose bytes the frame holds.
    pub(crate) fn own(&self, pid: PageId) {
        self.owner.store(pid.to_raw(), Ordering::Release);
    }

    /// Marks the frame as naming no page. Call wherever its mapping goes
    /// away without a latched refill, so an unpinned reader holding a
    /// stale hint cannot take the leftover bytes for the page's.
    pub(crate) fn disown(&self) {
        self.owner.store(0, Ordering::Release);
    }

    /// Sets the CLOCK reference bit for a read that took no pin. Loads
    /// first and stores only when the bit is clear, so readers of a hot
    /// page do not keep writing its frame's cache line.
    pub(crate) fn touch(&self) {
        if !self.referenced.load(Ordering::Relaxed) {
            self.referenced.store(true, Ordering::Relaxed);
        }
    }

    /// Marks the frame unstable (even → odd). Call with the write latch
    /// held, before the first byte of the frame changes.
    ///
    /// The pairing checks are `debug_assert!`s in ordinary builds but stay
    /// on in release under `latch-audit`, so release-mode stress runs still
    /// catch nested/unpaired writes.
    pub(crate) fn begin_write(&self) {
        crate::audit::seqlock_write_begin(self.audit_addr());
        let v = self.version.fetch_add(1, Ordering::Acquire);
        if cfg!(debug_assertions) || cfg!(feature = "latch-audit") {
            assert!(v.is_multiple_of(2), "nested begin_write");
        }
    }

    /// Marks the frame stable again (odd → even) after a mutation.
    pub(crate) fn end_write(&self) {
        let v = self.version.fetch_add(1, Ordering::Release);
        if cfg!(debug_assertions) || cfg!(feature = "latch-audit") {
            assert!(v % 2 == 1, "end_write without begin_write");
        }
    }

    /// The frame's identity for the latch auditor: its own address (frames
    /// never move: a pool's are allocated once at its construction, and a
    /// store's frame table keeps its frames in chunks that are never moved
    /// or freed while the store lives).
    pub(crate) fn audit_addr(&self) -> usize {
        self as *const Frame as usize
    }

    /// The seqlock version: odd while a write is in progress.
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// A [`PageProbe`] over the frame's bytes in place, taken without a
    /// latch or a pin: what a reader computes from it counts only once
    /// `PageStore::probe_unlatched` has validated the run.
    pub(crate) fn probe(&self) -> PageProbe<'_> {
        PageProbe {
            ptr: self.data_addr as *const u8,
            len: self.data_len as usize,
            _frame: std::marker::PhantomData,
        }
    }
}

/// A read-only view of one page's bytes that may be changing under it:
/// a resident frame read without a latch (the fast path of
/// [`crate::PageStore::read_probe`]), or any byte slice ([`PageProbe::new`],
/// for latched guards and tests).
///
/// Every accessor is range-checked against the page size, so bytes torn by
/// a concurrent writer can yield garbage values but never a fault or a
/// panic; a read that would leave the page yields zeros. What a probe
/// computes over a frame counts only after the seqlock validation that
/// follows it.
#[derive(Debug)]
pub struct PageProbe<'a> {
    ptr: *const u8,
    len: usize,
    _frame: std::marker::PhantomData<&'a [u8]>,
}

impl<'a> PageProbe<'a> {
    /// A probe over stable bytes, e.g. a latched page guard.
    pub fn new(bytes: &'a [u8]) -> PageProbe<'a> {
        PageProbe {
            ptr: bytes.as_ptr(),
            len: bytes.len(),
            _frame: std::marker::PhantomData,
        }
    }

    /// The page size: every accessor's range check.
    pub fn page_size(&self) -> usize {
        self.len
    }

    /// Copies `dst.len()` bytes starting at `off` into `dst`. Returns false
    /// (and zero-fills `dst`) when the range leaves the page. This is the
    /// probe's one racy access: every other accessor goes through it.
    #[inline]
    pub fn copy(&self, off: usize, dst: &mut [u8]) -> bool {
        if off.checked_add(dst.len()).is_none_or(|end| end > self.len) {
            dst.fill(0);
            return false;
        }
        // SAFETY: `off + dst.len() <= self.len` was checked above, and
        // `ptr..ptr + len` is either a borrowed slice (`PageProbe::new`)
        // or a frame's page buffer, which is allocated once in
        // `Frame::new` and never reallocated or freed while the frame
        // lives — a pool frame for the pool's life, a table frame (in a
        // chunk never moved or freed) for the store's — and outlives the
        // probe (`'a` borrows the frame). A writer may be
        // mutating a frame's bytes concurrently: plain byte copies through
        // raw pointers cannot fault, and the seqlock check that follows
        // every unlatched probe discards a result computed from torn bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.add(off), dst.as_mut_ptr(), dst.len());
        }
        true
    }

    /// The byte at `off` (0 past the end).
    #[inline]
    pub fn u8(&self, off: usize) -> u8 {
        self.array::<1>(off)[0]
    }

    /// The little-endian `u16` at `off` (0 past the end).
    #[inline]
    pub fn u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.array(off))
    }

    /// The little-endian `u32` at `off` (0 past the end).
    #[inline]
    pub fn u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.array(off))
    }

    /// The little-endian `u64` at `off` (0 past the end).
    #[inline]
    pub fn u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.array(off))
    }

    #[inline]
    fn array<const N: usize>(&self, off: usize) -> [u8; N] {
        let mut b = [0u8; N];
        self.copy(off, &mut b);
        b
    }
}

/// Book-keeping per frame, guarded by the shard mutex.
#[derive(Debug, Default, Clone, Copy)]
struct FrameMeta {
    /// The page currently mapped to this frame (valid or being loaded).
    resident: Option<PageId>,
    /// The evicted page whose dirty bytes are still being flushed out of
    /// this frame; its map entry stays alive until the flush finishes.
    flushing: Option<PageId>,
    /// The frame holds a record (heap) page, not an index page. Set when a
    /// claim completes and cleared when the frame is unmapped; while a
    /// claim is in flight it still names the victim's class.
    record: bool,
}

#[derive(Debug)]
struct ShardState {
    map: HashMap<PageId, usize>,
    meta: Vec<FrameMeta>,
    /// Frames never used since construction (fast path before the clock).
    free: Vec<usize>,
    hand: usize,
    /// Frames whose `record` flag is set (exact), so that a shard with no
    /// record frame skips the record pass.
    records: usize,
}

impl ShardState {
    /// Sets frame `i`'s class, keeping `records` exact.
    fn set_record(&mut self, i: usize, record: bool) {
        if self.meta[i].record != record {
            self.meta[i].record = record;
            if record {
                self.records += 1;
            } else {
                self.records -= 1;
            }
        }
    }

    /// Maps frame `i` to no page: the clock reclaims it without eviction.
    fn orphan(&mut self, i: usize) {
        self.meta[i].resident = None;
        self.set_record(i, false);
    }
}

#[derive(Debug)]
struct Shard {
    frames: Box<[Frame]>,
    state: Mutex<ShardState>,
}

/// Outcome of [`BufferPool::claim`]. `Hit` and `Miss` return with one pin
/// taken on the frame; the caller owns that pin.
pub(crate) enum Claim<'a> {
    /// `pid` is mapped. The frame may still be loading or may have been
    /// repurposed since the map lookup — validate `owner` after latching
    /// and retry the claim on mismatch.
    Hit(&'a Frame),
    /// A frame was reserved for `pid`; the caller must populate it under
    /// the write latch and then call `complete_miss` (or `abort_miss`).
    Miss {
        frame: &'a Frame,
        idx: usize,
        /// Dirty victim to write back (still mapped) before loading.
        flush: Option<PageId>,
        /// Whether a resident page (clean or dirty) was displaced.
        evicted: bool,
    },
    /// Every frame is pinned: the caller bypasses the pool for this access.
    Exhausted,
}

/// A frame pinned by a sweep snapshot ([`BufferPool::pin_sweep`]):
/// the frame, the page the pool had it resident for, and its index in
/// that page's shard (what [`BufferPool::still_flushing`] takes).
pub(crate) type Pinned<'a> = (&'a Frame, PageId, usize);

/// A sharded table of page frames with CLOCK replacement.
#[derive(Debug)]
pub(crate) struct BufferPool {
    shards: Box<[Shard]>,
    capacity: usize,
    stats: Arc<StoreStats>,
    /// Number of frames whose `dirty` bit is currently set. Maintained by
    /// [`BufferPool::mark_dirty`] / [`BufferPool::clear_dirty`] — every
    /// transition of a frame's dirty bit must go through those two methods
    /// so the gauge stays exact. The flusher's watermarks and the
    /// clean-store fast path in `PageStore::flush` read it lock-free.
    dirty_gauge: AtomicUsize,
    /// Direct-mapped `pid → frame` hint for unpinned reads: slot
    /// `pid & (len - 1)` holds `1 + shard + nshards × index` of the frame
    /// the page was last mapped to or hit in (0 = none). Written only under
    /// the page's shard mutex; a colliding page simply overwrites it. A
    /// hint is only a guess: the reader validates `owner` around its probe.
    hint: Box<[AtomicU32]>,
}

impl BufferPool {
    pub(crate) fn new(frames: usize, page_size: usize, stats: Arc<StoreStats>) -> BufferPool {
        // Small pools stay single-sharded so their eviction behavior is the
        // textbook single-clock one (and tiny tests stay deterministic).
        let nshards = if frames >= 64 { 8 } else { 1 };
        let per = frames / nshards;
        let mut shards = Vec::with_capacity(nshards);
        let mut left = frames;
        for s in 0..nshards {
            let n = if s + 1 == nshards { left } else { per };
            left -= n;
            shards.push(Shard {
                frames: (0..n).map(|_| Frame::new(page_size)).collect(),
                state: Mutex::new(ShardState {
                    map: HashMap::new(),
                    meta: vec![FrameMeta::default(); n],
                    free: (0..n).rev().collect(),
                    hand: 0,
                    records: 0,
                }),
            });
        }
        // Four slots per frame keep collisions rare while every page fits.
        let hint_len = (frames * 4).next_power_of_two();
        BufferPool {
            shards: shards.into_boxed_slice(),
            capacity: frames,
            stats,
            dirty_gauge: AtomicUsize::new(0),
            hint: (0..hint_len).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Sets `f`'s dirty bit, keeping the pool-wide gauge exact. Idempotent:
    /// only a clean→dirty transition bumps the gauge.
    pub(crate) fn mark_dirty(&self, f: &Frame) {
        if !f.dirty.swap(true, Ordering::AcqRel) {
            self.dirty_gauge.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Clears `f`'s dirty bit. Returns `true` when the frame *was* dirty
    /// (the caller won the write-back and owes the backend those bytes).
    pub(crate) fn clear_dirty(&self, f: &Frame) -> bool {
        if f.dirty.swap(false, Ordering::AcqRel) {
            let prev = self.dirty_gauge.fetch_sub(1, Ordering::AcqRel);
            debug_assert!(prev > 0, "dirty gauge underflow");
            true
        } else {
            false
        }
    }

    /// Current number of dirty frames (exact, lock-free).
    pub(crate) fn dirty_count(&self) -> usize {
        self.dirty_gauge.load(Ordering::Acquire)
    }

    /// Acquires a shard mutex, timing only the contended (slow) path into
    /// the pool-wait histogram — the uncontended `try_lock` costs nothing
    /// beyond the acquisition itself. The only place `Shard::state` is
    /// locked: every acquisition registers with the latch auditor as a
    /// `PoolShard` (a leaf class — nothing may be acquired under it).
    fn lock_shard<'a>(&self, shard: &'a Shard) -> Audited<MutexGuard<'a, ShardState>> {
        audit::audited(LockClass::PoolShard, shard as *const Shard as usize, || {
            if let Some(g) = shard.state.try_lock() {
                return g;
            }
            let t0 = Instant::now();
            let g = shard.state.lock();
            self.stats
                .pool_wait_hist
                .record(t0.elapsed().as_nanos() as u64);
            g
        })
    }

    /// Total frames.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    fn shard(&self, pid: PageId) -> &Shard {
        &self.shards[pid.to_raw() as usize % self.shards.len()]
    }

    fn hint_slot(&self, pid: PageId) -> &AtomicU32 {
        &self.hint[pid.to_raw() as usize & (self.hint.len() - 1)]
    }

    /// Points `pid`'s hint at frame `i` of its shard. Call under that
    /// shard's mutex; stores only when the hint differs. `Relaxed`: the
    /// hint publishes nothing — frames exist from construction, and the
    /// reader validates whatever it finds through the frame's `version`
    /// and `owner` (both `Acquire`).
    fn set_hint(&self, pid: PageId, i: usize) {
        let n = self.shards.len();
        let code = (1 + pid.to_raw() as usize % n + n * i) as u32;
        let slot = self.hint_slot(pid);
        if slot.load(Ordering::Relaxed) != code {
            slot.store(code, Ordering::Relaxed);
        }
    }

    /// The frame `pid` was last mapped to or hit in, **unpinned and
    /// unvalidated** — the lookup behind `PageStore::probe_unlatched`, and
    /// the only one that takes neither a pin nor a shard mutex. The frame
    /// may hold another page, or none, by the time the caller looks; the
    /// caller must probe under the seqlock and then check `owner`.
    pub(crate) fn frame_hinted(&self, pid: PageId) -> Option<&Frame> {
        let code = self.hint_slot(pid).load(Ordering::Relaxed) as usize;
        let g = code.checked_sub(1)?;
        let n = self.shards.len();
        Some(&self.shards[g % n].frames[g / n])
    }

    /// Looks `pid` up, pinning on a hit, or reserves a frame for it
    /// (possibly choosing a victim). See [`Claim`].
    pub(crate) fn claim(&self, pid: PageId) -> Claim<'_> {
        let shard = self.shard(pid);
        let mut st = self.lock_shard(shard);
        if let Some(&i) = st.map.get(&pid) {
            let f = &shard.frames[i];
            f.pins.fetch_add(1, Ordering::AcqRel);
            f.referenced.store(true, Ordering::Relaxed);
            // A colliding page may have taken the hint since.
            self.set_hint(pid, i);
            return Claim::Hit(f);
        }
        if let Some(i) = st.free.pop() {
            return self.remap(shard, &mut st, i, pid);
        }
        // Record frames first; an index frame goes only when the shard
        // holds no unpinned record frame.
        if st.records > 0 {
            if let Some(c) = self.sweep(shard, &mut st, pid, true) {
                return c;
            }
        }
        self.sweep(shard, &mut st, pid, false)
            .unwrap_or(Claim::Exhausted)
    }

    /// One CLOCK sweep for a victim: two full revolutions (the first may
    /// only be clearing reference bits) before giving up. With
    /// `records_only` the hand passes over index frames and leaves their
    /// reference bits alone. A discarded (freed-page) frame is taken in
    /// either pass: it is reusable without eviction.
    fn sweep<'a>(
        &'a self,
        shard: &'a Shard,
        st: &mut ShardState,
        pid: PageId,
        records_only: bool,
    ) -> Option<Claim<'a>> {
        let n = shard.frames.len();
        for _ in 0..2 * n {
            let i = st.hand;
            st.hand = (st.hand + 1) % n;
            let f = &shard.frames[i];
            // Pins only *increase* under this mutex, so pins == 0 here means
            // no guard exists and none can appear until we pin it ourselves.
            if f.pins.load(Ordering::Acquire) != 0 {
                continue;
            }
            let m = st.meta[i];
            if m.resident.is_some()
                && ((records_only && !m.record) || f.referenced.swap(false, Ordering::Relaxed))
            {
                continue;
            }
            return Some(self.remap(shard, st, i, pid));
        }
        None
    }

    /// Reserves unpinned frame `i` for `pid`, evicting its resident page if
    /// it has one. Dirty victim: keep the old mapping alive until the caller
    /// has flushed it (readers of `old` must not fall through to a stale
    /// backend); the refill disowns the frame when it starts. Clean victim:
    /// the backend is current, unmap (and disown) immediately. The frame
    /// keeps the victim's class until the claim completes, aborts or
    /// restores the victim.
    fn remap<'a>(
        &'a self,
        shard: &'a Shard,
        st: &mut ShardState,
        i: usize,
        pid: PageId,
    ) -> Claim<'a> {
        let f = &shard.frames[i];
        let old = st.meta[i].resident;
        let flush = old.filter(|_| f.dirty.load(Ordering::Acquire));
        match old {
            Some(old) if flush.is_some() => st.meta[i].flushing = Some(old),
            Some(old) => {
                st.map.remove(&old);
                f.disown();
            }
            None => {
                self.clear_dirty(f);
            }
        }
        st.meta[i].resident = Some(pid);
        st.map.insert(pid, i);
        self.set_hint(pid, i);
        f.pins.fetch_add(1, Ordering::AcqRel);
        f.referenced.store(true, Ordering::Relaxed);
        Claim::Miss {
            frame: f,
            idx: i,
            flush,
            evicted: old.is_some(),
        }
    }

    /// Finishes a miss: drops the flushed-out victim's mapping and, if
    /// `pid` is still mapped here, publishes it as the frame's `owner` and
    /// takes its class from `image`, the bytes the frame now holds.
    /// Call under the frame's write latch with the seqlock window still
    /// open, so an unpinned reader that sees the closed window sees the
    /// owner too; publishing under the shard mutex orders it against a
    /// concurrent [`BufferPool::discard`]. Returns `false` when `pid`'s
    /// reservation was discarded while loading (the page was freed
    /// concurrently) — the caller's guard stays valid (it holds a pin) but
    /// the frame is an ownerless orphan that the clock will reclaim.
    pub(crate) fn complete_miss(&self, pid: PageId, idx: usize, image: &[u8]) -> bool {
        let shard = self.shard(pid);
        let mut st = self.lock_shard(shard);
        if let Some(old) = st.meta[idx].flushing.take() {
            if st.map.get(&old) == Some(&idx) {
                st.map.remove(&old);
            }
        }
        let mapped = st.map.get(&pid) == Some(&idx);
        if mapped {
            st.set_record(idx, is_heap_page(image));
            shard.frames[idx].own(pid);
        }
        mapped
    }

    /// Rolls a miss back (load or first write failed): unmaps the
    /// reservation, drops the victim's stale mapping, and releases the
    /// claim's pin. The backend was never written for `pid`, so readers
    /// falling through to it observe the pre-claim state.
    ///
    /// The store calls this before it releases the frame's write latch:
    /// the frame bytes may already be `pid`'s, and a sweep that latched it
    /// while `owner` still named a `flushing` victim would write them
    /// into the victim's slot.
    pub(crate) fn abort_miss(&self, pid: PageId, idx: usize) {
        let shard = self.shard(pid);
        let mut st = self.lock_shard(shard);
        if let Some(old) = st.meta[idx].flushing.take() {
            if st.map.get(&old) == Some(&idx) {
                st.map.remove(&old);
            }
        }
        if st.map.get(&pid) == Some(&idx) {
            st.map.remove(&pid);
        }
        if st.meta[idx].resident == Some(pid) {
            st.orphan(idx);
        }
        let f = &shard.frames[idx];
        self.clear_dirty(f);
        f.disown();
        f.unpin();
    }

    /// True while `idx` is still flushing `old` out — i.e. the victim was
    /// not freed (and possibly reallocated) since the claim. The caller
    /// checks this under the page's slot latch immediately before the
    /// write-back: `free` runs [`BufferPool::discard`] (which clears
    /// `flushing`) before the page can reach the free list, and both `free`
    /// and `alloc` need that same slot latch, so a `true` answer cannot go
    /// stale while the latch is held.
    pub(crate) fn still_flushing(&self, old: PageId, idx: usize) -> bool {
        let shard = self.shard(old);
        let st = self.lock_shard(shard);
        st.meta.get(idx).is_some_and(|m| m.flushing == Some(old))
    }

    /// Rolls back a claim whose victim write-back failed: the victim's
    /// bytes are still the only up-to-date copy, so instead of dropping
    /// them (which would let later reads serve stale backend data as `Ok`)
    /// the victim is reinstated as the frame's resident page, still dirty,
    /// to be flushed again later. `pid`'s reservation is removed. Releases
    /// the claim's pin.
    pub(crate) fn restore_victim(&self, pid: PageId, idx: usize) {
        let shard = self.shard(pid);
        let mut st = self.lock_shard(shard);
        if st.map.get(&pid) == Some(&idx) {
            st.map.remove(&pid);
        }
        match st.meta[idx].flushing.take() {
            // The victim's map entry was never removed (flush-before-unmap),
            // so restoring residency is just flipping the meta back.
            Some(old) if st.map.get(&old) == Some(&idx) => {
                st.meta[idx].resident = Some(old);
            }
            // Victim freed (discard cleared `flushing`) while we failed:
            // its bytes no longer matter — leave the frame an orphan.
            _ => {
                st.orphan(idx);
                self.clear_dirty(&shard.frames[idx]);
                shard.frames[idx].disown();
            }
        }
        shard.frames[idx].unpin();
    }

    /// Drops `pid`'s frame on free: unmaps and disowns it and clears
    /// `dirty` so the stale bytes are never written back. Outstanding
    /// guards keep reading their pinned frame (the paper's "private
    /// snapshot" semantics); the clock reclaims the frame once the last pin
    /// drops.
    pub(crate) fn discard(&self, pid: PageId) {
        let shard = self.shard(pid);
        let mut st = self.lock_shard(shard);
        if let Some(&i) = st.map.get(&pid) {
            if st.meta[i].resident == Some(pid) {
                st.map.remove(&pid);
                st.orphan(i);
                self.clear_dirty(&shard.frames[i]);
                shard.frames[i].disown();
            } else if st.meta[i].flushing == Some(pid) {
                // Mid-eviction of a page that was just freed: drop the stale
                // mapping now; the evictor's flush skips unallocated pages.
                st.map.remove(&pid);
                st.meta[i].flushing = None;
                shard.frames[i].disown();
            }
        }
    }

    /// True when `pid` currently has a frame (used by bypass paths to
    /// re-check, under the page latch, that no loader raced them).
    pub(crate) fn is_mapped(&self, pid: PageId) -> bool {
        self.lock_shard(self.shard(pid)).map.contains_key(&pid)
    }

    /// Pins and returns up to `max` resident frames — only the dirty ones
    /// when `dirty_only` — visiting each shard's frames **in clock-hand
    /// order** from the current hand. The caller writes each frame back
    /// under its read latch and unpins it. Does not advance the hand —
    /// cleaning a frame costs it nothing.
    ///
    /// The order makes the flusher clean the frames the hand passes next,
    /// so foreground evictions mostly find clean victims and skip the
    /// write-back (record frames, which the hand takes first, are not
    /// singled out). The fuzzy checkpoint's writer barrier sweeps clean
    /// frames too: it must *acquire each frame's read latch* to wait out
    /// in-flight writers (who hold the write latch from before their WAL
    /// append until after the dirty bit is set), so a dirty-only snapshot
    /// could miss a write whose record predates the checkpoint cut; it
    /// re-checks `dirty` under the latch.
    pub(crate) fn pin_sweep(&self, dirty_only: bool, max: usize) -> Vec<Pinned<'_>> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let st = self.lock_shard(shard);
            let n = shard.frames.len();
            for i in (0..n).map(|k| (st.hand + k) % n) {
                let f = &shard.frames[i];
                match st.meta[i].resident {
                    Some(pid) if !dirty_only || f.dirty.load(Ordering::Acquire) => {
                        if out.len() == max {
                            return out;
                        }
                        f.pins.fetch_add(1, Ordering::AcqRel);
                        out.push((f, pid, i));
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Pages currently resident (tests/diagnostics).
    #[cfg(test)]
    pub(crate) fn resident(&self) -> usize {
        self.shards
            .iter()
            .map(|s| self.lock_shard(s).map.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> PageId {
        PageId::from_raw(n).unwrap()
    }

    #[test]
    fn hit_after_miss_and_complete() {
        let p = BufferPool::new(4, 32, Arc::new(StoreStats::default()));
        let (f, i) = match p.claim(pid(1)) {
            Claim::Miss {
                frame,
                idx,
                flush: None,
                evicted: false,
            } => (frame, idx),
            _ => panic!("fresh pool must miss"),
        };
        f.owner.store(1, Ordering::Release);
        assert!(p.complete_miss(pid(1), i, &[]));
        f.unpin();
        match p.claim(pid(1)) {
            Claim::Hit(f2) => {
                assert!(f2.owned_by(pid(1)));
                f2.unpin();
            }
            _ => panic!("must hit after load"),
        }
        assert_eq!(p.resident(), 1);
    }

    #[test]
    fn pinned_frames_are_never_victims() {
        let p = BufferPool::new(2, 32, Arc::new(StoreStats::default()));
        // Fill both frames, keep both pinned.
        for n in 1..=2u32 {
            match p.claim(pid(n)) {
                Claim::Miss { frame, idx, .. } => {
                    frame.owner.store(n, Ordering::Release);
                    p.complete_miss(pid(n), idx, &[]);
                    // pin retained
                }
                _ => panic!("miss expected"),
            }
        }
        assert!(matches!(p.claim(pid(3)), Claim::Exhausted));
    }

    #[test]
    fn clock_evicts_unreferenced_and_dirty_victims_keep_mapping() {
        let p = BufferPool::new(1, 32, Arc::new(StoreStats::default()));
        let f1 = match p.claim(pid(1)) {
            Claim::Miss { frame, idx, .. } => {
                frame.owner.store(1, Ordering::Release);
                p.mark_dirty(frame);
                p.complete_miss(pid(1), idx, &[]);
                frame.unpin();
                frame as *const Frame
            }
            _ => panic!(),
        };
        // First claim of 2 sweeps: clears pid(1)'s reference bit, second
        // revolution takes it as the victim with a pending flush.
        match p.claim(pid(2)) {
            Claim::Miss {
                frame,
                idx,
                flush,
                evicted,
            } => {
                assert_eq!(flush, Some(pid(1)));
                assert!(evicted);
                assert!(std::ptr::eq(frame, f1));
                // Old mapping still present until the flush completes.
                assert!(p.is_mapped(pid(1)));
                assert!(p.complete_miss(pid(2), idx, &[]));
                assert!(!p.is_mapped(pid(1)));
                frame.unpin();
            }
            _ => panic!("eviction expected"),
        }
    }

    #[test]
    fn abort_returns_frame_to_the_clock() {
        let p = BufferPool::new(1, 32, Arc::new(StoreStats::default()));
        match p.claim(pid(1)) {
            Claim::Miss { idx, .. } => p.abort_miss(pid(1), idx),
            _ => panic!(),
        }
        assert!(!p.is_mapped(pid(1)));
        // The frame is reusable immediately.
        match p.claim(pid(2)) {
            Claim::Miss {
                idx, flush: None, ..
            } => p.abort_miss(pid(2), idx),
            _ => panic!("aborted frame must be claimable"),
        }
    }

    #[test]
    fn restore_victim_reinstates_dirty_resident() {
        let p = BufferPool::new(1, 32, Arc::new(StoreStats::default()));
        match p.claim(pid(1)) {
            Claim::Miss { frame, idx, .. } => {
                frame.owner.store(1, Ordering::Release);
                p.mark_dirty(frame);
                p.complete_miss(pid(1), idx, &[]);
                frame.unpin();
            }
            _ => panic!(),
        }
        // Claim 2 over the dirty 1, then fail the flush: 1 must come back.
        match p.claim(pid(2)) {
            Claim::Miss {
                frame, idx, flush, ..
            } => {
                assert_eq!(flush, Some(pid(1)));
                assert!(p.still_flushing(pid(1), idx));
                p.restore_victim(pid(2), idx);
                assert!(frame.dirty.load(Ordering::Acquire), "dirty preserved");
            }
            _ => panic!(),
        }
        assert!(!p.is_mapped(pid(2)));
        match p.claim(pid(1)) {
            Claim::Hit(f) => {
                assert!(f.owned_by(pid(1)), "victim restored as resident");
                f.unpin();
            }
            _ => panic!("restored victim must hit"),
        }
        assert_eq!(p.pin_sweep(true, usize::MAX).len(), 1);
        for (f, _, _) in p.pin_sweep(true, usize::MAX) {
            f.unpin();
        }
    }

    #[test]
    fn freed_victim_is_not_still_flushing() {
        let p = BufferPool::new(1, 32, Arc::new(StoreStats::default()));
        match p.claim(pid(1)) {
            Claim::Miss { frame, idx, .. } => {
                frame.owner.store(1, Ordering::Release);
                p.mark_dirty(frame);
                p.complete_miss(pid(1), idx, &[]);
                frame.unpin();
            }
            _ => panic!(),
        }
        match p.claim(pid(2)) {
            Claim::Miss { idx, flush, .. } => {
                assert_eq!(flush, Some(pid(1)));
                // Page 1 is freed (and could be reallocated) mid-eviction:
                // the write-back must be suppressed, and a restore after a
                // (hypothetical) failed flush leaves an orphan, not a
                // resurrected freed page.
                p.discard(pid(1));
                assert!(!p.still_flushing(pid(1), idx));
                p.restore_victim(pid(2), idx);
            }
            _ => panic!(),
        }
        assert!(!p.is_mapped(pid(1)));
        assert!(!p.is_mapped(pid(2)));
        assert!(
            p.pin_sweep(true, usize::MAX).is_empty(),
            "orphan frame must not stay dirty"
        );
    }

    #[test]
    fn discard_unmaps_and_clears_dirty() {
        let p = BufferPool::new(2, 32, Arc::new(StoreStats::default()));
        match p.claim(pid(7)) {
            Claim::Miss { frame, idx, .. } => {
                frame.owner.store(7, Ordering::Release);
                p.mark_dirty(frame);
                p.complete_miss(pid(7), idx, &[]);
                frame.unpin();
            }
            _ => panic!(),
        }
        p.discard(pid(7));
        assert!(!p.is_mapped(pid(7)));
        assert!(
            p.pin_sweep(true, usize::MAX).is_empty(),
            "discard must clear dirty"
        );
        // Claiming something new never flushes the discarded page.
        match p.claim(pid(8)) {
            Claim::Miss { flush, idx, .. } => {
                assert_eq!(flush, None);
                p.abort_miss(pid(8), idx);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn pin_dirty_pins_exactly_the_dirty_frames() {
        let p = BufferPool::new(4, 32, Arc::new(StoreStats::default()));
        for n in 1..=3u32 {
            match p.claim(pid(n)) {
                Claim::Miss { frame, idx, .. } => {
                    frame.owner.store(n, Ordering::Release);
                    if n != 2 {
                        p.mark_dirty(frame);
                    }
                    p.complete_miss(pid(n), idx, &[]);
                    frame.unpin();
                }
                _ => panic!(),
            }
        }
        let dirty = p.pin_sweep(true, usize::MAX);
        let mut pids: Vec<u32> = dirty.iter().map(|(_, p, _)| p.to_raw()).collect();
        pids.sort_unstable();
        assert_eq!(pids, vec![1, 3]);
        for (f, _, _) in dirty {
            f.unpin();
        }
    }

    /// A 32-byte page image: an empty heap page (`record`) or zeros, which
    /// no heap page is.
    fn image(record: bool) -> [u8; 32] {
        let mut b = [0u8; 32];
        if record {
            b[4] = 24; // free space starts past the 24-byte header
            b[6..8].copy_from_slice(&crate::HEAP_MAGIC.to_le_bytes());
        }
        b
    }

    /// Claims `n` into a fresh frame, publishes it with its class and
    /// unpins it (keeping the pin when `pinned`). Returns the frame index.
    fn load(p: &BufferPool, n: u32, record: bool, pinned: bool) -> usize {
        let Claim::Miss { frame, idx, .. } = p.claim(pid(n)) else {
            panic!("miss expected for {n}");
        };
        frame.own(pid(n));
        assert!(p.complete_miss(pid(n), idx, &image(record)));
        if !pinned {
            frame.unpin();
        }
        idx
    }

    /// Each shard's kept record count, checked against a recount of its
    /// resident record frames (an unmapped frame is never a record frame).
    fn records(p: &BufferPool) -> usize {
        p.shards
            .iter()
            .map(|s| {
                let st = p.lock_shard(s);
                let recount = st
                    .meta
                    .iter()
                    .filter(|m| m.record && m.resident.is_some())
                    .count();
                assert_eq!(st.records, recount, "kept count drifted");
                assert_eq!(st.meta.iter().filter(|m| m.record).count(), recount);
                st.records
            })
            .sum()
    }

    fn referenced(p: &BufferPool, i: usize) -> bool {
        p.shards[0].frames[i].referenced.load(Ordering::Relaxed)
    }

    #[test]
    fn a_record_frame_is_taken_before_any_index_frame() {
        let p = BufferPool::new(4, 32, Arc::new(StoreStats::default()));
        let idx: Vec<usize> = [(1, false), (2, true), (3, false), (4, false)]
            .into_iter()
            .map(|(n, record)| load(&p, n, record, false))
            .collect();
        assert_eq!(records(&p), 1);
        // Every frame is referenced; the record pass clears only the record
        // frame's bit, comes round and takes it.
        match p.claim(pid(5)) {
            Claim::Miss {
                idx: i,
                flush: None,
                evicted: true,
                ..
            } => {
                assert_eq!(i, idx[1], "the record frame is the victim");
                assert!(p.complete_miss(pid(5), i, &[]));
                p.shards[0].frames[i].unpin();
            }
            _ => panic!("eviction expected"),
        }
        for i in [idx[0], idx[2], idx[3]] {
            assert!(referenced(&p, i), "the record pass left index bits set");
        }
        assert!(!p.is_mapped(pid(2)));
        assert_eq!(records(&p), 0);
    }

    #[test]
    fn an_index_frame_is_taken_only_without_an_unpinned_record_frame() {
        let p = BufferPool::new(3, 32, Arc::new(StoreStats::default()));
        let rec = load(&p, 1, true, true);
        let a = load(&p, 2, false, false);
        load(&p, 3, false, false);
        // The one record frame is pinned: plain CLOCK takes an index frame.
        match p.claim(pid(4)) {
            Claim::Miss { idx, evicted, .. } => {
                assert_ne!(idx, rec);
                assert!(evicted);
                assert_eq!(idx, a, "plain CLOCK from the hand");
                assert!(p.complete_miss(pid(4), idx, &image(true)));
                p.shards[0].frames[idx].unpin();
            }
            _ => panic!("eviction expected"),
        }
        assert!(p.is_mapped(pid(1)), "the pinned record frame stays");
        // Page 4 is a record page now: it goes before index page 3.
        match p.claim(pid(5)) {
            Claim::Miss { idx, .. } => {
                assert_eq!(idx, a);
                p.abort_miss(pid(5), idx);
            }
            _ => panic!("eviction expected"),
        }
        assert!(p.is_mapped(pid(3)));
        p.shards[0].frames[rec].unpin();
        assert_eq!(records(&p), 1);
    }

    #[test]
    fn the_record_count_stays_exact_across_unmaps() {
        let p = BufferPool::new(2, 32, Arc::new(StoreStats::default()));
        load(&p, 1, true, false);
        load(&p, 2, true, false);
        assert_eq!(records(&p), 2);
        p.discard(pid(1));
        assert_eq!(records(&p), 1);
        // The discarded frame is reused without eviction, then aborted.
        let Claim::Miss {
            idx,
            evicted: false,
            ..
        } = p.claim(pid(3))
        else {
            panic!("the discarded frame must be reused")
        };
        p.abort_miss(pid(3), idx);
        assert_eq!(records(&p), 1);
        load(&p, 3, false, false);
        // A claim keeps the victim's class in flight; an abort unmaps it.
        let Claim::Miss { idx, .. } = p.claim(pid(4)) else {
            panic!("eviction expected")
        };
        assert!(!p.is_mapped(pid(2)), "the clean record page is the victim");
        assert_eq!(records(&p), 1);
        p.abort_miss(pid(4), idx);
        assert_eq!(records(&p), 0);
        // A failed write-back restores a dirty record victim as a record.
        let i = load(&p, 2, true, true);
        p.mark_dirty(&p.shards[0].frames[i]);
        p.shards[0].frames[i].unpin();
        let Claim::Miss {
            idx,
            flush: Some(_),
            ..
        } = p.claim(pid(5))
        else {
            panic!("the dirty record page is the victim")
        };
        p.restore_victim(pid(5), idx);
        assert_eq!(records(&p), 1);
        p.discard(pid(2));
        assert_eq!(records(&p), 0);
        assert!(p.is_mapped(pid(3)), "the index page stayed throughout");
    }

    #[test]
    fn zero_capacity_pool_is_always_exhausted() {
        let p = BufferPool::new(0, 32, Arc::new(StoreStats::default()));
        assert!(matches!(p.claim(pid(1)), Claim::Exhausted));
        assert!(!p.is_mapped(pid(1)));
        p.discard(pid(1));
    }
}
