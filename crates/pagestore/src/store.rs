//! The page store: §2.2's model of secondary storage over a buffer pool.
//!
//! * `get(x)` returns the contents of the page, `put(A, x)` overwrites it;
//!   each is indivisible with respect to the other. The hot-path forms are
//!   [`PageStore::read`], which returns a [`PageRef`] borrowing the bytes
//!   of a pinned **buffer-pool frame** (a hit performs zero page-sized
//!   copies), and [`PageStore::write_page`], whose [`PageWrite::commit`] is
//!   the atomic publish. The §2.2 semantics are unchanged: a process
//!   decodes its node from the guard (a stable snapshot — writers need the
//!   frame's write latch) and then reasons over that private value while
//!   others rewrite the page.
//! * `lock(x)` / `unlock(x)` implement the paper's single lock type: a lock
//!   excludes other *lockers* but never blocks `get` — "a lock on a node
//!   does not prevent other processes from reading the locked node".
//! * Pages are allocated from a free list and freed back to it (freeing is
//!   normally routed through [`crate::reclaim::DeferredFreeList`]).
//!
//! ## One frame funnel
//!
//! Every latched page access goes through `PageStore::claim_frame`, the
//! only `pool.claim` loop there is: it pins the page's frame, latches it
//! shared (`read`) or exclusive (`write_page`), revalidates `owner` and
//! the allocation flag under the latch, and on a miss writes the dirty
//! victim back and loads (or, for an overwrite, zeroes) the frame. When no
//! frame can be had — every frame pinned, or `StoreConfig::pool_frames` is
//! `0` — its `Exhausted` arm is **the bypass**: a private copy read from
//! the backend under the slot latch, committed by `write_bypass` (log +
//! backend write in one slot-latch section). Backend page writes have
//! three callers: `write_back_frame` (shared by `flush`,
//! `flush_for_checkpoint` and the flusher), `write_back_victim` (eviction)
//! and `write_bypass`. `latch_lint` holds both counts where they are.
//!
//! The *bytes* live in a pluggable [`PageBackend`] fronted by the pool:
//! writes are **write-back** (they land in the frame and reach the backend
//! on eviction or [`PageStore::sync`]), reads are served from the frame
//! when resident. When a [`Journal`] is attached, every `alloc`/`free`/
//! committed write is logged **before** it is published — write-ahead
//! ordering — so a dirty frame's WAL record always precedes its
//! write-back, and the store stays recoverable from the log plus a
//! checkpoint image even though the backend lags the frames.
//!
//! ## Lock order
//!
//! frame latch → page slot latch (`Slot::allocated`) → journal/backend.
//! Pool shard mutexes are leaves and may be taken at any point. All backend
//! I/O for a page happens under that page's slot latch, which serializes
//! loads, write-backs, bypass accesses and alloc-zeroing of the same page.
//! The `latch-audit` feature checks this order (and the frame-latch level
//! rule) at runtime — see [`crate::audit`]; every lock site below goes
//! through an audited wrapper (`latch_read`/`latch_write`, `Slot::latch`,
//! `slots_read`/`slots_write`, `lock_free`).
//!
//! An optional per-access delay (`StoreConfig::io_delay`) simulates the
//! latency of a real disk/SSD block access on every **backend** access
//! (misses, write-backs, bypasses), so that the relative cost of holding
//! locks across I/O — the effect the paper's lock-count argument is about —
//! remains observable in experiments. Frame hits skip it.

use crate::audit::{self, Audited, LockClass};
use crate::backend::{MemBackend, PageBackend};
use crate::error::{Result, StoreError};
use crate::health::StoreHealth;
use crate::journal::Journal;
use crate::page::{page_lsn, set_page_lsn, PAGE_LSN_LEN, PAGE_LSN_OFFSET, PAGE_RESERVED_END};
use crate::page::{stamp_page_crc, verify_page_crc};
use crate::page::{Page, PageId};
use crate::pool::{BufferPool, Claim, Frame};
use crate::session::Session;
use crate::stats::StoreStats;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::ops::Deref;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Configuration for a [`PageStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Size of every page in bytes.
    pub page_size: usize,
    /// If set, every backend access (pool miss, write-back, bypass)
    /// busy-waits this long while holding the page latch, simulating a
    /// storage access. Frame hits skip it. `None` for RAM-speed tests.
    pub io_delay: Option<Duration>,
    /// Buffer-pool size in frames (CLOCK replacement over pinned frames).
    /// `0` disables the pool entirely: every access copies through the
    /// backend, which is the literal §2.2 model.
    pub pool_frames: usize,
    /// Run a dedicated background thread that writes dirty frames back to
    /// the backend in clock-hand order whenever the dirty-page gauge rises
    /// above a low watermark, so foreground evictions almost never pay a
    /// `PageBackend::write`. Writers stall briefly (bounded) only above a
    /// high watermark. Requires a pool (`pool_frames > 0`); off by default
    /// — in-memory stores have nothing to gain from it.
    pub background_flusher: bool,
    /// Maintain a store-owned CRC32 over every page image the backend
    /// receives — stamped into the reserved header field at
    /// [`crate::page::PAGE_CRC_OFFSET`] on write-back and verified on
    /// every backend read — so torn page-file writes and bit rot surface
    /// as a typed [`StoreError::ChecksumMismatch`] instead of silently
    /// decoding garbage. Frames never carry a live checksum: the stamp
    /// goes into a scratch copy on the way out, and an all-zero
    /// (never-written) page verifies as unstamped. Off by default — an
    /// in-memory backend cannot rot; the durable layer turns it on.
    pub page_checksums: bool,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            page_size: 4096,
            io_delay: None,
            pool_frames: 1024,
            background_flusher: false,
            page_checksums: false,
        }
    }
}

impl StoreConfig {
    /// Store with the given page size and the default buffer pool.
    pub fn with_page_size(page_size: usize) -> StoreConfig {
        StoreConfig {
            page_size,
            ..StoreConfig::default()
        }
    }
}

/// Bridging distance for delta coalescing: two tracked ranges closer than
/// this merge into one span. A bridged gap logs its (unchanged) bytes
/// once, but saves a 4-byte range header and keeps replay sequential —
/// heap writes (record bytes + a slot-directory entry + header words)
/// typically collapse to 2–3 spans.
const MERGE_GAP: usize = 16;

/// Backoff schedule for transient backend I/O errors: up to three retries
/// after the initial attempt, sleeping 50µs, 200µs, 800µs between them.
/// Short enough that a foreground op under a latch stalls for ~1ms worst
/// case; long enough to ride out a momentary EINTR/EAGAIN-class hiccup.
const IO_RETRY_BACKOFF: [Duration; 3] = [
    Duration::from_micros(50),
    Duration::from_micros(200),
    Duration::from_micros(800),
];

/// Merges tracked dirty ranges into ascending, non-overlapping spans
/// (bridging gaps up to [`MERGE_GAP`]).
fn coalesce_ranges(ranges: &[(u32, u32)]) -> Vec<(usize, usize)> {
    let mut sorted: Vec<(usize, usize)> = ranges
        .iter()
        .filter(|&&(_, len)| len > 0)
        .map(|&(off, len)| (off as usize, len as usize))
        .collect();
    sorted.sort_unstable();
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(sorted.len());
    for (off, len) in sorted {
        if let Some(last) = out.last_mut() {
            let last_end = last.0 + last.1;
            if off <= last_end + MERGE_GAP {
                last.1 = (off + len).max(last_end) - last.0;
                continue;
            }
        }
        out.push((off, len));
    }
    out
}

/// The paper's lock: exclusive among lockers, invisible to readers.
#[derive(Debug)]
struct PaperLock {
    owner: Mutex<Option<u64>>,
    cv: Condvar,
}

impl PaperLock {
    fn new() -> PaperLock {
        PaperLock {
            owner: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Acquires the lock for `sid`, waiting while another session owns it:
    /// forever with no `deadline`, else until it passes (a deadline of
    /// "now" never waits — `try_lock`). Returns the nanoseconds spent
    /// waiting (0 when uncontended), or `None` when the deadline won.
    fn acquire(&self, sid: u64, deadline: Option<Instant>) -> Option<u64> {
        let mut owner = self.owner.lock();
        // Only the unbounded wait would deadlock on itself.
        assert!(
            deadline.is_some() || *owner != Some(sid),
            "session {sid} attempted recursive lock"
        );
        let mut wait_ns = 0;
        if owner.is_some() {
            let t0 = Instant::now();
            while owner.is_some() {
                match deadline {
                    None => self.cv.wait(&mut owner),
                    Some(d) => {
                        if self.cv.wait_until(&mut owner, d).timed_out() {
                            return None;
                        }
                    }
                }
            }
            wait_ns = t0.elapsed().as_nanos() as u64;
        }
        *owner = Some(sid);
        drop(owner);
        // Paper locks are not RAII (the protocols release them in different
        // scopes), so the auditor registration is manual and `unlock`
        // undoes it. The internal `owner` mutex is an implementation detail
        // (held only for the handful of instructions around the state
        // change) and is deliberately not a `LockClass` of its own.
        audit::acquire_manual(LockClass::PaperLock, self as *const PaperLock as usize);
        Some(wait_ns)
    }

    fn unlock(&self, sid: u64) {
        let mut owner = self.owner.lock();
        assert_eq!(
            *owner,
            Some(sid),
            "unlock by session {sid} which is not the owner ({:?})",
            *owner
        );
        *owner = None;
        drop(owner);
        audit::release_manual(LockClass::PaperLock, self as *const PaperLock as usize);
        self.cv.notify_one();
    }
}

/// Per-page bookkeeping: the §2.2 slot latch (doubling as the allocation
/// flag holder) and the paper lock. Every backend access for the page is
/// made while holding the `allocated` mutex, which is what keeps loads,
/// write-backs and bypass accesses of one page mutually indivisible.
#[derive(Debug)]
struct Slot {
    allocated: Mutex<bool>,
    lock: PaperLock,
    /// Checkpoint epoch of the page's last full-image WAL record (a put or
    /// an alloc — both let replay rebuild the page from scratch). A delta
    /// record is only legal while this equals the store's current epoch:
    /// the first write after a checkpoint (or after open) must log a full
    /// image so recovery always finds a base to apply deltas over — which
    /// is also what repairs torn page-file writes without full images on
    /// every put. `0` means "no base yet". Read and written under the
    /// slot's `allocated` latch (the same latch every journal append for
    /// the page holds).
    base_epoch: AtomicU64,
}

impl Slot {
    fn new(allocated: bool) -> Arc<Slot> {
        Arc::new(Slot {
            allocated: Mutex::new(allocated),
            lock: PaperLock::new(),
            base_epoch: AtomicU64::new(0),
        })
    }

    /// The only place `Slot::allocated` is locked: every acquisition
    /// registers with the latch auditor as a `SlotLatch` (legal under a
    /// frame latch; journal appends and pool-shard checks may nest inside).
    fn latch(&self) -> Audited<MutexGuard<'_, bool>> {
        audit::audited(LockClass::SlotLatch, self as *const Slot as usize, || {
            self.allocated.lock()
        })
    }
}

/// Zero-copy read access to a page, as returned by [`PageStore::read`].
///
/// On a pool hit this borrows the pinned frame's bytes under the frame's
/// read latch — the §2.2 "private copy" without the copy: the view is
/// immutable for the guard's lifetime (writers need the write latch), and
/// the pin keeps the frame from being evicted or reused. When the pool is
/// full of pinned frames (or disabled), the guard owns a private copy
/// instead; callers cannot tell the difference.
#[derive(Debug)]
pub struct PageRef<'a> {
    inner: RefInner<'a>,
}

#[derive(Debug)]
enum RefInner<'a> {
    Frame {
        frame: &'a Frame,
        guard: Option<Audited<RwLockReadGuard<'a, Box<[u8]>>>>,
    },
    Owned(Page),
}

impl PageRef<'_> {
    /// The page bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            RefInner::Frame { guard, .. } => guard.as_ref().expect("live guard"),
            RefInner::Owned(p) => p.bytes(),
        }
    }

    /// Page length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Never true for store pages.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Copies into an owned [`Page`] (the explicit §2.2 `get`).
    pub fn to_page(&self) -> Page {
        Page::copy_of(self.bytes())
    }
}

impl Deref for PageRef<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

impl Drop for PageRef<'_> {
    fn drop(&mut self) {
        if let RefInner::Frame { frame, guard } = &mut self.inner {
            drop(guard.take());
            frame.unpin();
        }
    }
}

/// Token returned by [`PageStore::read_unlatched`]: identifies the frame
/// that served the optimistic snapshot and the seqlock version it was
/// validated at. Pass back to [`PageStore::stamp_valid`] to check that the
/// snapshot is still current before acting on it.
#[derive(Debug, Clone, Copy)]
pub struct PageStamp {
    /// `*const Frame` as usize; frames live as long as the store.
    frame: usize,
    /// The even seqlock version the snapshot validated against.
    version: u64,
}

/// How [`PageStore::write_page`] should initialize the write buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteIntent {
    /// The caller rewrites every byte (e.g. re-encoding a node); the
    /// current contents need not be loaded on a pool miss.
    Overwrite,
    /// Read-modify-write: the buffer starts as the page's current contents.
    Update,
}

/// A frame latch in either mode.
enum Latch<'a> {
    Shared(Audited<RwLockReadGuard<'a, Box<[u8]>>>),
    Exclusive(Audited<RwLockWriteGuard<'a, Box<[u8]>>>),
}

impl Latch<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            Latch::Shared(g) => g,
            Latch::Exclusive(g) => g,
        }
    }
}

/// What the frame funnel ([`PageStore::claim_frame`]) hands back.
enum Claimed<'a> {
    /// The page's frame, pinned (the caller owns the pin) and latched.
    Frame {
        frame: &'a Frame,
        latch: Latch<'a>,
        /// Claimed for this write, unpublished: see [`FrameWrite::fresh`].
        fresh: Option<usize>,
    },
    /// No frame could be had: a private copy of the page (all zeros for
    /// [`WriteIntent::Overwrite`]).
    Bypass(Page),
}

/// Exclusive in-place write access to a page, from [`PageStore::write_page`].
///
/// The guard holds the frame's write latch, so the mutation is invisible
/// until [`PageWrite::commit`], which logs the full image to the journal
/// (write-ahead) and then publishes by marking the frame dirty. Dropping
/// without committing rolls the page back to its prior contents.
#[derive(Debug)]
pub struct PageWrite<'a> {
    store: &'a PageStore,
    pid: PageId,
    /// The page's slot, looked up once by `write_page`; commit latches it.
    slot: Arc<Slot>,
    /// Byte ranges dirtied through the tracked-write API (`off`, `len`).
    /// Commit coalesces them into a delta record when the gates in
    /// [`PageStore::log_page_write`] pass.
    ranges: Vec<(u32, u32)>,
    /// Set once [`PageWrite::bytes_mut`] handed out the whole page: the
    /// ranges are no longer exhaustive, so commit logs a full image.
    untracked: bool,
    /// `None` once commit consumed the state (Drop is then a no-op).
    inner: Option<WriteInner<'a>>,
}

#[derive(Debug)]
enum WriteInner<'a> {
    /// A pinned frame under its write latch with the seqlock window open
    /// (commit/rollback closes it); bytes are mutated in place.
    Frame(FrameWrite<'a>),
    /// Pool exhausted/disabled: private staging buffer, applied on commit.
    Owned(Page),
}

#[derive(Debug)]
struct FrameWrite<'a> {
    frame: &'a Frame,
    guard: Audited<RwLockWriteGuard<'a, Box<[u8]>>>,
    /// `Some(idx)`: the frame was claimed for this write and is not yet
    /// published — commit completes the miss, rollback aborts it (the
    /// backend still holds the prior contents, so there is no undo copy).
    fresh: Option<usize>,
    /// Prior image of a resident frame, restored on rollback.
    undo: Option<Box<[u8]>>,
}

impl FrameWrite<'_> {
    /// Abandons the write: a resident frame gets its prior image back, a
    /// fresh one is handed back to the pool unpublished. Releases the pin.
    fn rollback(mut self, store: &PageStore, pid: PageId) {
        if let Some(undo) = &self.undo {
            self.guard.copy_from_slice(undo);
        }
        self.frame.end_write();
        drop(self.guard);
        match self.fresh {
            Some(idx) => store.pool.abort_miss(pid, idx), // unpins
            None => self.frame.unpin(),
        }
    }
}

impl PageWrite<'_> {
    /// Mutable access to the page image being written. Taking the whole
    /// page marks the write **untracked**: commit logs a full image.
    /// Callers that dirty only a few byte ranges should use
    /// [`PageWrite::write_at`] / [`PageWrite::tracked_mut`] instead so the
    /// commit can log a small delta record.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.untracked = true;
        self.raw_mut()
    }

    fn raw_mut(&mut self) -> &mut [u8] {
        match self.inner.as_mut().expect("live guard") {
            WriteInner::Frame(fw) => &mut fw.guard,
            WriteInner::Owned(p) => p.bytes_mut(),
        }
    }

    /// Mutable access to exactly `len` bytes at `off`, **recording the
    /// range**: a commit whose every mutation went through this API can be
    /// journaled as a coalesced delta record instead of a full page image.
    ///
    /// Tracked callers promise their page layout reserves
    /// [`PAGE_LSN_OFFSET`]`..`[`PAGE_RESERVED_END`] for the store's
    /// per-page LSN and checksum (heap pages do, in their header); a
    /// tracked range must not overlap it.
    pub fn tracked_mut(&mut self, off: usize, len: usize) -> &mut [u8] {
        self.note_range(off, len);
        &mut self.raw_mut()[off..off + len]
    }

    /// Writes `data` at `off` through the tracked-range API (see
    /// [`PageWrite::tracked_mut`]).
    pub fn write_at(&mut self, off: usize, data: &[u8]) {
        self.tracked_mut(off, data.len()).copy_from_slice(data);
    }

    fn note_range(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        debug_assert!(off + len <= self.len(), "tracked write past page end");
        debug_assert!(
            off + len <= PAGE_LSN_OFFSET || off >= PAGE_RESERVED_END,
            "tracked write overlaps the reserved page header (LSN + CRC)"
        );
        self.ranges.push((off as u32, len as u32));
    }

    /// Read access to the (in-progress) image.
    pub fn bytes(&self) -> &[u8] {
        match self.inner.as_ref().expect("live guard") {
            WriteInner::Frame(fw) => &fw.guard,
            WriteInner::Owned(p) => p.bytes(),
        }
    }

    /// Page length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Never true for store pages.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Commits the new image: journal first (one WAL record — a coalesced
    /// delta when every mutation was tracked and the gates pass, else a
    /// full image; either way the commit point), then publish. On error
    /// the page is left unchanged.
    pub fn commit(self) -> Result<()> {
        StoreStats::bump(&self.store.stats.puts);
        self.publish()
    }

    fn publish(mut self) -> Result<()> {
        let (store, pid) = (self.store, self.pid);
        match self.inner.take().expect("live guard") {
            WriteInner::Frame(mut fw) => {
                let tracked = (!self.untracked).then_some(&self.ranges[..]);
                let logged = {
                    let allocated = self.slot.latch();
                    if !*allocated {
                        Err(StoreError::PageFreed(pid))
                    } else {
                        store.log_page_write(pid, &self.slot, &fw.guard, tracked)
                    }
                };
                let lsn = match logged {
                    Ok(lsn) => lsn,
                    Err(e) => {
                        fw.rollback(store, pid);
                        return Err(e);
                    }
                };
                if let Some(lsn) = lsn {
                    set_page_lsn(&mut fw.guard, lsn);
                }
                fw.frame.end_write();
                store.pool.mark_dirty(fw.frame);
                // Publishes a fresh frame; a resident one already says `pid`.
                fw.frame
                    .owner
                    .store(pid.to_raw(), std::sync::atomic::Ordering::Release);
                drop(fw.guard);
                if let Some(idx) = fw.fresh {
                    store.pool.complete_miss(pid, idx);
                }
                fw.frame.unpin();
                Ok(())
            }
            // A private buffer is not covered by a frame write latch, so
            // two same-page bypass writers can interleave — last-writer-
            // wins is only sound for whole images, never for merged delta
            // chains: `write_bypass` logs a full image whatever was
            // tracked. (Delta logging therefore needs the buffer pool;
            // `pool_frames: 0` stores log full images only.)
            WriteInner::Owned(page) => {
                if store.write_bypass(pid, &self.slot, page.bytes())? {
                    return Ok(());
                }
                // A loader mapped the page since `write_page` found the
                // pool exhausted; readers of that frame must see the new
                // image, so it goes through the frame.
                let mut w = store.write_page(pid, WriteIntent::Overwrite)?;
                w.bytes_mut().copy_from_slice(page.bytes());
                w.publish()
            }
        }
    }
}

impl Drop for PageWrite<'_> {
    fn drop(&mut self) {
        if let Some(WriteInner::Frame(fw)) = self.inner.take() {
            fw.rollback(self.store, self.pid);
        }
    }
}

/// §2.2's model of secondary storage over a pluggable [`PageBackend`],
/// fronted by a pinned-frame buffer pool.
#[derive(Debug)]
pub struct PageStore {
    cfg: StoreConfig,
    backend: Box<dyn PageBackend>,
    journal: Option<Arc<dyn Journal>>,
    slots: RwLock<Vec<Arc<Slot>>>,
    free: Mutex<Vec<PageId>>,
    pool: BufferPool,
    stats: Arc<StoreStats>,
    /// Sticky fsync poisoning + the background-error latch, shared with
    /// the WAL and the durable facade (see [`crate::health`]).
    health: Arc<StoreHealth>,
    zero: Box<[u8]>,
    /// Current checkpoint epoch (starts at 1; bumped by
    /// [`PageStore::advance_checkpoint_epoch`]). A page whose
    /// `Slot::base_epoch` lags this must log a full image before any delta.
    epoch: AtomicU64,
    /// The background write-back thread (see [`crate::flusher`]), spawned
    /// after the `Arc` exists when `StoreConfig::background_flusher` is on.
    flusher: OnceLock<crate::flusher::FlusherHandle>,
}

impl PageStore {
    /// An in-memory, non-durable store (the original §2.2 slot array).
    pub fn new(cfg: StoreConfig) -> Arc<PageStore> {
        let backend = Box::new(MemBackend::new(cfg.page_size));
        PageStore::with_parts(cfg, backend, None, Arc::new(StoreStats::default()), &[])
            .expect("in-memory store construction cannot fail")
    }

    /// Builds a store over an arbitrary backend, optionally journaled.
    ///
    /// `allocated[i]` seeds the allocation state of page `i + 1` (recovery
    /// passes the state reconstructed from checkpoint + log replay; an empty
    /// slice means a fresh store). `stats` is shared so the journal
    /// implementation can maintain the WAL counters on the same object.
    pub fn with_parts(
        cfg: StoreConfig,
        backend: Box<dyn PageBackend>,
        journal: Option<Arc<dyn Journal>>,
        stats: Arc<StoreStats>,
        allocated: &[bool],
    ) -> Result<Arc<PageStore>> {
        if backend.page_size() != cfg.page_size {
            return Err(StoreError::Config(
                "backend page size disagrees with config",
            ));
        }
        backend.grow(allocated.len())?;
        let mut slots = Vec::with_capacity(allocated.len());
        let mut free = Vec::new();
        for (i, &is_alloc) in allocated.iter().enumerate() {
            slots.push(Slot::new(is_alloc));
            if !is_alloc {
                free.push(PageId::from_index(i));
            }
        }
        let store = Arc::new(PageStore {
            pool: BufferPool::new(cfg.pool_frames, cfg.page_size, Arc::clone(&stats)),
            zero: vec![0u8; cfg.page_size].into_boxed_slice(),
            cfg,
            backend,
            journal,
            slots: RwLock::new(slots),
            free: Mutex::new(free),
            stats,
            health: Arc::new(StoreHealth::new()),
            epoch: AtomicU64::new(1),
            flusher: OnceLock::new(),
        });
        if store.cfg.background_flusher && store.pool.capacity() > 0 {
            let _ = store.flusher.set(crate::flusher::spawn(&store));
        }
        Ok(store)
    }

    /// Acquires a frame's read latch, timing only the contended path into
    /// the latch-wait histogram. With `latch_write` below, the only places
    /// `Frame::data` is latched: every acquisition registers with the latch
    /// auditor as a `FrameLatch` (the level rule attaches once the frame is
    /// classified via [`audit::classify_frame`]).
    fn latch_read<'a>(&self, frame: &'a Frame) -> Audited<RwLockReadGuard<'a, Box<[u8]>>> {
        audit::audited(LockClass::FrameLatch, frame.audit_addr(), || {
            if let Some(g) = frame.data.try_read() {
                return g;
            }
            let t0 = Instant::now();
            let g = frame.data.read();
            self.stats.record_latch_wait(t0.elapsed().as_nanos() as u64);
            g
        })
    }

    /// Acquires a frame's write latch, timing only the contended path.
    fn latch_write<'a>(&self, frame: &'a Frame) -> Audited<RwLockWriteGuard<'a, Box<[u8]>>> {
        audit::audited(LockClass::FrameLatch, frame.audit_addr(), || {
            if let Some(g) = frame.data.try_write() {
                return g;
            }
            let t0 = Instant::now();
            let g = frame.data.write();
            self.stats.record_latch_wait(t0.elapsed().as_nanos() as u64);
            g
        })
    }

    /// The only readers of the slot table: registers as `SlotsMap` (a leaf
    /// — callers clone the `Arc<Slot>` out and drop the guard before
    /// touching any other lock).
    fn slots_read(&self) -> Audited<RwLockReadGuard<'_, Vec<Arc<Slot>>>> {
        audit::audited(
            LockClass::SlotsMap,
            self as *const PageStore as usize,
            || self.slots.read(),
        )
    }

    /// The only writer of the slot table (the alloc growth path).
    fn slots_write(&self) -> Audited<RwLockWriteGuard<'_, Vec<Arc<Slot>>>> {
        audit::audited(
            LockClass::SlotsMap,
            self as *const PageStore as usize,
            || self.slots.write(),
        )
    }

    /// The only place the free list is locked: registers as `FreeList` (a
    /// leaf — callers pop/push in a single statement).
    fn lock_free(&self) -> Audited<MutexGuard<'_, Vec<PageId>>> {
        audit::audited(
            LockClass::FreeList,
            &self.free as *const Mutex<Vec<PageId>> as usize,
            || self.free.lock(),
        )
    }

    /// Store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.cfg.page_size
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// The attached journal, if this store is durable.
    pub fn journal(&self) -> Option<&Arc<dyn Journal>> {
        self.journal.as_ref()
    }

    /// The store's shared health state (sticky fsync poisoning and the
    /// background-error latch). The durable layer hands a clone to the
    /// WAL so a failed fsync poisons everything that shares the store.
    pub fn health(&self) -> Arc<StoreHealth> {
        Arc::clone(&self.health)
    }

    /// Surfaces a latched background error (a flusher write-back that had
    /// no caller to fail) on this foreground operation. A single relaxed
    /// load when nothing is flagged.
    #[inline]
    fn check_health(&self) -> Result<()> {
        match self.health.take_flagged() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Pages currently resident in the buffer pool.
    pub fn pool_resident(&self) -> usize {
        self.pool.resident()
    }

    /// Writes every dirty frame back to the backend. The WAL record for a
    /// dirty frame was appended when it was written, so write-ahead order
    /// holds; callers that need the log durable first (checkpoint) sync the
    /// journal before calling this — [`PageStore::sync`] does.
    pub fn flush(&self) -> Result<()> {
        // Write-ahead barrier: a staged journal must have every accepted
        // record in the log file before any frame bytes reach the backend.
        self.publish_journal()?;
        // Clean-store fast path: when the background flusher (or a prior
        // flush) already drained everything, skip the all-shards sweep.
        // The gauge is exact, so a zero here means no frame has its dirty
        // bit set — there is nothing a sweep could find.
        if self.pool.dirty_count() == 0 {
            return Ok(());
        }
        let (_, errs) = self.sweep(self.pool.pin_dirty());
        errs.into_iter().next().map_or(Ok(()), Err)
    }

    /// Flushes the journal (regardless of fsync policy), writes all dirty
    /// frames back, and syncs the backend. A clean-shutdown/checkpoint
    /// barrier; cheap for in-memory stores.
    pub fn sync(&self) -> Result<()> {
        if let Some(j) = &self.journal {
            j.sync()?;
        }
        self.flush()?;
        self.backend.sync()
    }

    /// The fuzzy checkpoint's writer barrier: after this returns, the
    /// backend durably holds the effect of **every page write whose WAL
    /// record was appended before the call began** — even writes that were
    /// still mid-commit on other threads — without quiescing the store.
    ///
    /// Three waits compose the guarantee:
    ///
    /// 1. **Frame writers.** A committing frame writer holds the frame's
    ///    *write* latch from before its WAL append until after the dirty
    ///    bit is set. Acquiring the *read* latch of every resident frame
    ///    therefore waits out all in-flight frame commits; any pre-existing
    ///    append's dirty bit is then visible and swept here.
    /// 2. **Bypass writers** (`write_bypass`) append and write the backend
    ///    inside one slot-latch critical section, so tapping every
    ///    allocated slot's latch waits those out; their backend writes are
    ///    then covered by the final `backend.sync`.
    /// 3. The journal is synced and published first, preserving write-ahead
    ///    order for everything this barrier writes back.
    ///
    /// Writes that begin *during* the barrier may or may not be included —
    /// that is the fuzziness; recovery replays their records from the live
    /// WAL suffix, gated by each page's stamped LSN.
    pub fn flush_for_checkpoint(&self) -> Result<()> {
        if let Some(j) = &self.journal {
            j.sync()?;
        }
        self.publish_journal()?;
        let (_, errs) = self.sweep(self.pool.pin_resident_all());
        if let Some(e) = errs.into_iter().next() {
            return Err(e);
        }
        // Bypass-writer barrier (wait 2 above).
        for slot in self.slot_handles() {
            drop(slot.latch());
        }
        self.backend.sync()
    }

    /// Dirty-page count above which the flusher starts draining.
    fn flusher_low_watermark(&self) -> usize {
        (self.pool.capacity() / 8).max(4)
    }

    /// Dirty-page count above which writers stall (bounded) for the
    /// flusher — backpressure so a write burst cannot fill the pool with
    /// dirty frames faster than the backend absorbs them.
    fn flusher_high_watermark(&self) -> usize {
        (self.pool.capacity() / 2).max(8)
    }

    /// One background write-back pass (called from the flusher thread):
    /// drains dirty frames in clock-hand order down to the low watermark.
    /// Returns whether any page was written.
    pub(crate) fn flusher_pass(&self) -> bool {
        let count = self.pool.dirty_count();
        let low = self.flusher_low_watermark();
        if count <= low {
            return false;
        }
        StoreStats::bump(&self.stats.flusher_wakeups);
        // Write-ahead barrier, same as `flush`; on a journal error the
        // frames stay dirty.
        let (wrote, errs) = match self.publish_journal() {
            Ok(()) => self.sweep(self.pool.pin_dirty_batch(count - low)),
            Err(e) => (0, vec![e]),
        };
        StoreStats::add(&self.stats.flusher_pages_written, wrote);
        // A background failure has nobody to return to: latch it so the
        // next foreground op fails loudly instead of the store limping
        // along with an undrainable pool.
        for e in errs {
            StoreStats::bump(&self.stats.flusher_errors);
            self.health.flag(e);
        }
        wrote > 0
    }

    /// The one write-back sweep behind [`PageStore::flush`],
    /// [`PageStore::flush_for_checkpoint`] and the flusher: writes every
    /// pinned frame back (a failure does not stop the sweep) and unpins
    /// it. Returns the pages written and the failures, in sweep order.
    fn sweep(&self, pinned: Vec<(&Frame, PageId)>) -> (u64, Vec<StoreError>) {
        let (mut wrote, mut errs) = (0, Vec::new());
        for (frame, pid) in pinned {
            match self.write_back_frame(frame, pid) {
                Ok(did_write) => wrote += u64::from(did_write),
                Err(e) => errs.push(e),
            }
            frame.unpin();
        }
        (wrote, errs)
    }

    /// Writes one pinned frame back under its read latch, if it still
    /// holds dirty bytes of the allocated page `pid`. The `owned_by` check
    /// matters when the sweep raced a miss claim: `pool.claim` re-labels a
    /// victim frame for the new page before the claimant has latched it,
    /// so the frame can still hold the *victim's* dirty bytes — which are
    /// the claimant's to write back, and must never land in `pid`'s slot.
    fn write_back_frame(&self, frame: &Frame, pid: PageId) -> Result<bool> {
        let guard = self.latch_read(frame);
        let slot = self.slot(pid)?;
        let allocated = slot.latch();
        // Claim the dirty bit before writing: a concurrent put needs the
        // frame's write latch (blocked by `guard`), so nothing can
        // re-dirty the bytes mid-write.
        if !(*allocated && frame.owned_by(pid) && self.pool.clear_dirty(frame)) {
            return Ok(false);
        }
        self.simulate_io();
        if let Err(e) = self.backend_write_page(pid, &guard) {
            // The frame bytes are the only up-to-date copy; re-dirty so a
            // later sweep retries the write-back.
            self.pool.mark_dirty(frame);
            return Err(e);
        }
        StoreStats::bump(&self.stats.dirty_writebacks);
        Ok(true)
    }

    /// Foreground backpressure: when the dirty-page gauge is above the
    /// high watermark, kick the flusher and wait (briefly, bounded) for it
    /// to drain below. A no-op unless this store runs a background
    /// flusher. Call before starting a write.
    pub fn throttle_dirty(&self) {
        let Some(h) = self.flusher.get() else {
            return;
        };
        let high = self.flusher_high_watermark();
        if self.pool.dirty_count() < high {
            return;
        }
        let t0 = Instant::now();
        h.kick_and_wait(|| self.pool.dirty_count() < high);
        self.stats
            .record_flusher_backpressure(t0.elapsed().as_nanos() as u64);
    }

    /// Total slots ever allocated (live + free-listed).
    pub fn capacity(&self) -> usize {
        self.slots_read().len()
    }

    /// Pages currently allocated (not on the free list).
    pub fn live_pages(&self) -> usize {
        self.capacity() - self.lock_free().len()
    }

    /// Ids of all currently allocated pages, ascending. For recovery
    /// (garbage collection, checkpointing) on a quiesced store.
    pub fn allocated_pages(&self) -> Vec<PageId> {
        self.slot_handles()
            .iter()
            .enumerate()
            .filter(|(_, s)| *s.latch())
            .map(|(i, _)| PageId::from_index(i))
            .collect()
    }

    /// Whether `pid` names a currently allocated page.
    pub fn is_allocated(&self, pid: PageId) -> bool {
        match self.slot(pid) {
            Ok(slot) => *slot.latch(),
            Err(_) => false,
        }
    }

    /// Every slot, cloned out of the table: the slot table is a leaf in
    /// the lock order, so no slot latch may be taken while it is held.
    fn slot_handles(&self) -> Vec<Arc<Slot>> {
        self.slots_read().iter().cloned().collect()
    }

    fn slot(&self, pid: PageId) -> Result<Arc<Slot>> {
        let slots = self.slots_read();
        slots
            .get(pid.index())
            .cloned()
            .ok_or(StoreError::OutOfBounds(pid))
    }

    fn simulate_io(&self) {
        if let Some(d) = self.cfg.io_delay {
            let t0 = Instant::now();
            while t0.elapsed() < d {
                std::hint::spin_loop();
            }
        }
    }

    /// Retries a backend page access on transient I/O errors with bounded
    /// exponential backoff (the schedule in [`IO_RETRY_BACKOFF`]). Only
    /// `StoreError::Io` is retried — a checksum mismatch or typed state
    /// error re-running the op could at best hide and at worst repeat.
    /// Success after a retry bumps `io_retries`; exhausting the schedule
    /// bumps `io_giveups` and returns the last error. Either way the
    /// nanoseconds slept are recorded in `io_retry_backoff_hist`.
    fn retry_io(&self, mut op: impl FnMut() -> Result<()>) -> Result<()> {
        let mut r = op();
        if !matches!(r, Err(StoreError::Io(_))) {
            return r;
        }
        let mut waited_ns = 0u64;
        for backoff in IO_RETRY_BACKOFF {
            std::thread::sleep(backoff);
            waited_ns += backoff.as_nanos() as u64;
            r = op();
            match r {
                Err(StoreError::Io(_)) => continue,
                _ => {
                    self.stats.record_io_retry(waited_ns, false);
                    return r;
                }
            }
        }
        self.stats.record_io_retry(waited_ns, true);
        r
    }

    /// The single funnel for backend page reads: retries transient errors
    /// and (with `StoreConfig::page_checksums`) verifies the page's stored
    /// CRC, turning torn writes and bit rot into a typed
    /// [`StoreError::ChecksumMismatch`]. Every pool miss, bypass read and
    /// write-intent load goes through here.
    fn backend_read_page(&self, pid: PageId, buf: &mut [u8]) -> Result<()> {
        self.retry_io(|| self.backend.read(pid.index(), buf))?;
        if self.cfg.page_checksums && !verify_page_crc(buf) {
            StoreStats::bump(&self.stats.checksum_failures);
            return Err(StoreError::ChecksumMismatch { page: pid });
        }
        Ok(())
    }

    /// The single funnel for backend page writes: with
    /// `StoreConfig::page_checksums` the CRC is stamped into a scratch
    /// copy (frames and caller buffers never carry a live checksum — the
    /// stored CRC is purely a backend-image property), and transient
    /// errors are retried. Every write-back, bypass write and checkpoint
    /// sweep goes through here; alloc's zero-fill skips it deliberately
    /// (an all-zero page verifies as unstamped).
    fn backend_write_page(&self, pid: PageId, data: &[u8]) -> Result<()> {
        if self.cfg.page_checksums {
            let mut scratch = data.to_vec();
            stamp_page_crc(&mut scratch);
            self.retry_io(|| self.backend.write(pid.index(), &scratch))
        } else {
            self.retry_io(|| self.backend.write(pid.index(), data))
        }
    }

    fn log(&self, f: impl FnOnce(&dyn Journal) -> Result<()>) -> Result<()> {
        if let Some(j) = &self.journal {
            f(j.as_ref())?;
            StoreStats::bump(&self.stats.wal_records);
        }
        Ok(())
    }

    /// Write-ahead barrier before a backend page write (see
    /// [`Journal::ensure_published`]): forces a staging journal to land
    /// every accepted record in the log file first. No-op for unstaged
    /// journals and journal-less stores.
    fn publish_journal(&self) -> Result<()> {
        match &self.journal {
            Some(j) => j.ensure_published(),
            None => Ok(()),
        }
    }

    /// Starts a new checkpoint epoch: the next journaled write of every
    /// page logs a full image before any delta, so replay from the new
    /// checkpoint never meets a delta without a base under it. Called by
    /// the durable layer's checkpoint — twice per *fuzzy* checkpoint,
    /// bracketing the WAL cut (see `DurableStore::checkpoint_begin` for
    /// why the double advance makes the cut exact under concurrency).
    ///
    /// `Release` pairs with the `Acquire` epoch load in base logging: a
    /// writer that observes the post-cut epoch value is guaranteed to
    /// observe the WAL's advanced LSN counter too, so its record's LSN
    /// lands at or after the cut.
    pub fn advance_checkpoint_epoch(&self) {
        self.epoch
            .fetch_add(1, std::sync::atomic::Ordering::Release);
    }

    /// Marks `slot` as holding a full-image base record — but only when no
    /// checkpoint-epoch advance spanned the append (`epoch_before` is the
    /// value loaded before the record was logged). An advance mid-append
    /// means the record's LSN may fall below a concurrent checkpoint's WAL
    /// cut while the tag claims the new epoch; tagging 0 (never-fresh)
    /// instead just costs one extra full image on the page's next write.
    /// Call after a successful full-image or alloc append, under the
    /// slot's `allocated` latch.
    fn note_base(&self, slot: &Slot, epoch_before: u64) {
        let now = self.epoch.load(std::sync::atomic::Ordering::Acquire);
        let tag = if now == epoch_before { now } else { 0 };
        slot.base_epoch
            .store(tag, std::sync::atomic::Ordering::Relaxed);
    }

    /// Journals one committed page write — the heart of the delta-record
    /// path. Caller holds the frame's write latch and the slot's
    /// `allocated` latch; `bytes` is the post-write image.
    ///
    /// Tracked writes (`ranges: Some`) are logged as a coalesced v2
    /// **delta record** when every gate passes:
    ///
    /// * the journal speaks v2;
    /// * the page has a base record in the current checkpoint epoch
    ///   (first touch after a checkpoint or open logs a full image, which
    ///   bounds recovery and repairs torn page-file writes);
    /// * the encoded delta stays under half a page (beyond that the full
    ///   image is cheaper to replay and barely bigger to log).
    ///
    /// Returns the LSN to stamp into the page's [`PAGE_LSN_OFFSET`] field
    /// (`None` for v1 records, which carry no page LSN).
    fn log_page_write(
        &self,
        pid: PageId,
        slot: &Slot,
        bytes: &[u8],
        ranges: Option<&[(u32, u32)]>,
    ) -> Result<Option<u64>> {
        let Some(j) = &self.journal else {
            return Ok(None);
        };
        // Delta records encode offsets as u16 and need room for the page
        // LSN field, so very small and very large pages stay on v1.
        let v2 = j.supports_deltas()
            && self.cfg.page_size <= 1 << 16
            && self.cfg.page_size >= PAGE_LSN_OFFSET + PAGE_LSN_LEN;
        let lsn = match ranges {
            Some(ranges) if v2 => {
                let coalesced = coalesce_ranges(ranges);
                let encoded: usize = 15 + coalesced.iter().map(|&(_, len)| 4 + len).sum::<usize>();
                let epoch_now = self.epoch.load(std::sync::atomic::Ordering::Acquire);
                let fresh_base =
                    slot.base_epoch.load(std::sync::atomic::Ordering::Relaxed) == epoch_now;
                if !fresh_base {
                    StoreStats::bump(&self.stats.wal_delta_fallback_first_touch);
                } else if encoded > self.cfg.page_size / 2 {
                    StoreStats::bump(&self.stats.wal_delta_fallback_large);
                }
                if fresh_base && encoded <= self.cfg.page_size / 2 {
                    let slices: Vec<(u16, &[u8])> = coalesced
                        .iter()
                        .map(|&(off, len)| (off as u16, &bytes[off..off + len]))
                        .collect();
                    let lsn = j.log_put_delta(pid, page_lsn(bytes), &slices)?;
                    StoreStats::bump(&self.stats.wal_put_deltas);
                    Some(lsn)
                } else {
                    let lsn = j.log_put_base(pid, bytes)?;
                    StoreStats::bump(&self.stats.wal_put_full_images);
                    self.note_base(slot, epoch_now);
                    Some(lsn)
                }
            }
            _ => {
                j.log_put(pid, bytes)?;
                StoreStats::bump(&self.stats.wal_put_full_images);
                // A v1 image is replayed verbatim — including whatever the
                // caller's bytes put in the reserved LSN field, which for
                // an arbitrary page is garbage the delta gate must never
                // trust. Drop the base: the next tracked write re-bases
                // with a v2 record that stamps the field properly.
                slot.base_epoch
                    .store(0, std::sync::atomic::Ordering::Relaxed);
                None
            }
        };
        StoreStats::bump(&self.stats.wal_records);
        Ok(lsn)
    }

    /// Allocates a zeroed page and returns its id. With a journal attached
    /// the allocation is logged (and committed) before it becomes visible;
    /// on a journal or backend error the page stays free.
    pub fn alloc(&self) -> Result<PageId> {
        self.check_health()?;
        // NB: pop in its own statement — the guard must not live into the
        // body, which re-locks `free` on the journal-error path.
        let reused = self.lock_free().pop();
        if let Some(pid) = reused {
            let slot = self.slot(pid).expect("free-listed page must exist");
            let mut allocated = slot.latch();
            debug_assert!(!*allocated, "page on free list was allocated");
            let epoch_before = self.epoch.load(std::sync::atomic::Ordering::Acquire);
            let r = self
                .log(|j| j.log_alloc(pid))
                .and_then(|()| self.publish_journal())
                // Unstamped zero fill: an all-zero page passes checksum
                // verification by the "never written" rule, and fresh
                // allocations must read back as all zeros.
                .and_then(|()| self.retry_io(|| self.backend.write(pid.index(), &self.zero)));
            if let Err(e) = r {
                drop(allocated);
                self.lock_free().push(pid);
                return Err(e);
            }
            // The alloc record zeroes the page on replay — a valid base
            // for delta records in this epoch.
            self.note_base(&slot, epoch_before);
            // Publish only after the backend slot is zeroed: a pool loader
            // waiting on this latch must observe the zeroed image.
            *allocated = true;
            StoreStats::bump(&self.stats.allocs);
            return Ok(pid);
        }
        // Growth path: publish the slot first, then journal *outside* the
        // slots write lock — a WAL commit can block on an fsync or a whole
        // group-commit window, and every get/put needs slots.read(). The
        // pid is invisible to other threads until returned, so logging
        // after publication cannot reorder same-page records.
        let pid = {
            let mut slots = self.slots_write();
            let idx = slots.len();
            self.backend.grow(idx + 1)?;
            slots.push(Slot::new(true));
            PageId::from_index(idx)
        };
        let slot = self.slot(pid).expect("slot was just published");
        let epoch_before = self.epoch.load(std::sync::atomic::Ordering::Acquire);
        if let Err(e) = self.log(|j| j.log_alloc(pid)) {
            *slot.latch() = false;
            self.lock_free().push(pid);
            return Err(e);
        }
        self.note_base(&slot, epoch_before);
        StoreStats::bump(&self.stats.allocs);
        Ok(pid)
    }

    /// Returns a page to the free list. Callers that deal with concurrent
    /// readers must defer this through [`crate::reclaim::DeferredFreeList`];
    /// calling it while another process could still `get` the page will make
    /// that process observe [`StoreError::PageFreed`] (or, after
    /// reallocation, an unrelated node — which the tree's low/high bound
    /// checks catch and turn into a restart).
    pub fn free(&self, pid: PageId) -> Result<()> {
        self.check_health()?;
        let slot = self.slot(pid)?;
        {
            let mut allocated = slot.latch();
            if !*allocated {
                return Err(StoreError::PageFreed(pid));
            }
            self.log(|j| j.log_free(pid))?;
            *allocated = false;
        }
        StoreStats::bump(&self.stats.frees);
        // Drop the frame (and its dirty bit: freed bytes are never written
        // back). Outstanding guards keep their pinned snapshot.
        self.pool.discard(pid);
        self.lock_free().push(pid);
        Ok(())
    }

    /// §2.2 `get(x)` without the copy: borrows the page's buffer-pool frame
    /// (pinning it) when resident, loading it on a miss. Falls back to a
    /// private copy when every frame is pinned or the pool is disabled.
    pub fn read(&self, pid: PageId) -> Result<PageRef<'_>> {
        self.check_health()?;
        let slot = self.slot(pid)?;
        StoreStats::bump(&self.stats.gets);
        let inner = match self.claim_frame(pid, &slot, None)? {
            Claimed::Frame {
                frame,
                latch: Latch::Shared(guard),
                ..
            } => RefInner::Frame {
                frame,
                guard: Some(guard),
            },
            Claimed::Frame { .. } => unreachable!("a read latches shared"),
            Claimed::Bypass(page) => RefInner::Owned(page),
        };
        Ok(PageRef { inner })
    }

    /// The frame funnel, shared by [`PageStore::read`] (`write: None`) and
    /// [`PageStore::write_page`]. Pins the page's frame and latches it:
    /// shared for a read (a miss loads the page and publishes the frame),
    /// exclusive with the seqlock window open for a write (a miss loads —
    /// or for [`WriteIntent::Overwrite`] just zeroes — the frame and leaves
    /// it unpublished until the commit). Hands out a private copy instead
    /// when no frame can be had: every frame pinned, or a pool of none
    /// (`pool_frames: 0`, the literal §2.2 model — the same arm).
    ///
    /// Inlined so that `write` is a constant in each caller — `read` keeps
    /// only the shared-latch arms — as the hit path sits under every `get`.
    #[inline(always)]
    fn claim_frame<'a>(
        &'a self,
        pid: PageId,
        slot: &Slot,
        write: Option<WriteIntent>,
    ) -> Result<Claimed<'a>> {
        let mut attempt = 0u32;
        loop {
            let (frame, latch, fresh) = match self.pool.claim(pid) {
                Claim::Hit(frame) => {
                    StoreStats::bump(&self.stats.pins);
                    let latch = match write {
                        None => Latch::Shared(self.latch_read(frame)),
                        Some(_) => Latch::Exclusive(self.latch_write(frame)),
                    };
                    if !frame.owned_by(pid) {
                        // The frame is mid-load or was repurposed between the
                        // map lookup and the latch; the responsible party is
                        // making progress — retry the claim.
                        drop(latch);
                        frame.unpin();
                        attempt += 1;
                        if attempt > 32 {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                        continue;
                    }
                    if !*slot.latch() {
                        drop(latch);
                        frame.unpin();
                        return Err(StoreError::PageFreed(pid));
                    }
                    audit::classify_frame(frame.audit_addr(), latch.bytes());
                    match write {
                        None => StoreStats::bump(&self.stats.cache_hits),
                        // Seqlock window: open before the first byte
                        // changes; commit/rollback closes it.
                        Some(_) => frame.begin_write(),
                    }
                    (frame, latch, None)
                }
                Claim::Miss {
                    frame,
                    idx,
                    flush,
                    evicted,
                } => {
                    StoreStats::bump(&self.stats.pins);
                    if evicted {
                        StoreStats::bump(&self.stats.frames_evicted);
                    }
                    let guard = self.fill_frame(pid, slot, frame, idx, flush, write)?;
                    match write {
                        // Unpublished until commit: the writer keeps the
                        // latch and the open seqlock window.
                        Some(_) => (frame, Latch::Exclusive(guard), Some(idx)),
                        None => {
                            StoreStats::bump(&self.stats.cache_misses);
                            frame.end_write();
                            frame
                                .owner
                                .store(pid.to_raw(), std::sync::atomic::Ordering::Release);
                            drop(guard);
                            self.pool.complete_miss(pid, idx);
                            // Our pin keeps the frame ours; a put may slip in
                            // between latch drops, but then the guard just
                            // sees newer bytes.
                            let guard = self.latch_read(frame);
                            audit::classify_frame(frame.audit_addr(), &guard);
                            (frame, Latch::Shared(guard), None)
                        }
                    }
                }
                Claim::Exhausted => {
                    // Bypass: a private copy read straight from the backend
                    // under the slot latch — unless a racing loader mapped
                    // the page meanwhile (its frame may hold newer bytes
                    // than the backend, so take the frame route after all).
                    let mut page = Page::zeroed(self.cfg.page_size);
                    let allocated = slot.latch();
                    if !*allocated {
                        return Err(StoreError::PageFreed(pid));
                    }
                    if self.pool.is_mapped(pid) {
                        continue;
                    }
                    if write != Some(WriteIntent::Overwrite) {
                        self.simulate_io();
                        self.backend_read_page(pid, page.bytes_mut())?;
                    }
                    if write.is_none() {
                        StoreStats::bump(&self.stats.cache_misses);
                        StoreStats::bump(&self.stats.pool_bypasses);
                    }
                    return Ok(Claimed::Bypass(page));
                }
            };
            return Ok(Claimed::Frame {
                frame,
                latch,
                fresh,
            });
        }
    }

    /// §2.2 `get(x)`: returns a private copy of the page contents. Kept for
    /// callers that need an owned page; the hot path uses [`PageStore::read`].
    pub fn get(&self, pid: PageId) -> Result<Page> {
        Ok(self.read(pid)?.to_page())
    }

    /// Optimistic latch-free read: copies `pid`'s image out of its resident
    /// frame **without taking the frame latch**, validating the copy with
    /// the frame's seqlock. On success `buf` holds a consistent snapshot
    /// and the returned [`PageStamp`] lets the caller revalidate later
    /// (via [`PageStore::stamp_valid`]) that no writer has touched the
    /// page since — the version-coupling step of an optimistic descent.
    ///
    /// Returns `Ok(None)` whenever the fast path cannot be taken safely
    /// (page not resident, frame mid-mutation or repurposed, pool
    /// disabled); the caller falls back to a latched [`PageStore::read`].
    pub fn read_unlatched(&self, pid: PageId, buf: &mut [u8]) -> Result<Option<PageStamp>> {
        debug_assert_eq!(buf.len(), self.cfg.page_size);
        let Some(frame) = self.pool.pin_resident(pid) else {
            StoreStats::bump(&self.stats.optimistic_read_fallbacks);
            return Ok(None);
        };
        // While pinned the frame cannot be repurposed, so `owner` is
        // stable; the seqlock validates the bytes themselves.
        let version = match frame.snapshot_unlatched(buf) {
            Some(v) if frame.owned_by(pid) => Some(v),
            _ => None,
        };
        let addr = frame as *const Frame as usize;
        frame.unpin();
        let Some(version) = version else {
            StoreStats::bump(&self.stats.optimistic_read_fallbacks);
            return Ok(None);
        };
        // A freed page's frame is discarded before the pid can be
        // reallocated; surface the free instead of serving garbage.
        if !*self.slot(pid)?.latch() {
            return Err(StoreError::PageFreed(pid));
        }
        StoreStats::bump(&self.stats.gets);
        StoreStats::bump(&self.stats.optimistic_reads);
        audit::note_snapshot(addr);
        Ok(Some(PageStamp {
            frame: addr,
            version,
        }))
    }

    /// Revalidates an earlier [`PageStore::read_unlatched`]: true iff the
    /// frame still holds `pid`'s image at the stamped version, i.e. no
    /// writer has begun mutating the page since the snapshot was taken.
    pub fn stamp_valid(&self, pid: PageId, stamp: &PageStamp) -> bool {
        audit::note_revalidate(stamp.frame);
        // SAFETY: `stamp.frame` was produced by `read_unlatched` from a
        // `&Frame` borrowed out of this store's buffer pool. Frames are
        // allocated once at pool construction into a `Box<[Frame]>` that
        // is never resized, moved, or freed while the `PageStore` lives,
        // and `PageStamp` borrows the store (`read_unlatched(&self)` /
        // `stamp_valid(&self)`), so the pointer cannot outlive the frames.
        // Eviction does not invalidate it either: a frame is *repurposed*,
        // never deallocated, and every repurposing brackets the refill
        // with `begin_write`/`end_write`, bumping the seqlock version so
        // the `version_is` check below rejects the stale stamp.
        let frame = unsafe { &*(stamp.frame as *const Frame) };
        frame.version_is(stamp.version) && frame.owned_by(pid)
    }

    /// Populates a freshly claimed frame under its write latch: writes the
    /// dirty victim back (its WAL record predates its dirty bit —
    /// write-ahead holds), then, under `pid`'s slot latch, reads the page
    /// from the backend — or just zeroes the frame when the caller will
    /// overwrite every byte. Returns with the seqlock window still open
    /// and `owner` not yet published. Rolls the claim back (and releases
    /// its pin) itself on every error path.
    fn fill_frame<'a>(
        &self,
        pid: PageId,
        slot: &Slot,
        frame: &'a Frame,
        idx: usize,
        flush: Option<PageId>,
        write: Option<WriteIntent>,
    ) -> Result<Audited<RwLockWriteGuard<'a, Box<[u8]>>>> {
        let mut guard = self.latch_write(frame);
        if let Some(old) = flush {
            if let Err(e) = self.write_back_victim(old, idx, &guard) {
                // The victim's frame bytes are its only up-to-date copy, so
                // they must never be dropped on the floor (later reads
                // would serve stale backend data as `Ok`): reinstate it as
                // the frame's resident, still-dirty page.
                self.pool.restore_victim(pid, idx);
                return Err(e);
            }
        }
        frame.begin_write();
        let r = {
            let allocated = slot.latch();
            if !*allocated {
                Err(StoreError::PageFreed(pid))
            } else if write == Some(WriteIntent::Overwrite) {
                guard.fill(0);
                Ok(())
            } else {
                self.simulate_io();
                self.backend_read_page(pid, &mut guard)
            }
        };
        if let Err(e) = r {
            frame.end_write();
            drop(guard);
            self.pool.abort_miss(pid, idx);
            return Err(e);
        }
        self.pool.clear_dirty(frame);
        audit::classify_frame(frame.audit_addr(), &guard);
        Ok(guard)
    }

    /// Writes an evicted dirty frame's bytes back to the backend — unless
    /// the page was freed (then the bytes are garbage), or freed *and
    /// reallocated* (then writing would corrupt the new incarnation). Both
    /// are detected under `old`'s slot latch: `free` clears the pool's
    /// `flushing` marker before the page can reach the free list, and both
    /// `free` and `alloc` need this latch, so `allocated && still_flushing`
    /// cannot go stale while it is held.
    fn write_back_victim(&self, old: PageId, idx: usize, bytes: &[u8]) -> Result<()> {
        let slot = self.slot(old)?;
        let allocated = slot.latch();
        if *allocated && self.pool.still_flushing(old, idx) {
            self.publish_journal()?;
            self.simulate_io();
            self.backend_write_page(old, bytes)?;
            StoreStats::bump(&self.stats.dirty_writebacks);
        }
        Ok(())
    }

    /// §2.2 `put(A, x)`: overwrites the page with the buffer's contents —
    /// [`PageStore::write_page`] with [`WriteIntent::Overwrite`], a copy,
    /// and a commit. With a journal attached the full page image is logged
    /// (and committed per the fsync policy) before anything becomes
    /// visible — write-ahead order. The new image lands in the page's
    /// frame (write-back); it reaches the backend on eviction or
    /// [`PageStore::sync`].
    pub fn put(&self, pid: PageId, page: &Page) -> Result<()> {
        if page.len() != self.cfg.page_size {
            return Err(StoreError::PageSizeMismatch {
                got: page.len(),
                want: self.cfg.page_size,
            });
        }
        let mut w = self.write_page(pid, WriteIntent::Overwrite)?;
        w.bytes_mut().copy_from_slice(page.bytes());
        w.commit()
    }

    /// The bypass writer: logs a full image and writes it straight to the
    /// backend, all under the slot latch. Returns `Ok(false)` when a
    /// racing loader mapped the page (the caller must write through the
    /// frame so readers of the frame see the new image).
    fn write_bypass(&self, pid: PageId, slot: &Slot, data: &[u8]) -> Result<bool> {
        let allocated = slot.latch();
        if !*allocated {
            return Err(StoreError::PageFreed(pid));
        }
        if self.pool.is_mapped(pid) {
            return Ok(false);
        }
        self.log_page_write(pid, slot, data, None)?;
        self.publish_journal()?;
        self.simulate_io();
        self.backend_write_page(pid, data)?;
        StoreStats::bump(&self.stats.pool_bypasses);
        Ok(true)
    }

    /// Opens an in-place write of `pid` and returns a [`PageWrite`] guard.
    ///
    /// With [`WriteIntent::Update`] the buffer holds the page's current
    /// contents; with [`WriteIntent::Overwrite`] the caller promises to
    /// rewrite every byte (a pool miss then skips the backend read, making
    /// a node rewrite copy-free end to end). Nothing is visible — and no
    /// WAL record exists — until [`PageWrite::commit`].
    pub fn write_page(&self, pid: PageId, intent: WriteIntent) -> Result<PageWrite<'_>> {
        self.check_health()?;
        let slot = self.slot(pid)?;
        let overwrite = intent == WriteIntent::Overwrite;
        let inner = match self.claim_frame(pid, &slot, Some(intent))? {
            Claimed::Frame {
                frame,
                latch: Latch::Exclusive(mut guard),
                fresh,
            } => {
                // A resident frame is mutated in place, so rollback needs
                // its prior image; a fresh one arrives loaded or zeroed.
                let mut undo = None;
                if fresh.is_none() {
                    undo = Some(guard.to_vec().into_boxed_slice());
                    if overwrite {
                        guard.fill(0);
                    }
                }
                WriteInner::Frame(FrameWrite {
                    frame,
                    guard,
                    fresh,
                    undo,
                })
            }
            Claimed::Frame { .. } => unreachable!("a write latches exclusive"),
            Claimed::Bypass(page) => WriteInner::Owned(page),
        };
        Ok(PageWrite {
            store: self,
            pid,
            slot,
            ranges: Vec::new(),
            // Overwrite pre-zeroed every byte outside the tracker: only a
            // full image can log it.
            untracked: overwrite,
            inner: Some(inner),
        })
    }

    /// `lock(x)`: blocks until this session holds the paper lock on `pid`.
    ///
    /// Readers are unaffected; only other `lock` calls wait.
    pub fn lock(&self, pid: PageId, session: &mut Session) {
        let acquired = self.lock_until(pid, session, None);
        debug_assert!(acquired, "an unbounded lock wait cannot time out");
    }

    /// Non-blocking lock attempt.
    pub fn try_lock(&self, pid: PageId, session: &mut Session) -> bool {
        self.lock_until(pid, session, Some(Instant::now()))
    }

    /// Lock with a timeout; used by deadlock-watchdog tests (E7). Returns
    /// `true` on acquisition.
    pub fn lock_timeout(&self, pid: PageId, session: &mut Session, timeout: Duration) -> bool {
        self.lock_until(pid, session, Some(Instant::now() + timeout))
    }

    fn lock_until(&self, pid: PageId, session: &mut Session, deadline: Option<Instant>) -> bool {
        let slot = self
            .slot(pid)
            .expect("locking a page that was never allocated");
        let Some(wait_ns) = slot.lock.acquire(session.id(), deadline) else {
            return false;
        };
        StoreStats::bump(&self.stats.lock_acquires);
        if wait_ns > 0 {
            self.stats.record_lock_wait(wait_ns);
        }
        session.note_lock(pid);
        true
    }

    /// `unlock(x)`.
    pub fn unlock(&self, pid: PageId, session: &mut Session) {
        let slot = self
            .slot(pid)
            .expect("unlocking a page that was never allocated");
        session.note_unlock(pid);
        slot.lock.unlock(session.id());
    }

    /// Releases every lock the session still holds (used by restart paths in
    /// tests and by panic-safety cleanup in the harness).
    pub fn unlock_all(&self, session: &mut Session) {
        while let Some(&pid) = session.held_locks().last() {
            self.unlock(pid, session);
        }
    }
}

impl Drop for PageStore {
    fn drop(&mut self) {
        // Stop the background flusher before the store's fields go away.
        // `stop` self-detaches when the flusher thread itself is running
        // this drop (it held the last `Arc` at the end of a pass).
        if let Some(h) = self.flusher.take() {
            h.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;
    use crate::session::SessionRegistry;
    use std::sync::Arc;

    fn setup() -> (Arc<PageStore>, Arc<SessionRegistry>) {
        let store = PageStore::new(StoreConfig::with_page_size(128));
        let reg = SessionRegistry::new(Arc::new(LogicalClock::new()));
        (store, reg)
    }

    #[test]
    fn alloc_get_put_roundtrip() {
        let (store, _) = setup();
        let pid = store.alloc().unwrap();
        let mut page = store.get(pid).unwrap();
        assert!(page.bytes().iter().all(|&b| b == 0));
        page.bytes_mut()[0] = 7;
        page.bytes_mut()[127] = 9;
        store.put(pid, &page).unwrap();
        let again = store.get(pid).unwrap();
        assert_eq!(again.bytes()[0], 7);
        assert_eq!(again.bytes()[127], 9);
    }

    #[test]
    fn read_guard_borrows_and_roundtrips() {
        let (store, _) = setup();
        let pid = store.alloc().unwrap();
        let mut page = Page::zeroed(128);
        page.bytes_mut().fill(0x5A);
        store.put(pid, &page).unwrap();
        let g = store.read(pid).unwrap();
        assert_eq!(g.len(), 128);
        assert!(g.iter().all(|&b| b == 0x5A));
        assert_eq!(g.to_page(), page);
        drop(g);
        // The frame is resident; a second read is a hit.
        let before = store.stats().snapshot();
        let g2 = store.read(pid).unwrap();
        assert_eq!(store.stats().snapshot().cache_hits - before.cache_hits, 1);
        drop(g2);
        assert!(store.pool_resident() >= 1);
    }

    #[test]
    fn put_with_wrong_page_size_is_a_typed_error() {
        let (store, _) = setup();
        let pid = store.alloc().unwrap();
        let wrong = Page::zeroed(64);
        assert_eq!(
            store.put(pid, &wrong),
            Err(StoreError::PageSizeMismatch { got: 64, want: 128 })
        );
        // The page is untouched.
        assert!(store.get(pid).unwrap().bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn write_guard_overwrite_commit_and_rollback() {
        let (store, _) = setup();
        let pid = store.alloc().unwrap();
        let mut seed = Page::zeroed(128);
        seed.bytes_mut().fill(3);
        store.put(pid, &seed).unwrap();
        // Rollback: drop without commit restores the old image.
        {
            let mut w = store.write_page(pid, WriteIntent::Overwrite).unwrap();
            w.bytes_mut().fill(9);
        }
        assert!(store.get(pid).unwrap().bytes().iter().all(|&b| b == 3));
        // Commit publishes.
        let mut w = store.write_page(pid, WriteIntent::Overwrite).unwrap();
        w.bytes_mut().fill(7);
        w.commit().unwrap();
        assert!(store.get(pid).unwrap().bytes().iter().all(|&b| b == 7));
    }

    #[test]
    fn write_guard_update_sees_current_contents() {
        let (store, _) = setup();
        let pid = store.alloc().unwrap();
        let mut seed = Page::zeroed(128);
        seed.bytes_mut()[10] = 0xAB;
        store.put(pid, &seed).unwrap();
        let mut w = store.write_page(pid, WriteIntent::Update).unwrap();
        assert_eq!(w.bytes()[10], 0xAB);
        w.bytes_mut()[11] = 0xCD;
        w.commit().unwrap();
        let g = store.read(pid).unwrap();
        assert_eq!(g[10], 0xAB);
        assert_eq!(g[11], 0xCD);
    }

    #[test]
    fn free_then_get_errors_and_alloc_reuses() {
        let (store, _) = setup();
        let a = store.alloc().unwrap();
        let b = store.alloc().unwrap();
        store.free(a).unwrap();
        assert_eq!(store.get(a), Err(StoreError::PageFreed(a)));
        assert_eq!(store.free(a), Err(StoreError::PageFreed(a)));
        let c = store.alloc().unwrap(); // reuses a
        assert_eq!(c, a);
        assert!(store.get(c).unwrap().bytes().iter().all(|&b| b == 0));
        assert_eq!(store.live_pages(), 2);
        let _ = b;
    }

    #[test]
    fn get_out_of_bounds() {
        let (store, _) = setup();
        let bogus = PageId::from_raw(999).unwrap();
        assert_eq!(store.get(bogus), Err(StoreError::OutOfBounds(bogus)));
    }

    #[test]
    fn allocated_pages_tracks_state() {
        let (store, _) = setup();
        let a = store.alloc().unwrap();
        let b = store.alloc().unwrap();
        let c = store.alloc().unwrap();
        store.free(b).unwrap();
        assert_eq!(store.allocated_pages(), vec![a, c]);
        assert!(store.is_allocated(a));
        assert!(!store.is_allocated(b));
        assert!(!store.is_allocated(PageId::from_raw(99).unwrap()));
    }

    #[test]
    fn with_parts_seeds_allocation_state() {
        let backend = Box::new(crate::backend::MemBackend::new(128));
        let store = PageStore::with_parts(
            StoreConfig::with_page_size(128),
            backend,
            None,
            Arc::new(StoreStats::default()),
            &[true, false, true],
        )
        .unwrap();
        assert_eq!(store.capacity(), 3);
        assert_eq!(store.live_pages(), 2);
        let p2 = PageId::from_raw(2).unwrap();
        assert!(!store.is_allocated(p2));
        // The free slot is reused before any growth.
        assert_eq!(store.alloc().unwrap(), p2);
        assert_eq!(store.capacity(), 3);
    }

    #[test]
    fn with_parts_rejects_mismatched_page_size() {
        let backend = Box::new(crate::backend::MemBackend::new(64));
        assert!(PageStore::with_parts(
            StoreConfig::with_page_size(128),
            backend,
            None,
            Arc::new(StoreStats::default()),
            &[],
        )
        .is_err());
    }

    #[test]
    fn lock_excludes_lockers_but_not_readers() {
        let (store, reg) = setup();
        let pid = store.alloc().unwrap();
        let mut s1 = reg.open();
        let mut s2 = reg.open();
        store.lock(pid, &mut s1);
        // Reader is not blocked by the lock.
        assert!(store.get(pid).is_ok());
        // Second locker is.
        assert!(!store.try_lock(pid, &mut s2));
        store.unlock(pid, &mut s1);
        assert!(store.try_lock(pid, &mut s2));
        store.unlock(pid, &mut s2);
    }

    #[test]
    fn lock_blocks_until_released() {
        let (store, reg) = setup();
        let pid = store.alloc().unwrap();
        let mut s1 = reg.open();
        store.lock(pid, &mut s1);
        let store2 = Arc::clone(&store);
        let reg2 = Arc::clone(&reg);
        let handle = std::thread::spawn(move || {
            let mut s2 = reg2.open();
            store2.lock(pid, &mut s2); // blocks until main unlocks
            store2.unlock(pid, &mut s2);
            true
        });
        std::thread::sleep(Duration::from_millis(20));
        store.unlock(pid, &mut s1);
        assert!(handle.join().unwrap());
        assert!(store.stats().snapshot().lock_contended >= 1);
    }

    #[test]
    fn lock_timeout_expires() {
        let (store, reg) = setup();
        let pid = store.alloc().unwrap();
        let mut s1 = reg.open();
        let mut s2 = reg.open();
        store.lock(pid, &mut s1);
        assert!(!store.lock_timeout(pid, &mut s2, Duration::from_millis(10)));
        store.unlock(pid, &mut s1);
        assert!(store.lock_timeout(pid, &mut s2, Duration::from_millis(10)));
        store.unlock(pid, &mut s2);
    }

    #[test]
    #[should_panic(expected = "not the owner")]
    fn unlock_by_non_owner_panics() {
        let (store, reg) = setup();
        let pid = store.alloc().unwrap();
        let mut s1 = reg.open();
        let mut s2 = reg.open();
        store.lock(pid, &mut s1);
        // s2 never locked pid; Session catches this first in note_unlock,
        // so bypass it by locking a second page to keep bookkeeping legal.
        s2.note_lock(pid); // simulate corrupted bookkeeping
        store.unlock(pid, &mut s2);
    }

    #[test]
    fn unlock_all_releases_everything() {
        let (store, reg) = setup();
        let a = store.alloc().unwrap();
        let b = store.alloc().unwrap();
        let mut s = reg.open();
        store.lock(a, &mut s);
        store.lock(b, &mut s);
        assert_eq!(s.held_locks().len(), 2);
        store.unlock_all(&mut s);
        assert!(s.held_locks().is_empty());
        let mut s2 = reg.open();
        assert!(store.try_lock(a, &mut s2));
        assert!(store.try_lock(b, &mut s2));
        store.unlock_all(&mut s2);
    }

    #[test]
    fn io_delay_is_applied_without_a_pool() {
        let store = PageStore::new(StoreConfig {
            page_size: 64,
            io_delay: Some(Duration::from_micros(200)),
            pool_frames: 0,
            background_flusher: false,
            page_checksums: false,
        });
        let pid = store.alloc().unwrap();
        let t0 = Instant::now();
        for _ in 0..10 {
            store.get(pid).unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_micros(2000));
    }

    #[test]
    fn concurrent_get_put_atomicity() {
        // Writers alternate between two full-page patterns; readers must
        // never observe a mixed page (get/put are indivisible).
        let store = PageStore::new(StoreConfig::with_page_size(256));
        let pid = store.alloc().unwrap();
        let mut a = Page::zeroed(256);
        a.bytes_mut().fill(0xAA);
        let mut b = Page::zeroed(256);
        b.bytes_mut().fill(0x55);
        store.put(pid, &a).unwrap();

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = vec![];
        for w in 0..2 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let img = if w == 0 { a.clone() } else { b.clone() };
            handles.push(std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    store.put(pid, &img).unwrap();
                }
            }));
        }
        for _ in 0..2 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let p = store.read(pid).unwrap();
                    let first = p[0];
                    assert!(first == 0xAA || first == 0x55);
                    assert!(p.iter().all(|&x| x == first), "torn page read");
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;

    #[test]
    #[cfg_attr(miri, ignore = "asserts a wall-clock upper bound")]
    fn pool_hits_skip_the_io_delay() {
        let store = PageStore::new(StoreConfig {
            page_size: 64,
            io_delay: Some(Duration::from_micros(300)),
            pool_frames: 8,
            background_flusher: false,
            page_checksums: false,
        });
        let pid = store.alloc().unwrap();
        // First get: miss (pays the delay and loads the frame); the rest hit.
        store.get(pid).unwrap();
        let t0 = Instant::now();
        for _ in 0..20 {
            store.get(pid).unwrap();
        }
        let hot = t0.elapsed();
        assert!(
            hot < Duration::from_micros(300 * 10),
            "pool hits must skip the delay (took {hot:?})"
        );
        let snap = store.stats().snapshot();
        assert!(
            snap.cache_hits >= 20,
            "expected hits, got {}",
            snap.cache_hits
        );
        assert!(snap.cache_misses >= 1);
    }

    #[test]
    fn writes_are_write_back_and_flushed_on_sync() {
        let store = PageStore::new(StoreConfig {
            page_size: 64,
            io_delay: None,
            pool_frames: 4,
            background_flusher: false,
            page_checksums: false,
        });
        let pid = store.alloc().unwrap();
        let mut p = Page::zeroed(64);
        p.bytes_mut()[0] = 0xEE;
        store.put(pid, &p).unwrap();
        assert_eq!(store.get(pid).unwrap().bytes()[0], 0xEE);
        p.bytes_mut()[0] = 0x11;
        store.put(pid, &p).unwrap();
        assert_eq!(store.get(pid).unwrap().bytes()[0], 0x11);
        // The dirty frame reaches the backend on sync, exactly once.
        let before = store.stats().snapshot();
        store.sync().unwrap();
        let after = store.stats().snapshot();
        assert_eq!(after.dirty_writebacks - before.dirty_writebacks, 1);
        // Nothing left dirty: a second sync writes nothing.
        store.sync().unwrap();
        assert_eq!(
            store.stats().snapshot().dirty_writebacks,
            after.dirty_writebacks
        );
    }

    #[test]
    fn eviction_flushes_dirty_victims() {
        // One frame: every new page displaces the previous one.
        let store = PageStore::new(StoreConfig {
            page_size: 64,
            io_delay: None,
            pool_frames: 1,
            background_flusher: false,
            page_checksums: false,
        });
        let a = store.alloc().unwrap();
        let b = store.alloc().unwrap();
        let mut p = Page::zeroed(64);
        p.bytes_mut().fill(0xA1);
        store.put(a, &p).unwrap(); // a dirty in the single frame
        p.bytes_mut().fill(0xB2);
        store.put(b, &p).unwrap(); // must evict + write back a
        let snap = store.stats().snapshot();
        assert!(snap.frames_evicted >= 1);
        assert!(snap.dirty_writebacks >= 1);
        // a's bytes survived the round trip through the backend.
        assert!(store.get(a).unwrap().bytes().iter().all(|&x| x == 0xA1));
        assert!(store.get(b).unwrap().bytes().iter().all(|&x| x == 0xB2));
    }

    #[test]
    fn pinned_frames_force_bypass_not_eviction() {
        let store = PageStore::new(StoreConfig {
            page_size: 64,
            io_delay: None,
            pool_frames: 2,
            background_flusher: false,
            page_checksums: false,
        });
        let a = store.alloc().unwrap();
        let b = store.alloc().unwrap();
        let c = store.alloc().unwrap();
        let mut p = Page::zeroed(64);
        p.bytes_mut().fill(1);
        store.put(a, &p).unwrap();
        p.bytes_mut().fill(2);
        store.put(b, &p).unwrap();
        let ga = store.read(a).unwrap();
        let gb = store.read(b).unwrap();
        // Both frames pinned: reading c must bypass, not evict.
        let gc = store.read(c).unwrap();
        assert!(gc.iter().all(|&x| x == 0));
        assert!(store.stats().snapshot().pool_bypasses >= 1);
        // The pinned guards still see their pages.
        assert!(ga.iter().all(|&x| x == 1));
        assert!(gb.iter().all(|&x| x == 2));
    }

    #[test]
    fn freed_pages_leave_the_pool() {
        let store = PageStore::new(StoreConfig {
            page_size: 64,
            io_delay: None,
            pool_frames: 4,
            background_flusher: false,
            page_checksums: false,
        });
        let pid = store.alloc().unwrap();
        store.get(pid).unwrap(); // resident now
        store.free(pid).unwrap();
        let reused = store.alloc().unwrap();
        assert_eq!(reused, pid);
        // First get after realloc is a miss again (discarded on free).
        let before = store.stats().snapshot();
        store.get(reused).unwrap();
        let after = store.stats().snapshot();
        assert_eq!(after.cache_misses - before.cache_misses, 1);
    }

    /// A MemBackend that fails the next `fail_writes` write calls.
    #[derive(Debug)]
    struct FlakyBackend {
        inner: MemBackend,
        fail_writes: Arc<std::sync::atomic::AtomicU64>,
    }

    impl PageBackend for FlakyBackend {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn capacity(&self) -> usize {
            self.inner.capacity()
        }
        fn grow(&self, new_cap: usize) -> Result<()> {
            self.inner.grow(new_cap)
        }
        fn read(&self, index: usize, buf: &mut [u8]) -> Result<()> {
            self.inner.read(index, buf)
        }
        fn write(&self, index: usize, data: &[u8]) -> Result<()> {
            use std::sync::atomic::Ordering;
            let left = self.fail_writes.load(Ordering::Relaxed);
            if left > 0 {
                self.fail_writes.store(left - 1, Ordering::Relaxed);
                return Err(StoreError::Io("injected write failure".into()));
            }
            self.inner.write(index, data)
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn failed_writeback_restores_victim_instead_of_serving_stale() {
        let fail_writes = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let backend = Box::new(FlakyBackend {
            inner: MemBackend::new(64),
            fail_writes: Arc::clone(&fail_writes),
        });
        let store = PageStore::with_parts(
            StoreConfig {
                page_size: 64,
                io_delay: None,
                pool_frames: 1,
                background_flusher: false,
                page_checksums: false,
            },
            backend,
            None,
            Arc::new(StoreStats::default()),
            &[],
        )
        .unwrap();
        let a = store.alloc().unwrap();
        let b = store.alloc().unwrap();
        let mut p = Page::zeroed(64);
        p.bytes_mut().fill(0xD1);
        store.put(a, &p).unwrap(); // a dirty in the single frame
                                   // Fail the write-back that evicting `a` requires: the read of `b`
                                   // errors, and `a`'s latest bytes must survive in the restored frame.
                                   // Four failures outlast the transient-I/O retry schedule (one
                                   // initial attempt + three retries), so the error surfaces.
        fail_writes.store(4, std::sync::atomic::Ordering::Relaxed);
        assert!(matches!(store.read(b), Err(StoreError::Io(_))));
        assert!(
            store.read(a).unwrap().iter().all(|&x| x == 0xD1),
            "victim's un-flushed bytes must never be silently replaced by stale backend data"
        );
        // Once the backend heals, eviction proceeds and nothing was lost.
        assert!(store.read(b).unwrap().iter().all(|&x| x == 0));
        assert!(store.read(a).unwrap().iter().all(|&x| x == 0xD1));
        assert!(store.stats().snapshot().dirty_writebacks >= 1);
    }

    fn flaky_store(pool_frames: usize) -> (Arc<PageStore>, Arc<std::sync::atomic::AtomicU64>) {
        let fail_writes = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let backend = Box::new(FlakyBackend {
            inner: MemBackend::new(64),
            fail_writes: Arc::clone(&fail_writes),
        });
        let store = PageStore::with_parts(
            StoreConfig {
                page_size: 64,
                io_delay: None,
                pool_frames,
                background_flusher: false,
                page_checksums: false,
            },
            backend,
            None,
            Arc::new(StoreStats::default()),
            &[],
        )
        .unwrap();
        (store, fail_writes)
    }

    #[test]
    fn every_sweep_keeps_a_failed_frame_dirty_and_retries_it() {
        // (sweep, dirty frames a healthy sweep leaves behind). The flusher
        // has no caller to fail: its error is latched into `health` and
        // surfaces on the next foreground op, which `check_health` models.
        type Sweep = fn(&PageStore) -> Result<()>;
        let flusher: Sweep = |s| {
            s.flusher_pass();
            s.check_health()
        };
        let table: [(&str, Sweep, usize); 3] = [
            ("flush", |s| s.flush(), 0),
            ("flush_for_checkpoint", |s| s.flush_for_checkpoint(), 0),
            ("flusher_pass", flusher, 4), // drains to its low watermark
        ];
        for (name, sweep, floor) in table {
            let (store, fail_writes) = flaky_store(8);
            let pids: Vec<_> = (0..6).map(|_| store.alloc().unwrap()).collect();
            let mut p = Page::zeroed(64);
            for (i, &pid) in pids.iter().enumerate() {
                p.bytes_mut().fill(i as u8 + 1);
                store.put(pid, &p).unwrap();
            }
            assert_eq!(store.pool.dirty_count(), 6, "{name}");
            // One frame's write-back fails for good (four failures outlast
            // the transient-I/O retry schedule); the rest of the sweep
            // still runs, and the failed frame stays dirty.
            fail_writes.store(4, std::sync::atomic::Ordering::Relaxed);
            assert!(matches!(sweep(&store), Err(StoreError::Io(_))), "{name}");
            assert_eq!(store.pool.dirty_count(), floor + 1, "{name}");
            let snap = store.stats().snapshot();
            assert_eq!(snap.dirty_writebacks as usize, 6 - (floor + 1), "{name}");
            assert_eq!(snap.flusher_errors, u64::from(name == "flusher_pass"));
            // The backend healed: the next sweep writes the frame.
            sweep(&store).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(store.pool.dirty_count(), floor, "{name}");
            store.sync().unwrap();
            assert_eq!(store.stats().snapshot().dirty_writebacks, 6, "{name}");
            for (i, &pid) in pids.iter().enumerate() {
                assert!(store
                    .get(pid)
                    .unwrap()
                    .bytes()
                    .iter()
                    .all(|&b| b == i as u8 + 1));
            }
        }
    }

    #[test]
    fn flush_racing_a_miss_claim_leaves_the_victim_to_the_claimant() {
        let (store, _) = flaky_store(1);
        let a = store.alloc().unwrap();
        let b = store.alloc().unwrap();
        let mut p = Page::zeroed(64);
        p.bytes_mut().fill(0xB2);
        store.put(b, &p).unwrap();
        store.sync().unwrap(); // b's image is in the backend
        p.bytes_mut().fill(0xA1);
        store.put(a, &p).unwrap(); // a dirty in the single frame
                                   // A reader of b, stopped between its claim and its latch: the pool
                                   // already calls the frame b's, the bytes in it are still dirty a.
        let Claim::Miss {
            frame, idx, flush, ..
        } = store.pool.claim(b)
        else {
            panic!("b is not resident and the frame is unpinned");
        };
        assert_eq!(flush, Some(a));
        // The racing flush must not write a's bytes into b's slot…
        store.flush().unwrap();
        // …so when the reader resumes, it loads b's own image.
        let slot = store.slot(b).unwrap();
        let guard = store.fill_frame(b, &slot, frame, idx, flush, None).unwrap();
        frame.end_write();
        frame
            .owner
            .store(b.to_raw(), std::sync::atomic::Ordering::Release);
        drop(guard);
        store.pool.complete_miss(b, idx);
        frame.unpin();
        assert!(store.get(b).unwrap().bytes().iter().all(|&x| x == 0xB2));
        assert!(store.get(a).unwrap().bytes().iter().all(|&x| x == 0xA1));
    }

    #[test]
    fn a_pool_of_no_frames_takes_the_exhausted_arm_for_every_access() {
        // What exp10 reads off a `pool_frames: 0` store: no hits,
        // every get a miss and a bypass, every backend access delayed.
        let delay = Duration::from_micros(200);
        let store = PageStore::new(StoreConfig {
            page_size: 64,
            io_delay: Some(delay),
            pool_frames: 0,
            background_flusher: false,
            page_checksums: false,
        });
        let pid = store.alloc().unwrap();
        let t0 = Instant::now();
        let mut p = Page::zeroed(64);
        p.bytes_mut().fill(7);
        store.put(pid, &p).unwrap(); // overwrite: no read, one write
        for _ in 0..5 {
            assert_eq!(store.get(pid).unwrap(), p); // one read each
        }
        let mut w = store.write_page(pid, WriteIntent::Update).unwrap();
        assert_eq!(w.bytes(), p.bytes()); // one read…
        w.write_at(40, &[9]);
        w.commit().unwrap(); // …and one write
        assert!(t0.elapsed() >= 8 * delay);
        assert_eq!(store.get(pid).unwrap().bytes()[40], 9);
        let s = store.stats().snapshot();
        assert_eq!((s.gets, s.puts), (6, 2));
        assert_eq!((s.cache_hits, s.cache_misses), (0, 6));
        assert_eq!(s.pool_bypasses, 6 + 2);
        assert_eq!((s.pins, s.dirty_writebacks), (0, 0));
        assert_eq!(store.pool_resident(), 0);
    }

    #[test]
    fn hits_and_misses_account_for_every_read() {
        let store = PageStore::new(StoreConfig {
            page_size: 64,
            io_delay: None,
            pool_frames: 4,
            background_flusher: false,
            page_checksums: false,
        });
        let pids: Vec<_> = (0..8).map(|_| store.alloc().unwrap()).collect();
        for pid in &pids {
            store.get(*pid).unwrap();
        }
        for pid in pids.iter().rev() {
            store.get(*pid).unwrap();
        }
        let s = store.stats().snapshot();
        assert_eq!(s.gets, 16);
        assert_eq!(s.cache_hits + s.cache_misses, 16);
        assert!(s.pins >= s.cache_hits);
    }
}

#[cfg(test)]
mod journal_tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// Records calls; can be switched to failing to model a dead journal.
    #[derive(Debug, Default)]
    struct MockJournal {
        allocs: AtomicU64,
        frees: AtomicU64,
        puts: AtomicU64,
        fail: AtomicBool,
    }

    impl MockJournal {
        fn check(&self) -> Result<()> {
            if self.fail.load(Ordering::Relaxed) {
                Err(StoreError::Io("journal dead".to_string()))
            } else {
                Ok(())
            }
        }
    }

    impl Journal for MockJournal {
        fn log_alloc(&self, _pid: PageId) -> Result<()> {
            self.check()?;
            self.allocs.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn log_free(&self, _pid: PageId) -> Result<()> {
            self.check()?;
            self.frees.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn log_put(&self, _pid: PageId, _data: &[u8]) -> Result<()> {
            self.check()?;
            self.puts.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn sync(&self) -> Result<()> {
            self.check()
        }
    }

    fn journaled() -> (Arc<PageStore>, Arc<MockJournal>) {
        let j = Arc::new(MockJournal::default());
        let store = PageStore::with_parts(
            StoreConfig::with_page_size(64),
            Box::new(crate::backend::MemBackend::new(64)),
            Some(Arc::clone(&j) as Arc<dyn Journal>),
            Arc::new(StoreStats::default()),
            &[],
        )
        .unwrap();
        (store, j)
    }

    #[test]
    fn mutations_are_logged_in_order() {
        let (store, j) = journaled();
        let a = store.alloc().unwrap();
        let p = Page::zeroed(64);
        store.put(a, &p).unwrap();
        store.put(a, &p).unwrap();
        store.free(a).unwrap();
        assert_eq!(j.allocs.load(Ordering::Relaxed), 1);
        assert_eq!(j.puts.load(Ordering::Relaxed), 2);
        assert_eq!(j.frees.load(Ordering::Relaxed), 1);
        assert_eq!(store.stats().snapshot().wal_records, 4);
    }

    #[test]
    fn write_guard_commit_is_one_wal_record() {
        let (store, j) = journaled();
        let a = store.alloc().unwrap();
        let mut w = store.write_page(a, WriteIntent::Overwrite).unwrap();
        w.bytes_mut().fill(5);
        w.commit().unwrap();
        assert_eq!(j.puts.load(Ordering::Relaxed), 1);
        // Dropping without commit logs nothing.
        let mut w = store.write_page(a, WriteIntent::Update).unwrap();
        w.bytes_mut().fill(6);
        drop(w);
        assert_eq!(j.puts.load(Ordering::Relaxed), 1);
        assert!(store.get(a).unwrap().bytes().iter().all(|&b| b == 5));
    }

    /// One recorded delta append: (pid, page_lsn, ranges).
    type LoggedDelta = (u32, u64, Vec<(u16, Vec<u8>)>);

    /// v2-capable mock: records every delta append (pid, page_lsn, ranges)
    /// and hands out increasing LSNs.
    #[derive(Debug, Default)]
    struct DeltaMockJournal {
        next_lsn: AtomicU64,
        puts_v1: AtomicU64,
        bases: AtomicU64,
        deltas: Mutex<Vec<LoggedDelta>>,
    }

    impl Journal for DeltaMockJournal {
        fn log_alloc(&self, _pid: PageId) -> Result<()> {
            self.next_lsn.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn log_free(&self, _pid: PageId) -> Result<()> {
            self.next_lsn.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn log_put(&self, _pid: PageId, _data: &[u8]) -> Result<()> {
            self.next_lsn.fetch_add(1, Ordering::Relaxed);
            self.puts_v1.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn supports_deltas(&self) -> bool {
            true
        }
        fn log_put_base(&self, _pid: PageId, _data: &[u8]) -> Result<u64> {
            self.bases.fetch_add(1, Ordering::Relaxed);
            Ok(self.next_lsn.fetch_add(1, Ordering::Relaxed) + 1)
        }
        fn log_put_delta(
            &self,
            pid: PageId,
            page_lsn: u64,
            ranges: &[crate::journal::DeltaRange<'_>],
        ) -> Result<u64> {
            self.deltas.lock().push((
                pid.to_raw(),
                page_lsn,
                ranges.iter().map(|&(o, b)| (o, b.to_vec())).collect(),
            ));
            Ok(self.next_lsn.fetch_add(1, Ordering::Relaxed) + 1)
        }
        fn sync(&self) -> Result<()> {
            Ok(())
        }
    }

    fn delta_journaled(page_size: usize) -> (Arc<PageStore>, Arc<DeltaMockJournal>) {
        let j = Arc::new(DeltaMockJournal::default());
        let store = PageStore::with_parts(
            StoreConfig::with_page_size(page_size),
            Box::new(crate::backend::MemBackend::new(page_size)),
            Some(Arc::clone(&j) as Arc<dyn Journal>),
            Arc::new(StoreStats::default()),
            &[],
        )
        .unwrap();
        (store, j)
    }

    #[test]
    fn tracked_writes_log_coalesced_deltas_and_stamp_the_page_lsn() {
        let (store, j) = delta_journaled(256);
        let a = store.alloc().unwrap(); // alloc is this epoch's base
        let mut w = store.write_page(a, WriteIntent::Update).unwrap();
        w.write_at(40, &[1, 2, 3, 4]);
        w.write_at(46, &[9; 2]); // gap of 2 -> coalesces with the first
        w.write_at(200, &[7; 8]);
        w.commit().unwrap();
        let deltas = j.deltas.lock();
        assert_eq!(deltas.len(), 1, "one tracked commit, one delta record");
        let (pid, page_lsn, ranges) = &deltas[0];
        assert_eq!(*pid, a.to_raw());
        assert_eq!(*page_lsn, 0, "fresh page had no LSN yet");
        assert_eq!(
            ranges
                .iter()
                .map(|(o, b)| (*o, b.len()))
                .collect::<Vec<_>>(),
            vec![(40, 8), (200, 8)],
            "adjacent ranges coalesce; distant ones stay separate"
        );
        assert_eq!(&ranges[0].1[..4], &[1, 2, 3, 4]);
        drop(deltas);
        // The record's LSN was stamped into the page's reserved field.
        let g = store.read(a).unwrap();
        assert!(page_lsn_of(&g) > 0);
        let snap = store.stats().snapshot();
        assert_eq!(snap.wal_put_deltas, 1);
        assert_eq!(snap.wal_put_full_images, 0);
    }

    fn page_lsn_of(bytes: &[u8]) -> u64 {
        crate::page::page_lsn(bytes)
    }

    #[test]
    fn first_touch_after_epoch_advance_falls_back_to_a_full_image() {
        let (store, j) = delta_journaled(256);
        let a = store.alloc().unwrap();
        let mut w = store.write_page(a, WriteIntent::Update).unwrap();
        w.write_at(40, &[1; 4]);
        w.commit().unwrap();
        assert_eq!(j.deltas.lock().len(), 1);
        // Checkpoint: the next tracked write must re-base.
        store.advance_checkpoint_epoch();
        let mut w = store.write_page(a, WriteIntent::Update).unwrap();
        w.write_at(40, &[2; 4]);
        w.commit().unwrap();
        assert_eq!(j.deltas.lock().len(), 1, "no delta without a fresh base");
        assert_eq!(j.bases.load(Ordering::Relaxed), 1);
        // With the base in place, deltas resume.
        let mut w = store.write_page(a, WriteIntent::Update).unwrap();
        w.write_at(40, &[3; 4]);
        w.commit().unwrap();
        assert_eq!(j.deltas.lock().len(), 2);
        let snap = store.stats().snapshot();
        assert_eq!(snap.wal_delta_fallback_first_touch, 1);
    }

    #[test]
    fn large_tracked_writes_fall_back_to_full_images() {
        let (store, j) = delta_journaled(256);
        let a = store.alloc().unwrap(); // base via alloc
                                        // A tracked write dirtying most of the page: full-image fallback.
        let mut w = store.write_page(a, WriteIntent::Update).unwrap();
        w.write_at(24, &[6; 200]);
        w.commit().unwrap();
        assert!(j.deltas.lock().is_empty());
        assert_eq!(j.bases.load(Ordering::Relaxed), 1);
        assert_eq!(store.stats().snapshot().wal_delta_fallback_large, 1);
        // A small tracked write now rides on that base as a delta.
        let mut w = store.write_page(a, WriteIntent::Update).unwrap();
        w.write_at(24, &[7; 4]);
        w.commit().unwrap();
        assert_eq!(j.deltas.lock().len(), 1);
    }

    #[test]
    fn untracked_images_cannot_anchor_deltas() {
        // A v1 full image replays verbatim — its bytes at the reserved
        // LSN offset are caller data, not an LSN — so the write after it
        // must re-base with a v2 record before deltas resume.
        let (store, j) = delta_journaled(256);
        let a = store.alloc().unwrap();
        let mut w = store.write_page(a, WriteIntent::Overwrite).unwrap();
        w.bytes_mut().fill(5); // puts 0x0505.. in the LSN field
        w.commit().unwrap();
        assert_eq!(j.puts_v1.load(Ordering::Relaxed), 1);
        let mut w = store.write_page(a, WriteIntent::Update).unwrap();
        w.write_at(40, &[6; 4]);
        w.commit().unwrap();
        assert!(j.deltas.lock().is_empty(), "no delta on a garbage field");
        assert_eq!(j.bases.load(Ordering::Relaxed), 1);
        let mut w = store.write_page(a, WriteIntent::Update).unwrap();
        w.write_at(40, &[7; 4]);
        w.commit().unwrap();
        assert_eq!(j.deltas.lock().len(), 1, "deltas resume on the v2 base");
    }

    #[test]
    fn journal_failure_aborts_mutations_without_state_change() {
        let (store, j) = journaled();
        let a = store.alloc().unwrap();
        j.fail.store(true, Ordering::Relaxed);
        // Put fails, page still readable with old (zero) contents.
        let mut p = Page::zeroed(64);
        p.bytes_mut()[0] = 9;
        assert!(matches!(store.put(a, &p), Err(StoreError::Io(_))));
        assert_eq!(store.get(a).unwrap().bytes()[0], 0);
        // A write guard fails the same way and rolls back.
        let mut w = store.write_page(a, WriteIntent::Overwrite).unwrap();
        w.bytes_mut().fill(9);
        assert!(matches!(w.commit(), Err(StoreError::Io(_))));
        assert_eq!(store.get(a).unwrap().bytes()[0], 0);
        // Free fails, page stays allocated.
        assert!(matches!(store.free(a), Err(StoreError::Io(_))));
        assert!(store.is_allocated(a));
        // Alloc fails, nothing leaks: recovery sees the same capacity.
        assert!(matches!(store.alloc(), Err(StoreError::Io(_))));
        assert_eq!(store.live_pages(), 1);
        // Un-fail: the freed slot is reusable again.
        j.fail.store(false, Ordering::Relaxed);
        store.free(a).unwrap();
        assert_eq!(store.alloc().unwrap(), a);
    }
}
