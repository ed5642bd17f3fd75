//! The frame funnel (`pool.*` in the ledger): every page access finds the
//! page's frame here, and [`PageStore::read`] and [`PageStore::write_page`]
//! hand out the [`PageRef`] and [`PageWrite`] guards over it.
//!
//! Every latched page access goes through `PageStore::claim_frame`, the
//! only `pool.claim` loop there is: it pins the page's frame (its own, or
//! a pool frame), latches it shared (`read`) or exclusive (`write_page`),
//! revalidates `owner` and the allocation flag under the latch, and on a
//! pool miss writes the dirty victim back and loads (or, for an
//! overwrite, zeroes) the frame. When no pool frame can be had — every
//! frame pinned, or `StoreConfig::pool_frames` is `0` — its `Exhausted`
//! arm is **the bypass**: a private copy read from the backend under the
//! slot latch, committed by `write_bypass` (log + backend write in one
//! slot-latch section). Backend page writes have three callers:
//! `write_back_frame` (shared by `flush`, `flush_for_checkpoint` and the
//! flusher), `write_back_victim` (eviction, and a sweep that meets a frame
//! mid-eviction) and `write_bypass`. `latch_lint` holds these counts, and
//! the frame-table lookups, where they are.
//!
//! ## Reads that write nothing shared
//!
//! [`PageStore::read_probe`] is the one page read that takes no latch when
//! it can: `probe_unlatched` serves a resident page without a pin, a shard
//! mutex, a frame latch or a slot latch. It finds the page's own frame, or
//! its pool frame through the pool's `pid → frame` hint, checks that the
//! frame's `owner` names the page, runs the caller's closure over the
//! bytes in place (a range-checked [`PageProbe`], so a reader touches only
//! the bytes it routes on), and accepts the result only if, afterwards,
//! `owner` still names the page and the seqlock version is the even one it
//! started at (the pool's unmaps and refills keep `owner` honest — see
//! [`crate::pool`]); the freed check is the slot's lock-free `live` mirror.
//! What it returns is already validated: nothing is left for the caller to
//! check. When no probe can be taken, or the run fails validation,
//! `read_probe` runs the same closure over a latched [`PageStore::read`].
//! Its counters are per-thread stripes ([`crate::stats::Counter`]).
//!
//! Every backend access (misses, write-backs, bypasses, alloc's zero-fill)
//! runs under the page's latch, so a backend that costs real time — a
//! latency [`crate::MemBackend::with_latency`] simulates — makes the cost
//! of holding locks across I/O observable. Frame hits skip the backend.

use super::{table::Slot, PageStore};
use crate::audit::{self, Audited};
use crate::error::{Result, StoreError};
use crate::page::{Page, PageId};
use crate::pool::{Claim, Frame, PageProbe};
use crate::stats::StoreStats;
use parking_lot::{RwLockReadGuard, RwLockWriteGuard};
use std::ops::Deref;
use std::sync::atomic::{fence, Ordering};

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

/// How [`PageStore::write_page`] should initialize the write buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteIntent {
    /// The caller rewrites every byte (e.g. re-encoding a node); the
    /// current contents need not be loaded on a pool miss. Over a resident
    /// frame the commit logs only the bytes that differ from the prior
    /// image, while a miss zero-fills a fresh frame, which has no prior
    /// image and logs a full one (see [`PageWrite::commit`]).
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
/// until [`PageWrite::commit`], which logs the change to the journal
/// (write-ahead; see [`PageWrite::commit`] for which record) and then
/// publishes by marking the frame dirty. Dropping without committing rolls
/// the page back to its prior contents.
#[derive(Debug)]
pub struct PageWrite<'a> {
    store: &'a PageStore,
    pid: PageId,
    /// The page's slot, looked up once by `write_page`; commit latches it.
    slot: &'a Slot,
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
    /// backend still holds the prior contents).
    fresh: Option<usize>,
    /// The image the write started from, which commit diffs against: a
    /// resident frame's prior bytes (also restored on rollback) or, in a
    /// journaled store, the image an [`WriteIntent::Update`] miss just
    /// loaded. `None` for an [`WriteIntent::Overwrite`] miss.
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
        match self.fresh {
            // Under the latch: see `BufferPool::abort_miss`.
            Some(idx) => store.pool.abort_miss(pid, idx), // unpins
            None => self.frame.unpin(),
        }
        drop(self.guard);
    }
}

impl PageWrite<'_> {
    /// Mutable access to the page image being written. In a journaled
    /// store the reserved field ([`crate::PAGE_LSN_OFFSET`]`..`[`crate::PAGE_RESERVED_END`])
    /// is the store's: commit overwrites whatever the writer put there.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        match self.inner.as_mut().expect("live guard") {
            WriteInner::Frame(fw) => &mut fw.guard,
            WriteInner::Owned(p) => p.bytes_mut(),
        }
    }

    /// Copies `data` into the page at `off`.
    pub fn write_at(&mut self, off: usize, data: &[u8]) {
        self.bytes_mut()[off..off + data.len()].copy_from_slice(data);
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

    /// Commits the new image: journal first (one WAL record, the commit
    /// point), then publish. On error the page is left unchanged.
    ///
    /// In a journaled store the record is chosen one way, by
    /// `PageStore::log_page_write`: commit restores the reserved field from
    /// the image the write started from (or zeroes it when there is none),
    /// then logs the edits that turn that image into the new one as a
    /// delta: the changed byte ranges, and a move for a range that is the
    /// image shifted (an insert or a remove in a node's pairs). It logs a
    /// v2 base instead when there is no prior image (an
    /// [`WriteIntent::Overwrite`] miss, or the bypass when no pool frame
    /// can be had), when the page has no base in this checkpoint epoch, or
    /// when the delta would outgrow half a page. Either record's LSN is
    /// stamped into the page. A store without a journal logs and compares
    /// nothing.
    pub fn commit(self) -> Result<()> {
        StoreStats::bump(&self.store.stats.puts);
        self.publish()
    }

    fn publish(mut self) -> Result<()> {
        let (store, pid) = (self.store, self.pid);
        match self.inner.take().expect("live guard") {
            WriteInner::Frame(mut fw) => {
                let logged = {
                    let allocated = self.slot.latch();
                    if !*allocated {
                        Err(StoreError::PageFreed(pid))
                    } else {
                        store.log_page_write(pid, self.slot, fw.undo.as_deref(), &mut fw.guard)
                    }
                };
                if let Err(e) = logged {
                    fw.rollback(store, pid);
                    return Err(e);
                }
                // Publishes a fresh frame inside the window; a resident one
                // already says `pid`.
                if let Some(idx) = fw.fresh {
                    store.pool.complete_miss(pid, idx, &fw.guard);
                }
                fw.frame.end_write();
                // A page's own frame is its only copy: nothing to write back.
                if store.backend.is_some() {
                    store.pool.mark_dirty(fw.frame);
                }
                drop(fw.guard);
                fw.frame.unpin();
                Ok(())
            }
            // A private buffer is not covered by a frame write latch, so
            // two same-page bypass writers can interleave — last-writer-
            // wins is only sound for whole images, never for merged delta
            // chains: `write_bypass` logs a base, with no prior image.
            WriteInner::Owned(mut page) => {
                if store.write_bypass(pid, self.slot, page.bytes_mut())? {
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

impl PageStore {
    /// §2.2 `get(x)` without the copy: borrows the page's buffer-pool frame
    /// (pinning it) when resident, loading it on a miss. Falls back to a
    /// private copy when every frame is pinned or the pool is disabled.
    pub fn read(&self, pid: PageId) -> Result<PageRef<'_>> {
        self.check_health()?;
        let slot = self.slot(pid)?;
        StoreStats::bump(&self.stats.gets);
        let inner = match self.claim_frame(pid, slot, None)? {
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
    /// [`PageStore::write_page`]. Pins the page's frame (its own in a store
    /// without a backend, which always hits) and latches it:
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
            let claim = match self.frames.get(pid.index()) {
                Some(frame) => Claim::Hit(frame.pin()),
                None => self.pool.claim(pid),
            };
            let (frame, latch, fresh) = match claim {
                Claim::Hit(frame) => {
                    StoreStats::bump(&self.stats.pins);
                    let latch = match write {
                        None => Latch::Shared(self.latch_read(frame)),
                        Some(_) => Latch::Exclusive(self.latch_write(frame)),
                    };
                    if !*slot.latch() {
                        drop(latch);
                        frame.unpin();
                        return Err(StoreError::PageFreed(pid));
                    }
                    if !frame.owned_by(pid) {
                        // The pool frame is mid-load or was repurposed
                        // between the map lookup and the latch, or the page
                        // was freed since the check above (a page's own
                        // frame is disowned only then); the responsible
                        // party is making progress — retry the claim.
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
                            // Publishes `owner` and the page's class.
                            self.pool.complete_miss(pid, idx, &guard);
                            frame.end_write();
                            drop(guard);
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

    /// The one validated page read: runs `f` over `pid`'s bytes **in
    /// place** in its resident frame, without a pin or a latch, and returns
    /// its result once the store has validated the run
    /// (`PageStore::probe_unlatched`). When no probe can be taken (page
    /// not resident, a writer mid-mutation) or the run fails validation, it
    /// runs `f` again over a latched [`PageStore::read`], which maps the
    /// page and refreshes the pool's hint. Either way `f`'s result was
    /// computed from one consistent image of the page. `f` should read only
    /// what it needs — a route's header and a few keys, a record's slot
    /// entry and bytes — and may itself read or write pages: a write to
    /// this page inside the unlatched run voids it.
    pub fn read_probe<T>(&self, pid: PageId, mut f: impl FnMut(&PageProbe<'_>) -> T) -> Result<T> {
        match self.probe_unlatched(pid, &mut f)? {
            Some(out) => Ok(out),
            None => Ok(f(&PageProbe::new(&self.read(pid)?))),
        }
    }

    /// [`PageStore::read_probe`]'s fast path. `Ok(None)` when the probe
    /// cannot be taken or fails validation; then `f`'s result, if it ran,
    /// is dropped. The only shared line it writes is the frame's CLOCK
    /// bit, and only when the clock hand cleared it.
    ///
    /// In a store without a backend the frame is the page's own. Otherwise
    /// it comes from the pool's `pid → frame` hint and may hold another
    /// page, or none.
    pub(crate) fn probe_unlatched<T>(
        &self,
        pid: PageId,
        f: impl FnOnce(&PageProbe<'_>) -> T,
    ) -> Result<Option<T>> {
        let slot = self.slot(pid)?;
        let frame = self
            .frames
            .get(pid.index())
            .or_else(|| self.pool.frame_hinted(pid));
        let probed = frame.and_then(|frame| {
            // `owner` before `f`: a pool miss or a freed page does not run
            // `f` over a stranger's bytes.
            if !frame.owned_by(pid) {
                return None;
            }
            let version = frame.version();
            if !version.is_multiple_of(2) {
                return None;
            }
            let out = f(&frame.probe());
            fence(Ordering::Acquire);
            // `owner` before the version: a free disowns the frame, and a
            // re-alloc (or a pool refill) names the page again only inside
            // its seqlock window, so a reader that sees the page named
            // again also sees the version that window bumped. Loaded the
            // other way round, a free + re-alloc between the two loads
            // would pass a run over the freed page's image.
            (frame.owned_by(pid) && frame.version() == version).then_some((frame, out))
        });
        let Some((frame, out)) = probed else {
            StoreStats::bump(&self.stats.optimistic_read_fallbacks);
            return Ok(None);
        };
        // `free` clears the flag before it disowns the frame: a page freed
        // after the owner check surfaces as freed, not as its last image.
        if !slot.is_live() {
            return Err(StoreError::PageFreed(pid));
        }
        frame.touch();
        StoreStats::bump(&self.stats.gets);
        StoreStats::bump(&self.stats.optimistic_reads);
        Ok(Some(out))
    }

    /// Populates a freshly claimed frame under its write latch: writes the
    /// dirty victim back (its WAL record predates its dirty bit —
    /// write-ahead holds), then, under `pid`'s slot latch, reads the page
    /// from the backend — or just zeroes the frame when the caller will
    /// overwrite every byte. Returns with the seqlock window still open
    /// and `owner` not yet published. Rolls the claim back (and releases
    /// its pin) itself on every error path.
    pub(super) fn fill_frame<'a>(
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
        // Whatever page the frame held is leaving it: from here until
        // `complete_miss` publishes `pid`, it names no page.
        frame.disown();
        let r = {
            let allocated = slot.latch();
            if !*allocated {
                Err(StoreError::PageFreed(pid))
            } else if write == Some(WriteIntent::Overwrite) {
                guard.fill(0);
                Ok(())
            } else {
                self.backend_read_page(pid, &mut guard)
            }
        };
        if let Err(e) = r {
            frame.end_write();
            self.pool.abort_miss(pid, idx); // under the latch: see abort_miss
            return Err(e);
        }
        self.pool.clear_dirty(frame);
        audit::classify_frame(frame.audit_addr(), &guard);
        Ok(guard)
    }

    /// §2.2 `put(A, x)`: overwrites the page with the buffer's contents —
    /// [`PageStore::write_page`] with [`WriteIntent::Overwrite`], a copy,
    /// and a commit. With a journal attached the commit's record (a delta
    /// against a resident frame, else a base; see [`PageWrite::commit`])
    /// is logged before anything becomes visible — write-ahead order. The new image lands in the page's
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

    /// The bypass writer: logs a base (stamping its LSN into `data`) and
    /// writes the image straight to the backend, all under the slot latch.
    /// Returns `Ok(false)` when a racing loader mapped the page (the caller
    /// must write through the frame so readers of the frame see the new
    /// image); `data` is then untouched.
    fn write_bypass(&self, pid: PageId, slot: &Slot, data: &mut [u8]) -> Result<bool> {
        let allocated = slot.latch();
        if !*allocated {
            return Err(StoreError::PageFreed(pid));
        }
        if self.pool.is_mapped(pid) {
            return Ok(false);
        }
        self.log_page_write(pid, slot, None, data)?;
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
        let inner = match self.claim_frame(pid, slot, Some(intent))? {
            Claimed::Frame {
                frame,
                latch: Latch::Exclusive(mut guard),
                fresh,
            } => {
                // A resident frame is mutated in place, so rollback needs
                // its prior image, and so does a journaled commit's diff —
                // which an `Update` miss takes from the image it just
                // loaded. An `Overwrite` miss arrives zeroed, with none.
                let resident = fresh.is_none();
                let undo = (resident || (self.journal.is_some() && !overwrite))
                    .then(|| guard.to_vec().into_boxed_slice());
                if resident && overwrite {
                    guard.fill(0);
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
            inner: Some(inner),
        })
    }
}
