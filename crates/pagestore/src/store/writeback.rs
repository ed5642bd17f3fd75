//! Write-back and checkpoint (`flusher.*` in the ledger): every backend
//! page read and write goes through the funnels here, with their retry
//! and CRC; `flush`, `sync` and the fuzzy checkpoint's barrier sweep dirty
//! frames back; eviction writes its dirty victim back; and the flusher, a
//! step of the store's background loop ([`crate::upkeep`]), drains dirty
//! frames so foreground evictions almost never pay a
//! [`crate::backend::PageBackend::write`]. This is the one module that
//! knows the flusher's two watermarks ([`Watermarks`]).
//!
//! ## The flusher
//!
//! Every tick of the store's loop (or on a nudge from a writer in
//! `PageStore::throttle_dirty`) runs one `PageStore::flusher_pass`: if the
//! pool's exact dirty-page gauge is above the **low watermark**, dirty
//! frames are written back *in clock-hand order* — the frames the CLOCK
//! hand passes next are cleaned first, so the foreground mostly finds
//! clean victims. Writers only block above the **high watermark**, and
//! then only in short bounded waits for the loop's next tick (recorded in
//! the `flusher_backpressure` histogram), so a write burst cannot fill the
//! pool with dirty frames faster than the backend absorbs them.
//!
//! The pass itself runs with no lock of the loop held and takes the
//! store's ordinary `FrameLatch → SlotLatch → backend` path.

use super::PageStore;
use crate::backend::PageBackend;
use crate::error::{Result, StoreError};
use crate::page::{stamp_page_crc, verify_page_crc, PageId};
use crate::pool::{Frame, Pinned};
use crate::stats::StoreStats;
use std::time::{Duration, Instant};

/// Backoff schedule for transient backend I/O errors: up to three retries
/// after the initial attempt, sleeping 50µs, 200µs, 800µs between them.
/// Short enough that a foreground op under a latch stalls for ~1ms worst
/// case; long enough to ride out a momentary EINTR/EAGAIN-class hiccup.
const IO_RETRY_BACKOFF: [Duration; 3] = [
    Duration::from_micros(50),
    Duration::from_micros(200),
    Duration::from_micros(800),
];

/// Total bound on a single backpressure stall: the writer re-checks its
/// predicate at the end of every tick and gives up after this long, so a
/// stuck backend degrades throughput, never liveness.
const DRAIN_DEADLINE: Duration = Duration::from_millis(50);

/// The flusher's two dirty-page watermarks: a pass drains down to `low`,
/// and writers stall (bounded) at `high` until a pass drains below it.
/// Only [`Watermarks::new`] builds one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Watermarks {
    low: usize,
    high: usize,
}

impl Watermarks {
    /// Refuses `low >= high`: a pass stops at `low`, so a writer stalled
    /// at a `high` no greater than it would wait out [`DRAIN_DEADLINE`]
    /// on every write.
    pub(super) fn new(low: usize, high: usize) -> Option<Watermarks> {
        (low < high).then_some(Watermarks { low, high })
    }

    /// A pool's watermarks: low at an eighth of its frames (at least 4),
    /// high at half (at least 8).
    pub(super) fn for_capacity(frames: usize) -> Watermarks {
        Watermarks::new((frames / 8).max(4), (frames / 2).max(8))
            .expect("frames/8 (at least 4) is below frames/2 (at least 8)")
    }
}

impl PageStore {
    /// Writes every dirty frame back to the backend. The WAL record for a
    /// dirty frame was appended (into the log file) when it was written,
    /// so write-ahead order holds; callers that need the log durable first
    /// (checkpoint) sync the journal before calling this —
    /// [`PageStore::sync`] does.
    pub fn flush(&self) -> Result<()> {
        // Clean-store fast path: when the background flusher (or a prior
        // flush) already drained everything, skip the all-shards sweep.
        // The gauge is exact, so a zero here means no frame has its dirty
        // bit set — there is nothing a sweep could find.
        if self.pool.dirty_count() == 0 {
            return Ok(());
        }
        let (_, errs) = self.sweep(self.pool.pin_sweep(true, usize::MAX));
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
        self.backend.as_ref().map_or(Ok(()), |b| b.sync())
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
    /// 3. The journal is synced first, making durable the record of
    ///    everything this barrier writes back.
    ///
    /// Writes that begin *during* the barrier may or may not be included —
    /// that is the fuzziness; recovery replays their records from the live
    /// WAL suffix, gated by each page's stamped LSN.
    pub fn flush_for_checkpoint(&self) -> Result<()> {
        if let Some(j) = &self.journal {
            j.sync()?;
        }
        let (_, errs) = self.sweep(self.pool.pin_sweep(false, usize::MAX));
        errs.into_iter().next().map_or(Ok(()), Err)?;
        // Bypass-writer barrier (wait 2 above).
        for slot in self.slots.iter() {
            drop(slot.latch());
        }
        self.backend.as_ref().map_or(Ok(()), |b| b.sync())
    }

    /// The backend behind the pool. Only a miss, a write-back or a bypass
    /// needs it, and a store without one has none of those.
    pub(super) fn backend(&self) -> &dyn PageBackend {
        self.backend
            .as_deref()
            .expect("a store without a backend never misses")
    }

    /// One background write-back pass (the flusher's step of the store's
    /// loop): drains dirty frames in clock-hand order down to the low
    /// watermark.
    pub(super) fn flusher_pass(&self) {
        let count = self.pool.dirty_count();
        let low = self.watermarks.low;
        if count <= low {
            return;
        }
        StoreStats::bump(&self.stats.flusher_wakeups);
        let (wrote, errs) = self.sweep(self.pool.pin_sweep(true, count - low));
        StoreStats::add(&self.stats.flusher_pages_written, wrote);
        // A background failure has nobody to return to: latch it so the
        // next foreground op fails loudly instead of the store limping
        // along with an undrainable pool.
        for e in errs {
            StoreStats::bump(&self.stats.flusher_errors);
            self.health.flag(e);
        }
    }

    /// The one write-back sweep behind [`PageStore::flush`],
    /// [`PageStore::flush_for_checkpoint`] and the flusher: writes every
    /// pinned frame back (a failure does not stop the sweep) and unpins
    /// it. Returns the pages written and the failures, in sweep order.
    fn sweep(&self, pinned: Vec<Pinned<'_>>) -> (u64, Vec<StoreError>) {
        let (mut wrote, mut errs) = (0, Vec::new());
        for (frame, pid, idx) in pinned {
            match self.write_back_frame(frame, pid, idx) {
                Ok(did_write) => wrote += u64::from(did_write),
                Err(e) => errs.push(e),
            }
            frame.unpin();
        }
        (wrote, errs)
    }

    /// Writes one pinned frame back under its read latch, if it still
    /// holds dirty bytes of the allocated page `pid`.
    ///
    /// The sweep can race a miss claim: `pool.claim` re-labels a dirty
    /// victim frame for the new page `pid` before the claimant has latched
    /// it, so the frame still holds the *victim's* bytes, whose write-back
    /// the claimant owes. They must never land in `pid`'s slot, nor be
    /// skipped (a checkpoint returning first would let `checkpoint_end`
    /// drop the WAL holding the victim's records), so the sweep writes
    /// them to the victim's own slot; the claimant's later write of the
    /// same bytes is harmless. This relies on every path that changes a
    /// claimed frame's bytes setting `owner` (or rolling the claim back)
    /// before it releases the write latch: under `guard`, an `owner` that
    /// is still `flushing` names the bytes in the frame.
    fn write_back_frame(&self, frame: &Frame, pid: PageId, idx: usize) -> Result<bool> {
        let guard = self.latch_read(frame);
        if !frame.owned_by(pid) {
            return match frame.owner() {
                Some(victim) => self.write_back_victim(victim, idx, &guard),
                None => Ok(false),
            };
        }
        let slot = self.slot(pid)?;
        let allocated = slot.latch();
        // Claim the dirty bit before writing: a concurrent put needs the
        // frame's write latch (blocked by `guard`), so nothing can
        // re-dirty the bytes mid-write.
        if !(*allocated && self.pool.clear_dirty(frame)) {
            return Ok(false);
        }
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
    /// high watermark, nudge the store's loop and wait (briefly, bounded)
    /// for its flusher to drain below. A no-op unless the flusher runs
    /// here. Call before starting a write, never from a loop's step.
    pub fn throttle_dirty(&self) {
        let high = self.watermarks.high;
        if self.pool.dirty_count() < high || !self.runs_flusher() {
            return;
        }
        let Some(upkeep) = self.upkeep.get() else {
            return;
        };
        let t0 = Instant::now();
        upkeep.nudge_until(|| self.pool.dirty_count() < high, DRAIN_DEADLINE);
        self.stats
            .flusher_backpressure_hist
            .record(t0.elapsed().as_nanos() as u64);
    }

    /// Retries a backend page access on transient I/O errors with bounded
    /// exponential backoff (the schedule in [`IO_RETRY_BACKOFF`]). Only
    /// `StoreError::Io` is retried — a checksum mismatch or typed state
    /// error re-running the op could at best hide and at worst repeat.
    /// Success after a retry bumps `io_retries`; exhausting the schedule
    /// bumps `io_giveups` and returns the last error. Either way the
    /// nanoseconds slept are recorded in `io_retry_backoff_hist`.
    pub(super) fn retry_io(&self, mut op: impl FnMut() -> Result<()>) -> Result<()> {
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
    /// and (in a journaled store) verifies the page's stored CRC, turning
    /// torn writes and bit rot into a typed
    /// [`StoreError::ChecksumMismatch`]. Every pool miss, bypass read and
    /// write-intent load goes through here.
    pub(super) fn backend_read_page(&self, pid: PageId, buf: &mut [u8]) -> Result<()> {
        self.retry_io(|| self.backend().read(pid.index(), buf))?;
        if self.journal.is_some() && !verify_page_crc(buf) {
            StoreStats::bump(&self.stats.checksum_failures);
            return Err(StoreError::ChecksumMismatch { page: pid });
        }
        Ok(())
    }

    /// The single funnel for backend page writes: in a journaled store
    /// the CRC is stamped into a scratch copy (frames and caller buffers
    /// never carry a live checksum — the stored CRC is purely a
    /// backend-image property), and transient errors are retried. Every
    /// write-back, bypass write and checkpoint sweep goes through here;
    /// alloc's zero-fill skips it deliberately (an all-zero page verifies
    /// as unstamped).
    pub(super) fn backend_write_page(&self, pid: PageId, data: &[u8]) -> Result<()> {
        if self.journal.is_some() {
            let mut scratch = data.to_vec();
            stamp_page_crc(&mut scratch);
            self.retry_io(|| self.backend().write(pid.index(), &scratch))
        } else {
            self.retry_io(|| self.backend().write(pid.index(), data))
        }
    }

    /// Writes an evicted dirty frame's bytes back to the backend — unless
    /// the page was freed (then the bytes are garbage), or freed *and
    /// reallocated* (then writing would corrupt the new incarnation). Both
    /// are detected under `old`'s slot latch: `free` clears the pool's
    /// `flushing` marker before the page can reach the free list, and both
    /// `free` and `alloc` need this latch, so `allocated && still_flushing`
    /// cannot go stale while it is held. Called by the claimant before it
    /// loads the frame, and by a sweep that meets the frame first; returns
    /// whether it wrote.
    pub(super) fn write_back_victim(&self, old: PageId, idx: usize, bytes: &[u8]) -> Result<bool> {
        let slot = self.slot(old)?;
        let allocated = slot.latch();
        if !(*allocated && self.pool.still_flushing(old, idx)) {
            return Ok(false);
        }
        self.backend_write_page(old, bytes)?;
        StoreStats::bump(&self.stats.dirty_writebacks);
        Ok(true)
    }
}
