//! Page-write logging (`wal.*` in the ledger): the one place a committed
//! page write picks its WAL record. A write logs a delta — the changed
//! byte ranges, with a move where a range is the prior image shifted —
//! against the image it started from, or a base when it has none, when
//! the page has no base in the current checkpoint epoch, or when the
//! delta would outgrow half a page.

use super::{table::Slot, PageStore};
use crate::error::Result;
use crate::journal::PageEdit;
use crate::page::{page_lsn, set_page_lsn, PageId, PAGE_LSN_OFFSET, PAGE_RESERVED_END};
use crate::stats::StoreStats;
use std::sync::atomic::Ordering;

/// Bridging distance for delta ranges: two changed spans closer than this
/// merge into one range. A bridged gap logs its (unchanged) bytes once,
/// but saves a 4-byte range header and keeps replay sequential — a heap
/// write (record bytes + a slot-directory entry + header words) typically
/// collapses to 2–3 ranges.
const MERGE_GAP: usize = 16;

/// The store-reserved page field: the page LSN and the CRC.
pub(super) const RESERVED: std::ops::Range<usize> = PAGE_LSN_OFFSET..PAGE_RESERVED_END;

/// The byte ranges (`off`, `len`) where `new` differs from `old`, found by
/// comparing 8-byte words: ascending, disjoint, empty when the images are
/// equal, and never inside the store-reserved field [`RESERVED`] — bytes
/// 8..12 form a 4-byte word of their own. Changed words at most
/// [`MERGE_GAP`] bytes apart on the same side of that field share one
/// range, and each range starts and ends on a changed byte. Copying each
/// range of `new` over `old` reproduces `new` outside the field. This is
/// how a commit finds what it changed.
pub(super) fn diff_ranges(old: &[u8], new: &[u8]) -> Vec<(usize, usize)> {
    // Equal blocks are skipped with one slice compare each: most of a
    // node's page is the unused tail past its last pair.
    const BLOCK: usize = 256;
    debug_assert_eq!(old.len(), new.len());
    let len = new.len();
    let mut out: Vec<(usize, usize)> = Vec::new();
    let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("an 8-byte chunk"));
    for (lo, hi) in [(0, RESERVED.start.min(len)), (RESERVED.end.min(len), len)] {
        // Bridges only to a range of this side of the reserved field.
        let mut note = |off: usize, w: usize| match out.last_mut() {
            Some((o, l)) if *o >= lo && off <= *o + *l + MERGE_GAP => *l = off + w - *o,
            _ => out.push((off, w)),
        };
        let mut off = lo;
        while off < hi {
            let end = (off + BLOCK).min(hi);
            let (a, b) = (&old[off..end], &new[off..end]);
            if a != b {
                for (k, (x, y)) in a.chunks(8).zip(b.chunks(8)).enumerate() {
                    let differs = if x.len() == 8 {
                        word(x) != word(y)
                    } else {
                        x != y
                    };
                    if differs {
                        note(off + 8 * k, x.len());
                    }
                }
            }
            off = end;
        }
    }
    // Trim each range's end words to the bytes that changed.
    let same = |&(a, b): &(&u8, &u8)| a == b;
    for (off, len) in &mut out {
        let (a, b) = (&old[*off..*off + *len], &new[*off..*off + *len]);
        let lead = a.iter().zip(b).take_while(same).count();
        let trail = a.iter().rev().zip(b.iter().rev()).take_while(same).count();
        *off += lead;
        *len -= lead + trail;
    }
    out
}

/// Shortest diff range tested for a shift: below it a move saves too
/// little to pay for the search.
const MIN_SHIFT_RANGE: usize = 64;

/// Largest shift, in bytes, a move is looked for at, in either direction
/// (a node's pair is 16 bytes).
const MAX_SHIFT: usize = 32;

/// Fewest bytes a move must cover to replace that many logged bytes.
const MIN_MOVE: usize = 32;

/// Length of the common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let words = a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .take_while(|(x, y)| x == y)
        .count();
    let at = 8 * words;
    at + a[at..]
        .iter()
        .zip(&b[at..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Length of the common suffix of `a` and `b`.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[a.len() - n..], &b[b.len() - n..]);
    let words = a
        .rchunks_exact(8)
        .zip(b.rchunks_exact(8))
        .take_while(|(x, y)| x == y)
        .count();
    let rest = n - 8 * words;
    8 * words
        + a[..rest]
            .iter()
            .rev()
            .zip(b[..rest].iter().rev())
            .take_while(|(x, y)| x == y)
            .count()
}

/// How one diff range is logged when the prior image, shifted, explains
/// most of it: a move of `len` bytes from `src` to `dst`, and the range's
/// other bytes as they are.
#[derive(Clone, Copy)]
struct Shift {
    dst: usize,
    src: usize,
    len: usize,
}

/// The longest run of diff range `off..end` that equals the prior image
/// shifted by 1..=[`MAX_SHIFT`] bytes, in either direction, if it covers
/// at least [`MIN_MOVE`] bytes. Only a range of at least
/// [`MIN_SHIFT_RANGE`] bytes past the reserved field is tested.
///
/// Replay applies a record's edits in order, so a move must read bytes
/// that still hold the prior image when it runs: a run shifted up (an
/// insert) is anchored at the range's end and reads from `floor` on — the
/// end of the previous range, whose bytes replay has already rewritten —
/// and a run shifted down (a remove) is anchored at the range's start and
/// reads the bytes above it, which no earlier edit touched. Neither reads
/// or writes the reserved field.
fn find_shift(old: &[u8], new: &[u8], off: usize, end: usize, floor: usize) -> Option<Shift> {
    if off < RESERVED.end || end - off < MIN_SHIFT_RANGE {
        return None;
    }
    debug_assert!(floor >= RESERVED.end && floor <= off);
    let mut best: Option<Shift> = None;
    let mut note = |cand: Shift| {
        if cand.len >= MIN_MOVE && best.is_none_or(|b| cand.len > b.len) {
            best = Some(cand);
        }
    };
    for s in 1..=MAX_SHIFT {
        // Shifted up: new[x] == old[x - s], reading at or above `floor`.
        let lo = off.max(floor + s);
        if end >= lo + MIN_MOVE && new[end - 8..end] == old[end - 8 - s..end - s] {
            let len = common_suffix(&new[lo..end], &old[lo - s..end - s]);
            note(Shift {
                dst: end - len,
                src: end - len - s,
                len,
            });
        }
        // Shifted down: new[x] == old[x + s], reading inside the page.
        let hi = end.min(new.len() - s);
        if hi >= off + MIN_MOVE && new[off..off + 8] == old[off + s..off + s + 8] {
            let len = common_prefix(&new[off..hi], &old[off + s..hi + s]);
            note(Shift {
                dst: off,
                src: off + s,
                len,
            });
        }
    }
    best
}

/// The edits that turn `old` into `new` outside the reserved field: each
/// [`diff_ranges`] range logged as its bytes, or, where [`find_shift`]
/// finds one, as a move followed by the range's remaining bytes. Applied
/// in order to `old`, they reproduce `new` outside the field.
pub(super) fn page_edits<'a>(old: &[u8], new: &'a [u8]) -> Vec<PageEdit<&'a [u8]>> {
    let mut edits = Vec::new();
    let mut floor = RESERVED.end;
    for (off, len) in diff_ranges(old, new) {
        let end = off + len;
        match find_shift(old, new, off, end, floor) {
            Some(m) => {
                edits.push(PageEdit::Move {
                    dst: m.dst as u16,
                    src: m.src as u16,
                    len: m.len as u16,
                });
                // The move is `off..end`'s first or last run; the bytes
                // it leaves follow it.
                let rest = if m.dst == off {
                    m.dst + m.len..end
                } else {
                    off..m.dst
                };
                if !rest.is_empty() {
                    edits.push(PageEdit::Bytes(rest.start as u16, &new[rest]));
                }
            }
            None => edits.push(PageEdit::Bytes(off as u16, &new[off..end])),
        }
        floor = floor.max(end);
    }
    edits
}

impl PageStore {
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
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Marks `slot` as holding a full-image base record — but only when no
    /// checkpoint-epoch advance spanned the append (`epoch_before` is the
    /// value loaded before the record was logged). An advance mid-append
    /// means the record's LSN may fall below a concurrent checkpoint's WAL
    /// cut while the tag claims the new epoch; tagging 0 (never-fresh)
    /// instead just costs one extra full image on the page's next write.
    /// Call after a successful full-image or alloc append, under the
    /// slot's `allocated` latch.
    pub(super) fn note_base(&self, slot: &Slot, epoch_before: u64) {
        let now = self.epoch.load(Ordering::Acquire);
        let tag = if now == epoch_before { now } else { 0 };
        slot.base_epoch.store(tag, Ordering::Relaxed);
    }

    /// Journals one committed page write and stamps the record's LSN into
    /// `new` — the one place a page write picks its WAL record. Caller
    /// holds the frame's write latch (or owns the bypass copy) and the
    /// slot's `allocated` latch; `prior` is the image the write started
    /// from, `None` when there is none.
    ///
    /// The reserved field ([`PAGE_LSN_OFFSET`]`..`[`PAGE_RESERVED_END`]) is
    /// the store's: it is restored from `prior`, or zeroed, before anything
    /// is logged. The write then logs the edits that turn `prior` into
    /// `new` ([`page_edits`]: changed byte ranges, and moves where a range
    /// is `prior` shifted) as a **delta record** when every gate passes:
    ///
    /// * there is a prior image to compare with;
    /// * the page has a base record in the current checkpoint epoch
    ///   (first touch after a checkpoint or open logs a full image, which
    ///   bounds recovery and repairs torn page-file writes);
    /// * the encoded edits stay under half a page (beyond that the full
    ///   image is cheaper to replay and barely bigger to log).
    ///
    /// Otherwise it logs a base. Without a journal it does nothing.
    pub(super) fn log_page_write(
        &self,
        pid: PageId,
        slot: &Slot,
        prior: Option<&[u8]>,
        new: &mut [u8],
    ) -> Result<()> {
        let Some(j) = &self.journal else {
            return Ok(());
        };
        match prior {
            Some(prior) => new[RESERVED].copy_from_slice(&prior[RESERVED]),
            None => new[RESERVED].fill(0),
        }
        let epoch_now = self.epoch.load(Ordering::Acquire);
        let new_ro: &[u8] = new;
        let delta = prior.and_then(|prior| {
            if slot.base_epoch.load(Ordering::Relaxed) != epoch_now {
                StoreStats::bump(&self.stats.wal_delta_fallback_first_touch);
                return None;
            }
            let edits = page_edits(prior, new_ro);
            let encoded: usize = 15 + edits.iter().map(PageEdit::encoded_len).sum::<usize>();
            if encoded > self.cfg.page_size / 2 {
                StoreStats::bump(&self.stats.wal_delta_fallback_large);
                return None;
            }
            Some(edits)
        });
        let lsn = if let Some(edits) = delta {
            let lsn = j.log_put_edits(pid, page_lsn(new_ro), &edits)?;
            StoreStats::bump(&self.stats.wal_put_deltas);
            let moves = edits
                .iter()
                .filter(|e| matches!(e, PageEdit::Move { .. }))
                .count();
            StoreStats::add(&self.stats.wal_put_moves, moves as u64);
            lsn
        } else {
            let lsn = j.log_put_base(pid, new_ro)?;
            StoreStats::bump(&self.stats.wal_put_full_images);
            self.note_base(slot, epoch_now);
            lsn
        };
        StoreStats::bump(&self.stats.wal_records);
        set_page_lsn(new, lsn);
        Ok(())
    }
}
