//! The write-ahead log: append-only segments, per-record checksums,
//! group commit.
//!
//! ## On-disk format
//!
//! A log is a directory of segment files `wal-{seq:08}.seg`. Each segment
//! starts with a 16-byte header (`"BWAL"`, format version, segment
//! sequence number) followed by records:
//!
//! ```text
//! len u32   payload length in bytes
//! crc u32   CRC32 of the payload
//! lsn u64   log sequence number (strictly +1 per record, across segments)
//! payload:  op u8, pid u32, op-specific body
//! ```
//!
//! Ops — v1 (format version 1 segments hold only these):
//!
//! * `1` alloc — empty body; replay zeroes the page.
//! * `2` free — empty body.
//! * `3` put — full page image; replay writes it verbatim. Only older
//!   stores wrote it: every page write now logs a `4` or a `5`.
//!
//! Ops — v2 (PR 5, the delta family; segments are written as format
//! version 2 but readers accept both, so a log can mix versions across a
//! rotation):
//!
//! * `4` put-base — full image of a page that reserves the per-page LSN
//!   field (`blink_pagestore::PAGE_LSN_OFFSET`); replay writes the image
//!   and stamps the record's own LSN into the field.
//! * `5` put-delta — `page_lsn u64` (the page's LSN before this write,
//!   diagnostic), `n u16`, then `n` ranges of `off u16, len u16, bytes`.
//!   Replay applies the ranges **iff the record's LSN is newer than the
//!   on-disk page's LSN field**, then stamps the record's LSN — which
//!   makes replay idempotent no matter how much of the buffer pool's
//!   write-back reached the page file before the crash. Only older stores
//!   wrote it: every delta now logs a `6`.
//!
//! Ops — v3 (segments are written as format version 3; readers accept
//! 1..=3, and refuse a segment of a newer version with a typed error
//! rather than truncate the log there):
//!
//! * `6` put-edits — `page_lsn u64`, `n u16`, then `n` tagged edits,
//!   applied in order under the same LSN gate as a `5`: tag `0` is
//!   `off u16, len u16, bytes` (write the bytes), tag `1` is
//!   `dst u16, src u16, len u16` (a move: `copy_within(src..src + len,
//!   dst)`, how an insert or a remove that shifts a node's pairs logs the
//!   shifted run). An edit that reaches past the page end fails replay as
//!   corrupt.
//!
//! A reader accepts the longest prefix of records with valid checksums and
//! contiguous LSNs and treats everything after the first invalid byte as a
//! torn tail (the normal result of a crash mid-append).
//!
//! ## Commit
//!
//! An append writes through: under the append mutex it takes the next
//! LSN and `write(2)`s the encoded record into the segment file, so every
//! accepted record is in the file (the page cache, not yet fsynced) when
//! `log_*` returns and the log is dense by construction. A page write
//! that follows its record can therefore never overtake it — write-ahead
//! order needs no barrier. No fsync runs under the append mutex. A
//! commit then makes the record *durable* according to the
//! [`FsyncPolicy`]:
//!
//! * [`Always`](FsyncPolicy::Always) — return only after an fsync that
//!   covers the commit's LSN. Every such commit enters one monitor (one
//!   mutex, one condvar): if no fsync is running it leads, fsyncing a
//!   cloned fd with no lock held; otherwise it waits for the running
//!   fsync to end and looks again. Exactly one fsync is in flight, and
//!   nobody waits on a timer — the running fsync *is* the batching
//!   window. Mean batch size is
//!   `StoreStats::wal_group_commit_records ÷ wal_group_commits`. A failed
//!   fsync is sticky: every later commit not already durable fails.
//! * [`Never`](FsyncPolicy::Never) — nothing more: the record is already
//!   in the file and the fsync is left to the OS (fastest, no durability
//!   promise on power loss; still crash-consistent thanks to record
//!   checksums).
//!
//! [`Journal::sync`] is a monitor commit at the last appended LSN under
//! either policy, so a log loaded at `Never` is made durable by one sync.

use crate::fault::{FaultInjector, FaultOutcome, FaultSite};
use blink_pagestore::audit::{self, Audited, LockClass};
use blink_pagestore::crc::Crc32;
use blink_pagestore::{Journal, PageEdit, PageId, Result, StoreError, StoreHealth, StoreStats};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

pub(crate) const SEG_MAGIC: u32 = 0x4257_414C; // "BWAL"
/// Format version stamped into new segment headers (v2 = delta records,
/// v3 = edit records with moves).
pub(crate) const SEG_VERSION: u32 = 3;
/// Oldest format version the scanner still accepts (v1 = full images
/// only); mixed-version logs arise from upgrades mid-log.
pub(crate) const SEG_MIN_VERSION: u32 = 1;
pub(crate) const SEG_HEADER: u64 = 16;
const REC_HEADER: usize = 16;

const OP_ALLOC: u8 = 1;
const OP_FREE: u8 = 2;
const OP_PUT: u8 = 3;
const OP_PUT_BASE: u8 = 4;
const OP_PUT_DELTA: u8 = 5;
const OP_PUT_EDIT: u8 = 6;

/// Edit tags inside an `OP_PUT_EDIT` record.
const EDIT_BYTES: u8 = 0;
const EDIT_MOVE: u8 = 1;

/// When does a commit reach stable storage?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// A commit returns only after an fsync that covers its LSN
    /// (concurrent commits share one group-commit fsync).
    Always,
    /// Never fsync on commit; the OS writes back when it pleases.
    Never,
}

/// One logical mutation, as read back from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    Alloc(PageId),
    Free(PageId),
    /// v1 full image, replayed verbatim. No store writes it any more;
    /// replay still reads it so that older logs open.
    Put(PageId, Vec<u8>),
    /// v2 full image of an LSN-stamped page: replay writes the image and
    /// stamps the record's LSN into the page's reserved field.
    PutBase(PageId, Vec<u8>),
    /// A delta, v2 ranges or v3 edits: `(page, page_lsn_before, edits)`.
    /// Replay applies the edits in order iff the record's LSN is newer
    /// than the on-disk page's.
    PutDelta(PageId, u64, Vec<PageEdit<Vec<u8>>>),
}

pub(crate) fn io_err(context: &str, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{context}: {e}"))
}

pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.seg"))
}

fn segment_header(seq: u64) -> [u8; SEG_HEADER as usize] {
    let mut h = [0u8; SEG_HEADER as usize];
    h[0..4].copy_from_slice(&SEG_MAGIC.to_le_bytes());
    h[4..8].copy_from_slice(&SEG_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&seq.to_le_bytes());
    h
}

/// The record header's LSN bytes (the CRC covers the payload only).
const LSN_FIELD: std::ops::Range<usize> = 8..16;

/// Encodes one record with its LSN field zeroed: the appender fills in
/// [`LSN_FIELD`] once it holds the append mutex.
fn encode_record(op: u8, pid: PageId, data: &[u8]) -> Vec<u8> {
    let payload_len = 5 + data.len();
    let mut buf = Vec::with_capacity(REC_HEADER + payload_len);
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&[op]);
    crc.update(&pid.to_raw().to_le_bytes());
    crc.update(data);
    buf.extend_from_slice(&crc.finish().to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes());
    buf.push(op);
    buf.extend_from_slice(&pid.to_raw().to_le_bytes());
    buf.extend_from_slice(data);
    buf
}

/// The append side of the log, guarded by the append mutex: the segment
/// being written, its length, and the LSN the next record takes. Every
/// record below `next_lsn` is in a segment file.
#[derive(Debug)]
struct WalInner {
    file: File,
    seg_seq: u64,
    seg_len: u64,
    next_lsn: u64,
}

thread_local! {
    /// Active deferred-commit scope: `Some(max appended LSN so far)` while
    /// a [`Wal::deferred_scope`] is running on this thread (0 = nothing
    /// appended yet), `None` otherwise. Lets one logical operation that
    /// logs several records (heap write + index repoint) pay for one
    /// commit instead of one per record.
    static DEFERRED: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The group-commit monitor (see [`Wal::commit_pipelined`]), guarded by
/// one mutex and signalled through one condvar.
#[derive(Debug)]
struct CommitCtl {
    /// Highest LSN known durable — the log's one durable horizon, and the
    /// ledger `wal_group_commits`/`wal_group_commit_records` count against.
    durable_lsn: u64,
    /// A leader's fsync is running (with the mutex released).
    leader_running: bool,
    /// Committers parked on the condvar until the running fsync ends.
    waiters: u64,
    /// The first failed fsync's error, returned by every later commit not
    /// already durable. Nothing re-drives a failed fsync: it may have
    /// dropped the pages it was writing, so no retry could honestly
    /// cover them.
    failed: Option<StoreError>,
}

/// The appender half of the log (see module docs).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    policy: FsyncPolicy,
    segment_bytes: u64,
    fault: Arc<FaultInjector>,
    stats: Arc<StoreStats>,
    inner: Mutex<WalInner>,
    /// Group commit: every fsync-backed commit and every sync.
    ctl: Mutex<CommitCtl>,
    /// Signalled when a leader's fsync ends.
    commit_cv: Condvar,
    /// The store's health latch, bound by the durable store after the
    /// page store is constructed (they share one instance). A failed WAL
    /// fsync or segment write poisons it — sticky: every later append or
    /// commit fails with [`StoreError::Poisoned`] until a clean reopen
    /// re-establishes the durable prefix. Unbound (a standalone `Wal`),
    /// nothing poisons, but the commit monitor still latches a failed
    /// fsync: every later commit not already durable fails.
    health: OnceLock<Arc<StoreHealth>>,
}

impl Wal {
    /// Acquires the append mutex, timing only the contended path into the
    /// append-wait histogram. It is held for one record's `write(2)`; no
    /// commit fsync runs under it (the commit leader syncs a cloned fd),
    /// only a rotation's outgoing-segment sync does. The only place
    /// `Wal::inner` is locked: every acquisition registers with the latch
    /// auditor as `WalAppend`, a leaf (nothing but the health latch is
    /// taken under it).
    fn lock_inner(&self) -> Audited<MutexGuard<'_, WalInner>> {
        audit::audited(
            LockClass::WalAppend,
            &self.inner as *const Mutex<WalInner> as usize,
            || {
                if let Some(g) = self.inner.try_lock() {
                    return g;
                }
                let t0 = Instant::now();
                let g = self.inner.lock();
                self.stats
                    .wal_append_wait_hist
                    .record(t0.elapsed().as_nanos() as u64);
                g
            },
        )
    }

    /// The only place the commit monitor's mutex is locked: registers as
    /// `WalBatch`, a leaf (the leader drops it before it fsyncs).
    fn lock_ctl(&self) -> Audited<MutexGuard<'_, CommitCtl>> {
        audit::audited(
            LockClass::WalBatch,
            &self.ctl as *const Mutex<CommitCtl> as usize,
            || self.ctl.lock(),
        )
    }

    /// Opens the log for appending: continues segment `seg_seq` at
    /// `seg_len` bytes (creating it if absent) with the next record taking
    /// `next_lsn`. Recovery computes these from a [`scan`]. The commit
    /// monitor's durable horizon is seeded from `next_lsn`.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        segment_bytes: u64,
        seg_seq: u64,
        next_lsn: u64,
        fault: Arc<FaultInjector>,
        stats: Arc<StoreStats>,
    ) -> Result<Wal> {
        let path = segment_path(dir, seg_seq);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open wal segment", e))?;
        let len = file
            .metadata()
            .map_err(|e| io_err("stat wal segment", e))?
            .len();
        // A segment shorter than its header is fresh — or one whose
        // header write was lost to a crash (recovery trims such segments
        // to 0 bytes). Either way (re)write the header; appending records
        // after a missing header would make the next recovery discard the
        // whole segment, losing acknowledged commits.
        let seg_len = if len < SEG_HEADER {
            file.set_len(0)
                .map_err(|e| io_err("reset headerless segment", e))?;
            file.write_all(&segment_header(seg_seq))
                .map_err(|e| io_err("write segment header", e))?;
            file.sync_data()
                .map_err(|e| io_err("sync segment header", e))?;
            sync_dir(dir)?;
            SEG_HEADER
        } else {
            use std::io::Seek;
            file.seek(std::io::SeekFrom::End(0))
                .map_err(|e| io_err("seek wal segment", e))?;
            len
        };
        Ok(Wal {
            dir: dir.to_path_buf(),
            policy,
            segment_bytes: segment_bytes.max(SEG_HEADER + 64),
            fault,
            stats,
            inner: Mutex::new(WalInner {
                file,
                seg_seq,
                seg_len,
                next_lsn,
            }),
            ctl: Mutex::new(CommitCtl {
                durable_lsn: next_lsn.saturating_sub(1),
                leader_running: false,
                waiters: 0,
                failed: None,
            }),
            commit_cv: Condvar::new(),
            health: OnceLock::new(),
        })
    }

    /// Binds the store's health latch so WAL fsync and segment-write
    /// failures poison the whole store, not just the one commit.
    /// Idempotent; the first binding wins.
    pub fn bind_health(&self, health: Arc<StoreHealth>) {
        let _ = self.health.set(health);
    }

    /// Fails with [`StoreError::Poisoned`] once a WAL fsync or segment
    /// write has failed (no-op when no health latch is bound).
    fn check_poisoned(&self) -> Result<()> {
        match self.health.get() {
            Some(h) => h.check_poisoned(),
            None => Ok(()),
        }
    }

    /// Latches `cause` as the store's poison (sticky — an fsync that
    /// failed may or may not have persisted anything, so no later fsync
    /// can be trusted to repair it; a segment write that failed may have
    /// left a torn record nothing may be appended after) and returns the
    /// error to surface:
    /// `Poisoned` with the cause latched for attribution, or the bare
    /// cause when no health latch is bound.
    fn poison(&self, cause: StoreError) -> StoreError {
        match self.health.get() {
            Some(h) => h.poison(cause),
            None => cause,
        }
    }

    /// The fsync policy this log commits under.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// LSN of the most recently appended record (0 = none yet).
    pub fn appended_lsn(&self) -> u64 {
        self.lock_inner().next_lsn - 1
    }

    /// Appends one record and returns its LSN, all under the append
    /// mutex: pass the poison check and the fault gate, take the next LSN,
    /// rotate if the record would overflow the segment, and write the
    /// record through. It is in the segment file when this returns, but
    /// not yet durable: pair with [`Wal::commit`]. The fault gate runs
    /// *before* the LSN is taken so a rejected record consumes no LSN —
    /// crash-point matrices still observe exact record-boundary prefixes.
    fn append_record(&self, op: u8, pid: PageId, data: &[u8]) -> Result<u64> {
        // Encode (copy + CRC) before taking the mutex; only the LSN field
        // waits for it.
        let mut buf = encode_record(op, pid, data);
        let len = buf.len() as u64;
        let mut inner = self.lock_inner();
        // A poisoned store accepts no new records: the durable prefix
        // ends at the failed fsync or torn append, and anything appended
        // after it could never be honestly acknowledged. Checked under
        // the mutex, so no append can slip in behind a failing one.
        self.check_poisoned()?;
        self.fault.on_wal_record()?;
        let torn = match self.fault.plan_outcome(FaultSite::WalAppend) {
            FaultOutcome::Proceed => None,
            FaultOutcome::Fail(e) => return Err(e),
            FaultOutcome::Torn(k) => Some(k),
            FaultOutcome::FlipBit(_) => unreachable!("bit flips never target writes"),
        };
        let lsn = inner.next_lsn;
        buf[LSN_FIELD].copy_from_slice(&lsn.to_le_bytes());
        if inner.seg_len + len > self.segment_bytes && inner.seg_len > SEG_HEADER {
            self.rotate(&mut inner)?;
        }
        if let Some(k) = torn {
            // Persist a prefix, then fail, like a crash mid-`write(2)`.
            let _ = inner.file.write_all(&buf[..k.min(buf.len())]);
            return Err(self.poison(StoreError::Io("injected torn wal append".to_string())));
        }
        // A failed write may leave a torn record in the file: poison, so
        // nothing is ever appended after it.
        inner
            .file
            .write_all(&buf)
            .map_err(|e| self.poison(io_err("append wal record", e)))?;
        inner.seg_len += len;
        inner.next_lsn = lsn + 1;
        StoreStats::add(&self.stats.wal_bytes, len);
        Ok(lsn)
    }

    /// Runs `f` with per-record commits deferred: the records `f` logs on
    /// this thread are committed **once**, after `f` returns — even when
    /// `f` fails, so every record acknowledged `Ok` is covered by a
    /// commit. Returns `f`'s output plus the outcome of that final commit.
    /// If `f` unwinds, the scope is closed without committing (the caller
    /// never got an `Ok` to rely on) and later commits on this thread run
    /// normally.
    pub fn deferred_scope<T>(&self, f: impl FnOnce() -> T) -> (T, Result<()>) {
        /// Restores the enclosing scope on drop — also on unwind:
        /// `DEFERRED` is per-thread, not per-`Wal`, so a scope leaked by a
        /// panic would absorb every later commit on the thread.
        struct Restore(Option<u64>);
        impl Drop for Restore {
            fn drop(&mut self) {
                DEFERRED.with(|d| d.set(self.0));
            }
        }
        let restore = Restore(DEFERRED.with(|d| d.replace(Some(0))));
        let out = f();
        let last = DEFERRED.with(|d| d.get()).unwrap_or(0);
        drop(restore);
        let fin = if last != 0 { self.commit(last) } else { Ok(()) };
        (out, fin)
    }

    /// Commit, unless a deferred scope on this thread absorbs it.
    fn finish(&self, lsn: u64) -> Result<()> {
        let deferred = DEFERRED.with(|d| match d.get() {
            Some(max) => {
                d.set(Some(max.max(lsn)));
                true
            }
            None => false,
        });
        if deferred {
            return Ok(());
        }
        self.commit(lsn)
    }

    /// Closes the current segment (fsyncing it) and starts the next one.
    fn rotate(&self, inner: &mut WalInner) -> Result<()> {
        self.fault.check()?;
        if let Err(e) = self.fault.plan_outcome(FaultSite::WalFsync).pass_or_fail() {
            return Err(self.poison(e));
        }
        let t0 = Instant::now();
        inner
            .file
            .sync_data()
            .map_err(|e| self.poison(io_err("sync before rotate", e)))?;
        self.stats.fsync_hist.record(t0.elapsed().as_nanos() as u64);
        let seq = inner.seg_seq + 1;
        let path = segment_path(&self.dir, seq);
        // Truncate whatever a failed rotation (or an older run) left at
        // `seq`: every accepted record is below `next_lsn`, in this
        // segment or an older one, so no later segment holds one.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create wal segment", e))?;
        file.write_all(&segment_header(seq))
            .map_err(|e| io_err("write segment header", e))?;
        sync_dir(&self.dir)?;
        inner.file = file;
        inner.seg_seq = seq;
        inner.seg_len = SEG_HEADER;
        Ok(())
    }

    /// Rotates to a fresh segment and returns its sequence number. Used by
    /// checkpointing: records before the returned segment can be discarded
    /// once the checkpoint metadata is durable.
    pub fn rotate_for_checkpoint(&self) -> Result<(u64, u64)> {
        let mut inner = self.lock_inner();
        self.rotate(&mut inner)?;
        Ok((inner.seg_seq, inner.next_lsn))
    }

    /// Makes `lsn` durable per the policy. At `Never` the record is
    /// already in the file, which is all that policy promises.
    fn commit(&self, lsn: u64) -> Result<()> {
        match self.policy {
            FsyncPolicy::Never => Ok(()),
            FsyncPolicy::Always => self.commit_pipelined(lsn),
        }
    }

    /// The one fsync-backed commit (every `Always` commit and every
    /// [`Journal::sync`]), one loop under the monitor: return once `lsn` is
    /// durable or an fsync has failed; while a leader's fsync runs, wait
    /// for it; otherwise lead one. Nobody waits on a timer: the commits
    /// that arrive during a running fsync share the next one. A committer
    /// returns `Ok` only once an fsync covering its LSN has succeeded.
    fn commit_pipelined(&self, lsn: u64) -> Result<()> {
        let t0 = Instant::now();
        let mut ctl = self.lock_ctl();
        if ctl.durable_lsn >= lsn {
            return Ok(());
        }
        let mut waited = false;
        let outcome = loop {
            if ctl.durable_lsn >= lsn {
                break Ok(());
            }
            if let Some(e) = &ctl.failed {
                break Err(e.clone());
            }
            if ctl.leader_running {
                ctl.waiters += 1;
                self.commit_cv.wait(ctl.guard_mut());
                ctl.waiters -= 1;
                waited = true;
                continue;
            }
            ctl.leader_running = true;
            if waited {
                // This commit's record arrived while an fsync ran.
                StoreStats::bump(&self.stats.wal_pipeline_depth);
            }
            drop(ctl);
            let synced = self.fsync_appended();
            ctl = self.lock_ctl();
            ctl.leader_running = false;
            match synced {
                Ok(end) if end > ctl.durable_lsn => {
                    StoreStats::bump(&self.stats.wal_group_commits);
                    StoreStats::add(&self.stats.wal_group_commit_records, end - ctl.durable_lsn);
                    ctl.durable_lsn = end;
                }
                Ok(_) => {}
                // Nobody leads once `failed` is set, so this is the first.
                Err(e) => ctl.failed = Some(e),
            }
            self.commit_cv.notify_all();
        };
        drop(ctl);
        self.stats
            .wal_commit_wait_hist
            .record(t0.elapsed().as_nanos() as u64);
        outcome
    }

    /// The leader's fsync: syncs a clone of the segment fd with no lock
    /// held and returns the LSN it covers. Every record below `next_lsn`
    /// is in the file, and rotation fsyncs the outgoing segment before
    /// switching, so syncing the current file covers every record up to
    /// the returned LSN regardless of segment boundaries.
    fn fsync_appended(&self) -> Result<u64> {
        let (file, end) = {
            let inner = self.lock_inner();
            let file = inner
                .file
                .try_clone()
                .map_err(|e| io_err("clone wal segment fd", e))?;
            (file, inner.next_lsn - 1)
        };
        // Once an fsync has failed, no later fsync is trusted to cover
        // the gap (the dirty pages may be gone).
        self.check_poisoned()?;
        self.fault.check()?;
        if let Err(e) = self.fault.plan_outcome(FaultSite::WalFsync).pass_or_fail() {
            return Err(self.poison(e));
        }
        let t0 = Instant::now();
        self.fault.fsync_delay();
        file.sync_data()
            .map_err(|e| self.poison(io_err("wal fsync", e)))?;
        self.stats.fsync_hist.record(t0.elapsed().as_nanos() as u64);
        Ok(end)
    }
}

impl Journal for Wal {
    fn log_alloc(&self, pid: PageId) -> Result<()> {
        let lsn = self.append_record(OP_ALLOC, pid, &[])?;
        self.finish(lsn)
    }

    fn log_free(&self, pid: PageId) -> Result<()> {
        let lsn = self.append_record(OP_FREE, pid, &[])?;
        self.finish(lsn)
    }

    fn log_put_base(&self, pid: PageId, data: &[u8]) -> Result<u64> {
        let lsn = self.append_record(OP_PUT_BASE, pid, data)?;
        self.finish(lsn)?;
        Ok(lsn)
    }

    fn log_put_edits(&self, pid: PageId, page_lsn: u64, edits: &[PageEdit<&[u8]>]) -> Result<u64> {
        let mut body =
            Vec::with_capacity(10 + edits.iter().map(PageEdit::encoded_len).sum::<usize>());
        body.extend_from_slice(&page_lsn.to_le_bytes());
        body.extend_from_slice(&(edits.len() as u16).to_le_bytes());
        for edit in edits {
            match *edit {
                PageEdit::Bytes(off, bytes) => {
                    body.push(EDIT_BYTES);
                    body.extend_from_slice(&off.to_le_bytes());
                    body.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                    body.extend_from_slice(bytes);
                }
                PageEdit::Move { dst, src, len } => {
                    body.push(EDIT_MOVE);
                    for field in [dst, src, len] {
                        body.extend_from_slice(&field.to_le_bytes());
                    }
                }
            }
        }
        let lsn = self.append_record(OP_PUT_EDIT, pid, &body)?;
        self.finish(lsn)?;
        Ok(lsn)
    }

    /// A monitor commit at the last appended LSN under either policy: a
    /// log loaded at `Never` still becomes durable here.
    fn sync(&self) -> Result<()> {
        self.commit_pipelined(self.appended_lsn())
    }
}

/// Reads a little-endian `u16` at `at`, if the body holds one.
fn u16_at(body: &[u8], at: usize) -> Option<u16> {
    Some(u16::from_le_bytes(body.get(at..at + 2)?.try_into().ok()?))
}

/// Decodes a delta body — `page_lsn u64, n u16`, then `n` entries, each
/// read by `entry` from its offset (returning the edit and the offset
/// after it). `None` marks the record malformed (the CRC survived but the
/// structure is impossible — treat as a torn tail).
fn decode_delta(
    pid: PageId,
    body: &[u8],
    entry: impl Fn(&[u8], usize) -> Option<(PageEdit<Vec<u8>>, usize)>,
) -> Option<WalOp> {
    let page_lsn = u64::from_le_bytes(body.get(0..8)?.try_into().ok()?);
    let n = u16_at(body, 8)? as usize;
    let mut edits = Vec::with_capacity(n.min(body.len()));
    let mut off = 10usize;
    for _ in 0..n {
        let (edit, next) = entry(body, off)?;
        edits.push(edit);
        off = next;
    }
    (off == body.len()).then_some(WalOp::PutDelta(pid, page_lsn, edits))
}

/// A byte range at `at`: `off u16, len u16, bytes`.
fn decode_bytes(body: &[u8], at: usize) -> Option<(PageEdit<Vec<u8>>, usize)> {
    let off = u16_at(body, at)?;
    let len = u16_at(body, at + 2)? as usize;
    let bytes = body.get(at + 4..at + 4 + len)?;
    Some((PageEdit::Bytes(off, bytes.to_vec()), at + 4 + len))
}

/// A tagged v3 edit at `at`: a byte range or a move.
fn decode_edit(body: &[u8], at: usize) -> Option<(PageEdit<Vec<u8>>, usize)> {
    match *body.get(at)? {
        EDIT_BYTES => decode_bytes(body, at + 1),
        EDIT_MOVE => {
            let edit = PageEdit::Move {
                dst: u16_at(body, at + 1)?,
                src: u16_at(body, at + 3)?,
                len: u16_at(body, at + 5)?,
            };
            Some((edit, at + 7))
        }
        _ => None,
    }
}

fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("sync wal directory", e))
}

// ----------------------------------------------------------------------
// Reading
// ----------------------------------------------------------------------

/// Result of scanning the log from a start segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Records accepted (valid checksum, contiguous LSN).
    pub replayed: u64,
    /// LSN the next appended record must take.
    pub next_lsn: u64,
    /// Segment the appender should continue in.
    pub last_seg_seq: u64,
    /// Byte length of the valid prefix of that segment.
    pub last_seg_valid_len: u64,
    /// True when invalid bytes (a torn tail) were skipped.
    pub torn: bool,
}

/// Segment sequence numbers present in `dir`, ascending.
pub fn list_segments(dir: &Path) -> Result<Vec<u64>> {
    let mut seqs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("read wal dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read wal dir entry", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

/// True when `path` starts with a whole header for segment `seq` whose
/// format version is newer than [`SEG_VERSION`].
fn newer_format(path: &Path, seq: u64) -> Result<bool> {
    let mut h = Vec::with_capacity(SEG_HEADER as usize);
    File::open(path)
        .and_then(|f| f.take(SEG_HEADER).read_to_end(&mut h))
        .map_err(|e| io_err("read wal segment header", e))?;
    Ok(h.len() == SEG_HEADER as usize
        && h[0..4] == SEG_MAGIC.to_le_bytes()
        && h[8..16] == seq.to_le_bytes()
        && u32::from_le_bytes(h[4..8].try_into().unwrap()) > SEG_VERSION)
}

/// Scans segments `start_seq..` in order, feeding every valid record to
/// `apply` and stopping at the first invalid byte. `start_lsn` is the LSN
/// the first record must carry (from the checkpoint metadata);
/// `max_payload` bounds a plausible record (page size + op header). A
/// segment whose header names a newer format version fails the scan with
/// [`StoreError::Config`] before any record is applied.
pub fn scan(
    dir: &Path,
    start_seq: u64,
    start_lsn: u64,
    max_payload: usize,
    mut apply: impl FnMut(u64, WalOp) -> Result<()>,
) -> Result<ScanReport> {
    let mut report = ScanReport {
        replayed: 0,
        next_lsn: start_lsn,
        last_seg_seq: start_seq,
        last_seg_valid_len: SEG_HEADER,
        torn: false,
    };
    let seqs: Vec<u64> = list_segments(dir)?
        .into_iter()
        .filter(|&s| s >= start_seq)
        .collect();
    // A segment a newer build wrote is not torn: refuse the log before
    // anything is applied, and leave every file as it is.
    for &seq in &seqs {
        if newer_format(&segment_path(dir, seq), seq)? {
            return Err(StoreError::Config(
                "wal segment has a newer format version than this build reads",
            ));
        }
    }
    let mut expected_lsn = start_lsn;
    for (k, &seq) in seqs.iter().enumerate() {
        if seq != start_seq + k as u64 {
            // A gap in segment numbering: everything from the gap on is
            // unusable (records would skip LSNs).
            report.torn = true;
            break;
        }
        let path = segment_path(dir, seq);
        let mut bytes = Vec::new();
        File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| io_err("read wal segment", e))?;
        report.last_seg_seq = seq;
        let version_ok = bytes.len() >= 8
            && (SEG_MIN_VERSION..=SEG_VERSION)
                .contains(&u32::from_le_bytes(bytes[4..8].try_into().unwrap()));
        if bytes.len() < SEG_HEADER as usize
            || bytes[0..4] != SEG_MAGIC.to_le_bytes()
            || !version_ok
            || bytes[8..16] != seq.to_le_bytes()
        {
            // Unusable header (short or zeroed, e.g. its write was lost to
            // a crash, or an older version than any this build knows): report
            // a 0-byte valid prefix so recovery resets the file and the
            // appender writes a fresh header.
            report.last_seg_valid_len = 0;
            report.torn = true;
            break;
        }
        report.last_seg_valid_len = SEG_HEADER;
        let mut off = SEG_HEADER as usize;
        let mut valid = off;
        let mut seg_ok = true;
        while off + REC_HEADER <= bytes.len() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
            let lsn = u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap());
            if len < 5 || len > max_payload || off + REC_HEADER + len > bytes.len() {
                seg_ok = false;
                break;
            }
            let payload = &bytes[off + REC_HEADER..off + REC_HEADER + len];
            let mut c = Crc32::new();
            c.update(payload);
            if c.finish() != crc || lsn != expected_lsn {
                seg_ok = false;
                break;
            }
            let op = payload[0];
            let pid = PageId::from_raw(u32::from_le_bytes(payload[1..5].try_into().unwrap()))
                .ok_or(StoreError::corrupt("wal record with nil page id"))?;
            let wal_op = match op {
                OP_ALLOC if len == 5 => WalOp::Alloc(pid),
                OP_FREE if len == 5 => WalOp::Free(pid),
                OP_PUT => WalOp::Put(pid, payload[5..].to_vec()),
                OP_PUT_BASE => WalOp::PutBase(pid, payload[5..].to_vec()),
                OP_PUT_DELTA | OP_PUT_EDIT => match decode_delta(
                    pid,
                    &payload[5..],
                    if op == OP_PUT_DELTA {
                        decode_bytes
                    } else {
                        decode_edit
                    },
                ) {
                    Some(op) => op,
                    None => {
                        seg_ok = false;
                        break;
                    }
                },
                _ => {
                    seg_ok = false;
                    break;
                }
            };
            apply(lsn, wal_op)?;
            report.replayed += 1;
            expected_lsn += 1;
            off += REC_HEADER + len;
            valid = off;
        }
        report.last_seg_valid_len = valid as u64;
        if !seg_ok || valid < bytes.len() {
            report.torn = true;
            break;
        }
    }
    // Nothing scanned at all (fresh log): the appender starts a new
    // segment at `start_seq`.
    report.next_lsn = expected_lsn;
    Ok(report)
}

#[cfg(test)]
impl Wal {
    /// Appends a v1 full image, as older stores wrote them, so tests can
    /// build the logs replay must still read.
    pub(crate) fn log_put_v1(&self, pid: PageId, data: &[u8]) -> Result<()> {
        let lsn = self.append_record(OP_PUT, pid, data)?;
        self.finish(lsn)
    }

    /// Appends a v2 delta (`OP_PUT_DELTA`, untagged ranges), as version-2
    /// stores wrote them.
    pub(crate) fn log_put_delta_v2(
        &self,
        pid: PageId,
        page_lsn: u64,
        ranges: &[(u16, &[u8])],
    ) -> Result<u64> {
        let mut body = page_lsn.to_le_bytes().to_vec();
        body.extend_from_slice(&(ranges.len() as u16).to_le_bytes());
        for &(off, bytes) in ranges {
            body.extend_from_slice(&off.to_le_bytes());
            body.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
            body.extend_from_slice(bytes);
        }
        let lsn = self.append_record(OP_PUT_DELTA, pid, &body)?;
        self.finish(lsn)?;
        Ok(lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use std::sync::Arc;
    use std::time::Duration;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("blink-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn wal(dir: &Path, policy: FsyncPolicy, segment_bytes: u64) -> Wal {
        Wal::open(
            dir,
            policy,
            segment_bytes,
            1,
            1,
            Arc::new(FaultInjector::new()),
            Arc::new(StoreStats::default()),
        )
        .unwrap()
    }

    fn pid(n: u32) -> PageId {
        PageId::from_raw(n).unwrap()
    }

    #[test]
    fn encoded_record_crc_golden() {
        // Pins the checksum of one encoded put record (a 4 KiB image) to
        // the value the bytewise CRC wrote, so old logs still verify.
        let page: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(131) ^ (i >> 5)) as u8)
            .collect();
        let rec = encode_record(OP_PUT, pid(7), &page);
        assert_eq!(
            u32::from_le_bytes(rec[4..8].try_into().unwrap()),
            0x0031_A043
        );
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let w = wal(&dir, FsyncPolicy::Always, 1 << 20);
        w.log_alloc(pid(1)).unwrap();
        w.log_put_v1(pid(1), &[7u8; 32]).unwrap();
        w.log_free(pid(1)).unwrap();
        let mut ops = Vec::new();
        let report = scan(&dir, 1, 1, 64, |lsn, op| {
            ops.push((lsn, op));
            Ok(())
        })
        .unwrap();
        assert_eq!(report.replayed, 3);
        assert_eq!(report.next_lsn, 4);
        assert!(!report.torn);
        assert_eq!(
            ops,
            vec![
                (1, WalOp::Alloc(pid(1))),
                (2, WalOp::Put(pid(1), vec![7u8; 32])),
                (3, WalOp::Free(pid(1))),
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_is_in_the_segment_when_log_returns() {
        // Write-through: no commit, no sync, and still every accepted
        // record is in the segment file — the write-ahead order a page
        // write-back relies on needs no barrier.
        let dir = tmpdir("writethrough");
        let stats = Arc::new(StoreStats::default());
        let w = Wal::open(
            &dir,
            FsyncPolicy::Always,
            1 << 20,
            1,
            1,
            Arc::new(FaultInjector::new()),
            Arc::clone(&stats),
        )
        .unwrap();
        let (seen, fin) = w.deferred_scope(|| {
            for i in 1..=3u32 {
                w.log_put_base(pid(i), &[i as u8; 8]).unwrap();
            }
            let mut lsns = Vec::new();
            scan(&dir, 1, 1, 64, |lsn, _| {
                lsns.push(lsn);
                Ok(())
            })
            .unwrap();
            assert_eq!(stats.snapshot().fsync_hist.count(), 0, "no commit ran yet");
            lsns
        });
        fin.unwrap();
        assert_eq!(seen, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_scan_continues_across_them() {
        let dir = tmpdir("rotate");
        // Tiny segments: every few records rotate.
        let w = wal(&dir, FsyncPolicy::Never, 256);
        for i in 1..=50u32 {
            w.log_put_base(pid(i), &[i as u8; 16]).unwrap();
        }
        let segments = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                let name = name.to_string_lossy();
                name.starts_with("wal-") && name.ends_with(".seg")
            })
            .count() as u64;
        assert!(segments > 1, "should have rotated");
        let mut n = 0;
        let report = scan(&dir, 1, 1, 64, |_, _| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 50);
        assert_eq!(report.replayed, 50);
        assert_eq!(
            report.last_seg_seq, segments,
            "segments are numbered from 1"
        );
        assert!(!report.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let dir = tmpdir("torn");
        {
            let w = wal(&dir, FsyncPolicy::Always, 1 << 20);
            for i in 1..=10u32 {
                w.log_put_base(pid(i), &[0xAB; 8]).unwrap();
            }
        }
        // Truncate the single segment mid-record.
        let path = segment_path(&dir, 1);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        let mut n = 0;
        let report = scan(&dir, 1, 1, 64, |_, _| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 9, "the torn last record must be dropped");
        assert!(report.torn);
        assert_eq!(report.next_lsn, 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_stops_the_scan() {
        let dir = tmpdir("corrupt");
        {
            let w = wal(&dir, FsyncPolicy::Always, 1 << 20);
            for i in 1..=5u32 {
                w.log_put_base(pid(i), &[i as u8; 8]).unwrap();
            }
        }
        // Flip a byte inside record 3's payload.
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let rec = REC_HEADER + 13; // header + op(1) + pid(4) + data(8)
        let target = SEG_HEADER as usize + 2 * rec + REC_HEADER + 6;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut n = 0;
        let report = scan(&dir, 1, 1, 64, |_, _| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 2, "scan stops before the corrupt record");
        assert!(report.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn headerless_segment_is_reset_and_new_records_survive() {
        // A crash can leave the next segment created but its header
        // lost (0 bytes, or shorter than the header). Appending there
        // without rewriting the header would make the NEXT recovery
        // reject the whole segment — losing acknowledged commits.
        let dir = tmpdir("headerless");
        {
            let w = wal(&dir, FsyncPolicy::Always, 1 << 20);
            w.log_alloc(pid(1)).unwrap();
            w.log_alloc(pid(2)).unwrap();
        }
        // Segment 2 exists but its header never reached the disk.
        std::fs::write(segment_path(&dir, 2), []).unwrap();
        let report = scan(&dir, 1, 1, 64, |_, _| Ok(())).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(report.last_seg_seq, 2);
        assert_eq!(report.last_seg_valid_len, 0, "bad header: reset the file");
        assert!(report.torn);
        // Continue appending where recovery says (as DurableStore does
        // after trimming to the valid length).
        let f = OpenOptions::new()
            .write(true)
            .open(segment_path(&dir, 2))
            .unwrap();
        f.set_len(report.last_seg_valid_len).unwrap();
        let w = Wal::open(
            &dir,
            FsyncPolicy::Always,
            1 << 20,
            report.last_seg_seq,
            report.next_lsn,
            Arc::new(FaultInjector::new()),
            Arc::new(StoreStats::default()),
        )
        .unwrap();
        w.log_alloc(pid(3)).unwrap();
        drop(w);
        let mut lsns = Vec::new();
        let report = scan(&dir, 1, 1, 64, |lsn, _| {
            lsns.push(lsn);
            Ok(())
        })
        .unwrap();
        assert_eq!(lsns, vec![1, 2, 3], "post-reset records must survive");
        assert!(!report.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_injection_cuts_the_log_at_the_record_boundary() {
        let dir = tmpdir("fault");
        let fault = Arc::new(FaultInjector::new());
        let w = Wal::open(
            &dir,
            FsyncPolicy::Never,
            1 << 20,
            1,
            1,
            Arc::clone(&fault),
            Arc::new(StoreStats::default()),
        )
        .unwrap();
        fault.crash_after_wal_records(7);
        let mut ok = 0;
        for i in 1..=20u32 {
            if w.log_put_base(pid(i), &[1; 4]).is_ok() {
                ok += 1;
            }
        }
        assert_eq!(ok, 7);
        assert!(fault.tripped());
        drop(w);
        let mut n = 0;
        let report = scan(&dir, 1, 1, 64, |_, _| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 7, "exactly the pre-crash records survive");
        assert!(!report.torn, "a record-boundary crash leaves a clean tail");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_records_roundtrip_through_the_scanner() {
        let dir = tmpdir("v2roundtrip");
        let w = wal(&dir, FsyncPolicy::Always, 1 << 20);
        w.log_alloc(pid(1)).unwrap();
        let base_lsn = w.log_put_base(pid(1), &[0xAA; 64]).unwrap();
        assert_eq!(base_lsn, 2);
        let delta_lsn = w
            .log_put_delta(pid(1), base_lsn, &[(4, &[1, 2, 3]), (40, &[9; 5])])
            .unwrap();
        assert_eq!(delta_lsn, 3);
        let mut ops = Vec::new();
        let report = scan(&dir, 1, 1, 128, |lsn, op| {
            ops.push((lsn, op));
            Ok(())
        })
        .unwrap();
        assert_eq!(report.replayed, 3);
        assert!(!report.torn);
        assert_eq!(ops[0], (1, WalOp::Alloc(pid(1))));
        assert_eq!(ops[1], (2, WalOp::PutBase(pid(1), vec![0xAA; 64])));
        assert_eq!(
            ops[2],
            (
                3,
                WalOp::PutDelta(
                    pid(1),
                    2,
                    vec![
                        PageEdit::Bytes(4, vec![1, 2, 3]),
                        PageEdit::Bytes(40, vec![9; 5])
                    ]
                )
            )
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn edit_records_with_moves_roundtrip_through_the_scanner() {
        let dir = tmpdir("editroundtrip");
        let w = wal(&dir, FsyncPolicy::Always, 1 << 20);
        let edits = [
            PageEdit::Move {
                dst: 48,
                src: 32,
                len: 200,
            },
            PageEdit::Bytes(32, &[5u8; 16][..]),
            PageEdit::Move {
                dst: 300,
                src: 301,
                len: 7,
            },
        ];
        let lsn = w.log_put_edits(pid(2), 9, &edits).unwrap();
        // An empty record (a write that changed nothing) is legal too.
        w.log_put_edits(pid(2), lsn, &[]).unwrap();
        let mut ops = Vec::new();
        let report = scan(&dir, 1, 1, 128, |_, op| {
            ops.push(op);
            Ok(())
        })
        .unwrap();
        assert_eq!(report.replayed, 2);
        let owned = vec![
            PageEdit::Move {
                dst: 48,
                src: 32,
                len: 200,
            },
            PageEdit::Bytes(32, vec![5; 16]),
            PageEdit::Move {
                dst: 300,
                src: 301,
                len: 7,
            },
        ];
        assert_eq!(ops[0], WalOp::PutDelta(pid(2), 9, owned));
        assert_eq!(ops[1], WalOp::PutDelta(pid(2), lsn, vec![]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The body `log_put_edits` writes for `edits`: the record's bytes
    /// after its header and its op and page id.
    fn edit_body(edits: &[PageEdit<&[u8]>]) -> Vec<u8> {
        let dir = tmpdir("editbody");
        let w = wal(&dir, FsyncPolicy::Never, 1 << 20);
        w.log_put_edits(pid(3), 7, edits).unwrap();
        drop(w);
        let bytes = std::fs::read(segment_path(&dir, 1)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        bytes[SEG_HEADER as usize + REC_HEADER + 5..].to_vec()
    }

    #[test]
    fn malformed_edit_bodies_decode_as_torn_never_panic() {
        let good = edit_body(&[
            PageEdit::Bytes(30, &[1, 2, 3][..]),
            PageEdit::Move {
                dst: 40,
                src: 44,
                len: 60,
            },
        ]);
        assert!(decode_delta(pid(3), &good, decode_edit).is_some());
        // Every truncation, and one byte too many, is malformed.
        for cut in 0..good.len() {
            assert_eq!(
                decode_delta(pid(3), &good[..cut], decode_edit),
                None,
                "cut {cut}"
            );
        }
        let mut long = good.clone();
        long.push(0);
        assert_eq!(decode_delta(pid(3), &long, decode_edit), None);
        // An unknown tag, and a count larger than the entries.
        let mut bad_tag = good.clone();
        bad_tag[10] = 7;
        assert_eq!(decode_delta(pid(3), &bad_tag, decode_edit), None);
        let mut bad_n = good.clone();
        bad_n[8] = 3;
        assert_eq!(decode_delta(pid(3), &bad_n, decode_edit), None);
        // Random bodies, under both decoders: a result or `None`, never a
        // panic.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mut body = good.clone();
            let at = 10 + x as usize % (body.len() - 10);
            body[at] = (x >> 32) as u8;
            body.truncate(10 + (x >> 40) as usize % (body.len() - 9));
            let _ = decode_delta(pid(3), &body, decode_edit);
            let _ = decode_delta(pid(3), &body, decode_bytes);
        }
        // A whole record with a torn entry ends the scan as a torn tail.
        let dir = tmpdir("tornedit");
        let w = wal(&dir, FsyncPolicy::Never, 1 << 20);
        w.log_put_base(pid(3), &[1; 32]).unwrap();
        drop(w);
        let mut seg = std::fs::read(segment_path(&dir, 1)).unwrap();
        let cut = &good[..good.len() - 2];
        let mut payload = vec![OP_PUT_EDIT];
        payload.extend_from_slice(&3u32.to_le_bytes());
        payload.extend_from_slice(cut);
        seg.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        seg.extend_from_slice(&blink_pagestore::crc::crc32(&payload).to_le_bytes());
        seg.extend_from_slice(&2u64.to_le_bytes());
        seg.extend_from_slice(&payload);
        std::fs::write(segment_path(&dir, 1), &seg).unwrap();
        let report = scan(&dir, 1, 1, 128, |_, _| Ok(())).unwrap();
        assert_eq!(report.replayed, 1);
        assert!(report.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_segments_scan_alongside_v2_ones() {
        // The scanner accepts both format versions (v1 segments can only
        // hold v1 ops, so decoding is unambiguous). Note this is log-level
        // leniency only — pre-delta *stores* are still rejected loudly,
        // because the heap page layout changed under `HEAP_MAGIC`.
        let dir = tmpdir("mixedver");
        {
            let w = wal(&dir, FsyncPolicy::Always, 1 << 20);
            w.log_put_v1(pid(1), &[7; 8]).unwrap();
        }
        // Rewrite segment 1's header as format version 1 (its records are
        // v1-only, so this is exactly what an old writer produced).
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let report = scan(&dir, 1, 1, 64, |_, _| Ok(())).unwrap();
        assert_eq!(report.replayed, 1);
        assert!(!report.torn);
        // A future format version is refused with a typed error, not
        // taken for a torn header.
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = scan(&dir, 1, 1, 64, |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, StoreError::Config(_)), "{err:?}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_delta_is_discarded_at_the_record_boundary() {
        let dir = tmpdir("torndelta");
        {
            let w = wal(&dir, FsyncPolicy::Always, 1 << 20);
            w.log_put_base(pid(1), &[0xAA; 32]).unwrap();
            w.log_put_delta(pid(1), 1, &[(4, &[1; 6])]).unwrap();
            w.log_put_delta(pid(1), 2, &[(10, &[2; 6])]).unwrap();
        }
        // Tear the last delta mid-payload.
        let path = segment_path(&dir, 1);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let mut ops = Vec::new();
        let report = scan(&dir, 1, 1, 64, |_, op| {
            ops.push(op);
            Ok(())
        })
        .unwrap();
        assert_eq!(ops.len(), 2, "the torn final delta must be dropped");
        assert!(matches!(ops[1], WalOp::PutDelta(_, 1, _)));
        assert!(report.torn);
        assert_eq!(report.next_lsn, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_concurrent_committers() {
        // No timer gathers a batch: committers that arrive while an fsync
        // runs share the next one. A precursor's dilated fsync holds the
        // monitor until all four writers have appended their first record,
        // so at least that batch is shared whatever the scheduler does.
        let dir = tmpdir("group");
        let stats = Arc::new(StoreStats::default());
        let fault = Arc::new(FaultInjector::new());
        let w = Arc::new(
            Wal::open(
                &dir,
                FsyncPolicy::Always,
                1 << 20,
                1,
                1,
                Arc::clone(&fault),
                Arc::clone(&stats),
            )
            .unwrap(),
        );
        fault.set_fsync_delay(Duration::from_millis(200));
        let precursor = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.log_put_base(pid(1), &[1; 8]))
        };
        wait_until(10, "the precursor's batch cut", || lone_leader_cut(&w));
        let mut handles = vec![];
        for t in 0..4 {
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                for i in 0..25u32 {
                    w.log_put_base(pid(2 + t * 100 + i), &[0; 8]).unwrap();
                }
            }));
        }
        wait_until(10, "four committers in one batch", || {
            w.lock_ctl().waiters == 4
        });
        fault.set_fsync_delay(Duration::ZERO);
        precursor.join().unwrap().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let snap = stats.snapshot();
        assert!(
            snap.fsync_hist.count() < 101,
            "group commit must batch: {} fsyncs for 101 records",
            snap.fsync_hist.count()
        );
        assert_eq!(snap.wal_group_commit_records, 101);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pipelined_commit_stays_exact_under_concurrency() {
        // fsync dilated so batches demonstrably fill while the leader
        // syncs: every record must still become durable exactly once in
        // the accounting, the log must scan clean and contiguous, and at
        // least one overlap (a committer that waited behind a running
        // fsync and then led the next one) must be observed. That batches share fsyncs is
        // pinned deterministically by
        // `group_commit_batches_concurrent_committers`.
        let dir = tmpdir("pipeline");
        let stats = Arc::new(StoreStats::default());
        let fault = Arc::new(FaultInjector::new());
        let w = Arc::new(
            Wal::open(
                &dir,
                FsyncPolicy::Always,
                1 << 20,
                1,
                1,
                Arc::clone(&fault),
                Arc::clone(&stats),
            )
            .unwrap(),
        );
        fault.set_fsync_delay(Duration::from_millis(2));
        // An overlap needs a successor thread to arrive while the leader
        // is inside fsync; a starved scheduler can serialize the writers,
        // so run rounds until the depth counter moves.
        let mut rounds = 0u32;
        loop {
            let mut handles = vec![];
            for t in 0..4 {
                let w = Arc::clone(&w);
                handles.push(std::thread::spawn(move || {
                    for i in 0..25u32 {
                        w.log_put_base(pid(1 + rounds * 1_000 + t * 100 + i), &[0; 8])
                            .unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            rounds += 1;
            if stats.snapshot().wal_pipeline_depth >= 1 || rounds == 20 {
                break;
            }
        }
        let total = u64::from(rounds) * 100;
        let snap = stats.snapshot();
        assert_eq!(
            snap.wal_group_commit_records, total,
            "every record durable, none double-counted"
        );
        assert!(
            snap.wal_pipeline_depth >= 1,
            "a 2ms fsync with 4 writers must overlap at least one batch fill"
        );
        let mut n = 0u64;
        let report = scan(&dir, 1, 1, 64, |_, _| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, total);
        assert!(!report.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pipelined_commit_propagates_fsync_failure() {
        // Once the injector trips, a pipelined committer must report the
        // failure, not acknowledge a commit that never became durable.
        let dir = tmpdir("pipefail");
        let fault = Arc::new(FaultInjector::new());
        let w = Arc::new(
            Wal::open(
                &dir,
                FsyncPolicy::Always,
                1 << 20,
                1,
                1,
                Arc::clone(&fault),
                Arc::new(StoreStats::default()),
            )
            .unwrap(),
        );
        w.log_put_base(pid(1), &[1; 8]).unwrap();
        fault.crash_after_wal_records(0);
        let mut handles = vec![];
        for t in 0..3 {
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                w.log_put_base(pid(10 + t), &[2; 8]).is_err()
            }));
        }
        for h in handles {
            assert!(h.join().unwrap(), "post-trip commits must fail");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Polls `cond` until it holds; panics after `secs` seconds.
    fn wait_until(secs: u64, what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// True once a lone committer leads: its fsync is running and nobody
    /// waits behind it yet.
    fn lone_leader_cut(w: &Wal) -> bool {
        let ctl = w.lock_ctl();
        ctl.leader_running && ctl.waiters == 0
    }

    /// A standalone log (no health latch) over `fault`.
    fn faulty_wal(dir: &Path, fault: &Arc<FaultInjector>) -> Arc<Wal> {
        Arc::new(
            Wal::open(
                dir,
                FsyncPolicy::Always,
                1 << 20,
                1,
                1,
                Arc::clone(fault),
                Arc::new(StoreStats::default()),
            )
            .unwrap(),
        )
    }

    #[test]
    fn a_commit_whose_covering_fsync_failed_never_returns_ok() {
        // A standalone log has no health latch, so nothing poisons: the
        // monitor's sticky failure alone stands between a committer and a
        // false acknowledgement. A later fsync that happens to pass cannot
        // cover the failed one's records, whose pages may be gone, so the
        // commit after it must fail too.
        let dir = tmpdir("fsyncfail");
        let fault = Arc::new(FaultInjector::new());
        let w = faulty_wal(&dir, &fault);
        fault.set_plan(FaultPlan::new().fail_nth(FaultSite::WalFsync, 1, FaultKind::Transient));
        assert!(
            w.log_put_base(pid(1), &[1; 8]).is_err(),
            "a failed fsync acknowledged"
        );
        assert!(
            w.log_put_base(pid(2), &[1; 8]).is_err(),
            "a commit after a failed fsync acknowledged"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_committer_sharing_a_failed_fsync_gets_its_error() {
        // Three committers share one failed fsync: a precursor's dilated
        // fsync (which passes) holds the monitor while all three append
        // and wait behind it; the next fsync, which one of them leads,
        // fails.
        let dir = tmpdir("fsyncfanout");
        let fault = Arc::new(FaultInjector::new());
        let w = faulty_wal(&dir, &fault);
        fault.set_plan(FaultPlan::new().fail_nth(FaultSite::WalFsync, 2, FaultKind::Transient));
        fault.set_fsync_delay(Duration::from_millis(500));
        let precursor = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.log_put_base(pid(3), &[2; 8]))
        };
        wait_until(10, "the precursor's batch cut", || lone_leader_cut(&w));
        let sharers: Vec<_> = (0..3u32)
            .map(|t| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || w.log_put_base(pid(10 + t), &[3; 8]))
            })
            .collect();
        wait_until(10, "three committers in one batch", || {
            w.lock_ctl().waiters == 3
        });
        fault.set_fsync_delay(Duration::ZERO);
        precursor.join().unwrap().unwrap();
        for h in sharers {
            assert!(
                h.join().unwrap().is_err(),
                "every committer of the failed batch must get its error"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_leftover_next_segment_does_not_stop_appends() {
        // A rotation that failed after creating its segment (or an older
        // run) can leave the next segment behind; rotating onto it must
        // truncate it, not fail every later append.
        let dir = tmpdir("leftover");
        std::fs::write(segment_path(&dir, 2), b"stale bytes of a failed rotation").unwrap();
        let w = wal(&dir, FsyncPolicy::Never, 128);
        for i in 1..=20u32 {
            w.log_put_base(pid(i), &[5; 8]).unwrap();
        }
        w.sync().unwrap();
        assert!(list_segments(&dir).unwrap().len() > 2, "the log rotated");
        let mut n = 0u64;
        let report = scan(&dir, 1, 1, 64, |_, _| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 20);
        assert!(!report.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_on_a_never_log_fsyncs_once_and_covers_every_record() {
        let dir = tmpdir("neversync");
        let stats = Arc::new(StoreStats::default());
        let w = Wal::open(
            &dir,
            FsyncPolicy::Never,
            1 << 20,
            1,
            1,
            Arc::new(FaultInjector::new()),
            Arc::clone(&stats),
        )
        .unwrap();
        for i in 1..=5u32 {
            w.log_put_base(pid(i), &[4; 8]).unwrap();
        }
        let before = stats.snapshot();
        assert_eq!(before.fsync_hist.count(), 0, "Never commits do not fsync");
        w.sync().unwrap();
        let after = stats.snapshot();
        assert_eq!(after.fsync_hist.count(), 1);
        assert_eq!(after.wal_group_commits, 1);
        assert_eq!(after.wal_group_commit_records, 5);
        w.sync().unwrap();
        assert_eq!(
            stats.snapshot().fsync_hist.count(),
            1,
            "nothing new to cover"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deferred_scope_is_closed_when_its_body_panics() {
        // `DEFERRED` is thread-wide: a scope leaked by an unwinding body
        // would absorb every later commit on this thread, for any `Wal`,
        // acknowledging records that were never fsynced.
        let dir = tmpdir("deferpanic");
        let stats = Arc::new(StoreStats::default());
        let w = Wal::open(
            &dir,
            FsyncPolicy::Always,
            1 << 20,
            1,
            1,
            Arc::new(FaultInjector::new()),
            Arc::clone(&stats),
        )
        .unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.deferred_scope(|| panic!("body fails mid-scope"))
        }));
        assert!(unwound.is_err());
        let before = stats.snapshot().fsync_hist.count();
        w.log_put_base(pid(1), &[1; 8]).unwrap();
        assert!(
            stats.snapshot().fsync_hist.count() > before,
            "a commit after the unwound scope must fsync, not be absorbed"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_continues_appending_where_scan_ended() {
        let dir = tmpdir("reopen");
        {
            let w = wal(&dir, FsyncPolicy::Always, 1 << 20);
            for i in 1..=4u32 {
                w.log_alloc(pid(i)).unwrap();
            }
        }
        let report = scan(&dir, 1, 1, 64, |_, _| Ok(())).unwrap();
        let w = Wal::open(
            &dir,
            FsyncPolicy::Always,
            1 << 20,
            report.last_seg_seq,
            report.next_lsn,
            Arc::new(FaultInjector::new()),
            Arc::new(StoreStats::default()),
        )
        .unwrap();
        w.log_free(pid(2)).unwrap();
        let mut lsns = Vec::new();
        scan(&dir, 1, 1, 64, |lsn, _| {
            lsns.push(lsn);
            Ok(())
        })
        .unwrap();
        assert_eq!(lsns, vec![1, 2, 3, 4, 5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
