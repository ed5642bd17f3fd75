//! The write-ahead log: append-only segments, per-record checksums, group
//! commit.
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
//! * `3` put — full page image; replay writes it verbatim.
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
//!   write-back reached the page file before the crash.
//!
//! A reader accepts the longest prefix of records with valid checksums and
//! contiguous LSNs and treats everything after the first invalid byte as a
//! torn tail (the normal result of a crash mid-append).
//!
//! ## Commit
//!
//! A writer *stages* a record in a per-thread slot; a committer
//! *publishes* the staged records into the segment file in dense LSN
//! order and makes them *durable* according to the [`FsyncPolicy`]:
//!
//! * [`Always`](FsyncPolicy::Always) — fsync before returning (safest,
//!   one fsync per record unless concurrent commits batch behind the same
//!   sync).
//! * [`Group`](FsyncPolicy::Group) — pipelined group commit: join the
//!   filling batch; one leader fsyncs batch N on a cloned fd with no lock
//!   held while batch N+1 fills behind it, and every committer waits only
//!   on its own batch's gate. A self-elected leader with company first
//!   waits up to `window` (less when observed arrivals and fsync times
//!   say waiting cannot pay) for the batch to fill. The batch size is
//!   reported in `StoreStats::wal_group_commit_records`.
//! * [`Never`](FsyncPolicy::Never) — leave it to the OS (fastest, no
//!   durability promise on power loss; still crash-consistent thanks to
//!   record checksums).

use crate::crc::Crc32;
use crate::fault::{FaultInjector, FaultSite};
use blink_pagestore::audit::{self, Audited, LockClass};
use blink_pagestore::{DeltaRange, Journal, PageId, Result, StoreError, StoreHealth, StoreStats};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

pub(crate) const SEG_MAGIC: u32 = 0x4257_414C; // "BWAL"
/// Format version stamped into new segment headers (v2 = delta records).
pub(crate) const SEG_VERSION: u32 = 2;
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

/// When does a commit reach stable storage?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync on every commit.
    Always,
    /// Group commit: batch concurrent commits inside a waiting window.
    Group { window: Duration },
    /// Never fsync explicitly; the OS writes back when it pleases.
    Never,
}

/// One logical mutation, as read back from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    Alloc(PageId),
    Free(PageId),
    /// v1 full image: replayed verbatim.
    Put(PageId, Vec<u8>),
    /// v2 full image of an LSN-stamped page: replay writes the image and
    /// stamps the record's LSN into the page's reserved field.
    PutBase(PageId, Vec<u8>),
    /// v2 delta: `(page, page_lsn_before, ranges)` where each range is
    /// `(offset, new bytes)`. Replay applies the ranges iff the record's
    /// LSN is newer than the on-disk page's.
    PutDelta(PageId, u64, Vec<(u16, Vec<u8>)>),
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

fn encode_record(lsn: u64, op: u8, pid: PageId, data: &[u8]) -> Vec<u8> {
    let payload_len = 5 + data.len();
    let mut buf = Vec::with_capacity(REC_HEADER + payload_len);
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&[op]);
    crc.update(&pid.to_raw().to_le_bytes());
    crc.update(data);
    buf.extend_from_slice(&crc.finish().to_le_bytes());
    buf.extend_from_slice(&lsn.to_le_bytes());
    buf.push(op);
    buf.extend_from_slice(&pid.to_raw().to_le_bytes());
    buf.extend_from_slice(data);
    buf
}

#[derive(Debug)]
struct WalInner {
    file: File,
    seg_seq: u64,
    seg_len: u64,
    next_lsn: u64,
}

/// The contents of one staging slot: encoded records tagged with their
/// claimed LSNs.
type StagedEntries = Vec<(u64, Vec<u8>)>;

/// One staging slot.
type StagingSlot = Mutex<StagedEntries>;

/// Per-thread staging slots (striped by a thread ticket). Between them and
/// the append mutex sits the staging protocol:
///
/// * A writer locks **its own slot only**, passes the fault gate, claims an
///   LSN from the shared counter *while holding the slot lock*, encodes the
///   record, and pushes `(lsn, bytes)` — no append-mutex acquisition.
/// * A publisher (any committer, or a writer crossing the staged-bytes
///   threshold) locks the append mutex, loads a cut `C` from the LSN
///   counter, then locks every slot and drains entries with `lsn < C`.
///   Because LSNs are claimed under slot locks, any `lsn < C` is visible in
///   some slot by the time its lock is acquired — the sorted batch is
///   provably dense — and one contiguous `write_all` per segment stitches
///   it into the file.
#[derive(Debug)]
struct StagingState {
    slots: Box<[StagingSlot]>,
    /// Next LSN to hand out (the allocation counter; `WalInner::next_lsn`
    /// becomes "first LSN not yet written to the file").
    next_lsn: AtomicU64,
    /// Bytes staged but not yet published (publish back-pressure).
    staged_bytes: AtomicU64,
}

/// Staging slots per log. More than any plausible writer count on the
/// reference host; collisions only cost a short slot-mutex wait.
const STAGING_SLOTS: usize = 16;
/// Staged bytes that trigger an eager publish even without a commit, so an
/// fsync-less workload (`FsyncPolicy::Never` inside a deferred scope)
/// cannot grow the slots without bound.
const STAGING_PUBLISH_BYTES: u64 = 256 * 1024;

fn staging_slot_index(n: usize) -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static TICKET: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    TICKET.with(|t| {
        let mut v = t.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(v);
        }
        v % n
    })
}

thread_local! {
    /// Active deferred-commit scope: `Some(max staged LSN so far)` while a
    /// [`Wal::deferred_scope`] is running on this thread (0 = nothing
    /// staged yet), `None` otherwise. Lets one logical operation that logs
    /// several records (heap write + index repoint) pay for one commit
    /// instead of one per record.
    static DEFERRED: Cell<Option<u64>> = const { Cell::new(None) };
}

/// EWMA state sizing the group-commit window from observed behavior: when
/// record arrivals are sparser than an fsync is long, batching cannot win
/// and the window collapses to zero; when they are dense, the window is
/// clamped to about two fsyncs — past that the batch is already as full as
/// the arrival rate allows and extra waiting is pure latency.
#[derive(Debug)]
struct CommitTuner {
    epoch: Instant,
    /// Nanoseconds since `epoch` of the last record arrival (0 = none).
    last_arrival_ns: AtomicU64,
    /// EWMA of inter-arrival gaps, ns (α = 1/8; racy updates are fine —
    /// this only steers a heuristic).
    arrival_ewma_ns: AtomicU64,
    /// EWMA of fsync durations, ns.
    fsync_ewma_ns: AtomicU64,
}

impl CommitTuner {
    fn new() -> CommitTuner {
        CommitTuner {
            epoch: Instant::now(),
            last_arrival_ns: AtomicU64::new(0),
            arrival_ewma_ns: AtomicU64::new(0),
            fsync_ewma_ns: AtomicU64::new(0),
        }
    }

    fn ewma_update(cell: &AtomicU64, sample: u64) {
        let prev = cell.load(Ordering::Relaxed);
        let next = if prev == 0 {
            sample
        } else {
            prev - prev / 8 + sample / 8
        };
        cell.store(next.max(1), Ordering::Relaxed);
    }

    fn note_arrival(&self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let last = self.last_arrival_ns.swap(now, Ordering::Relaxed);
        if last != 0 && now > last {
            CommitTuner::ewma_update(&self.arrival_ewma_ns, now - last);
        }
    }

    fn note_fsync(&self, ns: u64) {
        CommitTuner::ewma_update(&self.fsync_ewma_ns, ns);
    }

    /// The window a grouped committer should actually wait, given the
    /// configured cap.
    fn effective_window(&self, configured: Duration) -> Duration {
        let arrival = self.arrival_ewma_ns.load(Ordering::Relaxed);
        let fsync = self.fsync_ewma_ns.load(Ordering::Relaxed);
        if arrival == 0 || fsync == 0 {
            return configured; // not enough signal yet
        }
        if arrival > fsync {
            // Arrivals are sparser than an fsync: by the time a batch-mate
            // shows up we could have fsynced — don't wait.
            Duration::ZERO
        } else {
            configured.min(Duration::from_nanos(fsync.saturating_mul(2)))
        }
    }
}

/// Completion state of one in-flight pipelined batch.
#[derive(Debug)]
struct BatchGate {
    /// The batch's covering fsync finished (successfully or not).
    done: bool,
    /// The fsync attempt failed: waiters must re-drive durability through
    /// [`Wal::sync_to`] so every committer sees a real error.
    failed: bool,
    /// Leadership hand-off: the previous leader finished its batch and
    /// left the baton here. The first waiter to observe the token takes
    /// it and cuts this (its own) batch — the batch that filled while the
    /// previous fsync ran.
    lead_token: bool,
}

/// One pipelined-commit batch: committers who joined while it was the
/// filling batch park on `cv` until a leader marks the gate done.
#[derive(Debug)]
struct BatchCell {
    gate: Mutex<BatchGate>,
    cv: Condvar,
}

impl BatchCell {
    fn new() -> BatchCell {
        BatchCell {
            gate: Mutex::new(BatchGate {
                done: false,
                failed: false,
                lead_token: false,
            }),
            cv: Condvar::new(),
        }
    }
}

/// Pipeline control: which batch is filling, whether a leader is driving
/// an fsync, and the durable horizon the pipeline has established.
#[derive(Debug)]
struct PipelineCtl {
    filling: Arc<BatchCell>,
    /// Committers who joined `filling` and will wait on its gate.
    filling_waiters: u64,
    leader_running: bool,
    /// Highest LSN a pipeline fsync has made durable.
    durable_lsn: u64,
}

/// The pipelined group-commit state (see [`Wal::commit_pipelined`]).
///
/// The double-buffer invariant: at most one batch is *syncing* (its
/// leader holds no lock across the fsync — it syncs a cloned fd) while
/// the next batch *fills* in the staging slots. Committers wait only on
/// their own batch's gate, so a batch-N committer is never penalized by
/// batch N+1's fsync. The control mutex and every gate register with the
/// latch auditor as `WalBatch`, a leaf class with same-class nesting
/// forbidden — the leader reads the cell out of the control mutex, drops
/// it, and only then touches the gate.
#[derive(Debug)]
struct PipelineState {
    ctl: Mutex<PipelineCtl>,
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
    /// Per-thread staging slots every append goes through (see
    /// [`StagingState`]).
    staging: StagingState,
    /// Sizes the group-commit window from observed arrivals and fsyncs.
    tuner: CommitTuner,
    /// Pipelined group commit (`FsyncPolicy::Group` only).
    pipeline: PipelineState,
    /// Highest LSN known durable.
    flushed: Mutex<u64>,
    /// Committers currently inside [`Wal::commit`] under the Group policy.
    /// A committer that finds itself alone skips the batching window and
    /// cuts its batch immediately (PostgreSQL-style self-tuning: on an
    /// idle system there is nobody to batch with, so waiting only adds
    /// latency).
    committers: AtomicU64,
    /// The store's health latch, bound by the durable store after the
    /// page store is constructed (they share one instance). A failed WAL
    /// fsync poisons it — sticky: every later append or commit fails with
    /// [`StoreError::Poisoned`] until a clean reopen re-establishes the
    /// durable prefix. Unbound (standalone `Wal` in tests), failures
    /// surface but nothing latches.
    health: OnceLock<Arc<StoreHealth>>,
}

impl Wal {
    /// Acquires the append mutex, timing only the contended path into the
    /// append-wait histogram. Under `FsyncPolicy::Always` this mutex is
    /// held across the commit fsync ([`Wal::sync_to`]), so with concurrent
    /// writers its waits are the write path's dominant serialization.
    /// The only place `Wal::inner` is locked: every acquisition registers
    /// with the latch auditor as `WalAppend` (staging slots and the commit
    /// window may nest inside it, nothing else).
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
                    .record_wal_append_wait(t0.elapsed().as_nanos() as u64);
                g
            },
        )
    }

    /// The only place a staging slot is locked: registers as `WalSlot`.
    /// `timed` selects the staging path's contended-wait attribution (the
    /// publish leader's drain loop under the append mutex stays untimed,
    /// exactly as before the auditor).
    fn lock_slot<'a>(
        &self,
        slot: &'a StagingSlot,
        timed: bool,
    ) -> Audited<MutexGuard<'a, StagedEntries>> {
        audit::audited(
            LockClass::WalSlot,
            slot as *const StagingSlot as usize,
            || {
                match slot.try_lock() {
                    Some(g) => g,
                    None => {
                        // A publisher (or a ticket collision) holds the slot:
                        // attribute the wait to append serialization.
                        let t0 = Instant::now();
                        let g = slot.lock();
                        if timed {
                            self.stats
                                .record_wal_append_wait(t0.elapsed().as_nanos() as u64);
                        }
                        g
                    }
                }
            },
        )
    }

    /// The only place the durable horizon (`Wal::flushed`) is locked:
    /// registers as `CommitWindow` (a leaf).
    fn lock_flushed(&self) -> Audited<MutexGuard<'_, u64>> {
        audit::audited(
            LockClass::CommitWindow,
            &self.flushed as *const Mutex<u64> as usize,
            || self.flushed.lock(),
        )
    }

    /// The only place the pipeline control mutex is locked: registers as
    /// `WalBatch` (a leaf; never held while a batch gate is taken).
    fn lock_ctl(&self) -> Audited<MutexGuard<'_, PipelineCtl>> {
        audit::audited(
            LockClass::WalBatch,
            &self.pipeline.ctl as *const Mutex<PipelineCtl> as usize,
            || self.pipeline.ctl.lock(),
        )
    }

    /// The only place a batch gate is locked: registers as `WalBatch`
    /// (committers wait on the batch condvar through it).
    fn lock_gate<'a>(&self, cell: &'a BatchCell) -> Audited<MutexGuard<'a, BatchGate>> {
        audit::audited(
            LockClass::WalBatch,
            &cell.gate as *const Mutex<BatchGate> as usize,
            || cell.gate.lock(),
        )
    }

    /// Opens the log for appending: continues segment `seg_seq` at
    /// `seg_len` bytes (creating it if absent) with the next record taking
    /// `next_lsn`. Recovery computes these from a [`scan`]. The staging
    /// LSN counter and the pipeline's durable horizon are seeded from
    /// `next_lsn`.
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
        let durable_lsn = next_lsn.saturating_sub(1);
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
            staging: StagingState {
                slots: (0..STAGING_SLOTS).map(|_| Mutex::new(Vec::new())).collect(),
                next_lsn: AtomicU64::new(next_lsn),
                staged_bytes: AtomicU64::new(0),
            },
            tuner: CommitTuner::new(),
            pipeline: PipelineState {
                ctl: Mutex::new(PipelineCtl {
                    filling: Arc::new(BatchCell::new()),
                    filling_waiters: 0,
                    leader_running: false,
                    durable_lsn,
                }),
            },
            flushed: Mutex::new(durable_lsn),
            committers: AtomicU64::new(0),
            health: OnceLock::new(),
        })
    }

    /// Binds the store's health latch so WAL fsync failures poison the
    /// whole store, not just the one commit. Idempotent; the first binding
    /// wins.
    pub fn bind_health(&self, health: Arc<StoreHealth>) {
        let _ = self.health.set(health);
    }

    /// Fails with [`StoreError::Poisoned`] once a WAL fsync has failed
    /// (no-op when no health latch is bound).
    fn check_poisoned(&self) -> Result<()> {
        match self.health.get() {
            Some(h) => h.check_poisoned(),
            None => Ok(()),
        }
    }

    /// Latches `cause` as the store's poison (sticky — an fsync that
    /// failed may or may not have persisted anything, so no later fsync
    /// can be trusted to repair it) and returns the error to surface:
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
        self.staging.next_lsn.load(Ordering::Acquire) - 1
    }

    /// Sequence number of the segment currently being appended.
    pub fn current_segment(&self) -> u64 {
        self.lock_inner().seg_seq
    }

    /// Stages one record in this thread's slot — no append-mutex
    /// acquisition — and returns its LSN. The record is not yet in the
    /// file, let alone durable: pair with [`Wal::commit`]. The fault gate
    /// runs *before* the LSN is claimed so a rejected record consumes no
    /// LSN — crash-point matrices still observe exact record-boundary
    /// prefixes.
    fn append_record(&self, op: u8, pid: PageId, data: &[u8]) -> Result<u64> {
        // A poisoned store accepts no new records: the durable prefix
        // ends at the failed fsync, and anything appended after it could
        // never be honestly acknowledged.
        self.check_poisoned()?;
        self.tuner.note_arrival();
        let st = &self.staging;
        let slot = &st.slots[staging_slot_index(st.slots.len())];
        let mut entries = self.lock_slot(slot, true);
        self.fault.on_wal_record()?;
        self.fault
            .plan_outcome(FaultSite::WalAppend)
            .pass_or_fail()?;
        let lsn = st.next_lsn.fetch_add(1, Ordering::AcqRel);
        let buf = encode_record(lsn, op, pid, data);
        let len = buf.len() as u64;
        entries.push((lsn, buf));
        // Account the bytes while still holding the slot lock: a publisher
        // cannot drain this entry (and `fetch_sub` its bytes) until it takes
        // the slot, so the gauge never goes below zero.
        let total = st.staged_bytes.fetch_add(len, Ordering::AcqRel) + len;
        drop(entries);
        StoreStats::add(&self.stats.wal_bytes, len);
        StoreStats::bump(&self.stats.wal_staged_records);
        if total >= STAGING_PUBLISH_BYTES {
            self.publish()?;
        }
        Ok(lsn)
    }

    /// Writes every fully-staged record into the segment file. Does
    /// **not** fsync.
    pub(crate) fn publish(&self) -> Result<()> {
        let mut inner = self.lock_inner();
        self.publish_locked(&mut inner)
    }

    /// The leader half of staging: under the append mutex, cut the LSN
    /// counter, drain every slot below the cut, stitch into LSN order, and
    /// write the batch with at most one `write_all` per segment.
    fn publish_locked(&self, inner: &mut WalInner) -> Result<()> {
        let st = &self.staging;
        let cut = st.next_lsn.load(Ordering::Acquire);
        if inner.next_lsn >= cut {
            return Ok(());
        }
        let mut batch: Vec<(u64, Vec<u8>)> = Vec::new();
        for slot in st.slots.iter() {
            let mut entries = self.lock_slot(slot, false);
            let mut i = 0;
            while i < entries.len() {
                if entries[i].0 < cut {
                    batch.push(entries.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        batch.sort_unstable_by_key(|&(lsn, _)| lsn);
        for (k, &(lsn, _)) in batch.iter().enumerate() {
            if lsn != inner.next_lsn + k as u64 {
                return Err(StoreError::corrupt("staged WAL batch has an LSN gap"));
            }
        }
        let mut pending: Vec<u8> = Vec::new();
        let mut written = 0u64;
        for (_, bytes) in &batch {
            let projected = inner.seg_len + pending.len() as u64 + bytes.len() as u64;
            if projected > self.segment_bytes && inner.seg_len + pending.len() as u64 > SEG_HEADER {
                if !pending.is_empty() {
                    inner
                        .file
                        .write_all(&pending)
                        .map_err(|e| io_err("publish staged wal batch", e))?;
                    inner.seg_len += pending.len() as u64;
                    pending.clear();
                }
                self.rotate(inner)?;
            }
            pending.extend_from_slice(bytes);
            written += bytes.len() as u64;
        }
        if !pending.is_empty() {
            inner
                .file
                .write_all(&pending)
                .map_err(|e| io_err("publish staged wal batch", e))?;
            inner.seg_len += pending.len() as u64;
        }
        inner.next_lsn = cut;
        st.staged_bytes.fetch_sub(written, Ordering::AcqRel);
        StoreStats::bump(&self.stats.wal_publishes);
        StoreStats::add(&self.stats.wal_publish_records, batch.len() as u64);
        Ok(())
    }

    /// Runs `f` with per-record commits deferred: the records `f` logs on
    /// this thread are committed **once**, after `f` returns — even when
    /// `f` fails, so a staged record acknowledged `Ok` always reaches the
    /// file. Returns `f`'s output plus the outcome of that final commit.
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
        let staged = DEFERRED.with(|d| d.get()).unwrap_or(0);
        drop(restore);
        let fin = if staged != 0 {
            self.commit(staged)
        } else {
            Ok(())
        };
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
        self.stats.record_fsync(t0.elapsed().as_nanos() as u64);
        let seq = inner.seg_seq + 1;
        let path = segment_path(&self.dir, seq);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
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
        self.publish_locked(&mut inner)?;
        self.rotate(&mut inner)?;
        Ok((inner.seg_seq, inner.next_lsn))
    }

    /// Makes `lsn` durable per the policy.
    fn commit(&self, lsn: u64) -> Result<()> {
        match self.policy {
            // No durability promise, but a staged record must still reach
            // the file: otherwise an acknowledged `Ok` could evaporate on
            // a crash the checksummed tail would otherwise survive.
            FsyncPolicy::Never => self.publish(),
            FsyncPolicy::Always => self.sync_to(lsn),
            FsyncPolicy::Group { window } => {
                // Self-tuning: only batch when at least one other
                // committer is in flight to share the fsync with. A solo
                // committer on an idle system cuts its batch immediately —
                // any batching wait would be pure added latency. Even the
                // solo commit goes through the leader machinery (skipping
                // the cut-steering wait): its fsync then runs on a cloned
                // fd with no lock held, so later arrivals keep staging and
                // publishing underneath it.
                if self.committers.fetch_add(1, Ordering::AcqRel) == 0 {
                    StoreStats::bump(&self.stats.wal_group_solo_commits);
                }
                let r = self.commit_pipelined(lsn, window);
                self.committers.fetch_sub(1, Ordering::AcqRel);
                r
            }
        }
    }

    /// The tuner-adjusted batching window (the configured cap while the
    /// tuner has no signal yet).
    fn steered_window(&self, configured: Duration) -> Duration {
        let w = self.tuner.effective_window(configured);
        if w != configured {
            StoreStats::bump(&self.stats.wal_commit_window_adapted);
        }
        w
    }

    /// A Group commit. Join the filling batch; if no leader is driving,
    /// become one. A committer returns only after its own batch's gate
    /// reports a completed fsync covering its LSN — never on a mere
    /// notification that *some* fsync ran.
    fn commit_pipelined(&self, lsn: u64, window: Duration) -> Result<()> {
        let t0 = Instant::now();
        {
            // A checkpoint/`sync()` fsync may already cover us.
            let flushed = self.lock_flushed();
            if *flushed >= lsn {
                return Ok(());
            }
        }
        let (cell, lead) = {
            let mut ctl = self.lock_ctl();
            if ctl.durable_lsn >= lsn {
                return Ok(());
            }
            ctl.filling_waiters += 1;
            let cell = Arc::clone(&ctl.filling);
            let lead = !ctl.leader_running;
            if lead {
                ctl.leader_running = true;
            }
            (cell, lead)
        };
        if lead {
            // Errors surface through the gate too (failed=true), so
            // waiters of this batch are never stranded; the leader's own
            // error is re-checked below like everyone else's.
            let _ = self.run_leader(false, window);
        }
        let failed = loop {
            let mut gate = self.lock_gate(&cell);
            while !gate.done && !gate.lead_token {
                cell.cv.wait(gate.guard_mut());
            }
            if gate.done {
                break gate.failed;
            }
            // The previous leader handed off: this batch filled while its
            // fsync ran, and we cut it now.
            gate.lead_token = false;
            drop(gate);
            let _ = self.run_leader(true, window);
        };
        self.stats
            .record_wal_commit_wait(t0.elapsed().as_nanos() as u64);
        if failed {
            // Re-drive durability on the slow path so every committer of
            // a failed batch reports the real error.
            return self.sync_to(lsn);
        }
        Ok(())
    }

    /// One leadership stint: cut the filling batch, fsync it on a cloned
    /// fd (no lock held across the sync), publish the new durable horizon
    /// and wake the batch. If the next batch already has waiters, leave
    /// the leadership token in its gate — that batch filled during this
    /// fsync, which is the pipeline overlap `wal_pipeline_depth` counts.
    fn run_leader(&self, handoff: bool, window: Duration) -> Result<()> {
        if handoff {
            let mut ctl = self.lock_ctl();
            if ctl.leader_running {
                // A freshly-arrived committer self-elected before we woke:
                // it will cut our batch; go back to waiting.
                return Ok(());
            }
            ctl.leader_running = true;
            drop(ctl);
            StoreStats::bump(&self.stats.wal_pipeline_depth);
        } else if self.committers.load(Ordering::Acquire) > 1 {
            // A self-elected leader has no fsync running ahead of it to
            // fill its batch, so the tuner steers the cut point instead:
            // give dense arrivals one window to pile in before cutting.
            // (A solo committer skips the wait — nobody to batch with.)
            let wait = self.steered_window(window);
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
        let cell = {
            let mut ctl = self.lock_ctl();
            let cell = Arc::clone(&ctl.filling);
            ctl.filling = Arc::new(BatchCell::new());
            ctl.filling_waiters = 0;
            cell
        };
        let synced = (|| -> Result<u64> {
            let file;
            let end;
            {
                let mut inner = self.lock_inner();
                self.publish_locked(&mut inner)?;
                end = inner.next_lsn - 1;
                // Rotation fsyncs the outgoing segment before switching,
                // so syncing the current file's clone covers every record
                // up to `end` regardless of segment boundaries.
                file = inner
                    .file
                    .try_clone()
                    .map_err(|e| io_err("clone wal segment fd", e))?;
            }
            self.fault.check()?;
            if let Err(e) = self.fault.plan_outcome(FaultSite::WalFsync).pass_or_fail() {
                return Err(self.poison(e));
            }
            let t0 = Instant::now();
            self.fault.fsync_delay();
            file.sync_data()
                .map_err(|e| self.poison(io_err("wal fsync", e)))?;
            let ns = t0.elapsed().as_nanos() as u64;
            self.stats.record_fsync(ns);
            self.tuner.note_fsync(ns);
            Ok(end)
        })();
        let (next_cell, err) = {
            let mut ctl = self.lock_ctl();
            let err = match &synced {
                Ok(end) => {
                    if *end > ctl.durable_lsn {
                        ctl.durable_lsn = *end;
                    }
                    None
                }
                Err(e) => Some(e.clone()),
            };
            ctl.leader_running = false;
            let next = (ctl.filling_waiters > 0).then(|| Arc::clone(&ctl.filling));
            (next, err)
        };
        if let Ok(end) = synced {
            // Keep `sync_to`'s view coherent: it short-circuits on
            // `flushed`, checkpoints read it, and the batch-size counters
            // stay exact by always accounting against this one ledger
            // (never against `durable_lsn` too).
            let mut flushed = self.lock_flushed();
            if *flushed < end {
                StoreStats::bump(&self.stats.wal_group_commits);
                StoreStats::add(&self.stats.wal_group_commit_records, end - *flushed);
                *flushed = end;
            }
        }
        {
            let mut gate = self.lock_gate(&cell);
            gate.done = true;
            gate.failed = err.is_some();
            cell.cv.notify_all();
        }
        if let Some(next) = next_cell {
            // Hand the baton to the batch that filled during our fsync
            // (even on error: its waiters must self-rescue, not hang).
            let mut gate = self.lock_gate(&next);
            if !gate.done {
                gate.lead_token = true;
                next.cv.notify_all();
            }
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// fsyncs everything appended so far if `lsn` is not yet durable.
    /// Publishes any staged records first — this is the single chokepoint
    /// where a leader's fsync covers every waiter's staged record.
    fn sync_to(&self, lsn: u64) -> Result<()> {
        let mut inner = self.lock_inner();
        self.publish_locked(&mut inner)?;
        let mut flushed = self.lock_flushed();
        if *flushed >= lsn {
            return Ok(());
        }
        // Once an fsync has failed, no later fsync is trusted to cover
        // the gap (the dirty pages may be gone). This check also catches
        // the pipelined path's failed-batch re-drive: every committer of
        // a failed batch lands here and reports `Poisoned` instead of
        // silently retrying the sync.
        self.check_poisoned()?;
        self.fault.check()?;
        if let Err(e) = self.fault.plan_outcome(FaultSite::WalFsync).pass_or_fail() {
            return Err(self.poison(e));
        }
        let t0 = Instant::now();
        self.fault.fsync_delay();
        inner
            .file
            .sync_data()
            .map_err(|e| self.poison(io_err("wal fsync", e)))?;
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.record_fsync(ns);
        self.tuner.note_fsync(ns);
        let target = inner.next_lsn - 1;
        StoreStats::bump(&self.stats.wal_group_commits);
        StoreStats::add(&self.stats.wal_group_commit_records, target - *flushed);
        *flushed = target;
        Ok(())
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

    fn log_put(&self, pid: PageId, data: &[u8]) -> Result<()> {
        let lsn = self.append_record(OP_PUT, pid, data)?;
        self.finish(lsn)
    }

    fn supports_deltas(&self) -> bool {
        true
    }

    fn log_put_base(&self, pid: PageId, data: &[u8]) -> Result<u64> {
        let lsn = self.append_record(OP_PUT_BASE, pid, data)?;
        self.finish(lsn)?;
        Ok(lsn)
    }

    fn log_put_delta(&self, pid: PageId, page_lsn: u64, ranges: &[DeltaRange<'_>]) -> Result<u64> {
        let mut body =
            Vec::with_capacity(10 + ranges.iter().map(|(_, b)| 4 + b.len()).sum::<usize>());
        body.extend_from_slice(&page_lsn.to_le_bytes());
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

    fn ensure_published(&self) -> Result<()> {
        self.publish()
    }

    fn sync(&self) -> Result<()> {
        let last = self.appended_lsn();
        if last == 0 {
            return Ok(());
        }
        self.sync_to(last)
    }
}

/// Decodes a delta record body (`page_lsn u64, n u16, n × (off u16,
/// len u16, bytes)`); `None` marks the record malformed (the CRC
/// survived but the structure is impossible — treat as a torn tail).
fn decode_delta(pid: PageId, body: &[u8]) -> Option<WalOp> {
    if body.len() < 10 {
        return None;
    }
    let page_lsn = u64::from_le_bytes(body[0..8].try_into().unwrap());
    let n = u16::from_le_bytes(body[8..10].try_into().unwrap()) as usize;
    let mut ranges = Vec::with_capacity(n);
    let mut off = 10usize;
    for _ in 0..n {
        if off + 4 > body.len() {
            return None;
        }
        let start = u16::from_le_bytes(body[off..off + 2].try_into().unwrap());
        let len = u16::from_le_bytes(body[off + 2..off + 4].try_into().unwrap()) as usize;
        if off + 4 + len > body.len() {
            return None;
        }
        ranges.push((start, body[off + 4..off + 4 + len].to_vec()));
        off += 4 + len;
    }
    if off != body.len() {
        return None;
    }
    Some(WalOp::PutDelta(pid, page_lsn, ranges))
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

/// Scans segments `start_seq..` in order, feeding every valid record to
/// `apply` and stopping at the first invalid byte. `start_lsn` is the LSN
/// the first record must carry (from the checkpoint metadata);
/// `max_payload` bounds a plausible record (page size + op header).
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
            // Unusable header (e.g. its write was lost to a crash): report
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
                OP_PUT_DELTA => match decode_delta(pid, &payload[5..]) {
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
mod tests {
    use super::*;
    use std::sync::Arc;

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
    fn append_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let w = wal(&dir, FsyncPolicy::Always, 1 << 20);
        w.log_alloc(pid(1)).unwrap();
        w.log_put(pid(1), &[7u8; 32]).unwrap();
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
    fn segments_rotate_and_scan_continues_across_them() {
        let dir = tmpdir("rotate");
        // Tiny segments: every few records rotate.
        let w = wal(&dir, FsyncPolicy::Never, 256);
        for i in 1..=50u32 {
            w.log_put(pid(i), &[i as u8; 16]).unwrap();
        }
        assert!(w.current_segment() > 1, "should have rotated");
        let mut n = 0;
        let report = scan(&dir, 1, 1, 64, |_, _| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 50);
        assert_eq!(report.replayed, 50);
        assert_eq!(report.last_seg_seq, w.current_segment());
        assert!(!report.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let dir = tmpdir("torn");
        {
            let w = wal(&dir, FsyncPolicy::Always, 1 << 20);
            for i in 1..=10u32 {
                w.log_put(pid(i), &[0xAB; 8]).unwrap();
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
                w.log_put(pid(i), &[i as u8; 8]).unwrap();
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
            if w.log_put(pid(i), &[1; 4]).is_ok() {
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
                WalOp::PutDelta(pid(1), 2, vec![(4, vec![1, 2, 3]), (40, vec![9; 5])])
            )
        );
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
            w.log_put(pid(1), &[7; 8]).unwrap();
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
        // A future format version is still rejected.
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let report = scan(&dir, 1, 1, 64, |_, _| Ok(())).unwrap();
        assert_eq!(report.replayed, 0);
        assert!(report.torn);
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
    fn commit_tuner_sizes_the_window_from_observed_signal() {
        let cap = Duration::from_micros(500);
        let t = CommitTuner::new();
        // No signal yet: trust the configured cap.
        assert_eq!(t.effective_window(cap), cap);

        // Arrivals sparser than an fsync: batching cannot win, the window
        // collapses to zero.
        t.arrival_ewma_ns.store(2_000_000, Ordering::Relaxed);
        t.fsync_ewma_ns.store(100_000, Ordering::Relaxed);
        assert_eq!(t.effective_window(cap), Duration::ZERO);

        // Dense arrivals: the window is clamped to about two fsyncs...
        t.arrival_ewma_ns.store(10_000, Ordering::Relaxed);
        assert_eq!(t.effective_window(cap), Duration::from_nanos(200_000));
        // ...but never stretched past the configured cap.
        t.fsync_ewma_ns.store(10_000_000, Ordering::Relaxed);
        assert_eq!(t.effective_window(cap), cap);
    }

    #[test]
    fn commit_tuner_ewma_tracks_samples() {
        // First sample seeds the average; later ones move it by 1/8 per
        // step, so a run of identical samples converges on that value.
        let cell = AtomicU64::new(0);
        CommitTuner::ewma_update(&cell, 800);
        assert_eq!(cell.load(Ordering::Relaxed), 800);
        for _ in 0..200 {
            CommitTuner::ewma_update(&cell, 80);
        }
        let settled = cell.load(Ordering::Relaxed);
        assert!(
            (70..=90).contains(&settled),
            "EWMA should converge near the steady sample, got {settled}"
        );
    }

    #[test]
    fn adaptive_solo_committer_shrinks_the_window() {
        // A lone writer never waits the window (nobody to batch with), and
        // its sparse arrivals teach the tuner that batching cannot win: the
        // window a leader with company would wait collapses, and the
        // adapted-window counter fires.
        let dir = tmpdir("adaptive");
        let stats = Arc::new(StoreStats::default());
        let cap = Duration::from_millis(250);
        let w = Wal::open(
            &dir,
            FsyncPolicy::Group { window: cap },
            1 << 20,
            1,
            1,
            Arc::new(FaultInjector::new()),
            Arc::clone(&stats),
        )
        .unwrap();
        let t0 = Instant::now();
        for i in 0..4 {
            w.log_put(pid(1 + i), &[1; 8]).unwrap();
        }
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "a lone writer must not wait out the 250ms cap (took {:?})",
            t0.elapsed()
        );
        // Seed the tuner: arrivals far sparser than fsyncs.
        w.tuner.arrival_ewma_ns.store(5_000_000, Ordering::Relaxed);
        w.tuner.fsync_ewma_ns.store(50_000, Ordering::Relaxed);
        assert_eq!(w.steered_window(cap), Duration::ZERO);
        assert!(
            stats.snapshot().wal_commit_window_adapted >= 1,
            "tuner with clear signal must adapt the window"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn solo_group_committer_skips_the_batching_window() {
        let dir = tmpdir("solo");
        let stats = Arc::new(StoreStats::default());
        let w = Wal::open(
            &dir,
            FsyncPolicy::Group {
                // A window long enough that waiting it out would dominate
                // the measured time many times over.
                window: Duration::from_millis(250),
            },
            1 << 20,
            1,
            1,
            Arc::new(FaultInjector::new()),
            Arc::clone(&stats),
        )
        .unwrap();
        let t0 = Instant::now();
        w.log_put(pid(1), &[1; 8]).unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "a solo committer must not wait out the group window (took {:?})",
            t0.elapsed()
        );
        assert!(stats.snapshot().wal_group_solo_commits >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_concurrent_committers() {
        let dir = tmpdir("group");
        let stats = Arc::new(StoreStats::default());
        let w = Arc::new(
            Wal::open(
                &dir,
                FsyncPolicy::Group {
                    window: Duration::from_millis(5),
                },
                1 << 20,
                1,
                1,
                Arc::new(FaultInjector::new()),
                Arc::clone(&stats),
            )
            .unwrap(),
        );
        let mut handles = vec![];
        for t in 0..4 {
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                for i in 0..25u32 {
                    w.log_put(pid(1 + t * 100 + i), &[0; 8]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = stats.snapshot();
        assert!(
            snap.wal_fsyncs < 100,
            "group commit must batch: {} fsyncs for 100 records",
            snap.wal_fsyncs
        );
        assert_eq!(snap.wal_group_commit_records, 100);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pipelined_commit_stays_exact_under_concurrency() {
        // fsync dilated so batches demonstrably fill while the leader
        // syncs: every record must still become durable exactly once in
        // the accounting, the log must scan clean and contiguous, and at
        // least one leadership hand-off (a batch that filled during a
        // running fsync) must be observed.
        let dir = tmpdir("pipeline");
        let stats = Arc::new(StoreStats::default());
        let fault = Arc::new(FaultInjector::new());
        let w = Arc::new(
            Wal::open(
                &dir,
                FsyncPolicy::Group {
                    window: Duration::from_micros(500),
                },
                1 << 20,
                1,
                1,
                Arc::clone(&fault),
                Arc::clone(&stats),
            )
            .unwrap(),
        );
        fault.set_fsync_delay(Duration::from_millis(2));
        // A hand-off needs a successor thread to arrive while the leader
        // is inside fsync; a starved scheduler can serialize the writers,
        // so run rounds until the depth counter moves.
        let mut rounds = 0u32;
        loop {
            let mut handles = vec![];
            for t in 0..4 {
                let w = Arc::clone(&w);
                handles.push(std::thread::spawn(move || {
                    for i in 0..25u32 {
                        w.log_put(pid(1 + rounds * 1_000 + t * 100 + i), &[0; 8])
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
            snap.wal_fsyncs < total,
            "pipelined commit must batch: {} fsyncs for {total} records",
            snap.wal_fsyncs
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
                FsyncPolicy::Group {
                    window: Duration::from_micros(500),
                },
                1 << 20,
                1,
                1,
                Arc::clone(&fault),
                Arc::new(StoreStats::default()),
            )
            .unwrap(),
        );
        w.log_put(pid(1), &[1; 8]).unwrap();
        fault.crash_after_wal_records(0);
        let mut handles = vec![];
        for t in 0..3 {
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                w.log_put(pid(10 + t), &[2; 8]).is_err()
            }));
        }
        for h in handles {
            assert!(h.join().unwrap(), "post-trip commits must fail");
        }
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
        let before = stats.snapshot().wal_fsyncs;
        w.log_put(pid(1), &[1; 8]).unwrap();
        assert!(
            stats.snapshot().wal_fsyncs > before,
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
