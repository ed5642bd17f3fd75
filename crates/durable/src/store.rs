//! The durable store: page file + WAL + checkpoint metadata in one
//! directory, recovered on open.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/meta           checkpoint metadata (atomic tmp+rename)
//! <dir>/pages.db       the page file (FileBackend)
//! <dir>/wal-XXXXXXXX.seg   WAL segments
//! ```
//!
//! ## Invariant
//!
//! `PageStore` writes ahead: every `alloc`/`free`/`put` appends (and
//! commits) its WAL record before touching `pages.db`. The metadata stores
//! the free map and capacity as of the last checkpoint plus the first WAL
//! position to replay. Recovery therefore is:
//!
//! 1. load the free map from `meta`;
//! 2. replay every valid WAL record in order into a map of page images —
//!    allocs re-zero pages, full images (v1 puts, v2 bases) replace them
//!    (fixing any torn page-file writes), deltas patch them when newer
//!    than the page's stamped LSN, frees update the free map. The map
//!    holds at most `pool_frames` pages; when it is full, and once at the
//!    end, it is flushed in page-id order, so each page of a batch is read
//!    at most once, stamped once and written once;
//! 3. truncate the torn tail (if any) and continue appending after it.
//!
//! The result is exactly the state after the last durable record — with a
//! simulated crash ([`FaultInjector`]), exactly the first *n* records.
//!
//! [`DurableStore::checkpoint`] bounds replay work — and it is **fuzzy**:
//! writers may run concurrently. [`DurableStore::checkpoint_begin`] cuts
//! the WAL and starts a new base epoch; [`DurableStore::checkpoint_end`]
//! flushes every pre-cut page image, snapshots the free map into `meta`,
//! and deletes the segments before the cut. See `checkpoint_begin` for the
//! correctness argument.

use crate::backend::FileBackend;
use crate::fault::{FaultInjector, FaultOutcome, FaultSite};
use crate::wal::{self, io_err, FsyncPolicy, ScanReport, Wal, WalOp};
use blink_pagestore::crc::crc32;
use blink_pagestore::{
    page_lsn, set_page_lsn, stamp_page_crc, Journal, PageBackend, PageEdit, PageId, PageStore,
    Result, StoreConfig, StoreError, StoreStats, PAGE_LSN_OFFSET, PAGE_RESERVED_END,
};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const META_MAGIC: u32 = 0x4244_5552; // "BDUR"
const META_VERSION: u32 = 1;
const META_HEADER: usize = 40;

/// Configuration of a durable store directory.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Directory holding the page file, WAL and metadata.
    pub dir: PathBuf,
    /// Page size in bytes (must match across reopens).
    pub page_size: usize,
    /// Commit durability policy.
    pub fsync: FsyncPolicy,
    /// WAL segment size before rotation.
    pub segment_bytes: u64,
    /// Buffer-pool frames over the page file. Reads hit pinned frames
    /// (zero-copy); writes are write-back — the WAL record is the commit
    /// point, and dirty frames reach `pages.db` on eviction, `sync` or
    /// checkpoint.
    pub pool_frames: usize,
}

impl DurableConfig {
    /// Defaults: [`StoreConfig::default`]'s page size (4 KiB) and pool,
    /// 8 MiB segments, every commit waits for a covering fsync.
    pub fn new(dir: impl Into<PathBuf>) -> DurableConfig {
        let store = StoreConfig::default();
        DurableConfig {
            dir: dir.into(),
            page_size: store.page_size,
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 20,
            pool_frames: store.pool_frames,
        }
    }

    /// The store is journaled, so it also runs the background flusher and
    /// per-page CRC32 (see [`StoreConfig`]).
    fn store_config(&self) -> StoreConfig {
        StoreConfig {
            page_size: self.page_size,
            pool_frames: self.pool_frames,
        }
    }

    fn pages_path(&self) -> PathBuf {
        self.dir.join("pages.db")
    }

    fn meta_path(&self) -> PathBuf {
        self.dir.join("meta")
    }
}

/// Handle returned by [`DurableStore::checkpoint_begin`]: the WAL cut the
/// matching [`DurableStore::checkpoint_end`] will point recovery at.
/// Dropping it without calling `checkpoint_end` is safe — the store just
/// keeps recovering from the previous checkpoint.
#[derive(Debug, Clone, Copy)]
#[must_use = "a begun checkpoint discards no WAL until checkpoint_end runs"]
pub struct CheckpointToken {
    begin_seq: u64,
    begin_lsn: u64,
}

/// What recovery did when the store was opened.
#[derive(Debug, Clone, Default)]
pub struct RecoveryInfo {
    /// WAL records replayed.
    pub replayed: u64,
    /// Page writes replay made: each page a batch touched is written
    /// once (see [`DurableStore::open`]).
    pub pages_rewritten: u64,
    /// True when a torn tail (half-written record) was discarded.
    pub torn_tail: bool,
    /// Pages allocated after replay.
    pub live_pages: usize,
    /// Total page slots after replay.
    pub capacity: usize,
}

#[derive(Debug)]
struct Meta {
    page_size: usize,
    wal_start_seq: u64,
    wal_start_lsn: u64,
    allocated: Vec<bool>,
}

fn encode_meta(m: &Meta) -> Vec<u8> {
    let cap = m.allocated.len();
    let mut buf = Vec::with_capacity(META_HEADER + cap.div_ceil(8) + 4);
    buf.extend_from_slice(&META_MAGIC.to_le_bytes());
    buf.extend_from_slice(&META_VERSION.to_le_bytes());
    buf.extend_from_slice(&(m.page_size as u32).to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    buf.extend_from_slice(&m.wal_start_seq.to_le_bytes());
    buf.extend_from_slice(&m.wal_start_lsn.to_le_bytes());
    buf.extend_from_slice(&(cap as u64).to_le_bytes());
    let mut bitmap = vec![0u8; cap.div_ceil(8)];
    for (i, &a) in m.allocated.iter().enumerate() {
        if a {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    buf.extend_from_slice(&bitmap);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

fn decode_meta(bytes: &[u8]) -> Result<Meta> {
    if bytes.len() < META_HEADER + 4 {
        return Err(StoreError::corrupt("meta file too short"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != crc {
        return Err(StoreError::corrupt("meta checksum mismatch"));
    }
    if body[0..4] != META_MAGIC.to_le_bytes() || body[4..8] != META_VERSION.to_le_bytes() {
        return Err(StoreError::corrupt("bad meta magic/version"));
    }
    let page_size = u32::from_le_bytes(body[8..12].try_into().unwrap()) as usize;
    let wal_start_seq = u64::from_le_bytes(body[16..24].try_into().unwrap());
    let wal_start_lsn = u64::from_le_bytes(body[24..32].try_into().unwrap());
    let cap = u64::from_le_bytes(body[32..40].try_into().unwrap()) as usize;
    let bitmap = &body[META_HEADER..];
    if bitmap.len() != cap.div_ceil(8) {
        return Err(StoreError::corrupt("meta bitmap length mismatch"));
    }
    let allocated = (0..cap)
        .map(|i| bitmap[i / 8] & (1 << (i % 8)) != 0)
        .collect();
    Ok(Meta {
        page_size,
        wal_start_seq,
        wal_start_lsn,
        allocated,
    })
}

fn write_meta_atomic(
    dir: &Path,
    path: &Path,
    m: &Meta,
    fault: Option<&FaultInjector>,
) -> Result<()> {
    let bytes = encode_meta(m);
    let tmp = path.with_extension("tmp");
    // The injector can fail or tear the meta write mid-checkpoint. Both
    // are safe by construction: the tear lands in `meta.tmp` (the rename
    // never runs), so recovery still reads the previous checkpoint's
    // intact `meta` with all its segments present.
    if let Some(f) = fault {
        match f.plan_outcome(FaultSite::MetaWrite) {
            FaultOutcome::Proceed => {}
            FaultOutcome::Fail(e) => return Err(e),
            FaultOutcome::Torn(k) => {
                let k = k.min(bytes.len());
                let _ = std::fs::write(&tmp, &bytes[..k]);
                return Err(StoreError::Io("injected torn meta write".to_string()));
            }
            FaultOutcome::FlipBit(_) => unreachable!("bit flips never target writes"),
        }
    }
    std::fs::write(&tmp, bytes).map_err(|e| io_err("write meta.tmp", e))?;
    OpenOptions::new()
        .read(true)
        .open(&tmp)
        .and_then(|f| f.sync_data())
        .map_err(|e| io_err("sync meta.tmp", e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename meta", e))?;
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("sync store directory", e))
}

/// The page-file slot a replayed record names, growing the file (and the
/// allocation map) when the record lies past its end.
fn replayed_index(
    op: &WalOp,
    allocated: &mut Vec<bool>,
    backend: &dyn PageBackend,
) -> Result<usize> {
    let pid = match op {
        WalOp::Alloc(pid)
        | WalOp::Free(pid)
        | WalOp::Put(pid, _)
        | WalOp::PutBase(pid, _)
        | WalOp::PutDelta(pid, _, _) => *pid,
    };
    let idx = (pid.to_raw() - 1) as usize;
    if idx >= allocated.len() {
        allocated.resize(idx + 1, false);
        backend.grow(idx + 1)?;
    }
    Ok(idx)
}

/// Applies a delta record's edits at `lsn` to `page`, in order, iff the
/// record is newer than the page's stamped LSN, stamping `lsn`. Returns
/// whether it applied. An edit that reaches past the page end is corrupt,
/// and so is a move that touches the store-reserved field: no writer logs
/// one, and replay's bytes there differ from the live page's.
fn apply_delta(
    page: &mut [u8],
    pid: PageId,
    lsn: u64,
    edits: &[PageEdit<Vec<u8>>],
) -> Result<bool> {
    if lsn <= page_lsn(page) {
        return Ok(false);
    }
    for edit in edits {
        match edit {
            PageEdit::Bytes(off, bytes) => {
                let off = *off as usize;
                if off + bytes.len() > page.len() {
                    return Err(StoreError::corrupt_at("wal delta range past page end", pid));
                }
                page[off..off + bytes.len()].copy_from_slice(bytes);
            }
            &PageEdit::Move { dst, src, len } => {
                let (dst, src, len) = (dst as usize, src as usize, len as usize);
                let outside = |at: usize| {
                    at + len <= page.len()
                        && (at + len <= PAGE_LSN_OFFSET || at >= PAGE_RESERVED_END)
                };
                if !outside(dst) || !outside(src) {
                    return Err(StoreError::corrupt_at(
                        "wal move past page end or into the reserved field",
                        pid,
                    ));
                }
                page.copy_within(src..src + len, dst);
            }
        }
    }
    set_page_lsn(page, lsn);
    Ok(true)
}

/// A full image as the live write path leaves it: the page size checked,
/// a v2 base's LSN stamped (the live store stamps it into the frame right
/// after appending).
fn replayed_image(data: &mut [u8], page_size: usize, base_lsn: Option<u64>) -> Result<()> {
    if data.len() != page_size {
        return Err(StoreError::corrupt("wal put with wrong page size"));
    }
    if let Some(lsn) = base_lsn {
        set_page_lsn(data, lsn);
    }
    Ok(())
}

/// How a held page reaches the page file when its batch is flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flush {
    /// Read from the page file for a delta the LSN gate skipped: the file
    /// already holds these bytes.
    Unchanged,
    /// An alloc's zero image: written unstamped, as the live alloc path
    /// leaves it (an all-zero page verifies as never stamped).
    Unstamped,
    /// Any other image: CRC-stamped, then written.
    Stamped,
}

/// The page images [`replay`] holds: at most `batch` of them, written out
/// in page-id order when the map is full and at the end.
struct Replay<'a> {
    backend: &'a dyn PageBackend,
    batch: usize,
    held: BTreeMap<usize, (Vec<u8>, Flush)>,
    /// Page writes made ([`RecoveryInfo::pages_rewritten`]).
    rewritten: u64,
}

impl Replay<'_> {
    /// Makes room for one more page when `idx` is not held yet.
    fn room_for(&mut self, idx: usize) -> Result<()> {
        if self.held.len() >= self.batch && !self.held.contains_key(&idx) {
            self.flush()?;
        }
        Ok(())
    }

    /// Replaces `idx`'s image outright (an alloc or a full image).
    fn set(&mut self, idx: usize, image: Vec<u8>, flush: Flush) -> Result<()> {
        self.room_for(idx)?;
        self.held.insert(idx, (image, flush));
        Ok(())
    }

    /// `idx`'s current image, read from the page file if not held.
    fn get(&mut self, idx: usize) -> Result<&mut (Vec<u8>, Flush)> {
        self.room_for(idx)?;
        match self.held.entry(idx) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let mut page = vec![0u8; self.backend.page_size()];
                self.backend.read(idx, &mut page)?;
                Ok(e.insert((page, Flush::Unchanged)))
            }
        }
    }

    /// Writes every held page that changed, in page-id order, and empties
    /// the map.
    fn flush(&mut self) -> Result<()> {
        for (idx, (mut page, flush)) in std::mem::take(&mut self.held) {
            match flush {
                Flush::Unchanged => continue,
                Flush::Unstamped => {}
                Flush::Stamped => stamp_page_crc(&mut page),
            }
            self.backend.write(idx, &page)?;
            self.rewritten += 1;
        }
        Ok(())
    }
}

/// Replays every valid WAL record from the checkpoint position `start`
/// (segment, LSN) onto `backend` and `allocated`, at most `batch` pages
/// at a time. Returns the scan report and the number of page writes.
///
/// Full images (v1 puts, v2 bases, allocs) replace the page outright —
/// which also repairs torn page-file writes, since the first record for
/// any page dirtied after the checkpoint is always a full image. Delta
/// records apply **iff newer than the page's stamped LSN**: the page file
/// may already hold the effects of any prefix of the log (the buffer pool
/// writes back on eviction), and the per-page LSN is what keeps
/// re-applying deltas over that state idempotent — also when a crash
/// stops replay between two batch flushes. Replayed images reach
/// `pages.db` exactly as the live write path would have written them: a
/// logged image carries whatever (stale) CRC the frame held, so it is
/// re-stamped, while an alloc's zero image stays unstamped.
fn replay(
    cfg: &DurableConfig,
    start: (u64, u64),
    backend: &dyn PageBackend,
    allocated: &mut Vec<bool>,
    stats: &StoreStats,
    batch: usize,
) -> Result<(ScanReport, u64)> {
    let mut pages = Replay {
        backend,
        batch,
        held: BTreeMap::new(),
        rewritten: 0,
    };
    let report = wal::scan(&cfg.dir, start.0, start.1, cfg.page_size + 8, |lsn, op| {
        let idx = replayed_index(&op, allocated, backend)?;
        match op {
            WalOp::Alloc(_) => {
                allocated[idx] = true;
                pages.set(idx, vec![0u8; cfg.page_size], Flush::Unstamped)?;
            }
            WalOp::Free(_) => allocated[idx] = false,
            WalOp::Put(_, mut data) => {
                replayed_image(&mut data, cfg.page_size, None)?;
                pages.set(idx, data, Flush::Stamped)?;
            }
            WalOp::PutBase(_, mut data) => {
                replayed_image(&mut data, cfg.page_size, Some(lsn))?;
                pages.set(idx, data, Flush::Stamped)?;
            }
            WalOp::PutDelta(pid, _, ranges) => {
                let (page, flush) = pages.get(idx)?;
                if apply_delta(page, pid, lsn, &ranges)? {
                    *flush = Flush::Stamped;
                } else {
                    StoreStats::bump(&stats.recovery_deltas_skipped);
                }
            }
        }
        Ok(())
    })?;
    pages.flush()?;
    Ok((report, pages.rewritten))
}

/// The per-record replay [`replay`] replaced: every record reads and
/// writes its page in the page file. Kept as the test oracle page-once
/// replay must match byte for byte.
#[cfg(test)]
fn replay_per_record(
    cfg: &DurableConfig,
    start: (u64, u64),
    backend: &dyn PageBackend,
    allocated: &mut Vec<bool>,
    stats: &StoreStats,
) -> Result<ScanReport> {
    wal::scan(&cfg.dir, start.0, start.1, cfg.page_size + 8, |lsn, op| {
        let idx = replayed_index(&op, allocated, backend)?;
        match op {
            WalOp::Alloc(_) => {
                allocated[idx] = true;
                backend.write(idx, &vec![0u8; cfg.page_size])?;
            }
            WalOp::Free(_) => allocated[idx] = false,
            WalOp::Put(_, mut data) => {
                replayed_image(&mut data, cfg.page_size, None)?;
                stamp_page_crc(&mut data);
                backend.write(idx, &data)?;
            }
            WalOp::PutBase(_, mut data) => {
                replayed_image(&mut data, cfg.page_size, Some(lsn))?;
                stamp_page_crc(&mut data);
                backend.write(idx, &data)?;
            }
            WalOp::PutDelta(pid, _, ranges) => {
                let mut page = vec![0u8; cfg.page_size];
                backend.read(idx, &mut page)?;
                if apply_delta(&mut page, pid, lsn, &ranges)? {
                    stamp_page_crc(&mut page);
                    backend.write(idx, &page)?;
                } else {
                    StoreStats::bump(&stats.recovery_deltas_skipped);
                }
            }
        }
        Ok(())
    })
}

/// A crash-recoverable page store in a directory (see module docs).
#[derive(Debug)]
pub struct DurableStore {
    cfg: DurableConfig,
    store: Arc<PageStore>,
    wal: Arc<Wal>,
    fault: Arc<FaultInjector>,
    recovery: RecoveryInfo,
}

impl DurableStore {
    /// [`DurableStore::open`] on a directory that holds no store yet;
    /// fails with [`StoreError::Config`] if it already holds one.
    pub fn create(cfg: DurableConfig) -> Result<DurableStore> {
        if cfg.meta_path().exists() {
            return Err(StoreError::Config("store directory already initialized"));
        }
        DurableStore::open(cfg)
    }

    /// Opens the store in `cfg.dir`, replaying the WAL (recovery). A
    /// directory that holds no store yet (no `meta`; created if missing)
    /// is initialized first. Fails with [`StoreError::Config`], before it
    /// touches the directory, if the log cannot carry pages of
    /// `cfg.page_size` (see [`StoreConfig::check_page_size`]).
    pub fn open(cfg: DurableConfig) -> Result<DurableStore> {
        cfg.store_config().check_page_size()?;
        if !cfg.meta_path().exists() {
            std::fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create store dir", e))?;
            write_meta_atomic(
                &cfg.dir,
                &cfg.meta_path(),
                &Meta {
                    page_size: cfg.page_size,
                    wal_start_seq: 1,
                    wal_start_lsn: 1,
                    allocated: Vec::new(),
                },
                None,
            )?;
        }
        let mut meta_bytes = Vec::new();
        File::open(cfg.meta_path())
            .and_then(|mut f| f.read_to_end(&mut meta_bytes))
            .map_err(|e| io_err("read meta", e))?;
        let meta = decode_meta(&meta_bytes)?;
        if meta.page_size != cfg.page_size {
            return Err(StoreError::Config("page size disagrees with store meta"));
        }

        let fault = Arc::new(FaultInjector::new());
        let stats = Arc::new(StoreStats::default());
        let backend: Box<dyn PageBackend> = Box::new(FileBackend::open(
            &cfg.pages_path(),
            cfg.page_size,
            Arc::clone(&fault),
        )?);
        let mut allocated = meta.allocated;
        backend.grow(allocated.len())?;

        let (report, pages_rewritten) = replay(
            &cfg,
            (meta.wal_start_seq, meta.wal_start_lsn),
            backend.as_ref(),
            &mut allocated,
            &stats,
            cfg.pool_frames.max(1),
        )?;
        StoreStats::add(&stats.recovery_replayed, report.replayed);

        Self::trim_log_tail(&cfg.dir, &report)?;
        backend.sync()?;

        let wal = Arc::new(Wal::open(
            &cfg.dir,
            cfg.fsync,
            cfg.segment_bytes,
            report.last_seg_seq,
            report.next_lsn,
            Arc::clone(&fault),
            Arc::clone(&stats),
        )?);
        let store = PageStore::with_parts(
            cfg.store_config(),
            backend,
            Some(Arc::clone(&wal) as Arc<dyn Journal>),
            stats,
            &allocated,
        )?;
        // One health latch for the whole store: a WAL fsync failure
        // poisons commits, syncs and checkpoints alike.
        wal.bind_health(store.health());
        let recovery = RecoveryInfo {
            replayed: report.replayed,
            pages_rewritten,
            torn_tail: report.torn,
            live_pages: store.live_pages(),
            capacity: store.capacity(),
        };
        Ok(DurableStore {
            cfg,
            store,
            wal,
            fault,
            recovery,
        })
    }

    /// Truncates the torn tail of the last valid segment and deletes any
    /// segments past it (unreachable after a mid-log tear).
    fn trim_log_tail(dir: &Path, report: &ScanReport) -> Result<()> {
        let last = wal::segment_path(dir, report.last_seg_seq);
        if last.exists() {
            let f = OpenOptions::new()
                .write(true)
                .open(&last)
                .map_err(|e| io_err("open segment for trim", e))?;
            f.set_len(report.last_seg_valid_len)
                .map_err(|e| io_err("truncate torn tail", e))?;
            f.sync_data()
                .map_err(|e| io_err("sync trimmed segment", e))?;
        }
        for seq in wal::list_segments(dir)? {
            if seq > report.last_seg_seq {
                std::fs::remove_file(wal::segment_path(dir, seq))
                    .map_err(|e| io_err("remove stale segment", e))?;
            }
        }
        Ok(())
    }

    /// The page store (attach a `BLinkTree` to it, run workloads, …).
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// What recovery did when this handle was opened.
    pub fn recovery(&self) -> &RecoveryInfo {
        &self.recovery
    }

    /// The fault-injection switch (tests; see [`FaultInjector`]).
    pub fn fault(&self) -> &Arc<FaultInjector> {
        &self.fault
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Checkpoints the store — **fuzzy**: readers and writers may run
    /// concurrently throughout. Equivalent to
    /// [`checkpoint_begin`](Self::checkpoint_begin) followed immediately by
    /// [`checkpoint_end`](Self::checkpoint_end); long-running callers can
    /// split the two to let more WAL accumulate behind the cut before
    /// paying the flush.
    pub fn checkpoint(&self) -> Result<()> {
        let token = self.checkpoint_begin()?;
        self.checkpoint_end(token)
    }

    /// Starts a fuzzy checkpoint: rotates the WAL (the **cut** — replay
    /// after this checkpoint starts at the returned segment) and opens a
    /// new base epoch, sandwiching the rotation between two epoch
    /// advances. Cheap — no page flushing happens here.
    ///
    /// ## Why every delta after the cut has a base after the cut
    ///
    /// Replay starts at the cut, and a delta record is only safe to replay
    /// (in particular: only able to repair a torn `pages.db` write of its
    /// page) when a full image of the page also lies at or after the cut.
    /// The delta gate in `PageStore::log_page_write` ensures that by
    /// requiring the page's last base record to carry the **current**
    /// epoch tag. Two races could break the gate, and the
    /// advance/rotate/advance sandwich closes both:
    ///
    /// * A base appended concurrently with `checkpoint_begin` could land
    ///   *before* the cut but be tagged with the *new* epoch (so later
    ///   deltas never re-base). Cannot happen: to be tagged with the
    ///   post-sandwich epoch, the writer must load that epoch value before
    ///   appending (`note_base` tags 0 when the epoch changed across the
    ///   append). That `Acquire` load synchronizes with the second
    ///   advance's `Release`, which the rotation's LSN cut happens-before
    ///   — so the record's LSN is assigned after the cut and lands in the
    ///   new tail.
    /// * A base appended entirely *before* the first advance keeps the old
    ///   tag, which the next delta attempt sees as stale and re-bases.
    ///
    /// Deltas already in flight during `begin` (old-epoch base, LSN at or
    /// after the cut) are harmless: `checkpoint_end`'s flush writes their
    /// page to `pages.db` with a page LSN at least theirs, so replay's
    /// LSN gate skips them; and any *later* `pages.db` write of that page
    /// implies a later put, which re-based through the stale-epoch gate.
    pub fn checkpoint_begin(&self) -> Result<CheckpointToken> {
        self.store.advance_checkpoint_epoch();
        let (seq, lsn) = self.wal.rotate_for_checkpoint()?;
        self.store.advance_checkpoint_epoch();
        Ok(CheckpointToken {
            begin_seq: seq,
            begin_lsn: lsn,
        })
    }

    /// Completes a fuzzy checkpoint: flushes every page image from before
    /// the cut to `pages.db` (the writer barrier in
    /// `PageStore::flush_for_checkpoint`), snapshots the free map into
    /// `meta` pointing replay at the cut, and only then deletes the
    /// segments before it. A crash anywhere up to the final meta rename
    /// recovers from the *previous* checkpoint with all its segments still
    /// present.
    pub fn checkpoint_end(&self, token: CheckpointToken) -> Result<()> {
        self.store.flush_for_checkpoint()?;
        // Snapshot the free map *after* the flush: alloc/free records
        // since the cut are still replayed (idempotently) on recovery, so
        // the map only needs to be current as of some point after the
        // cut.
        let capacity = self.store.capacity();
        let mut allocated = vec![false; capacity];
        for pid in self.store.allocated_pages() {
            allocated[(pid.to_raw() - 1) as usize] = true;
        }
        write_meta_atomic(
            &self.cfg.dir,
            &self.cfg.meta_path(),
            &Meta {
                page_size: self.cfg.page_size,
                wal_start_seq: token.begin_seq,
                wal_start_lsn: token.begin_lsn,
                allocated,
            },
            Some(&self.fault),
        )?;
        for old in wal::list_segments(&self.cfg.dir)? {
            if old < token.begin_seq {
                std::fs::remove_file(wal::segment_path(&self.cfg.dir, old))
                    .map_err(|e| io_err("remove checkpointed segment", e))?;
            }
        }
        Ok(())
    }

    /// Flushes the WAL and page file (clean-shutdown barrier).
    pub fn sync(&self) -> Result<()> {
        self.store.sync()
    }

    /// Runs `f` with WAL commit deferral: every record the scope appends
    /// is written to the segment file immediately (the commit point for
    /// crash semantics) but the fsync-policy commit runs **once** at scope
    /// exit instead of per record — a multi-record operation (a KV put
    /// touching heap + index pages) pays one commit wait, not several. The
    /// deferred commit's error is returned alongside `f`'s output; it
    /// surfaces even when `f` itself failed.
    pub fn with_deferred_commit<T>(&self, f: impl FnOnce() -> T) -> (T, Result<()>) {
        self.wal.deferred_scope(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_pagestore::{Page, PageId};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("blink-ds-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: &Path) -> DurableConfig {
        DurableConfig {
            page_size: 128,
            fsync: FsyncPolicy::Never,
            segment_bytes: 4096,
            ..DurableConfig::new(dir)
        }
    }

    #[test]
    fn create_open_roundtrip_preserves_pages() {
        let dir = tmpdir("roundtrip");
        let (a, b);
        {
            let ds = DurableStore::create(cfg(&dir)).unwrap();
            let store = ds.store();
            a = store.alloc().unwrap();
            b = store.alloc().unwrap();
            let mut p = Page::zeroed(128);
            p.bytes_mut().fill(0x3C);
            store.put(a, &p).unwrap();
            store.free(b).unwrap();
            ds.sync().unwrap();
        }
        let ds = DurableStore::open(cfg(&dir)).unwrap();
        assert_eq!(ds.recovery().replayed, 4); // alloc, alloc, put, free
        let store = ds.store();
        assert!(store.is_allocated(a));
        assert!(!store.is_allocated(b));
        assert_eq!(store.get(a).unwrap().bytes()[5], 0x3C);
        assert_eq!(store.live_pages(), 1);
        // The freed page is reusable after recovery.
        assert_eq!(store.alloc().unwrap(), b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_twice_fails() {
        let dir = tmpdir("twice");
        let _ds = DurableStore::create(cfg(&dir)).unwrap();
        assert!(matches!(
            DurableStore::create(cfg(&dir)),
            Err(StoreError::Config(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_initializes_a_new_directory_and_a_reopen_recovers_it() {
        let dir = tmpdir("open-new");
        let a;
        {
            let ds = DurableStore::open(cfg(&dir)).unwrap();
            assert!(dir.join("meta").exists(), "open initialized the directory");
            assert_eq!(ds.recovery().replayed, 0);
            a = ds.store().alloc().unwrap();
            let mut p = Page::zeroed(128);
            p.bytes_mut().fill(0x5A);
            ds.store().put(a, &p).unwrap();
            ds.sync().unwrap();
        }
        let ds = DurableStore::open(cfg(&dir)).unwrap();
        assert_eq!(ds.recovery().replayed, 2); // alloc, put
        assert_eq!(ds.store().get(a).unwrap().bytes()[5], 0x5A);
        drop(ds);
        assert!(matches!(
            DurableStore::create(cfg(&dir)),
            Err(StoreError::Config(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn page_sizes_the_log_cannot_carry_are_rejected() {
        // Below 24 B there is no room for the LSN and CRC field; above
        // 64 KiB delta offsets overflow their `u16`.
        let dir = tmpdir("badpsize");
        for page_size in [16, 128 << 10] {
            let bad = DurableConfig {
                page_size,
                ..cfg(&dir)
            };
            assert!(matches!(
                DurableStore::create(bad.clone()),
                Err(StoreError::Config(_))
            ));
            assert!(!dir.exists(), "a rejected create leaves no directory");
            assert!(matches!(
                DurableStore::open(bad),
                Err(StoreError::Config(_))
            ));
        }
    }

    #[test]
    fn page_size_mismatch_is_rejected() {
        let dir = tmpdir("psize");
        drop(DurableStore::create(cfg(&dir)).unwrap());
        let wrong = DurableConfig {
            page_size: 256,
            ..cfg(&dir)
        };
        assert!(matches!(
            DurableStore::open(wrong),
            Err(StoreError::Config(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_crash_recovers_exactly_the_durable_prefix() {
        let dir = tmpdir("crash");
        {
            let ds = DurableStore::create(cfg(&dir)).unwrap();
            let store = ds.store();
            let a = store.alloc().unwrap(); // record 1
            let mut p = Page::zeroed(128);
            // alloc(a) is already record 1; allow two more (put#1, put#2),
            // so put#3 dies and the durable prefix is 3 records.
            ds.fault().crash_after_wal_records(2);
            p.bytes_mut().fill(1);
            store.put(a, &p).unwrap(); // record 2
            p.bytes_mut().fill(2);
            store.put(a, &p).unwrap(); // record 3
            p.bytes_mut().fill(3);
            assert!(matches!(store.put(a, &p), Err(StoreError::Io(_))));
            assert!(matches!(store.alloc(), Err(StoreError::Io(_))));
        }
        let ds = DurableStore::open(cfg(&dir)).unwrap();
        assert_eq!(ds.recovery().replayed, 3);
        let store = ds.store();
        let a = PageId::from_raw(1).unwrap();
        assert_eq!(
            store.get(a).unwrap().bytes()[0],
            2,
            "state is exactly as of the last durable record"
        );
        assert_eq!(store.live_pages(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_append_poisons_and_reopen_replays_the_prefix() {
        use crate::fault::{FaultKind, FaultPlan};
        let dir = tmpdir("tornappend");
        let a;
        {
            let ds = DurableStore::create(cfg(&dir)).unwrap();
            let store = ds.store();
            a = store.alloc().unwrap(); // record 1
            let mut p = Page::zeroed(128);
            p.bytes_mut().fill(1);
            store.put(a, &p).unwrap(); // record 2
            p.bytes_mut().fill(2);
            store.put(a, &p).unwrap(); // record 3

            // The next append writes 10 bytes of its record, then fails.
            ds.fault().set_plan(FaultPlan::new().fail_nth(
                FaultSite::WalAppend,
                1,
                FaultKind::TornWrite(10),
            ));
            p.bytes_mut().fill(3);
            assert_eq!(store.put(a, &p), Err(StoreError::Poisoned));
            ds.fault().clear_plan();
            // Nothing may follow the torn record: appends and commits alike.
            assert_eq!(store.put(a, &p), Err(StoreError::Poisoned));
            assert_eq!(store.alloc(), Err(StoreError::Poisoned));
            assert_eq!(ds.sync(), Err(StoreError::Poisoned));
        }
        let ds = DurableStore::open(cfg(&dir)).unwrap();
        assert_eq!(ds.recovery().replayed, 3);
        assert!(ds.recovery().torn_tail, "the torn record is discarded");
        assert_eq!(ds.store().get(a).unwrap().bytes()[0], 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_bounds_replay_and_discards_segments() {
        let dir = tmpdir("ckpt");
        let a;
        {
            let ds = DurableStore::create(cfg(&dir)).unwrap();
            let store = ds.store();
            a = store.alloc().unwrap();
            let mut p = Page::zeroed(128);
            for i in 0..100u8 {
                p.bytes_mut().fill(i);
                store.put(a, &p).unwrap();
            }
            ds.checkpoint().unwrap();
            // Two more records after the checkpoint.
            p.bytes_mut().fill(0xEE);
            store.put(a, &p).unwrap();
            let b = store.alloc().unwrap();
            let _ = b;
            ds.sync().unwrap();
        }
        let ds = DurableStore::open(cfg(&dir)).unwrap();
        assert_eq!(
            ds.recovery().replayed,
            2,
            "only post-checkpoint records replay"
        );
        assert_eq!(ds.store().get(a).unwrap().bytes()[0], 0xEE);
        assert_eq!(ds.store().live_pages(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn tracked_write(store: &Arc<PageStore>, pid: PageId, off: usize, byte: u8) {
        use blink_pagestore::WriteIntent;
        let mut w = store.write_page(pid, WriteIntent::Update).unwrap();
        w.write_at(off, &[byte; 4]);
        w.commit().unwrap();
    }

    fn assert_pattern(store: &Arc<PageStore>, pid: PageId) {
        let g = store.get(pid).unwrap();
        for i in 0..5u8 {
            assert!(
                g.bytes()[40 + i as usize * 4..][..4]
                    .iter()
                    .all(|&b| b == i + 1),
                "delta effects lost at range {i}"
            );
        }
    }

    #[test]
    fn delta_replay_rebuilds_an_unflushed_page_exactly() {
        // Drop without sync: pages.db never saw the frames, so replay must
        // rebuild the page purely from the base + delta chain.
        let dir = tmpdir("deltabuild");
        let pid;
        {
            let ds = DurableStore::create(cfg(&dir)).unwrap();
            pid = ds.store().alloc().unwrap();
            for i in 0..5u8 {
                tracked_write(ds.store(), pid, 40 + i as usize * 4, i + 1);
            }
        }
        let ds = DurableStore::open(cfg(&dir)).unwrap();
        let snap = ds.store().stats().snapshot();
        assert_eq!(
            snap.recovery_deltas_skipped, 0,
            "a stale page file gates nothing"
        );
        assert_pattern(ds.store(), pid);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_replay_gates_on_the_page_lsn() {
        // The per-page LSN gate is the safety net for states the epoch
        // discipline cannot see: a crash *during* recovery, or a page-file
        // write-back racing the crash, leaves pages.db already carrying
        // some replayed deltas' effects (and their stamped LSNs) while the
        // log still holds the same records. Build that state by hand:
        // a post-checkpoint log holding only deltas, with the first
        // delta's effects (and LSN) already in the page file.
        let dir = tmpdir("deltagate");
        {
            let ds = DurableStore::create(cfg(&dir)).unwrap();
            let pid = ds.store().alloc().unwrap(); // lsn 1
            assert_eq!(pid.to_raw(), 1);
            tracked_write(ds.store(), pid, 40, 0xEE); // delta, lsn 2
            ds.checkpoint().unwrap(); // rotates to segment 2, next lsn 3
        }
        // Append two deltas (lsns 3 and 4) the way a pre-crash store did.
        {
            let w = Wal::open(
                &dir,
                FsyncPolicy::Never,
                1 << 20,
                2,
                3,
                Arc::new(FaultInjector::new()),
                Arc::new(StoreStats::default()),
            )
            .unwrap();
            assert_eq!(
                w.log_put_delta(pid_raw(1), 2, &[(60, &[0xAB; 4])]).unwrap(),
                3
            );
            assert_eq!(
                w.log_put_delta(pid_raw(1), 3, &[(70, &[0xCD; 4])]).unwrap(),
                4
            );
        }
        // Apply delta 3 to pages.db by hand (its effects + stamped LSN
        // reached the file; delta 4's did not).
        {
            use std::os::unix::fs::FileExt;
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .open(dir.join("pages.db"))
                .unwrap();
            let mut page = vec![0u8; 128];
            f.read_exact_at(&mut page, 0).unwrap();
            page[60..64].copy_from_slice(&[0xAB; 4]);
            blink_pagestore::set_page_lsn(&mut page, 3);
            // The live write-back would have stamped the CRC; mirror it
            // so the verified read path accepts this hand-built state.
            blink_pagestore::stamp_page_crc(&mut page);
            f.write_all_at(&page, 0).unwrap();
        }
        let ds = DurableStore::open(cfg(&dir)).unwrap();
        assert_eq!(ds.recovery().replayed, 2);
        let snap = ds.store().stats().snapshot();
        assert_eq!(
            snap.recovery_deltas_skipped, 1,
            "the already-applied delta must be skipped, the missing one applied"
        );
        let g = ds.store().get(pid_raw(1)).unwrap();
        assert!(g.bytes()[40..44].iter().all(|&b| b == 0xEE));
        assert!(g.bytes()[60..64].iter().all(|&b| b == 0xAB));
        assert!(g.bytes()[70..74].iter().all(|&b| b == 0xCD));
        assert_eq!(blink_pagestore::page_lsn(g.bytes()), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn pid_raw(n: u32) -> PageId {
        PageId::from_raw(n).unwrap()
    }

    fn next(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Leaves a crashed directory whose WAL holds allocs, frees, a
    /// re-alloc, v2 bases (fresh frames and re-bases) and deltas (field
    /// writes, re-encodes, and shifts logged as moves), part of it already
    /// written back — so replay meets stale pages and current ones. Its
    /// tail holds a v1 image and a v2 delta, as older stores wrote them,
    /// and the state
    /// `delta_replay_gates_on_the_page_lsn` builds: two deltas for a page
    /// with no base after the cut, the first already in the page file, so
    /// the LSN gate skips one.
    fn crashed_mixed_log(dir: &Path) {
        use blink_pagestore::WriteIntent;
        let cfg = DurableConfig {
            pool_frames: 3,
            ..cfg(dir)
        };
        let ds = DurableStore::create(cfg).unwrap();
        let store = ds.store();
        let pids: Vec<PageId> = (0..6).map(|_| store.alloc().unwrap()).collect();
        let quiet = store.alloc().unwrap();
        tracked_write(store, quiet, 40, 0xEE);
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..400u32 {
            // Write-backs make replay meet pages newer than some records.
            if step % 37 == 36 {
                ds.sync().unwrap();
            }
            if step == 150 {
                ds.checkpoint().unwrap();
            }
            let pid = pids[next(&mut rng) as usize % pids.len()];
            let fill = next(&mut rng) as u8;
            match next(&mut rng) % 8 {
                0 => {
                    // A whole-page put, caller bytes in the reserved field.
                    let mut p = Page::zeroed(128);
                    p.bytes_mut().fill(fill | 1);
                    store.put(pid, &p).unwrap();
                }
                1 | 2 => {
                    // Untracked re-encode: reserved field left zero.
                    let mut w = store.write_page(pid, WriteIntent::Overwrite).unwrap();
                    let b = w.bytes_mut();
                    b[..12].fill(fill);
                    for (i, x) in b[24..24 + (fill as usize % 100)].iter_mut().enumerate() {
                        *x = fill ^ 0x55 ^ (i as u8).wrapping_mul(29);
                    }
                    w.commit().unwrap();
                }
                3 => {
                    // Free and re-allocate (LIFO free list: the same page).
                    store.free(pid).unwrap();
                    assert_eq!(store.alloc().unwrap(), pid);
                }
                4 => shift_write(store, pid, fill),
                _ => tracked_write(store, pid, 24 + fill as usize % 96, fill),
            }
        }
        // Crash: drop without sync.
        drop(ds);
        let meta = decode_meta(&std::fs::read(dir.join("meta")).unwrap()).unwrap();
        let tail = wal::scan(dir, meta.wal_start_seq, meta.wal_start_lsn, 136, |_, _| {
            Ok(())
        })
        .unwrap();
        let w = Wal::open(
            dir,
            FsyncPolicy::Never,
            1 << 20,
            tail.last_seg_seq,
            tail.next_lsn,
            Arc::new(FaultInjector::new()),
            Arc::new(StoreStats::default()),
        )
        .unwrap();
        w.log_put_v1(pids[0], &[0x5A; 128]).unwrap();
        let lsn = w.log_put_delta_v2(quiet, 0, &[(60, &[0xAB; 4])]).unwrap();
        w.log_put_delta(quiet, lsn, &[(70, &[0xCD; 4])]).unwrap();
        drop(w);
        use std::os::unix::fs::FileExt;
        let f = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join("pages.db"))
            .unwrap();
        let at = u64::from(quiet.to_raw() - 1) * 128;
        let mut page = vec![0u8; 128];
        f.read_exact_at(&mut page, at).unwrap();
        page[60..64].fill(0xAB);
        set_page_lsn(&mut page, lsn);
        stamp_page_crc(&mut page);
        f.write_all_at(&page, at).unwrap();
    }

    /// An insert- or remove-shaped write: everything from byte 24 to the
    /// page end shifted up or down by 1..=32 bytes, the uncovered bytes
    /// refilled — a run next to the reserved field and one that ends at
    /// the page end.
    fn shift_write(store: &Arc<PageStore>, pid: PageId, fill: u8) {
        use blink_pagestore::WriteIntent;
        let mut w = store.write_page(pid, WriteIntent::Update).unwrap();
        let b = w.bytes_mut();
        let (s, end) = (1 + fill as usize % 32, b.len());
        if fill.is_multiple_of(2) {
            b.copy_within(24..end - s, 24 + s);
            b[24..24 + s].fill(fill);
        } else {
            b.copy_within(24 + s..end, 24);
            b[end - s..].fill(fill);
        }
        w.commit().unwrap();
    }

    fn copy_dir(from: &Path, to: &Path) {
        let _ = std::fs::remove_dir_all(to);
        std::fs::create_dir_all(to).unwrap();
        for e in std::fs::read_dir(from).unwrap() {
            let e = e.unwrap();
            std::fs::copy(e.path(), to.join(e.file_name())).unwrap();
        }
    }

    /// What [`replay_dir`] left: the page file, the allocation map, the
    /// page writes (page-once replay only) and the deltas the LSN gate
    /// skipped.
    type Replayed = (Vec<u8>, Vec<bool>, u64, u64);

    /// Replays `dir` in place, page-once with `batch` or (`None`) per
    /// record.
    fn replay_dir(dir: &Path, batch: Option<usize>) -> Replayed {
        let cfg = cfg(dir);
        let meta = decode_meta(&std::fs::read(cfg.meta_path()).unwrap()).unwrap();
        let backend =
            FileBackend::open(&cfg.pages_path(), 128, Arc::new(FaultInjector::new())).unwrap();
        let mut allocated = meta.allocated;
        backend.grow(allocated.len()).unwrap();
        let start = (meta.wal_start_seq, meta.wal_start_lsn);
        let stats = StoreStats::default();
        let rewritten = match batch {
            Some(b) => {
                replay(&cfg, start, &backend, &mut allocated, &stats, b)
                    .unwrap()
                    .1
            }
            None => {
                replay_per_record(&cfg, start, &backend, &mut allocated, &stats).unwrap();
                0
            }
        };
        backend.sync().unwrap();
        drop(backend);
        (
            std::fs::read(cfg.pages_path()).unwrap(),
            allocated,
            rewritten,
            stats.snapshot().recovery_deltas_skipped,
        )
    }

    #[test]
    fn page_once_replay_writes_what_per_record_replay_writes() {
        let dir = tmpdir("pageonce");
        crashed_mixed_log(&dir);
        let scratch = tmpdir("pageonce-copy");
        copy_dir(&dir, &scratch);
        let meta = decode_meta(&std::fs::read(dir.join("meta")).unwrap()).unwrap();
        let mut kinds = [0u32; 6];
        wal::scan(
            &dir,
            meta.wal_start_seq,
            meta.wal_start_lsn,
            136,
            |_, op| {
                kinds[match op {
                    WalOp::Alloc(_) => 0,
                    WalOp::Free(_) => 1,
                    WalOp::Put(..) => 2,
                    WalOp::PutBase(..) => 3,
                    WalOp::PutDelta(_, _, edits)
                        if edits.iter().any(|e| matches!(e, PageEdit::Move { .. })) =>
                    {
                        5
                    }
                    WalOp::PutDelta(..) => 4,
                }] += 1;
                Ok(())
            },
        )
        .unwrap();
        assert!(kinds.iter().all(|&n| n > 0), "record kinds {kinds:?}");
        let (oracle, oracle_alloc, _, oracle_skipped) = replay_dir(&scratch, None);
        assert!(oracle_skipped > 0, "no delta met a newer page");
        for batch in [1, 2, 1024] {
            copy_dir(&dir, &scratch);
            let (pages, alloc, rewritten, skipped) = replay_dir(&scratch, Some(batch));
            assert!(pages == oracle, "batch {batch}: page file differs");
            assert_eq!(alloc, oracle_alloc, "batch {batch}: free map differs");
            assert_eq!(skipped, oracle_skipped, "batch {batch}: LSN gate differs");
            assert!(rewritten > 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    /// Writes random shifted runs (and whole varied rewrites, syncs and
    /// checkpoints) to two pages at `pool_frames`, crashes, and checks
    /// that page-once replay at batches 1, 2 and 1024 and the per-record
    /// oracle all rebuild the pages the live store held.
    fn shifted_writes_replay_exactly(seed: u64, steps: usize, pool_frames: usize) {
        use blink_pagestore::WriteIntent;
        let dir = tmpdir(&format!("shifts-{pool_frames}"));
        let cfg = DurableConfig {
            pool_frames,
            ..cfg(&dir)
        };
        let mut rng = seed | 1;
        let (pids, live): (Vec<PageId>, Vec<Vec<u8>>) = {
            let ds = DurableStore::create(cfg).unwrap();
            let store = ds.store();
            let pids: Vec<PageId> = (0..2).map(|_| store.alloc().unwrap()).collect();
            for _ in 0..steps {
                let pid = pids[next(&mut rng) as usize % 2];
                let fill = next(&mut rng) as u8;
                match next(&mut rng) % 8 {
                    0 => ds.sync().unwrap(),
                    1 => ds.checkpoint().unwrap(),
                    2 => {
                        let mut w = store.write_page(pid, WriteIntent::Update).unwrap();
                        let mut x = next(&mut rng);
                        for b in w.bytes_mut()[24..].iter_mut() {
                            *b = next(&mut x) as u8;
                        }
                        w.commit().unwrap();
                    }
                    _ => shift_write(store, pid, fill),
                }
            }
            let live = pids
                .iter()
                .map(|&p| store.get(p).unwrap().bytes().to_vec())
                .collect();
            (pids, live)
            // Crash: drop without sync.
        };
        let scratch = tmpdir(&format!("shifts-{pool_frames}-copy"));
        copy_dir(&dir, &scratch);
        let (oracle, ..) = replay_dir(&scratch, None);
        for (pid, want) in pids.iter().zip(&live) {
            let at = (pid.to_raw() - 1) as usize * 128;
            let got = &oracle[at..at + 128];
            assert_eq!(got[..PAGE_LSN_OFFSET], want[..PAGE_LSN_OFFSET], "{pid}");
            assert_eq!(got[PAGE_RESERVED_END..], want[PAGE_RESERVED_END..], "{pid}");
        }
        for batch in [1, 2, 1024] {
            copy_dir(&dir, &scratch);
            let (pages, ..) = replay_dir(&scratch, Some(batch));
            assert!(
                pages == oracle,
                "batch {batch}: page file differs from the oracle's"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 24,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn shifted_writes_replay_like_the_live_store_and_the_oracle(
            seed in proptest::prelude::any::<u64>(),
            steps in 1usize..60,
        ) {
            shifted_writes_replay_exactly(seed, steps, 2);
            shifted_writes_replay_exactly(seed, steps, 0);
        }
    }

    #[test]
    fn a_segment_from_a_newer_build_fails_the_open_and_changes_no_file() {
        let dir = tmpdir("newer");
        {
            let ds = DurableStore::create(cfg(&dir)).unwrap();
            let pid = ds.store().alloc().unwrap();
            tracked_write(ds.store(), pid, 40, 7);
            ds.sync().unwrap();
        }
        let seg = wal::segment_path(&dir, 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[4..8].copy_from_slice(&(wal::SEG_VERSION + 1).to_le_bytes());
        std::fs::write(&seg, &bytes).unwrap();
        let pages = std::fs::read(dir.join("pages.db")).unwrap();
        let err = DurableStore::open(cfg(&dir)).unwrap_err();
        assert!(matches!(err, StoreError::Config(_)), "{err:?}");
        assert_eq!(
            std::fs::read(&seg).unwrap(),
            bytes,
            "the segment was changed"
        );
        assert_eq!(std::fs::read(dir.join("pages.db")).unwrap(), pages);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_v2_log_continued_in_v3_segments_replays() {
        let dir = tmpdir("v2v3");
        drop(DurableStore::create(cfg(&dir)).unwrap());
        // A version-2 build's segment: an alloc, a base and a v2 delta...
        let w = Wal::open(
            &dir,
            FsyncPolicy::Never,
            1 << 20,
            1,
            1,
            Arc::new(FaultInjector::new()),
            Arc::new(StoreStats::default()),
        )
        .unwrap();
        let pid = pid_raw(1);
        w.log_alloc(pid).unwrap();
        let mut image: Vec<u8> = (0..128u32).map(|i| (i * 7) as u8).collect();
        image[PAGE_LSN_OFFSET..PAGE_RESERVED_END].fill(0);
        let lsn = w.log_put_base(pid, &image).unwrap();
        let lsn = w.log_put_delta_v2(pid, lsn, &[(30, &[0xAA; 3])]).unwrap();
        image[30..33].fill(0xAA);
        // ...then this build's: a rotation and an edit record with a move.
        w.rotate_for_checkpoint().unwrap();
        let edits = [
            PageEdit::Move {
                dst: 40,
                src: 24,
                len: 80,
            },
            PageEdit::Bytes(24, &[0xBB; 16][..]),
        ];
        w.log_put_edits(pid, lsn, &edits).unwrap();
        drop(w);
        image.copy_within(24..104, 40);
        image[24..40].fill(0xBB);
        let seg1 = wal::segment_path(&dir, 1);
        let mut bytes = std::fs::read(&seg1).unwrap();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&seg1, &bytes).unwrap();
        let ds = DurableStore::open(cfg(&dir)).unwrap();
        assert_eq!(ds.recovery().replayed, 4);
        assert!(!ds.recovery().torn_tail);
        let got = ds.store().get(pid).unwrap();
        assert_eq!(got.bytes()[..PAGE_LSN_OFFSET], image[..PAGE_LSN_OFFSET]);
        assert_eq!(got.bytes()[PAGE_RESERVED_END..], image[PAGE_RESERVED_END..]);
        assert_eq!(page_lsn(got.bytes()), 4);
        drop(ds);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_move_or_range_past_the_page_is_corrupt_on_replay() {
        let pid = pid_raw(1);
        let mut page = vec![0u8; 128];
        let bad = [
            PageEdit::Move {
                dst: 100,
                src: 24,
                len: 29,
            },
            PageEdit::Move {
                dst: 24,
                src: 120,
                len: 9,
            },
            PageEdit::Move {
                dst: 24,
                src: 8,
                len: 8,
            },
            PageEdit::Bytes(127, vec![1, 2]),
        ];
        for edit in bad {
            let err = apply_delta(&mut page, pid, 5, std::slice::from_ref(&edit)).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt { .. }),
                "{edit:?}: {err:?}"
            );
        }
        // At the edges, it applies.
        let ok = [
            PageEdit::Move {
                dst: 99,
                src: 24,
                len: 29,
            },
            PageEdit::Bytes(126, vec![1, 2]),
        ];
        assert!(apply_delta(&mut page, pid, 5, &ok).unwrap());
    }

    #[test]
    fn replay_interrupted_between_batches_converges() {
        // A crash between two batch flushes leaves some pages replayed and
        // the rest as they were. Model every such state (and more): rewind
        // a random subset of replayed pages to their pre-replay bytes, then
        // replay again.
        let dir = tmpdir("pageonce-crash");
        crashed_mixed_log(&dir);
        let before = std::fs::read(dir.join("pages.db")).unwrap();
        let scratch = tmpdir("pageonce-crash-copy");
        copy_dir(&dir, &scratch);
        let (oracle, ..) = replay_dir(&scratch, None);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..8 {
            copy_dir(&dir, &scratch);
            let (mut pages, ..) = replay_dir(&scratch, Some(2));
            for (i, page) in pages.chunks_mut(128).enumerate() {
                if (i + 1) * 128 <= before.len() && next(&mut rng).is_multiple_of(2) {
                    page.copy_from_slice(&before[i * 128..(i + 1) * 128]);
                }
            }
            std::fs::write(scratch.join("pages.db"), &pages).unwrap();
            let batch = [1, 2, 1024][round % 3];
            let (again, ..) = replay_dir(&scratch, Some(batch));
            assert!(again == oracle, "round {round}: second replay diverged");
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    #[test]
    fn recovery_reports_one_write_per_touched_page() {
        let dir = tmpdir("rewritten");
        crashed_mixed_log(&dir);
        let meta = decode_meta(&std::fs::read(dir.join("meta")).unwrap()).unwrap();
        let mut touched = std::collections::HashSet::new();
        wal::scan(
            &dir,
            meta.wal_start_seq,
            meta.wal_start_lsn,
            136,
            |_, op| {
                match op {
                    WalOp::Free(_) => {}
                    WalOp::Alloc(pid)
                    | WalOp::Put(pid, _)
                    | WalOp::PutBase(pid, _)
                    | WalOp::PutDelta(pid, _, _) => {
                        touched.insert(pid);
                    }
                }
                Ok(())
            },
        )
        .unwrap();
        assert!(!touched.is_empty());
        // The default pool holds every page: one batch.
        let ds = DurableStore::open(cfg(&dir)).unwrap();
        assert_eq!(ds.recovery().pages_rewritten, touched.len() as u64);
        drop(ds);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_after_recovery_continues_the_log() {
        let dir = tmpdir("continue");
        {
            let ds = DurableStore::create(cfg(&dir)).unwrap();
            let a = ds.store().alloc().unwrap();
            let _ = a;
        }
        {
            let ds = DurableStore::open(cfg(&dir)).unwrap();
            let b = ds.store().alloc().unwrap();
            assert_eq!(b.to_raw(), 2);
        }
        let ds = DurableStore::open(cfg(&dir)).unwrap();
        assert_eq!(ds.recovery().replayed, 2);
        assert_eq!(ds.store().live_pages(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
