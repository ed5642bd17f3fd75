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
//! 2. replay every valid WAL record in order — allocs re-zero pages, puts
//!    rewrite full page images (fixing any torn page-file writes), frees
//!    update the map;
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

use crate::backend::{FileBackend, MmapBackend};
use crate::crc::crc32;
use crate::fault::{FaultInjector, FaultOutcome, FaultSite};
use crate::wal::{self, io_err, FsyncPolicy, ScanReport, Wal, WalOp};
use blink_pagestore::{
    page_lsn, set_page_lsn, stamp_page_crc, Journal, PageBackend, PageStore, Result, StoreConfig,
    StoreError, StoreStats,
};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

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
    /// Serve backend page reads from a read-only `mmap` of `pages.db`
    /// (zero syscalls on the pool-miss read path) instead of `pread`.
    /// Defaults from the `BLINK_MMAP=1` environment variable so the whole
    /// test suite can run against the mapped backend.
    pub mmap_backend: bool,
}

impl DurableConfig {
    /// Defaults: 4 KiB pages, 8 MiB segments, fsync on every commit.
    pub fn new(dir: impl Into<PathBuf>) -> DurableConfig {
        DurableConfig {
            dir: dir.into(),
            page_size: 4096,
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 20,
            pool_frames: 1024,
            mmap_backend: std::env::var("BLINK_MMAP").is_ok_and(|v| v == "1"),
        }
    }

    /// Same, with group commit in a `window` (a good throughput default:
    /// `Duration::from_micros(500)`).
    pub fn with_group_commit(dir: impl Into<PathBuf>, window: Duration) -> DurableConfig {
        DurableConfig {
            fsync: FsyncPolicy::Group { window },
            ..DurableConfig::new(dir)
        }
    }

    /// Every durable store runs a background flusher (dirty frames drain
    /// to `pages.db` between watermarks, so foreground evictions find
    /// clean victims) and store-owned per-page CRC32 (stamped on every
    /// backend write, verified on every pool-miss read, so a torn write
    /// or bit rot surfaces as `StoreError::ChecksumMismatch`).
    fn store_config(&self) -> StoreConfig {
        StoreConfig {
            page_size: self.page_size,
            io_delay: None,
            pool_frames: self.pool_frames,
            background_flusher: true,
            page_checksums: true,
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
    /// Initializes a fresh store directory. Fails if one already exists.
    pub fn create(cfg: DurableConfig) -> Result<DurableStore> {
        std::fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create store dir", e))?;
        if cfg.meta_path().exists() {
            return Err(StoreError::Config("store directory already initialized"));
        }
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
        DurableStore::open(cfg)
    }

    /// Opens an existing store directory, replaying the WAL (recovery).
    pub fn open(cfg: DurableConfig) -> Result<DurableStore> {
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
        let backend: Box<dyn PageBackend> = if cfg.mmap_backend {
            Box::new(MmapBackend::open(
                &cfg.pages_path(),
                cfg.page_size,
                Arc::clone(&fault),
            )?)
        } else {
            Box::new(FileBackend::open(
                &cfg.pages_path(),
                cfg.page_size,
                Arc::clone(&fault),
            )?)
        };
        let mut allocated = meta.allocated;
        backend.grow(allocated.len())?;

        // Replay: every valid record, in order, over the page file. Full
        // images (v1 puts, v2 bases, allocs) rewrite the page outright —
        // which also repairs torn page-file writes, since the first
        // record for any page dirtied after the checkpoint is always a
        // full image. Delta records apply **iff newer than the page's
        // stamped LSN**: the page file may already hold the effects of
        // any prefix of the log (the buffer pool writes back on eviction),
        // and the per-page LSN is what keeps re-applying deltas over that
        // state idempotent. Replayed images must reach `pages.db` exactly
        // as the live write path would have written them: a logged image
        // carries whatever (stale) CRC the frame held, so it is re-stamped
        // before writing or the repaired page would fail its next verified
        // read. Alloc's zero image stays unstamped to match the live alloc
        // path (an all-zero page reads back as unstamped).
        let zero = vec![0u8; cfg.page_size];
        let report = wal::scan(
            &cfg.dir,
            meta.wal_start_seq,
            meta.wal_start_lsn,
            cfg.page_size + 8,
            |lsn, op| {
                let pid = match &op {
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
                match op {
                    WalOp::Alloc(_) => {
                        allocated[idx] = true;
                        backend.write(idx, &zero)?;
                    }
                    WalOp::Free(_) => allocated[idx] = false,
                    WalOp::Put(_, mut data) => {
                        if data.len() != cfg.page_size {
                            return Err(StoreError::corrupt("wal put with wrong page size"));
                        }
                        stamp_page_crc(&mut data);
                        backend.write(idx, &data)?;
                    }
                    WalOp::PutBase(_, mut data) => {
                        if data.len() != cfg.page_size {
                            return Err(StoreError::corrupt("wal put with wrong page size"));
                        }
                        // The live store stamped this LSN into the frame
                        // right after appending; mirror it so the replayed
                        // page file carries the same image.
                        set_page_lsn(&mut data, lsn);
                        stamp_page_crc(&mut data);
                        backend.write(idx, &data)?;
                    }
                    WalOp::PutDelta(_, _, ranges) => {
                        let mut buf = vec![0u8; cfg.page_size];
                        backend.read(idx, &mut buf)?;
                        if lsn > page_lsn(&buf) {
                            for (off, bytes) in &ranges {
                                let off = *off as usize;
                                if off + bytes.len() > cfg.page_size {
                                    return Err(StoreError::corrupt_at(
                                        "wal delta range past page end",
                                        pid,
                                    ));
                                }
                                buf[off..off + bytes.len()].copy_from_slice(bytes);
                            }
                            set_page_lsn(&mut buf, lsn);
                            stamp_page_crc(&mut buf);
                            backend.write(idx, &buf)?;
                        } else {
                            StoreStats::bump(&stats.recovery_deltas_skipped);
                        }
                    }
                }
                Ok(())
            },
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
    /// is staged immediately (the commit point for crash semantics) but
    /// the fsync-policy commit runs **once** at scope exit instead of per
    /// record — a multi-record operation (a KV put touching heap + index
    /// pages) pays one commit-window wait, not several. The deferred
    /// commit's error is returned alongside `f`'s output; it surfaces even
    /// when `f` itself failed.
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
