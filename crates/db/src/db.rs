//! The [`Db`] handle and [`DbSession`] operations.

use crate::config::DbConfig;
use crate::metrics::{MetricsSnapshot, OpHists};
use crate::scan::DbScan;
use blink_durable::{DurableConfig, DurableStore};
use blink_pagestore::audit::{self, Audited, LockClass};
use blink_pagestore::{
    HeapConfig, PageId, PageStore, RecordHeap, RecordId, Session, StoreConfig, StoreError,
};
use parking_lot::{Mutex, MutexGuard};
use sagiv_blink::{BLinkTree, Result, TreeError, VerifyReport};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Bounded retries for the read-side race where a record is freed between
/// the index lookup and the heap fetch (the re-read converges: the index
/// either holds the successor record id or no longer holds the key).
pub(crate) const READ_RETRIES: u64 = 64;

/// What a [`DbSession::put`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// The key was new.
    Inserted,
    /// The key existed; its value was replaced (and the old record freed
    /// or overwritten in place).
    Replaced,
}

/// What [`Db::open`] did to reconcile index and heap after a crash.
#[derive(Debug, Clone, Default)]
pub struct KvRecovery {
    /// Structural tree repair ran (see [`sagiv_blink::RecoveryStats`]).
    pub tree_repaired: bool,
    /// WAL records replayed by the store layer.
    pub wal_records_replayed: u64,
    /// Heap records that no leaf referenced (an in-flight `put`'s new
    /// record, or a `delete`/overwrite whose free never committed) — freed.
    pub orphan_records_freed: usize,
    /// Heap pages left with no live records — released.
    pub empty_heap_pages_freed: usize,
}

/// One handle over the whole database: the B\*-tree index, the record heap
/// it points into, and (optionally) the WAL-backed durable store — all
/// sharing a single [`PageStore`], so one log and one recovery pass cover
/// index and data together.
///
/// §2.1's dense-index arrangement, productionized: leaves hold
/// `(key, RecordId)` pairs, the heap holds the value bytes, and the `Db`
/// owns the record lifecycle — an overwrite frees (or rewrites in place)
/// the old record, a delete frees the record, and crash recovery leaves no
/// dangling and no leaked [`RecordId`].
///
/// `Db` is `Send + Sync`; share it through an `Arc` and give every worker
/// thread its own [`DbSession`] (the paper's *process*).
#[derive(Debug)]
pub struct Db {
    pub(crate) tree: Arc<BLinkTree>,
    pub(crate) heap: Arc<RecordHeap>,
    durable: Option<Arc<DurableStore>>,
    recovery: Option<KvRecovery>,
    /// Small pool of tree sessions backing the session-less [`Db::get`] /
    /// [`Db::get_with`] read helpers, so read fan-out does not force
    /// callers to thread a [`DbSession`] through every call site.
    read_sessions: Mutex<Vec<Session>>,
    /// End-to-end per-op latency histograms ([`DbConfig::metrics`]).
    pub(crate) op_hists: OpHists,
}

/// Cap on pooled read sessions ([`Db::get`]); extras are dropped rather
/// than hoarded when a burst of readers drains and returns them.
const READ_SESSION_POOL: usize = 32;

impl Db {
    fn heap_config(cfg: &DbConfig) -> HeapConfig {
        if cfg.heap_shards == 0 {
            HeapConfig::default()
        } else {
            HeapConfig::with_shards(cfg.heap_shards)
        }
    }

    /// Opens (or creates) a database per `cfg`.
    ///
    /// Durable configurations replay the WAL, run the tree's structural
    /// repair if the shutdown was dirty (heap pages — identified by their
    /// magic — are shielded from the tree's orphan collection), and then
    /// reconcile index against heap: every leaf's `RecordId` must resolve
    /// (else the store is corrupt), and every live record some leaf does
    /// *not* reference is freed.
    ///
    /// A store with no allocated pages holds no tree yet and gets a fresh
    /// one: an in-memory store, a new directory, or a directory whose
    /// first open failed (or crashed) before the tree's first page.
    pub fn open(cfg: DbConfig) -> Result<Db> {
        // Reject an index that cannot fit the page before the directory is
        // touched, so a bad first open leaves nothing behind.
        cfg.tree.validate(cfg.page_size)?;
        let durable = match &cfg.dir {
            None => None,
            Some(dir) => {
                let dcfg = DurableConfig {
                    dir: dir.clone(),
                    page_size: cfg.page_size,
                    fsync: cfg.fsync,
                    segment_bytes: cfg.segment_bytes,
                    pool_frames: cfg.pool_frames,
                    mmap_backend: cfg.mmap_backend,
                };
                Some(Arc::new(if dir.join("meta").exists() {
                    DurableStore::open(dcfg)?
                } else {
                    DurableStore::create(dcfg)?
                }))
            }
        };
        let store = match &durable {
            Some(ds) => Arc::clone(ds.store()),
            None => PageStore::new(StoreConfig {
                page_size: cfg.page_size,
                io_delay: None,
                pool_frames: cfg.pool_frames,
                // No backend writes to hide and nothing crosses a disk
                // boundary: in-memory frames *are* the storage.
                background_flusher: false,
                page_checksums: false,
            }),
        };
        // The heap is attached first; on a reopen its single page sweep
        // yields the inventory recovery consumes — the protected set for
        // the tree's repair, the live-record list for GC, and the
        // empty-page candidates — without re-reading the store once per
        // question.
        let (heap, inventory) =
            RecordHeap::attach_with_config(Arc::clone(&store), Db::heap_config(&cfg))?;
        let heap = Arc::new(heap);
        let mut tcfg = cfg.tree.clone();
        tcfg.external_pages = Some(heap.pages_handle());
        let (tree, recovery) = match &durable {
            Some(ds) if store.live_pages() > 0 => {
                let protected: HashSet<PageId> = inventory.pages.iter().copied().collect();
                let (tree, stats) = BLinkTree::open_or_recover_protected(
                    store,
                    tcfg,
                    blink_durable::prime_page(),
                    &protected,
                )?;
                let mut recovery = KvRecovery {
                    tree_repaired: stats.repaired,
                    wal_records_replayed: ds.recovery().replayed,
                    ..KvRecovery::default()
                };
                Self::reconcile(&tree, &heap, &inventory, &mut recovery)?;
                (tree, Some(recovery))
            }
            _ => {
                let tree = BLinkTree::create(store, tcfg)?;
                debug_assert!(
                    durable.is_none() || tree.prime_page() == blink_durable::prime_page()
                );
                (tree, None)
            }
        };
        Ok(Db {
            tree,
            heap,
            durable,
            recovery,
            read_sessions: Mutex::new(Vec::new()),
            op_hists: OpHists::default(),
        })
    }

    /// Post-crash index/heap reconciliation (quiesced store). Write-ahead
    /// ordering guarantees a leaf's record id always has its record in the
    /// durable prefix (the heap write precedes the index write in every
    /// `put`), so a dangling id is corruption, not a crash artifact; the
    /// other direction — records no leaf references — is the normal
    /// crash residue and is garbage-collected here.
    fn reconcile(
        tree: &Arc<BLinkTree>,
        heap: &Arc<RecordHeap>,
        inventory: &blink_pagestore::HeapInventory,
        out: &mut KvRecovery,
    ) -> Result<()> {
        let mut session = tree.session();
        let mut referenced: HashSet<RecordId> = HashSet::new();
        for pair in tree.scan(&mut session, 0, u64::MAX) {
            let (_, raw) = pair?;
            let rid = RecordId::from_raw(raw)
                .ok_or(TreeError::Corrupt("leaf holds an invalid record id"))?;
            match heap.read_with(rid, |_| ()) {
                Ok(()) => {}
                // Only a *missing* record is the dangling-id verdict; any
                // other failure (backend I/O, …) propagates as itself.
                Err(StoreError::RecordMissing(_)) => {
                    return Err(TreeError::Corrupt("leaf holds a dangling record id"))
                }
                Err(e) => return Err(e.into()),
            }
            referenced.insert(rid);
        }
        for &rid in &inventory.records {
            if !referenced.contains(&rid) {
                heap.free(rid)?;
                out.orphan_records_freed += 1;
            }
        }
        // Orphan frees auto-release pages they empty; what is left is the
        // set that was already empty at attach time.
        out.empty_heap_pages_freed = heap.release_if_empty(&inventory.empty_pages)?;
        Ok(())
    }

    /// Opens a session (a worker identity). One per thread.
    pub fn session(&self) -> DbSession<'_> {
        DbSession {
            db: self,
            session: self.tree.session(),
        }
    }

    /// Session-less point read: fetches the value stored under `key`
    /// without the caller owning a [`DbSession`]. Backed by a small
    /// internal session pool, so read fan-out (one-shot lookups from many
    /// threads, request handlers, tests) stays ergonomic *and* keeps the
    /// per-session instrumentation the paper's process model wants.
    ///
    /// Hot read loops that issue many gets back-to-back should still hold
    /// their own [`Db::session`]: the pooled handle costs two small mutex
    /// hops per call.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>> {
        self.get_with(key, |b| b.to_vec())
    }

    /// Session-less zero-copy read: like [`DbSession::get_with`], borrowing
    /// the value bytes from the record page's pinned frame for exactly the
    /// duration of the call.
    pub fn get_with<R>(&self, key: u64, f: impl FnMut(&[u8]) -> R) -> Result<Option<R>> {
        let t0 = Instant::now();
        let mut session = self
            .lock_sessions()
            .pop()
            .unwrap_or_else(|| self.tree.session());
        let r = get_with_session(self, &mut session, key, f);
        let mut pool = self.lock_sessions();
        if pool.len() < READ_SESSION_POOL {
            pool.push(session);
        }
        OpHists::finish(&self.op_hists.get, t0);
        r
    }

    /// Locks the pooled read-session vector. Sole lock site for
    /// `Db::read_sessions` (audited as `SessionPool`, a leaf class: nothing
    /// may be acquired while it is held).
    fn lock_sessions(&self) -> Audited<MutexGuard<'_, Vec<Session>>> {
        audit::audited(
            LockClass::SessionPool,
            &self.read_sessions as *const Mutex<Vec<Session>> as usize,
            || self.read_sessions.lock(),
        )
    }

    /// What the last [`Db::open`] recovery did (`None` for in-memory
    /// databases and fresh durable ones).
    pub fn recovery(&self) -> Option<&KvRecovery> {
        self.recovery.as_ref()
    }

    /// The underlying index (advanced: stats, verification, experiments).
    pub fn tree(&self) -> &Arc<BLinkTree> {
        &self.tree
    }

    /// The underlying record heap (advanced: stats).
    pub fn heap(&self) -> &Arc<RecordHeap> {
        &self.heap
    }

    /// The shared page store (index and heap pages together).
    pub fn store(&self) -> &Arc<PageStore> {
        self.tree.store()
    }

    /// The durable store, when this database is durable.
    pub fn durable(&self) -> Option<&Arc<DurableStore>> {
        self.durable.as_ref()
    }

    /// Every layer's telemetry in one lock-free snapshot: store counters
    /// and contended-wait histograms, tree structural counters, and
    /// end-to-end per-op latency histograms. Two snapshots subtract via
    /// [`MetricsSnapshot::delta`] to window a measured interval; see
    /// [`MetricsSnapshot::report`] and [`MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let counters = self.tree.counters();
        MetricsSnapshot {
            store: self.store().stats().snapshot(),
            tree: counters.snapshot(),
            scan_hop: counters.scan_hop_hist.snapshot(),
            put: self.op_hists.put.snapshot(),
            get: self.op_hists.get.snapshot(),
            delete: self.op_hists.delete.snapshot(),
        }
    }

    /// Flushes WAL and dirty frames (clean-shutdown barrier). A no-op for
    /// in-memory databases.
    pub fn sync(&self) -> Result<()> {
        match &self.durable {
            Some(ds) => Ok(ds.sync()?),
            None => Ok(()),
        }
    }

    /// Checkpoints the durable store, bounding future recovery replay.
    /// Fuzzy — concurrent readers and writers are fine (see
    /// [`DurableStore::checkpoint_begin`]). Errors on in-memory databases.
    pub fn checkpoint(&self) -> Result<()> {
        match &self.durable {
            Some(ds) => Ok(ds.checkpoint()?),
            None => Err(TreeError::Config("in-memory database has no checkpoint")),
        }
    }

    /// Verifies every structural invariant of the index (and the page
    /// accounting across index + heap), plus the heap's own gauges: the
    /// hot-path live-record counter must agree with a ground-truth page
    /// sweep. Quiesced databases only.
    pub fn verify(&self) -> Result<VerifyReport> {
        let mut rep = self.tree.verify(false)?;
        let swept = self.heap.live_records()?.len() as u64;
        let gauge = self.heap.live_record_count();
        if swept != gauge {
            rep.errors.push(format!(
                "heap accounting: live-record gauge {gauge} != {swept} records on pages"
            ));
        }
        Ok(rep)
    }
}

fn decode_rid(raw: u64) -> Result<RecordId> {
    RecordId::from_raw(raw).ok_or(TreeError::Corrupt("index holds an invalid record id"))
}

/// Frees a record, treating "already gone" as success (a concurrent
/// overwrite/delete got there first — exactly once is guaranteed by the
/// index's single-lock leaf update, not by the heap). The benign case is
/// *only* [`StoreError::RecordMissing`], and it is counted in the store's
/// `heap_double_frees` stat; anything else — a backend I/O failure, a
/// journal error, corruption — propagates to the caller, because eating it
/// would leave the heap silently leaking space (or worse) on a sick store.
fn free_quiet(heap: &RecordHeap, raw: u64) -> Result<()> {
    match decode_rid(raw).and_then(|rid| Ok(heap.free(rid)?)) {
        Ok(()) => Ok(()),
        Err(TreeError::Store(StoreError::RecordMissing(_))) => {
            heap.note_double_free();
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// The shared point-read loop behind [`DbSession::get_with`] and the
/// session-less [`Db::get_with`]: bounded retries over the race where a
/// record is freed between the index lookup and the heap fetch.
fn get_with_session<R>(
    db: &Db,
    session: &mut Session,
    key: u64,
    mut f: impl FnMut(&[u8]) -> R,
) -> Result<Option<R>> {
    for _ in 0..READ_RETRIES {
        let Some(raw) = db.tree.search(session, key)? else {
            return Ok(None);
        };
        let rid = decode_rid(raw)?;
        match db.heap.read_with(rid, &mut f) {
            Ok(r) => return Ok(Some(r)),
            // Freed between index lookup and heap fetch: the index now
            // holds the successor id (overwrite) or nothing (delete).
            Err(StoreError::RecordMissing(_)) => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Err(TreeError::TooManyRestarts {
        attempts: READ_RETRIES,
    })
}

/// One worker's handle: all KV operations go through a session, like the
/// paper's processes. Obtain with [`Db::session`]; not `Send` across ops.
#[derive(Debug)]
pub struct DbSession<'db> {
    db: &'db Db,
    pub(crate) session: Session,
}

impl<'db> DbSession<'db> {
    /// Stores `value` under `key`, replacing any previous value. The old
    /// record is rewritten in place when the new value fits its slot (no
    /// index write at all); otherwise the new record is written first, the
    /// index re-pointed, and only then the displaced record freed — so
    /// concurrent readers never observe a dangling id.
    pub fn put(&mut self, key: u64, value: &[u8]) -> Result<PutOutcome> {
        let db = self.db;
        // Backpressure before the op takes any latches: if dirty frames
        // crossed the flusher's high watermark, wait (bounded) for a
        // drain pass rather than letting a write burst outrun the disk.
        db.store().throttle_dirty();
        let t0 = Instant::now();
        let r = match db.durable.as_ref() {
            // A put can log several WAL records (heap page plus one or more
            // index pages); defer the fsync-policy commit to the end of the
            // operation so the commit window is paid once per op rather
            // than once per record.
            Some(ds) => {
                let (r, commit) = ds.with_deferred_commit(|| self.put_inner(key, value));
                r.and_then(|v| {
                    commit?;
                    Ok(v)
                })
            }
            None => self.put_inner(key, value),
        };
        OpHists::finish(&db.op_hists.put, t0);
        r
    }

    fn put_inner(&mut self, key: u64, value: &[u8]) -> Result<PutOutcome> {
        // Fast path: overwrite an existing record, in place when possible.
        if let Some(raw) = self.db.tree.search(&mut self.session, key)? {
            let rid = decode_rid(raw)?;
            match self.db.heap.update(rid, value) {
                Ok(new_rid) if new_rid == rid => return Ok(PutOutcome::Replaced),
                Ok(new_rid) => {
                    // The value grew into a fresh record: re-point the
                    // index, then free whatever that displaced.
                    return match self
                        .db
                        .tree
                        .upsert(&mut self.session, key, new_rid.to_raw())?
                    {
                        Some(old_raw) => {
                            free_quiet(&self.db.heap, old_raw)?;
                            Ok(PutOutcome::Replaced)
                        }
                        None => Ok(PutOutcome::Inserted), // raced a delete
                    };
                }
                // The record vanished between search and update (a racing
                // overwrite or delete): fall through to the insert path.
                Err(StoreError::RecordMissing(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Insert path: record first (write-ahead for crash consistency:
        // the index never points at bytes that are not yet logged), then
        // the index.
        let rid = self.db.heap.insert(value)?;
        match self.db.tree.upsert(&mut self.session, key, rid.to_raw()) {
            Ok(None) => Ok(PutOutcome::Inserted),
            Ok(Some(old_raw)) => {
                free_quiet(&self.db.heap, old_raw)?;
                Ok(PutOutcome::Replaced)
            }
            Err(e) => {
                // Index update failed: the fresh record would leak; undo.
                let _ = self.db.heap.free(rid);
                Err(e)
            }
        }
    }

    /// Fetches the value stored under `key`.
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>> {
        self.get_with(key, |b| b.to_vec())
    }

    /// Fetches the value under `key` through `f` without copying it: the
    /// bytes are borrowed from the record page's pinned buffer-pool frame
    /// for exactly the duration of the call. `f` may run more than once if
    /// a concurrent overwrite races the fetch (only the last run's result
    /// is returned).
    pub fn get_with<R>(&mut self, key: u64, f: impl FnMut(&[u8]) -> R) -> Result<Option<R>> {
        let t0 = Instant::now();
        let r = get_with_session(self.db, &mut self.session, key, f);
        OpHists::finish(&self.db.op_hists.get, t0);
        r
    }

    /// Removes `key`; returns whether it was present. The index entry goes
    /// first, then the record — the order that can only leak (recoverable)
    /// rather than dangle.
    pub fn delete(&mut self, key: u64) -> Result<bool> {
        let db = self.db;
        // Same pre-latch backpressure as `put`.
        db.store().throttle_dirty();
        let t0 = Instant::now();
        let r = match db.durable.as_ref() {
            // Same one-commit-per-op batching as `put`: the index delete
            // and the record free both log records.
            Some(ds) => {
                let (r, commit) = ds.with_deferred_commit(|| self.delete_inner(key));
                r.and_then(|v| {
                    commit?;
                    Ok(v)
                })
            }
            None => self.delete_inner(key),
        };
        OpHists::finish(&db.op_hists.delete, t0);
        r
    }

    fn delete_inner(&mut self, key: u64) -> Result<bool> {
        match self.db.tree.delete(&mut self.session, key)? {
            Some(raw) => {
                free_quiet(&self.db.heap, raw)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Opens a streaming scan over `[lo, hi]` (both inclusive), yielding
    /// `(key, value)` pairs in key order. The cursor walks leaf links
    /// incrementally — one leaf buffered at a time, pages re-latched per
    /// visit — so a 50k-key scan never materializes 50k values.
    pub fn scan(&mut self, lo: u64, hi: u64) -> DbScan<'_, 'db> {
        DbScan::new(self.db, &mut self.session, lo, hi)
    }

    /// Number of keys in the database (streaming full scan).
    pub fn count(&mut self) -> Result<usize> {
        self.db.tree.count(&mut self.session)
    }

    /// The underlying tree session (advanced: stats, direct index access).
    pub fn inner(&mut self) -> &mut Session {
        &mut self.session
    }
}
