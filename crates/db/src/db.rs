//! The [`Db`] handle and [`DbSession`] operations.

use crate::config::DbConfig;
use crate::metrics::{MetricsSnapshot, OpHists};
use crate::scan::DbScan;
use blink_durable::{DurableConfig, DurableStore};
use blink_pagestore::{
    PageId, PageStore, RecordHeap, RecordId, Session, StoreConfig, StoreError, WaitHist,
};
use sagiv_blink::{BLinkTree, Result, TreeConfig, TreeError, UnderflowPolicy, VerifyReport};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Queue items the §5 step on the store's loop compresses per tick, at
/// most: a low-priority job (§5.1) that never holds the loop for long.
const UPKEEP_ITEMS: usize = 32;

/// Bounded retries for the read-side race where a record is freed between
/// the index lookup and the heap fetch (the re-read converges: the index
/// either holds the successor record id or no longer holds the key).
const READ_RETRIES: u64 = 64;

/// What a [`DbSession::put`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// The key was new.
    Inserted,
    /// The key existed; its value was replaced (and the old record freed
    /// or overwritten in place).
    Replaced,
}

/// What [`Db::open`] did to reconcile index and heap on a durable reopen.
#[derive(Debug, Clone, Default)]
pub struct KvRecovery {
    /// Structural tree repair ran (see [`sagiv_blink::RecoveryStats`]).
    pub tree_repaired: bool,
    /// WAL records replayed by the store layer.
    pub wal_records_replayed: u64,
    /// Page writes that replay made
    /// ([`blink_durable::RecoveryInfo::pages_rewritten`]).
    pub pages_rewritten: u64,
    /// Heap records that no leaf referenced (an in-flight `put`'s new
    /// record, or a `delete`/overwrite whose free never committed) — freed.
    pub orphan_records_freed: usize,
    /// Heap pages the heap's survey found with no live records — released
    /// when it settled ([`blink_pagestore::HeapInventory::empty_pages_released`]).
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
    /// End-to-end per-op latency histograms ([`Db::metrics`]).
    pub(crate) op_hists: OpHists,
    /// Set on drop to retire the §5 step this `Db` added to its store's
    /// loop (`None` under [`UnderflowPolicy::Ignore`], which adds none).
    upkeep_retired: Option<Arc<AtomicBool>>,
}

impl Db {
    /// Opens (or creates) a database per `cfg`.
    ///
    /// Durable configurations replay the WAL and survey the heap, whose one
    /// sweep reads each page once and writes nothing: it lists the heap
    /// pages and live records. The tree then opens — its structural
    /// repair runs if the shutdown was dirty, with the heap pages shielded
    /// from its orphan collection, and a `k` smaller than the tree was
    /// built with fails the open with [`TreeError::Config`] before
    /// anything is written. The heap then settles (empty heap pages are
    /// released), and index and heap are reconciled by set membership,
    /// reading no record: every leaf's `RecordId` must be in the sweep's
    /// live set (else the store is corrupt), and every live record no leaf
    /// references is freed. A page that fails its checksum fails the open.
    ///
    /// A store with no allocated pages holds no tree yet and gets a fresh
    /// one: an in-memory store, a new directory, or a directory whose
    /// first open failed (or crashed) before the tree's first page.
    ///
    /// Under [`UnderflowPolicy::Enqueue`] or [`UnderflowPolicy::Inline`]
    /// the open adds one §5 step to the store's background loop (starting
    /// the loop on an in-memory store): each tick it compresses at most 32
    /// queued nodes, then releases the deleted pages §5.3 allows
    /// ([`BLinkTree::compress_upkeep`]). Under `Ignore` it adds nothing,
    /// so an in-memory `Db` runs no thread and a durable one only its
    /// store's flusher.
    pub fn open(cfg: DbConfig) -> Result<Db> {
        // The one resolved index config: `DbConfig` chooses `k` and the
        // underflow policy, everything else runs at its default.
        let mut tcfg = TreeConfig {
            k: cfg.k,
            underflow_policy: cfg.underflow_policy,
            ..TreeConfig::default()
        };
        // Reject a page the heap cannot address or an index that cannot
        // fit it before the directory is touched, so a bad first open
        // leaves nothing behind.
        let scfg = StoreConfig::with_page_size(cfg.page_size);
        scfg.check_page_size()?;
        tcfg.validate(cfg.page_size)?;
        let durable = match cfg.dir {
            None => None,
            Some(dir) => Some(Arc::new(DurableStore::open(DurableConfig {
                dir,
                page_size: cfg.page_size,
                fsync: cfg.fsync,
                segment_bytes: cfg.segment_bytes,
                pool_frames: cfg.pool_frames,
            })?)),
        };
        let store = match &durable {
            Some(ds) => Arc::clone(ds.store()),
            // No backend, journal, flusher or CRC: in-memory frames *are*
            // the storage, one per page, so `pool_frames` does not apply.
            None => PageStore::new(scfg),
        };
        // The heap is surveyed first; on a reopen its single page sweep
        // yields the inventory recovery consumes — the protected set for
        // the tree's repair and the live set for reconciliation — without
        // re-reading the store once per question. The survey writes
        // nothing: the heap settles only once the tree has opened, so an
        // open the tree refuses leaves every file as it was.
        let (heap, mut inventory) = RecordHeap::survey(Arc::clone(&store))?;
        let heap = Arc::new(heap);
        tcfg.external_pages = Some(heap.pages_handle());
        let (tree, recovery) = match &durable {
            Some(ds) if store.live_pages() > 0 => {
                let protected: HashSet<PageId> = inventory.heap_pages().collect();
                let (tree, stats) = BLinkTree::open_or_recover_protected(
                    store,
                    tcfg,
                    blink_durable::prime_page(),
                    &protected,
                )?;
                // Settling and the orphan frees log one record per page;
                // they commit once, at the end, not once per page (one
                // fsync, not one per freed page, under `Always`). A crash
                // before that commit leaves them for the next open to redo.
                let (freed, commit) = ds.with_deferred_commit(|| {
                    heap.settle(&mut inventory)?;
                    // Write-ahead ordering guarantees a leaf's record id
                    // always has its record in the durable prefix (the heap
                    // write precedes the index write in every `put`), so a
                    // dangling id is corruption, not a crash artifact; a
                    // record no leaf names is the normal crash residue,
                    // freed in page order.
                    let (dangling, unreferenced) = membership(&tree, &inventory.records)?;
                    if !dangling.is_empty() {
                        return Err(TreeError::Corrupt(DANGLING));
                    }
                    for &rid in &unreferenced {
                        heap.free(rid)?;
                    }
                    Ok(unreferenced.len())
                });
                let orphan_records_freed = freed.and_then(|n| {
                    commit?;
                    Ok(n)
                })?;
                let recovery = KvRecovery {
                    tree_repaired: stats.repaired,
                    wal_records_replayed: ds.recovery().replayed,
                    pages_rewritten: ds.recovery().pages_rewritten,
                    orphan_records_freed,
                    empty_heap_pages_freed: inventory.empty_pages_released,
                };
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
        let compresses = !matches!(cfg.underflow_policy, UnderflowPolicy::Ignore);
        let upkeep_retired = compresses.then(|| add_compress_step(&tree, durable.as_ref()));
        Ok(Db {
            tree,
            heap,
            durable,
            recovery,
            op_hists: OpHists::default(),
            upkeep_retired,
        })
    }

    /// Opens a session (a worker identity). One per thread.
    pub fn session(&self) -> DbSession<'_> {
        DbSession {
            db: self,
            session: self.tree.session(),
        }
    }

    /// Session-less point read: [`DbSession::get`] on a fresh session.
    /// A loop of reads should hold its own [`Db::session`], which it opens
    /// once rather than once per read.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>> {
        self.session().get(key)
    }

    /// Session-less read through `f`: [`DbSession::get_with`] on a fresh
    /// session. `f` sees a private copy of the record and runs at most
    /// once.
    pub fn get_with<R>(&self, key: u64, f: impl FnMut(&[u8]) -> R) -> Result<Option<R>> {
        self.session().get_with(key, f)
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
        MetricsSnapshot {
            store: self.store().stats().snapshot(),
            tree: self.tree.counters().snapshot(),
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
    /// sweep. Every leaf's record id must name a live record of that sweep
    /// (the membership pass [`Db::open`] runs, reading no record); a live
    /// record no leaf names is no error, since a failed op may leak one and
    /// the next open frees it. Quiesced databases only.
    pub fn verify(&self) -> Result<VerifyReport> {
        let mut rep = self.tree.verify(false)?;
        let live = self.heap.live_records()?;
        let (swept, gauge) = (live.len() as u64, self.heap.live_record_count());
        if swept != gauge {
            rep.errors.push(format!(
                "heap accounting: live-record gauge {gauge} != {swept} records on pages"
            ));
        }
        let (dangling, _) = membership(&self.tree, &live)?;
        for key in dangling {
            rep.errors.push(format!("key {key}: {DANGLING}"));
        }
        Ok(rep)
    }
}

impl Drop for Db {
    /// Retires the §5 step before the index goes: once the loop's running
    /// tick has ended, no step holds the tree, so the last `Arc`s of tree
    /// and store drop on this thread and an in-memory store's loop is
    /// joined here.
    fn drop(&mut self) {
        if let Some(retired) = &self.upkeep_retired {
            // Release pairs with the step's Acquire load; `wait_tick`'s
            // mutex then orders every later tick after this store.
            retired.store(true, Ordering::Release);
            if let Some(upkeep) = self.store().upkeep() {
                upkeep.wait_tick();
            }
        }
    }
}

/// Adds the bounded §5 step (see [`Db::open`]) to the tree's store's loop.
/// It holds the tree and the durable store only by `Weak`s, since the
/// store owns the loop. On a durable store the step's writes commit once,
/// at its end, not once per node: nobody waits on them, and under
/// `Always` each commit is an fsync. Returns the flag that retires it.
fn add_compress_step(
    tree: &Arc<BLinkTree>,
    durable: Option<&Arc<DurableStore>>,
) -> Arc<AtomicBool> {
    let retired = Arc::new(AtomicBool::new(false));
    let (flag, weak, mut session) = (Arc::clone(&retired), Arc::downgrade(tree), tree.session());
    let durable = durable.map(Arc::downgrade);
    tree.store().add_upkeep_step(move || {
        let tree = (!flag.load(Ordering::Acquire))
            .then(|| weak.upgrade())
            .flatten();
        let Some(tree) = tree else {
            return false;
        };
        let mut step = || tree.compress_upkeep(&mut session, UPKEEP_ITEMS);
        let Some(ds) = durable.as_ref().and_then(Weak::upgrade) else {
            step();
            return false;
        };
        if ds.with_deferred_commit(step).1.is_err() {
            sagiv_blink::TreeCounters::bump(&tree.counters().compress_errors);
        }
        false
    });
    retired
}

/// A leaf's record id that names no live record.
const DANGLING: &str = "leaf holds a dangling record id";

/// The index↔heap membership pass, reading no record: every leaf's record
/// id is checked off against `live` (a heap sweep's records). Returns the
/// keys whose leaf id is not in `live` (or was already checked off by
/// another leaf), and the live records no leaf names, in `live`'s order.
fn membership(tree: &BLinkTree, live: &[RecordId]) -> Result<(Vec<u64>, Vec<RecordId>)> {
    let mut unreferenced: HashSet<u64> = live.iter().map(|rid| rid.to_raw()).collect();
    let mut dangling = Vec::new();
    let mut session = tree.session();
    for pair in tree.scan(&mut session, 0, u64::MAX) {
        let (key, raw) = pair?;
        if !unreferenced.remove(&raw) {
            dangling.push(key);
        }
    }
    let unreferenced = live
        .iter()
        .copied()
        .filter(|rid| unreferenced.contains(&rid.to_raw()))
        .collect();
    Ok((dangling, unreferenced))
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

/// Follows `key`'s record id to its record through `f`: the one index→heap
/// read behind every get and scan. `held` is the id the caller already
/// holds (a scan's leaf pair); with none, `lookup` asks the index first.
/// `lookup` is a point read's own operation ([`BLinkTree::search`]), or
/// runs inside a scan's ([`BLinkTree::search_in_op`], so the §5.3
/// reclamation horizon over the cursor's next hop never lapses).
///
/// A record freed between the index lookup and the heap fetch is asked
/// for again, at most [`READ_RETRIES`] reads in all: the index names
/// nothing (the key was deleted: `Ok(None)`), a different id (the value
/// moved: read that one), or the same id that just read as missing — a
/// dangling id, [`TreeError::Corrupt`]. No race yields the same id: every
/// writer frees a record only after the index stopped naming it, and a
/// reused slot gets a fresh generation, so a freed id is not minted again.
pub(crate) fn fetch<R>(
    db: &Db,
    session: &mut Session,
    key: u64,
    held: Option<u64>,
    lookup: impl Fn(&BLinkTree, &mut Session, u64) -> Result<Option<u64>>,
    mut f: impl FnMut(&[u8]) -> R,
) -> Result<Option<R>> {
    let mut raw = match held {
        None => lookup(&db.tree, session, key)?,
        held => held,
    };
    for _ in 0..READ_RETRIES {
        let Some(read) = raw else {
            return Ok(None);
        };
        match db.heap.read_with(decode_rid(read)?, &mut f) {
            Ok(r) => return Ok(Some(r)),
            Err(StoreError::RecordMissing(_)) => {}
            Err(e) => return Err(e.into()),
        }
        raw = lookup(&db.tree, session, key)?;
        if raw == Some(read) {
            return Err(TreeError::Corrupt(DANGLING));
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
        self.write(&db.op_hists.put, |s| s.put_inner(key, value))
    }

    /// Runs one write op (`put` or `delete`) and records its latency into
    /// `hist`.
    fn write<T>(&mut self, hist: &WaitHist, op: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let db = self.db;
        // Backpressure before the op takes any latches: if dirty frames
        // crossed the flusher's high watermark, wait (bounded) for a
        // drain pass rather than letting a write burst outrun the disk.
        db.store().throttle_dirty();
        let t0 = Instant::now();
        let r = match db.durable.as_ref() {
            // An op can log several WAL records (a heap page plus one or
            // more index pages; an index delete plus a record free); defer
            // the fsync-policy commit to the end of the op so the commit
            // window is paid once per op rather than once per record.
            Some(ds) => {
                let (r, commit) = ds.with_deferred_commit(|| op(self));
                r.and_then(|v| {
                    commit?;
                    Ok(v)
                })
            }
            None => op(self),
        };
        OpHists::finish(hist, t0);
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
                // Index update failed: the fresh record would leak; undo —
                // unless the leaf write landed first (a split whose parent
                // update failed), when the index already points at it.
                // If the index cannot be read back, keep the record: reopen
                // frees a leaked record, but a dangling id is corruption.
                let indexed = self.db.tree.search(&mut self.session, key);
                if matches!(indexed, Ok(raw) if raw != Some(rid.to_raw())) {
                    let _ = self.db.heap.free(rid);
                }
                Err(e)
            }
        }
    }

    /// Fetches the value stored under `key`.
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>> {
        self.get_with(key, |b| b.to_vec())
    }

    /// Fetches the value under `key` through `f`, which sees a validated
    /// private copy of just the record ([`RecordHeap::read_with`]: taken
    /// without a pin or a latch when its page is resident, else under a
    /// latched read), never a frame. `f` runs at most once: not at all when
    /// the key is absent or the read fails.
    pub fn get_with<R>(&mut self, key: u64, f: impl FnMut(&[u8]) -> R) -> Result<Option<R>> {
        let t0 = Instant::now();
        let r = fetch(self.db, &mut self.session, key, None, BLinkTree::search, f);
        OpHists::finish(&self.db.op_hists.get, t0);
        r
    }

    /// Removes `key`; returns whether it was present. The index entry goes
    /// first, then the record — the order that can only leak (recoverable)
    /// rather than dangle.
    pub fn delete(&mut self, key: u64) -> Result<bool> {
        let db = self.db;
        self.write(&db.op_hists.delete, |s| s.delete_inner(key))
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
    /// incrementally — one leaf buffered at a time, each read by an
    /// unlatched, validated probe that latches only on fallback — so a
    /// 50k-key scan never materializes 50k values. Each pair's value is
    /// read through the same fetch loop as [`DbSession::get`].
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
