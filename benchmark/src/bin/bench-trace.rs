//! `bench-trace` — the per-layer ledger, measured from outside.
//!
//! Replays the same op tape as `bench`, but composes each op from the layer
//! handles (`db.tree()`, `db.heap()`, `db.store()`, `db.durable()`) exactly
//! as `DbSession` does, with a span around every call into a layer. A
//! layer's self time is its span minus its children. Counter-derived
//! metrics are `StoreStats` / `TreeCounters` snapshot deltas over the traced
//! window, looked up by name so a renamed counter reads `null`, not a
//! broken build. Probes time the pool, the WAL append path and each page
//! backend on their own. An untraced window through `DbSession` runs first;
//! the gap between the two rates is the tracing overhead.
//!
//! This binary may break when a lower layer's API moves. `bench` cannot.

use blink_benchmark::client::{run_window, Exec};
use blink_benchmark::env::{self, Args};
use blink_benchmark::json::Json;
use blink_benchmark::sets::{metrics_json, result_line, run_each_workload};
use blink_benchmark::spec::{Workload, PER_LAYER, ROUNDS, SLICES_PER_ROUND};
use blink_benchmark::world::{audit, setup, World};
use blink_benchmark::{ctx, Res};
use blink_durable::{
    DurableConfig, DurableStore, FaultInjector, FileBackend, FsyncPolicy, MmapBackend,
};
use blink_pagestore::{
    MemBackend, PageBackend, PageStore, RecordHeap, RecordId, Session, StatsSnapshot, StoreConfig,
    StoreError, WriteIntent,
};
use sagiv_blink::BLinkTree;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn main() {
    let code = match Args::parse().and_then(|args| match args.workload.clone() {
        Some(name) => {
            let w = Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?;
            trace_workload(w, &args)
        }
        None => run_each_workload(&args, args.seed).map(|_| 0),
    }) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench-trace: {e}");
            2
        }
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------- spans

/// Where a span was recorded: one per call into a layer, plus the op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum At {
    /// The whole op; its self time is `crates/db`'s composition glue.
    Op,
    DbThrottle,
    /// `with_deferred_commit`; its self time is the commit at scope exit.
    WalScope,
    CoreSearch,
    CoreUpsert,
    CoreDelete,
    CoreScan,
    HeapRead,
    HeapInsert,
    HeapUpdate,
    HeapFree,
}

const SITES: usize = At::HeapFree as usize + 1;
const SITE_NAMES: [&str; SITES] = [
    "op",
    "db.throttle",
    "wal.scope",
    "core.search",
    "core.upsert",
    "core.delete",
    "core.scan",
    "heap.read",
    "heap.insert",
    "heap.update",
    "heap.free",
];
const NO_PARENT: u32 = u32::MAX;
/// Spans held in memory before they are folded into the totals.
const SPAN_BUFFER: usize = 1 << 18;
/// Spans of the last buffer written into the record, as a sample.
const SPAN_DUMP: usize = 256;

#[derive(Debug, Clone, Copy)]
struct Span {
    at: At,
    /// Index of the enclosing span in the buffer.
    parent: u32,
    op_id: u64,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct SiteTotal {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// One client's span recorder.
#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u64,
    totals: [SiteTotal; SITES],
    /// Ops whose spans' self times did not add up to the op span.
    unbalanced_ops: u64,
}

impl Tracer {
    fn new(epoch: Instant, client: usize) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(SPAN_BUFFER + 1024),
            open: Vec::with_capacity(8),
            // Distinct id ranges per client.
            op_id: (client as u64) << 48,
            totals: [SiteTotal::default(); SITES],
            unbalanced_ops: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, at: At) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            at,
            parent,
            op_id: self.op_id,
            start_ns: self.now(),
            end_ns: 0,
        });
    }

    fn exit(&mut self) {
        let now = self.now();
        let i = self.open.pop().expect("exit without enter");
        self.spans[i as usize].end_ns = now;
        if self.open.is_empty() {
            self.op_id += 1;
            if self.spans.len() >= SPAN_BUFFER {
                self.fold();
            }
        }
    }

    /// Folds the buffered spans into the per-site totals and empties the
    /// buffer. Runs between ops, never inside a span.
    fn fold(&mut self) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        // Spans of one op are contiguous and start with its `Op` span.
        let (mut op_ns, mut op_self_sum) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let own = dur - child_ns[i];
            let t = &mut self.totals[s.at as usize];
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += own;
            if s.parent == NO_PARENT {
                self.unbalanced_ops += (op_self_sum != op_ns) as u64;
                (op_ns, op_self_sum) = (dur, 0);
            }
            op_self_sum += own;
        }
        self.unbalanced_ops += (op_self_sum != op_ns) as u64;
        self.spans.clear();
    }
}

// ------------------------------------------------- the traced executor

/// The four ops composed from the layer handles, as `crates/db/src/db.rs`
/// and `scan.rs` compose them, with a span around each layer call.
struct Traced<'a> {
    tree: &'a BLinkTree,
    heap: &'a RecordHeap,
    store: &'a PageStore,
    durable: Option<&'a DurableStore>,
    session: Session,
    tr: Tracer,
    updates: u64,
    inplace_updates: u64,
    /// Where the tracer's totals go when the client finishes.
    sink: &'a Mutex<Vec<ClientTrace>>,
}

#[derive(Debug)]
struct ClientTrace {
    totals: [SiteTotal; SITES],
    unbalanced_ops: u64,
    updates: u64,
    inplace_updates: u64,
    sample: Vec<Span>,
}

/// `DbSession`'s bound on re-reads when a record is freed between the
/// index lookup and the heap fetch.
const READ_RETRIES: usize = 64;

fn rid_of(raw: u64) -> Result<RecordId, String> {
    RecordId::from_raw(raw).ok_or_else(|| "index holds an invalid record id".to_string())
}

impl Traced<'_> {
    /// Runs `f` inside a span at `at`.
    fn span<T>(&mut self, at: At, f: impl FnOnce(&mut Self) -> T) -> T {
        self.tr.enter(at);
        let r = f(self);
        self.tr.exit();
        r
    }

    /// `free_quiet`: already-gone is success (a racing overwrite or delete
    /// got there first) and is counted; anything else is an error.
    fn free(&mut self, raw: u64) -> Result<(), String> {
        let rid = rid_of(raw)?;
        match self.span(At::HeapFree, |t| t.heap.free(rid)) {
            Ok(()) => Ok(()),
            Err(StoreError::RecordMissing(_)) => {
                self.heap.note_double_free();
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    }

    /// A mutating op: back-pressure first, then the body inside the WAL's
    /// deferred-commit scope when durable (one commit wait per op).
    fn mutate<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        self.span(At::Op, |t| {
            t.span(At::DbThrottle, |t| t.store.throttle_dirty());
            match t.durable {
                Some(ds) => {
                    let (r, commit) = t.span(At::WalScope, |t| ds.with_deferred_commit(|| body(t)));
                    r.and_then(|v| commit.map(|()| v).map_err(|e| e.to_string()))
                }
                None => body(t),
            }
        })
    }

    fn put_inner(&mut self, key: u64, value: &[u8]) -> Result<bool, String> {
        let found = self
            .span(At::CoreSearch, |t| t.tree.search(&mut t.session, key))
            .map_err(|e| e.to_string())?;
        if let Some(raw) = found {
            let rid = rid_of(raw)?;
            self.updates += 1;
            match self.span(At::HeapUpdate, |t| t.heap.update(rid, value)) {
                Ok(new_rid) if new_rid == rid => {
                    self.inplace_updates += 1;
                    return Ok(false);
                }
                Ok(new_rid) => {
                    let old = self
                        .span(At::CoreUpsert, |t| {
                            t.tree.upsert(&mut t.session, key, new_rid.to_raw())
                        })
                        .map_err(|e| e.to_string())?;
                    return match old {
                        Some(old_raw) => self.free(old_raw).map(|()| false),
                        None => Ok(true), // raced a delete
                    };
                }
                Err(StoreError::RecordMissing(_)) => {} // raced; insert below
                Err(e) => return Err(e.to_string()),
            }
        }
        let rid = self
            .span(At::HeapInsert, |t| t.heap.insert(value))
            .map_err(|e| e.to_string())?;
        match self.span(At::CoreUpsert, |t| {
            t.tree.upsert(&mut t.session, key, rid.to_raw())
        }) {
            Ok(None) => Ok(true),
            Ok(Some(old_raw)) => self.free(old_raw).map(|()| false),
            Err(e) => {
                let _ = self.heap.free(rid);
                Err(e.to_string())
            }
        }
    }

    /// One scanned index entry resolved to its value, re-asking the index
    /// when the record was freed under the scan (`DbScan::resolve`).
    fn resolve(&mut self, key: u64, mut raw: u64) -> Result<Option<Vec<u8>>, String> {
        for _ in 0..READ_RETRIES {
            let rid = rid_of(raw)?;
            match self.span(At::HeapRead, |t| t.heap.read_with(rid, |b| b.to_vec())) {
                Ok(v) => return Ok(Some(v)),
                Err(StoreError::RecordMissing(_)) => {
                    let next = self
                        .span(At::CoreSearch, |t| t.tree.search_in_op(&mut t.session, key))
                        .map_err(|e| e.to_string())?;
                    match next {
                        Some(next_raw) if next_raw != raw => raw = next_raw,
                        _ => return Ok(None),
                    }
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("too many restarts resolving a scanned record".to_string())
    }
}

impl Exec for Traced<'_> {
    fn get<R>(&mut self, key: u64, mut f: impl FnMut(&[u8]) -> R) -> Result<Option<R>, String> {
        self.span(At::Op, |t| {
            for _ in 0..READ_RETRIES {
                let found = t
                    .span(At::CoreSearch, |t| t.tree.search(&mut t.session, key))
                    .map_err(|e| e.to_string())?;
                let Some(raw) = found else {
                    return Ok(None);
                };
                let rid = rid_of(raw)?;
                match t.span(At::HeapRead, |t| t.heap.read_with(rid, &mut f)) {
                    Ok(r) => return Ok(Some(r)),
                    Err(StoreError::RecordMissing(_)) => continue,
                    Err(e) => return Err(e.to_string()),
                }
            }
            Err("too many restarts reading a record".to_string())
        })
    }

    fn put(&mut self, key: u64, value: &[u8]) -> Result<bool, String> {
        self.mutate(|t| t.put_inner(key, value))
    }

    fn delete(&mut self, key: u64) -> Result<bool, String> {
        self.mutate(|t| {
            let old = t
                .span(At::CoreDelete, |t| t.tree.delete(&mut t.session, key))
                .map_err(|e| e.to_string())?;
            match old {
                Some(raw) => t.free(raw).map(|()| true),
                None => Ok(false),
            }
        })
    }

    fn scan(&mut self, lo: u64, limit: usize, mut f: impl FnMut(u64, &[u8])) -> Result<(), String> {
        self.span(At::Op, |t| {
            t.session.begin_op();
            let mut cursor = t.tree.scan_cursor(lo, u64::MAX);
            let mut pairs = 0;
            let r = loop {
                if pairs == limit {
                    break Ok(());
                }
                let next = t.span(At::CoreScan, |t| cursor.next(t.tree, &mut t.session));
                match next {
                    Ok(Some((key, raw))) => match t.resolve(key, raw) {
                        Ok(Some(value)) => {
                            f(key, &value);
                            pairs += 1;
                        }
                        Ok(None) => {} // raced a delete: skip
                        Err(e) => break Err(e),
                    },
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e.to_string()),
                }
            };
            t.session.end_op();
            r
        })
    }
}

impl Drop for Traced<'_> {
    fn drop(&mut self) {
        let sample = self.tr.spans[..self.tr.spans.len().min(SPAN_DUMP)].to_vec();
        self.tr.fold();
        let trace = ClientTrace {
            totals: self.tr.totals,
            unbalanced_ops: self.tr.unbalanced_ops,
            updates: self.updates,
            inplace_updates: self.inplace_updates,
            sample,
        };
        // A poisoned sink means another client panicked; the run is lost
        // either way and Drop must not panic on top of it.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(trace);
        }
    }
}

// ----------------------------------------------------------------- probes

/// A value, or why there is none (printed as `null` with the reason).
type Val = Result<f64, &'static str>;
const NOT_COMPUTED: &str = "not computed";

fn per(num: Option<f64>, den: f64, none: &'static str) -> Val {
    match num {
        None => Err("counter not found by name"),
        Some(_) if den == 0.0 => Err(none),
        Some(n) => Ok(n / den),
    }
}

fn ns_per(iters: usize, f: impl FnOnce() -> Res<()>) -> Res<f64> {
    let t0 = Instant::now();
    f()?;
    Ok(t0.elapsed().as_nanos() as f64 / iters as f64)
}

/// `pool.read_hit_ns`, `pool.read_miss_ns`, `pool.write_commit_ns` on a
/// bare in-memory `PageStore`: 256 frames over 4096 pages.
fn probe_pool() -> Res<[f64; 3]> {
    const FRAMES: usize = 256;
    const PAGES: usize = 4096;
    let store = PageStore::new(StoreConfig {
        pool_frames: FRAMES,
        ..StoreConfig::default()
    });
    let mut pids = Vec::with_capacity(PAGES);
    for i in 0..PAGES {
        let pid = ctx(store.alloc(), "probe alloc")?;
        let mut w = ctx(store.write_page(pid, WriteIntent::Overwrite), "probe write")?;
        w.bytes_mut()[64] = i as u8;
        ctx(w.commit(), "probe commit")?;
        pids.push(pid);
    }
    let read_all = |pids: &[_], rounds: usize| -> Res<()> {
        for _ in 0..rounds {
            for &pid in pids {
                black_box(ctx(store.read(pid), "probe read")?.bytes()[64]);
            }
        }
        Ok(())
    };
    // One untimed pass writes the dirty frames back, so misses below pay
    // for the read, not for someone else's write-back.
    read_all(&pids, 1)?;
    let miss = ns_per(PAGES * 4, || read_all(&pids, 4))?;
    let hot = &pids[..FRAMES / 2];
    read_all(hot, 1)?;
    let hit = ns_per(hot.len() * 200, || read_all(hot, 200))?;
    let commit = ns_per(hot.len() * 50, || {
        for round in 0..50u8 {
            for &pid in hot {
                let mut w = ctx(store.write_page(pid, WriteIntent::Update), "probe write")?;
                w.write_at(128, &[round; 64]);
                ctx(w.commit(), "probe commit")?;
            }
        }
        Ok(())
    })?;
    Ok([hit, miss, commit])
}

/// `wal.append_ns_per_record`: small delta records through the `Journal`
/// trait of a scratch durable store at `FsyncPolicy::Never`.
fn probe_wal(scratch: &Path) -> Res<f64> {
    const RECORDS: usize = 50_000;
    let dir = scratch.join("wal-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let ds = ctx(
        DurableStore::create(DurableConfig {
            fsync: FsyncPolicy::Never,
            ..DurableConfig::new(&dir)
        }),
        "create WAL probe store",
    )?;
    let journal = ds.store().journal().ok_or("durable store has no journal")?;
    let pid = ctx(ds.store().alloc(), "probe alloc")?;
    let bytes = [7u8; 64];
    let ns = ns_per(RECORDS, || {
        for lsn in 0..RECORDS as u64 {
            if journal.supports_deltas() {
                ctx(
                    journal.log_put_delta(pid, lsn, &[(128, &bytes[..])]),
                    "log_put_delta",
                )?;
            } else {
                ctx(journal.log_put(pid, &bytes), "log_put")?;
            }
        }
        ctx(journal.ensure_published(), "publish staged records")
    });
    drop(ds);
    let _ = std::fs::remove_dir_all(&dir);
    ns
}

/// `(read_ns, write_ns, sync_us)` of one page backend over 4096 pages.
fn probe_backend(b: &dyn PageBackend) -> Res<[f64; 3]> {
    const PAGES: usize = 4096;
    const SYNCS: usize = 8;
    let mut page = vec![0xabu8; b.page_size()];
    ctx(b.grow(PAGES), "backend grow")?;
    let mut sync_ns = 0.0;
    let t0 = Instant::now();
    for i in 0..PAGES {
        page[0] = i as u8;
        ctx(b.write(i, &page), "backend write")?;
        if (i + 1) % (PAGES / SYNCS) == 0 {
            let s0 = Instant::now();
            ctx(b.sync(), "backend sync")?;
            sync_ns += s0.elapsed().as_nanos() as f64;
        }
    }
    let write = (t0.elapsed().as_nanos() as f64 - sync_ns) / PAGES as f64;
    let read = ns_per(PAGES * 4, || {
        for i in 0..PAGES * 4 {
            // A stride coprime to the page count: every page, scattered.
            ctx(b.read(i * 1237 % PAGES, &mut page), "backend read")?;
            black_box(page[0]);
        }
        Ok(())
    })?;
    Ok([read, write, sync_ns / SYNCS as f64 / 1e3])
}

// ------------------------------------------------------------- the pass

fn trace_workload(w: &'static Workload, args: &Args) -> Res<i32> {
    if args.trace == Some(false) {
        return Err("--trace 0 is bench's pass (run.sh picks the binary)".to_string());
    }
    let data_root = args.out_dir.join("data");
    ctx(std::fs::create_dir_all(&data_root), "create out dir")?;
    let World {
        db,
        dir,
        tapes,
        loaded_keys,
        reopen_s,
        config,
        ..
    } = setup(w, args.seed, &data_root)?;
    let replayed = db.recovery().map(|r| r.wal_records_replayed as f64);

    // Warm up, then an untraced reference window and the traced window,
    // half the time each.
    let mut pos = vec![0usize; tapes.len()];
    let half = args.seconds / 2.0;
    const SLICES: usize = ROUNDS * SLICES_PER_ROUND;
    let warm = run_window(w, &tapes, &mut pos, args.warmup_s(), 1, |_| db.session());
    let untraced = run_window(w, &tapes, &mut pos, half, SLICES, |_| db.session());

    let sink = Mutex::new(Vec::new());
    let epoch = Instant::now();
    let stats_before = db.store().stats().snapshot();
    let tree_before = db.tree().counters().snapshot();
    let traced = run_window(w, &tapes, &mut pos, half, SLICES, |c| Traced {
        tree: db.tree(),
        heap: db.heap(),
        store: db.store(),
        durable: db.durable().map(|ds| &**ds),
        session: db.tree().session(),
        tr: Tracer::new(epoch, c),
        updates: 0,
        inplace_updates: 0,
        sink: &sink,
    });
    let stats: StatsSnapshot = db.store().stats().snapshot().delta(&stats_before);
    let tree = db.tree().counters().snapshot().delta(&tree_before);
    let clients = sink.into_inner().map_err(|_| "a traced client panicked")?;

    let mut site = [SiteTotal::default(); SITES];
    let (mut unbalanced, mut updates, mut inplace) = (0, 0, 0);
    for c in &clients {
        for (sum, t) in site.iter_mut().zip(&c.totals) {
            sum.count += t.count;
            sum.total_ns += t.total_ns;
            sum.self_ns += t.self_ns;
        }
        unbalanced += c.unbalanced_ops;
        updates += c.updates;
        inplace += c.inplace_updates;
    }

    // What the three windows left must still be a correct database.
    let mut problems = Vec::new();
    let mut total = warm.tally.clone();
    total.add(&untraced.tally);
    total.add(&traced.tally);
    let live = audit(&db, loaded_keys + total.inserted - total.deleted);
    problems.extend(live.problems);
    if unbalanced > 0 {
        problems.push(format!(
            "{unbalanced} ops whose span self times do not sum to the op span"
        ));
    }
    // Each problem the audit found is one more failure on top of the ops
    // that failed outright.
    let mut failed = total.failed + problems.len() as u64;
    if let Some(f) = &total.first_failure {
        problems.push(format!("first failed op: {f}"));
    }
    let height = ctx(db.tree().height(), "tree height")? as f64;
    let heap_bytes = (db.heap().page_count() * db.store().page_size()) as f64;
    let checkpoint_s = match db.durable() {
        Some(_) => {
            let t0 = Instant::now();
            ctx(db.checkpoint(), "checkpoint after traced window")?;
            Ok(t0.elapsed().as_secs_f64())
        }
        None => Err("in-memory"),
    };
    drop(db);
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let [pool_hit, pool_miss, pool_commit] = probe_pool()?;
    let wal_append = probe_wal(&data_root)?;
    let scratch = data_root.join(format!("backend-probe-{}", std::process::id()));
    let _ = std::fs::remove_file(&scratch);
    let fault = || Arc::new(FaultInjector::new());
    let mem = probe_backend(&MemBackend::new(4096))?;
    let file = probe_backend(&ctx(
        FileBackend::open(&scratch, 4096, fault()),
        "open FileBackend",
    )?)?;
    let _ = std::fs::remove_file(&scratch);
    let mmap = probe_backend(&ctx(
        MmapBackend::open(&scratch, 4096, fault()),
        "open MmapBackend",
    )?)?;
    let _ = std::fs::remove_file(&scratch);

    let ops = traced.ops() as f64;
    let at = |a: At| site[a as usize];
    let mean_us = |a: At| -> Val {
        match at(a).count {
            0 => Err("no such call on this workload"),
            n => Ok(at(a).total_ns as f64 / n as f64 / 1e3),
        }
    };
    // Every put and delete, and nothing else, passes the throttle once.
    let muts = at(At::DbThrottle).count as f64;
    let d = |name: &str| stats.counter(name).map(|v| v as f64);
    let per_op = |name: &str| per(d(name), ops, "no ops");
    let per_op_us = |name: &str| per_op(name).map(|ns| ns / 1e3);
    let per_mut = |name: &str| match (w.durable, d(name)) {
        // No journal in memory: exactly zero, not merely unmeasured.
        (false, Some(0.0)) => Ok(0.0),
        _ => per(d(name), muts, "no puts or deletes on this workload"),
    };
    let value = |name: &str| -> Val {
        match name {
            "db.self_us_per_op" => Ok(at(At::Op).self_ns as f64 / ops / 1e3),
            "db.throttle_us_per_op" => Ok(at(At::DbThrottle).total_ns as f64 / ops / 1e3),
            "core.search_us" => mean_us(At::CoreSearch),
            "core.upsert_us" => mean_us(At::CoreUpsert),
            "core.delete_us" => mean_us(At::CoreDelete),
            "core.scan_us_per_pair" => per(
                Some(at(At::CoreScan).total_ns as f64 / 1e3),
                traced.tally.scan_pairs as f64,
                "no scans on this workload",
            ),
            "core.link_follows_per_op" => Ok(tree.link_follows as f64 / ops),
            "core.restarts_per_op" => Ok(tree.restarts as f64 / ops),
            "core.optimistic_fallback_share" => {
                let tries = d("optimistic_reads").zip(d("optimistic_read_fallbacks"));
                per(
                    tries.map(|(_, f)| f),
                    tries.map_or(0.0, |(r, f)| r + f),
                    "no optimistic reads",
                )
            }
            "core.lock_wait_us_per_op" => per_op_us("lock_wait_ns"),
            "core.height" => Ok(height),
            "heap.read_us" => mean_us(At::HeapRead),
            "heap.insert_us" => mean_us(At::HeapInsert),
            "heap.update_us" => mean_us(At::HeapUpdate),
            "heap.free_us" => mean_us(At::HeapFree),
            "heap.inplace_update_share" => {
                per(Some(inplace as f64), updates as f64, "no overwrites")
            }
            "heap.slot_reuse_share" => per(
                d("heap_slots_reused"),
                at(At::HeapInsert).count as f64,
                "no heap inserts on this workload",
            ),
            "heap.shard_wait_us_per_op" => per_op_us("heap_shard_wait_ns"),
            "heap.bytes_per_user_byte" => {
                Ok(heap_bytes / (live.user_bytes - 8 * live.keys).max(1) as f64)
            }
            "pool.hit_rate" => {
                let reads = d("cache_hits").zip(d("cache_misses"));
                per(
                    reads.map(|(h, _)| h),
                    reads.map_or(0.0, |(h, m)| h + m),
                    "no page reads",
                )
            }
            "pool.page_reads_per_op" => per_op("gets"),
            "pool.evictions_per_op" => per_op("frames_evicted"),
            "pool.dirty_writebacks_per_op" | "backend.writes_per_op" => per_op("dirty_writebacks"),
            "pool.wait_us_per_op" => per(
                d("pool_wait_ns")
                    .zip(d("latch_wait_ns"))
                    .map(|(p, l)| (p + l) / 1e3),
                ops,
                "no ops",
            ),
            "pool.read_hit_ns" => Ok(pool_hit),
            "pool.read_miss_ns" => Ok(pool_miss),
            "pool.write_commit_ns" => Ok(pool_commit),
            "wal.bytes_per_put" => per_mut("wal_bytes"),
            "wal.records_per_put" => per_mut("wal_records"),
            "wal.fsyncs_per_put" => per_mut("wal_fsyncs"),
            "wal.append_wait_us_per_put" => per_mut("wal_append_wait_ns").map(|ns| ns / 1e3),
            "wal.commit_wait_us_per_put" => per_mut("wal_commit_wait_ns").map(|ns| ns / 1e3),
            "wal.group_size" => per(
                d("wal_group_commit_records"),
                d("wal_group_commits").unwrap_or(0.0),
                "no group commits",
            ),
            "wal.pipeline_depth" => per(
                d("wal_pipeline_depth"),
                d("wal_group_commits").unwrap_or(0.0),
                "no group commits",
            ),
            "wal.fsync_us" => per(
                d("wal_fsync_ns").map(|ns| ns / 1e3),
                d("wal_fsyncs").unwrap_or(0.0),
                "no fsyncs",
            ),
            "wal.commit_span_us" => match at(At::WalScope).count {
                0 => Err("no deferred-commit scope ran"),
                n => Ok(at(At::WalScope).self_ns as f64 / n as f64 / 1e3),
            },
            "wal.append_ns_per_record" => Ok(wal_append),
            "backend.mem.read_ns" => Ok(mem[0]),
            "backend.mem.write_ns" => Ok(mem[1]),
            "backend.file.read_ns" => Ok(file[0]),
            "backend.file.write_ns" => Ok(file[1]),
            "backend.file.sync_us" => Ok(file[2]),
            "backend.mmap.read_ns" => Ok(mmap[0]),
            "backend.mmap.write_ns" => Ok(mmap[1]),
            "backend.mmap.sync_us" => Ok(mmap[2]),
            "backend.reads_per_op" => per_op("cache_misses"),
            "flusher.pages_written" => {
                d("flusher_pages_written").ok_or("counter not found by name")
            }
            "flusher.wakeups" => d("flusher_wakeups").ok_or("counter not found by name"),
            "flusher.backpressure_us_per_op" => per_op_us("flusher_backpressure_ns"),
            "checkpoint_s" => checkpoint_s,
            "recover.replayed_records" => replayed.ok_or("in-memory"),
            "recover.records_per_s" => match replayed.zip(reopen_s) {
                Some((records, secs)) => Ok(records / secs),
                None => Err("in-memory"),
            },
            "trace_overhead_pct" => {
                Ok((untraced.ops_per_s() - traced.ops_per_s()) / untraced.ops_per_s() * 100.0)
            }
            _ => Err(NOT_COMPUTED),
        }
    };

    println!(
        "# {} seed {} traced window {:.1} s ({} ops; untraced {:.0} ops/s, traced {:.0} ops/s)",
        w.name,
        args.seed,
        traced.seconds(),
        traced.ops(),
        untraced.ops_per_s(),
        traced.ops_per_s()
    );
    let values: Vec<Val> = PER_LAYER.iter().map(|s| value(s.name)).collect();
    let mut layers = Json::obj();
    for (s, &v) in PER_LAYER.iter().zip(&values) {
        if v == Err(NOT_COMPUTED) {
            // `spec.rs` names a metric this binary does not know.
            problems.push(format!("{} is {NOT_COMPUTED}", s.name));
            failed += 1;
        }
        match v {
            Ok(v) => println!("{:<34} {v:>16.4} {}", s.name, s.unit),
            Err(why) => println!("{:<34} {:>16} {} ({why})", s.name, "null", s.unit),
        }
        layers.set(
            s.name,
            Json::obj()
                .with("value", v.ok())
                .with("unit", s.unit)
                .with("null_because", v.err()),
        );
    }
    // Durable numbers are the sandbox's, not a device's: print the cost
    // of one page-file sync beside them.
    println!(
        "  (backend.file.sync_us on this filesystem: {:.1} us)",
        file[2]
    );
    let mut spans = Json::obj();
    for (i, t) in site.iter().enumerate() {
        spans.set(
            SITE_NAMES[i],
            Json::obj()
                .with("count", t.count)
                .with("total_us", t.total_ns as f64 / 1e3)
                .with("self_us", t.self_ns as f64 / 1e3),
        );
        println!(
            "  span {:<12} n={:<9} total={:>12.1} us self={:>12.1} us",
            SITE_NAMES[i],
            t.count,
            t.total_ns as f64 / 1e3,
            t.self_ns as f64 / 1e3
        );
    }
    for p in &problems {
        println!("PROBLEM {p}");
    }

    let sample: Vec<Json> = clients
        .iter()
        .flat_map(|c| &c.sample)
        .map(|s| {
            Json::obj()
                .with("name", SITE_NAMES[s.at as usize])
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("parent", (s.parent != NO_PARENT).then_some(s.parent))
                .with("op_id", s.op_id)
        })
        .collect();
    let result = result_line(
        failed == 0,
        total.attempted,
        failed,
        metrics_json(PER_LAYER, |name| {
            let i = PER_LAYER.iter().position(|s| s.name == name)?;
            values[i].ok()
        }),
    );
    let record = env::fingerprint(args)
        .with("workload", w.name)
        .with("config", config)
        .with("result", result.clone())
        .with("per_layer", layers)
        .with("spans", spans)
        .with("span_sample", sample)
        .with(
            "problems",
            problems
                .iter()
                .map(|p| Json::from(p.as_str()))
                .collect::<Vec<_>>(),
        );
    env::write_record(
        &args.out_dir,
        &format!("{}-{}-{}-trace", env::commit(), args.seed, w.name),
        &record,
    );
    println!("{}", result.encode());
    Ok(0)
}
