//! Store-wide instrumentation counters and per-layer wait histograms.
//!
//! The paper's claims are stated in terms of locks obtained, lock waiting,
//! and extra page reads (link follows, restarts). These counters are the raw
//! material for experiments E1/E4/E5; they are relaxed atomics so they
//! perturb the measured protocols as little as possible — and each one is a
//! [`Counter`] striped over cache-padded per-thread cells, so two threads
//! bumping `gets` never write the same cache line (reads sum the stripes).
//!
//! Every field is declared exactly once, inside the `store_stats!`
//! invocation at the bottom of this file: the macro generates the atomic
//! struct ([`StoreStats`]), its point-in-time copy ([`StatsSnapshot`]),
//! `snapshot()`, `delta()`, and by-name access (`COUNTER_NAMES`,
//! `counter()`, `hist()`) in one go — a new counter cannot silently miss
//! the snapshot or the delta anymore. The tree's `TreeCounters` is
//! declared by the same (exported) macro.
//!
//! Every synchronization point of the write path (buffer-pool shard
//! mutexes, frame latches, paper locks, rw locks, heap shard allocators,
//! WAL append mutex, commit waits, fsyncs) records each wait once, into
//! its [`WaitHist`](crate::WaitHist). Sums hide tails; snapshot deltas
//! over the histograms give each measured interval its own p50/p99. The
//! scalar names `lock_contended`, `lock_wait_ns`, `wal_fsyncs`, … are
//! *derived*: `counter()` resolves them to a histogram's `count()` or
//! `sum()`, so they cannot drift from it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes per [`Counter`] and per [`crate::WaitHist`]. Threads are dealt
/// stripes round-robin, so up to this many concurrently running threads
/// write disjoint cache lines.
pub(crate) const STRIPES: usize = 16;

/// One cache line holding one stripe of a [`Counter`].
#[derive(Debug, Default)]
#[repr(align(64))]
struct Stripe(AtomicU64);

/// A store-wide event counter striped across per-thread cache lines:
/// [`StoreStats::bump`]/[`StoreStats::add`] touch only the calling thread's
/// stripe, and [`Counter::get`] (what snapshots read) sums them all.
#[derive(Default)]
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

/// The calling thread's stripe index, dealt on its first use: one ticket
/// per thread, shared by every [`Counter`] and [`crate::WaitHist`].
#[inline]
pub(crate) fn thread_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static MINE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    MINE.with(|s| *s)
}

impl Counter {
    /// Adds `v` to the calling thread's stripe.
    #[inline]
    pub fn add(&self, v: u64) {
        self.stripes[thread_stripe()]
            .0
            .fetch_add(v, Ordering::Relaxed);
    }

    /// The counter's value: the (wrapping) sum of every stripe.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .fold(0, |sum, s| sum.wrapping_add(s.0.load(Ordering::Relaxed)))
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// Declares a telemetry struct and its snapshot from one field list.
///
/// From `counters` (striped [`crate::stats::Counter`]s), `hists`
/// ([`crate::WaitHist`]s) and `derived` names (each a histogram's `count`
/// or `sum`), it generates the live struct (`snapshot()`,
/// `counter_ref()`, `bump()`, `add()`) and its point-in-time copy
/// (`delta()`, `COUNTER_NAMES`, `HIST_NAMES`, `counter()`, `hist()`,
/// `for_each_counter()`). A derived name answers `counter()` and
/// `for_each_counter()` like a stored counter, after them in
/// `COUNTER_NAMES`, but is not stored: the histogram is its only home.
/// [`crate::StoreStats`] and `sagiv_blink`'s `TreeCounters` are both
/// declared by it.
#[macro_export]
macro_rules! store_stats {
    (
        $(#[$sattr:meta])* stats $stats:ident;
        $(#[$nattr:meta])* snapshot $snap:ident;
        counters {
            $( $(#[$cattr:meta])* $cname:ident, )*
        }
        hists {
            $( $(#[$hattr:meta])* $hname:ident, )*
        }
        derived {
            $( $dname:ident = $dhist:ident . $dfn:ident, )*
        }
    ) => {
        $(#[$sattr])*
        #[derive(Debug, Default)]
        pub struct $stats {
            $( $(#[$cattr])* pub $cname: $crate::stats::Counter, )*
            $( $(#[$hattr])* pub $hname: $crate::WaitHist, )*
        }

        $(#[$nattr])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct $snap {
            $( pub $cname: u64, )*
            $( pub $hname: $crate::HistSnapshot, )*
        }

        impl $stats {
            /// Adds 1 to a counter.
            #[inline]
            pub fn bump(counter: &$crate::stats::Counter) {
                counter.add(1);
            }

            /// Adds `v` to a counter.
            #[inline]
            pub fn add(counter: &$crate::stats::Counter, v: u64) {
                counter.add(v);
            }

            /// Copies every counter and histogram.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $cname: self.$cname.get(), )*
                    $( $hname: self.$hname.snapshot(), )*
                }
            }

            /// Looks a stored counter up by name (tests, generic emitters);
            /// `None` for a derived name.
            pub fn counter_ref(&self, name: &str) -> Option<&$crate::stats::Counter> {
                match name {
                    $( stringify!($cname) => Some(&self.$cname), )*
                    _ => None,
                }
            }
        }

        impl $snap {
            /// Names of every counter, stored then derived, in declaration
            /// order.
            pub const COUNTER_NAMES: &'static [&'static str] =
                &[ $( stringify!($cname), )* $( stringify!($dname), )* ];
            /// Names of every histogram, in declaration order.
            pub const HIST_NAMES: &'static [&'static str] =
                &[ $( stringify!($hname), )* ];

            /// Element-wise `self - earlier`, for measuring an interval.
            pub fn delta(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $cname: self.$cname - earlier.$cname, )*
                    $( $hname: self.$hname.delta(&earlier.$hname), )*
                }
            }

            /// A counter's value by name (see `COUNTER_NAMES`).
            pub fn counter(&self, name: &str) -> Option<u64> {
                match name {
                    $( stringify!($cname) => Some(self.$cname), )*
                    $( stringify!($dname) => Some(self.$dhist.$dfn()), )*
                    _ => None,
                }
            }

            /// A histogram by name (see `HIST_NAMES`).
            pub fn hist(&self, name: &str) -> Option<&$crate::HistSnapshot> {
                match name {
                    $( stringify!($hname) => Some(&self.$hname), )*
                    _ => None,
                }
            }

            /// Visits every counter as `(name, value)`, in `COUNTER_NAMES`
            /// order.
            pub fn for_each_counter(&self, mut f: impl FnMut(&'static str, u64)) {
                $( f(stringify!($cname), self.$cname); )*
                $( f(stringify!($dname), self.$dhist.$dfn()); )*
            }
        }
    };
}

store_stats! {
    /// Counters maintained by a [`crate::PageStore`].
    stats StoreStats;
    /// A point-in-time copy of [`StoreStats`], convenient for diffing.
    snapshot StatsSnapshot;
    counters {
        /// Number of `get` (page read) operations.
        gets,
        /// Number of `put` (page write) operations.
        puts,
        /// Pages allocated.
        allocs,
        /// Pages freed (returned to the free list).
        frees,
        /// Paper-lock acquisitions.
        lock_acquires,
        /// Shared (rw) lock acquisitions (baseline trees only).
        rw_shared_acquires,
        /// Exclusive (rw) lock acquisitions (baseline trees only).
        rw_exclusive_acquires,
        /// Buffer-pool read hits: `read`/`get` served from a resident frame
        /// (no backend access, no page copy). Writes are not counted here,
        /// so `cache_hits + cache_misses + optimistic_reads == gets` and
        /// `hit_rate` is the latched reads' hit rate.
        cache_hits,
        /// Buffer-pool read misses: reads that had to load from (or, when
        /// every frame was pinned, bypass to) the backend.
        cache_misses,
        /// Frames whose resident page was displaced by CLOCK replacement.
        frames_evicted,
        /// Dirty frames written back to the backend (eviction or flush).
        dirty_writebacks,
        /// Frame pins taken (each read/write guard pins its frame once).
        pins,
        /// Accesses that bypassed the pool because every frame was pinned.
        pool_bypasses,
        /// WAL records appended (journaled stores only).
        wal_records,
        /// Bytes appended to the WAL (record headers + payloads) — the
        /// write-amplification numerator.
        wal_bytes,
        /// Page writes logged as delta records.
        wal_put_deltas,
        /// Move edits inside those delta records: a shifted run of the
        /// prior image, logged as `(dst, src, len)` instead of its bytes.
        wal_put_moves,
        /// Page writes logged as full images (v2 base records).
        wal_put_full_images,
        /// Writes with a prior image that fell back to a full image
        /// because the page had no base record yet in the current
        /// checkpoint epoch.
        wal_delta_fallback_first_touch,
        /// Writes with a prior image that fell back to a full image
        /// because the delta would have exceeded the size cutoff.
        wal_delta_fallback_large,
        /// Delta records recovery skipped because the on-disk page already
        /// carried an LSN at or past the record's (idempotent replay).
        recovery_deltas_skipped,
        /// Group-commit flushes (each durably commits a batch of records).
        wal_group_commits,
        /// Records covered by those group-commit flushes; divide by
        /// `wal_group_commits` for the mean batch size.
        wal_group_commit_records,
        /// WAL records replayed by recovery when the store was opened.
        recovery_replayed,
        /// Heap inserts that landed in a reused (previously freed) slot
        /// instead of bump-allocating a new one.
        heap_slots_reused,
        /// Partially-empty heap pages adopted back into a shard's
        /// allocation pool from the recycle queue.
        heap_pages_recycled,
        /// Heap pages released back to the store (emptied by frees).
        heap_pages_released,
        /// Benign double-frees the `Db` observed (a record already freed by
        /// a racing overwrite/delete; real I/O errors are propagated, not
        /// counted here).
        heap_double_frees,
        /// Page reads served by an optimistic frame snapshot (no pin, no
        /// latch) that validated clean: every traversal read of a resident
        /// page, prime block and leaves included.
        optimistic_reads,
        /// Optimistic snapshot attempts that fell back to the latched read
        /// path (non-resident page, writer in the window, owner moved).
        optimistic_read_fallbacks,
        /// Group-commit fsyncs led by a committer that had waited behind
        /// the running fsync: each bump is one batch that filled while the
        /// previous batch's fsync ran (commits overlapping an fsync).
        wal_pipeline_depth,
        /// Dirty frames written back by the background flusher, a step of
        /// the store's loop (a subset of `dirty_writebacks`).
        flusher_pages_written,
        /// Background-flusher drain passes that found dirty frames to
        /// write (wakeups that did real work).
        flusher_wakeups,
        /// Backend read/write attempts that failed transiently and then
        /// succeeded within the bounded retry loop.
        io_retries,
        /// Backend read/write operations that exhausted the retry budget
        /// and surfaced the I/O error to the caller.
        io_giveups,
        /// Backend write-back failures inside the background flusher —
        /// each one also latches the store error so the next foreground
        /// operation surfaces it (never silently swallowed).
        flusher_errors,
        /// Backend page reads whose stored CRC did not match the image
        /// (torn write or bit rot), surfaced as `ChecksumMismatch`.
        checksum_failures,
    }
    hists {
        /// Individual paper-lock waits (contended acquisitions only).
        lock_wait_hist,
        /// Individual rw-lock waits (baseline trees only).
        rw_wait_hist,
        /// Individual buffer-pool shard-mutex waits (contended only; the
        /// uncontended `try_lock` fast path records nothing).
        pool_wait_hist,
        /// Individual frame-latch waits (contended only).
        latch_wait_hist,
        /// Individual heap shard-mutex waits (contended only). Snapshot
        /// deltas give a *windowed* view — each measured interval's own
        /// distribution — so a measured window reports tail contention,
        /// not just the running sum.
        heap_wait_hist,
        /// Individual WAL append-mutex waits (contended only).
        wal_append_wait_hist,
        /// Individual commit waits: a commit whose LSN was not yet durable,
        /// until its covering fsync completed (its own when it led) or a
        /// failed fsync failed it.
        wal_commit_wait_hist,
        /// Individual WAL fsync (`sync_data`) durations.
        fsync_hist,
        /// Individual foreground waits for flusher backpressure (a writer
        /// throttled at the high-dirty watermark until the flusher
        /// drained; uncontended puts record nothing).
        flusher_backpressure_hist,
        /// Total backoff each retried backend operation slept before
        /// succeeding or giving up (one sample per operation that
        /// retried at all).
        io_retry_backoff_hist,
    }
    derived {
        // Each wait's number and total nanoseconds, read off its histogram.
        lock_contended = lock_wait_hist.count,
        lock_wait_ns = lock_wait_hist.sum,
        rw_contended = rw_wait_hist.count,
        rw_wait_ns = rw_wait_hist.sum,
        pool_contended = pool_wait_hist.count,
        pool_wait_ns = pool_wait_hist.sum,
        latch_contended = latch_wait_hist.count,
        latch_wait_ns = latch_wait_hist.sum,
        heap_shard_contended = heap_wait_hist.count,
        heap_shard_wait_ns = heap_wait_hist.sum,
        wal_append_contended = wal_append_wait_hist.count,
        wal_append_wait_ns = wal_append_wait_hist.sum,
        wal_commit_waits = wal_commit_wait_hist.count,
        wal_commit_wait_ns = wal_commit_wait_hist.sum,
        wal_fsyncs = fsync_hist.count,
        wal_fsync_ns = fsync_hist.sum,
        flusher_backpressure_ns = flusher_backpressure_hist.sum,
    }
}

impl StoreStats {
    /// Records one backend operation that retried transient I/O errors:
    /// `gave_up` decides which counter the outcome lands in, `backoff_ns`
    /// is the total sleep across its attempts.
    pub fn record_io_retry(&self, backoff_ns: u64, gave_up: bool) {
        if gave_up {
            StoreStats::bump(&self.io_giveups);
        } else {
            StoreStats::bump(&self.io_retries);
        }
        self.io_retry_backoff_hist.record(backoff_ns);
    }
}

impl StatsSnapshot {
    /// Live pages = allocations minus frees.
    pub fn live_pages(&self) -> u64 {
        self.allocs.saturating_sub(self.frees)
    }

    /// Buffer-pool read hit rate over this snapshot (0.0 when no reads).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let s = StoreStats::default();
        StoreStats::bump(&s.gets);
        StoreStats::bump(&s.gets);
        s.lock_wait_hist.record(500);
        let a = s.snapshot();
        StoreStats::bump(&s.gets);
        StoreStats::bump(&s.allocs);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.gets, 1);
        assert_eq!(d.allocs, 1);
        assert_eq!(d.counter("lock_wait_ns"), Some(0));
        assert_eq!(b.counter("lock_wait_ns"), Some(500));
        assert_eq!(b.live_pages(), 1);
    }

    #[test]
    fn every_counter_roundtrips_through_snapshot_and_delta() {
        // The macro must wire every stored counter through snapshot(),
        // delta(), counter() and counter_ref() alike: bump each one a
        // distinct number of times and check the window sees exactly that.
        // The derived names, listed last, have no cell of their own.
        let s = StoreStats::default();
        let before = s.snapshot();
        let names = StatsSnapshot::COUNTER_NAMES;
        let stored = names.iter().take_while(|n| s.counter_ref(n).is_some());
        let stored = stored.count();
        assert_eq!((stored, names.len()), (37, 54), "stored, stored + derived");
        for (i, &name) in StatsSnapshot::COUNTER_NAMES[..stored].iter().enumerate() {
            let c = s
                .counter_ref(name)
                .unwrap_or_else(|| panic!("counter_ref missing {name}"));
            for _ in 0..=i {
                StoreStats::bump(c);
            }
        }
        let d = s.snapshot().delta(&before);
        for (i, &name) in StatsSnapshot::COUNTER_NAMES.iter().enumerate() {
            let want = if i < stored { i as u64 + 1 } else { 0 };
            assert_eq!(
                d.counter(name),
                Some(want),
                "counter {name} lost in snapshot→delta"
            );
        }
        for &name in &StatsSnapshot::COUNTER_NAMES[stored..] {
            assert!(s.counter_ref(name).is_none(), "{name} is derived");
        }
        let mut visited = 0;
        d.for_each_counter(|_, _| visited += 1);
        assert_eq!(visited, StatsSnapshot::COUNTER_NAMES.len());
        assert!(StatsSnapshot::COUNTER_NAMES.len() >= 40);
    }

    #[test]
    fn every_hist_is_reachable_by_name() {
        let s = StoreStats::default();
        s.lock_wait_hist.record(10);
        s.rw_wait_hist.record(20);
        s.pool_wait_hist.record(30);
        s.latch_wait_hist.record(40);
        s.heap_wait_hist.record(50);
        s.wal_append_wait_hist.record(60);
        s.wal_commit_wait_hist.record(70);
        s.fsync_hist.record(80);
        s.flusher_backpressure_hist.record(90);
        s.record_io_retry(100, false);
        let snap = s.snapshot();
        for &name in StatsSnapshot::HIST_NAMES {
            let h = snap
                .hist(name)
                .unwrap_or_else(|| panic!("hist missing {name}"));
            assert_eq!(h.count(), 1, "hist {name} must have the one sample");
        }
        assert_eq!(StatsSnapshot::HIST_NAMES.len(), 10);
        // The derived names read each histogram's count and sum.
        let c = |name| snap.counter(name);
        assert_eq!(c("lock_contended"), Some(1));
        assert_eq!(c("pool_wait_ns"), Some(30));
        assert_eq!(c("latch_contended"), Some(1));
        assert_eq!(c("heap_shard_wait_ns"), Some(50));
        assert_eq!(c("wal_append_wait_ns"), Some(60));
        assert_eq!(c("wal_commit_wait_ns"), Some(70));
        assert_eq!(c("wal_fsyncs"), Some(1));
        assert_eq!(c("wal_fsync_ns"), Some(80));
        assert_eq!(c("flusher_backpressure_ns"), Some(90));
        assert_eq!(snap.io_retries, 1);
        assert_eq!(snap.io_giveups, 0);
    }

    #[test]
    fn heap_wait_histogram_windows_and_percentiles() {
        let s = StoreStats::default();
        // 8 sub-µs waits, one 50µs wait, one 2s outlier.
        for _ in 0..8 {
            s.heap_wait_hist.record(500);
        }
        s.heap_wait_hist.record(50_000);
        s.heap_wait_hist.record(2_000_000_000);
        let snap = s.snapshot();
        assert_eq!(snap.counter("heap_shard_contended"), Some(10));
        assert_eq!(snap.heap_wait_hist.count(), 10);
        let p50 = snap.heap_wait_hist.percentile(50.0);
        assert!((450..=550).contains(&p50), "p50 ≈ 500ns, got {p50}");
        let p90 = snap.heap_wait_hist.percentile(90.0);
        assert!((45_000..=55_000).contains(&p90), "p90 ≈ 50µs, got {p90}");
        assert_eq!(
            snap.heap_wait_hist.percentile(100.0),
            2_000_000_000,
            "max is exact"
        );
        // Windowing: a delta over a quiet interval is empty.
        let later = s.snapshot();
        assert_eq!(later.delta(&snap).heap_wait_hist.count(), 0);
    }
}
