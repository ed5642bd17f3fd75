//! Store-wide instrumentation counters and per-layer wait histograms.
//!
//! The paper's claims are stated in terms of locks obtained, lock waiting,
//! and extra page reads (link follows, restarts). These counters are the raw
//! material for experiments E1/E4/E5; they are plain relaxed atomics so they
//! perturb the measured protocols as little as possible.
//!
//! Every field is declared exactly once, inside the `store_stats!`
//! invocation at the bottom of this file: the macro generates the atomic
//! struct ([`StoreStats`]), its point-in-time copy ([`StatsSnapshot`]),
//! `snapshot()`, `delta()`, and by-name access (`COUNTER_NAMES`,
//! `counter()`, `hist()`) in one go — a new counter cannot silently miss
//! the snapshot or the delta anymore.
//!
//! Wait *histograms* ([`WaitHist`]) accompany the wait-sum counters on
//! every synchronization point of the write path (buffer-pool shard
//! mutexes, frame latches, paper locks, rw locks, heap shard allocators,
//! WAL append mutex, group-commit windows, fsyncs). Sums hide tails;
//! snapshot deltas over the histograms give each measured interval its own
//! p50/p99.

use crate::hist::{HistSnapshot, WaitHist};
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! store_stats {
    (
        counters {
            $( $(#[$cattr:meta])* $cname:ident, )*
        }
        hists {
            $( $(#[$hattr:meta])* $hname:ident, )*
        }
    ) => {
        /// Counters maintained by a [`crate::PageStore`].
        #[derive(Debug, Default)]
        pub struct StoreStats {
            $( $(#[$cattr])* pub $cname: AtomicU64, )*
            $( $(#[$hattr])* pub $hname: WaitHist, )*
        }

        /// A point-in-time copy of [`StoreStats`], convenient for diffing.
        #[derive(Debug, Clone, PartialEq)]
        pub struct StatsSnapshot {
            $( pub $cname: u64, )*
            $( pub $hname: HistSnapshot, )*
        }

        impl Default for StatsSnapshot {
            fn default() -> StatsSnapshot {
                StatsSnapshot {
                    $( $cname: 0, )*
                    $( $hname: HistSnapshot::new(), )*
                }
            }
        }

        impl StoreStats {
            /// Copies every counter and histogram.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $( $cname: self.$cname.load(Ordering::Relaxed), )*
                    $( $hname: self.$hname.snapshot(), )*
                }
            }

            /// Looks a scalar counter up by name (tests, generic emitters).
            pub fn counter_ref(&self, name: &str) -> Option<&AtomicU64> {
                match name {
                    $( stringify!($cname) => Some(&self.$cname), )*
                    _ => None,
                }
            }
        }

        impl StatsSnapshot {
            /// Names of every scalar counter, in declaration order.
            pub const COUNTER_NAMES: &'static [&'static str] =
                &[ $( stringify!($cname), )* ];
            /// Names of every wait histogram, in declaration order.
            pub const HIST_NAMES: &'static [&'static str] =
                &[ $( stringify!($hname), )* ];

            /// Element-wise `self - earlier`, for measuring an interval.
            pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $( $cname: self.$cname - earlier.$cname, )*
                    $( $hname: self.$hname.delta(&earlier.$hname), )*
                }
            }

            /// A scalar counter's value by name (see `COUNTER_NAMES`).
            pub fn counter(&self, name: &str) -> Option<u64> {
                match name {
                    $( stringify!($cname) => Some(self.$cname), )*
                    _ => None,
                }
            }

            /// A histogram by name (see `HIST_NAMES`).
            pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
                match name {
                    $( stringify!($hname) => Some(&self.$hname), )*
                    _ => None,
                }
            }

            /// Visits every scalar counter as `(name, value)`.
            pub fn for_each_counter(&self, mut f: impl FnMut(&'static str, u64)) {
                $( f(stringify!($cname), self.$cname); )*
            }
        }
    };
}

store_stats! {
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
        /// Paper-lock acquisitions that had to wait for another holder.
        lock_contended,
        /// Total nanoseconds spent waiting for paper locks.
        lock_wait_ns,
        /// Shared (rw) lock acquisitions (baseline trees only).
        rw_shared_acquires,
        /// Exclusive (rw) lock acquisitions (baseline trees only).
        rw_exclusive_acquires,
        /// Rw-lock acquisitions that had to wait.
        rw_contended,
        /// Total nanoseconds spent waiting for rw locks.
        rw_wait_ns,
        /// Buffer-pool read hits: `read`/`get` served from a resident frame
        /// (no backend access, no page copy). Writes are not counted here,
        /// so `cache_hits + cache_misses == gets` and `hit_rate` is the
        /// read hit rate.
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
        /// Buffer-pool shard-mutex acquisitions that found it held.
        pool_contended,
        /// Total nanoseconds spent waiting for pool shard mutexes.
        pool_wait_ns,
        /// Frame-latch acquisitions (read or write) that had to wait.
        latch_contended,
        /// Total nanoseconds spent waiting for frame latches.
        latch_wait_ns,
        /// WAL records appended (journaled stores only).
        wal_records,
        /// Bytes appended to the WAL (record headers + payloads) — the
        /// write-amplification numerator.
        wal_bytes,
        /// Tracked page writes logged as v2 delta records.
        wal_put_deltas,
        /// Page writes logged as full images (v1 puts and v2 base records).
        wal_put_full_images,
        /// Tracked writes that fell back to a full image because the page
        /// had no base record yet in the current checkpoint epoch.
        wal_delta_fallback_first_touch,
        /// Tracked writes that fell back to a full image because the
        /// coalesced delta would have exceeded the size cutoff.
        wal_delta_fallback_large,
        /// Group commits that skipped the batching window because no other
        /// committer was in flight (the self-tuning fast path).
        wal_group_solo_commits,
        /// Delta records recovery skipped because the on-disk page already
        /// carried an LSN at or past the record's (idempotent replay).
        recovery_deltas_skipped,
        /// WAL fsync (sync_data) calls.
        wal_fsyncs,
        /// Total nanoseconds spent inside WAL fsync calls.
        wal_fsync_ns,
        /// Group-commit flushes (each durably commits a batch of records).
        wal_group_commits,
        /// Records covered by those group-commit flushes; divide by
        /// `wal_group_commits` for the mean batch size.
        wal_group_commit_records,
        /// WAL appends that found the append mutex held by another writer.
        wal_append_contended,
        /// Total nanoseconds spent waiting for the WAL append mutex.
        wal_append_wait_ns,
        /// Group commits that entered the batching window (non-solo).
        wal_commit_waits,
        /// Total nanoseconds group committers spent in the batching window
        /// (waiting for a covering fsync, plus their own fsync if nobody
        /// else's arrived).
        wal_commit_wait_ns,
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
        /// Heap inserts that found their shard's allocator mutex held.
        heap_shard_contended,
        /// Total nanoseconds heap inserts spent waiting for a shard mutex.
        heap_shard_wait_ns,
        /// WAL records serialized into per-thread staging slots (staging
        /// mode only) — the appends that skipped the append mutex.
        wal_staged_records,
        /// Staged-batch publishes: a leader stitched the staging slots into
        /// LSN order and issued one contiguous segment write.
        wal_publishes,
        /// Records covered by those publishes; divide by `wal_publishes`
        /// for the mean stitch batch size.
        wal_publish_records,
        /// Group-commit windows whose wait was resized by the adaptive
        /// tuner (shortened for sparse arrivals, stretched toward the
        /// fsync cost for dense ones).
        wal_commit_window_adapted,
        /// Upper-level index descents served by an optimistic (latch-free)
        /// frame snapshot that validated clean.
        optimistic_reads,
        /// Optimistic snapshot attempts that fell back to the latched read
        /// path (non-resident page, writer in the window, owner moved).
        optimistic_read_fallbacks,
        /// Pipelined group commits where the fsync leader rolled straight
        /// into the next filled batch without ever standing down — each
        /// bump is one batch whose fill fully overlapped the previous
        /// batch's fsync (the pipeline actually pipelining).
        wal_pipeline_depth,
        /// Dirty frames written back by the background flusher thread
        /// (a subset of `dirty_writebacks`).
        flusher_pages_written,
        /// Background-flusher drain passes that found dirty frames to
        /// write (wakeups that did real work).
        flusher_wakeups,
        /// Total nanoseconds foreground writers spent throttled waiting
        /// for the flusher to drain below the high-dirty watermark.
        flusher_backpressure_ns,
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
        /// Individual group-commit window waits (entry to durable).
        wal_commit_wait_hist,
        /// Individual WAL fsync durations.
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
}

impl StoreStats {
    /// Adds 1 to a counter (public so journal implementations in other
    /// crates can maintain the WAL counters on a shared `StoreStats`).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `v` to a counter.
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Records one contended paper-lock acquisition that waited `ns`.
    pub fn record_lock_wait(&self, ns: u64) {
        StoreStats::bump(&self.lock_contended);
        StoreStats::add(&self.lock_wait_ns, ns);
        self.lock_wait_hist.record(ns);
    }

    /// Records one contended rw-lock acquisition that waited `ns`.
    pub fn record_rw_wait(&self, ns: u64) {
        StoreStats::bump(&self.rw_contended);
        StoreStats::add(&self.rw_wait_ns, ns);
        self.rw_wait_hist.record(ns);
    }

    /// Records one contended buffer-pool shard-mutex wait.
    pub fn record_pool_wait(&self, ns: u64) {
        StoreStats::bump(&self.pool_contended);
        StoreStats::add(&self.pool_wait_ns, ns);
        self.pool_wait_hist.record(ns);
    }

    /// Records one contended frame-latch wait.
    pub fn record_latch_wait(&self, ns: u64) {
        StoreStats::bump(&self.latch_contended);
        StoreStats::add(&self.latch_wait_ns, ns);
        self.latch_wait_hist.record(ns);
    }

    /// Records one heap shard-mutex wait: bumps the contended counter, the
    /// running sum, and the wait histogram.
    pub fn record_heap_wait(&self, ns: u64) {
        StoreStats::bump(&self.heap_shard_contended);
        StoreStats::add(&self.heap_shard_wait_ns, ns);
        self.heap_wait_hist.record(ns);
    }

    /// Records one contended WAL append-mutex wait.
    pub fn record_wal_append_wait(&self, ns: u64) {
        StoreStats::bump(&self.wal_append_contended);
        StoreStats::add(&self.wal_append_wait_ns, ns);
        self.wal_append_wait_hist.record(ns);
    }

    /// Records one group-commit window wait (entry to durable).
    pub fn record_wal_commit_wait(&self, ns: u64) {
        StoreStats::bump(&self.wal_commit_waits);
        StoreStats::add(&self.wal_commit_wait_ns, ns);
        self.wal_commit_wait_hist.record(ns);
    }

    /// Records one WAL fsync: bumps the call counter, the duration sum,
    /// and the duration histogram.
    pub fn record_fsync(&self, ns: u64) {
        StoreStats::bump(&self.wal_fsyncs);
        StoreStats::add(&self.wal_fsync_ns, ns);
        self.fsync_hist.record(ns);
    }

    /// Records one foreground throttle at the high-dirty watermark: adds
    /// to the backpressure sum and the wait histogram.
    pub fn record_flusher_backpressure(&self, ns: u64) {
        StoreStats::add(&self.flusher_backpressure_ns, ns);
        self.flusher_backpressure_hist.record(ns);
    }

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
    /// Approximate percentile of the heap shard-wait distribution in this
    /// snapshot (window), in nanoseconds. Returns `None` when no waits
    /// were recorded.
    pub fn heap_wait_percentile_ns(&self, p: f64) -> Option<u64> {
        if self.heap_wait_hist.count() == 0 {
            None
        } else {
            Some(self.heap_wait_hist.percentile(p))
        }
    }

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
        StoreStats::add(&s.lock_wait_ns, 500);
        let a = s.snapshot();
        StoreStats::bump(&s.gets);
        StoreStats::bump(&s.allocs);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.gets, 1);
        assert_eq!(d.allocs, 1);
        assert_eq!(d.lock_wait_ns, 0);
        assert_eq!(b.lock_wait_ns, 500);
        assert_eq!(b.live_pages(), 1);
    }

    #[test]
    fn every_counter_roundtrips_through_snapshot_and_delta() {
        // The macro must wire every declared counter through snapshot(),
        // delta(), counter() and counter_ref() alike: bump each one a
        // distinct number of times and check the window sees exactly that.
        let s = StoreStats::default();
        let before = s.snapshot();
        for (i, &name) in StatsSnapshot::COUNTER_NAMES.iter().enumerate() {
            let c = s
                .counter_ref(name)
                .unwrap_or_else(|| panic!("counter_ref missing {name}"));
            for _ in 0..=i {
                StoreStats::bump(c);
            }
        }
        let d = s.snapshot().delta(&before);
        for (i, &name) in StatsSnapshot::COUNTER_NAMES.iter().enumerate() {
            assert_eq!(
                d.counter(name),
                Some(i as u64 + 1),
                "counter {name} lost in snapshot→delta"
            );
        }
        let mut visited = 0;
        d.for_each_counter(|_, _| visited += 1);
        assert_eq!(visited, StatsSnapshot::COUNTER_NAMES.len());
        assert!(StatsSnapshot::COUNTER_NAMES.len() >= 40);
    }

    #[test]
    fn every_hist_is_reachable_by_name() {
        let s = StoreStats::default();
        s.record_lock_wait(10);
        s.record_rw_wait(20);
        s.record_pool_wait(30);
        s.record_latch_wait(40);
        s.record_heap_wait(50);
        s.record_wal_append_wait(60);
        s.record_wal_commit_wait(70);
        s.record_fsync(80);
        s.record_flusher_backpressure(90);
        s.record_io_retry(100, false);
        let snap = s.snapshot();
        for &name in StatsSnapshot::HIST_NAMES {
            let h = snap
                .hist(name)
                .unwrap_or_else(|| panic!("hist missing {name}"));
            assert_eq!(h.count(), 1, "hist {name} must have the one sample");
        }
        assert_eq!(StatsSnapshot::HIST_NAMES.len(), 10);
        // Each record_* helper also maintained its sum/contended counters.
        assert_eq!(snap.lock_contended, 1);
        assert_eq!(snap.pool_wait_ns, 30);
        assert_eq!(snap.latch_contended, 1);
        assert_eq!(snap.heap_shard_wait_ns, 50);
        assert_eq!(snap.wal_append_wait_ns, 60);
        assert_eq!(snap.wal_commit_wait_ns, 70);
        assert_eq!(snap.wal_fsyncs, 1);
        assert_eq!(snap.wal_fsync_ns, 80);
        assert_eq!(snap.flusher_backpressure_ns, 90);
        assert_eq!(snap.io_retries, 1);
        assert_eq!(snap.io_giveups, 0);
    }

    #[test]
    fn heap_wait_histogram_windows_and_percentiles() {
        let s = StoreStats::default();
        // 8 sub-µs waits, one 50µs wait, one 2s outlier.
        for _ in 0..8 {
            s.record_heap_wait(500);
        }
        s.record_heap_wait(50_000);
        s.record_heap_wait(2_000_000_000);
        let snap = s.snapshot();
        assert_eq!(snap.heap_shard_contended, 10);
        assert_eq!(snap.heap_wait_hist.count(), 10);
        let p50 = snap.heap_wait_percentile_ns(50.0).unwrap();
        assert!((450..=550).contains(&p50), "p50 ≈ 500ns, got {p50}");
        let p90 = snap.heap_wait_percentile_ns(90.0).unwrap();
        assert!((45_000..=55_000).contains(&p90), "p90 ≈ 50µs, got {p90}");
        assert_eq!(
            snap.heap_wait_percentile_ns(100.0),
            Some(2_000_000_000),
            "max is exact"
        );
        // Windowing: a delta over a quiet interval is empty.
        let later = s.snapshot();
        assert_eq!(later.delta(&snap).heap_wait_percentile_ns(99.0), None);
    }
}
