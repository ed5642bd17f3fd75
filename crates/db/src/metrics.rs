//! [`crate::Db::metrics`] — per-layer contention & latency attribution.
//!
//! One call returns a [`MetricsSnapshot`] stitching together every layer's
//! telemetry over the shared store: the pagestore's counters and wait
//! histograms (pool shard locks, frame latches, paper rw-locks, heap shard
//! allocators, WAL append mutex, group-commit windows, fsync durations),
//! the tree's structural counters (restarts, link follows, splits, …), and
//! the `Db`'s own end-to-end per-op latency histograms (put/get/delete,
//! plus scan leaf hops recorded by the tree's cursor).
//!
//! Snapshots are cheap, lock-free copies; [`MetricsSnapshot::delta`]
//! subtracts two of them bucket-wise so a measured interval gets its own
//! windowed distribution (percentiles over exactly the ops in between).
//! [`MetricsSnapshot::report`] renders a human-readable breakdown and
//! [`MetricsSnapshot::to_json`] exports everything for harness consumption
//! (no external JSON dependency — the encoder is hand-rolled below).

use blink_pagestore::{fmt_ns, HistSnapshot, StatsSnapshot, WaitHist};
use sagiv_blink::CountersSnapshot;
use std::fmt::Write as _;
use std::time::Instant;

/// Per-op latency recorders owned by [`crate::Db`], shared by every
/// session: two clock reads and two relaxed atomic adds per op.
#[derive(Debug, Default)]
pub(crate) struct OpHists {
    pub(crate) put: WaitHist,
    pub(crate) get: WaitHist,
    pub(crate) delete: WaitHist,
}

impl OpHists {
    /// Records the op that started at `t0` into `hist`.
    #[inline]
    pub(crate) fn finish(hist: &WaitHist, t0: Instant) {
        hist.record(t0.elapsed().as_nanos() as u64);
    }
}

/// Point-in-time copy of every layer's telemetry. See the module docs;
/// obtain via [`crate::Db::metrics`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Store-level counters and wait histograms (buffer pool, frame
    /// latches, paper rw-locks, heap shards, WAL, fsync). Histograms
    /// record **contended acquisitions only**: uncontended fast paths are
    /// untimed, so `pool_wait_hist.count()` is the number of contended
    /// shard locks, not the number of acquisitions.
    pub store: StatsSnapshot,
    /// Tree-wide structural counters (splits, restarts, link follows, …).
    pub tree: CountersSnapshot,
    /// Latency of each scan-cursor leaf hop (one `fill`: link follow or
    /// re-descent plus harvest).
    pub scan_hop: HistSnapshot,
    /// End-to-end `put` latency (index search + heap write + index update
    /// + WAL commit under durable configs).
    pub put: HistSnapshot,
    /// End-to-end point-read latency (`get`/`get_with`, session or
    /// session-less).
    pub get: HistSnapshot,
    /// End-to-end `delete` latency.
    pub delete: HistSnapshot,
}

/// The per-op histograms as `(name, hist)` pairs, in report order.
macro_rules! op_hists {
    ($self:expr) => {
        [
            ("put", &$self.put),
            ("get", &$self.get),
            ("delete", &$self.delete),
            ("scan_hop", &$self.scan_hop),
        ]
    };
}

impl MetricsSnapshot {
    /// Element-wise `self - earlier`: the activity of exactly the window
    /// in between, including windowed histogram distributions.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            store: self.store.delta(&earlier.store),
            tree: self.tree.delta(&earlier.tree),
            scan_hop: self.scan_hop.delta(&earlier.scan_hop),
            put: self.put.delta(&earlier.put),
            get: self.get.delta(&earlier.get),
            delete: self.delete.delta(&earlier.delete),
        }
    }

    /// Human-readable multi-line report: op latencies, per-layer wait
    /// breakdown, tree events, cache and WAL traffic.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "ops (end-to-end latency):");
        for (name, h) in op_hists!(self) {
            let _ = writeln!(out, "  {name:<9} {}", h.summary());
        }
        let _ = writeln!(out, "layer waits (contended acquisitions only):");
        for &name in StatsSnapshot::HIST_NAMES {
            let h = self.store.hist(name).expect("HIST_NAMES is exhaustive");
            let _ = writeln!(
                out,
                "  {:<21} {} total={}",
                name.trim_end_matches("_hist"),
                h.summary(),
                fmt_ns(h.sum()),
            );
        }
        let t = &self.tree;
        let _ = writeln!(
            out,
            "tree: restarts={} link_follows={} splits={} merges={} \
             redistributes={} scan_hops={}",
            t.restarts, t.link_follows, t.splits, t.merges, t.redistributes, t.scan_hops,
        );
        let _ = writeln!(
            out,
            "cache: hits={} misses={} hit_rate={:.4} evicted={} writebacks={}",
            self.store.cache_hits,
            self.store.cache_misses,
            self.store.hit_rate(),
            self.store.frames_evicted,
            self.store.dirty_writebacks,
        );
        let _ = writeln!(
            out,
            "wal: records={} bytes={} fsyncs={} fsync_total={} \
             group_commits={} solo_commits={}",
            self.store.wal_records,
            self.store.wal_bytes,
            self.store.wal_fsyncs,
            fmt_ns(self.store.wal_fsync_ns),
            self.store.wal_group_commits,
            self.store.wal_group_solo_commits,
        );
        out
    }

    /// Exports everything as one JSON object:
    /// `{"counters": {...}, "hists": {...}, "tree": {...}, "ops": {...}}`.
    /// Histograms are summarized (`n/sum/min/max/mean/p50/p90/p99`), not
    /// dumped bucket-by-bucket.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        self.store.for_each_counter(|name, v| {
            let _ = write!(out, "{}\n    \"{name}\": {v}", if first { "" } else { "," });
            first = false;
        });
        out.push_str("\n  },\n  \"hists\": {");
        for (i, &name) in StatsSnapshot::HIST_NAMES.iter().enumerate() {
            let h = self.store.hist(name).expect("HIST_NAMES is exhaustive");
            let _ = write!(
                out,
                "{}\n    \"{name}\": {}",
                if i == 0 { "" } else { "," },
                hist_json(h)
            );
        }
        out.push_str("\n  },\n  \"tree\": {");
        let t = &self.tree;
        for (i, (name, v)) in [
            ("splits", t.splits),
            ("root_splits", t.root_splits),
            ("merges", t.merges),
            ("redistributes", t.redistributes),
            ("root_collapses", t.root_collapses),
            ("enqueues", t.enqueues),
            ("requeues", t.requeues),
            ("discards", t.discards),
            ("waits", t.waits),
            ("reclaimed", t.reclaimed),
            ("recoveries", t.recoveries),
            ("restarts", t.restarts),
            ("link_follows", t.link_follows),
            ("scan_hops", t.scan_hops),
        ]
        .into_iter()
        .enumerate()
        {
            let _ = write!(
                out,
                "{}\n    \"{name}\": {v}",
                if i == 0 { "" } else { "," }
            );
        }
        out.push_str("\n  },\n  \"ops\": {");
        for (i, (name, h)) in op_hists!(self).into_iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{name}\": {}",
                if i == 0 { "" } else { "," },
                hist_json(h)
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// One histogram as a flat JSON object.
pub(crate) fn hist_json(h: &HistSnapshot) -> String {
    format!(
        "{{\"n\": {}, \"sum_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
         \"mean_ns\": {:.1}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        h.mean(),
        h.percentile(50.0),
        h.percentile(90.0),
        h.percentile(99.0),
    )
}
