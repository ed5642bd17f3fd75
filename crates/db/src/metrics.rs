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
/// session. Each op costs two clock reads and three relaxed adds (bucket,
/// count, sum) into the recording thread's own stripe, plus a min or max
/// update when it sets a new extreme, so sessions on different threads
/// write no common cache line.
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
    /// Tree-wide structural counters (splits, restarts, link follows, …)
    /// and the latency of each scan-cursor leaf hop (`scan_hop_hist`: one
    /// `fill`, link follow or re-descent plus harvest).
    pub tree: CountersSnapshot,
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
            ("scan_hop", &$self.tree.scan_hop_hist),
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
        out.push_str("tree:");
        self.tree.for_each_counter(|name, v| {
            let _ = write!(out, " {name}={v}");
        });
        out.push('\n');
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
            "wal: records={} deltas={} full_images={} moves={} bytes={} fsyncs={} fsync_time={} \
             group_commits={}",
            self.store.wal_records,
            self.store.wal_put_deltas,
            self.store.wal_put_full_images,
            self.store.wal_put_moves,
            self.store.wal_bytes,
            self.store.fsync_hist.count(),
            fmt_ns(self.store.fsync_hist.sum()),
            self.store.wal_group_commits,
        );
        out
    }

    /// Exports everything as one JSON object:
    /// `{"counters": {...}, "hists": {...}, "tree": {...}, "ops": {...}}`.
    /// Histograms are summarized (`n/sum/min/max/mean/p50/p90/p99`), not
    /// dumped bucket-by-bucket.
    pub fn to_json(&self) -> String {
        let (mut store, mut tree) = (Vec::new(), Vec::new());
        self.store
            .for_each_counter(|name, v| store.push((name, v.to_string())));
        self.tree
            .for_each_counter(|name, v| tree.push((name, v.to_string())));
        let hists = StatsSnapshot::HIST_NAMES.iter().map(|&name| {
            let h = self.store.hist(name).expect("HIST_NAMES is exhaustive");
            (name, hist_json(h))
        });
        let mut out = String::from("{");
        json_object(&mut out, "counters", store);
        json_object(&mut out, "hists", hists);
        json_object(&mut out, "tree", tree);
        json_object(
            &mut out,
            "ops",
            op_hists!(self).map(|(n, h)| (n, hist_json(h))),
        );
        out.pop();
        out.push_str("\n}\n");
        out
    }
}

/// Appends `"key": {`, one `"name": value` a line, and `},`.
fn json_object(
    out: &mut String,
    key: &str,
    entries: impl IntoIterator<Item = (&'static str, String)>,
) {
    let _ = write!(out, "\n  \"{key}\": {{");
    for (i, (name, v)) in entries.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{name}\": {v}");
    }
    out.push_str("\n  },");
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
