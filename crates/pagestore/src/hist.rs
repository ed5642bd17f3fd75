//! The shared log-bucketed wait/latency histogram.
//!
//! One histogram type serves every layer: [`WaitHist`] is the lock-free
//! atomic form the hot paths record into (relaxed adds into the recording
//! thread's own stripe), and [`HistSnapshot`] is its plain point-in-time
//! copy — also usable directly as a single-threaded histogram (the
//! harness records per-op latencies into one per worker thread and merges
//! them).
//!
//! Values (nanoseconds) are bucketed by power of two with 16 linear
//! sub-buckets per octave, giving ≤ ~6% relative error over the full
//! `u64` range with fixed memory and O(1) record/merge — the
//! "self-scaling bucket edges" the old fixed decade histogram lacked.
//! Snapshot *deltas* subtract bucket-wise, so a measured interval gets its
//! own distribution (windowed percentiles), not a running mixture.

use crate::stats::{thread_stripe, STRIPES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS; // 16 sub-buckets per octave
const OCTAVES: usize = 61; // covers the full u64 range

/// Total bucket count of [`WaitHist`] / [`HistSnapshot`].
pub const HIST_BUCKETS: usize = OCTAVES * SUB;

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = msb - SUB_BITS + 1;
    let sub = (v >> (octave - 1)) as usize - SUB;
    ((octave as usize) * SUB + sub).min(HIST_BUCKETS - 1)
}

/// Representative (upper-edge) value of a bucket.
fn bucket_value(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let octave = (b / SUB) as u32;
    let sub = (b % SUB) as u64;
    (SUB as u64 + sub) << (octave - 1)
}

/// One thread's share of a [`WaitHist`], alone on its cache line. Its
/// buckets live in their own allocation, made on the stripe's first
/// record, so a histogram costs only the stripes its threads touch.
#[repr(align(64))]
struct HistStripe {
    counts: OnceLock<Box<[AtomicU64; HIST_BUCKETS]>>,
    total: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for HistStripe {
    fn default() -> HistStripe {
        HistStripe {
            counts: OnceLock::new(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }
}

/// Lock-free histogram of `u64` values (typically nanoseconds), striped
/// like [`crate::stats::Counter`]: a thread records into its own
/// cache-padded stripe with relaxed atomics, so two threads recording the
/// same histogram never write the same cache line, and
/// [`WaitHist::snapshot`] / [`WaitHist::count`] merge the stripes exactly.
pub struct WaitHist {
    stripes: [HistStripe; STRIPES],
}

impl Default for WaitHist {
    fn default() -> WaitHist {
        WaitHist::new()
    }
}

impl std::fmt::Debug for WaitHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WaitHist({:?})", self.snapshot())
    }
}

impl WaitHist {
    pub fn new() -> WaitHist {
        WaitHist {
            stripes: std::array::from_fn(|_| HistStripe::default()),
        }
    }

    /// Records one value into the calling thread's stripe. Safe to call
    /// from any thread; threads dealt the same stripe still count exactly.
    pub fn record(&self, v: u64) {
        let s = &self.stripes[thread_stripe()];
        let counts = s
            .counts
            .get_or_init(|| Box::new(std::array::from_fn(|_| AtomicU64::new(0))));
        counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        s.total.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        // Extremes only move outward, so a value inside them needs no
        // write: the read-modify-write runs only for a new extreme.
        if v > s.max.load(Ordering::Relaxed) {
            s.max.fetch_max(v, Ordering::Relaxed);
        }
        if v < s.min.load(Ordering::Relaxed) {
            s.min.fetch_min(v, Ordering::Relaxed);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.stripes
            .iter()
            .fold(0, |n, s| n + s.total.load(Ordering::Relaxed))
    }

    /// Copies the distribution: the stripes merged. Concurrent recorders
    /// may land between the individual loads; each counter is still exact,
    /// so deltas over a quiesced interval are too.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut snap = HistSnapshot::new();
        for s in &self.stripes {
            // A stripe without buckets has recorded nothing yet.
            let Some(counts) = s.counts.get() else {
                continue;
            };
            snap.total += s.total.load(Ordering::Relaxed);
            for (a, c) in snap.counts.iter_mut().zip(counts.iter()) {
                *a += c.load(Ordering::Relaxed);
            }
            snap.sum = snap.sum.wrapping_add(s.sum.load(Ordering::Relaxed));
            snap.max = snap.max.max(s.max.load(Ordering::Relaxed));
            snap.min = snap.min.min(s.min.load(Ordering::Relaxed));
        }
        snap
    }
}

/// A plain (non-atomic) histogram: the snapshot form of [`WaitHist`], and
/// the single-threaded recording form used by the harness.
#[derive(Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: Box<[u64]>,
    total: u64,
    sum: u64,
    max: u64,
    /// `u64::MAX` when empty (so merges stay a plain `min`).
    min: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot::new()
    }
}

impl std::fmt::Debug for HistSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Hist(n={}, mean={:.0}, p50={}, p99={}, max={})",
            self.total,
            self.mean(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.max()
        )
    }
}

impl HistSnapshot {
    pub fn new() -> HistSnapshot {
        HistSnapshot {
            counts: vec![0u64; HIST_BUCKETS].into_boxed_slice(),
            total: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Records one value (single-threaded form).
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        // Wrapping to match the atomic form's `fetch_add` (only absurd
        // totals — centuries of nanoseconds — ever wrap).
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded values (exact).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Approximate percentile (0 < p ≤ 100): the representative value of
    /// the bucket the `p`-th sample falls into, clamped to the exact max.
    /// Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if p >= 100.0 {
            return self.max;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_value(b).min(self.max);
            }
        }
        self.max
    }

    /// Adds all of `other`'s samples.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Bucket-wise `self - earlier`: the distribution of exactly the
    /// samples recorded in between (windowed view). Min/max are
    /// re-derived from the delta's own buckets, so they are bucket-edge
    /// approximations (≤ ~6% relative error), not exact extremes.
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let counts: Box<[u64]> = self
            .counts
            .iter()
            .zip(earlier.counts.iter())
            .map(|(a, b)| a - b)
            .collect();
        let mut max = 0u64;
        let mut min = u64::MAX;
        for (b, &c) in counts.iter().enumerate() {
            if c > 0 {
                min = min.min(bucket_value(b));
                max = max.max(bucket_value(b));
            }
        }
        HistSnapshot {
            counts,
            total: self.total - earlier.total,
            sum: self.sum.wrapping_sub(earlier.sum),
            max: max.min(self.max),
            min,
        }
    }

    /// `"p50=12.3µs p99=4.1ms n=210"`-style one-liner for tables/reports.
    pub fn summary(&self) -> String {
        if self.total == 0 {
            return "n=0".to_string();
        }
        format!(
            "n={} mean={} p50={} p99={} max={}",
            self.total,
            fmt_ns(self.mean() as u64),
            fmt_ns(self.percentile(50.0)),
            fmt_ns(self.percentile(99.0)),
            fmt_ns(self.max())
        )
    }
}

/// Formats nanoseconds with a readable unit (`"1.25ms"`, `"840ns"`, …).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = HistSnapshot::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.summary(), "n=0");
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = HistSnapshot::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.count(), 16);
        assert_eq!(h.percentile(100.0), 15);
    }

    #[test]
    fn percentiles_within_relative_error() {
        let mut h = HistSnapshot::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for p in [50.0, 90.0, 99.0, 99.9] {
            let want = (p / 100.0 * 100_000.0) as u64;
            let got = h.percentile(p);
            let err = (got as f64 - want as f64).abs() / want as f64;
            assert!(err < 0.08, "p{p}: got {got}, want ≈{want} (err {err:.3})");
        }
        assert!((h.mean() - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = HistSnapshot::new();
        let mut b = HistSnapshot::new();
        let mut c = HistSnapshot::new();
        for v in 0..1000u64 {
            let x = v.wrapping_mul(2654435761) % 1_000_000;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            c.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.max(), c.max());
        assert_eq!(a.min(), c.min());
        assert_eq!(a.percentile(50.0), c.percentile(50.0));
    }

    #[test]
    fn bucket_roundtrip_is_monotone() {
        let mut last = 0;
        for exp in 0..63 {
            let v = 1u64 << exp;
            let b = bucket_of(v);
            assert!(b >= last, "buckets must be monotone");
            last = b;
            let rep = bucket_value(b);
            assert!(
                rep >= v,
                "representative must not undershoot: v={v} rep={rep}"
            );
            assert!(
                rep <= v + (v >> 3).max(1),
                "≤ ~12.5% overshoot: v={v} rep={rep}"
            );
        }
    }

    #[test]
    fn huge_values_clamp_to_last_bucket() {
        let mut h = HistSnapshot::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.percentile(50.0) >= bucket_value(HIST_BUCKETS - 2));
    }

    #[test]
    fn atomic_hist_matches_plain_recording() {
        let w = WaitHist::new();
        let mut plain = HistSnapshot::new();
        for v in [0, 1, 15, 16, 17, 1_000, 50_000, 7_777_777, u64::MAX] {
            w.record(v);
            plain.record(v);
        }
        assert_eq!(w.snapshot(), plain);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // Eight threads record disjoint value sets at once (across the
        // test binary, some may be dealt the same stripe): the merged
        // snapshot must equal one plain histogram of every value.
        let w = WaitHist::new();
        let start = std::sync::Barrier::new(8);
        let value = |t: u64, i: u64| (t + 1) * 1_000_003 + i * i;
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (w, start) = (&w, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..5_000u64 {
                        w.record(value(t, i));
                    }
                });
            }
        });
        let mut plain = HistSnapshot::new();
        for t in 0..8u64 {
            for i in 0..5_000u64 {
                plain.record(value(t, i));
            }
        }
        let snap = w.snapshot();
        assert_eq!(w.count(), 40_000);
        assert_eq!(snap.count(), 40_000);
        assert_eq!(snap.sum(), plain.sum());
        assert_eq!(snap.min(), value(0, 0));
        assert_eq!(snap.max(), value(7, 4_999));
        assert_eq!(snap.counts, plain.counts, "bucket counts differ");
        assert_eq!(snap, plain);
    }

    #[test]
    fn stripes_allocate_buckets_on_first_record() {
        let w = WaitHist::new();
        assert!(w.stripes.iter().all(|s| s.counts.get().is_none()));
        assert_eq!(w.snapshot(), HistSnapshot::new());
        w.record(7);
        let allocated = w.stripes.iter().filter(|s| s.counts.get().is_some());
        assert_eq!(allocated.count(), 1);
        assert_eq!(std::mem::size_of::<HistStripe>(), 64);
    }

    #[test]
    fn delta_windows_the_distribution() {
        let w = WaitHist::new();
        w.record(100);
        w.record(200);
        let before = w.snapshot();
        w.record(1_000_000);
        w.record(2_000_000);
        let after = w.snapshot();
        let win = after.delta(&before);
        assert_eq!(win.count(), 2);
        // The window excludes the earlier small samples entirely.
        assert!(win.percentile(1.0) >= 1_000_000 * 15 / 16);
        assert!(win.min() >= 1_000_000 * 15 / 16);
        assert!(win.max() <= 2_000_000 * 17 / 16);
        // Single-sample window: every percentile is that sample's bucket.
        w.record(5);
        let one = w.snapshot().delta(&after);
        assert_eq!(one.count(), 1);
        assert_eq!(one.percentile(50.0), 5);
        assert_eq!(one.percentile(100.0), 5);
        // Empty window.
        let none = w.snapshot().delta(&w.snapshot());
        assert_eq!(none.count(), 0);
        assert_eq!(none.percentile(99.0), 0);
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(840), "840ns");
        assert_eq!(fmt_ns(12_300), "12.30µs");
        assert_eq!(fmt_ns(1_250_000), "1.25ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50s");
    }
}
