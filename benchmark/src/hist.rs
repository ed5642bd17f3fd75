//! Log-linear latency histogram: 128 linear sub-buckets per power of two,
//! so a reported percentile is within 1/128 (< 1%) of the true sample. The
//! store's own `WaitHist` is log2 (2× resolution) — fine for attribution,
//! too coarse for a ruler that has to resolve a 10% regression.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2⁴¹ ns (~37 min) resolve; larger ones clamp into the top.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 2) as usize * SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u32]>,
    n: u64,
    sum: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hist(n={}, mean={:.0}ns)", self.n, self.mean())
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = (63 - v.leading_zeros()).min(MAX_EXP);
    let sub = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
    let sub = if v >> e > 1 { SUB - 1 } else { sub }; // clamped overflow
    (e - SUB_BITS + 1) as usize * SUB + sub
}

/// `(low end, width)` of a bucket's value range.
fn range_of(b: usize) -> (f64, f64) {
    if b < SUB {
        return (b as f64, 1.0);
    }
    let e = (b / SUB) as u32 + SUB_BITS - 1;
    let lo = (1u64 << e) + (((b % SUB) as u64) << (e - SUB_BITS));
    (lo as f64, (1u64 << (e - SUB_BITS)) as f64)
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            n: 0,
            sum: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
        self.sum += ns;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The `p`-th percentile (0–100) in nanoseconds, interpolated within
    /// its bucket by rank (so two runs rarely read exactly alike); `None`
    /// when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.n as f64).clamp(0.5, self.n as f64);
        let mut seen = 0.0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c as f64 >= rank {
                let (lo, width) = range_of(b);
                return Some(lo + width * (rank - seen) / c as f64);
            }
            seen += c as f64;
        }
        unreachable!("rank <= n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_is_below_one_percent() {
        let mut v = 1u64;
        while v < 1 << 39 {
            let (lo, width) = range_of(bucket_of(v));
            assert!(lo <= v as f64 && (v as f64) < lo + width, "v={v} lo={lo}");
            assert!(
                width == 1.0 || width / lo <= 1.0 / 128.0,
                "v={v} width={width}"
            );
            v = v * 21 / 20 + 1;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_of_a_known_distribution() {
        let mut h = Hist::new();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let near = |got: f64, want: f64| (got - want).abs() / want < 0.01;
        assert!(near(h.percentile(50.0).unwrap(), 500_000.0));
        assert!(near(h.percentile(99.0).unwrap(), 990_000.0));
        assert!(near(h.mean(), 500_050.0));
        assert_eq!(Hist::new().percentile(50.0), None);
        let mut m = Hist::new();
        m.merge(&h);
        m.merge(&h);
        assert_eq!(m.count(), 20_000);
    }
}
