//! Key distributions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How keys are drawn from the key space `0..n`.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// YCSB-style zipfian with skew `theta` in (0, 1); ~0.99 is the YCSB
    /// default. Ranks are scrambled (a splitmix64 hash) so the hot keys
    /// are spread across the key space rather than clustered at 0.
    Zipf { theta: f64 },
    /// Monotonically increasing keys (bulk-load / right-edge growth; the
    /// worst case for lock contention at the rightmost path).
    Sequential,
    /// A fraction `hot_fraction` of the key space receives `hot_prob` of
    /// the accesses.
    Hotspot { hot_fraction: f64, hot_prob: f64 },
}

/// A seeded sampler over `0..n` for a [`KeyDist`].
#[derive(Debug)]
pub struct KeyPicker {
    n: u64,
    dist: KeyDist,
    rng: StdRng,
    seq: u64,
    zipf: Option<ZipfState>,
}

#[derive(Debug)]
struct ZipfState {
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

/// Incomplete zeta: Σ_{i=1..n} 1/i^theta.
fn zeta(n: u64, theta: f64) -> f64 {
    // Exact up to a million terms, then the Euler–Maclaurin tail; plenty
    // accurate for workload generation.
    let exact = n.min(1_000_000);
    let mut z = 0.0;
    for i in 1..=exact {
        z += 1.0 / (i as f64).powf(theta);
    }
    if n > exact {
        // ∫ x^-theta dx from exact..n
        let a = 1.0 - theta;
        z += ((n as f64).powf(a) - (exact as f64).powf(a)) / a;
    }
    z
}

impl KeyPicker {
    /// A sampler over keys `0..n`.
    pub fn new(n: u64, dist: KeyDist, seed: u64) -> KeyPicker {
        assert!(n > 0, "key space must be nonempty");
        let zipf = match dist {
            KeyDist::Zipf { theta } => {
                assert!(theta > 0.0 && theta < 1.0, "zipf theta must be in (0,1)");
                let zetan = zeta(n, theta);
                let zeta2 = zeta(2, theta);
                let alpha = 1.0 / (1.0 - theta);
                let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                Some(ZipfState {
                    theta,
                    alpha,
                    zetan,
                    eta,
                })
            }
            _ => None,
        };
        KeyPicker {
            n,
            dist,
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
            zipf,
        }
    }

    /// Draws the next key.
    pub fn next_key(&mut self) -> u64 {
        match &self.dist {
            KeyDist::Uniform => self.rng.gen_range(0..self.n),
            KeyDist::Sequential => {
                let k = self.seq;
                self.seq = (self.seq + 1) % self.n;
                k
            }
            KeyDist::Hotspot {
                hot_fraction,
                hot_prob,
            } => {
                let hot_n = ((self.n as f64) * hot_fraction).max(1.0) as u64;
                if self.rng.gen::<f64>() < *hot_prob {
                    self.rng.gen_range(0..hot_n)
                } else {
                    self.rng.gen_range(hot_n.min(self.n - 1)..self.n)
                }
            }
            KeyDist::Zipf { .. } => {
                let z = self.zipf.as_ref().expect("zipf state");
                let u: f64 = self.rng.gen();
                let uz = u * z.zetan;
                let rank = if uz < 1.0 {
                    1
                } else if uz < 1.0 + 0.5_f64.powf(z.theta) {
                    2
                } else {
                    1 + ((self.n as f64) * (z.eta * u - z.eta + 1.0).powf(z.alpha)) as u64
                };
                let rank = rank.min(self.n) - 1; // 0-based
                scramble(rank) % self.n
            }
        }
    }
}

/// Spreads zipf ranks over the key space (stable across runs): the
/// splitmix64 finalizer of `rank + 1`. The finalizer maps 0 to 0, so the
/// `+ 1` keeps rank 0 (the hottest) off key 0, the tree's left edge.
fn scramble(rank: u64) -> u64 {
    let mut z = rank.wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn uniform_covers_space_evenly() {
        let mut p = KeyPicker::new(100, KeyDist::Uniform, 42);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[p.next_key() as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*min > 700 && *max < 1300, "uniform too lumpy: {min}..{max}");
    }

    #[test]
    fn sequential_wraps() {
        let mut p = KeyPicker::new(3, KeyDist::Sequential, 0);
        let got: Vec<u64> = (0..7).map(|_| p.next_key()).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn zipf_is_skewed_but_in_range() {
        let n = 10_000u64;
        let mut p = KeyPicker::new(n, KeyDist::Zipf { theta: 0.99 }, 7);
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for _ in 0..100_000 {
            let k = p.next_key();
            assert!(k < n);
            *counts.entry(k).or_default() += 1;
        }
        let max = counts.values().max().copied().unwrap();
        let distinct = counts.len();
        // Hottest key far above uniform expectation (10), long tail present.
        assert!(max > 2_000, "zipf not skewed enough: max={max}");
        assert!(distinct > 1_000, "zipf has no tail: distinct={distinct}");
    }

    #[test]
    fn zipf_hottest_key_is_not_the_left_edge() {
        let mut p = KeyPicker::new(10_000, KeyDist::Zipf { theta: 0.99 }, 7);
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for _ in 0..100_000 {
            *counts.entry(p.next_key()).or_default() += 1;
        }
        let (hottest, _) = counts.iter().max_by_key(|(_, c)| **c).unwrap();
        assert_ne!(*hottest, 0, "rank 0 must not land on key 0");
    }

    #[test]
    fn hotspot_concentrates() {
        let mut p = KeyPicker::new(
            1000,
            KeyDist::Hotspot {
                hot_fraction: 0.1,
                hot_prob: 0.9,
            },
            3,
        );
        let mut hot = 0u32;
        for _ in 0..10_000 {
            if p.next_key() < 100 {
                hot += 1;
            }
        }
        assert!(
            (8_500..9_500).contains(&hot),
            "hotspot miscalibrated: {hot}"
        );
    }

    #[test]
    fn same_seed_same_sequence() {
        for dist in [
            KeyDist::Uniform,
            KeyDist::Zipf { theta: 0.9 },
            KeyDist::Hotspot {
                hot_fraction: 0.2,
                hot_prob: 0.8,
            },
        ] {
            let mut a = KeyPicker::new(500, dist.clone(), 11);
            let mut b = KeyPicker::new(500, dist, 11);
            for _ in 0..100 {
                assert_eq!(a.next_key(), b.next_key());
            }
        }
    }

    #[test]
    fn zeta_matches_direct_sum() {
        let direct: f64 = (1..=1000).map(|i| 1.0 / (i as f64).powf(0.5)).sum();
        assert!((zeta(1000, 0.5) - direct).abs() < 1e-9);
        // Tail approximation stays close for large n.
        let approx = zeta(2_000_000, 0.5);
        assert!(approx > zeta(1_000_000, 0.5));
    }
}
