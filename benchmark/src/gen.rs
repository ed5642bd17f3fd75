//! The benchmark's own random inputs: a splitmix64 generator and a
//! scrambled-zipfian key distribution. Owned here — not borrowed from
//! `crates/workload` — so an edit to the repo's generators cannot move the
//! ruler.

/// splitmix64: tiny, seedable, and good enough to drive a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias < 2⁻³² for our `n`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 finalizer: a bijection on `u64`, used as the scrambler.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipfian ranks over `[0, n)` by Gray et al.'s method (the YCSB
/// generator), with the rank → key map scrambled by a hash so the hot keys
/// are spread over the key space instead of clustered in one leaf run.
#[derive(Debug, Clone)]
pub struct ScrambledZipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ScrambledZipf {
    pub fn new(n: u64, theta: f64) -> ScrambledZipf {
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        ScrambledZipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    /// The popularity rank (0 = hottest) of the next draw.
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            r.min(self.n - 1)
        }
    }

    /// The next key in `[0, n)`.
    pub fn key(&self, rng: &mut Rng) -> u64 {
        mix(self.rank(rng)) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = ScrambledZipf::new(100_000, 0.99);
        let mut rng = Rng::new(7);
        let mut hot = 0;
        for _ in 0..100_000 {
            let r = z.rank(&mut rng);
            assert!(r < 100_000);
            hot += (r < 100) as u32;
        }
        // With theta = 0.99 the 100 hottest of 100k ranks draw ~43%.
        assert!((35_000..52_000).contains(&hot), "hot share {hot}");
        assert!(z.key(&mut rng) < 100_000);
    }

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(42), Rng::new(42));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        assert!((0..100).all(|_| a.below(10) < 10));
    }
}
