//! The op tape a client replays, and the self-describing values it writes.
//!
//! A value embeds its key and its own length and fills the rest with a
//! pattern derived from both, so any reader can tell a right value from a
//! wrong one without knowing which client wrote it or when: every value
//! ever stored under key `k` with length `l` is the same bytes.

use crate::gen::{mix, Rng, ScrambledZipf};
use crate::spec::{Dist, Workload, TAPE_LEN};

/// Key (8 bytes LE) + length (2 bytes LE).
pub const VALUE_HEADER: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Get = 0,
    Put = 1,
    Delete = 2,
    Scan = 3,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Get, Kind::Put, Kind::Delete, Kind::Scan];

    pub fn name(self) -> &'static str {
        ["get", "put", "delete", "scan"][self as usize]
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub key: u64,
    /// Value length (puts only).
    pub len: u16,
    pub kind: Kind,
}

/// Writes the value for `(key, len)` into `buf` and returns it.
pub fn fill_value(buf: &mut [u8], key: u64, len: usize) -> &[u8] {
    let v = &mut buf[..len];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..VALUE_HEADER].copy_from_slice(&(len as u16).to_le_bytes());
    let base = pattern_base(key, len);
    for (i, b) in v[VALUE_HEADER..].iter_mut().enumerate() {
        *b = base.wrapping_add(i as u8);
    }
    v
}

fn pattern_base(key: u64, len: usize) -> u8 {
    (mix(key ^ ((len as u64) << 48)) >> 56) as u8
}

/// True when `v` is exactly what [`fill_value`] writes for `key`.
pub fn value_ok(key: u64, v: &[u8]) -> bool {
    if v.len() < VALUE_HEADER
        || v[..8] != key.to_le_bytes()
        || v[8..VALUE_HEADER] != (v.len() as u16).to_le_bytes()
    {
        return false;
    }
    let base = pattern_base(key, v.len());
    v[VALUE_HEADER..]
        .iter()
        .enumerate()
        .all(|(i, &b)| b == base.wrapping_add(i as u8))
}

/// The length a loaded key's first value has (and, for fixed-size
/// workloads, every later one).
pub fn initial_len(w: &Workload, key: u64) -> usize {
    let (lo, hi) = w.value_len;
    lo as usize + (mix(key) % (hi - lo + 1) as u64) as usize
}

/// One client's tape: `TAPE_LEN` ops drawn from the workload's mix and key
/// distribution. The same `(workload, seed, client)` gives the same tape.
pub fn generate(w: &Workload, seed: u64, client: usize) -> Vec<Op> {
    let mut rng = Rng::new(mix(seed) ^ mix(client as u64 + 1));
    let zipf = match w.dist {
        Dist::Zipf(theta) => Some(ScrambledZipf::new(w.key_space, theta)),
        Dist::Uniform => None,
    };
    let (lo, hi) = w.value_len;
    (0..TAPE_LEN)
        .map(|_| {
            let key = match &zipf {
                Some(z) => z.key(&mut rng),
                None => rng.below(w.key_space),
            };
            let roll = rng.below(100) as u8;
            let m = w.mix;
            let kind = if roll < m.get {
                Kind::Get
            } else if roll < m.get + m.put {
                Kind::Put
            } else if roll < m.get + m.put + m.delete {
                Kind::Delete
            } else {
                Kind::Scan
            };
            let len = lo + rng.below((hi - lo + 1) as u64) as u16;
            Op { key, len, kind }
        })
        .collect()
}

/// The order keys are loaded in: a seeded permutation of `[0, key_space)`
/// (an affine map with an odd multiplier coprime to the space), so the tree
/// is built by scattered inserts, not one rightmost-leaf run.
pub fn load_order(w: &Workload, seed: u64) -> impl Iterator<Item = u64> {
    let n = w.key_space;
    let mut mult = (mix(seed ^ 0x10ad) % n) | 1;
    while gcd(mult, n) != 1 {
        mult += 2;
    }
    let offset = mix(seed ^ 0x0ff5e7) % n;
    (0..n).map(move |i| ((i as u128 * mult as u128 + offset as u128) % n as u128) as u64)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn values_check_themselves() {
        let mut buf = [0u8; 256];
        let v = fill_value(&mut buf, 77, 64).to_vec();
        assert!(value_ok(77, &v));
        assert!(!value_ok(78, &v));
        assert!(!value_ok(77, &v[..63]));
        let mut bad = v.clone();
        bad[40] ^= 1;
        assert!(!value_ok(77, &bad));
    }

    #[test]
    fn tapes_repeat_per_seed_and_follow_the_mix() {
        for w in WORKLOADS {
            let a = generate(w, 5, 0);
            let b = generate(w, 5, 0);
            assert!(a
                .iter()
                .zip(&b)
                .all(|(x, y)| (x.key, x.len, x.kind) == (y.key, y.len, y.kind)));
            let c = generate(w, 6, 0);
            assert!(a.iter().zip(&c).any(|(x, y)| x.key != y.key));
            let gets = a.iter().filter(|o| o.kind == Kind::Get).count() as f64;
            let share = gets / a.len() as f64 * 100.0;
            assert!(
                (share - w.mix.get as f64).abs() < 1.0,
                "{}: {share}",
                w.name
            );
            assert!(a
                .iter()
                .all(|o| o.key < w.key_space && (w.value_len.0..=w.value_len.1).contains(&o.len)));
        }
    }

    #[test]
    fn load_order_is_a_permutation() {
        let w = &WORKLOADS[3];
        let mut seen = vec![false; w.key_space as usize];
        for k in load_order(w, 9) {
            assert!(!std::mem::replace(&mut seen[k as usize], true));
        }
        assert!(seen.iter().all(|&s| s));
    }
}
