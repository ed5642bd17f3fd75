//! CRC32 with the IEEE 802.3 polynomial (`0x04C1_1DB7`, reflected
//! `0xEDB8_8320`, init and final XOR `!0`) — the checksum stamped into
//! every page image at the backend write funnel (see
//! [`crate::page::stamp_page_crc`]) and, re-exported through the durable
//! crate, into every WAL record and checkpoint header.
//!
//! One `update` step serves both [`crc32`] and [`Crc32::update`]:
//!
//! * **Carry-less-multiply folding** (x86_64 with PCLMULQDQ and SSE4.1,
//!   detected at run time): four 128-bit accumulators fold 64 bytes per
//!   step, collapse into one that folds 16 bytes per step, and a Barrett
//!   reduction brings the 128-bit remainder down to the 32-bit CRC. This
//!   is Gopal et al., *Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction* (Intel, 2009), with the reflected-domain
//!   constants for the IEEE polynomial.
//! * **Bytewise table loop** (everywhere else, under `cfg(miri)`, for
//!   inputs shorter than 64 bytes and for the 0–15 bytes the folding
//!   leaves): one lookup in a 256-entry `const fn` table per byte, safe
//!   Rust. Where folding runs, this loop only sees short inputs (a page's
//!   20-byte head, WAL header fields, fold tails), so no wider table
//!   scheme is kept until a target without PCLMULQDQ is measured.
//!
//! Both compute the same CRC, checked against a bit-serial test oracle
//! and against golden checksums of a stamped page and a WAL record.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// CRC32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// Incremental form for multi-slice records.
#[derive(Debug, Clone)]
pub struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32(!0)
    }

    pub fn update(&mut self, data: &[u8]) {
        self.0 = update(self.0, data);
    }

    pub fn finish(&self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// Advances the CRC register `state` (pre-inversion) over `data`.
fn update(state: u32, data: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if data.len() >= clmul::FOLD_MIN && clmul::detected() {
        // SAFETY: `detected` confirmed PCLMULQDQ and SSE4.1 on this CPU,
        // the features `clmul::update` is compiled for.
        return unsafe { clmul::update(state, data) };
    }
    update_table(state, data)
}

/// One table lookup per byte of `data`.
fn update_table(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the reflected IEEE polynomial, each
    // `reflect32(x^n mod P) << 1` (see `tests::fold_constants_derive_from_the_polynomial`).
    /// `x^(4·128+32)` and `x^(4·128-32)`: fold one accumulator 512 bits on.
    pub(super) const K1: i64 = 0x1_5444_2BD4;
    pub(super) const K2: i64 = 0x1_C6E4_1596;
    /// `x^(128+32)` and `x^(128-32)`: fold one accumulator 128 bits on.
    pub(super) const K3: i64 = 0x1_7519_97D0;
    pub(super) const K4: i64 = 0x0_CCAA_009E;
    /// `x^64`: the 96 → 64-bit step before the Barrett reduction.
    pub(super) const K5: i64 = 0x1_63CD_6124;
    /// The polynomial itself, `reflect33(P)`, and the Barrett constant
    /// `μ = ⌊x^64 / P⌋`, reflected.
    pub(super) const P_X: i64 = 0x1_DB71_0641;
    pub(super) const U_PRIME: i64 = 0x1_F701_1641;

    /// Inputs shorter than this take the table path: folding needs four
    /// 16-byte blocks to seed its accumulators.
    pub(super) const FOLD_MIN: usize = 64;

    pub(super) fn detected() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Carry-less multiply of `a`'s two halves by `k`'s, XORed into `b`:
    /// moves `a` 128 (or 512) bits further along the message.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// The register after `data`, which must hold at least [`FOLD_MIN`]
    /// bytes; the 0–15 bytes past the last whole block go through the
    /// table path.
    ///
    /// # Safety
    ///
    /// Callable only where [`detected`] returned true: it is compiled for
    /// PCLMULQDQ and SSE4.1, and executing it on a CPU without them is
    /// undefined behaviour.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= FOLD_MIN);
        let mut blocks = data.chunks_exact(16);
        let mut next = || {
            let b = blocks.next().expect("a whole 16-byte block");
            // SAFETY: `b` is a 16-byte chunk of `data`, so the unaligned
            // 16-byte load stays in bounds; SSE2 is baseline on x86_64.
            unsafe { _mm_loadu_si128(b.as_ptr().cast::<__m128i>()) }
        };

        let mut x3 = _mm_xor_si128(next(), _mm_cvtsi32_si128(state as i32));
        let mut x2 = next();
        let mut x1 = next();
        let mut x0 = next();
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut whole = data.len() / 16 - 4;
        while whole >= 4 {
            x3 = fold(x3, next(), k1k2);
            x2 = fold(x2, next(), k1k2);
            x1 = fold(x1, next(), k1k2);
            x0 = fold(x0, next(), k1k2);
            whole -= 4;
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        for _ in 0..whole {
            x = fold(x, next(), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, 64 → 32 bits (the bit-reflected variant, so
        // the result sits in the upper half of the low 64 bits).
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::update_table(c, &data[data.len() / 16 * 16..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle every path must agree with: the polynomial applied one
    /// byte at a time, bit by bit, sharing no table with the paths.
    fn oracle(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c
    }

    /// Deterministic filler: a splitmix64 stream.
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// One way to advance the register: `(state, data) -> state`.
    type Path = fn(u32, &[u8]) -> u32;

    /// The folding path, called directly, when this CPU and build have it.
    fn fast_path() -> Option<Path> {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if clmul::detected() {
            fn fast(state: u32, data: &[u8]) -> u32 {
                if data.len() < clmul::FOLD_MIN {
                    return update_table(state, data);
                }
                // SAFETY: `fast_path` hands this out only after `detected`
                // confirmed the features `clmul::update` is compiled for.
                unsafe { clmul::update(state, data) }
            }
            return Some(fast);
        }
        None
    }

    /// Every path this build can run, called directly: `(name, update)`.
    fn paths() -> Vec<(&'static str, Path)> {
        let always: [(&'static str, Path); 2] = [("dispatch", update), ("table", update_table)];
        always
            .into_iter()
            .chain(fast_path().map(|f| ("clmul", f)))
            .collect()
    }

    fn check_all(state: u32, data: &[u8]) {
        let want = oracle(state, data);
        for (name, f) in paths() {
            assert_eq!(f(state, data), want, "{name} path, len {}", data.len());
        }
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32 ("check" value of the IEEE polynomial).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"write-ahead logging";
        let mut inc = Crc32::new();
        inc.update(&data[..5]);
        inc.update(&data[5..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 64];
        let base = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn every_short_length_and_offset_matches_the_oracle() {
        // Every fold boundary (64, 80, 128, ...) and every alignment.
        let max = if cfg!(miri) { 96 } else { 300 };
        let buf = bytes(7, max + 16);
        for start in 0..16 {
            for len in 0..=max {
                check_all(!0, &buf[start..start + len]);
                check_all(0x1234_5678, &buf[start..start + len]);
            }
        }
    }

    #[test]
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    fn fold_constants_derive_from_the_polynomial() {
        /// `x^n mod P` in the normal (unreflected) domain.
        fn xpow_mod(n: u32) -> u32 {
            let mut r = 1u32;
            for _ in 0..n {
                r = if r & 0x8000_0000 != 0 {
                    (r << 1) ^ 0x04C1_1DB7
                } else {
                    r << 1
                };
            }
            r
        }
        let k = |n: u32| (u64::from(xpow_mod(n).reverse_bits()) << 1) as i64;
        use clmul::*;
        assert_eq!(
            [K1, K2, K3, K4, K5],
            [
                k(4 * 128 + 32),
                k(4 * 128 - 32),
                k(128 + 32),
                k(128 - 32),
                k(64)
            ]
        );
        assert_eq!(P_X, (u64::from(POLY) << 1 | 1) as i64);
        // μ = ⌊x^64 / P⌋ by long division, then reflected over 33 bits.
        let p = (1u128 << 32) | 0x04C1_1DB7;
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        while rem >> 32 != 0 {
            let shift = 127 - rem.leading_zeros() - 32;
            mu |= 1 << shift;
            rem ^= p << shift;
        }
        assert_eq!(U_PRIME, (mu.reverse_bits() >> 31) as i64);
    }

    #[test]
    fn stamp_page_crc_golden() {
        // Pins the stamped checksum of one fixed 4 KiB image to the value
        // the bytewise implementation wrote, so the on-disk format holds.
        // (`wal::tests::encoded_record_crc_golden` in the durable crate
        // pins a WAL record the same way.)
        let mut page = bytes(0x5EED, 4096);
        crate::page::set_page_lsn(&mut page, 0x0102_0304_0506_0708);
        crate::page::stamp_page_crc(&mut page);
        let stored = &page[crate::page::PAGE_CRC_OFFSET..crate::page::PAGE_RESERVED_END];
        assert_eq!(u32::from_le_bytes(stored.try_into().unwrap()), 0x2191_7A59);
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: if cfg!(miri) { 4 } else { 256 },
            ..ProptestConfig::default()
        })]

        /// Random lengths up to past two pages, every start offset, and an
        /// incremental `Crc32` split at two random points.
        #[test]
        fn every_path_matches_the_oracle(
            len in 0usize..9001,
            start in 0usize..16,
            (seed, cut_a, cut_b) in (any::<u64>(), any::<usize>(), any::<usize>()),
        ) {
            let len = if cfg!(miri) { len / 32 } else { len };
            let buf = bytes(seed, start + len);
            let data = &buf[start..];
            check_all(!0, data);
            check_all(seed as u32, data);

            let (a, b) = {
                let (x, y) = (cut_a % (len + 1), cut_b % (len + 1));
                (x.min(y), x.max(y))
            };
            let mut inc = Crc32::new();
            inc.update(&data[..a]);
            inc.update(&data[a..b]);
            inc.update(&data[b..]);
            prop_assert_eq!(inc.finish(), !oracle(!0, data));
            prop_assert_eq!(crc32(data), !oracle(!0, data));
        }
    }
}
