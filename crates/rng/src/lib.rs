#![warn(missing_docs)]
//! Self-contained deterministic PRNG with a `rand`-compatible facade.
//!
//! The workspace is offline-first: it must build with `cargo build
//! --offline` on a machine whose cargo registry cache is empty, so it
//! cannot depend on the `rand` crate. This crate implements the small
//! slice of the `rand` 0.8 API the workspace uses — [`rngs::StdRng`],
//! [`Rng::gen`], [`Rng::gen_range`], [`SeedableRng::seed_from_u64`] and
//! [`seq::SliceRandom::shuffle`] — on top of xoshiro256++, seeded through
//! SplitMix64. The workspace manifest aliases it as `rand`, so consumer
//! code is written exactly as it would be against the real crate.
//!
//! Two properties matter more than statistical perfection here:
//!
//! 1. **Determinism** — the same seed yields the same stream on every
//!    platform, build and thread. The whole reproduction relies on it.
//! 2. **Stream independence** — [`derive_seed`] turns a stable textual
//!    key (e.g. `("fig7", "l2t0", "q=0.25")`) into a seed, so every
//!    parallel job owns an RNG stream that does not depend on scheduling
//!    or on how many other jobs ran before it.

use std::ops::Range;

/// Splits a `u64` seed into well-distributed state words (SplitMix64).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The FNV-1a 64 offset basis: the state [`fnv1a`] starts a hash from.
pub const FNV1A_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64 over `bytes`, continuing from `state` ([`FNV1A_BASIS`] for
/// a fresh hash). The workspace's one copy: seed derivation, manifest
/// report digests, cache keys and design-database section digests.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Derives a deterministic seed from a stable textual key.
///
/// FNV-1a over every part, finalized through SplitMix64. Used to give
/// each parallel job `(experiment, block, config)` its own RNG stream
/// that is independent of scheduling order.
pub fn derive_seed(parts: &[&str]) -> u64 {
    // a 0x1F separator byte after each part so ["ab","c"] != ["a","bc"]
    let mut s = parts.iter().fold(FNV1A_BASIS, |h, part| {
        fnv1a(fnv1a(h, part.as_bytes()), &[0x1F])
    });
    splitmix64(&mut s)
}

/// Types that can be sampled uniformly from a half-open range.
pub trait SampleRange: Copy + PartialOrd {
    /// Samples uniformly from `[low, high)`.
    fn sample(rng: &mut rngs::StdRng, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            #[inline]
            fn sample(rng: &mut rngs::StdRng, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range");
                // Lemire-style unbiased bounded sampling on u64.
                let span = (high as i128 - low as i128) as u64;
                let mut x = rng.next_u64();
                let mut m = (x as u128) * (span as u128);
                let mut lo = m as u64;
                if lo < span {
                    let t = span.wrapping_neg() % span;
                    while lo < t {
                        x = rng.next_u64();
                        m = (x as u128) * (span as u128);
                        lo = m as u64;
                    }
                }
                let off = (m >> 64) as u64;
                ((low as i128) + off as i128) as $t
            }
        }
    )*};
}
impl_sample_int!(usize, u64, u32, u16, i64, i32);

impl SampleRange for f64 {
    #[inline]
    fn sample(rng: &mut rngs::StdRng, low: Self, high: Self) -> Self {
        assert!(low < high, "gen_range: empty range");
        low + (high - low) * rng.next_f64()
    }
}

/// Types producible by [`Rng::gen`].
pub trait Standard: Sized {
    /// Samples one value.
    fn sample(rng: &mut rngs::StdRng) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample(rng: &mut rngs::StdRng) -> Self {
        rng.next_f64()
    }
}

impl Standard for u64 {
    #[inline]
    fn sample(rng: &mut rngs::StdRng) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    #[inline]
    fn sample(rng: &mut rngs::StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The sampling half of the `rand` facade.
pub trait Rng {
    /// Uniform sample from a standard distribution (`f64` in `[0,1)`,
    /// full-range `u64`, fair `bool`).
    fn gen<T: Standard>(&mut self) -> T;
    /// Uniform sample from `[range.start, range.end)`.
    fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T;
    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool;
}

/// The seeding half of the `rand` facade.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{splitmix64, Rng, SampleRange, SeedableRng, Standard};

    /// Deterministic xoshiro256++ generator (the facade's `StdRng`).
    ///
    /// Not the same stream as `rand::rngs::StdRng` (ChaCha12) — absolute
    /// values of seeded experiments differ from runs against the real
    /// `rand`, but every stream is fixed for a given seed forever.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        /// Raw 64-bit output.
        #[inline]
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
        #[inline]
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // the pre-mix constant selects the family of streams; pinned
            // by `stream_is_pinned`, so changing it reseeds every
            // experiment in the workspace
            let mut sm = seed ^ 0x5DEECE66D;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // xoshiro must not start from the all-zero state
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            Self { s }
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn gen<T: Standard>(&mut self) -> T {
            T::sample(self)
        }

        #[inline]
        fn gen_range<T: SampleRange>(&mut self, range: std::ops::Range<T>) -> T {
            T::sample(self, range.start, range.end)
        }

        #[inline]
        fn gen_bool(&mut self, p: f64) -> bool {
            self.next_f64() < p
        }
    }
}

/// Slice shuffling (the `rand::seq` facade).
pub mod seq {
    use super::{rngs::StdRng, Rng};

    /// Random slice operations.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Fisher–Yates shuffle in place.
        fn shuffle(&mut self, rng: &mut StdRng);
        /// Uniformly chosen element, `None` on an empty slice.
        fn choose<'a>(&'a self, rng: &mut StdRng) -> Option<&'a Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle(&mut self, rng: &mut StdRng) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<'a>(&'a self, rng: &mut StdRng) -> Option<&'a T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{derive_seed, fnv1a, Rng, SeedableRng, FNV1A_BASIS};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn stream_is_pinned() {
        // Regression-pin the stream: if this changes, every golden file
        // and seeded experiment changes with it.
        let mut r = StdRng::seed_from_u64(0xDAC14);
        assert_eq!(r.next_u64(), 6_311_482_999_606_219_395);
        assert_eq!(r.next_u64(), 12_514_618_863_086_773_596);
    }

    #[test]
    fn gen_range_int_in_bounds_and_covers() {
        let mut r = StdRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(0..10usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
        for _ in 0..1000 {
            let v = r.gen_range(-5..5i32);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn gen_range_float_in_bounds() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = r.gen_range(-0.1..0.1f64);
            assert!((-0.1..0.1).contains(&v));
        }
        let mean: f64 = (0..10_000).map(|_| r.gen::<f64>()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "uniform mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = StdRng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should move something");
    }

    #[test]
    fn fnv1a_matches_reference_vectors_and_pins_derive_seed() {
        assert_eq!(fnv1a(FNV1A_BASIS, b""), FNV1A_BASIS);
        assert_eq!(fnv1a(FNV1A_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV1A_BASIS, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
        assert_eq!(derive_seed(&["fig7", "l2t0"]), 0x340f_b141_4ea8_1b86);
    }

    #[test]
    fn derive_seed_is_stable_and_separates() {
        assert_eq!(derive_seed(&["a", "b"]), derive_seed(&["a", "b"]));
        assert_ne!(derive_seed(&["a", "b"]), derive_seed(&["ab"]));
        assert_ne!(
            derive_seed(&["fig7", "l2t0"]),
            derive_seed(&["fig7", "l2d0"])
        );
    }
}
