//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access and no registry cache, so the
//! real `rand` cannot be fetched. This shim implements exactly the surface
//! the `simpadv` workspace uses — [`SeedableRng::seed_from_u64`],
//! [`rngs::StdRng`], and the [`Rng`]/[`RngExt`] sampling methods
//! (`random`, `random_range`) — on top of a hand-rolled xoshiro256++
//! generator. Everything is deterministic under a seed; there is no
//! `thread_rng`, no `from_entropy`, and no global entropy source, by design:
//! the workspace's reproducibility rule (R5) forbids ambient randomness, and
//! the compiler enforces it. Seeded construction builds:
//!
//! ```
//! use rand::{RngExt, SeedableRng};
//! let x: f32 = rand::rngs::StdRng::seed_from_u64(7).random();
//! assert!((0.0..1.0).contains(&x));
//! ```
//!
//! while every unseeded entry point fails to compile:
//!
//! ```compile_fail
//! let mut rng = rand::thread_rng();
//! ```
//!
//! ```compile_fail
//! use rand::SeedableRng;
//! let rng = rand::rngs::StdRng::from_entropy();
//! ```
//!
//! ```compile_fail
//! let x = rand::random::<f32>();
//! ```

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// A source of random bits.
///
/// Mirrors the `rand` core trait at the granularity the workspace needs:
/// everything derives from [`Rng::next_u64`].
pub trait Rng {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from their "standard" distribution
/// (floats from `[0, 1)`, integers and `bool` from their full range).
pub trait StandardUniform: Sized {
    /// Draws one value from the standard distribution of `Self`.
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl StandardUniform for f32 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 24 high bits -> [0, 1) with full f32 mantissa coverage.
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardUniform for f64 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardUniform for bool {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardUniform for $t {
            fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit = <$t as StandardUniform>::sample_standard(rng);
                self.start + (self.end - self.start) * unit
            }
        }
    )*};
}
impl_sample_range_float!(f32, f64);

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Convenience sampling methods, blanket-implemented for every [`Rng`].
pub trait RngExt: Rng {
    /// Draws a value from the standard distribution of `T`
    /// (floats uniform in `[0, 1)`).
    fn random<T: StandardUniform>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Creates an RNG whose entire stream is determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++
    /// seeded through SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl StdRng {
        /// Returns the generator's full internal state, so a consumer can
        /// persist the exact stream position (checkpoint/resume).
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator at the exact stream position captured by
        /// [`StdRng::state`].
        pub fn from_state(state: [u64; 4]) -> Self {
            StdRng { s: state }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngExt, SeedableRng};

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_round_trip_resumes_exact_stream() {
        let mut a = StdRng::seed_from_u64(7);
        for _ in 0..13 {
            a.next_u64();
        }
        let mut b = StdRng::from_state(a.state());
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn random_f32_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: f32 = rng.random();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn random_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let f = rng.random_range(-0.5f32..0.25);
            assert!((-0.5..0.25).contains(&f), "{f}");
            let i = rng.random_range(3usize..=9);
            assert!((3..=9).contains(&i), "{i}");
            let j = rng.random_range(-4i32..4);
            assert!((-4..4).contains(&j), "{j}");
        }
    }

    #[test]
    fn mean_of_uniform_is_half() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.random::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "{mean}");
    }

    #[test]
    fn works_through_dyn_and_mut_ref() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f32 {
            rng.random()
        }
        let mut rng = StdRng::seed_from_u64(1);
        let via_ref = draw(&mut rng);
        assert!(via_ref.is_finite());
    }
}
