//! Offline stand-in for the subset of `rand` 0.8 this workspace uses:
//! `rngs::StdRng`, `SeedableRng::{seed_from_u64, from_seed}`, `RngCore`, and
//! `Rng::{gen, gen_range, gen_bool}` over integers and floats.
//!
//! `StdRng` here is xoshiro256++ seeded through SplitMix64, not ChaCha12:
//! streams are deterministic per seed but differ from the published crate's.

use std::ops::{Range, RangeInclusive};

/// Source of random bits.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let b = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&b[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// Seed material.
    type Seed;

    /// Construct from full seed material.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64`, expanded with SplitMix64.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types `Rng::gen_range` can draw uniformly.
pub trait SampleUniform: Sized {
    /// Draw from `[lo, hi)`, or `[lo, hi]` when `inclusive`. Panics on an
    /// empty range.
    fn sample_between<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

/// Ranges `Rng::gen_range` accepts. One blanket impl per range type, so the
/// element type is inferred from the range alone, as with the published
/// crate.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_between(lo, hi, true, rng)
    }
}

/// Uniform draw from `[0, span)` by widening multiply; `span == 0` means the
/// full 64-bit range.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                lo: $t,
                hi: $t,
                inclusive: bool,
                rng: &mut R,
            ) -> $t {
                assert!(lo < hi || (inclusive && lo == hi), "gen_range: empty range");
                // Wraps to 0 for the full 64-bit inclusive range, which
                // `below` reads as "no reduction".
                let span = ((hi as i128 - lo as i128) as u64).wrapping_add(u64::from(inclusive));
                (lo as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                lo: $t,
                hi: $t,
                inclusive: bool,
                rng: &mut R,
            ) -> $t {
                assert!(lo < hi || (inclusive && lo == hi), "gen_range: empty range");
                let v = lo + (hi - lo) * <$t as Standard>::sample(rng);
                // Rounding can land on an excluded upper bound.
                if inclusive || v < hi { v } else { lo }
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// Convenience methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// A value of an inferred type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniformly drawn from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// One SplitMix64 step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Named generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's seeded generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (word, bytes) in s.iter_mut().zip(seed.chunks_exact(8)) {
                *word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
            }
            if s == [0; 4] {
                // xoshiro must not start from the all-zero state.
                return Self::seed_from_u64(0);
            }
            StdRng { s }
        }

        fn seed_from_u64(mut state: u64) -> Self {
            StdRng {
                s: [
                    splitmix64(&mut state),
                    splitmix64(&mut state),
                    splitmix64(&mut state),
                    splitmix64(&mut state),
                ],
            }
        }
    }
}

/// The usual glob import.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
            let x: i64 = a.gen_range(-5..5);
            assert!((-5..5).contains(&x));
            let y: f32 = a.gen_range(-2.0..2.0);
            assert!((-2.0..2.0).contains(&y));
            let z: u8 = a.gen_range(0..=255);
            let _ = z;
            let u: f64 = a.gen();
            assert!((0.0..1.0).contains(&u));
            b = a.clone();
        }
    }
}
