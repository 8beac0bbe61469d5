//! Vendored stand-in for the `rand` crate, sized to exactly the surface this
//! workspace uses: `rngs::StdRng`, `SeedableRng::seed_from_u64`, and
//! `RngExt::random_range` over integer and float ranges.
//!
//! The container this repo builds in has no crates.io access, so external
//! dependencies are provided as in-tree path crates. Determinism matters more
//! than statistical quality here — every campaign, GA search, and workload
//! generator derives its behaviour from seeds that must reproduce bit-exactly
//! across runs and thread schedules — so the generator is a fixed
//! xoshiro256** seeded via SplitMix64, with no platform- or version-dependent
//! behaviour.

use std::ops::{Range, RangeInclusive};

/// Core RNG interface: a source of uniformly distributed `u64`s.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits -> uniform in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Seeding interface (subset of the real crate's trait).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Convenience sampling methods, blanket-implemented for every [`RngCore`].
///
/// (The real crate spells this `Rng`; the workspace imports it as `RngExt`.)
pub trait RngExt: RngCore {
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

impl<T: RngCore> RngExt for T {}

/// A range that knows how to sample a `T` uniformly from an RNG. The
/// element type is a trait parameter (like the real crate) so type
/// inference can flow from the expected output into the range literal.
pub trait SampleRange<T> {
    fn sample(self, rng: &mut impl RngCore) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut impl RngCore) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = rng.next_u64() as u128 % span;
                (self.start as i128 + r as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut impl RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let r = rng.next_u64() as u128 % span;
                (lo as i128 + r as i128) as $t
            }
        }
    )*};
}

impl_int_range!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut impl RngCore) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = rng.next_f64() as $t;
                let v = self.start + u * (self.end - self.start);
                // Guard against rounding up to the excluded endpoint.
                if v >= self.end { self.start } else { v }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut impl RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let u = rng.next_f64() as $t;
                lo + u * (hi - lo)
            }
        }
    )*};
}

impl_float_range!(f32, f64);

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator seeded via SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into the full state, as
            // recommended by the xoshiro authors. Guarantees a non-zero state.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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
    use super::{RngCore, RngExt, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// The stream every seeded result in the workspace is drawn from: a
    /// change to the generator or its seeding moves every random input,
    /// so it fails here first.
    #[test]
    fn seed_42_stream_is_pinned() {
        let mut rng = StdRng::seed_from_u64(42);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [
                1546998764402558742,
                6990951692964543102,
                12544586762248559009,
                17057574109182124193
            ]
        );
        let ints: Vec<i64> = (0..4).map(|_| rng.random_range(-1000i64..1000)).collect();
        assert_eq!(ints, [476, -416, -246, -593]);
        let floats: Vec<u64> = (0..2)
            .map(|_| rng.random_range(0.0f64..1.0).to_bits())
            .collect();
        assert_eq!(floats, [4605033070302450412, 4603429563013196791]);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.random_range(-5i64..5);
            assert!((-5..5).contains(&v));
            let w = rng.random_range(0u64..3);
            assert!(w < 3);
            let x = rng.random_range(10i64..=10);
            assert_eq!(x, 10);
            let y = rng.random_range(0usize..17);
            assert!(y < 17);
            let b: u32 = rng.random_range(0..64);
            assert!(b < 64);
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = rng.random_range(0.0f64..1.0);
            assert!((0.0..1.0).contains(&v));
            let w = rng.random_range(-2.5f64..=2.5);
            assert!((-2.5..=2.5).contains(&w));
            let u = rng.random_range(f64::MIN_POSITIVE..1.0);
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn full_u64_range_is_samplable() {
        let mut rng = StdRng::seed_from_u64(3);
        // span of 0..=u64::MAX is 2^64, which only fits in the u128 path.
        let v = rng.random_range(0u64..=u64::MAX);
        let _ = v;
    }
}
