//! Offline stand-in for `rand` 0.8: `SmallRng` is xoshiro256++ seeded
//! through SplitMix64, as the published crate does on 64-bit targets, and
//! `Rng` carries the few sampling methods this workspace calls. The
//! streams are deterministic per seed but not bit-identical to the
//! published crate's (range sampling is simpler here).

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
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
    /// 53 random mantissa bits: uniform in `[0, 1)`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types `Rng::gen_range` can sample uniformly.
pub trait SampleUniform: Sized {
    /// Uniform in `[low, high)`; `inclusive` widens it to `[low, high]`.
    fn sample_between<R: RngCore + ?Sized>(low: Self, high: Self, inclusive: bool, rng: &mut R) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(low: Self, high: Self, inclusive: bool, rng: &mut R) -> Self {
                let span = (high as $wide).wrapping_sub(low as $wide) as u64 + u64::from(inclusive);
                assert!(inclusive || low < high, "cannot sample empty range");
                if span == 0 {
                    // The full 64-bit domain.
                    return rng.next_u64() as $t;
                }
                // Widening multiply maps 64 random bits onto [0, span).
                let offset = ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64;
                (low as $wide).wrapping_add(offset as $wide) as $t
            }
        }
    )*};
}
uniform_int!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
             i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(low: Self, high: Self, inclusive: bool, rng: &mut R) -> Self {
                assert!(low < high || (inclusive && low == high), "cannot sample empty range");
                let value = low + (high - low) * <$t as Standard>::sample(rng);
                // Rounding can land on `high`; the half-open contract forbids it.
                if !inclusive && value >= high { low } else { value }
            }
        }
    )*};
}
uniform_float!(f32, f64);

pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_between(low, high, true, rng)
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                // SplitMix64.
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            Self { s }
        }
    }

    impl RngCore for SmallRng {
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

    /// The workspace's benches name `StdRng`; same generator here.
    pub type StdRng = SmallRng;
}
