//! Seeded, dependency-free pseudo-random number generation.
//!
//! The workspace is built and tested fully offline, so it cannot depend on
//! crates.io `rand`.  This module provides the small slice of the `rand`
//! API the repository actually uses — a seedable generator with
//! `gen_range`, `gen`, and slice shuffling — backed by
//! xoshiro256++ seeded through SplitMix64 (Blackman & Vigna).  Every
//! model, test, and figure stays bit-reproducible run to run, exactly as
//! with the previous `StdRng` seeds.

/// SplitMix64 step: expands a 64-bit seed into a stream of well-mixed
/// words (the recommended seeder for the xoshiro family).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded xoshiro256++ generator.
///
/// Named `StdRng` so call sites read identically to the `rand` crate they
/// replace; the algorithm differs (xoshiro256++ instead of ChaCha12) but
/// every consumer in this workspace only relies on *seeded determinism*,
/// never on a specific stream.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Builds a generator from a 64-bit seed (SplitMix64-expanded).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }

    /// Next raw 64-bit output (xoshiro256++).
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

    /// Uniform `f32` in `[0, 1)` (24 mantissa bits).
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform value over a range, e.g. `rng.gen_range(-1.0..1.0)` or
    /// `rng.gen_range(0..n)`.  Half-open and inclusive integer ranges are
    /// supported; float ranges are half-open.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// A uniformly random value of a primitive type (`u8`, `u32`, `u64`,
    /// `f32`/`f64` in `[0,1)`, or `bool`).
    #[inline]
    pub fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle_slice<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            slice.swap(i, j);
        }
    }
}

/// Types producible directly from the generator via [`StdRng::gen`].
pub trait FromRng {
    /// Draws one uniform value.
    fn from_rng(rng: &mut StdRng) -> Self;
}

impl FromRng for u8 {
    fn from_rng(rng: &mut StdRng) -> u8 {
        (rng.next_u64() >> 56) as u8
    }
}
impl FromRng for u32 {
    fn from_rng(rng: &mut StdRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}
impl FromRng for u64 {
    fn from_rng(rng: &mut StdRng) -> u64 {
        rng.next_u64()
    }
}
impl FromRng for f32 {
    fn from_rng(rng: &mut StdRng) -> f32 {
        rng.next_f32()
    }
}
impl FromRng for f64 {
    fn from_rng(rng: &mut StdRng) -> f64 {
        rng.next_f64()
    }
}
impl FromRng for bool {
    fn from_rng(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`StdRng::gen_range`] can sample from.  The element type is a
/// trait parameter (not an associated type) so the *output* context can
/// drive inference of un-suffixed range literals, as with `rand`.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut StdRng) -> T;
}

macro_rules! float_range {
    ($t:ty, $next:ident) => {
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                self.start + rng.$next() * (self.end - self.start)
            }
        }
    };
}
float_range!(f32, next_f32);
float_range!(f64, next_f64);

macro_rules! uint_range {
    ($t:ty) => {
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end - start) as u64 + 1;
                if span == 0 {
                    // Full-width inclusive range of a 64-bit type.
                    return rng.next_u64() as $t;
                }
                start + (rng.next_u64() % span) as $t
            }
        }
    };
}
uint_range!(u8);
uint_range!(u16);
uint_range!(u32);
uint_range!(u64);
uint_range!(usize);

macro_rules! int_range {
    ($t:ty) => {
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + (rng.next_u64() % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end as i128 - start as i128 + 1) as u64;
                (start as i128 + (rng.next_u64() % span) as i128) as $t
            }
        }
    };
}
int_range!(i8);
int_range!(i16);
int_range!(i32);
int_range!(i64);
int_range!(isize);

/// Slice shuffling, mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// Shuffles the slice in place (Fisher–Yates).
    fn shuffle(&mut self, rng: &mut StdRng);
}

impl<T> SliceRandom for [T] {
    fn shuffle(&mut self, rng: &mut StdRng) {
        rng.shuffle_slice(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be effectively independent");
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: f32 = rng.gen_range(-2.5..1.5);
            assert!((-2.5..1.5).contains(&x));
            let y: f64 = rng.gen_range(0.0..1e-6);
            assert!((0.0..1e-6).contains(&y));
        }
    }

    #[test]
    fn int_ranges_stay_in_bounds_and_cover() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = rng.gen_range(0..8u8);
            seen[v as usize] = true;
            let w = rng.gen_range(-20i64..20);
            assert!((-20..20).contains(&w));
            let u = rng.gen_range(1..=64u32);
            assert!((1..=64).contains(&u));
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
    }

    #[test]
    fn unit_floats_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.next_f32();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "astronomically unlikely to be identity");
    }

    #[test]
    fn mean_of_uniform_is_centered() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.gen_range(-1.0f64..1.0)).sum();
        assert!((sum / n as f64).abs() < 0.02);
    }
}
