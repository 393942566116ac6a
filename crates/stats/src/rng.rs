//! Deterministic, dependency-free pseudo-random number generation.
//!
//! The workspace is hermetic: no registry crates, so no `rand`. This module
//! is the *only* source of randomness in the entire reproduction. Every
//! generator is explicitly seeded — there is deliberately no
//! `from_entropy()` / `thread_rng()`-style constructor, which makes
//! irreproducible sample draws unrepresentable. `stem-tidy` enforces that
//! library code never reaches for ambient entropy.
//!
//! The core generator is xoshiro256** (Blackman & Vigna), seeded through
//! SplitMix64 exactly as the reference implementation recommends, so a
//! 64-bit seed expands to a well-mixed 256-bit state even for small seeds
//! like 0 or 1.
//!
//! # Seed-compatibility caveat
//!
//! The API is shaped like `rand`'s (`SeedableRng::seed_from_u64`,
//! `RngExt::{random, random_range}`) so call sites ported mechanically, but
//! the *streams differ*: `rand::rngs::StdRng` is ChaCha-based, ours is
//! xoshiro256**. Any golden value derived from a seeded draw under the old
//! `rand` dependency is invalid after the port. All in-repo expectations
//! were re-derived; external consumers pinning sample sets by seed must
//! re-pin.
//!
//! # Example
//!
//! ```
//! use stem_stats::rng::{RngExt, SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let u: f64 = rng.random();
//! assert!((0.0..1.0).contains(&u));
//! let i = rng.random_range(0..10usize);
//! assert!(i < 10);
//! // Same seed, same stream:
//! let mut rng2 = StdRng::seed_from_u64(42);
//! let v: f64 = rng2.random();
//! assert_eq!(u, v);
//! ```

/// A generator that can be constructed from a 64-bit seed.
///
/// Mirrors the subset of `rand::SeedableRng` the workspace uses. There is
/// intentionally no entropy-based constructor.
pub trait SeedableRng: Sized {
    /// Build a generator whose full state is derived from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The minimal generator interface: a stream of 64-bit words.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// SplitMix64 (Steele, Lea & Flood): a tiny, fast generator used both to
/// expand seeds for [`Xoshiro256StarStar`] and as a standalone stream for
/// cheap decorrelated seeding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Construct directly from the raw 64-bit state.
    pub fn new(state: u64) -> Self {
        Self { state }
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        Self::new(seed)
    }
}

impl RngCore for SplitMix64 {
    /// The one copy of the SplitMix64 finalizer outside `stem_par::mix64`:
    /// this crate sits below `stem-par`, so it cannot call it. A
    /// `stem-par` test pins the two to the same outputs.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** 1.0 (Blackman & Vigna): the workspace's general-purpose
/// generator. 256 bits of state, period 2^256 − 1, passes BigCrush.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

/// The workspace default generator. Named `StdRng` so ports from
/// `rand::rngs::StdRng` are a one-line import change (see the module-level
/// seed-compatibility caveat).
pub type StdRng = Xoshiro256StarStar;

impl SeedableRng for Xoshiro256StarStar {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // SplitMix64 is a bijection on u64 per step, so the four words are
        // all-zero with probability 2^-256: for practical purposes never,
        // but keep the generator total anyway.
        if s == [0; 4] {
            Self { s: [1, 0, 0, 0] }
        } else {
            Self { s }
        }
    }
}

impl RngCore for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Types that can be drawn uniformly from a generator's raw word stream.
pub trait Standard: Sized {
    /// Draw one uniformly distributed value.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with the full 53-bit mantissa resolution.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges a generator can sample uniformly. Implemented for the integer and
/// float half-open ranges the workspace draws from.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draw uniformly from the range. Panics on an empty range, matching
    /// `rand`'s contract.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Unbiased integer draw in `[0, bound)` via Lemire's multiply-shift
/// rejection method.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (bound as u128);
        let low = m as u64;
        if low >= bound {
            return (m >> 64) as u64;
        }
        // Slow path: reject the biased low fringe.
        let threshold = bound.wrapping_neg() % bound;
        if low >= threshold {
            return (m >> 64) as u64;
        }
    }
}

impl SampleRange for core::ops::Range<u64> {
    type Output = u64;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> u64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + uniform_below(rng, self.end - self.start)
    }
}

impl SampleRange for core::ops::Range<usize> {
    type Output = usize;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + uniform_below(rng, (self.end - self.start) as u64) as usize
    }
}

impl SampleRange for core::ops::Range<u32> {
    type Output = u32;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> u32 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + uniform_below(rng, (self.end - self.start) as u64) as u32
    }
}

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = f64::from_rng(rng);
        self.start + u * (self.end - self.start)
    }
}

/// Convenience drawing methods, mirroring `rand::Rng`'s surface.
pub trait RngExt: RngCore {
    /// Draw a uniformly distributed value of type `T`.
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Draw uniformly from a half-open range. Panics on an empty range.
    fn random_range<S: SampleRange>(&mut self, range: S) -> S::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::from_rng(self) < p
    }

    /// Fisher–Yates shuffle, driven entirely by this generator.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = uniform_below(self, (i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }
}

impl<R: RngCore> RngExt for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answers() {
        // Reference vectors from the public-domain splitmix64.c (Vigna):
        // first three outputs for seed 0.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(8);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "same seed must reproduce the same stream");
        assert_ne!(a, c, "adjacent seeds must decorrelate");
    }

    #[test]
    fn unit_f64_in_range_and_uniform_ish() {
        let mut rng = StdRng::seed_from_u64(123);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn range_draws_cover_and_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let i = rng.random_range(3..13usize);
            assert!((3..13).contains(&i));
            seen[i - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 10 values should appear");
        let x = rng.random_range(-2.0..4.0f64);
        assert!((-2.0..4.0).contains(&x));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.random_range(5..5usize);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle should move elements"
        );
    }
}
