//! First-party pseudo-random number generation.
//!
//! A deliberate, minimal subset of the `rand` 0.8 API surface the
//! workspace actually uses — [`Rng`], [`SeedableRng`], and
//! [`rngs::StdRng`] — implemented over xoshiro256++ (Blackman &
//! Vigna) seeded through SplitMix64, exactly the construction the
//! xoshiro authors recommend. Keeping the crate in-tree means the
//! workspace builds with **no registry access at all** (the seed repo
//! failed to resolve on air-gapped machines) while trace generators
//! keep their idiomatic `use rand::{Rng, SeedableRng}` imports.
//!
//! Determinism is a hard requirement here: every simulation seed maps
//! to one exact trace, forever. The generator and all sampling
//! transforms below are fixed algorithms with no platform- or
//! version-dependent behavior.
//!
//! # Examples
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::{Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let x: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&x));
//! let d = rng.gen_range(0..19u32);
//! assert!(d < 19);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// A source of uniformly distributed random `u64`s plus the sampling
/// conveniences the trace generators use.
///
/// All provided methods are derived deterministically from
/// [`Rng::next_u64`], so any implementor is fully reproducible.
pub trait Rng {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Samples a value of type `T` from its standard distribution
    /// (for `f64`: uniform in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Samples uniformly from a half-open (`a..b`) or inclusive
    /// (`a..=b`) range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        f64::sample_standard(self) < p
    }
}

/// Construction of a generator from a small seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types sampleable from their "standard" distribution via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from the standard distribution.
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 random bits scaled into [0, 1): the standard double-precision
        // uniform construction.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types with a uniform sampler over an interval.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[low, high)`; `high` is exclusive.
    fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Uniform draw from `[low, high]`; `high` is inclusive.
    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

/// Draws a uniform `u64` in `[0, span)` without modulo bias
/// (Lemire's widening-multiply rejection method, "Fast random integer
/// generation in an interval", ACM TOMACS 2019).
///
/// A draw is rejected when the low word of `draw × span` falls below
/// `threshold = 2⁶⁴ mod span`. Because `threshold < span`, a low word of
/// at least `span` is always accepted, so the division that computes
/// `threshold` runs only for the rare draws whose low word is below
/// `span` (probability `span / 2⁶⁴`). Acceptance is decided by the same
/// comparison either way, so every draw and the number of words consumed
/// are exactly those of computing `threshold` up front.
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let mut wide = u128::from(rng.next_u64()) * u128::from(span);
    if (wide as u64) < span {
        // `threshold` is the number of under-full slots to reject so
        // every residue class is equally likely.
        let threshold = span.wrapping_neg() % span;
        while (wide as u64) < threshold {
            wide = u128::from(rng.next_u64()) * u128::from(span);
        }
    }
    (wide >> 64) as u64
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "cannot sample from an empty range");
                let span = (high as u64) - (low as u64);
                low + uniform_below(rng, span) as $t
            }

            fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "cannot sample from an empty range");
                let span = (high as u64).wrapping_sub(low as u64).wrapping_add(1);
                if span == 0 {
                    // The range covers the whole u64 domain.
                    return rng.next_u64() as $t;
                }
                low + uniform_below(rng, span) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize);

impl SampleUniform for f64 {
    fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low < high, "cannot sample from an empty range");
        let u = f64::sample_standard(rng);
        let v = low + u * (high - low);
        // Floating-point rounding can land exactly on `high`; clamp back
        // into the half-open interval.
        if v < high {
            v
        } else {
            low.max(prev_down(high))
        }
    }

    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low <= high, "cannot sample from an empty range");
        let u = f64::sample_standard(rng);
        low + u * (high - low)
    }
}

/// The largest double strictly below `x` (for positive finite `x`).
fn prev_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// Ranges accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(rng, low, high)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ seeded via
    /// SplitMix64.
    ///
    /// Not cryptographically secure — it drives simulations, not
    /// secrets — but fast, tiny, and passes the usual statistical
    /// batteries (BigCrush) per its authors.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 stream expands the 64-bit seed into the full
            // 256-bit state; the xoshiro authors' recommended seeding.
            let mut x = seed;
            let mut next = move || {
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

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++ step.
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
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_standard_is_in_unit_interval_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = rng.gen_range(3..17u32);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(5..=8u64);
            assert!((5..=8).contains(&y));
            let f = rng.gen_range(f64::MIN_POSITIVE..1.0);
            assert!(f > 0.0 && f < 1.0);
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform_over_small_span() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[rng.gen_range(0..8usize)] += 1;
        }
        for &c in &counts {
            let share = f64::from(c) / n as f64;
            assert!((share - 0.125).abs() < 0.01, "share {share}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..50_000).filter(|_| rng.gen_bool(0.7)).count();
        let share = hits as f64 / 50_000.0;
        assert!((share - 0.7).abs() < 0.01, "share {share}");
    }

    /// The threshold-first form `uniform_below` replaced: one division
    /// per draw.
    fn uniform_below_threshold_first<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
        let threshold = span.wrapping_neg() % span;
        loop {
            let wide = u128::from(rng.next_u64()) * u128::from(span);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    #[test]
    fn early_out_draws_match_threshold_first_and_consume_the_same_words() {
        // Large spans are where rejection really happens; 2 197 265 is
        // the synthetic generators' `disk_blocks`.
        let spans = [
            1,
            2,
            3,
            19,
            20,
            100,
            2_197_265,
            (1 << 32) + 1,
            (1 << 63) + 1,
            u64::MAX,
        ];
        for span in spans {
            let mut fast = StdRng::seed_from_u64(span);
            let mut oracle = fast.clone();
            for i in 0..100_000 {
                let want = uniform_below_threshold_first(&mut oracle, span);
                assert_eq!(uniform_below(&mut fast, span), want, "span {span} draw {i}");
            }
            assert_eq!(
                fast.next_u64(),
                oracle.next_u64(),
                "span {span}: words consumed"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = rng.gen_range(5..5u32);
    }

    #[test]
    fn works_through_unsized_trait_object_style_generics() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen_range(f64::MIN_POSITIVE..1.0)
        }
        let mut rng = StdRng::seed_from_u64(6);
        assert!(draw(&mut rng) > 0.0);
    }
}
