//! Deterministic random-number generation for simulations.
//!
//! [`SimRng`] is a small, fast, fully deterministic generator
//! (xoshiro256++) with convenience methods for the distributions the
//! simulator needs (uniform ranges, Bernoulli trials, exponential
//! inter-arrival jitter). Reproducibility matters more than statistical
//! perfection here: the same seed must produce bit-identical simulations on
//! every platform, so we implement the generator ourselves rather than
//! depending on a crate whose stream might change between versions.
//!
//! # Examples
//!
//! ```
//! use siperf_simcore::rng::SimRng;
//!
//! let mut a = SimRng::seed_from_u64(7);
//! let mut b = SimRng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let x = a.range_u64(10..20);
//! assert!((10..20).contains(&x));
//! ```

use std::ops::Range;

/// A deterministic xoshiro256++ pseudo-random generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator; useful for giving each
    /// simulated entity its own stream so entity ordering does not perturb
    /// other entities' randomness.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::seed_from_u64(self.next_u64() ^ salt.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform value in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high-quality bits into the mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in the half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        // Multiply-shift rejection-free mapping (Lemire); bias is negligible
        // for simulation purposes and determinism is preserved.
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        range.start + hi
    }

    /// Uniform `usize` in the half-open range.
    pub fn range_usize(&mut self, range: Range<usize>) -> usize {
        self.range_u64(range.start as u64..range.end as u64) as usize
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Sample from an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        let u = 1.0 - self.f64(); // in (0, 1]
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds_and_covers() {
        let mut r = SimRng::seed_from_u64(4);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = r.range_u64(5..15);
            assert!((5..15).contains(&x));
            seen[(x - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should occur");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::seed_from_u64(6);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(10.0)).sum();
        let mean = sum / n as f64;
        assert!((9.0..11.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = SimRng::seed_from_u64(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::seed_from_u64(9).range_u64(5..5);
    }
}
