//! Measurement primitives: latency histograms and window rates.
//!
//! The workload harness reports throughput and latency percentiles the same
//! way the paper does (operations per second over a measurement window,
//! §4.2). [`Histogram`] uses logarithmic buckets with linear sub-buckets —
//! the HdrHistogram idea reduced to what a simulator needs — giving ~4%
//! relative error across nanoseconds-to-minutes without per-sample
//! allocation.
//!
//! # Examples
//!
//! ```
//! use siperf_simcore::stats::Histogram;
//! use siperf_simcore::time::SimDuration;
//!
//! let mut h = Histogram::new();
//! for ms in 1..=100 {
//!     h.record(SimDuration::from_millis(ms));
//! }
//! assert_eq!(h.count(), 100);
//! let p50 = h.percentile(50.0).as_millis();
//! assert!((45..=55).contains(&p50));
//! ```

use std::fmt;

use crate::time::SimDuration;

const SUB_BUCKET_BITS: u32 = 5; // 32 linear sub-buckets per power of two
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
const BUCKETS: usize = 64 - SUB_BUCKET_BITS as usize;

/// A log-linear histogram of durations.
///
/// Values are bucketed by the position of their highest set bit (log2) and
/// `2^5 = 32` linear sub-buckets within each power of two, bounding relative
/// quantile error to about 1/32.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS * SUB_BUCKETS],
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    fn index_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let log = 63 - ns.leading_zeros();
        let bucket = (log - SUB_BUCKET_BITS + 1) as usize;
        let sub = ((ns >> (log - SUB_BUCKET_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        bucket * SUB_BUCKETS + sub
    }

    fn value_of(index: usize) -> u64 {
        let bucket = index / SUB_BUCKETS;
        let sub = index % SUB_BUCKETS;
        if bucket == 0 {
            return sub as u64;
        }
        // Midpoint-ish representative: the lower bound of the sub-bucket.
        ((SUB_BUCKETS + sub) as u64) << (bucket - 1)
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let idx = Self::index_of(ns).min(BUCKETS * SUB_BUCKETS - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of all samples, zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / self.total as u128) as u64)
        }
    }

    /// Smallest recorded sample, zero when empty.
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest recorded sample (bucket-exact), zero when empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Value at or below which `p` percent of samples fall.
    ///
    /// Returns zero for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= target {
                return SimDuration::from_nanos(Self::value_of(i).min(self.max_ns));
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum_ns = 0;
        self.min_ns = u64::MAX;
        self.max_ns = 0;
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("mean", &self.mean())
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .field("max", &self.max())
            .finish()
    }
}

/// Throughput over an explicit measurement window, as the paper reports
/// (operations per second of the measured phase only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowRate {
    ops: u64,
    window_secs: f64,
}

impl WindowRate {
    /// Builds a rate from an operation count and a window length in seconds.
    /// A non-positive (or non-finite) window is stored as-is; [`per_sec`]
    /// reports 0 for it rather than NaN/infinity, so a degenerate window
    /// degrades to "no rate" instead of poisoning downstream arithmetic.
    ///
    /// [`per_sec`]: WindowRate::per_sec
    pub fn new(ops: u64, window_secs: f64) -> Self {
        WindowRate { ops, window_secs }
    }

    /// Operations per second; 0 when the window is empty or inverted.
    pub fn per_sec(self) -> f64 {
        if self.window_secs > 0.0 && self.window_secs.is_finite() {
            self.ops as f64 / self.window_secs
        } else {
            0.0
        }
    }

    /// Raw operation count.
    pub fn ops(self) -> u64 {
        self.ops
    }
}

impl fmt::Display for WindowRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} ops/s", self.per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exact_small_values() {
        let mut h = Histogram::new();
        for ns in 0..32u64 {
            h.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::from_nanos(31));
        // Small values are exact.
        assert_eq!(h.percentile(100.0), SimDuration::from_nanos(31));
    }

    #[test]
    fn histogram_percentiles_within_bucket_error() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(SimDuration::from_micros(us));
        }
        let p50 = h.percentile(50.0).as_micros() as f64;
        assert!((450.0..=550.0).contains(&p50), "p50 {p50}");
        let p99 = h.percentile(99.0).as_micros() as f64;
        assert!((930.0..=1000.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(100));
        h.record(SimDuration::from_nanos(300));
        assert_eq!(h.mean(), SimDuration::from_nanos(200));
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(50.0), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_micros(20));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), SimDuration::from_micros(15));
        assert_eq!(a.max(), SimDuration::from_micros(20));
    }

    #[test]
    fn reset_clears() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_secs(1));
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(u64::MAX));
        h.record(SimDuration::from_nanos(u64::MAX / 2));
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0).as_nanos() > 0);
    }

    #[test]
    fn window_rate() {
        let r = WindowRate::new(30_000, 2.0);
        assert_eq!(r.per_sec(), 15_000.0);
        assert_eq!(r.ops(), 30_000);
        assert_eq!(r.to_string(), "15000 ops/s");
    }

    #[test]
    fn window_rate_degenerate_windows_report_zero() {
        assert_eq!(WindowRate::new(1, 0.0).per_sec(), 0.0);
        assert_eq!(WindowRate::new(1, -3.0).per_sec(), 0.0);
        assert_eq!(WindowRate::new(1, f64::NAN).per_sec(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_out_of_range_panics() {
        Histogram::new().percentile(101.0);
    }
}
