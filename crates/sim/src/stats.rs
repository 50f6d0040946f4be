//! Streaming statistics: counters and an HDR-style log-bucket histogram.
//!
//! The histogram stores values (typically latencies in nanoseconds) in
//! buckets with bounded relative error (~3% by default), supporting
//! constant-time record and fast percentile queries — exactly what is
//! needed to report the median and 99th-percentile series of the paper's
//! latency figures.

use crate::time::Ns;

/// A monotonically increasing event counter with a byte tally.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter {
    /// Number of events.
    pub events: u64,
    /// Accumulated bytes (or any secondary magnitude).
    pub bytes: u64,
}

impl Counter {
    /// Record one event carrying `bytes`.
    #[inline]
    pub fn record(&mut self, bytes: u64) {
        self.events += 1;
        self.bytes += bytes;
    }

    /// Events per second over an elapsed virtual span.
    pub fn rate(&self, elapsed: Ns) -> f64 {
        if elapsed == Ns::ZERO {
            return 0.0;
        }
        self.events as f64 / elapsed.as_secs_f64()
    }

    /// Millions of events per second over an elapsed virtual span.
    pub fn mops(&self, elapsed: Ns) -> f64 {
        self.rate(elapsed) / 1e6
    }
}

const SUB_BUCKET_BITS: u32 = 5; // 32 linear sub-buckets per power of two
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// A log-linear histogram with ~3% relative bucket width.
///
/// Values are `u64` (nanoseconds in practice). Zero is stored in its own
/// bucket. Memory: 64 * 32 u64 counters (16 KiB) regardless of range.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; 64 * SUB_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BUCKET_BITS;
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        ((msb - SUB_BUCKET_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// Representative (lower-bound) value of bucket `i`.
    fn bucket_value(i: usize) -> u64 {
        let major = i / SUB_BUCKETS;
        let sub = (i % SUB_BUCKETS) as u64;
        if major == 0 {
            return sub;
        }
        let shift = (major - 1) as u32;
        ((SUB_BUCKETS as u64) + sub) << shift
    }

    /// Record a single value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        self.counts[b] += 1;
        self.total += 1;
        self.sum += value as u128;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Minimum recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Maximum recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]` (bucket lower bound), or 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn median(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Median in microseconds.
    pub fn median_us(&self) -> f64 {
        self.median() as f64 / 1_000.0
    }

    /// 99th percentile in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.p99() as f64 / 1_000.0
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rates() {
        let mut c = Counter::default();
        for _ in 0..1_000_000 {
            c.events += 1;
        }
        assert!((c.mops(Ns::from_secs(1)) - 1.0).abs() < 1e-9);
        assert_eq!(c.rate(Ns::ZERO), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.04, "q={q} got={got} expect={expect} rel={rel}");
        }
    }

    #[test]
    fn mean_and_count() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.median(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_combines_populations() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=1000 {
            a.record(v);
        }
        for v in 9001..=10_000 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 2000);
        let med = a.quantile(0.5) as f64;
        assert!((900.0..1100.0).contains(&med) || (0.0..1100.0).contains(&med));
        let p99 = a.p99() as f64;
        assert!(p99 > 9_000.0, "p99={p99}");
        assert_eq!(a.max(), 10_000);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(123);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn large_values_survive() {
        let mut h = Histogram::new();
        let v = u64::MAX / 2;
        h.record(v);
        assert_eq!(h.count(), 1);
        let got = h.quantile(1.0) as f64;
        let rel = (got - v as f64).abs() / v as f64;
        assert!(rel < 0.04);
    }
}
