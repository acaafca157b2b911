//! Statistics primitives: counters and a log-linear histogram for latency
//! percentiles (Fig. 12's median/99th-tail numbers).

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use f4t_sim::Counter;
/// let mut c = Counter::default();
/// c.incr();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Returns the current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

const HIST_SUB_BUCKETS: usize = 32;

/// A log-linear histogram over `u64` values (e.g. latency in nanoseconds).
///
/// Values are bucketed by power-of-two magnitude with 32
/// linear sub-buckets per octave, giving ~3 % relative error — the same
/// scheme HdrHistogram uses. Suitable for the paper's median / 99th-tail
/// latency reporting.
///
/// # Examples
///
/// ```
/// use f4t_sim::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let med = h.percentile(50.0);
/// assert!((450..=550).contains(&med));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; 64 * HIST_SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < HIST_SUB_BUCKETS as u64 {
            return value as usize;
        }
        let magnitude = 63 - value.leading_zeros() as usize; // >= 5
        let shift = magnitude - HIST_SUB_BUCKETS.trailing_zeros() as usize;
        let sub = ((value >> shift) as usize) - HIST_SUB_BUCKETS;
        (magnitude - 4) * HIST_SUB_BUCKETS + sub
    }

    fn bucket_low(index: usize) -> u64 {
        if index < HIST_SUB_BUCKETS {
            return index as u64;
        }
        let magnitude = index / HIST_SUB_BUCKETS + 4;
        let sub = index % HIST_SUB_BUCKETS;
        let shift = magnitude - HIST_SUB_BUCKETS.trailing_zeros() as usize;
        ((HIST_SUB_BUCKETS + sub) as u64) << shift
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (zero when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Returns the value at percentile `p` (0–100). For an empty histogram
    /// returns zero. The result is the lower bound of the containing
    /// bucket, i.e. accurate to ~3 %.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_low(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Median (50th percentile).
    pub fn median(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Merges another histogram into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.percentile(100.0), 31);
        assert_eq!(h.percentile(0.0), 0);
    }

    #[test]
    fn histogram_percentiles_within_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (p, expect) in [(50.0, 50_000u64), (90.0, 90_000), (99.0, 99_000)] {
            let got = h.percentile(p);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(err < 0.05, "p{p}: got {got}, expected ~{expect}");
        }
    }

    #[test]
    fn histogram_large_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX / 2);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.percentile(100.0) >= u64::MAX / 2);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn histogram_single_sample() {
        let mut h = Histogram::new();
        h.record(777);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 777);
        assert_eq!(h.max(), 777);
        // Every percentile of a one-sample distribution is that sample.
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 777, "p{p}");
        }
        assert!((h.mean() - 777.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentile_clamps_out_of_range() {
        let mut h = Histogram::new();
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(-5.0), h.percentile(0.0));
        assert_eq!(h.percentile(250.0), h.percentile(100.0));
        assert_eq!(h.percentile(100.0), 10);
    }

    #[test]
    fn histogram_zero_only() {
        let mut h = Histogram::new();
        for _ in 0..5 {
            h.record(0);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.median(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        for v in [3u64, 5, 9] {
            a.record(v);
        }
        let before = (a.count(), a.min(), a.max(), a.median());
        a.merge(&Histogram::new());
        assert_eq!((a.count(), a.min(), a.max(), a.median()), before);

        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 3);
        assert_eq!(empty.min(), 3);
        assert_eq!(empty.max(), 9);
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=100u64 {
            a.record(v);
        }
        for v in 1000..=1100u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 201);
        assert_eq!(a.min(), 1);
        assert!(a.max() >= 1100);
        assert!(a.percentile(25.0) <= 100);
        assert!(a.percentile(75.0) >= 950);
    }

    #[test]
    fn bucket_index_monotone() {
        let mut last = 0;
        for v in (0..10_000u64).chain((1..50).map(|i| i * 1_000_000)) {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= last || v == 0);
            last = last.max(idx);
            // Lower bound never exceeds the value.
            assert!(Histogram::bucket_low(idx) <= v);
        }
    }
}
