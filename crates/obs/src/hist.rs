//! Fixed 64-bucket log₂ histograms.
//!
//! The record path is integer-only and lock-free: a value lands in
//! bucket `64 - leading_zeros(v)` (clamped), with relaxed atomic adds
//! to the bucket and the count and a saturating add to the sum. Bucket
//! `i` covers `(2^(i-1), 2^i - 1]` with bucket 0 holding exactly 0 and
//! bucket 63 absorbing everything from `2^62` up to `u64::MAX`. The
//! histogram computes no quantiles: the Prometheus exposition carries
//! every bucket, and the scraper reads quantiles and ratios from them.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets (fixed).
pub const BUCKETS: usize = 64;

/// Index of the bucket recording value `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A concurrent log₂-bucketed histogram. All operations are relaxed
/// atomics; `record` never allocates, locks, or touches floats.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample. Integer-only; sums saturate rather than wrap.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating atomic add: one retry loop only near u64::MAX.
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Consistent-enough copy for reporting (relaxed reads; exact once
    /// writers quiesce).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Owned copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_upper`]).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        // Every value falls inside its bucket's range.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i), "v={v} i={i}");
            if i > 0 {
                assert!(v > bucket_upper(i - 1), "v={v} i={i}");
            }
        }
    }

    #[test]
    fn zero_samples() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0);
        assert!(s.buckets.iter().all(|&n| n == 0));
    }

    #[test]
    fn single_sample_is_exact() {
        let h = Histogram::new();
        h.record(1234);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 1234);
        assert_eq!(s.buckets[bucket_index(1234)], 1);
        assert_eq!(s.buckets.iter().sum::<u64>(), 1);
    }

    #[test]
    fn u64_max_sample() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[BUCKETS - 1], 2);
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, u64::MAX, "sum saturates instead of wrapping");
    }
}
