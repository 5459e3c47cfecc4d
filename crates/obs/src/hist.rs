//! Fixed 64-bucket log₂ histograms and a named-series registry.
//!
//! The record path is integer-only and lock-free: a value lands in
//! bucket `64 - leading_zeros(v)` (clamped), three relaxed atomic adds
//! and a CAS-free max update. Bucket `i` covers `(2^(i-1), 2^i - 1]`
//! with bucket 0 holding exactly 0 and bucket 63 absorbing everything
//! from `2^62` up to `u64::MAX`. Percentiles are reconstructed from
//! bucket upper bounds — coarse (≤ 2× relative error) but
//! allocation-free, which is what a per-job hot path needs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    max: AtomicU64,
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
            max: AtomicU64::new(0),
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
        self.max.fetch_max(v, Ordering::Relaxed);
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
            max: self.max.load(Ordering::Relaxed),
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
    /// Largest sample seen (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Quantile estimate: the upper bound of the bucket containing the
    /// `q`-th ranked sample, clamped to the observed max. `q` in
    /// `[0, 1]`; returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The fixed summary quartet reported per series.
    pub fn stats(&self) -> HistogramStats {
        HistogramStats {
            count: self.count,
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
            max: self.max,
        }
    }
}

/// Percentile summary of one series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramStats {
    /// Total samples.
    pub count: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th percentile estimate.
    pub p95: u64,
    /// 99th percentile estimate.
    pub p99: u64,
    /// 99.9th percentile estimate.
    pub p999: u64,
    /// Exact maximum.
    pub max: u64,
}

/// Named histogram series. `histogram(name)` interns on first use and
/// hands back a shared handle; recording through the handle is
/// lock-free (the registry lock guards only the name map).
#[derive(Debug, Default)]
pub struct Registry {
    series: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The series named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.series.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Snapshot every series, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        let map = self.series.lock().unwrap_or_else(|p| p.into_inner());
        map.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
    }
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
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.percentile(0.999), 0);
        assert_eq!(s.stats(), HistogramStats::default());
    }

    #[test]
    fn single_sample_is_exact() {
        let h = Histogram::new();
        h.record(1234);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 1234);
        assert_eq!(s.max, 1234);
        // Clamp-to-max makes every percentile exact for one sample.
        assert_eq!(s.percentile(0.0), 1234);
        assert_eq!(s.percentile(0.5), 1234);
        assert_eq!(s.percentile(1.0), 1234);
    }

    #[test]
    fn u64_max_sample() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[BUCKETS - 1], 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.percentile(0.99), u64::MAX);
        assert_eq!(s.sum, u64::MAX, "sum saturates instead of wrapping");
    }

    #[test]
    fn percentiles_bounded_by_bucket_width() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        // p50 of 1..=1000 is 500; the estimate is the containing
        // bucket's upper bound, so within 2x.
        let p50 = s.percentile(0.5);
        assert!((500..=1023).contains(&p50), "p50={p50}");
        let p99 = s.percentile(0.99);
        assert!((990..=1000).contains(&p99), "p99={p99}");
        assert_eq!(s.percentile(1.0), 1000);
    }

    #[test]
    fn registry_interns_and_snapshots_sorted() {
        let r = Registry::new();
        r.histogram("zzz").record(1);
        r.histogram("aaa").record(2);
        let h = r.histogram("zzz");
        h.record(3);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "aaa");
        assert_eq!(snap[1].0, "zzz");
        assert_eq!(snap[1].1.count, 2);
    }
}
