//! Named counters, gauges, and fixed-bucket histograms.
//!
//! Metrics are interned by `&'static str` name in a global registry and
//! backed by plain atomics, so recording never blocks: the registry mutex
//! is taken only to look a name up (or on [`snapshot`]/[`reset_metrics`]),
//! and cached handles ([`Counter`], [`Histogram`]) skip it entirely.
//!
//! Histograms use 65 fixed log₂ buckets: bucket *i* holds values whose bit
//! length is *i* (bucket 0 holds only 0). Quantile queries walk the bucket
//! array and report the bucket's upper bound, so p50/p90/p99 are at most
//! one power of two above the true quantile — plenty for latency triage,
//! and recording stays a handful of relaxed atomic ops.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::is_enabled;

/// One bucket per possible bit length of a `u64`, plus bucket 0 for zero.
const BUCKETS: usize = 65;

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, Arc<AtomicU64>>,
    gauges: BTreeMap<&'static str, Arc<AtomicU64>>,
    histograms: BTreeMap<&'static str, Arc<HistogramCell>>,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Handle to a named monotonic counter. Cheap to clone; safe to cache in
/// hot loops — [`Counter::add`] touches only one atomic.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`; a no-op while observability is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if is_enabled() && n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1; a no-op while observability is disabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (readable even while disabled).
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Look up (interning on first use) the counter registered under `name`.
pub fn counter(name: &'static str) -> Counter {
    Counter(registry().counters.entry(name).or_default().clone())
}

/// One-shot `counter(name).add(n)` for call sites too cold to cache a
/// handle. Checks the enabled flag before touching the registry.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if is_enabled() && n != 0 {
        counter(name).0.fetch_add(n, Ordering::Relaxed);
    }
}

/// Set the gauge registered under `name` to `value` (last write wins).
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if is_enabled() {
        registry()
            .gauges
            .entry(name)
            .or_default()
            .store(value.to_bits(), Ordering::Relaxed);
    }
}

/// Lock-free storage behind a [`Histogram`] handle.
struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCell {
    fn record(&self, value: u64) {
        let index = bucket_index(value);
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    fn summarize(&self) -> HistogramSummary {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        // Clamp quantile estimates to the observed extremes so a histogram
        // whose samples all share one bucket reports exact values.
        let clamp = |q: u64| q.clamp(min, max);
        HistogramSummary {
            count,
            sum,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            min: if count == 0 { 0 } else { min },
            max,
            p50: if count == 0 {
                0
            } else {
                clamp(quantile(&buckets, count, 0.50))
            },
            p90: if count == 0 {
                0
            } else {
                clamp(quantile(&buckets, count, 0.90))
            },
            p99: if count == 0 {
                0
            } else {
                clamp(quantile(&buckets, count, 0.99))
            },
        }
    }
}

/// `value == 0` → bucket 0; otherwise the value's bit length.
fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Upper bound of the bucket that contains the `q`-quantile sample.
fn quantile(buckets: &[u64], count: u64, q: f64) -> u64 {
    let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (index, &bucket_count) in buckets.iter().enumerate() {
        seen += bucket_count;
        if seen >= rank {
            return bucket_upper_bound(index);
        }
    }
    bucket_upper_bound(BUCKETS - 1)
}

/// Largest value that lands in bucket `index`.
fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// Handle to a named histogram. Cheap to clone; safe to cache in hot loops.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// Record one sample; a no-op while observability is disabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if is_enabled() {
            self.0.record(value);
        }
    }
}

/// Look up (interning on first use) the histogram registered under `name`.
pub fn histogram(name: &'static str) -> Histogram {
    Histogram(registry().histograms.entry(name).or_default().clone())
}

/// One-shot `histogram(name).record(value)` for cold call sites.
#[inline]
pub fn histogram_record(name: &'static str, value: u64) {
    if is_enabled() {
        histogram(name).0.record(value);
    }
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (wrapping add on overflow).
    pub sum: u64,
    /// Arithmetic mean, 0.0 when empty.
    pub mean: f64,
    /// Smallest sample, 0 when empty.
    pub min: u64,
    /// Largest sample, 0 when empty.
    pub max: u64,
    /// Estimated median (log₂-bucket upper bound, clamped to min/max).
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

/// Point-in-time copy of every registered metric, name-sorted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` for every registered histogram.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Value of the counter registered under `name`, if any.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Summary of the histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }
}

/// Copy out every registered metric. Works while disabled (values simply
/// stop moving), so exporters can run after [`crate::disable`].
pub fn snapshot() -> MetricsSnapshot {
    let registry = registry();
    MetricsSnapshot {
        counters: registry
            .counters
            .iter()
            .map(|(name, v)| (name.to_string(), v.load(Ordering::Relaxed)))
            .collect(),
        gauges: registry
            .gauges
            .iter()
            .map(|(name, v)| (name.to_string(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect(),
        histograms: registry
            .histograms
            .iter()
            .map(|(name, cell)| (name.to_string(), cell.summarize()))
            .collect(),
    }
}

/// Zero every registered metric in place. Cached handles stay valid (they
/// share the same atomics), so long-lived loops keep recording afterwards.
pub fn reset_metrics() {
    let registry = registry();
    for value in registry.counters.values() {
        value.store(0, Ordering::Relaxed);
    }
    for value in registry.gauges.values() {
        value.store(0f64.to_bits(), Ordering::Relaxed);
    }
    for cell in registry.histograms.values() {
        cell.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_upper_bounds_bracket_their_members() {
        for value in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            assert!(value <= bucket_upper_bound(bucket_index(value)));
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn quantile_walks_cumulative_counts() {
        // 10 samples of value 1 (bucket 1), 10 of value ~1000 (bucket 10).
        let mut buckets = vec![0u64; BUCKETS];
        buckets[1] = 10;
        buckets[10] = 10;
        assert_eq!(quantile(&buckets, 20, 0.50), 1);
        assert_eq!(quantile(&buckets, 20, 0.90), 1023);
        assert_eq!(quantile(&buckets, 20, 0.99), 1023);
    }

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let cell = HistogramCell::default();
        let summary = cell.summarize();
        assert_eq!(summary.count, 0);
        assert_eq!(summary.min, 0);
        assert_eq!(summary.max, 0);
        assert_eq!(summary.p99, 0);
    }
}
