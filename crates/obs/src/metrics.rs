//! Named counters and fixed-bucket histograms.
//!
//! Metrics always record, trace or not. Every call site records at most
//! once per route, simulation, batch file or request, never inside a
//! per-gate loop, so a switch would save nothing.
//! Metrics are interned by `&'static str` name in one global registry and
//! updated under its mutex, which each record holds for a map lookup and a
//! few integer adds.
//!
//! Histograms use 65 fixed log₂ buckets: bucket *i* holds values whose bit
//! length is *i* (bucket 0 holds only 0). Quantile queries walk the bucket
//! array and report the bucket's upper bound, so p50/p90/p99 are at most
//! one power of two above the true quantile — plenty for latency triage.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// One bucket per possible bit length of a `u64`, plus bucket 0 for zero.
const BUCKETS: usize = 65;

struct Registry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, HistogramCell>,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
        counters: BTreeMap::new(),
        histograms: BTreeMap::new(),
    });
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Add `n` to the counter registered under `name`, interning it on first
/// use.
pub fn counter_add(name: &'static str, n: u64) {
    if n != 0 {
        let mut registry = registry();
        let value = registry.counters.entry(name).or_default();
        *value = value.wrapping_add(n);
    }
}

/// Record one sample in the histogram registered under `name`, interning
/// it on first use.
pub fn histogram_record(name: &'static str, value: u64) {
    registry().histograms.entry(name).or_default().record(value);
}

/// The samples of one named histogram.
struct HistogramCell {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramCell {
    fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn summarize(&self) -> HistogramSummary {
        let HistogramCell {
            ref buckets,
            count,
            sum,
            min,
            max,
        } = *self;
        if count == 0 {
            return HistogramSummary::default();
        }
        // Clamp quantile estimates to the observed extremes so a histogram
        // whose samples all share one bucket reports exact values.
        let quantile = |q: f64| quantile(buckets, count, q).clamp(min, max);
        HistogramSummary {
            count,
            sum,
            mean: sum as f64 / count as f64,
            min,
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
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

/// Point-in-time summary of one histogram; all zeros when it is empty.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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

/// Copy out every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let registry = registry();
    MetricsSnapshot {
        counters: registry
            .counters
            .iter()
            .map(|(name, &value)| (name.to_string(), value))
            .collect(),
        histograms: registry
            .histograms
            .iter()
            .map(|(name, cell)| (name.to_string(), cell.summarize()))
            .collect(),
    }
}

/// Zero every registered metric, keeping the names registered.
pub fn reset_metrics() {
    let mut registry = registry();
    registry.counters.values_mut().for_each(|value| *value = 0);
    registry
        .histograms
        .values_mut()
        .for_each(|cell| *cell = HistogramCell::default());
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
