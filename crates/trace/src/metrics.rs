//! A registry of named counters and histograms.
//!
//! The registry is the *report layer*: engines keep their own cheap
//! struct-of-counters (`ChaseStats`, search stats, `GovernorReport`) and
//! export into a [`MetricsRegistry`] when a run report is assembled. That
//! keeps this crate a leaf dependency and the hot loops allocation-free.

use crate::json::Json;
use std::collections::BTreeMap;

/// A power-of-two-bucket histogram of `u64` samples.
///
/// Bucket `i` counts samples `v` with `2^(i-1) < v <= 2^i` (bucket 0
/// counts zeros and ones). 65 buckets cover the full `u64` range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// The bucket index a sample falls into: `ceil(log2(v))`, with 0 and
    /// 1 sharing bucket 0.
    fn bucket_of(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros()) as usize
        }
    }

    /// Fold another histogram into this one: counts and sums add, the
    /// extrema combine, buckets add pairwise. Used by report assembly to
    /// aggregate per-run histograms (e.g. chase rounds across several
    /// chases of one solve) without re-observing samples.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Non-empty buckets as `(upper_bound_exponent, count)` pairs: bucket
    /// `e` holds samples `<= 2^e` (and `> 2^(e-1)` for `e > 0`).
    pub fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (u32::try_from(i).unwrap_or(u32::MAX), *c))
            .collect()
    }

    /// The histogram as a JSON object: count, sum, extrema, and the
    /// non-empty buckets as `[exponent, count]` pairs.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .nonzero_buckets()
            .into_iter()
            .map(|(e, c)| Json::Arr(vec![e.into(), c.into()]));
        Json::from_iter([
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("min", self.min.into()),
            ("max", self.max.into()),
            ("buckets", buckets.collect()),
        ])
    }
}

/// Named counters and histograms, keyed by dot-separated metric names
/// (`chase.rounds`, `governor.peak_bytes`, `search.nodes`, …). Keys are
/// `BTreeMap`-ordered, so every rendering is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `v` to the named counter (creating it at zero).
    pub fn add(&mut self, name: &str, v: u64) {
        let c = self.counters.entry(name.to_owned()).or_insert(0);
        *c = c.saturating_add(v);
    }

    /// Set the named counter to `v` (for gauges like peak bytes, where
    /// summing across sub-runs would be wrong).
    pub fn set(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_owned(), v);
    }

    /// Set the named counter to the max of its current value and `v`.
    pub fn set_max(&mut self, name: &str, v: u64) {
        let c = self.counters.entry(name.to_owned()).or_insert(0);
        *c = (*c).max(v);
    }

    /// The named counter's value, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Record a histogram sample under `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_owned())
            .or_default()
            .record(v);
    }

    /// Fold a whole histogram into the named slot (creating it empty).
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms.entry(name.to_owned()).or_default().merge(h);
    }

    /// Fold another registry into this one: counters add, histograms
    /// merge. Gauges set with [`MetricsRegistry::set`] also add, so only
    /// merge registries with disjoint gauge names (which is how the report
    /// layer uses it: each layer owns its metric prefix).
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, v) in other.counters() {
            self.add(name, v);
        }
        for (name, h) in other.histograms() {
            self.merge_histogram(name, h);
        }
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The registry as a JSON object `{"counters":{...},"histograms":{...}}`
    /// with keys in sorted order.
    pub fn to_json(&self) -> Json {
        Json::from_iter([
            (
                "counters",
                self.counters().map(|(k, v)| (k, v.into())).collect(),
            ),
            (
                "histograms",
                self.histograms().map(|(k, h)| (k, h.to_json())).collect(),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_power_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        // 0,1 -> bucket 0; 2 -> bucket 1; 3,4 -> bucket 2; 1000 -> bucket 10.
        assert_eq!(h.nonzero_buckets(), vec![(0, 2), (1, 1), (2, 2), (10, 1)]);
    }

    #[test]
    fn histogram_merge_combines_counts_extrema_and_buckets() {
        let mut a = Histogram::new();
        for v in [1, 8] {
            a.record(v);
        }
        let mut b = Histogram::new();
        for v in [0, 1000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 1009);
        assert_eq!(a.min, 0);
        assert_eq!(a.max, 1000);
        assert_eq!(a.nonzero_buckets(), vec![(0, 2), (3, 1), (10, 1)]);
        // Merging an empty histogram changes nothing (not even min).
        let before = a;
        a.merge(&Histogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn registry_merge_adds_counters_and_merges_histograms() {
        let mut a = MetricsRegistry::new();
        a.add("c.x", 2);
        a.observe("h.y", 10);
        let mut b = MetricsRegistry::new();
        b.add("c.x", 3);
        b.add("c.z", 1);
        b.observe("h.y", 20);
        b.observe("h.w", 5);
        a.merge_from(&b);
        assert_eq!(a.get("c.x"), Some(5));
        assert_eq!(a.get("c.z"), Some(1));
        assert_eq!(a.histogram("h.y").map(|h| h.count), Some(2));
        assert_eq!(a.histogram("h.w").map(|h| h.sum), Some(5));
    }

    #[test]
    fn registry_counters_and_json_are_deterministic() {
        let mut r = MetricsRegistry::new();
        r.add("b.second", 2);
        r.add("a.first", 1);
        r.add("a.first", 4);
        r.set_max("gauge.peak", 10);
        r.set_max("gauge.peak", 7);
        r.observe("hist.x", 3);
        assert_eq!(r.get("a.first"), Some(5));
        assert_eq!(r.get("gauge.peak"), Some(10));
        let json = r.to_json().to_string();
        assert!(json.starts_with("{\"counters\":{\"a.first\":5,\"b.second\":2,\"gauge.peak\":10}"));
        assert!(json.contains("\"hist.x\":{\"count\":1,\"sum\":3"));
    }
}
