//! The aggregated metric state: spans, counters and histograms.
//!
//! [`Metrics`] doubles as the *worker-local* accumulator and the *global*
//! aggregate: workers fill a private `Metrics` with no locking, and the
//! owner merges them in a deterministic order (mirroring how
//! `geopattern-par` merges per-chunk accumulators). All three metric kinds
//! merge by addition, which is commutative and associative — so the
//! aggregate is identical for any thread count and any merge order, and
//! the map keys are `BTreeMap`-ordered so rendering is deterministic too.

use crate::json::{push_json_string, JsonBuf};
use std::collections::BTreeMap;

/// Aggregated timing of one named span: how many times it ran and the
/// total monotonic nanoseconds spent inside it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed span activations.
    pub count: u64,
    /// Total elapsed time across activations, in nanoseconds.
    pub total_ns: u128,
}

impl SpanStat {
    /// Mean elapsed nanoseconds per activation (0 when never run).
    pub fn mean_ns(&self) -> u128 {
        if self.count == 0 {
            0
        } else {
            self.total_ns / self.count as u128
        }
    }
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b)`, so 64 value buckets cover all of
/// `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` samples.
///
/// Bucket boundaries are powers of two, so recording is a couple of
/// integer instructions and merging is element-wise addition — exact,
/// allocation-free and order-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples (wrapping add on overflow).
    pub sum: u64,
    /// Smallest recorded sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; HISTOGRAM_BUCKETS] }
    }
}

impl Histogram {
    /// The bucket index a value lands in.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `b`.
    pub fn bucket_lower(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Adds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Non-empty buckets as `(inclusive lower bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (Self::bucket_lower(b), c))
            .collect()
    }
}

/// The full metric state of one run: named spans, counters and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Empty metric state.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Adds one completed span activation under `path`.
    pub fn add_span(&mut self, path: &str, elapsed_ns: u128) {
        let s = self.spans.entry(path.to_string()).or_default();
        s.count += 1;
        s.total_ns += elapsed_ns;
    }

    /// Adds `delta` to the counter `name`.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Records one histogram sample under `name`.
    pub fn record(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_string()).or_default().record(value);
    }

    /// Merges another metric state into this one. Addition throughout, so
    /// the result does not depend on the merge order — per-worker metrics
    /// can be absorbed in any (but conventionally a deterministic) order.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.spans {
            let s = self.spans.entry(k.clone()).or_default();
            s.count += v.count;
            s.total_ns += v.total_ns;
        }
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// The counter `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The span stats for `path`, if recorded.
    pub fn span(&self, path: &str) -> Option<SpanStat> {
        self.spans.get(path).copied()
    }

    /// The histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All spans in path order.
    pub fn spans(&self) -> impl Iterator<Item = (&str, SpanStat)> {
        self.spans.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the metrics as a deterministic JSON document:
    /// `{"spans":{path:{"count":..,"total_ns":..,"mean_ns":..}},
    ///   "counters":{name:value},
    ///   "histograms":{name:{"count":..,"sum":..,"min":..,"max":..,
    ///                       "buckets":[[lower,count],..]}}}`.
    pub fn to_json(&self) -> String {
        let mut out = JsonBuf::new();
        out.raw("{");
        out.key("spans");
        out.raw("{");
        for (i, (path, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.raw(",");
            }
            push_json_string(out.buf(), path);
            out.raw(&format!(
                ":{{\"count\":{},\"total_ns\":{},\"mean_ns\":{}}}",
                s.count,
                s.total_ns,
                s.mean_ns()
            ));
        }
        out.raw("},");
        out.key("counters");
        out.raw("{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.raw(",");
            }
            push_json_string(out.buf(), name);
            out.raw(&format!(":{v}"));
        }
        out.raw("},");
        out.key("histograms");
        out.raw("{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.raw(",");
            }
            push_json_string(out.buf(), name);
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .into_iter()
                .map(|(lo, c)| format!("[{lo},{c}]"))
                .collect();
            out.raw(&format!(
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                buckets.join(",")
            ));
        }
        out.raw("}}");
        out.into_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_lower(0), 0);
        assert_eq!(Histogram::bucket_lower(1), 1);
        assert_eq!(Histogram::bucket_lower(3), 4);
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = Histogram::default();
        for v in [0u64, 1, 3, 100] {
            a.record(v);
        }
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 104);
        assert_eq!(a.min, 0);
        assert_eq!(a.max, 100);

        let mut b = Histogram::default();
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 111);
        assert_eq!(a.mean(), 22);
        // Buckets: 0→{0}, 1→{1}, 2→{3}, 3→{7}, 7→{100 in [64,128)}.
        assert_eq!(a.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 1), (4, 1), (64, 1)]);
    }

    #[test]
    fn metrics_merge_is_order_independent() {
        let mut w1 = Metrics::new();
        w1.add_counter("pairs", 10);
        w1.record("row_len", 3);
        w1.add_span("rows", 500);
        let mut w2 = Metrics::new();
        w2.add_counter("pairs", 7);
        w2.record("row_len", 9);
        w2.add_span("rows", 250);

        let mut ab = Metrics::new();
        ab.merge(&w1);
        ab.merge(&w2);
        let mut ba = Metrics::new();
        ba.merge(&w2);
        ba.merge(&w1);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("pairs"), Some(17));
        assert_eq!(ab.span("rows").unwrap().count, 2);
        assert_eq!(ab.span("rows").unwrap().total_ns, 750);
        assert_eq!(ab.histogram("row_len").unwrap().count, 2);
    }

    #[test]
    fn json_is_deterministic_and_wellformed() {
        let mut m = Metrics::new();
        m.add_counter("b_counter", 2);
        m.add_counter("a_counter", 1);
        m.add_span("mine/pass2", 1000);
        m.record("hist", 5);
        let j = m.to_json();
        assert_eq!(j, m.clone().to_json());
        // Keys appear in BTreeMap order.
        assert!(j.find("a_counter").unwrap() < j.find("b_counter").unwrap());
        assert!(j.contains("\"mine/pass2\":{\"count\":1,\"total_ns\":1000,\"mean_ns\":1000}"));
        assert!(j.contains("\"hist\":{\"count\":1,\"sum\":5,\"min\":5,\"max\":5,\"buckets\":[[4,1]]}"));
        // Balanced braces/brackets (no string values contain any).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn empty_metrics_json() {
        let m = Metrics::new();
        assert!(m.is_empty());
        assert_eq!(m.to_json(), "{\"spans\":{},\"counters\":{},\"histograms\":{}}");
    }
}
