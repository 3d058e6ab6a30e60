//! Per-layer samples from traced runs, and their reduction to the
//! per-layer metrics (medians of times, exact counts).

use crate::stats::{median, ratio};
use crate::Metric;

/// One traced iteration's per-layer measurements. Times are seconds per
/// op; counts are exact and repeat from iteration to iteration. A layer a
/// workload does not use stays at zero.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    /// Input size the load stage decoded or parsed, in MiB.
    pub input_mb: f64,
    pub load_s: f64,
    pub extract_s: f64,
    pub extract_serial_s: f64,
    pub legs: LegTimes,
    pub encode_s: f64,
    pub mine_s: f64,
    pub rules_s: f64,
    /// The same op with the Recorder enabled, and disabled.
    pub recorder_on_s: f64,
    pub recorder_off_s: f64,
    pub counts: LayerCounts,
}

/// Seconds spent in each replayed per-pair leg of extraction.
#[derive(Debug, Clone, Copy, Default)]
pub struct LegTimes {
    pub prepare_s: f64,
    pub rtree_query_s: f64,
    pub relate_s: f64,
    pub classify_s: f64,
    pub distance_s: f64,
}

impl LegTimes {
    pub fn total(&self) -> f64 {
        self.prepare_s + self.rtree_query_s + self.relate_s + self.classify_s + self.distance_s
    }
}

/// Exact counts from one traced iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    pub candidate_pairs: u64,
    pub spatial_predicates: u64,
    /// Calls of `relate_to`, of `classify` (topological relation or
    /// distance band) and of `distance_within` in the leg replay.
    pub relate_calls: u64,
    pub classify_calls: u64,
    pub distance_calls: u64,
    pub quant_resolved: u64,
    pub quant_fallback: u64,
    pub simd_fallback: u64,
    pub segtree_nodes_visited: u64,
    pub mining_candidates: u64,
    pub mining_frequent: u64,
    pub c2_removed_same_type: u64,
    pub kcp_pruned_frac: f64,
    pub gain_over_bound: f64,
}

/// Reduces traced iterations to the per-layer metrics, in the order
/// `BENCHMARK.json` lists them. Requires at least one sample.
pub fn per_layer_metrics(samples: &[LayerSample]) -> Vec<Metric> {
    let last = samples
        .last()
        .expect("a traced run makes at least one iteration");
    let c = last.counts;
    let med = |f: fn(&LayerSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());

    let load_s = med(|s| s.load_s);
    let extract_s = med(|s| s.extract_s);
    let extract_serial_s = med(|s| s.extract_serial_s);
    let relate_s = med(|s| s.legs.relate_s);
    let classify_s = med(|s| s.legs.classify_s);
    let distance_s = med(|s| s.legs.distance_s);
    let ns_per = |secs: f64, calls: u64| ratio(secs * 1e9, calls as f64);
    // Point-location queries reach the quantized tier first; those it
    // hands back reach the f64 SIMD tier, which resolves or falls back.
    let locates = (c.quant_resolved + c.quant_fallback) as f64;
    let simd_resolved = c.quant_fallback.saturating_sub(c.simd_fallback) as f64;
    let recorder_off_s = med(|s| s.recorder_off_s);

    vec![
        Metric::new("sdb.load_s", load_s, "s"),
        Metric::new("sdb.load_mb_per_s", ratio(last.input_mb, load_s), "MB/s"),
        Metric::new("sdb.extract_s", extract_s, "s"),
        Metric::new("sdb.extract_serial_s", extract_serial_s, "s"),
        Metric::new(
            "par.extract_speedup",
            ratio(extract_serial_s, extract_s),
            "x",
        ),
        Metric::new("geom.prepare_s", med(|s| s.legs.prepare_s), "s"),
        Metric::new("sdb.rtree_query_s", med(|s| s.legs.rtree_query_s), "s"),
        Metric::new("geom.relate_s", relate_s, "s"),
        Metric::new(
            "geom.relate_ns_per_pair",
            ns_per(relate_s, c.relate_calls),
            "ns",
        ),
        Metric::new("qsr.classify_s", classify_s, "s"),
        Metric::new(
            "qsr.classify_ns_per_pair",
            ns_per(classify_s, c.classify_calls),
            "ns",
        ),
        Metric::new("geom.distance_s", distance_s, "s"),
        Metric::new(
            "geom.distance_ns_per_pair",
            ns_per(distance_s, c.distance_calls),
            "ns",
        ),
        Metric::new(
            "sdb.extract_unattributed_s",
            med(|s| {
                if s.extract_serial_s > 0.0 {
                    s.extract_serial_s - s.legs.total()
                } else {
                    0.0
                }
            }),
            "s",
        ),
        Metric::new("sdb.candidate_pairs", c.candidate_pairs as f64, "count"),
        Metric::new(
            "sdb.spatial_predicates",
            c.spatial_predicates as f64,
            "count",
        ),
        Metric::new(
            "sdb.pair_yield",
            ratio(c.spatial_predicates as f64, c.candidate_pairs as f64),
            "frac",
        ),
        Metric::new(
            "geom.quant_resolved_frac",
            ratio(c.quant_resolved as f64, locates),
            "frac",
        ),
        Metric::new(
            "geom.simd_resolved_frac",
            ratio(simd_resolved, locates),
            "frac",
        ),
        Metric::new(
            "geom.segtree_nodes_visited",
            c.segtree_nodes_visited as f64,
            "count",
        ),
        Metric::new("core.encode_s", med(|s| s.encode_s), "s"),
        Metric::new("mining.mine_s", med(|s| s.mine_s), "s"),
        Metric::new("mining.rules_s", med(|s| s.rules_s), "s"),
        Metric::new("mining.candidates", c.mining_candidates as f64, "count"),
        Metric::new(
            "mining.candidate_yield",
            ratio(c.mining_frequent as f64, c.mining_candidates as f64),
            "frac",
        ),
        Metric::new(
            "mining.c2_removed_same_type",
            c.c2_removed_same_type as f64,
            "count",
        ),
        Metric::new("mining.kcp_pruned_frac", c.kcp_pruned_frac, "frac"),
        Metric::new("mining.gain_over_bound", c.gain_over_bound, "x"),
        Metric::new(
            "obs.recorder_overhead_frac",
            if recorder_off_s > 0.0 {
                med(|s| s.recorder_on_s) / recorder_off_s - 1.0
            } else {
                0.0
            },
            "frac",
        ),
    ]
}

/// `Ok` when every iteration reported the same exact counts.
pub fn check_counts_repeat(samples: &[LayerSample]) -> Result<(), String> {
    match samples.windows(2).find(|w| w[0].counts != w[1].counts) {
        Some(w) => Err(format!(
            "counts changed between iterations: {:?} vs {:?}",
            w[0].counts, w[1].counts
        )),
        None => Ok(()),
    }
}
