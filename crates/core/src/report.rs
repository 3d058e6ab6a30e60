//! The result of a pipeline run, with paper-style rendering.

use crate::pipeline::Algorithm;
use geopattern_mining::{AssociationRule, MiningResult, MinSupport, TransactionSet};
use geopattern_obs::Metrics;
use geopattern_sdb::ExtractionStats;
use std::fmt;

/// Everything a [`crate::MiningPipeline`] run produced.
#[derive(Debug)]
pub struct PatternReport {
    /// The algorithm that ran.
    pub algorithm: Algorithm,
    /// The support threshold used.
    pub min_support: MinSupport,
    /// The confidence threshold used for rules.
    pub min_confidence: f64,
    /// The encoded transactions (including the item catalog).
    pub transactions: TransactionSet,
    /// Frequent itemsets and mining statistics.
    pub result: MiningResult,
    /// Association rules meeting the confidence threshold.
    pub rules: Vec<AssociationRule>,
    /// Extraction statistics, when the run started from geometry.
    pub extraction_stats: Option<ExtractionStats>,
    /// Snapshot of the pipeline recorder's metrics (empty when the run
    /// was not instrumented).
    pub metrics: Metrics,
}

impl PatternReport {
    /// Metrics recorded during the run: span timings, counters and
    /// histograms. Empty unless a [`geopattern_obs::Recorder`] was
    /// attached via [`crate::MiningPipeline::recorder`]. Serialise with
    /// [`Metrics::to_json`].
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Frequent itemsets of size ≥ `min_size`, rendered with labels,
    /// in the paper's `{a, b, c} (support n)` style.
    pub fn frequent_itemsets(&self, min_size: usize) -> Vec<String> {
        self.result.render(&self.transactions.catalog, min_size)
    }

    /// Rules rendered with labels.
    pub fn rendered_rules(&self) -> Vec<String> {
        self.rules.iter().map(|r| r.render(&self.transactions.catalog)).collect()
    }

    /// One-paragraph run summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}: {} transactions, {} items → {} frequent itemsets ({} of size ≥ 2), {} rules",
            self.algorithm.name(),
            self.transactions.len(),
            self.transactions.catalog.len(),
            self.result.num_frequent(),
            self.result.num_frequent_min2(),
            self.rules.len(),
        );
        let st = &self.result.stats;
        if st.pairs_removed_dependencies + st.pairs_removed_same_type > 0 {
            s.push_str(&format!(
                " [C₂ −{} dependency pairs, −{} same-feature-type pairs]",
                st.pairs_removed_dependencies, st.pairs_removed_same_type
            ));
        }
        s
    }
}

impl fmt::Display for PatternReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for (k, level) in self.result.levels.iter().enumerate().skip(1) {
            if level.is_empty() {
                continue;
            }
            writeln!(f, "  size {}:", k + 1)?;
            for fi in level {
                writeln!(
                    f,
                    "    {} (support {})",
                    self.transactions.catalog.render_itemset(&fi.items),
                    fi.support
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MiningPipeline;
    use geopattern_mining::MinSupport as MS;

    fn report() -> PatternReport {
        let ts = TransactionSet::from_paper_labels(&[
            vec!["murderRate=high", "contains_slum", "touches_slum"],
            vec!["murderRate=high", "contains_slum", "touches_slum"],
        ]);
        MiningPipeline::new()
            .algorithm(Algorithm::Apriori)
            .min_support(MS::Fraction(1.0))
            .run_transactions(ts)
            .unwrap()
    }

    #[test]
    fn summary_mentions_counts() {
        let r = report();
        let s = r.summary();
        assert!(s.contains("Apriori"));
        assert!(s.contains("2 transactions"));
        assert!(!r.frequent_itemsets(2).is_empty());
    }

    #[test]
    fn display_lists_itemsets_by_size() {
        let r = report();
        let s = r.to_string();
        assert!(s.contains("size 2:"));
        assert!(s.contains("{contains_slum, touches_slum}"));
        assert!(s.contains("size 3:"));
    }

    #[test]
    fn kc_plus_summary_reports_removals() {
        let ts = TransactionSet::from_paper_labels(&[
            vec!["contains_slum", "touches_slum"],
            vec!["contains_slum", "touches_slum"],
        ]);
        let r = MiningPipeline::new()
            .min_support(MS::Fraction(1.0))
            .run_transactions(ts)
            .unwrap();
        assert!(r.summary().contains("same-feature-type"));
    }
}
