//! `fig5-sweep`: the paper's Experiment 1 (Figures 4 and 5) at 60,000
//! rows. One op mines the same table with Apriori, Apriori-KC and
//! Apriori-KC+ at 5, 10 and 15% support, rules included. No geometry runs.
//!
//! Besides matching the serial reference, every op is checked against
//! the paper's claims: KC+ ⊆ KC ⊆ Apriori (supports included), every
//! itemset KC+ drops holds a same-feature-type or dependency pair, and the
//! measured gain is at least Formula 1's `minimal_gain` for the shape of
//! the largest frequent itemset.

use crate::check::{equal, MinedOutput};
use crate::layers::{LayerCounts, LayerSample};
use crate::Workload;
use geopattern::datagen::experiments::{Experiment, ExperimentSpec};
use geopattern::mining::{generate_rules, try_mine, AprioriConfig};
use geopattern::{
    minimal_gain, Algorithm, CountingStrategy, ItemCatalog, MinSupport, MiningPipeline,
    MiningResult, PairFilter, Recorder, Threads,
};
use std::collections::BTreeMap;
use std::time::Instant;

pub const ROWS: usize = 60_000;
const SUPPORTS: [f64; 3] = [0.05, 0.10, 0.15];
const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Apriori,
    Algorithm::AprioriKc,
    Algorithm::AprioriKcPlus,
];
const MIN_CONFIDENCE: f64 = 0.7;
const THREADS: Threads = Threads::Fixed(2);

/// Frequent-itemset and rule counts of the nine runs at the default seed
/// (1), in sweep order: support-major, then Apriori, KC, KC+.
pub const PINNED: [(usize, usize); 9] = [
    (3_357, 12_465),
    (2_114, 6_130),
    (770, 315),
    (806, 2_027),
    (585, 1_185),
    (266, 67),
    (288, 542),
    (235, 374),
    (127, 31),
];

/// Experiment 1's statistics (13 spatial predicates over 6 feature types,
/// 9 same-type pairs, 4 dependency pairs, one 4-valued non-spatial
/// attribute) with `ROWS` rows. `datagen` builds the spec inside
/// `experiment1` without returning it, so it is copied here; a test checks
/// the copy against `experiment1`.
pub fn spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        relations_per_type: vec![3, 3, 2, 2, 2, 1],
        nonspatial_values: 4,
        dependencies: vec![(0, 2), (1, 3), (2, 5), (3, 4)],
        rows: ROWS,
        seed,
        type_presence: 0.33,
        rel_given_present: 0.90,
        rel_noise: 0.04,
        dependency_strength: 0.40,
        core_patterns: vec![
            (vec![0, 1, 2, 6, 13], 0.20),
            (vec![3, 4, 5, 10, 14], 0.13),
            (vec![0, 1, 3, 4, 10, 11, 15], 0.07),
        ],
    }
}

/// The `C₂` filters each algorithm runs with: (dependencies, same type).
fn filters(experiment: &Experiment, algorithm: Algorithm) -> (PairFilter, PairFilter) {
    match algorithm {
        Algorithm::AprioriKc => (experiment.dependencies.clone(), PairFilter::none()),
        Algorithm::AprioriKcPlus => (
            experiment.dependencies.clone(),
            experiment.same_type.clone(),
        ),
        _ => (PairFilter::none(), PairFilter::none()),
    }
}

/// The sweep's nine (support, algorithm) runs in order.
fn sweep() -> impl Iterator<Item = (f64, Algorithm)> {
    SUPPORTS
        .into_iter()
        .flat_map(|s| ALGORITHMS.into_iter().map(move |a| (s, a)))
}

/// One mining run's result and its rule count.
type Run = (MiningResult, usize);

/// Runs the whole sweep through `MiningPipeline::run_filtered`. Returns
/// the results and the seconds spent inside `run_filtered`. The copy of
/// the table and filters each run consumes is made off the clock, and one
/// at a time, so neither the op's time nor its heap counts the harness's
/// copies.
fn sweep_once(
    experiment: &Experiment,
    threads: Threads,
    recorder: &Recorder,
) -> Result<(Vec<Run>, f64), String> {
    let mut out = Vec::with_capacity(9);
    let mut secs = 0.0;
    for (support, algorithm) in sweep() {
        let (dependencies, same_type) = filters(experiment, algorithm);
        let data = experiment.data.clone();
        let pipeline = MiningPipeline::new()
            .algorithm(algorithm)
            .min_support(MinSupport::Fraction(support))
            .min_confidence(MIN_CONFIDENCE)
            .counting(CountingStrategy::default())
            .threads(threads)
            .recorder(recorder.clone());
        let start = Instant::now();
        let report = pipeline
            .run_filtered(data, dependencies, same_type)
            .map_err(|e| format!("{} at {support}: {e}", algorithm.name()))?;
        secs += start.elapsed().as_secs_f64();
        out.push((report.result, report.rules.len()));
    }
    Ok((out, secs))
}

/// Output-shape figures derived from one sweep's results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claims {
    /// Share of Apriori's itemsets (size ≥ 2, all supports) KC+ prunes.
    pub kcp_pruned_frac: f64,
    /// Smallest measured gain / `minimal_gain` ratio over the supports.
    pub gain_over_bound: f64,
}

/// Checks the paper's claims on one support level's three results.
fn check_level(
    support: f64,
    plain: &MiningResult,
    kc: &MiningResult,
    kcp: &MiningResult,
    experiment: &Experiment,
) -> Result<(usize, usize, f64), String> {
    let all = plain.support_map();
    let kc_map = kc.support_map();
    for (sub, sup, name) in [
        (&kc_map, &all, "KC ⊆ Apriori"),
        (&kcp.support_map(), &kc_map, "KC+ ⊆ KC"),
    ] {
        if let Some((items, _)) = sub.iter().find(|(items, s)| sup.get(*items) != Some(s)) {
            return Err(format!("{name} fails at {support}: {items:?}"));
        }
    }
    let kept = kcp.support_map();
    let dependencies = &experiment.dependencies;
    let same_type = &experiment.same_type;
    if let Some(f) = plain.all().find(|f| {
        !kept.contains_key(&f.items)
            && !same_type.blocks_set(&f.items)
            && !dependencies.blocks_set(&f.items)
    }) {
        return Err(format!(
            "KC+ dropped {:?} at {support}, which holds no filtered pair",
            f.items
        ));
    }

    let gain = plain.num_frequent_min2() - kcp.num_frequent_min2();
    let bound = largest_itemset_bound(plain, &experiment.data.catalog);
    if (gain as u128) < bound {
        return Err(format!(
            "gain {gain} below minimal_gain {bound} at {support}"
        ));
    }
    let ratio = if bound > 0 {
        gain as f64 / bound as f64
    } else {
        f64::INFINITY
    };
    Ok((plain.num_frequent_min2(), gain, ratio))
}

/// Formula 1 for the largest frequent itemset: `t_k` relations of each
/// feature type it holds and `n` other items. Where several itemsets
/// share the largest size, the largest bound applies (each is a valid
/// lower bound on the gain).
fn largest_itemset_bound(result: &MiningResult, catalog: &ItemCatalog) -> u128 {
    let size = result.max_size();
    result
        .all()
        .filter(|f| f.len() == size && size > 0)
        .map(|f| {
            let mut per_type: BTreeMap<&str, u64> = BTreeMap::new();
            let mut other = 0u64;
            for &item in &f.items {
                match catalog.feature_type(item) {
                    Some(ty) => *per_type.entry(ty).or_default() += 1,
                    None => other += 1,
                }
            }
            minimal_gain(&per_type.into_values().collect::<Vec<_>>(), other)
        })
        .max()
        .unwrap_or(0)
}

/// Checks the claims over a whole sweep and returns its shape figures.
fn check_claims(results: &[Run], experiment: &Experiment) -> Result<Claims, String> {
    let (mut plain_total, mut pruned_total, mut worst) = (0usize, 0usize, f64::INFINITY);
    for (level, support) in results.chunks(3).zip(SUPPORTS) {
        let (plain, pruned, ratio) =
            check_level(support, &level[0].0, &level[1].0, &level[2].0, experiment)?;
        plain_total += plain;
        pruned_total += pruned;
        worst = worst.min(ratio);
    }
    Ok(Claims {
        kcp_pruned_frac: pruned_total as f64 / plain_total.max(1) as f64,
        gain_over_bound: if worst.is_finite() { worst } else { 0.0 },
    })
}

pub struct Fig5 {
    experiment: Experiment,
    seed: u64,
    expected: Vec<MinedOutput>,
    /// `PINNED` at the default seed.
    pinned: Option<[(usize, usize); 9]>,
}

impl Fig5 {
    /// Builds the workload from a generated experiment: runs the serial
    /// reference sweep and pins the default seed's counts.
    pub fn new(experiment: Experiment, seed: u64) -> Result<Fig5, String> {
        let (reference, _) = sweep_once(&experiment, Threads::Serial, &Recorder::disabled())?;
        let expected = reference
            .iter()
            .map(|(r, rules)| MinedOutput::new(r, *rules))
            .collect();
        Ok(Fig5 {
            experiment,
            seed,
            expected,
            pinned: (seed == 1).then_some(PINNED),
        })
    }

    /// Compares a sweep with the reference (and the pins), then checks
    /// the paper's claims on it.
    fn check(&self, results: &[Run]) -> Result<Claims, String> {
        equal("sweep runs", results.len(), self.expected.len())?;
        for (i, ((r, rules), e)) in results.iter().zip(&self.expected).enumerate() {
            let got = MinedOutput::new(r, *rules);
            let what = format!("sweep run {i}");
            e.check(&got, &what)?;
            if let Some(pinned) = &self.pinned {
                got.check_pinned(pinned[i].0, pinned[i].1, &what)?;
            }
        }
        check_claims(results, &self.experiment)
    }
}

impl Workload for Fig5 {
    fn rows_per_op(&self) -> usize {
        self.experiment.data.len()
    }

    fn ops_per_round(&self) -> usize {
        1
    }

    fn setup_rep(&self) -> Result<f64, String> {
        let start = Instant::now();
        let experiment = spec(self.seed).generate();
        let secs = start.elapsed().as_secs_f64();
        if experiment.data.transactions() != self.experiment.data.transactions() {
            return Err("regenerated transactions differ from the first set-up's".into());
        }
        Ok(secs)
    }

    fn op(&mut self, recorder: Recorder) -> Result<f64, String> {
        let (results, secs) = sweep_once(&self.experiment, THREADS, &recorder)?;
        self.check(&results)?;
        Ok(secs)
    }

    fn traced(&mut self) -> Result<LayerSample, String> {
        let mut sample = LayerSample::default();
        let mut counts = LayerCounts::default();
        let data = &self.experiment.data;
        let mut results = Vec::with_capacity(9);
        for (support, algorithm) in sweep() {
            let (dependencies, same_type) = filters(&self.experiment, algorithm);
            let minsup = MinSupport::Fraction(support);
            let config = match algorithm {
                Algorithm::AprioriKc => AprioriConfig::apriori_kc(minsup, dependencies),
                Algorithm::AprioriKcPlus => {
                    AprioriConfig::apriori_kc_plus(minsup, dependencies, same_type)
                }
                _ => AprioriConfig::apriori(minsup),
            }
            .with_counting(CountingStrategy::default())
            .with_threads(THREADS);
            let start = Instant::now();
            let result = try_mine(data, &config).map_err(|e| format!("try_mine: {e}"))?;
            sample.mine_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let rules = generate_rules(&result, data.len(), MIN_CONFIDENCE);
            sample.rules_s += start.elapsed().as_secs_f64();
            counts.mining_candidates +=
                result.stats.candidates_per_level.iter().sum::<usize>() as u64;
            counts.mining_frequent += result.stats.frequent_per_level.iter().sum::<usize>() as u64;
            counts.c2_removed_same_type += result.stats.pairs_removed_same_type as u64;
            results.push((result, rules.len()));
        }
        let claims = self.check(&results)?;
        counts.kcp_pruned_frac = claims.kcp_pruned_frac;
        counts.gain_over_bound = claims.gain_over_bound;
        sample.counts = counts;
        Ok(sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopattern::datagen::experiments::experiment1;
    use geopattern::mining::ItemId;

    fn small(seed: u64) -> Fig5 {
        let mut spec = spec(seed);
        spec.rows = 3_000;
        Fig5::new(spec.generate(), seed).expect("reference sweep")
    }

    #[test]
    fn sweep_verifies_and_the_claims_hold() {
        let mut fig5 = small(7);
        assert!(fig5.op(Recorder::disabled()).is_ok());
        let sample = fig5.traced().expect("traced iteration verifies");
        assert!(sample.counts.gain_over_bound >= 1.0);
        assert!(sample.counts.kcp_pruned_frac > 0.0);
        assert_eq!(sample.counts.c2_removed_same_type, 3 * 9);
        assert_eq!(sample.load_s + sample.extract_s + sample.legs.total(), 0.0);
    }

    #[test]
    fn spec_is_experiment1_with_more_rows() {
        for seed in [1, 7] {
            let ours = ExperimentSpec {
                rows: 600,
                ..spec(seed)
            }
            .generate();
            let paper = experiment1(seed);
            assert_eq!(ours.data.transactions(), paper.data.transactions());
            let catalog = &paper.data.catalog;
            let n = catalog.len();
            assert_eq!(ours.data.catalog.len(), n);
            for a in 0..n {
                let id = a as ItemId;
                assert_eq!(ours.data.catalog.label(id), catalog.label(id));
                assert_eq!(ours.data.catalog.feature_type(id), catalog.feature_type(id));
            }
            for (got, want) in [
                (&ours.dependencies, &paper.dependencies),
                (&ours.same_type, &paper.same_type),
            ] {
                assert_eq!(got.len(), want.len());
                for a in 0..n as ItemId {
                    for b in 0..n as ItemId {
                        assert_eq!(got.blocks(a, b), want.blocks(a, b));
                    }
                }
            }
        }
    }

    #[test]
    fn set_up_repeats_the_same_transactions() {
        let mut fig5 = small(7);
        assert!(fig5.setup_rep().is_err(), "small() shrinks the spec");
        fig5.seed = 8;
        fig5.experiment = spec(8).generate();
        assert!(fig5.setup_rep().is_ok());
    }

    #[test]
    fn corrupted_expected_output_fails_the_op() {
        let mut fig5 = small(7);
        fig5.expected[4].itemsets[0].1 += 1;
        assert!(fig5.op(Recorder::disabled()).is_err());
        let mut fig5 = small(7);
        fig5.expected[8].rules += 1;
        assert!(fig5.traced().is_err());
    }

    #[test]
    fn pinned_counts_apply_at_the_default_seed() {
        // 3,000 rows cannot reproduce the 60,000-row pins.
        assert!(small(1).op(Recorder::new()).is_err());
    }

    #[test]
    fn claims_reject_a_filter_that_drops_other_itemsets() {
        let fig5 = small(7);
        let (mut runs, _) =
            sweep_once(&fig5.experiment, Threads::Serial, &Recorder::disabled()).unwrap();
        assert!(check_claims(&runs, &fig5.experiment).is_ok());
        // KC+ at 5% replaced by KC+ at 15%: still a subset of KC, but it
        // drops itemsets that hold no filtered pair.
        runs[2] = runs[8].clone();
        let err = check_claims(&runs, &fig5.experiment).unwrap_err();
        assert!(err.contains("holds no filtered pair"), "{err}");
    }
}
