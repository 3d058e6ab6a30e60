//! Counting-strategy equivalence on the paper's experiment datasets.
//!
//! Every support-counting backend — `prefix-trie`, the vertical `bitmap`
//! engine, and `eclat` — must produce bit-identical frequent itemsets,
//! supports, and association rules on the Figure-5 (Experiment 1) and
//! Figure-7 (Experiment 2) datasets, at 1/2/8 threads, with and without
//! KC+ filtering, and the vertical strategy must honour cancellation and
//! memory-budget tracking without changing output.
//!
//! The CI host may be single-core, which would clamp every "parallel"
//! run to the serial path; the tests widen the reported host via
//! `GEOPATTERN_HOST_PARALLELISM` so the pool genuinely runs.

use geopattern_datagen::experiments::{experiment1, experiment2, Experiment};
use geopattern_mining::{
    generate_rules, mine, mine_eclat, try_mine, AprioriConfig, CountingStrategy, EclatConfig,
    MiningResult, PairFilter,
};
use geopattern::Recorder;
use geopattern_par::{CancelToken, Interrupt, MemoryBudget, Threads};

/// Every test sets the same widened host width, so concurrent setters
/// never race on distinct values.
fn wide_host() {
    std::env::set_var("GEOPATTERN_HOST_PARALLELISM", "8");
}

const STRATEGIES: [CountingStrategy; 2] =
    [CountingStrategy::PrefixTrie, CountingStrategy::VerticalBitmap];

fn config(e: &Experiment, sup: f64, filtered: bool) -> AprioriConfig {
    let minsup = geopattern_mining::MinSupport::Fraction(sup);
    if filtered {
        AprioriConfig::apriori_kc_plus(minsup, e.dependencies.clone(), e.same_type.clone())
    } else {
        AprioriConfig::apriori(minsup)
    }
}

/// Order-insensitive view for comparing against Eclat, whose traversal
/// order differs from Apriori's.
fn sets(r: &MiningResult) -> Vec<(Vec<u32>, u64)> {
    let mut v: Vec<_> = r.all().map(|f| (f.items.clone(), f.support)).collect();
    v.sort();
    v
}

/// Itemsets, supports, and rules must be identical across every
/// strategy, thread count, and filter setting — the Apriori backends
/// level-for-level (same order), Eclat as a sorted set.
#[test]
fn all_strategies_identical_on_fig5_and_fig7() {
    wide_host();
    for (e, sup) in [(experiment1(32), 0.10), (experiment2(32), 0.08)] {
        for filtered in [false, true] {
            let reference = mine(&e.data, &config(&e, sup, filtered));
            let ref_rules = generate_rules(&reference, e.data.len(), 0.7);
            assert!(
                reference.num_frequent_min2() > 0,
                "workload should mine something (filtered={filtered})"
            );

            for strategy in STRATEGIES {
                for threads in [Threads::Fixed(1), Threads::Fixed(2), Threads::Fixed(8)] {
                    let got = mine(
                        &e.data,
                        &config(&e, sup, filtered).with_counting(strategy).with_threads(threads),
                    );
                    assert_eq!(
                        got.levels,
                        reference.levels,
                        "{} at {threads:?} filtered={filtered}",
                        strategy.name()
                    );
                    let rules = generate_rules(&got, e.data.len(), 0.7);
                    assert_eq!(rules, ref_rules, "{} rules differ", strategy.name());
                }
            }

            // Eclat applies the same combined filter to its own traversal.
            let filter = if filtered {
                e.dependencies.clone().union(&e.same_type)
            } else {
                PairFilter::none()
            };
            for threads in [Threads::Fixed(1), Threads::Fixed(2), Threads::Fixed(8)] {
                let ecl = mine_eclat(
                    &e.data,
                    &EclatConfig::new(geopattern_mining::MinSupport::Fraction(sup))
                        .with_filter(filter.clone())
                        .with_threads(threads),
                );
                assert_eq!(sets(&ecl), sets(&reference), "eclat at {threads:?}");
            }
        }
    }
}

/// A pre-cancelled token interrupts the vertical engine before any
/// output is produced, exactly like the horizontal one.
#[test]
fn vertical_strategies_honour_cancellation() {
    wide_host();
    let e = experiment1(32);
    let token = CancelToken::new();
    token.cancel();
    let got = try_mine(
        &e.data,
        &config(&e, 0.10, true)
            .with_counting(CountingStrategy::VerticalBitmap)
            .with_threads(Threads::Fixed(8))
            .with_cancel(token),
    );
    assert!(matches!(got, Err(Interrupt::Cancelled)), "bitmap should cancel, got {got:?}");
}

/// Memory budgets are *tracked* by the vertical engine (feeding the
/// peak watermark) but never alter its output: a one-byte budget still
/// mines the exact reference result.
#[test]
fn vertical_strategies_identical_under_tight_budget() {
    wide_host();
    let e = experiment2(32);
    let reference = mine(&e.data, &config(&e, 0.08, true));
    for budget in [MemoryBudget::unlimited(), MemoryBudget::bytes(1)] {
        let got = try_mine(
            &e.data,
            &config(&e, 0.08, true)
                .with_counting(CountingStrategy::VerticalBitmap)
                .with_threads(Threads::Fixed(8))
                .with_budget(budget),
        )
        .expect("the vertical strategy never degrades under budget");
        assert_eq!(got.levels, reference.levels);
    }
}

/// Instrumented runs expose the vertical-engine metrics, and the
/// C₂-filter counter agrees with the stats the result itself reports.
#[test]
fn vertical_metrics_are_recorded() {
    wide_host();
    let e = experiment1(32);
    let recorder = Recorder::new();
    let got = mine(
        &e.data,
        &config(&e, 0.10, true)
            .with_counting(CountingStrategy::VerticalBitmap)
            .with_recorder(recorder.clone()),
    );
    let metrics = recorder.snapshot();
    let recorded = metrics.counter("mining/bitmap_words");
    assert!(recorded.is_some_and(|v| v > 0), "mining/bitmap_words missing or zero: {recorded:?}");
    let filtered = metrics.counter("mining/c2_pairs_filtered").unwrap_or(0);
    assert_eq!(
        filtered,
        (got.stats.pairs_removed_dependencies + got.stats.pairs_removed_same_type) as u64
    );
}

/// Below pass 2 the vertical engine counts DFS join attempts, not
/// `apriori_gen` candidates, and records them under their own name: a
/// `bitmap` run emits no `apriori.pass3.candidates`, and its
/// `apriori.pass3.joins` bounds the trie's `apriori_gen` count from above
/// (every generated 3-candidate is one join of two frequent pairs).
#[test]
fn vertical_level3_records_joins_not_candidates() {
    wide_host();
    let e = experiment1(32);
    let pass3 = |strategy: CountingStrategy| {
        let recorder = Recorder::new();
        let config = config(&e, 0.05, false).with_counting(strategy);
        mine(&e.data, &config.with_recorder(recorder.clone()));
        recorder.snapshot()
    };
    let trie = pass3(CountingStrategy::PrefixTrie);
    let bitmap = pass3(CountingStrategy::VerticalBitmap);
    let candidates = trie.counter("apriori.pass3.candidates").expect("trie reaches pass 3");
    assert!(candidates > 0);
    assert_eq!(bitmap.counter("apriori.pass3.candidates"), None);
    let joins = bitmap.counter("apriori.pass3.joins").expect("bitmap records pass-3 joins");
    assert!(joins >= candidates, "joins {joins} < apriori_gen candidates {candidates}");
    assert_eq!(
        bitmap.counter("apriori.pass3.frequent"),
        trie.counter("apriori.pass3.frequent")
    );
}
