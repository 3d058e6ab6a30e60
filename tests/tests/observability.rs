//! The observability contract: attaching a `Recorder` must never change
//! mined output (any algorithm, any thread count), metrics counters must
//! be thread-count invariant, the staged `extract` → `encode` → `mine`
//! API must equal `run`, and invalid configurations must fail with the
//! documented errors instead of panicking or mining garbage.

use geopattern::{
    Algorithm, EncodedTransactions, Error, FeatureTypeTaxonomy, MiningPipeline, MinSupport,
    PairFilter, Recorder, SpatialDataset, Threads,
};
use geopattern_datagen::{default_knowledge, experiments, generate_city, CityConfig};
use geopattern_sdb::Layer;

const ALL_ALGORITHMS: [Algorithm; 7] = [
    Algorithm::Apriori,
    Algorithm::AprioriKc,
    Algorithm::AprioriKcPlus,
    Algorithm::FpGrowth,
    Algorithm::FpGrowthKcPlus,
    Algorithm::Eclat,
    Algorithm::EclatKcPlus,
];

fn city() -> SpatialDataset {
    generate_city(&CityConfig { grid: 6, seed: 11, ..Default::default() })
}

fn pipeline(alg: Algorithm, threads: Threads) -> MiningPipeline {
    MiningPipeline::new()
        .algorithm(alg)
        .min_support(MinSupport::Fraction(0.3))
        .knowledge(default_knowledge())
        .threads(threads)
}

fn sets(r: &geopattern::PatternReport) -> Vec<(Vec<u32>, u64)> {
    let mut v: Vec<_> = r.result.all().map(|f| (f.items.clone(), f.support)).collect();
    v.sort();
    v
}

/// Every algorithm, at 1, 2 and 8 threads: the instrumented run returns
/// exactly the itemsets and rules of the uninstrumented one. Extraction
/// is staged once per thread count so the matrix stays cheap; `mine`
/// re-runs per algorithm.
#[test]
fn instrumentation_never_changes_answers() {
    let ds = city();
    for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
        for alg in ALL_ALGORITHMS {
            let plain_pipe = pipeline(alg, threads);
            let encoded =
                plain_pipe.encode(plain_pipe.extract(&ds).unwrap()).unwrap();
            let plain = plain_pipe.mine(clone_encoded(&encoded)).unwrap();

            let rec_pipe = pipeline(alg, threads).recorder(Recorder::new());
            let encoded_rec =
                rec_pipe.encode(rec_pipe.extract(&ds).unwrap()).unwrap();
            let recorded = rec_pipe.mine(encoded_rec).unwrap();

            assert_eq!(sets(&plain), sets(&recorded), "{} at {threads:?}", alg.name());
            assert_eq!(
                plain.rendered_rules(),
                recorded.rendered_rules(),
                "{} at {threads:?}",
                alg.name()
            );
            assert!(plain.metrics().is_empty(), "uninstrumented run recorded metrics");
            assert!(recorded.metrics().span("mine").is_some(), "{}", alg.name());
            assert!(
                recorded.metrics().counter("mine.frequent_itemsets").is_some(),
                "{}",
                alg.name()
            );
        }
    }
}

fn clone_encoded(e: &EncodedTransactions) -> EncodedTransactions {
    EncodedTransactions {
        transactions: e.transactions.clone(),
        dependencies: e.dependencies.clone(),
        same_type: e.same_type.clone(),
        extraction_stats: e.extraction_stats,
    }
}

/// Counters and histograms are derived from the data, not the schedule:
/// a serial instrumented run and an 8-thread one agree on every counter.
/// (Span *timings* differ, but the set of span paths matches too.)
#[test]
fn metrics_counters_are_thread_count_invariant() {
    let ds = city();
    let run = |threads| {
        pipeline(Algorithm::AprioriKcPlus, threads)
            .recorder(Recorder::new())
            .run(&ds)
            .unwrap()
    };
    let serial = run(Threads::Serial);
    let parallel = run(Threads::Fixed(8));

    let counters = |r: &geopattern::PatternReport| -> Vec<(String, u64)> {
        r.metrics().counters().map(|(k, v)| (k.to_string(), v)).collect()
    };
    assert_eq!(counters(&serial), counters(&parallel));
    assert!(!counters(&serial).is_empty());

    let span_paths = |r: &geopattern::PatternReport| -> Vec<String> {
        r.metrics().spans().map(|(k, _)| k.to_string()).collect()
    };
    assert_eq!(span_paths(&serial), span_paths(&parallel));
}

/// The thin `run()` composition equals driving the stages by hand, and
/// the spans of an instrumented full run nest as documented.
#[test]
fn staged_api_matches_run() {
    let ds = city();
    let pipe = pipeline(Algorithm::AprioriKcPlus, Threads::Serial);
    let composed = pipe.run(&ds).unwrap();
    let staged = pipe.mine(pipe.encode(pipe.extract(&ds).unwrap()).unwrap()).unwrap();
    assert_eq!(sets(&composed), sets(&staged));
    assert_eq!(composed.rendered_rules(), staged.rendered_rules());
    assert_eq!(composed.extraction_stats, staged.extraction_stats);

    let recorded = pipeline(Algorithm::AprioriKcPlus, Threads::Serial)
        .recorder(Recorder::new())
        .run(&ds)
        .unwrap();
    let m = recorded.metrics();
    for span in ["extract", "encode", "mine", "mine/apriori", "rules"] {
        assert!(m.span(span).is_some(), "missing span {span:?}: {}", m.to_json());
    }
    assert_eq!(
        m.counter("encode.transactions"),
        Some(recorded.transactions.len() as u64)
    );
}

/// Figure 4's shape survives the staged API: mining pre-encoded
/// Experiment 1 transactions through `mine()` keeps the
/// KC+ < KC < Apriori ordering and the paper's reduction bands.
#[test]
fn figure4_shape_under_staged_api() {
    let e = experiments::experiment1(32);
    let mine = |alg: Algorithm| {
        let pipe = MiningPipeline::new()
            .algorithm(alg)
            .min_support(MinSupport::Fraction(0.10));
        pipe.mine(EncodedTransactions {
            transactions: e.data.clone(),
            dependencies: e.dependencies.clone(),
            same_type: e.same_type.clone(),
            extraction_stats: None,
        })
        .unwrap()
        .result
        .num_frequent_min2()
    };
    let plain = mine(Algorithm::Apriori);
    let kc = mine(Algorithm::AprioriKc);
    let kcp = mine(Algorithm::AprioriKcPlus);
    assert!(kcp < kc && kc < plain, "ordering: {plain} / {kc} / {kcp}");
    let kc_red = 1.0 - kc as f64 / plain as f64;
    let kcp_red = 1.0 - kcp as f64 / plain as f64;
    assert!((0.15..=0.45).contains(&kc_red), "KC reduction {:.1}%", kc_red * 100.0);
    assert!(kcp_red > 0.60, "KC+ reduction {:.1}%", kcp_red * 100.0);
}

/// Figure 6's shape too: on Experiment 2 the same-type filter alone
/// removes more than 55% at every printed minsup.
#[test]
fn figure6_shape_under_staged_api() {
    let e = experiments::experiment2(32);
    for pct in [5, 11, 17] {
        let mine = |alg: Algorithm| {
            MiningPipeline::new()
                .algorithm(alg)
                .min_support(MinSupport::Fraction(pct as f64 / 100.0))
                .mine(EncodedTransactions {
                    transactions: e.data.clone(),
                    dependencies: PairFilter::none(),
                    same_type: e.same_type.clone(),
                    extraction_stats: None,
                })
                .unwrap()
                .result
                .num_frequent_min2()
        };
        let plain = mine(Algorithm::Apriori);
        let kcp = mine(Algorithm::AprioriKcPlus);
        let red = 1.0 - kcp as f64 / plain as f64;
        assert!(red > 0.55, "KC+ reduction at {pct}%: {:.1}%", red * 100.0);
    }
}

#[test]
fn invalid_configurations_surface_typed_errors() {
    let ds = city();

    let err = MiningPipeline::new().min_confidence(1.5).run(&ds).unwrap_err();
    assert!(matches!(err, Error::InvalidMinConfidence(_)), "{err}");
    assert_eq!(err.exit_code(), 2);

    let err = MiningPipeline::new()
        .min_support(MinSupport::Fraction(0.0))
        .run(&ds)
        .unwrap_err();
    assert!(matches!(err, Error::InvalidMinSupport(_)), "{err}");
    assert_eq!(err.exit_code(), 2);

    // A taxonomy of depth 1 cannot generalise two levels.
    let mut taxonomy = FeatureTypeTaxonomy::new();
    taxonomy.add_is_a("slum", "builtArea").unwrap();
    let err = MiningPipeline::new().granularity(taxonomy, 2).run(&ds).unwrap_err();
    assert!(
        matches!(err, Error::TaxonomyTooDeep { levels: 2, max_depth: 1 }),
        "{err}"
    );
    assert_eq!(err.exit_code(), 2);

    let empty = SpatialDataset::new(Layer::new("district", Vec::new()), Vec::new());
    let err = MiningPipeline::new().run(&empty).unwrap_err();
    assert!(matches!(err, Error::EmptyReferenceLayer), "{err}");
    assert_eq!(err.exit_code(), 3);

    // Errors are detected before extraction: an invalid threshold beats
    // the empty dataset in `run`'s validation order and costs no geometry.
    let err = MiningPipeline::new().min_confidence(f64::NAN).run(&empty).unwrap_err();
    assert!(matches!(err, Error::InvalidMinConfidence(_)), "{err}");
}
