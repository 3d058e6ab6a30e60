//! Deterministic fault-injection suite: every fail-point site in the
//! pipeline is exercised under a fixed seed, and each injected fault
//! surfaces as its documented typed error — never a crash, never a hang,
//! never partial output reported as success.
//!
//! The fail-point registry is process-global, so every test serialises on
//! one mutex and cleans the registry up before and after itself.
//!
//! Two kinds of site exist:
//! * **pool-closure sites** (`sdb/extract.row`, `mining/apriori.count`,
//!   `mining/eclat.class`) run inside a worker closure the pool wraps in
//!   `catch_unwind` — both `Cancel` and `Panic` actions are safe;
//! * **sequential sites** (`core/encode`, `mining/*.pass`,
//!   `mining/fpgrowth.grow`) run on the caller's stack — tests use the
//!   `Cancel` action there (a panic would unwind through the test).

use geopattern::{
    Algorithm, CancelToken, Error, MiningPipeline, MinSupport, Threads,
};
use geopattern_datagen::{experiments, generate_city, CityConfig};
use geopattern_testkit::failpoint::{self, FailAction};
use std::sync::Mutex;

/// Serialises all tests in this file: the registry is process-global.
static GATE: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let guard = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    failpoint::deactivate_all();
    guard
}

fn city_pipeline(algorithm: Algorithm) -> (MiningPipeline, geopattern::SpatialDataset) {
    let dataset = generate_city(&CityConfig { grid: 4, seed: 9, ..Default::default() });
    let pipeline = MiningPipeline::new()
        .algorithm(algorithm)
        .min_support(MinSupport::Fraction(0.3))
        .cancel_token(CancelToken::new());
    (pipeline, dataset)
}

/// Runs `algorithm` over Experiment 1 transactions with an armed token.
fn mine_experiment(algorithm: Algorithm) -> Result<geopattern::PatternReport, Error> {
    let e = experiments::experiment1(32);
    MiningPipeline::new()
        .algorithm(algorithm)
        .min_support(MinSupport::Fraction(0.15))
        .cancel_token(CancelToken::new())
        .run_filtered(e.data, e.dependencies, e.same_type)
}

/// Asserts `site` fired at least once and the run was cancelled by it.
fn assert_cancelled(site: &str, err: Error) {
    assert_eq!(err, Error::Cancelled, "site {site}");
    let (hits, fired) = failpoint::stats(site).unwrap_or_else(|| panic!("{site} never armed"));
    assert!(hits >= 1, "{site}: no hits");
    assert!(fired >= 1, "{site}: never fired");
}

#[test]
fn extract_row_site_cancels_extraction() {
    let _g = locked();
    failpoint::activate("sdb/extract.row", FailAction::Cancel, 1.0, 7);
    let (pipeline, dataset) = city_pipeline(Algorithm::AprioriKcPlus);
    let err = pipeline.run(&dataset).unwrap_err();
    assert_cancelled("sdb/extract.row", err);
    failpoint::deactivate_all();
}

#[test]
fn extract_row_site_panic_is_isolated_by_the_pool() {
    let _g = locked();
    failpoint::activate("sdb/extract.row", FailAction::Panic, 1.0, 7);
    let (pipeline, dataset) = city_pipeline(Algorithm::AprioriKcPlus);
    let pipeline = pipeline.threads(Threads::Fixed(4));
    let err = pipeline.run(&dataset).unwrap_err();
    match err {
        Error::WorkerPanic { stage, message } => {
            assert_eq!(stage, "extract/rows");
            assert!(message.contains("sdb/extract.row"), "payload: {message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    failpoint::deactivate_all();
    // The pool drained cleanly: the very same workload succeeds now.
    let (pipeline, dataset) = city_pipeline(Algorithm::AprioriKcPlus);
    pipeline.threads(Threads::Fixed(4)).run(&dataset).expect("pool reusable after panic");
}

#[test]
fn encode_site_cancels_between_stages() {
    let _g = locked();
    failpoint::activate("core/encode", FailAction::Cancel, 1.0, 7);
    let (pipeline, dataset) = city_pipeline(Algorithm::AprioriKcPlus);
    let err = pipeline.run(&dataset).unwrap_err();
    assert_cancelled("core/encode", err);
    failpoint::deactivate_all();
}

#[test]
fn apriori_pass_site_cancels_mining() {
    let _g = locked();
    failpoint::activate("mining/apriori.pass", FailAction::Cancel, 1.0, 7);
    let err = mine_experiment(Algorithm::Apriori).unwrap_err();
    assert_cancelled("mining/apriori.pass", err);
    failpoint::deactivate_all();
}

#[test]
fn apriori_count_site_panics_inside_the_counting_pool() {
    let _g = locked();
    failpoint::activate("mining/apriori.count", FailAction::Panic, 1.0, 42);
    let err = mine_experiment(Algorithm::Apriori).unwrap_err();
    match err {
        Error::WorkerPanic { stage, message } => {
            assert_eq!(stage, "mining/apriori.count");
            assert!(message.contains("mining/apriori.count"), "payload: {message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    failpoint::deactivate_all();
}

#[test]
fn eclat_class_site_cancels_mining() {
    let _g = locked();
    failpoint::activate("mining/eclat.class", FailAction::Cancel, 1.0, 7);
    let err = mine_experiment(Algorithm::EclatKcPlus).unwrap_err();
    assert_cancelled("mining/eclat.class", err);
    failpoint::deactivate_all();
}

#[test]
fn fpgrowth_grow_site_cancels_mining() {
    let _g = locked();
    failpoint::activate("mining/fpgrowth.grow", FailAction::Cancel, 1.0, 7);
    let err = mine_experiment(Algorithm::FpGrowthKcPlus).unwrap_err();
    assert_cancelled("mining/fpgrowth.grow", err);
    failpoint::deactivate_all();
}

#[test]
fn sub_unit_probability_is_deterministic_under_a_fixed_seed() {
    let _g = locked();
    // Same seed, same sequential site → the same hit/fire sequence every
    // time, so two identical runs end in exactly the same state.
    let outcome = |seed| {
        failpoint::activate("mining/apriori.pass", FailAction::Cancel, 0.4, seed);
        let result = mine_experiment(Algorithm::Apriori).map(|_| ()).map_err(|e| e.exit_code());
        let stats = failpoint::stats("mining/apriori.pass").unwrap();
        failpoint::deactivate_all();
        (result, stats)
    };
    let (first_result, first_stats) = outcome(1234);
    let (second_result, second_stats) = outcome(1234);
    assert_eq!(first_result, second_result);
    assert_eq!(first_stats, second_stats);
}

#[test]
fn disarmed_sites_change_nothing() {
    let _g = locked();
    // With no fail points armed (and no token), a controlled run is
    // identical to a plain one.
    let e = experiments::experiment1(32);
    let plain = MiningPipeline::new()
        .min_support(MinSupport::Fraction(0.15))
        .run_filtered(e.data, e.dependencies, e.same_type)
        .unwrap();
    let controlled = mine_experiment(Algorithm::AprioriKcPlus).unwrap();
    let sets = |r: &geopattern::PatternReport| {
        let mut v: Vec<_> = r.result.all().map(|f| (f.items.clone(), f.support)).collect();
        v.sort();
        v
    };
    assert_eq!(sets(&plain), sets(&controlled));
}
