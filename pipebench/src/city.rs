//! The two geometric workloads.
//!
//! * `city-topo`: the grid-150 synthetic city as `.gpb`, topological
//!   extraction, Apriori-KC+ — the configuration `geopattern mine` builds
//!   by default.
//! * `city-near`: grid-60 cities as WKT text, topological extraction plus
//!   two bounded distance bands (0.6 and 1.5 cells), tiled 4 × 4, then
//!   Apriori-KC+. Successive ops rotate through four cities.
//!
//! One op runs `load → extract → encode → mine → rules` on one city, from
//! input bytes held in memory, through the library's public calls only.

use crate::check::{equal, MinedOutput};
use crate::layers::{LayerCounts, LayerSample, LegTimes};
use crate::Workload;
use geopattern::datagen::{generate_city, CityConfig};
use geopattern::geom::{take_kernel_counters, PreparedGeometry};
use geopattern::mining::{generate_rules, try_mine, AprioriConfig};
use geopattern::qsr::{classify, DistanceScheme, TopologicalRelation};
use geopattern::{
    from_gpb, to_gpb, Algorithm, CountingStrategy, ExtractedTable, ExtractionConfig,
    ExtractionStats, KnowledgeBase, MinSupport, MiningPipeline, Predicate, Recorder,
    SpatialDataset, Threads, Tiling,
};
use std::time::Instant;

const MIN_SUPPORT: f64 = 0.3;
const MIN_CONFIDENCE: f64 = 0.7;
/// Worker threads of every timed op (the benchmark host has two cores).
const THREADS: Threads = Threads::Fixed(2);

/// How the input bytes encode the city.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Gpb,
    Wkt,
}

/// One city's output counts; pinned for the default seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub candidate_pairs: usize,
    pub itemsets: usize,
    pub rules: usize,
}

/// A city workload definition.
#[derive(Debug, Clone, Copy)]
pub struct CitySpec {
    pub grid: usize,
    /// Cities the ops rotate through. Mining cost swings with the city's
    /// seed (up to ±15% on one grid-60 city), so `city-near`'s op times
    /// mix four cities evenly.
    pub cities: u64,
    pub format: Format,
    /// Adds the two bounded distance bands and 4 × 4 tiling.
    pub near: bool,
    /// Each city's `Totals` at seed 1.
    pub pinned: &'static [Totals],
}

pub const CITY_TOPO: CitySpec = CitySpec {
    grid: 150,
    cities: 1,
    format: Format::Gpb,
    near: false,
    pinned: &[Totals {
        candidate_pairs: 163_627,
        itemsets: 125,
        rules: 403,
    }],
};

pub const CITY_NEAR: CitySpec = CitySpec {
    grid: 60,
    cities: 4,
    format: Format::Wkt,
    near: true,
    pinned: &[
        Totals {
            candidate_pairs: 320_686,
            itemsets: 2_849,
            rules: 21_676,
        },
        Totals {
            candidate_pairs: 321_345,
            itemsets: 2_849,
            rules: 21_721,
        },
        Totals {
            candidate_pairs: 320_980,
            itemsets: 2_849,
            rules: 22_081,
        },
        Totals {
            candidate_pairs: 322_831,
            itemsets: 3_059,
            rules: 22_726,
        },
    ],
};

impl CitySpec {
    /// The extraction configuration. Distance bands are in district
    /// cells.
    pub fn extraction(&self) -> ExtractionConfig {
        let config = ExtractionConfig::default();
        if !self.near {
            return config;
        }
        let cell = CityConfig::default().cell;
        let bands = DistanceScheme::new(vec![("veryCloseTo", 0.6 * cell), ("closeTo", 1.5 * cell)])
            .expect("two increasing bounded bands are a valid scheme");
        config
            .with_distance(bands)
            .with_tiling(Tiling::Grid { tiles_per_axis: 4 })
    }

    /// The pipeline `geopattern mine` builds for this workload.
    pub fn pipeline(&self, threads: Threads, recorder: Recorder) -> MiningPipeline {
        MiningPipeline::new()
            .algorithm(Algorithm::AprioriKcPlus)
            .min_support(MinSupport::Fraction(MIN_SUPPORT))
            .min_confidence(MIN_CONFIDENCE)
            .knowledge(KnowledgeBase::new())
            .counting(CountingStrategy::default())
            .extraction(self.extraction())
            .threads(threads)
            .recorder(recorder)
    }

    /// Generates and serialises the cities for `seed`: city `i` uses
    /// generator seed `seed × cities + i`, so a one-city workload keeps
    /// the benchmark seed as the generator seed.
    pub fn generate(&self, seed: u64) -> Vec<Vec<u8>> {
        (0..self.cities)
            .map(|i| {
                let config = CityConfig {
                    grid: self.grid,
                    seed: seed.wrapping_mul(self.cities).wrapping_add(i),
                    ..CityConfig::default()
                };
                let dataset = generate_city(&config);
                match self.format {
                    Format::Gpb => to_gpb(&dataset),
                    Format::Wkt => dataset.to_text().into_bytes(),
                }
            })
            .collect()
    }

    /// Decodes or parses the input bytes, as `geopattern mine` does.
    pub fn load(&self, bytes: &[u8]) -> Result<SpatialDataset, String> {
        match self.format {
            Format::Gpb => from_gpb(bytes).map_err(|e| format!("gpb decode: {e}")),
            Format::Wkt => {
                let text = std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
                SpatialDataset::from_text(text).map_err(|e| format!("WKT parse: {e}"))
            }
        }
    }
}

/// One city's serial reference output, which every op must reproduce.
#[derive(Debug, Clone)]
pub struct Expected {
    pub predicates: Vec<Predicate>,
    pub rows: Vec<(String, Vec<u32>)>,
    pub stats: ExtractionStats,
    pub mined: MinedOutput,
}

impl Expected {
    pub fn check_table(&self, got: &ExtractedTable) -> Result<(), String> {
        equal("extraction stats", got.stats, self.stats)?;
        if got.table.predicates() != self.predicates.as_slice() {
            return Err("predicate dictionary differs from the serial reference".into());
        }
        if got.table.rows() != self.rows.as_slice() {
            return Err("predicate table rows differ from the serial reference".into());
        }
        Ok(())
    }
}

/// One city of a workload: its input bytes and reference output.
struct Input {
    bytes: Vec<u8>,
    expected: Expected,
}

/// A set-up city workload.
pub struct City {
    spec: CitySpec,
    seed: u64,
    inputs: Vec<Input>,
    /// `spec.pinned` at the default seed.
    pinned: Option<&'static [Totals]>,
    /// The input the next op runs on, modulo the number of inputs.
    next: usize,
}

impl City {
    /// Builds the workload from already generated input bytes: runs the
    /// serial reference on each city, and pins the default seed's counts.
    pub fn new(spec: CitySpec, seed: u64, cities: Vec<Vec<u8>>) -> Result<City, String> {
        let serial = spec.pipeline(Threads::Serial, Recorder::disabled());
        let inputs = cities
            .into_iter()
            .map(|bytes| {
                let dataset = spec.load(&bytes)?;
                let extracted = serial
                    .extract(&dataset)
                    .map_err(|e| format!("reference extract: {e}"))?;
                let (predicates, rows) = (
                    extracted.table.predicates().to_vec(),
                    extracted.table.rows().to_vec(),
                );
                let stats = extracted.stats;
                let encoded = serial
                    .encode(extracted)
                    .map_err(|e| format!("reference encode: {e}"))?;
                let report = serial
                    .mine(encoded)
                    .map_err(|e| format!("reference mine: {e}"))?;
                let mined = MinedOutput::new(&report.result, report.rules.len());
                let expected = Expected {
                    predicates,
                    rows,
                    stats,
                    mined,
                };
                Ok(Input { bytes, expected })
            })
            .collect::<Result<_, String>>()?;
        Ok(City {
            spec,
            seed,
            inputs,
            pinned: (seed == 1).then_some(spec.pinned),
            next: 0,
        })
    }

    /// Checks input `i`'s counts against its pins at the default seed.
    fn check_pinned(&self, i: usize, mined: &MinedOutput) -> Result<(), String> {
        let Some(pinned) = self.pinned else {
            return Ok(());
        };
        let got = Totals {
            candidate_pairs: self.inputs[i].expected.stats.candidate_pairs,
            itemsets: mined.itemsets.len(),
            rules: mined.rules,
        };
        equal(&format!("city {i} counts at seed 1"), got, pinned[i])
    }
}

impl Workload for City {
    fn rows_per_op(&self) -> usize {
        let rows: usize = self
            .inputs
            .iter()
            .map(|input| input.expected.rows.len())
            .sum();
        rows / self.inputs.len()
    }

    fn ops_per_round(&self) -> usize {
        self.inputs.len()
    }

    fn setup_rep(&self) -> Result<f64, String> {
        let start = Instant::now();
        let cities = self.spec.generate(self.seed);
        let secs = start.elapsed().as_secs_f64();
        if !cities
            .iter()
            .eq(self.inputs.iter().map(|input| &input.bytes))
        {
            return Err("regenerated input bytes differ from the first set-up's".into());
        }
        Ok(secs)
    }

    /// Runs on the next city in rotation. Verification runs outside the
    /// timed region.
    fn op(&mut self, recorder: Recorder) -> Result<f64, String> {
        let i = self.next % self.inputs.len();
        self.next += 1;
        let input = &self.inputs[i];
        let pipeline = self.spec.pipeline(THREADS, recorder);
        let start = Instant::now();
        let dataset = self.spec.load(&input.bytes)?;
        let extracted = pipeline
            .extract(&dataset)
            .map_err(|e| format!("extract: {e}"))?;
        let first_leg = start.elapsed();
        drop(dataset);
        input.expected.check_table(&extracted)?;

        let resume = Instant::now();
        let encoded = pipeline
            .encode(extracted)
            .map_err(|e| format!("encode: {e}"))?;
        let report = pipeline.mine(encoded).map_err(|e| format!("mine: {e}"))?;
        let secs = (first_leg + resume.elapsed()).as_secs_f64();
        let mined = MinedOutput::new(&report.result, report.rules.len());
        input.expected.mined.check(&mined, "pipeline")?;
        self.check_pinned(i, &mined)?;
        Ok(secs)
    }

    fn traced(&mut self) -> Result<LayerSample, String> {
        let pipeline = self.spec.pipeline(THREADS, Recorder::disabled());
        let serial = self.spec.pipeline(Threads::Serial, Recorder::disabled());
        let mut sample = LayerSample::default();
        let mut counts = LayerCounts::default();
        for (i, input) in self.inputs.iter().enumerate() {
            sample.input_mb += input.bytes.len() as f64 / (1024.0 * 1024.0);
            let start = Instant::now();
            let dataset = self.spec.load(&input.bytes)?;
            sample.load_s += start.elapsed().as_secs_f64();

            let start = Instant::now();
            let extracted = pipeline
                .extract(&dataset)
                .map_err(|e| format!("extract: {e}"))?;
            sample.extract_s += start.elapsed().as_secs_f64();
            input.expected.check_table(&extracted)?;

            let start = Instant::now();
            let serial_extracted = serial
                .extract(&dataset)
                .map_err(|e| format!("serial extract: {e}"))?;
            sample.extract_serial_s += start.elapsed().as_secs_f64();
            input.expected.check_table(&serial_extracted)?;
            drop(serial_extracted);

            let start = Instant::now();
            let encoded = pipeline
                .encode(extracted)
                .map_err(|e| format!("encode: {e}"))?;
            sample.encode_s += start.elapsed().as_secs_f64();

            // The miner and rule generator the pipeline's `mine` stage
            // runs, called directly so each gets its own time.
            let transactions = encoded.transactions;
            let config = AprioriConfig::apriori_kc_plus(
                MinSupport::Fraction(MIN_SUPPORT),
                encoded.dependencies,
                encoded.same_type,
            )
            .with_counting(CountingStrategy::default())
            .with_threads(THREADS);
            let start = Instant::now();
            let result = try_mine(&transactions, &config).map_err(|e| format!("try_mine: {e}"))?;
            sample.mine_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let rules = generate_rules(&result, transactions.len(), MIN_CONFIDENCE);
            sample.rules_s += start.elapsed().as_secs_f64();
            let mined = MinedOutput::new(&result, rules.len());
            input.expected.mined.check(&mined, "try_mine")?;
            self.check_pinned(i, &mined)?;

            let stats = replay(
                &dataset,
                &self.spec.extraction(),
                &mut sample.legs,
                &mut counts,
            )?;
            equal("leg replay stats", stats, input.expected.stats)?;
            counts.mining_candidates +=
                result.stats.candidates_per_level.iter().sum::<usize>() as u64;
            counts.mining_frequent += result.stats.frequent_per_level.iter().sum::<usize>() as u64;
            counts.c2_removed_same_type += result.stats.pairs_removed_same_type as u64;
        }
        sample.counts = counts;
        Ok(sample)
    }
}

/// Replays, single-threaded, the per-pair calls `extract_row` makes for a
/// flat extraction with `config`, timing each public function as one leg:
/// `PreparedGeometry::new`, the R-tree queries, `relate_to`, `classify`
/// (topological relations and distance bands) and `distance_within`.
/// Each leg is timed once per (reference feature, layer), around the whole
/// batch of that leg's calls, so the clock costs little next to the work.
///
/// Adds the leg times to `legs` and the call and kernel counts to
/// `counts`, and returns the `ExtractionStats` the replayed calls imply,
/// which must equal the real run's: that proves the replay timed the same
/// work.
pub fn replay(
    dataset: &SpatialDataset,
    config: &ExtractionConfig,
    legs: &mut LegTimes,
    counts: &mut LayerCounts,
) -> Result<ExtractionStats, String> {
    if config.direction {
        return Err("the leg replay does not cover direction predicates".into());
    }
    let window = config
        .distance
        .as_ref()
        .and_then(DistanceScheme::largest_bounded);
    let cutoff = window.unwrap_or(f64::INFINITY);
    let relevant = dataset.relevant_refs();
    let mut stats = ExtractionStats::default();
    let _ = take_kernel_counters();

    let start = Instant::now();
    let prepared: Vec<Vec<PreparedGeometry>> = relevant
        .iter()
        .map(|layer| {
            layer
                .features()
                .iter()
                .map(|f| PreparedGeometry::new(f.geometry.clone()))
                .collect()
        })
        .collect();
    legs.prepare_s += start.elapsed().as_secs_f64();
    let dims: Vec<Vec<_>> = relevant
        .iter()
        .map(|layer| {
            layer
                .features()
                .iter()
                .map(|f| f.geometry.dimension())
                .collect()
        })
        .collect();

    let mut matrices = Vec::new();
    let mut distances = Vec::new();
    for reference in dataset.reference.features() {
        let start = Instant::now();
        let prep_ref = PreparedGeometry::new(reference.geometry.clone());
        legs.prepare_s += start.elapsed().as_secs_f64();
        let ref_dim = reference.geometry.dimension();
        let envelope = reference.envelope();

        for (li, layer) in relevant.iter().enumerate() {
            if config.topological {
                let start = Instant::now();
                let candidates = layer.query_envelope(&envelope);
                legs.rtree_query_s += start.elapsed().as_secs_f64();
                stats.pruned_pairs += layer.len() - candidates.len();
                stats.candidate_pairs += candidates.len();

                let start = Instant::now();
                matrices.clear();
                matrices.extend(
                    candidates
                        .iter()
                        .map(|&ci| prep_ref.relate_to(&prepared[li][ci])),
                );
                legs.relate_s += start.elapsed().as_secs_f64();

                let start = Instant::now();
                let mut disjoint = layer.len() - candidates.len();
                for (m, &ci) in matrices.iter().zip(&candidates) {
                    if classify(m, ref_dim, dims[li][ci]) == TopologicalRelation::Disjoint {
                        disjoint += 1;
                    } else {
                        stats.spatial_predicates += 1;
                    }
                }
                legs.classify_s += start.elapsed().as_secs_f64();
                if config.include_disjoint && disjoint > 0 {
                    stats.spatial_predicates += 1;
                }
                counts.relate_calls += candidates.len() as u64;
                counts.classify_calls += candidates.len() as u64;
            }

            if let Some(scheme) = &config.distance {
                let start = Instant::now();
                let scan: Vec<usize> = match window {
                    Some(margin) => layer.index().query_window(&envelope, margin),
                    None => (0..layer.len()).collect(),
                };
                legs.rtree_query_s += start.elapsed().as_secs_f64();
                stats.pruned_pairs += layer.len() - scan.len();
                stats.candidate_pairs += scan.len();

                let start = Instant::now();
                distances.clear();
                distances.extend(
                    scan.iter()
                        .map(|&ci| prep_ref.distance_within(&prepared[li][ci], cutoff)),
                );
                legs.distance_s += start.elapsed().as_secs_f64();
                counts.distance_calls += scan.len() as u64;

                let start = Instant::now();
                for d in distances.iter().flatten() {
                    if *d == 0.0 && config.distance_excludes_intersecting {
                        continue;
                    }
                    counts.classify_calls += 1;
                    if scheme.classify(*d).is_some() {
                        stats.spatial_predicates += 1;
                    }
                }
                legs.classify_s += start.elapsed().as_secs_f64();
            }
        }
    }

    let kernel = take_kernel_counters();
    counts.candidate_pairs += stats.candidate_pairs as u64;
    counts.spatial_predicates += stats.spatial_predicates as u64;
    counts.quant_resolved += kernel.quant_cells_resolved;
    counts.quant_fallback += kernel.quant_fallback_exact;
    counts.simd_fallback += kernel.simd_fallback_exact;
    counts.segtree_nodes_visited += kernel.segtree_nodes_visited;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(spec: CitySpec, seed: u64) -> City {
        let spec = CitySpec { grid: 8, ..spec };
        City::new(spec, seed, spec.generate(seed)).expect("reference run")
    }

    #[test]
    fn ops_and_traced_iterations_verify() {
        for spec in [CITY_TOPO, CITY_NEAR] {
            let mut city = small(spec, 7);
            assert_eq!(city.inputs.len() as u64, spec.cities);
            for _ in 0..city.ops_per_round() {
                assert!(city.op(Recorder::disabled()).is_ok());
            }
            let sample = city.traced().expect("traced iteration verifies");
            let counts = sample.counts;
            let stats = |f: fn(&ExtractionStats) -> usize| -> u64 {
                city.inputs
                    .iter()
                    .map(|i| f(&i.expected.stats) as u64)
                    .sum()
            };
            assert_eq!(counts.candidate_pairs, stats(|s| s.candidate_pairs));
            assert_eq!(counts.spatial_predicates, stats(|s| s.spatial_predicates));
            assert!(sample.legs.relate_s > 0.0 && sample.legs.classify_s > 0.0);
            assert_eq!(counts.distance_calls > 0, spec.near);
            assert!(counts.mining_candidates > 0);
        }
    }

    #[test]
    fn corrupted_expected_output_fails_the_op() {
        let corruptions: [fn(&mut Expected); 4] = [
            |e| e.mined.itemsets[0].1 += 1,
            |e| e.mined.rules += 1,
            |e| e.rows[0].0.push('x'),
            |e| e.stats.candidate_pairs += 1,
        ];
        for corrupt in corruptions {
            let mut city = small(CITY_NEAR, 7);
            corrupt(&mut city.inputs[3].expected);
            let oks: Vec<bool> = (0..4)
                .map(|_| city.op(Recorder::disabled()).is_ok())
                .collect();
            assert_eq!(oks, [true, true, true, false]);
            assert!(city.traced().is_err());
        }
    }

    #[test]
    fn set_up_repeats_the_same_bytes() {
        let mut city = small(CITY_NEAR, 7);
        assert!(city.setup_rep().is_ok());
        city.inputs[2].bytes[0] ^= 1;
        assert!(city.setup_rep().is_err());
    }

    #[test]
    fn pinned_counts_apply_at_the_default_seed() {
        // Grid-8 cities cannot reproduce the full-size pins.
        assert!(small(CITY_TOPO, 1).op(Recorder::new()).is_err());
        assert!(small(CITY_NEAR, 1).traced().is_err());
        assert!(small(CITY_NEAR, 2).op(Recorder::new()).is_ok());
        assert_eq!(CITY_NEAR.pinned.len() as u64, CITY_NEAR.cities);
    }

    #[test]
    fn one_city_per_op_keeps_the_benchmark_seed() {
        let spec = CitySpec {
            grid: 8,
            ..CITY_TOPO
        };
        let direct = generate_city(&CityConfig {
            grid: 8,
            seed: 5,
            ..CityConfig::default()
        });
        assert_eq!(spec.generate(5), vec![to_gpb(&direct)]);
    }

    #[test]
    fn replay_rejects_direction_predicates() {
        let city = small(CITY_TOPO, 7);
        let dataset = city.spec.load(&city.inputs[0].bytes).unwrap();
        let config = ExtractionConfig::default().with_direction();
        let (mut legs, mut counts) = (LegTimes::default(), LayerCounts::default());
        assert!(replay(&dataset, &config, &mut legs, &mut counts).is_err());
    }
}
