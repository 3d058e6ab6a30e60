//! Apriori, Apriori-KC and Apriori-KC+ (Listing 1 of the paper).
//!
//! All three algorithms share this implementation; they differ only in the
//! [`PairFilter`] applied to the candidate set `C₂`:
//!
//! * **Apriori** — empty filter;
//! * **Apriori-KC** — the dependency pairs `Φ` (background knowledge);
//! * **Apriori-KC+** — `Φ` plus every same-feature-type pair (derived from
//!   item metadata, no background knowledge required).
//!
//! Candidate generation is the classic `apriori_gen` join + prune
//! (Agrawal & Srikant 1994). Two support-counting backends are provided:
//! a candidate prefix-trie walk over each transaction (the horizontal
//! Listing-1 path, and the default), and the vertical engine (triangular
//! C₂ kernel, then an equivalence-class DFS over TID lists).
//!
//! Both parallelise over transaction chunks on the in-tree
//! [`geopattern_par`] pool: the candidate index (trie or kernel) is built
//! once and shared read-only, each worker accumulates a private count
//! vector, and the vectors are reduced by summation — commutative, so the
//! counts are identical to a serial run for any thread count.

use crate::filter::PairFilter;
use crate::item::{ItemId, TransactionSet};
use crate::journal;
use crate::result::{FrequentItemset, MiningResult, MiningStats, MinSupport};
use crate::robust;
use geopattern_obs::Recorder;
use geopattern_par::{
    try_par_map_reduce_grained, CancelToken, Grain, Interrupt, Journal, MemoryBudget, Threads,
};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Support-counting backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountingStrategy {
    /// Walk a prefix trie of `apriori_gen` candidates along each
    /// transaction (the horizontal Listing-1 path).
    #[default]
    PrefixTrie,
    /// Vertical engine: pass 2 through the triangular C₂ kernel (one
    /// streaming scan, one array cell per post-filter pair), deeper
    /// passes by equivalence-class DFS over hybrid dense/sparse TID
    /// lists ([`crate::bitmap::TidList`]).
    VerticalBitmap,
}

impl CountingStrategy {
    /// The CLI/bench name of the strategy.
    pub fn name(self) -> &'static str {
        match self {
            CountingStrategy::PrefixTrie => "prefix-trie",
            CountingStrategy::VerticalBitmap => "bitmap",
        }
    }

    /// Every accepted CLI/bench name, for error messages and usage text.
    pub const ALL_NAMES: [&'static str; 2] = ["prefix-trie", "bitmap"];

    /// Parses a CLI/bench name.
    pub fn parse(s: &str) -> Result<CountingStrategy, String> {
        match s.to_ascii_lowercase().as_str() {
            "prefix-trie" | "trie" => Ok(CountingStrategy::PrefixTrie),
            "bitmap" | "vertical-bitmap" => Ok(CountingStrategy::VerticalBitmap),
            other => Err(format!(
                "unknown counting strategy {other:?} (expected one of: {})",
                CountingStrategy::ALL_NAMES.join(", ")
            )),
        }
    }
}

/// Configuration of one mining run.
#[derive(Debug, Clone)]
pub struct AprioriConfig {
    /// Minimum support.
    pub min_support: MinSupport,
    /// Well-known dependency pairs `Φ` removed from `C₂` (Apriori-KC).
    pub dependencies: PairFilter,
    /// Same-feature-type pairs removed from `C₂` (Apriori-KC+).
    pub same_type: PairFilter,
    /// Counting backend.
    pub counting: CountingStrategy,
    /// Worker threads for support counting. Counts are identical for
    /// every setting; this only changes wall-clock.
    pub threads: Threads,
    /// Metric sink for per-pass timings and counters. Disabled by
    /// default; recording never changes the mined output.
    pub recorder: Recorder,
    /// Cooperative cancellation/deadline token, checked at pass boundaries
    /// and at pool chunk boundaries during counting. Disabled by default,
    /// in which case every check is free and can never fire.
    pub cancel: CancelToken,
    /// Memory budget for the per-pass candidate sets. Apriori only
    /// *tracks* its usage (feeding `robust/budget_bytes_peak`); it never
    /// degrades.
    pub budget: MemoryBudget,
    /// Durable checkpoint journal. When set, every completed pass appends
    /// its frequent level, and a new run over the same journal seeds the
    /// level loop past the journaled prefix instead of recounting it — the
    /// resumed output (itemsets, supports, statistics) is bit-identical to
    /// an uninterrupted run. The caller is responsible for matching the
    /// journal to the run (see [`Journal`]'s fingerprint); a journal whose
    /// first level disagrees with the data is ignored and everything is
    /// recomputed. Skipped passes are counted on
    /// `robust/resume_levels_skipped` (journal-enabled runs only).
    pub journal: Option<Journal>,
}

impl AprioriConfig {
    /// Plain Apriori at the given support.
    pub fn apriori(min_support: MinSupport) -> AprioriConfig {
        AprioriConfig {
            min_support,
            dependencies: PairFilter::none(),
            same_type: PairFilter::none(),
            counting: CountingStrategy::default(),
            threads: Threads::Serial,
            recorder: Recorder::disabled(),
            cancel: CancelToken::none(),
            budget: MemoryBudget::unlimited(),
            journal: None,
        }
    }

    /// Apriori-KC: removes the dependency pairs `Φ`.
    pub fn apriori_kc(min_support: MinSupport, dependencies: PairFilter) -> AprioriConfig {
        AprioriConfig { dependencies, ..AprioriConfig::apriori(min_support) }
    }

    /// Apriori-KC+: removes `Φ` plus all same-feature-type pairs.
    pub fn apriori_kc_plus(
        min_support: MinSupport,
        dependencies: PairFilter,
        same_type: PairFilter,
    ) -> AprioriConfig {
        AprioriConfig { dependencies, same_type, ..AprioriConfig::apriori(min_support) }
    }

    /// Selects the counting backend (builder style).
    pub fn with_counting(mut self, counting: CountingStrategy) -> AprioriConfig {
        self.counting = counting;
        self
    }

    /// Sets the worker-thread policy (builder style).
    pub fn with_threads(mut self, threads: Threads) -> AprioriConfig {
        self.threads = threads;
        self
    }

    /// Attaches a metric recorder (builder style).
    pub fn with_recorder(mut self, recorder: Recorder) -> AprioriConfig {
        self.recorder = recorder;
        self
    }

    /// Attaches a cancellation token (builder style).
    pub fn with_cancel(mut self, cancel: CancelToken) -> AprioriConfig {
        self.cancel = cancel;
        self
    }

    /// Attaches a memory budget (builder style).
    pub fn with_budget(mut self, budget: MemoryBudget) -> AprioriConfig {
        self.budget = budget;
        self
    }

    /// Attaches a checkpoint journal (builder style).
    pub fn with_journal(mut self, journal: Journal) -> AprioriConfig {
        self.journal = Some(journal);
        self
    }

    /// The combined `C₂` filter.
    pub fn combined_filter(&self) -> PairFilter {
        self.dependencies.clone().union(&self.same_type)
    }
}

/// Runs the configured Apriori variant over a transaction set.
///
/// Panics if the run is interrupted (cancellation, deadline, worker panic)
/// — impossible with the default disabled [`CancelToken`]. Controlled runs
/// should call [`try_mine`].
pub fn mine(data: &TransactionSet, config: &AprioriConfig) -> MiningResult {
    try_mine(data, config).expect("uncontrolled Apriori cannot be interrupted; use try_mine")
}

/// Fallible [`mine`]: checks `config.cancel` at every pass boundary and at
/// pool chunk boundaries inside counting, isolates worker panics, and
/// tracks candidate-set bytes against `config.budget`. With a disabled
/// token and unlimited budget the output is bit-identical to [`mine`].
pub fn try_mine(data: &TransactionSet, config: &AprioriConfig) -> Result<MiningResult, Interrupt> {
    let start = Instant::now();
    let rec = &config.recorder;
    let _alg_span = rec.span("apriori");
    let threshold = config.min_support.threshold(data.len());
    let mut stats = MiningStats::default();

    // Pass 1: support of individual items.
    let num_items = data.catalog.len();
    let l1: Vec<FrequentItemset> = {
        let _pass_span = rec.span("pass1");
        let mut item_counts = vec![0u64; num_items];
        for t in data.transactions() {
            for &i in t {
                item_counts[i as usize] += 1;
            }
        }
        (0..num_items as ItemId)
            .filter(|&i| item_counts[i as usize] >= threshold)
            .map(|i| FrequentItemset { items: vec![i], support: item_counts[i as usize] })
            .collect()
    };
    stats.candidates_per_level.push(num_items);
    stats.frequent_per_level.push(l1.len());
    rec.counter("apriori.pass1.candidates", num_items as u64);
    rec.counter("apriori.pass1.frequent", l1.len() as u64);

    let mut levels: Vec<Vec<FrequentItemset>> = vec![l1];

    // Checkpoint/resume: the journal holds a contiguous completed-level
    // prefix, validated against the freshly recomputed L₁ (a journal from
    // different data or a mismatched configuration is discarded and the
    // run recomputes everything). Each completed pass below appends its
    // level, so a crashed run restarts at the first unfinished pass.
    let journaled =
        journal::level_prefix(config.journal.as_ref(), journal::APRIORI_LEVEL, &levels[0]);
    if journaled.is_empty() {
        if let Some(j) = &config.journal {
            let _ = j.append(
                journal::APRIORI_LEVEL,
                1,
                &journal::encode_level(journal::FLAG_LEVEL, num_items as u64, 0, 0, &levels[0]),
            );
        }
    }

    if config.counting == CountingStrategy::VerticalBitmap {
        return try_mine_vertical(data, config, threshold, stats, levels, journaled, start);
    }

    // Seed the loop from the journaled prefix: each record beyond L₁
    // replays exactly the statistics pushes its pass would have made, and
    // a terminal record (empty level, empty candidate set, or completion
    // marker) means there is nothing left to mine.
    let mut complete = journaled.first().is_some_and(|r| r.is_terminal());
    let mut skipped = 0u64;
    for record in journaled.iter().skip(1) {
        skipped += 1;
        match record.flag {
            journal::FLAG_NO_CANDIDATES => {
                stats.candidates_per_level.push(record.candidates as usize);
                stats.pairs_removed_dependencies = record.removed_dep as usize;
                stats.pairs_removed_same_type = record.removed_same as usize;
                complete = true;
            }
            journal::FLAG_LEVEL => {
                stats.candidates_per_level.push(record.candidates as usize);
                stats.frequent_per_level.push(record.itemsets.len());
                stats.pairs_removed_dependencies = record.removed_dep as usize;
                stats.pairs_removed_same_type = record.removed_same as usize;
                if record.itemsets.is_empty() {
                    complete = true;
                } else {
                    levels.push(record.itemsets.clone());
                }
            }
            _ => complete = true,
        }
    }
    if config.journal.is_some() {
        rec.counter("robust/resume_levels_skipped", skipped);
    }

    let mut k = levels.len() + 1;
    // `complete` is decided entirely by the journaled prefix; the loop
    // itself only exits through its `break`s.
    #[allow(clippy::while_immutable_condition)]
    while !complete {
        // Pass boundary: the cooperative cancellation point of Listing 1's
        // outer loop, plus the sequential fail-point site.
        robust::fire("mining/apriori.pass", &config.cancel);
        robust::checkpoint(&config.cancel, rec)?;
        let _pass_span = rec.span(&format!("pass{k}"));
        let prev: Vec<&[ItemId]> = levels[k - 2].iter().map(|f| f.items.as_slice()).collect();
        if prev.is_empty() {
            break;
        }
        let mut candidates = apriori_gen(&prev);
        rec.counter(&format!("apriori.pass{k}.candidates"), candidates.len() as u64);
        if k == 2 {
            // Listing 1: C₂ = C₂ − Φ − {pairs with the same feature type}.
            let before = candidates.len();
            candidates.retain(|c| {
                if config.dependencies.blocks(c[0], c[1]) {
                    stats.pairs_removed_dependencies += 1;
                    false
                } else if config.same_type.blocks(c[0], c[1]) {
                    stats.pairs_removed_same_type += 1;
                    false
                } else {
                    true
                }
            });
            rec.counter("apriori.c2.removed_dependencies", stats.pairs_removed_dependencies as u64);
            rec.counter("apriori.c2.removed_same_type", stats.pairs_removed_same_type as u64);
            rec.counter(&format!("apriori.pass{k}.pruned"), (before - candidates.len()) as u64);
        }
        stats.candidates_per_level.push(candidates.len());
        if candidates.is_empty() {
            if let Some(j) = &config.journal {
                let _ = j.append(
                    journal::APRIORI_LEVEL,
                    k as u64,
                    &journal::encode_level(
                        journal::FLAG_NO_CANDIDATES,
                        0,
                        stats.pairs_removed_dependencies as u64,
                        stats.pairs_removed_same_type as u64,
                        &[],
                    ),
                );
            }
            break;
        }
        let num_candidates = candidates.len();

        // Track (never reject: Apriori is the fallback of last resort) the
        // candidate set against the budget for the duration of the pass.
        let candidate_bytes = robust::nested_vec_bytes(&candidates);
        let _ = config.budget.reserve(candidate_bytes);
        let counts = count_prefix_trie(data, &candidates, config.threads, &config.cancel);
        config.budget.release(candidate_bytes);
        let counts = counts?;

        let lk: Vec<FrequentItemset> = candidates
            .into_iter()
            .zip(counts)
            .filter(|(_, c)| *c >= threshold)
            .map(|(items, support)| FrequentItemset { items, support })
            .collect();
        rec.counter(&format!("apriori.pass{k}.frequent"), lk.len() as u64);
        stats.frequent_per_level.push(lk.len());
        if let Some(j) = &config.journal {
            let _ = j.append(
                journal::APRIORI_LEVEL,
                k as u64,
                &journal::encode_level(
                    journal::FLAG_LEVEL,
                    num_candidates as u64,
                    stats.pairs_removed_dependencies as u64,
                    stats.pairs_removed_same_type as u64,
                    &lk,
                ),
            );
        }
        if lk.is_empty() {
            break;
        }
        levels.push(lk);
        k += 1;
    }

    rec.counter("apriori.passes", levels.len() as u64);
    rec.counter("apriori.frequent_itemsets", levels.iter().map(Vec::len).sum::<usize>() as u64);
    robust::record_budget_peak(&config.budget, rec);
    stats.duration = start.elapsed();
    Ok(MiningResult { levels, stats })
}

/// The vertical engine behind [`CountingStrategy::VerticalBitmap`].
///
/// Pass 2 reuses `apriori_gen` and the KC/KC+ retain step verbatim (so
/// the filter statistics are identical to the horizontal backend), then
/// counts the surviving C₂ with the triangular kernel — one streaming
/// scan of the transactions, one array cell per post-filter pair, no
/// hashing. Passes 3 and up switch to an equivalence-class DFS over
/// vertical TID structures ([`crate::bitmap::mine_vertical_levels`]).
/// Itemsets and supports are bit-identical to the horizontal backend at
/// any thread count; only wall-clock, memory shape and the level-3+
/// entries of `candidates_per_level` (join attempts, not `apriori_gen`
/// counts) differ.
fn try_mine_vertical(
    data: &TransactionSet,
    config: &AprioriConfig,
    threshold: u64,
    mut stats: MiningStats,
    mut levels: Vec<Vec<FrequentItemset>>,
    journaled: Vec<journal::LevelRecord>,
    start: Instant,
) -> Result<MiningResult, Interrupt> {
    let rec = &config.recorder;

    // Resume granularity here is the lattice level: a journaled L₂ skips
    // pass 2, and a journal ending in a terminal record replays the whole
    // descent. An *incomplete* descent (crash below pass 2) is redone from
    // L₂ — its per-level records are only written together with the
    // completion marker, so they never form an unfinished tail.
    let run_complete = journaled.last().is_some_and(|r| r.is_terminal());
    let usable = if run_complete { journaled.len() } else { journaled.len().min(2) };
    let mut skipped = 0u64;
    for record in journaled.iter().take(usable).skip(1) {
        skipped += 1;
        match record.flag {
            journal::FLAG_NO_CANDIDATES => {
                stats.candidates_per_level.push(record.candidates as usize);
                stats.pairs_removed_dependencies = record.removed_dep as usize;
                stats.pairs_removed_same_type = record.removed_same as usize;
            }
            journal::FLAG_LEVEL => {
                stats.candidates_per_level.push(record.candidates as usize);
                stats.frequent_per_level.push(record.itemsets.len());
                stats.pairs_removed_dependencies = record.removed_dep as usize;
                stats.pairs_removed_same_type = record.removed_same as usize;
                if !record.itemsets.is_empty() {
                    levels.push(record.itemsets.clone());
                }
            }
            _ => {}
        }
    }
    if config.journal.is_some() {
        rec.counter("robust/resume_levels_skipped", skipped);
    }

    'mining: {
        if run_complete {
            break 'mining;
        }
        if levels.len() >= 2 {
            // L₂ came from the journal; go straight to the descent.
            vertical_descent(data, config, threshold, &mut stats, &mut levels)?;
            break 'mining;
        }
        // Pass-2 boundary: same fail-point and cancellation cadence as
        // the horizontal loop.
        robust::fire("mining/apriori.pass", &config.cancel);
        robust::checkpoint(&config.cancel, rec)?;
        let pass_span = rec.span("pass2");
        let prev: Vec<&[ItemId]> = levels[0].iter().map(|f| f.items.as_slice()).collect();
        if prev.is_empty() {
            break 'mining;
        }
        let mut candidates = apriori_gen(&prev);
        rec.counter("apriori.pass2.candidates", candidates.len() as u64);
        // Listing 1: C₂ = C₂ − Φ − {pairs with the same feature type},
        // applied *before* the kernel is built so filtered pairs never
        // occupy a counter.
        let before = candidates.len();
        candidates.retain(|c| {
            if config.dependencies.blocks(c[0], c[1]) {
                stats.pairs_removed_dependencies += 1;
                false
            } else if config.same_type.blocks(c[0], c[1]) {
                stats.pairs_removed_same_type += 1;
                false
            } else {
                true
            }
        });
        rec.counter("apriori.c2.removed_dependencies", stats.pairs_removed_dependencies as u64);
        rec.counter("apriori.c2.removed_same_type", stats.pairs_removed_same_type as u64);
        rec.counter("apriori.pass2.pruned", (before - candidates.len()) as u64);
        rec.counter("mining/c2_pairs_filtered", (before - candidates.len()) as u64);
        stats.candidates_per_level.push(candidates.len());
        if candidates.is_empty() {
            if let Some(j) = &config.journal {
                let _ = j.append(
                    journal::APRIORI_LEVEL,
                    2,
                    &journal::encode_level(
                        journal::FLAG_NO_CANDIDATES,
                        0,
                        stats.pairs_removed_dependencies as u64,
                        stats.pairs_removed_same_type as u64,
                        &[],
                    ),
                );
            }
            break 'mining;
        }
        let num_candidates = candidates.len();

        let candidate_bytes = robust::nested_vec_bytes(&candidates);
        let _ = config.budget.reserve(candidate_bytes);
        let l1_items: Vec<ItemId> = levels[0].iter().map(|f| f.items[0]).collect();
        let kernel = crate::bitmap::TriangularC2::new(data.catalog.len(), &l1_items, &candidates);
        let counts = count_chunked(data, candidates.len(), config.threads, &config.cancel, {
            let kernel = &kernel;
            move |chunk, counts| kernel.count_chunk(chunk, counts)
        });
        config.budget.release(candidate_bytes);
        let counts = counts?;

        let l2: Vec<FrequentItemset> = candidates
            .into_iter()
            .zip(counts)
            .filter(|(_, c)| *c >= threshold)
            .map(|(items, support)| FrequentItemset { items, support })
            .collect();
        rec.counter("apriori.pass2.frequent", l2.len() as u64);
        stats.frequent_per_level.push(l2.len());
        if let Some(j) = &config.journal {
            let _ = j.append(
                journal::APRIORI_LEVEL,
                2,
                &journal::encode_level(
                    journal::FLAG_LEVEL,
                    num_candidates as u64,
                    stats.pairs_removed_dependencies as u64,
                    stats.pairs_removed_same_type as u64,
                    &l2,
                ),
            );
        }
        drop(pass_span);
        if l2.is_empty() {
            break 'mining;
        }
        levels.push(l2);
        vertical_descent(data, config, threshold, &mut stats, &mut levels)?;
    }

    rec.counter("apriori.passes", levels.len() as u64);
    rec.counter("apriori.frequent_itemsets", levels.iter().map(Vec::len).sum::<usize>() as u64);
    robust::record_budget_peak(&config.budget, rec);
    stats.duration = start.elapsed();
    Ok(MiningResult { levels, stats })
}

/// Passes 3 and up in one vertical descent over TID structures, appended
/// to `levels`/`stats` in place. When a journal is configured, the
/// descent's per-level records and the run-completion marker are written
/// *after* the descent finishes — an interrupted descent leaves only the
/// journaled L₂ behind and is redone from there on resume.
fn vertical_descent(
    data: &TransactionSet,
    config: &AprioriConfig,
    threshold: u64,
    stats: &mut MiningStats,
    levels: &mut Vec<Vec<FrequentItemset>>,
) -> Result<(), Interrupt> {
    let rec = &config.recorder;
    robust::fire("mining/apriori.pass", &config.cancel);
    robust::checkpoint(&config.cancel, rec)?;
    let deep_span = rec.span("vertical");
    let filter = config.combined_filter();
    let outcome = crate::bitmap::mine_vertical_levels(
        data,
        &levels[0],
        &levels[1],
        threshold,
        &filter,
        config.threads,
        &config.cancel,
        &config.budget,
    )?;
    drop(deep_span);
    rec.counter("mining/bitmap_words", outcome.bitmap_words);
    for (d, &attempts) in outcome.attempts_per_level.iter().enumerate() {
        let k = d + 3;
        // DFS join attempts, not `apriori_gen` output: a distinct name so
        // the two never read as the same quantity.
        rec.counter(&format!("apriori.pass{k}.joins"), attempts as u64);
        stats.candidates_per_level.push(attempts);
        let frequent = outcome.levels.get(d).map(Vec::len).unwrap_or(0);
        rec.counter(&format!("apriori.pass{k}.frequent"), frequent as u64);
        stats.frequent_per_level.push(frequent);
    }
    if let Some(j) = &config.journal {
        // One record per *attempted* depth (matching the statistics loop
        // above — the deepest attempt may have found nothing), then the
        // completion marker at the next contiguous shard.
        for (d, &attempts) in outcome.attempts_per_level.iter().enumerate() {
            let level = outcome.levels.get(d).map(Vec::as_slice).unwrap_or(&[]);
            let _ = j.append(
                journal::APRIORI_LEVEL,
                (d + 3) as u64,
                &journal::encode_level(
                    journal::FLAG_LEVEL,
                    attempts as u64,
                    stats.pairs_removed_dependencies as u64,
                    stats.pairs_removed_same_type as u64,
                    level,
                ),
            );
        }
        let _ = j.append(
            journal::APRIORI_LEVEL,
            (outcome.attempts_per_level.len() + 3) as u64,
            &journal::encode_level(
                journal::FLAG_COMPLETE,
                0,
                stats.pairs_removed_dependencies as u64,
                stats.pairs_removed_same_type as u64,
                &[],
            ),
        );
    }
    // Downward closure means no gaps: every non-empty level extends
    // the previous one.
    levels.extend(outcome.levels.into_iter().filter(|l| !l.is_empty()));
    Ok(())
}

/// The `apriori_gen` candidate generator: join `L(k−1)` with itself on the
/// first `k−2` items, then prune candidates having an infrequent
/// `(k−1)`-subset. `prev` must be sorted lexicographically (it is, because
/// level construction preserves generation order from sorted inputs).
pub fn apriori_gen(prev: &[&[ItemId]]) -> Vec<Vec<ItemId>> {
    let k1 = match prev.first() {
        Some(f) => f.len(),
        None => return Vec::new(),
    };
    let prev_set: HashSet<&[ItemId]> = prev.iter().copied().collect();
    let mut out = Vec::new();

    // Join step: pairs sharing the first k-2 items.
    let mut start = 0;
    while start < prev.len() {
        let prefix = &prev[start][..k1 - 1];
        let mut end = start + 1;
        while end < prev.len() && &prev[end][..k1 - 1] == prefix {
            end += 1;
        }
        for i in start..end {
            for j in (i + 1)..end {
                let mut cand: Vec<ItemId> = prev[i].to_vec();
                cand.push(prev[j][k1 - 1]);
                // Prune step: all (k-1)-subsets must be frequent. The two
                // subsets used in the join are trivially present.
                let mut ok = true;
                if k1 >= 2 {
                    let mut sub = Vec::with_capacity(k1);
                    for skip in 0..cand.len() - 2 {
                        sub.clear();
                        sub.extend(cand.iter().enumerate().filter(|&(x, _)| x != skip).map(|(_, &v)| v));
                        if !prev_set.contains(sub.as_slice()) {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    out.push(cand);
                }
            }
        }
        start = end;
    }
    out
}

/// Sums per-worker count vectors over transaction chunks. Summation is
/// commutative, so the totals match the serial scan exactly. Runs on the
/// fallible pool: the token is honoured at chunk boundaries and a worker
/// panic (including the `mining/apriori.count` fail-point) surfaces as
/// [`Interrupt::WorkerPanic`] instead of aborting the process.
fn count_chunked(
    data: &TransactionSet,
    num_candidates: usize,
    threads: Threads,
    cancel: &CancelToken,
    count_chunk: impl Fn(&[Vec<ItemId>], &mut [u64]) + Sync,
) -> Result<Vec<u64>, Interrupt> {
    // Fine grain: one transaction is cheap to count, so workers only pay
    // off with thousands of transactions each.
    let counts = try_par_map_reduce_grained(
        threads,
        Grain::Fine,
        cancel,
        "mining/apriori.count",
        data.transactions(),
        |_, chunk| {
            robust::fire("mining/apriori.count", cancel);
            let mut counts = vec![0u64; num_candidates];
            count_chunk(chunk, &mut counts);
            counts
        },
        |mut a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        },
    )?;
    Ok(counts.unwrap_or_else(|| vec![0u64; num_candidates]))
}

/// A node of the candidate prefix trie.
#[derive(Default)]
struct TrieNode {
    children: HashMap<ItemId, TrieNode>,
    /// Candidate index when this node terminates a candidate.
    leaf: Option<usize>,
}

/// The horizontal counting backend: walk a prefix trie of candidates
/// along each (sorted) transaction.
fn count_prefix_trie(
    data: &TransactionSet,
    candidates: &[Vec<ItemId>],
    threads: Threads,
    cancel: &CancelToken,
) -> Result<Vec<u64>, Interrupt> {
    let mut root = TrieNode::default();
    for (pos, c) in candidates.iter().enumerate() {
        let mut node = &mut root;
        for &i in c {
            node = node.children.entry(i).or_default();
        }
        node.leaf = Some(pos);
    }
    count_chunked(data, candidates.len(), threads, cancel, |chunk, counts| {
        for t in chunk {
            walk_trie(&root, t, counts);
        }
    })
}

fn walk_trie(node: &TrieNode, suffix: &[ItemId], counts: &mut [u64]) {
    if let Some(pos) = node.leaf {
        counts[pos] += 1;
    }
    if node.children.is_empty() {
        return;
    }
    for (i, &item) in suffix.iter().enumerate() {
        if let Some(child) = node.children.get(&item) {
            walk_trie(child, &suffix[i + 1..], counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemCatalog;

    /// The classic 4-transaction example.
    fn toy() -> TransactionSet {
        let mut c = ItemCatalog::new();
        for label in ["a", "b", "c", "d", "e"] {
            c.intern_attribute(label);
        }
        let mut ts = TransactionSet::new(c);
        ts.push(vec![0, 1, 2]); // a b c
        ts.push(vec![0, 1, 3]); // a b d
        ts.push(vec![0, 2, 3]); // a c d
        ts.push(vec![1, 2, 4]); // b c e
        ts
    }

    #[test]
    fn plain_apriori_counts() {
        let r = mine(&toy(), &AprioriConfig::apriori(MinSupport::Count(2)));
        // Frequent 1-sets: a(3) b(3) c(3) d(2); e(1) is out.
        assert_eq!(r.levels[0].len(), 4);
        // Frequent 2-sets: ab(2) ac(2) ad(2) bc(2); bd(1) and cd(1) out.
        let l2: Vec<&Vec<u32>> = r.levels[1].iter().map(|f| &f.items).collect();
        assert_eq!(l2.len(), 4);
        assert!(l2.contains(&&vec![0, 1]));
        assert!(l2.contains(&&vec![0, 3]));
        assert!(!l2.contains(&&vec![2, 3]));
        // No frequent 3-sets at support 2: abc(1), acd(1)...
        assert_eq!(r.levels.len(), 2);
        assert!(r.check_downward_closure());
    }

    #[test]
    fn both_counting_backends_agree() {
        let data = toy();
        for support in [1u64, 2, 3] {
            let trie = mine(
                &data,
                &AprioriConfig::apriori(MinSupport::Count(support))
                    .with_counting(CountingStrategy::PrefixTrie),
            );
            let bitmap = mine(
                &data,
                &AprioriConfig::apriori(MinSupport::Count(support))
                    .with_counting(CountingStrategy::VerticalBitmap),
            );
            let t: Vec<_> = trie.all().collect();
            let b: Vec<_> = bitmap.all().collect();
            assert_eq!(t, b, "support {support}");
        }
    }

    #[test]
    fn vertical_backends_match_horizontal_levels_exactly() {
        let data = toy();
        for support in [1u64, 2, 3] {
            for filter in
                [PairFilter::none(), PairFilter::from_pairs([(0u32, 1u32), (2u32, 3u32)])]
            {
                let base = AprioriConfig::apriori_kc(MinSupport::Count(support), filter);
                let oracle = mine(&data, &base.clone().with_counting(CountingStrategy::PrefixTrie));
                let got =
                    mine(&data, &base.clone().with_counting(CountingStrategy::VerticalBitmap));
                assert_eq!(oracle.levels, got.levels, "support {support}");
                assert_eq!(
                    oracle.stats.pairs_removed_dependencies,
                    got.stats.pairs_removed_dependencies,
                    "support {support}"
                );
            }
        }
    }

    #[test]
    fn counting_strategy_names_round_trip() {
        for s in [CountingStrategy::PrefixTrie, CountingStrategy::VerticalBitmap] {
            assert_eq!(CountingStrategy::parse(s.name()), Ok(s));
            assert!(CountingStrategy::ALL_NAMES.contains(&s.name()));
        }
        assert_eq!(CountingStrategy::parse("trie"), Ok(CountingStrategy::PrefixTrie));
        assert_eq!(
            CountingStrategy::parse("vertical-bitmap"),
            Ok(CountingStrategy::VerticalBitmap)
        );
        let err = CountingStrategy::parse("quantum").unwrap_err();
        for name in CountingStrategy::ALL_NAMES {
            assert!(err.contains(name), "error must list {name:?}: {err}");
        }
    }

    #[test]
    fn filter_blocks_pair_and_supersets() {
        let data = toy();
        let filter = PairFilter::from_pairs([(0u32, 1u32)]); // block {a,b}
        let config =
            AprioriConfig::apriori_kc_plus(MinSupport::Count(1), PairFilter::none(), filter);
        let r = mine(&data, &config);
        for f in r.with_min_size(2) {
            assert!(
                !(f.items.contains(&0) && f.items.contains(&1)),
                "itemset {:?} contains the blocked pair",
                f.items
            );
        }
        // Other pairs survive.
        assert!(r.all().any(|f| f.items == vec![0, 2]));
        // Statistics record the removal.
        assert_eq!(r.stats.pairs_removed_same_type + r.stats.pairs_removed_dependencies, 1);
    }

    #[test]
    fn filter_losslessness() {
        // Removing {a,b} loses exactly the itemsets containing both a and
        // b; everything else is identical (§3 of the paper).
        let data = toy();
        let plain = mine(&data, &AprioriConfig::apriori(MinSupport::Count(1)));
        let filtered = mine(
            &data,
            &AprioriConfig::apriori_kc(
                MinSupport::Count(1),
                PairFilter::from_pairs([(0u32, 1u32)]),
            ),
        );
        let expected: Vec<&FrequentItemset> = plain
            .all()
            .filter(|f| !(f.items.contains(&0) && f.items.contains(&1)))
            .collect();
        let got: Vec<&FrequentItemset> = filtered.all().collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty = TransactionSet::new(ItemCatalog::new());
        let r = mine(&empty, &AprioriConfig::apriori(MinSupport::Fraction(0.5)));
        assert_eq!(r.num_frequent(), 0);

        // Single transaction: everything frequent at 100%.
        let mut c = ItemCatalog::new();
        c.intern_attribute("x");
        c.intern_attribute("y");
        let mut ts = TransactionSet::new(c);
        ts.push(vec![0, 1]);
        let r = mine(&ts, &AprioriConfig::apriori(MinSupport::Fraction(1.0)));
        assert_eq!(r.num_frequent(), 3); // {x}, {y}, {x,y}
        assert_eq!(r.max_size(), 2);
    }

    #[test]
    fn apriori_gen_join_and_prune() {
        // L2 = {ab, ac, bc, bd} → join gives abc (from ab+ac: prefix a),
        // bcd (from bc+bd: prefix b). Prune removes bcd (cd not in L2).
        let l2: Vec<Vec<u32>> = vec![vec![0, 1], vec![0, 2], vec![1, 2], vec![1, 3]];
        let refs: Vec<&[u32]> = l2.iter().map(|v| v.as_slice()).collect();
        let c3 = apriori_gen(&refs);
        assert_eq!(c3, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn apriori_gen_from_l1() {
        let l1: Vec<Vec<u32>> = vec![vec![0], vec![2], vec![5]];
        let refs: Vec<&[u32]> = l1.iter().map(|v| v.as_slice()).collect();
        let c2 = apriori_gen(&refs);
        assert_eq!(c2, vec![vec![0, 2], vec![0, 5], vec![2, 5]]);
    }

    #[test]
    fn parallel_counting_matches_serial() {
        // A larger synthetic set so several chunks actually form.
        let mut c = ItemCatalog::new();
        for i in 0..12 {
            c.intern_attribute(format!("i{i}"));
        }
        let mut ts = TransactionSet::new(c);
        for t in 0..500u32 {
            let items: Vec<u32> =
                (0..12).filter(|&i| (t.wrapping_mul(31).wrapping_add(i * 7)) % 3 != 0).collect();
            ts.push(items);
        }
        for counting in [CountingStrategy::PrefixTrie, CountingStrategy::VerticalBitmap] {
            let serial = mine(
                &ts,
                &AprioriConfig::apriori(MinSupport::Fraction(0.2)).with_counting(counting),
            );
            for n in [2usize, 8] {
                let parallel = mine(
                    &ts,
                    &AprioriConfig::apriori(MinSupport::Fraction(0.2))
                        .with_counting(counting)
                        .with_threads(Threads::Fixed(n)),
                );
                let s: Vec<_> = serial.all().collect();
                let p: Vec<_> = parallel.all().collect();
                assert_eq!(s, p, "{counting:?} at {n} threads");
            }
        }
    }

    #[test]
    fn stats_track_levels() {
        let r = mine(&toy(), &AprioriConfig::apriori(MinSupport::Count(2)));
        assert_eq!(r.stats.candidates_per_level[0], 5); // items
        assert_eq!(r.stats.frequent_per_level[0], 4);
        assert_eq!(r.stats.candidates_per_level[1], 6); // C(4,2)
        assert_eq!(r.stats.frequent_per_level[1], 4);
    }
}
