//! Byte codec and resume helpers for journaled mining state.
//!
//! Journal payloads are opaque to [`geopattern_par::Journal`]; this module
//! owns the mining-side record formats. Two shapes cover all three miners:
//!
//! * **level records** (Apriori, one per completed pass) —
//!   a flag byte, the pass's candidate count, the cumulative `C₂` filter
//!   totals, and the frequent itemsets of that level. The shard number is
//!   the pass number `k` (1-based), so a journal holds a *contiguous
//!   completed-level prefix* and resuming means seeding the level loop
//!   past it. A level with no frequent itemsets, a pass with no candidates
//!   ([`FLAG_NO_CANDIDATES`]) and the explicit [`FLAG_COMPLETE`] marker
//!   all terminate the run — a journal ending in one of them replays the
//!   whole result without mining anything.
//! * **class records** (Eclat equivalence classes and FP-Growth top-level
//!   branches, one per completed search unit) — the unit's degradation
//!   count and its itemsets in emission order. Units are independent, so
//!   there is no prefix requirement: each journaled unit is skipped
//!   individually and the rest are recomputed.
//!
//! Every decoder returns `None` on any malformed byte, and resume helpers
//! validate journaled state against freshly recomputed anchors (L₁ for
//! level prefixes, the unit's root itemset for class records). A journal
//! that disagrees with the data degrades to recomputation — never to a
//! panic, and never to wrong output.

use crate::item::ItemId;
use crate::result::FrequentItemset;
use geopattern_par::Journal;

/// Level records of the Apriori engine (all counting strategies — the
/// levels are bit-identical across strategies, so a journal written under
/// one strategy resumes a run under another).
pub(crate) const APRIORI_LEVEL: &str = "apriori/level";
/// Per-equivalence-class records of Eclat.
pub(crate) const ECLAT_CLASS: &str = "eclat/class";
/// Per-top-level-branch records of FP-Growth.
pub(crate) const FP_BRANCH: &str = "fpgrowth/branch";

/// The pass generated candidates but none survived — the level loop broke
/// before producing a frequent list (candidate count pushed, no frequent
/// entry). Terminal.
pub(crate) const FLAG_NO_CANDIDATES: u8 = 0;
/// A completed pass with its frequent itemsets (terminal when empty).
pub(crate) const FLAG_LEVEL: u8 = 1;
/// Explicit run-complete marker, for exits that push no per-level
/// statistics (the vertical engine's end of descent). Terminal.
pub(crate) const FLAG_COMPLETE: u8 = 2;

/// One decoded level record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LevelRecord {
    pub flag: u8,
    /// Candidates generated for this pass (post-`C₂`-filter at `k = 2`),
    /// matching the run's `stats.candidates_per_level` entry.
    pub candidates: u64,
    /// Cumulative `pairs_removed_dependencies` as of this pass.
    pub removed_dep: u64,
    /// Cumulative `pairs_removed_same_type` as of this pass.
    pub removed_same: u64,
    /// The frequent itemsets of the level (empty for
    /// [`FLAG_NO_CANDIDATES`] / [`FLAG_COMPLETE`]).
    pub itemsets: Vec<FrequentItemset>,
}

impl LevelRecord {
    /// True when this record ends the run: nothing can follow an empty
    /// frequent level, an empty candidate set, or an explicit marker.
    pub(crate) fn is_terminal(&self) -> bool {
        self.flag != FLAG_LEVEL || self.itemsets.is_empty()
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader; `None` past the end, never a
/// panic.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }

    fn take_u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.at)?;
        self.at += 1;
        Some(b)
    }

    fn take_u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.at..self.at + 4)?;
        self.at += 4;
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn take_u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.at..self.at + 8)?;
        self.at += 8;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }
}

fn put_itemsets(out: &mut Vec<u8>, itemsets: &[FrequentItemset]) {
    put_u32(out, itemsets.len() as u32);
    for f in itemsets {
        put_u64(out, f.support);
        put_u32(out, f.items.len() as u32);
        for &i in &f.items {
            put_u32(out, i);
        }
    }
}

fn take_itemsets(r: &mut Reader) -> Option<Vec<FrequentItemset>> {
    let n = r.take_u32()? as usize;
    // Cap the pre-allocation: a corrupt length must not OOM before the
    // bounds checks reject it.
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let support = r.take_u64()?;
        let len = r.take_u32()? as usize;
        let mut items: Vec<ItemId> = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            items.push(r.take_u32()?);
        }
        out.push(FrequentItemset { items, support });
    }
    Some(out)
}

/// Encodes one level record.
pub(crate) fn encode_level(
    flag: u8,
    candidates: u64,
    removed_dep: u64,
    removed_same: u64,
    itemsets: &[FrequentItemset],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(flag);
    put_u64(&mut out, candidates);
    put_u64(&mut out, removed_dep);
    put_u64(&mut out, removed_same);
    put_itemsets(&mut out, itemsets);
    out
}

/// Decodes one level record; `None` on any malformed byte.
pub(crate) fn decode_level(payload: &[u8]) -> Option<LevelRecord> {
    let mut r = Reader::new(payload);
    let flag = r.take_u8()?;
    if flag > FLAG_COMPLETE {
        return None;
    }
    let candidates = r.take_u64()?;
    let removed_dep = r.take_u64()?;
    let removed_same = r.take_u64()?;
    let itemsets = take_itemsets(&mut r)?;
    r.done().then_some(LevelRecord { flag, candidates, removed_dep, removed_same, itemsets })
}

/// Encodes one class/branch record (degradation count + itemsets in
/// emission order).
pub(crate) fn encode_class(aborted: u64, itemsets: &[FrequentItemset]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, aborted);
    put_itemsets(&mut out, itemsets);
    out
}

/// Decodes one class/branch record; `None` on any malformed byte.
pub(crate) fn decode_class(payload: &[u8]) -> Option<(Vec<FrequentItemset>, u64)> {
    let mut r = Reader::new(payload);
    let aborted = r.take_u64()?;
    let itemsets = take_itemsets(&mut r)?;
    r.done().then_some((itemsets, aborted))
}

/// The contiguous journaled level prefix under `kind`, validated against
/// the freshly recomputed `l1`. Stops at the first shard gap or
/// undecodable record; a prefix whose first record disagrees with `l1`
/// (a journal from different data or a different configuration) is
/// discarded wholesale, so the caller recomputes everything.
pub(crate) fn level_prefix(
    journal: Option<&Journal>,
    kind: &str,
    l1: &[FrequentItemset],
) -> Vec<LevelRecord> {
    let Some(journal) = journal else { return Vec::new() };
    let mut out: Vec<LevelRecord> = Vec::new();
    for (shard, payload) in journal.records(kind) {
        if shard != out.len() as u64 + 1 {
            break;
        }
        let Some(record) = decode_level(&payload) else { break };
        let terminal = record.is_terminal();
        out.push(record);
        if terminal {
            break;
        }
    }
    match out.first() {
        Some(first) if first.flag == FLAG_LEVEL && first.itemsets == l1 => out,
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(specs: &[(&[ItemId], u64)]) -> Vec<FrequentItemset> {
        specs
            .iter()
            .map(|(items, support)| FrequentItemset { items: items.to_vec(), support: *support })
            .collect()
    }

    #[test]
    fn level_records_round_trip() {
        let itemsets = sets(&[(&[0], 4), (&[1], 3), (&[2], 2)]);
        for flag in [FLAG_NO_CANDIDATES, FLAG_LEVEL, FLAG_COMPLETE] {
            let bytes = encode_level(flag, 7, 2, 5, &itemsets);
            let rec = decode_level(&bytes).expect("round trip");
            assert_eq!(rec.flag, flag);
            assert_eq!(rec.candidates, 7);
            assert_eq!(rec.removed_dep, 2);
            assert_eq!(rec.removed_same, 5);
            assert_eq!(rec.itemsets, itemsets);
        }
        let empty = decode_level(&encode_level(FLAG_LEVEL, 0, 0, 0, &[])).unwrap();
        assert!(empty.itemsets.is_empty());
        assert!(empty.is_terminal());
        assert!(!decode_level(&encode_level(FLAG_LEVEL, 0, 0, 0, &sets(&[(&[9], 1)]))).unwrap().is_terminal());
    }

    #[test]
    fn class_records_round_trip() {
        let itemsets = sets(&[(&[3], 5), (&[3, 4], 2), (&[3, 4, 7], 1)]);
        let bytes = encode_class(2, &itemsets);
        let (got, aborted) = decode_class(&bytes).expect("round trip");
        assert_eq!(aborted, 2);
        assert_eq!(got, itemsets);
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        let good = encode_level(FLAG_LEVEL, 3, 0, 0, &sets(&[(&[0, 1], 2)]));
        for cut in 0..good.len() {
            assert!(decode_level(&good[..cut]).is_none(), "truncated at {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_level(&trailing).is_none(), "trailing garbage rejected");
        let mut bad_flag = good;
        bad_flag[0] = 9;
        assert!(decode_level(&bad_flag).is_none(), "unknown flag rejected");

        let good = encode_class(1, &sets(&[(&[0], 2)]));
        for cut in 0..good.len() {
            assert!(decode_class(&good[..cut]).is_none(), "truncated at {cut}");
        }
        // A huge declared count fails cleanly instead of allocating.
        let mut huge = Vec::new();
        put_u64(&mut huge, 0);
        put_u32(&mut huge, u32::MAX);
        assert!(decode_class(&huge).is_none());
    }

    #[test]
    fn level_prefix_requires_contiguity_and_matching_l1() {
        let dir = std::env::temp_dir().join(format!("gp-mining-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prefix.journal");
        let l1 = sets(&[(&[0], 3), (&[1], 2)]);
        let l2 = sets(&[(&[0, 1], 2)]);

        let journal = Journal::create(&path, 1).unwrap();
        assert!(level_prefix(Some(&journal), APRIORI_LEVEL, &l1).is_empty(), "empty journal");

        journal.append(APRIORI_LEVEL, 1, &encode_level(FLAG_LEVEL, 5, 0, 0, &l1)).unwrap();
        journal.append(APRIORI_LEVEL, 2, &encode_level(FLAG_LEVEL, 1, 0, 0, &l2)).unwrap();
        // Shard 4 breaks contiguity: the prefix stops after shard 2.
        journal.append(APRIORI_LEVEL, 4, &encode_level(FLAG_LEVEL, 0, 0, 0, &[])).unwrap();
        let prefix = level_prefix(Some(&journal), APRIORI_LEVEL, &l1);
        assert_eq!(prefix.len(), 2);
        assert_eq!(prefix[1].itemsets, l2);

        // A mismatched L₁ discards the whole prefix.
        let other = sets(&[(&[7], 1)]);
        assert!(level_prefix(Some(&journal), APRIORI_LEVEL, &other).is_empty());

        // A corrupt record mid-prefix truncates it there.
        journal.append(APRIORI_LEVEL, 2, b"garbage").unwrap();
        let prefix = level_prefix(Some(&journal), APRIORI_LEVEL, &l1);
        assert_eq!(prefix.len(), 1);

        // No journal, no prefix.
        assert!(level_prefix(None, APRIORI_LEVEL, &l1).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn level_prefix_stops_consuming_after_a_terminal_record() {
        let dir = std::env::temp_dir().join(format!("gp-mining-journal-t-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("terminal.journal");
        let l1 = sets(&[(&[0], 3)]);
        let journal = Journal::create(&path, 1).unwrap();
        journal.append(APRIORI_LEVEL, 1, &encode_level(FLAG_LEVEL, 1, 0, 0, &l1)).unwrap();
        journal.append(APRIORI_LEVEL, 2, &encode_level(FLAG_NO_CANDIDATES, 0, 0, 0, &[])).unwrap();
        // Anything after a terminal record is ignored (stale duplicates).
        journal.append(APRIORI_LEVEL, 3, &encode_level(FLAG_LEVEL, 9, 0, 0, &l1)).unwrap();
        let prefix = level_prefix(Some(&journal), APRIORI_LEVEL, &l1);
        assert_eq!(prefix.len(), 2);
        assert!(prefix.last().unwrap().is_terminal());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- End-to-end resume: every miner, journaled prefixes of every
    // length, bit-identical output versus an unjournaled control. ---

    use crate::apriori::{mine, AprioriConfig, CountingStrategy};
    use crate::eclat::{mine_eclat, EclatConfig};
    use crate::filter::PairFilter;
    use crate::fpgrowth::{mine_fp, FpGrowthConfig};
    use crate::item::{ItemCatalog, TransactionSet};
    use crate::result::{MiningResult, MinSupport};
    use geopattern_obs::Recorder;
    use geopattern_par::Threads;

    /// A scratch directory unique to one test, removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir()
                .join(format!("gp-mining-resume-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn path(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn toy() -> TransactionSet {
        let mut c = ItemCatalog::new();
        for l in ["a", "b", "c", "d", "e"] {
            c.intern_attribute(l);
        }
        let mut ts = TransactionSet::new(c);
        ts.push(vec![0, 1, 2]);
        ts.push(vec![0, 1, 3]);
        ts.push(vec![0, 2, 3]);
        ts.push(vec![1, 2, 4]);
        ts.push(vec![0, 1, 2, 3]);
        ts
    }

    fn sorted_sets(r: &MiningResult) -> Vec<(Vec<u32>, u64)> {
        let mut v: Vec<(Vec<u32>, u64)> = r.all().map(|f| (f.items.clone(), f.support)).collect();
        v.sort();
        v
    }

    /// Copies the first `keep` records of `kind` into a fresh journal,
    /// simulating a crash after `keep` completed units.
    fn partial_journal(
        full: &Journal,
        path: &std::path::Path,
        kind: &str,
        keep: usize,
    ) -> Journal {
        let j = Journal::create(path, 1).unwrap();
        for (shard, payload) in full.records(kind).into_iter().take(keep) {
            j.append(kind, shard, &payload).unwrap();
        }
        j
    }

    fn assert_identical(control: &MiningResult, resumed: &MiningResult, ctx: &str) {
        assert_eq!(sorted_sets(control), sorted_sets(resumed), "{ctx}: itemsets");
        assert_eq!(
            control.stats.candidates_per_level, resumed.stats.candidates_per_level,
            "{ctx}: candidates"
        );
        assert_eq!(
            control.stats.frequent_per_level, resumed.stats.frequent_per_level,
            "{ctx}: frequent"
        );
        assert_eq!(
            control.stats.pairs_removed_dependencies, resumed.stats.pairs_removed_dependencies,
            "{ctx}: removed_dep"
        );
        assert_eq!(
            control.stats.pairs_removed_same_type, resumed.stats.pairs_removed_same_type,
            "{ctx}: removed_same"
        );
        assert_eq!(control.stats.degradations, resumed.stats.degradations, "{ctx}: degradations");
    }

    #[test]
    fn apriori_resumes_bit_identically_from_any_journal_prefix() {
        let data = toy();
        for counting in [CountingStrategy::PrefixTrie, CountingStrategy::VerticalBitmap] {
            let config = AprioriConfig::apriori(MinSupport::Count(1)).with_counting(counting);
            let control = mine(&data, &config);
            let dir = Scratch::new(&format!("apriori-{}", counting.name()));
            let full = Journal::create(dir.path("full.journal"), 1).unwrap();
            let first = mine(&data, &config.clone().with_journal(full.clone()));
            assert_identical(&control, &first, "journaled run");
            let total = full.records(APRIORI_LEVEL).len();
            assert!(total >= 3, "toy data must journal several levels, got {total}");

            for keep in 0..=total {
                let rec = Recorder::new();
                let partial = partial_journal(
                    &full,
                    &dir.path(&format!("keep{keep}.journal")),
                    APRIORI_LEVEL,
                    keep,
                );
                let resumed = mine(
                    &data,
                    &config.clone().with_journal(partial).with_recorder(rec.clone()),
                );
                assert_identical(&control, &resumed, &format!("keep {keep}"));
                let skipped =
                    rec.snapshot().counter("robust/resume_levels_skipped").unwrap_or(0);
                if keep == 0 {
                    assert_eq!(skipped, 0, "empty journal skips nothing");
                } else if keep >= 2 {
                    assert!(skipped >= 1, "keep {keep}: expected skipped levels");
                }
            }
        }
    }

    #[test]
    fn apriori_journal_resumes_across_counting_strategies() {
        // The levels are bit-identical across strategies, so a journal
        // written by the horizontal engine seeds the vertical one.
        let data = toy();
        let horizontal = AprioriConfig::apriori(MinSupport::Count(1))
            .with_counting(CountingStrategy::PrefixTrie);
        let control = mine(&data, &horizontal);
        let dir = Scratch::new("cross-strategy");
        let full = Journal::create(dir.path("full.journal"), 1).unwrap();
        mine(&data, &horizontal.clone().with_journal(full.clone()));
        let partial = partial_journal(&full, &dir.path("p.journal"), APRIORI_LEVEL, 2);
        let vertical = AprioriConfig::apriori(MinSupport::Count(1))
            .with_counting(CountingStrategy::VerticalBitmap)
            .with_journal(partial);
        let resumed = mine(&data, &vertical);
        assert_eq!(sorted_sets(&control), sorted_sets(&resumed));
    }

    #[test]
    fn filtered_apriori_resume_restores_filter_statistics() {
        let data = toy();
        let filter = PairFilter::from_pairs([(0u32, 1u32), (1u32, 2u32)]);
        let config = AprioriConfig::apriori_kc(MinSupport::Count(1), filter);
        let control = mine(&data, &config);
        assert!(control.stats.pairs_removed_dependencies > 0);
        let dir = Scratch::new("apriori-kc");
        let full = Journal::create(dir.path("full.journal"), 1).unwrap();
        mine(&data, &config.clone().with_journal(full.clone()));
        let total = full.records(APRIORI_LEVEL).len();
        for keep in 1..=total {
            let partial = partial_journal(
                &full,
                &dir.path(&format!("keep{keep}.journal")),
                APRIORI_LEVEL,
                keep,
            );
            let resumed = mine(&data, &config.clone().with_journal(partial));
            assert_identical(&control, &resumed, &format!("keep {keep}"));
        }
    }

    #[test]
    fn eclat_resume_serves_journaled_classes_at_any_thread_count() {
        let data = toy();
        let config = EclatConfig::new(MinSupport::Count(1));
        let control = mine_eclat(&data, &config);
        let dir = Scratch::new("eclat");
        let full = Journal::create(dir.path("full.journal"), 1).unwrap();
        let first = mine_eclat(&data, &config.clone().with_journal(full.clone()));
        assert_eq!(sorted_sets(&control), sorted_sets(&first));
        let total = full.records(ECLAT_CLASS).len();
        assert!(total >= 3, "one record per frequent 1-item, got {total}");

        for keep in [1usize, 2, total] {
            for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
                let rec = Recorder::new();
                let partial = partial_journal(
                    &full,
                    &dir.path(&format!("keep{keep}-{threads:?}.journal")),
                    ECLAT_CLASS,
                    keep,
                );
                let resumed = mine_eclat(
                    &data,
                    &config
                        .clone()
                        .with_journal(partial)
                        .with_threads(threads)
                        .with_recorder(rec.clone()),
                );
                assert_eq!(
                    sorted_sets(&control),
                    sorted_sets(&resumed),
                    "keep {keep}, {threads:?}"
                );
                assert_eq!(
                    control.stats.frequent_per_level, resumed.stats.frequent_per_level,
                    "keep {keep}, {threads:?}"
                );
                let skipped =
                    rec.snapshot().counter("robust/resume_classes_skipped").unwrap_or(0);
                assert_eq!(skipped, keep as u64, "keep {keep}, {threads:?}");
            }
        }
    }

    #[test]
    fn fpgrowth_resume_serves_journaled_branches() {
        let data = toy();
        let filter = PairFilter::from_pairs([(2u32, 3u32)]);
        let config = FpGrowthConfig::new(MinSupport::Count(1)).with_filter(filter);
        let control = mine_fp(&data, &config);
        let dir = Scratch::new("fp");
        let full = Journal::create(dir.path("full.journal"), 1).unwrap();
        let first = mine_fp(&data, &config.clone().with_journal(full.clone()));
        assert_eq!(sorted_sets(&control), sorted_sets(&first));
        let total = full.records(FP_BRANCH).len();
        assert!(total >= 3, "one record per top-level branch, got {total}");

        for keep in [1usize, 2, total] {
            let rec = Recorder::new();
            let partial = partial_journal(
                &full,
                &dir.path(&format!("keep{keep}.journal")),
                FP_BRANCH,
                keep,
            );
            let resumed = mine_fp(
                &data,
                &config.clone().with_journal(partial).with_recorder(rec.clone()),
            );
            assert_eq!(sorted_sets(&control), sorted_sets(&resumed), "keep {keep}");
            assert_eq!(
                control.stats.frequent_per_level, resumed.stats.frequent_per_level,
                "keep {keep}"
            );
            let skipped =
                rec.snapshot().counter("robust/resume_branches_skipped").unwrap_or(0);
            assert_eq!(skipped, keep as u64, "keep {keep}");
        }
    }

    #[test]
    fn mismatched_journal_degrades_to_recompute_for_class_miners() {
        // Class records whose root disagrees with the recomputed one (a
        // journal from different data) are ignored, not trusted.
        let data = toy();
        let dir = Scratch::new("mismatch");
        let j = Journal::create(dir.path("bogus.journal"), 1).unwrap();
        let bogus = sets(&[(&[9], 99), (&[9, 10], 98)]);
        for shard in 0..8u64 {
            j.append(ECLAT_CLASS, shard, &encode_class(0, &bogus)).unwrap();
            j.append(FP_BRANCH, shard, &encode_class(0, &bogus)).unwrap();
        }
        let ec_control = mine_eclat(&data, &EclatConfig::new(MinSupport::Count(1)));
        let ec = mine_eclat(
            &data,
            &EclatConfig::new(MinSupport::Count(1)).with_journal(j.clone()),
        );
        assert_eq!(sorted_sets(&ec_control), sorted_sets(&ec));
        let fp_control = mine_fp(&data, &FpGrowthConfig::new(MinSupport::Count(1)));
        let fp = mine_fp(
            &data,
            &FpGrowthConfig::new(MinSupport::Count(1)).with_journal(j),
        );
        assert_eq!(sorted_sets(&fp_control), sorted_sets(&fp));
    }
}
