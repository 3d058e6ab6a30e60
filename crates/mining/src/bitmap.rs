//! Vertical transaction-id representations and the pass-2 counting kernel.
//!
//! Three layers live here:
//!
//! * [`TidSet`] — the word-packed `u64` bitset Eclat has always used,
//!   with popcount intersection counting and an early-aborting bounded
//!   variant;
//! * [`TidList`] — a *hybrid* TID set that stores sparse sets (fewer than
//!   one TID per [`SPARSE_FACTOR`] transactions) as sorted `u32` arrays
//!   and everything denser as a [`TidSet`], choosing the representation
//!   per set so memory tracks density instead of database size;
//! * [`TriangularC2`] + [`mine_vertical_levels`] — the vertical mining
//!   engine behind the `bitmap` counting strategy: pass 2 counts **all**
//!   of C₂ in one streaming scan of the encoded transactions through a
//!   triangular array indexed by item-pair rank (built after the KC+
//!   filters, so removed pairs never occupy a counter), and deeper passes
//!   run an Eclat-style equivalence-class DFS over materialised
//!   [`TidList`]s.
//!
//! The engine is exact: it produces the same itemsets and supports as
//! horizontal Apriori counting, bit for bit, at any thread count. Memory
//! for materialised lists is *tracked* against the run's [`MemoryBudget`]
//! (feeding the peak watermark) but never degrades the output — the
//! vertical strategy is a counting backend, not a lossy approximation.

use crate::filter::PairFilter;
use crate::item::{ItemId, TransactionSet};
use crate::result::FrequentItemset;
use geopattern_par::{
    try_par_map, ApproxBytes, CancelToken, Interrupt, MemoryBudget, Threads,
};

/// A transaction-id set as a packed bitset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TidSet {
    words: Vec<u64>,
}

impl TidSet {
    /// Empty set sized for `n` transactions.
    pub fn new(n: usize) -> TidSet {
        TidSet { words: vec![0; n.div_ceil(64)] }
    }

    /// Marks transaction `tid`.
    pub fn insert(&mut self, tid: usize) {
        self.words[tid / 64] |= 1u64 << (tid % 64);
    }

    /// True when `tid` is present.
    pub fn contains(&self, tid: usize) -> bool {
        self.words
            .get(tid / 64)
            .map(|w| w & (1u64 << (tid % 64)) != 0)
            .unwrap_or(false)
    }

    /// Cardinality (the itemset's support).
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Intersection with `other`.
    pub fn intersect(&self, other: &TidSet) -> TidSet {
        TidSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Approximate heap footprint, for budget accounting of materialised
    /// joins without building them first.
    pub fn projected_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u64>>()
    }

    /// Cardinality of the intersection with `other` if it reaches `min`,
    /// else `None` — aborting the word-wise scan as soon as the population
    /// count so far plus every remaining bit cannot reach `min`. Support
    /// checks fail far more often than they pass deep in the search, so
    /// the abort usually fires within a few words without materialising
    /// the joined set.
    pub fn intersection_count_bounded(&self, other: &TidSet, min: u64) -> Option<u64> {
        let n = self.words.len().min(other.words.len());
        let mut count = 0u64;
        let mut remaining = 64 * n as u64;
        for k in 0..n {
            remaining -= 64;
            count += (self.words[k] & other.words[k]).count_ones() as u64;
            if count + remaining < min {
                return None;
            }
        }
        (count >= min).then_some(count)
    }
}

impl ApproxBytes for TidSet {
    fn approx_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u64>>()
    }
}

/// Density threshold of the hybrid representation: a set stays sparse
/// while `count * SPARSE_FACTOR < n`. At 32, the sorted-u32 form (4 bytes
/// per TID) is chosen exactly while it is at least 4x smaller than the
/// `n / 8`-byte bitmap.
pub const SPARSE_FACTOR: usize = 32;

#[derive(Debug, Clone, PartialEq, Eq)]
enum TidRepr {
    Dense(TidSet),
    Sparse(Vec<u32>),
}

/// A hybrid TID set over `n` transactions: dense sets are word-packed
/// bitmaps counted by popcount, sparse sets are sorted `u32` arrays
/// walked by merge. The representation is chosen per set (and re-chosen
/// per intersection result) by [`SPARSE_FACTOR`], so a deep, low-support
/// branch costs memory proportional to its support, not to the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TidList {
    n: usize,
    count: u64,
    repr: TidRepr,
}

impl TidList {
    /// Builds from strictly ascending TIDs over `n` transactions,
    /// choosing the representation by density.
    pub fn from_sorted_tids(n: usize, tids: Vec<u32>) -> TidList {
        let count = tids.len() as u64;
        if tids.len().saturating_mul(SPARSE_FACTOR) < n {
            TidList { n, count, repr: TidRepr::Sparse(tids) }
        } else {
            let mut set = TidSet::new(n);
            for &t in &tids {
                set.insert(t as usize);
            }
            TidList { n, count, repr: TidRepr::Dense(set) }
        }
    }

    /// Cardinality — the itemset's support, cached at construction.
    pub fn support(&self) -> u64 {
        self.count
    }

    /// Number of transactions the set is sized for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// True when stored as a word-packed bitmap.
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, TidRepr::Dense(_))
    }

    /// `u64` words held by the dense form (0 when sparse) — the
    /// `mining/bitmap_words` metric.
    pub fn words(&self) -> usize {
        match &self.repr {
            TidRepr::Dense(set) => set.words.len(),
            TidRepr::Sparse(_) => 0,
        }
    }

    /// True when `tid` is present.
    pub fn contains(&self, tid: usize) -> bool {
        match &self.repr {
            TidRepr::Dense(set) => set.contains(tid),
            TidRepr::Sparse(tids) => tids.binary_search(&(tid as u32)).is_ok(),
        }
    }

    /// The member TIDs, ascending.
    pub fn tids(&self) -> Vec<u32> {
        match &self.repr {
            TidRepr::Dense(set) => {
                let mut out = Vec::with_capacity(self.count as usize);
                for (w, &word) in set.words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        out.push((w * 64) as u32 + b);
                        bits &= bits - 1;
                    }
                }
                out
            }
            TidRepr::Sparse(tids) => tids.clone(),
        }
    }

    /// Cardinality of the intersection with `other`.
    pub fn intersection_count(&self, other: &TidList) -> u64 {
        match (&self.repr, &other.repr) {
            (TidRepr::Dense(a), TidRepr::Dense(b)) => a.intersect(b).count(),
            (TidRepr::Sparse(tids), TidRepr::Dense(set))
            | (TidRepr::Dense(set), TidRepr::Sparse(tids)) => {
                tids.iter().filter(|&&t| set.contains(t as usize)).count() as u64
            }
            (TidRepr::Sparse(a), TidRepr::Sparse(b)) => merge_count(a, b),
        }
    }

    /// Cardinality of the intersection with `other` if it reaches `min`,
    /// else `None`, aborting the scan as soon as the count so far plus
    /// every element still unseen cannot reach `min` (the same bound the
    /// dense [`TidSet`] uses, carried to every representation pair).
    pub fn intersection_count_bounded(&self, other: &TidList, min: u64) -> Option<u64> {
        match (&self.repr, &other.repr) {
            (TidRepr::Dense(a), TidRepr::Dense(b)) => a.intersection_count_bounded(b, min),
            (TidRepr::Sparse(tids), TidRepr::Dense(set))
            | (TidRepr::Dense(set), TidRepr::Sparse(tids)) => {
                let mut count = 0u64;
                let mut remaining = tids.len() as u64;
                for &t in tids {
                    if count + remaining < min {
                        return None;
                    }
                    remaining -= 1;
                    if set.contains(t as usize) {
                        count += 1;
                    }
                }
                (count >= min).then_some(count)
            }
            (TidRepr::Sparse(a), TidRepr::Sparse(b)) => {
                let (mut i, mut j) = (0usize, 0usize);
                let mut count = 0u64;
                loop {
                    let remaining = (a.len() - i).min(b.len() - j) as u64;
                    if count + remaining < min {
                        return None;
                    }
                    if i == a.len() || j == b.len() {
                        break;
                    }
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            count += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                (count >= min).then_some(count)
            }
        }
    }

    /// Intersection with `other`, re-choosing the result's representation
    /// by its own density.
    pub fn intersect(&self, other: &TidList) -> TidList {
        match (&self.repr, &other.repr) {
            (TidRepr::Dense(a), TidRepr::Dense(b)) => {
                let joined = a.intersect(b);
                let count = joined.count();
                if (count as usize).saturating_mul(SPARSE_FACTOR) < self.n {
                    // Too sparse to keep as words: shrink to the array form.
                    TidList::from_sorted_tids(
                        self.n,
                        TidList { n: self.n, count, repr: TidRepr::Dense(joined) }.tids(),
                    )
                } else {
                    TidList { n: self.n, count, repr: TidRepr::Dense(joined) }
                }
            }
            (TidRepr::Sparse(tids), TidRepr::Dense(set))
            | (TidRepr::Dense(set), TidRepr::Sparse(tids)) => {
                let out: Vec<u32> =
                    tids.iter().copied().filter(|&t| set.contains(t as usize)).collect();
                TidList::from_sorted_tids(self.n, out)
            }
            (TidRepr::Sparse(a), TidRepr::Sparse(b)) => {
                let mut out = Vec::new();
                let (mut i, mut j) = (0usize, 0usize);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                TidList::from_sorted_tids(self.n, out)
            }
        }
    }
}

impl ApproxBytes for TidList {
    /// Length-based (not capacity-based) so budget accounting is
    /// deterministic across allocator behaviour and thread counts.
    fn approx_bytes(&self) -> usize {
        let payload = match &self.repr {
            TidRepr::Dense(set) => set.words.len() * std::mem::size_of::<u64>(),
            TidRepr::Sparse(tids) => tids.len() * std::mem::size_of::<u32>(),
        };
        payload + std::mem::size_of::<TidList>()
    }
}

/// Two-pointer cardinality of the intersection of sorted slices.
fn merge_count(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Sentinel for "no rank" / "no counter": this item is infrequent, or
/// this pair was removed by the KC+ filters before counting.
pub const NO_SLOT: u32 = u32::MAX;

/// The pass-2 kernel: a triangular array of counters indexed by
/// item-pair rank.
///
/// Frequent items get ranks `0..F` in id order; pair `(rᵢ, rⱼ)` with
/// `rᵢ < rⱼ` maps to slot `rᵢ·F − rᵢ(rᵢ+1)/2 + (rⱼ − rᵢ − 1)` of a flat
/// `F(F−1)/2` array. Built *after* the Φ-dependency and same-feature-type
/// filters, filtered pairs hold [`NO_SLOT`] and never occupy (or touch) a
/// counter. One streaming scan over the encoded transactions then counts
/// **all** of C₂: per transaction, project to frequent-item ranks and
/// bump one array cell per surviving pair — no hashing, no trie walk, no
/// per-candidate subset enumeration.
pub struct TriangularC2 {
    /// item id → rank among frequent items, or [`NO_SLOT`].
    rank: Vec<u32>,
    /// Number of frequent items `F`.
    num_ranks: usize,
    /// pair rank → candidate index, or [`NO_SLOT`] for filtered pairs.
    slot: Vec<u32>,
}

impl TriangularC2 {
    /// Builds the kernel for `candidates` (the post-filter C₂, each a
    /// sorted pair of frequent items) over a catalog of `num_items` items
    /// with frequent items `l1` (ascending).
    pub fn new(num_items: usize, l1: &[ItemId], candidates: &[Vec<ItemId>]) -> TriangularC2 {
        let mut rank = vec![NO_SLOT; num_items];
        for (r, &item) in l1.iter().enumerate() {
            rank[item as usize] = r as u32;
        }
        let f = l1.len();
        let mut slot = vec![NO_SLOT; f * f.saturating_sub(1) / 2];
        let kernel = TriangularC2 { rank, num_ranks: f, slot: Vec::new() };
        for (pos, pair) in candidates.iter().enumerate() {
            let ri = kernel.rank[pair[0] as usize] as usize;
            let rj = kernel.rank[pair[1] as usize] as usize;
            slot[Self::tri_index(f, ri, rj)] = pos as u32;
        }
        TriangularC2 { slot, ..kernel }
    }

    /// Flat index of pair `(ri, rj)`, `ri < rj`, in the triangular array.
    fn tri_index(f: usize, ri: usize, rj: usize) -> usize {
        ri * f - ri * (ri + 1) / 2 + (rj - ri - 1)
    }

    /// Counts every surviving pair of `chunk` into `counts` (one cell per
    /// candidate, same order as the `candidates` slice given to
    /// [`TriangularC2::new`]). Transactions are sorted and deduplicated,
    /// so projected ranks are strictly ascending and each unordered pair
    /// is visited exactly once.
    pub fn count_chunk(&self, chunk: &[Vec<ItemId>], counts: &mut [u64]) {
        let f = self.num_ranks;
        let mut ranks: Vec<u32> = Vec::new();
        for t in chunk {
            ranks.clear();
            for &i in t {
                let r = self.rank[i as usize];
                if r != NO_SLOT {
                    ranks.push(r);
                }
            }
            for (i, &ri) in ranks.iter().enumerate() {
                let ri = ri as usize;
                let off = ri * f - ri * (ri + 1) / 2;
                for &rj in &ranks[i + 1..] {
                    let s = self.slot[off + (rj as usize - ri - 1)];
                    if s != NO_SLOT {
                        counts[s as usize] += 1;
                    }
                }
            }
        }
    }
}

/// What [`mine_vertical_levels`] found beyond level 2.
#[derive(Debug, Default)]
pub struct VerticalOutcome {
    /// Frequent itemsets per level, `levels[0]` holding the 3-sets; each
    /// level lexicographically sorted — the same order horizontal Apriori
    /// emits.
    pub levels: Vec<Vec<FrequentItemset>>,
    /// Extensions whose support was evaluated per level (the vertical
    /// analogue of the candidate count), `attempts_per_level[0]` for k=3.
    pub attempts_per_level: Vec<usize>,
    /// Total `u64` words across the materialised per-item hybrid lists —
    /// the `mining/bitmap_words` metric.
    pub bitmap_words: u64,
}

/// Mines every frequent itemset of size ≥ 3 from the frequent items `l1`
/// and the frequent post-filter pairs `l2` by equivalence-class DFS over
/// materialised hybrid [`TidList`]s. Each class member is an item
/// extending the class prefix together with the TID list of
/// `prefix ∪ {item}`.
///
/// Classes (one per first item of an `l2` pair) are independent, so they
/// fan out on the pool; per-class results are merged in item order and
/// each output level is sorted lexicographically, so the output — and
/// every metric derived from it — is identical at any thread count.
/// Memory for materialised lists is
/// reserved against `budget` for the lifetime of each class (feeding the
/// peak watermark) but never rejects work: the vertical engine is an
/// exact counting backend, not a degradation point.
#[allow(clippy::too_many_arguments)]
pub fn mine_vertical_levels(
    data: &TransactionSet,
    l1: &[FrequentItemset],
    l2: &[FrequentItemset],
    threshold: u64,
    filter: &PairFilter,
    threads: Threads,
    cancel: &CancelToken,
    budget: &MemoryBudget,
) -> Result<VerticalOutcome, Interrupt> {
    let mut outcome = VerticalOutcome::default();
    if l2.is_empty() {
        return Ok(outcome);
    }
    let n = data.len();

    // Vertical build: one pass over the transactions, TIDs ascending by
    // construction. `rank` maps item id → index into `item_tids`.
    let num_items = data.catalog.len();
    let mut rank = vec![NO_SLOT; num_items];
    for (r, f) in l1.iter().enumerate() {
        rank[f.items[0] as usize] = r as u32;
    }
    let mut item_tids: Vec<Vec<u32>> = vec![Vec::new(); l1.len()];
    for (tid, t) in data.transactions().iter().enumerate() {
        for &i in t {
            let r = rank[i as usize];
            if r != NO_SLOT {
                item_tids[r as usize].push(tid as u32);
            }
        }
    }
    // The hybrid per-item lists, materialised once and shared read-only
    // by every class.
    let item_lists: Vec<TidList> =
        item_tids.into_iter().map(|tids| TidList::from_sorted_tids(n, tids)).collect();
    outcome.bitmap_words = item_lists.iter().map(|l| l.words() as u64).sum();

    // Group `l2` (lexicographic) into equivalence classes by first item.
    let mut classes: Vec<(usize, &[FrequentItemset])> = Vec::new();
    let mut start = 0usize;
    while start < l2.len() {
        let root = l2[start].items[0];
        let mut end = start + 1;
        while end < l2.len() && l2[end].items[0] == root {
            end += 1;
        }
        classes.push((rank[root as usize] as usize, &l2[start..end]));
        start = end;
    }

    struct ClassResult {
        found: Vec<FrequentItemset>,
        attempts: Vec<usize>,
    }

    let per_class = try_par_map(
        threads,
        cancel,
        "mining/apriori.vertical",
        &classes,
        |_, &(root_rank, pairs)| {
            let mut res = ClassResult { found: Vec::new(), attempts: Vec::new() };
            if pairs.len() < 2 {
                return res; // nothing to join: no 3-set can form here
            }
            // Materialise the class members. Supports come from the
            // triangular pass-2 counts carried in `l2` — never recounted.
            let mut member_bytes = 0usize;
            let members: Vec<(ItemId, TidList)> = pairs
                .iter()
                .map(|pair| {
                    let z = pair.items[1];
                    let zr = rank[z as usize] as usize;
                    let joined = item_lists[root_rank].intersect(&item_lists[zr]);
                    member_bytes += joined.approx_bytes();
                    (z, joined)
                })
                .collect();
            // Track-only reservation for the lifetime of the class.
            let _ = budget.reserve(member_bytes);
            let root = pairs[0].items[0];
            let mut prefix = vec![root];
            extend_class(
                &members,
                &mut prefix,
                0,
                threshold,
                filter,
                budget,
                &mut res.attempts,
                &mut res.found,
            );
            budget.release(member_bytes);
            res
        },
    )?;

    // Deterministic merge in class (item) order.
    let mut found: Vec<FrequentItemset> = Vec::new();
    for res in per_class {
        for (depth, &attempts) in res.attempts.iter().enumerate() {
            if outcome.attempts_per_level.len() <= depth {
                outcome.attempts_per_level.push(0);
            }
            outcome.attempts_per_level[depth] += attempts;
        }
        found.extend(res.found);
    }

    // Group by size; DFS from sorted pairs is already lexicographic per
    // level, the sort is a cheap invariant guarantee.
    let max_k = found.iter().map(|f| f.items.len()).max().unwrap_or(2);
    let mut levels: Vec<Vec<FrequentItemset>> = vec![Vec::new(); max_k.saturating_sub(2)];
    for f in found {
        let k = f.items.len();
        levels[k - 3].push(f);
    }
    for level in &mut levels {
        level.sort_by(|a, b| a.items.cmp(&b.items));
    }
    outcome.levels = levels;
    Ok(outcome)
}

/// One DFS step: joins every ordered member pair `(yᵢ, yⱼ)` of the class
/// into the candidate class `prefix ∪ {yᵢ}`, emits the frequent results
/// and recurses.
///
/// The only filter check needed is `blocks(yᵢ, yⱼ)`: by induction, every
/// pair inside `prefix ∪ {yᵢ}` was checked when its members entered a
/// class, and `(p, yⱼ)` for `p ∈ prefix` was checked when `yⱼ` entered
/// the *current* class.
#[allow(clippy::too_many_arguments)]
fn extend_class(
    members: &[(ItemId, TidList)],
    prefix: &mut Vec<ItemId>,
    depth: usize,
    threshold: u64,
    filter: &PairFilter,
    budget: &MemoryBudget,
    attempts: &mut Vec<usize>,
    out: &mut Vec<FrequentItemset>,
) {
    if attempts.len() <= depth {
        attempts.push(0);
    }
    for (i, (yi, ti)) in members.iter().enumerate() {
        let mut new_members: Vec<(ItemId, TidList)> = Vec::new();
        let mut new_bytes = 0usize;
        for (yj, tj) in &members[i + 1..] {
            if filter.blocks(*yi, *yj) {
                continue;
            }
            attempts[depth] += 1;
            // Bounded count first: most joins fail the support check, and
            // the bound aborts without materialising.
            let Some(support) = ti.intersection_count_bounded(tj, threshold) else {
                continue;
            };
            let mut items = prefix.clone();
            items.push(*yi);
            items.push(*yj);
            out.push(FrequentItemset { items, support });
            let joined = ti.intersect(tj);
            new_bytes += joined.approx_bytes();
            new_members.push((*yj, joined));
        }
        if new_members.len() >= 2 {
            let _ = budget.reserve(new_bytes);
            prefix.push(*yi);
            extend_class(
                &new_members,
                prefix,
                depth + 1,
                threshold,
                filter,
                budget,
                attempts,
                out,
            );
            prefix.pop();
            budget.release(new_bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemCatalog;

    fn list(n: usize, tids: &[u32]) -> TidList {
        TidList::from_sorted_tids(n, tids.to_vec())
    }

    #[test]
    fn hybrid_chooses_representation_by_density() {
        // 3 of 1000: sparse (3 * 32 < 1000).
        assert!(!list(1000, &[1, 500, 999]).is_dense());
        // 40 of 1000: dense (40 * 32 >= 1000).
        let dense = TidList::from_sorted_tids(1000, (0..40).collect());
        assert!(dense.is_dense());
        assert_eq!(dense.words(), 1000usize.div_ceil(64));
        // Tiny database: even one TID is dense.
        assert!(list(10, &[3]).is_dense());
        assert_eq!(list(1000, &[1, 500, 999]).words(), 0);
    }

    #[test]
    fn hybrid_intersections_match_across_representations() {
        let n = 2048;
        let a_tids: Vec<u32> = (0..n as u32).filter(|t| t % 3 == 0).collect(); // dense
        let b_tids: Vec<u32> = (0..n as u32).filter(|t| t % 5 == 0).collect(); // dense
        let c_tids: Vec<u32> = (0..n as u32).filter(|t| t % 97 == 0).collect(); // sparse
        let a = list(n, &a_tids);
        let b = list(n, &b_tids);
        let c = list(n, &c_tids);
        assert!(a.is_dense() && b.is_dense() && !c.is_dense());
        let expect = |x: &[u32], y: &[u32]| x.iter().filter(|t| y.contains(t)).count() as u64;
        for (x, xt, y, yt) in [
            (&a, &a_tids, &b, &b_tids),
            (&a, &a_tids, &c, &c_tids),
            (&c, &c_tids, &a, &a_tids),
            (&c, &c_tids, &c, &c_tids),
        ] {
            let exact = expect(xt, yt);
            assert_eq!(x.intersection_count(y), exact);
            assert_eq!(x.intersect(y).support(), exact);
            assert_eq!(x.intersect(y).tids(), {
                let mut v: Vec<u32> = xt.iter().copied().filter(|t| yt.contains(t)).collect();
                v.sort_unstable();
                v
            });
            for min in [0, exact.saturating_sub(1), exact, exact + 1, u64::MAX] {
                let got = x.intersection_count_bounded(y, min);
                assert_eq!(got, (exact >= min).then_some(exact), "min={min}");
            }
        }
    }

    #[test]
    fn intersect_downgrades_dense_results_to_sparse() {
        let n = 4096;
        // Two dense lists whose overlap is tiny: result must be sparse.
        let a: Vec<u32> = (0..2048).collect();
        let b: Vec<u32> = (2040..4096).collect();
        let (la, lb) = (list(n, &a), list(n, &b));
        assert!(la.is_dense() && lb.is_dense());
        let joined = la.intersect(&lb);
        assert_eq!(joined.support(), 8);
        assert!(!joined.is_dense(), "8 of 4096 must shrink to the array form");
        assert_eq!(joined.tids(), (2040..2048).collect::<Vec<u32>>());
    }

    #[test]
    fn sparse_factor_boundary_pins_representation_re_choice() {
        // The exact boundary is a contract: a set of `count` TIDs over `n`
        // transactions is sparse iff `count * SPARSE_FACTOR < n`.
        let n = 4096;
        let boundary = n / SPARSE_FACTOR; // 128: first dense cardinality
        let below: Vec<u32> = (0..boundary as u32 - 1).collect();
        let at: Vec<u32> = (0..boundary as u32).collect();
        assert!(!list(n, &below).is_dense(), "count*32 < n must stay sparse");
        assert!(list(n, &at).is_dense(), "count*32 == n must go dense");

        // The same boundary governs re-choice after intersection: two
        // dense inputs whose overlap straddles the threshold must land on
        // the matching side.
        let a: Vec<u32> = (0..2048).collect();
        let hi_start = 2048 - boundary as u32;
        let overlap_at = list(n, &a).intersect(&list(n, &(hi_start..4096).collect::<Vec<u32>>()));
        assert_eq!(overlap_at.support(), boundary as u64);
        assert!(overlap_at.is_dense(), "a boundary-sized result must re-choose dense");
        let overlap_below =
            list(n, &a).intersect(&list(n, &(hi_start + 1..4096).collect::<Vec<u32>>()));
        assert_eq!(overlap_below.support(), boundary as u64 - 1);
        assert!(!overlap_below.is_dense(), "one below the boundary must re-choose sparse");
    }

    #[test]
    fn triangular_kernel_counts_all_pairs_once() {
        let mut c = ItemCatalog::new();
        for l in ["a", "b", "c", "d", "e"] {
            c.intern_attribute(l);
        }
        let mut ts = TransactionSet::new(c);
        ts.push(vec![0, 1, 2]);
        ts.push(vec![0, 1, 3]);
        ts.push(vec![0, 2, 3]);
        ts.push(vec![1, 2, 4]);
        // Frequent items: all five; candidates: every pair except a
        // "filtered" one, (1,2).
        let l1: Vec<ItemId> = vec![0, 1, 2, 3, 4];
        let mut candidates: Vec<Vec<ItemId>> = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5u32 {
                if (i, j) != (1, 2) {
                    candidates.push(vec![i, j]);
                }
            }
        }
        let kernel = TriangularC2::new(5, &l1, &candidates);
        let mut counts = vec![0u64; candidates.len()];
        kernel.count_chunk(ts.transactions(), &mut counts);
        let count_of = |a: u32, b: u32| {
            counts[candidates.iter().position(|c| c == &vec![a, b]).unwrap()]
        };
        assert_eq!(count_of(0, 1), 2);
        assert_eq!(count_of(0, 2), 2);
        assert_eq!(count_of(0, 3), 2);
        assert_eq!(count_of(1, 3), 1);
        assert_eq!(count_of(2, 4), 1);
        assert_eq!(count_of(3, 4), 0);
        // The filtered pair occupied no counter and disturbed none.
        assert_eq!(counts.len(), 9);
    }

    #[test]
    fn triangular_kernel_chunks_sum_to_whole() {
        let mut c = ItemCatalog::new();
        for i in 0..6 {
            c.intern_attribute(format!("i{i}"));
        }
        let mut ts = TransactionSet::new(c);
        for t in 0..64u32 {
            ts.push((0..6).filter(|&i| (t >> i) & 1 == 1).collect());
        }
        let l1: Vec<ItemId> = (0..6).collect();
        let mut candidates = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6u32 {
                candidates.push(vec![i, j]);
            }
        }
        let kernel = TriangularC2::new(6, &l1, &candidates);
        let mut whole = vec![0u64; candidates.len()];
        kernel.count_chunk(ts.transactions(), &mut whole);
        let mut summed = vec![0u64; candidates.len()];
        for chunk in ts.transactions().chunks(7) {
            kernel.count_chunk(chunk, &mut summed);
        }
        assert_eq!(whole, summed);
        // Each pair appears in exactly 16 of the 64 bitmask transactions.
        assert!(whole.iter().all(|&c| c == 16));
    }
}
