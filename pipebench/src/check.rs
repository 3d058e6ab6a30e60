//! Output verification: every op's output is compared with a serial
//! reference run made at set-up, and (at the default seed) with counts
//! pinned in the workload definitions.

use geopattern::mining::{ItemId, MiningResult};

/// The frequent itemsets of one mining run with their supports, in a
/// canonical order, plus the number of rules generated from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinedOutput {
    pub itemsets: Vec<(Vec<ItemId>, u64)>,
    pub rules: usize,
}

impl MinedOutput {
    pub fn new(result: &MiningResult, rules: usize) -> MinedOutput {
        let mut itemsets: Vec<(Vec<ItemId>, u64)> =
            result.all().map(|f| (f.items.clone(), f.support)).collect();
        itemsets.sort_unstable();
        MinedOutput { itemsets, rules }
    }

    /// `Ok` when `got` equals this (expected) output exactly.
    pub fn check(&self, got: &MinedOutput, what: &str) -> Result<(), String> {
        if got.itemsets != self.itemsets {
            let first_diff = self
                .itemsets
                .iter()
                .zip(&got.itemsets)
                .position(|(e, g)| e != g)
                .unwrap_or(self.itemsets.len().min(got.itemsets.len()));
            return Err(format!(
                "{what}: {} frequent itemsets, expected {} (first difference at #{first_diff})",
                got.itemsets.len(),
                self.itemsets.len()
            ));
        }
        if got.rules != self.rules {
            return Err(format!(
                "{what}: {} rules, expected {}",
                got.rules, self.rules
            ));
        }
        Ok(())
    }

    /// `Ok` when the itemset and rule counts equal the pinned ones.
    pub fn check_pinned(&self, itemsets: usize, rules: usize, what: &str) -> Result<(), String> {
        if (self.itemsets.len(), self.rules) != (itemsets, rules) {
            return Err(format!(
                "{what}: {} frequent itemsets and {} rules, pinned {itemsets} and {rules}",
                self.itemsets.len(),
                self.rules
            ));
        }
        Ok(())
    }
}

/// `Ok` when `a == b`, else an error naming the quantity.
pub fn equal<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: T,
    expected: T,
) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {expected:?}"))
    }
}
