//! Shared fault-tolerance plumbing for the three miners.
//!
//! Each miner checks its [`CancelToken`] at pass boundaries, reports every
//! enabled check on the `robust/cancel_checks` counter, fires its
//! fail-point sites, and records the budget high-water mark on
//! `robust/budget_bytes_peak` when a [`MemoryBudget`] is limited. The
//! counters are recorded *only* when the corresponding control is enabled
//! and only at thread-count-independent sites, so instrumented runs stay
//! bit-identical (metrics included) across thread counts.

use geopattern_obs::Recorder;
use geopattern_par::{CancelToken, Interrupt, MemoryBudget};

/// Cooperative pass-boundary checkpoint: counts the check (enabled tokens
/// only) and surfaces a pending interrupt.
pub(crate) fn checkpoint(cancel: &CancelToken, rec: &Recorder) -> Result<(), Interrupt> {
    if cancel.is_enabled() {
        rec.counter("robust/cancel_checks", 1);
        cancel.check()?;
    }
    Ok(())
}

/// Fires the fail-point `site`; a `cancel` action trips the token (a
/// `panic` action panics inside [`geopattern_testkit::failpoint::trigger`]
/// itself). Disarmed cost: one atomic load.
#[inline]
pub(crate) fn fire(site: &str, cancel: &CancelToken) {
    if geopattern_testkit::failpoint::trigger(site) {
        cancel.cancel();
    }
}

/// Records the budget high-water mark at the end of a run.
pub(crate) fn record_budget_peak(budget: &MemoryBudget, rec: &Recorder) {
    if budget.is_limited() {
        rec.record("robust/budget_bytes_peak", budget.peak() as u64);
    }
}

/// Approximate heap bytes of a `Vec<Vec<T>>` (the shape of candidate sets
/// and TID-list databases). Free function rather than an `ApproxBytes`
/// impl because both `Vec` and the trait are foreign to this crate.
pub(crate) fn nested_vec_bytes<T>(v: &[Vec<T>]) -> usize {
    v.iter()
        .map(|inner| inner.capacity() * std::mem::size_of::<T>() + std::mem::size_of::<Vec<T>>())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_counts_only_enabled_tokens() {
        let rec = Recorder::new();
        checkpoint(&CancelToken::none(), &rec).expect("disabled token passes");
        assert_eq!(rec.snapshot().counter("robust/cancel_checks"), None);

        let token = CancelToken::new();
        checkpoint(&token, &rec).expect("untripped token passes");
        assert_eq!(rec.snapshot().counter("robust/cancel_checks"), Some(1));

        token.cancel();
        assert_eq!(checkpoint(&token, &rec), Err(Interrupt::Cancelled));
        assert_eq!(
            rec.snapshot().counter("robust/cancel_checks"),
            Some(2),
            "the failing check counts"
        );
    }

    #[test]
    fn degradation_and_peak_skip_unlimited_budgets() {
        // Eclat is a degrading miner: three always-together items need a
        // materialised join for the 3-set, which a zero budget refuses.
        use crate::eclat::{try_mine_eclat, EclatConfig};
        use crate::item::{ItemCatalog, TransactionSet};
        use crate::result::MinSupport;
        let mut catalog = ItemCatalog::new();
        for name in ["a", "b", "c"] {
            catalog.intern_attribute(name);
        }
        let mut data = TransactionSet::new(catalog);
        for _ in 0..3 {
            data.push(vec![0, 1, 2]);
        }
        let run = |budget: MemoryBudget| {
            let rec = Recorder::new();
            let config = EclatConfig::new(MinSupport::Count(1))
                .with_budget(budget)
                .with_recorder(rec.clone());
            try_mine_eclat(&data, &config).expect("budgets never fail a run");
            rec.snapshot()
        };

        let unlimited = run(MemoryBudget::unlimited());
        assert_eq!(unlimited.counter("robust/degradations"), None);
        assert!(unlimited.histogram("robust/budget_bytes_peak").is_none());

        let limited = run(MemoryBudget::bytes(0));
        assert!(limited.counter("robust/degradations").unwrap_or(0) >= 1);
        assert!(limited.histogram("robust/budget_bytes_peak").is_some());
    }

    #[test]
    fn nested_vec_bytes_scales_with_content() {
        let small: Vec<Vec<u64>> = vec![vec![1, 2]];
        let large: Vec<Vec<u64>> = vec![vec![0; 1000], vec![0; 1000]];
        assert!(nested_vec_bytes(&large) > nested_vec_bytes(&small));
        assert!(nested_vec_bytes(&large) >= 16_000);
        let empty: Vec<Vec<u64>> = Vec::new();
        assert_eq!(nested_vec_bytes(&empty), 0);
    }
}
