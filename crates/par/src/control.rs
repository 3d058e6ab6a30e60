//! Cooperative execution control: cancellation, deadlines and memory
//! budgets.
//!
//! Long mining runs need three things best-effort execution lacks: a way
//! to stop them ([`CancelToken`]), a bound on how long they may run (the
//! token's monotonic deadline), and a bound on how much memory the big
//! intermediate structures may take ([`MemoryBudget`]). All three are
//! *cooperative*: the hot loops check at natural boundaries (pool chunks,
//! mining passes, extraction pairs) and surface an [`Interrupt`] instead
//! of being torn down, so pools always drain and join cleanly and partial
//! metrics survive.
//!
//! A disabled token or an unlimited budget is a `None` inside — every
//! check is then a single branch, so the happy path pays nothing and the
//! output of an uncontrolled run is bit-identical to one that never heard
//! of this module.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a controlled computation stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Interrupt {
    /// [`CancelToken::cancel`] was called (or a `cancel` fail-point fired).
    Cancelled,
    /// The token's monotonic deadline passed.
    DeadlineExceeded,
    /// A worker closure panicked; the pool caught the payload, drained the
    /// remaining chunks and joined every thread before reporting it.
    WorkerPanic {
        /// The parallel stage the panic escaped from (e.g. `"extract/rows"`).
        stage: String,
        /// The panic payload, rendered as text.
        message: String,
    },
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "run cancelled"),
            Interrupt::DeadlineExceeded => write!(f, "deadline exceeded"),
            Interrupt::WorkerPanic { stage, message } => {
                write!(f, "worker panicked in stage {stage:?}: {message}")
            }
        }
    }
}

impl std::error::Error for Interrupt {}

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cheap, cloneable cancellation handle with an optional monotonic
/// deadline.
///
/// [`CancelToken::none`] (the default) is a disabled token: every check
/// is a no-op and can never fail, so uncontrolled code paths need no
/// `Option` plumbing. An enabled token is shared by cloning; any clone's
/// [`CancelToken::cancel`] stops every holder at its next check.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<TokenInner>>,
}

impl CancelToken {
    /// A disabled token: checks never fail. This is the default.
    pub fn none() -> CancelToken {
        CancelToken { inner: None }
    }

    /// An enabled token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// An enabled token whose deadline is `timeout` from now, measured on
    /// the monotonic clock.
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// An enabled token that expires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// True when this token can actually interrupt anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Requests cancellation: every holder fails its next check. No-op on
    /// a disabled token.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// Cheap poll: true when a check would fail right now. An explicit
    /// `cancel` is reported even after the deadline also passed.
    pub fn interrupted(&self) -> bool {
        self.status().is_some()
    }

    /// The pending interrupt, if any, without consuming anything.
    fn status(&self) -> Option<Interrupt> {
        let inner = self.inner.as_ref()?;
        if inner.cancelled.load(Ordering::Acquire) {
            return Some(Interrupt::Cancelled);
        }
        match inner.deadline {
            Some(d) if Instant::now() >= d => Some(Interrupt::DeadlineExceeded),
            _ => None,
        }
    }

    /// Cooperative checkpoint: `Ok(())` to keep going, `Err` when the
    /// token was cancelled or its deadline passed.
    pub fn check(&self) -> Result<(), Interrupt> {
        match self.status() {
            Some(i) => Err(i),
            None => Ok(()),
        }
    }
}

/// Byte-size estimate for budget accounting. Implemented by the structures
/// that dominate a mining run's memory (TID-lists, FP-trees, candidate
/// sets); the estimates are deliberately coarse — the budget is a guard
/// rail, not an allocator.
pub trait ApproxBytes {
    /// Approximate heap footprint in bytes.
    fn approx_bytes(&self) -> usize;
}

#[derive(Debug)]
struct BudgetInner {
    limit: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
}

/// A shared memory budget for the large intermediates of a mining run.
///
/// [`MemoryBudget::unlimited`] (the default) never rejects a reservation
/// and tracks nothing. A limited budget admits reservations up to its
/// byte limit; what a consumer does on rejection is its documented
/// degradation policy (Eclat and FP-Growth abort the offending branch and
/// lose its itemsets; Apriori only tracks usage). The high-water mark is
/// kept for the `robust/budget_bytes_peak` counter.
#[derive(Debug, Clone, Default)]
pub struct MemoryBudget {
    inner: Option<Arc<BudgetInner>>,
}

impl MemoryBudget {
    /// No limit, no tracking. This is the default.
    pub fn unlimited() -> MemoryBudget {
        MemoryBudget { inner: None }
    }

    /// A budget of `limit` bytes.
    pub fn bytes(limit: usize) -> MemoryBudget {
        MemoryBudget {
            inner: Some(Arc::new(BudgetInner {
                limit,
                used: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            })),
        }
    }

    /// True when reservations can actually fail.
    pub fn is_limited(&self) -> bool {
        self.inner.is_some()
    }

    /// Accounts `n` bytes and reports whether the total stays within the
    /// limit. The bytes are accounted *even when the answer is `false`* —
    /// a caller that degrades must pair the failed reservation with a
    /// [`MemoryBudget::release`] (guards do this automatically), and a
    /// caller that merely tracks (plain Apriori) can ignore the verdict.
    #[must_use = "a false return means the budget is exhausted; degrade or release"]
    pub fn reserve(&self, n: usize) -> bool {
        let Some(inner) = &self.inner else {
            return true;
        };
        let now = inner.used.fetch_add(n, Ordering::Relaxed) + n;
        inner.peak.fetch_max(now, Ordering::Relaxed);
        now <= inner.limit
    }

    /// Returns `n` previously reserved bytes (saturating).
    pub fn release(&self, n: usize) {
        if let Some(inner) = &self.inner {
            let mut cur = inner.used.load(Ordering::Relaxed);
            loop {
                let next = cur.saturating_sub(n);
                match inner.used.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    /// Currently accounted bytes (0 when unlimited).
    pub fn used(&self) -> usize {
        self.inner.as_ref().map(|i| i.used.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// High-water mark of accounted bytes (0 when unlimited).
    pub fn peak(&self) -> usize {
        self.inner.as_ref().map(|i| i.peak.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// The configured byte limit, or `None` when unlimited.
    pub fn limit(&self) -> Option<usize> {
        self.inner.as_ref().map(|i| i.limit)
    }

    /// Bytes still available before the limit (saturating at 0), or
    /// `None` when unlimited. A cheap planning input: strategy policies
    /// read it to avoid picking a backend whose working set cannot fit.
    pub fn headroom(&self) -> Option<usize> {
        self.inner
            .as_ref()
            .map(|i| i.limit.saturating_sub(i.used.load(Ordering::Relaxed)))
    }
}

/// RAII guard for a budget reservation: releases on drop. Obtained via
/// [`MemoryBudget::try_guard`].
#[derive(Debug)]
pub struct BudgetGuard<'a> {
    budget: &'a MemoryBudget,
    bytes: usize,
}

impl MemoryBudget {
    /// Reserves `n` bytes behind a guard that releases them on drop, or
    /// `None` when the budget is exhausted (in which case nothing stays
    /// accounted).
    pub fn try_guard(&self, n: usize) -> Option<BudgetGuard<'_>> {
        if self.reserve(n) {
            Some(BudgetGuard { budget: self, bytes: n })
        } else {
            self.release(n);
            None
        }
    }
}

impl Drop for BudgetGuard<'_> {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

/// Renders a panic payload as text (the common `&str`/`String` payloads;
/// anything else becomes a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_token_never_interrupts() {
        let t = CancelToken::none();
        assert!(!t.is_enabled());
        t.cancel();
        assert!(!t.interrupted());
        assert_eq!(t.check(), Ok(()));
        assert!(!CancelToken::default().is_enabled());
    }

    #[test]
    fn cancel_propagates_to_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert_eq!(clone.check(), Ok(()));
        t.cancel();
        assert_eq!(clone.check(), Err(Interrupt::Cancelled));
        assert!(clone.interrupted());
    }

    #[test]
    fn deadline_in_the_past_fails_future_passes() {
        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(expired.check(), Err(Interrupt::DeadlineExceeded));

        let distant = CancelToken::with_timeout(Duration::from_secs(3600));
        assert_eq!(distant.check(), Ok(()));
        // An explicit cancel wins over a pending deadline.
        let both = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        both.cancel();
        assert_eq!(both.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn budget_reserve_release_and_peak() {
        let b = MemoryBudget::bytes(100);
        assert!(b.is_limited());
        assert!(b.reserve(60));
        assert!(b.reserve(40));
        assert!(!b.reserve(1)); // 101 > 100, but still accounted
        b.release(1);
        assert_eq!(b.used(), 100);
        assert_eq!(b.peak(), 101);
        b.release(100);
        assert_eq!(b.used(), 0);
        assert_eq!(b.peak(), 101, "peak is a high-water mark");
        // Saturating release never underflows.
        b.release(1000);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn unlimited_budget_admits_everything() {
        let b = MemoryBudget::unlimited();
        assert!(!b.is_limited());
        assert!(b.reserve(usize::MAX / 2));
        assert_eq!(b.used(), 0);
        assert_eq!(b.peak(), 0);
        assert!(!MemoryBudget::default().is_limited());
    }

    #[test]
    fn budget_guard_releases_on_drop() {
        let b = MemoryBudget::bytes(10);
        {
            let g = b.try_guard(8).expect("8 of 10 fits");
            assert_eq!(b.used(), 8);
            assert!(b.try_guard(8).is_none(), "8 more does not fit");
            assert_eq!(b.used(), 8, "failed guard leaves nothing accounted");
            drop(g);
        }
        assert_eq!(b.used(), 0);
        assert_eq!(b.peak(), 16, "the failed attempt still moved the peak");
    }

    #[test]
    fn interrupt_display() {
        assert_eq!(Interrupt::Cancelled.to_string(), "run cancelled");
        assert_eq!(Interrupt::DeadlineExceeded.to_string(), "deadline exceeded");
        let p = Interrupt::WorkerPanic { stage: "s".into(), message: "boom".into() };
        assert!(p.to_string().contains("boom") && p.to_string().contains("\"s\""));
    }
}
