//! The "properly balanced retry loop" §5.3 requires around shared
//! storage access: transient failures and throttles retry with
//! exponential backoff; permanent errors (NotFound, schema violations)
//! surface immediately so queries stay cancelable.
//!
//! [`crate::RetryFs`] is this loop's only caller — and, for a batch of
//! ranged reads, the caller of [`RetryPolicy::retry_after`], the same
//! rule applied part by part: layers above it (the depot, the catalog
//! sync) issue each request once.

use std::time::Duration;

use eon_types::{EonError, Result};

/// Backoff policy for shared-storage requests.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum number of attempts (including the first).
    pub max_attempts: u32,
    /// Sleep before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Cap on a single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(20),
        }
    }
}

impl RetryPolicy {
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << attempt.min(16));
        exp.min(self.max_backoff)
    }

    /// The wait before re-issuing a request whose attempt `attempt`
    /// (0-based) failed with `e`, or `None` when `e` is final: terminal,
    /// or the last attempt. Throttles back off twice as hard as plain
    /// failures — the service is telling us to slow down, and hammering
    /// it is how you stay throttled.
    pub(crate) fn retry_after(&self, attempt: u32, e: &EonError) -> Option<Duration> {
        if !e.is_transient() || attempt + 1 >= self.max_attempts {
            return None;
        }
        let sleep = self.backoff(attempt);
        Some(match e {
            EonError::Throttled => sleep.saturating_mul(2).min(self.max_backoff),
            _ => sleep,
        })
    }
}

/// Run `op`, retrying transient errors per `policy`; `on_retry` runs
/// once per retry, before the backoff sleep, so the caller can count
/// re-issued requests without this loop knowing about metrics.
pub(crate) fn with_retry<T>(
    policy: &RetryPolicy,
    mut on_retry: impl FnMut(),
    mut op: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut attempt = 0;
    loop {
        let e = match op() {
            Ok(v) => return Ok(v),
            Err(e) => e,
        };
        let Some(sleep) = policy.retry_after(attempt, &e) else {
            return Err(e);
        };
        on_retry();
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn succeeds_after_transient_failures() {
        let calls = AtomicU32::new(0);
        let mut retries = 0;
        let policy = RetryPolicy {
            base_backoff: Duration::ZERO,
            ..Default::default()
        };
        let out = with_retry(&policy, || retries += 1, || {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(EonError::Throttled)
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(retries, 2);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let calls = AtomicU32::new(0);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let out: Result<()> = with_retry(&policy, || {}, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(EonError::Storage("boom".into()))
        });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        let calls = AtomicU32::new(0);
        let out: Result<()> = with_retry(&RetryPolicy::default(), || {}, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(EonError::NotFound("k".into()))
        });
        assert!(matches!(out, Err(EonError::NotFound(_))));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn one_attempt_policy_tries_once() {
        let calls = AtomicU32::new(0);
        let policy = RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        };
        let out: Result<()> = with_retry(&policy, || {}, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(EonError::Throttled)
        });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn backoff_is_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(1));
        assert_eq!(p.backoff(1), Duration::from_millis(2));
        assert_eq!(p.backoff(5), Duration::from_millis(4)); // capped
        assert_eq!(p.backoff(31), Duration::from_millis(4)); // no overflow
    }
}
