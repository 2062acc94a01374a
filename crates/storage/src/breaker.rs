//! Circuit breaker for shared-storage access (DESIGN.md "Failure
//! detection & degraded modes").
//!
//! The §5.3 retry loop handles *transient* S3 failures; a **brownout**
//! — minutes of the store answering nothing — makes every operation
//! grind through its full backoff budget before failing, and every new
//! operation starts the grind over (a retry storm against a service
//! that is already down). The breaker sits under [`crate::RetryFs`]
//! and converts that into fast, typed failure:
//!
//! * **Closed** — normal service. Each operation whose retry budget is
//!   exhausted on a transient error counts one consecutive failure;
//!   `failure_threshold` of them in a row open the breaker. Terminal
//!   errors (NotFound/NoSuchKey, precondition violations) prove the
//!   store *answered* and reset the streak — they never trip it.
//! * **Open** — every admission fast-fails with
//!   [`EonError::StoreUnavailable`] without touching the store. The
//!   cooldown is counted in **fast-failed admissions**, not wall
//!   clock, so the half-open point is deterministic under the repo's
//!   determinism rules: after `cooldown` rejections the next admission
//!   goes through as a probe.
//! * **HalfOpen** — admissions are probes. `half_open_probes`
//!   successes close the breaker; any transient failure re-opens it
//!   (and restarts the cooldown).
//!
//! Depot reads never reach the breaker on a cache hit, which is what
//! keeps depot-only reads serving through a brownout while writes and
//! cache misses reject fast.

use std::sync::Arc;

use eon_obs::{Counter, Registry};
use eon_types::{EonError, Result};
use parking_lot::Mutex;

/// Breaker thresholds, all counted in operations (deterministic).
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive exhausted-retry failures that open the breaker. One
    /// per logical operation: [`crate::RetryFs`] is the only retry
    /// loop, so a failed depot write or catalog upload counts once.
    pub failure_threshold: u32,
    /// Fast-failed admissions while open before the breaker half-opens.
    pub cooldown: u32,
    /// Probe successes in half-open before the breaker closes.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: 8,
            half_open_probes: 1,
        }
    }
}

/// Where the breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    /// Consecutive exhausted-retry failures while closed.
    consecutive_failures: u32,
    /// Admissions fast-failed since the breaker opened.
    fast_fails: u32,
    /// Probe successes since the breaker half-opened.
    probe_successes: u32,
}

/// The breaker itself. Shared (`Arc`) between [`crate::RetryFs`] and
/// the admission front doors in `eon-core`.
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<Inner>,
    opened: Arc<Counter>,
    fast_failed: Arc<Counter>,
    closed: Arc<Counter>,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig) -> Arc<Self> {
        Self::with_metrics(config, &Registry::new())
    }

    /// A breaker whose trip/fast-fail/close counters land in
    /// `registry`. Registered as `Seeded`: state transitions are a pure
    /// function of the operation outcome sequence, which is itself
    /// deterministic in seeded serial schedules.
    pub fn with_metrics(config: BreakerConfig, registry: &Registry) -> Arc<Self> {
        let labels: &[(&str, &str)] = &[("subsystem", "breaker")];
        Arc::new(CircuitBreaker {
            config: BreakerConfig {
                failure_threshold: config.failure_threshold.max(1),
                cooldown: config.cooldown.max(1),
                half_open_probes: config.half_open_probes.max(1),
                // (struct update spelled out so sanitation is visible)
            },
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                fast_fails: 0,
                probe_successes: 0,
            }),
            opened: registry.counter("breaker_opened_total", labels),
            fast_failed: registry.counter("breaker_fast_fails_total", labels),
            closed: registry.counter("breaker_closed_total", labels),
        })
    }

    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    pub fn is_open(&self) -> bool {
        self.state() == BreakerState::Open
    }

    /// Gate one operation. `Ok(())` admits it (closed, or as a
    /// half-open probe); `Err(StoreUnavailable)` fast-fails it and
    /// advances the cooldown. After exactly `cooldown` fast-fails the
    /// next admission half-opens the breaker and goes through.
    pub fn admit(&self) -> Result<()> {
        let mut g = self.inner.lock();
        match g.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open => {
                if g.fast_fails >= self.config.cooldown {
                    g.state = BreakerState::HalfOpen;
                    g.probe_successes = 0;
                    Ok(())
                } else {
                    g.fast_fails += 1;
                    self.fast_failed.inc();
                    Err(EonError::StoreUnavailable(format!(
                        "circuit breaker open ({} consecutive storage failures)",
                        self.config.failure_threshold
                    )))
                }
            }
        }
    }

    /// Record an admitted operation's outcome. Transient failures (the
    /// retry budget was exhausted) count toward the trip threshold /
    /// re-open a half-open breaker; success and terminal errors are
    /// evidence the store answered.
    pub fn observe(&self, outcome: &Result<()>) {
        match outcome {
            Ok(()) => self.record_success(),
            Err(e) if e.is_transient() => self.record_failure(),
            // Terminal error: the store processed the request.
            Err(_) => self.record_success(),
        }
    }

    /// An admitted operation reached the store and got an answer.
    pub fn record_success(&self) {
        let mut g = self.inner.lock();
        g.consecutive_failures = 0;
        if g.state == BreakerState::HalfOpen {
            g.probe_successes += 1;
            if g.probe_successes >= self.config.half_open_probes {
                g.state = BreakerState::Closed;
                g.fast_fails = 0;
                g.probe_successes = 0;
                self.closed.inc();
            }
        }
    }

    /// An admitted operation exhausted its retry budget on a transient
    /// error.
    pub fn record_failure(&self) {
        let mut g = self.inner.lock();
        match g.state {
            BreakerState::Closed => {
                g.consecutive_failures += 1;
                if g.consecutive_failures >= self.config.failure_threshold {
                    g.state = BreakerState::Open;
                    g.fast_fails = 0;
                    g.consecutive_failures = 0;
                    self.opened.inc();
                }
            }
            BreakerState::HalfOpen => {
                // The probe failed: back to open, cooldown restarts.
                g.state = BreakerState::Open;
                g.fast_fails = 0;
                g.probe_successes = 0;
                self.opened.inc();
            }
            BreakerState::Open => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown: u32, probes: u32) -> Arc<CircuitBreaker> {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown,
            half_open_probes: probes,
        })
    }

    #[test]
    fn opens_after_consecutive_failures() {
        let b = breaker(3, 4, 1);
        for _ in 0..2 {
            b.admit().unwrap();
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        b.admit().unwrap();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn success_resets_the_streak() {
        let b = breaker(2, 4, 1);
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "non-consecutive failures must not trip");
    }

    #[test]
    fn terminal_errors_do_not_trip() {
        let b = breaker(1, 4, 1);
        b.observe(&Err(EonError::NotFound("k".into())));
        b.observe(&Err(EonError::PreconditionFailed("overwrite".into())));
        assert_eq!(b.state(), BreakerState::Closed);
        b.observe(&Err(EonError::Storage("503".into())));
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn open_fast_fails_exactly_cooldown_times_then_half_opens() {
        let b = breaker(1, 3, 1);
        b.record_failure();
        for _ in 0..3 {
            assert!(matches!(b.admit(), Err(EonError::StoreUnavailable(_))));
        }
        // Fast-fail 4 would exceed the cooldown: this admission is the probe.
        b.admit().unwrap();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let b = breaker(1, 2, 1);
        b.record_failure();
        let _ = b.admit();
        let _ = b.admit();
        b.admit().unwrap(); // probe
        b.record_failure(); // probe failed
        assert_eq!(b.state(), BreakerState::Open);
        // Full cooldown again before the next probe.
        assert!(b.admit().is_err());
        assert!(b.admit().is_err());
        b.admit().unwrap();
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn multiple_probes_required_when_configured() {
        let b = breaker(1, 1, 2);
        b.record_failure();
        let _ = b.admit();
        b.admit().unwrap();
        b.record_success();
        assert_eq!(b.state(), BreakerState::HalfOpen, "one probe of two is not enough");
        b.admit().unwrap();
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn thresholds_are_sanitized() {
        let b = breaker(0, 0, 0);
        assert_eq!(b.config().failure_threshold, 1);
        assert_eq!(b.config().cooldown, 1);
        assert_eq!(b.config().half_open_probes, 1);
    }
}
