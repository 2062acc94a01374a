//! The one resilience layer of the storage column (DESIGN.md "Retry
//! everywhere"): a [`FileSystem`] decorator applying the §5.3 retry
//! loop and the circuit-breaker gate to every operation. `EonDb` wraps
//! its shared storage in this once, so all downstream access — depots'
//! backing reads and write-through, catalog uploads,
//! `cluster_info`, the leak scan — survives transient failures
//! and throttles uniformly. Nothing above this layer retries: one
//! logical operation is at most `max_attempts` store requests.
//!
//! Whole-object writes and deletes are idempotent on an object store,
//! so retrying them blindly is safe; that is precisely why the UDFS
//! API has no append or rename (§5.3).
//!
//! An optional [`CircuitBreaker`] gates every operation: while it is
//! open, requests fail fast with `StoreUnavailable` instead of burning
//! a full backoff budget against a browned-out store, and each
//! operation's final outcome (exhausted-retry transient failure vs.
//! answered) feeds the breaker's state machine.

use std::sync::Arc;

use bytes::Bytes;
use eon_obs::{Counter, Registry};
use eon_types::Result;

use crate::breaker::CircuitBreaker;
use crate::fs::{FileSystem, FsStats, SharedFs};
use crate::retry::{with_retry, RetryPolicy};

/// Retrying wrapper over any filesystem.
pub struct RetryFs {
    inner: SharedFs,
    policy: RetryPolicy,
    /// `s3_retries_total` — one tick per re-issued request.
    retries: Arc<Counter>,
    /// Optional brownout protection (DESIGN.md "Failure detection &
    /// degraded modes"). `None` = always retry.
    breaker: Option<Arc<CircuitBreaker>>,
}

impl RetryFs {
    /// Wrap `inner`: every operation retries per `policy` (its retry
    /// count lands in `registry`) behind `breaker` when one is given.
    pub fn new(
        inner: SharedFs,
        policy: RetryPolicy,
        registry: &Registry,
        breaker: Option<Arc<CircuitBreaker>>,
    ) -> Self {
        RetryFs {
            inner,
            policy,
            retries: registry.counter("s3_retries_total", &[("subsystem", "s3")]),
            breaker,
        }
    }

    fn retrying<T>(&self, op: impl FnMut() -> Result<T>) -> Result<T> {
        // Fast-fail while the breaker is open (it half-opens itself
        // after its cooldown; that admission proceeds as the probe).
        if let Some(b) = &self.breaker {
            b.admit()?;
        }
        let result = with_retry(&self.policy, || self.retries.inc(), op);
        if let Some(b) = &self.breaker {
            match &result {
                Ok(_) => b.record_success(),
                Err(e) if e.is_transient() => b.record_failure(),
                // Terminal (NotFound, precondition): the store answered
                // — never trips the breaker (DESIGN.md classification).
                Err(_) => b.record_success(),
            }
        }
        result
    }
}

impl FileSystem for RetryFs {
    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        self.retrying(|| self.inner.write(path, data.clone()))
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        self.retrying(|| self.inner.read(path))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.retrying(|| self.inner.read_range(path, offset, len))
    }

    /// Every range at once: each on its own scoped thread (the caller
    /// takes the first), each with its own retry loop and breaker gate,
    /// so the batch costs one round trip and a failed range is re-issued
    /// alone. The first failed range, in order, is the error.
    fn read_ranges(&self, path: &str, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
        let read = |&(offset, len): &(u64, u64)| self.read_range(path, offset, len);
        let Some((first, rest)) = ranges.split_first() else {
            return Ok(Vec::new());
        };
        std::thread::scope(|s| {
            let others: Vec<_> = rest.iter().map(|r| s.spawn(move || read(r))).collect();
            let mut out = vec![read(first)];
            for h in others {
                out.push(h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
            }
            out.into_iter().collect()
        })
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.retrying(|| self.inner.size(path))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.retrying(|| self.inner.list(prefix))
    }

    fn exists(&self, path: &str) -> Result<bool> {
        self.retrying(|| self.inner.exists(path))
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.retrying(|| self.inner.delete(path))
    }

    fn stats(&self) -> FsStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::{BreakerConfig, BreakerState};
    use crate::s3sim::{S3Config, S3SimFs};
    use std::time::Duration;

    fn instant_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    #[test]
    fn operations_succeed_despite_failures() {
        let flaky = Arc::new(S3SimFs::new(S3Config::flaky(0.4, 0.2, 99)));
        // 60% of requests fail: give the loop enough attempts that the
        // whole test fails with probability < 1e-4.
        let fs = RetryFs::new(flaky, instant_policy(25), &Registry::new(), None);
        for i in 0..50 {
            let key = format!("k{i}");
            fs.write(&key, Bytes::from(vec![i as u8])).unwrap();
            assert_eq!(fs.read(&key).unwrap()[0], i as u8);
        }
        assert_eq!(fs.list("k").unwrap().len(), 50);
    }

    #[test]
    fn permanent_errors_still_surface() {
        let fs = RetryFs::new(
            Arc::new(crate::mem::MemFs::new()),
            RetryPolicy::default(),
            &Registry::new(),
            None,
        );
        assert!(matches!(
            fs.read("missing"),
            Err(eon_types::EonError::NotFound(_))
        ));
    }

    #[test]
    fn breaker_opens_on_exhausted_retries_and_fast_fails() {
        let sim = Arc::new(S3SimFs::new(S3Config::instant()));
        sim.set_brownout(true);
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: 3,
            half_open_probes: 1,
        });
        let fs = RetryFs::new(
            sim.clone(),
            instant_policy(3),
            &Registry::new(),
            Some(breaker.clone()),
        );
        // Two operations exhaust their retries → breaker opens.
        assert!(matches!(fs.read("k"), Err(eon_types::EonError::Storage(_))));
        assert!(matches!(fs.read("k"), Err(eon_types::EonError::Storage(_))));
        assert_eq!(breaker.state(), BreakerState::Open);
        // Open: fast-fail without touching the store (request count
        // frozen through the cooldown window).
        let before = sim.stats().cost_nanodollars;
        for _ in 0..3 {
            assert!(matches!(
                fs.write("k", Bytes::from_static(b"v")),
                Err(eon_types::EonError::StoreUnavailable(_))
            ));
        }
        assert_eq!(sim.stats().cost_nanodollars, before, "open breaker must not hit the store");
        // Brownout over: the post-cooldown probe closes the breaker.
        sim.set_brownout(false);
        fs.write("k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(fs.read("k").unwrap().as_ref(), b"v");
    }

    #[test]
    fn read_ranges_equal_serial_read_range() {
        let sim = Arc::new(S3SimFs::new(S3Config::instant()));
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 251) as u8).collect();
        sim.write("obj", Bytes::from(data)).unwrap();
        let fs = RetryFs::new(sim.clone(), instant_policy(3), &Registry::new(), None);
        let many: Vec<(u64, u64)> = (0..9).map(|i| (i * 400, 100 + i * 37)).collect();
        for ranges in [&[][..], &many[..1], &many[..], &[(4000, 500), (0, 0)][..]] {
            let gets = sim.stats().gets;
            let got = fs.read_ranges("obj", ranges).unwrap();
            assert_eq!(sim.stats().gets - gets, ranges.len() as u64, "one GET a range");
            let serial: Vec<Bytes> =
                ranges.iter().map(|&(o, l)| fs.read_range("obj", o, l).unwrap()).collect();
            assert_eq!(got, serial);
        }
        assert!(matches!(
            fs.read_ranges("missing", &many),
            Err(eon_types::EonError::NotFound(_))
        ));
    }

    #[test]
    fn read_ranges_reissue_only_the_failed_range() {
        let registry = Registry::new();
        let sim = Arc::new(S3SimFs::with_metrics(S3Config::flaky(0.3, 0.1, 7), &registry));
        let fs = RetryFs::new(sim.clone(), instant_policy(25), &registry, None);
        fs.write("obj", Bytes::from(vec![5u8; 8192])).unwrap();
        // Billed GETs, failed ones included.
        let billed = registry.counter("s3_requests_total", &[("subsystem", "s3"), ("verb", "get")]);
        let retries = registry.counter("s3_retries_total", &[("subsystem", "s3")]);
        let ranges: Vec<(u64, u64)> = (0..16).map(|i| (i * 512, 512)).collect();
        for _ in 0..4 {
            let (gets, retried) = (billed.get(), retries.get());
            let got = fs.read_ranges("obj", &ranges).unwrap();
            assert!(got.iter().all(|b| b.len() == 512 && b.iter().all(|&x| x == 5)));
            // Every GET beyond one a range is a retry of a failed one.
            let (gets, retried) = (billed.get() - gets, retries.get() - retried);
            assert_eq!(gets, ranges.len() as u64 + retried);
        }
        assert!(retries.get() > 0, "40 % faults over 64 ranges must retry some");
    }

    #[test]
    fn read_ranges_fast_fail_behind_an_open_breaker() {
        let sim = Arc::new(S3SimFs::new(S3Config::instant()));
        sim.write("obj", Bytes::from(vec![1u8; 1024])).unwrap();
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: 100,
            half_open_probes: 1,
        });
        let fs = RetryFs::new(sim.clone(), instant_policy(2), &Registry::new(), Some(breaker.clone()));
        sim.set_brownout(true);
        assert!(fs.read_range("obj", 0, 10).is_err());
        assert_eq!(breaker.state(), BreakerState::Open);
        sim.set_brownout(false);
        let before = sim.stats();
        let ranges: Vec<(u64, u64)> = (0..8).map(|i| (i * 100, 100)).collect();
        assert!(matches!(
            fs.read_ranges("obj", &ranges),
            Err(eon_types::EonError::StoreUnavailable(_))
        ));
        assert_eq!(sim.stats(), before, "an open breaker issues no request");
    }

    #[test]
    fn terminal_errors_do_not_feed_the_breaker() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            ..Default::default()
        });
        let fs = RetryFs::new(
            Arc::new(crate::mem::MemFs::new()),
            RetryPolicy::default(),
            &Registry::new(),
            Some(breaker.clone()),
        );
        for _ in 0..5 {
            assert!(matches!(
                fs.read("missing"),
                Err(eon_types::EonError::NotFound(_))
            ));
        }
        assert_eq!(breaker.state(), BreakerState::Closed);
    }
}
