//! Admission control: per-subcluster resource pools (DESIGN.md
//! "Admission control & workload management").
//!
//! The §4.2 slot semaphore bounds *fragment* concurrency on one node;
//! it says nothing about how many sessions may pile up waiting. Under
//! heavy traffic a bare semaphore parks every extra session forever —
//! the availability bug production Vertica prevents with its resource
//! manager's admission queues. This module adds that missing layer, and
//! builds it from the same semaphore: each subcluster (§4.3) gets a
//! **resource pool** that is an [`ExecSlots`] with
//! [`crate::EonConfig::admission_max_concurrent`] slots and at most
//! [`crate::EonConfig::admission_max_queue`] waiters, so
//!
//! * a full queue rejects new arrivals immediately with the typed
//!   [`EonError::Saturated`] backpressure error — clients shed load
//!   instead of hanging;
//! * a queued session waits on the semaphore's **planned-wait budget**
//!   ([`crate::EonConfig::admission_timeout_ms`]) before
//!   `DeadlineExceeded`, deterministically;
//! * a fired [`eon_types::CancelToken`] fails the session with
//!   `Cancelled`, whether it is queued or just arriving.
//!
//! A pool counts into the database registry under
//! `{pool="sc<n>",subsystem="admission"}` with the semaphore's series
//! names. With `admission_max_concurrent == 0` (the default) the layer
//! is a no-op pass-through and queries go straight to the slot
//! semaphore.
//!
//! [`EonError::Saturated`]: eon_types::EonError::Saturated

use std::collections::HashMap;
use std::time::Duration;

use eon_cluster::{ExecSlots, SlotGuard, SlotWait};
use eon_obs::Registry;
use eon_types::{CancelToken, Result};
use parking_lot::Mutex;

/// Pool limits, copied out of `EonConfig` at database creation.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionLimits {
    pub max_concurrent: usize,
    pub max_queue: usize,
    pub timeout: Option<Duration>,
}

impl AdmissionLimits {
    pub fn from_config(cfg: &crate::EonConfig) -> Self {
        AdmissionLimits {
            max_concurrent: cfg.admission_max_concurrent,
            max_queue: cfg.admission_max_queue,
            timeout: match cfg.admission_timeout_ms {
                0 => None,
                ms => Some(Duration::from_millis(ms)),
            },
        }
    }
}

/// The database-wide admission layer: one pool per subcluster, created
/// lazily on first use.
pub struct AdmissionControl {
    limits: AdmissionLimits,
    registry: Registry,
    pools: Mutex<HashMap<u64, ExecSlots>>,
}

impl AdmissionControl {
    pub fn new(limits: AdmissionLimits, registry: Registry) -> Self {
        AdmissionControl {
            limits,
            registry,
            pools: Mutex::new(HashMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.limits.max_concurrent > 0
    }

    fn pool(&self, subcluster: u64) -> ExecSlots {
        self.pools
            .lock()
            .entry(subcluster)
            .or_insert_with(|| {
                let sc = format!("sc{subcluster}");
                let labels: &[(&str, &str)] = &[("pool", &sc), ("subsystem", "admission")];
                ExecSlots::new(self.limits.max_concurrent, &self.registry, labels)
                    .max_waiters(self.limits.max_queue)
            })
            .clone()
    }

    /// Admit one session into `subcluster`'s pool. Returns `Ok(None)`
    /// when admission control is disabled. Never blocks indefinitely:
    /// the outcome is a guard, `Saturated` (queue full), `Cancelled`,
    /// or `DeadlineExceeded` — within the configured queue timeout.
    pub fn admit(
        &self,
        subcluster: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<SlotGuard>> {
        if !self.enabled() {
            return Ok(None);
        }
        let wait = SlotWait {
            timeout: self.limits.timeout,
            cancel: cancel.cloned(),
        };
        self.pool(subcluster).acquire_wait(1, &wait).map(Some)
    }

    /// (running, queued) for one pool — test/bench introspection.
    pub fn pool_depths(&self, subcluster: u64) -> (usize, usize) {
        let pool = self.pool(subcluster);
        (pool.capacity() - pool.available(), pool.waiters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_types::EonError;
    use std::sync::Arc;

    fn ctl(max_concurrent: usize, max_queue: usize, timeout_ms: u64) -> AdmissionControl {
        AdmissionControl::new(
            AdmissionLimits {
                max_concurrent,
                max_queue,
                timeout: match timeout_ms {
                    0 => None,
                    ms => Some(Duration::from_millis(ms)),
                },
            },
            Registry::new(),
        )
    }

    #[test]
    fn disabled_is_pass_through() {
        let c = ctl(0, 0, 0);
        assert!(c.admit(0, None).unwrap().is_none());
    }

    #[test]
    fn full_queue_rejects_with_saturated() {
        let c = Arc::new(ctl(1, 1, 0));
        let _running = c.admit(0, None).unwrap().unwrap();
        // One waiter fills the queue...
        let c2 = c.clone();
        let waiter = std::thread::spawn(move || c2.admit(0, None));
        while c.pool_depths(0).1 < 1 {
            std::thread::yield_now();
        }
        // ...so the next arrival is shed immediately.
        let err = c.admit(0, None).unwrap_err();
        assert!(
            matches!(err, EonError::Saturated { queued: 1, depth: 1 }),
            "{err}"
        );
        drop(_running);
        assert!(waiter.join().unwrap().unwrap().is_some());
    }

    #[test]
    fn queue_timeout_is_deadline_exceeded() {
        let c = ctl(1, 0, 10);
        let _running = c.admit(0, None).unwrap().unwrap();
        let err = c.admit(0, None).unwrap_err();
        assert!(matches!(err, EonError::DeadlineExceeded(_)), "{err}");
        // The expired waiter left the queue.
        assert_eq!(c.pool_depths(0), (1, 0));
    }

    #[test]
    fn cancel_wakes_queued_session() {
        let c = Arc::new(ctl(1, 0, 0));
        let _running = c.admit(0, None).unwrap().unwrap();
        let token = CancelToken::new();
        let (c2, t2) = (c.clone(), token.clone());
        let waiter = std::thread::spawn(move || c2.admit(0, Some(&t2)));
        while c.pool_depths(0).1 < 1 {
            std::thread::yield_now();
        }
        token.cancel();
        let err = waiter.join().unwrap().unwrap_err();
        assert!(matches!(err, EonError::Cancelled(_)), "{err}");
    }

    #[test]
    fn subclusters_are_isolated_pools() {
        let c = ctl(1, 1, 0);
        let _a = c.admit(0, None).unwrap().unwrap();
        // Subcluster 7 has its own pool: admitted immediately.
        let _b = c.admit(7, None).unwrap().unwrap();
        assert_eq!(c.pool_depths(0), (1, 0));
        assert_eq!(c.pool_depths(7), (1, 0));
    }

    #[test]
    fn guard_drop_admits_next() {
        let c = ctl(2, 0, 0);
        let a = c.admit(0, None).unwrap().unwrap();
        let b = c.admit(0, None).unwrap().unwrap();
        assert_eq!(c.pool_depths(0).0, 2);
        drop(a);
        drop(b);
        assert_eq!(c.pool_depths(0), (0, 0));
    }
}
