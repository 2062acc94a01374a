//! Execution slots (paper §4.2): each node can run a bounded number of
//! concurrent query fragments. "For a database with S shards, N nodes,
//! and E execution slots per node, a running query requires S of the
//! total N·E slots." Throughput scaling falls directly out of this
//! accounting, so the semaphore is the load-bearing primitive of the
//! Fig 11a experiment.
//!
//! Waiting on the semaphore is never unbounded (DESIGN.md "Admission
//! control & workload management"):
//!
//! * [`ExecSlots::acquire_wait`] takes a [`SlotWait`] carrying an
//!   optional deadline and an optional [`CancelToken`]. The deadline is
//!   a **planned-wait budget**: it is consumed by the planned condvar
//!   tick, not by measured wall clock, so the give-up point — how many
//!   ticks a waiter sits through before `DeadlineExceeded` — is a pure
//!   function of the configuration, never of scheduler noise.
//! * [`ExecSlots::close`] poisons the semaphore and wakes every waiter
//!   with `NodeDown` — a query parked on a dying node's slots fails
//!   fast and the coordinator's failover loop re-plans on survivors.
//!
//! Counters are kept in raw atomics owned by the semaphore itself and
//! mirrored into the registry; [`ExecSlots::attach_metrics`] carries
//! everything already counted onto the shared registry, so slots
//! acquired before a node is commissioned are never silently dropped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eon_obs::{Counter, Gauge, Histogram, Registry};
use eon_types::{CancelToken, EonError, Result};
use parking_lot::{Condvar, Mutex};

/// How a caller is willing to wait for slots.
#[derive(Clone, Debug)]
pub struct SlotWait {
    /// Total planned-wait budget; `None` waits until slots free up or
    /// the semaphore closes.
    pub timeout: Option<Duration>,
    /// Condvar re-check tick. The budget is consumed in whole ticks,
    /// which is what makes the give-up point deterministic.
    pub tick: Duration,
    /// Session cancellation, checked every tick.
    pub cancel: Option<CancelToken>,
}

impl Default for SlotWait {
    fn default() -> Self {
        SlotWait {
            timeout: None,
            tick: Duration::from_millis(1),
            cancel: None,
        }
    }
}

impl SlotWait {
    /// Wait forever (but still wake on close/cancel).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Give up after a planned-wait budget of `timeout`.
    pub fn with_timeout(timeout: Duration) -> Self {
        SlotWait {
            timeout: Some(timeout),
            ..Self::default()
        }
    }

    /// Attach a cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Raw totals owned by the semaphore — the source of truth the registry
/// mirrors. Survives [`ExecSlots::attach_metrics`] re-homing.
#[derive(Default)]
struct SlotStats {
    acquired: AtomicU64,
    slots_acquired: AtomicU64,
    timeouts: AtomicU64,
    cancellations: AtomicU64,
    node_down_wakeups: AtomicU64,
}

/// Registry handles for the slot semaphore. The queue-wait histogram is
/// wall-clock (excluded from deterministic snapshots); the acquisition
/// counters are pure functions of the workload.
#[derive(Clone)]
struct SlotMetrics {
    acquired: Arc<Counter>,
    slots_acquired: Arc<Counter>,
    timeouts: Arc<Counter>,
    cancellations: Arc<Counter>,
    node_down_wakeups: Arc<Counter>,
    waiters: Arc<Gauge>,
    queue_wait_us: Arc<Histogram>,
}

impl SlotMetrics {
    fn register(registry: &Registry, node: &str) -> Self {
        let labels: &[(&str, &str)] = &[("node", node), ("subsystem", "exec")];
        SlotMetrics {
            acquired: registry.counter("exec_slot_acquisitions_total", labels),
            slots_acquired: registry.counter("exec_slots_acquired_total", labels),
            timeouts: registry.counter("exec_slot_timeouts_total", labels),
            cancellations: registry.counter("exec_slot_cancellations_total", labels),
            node_down_wakeups: registry.counter("exec_slot_node_down_wakeups_total", labels),
            waiters: registry.gauge("exec_slot_waiters", labels),
            queue_wait_us: registry.timing_histogram("exec_slot_queue_wait_us", labels),
        }
    }
}

struct State {
    available: usize,
    /// Closed = the owning node died; every waiter (present and future)
    /// gets `NodeDown` until [`ExecSlots::reopen`].
    closed: bool,
    waiters: usize,
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
    capacity: usize,
    stats: SlotStats,
    /// `None` until [`ExecSlots::attach_metrics`] re-homes the counters
    /// onto a real registry — a detached semaphore counts only into
    /// [`SlotStats`], and the totals carry over on attach.
    metrics: Mutex<Option<SlotMetrics>>,
}

/// A counting semaphore over a node's execution slots.
#[derive(Clone)]
pub struct ExecSlots {
    inner: Arc<Inner>,
}

/// RAII guard holding `n` slots; released on drop.
pub struct SlotGuard {
    inner: Arc<Inner>,
    n: usize,
}

impl std::fmt::Debug for SlotGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotGuard").field("n", &self.n).finish()
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        let mut st = self.inner.state.lock();
        st.available += self.n;
        self.inner.cv.notify_all();
    }
}

impl ExecSlots {
    pub fn new(capacity: usize) -> Self {
        ExecSlots {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    available: capacity,
                    closed: false,
                    waiters: 0,
                }),
                cv: Condvar::new(),
                capacity,
                stats: SlotStats::default(),
                metrics: Mutex::new(None),
            }),
        }
    }

    /// Re-home this semaphore's counters onto a shared registry,
    /// labeled by node. Totals counted while detached carry over, so
    /// the registry always agrees with the semaphore's own accounting.
    pub fn attach_metrics(&self, registry: &Registry, node: &str) {
        let m = SlotMetrics::register(registry, node);
        m.acquired.add(self.inner.stats.acquired.load(Ordering::Relaxed));
        m.slots_acquired
            .add(self.inner.stats.slots_acquired.load(Ordering::Relaxed));
        m.timeouts.add(self.inner.stats.timeouts.load(Ordering::Relaxed));
        m.cancellations
            .add(self.inner.stats.cancellations.load(Ordering::Relaxed));
        m.node_down_wakeups
            .add(self.inner.stats.node_down_wakeups.load(Ordering::Relaxed));
        m.waiters.set(self.inner.state.lock().waiters as i64);
        *self.inner.metrics.lock() = Some(m);
    }

    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    pub fn available(&self) -> usize {
        self.inner.state.lock().available
    }

    pub fn is_closed(&self) -> bool {
        self.inner.state.lock().closed
    }

    /// Poison the semaphore: every current and future waiter fails with
    /// `NodeDown`. Called on node kill so no query parks on a dead
    /// node's slots. Slots already held stay held — their guards still
    /// release into the pool, keeping the books balanced for a later
    /// [`ExecSlots::reopen`].
    pub fn close(&self) {
        let mut st = self.inner.state.lock();
        st.closed = true;
        self.inner.cv.notify_all();
    }

    /// Re-arm a closed semaphore (enterprise process revive; Eon
    /// restarts build a fresh runtime instead).
    pub fn reopen(&self) {
        let mut st = self.inner.state.lock();
        st.closed = false;
        self.inner.cv.notify_all();
    }

    fn on_acquired(&self, n: usize, queued_at: Instant) {
        self.inner.stats.acquired.fetch_add(1, Ordering::Relaxed);
        self.inner
            .stats
            .slots_acquired
            .fetch_add(n as u64, Ordering::Relaxed);
        if let Some(m) = self.inner.metrics.lock().as_ref() {
            m.acquired.inc();
            m.slots_acquired.add(n as u64);
            m.queue_wait_us
                .observe(queued_at.elapsed().as_micros() as u64);
        }
    }

    fn on_failed(&self, raw: &AtomicU64, pick: fn(&SlotMetrics) -> &Arc<Counter>) {
        raw.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.inner.metrics.lock().as_ref() {
            pick(m).inc();
        }
    }

    fn set_waiters(&self, n: usize) {
        if let Some(m) = self.inner.metrics.lock().as_ref() {
            m.waiters.set(n as i64);
        }
    }

    /// Block until `n` slots are free, then take them. `n` is clamped
    /// to capacity so a query needing more slots than the node has
    /// still makes progress (it just serializes). Fails with `NodeDown`
    /// if the semaphore is (or becomes) closed — waiting forever on a
    /// dead node is the hang this layer exists to prevent.
    pub fn acquire(&self, n: usize) -> Result<SlotGuard> {
        self.acquire_wait(n, &SlotWait::unbounded())
    }

    /// [`ExecSlots::acquire`] with a wait policy: a planned-wait
    /// deadline, a cancellation token, or both. The deadline budget is
    /// consumed by the planned tick per condvar wait — never by
    /// measured wall clock — so the give-up point is deterministic
    /// regardless of scheduler noise.
    pub fn acquire_wait(&self, n: usize, wait: &SlotWait) -> Result<SlotGuard> {
        let n = n.min(self.inner.capacity).max(1);
        let queued_at = Instant::now();
        let tick = wait.tick.max(Duration::from_micros(100));
        let mut planned = Duration::ZERO;
        let mut st = self.inner.state.lock();
        let mut waiting = false;
        let outcome = loop {
            if st.closed {
                break Err(EonError::NodeDown("execution slots closed".into()));
            }
            if let Some(c) = &wait.cancel {
                if c.is_cancelled() {
                    break Err(EonError::Cancelled("execution slot wait".into()));
                }
            }
            if st.available >= n {
                st.available -= n;
                break Ok(());
            }
            if let Some(deadline) = wait.timeout {
                if planned >= deadline {
                    break Err(EonError::DeadlineExceeded(format!(
                        "slot wait budget {deadline:?} spent waiting for {n} slot(s)"
                    )));
                }
            }
            if !waiting {
                waiting = true;
                st.waiters += 1;
                let w = st.waiters;
                drop(st);
                self.set_waiters(w);
                st = self.inner.state.lock();
                // Re-check from the top: state may have changed while
                // the lock was dropped to publish the gauge.
                continue;
            }
            self.inner.cv.wait_for(&mut st, tick);
            planned += tick;
        };
        if waiting {
            st.waiters -= 1;
            let w = st.waiters;
            drop(st);
            self.set_waiters(w);
        } else {
            drop(st);
        }
        match outcome {
            Ok(()) => {
                self.on_acquired(n, queued_at);
                Ok(SlotGuard {
                    inner: self.inner.clone(),
                    n,
                })
            }
            Err(e) => {
                match &e {
                    EonError::DeadlineExceeded(_) => {
                        self.on_failed(&self.inner.stats.timeouts, |m| &m.timeouts)
                    }
                    EonError::Cancelled(_) => {
                        self.on_failed(&self.inner.stats.cancellations, |m| &m.cancellations)
                    }
                    _ => self.on_failed(&self.inner.stats.node_down_wakeups, |m| {
                        &m.node_down_wakeups
                    }),
                }
                Err(e)
            }
        }
    }

    /// Non-blocking acquire; `None` when the node is saturated or the
    /// semaphore is closed.
    pub fn try_acquire(&self, n: usize) -> Option<SlotGuard> {
        let n = n.min(self.inner.capacity).max(1);
        let queued_at = Instant::now();
        {
            let mut st = self.inner.state.lock();
            if st.closed || st.available < n {
                return None;
            }
            st.available -= n;
        }
        self.on_acquired(n, queued_at);
        Some(SlotGuard {
            inner: self.inner.clone(),
            n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn acquire_and_release() {
        let s = ExecSlots::new(4);
        let g1 = s.acquire(3).unwrap();
        assert_eq!(s.available(), 1);
        assert!(s.try_acquire(2).is_none());
        drop(g1);
        assert_eq!(s.available(), 4);
        assert!(s.try_acquire(2).is_some());
    }

    #[test]
    fn oversized_request_clamps() {
        let s = ExecSlots::new(2);
        let g = s.acquire(10).unwrap();
        assert_eq!(s.available(), 0);
        drop(g);
    }

    #[test]
    fn blocked_acquire_wakes_on_release() {
        let s = ExecSlots::new(1);
        let g = s.acquire(1).unwrap();
        let s2 = s.clone();
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = done.clone();
        let h = std::thread::spawn(move || {
            let _g = s2.acquire(1).unwrap();
            done2.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(done.load(Ordering::SeqCst), 0, "should be blocked");
        drop(g);
        h.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrency_never_exceeds_capacity() {
        let s = ExecSlots::new(3);
        let peak = Arc::new(AtomicUsize::new(0));
        let cur = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..12 {
            let (s, peak, cur) = (s.clone(), peak.clone(), cur.clone());
            handles.push(std::thread::spawn(move || {
                let _g = s.acquire(1).unwrap();
                let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                cur.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn deadline_expires_instead_of_hanging() {
        let s = ExecSlots::new(1);
        let _g = s.acquire(1).unwrap();
        let err = s
            .acquire_wait(1, &SlotWait::with_timeout(Duration::from_millis(10)))
            .unwrap_err();
        assert!(matches!(err, EonError::DeadlineExceeded(_)), "{err}");
        // The failed waiter left no debt.
        assert_eq!(s.available(), 0);
        drop(_g);
        assert_eq!(s.available(), 1);
    }

    #[test]
    fn cancel_token_wakes_waiter() {
        let s = ExecSlots::new(1);
        let g = s.acquire(1).unwrap();
        let token = CancelToken::new();
        let wait = SlotWait::unbounded().cancel(token.clone());
        let s2 = s.clone();
        let h = std::thread::spawn(move || s2.acquire_wait(1, &wait));
        std::thread::sleep(Duration::from_millis(10));
        token.cancel();
        let err = h.join().unwrap().unwrap_err();
        assert!(matches!(err, EonError::Cancelled(_)), "{err}");
        drop(g);
        assert_eq!(s.available(), 1);
    }

    #[test]
    fn close_wakes_parked_waiters_with_node_down() {
        let s = ExecSlots::new(1);
        let g = s.acquire(1).unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s2 = s.clone();
            handles.push(std::thread::spawn(move || s2.acquire(1)));
        }
        std::thread::sleep(Duration::from_millis(10));
        s.close();
        for h in handles {
            let err = h.join().unwrap().unwrap_err();
            assert!(matches!(err, EonError::NodeDown(_)), "{err}");
        }
        // New arrivals fail fast too.
        assert!(matches!(
            s.acquire(1).unwrap_err(),
            EonError::NodeDown(_)
        ));
        assert!(s.try_acquire(1).is_none());
        // Held guards still release; reopen restores service.
        drop(g);
        s.reopen();
        assert_eq!(s.available(), 1);
        drop(s.acquire(1).unwrap());
        assert_eq!(s.available(), 1);
    }

    #[test]
    fn attach_metrics_carries_detached_totals() {
        let s = ExecSlots::new(4);
        drop(s.acquire(2).unwrap());
        drop(s.acquire(1).unwrap());
        let _held = s.acquire(4).unwrap();
        let _ = s
            .acquire_wait(1, &SlotWait::with_timeout(Duration::from_millis(5)))
            .unwrap_err();
        let registry = Registry::new();
        s.attach_metrics(&registry, "n0");
        drop(s.try_acquire(4)); // closed-out, available==0 → None
        let snap = registry.deterministic_snapshot();
        let metric = |name: &str| {
            snap.get(&format!("{name}{{node=\"n0\",subsystem=\"exec\"}}"))
                .and_then(|v| v.as_u64())
                .unwrap_or(u64::MAX)
        };
        assert_eq!(metric("exec_slot_acquisitions_total"), 3);
        assert_eq!(metric("exec_slots_acquired_total"), 7);
        assert_eq!(metric("exec_slot_timeouts_total"), 1);
    }
}
