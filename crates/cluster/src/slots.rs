//! Execution slots (paper §4.2): each node can run a bounded number of
//! concurrent query fragments. "For a database with S shards, N nodes,
//! and E execution slots per node, a running query requires S of the
//! total N·E slots." Throughput scaling falls directly out of this
//! accounting, so the semaphore is the load-bearing primitive of the
//! Fig 11a experiment.
//!
//! [`ExecSlots`] is the one counting semaphore in the system: each
//! subcluster's admission pool (§4.3, `eon_core::admission`) is one too,
//! with `max_concurrent` slots and a bound on waiters. Waiting on it is
//! never unbounded (DESIGN.md "Admission control & workload
//! management"):
//!
//! * [`ExecSlots::acquire_wait`] takes a [`SlotWait`] carrying an
//!   optional deadline and an optional [`CancelToken`]. The deadline is
//!   a **planned-wait budget**: it is consumed in whole [`WAIT_TICK`]s
//!   of condvar wait, not by measured wall clock, so the give-up point
//!   — how many ticks a waiter sits through before `DeadlineExceeded` —
//!   is a pure function of the configuration, never of scheduler noise.
//! * [`ExecSlots::max_waiters`] bounds the queue: a waiter arriving when
//!   it is full gets the typed `Saturated` backpressure error at once.
//! * [`ExecSlots::close`] poisons the semaphore and wakes every waiter
//!   with `NodeDown` — a query parked on a dying node's slots fails
//!   fast and the coordinator's failover loop re-plans on survivors.
//!
//! The semaphore counts into the registry it is built with, under the
//! labels it is given. Registry keys are deduplicated, so the semaphore
//! of a restarted node continues its predecessor's series.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eon_obs::{Counter, Gauge, Histogram, Registry};
use eon_types::{CancelToken, EonError, Result};
use parking_lot::{Condvar, Mutex};

/// The planned-wait tick: a waiter re-checks cancellation and its
/// budget once per tick, and each wait charges one whole tick to the
/// budget, which is what makes the give-up point deterministic.
pub const WAIT_TICK: Duration = Duration::from_millis(1);

/// How a caller is willing to wait for slots.
#[derive(Clone, Debug, Default)]
pub struct SlotWait {
    /// Total planned-wait budget; `None` waits until slots free up or
    /// the semaphore closes.
    pub timeout: Option<Duration>,
    /// Session cancellation, checked every tick.
    pub cancel: Option<CancelToken>,
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
            cancel: None,
        }
    }

    /// Attach a cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Registry handles for the semaphore. The queue-wait histogram is
/// wall-clock (excluded from deterministic snapshots); the acquisition
/// counters are pure functions of the workload.
struct SlotMetrics {
    acquired: Arc<Counter>,
    slots_acquired: Arc<Counter>,
    timeouts: Arc<Counter>,
    cancellations: Arc<Counter>,
    node_down_wakeups: Arc<Counter>,
    rejections: Arc<Counter>,
    waiters: Arc<Gauge>,
    queue_wait_us: Arc<Histogram>,
}

impl SlotMetrics {
    fn register(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        SlotMetrics {
            acquired: registry.counter("exec_slot_acquisitions_total", labels),
            slots_acquired: registry.counter("exec_slots_acquired_total", labels),
            timeouts: registry.counter("exec_slot_timeouts_total", labels),
            cancellations: registry.counter("exec_slot_cancellations_total", labels),
            node_down_wakeups: registry.counter("exec_slot_node_down_wakeups_total", labels),
            rejections: registry.counter("exec_slot_rejections_total", labels),
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
    /// Waiters allowed at once; `0` = unbounded.
    max_waiters: usize,
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
    capacity: usize,
    /// The labels as `k=v,...`, naming the semaphore in its errors.
    name: String,
    metrics: SlotMetrics,
}

/// A counting semaphore over a node's execution slots (or an admission
/// pool's seats).
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
    /// A semaphore of `capacity` slots counting into `registry` under
    /// `labels` (`node` + `subsystem="exec"` for a node's slots).
    pub fn new(capacity: usize, registry: &Registry, labels: &[(&str, &str)]) -> Self {
        let name: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        ExecSlots {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    available: capacity,
                    closed: false,
                    waiters: 0,
                    max_waiters: 0,
                }),
                cv: Condvar::new(),
                capacity,
                name: name.join(","),
                metrics: SlotMetrics::register(registry, labels),
            }),
        }
    }

    /// Bound the queue at `depth` waiters (`0` = unbounded): an arrival
    /// that would wait behind a full queue gets `Saturated` instead.
    pub fn max_waiters(self, depth: usize) -> Self {
        self.inner.state.lock().max_waiters = depth;
        self
    }

    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    pub fn available(&self) -> usize {
        self.inner.state.lock().available
    }

    /// Sessions parked waiting for slots right now.
    pub fn waiters(&self) -> usize {
        self.inner.state.lock().waiters
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

    fn granted(&self, n: usize, queued_at: Instant) -> SlotGuard {
        let m = &self.inner.metrics;
        m.acquired.inc();
        m.slots_acquired.add(n as u64);
        m.queue_wait_us.observe(queued_at.elapsed().as_micros() as u64);
        SlotGuard {
            inner: self.inner.clone(),
            n,
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
    /// consumed by [`WAIT_TICK`] per condvar wait — never by measured
    /// wall clock — so the give-up point is deterministic regardless of
    /// scheduler noise. A fired token fails before any slot is taken.
    pub fn acquire_wait(&self, n: usize, wait: &SlotWait) -> Result<SlotGuard> {
        let n = n.min(self.inner.capacity).max(1);
        let queued_at = Instant::now();
        let m = &self.inner.metrics;
        let mut planned = Duration::ZERO;
        let mut st = self.inner.state.lock();
        let mut waiting = false;
        let outcome = loop {
            if st.closed {
                m.node_down_wakeups.inc();
                let name = &self.inner.name;
                break Err(EonError::NodeDown(format!("execution slots closed ({name})")));
            }
            if wait.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                m.cancellations.inc();
                break Err(EonError::Cancelled(format!("slot wait ({})", self.inner.name)));
            }
            if st.available >= n {
                st.available -= n;
                break Ok(());
            }
            if let Some(deadline) = wait.timeout.filter(|d| planned >= *d) {
                m.timeouts.inc();
                break Err(EonError::DeadlineExceeded(format!(
                    "slot wait budget {deadline:?} spent waiting for {n} slot(s) ({})",
                    self.inner.name
                )));
            }
            if !waiting {
                if st.max_waiters > 0 && st.waiters >= st.max_waiters {
                    m.rejections.inc();
                    break Err(EonError::Saturated {
                        queued: st.waiters,
                        depth: st.max_waiters,
                    });
                }
                waiting = true;
                st.waiters += 1;
                m.waiters.add(1);
            }
            self.inner.cv.wait_for(&mut st, WAIT_TICK);
            planned += WAIT_TICK;
        };
        if waiting {
            st.waiters -= 1;
            m.waiters.add(-1);
        }
        drop(st);
        outcome.map(|()| self.granted(n, queued_at))
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
        Some(self.granted(n, queued_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn acquire_and_release() {
        let s = ExecSlots::new(4, &Default::default(), &[]);
        let g1 = s.acquire(3).unwrap();
        assert_eq!(s.available(), 1);
        assert!(s.try_acquire(2).is_none());
        drop(g1);
        assert_eq!(s.available(), 4);
        assert!(s.try_acquire(2).is_some());
    }

    #[test]
    fn oversized_request_clamps() {
        let s = ExecSlots::new(2, &Default::default(), &[]);
        let g = s.acquire(10).unwrap();
        assert_eq!(s.available(), 0);
        drop(g);
    }

    #[test]
    fn blocked_acquire_wakes_on_release() {
        let s = ExecSlots::new(1, &Default::default(), &[]);
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
        let s = ExecSlots::new(3, &Default::default(), &[]);
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
        let s = ExecSlots::new(1, &Default::default(), &[]);
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
        let s = ExecSlots::new(1, &Default::default(), &[]);
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
        let s = ExecSlots::new(1, &Default::default(), &[]);
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

    /// The semaphore counts into the registry it is built with; a
    /// successor under the same labels (a restarted node) continues the
    /// series, and a full queue is counted as a rejection.
    #[test]
    fn counts_into_the_registry_it_is_built_with() {
        let registry = Registry::new();
        let labels: &[(&str, &str)] = &[("node", "n0"), ("subsystem", "exec")];
        let s = ExecSlots::new(4, &registry, labels);
        drop(s.acquire(2).unwrap());
        let _held = s.acquire(4).unwrap();
        let _ = s
            .acquire_wait(1, &SlotWait::with_timeout(Duration::from_millis(5)))
            .unwrap_err();
        let successor = ExecSlots::new(1, &registry, labels).max_waiters(1);
        let busy = successor.acquire(1).unwrap();
        let queued = {
            let successor = successor.clone();
            std::thread::spawn(move || successor.acquire(1).map(drop))
        };
        while successor.waiters() == 0 {
            std::thread::yield_now();
        }
        let err = successor.acquire(1).unwrap_err();
        assert!(matches!(err, EonError::Saturated { queued: 1, depth: 1 }), "{err}");
        drop(busy);
        queued.join().unwrap().unwrap();
        let snap = registry.deterministic_snapshot();
        let metric = |name: &str| {
            snap.get(&format!("{name}{{node=\"n0\",subsystem=\"exec\"}}"))
                .and_then(|v| v.as_u64())
                .unwrap_or(u64::MAX)
        };
        assert_eq!(metric("exec_slot_acquisitions_total"), 4);
        assert_eq!(metric("exec_slots_acquired_total"), 8);
        assert_eq!(metric("exec_slot_timeouts_total"), 1);
        assert_eq!(metric("exec_slot_rejections_total"), 1);
        assert_eq!(metric("exec_slot_waiters"), 0);
    }
}
