//! Property test for the admission/scheduling state machines
//! (DESIGN.md "Admission control"): random interleavings of
//! acquire/timeout/cancel/close over a 2-slot execution semaphore and
//! a 2-wide admission pool never deadlock and never leak.
//!
//! Invariants pinned after **every** op and at quiesce:
//!
//! * `available == capacity − slots held by live guards`, always —
//!   including across close/reopen cycles (a kill must not eat slots);
//! * every waiter resolves: a guard, `Saturated`, `Cancelled`,
//!   `NodeDown`, or `DeadlineExceeded` — nothing parks forever (each
//!   case runs to completion without a watchdog precisely because the
//!   planned-wait budget bounds every wait);
//! * the admission pool's running count mirrors the live guards and
//!   its queue drains to zero;
//! * a session whose token already fired is turned away at the pool
//!   with `Cancelled` and leaves the pool's depths as they were.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use eon_cluster::{ExecSlots, SlotGuard, SlotWait};
use eon_core::{AdmissionControl, AdmissionLimits};
use eon_db as _;
use eon_obs::Registry;
use eon_types::{CancelToken, EonError};
use proptest::collection::vec;
use proptest::prelude::*;

const CAPACITY: usize = 2;
const MAX_CONCURRENT: usize = 2;
const MAX_QUEUE: usize = 1;
const ADMIT_TIMEOUT: Duration = Duration::from_millis(10);

#[derive(Clone, Debug)]
enum Op {
    /// Non-blocking acquire of `n` slots.
    TryAcquire(usize),
    /// Deadline-bounded acquire: resolves with a guard or a typed
    /// error, never parks.
    TimedAcquire(usize),
    /// Drop the oldest held slot guard.
    Release,
    /// Node kill: poisons the semaphore, wakes every waiter.
    Close,
    /// Node revival.
    Reopen,
    /// Acquire with a pre-fired cancellation token.
    CancelledAcquire,
    /// Saturate the semaphore, park a real waiter thread, then close:
    /// the waiter must wake with `NodeDown`, not sit on a dead node.
    KillWake,
    /// Enter the admission pool (or time out if it is full).
    Admit,
    /// Drop the oldest admission guard.
    ReleaseAdmit,
    /// With the pool full: a queued waiter fills the queue, the next
    /// session bounces with `Saturated`, the waiter times out.
    AdmitContended,
    /// Enter the admission pool with a pre-fired cancellation token.
    CancelledAdmit,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..=CAPACITY).prop_map(Op::TryAcquire),
        (1usize..=CAPACITY).prop_map(Op::TimedAcquire),
        Just(Op::Release),
        Just(Op::Close),
        Just(Op::Reopen),
        Just(Op::CancelledAcquire),
        Just(Op::KillWake),
        Just(Op::Admit),
        Just(Op::ReleaseAdmit),
        Just(Op::AdmitContended),
        Just(Op::CancelledAdmit),
    ]
}

fn admission() -> Arc<AdmissionControl> {
    Arc::new(AdmissionControl::new(
        AdmissionLimits {
            max_concurrent: MAX_CONCURRENT,
            max_queue: MAX_QUEUE,
            timeout: Some(ADMIT_TIMEOUT),
        },
        Registry::new(),
    ))
}

/// Plain admit with the full outcome contract: a guard when the pool
/// has room, `DeadlineExceeded` when it doesn't (single-threaded, so
/// nobody drains the queue while we wait).
fn admit_one(ctl: &AdmissionControl, admits: &mut Vec<SlotGuard>) {
    match ctl.admit(0, None) {
        Ok(Some(g)) => {
            assert!(admits.len() < MAX_CONCURRENT, "admitted past max_concurrent");
            admits.push(g);
        }
        Ok(None) => panic!("admission is enabled; pass-through is a bug"),
        Err(EonError::DeadlineExceeded(_)) => {
            assert_eq!(admits.len(), MAX_CONCURRENT, "timed out with room in the pool");
        }
        Err(other) => panic!("unexpected admit outcome: {other}"),
    }
}

proptest! {
    #[test]
    fn random_interleavings_never_deadlock_or_leak(
        ops in vec(op_strategy(), 1..40),
    ) {
        let slots = ExecSlots::new(CAPACITY, &Registry::new(), &[]);
        let ctl = admission();
        let mut held: Vec<(usize, eon_cluster::SlotGuard)> = Vec::new();
        let mut held_n = 0usize;
        let mut admits: Vec<SlotGuard> = Vec::new();
        let mut closed = false;

        for op in &ops {
            match op {
                Op::TryAcquire(n) => {
                    let room = slots.available() >= *n;
                    match slots.try_acquire(*n) {
                        Some(g) => {
                            assert!(!closed && room, "try_acquire handed out a slot it didn't have");
                            held.push((*n, g));
                            held_n += n;
                        }
                        None => assert!(closed || !room, "try_acquire refused an available slot"),
                    }
                }
                Op::TimedAcquire(n) => {
                    let room = slots.available() >= *n;
                    match slots.acquire_wait(*n, &SlotWait::with_timeout(Duration::from_millis(5))) {
                        Ok(g) => {
                            assert!(!closed && room);
                            held.push((*n, g));
                            held_n += n;
                        }
                        Err(EonError::NodeDown(_)) => assert!(closed),
                        Err(EonError::DeadlineExceeded(_)) => assert!(!closed && !room),
                        Err(other) => panic!("unexpected acquire outcome: {other}"),
                    }
                }
                Op::Release => {
                    if !held.is_empty() {
                        held_n -= held.remove(0).0;
                    }
                }
                Op::Close => {
                    slots.close();
                    closed = true;
                }
                Op::Reopen => {
                    slots.reopen();
                    closed = false;
                }
                Op::CancelledAcquire => {
                    let token = CancelToken::new();
                    token.cancel();
                    match slots.acquire_wait(1, &SlotWait::unbounded().cancel(token)) {
                        Err(EonError::NodeDown(_)) => assert!(closed),
                        Err(EonError::Cancelled(_)) => assert!(!closed),
                        other => panic!("fired token must cancel, got {other:?}"),
                    }
                }
                Op::KillWake => {
                    if closed {
                        slots.reopen();
                        closed = false;
                    }
                    // Saturate, park a real waiter, kill the node: the
                    // waiter must resolve with NodeDown (this join is
                    // the no-deadlock proof for the unbounded path).
                    let mut temps = Vec::new();
                    while let Some(g) = slots.try_acquire(1) {
                        temps.push(g);
                    }
                    let waiter = {
                        let slots = slots.clone();
                        thread::spawn(move || slots.acquire_wait(1, &SlotWait::unbounded()))
                    };
                    thread::sleep(Duration::from_millis(1));
                    slots.close();
                    match waiter.join().unwrap() {
                        Err(EonError::NodeDown(_)) => {}
                        other => panic!("kill must wake the waiter with NodeDown, got {other:?}"),
                    }
                    drop(temps);
                    slots.reopen();
                }
                Op::Admit => admit_one(&ctl, &mut admits),
                Op::ReleaseAdmit => {
                    if !admits.is_empty() {
                        admits.remove(0);
                    }
                }
                Op::AdmitContended => {
                    if admits.len() < MAX_CONCURRENT {
                        admit_one(&ctl, &mut admits);
                        continue;
                    }
                    // Pool full: a background session takes the one
                    // queue spot, so the foreground one is Saturated.
                    let waiter = {
                        let ctl = ctl.clone();
                        thread::spawn(move || ctl.admit(0, None).map(|_| ()))
                    };
                    while ctl.pool_depths(0).1 == 0 && !waiter.is_finished() {
                        thread::yield_now();
                    }
                    match ctl.admit(0, None) {
                        Err(EonError::Saturated { queued, depth }) => {
                            assert_eq!((queued, depth), (MAX_QUEUE, MAX_QUEUE));
                        }
                        // The background waiter can hit its own
                        // deadline before we observe the full queue;
                        // then we take the (now free) queue spot and
                        // time out the same way. Either way: typed,
                        // bounded, no park.
                        Err(EonError::DeadlineExceeded(_)) => {}
                        other => panic!("full pool + full queue must saturate, got {other:?}"),
                    }
                    // The queued waiter resolves by deadline, never a
                    // guard (single-threaded: nobody releases).
                    match waiter.join().unwrap() {
                        Err(EonError::DeadlineExceeded(_)) => {}
                        other => panic!("queued waiter must time out, got {other:?}"),
                    }
                }
                Op::CancelledAdmit => {
                    // Refused at the pool, full or not: the session
                    // takes no seat and no queue spot.
                    let token = CancelToken::new();
                    token.cancel();
                    let depths = ctl.pool_depths(0);
                    match ctl.admit(0, Some(&token)) {
                        Err(EonError::Cancelled(_)) => {}
                        other => panic!("fired token must cancel at the pool, got {other:?}"),
                    }
                    prop_assert_eq!(ctl.pool_depths(0), depths, "cancelled admit moved the pool");
                }
            }
            // The ledger invariant, after every single op.
            prop_assert_eq!(
                slots.available(),
                CAPACITY - held_n,
                "semaphore out of sync with live guards after {:?}",
                op
            );
            let (running, _) = ctl.pool_depths(0);
            prop_assert_eq!(running, admits.len(), "pool running count out of sync");
        }

        // Quiesce: release everything, revive, and the full budget is
        // back — no interleaving may eat a slot or a pool seat.
        held.clear();
        admits.clear();
        slots.reopen();
        prop_assert_eq!(slots.available(), CAPACITY);
        prop_assert_eq!(ctl.pool_depths(0), (0, 0));
    }
}
