//! Admission control & deadline-aware scheduling (DESIGN.md
//! "Admission control"): no session parks forever on a saturated or
//! dying cluster.
//!
//! These tests pin the workload-management contract end to end:
//!
//! * a full resource pool rejects with typed [`EonError::Saturated`]
//!   instead of queueing without bound;
//! * a queued session gives up with `DeadlineExceeded` inside its
//!   configured queue timeout — the previously-hanging scenario;
//! * execution-slot waits are deadline-bounded too, and a node kill
//!   wakes every parked waiter with `NodeDown` instead of leaving it
//!   on a dead semaphore;
//! * cancellation tokens release everything a session holds at the
//!   next boundary (admission queue, slot wait, scan/write pools);
//! * after every scenario — including a seeded multi-session stress
//!   mix of queries, COPY, mergeout, and a node kill — the cluster
//!   quiesces clean: `available == capacity` on every up node's slot
//!   semaphore and zero running/queued sessions in every pool.
//!
//! Every blocking test runs under a watchdog so a regression shows up
//! as a failed assertion, not a hung `cargo test`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use eon_cluster::SlotGuard;
use eon_core::{EonConfig, EonDb, SessionOpts};
use eon_db as _;
use eon_exec::{AggSpec, Expr, Plan, ScanSpec};
use eon_storage::MemFs;
use eon_types::{schema, CancelToken, EonError, NodeId, Value};

/// Fail the test if `f` does not finish within `secs` — a hang is a
/// bug this suite exists to catch, and it must surface as a failure.
fn with_watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("watchdog fired: scenario hung instead of resolving")
}

fn count_plan() -> Plan {
    Plan::scan(ScanSpec::new("t")).aggregate(vec![], vec![AggSpec::count_star()])
}

fn sum_plan() -> Plan {
    Plan::scan(ScanSpec::new("t")).aggregate(vec![], vec![AggSpec::sum(Expr::col(1))])
}

fn setup(db: &EonDb, rows: i64) {
    let s = schema![("id", Int), ("v", Int)];
    db.create_table(
        "t",
        s.clone(),
        vec![eon_columnar::Projection::super_projection("p", &s, &[0], &[0])],
    )
    .unwrap();
    db.copy_into(
        "t",
        (0..rows).map(|i| vec![Value::Int(i), Value::Int(i % 101)]).collect(),
    )
    .unwrap();
}

/// Take every execution slot on every up node, so the next session
/// parks at the slot semaphore.
fn hold_all_slots(db: &EonDb) -> Vec<SlotGuard> {
    db.membership()
        .up_nodes()
        .iter()
        .map(|n| n.slots.acquire(n.slots.capacity()).unwrap())
        .collect()
}

/// The quiesce invariant: nothing leaked anywhere.
fn assert_quiesced(db: &EonDb) {
    for node in db.membership().up_nodes() {
        assert_eq!(
            node.slots.available(),
            node.slots.capacity(),
            "node {} leaked execution slots",
            node.id
        );
    }
    assert_eq!(
        db.admission().pool_depths(0),
        (0, 0),
        "admission pool leaked running/queued sessions"
    );
}

/// Spin until `cond` holds (bounded — the enclosing watchdog is the
/// real backstop, this keeps the error local).
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < Duration::from_secs(20), "never reached: {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

/// Pool at max concurrency + full queue ⇒ the next session is turned
/// away immediately with `Saturated {queued, depth}`, and the sessions
/// already admitted or queued still complete once capacity frees up.
/// The pool's rejection, timeout and cancellation series count exactly
/// the outcomes the sessions saw.
#[test]
fn saturated_pool_rejects_instead_of_parking() {
    with_watchdog(120, || {
        let db = EonDb::create(
            Arc::new(MemFs::new()),
            EonConfig::new(2, 2)
                .admission_max_concurrent(1)
                .admission_max_queue(1)
                .admission_timeout_ms(60_000)
                .slot_wait_ms(60_000),
        )
        .unwrap();
        setup(&db, 500);

        // Session A is admitted (running=1) and parks at the slot
        // semaphore; session B fills the one queue spot.
        let held = hold_all_slots(&db);
        let a = {
            let db = db.clone();
            thread::spawn(move || db.query(&count_plan()))
        };
        wait_until("A admitted", || db.admission().pool_depths(0) == (1, 0));
        let b = {
            let db = db.clone();
            thread::spawn(move || db.query(&count_plan()))
        };
        wait_until("B queued", || db.admission().pool_depths(0) == (1, 1));

        // Session C must be rejected *now*, not after a timeout.
        let started = Instant::now();
        match db.query(&count_plan()) {
            Err(EonError::Saturated { queued, depth }) => {
                assert_eq!((queued, depth), (1, 1));
            }
            other => panic!("expected Saturated, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "Saturated took {:?} — rejection must not wait out the queue timeout",
            started.elapsed()
        );

        // Free the slots: A runs, then B drains from the queue.
        drop(held);
        assert_eq!(a.join().unwrap().unwrap()[0][0], Value::Int(500));
        assert_eq!(b.join().unwrap().unwrap()[0][0], Value::Int(500));
        assert_quiesced(&db);

        // One `Saturated`, no `DeadlineExceeded`, no `Cancelled`.
        let snap = db.metrics().deterministic_snapshot();
        let pool = |name: &str| {
            snap.get(&format!("{name}{{pool=\"sc0\",subsystem=\"admission\"}}"))
                .and_then(|v| v.as_u64())
        };
        assert_eq!(pool("exec_slot_rejections_total"), Some(1));
        assert_eq!(pool("exec_slot_timeouts_total"), Some(0));
        assert_eq!(pool("exec_slot_cancellations_total"), Some(0));
        assert_eq!(pool("exec_slot_acquisitions_total"), Some(2));
    });
}

/// A queued session on a pool that never drains gives up with
/// `DeadlineExceeded` — the exact scenario that used to park forever.
#[test]
fn queue_deadline_expires_instead_of_hanging() {
    with_watchdog(120, || {
        let db = EonDb::create(
            Arc::new(MemFs::new()),
            EonConfig::new(2, 2)
                .admission_max_concurrent(1)
                .admission_max_queue(0) // unbounded queue: only the deadline saves us
                .admission_timeout_ms(300)
                .slot_wait_ms(60_000),
        )
        .unwrap();
        setup(&db, 500);

        let held = hold_all_slots(&db);
        let a = {
            let db = db.clone();
            thread::spawn(move || db.query(&count_plan()))
        };
        wait_until("A admitted", || db.admission().pool_depths(0) == (1, 0));

        let started = Instant::now();
        match db.query(&count_plan()) {
            Err(EonError::DeadlineExceeded(what)) => {
                assert!(what.contains("admission"), "unexpected deadline site: {what}")
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The planned-wait budget is 300ms of 1ms ticks; scheduler slop
        // may stretch the wall clock, but nowhere near a hang.
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "queue deadline took {:?}",
            started.elapsed()
        );

        drop(held);
        assert_eq!(a.join().unwrap().unwrap()[0][0], Value::Int(500));
        assert_quiesced(&db);
    });
}

/// With admission control off, the execution-slot wait itself is
/// deadline-bounded: a session facing a saturated semaphore resolves
/// with `DeadlineExceeded` within `slot_wait_ms`, then succeeds once
/// the slots free up.
#[test]
fn slot_wait_deadline_bounds_a_saturated_node() {
    with_watchdog(120, || {
        let db = EonDb::create(
            Arc::new(MemFs::new()),
            EonConfig::new(2, 2).slot_wait_ms(250),
        )
        .unwrap();
        setup(&db, 500);

        let held = hold_all_slots(&db);
        let started = Instant::now();
        match db.query(&count_plan()) {
            Err(EonError::DeadlineExceeded(what)) => {
                assert!(what.contains("slot"), "unexpected deadline site: {what}")
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(60));

        drop(held);
        assert_eq!(db.query(&count_plan()).unwrap()[0][0], Value::Int(500));
        assert_quiesced(&db);
    });
}

/// A fired cancellation token resolves a session wherever it is —
/// parked at the slot semaphore, queued for admission, or about to
/// claim scan work — with `Cancelled`, releasing everything it held.
#[test]
fn cancel_token_releases_a_parked_session() {
    with_watchdog(120, || {
        let db = EonDb::create(
            Arc::new(MemFs::new()),
            EonConfig::new(2, 2)
                .admission_max_concurrent(2)
                .admission_timeout_ms(60_000)
                .slot_wait_ms(60_000),
        )
        .unwrap();
        setup(&db, 500);

        // Parked at the slot wait, then cancelled from outside.
        let held = hold_all_slots(&db);
        let token = CancelToken::new();
        let a = {
            let db = db.clone();
            let opts = SessionOpts {
                cancel: Some(token.clone()),
                ..Default::default()
            };
            thread::spawn(move || db.query_with(&count_plan(), &opts))
        };
        thread::sleep(Duration::from_millis(50));
        token.cancel();
        match a.join().unwrap() {
            Err(EonError::Cancelled(_)) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        drop(held);

        // A pre-fired token never runs at all — same typed outcome on a
        // completely healthy cluster.
        let fired = CancelToken::new();
        fired.cancel();
        let opts = SessionOpts {
            cancel: Some(fired),
            ..Default::default()
        };
        match db.query_with(&count_plan(), &opts) {
            Err(EonError::Cancelled(_)) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }

        // A cancelled COPY rolls back and leaks nothing.
        let fired = CancelToken::new();
        fired.cancel();
        let before = db.query(&count_plan()).unwrap()[0][0].clone();
        assert!(db
            .copy_into_cancellable(
                "t",
                (0..100).map(|i| vec![Value::Int(i), Value::Int(i)]).collect(),
                fired,
            )
            .is_err());
        assert_eq!(db.query(&count_plan()).unwrap()[0][0], before);
        assert_quiesced(&db);
    });
}

/// Killing a node wakes every session parked on its slot semaphore
/// with `NodeDown` — nobody waits out a 60s deadline on a dead node.
/// The woken worker's `NodeDown` feeds failover, which re-plans on the
/// survivor and answers.
#[test]
fn node_kill_wakes_parked_sessions() {
    with_watchdog(120, || {
        let db = EonDb::create(
            Arc::new(MemFs::new()),
            EonConfig::new(3, 3).slot_wait_ms(60_000),
        )
        .unwrap();
        setup(&db, 500);

        // Every node's semaphore is saturated, so the session's
        // workers park at the slot wait. (Three nodes: killing one
        // keeps quorum and shard coverage for the failover.)
        let held = hold_all_slots(&db);
        let a = {
            let db = db.clone();
            thread::spawn(move || db.query(&count_plan()))
        };
        thread::sleep(Duration::from_millis(50));

        // Kill node 0: its parked worker must wake with `NodeDown`
        // immediately (not after the 60s deadline). Freeing the
        // survivors' slots lets failover answer on nodes 1–2.
        let started = Instant::now();
        db.kill_node(NodeId(0)).unwrap();
        drop(held);
        assert_eq!(a.join().unwrap().unwrap()[0][0], Value::Int(500));
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "kill should wake the parked worker, not leave it to the 60s deadline"
        );

        db.restart_node(NodeId(0)).unwrap();
        assert_eq!(db.query(&count_plan()).unwrap()[0][0], Value::Int(500));
        assert_quiesced(&db);
    });
}

/// Seeded multi-session stress: queries (plain, bypass, crunch), COPY,
/// mergeout, mid-run cancellations, and a node kill+restart, all under
/// tight admission limits. Every session must resolve (the watchdog is
/// the hang detector), and the cluster must quiesce with zero leaked
/// slots and empty pools.
#[test]
fn stress_mix_quiesces_with_no_leaks() {
    with_watchdog(300, || {
        let db = EonDb::create(
            Arc::new(MemFs::new()),
            EonConfig::new(3, 3)
                .admission_max_concurrent(2)
                .admission_max_queue(8)
                .admission_timeout_ms(10_000)
                .slot_wait_ms(10_000),
        )
        .unwrap();
        setup(&db, 2_000);

        let errors = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::new();
        for w in 0..4u64 {
            let db = db.clone();
            let errors = errors.clone();
            workers.push(thread::spawn(move || {
                // Per-thread seeded LCG: the op mix is reproducible.
                let mut seed = 0x9e3779b97f4a7c15u64.wrapping_mul(w + 1);
                let mut next = || {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    seed >> 33
                };
                for i in 0..24 {
                    let r = match next() % 6 {
                        0 => db.query(&count_plan()).map(|_| ()),
                        1 => db.query(&sum_plan()).map(|_| ()),
                        2 => db
                            .query_with(
                                &count_plan(),
                                &SessionOpts {
                                    bypass_cache: true,
                                    ..Default::default()
                                },
                            )
                            .map(|_| ()),
                        3 => db
                            .copy_into(
                                "t",
                                vec![vec![
                                    Value::Int(1_000_000 + (w * 100 + i) as i64),
                                    Value::Int(0),
                                ]],
                            )
                            .map(|_| ()),
                        4 => db.run_mergeout().map(|_| ()),
                        _ => {
                            // Cancel mid-flight from a sibling thread.
                            let token = CancelToken::new();
                            let killer = {
                                let t = token.clone();
                                thread::spawn(move || {
                                    thread::sleep(Duration::from_millis(2));
                                    t.cancel();
                                })
                            };
                            let r = db
                                .query_with(
                                    &sum_plan(),
                                    &SessionOpts {
                                        cancel: Some(token),
                                        ..Default::default()
                                    },
                                )
                                .map(|_| ());
                            killer.join().unwrap();
                            r
                        }
                    };
                    if r.is_err() {
                        // Backpressure and races with the kill below are
                        // expected; hangs and leaks are not.
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }

        // Kill and restart a node while the mix is running.
        thread::sleep(Duration::from_millis(30));
        db.kill_node(NodeId(2)).unwrap();
        thread::sleep(Duration::from_millis(30));
        db.restart_node(NodeId(2)).unwrap();

        for w in workers {
            w.join().unwrap();
        }
        // The cluster still answers, and nothing leaked.
        assert!(db.query(&count_plan()).unwrap()[0][0] >= Value::Int(2_000));
        assert_quiesced(&db);
    });
}

/// Serial sessions under admission control produce deterministic
/// admission counts in the metrics registry.
#[test]
fn serial_admission_counts_are_deterministic() {
    let db = EonDb::create(
        Arc::new(MemFs::new()),
        EonConfig::new(2, 2)
            .admission_max_concurrent(2)
            .admission_max_queue(4),
    )
    .unwrap();
    setup(&db, 200);
    for _ in 0..10 {
        db.query(&count_plan()).unwrap();
    }
    let snap = db.metrics().deterministic_snapshot();
    let admitted = snap
        .get("exec_slot_acquisitions_total{pool=\"sc0\",subsystem=\"admission\"}")
        .and_then(|v| v.as_u64());
    assert_eq!(admitted, Some(10), "expected exactly 10 admissions");
    let rejected = snap
        .get("exec_slot_rejections_total{pool=\"sc0\",subsystem=\"admission\"}")
        .and_then(|v| v.as_u64());
    assert_eq!(rejected, Some(0));
    assert_quiesced(&db);
}

/// Regression: nodes commissioned after database creation must land
/// their slot metrics in the database registry, not a throwaway one —
/// every node runtime is built with the database registry.
#[test]
fn fresh_node_slot_metrics_land_in_db_registry() {
    let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(2, 2)).unwrap();
    setup(&db, 200);
    let id = db.add_node().unwrap();
    let node = db.membership().get(id).unwrap();
    drop(node.slots.acquire(1).unwrap());
    let snap = db.metrics().deterministic_snapshot();
    for n in 0..=id.0 {
        let key = format!("exec_slot_acquisitions_total{{node=\"node{n}\",subsystem=\"exec\"}}");
        assert!(
            snap.get(&key).is_some(),
            "node{n}'s slot metrics missing from the db registry (key {key})"
        );
    }
    let newcomer = snap
        .get(&format!(
            "exec_slot_acquisitions_total{{node=\"node{}\",subsystem=\"exec\"}}",
            id.0
        ))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(newcomer >= 1, "newcomer's acquisition never reached the registry");
}

/// Regression: with *zero* nodes up there is no attestation that old
/// file versions are unread (a restarting node may resume a query), so
/// a reap pass during a full outage must delete nothing and keep every
/// pending key — previously `min_query_version` defaulted to
/// `u64::MAX` and the pass reaped as if the cluster were quiescent.
#[test]
fn reap_skips_full_outage() {
    // Partial outage: the surviving node attests no query is in
    // flight, so files dropped before the outage still reap.
    let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(2, 2)).unwrap();
    setup(&db, 500);
    db.drop_table("t").unwrap();
    db.sync_metadata(1_000).unwrap();
    assert!(!db.reaper_pending_keys().is_empty());
    db.kill_node(NodeId(1)).unwrap();
    assert!(!db.reap_files().unwrap().is_empty(), "partial outage should still reap");

    // Full outage: zero up nodes means zero attestation — the pass
    // must delete nothing and keep every pending key.
    let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(2, 2)).unwrap();
    setup(&db, 500);
    db.drop_table("t").unwrap();
    db.sync_metadata(1_000).unwrap();
    let pending = db.reaper_pending_keys();
    assert!(!pending.is_empty(), "drop should leave files awaiting reap");
    db.kill_node(NodeId(0)).unwrap();
    db.kill_node(NodeId(1)).unwrap();
    assert_eq!(
        db.reap_files().unwrap(),
        Vec::<String>::new(),
        "a full outage must not reap"
    );
    assert_eq!(db.reaper_pending_keys(), pending, "outage pass must keep every key");
    // In-process restart needs a live peer to catch up from; a full
    // outage is revive territory — and crucially the keys are still
    // pending for whoever recovers, not deleted under a restarting
    // node's feet.
    assert!(db.restart_node(NodeId(0)).is_err());
    assert_eq!(db.reaper_pending_keys(), pending);
}

/// Regression: a panicking query worker is contained into a typed
/// error at the join and absorbed by failover — the session answers,
/// the process survives, and the node stays up (a panic is not a
/// crash).
#[test]
fn worker_panic_is_contained_and_fails_over() {
    use eon_storage::fault::{site, FaultPlan};
    let plan_inject = FaultPlan::at_node(site::QUERY_WORKER_PANIC, 0, 1);
    let db = EonDb::create(
        Arc::new(MemFs::new()),
        EonConfig::new(4, 3).faults(plan_inject.clone()),
    )
    .unwrap();
    setup(&db, 1_000);
    let expect: i64 = (0..1_000).map(|i| i % 101).sum();

    // Run sessions until the armed panic fires (node 1 may not
    // participate in the very first one).
    let mut fired = false;
    for _ in 0..20 {
        let out = db.query(&sum_plan()).expect("failover should absorb the panic");
        assert_eq!(out[0][0], Value::Int(expect));
        if !plan_inject.fired().is_empty() {
            fired = true;
            break;
        }
    }
    assert!(fired, "panic site never fired");
    // Unlike a participant death, a contained panic leaves the node up.
    assert!(db.membership().get(NodeId(1)).unwrap().is_up());
    assert_eq!(db.query(&sum_plan()).unwrap()[0][0], Value::Int(expect));
    assert_quiesced(&db);
}
