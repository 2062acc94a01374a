//! Self-healing cluster integration tests (DESIGN.md "Failure
//! detection & degraded modes"): the failure detector declares dead
//! nodes deterministically, the supervisor takes over their shard
//! subscriptions via the ring rebalance and re-admits them through the
//! restart path — all with zero operator action — and the admission
//! front doors convert lost viability and storage brownouts into typed
//! fast failures instead of deep failover errors.

use std::sync::Arc;

use eon_columnar::Projection;
use eon_core::{check_crash_invariants, ClusterHealth, EonConfig, EonDb, TableModel};
use eon_exec::{Plan, ScanSpec};
use eon_storage::fault::{site, FaultPlan};
use eon_storage::{
    BreakerConfig, BreakerState, CircuitBreaker, FileSystem, MemFs, RetryFs, RetryPolicy, S3Config,
    S3SimFs, SharedFs,
};
use eon_types::{schema, EonError, NodeId, TxnVersion, Value};

fn int_rows(range: std::ops::Range<i64>) -> Vec<Vec<Value>> {
    range.map(|i| vec![Value::Int(i), Value::Int(i * 3)]).collect()
}

fn loaded_db(config: EonConfig) -> (Arc<EonDb>, TableModel) {
    let db = EonDb::create(Arc::new(MemFs::new()), config).unwrap();
    let s = schema![("id", Int), ("v", Int)];
    db.create_table(
        "t",
        s.clone(),
        vec![Projection::super_projection("p", &s, &[0], &[0])],
    )
    .unwrap();
    let rows = int_rows(0..900);
    db.copy_into("t", rows.clone()).unwrap();
    let mut model = TableModel::new("t");
    model.rows = rows;
    (db, model)
}

fn scan_sorted(db: &Arc<EonDb>) -> Vec<Vec<Value>> {
    let mut rows = db.query(&Plan::scan(ScanSpec::new("t"))).unwrap();
    rows.sort();
    rows
}

/// Sorted (node, shard) pairs of every ACTIVE subscription.
fn active_layout(db: &Arc<EonDb>) -> Vec<(eon_types::NodeId, eon_types::ShardId)> {
    let snap = db.snapshot().unwrap();
    let mut layout: Vec<_> = snap
        .subscriptions
        .values()
        .filter(|s| s.state == eon_catalog::SubState::Active)
        .map(|s| (s.node, s.shard))
        .collect();
    layout.sort();
    layout
}

/// A participant killed *mid-query* (the `query.worker.local` fault
/// site) is absorbed by failover, then detected, taken over, and
/// auto-restarted — the operator never acts.
#[test]
fn node_killed_mid_query_self_heals_without_operator() {
    let config = EonConfig::new(3, 3)
        .faults(FaultPlan::at_node(site::QUERY_WORKER_LOCAL, 0, 2))
        .health_ticks(1, 2, 1)
        .supervisor_restart_ticks(2);
    let (db, model) = loaded_db(config);
    let mut want = model.rows.clone();
    want.sort();

    // The armed site kills node 2 inside its local query phase;
    // failover must still return the exact answer.
    assert_eq!(scan_sorted(&db), want, "mid-query kill broke failover");
    assert!(!db.membership().get(NodeId(2)).unwrap().is_up());

    // Detector → takeover → auto-restart, driven only by ticks.
    let mut restarts = 0;
    let mut takeovers = 0;
    for _ in 0..8 {
        let r = db.supervise_tick();
        assert!(r.errors.is_empty(), "supervisor errors: {:?}", r.errors);
        restarts += r.restarted.len();
        takeovers += r.takeover_ops;
        assert_eq!(scan_sorted(&db), want, "service gap during self-heal");
    }
    assert!(restarts >= 1, "dead node was never auto-restarted");
    assert!(takeovers >= 1, "no subscription takeover happened");
    assert!(db.membership().get(NodeId(2)).unwrap().is_up());
    assert_eq!(db.cluster_health(), ClusterHealth::Healthy);
    let trace = db.health_trace();
    assert!(trace.contains("node2 DOWN"), "trace: {trace}");
    assert!(trace.contains("node2 RECOVERED"), "trace: {trace}");
    check_crash_invariants(&db, std::slice::from_ref(&model)).unwrap();
}

/// An operator restart racing the supervisor's in-flight rebalance
/// converges: the supervisor tolerates "already up", trims the
/// takeover surplus, and the cluster reaches a quiescent healthy
/// state upholding every invariant.
#[test]
fn operator_restart_racing_takeover_converges() {
    let config = EonConfig::new(3, 3)
        .health_ticks(1, 2, 1)
        .supervisor_restart_ticks(10); // supervisor would wait; operator races it
    let (db, model) = loaded_db(config);
    let initial_layout = active_layout(&db);
    db.kill_node(NodeId(1)).unwrap();

    // Tick until the takeover is mid-flight (DOWN declared, repair
    // passes committing), then restart the node out from under it.
    let mut saw_takeover = false;
    for _ in 0..3 {
        saw_takeover |= db.supervise_tick().takeover_ops > 0;
    }
    assert!(saw_takeover, "takeover never started");
    db.restart_node(NodeId(1)).unwrap();

    // The loop must converge to quiescence, not thrash.
    let mut quiet = 0;
    for _ in 0..12 {
        let r = db.supervise_tick();
        assert!(r.errors.is_empty(), "supervisor errors: {:?}", r.errors);
        if r.acted() { quiet = 0 } else { quiet += 1 }
    }
    assert!(quiet >= 2, "supervisor still acting after 12 ticks");
    assert_eq!(db.cluster_health(), ClusterHealth::Healthy);
    db.ensure_viable().unwrap();

    // Subscription layout converged back to the ring: identical to
    // the bootstrap layout (takeover surplus trimmed, rejoiner's
    // subscriptions re-activated).
    assert_eq!(
        active_layout(&db),
        initial_layout,
        "subscriptions did not converge back to the ring layout"
    );
    let mut want = model.rows.clone();
    want.sort();
    assert_eq!(scan_sorted(&db), want);
    check_crash_invariants(&db, std::slice::from_ref(&model)).unwrap();
}

/// Lost shard coverage rejects at the front door with typed
/// `ClusterDown` — queries, COPY, and DML alike — instead of
/// surfacing deep failover or storage errors.
#[test]
fn front_doors_reject_typed_cluster_down() {
    let (db, _) = loaded_db(EonConfig::new(3, 3));
    db.kill_node(NodeId(0)).unwrap();
    db.kill_node(NodeId(1)).unwrap(); // both subscribers of some shard
    assert!(matches!(db.cluster_health(), ClusterHealth::Down { .. }));
    assert!(matches!(
        db.query(&Plan::scan(ScanSpec::new("t"))),
        Err(EonError::ClusterDown(_))
    ));
    assert!(matches!(
        db.copy_into("t", int_rows(0..3)),
        Err(EonError::ClusterDown(_))
    ));
    assert!(matches!(
        db.delete_where(
            "t",
            &eon_columnar::Predicate::cmp(0, eon_columnar::pruning::CmpOp::Lt, 10i64)
        ),
        Err(EonError::ClusterDown(_))
    ));
}

/// Through an S3 brownout the cluster serves depot-only reads while
/// writes fast-fail with typed `StoreUnavailable`; when the brownout
/// clears, the breaker half-opens after its cooldown and recovers by
/// itself.
#[test]
fn brownout_serves_depot_reads_and_fast_fails_writes() {
    // Single node/shard: one warm scan provably populates the depot.
    let s3 = Arc::new(S3SimFs::new(S3Config::instant()));
    let config = EonConfig::new(1, 1).k_safety(0).breaker(1, 2, 1);
    let db = EonDb::create(s3.clone(), config).unwrap();
    let s = schema![("id", Int), ("v", Int)];
    db.create_table(
        "t",
        s.clone(),
        vec![Projection::super_projection("p", &s, &[0], &[0])],
    )
    .unwrap();
    let rows = int_rows(0..500);
    db.copy_into("t", rows.clone()).unwrap();
    let mut want = rows.clone();
    want.sort();
    assert_eq!(scan_sorted(&db), want); // warm the depot

    s3.set_brownout(true);
    // Reads: pure depot hits, no backing traffic, exact answers.
    let cost_before = s3.stats().cost_nanodollars;
    for _ in 0..3 {
        assert_eq!(scan_sorted(&db), want, "depot-only read failed");
    }
    assert_eq!(
        s3.stats().cost_nanodollars,
        cost_before,
        "brownout reads must not touch the store"
    );
    // The first write's initial upload burns one retry budget and
    // trips the breaker (threshold 1); everything after — including
    // the rest of that same statement — fast-fails, typed.
    let mut fast_fails = 0;
    for i in 0..4 {
        match db.copy_into("t", int_rows(500..510)) {
            Ok(_) => panic!("write {i} succeeded during brownout"),
            Err(EonError::StoreUnavailable(_)) => fast_fails += 1,
            // A full-budget transient failure: the trip itself, or a
            // post-cooldown probe finding the store still dark.
            Err(EonError::Storage(_)) => {}
            Err(e) => panic!("write {i}: unexpected error {e}"),
        }
    }
    assert!(fast_fails >= 1, "breaker never fast-failed a write");
    let breaker = db.breaker().unwrap();
    assert_eq!(breaker.state(), BreakerState::Open);
    assert!(matches!(db.cluster_health(), ClusterHealth::ReadOnly { .. }));

    // Brownout over: once the open breaker's cooldown is consumed the
    // next admission probes, succeeds, and closes it — no operator.
    s3.set_brownout(false);
    let extra = int_rows(500..600);
    let mut recovered = false;
    for _ in 0..6 {
        match db.copy_into("t", extra.clone()) {
            Ok(_) => {
                recovered = true;
                break;
            }
            Err(EonError::StoreUnavailable(_)) => continue, // cooldown
            Err(e) => panic!("post-brownout write: {e}"),
        }
    }
    assert!(recovered, "breaker never recovered after brownout cleared");
    assert_eq!(breaker.state(), BreakerState::Closed);
    assert_eq!(db.cluster_health(), ClusterHealth::Healthy);
    want.extend(extra);
    want.sort();
    assert_eq!(scan_sorted(&db), want, "post-brownout state inexact");
}

/// Sum of a registry's `name{...}` counter series.
fn series_sum(registry: &eon_obs::Registry, name: &str) -> u64 {
    let snap = registry.snapshot();
    let prefix = format!("{name}{{");
    snap.as_object()
        .unwrap()
        .iter()
        .filter(|(k, _)| k.starts_with(&prefix))
        .filter_map(|(_, v)| v.as_u64())
        .sum()
}

/// The storage column retries in exactly one place. A depot write
/// against a browned-out store costs `max_attempts` requests and counts
/// as one breaker failure — not `max_attempts`² requests and a breaker
/// tripped by a single logical operation — and under a flaky store a
/// whole read miss, a ranged miss and the catalog sync all retry through
/// `RetryFs`, whose `s3_retries_total` is the only retry series.
#[test]
fn one_retry_loop_below_the_depot() {
    let registry = eon_obs::Registry::new();
    let requests = || series_sum(&registry, "s3_requests_total");
    let policy = RetryPolicy::default();
    let (threshold, cooldown) = (2, 3);

    let sim = Arc::new(S3SimFs::with_metrics(S3Config::instant(), &registry));
    let breaker = CircuitBreaker::new(BreakerConfig {
        failure_threshold: threshold,
        cooldown,
        half_open_probes: 1,
    });
    let shared: SharedFs = Arc::new(RetryFs::new(
        sim.clone(),
        policy.clone(),
        &registry,
        Some(breaker.clone()),
    ));
    let cache = eon_cache::mem_cache(shared, 1 << 20, &registry, "n0");
    let body = bytes::Bytes::from_static(b"0123456789");

    sim.set_brownout(true);
    // One logical write = one retry budget = one recorded failure.
    let before = requests();
    assert!(matches!(cache.put_through("a", body.clone()), Err(EonError::Storage(_))));
    assert_eq!(requests() - before, u64::from(policy.max_attempts));
    assert_eq!(breaker.state(), BreakerState::Closed, "one write is one failure, threshold is 2");
    // The second failed write reaches the threshold.
    assert!(matches!(cache.put_through("b", body.clone()), Err(EonError::Storage(_))));
    assert_eq!(requests() - before, 2 * u64::from(policy.max_attempts));
    assert_eq!(breaker.state(), BreakerState::Open);
    // Open: exactly `cooldown` admissions fast-fail without a request…
    let open_at = requests();
    for _ in 0..cooldown {
        assert!(matches!(
            cache.put_through("c", body.clone()),
            Err(EonError::StoreUnavailable(_))
        ));
    }
    assert_eq!(requests(), open_at, "an open breaker must not reach the store");
    // …then the probe goes through, finds the store back, and closes it.
    sim.set_brownout(false);
    cache.put_through("c", body.clone()).unwrap();
    assert_eq!(requests() - open_at, 1);
    assert_eq!(breaker.state(), BreakerState::Closed);
    assert_eq!(series_sum(&registry, "s3_retries_total"), 2 * u64::from(policy.max_attempts - 1));

    // A flaky store (four requests in five fail): every injected
    // fault is answered by exactly one retry, counted by the one layer.
    let registry = eon_obs::Registry::new();
    let flaky = Arc::new(S3SimFs::with_metrics(S3Config::flaky(0.6, 0.2, 0xf1a4), &registry));
    let patient = RetryPolicy {
        max_attempts: 200,
        base_backoff: std::time::Duration::ZERO,
        max_backoff: std::time::Duration::ZERO,
    };
    let shared: SharedFs = Arc::new(RetryFs::new(flaky, patient, &registry, None));
    let cache = eon_cache::mem_cache(shared.clone(), 1 << 20, &registry, "n0");
    for i in 0..8 {
        shared.write(&format!("data/{i}"), body.clone()).unwrap();
    }
    let local = Arc::new(MemFs::new());
    let store = eon_catalog::CatalogStore::new(local, shared, "inc0");
    for v in 1..=8 {
        let record = eon_catalog::TxnRecord { version: TxnVersion(v), ops: Vec::new() };
        store.append_local(&[record]).unwrap();
    }
    let retried = |what: &str, op: &dyn Fn()| {
        let faults = series_sum(&registry, "s3_faults_injected_total");
        let retries = series_sum(&registry, "s3_retries_total");
        op();
        let faults = series_sum(&registry, "s3_faults_injected_total") - faults;
        assert!(faults > 0, "{what}: the dice injected nothing");
        assert_eq!(series_sum(&registry, "s3_retries_total") - retries, faults, "{what}");
    };
    retried("whole read miss", &|| {
        for i in 0..4 {
            assert_eq!(cache.read(&format!("data/{i}")).unwrap(), body);
        }
    });
    retried("ranged read miss", &|| {
        for i in 4..8 {
            assert_eq!(cache.read_range(&format!("data/{i}"), 2, 3).unwrap().as_ref(), b"234");
        }
    });
    retried("catalog sync", &|| {
        assert_eq!(store.sync_to_shared().unwrap().hi, TxnVersion(8));
    });
    assert_eq!(cache.stats().misses, 8);
    let snap = registry.snapshot();
    let retry_series: Vec<&String> =
        snap.as_object().unwrap().keys().filter(|k| k.contains("retries")).collect();
    assert_eq!(retry_series, ["s3_retries_total{subsystem=\"s3\"}"]);
}

/// The same kill/restart schedule produces a byte-identical detection
/// trace and tick count, run to run.
#[test]
fn detection_trace_is_deterministic() {
    let run = || {
        let (db, _) = loaded_db(
            EonConfig::new(3, 3)
                .health_ticks(2, 4, 2)
                .supervisor_restart_ticks(3),
        );
        for t in 0..16u64 {
            if t == 1 {
                db.kill_node(NodeId(0)).unwrap();
            }
            if t == 8 {
                db.kill_node(NodeId(2)).unwrap();
            }
            db.supervise_tick();
        }
        (db.health_trace(), db.supervisor_ticks())
    };
    let a = run();
    assert!(!a.0.is_empty());
    assert_eq!(a, run(), "detection traces diverged across identical runs");
}
