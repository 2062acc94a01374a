//! End-to-end lifecycle tests: node failure and recovery (§3.3, §6.1),
//! elastic scale out/in (§6.4), and revive from shared storage (§3.5).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use eon_catalog::SubState;
use eon_columnar::Projection;
use eon_core::{EonConfig, EonDb};
use eon_exec::{AggSpec, Expr, Plan, ScanSpec};
use eon_storage::{MemFs, SharedFs};
use eon_types::{schema, DataType, EonError, Field, NodeId, Value};

fn db_loaded(nodes: usize, shards: usize) -> (SharedFs, Arc<EonDb>) {
    let shared: SharedFs = Arc::new(MemFs::new());
    let db = EonDb::create(shared.clone(), EonConfig::new(nodes, shards)).unwrap();
    let s = schema![("id", Int), ("v", Int)];
    db.create_table(
        "t",
        s.clone(),
        vec![Projection::super_projection("p", &s, &[0], &[0])],
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..1500)
        .map(|i| vec![Value::Int(i), Value::Int(i % 11)])
        .collect();
    db.copy_into("t", rows).unwrap();
    (shared, db)
}

fn total(db: &EonDb) -> i64 {
    let plan = Plan::scan(ScanSpec::new("t")).aggregate(vec![], vec![AggSpec::count_star()]);
    db.query(&plan).unwrap()[0][0].as_int().unwrap()
}

fn sum_v(db: &EonDb) -> i64 {
    let plan = Plan::scan(ScanSpec::new("t")).aggregate(vec![], vec![AggSpec::sum(Expr::col(1))]);
    db.query(&plan).unwrap()[0][0].as_int().unwrap()
}

#[test]
fn queries_survive_single_node_failure() {
    let (_, db) = db_loaded(4, 3);
    let before = (total(&db), sum_v(&db));
    db.kill_node(NodeId(1)).unwrap();
    // No repair needed: other subscribers serve immediately (§6.1).
    assert_eq!((total(&db), sum_v(&db)), before);
}

#[test]
fn restart_resubscribes_and_catches_up() {
    let (_, db) = db_loaded(3, 3);
    let before = total(&db);
    db.kill_node(NodeId(2)).unwrap();
    // Commit work while the node is down so it falls behind.
    db.copy_into(
        "t",
        (2000..2100).map(|i| vec![Value::Int(i), Value::Int(0)]).collect(),
    )
    .unwrap();
    assert_eq!(total(&db), before + 100);

    db.restart_node(NodeId(2)).unwrap();
    let node = db.membership().get(NodeId(2)).unwrap();
    assert!(node.is_up());
    // Caught up to the cluster version.
    assert_eq!(node.catalog.version(), db.version());
    // All its subscriptions are ACTIVE again.
    let snap = db.snapshot().unwrap();
    for s in snap.subscriptions_of(NodeId(2)) {
        assert_eq!(s.state, SubState::Active, "{s:?}");
    }
    assert_eq!(total(&db), before + 100);
}

/// A node restarted while COPYs keep committing misses none of them:
/// the catch-up and the rejoin are one step under the commit lock, so
/// no commit falls between them. A missed record would halt the
/// cluster at the next commit (out-of-order apply on the rejoiner).
#[test]
fn restart_under_concurrent_copies_misses_no_commit() {
    const ROUNDS: usize = 40;
    let (_, db) = db_loaded(3, 3);
    let stop = AtomicBool::new(false);
    let copier = || {
        let mut acked = 0i64;
        while !stop.load(Ordering::SeqCst) {
            match db.copy_into("t", vec![vec![Value::Int(-1), Value::Int(0)]]) {
                Ok(_) => acked += 1,
                // The kill took this statement's coordinator, or the
                // re-subscription took a writer's shard (§4.5 rollback):
                // the statement failed alone, nothing was committed.
                Err(EonError::NodeDown(_) | EonError::CommitInvariant(_)) => {}
                Err(e) => panic!("COPY beside a restart: {e}"),
            }
        }
        acked
    };
    let acked: i64 = std::thread::scope(|scope| {
        let copiers = [scope.spawn(copier), scope.spawn(copier)];
        for _ in 0..ROUNDS {
            db.kill_node(NodeId(2)).unwrap();
            db.restart_node(NodeId(2)).unwrap();
            // Scans keep answering with the rejoiner participating.
            assert!(total(&db) >= 1500);
        }
        stop.store(true, Ordering::SeqCst);
        copiers.map(|c| c.join().unwrap()).iter().sum()
    });
    let node = db.membership().get(NodeId(2)).unwrap();
    assert_eq!(node.catalog.version(), db.version());
    // Several sessions, so the rejoiner both coordinates and serves.
    for _ in 0..6 {
        assert_eq!(total(&db), 1500 + acked);
    }
}

/// A node added while COPYs keep committing misses none of them: the
/// catalog install and the join are one step under the commit lock. A
/// commit landing between them would leave the newcomer one record
/// behind, and the next record it is shipped would not apply
/// consecutively — the cluster halts as divergence (§3.4).
#[test]
fn add_node_under_concurrent_copies_misses_no_commit() {
    const ROUNDS: usize = 12;
    let (_, db) = db_loaded(3, 3);
    let stop = AtomicBool::new(false);
    let copier = || {
        let mut acked = 0i64;
        while !stop.load(Ordering::SeqCst) {
            match db.copy_into("t", vec![vec![Value::Int(-1), Value::Int(0)]]) {
                Ok(_) => acked += 1,
                // The rebalance took a writer's shard (§4.5 rollback):
                // the statement failed alone, nothing was committed.
                Err(EonError::CommitInvariant(_)) => {}
                Err(e) => panic!("COPY beside an add_node: {e}"),
            }
        }
        acked
    };
    let count = Plan::scan(ScanSpec::new("t")).aggregate(vec![], vec![AggSpec::count_star()]);
    let (added, acked): (Vec<NodeId>, i64) = std::thread::scope(|scope| {
        let copiers = [scope.spawn(copier), scope.spawn(copier)];
        // Scans keep answering with each newcomer participating. The
        // copiers are stopped before any failure is raised, so a broken
        // round fails the test instead of hanging it.
        let added: eon_types::Result<Vec<NodeId>> = (0..ROUNDS)
            .map(|_| {
                let id = db.add_node()?;
                db.query(&count).map(|_| id)
            })
            .collect();
        stop.store(true, Ordering::SeqCst);
        (added.unwrap(), copiers.map(|c| c.join().unwrap()).iter().sum())
    });
    for id in added {
        let node = db.membership().get(id).unwrap();
        assert_eq!(node.catalog.version(), db.version(), "{id}");
    }
    // Several sessions, so newcomers both coordinate and serve.
    for _ in 0..6 {
        assert_eq!(total(&db), 1500 + acked);
    }
}

#[test]
fn restarted_node_cache_is_warm() {
    let (_, db) = db_loaded(3, 3);
    // Touch data so peers have warm caches.
    let _ = total(&db);
    db.kill_node(NodeId(0)).unwrap();
    let warmed = db.restart_node(NodeId(0)).unwrap();
    assert!(warmed > 0, "peer warming moved no files");
}

/// A restarted node keeps counting into the database registry: its
/// new depot and slots continue node 1's series rather than counting
/// somewhere no snapshot reads. Holds for a single restart and for a
/// whole-cluster cold restart.
#[test]
fn restarted_nodes_count_into_the_registry() {
    let (_, db) = db_loaded(3, 3);
    let node1 = |name: &str, subsystem: &str| {
        let key = format!("{name}{{node=\"node1\",subsystem=\"{subsystem}\"}}");
        let snap = db.metrics().deterministic_snapshot();
        snap.get(&key).and_then(|v| v.as_u64()).unwrap_or(0)
    };
    // Each query reads a column, so each goes through the depot: a
    // `COUNT(*)` reads no block, and the node keeps the footers it
    // opened once.
    let run_queries = || {
        for _ in 0..30 {
            sum_v(&db);
        }
    };
    run_queries();
    db.kill_node(NodeId(1)).unwrap();
    let warmed = db.restart_node(NodeId(1)).unwrap();
    assert!(warmed > 0, "peer warming moved no files");
    assert_eq!(node1("depot_warmup_files_total", "depot"), warmed as u64);

    // After the restart, then after a whole-cluster cold restart.
    for cold in [false, true] {
        if cold {
            db.cold_restart_all().unwrap();
        }
        let slots = node1("exec_slot_acquisitions_total", "exec");
        let hits = node1("depot_hits_total", "depot");
        run_queries();
        assert!(node1("exec_slot_acquisitions_total", "exec") > slots, "slot acquisitions stalled");
        assert!(node1("depot_hits_total", "depot") > hits, "depot hits stalled");
    }
    assert_eq!(node1("depot_warmup_files_total", "depot"), warmed as u64);
}

/// Floats survive the redo log bit for bit. A COPY of NaN, ±inf and
/// -0.0 puts NaN and -inf into its container's min/max statistics, and
/// ADD COLUMN records a NaN default; a restarted node and a cold
/// restart both replay those records and answer the same rows.
#[test]
fn non_finite_floats_survive_restarts_bit_for_bit() {
    let shared: SharedFs = Arc::new(MemFs::new());
    let db = EonDb::create(shared, EonConfig::new(3, 3)).unwrap();
    let s = schema![("id", Int), ("x", Float)];
    db.create_table(
        "f",
        s.clone(),
        vec![Projection::super_projection("p", &s, &[0], &[0])],
    )
    .unwrap();
    let xs = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1.5];
    let rows = (0..)
        .zip(xs)
        .map(|(i, x)| vec![Value::Int(i), Value::Float(x)])
        .collect();
    db.copy_into("f", rows).unwrap();
    db.add_column(
        "f",
        Field::new("y", DataType::Float),
        Value::Float(f64::NAN),
    )
    .unwrap();

    let float_bits = |db: &EonDb| {
        let mut rows = db.query(&Plan::scan(ScanSpec::new("f"))).unwrap();
        rows.sort_by_key(|r| r[0].as_int());
        rows.iter()
            .map(|r| {
                r[1..]
                    .iter()
                    .map(|v| match v {
                        Value::Float(f) => f.to_bits(),
                        other => panic!("not a float: {other:?}"),
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    let want: Vec<Vec<u64>> = xs
        .iter()
        .map(|x| vec![x.to_bits(), f64::NAN.to_bits()])
        .collect();
    assert_eq!(float_bits(&db), want);
    db.kill_node(NodeId(1)).unwrap();
    db.restart_node(NodeId(1)).unwrap();
    assert_eq!(float_bits(&db), want);
    db.cold_restart_all().unwrap();
    assert_eq!(float_bits(&db), want);
}

#[test]
fn add_node_without_data_redistribution() {
    let (shared, db) = db_loaded(3, 3);
    let puts_before = shared.stats().puts;
    let before = (total(&db), sum_v(&db));
    let id = db.add_node().unwrap();
    assert_eq!(db.membership().len(), 4);
    // Elasticity (§6.4): adding a node writes metadata (checkpoint),
    // but never rewrites data containers.
    let snap = db.snapshot().unwrap();
    let container_keys: Vec<&str> = snap.containers.values().map(|c| c.key.as_str()).collect();
    let puts_after = shared.stats().puts;
    // No data/ puts: every new shared-storage write is metadata.
    assert!(puts_after >= puts_before);
    for key in shared.list("data/").unwrap() {
        assert!(container_keys.contains(&key.as_str()) || snap
            .delete_vectors
            .values()
            .any(|d| d.key == key));
    }
    // New node participates and answers stay exact.
    assert_eq!((total(&db), sum_v(&db)), before);
    let new_subs = snap.subscriptions_of(id);
    assert!(!new_subs.is_empty());
    for s in new_subs {
        assert_eq!(s.state, SubState::Active);
    }
}

#[test]
fn remove_node_keeps_fault_tolerance() {
    let (_, db) = db_loaded(4, 3);
    let before = total(&db);
    db.remove_node(NodeId(3)).unwrap();
    assert_eq!(db.membership().len(), 3);
    let snap = db.snapshot().unwrap();
    assert!(snap.subscriptions_of(NodeId(3)).is_empty());
    // Every shard still has >= 2 ACTIVE subscribers.
    for s in db.segment_shards() {
        assert!(snap.subscribers_in(s, SubState::Active).len() >= 2);
    }
    assert_eq!(total(&db), before);
}

#[test]
fn revive_respects_lease_and_truncation() {
    let (shared, db) = db_loaded(3, 3);
    let expect_rows = total(&db);
    db.sync_metadata(1_000).unwrap();

    // Lease still live: revive refuses.
    let err = EonDb::revive(shared.clone(), EonConfig::new(3, 3), 2_000);
    assert!(err.is_err(), "revive should refuse while lease is live");

    // After the lease expires, revive succeeds and data is intact.
    drop(db);
    let revived = EonDb::revive(shared.clone(), EonConfig::new(3, 3), 20_000).unwrap();
    assert_eq!(total(&revived), expect_rows);
    // New incarnation recorded as the revive commit point (§3.5).
    let info = eon_catalog::ClusterInfo::read(shared.as_ref()).unwrap().unwrap();
    assert_eq!(info.incarnation, revived.incarnation());
}

#[test]
fn revive_discards_unsynced_commits() {
    let (shared, db) = db_loaded(3, 3);
    let synced_rows = total(&db);
    db.sync_metadata(1_000).unwrap();
    // Commit more data but do NOT sync: these commits exist only in
    // node-local logs, so a catastrophic cluster loss rewinds past
    // them (§3.5's truncation semantics).
    db.copy_into(
        "t",
        (5000..5100).map(|i| vec![Value::Int(i), Value::Int(0)]).collect(),
    )
    .unwrap();
    assert_eq!(total(&db), synced_rows + 100);
    drop(db);

    let revived = EonDb::revive(shared, EonConfig::new(3, 3), 50_000).unwrap();
    assert_eq!(total(&revived), synced_rows, "unsynced load must be truncated");
    // The revived cluster keeps working: load + query.
    revived
        .copy_into(
            "t",
            (9000..9010).map(|i| vec![Value::Int(i), Value::Int(1)]).collect(),
        )
        .unwrap();
    assert_eq!(total(&revived), synced_rows + 10);
}

#[test]
fn cluster_shuts_down_on_coverage_loss() {
    let (_, db) = db_loaded(3, 3);
    // k_safety = 1: two nodes down can uncover a shard.
    db.kill_node(NodeId(0)).unwrap();
    db.kill_node(NodeId(1)).unwrap();
    let plan = Plan::scan(ScanSpec::new("t")).aggregate(vec![], vec![AggSpec::count_star()]);
    assert!(db.query(&plan).is_err(), "must refuse rather than answer wrong");
}
