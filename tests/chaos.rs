//! Chaos testing against the flaky S3 simulator: "any filesystem access
//! can (and will) fail" (§5.3). With transient failures and throttles
//! injected on every request, the one retry loop (`RetryFs`, below the
//! depots and the catalog sync) must keep loads, queries, DML,
//! mergeout, and revive fully functional — and never corrupt an answer.

use std::sync::Arc;

use eon_core::{EonConfig, EonDb, SessionOpts};
use eon_db as _;
use eon_exec::{AggSpec, Expr, Plan, ScanSpec};
use eon_storage::{S3Config, S3SimFs};
use eon_types::{schema, NodeId, Value};

fn flaky_s3(fail: f64, throttle: f64, seed: u64) -> Arc<S3SimFs> {
    Arc::new(S3SimFs::new(S3Config::flaky(fail, throttle, seed)))
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

#[test]
fn lifecycle_survives_flaky_s3() {
    // 8% transient failures + 4% throttles on every S3 request.
    let db = EonDb::create(flaky_s3(0.08, 0.04, 0xc4a05), EonConfig::new(3, 3)).unwrap();
    setup(&db, 3_000);
    let expect_sum: i64 = (0..3_000).map(|i| i % 101).sum();

    assert_eq!(db.query(&count_plan()).unwrap()[0][0], Value::Int(3_000));
    assert_eq!(db.query(&sum_plan()).unwrap()[0][0], Value::Int(expect_sum));

    // Cache-bypass reads hammer S3 directly — the retry loop is all
    // that stands between them and the injected failures.
    let bypass = SessionOpts {
        bypass_cache: true,
        ..Default::default()
    };
    assert_eq!(
        db.query_with(&count_plan(), &bypass).unwrap()[0][0],
        Value::Int(3_000)
    );

    // DML + compaction under the same fault rate.
    let deleted = db
        .delete_where(
            "t",
            &eon_columnar::Predicate::cmp(0, eon_columnar::pruning::CmpOp::Lt, 500i64),
        )
        .unwrap();
    assert_eq!(deleted, 500);
    db.run_mergeout().unwrap();
    assert_eq!(db.query(&count_plan()).unwrap()[0][0], Value::Int(2_500));

    // Node failure on top of storage failures.
    db.kill_node(NodeId(2)).unwrap();
    assert_eq!(db.query(&count_plan()).unwrap()[0][0], Value::Int(2_500));
    db.restart_node(NodeId(2)).unwrap();
    assert_eq!(db.query(&count_plan()).unwrap()[0][0], Value::Int(2_500));
}

#[test]
fn sync_and_revive_survive_flaky_s3() {
    let s3 = flaky_s3(0.08, 0.04, 0x5eed);
    let db = EonDb::create(s3.clone(), EonConfig::new(3, 3)).unwrap();
    setup(&db, 1_000);
    // Metadata sync retries uploads until the consensus advances.
    let info = db.sync_metadata(1_000).unwrap();
    assert_eq!(info.truncation_version, db.version());
    drop(db);

    // Revive reads everything back through the same flaky storage.
    // Revive itself does not retry (it is a manual, restartable
    // operation) — drive it like an operator would.
    let mut attempt = 0;
    let revived = loop {
        attempt += 1;
        match EonDb::revive(s3.clone(), EonConfig::new(3, 3), 100_000 + attempt) {
            Ok(db) => break db,
            Err(e) if attempt < 200 => {
                assert!(
                    !matches!(e, eon_types::EonError::Revive(_)) || attempt < 200,
                    "revive logic error: {e}"
                );
            }
            Err(e) => panic!("revive never succeeded: {e}"),
        }
    };
    assert_eq!(revived.query(&count_plan()).unwrap()[0][0], Value::Int(1_000));
}

#[test]
fn hard_throttling_still_completes() {
    // 30% throttle rate: progress is slow but everything completes.
    let db = EonDb::create(flaky_s3(0.0, 0.30, 0x7777), EonConfig::new(3, 2)).unwrap();
    setup(&db, 500);
    assert_eq!(db.query(&count_plan()).unwrap()[0][0], Value::Int(500));
}
