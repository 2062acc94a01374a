//! Quickstart: create an Eon-mode database on (simulated) S3, create a
//! table, load data, and run queries — including with a node down.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use eon_db::columnar::pruning::CmpOp;
use eon_db::columnar::{Predicate, Projection};
use eon_db::core::{EonConfig, EonDb};
use eon_db::exec::{AggSpec, Expr, Plan, ScanSpec, SortKey};
use eon_db::storage::{S3Config, S3SimFs};
use eon_db::types::{schema, NodeId, Value};

fn main() -> eon_db::types::Result<()> {
    // Shared storage: the simulated S3 (latency + request-cost model).
    // Swap in `MemFs` for instant tests.
    let s3 = Arc::new(S3SimFs::new(S3Config::default()));

    // A 3-node cluster over 3 segment shards, tolerating 1 node failure.
    let db = EonDb::create(s3, EonConfig::new(3, 3).k_safety(1))?;

    // CREATE TABLE sales … with a superprojection segmented by sale_id
    // and sorted by date (good for date-range pruning).
    let s = schema![("sale_id", Int), ("customer", Str), ("date", Date), ("price", Int)];
    db.create_table(
        "sales",
        s.clone(),
        vec![Projection::super_projection("sales_super", &s, &[2], &[0])],
    )?;

    // COPY 10k rows.
    let rows: Vec<Vec<Value>> = (0..10_000)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Str(format!("customer{}", i % 50)),
                eon_db::types::value::date(2018, 1 + (i % 12) as u32, 1 + (i % 28) as u32),
                Value::Int(10 + i % 90),
            ]
        })
        .collect();
    let loaded = db.copy_into("sales", rows)?;
    println!("loaded {loaded} rows");

    // Revenue per customer for Q1 2018, top 5. The date predicate is
    // pushed into the scan and prunes blocks via min/max metadata.
    let q1_start = eon_db::types::value::ymd_to_days(2018, 1, 1);
    let q2_start = eon_db::types::value::ymd_to_days(2018, 4, 1);
    let plan = Plan::scan(ScanSpec::new("sales").predicate(Predicate::And(vec![
        Predicate::cmp(2, CmpOp::Ge, Value::Date(q1_start)),
        Predicate::cmp(2, CmpOp::Lt, Value::Date(q2_start)),
    ])))
    .aggregate(vec![1], vec![AggSpec::sum(Expr::col(3)), AggSpec::count_star()])
    .sort(vec![SortKey::desc(1)])
    .limit(5);

    println!("\ntop customers, Q1 2018:");
    for row in db.query(&plan)? {
        println!("  {} revenue={} sales={}", row[0], row[1], row[2]);
    }

    // Kill a node: shards stay available through their other
    // subscribers — same answer, no repair step.
    db.kill_node(NodeId(1))?;
    let after = db.query(&plan)?;
    println!("\nnode1 killed; same top customer: {} (answer unchanged)", after[0][0]);

    // Restart it: catalog catch-up + peer cache warming.
    let warmed = db.restart_node(NodeId(1))?;
    println!("node1 restarted; {warmed} files warmed from a peer's cache");

    // What did all this cost on the simulated S3?
    let stats = db.shared().stats();
    println!(
        "\nS3 bill: {} requests, {} KiB up, {} KiB down, ${:.6}",
        stats.requests(),
        stats.bytes_written / 1024,
        stats.bytes_read / 1024,
        stats.cost_nanodollars as f64 / 1e9,
    );
    Ok(())
}
