//! Durability and revive (paper §3.5): a cluster loses every instance,
//! and a new cluster revives from nothing but shared storage —
//! truncating to the consensus version, refusing while the lease is
//! live, and stamping a fresh incarnation id.
//!
//! ```sh
//! cargo run --release --example cloud_revive
//! ```

use std::sync::Arc;

use eon_db::catalog::ClusterInfo;
use eon_db::columnar::Projection;
use eon_db::core::{EonConfig, EonDb};
use eon_db::exec::{AggSpec, Plan, ScanSpec};
use eon_db::storage::{MemFs, SharedFs};
use eon_db::types::{schema, Value};

fn count(db: &EonDb) -> i64 {
    let plan = Plan::scan(ScanSpec::new("events")).aggregate(vec![], vec![AggSpec::count_star()]);
    db.query(&plan).unwrap()[0][0].as_int().unwrap()
}

fn main() -> eon_db::types::Result<()> {
    let shared: SharedFs = Arc::new(MemFs::new());

    // --- life of the first cluster -------------------------------
    let db = EonDb::create(shared.clone(), EonConfig::new(3, 3))?;
    let s = schema![("id", Int), ("kind", Str)];
    db.create_table(
        "events",
        s.clone(),
        vec![Projection::super_projection("events_super", &s, &[0], &[0])],
    )?;
    db.copy_into(
        "events",
        (0..5_000).map(|i| vec![Value::Int(i), Value::Str("synced".into())]).collect(),
    )?;

    // Periodic metadata sync: uploads logs + checkpoints, computes the
    // consensus truncation version, writes cluster_info.
    let info = db.sync_metadata(1_000)?;
    println!(
        "synced: truncation={} incarnation={} lease_until={}ms",
        info.truncation_version, info.incarnation, info.lease_until_ms
    );

    // More data *after* the last sync: durable only on node-local
    // disks. A full-cluster loss will rewind past it.
    db.copy_into(
        "events",
        (9_000..9_500).map(|i| vec![Value::Int(i), Value::Str("unsynced".into())]).collect(),
    )?;
    println!("rows before the disaster: {}", count(&db));

    // --- catastrophe ---------------------------------------------
    drop(db); // every instance gone; only shared storage remains

    // Too early: the lease is still live (another cluster might be
    // running against this storage).
    match EonDb::revive(shared.clone(), EonConfig::new(3, 3), 2_000) {
        Err(e) => println!("revive at t=2s correctly refused: {e}"),
        Ok(_) => unreachable!("lease should block this"),
    }

    // After the lease expires, revive succeeds.
    let revived = EonDb::revive(shared.clone(), EonConfig::new(3, 3), 60_000)?;
    println!(
        "revived as incarnation {} with {} rows (unsynced tail truncated)",
        revived.incarnation(),
        count(&revived)
    );

    // The revive committed by replacing cluster_info.
    let new_info = ClusterInfo::read(shared.as_ref())?.unwrap();
    assert_eq!(new_info.incarnation, revived.incarnation());

    // And the revived cluster is fully operational.
    revived.copy_into(
        "events",
        (20_000..20_100).map(|i| vec![Value::Int(i), Value::Str("after-revive".into())]).collect(),
    )?;
    println!("rows after new load: {}", count(&revived));
    Ok(())
}
