//! §6.1's recovery claim: "Worst case recovery performance is
//! proportional to the size of the cache in Eon, whereas Enterprise
//! recovery is proportional to the entire data-set stored on an
//! Enterprise node."
//!
//! Measured by restarting one node at growing data volumes: Eon
//! restart time should grow with the (capped) cache, Enterprise rebuild
//! time with the data.

use std::sync::Arc;

use eon_bench::{print_json, print_table, time_once};
use eon_columnar::Batch;
use eon_core::{EonConfig, EonDb};
use eon_enterprise::{EnterpriseConfig, EnterpriseDb};
use eon_storage::MemFs;
use eon_types::{NodeId, Value};

/// `n` rows of `schema()`, as the batch both architectures load.
fn rows(n: i64) -> Batch {
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::Int(i % 97), Value::Str(format!("v{i}"))])
        .collect();
    Batch::from_rows(&rows, 3)
}

fn schema() -> eon_types::Schema {
    eon_types::schema![("id", Int), ("grp", Int), ("payload", Str)]
}

fn main() {
    // Cap Eon's depot so recovery cost plateaus while data grows.
    const CACHE_BYTES: u64 = 256 << 10;
    let mut table = Vec::new();
    for &n_rows in &[20_000i64, 40_000, 80_000] {
        // --- Eon: kill + restart (catalog catch-up + cache warm) ---
        let eon = EonDb::create(
            Arc::new(MemFs::new()),
            EonConfig::new(3, 3).cache_bytes(CACHE_BYTES),
        )
        .unwrap();
        let s = schema();
        let batch = rows(n_rows);
        eon.create_table(
            "t",
            s.clone(),
            vec![eon_columnar::Projection::super_projection("p", &s, &[0], &[0])],
        )
        .unwrap();
        eon.copy_batch("t", batch.clone()).unwrap();
        eon.kill_node(NodeId(1)).unwrap();
        let t_eon = time_once(|| {
            eon.restart_node(NodeId(1)).unwrap();
        });
        let warmed = eon.membership().get(NodeId(1)).unwrap().cache.used_bytes();

        // --- Enterprise: kill + rebuild from buddies ---
        let ent = EnterpriseDb::create(EnterpriseConfig {
            num_nodes: 3,
            exec_slots: 4,
            wos_threshold: 1024,
        });
        ent.create_table(
            "t",
            s.clone(),
            eon_columnar::Projection::super_projection("p", &s, &[0], &[0]),
        )
        .unwrap();
        ent.copy_batch("t", batch).unwrap();
        ent.node(1).kill();
        let mut copied = 0;
        let t_ent = time_once(|| {
            copied = ent.recover_node(1).unwrap();
        });

        print_json(
            "recovery",
            serde_json::json!({
                "rows": n_rows,
                "eon_restart_ms": t_eon.as_secs_f64() * 1e3,
                "eon_cache_bytes": warmed,
                "enterprise_rebuild_ms": t_ent.as_secs_f64() * 1e3,
                "enterprise_copied_bytes": copied,
            }),
        );
        table.push(vec![
            n_rows.to_string(),
            format!("{:.1}", t_eon.as_secs_f64() * 1e3),
            format!("{}", warmed / 1024),
            format!("{:.1}", t_ent.as_secs_f64() * 1e3),
            format!("{}", copied / 1024),
        ]);
    }
    print_table(
        "Recovery cost (§6.1) — node restart vs data volume",
        &[
            "rows",
            "eon restart ms",
            "eon warmed KiB (capped)",
            "enterprise rebuild ms",
            "enterprise copied KiB",
        ],
        &table,
    );
    println!("\nEon's moved bytes plateau at the depot cap; Enterprise's grow with the dataset.");
}
