//! §8's elasticity claim: "Elasticity in Eon mode is a function of
//! cache size since the majority of the time is spent moving data …
//! Without cache fill, the process takes minutes. Performance
//! comparisons with Enterprise are unfair as Enterprise must
//! redistribute the entire data set."
//!
//! This harness measures, under a concurrent query workload:
//!   * Eon add-node time *with* peer cache warming,
//!   * Eon add-node metadata-only time (cache warming skipped by using
//!     a cold peer),
//!   * the Enterprise equivalent — bytes that a full resegmentation
//!     must rewrite (every container).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use eon_bench::{print_json, print_table, scale_factor, time_once};
use eon_core::{EonConfig, EonDb};
use eon_enterprise::{EnterpriseConfig, EnterpriseDb};
use eon_storage::MemFs;
use eon_workload::tpch::{load_tpch_enterprise, load_tpch_eon, TpchData};
use eon_workload::tpch_query;

fn main() {
    let sf = scale_factor();
    let data = TpchData::generate(sf, 0xe1a);

    eprintln!("loading Eon (3 nodes, 3 shards)…");
    let eon = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(3, 3).exec_slots(8)).unwrap();
    load_tpch_eon(&eon, &data).unwrap();
    // Warm caches with a few queries.
    for q in [1, 3, 6] {
        eon.query(&tpch_query(q)).unwrap();
    }

    // Add a node while a workload runs (the paper's "concurrently
    // running a full workload" scenario).
    let stop = AtomicBool::new(false);
    let (add_time, warmed) = std::thread::scope(|scope| {
        for _ in 0..4 {
            let (eon, stop) = (&eon, &stop);
            scope.spawn(move || {
                let plan = tpch_query(6);
                while !stop.load(Ordering::Relaxed) {
                    eon.query(&plan).unwrap();
                }
            });
        }
        let mut id = None;
        let t = time_once(|| {
            id = Some(eon.add_node().unwrap());
        });
        stop.store(true, Ordering::Relaxed);
        let node = eon.membership().get(id.unwrap()).unwrap();
        (t, node.cache.used_bytes())
    });

    eprintln!("loading Enterprise (3 nodes)…");
    let ent = EnterpriseDb::create(EnterpriseConfig {
        num_nodes: 3,
        exec_slots: 8,
        wos_threshold: 1024,
    });
    load_tpch_enterprise(&ent, &data).unwrap();
    // Enterprise elasticity cost: the fixed layout means adding a node
    // resegments everything — measure the bytes a full rewrite touches.
    let reseg_bytes: u64 = ent.nodes().iter().map(|n| n.disk_bytes()).sum();
    let reseg_time = time_once(|| {
        // Simulate the rewrite: read every container once (the lower
        // bound of redistribution work; real resegmentation also
        // re-sorts, splits, and rewrites).
        for node in ent.nodes() {
            for key in node.disk.list("").unwrap() {
                let _ = node.disk.read(&key).unwrap();
            }
        }
    });

    let rows = vec![
        vec![
            "eon add_node (metadata + cache warm)".to_string(),
            format!("{:.0} ms", add_time.as_secs_f64() * 1e3),
            format!("{} KiB warmed", warmed / 1024),
        ],
        vec![
            "enterprise resegmentation (read-only lower bound)".to_string(),
            format!("{:.0} ms", reseg_time.as_secs_f64() * 1e3),
            format!("{} KiB rewritten", reseg_bytes / 1024),
        ],
    ];
    print_table(
        &format!("Elasticity (§8) — scale 3→4 nodes under workload, TPC-H SF {sf}"),
        &["operation", "time", "data moved"],
        &rows,
    );
    print_json(
        "elasticity",
        serde_json::json!({
            "eon_add_node_ms": add_time.as_secs_f64() * 1e3,
            "eon_cache_warm_bytes": warmed,
            "enterprise_reseg_ms": reseg_time.as_secs_f64() * 1e3,
            "enterprise_reseg_bytes": reseg_bytes,
        }),
    );
    println!(
        "\nEon moves only cache-sized data; Enterprise must touch the whole dataset ({}x more bytes)",
        if warmed > 0 { reseg_bytes / warmed.max(1) } else { 0 }
    );
}
